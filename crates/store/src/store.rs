//! The content-addressed on-disk measurement store.

use crate::entry::{decode_measurement, encode_measurement};
use crate::wire::{Reader, Writer};
use dotm_core::fnv::{fnv64, Fnv128};
use dotm_core::{CachedMeasurement, MeasurementStore, MemoryStore};
use std::collections::HashSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Entry-file magic: 8 bytes of name + format version. Bumping the
/// version orphans (never misreads) every existing entry.
const MAGIC: &[u8; 8] = b"DOTMST01";

/// Live counters of one store session. `misses`, `disk_hits` and
/// `computed` count distinct keys, and `mem_hits` is the rest of the
/// loads, so the counters are those of a sequential run whatever the
/// thread schedule: two classes that race on one key both miss and both
/// compute, yet count one miss, one computed and one memory hit. The
/// interesting invariant is `computed == 0` on a fully warm run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// `load` calls.
    pub loads: u64,
    /// Loads answered by the in-memory overlay: every load that is not
    /// a key's first lookup past it.
    pub mem_hits: u64,
    /// Keys whose first lookup was answered by an entry file on disk.
    pub disk_hits: u64,
    /// Keys whose first lookup was answered by nobody — the pipeline
    /// computes the measurement.
    pub misses: u64,
    /// Keys stored (one per freshly *computed* measurement).
    pub computed: u64,
    /// Entry writes that failed at the filesystem level (absorbed: the
    /// campaign continues, the entry is simply not persisted).
    pub write_errors: u64,
}

impl StoreCounters {
    /// Loads answered without touching the solver.
    pub fn hits(&self) -> u64 {
        self.mem_hits + self.disk_hits
    }

    /// Hit rate in percent (100% when there were no loads).
    pub fn hit_pct(&self) -> f64 {
        if self.loads == 0 {
            return 100.0;
        }
        100.0 * self.hits() as f64 / self.loads as f64
    }
}

/// A persistent measurement store rooted at a directory.
///
/// Opened with a campaign *context* fingerprint (see
/// [`pipeline_context`](crate::pipeline_context)); every pipeline store
/// key is folded with the context before touching memory or disk, so
/// runs under different configurations address disjoint key spaces
/// inside the same directory. Corrupt, truncated or foreign entry files
/// read as misses, never as errors.
///
/// Layout: `<dir>/meas/<first 2 hex digits>/<32 hex digits>.ent`.
pub struct DiskStore {
    meas_dir: PathBuf,
    context: u128,
    /// The in-memory write-through overlay, keyed by context-mixed keys.
    memory: MemoryStore,
    loads: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    computed: AtomicU64,
    write_errors: AtomicU64,
    /// Keys looked up past the memory overlay, and keys stored: a disk
    /// hit or miss counts on a key's first lookup only, a store on its
    /// first store only.
    looked_up: Mutex<HashSet<u128>>,
    stored: Mutex<HashSet<u128>>,
}

/// Folds a campaign context into a pipeline store key: both halves pass
/// through the full FNV-1a mixing, so contexts differing in a single bit
/// address disjoint key spaces.
fn mix(context: u128, key: u128) -> u128 {
    let mut h = Fnv128::new();
    h.u128(context).u128(key);
    h.finish()
}

/// `true` the first time `key` enters `set`.
fn first_time(set: &Mutex<HashSet<u128>>, key: u128) -> bool {
    set.lock()
        .expect("a thread panicked holding a store key set")
        .insert(key)
}

impl DiskStore {
    /// Opens (creating directories as needed) the store under `dir` for
    /// one campaign context.
    ///
    /// # Errors
    /// Only directory creation can fail; all later I/O degrades to
    /// misses or dropped writes.
    pub fn open(dir: impl AsRef<Path>, context: u128) -> io::Result<Self> {
        let meas_dir = dir.as_ref().join("meas");
        fs::create_dir_all(&meas_dir)?;
        Ok(DiskStore {
            meas_dir,
            context,
            memory: MemoryStore::new(),
            loads: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            computed: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            looked_up: Mutex::new(HashSet::new()),
            stored: Mutex::new(HashSet::new()),
        })
    }

    /// The context fingerprint this store session was opened with.
    pub fn context(&self) -> u128 {
        self.context
    }

    /// A snapshot of the session counters.
    pub fn counters(&self) -> StoreCounters {
        let loads = self.loads.load(Ordering::Relaxed);
        let disk_hits = self.disk_hits.load(Ordering::Relaxed);
        let misses = self.misses.load(Ordering::Relaxed);
        StoreCounters {
            loads,
            mem_hits: loads - disk_hits - misses,
            disk_hits,
            misses,
            computed: self.computed.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
        }
    }

    fn entry_path(&self, mixed: u128) -> PathBuf {
        let hex = format!("{mixed:032x}");
        self.meas_dir.join(&hex[..2]).join(format!("{hex}.ent"))
    }

    fn read_entry(&self, mixed: u128) -> Option<CachedMeasurement> {
        let bytes = fs::read(self.entry_path(mixed)).ok()?;
        if bytes.len() < MAGIC.len() + 16 + 8 {
            return None;
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let checksum = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
        if fnv64(body) != checksum {
            return None;
        }
        let mut r = Reader::new(body);
        if r.raw(MAGIC.len())? != MAGIC {
            return None;
        }
        // An entry renamed or hard-linked to the wrong address must not
        // answer for it.
        if r.u128()? != mixed {
            return None;
        }
        let payload = r.raw(body.len() - MAGIC.len() - 16)?;
        decode_measurement(payload)
    }

    fn write_entry(&self, mixed: u128, value: &CachedMeasurement) -> io::Result<()> {
        let mut w = Writer::new();
        w.raw(MAGIC);
        w.u128(mixed);
        w.raw(&encode_measurement(value));
        let mut bytes = w.into_bytes();
        let checksum = fnv64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());

        write_durably(&self.entry_path(mixed), &bytes)
    }
}

/// Writes `bytes` to `path` so that a reader sees either the old file or
/// the whole new one, and the new one survives a power loss once this
/// returns: the parent directory is created, the bytes go to a temp file
/// beside `path`, which is synced, renamed over `path`, and the
/// directory synced (best-effort). On error the temp file is removed.
/// Store entries, job records and job reports are all written here.
///
/// The temp name is unique per process and write (pid plus a
/// process-wide counter), so concurrent writers of one path each stage
/// their own file and the renames settle on one winner. It never ends in
/// `.ent`, `.job` or `.report`, so no directory walk takes it for a
/// finished file.
///
/// # Errors
/// Any filesystem error but the directory sync.
pub fn write_durably(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let (Some(dir), Some(name)) = (path.parent(), path.file_name()) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{} names no file", path.display()),
        ));
    };
    fs::create_dir_all(dir)?;
    let nonce = NONCE.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(
        ".{}.tmp-{:x}-{nonce:x}",
        name.to_string_lossy(),
        std::process::id()
    ));
    let write = (|| {
        use std::io::Write as _;
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        // Flush the file to stable storage *before* the rename makes it
        // visible — otherwise a power loss can surface a renamed but
        // empty (or torn) file. A store reader would still degrade that
        // to a miss, but a phantom entry costs every later worker on a
        // shared store tree a recompute, and a torn job record drops a
        // queued job.
        f.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if let Err(e) = write {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    // Best-effort directory sync so the rename itself is durable.
    // Failure is absorbed: the readers' degrade-to-absent path remains
    // the last resort.
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

impl MeasurementStore for DiskStore {
    fn load(&self, key: u128) -> Option<CachedMeasurement> {
        // Hit/miss latency goes to the trace side channel only; the
        // AtomicU64 counters below stay the deterministic accounting.
        let t_load = dotm_obs::start();
        let out = self.load_inner(key);
        dotm_obs::phase(dotm_obs::Phase::StoreLoad, t_load);
        out
    }

    fn store(&self, key: u128, value: &CachedMeasurement) {
        let t_write = dotm_obs::start();
        self.store_inner(key, value);
        dotm_obs::phase(dotm_obs::Phase::StoreWrite, t_write);
    }

    /// Uncounted membership probe: memory shard, then a bare
    /// file-existence check — no decode, no checksum, and none of the
    /// session counters the warm-resume gates read. A corrupt entry can
    /// answer `true` here and still degrade to a miss on the real
    /// [`MeasurementStore::load`], so the answer is a hint, never a
    /// correctness input. The pipeline does not call it.
    fn contains(&self, key: u128) -> bool {
        let mixed = mix(self.context, key);
        self.memory.contains(mixed) || self.entry_path(mixed).exists()
    }
}

impl DiskStore {
    fn load_inner(&self, key: u128) -> Option<CachedMeasurement> {
        self.loads.fetch_add(1, Ordering::Relaxed);
        let mixed = mix(self.context, key);
        if let Some(hit) = self.memory.load(mixed) {
            return Some(hit);
        }
        let hit = self.read_entry(mixed);
        if first_time(&self.looked_up, mixed) {
            let counter = if hit.is_some() {
                &self.disk_hits
            } else {
                &self.misses
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(hit) = &hit {
            self.memory.store(mixed, hit);
        }
        hit
    }

    fn store_inner(&self, key: u128, value: &CachedMeasurement) {
        let mixed = mix(self.context, key);
        if first_time(&self.stored, mixed) {
            self.computed.fetch_add(1, Ordering::Relaxed);
        }
        self.memory.store(mixed, value);
        if self.write_entry(mixed, value).is_err() {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Reads a directory's children **sorted by path**. `fs::read_dir`
/// yields entries in filesystem order — inode hash order on many
/// filesystems — so every fold over it in this crate goes through this
/// helper to keep accounting lines and merge output byte-identical
/// across filesystems and creation orders. A missing directory is an
/// empty listing.
fn read_dir_sorted(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut paths = Vec::new();
    match fs::read_dir(dir) {
        Ok(iter) => {
            for entry in iter {
                paths.push(entry?.path());
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    paths.sort();
    Ok(paths)
}

/// All `.ent` entry files under `<dir>/meas`, sorted by path.
fn entry_files_sorted(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut entries = Vec::new();
    for shard in read_dir_sorted(&dir.join("meas"))? {
        if !shard.is_dir() {
            continue;
        }
        for f in read_dir_sorted(&shard)? {
            if f.extension().is_some_and(|e| e == "ent") {
                entries.push(f);
            }
        }
    }
    Ok(entries)
}

/// What a store directory holds, computed by a deterministic sorted
/// walk: the accounting shape for "how full is this store tree".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreOccupancy {
    /// Number of entry files.
    pub entries: u64,
    /// Total entry bytes.
    pub bytes: u64,
    /// FNV-64 folded over the entry *file names* in walk order. Because
    /// the walk sorts, this digest is a pure function of the entry set —
    /// two trees holding the same keys digest identically regardless of
    /// filesystem or creation order, which is exactly what the sharded
    /// byte-identity gates compare.
    pub name_digest: u64,
}

/// Walks `<dir>/meas` and returns its [`StoreOccupancy`].
///
/// # Errors
/// Any filesystem error during the walk (a missing `meas/` is an empty
/// store, not an error).
pub fn occupancy(dir: impl AsRef<Path>) -> io::Result<StoreOccupancy> {
    let mut occ = StoreOccupancy::default();
    let mut names = Vec::new();
    for path in entry_files_sorted(dir.as_ref())? {
        occ.entries += 1;
        occ.bytes += fs::metadata(&path)?.len();
        if let Some(name) = path.file_name() {
            names.extend_from_slice(name.to_string_lossy().as_bytes());
            names.push(b'\n');
        }
    }
    occ.name_digest = fnv64(&names);
    Ok(occ)
}

/// Deterministically flips one byte of one stored entry — the corruption
/// probe used by the verify gate and the recovery tests. Entries are
/// visited in lexicographic path order and the `index`-th one is
/// damaged in place. Returns the corrupted file's path, or `None` when
/// fewer than `index + 1` entries exist.
pub fn corrupt_one_entry(dir: impl AsRef<Path>, index: usize) -> io::Result<Option<PathBuf>> {
    let entries = entry_files_sorted(dir.as_ref())?;
    let Some(path) = entries.into_iter().nth(index) else {
        return Ok(None);
    };
    let mut bytes = fs::read(&path)?;
    // Flip a payload byte (past the magic) so the checksum fails.
    let at = MAGIC.len().min(bytes.len().saturating_sub(1));
    bytes[at] ^= 0x5a;
    fs::write(&path, &bytes)?;
    Ok(Some(path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::to_hex;
    use dotm_sim::{SimError, SimStats};
    use std::sync::atomic::AtomicUsize;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dotm-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    fn sample() -> CachedMeasurement {
        (
            Ok(vec![1.25, -3.5e-6]),
            SimStats {
                nr_solves: 2,
                nr_iterations: 17,
                ..SimStats::default()
            },
        )
    }

    #[test]
    fn store_then_load_across_sessions() {
        let dir = tmpdir("roundtrip");
        let value = sample();
        {
            let store = DiskStore::open(&dir, 42).expect("open");
            store.store(7, &value);
            // Same session: answered from the overlay.
            assert_eq!(store.load(7), Some(value.clone()));
            assert_eq!(store.counters().mem_hits, 1);
        }
        // New session (fresh overlay): answered from disk.
        let store = DiskStore::open(&dir, 42).expect("open");
        assert_eq!(store.load(7), Some(value));
        let c = store.counters();
        assert_eq!(c.disk_hits, 1);
        assert_eq!(c.misses, 0);
        assert_eq!(c.computed, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn racing_loads_and_stores_of_one_key_count_as_sequential() {
        let dir = tmpdir("race-one-key");
        let store = DiskStore::open(&dir, 5).expect("open");
        let value = sample();
        // Both threads load before either stores, so both miss and both
        // compute: the interleaving a sequential run never produces.
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    assert_eq!(store.load(9), None);
                    barrier.wait();
                    store.store(9, &value);
                });
            }
        });
        let sequential = StoreCounters {
            loads: 2,
            mem_hits: 1,
            disk_hits: 0,
            misses: 1,
            computed: 1,
            write_errors: 0,
        };
        assert_eq!(store.counters(), sequential);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn context_partitions_the_key_space() {
        let dir = tmpdir("context");
        let store_a = DiskStore::open(&dir, 1).expect("open");
        store_a.store(7, &sample());
        let store_b = DiskStore::open(&dir, 2).expect("open");
        assert_eq!(store_b.load(7), None, "other context must miss");
        assert_eq!(store_b.counters().misses, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_persist_too() {
        let dir = tmpdir("errors");
        let value: CachedMeasurement = (
            Err(SimError::NoConvergence {
                analysis: "dc",
                time: None,
                iterations: 600,
            }),
            SimStats {
                dc_failures: 1,
                ..SimStats::default()
            },
        );
        DiskStore::open(&dir, 9).expect("open").store(1, &value);
        let store = DiskStore::open(&dir, 9).expect("open");
        assert_eq!(store.load(1), Some(value));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_truncated_entries_read_as_misses() {
        let dir = tmpdir("corrupt");
        {
            let store = DiskStore::open(&dir, 5).expect("open");
            store.store(11, &sample());
            store.store(12, &sample());
        }
        let hit = corrupt_one_entry(&dir, 0).expect("io").expect("an entry");
        let store = DiskStore::open(&dir, 5).expect("open");
        let hits = [store.load(11).is_some(), store.load(12).is_some()];
        assert_eq!(
            hits.iter().filter(|h| **h).count(),
            1,
            "exactly the corrupted entry must miss"
        );
        // Truncate the other entry to a torn write.
        let bytes = fs::read(&hit).expect("read");
        fs::write(&hit, &bytes[..bytes.len() / 2]).expect("write");
        let store = DiskStore::open(&dir, 5).expect("open");
        assert_eq!(store.counters().loads, 0);
        let _ = store.load(11);
        let _ = store.load(12);
        assert_eq!(store.counters().hits(), 1);
        // Empty file, too.
        fs::write(&hit, b"").expect("write");
        let store = DiskStore::open(&dir, 5).expect("open");
        let _ = store.load(11);
        let _ = store.load(12);
        assert_eq!(store.counters().hits(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_addressed_under_wrong_key_misses() {
        let dir = tmpdir("renamed");
        let store = DiskStore::open(&dir, 5).expect("open");
        store.store(11, &sample());
        let from = store.entry_path(mix(5, 11));
        let to = store.entry_path(mix(5, 99));
        fs::create_dir_all(to.parent().expect("parent")).expect("mkdir");
        fs::rename(&from, &to).expect("rename");
        let fresh = DiskStore::open(&dir, 5).expect("open");
        assert_eq!(fresh.load(99), None, "key inside the entry disagrees");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn racing_writers_settle_on_identical_bytes() {
        let dir = tmpdir("race");
        let store = DiskStore::open(&dir, 3).expect("open");
        let value = sample();
        let done = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for k in 0..32u128 {
                        store.store(k, &value);
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(done.load(Ordering::Relaxed), 8);
        assert_eq!(store.counters().write_errors, 0);
        // Every key present, no stray temp files.
        let fresh = DiskStore::open(&dir, 3).expect("open");
        for k in 0..32u128 {
            assert_eq!(fresh.load(k), Some(value.clone()), "key {k}");
        }
        let mut stray = Vec::new();
        for shard in fs::read_dir(dir.join("meas")).expect("read_dir") {
            let shard = shard.expect("entry").path();
            if !shard.is_dir() {
                continue;
            }
            for f in fs::read_dir(&shard).expect("read_dir") {
                let f = f.expect("entry").path();
                if f.extension().map_or(true, |e| e != "ent") {
                    stray.push(f);
                }
            }
        }
        assert!(stray.is_empty(), "leftover temp files: {stray:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn occupancy_ignores_creation_order() {
        // Same key set written in different (shuffled) orders must fold
        // to the same occupancy — the sorted walk, not filesystem
        // enumeration order, defines the accounting bytes.
        let keys: Vec<u128> = (0..24).collect();
        let mut shuffled = keys.clone();
        // Deterministic shuffle: reverse halves and interleave.
        shuffled.reverse();
        shuffled.rotate_left(7);
        let dirs = [tmpdir("occ-a"), tmpdir("occ-b")];
        for (dir, order) in dirs.iter().zip([&keys, &shuffled]) {
            let store = DiskStore::open(dir, 42).expect("open");
            for k in order {
                store.store(*k, &sample());
            }
        }
        let occ_a = occupancy(&dirs[0]).expect("occupancy a");
        let occ_b = occupancy(&dirs[1]).expect("occupancy b");
        assert_eq!(occ_a, occ_b, "creation order must not leak into accounting");
        assert_eq!(occ_a.entries, 24);
        assert!(occ_a.bytes > 0);
        for dir in &dirs {
            let _ = fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn mix_separates_contexts_and_keys() {
        assert_ne!(mix(1, 2), mix(2, 1));
        assert_ne!(mix(0, 5), mix(5, 0));
        assert_eq!(mix(7, 9), mix(7, 9));
    }

    #[test]
    fn hex_store_paths_are_stable() {
        let dir = tmpdir("paths");
        let store = DiskStore::open(&dir, 0).expect("open");
        let mixed = mix(0, 1);
        let path = store.entry_path(mixed);
        let hex = format!("{mixed:032x}");
        assert!(path.ends_with(Path::new("meas").join(&hex[..2]).join(format!("{hex}.ent"))));
        assert_eq!(to_hex(&[0xab]), "ab");
        let _ = fs::remove_dir_all(&dir);
    }
}
