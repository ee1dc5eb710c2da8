//! Campaign jobs: the spec a client submits, the content-derived job
//! id, and the crash-safe on-disk record (`jobs/<id>.job`).
//!
//! ## Identity and dedup
//!
//! A job's id is the FNV-128 of its *result-affecting* fields (macro
//! selection, defect count, seeds, Monte-Carlo sizes, class truncation)
//! in a canonical sorted-key encoding. Execution details — thread
//! count, crash-injection knobs, the `fresh` flag — do not change a
//! single report byte (the byte-identity gates enforce exactly that), so
//! they stay out of the id: resubmitting the same configuration with a
//! different thread count still finds the finished job and answers from
//! it.
//!
//! ## Crash safety
//!
//! A job record is one line, written like a store entry (temp file,
//! fsync, rename — [`write_durably`]):
//! `{"dotm_job":1,"id":…,"data":"<hex>","crc":"<fnv64>"}` where `data`
//! hex-wraps the flat JSON job body. A torn or corrupt record reads as
//! absent (the client resubmits — ids are deterministic, nothing is
//! lost). Body keys the loader does not
//! know, such as the retired `remote` flag and `workers` count, are
//! ignored. A record in
//! `running` state at server startup is a crashed run: it re-enters the
//! queue, and the campaign's own journal resume makes the re-run cheap.

use crate::http::json_escape;
use dotm_store::{fnv64, from_hex, json_field, to_hex, write_durably, Fnv128};
use std::fs;
use std::path::{Path, PathBuf};

/// The five anchor macros, in campaign execution order.
pub const ALL_MACROS: [&str; 5] = [
    "comparator",
    "ladder",
    "bias_gen",
    "clock_gen",
    "decoder_slice",
];

/// What a client asks the service to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Macro names to run, a non-empty subset of [`ALL_MACROS`], in
    /// campaign order.
    pub macros: Vec<String>,
    /// Defects sprinkled per macro.
    pub defects: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Good-space common-sample count.
    pub gs_common: usize,
    /// Good-space mismatch-sample count.
    pub gs_mm: usize,
    /// Truncate to the most frequent classes (`0` = all).
    pub max_classes: usize,
    /// Executor threads (`0` = auto).
    pub threads: usize,
    /// Force a re-run even when the identical job already finished
    /// (the store still answers warm — `computed=0`).
    pub fresh: bool,
    /// Crash injection: the first run attempt aborts after this many
    /// classes (`0` = off). Used by the kill-mid-job gates.
    pub abort_once: u64,
}

impl JobSpec {
    /// The spec a submission with an empty body gets: the server
    /// process's own `DOTM_*` environment, all macros.
    pub fn from_env() -> JobSpec {
        let cfg = dotm_core::env::campaign_config();
        JobSpec {
            macros: ALL_MACROS.iter().map(|m| m.to_string()).collect(),
            defects: cfg.defects,
            seed: cfg.seed,
            gs_common: cfg.goodspace.common_samples,
            gs_mm: cfg.goodspace.mismatch_samples,
            max_classes: cfg.max_classes.unwrap_or(0),
            threads: dotm_core::env::threads().unwrap_or(0),
            fresh: false,
            abort_once: 0,
        }
    }

    /// Parses a submission body: a flat JSON object overriding any
    /// subset of the environment defaults. `macros` is a comma-separated
    /// string. Unknown macros, a malformed body or an empty selection
    /// are an error (the message is the HTTP 400 payload).
    pub fn parse(body: &[u8]) -> Result<JobSpec, String> {
        let mut spec = JobSpec::from_env();
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let text = text.trim();
        if text.is_empty() {
            return Ok(spec);
        }
        if !text.starts_with('{') || !text.ends_with('}') {
            return Err("body must be a JSON object".into());
        }
        let num = |key: &str, slot: &mut usize| -> Result<(), String> {
            if let Some(v) = json_field(text, key) {
                *slot = v
                    .parse()
                    .map_err(|_| format!("{key}: expected an unsigned integer, got {v:?}"))?;
            }
            Ok(())
        };
        num("defects", &mut spec.defects)?;
        num("gs_common", &mut spec.gs_common)?;
        num("gs_mm", &mut spec.gs_mm)?;
        num("max_classes", &mut spec.max_classes)?;
        num("threads", &mut spec.threads)?;
        if let Some(v) = json_field(text, "seed") {
            spec.seed = v
                .parse()
                .map_err(|_| format!("seed: expected an unsigned integer, got {v:?}"))?;
        }
        if let Some(v) = json_field(text, "abort_once") {
            spec.abort_once = v
                .parse()
                .map_err(|_| format!("abort_once: expected an unsigned integer, got {v:?}"))?;
        }
        if let Some(v) = json_field(text, "fresh") {
            spec.fresh = v
                .parse()
                .map_err(|_| format!("fresh: expected true/false, got {v:?}"))?;
        }
        if let Some(list) = json_field(text, "macros") {
            let mut macros = Vec::new();
            for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                if !ALL_MACROS.contains(&name) {
                    return Err(format!(
                        "unknown macro {name:?} (know: {})",
                        ALL_MACROS.join(", ")
                    ));
                }
                if !macros.iter().any(|m| m == name) {
                    macros.push(name.to_string());
                }
            }
            if macros.is_empty() {
                return Err("macros: empty selection".into());
            }
            // Canonical campaign order, independent of request order.
            macros.sort_by_key(|m| ALL_MACROS.iter().position(|a| a == m));
            spec.macros = macros;
        }
        Ok(spec)
    }

    /// Canonical sorted-key encoding of the result-affecting fields —
    /// the dedup identity.
    pub fn canonical(&self) -> String {
        format!(
            "{{\"defects\":{},\"gs_common\":{},\"gs_mm\":{},\"macros\":\"{}\",\"max_classes\":{},\"seed\":{}}}",
            self.defects,
            self.gs_common,
            self.gs_mm,
            self.macros.join(","),
            self.max_classes,
            self.seed
        )
    }

    /// The job id: FNV-128 of [`canonical`](JobSpec::canonical), as 32
    /// hex digits.
    pub fn id(&self) -> String {
        format!("{:032x}", Fnv128::new().str(&self.canonical()).finish())
    }
}

/// Job lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for the executor.
    Queued,
    /// The executor is running it (a record still in this state at
    /// startup is a crashed run and re-enters the queue).
    Running,
    /// Finished; the report bytes are on disk next to the record.
    Merged,
    /// Finished unsuccessfully; `exit` holds the classified code.
    Failed,
}

impl JobState {
    /// Stable lower-case name used on the wire and on disk.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Merged => "merged",
            JobState::Failed => "failed",
        }
    }

    fn parse(name: &str) -> Option<JobState> {
        match name {
            "queued" => Some(JobState::Queued),
            "running" => Some(JobState::Running),
            "merged" => Some(JobState::Merged),
            "failed" => Some(JobState::Failed),
            _ => None,
        }
    }
}

/// One job: spec plus queue bookkeeping, mirrored to `jobs/<id>.job`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// Content-derived id (see [`JobSpec::id`]).
    pub id: String,
    /// What to run.
    pub spec: JobSpec,
    /// Lifecycle state.
    pub state: JobState,
    /// Exit code of the last finished attempt (`0` until one fails).
    pub exit: i32,
    /// Run attempts started so far (crash-injection fires only on the
    /// first, so a restarted server never re-injects).
    pub attempts: u64,
    /// Submission order, for FIFO scheduling across restarts.
    pub seq: u64,
}

impl Job {
    /// A freshly submitted job.
    pub fn new(spec: JobSpec, seq: u64) -> Job {
        Job {
            id: spec.id(),
            spec,
            state: JobState::Queued,
            exit: 0,
            attempts: 0,
            seq,
        }
    }

    /// `jobs/<id>.job` under the jobs directory.
    pub fn path(jobs_dir: &Path, id: &str) -> PathBuf {
        jobs_dir.join(format!("{id}.job"))
    }

    /// `jobs/<id>.report` — the finished job's report bytes.
    pub fn report_path(jobs_dir: &Path, id: &str) -> PathBuf {
        jobs_dir.join(format!("{id}.report"))
    }

    fn body(&self) -> String {
        format!(
            "{{\"abort_once\":{},\"attempts\":{},\"defects\":{},\"exit\":{},\"fresh\":{},\
             \"gs_common\":{},\"gs_mm\":{},\"macros\":\"{}\",\"max_classes\":{},\
             \"seed\":{},\"seq\":{},\"state\":\"{}\",\"threads\":{}}}",
            self.spec.abort_once,
            self.attempts,
            self.spec.defects,
            self.exit,
            self.spec.fresh,
            self.spec.gs_common,
            self.spec.gs_mm,
            self.spec.macros.join(","),
            self.spec.max_classes,
            self.spec.seed,
            self.seq,
            self.state.name(),
            self.spec.threads,
        )
    }

    /// Persists the record through the store's durable write (temp
    /// file, fsync, atomic rename), FNV-checksummed like a store entry.
    ///
    /// # Errors
    /// Any filesystem error — job records are load-bearing for the
    /// service's crash contract, so failures are not absorbed.
    pub fn save(&self, jobs_dir: &Path) -> std::io::Result<()> {
        let body = self.body();
        let line = format!(
            "{{\"dotm_job\":1,\"id\":\"{}\",\"data\":\"{}\",\"crc\":\"{:016x}\"}}\n",
            self.id,
            to_hex(body.as_bytes()),
            fnv64(body.as_bytes()),
        );
        write_durably(&Job::path(jobs_dir, &self.id), line.as_bytes())
    }

    /// Loads one record. `None` for a missing, torn or corrupt file —
    /// indistinguishable from "never submitted", which is safe because
    /// ids are deterministic and resubmission recreates the record.
    pub fn load(jobs_dir: &Path, id: &str) -> Option<Job> {
        let text = fs::read_to_string(Job::path(jobs_dir, id)).ok()?;
        let line = text.lines().next()?;
        if json_field(line, "dotm_job")? != "1" || json_field(line, "id")? != id {
            return None;
        }
        let data = from_hex(json_field(line, "data")?)?;
        let crc = u64::from_str_radix(json_field(line, "crc")?, 16).ok()?;
        if fnv64(&data) != crc {
            return None;
        }
        let body = String::from_utf8(data).ok()?;
        let macros: Vec<String> = json_field(&body, "macros")?
            .split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        let spec = JobSpec {
            macros,
            defects: json_field(&body, "defects")?.parse().ok()?,
            seed: json_field(&body, "seed")?.parse().ok()?,
            gs_common: json_field(&body, "gs_common")?.parse().ok()?,
            gs_mm: json_field(&body, "gs_mm")?.parse().ok()?,
            max_classes: json_field(&body, "max_classes")?.parse().ok()?,
            threads: json_field(&body, "threads")?.parse().ok()?,
            fresh: json_field(&body, "fresh")?.parse().ok()?,
            abort_once: json_field(&body, "abort_once")?.parse().ok()?,
        };
        let job = Job {
            id: id.to_string(),
            state: JobState::parse(json_field(&body, "state")?)?,
            exit: json_field(&body, "exit")?.parse().ok()?,
            attempts: json_field(&body, "attempts")?.parse().ok()?,
            seq: json_field(&body, "seq")?.parse().ok()?,
            spec,
        };
        // The record's id must be the spec's id: a mismatch means the
        // file was tampered with or the id scheme changed — ignore it.
        (job.spec.id() == id).then_some(job)
    }

    /// Loads every valid record under the jobs directory.
    pub fn load_all(jobs_dir: &Path) -> Vec<Job> {
        let Ok(entries) = fs::read_dir(jobs_dir) else {
            return Vec::new();
        };
        let mut jobs: Vec<Job> = entries
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let id = name.strip_suffix(".job")?;
                Job::load(jobs_dir, id)
            })
            .collect();
        jobs.sort_by_key(|j| j.seq);
        jobs
    }

    /// The job's wire representation (without progress — the server
    /// appends that from live journal snapshots).
    pub fn status_fields(&self) -> String {
        format!(
            "\"id\":\"{}\",\"state\":\"{}\",\"exit\":{},\"attempts\":{},\"macros\":\"{}\"",
            json_escape(&self.id),
            self.state.name(),
            self.exit,
            self.attempts,
            json_escape(&self.spec.macros.join(",")),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dotm-job-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("tmpdir");
        dir
    }

    fn spec() -> JobSpec {
        JobSpec {
            macros: vec!["comparator".into(), "ladder".into()],
            defects: 2000,
            seed: 1995,
            gs_common: 2,
            gs_mm: 2,
            max_classes: 8,
            threads: 0,
            fresh: false,
            abort_once: 0,
        }
    }

    #[test]
    fn id_covers_results_not_execution() {
        let base = spec();
        let mut execution = spec();
        execution.threads = 3;
        execution.fresh = true;
        execution.abort_once = 4;
        assert_eq!(
            base.id(),
            execution.id(),
            "execution knobs are not identity"
        );

        type Mutation = (fn(&mut JobSpec), &'static str);
        let mutations: Vec<Mutation> = vec![
            (|s| s.defects = 2001, "defects"),
            (|s| s.seed = 1996, "seed"),
            (|s| s.gs_common = 3, "gs_common"),
            (|s| s.gs_mm = 3, "gs_mm"),
            (|s| s.max_classes = 9, "max_classes"),
            (|s| s.macros.truncate(1), "macros"),
        ];
        for (mutate, what) in mutations {
            let mut changed = spec();
            mutate(&mut changed);
            assert_ne!(base.id(), changed.id(), "{what} must change the id");
        }
    }

    #[test]
    fn parse_overrides_and_rejects() {
        // Only overridden fields are asserted: the defaults are
        // env-driven and the harness environment stays untouched.
        let spec = JobSpec::parse(
            br#"{"defects":500,"seed":7,"macros":"ladder, comparator","fresh":true}"#,
        )
        .expect("valid body");
        assert_eq!(spec.defects, 500);
        assert_eq!(spec.seed, 7);
        assert!(spec.fresh);
        // Canonical campaign order regardless of request order.
        assert_eq!(spec.macros, ["comparator", "ladder"]);

        assert!(JobSpec::parse(b"not json").is_err());
        assert!(JobSpec::parse(br#"{"defects":"many"}"#).is_err());
        assert!(JobSpec::parse(br#"{"macros":"mystery"}"#).is_err());
        assert!(JobSpec::parse(br#"{"macros":" , "}"#).is_err());
        // The retired `remote` flag and `workers` count are unknown keys
        // like any other.
        assert_eq!(
            JobSpec::parse(br#"{"remote":true,"workers":3}"#),
            JobSpec::parse(b"")
        );
        assert!(
            JobSpec::parse(b"")
                .expect("empty body is defaults")
                .macros
                .len()
                == 5
        );
    }

    #[test]
    fn records_roundtrip_and_corruption_reads_as_absent() {
        let dir = tmpdir("roundtrip");
        let mut job = Job::new(spec(), 3);
        job.state = JobState::Failed;
        job.exit = 3;
        job.attempts = 2;
        job.save(&dir).expect("save");
        assert_eq!(Job::load(&dir, &job.id), Some(job.clone()));
        assert_eq!(Job::load_all(&dir), vec![job.clone()]);

        // Flip one payload byte: the checksum must reject the record.
        let path = Job::path(&dir, &job.id);
        let mut text = fs::read_to_string(&path).expect("read");
        let at = text.find("\"data\":\"").expect("data field") + 9;
        let byte = text.as_bytes()[at];
        text.replace_range(at..at + 1, if byte == b'0' { "1" } else { "0" });
        fs::write(&path, text).expect("write");
        assert_eq!(Job::load(&dir, &job.id), None, "corrupt record is absent");
        assert!(Job::load_all(&dir).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_hex_payload_reads_as_absent_without_panicking() {
        // A multibyte character at an odd byte offset of the hex payload
        // must not split a char boundary: the record is simply absent,
        // so startup recovery (`load_all`) skips it instead of dying.
        let dir = tmpdir("nonhex");
        let id = spec().id();
        let line = format!(
            "{{\"dotm_job\":1,\"id\":\"{id}\",\"data\":\"aéb\",\"crc\":\"{:016x}\"}}\n",
            fnv64(b"")
        );
        fs::write(Job::path(&dir, &id), line).expect("write");
        assert_eq!(Job::load(&dir, &id), None);
        assert!(Job::load_all(&dir).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    /// The record `job` would have been saved as by an older server: the
    /// same envelope, with the retired `"workers":…` count last in the
    /// body and, before the `remote` flag was retired, `"remote":…` too.
    fn parent_format_record(job: &Job, workers: usize, remote: Option<bool>) -> String {
        let mut body = job.body();
        body.insert_str(body.len() - 1, &format!(",\"workers\":{workers}"));
        if let Some(remote) = remote {
            body = body.replace(",\"seed\":", &format!(",\"remote\":{remote},\"seed\":"));
        }
        format!(
            "{{\"dotm_job\":1,\"id\":\"{}\",\"data\":\"{}\",\"crc\":\"{:016x}\"}}\n",
            job.id,
            to_hex(body.as_bytes()),
            fnv64(body.as_bytes()),
        )
    }

    #[test]
    fn parent_format_records_load_with_retired_keys_ignored() {
        let dir = tmpdir("parent");
        let mut job = Job::new(spec(), 5);
        job.state = JobState::Running;
        job.attempts = 1;
        for remote in [Some(true), Some(false), None] {
            for workers in [0, 3] {
                let record = parent_format_record(&job, workers, remote);
                assert!(record.contains(&to_hex(format!("\"workers\":{workers}}}").as_bytes())));
                if let Some(remote) = remote {
                    assert!(record.contains(&to_hex(format!("\"remote\":{remote}").as_bytes())));
                }
                fs::write(Job::path(&dir, &job.id), record).expect("write");
                assert_eq!(Job::load(&dir, &job.id), Some(job.clone()));
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Seeded mutation loop over job records and submission bodies:
    /// truncations, bit flips and random bytes of a current record, of
    /// older records carrying `"workers"` (with and without
    /// `"remote":true`) and of a body with both retired keys. Neither
    /// parser may panic, and a mutated record either reads as absent or
    /// as exactly the job it was written for — the checksum and id checks
    /// must never let a corrupt record through as a different job.
    #[test]
    fn mutated_records_never_panic_or_load_as_another_job() {
        use dotm_rng::{Rng, SeedableRng, StdRng};

        let dir = tmpdir("mutate");
        let mut job = Job::new(spec(), 7);
        job.state = JobState::Merged;
        job.attempts = 3;
        job.save(&dir).expect("save");
        let path = Job::path(&dir, &job.id);
        let seeds = [
            fs::read(&path).expect("record"),
            parent_format_record(&job, 2, None).into_bytes(),
            parent_format_record(&job, 2, Some(true)).into_bytes(),
            br#"{"defects":500,"seed":7,"macros":"ladder,comparator","workers":3,"fresh":true,"remote":true}"#
                .to_vec(),
        ];
        const ALPHABET: &[u8] = b"{}\":,0123456789abcdef_jobremtu \n";
        let mut rng = StdRng::seed_from_u64(0x05EE_D0B5);
        for round in 0..3000usize {
            let base = &seeds[round % seeds.len()];
            let bytes: Vec<u8> = match rng.gen_range(0..4u32) {
                0 => base[..rng.gen_range(0..base.len())].to_vec(),
                1 => {
                    let mut b = base.clone();
                    for _ in 0..rng.gen_range(1..=4usize) {
                        let at = rng.gen_range(0..b.len());
                        b[at] ^= 1 << rng.gen_range(0..8u32);
                    }
                    b
                }
                2 => (0..rng.gen_range(0..160usize))
                    .map(|_| rng.gen_range(0..=255u32) as u8)
                    .collect(),
                _ => (0..rng.gen_range(0..160usize))
                    .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
                    .collect(),
            };
            fs::write(&path, &bytes).expect("write");
            let loaded = Job::load(&dir, &job.id);
            assert!(
                loaded.is_none() || loaded.as_ref() == Some(&job),
                "round {round}: mutated record loaded as {loaded:?}"
            );
            let _ = JobSpec::parse(&bytes);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Seeded adversarial loop over submission bodies: random bytes,
    /// truncations and mutations of valid bodies. `JobSpec::parse` may
    /// reject any of them but must not panic, and whatever it accepts
    /// names a non-empty set of known macros, in campaign order.
    #[test]
    fn job_spec_parse_never_panics_and_accepts_only_known_macros() {
        use dotm_rng::{Rng, SeedableRng, StdRng};

        let bodies: [&[u8]; 4] = [
            br#"{"defects":500,"seed":7,"macros":"ladder, comparator","fresh":true}"#,
            br#"{"macros":"decoder_slice,bias_gen,clock_gen,ladder,comparator","threads":4}"#,
            br#"{"gs_common":2,"gs_mm":2,"max_classes":8,"abort_once":3,"macros":"bias_gen"}"#,
            b"",
        ];
        const ALPHABET: &[u8] = b"{}\":, 0123456789_abcdeglmnoprstu\xc3\xa9";
        let mut rng = StdRng::seed_from_u64(0x5EED_5BEC);
        for round in 0..5000usize {
            let base = bodies[round % bodies.len()];
            let bytes: Vec<u8> = match rng.gen_range(0..4u32) {
                0 => base[..rng.gen_range(0..=base.len())].to_vec(),
                1 if !base.is_empty() => {
                    let mut b = base.to_vec();
                    for _ in 0..rng.gen_range(1..=4usize) {
                        let at = rng.gen_range(0..b.len());
                        b[at] ^= 1 << rng.gen_range(0..8u32);
                    }
                    b
                }
                2 => (0..rng.gen_range(0..120usize))
                    .map(|_| rng.gen_range(0..=255u32) as u8)
                    .collect(),
                _ => (0..rng.gen_range(0..120usize))
                    .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
                    .collect(),
            };
            let Ok(spec) = JobSpec::parse(&bytes) else {
                continue;
            };
            let order: Vec<usize> = spec
                .macros
                .iter()
                .map(|m| {
                    ALL_MACROS
                        .iter()
                        .position(|a| a == m)
                        .unwrap_or_else(|| panic!("round {round}: unknown macro {m:?}"))
                })
                .collect();
            assert!(!order.is_empty(), "round {round}: empty macro list");
            assert!(
                order.windows(2).all(|w| w[0] < w[1]),
                "round {round}: macros {:?} out of campaign order",
                spec.macros
            );
        }
    }

    #[test]
    fn load_all_sorts_by_submission_order() {
        let dir = tmpdir("order");
        let mut late = Job::new(spec(), 9);
        late.spec.seed = 2000; // distinct id
        late.id = late.spec.id();
        let early = Job::new(spec(), 1);
        late.save(&dir).expect("save");
        early.save(&dir).expect("save");
        let seqs: Vec<u64> = Job::load_all(&dir).iter().map(|j| j.seq).collect();
        assert_eq!(seqs, [1, 9]);
        let _ = fs::remove_dir_all(&dir);
    }
}
