//! # dotm-obs — zero-dependency structured observability
//!
//! The campaign pipeline is a long-running fleet job; deciding what to
//! optimise next requires knowing where the wall-clock actually goes
//! (Newton vs LU vs assembly vs store I/O). This crate provides that
//! attribution as a strict *side channel*:
//!
//! - **Spans** — hierarchical timed regions (campaign → macro → class →
//!   measure → rung), linked per thread through a thread-local parent
//!   stack.
//! - **Phases** — fixed low-overhead accumulators ([`Phase`]) for the
//!   solver/store hot paths: one `(calls, ns)` atomic pair each, updated
//!   with the [`start`]/[`phase`] pattern that costs a single relaxed
//!   atomic load when tracing is off.
//! - **Counters** — a name → value registry that unifies the solver's
//!   15-word `SimStats` and the measurement-store counters into one
//!   export.
//! - **Exporters** — an NDJSON event log ([`export_ndjson`]) and a
//!   `chrome://tracing`-compatible trace file ([`export_chrome`]), plus a
//!   human-readable phase table ([`phase_table`]).
//!
//! ## Determinism contract
//!
//! Nothing recorded here may ever reach a report fingerprint, a journal
//! byte or a store entry: wall-clock data lives **only** in the exports
//! and in output printed to stderr. The workspace determinism suite runs
//! the full pipeline trace-on and trace-off and asserts the deterministic
//! artifacts are bit-identical — at any thread count.
//!
//! The recorder is a process-wide global, off by default. When off, every
//! entry point is a cheap early-out ([`span`] allocates nothing, [`start`]
//! returns `None`), so instrumented hot loops pay one relaxed load.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Fixed hot-path phases, each backed by one `(calls, ns)` accumulator.
///
/// `Newton` times whole Newton–Raphson solves and therefore *includes*
/// the `Assembly` and `Lu` time spent inside them;
/// [`phase_table`] prints the exclusive remainder as `newton (other)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// MNA matrix + RHS assembly (stamping), once per Newton iteration.
    Assembly,
    /// Always empty: nothing records it since batched assembly was
    /// retired. It stays registered as `"batch_assembly"` because the
    /// campaign benchmark's tracer reads that phase by name.
    BatchAssembly,
    /// LU factor + solve: the sparse LU of DC and transient Newton, with
    /// its dense fallback.
    Lu,
    /// A whole Newton–Raphson solve (includes Assembly and Lu).
    Newton,
    /// Persistent-store entry load (hit or miss).
    StoreLoad,
    /// Persistent-store entry write.
    StoreWrite,
    /// Checkpoint-journal record append.
    Journal,
    /// Always empty: nothing records it since lockstep variant priming
    /// was retired. It stays registered as `"variant_lockstep"` because
    /// the campaign benchmark's tracer reads that phase by name.
    VariantLockstep,
}

/// All phases, in display order.
pub const PHASES: [Phase; 8] = [
    Phase::Newton,
    Phase::Assembly,
    Phase::BatchAssembly,
    Phase::Lu,
    Phase::VariantLockstep,
    Phase::StoreLoad,
    Phase::StoreWrite,
    Phase::Journal,
];

impl Phase {
    /// Stable lower-case name used in exports and tables.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Assembly => "assembly",
            Phase::BatchAssembly => "batch_assembly",
            Phase::Lu => "lu",
            Phase::Newton => "newton",
            Phase::StoreLoad => "store_load",
            Phase::StoreWrite => "store_write",
            Phase::Journal => "journal",
            Phase::VariantLockstep => "variant_lockstep",
        }
    }

    fn idx(self) -> usize {
        match self {
            Phase::Assembly => 0,
            Phase::Lu => 1,
            Phase::Newton => 2,
            Phase::StoreLoad => 3,
            Phase::StoreWrite => 4,
            Phase::Journal => 5,
            Phase::BatchAssembly => 6,
            Phase::VariantLockstep => 7,
        }
    }
}

const N_PHASES: usize = 8;

#[derive(Default)]
struct PhaseSlot {
    calls: AtomicU64,
    ns: AtomicU64,
}

struct SpanEvent {
    id: u64,
    parent: Option<u64>,
    tid: u64,
    name: String,
    cat: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

struct Recorder {
    enabled: AtomicBool,
    t0: Instant,
    next_id: AtomicU64,
    next_tid: AtomicU64,
    spans: Mutex<Vec<SpanEvent>>,
    counters: Mutex<BTreeMap<String, u64>>,
    phases: [PhaseSlot; N_PHASES],
}

static RECORDER: OnceLock<Recorder> = OnceLock::new();

fn rec() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder {
        enabled: AtomicBool::new(false),
        t0: Instant::now(),
        next_id: AtomicU64::new(0),
        next_tid: AtomicU64::new(0),
        spans: Mutex::new(Vec::new()),
        counters: Mutex::new(BTreeMap::new()),
        phases: Default::default(),
    })
}

thread_local! {
    static TID: Cell<Option<u64>> = const { Cell::new(None) };
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn current_tid(r: &Recorder) -> u64 {
    TID.with(|t| match t.get() {
        Some(id) => id,
        None => {
            let id = r.next_tid.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        }
    })
}

/// Turns the global recorder on or off. Off is the default; when off,
/// every other entry point is a cheap no-op.
pub fn set_enabled(on: bool) {
    rec().enabled.store(on, Ordering::Relaxed);
}

/// Whether the recorder is currently on.
pub fn enabled() -> bool {
    rec().enabled.load(Ordering::Relaxed)
}

/// Clears all recorded spans, counters and phase accumulators (the
/// enabled flag is left as-is). Intended for tests and for reuse between
/// independent runs in one process.
pub fn reset() {
    let r = rec();
    r.spans.lock().unwrap_or_else(|e| e.into_inner()).clear();
    r.counters.lock().unwrap_or_else(|e| e.into_inner()).clear();
    for slot in &r.phases {
        slot.calls.store(0, Ordering::Relaxed);
        slot.ns.store(0, Ordering::Relaxed);
    }
}

/// Starts a phase timing: `Some(now)` when tracing is on, `None` (one
/// relaxed atomic load, no clock read) when off. Pass the result to
/// [`phase`] when the region ends.
#[inline]
pub fn start() -> Option<Instant> {
    if rec().enabled.load(Ordering::Relaxed) {
        Some(Instant::now())
    } else {
        None
    }
}

/// Ends a phase timing started with [`start`], attributing the elapsed
/// time to `p`. A `None` start (tracing off) is a no-op.
#[inline]
pub fn phase(p: Phase, started: Option<Instant>) {
    if let Some(t) = started {
        let slot = &rec().phases[p.idx()];
        slot.calls.fetch_add(1, Ordering::Relaxed);
        slot.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Adds `delta` to the named counter (created at zero on first use).
/// No-op while tracing is off.
pub fn counter(name: &str, delta: u64) {
    let r = rec();
    if !r.enabled.load(Ordering::Relaxed) {
        return;
    }
    let mut map = r.counters.lock().unwrap_or_else(|e| e.into_inner());
    // Look up before inserting: hot counters (one per Newton iteration)
    // must not allocate a key on every bump.
    match map.get_mut(name) {
        Some(v) => *v += delta,
        None => {
            map.insert(name.to_string(), delta);
        }
    }
}

/// Snapshot of every named counter, sorted by name (the registry is a
/// `BTreeMap`, so the order is stable across runs). Reads whatever has
/// accumulated since the last [`reset`] even when tracing has since been
/// turned off — this is the service surface's `/metrics` window into a
/// run in progress, so it must be safe to call concurrently with
/// [`counter`] updates from worker threads.
pub fn counters_snapshot() -> Vec<(String, u64)> {
    let r = rec();
    let map = r.counters.lock().unwrap_or_else(|e| e.into_inner());
    map.iter()
        .map(|(name, value)| (name.clone(), *value))
        .collect()
}

/// A hierarchical timed region. Created by [`span`]; the region ends and
/// the event is recorded when the guard drops. Spans nest per thread via
/// a thread-local parent stack.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    id: u64,
    parent: Option<u64>,
    tid: u64,
    name: String,
    cat: &'static str,
    start: Instant,
}

/// Opens a span named `name` in category `cat`. When tracing is off this
/// allocates nothing and the returned guard is inert — but the caller's
/// argument expression is still evaluated, so hot loops that `format!` a
/// name should use [`span_with`] instead.
pub fn span(name: impl Into<String>, cat: &'static str) -> Span {
    let r = rec();
    if !r.enabled.load(Ordering::Relaxed) {
        return Span { inner: None };
    }
    open_span(r, name.into(), cat)
}

/// Like [`span`], but the name closure is only invoked when tracing is
/// on — zero allocation on the trace-off path.
pub fn span_with(cat: &'static str, name: impl FnOnce() -> String) -> Span {
    let r = rec();
    if !r.enabled.load(Ordering::Relaxed) {
        return Span { inner: None };
    }
    open_span(r, name(), cat)
}

fn open_span(r: &'static Recorder, name: String, cat: &'static str) -> Span {
    let id = r.next_id.fetch_add(1, Ordering::Relaxed) + 1;
    let tid = current_tid(r);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    Span {
        inner: Some(SpanInner {
            id,
            parent,
            tid,
            name,
            cat,
            start: Instant::now(),
        }),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let dur_ns = inner.start.elapsed().as_nanos() as u64;
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&inner.id) {
                s.pop();
            } else {
                // Out-of-order drop — remove wherever it is so the stack
                // stays consistent for the surviving spans.
                s.retain(|&id| id != inner.id);
            }
        });
        let r = rec();
        let start_ns = inner.start.duration_since(r.t0).as_nanos() as u64;
        r.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(SpanEvent {
                id: inner.id,
                parent: inner.parent,
                tid: inner.tid,
                name: inner.name,
                cat: inner.cat,
                start_ns,
                dur_ns,
            });
    }
}

/// One phase accumulator snapshot: `(name, calls, total_ns)`.
pub type PhaseTotal = (&'static str, u64, u64);

/// Snapshot of all phase accumulators, in display order.
pub fn phase_totals() -> Vec<PhaseTotal> {
    let r = rec();
    PHASES
        .iter()
        .map(|p| {
            let slot = &r.phases[p.idx()];
            (
                p.name(),
                slot.calls.load(Ordering::Relaxed),
                slot.ns.load(Ordering::Relaxed),
            )
        })
        .collect()
}

fn fmt_secs(ns: u64) -> String {
    format!("{:.3}s", ns as f64 / 1e9)
}

/// Renders the per-phase summary table (calls, total, mean per call).
/// `Newton` includes its `Assembly`/`Lu` children, so the
/// exclusive remainder is shown as `newton (other)`.
pub fn phase_table() -> String {
    let totals = phase_totals();
    let mut out = String::new();
    let _ = writeln!(out, "phase profile:");
    let _ = writeln!(
        out,
        "  {:<16} {:>10} {:>12} {:>12}",
        "phase", "calls", "total", "mean"
    );
    let mut newton = (0u64, 0u64);
    let mut inner = 0u64;
    for (name, calls, ns) in &totals {
        if *calls == 0 {
            continue;
        }
        match *name {
            "newton" => newton = (*calls, *ns),
            "assembly" | "lu" => inner += ns,
            _ => {}
        }
        let mean = *ns as f64 / (*calls).max(1) as f64 / 1e9;
        let _ = writeln!(
            out,
            "  {:<16} {:>10} {:>12} {:>11.2}ms",
            name,
            calls,
            fmt_secs(*ns),
            mean * 1e3
        );
    }
    if newton.0 > 0 {
        let other = newton.1.saturating_sub(inner);
        let _ = writeln!(
            out,
            "  {:<16} {:>10} {:>12}",
            "newton (other)",
            newton.0,
            fmt_secs(other)
        );
    }
    out
}

fn esc(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Serialises the recorded events as NDJSON: one `span`, `phase` or
/// `counter` object per line. Returns the file contents.
pub fn render_ndjson() -> String {
    let r = rec();
    let mut out = String::new();
    {
        let spans = r.spans.lock().unwrap_or_else(|e| e.into_inner());
        for s in spans.iter() {
            out.push_str("{\"type\":\"span\",\"id\":");
            let _ = write!(out, "{}", s.id);
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            let _ = write!(out, ",\"tid\":{},\"name\":\"", s.tid);
            esc(&s.name, &mut out);
            out.push_str("\",\"cat\":\"");
            esc(s.cat, &mut out);
            let _ = writeln!(
                out,
                "\",\"start_ns\":{},\"dur_ns\":{}}}",
                s.start_ns, s.dur_ns
            );
        }
    }
    for (name, calls, ns) in phase_totals() {
        if calls == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "{{\"type\":\"phase\",\"name\":\"{name}\",\"calls\":{calls},\"total_ns\":{ns}}}"
        );
    }
    let counters = r.counters.lock().unwrap_or_else(|e| e.into_inner());
    for (name, value) in counters.iter() {
        out.push_str("{\"type\":\"counter\",\"name\":\"");
        esc(name, &mut out);
        let _ = writeln!(out, "\",\"value\":{value}}}");
    }
    out
}

/// Writes the NDJSON event log to `path`.
///
/// # Errors
/// Propagates the underlying file I/O error.
pub fn export_ndjson(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, render_ndjson())
}

/// Serialises the recorded spans as a `chrome://tracing` /
/// [Perfetto](https://ui.perfetto.dev)-loadable JSON trace (`ph: "X"`
/// complete events; timestamps in microseconds).
pub fn render_chrome() -> String {
    let r = rec();
    let spans = r.spans.lock().unwrap_or_else(|e| e.into_inner());
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"name\":\"");
        esc(&s.name, &mut out);
        out.push_str("\",\"cat\":\"");
        esc(s.cat, &mut out);
        let _ = write!(
            out,
            "\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3
        );
    }
    out.push_str("\n]}\n");
    out
}

/// Writes the chrome trace to `path`.
///
/// # Errors
/// Propagates the underlying file I/O error.
pub fn export_chrome(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, render_chrome())
}

// ---------------------------------------------------------------------
// NDJSON validation (hand-rolled: the workspace is dependency-free, and
// the verify gate needs a JSON check without reaching for python).
// ---------------------------------------------------------------------

/// A parsed scalar from the miniature JSON reader.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Str(String),
    Num(f64),
    Null,
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "dangling escape".to_string())?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| "short \\u escape".to_string())?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(
                                char::from_u32(code).ok_or_else(|| "bad \\u escape".to_string())?,
                            );
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                other => out.push(other as char),
            }
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'n') => {
                if self.bytes.get(self.pos..self.pos + 4) == Some(b"null") {
                    self.pos += 4;
                    Ok(Json::Null)
                } else {
                    Err("bad literal".to_string())
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.pos;
                while self.bytes.get(self.pos).is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| e.to_string())?
                    .parse::<f64>()
                    .map(Json::Num)
                    .map_err(|e| e.to_string())
            }
            other => Err(format!("unexpected value start {other:?}")),
        }
    }

    /// Parses one flat JSON object (string/number/null values only).
    fn object(&mut self) -> Result<BTreeMap<String, Json>, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(map);
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    self.skip_ws();
                    if self.pos != self.bytes.len() {
                        return Err("trailing bytes after object".to_string());
                    }
                    return Ok(map);
                }
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
}

/// Summary returned by a successful [`validate_ndjson`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NdjsonSummary {
    /// Number of span records.
    pub spans: usize,
    /// Number of root spans (no parent).
    pub roots: usize,
    /// Number of phase records.
    pub phases: usize,
    /// Number of counter records.
    pub counters: usize,
}

fn num(map: &BTreeMap<String, Json>, key: &str) -> Result<f64, String> {
    match map.get(key) {
        Some(Json::Num(n)) => Ok(*n),
        other => Err(format!("field '{key}' missing or not a number: {other:?}")),
    }
}

fn text<'m>(map: &'m BTreeMap<String, Json>, key: &str) -> Result<&'m str, String> {
    match map.get(key) {
        Some(Json::Str(s)) => Ok(s),
        other => Err(format!("field '{key}' missing or not a string: {other:?}")),
    }
}

/// Validates an NDJSON export: every line must parse as a flat JSON
/// object of a known record type, span ids must be unique, and every
/// `parent` reference must name a span on the same thread whose interval
/// fully contains the child's. Returns a record-count summary.
///
/// # Errors
/// A description of the first malformed line or nesting violation.
pub fn validate_ndjson(input: &str) -> Result<NdjsonSummary, String> {
    struct SpanRec {
        tid: u64,
        start: u64,
        end: u64,
    }
    let mut spans: BTreeMap<u64, SpanRec> = BTreeMap::new();
    let mut parents: Vec<(u64, u64)> = Vec::new(); // (child, parent)
    let mut summary = NdjsonSummary::default();
    for (lineno, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let map = Parser::new(line)
            .object()
            .map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let ty = text(&map, "type").map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let check = |r: Result<f64, String>| r.map_err(|e| format!("line {}: {e}", lineno + 1));
        match ty {
            "span" => {
                let id = check(num(&map, "id"))? as u64;
                let tid = check(num(&map, "tid"))? as u64;
                let start = check(num(&map, "start_ns"))? as u64;
                let dur = check(num(&map, "dur_ns"))? as u64;
                text(&map, "name").map_err(|e| format!("line {}: {e}", lineno + 1))?;
                text(&map, "cat").map_err(|e| format!("line {}: {e}", lineno + 1))?;
                if id == 0 {
                    return Err(format!("line {}: span id 0", lineno + 1));
                }
                match map.get("parent") {
                    Some(Json::Num(p)) => parents.push((id, *p as u64)),
                    Some(Json::Null) | None => summary.roots += 1,
                    other => {
                        return Err(format!("line {}: bad parent {other:?}", lineno + 1));
                    }
                }
                let rec = SpanRec {
                    tid,
                    start,
                    end: start + dur,
                };
                if spans.insert(id, rec).is_some() {
                    return Err(format!("line {}: duplicate span id {id}", lineno + 1));
                }
                summary.spans += 1;
            }
            "phase" => {
                text(&map, "name").map_err(|e| format!("line {}: {e}", lineno + 1))?;
                check(num(&map, "calls"))?;
                check(num(&map, "total_ns"))?;
                summary.phases += 1;
            }
            "counter" => {
                text(&map, "name").map_err(|e| format!("line {}: {e}", lineno + 1))?;
                check(num(&map, "value"))?;
                summary.counters += 1;
            }
            other => return Err(format!("line {}: unknown type '{other}'", lineno + 1)),
        }
    }
    for (child, parent) in parents {
        let p = spans
            .get(&parent)
            .ok_or_else(|| format!("span {child}: parent {parent} not in file"))?;
        let c = &spans[&child];
        if p.tid != c.tid {
            return Err(format!(
                "span {child}: parent {parent} is on thread {} but child on {}",
                p.tid, c.tid
            ));
        }
        if c.start < p.start || c.end > p.end {
            return Err(format!(
                "span {child} [{}, {}] not contained in parent {parent} [{}, {}]",
                c.start, c.end, p.start, p.end
            ));
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as TestMutex;

    // The recorder is process-global; serialize the tests that toggle it.
    static LOCK: TestMutex<()> = TestMutex::new(());

    #[test]
    fn disabled_recorder_is_inert() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        reset();
        {
            let _s = span("nothing", "test");
            phase(Phase::Lu, start());
            counter("x", 3);
        }
        assert_eq!(render_ndjson(), "");
        for (_, calls, ns) in phase_totals() {
            assert_eq!((calls, ns), (0, 0));
        }
    }

    #[test]
    fn spans_nest_and_export_roundtrips() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        reset();
        {
            let _outer = span("outer", "test");
            {
                let _inner = span("in \"quoted\"\n", "test");
            }
            let t = start();
            phase(Phase::Lu, t);
            counter("widgets", 2);
            counter("widgets", 3);
        }
        // A span on another thread is a root of its own.
        std::thread::scope(|s| {
            s.spawn(|| {
                let _w = span("worker", "test");
            });
        });
        set_enabled(false);

        let ndjson = render_ndjson();
        let summary = validate_ndjson(&ndjson).expect("own export must validate");
        assert_eq!(summary.spans, 3);
        assert_eq!(summary.roots, 2, "outer + worker are roots");
        assert_eq!(summary.phases, 1, "only touched phases are exported");
        assert_eq!(summary.counters, 1);
        assert!(ndjson.contains("\"value\":5"), "counters accumulate");

        let chrome = render_chrome();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("in \\\"quoted\\\"\\u000a"));

        let table = phase_table();
        assert!(table.contains("lu"), "{table}");
        reset();
    }

    #[test]
    fn phase_accumulates_calls_and_time() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        reset();
        for _ in 0..4 {
            let t = start();
            phase(Phase::Assembly, t);
        }
        set_enabled(false);
        let totals = phase_totals();
        let asm = totals.iter().find(|(n, _, _)| *n == "assembly").unwrap();
        assert_eq!(asm.1, 4);
        reset();
    }

    #[test]
    fn counters_snapshot_is_sorted_and_survives_disable() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        reset();
        counter("solver.nr_solves", 7);
        counter("store.hits", 3);
        counter("store.hits", 2);
        set_enabled(false);
        assert_eq!(
            counters_snapshot(),
            vec![
                ("solver.nr_solves".to_string(), 7),
                ("store.hits".to_string(), 5),
            ],
            "sorted by name, summed, readable after disable"
        );
        reset();
        assert!(counters_snapshot().is_empty());
    }

    #[test]
    fn validator_rejects_malformed_input() {
        assert!(validate_ndjson("not json").is_err());
        assert!(validate_ndjson("{\"type\":\"mystery\"}").is_err());
        // Span with a dangling parent reference.
        let dangling = "{\"type\":\"span\",\"id\":2,\"parent\":1,\"tid\":0,\
                        \"name\":\"x\",\"cat\":\"c\",\"start_ns\":0,\"dur_ns\":1}";
        assert!(validate_ndjson(dangling).unwrap_err().contains("parent 1"));
        // Child escaping its parent's interval.
        let escape = "{\"type\":\"span\",\"id\":2,\"parent\":1,\"tid\":0,\
                      \"name\":\"x\",\"cat\":\"c\",\"start_ns\":5,\"dur_ns\":100}\n\
                      {\"type\":\"span\",\"id\":1,\"tid\":0,\
                      \"name\":\"p\",\"cat\":\"c\",\"start_ns\":0,\"dur_ns\":10}";
        assert!(validate_ndjson(escape)
            .unwrap_err()
            .contains("not contained"));
        // Duplicate ids.
        let dup = "{\"type\":\"span\",\"id\":1,\"tid\":0,\"name\":\"a\",\
                   \"cat\":\"c\",\"start_ns\":0,\"dur_ns\":1}\n\
                   {\"type\":\"span\",\"id\":1,\"tid\":0,\"name\":\"b\",\
                   \"cat\":\"c\",\"start_ns\":0,\"dur_ns\":1}";
        assert!(validate_ndjson(dup).unwrap_err().contains("duplicate"));
    }

    #[test]
    fn validator_accepts_empty_and_blank_lines() {
        assert_eq!(validate_ndjson("").unwrap(), NdjsonSummary::default());
        assert_eq!(validate_ndjson("\n\n").unwrap(), NdjsonSummary::default());
    }
}
