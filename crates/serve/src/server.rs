//! The campaign service: routes, queue, executor and shutdown drain.
//!
//! ## Job lifecycle
//!
//! `POST /jobs` parses a [`JobSpec`], derives its content id and either
//! answers from the finished record (dedup) or persists a `queued`
//! record and wakes the executor. One executor thread runs jobs
//! strictly in submission order — jobs share the store's per-macro
//! journal namespace, so running two at once would interleave writers;
//! parallelism comes from *within* a job (its executor threads), not
//! from overlapping jobs.
//!
//! ## Crash model
//!
//! Every state transition, and every finished report, is persisted
//! through the store's [`write_durably`] (temp file, fsync, rename)
//! before it is observable over HTTP. A server killed at any point
//! restarts into a consistent queue: `running` records re-enter the queue (their
//! journals resume), `queued` records keep their order, finished
//! records keep their reports. The in-memory event hub refills as the
//! re-run progresses; streams opened against a restarted server start
//! from a disk snapshot.
//!
//! ## Shutdown
//!
//! `POST /shutdown` (or dropping the accept loop) cancels the running
//! attempt at its next journaled class, persists it back to `queued`,
//! and stops accepting connections. Nothing is lost: the next server
//! over the same store resumes the drained job from its journal prefix.

use crate::http::{json_escape, read_request, respond, respond_json, start_stream, Request};
use crate::hub::EventHub;
use crate::job::{Job, JobSpec, JobState};
use crate::runner::{JobRunner, RunOutcome};
use dotm_store::{journal_progress, write_durably};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

struct QueueState {
    queue: VecDeque<String>,
    running: Option<String>,
    next_seq: u64,
}

/// The service: shared state behind an `Arc`, driven by [`Server::run`].
pub struct Server {
    store_dir: PathBuf,
    jobs_dir: PathBuf,
    hub: EventHub,
    runner: Box<dyn JobRunner>,
    state: Mutex<QueueState>,
    work: Condvar,
    shutdown: AtomicBool,
    cancel: AtomicBool,
    bound: Mutex<Option<SocketAddr>>,
    bound_wake: Condvar,
    /// Per-operation socket read/write timeout applied to every accepted
    /// connection (`DOTM_SERVE_IO_TIMEOUT_MS`, captured at construction).
    io_timeout: Duration,
}

fn poll_interval() -> Duration {
    Duration::from_millis(dotm_core::env::serve_poll_ms())
}

impl Server {
    /// A server over `store_dir` executing jobs through `runner`.
    /// Recovery happens here: crashed `running` records re-enter the
    /// queue before the listener ever opens.
    pub fn new(store_dir: PathBuf, runner: Box<dyn JobRunner>) -> Server {
        let jobs_dir = store_dir.join("jobs");
        let mut queue = VecDeque::new();
        let mut next_seq = 0u64;
        for mut job in Job::load_all(&jobs_dir) {
            next_seq = next_seq.max(job.seq + 1);
            if job.state == JobState::Running {
                eprintln!("[serve] job {} was running at shutdown — requeued", job.id);
                job.state = JobState::Queued;
                if let Err(e) = job.save(&jobs_dir) {
                    eprintln!("[serve] job {}: requeue failed: {e}", job.id);
                    continue;
                }
            }
            if job.state == JobState::Queued {
                queue.push_back(job.id);
            }
        }
        Server {
            store_dir,
            jobs_dir,
            hub: EventHub::new(),
            runner,
            state: Mutex::new(QueueState {
                queue,
                running: None,
                next_seq,
            }),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            cancel: AtomicBool::new(false),
            bound: Mutex::new(None),
            bound_wake: Condvar::new(),
            io_timeout: Duration::from_millis(dotm_core::env::serve_io_timeout_ms()),
        }
    }

    /// Events currently buffered in memory for `job` — test observability
    /// for the hub's eviction contract.
    pub fn buffered_events(&self, job: &str) -> usize {
        self.hub.len(job)
    }

    /// The address the listener bound, waiting up to `timeout` for
    /// [`Server::run`] (on another thread) to get there.
    pub fn bound_addr(&self, timeout: Duration) -> Option<SocketAddr> {
        let mut bound = self.bound.lock().unwrap_or_else(|e| e.into_inner());
        while bound.is_none() {
            let (guard, wait) = self
                .bound_wake
                .wait_timeout(bound, timeout)
                .unwrap_or_else(|e| e.into_inner());
            bound = guard;
            if wait.timed_out() {
                break;
            }
        }
        *bound
    }

    /// Binds `addr` and serves until shutdown. The executor drains (the
    /// in-flight attempt is cancelled to a resumable journal state)
    /// before this returns; the listener closes when it does.
    pub fn run(self: &Arc<Self>, addr: &str) -> std::io::Result<()> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        eprintln!("[serve] listening on {local}");
        {
            let mut bound = self.bound.lock().unwrap_or_else(|e| e.into_inner());
            *bound = Some(local);
            self.bound_wake.notify_all();
        }
        dotm_obs::set_enabled(true);

        let executor = {
            let server = Arc::clone(self);
            std::thread::spawn(move || server.executor())
        };
        let poll = poll_interval();
        while !self.shutdown.load(Ordering::Acquire) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let server = Arc::clone(self);
                    std::thread::spawn(move || server.handle(stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(poll);
                }
                Err(e) => return Err(e),
            }
        }
        // Drain: cancel the in-flight attempt and wake the executor so
        // it observes the flag even with an empty queue.
        self.cancel.store(true, Ordering::Release);
        self.work.notify_all();
        executor.join().expect("executor thread");
        eprintln!("[serve] drained; listener closed");
        Ok(())
    }

    /// Requests shutdown (also reachable over HTTP as `POST /shutdown`).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.cancel.store(true, Ordering::Release);
        self.work.notify_all();
    }

    // ---- executor ----------------------------------------------------

    fn executor(self: Arc<Self>) {
        let poll = poll_interval();
        loop {
            let id = {
                let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    // Popped and marked running in one critical
                    // section: a resubmission of the same spec must
                    // never find the id neither queued nor running.
                    if let Some(id) = st.queue.pop_front() {
                        st.running = Some(id.clone());
                        break id;
                    }
                    let (guard, _) = self
                        .work
                        .wait_timeout(st, poll)
                        .unwrap_or_else(|e| e.into_inner());
                    st = guard;
                }
            };
            let idle = || self.state.lock().unwrap_or_else(|e| e.into_inner()).running = None;
            let Some(mut job) = Job::load(&self.jobs_dir, &id) else {
                eprintln!("[serve] job {id}: record vanished from the queue");
                idle();
                continue;
            };
            job.state = JobState::Running;
            if let Err(e) = job.save(&self.jobs_dir) {
                eprintln!("[serve] job {id}: cannot persist running state: {e}");
                idle();
                continue;
            }
            self.hub.publish(
                &id,
                format!(
                    "{{\"event\":\"state\",\"state\":\"running\",\"attempt\":{}}}",
                    job.attempts
                ),
            );
            let hub = &self.hub;
            let events = |event: String| hub.publish(&id, event);
            let outcome = self.runner.run(&job, &events, &self.cancel);
            job.attempts += 1;
            match outcome {
                RunOutcome::Merged { report } => {
                    match write_durably(&Job::report_path(&self.jobs_dir, &id), &report) {
                        Ok(()) => {
                            job.state = JobState::Merged;
                            job.exit = 0;
                            dotm_obs::counter("serve.jobs_merged", 1);
                        }
                        Err(e) => {
                            eprintln!("[serve] job {id}: report write failed: {e}");
                            job.state = JobState::Failed;
                            job.exit = crate::exit::IO;
                        }
                    }
                }
                RunOutcome::Interrupted => {
                    // Back to the queue, resumable. On shutdown this is
                    // the drain; otherwise it re-enters at the front so
                    // the resume happens before newer work.
                    job.state = JobState::Queued;
                    dotm_obs::counter("serve.jobs_interrupted", 1);
                }
                RunOutcome::Failed { class, code } => {
                    job.state = JobState::Failed;
                    job.exit = code;
                    dotm_obs::counter("serve.jobs_failed", 1);
                    self.hub.publish(
                        &id,
                        format!(
                            "{{\"event\":\"failure\",\"class\":\"{}\",\"exit\":{code}}}",
                            class.name()
                        ),
                    );
                }
            }
            if let Err(e) = job.save(&self.jobs_dir) {
                eprintln!(
                    "[serve] job {id}: cannot persist {} state: {e}",
                    job.state.name()
                );
            }
            {
                let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
                st.running = None;
                if job.state == JobState::Queued && !self.shutdown.load(Ordering::Acquire) {
                    st.queue.push_front(id.clone());
                }
            }
            self.hub.publish(
                &id,
                format!("{{\"event\":\"state\",\"state\":\"{}\"}}", job.state.name()),
            );
        }
    }

    // ---- routing -----------------------------------------------------

    fn handle(self: Arc<Self>, mut stream: TcpStream) {
        // A stalled peer may hold its connection, but every blocking
        // socket operation — including the request read below — times
        // out, so it can never park this thread forever.
        let _ = stream.set_read_timeout(Some(self.io_timeout));
        let _ = stream.set_write_timeout(Some(self.io_timeout));
        let Ok(Some(req)) = read_request(&mut stream) else {
            return;
        };
        dotm_obs::counter("serve.requests", 1);
        let segments: Vec<String> = req.segments().iter().map(|s| s.to_string()).collect();
        let parts: Vec<&str> = segments.iter().map(String::as_str).collect();
        let result = match (req.method.as_str(), parts.as_slice()) {
            ("POST", ["jobs"]) => self.submit(&mut stream, &req),
            ("GET", ["jobs", id]) => self.status(&mut stream, id),
            ("GET", ["jobs", id, "events"]) => self.stream_events(&mut stream, id),
            ("GET", ["jobs", id, "report"]) => self.report(&mut stream, id),
            ("GET", ["store", "occupancy"]) => self.occupancy(&mut stream),
            ("GET", ["metrics"]) => self.metrics(&mut stream),
            ("POST", ["shutdown"]) => {
                let r = respond_json(&mut stream, 200, "{\"ok\":true}");
                self.request_shutdown();
                r
            }
            _ => respond_json(&mut stream, 404, "{\"error\":\"no such route\"}"),
        };
        if let Err(e) = result {
            eprintln!("[serve] {} {}: {e}", req.method, req.path);
        }
    }

    fn submit(&self, stream: &mut TcpStream, req: &Request) -> std::io::Result<()> {
        if self.shutdown.load(Ordering::Acquire) {
            return respond_json(stream, 503, "{\"error\":\"shutting down\"}");
        }
        let spec = match JobSpec::parse(&req.body) {
            Ok(spec) => spec,
            Err(e) => {
                let msg = format!("{{\"error\":\"{}\"}}", json_escape(&e));
                return respond_json(stream, 400, &msg);
            }
        };
        let id = spec.id();
        // Decide under the lock, respond after it drops — `status_json`
        // takes the same lock for the queue depth.
        let decision = {
            let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            let queued_or_running = st.queue.contains(&id) || st.running.as_deref() == Some(&id);
            match Job::load(&self.jobs_dir, &id) {
                Some(job) if job.state == JobState::Merged && !spec.fresh => Ok((200, job, true)),
                Some(job) if queued_or_running => Ok((202, job, false)),
                _ => {
                    let seq = st.next_seq;
                    st.next_seq += 1;
                    let job = Job::new(spec, seq);
                    match job.save(&self.jobs_dir) {
                        Ok(()) => {
                            st.queue.push_back(id.clone());
                            dotm_obs::counter("serve.jobs_submitted", 1);
                            Ok((202, job, false))
                        }
                        Err(e) => Err(e.to_string()),
                    }
                }
            }
        };
        match decision {
            Ok((status, job, cached)) => {
                self.work.notify_all();
                respond_json(stream, status, &self.status_json(&job, cached))
            }
            Err(e) => {
                let msg = format!("{{\"error\":\"{}\"}}", json_escape(&e));
                respond_json(stream, 500, &msg)
            }
        }
    }

    fn status(&self, stream: &mut TcpStream, id: &str) -> std::io::Result<()> {
        match Job::load(&self.jobs_dir, id) {
            Some(job) => respond_json(stream, 200, &self.status_json(&job, false)),
            None => respond_json(stream, 404, "{\"error\":\"unknown job\"}"),
        }
    }

    fn report(&self, stream: &mut TcpStream, id: &str) -> std::io::Result<()> {
        let Some(job) = Job::load(&self.jobs_dir, id) else {
            return respond_json(stream, 404, "{\"error\":\"unknown job\"}");
        };
        if job.state != JobState::Merged {
            let msg = format!("{{\"error\":\"job is {}, not merged\"}}", job.state.name());
            return respond_json(stream, 409, &msg);
        }
        match std::fs::read(Job::report_path(&self.jobs_dir, id)) {
            Ok(bytes) => respond(stream, 200, "text/plain; charset=utf-8", &bytes),
            Err(_) => respond_json(stream, 500, "{\"error\":\"report file missing\"}"),
        }
    }

    fn stream_events(&self, stream: &mut TcpStream, id: &str) -> std::io::Result<()> {
        use std::io::Write;
        let Some(job) = Job::load(&self.jobs_dir, id) else {
            return respond_json(stream, 404, "{\"error\":\"unknown job\"}");
        };
        start_stream(stream, "application/x-ndjson")?;
        // Opening snapshot from disk — valid even on a freshly restarted
        // server whose hub is empty.
        let snapshot = format!("{{\"event\":\"snapshot\",{}}}\n", job.status_fields());
        stream.write_all(snapshot.as_bytes())?;
        stream.flush()?;
        let poll = poll_interval();
        let mut from = 0usize;
        loop {
            let (next, batch) = self.hub.read_from(id, from, poll);
            from = next;
            for event in &batch {
                stream.write_all(event.as_bytes())?;
                stream.write_all(b"\n")?;
            }
            if !batch.is_empty() {
                stream.flush()?;
                continue;
            }
            // Quiet: terminal state (or server shutdown) ends the
            // stream with an explicit `end` event.
            let state = Job::load(&self.jobs_dir, id).map(|j| j.state);
            let terminal = matches!(state, Some(JobState::Merged | JobState::Failed) | None);
            if terminal || self.shutdown.load(Ordering::Acquire) {
                let end = format!(
                    "{{\"event\":\"end\",\"state\":\"{}\"}}\n",
                    state.map_or("unknown", JobState::name)
                );
                stream.write_all(end.as_bytes())?;
                let flushed = stream.flush();
                // The history has now served its purpose: the job is
                // terminal on disk and its `end` event has replayed, so
                // the in-memory buffer is released. Later subscribers
                // still get the disk snapshot above plus a fresh `end`
                // — only the replay of intermediate events is gone.
                if terminal {
                    self.hub.retire(id);
                }
                return flushed;
            }
        }
    }

    fn occupancy(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        match dotm_store::occupancy(&self.store_dir) {
            Ok(occ) => {
                let msg = format!(
                    "{{\"entries\":{},\"bytes\":{},\"name_digest\":\"{:016x}\"}}",
                    occ.entries, occ.bytes, occ.name_digest
                );
                respond_json(stream, 200, &msg)
            }
            Err(e) => {
                let msg = format!("{{\"error\":\"{}\"}}", json_escape(&e.to_string()));
                respond_json(stream, 500, &msg)
            }
        }
    }

    fn metrics(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let (depth, running) = {
            let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            (st.queue.len(), st.running.is_some() as usize)
        };
        let jobs = Job::load_all(&self.jobs_dir);
        let count = |state: JobState| jobs.iter().filter(|j| j.state == state).count();
        let mut out = format!(
            "queue_depth {depth}\njobs_running {running}\njobs_total {}\n\
             jobs_queued {}\njobs_merged {}\njobs_failed {}\n",
            jobs.len(),
            count(JobState::Queued),
            count(JobState::Merged),
            count(JobState::Failed),
        );
        for (name, value) in dotm_obs::counters_snapshot() {
            out.push_str(&format!("counter.{name} {value}\n"));
        }
        for (name, calls, ns) in dotm_obs::phase_totals() {
            if calls > 0 {
                out.push_str(&format!(
                    "phase.{name}.calls {calls}\nphase.{name}.ns {ns}\n"
                ));
            }
        }
        respond(stream, 200, "text/plain; charset=utf-8", out.as_bytes())
    }

    // ---- helpers -----------------------------------------------------

    fn status_json(&self, job: &Job, cached: bool) -> String {
        let depth = {
            let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            st.queue.len()
        };
        format!(
            "{{{},\"cached\":{cached},\"queue_depth\":{depth},\"progress\":[{}]}}",
            job.status_fields(),
            self.progress_json(job),
        )
    }

    /// Live per-file journal/segment snapshots for the job's macros,
    /// sorted by file name — valid mid-write (see `dotm-store`'s
    /// concurrent-read contract).
    fn progress_json(&self, job: &Job) -> String {
        let jdir = self.store_dir.join("journal");
        let Ok(entries) = std::fs::read_dir(&jdir) else {
            return String::new();
        };
        let mut files: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "jnl"))
            .collect();
        files.sort();
        let mut parts = Vec::new();
        for path in files {
            let Some(p) = journal_progress(&path) else {
                continue;
            };
            if !job.spec.macros.contains(&p.macro_name) {
                continue;
            }
            let file = path
                .file_name()
                .map(|f| f.to_string_lossy().into_owned())
                .unwrap_or_default();
            let shard = match p.shard {
                Some(s) => format!("[{},{}]", s.index, s.count),
                None => "null".to_string(),
            };
            parts.push(format!(
                "{{\"file\":\"{}\",\"macro\":\"{}\",\"classes\":{},\"done\":{},\
                 \"sealed\":{},\"shard\":{shard}}}",
                json_escape(&file),
                json_escape(&p.macro_name),
                p.classes,
                p.done,
                p.sealed,
            ));
        }
        parts.join(",")
    }
}

/// Builds and runs a server: binds `addr`, serves until shutdown, then
/// drains. The production entry point behind `campaign --serve`.
pub fn serve(addr: &str, store_dir: PathBuf, runner: Box<dyn JobRunner>) -> std::io::Result<()> {
    Arc::new(Server::new(store_dir, runner)).run(addr)
}
