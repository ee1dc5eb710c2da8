//! Service-level integration tests: a real listening [`Server`] driven
//! over loopback HTTP, with a scripted [`JobRunner`] standing in for
//! the campaign binary. Covers the queue lifecycle (submit → running →
//! merged, FIFO order, dedup), the crash contract (shutdown drains to a
//! resumable `queued` record; a restarted server resumes it; a record
//! stuck in `running` re-enters the queue) and the NDJSON event stream.

use dotm_serve::{Job, JobRunner, JobState, RunOutcome, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dotm-serve-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir
}

struct ScriptedRunner<F>(F);

impl<F> JobRunner for ScriptedRunner<F>
where
    F: Fn(&Job, &(dyn Fn(String) + Sync), &AtomicBool) -> RunOutcome + Send + Sync,
{
    fn run(&self, job: &Job, events: &(dyn Fn(String) + Sync), cancel: &AtomicBool) -> RunOutcome {
        (self.0)(job, events, cancel)
    }
}

fn runner<F>(f: F) -> Box<dyn JobRunner>
where
    F: Fn(&Job, &(dyn Fn(String) + Sync), &AtomicBool) -> RunOutcome + Send + Sync + 'static,
{
    Box::new(ScriptedRunner(f))
}

/// Blocks until `cancel` flips, then reports the attempt interrupted —
/// a stand-in for a long campaign run.
fn blocking_runner() -> Box<dyn JobRunner> {
    runner(|_job, _events, cancel| {
        while !cancel.load(Ordering::Acquire) {
            thread::sleep(Duration::from_millis(2));
        }
        RunOutcome::Interrupted
    })
}

type Running = (Arc<Server>, SocketAddr, JoinHandle<std::io::Result<()>>);

fn start(store: &Path, runner: Box<dyn JobRunner>) -> Running {
    let server = Arc::new(Server::new(store.to_path_buf(), runner));
    let handle = {
        let server = Arc::clone(&server);
        thread::spawn(move || server.run("127.0.0.1:0"))
    };
    let addr = server
        .bound_addr(Duration::from_secs(10))
        .expect("server must bind");
    (server, addr, handle)
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .expect("send head");
    stream.write_all(body).expect("send body");
    stream.flush().expect("flush");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("response");
    let text = String::from_utf8_lossy(&raw).into_owned();
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {text:?}"));
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Polls `GET /jobs/:id` until its state matches, with a deadline.
fn wait_state(addr: SocketAddr, id: &str, state: &str) -> String {
    let needle = format!("\"state\":\"{state}\"");
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let (status, body) = request(addr, "GET", &format!("/jobs/{id}"), b"");
        assert_eq!(status, 200, "{body}");
        if body.contains(&needle) {
            return body;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} never reached {state}: {body}"
        );
        thread::sleep(Duration::from_millis(5));
    }
}

fn field<'a>(body: &'a str, key: &str) -> &'a str {
    let at = body
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("no {key} in {body}"))
        + key.len()
        + 3;
    body[at..]
        .trim_start_matches('"')
        .split(['"', ',', '}'])
        .next()
        .expect("value")
}

#[test]
fn lifecycle_submit_run_report_and_dedup() {
    let store = tmpdir("lifecycle");
    let (_, addr, handle) = start(
        &store,
        runner(|job, events, _| {
            events(
                "{\"event\":\"progress\",\"macro\":\"comparator\",\"done\":1,\"classes\":2}"
                    .to_string(),
            );
            RunOutcome::Merged {
                report: format!("report for {}\n", job.id).into_bytes(),
            }
        }),
    );

    let (status, _) = request(addr, "GET", "/jobs/nope", b"");
    assert_eq!(status, 404);

    let body = br#"{"defects":100,"seed":1,"macros":"comparator"}"#;
    let (status, submitted) = request(addr, "POST", "/jobs", body);
    assert_eq!(status, 202, "{submitted}");
    assert!(submitted.contains("\"cached\":false"));
    let id = field(&submitted, "id").to_string();

    wait_state(addr, &id, "merged");
    let (status, report) = request(addr, "GET", &format!("/jobs/{id}/report"), b"");
    assert_eq!(status, 200);
    assert_eq!(report, format!("report for {id}\n"));

    // Identical config — even with different execution knobs — answers
    // from the finished job without running anything.
    let warm = br#"{"defects":100,"seed":1,"macros":"comparator","threads":4}"#;
    let (status, cached) = request(addr, "POST", "/jobs", warm);
    assert_eq!(status, 200, "{cached}");
    assert!(cached.contains("\"cached\":true"), "{cached}");
    assert_eq!(field(&cached, "id"), id);

    // `fresh` forces a re-run of the same id.
    let fresh = br#"{"defects":100,"seed":1,"macros":"comparator","fresh":true}"#;
    let (status, rerun) = request(addr, "POST", "/jobs", fresh);
    assert_eq!(status, 202, "{rerun}");
    wait_state(addr, &id, "merged");

    let (status, metrics) = request(addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    assert!(metrics.contains("jobs_merged 1"), "{metrics}");
    assert!(
        metrics.contains("counter.serve.jobs_submitted"),
        "{metrics}"
    );

    let (status, occ) = request(addr, "GET", "/store/occupancy", b"");
    assert_eq!(status, 200, "{occ}");
    assert!(occ.contains("\"entries\":0"), "empty store: {occ}");

    let (status, _) = request(addr, "POST", "/shutdown", b"");
    assert_eq!(status, 200);
    handle.join().expect("server thread").expect("clean exit");
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn queue_runs_jobs_in_submission_order() {
    let store = tmpdir("fifo");
    let order: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let seen = Arc::clone(&order);
    let (_, addr, handle) = start(
        &store,
        runner(move |job, _, _| {
            seen.lock().expect("order").push(job.id.clone());
            RunOutcome::Merged {
                report: b"ok\n".to_vec(),
            }
        }),
    );

    let mut ids = Vec::new();
    for seed in [11, 22, 33] {
        let body = format!("{{\"defects\":10,\"seed\":{seed},\"macros\":\"ladder\"}}");
        let (status, reply) = request(addr, "POST", "/jobs", body.as_bytes());
        assert_eq!(status, 202, "{reply}");
        ids.push(field(&reply, "id").to_string());
    }
    for id in &ids {
        wait_state(addr, id, "merged");
    }
    assert_eq!(*order.lock().expect("order"), ids, "FIFO by submission");

    let (_, _) = request(addr, "POST", "/shutdown", b"");
    handle.join().expect("server thread").expect("clean exit");
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn shutdown_drains_and_a_restarted_server_resumes() {
    let store = tmpdir("drain");
    let jobs_dir = store.join("jobs");
    let (_, addr, handle) = start(&store, blocking_runner());

    let body = br#"{"defects":10,"seed":5,"macros":"bias_gen"}"#;
    let (status, reply) = request(addr, "POST", "/jobs", body);
    assert_eq!(status, 202, "{reply}");
    let id = field(&reply, "id").to_string();
    wait_state(addr, &id, "running");

    // Shutdown mid-run: the attempt is cancelled and drained back to a
    // persisted, resumable `queued` record before run() returns.
    let (status, _) = request(addr, "POST", "/shutdown", b"");
    assert_eq!(status, 200);
    handle.join().expect("server thread").expect("clean exit");
    let drained = Job::load(&jobs_dir, &id).expect("record survives shutdown");
    assert_eq!(drained.state, JobState::Queued, "drained to queued");
    assert_eq!(drained.attempts, 1, "the interrupted attempt counted");

    // Submitting to a down server fails at connect; the record is the
    // durable handoff. A new server over the same store picks it up
    // without any resubmission.
    let (_, addr2, handle2) = start(
        &store,
        runner(|_, _, _| RunOutcome::Merged {
            report: b"resumed\n".to_vec(),
        }),
    );
    wait_state(addr2, &id, "merged");
    let (status, report) = request(addr2, "GET", &format!("/jobs/{id}/report"), b"");
    assert_eq!(status, 200);
    assert_eq!(report, "resumed\n");
    let finished = Job::load(&jobs_dir, &id).expect("record");
    assert_eq!(finished.attempts, 2);

    let (_, _) = request(addr2, "POST", "/shutdown", b"");
    handle2.join().expect("server thread").expect("clean exit");
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn a_record_crashed_while_running_reenters_the_queue() {
    let store = tmpdir("crashed");
    let jobs_dir = store.join("jobs");
    // Simulate a server killed mid-run: the record froze in `running`.
    let spec = dotm_serve::JobSpec::parse(br#"{"defects":10,"seed":9,"macros":"clock_gen"}"#)
        .expect("spec");
    let mut job = Job::new(spec, 0);
    job.state = JobState::Running;
    job.attempts = 1;
    job.save(&jobs_dir).expect("save");

    // Recovery happens in Server::new, before any listener exists.
    let _server = Server::new(store.clone(), blocking_runner());
    let recovered = Job::load(&jobs_dir, &job.id).expect("record");
    assert_eq!(recovered.state, JobState::Queued, "requeued at startup");
    assert_eq!(recovered.attempts, 1, "attempt history preserved");
    let _ = std::fs::remove_dir_all(&store);
}

/// Opens `GET /jobs/:id/events` and reads NDJSON lines until the `end`
/// event (which terminates every stream).
fn stream_ndjson(addr: SocketAddr, id: &str) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET /jobs/{id}/events HTTP/1.1\r\n\r\n").expect("send");
    stream.flush().expect("flush");
    let mut lines = Vec::new();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut in_body = false;
    while reader.read_line(&mut line).expect("read") > 0 {
        let trimmed = line.trim_end().to_string();
        if in_body && !trimmed.is_empty() {
            let done = trimmed.contains("\"event\":\"end\"");
            lines.push(trimmed);
            if done {
                break;
            }
        } else if trimmed.is_empty() {
            in_body = true;
        }
        line.clear();
    }
    lines
}

#[test]
fn event_stream_replays_history_and_ends() {
    let store = tmpdir("events");
    let (_, addr, handle) = start(
        &store,
        runner(|_, events, _| {
            events("{\"event\":\"progress\",\"macro\":\"ladder\",\"done\":2,\"classes\":4}".into());
            RunOutcome::Merged {
                report: b"r\n".to_vec(),
            }
        }),
    );
    let body = br#"{"defects":10,"seed":3,"macros":"ladder"}"#;
    let (_, reply) = request(addr, "POST", "/jobs", body);
    let id = field(&reply, "id").to_string();
    wait_state(addr, &id, "merged");

    // A late subscriber still sees the whole story: snapshot, the
    // buffered history, and an explicit end event.
    let lines = stream_ndjson(addr, &id);
    assert!(
        lines
            .first()
            .is_some_and(|l| l.contains("\"event\":\"snapshot\"")),
        "{lines:?}"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"event\":\"progress\"") && l.contains("\"done\":2")),
        "{lines:?}"
    );
    assert!(
        lines.iter().any(|l| l.contains("\"state\":\"running\"")),
        "{lines:?}"
    );
    assert!(
        lines
            .last()
            .is_some_and(|l| l.contains("\"event\":\"end\"") && l.contains("merged")),
        "{lines:?}"
    );

    let (_, _) = request(addr, "POST", "/shutdown", b"");
    handle.join().expect("server thread").expect("clean exit");
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn finished_job_history_is_released_once_end_replays() {
    let store = tmpdir("retire");
    let (server, addr, handle) = start(
        &store,
        runner(|_, events, _| {
            events("{\"event\":\"progress\",\"macro\":\"ladder\",\"done\":3,\"classes\":4}".into());
            RunOutcome::Merged {
                report: b"r\n".to_vec(),
            }
        }),
    );
    let body = br#"{"defects":10,"seed":6,"macros":"ladder"}"#;
    let (_, reply) = request(addr, "POST", "/jobs", body);
    let id = field(&reply, "id").to_string();
    wait_state(addr, &id, "merged");
    assert!(
        server.buffered_events(&id) > 0,
        "an unwatched finished job still holds its history"
    );

    // The first subscriber replays the full history; its `end` retires
    // the in-memory buffer (shortly after the client sees the event).
    let lines = stream_ndjson(addr, &id);
    assert!(
        lines.iter().any(|l| l.contains("\"event\":\"progress\"")),
        "{lines:?}"
    );
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.buffered_events(&id) > 0 {
        assert!(
            Instant::now() < deadline,
            "finished job's event history was never released"
        );
        thread::sleep(Duration::from_millis(2));
    }

    // A later subscriber still gets a valid stream — the disk snapshot
    // and a fresh `end` — just no intermediate replay.
    let lines = stream_ndjson(addr, &id);
    assert!(
        lines
            .first()
            .is_some_and(|l| l.contains("\"event\":\"snapshot\"") && l.contains("merged")),
        "{lines:?}"
    );
    assert!(
        lines
            .last()
            .is_some_and(|l| l.contains("\"event\":\"end\"") && l.contains("merged")),
        "{lines:?}"
    );
    assert!(
        !lines.iter().any(|l| l.contains("\"event\":\"progress\"")),
        "retired history must not resurrect: {lines:?}"
    );

    let (_, _) = request(addr, "POST", "/shutdown", b"");
    handle.join().expect("server thread").expect("clean exit");
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn stalled_clients_neither_block_jobs_nor_hold_their_sockets() {
    // Shorten the reaping timeout for the server built here; the knob is
    // captured at construction, and healthy test traffic completes each
    // socket operation in milliseconds either way.
    std::env::set_var("DOTM_SERVE_IO_TIMEOUT_MS", "500");
    let store = tmpdir("stalled");
    let (_, addr, handle) = start(
        &store,
        runner(|_, _, _| RunOutcome::Merged {
            report: b"ok\n".to_vec(),
        }),
    );
    std::env::remove_var("DOTM_SERVE_IO_TIMEOUT_MS");

    // One client stalls mid-head; another declares a body under the
    // size cap and never sends a byte of it.
    let mut slow = TcpStream::connect(addr).expect("connect");
    slow.write_all(b"POST /jobs HTTP/1.1\r\nContent-Le")
        .expect("partial head");
    slow.flush().expect("flush");
    let mut hungry = TcpStream::connect(addr).expect("connect");
    hungry
        .write_all(b"POST /jobs HTTP/1.1\r\nContent-Length: 32768\r\n\r\n")
        .expect("head");
    hungry.flush().expect("flush");

    // The service keeps accepting and finishing work while both hang.
    let body = br#"{"defects":10,"seed":4,"macros":"ladder"}"#;
    let (status, reply) = request(addr, "POST", "/jobs", body);
    assert_eq!(status, 202, "{reply}");
    let id = field(&reply, "id").to_string();
    wait_state(addr, &id, "merged");

    // And the read timeout reaps both stalled connections: the server
    // hangs up, so each client sees EOF rather than its own (much
    // longer) read timeout firing.
    for (mut conn, tag) in [(slow, "mid-head"), (hungry, "bodyless")] {
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("client timeout");
        let mut sink = Vec::new();
        let got = conn.read_to_end(&mut sink);
        assert!(
            got.is_ok(),
            "{tag}: server never closed the stalled socket: {got:?}"
        );
    }

    let (_, _) = request(addr, "POST", "/shutdown", b"");
    handle.join().expect("server thread").expect("clean exit");
    let _ = std::fs::remove_dir_all(&store);
}
