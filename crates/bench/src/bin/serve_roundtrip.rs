//! Campaign-service round-trip gate: boots `campaign --serve` on a
//! loopback port, submits the smoke-size anchor campaign over HTTP,
//! streams its NDJSON progress events, and asserts the service
//! contract end to end:
//!
//! * the HTTP report is **byte-identical** to a plain single-process
//!   CLI campaign over an equivalent fresh store (full `cmp`, not just
//!   fingerprints — the service report *is* a captured CLI stdout);
//! * the progress stream delivers exactly one event per class the CLI
//!   reference evaluated (Σ min(classes, `DOTM_MAX_CLASSES`) over its
//!   macro lines) and terminates with an explicit `end` event in the
//!   `merged` state;
//! * resubmitting the identical config answers `cached:true` from the
//!   finished job without running anything;
//! * a `fresh:true` resubmission re-runs against the warmed store and
//!   **computes nothing** (`misses=0 computed=0` in the store
//!   accounting; only the four unstored nominal measurements solve)
//!   while reproducing
//!   every report fingerprint;
//! * `POST /shutdown` drains and the server exits 0.
//!
//! Knobs: the standard campaign knobs. Unset smoke sizes are pinned
//! (`DOTM_DEFECTS=2000`, `DOTM_MAX_CLASSES=8`, 2×2 good space) so a
//! plain invocation stays smoke-sized.
//!
//! Exits non-zero on any contract violation.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const PINNED: &[(&str, &str)] = &[
    ("DOTM_DEFECTS", "2000"),
    ("DOTM_MAX_CLASSES", "8"),
    ("DOTM_GS_COMMON", "2"),
    ("DOTM_GS_MM", "2"),
];

/// Knobs that must not leak from the invoking shell into either run.
const STALE: &[&str] = &[
    "DOTM_ABORT_AFTER",
    "DOTM_EXPECT_WARM",
    "DOTM_SHARD",
    "DOTM_SHARDS",
    "DOTM_SHARD_ABORT_ONCE",
    "DOTM_SERVE_WORKERS",
    "DOTM_MACROS",
    "DOTM_PROGRESS",
];

fn campaign_exe() -> PathBuf {
    let me = std::env::current_exe().expect("current_exe");
    let dir = me.parent().expect("bin directory");
    let exe = dir.join(format!("campaign{}", std::env::consts::EXE_SUFFIX));
    if !exe.is_file() {
        eprintln!(
            "[dotm] campaign binary not found at {} — build it first \
             (cargo build --release -p dotm-bench --bin campaign)",
            exe.display()
        );
        std::process::exit(2);
    }
    exe
}

/// A pinned knob's effective value: the invoking shell's, else the pin.
fn pinned(name: &str) -> Option<String> {
    std::env::var(name).ok().or_else(|| {
        PINNED
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.to_string())
    })
}

fn pin(cmd: &mut Command, store_dir: &Path) {
    cmd.env("DOTM_STORE_DIR", store_dir);
    for name in STALE {
        cmd.env_remove(name);
    }
    for (k, v) in PINNED {
        if std::env::var_os(k).is_none() {
            cmd.env(k, v);
        }
    }
}

/// The reference: one plain single-process CLI campaign.
fn run_cli(exe: &Path, store_dir: &Path) -> (String, f64) {
    let mut cmd = Command::new(exe);
    pin(&mut cmd, store_dir);
    let t0 = Instant::now();
    let out = cmd.output().unwrap_or_else(|e| {
        eprintln!("[dotm] failed to spawn {}: {e}", exe.display());
        std::process::exit(2);
    });
    let seconds = t0.elapsed().as_secs_f64();
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        eprintln!("[dotm] reference campaign exited with {}", out.status);
        std::process::exit(1);
    }
    (String::from_utf8_lossy(&out.stdout).into_owned(), seconds)
}

/// Boots the service and blocks until it announces its bound address.
fn start_server(exe: &Path, store_dir: &Path) -> (Child, String) {
    let mut cmd = Command::new(exe);
    cmd.arg("--serve").arg("127.0.0.1:0");
    pin(&mut cmd, store_dir);
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().unwrap_or_else(|e| {
        eprintln!("[dotm] failed to spawn the service: {e}");
        std::process::exit(2);
    });
    let stderr = child.stderr.take().expect("stderr piped");
    let mut reader = BufReader::new(stderr);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            eprintln!("[dotm] service exited before announcing its address");
            std::process::exit(1);
        }
        eprint!("[serve] {line}");
        if let Some(rest) = line.trim_end().split("listening on ").nth(1) {
            break rest.to_string();
        }
    };
    // Keep forwarding the service's chatter so failures are diagnosable.
    std::thread::spawn(move || {
        for line in reader.lines().map_while(Result::ok) {
            eprintln!("[serve] {line}");
        }
    });
    (child, addr)
}

/// One HTTP exchange: returns (status, body).
fn http(addr: &str, method: &str, path: &str, body: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap_or_else(|e| {
        eprintln!("[dotm] connect {addr}: {e}");
        std::process::exit(1);
    });
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .expect("send head");
    stream.write_all(body).expect("send body");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("response");
    let text = String::from_utf8_lossy(&raw).into_owned();
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn json_str<'a>(body: &'a str, key: &str) -> &'a str {
    body.split(&format!("\"{key}\":\""))
        .nth(1)
        .map_or("", |s| s.split('"').next().unwrap_or(""))
}

/// Follows the NDJSON event stream to its `end` event. Returns
/// (progress event count, final state).
fn stream_events(addr: &str, id: &str) -> (u64, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET /jobs/{id}/events HTTP/1.1\r\n\r\n").expect("send");
    let mut reader = BufReader::new(stream);
    let mut progress = 0u64;
    let mut in_body = false;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            return (progress, "stream closed early".into());
        }
        let trimmed = line.trim_end();
        if !in_body {
            in_body = trimmed.is_empty();
            continue;
        }
        if trimmed.contains("\"event\":\"progress\"") {
            progress += 1;
        }
        if trimmed.contains("\"event\":\"end\"") {
            return (progress, json_str(trimmed, "state").to_string());
        }
    }
}

/// Polls the job until it reaches `state` (long deadline — the run does
/// real solver work on a cold store).
fn wait_state(addr: &str, id: &str, state: &str) {
    let needle = format!("\"state\":\"{state}\"");
    let deadline = Instant::now() + Duration::from_secs(600);
    loop {
        let (status, body) = http(addr, "GET", &format!("/jobs/{id}"), b"");
        if status == 200 && body.contains(&needle) {
            return;
        }
        if Instant::now() > deadline {
            eprintln!("[dotm] job {id} never reached {state}: {body}");
            std::process::exit(1);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn fingerprints(stdout: &str) -> Vec<(String, String)> {
    stdout
        .lines()
        .filter_map(|l| {
            let fp = l.split("fingerprint=").nth(1)?.trim().to_string();
            let name = l.split_whitespace().next()?.to_string();
            Some((name, fp))
        })
        .collect()
}

fn accounting_line(stdout: &str) -> &str {
    stdout
        .lines()
        .find(|l| l.starts_with("campaign store accounting:"))
        .unwrap_or("")
}

/// The classes a campaign evaluated, from its `<macro> N faults / C
/// classes` lines: Σ min(C, `DOTM_MAX_CLASSES`), `0` meaning no cap.
fn evaluated_classes(stdout: &str) -> u64 {
    let cap = pinned("DOTM_MAX_CLASSES").map_or(0, |v| {
        dotm_core::env::parse_u64(&v).unwrap_or_else(|e| panic!("DOTM_MAX_CLASSES: {e}"))
    });
    stdout
        .lines()
        .filter(|l| l.contains("fingerprint="))
        .filter_map(|l| {
            let words: Vec<&str> = l.split_whitespace().collect();
            let at = words.iter().position(|w| *w == "classes")?;
            words.get(at.checked_sub(1)?)?.parse::<u64>().ok()
        })
        .map(|classes| if cap == 0 { classes } else { classes.min(cap) })
        .sum()
}

fn main() {
    let exe = campaign_exe();
    let root = std::env::temp_dir().join(format!("dotm-serve-roundtrip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    // Both runs use the SAME store path — the report's header names the
    // store directory, so byte-identity requires it. The store is wiped
    // between the runs so both are equally cold.
    let store = root.join("store");

    println!("campaign service round-trip (HTTP vs CLI byte-identity)");
    let (cli_out, cli_secs) = run_cli(&exe, &store);
    println!("  CLI reference: {cli_secs:>6.2}s");

    std::fs::remove_dir_all(&store).expect("wipe the store between the runs");
    let (mut server, addr) = start_server(&exe, &store);

    // Submit the anchor job (empty body = the service's pinned env) and
    // follow its event stream to completion.
    let t0 = Instant::now();
    let (status, submitted) = http(&addr, "POST", "/jobs", b"{}");
    if status != 202 {
        eprintln!("[dotm] submit: expected 202, got {status}: {submitted}");
        std::process::exit(1);
    }
    let id = json_str(&submitted, "id").to_string();
    let (progress_events, end_state) = stream_events(&addr, &id);
    let serve_secs = t0.elapsed().as_secs_f64();
    println!("  service run:   {serve_secs:>6.2}s  ({progress_events} progress events, end state {end_state})");
    let expected_events = evaluated_classes(&cli_out);
    let progress_complete = expected_events > 0 && progress_events == expected_events;
    if !progress_complete {
        eprintln!(
            "  PROGRESS MISMATCH: {progress_events} progress events, \
             the CLI reference evaluated {expected_events} classes"
        );
    }
    if end_state != "merged" {
        eprintln!("[dotm] job ended in {end_state}, not merged");
        std::process::exit(1);
    }

    let (status, report) = http(&addr, "GET", &format!("/jobs/{id}/report"), b"");
    let report_identical = status == 200 && report == cli_out;
    if !report_identical {
        eprintln!("  REPORT MISMATCH: HTTP report differs from the CLI bytes");
    }
    let fp_cold = fingerprints(&report);

    // Dedup: the identical config answers from the finished job.
    let (status, cached) = http(&addr, "POST", "/jobs", b"{}");
    let cached_dedup = status == 200 && cached.contains("\"cached\":true");
    if !cached_dedup {
        eprintln!(
            "  DEDUP FAILED: resubmission was not answered from the store ({status}: {cached})"
        );
    }

    // Warm re-run: forced fresh attempt over the warmed store must
    // compute nothing and reproduce every fingerprint.
    let (status, _) = http(&addr, "POST", "/jobs", b"{\"fresh\":true}");
    if status != 202 {
        eprintln!("[dotm] fresh resubmit: expected 202, got {status}");
        std::process::exit(1);
    }
    wait_state(&addr, &id, "merged");
    let (_, warm_report) = http(&addr, "GET", &format!("/jobs/{id}/report"), b"");
    let warm_accounting = accounting_line(&warm_report);
    let warm_solver_free =
        warm_accounting.contains(" misses=0 ") && warm_accounting.contains(" computed=0 ");
    let fingerprints_identical = !fp_cold.is_empty() && fp_cold == fingerprints(&warm_report);
    if !warm_solver_free {
        eprintln!("  WARM RUN WENT COLD: {warm_accounting}");
    }
    if !fingerprints_identical {
        eprintln!("  FINGERPRINT MISMATCH between cold and warm service runs");
    }

    let (status, _) = http(&addr, "POST", "/shutdown", b"");
    let shutdown_clean = status == 200 && server.wait().map(|s| s.success()).unwrap_or(false);
    if !shutdown_clean {
        eprintln!("  SHUTDOWN FAILED: the service did not drain and exit 0");
        let _ = server.kill();
    }

    println!(
        "  report identical: {report_identical}   cached dedup: {cached_dedup}   \
         warm solver-free: {warm_solver_free}"
    );
    println!(
        "  fingerprints identical: {fingerprints_identical}   clean shutdown: {shutdown_clean}"
    );

    let _ = std::fs::remove_dir_all(&root);

    if !(report_identical
        && cached_dedup
        && warm_solver_free
        && fingerprints_identical
        && shutdown_clean
        && progress_complete)
    {
        eprintln!("[dotm] FAIL: the campaign service broke its round-trip contract");
        std::process::exit(1);
    }
}
