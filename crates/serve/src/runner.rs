//! Job execution: the [`JobRunner`] seam between the server's queue
//! machinery and the campaign binary.
//!
//! The real implementation ([`SubprocessRunner`]) spawns the `campaign`
//! binary and captures its stdout verbatim — the served report *is* the
//! CLI's bytes by construction, which is what makes the HTTP
//! byte-identity gate a tautology rather than a hope. Tests swap in a
//! scripted runner to drive the queue through crashes and restarts
//! without building circuits.

use crate::exit::{classify, FailureClass, IO};
use crate::job::Job;
use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// How one run attempt ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// Success: the campaign's stdout, byte-for-byte.
    Merged {
        /// Report bytes (the subprocess's captured stdout).
        report: Vec<u8>,
    },
    /// The run stopped at a journaled point (deliberate abort or a
    /// service cancellation) and will resume when re-run.
    Interrupted,
    /// The run failed; `class` is the exit-code classification.
    Failed {
        /// Why.
        class: FailureClass,
        /// The raw exit code (for the job record).
        code: i32,
    },
}

/// Executes one job attempt. `events` receives NDJSON event payloads
/// (without trailing newline) as the run progresses — possibly from a
/// reader thread, hence `Sync`; `cancel` flips when the server wants
/// the attempt stopped at the next journaled point.
pub trait JobRunner: Send + Sync {
    /// Runs the attempt to completion (or cancellation) and reports how
    /// it ended.
    fn run(&self, job: &Job, events: &(dyn Fn(String) + Sync), cancel: &AtomicBool) -> RunOutcome;
}

/// The production runner: spawns the campaign binary per job.
pub struct SubprocessRunner {
    exe: PathBuf,
    store_dir: PathBuf,
}

/// Parses one `[progress] macro=<m> class=<done>/<total>` stderr line
/// into its event payload. `None` for every other line.
pub fn parse_progress_line(line: &str) -> Option<String> {
    let rest = line.strip_prefix("[progress] ")?;
    let macro_name = rest.strip_prefix("macro=")?.split_whitespace().next()?;
    let class = rest.split("class=").nth(1)?;
    let (done, total) = class.trim().split_once('/')?;
    let done: usize = done.parse().ok()?;
    let total: usize = total.parse().ok()?;
    Some(format!(
        "{{\"event\":\"progress\",\"macro\":\"{macro_name}\",\"done\":{done},\"classes\":{total}}}"
    ))
}

impl SubprocessRunner {
    /// A runner that spawns `exe` (the campaign binary) against
    /// `store_dir`.
    pub fn new(exe: PathBuf, store_dir: PathBuf) -> SubprocessRunner {
        SubprocessRunner { exe, store_dir }
    }

    fn command(&self, job: &Job) -> Command {
        let mut cmd = Command::new(&self.exe);
        if job.spec.workers > 0 {
            cmd.arg("--workers").arg(job.spec.workers.to_string());
        } else if job.attempts > 0 {
            // Only re-attempts resume: `--resume` stamps a ", resuming"
            // suffix on the report header, and a first attempt's stdout
            // must be byte-identical to the plain CLI campaign.
            cmd.arg("--resume");
        }
        // The job spec fully determines the campaign environment; the
        // server's own injection/sharding knobs must not leak through.
        for stale in [
            "DOTM_ABORT_AFTER",
            "DOTM_EXPECT_WARM",
            "DOTM_SHARD",
            "DOTM_SHARDS",
            "DOTM_SHARD_ABORT_ONCE",
        ] {
            cmd.env_remove(stale);
        }
        cmd.env("DOTM_STORE_DIR", &self.store_dir)
            .env("DOTM_DEFECTS", job.spec.defects.to_string())
            .env("DOTM_SEED", job.spec.seed.to_string())
            .env("DOTM_GS_COMMON", job.spec.gs_common.to_string())
            .env("DOTM_GS_MM", job.spec.gs_mm.to_string())
            .env("DOTM_MAX_CLASSES", job.spec.max_classes.to_string())
            .env("DOTM_THREADS", job.spec.threads.to_string())
            .env("DOTM_MACROS", job.spec.macros.join(","))
            .env("DOTM_PROGRESS", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        if job.attempts == 0 && job.spec.abort_once > 0 {
            cmd.env("DOTM_ABORT_AFTER", job.spec.abort_once.to_string());
        }
        cmd
    }

    /// Waits for the child, polling `cancel`; a cancelled child is
    /// killed (the journal keeps every flushed class) and reported as
    /// interrupted.
    fn supervise(
        &self,
        mut child: Child,
        events: &(dyn Fn(String) + Sync),
        cancel: &AtomicBool,
    ) -> RunOutcome {
        let poll = Duration::from_millis(dotm_core::env::serve_poll_ms());
        let stdout = child.stdout.take().expect("stdout piped");
        let stderr = child.stderr.take().expect("stderr piped");
        let (report, killed, status) = std::thread::scope(|scope| {
            let out = scope.spawn(move || {
                let mut bytes = Vec::new();
                let mut reader = stdout;
                let _ = reader.read_to_end(&mut bytes);
                bytes
            });
            // Stderr drains live: `[progress]` lines become events the
            // moment the campaign's observer emits them; everything else
            // is forwarded chatter.
            let err = scope.spawn(move || {
                for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                    if let Some(event) = parse_progress_line(&line) {
                        events(event);
                    } else {
                        eprintln!("[job] {line}");
                    }
                }
            });
            let mut killed = false;
            let status = loop {
                if cancel.load(Ordering::Acquire) && !killed {
                    let _ = child.kill();
                    killed = true;
                }
                match child.try_wait() {
                    Ok(Some(status)) => break status,
                    Ok(None) => std::thread::sleep(poll),
                    Err(_) => {
                        let _ = child.kill();
                        break child.wait().expect("child must be reapable");
                    }
                }
            };
            let report = out.join().expect("stdout reader");
            err.join().expect("stderr reader");
            (report, killed, status)
        });
        if killed {
            return RunOutcome::Interrupted;
        }
        match classify(status.code()) {
            None => RunOutcome::Merged { report },
            Some(FailureClass::Interrupted) => RunOutcome::Interrupted,
            Some(class) => RunOutcome::Failed {
                class,
                code: status.code().unwrap_or(IO),
            },
        }
    }
}

impl JobRunner for SubprocessRunner {
    fn run(&self, job: &Job, events: &(dyn Fn(String) + Sync), cancel: &AtomicBool) -> RunOutcome {
        match self.command(job).spawn() {
            Ok(child) => self.supervise(child, events, cancel),
            Err(err) => RunOutcome::Failed {
                class: FailureClass::Io,
                code: crate::exit::io_exit_code(&err),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_lines_parse_and_chatter_does_not() {
        assert_eq!(
            parse_progress_line("[progress] macro=comparator class=3/8"),
            Some(
                "{\"event\":\"progress\",\"macro\":\"comparator\",\"done\":3,\"classes\":8}"
                    .to_string()
            )
        );
        for line in [
            "[campaign] merging 2 shard segments",
            "[progress] macro=comparator",
            "[progress] class=3/8",
            "[progress] macro=x class=three/8",
            "plain chatter",
        ] {
            assert_eq!(parse_progress_line(line), None, "{line:?}");
        }
    }

    #[test]
    fn command_shape_follows_the_spec() {
        let runner = SubprocessRunner::new(PathBuf::from("campaign"), PathBuf::from("/tmp/store"));
        let mut job = Job::new(crate::job::JobSpec::from_env(), 0);

        let args = |cmd: &Command| -> Vec<String> {
            cmd.get_args()
                .map(|a| a.to_string_lossy().into_owned())
                .collect()
        };
        let env_of = |cmd: &Command, name: &str| -> Option<String> {
            cmd.get_envs()
                .find(|(k, _)| *k == std::ffi::OsStr::new(name))
                .and_then(|(_, v)| v.map(|v| v.to_string_lossy().into_owned()))
        };

        job.spec.workers = 0;
        assert!(
            args(&runner.command(&job)).is_empty(),
            "first attempt runs plain"
        );
        job.attempts = 2;
        assert_eq!(args(&runner.command(&job)), ["--resume"]);
        job.attempts = 0;
        job.spec.workers = 3;
        assert_eq!(args(&runner.command(&job)), ["--workers", "3"]);

        // Crash injection only on the very first attempt.
        job.spec.abort_once = 5;
        job.attempts = 0;
        assert_eq!(
            env_of(&runner.command(&job), "DOTM_ABORT_AFTER"),
            Some("5".into())
        );
        job.attempts = 1;
        assert_eq!(env_of(&runner.command(&job), "DOTM_ABORT_AFTER"), None);
        assert_eq!(
            env_of(&runner.command(&job), "DOTM_PROGRESS"),
            Some("1".into())
        );
        assert_eq!(
            env_of(&runner.command(&job), "DOTM_STORE_DIR"),
            Some("/tmp/store".into())
        );
    }
}
