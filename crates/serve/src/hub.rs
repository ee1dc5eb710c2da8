//! In-memory per-job event buffers feeding the NDJSON progress streams.
//!
//! Events are append-only per job; a subscriber reads by absolute index,
//! so any number of streams can follow one job without coordination, and
//! a late subscriber replays the retained history. The hub is memory-only
//! by design: the *authoritative* job state lives in the crash-safe job
//! records and the journals — after a server restart the streams
//! resynthesize their opening snapshot from disk and the hub refills
//! from there.
//!
//! Two mechanisms keep the hub bounded on a long-lived server:
//!
//! * each job's buffer is capped at 4096 events (`EVENT_CAP`) — a
//!   chatty run drops its oldest events first, and a subscriber that
//!   fell behind the drop point resumes at the oldest retained event
//!   (its returned cursor jumps forward over the gap);
//! * once a job is terminal and its `end` event has replayed to a
//!   stream, the server [`EventHub::retire`]s the whole buffer — later
//!   subscribers get the disk snapshot plus a fresh `end`, and the
//!   memory is released instead of leaking one history per finished job.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Most events retained per job. The anchor campaign emits a few
/// events per class, so this holds a full run's history with headroom
/// while bounding what one runaway job can pin in memory.
const EVENT_CAP: usize = 4096;

/// One job's retained events plus the absolute index of the first.
#[derive(Default)]
struct Buffer {
    /// Absolute index of `events[0]` in the job's full event sequence —
    /// advances as the cap drops old events.
    base: usize,
    events: VecDeque<String>,
}

/// Append-only event buffers keyed by job id.
#[derive(Default)]
pub struct EventHub {
    events: Mutex<HashMap<String, Buffer>>,
    wake: Condvar,
}

impl EventHub {
    /// An empty hub.
    pub fn new() -> Self {
        EventHub::default()
    }

    /// Appends one event line to a job's buffer and wakes every waiting
    /// subscriber (all jobs — spurious wakes are fine, waiters re-check
    /// their own index). Beyond `EVENT_CAP` events the oldest drops.
    pub fn publish(&self, job: &str, event: String) {
        let mut map = self.events.lock().unwrap_or_else(|e| e.into_inner());
        let buf = map.entry(job.to_string()).or_default();
        buf.events.push_back(event);
        while buf.events.len() > EVENT_CAP {
            buf.events.pop_front();
            buf.base += 1;
        }
        self.wake.notify_all();
    }

    /// Returns the job's events from absolute index `from` on, plus the
    /// cursor to pass as the next `from`, blocking up to `timeout` for a
    /// first new one. An empty batch means the timeout elapsed — the
    /// caller re-checks its liveness condition and calls again. When the
    /// cap has dropped events past `from`, the batch starts at the
    /// oldest retained event and the cursor jumps over the gap.
    pub fn read_from(&self, job: &str, from: usize, timeout: Duration) -> (usize, Vec<String>) {
        let mut map = self.events.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(buf) = map.get(job) {
                let have = buf.base + buf.events.len();
                if have > from {
                    let skip = from.saturating_sub(buf.base);
                    let batch: Vec<String> = buf.events.iter().skip(skip).cloned().collect();
                    return (have, batch);
                }
            }
            let (guard, wait) = self
                .wake
                .wait_timeout(map, timeout)
                .unwrap_or_else(|e| e.into_inner());
            map = guard;
            if wait.timed_out() {
                return (from, Vec::new());
            }
        }
    }

    /// Drops a job's whole buffer — called once the job is terminal on
    /// disk and its `end` has replayed. Waiters wake, see no events, and
    /// fall back to their disk-state liveness check.
    pub fn retire(&self, job: &str) {
        let mut map = self.events.lock().unwrap_or_else(|e| e.into_inner());
        map.remove(job);
        self.wake.notify_all();
    }

    /// Number of events currently retained in memory for a job.
    pub fn len(&self, job: &str) -> usize {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(job)
            .map_or(0, |b| b.events.len())
    }

    /// Whether no events are retained for a job.
    pub fn is_empty(&self, job: &str) -> bool {
        self.len(job) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn replays_history_and_wakes_waiters() {
        let hub = Arc::new(EventHub::new());
        hub.publish("a", "one".into());
        hub.publish("a", "two".into());
        assert_eq!(
            hub.read_from("a", 0, Duration::from_millis(1)),
            (2, vec!["one".to_string(), "two".to_string()])
        );
        assert_eq!(
            hub.read_from("a", 1, Duration::from_millis(1)),
            (2, vec!["two".to_string()])
        );
        assert_eq!(hub.read_from("a", 2, Duration::from_millis(1)).1, [""; 0]);
        assert_eq!(
            hub.read_from("other", 0, Duration::from_millis(1)).1,
            [""; 0]
        );

        let waiter = {
            let hub = Arc::clone(&hub);
            thread::spawn(move || hub.read_from("a", 2, Duration::from_secs(10)))
        };
        hub.publish("a", "three".into());
        assert_eq!(
            waiter.join().expect("waiter"),
            (3, vec!["three".to_string()])
        );
        assert_eq!(hub.len("a"), 3);
        assert!(hub.is_empty("b"));
    }

    #[test]
    fn cap_drops_oldest_and_cursors_jump_the_gap() {
        let hub = EventHub::new();
        for i in 0..EVENT_CAP + 10 {
            hub.publish("a", format!("e{i}"));
        }
        assert_eq!(hub.len("a"), EVENT_CAP, "cap holds");
        // A subscriber from 0 resumes at the oldest retained event and
        // its cursor lands past everything it received.
        let (next, batch) = hub.read_from("a", 0, Duration::from_millis(1));
        assert_eq!(next, EVENT_CAP + 10);
        assert_eq!(batch.len(), EVENT_CAP);
        assert_eq!(batch.first().map(String::as_str), Some("e10"));
        assert_eq!(
            batch.last().map(String::as_str),
            Some(format!("e{}", EVENT_CAP + 9).as_str())
        );
        // The cursor is consistent: nothing new at `next`.
        assert!(hub
            .read_from("a", next, Duration::from_millis(1))
            .1
            .is_empty());
    }

    #[test]
    fn retire_releases_the_buffer_and_wakes_waiters() {
        let hub = Arc::new(EventHub::new());
        hub.publish("a", "one".into());
        assert_eq!(hub.len("a"), 1);
        let waiter = {
            let hub = Arc::clone(&hub);
            thread::spawn(move || hub.read_from("a", 1, Duration::from_millis(200)))
        };
        // Give the waiter a moment to park, then retire out from under
        // it: it must come back empty via the timeout path — retiring
        // must not leave it blocked on a buffer that no longer exists.
        thread::sleep(Duration::from_millis(20));
        hub.retire("a");
        assert!(hub.is_empty("a"));
        assert_eq!(hub.read_from("a", 0, Duration::from_millis(1)).1, [""; 0]);
        // The parked waiter sees no events for a retired job and times out.
        let (next, batch) = waiter.join().expect("waiter");
        assert_eq!((next, batch.len()), (1, 0));
    }
}
