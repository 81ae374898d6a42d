//! Recorders (where events go) and the [`Probe`] handle (how code emits).

use crate::event::Event;
use std::sync::{Arc, Mutex};

/// A sink for telemetry events. Implementations must be thread-safe: the
/// FL engine emits from worker threads.
pub trait Recorder: Send + Sync {
    /// Consume one event.
    fn record(&self, event: &Event);
}

/// Discards every event. Useful where an API requires a concrete recorder;
/// prefer [`Probe::disabled`] otherwise, which skips event construction
/// entirely.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record(&self, _event: &Event) {}
}

/// In-memory recorder; keeps every event in arrival order.
#[derive(Default)]
pub struct EventLog {
    events: Mutex<Vec<Event>>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all events in arrival order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap().clone()
    }

    /// Drain the log: return all events in arrival order and leave it
    /// empty. Used by the multi-cohort engine to splice per-worker buffers
    /// into one ordered stream without cloning every event.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().unwrap())
    }

    /// Append `events` in order (one lock acquisition for the whole batch).
    pub fn extend(&self, events: impl IntoIterator<Item = Event>) {
        self.events.lock().unwrap().extend(events);
    }

    /// Encode the whole log as JSON Lines (one event per line, trailing
    /// newline). Byte-deterministic for a deterministic event stream.
    pub fn to_jsonl(&self) -> String {
        self.to_jsonl_from(0)
    }

    /// Snapshot of events from index `from` onward, in arrival order.
    /// Empty when `from >= len()`. Consumers that tail a live log poll
    /// with their last-seen index to receive only the new suffix.
    pub fn events_from(&self, from: usize) -> Vec<Event> {
        let events = self.events.lock().unwrap();
        events.get(from..).unwrap_or_default().to_vec()
    }

    /// Encode events from index `from` onward as JSON Lines. The
    /// concatenation of `to_jsonl_from(0..k)` and `to_jsonl_from(k)` is
    /// byte-identical to [`EventLog::to_jsonl`], so a tailing consumer
    /// reconstructs the exact full stream.
    pub fn to_jsonl_from(&self, from: usize) -> String {
        let events = self.events.lock().unwrap();
        let mut out = String::new();
        for ev in events.get(from..).unwrap_or_default() {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }
}

impl Recorder for EventLog {
    fn record(&self, event: &Event) {
        self.events.lock().unwrap().push(event.clone());
    }
}

/// Cheap cloneable handle through which instrumented code emits events.
///
/// A disabled probe (the default) is a `None` inside: [`Probe::emit`] never
/// invokes its closure, so the instrumented hot paths pay one branch and
/// construct nothing.
#[derive(Clone, Default)]
pub struct Probe {
    recorder: Option<Arc<dyn Recorder>>,
}

impl Probe {
    /// A probe that drops everything without constructing events.
    pub fn disabled() -> Self {
        Probe { recorder: None }
    }

    /// A probe delivering events to `recorder`.
    pub fn attached(recorder: Arc<dyn Recorder>) -> Self {
        Probe {
            recorder: Some(recorder),
        }
    }

    /// Whether events are currently being recorded.
    pub fn is_enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// Emit the event produced by `f`, if enabled. `f` runs only when a
    /// recorder is attached.
    #[inline]
    pub fn emit<F: FnOnce() -> Event>(&self, f: F) {
        if let Some(recorder) = &self.recorder {
            recorder.record(&f());
        }
    }
}

impl std::fmt::Debug for Probe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Probe")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(round: usize) -> Event {
        Event::RoundStart { round, n_users: 4 }
    }

    #[test]
    fn disabled_probe_never_constructs_events() {
        let probe = Probe::disabled();
        let mut constructed = false;
        probe.emit(|| {
            constructed = true;
            sample(0)
        });
        assert!(!constructed);
        assert!(!probe.is_enabled());
    }

    #[test]
    fn attached_probe_records_in_order() {
        let log = Arc::new(EventLog::new());
        let probe = Probe::attached(log.clone());
        assert!(probe.is_enabled());
        for round in 0..3 {
            probe.emit(|| sample(round));
        }
        let events = log.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[2], sample(2));
    }

    #[test]
    fn cloned_probes_share_the_recorder() {
        let log = Arc::new(EventLog::new());
        let probe = Probe::attached(log.clone());
        let clone = probe.clone();
        probe.emit(|| sample(0));
        clone.emit(|| sample(1));
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn take_drains_and_preserves_order() {
        let log = EventLog::new();
        for round in 0..5 {
            log.record(&sample(round));
        }
        let drained = log.take();
        assert_eq!(drained.len(), 5);
        assert_eq!(drained[3], sample(3));
        assert!(log.is_empty(), "take must leave the log empty");
    }

    #[test]
    fn extend_appends_in_order() {
        let log = EventLog::new();
        log.record(&sample(0));
        log.extend([sample(1), sample(2)]);
        assert_eq!(log.events(), vec![sample(0), sample(1), sample(2)]);
    }

    #[test]
    fn cohort_buffer_splice_is_byte_identical_to_direct_recording() {
        // The population engines buffer each cohort's events in a
        // private log and splice the offset-remapped
        // buffers into the session log in cohort order. The golden-trace
        // contract needs that buffering to be invisible in the bytes.
        let events = |base: usize| {
            vec![
                Event::RoundStart {
                    round: 0,
                    n_users: 2,
                },
                Event::UserSpan {
                    round: 0,
                    user: base,
                    compute_s: 0.5,
                    comm_s: 0.25,
                },
            ]
        };
        let direct = EventLog::new();
        for cohort in 0..2usize {
            for ev in events(cohort * 2) {
                direct.record(&ev);
            }
        }

        let spliced = EventLog::new();
        for cohort in 0..2usize {
            let buffer = EventLog::new();
            for ev in events(0) {
                buffer.record(&ev);
            }
            spliced.extend(
                buffer
                    .take()
                    .into_iter()
                    .map(|e| e.with_user_offset(cohort * 2)),
            );
        }
        assert_eq!(spliced.to_jsonl(), direct.to_jsonl());
    }

    #[test]
    fn splice_offsets_past_a_million_devices_do_not_truncate() {
        // The hierarchical engine splices cohort buffers at offsets near
        // the end of a 1M-device population; the remap must stay `usize`
        // arithmetic with no narrow intermediate anywhere in the splice.
        let offset = 1_000_000usize - 64;
        let buffer = EventLog::new();
        buffer.record(&Event::UserSpan {
            round: 0,
            user: 63,
            compute_s: 0.5,
            comm_s: 0.25,
        });
        let spliced = EventLog::new();
        spliced.extend(
            buffer
                .take()
                .into_iter()
                .map(|e| e.with_user_offset(offset)),
        );
        assert_eq!(
            spliced.to_jsonl(),
            "{\"ev\":\"user_span\",\"round\":0,\"user\":999999,\
             \"compute_s\":0.5,\"comm_s\":0.25}\n"
        );
    }

    #[test]
    fn jsonl_tail_concatenates_to_the_full_stream() {
        let log = EventLog::new();
        for round in 0..5 {
            log.record(&sample(round));
        }
        for split in 0..=5 {
            let head: String = log.events_from(0)[..split]
                .iter()
                .map(|e| format!("{}\n", e.to_json()))
                .collect();
            let joined = format!("{head}{}", log.to_jsonl_from(split));
            assert_eq!(joined, log.to_jsonl(), "split at {split}");
        }
        assert!(log.to_jsonl_from(99).is_empty());
        assert!(log.events_from(99).is_empty());
        assert_eq!(log.events_from(3).len(), 2);
    }

    #[test]
    fn event_log_jsonl_is_reproducible() {
        let make = || {
            let log = EventLog::new();
            log.record(&sample(0));
            log.record(&Event::UserSpan {
                round: 0,
                user: 1,
                compute_s: 0.5,
                comm_s: 0.25,
            });
            log.to_jsonl()
        };
        let a = make();
        let b = make();
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 2);
        assert!(a.ends_with('\n'));
    }

    #[test]
    fn recorders_work_across_threads() {
        let log = Arc::new(EventLog::new());
        let probe = Probe::attached(log.clone());
        std::thread::scope(|s| {
            for t in 0..4 {
                let p = probe.clone();
                s.spawn(move || {
                    for i in 0..50 {
                        p.emit(|| sample(t * 100 + i));
                    }
                });
            }
        });
        assert_eq!(log.len(), 200);
    }
}
