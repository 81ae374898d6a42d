//! Structured telemetry for the fedsched simulation stack.
//!
//! Every layer that makes a decision — the device simulator (DVFS, thermal
//! trips, battery), the schedulers (chosen threshold `c*`, per-user shard
//! counts, infeasibility causes), and the round simulator (per-user
//! compute/comm spans, stragglers) — emits [`Event`]s through a cloneable
//! [`Probe`] handle.
//!
//! The design goals, in order:
//!
//! 1. **Zero cost when disabled.** A disabled probe is a `None`; `emit`
//!    takes a closure so the event is never even constructed unless a
//!    recorder is attached.
//! 2. **Byte-determinism.** Event streams from fixed-seed simulations must
//!    serialize to identical bytes across runs. JSON encoding is
//!    hand-written here with fixed key order and Rust's deterministic
//!    shortest-roundtrip float formatting — no map iteration order or
//!    locale can leak in.
//! 3. **One aggregation path.** Counters and histograms live in a
//!    [`MetricsRegistry`] that report code consumes, instead of ad-hoc
//!    tallies scattered through the bench crate.
//!
//! ```
//! use fedsched_telemetry::{Event, EventLog, Probe};
//! use std::sync::Arc;
//!
//! let log = Arc::new(EventLog::new());
//! let probe = Probe::attached(log.clone());
//! probe.emit(|| Event::RoundStart { round: 0, n_users: 4 });
//! assert_eq!(log.len(), 1);
//! assert_eq!(log.to_jsonl(), "{\"ev\":\"round_start\",\"round\":0,\"n_users\":4}\n");
//! ```

mod compact;
mod event;
pub mod json;
mod metrics;
mod recorder;

pub use compact::{compact_jsonl, CompactStats, BANDIT_KINDS, CHURN_KINDS, DEVICE_LEVEL_KINDS};
pub use event::Event;
pub use metrics::{Histogram, MetricsRegistry};
pub use recorder::{EventLog, NullRecorder, Probe, Recorder};
