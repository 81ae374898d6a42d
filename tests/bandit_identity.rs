//! Differential identity tests for online bandit client selection.
//!
//! Two contracts pin the new subsystem to the repo's determinism story:
//!
//! 1. **Quiet knobs are exact no-ops.** `Selection::Off` plus a
//!    zero-sigma drift process must replay the pre-existing golden
//!    scenarios byte-identically — at every thread count — so merely
//!    *owning* the new knobs cannot shift a single byte of any trace
//!    recorded before they existed.
//! 2. **Active selection is thread-invariant and replayable.** A bandit
//!    policy under nonzero drift draws from its own salted stream, so the
//!    same seed produces the same bytes at threads 1/2/4/8 and across
//!    repeated runs.

use std::path::PathBuf;
use std::sync::Arc;

use fedsched::bandit::{MaybeSeeded, PolicyKind, SelectionConfig};
use fedsched::core::Schedule;
use fedsched::device::{Device, DeviceModel, TrainingWorkload};
use fedsched::faults::{DriftConfig, FaultConfig};
use fedsched::fl::{RoundConfig, Selection, SimBuilder};
use fedsched::net::{Link, RetryPolicy};
use fedsched::telemetry::{EventLog, Probe};

const SEED: u64 = 2020;
const MODEL_BYTES: f64 = 2.5e6;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn round_config(seed: u64) -> RoundConfig {
    RoundConfig::new(
        TrainingWorkload::lenet(),
        Link::new(100.0, 100.0, 0.0, 0.0),
        MODEL_BYTES,
        seed,
    )
}

/// The golden chaos population: 8 devices cycling the Table I models.
fn population(n: usize) -> Vec<Device> {
    let models = DeviceModel::all();
    (0..n)
        .map(|i| {
            Device::from_model(
                models[i % models.len()],
                SEED.wrapping_add(i as u64 * 0x9E37_79B9),
            )
        })
        .collect()
}

/// Replay the checked-in `chaos_multicohort` golden scenario (see
/// `golden_trace.rs`) with the *quiet* forms of the new knobs layered on:
/// `Selection::Off` and a zero-sigma drift process.
fn quiet_knob_chaos_trace(threads: usize) -> String {
    let log = Arc::new(EventLog::new());
    let config = FaultConfig::none()
        .with_crash_prob(0.25)
        .with_loss_prob(0.15)
        // sigma = 0: the walk never perturbs a single device.
        .with_drift(DriftConfig::new(0.0, 4.0));
    let mut engine = SimBuilder::new(population(8), round_config(SEED))
        .cohort_size(4)
        .threads(threads)
        .faults(config, 3)
        .retry(RetryPolicy::default_chaos())
        .selection(Selection::Off)
        .probe(Probe::attached(log.clone()))
        .build_hier()
        .expect("quiet-knob chaos engine config is valid");
    let _ = engine.run(&Schedule::new(vec![3; 8], 100.0), 3);
    log.to_jsonl()
}

/// `Selection::Off` + zero drift must reproduce the checked-in golden
/// snapshot bit for bit at every thread count: the new knobs, in their
/// quiet forms, are invisible.
#[test]
fn off_selection_and_zero_drift_match_checked_in_golden_at_every_thread_count() {
    let golden =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/chaos_multicohort.jsonl");
    let want = std::fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("cannot read {} ({e})", golden.display()));
    for threads in THREAD_COUNTS {
        assert_eq!(
            quiet_knob_chaos_trace(threads),
            want,
            "threads {threads}: quiet selection/drift knobs shifted the golden bytes"
        );
    }
}

/// One bandit-selected chaos run on the multi-cohort engine: report debug
/// string + full telemetry bytes.
fn bandit_engine_trace(threads: usize, policy: PolicyKind) -> (String, String) {
    let log = Arc::new(EventLog::new());
    let config = FaultConfig::none()
        .with_crash_prob(0.2)
        .with_loss_prob(0.1)
        .with_drift(DriftConfig::new(0.25, 6.0));
    let selection = SelectionConfig {
        policy,
        k: 3,
        seed: MaybeSeeded::inherit(),
    };
    let mut engine = SimBuilder::new(population(8), round_config(SEED))
        .cohort_size(4)
        .threads(threads)
        .faults(config, 4)
        .retry(RetryPolicy::default_chaos())
        .selection(Selection::Bandit(selection))
        .probe(Probe::attached(log.clone()))
        .build_hier()
        .expect("bandit engine config is valid");
    let report = engine.run(&Schedule::new(vec![3; 8], 100.0), 4);
    (format!("{:?}", report.timing), log.to_jsonl())
}

/// An active bandit under nonzero drift is thread-invariant: the policy
/// draws from its own salted stream keyed on cohort seed and round, never
/// on scheduling order.
#[test]
fn bandit_selection_is_thread_invariant() {
    for policy in [
        PolicyKind::EpsilonGreedy { epsilon: 0.2 },
        PolicyKind::Ucb1 { c: 1.0 },
        PolicyKind::ThompsonSampling,
    ] {
        let (want_report, want_jsonl) = bandit_engine_trace(1, policy);
        assert!(
            want_jsonl.contains("\"ev\":\"bandit_select\""),
            "{}: selection never fired:\n{want_jsonl}",
            policy.name()
        );
        assert!(
            want_jsonl.contains("\"ev\":\"bandit_reward\""),
            "{}: rewards never settled:\n{want_jsonl}",
            policy.name()
        );
        for threads in THREAD_COUNTS {
            let (report, jsonl) = bandit_engine_trace(threads, policy);
            assert_eq!(
                report,
                want_report,
                "{}, threads {threads}: report diverged",
                policy.name()
            );
            assert_eq!(
                jsonl,
                want_jsonl,
                "{}, threads {threads}: trace bytes diverged",
                policy.name()
            );
        }
    }
}

/// Same seed, same bytes: a bandit-selected run is exactly replayable.
#[test]
fn bandit_selection_replays_byte_identically() {
    let a = bandit_engine_trace(4, PolicyKind::Ucb1 { c: 1.0 });
    let b = bandit_engine_trace(4, PolicyKind::Ucb1 { c: 1.0 });
    assert_eq!(a, b, "same seed must give the same bytes");
}
