//! Differential identity tests for the Byzantine-robust aggregation layer.
//!
//! Two contracts are pinned here, both over the parallel multi-cohort
//! engine so cohort splicing and thread scheduling are in the loop:
//!
//! 1. **Zero adversaries ⇒ byte-identity.** With a quiet adversary plan
//!    attached, *every* robust aggregator kind — including the `f = 0` /
//!    `trim = 0` corner configurations — must produce telemetry and reports
//!    byte-identical to the plain FedAvg path, at 1, 2, 4 and 8 worker
//!    threads. The robust layer may only ever add behaviour when someone is
//!    actually attacking.
//! 2. **Thread invariance under attack.** A live adversary changes the
//!    trace (rejections appear), but the changed trace is still a pure
//!    function of the master seed: identical bytes at every thread count.

use std::sync::Arc;

use fedsched::core::Schedule;
use fedsched::device::{Device, DeviceModel, TrainingWorkload};
use fedsched::faults::{AdversaryConfig, AttackKind, FaultConfig};
use fedsched::fl::{AggregatorKind, RoundConfig, SimBuilder};
use fedsched::net::Link;
use fedsched::telemetry::{EventLog, Probe};

const SEED: u64 = 77;
const ROUNDS: usize = 3;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn devices() -> Vec<Device> {
    let models = DeviceModel::all();
    (0..8)
        .map(|i| {
            Device::from_model(
                models[i % models.len()],
                SEED.wrapping_add(i as u64 * 0x9E37_79B9),
            )
        })
        .collect()
}

/// Every aggregator kind the subsystem ships, plus the degenerate
/// configurations (`trim = 0`, `f = 0`) that must also collapse to the
/// baseline when nobody attacks.
fn all_kinds() -> Vec<AggregatorKind> {
    vec![
        AggregatorKind::FedAvg,
        AggregatorKind::TrimmedMean { trim: 0 },
        AggregatorKind::TrimmedMean { trim: 1 },
        AggregatorKind::Median,
        AggregatorKind::NormClip { tau: 0.0 },
        AggregatorKind::NormClip { tau: 5.0 },
        AggregatorKind::Krum { f: 0 },
        AggregatorKind::Krum { f: 1 },
        AggregatorKind::MultiKrum { f: 0, k: 2 },
        AggregatorKind::MultiKrum { f: 1, k: 2 },
    ]
}

/// Run the two-cohort engine and return `(trace, debug-formatted report)`.
fn run(
    kind: AggregatorKind,
    adversary: Option<AdversaryConfig>,
    threads: usize,
) -> (String, String) {
    let log = Arc::new(EventLog::new());
    let mut builder = SimBuilder::new(
        devices(),
        RoundConfig::new(
            TrainingWorkload::lenet(),
            Link::new(100.0, 100.0, 0.0, 0.0),
            2.5e6,
            SEED,
        ),
    )
    .cohort_size(4)
    .threads(threads)
    .faults(
        FaultConfig::none().with_crash_prob(0.2).with_loss_prob(0.1),
        ROUNDS,
    )
    .aggregator(kind)
    .probe(Probe::attached(log.clone()));
    if let Some(adv) = adversary {
        builder = builder.adversary(adv, ROUNDS);
    }
    let mut engine = builder.build_hier().expect("valid engine config");
    let report = engine.run(&Schedule::new(vec![3; 8], 100.0), ROUNDS);
    (log.to_jsonl(), format!("{report:?}"))
}

#[test]
fn zero_adversary_is_byte_identical_to_fedavg_at_every_thread_count() {
    let baseline = run(AggregatorKind::FedAvg, None, 1);
    assert!(
        !baseline.0.contains("robust_aggregate"),
        "baseline must not engage the robust layer"
    );
    for kind in all_kinds() {
        for threads in THREAD_COUNTS {
            let got = run(kind, Some(AdversaryConfig::none()), threads);
            assert_eq!(
                baseline,
                got,
                "{} at {threads} threads: zero adversaries must be invisible",
                kind.name()
            );
        }
    }
}

#[test]
fn attacked_runs_are_thread_invariant() {
    let adv = AdversaryConfig::none().with_attackers(0.5, AttackKind::SignFlip);
    let reference = run(AggregatorKind::TrimmedMean { trim: 1 }, Some(adv), 1);
    assert!(
        reference.0.contains("robust_aggregate"),
        "attack preset must engage the robust layer"
    );
    for threads in THREAD_COUNTS {
        let got = run(AggregatorKind::TrimmedMean { trim: 1 }, Some(adv), threads);
        assert_eq!(
            reference, got,
            "attacked trace must not depend on thread count ({threads})"
        );
    }
}

#[test]
fn attacked_runs_differ_from_clean_runs() {
    let adv = AdversaryConfig::none().with_attackers(0.5, AttackKind::SignFlip);
    let clean = run(AggregatorKind::TrimmedMean { trim: 1 }, None, 2);
    let attacked = run(AggregatorKind::TrimmedMean { trim: 1 }, Some(adv), 2);
    assert_ne!(
        clean.0, attacked.0,
        "a live adversary must leave a visible telemetry footprint"
    );
    // But timing events must be untouched: attacks corrupt updates, not
    // clocks. Every round_end line of the clean trace must appear verbatim
    // in the attacked one.
    for line in clean
        .0
        .lines()
        .filter(|l| l.contains("\"ev\":\"round_end\""))
    {
        assert!(
            attacked.0.contains(line),
            "adversary perturbed round timing; missing line:\n{line}"
        );
    }
}
