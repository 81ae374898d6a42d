//! Differential bit-identity tests for the event-driven round core across
//! its hosts.
//!
//! `EventRoundSim` is the only round engine; its byte-for-byte agreement
//! with a lockstep device sweep is pinned by the lockstep-oracle proptest
//! inside `fedsched-fl`. This suite pins the hosting contract on top:
//! the sequential sim and a single-cohort population engine produce
//! identical reports and telemetry, and every engine, coordinator and
//! churned run is
//! invariant to the worker-thread count — for every Table I testbed
//! preset, under chaos fault plans, under adversary attack, and at 1, 2, 4
//! and 8 worker threads. CI re-runs this suite with `FEDSCHED_THREADS`
//! forced to 4 and 8 so the default pool is exercised at several widths
//! too.

use std::sync::Arc;

use proptest::prelude::*;

use fedsched::core::Schedule;
use fedsched::device::{Device, DeviceModel, Testbed, TrainingWorkload};
use fedsched::faults::{AdversaryConfig, AttackKind, FaultConfig};
use fedsched::fl::{
    AdmissionPolicy, AggregatorKind, ChaosReport, ChurnConfig, DeadlinePolicy, RoundConfig,
    SimBuilder,
};
use fedsched::net::{Link, RetryPolicy};
use fedsched::telemetry::{EventLog, Probe};

const SEED: u64 = 2020;
const MODEL_BYTES: f64 = 2.5e6;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn round_config(seed: u64) -> RoundConfig {
    RoundConfig::new(
        TrainingWorkload::lenet(),
        Link::wifi_campus(),
        MODEL_BYTES,
        seed,
    )
}

/// A mixed-model population of `n` devices (cycling Table I presets).
fn population(n: usize, seed: u64) -> Vec<Device> {
    let models = DeviceModel::all();
    (0..n)
        .map(|i| {
            Device::from_model(
                models[i % models.len()],
                seed.wrapping_add(i as u64 * 0x9E37_79B9),
            )
        })
        .collect()
}

fn uniform(n: usize, shards: usize) -> Schedule {
    Schedule::new(vec![shards; n], 100.0)
}

fn chaos_plan() -> FaultConfig {
    FaultConfig::none()
        .with_crash_prob(0.25)
        .with_loss_prob(0.15)
        .with_churn_prob(0.05)
}

/// Run the engine with `customize`d knobs and return
/// `(debug-formatted report, trace bytes)`.
fn engine_run(
    devices: Vec<Device>,
    schedule: &Schedule,
    rounds: usize,
    customize: impl FnOnce(SimBuilder) -> SimBuilder,
) -> (String, String) {
    let log = Arc::new(EventLog::new());
    let mut eng = customize(SimBuilder::new(devices, round_config(SEED)))
        .probe(Probe::attached(log.clone()))
        .build_hier()
        .expect("engine config is valid");
    let report = eng.run(schedule, rounds);
    (format!("{report:?}"), log.to_jsonl())
}

/// Run the sequential sim with `customize`d knobs and return
/// `(debug-formatted report, trace bytes)`.
fn sequential_run(
    devices: Vec<Device>,
    schedule: &Schedule,
    rounds: usize,
    customize: impl FnOnce(SimBuilder) -> SimBuilder,
) -> (String, String) {
    let log = Arc::new(EventLog::new());
    let mut sim = customize(SimBuilder::new(devices, round_config(SEED)))
        .probe(Probe::attached(log.clone()))
        .build_event_sim()
        .expect("sequential config is valid");
    (format!("{:?}", sim.run(schedule, rounds)), log.to_jsonl())
}

/// A single-cohort engine run `(report, trace)` recast as the sequential
/// sim's `ChaosReport`, so the two can be compared byte for byte.
fn single_cohort_run(
    devices: Vec<Device>,
    schedule: &Schedule,
    rounds: usize,
    customize: impl FnOnce(SimBuilder) -> SimBuilder,
) -> (String, String) {
    let n = devices.len();
    let log = Arc::new(EventLog::new());
    let mut eng = customize(SimBuilder::new(devices, round_config(SEED)))
        .cohort_size(n)
        .probe(Probe::attached(log.clone()))
        .build_hier()
        .expect("engine config is valid");
    let report = eng.run(schedule, rounds);
    let as_sequential = ChaosReport {
        timing: report.timing,
        rounds: report.rounds,
    };
    (format!("{as_sequential:?}"), log.to_jsonl())
}

#[test]
fn every_testbed_preset_event_engine_matches_sequential_roundsim() {
    for preset in 1..=3usize {
        let tb = Testbed::by_index(preset, SEED);
        let n = tb.devices().len();
        let schedule = uniform(n, 10);

        // Sequential quiet reference: a sim with no fault knob.
        let (want_timing, want_jsonl) = {
            let log = Arc::new(EventLog::new());
            let mut sim = SimBuilder::new(tb.devices().to_vec(), round_config(SEED))
                .probe(Probe::attached(log.clone()))
                .build_event_sim()
                .expect("quiet sim config is valid");
            let report = sim.run(&schedule, 3);
            (format!("{:?}", report.timing), log.to_jsonl())
        };
        assert!(!want_jsonl.is_empty());

        for threads in THREAD_COUNTS {
            let log = Arc::new(EventLog::new());
            let mut eng = SimBuilder::new(tb.devices().to_vec(), round_config(SEED))
                .cohort_size(n)
                .threads(threads)
                .probe(Probe::attached(log.clone()))
                .build_hier()
                .expect("quiet engine config is valid");
            let report = eng.run(&schedule, 3);
            assert_eq!(
                format!("{:?}", report.timing),
                want_timing,
                "testbed {preset}, threads {threads}: timing diverged"
            );
            assert_eq!(
                log.to_jsonl(),
                want_jsonl,
                "testbed {preset}, threads {threads}: trace bytes diverged"
            );
        }
    }
}

/// A chaos plan on one cohort: the engine at every thread count replays
/// the sequential sim byte for byte.
#[test]
fn chaos_plan_event_engine_is_bit_identical_at_every_thread_count() {
    let n = 8;
    let rounds = 4;
    let schedule = uniform(n, 3);
    let knobs = |b: SimBuilder| {
        b.faults(chaos_plan(), rounds)
            .retry(RetryPolicy::default_chaos())
            .deadline(DeadlinePolicy::MeanFactor(2.0))
    };

    let want = sequential_run(population(n, SEED), &schedule, rounds, knobs);
    // The plan must actually contain faults, or this test proves nothing.
    assert!(
        want.1.contains("fault_injected") || want.1.contains("transfer_retry"),
        "chaos config produced a quiet trace"
    );

    for threads in THREAD_COUNTS {
        let got = single_cohort_run(population(n, SEED), &schedule, rounds, |b| {
            knobs(b).threads(threads)
        });
        assert_eq!(got.0, want.0, "threads {threads}: chaos report diverged");
        assert_eq!(got.1, want.1, "threads {threads}: chaos trace diverged");
    }
}

/// Every knob the engine shares with the sequential sim, engaged at once:
/// the single-cohort engine must replay the sequential run byte for byte.
#[test]
fn sequential_event_sim_matches_resilient_with_every_knob_engaged() {
    let n = 10;
    let rounds = 5;
    let schedule = uniform(n, 3);
    let knobs = |b: SimBuilder| {
        b.faults(chaos_plan(), rounds)
            .retry(RetryPolicy::default_chaos())
            .deadline(DeadlinePolicy::MeanFactor(1.5))
            .rescue_soc_floor(0.1)
            .aggregator(AggregatorKind::TrimmedMean { trim: 1 })
            .adversary(
                AdversaryConfig::none().with_attackers(0.3, AttackKind::SignFlip),
                rounds,
            )
    };

    let (want, want_jsonl) = sequential_run(population(n, SEED), &schedule, rounds, knobs);
    assert!(want_jsonl.contains("robust_aggregate"));
    for threads in [1, 4] {
        let (got, got_jsonl) = single_cohort_run(population(n, SEED), &schedule, rounds, |b| {
            knobs(b).threads(threads)
        });
        assert_eq!(got, want, "threads {threads}: full-knob report diverged");
        assert_eq!(
            got_jsonl, want_jsonl,
            "threads {threads}: full-knob trace diverged"
        );
    }
}

#[test]
fn attacked_event_engine_is_bit_identical_at_every_thread_count() {
    let n = 8;
    let rounds = 3;
    let schedule = uniform(n, 3);
    let knobs = |b: SimBuilder| {
        b.cohort_size(4)
            .faults(
                FaultConfig::none().with_crash_prob(0.2).with_loss_prob(0.1),
                rounds,
            )
            .aggregator(AggregatorKind::TrimmedMean { trim: 1 })
            .adversary(
                AdversaryConfig::none().with_attackers(0.5, AttackKind::SignFlip),
                rounds,
            )
    };

    let want = engine_run(population(n, SEED), &schedule, rounds, |b| {
        knobs(b).threads(1)
    });
    assert!(
        want.1.contains("robust_aggregate"),
        "attack preset must engage the robust layer"
    );

    for threads in THREAD_COUNTS {
        let got = engine_run(population(n, SEED), &schedule, rounds, |b| {
            knobs(b).threads(threads)
        });
        assert_eq!(got.0, want.0, "threads {threads}: attacked report diverged");
        assert_eq!(got.1, want.1, "threads {threads}: attacked trace diverged");
    }
}

/// A configured-but-quiet churn process (both rates zero) must be
/// strictly inert: the engine with the churn and admission knobs engaged
/// replays the churn-free engine byte-for-byte at every thread count — no
/// extra RNG draws, no arrival scan, no trace bytes.
#[test]
fn zero_rate_churn_event_engine_is_bit_identical_at_every_thread_count() {
    let n = 8;
    let rounds = 4;
    let schedule = uniform(n, 3);
    let knobs = |b: SimBuilder| {
        b.cohort_size(4)
            .faults(chaos_plan(), rounds)
            .retry(RetryPolicy::default_chaos())
            .deadline(DeadlinePolicy::MeanFactor(2.0))
    };

    let want = engine_run(population(n, SEED), &schedule, rounds, |b| {
        knobs(b).threads(1)
    });

    for threads in THREAD_COUNTS {
        let got = engine_run(population(n, SEED), &schedule, rounds, |b| {
            knobs(b)
                .threads(threads)
                .churn(ChurnConfig::symmetric(0.0, 60.0))
                .admission(AdmissionPolicy::MidRoundFill)
        });
        assert_eq!(
            got.0, want.0,
            "threads {threads}: quiet-churn report diverged"
        );
        assert_eq!(
            got.1, want.1,
            "threads {threads}: quiet-churn trace left bytes"
        );
    }
}

/// The coordinator resolves one global deadline against pooled
/// predictions and pushes it into every cohort before the round runs —
/// the cohorts must accept it through the `set_deadline` seam and replay
/// the round byte-identically at every thread count.
#[test]
fn coordinator_hosts_event_cohorts_unchanged() {
    let n = 24;
    let rounds = 3;
    let schedule = uniform(n, 5);
    let run = |threads: usize| {
        let log = Arc::new(EventLog::new());
        let mut coord = SimBuilder::new(population(n, SEED), round_config(SEED))
            .cohort_size(6)
            .threads(threads)
            .faults(chaos_plan(), rounds)
            .retry(RetryPolicy::default_chaos())
            .deadline(DeadlinePolicy::MeanFactor(1.5))
            .probe(Probe::attached(log.clone()))
            .build_coordinator()
            .expect("coordinator config is valid");
        let report = coord.coordinate(&schedule, rounds);
        (format!("{report:?}"), log.to_jsonl())
    };

    let want = run(1);
    assert!(want.1.contains("global_deadline_set"));
    for threads in THREAD_COUNTS {
        let got = run(threads);
        assert_eq!(
            got.0, want.0,
            "threads {threads}: coordinator report diverged"
        );
        assert_eq!(
            got.1, want.1,
            "threads {threads}: coordinator trace diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random churn-process geometry: for every interleaving of mid-round
    /// arrivals and departures, (a) per-round double-entry accounting
    /// balances — `completed + admit_done + lost + rescued + carried ==
    /// scheduled + admitted` — with coverage capped at 1, and (b) the
    /// churned report and trace are thread-invariant.
    #[test]
    fn churned_event_engine_conserves_shards_and_is_thread_invariant(
        n in 2usize..24,
        cohort_size in 1usize..8,
        seed in 0u64..200,
        depart_pct in 0u32..12,
        arrive_pct in 0u32..12,
    ) {
        let rounds = 2;
        let schedule = uniform(n, 3);
        let churn = ChurnConfig {
            depart_rate: f64::from(depart_pct) / 100.0,
            arrive_rate: f64::from(arrive_pct) / 100.0,
            horizon_s: 60.0,
        };
        let run = |threads: usize| {
            let log = Arc::new(EventLog::new());
            let mut eng = SimBuilder::new(population(n, seed), round_config(seed))
                .cohort_size(cohort_size)
                .threads(threads)
                .faults(
                    FaultConfig::none().with_crash_prob(0.15).with_loss_prob(0.1),
                    rounds,
                )
                .retry(RetryPolicy::default_chaos())
                .churn(churn)
                .admission(AdmissionPolicy::MidRoundFill)
                .probe(Probe::attached(log.clone()))
                .build_hier()
                .expect("churned geometry config is valid");
            let report = eng.run(&schedule, rounds);
            (report, log.to_jsonl())
        };

        let (want, want_jsonl) = run(1);
        for r in &want.rounds {
            prop_assert_eq!(
                r.completed + r.admit_done + r.lost_shards + r.rescued + r.carried,
                r.scheduled + r.admitted
            );
            prop_assert!(r.coverage <= 1.0, "round {} coverage {}", r.round, r.coverage);
            prop_assert_eq!(r.carried, r.admitted - r.admit_done);
        }
        for threads in [2usize, 4, 8] {
            let (got, got_jsonl) = run(threads);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(&got_jsonl, &want_jsonl);
        }
    }
}
