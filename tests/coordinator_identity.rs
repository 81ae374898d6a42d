//! Differential tests for the cross-cohort coordinator: a default-topology
//! `HierEngine` whose server tier pools the deadline or keeps a merge
//! ledger, read through `HierEngine::coordinate`.
//!
//! Two contracts are pinned here. First, coordination is *opt-in*: with
//! the deadline policy off in barrier mode, the coordinator is a verbatim
//! pass-through — at every thread count its engine report and spliced
//! telemetry stream are byte-identical to driving the default-topology
//! `HierEngine` directly on one thread. Second, coordination is *deterministic*: global-deadline
//! and buffered-async runs produce identical reports and traces whether
//! the cohorts execute on 1, 2, 4 or 8 threads, and the async merge
//! ledger obeys the staleness-discount arithmetic exactly.

use std::sync::Arc;

use fedsched::core::Schedule;
use fedsched::device::{Device, DeviceModel, TrainingWorkload};
use fedsched::faults::FaultConfig;
use fedsched::fl::{staleness_weight, DeadlinePolicy, EngineReport, RoundConfig, SimBuilder};
use fedsched::net::{Link, RetryPolicy};
use fedsched::telemetry::{EventLog, Probe};

const SEED: u64 = 7313;
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
        .with_crash_prob(0.2)
        .with_loss_prob(0.1)
        .with_churn_prob(0.05)
}

#[test]
fn off_coordinator_is_byte_identical_to_engine_at_every_thread_count() {
    let n = 24;
    let rounds = 3;
    let schedule = uniform(n, 5);
    let (want_report, want_jsonl) = {
        let log = Arc::new(EventLog::new());
        let mut eng = SimBuilder::new(population(n, SEED), round_config(SEED))
            .cohort_size(6)
            .threads(1)
            .faults(chaos_plan(), rounds)
            .retry(RetryPolicy::default_chaos())
            .probe(Probe::attached(log.clone()))
            .build_hier()
            .expect("engine config is valid");
        let report = EngineReport::from(eng.run(&schedule, rounds));
        (format!("{report:?}"), log.to_jsonl())
    };
    assert!(!want_jsonl.is_empty());

    for threads in THREAD_COUNTS {
        let (got_report, got_jsonl) = {
            let log = Arc::new(EventLog::new());
            let mut coord = SimBuilder::new(population(n, SEED), round_config(SEED))
                .cohort_size(6)
                .threads(threads)
                .faults(chaos_plan(), rounds)
                .retry(RetryPolicy::default_chaos())
                .probe(Probe::attached(log.clone()))
                .build_coordinator()
                .expect("coordinator config is valid");
            let report = coord.coordinate(&schedule, rounds);
            (format!("{:?}", report.engine), log.to_jsonl())
        };

        assert_eq!(
            got_report, want_report,
            "threads {threads}: report diverged"
        );
        assert_eq!(
            got_jsonl, want_jsonl,
            "threads {threads}: trace bytes diverged"
        );
    }
}

/// One global-deadline coordinator run at `threads`, Debug report + trace.
fn deadline_run(n: usize, rounds: usize, threads: usize) -> (String, String) {
    let schedule = uniform(n, 5);
    let log = Arc::new(EventLog::new());
    let mut coord = SimBuilder::new(population(n, SEED), round_config(SEED))
        .cohort_size(6)
        .threads(threads)
        .deadline(DeadlinePolicy::MeanFactor(1.1))
        .probe(Probe::attached(log.clone()))
        .build_coordinator()
        .expect("coordinator config is valid");
    let report = coord.coordinate(&schedule, rounds);
    (format!("{report:?}"), log.to_jsonl())
}

#[test]
fn global_deadline_run_is_thread_invariant_down_to_trace_bytes() {
    let n = 24;
    let rounds = 3;
    let (want_report, want_jsonl) = deadline_run(n, rounds, 1);
    assert!(want_jsonl.contains("global_deadline_set"));

    for threads in &THREAD_COUNTS[1..] {
        let (report, jsonl) = deadline_run(n, rounds, *threads);
        assert_eq!(report, want_report, "threads {threads}: report diverged");
        assert_eq!(jsonl, want_jsonl, "threads {threads}: trace bytes diverged");
    }
}

/// One buffered-async coordinator run at `threads`, Debug report + trace.
fn async_run(n: usize, rounds: usize, threads: usize) -> (String, String) {
    let schedule = uniform(n, 5);
    let log = Arc::new(EventLog::new());
    let mut coord = SimBuilder::new(population(n, SEED), round_config(SEED))
        .cohort_size(6)
        .threads(threads)
        .buffered_async(3, 0.5)
        .probe(Probe::attached(log.clone()))
        .build_coordinator()
        .expect("coordinator config is valid");
    let report = coord.coordinate(&schedule, rounds);
    (format!("{report:?}"), log.to_jsonl())
}

#[test]
fn buffered_async_run_is_thread_invariant_down_to_trace_bytes() {
    let n = 24;
    let rounds = 4;
    let (want_report, want_jsonl) = async_run(n, rounds, 1);
    assert!(want_jsonl.contains("async_merge"));

    for threads in &THREAD_COUNTS[1..] {
        let (report, jsonl) = async_run(n, rounds, *threads);
        assert_eq!(report, want_report, "threads {threads}: report diverged");
        assert_eq!(jsonl, want_jsonl, "threads {threads}: trace bytes diverged");
    }
}

/// `run` and `coordinate` are two views of one advance: for equal builds
/// of the plain, pooled-deadline and buffered-async coordinators, the
/// `HierReport` view reduces to the coordinator view's engine report, and
/// both calls emit the same trace.
#[test]
fn run_and_coordinate_are_views_of_the_same_rounds() {
    let n = 24;
    let rounds = 3;
    let schedule = uniform(n, 5);
    type Configure = fn(SimBuilder) -> SimBuilder;
    let configs: [(&str, Configure); 3] = [
        ("plain", |b| b),
        ("pooled deadline", |b| {
            b.deadline(DeadlinePolicy::MeanFactor(1.1))
        }),
        ("buffered async", |b| b.buffered_async(3, 0.5)),
    ];
    for (name, configure) in configs {
        let build = |log: &Arc<EventLog>| {
            configure(
                SimBuilder::new(population(n, SEED), round_config(SEED))
                    .cohort_size(6)
                    .faults(chaos_plan(), rounds)
                    .retry(RetryPolicy::default_chaos())
                    .probe(Probe::attached(log.clone())),
            )
            .build_coordinator()
            .expect("coordinator config is valid")
        };
        let (run_log, coordinate_log) = (Arc::new(EventLog::new()), Arc::new(EventLog::new()));
        let ran = EngineReport::from(build(&run_log).run(&schedule, rounds));
        let coordinated = build(&coordinate_log).coordinate(&schedule, rounds);
        assert_eq!(ran, coordinated.engine, "{name}: report views diverged");
        let trace = run_log.to_jsonl();
        assert!(!trace.is_empty(), "{name}: empty trace");
        assert_eq!(trace, coordinate_log.to_jsonl(), "{name}: traces diverged");
    }
}

#[test]
fn async_merge_ledger_obeys_staleness_discount_arithmetic() {
    let n = 24; // 4 cohorts of 6
    let rounds = 3;
    let eta = 0.5;
    let buffer = 3;
    let schedule = uniform(n, 5);
    let mut coord = SimBuilder::new(population(n, SEED), round_config(SEED))
        .cohort_size(6)
        .buffered_async(buffer, eta)
        .build_coordinator()
        .expect("coordinator config is valid");
    let report = coord.coordinate(&schedule, rounds);

    // Every cohort/round update lands in some flush: 4 cohorts x 3 rounds
    // of updates, merged `buffer` at a time.
    assert_eq!(report.merges.len(), 4 * rounds);
    assert_eq!(coord.server_version(), 4 * rounds / buffer);

    let mut last_t = f64::NEG_INFINITY;
    for merge in &report.merges {
        assert!(merge.t_s >= last_t, "merges must flush in time order");
        last_t = merge.t_s;
        assert_eq!(
            merge.weight,
            staleness_weight(eta, merge.staleness),
            "weight must equal eta / (1 + staleness)"
        );
        assert!(merge.cohort < 4);
        assert!(merge.round < rounds);
    }
}
