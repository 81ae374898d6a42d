//! Differential tests for the unified [`SimBuilder`] surface.
//!
//! The positional constructors are gone; the builder's identity contract
//! is now pinned against its *wire twin*: for every Table I testbed
//! preset, a simulator built in-process from an ad-hoc fleet and the
//! builder's setters must produce reports and telemetry streams
//! byte-identical to one built from the equivalent [`JobSpec`], both
//! directly and after a round-trip through canonical JSON. The error half
//! of the contract is pinned too: invalid knobs surface as typed
//! [`ConfigError`](fedsched::fl::ConfigError)s with stable `cause_code`s
//! at the facade level, never as silently-dropped options.

use std::sync::Arc;

use fedsched::core::Schedule;
use fedsched::device::{Testbed, TrainingWorkload};
use fedsched::faults::{FaultConfig, FaultInjector};
use fedsched::fl::{BuildTarget, DeadlinePolicy, DeviceSetSpec, JobSpec, RoundConfig, SimBuilder};
use fedsched::net::{Link, RetryPolicy};
use fedsched::telemetry::{EventLog, Probe};

const SEED: u64 = 4047;
const MODEL_BYTES: f64 = 2.5e6;
const ROUNDS: usize = 3;

fn round_config(seed: u64) -> RoundConfig {
    RoundConfig::new(
        TrainingWorkload::lenet(),
        Link::wifi_campus(),
        MODEL_BYTES,
        seed,
    )
}

fn base_spec(target: BuildTarget, preset: usize) -> JobSpec {
    JobSpec::new(
        target,
        DeviceSetSpec::Testbed { preset, seed: SEED },
        TrainingWorkload::lenet(),
        Link::wifi_campus(),
        MODEL_BYTES,
        SEED,
    )
}

fn uniform(n: usize, shards: usize) -> Schedule {
    Schedule::new(vec![shards; n], 100.0)
}

fn preset_size(preset: usize) -> usize {
    [3, 6, 10][preset - 1]
}

/// One leg's per-round report renderings and its JSONL trace.
type Leg = (Vec<String>, String);

/// Run one configuration three ways, one global round at a time: through
/// `JobSpec::build` on `spec`, through `JobSpec::build` on `spec` after a
/// canonical-JSON round-trip, and in-process from the ad-hoc testbed
/// `preset` fleet that `spec` describes, with `configure` applying the
/// spec's knobs through the builder's setters. Each leg returns every
/// round's `format!("{report:?}")` and its JSONL trace.
fn run_three_ways(
    spec: &JobSpec,
    preset: usize,
    configure: impl Fn(SimBuilder) -> SimBuilder,
    schedule: &Schedule,
) -> [Leg; 3] {
    let from_spec = |spec: &JobSpec| {
        let log = Arc::new(EventLog::new());
        let mut sim = spec
            .build(Probe::attached(log.clone()))
            .expect("spec is valid");
        let rounds = (0..ROUNDS).map(|_| sim.step(schedule).detail).collect();
        (rounds, log.to_jsonl())
    };
    let direct = from_spec(spec);
    let rewired =
        from_spec(&JobSpec::parse(&spec.canonical_json()).expect("canonical JSON decodes"));

    let log = Arc::new(EventLog::new());
    let devices = Testbed::by_index(preset, SEED).into_devices();
    let builder =
        configure(SimBuilder::new(devices, round_config(SEED))).probe(Probe::attached(log.clone()));
    let rounds: Vec<String> = match spec.target {
        BuildTarget::EventSim => {
            let mut sim = builder.build_event_sim().expect("config is valid");
            (0..ROUNDS)
                .map(|_| format!("{:?}", sim.run(schedule, 1)))
                .collect()
        }
        BuildTarget::Coordinator => {
            let mut sim = builder.build_coordinator().expect("config is valid");
            (0..ROUNDS)
                .map(|_| format!("{:?}", sim.coordinate(schedule, 1)))
                .collect()
        }
        BuildTarget::Hier => {
            let mut sim = builder.build_hier().expect("config is valid");
            (0..ROUNDS)
                .map(|_| format!("{:?}", sim.run(schedule, 1)))
                .collect()
        }
    };
    [direct, rewired, (rounds, log.to_jsonl())]
}

/// Assert the three legs of [`run_three_ways`] agree byte for byte.
fn assert_legs_agree(legs: [Leg; 3], preset: usize) {
    let [direct, rewired, in_process] = legs;
    assert!(!direct.1.is_empty());
    assert_eq!(direct, rewired, "preset {preset}: wire round-trip diverged");
    assert_eq!(
        direct, in_process,
        "preset {preset}: in-process builder diverged from the spec"
    );
}

#[test]
fn builder_sim_is_bit_identical_to_wire_spec_for_every_preset() {
    for preset in 1..=3usize {
        // Quiet sequential sim: no fault, retry or deadline knob.
        let spec = base_spec(BuildTarget::EventSim, preset);
        let schedule = uniform(preset_size(preset), 8);
        let legs = run_three_ways(&spec, preset, |b| b, &schedule);
        assert_legs_agree(legs, preset);
    }
}

#[test]
fn builder_resilient_is_bit_identical_to_wire_spec_for_every_preset() {
    let faults = FaultConfig::none()
        .with_crash_prob(0.3)
        .with_loss_prob(0.2)
        .with_churn_prob(0.1);

    for preset in 1..=3usize {
        // The same sequential target with the fault-tolerance knobs on.
        let mut spec = base_spec(BuildTarget::EventSim, preset);
        spec.faults = Some((faults.clone(), ROUNDS));
        spec.retry = Some(RetryPolicy::default_chaos());
        spec.deadline = Some(DeadlinePolicy::Fixed(60.0));
        let schedule = uniform(preset_size(preset), 4);
        let configure = |b: SimBuilder| {
            b.faults(faults.clone(), ROUNDS)
                .retry(RetryPolicy::default_chaos())
                .deadline(DeadlinePolicy::Fixed(60.0))
        };
        let legs = run_three_ways(&spec, preset, configure, &schedule);
        assert_legs_agree(legs, preset);
    }
}

#[test]
fn builder_engine_is_bit_identical_to_wire_spec_for_every_preset() {
    for preset in 1..=3usize {
        let mut spec = base_spec(BuildTarget::Hier, preset);
        spec.cohort_size = Some(3);
        spec.threads = Some(4);
        let schedule = uniform(preset_size(preset), 6);
        let legs = run_three_ways(&spec, preset, |b| b.cohort_size(3).threads(4), &schedule);
        assert_legs_agree(legs, preset);
    }
}

#[test]
fn stepped_spec_sim_matches_builder_batch_run() {
    // One global round per step must replay the exact per-round makespans
    // of a batched in-process run — the invariant the serve crate's
    // restore-by-replay leans on.
    for preset in 1..=3usize {
        let mut spec = base_spec(BuildTarget::Hier, preset);
        spec.cohort_size = Some(3);
        spec.threads = Some(2);
        let schedule = uniform(preset_size(preset), 6);

        let mut stepped = spec.build(Probe::disabled()).expect("spec is valid");
        let makespans: Vec<f64> = (0..ROUNDS)
            .map(|_| stepped.step(&schedule).makespan_s)
            .collect();

        let mut batch = SimBuilder::from_spec(&spec)
            .build_hier()
            .expect("engine config is valid");
        let report = batch.run(&schedule, ROUNDS);
        assert_eq!(
            report.timing.per_round_makespan, makespans,
            "preset {preset}: stepped makespans diverged from batch run"
        );
    }
}

#[test]
fn facade_level_config_errors_carry_stable_cause_codes() {
    let spec = base_spec(BuildTarget::EventSim, 1);
    let builder = || SimBuilder::from_spec(&spec);
    let n = preset_size(1);

    let cases: Vec<(&str, fedsched::fl::ConfigError)> = vec![
        (
            "zero_cohort_size",
            builder().cohort_size(0).build_hier().err().unwrap(),
        ),
        (
            "zero_threads",
            builder().threads(0).build_hier().err().unwrap(),
        ),
        (
            "invalid_deadline",
            builder()
                .deadline(DeadlinePolicy::Fixed(-1.0))
                .build_event_sim()
                .err()
                .unwrap(),
        ),
        (
            "invalid_soc_floor",
            builder()
                .rescue_soc_floor(1.5)
                .build_event_sim()
                .err()
                .unwrap(),
        ),
        (
            "invalid_async",
            builder()
                .buffered_async(0, 0.5)
                .build_coordinator()
                .err()
                .unwrap(),
        ),
        (
            "invalid_async",
            builder()
                .buffered_async(2, 0.5)
                .deadline(DeadlinePolicy::Quantile(0.9))
                .build_coordinator()
                .err()
                .unwrap(),
        ),
        (
            "unsupported_option",
            builder().threads(2).build_event_sim().err().unwrap(),
        ),
        (
            "unsupported_option",
            builder()
                .injector(FaultInjector::quiet(n))
                .build_hier()
                .err()
                .unwrap(),
        ),
        (
            "not_serializable",
            builder()
                .injector(FaultInjector::quiet(n))
                .to_spec(BuildTarget::EventSim)
                .err()
                .unwrap(),
        ),
        (
            "not_serializable",
            SimBuilder::new(
                Testbed::testbed_1(SEED).devices().to_vec(),
                round_config(SEED),
            )
            .to_spec(BuildTarget::EventSim)
            .err()
            .unwrap(),
        ),
        (
            "invalid_spec",
            JobSpec::parse("{\"version\":1}").err().unwrap(),
        ),
    ];
    for (want, err) in cases {
        assert_eq!(err.cause_code(), want, "wrong cause for {err}");
        assert!(!format!("{err}").is_empty());
    }
}
