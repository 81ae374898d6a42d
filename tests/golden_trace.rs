//! Golden-trace snapshot over the four Table I device presets.
//!
//! A fixed-seed scenario — Fed-LBAP scheduling followed by a three-round
//! replay on a Nexus 6 / Nexus 6P / Mate 10 / Pixel 2 cohort — must produce
//! a telemetry JSONL stream that is (a) byte-identical across invocations
//! and (b) byte-identical to the checked-in snapshot. Any change to event
//! serialization, the device models, or the schedulers that shifts the
//! trace shows up here as a readable diff.
//!
//! To regenerate the snapshot after an *intentional* behaviour change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_trace
//! ```
//!
//! then commit the updated snapshots under `tests/golden/` together with
//! the change that caused it.

use std::path::PathBuf;
use std::sync::Arc;

use fedsched::core::json::fnv1a64;
use fedsched::core::{CostMatrix, FedLbap, Schedule, Scheduler};
use fedsched::device::{Device, DeviceModel, Testbed, TrainingWorkload};
use fedsched::faults::FaultConfig;
use fedsched::fl::{DeadlinePolicy, RoundConfig, SimBuilder};
use fedsched::net::{Link, RetryPolicy};
use fedsched::telemetry::{EventLog, Probe};

const SEED: u64 = 2020;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/table1_presets.jsonl")
}

fn chaos_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/chaos_multicohort.jsonl")
}

fn attack_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/attacked_multicohort.jsonl")
}

fn event_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/event_multicohort.jsonl")
}

fn churn_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/churn_multicohort.jsonl")
}

fn hier_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/hier_multicohort.jsonl")
}

/// Which build target hosts the round core for a golden scenario. Every
/// host must produce the same bytes: `Sequential` is one sim, `Hier` the
/// population engine in its default (trivial) topology — one edge per
/// cohort, cohort 0 continuing the master stream — and `Coordinator` that
/// engine built for the `coordinator` target with its server policy off,
/// read through `HierEngine::coordinate`.
#[derive(Clone, Copy)]
enum Host {
    Sequential,
    Coordinator,
    Hier,
}

/// Run the fixed scenario and return its telemetry stream as JSONL.
fn trace_with(host: Host) -> String {
    let log = Arc::new(EventLog::new());
    let probe = Probe::attached(log.clone());

    let testbed = Testbed::new(
        &[
            DeviceModel::Nexus6,
            DeviceModel::Nexus6P,
            DeviceModel::Mate10,
            DeviceModel::Pixel2,
        ],
        SEED,
    );
    // VGG6 at 6000 samples is heavy enough to drive the cohort through its
    // thermal transitions (Nexus 6P big-cluster shutdown, Nexus 6 trips).
    let wl = TrainingWorkload::vgg6();
    let profiles = testbed.profiles_for(&wl);
    let costs = CostMatrix::from_profiles(&profiles, 60, 100.0, &[0.5; 4]);
    let schedule = FedLbap.schedule_traced(&costs, &probe).expect("feasible");

    let builder = SimBuilder::new(
        testbed.devices().to_vec(),
        RoundConfig::new(wl, Link::new(100.0, 100.0, 0.0, 0.0), 2.5e6, SEED),
    )
    .probe(probe);
    run_on(host, builder, &schedule);
    log.to_jsonl()
}

/// Build `builder` for `host` and run three rounds of `schedule`.
fn run_on(host: Host, builder: SimBuilder, schedule: &Schedule) {
    match host {
        Host::Sequential => {
            let mut sim = builder.build_event_sim().expect("golden config is valid");
            let _ = sim.run(schedule, 3);
        }
        Host::Coordinator => {
            let mut sim = builder.build_coordinator().expect("golden config is valid");
            let _ = sim.coordinate(schedule, 3);
        }
        Host::Hier => {
            let mut sim = builder.build_hier().expect("golden config is valid");
            let _ = sim.run(schedule, 3);
        }
    }
}

fn trace() -> String {
    trace_with(Host::Sequential)
}

/// The eight-device fleet every multi-cohort scenario runs on.
fn fleet() -> Vec<Device> {
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

/// Three shards on each of the eight devices.
fn fleet_schedule() -> Schedule {
    Schedule::new(vec![3; 8], 100.0)
}

/// LeNet over an ideal link, on [`fleet`].
fn fleet_builder() -> SimBuilder {
    SimBuilder::new(
        fleet(),
        RoundConfig::new(
            TrainingWorkload::lenet(),
            Link::new(100.0, 100.0, 0.0, 0.0),
            2.5e6,
            SEED,
        ),
    )
}

/// A multi-cohort scenario: its builder, without a probe.
type Scenario = fn() -> SimBuilder;

/// Run a multi-cohort scenario on `host` and return its JSONL trace.
fn scenario_trace(scenario: Scenario, host: Host) -> String {
    let log = Arc::new(EventLog::new());
    run_on(
        host,
        scenario().probe(Probe::attached(log.clone())),
        &fleet_schedule(),
    );
    log.to_jsonl()
}

/// Chaos preset: two cohorts under crashes, packet loss and retries. Pins
/// the resilient path's event vocabulary *and* the engine's cohort
/// splicing (user-index remapping, cohort-ordered merge) in golden form —
/// the engine guarantees these bytes are thread-invariant.
fn chaos_scenario() -> SimBuilder {
    fleet_builder()
        .cohort_size(4)
        .threads(4)
        .faults(
            FaultConfig::none()
                .with_crash_prob(0.25)
                .with_loss_prob(0.15),
            3,
        )
        .retry(RetryPolicy::default_chaos())
}

fn chaos_trace() -> String {
    scenario_trace(chaos_scenario, Host::Hier)
}

/// Byzantine preset: the same two cohorts under a sign-flip adversary with
/// trimmed-mean aggregation and correlated group outages. Pins the
/// robustness event vocabulary (`update_rejected`, `robust_aggregate`,
/// `group_outage`) and the per-cohort adversary-plan derivation in golden
/// form.
fn attack_scenario() -> SimBuilder {
    use fedsched::faults::{AdversaryConfig, AttackKind};
    use fedsched::fl::AggregatorKind;
    fleet_builder()
        .cohort_size(4)
        .threads(4)
        .faults(
            FaultConfig::none()
                .with_loss_prob(0.1)
                .with_group_outages(0.5, 2, 1),
            3,
        )
        .adversary(
            AdversaryConfig::none()
                .with_attackers(0.5, AttackKind::SignFlip)
                .with_collusion(1),
            3,
        )
        .aggregator(AggregatorKind::TrimmedMean { trim: 1 })
        .retry(RetryPolicy::default_chaos())
}

fn attack_trace() -> String {
    scenario_trace(attack_scenario, Host::Hier)
}

/// Event preset: two cohorts under crashes, churn, packet loss and a fixed
/// deadline tight enough to cut stragglers, so the mid-round rescue ledger
/// engages. Pins the full event vocabulary — deadline cuts,
/// `shards_reassigned`, retries — as produced by the round core, in golden
/// form.
fn event_scenario() -> SimBuilder {
    fleet_builder()
        .cohort_size(4)
        .threads(4)
        .faults(
            FaultConfig::none()
                .with_crash_prob(0.3)
                .with_loss_prob(0.15)
                .with_churn_prob(0.1),
            3,
        )
        .retry(RetryPolicy::default_chaos())
        .deadline(DeadlinePolicy::Fixed(55.0))
}

fn event_trace() -> String {
    scenario_trace(event_scenario, Host::Hier)
}

/// Churn preset: two cohorts under a continuous arrival/departure process
/// with mid-round admission. Pins the churn event vocabulary —
/// `device_depart`, `shards_orphaned`, `device_arrive`, `mid_round_admit`
/// — and the per-cohort churn-timeline derivation in golden form; the
/// engine guarantees these bytes are thread-invariant.
fn churn_scenario() -> SimBuilder {
    use fedsched::faults::ChurnConfig;
    use fedsched::fl::AdmissionPolicy;
    fleet_builder()
        .cohort_size(4)
        .threads(4)
        .faults(FaultConfig::none().with_loss_prob(0.1), 3)
        .churn(ChurnConfig::symmetric(0.25, 60.0))
        .admission(AdmissionPolicy::MidRoundFill)
        .retry(RetryPolicy::default_chaos())
}

fn churn_trace() -> String {
    scenario_trace(churn_scenario, Host::Hier)
}

/// Hierarchy preset: four quiet cohorts under a *non-trivial* two-tier
/// topology — two edge aggregators, a jittered backhaul link, trimmed-mean
/// at the edge tier and median at the server tier. Pins the hierarchy
/// event vocabulary (`edge_reduce`, tier-level `robust_aggregate`) and the
/// edge-seed derivation in golden form; the engine guarantees these bytes
/// are thread-invariant.
fn hier_scenario() -> SimBuilder {
    use fedsched::fl::AggregatorKind;
    fleet_builder()
        .cohort_size(2)
        .threads(4)
        .edges(2)
        .edge_link(Link::edge_backhaul())
        .edge_aggregator(AggregatorKind::TrimmedMean { trim: 1 })
        .server_aggregator(AggregatorKind::Median)
}

fn hier_trace() -> String {
    scenario_trace(hier_scenario, Host::Hier)
}

/// FNV-1a 64 of the `Debug` text of each multi-cohort scenario's
/// three-round report, built with `build_hier()` and with
/// `build_coordinator()`. The traces above pin the JSONL; these pin the
/// report bytes `BuiltSim::step` serves in `RoundDigest::detail`.
const REPORT_FINGERPRINTS: [(&str, Scenario, u64, u64); 4] = [
    (
        "chaos",
        chaos_scenario,
        0xc4fa_7c53_bc92_0821,
        0xe0e2_e26a_ece1_6865,
    ),
    (
        "attacked",
        attack_scenario,
        0x8afd_4f85_8a2e_1065,
        0x3ac1_2d37_b099_a558,
    ),
    (
        "event",
        event_scenario,
        0xe37a_131c_1843_753f,
        0x605c_38d9_4409_1107,
    ),
    (
        "churn",
        churn_scenario,
        0x19db_e9cf_80f3_c7bd,
        0xc539_6c44_eb50_35a3,
    ),
];

#[test]
fn multicohort_reports_match_pinned_fingerprints() {
    let fingerprint = |report: &dyn std::fmt::Debug| fnv1a64(format!("{report:?}").as_bytes());
    let got: Vec<(&str, u64, u64)> = REPORT_FINGERPRINTS
        .iter()
        .map(|&(name, scenario, _, _)| {
            let mut hier = scenario().build_hier().expect("golden config is valid");
            let mut coordinator = scenario()
                .build_coordinator()
                .expect("golden config is valid");
            (
                name,
                fingerprint(&hier.run(&fleet_schedule(), 3)),
                fingerprint(&coordinator.coordinate(&fleet_schedule(), 3)),
            )
        })
        .collect();
    let want: Vec<(&str, u64, u64)> = REPORT_FINGERPRINTS
        .iter()
        .map(|&(name, _, hier, coordinator)| (name, hier, coordinator))
        .collect();
    assert_eq!(
        got, want,
        "(scenario, build_hier, build_coordinator) report fingerprints moved"
    );
}
/// Compare `got` against the snapshot at `path`, regenerating when
/// `UPDATE_GOLDEN` is set; on mismatch, report the first differing line.
fn assert_matches_golden(got: &str, path: &PathBuf) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, got).expect("write golden snapshot");
        return;
    }
    let want = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); generate it with UPDATE_GOLDEN=1 cargo test --test golden_trace",
            path.display()
        )
    });
    if got != want {
        let first_diff = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .map(|i| {
                format!(
                    "first differing line {}:\n  got:  {}\n  want: {}",
                    i + 1,
                    got.lines().nth(i).unwrap_or(""),
                    want.lines().nth(i).unwrap_or("")
                )
            })
            .unwrap_or_else(|| {
                format!(
                    "line counts differ: got {}, want {}",
                    got.lines().count(),
                    want.lines().count()
                )
            });
        panic!(
            "telemetry trace diverged from {}.\n{first_diff}\n\
             If the change is intentional, regenerate with UPDATE_GOLDEN=1 cargo test --test golden_trace",
            path.display()
        );
    }
}

#[test]
fn trace_is_byte_identical_across_invocations() {
    assert_eq!(trace(), trace(), "same seed must give the same bytes");
}

#[test]
fn trace_matches_golden_snapshot() {
    let got = trace();
    assert!(
        got.contains("\"ev\":\"schedule_decision\""),
        "missing decision:\n{got}"
    );
    assert!(
        got.contains("\"ev\":\"round_end\""),
        "missing round_end:\n{got}"
    );
    assert_matches_golden(&got, &golden_path());
}

#[test]
fn chaos_trace_is_byte_identical_across_invocations() {
    assert_eq!(
        chaos_trace(),
        chaos_trace(),
        "same seed must give the same bytes"
    );
}

#[test]
fn chaos_trace_matches_golden_snapshot() {
    let got = chaos_trace();
    assert!(
        got.contains("\"ev\":\"fault_injected\"") || got.contains("\"ev\":\"transfer_retry\""),
        "chaos preset produced a quiet trace:\n{got}"
    );
    assert!(
        got.contains("\"ev\":\"round_end\""),
        "missing round_end:\n{got}"
    );
    assert_matches_golden(&got, &chaos_golden_path());
}

#[test]
fn attack_trace_is_byte_identical_across_invocations() {
    assert_eq!(
        attack_trace(),
        attack_trace(),
        "same seed must give the same bytes"
    );
}

#[test]
fn attack_trace_matches_golden_snapshot() {
    let got = attack_trace();
    assert!(
        got.contains("\"ev\":\"robust_aggregate\""),
        "attack preset never scored a round:\n{got}"
    );
    assert!(
        got.contains("\"ev\":\"update_rejected\""),
        "attack preset rejected nothing:\n{got}"
    );
    assert!(
        got.contains("\"ev\":\"group_outage\""),
        "attack preset never downed a failure domain:\n{got}"
    );
    assert_matches_golden(&got, &attack_golden_path());
}

/// Every golden scenario must replay byte-identically on every other host
/// of the round core: the sequential scenario through a single-cohort
/// coordinator, the multi-cohort ones through an Off-policy coordinator.
/// One side of each pair is pinned to its checked-in snapshot by the tests
/// above, so equality here extends the golden guarantee without a second
/// writer racing `UPDATE_GOLDEN` regeneration.
#[test]
fn golden_scenarios_replay_byte_identical_through_event_path() {
    assert_eq!(
        trace_with(Host::Coordinator),
        trace(),
        "table1_presets golden diverged through the coordinator"
    );
    assert_eq!(
        scenario_trace(chaos_scenario, Host::Coordinator),
        chaos_trace(),
        "chaos_multicohort golden diverged through the coordinator"
    );
    assert_eq!(
        scenario_trace(attack_scenario, Host::Coordinator),
        attack_trace(),
        "attacked_multicohort golden diverged through the coordinator"
    );
    assert_eq!(
        scenario_trace(churn_scenario, Host::Coordinator),
        churn_trace(),
        "churn_multicohort golden diverged through the coordinator"
    );
}

/// The default hierarchical topology (one edge per cohort, no backhaul,
/// FedAvg tiers) is *trivial*: it emits no hierarchy events, so a
/// single-cohort run through `HierEngine` must replay the sequential
/// golden byte-identically. The multi-cohort goldens are recorded through
/// the hier engine itself, so their snapshots pin that path directly.
#[test]
fn golden_scenarios_replay_byte_identical_through_hier_engine() {
    assert_eq!(
        trace_with(Host::Hier),
        trace(),
        "table1_presets golden diverged through the hier engine"
    );
}

#[test]
fn churn_trace_is_byte_identical_across_invocations() {
    assert_eq!(
        churn_trace(),
        churn_trace(),
        "same seed must give the same bytes"
    );
}

#[test]
fn churn_trace_matches_golden_snapshot() {
    let got = churn_trace();
    for ev in fedsched::telemetry::CHURN_KINDS {
        assert!(
            got.contains(&format!("\"ev\":\"{ev}\"")),
            "churn preset never emitted {ev}:\n{got}"
        );
    }
    assert!(
        got.contains("\"ev\":\"round_end\""),
        "missing round_end:\n{got}"
    );
    assert_matches_golden(&got, &churn_golden_path());
}

#[test]
fn hier_trace_is_byte_identical_across_invocations() {
    assert_eq!(
        hier_trace(),
        hier_trace(),
        "same seed must give the same bytes"
    );
}

#[test]
fn hier_trace_matches_golden_snapshot() {
    let got = hier_trace();
    assert!(
        got.contains("\"ev\":\"edge_reduce\""),
        "hier preset never narrated an edge reduction:\n{got}"
    );
    assert!(
        got.contains("\"ev\":\"robust_aggregate\""),
        "hier preset never scored a tier reduction:\n{got}"
    );
    assert!(
        got.contains("\"ev\":\"round_end\""),
        "missing round_end:\n{got}"
    );
    assert_matches_golden(&got, &hier_golden_path());
}

#[test]
fn event_trace_is_byte_identical_across_invocations() {
    assert_eq!(
        event_trace(),
        event_trace(),
        "same seed must give the same bytes"
    );
}

#[test]
fn event_trace_matches_golden_snapshot() {
    let got = event_trace();
    assert!(
        got.contains("\"ev\":\"fault_injected\""),
        "event preset produced a quiet trace:\n{got}"
    );
    assert!(
        got.contains("\"ev\":\"shards_reassigned\""),
        "event preset never engaged mid-round rescue:\n{got}"
    );
    assert!(
        got.contains("\"ev\":\"round_end\""),
        "missing round_end:\n{got}"
    );
    assert_matches_golden(&got, &event_golden_path());
}
