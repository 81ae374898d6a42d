//! Everything a workload feeds the product, generated from `--seed`.
//!
//! Only two build targets appear: `event_sim`, the round core, and `hier`,
//! the population engine. Those are the engines the other targets are
//! being folded into, so the benchmark keeps measuring the same code as
//! the rest collapses.

use std::collections::BTreeSet;

use fedsched_core::{AccuracyCost, CostMatrix, FedLbap, FedMinAvg, MinAvgProblem, Schedule};
use fedsched_core::{EqualScheduler, Scheduler, UserSpec};
use fedsched_data::Scenario;
use fedsched_device::{DeviceModel, Testbed, TrainingWorkload};
use fedsched_faults::{ChurnConfig, DriftConfig, FaultConfig};
use fedsched_fl::{
    AdmissionPolicy, AggregatorKind, BuildTarget, DeviceSetSpec, JobSpec, PolicyKind,
    SelectionConfig,
};
use fedsched_net::{model_transfer_bytes, Link, RetryPolicy};
use fedsched_profiler::{ModelArch, TabulatedProfile};

use crate::trace::Timer;

/// Samples per shard (the paper's example granularity).
pub const SHARD_SIZE: f64 = 100.0;
/// Shards per paper testbed round: 60,000 samples.
const TESTBED_SHARDS: usize = 600;
/// Table IV: CIFAR-10's 50,000 training samples, 5,000 per class.
const MINAVG_SHARDS: usize = 500;
const SHARDS_PER_CLASS: usize = 50;
/// Table IV's (alpha, beta) points p1..p4.
const PARAM_POINTS: [(f64, f64); 4] = [(100.0, 0.0), (5000.0, 0.0), (100.0, 2.0), (5000.0, 2.0)];
/// Churn events past this many seconds into a round do not fire.
const CHURN_HORIZON_S: f64 = 60.0;

/// One steppable job: a spec, the schedule every round uses, and how many
/// rounds one episode runs.
#[derive(Debug, Clone)]
pub struct Case {
    pub spec: JobSpec,
    pub schedule: Schedule,
    pub rounds: usize,
}

/// splitmix64 of `seed` salted by `salt`: independent sub-seeds.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// LeNet, the paper's headline model.
pub fn workload() -> TrainingWorkload {
    TrainingWorkload::lenet()
}

fn model_bytes() -> f64 {
    model_transfer_bytes(&ModelArch::lenet())
}

/// Per-round transfer time of `n` users over campus WiFi.
pub fn comm(n: usize) -> Vec<f64> {
    vec![Link::wifi_campus().round_seconds(model_bytes()); n]
}

/// LeNet over campus WiFi, the paper's headline configuration.
pub fn lenet_spec(target: BuildTarget, devices: DeviceSetSpec, seed: u64) -> JobSpec {
    JobSpec::new(
        target,
        devices,
        workload(),
        Link::wifi_campus(),
        model_bytes(),
        seed,
    )
}

/// `n` devices, every `stride`-th holding `shards` shards.
fn strided(n: usize, stride: usize, shards: usize) -> Schedule {
    Schedule::new(
        (0..n)
            .map(|i| if i % stride == 0 { shards } else { 0 })
            .collect(),
        SHARD_SIZE,
    )
}

/// Testbed-3 replicated `copies` times (10 devices per copy).
fn replicated(copies: usize, seed: u64) -> DeviceSetSpec {
    DeviceSetSpec::Replicated {
        preset: 3,
        copies,
        seed,
    }
}

/// Sizes that shrink together under `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub smoke: bool,
}

impl Size {
    fn pick<T>(self, smoke: T, full: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// `chaos_fleet`: every fault family at once on a 5,000-device fleet
/// whose first 1,000 devices hold one shard each.
pub fn chaos_fleet(seed: u64, size: Size) -> Vec<Case> {
    let (copies, active, rounds) = size.pick((50, 100, 4), (500, 1000, 150));
    let mut spec = lenet_spec(
        BuildTarget::EventSim,
        replicated(copies, derive(seed, 1)),
        derive(seed, 2),
    );
    let faults = FaultConfig::none()
        .with_crash_prob(0.02)
        .with_loss_prob(0.05)
        .with_contention(0.1, 2.0)
        .with_outages(0.05, 60.0, 5.0)
        .with_drift(DriftConfig::new(0.2, 6.0));
    spec.faults = Some((faults, rounds));
    spec.retry = Some(RetryPolicy::default_chaos());
    spec.churn = Some(ChurnConfig::symmetric(0.01, CHURN_HORIZON_S));
    // Without admission, churn drains the fleet and rounds go empty.
    spec.admission = Some(AdmissionPolicy::NextRound);
    let n = copies * 10;
    let schedule = Schedule::new(
        (0..n).map(|i| usize::from(i < active)).collect(),
        SHARD_SIZE,
    );
    vec![Case {
        spec,
        schedule,
        rounds,
    }]
}

/// `bandit_drift`: UCB1 picks 40 of 200 drifting devices and Fed-LBAP
/// re-splits 400 shards over them inside every round.
pub fn bandit_drift(seed: u64, size: Size) -> Vec<Case> {
    let (copies, k, rounds) = size.pick((2, 8, 4), (20, 40, 150));
    let mut spec = lenet_spec(
        BuildTarget::EventSim,
        replicated(copies, derive(seed, 3)),
        derive(seed, 4),
    );
    let faults = FaultConfig::none()
        .with_loss_prob(0.05)
        .with_drift(DriftConfig::new(0.2, 6.0));
    spec.faults = Some((faults, rounds));
    spec.churn = Some(ChurnConfig::symmetric(0.01, CHURN_HORIZON_S));
    spec.admission = Some(AdmissionPolicy::NextRound);
    spec.selection = Some(SelectionConfig::new(PolicyKind::Ucb1 { c: 1.0 }, k));
    vec![Case {
        spec,
        schedule: strided(copies * 10, 1, 2),
        rounds,
    }]
}

/// `hier_100k`: 100,000 devices, every 200th active, 16 robust edges.
pub fn hier_100k(seed: u64, size: Size) -> Vec<Case> {
    let (copies, rounds) = size.pick((100, 4), (10_000, 200));
    let mut spec = lenet_spec(
        BuildTarget::Hier,
        replicated(copies, derive(seed, 5)),
        derive(seed, 6),
    );
    spec.threads = Some(2);
    spec.edges = Some(16);
    spec.edge_aggregator = Some(AggregatorKind::TrimmedMean { trim: 1 });
    spec.server_aggregator = Some(AggregatorKind::Median);
    vec![Case {
        spec,
        schedule: strided(copies * 10, 200, 1),
        rounds,
    }]
}

fn model_by_name(name: &str) -> DeviceModel {
    match name {
        "Nexus6" => DeviceModel::Nexus6,
        "Nexus6P" => DeviceModel::Nexus6P,
        "Mate10" => DeviceModel::Mate10,
        _ => DeviceModel::Pixel2,
    }
}

/// One Fed-LBAP plan: offline profiles, the cost matrix, the solve.
/// Checks the plan places every shard and beats an equal split.
pub fn lbap_plan(testbed: &Testbed, shards: usize, t: &Timer) -> Result<Schedule, String> {
    let profiles = t.time("device", "profile", || testbed.profiles_for(&workload()));
    let comm = comm(profiles.len());
    let costs = t.time("core", "cost_build", || {
        CostMatrix::from_profiles(&profiles, shards, SHARD_SIZE, &comm)
    });
    let schedule = t
        .time("core", "lbap_solve", || FedLbap.schedule(&costs))
        .map_err(|e| format!("Fed-LBAP refused a testbed: {e}"))?;
    let equal = EqualScheduler
        .schedule(&costs)
        .map_err(|e| format!("equal split refused a testbed: {e}"))?;
    if schedule.total_shards() != shards
        || schedule.predicted_makespan(&costs) > equal.predicted_makespan(&costs)
    {
        return Err(format!("Fed-LBAP plan is wrong: {:?}", schedule.shards));
    }
    Ok(schedule)
}

/// A Table IV Fed-MinAvg instance over measured profiles.
pub fn minavg_problem(
    profiles: Vec<TabulatedProfile>,
    classes: &[BTreeSet<usize>],
    total_shards: usize,
    (alpha, beta): (f64, f64),
) -> MinAvgProblem<TabulatedProfile> {
    let comm = Link::wifi_campus().round_seconds(model_bytes());
    MinAvgProblem {
        users: profiles
            .into_iter()
            .zip(classes)
            .map(|(profile, classes)| UserSpec {
                profile,
                comm,
                classes: classes.clone(),
                capacity_shards: classes.len() * SHARDS_PER_CLASS,
            })
            .collect(),
        total_shards,
        shard_size: SHARD_SIZE,
        acc: AccuracyCost::new(10, alpha, beta),
    }
}

/// Profiles of Table IV scenario `i` (S1..S3 for 0..3).
pub fn scenario_profiles(i: usize, seed: u64, t: &Timer) -> (Vec<TabulatedProfile>, Scenario) {
    let scenario = Scenario::all()[i].clone();
    let models: Vec<DeviceModel> = scenario
        .users
        .iter()
        .map(|u| model_by_name(u.device))
        .collect();
    let testbed = Testbed::new(&models, derive(seed, 20 + i as u64));
    let profiles = t.time("device", "profile", || testbed.profiles_for(&workload()));
    (profiles, scenario)
}

/// Fed-MinAvg over S1..S3 at every Table IV point; checks each schedule
/// places every shard within capacity.
pub fn minavg_table4(
    profiles: &[(Vec<TabulatedProfile>, Scenario)],
    t: &Timer,
) -> Result<(), String> {
    for (profiles, scenario) in profiles {
        for point in PARAM_POINTS {
            let problem = minavg_problem(
                profiles.clone(),
                &scenario.class_sets(),
                MINAVG_SHARDS,
                point,
            );
            let outcome = t
                .time("core", "minavg_solve", || FedMinAvg.schedule(&problem))
                .map_err(|e| format!("Fed-MinAvg refused {}: {e}", scenario.name))?;
            let placed = outcome.schedule.total_shards();
            let within = outcome
                .schedule
                .shards
                .iter()
                .zip(&problem.users)
                .all(|(&k, u)| k <= u.capacity_shards);
            if placed != MINAVG_SHARDS || !within {
                return Err(format!("Fed-MinAvg plan for {} is wrong", scenario.name));
            }
        }
    }
    Ok(())
}

/// `paper_testbeds`: the paper's offline path — profile Testbeds I–III,
/// plan each with Fed-LBAP, solve Table IV with Fed-MinAvg — then the
/// planned jobs as `event_sim` specs. All of it is product work, timed
/// as set-up.
pub fn paper_testbeds(seed: u64, size: Size, t: &Timer) -> Result<Vec<Case>, String> {
    let rounds = size.pick(4, 120);
    let mut cases = Vec::new();
    for preset in 1..=3usize {
        let fleet_seed = derive(seed, preset as u64);
        let testbed = Testbed::by_index(preset, fleet_seed);
        let schedule = lbap_plan(&testbed, TESTBED_SHARDS, t)?;
        let spec = lenet_spec(
            BuildTarget::EventSim,
            DeviceSetSpec::Testbed {
                preset,
                seed: fleet_seed,
            },
            derive(seed, 10 + preset as u64),
        );
        cases.push(Case {
            spec,
            schedule,
            rounds,
        });
    }
    let profiles: Vec<_> = (0..3).map(|i| scenario_profiles(i, seed, t)).collect();
    minavg_table4(&profiles, t)?;
    Ok(cases)
}
