//! Per-layer numbers a traced run adds: telemetry event counts per round,
//! scheduler replays at the workload's own geometry, the complexity fit,
//! and exact retained-heap sizes of a build.
//!
//! A "replay" calls the layer's public function directly on inputs shaped
//! like the workload's, so its cost can be read apart from the round that
//! normally hides it. Replays record no spans: they are not part of the
//! workload, and the trace's layer breakdown covers the workload alone.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use fedsched_core::{CostMatrix, FedLbap, FedMinAvg, Scheduler};
use fedsched_device::Testbed;
use fedsched_fl::JobSpec;
use fedsched_profiler::TabulatedProfile;
use fedsched_telemetry::{Event, Probe};

use crate::inputs::{self, Case, SHARD_SIZE};
use crate::stats::{self, HeapCounter};
use crate::trace::{self, Timer};

/// Per-round counts from telemetry: metric name and the event kinds it
/// sums.
pub const EVENT_METRICS: [(&str, &[&str]); 12] = [
    ("core.resplits_per_round", &["schedule_decision"]),
    ("device.spans_per_round", &["user_span"]),
    ("fl.rescues_per_round", &["shards_reassigned"]),
    ("fl.orphaned_per_round", &["shards_orphaned"]),
    ("faults.injected_per_round", &["fault_injected"]),
    (
        "faults.churn_per_round",
        &["device_depart", "device_arrive"],
    ),
    ("net.retries_per_round", &["transfer_retry"]),
    ("bandit.selects_per_round", &["bandit_select"]),
    ("bandit.rewards_per_round", &["bandit_reward"]),
    ("fl.hier.edge_reduces_per_round", &["edge_reduce"]),
    ("robust.aggregates_per_round", &["robust_aggregate"]),
    ("robust.rejected_per_round", &["update_rejected"]),
];

/// Event counts per round, plus `telemetry.events_per_round`.
pub fn event_metrics(events: &[Event], rounds: usize, out: &mut BTreeMap<&'static str, f64>) {
    let counts = trace::event_counts(events);
    let per_round = |n: u64| n as f64 / rounds.max(1) as f64;
    for (metric, kinds) in EVENT_METRICS {
        let n = kinds
            .iter()
            .map(|k| counts.get(k).copied().unwrap_or(0))
            .sum();
        out.insert(metric, per_round(n));
    }
    out.insert("telemetry.events_per_round", per_round(events.len() as u64));
}

/// The largest `(n_users, total_shards)` a traced round asked Fed-LBAP to
/// solve, if any round re-planned.
pub fn decision_geometry(events: &[Event]) -> Option<(usize, usize)> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::ScheduleDecision {
                n_users,
                total_shards,
                ..
            } => Some((*n_users, *total_shards)),
            _ => None,
        })
        .max_by_key(|&(n, s)| n * s)
}

/// Geometry of a workload's own schedules: active users and shards of its
/// largest case.
pub fn case_geometry(cases: &[Case]) -> (usize, usize) {
    cases
        .iter()
        .map(|c| (c.schedule.active_users(), c.schedule.total_shards()))
        .max_by_key(|&(n, s)| n * s)
        .unwrap_or((1, 1))
}

/// Scheduled devices over population, across every case.
pub fn active_frac(cases: &[Case]) -> f64 {
    let (active, population) = cases.iter().fold((0, 0), |(a, p), c| {
        let n = c.schedule.shards.len();
        let active = c
            .spec
            .selection
            .map_or_else(|| c.schedule.active_users(), |s| s.k.min(n));
        (a + active, p + n)
    });
    active as f64 / population.max(1) as f64
}

/// Testbed-III profiles, repeated to `n` users: the replicated fleets'
/// own device mix.
fn profiles(base: &[TabulatedProfile], n: usize) -> Vec<TabulatedProfile> {
    base.iter().cycle().take(n).cloned().collect()
}

/// Base profiles for replays, measured once per run.
pub fn base_profiles(seed: u64) -> Vec<TabulatedProfile> {
    Testbed::testbed_3(inputs::derive(seed, 30)).profiles_for(&inputs::workload())
}

/// Median seconds per call of `f`, calling it until `budget_s` is spent
/// (at least `min_reps` times).
fn per_call(min_reps: usize, budget_s: f64, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < min_reps || start.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    stats::median(&samples)
}

/// `(cost build ms, Fed-LBAP solve ms)` at `(n, s)`.
pub fn lbap_replay(base: &[TabulatedProfile], (n, s): (usize, usize)) -> (f64, f64) {
    let profiles = profiles(base, n);
    let comm = inputs::comm(n);
    let cost_s = per_call(3, 0.05, || {
        std::hint::black_box(CostMatrix::from_profiles(&profiles, s, SHARD_SIZE, &comm));
    });
    let costs = CostMatrix::from_profiles(&profiles, s, SHARD_SIZE, &comm);
    let solve_s = per_call(3, 0.05, || {
        std::hint::black_box(FedLbap.schedule(std::hint::black_box(&costs)).ok());
    });
    (cost_s * 1e3, solve_s * 1e3)
}

/// Fed-MinAvg over Table IV S1–S3 at all four points, ms per sweep.
pub fn minavg_replay(seed: u64) -> Result<f64, String> {
    let profiles: Vec<_> = (0..3)
        .map(|i| inputs::scenario_profiles(i, seed, &Timer::off()))
        .collect();
    let mut result = Ok(());
    let secs = per_call(3, 0.05, || {
        result = inputs::minavg_table4(&profiles, &Timer::off());
    });
    result.map(|()| secs * 1e3)
}

/// `n·s` points of the complexity lattice, from the paper's own
/// 10 × 600 up to 6e6, keeping its shards-per-user ratio.
const LATTICE: [f64; 7] = [6e3, 2e4, 6e4, 2e5, 6e5, 2e6, 6e6];

/// The lattice a run fits over; `--smoke` stops at 2e5.
pub fn lattice(size: inputs::Size) -> &'static [f64] {
    &LATTICE[..if size.smoke { 4 } else { LATTICE.len() }]
}

fn lattice_point(ns: f64) -> (usize, usize) {
    let n = (ns / 60.0).sqrt().round() as usize;
    (n, (ns / n as f64).round() as usize)
}

/// Log–log slope of Fed-LBAP solve time over `n·s` (O(ns log ns) reads
/// as a slope a little above 1).
pub fn lbap_slope(base: &[TabulatedProfile], lattice: &[f64]) -> f64 {
    let points: Vec<(f64, f64)> = lattice
        .iter()
        .map(|&ns| {
            let (n, s) = lattice_point(ns);
            let costs =
                CostMatrix::from_profiles(&profiles(base, n), s, SHARD_SIZE, &inputs::comm(n));
            let secs = per_call(1, 0.02, || {
                std::hint::black_box(FedLbap.schedule(std::hint::black_box(&costs)).ok());
            });
            ((n * s) as f64, secs)
        })
        .collect();
    stats::loglog_slope(&points)
}

/// Log–log slope of Fed-MinAvg solve time over `n·m` (O(mn) reads as 1).
pub fn minavg_slope(base: &[TabulatedProfile], lattice: &[f64]) -> f64 {
    let classes: Vec<BTreeSet<usize>> = fedsched_data::Scenario::s3().class_sets();
    let points: Vec<(f64, f64)> = lattice
        .iter()
        .map(|&nm| {
            let (n, m) = lattice_point(nm);
            let sets: Vec<_> = classes.iter().cycle().take(n).cloned().collect();
            let mut problem = inputs::minavg_problem(profiles(base, n), &sets, m, (100.0, 2.0));
            for user in &mut problem.users {
                user.capacity_shards = m;
            }
            let secs = per_call(1, 0.02, || {
                std::hint::black_box(FedMinAvg.schedule(std::hint::black_box(&problem)).ok());
            });
            ((n * m) as f64, secs)
        })
        .collect();
    stats::loglog_slope(&points)
}

/// A spec with every fault, churn and selection knob removed.
fn fault_free(spec: &JobSpec) -> JobSpec {
    let mut spec = spec.clone();
    spec.faults = None;
    spec.retry = None;
    spec.churn = None;
    spec.admission = None;
    spec.selection = None;
    spec.adversary = None;
    spec
}

/// Heap bytes a built simulator keeps, exactly (counted allocations).
fn retained_bytes(spec: &JobSpec) -> Result<i64, String> {
    let before = HeapCounter::live_bytes();
    let sim = spec.build(Probe::disabled()).map_err(|e| e.to_string())?;
    let bytes = HeapCounter::live_bytes() - before;
    drop(sim);
    Ok(bytes)
}

/// `(faults.plan_mb, device.fleet_bytes_per_device)`: what the fault,
/// churn and drift plans add to a build, and what the fault-free build
/// keeps per device.
pub fn heap_metrics(specs: &[JobSpec]) -> Result<(f64, f64), String> {
    let (mut plans, mut fleet, mut devices) = (0i64, 0i64, 0usize);
    for spec in specs {
        let bare = retained_bytes(&fault_free(spec))?;
        plans += retained_bytes(spec)? - bare;
        fleet += bare;
        devices += spec.devices.n_devices().map_err(|e| e.to_string())?;
    }
    Ok((
        plans as f64 / (1024.0 * 1024.0),
        fleet as f64 / devices.max(1) as f64,
    ))
}
