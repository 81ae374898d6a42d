//! Scale-out sweep — the population engine from 10 to 10,000 devices
//! (companion to the engine; not a paper figure).
//!
//! The paper's testbeds stop at ten devices; production federated learning
//! populations are 10³–10⁴ per round. This sweep measures two things about
//! [`HierEngine`](fedsched_fl::HierEngine) as the population grows:
//!
//! * **Speedup** — wall-clock time of the identical simulation at 1, 2, 4
//!   (and at paper scale 8) worker threads. Cohorts are embarrassingly
//!   parallel, so large populations should approach linear scaling while
//!   tiny ones expose the fixed overhead honestly.
//! * **Parity** — every thread count must produce a [`HierReport`] that
//!   is `==` (bit-for-bit, floats included) to the single-threaded run.
//!   The sweep records this instead of assuming it, so a scheduling
//!   regression shows up as a failed run, not a quietly different number.
//!
//! A probe micro-bench rides along: the device hot loop (thermal stepping
//! inside `train_samples`) timed with a telemetry probe attached vs
//! detached, quantifying the "disabled telemetry is free" claim at the
//! other end of the scale.

use std::sync::Arc;
use std::time::Instant;

use fedsched_core::Schedule;
use fedsched_device::{Device, DeviceArena, DeviceModel, TrainingWorkload};
use fedsched_fl::{DeadlinePolicy, HierReport, RoundConfig, SimBuilder, DEFAULT_COHORT_SIZE};
use fedsched_net::{model_transfer_bytes, Link};
use fedsched_profiler::ModelArch;
use fedsched_telemetry::{NullRecorder, Probe};

use crate::common::SHARD_SIZE;
use crate::report::Table;
use crate::scale::Scale;

/// Shards per device per round: small, so the sweep measures engine
/// scaling, not one long device loop.
const SHARDS_PER_DEVICE: usize = 2;

/// One thread count's measurement at one population size.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadPoint {
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock seconds for the whole run.
    pub wall_s: f64,
    /// Single-thread wall time divided by this wall time.
    pub speedup: f64,
}

/// All thread counts at one population size.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePoint {
    /// Devices simulated.
    pub population: usize,
    /// Cohorts the population partitioned into.
    pub cohorts: usize,
    /// Mean per-round makespan (identical across thread counts).
    pub mean_makespan_s: f64,
    /// One measurement per thread count, ascending.
    pub threads: Vec<ThreadPoint>,
    /// Whether every thread count reproduced the single-thread report
    /// exactly (floats compared with `==`).
    pub parity: bool,
}

impl ScalePoint {
    /// Look up the measurement at a thread count.
    pub fn at_threads(&self, threads: usize) -> Option<&ThreadPoint> {
        self.threads.iter().find(|t| t.threads == threads)
    }
}

/// The probe micro-bench: device hot loop with telemetry on vs off.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeOverhead {
    /// Nanoseconds per trained sample, probe detached.
    pub detached_ns: f64,
    /// Nanoseconds per trained sample, probe attached to a null recorder.
    pub attached_ns: f64,
}

/// One population size's coordination comparison: per-cohort deadlines vs
/// one global pooled deadline vs buffered-async aggregation, over a
/// *clustered* population (cohorts homogeneous by device model) where the
/// difference between pooling scopes is starkest.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordinationPoint {
    /// Devices simulated.
    pub population: usize,
    /// Cohorts the population partitioned into.
    pub cohorts: usize,
    /// Total population makespan with each cohort resolving its own
    /// mean-factor deadline from its local predicted times.
    pub per_cohort_makespan_s: f64,
    /// Shards lost to the per-cohort deadlines.
    pub per_cohort_lost: usize,
    /// Total population makespan under the coordinator's single global
    /// deadline pooled over every cohort's predictions.
    pub global_makespan_s: f64,
    /// Shards lost to the global deadline.
    pub global_lost: usize,
    /// Simulated span of the buffered-async run (slowest cohort's busy
    /// time — nobody waits at a barrier).
    pub async_span_s: f64,
    /// Shards lost in the async run.
    pub async_lost: usize,
    /// Staleness-discounted merges the async aggregator performed.
    pub async_merges: usize,
}

/// The round core at one sparse-participation geometry: `active` of
/// `population` devices hold shards, the rest are idle. The round core
/// pays O(active) per round, never O(population).
#[derive(Debug, Clone, PartialEq)]
pub struct EventEnginePoint {
    /// Devices simulated.
    pub population: usize,
    /// Devices actually holding shards each round.
    pub active: usize,
    /// Rounds simulated.
    pub rounds: usize,
    /// Wall-clock seconds for the `EventRoundSim` run (best of three).
    pub event_wall_s: f64,
}

/// Thread invariance at one population size: the two-tier
/// [`HierEngine`](fedsched_fl::HierEngine) in its default one-edge-per-
/// cohort topology must reproduce its own single-threaded report byte for
/// byte at every thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct HierParityPoint {
    /// Devices simulated.
    pub population: usize,
    /// Cohorts (= edges in the parity topology).
    pub cohorts: usize,
    /// Thread counts checked against the single-threaded reference.
    pub thread_counts: Vec<usize>,
    /// Whether every thread count's report matched the single-threaded
    /// reference exactly (floats compared with `==`).
    pub parity: bool,
    /// Wall-clock seconds of the single-threaded reference run.
    pub hier_wall_s: f64,
}

/// The million-device arm: the default-topology
/// [`HierEngine`](fedsched_fl::HierEngine) over a sparse active set.
#[derive(Debug, Clone, PartialEq)]
pub struct MegaScalePoint {
    /// Devices in the population.
    pub population: usize,
    /// Devices holding shards each round.
    pub active: usize,
    /// Rounds simulated.
    pub rounds: usize,
    /// Cohorts the population partitions into.
    pub cohorts: usize,
    /// Wall-clock seconds for the whole run, population build included.
    pub wall_s: f64,
    /// Peak resident set size of the process after the run, if procfs
    /// reports it.
    pub peak_rss_bytes: Option<u64>,
    /// Mean per-round makespan.
    pub mean_makespan_s: f64,
    /// Whether every round reported full coverage (quiet run: must).
    pub full_coverage: bool,
}

/// The full sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleoutSweep {
    /// One point per population size, ascending.
    pub points: Vec<ScalePoint>,
    /// Rounds simulated per run.
    pub rounds: usize,
    /// Devices per cohort.
    pub cohort_size: usize,
    /// Physical parallelism of the host: speedup is bounded by this, so a
    /// single-core CI runner reporting ~1.0x is healthy, not a regression.
    pub host_threads: usize,
    /// The probe micro-bench result.
    pub probe: ProbeOverhead,
    /// Deadline-scope comparison, one point per population size.
    pub coordination: Vec<CoordinationPoint>,
    /// The round core under sparse participation.
    pub event: EventEnginePoint,
    /// Hierarchical thread-invariance check.
    pub hier: HierParityPoint,
    /// The mega-scale arm.
    pub mega: MegaScalePoint,
}

/// Model and seed of device `i` in the mixed population of [`population`].
fn member(i: usize, seed: u64) -> (DeviceModel, u64) {
    let models = DeviceModel::all();
    (
        models[i % models.len()],
        seed.wrapping_add(i as u64 * 0x9E37_79B9),
    )
}

/// A mixed-model population of `n` devices cycling the Table I presets.
pub fn population(n: usize, seed: u64) -> Vec<Device> {
    (0..n)
        .map(|i| {
            let (model, seed) = member(i, seed);
            Device::from_model(model, seed)
        })
        .collect()
}

/// A population sorted so each cohort is homogeneous: the slowest model
/// fills whole cohorts instead of hiding inside mixed ones. This is the
/// regime where deadline-pooling scope matters most — a slow cohort's
/// local mean-factor deadline drifts far above the population's.
pub fn clustered_population(n: usize, seed: u64) -> Vec<Device> {
    let models = DeviceModel::all();
    (0..n)
        .map(|i| {
            Device::from_model(
                models[(i * models.len()) / n.max(1)],
                seed.wrapping_add(i as u64 * 0x9E37_79B9),
            )
        })
        .collect()
}

/// Mean-factor slack shared by both deadline arms.
const DEADLINE_FACTOR: f64 = 1.2;
/// Buffered-async mixing rate.
const ASYNC_ETA: f64 = 0.5;

/// Measure the three coordination arms at one population size.
pub fn coordination_point(n: usize, seed: u64, rounds: usize) -> CoordinationPoint {
    let schedule = Schedule::new(vec![SHARDS_PER_DEVICE; n], SHARD_SIZE);
    let cohorts = n.div_ceil(DEFAULT_COHORT_SIZE);
    let builder = || {
        SimBuilder::new(
            clustered_population(n, seed),
            RoundConfig::new(
                TrainingWorkload::lenet(),
                Link::wifi_campus(),
                model_transfer_bytes(&ModelArch::lenet()),
                seed,
            ),
        )
    };

    // Both deadline arms use Deadline-Dropout semantics (no rescue):
    // stragglers past the deadline are cut and their shards counted lost,
    // so the deadline bounds the round instead of triggering mid-round
    // shard redistribution inside an already-slow cohort.
    //
    // Arm 1: every cohort resolves its own deadline from local predictions.
    let mut per_cohort = builder()
        .deadline(DeadlinePolicy::MeanFactor(DEADLINE_FACTOR))
        .no_rescue()
        .build_hier()
        .expect("per-cohort deadline engine config is valid");
    let per_report = per_cohort.run(&schedule, rounds);

    // Arm 2: the coordinator pools all predictions into one deadline.
    let mut global = builder()
        .deadline(DeadlinePolicy::MeanFactor(DEADLINE_FACTOR))
        .no_rescue()
        .build_coordinator()
        .expect("global deadline coordinator config is valid");
    let global_report = global.coordinate(&schedule, rounds);

    // Arm 3: no barrier at all — buffered staleness-weighted aggregation.
    let mut buffered = builder()
        .buffered_async((cohorts / 2).max(1), ASYNC_ETA)
        .build_coordinator()
        .expect("buffered-async coordinator config is valid");
    let async_report = buffered.coordinate(&schedule, rounds);

    CoordinationPoint {
        population: n,
        cohorts,
        per_cohort_makespan_s: per_report.timing.per_round_makespan.iter().sum(),
        per_cohort_lost: per_report.rounds.iter().map(|r| r.lost_shards).sum(),
        global_makespan_s: global_report.span_s,
        global_lost: global_report.total_lost(),
        async_span_s: async_report.span_s,
        async_lost: async_report.total_lost(),
        async_merges: async_report.merges.len(),
    }
}

/// Time the round core with `active` of `n` devices holding one small
/// shard per round and the rest idle.
pub fn event_point(n: usize, active: usize, rounds: usize, seed: u64) -> EventEnginePoint {
    // One single-sample shard per active device keeps the simulation work
    // (thermal stepping, comm draws) small, so the per-round bookkeeping
    // the population size could add is what shows.
    let mut shards = vec![0usize; n];
    for s in shards.iter_mut().take(active) {
        *s = 1;
    }
    let schedule = Schedule::new(shards, 1.0);
    let build = || {
        SimBuilder::new(
            population(n, seed),
            RoundConfig::new(
                TrainingWorkload::lenet(),
                Link::wifi_campus(),
                model_transfer_bytes(&ModelArch::lenet()),
                seed,
            ),
        )
    };

    // Wall times at this scale sit in the low milliseconds where OS
    // jitter is visible, so the run is timed best-of-3 over fresh sims
    // (device thermal state persists across `run` calls, so reusing one
    // sim would not replay the same simulation).
    const REPS: usize = 3;
    let mut event_wall_s = f64::INFINITY;
    for _ in 0..REPS {
        let mut event = build().build_event_sim().expect("valid event sim config");
        let start = Instant::now();
        let _ = event.run(&schedule, rounds);
        event_wall_s = event_wall_s.min(start.elapsed().as_secs_f64());
    }

    EventEnginePoint {
        population: n,
        active,
        rounds,
        event_wall_s,
    }
}

/// Measure thread invariance at one population size: the default
/// one-edge-per-cohort [`HierEngine`](fedsched_fl::HierEngine) at every
/// requested thread count against its own single-threaded run.
pub fn hier_point(n: usize, seed: u64, rounds: usize, thread_counts: &[usize]) -> HierParityPoint {
    let (reference, hier_wall_s) = timed_run(n, seed, 1, rounds);
    let mut parity = true;
    for &t in thread_counts.iter().filter(|&&t| t > 1) {
        let (report, _) = timed_run(n, seed, t, rounds);
        let same = report == reference;
        assert!(
            same,
            "threads={t}, n={n}: hierarchical report diverged from threads=1"
        );
        parity &= same;
    }

    HierParityPoint {
        population: n,
        cohorts: n.div_ceil(DEFAULT_COHORT_SIZE),
        thread_counts: thread_counts.to_vec(),
        parity,
        hier_wall_s,
    }
}

/// A sparse schedule: `active` of `n` devices hold one single-sample
/// shard, spread evenly across the population (and therefore across
/// cohorts).
pub fn sparse_schedule(n: usize, active: usize) -> Schedule {
    let mut shards = vec![0usize; n];
    if let Some(stride) = n.checked_div(active) {
        let stride = stride.max(1);
        for slot in 0..active {
            shards[(slot * stride).min(n - 1)] = 1;
        }
    }
    Schedule::new(shards, 1.0)
}

/// One quiet run of `schedule` over `devices` on the default-topology
/// engine: LeNet over WiFi, one edge per cohort.
fn sparse_run(devices: Vec<Device>, seed: u64, schedule: &Schedule, rounds: usize) -> HierReport {
    SimBuilder::new(
        devices,
        RoundConfig::new(
            TrainingWorkload::lenet(),
            Link::wifi_campus(),
            model_transfer_bytes(&ModelArch::lenet()),
            seed,
        ),
    )
    .build_hier()
    .expect("valid hier engine config")
    .run(schedule, rounds)
}

/// The mega-scale arm: `n` devices, `active` of them holding one
/// single-sample shard, through the default-topology
/// [`HierEngine`](fedsched_fl::HierEngine) in one `run` call.
pub fn mega_point(n: usize, active: usize, rounds: usize, seed: u64) -> MegaScalePoint {
    let schedule = sparse_schedule(n, active);
    let start = Instant::now();
    let report = sparse_run(population(n, seed), seed, &schedule, rounds);
    MegaScalePoint {
        population: n,
        active: schedule.active_users(),
        rounds,
        cohorts: n.div_ceil(DEFAULT_COHORT_SIZE),
        wall_s: start.elapsed().as_secs_f64(),
        peak_rss_bytes: peak_rss_bytes(),
        mean_makespan_s: report.timing.mean_makespan(),
        full_coverage: report.rounds.iter().all(|r| r.coverage == 1.0),
    }
}

/// Arena-vs-scalar parity through the engine: the same sparse run over
/// a population built by [`DeviceArena::from_models`] then
/// [`DeviceArena::into_devices`], and over one built by [`population`],
/// must give `==` reports.
pub fn arena_matches_scalar(n: usize, active: usize, rounds: usize, seed: u64) -> bool {
    let schedule = sparse_schedule(n, active);
    let arena = DeviceArena::from_models((0..n).map(|i| member(i, seed)));
    sparse_run(arena.into_devices(), seed, &schedule, rounds)
        == sparse_run(population(n, seed), seed, &schedule, rounds)
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`); `None` where procfs is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Time one full default-topology engine run, returning the report and
/// wall seconds.
fn timed_run(n: usize, seed: u64, threads: usize, rounds: usize) -> (HierReport, f64) {
    let schedule = Schedule::new(vec![SHARDS_PER_DEVICE; n], SHARD_SIZE);
    let mut eng = SimBuilder::new(
        population(n, seed),
        RoundConfig::new(
            TrainingWorkload::lenet(),
            Link::wifi_campus(),
            model_transfer_bytes(&ModelArch::lenet()),
            seed,
        ),
    )
    .threads(threads)
    .build_hier()
    .expect("valid engine config");
    let start = Instant::now();
    let report = eng.run(&schedule, rounds);
    (report, start.elapsed().as_secs_f64())
}

/// Time the device hot loop (`train_samples`) with and without a probe.
pub fn probe_overhead(seed: u64) -> ProbeOverhead {
    let wl = TrainingWorkload::lenet();
    let samples_per_call = 200usize;
    let calls = 50usize;
    let time_one = |probe: Probe| -> f64 {
        let mut device = Device::from_model(DeviceModel::Pixel2, seed);
        device.set_probe(probe);
        let start = Instant::now();
        for _ in 0..calls {
            let _ = device.train_samples(&wl, samples_per_call);
        }
        start.elapsed().as_secs_f64() * 1e9 / (calls * samples_per_call) as f64
    };
    ProbeOverhead {
        detached_ns: time_one(Probe::disabled()),
        attached_ns: time_one(Probe::attached(Arc::new(NullRecorder))),
    }
}

/// Run the sweep: populations 10 → 1,000 at smoke scale, 10 → 10,000 at
/// paper scale; threads 1/2/4 (plus 8 at paper scale).
///
/// # Panics
/// Panics if any thread count's report diverges from the single-threaded
/// run — that would be an engine determinism bug, not a measurement.
pub fn run(scale: Scale, seed: u64) -> ScaleoutSweep {
    let populations: Vec<usize> = scale.pick(vec![10, 100, 1_000], vec![10, 100, 1_000, 10_000]);
    let thread_counts: Vec<usize> = scale.pick(vec![1, 2, 4], vec![1, 2, 4, 8]);
    let rounds = 2;

    let mut points = Vec::new();
    for n in populations {
        let (baseline, base_wall) = timed_run(n, seed, 1, rounds);
        let mut threads = vec![ThreadPoint {
            threads: 1,
            wall_s: base_wall,
            speedup: 1.0,
        }];
        let mut parity = true;
        for &t in thread_counts.iter().filter(|&&t| t > 1) {
            let (report, wall_s) = timed_run(n, seed, t, rounds);
            let same = report == baseline;
            assert!(same, "threads={t}, n={n}: report diverged from sequential");
            parity &= same;
            threads.push(ThreadPoint {
                threads: t,
                wall_s,
                speedup: base_wall / wall_s.max(f64::EPSILON),
            });
        }
        points.push(ScalePoint {
            population: n,
            cohorts: n.div_ceil(DEFAULT_COHORT_SIZE),
            mean_makespan_s: baseline.timing.mean_makespan(),
            threads,
            parity,
        });
    }
    let coordination = scale
        .pick(vec![10, 100, 1_000], vec![10, 100, 1_000, 10_000])
        .into_iter()
        .map(|n| coordination_point(n, seed, rounds))
        .collect();

    let (event_pop, event_active, event_rounds) = scale.pick((1_000, 10, 20), (10_000, 25, 100));
    let (hier_pop, hier_threads) = scale.pick((1_000, vec![1, 2, 4]), (10_000, vec![1, 2, 4, 8]));
    let (mega_pop, mega_active, mega_rounds) =
        scale.pick((10_000, 100, 10), (1_000_000, 1_000, 100));
    ScaleoutSweep {
        points,
        rounds,
        cohort_size: DEFAULT_COHORT_SIZE,
        host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        probe: probe_overhead(seed),
        coordination,
        event: event_point(event_pop, event_active, event_rounds, seed),
        hier: hier_point(hier_pop, seed, rounds, &hier_threads),
        mega: mega_point(mega_pop, mega_active, mega_rounds, seed),
    }
}

/// Render the sweep as one table per population plus the probe numbers.
pub fn render(sweep: &ScaleoutSweep) -> String {
    let mut out = String::from("## Scale-out — population engine\n\n");
    out.push_str(&format!(
        "LeNet over WiFi, {} shards/device, {} rounds, cohorts of {}; every \
         thread count verified bit-identical to the single-threaded run. \
         Host parallelism: {} core(s) — speedup saturates there.\n\n",
        SHARDS_PER_DEVICE, sweep.rounds, sweep.cohort_size, sweep.host_threads,
    ));
    let mut t = Table::new(vec![
        "population",
        "cohorts",
        "threads",
        "wall [ms]",
        "speedup",
        "parity",
    ]);
    for point in &sweep.points {
        for tp in &point.threads {
            t.row(vec![
                point.population.to_string(),
                point.cohorts.to_string(),
                tp.threads.to_string(),
                format!("{:.2}", tp.wall_s * 1e3),
                format!("{:.2}x", tp.speedup),
                if point.parity { "ok" } else { "DIVERGED" }.to_string(),
            ]);
        }
    }
    out.push_str(&t.render());

    out.push_str(&format!(
        "\n### Deadline scope — per-cohort vs global vs buffered async\n\n\
         Clustered population (cohorts homogeneous by model), mean-factor \
         {DEADLINE_FACTOR} deadlines, async eta {ASYNC_ETA}. A slow cohort \
         sets its own generous local deadline; the coordinator's pooled \
         deadline cuts it to the population average instead.\n\n",
    ));
    let mut c = Table::new(vec![
        "population",
        "cohorts",
        "per-cohort [s]",
        "lost",
        "global [s]",
        "lost",
        "async span [s]",
        "lost",
        "merges",
    ]);
    for p in &sweep.coordination {
        c.row(vec![
            p.population.to_string(),
            p.cohorts.to_string(),
            format!("{:.1}", p.per_cohort_makespan_s),
            p.per_cohort_lost.to_string(),
            format!("{:.1}", p.global_makespan_s),
            p.global_lost.to_string(),
            format!("{:.1}", p.async_span_s),
            p.async_lost.to_string(),
            p.async_merges.to_string(),
        ]);
    }
    out.push_str(&c.render());
    let ev = &sweep.event;
    out.push_str(&format!(
        "\n### Event core — sparse participation\n\n\
         {} of {} devices hold shards for {} rounds. The round core \
         only touches the devices that hold shards.\n\n\
         event core {:.2} ms.\n",
        ev.active,
        ev.population,
        ev.rounds,
        ev.event_wall_s * 1e3,
    ));
    let h = &sweep.hier;
    out.push_str(&format!(
        "\n### Two-tier hierarchy — thread invariance\n\n\
         {} devices, {} cohorts (= edges, one per cohort), threads {:?}: \
         every hierarchical report {} the single-threaded run ({:.2} ms).\n",
        h.population,
        h.cohorts,
        h.thread_counts,
        if h.parity { "matched" } else { "DIVERGED from" },
        h.hier_wall_s * 1e3,
    ));
    let m = &sweep.mega;
    let peak = m
        .peak_rss_bytes
        .map_or("n/a".to_string(), |b| format!("{:.0} MB", b as f64 / 1e6));
    out.push_str(&format!(
        "\n### Mega-scale — the population engine over a sparse active set\n\n\
         {} devices ({} cohorts), {} active per round, {} rounds through \
         the default-topology HierEngine in one run: {:.1} s wall \
         (population build included), process peak RSS {peak}, \
         coverage {}.\n",
        m.population,
        m.cohorts,
        m.active,
        m.rounds,
        m.wall_s,
        if m.full_coverage {
            "full"
        } else {
            "INCOMPLETE"
        },
    ));
    out.push_str(&format!(
        "\nDevice hot loop (train_samples, LeNet): {:.1} ns/sample with the \
         probe detached vs {:.1} ns/sample attached to a null recorder.\n",
        sweep.probe.detached_ns, sweep.probe.attached_ns,
    ));
    out.push_str(
        "\nFinding: cohort-level parallelism only pays once the population \
         dwarfs the cohort size (single-cohort runs are pure spawn \
         overhead), speedup is capped by host cores, and the determinism \
         contract holds at every point: thread count changes wall-clock \
         only, never a simulated number.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> &'static ScaleoutSweep {
        use std::sync::OnceLock;
        static CACHE: OnceLock<ScaleoutSweep> = OnceLock::new();
        CACHE.get_or_init(|| run(Scale::Smoke, 7))
    }

    #[test]
    fn every_point_keeps_makespan_parity() {
        for point in &sweep().points {
            assert!(point.parity, "population {} diverged", point.population);
            assert!(point.mean_makespan_s > 0.0);
        }
    }

    #[test]
    fn sweep_covers_the_population_range() {
        let pops: Vec<usize> = sweep().points.iter().map(|p| p.population).collect();
        assert_eq!(pops, vec![10, 100, 1_000]);
        for point in &sweep().points {
            assert_eq!(
                point.cohorts,
                point.population.div_ceil(DEFAULT_COHORT_SIZE)
            );
            let threads: Vec<usize> = point.threads.iter().map(|t| t.threads).collect();
            assert_eq!(threads, vec![1, 2, 4]);
            assert_eq!(point.at_threads(1).unwrap().speedup, 1.0);
            for tp in &point.threads {
                assert!(tp.wall_s > 0.0);
                assert!(tp.speedup > 0.0);
            }
        }
    }

    #[test]
    fn probe_micro_bench_produces_sane_numbers() {
        let probe = &sweep().probe;
        assert!(probe.detached_ns > 0.0);
        assert!(probe.attached_ns > 0.0);
    }

    #[test]
    fn global_deadline_strictly_beats_per_cohort_at_thousand_devices() {
        for point in &sweep().coordination {
            assert!(point.per_cohort_makespan_s > 0.0);
            assert!(point.global_makespan_s > 0.0);
            assert!(point.async_span_s > 0.0);
            if point.population >= 1_000 {
                assert!(
                    point.global_makespan_s < point.per_cohort_makespan_s,
                    "population {}: global deadline {:.2}s must beat \
                     per-cohort {:.2}s",
                    point.population,
                    point.global_makespan_s,
                    point.per_cohort_makespan_s,
                );
            }
        }
    }

    #[test]
    fn render_emits_rows_and_probe_numbers() {
        let s = render(sweep());
        assert!(s.contains("| 1000"), "missing 1000-device rows:\n{s}");
        assert!(s.contains("ns/sample"));
        assert!(s.contains("parity"));
        assert!(!s.contains("DIVERGED"));
    }

    #[test]
    fn event_arm_measures_sparse_participation() {
        let ev = &sweep().event;
        assert_eq!(ev.population, 1_000);
        assert_eq!(ev.active, 10);
        assert!(ev.event_wall_s > 0.0);
    }

    #[test]
    fn hier_arm_keeps_byte_identity_at_every_thread_count() {
        let h = &sweep().hier;
        assert!(h.parity, "hierarchical engine diverged across threads");
        assert_eq!(h.population, 1_000);
        assert_eq!(h.thread_counts, vec![1, 2, 4]);
        assert!(h.hier_wall_s > 0.0);
    }

    #[test]
    fn mega_arm_runs_the_engine_at_full_coverage() {
        let m = &sweep().mega;
        assert_eq!(m.population, 10_000);
        assert_eq!(m.active, 100);
        assert_eq!(m.rounds, 10);
        assert_eq!(m.cohorts, 10_000usize.div_ceil(DEFAULT_COHORT_SIZE));
        assert!(m.full_coverage);
        assert!(m.mean_makespan_s > 0.0);
        assert!(m.wall_s > 0.0);
    }

    #[test]
    fn arena_population_matches_scalar_through_the_engine() {
        assert!(arena_matches_scalar(200, 20, 3, 7));
        // Degenerate geometries: a single cohort and a fully idle
        // population.
        assert!(arena_matches_scalar(40, 5, 2, 7));
        assert!(arena_matches_scalar(130, 0, 2, 7));
    }

    #[test]
    fn sparse_schedule_spreads_the_active_set() {
        let s = sparse_schedule(1_000, 10);
        assert_eq!(s.active_users(), 10);
        // Spread across cohorts, not packed into the first one.
        let first_cohort: usize = s.shards[..DEFAULT_COHORT_SIZE].iter().sum();
        assert!(first_cohort < 10);
        assert_eq!(sparse_schedule(100, 0).active_users(), 0);
    }

    #[test]
    fn render_reports_hierarchy_and_mega_sections() {
        let s = render(sweep());
        assert!(s.contains("Two-tier hierarchy"), "missing section:\n{s}");
        assert!(s.contains("Mega-scale"), "missing section:\n{s}");
        assert!(s.contains("matched"), "parity not rendered:\n{s}");
    }

    #[test]
    fn render_reports_the_event_arm() {
        let s = render(sweep());
        assert!(
            s.contains("Event core — sparse participation"),
            "missing section:\n{s}"
        );
        assert!(s.contains("event core"), "timing not rendered:\n{s}");
    }
}
