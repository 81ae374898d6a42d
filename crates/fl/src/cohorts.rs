//! Parallel multi-cohort round engine: shard a large population into
//! cohorts, simulate cohorts concurrently, merge deterministically.
//!
//! [`EventRoundSim`] is inherently sequential: one RNG stream consumed in
//! device-index order. [`ParallelRoundEngine`] scales it out by making the
//! **cohort** the unit of parallelism instead of the device. The population
//! is partitioned into fixed, contiguous cohorts ([`fixed_chunks`]); each
//! cohort owns a self-contained [`EventRoundSim`] seeded from
//! [`derive_cohort_seed`], so a cohort's timeline depends only on the
//! master seed and its index — never on which worker thread simulated it or
//! in what order.
//!
//! # Determinism contract
//!
//! * The engine's output is a pure function of (population, master seed,
//!   cohort size, chaos options). Thread count affects wall-clock only:
//!   results are collected into index-ordered slots and merged by a fold in
//!   cohort order, so every report and the spliced event log are
//!   bit-identical at 1 thread and at N threads.
//! * Cohort 0 continues the master RNG stream verbatim
//!   (`derive_cohort_seed(seed, 0) == seed`), so an engine whose cohort
//!   size covers the whole population produces byte-for-byte the output of
//!   a sequential [`EventRoundSim`] built with the same master seed.
//!   `tests/parallel_identity.rs` pins this differentially.
//! * Cohort sims live as long as the engine: repeated [`run`] calls
//!   continue each cohort's RNG stream, thermal state and round numbering
//!   exactly like repeated runs of a long-lived sequential sim.
//!
//! # Merge semantics
//!
//! With more than one cohort the aggregates are defined as: per-round
//! makespan is the max across cohorts (a synchronous server waits for the
//! slowest cohort); per-user means are concatenated in population order;
//! the comm fraction is the participant-weighted mean of cohort comm
//! fractions; chaos round outcomes sum their shard counts and recompute
//! coverage. Telemetry from each cohort is buffered per-cohort during the
//! parallel phase and spliced into the engine's probe in cohort order, with
//! user indices remapped to population indices
//! ([`Event::with_user_offset`]).
//!
//! [`run`]: ParallelRoundEngine::run

use std::ops::Range;
use std::sync::{Arc, Mutex};

use fedsched_bandit::SelectionConfig;
use fedsched_core::{DeadlinePolicy, Schedule};
use fedsched_device::{Device, TrainingWorkload};
use fedsched_faults::{AdversaryConfig, AdversaryPlan, FaultConfig, FaultInjector};
use fedsched_net::{Link, RetryPolicy};
use fedsched_parallel::{fixed_chunks, parallel_map_stealing, recommended_threads};
use fedsched_robust::AggregatorKind;
use fedsched_telemetry::{Event, EventLog, Probe};
use serde::Serialize;

use crate::builder::ConfigError;
use crate::clock::{predict_round_times, TimingReport};
use crate::eventsim::{AdmissionPolicy, EventRoundSim};
use crate::hier::fold_tier;
use crate::resilient::{ResilientRoundSim, RoundOutcome};

/// Default devices per cohort. Large enough that the per-cohort setup cost
/// is amortized, small enough that a 10k-device population spreads over
/// every worker of a typical pool.
pub const DEFAULT_COHORT_SIZE: usize = 64;

/// Environment variable overriding the engine's default thread count.
pub const THREADS_ENV: &str = "FEDSCHED_THREADS";

/// Seed for cohort `cohort` derived from `master`.
///
/// Cohort 0 continues the master stream unchanged — this is what makes a
/// single-cohort engine bit-identical to a sequential sim seeded with
/// `master`. Later cohorts get decorrelated streams via splitmix64 over
/// `master ⊕ (cohort · φ64)`.
pub fn derive_cohort_seed(master: u64, cohort: usize) -> u64 {
    if cohort == 0 {
        return master;
    }
    // splitmix64 finalizer over the (master, cohort) pair.
    let mut z = master ^ (cohort as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Default thread count for new engines: `FEDSCHED_THREADS` when set to a
/// positive integer, otherwise [`recommended_threads`]. The env override
/// lets CI force a multi-worker pool on single-core runners (and vice
/// versa) without touching call sites.
pub fn default_engine_threads() -> usize {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or_else(recommended_threads)
}

/// Fault-model configuration for every cohort. The engine instantiates one
/// injector per cohort from `config`, planned for that cohort's size and
/// derived seed.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Fault probabilities (crash, loss, churn, contention, outages).
    pub config: FaultConfig,
    /// Rounds each cohort's fault plan is generated for. Running past this
    /// horizon is fault-free, exactly like `FaultPlan::generate`.
    pub planned_rounds: usize,
    /// Retry policy applied to every transfer.
    pub retry: RetryPolicy,
    /// Per-round deadline policy, resolved per cohort (adaptive policies
    /// pool *that cohort's* predicted times — for a population-wide pooled
    /// deadline, wrap the engine in a [`Coordinator`](crate::Coordinator)).
    pub deadline: DeadlinePolicy,
    /// Whether mid-round straggler rescue is enabled.
    pub rescue: bool,
    /// Battery SoC floor below which survivors are exempt from rescue work.
    pub rescue_soc_floor: f64,
    /// Robust aggregation rule every cohort scores deliveries with
    /// (cohort-local scoring; population-level filtering is rolled up by
    /// [`merge_runs`] into [`RoundOutcome::rejected_updates`]).
    pub aggregator: AggregatorKind,
    /// Adversary model and its planned horizon, instantiated per cohort:
    /// each cohort derives its own [`AdversaryPlan`] from the cohort's
    /// size and seed — exactly like fault plans. The horizon is separate
    /// from [`ChaosOptions::planned_rounds`] so attacks and faults can
    /// cover different spans.
    pub adversary: Option<(AdversaryConfig, usize)>,
    /// Mid-round arrival admission policy, applied to every cohort.
    pub admission: AdmissionPolicy,
    /// Online bandit-driven client selection, applied per cohort: each
    /// cohort's policy picks its own `k`-device sub-cohort every round
    /// (arms are cohort-local, so selection composes with the per-cohort
    /// seed derivation exactly like fault plans).
    pub selection: Option<SelectionConfig>,
}

impl ChaosOptions {
    /// Chaos options with the resilient defaults: single-attempt transfers,
    /// no deadline, rescue enabled, no SoC floor.
    pub fn new(config: FaultConfig, planned_rounds: usize) -> Self {
        ChaosOptions {
            config,
            planned_rounds,
            retry: RetryPolicy::single_attempt(),
            deadline: DeadlinePolicy::Off,
            rescue: true,
            rescue_soc_floor: 0.0,
            aggregator: AggregatorKind::FedAvg,
            adversary: None,
            admission: AdmissionPolicy::default(),
            selection: None,
        }
    }

    /// Set the transfer retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Set the per-round deadline policy (see [`ChaosOptions::deadline`]).
    pub fn with_deadline_policy(mut self, policy: DeadlinePolicy) -> Self {
        self.deadline = policy;
        self
    }

    /// Disable straggler rescue.
    pub fn without_rescue(mut self) -> Self {
        self.rescue = false;
        self
    }

    /// Set the energy-aware rescue SoC floor.
    pub fn with_rescue_soc_floor(mut self, floor: f64) -> Self {
        self.rescue_soc_floor = floor;
        self
    }

    /// Select the robust aggregation rule (see [`ChaosOptions::aggregator`]).
    pub fn with_aggregator(mut self, kind: AggregatorKind) -> Self {
        self.aggregator = kind;
        self
    }

    /// Attach an adversary model planned for `planned_rounds` (see
    /// [`ChaosOptions::adversary`]).
    pub fn with_adversary(mut self, adversary: AdversaryConfig, planned_rounds: usize) -> Self {
        self.adversary = Some((adversary, planned_rounds));
        self
    }

    /// Set the mid-round arrival admission policy (see
    /// [`ChaosOptions::admission`]).
    pub fn with_admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = policy;
        self
    }

    /// Enable online bandit-driven client selection (see
    /// [`ChaosOptions::selection`]).
    pub fn with_selection(mut self, config: SelectionConfig) -> Self {
        self.selection = Some(config);
        self
    }
}

/// One cohort's contribution to an engine run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CohortReport {
    /// First population index of this cohort (inclusive).
    pub start: usize,
    /// One past the last population index of this cohort.
    pub end: usize,
    /// The cohort's derived RNG seed.
    pub seed: u64,
    /// The cohort's own timing report (user indices are cohort-local).
    pub timing: TimingReport,
    /// Per-round fault outcomes (full coverage, no failures on a quiet
    /// cohort).
    pub rounds: Vec<RoundOutcome>,
}

/// Aggregate result of one [`ParallelRoundEngine::run`] call.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EngineReport {
    /// Population-wide timing: per-round makespan is the max across
    /// cohorts, per-user means are in population order.
    pub timing: TimingReport,
    /// Population-wide per-round outcomes (shard counts summed across
    /// cohorts, coverage recomputed).
    pub rounds: Vec<RoundOutcome>,
    /// Per-cohort breakdowns, in cohort order.
    pub cohorts: Vec<CohortReport>,
}

impl EngineReport {
    /// Mean per-round coverage across the population.
    pub fn mean_coverage(&self) -> f64 {
        if self.rounds.is_empty() {
            return 1.0;
        }
        self.rounds.iter().map(|r| r.coverage).sum::<f64>() / self.rounds.len() as f64
    }

    /// Total shards lost across all rounds.
    pub fn total_lost(&self) -> usize {
        self.rounds.iter().map(|r| r.lost_shards).sum()
    }
}

/// A cohort and its long-lived simulator. The `Mutex` is never contended —
/// each work item touches exactly one slot — it exists to hand `&mut`
/// access to whichever worker claims the cohort.
struct CohortSlot {
    range: Range<usize>,
    seed: u64,
    sim: Mutex<EventRoundSim>,
    /// Per-cohort event buffer; `Some` iff the engine probe is enabled.
    log: Option<Arc<EventLog>>,
}

/// What one cohort returns from the parallel phase.
struct CohortRun {
    timing: TimingReport,
    rounds: Vec<RoundOutcome>,
    /// Events already remapped to population user indices.
    events: Vec<Event>,
}

/// Scales [`EventRoundSim`] to large populations by simulating fixed
/// cohorts concurrently. See the module docs for the determinism contract
/// and merge semantics.
pub struct ParallelRoundEngine {
    /// Population, held until the first run builds the cohort sims.
    pending_devices: Vec<Device>,
    workload: TrainingWorkload,
    link: Link,
    model_bytes: f64,
    seed: u64,
    n: usize,
    cohort_size: usize,
    threads: usize,
    probe: Probe,
    chaos: ChaosOptions,
    slots: Vec<CohortSlot>,
    rounds_done: usize,
}

impl ParallelRoundEngine {
    /// Positional constructor backing the
    /// [`SimBuilder`](crate::SimBuilder), the only public construction
    /// path (the `new` shim was removed with the job-spec API).
    pub(crate) fn from_parts(
        devices: Vec<Device>,
        workload: TrainingWorkload,
        link: Link,
        model_bytes: f64,
        seed: u64,
    ) -> Self {
        let n = devices.len();
        ParallelRoundEngine {
            pending_devices: devices,
            workload,
            link,
            model_bytes,
            seed,
            n,
            cohort_size: DEFAULT_COHORT_SIZE,
            threads: default_engine_threads(),
            probe: Probe::disabled(),
            chaos: ChaosOptions::new(FaultConfig::none(), 0),
            slots: Vec::new(),
            rounds_done: 0,
        }
    }

    /// Set the cohort size (devices per parallel unit). Changing it changes
    /// the cohort seeds and therefore the simulated timeline; thread count
    /// does not.
    ///
    /// # Panics
    /// Panics if `size` is zero or the engine has already run.
    pub fn with_cohort_size(self, size: usize) -> Self {
        assert!(size > 0, "cohort size must be positive");
        match self.try_with_cohort_size(size) {
            Ok(eng) => eng,
            Err(err) => panic!("configure the engine before its first run ({err})"),
        }
    }

    /// Fallible form of [`ParallelRoundEngine::with_cohort_size`].
    pub fn try_with_cohort_size(mut self, size: usize) -> Result<Self, ConfigError> {
        if size == 0 {
            return Err(ConfigError::ZeroCohortSize);
        }
        self.check_unbuilt("cohort size")?;
        self.cohort_size = size;
        Ok(self)
    }

    /// Set the worker thread count. Affects wall-clock only, never results.
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    pub fn with_threads(self, threads: usize) -> Self {
        assert!(threads > 0, "thread count must be positive");
        self.try_with_threads(threads)
            .expect("positive thread count is always accepted")
    }

    /// Fallible form of [`ParallelRoundEngine::with_threads`].
    pub fn try_with_threads(mut self, threads: usize) -> Result<Self, ConfigError> {
        if threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        self.threads = threads;
        Ok(self)
    }

    /// Attach a telemetry probe. During the parallel phase each cohort
    /// records into a private buffer; after every cohort finishes, the
    /// buffers are spliced into `probe` in cohort order with user indices
    /// remapped to population indices — so the delivered stream is ordered
    /// and deterministic even though cohorts ran concurrently.
    ///
    /// # Panics
    /// Panics if the engine has already run.
    pub fn with_probe(self, probe: Probe) -> Self {
        match self.try_with_probe(probe) {
            Ok(eng) => eng,
            Err(err) => panic!("configure the engine before its first run ({err})"),
        }
    }

    /// Fallible form of [`ParallelRoundEngine::with_probe`].
    pub fn try_with_probe(mut self, probe: Probe) -> Result<Self, ConfigError> {
        self.check_unbuilt("probe")?;
        self.probe = probe;
        Ok(self)
    }

    /// Configure every cohort's fault model and recovery controls from
    /// `options` (without it, cohorts run a quiet injector with the default
    /// controls). Each cohort gets its own injector planned for its size
    /// and derived seed, so fault fates — like everything else — depend
    /// only on the master seed and cohort geometry.
    ///
    /// # Panics
    /// Panics if the engine has already run.
    pub fn with_chaos(self, options: ChaosOptions) -> Self {
        match self.try_with_chaos(options) {
            Ok(eng) => eng,
            Err(err) => panic!("configure the engine before its first run ({err})"),
        }
    }

    /// Fallible form of [`ParallelRoundEngine::with_chaos`].
    pub fn try_with_chaos(mut self, options: ChaosOptions) -> Result<Self, ConfigError> {
        self.check_unbuilt("chaos options")?;
        self.chaos = options;
        Ok(self)
    }

    fn check_unbuilt(&self, what: &'static str) -> Result<(), ConfigError> {
        if self.slots.is_empty() {
            Ok(())
        } else {
            Err(ConfigError::ConfiguredAfterRun(what))
        }
    }

    /// Population size.
    pub fn n_devices(&self) -> usize {
        self.n
    }

    /// A clone of the engine's probe (shares the attached sink), for the
    /// coordinator to emit population-level events into the same stream.
    pub(crate) fn probe_handle(&self) -> Probe {
        self.probe.clone()
    }

    /// Number of cohorts the population partitions into.
    pub fn n_cohorts(&self) -> usize {
        self.n.div_ceil(self.cohort_size)
    }

    /// Worker threads used for the parallel phase.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Rounds simulated so far across all `run` calls.
    pub fn rounds_done(&self) -> usize {
        self.rounds_done
    }

    /// Snapshot of the population's devices in population order (e.g. to
    /// inspect battery drain afterwards). Clones — cohort sims keep the
    /// originals alive across runs.
    pub fn devices(&self) -> Vec<Device> {
        if self.slots.is_empty() {
            return self.pending_devices.clone();
        }
        let mut out = Vec::with_capacity(self.n);
        for slot in &self.slots {
            out.extend_from_slice(slot.sim.lock().unwrap().devices());
        }
        out
    }

    /// Reset every device's thermal state (between experiment arms).
    pub fn cool_down(&mut self) {
        for d in &mut self.pending_devices {
            d.cool_down();
        }
        for slot in &self.slots {
            slot.sim.lock().unwrap().cool_down();
        }
    }

    /// Build the per-cohort sims on first use.
    fn ensure_slots(&mut self) {
        if !self.slots.is_empty() || self.n == 0 {
            return;
        }
        let mut devices = std::mem::take(&mut self.pending_devices);
        let mut slots = Vec::with_capacity(self.n_cohorts());
        // Walk chunks back-to-front so each cohort can split off the tail.
        let ranges: Vec<Range<usize>> = fixed_chunks(self.n, self.cohort_size).collect();
        let mut tails: Vec<Vec<Device>> = Vec::with_capacity(ranges.len());
        for range in ranges.iter().rev() {
            tails.push(devices.split_off(range.start));
        }
        tails.reverse();
        for (cohort, (range, cohort_devices)) in ranges.into_iter().zip(tails).enumerate() {
            let seed = derive_cohort_seed(self.seed, cohort);
            let log = self.probe.is_enabled().then(|| Arc::new(EventLog::new()));
            let cohort_probe = match &log {
                Some(log) => Probe::attached(log.clone() as Arc<_>),
                None => Probe::disabled(),
            };
            let opts = &self.chaos;
            let injector = FaultInjector::from_config(
                opts.config.clone(),
                range.len(),
                opts.planned_rounds,
                seed,
            );
            let mut core = ResilientRoundSim::from_parts(
                cohort_devices,
                self.workload,
                self.link,
                self.model_bytes,
                seed,
                injector,
            )
            .with_probe(cohort_probe)
            .with_retry(opts.retry)
            .with_deadline_policy(opts.deadline)
            .with_rescue_soc_floor(opts.rescue_soc_floor)
            .with_aggregator(opts.aggregator);
            if !opts.rescue {
                core = core.without_rescue();
            }
            if let Some((adv, adv_rounds)) = &opts.adversary {
                core = core.with_adversary(AdversaryPlan::generate(
                    *adv,
                    range.len(),
                    *adv_rounds,
                    seed,
                ));
            }
            if let Some(sel) = &opts.selection {
                core = core.with_selection(*sel);
            }
            let mut sim = EventRoundSim::new(core);
            sim.set_admission(opts.admission);
            slots.push(CohortSlot {
                range,
                seed,
                sim: Mutex::new(sim),
                log,
            });
        }
        self.slots = slots;
    }

    /// Simulate `rounds` synchronous rounds of `schedule` across the whole
    /// population, cohorts in parallel. Device state persists across calls.
    ///
    /// # Panics
    /// Panics if the schedule's user count differs from the population.
    pub fn run(&mut self, schedule: &Schedule, rounds: usize) -> EngineReport {
        assert_eq!(
            schedule.shards.len(),
            self.n,
            "schedule/population size mismatch"
        );
        self.ensure_slots();

        let sub_schedules: Vec<Schedule> = self
            .slots
            .iter()
            .map(|slot| {
                Schedule::new(
                    schedule.shards[slot.range.clone()].to_vec(),
                    schedule.shard_size,
                )
            })
            .collect();

        let slots = &self.slots;
        let first_round = self.rounds_done;
        let runs: Vec<CohortRun> = parallel_map_stealing(slots.len(), self.threads, |c| {
            let slot = &slots[c];
            let sub = &sub_schedules[c];
            let report = slot.sim.lock().unwrap().run(sub, rounds);
            let events = match &slot.log {
                Some(log) => log
                    .take()
                    .into_iter()
                    .map(|ev| ev.with_user_offset(slot.range.start))
                    .collect(),
                None => Vec::new(),
            };
            CohortRun {
                timing: report.timing,
                rounds: report.rounds,
                events,
            }
        });

        // Splice the per-cohort event buffers into the engine probe in
        // cohort order. Each buffer is internally ordered, so the merged
        // stream is a deterministic function of the master seed alone.
        for run in &runs {
            for ev in &run.events {
                self.probe.emit(|| ev.clone());
            }
        }

        let report = merge_runs(&self.slots, &sub_schedules, runs, rounds, first_round);
        self.rounds_done += rounds;
        report
    }

    /// Push one straggler deadline into every cohort (or clear them with
    /// `None`). This is the [`Coordinator`](crate::Coordinator) hook for
    /// applying a globally-resolved deadline before a round runs; it builds
    /// the cohort sims if needed but never advances any RNG stream.
    pub(crate) fn set_cohort_deadlines(&mut self, deadline_s: Option<f64>) {
        self.ensure_slots();
        for slot in &self.slots {
            slot.sim.lock().unwrap().set_deadline(deadline_s);
        }
    }

    /// Side-effect-free per-user predicted round times for `schedule`,
    /// pooled over the *whole population* in population order. Built from a
    /// snapshot of current device state (thermal throttling included) and
    /// never draws from any RNG — calling it does not perturb the simulated
    /// timeline. The [`Coordinator`](crate::Coordinator) resolves adaptive
    /// [`DeadlinePolicy`] values against this pool.
    pub fn predicted_user_times(&self, schedule: &Schedule) -> Vec<f64> {
        assert_eq!(
            schedule.shards.len(),
            self.n,
            "schedule/population size mismatch"
        );
        predict_round_times(
            &self.devices(),
            &self.workload,
            &self.link,
            self.model_bytes,
            schedule,
        )
    }
}

/// Fold per-cohort runs into the aggregate report, in cohort order, with
/// the same tier fold the hierarchy applies at its edges and server.
fn merge_runs(
    slots: &[CohortSlot],
    sub_schedules: &[Schedule],
    runs: Vec<CohortRun>,
    rounds: usize,
    first_round: usize,
) -> EngineReport {
    let cohorts: Vec<CohortReport> = slots
        .iter()
        .zip(runs)
        .map(|(slot, run)| CohortReport {
            start: slot.range.start,
            end: slot.range.end,
            seed: slot.seed,
            timing: run.timing,
            rounds: run.rounds,
        })
        .collect();
    let items: Vec<_> = cohorts
        .iter()
        .zip(sub_schedules)
        .map(|(c, sub)| (&c.timing, c.rounds.as_slice(), sub.active_users()))
        .collect();
    let (timing, rounds) = fold_tier(&items, rounds, first_round);
    EngineReport {
        timing,
        rounds,
        cohorts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsched_device::{DeviceModel, Testbed};
    use fedsched_faults::FaultConfig;

    const MODEL_BYTES: f64 = 2.5e6;

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

    fn engine(n: usize, seed: u64) -> ParallelRoundEngine {
        ParallelRoundEngine::from_parts(
            population(n, seed),
            TrainingWorkload::lenet(),
            Link::wifi_campus(),
            MODEL_BYTES,
            seed,
        )
    }

    fn uniform_schedule(n: usize, shards: usize) -> Schedule {
        Schedule::new(vec![shards; n], 100.0)
    }

    #[test]
    fn cohort_seed_zero_is_master() {
        assert_eq!(derive_cohort_seed(42, 0), 42);
        assert_ne!(derive_cohort_seed(42, 1), 42);
        assert_ne!(derive_cohort_seed(42, 1), derive_cohort_seed(42, 2));
        assert_ne!(derive_cohort_seed(42, 1), derive_cohort_seed(43, 1));
    }

    #[test]
    fn single_cohort_engine_matches_lockstep_oracle() {
        let tb = Testbed::testbed_1(7);
        let schedule = Schedule::new(vec![10, 10, 10], 100.0);
        let mut reference = ResilientRoundSim::from_parts(
            tb.devices().to_vec(),
            TrainingWorkload::lenet(),
            Link::wifi_campus(),
            MODEL_BYTES,
            7,
            FaultInjector::quiet(3),
        );
        let expected = reference.run(&schedule, 4);

        for threads in [1, 4] {
            let mut eng = ParallelRoundEngine::from_parts(
                tb.devices().to_vec(),
                TrainingWorkload::lenet(),
                Link::wifi_campus(),
                MODEL_BYTES,
                7,
            )
            .with_threads(threads);
            let report = eng.run(&schedule, 4);
            assert_eq!(report.timing, expected.timing, "threads={threads}");
            assert_eq!(report.rounds, expected.rounds, "threads={threads}");
            assert_eq!(report.cohorts.len(), 1);
        }
    }

    #[test]
    fn thread_count_never_changes_results() {
        let n = 53; // several cohorts of 8, last one ragged
        let schedule = uniform_schedule(n, 3);
        let baseline = engine(n, 11)
            .with_cohort_size(8)
            .with_threads(1)
            .run(&schedule, 3);
        for threads in [2, 4, 8] {
            let report = engine(n, 11)
                .with_cohort_size(8)
                .with_threads(threads)
                .run(&schedule, 3);
            assert_eq!(report, baseline, "threads={threads}");
        }
    }

    #[test]
    fn spliced_event_log_is_thread_invariant_and_population_indexed() {
        use std::sync::Arc;
        let n = 20;
        let schedule = uniform_schedule(n, 2);
        let jsonl = |threads: usize| {
            let log = Arc::new(EventLog::new());
            engine(n, 3)
                .with_cohort_size(6)
                .with_threads(threads)
                .with_probe(Probe::attached(log.clone()))
                .run(&schedule, 2);
            log.to_jsonl()
        };
        let one = jsonl(1);
        assert_eq!(one, jsonl(4), "JSONL must not depend on thread count");

        // User spans must cover the full population index range, proving
        // the per-cohort indices were remapped.
        let log = Arc::new(EventLog::new());
        engine(n, 3)
            .with_cohort_size(6)
            .with_threads(4)
            .with_probe(Probe::attached(log.clone()))
            .run(&schedule, 1);
        let users: Vec<usize> = log
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::UserSpan { user, .. } => Some(*user),
                _ => None,
            })
            .collect();
        assert_eq!(users.iter().max(), Some(&(n - 1)));
        assert_eq!(users.iter().min(), Some(&0));
        assert_eq!(users.len(), n);
    }

    #[test]
    fn merged_timing_matches_cohort_fold() {
        let n = 30;
        let schedule = uniform_schedule(n, 2);
        let report = engine(n, 5).with_cohort_size(7).run(&schedule, 3);
        assert_eq!(report.cohorts.len(), 5);
        assert_eq!(report.timing.per_user_mean.len(), n);
        for r in 0..3 {
            let max = report
                .cohorts
                .iter()
                .map(|c| c.timing.per_round_makespan[r])
                .fold(0.0f64, f64::max);
            assert_eq!(report.timing.per_round_makespan[r], max);
            assert_eq!(report.rounds[r].scheduled, 2 * n);
            assert_eq!(report.rounds[r].coverage, 1.0);
        }
        // Per-user means concatenate in population order.
        let concat: Vec<f64> = report
            .cohorts
            .iter()
            .flat_map(|c| c.timing.per_user_mean.iter().copied())
            .collect();
        assert_eq!(report.timing.per_user_mean, concat);
    }

    #[test]
    fn chaos_engine_is_thread_invariant() {
        let n = 24;
        let schedule = uniform_schedule(n, 2);
        let opts = ChaosOptions::new(
            FaultConfig::none().with_crash_prob(0.2).with_loss_prob(0.1),
            4,
        )
        .with_retry(RetryPolicy::default_chaos());
        let run = |threads: usize| {
            engine(n, 19)
                .with_cohort_size(5)
                .with_threads(threads)
                .with_chaos(opts.clone())
                .run(&schedule, 4)
        };
        let baseline = run(1);
        assert_eq!(run(4), baseline);
        assert_eq!(run(8), baseline);
        // The fault model actually fired somewhere.
        assert!(
            baseline.total_lost() > 0 || baseline.rounds.iter().any(|r| r.rescued > 0),
            "chaos config should perturb at least one cohort"
        );
    }

    #[test]
    fn single_cohort_chaos_matches_sequential_resilient() {
        let n = 9;
        let schedule = uniform_schedule(n, 2);
        let config = FaultConfig::none().with_crash_prob(0.3);
        let mut reference = ResilientRoundSim::from_parts(
            population(n, 13),
            TrainingWorkload::lenet(),
            Link::wifi_campus(),
            MODEL_BYTES,
            13,
            FaultInjector::from_config(config.clone(), n, 3, 13),
        );
        let expected = reference.run(&schedule, 3);

        let report = engine(n, 13)
            .with_cohort_size(n)
            .with_threads(4)
            .with_chaos(ChaosOptions::new(config, 3))
            .run(&schedule, 3);
        assert_eq!(report.timing, expected.timing);
        assert_eq!(report.rounds, expected.rounds);
    }

    #[test]
    fn repeated_runs_continue_cohort_state() {
        let n = 12;
        let schedule = uniform_schedule(n, 2);
        // One engine run twice == a fresh engine run for the total span,
        // because cohort sims (RNG, thermal state, round indices) persist.
        let mut eng = engine(n, 23).with_cohort_size(4);
        let first = eng.run(&schedule, 2);
        let second = eng.run(&schedule, 2);
        assert_eq!(eng.rounds_done(), 4);
        assert_eq!(second.rounds[0].round, 2);

        let whole = engine(n, 23).with_cohort_size(4).run(&schedule, 4);
        assert_eq!(
            whole.timing.per_round_makespan[..2],
            first.timing.per_round_makespan[..]
        );
        assert_eq!(
            whole.timing.per_round_makespan[2..],
            second.timing.per_round_makespan[..]
        );
    }

    #[test]
    fn empty_population_yields_empty_report() {
        let mut eng = engine(0, 1);
        let report = eng.run(&Schedule::new(vec![], 100.0), 2);
        assert_eq!(report.timing.per_round_makespan, vec![0.0, 0.0]);
        assert!(report.timing.per_user_mean.is_empty());
        assert_eq!(report.timing.comm_fraction, 0.0);
        assert_eq!(report.rounds.len(), 2);
        assert!(report.cohorts.is_empty());
    }

    #[test]
    fn devices_snapshot_preserves_population_order_and_drain() {
        let n = 10;
        let schedule = uniform_schedule(n, 3);
        let mut eng = engine(n, 31).with_cohort_size(3);
        let before = eng.devices();
        assert_eq!(before.len(), n);
        eng.run(&schedule, 2);
        let after = eng.devices();
        assert_eq!(after.len(), n);
        for (b, a) in before.iter().zip(&after) {
            assert!(
                a.battery_soc() < b.battery_soc(),
                "training must drain each device"
            );
        }
    }

    #[test]
    #[should_panic(expected = "population size mismatch")]
    fn wrong_schedule_arity_panics() {
        let mut eng = engine(5, 1);
        let _ = eng.run(&Schedule::new(vec![1; 4], 100.0), 1);
    }

    #[test]
    #[should_panic(expected = "before its first run")]
    fn late_configuration_panics() {
        let mut eng = engine(5, 1);
        let _ = eng.run(&uniform_schedule(5, 1), 1);
        let _ = eng.with_cohort_size(2);
    }
}
