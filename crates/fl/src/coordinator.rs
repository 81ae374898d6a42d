//! Cross-cohort coordination: one control loop above a default-topology
//! [`HierEngine`].
//!
//! The engine scales the simulation out, but each cohort still makes its
//! decisions from cohort-local information — an adaptive deadline resolved
//! inside a slow cohort is lax exactly where it should bite. The
//! [`Coordinator`] closes that loop at the population level:
//!
//! * **Global straggler deadline** — before each round it pools
//!   side-effect-free predicted per-user times across *every* cohort,
//!   resolves the [`DeadlinePolicy`] once against the pooled distribution,
//!   and pushes the single resulting cutoff into every cohort
//!   ([`Event::GlobalDeadlineSet`]). Deadline-cut shards keep their partial
//!   credit and rescue accounting, now rolled up population-wide.
//! * **Barrier aggregation** — after the cohorts run, per-round outcomes
//!   merge into population-level [`GlobalRoundOutcome`]s that name the
//!   straggling cohorts ([`Event::CohortStraggling`]).
//! * **Buffered async mode** — alternatively, cohorts report into a
//!   buffered aggregator (FedBuff-style): the server merges as soon as
//!   `buffer` updates are queued, discounting each by the shared FedAsync
//!   staleness weight ([`staleness_weight`]), with all bookkeeping in
//!   simulated time ([`Event::AsyncMerge`]).
//!
//! Neither mode has a hierarchical equivalent, so the coordinator keeps
//! its own build target; its engine always has one edge per cohort, whose
//! server fold is the flat cohort merge ([`EngineReport`]).
//!
//! # Determinism contract
//!
//! Everything the coordinator adds is plain arithmetic over the engine's
//! deterministic outputs, computed on the control thread: results and
//! telemetry are bit-identical at any thread count. With
//! [`DeadlinePolicy::Off`] in barrier mode the coordinator is a pure
//! pass-through — byte-identical reports and event streams to driving the
//! engine directly (pinned by `tests/coordinator_identity.rs`).

use fedsched_core::{DeadlinePolicy, EventQueue, Schedule};
use fedsched_telemetry::{Event, Probe};
use serde::Serialize;

use crate::asyncfl::staleness_weight;
use crate::clock::TimingReport;
use crate::cohorts::CohortReport;
use crate::hier::{HierEngine, HierReport};
use crate::resilient::RoundOutcome;

/// Population-level result of a coordinated run: the default-topology
/// [`HierReport`] without its (trivial) tier breakdowns.
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

impl From<HierReport> for EngineReport {
    fn from(report: HierReport) -> Self {
        EngineReport {
            timing: report.timing,
            rounds: report.rounds,
            cohorts: report.cohorts,
        }
    }
}

/// How cohort results meet the global model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum CoordinationMode {
    /// Synchronous: every round waits for all cohorts, then aggregates.
    Barrier,
    /// FedBuff-style: cohort updates queue into a buffer of size `buffer`;
    /// each flush merges the queued updates with staleness discount
    /// `eta / (1 + staleness)` and bumps the server version once.
    BufferedAsync {
        /// Updates per merge.
        buffer: usize,
        /// Base mixing rate.
        eta: f64,
    },
}

/// One population-level round as the coordinator saw it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GlobalRoundOutcome {
    /// The merged cross-cohort outcome (shard accounting summed, coverage
    /// recomputed, makespan = slowest cohort).
    pub outcome: RoundOutcome,
    /// The global deadline in force, if any.
    pub deadline_s: Option<f64>,
    /// Cohorts that set the population makespan or had users cut by the
    /// deadline.
    pub straggling_cohorts: Vec<usize>,
    /// Every cohort's round makespan, in cohort order.
    pub cohort_makespans: Vec<f64>,
}

/// One staleness-discounted merge performed in buffered-async mode.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MergeRecord {
    /// Simulated time of the flush that merged this update.
    pub t_s: f64,
    /// Reporting cohort.
    pub cohort: usize,
    /// Global round index of the cohort's update.
    pub round: usize,
    /// Server versions elapsed since the cohort pulled.
    pub staleness: usize,
    /// Effective mixing weight, `eta / (1 + staleness)`.
    pub weight: f64,
}

/// Aggregate result of one [`Coordinator::run`] call.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CoordinatorReport {
    /// The underlying population report (timing, per-cohort
    /// breakdowns). With the policy off in barrier mode this is
    /// byte-identical to driving the engine directly.
    pub engine: EngineReport,
    /// Population-level per-round outcomes with coordination context.
    pub global_rounds: Vec<GlobalRoundOutcome>,
    /// Buffered-async merge ledger (empty in barrier mode).
    pub merges: Vec<MergeRecord>,
    /// Simulated span of this call: sum of population round makespans in
    /// barrier mode (server waits each round), slowest cohort's total
    /// busy time in async mode (nobody waits).
    pub span_s: f64,
}

impl CoordinatorReport {
    /// Total shards lost across all rounds.
    pub fn total_lost(&self) -> usize {
        self.engine.total_lost()
    }

    /// Mean per-round population coverage.
    pub fn mean_coverage(&self) -> f64 {
        self.engine.mean_coverage()
    }
}

/// A cohort update waiting in the async buffer.
#[derive(Debug, Clone, Copy)]
struct PendingUpdate {
    cohort: usize,
    round: usize,
    pull_version: usize,
}

/// Cross-cohort coordination engine. Build with
/// [`SimBuilder::build_coordinator`](crate::SimBuilder::build_coordinator).
pub struct Coordinator {
    engine: HierEngine,
    policy: DeadlinePolicy,
    mode: CoordinationMode,
    probe: Probe,
    /// Server model version (bumped once per async flush).
    server_version: usize,
    /// Per-cohort simulated clock (async mode): when the cohort last
    /// reported in.
    cohort_clock: Vec<f64>,
    /// Server version each cohort last pulled (async mode).
    cohort_pull_version: Vec<usize>,
    /// Updates queued but not yet merged (async mode; persists across
    /// calls).
    buffer: Vec<PendingUpdate>,
}

impl Coordinator {
    /// Assemble a coordinator over a default-topology engine. The engine
    /// must have been built with its own deadline policy off — the
    /// coordinator owns deadline resolution.
    pub(crate) fn from_parts(
        engine: HierEngine,
        policy: DeadlinePolicy,
        mode: CoordinationMode,
    ) -> Self {
        let probe = engine.probe_handle();
        Coordinator {
            engine,
            policy,
            mode,
            probe,
            server_version: 0,
            cohort_clock: Vec::new(),
            cohort_pull_version: Vec::new(),
            buffer: Vec::new(),
        }
    }

    /// The deadline policy resolved globally each round.
    pub fn policy(&self) -> DeadlinePolicy {
        self.policy
    }

    /// The coordination mode.
    pub fn mode(&self) -> CoordinationMode {
        self.mode
    }

    /// The underlying engine (e.g. for device snapshots).
    pub fn engine(&self) -> &HierEngine {
        &self.engine
    }

    /// Rounds simulated so far across all `run` calls.
    pub fn rounds_done(&self) -> usize {
        self.engine.rounds_done()
    }

    /// Server model version (async mode; barrier mode leaves it at zero).
    pub fn server_version(&self) -> usize {
        self.server_version
    }

    /// Simulate `rounds` coordinated rounds of `schedule`. Cohort state
    /// (RNG streams, thermal, round numbering, async clocks) persists
    /// across calls exactly like the engine's.
    ///
    /// # Panics
    /// Panics if the schedule's user count differs from the population.
    pub fn run(&mut self, schedule: &Schedule, rounds: usize) -> CoordinatorReport {
        match self.mode {
            CoordinationMode::Barrier if self.policy.is_off() => {
                self.run_passthrough(schedule, rounds)
            }
            CoordinationMode::Barrier => self.run_barrier(schedule, rounds),
            CoordinationMode::BufferedAsync { buffer, eta } => {
                self.run_async(schedule, rounds, buffer, eta)
            }
        }
    }

    /// Off-policy barrier mode: one pass-through engine call, so reports
    /// and the spliced event stream stay byte-identical to the bare
    /// engine. (Looping per round here would re-order the spliced JSONL.)
    fn run_passthrough(&mut self, schedule: &Schedule, rounds: usize) -> CoordinatorReport {
        let report = EngineReport::from(self.engine.run(schedule, rounds));
        let global_rounds = global_rounds_of(&report, &vec![None; rounds]);
        let span_s = report.timing.per_round_makespan.iter().sum();
        CoordinatorReport {
            engine: report,
            global_rounds,
            merges: Vec::new(),
            span_s,
        }
    }

    /// Deadline barrier mode: resolve one pooled deadline, push it into
    /// every cohort, run one round, account — round by round.
    fn run_barrier(&mut self, schedule: &Schedule, rounds: usize) -> CoordinatorReport {
        let mut deadlines = Vec::with_capacity(rounds);
        let mut reports = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let round = self.engine.rounds_done();
            // Predictions are side-effect-free (clones, no RNG), so the
            // resolution is invisible to the simulated timeline.
            let predicted = self.engine.predicted_user_times(schedule);
            let deadline_s = self.policy.resolve(&predicted);
            let pooled = predicted
                .iter()
                .filter(|t| t.is_finite() && **t > 0.0)
                .count();
            self.engine.set_cohort_deadlines(deadline_s);
            let n_cohorts = self.engine.n_cohorts();
            let policy_name = self.policy.name();
            self.probe.emit(|| Event::GlobalDeadlineSet {
                round,
                policy: policy_name.to_string(),
                deadline_s,
                pooled,
                cohorts: n_cohorts,
            });

            let report = EngineReport::from(self.engine.run(schedule, 1));
            for (cohort, straggle) in straggling_cohorts(&report, 0) {
                let makespan_s = report.cohorts[cohort].timing.per_round_makespan[0];
                self.probe.emit(|| Event::CohortStraggling {
                    round,
                    cohort,
                    makespan_s,
                    deadline_s,
                    timed_out: straggle.timed_out,
                });
            }
            deadlines.push(deadline_s);
            reports.push(report);
        }
        let report = fold_reports(reports);
        let global_rounds = global_rounds_of(&report, &deadlines);
        let span_s = report.timing.per_round_makespan.iter().sum();
        CoordinatorReport {
            engine: report,
            global_rounds,
            merges: Vec::new(),
            span_s,
        }
    }

    /// Buffered-async mode: the cohorts simulate exactly as in
    /// pass-through, but aggregation is re-timed — each cohort reports in
    /// at its own cumulative pace and the server merges per `buffer`
    /// arrivals with staleness discount.
    ///
    /// Cohort merges are *events in one global simulated-time stream*: a
    /// per-call [`EventQueue`] keyed by `(time, seq)`, with completions
    /// scheduled cohort-major so equal-time ties pop lowest-cohort first
    /// and a cohort's own rounds pop in round order — exactly the ordering
    /// the old per-cohort clock bookkeeping sorted into, now produced by
    /// the same event core the round engines drain. All scheduling is
    /// post-hoc arithmetic over per-cohort makespans, hence
    /// thread-invariant; the staleness-weighted merge ledger is unchanged.
    fn run_async(
        &mut self,
        schedule: &Schedule,
        rounds: usize,
        buffer: usize,
        eta: f64,
    ) -> CoordinatorReport {
        let report = EngineReport::from(self.engine.run(schedule, rounds));
        let n_cohorts = report.cohorts.len();
        if self.cohort_clock.len() != n_cohorts {
            self.cohort_clock = vec![0.0; n_cohorts];
            self.cohort_pull_version = vec![0; n_cohorts];
        }

        // Each cohort finishes its rounds back-to-back on its own clock;
        // nobody waits for anybody. Its completions enter the global
        // stream at cumulative cohort time, carrying (cohort, round).
        let mut stream: EventQueue<(usize, usize)> = EventQueue::new();
        let mut span_s = 0.0f64;
        for (c, cohort) in report.cohorts.iter().enumerate() {
            let start = self.cohort_clock[c];
            let mut t = start;
            for (r, &m) in cohort.timing.per_round_makespan.iter().enumerate() {
                t += m;
                stream.schedule(t, (c, cohort.rounds[r].round));
            }
            self.cohort_clock[c] = t;
            span_s = span_s.max(t - start);
        }

        let mut merges = Vec::new();
        while let Some((t, _seq, (c, round))) = stream.pop() {
            self.buffer.push(PendingUpdate {
                cohort: c,
                round,
                pull_version: self.cohort_pull_version[c],
            });
            if self.buffer.len() >= buffer {
                for item in std::mem::take(&mut self.buffer) {
                    let staleness = self.server_version - item.pull_version;
                    let weight = staleness_weight(eta, staleness);
                    self.probe.emit(|| Event::AsyncMerge {
                        t_s: t,
                        user: item.cohort,
                        staleness,
                        weight,
                    });
                    merges.push(MergeRecord {
                        t_s: t,
                        cohort: item.cohort,
                        round: item.round,
                        staleness,
                        weight,
                    });
                }
                self.server_version += 1;
            }
            // The cohort pulls the freshest model before its next round.
            self.cohort_pull_version[c] = self.server_version;
        }

        let global_rounds = global_rounds_of(&report, &vec![None; rounds]);
        CoordinatorReport {
            engine: report,
            global_rounds,
            merges,
            span_s,
        }
    }
}

/// Which cohorts straggled in round `r` of `report`: set the population
/// makespan, or had users deadline-cut.
struct Straggle {
    timed_out: usize,
}

fn straggling_cohorts(report: &EngineReport, r: usize) -> Vec<(usize, Straggle)> {
    let pop_max = report.timing.per_round_makespan[r];
    report
        .cohorts
        .iter()
        .enumerate()
        .filter_map(|(c, cohort)| {
            let makespan = cohort.timing.per_round_makespan[r];
            let timed_out = cohort.rounds[r].timed_out;
            if (pop_max > 0.0 && makespan == pop_max) || timed_out > 0 {
                Some((c, Straggle { timed_out }))
            } else {
                None
            }
        })
        .collect()
}

/// Wrap an engine report's rounds in coordination context.
fn global_rounds_of(report: &EngineReport, deadlines: &[Option<f64>]) -> Vec<GlobalRoundOutcome> {
    report
        .rounds
        .iter()
        .enumerate()
        .map(|(r, outcome)| GlobalRoundOutcome {
            outcome: outcome.clone(),
            deadline_s: deadlines.get(r).copied().flatten(),
            straggling_cohorts: straggling_cohorts(report, r)
                .into_iter()
                .map(|(c, _)| c)
                .collect(),
            cohort_makespans: report
                .cohorts
                .iter()
                .map(|c| c.timing.per_round_makespan[r])
                .collect(),
        })
        .collect()
}

/// Fold single-round engine reports into one multi-round report, matching
/// the arithmetic a single multi-round engine call would have produced:
/// makespans concatenate, per-user means average over rounds, comm
/// fraction is the per-round mean.
fn fold_reports(reports: Vec<EngineReport>) -> EngineReport {
    let rounds = reports.len();
    if rounds == 1 {
        return reports.into_iter().next().expect("one report");
    }
    let mut iter = reports.into_iter();
    let mut acc = iter.next().expect("at least one round");
    let mut user_totals: Vec<f64> = acc.timing.per_user_mean.clone();
    let mut comm_sum = acc.timing.comm_fraction;
    let mut cohort_user_totals: Vec<Vec<f64>> = acc
        .cohorts
        .iter()
        .map(|c| c.timing.per_user_mean.clone())
        .collect();
    let mut cohort_comm_sums: Vec<f64> =
        acc.cohorts.iter().map(|c| c.timing.comm_fraction).collect();
    for rep in iter {
        acc.timing
            .per_round_makespan
            .extend(rep.timing.per_round_makespan);
        for (total, mean) in user_totals.iter_mut().zip(&rep.timing.per_user_mean) {
            *total += mean;
        }
        comm_sum += rep.timing.comm_fraction;
        acc.rounds.extend(rep.rounds);
        for (c, cohort) in rep.cohorts.into_iter().enumerate() {
            acc.cohorts[c]
                .timing
                .per_round_makespan
                .extend(cohort.timing.per_round_makespan);
            for (total, mean) in cohort_user_totals[c]
                .iter_mut()
                .zip(&cohort.timing.per_user_mean)
            {
                *total += mean;
            }
            cohort_comm_sums[c] += cohort.timing.comm_fraction;
            acc.cohorts[c].rounds.extend(cohort.rounds);
        }
    }
    let r = rounds as f64;
    acc.timing.per_user_mean = user_totals.into_iter().map(|t| t / r).collect();
    acc.timing.comm_fraction = comm_sum / r;
    for (c, cohort) in acc.cohorts.iter_mut().enumerate() {
        cohort.timing.per_user_mean = cohort_user_totals[c].iter().map(|t| t / r).collect();
        cohort.timing.comm_fraction = cohort_comm_sums[c] / r;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{RoundConfig, SimBuilder};
    use fedsched_device::{Device, DeviceModel, TrainingWorkload};
    use fedsched_net::Link;

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

    fn config(seed: u64) -> RoundConfig {
        RoundConfig::new(
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
    fn off_policy_coordinator_wraps_engine_verbatim() {
        let n = 24;
        let schedule = uniform_schedule(n, 2);
        let mut engine = SimBuilder::new(population(n, 5), config(5))
            .cohort_size(6)
            .build_hier()
            .unwrap();
        let expected = EngineReport::from(engine.run(&schedule, 3));

        let mut coord = SimBuilder::new(population(n, 5), config(5))
            .cohort_size(6)
            .build_coordinator()
            .unwrap();
        let report = coord.run(&schedule, 3);
        assert_eq!(report.engine, expected);
        assert!(report.merges.is_empty());
        assert_eq!(report.global_rounds.len(), 3);
        assert_eq!(
            report.span_s,
            expected.timing.per_round_makespan.iter().sum::<f64>()
        );
    }

    #[test]
    fn global_deadline_is_pushed_into_every_cohort() {
        let n = 20;
        let schedule = uniform_schedule(n, 3);
        let mut coord = SimBuilder::new(population(n, 11), config(11))
            .cohort_size(5)
            .deadline(DeadlinePolicy::Quantile(0.5))
            .build_coordinator()
            .unwrap();
        let report = coord.run(&schedule, 3);
        // A median cutoff over a heterogeneous population must cut someone.
        assert!(
            report.engine.rounds.iter().any(|r| r.timed_out > 0),
            "median deadline should cut stragglers"
        );
        for gr in &report.global_rounds {
            let d = gr.deadline_s.expect("quantile policy always resolves");
            assert!(gr.outcome.makespan_s <= d * (1.0 + 1e-9) || gr.outcome.rescued > 0);
            assert!(!gr.straggling_cohorts.is_empty());
            assert_eq!(gr.cohort_makespans.len(), 4);
        }
    }

    #[test]
    fn deadline_coordinator_is_thread_invariant() {
        let n = 30;
        let schedule = uniform_schedule(n, 2);
        let run = |threads: usize| {
            let mut coord = SimBuilder::new(population(n, 13), config(13))
                .cohort_size(7)
                .threads(threads)
                .deadline(DeadlinePolicy::MeanFactor(1.2))
                .build_coordinator()
                .unwrap();
            let report = coord.run(&schedule, 3);
            format!("{report:?}")
        };
        let baseline = run(1);
        assert_eq!(run(4), baseline);
        assert_eq!(run(8), baseline);
    }

    #[test]
    fn buffered_async_merges_with_staleness_discount() {
        let n = 24;
        let schedule = uniform_schedule(n, 2);
        let mut coord = SimBuilder::new(population(n, 17), config(17))
            .cohort_size(6)
            .buffered_async(2, 0.6)
            .build_coordinator()
            .unwrap();
        let report = coord.run(&schedule, 3);
        // 4 cohorts x 3 rounds = 12 arrivals, buffer 2 => 6 flushes.
        assert_eq!(report.merges.len(), 12);
        assert_eq!(coord.server_version(), 6);
        for m in &report.merges {
            assert!((m.weight - staleness_weight(0.6, m.staleness)).abs() < 1e-12);
        }
        // Async span: nobody waits, so the span is the slowest cohort's own
        // total, never more than the barrier span (sum of per-round maxes).
        let barrier_span: f64 = report.engine.timing.per_round_makespan.iter().sum();
        assert!(report.span_s <= barrier_span + 1e-9);
        assert!(report.span_s > 0.0);
        // Merge times never decrease.
        for pair in report.merges.windows(2) {
            assert!(pair[1].t_s >= pair[0].t_s);
        }
    }

    #[test]
    fn async_state_persists_across_runs() {
        let n = 12;
        let schedule = uniform_schedule(n, 2);
        let mk = || {
            SimBuilder::new(population(n, 29), config(29))
                .cohort_size(4)
                .buffered_async(3, 0.5)
                .build_coordinator()
                .unwrap()
        };
        let mut split = mk();
        let a = split.run(&schedule, 2);
        let b = split.run(&schedule, 2);
        let mut whole = mk();
        let w = whole.run(&schedule, 4);
        assert_eq!(split.server_version(), whole.server_version());
        let split_merges: Vec<_> = a.merges.iter().chain(&b.merges).cloned().collect();
        assert_eq!(split_merges, w.merges);
    }
}
