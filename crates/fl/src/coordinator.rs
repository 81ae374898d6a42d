//! The coordinator view of a population run, and the FedBuff merge
//! ledger its server tier can keep.
//!
//! Each cohort of a [`HierEngine`](crate::HierEngine) otherwise makes its
//! decisions from cohort-local information — an adaptive deadline
//! resolved inside a slow cohort is lax exactly where it should bite. An
//! engine built for the `coordinator` target
//! ([`SimBuilder::build_coordinator`](crate::SimBuilder::build_coordinator))
//! closes that loop at its server tier, and
//! [`HierEngine::coordinate`](crate::HierEngine::coordinate) reports the
//! rounds in this module's terms:
//!
//! * **Global straggler deadline** — before each round the server pools
//!   side-effect-free predicted per-user times across *every* cohort,
//!   resolves the [`DeadlinePolicy`](fedsched_core::DeadlinePolicy) once
//!   against the pooled distribution, and pushes the single resulting
//!   cutoff into every cohort ([`Event::GlobalDeadlineSet`]).
//!   Deadline-cut shards keep their partial credit and rescue accounting,
//!   now rolled up population-wide.
//! * **Barrier aggregation** — per-round outcomes read as
//!   population-level [`GlobalRoundOutcome`]s that name the straggling
//!   cohorts ([`Event::CohortStraggling`]).
//! * **Buffered async mode** — alternatively, cohorts report into a
//!   buffered aggregator (FedBuff-style): the server merges as soon as
//!   `buffer` updates are queued, discounting each by the FedAsync
//!   staleness weight ([`staleness_weight`]), with all bookkeeping in
//!   simulated time ([`Event::AsyncMerge`]).
//!
//! Neither mode has a hierarchical equivalent, so the coordinator keeps
//! its own build target; its engine always has one edge per cohort, whose
//! server fold is the flat cohort merge ([`EngineReport`]).
//!
//! # Determinism contract
//!
//! Everything the server tier adds is plain arithmetic over the cohorts'
//! deterministic outputs, computed on the control thread: results and
//! telemetry are bit-identical at any thread count.
//! [`HierEngine::run`](crate::HierEngine::run) and
//! [`HierEngine::coordinate`](crate::HierEngine::coordinate) are two views
//! of one advance, so both emit the same trace; with the deadline policy
//! off in barrier mode that trace and the engine report are byte-identical
//! to a `hier` engine's (pinned by `tests/coordinator_identity.rs`).

use fedsched_telemetry::{Event, Probe};
use serde::Serialize;

use crate::clock::{self, TimingReport};
use crate::cohorts::CohortReport;
use crate::hier::HierReport;
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

/// Aggregate result of one
/// [`HierEngine::coordinate`](crate::HierEngine::coordinate) call.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CoordinatorReport {
    /// The underlying population report (timing, per-cohort
    /// breakdowns). With the policy off in barrier mode this is
    /// byte-identical to driving a `hier` engine.
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

    /// The coordinator view of an advance: its rounds wrapped in the
    /// deadline in force and the straggling cohorts, next to the merges
    /// the ledger made and the simulated span.
    pub(crate) fn view((report, deadlines, merges, span_s): Advance) -> Self {
        let engine = EngineReport::from(report);
        let (makespans, cohorts) = (&engine.timing.per_round_makespan, &engine.cohorts);
        let global_rounds = (engine.rounds.iter().zip(deadlines).enumerate())
            .map(|(r, (outcome, deadline_s))| GlobalRoundOutcome {
                outcome: outcome.clone(),
                deadline_s,
                straggling_cohorts: straggling_cohorts(makespans, cohorts, r)
                    .map(|(c, _)| c)
                    .collect(),
                cohort_makespans: cohorts
                    .iter()
                    .map(|c| c.timing.per_round_makespan[r])
                    .collect(),
            })
            .collect();
        CoordinatorReport {
            engine,
            global_rounds,
            merges,
            span_s,
        }
    }
}

/// Cohorts that straggled in round `r`, each with its deadline-cut user
/// count: those that set the population makespan `makespans[r]`, or had
/// users cut.
pub(crate) fn straggling_cohorts<'a>(
    makespans: &[f64],
    cohorts: &'a [CohortReport],
    r: usize,
) -> impl Iterator<Item = (usize, usize)> + 'a {
    let pop_max = makespans[r];
    cohorts.iter().enumerate().filter_map(move |(c, cohort)| {
        let makespan = cohort.timing.per_round_makespan[r];
        let timed_out = cohort.rounds[r].timed_out;
        ((pop_max > 0.0 && makespan == pop_max) || timed_out > 0).then_some((c, timed_out))
    })
}

/// One advance of a population engine: its report, the global deadline
/// in force each round, the merges its ledger made, and the simulated
/// span.
pub(crate) type Advance = (HierReport, Vec<Option<f64>>, Vec<MergeRecord>, f64);

/// A cohort update waiting in the async buffer.
#[derive(Debug, Clone, Copy)]
struct PendingUpdate {
    cohort: usize,
    round: usize,
    pull_version: usize,
}

/// FedAsync staleness discount: the effective mixing weight of an update
/// that is `staleness` server versions old, given base rate `eta`.
pub fn staleness_weight(eta: f64, staleness: usize) -> f64 {
    eta / (1.0 + staleness as f64)
}

/// The FedBuff server's merge ledger: cohort updates queue and merge
/// `buffer` at a time with staleness discount `eta / (1 + staleness)`,
/// bumping the server version once per flush. Its state persists across
/// calls like the cohorts' own.
#[derive(Default)]
pub(crate) struct Ledger {
    /// Updates per merge.
    buffer: usize,
    /// Base mixing rate.
    eta: f64,
    /// Server model version (bumped once per flush).
    server_version: usize,
    /// Per-cohort simulated clock: when the cohort last reported in.
    cohort_clock: Vec<f64>,
    /// Server version each cohort last pulled.
    cohort_pull_version: Vec<usize>,
    /// Updates queued but not yet merged.
    pending: Vec<PendingUpdate>,
}

impl Ledger {
    /// An empty ledger for the buffered-async options `(buffer, eta)`.
    pub(crate) fn new((buffer, eta): (usize, f64)) -> Self {
        Ledger {
            buffer,
            eta,
            ..Ledger::default()
        }
    }

    /// Server model version.
    pub(crate) fn server_version(&self) -> usize {
        self.server_version
    }

    /// Re-time the cohorts' rounds as asynchronous arrivals and merge
    /// them: each cohort reports in at its own cumulative pace and the
    /// server merges per `buffer` arrivals. Returns the merges and the
    /// span, the slowest cohort's own busy time.
    ///
    /// Cohort merges are *events in one global simulated-time stream*:
    /// completions listed cohort-major, then sorted stably by time
    /// ([`clock::sort_by_time`]), so equal-time ties go lowest-cohort
    /// first and a cohort's own rounds stay in round order. All of it is
    /// post-hoc arithmetic over per-cohort makespans, hence
    /// thread-invariant.
    pub(crate) fn settle(
        &mut self,
        cohorts: &[CohortReport],
        probe: &Probe,
    ) -> (Vec<MergeRecord>, f64) {
        if self.cohort_clock.len() != cohorts.len() {
            self.cohort_clock = vec![0.0; cohorts.len()];
            self.cohort_pull_version = vec![0; cohorts.len()];
        }

        // Each cohort finishes its rounds back-to-back on its own clock;
        // nobody waits for anybody. Its completions enter the global
        // stream at cumulative cohort time, carrying (cohort, round).
        let mut stream: Vec<(f64, (usize, usize))> = Vec::new();
        let mut span_s = 0.0f64;
        for (c, cohort) in cohorts.iter().enumerate() {
            let start = self.cohort_clock[c];
            let mut t = start;
            for (r, &m) in cohort.timing.per_round_makespan.iter().enumerate() {
                t += m;
                stream.push((t, (c, cohort.rounds[r].round)));
            }
            self.cohort_clock[c] = t;
            span_s = span_s.max(t - start);
        }

        clock::sort_by_time(&mut stream);

        let mut merges = Vec::new();
        for (t, (c, round)) in stream {
            self.pending.push(PendingUpdate {
                cohort: c,
                round,
                pull_version: self.cohort_pull_version[c],
            });
            if self.pending.len() >= self.buffer {
                for item in std::mem::take(&mut self.pending) {
                    let staleness = self.server_version - item.pull_version;
                    let weight = staleness_weight(self.eta, staleness);
                    probe.emit(|| Event::AsyncMerge {
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
        (merges, span_s)
    }
}

/// Fold single-round engine reports into one multi-round report, matching
/// the arithmetic a single multi-round call would have produced at the
/// server, edge and cohort tiers: makespans and outcomes concatenate,
/// per-user means average over rounds, the comm fraction is the
/// per-round mean, and rejection counts sum.
pub(crate) fn fold_rounds(reports: Vec<HierReport>) -> HierReport {
    let rounds = reports.len();
    let mut iter = reports.into_iter();
    let mut acc = iter.next().expect("at least one round");
    for rep in iter {
        append_round(&mut acc.timing, &mut acc.rounds, rep.timing, rep.rounds);
        for (e, next) in acc.edges.iter_mut().zip(rep.edges) {
            append_round(&mut e.timing, &mut e.rounds, next.timing, next.rounds);
        }
        for (c, next) in acc.cohorts.iter_mut().zip(rep.cohorts) {
            append_round(&mut c.timing, &mut c.rounds, next.timing, next.rounds);
        }
        acc.edge_rejections += rep.edge_rejections;
        acc.server_rejections += rep.server_rejections;
    }
    let r = rounds as f64;
    let average = |timing: &mut TimingReport| {
        for total in &mut timing.per_user_mean {
            *total /= r;
        }
        timing.comm_fraction /= r;
    };
    average(&mut acc.timing);
    acc.edges.iter_mut().for_each(|e| average(&mut e.timing));
    acc.cohorts.iter_mut().for_each(|c| average(&mut c.timing));
    acc
}

/// Append one more round of a tier's result: makespans and outcomes
/// concatenate, per-user means and the comm fraction accumulate as sums
/// for [`fold_rounds`] to average.
fn append_round(
    timing: &mut TimingReport,
    rounds: &mut Vec<RoundOutcome>,
    next: TimingReport,
    next_rounds: Vec<RoundOutcome>,
) {
    timing.per_round_makespan.extend(next.per_round_makespan);
    for (total, mean) in timing.per_user_mean.iter_mut().zip(&next.per_user_mean) {
        *total += mean;
    }
    timing.comm_fraction += next.comm_fraction;
    rounds.extend(next_rounds);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{RoundConfig, SimBuilder};
    use fedsched_core::{DeadlinePolicy, Schedule};
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
        let report = coord.coordinate(&schedule, 3);
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
        let report = coord.coordinate(&schedule, 3);
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
            let report = coord.coordinate(&schedule, 3);
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
        let report = coord.coordinate(&schedule, 3);
        // 4 cohorts x 3 rounds = 12 arrivals, buffer 2 => 6 flushes.
        assert_eq!(report.merges.len(), 12);
        assert_eq!(coord.server_version(), 6);
        for m in &report.merges {
            assert!((m.weight - staleness_weight(0.6, m.staleness)).abs() < 1e-12);
        }
        // FedAsync's discount: eta / (1 + staleness).
        assert_eq!(staleness_weight(0.6, 0), 0.6);
        assert_eq!(staleness_weight(0.6, 2), 0.6 / 3.0);
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
        let a = split.coordinate(&schedule, 2);
        let b = split.coordinate(&schedule, 2);
        let mut whole = mk();
        let w = whole.coordinate(&schedule, 4);
        assert_eq!(split.server_version(), whole.server_version());
        let split_merges: Vec<_> = a.merges.iter().chain(&b.merges).cloned().collect();
        assert_eq!(split_merges, w.merges);
    }
}
