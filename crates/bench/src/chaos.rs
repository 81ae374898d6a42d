//! Chaos sweep — schedulers under crashes and lossy links (robustness
//! companion; not a paper figure).
//!
//! The paper's Fed-LBAP assumes every scheduled device delivers. This sweep
//! measures what happens when they don't: devices crash mid-round with
//! rising probability and every transfer can be lost, and three recovery
//! policies compete on the same fault plan:
//!
//! * **Deadline-Dropout** — the SysML'19 baseline: equal shares, hard
//!   deadline, stragglers dropped *up front* (their data never trains), and
//!   rounds with missing uploads held open until the deadline;
//! * **Fed-LBAP + retries** — the resilient controller running the paper's
//!   balanced schedule with retried transfers but no rescue: crashes still
//!   lose the device's whole allocation;
//! * **Fed-LBAP + rescue** — retries plus mid-round reassignment of failed
//!   users' shards to survivors;
//! * **Fed-LBAP + rescue + re-plan** — rescue plus between-round
//!   rescheduling from online profiles, which routes around churned-out
//!   devices instead of rescuing their shards round after round.
//!
//! The balanced arms beat dropout on both loss *and* makespan (dropout
//! burns its deadline waiting for crashed users, then loses their data
//! anyway); rescue buys full coverage at the price of a longer round.
//!
//! All three arms replay the *identical* [`FaultInjector`] plan per sweep
//! point, so differences are policy, not luck. Losses are measured against
//! the full workload: shards Deadline-Dropout refuses to schedule count as
//! lost.
//!
//! [`FaultInjector`]: fedsched_faults::FaultInjector

use std::sync::Arc;

use fedsched_core::{DeadlineDropout, DeadlinePolicy, FedLbap, Scheduler};
use fedsched_device::{Testbed, TrainingWorkload};
use fedsched_faults::{FaultConfig, FaultInjector};
use fedsched_fl::{ChaosReport, RoundConfig, SimBuilder};
use fedsched_net::{model_transfer_bytes, Link, RetryPolicy};
use fedsched_profiler::{CostProfile, LinearProfile, ModelArch};
use fedsched_telemetry::{EventLog, MetricsRegistry, Probe};

use crate::common::{cost_matrix_for_testbed, SHARD_SIZE};
use crate::report::{fmt_secs, mean, metrics_section, Table};
use crate::scale::Scale;

/// Per-transfer loss probability applied at every sweep point.
const LOSS_PROB: f64 = 0.05;
/// Deadline calibration for the dropout baseline: 1.5x the mean equal-share
/// round time — a generous grace period in the spirit of production FL
/// (Bonawitz et al.), still far below the Nexus 6P stragglers' share time.
/// The simulated dropout server honours its own deadline: a round with a
/// missing upload closes at the deadline, not when the crash happened.
const DEADLINE_FACTOR: f64 = 1.5;
/// The rescue arm re-plans from online profiles every this many rounds.
const RESCHEDULE_EVERY: usize = 2;

/// One recovery policy's results at one crash probability.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmResult {
    /// Policy name.
    pub arm: &'static str,
    /// Mean per-round makespan including any rescue phase (seconds).
    pub mean_makespan_s: f64,
    /// Shards lost over the whole run, measured against the full workload
    /// (up-front deadline drops count).
    pub lost_shards: usize,
    /// Shards recovered by mid-round reassignment.
    pub rescued_shards: usize,
    /// Fraction of the full workload delivered across all rounds.
    pub coverage: f64,
}

/// All arms at one crash probability.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Per-device per-round crash probability.
    pub crash_prob: f64,
    /// One result per arm, in [`ARM_NAMES`] order.
    pub arms: Vec<ArmResult>,
}

impl SweepPoint {
    /// Look up an arm's result by name.
    pub fn arm(&self, name: &str) -> Option<&ArmResult> {
        self.arms.iter().find(|a| a.arm == name)
    }
}

/// The four policies, in report column order.
pub const ARM_NAMES: [&str; 4] = [
    "Deadline-Dropout",
    "Fed-LBAP + retries",
    "Fed-LBAP + rescue",
    "Fed-LBAP + rescue + re-plan",
];

/// The full sweep.
#[derive(Debug, Clone)]
pub struct ChaosSweep {
    /// One point per crash probability.
    pub points: Vec<SweepPoint>,
    /// Shards the full workload needs per round.
    pub full_shards: usize,
    /// Rounds simulated per arm.
    pub rounds: usize,
    /// Telemetry aggregated over every arm's replay (fault, retry, rescue
    /// and timing events).
    pub metrics: MetricsRegistry,
}

fn arm_result(
    name: &'static str,
    report: &ChaosReport,
    full_shards: usize,
    rounds: usize,
    unscheduled_per_round: usize,
) -> ArmResult {
    let workload = full_shards * rounds;
    let lost = report.total_lost() + unscheduled_per_round * rounds;
    ArmResult {
        arm: name,
        mean_makespan_s: mean(&report.timing.per_round_makespan),
        lost_shards: lost,
        rescued_shards: report.total_rescued(),
        coverage: (workload - lost) as f64 / workload.max(1) as f64,
    }
}

/// Sweep crash probability over the four arms on testbed 3 (the paper's
/// largest cohort: ten devices, two Nexus 6P stragglers). Churn scales with
/// the crash rate at a quarter of its probability.
pub fn run(scale: Scale, seed: u64) -> ChaosSweep {
    let rounds = scale.pick(4usize, 10);
    let total_samples = scale.pick(15_000usize, 60_000);
    let total_shards = (total_samples as f64 / SHARD_SIZE) as usize;
    let wl = TrainingWorkload::lenet();
    let bytes = model_transfer_bytes(&ModelArch::lenet());
    let link = Link::wifi_campus();
    let testbed = Testbed::by_index(3, seed);
    let n = testbed.len();
    let costs = cost_matrix_for_testbed(&testbed, &wl, total_shards, &link, bytes);

    let lbap_schedule = FedLbap.schedule(&costs).expect("feasible LBAP schedule");
    let policy =
        DeadlineDropout::from_mean_factor(&costs, DEADLINE_FACTOR).expect("calibratable deadline");
    let (drop_schedule, _) = policy
        .schedule_with_report(&costs)
        .expect("feasible dropout schedule");
    let unscheduled = total_shards - drop_schedule.total_shards();

    // Offline priors for the rescue arm's online profilers: zero-intercept
    // fits at shard granularity, refined by observation as rounds pass.
    let priors: Vec<LinearProfile> = testbed
        .profiles_for(&wl)
        .iter()
        .map(|p| LinearProfile::new(0.0, p.time_for(SHARD_SIZE) / SHARD_SIZE))
        .collect();

    let mut metrics = MetricsRegistry::new();
    let mut points = Vec::new();
    for (pi, crash_prob) in [0.0, 0.2, 0.4].into_iter().enumerate() {
        let config = FaultConfig::none()
            .with_crash_prob(crash_prob)
            .with_churn_prob(crash_prob / 4.0)
            .with_loss_prob(LOSS_PROB);
        // Every arm replays the identical plan: same config, cohort, seed.
        let fault_seed = seed ^ ((pi as u64 + 1) << 16);
        let injector = || FaultInjector::from_config(config.clone(), n, rounds, fault_seed);
        let sim_seed = seed ^ ((pi as u64) << 8);
        let base = |log: &Arc<EventLog>| {
            SimBuilder::new(
                testbed.devices().to_vec(),
                RoundConfig::new(wl, link, bytes, sim_seed),
            )
            .injector(injector())
            .retry(RetryPolicy::default_chaos())
            .probe(Probe::attached(log.clone()))
        };

        let mut arms = Vec::new();
        for name in ARM_NAMES {
            let log = Arc::new(EventLog::new());
            let (schedule, unsched) = match name {
                "Deadline-Dropout" => (&drop_schedule, unscheduled),
                _ => (&lbap_schedule, 0),
            };
            let builder = match name {
                "Fed-LBAP + rescue" => base(&log),
                "Fed-LBAP + rescue + re-plan" => base(&log)
                    .rescheduler(Box::new(FedLbap), RESCHEDULE_EVERY)
                    .priors(priors.clone()),
                // The dropout server waits for missing uploads until its own
                // deadline before closing the round (and cuts anyone who
                // drifts past it mid-run).
                "Deadline-Dropout" => base(&log)
                    .deadline(DeadlinePolicy::Fixed(policy.deadline_s))
                    .no_rescue(),
                _ => base(&log).no_rescue(),
            };
            let mut sim = builder.build_event_sim().expect("valid chaos sim config");
            let report = sim.run(schedule, rounds);
            arms.push(arm_result(name, &report, total_shards, rounds, unsched));
            metrics.ingest(log.events().iter());
        }
        points.push(SweepPoint { crash_prob, arms });
    }
    ChaosSweep {
        points,
        full_shards: total_shards,
        rounds,
        metrics,
    }
}

/// Render the sweep as one table per crash probability plus telemetry.
pub fn render(sweep: &ChaosSweep) -> String {
    let mut out =
        String::from("## Chaos sweep — recovery policies under crashes and lossy links\n\n");
    out.push_str(&format!(
        "Testbed 3, LeNet, {} shards/round, {} rounds, per-transfer loss {:.0}% \
         (up to {} attempts); identical fault plan across arms at each point.\n\n",
        sweep.full_shards,
        sweep.rounds,
        LOSS_PROB * 100.0,
        RetryPolicy::default_chaos().max_attempts,
    ));
    for point in &sweep.points {
        out.push_str(&format!(
            "### crash probability {:.1}\n\n",
            point.crash_prob
        ));
        let mut t = Table::new(vec!["policy", "makespan", "lost", "rescued", "coverage"]);
        for a in &point.arms {
            t.row(vec![
                a.arm.to_string(),
                fmt_secs(a.mean_makespan_s),
                a.lost_shards.to_string(),
                a.rescued_shards.to_string(),
                format!("{:.3}", a.coverage),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out.push_str(
        "Finding: the resilient controller loses strictly fewer shards than \
         hard deadline dropout at equal-or-better makespan (dropout burns \
         its deadline waiting for crashed users, then loses their data \
         anyway, plus its up-front straggler drops every round); mid-round \
         rescue additionally holds coverage at 1.0 as crashes rise, trading \
         round time for zero data loss.\n",
    );
    let section = metrics_section(&sweep.metrics);
    if !section.is_empty() {
        out.push_str("\n## Telemetry\n\n");
        out.push_str(&section);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> &'static ChaosSweep {
        use std::sync::OnceLock;
        static CACHE: OnceLock<ChaosSweep> = OnceLock::new();
        CACHE.get_or_init(|| run(Scale::Smoke, 99))
    }

    #[test]
    fn resilient_controller_dominates_dropout_under_crashes() {
        // The PR's acceptance criterion: at crash probability 0.2 the
        // resilient controller loses strictly fewer shards than hard
        // dropout, at equal-or-better makespan.
        let point = &sweep().points[1];
        assert_eq!(point.crash_prob, 0.2);
        let dropout = point.arm("Deadline-Dropout").unwrap();
        let retries = point.arm("Fed-LBAP + retries").unwrap();
        assert!(
            retries.lost_shards < dropout.lost_shards,
            "retries lost {} vs dropout {}",
            retries.lost_shards,
            dropout.lost_shards
        );
        assert!(
            retries.mean_makespan_s <= dropout.mean_makespan_s,
            "retries {:.1}s vs dropout {:.1}s",
            retries.mean_makespan_s,
            dropout.mean_makespan_s
        );
        // Rescue goes further: it also loses strictly fewer shards than
        // dropout — in fact none — by paying for a recovery phase.
        let rescue = point.arm("Fed-LBAP + rescue").unwrap();
        assert!(rescue.lost_shards < dropout.lost_shards);
        assert_eq!(rescue.coverage, 1.0, "rescue left shards unrecovered");
    }

    #[test]
    fn rescue_beats_no_rescue_on_coverage() {
        for point in &sweep().points {
            let plain = point.arm("Fed-LBAP + retries").unwrap();
            for name in ["Fed-LBAP + rescue", "Fed-LBAP + rescue + re-plan"] {
                let rescue = point.arm(name).unwrap();
                assert!(
                    rescue.coverage >= plain.coverage,
                    "p={} {name}: {:.3} vs {:.3}",
                    point.crash_prob,
                    rescue.coverage,
                    plain.coverage
                );
            }
        }
    }

    #[test]
    fn dropout_loses_data_even_without_faults() {
        let point = &sweep().points[0];
        assert_eq!(point.crash_prob, 0.0);
        let dropout = point.arm("Deadline-Dropout").unwrap();
        assert!(dropout.lost_shards > 0, "deadline never cut anyone");
        // Retried transfers absorb the 5% per-attempt loss: the balanced
        // arms deliver the full workload when nobody crashes.
        for name in ["Fed-LBAP + retries", "Fed-LBAP + rescue"] {
            let a = point.arm(name).unwrap();
            assert_eq!(a.lost_shards, 0, "{name} lost shards with no crashes");
            assert_eq!(a.coverage, 1.0);
        }
    }

    #[test]
    fn same_seed_reproduces_the_sweep() {
        let again = run(Scale::Smoke, 99);
        assert_eq!(sweep().points, again.points);
    }

    #[test]
    fn shard_accounting_stays_within_the_workload() {
        let s = sweep();
        let workload = s.full_shards * s.rounds;
        for point in &s.points {
            for a in &point.arms {
                assert!(a.lost_shards <= workload, "{}: {}", a.arm, a.lost_shards);
                assert!((0.0..=1.0).contains(&a.coverage));
            }
        }
    }

    #[test]
    fn render_emits_every_point_and_arm() {
        let s = render(sweep());
        assert!(s.contains("crash probability 0.0"));
        assert!(s.contains("crash probability 0.4"));
        for name in ARM_NAMES {
            assert!(s.contains(name), "missing {name}:\n{s}");
        }
        assert!(s.contains("## Telemetry"));
        assert!(s.contains("round_makespan_s"));
    }
}
