//! The cohort tier of the population engine: how
//! [`HierEngine`](crate::HierEngine) shards a large population into
//! cohorts, simulates them concurrently and collects them
//! deterministically.
//!
//! [`EventRoundSim`](crate::EventRoundSim) is inherently sequential: one
//! RNG stream consumed in device-index order. The engine scales it out by
//! making the **cohort** the unit of parallelism instead of the device.
//! The population is partitioned into fixed, contiguous cohorts
//! ([`fixed_chunks`](fedsched_parallel::fixed_chunks)); each cohort owns a
//! self-contained round core seeded from [`derive_cohort_seed`], so a
//! cohort's timeline depends only on the master seed and its index —
//! never on which worker thread simulated it or in what order.
//!
//! # Determinism contract
//!
//! * The engine's output is a pure function of (population, master seed,
//!   cohort size, configuration). Thread count affects wall-clock only:
//!   results are collected into index-ordered slots and folded in cohort
//!   order, so every report and the spliced event log are bit-identical at
//!   1 thread and at N threads.
//! * Cohort 0 continues the master RNG stream verbatim
//!   (`derive_cohort_seed(seed, 0) == seed`), so an engine whose cohort
//!   size covers the whole population produces byte-for-byte the output of
//!   a sequential sim built with the same master seed.
//!   `tests/parallel_identity.rs` pins this differentially.
//! * Cohort sims live as long as the engine: repeated `run` calls
//!   continue each cohort's RNG stream, thermal state and round numbering
//!   exactly like repeated runs of a long-lived sequential sim.
//!
//! # Merge semantics
//!
//! With more than one cohort the aggregates are defined as: per-round
//! makespan is the max across cohorts (a synchronous server waits for the
//! slowest cohort); per-user means are concatenated in population order;
//! the comm fraction is the participant-weighted mean of cohort comm
//! fractions; round outcomes sum their shard counts and recompute
//! coverage. Telemetry from each cohort is buffered per-cohort during the
//! parallel phase and spliced into the engine's probe in cohort order, with
//! user indices remapped to population indices
//! ([`Event::with_user_offset`](fedsched_telemetry::Event::with_user_offset)).

use fedsched_parallel::recommended_threads;
use serde::Serialize;

use crate::builder::MAX_ENGINE_THREADS;
use crate::clock::TimingReport;
use crate::resilient::RoundOutcome;

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

/// Default thread count for new engines: `FEDSCHED_THREADS` when set to an
/// integer in `1..=`[`MAX_ENGINE_THREADS`], otherwise
/// [`recommended_threads`]. The env override lets CI force a multi-worker
/// pool on single-core runners (and vice versa) without touching call
/// sites.
pub fn default_engine_threads() -> usize {
    threads_override(std::env::var(THREADS_ENV).ok().as_deref()).unwrap_or_else(recommended_threads)
}

/// The pool width a `FEDSCHED_THREADS` value asks for. Values outside
/// `1..=MAX_ENGINE_THREADS`, like non-numbers, are ignored: the cap a
/// spec's own `threads` meets holds for the override too.
fn threads_override(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|t| (1..=MAX_ENGINE_THREADS).contains(t))
}

/// One cohort's contribution to a population-engine run.
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

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::builder::{RoundConfig, SimBuilder};
    use crate::hier::HierReport;
    use fedsched_core::Schedule;
    use fedsched_device::{Device, DeviceModel, Testbed, TrainingWorkload};
    use fedsched_faults::FaultConfig;
    use fedsched_net::{Link, RetryPolicy};
    use fedsched_telemetry::{Event, EventLog, Probe};

    const MODEL_BYTES: f64 = 2.5e6;

    #[test]
    fn thread_override_is_held_to_the_engine_cap() {
        assert_eq!(threads_override(Some("4")), Some(4));
        assert_eq!(threads_override(Some("256")), Some(256));
        for ignored in ["257", "1000000", "0", "x"] {
            assert_eq!(threads_override(Some(ignored)), None, "{ignored:?}");
        }
        assert_eq!(threads_override(None), None);
    }

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

    /// A population-engine builder over `population(n, seed)`.
    fn engine(n: usize, seed: u64) -> SimBuilder {
        SimBuilder::new(population(n, seed), config(seed))
    }

    /// Build `builder` as a population engine and run it once.
    fn run(builder: SimBuilder, schedule: &Schedule, rounds: usize) -> HierReport {
        builder.build_hier().unwrap().run(schedule, rounds)
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
        let expected = SimBuilder::new(tb.devices().to_vec(), config(7))
            .build_event_sim()
            .unwrap()
            .into_inner()
            .run(&schedule, 4);

        for threads in [1, 4] {
            let builder = SimBuilder::new(tb.devices().to_vec(), config(7)).threads(threads);
            let report = run(builder, &schedule, 4);
            assert_eq!(report.timing, expected.timing, "threads={threads}");
            assert_eq!(report.rounds, expected.rounds, "threads={threads}");
            assert_eq!(report.cohorts.len(), 1);
        }
    }

    #[test]
    fn thread_count_never_changes_results() {
        let n = 53; // several cohorts of 8, last one ragged
        let schedule = uniform_schedule(n, 3);
        let baseline = run(engine(n, 11).cohort_size(8).threads(1), &schedule, 3);
        for threads in [2, 4, 8] {
            let report = run(engine(n, 11).cohort_size(8).threads(threads), &schedule, 3);
            assert_eq!(report, baseline, "threads={threads}");
        }
    }

    #[test]
    fn spliced_event_log_is_thread_invariant_and_population_indexed() {
        let n = 20;
        let schedule = uniform_schedule(n, 2);
        let traced = |threads: usize, rounds: usize| {
            let log = Arc::new(EventLog::new());
            let builder = engine(n, 3)
                .cohort_size(6)
                .threads(threads)
                .probe(Probe::attached(log.clone()));
            run(builder, &schedule, rounds);
            log
        };
        let one = traced(1, 2).to_jsonl();
        assert_eq!(
            one,
            traced(4, 2).to_jsonl(),
            "JSONL must not depend on thread count"
        );

        // User spans must cover the full population index range, proving
        // the per-cohort indices were remapped.
        let users: Vec<usize> = traced(4, 1)
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
        let report = run(engine(n, 5).cohort_size(7), &schedule, 3);
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
        let chaos = |threads: usize| {
            let builder = engine(n, 19)
                .cohort_size(5)
                .threads(threads)
                .faults(
                    FaultConfig::none().with_crash_prob(0.2).with_loss_prob(0.1),
                    4,
                )
                .retry(RetryPolicy::default_chaos());
            run(builder, &schedule, 4)
        };
        let baseline = chaos(1);
        assert_eq!(chaos(4), baseline);
        assert_eq!(chaos(8), baseline);
        // The fault model actually fired somewhere.
        assert!(
            baseline
                .rounds
                .iter()
                .any(|r| r.lost_shards > 0 || r.rescued > 0),
            "chaos config should perturb at least one cohort"
        );
    }

    #[test]
    fn single_cohort_chaos_matches_sequential_resilient() {
        let n = 9;
        let schedule = uniform_schedule(n, 2);
        let faults = FaultConfig::none().with_crash_prob(0.3);
        let expected = engine(n, 13)
            .faults(faults.clone(), 3)
            .build_event_sim()
            .unwrap()
            .into_inner()
            .run(&schedule, 3);

        let builder = engine(n, 13).cohort_size(n).threads(4).faults(faults, 3);
        let report = run(builder, &schedule, 3);
        assert_eq!(report.timing, expected.timing);
        assert_eq!(report.rounds, expected.rounds);
    }

    #[test]
    fn repeated_runs_continue_cohort_state() {
        let n = 12;
        let schedule = uniform_schedule(n, 2);
        // One engine run twice == a fresh engine run for the total span,
        // because cohort sims (RNG, thermal state, round indices) persist.
        let mut eng = engine(n, 23).cohort_size(4).build_hier().unwrap();
        let first = eng.run(&schedule, 2);
        let second = eng.run(&schedule, 2);
        assert_eq!(eng.rounds_done(), 4);
        assert_eq!(second.rounds[0].round, 2);

        let whole = run(engine(n, 23).cohort_size(4), &schedule, 4);
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
        let report = run(engine(0, 1), &Schedule::new(vec![], 100.0), 2);
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
        let mut eng = engine(n, 31).cohort_size(3).build_hier().unwrap();
        let before = eng.devices();
        assert_eq!(before.len(), n);
        eng.run(&schedule, 2);
        let after = eng.devices();
        assert_eq!(after.len(), n);
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(a.model(), b.model(), "population order must hold");
            assert!(
                a.battery_soc() < b.battery_soc(),
                "training must drain each device"
            );
        }
    }

    #[test]
    #[should_panic(expected = "population size mismatch")]
    fn wrong_schedule_arity_panics() {
        let _ = run(engine(5, 1), &Schedule::new(vec![1; 4], 100.0), 1);
    }
}
