//! Failure injection and degenerate-input behaviour across the stack,
//! including the chaos invariants of the fault-injection layer: seeded
//! replay, shard conservation, zero-fault bit-identity and no-panic
//! robustness under arbitrary fault plans.

use proptest::prelude::*;

use fedsched::core::{
    AccuracyCost, CostMatrix, EqualScheduler, FedLbap, FedMinAvg, MinAvgProblem, Schedule,
    ScheduleError, Scheduler, UserSpec,
};
use fedsched::data::{Dataset, DatasetKind, Partition};
use fedsched::device::{Device, DeviceModel, TrainingWorkload};
use fedsched::faults::{FaultConfig, FaultInjector};
use fedsched::fl::{
    fedavg_aggregate, DeadlinePolicy, EventRoundSim, FlSetup, RoundConfig, SimBuilder,
};
use fedsched::net::{Link, RetryPolicy};
use fedsched::nn::ModelKind;
use fedsched::profiler::LinearProfile;

#[test]
fn single_device_cohort_works_end_to_end() {
    let profiles = vec![LinearProfile::new(1.0, 0.01)];
    let costs = CostMatrix::from_profiles(&profiles, 10, 100.0, &[0.5]);
    let schedule = FedLbap.schedule(&costs).unwrap();
    assert_eq!(schedule.shards, vec![10]);

    let mut sim = SimBuilder::new(
        vec![Device::from_model(DeviceModel::Pixel2, 1)],
        RoundConfig::new(
            TrainingWorkload::lenet(),
            fedsched::net::Link::wifi_campus(),
            2.5e6,
            1,
        ),
    )
    .build_event_sim()
    .expect("quiet sim config is valid");
    let report = sim.run(&schedule, 2);
    assert!(report.timing.mean_makespan() > 0.0);
}

#[test]
fn extreme_straggler_is_fully_bypassed() {
    // A device 1000x slower than the rest: Fed-LBAP gives it nothing and
    // the makespan tracks the fast devices.
    let profiles = vec![
        LinearProfile::new(0.0, 0.01),
        LinearProfile::new(0.0, 10.0),
        LinearProfile::new(0.0, 0.012),
    ];
    let costs = CostMatrix::from_profiles(&profiles, 50, 100.0, &[0.0, 0.0, 0.0]);
    let schedule = FedLbap.schedule(&costs).unwrap();
    assert_eq!(schedule.shards[1], 0, "{:?}", schedule.shards);
    let equal = EqualScheduler.schedule(&costs).unwrap();
    assert!(
        schedule.predicted_makespan(&costs) < equal.predicted_makespan(&costs) / 100.0,
        "straggler bypass should win by orders of magnitude"
    );
}

#[test]
fn minavg_reports_infeasible_capacity() {
    let users = vec![UserSpec {
        profile: LinearProfile::new(0.0, 0.01),
        comm: 0.0,
        classes: [0, 1].into_iter().collect(),
        capacity_shards: 3,
    }];
    let problem = MinAvgProblem {
        users,
        total_shards: 10,
        shard_size: 100.0,
        acc: AccuracyCost::new(10, 100.0, 0.0),
    };
    assert_eq!(
        FedMinAvg.schedule(&problem).unwrap_err(),
        ScheduleError::Infeasible
    );
}

#[test]
fn minavg_handles_user_with_no_classes() {
    // A classless user is penalized but the cohort still schedules.
    let mk_user = |classes: Vec<usize>, cap: usize| UserSpec {
        profile: LinearProfile::new(0.0, 0.01),
        comm: 0.1,
        classes: classes.into_iter().collect(),
        capacity_shards: cap,
    };
    let problem = MinAvgProblem {
        users: vec![mk_user(vec![0, 1, 2], 20), mk_user(vec![], 20)],
        total_shards: 15,
        shard_size: 100.0,
        acc: AccuracyCost::new(10, 100.0, 0.0),
    };
    let out = FedMinAvg.schedule(&problem).unwrap();
    assert_eq!(out.schedule.total_shards(), 15);
    // The classless user is only used once the classful one saturates.
    assert!(out.schedule.shards[0] >= out.schedule.shards[1]);
}

#[test]
fn zero_weight_user_is_ignored_by_fedavg() {
    let updates = vec![(vec![1.0f32; 4], 10), (vec![9.0f32; 4], 0)];
    assert_eq!(fedavg_aggregate(&updates), vec![1.0; 4]);
}

#[test]
fn empty_partition_user_trains_nothing_but_run_succeeds() {
    let (train, test) = Dataset::generate_split(DatasetKind::MnistLike, 400, 100, 3);
    let assignment = vec![(0..400).collect::<Vec<usize>>(), Vec::new()];
    let out = FlSetup::new(&train, &test, assignment, ModelKind::Mlp, 2, 3).run();
    assert!(out.final_accuracy > 0.2);
}

#[test]
fn device_battery_eventually_depletes_and_clamps() {
    // Run a device far beyond its battery: energy drained saturates at
    // capacity and simulation stays finite.
    let mut device = Device::from_model(DeviceModel::Pixel2, 5);
    let wl = TrainingWorkload::vgg6();
    let capacity = device.battery().capacity_j();
    for _ in 0..50 {
        device.train_samples(&wl, 2000);
        if device.battery().empty() {
            break;
        }
    }
    assert!(device.battery().drained_j() <= capacity + 1e-6);
}

#[test]
fn partition_helpers_tolerate_tiny_datasets() {
    let ds = Dataset::generate(DatasetKind::MnistLike, 10, 7);
    let p = fedsched::data::iid_equal(&ds, 4, 1);
    assert_eq!(p.total(), 10);
    p.assert_disjoint();
    let ratio = fedsched::data::imbalance_ratio_of(&Partition {
        users: vec![vec![0], vec![1]],
    });
    assert_eq!(ratio, 0.0);
}

// ---------------------------------------------------------------------------
// Chaos invariants: the fault-injection layer and the resilient controller.
// ---------------------------------------------------------------------------

/// A small mixed cohort for chaos runs.
fn chaos_cohort(n: usize, seed: u64) -> Vec<Device> {
    let models = DeviceModel::all();
    (0..n)
        .map(|i| Device::from_model(models[i % models.len()], seed.wrapping_add(i as u64)))
        .collect()
}

fn chaos_sim(
    n: usize,
    seed: u64,
    injector: FaultInjector,
    knobs: impl FnOnce(SimBuilder) -> SimBuilder,
) -> EventRoundSim {
    knobs(
        SimBuilder::new(
            chaos_cohort(n, seed),
            RoundConfig::new(TrainingWorkload::lenet(), Link::wifi_campus(), 2.5e6, seed),
        )
        .injector(injector),
    )
    .build_event_sim()
    .expect("chaos sim config is valid")
}

fn stormy_config() -> FaultConfig {
    FaultConfig::none()
        .with_crash_prob(0.25)
        .with_churn_prob(0.05)
        .with_loss_prob(0.2)
        .with_contention(0.3, 1.8)
        .with_outages(0.3, 40.0, 5.0)
}

#[test]
fn same_seed_reproduces_fault_trace_and_outcome() {
    let n = 5;
    let schedule = Schedule::new(vec![8, 6, 5, 4, 3], 100.0);
    let run = |seed: u64| {
        let injector = FaultInjector::from_config(stormy_config(), n, 4, seed);
        let fingerprint = injector.fingerprint();
        let report =
            chaos_sim(n, 11, injector, |b| b.retry(RetryPolicy::default_chaos())).run(&schedule, 4);
        (fingerprint, report)
    };
    let (fp_a, rep_a) = run(1234);
    let (fp_b, rep_b) = run(1234);
    assert_eq!(fp_a, fp_b, "fault plans diverged for one seed");
    assert_eq!(rep_a, rep_b, "chaos outcomes diverged for one seed");
    // A different fault seed produces a different plan (the trace really
    // depends on the seed, not just the config).
    let (fp_c, _) = run(1235);
    assert_ne!(fp_a, fp_c);
}

#[test]
fn rescue_conserves_shards_every_round() {
    let n = 6;
    let schedule = Schedule::new(vec![7, 7, 6, 5, 3, 2], 100.0);
    for rescue in [true, false] {
        let injector = FaultInjector::from_config(stormy_config(), n, 5, 99);
        let mut sim = chaos_sim(n, 21, injector, |b| {
            let b = b.retry(RetryPolicy::default_chaos());
            if rescue {
                b
            } else {
                b.no_rescue()
            }
        });
        let report = sim.run(&schedule, 5);
        for r in &report.rounds {
            assert_eq!(
                r.completed + r.rescued + r.lost_shards,
                r.scheduled,
                "rescue={rescue} round {}: {r:?}",
                r.round
            );
        }
    }
}

#[test]
fn zero_fault_resilient_sim_is_bit_identical_to_round_sim() {
    let n = 4;
    let schedule = Schedule::new(vec![9, 0, 6, 4], 100.0);
    let wl = TrainingWorkload::lenet();
    let link = Link::wifi_campus();
    let mut plain = SimBuilder::new(chaos_cohort(n, 3), RoundConfig::new(wl, link, 2.5e6, 3))
        .build_event_sim()
        .expect("quiet sim config is valid");
    let mut resilient = chaos_sim(n, 3, FaultInjector::quiet(n), |b| b);
    let a = plain.run(&schedule, 4);
    let b = resilient.run(&schedule, 4);
    assert_eq!(a, b, "an explicit quiet injector drifted from the default");
    assert_eq!(b.total_lost(), 0);
    assert_eq!(b.mean_coverage(), 1.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The resilient controller never panics and keeps its accounting
    /// invariants under arbitrary fault plans, schedules and knobs.
    #[test]
    fn resilient_sim_survives_any_fault_plan(
        crash in 0.0f64..1.0,
        churn in 0.0f64..0.5,
        loss in 0.0f64..0.6,
        contention in 0.0f64..1.0,
        outage in 0.0f64..1.0,
        shards in prop::collection::vec(0usize..9, 1..6),
        rounds in 1usize..4,
        fault_seed in 0u64..500,
        // Vendored proptest has no option/bool strategies: encode the
        // deadline as "below 20 means None" and rescue as a 0/1 draw.
        deadline_code in 0.0f64..220.0,
        rescue_sel in 0u64..2,
    ) {
        let deadline = (deadline_code >= 20.0).then_some(deadline_code);
        let rescue = rescue_sel == 1;
        let n = shards.len();
        let config = FaultConfig::none()
            .with_crash_prob(crash)
            .with_churn_prob(churn)
            .with_loss_prob(loss)
            .with_contention(contention, 2.5)
            .with_outages(outage, 30.0, 8.0);
        let injector = FaultInjector::from_config(config, n, rounds, fault_seed);
        let schedule = Schedule::new(shards.clone(), 100.0);
        let scheduled_total: usize = shards.iter().sum();
        let mut sim = chaos_sim(n, fault_seed ^ 0xABCD, injector, |b| {
            let mut b = b.retry(RetryPolicy::default_chaos());
            if let Some(d) = deadline {
                b = b.deadline(DeadlinePolicy::Fixed(d));
            }
            if rescue {
                b
            } else {
                b.no_rescue()
            }
        });
        let report = sim.run(&schedule, rounds);
        prop_assert_eq!(report.rounds.len(), rounds);
        for r in &report.rounds {
            prop_assert_eq!(r.scheduled, scheduled_total);
            prop_assert_eq!(r.completed + r.rescued + r.lost_shards, r.scheduled);
            prop_assert!((0.0..=1.0).contains(&r.coverage) || r.scheduled == 0);
            prop_assert!(r.makespan_s.is_finite() && r.makespan_s >= 0.0);
            if !rescue {
                prop_assert_eq!(r.rescued, 0);
            }
        }
        prop_assert!(report.timing.per_round_makespan.iter().all(|m| m.is_finite()));
    }

    /// Fault plans themselves replay byte-identically per seed and respect
    /// the quiet-config contract.
    #[test]
    fn fault_plans_replay_and_respect_quiet_configs(
        crash in 0.0f64..1.0,
        n in 1usize..8,
        rounds in 1usize..6,
        seed in 0u64..1000,
    ) {
        let config = FaultConfig::none().with_crash_prob(crash);
        let a = FaultInjector::from_config(config.clone(), n, rounds, seed);
        let b = FaultInjector::from_config(config, n, rounds, seed);
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
        let quiet = FaultInjector::from_config(FaultConfig::none(), n, rounds, seed);
        for round in 0..rounds {
            prop_assert!(quiet.outages(round).is_empty());
            for dev in 0..n {
                prop_assert!(quiet.fate(round, dev).is_online());
                prop_assert_eq!(quiet.contention(round, dev), 1.0);
            }
        }
    }
}

#[test]
fn cool_down_between_epochs_restores_cold_performance() {
    // Failure mode guarded: thermal state leaking between experiments
    // would silently corrupt comparisons.
    let mut device = Device::from_model(DeviceModel::Nexus6P, 9);
    let wl = TrainingWorkload::lenet();
    let cold1 = device.epoch_time_cold(&wl, 2000);
    let cold2 = device.epoch_time_cold(&wl, 2000);
    // Identical thermal trajectory; only RNG jitter differs.
    assert!((cold1 - cold2).abs() / cold1 < 0.1, "{cold1} vs {cold2}");
}
