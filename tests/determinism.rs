//! Reproducibility: every stochastic component must be bit-stable under a
//! fixed seed, across the whole pipeline.

use fedsched::core::{CostMatrix, FedLbap, RandomScheduler, Scheduler};
use fedsched::data::{iid_imbalanced, n_class_noniid, Dataset, DatasetKind};
use fedsched::device::{Device, DeviceModel, Testbed, TrainingWorkload};
use fedsched::fl::{assignment_from_schedule_iid, FlSetup, RoundConfig, SimBuilder};
use fedsched::net::Link;
use fedsched::nn::ModelKind;

#[test]
fn device_traces_are_bit_stable() {
    let run = || {
        let mut d = Device::from_model(DeviceModel::Nexus6P, 1234);
        d.train_epoch_trace(&TrainingWorkload::vgg6(), 400, 5.0)
    };
    assert_eq!(run(), run());
}

#[test]
fn profiles_and_schedules_are_stable() {
    let build = || {
        let testbed = Testbed::testbed_2(77);
        let profiles = testbed.profiles_for(&TrainingWorkload::lenet());
        let costs = CostMatrix::from_profiles(&profiles, 60, 100.0, &vec![0.5; testbed.len()]);
        FedLbap.schedule(&costs).unwrap()
    };
    assert_eq!(build(), build());
}

#[test]
fn random_scheduler_depends_only_on_seed() {
    let costs = CostMatrix::from_linear_rates(&[1.0, 2.0, 3.0], 30, 100.0, &[0.0; 3]);
    let a = RandomScheduler::new(5).schedule(&costs).unwrap();
    let b = RandomScheduler::new(5).schedule(&costs).unwrap();
    let c = RandomScheduler::new(6).schedule(&costs).unwrap();
    assert_eq!(a, b);
    assert_ne!(a, c);
}

#[test]
fn datasets_and_partitions_are_stable() {
    let a = Dataset::generate(DatasetKind::CifarLike, 500, 9);
    let b = Dataset::generate(DatasetKind::CifarLike, 500, 9);
    assert_eq!(a.labels(), b.labels());
    assert_eq!(a.features(123), b.features(123));
    assert_eq!(iid_imbalanced(&a, 5, 0.5, 3), iid_imbalanced(&b, 5, 0.5, 3));
    assert_eq!(
        n_class_noniid(&a, 5, 3, 0.2, 3),
        n_class_noniid(&b, 5, 3, 0.2, 3)
    );
}

#[test]
fn roundsim_is_stable() {
    let run = || {
        let testbed = Testbed::testbed_1(3);
        let mut sim = SimBuilder::new(
            testbed.devices().to_vec(),
            RoundConfig::new(TrainingWorkload::lenet(), Link::lte_tmobile(), 2.5e6, 3),
        )
        .build_event_sim()
        .expect("quiet sim config is valid");
        sim.run(&fedsched::core::Schedule::new(vec![10, 8, 12], 100.0), 3)
    };
    assert_eq!(run(), run());
}

#[test]
fn full_training_run_is_stable_across_thread_schedules() {
    // parallel_map writes results by index and aggregation folds in user
    // order, so the global model must be identical run to run even though
    // client threads race.
    let (train, test) = Dataset::generate_split(DatasetKind::MnistLike, 500, 200, 21);
    let p = iid_imbalanced(&train, 4, 0.4, 21);
    let schedule_run = || {
        FlSetup::new(&train, &test, p.users.clone(), ModelKind::Mlp, 3, 21)
            .run()
            .global
    };
    assert_eq!(schedule_run(), schedule_run());
}

#[test]
fn iid_assignment_depends_only_on_seed() {
    let train = Dataset::generate(DatasetKind::MnistLike, 1000, 5);
    let schedule = fedsched::core::Schedule::new(vec![4, 6], 100.0);
    assert_eq!(
        assignment_from_schedule_iid(&train, &schedule, 8),
        assignment_from_schedule_iid(&train, &schedule, 8)
    );
    assert_ne!(
        assignment_from_schedule_iid(&train, &schedule, 8),
        assignment_from_schedule_iid(&train, &schedule, 9)
    );
}
