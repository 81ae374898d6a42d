//! End-to-end IID pipeline: dataset -> profiling -> scheduling -> simulated
//! rounds -> federated training. Mirrors the paper's Fig. 5 / Table III
//! claims at smoke scale.

use fedsched::core::{CostMatrix, EqualScheduler, FedLbap, RandomScheduler, Scheduler};
use fedsched::data::{Dataset, DatasetKind};
use fedsched::device::{Testbed, TrainingWorkload};
use fedsched::fl::{assignment_from_schedule_iid, FlSetup, RoundConfig, SimBuilder};
use fedsched::net::{model_transfer_bytes, Link};
use fedsched::nn::ModelKind;
use fedsched::profiler::ModelArch;

fn build_costs(testbed: &Testbed, total_shards: usize) -> (CostMatrix, f64) {
    let wl = TrainingWorkload::lenet();
    let link = Link::wifi_campus();
    let bytes = model_transfer_bytes(&ModelArch::lenet());
    let profiles = testbed.profiles_for(&wl);
    let comm = vec![link.round_seconds(bytes); testbed.len()];
    (
        CostMatrix::from_profiles(&profiles, total_shards, 100.0, &comm),
        bytes,
    )
}

#[test]
fn lbap_speeds_up_rounds_without_accuracy_loss() {
    let testbed = Testbed::testbed_2(11);
    let wl = TrainingWorkload::lenet();
    let link = Link::wifi_campus();

    // Time: 15K samples per epoch — enough that an Equal split (2.5K per
    // device) drives the Nexus 6Ps deep into thermal shutdown.
    let (time_costs, bytes) = build_costs(&testbed, 150);
    let lbap_t = FedLbap.schedule(&time_costs).unwrap();
    let equal_t = EqualScheduler.schedule(&time_costs).unwrap();
    let time = |schedule| {
        let mut sim = SimBuilder::new(
            testbed.devices().to_vec(),
            RoundConfig::new(wl, link, bytes, 11),
        )
        .build_event_sim()
        .expect("quiet sim config is valid");
        sim.run(schedule, 3).timing.mean_makespan()
    };
    let t_lbap = time(&lbap_t);
    let t_equal = time(&equal_t);
    assert!(
        t_lbap < t_equal / 1.5,
        "expected a clear speedup with Nexus6P stragglers: LBAP {t_lbap:.0}s vs Equal {t_equal:.0}s"
    );

    // Accuracy: train under both assignments at a lighter 6K-sample scale;
    // IID means parity regardless of how unbalanced the split is.
    let (acc_costs, _) = build_costs(&testbed, 60);
    let lbap_a = FedLbap.schedule(&acc_costs).unwrap();
    let equal_a = EqualScheduler.schedule(&acc_costs).unwrap();
    let (train, test) = Dataset::generate_split(DatasetKind::MnistLike, 6000, 1500, 11);
    let accuracy = |schedule| {
        let assignment = assignment_from_schedule_iid(&train, schedule, 11);
        FlSetup::new(&train, &test, assignment, ModelKind::Mlp, 6, 11)
            .run()
            .final_accuracy
    };
    let a_lbap = accuracy(&lbap_a);
    let a_equal = accuracy(&equal_a);
    assert!(a_lbap > 0.6, "LBAP accuracy {a_lbap}");
    assert!(
        (a_lbap - a_equal).abs() < 0.08,
        "IID accuracy parity violated: {a_lbap:.3} vs {a_equal:.3}"
    );
}

#[test]
fn lbap_is_optimal_among_all_schedulers_tested() {
    let testbed = Testbed::testbed_3(13);
    let (costs, _) = build_costs(&testbed, 100);
    let lbap = FedLbap.schedule(&costs).unwrap().predicted_makespan(&costs);
    for seed in 0..5 {
        let random = RandomScheduler::new(seed)
            .schedule(&costs)
            .unwrap()
            .predicted_makespan(&costs);
        assert!(lbap <= random + 1e-9, "seed {seed}: {lbap} > {random}");
    }
    let equal = EqualScheduler
        .schedule(&costs)
        .unwrap()
        .predicted_makespan(&costs);
    assert!(lbap <= equal + 1e-9);
}

#[test]
fn schedules_conserve_data_across_the_pipeline() {
    let testbed = Testbed::testbed_1(17);
    let (costs, _) = build_costs(&testbed, 30);
    let schedule = FedLbap.schedule(&costs).unwrap();
    assert_eq!(schedule.total_shards(), 30);

    let train = Dataset::generate(DatasetKind::MnistLike, 3000, 17);
    let assignment = assignment_from_schedule_iid(&train, &schedule, 17);
    let assigned: usize = assignment.iter().map(Vec::len).sum();
    assert_eq!(assigned, 3000);
}

#[test]
fn profiles_predict_simulated_times_reasonably() {
    // The scheduler's world model (profiles) must track the simulator it
    // schedules for, otherwise speedups are illusory.
    let testbed = Testbed::testbed_1(19);
    let wl = TrainingWorkload::lenet();
    let profiles = testbed.profiles_for(&wl);
    for (device, profile) in testbed.devices().iter().zip(&profiles) {
        use fedsched::profiler::CostProfile;
        let mut probe = fedsched::device::Device::new(device.spec().clone(), 1234);
        let actual = probe.epoch_time_cold(&wl, 2500);
        let predicted = profile.time_for(2500.0);
        let rel = (actual - predicted).abs() / actual;
        assert!(
            rel < 0.2,
            "{:?}: predicted {predicted:.1}s vs simulated {actual:.1}s",
            device.model()
        );
    }
}
