//! End-to-end non-IID pipeline: scenario -> Fed-MinAvg -> simulated rounds
//! -> federated training, exercising the accuracy-cost machinery.

use std::collections::BTreeSet;

use fedsched::core::{AccuracyCost, FedMinAvg, MinAvgProblem, UserSpec};
use fedsched::data::{Dataset, DatasetKind, Scenario};
use fedsched::device::{Device, DeviceModel, TrainingWorkload};
use fedsched::fl::{FlSetup, RoundConfig, SimBuilder};
use fedsched::net::{model_transfer_bytes, Link};
use fedsched::nn::ModelKind;
use fedsched::profiler::{ModelArch, TabulatedProfile};

fn scenario_devices(scenario: &Scenario, seed: u64) -> Vec<Device> {
    scenario
        .users
        .iter()
        .enumerate()
        .map(|(i, u)| {
            let model = match u.device {
                "Nexus6" => DeviceModel::Nexus6,
                "Nexus6P" => DeviceModel::Nexus6P,
                "Mate10" => DeviceModel::Mate10,
                _ => DeviceModel::Pixel2,
            };
            Device::from_model(model, seed + i as u64)
        })
        .collect()
}

fn profiles(devices: &[Device], wl: &TrainingWorkload) -> Vec<TabulatedProfile> {
    devices
        .iter()
        .map(|d| {
            let mut probe = Device::new(d.spec().clone(), 0xAB);
            let pts: Vec<(f64, f64)> = [500usize, 1000, 2000, 4000]
                .iter()
                .map(|&n| (n as f64, probe.epoch_time_cold(wl, n)))
                .collect();
            TabulatedProfile::from_measurements(&pts)
        })
        .collect()
}

fn problem_for(
    scenario: &Scenario,
    ds: &Dataset,
    devices: &[Device],
    alpha: f64,
    beta: f64,
    total_shards: usize,
    shard_size: f64,
) -> MinAvgProblem<TabulatedProfile> {
    let wl = TrainingWorkload::lenet();
    let link = Link::wifi_campus();
    let bytes = model_transfer_bytes(&ModelArch::lenet());
    let counts = ds.class_counts();
    let users: Vec<UserSpec<TabulatedProfile>> = profiles(devices, &wl)
        .into_iter()
        .zip(scenario.class_sets())
        .map(|(profile, classes)| {
            let cap_samples: usize = classes.iter().map(|&c| counts[c]).sum();
            UserSpec {
                profile,
                comm: link.round_seconds(bytes),
                classes,
                capacity_shards: (cap_samples as f64 / shard_size) as usize,
            }
        })
        .collect();
    MinAvgProblem {
        users,
        total_shards,
        shard_size,
        acc: AccuracyCost::new(10, alpha, beta),
    }
}

fn materialize(
    ds: &Dataset,
    sets: &[BTreeSet<usize>],
    shards: &[usize],
    shard_size: f64,
) -> Vec<Vec<usize>> {
    sets.iter()
        .zip(shards)
        .map(|(classes, &k)| {
            let mut pool: Vec<usize> = classes
                .iter()
                .flat_map(|&c| ds.indices_of_class(c))
                .collect();
            pool.truncate((k as f64 * shard_size) as usize);
            pool
        })
        .collect()
}

#[test]
fn minavg_schedules_every_scenario_feasibly() {
    let ds = Dataset::generate(DatasetKind::CifarLike, 2000, 23);
    for scenario in Scenario::all() {
        let devices = scenario_devices(&scenario, 23);
        let problem = problem_for(&scenario, &ds, &devices, 1000.0, 2.0, 150, 10.0);
        let outcome = FedMinAvg.schedule(&problem).expect("feasible");
        assert_eq!(outcome.schedule.total_shards(), 150, "{}", scenario.name);
        for (u, &k) in problem.users.iter().zip(&outcome.schedule.shards) {
            assert!(
                k <= u.capacity_shards,
                "{} capacity violated",
                scenario.name
            );
        }
    }
}

#[test]
fn alpha_extremes_change_who_trains_in_s1() {
    let ds = Dataset::generate(DatasetKind::CifarLike, 2000, 29);
    let scenario = Scenario::s1();
    let devices = scenario_devices(&scenario, 29);
    // Alphas scaled to this problem's compute magnitude: total compute here
    // is ~15 s (vs the paper's hundreds of seconds at 50K samples), so the
    // accuracy-cost weight must shrink accordingly for the time/accuracy
    // trade-off to bite in both directions.
    let lo = FedMinAvg
        .schedule(&problem_for(&scenario, &ds, &devices, 0.5, 0.0, 150, 10.0))
        .unwrap();
    let hi = FedMinAvg
        .schedule(&problem_for(&scenario, &ds, &devices, 50.0, 0.0, 150, 10.0))
        .unwrap();
    // Pixel2(a) is user 2 (fast, 2 classes): its share must shrink as alpha
    // grows (paper Table IV p1 -> p2).
    let share = |o: &fedsched::core::minavg::MinAvgOutcome| {
        o.schedule.shards[2] as f64 / o.schedule.total_shards() as f64
    };
    assert!(
        share(&hi) < share(&lo),
        "Pixel2 share {:.2} -> {:.2}",
        share(&lo),
        share(&hi)
    );
}

#[test]
fn end_to_end_noniid_training_learns() {
    let (train, test) = Dataset::generate_split(DatasetKind::CifarLike, 2000, 800, 31);
    let scenario = Scenario::s2();
    let devices = scenario_devices(&scenario, 31);
    let problem = problem_for(&scenario, &train, &devices, 500.0, 2.0, 180, 10.0);
    let outcome = FedMinAvg.schedule(&problem).unwrap();

    let wl = TrainingWorkload::lenet();
    let link = Link::wifi_campus();
    let bytes = model_transfer_bytes(&ModelArch::lenet());
    let mut sim = SimBuilder::new(devices, RoundConfig::new(wl, link, bytes, 31))
        .build_event_sim()
        .expect("quiet sim config is valid");
    let timing = sim.run(&outcome.schedule, 2).timing;
    assert!(timing.mean_makespan() > 0.0);

    let assignment = materialize(
        &train,
        &scenario.class_sets(),
        &outcome.schedule.shards,
        10.0,
    );
    let result = FlSetup::new(&train, &test, assignment, ModelKind::Mlp, 8, 31).run();
    assert!(
        result.final_accuracy > 0.35,
        "non-IID accuracy {} at chance level",
        result.final_accuracy
    );
}

#[test]
fn excluding_unique_class_holder_costs_accuracy() {
    // The Fig. 3(b)/Fig. 6 mechanism at integration scale: dropping the
    // sole holder of class 7 in S(I) loses that class entirely.
    let (train, test) = Dataset::generate_split(DatasetKind::MnistLike, 2000, 800, 37);
    let scenario = Scenario::s1();
    let sets = scenario.class_sets();

    let with_all = materialize(&train, &sets, &[70, 70, 60], 10.0);
    let without_pixel2 = materialize(&train, &sets, &[100, 100, 0], 10.0);

    let acc = |assignment: Vec<Vec<usize>>| {
        FlSetup::new(&train, &test, assignment, ModelKind::Mlp, 8, 37)
            .run()
            .final_accuracy
    };
    let a_all = acc(with_all);
    let a_missing = acc(without_pixel2);
    assert!(
        a_all > a_missing + 0.03,
        "full coverage {a_all:.3} should clearly beat missing-class {a_missing:.3}"
    );
}
