//! Non-IID scheduling with Fed-MinAvg: the alpha/beta trade-off on the
//! paper's scenario S(I).
//!
//! In S(I), the fastest phone (Pixel 2) holds only classes {7, 8} — and
//! class 7 exists nowhere else. A pure time-optimizer overloads the Pixel 2;
//! a pure accuracy-optimizer (huge alpha) starves it and loses class 7 from
//! the training set. The beta discount rescues the unique-class holder.
//!
//! ```text
//! cargo run --release --example noniid_scheduling
//! ```

use fedsched::core::FedMinAvg;
use fedsched::data::{Dataset, DatasetKind, Scenario};
use fedsched::device::{Device, TrainingWorkload};
use fedsched::fl::{FlSetup, RoundConfig, SimBuilder};
use fedsched::net::{model_transfer_bytes, Link};
use fedsched::nn::ModelKind;
use fedsched::profiler::{ModelArch, TabulatedProfile};

fn main() {
    let scenario = Scenario::s1();
    println!("Scenario {}:", scenario.name);
    for u in &scenario.users {
        println!("  {:10} ({:7}) classes {:?}", u.label, u.device, u.classes);
    }
    println!("  unique classes: {:?}\n", scenario.unique_classes());

    // Devices + offline profiles.
    let devices: Vec<Device> = scenario
        .users
        .iter()
        .enumerate()
        .map(|(i, u)| {
            let model = match u.device {
                "Nexus6" => fedsched::device::DeviceModel::Nexus6,
                "Nexus6P" => fedsched::device::DeviceModel::Nexus6P,
                "Mate10" => fedsched::device::DeviceModel::Mate10,
                _ => fedsched::device::DeviceModel::Pixel2,
            };
            Device::from_model(model, 11 + i as u64)
        })
        .collect();
    let workload = TrainingWorkload::lenet();
    let link = Link::wifi_campus();
    let bytes = model_transfer_bytes(&ModelArch::lenet());

    let profiles: Vec<TabulatedProfile> = devices
        .iter()
        .map(|d| {
            let mut probe = Device::new(d.spec().clone(), 99);
            let pts: Vec<(f64, f64)> = [500usize, 1000, 2000, 4000]
                .iter()
                .map(|&n| (n as f64, probe.epoch_time_cold(&workload, n)))
                .collect();
            TabulatedProfile::from_measurements(&pts)
        })
        .collect();

    // A small CIFAR-like problem: 2000 samples in 10-sample shards.
    let (train, test) = Dataset::generate_split(DatasetKind::CifarLike, 2000, 800, 5);
    let shard_size = 10.0;
    let total_shards = 200;
    let counts = train.class_counts();

    for (alpha, beta) in [(100.0, 0.0), (5000.0, 0.0), (5000.0, 2.0)] {
        let users: Vec<fedsched::core::UserSpec<TabulatedProfile>> = profiles
            .iter()
            .cloned()
            .zip(scenario.class_sets())
            .map(|(profile, classes)| {
                let cap: usize = classes.iter().map(|&c| counts[c]).sum::<usize>() / 10;
                fedsched::core::UserSpec {
                    profile,
                    comm: link.round_seconds(bytes),
                    classes,
                    capacity_shards: cap,
                }
            })
            .collect();
        let problem = fedsched::core::MinAvgProblem {
            users,
            total_shards,
            shard_size,
            acc: fedsched::core::AccuracyCost::new(10, alpha, beta),
        };
        let outcome = FedMinAvg.schedule(&problem).expect("feasible");

        // Time: replay on the simulator. Accuracy: actually train.
        let mut sim = SimBuilder::new(devices.clone(), RoundConfig::new(workload, link, bytes, 3))
            .build_event_sim()
            .expect("valid sim config");
        let time = sim.run(&outcome.schedule, 1).timing.mean_makespan();

        let assignment: Vec<Vec<usize>> = scenario
            .class_sets()
            .iter()
            .zip(&outcome.schedule.shards)
            .map(|(classes, &k)| {
                let mut pool: Vec<usize> = classes
                    .iter()
                    .flat_map(|&c| train.indices_of_class(c))
                    .collect();
                pool.truncate((k as f64 * shard_size) as usize);
                pool
            })
            .collect();
        let acc = FlSetup::new(&train, &test, assignment, ModelKind::Mlp, 6, 1)
            .run()
            .final_accuracy;

        println!(
            "alpha={alpha:>6}, beta={beta}: samples/user {:?}  round {:>6.1}s  accuracy {:.3}",
            outcome
                .schedule
                .shards
                .iter()
                .map(|&k| (k as f64 * shard_size) as usize)
                .collect::<Vec<_>>(),
            time,
            acc
        );
    }

    println!(
        "\nNote how alpha=5000/beta=0 drops Pixel2(a) (and with it class 7), hurting\n\
         accuracy, while beta=2 keeps the unique-class holder in the cohort."
    );
}
