//! Straggler rescue: watch Fed-LBAP absorb two thermally-throttled
//! Nexus 6P phones that wreck the naive schedulers.
//!
//! The paper's Testbed II contains two Snapdragon-810 Nexus 6Ps whose big
//! CPU clusters shut down ~25 s into sustained training. Equal and
//! Proportional keep feeding them full shares; Fed-LBAP starves them and
//! the synchronous round time collapses.
//!
//! ```text
//! cargo run --release --example straggler_rescue
//! ```

use fedsched::core::{CostMatrix, EqualScheduler, FedLbap, ProportionalScheduler, Scheduler};
use fedsched::device::{Testbed, TrainingWorkload};
use fedsched::fl::{RoundConfig, SimBuilder};
use fedsched::net::{model_transfer_bytes, Link};
use fedsched::profiler::ModelArch;

fn main() {
    let testbed = Testbed::testbed_2(7); // 2x N6, 2x N6P, Mate10, Pixel2
    let workload = TrainingWorkload::lenet();
    let link = Link::wifi_campus();
    let bytes = model_transfer_bytes(&ModelArch::lenet());

    // 12K MNIST samples per global epoch, shards of 100.
    let total_shards = 120;
    let profiles = testbed.profiles_for(&workload);
    let comm = vec![link.round_seconds(bytes); testbed.len()];
    let costs = CostMatrix::from_profiles(&profiles, total_shards, 100.0, &comm);

    let weights: Vec<f64> = testbed
        .models()
        .iter()
        .map(|m| m.mean_core_freq_ghz())
        .collect();
    let schedulers: Vec<(&str, Box<dyn Scheduler>)> = vec![
        (
            "Proportional",
            Box::new(ProportionalScheduler::new(weights)),
        ),
        ("Equal", Box::new(EqualScheduler)),
        ("Fed-LBAP", Box::new(FedLbap)),
    ];

    println!(
        "devices: {:?}\n",
        testbed
            .models()
            .iter()
            .map(|m| m.name())
            .collect::<Vec<_>>()
    );
    for (name, scheduler) in schedulers {
        let schedule = scheduler.schedule(&costs).expect("schedulable");
        let mut sim = SimBuilder::new(
            testbed.devices().to_vec(),
            RoundConfig::new(workload, link, bytes, 7),
        )
        .build_event_sim()
        .expect("valid sim config");
        let report = sim.run(&schedule, 5).timing;
        println!("{name:>13}: shards {:?}", schedule.shards);
        println!(
            "{:>13}  mean round {:.1}s over 5 rounds (rounds: {:?})",
            "",
            report.mean_makespan(),
            report
                .per_round_makespan
                .iter()
                .map(|t| format!("{t:.0}s"))
                .collect::<Vec<_>>()
        );
        // Which device was the straggler?
        let (worst, t) = report
            .per_user_mean
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        println!(
            "{:>13}  straggler: {} at {:.1}s/round\n",
            "",
            testbed.models()[worst].name(),
            t
        );
    }

    println!(
        "Observation: the naive schedulers are pinned to the Nexus 6P hot-state rate;\n\
         Fed-LBAP routes those shards to the Pixel 2 / Nexus 6 and the round time drops."
    );
}
