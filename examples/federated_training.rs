//! End-to-end federated training: schedule with Fed-LBAP, materialize the
//! assignment, train a real (synthetic-data) FedAvg model, and report both
//! the simulated wall-clock and the learned accuracy.
//!
//! ```text
//! cargo run --release --example federated_training
//! ```

use fedsched::core::{CostMatrix, EqualScheduler, FedLbap, Scheduler};
use fedsched::data::{Dataset, DatasetKind};
use fedsched::device::{Testbed, TrainingWorkload};
use fedsched::fl::{assignment_from_schedule_iid, FlSetup, RoundConfig, SimBuilder};
use fedsched::net::{model_transfer_bytes, Link};
use fedsched::nn::ModelKind;
use fedsched::profiler::ModelArch;

fn main() {
    let rounds = 8;
    let testbed = Testbed::testbed_1(21);
    let workload = TrainingWorkload::lenet();
    let link = Link::wifi_campus();
    let bytes = model_transfer_bytes(&ModelArch::lenet());

    // 3000 MNIST-like samples federated across the cohort.
    let (train, test) = Dataset::generate_split(DatasetKind::MnistLike, 3000, 1000, 9);
    let total_shards = 30;
    let profiles = testbed.profiles_for(&workload);
    let comm = vec![link.round_seconds(bytes); testbed.len()];
    let costs = CostMatrix::from_profiles(&profiles, total_shards, 100.0, &comm);

    for (name, scheduler) in [
        ("Equal", Box::new(EqualScheduler) as Box<dyn Scheduler>),
        ("Fed-LBAP", Box::new(FedLbap)),
    ] {
        let schedule = scheduler.schedule(&costs).expect("schedulable");
        let assignment = assignment_from_schedule_iid(&train, &schedule, 13);

        // Simulated device time for the whole training run.
        let mut sim = SimBuilder::new(
            testbed.devices().to_vec(),
            RoundConfig::new(workload, link, bytes, 13),
        )
        .build_event_sim()
        .expect("valid sim config");
        let timing = sim.run(&schedule, rounds).timing;

        // The actual learning, with per-round accuracy checkpoints.
        let mut setup = FlSetup::new(&train, &test, assignment, ModelKind::Mlp, rounds, 13);
        setup.eval_every = 2;
        let outcome = setup.run();

        println!("== {name} ==");
        println!("  shards/user: {:?}", schedule.shards);
        println!(
            "  simulated device time for {rounds} rounds: {:.0}s (mean round {:.1}s)",
            timing.total_time(),
            timing.mean_makespan()
        );
        for (round, acc) in &outcome.round_accuracies {
            println!("  round {round:>2}: accuracy {acc:.3}");
        }
        println!("  final accuracy: {:.3}\n", outcome.final_accuracy);
    }

    println!(
        "Same final accuracy, very different device time — the paper's core claim:\n\
         with IID data, load unbalancing buys speed for free."
    );
}
