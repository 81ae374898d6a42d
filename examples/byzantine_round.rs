//! Byzantine round walkthrough: a seeded adversary compromises part of the
//! cohort, a robust aggregator scores and rejects the poisoned updates, and
//! a correlated group outage downs a whole failure domain.
//!
//! Two acts:
//!
//! 1. the timing simulator replays a round under sign-flip attackers and a
//!    group outage, with trimmed-mean scoring — watch `update_rejected` and
//!    `group_outage` events stream by;
//! 2. a real federated training run compares FedAvg against Multi-Krum on
//!    the identical adversary plan — the accuracy gap is the whole story.
//!
//! The run is fully deterministic: the same seed replays the same attack,
//! byte for byte.
//!
//! ```text
//! cargo run --release --example byzantine_round
//! ```

use std::sync::Arc;

use fedsched::core::Schedule;
use fedsched::data::{iid_equal, Dataset, DatasetKind};
use fedsched::device::{Testbed, TrainingWorkload};
use fedsched::faults::{AdversaryConfig, AdversaryPlan, AttackKind, FaultConfig};
use fedsched::fl::{AggregatorKind, FlSetup, RoundConfig, SimBuilder};
use fedsched::net::{model_transfer_bytes, Link, RetryPolicy};
use fedsched::nn::ModelKind;
use fedsched::profiler::ModelArch;
use fedsched::telemetry::{Event, EventLog, Probe};

const SEED: u64 = 1337;

fn main() {
    // --- Act 1: the timing simulator under attack -----------------------
    let testbed = Testbed::testbed_2(SEED); // 2x N6, 2x N6P, Mate10, Pixel2
    let n = testbed.len();
    let rounds = 4;

    let adversary = AdversaryConfig::none()
        .with_attackers(0.34, AttackKind::SignFlip)
        .with_collusion(1);
    let faults = FaultConfig::none()
        .with_loss_prob(0.1)
        .with_group_outages(0.3, 2, 1);

    let log = Arc::new(EventLog::new());
    let mut sim = SimBuilder::new(
        testbed.devices().to_vec(),
        RoundConfig::new(
            TrainingWorkload::lenet(),
            Link::wifi_campus(),
            model_transfer_bytes(&ModelArch::lenet()),
            SEED,
        ),
    )
    .faults(faults, rounds)
    .adversary(adversary, rounds)
    .aggregator(AggregatorKind::TrimmedMean { trim: 1 })
    .retry(RetryPolicy::default_chaos())
    .probe(Probe::attached(log.clone()))
    .build_event_sim()
    .expect("valid byzantine config");

    let plan = AdversaryPlan::generate(adversary, n, rounds, SEED);
    let compromised: Vec<usize> = (0..n).filter(|&j| plan.is_compromised(j)).collect();
    println!(
        "devices: {:?}",
        testbed
            .models()
            .iter()
            .map(|m| m.name())
            .collect::<Vec<_>>()
    );
    println!(
        "compromised devices: {compromised:?} (plan fingerprint {:#018x})\n",
        plan.fingerprint()
    );

    let report = sim.run(&Schedule::new(vec![20; n], 100.0), rounds);
    for r in &report.rounds {
        println!(
            "round {}: {:>5.1}s  completed {:>3}  lost {:>2}  rejected updates {}",
            r.round, r.makespan_s, r.completed, r.lost_shards, r.rejected_updates
        );
    }
    println!();
    for e in log.events().iter() {
        match e {
            Event::UpdateRejected {
                round,
                user,
                aggregator,
                score,
            } => println!("  round {round}: {aggregator} rejected user {user} (score {score:.3})"),
            Event::GroupOutage {
                round,
                group,
                members,
                duration_rounds,
            } => println!(
                "  round {round}: failure domain {group} down ({members} devices, {duration_rounds} round(s))"
            ),
            _ => {}
        }
    }

    // --- Act 2: real training, FedAvg vs Multi-Krum ---------------------
    let (train, test) = Dataset::generate_split(DatasetKind::MnistLike, 900, 400, SEED);
    let partition = iid_equal(&train, n, SEED);
    let fl_rounds = 5;
    // Pick a seed whose realized compromise count matches Multi-Krum's
    // f = 2 tolerance, so the demo exercises the rule inside its contract.
    let noise =
        AdversaryConfig::none().with_attackers(0.34, AttackKind::GaussianNoise { sigma: 25.0 });
    let plan = (0..100)
        .map(|s| AdversaryPlan::generate(noise, n, fl_rounds, SEED + s))
        .find(|p| (0..n).filter(|&j| p.is_compromised(j)).count() == 2)
        .expect("a seed with two compromised devices");

    println!(
        "\ntraining {} users, {} compromised (Gaussian-noise poisoning):",
        n,
        (0..n).filter(|&j| plan.is_compromised(j)).count()
    );
    for kind in [
        AggregatorKind::FedAvg,
        AggregatorKind::MultiKrum { f: 2, k: 3 },
    ] {
        let mut setup = FlSetup::new(
            &train,
            &test,
            partition.users.clone(),
            ModelKind::Mlp,
            fl_rounds,
            SEED,
        );
        setup.aggregator = kind;
        setup.adversary = Some(plan.clone());
        let out = setup.run();
        println!(
            "  {:<12} accuracy {:.3}, rejected {} poisoned updates",
            kind.name(),
            out.final_accuracy,
            out.rejected_updates
        );
    }
}
