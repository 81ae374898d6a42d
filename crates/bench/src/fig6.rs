//! Fig. 6: how `alpha` and `beta` trade training time against accuracy on
//! the hand-constructed scenarios S(I)-S(III).

use fedsched_core::FedMinAvg;
use fedsched_data::{Dataset, DatasetKind, Scenario};
use fedsched_device::TrainingWorkload;
use fedsched_fl::{FlSetup, RoundConfig, SimBuilder};
use fedsched_net::{model_transfer_bytes, Link};
use fedsched_nn::ModelKind;
use fedsched_profiler::ModelArch;

use crate::common::devices_for_scenario;
use crate::noniid::{cohort_profiles, materialize_assignment, minavg_problem};
use crate::report::Table;
use crate::scale::Scale;

/// One sweep point for one scenario.
#[derive(Debug, Clone)]
pub struct Point {
    /// Scenario name.
    pub scenario: &'static str,
    /// Accuracy-cost weight.
    pub alpha: f64,
    /// Coverage discount.
    pub beta: f64,
    /// Mean per-round makespan under the resulting schedule (top panels).
    pub time_s: f64,
    /// Final accuracy (bottom panels).
    pub accuracy: f64,
    /// The per-user assignment in samples.
    pub assignment_samples: Vec<f64>,
}

/// Run the alpha/beta sweep over all three scenarios.
pub fn run(scale: Scale, seed: u64) -> Vec<Point> {
    // Smoke uses a finer shard (10 samples) so the shard count — and with it
    // the beta * D_u discount dynamics — stays at a paper-like magnitude.
    let shard_size = scale.pick(10.0, 100.0);
    let n_train = scale.pick(1500usize, DatasetKind::CifarLike.paper_train_size());
    let n_test = scale.pick(600usize, 10_000);
    let rounds = scale.pick(4usize, 50);
    let model = scale.pick(ModelKind::Mlp, ModelKind::LeNet);
    // The accuracy cost alpha*F trades off against *compute seconds*, which
    // shrink with the data scale; smoke alphas are the paper's divided by
    // the ~25x data reduction so the trade-off dynamics survive.
    let alphas = scale.pick(
        vec![2.0, 20.0, 100.0],
        vec![100.0, 500.0, 1000.0, 2000.0, 3500.0, 5000.0],
    );
    let betas = scale.pick(vec![0.0, 1.0], vec![0.0, 2.0]);

    let (train, test) = Dataset::generate_split(DatasetKind::CifarLike, n_train, n_test, seed);
    let total_shards = (n_train as f64 / shard_size) as usize;
    let wl = TrainingWorkload::lenet();
    let bytes = model_transfer_bytes(&ModelArch::lenet());
    let link = Link::wifi_campus();

    let mut points = Vec::new();
    for scenario in Scenario::all() {
        let devices = devices_for_scenario(&scenario, seed);
        let profiles = cohort_profiles(&devices, &wl);
        let sets = scenario.class_sets();
        for &beta in &betas {
            for &alpha in &alphas {
                let problem = minavg_problem(
                    &train,
                    &devices,
                    &sets,
                    profiles.clone(),
                    &link,
                    bytes,
                    total_shards,
                    shard_size,
                    alpha,
                    beta,
                );
                let outcome = FedMinAvg.schedule(&problem).expect("feasible MinAvg");
                let schedule = &outcome.schedule;

                let mut sim =
                    SimBuilder::new(devices.clone(), RoundConfig::new(wl, link, bytes, seed))
                        .build_event_sim()
                        .expect("valid sim config");
                let time_s = sim
                    .run(schedule, scale.pick(1usize, 3))
                    .timing
                    .mean_makespan();

                let assignment = materialize_assignment(&train, &sets, schedule, seed);
                let accuracy = if assignment.iter().any(|a| !a.is_empty()) {
                    FlSetup::new(&train, &test, assignment, model, rounds, seed)
                        .run()
                        .final_accuracy
                } else {
                    0.0
                };

                points.push(Point {
                    scenario: scenario.name,
                    alpha,
                    beta,
                    time_s,
                    accuracy,
                    assignment_samples: schedule
                        .shards
                        .iter()
                        .map(|&k| k as f64 * shard_size)
                        .collect(),
                });
            }
        }
    }
    points
}

/// Render the time and accuracy traces per scenario.
pub fn render(points: &[Point]) -> String {
    let mut out = String::from("## Fig. 6 — alpha/beta vs training time and accuracy\n\n");
    for scenario in ["S(I)", "S(II)", "S(III)"] {
        out.push_str(&format!("### {scenario}\n\n"));
        let mut t = Table::new(vec!["alpha", "beta", "round time (s)", "accuracy"]);
        for p in points.iter().filter(|p| p.scenario == scenario) {
            t.row(vec![
                format!("{:.0}", p.alpha),
                format!("{:.0}", p.beta),
                format!("{:.1}", p.time_s),
                format!("{:.4}", p.accuracy),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out.push_str(
        "Paper findings: with beta=0, time rises with alpha (work shifts to class-rich \
         devices); in S(I)/S(II) accuracy *drops* with alpha (unique-class outliers get \
         excluded) while S(III) trends the opposite way; beta=2 lifts accuracy by ~0.02-0.03.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points() -> &'static [Point] {
        use std::sync::OnceLock;
        static CACHE: OnceLock<Vec<Point>> = OnceLock::new();
        CACHE.get_or_init(|| run(Scale::Smoke, 101))
    }

    fn alpha_range(pts: &[Point]) -> (f64, f64) {
        let lo = pts.iter().map(|p| p.alpha).fold(f64::INFINITY, f64::min);
        let hi = pts.iter().map(|p| p.alpha).fold(0.0f64, f64::max);
        (lo, hi)
    }

    #[test]
    fn sweep_covers_grid() {
        let pts = points();
        // 3 scenarios x 2 betas x 3 alphas at smoke scale.
        assert_eq!(pts.len(), 18);
        assert!(pts.iter().all(|p| p.time_s > 0.0));
    }

    #[test]
    fn large_alpha_shifts_work_to_class_rich_users_in_s1() {
        let pts = points();
        // S(I): Pixel2(a) (index 2) holds 2 classes; Nexus6(a) (index 0)
        // holds 8. With beta=0, raising alpha must move share away from
        // Pixel2 towards Nexus6 (paper Table IV, p1 -> p2).
        let (lo_a, hi_a) = alpha_range(pts);
        let share = |alpha: f64| {
            let p = pts
                .iter()
                .find(|p| p.scenario == "S(I)" && p.beta == 0.0 && p.alpha == alpha)
                .unwrap();
            let total: f64 = p.assignment_samples.iter().sum();
            p.assignment_samples[2] / total
        };
        assert!(
            share(hi_a) < share(lo_a),
            "Pixel2 share should shrink: {} -> {}",
            share(lo_a),
            share(hi_a)
        );
    }

    #[test]
    fn beta_keeps_unique_class_holder_involved_in_s1() {
        let pts = points();
        // At the largest alpha, beta = 0 starves Pixel2(a) (sole holder of
        // class 7); the positive beta should assign it at least as much.
        let (_, hi_a) = alpha_range(pts);
        let betas: Vec<f64> = {
            let mut b: Vec<f64> = pts.iter().map(|p| p.beta).collect();
            b.sort_by(|x, y| x.partial_cmp(y).unwrap());
            b.dedup();
            b
        };
        let pick = |beta: f64| {
            pts.iter()
                .find(|p| p.scenario == "S(I)" && p.beta == beta && p.alpha == hi_a)
                .unwrap()
                .assignment_samples[2]
        };
        assert!(pick(betas[1]) >= pick(betas[0]));
    }

    #[test]
    fn render_mentions_all_scenarios() {
        let s = render(points());
        for name in ["S(I)", "S(II)", "S(III)"] {
            assert!(s.contains(name));
        }
    }
}
