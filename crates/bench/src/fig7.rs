//! Fig. 7: computation time per global update when data is non-IID.
//!
//! Users hold random class subsets; Fed-MinAvg (best alpha in [100, 5000],
//! beta = 0) competes against the Proportional / Random / Equal baselines,
//! whose schedules are clamped to each user's class capacity and the
//! overflow redistributed (a user cannot train data it does not hold).

use std::sync::Arc;

use fedsched_core::{FedMinAvg, Schedule};
use fedsched_data::{Dataset, DatasetKind};
use fedsched_device::{Testbed, TrainingWorkload};
use fedsched_fl::{RoundConfig, SimBuilder};
use fedsched_net::{model_transfer_bytes, Link};
use fedsched_profiler::ModelArch;
use fedsched_telemetry::{EventLog, Histogram, MetricsRegistry, Probe};

use crate::common::{clamp_redistribute, cost_matrix_for_testbed, iid_schedulers, SHARD_SIZE};
use crate::noniid::{
    capacities_for_class_sets, cohort_profiles, minavg_problem, random_class_sets,
};
use crate::report::{fmt_secs, metrics_section, Table};
use crate::scale::Scale;

/// One (testbed, scheduler) cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Testbed index.
    pub testbed: usize,
    /// Scheduler name ("Fed-MinAvg" or a baseline).
    pub scheduler: String,
    /// Mean per-round makespan, seconds.
    pub mean_makespan_s: f64,
    /// The alpha that won the search (Fed-MinAvg only).
    pub best_alpha: Option<f64>,
}

/// One (dataset, model) panel.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Dataset name.
    pub dataset: &'static str,
    /// Model name.
    pub model: &'static str,
    /// Cells.
    pub cells: Vec<Cell>,
    /// Telemetry aggregated over every replay in this panel, including the
    /// Fed-MinAvg alpha-search candidates that did not win.
    pub metrics: MetricsRegistry,
}

impl Panel {
    /// Makespan lookup.
    pub fn makespan(&self, testbed: usize, scheduler: &str) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| c.testbed == testbed && c.scheduler == scheduler)
            .map(|c| c.mean_makespan_s)
    }

    /// Fed-MinAvg speedup vs the best baseline.
    pub fn speedup(&self, testbed: usize) -> f64 {
        let ours = self.makespan(testbed, "Fed-MinAvg").unwrap_or(f64::NAN);
        let best = ["Prop.", "Random", "Equal"]
            .iter()
            .filter_map(|s| self.makespan(testbed, s))
            .fold(f64::INFINITY, f64::min);
        best / ours
    }
}

/// Run the non-IID time comparison.
pub fn run(scale: Scale, seed: u64) -> Vec<Panel> {
    let rounds = scale.pick(3usize, 10);
    // Smoke compute times are far smaller than paper scale, so the alpha
    // search interval shrinks proportionally and reaches near-zero, where
    // Fed-MinAvg degenerates to pure time water-filling (see fig6 note).
    let alphas = scale.pick(
        vec![0.1, 2.0, 10.0, 50.0],
        vec![100.0, 500.0, 1000.0, 2000.0, 3500.0, 5000.0],
    );
    let grid = [
        (
            "MNIST",
            "LeNet",
            TrainingWorkload::lenet(),
            ModelArch::lenet(),
            DatasetKind::MnistLike,
        ),
        (
            "MNIST",
            "VGG6",
            TrainingWorkload::vgg6(),
            ModelArch::vgg6(),
            DatasetKind::MnistLike,
        ),
        (
            "CIFAR10",
            "LeNet",
            TrainingWorkload::lenet(),
            ModelArch::lenet(),
            DatasetKind::CifarLike,
        ),
        (
            "CIFAR10",
            "VGG6",
            TrainingWorkload::vgg6(),
            ModelArch::vgg6(),
            DatasetKind::CifarLike,
        ),
    ];

    let mut panels = Vec::new();
    for (dataset, model, wl, arch, kind) in grid {
        let total_samples = scale.pick(kind.paper_train_size() / 4, kind.paper_train_size());
        let ds = Dataset::generate(kind, total_samples, seed);
        let total_shards = (total_samples as f64 / SHARD_SIZE) as usize;
        let bytes = model_transfer_bytes(&arch);
        let link = Link::wifi_campus();

        let mut cells = Vec::new();
        let mut metrics = MetricsRegistry::new();
        for tb_index in 1..=3usize {
            let testbed = Testbed::by_index(tb_index, seed);
            let sets = random_class_sets(testbed.len(), seed ^ (tb_index as u64) << 4);
            let capacities = capacities_for_class_sets(&ds, &sets, SHARD_SIZE);

            // Baselines: IID schedules clamped to class capacities.
            let costs = cost_matrix_for_testbed(&testbed, &wl, total_shards, &link, bytes);
            for (name, scheduler) in iid_schedulers(&testbed.models(), seed ^ tb_index as u64) {
                if name == "Fed-LBAP" {
                    continue; // Fig. 7 compares MinAvg against the heuristics
                }
                let schedule = scheduler.schedule(&costs).expect("schedulable");
                let schedule = clamp_redistribute(&schedule, &capacities);
                let makespan = replay(
                    &testbed,
                    &wl,
                    &link,
                    bytes,
                    &schedule,
                    rounds,
                    seed,
                    &mut metrics,
                );
                cells.push(Cell {
                    testbed: tb_index,
                    scheduler: name,
                    mean_makespan_s: makespan,
                    best_alpha: None,
                });
            }

            // Fed-MinAvg with the best alpha over the search interval.
            let profiles = cohort_profiles(testbed.devices(), &wl);
            let mut best: Option<(f64, f64)> = None;
            for &alpha in &alphas {
                let problem = minavg_problem(
                    &ds,
                    testbed.devices(),
                    &sets,
                    profiles.clone(),
                    &link,
                    bytes,
                    total_shards,
                    SHARD_SIZE,
                    alpha,
                    0.0,
                );
                let outcome = match FedMinAvg.schedule(&problem) {
                    Ok(o) => o,
                    Err(_) => continue,
                };
                let makespan = replay(
                    &testbed,
                    &wl,
                    &link,
                    bytes,
                    &outcome.schedule,
                    rounds,
                    seed,
                    &mut metrics,
                );
                if best.map(|(_, m)| makespan < m).unwrap_or(true) {
                    best = Some((alpha, makespan));
                }
            }
            let (alpha, makespan) = best.expect("at least one feasible alpha");
            cells.push(Cell {
                testbed: tb_index,
                scheduler: "Fed-MinAvg".to_string(),
                mean_makespan_s: makespan,
                best_alpha: Some(alpha),
            });
        }
        panels.push(Panel {
            dataset,
            model,
            cells,
            metrics,
        });
    }
    panels
}

/// Replay `schedule` with a telemetry probe attached; the returned mean
/// makespan is read back from the replay's `round_end` events, and the
/// whole event stream is folded into `metrics`.
#[allow(clippy::too_many_arguments)]
fn replay(
    testbed: &Testbed,
    wl: &TrainingWorkload,
    link: &Link,
    bytes: f64,
    schedule: &Schedule,
    rounds: usize,
    seed: u64,
    metrics: &mut MetricsRegistry,
) -> f64 {
    let log = Arc::new(EventLog::new());
    let mut sim = SimBuilder::new(
        testbed.devices().to_vec(),
        RoundConfig::new(*wl, *link, bytes, seed),
    )
    .probe(Probe::attached(log.clone()))
    .build_event_sim()
    .expect("valid sim config");
    let _ = sim.run(schedule, rounds);
    let mut run_metrics = MetricsRegistry::new();
    run_metrics.ingest(log.events().iter());
    let mean = run_metrics
        .histogram("round_makespan_s")
        .map(Histogram::mean)
        .unwrap_or(0.0);
    metrics.merge(&run_metrics);
    mean
}

/// Render the four panels.
pub fn render(panels: &[Panel]) -> String {
    let mut out = String::from("## Fig. 7 — computation time per global update (non-IID)\n\n");
    for p in panels {
        out.push_str(&format!("### {} / {}\n\n", p.dataset, p.model));
        let mut t = Table::new(vec![
            "testbed",
            "Prop.",
            "Random",
            "Equal",
            "Fed-MinAvg",
            "speedup",
        ]);
        for tb in 1..=3usize {
            let cell = |s: &str| p.makespan(tb, s).map(fmt_secs).unwrap_or_default();
            t.row(vec![
                format!("{tb}"),
                cell("Prop."),
                cell("Random"),
                cell("Equal"),
                cell("Fed-MinAvg"),
                format!("{:.2}x", p.speedup(tb)),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out.push_str("Paper finding: average speedups 1.3-8x (MNIST), 1.67-2.05x (CIFAR10).\n");
    let mut combined = MetricsRegistry::new();
    for p in panels {
        combined.merge(&p.metrics);
    }
    let section = metrics_section(&combined);
    if !section.is_empty() {
        out.push_str("\n## Telemetry\n\n");
        out.push_str(&section);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panels() -> &'static [Panel] {
        use std::sync::OnceLock;
        static CACHE: OnceLock<Vec<Panel>> = OnceLock::new();
        CACHE.get_or_init(|| run(Scale::Smoke, 91))
    }

    #[test]
    fn minavg_beats_baselines_on_average() {
        // Aggregate across panels and testbeds: the paper reports overall
        // speedups > 1; individual cells may tie.
        let ps = panels();
        let mut speedups = Vec::new();
        for p in ps {
            for tb in 1..=3usize {
                speedups.push(p.speedup(tb));
            }
        }
        let mean: f64 = speedups.iter().sum::<f64>() / speedups.len() as f64;
        assert!(mean > 1.0, "mean speedup {mean:.2} from {speedups:?}");
    }

    #[test]
    fn every_cell_is_populated() {
        for p in panels() {
            for tb in 1..=3usize {
                for s in ["Prop.", "Random", "Equal", "Fed-MinAvg"] {
                    assert!(
                        p.makespan(tb, s).map(|m| m > 0.0).unwrap_or(false),
                        "{}/{} tb{tb} {s}",
                        p.dataset,
                        p.model
                    );
                }
            }
        }
    }

    #[test]
    fn best_alpha_is_recorded() {
        for p in panels() {
            for c in p.cells.iter().filter(|c| c.scheduler == "Fed-MinAvg") {
                let a = c.best_alpha.expect("alpha recorded");
                assert!((0.1..=5000.0).contains(&a));
            }
        }
    }

    #[test]
    fn render_emits_four_panels() {
        let s = render(panels());
        assert_eq!(
            s.matches("### MNIST").count() + s.matches("### CIFAR10").count(),
            4
        );
        assert!(s.contains("## Telemetry"));
    }

    #[test]
    fn panel_metrics_include_alpha_search_replays() {
        for p in panels() {
            // Per testbed: 3 baselines + at least one feasible alpha.
            let rounds = p.metrics.counter("rounds");
            assert!(rounds >= 3 * 4 * 3, "{}/{}: {rounds}", p.dataset, p.model);
            let h = p.metrics.histogram("round_makespan_s").expect("makespans");
            assert_eq!(h.count() as u64, rounds);
        }
    }
}
