//! `exp_perf compare --parent DIR --change DIR`: the parent-vs-change
//! rule for every (workload, end-to-end metric).
//!
//! Each directory holds the `BENCH_<workload>.json` files of alternating
//! runs (`--out DIR/run01`, `DIR/run02`, ...); the i-th parent run of a
//! workload pairs with the i-th change run, in path order.
//!
//! * a **gain** needs at least 10 pairs, the change winning at least nine
//!   tenths of them (ties count for neither side), and a median gap wider
//!   than the parent's own interquartile range;
//! * a **regression** is a change median worse than the parent's by more
//!   than the metric's bound in `BENCHMARK.json`;
//! * **unresolved** means either side's spread (IQR over median) is wider
//!   than the bound, unless every change run beats every parent run;
//! * a digest that differs between parent and change is a **behaviour
//!   change**, and a higher failure fraction is a **failure**.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fedsched_core::json::JsonValue;

use crate::stats;

/// Fewest pairs a gain can rest on.
const MIN_PAIRS: usize = 10;

/// The outcome for one (workload, metric).
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    TooFewPairs(usize),
    Gain,
    Regression,
    Unresolved,
    Unchanged,
}

/// Apply the rule to paired samples (`parent[i]` ran next to `change[i]`).
pub fn verdict(parent: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let n = parent.len().min(change.len());
    if n < MIN_PAIRS {
        return Verdict::TooFewPairs(n);
    }
    let (parent, change) = (&parent[..n], &change[..n]);
    let better = |c: f64, p: f64| if higher_is_better { c > p } else { c < p };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(c, p))
        .count();
    let [p1, pm, p3] = stats::quartiles(parent);
    let [c1, cm, c3] = stats::quartiles(change);
    if better(cm, pm) && wins * 10 >= n * 9 && (cm - pm).abs() > p3 - p1 {
        return Verdict::Gain;
    }
    let worse_by = if higher_is_better { pm - cm } else { cm - pm } / pm.abs();
    if worse_by > bound {
        return Verdict::Regression;
    }
    let spread = ((p3 - p1) / pm.abs()).max((c3 - c1) / cm.abs());
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if spread > bound && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// One run's result file, as far as the rule needs it.
struct Sample {
    metrics: BTreeMap<String, f64>,
    digest: String,
    failed_frac: f64,
}

fn bench_files(dir: &Path, depth: usize, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().to_string();
        if path.is_dir() && depth > 0 {
            bench_files(&path, depth - 1, out);
        } else if name.starts_with("BENCH_") && name.ends_with(".json") {
            out.push(path);
        }
    }
}

/// Every run under `dir`, by workload, in path order.
fn load(dir: &Path) -> Result<BTreeMap<String, Vec<Sample>>, String> {
    let mut files = Vec::new();
    bench_files(dir, 2, &mut files);
    files.sort();
    let mut runs: BTreeMap<String, Vec<Sample>> = BTreeMap::new();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = JsonValue::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let str_of = |key: &str| doc.get(key).and_then(|v| v.as_str().ok()).unwrap_or("");
        let mut metrics = BTreeMap::new();
        if let Some(JsonValue::Obj(fields)) = doc.get("end_to_end") {
            for (name, m) in fields {
                if let Some(v) = m.get("value").and_then(|v| v.as_f64().ok()) {
                    metrics.insert(name.clone(), v);
                }
            }
        }
        runs.entry(str_of("workload").to_string())
            .or_default()
            .push(Sample {
                metrics,
                digest: str_of("digest").to_string(),
                failed_frac: doc
                    .get("failed_frac")
                    .and_then(|v| v.as_f64().ok())
                    .unwrap_or(1.0),
            });
    }
    Ok(runs)
}

/// `(name, higher_is_better, bound)` of every end-to-end metric.
fn bounds(benchmark: &Path) -> Result<Vec<(String, bool, f64)>, String> {
    let text =
        std::fs::read_to_string(benchmark).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let doc = JsonValue::parse(&text).map_err(|e| e.to_string())?;
    let metrics = doc
        .get("end_to_end")
        .and_then(|v| v.as_arr().ok())
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(|v| v.as_str().ok());
            let better = m.get("better").and_then(|v| v.as_str().ok());
            let bound = m.get("bound").and_then(|v| v.as_f64().ok());
            match (name, better, bound) {
                (Some(n), Some(b), Some(bound)) => Ok((n.to_string(), b == "higher", bound)),
                _ => Err(format!("malformed end_to_end entry {}", m.encode())),
            }
        })
        .collect()
}

pub fn main(argv: &[String]) -> ExitCode {
    let mut dirs: BTreeMap<&str, PathBuf> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            (f @ ("--parent" | "--change" | "--benchmark"), Some(v)) => {
                dirs.insert(f, PathBuf::from(v));
            }
            _ => {
                eprintln!("usage: exp_perf compare --parent DIR --change DIR [--benchmark FILE]");
                return ExitCode::from(2);
            }
        }
    }
    let (Some(parent), Some(change)) = (dirs.get("--parent"), dirs.get("--change")) else {
        eprintln!("compare needs --parent and --change");
        return ExitCode::from(2);
    };
    let benchmark = dirs
        .get("--benchmark")
        .cloned()
        .unwrap_or_else(|| PathBuf::from("BENCHMARK.json"));
    let loaded = bounds(&benchmark).and_then(|b| Ok((b, load(parent)?, load(change)?)));
    let (bounds, parent, change) = match loaded {
        Ok(loaded) => loaded,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::FAILURE;
        }
    };
    let mut bad = false;
    println!("workload | metric | parent median [q1, q3] | change median [q1, q3] | verdict");
    for (workload, p_runs) in &parent {
        let Some(c_runs) = change.get(workload) else {
            println!(
                "{workload} | - | {} runs | no change runs | missing",
                p_runs.len()
            );
            bad = true;
            continue;
        };
        for (name, higher, bound) in &bounds {
            let series = |runs: &[Sample]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(name).copied())
                    .collect()
            };
            let (p, c) = (series(p_runs), series(c_runs));
            let v = verdict(&p, &c, *higher, *bound);
            bad |= v == Verdict::Regression;
            let q = |s: &[f64]| {
                let [a, m, b] = stats::quartiles(s);
                format!("{m:.6} [{a:.6}, {b:.6}]")
            };
            println!("{workload} | {name} | {} | {} | {v:?}", q(&p), q(&c));
        }
        let digests_differ = p_runs
            .iter()
            .chain(c_runs)
            .any(|r| r.digest != p_runs[0].digest);
        if digests_differ {
            println!("{workload} | digest | | | behaviour change");
        }
        let worst = |runs: &[Sample]| runs.iter().map(|r| r.failed_frac).fold(0.0, f64::max);
        if worst(c_runs) > worst(p_runs) {
            println!(
                "{workload} | failed_frac | {} | {} | failure",
                worst(p_runs),
                worst(c_runs)
            );
            bad = true;
        }
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + jitter * (i as f64 - 4.5) / 4.5)
            .collect()
    }

    #[test]
    fn a_clear_win_is_a_gain() {
        // Latency down 20%, both sides within ±1%.
        let parent = around(10.0, 0.1);
        let change = around(8.0, 0.1);
        assert_eq!(verdict(&parent, &change, false, 0.1), Verdict::Gain);
        // The same numbers read as throughput are a regression.
        assert_eq!(verdict(&parent, &change, true, 0.1), Verdict::Regression);
    }

    #[test]
    fn nine_pairs_cannot_carry_a_claim() {
        let parent = around(10.0, 0.1);
        let change = around(8.0, 0.1);
        assert_eq!(
            verdict(&parent[..9], &change[..9], false, 0.1),
            Verdict::TooFewPairs(9)
        );
    }

    #[test]
    fn a_gap_inside_the_parent_spread_is_no_gain() {
        // Change wins every pair by 0.5, but the parent's IQR is wider.
        let parent = around(10.0, 1.0);
        let change: Vec<f64> = parent.iter().map(|p| p - 0.5).collect();
        assert_eq!(verdict(&parent, &change, false, 0.25), Verdict::Unchanged);
        // With a bound tighter than that spread, it is unresolved.
        assert_eq!(verdict(&parent, &change, false, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn losing_pairs_block_a_gain() {
        let parent = around(10.0, 0.1);
        let mut change = around(8.0, 0.1);
        change[0] = 11.0;
        change[1] = 11.0; // 8 of 10 wins
        assert_eq!(verdict(&parent, &change, false, 0.25), Verdict::Unchanged);
    }

    #[test]
    fn small_slowdowns_pass_and_noisy_ones_are_unresolved() {
        let parent = around(10.0, 0.1);
        let slower = around(10.5, 0.1); // 5% worse, bound 10%
        assert_eq!(verdict(&parent, &slower, false, 0.1), Verdict::Unchanged);
        let noisy = around(10.0, 4.0); // IQR ~ 40% of the median
        assert_eq!(verdict(&parent, &noisy, false, 0.1), Verdict::Unresolved);
    }
}
