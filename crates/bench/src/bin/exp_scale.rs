//! Regenerates the scale-out sweep: the population engine from 10 to
//! 10,000 devices across worker thread counts (1M devices through the
//! engine's mega arm at `--scale paper`).
//!
//! `--hier-check` runs the hierarchical-aggregation gate, all of it on
//! `HierEngine`: thread invariance at 1k devices (threads 2 and 4 against
//! threads 1), arena-built against scalar-built populations at 100k
//! devices, then 1M devices at full coverage, the last two under
//! wall-clock and peak-RSS budgets.
use std::time::Instant;

use fedsched_bench::{scaleout, Scale};

/// Wall-clock budget for the 100k and 1M hier-check arms, seconds.
const HIER_CHECK_WALL_BUDGET_S: f64 = 120.0;
/// Peak-RSS budget for the 100k and 1M hier-check arms, bytes.
const HIER_CHECK_RSS_BUDGET: u64 = 4 * 1024 * 1024 * 1024;

fn main() {
    if std::env::args().any(|a| a == "--hier-check") {
        let small = scaleout::hier_point(1_000, 42, 2, &[1, 2, 4]);
        assert!(
            small.parity,
            "hierarchical engine diverged across threads at 1k devices"
        );
        let start = Instant::now();
        assert!(
            scaleout::arena_matches_scalar(100_000, 250, 10, 42),
            "arena-built population diverged from the scalar one through HierEngine at 100k devices"
        );
        let mega = scaleout::mega_point(1_000_000, 1_000, 100, 42);
        assert!(mega.full_coverage, "1M-device HierEngine run lost coverage");
        let wall_s = start.elapsed().as_secs_f64();
        assert!(
            wall_s < HIER_CHECK_WALL_BUDGET_S,
            "100k + 1M hier check took {wall_s:.1} s, budget {HIER_CHECK_WALL_BUDGET_S} s"
        );
        let summary = format!(
            "1k thread invariance at threads 1/2/4; 100k arena-vs-scalar \
             parity and 1M x 100 rounds at full coverage ({:.1} s) in \
             {wall_s:.1} s",
            mega.wall_s,
        );
        match scaleout::peak_rss_bytes() {
            Some(rss) => {
                assert!(
                    rss < HIER_CHECK_RSS_BUDGET,
                    "peak RSS {} MB over the {} MB budget",
                    rss / (1024 * 1024),
                    HIER_CHECK_RSS_BUDGET / (1024 * 1024),
                );
                println!(
                    "[exp_scale] hier check ok: {summary}, peak RSS {} MB",
                    rss / (1024 * 1024),
                );
            }
            None => {
                println!("[exp_scale] hier check ok: {summary} (no procfs, RSS budget skipped)")
            }
        }
        return;
    }
    let scale = Scale::from_args();
    eprintln!("[exp_scale] scale = {}", scale.name());
    let sweep = scaleout::run(scale, 42);
    println!("{}", scaleout::render(&sweep));
}
