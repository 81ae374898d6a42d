//! The four simulator workloads: spec text → `JobSpec::parse` →
//! `JobSpec::build` → `BuiltSim::step`, in fixed-length episodes.
//!
//! An episode builds fresh simulators from its own sub-seed of `--seed`
//! and steps a fixed number of rounds. A run repeats episodes until its
//! time is up, so set-up is measured once per episode and reported as a
//! median, and the round tail is drawn from many distinct rounds rather
//! than from a few repeated ones. Episodes come from one generator and do
//! the same amount of work; the rounds of the faster half of them give
//! the round metrics (see `Run::kept`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use fedsched_fl::{BuiltSim, JobSpec};
use fedsched_telemetry::{EventLog, Probe};

use crate::inputs::{self, derive, Case, Size};
use crate::trace::Timer;
use crate::{Episode, Run};

/// Set-up samples a run collects at least, for a median.
const MIN_EPISODES: usize = 3;
/// Round samples a full run keeps at least: ten beyond its p99.
const MIN_ROUNDS: usize = 1000;
/// A run that has not met its minimums by now stops anyway.
const CAP_S: f64 = 120.0;

/// FNV-1a 64 over a byte stream fed in pieces; equal to
/// `fedsched_core::json::fnv1a64` over the concatenation.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The seed episode `index` of a run draws its inputs from.
pub fn episode_seed(seed: u64, index: usize) -> u64 {
    derive(seed, 1000 + index as u64)
}

/// A workload's jobs for one episode seed. `paper_testbeds` plans its
/// jobs with the product's own offline path, which `t` times.
pub fn cases(workload: &str, seed: u64, size: Size, t: &Timer) -> Result<Vec<Case>, String> {
    match workload {
        "chaos_fleet" => Ok(inputs::chaos_fleet(seed, size)),
        "bandit_drift" => Ok(inputs::bandit_drift(seed, size)),
        "hier_100k" => Ok(inputs::hier_100k(seed, size)),
        _ => inputs::paper_testbeds(seed, size, t),
    }
}

/// Spec text to a steppable simulator: `canonical_json`, `parse` (which
/// must give back the same spec), `build`.
pub fn spec_to_sim(spec: &JobSpec, probe: &Probe, t: &Timer, run: &mut Run) -> Option<BuiltSim> {
    run.attempted += 1;
    let (text, encode_s) = t.timed("fl.spec", "encode", || spec.canonical_json());
    let (parsed, parse_s) = t.timed("fl.spec", "parse", || JobSpec::parse(&text));
    run.sample("fl.spec.encode_us", encode_s * 1e6);
    run.sample("fl.spec.parse_us", parse_s * 1e6);
    let built = match parsed {
        Ok(parsed) if parsed == *spec => {
            let (built, build_s) = t.timed("fl.spec", "build", || parsed.build(probe.clone()));
            run.sample("fl.spec.build_ms", build_s * 1e3);
            built.map_err(|e| format!("build failed: {e}"))
        }
        Ok(_) => Err("spec changed across encode -> parse".to_string()),
        Err(e) => Err(format!("parse failed: {e}")),
    };
    built.map_err(|why| run.fail(why)).ok()
}

/// One episode: generate (for `paper_testbeds`, plan) its jobs, build,
/// step every job its rounds, and — when traced — encode the telemetry.
/// Set-up time runs from the spec structs (or the planning) to the last
/// steppable simulator. Returns the episode's digest when `digest` asks
/// for one (hashing a large fleet's reports costs milliseconds a round).
fn episode(
    workload: &str,
    seed: u64,
    size: Size,
    digest: bool,
    log: Option<&Arc<EventLog>>,
    timer: Timer,
    run: &mut Run,
) -> Option<u64> {
    let root = timer.open("bench", "episode");
    let t = timer.child(root, 0);
    let probe = log.map_or_else(Probe::disabled, |l| Probe::attached(l.clone()));
    let planned = workload == "paper_testbeds";
    let fixed = (!planned).then(|| cases(workload, seed, size, &t));
    let start = Instant::now();
    let cases = match fixed.unwrap_or_else(|| cases(workload, seed, size, &t)) {
        Ok(cases) => cases,
        Err(why) => {
            run.attempted += 1;
            run.fail(why);
            t.close(root);
            return None;
        }
    };
    let sims: Option<Vec<BuiltSim>> = cases
        .iter()
        .map(|case| spec_to_sim(&case.spec, &probe, &t, run))
        .collect();
    let stepped = sims.and_then(|sims| {
        run.setup_s.push(start.elapsed().as_secs_f64());
        step_all(&cases, sims, digest.then(Fnv::new), root, &t, run)
    });
    if let (Some(log), Some(_)) = (log, &stepped) {
        let (jsonl, secs) = t.timed("telemetry", "jsonl", || log.to_jsonl());
        let events = jsonl.lines().count().max(1);
        run.sample("telemetry.jsonl_ms_per_kevent", secs * 1e6 / events as f64);
    }
    t.close(root);
    stepped.flatten()
}

/// Step every case its rounds; `None` if a round panicked, else the
/// digest if one was asked for.
fn step_all(
    cases: &[Case],
    mut sims: Vec<BuiltSim>,
    mut digest: Option<Fnv>,
    root: Option<usize>,
    t: &Timer,
    run: &mut Run,
) -> Option<Option<u64>> {
    let mut round = 0u64;
    let (first, mut wall) = (run.round_ms.len(), 0.0);
    for (case, sim) in cases.iter().zip(&mut sims) {
        for _ in 0..case.rounds {
            run.attempted += 1;
            let step = t.child(root, round);
            let (outcome, secs) = step.timed("fl", "step", || {
                catch_unwind(AssertUnwindSafe(|| sim.step(&case.schedule)))
            });
            round += 1;
            match outcome {
                Ok(d) => {
                    run.round_ms.push(secs * 1e3);
                    wall += secs;
                    if let Some(h) = digest.as_mut() {
                        step.time("bench", "digest", || h.write(d.detail.as_bytes()));
                    }
                }
                Err(_) => {
                    run.fail(format!("round {round} panicked"));
                    return None;
                }
            }
        }
    }
    run.episodes.push(Episode {
        first,
        rounds: run.round_ms.len() - first,
        wall_s: wall,
    });
    t.time("fl", "drop", || drop(sims));
    Some(digest.map(|h| h.finish()))
}

/// Untraced measurement: episodes until `seconds` have passed and the
/// minimum sample counts are met. The run's digest is its first
/// episode's.
pub fn measure(workload: &str, seed: u64, size: Size, seconds: f64) -> Run {
    let (min_rounds, seconds) = if size.smoke {
        (0, 0.0)
    } else {
        (MIN_ROUNDS, seconds)
    };
    let mut run = Run::default();
    let start = Instant::now();
    for index in 0.. {
        let sub = episode_seed(seed, index);
        let digest = episode(
            workload,
            sub,
            size,
            index == 0,
            None,
            Timer::off(),
            &mut run,
        );
        if index == 0 {
            run.digest = digest;
        }
        let elapsed = start.elapsed().as_secs_f64();
        let enough = run.setup_s.len() >= MIN_EPISODES && run.kept().0.len() >= min_rounds;
        if run.failed > 0 || (enough && elapsed >= seconds) || elapsed >= CAP_S {
            break;
        }
    }
    run.wall_s = start.elapsed().as_secs_f64();
    run
}

/// The first episode again, with telemetry attached and spans recorded.
pub fn traced_episode(
    workload: &str,
    seed: u64,
    size: Size,
    timer: Timer,
    log: &Arc<EventLog>,
) -> Run {
    let mut run = Run::default();
    let start = Instant::now();
    run.digest = episode(
        workload,
        episode_seed(seed, 0),
        size,
        true,
        Some(log),
        timer,
        &mut run,
    );
    run.wall_s = start.elapsed().as_secs_f64();
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_fnv_matches_the_workspace_hash() {
        let mut h = Fnv::new();
        h.write(b"round 0;");
        h.write(b"round 1;");
        assert_eq!(
            h.finish(),
            fedsched_core::json::fnv1a64(b"round 0;round 1;")
        );
    }
}
