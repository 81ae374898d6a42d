//! Lossy links and retry policies: communication failure simulated in time.
//!
//! A [`LossyLink`] wraps a [`Link`] with a per-attempt drop
//! probability and network outage windows; a [`RetryPolicy`] turns those
//! failures into capped-exponential-backoff retries with a per-attempt
//! timeout. All retries are *simulated* in the round's virtual clock —
//! [`LossyLink::transfer`] returns the elapsed simulated seconds, not
//! wall-clock.
//!
//! Determinism contract: transfer *durations* come from the caller's main
//! RNG (matching the fault-free path draw for draw), while loss decisions
//! and backoff jitter come from a caller-supplied `draw` closure, which the
//! fault layer backs with a counter-based stream. With `drop_prob == 0`, no
//! outages and an infinite timeout, `transfer` consumes exactly one duration
//! sample and no auxiliary draws — byte-identical to the clean path.

use rand::Rng;
use serde::Serialize;

use crate::Link;

/// Why a single transfer attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TransferFailure {
    /// The attempt was dropped by the lossy link.
    Loss,
    /// The attempt overlapped a network outage window.
    Outage,
    /// The sampled duration exceeded the per-attempt timeout.
    Timeout,
}

impl TransferFailure {
    /// Stable snake_case code for telemetry.
    pub fn as_str(&self) -> &'static str {
        match self {
            TransferFailure::Loss => "loss",
            TransferFailure::Outage => "outage",
            TransferFailure::Timeout => "timeout",
        }
    }
}

/// Capped exponential backoff with jittered retries and a per-attempt
/// timeout. Attempts and waits are simulated in time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RetryPolicy {
    /// Maximum attempts (>= 1) before the transfer is abandoned.
    pub max_attempts: usize,
    /// Per-attempt timeout in seconds; a failed attempt costs this much
    /// simulated time (the sender waits for the ack). `f64::INFINITY`
    /// disables the timeout.
    pub timeout_s: f64,
    /// Backoff before the first retry, seconds.
    pub base_backoff_s: f64,
    /// Multiplier applied per further retry.
    pub backoff_multiplier: f64,
    /// Backoff cap, seconds.
    pub max_backoff_s: f64,
    /// Jitter as a fraction of the backoff: the wait is scaled by a factor
    /// drawn uniformly from `[1 - jitter, 1 + jitter]`.
    pub jitter_frac: f64,
}

impl RetryPolicy {
    /// A single attempt with no timeout — the behaviour of the clean,
    /// retry-free path.
    pub fn single_attempt() -> Self {
        RetryPolicy {
            max_attempts: 1,
            timeout_s: f64::INFINITY,
            base_backoff_s: 0.0,
            backoff_multiplier: 1.0,
            max_backoff_s: 0.0,
            jitter_frac: 0.0,
        }
    }

    /// A production-flavoured default: 4 attempts, 30 s timeout, 1 s base
    /// backoff doubling to a 8 s cap, 20% jitter.
    pub fn default_chaos() -> Self {
        RetryPolicy {
            max_attempts: 4,
            timeout_s: 30.0,
            base_backoff_s: 1.0,
            backoff_multiplier: 2.0,
            max_backoff_s: 8.0,
            jitter_frac: 0.2,
        }
    }

    /// Check the policy is well-formed, returning the offending rule on
    /// failure — the non-panicking twin of [`RetryPolicy::validate`] that
    /// the fallible builder surface (`fedsched-fl`'s `SimBuilder`) maps
    /// into its `ConfigError`.
    pub fn check(&self) -> Result<(), &'static str> {
        if self.max_attempts < 1 {
            return Err("need at least one attempt");
        }
        if self.timeout_s <= 0.0 || self.timeout_s.is_nan() {
            return Err("timeout must be positive");
        }
        if !(self.base_backoff_s >= 0.0
            && self.backoff_multiplier >= 1.0
            && self.max_backoff_s >= 0.0)
        {
            return Err("backoff must be non-negative and non-shrinking");
        }
        if !(0.0..=1.0).contains(&self.jitter_frac) {
            return Err("jitter must be in [0, 1]");
        }
        Ok(())
    }

    /// Check the policy is well-formed.
    ///
    /// # Panics
    /// Panics on zero attempts, non-positive timeout, negative backoff, or
    /// jitter outside `[0, 1]`.
    pub fn validate(&self) {
        if let Err(rule) = self.check() {
            panic!("{rule}");
        }
    }

    /// Simulated wait before retry number `retry` (1-based), with
    /// `jitter_u01` drawn uniformly from `[0, 1)`.
    pub fn backoff_s(&self, retry: usize, jitter_u01: f64) -> f64 {
        let exp = self.backoff_multiplier.powi(retry.saturating_sub(1) as i32);
        let base = (self.base_backoff_s * exp).min(self.max_backoff_s);
        base * (1.0 + self.jitter_frac * (2.0 * jitter_u01 - 1.0))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::single_attempt()
    }
}

/// The result of a (possibly retried) transfer, in simulated time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TransferOutcome {
    /// Whether the payload eventually got through.
    pub delivered: bool,
    /// Attempts made (1 = first try succeeded).
    pub attempts: usize,
    /// Total simulated seconds spent (attempts + backoffs).
    pub elapsed_s: f64,
    /// Failed attempts: `(elapsed seconds at failure, cause)`.
    pub failures: Vec<(f64, TransferFailure)>,
}

/// A [`Link`] that can drop transfers and suffer outage windows.
#[derive(Debug, Clone, PartialEq)]
pub struct LossyLink {
    /// The underlying throughput/latency model.
    pub link: Link,
    /// Probability each attempt is lost, in `[0, 1]`.
    pub drop_prob: f64,
    /// Outage windows `(start_s, end_s)` on the round's clock; an attempt
    /// overlapping a window fails.
    pub outages: Vec<(f64, f64)>,
}

impl LossyLink {
    /// A lossless wrapper (behaves exactly like the bare link).
    pub fn clean(link: Link) -> Self {
        LossyLink {
            link,
            drop_prob: 0.0,
            outages: Vec::new(),
        }
    }

    /// A link that drops each attempt with probability `drop_prob`.
    ///
    /// # Panics
    /// Panics unless `drop_prob` is a probability.
    pub fn new(link: Link, drop_prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&drop_prob) && drop_prob.is_finite(),
            "drop probability must be in [0, 1]"
        );
        LossyLink {
            link,
            drop_prob,
            outages: Vec::new(),
        }
    }

    /// Set the outage windows (builder form).
    pub fn with_outages(mut self, outages: Vec<(f64, f64)>) -> Self {
        self.outages = outages;
        self
    }

    /// Whether `[start_s, end_s]` overlaps any outage window.
    pub fn in_outage(&self, start_s: f64, end_s: f64) -> bool {
        self.outages.iter().any(|&(s, e)| start_s < e && end_s > s)
    }

    /// Simulate a transfer of `bytes` starting at `t_start_s` under
    /// `policy`. Durations are sampled from `rng` (the simulation's main
    /// RNG); loss decisions and backoff jitter come from `draw`, which must
    /// yield uniform values in `[0, 1)` and is only called when an actual
    /// decision is needed.
    pub fn transfer<R: Rng>(
        &self,
        bytes: f64,
        t_start_s: f64,
        policy: &RetryPolicy,
        rng: &mut R,
        draw: &mut dyn FnMut() -> f64,
    ) -> TransferOutcome {
        policy.validate();
        // Elapsed time is accumulated relative to `t_start_s` so the clean
        // path (one attempt, no failures) returns the sampled duration
        // bit-for-bit, with no floating-point drift from the start offset.
        let mut elapsed = 0.0;
        let mut failures = Vec::new();
        for attempt in 1..=policy.max_attempts {
            let duration = self.link.sample_round_seconds(bytes, rng);
            let t = t_start_s + elapsed;
            let failure = if duration > policy.timeout_s {
                Some(TransferFailure::Timeout)
            } else if self.in_outage(t, t + duration) {
                Some(TransferFailure::Outage)
            } else if self.drop_prob > 0.0 && draw() < self.drop_prob {
                Some(TransferFailure::Loss)
            } else {
                None
            };
            match failure {
                None => {
                    return TransferOutcome {
                        delivered: true,
                        attempts: attempt,
                        elapsed_s: elapsed + duration,
                        failures,
                    };
                }
                Some(cause) => {
                    // The sender notices a lost/blocked attempt only when
                    // the ack timeout fires; with no timeout configured the
                    // attempt's own duration is charged.
                    let cost = if policy.timeout_s.is_finite() {
                        policy.timeout_s
                    } else {
                        duration
                    };
                    elapsed += cost;
                    failures.push((elapsed, cause));
                    if attempt < policy.max_attempts {
                        elapsed += policy.backoff_s(attempt, draw());
                    }
                }
            }
        }
        TransferOutcome {
            delivered: false,
            attempts: policy.max_attempts,
            elapsed_s: elapsed,
            failures,
        }
    }
}

#[cfg(test)]
mod faulty_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn flat_link() -> Link {
        Link::new(100.0, 100.0, 0.01, 0.0)
    }

    fn no_aux() -> impl FnMut() -> f64 {
        || panic!("auxiliary draw must not be consumed on the clean path")
    }

    #[test]
    fn clean_transfer_matches_bare_link_exactly() {
        let lossy = LossyLink::clean(flat_link());
        let mut rng = StdRng::seed_from_u64(1);
        let out = lossy.transfer(
            1e6,
            5.0,
            &RetryPolicy::single_attempt(),
            &mut rng,
            &mut no_aux(),
        );
        assert!(out.delivered);
        assert_eq!(out.attempts, 1);
        assert!(out.failures.is_empty());
        let mut rng2 = StdRng::seed_from_u64(1);
        assert_eq!(
            out.elapsed_s,
            flat_link().sample_round_seconds(1e6, &mut rng2)
        );
    }

    #[test]
    fn certain_loss_exhausts_attempts_with_backoff() {
        let lossy = LossyLink::new(flat_link(), 1.0);
        let policy = RetryPolicy {
            max_attempts: 3,
            timeout_s: 2.0,
            base_backoff_s: 1.0,
            backoff_multiplier: 2.0,
            max_backoff_s: 10.0,
            jitter_frac: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let mut draw = || 0.0;
        let out = lossy.transfer(1e6, 0.0, &policy, &mut rng, &mut draw);
        assert!(!out.delivered);
        assert_eq!(out.attempts, 3);
        assert_eq!(out.failures.len(), 3);
        // 3 timeouts (2 s each) + backoffs 1 s and 2 s.
        assert!((out.elapsed_s - (3.0 * 2.0 + 1.0 + 2.0)).abs() < 1e-12);
        assert!(out
            .failures
            .iter()
            .all(|(_, c)| *c == TransferFailure::Loss));
    }

    #[test]
    fn outage_window_blocks_overlapping_attempts() {
        let lossy = LossyLink::clean(flat_link()).with_outages(vec![(0.0, 10.0)]);
        let policy = RetryPolicy {
            max_attempts: 2,
            timeout_s: 6.0,
            base_backoff_s: 5.0,
            backoff_multiplier: 1.0,
            max_backoff_s: 5.0,
            jitter_frac: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut draw = || 0.5;
        // Attempt 1 starts at 0 inside the outage -> fails at 6 s; retry
        // waits 5 s (t = 11) and succeeds outside the window.
        let out = lossy.transfer(1e6, 0.0, &policy, &mut rng, &mut draw);
        assert!(out.delivered);
        assert_eq!(out.attempts, 2);
        assert_eq!(out.failures[0].1, TransferFailure::Outage);
        assert!(out.elapsed_s > 11.0);
    }

    #[test]
    fn outage_overlap_is_open_at_exact_boundaries() {
        // The event-driven engine schedules transfer attempts at exact
        // simulated instants, so the lockstep and event paths must agree
        // on boundary ties: an attempt that only *touches* an outage
        // endpoint does not overlap the window.
        let lossy = LossyLink::clean(flat_link()).with_outages(vec![(10.0, 20.0)]);
        assert!(
            !lossy.in_outage(0.0, 10.0),
            "ending exactly at window start is clear"
        );
        assert!(
            !lossy.in_outage(20.0, 25.0),
            "starting exactly at window end is clear"
        );
        assert!(
            !lossy.in_outage(10.0, 10.0),
            "a zero-length instant at the window edge is clear"
        );
        assert!(lossy.in_outage(9.0, 10.5));
        assert!(lossy.in_outage(19.5, 19.75));
        assert!(lossy.in_outage(0.0, 30.0), "window strictly inside counts");
        assert!(
            lossy.in_outage(15.0, 15.0),
            "a zero-length instant inside the window counts"
        );
    }

    #[test]
    fn timeout_cuts_overlong_attempts() {
        // 1 byte/s effectively: duration far above the 1 s timeout.
        let slow = Link::new(0.001, 0.001, 0.0, 0.0);
        let lossy = LossyLink::clean(slow);
        let policy = RetryPolicy {
            max_attempts: 2,
            timeout_s: 1.0,
            base_backoff_s: 0.5,
            backoff_multiplier: 1.0,
            max_backoff_s: 0.5,
            jitter_frac: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(4);
        let mut draw = || 0.5;
        let out = lossy.transfer(1e9, 0.0, &policy, &mut rng, &mut draw);
        assert!(!out.delivered);
        assert!(out
            .failures
            .iter()
            .all(|(_, c)| *c == TransferFailure::Timeout));
        assert!((out.elapsed_s - (1.0 + 0.5 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn backoff_schedule_is_capped_exponential_with_jitter() {
        let p = RetryPolicy {
            max_attempts: 5,
            timeout_s: 1.0,
            base_backoff_s: 1.0,
            backoff_multiplier: 2.0,
            max_backoff_s: 5.0,
            jitter_frac: 0.5,
        };
        assert_eq!(p.backoff_s(1, 0.5), 1.0);
        assert_eq!(p.backoff_s(2, 0.5), 2.0);
        assert_eq!(p.backoff_s(3, 0.5), 4.0);
        assert_eq!(p.backoff_s(4, 0.5), 5.0); // capped
        assert_eq!(p.backoff_s(1, 0.0), 0.5); // -50% jitter
        assert_eq!(p.backoff_s(1, 1.0), 1.5); // +50% jitter
    }

    #[test]
    fn loss_probability_is_respected_by_draws() {
        let lossy = LossyLink::new(flat_link(), 0.25);
        let policy = RetryPolicy::default_chaos();
        let mut rng = StdRng::seed_from_u64(5);
        let mut counter = 0usize;
        let mut draw = move || {
            counter += 1;
            // Loss decisions land on draws 1, 3, 5, 7 (backoff jitter takes
            // the even draws). Stay below the drop probability for the
            // first three attempts, then above it.
            if counter < 6 {
                0.1
            } else {
                0.9
            }
        };
        // Attempts 1-3: loss draw 0.1 < 0.25 -> lost, with a jitter draw
        // between each; attempt 4: loss draw 0.9 -> delivered.
        let out = lossy.transfer(1e6, 0.0, &policy, &mut rng, &mut draw);
        assert!(out.delivered);
        assert_eq!(out.attempts, 4);
        assert_eq!(out.failures.len(), 3);
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn invalid_drop_prob_rejected() {
        let _ = LossyLink::new(flat_link(), 1.5);
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempts_rejected() {
        let mut p = RetryPolicy::single_attempt();
        p.max_attempts = 0;
        p.validate();
    }
}
