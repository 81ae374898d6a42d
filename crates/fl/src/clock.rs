//! The single simulated-clock vocabulary of the round core: the timing
//! report every engine returns, side-effect-free round-time predictions,
//! and the deadline/detection/rescue arithmetic.
//!
//! [`EventRoundSim`](crate::EventRoundSim) and the crate's test-only
//! lockstep oracle replay the same rounds two different ways; any
//! off-by-one between two copies of this arithmetic would surface as trace
//! drift in the differential tests. Both call these functions, so the
//! differential tests compare a single time source.
//!
//! All times are simulated seconds, relative to the round's start.

use std::fmt::{self, Write as _};

use fedsched_core::Schedule;
use fedsched_device::{Device, TrainingWorkload};
use fedsched_net::Link;
use fedsched_telemetry::Probe;
use serde::Serialize;

/// Timing statistics over simulated rounds.
///
/// `Debug` renders exactly the bytes `#[derive(Debug)]` would, under every
/// formatter flag: round digests, golden fingerprints and resume checks
/// compare those bytes. It is written by hand because a population-wide
/// `per_user_mean` (repeated at the cohort, edge and server tiers) makes
/// this the largest part of every round report, mostly exact zeros.
#[derive(Clone, PartialEq, Serialize)]
pub struct TimingReport {
    /// Synchronous round time (straggler) for every round.
    pub per_round_makespan: Vec<f64>,
    /// Mean per-user total time across rounds (computation + comm).
    pub per_user_mean: Vec<f64>,
    /// Mean fraction of the makespan spent on communication by the
    /// straggler.
    pub comm_fraction: f64,
}

impl TimingReport {
    /// Mean makespan across rounds.
    pub fn mean_makespan(&self) -> f64 {
        if self.per_round_makespan.is_empty() {
            return 0.0;
        }
        self.per_round_makespan.iter().sum::<f64>() / self.per_round_makespan.len() as f64
    }

    /// Total synchronous time over all rounds.
    pub fn total_time(&self) -> f64 {
        self.per_round_makespan.iter().sum()
    }
}

impl fmt::Debug for TimingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimingReport")
            .field("per_round_makespan", &FloatList(&self.per_round_makespan))
            .field("per_user_mean", &FloatList(&self.per_user_mean))
            .field("comm_fraction", &self.comm_fraction)
            .finish()
    }
}

/// A float slice whose `Debug` is `Vec<f64>`'s, byte for byte.
struct FloatList<'a>(&'a [f64]);

impl fmt::Debug for FloatList<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Width, precision, `+` and `#` reach every element (or, for `#`,
        // the layout), so only the element-wise list reproduces them.
        if f.width().is_some() || f.precision().is_some() || f.sign_plus() || f.alternate() {
            return f.debug_list().entries(self.0).finish();
        }
        // No other flag changes a float's `Debug` bytes: render the list
        // into one buffer, spelling `+0.0` directly, and hand the
        // formatter a single string.
        let mut buf = String::with_capacity(2 + 5 * self.0.len());
        buf.push('[');
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                buf.push_str(", ");
            }
            if v.to_bits() == 0 {
                buf.push_str("0.0");
            } else {
                write!(buf, "{v:?}")?;
            }
        }
        buf.push(']');
        f.write_str(&buf)
    }
}

/// Predicted per-user round times for `schedule` on `devices`, with zero
/// side effects: communication is the link's deterministic expectation (no
/// jitter draw) and computation runs on *clones* of the devices with
/// telemetry detached, so neither the RNG stream, the thermal state, nor
/// the event log of the real simulation is perturbed. Idle users predict
/// `0.0`.
///
/// This is the pooling input for [`DeadlinePolicy`](fedsched_core::DeadlinePolicy)
/// resolution across a whole population: the pooling in
/// [`HierEngine::coordinate`](crate::HierEngine::coordinate). A single
/// cohort predicts its active users only, through [`predict_user_time`].
pub fn predict_round_times(
    devices: &[Device],
    workload: &TrainingWorkload,
    link: &Link,
    model_bytes: f64,
    schedule: &Schedule,
) -> Vec<f64> {
    debug_assert_eq!(devices.len(), schedule.shards.len());
    let comm = link.round_seconds(model_bytes);
    schedule
        .shards
        .iter()
        .zip(devices)
        .map(|(&k, device)| {
            let samples = (k as f64 * schedule.shard_size) as usize;
            predict_user_time(device, workload, comm, samples)
        })
        .collect()
}

/// Predicted round time for one user: `comm` (the link's deterministic
/// per-round expectation) plus speculative training of `samples` on a
/// clone of the device. Idle users (`samples == 0`) predict `0.0`.
///
/// Shared by [`predict_round_times`] and the event-driven engine's
/// active-set-only deadline resolution, so both resolve deadlines from
/// the same per-user predictor.
pub fn predict_user_time(
    device: &Device,
    workload: &TrainingWorkload,
    comm: f64,
    samples: usize,
) -> f64 {
    if samples == 0 {
        return 0.0;
    }
    // Clones share the Arc-backed probe with the original — detach it so
    // speculative training never reaches the event log.
    let mut scratch = device.clone();
    scratch.set_probe(Probe::disabled());
    comm + scratch.train_samples(workload, samples)
}

/// What a per-round deadline leaves of a straggler's work.
///
/// A device that would finish at `comm + compute > deadline_s` is cut off
/// at the deadline with partial credit: the shards completed by then
/// (never all of them — a cut user is by definition unfinished), and the
/// compute span it actually occupied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlineCut {
    /// Shards completed before the cutoff (strictly less than scheduled).
    pub done: usize,
    /// Compute seconds spent before the cutoff (`deadline - comm`,
    /// clamped at zero for a device whose transfer alone blew the
    /// deadline).
    pub span_compute: f64,
}

/// Resolve the partial credit for a device cut by `deadline_s`.
///
/// `shards` is the device's scheduled shard count (must be positive),
/// `comm` its completed transfer time and `compute` its full training
/// time. Progress is linear in compute time — the paper's cost model is
/// per-sample affine, so shards complete at a uniform rate.
pub fn deadline_cut(shards: usize, comm: f64, compute: f64, deadline_s: f64) -> DeadlineCut {
    debug_assert!(shards > 0, "deadline cut needs scheduled work");
    let progress = if compute > 0.0 {
        ((deadline_s - comm) / compute).clamp(0.0, 1.0)
    } else {
        0.0
    };
    DeadlineCut {
        done: ((shards as f64 * progress).floor() as usize).min(shards - 1),
        span_compute: (deadline_s - comm).max(0.0),
    }
}

/// When the server notices that crashed users are gone.
///
/// With a deadline set, absence is detected at the deadline. Without one,
/// the server only notices once everyone who will respond has responded
/// (`responder_max`); if *nobody* responds, the last failure itself bounds
/// the wait (`fail_max`).
pub fn crash_detection(deadline_s: Option<f64>, responder_max: f64, fail_max: f64) -> f64 {
    deadline_s.unwrap_or(if responder_max > 0.0 {
        responder_max
    } else {
        fail_max
    })
}

/// When a rescue transfer to a survivor can start: not before the
/// survivor's own finish, and not before the server has detected the
/// failures whose shards it is inheriting.
pub fn rescue_available(finish: f64, detection: f64) -> f64 {
    finish.max(detection)
}

/// When a mid-round-admitted arrival can start on orphaned work: not
/// before it arrived, and not before the server has detected the failures
/// that orphaned the shards it is inheriting. Same shape as
/// [`rescue_available`], named separately because the first operand is an
/// arrival timestamp, not a survivor finish.
pub fn admission_start(arrive_s: f64, detection: f64) -> f64 {
    arrive_s.max(detection)
}

/// Refuse a NaN simulated time. A NaN would still order (after every real
/// time, under [`f64::total_cmp`]), but it is always a bug in the caller's
/// clock arithmetic and must not reach a report.
#[track_caller]
pub(crate) fn assert_time(t: f64) {
    assert!(!t.is_nan(), "event time must not be NaN");
}

/// Put timed items in the order the server sees them: earliest first,
/// equal times in insertion order (the sort is stable). Times compare
/// under [`f64::total_cmp`], so `-0.0` precedes `+0.0`.
///
/// # Panics
/// Panics if any time is NaN (see [`assert_time`]).
pub(crate) fn sort_by_time<T>(items: &mut [(f64, T)]) {
    for &(t, _) in items.iter() {
        assert_time(t);
    }
    items.sort_by(|a, b| a.0.total_cmp(&b.0));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The derive the hand-written `Debug` replaces, under the same type
    /// name so the rendered bytes can be compared whole.
    mod derived {
        // The fields are read only through the derived `Debug`.
        #[allow(dead_code)]
        #[derive(Debug)]
        pub struct TimingReport {
            pub per_round_makespan: Vec<f64>,
            pub per_user_mean: Vec<f64>,
            pub comm_fraction: f64,
        }
    }

    #[test]
    fn debug_matches_the_derive_under_every_flag() {
        let mixed = vec![
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
            1e-7,
            1e16,
            0.1 + 0.2,
            12.5,
        ];
        let vectors = [Vec::new(), vec![0.0; 10_000], mixed];
        for makespans in &vectors {
            for means in &vectors {
                for comm_fraction in [0.0, -0.0, 0.1 + 0.2] {
                    let ours = TimingReport {
                        per_round_makespan: makespans.clone(),
                        per_user_mean: means.clone(),
                        comm_fraction,
                    };
                    let derived = derived::TimingReport {
                        per_round_makespan: makespans.clone(),
                        per_user_mean: means.clone(),
                        comm_fraction,
                    };
                    let pairs = [
                        (format!("{ours:?}"), format!("{derived:?}")),
                        (format!("{ours:#?}"), format!("{derived:#?}")),
                        (format!("{ours:.3?}"), format!("{derived:.3?}")),
                        (format!("{ours:+?}"), format!("{derived:+?}")),
                        (format!("{ours:12?}"), format!("{derived:12?}")),
                    ];
                    for (flag, (got, want)) in ["", "#", ".3", "+", "12"].iter().zip(pairs) {
                        assert!(
                            got == want,
                            "`{{:{flag}?}}` differs from the derive for {} + {} means",
                            makespans.len(),
                            means.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cut_is_proportional_to_compute_progress() {
        // 10 shards, 2s comm, 10s compute, cut at 7s: 5s of compute done
        // out of 10 => half the shards.
        let cut = deadline_cut(10, 2.0, 10.0, 7.0);
        assert_eq!(cut.done, 5);
        assert_eq!(cut.span_compute, 5.0);
    }

    #[test]
    fn cut_never_awards_all_shards() {
        // Progress rounds to 100% but a cut user is by definition
        // unfinished: cap at shards - 1.
        let cut = deadline_cut(4, 0.0, 10.0, 9.999_999_999);
        assert_eq!(cut.done, 3);
    }

    #[test]
    fn cut_with_comm_past_deadline_is_zero() {
        let cut = deadline_cut(5, 8.0, 10.0, 6.0);
        assert_eq!(cut.done, 0);
        assert_eq!(cut.span_compute, 0.0);
    }

    #[test]
    fn cut_with_zero_compute_makes_no_progress() {
        let cut = deadline_cut(3, 1.0, 0.0, 5.0);
        assert_eq!(cut.done, 0);
        assert_eq!(cut.span_compute, 4.0);
    }

    #[test]
    fn detection_prefers_deadline_then_responders_then_failures() {
        assert_eq!(crash_detection(Some(30.0), 100.0, 50.0), 30.0);
        assert_eq!(crash_detection(None, 100.0, 50.0), 100.0);
        assert_eq!(crash_detection(None, 0.0, 50.0), 50.0);
        assert_eq!(crash_detection(None, 0.0, 0.0), 0.0);
    }

    #[test]
    fn rescue_waits_for_both_finish_and_detection() {
        assert_eq!(rescue_available(10.0, 4.0), 10.0);
        assert_eq!(rescue_available(4.0, 10.0), 10.0);
    }

    #[test]
    fn admission_waits_for_both_arrival_and_detection() {
        assert_eq!(admission_start(12.0, 4.0), 12.0);
        assert_eq!(admission_start(4.0, 12.0), 12.0);
        assert_eq!(admission_start(5.0, 5.0), 5.0);
    }

    #[test]
    fn earlier_times_sort_first() {
        // An earlier time comes first, whatever the insertion order.
        let mut items = vec![(3.0, "c"), (1.0, "a"), (2.0, "b")];
        sort_by_time(&mut items);
        assert_eq!(items, vec![(1.0, "a"), (2.0, "b"), (3.0, "c")]);

        // `-0.0` precedes `+0.0`, even when inserted after it.
        let mut items = vec![(0.0, "pos"), (-0.0, "neg")];
        sort_by_time(&mut items);
        assert_eq!(
            items.iter().map(|i| i.1).collect::<Vec<_>>(),
            ["neg", "pos"]
        );
        assert!(items[0].0.is_sign_negative());
    }

    #[test]
    fn equal_times_keep_insertion_order() {
        // Interleaved with other times.
        let mut items: Vec<(f64, usize)> = (0..100).map(|i| ((i % 3) as f64, i)).collect();
        sort_by_time(&mut items);
        for w in items.windows(2) {
            assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1));
        }
    }

    #[test]
    fn nan_time_panics() {
        let nan = std::panic::catch_unwind(|| sort_by_time(&mut [(1.0, ()), (f64::NAN, ())]));
        let message = nan.expect_err("a NaN time must panic");
        assert_eq!(
            message.downcast_ref::<&str>(),
            Some(&"event time must not be NaN")
        );
    }
}
