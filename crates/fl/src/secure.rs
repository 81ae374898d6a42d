//! Secure aggregation by pairwise additive masking (Bonawitz et al.,
//! CCS'17 — the paper's reference \[13\]: "we can always resort to security
//! protocols to protect the intermediate gradients").
//!
//! Each ordered pair of users `(i, j)` with `i < j` derives a shared mask
//! vector from a common seed; user `i` *adds* it and user `j` *subtracts*
//! it before upload. Individual uploads are statistically masked, but the
//! masks cancel exactly in the server's sum, so FedAvg is unchanged. This
//! is the honest-but-curious, no-dropout variant (the full protocol's
//! secret-sharing recovery for dropped users is out of scope — dropped
//! users here simply abort the round before masking).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Derive the shared pairwise mask for users `(i, j)`, `i < j`.
fn pair_mask(round_seed: u64, i: usize, j: usize, dim: usize) -> Vec<f32> {
    debug_assert!(i < j);
    let seed = round_seed ^ ((i as u64) << 32 | j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut rng = StdRng::seed_from_u64(seed);
    // Uniform masks in [-8, 8): large enough to hide typical deltas.
    (0..dim).map(|_| rng.gen::<f32>() * 16.0 - 8.0).collect()
}

/// Mask user `user`'s update for a cohort of `n_users` (all participating).
///
/// # Panics
/// Panics if `user >= n_users`.
pub fn mask_update(update: &[f32], user: usize, n_users: usize, round_seed: u64) -> Vec<f32> {
    assert!(user < n_users, "user index out of range");
    let mut out = update.to_vec();
    for other in 0..n_users {
        if other == user {
            continue;
        }
        let (lo, hi) = (user.min(other), user.max(other));
        let mask = pair_mask(round_seed, lo, hi, update.len());
        if user == lo {
            for (o, m) in out.iter_mut().zip(&mask) {
                *o += m;
            }
        } else {
            for (o, m) in out.iter_mut().zip(&mask) {
                *o -= m;
            }
        }
    }
    out
}

/// Sum masked updates: the pairwise masks cancel, recovering the exact sum
/// of the plaintext updates (up to float round-off).
pub fn unmask_sum(masked: &[Vec<f32>]) -> Vec<f32> {
    assert!(!masked.is_empty(), "no masked updates");
    let dim = masked[0].len();
    let mut sum = vec![0.0f64; dim];
    for m in masked {
        assert_eq!(m.len(), dim, "masked update dimension mismatch");
        for (s, &v) in sum.iter_mut().zip(m) {
            *s += f64::from(v);
        }
    }
    sum.into_iter().map(|v| v as f32).collect()
}

/// Securely aggregate a round: mask every update, sum on the "server", and
/// divide by the total weight. Returns the same result as plain weighted
/// FedAvg would — secure aggregation is transparency-checked in tests.
/// When every weight is zero the result is the zero vector, matching
/// [`crate::server::fedavg_aggregate`] (previously this divided by zero).
pub fn secure_fedavg(updates: &[(Vec<f32>, usize)], round_seed: u64) -> Vec<f32> {
    assert!(!updates.is_empty(), "secure_fedavg: no updates");
    let n = updates.len();
    let total: usize = updates.iter().map(|&(_, w)| w).sum();
    if total == 0 {
        return vec![0.0; updates[0].0.len()];
    }
    // Weight before masking (weights are public metadata in the protocol).
    let weighted: Vec<Vec<f32>> = updates
        .iter()
        .map(|&(ref u, w)| {
            let scale = w as f32 / total as f32;
            u.iter().map(|&v| v * scale).collect()
        })
        .collect();
    let masked: Vec<Vec<f32>> = weighted
        .iter()
        .enumerate()
        .map(|(i, u)| mask_update(u, i, n, round_seed))
        .collect();
    unmask_sum(&masked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::fedavg_aggregate;

    #[test]
    fn masks_cancel_exactly_in_the_sum() {
        let updates = [
            vec![1.0f32, -2.0, 3.0],
            vec![0.5, 0.5, 0.5],
            vec![-1.0, 1.0, 0.0],
        ];
        let masked: Vec<Vec<f32>> = updates
            .iter()
            .enumerate()
            .map(|(i, u)| mask_update(u, i, 3, 99))
            .collect();
        let sum = unmask_sum(&masked);
        for (k, s) in sum.iter().enumerate() {
            let plain: f32 = updates.iter().map(|u| u[k]).sum();
            assert!((s - plain).abs() < 1e-4, "component {k}: {s} vs {plain}");
        }
    }

    #[test]
    fn individual_masked_updates_hide_the_plaintext() {
        let update = vec![0.25f32; 64];
        let masked = mask_update(&update, 0, 4, 7);
        // The mask must actually perturb every component (u.a.r. masks have
        // measure-zero chance of being ~0 everywhere).
        let moved = masked
            .iter()
            .zip(&update)
            .filter(|(m, u)| (*m - *u).abs() > 0.01)
            .count();
        assert!(moved > 60, "only {moved}/64 components masked");
    }

    #[test]
    fn secure_fedavg_matches_plain_fedavg() {
        let updates = vec![
            (vec![1.0f32, 2.0, 3.0, 4.0], 10usize),
            (vec![5.0, 6.0, 7.0, 8.0], 30),
            (vec![-1.0, 0.0, 1.0, 2.0], 5),
        ];
        let plain = fedavg_aggregate(&updates);
        let secure = secure_fedavg(&updates, 1234);
        for (a, b) in plain.iter().zip(&secure) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn all_zero_weights_yield_zero_vector_not_nans() {
        // Regression: mirrors fedavg_aggregate — a fully-dropped round must
        // not divide by zero.
        let updates = vec![(vec![1.0f32, 2.0], 0usize), (vec![3.0, 4.0], 0)];
        let out = secure_fedavg(&updates, 42);
        assert_eq!(out, vec![0.0, 0.0]);
        assert_eq!(out, fedavg_aggregate(&updates));
    }

    #[test]
    fn different_rounds_use_different_masks() {
        let update = vec![0.0f32; 8];
        let a = mask_update(&update, 0, 2, 1);
        let b = mask_update(&update, 0, 2, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn single_user_is_unmasked() {
        let update = vec![1.0f32, 2.0];
        assert_eq!(mask_update(&update, 0, 1, 5), update);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_user_index_panics() {
        let _ = mask_update(&[1.0], 2, 2, 0);
    }
}
