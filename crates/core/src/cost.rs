//! The cost matrix `C = {c_jk}`: predicted time for user `j` to handle a
//! task of `k` shards (paper Section V-B).
//!
//! Entries include both computation (from a [`CostProfile`]) and the user's
//! per-round communication time, and rows are forced monotone non-decreasing
//! in `k` (paper Property 1) with a running-max pass, so the downstream
//! binary searches are always valid even for noisy tabulated profiles.

use fedsched_profiler::CostProfile;
use serde::{Deserialize, Serialize};

/// Dense `n x s` cost matrix with monotone rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostMatrix {
    n_users: usize,
    total_shards: usize,
    shard_size: f64,
    /// Row-major: `rows[j * total_shards + (k - 1)]` is the cost of `k`
    /// shards on user `j`, `k` in `1..=total_shards`.
    rows: Vec<f64>,
    /// Per-user fixed communication cost (charged only when `k > 0`).
    comm: Vec<f64>,
}

impl CostMatrix {
    /// Build from per-user time profiles.
    ///
    /// `comm[j]` is user `j`'s per-round up+down transfer time, charged
    /// whenever the user participates (`k >= 1`).
    ///
    /// `total_shards == 0` is a valid degenerate instance (an empty round):
    /// the matrix has no entries and every scheduler must return the
    /// all-zeros schedule for it.
    ///
    /// # Panics
    /// Panics if `profiles` is empty, lengths mismatch, or `shard_size <= 0`.
    pub fn from_profiles<P: CostProfile>(
        profiles: &[P],
        total_shards: usize,
        shard_size: f64,
        comm: &[f64],
    ) -> Self {
        assert!(!profiles.is_empty(), "CostMatrix: need at least one user");
        assert_eq!(
            profiles.len(),
            comm.len(),
            "CostMatrix: profiles/comm length mismatch"
        );
        assert!(shard_size > 0.0, "CostMatrix: shard_size must be positive");

        let n = profiles.len();
        let mut rows = Vec::with_capacity(n * total_shards);
        for (p, &c) in profiles.iter().zip(comm) {
            let mut running_max = 0.0f64;
            for k in 1..=total_shards {
                let t = p.time_for(k as f64 * shard_size) + c;
                running_max = running_max.max(t);
                rows.push(running_max);
            }
        }
        CostMatrix {
            n_users: n,
            total_shards,
            shard_size,
            rows,
            comm: comm.to_vec(),
        }
    }

    /// Build from constant per-shard rates: `cost(j, k) = rate[j] * k + comm[j]`.
    /// Convenient for tests and synthetic benchmarks.
    pub fn from_linear_rates(
        rates_per_shard: &[f64],
        total_shards: usize,
        shard_size: f64,
        comm: &[f64],
    ) -> Self {
        struct Linear(f64, f64);
        impl CostProfile for Linear {
            fn time_for(&self, samples: f64) -> f64 {
                self.0 * samples / self.1
            }
        }
        let profiles: Vec<Linear> = rates_per_shard
            .iter()
            .map(|&r| Linear(r, shard_size))
            .collect();
        CostMatrix::from_profiles(&profiles, total_shards, shard_size, comm)
    }

    /// Number of users `n`.
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Total shards `s` to be distributed.
    pub fn total_shards(&self) -> usize {
        self.total_shards
    }

    /// Samples per shard.
    pub fn shard_size(&self) -> f64 {
        self.shard_size
    }

    /// Cost of `k` shards on user `j`; `k == 0` is free (no participation,
    /// no communication).
    ///
    /// # Panics
    /// Panics if `j >= n_users` or `k > total_shards`.
    pub fn cost(&self, j: usize, k: usize) -> f64 {
        assert!(j < self.n_users, "user index {j} out of range");
        assert!(k <= self.total_shards, "shard count {k} exceeds total");
        if k == 0 {
            0.0
        } else {
            self.rows[j * self.total_shards + (k - 1)]
        }
    }

    /// The user's fixed communication cost.
    pub fn comm(&self, j: usize) -> f64 {
        self.comm[j]
    }

    /// Largest `k` such that `cost(j, k) <= threshold` (0 if even one shard
    /// exceeds it). Binary search over the monotone row: `O(log s)`.
    pub fn max_shards_within(&self, j: usize, threshold: f64) -> usize {
        let row = &self.rows[j * self.total_shards..(j + 1) * self.total_shards];
        // partition_point: first index where cost > threshold.
        row.partition_point(|&c| c <= threshold)
    }

    /// All matrix entries, sorted ascending: the candidate thresholds of the
    /// paper's binary search, which the Fed-LBAP tests keep as an oracle.
    #[cfg(test)]
    pub(crate) fn sorted_costs(&self) -> Vec<f64> {
        let mut v = self.rows.clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("costs are finite"));
        v
    }

    /// Per-shard marginal cost `cost(j, k) - cost(j, k-1)`.
    pub fn marginal(&self, j: usize, k: usize) -> f64 {
        assert!(k >= 1);
        self.cost(j, k) - self.cost(j, k - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsched_profiler::LinearProfile;

    #[test]
    fn linear_rates_build_expected_entries() {
        let c = CostMatrix::from_linear_rates(&[1.0, 2.0], 3, 50.0, &[0.5, 0.0]);
        assert_eq!(c.cost(0, 0), 0.0);
        assert_eq!(c.cost(0, 1), 1.5);
        assert_eq!(c.cost(0, 3), 3.5);
        assert_eq!(c.cost(1, 2), 4.0);
    }

    #[test]
    fn rows_are_monotone_even_with_odd_profiles() {
        // A profile that is *not* monotone (violates Property 1): the
        // running-max pass must repair the row.
        struct Weird;
        impl CostProfile for Weird {
            fn time_for(&self, samples: f64) -> f64 {
                if samples as usize == 200 {
                    1.0
                } else {
                    samples / 100.0
                }
            }
        }
        let c = CostMatrix::from_profiles(&[Weird], 4, 100.0, &[0.0]);
        for k in 2..=4 {
            assert!(c.cost(0, k) >= c.cost(0, k - 1));
        }
    }

    #[test]
    fn comm_cost_charged_only_when_participating() {
        let p = [LinearProfile::new(0.0, 0.01)];
        let c = CostMatrix::from_profiles(&p, 5, 100.0, &[2.0]);
        assert_eq!(c.cost(0, 0), 0.0);
        assert!((c.cost(0, 1) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn max_shards_within_matches_linear_scan() {
        let c = CostMatrix::from_linear_rates(&[1.0, 3.0], 10, 10.0, &[0.0, 1.0]);
        for j in 0..2 {
            for threshold in [0.0, 0.5, 3.0, 7.0, 100.0] {
                let fast = c.max_shards_within(j, threshold);
                let slow = (1..=10)
                    .filter(|&k| c.cost(j, k) <= threshold)
                    .max()
                    .unwrap_or(0);
                assert_eq!(fast, slow, "j={j} threshold={threshold}");
            }
        }
    }

    #[test]
    fn sorted_costs_is_ascending_with_all_entries() {
        let c = CostMatrix::from_linear_rates(&[2.0, 1.0], 4, 10.0, &[0.0, 0.0]);
        let s = c.sorted_costs();
        assert_eq!(s.len(), 8);
        for w in s.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn marginal_cost_of_first_shard_includes_comm() {
        let c = CostMatrix::from_linear_rates(&[1.0], 3, 10.0, &[5.0]);
        assert_eq!(c.marginal(0, 1), 6.0);
        assert_eq!(c.marginal(0, 2), 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_comm_rejected() {
        let p = [LinearProfile::new(0.0, 1.0)];
        let _ = CostMatrix::from_profiles(&p, 3, 10.0, &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_user_index_panics() {
        let c = CostMatrix::from_linear_rates(&[1.0], 3, 10.0, &[0.0]);
        let _ = c.cost(1, 1);
    }
}
