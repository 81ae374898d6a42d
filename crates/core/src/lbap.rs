//! Fed-LBAP: joint partitioning and assignment for IID data (paper
//! Algorithm 1, problem P1).
//!
//! The classical linear bottleneck assignment problem needs a perfect
//! matching check per threshold; here shards are interchangeable (IID), so a
//! threshold `c*` is feasible iff the users' threshold-capacities cover the
//! data (paper Property 2): `sum_j max{k : C[j][k] <= c*} >= s`. The paper
//! binary-searches the sorted cost values for the minimal feasible
//! threshold, in `O(ns log(ns))`. Rows are monotone (Property 1), so the
//! entries `<= c` number exactly `sum_j max{k : C[j][k] <= c}`, and `c*` is
//! the `s`-th smallest entry. [`FedLbap::optimal_threshold`] finds it by
//! merging the rows through a min-heap, as Pilla's OLAR greedy hands out
//! shards (2010.00239): `O(n + s log n)` time and `O(n)` memory. The paper's
//! search stays behind as the test oracle.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::cost::CostMatrix;
use crate::schedule::{emit_decision, Schedule, ScheduleError, Scheduler};
use fedsched_telemetry::Probe;

/// The Fed-LBAP scheduler. Stateless; construct with [`Default`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FedLbap;

/// User `user`'s next shard in the heap merge: `cost(user, k)`.
struct NextShard {
    cost: f64,
    user: usize,
    k: usize,
}

impl Ord for NextShard {
    /// Reversed, so the max-heap pops the cheapest entry, the lower user
    /// index first on a tie. A user has one entry in the heap at a time.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .cost
            .total_cmp(&self.cost)
            .then(other.user.cmp(&self.user))
    }
}

impl PartialOrd for NextShard {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for NextShard {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for NextShard {}

impl FedLbap {
    /// The minimal feasible threshold `c*` — the optimal makespan over all
    /// partition+assignment combinations. Exposed for tests and diagnostics.
    ///
    /// Pops the matrix entries in ascending order, one user row at a time
    /// through a min-heap, and returns the `s`-th: the rows are monotone, so
    /// no pop is smaller than the one before it.
    ///
    /// # Panics
    /// Panics on a matrix with shards but no users.
    pub fn optimal_threshold(&self, costs: &CostMatrix) -> f64 {
        let s = costs.total_shards();
        if s == 0 {
            // An empty round has no candidate thresholds; nobody trains,
            // so the makespan is zero.
            return 0.0;
        }
        let mut heap: BinaryHeap<NextShard> = (0..costs.n_users())
            .map(|user| NextShard {
                cost: costs.cost(user, 1),
                user,
                k: 1,
            })
            .collect();
        // Pop s - 1 entries; the s-th is then on top. Each user holds s
        // entries, so the heap cannot run dry first.
        for _ in 1..s {
            let mut top = heap.peek_mut().expect("a cost matrix has users");
            if top.k < s {
                top.k += 1;
                top.cost = costs.cost(top.user, top.k);
            } else {
                PeekMut::pop(top);
            }
        }
        heap.peek().expect("a cost matrix has users").cost
    }

    /// `c*` and the schedule that attains it.
    fn solve(&self, costs: &CostMatrix) -> Result<(f64, Schedule), ScheduleError> {
        if costs.n_users() == 0 {
            return Err(ScheduleError::NoUsers);
        }
        let c_star = self.optimal_threshold(costs);
        let shards = self.assign_within(costs, c_star);
        Ok((c_star, Schedule::new(shards, costs.shard_size())))
    }

    /// Construct the assignment for a given threshold: fill users up to
    /// their threshold capacity until all shards are placed, preferring
    /// users with the *cheapest marginal* shards first so the total load
    /// (and hence total energy) stays low among makespan-optimal solutions.
    fn assign_within(&self, costs: &CostMatrix, threshold: f64) -> Vec<usize> {
        let n = costs.n_users();
        let s = costs.total_shards();
        let caps: Vec<usize> = (0..n)
            .map(|j| costs.max_shards_within(j, threshold))
            .collect();

        // Order users by the time they'd take at full capacity, ascending —
        // giving shards to efficient users first.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            let ta = if caps[a] == 0 {
                f64::INFINITY
            } else {
                costs.cost(a, caps[a]) / caps[a] as f64
            };
            let tb = if caps[b] == 0 {
                f64::INFINITY
            } else {
                costs.cost(b, caps[b]) / caps[b] as f64
            };
            ta.partial_cmp(&tb).expect("finite costs")
        });

        let mut shards = vec![0usize; n];
        let mut remaining = s;
        for &j in &order {
            if remaining == 0 {
                break;
            }
            let take = caps[j].min(remaining);
            shards[j] = take;
            remaining -= take;
        }
        debug_assert_eq!(remaining, 0, "threshold was infeasible");
        shards
    }
}

impl Scheduler for FedLbap {
    fn name(&self) -> &'static str {
        "Fed-LBAP"
    }

    fn schedule(&self, costs: &CostMatrix) -> Result<Schedule, ScheduleError> {
        self.solve(costs).map(|(_, schedule)| schedule)
    }

    /// Traced variant reporting the chosen threshold `c*` in the decision
    /// event, from the same solve.
    fn schedule_traced(
        &self,
        costs: &CostMatrix,
        probe: &Probe,
    ) -> Result<Schedule, ScheduleError> {
        let solved = self.solve(costs);
        let threshold = solved.as_ref().ok().map(|&(c_star, _)| c_star);
        let result = solved.map(|(_, schedule)| schedule);
        emit_decision(self.name(), costs, &result, threshold, probe);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::EqualScheduler;
    use crate::exact::ExactMinMax;
    use fedsched_profiler::{CostProfile, LinearProfile};
    use proptest::prelude::*;

    /// The paper's Algorithm 1 search: binary-search the sorted matrix
    /// entries for the first feasible threshold. The heap merge must agree
    /// with it bit for bit.
    fn sorted_search_threshold(costs: &CostMatrix) -> f64 {
        let sorted = costs.sorted_costs();
        let s = costs.total_shards();
        if s == 0 {
            return 0.0;
        }
        let feasible = |c: f64| -> bool {
            let mut cap = 0usize;
            for j in 0..costs.n_users() {
                cap += costs.max_shards_within(j, c);
                if cap >= s {
                    return true;
                }
            }
            false
        };
        // The largest entry is always feasible: every user can then absorb
        // all s shards.
        let mut lo = 0usize;
        let mut hi = sorted.len() - 1;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if feasible(sorted[mid]) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        sorted[lo]
    }

    /// Linear in the samples but for a drop every `period` samples: not
    /// monotone, so the matrix's running max flattens it into plateaus.
    struct Sawtooth {
        per_sample: f64,
        period: f64,
    }

    impl CostProfile for Sawtooth {
        fn time_for(&self, samples: f64) -> f64 {
            self.per_sample * (samples % self.period)
        }
    }

    /// One generated user: `kind` picks the row family, `a` and `b` shape
    /// it. Kinds 0-4 are linear with a Pareto (power-law) per-sample rate,
    /// 5 is free, 6 is the round core's penalty profile and 7 is a sawtooth.
    fn user_profile(kind: u8, a: f64, b: f64) -> Box<dyn CostProfile> {
        let pareto = 1e-3 * (1.0 - a).powf(-1.0 / 1.5);
        match kind {
            0..=4 => Box::new(LinearProfile::new(5.0 * b, pareto)),
            5 => Box::new(LinearProfile::new(0.0, 0.0)),
            6 => Box::new(LinearProfile::new(1e6, 1e3)),
            _ => Box::new(Sawtooth {
                per_sample: pareto,
                period: 10.0 * (1.0 + (b * 6.0).floor()),
            }),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The heap merge's `c*` is the sorted search's, bit for bit, and
        /// the schedule built on it attains it exactly. A `kind` of 8 or
        /// more copies the previous user, for exact ties across rows; a
        /// `comm` under 0.5 means no communication cost.
        #[test]
        fn threshold_matches_sorted_search_oracle(
            users in prop::collection::vec((0u8..10, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 1..=30),
            shards in 0usize..=80,
        ) {
            let mut params: Vec<(u8, f64, f64, f64)> = Vec::with_capacity(users.len());
            for (i, &user) in users.iter().enumerate() {
                params.push(if user.0 >= 8 && i > 0 { params[i - 1] } else { user });
            }
            let profiles: Vec<Box<dyn CostProfile>> = params
                .iter()
                .map(|&(kind, a, b, _)| user_profile(kind % 8, a, b))
                .collect();
            let comm: Vec<f64> = params
                .iter()
                .map(|&(_, _, _, c)| if c < 0.5 { 0.0 } else { 4.0 * (c - 0.5) })
                .collect();
            let costs = CostMatrix::from_profiles(&profiles, shards, 10.0, &comm);
            let threshold = FedLbap.optimal_threshold(&costs);
            let oracle = sorted_search_threshold(&costs);
            prop_assert_eq!(threshold.to_bits(), oracle.to_bits(), "{} != {}", threshold, oracle);
            if shards >= 1 {
                let makespan = FedLbap.schedule(&costs).unwrap().predicted_makespan(&costs);
                prop_assert_eq!(makespan.to_bits(), threshold.to_bits(), "{} != {}", makespan, threshold);
            }
        }
    }

    #[test]
    fn single_user_gets_everything() {
        let c = CostMatrix::from_linear_rates(&[2.0], 7, 10.0, &[1.0]);
        let s = FedLbap.schedule(&c).unwrap();
        assert_eq!(s.shards, vec![7]);
        assert_eq!(s.predicted_makespan(&c), c.cost(0, 7));
    }

    #[test]
    fn two_identical_users_split_evenly_in_makespan() {
        let c = CostMatrix::from_linear_rates(&[1.0, 1.0], 10, 10.0, &[0.0, 0.0]);
        let s = FedLbap.schedule(&c).unwrap();
        assert_eq!(s.total_shards(), 10);
        // Makespan must be the even-split value (5 shards).
        assert_eq!(s.predicted_makespan(&c), 5.0);
    }

    #[test]
    fn fast_user_carries_more() {
        // User 0 is 4x faster: optimal split of 10 shards is 8/2.
        let c = CostMatrix::from_linear_rates(&[1.0, 4.0], 10, 10.0, &[0.0, 0.0]);
        let s = FedLbap.schedule(&c).unwrap();
        assert_eq!(s.shards, vec![8, 2]);
        assert_eq!(s.predicted_makespan(&c), 8.0);
    }

    #[test]
    fn straggler_can_be_left_idle() {
        // User 1 takes 100s for even one shard; placing everything on user
        // 0 (10s) is optimal, so the straggler is excluded entirely.
        let c = CostMatrix::from_linear_rates(&[1.0, 100.0], 10, 10.0, &[0.0, 0.0]);
        let s = FedLbap.schedule(&c).unwrap();
        assert_eq!(s.shards, vec![10, 0]);
    }

    #[test]
    fn comm_cost_tilts_the_split() {
        // Identical compute, but user 1 pays 3s of comm: it should get
        // fewer shards.
        let c = CostMatrix::from_linear_rates(&[1.0, 1.0], 10, 10.0, &[0.0, 3.0]);
        let s = FedLbap.schedule(&c).unwrap();
        assert!(s.shards[0] > s.shards[1], "{:?}", s.shards);
        assert_eq!(s.total_shards(), 10);
    }

    #[test]
    fn matches_exact_dp_on_small_instances() {
        // Heterogeneous rates and comm costs; DP gives the true optimum.
        let cases: Vec<(Vec<f64>, Vec<f64>, usize)> = vec![
            (vec![1.0, 2.0, 3.0], vec![0.0, 0.5, 1.0], 12),
            (vec![5.0, 1.0], vec![2.0, 0.0], 9),
            (vec![1.0, 1.0, 1.0, 1.0], vec![0.0; 4], 7),
            (vec![2.5, 0.5, 4.0], vec![1.0, 1.0, 1.0], 15),
        ];
        for (rates, comm, shards) in cases {
            let c = CostMatrix::from_linear_rates(&rates, shards, 10.0, &comm);
            let lbap = FedLbap.schedule(&c).unwrap();
            let exact = ExactMinMax.schedule(&c).unwrap();
            let lm = lbap.predicted_makespan(&c);
            let em = exact.predicted_makespan(&c);
            assert!(
                (lm - em).abs() < 1e-9,
                "LBAP {lm} != exact {em} for rates {rates:?} comm {comm:?} s={shards}"
            );
        }
    }

    #[test]
    fn never_worse_than_equal_baseline() {
        let c =
            CostMatrix::from_linear_rates(&[1.0, 3.0, 7.0, 2.0], 40, 10.0, &[0.5, 0.0, 2.0, 0.1]);
        let lbap = FedLbap.schedule(&c).unwrap().predicted_makespan(&c);
        let equal = EqualScheduler.schedule(&c).unwrap().predicted_makespan(&c);
        assert!(lbap <= equal + 1e-12, "LBAP {lbap} > Equal {equal}");
    }

    #[test]
    fn assignment_always_covers_all_shards() {
        for s in [1usize, 2, 17, 100] {
            let c = CostMatrix::from_linear_rates(&[1.0, 2.0, 4.0], s, 10.0, &[0.0, 1.0, 0.5]);
            let sched = FedLbap.schedule(&c).unwrap();
            assert_eq!(sched.total_shards(), s);
        }
    }

    #[test]
    fn zero_shards_yields_empty_schedule() {
        // Regression: `optimal_threshold` used to underflow on the empty
        // candidate list (`sorted_costs().len() - 1`) when s == 0.
        let c = CostMatrix::from_linear_rates(&[1.0, 2.0, 3.0], 0, 10.0, &[0.0, 0.5, 1.0]);
        assert_eq!(FedLbap.optimal_threshold(&c), 0.0);
        let s = FedLbap.schedule(&c).unwrap();
        assert_eq!(s.shards, vec![0, 0, 0]);
        assert_eq!(s.predicted_makespan(&c), 0.0);
    }

    #[test]
    fn zero_shards_is_empty_for_every_scheduler() {
        use crate::baselines::{ProportionalScheduler, RandomScheduler};
        let c = CostMatrix::from_linear_rates(&[1.0, 2.0], 0, 10.0, &[0.0, 0.0]);
        let schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(FedLbap),
            Box::new(ExactMinMax),
            Box::new(EqualScheduler),
            Box::new(RandomScheduler::new(3)),
            Box::new(ProportionalScheduler::new(vec![1.0, 2.0])),
        ];
        for s in schedulers {
            let schedule = s.schedule(&c).unwrap();
            assert_eq!(schedule.shards, vec![0, 0], "{}", s.name());
        }
    }

    #[test]
    fn traced_schedule_reports_threshold() {
        use fedsched_telemetry::{Event, EventLog};
        use std::sync::Arc;
        let c = CostMatrix::from_linear_rates(&[1.0, 4.0], 10, 10.0, &[0.0, 0.0]);
        let log = Arc::new(EventLog::new());
        let probe = Probe::attached(log.clone());
        let s = FedLbap.schedule_traced(&c, &probe).unwrap();
        let events = log.events();
        assert_eq!(events.len(), 1);
        match &events[0] {
            Event::ScheduleDecision {
                scheduler,
                threshold,
                shards,
                ..
            } => {
                assert_eq!(scheduler, "Fed-LBAP");
                assert_eq!(*threshold, Some(FedLbap.optimal_threshold(&c)));
                assert_eq!(*shards, s.shards);
            }
            other => panic!("expected a decision event, got {other:?}"),
        }
    }

    #[test]
    fn threshold_is_attained_by_schedule() {
        let c = CostMatrix::from_linear_rates(&[1.3, 2.7, 0.9], 23, 10.0, &[0.2, 0.0, 1.5]);
        let t = FedLbap.optimal_threshold(&c);
        let sched = FedLbap.schedule(&c).unwrap();
        assert!(sched.predicted_makespan(&c) <= t + 1e-12);
    }
}
