//! Online bandit-driven client selection for federated scheduling.
//!
//! The source paper schedules shards from the profiler's *point estimates*,
//! but real fleets drift: thermal history, background load and churn move a
//! device's effective speed between rounds, so a static Fed-LBAP plan goes
//! stale. This crate treats cohort selection as a multi-armed bandit — one
//! arm per device, reward = observed per-round efficiency — so the server
//! keeps probing the fleet and concentrates work on the devices that are
//! fast *now*, not the ones that were fast when the offline profile was
//! taken.
//!
//! * [`SelectionPolicy`] — the policy trait: per-arm pull counts and reward
//!   statistics, plus a `select(eligible, k, stream)` step with
//!   seed-deterministic tie-breaking;
//! * [`EpsilonGreedy`], [`Ucb1`], [`ThompsonSampling`] — the three classic
//!   policies (Thompson uses a Gaussian posterior over each arm's mean);
//! * [`SelectionConfig`] — the policy and cohort size `k` a job selects
//!   with. `fedsched-fl`'s round core is the one consumer: each round the
//!   policy picks the cohort, then the job's scheduler (e.g. Fed-LBAP)
//!   splits the shards among the selected devices;
//! * [`selection_stream`] — the dedicated salted [`DrawStream`] channel all
//!   selection randomness comes from, so runs replay byte-identically and
//!   never perturb the simulation's main RNG.
//!
//! Determinism contract: every random ingredient (exploration coins,
//! posterior samples, tie-breaks) is drawn from the caller-provided
//! [`DrawStream`], which is counter-based and scoped per `(seed, round)`.
//! Two runs with the same seed select identical cohorts regardless of
//! thread count, and a policy asked to select from identical state draws
//! an identical number of stream values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fedsched_faults::DrawStream;
use serde::Serialize;

/// Salt folded into the master seed for the selection draw channel
/// (`"bandit_s"` as big-endian bytes). Distinct from the fault plan's
/// per-transfer channels and the adversary/churn/drift salts, so selection
/// never aliases another consumer's stream.
pub const SELECTION_SALT: u64 = 0x6261_6e64_6974_5f73;

/// The dedicated selection draw stream for one round: scoped to
/// `(seed, round)` exactly like
/// [`FaultInjector::draw_stream`](fedsched_faults::FaultInjector::draw_stream)
/// but under its own salt, so selection draws are independent of every
/// fault-injection channel.
pub fn selection_stream(seed: u64, round: u64) -> DrawStream {
    DrawStream::new(
        (seed ^ SELECTION_SALT)
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(round << 32),
    )
}

/// Seed-or-inherit knob in the `MaybeSeededRng` style: `None` derives the
/// selection stream from the run's master seed (replayable by default),
/// `Some` pins an explicit stream so two jobs sharing a master seed can
/// still explore differently.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Default)]
pub struct MaybeSeeded {
    /// Explicit seed override, if any.
    pub seed: Option<u64>,
}

impl MaybeSeeded {
    /// Inherit the run's master seed.
    pub fn inherit() -> Self {
        MaybeSeeded { seed: None }
    }

    /// Pin an explicit seed.
    pub fn pinned(seed: u64) -> Self {
        MaybeSeeded { seed: Some(seed) }
    }

    /// The seed this knob resolves to under `fallback`.
    pub fn resolve(&self, fallback: u64) -> u64 {
        self.seed.unwrap_or(fallback)
    }
}

/// Reward statistics for one arm (one device): pull count plus a Welford
/// accumulator over observed rewards.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ArmState {
    /// Times this arm was pulled (selected and credited a reward).
    pub pulls: u64,
    /// Empirical mean reward.
    pub mean: f64,
    /// Welford sum of squared deviations (`variance = m2 / pulls`).
    pub m2: f64,
}

impl ArmState {
    /// Fold one reward observation in.
    pub fn observe(&mut self, reward: f64) {
        self.pulls += 1;
        let delta = reward - self.mean;
        self.mean += delta / self.pulls as f64;
        self.m2 += delta * (reward - self.mean);
    }

    /// Empirical reward variance (0 before the second pull).
    pub fn variance(&self) -> f64 {
        if self.pulls < 2 {
            0.0
        } else {
            self.m2 / self.pulls as f64
        }
    }
}

/// Grow-on-demand arm table shared by every policy implementation.
#[derive(Debug, Clone, Default)]
struct ArmTable {
    arms: Vec<ArmState>,
    total_pulls: u64,
}

impl ArmTable {
    fn ensure(&mut self, n: usize) {
        if self.arms.len() < n {
            self.arms.resize(n, ArmState::default());
        }
    }

    fn update(&mut self, arm: usize, reward: f64) {
        assert!(
            reward.is_finite(),
            "bandit rewards must be finite, got {reward}"
        );
        self.ensure(arm + 1);
        self.arms[arm].observe(reward);
        self.total_pulls += 1;
    }

    fn pulls(&self, arm: usize) -> u64 {
        self.arms.get(arm).map_or(0, |a| a.pulls)
    }

    fn mean(&self, arm: usize) -> f64 {
        self.arms.get(arm).map_or(0.0, |a| a.mean)
    }
}

/// A cohort-selection policy: scores every eligible arm from its reward
/// history plus stream draws, then keeps the top `k`.
///
/// Implementations must take *all* randomness from the provided
/// [`DrawStream`] and must never consult ambient entropy, so a selection
/// step is a pure function of `(policy state, eligible, k, stream)`.
pub trait SelectionPolicy: Send {
    /// Policy name for telemetry and reports.
    fn name(&self) -> &'static str;

    /// Select up to `k` arms among those with `eligible[arm] == true`.
    /// Returns the selected arm indices in ascending order. Fewer than `k`
    /// eligible arms selects all of them.
    fn select(&mut self, eligible: &[bool], k: usize, stream: &mut DrawStream) -> Vec<usize>;

    /// Credit `arm` with one observed `reward` (higher is better).
    ///
    /// # Panics
    /// Panics on a non-finite reward — reward plumbing must filter NaN/inf
    /// before it reaches the policy.
    fn update(&mut self, arm: usize, reward: f64);

    /// Times `arm` has been credited a reward.
    fn pulls(&self, arm: usize) -> u64;

    /// Empirical mean reward of `arm` (0 before the first pull).
    fn mean(&self, arm: usize) -> f64;
}

/// One standard Gaussian via Box–Muller over two stream draws.
fn gaussian(stream: &mut DrawStream) -> f64 {
    let u1 = stream.next_u01();
    let u2 = stream.next_u01();
    (-2.0 * (1.0 - u1).ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Rank `scored` (arm, score) pairs and keep the top `k` by
/// `(score desc, tie-break asc, index asc)`. The tie-break values come
/// from the selection stream, one per scored arm, so equal-score arms are
/// broken seed-deterministically rather than positionally.
fn top_k(mut scored: Vec<(usize, f64, f64)>, k: usize) -> Vec<usize> {
    scored.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("scores are never NaN")
            .then(a.2.partial_cmp(&b.2).expect("tie-breaks are never NaN"))
            .then(a.0.cmp(&b.0))
    });
    let mut selected: Vec<usize> = scored.into_iter().take(k).map(|(j, _, _)| j).collect();
    selected.sort_unstable();
    selected
}

/// Epsilon-greedy: exploit the top-`k` empirical means, then re-roll each
/// selected slot with probability `epsilon` to a uniformly random
/// unselected eligible arm. Unpulled arms score `+inf`, so every arm is
/// tried before exploitation kicks in.
#[derive(Debug, Default)]
pub struct EpsilonGreedy {
    /// Per-slot exploration probability, in `[0, 1]`.
    pub epsilon: f64,
    table: ArmTable,
}

impl EpsilonGreedy {
    /// A policy with the given exploration probability.
    pub fn new(epsilon: f64) -> Self {
        EpsilonGreedy {
            epsilon,
            table: ArmTable::default(),
        }
    }
}

impl SelectionPolicy for EpsilonGreedy {
    fn name(&self) -> &'static str {
        "epsilon_greedy"
    }

    fn select(&mut self, eligible: &[bool], k: usize, stream: &mut DrawStream) -> Vec<usize> {
        self.table.ensure(eligible.len());
        let scored: Vec<(usize, f64, f64)> = eligible
            .iter()
            .enumerate()
            .filter(|(_, &e)| e)
            .map(|(j, _)| {
                let a = &self.table.arms[j];
                let score = if a.pulls == 0 { f64::INFINITY } else { a.mean };
                (j, score, stream.next_u01())
            })
            .collect();
        let mut selected = top_k(scored, k);
        // Exploration pass: one coin per selected slot, re-rolled slots
        // swap in a uniformly random currently-unselected eligible arm.
        for slot in 0..selected.len() {
            if stream.next_u01() >= self.epsilon {
                continue;
            }
            let pool: Vec<usize> = eligible
                .iter()
                .enumerate()
                .filter(|(j, &e)| e && !selected.contains(j))
                .map(|(j, _)| j)
                .collect();
            if pool.is_empty() {
                continue;
            }
            let pick = (stream.next_u01() * pool.len() as f64) as usize;
            selected[slot] = pool[pick.min(pool.len() - 1)];
        }
        selected.sort_unstable();
        selected
    }

    fn update(&mut self, arm: usize, reward: f64) {
        self.table.update(arm, reward);
    }

    fn pulls(&self, arm: usize) -> u64 {
        self.table.pulls(arm)
    }

    fn mean(&self, arm: usize) -> f64 {
        self.table.mean(arm)
    }
}

/// UCB1 (Auer et al.): score `mean + c * sqrt(2 ln t / pulls)` with the
/// classic unpulled-first rule (`+inf` before the first pull). `c` scales
/// the confidence width to the reward scale; 1.0 is the textbook value.
#[derive(Debug, Default)]
pub struct Ucb1 {
    /// Confidence-width multiplier.
    pub c: f64,
    table: ArmTable,
}

impl Ucb1 {
    /// A policy with the given confidence-width multiplier.
    pub fn new(c: f64) -> Self {
        Ucb1 {
            c,
            table: ArmTable::default(),
        }
    }
}

impl SelectionPolicy for Ucb1 {
    fn name(&self) -> &'static str {
        "ucb1"
    }

    fn select(&mut self, eligible: &[bool], k: usize, stream: &mut DrawStream) -> Vec<usize> {
        self.table.ensure(eligible.len());
        let t = self.table.total_pulls.max(1) as f64;
        let scored: Vec<(usize, f64, f64)> = eligible
            .iter()
            .enumerate()
            .filter(|(_, &e)| e)
            .map(|(j, _)| {
                let a = &self.table.arms[j];
                let score = if a.pulls == 0 {
                    f64::INFINITY
                } else {
                    a.mean + self.c * (2.0 * t.ln() / a.pulls as f64).sqrt()
                };
                (j, score, stream.next_u01())
            })
            .collect();
        top_k(scored, k)
    }

    fn update(&mut self, arm: usize, reward: f64) {
        self.table.update(arm, reward);
    }

    fn pulls(&self, arm: usize) -> u64 {
        self.table.pulls(arm)
    }

    fn mean(&self, arm: usize) -> f64 {
        self.table.mean(arm)
    }
}

/// Thompson sampling with a Gaussian posterior over each arm's mean: score
/// `mean + sqrt(v / pulls) * g` where `v` is the empirical reward variance
/// (unit prior before the second pull) and `g` a stream-drawn standard
/// normal. Unpulled arms score `+inf`, matching the other policies'
/// unpulled-first rule.
#[derive(Debug, Default)]
pub struct ThompsonSampling {
    table: ArmTable,
}

impl ThompsonSampling {
    /// A fresh policy.
    pub fn new() -> Self {
        ThompsonSampling::default()
    }
}

impl SelectionPolicy for ThompsonSampling {
    fn name(&self) -> &'static str {
        "thompson"
    }

    fn select(&mut self, eligible: &[bool], k: usize, stream: &mut DrawStream) -> Vec<usize> {
        self.table.ensure(eligible.len());
        let scored: Vec<(usize, f64, f64)> = eligible
            .iter()
            .enumerate()
            .filter(|(_, &e)| e)
            .map(|(j, _)| {
                let a = &self.table.arms[j];
                let score = if a.pulls == 0 {
                    f64::INFINITY
                } else {
                    let v = if a.pulls < 2 { 1.0 } else { a.variance() };
                    a.mean + (v / a.pulls as f64).sqrt() * gaussian(stream)
                };
                (j, score, stream.next_u01())
            })
            .collect();
        top_k(scored, k)
    }

    fn update(&mut self, arm: usize, reward: f64) {
        self.table.update(arm, reward);
    }

    fn pulls(&self, arm: usize) -> u64 {
        self.table.pulls(arm)
    }

    fn mean(&self, arm: usize) -> f64 {
        self.table.mean(arm)
    }
}

/// Wire-serializable policy choice, buildable into a boxed
/// [`SelectionPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum PolicyKind {
    /// [`EpsilonGreedy`] with the given exploration probability.
    EpsilonGreedy {
        /// Per-slot exploration probability, in `[0, 1]`.
        epsilon: f64,
    },
    /// [`Ucb1`] with the given confidence-width multiplier.
    Ucb1 {
        /// Confidence-width multiplier, positive and finite.
        c: f64,
    },
    /// [`ThompsonSampling`] (Gaussian posterior, no knobs).
    ThompsonSampling,
}

impl PolicyKind {
    /// Stable snake_case tag (wire format + telemetry).
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::EpsilonGreedy { .. } => "epsilon_greedy",
            PolicyKind::Ucb1 { .. } => "ucb1",
            PolicyKind::ThompsonSampling => "thompson",
        }
    }

    /// Check the policy's knobs are in range.
    pub fn validate(&self) -> Result<(), &'static str> {
        match self {
            PolicyKind::EpsilonGreedy { epsilon } => {
                if !(0.0..=1.0).contains(epsilon) || !epsilon.is_finite() {
                    return Err("epsilon must be a probability in [0, 1]");
                }
            }
            PolicyKind::Ucb1 { c } => {
                if !(*c > 0.0 && c.is_finite()) {
                    return Err("ucb1 confidence width must be positive and finite");
                }
            }
            PolicyKind::ThompsonSampling => {}
        }
        Ok(())
    }

    /// Build a fresh policy instance.
    ///
    /// # Panics
    /// Panics on an invalid kind — validate first on fallible paths.
    pub fn build(&self) -> Box<dyn SelectionPolicy> {
        if let Err(rule) = self.validate() {
            panic!("{rule}");
        }
        match *self {
            PolicyKind::EpsilonGreedy { epsilon } => Box::new(EpsilonGreedy::new(epsilon)),
            PolicyKind::Ucb1 { c } => Box::new(Ucb1::new(c)),
            PolicyKind::ThompsonSampling => Box::new(ThompsonSampling::new()),
        }
    }
}

/// The full online-selection configuration a job carries.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SelectionConfig {
    /// Which policy scores the arms.
    pub policy: PolicyKind,
    /// Devices selected per scheduling domain (cohort) each round; clamped
    /// to the domain size at run time.
    pub k: usize,
    /// Selection-stream seed override (`None` inherits the master seed).
    pub seed: MaybeSeeded,
}

impl SelectionConfig {
    /// A configuration inheriting the master seed.
    pub fn new(policy: PolicyKind, k: usize) -> Self {
        SelectionConfig {
            policy,
            k,
            seed: MaybeSeeded::inherit(),
        }
    }

    /// Check every knob is in range.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.k == 0 {
            return Err("selection cohort size k must be at least 1");
        }
        self.policy.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> DrawStream {
        selection_stream(42, 0)
    }

    #[test]
    fn arm_state_welford_matches_naive_moments() {
        let rewards = [1.0, 3.0, 2.0, 5.0, 4.0];
        let mut a = ArmState::default();
        for r in rewards {
            a.observe(r);
        }
        let mean = rewards.iter().sum::<f64>() / rewards.len() as f64;
        let var = rewards.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / rewards.len() as f64;
        assert_eq!(a.pulls, 5);
        assert!((a.mean - mean).abs() < 1e-12);
        assert!((a.variance() - var).abs() < 1e-12);
    }

    #[test]
    fn unpulled_arms_are_selected_first() {
        for mut policy in [
            Box::new(EpsilonGreedy::new(0.0)) as Box<dyn SelectionPolicy>,
            Box::new(Ucb1::new(1.0)),
            Box::new(ThompsonSampling::new()),
        ] {
            // Arms 0 and 1 have good history; 2 and 3 are unpulled.
            for _ in 0..3 {
                policy.update(0, 10.0);
                policy.update(1, 9.0);
            }
            let sel = policy.select(&[true; 4], 2, &mut stream());
            assert_eq!(sel, vec![2, 3], "{} must try unpulled arms", policy.name());
        }
    }

    #[test]
    fn selection_is_replayable_and_thread_free() {
        let mut a = Ucb1::new(1.0);
        let mut b = Ucb1::new(1.0);
        for arm in 0..6 {
            a.update(arm, arm as f64);
            b.update(arm, arm as f64);
        }
        for round in 0..20u64 {
            let sa = a.select(&[true; 6], 3, &mut selection_stream(7, round));
            let sb = b.select(&[true; 6], 3, &mut selection_stream(7, round));
            assert_eq!(sa, sb, "round {round}");
            assert_eq!(sa.len(), 3);
            assert!(sa.windows(2).all(|w| w[0] < w[1]), "sorted unique");
        }
    }

    #[test]
    fn greedy_exploits_the_best_arms_once_all_are_pulled() {
        let mut p = EpsilonGreedy::new(0.0);
        for arm in 0..5 {
            p.update(arm, arm as f64);
        }
        let sel = p.select(&[true; 5], 2, &mut stream());
        assert_eq!(sel, vec![3, 4]);
        assert_eq!(p.pulls(3), 1);
        assert_eq!(p.mean(4), 4.0);
    }

    #[test]
    fn epsilon_one_explores_outside_the_greedy_set() {
        // With epsilon = 1 every slot re-rolls; over many rounds the
        // selection must include arms outside the greedy top-k.
        let mut p = EpsilonGreedy::new(1.0);
        for arm in 0..6 {
            p.update(arm, if arm < 2 { 100.0 } else { 0.0 });
        }
        let mut saw_weak_arm = false;
        for round in 0..30u64 {
            let sel = p.select(&[true; 6], 2, &mut selection_stream(3, round));
            assert_eq!(sel.len(), 2);
            if sel.iter().any(|&j| j >= 2) {
                saw_weak_arm = true;
            }
        }
        assert!(saw_weak_arm, "epsilon=1 must leave the greedy set");
    }

    #[test]
    fn ucb_width_shrinks_with_pulls() {
        // Arm 0: high mean, many pulls. Arm 1: slightly lower mean, one
        // pull — its confidence width should win the second slot over a
        // much-pulled equal arm.
        let mut p = Ucb1::new(1.0);
        for _ in 0..50 {
            p.update(0, 1.0);
            p.update(2, 0.9);
        }
        p.update(1, 0.9);
        let sel = p.select(&[true, true, true], 2, &mut stream());
        assert!(sel.contains(&0));
        assert!(sel.contains(&1), "under-explored arm must outrank arm 2");
    }

    #[test]
    fn thompson_concentrates_with_evidence() {
        let mut p = ThompsonSampling::new();
        for _ in 0..200 {
            p.update(0, 10.0);
            p.update(1, 1.0);
        }
        let mut arm0 = 0;
        for round in 0..50u64 {
            let sel = p.select(&[true, true], 1, &mut selection_stream(11, round));
            if sel == vec![0] {
                arm0 += 1;
            }
        }
        assert!(
            arm0 >= 45,
            "posterior must favour the better arm, got {arm0}/50"
        );
    }

    #[test]
    fn ineligible_arms_are_never_selected() {
        let mut p = ThompsonSampling::new();
        let eligible = [true, false, true, false, true];
        for round in 0..10u64 {
            let sel = p.select(&eligible, 4, &mut selection_stream(5, round));
            assert!(sel.iter().all(|&j| eligible[j]), "round {round}: {sel:?}");
            assert_eq!(sel.len(), 3, "all eligible arms when k exceeds them");
        }
        let mut eg = EpsilonGreedy::new(1.0);
        for round in 0..10u64 {
            let sel = eg.select(&eligible, 2, &mut selection_stream(5, round));
            assert!(sel.iter().all(|&j| eligible[j]), "round {round}: {sel:?}");
        }
    }

    #[test]
    fn policy_kind_builds_validates_and_names() {
        assert_eq!(
            PolicyKind::EpsilonGreedy { epsilon: 0.1 }.name(),
            "epsilon_greedy"
        );
        assert_eq!(PolicyKind::Ucb1 { c: 1.0 }.name(), "ucb1");
        assert_eq!(PolicyKind::ThompsonSampling.name(), "thompson");
        assert!(PolicyKind::EpsilonGreedy { epsilon: 1.5 }
            .validate()
            .is_err());
        assert!(PolicyKind::Ucb1 { c: 0.0 }.validate().is_err());
        assert!(PolicyKind::Ucb1 { c: f64::NAN }.validate().is_err());
        assert!(SelectionConfig::new(PolicyKind::ThompsonSampling, 0)
            .validate()
            .is_err());
        assert!(SelectionConfig::new(PolicyKind::ThompsonSampling, 3)
            .validate()
            .is_ok());
        let p = PolicyKind::Ucb1 { c: 2.0 }.build();
        assert_eq!(p.name(), "ucb1");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_reward_panics() {
        let mut p = Ucb1::new(1.0);
        p.update(0, f64::NAN);
    }

    #[test]
    fn maybe_seeded_resolves() {
        assert_eq!(MaybeSeeded::inherit().resolve(7), 7);
        assert_eq!(MaybeSeeded::pinned(3).resolve(7), 3);
    }
}
