//! Seed-deterministic Byzantine adversary plans.
//!
//! The fault plan answers "which devices fail, when"; the adversary plan
//! answers "which devices *lie*, and how". It follows the same fate-table
//! idiom as [`crate::FaultInjector`]: everything is materialized up front
//! from `(config, n_devices, n_rounds, seed)`, so an attacked run replays
//! byte-identically and a zero-adversary config consumes no randomness the
//! honest path would miss.
//!
//! The plan's RNG seed is *salted* before use — [`crate::FaultInjector`]
//! seeds its `StdRng` with the raw seed, and reusing it here would correlate
//! compromise draws with crash draws (the first attacker would always be
//! the first crasher).
//!
//! Attack transforms operate on flat `f32` parameter vectors from the `nn`
//! crate, relative to the current global model: sign-flip and boost rescale
//! the honest *delta*, Gaussian noise perturbs it with a shared per-group
//! stream so colluders submit coordinated updates, and label-flip is a
//! data-level attack (the trainer flips labels; the vector transform is the
//! identity).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use crate::DrawStream;

/// Salt mixed into the plan seed so adversary draws never correlate with
/// [`crate::FaultInjector`] draws made from the same master seed.
const ADVERSARY_SALT: u64 = 0x6164_7665_7273_6172; // "adversar"

/// How a compromised device corrupts its update.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum AttackKind {
    /// Submit `global - delta` instead of `global + delta`: the classic
    /// sign-flip / reverse-gradient attack.
    SignFlip,
    /// Submit `global + factor * delta`: a scaled (boosted) update that
    /// tries to dominate the average.
    Boost {
        /// Multiplier applied to the honest delta (usually >> 1).
        factor: f64,
    },
    /// Add zero-mean Gaussian noise to the delta. Colluding attackers in
    /// the same group share the noise vector, so their updates agree.
    GaussianNoise {
        /// Standard deviation of the additive noise.
        sigma: f64,
    },
    /// Train on flipped labels (`label -> n_classes - 1 - label`). This is
    /// a data-level attack: [`AdversaryPlan::apply`] leaves the vector
    /// untouched and the training loop corrupts the batch instead.
    LabelFlip,
}

impl AttackKind {
    /// Stable snake_case tag for telemetry and reports.
    pub fn name(&self) -> &'static str {
        match self {
            AttackKind::SignFlip => "sign_flip",
            AttackKind::Boost { .. } => "boost",
            AttackKind::GaussianNoise { .. } => "gaussian_noise",
            AttackKind::LabelFlip => "label_flip",
        }
    }

    /// True when the attack corrupts training data rather than the
    /// uploaded vector.
    pub fn flips_labels(&self) -> bool {
        matches!(self, AttackKind::LabelFlip)
    }
}

/// Adversary-model knobs. An `attacker_frac` of zero is the quiet config:
/// no device is ever compromised and no transform is ever applied.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AdversaryConfig {
    /// Fraction of devices compromised at plan-generation time, in `[0, 1]`.
    pub attacker_frac: f64,
    /// Transform compromised devices apply.
    pub attack: AttackKind,
    /// Number of collusion groups attackers are assigned to. `0` means
    /// attackers act independently; `k >= 1` partitions them into `k`
    /// coordinated groups (sharing noise streams).
    pub collusion_groups: usize,
    /// Probability a compromised device actually attacks in a given round
    /// (1.0 = always-on attackers; lower models intermittent poisoning).
    pub active_prob: f64,
}

impl AdversaryConfig {
    /// A configuration with no adversaries at all.
    pub fn none() -> Self {
        AdversaryConfig {
            attacker_frac: 0.0,
            attack: AttackKind::SignFlip,
            collusion_groups: 0,
            active_prob: 1.0,
        }
    }

    /// Start from [`AdversaryConfig::none`] and set the attacker fraction
    /// and transform.
    pub fn with_attackers(mut self, frac: f64, attack: AttackKind) -> Self {
        self.attacker_frac = frac;
        self.attack = attack;
        self
    }

    /// Partition attackers into `groups` coordinated collusion groups.
    pub fn with_collusion(mut self, groups: usize) -> Self {
        self.collusion_groups = groups;
        self
    }

    /// Set the per-round activation probability.
    pub fn with_active_prob(mut self, p: f64) -> Self {
        self.active_prob = p;
        self
    }

    /// True when this configuration can never corrupt an update.
    pub fn is_quiet(&self) -> bool {
        self.attacker_frac == 0.0
    }

    /// Fallible form of [`AdversaryConfig::validate`]: `Err` names the
    /// violated rule. This is what [`SimBuilder`] surfaces as a typed
    /// `ConfigError::InvalidAdversary`.
    ///
    /// [`SimBuilder`]: ../fedsched_fl/struct.SimBuilder.html
    pub fn check(&self) -> Result<(), &'static str> {
        if !((0.0..=1.0).contains(&self.attacker_frac) && self.attacker_frac.is_finite()) {
            return Err("attacker_frac must be a probability in [0, 1]");
        }
        if !((0.0..=1.0).contains(&self.active_prob) && self.active_prob.is_finite()) {
            return Err("active_prob must be a probability in [0, 1]");
        }
        match self.attack {
            AttackKind::Boost { factor } if !(factor.is_finite() && factor >= 0.0) => {
                Err("boost factor must be finite and non-negative")
            }
            AttackKind::GaussianNoise { sigma } if !(sigma.is_finite() && sigma >= 0.0) => {
                Err("noise sigma must be finite and non-negative")
            }
            _ => Ok(()),
        }
    }

    /// Check every knob is in range.
    ///
    /// # Panics
    /// Panics on probabilities outside `[0, 1]`, a non-finite boost factor
    /// below 0, or a negative/non-finite noise sigma.
    pub fn validate(&self) {
        if let Err(rule) = self.check() {
            panic!("{rule}");
        }
    }
}

impl Default for AdversaryConfig {
    fn default() -> Self {
        AdversaryConfig::none()
    }
}

/// The materialized adversary schedule: which devices are compromised,
/// which collusion group each belongs to, and in which rounds each attacker
/// is active — all derived from one (salted) seed.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryPlan {
    config: AdversaryConfig,
    n_devices: usize,
    n_rounds: usize,
    salted_seed: u64,
    compromised: Vec<bool>,
    /// Collusion group per device (meaningful only for compromised devices
    /// when `collusion_groups >= 1`).
    group: Vec<usize>,
    /// Row-major `[round * n_devices + device]`: attacker active this round.
    active: Vec<bool>,
}

impl AdversaryPlan {
    /// Generate a plan. Draw counts are fixed regardless of which draws
    /// fire, matching the [`crate::FaultInjector::from_config`] discipline.
    ///
    /// # Panics
    /// Panics via [`AdversaryConfig::validate`] on an invalid config, or
    /// when `n_devices == 0`.
    pub fn generate(config: AdversaryConfig, n_devices: usize, n_rounds: usize, seed: u64) -> Self {
        config.validate();
        assert!(n_devices > 0, "adversary plan needs at least one device");
        let salted_seed = DrawStream::new(seed ^ ADVERSARY_SALT).next_u64();
        let mut rng = StdRng::seed_from_u64(salted_seed);

        // Fixed draw order: per device (compromise, group), then per round
        // per device (activation).
        let mut compromised = Vec::with_capacity(n_devices);
        let mut group = Vec::with_capacity(n_devices);
        for _ in 0..n_devices {
            let comp_u: f64 = rng.gen();
            let group_u: f64 = rng.gen();
            compromised.push(comp_u < config.attacker_frac);
            let n_groups = config.collusion_groups.max(1);
            group.push(((group_u * n_groups as f64) as usize).min(n_groups - 1));
        }
        let mut active = Vec::with_capacity(n_devices * n_rounds);
        for _ in 0..n_rounds {
            for &comp in &compromised {
                let act_u: f64 = rng.gen();
                active.push(comp && act_u < config.active_prob);
            }
        }

        AdversaryPlan {
            config,
            n_devices,
            n_rounds,
            salted_seed,
            compromised,
            group,
            active,
        }
    }

    /// The configuration this plan was generated from.
    pub fn config(&self) -> &AdversaryConfig {
        &self.config
    }

    /// Number of devices covered.
    pub fn n_devices(&self) -> usize {
        self.n_devices
    }

    /// Number of rounds planned; rounds past the horizon are attack-free.
    pub fn n_rounds(&self) -> usize {
        self.n_rounds
    }

    /// True when no device is ever compromised.
    pub fn is_quiet(&self) -> bool {
        !self.compromised.iter().any(|&c| c)
    }

    /// Whether `device` is compromised at all (in any round).
    pub fn is_compromised(&self, device: usize) -> bool {
        assert!(device < self.n_devices, "device index out of range");
        self.compromised[device]
    }

    /// Whether `device` actively attacks in `round`.
    pub fn is_attacker(&self, round: usize, device: usize) -> bool {
        assert!(device < self.n_devices, "device index out of range");
        if round >= self.n_rounds {
            return false;
        }
        self.active[round * self.n_devices + device]
    }

    /// Devices actively attacking in `round`, ascending.
    pub fn attackers(&self, round: usize) -> Vec<usize> {
        (0..self.n_devices)
            .filter(|&j| self.is_attacker(round, j))
            .collect()
    }

    /// Collusion group of `device`, or `None` when attackers act
    /// independently (`collusion_groups == 0`) or the device is honest.
    pub fn collusion_group(&self, device: usize) -> Option<usize> {
        assert!(device < self.n_devices, "device index out of range");
        if self.config.collusion_groups == 0 || !self.compromised[device] {
            return None;
        }
        Some(self.group[device])
    }

    /// A stable 64-bit digest of the whole plan, mirroring
    /// [`crate::FaultInjector::fingerprint`].
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100000001b3);
        };
        mix(self.n_devices as u64);
        mix(self.n_rounds as u64);
        for (j, &c) in self.compromised.iter().enumerate() {
            mix(c as u64);
            mix(self.group[j] as u64);
        }
        for &a in &self.active {
            mix(a as u64);
        }
        h
    }

    /// Apply the configured attack transform in place. `update` is the full
    /// parameter vector a device would upload (`global + delta`); honest
    /// devices and inactive rounds are left untouched.
    ///
    /// Noise draws come from a [`DrawStream`] scoped to the plan seed, the
    /// round, and the attacker's collusion group (or the device itself when
    /// attackers are independent) — colluders therefore share a noise
    /// vector, and the simulation's main RNG is never consumed.
    ///
    /// # Panics
    /// Panics when `update` and `global` have different lengths.
    pub fn apply(&self, round: usize, device: usize, global: &[f32], update: &mut [f32]) {
        assert_eq!(
            update.len(),
            global.len(),
            "adversary: update/global dimensions differ"
        );
        if !self.is_attacker(round, device) {
            return;
        }
        match self.config.attack {
            AttackKind::SignFlip => {
                for (u, g) in update.iter_mut().zip(global) {
                    *u = 2.0 * *g - *u;
                }
            }
            AttackKind::Boost { factor } => {
                for (u, g) in update.iter_mut().zip(global) {
                    let delta = f64::from(*u) - f64::from(*g);
                    *u = (f64::from(*g) + factor * delta) as f32;
                }
            }
            AttackKind::GaussianNoise { sigma } => {
                let mut stream = self.noise_stream(round, device);
                for u in update.iter_mut() {
                    *u += (sigma * gaussian(&mut stream)) as f32;
                }
            }
            AttackKind::LabelFlip => {}
        }
    }

    /// The noise stream an attacker uses in `round` — shared across a
    /// collusion group, per-device otherwise.
    fn noise_stream(&self, round: usize, device: usize) -> DrawStream {
        let channel = match self.collusion_group(device) {
            Some(g) => g,
            None => self.n_devices + device,
        };
        self.draw_stream(round, channel)
    }

    /// A deterministic draw stream scoped to `(round, channel)`, derived
    /// from the plan's salted seed — same discipline as
    /// [`crate::FaultInjector::draw_stream`]. Channels `0..2 * n_devices`
    /// are reserved for attack noise; simulators wanting auxiliary
    /// randomness (e.g. proxy update synthesis) should offset past that.
    pub fn draw_stream(&self, round: usize, channel: usize) -> DrawStream {
        DrawStream::new(
            self.salted_seed
                .wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add((round as u64) << 32)
                .wrapping_add(channel as u64 + 1),
        )
    }
}

/// One standard-normal draw via Box–Muller on a [`DrawStream`].
fn gaussian(stream: &mut DrawStream) -> f64 {
    // Guard u1 away from 0 so ln() stays finite.
    let u1 = stream.next_u01().max(1e-12);
    let u2 = stream.next_u01();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultInjector;

    fn attack_config() -> AdversaryConfig {
        AdversaryConfig::none().with_attackers(0.4, AttackKind::SignFlip)
    }

    #[test]
    fn same_seed_gives_identical_plans() {
        let a = AdversaryPlan::generate(attack_config(), 8, 20, 42);
        let b = AdversaryPlan::generate(attack_config(), 8, 20, 42);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = AdversaryPlan::generate(attack_config(), 8, 20, 43);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn quiet_plan_never_attacks_or_transforms() {
        let plan = AdversaryPlan::generate(AdversaryConfig::none(), 5, 10, 7);
        assert!(plan.is_quiet());
        let global = vec![1.0f32; 4];
        let mut update = vec![2.0f32; 4];
        for r in 0..12 {
            assert!(plan.attackers(r).is_empty());
            for j in 0..5 {
                plan.apply(r, j, &global, &mut update);
            }
        }
        assert_eq!(update, vec![2.0f32; 4]);
    }

    #[test]
    fn adversary_draws_do_not_correlate_with_fault_draws() {
        // Same master seed, same shape: the compromised set must not equal
        // the set of devices that crash in round 0 (the raw-seed trap).
        let seed = 1234;
        let n = 64;
        let faults =
            FaultInjector::from_config(crate::FaultConfig::none().with_crash_prob(0.4), n, 1, seed);
        let adv = AdversaryPlan::generate(
            AdversaryConfig::none().with_attackers(0.4, AttackKind::SignFlip),
            n,
            1,
            seed,
        );
        let crashers: Vec<bool> = (0..n)
            .map(|j| !matches!(faults.fate(0, j), crate::DeviceFate::Healthy))
            .collect();
        let attackers: Vec<bool> = (0..n).map(|j| adv.is_compromised(j)).collect();
        assert_ne!(crashers, attackers);
    }

    #[test]
    fn sign_flip_reflects_the_delta() {
        let config = AdversaryConfig::none().with_attackers(1.0, AttackKind::SignFlip);
        let plan = AdversaryPlan::generate(config, 2, 3, 9);
        let global = vec![1.0f32, -2.0, 0.5];
        let mut update = vec![1.5f32, -1.0, 0.5];
        plan.apply(0, 0, &global, &mut update);
        // update = 2g - u, i.e. global - delta.
        assert_eq!(update, vec![0.5f32, -3.0, 0.5]);
    }

    #[test]
    fn boost_scales_the_delta() {
        let config =
            AdversaryConfig::none().with_attackers(1.0, AttackKind::Boost { factor: 10.0 });
        let plan = AdversaryPlan::generate(config, 1, 1, 9);
        let global = vec![1.0f32];
        let mut update = vec![1.1f32];
        plan.apply(0, 0, &global, &mut update);
        assert!((f64::from(update[0]) - 2.0).abs() < 1e-6, "{}", update[0]);
    }

    #[test]
    fn colluders_share_noise_and_independents_do_not() {
        let colluding = AdversaryConfig::none()
            .with_attackers(1.0, AttackKind::GaussianNoise { sigma: 0.5 })
            .with_collusion(1);
        let plan = AdversaryPlan::generate(colluding, 4, 2, 5);
        let global = vec![0.0f32; 8];
        let mut a = vec![0.0f32; 8];
        let mut b = vec![0.0f32; 8];
        plan.apply(0, 0, &global, &mut a);
        plan.apply(0, 1, &global, &mut b);
        assert_eq!(a, b, "one collusion group must share a noise vector");
        assert_ne!(a, vec![0.0f32; 8]);

        let independent =
            AdversaryConfig::none().with_attackers(1.0, AttackKind::GaussianNoise { sigma: 0.5 });
        let plan = AdversaryPlan::generate(independent, 4, 2, 5);
        let mut c = vec![0.0f32; 8];
        let mut d = vec![0.0f32; 8];
        plan.apply(0, 0, &global, &mut c);
        plan.apply(0, 1, &global, &mut d);
        assert_ne!(c, d, "independent attackers must draw distinct noise");
    }

    #[test]
    fn label_flip_is_a_vector_no_op() {
        let config = AdversaryConfig::none().with_attackers(1.0, AttackKind::LabelFlip);
        assert!(config.attack.flips_labels());
        let plan = AdversaryPlan::generate(config, 2, 2, 3);
        assert!(plan.is_attacker(0, 0) || plan.is_attacker(0, 1));
        let global = vec![1.0f32; 3];
        let mut update = vec![2.0f32; 3];
        plan.apply(0, 0, &global, &mut update);
        assert_eq!(update, vec![2.0f32; 3]);
    }

    #[test]
    fn activation_probability_thins_attack_rounds() {
        let config = AdversaryConfig::none()
            .with_attackers(1.0, AttackKind::SignFlip)
            .with_active_prob(0.5);
        let plan = AdversaryPlan::generate(config, 4, 200, 11);
        let active: usize = (0..200).map(|r| plan.attackers(r).len()).sum();
        // 800 cells at p=0.5: far from both extremes.
        assert!(active > 250 && active < 550, "active = {active}");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_fraction_rejected() {
        let _ = AdversaryPlan::generate(
            AdversaryConfig::none().with_attackers(1.5, AttackKind::SignFlip),
            2,
            2,
            0,
        );
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_cohort_rejected() {
        let _ = AdversaryPlan::generate(AdversaryConfig::none(), 0, 2, 0);
    }
}
