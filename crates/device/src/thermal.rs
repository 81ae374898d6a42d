//! Lumped-RC thermal model with trip-point throttling.
//!
//! Die temperature follows `C dT/dt = P(t) - (T - T_amb) / R`, the standard
//! first-order lumped model: `C` is heat capacity (J/°C), `R` thermal
//! resistance to ambient (°C/W). Sustained training power drives `T` towards
//! `T_amb + P*R`; a [`ThrottlePolicy`] converts the temperature into a
//! frequency cap and, above a critical trip, takes the big cluster offline
//! entirely — the Snapdragon 810 behaviour the paper observes on Nexus 6P
//! (Observation 2).

use serde::{Deserialize, Serialize};

/// One throttling trip point: at or above `temp_c`, frequencies are capped to
/// `cap_fraction` of each cluster's maximum.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TripPoint {
    /// Activation temperature (°C).
    pub temp_c: f64,
    /// Frequency cap as a fraction of the cluster maximum, in `(0, 1]`.
    pub cap_fraction: f64,
}

/// Trip-point table plus big-cluster shutdown thresholds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThrottlePolicy {
    /// Trip points sorted by ascending temperature; caps must be
    /// non-increasing.
    pub trips: Vec<TripPoint>,
    /// Take the big cluster offline at or above this temperature (°C).
    /// `f64::INFINITY` disables shutdown (phones without the problem).
    pub big_offline_temp_c: f64,
    /// Bring the big cluster back online below this temperature (°C);
    /// hysteresis requires `big_resume_temp_c < big_offline_temp_c`.
    pub big_resume_temp_c: f64,
}

impl ThrottlePolicy {
    /// A policy that never throttles (useful for tests and ideal baselines).
    pub fn none() -> Self {
        ThrottlePolicy {
            trips: Vec::new(),
            big_offline_temp_c: f64::INFINITY,
            big_resume_temp_c: f64::INFINITY,
        }
    }

    /// Validate invariants; called by [`ThermalModel::new`].
    fn validate(&self) {
        let mut prev_temp = f64::NEG_INFINITY;
        let mut prev_cap = 1.0f64;
        for t in &self.trips {
            assert!(
                t.temp_c > prev_temp,
                "trip points must be sorted by temperature"
            );
            assert!(
                t.cap_fraction > 0.0 && t.cap_fraction <= prev_cap,
                "trip caps must be non-increasing and positive"
            );
            prev_temp = t.temp_c;
            prev_cap = t.cap_fraction;
        }
        assert!(
            self.big_resume_temp_c <= self.big_offline_temp_c,
            "resume temperature must not exceed offline temperature"
        );
    }

    /// Frequency cap fraction for the current temperature.
    pub fn cap_at(&self, temp_c: f64) -> f64 {
        let mut cap = 1.0;
        for t in &self.trips {
            if temp_c >= t.temp_c {
                cap = t.cap_fraction;
            }
        }
        cap
    }
}

/// The thermal integrator: state is the current die temperature.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThermalModel {
    /// Ambient temperature (°C).
    pub ambient_c: f64,
    /// Heat capacity (J/°C).
    pub heat_capacity: f64,
    /// Thermal resistance to ambient (°C/W).
    pub resistance: f64,
    /// The throttling policy.
    pub policy: ThrottlePolicy,
    temp_c: f64,
    big_online: bool,
    /// Last cap fraction surfaced via [`ThermalModel::step_observed`];
    /// restoration is debounced by [`CAP_REPORT_HYST_C`].
    reported_cap: f64,
}

/// Guard band (°C) below a trip point before a cap restoration is
/// *reported* (the governing cap itself has no hysteresis).
const CAP_REPORT_HYST_C: f64 = 0.5;

impl ThermalModel {
    /// Create a model starting at ambient temperature with the big cluster
    /// online.
    ///
    /// # Panics
    /// Panics on non-positive `heat_capacity`/`resistance` or an invalid
    /// policy (unsorted trips, caps out of range, inverted hysteresis).
    pub fn new(
        ambient_c: f64,
        heat_capacity: f64,
        resistance: f64,
        policy: ThrottlePolicy,
    ) -> Self {
        assert!(heat_capacity > 0.0, "heat capacity must be positive");
        assert!(resistance > 0.0, "thermal resistance must be positive");
        policy.validate();
        ThermalModel {
            ambient_c,
            heat_capacity,
            resistance,
            policy,
            temp_c: ambient_c,
            big_online: true,
            reported_cap: 1.0,
        }
    }

    /// Current die temperature (°C).
    pub fn temperature(&self) -> f64 {
        self.temp_c
    }

    /// Whether the big cluster is currently online.
    pub fn big_online(&self) -> bool {
        self.big_online
    }

    /// Current frequency cap fraction from the trip table.
    pub fn freq_cap(&self) -> f64 {
        self.policy.cap_at(self.temp_c)
    }

    /// Steady-state temperature under constant power `p_watts`.
    pub fn steady_state_temp(&self, p_watts: f64) -> f64 {
        self.ambient_c + p_watts * self.resistance
    }

    /// Advance the model by `dt` seconds under dissipated power `p_watts`,
    /// updating temperature and the big-cluster hysteresis state.
    pub fn step(&mut self, dt: f64, p_watts: f64) {
        debug_assert!(dt > 0.0 && p_watts >= 0.0);
        // Exact solution of the linear ODE over the step is unconditionally
        // stable, so large dt cannot overshoot the steady state.
        let target = self.steady_state_temp(p_watts);
        let tau = self.heat_capacity * self.resistance;
        let decay = (-dt / tau).exp();
        self.temp_c = target + (self.temp_c - target) * decay;

        if self.big_online && self.temp_c >= self.policy.big_offline_temp_c {
            self.big_online = false;
        } else if !self.big_online && self.temp_c < self.policy.big_resume_temp_c {
            self.big_online = true;
        }
    }

    /// Reset to ambient with the big cluster online.
    pub fn reset(&mut self) {
        self.temp_c = self.ambient_c;
        self.big_online = true;
        self.reported_cap = 1.0;
    }

    /// [`ThermalModel::step`] that also reports which discrete throttling
    /// transitions the step crossed — the telemetry layer turns these into
    /// `thermal_cap` / `big_cluster_*` events.
    ///
    /// Cap *restorations* are reported with `CAP_REPORT_HYST_C` of
    /// hysteresis: throttling at a trip point self-regulates the die right
    /// at the trip temperature (throttle → cool a fraction of a degree →
    /// unthrottle → reheat), and without a guard band that limit cycle
    /// flips the cap every integration step and floods the event stream.
    /// Only reporting is hysteretic; the governing [`ThermalModel::freq_cap`]
    /// is untouched, so instrumented and plain runs stay time-identical.
    pub fn step_observed(&mut self, dt: f64, p_watts: f64) -> ThermalTransitions {
        let big_before = self.big_online;
        self.step(dt, p_watts);
        let cap_now = self.freq_cap();
        let new_cap = if cap_now < self.reported_cap {
            // Tightening applies (and reports) immediately.
            self.reported_cap = cap_now;
            Some(cap_now)
        } else if self.policy.cap_at(self.temp_c + CAP_REPORT_HYST_C) > self.reported_cap {
            // Restore only once the die has cooled clear of the trip.
            self.reported_cap = cap_now;
            Some(cap_now)
        } else {
            None
        };
        ThermalTransitions {
            new_cap,
            big_went_offline: big_before && !self.big_online,
            big_came_online: !big_before && self.big_online,
        }
    }
}

/// Discrete throttling transitions crossed by one [`ThermalModel::step_observed`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ThermalTransitions {
    /// `Some(cap)` when the trip table's frequency cap changed (either
    /// direction); the value is the new cap fraction.
    pub new_cap: Option<f64>,
    /// The big cluster was taken offline this step.
    pub big_went_offline: bool,
    /// The big cluster came back online this step.
    pub big_came_online: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> ThrottlePolicy {
        ThrottlePolicy {
            trips: vec![
                TripPoint {
                    temp_c: 60.0,
                    cap_fraction: 0.8,
                },
                TripPoint {
                    temp_c: 70.0,
                    cap_fraction: 0.6,
                },
            ],
            big_offline_temp_c: 75.0,
            big_resume_temp_c: 65.0,
        }
    }

    #[test]
    fn heats_towards_steady_state_and_never_overshoots() {
        let mut m = ThermalModel::new(25.0, 20.0, 5.0, ThrottlePolicy::none());
        let steady = m.steady_state_temp(8.0); // 25 + 40 = 65
        assert_eq!(steady, 65.0);
        let mut prev = m.temperature();
        for _ in 0..10_000 {
            m.step(0.1, 8.0);
            assert!(m.temperature() >= prev - 1e-12, "monotone heating");
            assert!(m.temperature() <= steady + 1e-9, "no overshoot");
            prev = m.temperature();
        }
        assert!((m.temperature() - steady).abs() < 0.5);
    }

    #[test]
    fn cools_back_to_ambient_when_idle() {
        let mut m = ThermalModel::new(25.0, 20.0, 5.0, ThrottlePolicy::none());
        for _ in 0..5000 {
            m.step(0.1, 8.0);
        }
        for _ in 0..50_000 {
            m.step(0.1, 0.0);
        }
        assert!((m.temperature() - 25.0).abs() < 0.1);
    }

    #[test]
    fn large_step_is_stable() {
        let mut m = ThermalModel::new(25.0, 20.0, 5.0, ThrottlePolicy::none());
        m.step(1e6, 8.0);
        assert!((m.temperature() - 65.0).abs() < 1e-6);
    }

    #[test]
    fn trip_caps_apply_in_order() {
        let p = policy();
        assert_eq!(p.cap_at(25.0), 1.0);
        assert_eq!(p.cap_at(60.0), 0.8);
        assert_eq!(p.cap_at(69.9), 0.8);
        assert_eq!(p.cap_at(71.0), 0.6);
    }

    #[test]
    fn big_cluster_shutdown_has_hysteresis() {
        let mut m = ThermalModel::new(25.0, 10.0, 5.0, policy());
        assert!(m.big_online());
        // Drive hot.
        while m.temperature() < 75.0 {
            m.step(0.1, 12.0);
        }
        assert!(!m.big_online());
        // Cool a little but stay above resume: must stay offline.
        while m.temperature() > 66.0 {
            m.step(0.1, 0.0);
        }
        assert!(!m.big_online());
        // Cool below resume: back online.
        while m.temperature() >= 65.0 {
            m.step(0.1, 0.0);
        }
        m.step(0.1, 0.0);
        assert!(m.big_online());
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut m = ThermalModel::new(25.0, 10.0, 5.0, policy());
        for _ in 0..2000 {
            m.step(0.1, 15.0);
        }
        m.reset();
        assert_eq!(m.temperature(), 25.0);
        assert!(m.big_online());
    }

    #[test]
    fn step_observed_reports_cap_and_big_transitions() {
        let mut m = ThermalModel::new(25.0, 10.0, 5.0, policy());
        let mut saw_cap = false;
        let mut saw_offline = false;
        while !saw_offline {
            let tr = m.step_observed(0.1, 12.0);
            if let Some(cap) = tr.new_cap {
                assert!(cap < 1.0, "heating can only lower the cap");
                saw_cap = true;
            }
            saw_offline |= tr.big_went_offline;
            assert!(!tr.big_came_online);
        }
        assert!(saw_cap, "must cross a trip point before shutdown");
        // Cooling back down reverses both transitions.
        let mut saw_online = false;
        let mut cap_restored = false;
        for _ in 0..100_000 {
            let tr = m.step_observed(0.1, 0.0);
            saw_online |= tr.big_came_online;
            cap_restored |= tr.new_cap == Some(1.0);
        }
        assert!(saw_online && cap_restored);
    }

    #[test]
    fn trip_limit_cycle_reports_one_cap_change() {
        // Self-regulation right at a trip point (hot step, cool step, hot
        // step, ...) must not flood the reporter: one tightening event,
        // then silence until the die genuinely cools clear of the trip.
        let mut m = ThermalModel::new(25.0, 10.0, 5.0, policy());
        while m.freq_cap() == 1.0 {
            m.step(0.1, 12.0);
        }
        m.reset();
        // Re-heat with observation to just past the 60C trip.
        let mut events = 0usize;
        while m.temperature() < 60.0 {
            if m.step_observed(0.1, 12.0).new_cap.is_some() {
                events += 1;
            }
        }
        assert_eq!(events, 1);
        // Oscillate in a ±0.2C band around the trip: no further reports.
        for i in 0..1000 {
            // Steady states 85C / 35C average to the 60C trip itself.
            let p = if i % 2 == 0 { 12.0 } else { 2.0 };
            assert_eq!(m.step_observed(0.05, p).new_cap, None, "step {i}");
            assert!((m.temperature() - 60.0).abs() < 0.4, "left the band");
        }
        // A genuine cooldown restores the cap exactly once.
        let mut restores = 0usize;
        for _ in 0..10_000 {
            if m.step_observed(0.1, 0.0).new_cap == Some(1.0) {
                restores += 1;
            }
        }
        assert_eq!(restores, 1);
        assert!(m.temperature() < 60.0 - 0.4, "cooled past the guard band");
    }

    #[test]
    fn quiet_step_reports_no_transitions() {
        let mut m = ThermalModel::new(25.0, 10.0, 5.0, policy());
        assert_eq!(m.step_observed(0.1, 1.0), ThermalTransitions::default());
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_trips_rejected() {
        let p = ThrottlePolicy {
            trips: vec![
                TripPoint {
                    temp_c: 70.0,
                    cap_fraction: 0.6,
                },
                TripPoint {
                    temp_c: 60.0,
                    cap_fraction: 0.8,
                },
            ],
            big_offline_temp_c: f64::INFINITY,
            big_resume_temp_c: f64::INFINITY,
        };
        let _ = ThermalModel::new(25.0, 10.0, 5.0, p);
    }

    #[test]
    #[should_panic(expected = "non-increasing")]
    fn increasing_caps_rejected() {
        let p = ThrottlePolicy {
            trips: vec![
                TripPoint {
                    temp_c: 60.0,
                    cap_fraction: 0.6,
                },
                TripPoint {
                    temp_c: 70.0,
                    cap_fraction: 0.8,
                },
            ],
            big_offline_temp_c: f64::INFINITY,
            big_resume_temp_c: f64::INFINITY,
        };
        let _ = ThermalModel::new(25.0, 10.0, 5.0, p);
    }
}
