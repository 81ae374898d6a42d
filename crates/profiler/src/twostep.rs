//! The paper's two-step profiler (Section IV-B, Fig. 4).
//!
//! Step 1 learns, for every measured data size `d`, a plane
//! `time = b0 + b1 * conv_params + b2 * dense_params` over a set of benchmark
//! architectures. Step 2 fixes a target architecture, evaluates all step-1
//! planes at it, and regresses the predicted times against data size. The
//! output is a [`CostProfile`](crate::CostProfile) for the (architecture, device) pair that
//! generalizes to unseen data sizes.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::profile::{LinearProfile, PolyProfile, TabulatedProfile};
use crate::regress::{LinearRegression, RegressError};

/// A model architecture summarized by its parameter counts, split between
/// convolutional and dense layers (convolutions have far higher per-parameter
/// compute intensity, which is why the paper separates them).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelArch {
    /// Parameters in convolutional layers.
    pub conv_params: f64,
    /// Parameters in densely connected layers.
    pub dense_params: f64,
}

impl ModelArch {
    /// Construct an architecture descriptor.
    pub fn new(conv_params: f64, dense_params: f64) -> Self {
        ModelArch {
            conv_params,
            dense_params,
        }
    }

    /// LeNet-5 as used by the paper (~205K parameters total).
    pub fn lenet() -> Self {
        // conv1 (1->20, 5x5) + conv2 (20->50, 5x5) ~= 26K conv params;
        // fc layers carry the remaining ~179K.
        ModelArch::new(25_570.0, 179_510.0)
    }

    /// The tailored VGG6 of the paper (~5.45M parameters, conv heavy).
    pub fn vgg6() -> Self {
        ModelArch::new(4_800_000.0, 650_000.0)
    }

    /// Total parameter count.
    pub fn total_params(&self) -> f64 {
        self.conv_params + self.dense_params
    }
}

/// One benchmark observation for step 1: an architecture and its measured
/// training time (seconds) at some data size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArchPoint {
    /// The benchmarked architecture.
    pub arch: ModelArch,
    /// Measured seconds for one epoch at the associated data size.
    pub seconds: f64,
}

/// Builder/fitter for the two-step profiler of one device.
#[derive(Debug, Clone, Default)]
pub struct TwoStepProfiler {
    /// Measurements grouped by data size (samples). BTreeMap keeps the data
    /// sizes ordered, which step 2 relies on.
    measurements: BTreeMap<u64, Vec<ArchPoint>>,
}

/// A fitted step-1 model for one data size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepOneModel {
    /// Data size (samples) this plane was fitted at.
    pub samples: u64,
    /// The fitted plane `time = b0 + b1 conv + b2 dense`.
    pub plane: LinearRegression,
}

/// The fully fitted profiler: one plane per measured data size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FittedProfiler {
    /// Step-1 planes, ordered by data size.
    pub planes: Vec<StepOneModel>,
}

impl TwoStepProfiler {
    /// Create an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a benchmark measurement: `arch` trained over `samples` samples
    /// took `seconds`.
    pub fn record(&mut self, samples: u64, arch: ModelArch, seconds: f64) {
        self.measurements
            .entry(samples)
            .or_default()
            .push(ArchPoint { arch, seconds });
    }

    /// Number of distinct data sizes recorded.
    pub fn data_sizes(&self) -> usize {
        self.measurements.len()
    }

    /// Fit step 1: one plane per data size. Each data size needs at least
    /// four architectures (three coefficients plus one).
    pub fn fit(&self) -> Result<FittedProfiler, RegressError> {
        if self.measurements.is_empty() {
            return Err(RegressError::TooFewObservations);
        }
        let mut planes = Vec::with_capacity(self.measurements.len());
        for (&samples, points) in &self.measurements {
            let features: Vec<Vec<f64>> = points
                .iter()
                .map(|p| vec![p.arch.conv_params, p.arch.dense_params])
                .collect();
            let targets: Vec<f64> = points.iter().map(|p| p.seconds).collect();
            let plane = LinearRegression::fit(&features, &targets)?;
            planes.push(StepOneModel { samples, plane });
        }
        Ok(FittedProfiler { planes })
    }
}

impl FittedProfiler {
    /// Step-1 predictions for `arch` at every measured data size, clamped to
    /// non-negative seconds.
    pub fn predictions_for(&self, arch: ModelArch) -> Vec<(f64, f64)> {
        self.planes
            .iter()
            .map(|m| {
                let t = m.plane.predict(&[arch.conv_params, arch.dense_params]);
                (m.samples as f64, t.max(0.0))
            })
            .collect()
    }

    /// Step 2 with a linear model `time = fixed + per_sample * samples`
    /// (the paper's choice, Fig. 4(b)). Requires >= 2 measured data sizes.
    pub fn linear_profile(&self, arch: ModelArch) -> Result<LinearProfile, RegressError> {
        let pts = self.predictions_for(arch);
        let features: Vec<Vec<f64>> = pts.iter().map(|&(d, _)| vec![d]).collect();
        let targets: Vec<f64> = pts.iter().map(|&(_, t)| t).collect();
        let line = LinearRegression::fit(&features, &targets)?;
        Ok(LinearProfile::new(line.intercept, line.coefficients[0]))
    }

    /// Step 2 with a quadratic model — captures throttling super-linearity on
    /// devices whose measurements bend upward. Requires >= 3 data sizes.
    pub fn poly_profile(&self, arch: ModelArch) -> Result<PolyProfile, RegressError> {
        let pts = self.predictions_for(arch);
        let features: Vec<Vec<f64>> = pts.iter().map(|&(d, _)| vec![d, d * d]).collect();
        let targets: Vec<f64> = pts.iter().map(|&(_, t)| t).collect();
        let quad = LinearRegression::fit(&features, &targets)?;
        Ok(PolyProfile::new(
            quad.intercept,
            quad.coefficients[0],
            quad.coefficients[1],
        ))
    }

    /// Step 2 without a parametric form: interpolate the step-1 predictions
    /// directly (isotonic-repaired). Always succeeds with >= 1 data size.
    pub fn tabulated_profile(&self, arch: ModelArch) -> TabulatedProfile {
        TabulatedProfile::from_measurements(&self.predictions_for(arch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::CostProfile;

    /// Synthetic ground truth: time = (3e-6*conv + 4e-7*dense) * d / 1000 + 2.
    fn true_time(arch: ModelArch, d: f64) -> f64 {
        (3e-6 * arch.conv_params + 4e-7 * arch.dense_params) * d / 1000.0 + 2.0
    }

    fn bench_archs() -> Vec<ModelArch> {
        vec![
            ModelArch::new(10_000.0, 50_000.0),
            ModelArch::new(25_570.0, 179_510.0),
            ModelArch::new(100_000.0, 400_000.0),
            ModelArch::new(500_000.0, 100_000.0),
            ModelArch::new(1_000_000.0, 1_000_000.0),
            ModelArch::new(4_800_000.0, 650_000.0),
        ]
    }

    fn fitted() -> FittedProfiler {
        let mut prof = TwoStepProfiler::new();
        for &d in &[1000u64, 2000, 3000, 4000, 6000] {
            for &arch in &bench_archs() {
                prof.record(d, arch, true_time(arch, d as f64));
            }
        }
        prof.fit().unwrap()
    }

    #[test]
    fn step_one_fits_each_data_size() {
        let f = fitted();
        assert_eq!(f.planes.len(), 5);
        for p in &f.planes {
            assert!(
                p.plane.r_squared > 0.999,
                "plane at d={} poor fit",
                p.samples
            );
        }
    }

    #[test]
    fn predicts_unseen_architecture_and_size() {
        let f = fitted();
        let unseen = ModelArch::new(200_000.0, 300_000.0);
        let profile = f.linear_profile(unseen).unwrap();
        for &d in &[1500.0, 5000.0, 10_000.0] {
            let predicted = profile.time_for(d);
            let truth = true_time(unseen, d);
            assert!(
                (predicted - truth).abs() / truth < 0.05,
                "d={d}: predicted {predicted}, truth {truth}"
            );
        }
    }

    #[test]
    fn poly_profile_captures_superlinear_truth() {
        // Ground truth with a quadratic throttling term.
        let mut prof = TwoStepProfiler::new();
        for &d in &[1000u64, 2000, 3000, 4000, 6000] {
            for &arch in &bench_archs() {
                let base = true_time(arch, d as f64);
                prof.record(d, arch, base + 1e-6 * (d as f64) * (d as f64) / 1000.0);
            }
        }
        let f = prof.fit().unwrap();
        let p = f.poly_profile(ModelArch::lenet()).unwrap();
        assert!(p.c2 > 0.0, "quadratic term must be detected");
        // Super-linearity: doubling data more than doubles the time delta.
        let t3 = p.time_for(3000.0);
        let t6 = p.time_for(6000.0);
        assert!(t6 > 2.0 * t3 - p.c0);
    }

    #[test]
    fn tabulated_profile_is_monotone() {
        let f = fitted();
        let p = f.tabulated_profile(ModelArch::vgg6());
        let mut prev = 0.0;
        for d in (0..12).map(|k| k as f64 * 700.0) {
            let t = p.time_for(d);
            assert!(t + 1e-9 >= prev);
            prev = t;
        }
    }

    #[test]
    fn fit_fails_without_measurements() {
        assert!(TwoStepProfiler::new().fit().is_err());
    }

    #[test]
    fn fit_fails_with_too_few_architectures() {
        let mut prof = TwoStepProfiler::new();
        prof.record(1000, ModelArch::lenet(), 10.0);
        prof.record(1000, ModelArch::vgg6(), 50.0);
        assert!(prof.fit().is_err());
    }

    #[test]
    fn record_accumulates_data_sizes() {
        let mut prof = TwoStepProfiler::new();
        prof.record(1000, ModelArch::lenet(), 1.0);
        prof.record(2000, ModelArch::lenet(), 2.0);
        prof.record(1000, ModelArch::vgg6(), 3.0);
        assert_eq!(prof.data_sizes(), 2);
    }

    #[test]
    fn builtin_archs_have_paperlike_sizes() {
        assert!((ModelArch::lenet().total_params() - 205_080.0).abs() < 1000.0);
        assert!((ModelArch::vgg6().total_params() - 5_450_000.0).abs() < 10_000.0);
    }
}
