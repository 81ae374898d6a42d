//! The paper's three testbed combinations and offline profiling.

use fedsched_profiler::{ModelArch, TabulatedProfile};

use crate::presets::DeviceModel;
use crate::soc::Device;
use crate::workload::TrainingWorkload;

/// Data sizes (samples) at which devices are profiled offline. The largest
/// point anchors linear extrapolation in the fully-throttled regime.
pub const PROFILE_SIZES: [usize; 7] = [500, 1000, 2000, 3000, 4000, 6000, 10_000];

/// Warm-up duration before each profiling measurement (seconds). Long
/// enough to cross every preset's thermal time constant, so the profile
/// reflects the *sustained* rate devices actually deliver across repeated
/// FL rounds.
pub const PROFILE_WARMUP_S: f64 = 120.0;

/// A collection of simulated devices acting as one federated cohort.
#[derive(Debug, Clone)]
pub struct Testbed {
    devices: Vec<Device>,
}

impl Testbed {
    /// Build a testbed from an explicit model list.
    pub fn new(models: &[DeviceModel], seed: u64) -> Self {
        let devices = models
            .iter()
            .enumerate()
            .map(|(i, &m)| Device::from_model(m, seed.wrapping_add(i as u64 * 0x9E37_79B9)))
            .collect();
        Testbed { devices }
    }

    /// Testbed I: 1x Nexus6, 1x Mate10, 1x Pixel2 (3 devices).
    pub fn testbed_1(seed: u64) -> Self {
        use DeviceModel::*;
        Testbed::new(&[Nexus6, Mate10, Pixel2], seed)
    }

    /// Testbed II: 2x Nexus6, 2x Nexus6P, 1x Mate10, 1x Pixel2 (6 devices).
    pub fn testbed_2(seed: u64) -> Self {
        use DeviceModel::*;
        Testbed::new(&[Nexus6, Nexus6, Nexus6P, Nexus6P, Mate10, Pixel2], seed)
    }

    /// Testbed III: 4x Nexus6, 2x Nexus6P, 2x Mate10, 2x Pixel2 (10 devices).
    pub fn testbed_3(seed: u64) -> Self {
        use DeviceModel::*;
        Testbed::new(
            &[
                Nexus6, Nexus6, Nexus6, Nexus6, Nexus6P, Nexus6P, Mate10, Mate10, Pixel2, Pixel2,
            ],
            seed,
        )
    }

    /// The paper's testbed by index (1, 2 or 3).
    ///
    /// # Panics
    /// Panics for any other index.
    pub fn by_index(index: usize, seed: u64) -> Self {
        match index {
            1 => Testbed::testbed_1(seed),
            2 => Testbed::testbed_2(seed),
            3 => Testbed::testbed_3(seed),
            _ => panic!("testbed index must be 1, 2 or 3, got {index}"),
        }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True if the testbed has no devices.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Borrow the devices.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Take the devices out of the testbed, without cloning them.
    pub fn into_devices(self) -> Vec<Device> {
        self.devices
    }

    /// Mutably borrow the devices (the FL runtime advances their state).
    pub fn devices_mut(&mut self) -> &mut [Device] {
        &mut self.devices
    }

    /// The device models, in cohort order.
    pub fn models(&self) -> Vec<DeviceModel> {
        self.devices.iter().map(|d| d.model()).collect()
    }

    /// Offline profiling: measure each device at [`PROFILE_SIZES`] from the
    /// sustained-load thermal state (warm-up [`PROFILE_WARMUP_S`]) and
    /// tabulate monotone time profiles (paper Section IV-B protocol, using
    /// direct measurement of the target architecture). Sustained-state
    /// measurement matters because FL rounds repeat back-to-back: a
    /// cold-start profile would under-predict thermally-limited devices.
    ///
    /// Profiling uses a *separate* device instance per measurement (seeded
    /// deterministically from the cohort) so it does not consume battery or
    /// heat on the live cohort devices.
    pub fn profiles_for(&self, wl: &TrainingWorkload) -> Vec<TabulatedProfile> {
        self.devices
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let mut probe = Device::new(d.spec().clone(), 0xC0FFEE ^ (i as u64));
                let pts: Vec<(f64, f64)> = PROFILE_SIZES
                    .iter()
                    .map(|&n| {
                        (
                            n as f64,
                            probe.epoch_time_sustained(wl, n, PROFILE_WARMUP_S),
                        )
                    })
                    .collect();
                TabulatedProfile::from_measurements(&pts)
            })
            .collect()
    }

    /// Convenience: profiles for a named architecture (LeNet / VGG6 use
    /// their exact workloads; anything else goes through
    /// [`TrainingWorkload::from_arch`]).
    pub fn profiles(&self, arch: ModelArch) -> Vec<TabulatedProfile> {
        self.profiles_for(&workload_for_arch(&arch))
    }
}

/// Map an architecture to its training workload: the two headline models get
/// their calibrated constants, everything else the parameter-count estimate.
pub fn workload_for_arch(arch: &ModelArch) -> TrainingWorkload {
    let close = |a: f64, b: f64| (a - b).abs() / b.max(1.0) < 0.05;
    let lenet = ModelArch::lenet();
    let vgg6 = ModelArch::vgg6();
    if close(arch.conv_params, lenet.conv_params) && close(arch.dense_params, lenet.dense_params) {
        TrainingWorkload::lenet()
    } else if close(arch.conv_params, vgg6.conv_params)
        && close(arch.dense_params, vgg6.dense_params)
    {
        TrainingWorkload::vgg6()
    } else {
        TrainingWorkload::from_arch(arch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsched_profiler::CostProfile;

    #[test]
    fn testbed_sizes_match_paper() {
        assert_eq!(Testbed::testbed_1(0).len(), 3);
        assert_eq!(Testbed::testbed_2(0).len(), 6);
        assert_eq!(Testbed::testbed_3(0).len(), 10);
    }

    #[test]
    fn testbed_by_index_dispatches() {
        assert_eq!(Testbed::by_index(2, 0).len(), 6);
    }

    #[test]
    #[should_panic(expected = "testbed index")]
    fn invalid_index_panics() {
        let _ = Testbed::by_index(4, 0);
    }

    #[test]
    fn testbed_2_contains_both_nexus6p() {
        let models = Testbed::testbed_2(0).models();
        assert_eq!(
            models
                .iter()
                .filter(|m| **m == DeviceModel::Nexus6P)
                .count(),
            2
        );
    }

    #[test]
    fn profiles_are_monotone_and_ranked() {
        let tb = Testbed::testbed_1(42);
        let profiles = tb.profiles(ModelArch::lenet());
        assert_eq!(profiles.len(), 3);
        for p in &profiles {
            let mut prev = 0.0;
            for n in [100.0, 1000.0, 5000.0, 20_000.0] {
                let t = p.time_for(n);
                assert!(t >= prev);
                prev = t;
            }
        }
        // Pixel2 (index 2) must beat Nexus6 (index 0) which beats Mate10
        // (index 1) on LeNet at 3K samples, matching Table II ordering.
        let at3k: Vec<f64> = profiles.iter().map(|p| p.time_for(3000.0)).collect();
        assert!(
            at3k[2] < at3k[0],
            "Pixel2 {:.0} !< Nexus6 {:.0}",
            at3k[2],
            at3k[0]
        );
        assert!(
            at3k[0] < at3k[1],
            "Nexus6 {:.0} !< Mate10 {:.0}",
            at3k[0],
            at3k[1]
        );
    }

    #[test]
    fn workload_for_arch_maps_headline_models() {
        assert_eq!(
            workload_for_arch(&ModelArch::lenet()),
            TrainingWorkload::lenet()
        );
        assert_eq!(
            workload_for_arch(&ModelArch::vgg6()),
            TrainingWorkload::vgg6()
        );
        let other = workload_for_arch(&ModelArch::new(1e5, 1e5));
        assert_ne!(other, TrainingWorkload::lenet());
    }
}
