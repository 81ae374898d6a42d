//! Asynchronous federated learning — the alternative the paper rejects.
//!
//! Section II-B: "A promising way of addressing staleness ... is using
//! asynchronous updates, which resumes computation on those faster nodes
//! without waiting for the stragglers. However, inconsistent gradients could
//! easily lead to divergence and amortize the savings in computation time."
//! This module implements that alternative so the claim can be measured:
//! clients train continuously at their own (simulated) pace and the server
//! merges each arriving update with a staleness-discounted mixing weight
//! (`eta / (1 + staleness)`, as in FedAsync). An event-driven simulation
//! orders arrivals by simulated device time; training itself is real.

use fedsched_data::Dataset;
use fedsched_device::{Device, TrainingWorkload};
use fedsched_net::Link;
use fedsched_nn::ModelKind;
use fedsched_telemetry::{Event, Probe};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// FedAsync staleness discount: the effective mixing weight of an update
/// that is `staleness` server versions old, given base rate `eta`. Shared
/// by [`AsyncFlSetup`] and the coordinator's buffered-async merge
/// ([`coordinator`](crate::coordinator)) so both paths discount identically.
pub fn staleness_weight(eta: f64, staleness: usize) -> f64 {
    eta / (1.0 + staleness as f64)
}

/// Configuration for an asynchronous run.
#[derive(Debug, Clone)]
pub struct AsyncFlSetup<'a> {
    /// Training pool.
    pub train: &'a Dataset,
    /// Held-out evaluation data.
    pub test: &'a Dataset,
    /// Per-user training indices (empty = idle user).
    pub assignment: Vec<Vec<usize>>,
    /// Model to train.
    pub model: ModelKind,
    /// Simulated devices (one per user) providing local-epoch durations.
    pub devices: Vec<Device>,
    /// The uplink/downlink model.
    pub link: Link,
    /// Transfer payload per direction, bytes.
    pub model_bytes: f64,
    /// Device-side training workload (for timing only).
    pub workload: TrainingWorkload,
    /// Stop after this much simulated time (seconds).
    pub sim_duration_s: f64,
    /// Base mixing rate `eta` (effective weight is `eta / (1 + staleness)`).
    pub eta: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Seed.
    pub seed: u64,
}

/// Outcome of an asynchronous run.
#[derive(Debug, Clone, Serialize)]
pub struct AsyncFlOutcome {
    /// Final test accuracy.
    pub final_accuracy: f64,
    /// Total updates merged.
    pub merged_updates: usize,
    /// Mean staleness (server versions elapsed between a client's download
    /// and its upload).
    pub mean_staleness: f64,
    /// `(sim_time, accuracy)` checkpoints.
    pub timeline: Vec<(f64, f64)>,
    /// The final global parameters.
    pub global: Vec<f32>,
}

impl<'a> AsyncFlSetup<'a> {
    /// Run the event-driven asynchronous simulation.
    ///
    /// # Panics
    /// Panics if `assignment`/`devices` lengths differ or nobody has data.
    pub fn run(&self) -> AsyncFlOutcome {
        self.run_traced(&Probe::disabled())
    }

    /// [`AsyncFlSetup::run`], emitting one `async_merge` event per merged
    /// update (the staleness-discount decision point) through `probe`.
    /// Telemetry never perturbs the simulation: a disabled probe makes this
    /// exactly `run`.
    ///
    /// # Panics
    /// Panics if `assignment`/`devices` lengths differ or nobody has data.
    pub fn run_traced(&self, probe: &Probe) -> AsyncFlOutcome {
        assert_eq!(
            self.assignment.len(),
            self.devices.len(),
            "assignment/devices mismatch"
        );
        assert!(
            self.assignment.iter().any(|a| !a.is_empty()),
            "async run needs at least one user with data"
        );
        let dims = self.train.kind().dims();
        let template = self.model.build_with_threads(dims, self.seed, 1);
        let mut global = template.flat_params();
        drop(template);

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut devices = self.devices.clone();

        // Per-client in-flight state: (arrival_time, version_downloaded).
        // Kick off every client at t = download time.
        let n = self.assignment.len();
        let mut next_arrival: Vec<Option<(f64, usize)>> = vec![None; n];
        let mut server_version = 0usize;
        let mut merged = 0usize;
        let mut staleness_sum = 0usize;
        let mut timeline = Vec::new();

        let schedule_client = |j: usize,
                               now: f64,
                               version: usize,
                               devices: &mut [Device],
                               rng: &mut StdRng|
         -> Option<(f64, usize)> {
            if self.assignment[j].is_empty() {
                return None;
            }
            let comm = self.link.sample_round_seconds(self.model_bytes, rng);
            let compute = devices[j].train_samples(&self.workload, self.assignment[j].len());
            Some((now + comm + compute, version))
        };

        for (j, slot) in next_arrival.iter_mut().enumerate() {
            *slot = schedule_client(j, 0.0, 0, &mut devices, &mut rng);
        }

        let mut eval_at = self.sim_duration_s / 5.0;
        // Event loop over the earliest pending arrival.
        while let Some((j, (t, version))) = next_arrival
            .iter()
            .enumerate()
            .filter_map(|(j, a)| a.map(|x| (j, x)))
            .min_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).expect("finite times"))
        {
            if t > self.sim_duration_s {
                break;
            }

            // The client trains from the version it downloaded: replay its
            // local epoch against that *historical* global. We keep only
            // the latest global (FedAsync-style state): the client's local
            // run is recomputed from the current global minus staleness
            // discount — approximated by training from the stale snapshot
            // we stored implicitly via mixing. For fidelity at modest cost
            // we train from the *current* global (standard semi-async
            // approximation) and discount by staleness.
            let staleness = server_version - version;
            let mut net = self.model.build_with_threads(dims, self.seed, 1);
            net.set_flat_params(&global);
            let mut order: Vec<usize> = self.assignment[j].clone();
            for i in (1..order.len()).rev() {
                let k = rng.gen_range(0..=i);
                order.swap(i, k);
            }
            for chunk in order.chunks(self.batch_size) {
                let (x, y) = self.train.batch(chunk);
                net.train_batch(&x, &y);
            }
            let update = net.flat_params();

            let weight = staleness_weight(self.eta, staleness) as f32;
            probe.emit(|| Event::AsyncMerge {
                t_s: t,
                user: j,
                staleness,
                weight: f64::from(weight),
            });
            for (g, &u) in global.iter_mut().zip(&update) {
                *g = (1.0 - weight) * *g + weight * u;
            }
            server_version += 1;
            merged += 1;
            staleness_sum += staleness;

            // Requeue the client.
            next_arrival[j] = schedule_client(j, t, server_version, &mut devices, &mut rng);

            if t >= eval_at {
                timeline.push((t, self.evaluate(&global)));
                eval_at += self.sim_duration_s / 5.0;
            }
        }

        let final_accuracy = self.evaluate(&global);
        AsyncFlOutcome {
            final_accuracy,
            merged_updates: merged,
            mean_staleness: if merged == 0 {
                0.0
            } else {
                staleness_sum as f64 / merged as f64
            },
            timeline,
            global,
        }
    }

    fn evaluate(&self, params: &[f32]) -> f64 {
        let dims = self.train.kind().dims();
        let mut net = self.model.build_with_threads(dims, self.seed, 1);
        net.set_flat_params(params);
        let idx: Vec<usize> = (0..self.test.len()).collect();
        let mut correct = 0usize;
        for chunk in idx.chunks(256) {
            let (x, y) = self.test.batch(chunk);
            let preds = net.predict(&x, y.len());
            correct += preds.iter().zip(&y).filter(|(p, l)| p == l).count();
        }
        correct as f64 / self.test.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsched_data::{iid_equal, DatasetKind};
    use fedsched_device::DeviceModel;
    use fedsched_net::Link;

    fn setup<'a>(train: &'a Dataset, test: &'a Dataset, duration: f64) -> AsyncFlSetup<'a> {
        let p = iid_equal(train, 3, 5);
        AsyncFlSetup {
            train,
            test,
            assignment: p.users,
            model: ModelKind::Mlp,
            devices: vec![
                Device::from_model(DeviceModel::Pixel2, 1),
                Device::from_model(DeviceModel::Nexus6, 2),
                Device::from_model(DeviceModel::Nexus6P, 3),
            ],
            link: Link::wifi_campus(),
            model_bytes: 2.5e6,
            workload: TrainingWorkload::lenet(),
            sim_duration_s: duration,
            eta: 0.6,
            batch_size: 20,
            seed: 9,
        }
    }

    #[test]
    fn async_run_merges_updates_and_learns() {
        let (train, test) = Dataset::generate_split(DatasetKind::MnistLike, 450, 200, 1);
        let out = setup(&train, &test, 120.0).run();
        assert!(out.merged_updates >= 3, "merged {}", out.merged_updates);
        assert!(out.final_accuracy > 0.5, "accuracy {}", out.final_accuracy);
    }

    #[test]
    fn fast_devices_contribute_more_updates() {
        let (train, test) = Dataset::generate_split(DatasetKind::MnistLike, 300, 100, 2);
        let out = setup(&train, &test, 200.0).run();
        // Pixel2 outpaces Nexus6P: with ~150 samples each, Pixel2's round is
        // ~1.5 s vs the 6P's (eventually) ~7 s, so total updates must exceed
        // 3x the slowest client's possible count... indirectly: staleness
        // must be nonzero because arrival orders interleave.
        assert!(out.merged_updates > 10);
        assert!(out.mean_staleness > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let (train, test) = Dataset::generate_split(DatasetKind::MnistLike, 200, 100, 3);
        let a = setup(&train, &test, 60.0).run();
        let b = setup(&train, &test, 60.0).run();
        assert_eq!(a.final_accuracy, b.final_accuracy);
        assert_eq!(a.merged_updates, b.merged_updates);
        assert_eq!(a.global, b.global);
    }

    #[test]
    fn zero_duration_merges_nothing() {
        let (train, test) = Dataset::generate_split(DatasetKind::MnistLike, 100, 50, 4);
        let out = setup(&train, &test, 0.5).run();
        assert_eq!(out.merged_updates, 0);
        assert_eq!(out.mean_staleness, 0.0);
    }

    #[test]
    fn traced_run_logs_merges_without_perturbing_them() {
        use fedsched_telemetry::{Event, EventLog, Probe};
        use std::sync::Arc;
        let (train, test) = Dataset::generate_split(DatasetKind::MnistLike, 200, 100, 5);
        let plain = setup(&train, &test, 60.0).run();
        let log = Arc::new(EventLog::new());
        let traced = setup(&train, &test, 60.0).run_traced(&Probe::attached(log.clone()));
        assert_eq!(plain.global, traced.global);
        assert_eq!(plain.merged_updates, traced.merged_updates);
        let merges: Vec<(usize, f64)> = log
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::AsyncMerge {
                    staleness, weight, ..
                } => Some((*staleness, *weight)),
                _ => None,
            })
            .collect();
        assert_eq!(merges.len(), traced.merged_updates);
        for (staleness, weight) in merges {
            assert!((weight - 0.6 / (1.0 + staleness as f64)).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "at least one user")]
    fn all_idle_panics() {
        let (train, test) = Dataset::generate_split(DatasetKind::MnistLike, 100, 50, 4);
        let mut s = setup(&train, &test, 10.0);
        s.assignment = vec![Vec::new(); 3];
        let _ = s.run();
    }
}
