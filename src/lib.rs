//! # fedsched
//!
//! A production-quality reproduction of *"Optimize Scheduling of Federated
//! Learning on Battery-powered Mobile Devices"* (Wang, Wei, Zhou — IPDPS
//! 2020): data-allocation scheduling for synchronous federated learning on
//! heterogeneous, thermally-throttled mobile devices.
//!
//! This facade crate re-exports every workspace crate under a stable prefix:
//!
//! * [`core`] — the paper's contribution: **Fed-LBAP** (IID) and
//!   **Fed-MinAvg** (non-IID) schedulers, plus the Proportional / Random /
//!   Equal baselines and a brute-force validator.
//! * [`profiler`] — the two-step linear-regression performance profiler.
//! * [`device`] — simulated battery-powered phones (DVFS, thermal model,
//!   big.LITTLE) calibrated to the paper's Table II testbed.
//! * [`net`] — WiFi / LTE link models for model push/pull, plus lossy
//!   links and retry policies for chaos runs.
//! * [`faults`] — deterministic, seedable fault injection (crashes, churn,
//!   outages, contention, performance drift) for resilience experiments.
//! * [`bandit`] — online client-selection policies (epsilon-greedy, UCB1,
//!   Thompson sampling) with seed-deterministic draw streams.
//! * [`data`] — synthetic MNIST-like / CIFAR-like datasets and IID /
//!   non-IID partitioners.
//! * [`nn`] — from-scratch neural-network training (LeNet, VGG6).
//! * [`fl`] — the FedAvg runtime tying everything together.
//! * [`parallel`] — scoped, deterministic fork-join maps on crossbeam
//!   threads, used by the NN kernels and the population engine.
//! * [`telemetry`] — opt-in structured event recording (scheduler
//!   decisions, thermal/battery transitions, round timelines) with
//!   deterministic JSONL serialization and a metrics registry.
//! * [`serve`] — the long-running orchestration service: supervised
//!   experiment jobs behind a snapshot store and an HTTP/JSON API
//!   (`fedsched-serve` and `jobctl` binaries).
//!
//! ## Quickstart
//!
//! ```
//! use fedsched::device::Testbed;
//! use fedsched::core::{lbap::FedLbap, CostMatrix, Scheduler};
//! use fedsched::profiler::ModelArch;
//!
//! // Three simulated phones, profiled for LeNet.
//! let testbed = Testbed::testbed_1(42);
//! let profiles = testbed.profiles(ModelArch::lenet());
//! // 60 shards of 100 samples each (6K MNIST samples).
//! let costs = CostMatrix::from_profiles(&profiles, 60, 100.0, &[0.0, 0.0, 0.0]);
//! let schedule = FedLbap::default().schedule(&costs).unwrap();
//! assert_eq!(schedule.total_shards(), 60);
//! ```

pub use fedsched_bandit as bandit;
pub use fedsched_core as core;
pub use fedsched_data as data;
pub use fedsched_device as device;
pub use fedsched_faults as faults;
pub use fedsched_fl as fl;
pub use fedsched_net as net;
pub use fedsched_nn as nn;
pub use fedsched_parallel as parallel;
pub use fedsched_profiler as profiler;
pub use fedsched_serve as serve;
pub use fedsched_telemetry as telemetry;
