//! The federated-learning runtime: FedAvg aggregation, simulated cohorts,
//! and the two execution paths the evaluation needs.
//!
//! The paper's experiments decompose cleanly into *time* and *accuracy*:
//!
//! * [`EventRoundSim`] replays a schedule against the device simulator and
//!   link models to measure wall-clock round times (Figs. 5 and 7, Table
//!   II) — no actual ML runs, so 50-round sweeps cost milliseconds. Device
//!   thermal state persists across rounds, exactly like the paper's
//!   continuously-training phones. The same round core hosts the fault
//!   model — crashes, churn, lossy links, retries, deadlines and mid-round
//!   straggler rescue — and is inert when no faults are configured. The
//!   population engine, [`HierEngine`], runs one `EventRoundSim` per
//!   cohort under a two-tier reduction; a `coordinator` engine's server
//!   tier adds a population-level control loop ([`HierEngine::coordinate`]).
//! * [`engine`] actually trains: synchronous FedAvg over `fedsched-nn`
//!   networks on partitioned synthetic data (Figs. 2, 3 and 6, Tables III
//!   and V). Clients train in parallel on scoped threads; aggregation is
//!   weighted by sample count (McMahan et al.) and deterministic.
//!
//! [`assign`] bridges scheduler output to concrete training data: IID
//! schedules slice the (device-preloaded) global dataset, non-IID schedules
//! subset each user's class-restricted local data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assign;
pub mod builder;
pub mod clock;
pub mod cohorts;
pub mod coordinator;
pub mod engine;
pub mod eventsim;
pub mod hier;
pub mod metrics;
mod resilient;
pub mod server;
pub mod spec;

pub use assign::{assignment_from_schedule_iid, assignment_from_schedule_noniid};
pub use builder::{ConfigError, RoundConfig, Selection, SimBuilder};
pub use clock::TimingReport;
pub use cohorts::{
    default_engine_threads, derive_cohort_seed, CohortReport, DEFAULT_COHORT_SIZE, THREADS_ENV,
};
pub use coordinator::{
    staleness_weight, CoordinatorReport, EngineReport, GlobalRoundOutcome, MergeRecord,
};
pub use engine::{FlOutcome, FlSetup};
pub use eventsim::{AdmissionPolicy, EventRoundSim};
pub use hier::{derive_edge_seed, edge_cohort_ranges, EdgeReport, HierEngine, HierReport};
pub use metrics::{analyze_round, cosine_similarity, DivergenceReport};
pub use resilient::{ChaosReport, RoundOutcome};
pub use server::fedavg_aggregate;
pub use spec::{BuildTarget, BuiltSim, DeviceSetSpec, JobSpec, RoundDigest, SPEC_VERSION};

// Re-exported so downstream builder call sites need only this crate.
pub use fedsched_bandit::{MaybeSeeded, PolicyKind, SelectionConfig, SelectionPolicy};
pub use fedsched_core::DeadlinePolicy;
pub use fedsched_faults::{AdversaryConfig, AdversaryPlan, AttackKind, ChurnConfig, DriftConfig};
pub use fedsched_robust::{AggregatorKind, RobustAggregator, RobustOutcome};
