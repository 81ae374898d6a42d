//! One shared, fallible construction surface for every simulator in this
//! crate.
//!
//! Historically each sim grew its own positional constructor plus a trail
//! of panicking `with_*` builders; call sites repeated the same five
//! arguments in the same order and learned about bad configuration at
//! runtime, mid-panic. [`SimBuilder`] replaces that. Its configuration
//! *is* a wire [`JobSpec`] — the serialized form is the config — plus the
//! host-side objects that have no wire form: the probe, an ad-hoc device
//! fleet, and the sequential target's pre-built injector, rescheduler and
//! priors. [`RoundConfig`] carries the knobs every path shares (workload,
//! link, payload size, seed), chainable setters write spec fields without
//! validating, and the terminal `build_*` methods validate everything at
//! once — before a recipe fleet is built — returning a typed
//! [`ConfigError`] instead of panicking.
//!
//! ```
//! use fedsched_fl::{RoundConfig, SimBuilder};
//! use fedsched_device::Testbed;
//! use fedsched_net::Link;
//! use fedsched_device::TrainingWorkload;
//!
//! let config = RoundConfig::new(TrainingWorkload::lenet(), Link::wifi_campus(), 2.5e6, 7);
//! let sim = SimBuilder::new(Testbed::testbed_1(7).devices().to_vec(), config)
//!     .build_event_sim()
//!     .unwrap();
//! # let _ = sim;
//! ```

use std::fmt;

use fedsched_bandit::SelectionConfig;
use fedsched_core::{DeadlinePolicy, Scheduler};
use fedsched_device::{Device, TrainingWorkload};
use fedsched_faults::{AdversaryConfig, ChurnConfig, FaultConfig, FaultInjector};
use fedsched_net::{Link, RetryPolicy};
use fedsched_profiler::LinearProfile;
use fedsched_robust::AggregatorKind;
use fedsched_telemetry::Probe;

use crate::cohorts::{default_engine_threads, DEFAULT_COHORT_SIZE};
use crate::eventsim::{AdmissionPolicy, EventRoundSim};
use crate::hier::HierEngine;
use crate::spec::{BuildTarget, DeviceSetSpec, JobSpec};

/// Most worker threads a population engine may ask for. An advance starts
/// `min(threads, cohorts)` OS threads, so one uncapped spec could exhaust
/// the host's thread limit; the default pool
/// ([`fedsched_parallel::recommended_threads`]) stops at 16.
pub const MAX_ENGINE_THREADS: usize = 256;

/// Why a simulator could not be built.
///
/// Every variant has a stable machine-readable [`cause_code`] (snake_case,
/// never reworded) so scripts can branch on failures without parsing the
/// human-oriented `Display` text.
///
/// [`cause_code`]: ConfigError::cause_code
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// Cohort size of zero devices.
    ZeroCohortSize,
    /// Worker pool of zero threads.
    ZeroThreads,
    /// Every user in a federated training setup is idle.
    EmptyAssignment,
    /// Malformed deadline policy; the payload is the violated rule.
    InvalidDeadline(&'static str),
    /// Rescue SoC floor outside `[0, 1]`.
    InvalidSocFloor(f64),
    /// Malformed retry policy; the payload is the violated rule.
    InvalidRetry(&'static str),
    /// Malformed buffered-async options; the payload is the violated rule.
    InvalidAsync(&'static str),
    /// A knob that the requested build target does not support; the
    /// payload names the knob.
    UnsupportedOption(&'static str),
    /// A per-device input whose length does not match the cohort.
    ArityMismatch {
        /// What was mis-sized (e.g. `"priors"`, `"fault plan"`).
        what: &'static str,
        /// The cohort size.
        expected: usize,
        /// The length actually supplied.
        got: usize,
    },
    /// Rescheduling interval of zero rounds.
    ZeroRescheduleInterval,
    /// Malformed robust-aggregator kind; the payload is the violated rule.
    InvalidAggregator(&'static str),
    /// Malformed adversary configuration; the payload is the violated rule.
    InvalidAdversary(&'static str),
    /// Malformed churn process or admission policy combination; the
    /// payload is the violated rule.
    InvalidChurn(&'static str),
    /// Malformed hierarchical topology (edge/cohort geometry); the
    /// payload is the violated rule.
    InvalidTopology(&'static str),
    /// A configuration that cannot be expressed as a wire
    /// [`JobSpec`] — it carries host-side objects
    /// (custom injectors, reschedulers, priors, ad-hoc device fleets) with
    /// no serial form. The payload names the offending knob.
    NotSerializable(&'static str),
    /// A wire [`JobSpec`] document that is
    /// malformed: bad JSON shape, an unknown field, or an unrecognized
    /// tag value. The payload describes the problem.
    InvalidSpec(String),
    /// Malformed online client-selection configuration (bad policy
    /// parameter, zero cohort) or a knob combination selection cannot
    /// coexist with; the payload is the violated rule.
    InvalidSelection(&'static str),
}

impl ConfigError {
    /// Stable machine-readable cause tag.
    ///
    /// The strings are `pub const`s in [`fedsched_core::causes`] — one
    /// exhaustive table shared with the wire layer, so the code a script
    /// matches in-process is byte-for-byte the code `fedsched-serve`
    /// returns in HTTP error bodies.
    pub fn cause_code(&self) -> &'static str {
        use fedsched_core::causes;
        match self {
            ConfigError::ZeroCohortSize => causes::ZERO_COHORT_SIZE,
            ConfigError::ZeroThreads => causes::ZERO_THREADS,
            ConfigError::EmptyAssignment => causes::EMPTY_ASSIGNMENT,
            ConfigError::InvalidDeadline(_) => causes::INVALID_DEADLINE,
            ConfigError::InvalidSocFloor(_) => causes::INVALID_SOC_FLOOR,
            ConfigError::InvalidRetry(_) => causes::INVALID_RETRY,
            ConfigError::InvalidAsync(_) => causes::INVALID_ASYNC,
            ConfigError::UnsupportedOption(_) => causes::UNSUPPORTED_OPTION,
            ConfigError::ArityMismatch { .. } => causes::ARITY_MISMATCH,
            ConfigError::ZeroRescheduleInterval => causes::ZERO_RESCHEDULE_INTERVAL,
            ConfigError::InvalidAggregator(_) => causes::INVALID_AGGREGATOR,
            ConfigError::InvalidAdversary(_) => causes::INVALID_ADVERSARY,
            ConfigError::InvalidChurn(_) => causes::INVALID_CHURN,
            ConfigError::InvalidTopology(_) => causes::INVALID_TOPOLOGY,
            ConfigError::NotSerializable(_) => causes::NOT_SERIALIZABLE,
            ConfigError::InvalidSpec(_) => causes::INVALID_SPEC,
            ConfigError::InvalidSelection(_) => causes::INVALID_SELECTION,
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroCohortSize => write!(f, "cohort size must be positive"),
            ConfigError::ZeroThreads => write!(f, "thread count must be positive"),
            ConfigError::EmptyAssignment => {
                write!(f, "federated run needs at least one user with data")
            }
            ConfigError::InvalidDeadline(rule) => write!(f, "invalid deadline policy: {rule}"),
            ConfigError::InvalidSocFloor(floor) => {
                write!(f, "rescue SoC floor must be in [0, 1], got {floor}")
            }
            ConfigError::InvalidRetry(rule) => write!(f, "invalid retry policy: {rule}"),
            ConfigError::InvalidAsync(rule) => write!(f, "invalid async options: {rule}"),
            ConfigError::UnsupportedOption(what) => {
                write!(f, "{what} is not supported by this build target")
            }
            ConfigError::ArityMismatch {
                what,
                expected,
                got,
            } => write!(f, "{what} sized for {got} devices, cohort has {expected}"),
            ConfigError::ZeroRescheduleInterval => {
                write!(f, "rescheduling interval must be positive")
            }
            ConfigError::InvalidAggregator(rule) => {
                write!(f, "invalid robust aggregator: {rule}")
            }
            ConfigError::InvalidAdversary(rule) => {
                write!(f, "invalid adversary config: {rule}")
            }
            ConfigError::InvalidChurn(rule) => {
                write!(f, "invalid churn config: {rule}")
            }
            ConfigError::InvalidTopology(rule) => {
                write!(f, "invalid hierarchical topology: {rule}")
            }
            ConfigError::NotSerializable(what) => {
                write!(f, "{what} has no wire form and cannot appear in a job spec")
            }
            ConfigError::InvalidSpec(problem) => {
                write!(f, "invalid job spec: {problem}")
            }
            ConfigError::InvalidSelection(rule) => {
                write!(f, "invalid selection config: {rule}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// The four knobs every round-level simulator shares: what each device
/// computes, how bytes move, how many bytes move, and the master seed.
#[derive(Debug, Clone, Copy)]
pub struct RoundConfig {
    /// Device-side training workload (per-sample cost model).
    pub workload: TrainingWorkload,
    /// Uplink/downlink model.
    pub link: Link,
    /// Transfer payload per direction, bytes.
    pub model_bytes: f64,
    /// Master RNG seed; everything stochastic derives from it.
    pub seed: u64,
}

impl RoundConfig {
    /// Bundle the shared simulator knobs.
    pub fn new(workload: TrainingWorkload, link: Link, model_bytes: f64, seed: u64) -> Self {
        RoundConfig {
            workload,
            link,
            model_bytes,
            seed,
        }
    }
}

/// Online client-selection choice recorded by [`SimBuilder::selection`].
///
/// [`Selection::Off`] — the default — schedules every device every round,
/// exactly today's behaviour; [`Selection::Bandit`] lets a bandit policy
/// pick a `k`-device cohort online before the inner scheduler splits
/// shards, feeding observed round outcomes back as rewards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Selection {
    /// No online selection: the full fleet is scheduled each round.
    Off,
    /// Bandit-driven cohort selection with the given configuration.
    Bandit(SelectionConfig),
}

/// One builder for every simulator: the sequential [`EventRoundSim`] and
/// the population engine [`HierEngine`] built on it, as a `hier` topology
/// or a default-topology `coordinator`.
///
/// A builder is a wire [`JobSpec`] plus host-side extras. Setters are
/// infallible and write spec fields (normalised the way the wire is:
/// `deadline(DeadlinePolicy::Off)` and `selection(Selection::Off)` store
/// nothing); each terminal `build_*` validates the full configuration
/// against its target and rejects knobs the target cannot honour with
/// [`ConfigError::UnsupportedOption`] — a cohort size on the sequential
/// sim is an error, not a silent no-op. Validation needs only the fleet
/// size, so a bad spec fails before its recipe fleet is built.
///
/// Which knobs each target honours (mirrors the README migration table):
///
/// | Knob | `event_sim` | `coordinator` | `hier` |
/// |------|:-----------:|:-------------:|:------:|
/// | [`probe`](SimBuilder::probe) | ✓ | ✓ | ✓ |
/// | [`deadline`](SimBuilder::deadline) | ✓ | ✓¹ | ✓ |
/// | [`retry`](SimBuilder::retry), [`no_rescue`](SimBuilder::no_rescue), [`rescue_soc_floor`](SimBuilder::rescue_soc_floor), [`faults`](SimBuilder::faults) | ✓ | ✓ | ✓ |
/// | [`injector`](SimBuilder::injector), [`rescheduler`](SimBuilder::rescheduler), [`priors`](SimBuilder::priors) ² | ✓ | — | — |
/// | [`aggregator`](SimBuilder::aggregator), [`adversary`](SimBuilder::adversary) | ✓ | ✓ | ✓ |
/// | [`cohort_size`](SimBuilder::cohort_size), [`threads`](SimBuilder::threads) | — | ✓ | ✓ |
/// | [`churn`](SimBuilder::churn), [`admission`](SimBuilder::admission) | ✓ | ✓ | ✓ |
/// | [`selection`](SimBuilder::selection) | ✓ | ✓ | ✓ |
/// | [`buffered_async`](SimBuilder::buffered_async) | — | ✓¹ | — |
/// | [`edges`](SimBuilder::edges), [`edge_link`](SimBuilder::edge_link), [`edge_aggregator`](SimBuilder::edge_aggregator), [`server_aggregator`](SimBuilder::server_aggregator) | — | — | ✓ |
///
/// ¹ a coordinator takes a deadline *or* `buffered_async`, not both.
/// ² ad-hoc injected objects; accepted in-process but rejected by
///   [`SimBuilder::to_spec`] with `"not_serializable"` — they have no
///   wire form.
///
/// Every “—” cell is a typed [`ConfigError`], never a silent drop.
pub struct SimBuilder {
    /// Every wire knob. The `build_*` method stamps its target into
    /// `spec.target`, which the population engine reads; `spec.devices`
    /// is unused while `devices` overrides it.
    spec: JobSpec,
    /// The ad-hoc fleet handed to [`SimBuilder::new`]; it has no wire form.
    devices: Option<Vec<Device>>,
    probe: Probe,
    extras: SequentialExtras,
}

/// Host-side objects only the sequential target takes: each is sized for
/// one fleet and none has a wire form.
#[derive(Default)]
pub(crate) struct SequentialExtras {
    /// A pre-built fault injector; overrides the spec's `faults`.
    pub(crate) injector: Option<FaultInjector>,
    pub(crate) rescheduler: Option<(Box<dyn Scheduler>, usize)>,
    pub(crate) priors: Option<Vec<LinearProfile>>,
}

impl SimBuilder {
    /// Start building over `devices` with the shared `config`.
    pub fn new(devices: Vec<Device>, config: RoundConfig) -> Self {
        let RoundConfig {
            workload,
            link,
            model_bytes,
            seed,
        } = config;
        // `devices` overrides this recipe, which is never built.
        let recipe = DeviceSetSpec::Testbed { preset: 1, seed };
        let spec = JobSpec::new(
            BuildTarget::EventSim,
            recipe,
            workload,
            link,
            model_bytes,
            seed,
        );
        SimBuilder {
            devices: Some(devices),
            ..SimBuilder::from_spec(&spec)
        }
    }

    /// Start building from a wire spec (minus its target, which the
    /// `build_*` method chosen supplies, and the probe, a host-side
    /// attachment — see [`JobSpec::build`]). The fleet recipe is kept,
    /// so [`SimBuilder::to_spec`] round-trips.
    pub fn from_spec(spec: &JobSpec) -> Self {
        SimBuilder {
            spec: spec.clone(),
            devices: None,
            probe: Probe::disabled(),
            extras: SequentialExtras::default(),
        }
    }

    /// Serialize this builder's configuration as a wire spec targeting
    /// `target`.
    ///
    /// Fails with [`ConfigError::NotSerializable`] when the builder
    /// carries host-side objects with no wire form: an ad-hoc
    /// `Vec<Device>` fleet (only [`DeviceSetSpec`] recipes serialize), a
    /// pre-built [`injector`](SimBuilder::injector), a
    /// [`rescheduler`](SimBuilder::rescheduler) closure, or offline
    /// [`priors`](SimBuilder::priors). The probe is intentionally *not*
    /// part of the spec — telemetry attachment is the host's business.
    pub fn to_spec(&self, target: BuildTarget) -> Result<JobSpec, ConfigError> {
        let host_side = [
            ("ad-hoc device fleet", self.devices.is_some()),
            ("injector", self.extras.injector.is_some()),
            ("rescheduler", self.extras.rescheduler.is_some()),
            ("priors", self.extras.priors.is_some()),
        ];
        if let Some(&(what, _)) = host_side.iter().find(|(_, set)| *set) {
            return Err(ConfigError::NotSerializable(what));
        }
        Ok(JobSpec {
            target,
            ..self.spec.clone()
        })
    }

    /// Attach a telemetry probe. Valid for every build target.
    pub fn probe(mut self, probe: Probe) -> Self {
        self.probe = probe;
        self
    }

    /// Set the per-round deadline policy. `Fixed` applies a constant
    /// cutoff; `MeanFactor` and `Quantile` re-resolve the cutoff **every
    /// round** from side-effect-free predicted per-user times on the
    /// current schedule and thermal state, so the deadline tightens or
    /// relaxes as the cohort drifts. On [`build_event_sim`] adaptive
    /// policies resolve against the cohort's own predicted times; on
    /// [`build_hier`] against each cohort separately; on
    /// [`build_coordinator`] against the pooled population.
    ///
    /// [`build_event_sim`]: SimBuilder::build_event_sim
    /// [`build_hier`]: SimBuilder::build_hier
    /// [`build_coordinator`]: SimBuilder::build_coordinator
    pub fn deadline(mut self, policy: DeadlinePolicy) -> Self {
        self.spec.deadline = (!policy.is_off()).then_some(policy);
        self
    }

    /// Set the transfer retry policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.spec.retry = Some(retry);
        self
    }

    /// Disable mid-round straggler rescue.
    pub fn no_rescue(mut self) -> Self {
        self.spec.no_rescue = true;
        self
    }

    /// Energy-aware rescue: never reassign orphaned shards to a survivor
    /// whose battery state of charge is below `floor` (in `[0, 1]`).
    ///
    /// Rescue work is *extra* drain a device's owner never signed up for;
    /// piling it onto a nearly-empty phone trades one lost allocation this
    /// round for a depleted (hence permanently lost) device in the next.
    /// The floor is checked against each survivor's SoC at rescue time —
    /// after this round's own training drain. The default floor of `0.0`
    /// accepts every survivor.
    pub fn rescue_soc_floor(mut self, floor: f64) -> Self {
        self.spec.rescue_soc_floor = floor;
        self
    }

    /// Inject faults drawn from `config`, planned for `planned_rounds`.
    /// On the population engines each cohort derives its own injector.
    pub fn faults(mut self, config: FaultConfig, planned_rounds: usize) -> Self {
        self.spec.faults = Some((config, planned_rounds));
        self
    }

    /// Use a pre-built fault injector (event_sim target only). Overrides
    /// [`faults`](SimBuilder::faults); lets callers decouple the fault-plan
    /// seed from the simulation seed.
    pub fn injector(mut self, injector: FaultInjector) -> Self {
        self.extras.injector = Some(injector);
        self
    }

    /// Re-plan the shard allocation every `every` rounds (event_sim only),
    /// using online profiles fitted to observed (faulted) round behaviour.
    pub fn rescheduler(mut self, scheduler: Box<dyn Scheduler>, every: usize) -> Self {
        self.extras.rescheduler = Some((scheduler, every));
        self
    }

    /// Warm-start the per-device online profilers from offline priors
    /// (event_sim only), so the first reschedule has an estimate even for
    /// devices that have not been observed yet.
    pub fn priors(mut self, priors: Vec<LinearProfile>) -> Self {
        self.extras.priors = Some(priors);
        self
    }

    /// Devices per cohort (coordinator and hier only).
    pub fn cohort_size(mut self, size: usize) -> Self {
        self.spec.cohort_size = Some(size);
        self
    }

    /// Worker threads (coordinator and hier only), at most
    /// [`MAX_ENGINE_THREADS`]. Never changes results.
    pub fn threads(mut self, threads: usize) -> Self {
        self.spec.threads = Some(threads);
        self
    }

    /// Select the robust aggregation rule the server scores deliveries
    /// with. [`AggregatorKind::FedAvg`] — the default — keeps today's
    /// behaviour bit for bit; other kinds only act while an adversary is
    /// attached.
    ///
    /// Tier naming: unqualified `aggregator` always means the **device
    /// tier** — the rule applied to per-device deliveries — on every
    /// target, including [`build_hier`](SimBuilder::build_hier). The
    /// two-tier hierarchy layers
    /// [`edge_aggregator`](SimBuilder::edge_aggregator) and
    /// [`server_aggregator`](SimBuilder::server_aggregator) *on top* for
    /// its edge and root tiers; there is no unqualified server-tier
    /// alias, so a flat config ported to `build_hier` keeps its meaning.
    pub fn aggregator(mut self, kind: AggregatorKind) -> Self {
        self.spec.aggregator = Some(kind);
        self
    }

    /// Attach an adversary model planned for `planned_rounds`. On the
    /// population engines each cohort derives its own
    /// [`AdversaryPlan`](fedsched_faults::AdversaryPlan) from the cohort
    /// seed, mirroring per-cohort fault injectors.
    pub fn adversary(mut self, config: AdversaryConfig, planned_rounds: usize) -> Self {
        self.spec.adversary = Some((config, planned_rounds));
        self
    }

    /// Continuous mid-round churn: devices arrive and depart inside
    /// rounds at seed-derived exponential times. Requires a fault source
    /// ([`faults`](SimBuilder::faults)) because churn timelines ride on
    /// the fault plan.
    ///
    /// ```
    /// use fedsched_device::{Testbed, TrainingWorkload};
    /// use fedsched_faults::{ChurnConfig, FaultConfig};
    /// use fedsched_fl::{RoundConfig, SimBuilder};
    /// use fedsched_net::Link;
    ///
    /// let config = RoundConfig::new(TrainingWorkload::lenet(), Link::wifi_campus(), 2.5e6, 7);
    /// let engine = SimBuilder::new(Testbed::testbed_1(7).devices().to_vec(), config)
    ///     .faults(FaultConfig::none(), 4)
    ///     .churn(ChurnConfig::symmetric(0.05, 60.0)) // events/s per device, horizon
    ///     .build_hier()?;
    /// # let _ = engine;
    /// # Ok::<(), fedsched_fl::ConfigError>(())
    /// ```
    pub fn churn(mut self, config: ChurnConfig) -> Self {
        self.spec.churn = Some(config);
        self
    }

    /// What to do with devices that arrive mid-round (requires
    /// [`churn`](SimBuilder::churn)):
    /// [`AdmissionPolicy::Reject`] logs and drops,
    /// [`AdmissionPolicy::NextRound`] parks arrivals for the following
    /// round, and [`AdmissionPolicy::MidRoundFill`] additionally grants
    /// the earliest arrival whatever shards rescue could not place.
    ///
    /// ```
    /// use fedsched_device::{Testbed, TrainingWorkload};
    /// use fedsched_faults::{ChurnConfig, FaultConfig};
    /// use fedsched_fl::{AdmissionPolicy, RoundConfig, SimBuilder};
    /// use fedsched_net::Link;
    ///
    /// let config = RoundConfig::new(TrainingWorkload::lenet(), Link::wifi_campus(), 2.5e6, 7);
    /// let sim = SimBuilder::new(Testbed::testbed_1(7).devices().to_vec(), config)
    ///     .faults(FaultConfig::none(), 4)
    ///     .churn(ChurnConfig::symmetric(0.05, 60.0))
    ///     .admission(AdmissionPolicy::MidRoundFill)
    ///     .build_event_sim()?;
    /// # let _ = sim;
    /// # Ok::<(), fedsched_fl::ConfigError>(())
    /// ```
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.spec.admission = Some(policy);
        self
    }

    /// Online bandit-driven client selection. Each round the
    /// policy picks a `k`-device cohort per scheduling domain among
    /// devices not known gone, the inner scheduler splits the full shard
    /// load among the picked devices, and observed round outcomes
    /// (throughput discounted by battery drain) feed back as arm rewards.
    /// [`Selection::Off`] — the default — keeps today's
    /// schedule-everyone behaviour bit for bit.
    ///
    /// All selection randomness comes from a dedicated salted
    /// [`selection_stream`](fedsched_bandit::selection_stream) keyed by
    /// `(selection seed, round)`, so runs replay byte-identically and
    /// never perturb the main RNG. The selection seed is the config's
    /// pinned one, else the sim's (each cohort's, on the population
    /// engines).
    ///
    /// Selection re-plans the shard split every round itself, so it
    /// cannot be combined with [`rescheduler`](SimBuilder::rescheduler);
    /// that combination is a typed [`ConfigError::InvalidSelection`].
    ///
    /// ```
    /// use fedsched_bandit::{PolicyKind, SelectionConfig};
    /// use fedsched_device::{Testbed, TrainingWorkload};
    /// use fedsched_fl::{RoundConfig, Selection, SimBuilder};
    /// use fedsched_net::Link;
    ///
    /// let config = RoundConfig::new(TrainingWorkload::lenet(), Link::wifi_campus(), 2.5e6, 7);
    /// let sim = SimBuilder::new(Testbed::testbed_1(7).devices().to_vec(), config)
    ///     .selection(Selection::Bandit(SelectionConfig::new(
    ///         PolicyKind::Ucb1 { c: 1.0 },
    ///         2,
    ///     )))
    ///     .build_event_sim()?;
    /// # let _ = sim;
    /// # Ok::<(), fedsched_fl::ConfigError>(())
    /// ```
    pub fn selection(mut self, selection: Selection) -> Self {
        self.spec.selection = match selection {
            Selection::Off => None,
            Selection::Bandit(config) => Some(config),
        };
        self
    }

    /// Number of edge aggregators in a two-tier topology
    /// ([`build_hier`](SimBuilder::build_hier) only). Cohorts are split
    /// across edges in balanced contiguous spans; defaults to one edge
    /// per cohort, the parity topology whose server fold is the flat
    /// cohort merge.
    pub fn edges(mut self, edges: usize) -> Self {
        self.spec.edges = Some(edges);
        self
    }

    /// Edge→server backhaul link ([`build_hier`](SimBuilder::build_hier)
    /// only): each edge's round makespan gains one sampled transfer of
    /// the model payload, drawn from the edge's own RNG stream.
    pub fn edge_link(mut self, link: Link) -> Self {
        self.spec.edge_link = Some(link);
        self
    }

    /// Robust aggregation rule applied at the *edge* tier over per-cohort
    /// proxy updates ([`build_hier`](SimBuilder::build_hier) only).
    pub fn edge_aggregator(mut self, kind: AggregatorKind) -> Self {
        self.spec.edge_aggregator = Some(kind);
        self
    }

    /// Robust aggregation rule applied at the *server* tier over
    /// per-edge proxy updates ([`build_hier`](SimBuilder::build_hier)
    /// only).
    pub fn server_aggregator(mut self, kind: AggregatorKind) -> Self {
        self.spec.server_aggregator = Some(kind);
        self
    }

    /// Coordinate cohorts through a buffered asynchronous aggregator
    /// (coordinator only): merge as soon as `buffer` cohort updates are
    /// queued, discounting each by FedAsync staleness weight with base
    /// rate `eta`.
    pub fn buffered_async(mut self, buffer: usize, eta: f64) -> Self {
        self.spec.buffered_async = Some((buffer, eta));
        self
    }

    /// Devices the build will simulate, counted without building a
    /// recipe fleet.
    fn fleet_size(&self) -> Result<usize, ConfigError> {
        match &self.devices {
            Some(devices) => Ok(devices.len()),
            None => self.spec.devices.n_devices(),
        }
    }

    /// The fleet itself: the ad-hoc one, else the recipe's. Called only
    /// once every check has passed.
    fn fleet(&mut self) -> Result<Vec<Device>, ConfigError> {
        match self.devices.take() {
            Some(devices) => Ok(devices),
            None => self.spec.devices.build(),
        }
    }

    /// Reject a set knob `target` cannot honour — dropping it silently
    /// would fake the experiment. One row per “—” cell of the table
    /// above, in checking order: the topology knobs only `hier` takes;
    /// the sequential target's host-side objects, each sized for one
    /// fleet and one set of online profiles where the population engines
    /// derive a plan and profiles per cohort; then the cohort and async
    /// knobs.
    fn check_target(&self, target: BuildTarget) -> Result<(), ConfigError> {
        use BuildTarget::{Coordinator, EventSim, Hier};
        let (s, x) = (&self.spec, &self.extras);
        let knobs: [(&'static str, bool, &[BuildTarget]); 10] = [
            ("edges", s.edges.is_some(), &[Hier]),
            ("edge_link", s.edge_link.is_some(), &[Hier]),
            ("edge_aggregator", s.edge_aggregator.is_some(), &[Hier]),
            ("server_aggregator", s.server_aggregator.is_some(), &[Hier]),
            ("injector", x.injector.is_some(), &[EventSim]),
            ("rescheduler", x.rescheduler.is_some(), &[EventSim]),
            ("priors", x.priors.is_some(), &[EventSim]),
            ("cohort_size", s.cohort_size.is_some(), &[Coordinator, Hier]),
            ("threads", s.threads.is_some(), &[Coordinator, Hier]),
            ("buffered_async", s.buffered_async.is_some(), &[Coordinator]),
        ];
        match knobs
            .iter()
            .find(|(_, set, honoured)| *set && !honoured.contains(&target))
        {
            Some(&(knob, ..)) => Err(ConfigError::UnsupportedOption(knob)),
            None => Ok(()),
        }
    }

    /// Run every check the `build_*` method for `target` runs, in its
    /// order, before any fleet or simulator exists: `Ok` exactly when
    /// that build succeeds. The order is the fleet size, the target
    /// table, then the target's own value checks — the coordinator checks
    /// its async rules and global deadline, then the engine's — and last
    /// the fault config, so a knob set that fails another check keeps
    /// that error.
    pub(crate) fn check(&self, target: BuildTarget) -> Result<(), ConfigError> {
        let n = self.fleet_size()?;
        self.check_target(target)?;
        match target {
            BuildTarget::EventSim => self.check_sequential(n)?,
            BuildTarget::Coordinator => {
                self.check_coordination()?;
                self.check_engine(n)?;
            }
            BuildTarget::Hier => self.check_engine(n)?,
        }
        if let Some((config, _)) = &self.spec.faults {
            config
                .check()
                .map_err(|rule| ConfigError::InvalidSpec(format!("faults.config: {rule}")))?;
        }
        Ok(())
    }

    /// Validate every knob the round core shares across targets, in a
    /// fixed order: churn and admission, deadline, retry, rescue floor,
    /// aggregator, adversary, selection.
    fn check_core(&self) -> Result<(), ConfigError> {
        let s = &self.spec;
        if s.admission.is_some() && s.churn.is_none() {
            return Err(ConfigError::InvalidChurn(
                "admission requires a churn process",
            ));
        }
        if let Some(cfg) = s.churn {
            cfg.check().map_err(ConfigError::InvalidChurn)?;
            // Churn timelines ride on the fault plan: the round core
            // folds the process into each injector's fault config.
            if s.faults.is_none() {
                return Err(ConfigError::InvalidChurn(
                    "churn requires a fault source (faults(..))",
                ));
            }
        }
        if let Some(policy) = s.deadline {
            policy.check().map_err(ConfigError::InvalidDeadline)?;
        }
        if let Some(retry) = &s.retry {
            retry.check().map_err(ConfigError::InvalidRetry)?;
        }
        let floor = s.rescue_soc_floor;
        if !((0.0..=1.0).contains(&floor) && floor.is_finite()) {
            return Err(ConfigError::InvalidSocFloor(floor));
        }
        s.aggregator
            .unwrap_or_default()
            .validate()
            .map_err(ConfigError::InvalidAggregator)?;
        if let Some((config, _)) = &s.adversary {
            config.check().map_err(ConfigError::InvalidAdversary)?;
        }
        // Selection owns the per-round shard split, so a periodic
        // rescheduler alongside it is a contradiction, not a composition.
        if let Some(config) = &s.selection {
            config.validate().map_err(ConfigError::InvalidSelection)?;
            if self.extras.rescheduler.is_some() {
                return Err(ConfigError::InvalidSelection(
                    "selection re-plans the split every round; drop the rescheduler",
                ));
            }
        }
        Ok(())
    }

    /// The sequential target's checks over `n` devices: the round core,
    /// then the host-side extras sized for the fleet.
    fn check_sequential(&self, n: usize) -> Result<(), ConfigError> {
        self.check_core()?;
        if let Some((_, 0)) = &self.extras.rescheduler {
            return Err(ConfigError::ZeroRescheduleInterval);
        }
        let sized = |what, got| {
            if got == n {
                Ok(())
            } else {
                Err(ConfigError::ArityMismatch {
                    what,
                    expected: n,
                    got,
                })
            }
        };
        if let Some(priors) = &self.extras.priors {
            sized("priors", priors.len())?;
        }
        if let Some(injector) = &self.extras.injector {
            sized("fault plan", injector.n_devices())?;
        }
        Ok(())
    }

    /// The coordinator's own checks: the buffered-async options, then
    /// the global deadline, which needs barrier mode.
    fn check_coordination(&self) -> Result<(), ConfigError> {
        match self.spec.buffered_async {
            Some((0, _)) => {
                return Err(ConfigError::InvalidAsync(
                    "buffer must hold at least one update",
                ))
            }
            Some((_, eta)) if !(eta > 0.0 && eta.is_finite()) => {
                return Err(ConfigError::InvalidAsync("eta must be positive and finite"))
            }
            _ => {}
        }
        let policy = self.spec.deadline.unwrap_or(DeadlinePolicy::Off);
        if !policy.is_off() && self.spec.buffered_async.is_some() {
            return Err(ConfigError::InvalidAsync(
                "global deadline policies require barrier mode",
            ));
        }
        policy.check().map_err(ConfigError::InvalidDeadline)
    }

    /// The population engine's checks over `n` devices: the tier
    /// aggregators and edge count, the round core, then the cohort
    /// geometry.
    fn check_engine(&self, n: usize) -> Result<(), ConfigError> {
        let s = &self.spec;
        for kind in [s.edge_aggregator, s.server_aggregator] {
            kind.unwrap_or_default()
                .validate()
                .map_err(ConfigError::InvalidAggregator)?;
        }
        if s.edges == Some(0) {
            return Err(ConfigError::InvalidTopology(
                "hierarchy needs at least one edge aggregator",
            ));
        }
        self.check_core()?;
        let cohort_size = s.cohort_size.unwrap_or(DEFAULT_COHORT_SIZE);
        if cohort_size == 0 {
            return Err(ConfigError::ZeroCohortSize);
        }
        match s.threads {
            Some(0) => return Err(ConfigError::ZeroThreads),
            Some(threads) if threads > MAX_ENGINE_THREADS => {
                return Err(ConfigError::InvalidSpec(format!(
                    "threads {threads} exceeds the limit of {MAX_ENGINE_THREADS}"
                )))
            }
            _ => {}
        }
        if s.edges.is_some_and(|edges| edges > n.div_ceil(cohort_size)) {
            return Err(ConfigError::InvalidTopology(
                "more edge aggregators than cohorts",
            ));
        }
        Ok(())
    }

    /// Build the sequential round engine, [`EventRoundSim`]: every fault,
    /// deadline, rescue, rescheduler, priors, adversary, selection and
    /// churn knob is honoured. With no fault source configured the
    /// injector is quiet and the fault machinery is inert.
    pub fn build_event_sim(mut self) -> Result<EventRoundSim, ConfigError> {
        self.check(BuildTarget::EventSim)?;
        let devices = self.fleet()?;
        let seed = self.spec.seed;
        Ok(EventRoundSim::from_spec(
            &self.spec,
            devices,
            seed,
            self.probe,
            self.extras,
        ))
    }

    /// Build a default-topology [`HierEngine`] whose server tier runs a
    /// cross-cohort control loop ([`HierEngine::coordinate`]). The deadline
    /// policy resolves against the *pooled population* predictions (one
    /// global straggler cutoff per round) in barrier mode, or is rejected
    /// in buffered-async mode where no global barrier exists.
    pub fn build_coordinator(self) -> Result<HierEngine, ConfigError> {
        self.engine(BuildTarget::Coordinator)
    }

    /// Build the population engine, [`HierEngine`]: one [`EventRoundSim`]
    /// per cohort, each with its own fault plan derived from the cohort
    /// seed, under a two-tier reduction — edge aggregators reduce balanced
    /// contiguous cohort spans, the server reduces the edge aggregates.
    /// The cohorts honour every round-core knob (faults, deadlines, churn,
    /// selection; adaptive deadlines resolve *per cohort* — use
    /// [`build_coordinator`](SimBuilder::build_coordinator) for one
    /// population-pooled deadline); topology knobs add on top. With the
    /// defaults — one edge per cohort, no backhaul link, FedAvg at both
    /// tiers — the tiers emit nothing, and a single cohort replays the
    /// sequential [`EventRoundSim`] byte for byte.
    pub fn build_hier(self) -> Result<HierEngine, ConfigError> {
        self.engine(BuildTarget::Hier)
    }

    /// Check the configuration for `target`, stamp the target into the
    /// spec, and build the population engine over it.
    fn engine(mut self, target: BuildTarget) -> Result<HierEngine, ConfigError> {
        self.check(target)?;
        self.spec.target = target;
        let cohort_size = self.spec.cohort_size.unwrap_or(DEFAULT_COHORT_SIZE);
        let threads = self.spec.threads.unwrap_or_else(default_engine_threads);
        // Cohort fault plans always carry their cohort seed, so even a
        // fault-free cohort's draw streams follow the cohort geometry.
        self.spec
            .faults
            .get_or_insert_with(|| (FaultConfig::none(), 0));
        let devices = self.fleet()?;
        let edges = self
            .spec
            .edges
            .unwrap_or_else(|| devices.len().div_ceil(cohort_size));
        Ok(HierEngine::from_parts(
            devices,
            self.spec,
            self.probe,
            cohort_size,
            threads,
            edges,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsched_core::Schedule;
    use fedsched_device::Testbed;

    fn config(seed: u64) -> RoundConfig {
        RoundConfig::new(TrainingWorkload::lenet(), Link::wifi_campus(), 2.5e6, seed)
    }

    fn devices(seed: u64) -> Vec<Device> {
        Testbed::testbed_1(seed).devices().to_vec()
    }

    fn schedule() -> Schedule {
        Schedule::new(vec![10, 10, 10], 100.0)
    }

    #[test]
    fn builder_sim_is_deterministic_per_seed() {
        let mut a = SimBuilder::new(devices(7), config(7))
            .build_event_sim()
            .unwrap();
        let mut b = SimBuilder::new(devices(7), config(7))
            .build_event_sim()
            .unwrap();
        assert_eq!(a.run(&schedule(), 3), b.run(&schedule(), 3));
    }

    #[test]
    fn builder_event_sim_defaults_to_quiet_injector() {
        let mut quiet = SimBuilder::new(devices(9), config(9))
            .build_event_sim()
            .unwrap();
        let report = quiet.run(&schedule(), 3);
        assert!(report
            .rounds
            .iter()
            .all(|r| r.lost_shards == 0 && r.completed == 30 && r.coverage == 1.0));
        // An explicit fault config with nothing in it is the same run.
        let mut none = SimBuilder::new(devices(9), config(9))
            .faults(FaultConfig::none(), 3)
            .build_event_sim()
            .unwrap();
        assert_eq!(none.run(&schedule(), 3), report);
    }

    #[test]
    fn unsupported_knobs_are_rejected_not_dropped() {
        use fedsched_core::FedLbap;
        use fedsched_profiler::LinearProfile;
        use BuildTarget::{Coordinator, EventSim, Hier};
        type Knob = fn(SimBuilder) -> SimBuilder;
        // Each restricted knob alone, with the targets the rustdoc table
        // says honour it; every other cell is a "—".
        let knobs: [(&str, Knob, &[BuildTarget]); 10] = [
            (
                "injector",
                |b| b.injector(FaultInjector::quiet(3)),
                &[EventSim],
            ),
            (
                "rescheduler",
                |b| b.rescheduler(Box::new(FedLbap), 2),
                &[EventSim],
            ),
            (
                "priors",
                |b| b.priors(vec![LinearProfile::new(1.0, 0.01); 3]),
                &[EventSim],
            ),
            ("cohort_size", |b| b.cohort_size(4), &[Coordinator, Hier]),
            ("threads", |b| b.threads(2), &[Coordinator, Hier]),
            (
                "buffered_async",
                |b| b.buffered_async(2, 0.5),
                &[Coordinator],
            ),
            ("edges", |b| b.edges(1), &[Hier]),
            ("edge_link", |b| b.edge_link(Link::lte_tmobile()), &[Hier]),
            (
                "edge_aggregator",
                |b| b.edge_aggregator(AggregatorKind::Median),
                &[Hier],
            ),
            (
                "server_aggregator",
                |b| b.server_aggregator(AggregatorKind::Median),
                &[Hier],
            ),
        ];
        let mut dashes = 0;
        for (knob, set, honoured) in knobs {
            for target in BuildTarget::all() {
                let builder = set(SimBuilder::new(devices(1), config(1)));
                let built = match target {
                    EventSim => builder.build_event_sim().map(drop),
                    Coordinator => builder.build_coordinator().map(drop),
                    Hier => builder.build_hier().map(drop),
                };
                let cell = format!("{knob} on {}", target.name());
                if honoured.contains(&target) {
                    assert_eq!(built, Ok(()), "{cell}");
                } else {
                    dashes += 1;
                    let err = built.expect_err(&cell);
                    assert_eq!(err, ConfigError::UnsupportedOption(knob), "{cell}");
                    assert_eq!(err.cause_code(), "unsupported_option");
                }
            }
        }
        assert_eq!(dashes, 18);
    }

    #[test]
    fn invalid_values_map_to_typed_errors() {
        let err = SimBuilder::new(devices(1), config(1))
            .cohort_size(0)
            .build_hier()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::ZeroCohortSize);
        assert_eq!(err.cause_code(), "zero_cohort_size");

        let err = SimBuilder::new(devices(1), config(1))
            .threads(0)
            .build_hier()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::ZeroThreads);

        let err = SimBuilder::new(devices(1), config(1))
            .deadline(DeadlinePolicy::Fixed(-1.0))
            .build_event_sim()
            .err()
            .unwrap();
        assert_eq!(err.cause_code(), "invalid_deadline");

        let err = SimBuilder::new(devices(1), config(1))
            .rescue_soc_floor(1.5)
            .build_event_sim()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::InvalidSocFloor(1.5));

        let err = SimBuilder::new(devices(1), config(1))
            .priors(Vec::new())
            .build_event_sim()
            .err()
            .unwrap();
        assert_eq!(
            err,
            ConfigError::ArityMismatch {
                what: "priors",
                expected: 3,
                got: 0
            }
        );

        let err = SimBuilder::new(devices(1), config(1))
            .injector(FaultInjector::quiet(2))
            .build_event_sim()
            .err()
            .unwrap();
        assert_eq!(
            err,
            ConfigError::ArityMismatch {
                what: "fault plan",
                expected: 3,
                got: 2
            }
        );

        let err = SimBuilder::new(devices(1), config(1))
            .buffered_async(0, 0.5)
            .build_coordinator()
            .err()
            .unwrap();
        assert_eq!(err.cause_code(), "invalid_async");

        let err = SimBuilder::new(devices(1), config(1))
            .aggregator(AggregatorKind::MultiKrum { f: 1, k: 0 })
            .build_event_sim()
            .err()
            .unwrap();
        assert_eq!(err.cause_code(), "invalid_aggregator");

        let err = SimBuilder::new(devices(1), config(1))
            .adversary(
                AdversaryConfig::none().with_attackers(1.5, fedsched_faults::AttackKind::SignFlip),
                4,
            )
            .build_hier()
            .err()
            .unwrap();
        assert_eq!(err.cause_code(), "invalid_adversary");

        let err = SimBuilder::new(devices(1), config(1))
            .deadline(DeadlinePolicy::MeanFactor(1.5))
            .buffered_async(2, 0.5)
            .build_coordinator()
            .err()
            .unwrap();
        assert_eq!(err.cause_code(), "invalid_async");

        // An out-of-range fault config is the wire decoder's error on
        // every target, not a panic at build or first run.
        let crashy = || {
            SimBuilder::new(devices(1), config(1))
                .faults(FaultConfig::none().with_crash_prob(2.0), 4)
        };
        let expected =
            ConfigError::InvalidSpec("faults.config: crash_prob must be a probability".to_string());
        assert_eq!(crashy().build_event_sim().err(), Some(expected.clone()));
        assert_eq!(crashy().build_coordinator().err(), Some(expected.clone()));
        assert_eq!(crashy().build_hier().err(), Some(expected));
    }

    #[test]
    fn event_sim_matches_lockstep_oracle_bit_for_bit() {
        let chaos = FaultConfig::none().with_crash_prob(0.3).with_loss_prob(0.2);
        let build = || {
            SimBuilder::new(devices(11), config(11))
                .faults(chaos.clone(), 4)
                .deadline(DeadlinePolicy::Fixed(55.0))
                .build_event_sim()
                .unwrap()
        };
        let oracle = build().into_inner().run(&schedule(), 4);
        assert_eq!(build().run(&schedule(), 4), oracle);
    }

    #[test]
    fn churn_builds_on_every_target() {
        use fedsched_faults::ChurnConfig;
        let churn = ChurnConfig::symmetric(0.05, 60.0);
        let churned = || {
            SimBuilder::new(devices(1), config(1))
                .faults(FaultConfig::none(), 4)
                .churn(churn)
                .admission(crate::AdmissionPolicy::MidRoundFill)
        };
        assert!(churned().build_event_sim().is_ok());
        assert!(churned().build_coordinator().is_ok());
        assert!(churned().build_hier().is_ok());

        // A churn process carried in the fault config itself is honoured
        // the same way as the knob.
        let mut knob = SimBuilder::new(devices(1), config(1))
            .faults(FaultConfig::none(), 4)
            .churn(churn)
            .build_event_sim()
            .unwrap();
        let mut carried = SimBuilder::new(devices(1), config(1))
            .faults(FaultConfig::none().with_churn_process(churn), 4)
            .build_event_sim()
            .unwrap();
        assert_eq!(knob.run(&schedule(), 4), carried.run(&schedule(), 4));
    }

    #[test]
    fn malformed_churn_combinations_are_typed() {
        use fedsched_faults::ChurnConfig;

        // Churn with no fault source has no plan to ride on.
        let err = SimBuilder::new(devices(1), config(1))
            .churn(ChurnConfig::symmetric(0.05, 60.0))
            .build_event_sim()
            .err()
            .unwrap();
        assert_eq!(err.cause_code(), "invalid_churn");

        // Admission without churn is a contradiction.
        let err = SimBuilder::new(devices(1), config(1))
            .faults(FaultConfig::none(), 4)
            .admission(crate::AdmissionPolicy::NextRound)
            .build_event_sim()
            .err()
            .unwrap();
        assert_eq!(err.cause_code(), "invalid_churn");

        // Malformed numeric knobs.
        let err = SimBuilder::new(devices(1), config(1))
            .faults(FaultConfig::none(), 4)
            .churn(ChurnConfig::symmetric(-1.0, 60.0))
            .build_event_sim()
            .err()
            .unwrap();
        assert_eq!(err.cause_code(), "invalid_churn");
        let err = SimBuilder::new(devices(1), config(1))
            .faults(FaultConfig::none(), 4)
            .churn(ChurnConfig::symmetric(0.05, 0.0))
            .build_event_sim()
            .err()
            .unwrap();
        assert_eq!(err.cause_code(), "invalid_churn");
    }

    #[test]
    fn selection_gating_and_validation_are_typed() {
        use fedsched_bandit::{PolicyKind, SelectionConfig};
        use fedsched_core::FedLbap;
        let ucb = SelectionConfig::new(PolicyKind::Ucb1 { c: 1.0 }, 2);

        // Selection::Off is the default.
        assert!(SimBuilder::new(devices(1), config(1))
            .selection(Selection::Off)
            .build_event_sim()
            .is_ok());

        // Malformed knobs map to invalid_selection on every target.
        let zero_k = SelectionConfig::new(PolicyKind::ThompsonSampling, 0);
        let err = SimBuilder::new(devices(1), config(1))
            .selection(Selection::Bandit(zero_k))
            .build_event_sim()
            .err()
            .unwrap();
        assert_eq!(err.cause_code(), "invalid_selection");
        let bad_eps = SelectionConfig::new(PolicyKind::EpsilonGreedy { epsilon: 1.5 }, 2);
        let err = SimBuilder::new(devices(1), config(1))
            .selection(Selection::Bandit(bad_eps))
            .build_hier()
            .err()
            .unwrap();
        assert_eq!(err.cause_code(), "invalid_selection");

        // Selection owns the per-round re-plan; a periodic rescheduler
        // alongside it is a contradiction.
        let err = SimBuilder::new(devices(1), config(1))
            .selection(Selection::Bandit(ucb))
            .rescheduler(Box::new(FedLbap), 2)
            .build_event_sim()
            .err()
            .unwrap();
        assert_eq!(err.cause_code(), "invalid_selection");

        // Every target accepts a valid config.
        assert!(SimBuilder::new(devices(1), config(1))
            .selection(Selection::Bandit(ucb))
            .build_event_sim()
            .is_ok());
        assert!(SimBuilder::new(devices(1), config(1))
            .selection(Selection::Bandit(ucb))
            .build_coordinator()
            .is_ok());
        assert!(SimBuilder::new(devices(1), config(1))
            .selection(Selection::Bandit(ucb))
            .build_hier()
            .is_ok());
    }

    #[test]
    fn hier_knobs_are_rejected_off_the_hier_target() {
        let err = SimBuilder::new(devices(1), config(1))
            .edges(2)
            .build_event_sim()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::UnsupportedOption("edges"));

        let err = SimBuilder::new(devices(1), config(1))
            .edge_link(Link::lte_tmobile())
            .build_coordinator()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::UnsupportedOption("edge_link"));

        let err = SimBuilder::new(devices(1), config(1))
            .edge_aggregator(AggregatorKind::Median)
            .build_event_sim()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::UnsupportedOption("edge_aggregator"));

        let err = SimBuilder::new(devices(1), config(1))
            .server_aggregator(AggregatorKind::Median)
            .build_coordinator()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::UnsupportedOption("server_aggregator"));

        let err = SimBuilder::new(devices(1), config(1))
            .edges(1)
            .build_event_sim()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::UnsupportedOption("edges"));
    }

    #[test]
    fn malformed_topologies_are_typed() {
        let err = SimBuilder::new(devices(1), config(1))
            .edges(0)
            .build_hier()
            .err()
            .unwrap();
        assert_eq!(err.cause_code(), "invalid_topology");

        // testbed_1 has 3 devices => 1 cohort at the default cohort size.
        let err = SimBuilder::new(devices(1), config(1))
            .edges(2)
            .build_hier()
            .err()
            .unwrap();
        assert_eq!(
            err,
            ConfigError::InvalidTopology("more edge aggregators than cohorts")
        );

        // Hier rejects the coordinator's async mode.
        let err = SimBuilder::new(devices(1), config(1))
            .buffered_async(2, 0.5)
            .build_hier()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::UnsupportedOption("buffered_async"));

        // Tier aggregators are validated like the device-tier one.
        let err = SimBuilder::new(devices(1), config(1))
            .edge_aggregator(AggregatorKind::MultiKrum { f: 1, k: 0 })
            .build_hier()
            .err()
            .unwrap();
        assert_eq!(err.cause_code(), "invalid_aggregator");
    }

    #[test]
    fn hier_defaults_build_and_report_parity_shape() {
        // testbed_1's 3 devices fit one default cohort, whose stream is the
        // master stream: the default topology replays the sequential sim.
        let mut hier = SimBuilder::new(devices(3), config(3)).build_hier().unwrap();
        assert_eq!(hier.n_edges(), hier.n_cohorts());
        let report = hier.run(&schedule(), 2);
        let mut sequential = SimBuilder::new(devices(3), config(3))
            .build_event_sim()
            .unwrap();
        let expected = sequential.run(&schedule(), 2);
        assert_eq!(report.timing, expected.timing);
        assert_eq!(report.rounds, expected.rounds);
        assert_eq!(report.cohorts.len(), 1);
        assert_eq!(report.cohorts[0].timing, expected.timing);
        assert_eq!(report.edge_rejections, 0);
        assert_eq!(report.server_rejections, 0);
    }

    #[test]
    fn display_and_cause_codes_are_stable() {
        let cases: Vec<(ConfigError, &str)> = vec![
            (ConfigError::ZeroCohortSize, "zero_cohort_size"),
            (ConfigError::ZeroThreads, "zero_threads"),
            (ConfigError::EmptyAssignment, "empty_assignment"),
            (ConfigError::InvalidDeadline("x"), "invalid_deadline"),
            (ConfigError::InvalidSocFloor(2.0), "invalid_soc_floor"),
            (ConfigError::InvalidRetry("x"), "invalid_retry"),
            (ConfigError::InvalidAsync("x"), "invalid_async"),
            (ConfigError::UnsupportedOption("x"), "unsupported_option"),
            (
                ConfigError::ArityMismatch {
                    what: "priors",
                    expected: 3,
                    got: 1,
                },
                "arity_mismatch",
            ),
            (
                ConfigError::ZeroRescheduleInterval,
                "zero_reschedule_interval",
            ),
            (ConfigError::InvalidAggregator("x"), "invalid_aggregator"),
            (ConfigError::InvalidAdversary("x"), "invalid_adversary"),
            (ConfigError::InvalidChurn("x"), "invalid_churn"),
            (ConfigError::InvalidTopology("x"), "invalid_topology"),
            (ConfigError::NotSerializable("x"), "not_serializable"),
            (ConfigError::InvalidSpec("bad".to_string()), "invalid_spec"),
            (ConfigError::InvalidSelection("x"), "invalid_selection"),
        ];
        for (err, code) in cases {
            assert_eq!(err.cause_code(), code);
            assert!(!err.to_string().is_empty());
            let _: &dyn std::error::Error = &err;
        }
    }

    #[test]
    fn builder_deadline_matches_post_hoc_policy_setter() {
        // The builder's .deadline(..) and the sim-level set_deadline(..)
        // hook the coordinator uses are the same configuration.
        let mut new_style = SimBuilder::new(devices(5), config(5))
            .deadline(DeadlinePolicy::Fixed(60.0))
            .build_event_sim()
            .unwrap();
        let mut setter_style = SimBuilder::new(devices(5), config(5))
            .build_event_sim()
            .unwrap();
        setter_style.set_deadline(Some(60.0));
        assert_eq!(
            new_style.run(&schedule(), 4),
            setter_style.run(&schedule(), 4)
        );
    }
}
