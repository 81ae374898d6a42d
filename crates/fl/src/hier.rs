//! The population engine: cohorts of round cores under a two-tier
//! reduction — edge aggregators reduce their cohorts locally, the server
//! reduces edge aggregates.
//!
//! [`HierEngine`] is the only type that owns cohort sims. It partitions
//! the population into fixed, contiguous cohorts, gives each one a
//! long-lived [`EventRoundSim`] seeded by
//! [`derive_cohort_seed`], runs the cohorts on a worker pool, splices
//! their buffered telemetry into the engine probe in cohort order, and
//! then folds the cohort results through its edge and server tiers. The
//! cohort tier's determinism contract lives in [`cohorts`](crate::cohorts).
//!
//! Built for the `coordinator` target, the default topology's server tier
//! pools one deadline across the population or keeps a FedBuff merge
//! ledger (see [`coordinator`](crate::coordinator)); [`HierEngine::run`]
//! and [`HierEngine::coordinate`] are two views of one advance.
//!
//! # Determinism and parity contract
//!
//! The fold at both tiers is one merge arithmetic (`fold_tier`),
//! including the single-item verbatim passthrough. Two consequences,
//! pinned by `tests/hier_identity.rs`:
//!
//! * **One edge per cohort** (the default topology): the edge tier is all
//!   passthroughs, so the server fold sees every cohort in cohort order —
//!   the flat cohort merge — and no hierarchy events are emitted. With one
//!   cohort covering the fleet, reports *and traces* are byte-identical
//!   to the sequential [`EventRoundSim`].
//! * **One edge total**: the edge fold IS that flat merge and the server
//!   tier is a passthrough — the same report again.
//!
//! Intermediate geometries regroup floating-point reductions, so the
//! float fields (`comm_fraction`, merged `per_round_makespan` /
//! `coverage`) may differ in the last bits; every *integer* field and
//! every *max*-folded makespan is identical for **all** geometries
//! (max and integer addition are associative), which the topology
//! proptests assert.
//!
//! # Edge links and tier-level robust aggregation
//!
//! An optional edge→server backhaul [`Link`](fedsched_net::Link) adds one
//! sampled transfer per edge per round to that edge's makespan. Each edge
//! draws from its own persistent RNG stream seeded by
//! [`derive_edge_seed`] — disjoint from the master and every cohort
//! stream by construction — so backhaul sampling never perturbs
//! device-tier results and is itself independent of thread count and
//! cohort geometry.
//!
//! [`AggregatorKind`](fedsched_robust::AggregatorKind) composes at either
//! tier. Tier aggregation scores deterministic proxy vectors built from
//! the round outcomes (no RNG), emits [`Event::RobustAggregate`] per
//! reduction, and records rejection
//! counts as *additive bookkeeping* in the [`HierReport`] — it never
//! rewrites the shard/coverage accounting, so the conservation identities
//! the differential suite checks survive any tier aggregator.

use std::ops::Range;
use std::sync::{Arc, Mutex};

use fedsched_core::{DeadlinePolicy, Schedule};
use fedsched_device::Device;
use fedsched_parallel::{fixed_chunks, parallel_map_stealing};
use fedsched_telemetry::{Event, EventLog, Probe};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use crate::builder::SequentialExtras;
use crate::clock::{predict_round_times, TimingReport};
use crate::cohorts::{derive_cohort_seed, CohortReport};
use crate::coordinator::{fold_rounds, straggling_cohorts, Advance, CoordinatorReport, Ledger};
use crate::eventsim::EventRoundSim;
use crate::resilient::RoundOutcome;
use crate::spec::{BuildTarget, JobSpec};

/// Derive the backhaul RNG seed for `edge` from the master seed.
///
/// Same splitmix64 finalizer as
/// [`derive_cohort_seed`] but salted so edge
/// streams are disjoint from every cohort stream, and — unlike cohort 0 —
/// edge 0 does *not* pass the master through: backhaul sampling is a new
/// stream, never a continuation of a device-tier one.
pub fn derive_edge_seed(master: u64, edge: usize) -> u64 {
    let mut z =
        (master ^ 0xED6E_A66E_0000_0001) ^ (edge as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Balanced contiguous split of `n_cohorts` cohort indices across
/// `edges` edge aggregators: edge `i` covers
/// `[i*q + min(i, r), (i+1)*q + min(i+1, r))` where `q = n_cohorts /
/// edges`, `r = n_cohorts % edges` — the first `r` edges get one extra
/// cohort. Valid iff `1 <= edges <= n_cohorts` (or both are zero).
pub fn edge_cohort_ranges(n_cohorts: usize, edges: usize) -> Vec<Range<usize>> {
    assert!(
        edges <= n_cohorts,
        "edge layout needs edges <= n_cohorts ({edges} > {n_cohorts})"
    );
    let q = n_cohorts.checked_div(edges).unwrap_or(0);
    let r = n_cohorts.checked_rem(edges).unwrap_or(0);
    (0..edges)
        .map(|i| (i * q + i.min(r))..((i + 1) * q + (i + 1).min(r)))
        .collect()
}

/// One edge aggregator's reduced view of its cohorts, after any backhaul
/// link time is added.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EdgeReport {
    /// First cohort index this edge reduces (inclusive).
    pub cohort_start: usize,
    /// One past the last cohort index this edge reduces.
    pub cohort_end: usize,
    /// First population device index under this edge (inclusive).
    pub start: usize,
    /// One past the last population device index under this edge.
    pub end: usize,
    /// The edge's backhaul RNG seed (from [`derive_edge_seed`]).
    pub seed: u64,
    /// The edge's reduced timing (`fold_tier` over its cohorts;
    /// backhaul seconds folded into each round's makespan).
    pub timing: TimingReport,
    /// The edge's reduced per-round outcomes.
    pub rounds: Vec<RoundOutcome>,
}

/// Aggregate result of one [`HierEngine::run`] call.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HierReport {
    /// Server-tier timing: the edge aggregates folded with the same merge
    /// arithmetic. In parity topologies this is the flat cohort merge.
    pub timing: TimingReport,
    /// Server-tier per-round outcomes.
    pub rounds: Vec<RoundOutcome>,
    /// Per-edge breakdowns, in edge order.
    pub edges: Vec<EdgeReport>,
    /// Per-cohort breakdowns, in cohort order.
    pub cohorts: Vec<CohortReport>,
    /// Proxy updates the edge-tier aggregator excluded, summed over
    /// edges and rounds. Bookkeeping only — never folded back into the
    /// shard/coverage accounting.
    pub edge_rejections: usize,
    /// Proxy updates the server-tier aggregator excluded, summed over
    /// rounds. Bookkeeping only.
    pub server_rejections: usize,
}

/// The merge arithmetic over `(timing, rounds, participants)` items — one
/// per cohort at the edge tier, one per edge at the server tier. Per-round makespan is the max, per-user means concatenate,
/// the comm fraction is participant-weighted and shard counts sum with
/// coverage recomputed; a single item passes through verbatim, so one
/// cohort is bit-identical to the sequential sim.
pub(crate) fn fold_tier(
    items: &[(&TimingReport, &[RoundOutcome], usize)],
    rounds: usize,
    first_round: usize,
) -> (TimingReport, Vec<RoundOutcome>) {
    let single = items.len() == 1;

    let mut per_round_makespan = vec![0.0f64; rounds];
    let mut per_user_mean = Vec::new();
    let mut comm_weighted = 0.0f64;
    let mut total_participants = 0usize;
    let mut merged_rounds: Vec<RoundOutcome> = (0..rounds)
        .map(|r| RoundOutcome {
            round: first_round + r,
            scheduled: 0,
            completed: 0,
            rescued: 0,
            lost_shards: 0,
            admitted: 0,
            admit_done: 0,
            carried: 0,
            coverage: 1.0,
            makespan_s: 0.0,
            failed_users: 0,
            timed_out: 0,
            rejected_updates: 0,
        })
        .collect();

    for (timing, item_rounds, participants) in items {
        for (r, &m) in timing.per_round_makespan.iter().enumerate() {
            if m > per_round_makespan[r] {
                per_round_makespan[r] = m;
            }
        }
        per_user_mean.extend_from_slice(&timing.per_user_mean);
        comm_weighted += timing.comm_fraction * *participants as f64;
        total_participants += participants;

        for (merged, outcome) in merged_rounds.iter_mut().zip(*item_rounds) {
            debug_assert_eq!(merged.round, outcome.round, "tier round indices diverged");
            merged.scheduled += outcome.scheduled;
            merged.completed += outcome.completed;
            merged.rescued += outcome.rescued;
            merged.lost_shards += outcome.lost_shards;
            merged.admitted += outcome.admitted;
            merged.admit_done += outcome.admit_done;
            merged.carried += outcome.carried;
            merged.failed_users += outcome.failed_users;
            merged.timed_out += outcome.timed_out;
            merged.rejected_updates += outcome.rejected_updates;
            if outcome.makespan_s > merged.makespan_s {
                merged.makespan_s = outcome.makespan_s;
            }
        }
    }

    for merged in &mut merged_rounds {
        merged.coverage = if merged.scheduled == 0 {
            1.0
        } else {
            (merged.completed + merged.rescued + merged.admit_done) as f64
                / (merged.scheduled + merged.admitted) as f64
        };
    }

    if single {
        (items[0].0.clone(), items[0].1.to_vec())
    } else {
        (
            TimingReport {
                per_round_makespan,
                per_user_mean,
                comm_fraction: if total_participants == 0 {
                    0.0
                } else {
                    comm_weighted / total_participants as f64
                },
            },
            merged_rounds,
        )
    }
}

/// Every integer count of an outcome, in declaration order.
#[cfg(debug_assertions)]
fn integer_fields(o: &RoundOutcome) -> [usize; 10] {
    [
        o.scheduled,
        o.completed,
        o.rescued,
        o.lost_shards,
        o.admitted,
        o.admit_done,
        o.carried,
        o.failed_users,
        o.timed_out,
        o.rejected_updates,
    ]
}

/// Deterministic proxy update for tier-level robust scoring: an 8-dim
/// feature vector of the round outcome, weighted by participants (floored
/// at 1 so idle cohorts still count as an update). No RNG anywhere —
/// tier aggregation can never perturb device-tier streams.
fn proxy_update(outcome: &RoundOutcome, participants: usize) -> (Vec<f32>, usize) {
    (
        vec![
            outcome.makespan_s as f32,
            outcome.coverage as f32,
            outcome.completed as f32,
            outcome.rescued as f32,
            outcome.lost_shards as f32,
            (outcome.failed_users + outcome.timed_out) as f32,
            outcome.rejected_updates as f32,
            participants as f32,
        ],
        participants.max(1),
    )
}

/// A cohort and its long-lived round core. The `Mutex` is never contended
/// — each work item touches exactly one slot — it exists to hand `&mut`
/// access to whichever worker claims the cohort.
struct CohortSlot {
    range: Range<usize>,
    seed: u64,
    sim: Mutex<EventRoundSim>,
    /// Per-cohort event buffer; `Some` iff the engine probe is enabled.
    log: Option<Arc<EventLog>>,
}

/// The population engine. Construct through
/// [`SimBuilder::build_hier`](crate::SimBuilder::build_hier).
pub struct HierEngine {
    /// Population, held until the first run builds the cohort sims.
    pending: Vec<Device>,
    n: usize,
    cohort_size: usize,
    threads: usize,
    probe: Probe,
    /// The validated configuration every cohort's round core is built
    /// from, and the source of the master seed and the tier knobs.
    spec: JobSpec,
    /// Edge aggregators; `1..=n_cohorts`, or zero for an empty fleet.
    edges: usize,
    slots: Vec<CohortSlot>,
    rounds_done: usize,
    /// One persistent backhaul RNG per edge, seeded by
    /// [`derive_edge_seed`]; streams continue across `run` calls exactly
    /// like the device-tier sim RNGs.
    edge_rngs: Vec<StdRng>,
    /// Server-tier deadline policy (`coordinator` target): resolved once
    /// per round against the pooled population predictions. `Off` leaves
    /// the cohorts' own policy in force.
    pooled: DeadlinePolicy,
    /// Server-tier FedBuff merge ledger (`coordinator` target with
    /// buffered-async options).
    ledger: Option<Ledger>,
}

impl HierEngine {
    /// Assemble an engine over a checked spec. A `coordinator` spec's
    /// deadline moves to the server tier, so its cohorts are built without
    /// one, and its buffered-async options become the merge ledger.
    pub(crate) fn from_parts(
        devices: Vec<Device>,
        mut spec: JobSpec,
        probe: Probe,
        cohort_size: usize,
        threads: usize,
        edges: usize,
    ) -> Self {
        let edge_rngs = (0..edges)
            .map(|e| StdRng::seed_from_u64(derive_edge_seed(spec.seed, e)))
            .collect();
        let (pooled, ledger) = match spec.target {
            BuildTarget::Coordinator => (
                spec.deadline.take().unwrap_or(DeadlinePolicy::Off),
                spec.buffered_async.map(Ledger::new),
            ),
            _ => (DeadlinePolicy::Off, None),
        };
        HierEngine {
            n: devices.len(),
            pending: devices,
            cohort_size,
            threads,
            probe,
            spec,
            edges,
            slots: Vec::new(),
            rounds_done: 0,
            edge_rngs,
            pooled,
            ledger,
        }
    }

    /// Cohorts the population partitions into.
    pub fn n_cohorts(&self) -> usize {
        self.n.div_ceil(self.cohort_size)
    }

    /// Edge aggregators in the topology.
    pub fn n_edges(&self) -> usize {
        self.edges
    }

    /// Worker threads used for the cohort phase. Affects wall-clock only.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Rounds simulated so far across all `run` and `coordinate` calls.
    pub fn rounds_done(&self) -> usize {
        self.rounds_done
    }

    /// Server model version: one bump per buffered-async flush, zero
    /// without a merge ledger.
    pub fn server_version(&self) -> usize {
        self.ledger.as_ref().map_or(0, Ledger::server_version)
    }

    /// Snapshot of the population's devices in population order (e.g. to
    /// inspect battery drain afterwards). Clones — cohort sims keep the
    /// originals alive across runs.
    pub fn devices(&self) -> Vec<Device> {
        if self.slots.is_empty() {
            return self.pending.clone();
        }
        let mut out = Vec::with_capacity(self.n);
        for slot in &self.slots {
            out.extend_from_slice(slot.sim.lock().unwrap().devices());
        }
        out
    }

    /// Side-effect-free per-user predicted round times for `schedule`,
    /// pooled over the *whole population* in population order. Built from
    /// current device state (thermal throttling included), predicted in
    /// place cohort by cohort, and never draws from any RNG — calling it
    /// does not perturb the simulated timeline. The server tier resolves
    /// its pooled deadline policy against this pool.
    fn predicted_user_times(&self, schedule: &Schedule) -> Vec<f64> {
        assert_eq!(
            schedule.shards.len(),
            self.n,
            "schedule/population size mismatch"
        );
        let predict = |devices: &[Device], schedule: &Schedule| {
            predict_round_times(
                devices,
                &self.spec.workload,
                &self.spec.link,
                self.spec.model_bytes,
                schedule,
            )
        };
        if self.slots.is_empty() {
            return predict(&self.pending, schedule);
        }
        let mut out = Vec::with_capacity(self.n);
        for slot in &self.slots {
            let sub = Schedule::new(
                schedule.shards[slot.range.clone()].to_vec(),
                schedule.shard_size,
            );
            out.extend(predict(slot.sim.lock().unwrap().devices(), &sub));
        }
        out
    }

    /// Build the per-cohort sims on first use. Lazy on purpose: a large
    /// fleet's cohort construction is round cost, not set-up cost.
    fn ensure_slots(&mut self) {
        if !self.slots.is_empty() || self.n == 0 {
            return;
        }
        let mut devices = std::mem::take(&mut self.pending).into_iter();
        self.slots = fixed_chunks(self.n, self.cohort_size)
            .enumerate()
            .map(|(cohort, range)| {
                let cohort_devices = devices.by_ref().take(range.len()).collect();
                let seed = derive_cohort_seed(self.spec.seed, cohort);
                let log = self.probe.is_enabled().then(|| Arc::new(EventLog::new()));
                let probe = match &log {
                    Some(log) => Probe::attached(log.clone() as Arc<_>),
                    None => Probe::disabled(),
                };
                let sim = EventRoundSim::from_spec(
                    &self.spec,
                    cohort_devices,
                    seed,
                    probe,
                    SequentialExtras::default(),
                );
                CohortSlot {
                    range,
                    seed,
                    sim: Mutex::new(sim),
                    log,
                }
            })
            .collect();
    }

    /// Run every cohort `rounds` rounds on the worker pool, then splice
    /// the per-cohort event buffers into the engine probe in cohort order
    /// with user indices remapped to population indices — so the delivered
    /// stream is ordered and deterministic even though cohorts ran
    /// concurrently.
    fn run_cohorts(&mut self, schedule: &Schedule, rounds: usize) -> Vec<CohortReport> {
        assert_eq!(
            schedule.shards.len(),
            self.n,
            "schedule/population size mismatch"
        );
        self.ensure_slots();
        let slots = &self.slots;
        let runs: Vec<(CohortReport, Vec<Event>)> =
            parallel_map_stealing(slots.len(), self.threads, |c| {
                let slot = &slots[c];
                let sub = Schedule::new(
                    schedule.shards[slot.range.clone()].to_vec(),
                    schedule.shard_size,
                );
                let report = slot.sim.lock().unwrap().run(&sub, rounds);
                let events = match &slot.log {
                    Some(log) => log
                        .take()
                        .into_iter()
                        .map(|ev| ev.with_user_offset(slot.range.start))
                        .collect(),
                    None => Vec::new(),
                };
                let cohort = CohortReport {
                    start: slot.range.start,
                    end: slot.range.end,
                    seed: slot.seed,
                    timing: report.timing,
                    rounds: report.rounds,
                };
                (cohort, events)
            });
        self.rounds_done += rounds;
        runs.into_iter()
            .map(|(cohort, events)| {
                for ev in events {
                    self.probe.emit(|| ev);
                }
                cohort
            })
            .collect()
    }

    /// True iff the topology adds nothing over the cohort merge: one edge
    /// per cohort, no backhaul link, FedAvg at both tiers. In that case
    /// no hierarchy events are emitted, so traces — not just reports —
    /// match the flat cohort path.
    fn trivial_topology(&self) -> bool {
        self.edges == self.n_cohorts()
            && self.spec.edge_link.is_none()
            && self.spec.edge_aggregator.unwrap_or_default().is_fedavg()
            && self.spec.server_aggregator.unwrap_or_default().is_fedavg()
    }

    /// Simulate `rounds` synchronous rounds of `schedule` across the whole
    /// population — cohorts in parallel, device state persisting across
    /// calls — then reduce cohorts per edge and edges at the server.
    ///
    /// Emission order (non-trivial topologies only), per round in
    /// ascending edge order on the control thread — the single trace
    /// writer once the cohort phase has been spliced:
    /// [`Event::EdgeReduce`] per edge, then an edge-tier
    /// [`Event::RobustAggregate`] per edge (non-FedAvg edge tier), then
    /// one server-tier [`Event::RobustAggregate`] (non-FedAvg server
    /// tier). A server-tier policy adds its own events (see
    /// [`HierEngine::coordinate`]).
    ///
    /// # Panics
    ///
    /// Panics when `schedule` arity does not match the population.
    pub fn run(&mut self, schedule: &Schedule, rounds: usize) -> HierReport {
        self.advance(schedule, rounds).0
    }

    /// Simulate `rounds` rounds exactly as [`HierEngine::run`] does and
    /// report them in the coordinator's terms: global deadlines,
    /// straggling cohorts, buffered-async merges and the simulated span.
    /// A pooled deadline runs the rounds one at a time, each between an
    /// [`Event::GlobalDeadlineSet`] and one [`Event::CohortStraggling`]
    /// per straggler; a ledger emits an [`Event::AsyncMerge`] per merge.
    ///
    /// # Panics
    ///
    /// Panics when `schedule` arity does not match the population.
    pub fn coordinate(&mut self, schedule: &Schedule, rounds: usize) -> CoordinatorReport {
        CoordinatorReport::view(self.advance(schedule, rounds))
    }

    /// The one advance behind both views. Without a ledger its span is
    /// the sum of the round makespans.
    fn advance(&mut self, schedule: &Schedule, rounds: usize) -> Advance {
        let (report, deadlines) = if self.pooled.is_off() {
            (self.run_tiers(schedule, rounds), vec![None; rounds])
        } else {
            // One pooled cutoff per round, pushed into every cohort before
            // the round runs.
            let (mut deadlines, mut reports) = (Vec::new(), Vec::new());
            for _ in 0..rounds {
                let round = self.rounds_done;
                // Predictions are side-effect-free (clones, no RNG), so the
                // resolution is invisible to the simulated timeline.
                let predicted = self.predicted_user_times(schedule);
                let deadline_s = self.pooled.resolve(&predicted);
                let pooled = predicted
                    .iter()
                    .filter(|t| t.is_finite() && **t > 0.0)
                    .count();
                self.ensure_slots();
                for slot in &self.slots {
                    let mut sim = slot.sim.lock().expect("a cohort round panicked");
                    sim.set_deadline(deadline_s);
                }
                let (policy, cohorts) = (self.pooled.name(), self.n_cohorts());
                self.probe.emit(|| Event::GlobalDeadlineSet {
                    round,
                    policy: policy.to_string(),
                    deadline_s,
                    pooled,
                    cohorts,
                });

                let report = self.run_tiers(schedule, 1);
                let makespans = &report.timing.per_round_makespan;
                for (cohort, timed_out) in straggling_cohorts(makespans, &report.cohorts, 0) {
                    let makespan_s = report.cohorts[cohort].timing.per_round_makespan[0];
                    self.probe.emit(|| Event::CohortStraggling {
                        round,
                        cohort,
                        makespan_s,
                        deadline_s,
                        timed_out,
                    });
                }
                deadlines.push(deadline_s);
                reports.push(report);
            }
            (fold_rounds(reports), deadlines)
        };
        let (merges, span_s) = match &mut self.ledger {
            Some(ledger) => ledger.settle(&report.cohorts, &self.probe),
            None => (Vec::new(), report.timing.per_round_makespan.iter().sum()),
        };
        (report, deadlines, merges, span_s)
    }

    /// Run the cohorts `rounds` rounds and fold them through the edge and
    /// server tiers.
    fn run_tiers(&mut self, schedule: &Schedule, rounds: usize) -> HierReport {
        let first_round = self.rounds_done;
        let cohorts = self.run_cohorts(schedule, rounds);
        let probe = &self.probe;
        let trivial = self.trivial_topology();
        let edges = self.edges;
        let edge_aggregator = self.spec.edge_aggregator.unwrap_or_default();
        let server_aggregator = self.spec.server_aggregator.unwrap_or_default();

        // Participants per cohort: active users in the cohort's schedule
        // slice — the fold's comm-fraction weights.
        let participants: Vec<usize> = cohorts
            .iter()
            .map(|c| {
                schedule.shards[c.start..c.end]
                    .iter()
                    .filter(|&&s| s > 0)
                    .count()
            })
            .collect();

        let layout = edge_cohort_ranges(cohorts.len(), edges);
        let mut edge_reports = Vec::with_capacity(edges);
        let mut edge_links: Vec<Vec<f64>> = Vec::with_capacity(edges);
        for (e, span) in layout.iter().enumerate() {
            let items: Vec<(&TimingReport, &[RoundOutcome], usize)> = span
                .clone()
                .map(|c| {
                    let cohort = &cohorts[c];
                    (&cohort.timing, cohort.rounds.as_slice(), participants[c])
                })
                .collect();
            let (mut timing, mut edge_rounds) = fold_tier(&items, rounds, first_round);

            // Backhaul: one sampled edge→server transfer per round, added
            // to the edge's makespan. Sampling only happens when a link is
            // configured, so parity topologies draw nothing (and dodge the
            // −0.0 + 0.0 bit hazard entirely).
            let links = if let Some(link) = self.spec.edge_link {
                let rng = &mut self.edge_rngs[e];
                (0..rounds)
                    .map(|r| {
                        let s = link.sample_round_seconds(self.spec.model_bytes, rng);
                        timing.per_round_makespan[r] += s;
                        edge_rounds[r].makespan_s += s;
                        s
                    })
                    .collect()
            } else {
                vec![0.0; rounds]
            };
            edge_links.push(links);

            let (start, end) = if span.is_empty() {
                (0, 0)
            } else {
                (cohorts[span.start].start, cohorts[span.end - 1].end)
            };
            edge_reports.push(EdgeReport {
                cohort_start: span.start,
                cohort_end: span.end,
                start,
                end,
                seed: derive_edge_seed(self.spec.seed, e),
                timing,
                rounds: edge_rounds,
            });
        }

        // Server tier: fold the edge aggregates with the same arithmetic.
        let edge_participants: Vec<usize> = layout
            .iter()
            .map(|span| span.clone().map(|c| participants[c]).sum())
            .collect();
        let server_items: Vec<(&TimingReport, &[RoundOutcome], usize)> = edge_reports
            .iter()
            .enumerate()
            .map(|(e, er)| (&er.timing, er.rounds.as_slice(), edge_participants[e]))
            .collect();
        let (timing, server_rounds) = fold_tier(&server_items, rounds, first_round);
        // The tiers regroup the cohort results without losing any: every
        // integer field is the cohort total, no tier shortens a cohort's
        // round, and coverage stays at most 1.
        #[cfg(debug_assertions)]
        for (r, server) in server_rounds.iter().enumerate() {
            let mut sums = [0usize; 10];
            for cohort in &cohorts {
                for (sum, v) in sums.iter_mut().zip(integer_fields(&cohort.rounds[r])) {
                    *sum += v;
                }
                debug_assert!(
                    server.makespan_s >= cohort.rounds[r].makespan_s,
                    "server makespan below cohort {}'s: {server:?}",
                    cohort.start
                );
            }
            debug_assert_eq!(
                integer_fields(server),
                sums,
                "server counts are not the cohort sums: {server:?}"
            );
            debug_assert!(server.coverage <= 1.0, "coverage above 1: {server:?}");
        }

        // Tier-level robust scoring + event emission, all on this thread.
        let mut edge_rejections = 0usize;
        let mut server_rejections = 0usize;
        let edge_rule = (!edge_aggregator.is_fedavg()).then(|| edge_aggregator.build());
        let server_rule = (!server_aggregator.is_fedavg()).then(|| server_aggregator.build());
        // `r` indexes several parallel per-round structures (edge timings,
        // backhaul draws, cohort outcomes), so a plain range is clearest.
        #[allow(clippy::needless_range_loop)]
        for r in 0..rounds {
            for (e, er) in edge_reports.iter().enumerate() {
                if !trivial {
                    probe.emit(|| Event::EdgeReduce {
                        round: first_round + r,
                        edge: e,
                        cohorts: er.cohort_end - er.cohort_start,
                        devices: er.end - er.start,
                        makespan_s: er.timing.per_round_makespan[r],
                        link_s: edge_links[e][r],
                    });
                }
                if let Some(rule) = &edge_rule {
                    let updates: Vec<(Vec<f32>, usize)> = (er.cohort_start..er.cohort_end)
                        .map(|c| proxy_update(&cohorts[c].rounds[r], participants[c]))
                        .collect();
                    if !updates.is_empty() {
                        let outcome = rule.aggregate(&updates);
                        edge_rejections += outcome.rejected.len();
                        probe.emit(|| Event::RobustAggregate {
                            round: first_round + r,
                            aggregator: rule.name().to_string(),
                            n_updates: updates.len(),
                            rejected: outcome.rejected.len(),
                            mean_score: outcome.mean_score(),
                        });
                    }
                }
            }
            if let Some(rule) = &server_rule {
                let updates: Vec<(Vec<f32>, usize)> = edge_reports
                    .iter()
                    .enumerate()
                    .map(|(e, er)| proxy_update(&er.rounds[r], edge_participants[e]))
                    .collect();
                if !updates.is_empty() {
                    let outcome = rule.aggregate(&updates);
                    server_rejections += outcome.rejected.len();
                    probe.emit(|| Event::RobustAggregate {
                        round: first_round + r,
                        aggregator: rule.name().to_string(),
                        n_updates: updates.len(),
                        rejected: outcome.rejected.len(),
                        mean_score: outcome.mean_score(),
                    });
                }
            }
        }

        HierReport {
            timing,
            rounds: server_rounds,
            edges: edge_reports,
            cohorts,
            edge_rejections,
            server_rejections,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_seed_has_no_passthrough_and_distinct_streams() {
        let master = 2020;
        assert_ne!(derive_edge_seed(master, 0), master);
        let seeds: Vec<u64> = (0..64).map(|e| derive_edge_seed(master, e)).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len());
        // Disjoint from the cohort stream family on the same master.
        for e in 0..64usize {
            for c in 0..64usize {
                assert_ne!(
                    derive_edge_seed(master, e),
                    crate::derive_cohort_seed(master, c)
                );
            }
        }
    }

    #[test]
    fn edge_layout_is_balanced_contiguous_and_total() {
        for n_cohorts in 0..24usize {
            for edges in 0..=n_cohorts {
                let spans = edge_cohort_ranges(n_cohorts, edges);
                assert_eq!(spans.len(), edges);
                let mut next = 0;
                for span in &spans {
                    assert_eq!(span.start, next, "spans must be contiguous");
                    assert!(span.end >= span.start);
                    next = span.end;
                }
                if edges > 0 {
                    assert_eq!(next, n_cohorts, "spans must cover every cohort");
                    let sizes: Vec<usize> = spans.iter().map(|s| s.len()).collect();
                    let min = *sizes.iter().min().unwrap();
                    let max = *sizes.iter().max().unwrap();
                    assert!(max - min <= 1, "split must be balanced: {sizes:?}");
                    assert!(min >= 1, "every edge must own a cohort");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "edge layout needs edges <= n_cohorts")]
    fn edge_layout_rejects_more_edges_than_cohorts() {
        let _ = edge_cohort_ranges(2, 3);
    }

    #[test]
    fn fold_tier_single_item_is_verbatim_passthrough() {
        let timing = TimingReport {
            per_round_makespan: vec![3.5, 4.25],
            per_user_mean: vec![1.0, 2.0, 3.0],
            comm_fraction: 0.123456789,
        };
        let rounds = vec![
            RoundOutcome {
                round: 7,
                scheduled: 9,
                completed: 8,
                rescued: 1,
                lost_shards: 0,
                admitted: 0,
                admit_done: 0,
                carried: 0,
                coverage: 1.0,
                makespan_s: 3.5,
                failed_users: 0,
                timed_out: 0,
                rejected_updates: 0,
            },
            RoundOutcome {
                round: 8,
                scheduled: 9,
                completed: 7,
                rescued: 0,
                lost_shards: 2,
                admitted: 0,
                admit_done: 0,
                carried: 0,
                coverage: 7.0 / 9.0,
                makespan_s: 4.25,
                failed_users: 1,
                timed_out: 0,
                rejected_updates: 0,
            },
        ];
        let (t, r) = fold_tier(&[(&timing, rounds.as_slice(), 3)], 2, 7);
        assert_eq!(t, timing);
        assert_eq!(r, rounds);
    }

    #[test]
    fn in_place_predictions_match_a_population_snapshot() {
        use crate::builder::{RoundConfig, SimBuilder};
        use fedsched_device::{DeviceModel, TrainingWorkload};
        use fedsched_net::Link;

        let models = DeviceModel::all();
        let devices: Vec<Device> = (0..23)
            .map(|i| Device::from_model(models[i % models.len()], 31 + i as u64))
            .collect();
        let (workload, link, model_bytes) = (TrainingWorkload::lenet(), Link::wifi_campus(), 2.5e6);
        let mut engine = SimBuilder::new(devices, RoundConfig::new(workload, link, model_bytes, 5))
            .cohort_size(5)
            .threads(2)
            .build_hier()
            .unwrap();
        // Idle users, and a ragged last cohort.
        let shards: Vec<usize> = (0..23)
            .map(|i| if i % 4 == 0 { 0 } else { 3 + i % 5 })
            .collect();
        let schedule = Schedule::new(shards, 100.0);
        let snapshot = |engine: &HierEngine| {
            predict_round_times(&engine.devices(), &workload, &link, model_bytes, &schedule)
        };
        // Before the first run the population is still pending.
        let cold = engine.predicted_user_times(&schedule);
        assert_eq!(cold, snapshot(&engine));
        engine.run(&schedule, 3);
        let warm = engine.predicted_user_times(&schedule);
        assert_eq!(warm, snapshot(&engine));
        assert_ne!(
            warm, cold,
            "three rounds of training must change device state"
        );
    }

    #[test]
    fn proxy_updates_are_deterministic_and_weighted() {
        let outcome = RoundOutcome {
            round: 0,
            scheduled: 10,
            completed: 9,
            rescued: 1,
            lost_shards: 0,
            admitted: 0,
            admit_done: 0,
            carried: 0,
            coverage: 1.0,
            makespan_s: 12.5,
            failed_users: 0,
            timed_out: 0,
            rejected_updates: 0,
        };
        let (v1, w1) = proxy_update(&outcome, 4);
        let (v2, w2) = proxy_update(&outcome, 4);
        assert_eq!(v1, v2);
        assert_eq!(w1, 4);
        assert_eq!(v1.len(), 8);
        let (_, w0) = proxy_update(&outcome, 0);
        assert_eq!(w0, 1, "idle cohorts still count as one update");
        assert_eq!(w2, 4);
    }
}
