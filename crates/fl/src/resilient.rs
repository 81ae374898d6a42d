//! The round core's phase primitives: a fault model with retries,
//! deadlines, straggler rescue and between-round rescheduling.
//!
//! Production federated learning loses clients constantly — phones crash,
//! churn out of the cohort, drop packets and slow down under background
//! load. [`ResilientRoundSim`] holds the per-round phases a schedule goes
//! through while a [`FaultInjector`] decrees per-round fates, and the
//! server-side countermeasures:
//!
//! * **Retries** — every model push/pull goes through
//!   [`LossyLink::transfer`] under a [`RetryPolicy`] (capped exponential
//!   backoff, per-attempt timeout), all simulated in round time;
//! * **Deadlines** — an optional per-round deadline cuts stragglers off
//!   with partial credit for the shards they finished;
//! * **Rescue** — once failures are detected, the failed users' unfinished
//!   shards are greedily reassigned (LPT) to the round's survivors, who
//!   receive an extra transfer and compute the remainder;
//! * **Rescheduling** — an optional scheduler re-plans the shard allocation
//!   every few rounds from [`OnlineProfiler`] estimates fitted to what the
//!   faulted cohort actually delivered.
//!
//! [`EventRoundSim`](crate::EventRoundSim) drives these phases over its
//! active set; it is the only product round engine. Under `cfg(test)` this
//! module also keeps the lockstep sweep (`ResilientRoundSim::run`) that
//! drives the same phases in device-index order — the differential oracle
//! the event core is checked against.
//!
//! Determinism contract: with a quiet injector and the default
//! configuration, the phases consume the main RNG stream as one comm
//! sample plus one compute call per participating device, in device-index
//! order. All fault-only randomness (loss decisions, backoff jitter) comes
//! from counter-based [`DrawStream`](fedsched_faults::DrawStream)s.

use fedsched_bandit::{selection_stream, SelectionConfig, SelectionPolicy};
use fedsched_core::{CostMatrix, DeadlinePolicy, FedLbap, Schedule, Scheduler};
use fedsched_device::{Device, TrainingWorkload};
use fedsched_faults::{AdversaryPlan, DeviceFate, FaultInjector};
use fedsched_net::{Link, LossyLink, RetryPolicy};
use fedsched_profiler::{LinearProfile, OnlineProfiler};
use fedsched_robust::AggregatorKind;
use fedsched_telemetry::{Event, Probe};
use rand::rngs::StdRng;
use serde::Serialize;

use crate::clock::{self, TimingReport};

/// Cost profile assigned to devices the server knows nothing about (never
/// observed) or knows to be gone: 1e6 s fixed plus 1e3 s a sample, large
/// but finite, so cost matrices stay valid while schedulers starve the
/// device of work.
fn penalty() -> LinearProfile {
    LinearProfile::new(1e6, 1e3)
}
/// Forgetting factor for the per-device online profilers: recent rounds
/// dominate, so estimates track thermal drift and contention.
pub(crate) const PROFILER_LAMBDA: f64 = 0.9;
/// Dimension of the proxy update vectors the timing simulator feeds the
/// robust aggregator (the real training engine aggregates full parameter
/// vectors; the timing path only needs enough coordinates to score).
const PROXY_DIM: usize = 8;

/// What one simulated round delivered under faults.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RoundOutcome {
    /// Global round index.
    pub round: usize,
    /// Shards scheduled this round.
    pub scheduled: usize,
    /// Shards completed by their originally assigned user (including
    /// partial credit for deadline-cut stragglers).
    pub completed: usize,
    /// Shards recovered by reassignment to survivors.
    pub rescued: usize,
    /// Shards lost outright (crashes, failed transfers, no rescue target).
    pub lost_shards: usize,
    /// Shards handed to mid-round-admitted arrivals (event engine with
    /// `AdmissionPolicy::MidRoundFill` only; 0 everywhere else).
    pub admitted: usize,
    /// Admitted shards the arrival actually completed (`<= admitted`).
    pub admit_done: usize,
    /// Admitted shards the arrival did *not* complete this round (its
    /// transfer failed); the device keeps the data, so they are carried,
    /// not lost twice: `carried = admitted - admit_done`.
    pub carried: usize,
    /// Fraction of planned-plus-admitted work aggregated:
    /// `(completed + rescued + admit_done) / (scheduled + admitted)`.
    /// Admitted work joins the *denominator* too, so mid-round joiners can
    /// never push coverage above 1.
    pub coverage: f64,
    /// Synchronous round time including any rescue phase.
    pub makespan_s: f64,
    /// Users that lost at least one shard in the primary phase.
    pub failed_users: usize,
    /// Users cut off by the round deadline.
    pub timed_out: usize,
    /// Updates the robust aggregator excluded this round (0 unless an
    /// adversary is configured).
    pub rejected_updates: usize,
}

/// Full report of a chaos run: plain timing plus per-round fault outcomes.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChaosReport {
    /// Timing statistics: per-round makespans, per-user means and the
    /// straggler's communication share.
    pub timing: TimingReport,
    /// One outcome per simulated round.
    pub rounds: Vec<RoundOutcome>,
}

impl ChaosReport {
    /// Total shards lost across all rounds.
    pub fn total_lost(&self) -> usize {
        self.rounds.iter().map(|r| r.lost_shards).sum()
    }

    /// Total shards rescued across all rounds.
    pub fn total_rescued(&self) -> usize {
        self.rounds.iter().map(|r| r.rescued).sum()
    }

    /// Mean per-round coverage.
    pub fn mean_coverage(&self) -> f64 {
        if self.rounds.is_empty() {
            return 1.0;
        }
        self.rounds.iter().map(|r| r.coverage).sum::<f64>() / self.rounds.len() as f64
    }
}

/// Online bandit-driven client-selection state (see
/// [`SimBuilder::selection`](crate::SimBuilder::selection)).
pub(crate) struct SelectionState {
    pub(crate) config: SelectionConfig,
    pub(crate) policy: Box<dyn SelectionPolicy>,
    /// Resolved selection-stream seed (config override or master seed).
    pub(crate) seed: u64,
    /// Battery SoC snapshot per device at selection time, for the reward's
    /// energy discount.
    pub(crate) soc_at_select: Vec<f64>,
    /// Arms picked for the round in flight (ascending device indices).
    pub(crate) last_selected: Vec<usize>,
}

/// Phase-1 result for one participating device.
///
/// Produced by [`ResilientRoundSim::phase1_device`] and consumed by
/// [`EventRoundSim`](crate::EventRoundSim)'s phase-1 fold (and by the
/// test-only lockstep oracle).
pub(crate) enum Phase1 {
    /// Delivered all its shards.
    Survivor {
        finish: f64,
        comm: f64,
        compute: f64,
        shards: usize,
    },
    /// Alive but cut off by the deadline; delivered `done` shards.
    Cut {
        comm: f64,
        done: usize,
        at_risk: usize,
    },
    /// Transfer never went through (retries exhausted).
    CommFail { elapsed: f64, shards: usize },
    /// Crashed or churned mid-compute at `t_fail`.
    Fail { t_fail: f64, shards: usize },
    /// Offline the whole round.
    Offline { shards: usize },
    /// Departed mid-round at `t` via the continuous churn process (the
    /// lockstep oracle never constructs this variant).
    /// Delivered `done` shards of partial credit before leaving; the
    /// remaining `at_risk` shards are orphaned and rescueable from `t`.
    Departed {
        t: f64,
        comm: f64,
        done: usize,
        at_risk: usize,
    },
}

impl Phase1 {
    /// This entry's contribution to crash detection, as
    /// `(responder candidate, failure candidate)` maxima feeding
    /// [`clock::crash_detection`](crate::clock::crash_detection).
    pub(crate) fn detection_bounds(&self, deadline_s: Option<f64>) -> (f64, f64) {
        match self {
            Phase1::Survivor { finish, .. } => (*finish, 0.0),
            Phase1::Cut { .. } => (deadline_s.unwrap_or(0.0), 0.0),
            Phase1::CommFail { elapsed, .. } => (0.0, *elapsed),
            Phase1::Fail { t_fail, .. } => (0.0, *t_fail),
            Phase1::Offline { .. } => (0.0, 0.0),
            // The server heard from the device until `t` (partial credit
            // was delivered), so a departure bounds detection like a
            // responder, not like a silent crash.
            Phase1::Departed { t, .. } => (*t, 0.0),
        }
    }
}

/// Order-independent per-round accumulators over phase-1 entries.
///
/// Everything in here is a sum, count or max, so absorbing entries in any
/// order yields the same tally — except [`RoundTally::pool`], which is
/// built in *absorption order* and therefore must be fed entries in device
/// index order (the rescue LPT ledger and its telemetry depend on pool
/// order). The event core and the lockstep oracle both absorb in index
/// order.
pub(crate) struct RoundTally {
    /// Shards completed by their originally assigned user.
    pub(crate) completed: usize,
    /// Users that lost at least one shard in phase 1.
    pub(crate) failed_users: usize,
    /// Users cut off by the round deadline.
    pub(crate) timed_out: usize,
    /// Unfinished shards awaiting rescue: `(original user, count)`.
    pub(crate) pool: Vec<(usize, usize)>,
    /// When the server has detected every failure and can reassign.
    pub(crate) detection: f64,
}

impl RoundTally {
    pub(crate) fn new() -> Self {
        RoundTally {
            completed: 0,
            failed_users: 0,
            timed_out: 0,
            pool: Vec::new(),
            detection: 0.0,
        }
    }

    /// Account one phase-1 entry. Returns `(total, busy, comm)`: `total`
    /// is what the server waits on, `busy` the user's own occupied time
    /// (they differ for crashed users, whose absence is only *noticed* at
    /// `crash_det`), `comm` the straggler's communication share if this
    /// entry ends up being the straggler.
    pub(crate) fn absorb(
        &mut self,
        user: usize,
        entry: &Phase1,
        deadline_s: Option<f64>,
        crash_det: f64,
    ) -> (f64, f64, f64) {
        match entry {
            Phase1::Survivor {
                finish,
                comm,
                shards,
                ..
            } => {
                self.completed += shards;
                (*finish, *finish, *comm)
            }
            Phase1::Cut {
                comm,
                done,
                at_risk,
            } => {
                self.completed += done;
                self.pool.push((user, *at_risk));
                let d = deadline_s.unwrap_or(0.0);
                self.detection = self.detection.max(d);
                self.failed_users += 1;
                self.timed_out += 1;
                (d, d, *comm)
            }
            Phase1::CommFail { elapsed, shards } => {
                self.pool.push((user, *shards));
                self.detection = self.detection.max(*elapsed);
                self.failed_users += 1;
                (*elapsed, *elapsed, *elapsed)
            }
            Phase1::Fail { t_fail, shards } => {
                self.pool.push((user, *shards));
                self.detection = self.detection.max(crash_det);
                self.failed_users += 1;
                (crash_det, *t_fail, 0.0)
            }
            Phase1::Offline { shards } => {
                self.pool.push((user, *shards));
                self.failed_users += 1;
                (0.0, 0.0, 0.0)
            }
            Phase1::Departed {
                t,
                comm,
                done,
                at_risk,
            } => {
                self.completed += done;
                self.pool.push((user, *at_risk));
                self.detection = self.detection.max(*t);
                self.failed_users += 1;
                (*t, *t, comm.min(*t))
            }
        }
    }

    /// Shards awaiting rescue.
    pub(crate) fn pool_total(&self) -> usize {
        self.pool.iter().map(|(_, s)| s).sum()
    }
}

/// Running straggler selection: strictly-greater comparison, so among
/// equal-time finishers the *first observed* wins. The lockstep sweep
/// observes in device index order; the event path observes in `(time,
/// seq)` pop order with sequence numbers assigned in index order — the
/// same winner either way.
pub(crate) struct StragglerTrack {
    pub(crate) worst: f64,
    pub(crate) worst_comm: f64,
    pub(crate) straggler: usize,
}

impl StragglerTrack {
    pub(crate) fn new() -> Self {
        StragglerTrack {
            worst: 0.0,
            worst_comm: 0.0,
            straggler: 0,
        }
    }

    pub(crate) fn observe(&mut self, user: usize, total: f64, comm: f64) {
        if total > self.worst {
            self.worst = total;
            self.worst_comm = comm;
            self.straggler = user;
        }
    }
}

/// One cohort's devices, links and fault model, plus the per-round phase
/// primitives [`EventRoundSim`](crate::EventRoundSim) drives. Assembled
/// only by `EventRoundSim::from_spec`, which sizes every per-device field
/// (and the injector's and adversary's plans) to `devices`.
pub(crate) struct ResilientRoundSim {
    pub(crate) devices: Vec<Device>,
    pub(crate) workload: TrainingWorkload,
    pub(crate) link: Link,
    pub(crate) model_bytes: f64,
    pub(crate) rng: StdRng,
    pub(crate) probe: Probe,
    pub(crate) rounds_done: usize,
    pub(crate) injector: FaultInjector,
    pub(crate) retry: RetryPolicy,
    pub(crate) deadline: DeadlinePolicy,
    pub(crate) rescue: bool,
    pub(crate) rescue_soc_floor: f64,
    /// Between-round re-planning: `(scheduler, every)` rounds.
    pub(crate) rescheduler: Option<(Box<dyn Scheduler>, usize)>,
    /// Per-device online profiles. Empty unless a rescheduler, selection
    /// or priors — the only readers — are attached.
    pub(crate) profilers: Vec<OnlineProfiler>,
    pub(crate) has_prior: bool,
    /// Devices the server has observed leaving for good, by a legacy
    /// departure fate or the churn process; the rescheduler starves them.
    /// The event core clears the flag when a device re-arrives under a
    /// non-`Reject` admission policy.
    pub(crate) known_gone: Vec<bool>,
    pub(crate) aggregator: AggregatorKind,
    pub(crate) adversary: Option<AdversaryPlan>,
    pub(crate) selection: Option<SelectionState>,
}

impl ResilientRoundSim {
    /// Overwrite the deadline for the *next* rounds with an
    /// already-resolved cutoff (or clear it). This is the coordination
    /// hook: a `coordinator` [`HierEngine`](crate::HierEngine) resolves one
    /// global deadline from population-pooled predictions and pushes it
    /// into every cohort before the cohorts run.
    pub(crate) fn set_deadline(&mut self, deadline_s: Option<f64>) {
        if let Some(d) = deadline_s {
            assert!(d > 0.0 && d.is_finite(), "deadline must be positive");
        }
        self.deadline = match deadline_s {
            Some(d) => DeadlinePolicy::Fixed(d),
            None => DeadlinePolicy::Off,
        };
    }

    /// The deadline resolved for the coming round over the active set:
    /// `Fixed` passes through, adaptive policies pool the predicted times
    /// of the users the round will actually touch. Idle users would
    /// predict `0.0` and [`DeadlinePolicy::resolve`] ignores non-positive
    /// entries, so leaving them out never changes the resolved cutoff.
    pub(crate) fn round_deadline_active(
        &self,
        current: &Schedule,
        active: &[usize],
    ) -> Option<f64> {
        match self.deadline {
            DeadlinePolicy::Off => None,
            DeadlinePolicy::Fixed(d) => Some(d),
            _ => {
                let comm = self.link.round_seconds(self.model_bytes);
                let predicted: Vec<f64> = active
                    .iter()
                    .map(|&j| {
                        let samples = (current.shards[j] as f64 * current.shard_size) as usize;
                        clock::predict_user_time(&self.devices[j], &self.workload, comm, samples)
                    })
                    .collect();
                self.deadline.resolve(&predicted)
            }
        }
    }

    /// Reset every device's thermal state (between experiment arms).
    pub(crate) fn cool_down(&mut self) {
        for d in &mut self.devices {
            d.cool_down();
        }
    }

    /// Lockstep oracle: the deadline resolved over *every* device's
    /// prediction, idle ones included.
    #[cfg(test)]
    fn round_deadline(&self, current: &Schedule) -> Option<f64> {
        match self.deadline {
            DeadlinePolicy::Off => None,
            DeadlinePolicy::Fixed(d) => Some(d),
            _ => {
                let predicted = clock::predict_round_times(
                    &self.devices,
                    &self.workload,
                    &self.link,
                    self.model_bytes,
                    current,
                );
                self.deadline.resolve(&predicted)
            }
        }
    }

    /// Lockstep oracle: simulate `rounds` synchronous rounds by sweeping
    /// every device in index order, starting from `schedule` (which a
    /// configured rescheduler may replace between rounds). It drives the
    /// same phase primitives as [`EventRoundSim`](crate::EventRoundSim),
    /// which must reproduce its reports and traces bit for bit on every
    /// configuration both support (everything but the churn process).
    ///
    /// # Panics
    /// Panics if the schedule's user count differs from the cohort size.
    #[cfg(test)]
    pub(crate) fn run(&mut self, schedule: &Schedule, rounds: usize) -> ChaosReport {
        assert_eq!(
            schedule.shards.len(),
            self.devices.len(),
            "schedule/cohort size mismatch"
        );
        let n = self.devices.len();
        let orig_total = schedule.total_shards();
        let mut current = schedule.clone();
        let mut per_round = Vec::with_capacity(rounds);
        let mut user_totals = vec![0.0f64; n];
        let mut straggler_comm = 0.0f64;
        let mut outcomes = Vec::with_capacity(rounds);

        for _ in 0..rounds {
            let round = self.rounds_done;
            // Bandit selection re-splits the load before anything else
            // looks at the schedule; without selection this is a no-op.
            self.selection_begin(&mut current, orig_total);
            // Resolve the deadline for this round *before* anything draws
            // from the RNG: adaptive policies predict on clones, so the
            // resolution is invisible to the simulation proper.
            let deadline_s = self.round_deadline(&current);
            let participants = current.shards.iter().filter(|&&k| k > 0).count();
            self.probe.emit(|| Event::RoundStart {
                round,
                n_users: participants,
            });

            let lossy = self.emit_round_faults(round);

            // Phase 1: every scheduled device attempts its round, in
            // device index order.
            let mut entries: Vec<(usize, Phase1)> = Vec::new();
            // Profiler observations `(device, samples, seconds)` gathered
            // from everything the server actually received this round.
            let mut observed: Vec<(usize, f64, f64)> = Vec::new();
            for j in 0..n {
                let samples = (current.shards[j] as f64 * current.shard_size) as usize;
                if samples == 0 {
                    continue;
                }
                let entry =
                    self.phase1_device(round, j, &current, &lossy, deadline_s, None, &mut observed);
                entries.push((j, entry));
            }

            // Crashed users are detected at the deadline when one is set;
            // otherwise the server only notices once everyone who will
            // respond has responded.
            let mut responder_max = 0.0f64;
            let mut fail_max = 0.0f64;
            for (_, e) in &entries {
                let (r, f) = e.detection_bounds(deadline_s);
                responder_max = responder_max.max(r);
                fail_max = fail_max.max(f);
            }
            let crash_det = clock::crash_detection(deadline_s, responder_max, fail_max);

            // Aggregate phase 1: makespan/straggler selection runs in device
            // index order (strictly-greater, so the first maximum wins).
            let mut tally = RoundTally::new();
            let mut track = StragglerTrack::new();
            for (j, e) in &entries {
                let (total, busy, comm_v) = tally.absorb(*j, e, deadline_s, crash_det);
                user_totals[*j] += busy;
                track.observe(*j, total, comm_v);
            }

            // Phase 2: rescue. Reassign the pool per-shard (LPT greedy) to
            // survivors; each rescuer pays an extra transfer plus the
            // reassigned compute, simulated on the real device model.
            let mut rescued = 0usize;
            if self.rescue && tally.pool_total() > 0 {
                rescued = self.rescue_phase(
                    round,
                    &lossy,
                    current.shard_size,
                    &entries,
                    &tally,
                    &mut track,
                    &mut user_totals,
                    &mut observed,
                );
            }

            let rejected_updates = self.robust_overlay(round, &entries);

            // Selection rewards settle after the round closes; the clone
            // exists only while a policy is attached.
            let observed_for_reward = if self.selection.is_some() {
                observed.clone()
            } else {
                Vec::new()
            };
            let outcome = self.close_round(
                round,
                current.total_shards(),
                &tally,
                &track,
                rescued,
                0,
                0,
                rejected_updates,
                observed,
            );
            per_round.push(track.worst);
            straggler_comm += if track.worst > 0.0 {
                track.worst_comm / track.worst
            } else {
                0.0
            };
            outcomes.push(outcome);

            self.selection_settle(round, &observed_for_reward);
            self.maybe_reschedule(&mut current, orig_total);
        }

        assemble_report(per_round, outcomes, &user_totals, straggler_comm, rounds)
    }

    /// Emit this round's injected-fault telemetry (outage windows, group
    /// outages) and build the lossy link every transfer goes through.
    pub(crate) fn emit_round_faults(&self, round: usize) -> LossyLink {
        let outage_windows = self.injector.outages(round).to_vec();
        for &(s, e) in &outage_windows {
            self.probe.emit(|| Event::FaultInjected {
                round,
                device: None,
                kind: "outage".to_string(),
                magnitude: e - s,
            });
        }
        for &(group, duration_rounds) in self.injector.group_outages(round) {
            let members = self.injector.group_members(group).len();
            self.probe.emit(|| Event::GroupOutage {
                round,
                group,
                members,
                duration_rounds,
            });
        }
        LossyLink::new(self.link, self.injector.loss_prob()).with_outages(outage_windows)
    }

    /// Phase 1 for one scheduled device: fate check, transfer under the
    /// retry policy, compute, deadline cut — with all per-user telemetry
    /// and profiler observations. Main-RNG consumption is one comm sample
    /// plus one compute call when no fault fires, so callers must invoke
    /// this in device index order over the scheduled (non-idle) users.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn phase1_device(
        &mut self,
        round: usize,
        j: usize,
        current: &Schedule,
        lossy: &LossyLink,
        deadline_s: Option<f64>,
        depart_at: Option<f64>,
        observed: &mut Vec<(usize, f64, f64)>,
    ) -> Phase1 {
        let k = current.shards[j];
        let samples = (k as f64 * current.shard_size) as usize;
        debug_assert!(samples > 0, "idle devices never enter phase 1");
        let fate = self.injector.fate(round, j);
        if !fate.is_online() {
            if matches!(fate, DeviceFate::Departed) {
                self.known_gone[j] = true;
            }
            self.probe.emit(|| Event::UserTimeout {
                round,
                user: j,
                cause: "offline".to_string(),
                shards_at_risk: k,
            });
            return Phase1::Offline { shards: k };
        }
        let cont = self.injector.contention(round, j);
        if cont > 1.0 {
            self.probe.emit(|| Event::FaultInjected {
                round,
                device: Some(j),
                kind: "contention".to_string(),
                magnitude: cont,
            });
        }
        let mut ds = self.injector.draw_stream(round, j);
        let transfer = lossy.transfer(
            self.model_bytes,
            0.0,
            &self.retry,
            &mut self.rng,
            &mut || ds.next_u01(),
        );
        for (i, &(el, cause)) in transfer.failures.iter().enumerate() {
            self.probe.emit(|| Event::TransferRetry {
                round,
                user: j,
                attempt: i + 1,
                cause: cause.as_str().to_string(),
                elapsed_s: el,
            });
        }
        if !transfer.delivered {
            self.probe.emit(|| Event::UserTimeout {
                round,
                user: j,
                cause: "comm".to_string(),
                shards_at_risk: k,
            });
            return Phase1::CommFail {
                elapsed: transfer.elapsed_s,
                shards: k,
            };
        }
        let comm = transfer.elapsed_s;
        let compute = self.devices[j].train_samples(&self.workload, samples)
            * cont
            * self.injector.slowdown(round, j);
        match fate {
            DeviceFate::Crash { at_frac } | DeviceFate::Depart { at_frac } => {
                let kind = if matches!(fate, DeviceFate::Depart { .. }) {
                    self.known_gone[j] = true;
                    "churn"
                } else {
                    "crash"
                };
                self.probe.emit(|| Event::FaultInjected {
                    round,
                    device: Some(j),
                    kind: kind.to_string(),
                    magnitude: at_frac,
                });
                self.probe.emit(|| Event::UserTimeout {
                    round,
                    user: j,
                    cause: kind.to_string(),
                    shards_at_risk: k,
                });
                Phase1::Fail {
                    t_fail: comm + at_frac * compute,
                    shards: k,
                }
            }
            _ => {
                let finish = comm + compute;
                // Mid-round process departure (the lockstep oracle always
                // passes `None`). Legacy fates
                // take precedence above; a departure fires only on the
                // otherwise healthy path, and only if it *strictly*
                // precedes both the device's own finish and any deadline
                // (on a tie the deadline cut wins).
                if let Some(t_dep) = depart_at {
                    if t_dep < finish && deadline_s.is_none_or(|d| t_dep < d) {
                        self.known_gone[j] = true;
                        let cut = clock::deadline_cut(k, comm, compute, t_dep);
                        let done = if t_dep <= comm { 0 } else { cut.done };
                        if done > 0 {
                            self.probe.emit(|| Event::UserSpan {
                                round,
                                user: j,
                                compute_s: cut.span_compute,
                                comm_s: comm,
                            });
                            observed.push((j, done as f64 * current.shard_size, cut.span_compute));
                        }
                        self.probe.emit(|| Event::DeviceDepart {
                            round,
                            t_s: t_dep,
                            user: j,
                        });
                        self.probe.emit(|| Event::ShardsOrphaned {
                            round,
                            user: j,
                            shards: k - done,
                        });
                        return Phase1::Departed {
                            t: t_dep,
                            comm,
                            done,
                            at_risk: k - done,
                        };
                    }
                }
                match deadline_s {
                    Some(d) if finish > d => {
                        let cut = clock::deadline_cut(k, comm, compute, d);
                        self.probe.emit(|| Event::UserSpan {
                            round,
                            user: j,
                            compute_s: cut.span_compute,
                            comm_s: comm,
                        });
                        self.probe.emit(|| Event::UserTimeout {
                            round,
                            user: j,
                            cause: "deadline".to_string(),
                            shards_at_risk: k - cut.done,
                        });
                        observed.push((j, cut.done as f64 * current.shard_size, cut.span_compute));
                        Phase1::Cut {
                            comm,
                            done: cut.done,
                            at_risk: k - cut.done,
                        }
                    }
                    _ => {
                        self.probe.emit(|| Event::UserSpan {
                            round,
                            user: j,
                            compute_s: compute,
                            comm_s: comm,
                        });
                        observed.push((j, samples as f64, compute));
                        Phase1::Survivor {
                            finish,
                            comm,
                            compute,
                            shards: k,
                        }
                    }
                }
            }
        }
    }

    /// Phase 2: LPT-reassign the tally's unfinished pool to eligible
    /// survivors; each rescuer pays an extra transfer plus the reassigned
    /// compute, simulated on the real device model. Mutates the straggler
    /// track / per-user totals / profiler observations in place and
    /// returns the number of rescued shards.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rescue_phase(
        &mut self,
        round: usize,
        lossy: &LossyLink,
        shard_size: f64,
        entries: &[(usize, Phase1)],
        tally: &RoundTally,
        track: &mut StragglerTrack,
        user_totals: &mut [f64],
        observed: &mut Vec<(usize, f64, f64)>,
    ) -> usize {
        let n = self.devices.len();
        struct Target {
            j: usize,
            avail: f64,
            per_shard: f64,
            assigned: usize,
        }
        let mut targets: Vec<Target> = entries
            .iter()
            .filter_map(|(j, e)| match e {
                Phase1::Survivor {
                    finish,
                    compute,
                    shards,
                    ..
                } if self.devices[*j].battery_soc() >= self.rescue_soc_floor => Some(Target {
                    j: *j,
                    avail: clock::rescue_available(*finish, tally.detection),
                    per_shard: compute / *shards as f64,
                    assigned: 0,
                }),
                _ => None,
            })
            .collect();
        if targets.is_empty() {
            return 0;
        }
        // `(from, to, shards)` reassignment ledger for telemetry.
        let mut ledger: Vec<(usize, usize, usize)> = Vec::new();
        for &(from, count) in &tally.pool {
            for _ in 0..count {
                let ti = targets
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        let ca = a.avail + (a.assigned + 1) as f64 * a.per_shard;
                        let cb = b.avail + (b.assigned + 1) as f64 * b.per_shard;
                        ca.partial_cmp(&cb).expect("finite rescue costs")
                    })
                    .map(|(i, _)| i)
                    .expect("targets non-empty");
                targets[ti].assigned += 1;
                let to = targets[ti].j;
                match ledger.iter_mut().find(|l| l.0 == from && l.1 == to) {
                    Some(l) => l.2 += 1,
                    None => ledger.push((from, to, 1)),
                }
            }
        }
        for &(from_user, to_user, shards) in &ledger {
            self.probe.emit(|| Event::ShardsReassigned {
                round,
                from_user,
                to_user,
                shards,
            });
        }
        // Execute in target index order so main-RNG consumption is a pure
        // function of the plan.
        let mut rescued = 0usize;
        for t in &targets {
            if t.assigned == 0 {
                continue;
            }
            let mut ds = self.injector.draw_stream(round, n + t.j);
            let transfer = lossy.transfer(
                self.model_bytes,
                t.avail,
                &self.retry,
                &mut self.rng,
                &mut || ds.next_u01(),
            );
            for (i, &(el, cause)) in transfer.failures.iter().enumerate() {
                self.probe.emit(|| Event::TransferRetry {
                    round,
                    user: t.j,
                    attempt: i + 1,
                    cause: cause.as_str().to_string(),
                    elapsed_s: el,
                });
            }
            if !transfer.delivered {
                self.probe.emit(|| Event::UserTimeout {
                    round,
                    user: t.j,
                    cause: "comm".to_string(),
                    shards_at_risk: t.assigned,
                });
                user_totals[t.j] += transfer.elapsed_s;
                track.observe(t.j, t.avail + transfer.elapsed_s, transfer.elapsed_s);
                continue;
            }
            let extra_samples = (t.assigned as f64 * shard_size) as usize;
            let cont = self.injector.contention(round, t.j);
            let compute = self.devices[t.j].train_samples(&self.workload, extra_samples)
                * cont
                * self.injector.slowdown(round, t.j);
            rescued += t.assigned;
            observed.push((t.j, extra_samples as f64, compute));
            user_totals[t.j] += transfer.elapsed_s + compute;
            track.observe(
                t.j,
                t.avail + transfer.elapsed_s + compute,
                transfer.elapsed_s,
            );
        }
        rescued
    }

    /// Robust aggregation overlay: when a (non-quiet) adversary is
    /// attached, the server scores every primary-phase delivery with the
    /// configured aggregator over low-dimensional proxy updates. The
    /// timing path has no parameter vectors, so deliveries are synthesized
    /// as a shared per-round direction plus per-user jitter — both from
    /// the plan's scoped draw streams — and the plan's attack transform is
    /// applied on top for compromised users. Nothing here touches the main
    /// RNG or round timing, and the whole block is skipped (zero events,
    /// zero draws) without an adversary, preserving trace byte-identity.
    pub(crate) fn robust_overlay(&self, round: usize, entries: &[(usize, Phase1)]) -> usize {
        let n = self.devices.len();
        let Some(plan) = &self.adversary else {
            return 0;
        };
        if plan.is_quiet() {
            return 0;
        }
        // `(user, shards delivered)` for phase-1 deliveries.
        let deliverers: Vec<(usize, usize)> = entries
            .iter()
            .filter_map(|(j, e)| match e {
                Phase1::Survivor { shards, .. } => Some((*j, *shards)),
                Phase1::Cut { done, .. } if *done > 0 => Some((*j, *done)),
                Phase1::Departed { done, .. } if *done > 0 => Some((*j, *done)),
                _ => None,
            })
            .collect();
        if deliverers.is_empty() {
            return 0;
        }
        let zeros = vec![0.0f32; PROXY_DIM];
        // Channels below `2 * n` are reserved for the plan's own attack
        // noise; proxy synthesis starts past them.
        let mut dir = plan.draw_stream(round, 2 * n);
        let direction: Vec<f32> = (0..PROXY_DIM)
            .map(|_| (dir.next_u01() * 2.0 - 1.0) as f32)
            .collect();
        let updates: Vec<(Vec<f32>, usize)> = deliverers
            .iter()
            .map(|&(j, shards)| {
                let mut jitter = plan.draw_stream(round, 2 * n + 1 + j);
                let mut u: Vec<f32> = direction
                    .iter()
                    .map(|&d| d + 0.1 * (jitter.next_u01() * 2.0 - 1.0) as f32)
                    .collect();
                plan.apply(round, j, &zeros, &mut u);
                (u, shards)
            })
            .collect();
        let agg = self.aggregator.build();
        let outcome = agg.aggregate(&updates);
        for &idx in &outcome.rejected {
            let user = deliverers[idx].0;
            let score = outcome.scores[idx];
            self.probe.emit(|| Event::UpdateRejected {
                round,
                user,
                aggregator: agg.name().to_string(),
                score,
            });
        }
        let rejected_updates = outcome.rejected.len();
        let mean_score = outcome.mean_score();
        self.probe.emit(|| Event::RobustAggregate {
            round,
            aggregator: agg.name().to_string(),
            n_updates: updates.len(),
            rejected: rejected_updates,
            mean_score,
        });
        rejected_updates
    }

    /// Close the round: degradation + round-end telemetry, advance the
    /// global round counter, fold `observed` into the online profilers,
    /// and produce the round's [`RoundOutcome`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn close_round(
        &mut self,
        round: usize,
        scheduled: usize,
        tally: &RoundTally,
        track: &StragglerTrack,
        rescued: usize,
        admitted: usize,
        admit_done: usize,
        rejected_updates: usize,
        observed: Vec<(usize, f64, f64)>,
    ) -> RoundOutcome {
        debug_assert!(admit_done <= admitted, "admission credit exceeds grant");
        let completed = tally.completed;
        let lost = tally.pool_total() - rescued;
        // Admitted work joins the denominator as well as the numerator, so
        // mid-round joiners can never push coverage above 1. With no churn
        // (`admitted == 0`) this is exactly the legacy formula.
        let coverage = if scheduled == 0 {
            1.0
        } else {
            (completed + rescued + admit_done) as f64 / (scheduled + admitted) as f64
        };
        if completed < scheduled {
            self.probe.emit(|| Event::RoundDegraded {
                round,
                scheduled,
                completed,
                rescued,
                lost,
                coverage,
            });
        }
        self.probe.emit(|| Event::RoundEnd {
            round,
            makespan_s: track.worst,
            straggler: track.straggler,
        });
        self.rounds_done += 1;
        if !self.profilers.is_empty() {
            for (j, samples, seconds) in observed {
                self.profilers[j].observe(samples, seconds);
            }
        }
        RoundOutcome {
            round,
            scheduled,
            completed,
            rescued,
            lost_shards: lost,
            admitted,
            admit_done,
            carried: admitted - admit_done,
            coverage,
            makespan_s: track.worst,
            failed_users: tally.failed_users,
            timed_out: tally.timed_out,
            rejected_updates,
        }
    }

    /// Between-round rescheduling: re-plan the *next* round from the
    /// online profiles fitted this round. Returns whether `current` was
    /// replaced — the event path rebuilds its active set when it was.
    pub(crate) fn maybe_reschedule(&self, current: &mut Schedule, orig_total: usize) -> bool {
        let Some((scheduler, every)) = &self.rescheduler else {
            return false;
        };
        if !self.rounds_done.is_multiple_of(*every) || orig_total == 0 {
            return false;
        }
        self.replan(scheduler.as_ref(), current, orig_total, |j| {
            if self.known_gone[j] || (self.profilers[j].observations() == 0 && !self.has_prior) {
                penalty()
            } else {
                self.profilers[j].profile()
            }
        })
    }

    /// Plan `orig_total` shards with `scheduler` over every device, priced
    /// by `profile(j)` plus the link's round-trip estimate, and replace
    /// `current` when the scheduler accepts. Returns whether it did.
    fn replan(
        &self,
        scheduler: &dyn Scheduler,
        current: &mut Schedule,
        orig_total: usize,
        profile: impl Fn(usize) -> LinearProfile,
    ) -> bool {
        let n = self.devices.len();
        let profiles: Vec<LinearProfile> = (0..n).map(profile).collect();
        let comm_est = self.link.round_seconds(self.model_bytes);
        let costs = CostMatrix::from_profiles(
            &profiles,
            orig_total,
            current.shard_size,
            &vec![comm_est; n],
        );
        let next = scheduler.schedule_traced(&costs, &self.probe);
        next.map(|next| *current = next).is_ok()
    }

    /// Bandit selection for the coming round: pick the cohort from devices
    /// not known gone, snapshot their SoC, emit `bandit_select`, and
    /// re-split the full shard load among the picked devices. Returns
    /// whether `current` was replaced — the event path rebuilds its active
    /// set when it was. A no-op without a policy attached, with nothing
    /// scheduled, or with every device known gone.
    pub(crate) fn selection_begin(&mut self, current: &mut Schedule, orig_total: usize) -> bool {
        let n = self.devices.len();
        let round = self.rounds_done;
        let Some(sel) = &mut self.selection else {
            return false;
        };
        if orig_total == 0 {
            return false;
        }
        let eligible: Vec<bool> = self.known_gone.iter().map(|&g| !g).collect();
        let avail = eligible.iter().filter(|&&e| e).count();
        if avail == 0 {
            return false;
        }
        let k = sel.config.k.min(avail);
        let mut stream = selection_stream(sel.seed, round as u64);
        let selected = sel.policy.select(&eligible, k, &mut stream);
        debug_assert!(!selected.is_empty(), "k >= 1 with an eligible device");
        let mut picked = vec![false; n];
        for &j in &selected {
            sel.soc_at_select[j] = self.devices[j].battery_soc();
            picked[j] = true;
        }
        sel.last_selected = selected.clone();
        let policy_name = sel.policy.name();
        self.probe.emit(|| Event::BanditSelect {
            round,
            policy: policy_name.to_string(),
            k,
            selected: selected.clone(),
        });
        // Re-split the full load among the picked devices. Before any
        // profiler evidence exists the split is a plain equal division
        // (index-order remainder); afterwards the inner Fed-LBAP plans
        // over observed profiles, with unpicked/gone devices priced out
        // by the penalty profile and picked-but-unobserved devices given
        // the observed mean ("neutral") profile so exploration targets
        // are not starved before their first pull.
        let observed_profiles: Vec<LinearProfile> = selected
            .iter()
            .filter(|&&j| self.profilers[j].observations() > 0 || self.has_prior)
            .map(|&j| self.profilers[j].profile())
            .collect();
        if observed_profiles.is_empty() {
            let mut shards = vec![0usize; n];
            let base = orig_total / selected.len();
            let rem = orig_total % selected.len();
            for (i, &j) in selected.iter().enumerate() {
                shards[j] = base + usize::from(i < rem);
            }
            *current = Schedule::new(shards, current.shard_size);
            return true;
        }
        let m = observed_profiles.len() as f64;
        let neutral = LinearProfile::new(
            observed_profiles.iter().map(|p| p.fixed).sum::<f64>() / m,
            observed_profiles.iter().map(|p| p.per_sample).sum::<f64>() / m,
        );
        self.replan(&FedLbap, current, orig_total, |j| {
            if !picked[j] || self.known_gone[j] {
                penalty()
            } else if self.profilers[j].observations() == 0 && !self.has_prior {
                neutral.clone()
            } else {
                self.profilers[j].profile()
            }
        })
    }

    /// Credit this round's picked arms: observed throughput (samples per
    /// second over everything the server received from the device this
    /// round) discounted by the battery drawn since selection; picked
    /// devices that delivered nothing earn `0.0`. Emits one
    /// `bandit_reward` event per picked arm, in device-index order.
    pub(crate) fn selection_settle(&mut self, round: usize, observed: &[(usize, f64, f64)]) {
        let Some(sel) = &mut self.selection else {
            return;
        };
        if sel.last_selected.is_empty() {
            return;
        }
        let selected = std::mem::take(&mut sel.last_selected);
        for &j in &selected {
            let (mut samples, mut seconds) = (0.0f64, 0.0f64);
            for &(dev, s, t) in observed {
                if dev == j {
                    samples += s;
                    seconds += t;
                }
            }
            let soc_drop = (sel.soc_at_select[j] - self.devices[j].battery_soc()).max(0.0);
            let reward = if samples > 0.0 && seconds > 0.0 {
                (samples / seconds) / (1.0 + soc_drop)
            } else {
                0.0
            };
            sel.policy.update(j, reward);
            let mean = sel.policy.mean(j);
            let pulls = sel.policy.pulls(j) as usize;
            self.probe.emit(|| Event::BanditReward {
                round,
                user: j,
                reward,
                mean,
                pulls,
            });
        }
    }

    /// Mid-round admission: hand `shards` orphaned shards to an arrived
    /// `joiner`, starting at `start` (its arrival clamped by failure
    /// detection — [`clock::admission_start`]). The joiner pays a model
    /// transfer plus the assigned compute on the real device model, on
    /// fault channel `3n + 1 + joiner` (disjoint from phase-1 `0..n` and
    /// rescue `n..2n`). Honors the rescue SoC floor.
    ///
    /// Returns `None` when the joiner is ineligible (below the SoC floor:
    /// nothing is granted, nothing emitted), otherwise `Some(done)` — the
    /// shards actually completed (`0` when the transfer failed; the grant
    /// itself is then *carried*, not lost twice).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn admission_phase(
        &mut self,
        round: usize,
        lossy: &LossyLink,
        shard_size: f64,
        joiner: usize,
        start: f64,
        shards: usize,
        track: &mut StragglerTrack,
        user_totals: &mut [f64],
        observed: &mut Vec<(usize, f64, f64)>,
    ) -> Option<usize> {
        if self.devices[joiner].battery_soc() < self.rescue_soc_floor {
            return None;
        }
        self.probe.emit(|| Event::MidRoundAdmit {
            round,
            t_s: start,
            user: joiner,
            shards,
        });
        let n = self.devices.len();
        let mut ds = self.injector.draw_stream(round, 3 * n + 1 + joiner);
        let transfer = lossy.transfer(
            self.model_bytes,
            start,
            &self.retry,
            &mut self.rng,
            &mut || ds.next_u01(),
        );
        for (i, &(el, cause)) in transfer.failures.iter().enumerate() {
            self.probe.emit(|| Event::TransferRetry {
                round,
                user: joiner,
                attempt: i + 1,
                cause: cause.as_str().to_string(),
                elapsed_s: el,
            });
        }
        if !transfer.delivered {
            self.probe.emit(|| Event::UserTimeout {
                round,
                user: joiner,
                cause: "comm".to_string(),
                shards_at_risk: shards,
            });
            user_totals[joiner] += transfer.elapsed_s;
            track.observe(joiner, start + transfer.elapsed_s, transfer.elapsed_s);
            return Some(0);
        }
        let samples = (shards as f64 * shard_size) as usize;
        let cont = self.injector.contention(round, joiner);
        let compute = self.devices[joiner].train_samples(&self.workload, samples)
            * cont
            * self.injector.slowdown(round, joiner);
        observed.push((joiner, samples as f64, compute));
        user_totals[joiner] += transfer.elapsed_s + compute;
        track.observe(
            joiner,
            start + transfer.elapsed_s + compute,
            transfer.elapsed_s,
        );
        Some(shards)
    }
}

/// Fold run-level accumulators into the final [`ChaosReport`]. Shared by
/// the event core and the lockstep oracle so the report arithmetic lives
/// in exactly one place.
pub(crate) fn assemble_report(
    per_round: Vec<f64>,
    outcomes: Vec<RoundOutcome>,
    user_totals: &[f64],
    straggler_comm: f64,
    rounds: usize,
) -> ChaosReport {
    ChaosReport {
        timing: TimingReport {
            per_round_makespan: per_round,
            per_user_mean: user_totals.iter().map(|t| t / rounds as f64).collect(),
            comm_fraction: if rounds == 0 {
                0.0
            } else {
                straggler_comm / rounds as f64
            },
        },
        rounds: outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{RoundConfig, SimBuilder};
    use fedsched_device::Testbed;
    use fedsched_faults::FaultConfig;

    fn devices(seed: u64) -> Vec<Device> {
        Testbed::testbed_1(seed).devices().to_vec()
    }

    fn link() -> Link {
        Link::new(100.0, 100.0, 0.0, 0.05)
    }

    fn schedule() -> Schedule {
        Schedule::new(vec![10, 10, 10], 100.0)
    }

    /// A builder over `devices` simulated from `seed`.
    fn builder_over(devices: Vec<Device>, seed: u64) -> SimBuilder {
        let config = RoundConfig::new(TrainingWorkload::lenet(), link(), 2.5e6, seed);
        SimBuilder::new(devices, config)
    }

    /// A builder over testbed 1 whose fleet and simulation share `seed`.
    fn builder(seed: u64) -> SimBuilder {
        builder_over(devices(seed), seed)
    }

    /// The lockstep oracle configured by `builder`.
    fn oracle(builder: SimBuilder) -> ResilientRoundSim {
        builder.build_event_sim().unwrap().into_inner()
    }

    #[test]
    fn quiet_run_completes_everything_and_matches_the_event_core() {
        let lockstep = oracle(builder(11)).run(&schedule(), 4);
        let event = builder(11).build_event_sim().unwrap().run(&schedule(), 4);
        assert_eq!(lockstep, event, "quiet rounds must match bit for bit");
        for r in &lockstep.rounds {
            assert_eq!(r.completed, 30);
            assert_eq!(r.lost_shards, 0);
            assert_eq!(r.coverage, 1.0);
        }
    }

    #[test]
    fn same_seed_replays_identically() {
        let config = FaultConfig::none()
            .with_crash_prob(0.3)
            .with_loss_prob(0.1)
            .with_contention(0.2, 1.5);
        let run = || {
            let inj = FaultInjector::from_config(config.clone(), 3, 10, 77);
            let mut sim = oracle(
                builder(7)
                    .injector(inj)
                    .retry(RetryPolicy::default_chaos())
                    .deadline(DeadlinePolicy::Fixed(60.0)),
            );
            sim.run(&schedule(), 10)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn shard_accounting_is_conserved_every_round() {
        let config = FaultConfig::none()
            .with_crash_prob(0.4)
            .with_churn_prob(0.05)
            .with_loss_prob(0.2)
            .with_outages(0.3, 40.0, 10.0);
        let mut sim = oracle(
            builder(5)
                .faults(config, 12)
                .retry(RetryPolicy::default_chaos())
                .deadline(DeadlinePolicy::Fixed(45.0)),
        );
        let report = sim.run(&schedule(), 12);
        for r in &report.rounds {
            assert_eq!(
                r.completed + r.rescued + r.lost_shards,
                r.scheduled,
                "round {}: {} + {} + {} != {}",
                r.round,
                r.completed,
                r.rescued,
                r.lost_shards,
                r.scheduled
            );
            assert!((0.0..=1.0).contains(&r.coverage));
        }
    }

    #[test]
    fn rescue_recovers_shards_lost_without_it() {
        let config = FaultConfig::none().with_crash_prob(0.35);
        let run = |rescue: bool| {
            let mut b = builder(21)
                .faults(config.clone(), 15)
                .deadline(DeadlinePolicy::Fixed(60.0));
            if !rescue {
                b = b.no_rescue();
            }
            oracle(b).run(&schedule(), 15)
        };
        let with = run(true);
        let without = run(false);
        assert!(without.total_lost() > 0, "chaos config should cause losses");
        assert!(
            with.total_lost() < without.total_lost(),
            "rescue {} !< no-rescue {}",
            with.total_lost(),
            without.total_lost()
        );
        assert_eq!(
            with.total_rescued() + with.total_lost(),
            without.total_lost()
        );
    }

    #[test]
    fn deadline_caps_phase_one_makespan() {
        let mut sim = oracle(builder(9).deadline(DeadlinePolicy::Fixed(5.0)).no_rescue());
        let report = sim.run(&schedule(), 3);
        for r in &report.rounds {
            assert!(r.makespan_s <= 5.0 + 1e-9, "makespan {}", r.makespan_s);
            assert!(r.timed_out > 0);
            assert!(r.lost_shards > 0);
        }
    }

    #[test]
    fn rescheduler_starves_departed_devices() {
        use fedsched_core::lbap::FedLbap;
        // Device 0 churns out in round 0 with certainty.
        let config = FaultConfig::none().with_churn_prob(1.0);
        let inj = FaultInjector::from_config(config, 3, 1, 2);
        let mut sim = oracle(builder(13).injector(inj).rescheduler(Box::new(FedLbap), 1));
        let report = sim.run(&schedule(), 4);
        // After round 0 every device is known gone... all three churn in
        // round 0, so later rounds keep the old schedule only if the
        // scheduler fails; coverage must collapse to zero from round 1 on
        // (everyone is Departed).
        assert!(report.rounds[1..].iter().all(|r| r.completed == 0));
    }

    #[test]
    fn rescue_respects_battery_soc_floor() {
        // Find a seed whose plan crashes device 1 in round 0 and leaves
        // device 0 healthy, so device 0 is the round's only rescue target.
        let config = FaultConfig::none().with_crash_prob(0.5);
        let seed = (0..200u64)
            .find(|&s| {
                let inj = FaultInjector::from_config(config.clone(), 2, 1, s);
                matches!(inj.fate(0, 0), DeviceFate::Healthy)
                    && matches!(inj.fate(0, 1), DeviceFate::Crash { .. })
            })
            .expect("some seed crashes exactly device 1");
        let run = |floor: Option<f64>| {
            let mut devs = devices(31);
            devs.truncate(2);
            // The only survivor enters the round nearly empty.
            devs[0].set_battery_soc(0.05);
            let inj = FaultInjector::from_config(config.clone(), 2, 1, seed);
            let mut b = builder_over(devs, 31).injector(inj);
            if let Some(f) = floor {
                b = b.rescue_soc_floor(f);
            }
            oracle(b).run(&Schedule::new(vec![5, 5], 100.0), 1)
        };

        // Without a floor the critical device absorbs the orphaned shards.
        let greedy = run(None);
        assert_eq!(greedy.total_rescued(), 5);
        assert_eq!(greedy.total_lost(), 0);

        // With the floor it is protected: the shards are lost instead.
        let guarded = run(Some(0.3));
        assert_eq!(guarded.total_rescued(), 0);
        assert_eq!(guarded.total_lost(), 5);
        assert_eq!(guarded.rounds[0].completed, 5);

        // A floor below the survivor's SoC changes nothing.
        let permissive = run(Some(0.01));
        assert_eq!(permissive.total_rescued(), 5);
    }

    #[test]
    fn zero_soc_floor_is_bit_identical_to_default() {
        let config = FaultConfig::none().with_crash_prob(0.3).with_loss_prob(0.1);
        let run = |explicit_floor: bool| {
            let mut b = builder(17)
                .faults(config.clone(), 8)
                .retry(RetryPolicy::default_chaos());
            if explicit_floor {
                b = b.rescue_soc_floor(0.0);
            }
            oracle(b).run(&schedule(), 8)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn probed_and_unprobed_chaos_runs_agree() {
        use fedsched_telemetry::EventLog;
        use std::sync::Arc;
        let config = FaultConfig::none()
            .with_crash_prob(0.3)
            .with_loss_prob(0.15);
        let run = |probe: Option<Probe>| {
            let mut b = builder(3)
                .faults(config.clone(), 8)
                .retry(RetryPolicy::default_chaos())
                .deadline(DeadlinePolicy::Fixed(50.0));
            if let Some(p) = probe {
                b = b.probe(p);
            }
            oracle(b).run(&schedule(), 8)
        };
        let log = Arc::new(EventLog::new());
        let plain = run(None);
        let probed = run(Some(Probe::attached(log.clone())));
        assert_eq!(plain, probed, "observation must not perturb the run");
        assert!(!log.is_empty());
    }

    #[test]
    fn quiet_adversary_is_bit_identical_to_no_adversary() {
        use fedsched_faults::AdversaryConfig;
        use fedsched_telemetry::EventLog;
        use std::sync::Arc;
        let config = FaultConfig::none().with_crash_prob(0.2).with_loss_prob(0.1);
        let run = |adversary: Option<AdversaryConfig>, kind: AggregatorKind| {
            let log = Arc::new(EventLog::new());
            let mut b = builder(41)
                .faults(config.clone(), 6)
                .probe(Probe::attached(log.clone()))
                .aggregator(kind);
            if let Some(adversary) = adversary {
                b = b.adversary(adversary, 6);
            }
            let report = oracle(b).run(&schedule(), 6);
            (report, log.to_jsonl())
        };
        let baseline = run(None, AggregatorKind::FedAvg);
        for kind in [
            AggregatorKind::FedAvg,
            AggregatorKind::TrimmedMean { trim: 1 },
            AggregatorKind::Median,
            AggregatorKind::Krum { f: 1 },
        ] {
            let got = run(Some(AdversaryConfig::none()), kind);
            assert_eq!(
                baseline,
                got,
                "{}: quiet adversary must be invisible",
                kind.name()
            );
        }
    }

    #[test]
    fn attacked_round_scores_and_rejects_updates() {
        use fedsched_faults::{AdversaryConfig, AttackKind};
        use fedsched_telemetry::EventLog;
        use std::sync::Arc;
        let adv = AdversaryConfig::none().with_attackers(0.34, AttackKind::Boost { factor: 50.0 });
        // Find a seed whose plan compromises exactly one of the 3 devices,
        // so honest updates outnumber attacked ones and Krum can isolate
        // it; the sim runs from that seed, so it plans the same attack.
        let seed = (0..200u64)
            .find(|&s| {
                let p = AdversaryPlan::generate(adv, 3, 6, s);
                (0..3).filter(|&j| p.is_compromised(j)).count() == 1
            })
            .expect("some seed compromises exactly one device");
        let log = Arc::new(EventLog::new());
        let mut sim = oracle(
            builder_over(devices(9), seed)
                .probe(Probe::attached(log.clone()))
                .aggregator(AggregatorKind::MultiKrum { f: 1, k: 2 })
                .adversary(adv, 6),
        );
        let report = sim.run(&schedule(), 6);
        let total_rejected: usize = report.rounds.iter().map(|r| r.rejected_updates).sum();
        assert!(
            total_rejected > 0,
            "multi-krum must exclude boosted updates"
        );
        let events = log.events();
        assert!(events.iter().any(|e| e.kind() == "update_rejected"));
        assert_eq!(
            events
                .iter()
                .filter(|e| e.kind() == "robust_aggregate")
                .count(),
            6,
            "one robust_aggregate per round"
        );
    }

    #[test]
    fn group_outage_downs_the_domain_and_emits_events() {
        use fedsched_telemetry::EventLog;
        use std::sync::Arc;
        let config = FaultConfig::none().with_group_outages(1.0, 3, 1);
        let log = Arc::new(EventLog::new());
        let mut devs = devices(23);
        devs.extend(devices(24));
        devs.truncate(6);
        let mut sim = oracle(
            builder_over(devs, 23)
                .faults(config, 2)
                .probe(Probe::attached(log.clone())),
        );
        let report = sim.run(&Schedule::new(vec![5; 6], 100.0), 2);
        // Probability 1 downs every domain every round: nothing completes.
        assert!(report.rounds.iter().all(|r| r.completed == 0));
        let outages: Vec<_> = log
            .events()
            .into_iter()
            .filter(|e| e.kind() == "group_outage")
            .collect();
        assert_eq!(outages.len(), 6, "3 groups x 2 rounds");
    }
}
