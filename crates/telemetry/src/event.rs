//! The structured event vocabulary of the simulation stack.

use crate::json;
use std::fmt::Write as _;

/// One structured telemetry event.
///
/// Variants are grouped by emitting layer: device simulator, schedulers,
/// round/FL simulation. Every variant encodes to a single deterministic
/// JSON object via [`Event::to_json`]; the `ev` key carries the snake_case
/// variant tag and the remaining keys appear in declaration order.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    // ---- device simulator -------------------------------------------------
    /// The thermal governor's frequency cap changed (a trip point was
    /// crossed in either direction). `cap_ghz` is `f64::INFINITY`-free:
    /// uncapped is reported by the device layer as the max cluster
    /// frequency.
    ThermalCap {
        /// Simulated device-local time, seconds.
        t_s: f64,
        /// Device preset name, e.g. `"Mate10"`.
        device: String,
        /// Die temperature at the transition.
        temp_c: f64,
        /// New effective frequency cap in GHz.
        cap_ghz: f64,
    },
    /// The big cluster was taken offline by the hotplug policy.
    BigClusterOffline {
        t_s: f64,
        device: String,
        temp_c: f64,
    },
    /// The big cluster came back online.
    BigClusterOnline {
        t_s: f64,
        device: String,
        temp_c: f64,
    },
    /// State of charge crossed below a decade boundary (90, 80, ... 10, 0).
    BatterySoc {
        t_s: f64,
        device: String,
        soc_pct: u32,
    },
    /// The battery hit empty; the device can no longer train.
    BatteryDepleted {
        t_s: f64,
        device: String,
        drained_j: f64,
    },

    // ---- schedulers --------------------------------------------------------
    /// A scheduler produced a schedule.
    ScheduleDecision {
        /// Scheduler name as reported by `Scheduler::name()`.
        scheduler: String,
        n_users: usize,
        total_shards: usize,
        /// Fed-LBAP's chosen cost threshold `c*`; `None` for schedulers
        /// that do not binary-search a threshold.
        threshold: Option<f64>,
        /// Per-user shard counts of the final schedule.
        shards: Vec<usize>,
        /// Makespan the cost model predicts for this schedule.
        predicted_makespan: f64,
    },
    /// A scheduler rejected the instance.
    ScheduleRejected {
        scheduler: String,
        n_users: usize,
        total_shards: usize,
        /// Human-readable infeasibility cause (`"no_users"`,
        /// `"infeasible"`, `"dimension_mismatch"`).
        cause: String,
    },
    /// Fed-MinAvg produced a schedule (richer than [`Event::ScheduleDecision`]:
    /// carries the accuracy-aware objective and user open order).
    MinAvgDecision {
        n_users: usize,
        total_shards: usize,
        /// Final combined objective value.
        objective: f64,
        /// Final accuracy-cost term `alpha * f(|C|)`.
        final_alpha_f: f64,
        /// Order in which users were opened by the greedy.
        open_order: Vec<usize>,
        shards: Vec<usize>,
    },

    // ---- round / FL simulation ---------------------------------------------
    /// A synchronous round began.
    RoundStart { round: usize, n_users: usize },
    /// One user's contribution to a round: local compute plus model
    /// up/down transfer time.
    UserSpan {
        round: usize,
        user: usize,
        compute_s: f64,
        comm_s: f64,
    },
    /// A synchronous round completed. `straggler` is the index of the user
    /// whose span set the makespan.
    RoundEnd {
        round: usize,
        makespan_s: f64,
        straggler: usize,
    },
    /// Post-aggregation divergence measurement for a round.
    RoundDivergence { round: usize, mean_cosine: f64 },
    /// Accuracy after a round's aggregation.
    RoundAccuracy { round: usize, accuracy: f64 },

    // ---- fault injection / resilient round control -------------------------
    /// The fault layer injected a fault. `device` is `None` for link-level
    /// faults (outages); `magnitude` carries the fault-specific scalar
    /// (crash/churn progress fraction, contention factor, outage start).
    FaultInjected {
        round: usize,
        device: Option<usize>,
        /// Snake_case kind: `"crash"`, `"churn"`, `"contention"`, `"outage"`.
        kind: String,
        magnitude: f64,
    },
    /// A transfer attempt failed and was retried (or abandoned).
    TransferRetry {
        round: usize,
        user: usize,
        /// Failed attempt number (1-based).
        attempt: usize,
        /// Failure cause: `"loss"`, `"outage"`, `"timeout"`.
        cause: String,
        /// Elapsed simulated seconds within the transfer at the failure.
        elapsed_s: f64,
    },
    /// The round controller gave up on a user this round.
    UserTimeout {
        round: usize,
        user: usize,
        /// Why: `"crash"`, `"churn"`, `"comm"`, `"deadline"`.
        cause: String,
        /// Shards that need rescue (or are lost) because of it.
        shards_at_risk: usize,
    },
    /// Rescue: part of a failed user's work was reassigned to a survivor.
    ShardsReassigned {
        round: usize,
        from_user: usize,
        to_user: usize,
        shards: usize,
    },
    /// Coverage accounting for a round that saw faults or losses.
    RoundDegraded {
        round: usize,
        scheduled: usize,
        completed: usize,
        rescued: usize,
        lost: usize,
        coverage: f64,
    },

    // ---- mid-round device churn --------------------------------------------
    /// A device arrived mid-round and was parked pending admission.
    DeviceArrive {
        round: usize,
        /// Simulated time of the arrival within the round.
        t_s: f64,
        user: usize,
    },
    /// A device departed mid-round, abandoning its remaining work.
    DeviceDepart {
        round: usize,
        /// Simulated time of the departure within the round.
        t_s: f64,
        user: usize,
    },
    /// Shards orphaned by a mid-round departure (queued for rescue).
    ShardsOrphaned {
        round: usize,
        user: usize,
        shards: usize,
    },
    /// A mid-round arrival was admitted and assigned orphaned or
    /// late-straggler shards.
    MidRoundAdmit {
        round: usize,
        /// Simulated time the admitted device started its transfer.
        t_s: f64,
        user: usize,
        shards: usize,
    },

    // ---- online bandit-driven client selection -----------------------------
    /// A bandit selection policy chose this round's participating cohort.
    BanditSelect {
        round: usize,
        /// Policy tag (`"epsilon_greedy"`, `"ucb1"`, `"thompson"`).
        policy: String,
        /// Requested cohort size (selected may be smaller when fewer
        /// devices are eligible).
        k: usize,
        /// Selected device indices, ascending.
        selected: Vec<usize>,
    },
    /// One selected device's post-round reward credit to the policy.
    BanditReward {
        round: usize,
        user: usize,
        /// The reward credited this round (higher = better).
        reward: f64,
        /// The arm's empirical mean after the credit.
        mean: f64,
        /// The arm's pull count after the credit.
        pulls: usize,
    },

    // ---- Byzantine-robust aggregation / correlated failures ----------------
    /// A robust aggregator excluded one user's update from the aggregate.
    UpdateRejected {
        round: usize,
        user: usize,
        /// Aggregation rule name (`"trimmed_mean"`, `"krum"`, ...).
        aggregator: String,
        /// The update's anomaly score (rule-specific scale, higher = more
        /// suspicious).
        score: f64,
    },
    /// A robust aggregation rule ran for a round (round-level summary of
    /// the per-user scores).
    RobustAggregate {
        round: usize,
        aggregator: String,
        /// Updates that reached the aggregator.
        n_updates: usize,
        /// Updates it excluded.
        rejected: usize,
        /// Mean anomaly score across all updates.
        mean_score: f64,
    },
    /// A correlated failure domain went down, taking a device group
    /// offline for a window of rounds.
    GroupOutage {
        round: usize,
        /// Failure-domain index (cohort-local, like cohort seeds; never
        /// remapped).
        group: usize,
        /// Devices in the domain.
        members: usize,
        /// Rounds the domain stays down.
        duration_rounds: usize,
    },

    // ---- cross-cohort coordination -----------------------------------------
    /// The coordinator resolved one global straggler deadline for a round
    /// from pooled per-user predictions and pushed it into every cohort.
    GlobalDeadlineSet {
        round: usize,
        /// Deadline policy name (`"fixed"`, `"mean_factor"`, `"quantile"`).
        policy: String,
        /// The resolved deadline; `None` when the policy could not derive
        /// one (so cohorts run uncapped this round).
        deadline_s: Option<f64>,
        /// Predicted per-user times pooled to resolve the deadline.
        pooled: usize,
        /// Cohorts the deadline was pushed into.
        cohorts: usize,
    },
    /// A cohort straggled in a coordinated round: it set the population
    /// makespan, or the global deadline cut some of its users.
    CohortStraggling {
        round: usize,
        /// Cohort index (not a user index; never remapped).
        cohort: usize,
        /// The cohort's round makespan.
        makespan_s: f64,
        /// The global deadline in force, if any.
        deadline_s: Option<f64>,
        /// Users in the cohort cut off by the deadline.
        timed_out: usize,
    },
    /// An edge aggregator reduced its cohorts' round results before
    /// forwarding one aggregate to the server (two-tier topology).
    EdgeReduce {
        round: usize,
        /// Edge aggregator index (topology-level, like cohort indices;
        /// never remapped).
        edge: usize,
        /// Cohorts this edge reduced.
        cohorts: usize,
        /// Devices under this edge.
        devices: usize,
        /// The edge's reduced round makespan (edge-link time included
        /// when a backhaul link is configured).
        makespan_s: f64,
        /// Sampled edge→server backhaul seconds (0 when no edge link).
        link_s: f64,
    },

    // ---- async / dropout decision points -----------------------------------
    /// A coordinator's buffered-async merge ledger merged a cohort update
    /// with a staleness-discounted weight (`user` is the cohort).
    AsyncMerge {
        t_s: f64,
        user: usize,
        staleness: usize,
        weight: f64,
    },
    /// Deadline-Dropout hard-dropped a user, losing its data for the round.
    DeadlineDrop {
        user: usize,
        predicted_s: f64,
        deadline_s: f64,
        lost_shards: usize,
    },
}

impl Event {
    /// The snake_case tag stored under the `ev` key.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::ThermalCap { .. } => "thermal_cap",
            Event::BigClusterOffline { .. } => "big_cluster_offline",
            Event::BigClusterOnline { .. } => "big_cluster_online",
            Event::BatterySoc { .. } => "battery_soc",
            Event::BatteryDepleted { .. } => "battery_depleted",
            Event::ScheduleDecision { .. } => "schedule_decision",
            Event::ScheduleRejected { .. } => "schedule_rejected",
            Event::MinAvgDecision { .. } => "minavg_decision",
            Event::RoundStart { .. } => "round_start",
            Event::UserSpan { .. } => "user_span",
            Event::RoundEnd { .. } => "round_end",
            Event::RoundDivergence { .. } => "round_divergence",
            Event::RoundAccuracy { .. } => "round_accuracy",
            Event::FaultInjected { .. } => "fault_injected",
            Event::TransferRetry { .. } => "transfer_retry",
            Event::UserTimeout { .. } => "user_timeout",
            Event::ShardsReassigned { .. } => "shards_reassigned",
            Event::RoundDegraded { .. } => "round_degraded",
            Event::DeviceArrive { .. } => "device_arrive",
            Event::DeviceDepart { .. } => "device_depart",
            Event::ShardsOrphaned { .. } => "shards_orphaned",
            Event::MidRoundAdmit { .. } => "mid_round_admit",
            Event::BanditSelect { .. } => "bandit_select",
            Event::BanditReward { .. } => "bandit_reward",
            Event::UpdateRejected { .. } => "update_rejected",
            Event::RobustAggregate { .. } => "robust_aggregate",
            Event::GroupOutage { .. } => "group_outage",
            Event::GlobalDeadlineSet { .. } => "global_deadline_set",
            Event::CohortStraggling { .. } => "cohort_straggling",
            Event::EdgeReduce { .. } => "edge_reduce",
            Event::AsyncMerge { .. } => "async_merge",
            Event::DeadlineDrop { .. } => "deadline_drop",
        }
    }

    /// Shift every *user/device index* field by `offset`, consuming the
    /// event. Round indices, counts, times and device *names* are left
    /// untouched.
    ///
    /// This is the splice adapter for multi-cohort simulation: a cohort
    /// simulator emits events with cohort-local user indices (`0..k`), and
    /// the engine remaps them onto the global population index space
    /// (`start..start+k`) when merging per-cohort buffers into one log.
    pub fn with_user_offset(mut self, offset: usize) -> Event {
        match &mut self {
            Event::UserSpan { user, .. }
            | Event::TransferRetry { user, .. }
            | Event::UserTimeout { user, .. }
            | Event::DeviceArrive { user, .. }
            | Event::DeviceDepart { user, .. }
            | Event::ShardsOrphaned { user, .. }
            | Event::MidRoundAdmit { user, .. }
            | Event::BanditReward { user, .. }
            | Event::UpdateRejected { user, .. }
            | Event::AsyncMerge { user, .. }
            | Event::DeadlineDrop { user, .. }
            | Event::RoundEnd {
                straggler: user, ..
            }
            | Event::FaultInjected {
                device: Some(user), ..
            } => *user += offset,
            Event::ShardsReassigned {
                from_user, to_user, ..
            } => {
                *from_user += offset;
                *to_user += offset;
            }
            Event::BanditSelect { selected, .. } => {
                for j in selected {
                    *j += offset;
                }
            }
            _ => {}
        }
        self
    }

    /// Encode as one deterministic JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"ev\":");
        json::push_str(&mut out, self.kind());
        match self {
            Event::ThermalCap {
                t_s,
                device,
                temp_c,
                cap_ghz,
            } => {
                push_time_device(&mut out, *t_s, device);
                push_f64_field(&mut out, "temp_c", *temp_c);
                push_f64_field(&mut out, "cap_ghz", *cap_ghz);
            }
            Event::BigClusterOffline {
                t_s,
                device,
                temp_c,
            }
            | Event::BigClusterOnline {
                t_s,
                device,
                temp_c,
            } => {
                push_time_device(&mut out, *t_s, device);
                push_f64_field(&mut out, "temp_c", *temp_c);
            }
            Event::BatterySoc {
                t_s,
                device,
                soc_pct,
            } => {
                push_time_device(&mut out, *t_s, device);
                let _ = write!(out, ",\"soc_pct\":{soc_pct}");
            }
            Event::BatteryDepleted {
                t_s,
                device,
                drained_j,
            } => {
                push_time_device(&mut out, *t_s, device);
                push_f64_field(&mut out, "drained_j", *drained_j);
            }
            Event::ScheduleDecision {
                scheduler,
                n_users,
                total_shards,
                threshold,
                shards,
                predicted_makespan,
            } => {
                out.push_str(",\"scheduler\":");
                json::push_str(&mut out, scheduler);
                let _ = write!(
                    out,
                    ",\"n_users\":{n_users},\"total_shards\":{total_shards}"
                );
                out.push_str(",\"threshold\":");
                match threshold {
                    Some(c) => json::push_f64(&mut out, *c),
                    None => out.push_str("null"),
                }
                out.push_str(",\"shards\":");
                json::push_usize_array(&mut out, shards);
                push_f64_field(&mut out, "predicted_makespan", *predicted_makespan);
            }
            Event::ScheduleRejected {
                scheduler,
                n_users,
                total_shards,
                cause,
            } => {
                out.push_str(",\"scheduler\":");
                json::push_str(&mut out, scheduler);
                let _ = write!(
                    out,
                    ",\"n_users\":{n_users},\"total_shards\":{total_shards}"
                );
                out.push_str(",\"cause\":");
                json::push_str(&mut out, cause);
            }
            Event::MinAvgDecision {
                n_users,
                total_shards,
                objective,
                final_alpha_f,
                open_order,
                shards,
            } => {
                let _ = write!(
                    out,
                    ",\"n_users\":{n_users},\"total_shards\":{total_shards}"
                );
                push_f64_field(&mut out, "objective", *objective);
                push_f64_field(&mut out, "final_alpha_f", *final_alpha_f);
                out.push_str(",\"open_order\":");
                json::push_usize_array(&mut out, open_order);
                out.push_str(",\"shards\":");
                json::push_usize_array(&mut out, shards);
            }
            Event::RoundStart { round, n_users } => {
                let _ = write!(out, ",\"round\":{round},\"n_users\":{n_users}");
            }
            Event::UserSpan {
                round,
                user,
                compute_s,
                comm_s,
            } => {
                let _ = write!(out, ",\"round\":{round},\"user\":{user}");
                push_f64_field(&mut out, "compute_s", *compute_s);
                push_f64_field(&mut out, "comm_s", *comm_s);
            }
            Event::RoundEnd {
                round,
                makespan_s,
                straggler,
            } => {
                let _ = write!(out, ",\"round\":{round}");
                push_f64_field(&mut out, "makespan_s", *makespan_s);
                let _ = write!(out, ",\"straggler\":{straggler}");
            }
            Event::RoundDivergence { round, mean_cosine } => {
                let _ = write!(out, ",\"round\":{round}");
                push_f64_field(&mut out, "mean_cosine", *mean_cosine);
            }
            Event::RoundAccuracy { round, accuracy } => {
                let _ = write!(out, ",\"round\":{round}");
                push_f64_field(&mut out, "accuracy", *accuracy);
            }
            Event::FaultInjected {
                round,
                device,
                kind,
                magnitude,
            } => {
                let _ = write!(out, ",\"round\":{round},\"device\":");
                match device {
                    Some(d) => {
                        let _ = write!(out, "{d}");
                    }
                    None => out.push_str("null"),
                }
                out.push_str(",\"kind\":");
                json::push_str(&mut out, kind);
                push_f64_field(&mut out, "magnitude", *magnitude);
            }
            Event::TransferRetry {
                round,
                user,
                attempt,
                cause,
                elapsed_s,
            } => {
                let _ = write!(
                    out,
                    ",\"round\":{round},\"user\":{user},\"attempt\":{attempt}"
                );
                out.push_str(",\"cause\":");
                json::push_str(&mut out, cause);
                push_f64_field(&mut out, "elapsed_s", *elapsed_s);
            }
            Event::UserTimeout {
                round,
                user,
                cause,
                shards_at_risk,
            } => {
                let _ = write!(out, ",\"round\":{round},\"user\":{user}");
                out.push_str(",\"cause\":");
                json::push_str(&mut out, cause);
                let _ = write!(out, ",\"shards_at_risk\":{shards_at_risk}");
            }
            Event::ShardsReassigned {
                round,
                from_user,
                to_user,
                shards,
            } => {
                let _ = write!(
                    out,
                    ",\"round\":{round},\"from_user\":{from_user},\
                     \"to_user\":{to_user},\"shards\":{shards}"
                );
            }
            Event::RoundDegraded {
                round,
                scheduled,
                completed,
                rescued,
                lost,
                coverage,
            } => {
                let _ = write!(
                    out,
                    ",\"round\":{round},\"scheduled\":{scheduled},\
                     \"completed\":{completed},\"rescued\":{rescued},\"lost\":{lost}"
                );
                push_f64_field(&mut out, "coverage", *coverage);
            }
            Event::DeviceArrive { round, t_s, user } | Event::DeviceDepart { round, t_s, user } => {
                let _ = write!(out, ",\"round\":{round}");
                push_f64_field(&mut out, "t_s", *t_s);
                let _ = write!(out, ",\"user\":{user}");
            }
            Event::ShardsOrphaned {
                round,
                user,
                shards,
            } => {
                let _ = write!(
                    out,
                    ",\"round\":{round},\"user\":{user},\"shards\":{shards}"
                );
            }
            Event::MidRoundAdmit {
                round,
                t_s,
                user,
                shards,
            } => {
                let _ = write!(out, ",\"round\":{round}");
                push_f64_field(&mut out, "t_s", *t_s);
                let _ = write!(out, ",\"user\":{user},\"shards\":{shards}");
            }
            Event::BanditSelect {
                round,
                policy,
                k,
                selected,
            } => {
                let _ = write!(out, ",\"round\":{round},\"policy\":");
                json::push_str(&mut out, policy);
                let _ = write!(out, ",\"k\":{k},\"selected\":");
                json::push_usize_array(&mut out, selected);
            }
            Event::BanditReward {
                round,
                user,
                reward,
                mean,
                pulls,
            } => {
                let _ = write!(out, ",\"round\":{round},\"user\":{user}");
                push_f64_field(&mut out, "reward", *reward);
                push_f64_field(&mut out, "mean", *mean);
                let _ = write!(out, ",\"pulls\":{pulls}");
            }
            Event::UpdateRejected {
                round,
                user,
                aggregator,
                score,
            } => {
                let _ = write!(out, ",\"round\":{round},\"user\":{user}");
                out.push_str(",\"aggregator\":");
                json::push_str(&mut out, aggregator);
                push_f64_field(&mut out, "score", *score);
            }
            Event::RobustAggregate {
                round,
                aggregator,
                n_updates,
                rejected,
                mean_score,
            } => {
                let _ = write!(out, ",\"round\":{round},\"aggregator\":");
                json::push_str(&mut out, aggregator);
                let _ = write!(out, ",\"n_updates\":{n_updates},\"rejected\":{rejected}");
                push_f64_field(&mut out, "mean_score", *mean_score);
            }
            Event::GroupOutage {
                round,
                group,
                members,
                duration_rounds,
            } => {
                let _ = write!(
                    out,
                    ",\"round\":{round},\"group\":{group},\
                     \"members\":{members},\"duration_rounds\":{duration_rounds}"
                );
            }
            Event::GlobalDeadlineSet {
                round,
                policy,
                deadline_s,
                pooled,
                cohorts,
            } => {
                let _ = write!(out, ",\"round\":{round},\"policy\":");
                json::push_str(&mut out, policy);
                out.push_str(",\"deadline_s\":");
                match deadline_s {
                    Some(d) => json::push_f64(&mut out, *d),
                    None => out.push_str("null"),
                }
                let _ = write!(out, ",\"pooled\":{pooled},\"cohorts\":{cohorts}");
            }
            Event::CohortStraggling {
                round,
                cohort,
                makespan_s,
                deadline_s,
                timed_out,
            } => {
                let _ = write!(out, ",\"round\":{round},\"cohort\":{cohort}");
                push_f64_field(&mut out, "makespan_s", *makespan_s);
                out.push_str(",\"deadline_s\":");
                match deadline_s {
                    Some(d) => json::push_f64(&mut out, *d),
                    None => out.push_str("null"),
                }
                let _ = write!(out, ",\"timed_out\":{timed_out}");
            }
            Event::EdgeReduce {
                round,
                edge,
                cohorts,
                devices,
                makespan_s,
                link_s,
            } => {
                let _ = write!(
                    out,
                    ",\"round\":{round},\"edge\":{edge},\
                     \"cohorts\":{cohorts},\"devices\":{devices}"
                );
                push_f64_field(&mut out, "makespan_s", *makespan_s);
                push_f64_field(&mut out, "link_s", *link_s);
            }
            Event::AsyncMerge {
                t_s,
                user,
                staleness,
                weight,
            } => {
                push_f64_field(&mut out, "t_s", *t_s);
                let _ = write!(out, ",\"user\":{user},\"staleness\":{staleness}");
                push_f64_field(&mut out, "weight", *weight);
            }
            Event::DeadlineDrop {
                user,
                predicted_s,
                deadline_s,
                lost_shards,
            } => {
                let _ = write!(out, ",\"user\":{user}");
                push_f64_field(&mut out, "predicted_s", *predicted_s);
                push_f64_field(&mut out, "deadline_s", *deadline_s);
                let _ = write!(out, ",\"lost_shards\":{lost_shards}");
            }
        }
        out.push('}');
        out
    }
}

fn push_time_device(out: &mut String, t_s: f64, device: &str) {
    push_f64_field(out, "t_s", t_s);
    out.push_str(",\"device\":");
    json::push_str(out, device);
}

fn push_f64_field(out: &mut String, key: &str, value: f64) {
    out.push(',');
    json::push_str(out, key);
    out.push(':');
    json::push_f64(out, value);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_events_encode_with_fixed_key_order() {
        let ev = Event::ThermalCap {
            t_s: 12.5,
            device: "Nexus6".into(),
            temp_c: 55.0,
            cap_ghz: 1.7284,
        };
        assert_eq!(
            ev.to_json(),
            "{\"ev\":\"thermal_cap\",\"t_s\":12.5,\"device\":\"Nexus6\",\
             \"temp_c\":55.0,\"cap_ghz\":1.7284}"
        );
        let ev = Event::BatterySoc {
            t_s: 3.0,
            device: "Pixel2".into(),
            soc_pct: 90,
        };
        assert_eq!(
            ev.to_json(),
            "{\"ev\":\"battery_soc\",\"t_s\":3.0,\"device\":\"Pixel2\",\"soc_pct\":90}"
        );
    }

    #[test]
    fn scheduler_decision_encodes_threshold_and_shards() {
        let ev = Event::ScheduleDecision {
            scheduler: "fed_lbap".into(),
            n_users: 3,
            total_shards: 10,
            threshold: Some(4.25),
            shards: vec![5, 3, 2],
            predicted_makespan: 4.25,
        };
        assert_eq!(
            ev.to_json(),
            "{\"ev\":\"schedule_decision\",\"scheduler\":\"fed_lbap\",\"n_users\":3,\
             \"total_shards\":10,\"threshold\":4.25,\"shards\":[5,3,2],\
             \"predicted_makespan\":4.25}"
        );
        let ev = Event::ScheduleRejected {
            scheduler: "fed_minavg".into(),
            n_users: 2,
            total_shards: 99,
            cause: "infeasible".into(),
        };
        assert_eq!(
            ev.to_json(),
            "{\"ev\":\"schedule_rejected\",\"scheduler\":\"fed_minavg\",\"n_users\":2,\
             \"total_shards\":99,\"cause\":\"infeasible\"}"
        );
    }

    #[test]
    fn none_threshold_is_null() {
        let ev = Event::ScheduleDecision {
            scheduler: "equal".into(),
            n_users: 1,
            total_shards: 1,
            threshold: None,
            shards: vec![1],
            predicted_makespan: 1.0,
        };
        assert!(ev.to_json().contains("\"threshold\":null"));
    }

    #[test]
    fn round_events_encode() {
        assert_eq!(
            Event::RoundStart {
                round: 2,
                n_users: 6
            }
            .to_json(),
            "{\"ev\":\"round_start\",\"round\":2,\"n_users\":6}"
        );
        assert_eq!(
            Event::UserSpan {
                round: 2,
                user: 4,
                compute_s: 1.25,
                comm_s: 0.5
            }
            .to_json(),
            "{\"ev\":\"user_span\",\"round\":2,\"user\":4,\"compute_s\":1.25,\"comm_s\":0.5}"
        );
        assert_eq!(
            Event::RoundEnd {
                round: 2,
                makespan_s: 1.75,
                straggler: 4
            }
            .to_json(),
            "{\"ev\":\"round_end\",\"round\":2,\"makespan_s\":1.75,\"straggler\":4}"
        );
    }

    #[test]
    fn fault_events_encode_with_fixed_key_order() {
        let ev = Event::FaultInjected {
            round: 3,
            device: Some(1),
            kind: "crash".into(),
            magnitude: 0.25,
        };
        assert_eq!(
            ev.to_json(),
            "{\"ev\":\"fault_injected\",\"round\":3,\"device\":1,\
             \"kind\":\"crash\",\"magnitude\":0.25}"
        );
        let ev = Event::FaultInjected {
            round: 0,
            device: None,
            kind: "outage".into(),
            magnitude: 12.0,
        };
        assert!(ev.to_json().contains("\"device\":null"));
        let ev = Event::TransferRetry {
            round: 1,
            user: 2,
            attempt: 1,
            cause: "loss".into(),
            elapsed_s: 30.0,
        };
        assert_eq!(
            ev.to_json(),
            "{\"ev\":\"transfer_retry\",\"round\":1,\"user\":2,\"attempt\":1,\
             \"cause\":\"loss\",\"elapsed_s\":30.0}"
        );
        let ev = Event::UserTimeout {
            round: 4,
            user: 0,
            cause: "deadline".into(),
            shards_at_risk: 7,
        };
        assert_eq!(
            ev.to_json(),
            "{\"ev\":\"user_timeout\",\"round\":4,\"user\":0,\
             \"cause\":\"deadline\",\"shards_at_risk\":7}"
        );
        let ev = Event::ShardsReassigned {
            round: 4,
            from_user: 0,
            to_user: 2,
            shards: 5,
        };
        assert_eq!(
            ev.to_json(),
            "{\"ev\":\"shards_reassigned\",\"round\":4,\"from_user\":0,\
             \"to_user\":2,\"shards\":5}"
        );
        let ev = Event::RoundDegraded {
            round: 4,
            scheduled: 30,
            completed: 28,
            rescued: 5,
            lost: 2,
            coverage: 28.0 / 30.0,
        };
        let json = ev.to_json();
        assert!(json.starts_with("{\"ev\":\"round_degraded\",\"round\":4,\"scheduled\":30"));
        assert!(json.contains("\"coverage\":0.9333333333333333"));
    }

    #[test]
    fn churn_events_encode_with_fixed_key_order() {
        let ev = Event::DeviceArrive {
            round: 2,
            t_s: 12.25,
            user: 3,
        };
        assert_eq!(
            ev.to_json(),
            "{\"ev\":\"device_arrive\",\"round\":2,\"t_s\":12.25,\"user\":3}"
        );
        let ev = Event::DeviceDepart {
            round: 2,
            t_s: 8.5,
            user: 1,
        };
        assert_eq!(
            ev.to_json(),
            "{\"ev\":\"device_depart\",\"round\":2,\"t_s\":8.5,\"user\":1}"
        );
        let ev = Event::ShardsOrphaned {
            round: 2,
            user: 1,
            shards: 6,
        };
        assert_eq!(
            ev.to_json(),
            "{\"ev\":\"shards_orphaned\",\"round\":2,\"user\":1,\"shards\":6}"
        );
        let ev = Event::MidRoundAdmit {
            round: 2,
            t_s: 9.75,
            user: 3,
            shards: 6,
        };
        assert_eq!(
            ev.to_json(),
            "{\"ev\":\"mid_round_admit\",\"round\":2,\"t_s\":9.75,\"user\":3,\"shards\":6}"
        );
    }

    #[test]
    fn bandit_events_encode_with_fixed_key_order() {
        let ev = Event::BanditSelect {
            round: 3,
            policy: "ucb1".to_string(),
            k: 2,
            selected: vec![1, 4],
        };
        assert_eq!(
            ev.to_json(),
            "{\"ev\":\"bandit_select\",\"round\":3,\"policy\":\"ucb1\",\"k\":2,\"selected\":[1,4]}"
        );
        let ev = Event::BanditReward {
            round: 3,
            user: 4,
            reward: 0.5,
            mean: 0.75,
            pulls: 2,
        };
        assert_eq!(
            ev.to_json(),
            "{\"ev\":\"bandit_reward\",\"round\":3,\"user\":4,\"reward\":0.5,\"mean\":0.75,\"pulls\":2}"
        );
    }

    #[test]
    fn bandit_event_offsets_shift_only_device_indices() {
        let select = Event::BanditSelect {
            round: 1,
            policy: "thompson".to_string(),
            k: 2,
            selected: vec![0, 3],
        };
        assert_eq!(
            select.clone().with_user_offset(10),
            Event::BanditSelect {
                round: 1,
                policy: "thompson".to_string(),
                k: 2,
                selected: vec![10, 13],
            }
        );
        assert_eq!(select.clone().with_user_offset(0), select);
        let reward = Event::BanditReward {
            round: 1,
            user: 3,
            reward: 1.0,
            mean: 1.0,
            pulls: 1,
        };
        assert_eq!(
            reward.clone().with_user_offset(10),
            Event::BanditReward {
                round: 1,
                user: 13,
                reward: 1.0,
                mean: 1.0,
                pulls: 1,
            }
        );
        assert_eq!(reward.clone().with_user_offset(0), reward);
    }

    #[test]
    fn churn_event_offsets_shift_only_the_user() {
        let arrive = Event::DeviceArrive {
            round: 1,
            t_s: 3.5,
            user: 2,
        };
        assert_eq!(
            arrive.clone().with_user_offset(10),
            Event::DeviceArrive {
                round: 1,
                t_s: 3.5,
                user: 12,
            }
        );
        assert_eq!(arrive.clone().with_user_offset(0), arrive);
        let depart = Event::DeviceDepart {
            round: 1,
            t_s: 4.5,
            user: 0,
        };
        assert_eq!(
            depart.clone().with_user_offset(7),
            Event::DeviceDepart {
                round: 1,
                t_s: 4.5,
                user: 7,
            }
        );
        assert_eq!(depart.clone().with_user_offset(0), depart);
        let orphaned = Event::ShardsOrphaned {
            round: 0,
            user: 3,
            shards: 2,
        };
        assert_eq!(
            orphaned.clone().with_user_offset(4),
            Event::ShardsOrphaned {
                round: 0,
                user: 7,
                shards: 2,
            }
        );
        assert_eq!(orphaned.clone().with_user_offset(0), orphaned);
        let admit = Event::MidRoundAdmit {
            round: 0,
            t_s: 1.0,
            user: 5,
            shards: 3,
        };
        assert_eq!(
            admit.clone().with_user_offset(20),
            Event::MidRoundAdmit {
                round: 0,
                t_s: 1.0,
                user: 25,
                shards: 3,
            }
        );
        assert_eq!(admit.clone().with_user_offset(0), admit);
    }

    #[test]
    fn decision_point_events_encode() {
        assert_eq!(
            Event::AsyncMerge {
                t_s: 10.5,
                user: 3,
                staleness: 2,
                weight: 0.2
            }
            .to_json(),
            "{\"ev\":\"async_merge\",\"t_s\":10.5,\"user\":3,\"staleness\":2,\"weight\":0.2}"
        );
        assert_eq!(
            Event::DeadlineDrop {
                user: 1,
                predicted_s: 100.0,
                deadline_s: 20.0,
                lost_shards: 10
            }
            .to_json(),
            "{\"ev\":\"deadline_drop\",\"user\":1,\"predicted_s\":100.0,\
             \"deadline_s\":20.0,\"lost_shards\":10}"
        );
    }

    #[test]
    fn robustness_events_encode_with_fixed_key_order() {
        let ev = Event::UpdateRejected {
            round: 2,
            user: 5,
            aggregator: "krum".into(),
            score: 12.5,
        };
        assert_eq!(
            ev.to_json(),
            "{\"ev\":\"update_rejected\",\"round\":2,\"user\":5,\
             \"aggregator\":\"krum\",\"score\":12.5}"
        );
        let ev = Event::RobustAggregate {
            round: 2,
            aggregator: "trimmed_mean".into(),
            n_updates: 8,
            rejected: 1,
            mean_score: 0.25,
        };
        assert_eq!(
            ev.to_json(),
            "{\"ev\":\"robust_aggregate\",\"round\":2,\"aggregator\":\"trimmed_mean\",\
             \"n_updates\":8,\"rejected\":1,\"mean_score\":0.25}"
        );
        let ev = Event::GroupOutage {
            round: 4,
            group: 1,
            members: 3,
            duration_rounds: 2,
        };
        assert_eq!(
            ev.to_json(),
            "{\"ev\":\"group_outage\",\"round\":4,\"group\":1,\
             \"members\":3,\"duration_rounds\":2}"
        );
    }

    #[test]
    fn robustness_event_offsets_shift_only_the_user() {
        let rejected = Event::UpdateRejected {
            round: 1,
            user: 2,
            aggregator: "median".into(),
            score: 0.9,
        };
        assert_eq!(
            rejected.clone().with_user_offset(10),
            Event::UpdateRejected {
                round: 1,
                user: 12,
                aggregator: "median".into(),
                score: 0.9,
            }
        );
        assert_eq!(rejected.clone().with_user_offset(0), rejected);
        // Aggregate summaries and group indices are cohort/population
        // level, never remapped.
        let agg = Event::RobustAggregate {
            round: 1,
            aggregator: "multi_krum".into(),
            n_updates: 4,
            rejected: 2,
            mean_score: 1.0,
        };
        assert_eq!(agg.clone().with_user_offset(64), agg);
        let outage = Event::GroupOutage {
            round: 0,
            group: 2,
            members: 4,
            duration_rounds: 3,
        };
        assert_eq!(outage.clone().with_user_offset(64), outage);
    }

    #[test]
    fn coordination_events_encode_with_fixed_key_order() {
        let ev = Event::GlobalDeadlineSet {
            round: 3,
            policy: "mean_factor".into(),
            deadline_s: Some(42.5),
            pooled: 128,
            cohorts: 2,
        };
        assert_eq!(
            ev.to_json(),
            "{\"ev\":\"global_deadline_set\",\"round\":3,\"policy\":\"mean_factor\",\
             \"deadline_s\":42.5,\"pooled\":128,\"cohorts\":2}"
        );
        let ev = Event::GlobalDeadlineSet {
            round: 0,
            policy: "quantile".into(),
            deadline_s: None,
            pooled: 0,
            cohorts: 1,
        };
        assert!(ev.to_json().contains("\"deadline_s\":null"));
        let ev = Event::CohortStraggling {
            round: 1,
            cohort: 4,
            makespan_s: 99.25,
            deadline_s: Some(60.0),
            timed_out: 3,
        };
        assert_eq!(
            ev.to_json(),
            "{\"ev\":\"cohort_straggling\",\"round\":1,\"cohort\":4,\
             \"makespan_s\":99.25,\"deadline_s\":60.0,\"timed_out\":3}"
        );
        let ev = Event::EdgeReduce {
            round: 2,
            edge: 3,
            cohorts: 4,
            devices: 256,
            makespan_s: 75.5,
            link_s: 0.25,
        };
        assert_eq!(
            ev.to_json(),
            "{\"ev\":\"edge_reduce\",\"round\":2,\"edge\":3,\"cohorts\":4,\
             \"devices\":256,\"makespan_s\":75.5,\"link_s\":0.25}"
        );
    }

    #[test]
    fn coordination_events_ignore_user_offsets() {
        // Cohort indices are already population-level, so the splice
        // adapter must leave them alone.
        let set = Event::GlobalDeadlineSet {
            round: 0,
            policy: "fixed".into(),
            deadline_s: Some(5.0),
            pooled: 10,
            cohorts: 3,
        };
        assert_eq!(set.clone().with_user_offset(64), set);
        let straggle = Event::CohortStraggling {
            round: 0,
            cohort: 2,
            makespan_s: 1.0,
            deadline_s: None,
            timed_out: 0,
        };
        assert_eq!(straggle.clone().with_user_offset(64), straggle);
        // Edge indices are topology-level, never remapped either.
        let reduce = Event::EdgeReduce {
            round: 0,
            edge: 5,
            cohorts: 2,
            devices: 128,
            makespan_s: 3.0,
            link_s: 0.0,
        };
        assert_eq!(reduce.clone().with_user_offset(64), reduce);
    }

    #[test]
    fn million_scale_ids_survive_offsets_and_encoding() {
        // Device/user indices are `usize` end to end: offsets past the
        // 16/32-bit boundaries must neither wrap nor truncate, for every
        // remapped variant. This is the 1M-id regression guard for the
        // hierarchical scale-out path (cohort splicing at offsets near
        // the end of a million-device population).
        let big = 1_000_000usize;
        let huge = big * 1_000; // 1e9 — far past any 32-bit-ish boundary
        let span = Event::UserSpan {
            round: 99,
            user: 999_999,
            compute_s: 1.0,
            comm_s: 0.5,
        };
        let shifted = span.with_user_offset(huge);
        assert_eq!(
            shifted,
            Event::UserSpan {
                round: 99,
                user: 1_000_999_999,
                compute_s: 1.0,
                comm_s: 0.5,
            }
        );
        assert!(
            shifted.to_json().contains("\"user\":1000999999"),
            "large ids must encode verbatim: {}",
            shifted.to_json()
        );
        let reassigned = Event::ShardsReassigned {
            round: 0,
            from_user: big - 1,
            to_user: big - 2,
            shards: 3,
        }
        .with_user_offset(big);
        assert_eq!(
            reassigned,
            Event::ShardsReassigned {
                round: 0,
                from_user: 2 * big - 1,
                to_user: 2 * big - 2,
                shards: 3,
            }
        );
        let fault = Event::FaultInjected {
            round: 1,
            device: Some(big - 1),
            kind: "crash".into(),
            magnitude: 0.5,
        }
        .with_user_offset(big);
        assert_eq!(
            fault,
            Event::FaultInjected {
                round: 1,
                device: Some(2 * big - 1),
                kind: "crash".into(),
                magnitude: 0.5,
            }
        );
        assert!(fault.to_json().contains("\"device\":1999999"));
        // Stacked offsets compose additively (splice-of-splice, as in a
        // two-tier topology replaying cohort buffers through an edge).
        let stacked = Event::RoundEnd {
            round: 0,
            makespan_s: 1.0,
            straggler: 7,
        }
        .with_user_offset(big)
        .with_user_offset(big);
        assert_eq!(
            stacked,
            Event::RoundEnd {
                round: 0,
                makespan_s: 1.0,
                straggler: 2 * big + 7,
            }
        );
    }

    #[test]
    fn user_offset_shifts_only_index_fields() {
        let shifted = Event::UserSpan {
            round: 1,
            user: 2,
            compute_s: 3.0,
            comm_s: 4.0,
        }
        .with_user_offset(10);
        assert_eq!(
            shifted,
            Event::UserSpan {
                round: 1,
                user: 12,
                compute_s: 3.0,
                comm_s: 4.0
            }
        );
        let shifted = Event::RoundEnd {
            round: 7,
            makespan_s: 1.5,
            straggler: 3,
        }
        .with_user_offset(4);
        assert_eq!(
            shifted,
            Event::RoundEnd {
                round: 7,
                makespan_s: 1.5,
                straggler: 7
            }
        );
        let shifted = Event::ShardsReassigned {
            round: 0,
            from_user: 1,
            to_user: 2,
            shards: 9,
        }
        .with_user_offset(5);
        assert_eq!(
            shifted,
            Event::ShardsReassigned {
                round: 0,
                from_user: 6,
                to_user: 7,
                shards: 9
            }
        );
        // Link-level faults have no device index; counts are not indices.
        let outage = Event::FaultInjected {
            round: 2,
            device: None,
            kind: "outage".into(),
            magnitude: 8.0,
        };
        assert_eq!(outage.clone().with_user_offset(3), outage);
        let start = Event::RoundStart {
            round: 2,
            n_users: 6,
        };
        assert_eq!(start.clone().with_user_offset(3), start);
        // Device-simulator events carry names, not indices.
        let cap = Event::ThermalCap {
            t_s: 1.0,
            device: "Mate10".into(),
            temp_c: 50.0,
            cap_ghz: 2.0,
        };
        assert_eq!(cap.clone().with_user_offset(100), cap);
    }

    #[test]
    fn zero_offset_is_identity_for_every_indexed_variant() {
        let events = [
            Event::UserSpan {
                round: 0,
                user: 1,
                compute_s: 0.5,
                comm_s: 0.25,
            },
            Event::FaultInjected {
                round: 0,
                device: Some(2),
                kind: "crash".into(),
                magnitude: 0.5,
            },
            Event::TransferRetry {
                round: 0,
                user: 3,
                attempt: 1,
                cause: "loss".into(),
                elapsed_s: 1.0,
            },
            Event::UserTimeout {
                round: 0,
                user: 4,
                cause: "deadline".into(),
                shards_at_risk: 2,
            },
            Event::AsyncMerge {
                t_s: 0.0,
                user: 5,
                staleness: 1,
                weight: 0.5,
            },
            Event::DeadlineDrop {
                user: 6,
                predicted_s: 2.0,
                deadline_s: 1.0,
                lost_shards: 3,
            },
            Event::DeviceArrive {
                round: 0,
                t_s: 1.0,
                user: 7,
            },
            Event::DeviceDepart {
                round: 0,
                t_s: 2.0,
                user: 8,
            },
            Event::ShardsOrphaned {
                round: 0,
                user: 9,
                shards: 4,
            },
            Event::MidRoundAdmit {
                round: 0,
                t_s: 3.0,
                user: 10,
                shards: 4,
            },
        ];
        for ev in events {
            assert_eq!(ev.clone().with_user_offset(0), ev);
        }
    }

    #[test]
    fn kind_matches_tag_in_json() {
        let events = [
            Event::BigClusterOffline {
                t_s: 0.0,
                device: "d".into(),
                temp_c: 65.0,
            },
            Event::MinAvgDecision {
                n_users: 1,
                total_shards: 2,
                objective: 3.0,
                final_alpha_f: 1.0,
                open_order: vec![0],
                shards: vec![2],
            },
            Event::RoundDivergence {
                round: 0,
                mean_cosine: 0.99,
            },
            Event::RoundAccuracy {
                round: 0,
                accuracy: 0.87,
            },
            Event::FaultInjected {
                round: 0,
                device: Some(0),
                kind: "churn".into(),
                magnitude: 0.5,
            },
            Event::TransferRetry {
                round: 0,
                user: 0,
                attempt: 2,
                cause: "outage".into(),
                elapsed_s: 1.0,
            },
            Event::UserTimeout {
                round: 0,
                user: 0,
                cause: "crash".into(),
                shards_at_risk: 1,
            },
            Event::ShardsReassigned {
                round: 0,
                from_user: 0,
                to_user: 1,
                shards: 1,
            },
            Event::RoundDegraded {
                round: 0,
                scheduled: 1,
                completed: 1,
                rescued: 0,
                lost: 0,
                coverage: 1.0,
            },
            Event::DeviceArrive {
                round: 0,
                t_s: 1.0,
                user: 0,
            },
            Event::DeviceDepart {
                round: 0,
                t_s: 1.0,
                user: 0,
            },
            Event::ShardsOrphaned {
                round: 0,
                user: 0,
                shards: 1,
            },
            Event::MidRoundAdmit {
                round: 0,
                t_s: 1.0,
                user: 0,
                shards: 1,
            },
            Event::AsyncMerge {
                t_s: 0.0,
                user: 0,
                staleness: 0,
                weight: 0.6,
            },
            Event::DeadlineDrop {
                user: 0,
                predicted_s: 1.0,
                deadline_s: 0.5,
                lost_shards: 1,
            },
            Event::EdgeReduce {
                round: 0,
                edge: 0,
                cohorts: 1,
                devices: 64,
                makespan_s: 1.0,
                link_s: 0.0,
            },
        ];
        for ev in events {
            let json = ev.to_json();
            assert!(
                json.starts_with(&format!("{{\"ev\":\"{}\"", ev.kind())),
                "tag mismatch: {json}"
            );
        }
    }
}
