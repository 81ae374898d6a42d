//! Schedules (the algorithms' output) and the scheduler trait.

use fedsched_telemetry::{Event, Probe};
use serde::{Deserialize, Serialize};

use crate::cost::CostMatrix;

/// Errors a scheduler can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// No users to schedule onto.
    NoUsers,
    /// The requested shard total cannot be placed (e.g. capacities sum to
    /// less than the data).
    Infeasible,
    /// Inconsistent input dimensions (profiles vs comm costs vs classes).
    DimensionMismatch,
}

impl ScheduleError {
    /// Stable snake_case code used in telemetry events.
    pub fn cause_code(&self) -> &'static str {
        match self {
            ScheduleError::NoUsers => "no_users",
            ScheduleError::Infeasible => "infeasible",
            ScheduleError::DimensionMismatch => "dimension_mismatch",
        }
    }
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::NoUsers => write!(f, "no users to schedule onto"),
            ScheduleError::Infeasible => write!(f, "data cannot be placed within capacities"),
            ScheduleError::DimensionMismatch => write!(f, "input dimensions are inconsistent"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// The output of every scheduler: how many data shards each user trains on
/// this round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// Shards assigned to each user (index = user).
    pub shards: Vec<usize>,
    /// Samples per shard (the paper's granularity, e.g. 100).
    pub shard_size: f64,
}

impl Schedule {
    /// Construct a schedule.
    pub fn new(shards: Vec<usize>, shard_size: f64) -> Self {
        Schedule { shards, shard_size }
    }

    /// Total shards placed.
    pub fn total_shards(&self) -> usize {
        self.shards.iter().sum()
    }

    /// Samples assigned to user `j`.
    pub fn samples_for(&self, j: usize) -> f64 {
        self.shards[j] as f64 * self.shard_size
    }

    /// Number of users that received at least one shard.
    pub fn active_users(&self) -> usize {
        self.shards.iter().filter(|&&s| s > 0).count()
    }

    /// Predicted per-user times under a cost matrix (0 for idle users).
    pub fn predicted_times(&self, costs: &CostMatrix) -> Vec<f64> {
        self.shards
            .iter()
            .enumerate()
            .map(|(j, &k)| costs.cost(j, k))
            .collect()
    }

    /// Predicted makespan (the synchronous round time) under a cost matrix.
    pub fn predicted_makespan(&self, costs: &CostMatrix) -> f64 {
        self.predicted_times(costs).into_iter().fold(0.0, f64::max)
    }
}

/// A scheduler for the IID setting: consumes a cost matrix, produces a
/// shard assignment covering exactly `costs.total_shards()` shards.
///
/// Schedulers are `Send + Sync` so controllers that own one (e.g. the
/// resilient round simulator's between-round rescheduler) can be shipped to
/// worker threads by the population engine. All schedulers here
/// are immutable value types, so the bound costs nothing.
pub trait Scheduler: Send + Sync {
    /// Human-readable name for reports ("Fed-LBAP", "Equal", ...).
    fn name(&self) -> &'static str;

    /// Compute the assignment.
    fn schedule(&self, costs: &CostMatrix) -> Result<Schedule, ScheduleError>;

    /// [`Scheduler::schedule`], emitting a telemetry decision record.
    ///
    /// The default emits [`Event::ScheduleDecision`] (threshold `None`) on
    /// success and [`Event::ScheduleRejected`] on failure; schedulers with
    /// richer internals (Fed-LBAP's `c*`) override this to fill them in.
    /// With a disabled probe this is exactly `schedule` plus one branch.
    fn schedule_traced(
        &self,
        costs: &CostMatrix,
        probe: &Probe,
    ) -> Result<Schedule, ScheduleError> {
        let result = self.schedule(costs);
        emit_decision(self.name(), costs, &result, None, probe);
        result
    }
}

/// Shared emission helper for [`Scheduler::schedule_traced`] implementations.
pub(crate) fn emit_decision(
    name: &str,
    costs: &CostMatrix,
    result: &Result<Schedule, ScheduleError>,
    threshold: Option<f64>,
    probe: &Probe,
) {
    probe.emit(|| match result {
        Ok(schedule) => Event::ScheduleDecision {
            scheduler: name.to_string(),
            n_users: costs.n_users(),
            total_shards: costs.total_shards(),
            threshold,
            shards: schedule.shards.clone(),
            predicted_makespan: schedule.predicted_makespan(costs),
        },
        Err(err) => Event::ScheduleRejected {
            scheduler: name.to_string(),
            n_users: costs.n_users(),
            total_shards: costs.total_shards(),
            cause: err.cause_code().to_string(),
        },
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostMatrix;

    fn costs() -> CostMatrix {
        // Two users: user 0 takes 1s per shard, user 1 takes 2s per shard.
        CostMatrix::from_linear_rates(&[1.0, 2.0], 4, 100.0, &[0.0, 0.0])
    }

    #[test]
    fn totals_and_samples() {
        let s = Schedule::new(vec![3, 1], 100.0);
        assert_eq!(s.total_shards(), 4);
        assert_eq!(s.samples_for(0), 300.0);
        assert_eq!(s.active_users(), 2);
    }

    #[test]
    fn makespan_is_max_user_time() {
        let s = Schedule::new(vec![3, 1], 100.0);
        let c = costs();
        let times = s.predicted_times(&c);
        assert_eq!(times, vec![3.0, 2.0]);
        assert_eq!(s.predicted_makespan(&c), 3.0);
    }

    #[test]
    fn idle_user_costs_nothing() {
        let s = Schedule::new(vec![4, 0], 100.0);
        let c = costs();
        assert_eq!(s.predicted_times(&c), vec![4.0, 0.0]);
        assert_eq!(s.active_users(), 1);
    }
}
