//! Counters and histograms with deterministic serialization.
//!
//! [`MetricsRegistry`] is the single aggregation point report code consumes
//! (see `fedsched-bench`), replacing ad-hoc `Vec<f64>` tallies. Keys live
//! in `BTreeMap`s so iteration — and therefore JSON output — is ordered and
//! reproducible.

use crate::event::Event;
use crate::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Per-level capacity of the quantile sketch. Error for rank queries is
/// roughly `levels / CAP` of the total weight, so 256 keeps long scale-out
/// sweeps (10^5+ observations) under a couple of percent while bounding
/// memory at a few KiB per histogram name.
const SKETCH_LEVEL_CAP: usize = 256;

/// A sample distribution: exact streaming moments plus a fixed-size
/// quantile sketch.
///
/// Moments (`count`, `sum`, `mean`, `std_dev`, `min`, `max`) are kept
/// exactly via Welford's recurrence, so summary statistics never degrade.
/// Order statistics come from a deterministic KLL-style compaction sketch:
/// each level holds at most `SKETCH_LEVEL_CAP` items of weight
/// `2^level`; an overflowing level sorts itself and promotes every other
/// item to the next level (weight doubles, total weight is conserved).
/// Memory is `O(CAP · log(n / CAP))` regardless of how many values are
/// observed, and the whole structure is deterministic — no RNG — so equal
/// observation sequences produce equal sketches.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    mean: f64,
    m2: f64,
    /// `levels[l]` holds unsorted items of weight `2^l`.
    levels: Vec<Vec<f64>>,
    /// Compaction counter; its parity alternates which half of a sorted
    /// level survives promotion, cancelling systematic rank bias.
    compactions: u64,
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);

        if self.levels.is_empty() {
            self.levels.push(Vec::new());
        }
        self.levels[0].push(value);
        if self.levels[0].len() > SKETCH_LEVEL_CAP {
            self.compact(0);
        }
    }

    /// Sort level `l` and promote every other item to level `l + 1`,
    /// doubling its weight. An odd item stays behind so total weight —
    /// and therefore `count` — is conserved exactly.
    fn compact(&mut self, l: usize) {
        let mut items = std::mem::take(&mut self.levels[l]);
        items.sort_by(f64::total_cmp);
        if items.len() % 2 == 1 {
            // Hold the median-most leftover back at this level.
            let mid = items.len() / 2;
            self.levels[l].push(items.remove(mid));
        }
        let parity = (self.compactions % 2) as usize;
        self.compactions += 1;
        if self.levels.len() <= l + 1 {
            self.levels.push(Vec::new());
        }
        for (i, v) in items.into_iter().enumerate() {
            if i % 2 == parity {
                self.levels[l + 1].push(v);
            }
        }
        if self.levels[l + 1].len() > SKETCH_LEVEL_CAP {
            self.compact(l + 1);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, or 0.0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation, or 0.0 with fewer than two samples.
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        (self.m2 / self.count as f64).max(0.0).sqrt()
    }

    /// Sample (Bessel-corrected) standard deviation, or 0.0 with fewer
    /// than two samples — what experiment reports quote.
    pub fn sample_std_dev(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        (self.m2 / (self.count - 1) as f64).max(0.0).sqrt()
    }

    /// Smallest observation, or 0.0 with no samples.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation, or 0.0 with no samples.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Estimated quantile (`q` in `[0, 1]`) by weighted nearest rank, or
    /// 0.0 with no samples. Exact while all observations still fit in the
    /// sketch's first level (≤ `SKETCH_LEVEL_CAP` values); beyond that
    /// the rank error is bounded by the sketch resolution (see the
    /// `sketch_quantile_error_is_bounded` test).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mut weighted: Vec<(f64, u64)> = Vec::new();
        for (l, items) in self.levels.iter().enumerate() {
            let w = 1u64 << l;
            weighted.extend(items.iter().map(|&v| (v, w)));
        }
        weighted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total: u64 = weighted.iter().map(|&(_, w)| w).sum();
        debug_assert_eq!(total, self.count, "sketch weight must equal count");
        let target = (q.clamp(0.0, 1.0) * (total - 1) as f64).round() as u64;
        let mut cum = 0u64;
        for &(v, w) in &weighted {
            if target < cum + w {
                return v;
            }
            cum += w;
        }
        weighted.last().map(|&(v, _)| v).unwrap_or(0.0)
    }

    /// Nearest-rank percentile (`p` in `[0, 100]`), or 0.0 with no
    /// samples. Thin wrapper over [`Histogram::quantile`].
    pub fn percentile(&self, p: f64) -> f64 {
        self.quantile(p / 100.0)
    }

    /// Fold another histogram into this one: moments combine exactly
    /// (Chan's parallel recurrence), sketch levels concatenate and
    /// re-compact.
    pub fn merge_from(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        self.m2 += other.m2 + delta * delta * n1 * n2 / (n1 + n2);
        self.mean = (self.mean * n1 + other.mean * n2) / (n1 + n2);
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        while self.levels.len() < other.levels.len() {
            self.levels.push(Vec::new());
        }
        for (l, items) in other.levels.iter().enumerate() {
            self.levels[l].extend_from_slice(items);
        }
        for l in 0..self.levels.len() {
            while self.levels[l].len() > SKETCH_LEVEL_CAP {
                self.compact(l);
            }
        }
    }

    /// Number of values currently retained by the sketch — bounded by
    /// `CAP · levels`, independent of `count()`.
    pub fn retained(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }
}

/// Named counters and histograms, serializable as deterministic JSON.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `by` to counter `name` (creating it at zero).
    pub fn incr(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Record `value` into histogram `name` (creating it empty).
    pub fn observe(&mut self, name: &str, value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Current value of counter `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram `name`, if any value was observed under it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counter names, sorted.
    pub fn counter_names(&self) -> impl Iterator<Item = &str> {
        self.counters.keys().map(String::as_str)
    }

    /// All histogram names, sorted.
    pub fn histogram_names(&self) -> impl Iterator<Item = &str> {
        self.histograms.keys().map(String::as_str)
    }

    /// Fold another registry into this one (counters add, histograms
    /// merge) — used to combine per-run registries into a report.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, hist) in &other.histograms {
            self.histograms
                .entry(name.clone())
                .or_default()
                .merge_from(hist);
        }
    }

    /// Fold a stream of telemetry events into counters and histograms —
    /// the single aggregation path experiment reporters consume, instead
    /// of tallying ad hoc. Metric names are stable snake_case:
    ///
    /// | event | counters | histograms |
    /// |---|---|---|
    /// | `thermal_cap` | `thermal_cap_changes` | `thermal_cap_ghz` |
    /// | `big_cluster_offline`/`online` | same name | — |
    /// | `battery_soc` | `battery_soc_decades` | — |
    /// | `battery_depleted` | `battery_depleted` | `battery_drained_j` |
    /// | `schedule_decision` | `schedule_decisions` | `predicted_makespan_s` |
    /// | `schedule_rejected` | `schedule_rejections_<cause>` | — |
    /// | `minavg_decision` | `minavg_decisions` | `minavg_objective` |
    /// | `round_start` | `rounds` | — |
    /// | `user_span` | — | `user_compute_s`, `user_comm_s` |
    /// | `round_end` | — | `round_makespan_s` |
    /// | `round_divergence` | — | `divergence_mean_cosine` |
    /// | `round_accuracy` | — | `round_accuracy` |
    /// | `fault_injected` | `faults_injected`, `fault_<kind>` | — |
    /// | `transfer_retry` | `transfer_retries`, `transfer_retry_<cause>` | — |
    /// | `user_timeout` | `user_timeouts` | — |
    /// | `shards_reassigned` | `shards_reassigned` (by shard count) | — |
    /// | `round_degraded` | `rounds_degraded`, `shards_lost`, `shards_rescued` | `round_coverage` |
    /// | `device_arrive` | `device_arrivals` | — |
    /// | `device_depart` | `device_departures` | — |
    /// | `shards_orphaned` | `shards_orphaned` (by shard count) | — |
    /// | `mid_round_admit` | `mid_round_admits`, `mid_round_admitted_shards` | — |
    /// | `bandit_select` | `bandit_selections`, `bandit_selected_devices` | — |
    /// | `bandit_reward` | `bandit_rewards` | `bandit_reward` |
    /// | `update_rejected` | `updates_rejected` | `rejected_update_score` |
    /// | `robust_aggregate` | `robust_aggregations` | `robust_mean_score` |
    /// | `group_outage` | `group_outages`, `group_outage_devices` | — |
    /// | `global_deadline_set` | `global_deadlines_set` | `global_deadline_s` |
    /// | `cohort_straggling` | `cohort_straggling` | `cohort_straggle_makespan_s` |
    /// | `edge_reduce` | `edge_reduces` | `edge_reduce_makespan_s`, `edge_link_s` |
    /// | `async_merge` | `async_merges` | `async_staleness`, `async_mix_weight` |
    /// | `deadline_drop` | `deadline_drops`, `deadline_lost_shards` | — |
    pub fn ingest<'a, I: IntoIterator<Item = &'a Event>>(&mut self, events: I) {
        for event in events {
            match event {
                Event::ThermalCap { cap_ghz, .. } => {
                    self.incr("thermal_cap_changes", 1);
                    self.observe("thermal_cap_ghz", *cap_ghz);
                }
                Event::BigClusterOffline { .. } => self.incr("big_cluster_offline", 1),
                Event::BigClusterOnline { .. } => self.incr("big_cluster_online", 1),
                Event::BatterySoc { .. } => self.incr("battery_soc_decades", 1),
                Event::BatteryDepleted { drained_j, .. } => {
                    self.incr("battery_depleted", 1);
                    self.observe("battery_drained_j", *drained_j);
                }
                Event::ScheduleDecision {
                    predicted_makespan, ..
                } => {
                    self.incr("schedule_decisions", 1);
                    self.observe("predicted_makespan_s", *predicted_makespan);
                }
                Event::ScheduleRejected { cause, .. } => {
                    self.incr(&format!("schedule_rejections_{cause}"), 1);
                }
                Event::MinAvgDecision { objective, .. } => {
                    self.incr("minavg_decisions", 1);
                    self.observe("minavg_objective", *objective);
                }
                Event::RoundStart { .. } => self.incr("rounds", 1),
                Event::UserSpan {
                    compute_s, comm_s, ..
                } => {
                    self.observe("user_compute_s", *compute_s);
                    self.observe("user_comm_s", *comm_s);
                }
                Event::RoundEnd { makespan_s, .. } => {
                    self.observe("round_makespan_s", *makespan_s);
                }
                Event::RoundDivergence { mean_cosine, .. } => {
                    self.observe("divergence_mean_cosine", *mean_cosine);
                }
                Event::RoundAccuracy { accuracy, .. } => {
                    self.observe("round_accuracy", *accuracy);
                }
                Event::FaultInjected { kind, .. } => {
                    self.incr("faults_injected", 1);
                    self.incr(&format!("fault_{kind}"), 1);
                }
                Event::TransferRetry { cause, .. } => {
                    self.incr("transfer_retries", 1);
                    self.incr(&format!("transfer_retry_{cause}"), 1);
                }
                Event::UserTimeout { .. } => self.incr("user_timeouts", 1),
                Event::ShardsReassigned { shards, .. } => {
                    self.incr("shards_reassigned", *shards as u64);
                }
                Event::RoundDegraded {
                    rescued,
                    lost,
                    coverage,
                    ..
                } => {
                    self.incr("rounds_degraded", 1);
                    self.incr("shards_lost", *lost as u64);
                    self.incr("shards_rescued", *rescued as u64);
                    self.observe("round_coverage", *coverage);
                }
                Event::DeviceArrive { .. } => self.incr("device_arrivals", 1),
                Event::DeviceDepart { .. } => self.incr("device_departures", 1),
                Event::ShardsOrphaned { shards, .. } => {
                    self.incr("shards_orphaned", *shards as u64);
                }
                Event::MidRoundAdmit { shards, .. } => {
                    self.incr("mid_round_admits", 1);
                    self.incr("mid_round_admitted_shards", *shards as u64);
                }
                Event::BanditSelect { selected, .. } => {
                    self.incr("bandit_selections", 1);
                    self.incr("bandit_selected_devices", selected.len() as u64);
                }
                Event::BanditReward { reward, .. } => {
                    self.incr("bandit_rewards", 1);
                    self.observe("bandit_reward", *reward);
                }
                Event::UpdateRejected { score, .. } => {
                    self.incr("updates_rejected", 1);
                    self.observe("rejected_update_score", *score);
                }
                Event::RobustAggregate { mean_score, .. } => {
                    self.incr("robust_aggregations", 1);
                    self.observe("robust_mean_score", *mean_score);
                }
                Event::GroupOutage { members, .. } => {
                    self.incr("group_outages", 1);
                    self.incr("group_outage_devices", *members as u64);
                }
                Event::GlobalDeadlineSet { deadline_s, .. } => {
                    self.incr("global_deadlines_set", 1);
                    if let Some(d) = deadline_s {
                        self.observe("global_deadline_s", *d);
                    }
                }
                Event::CohortStraggling { makespan_s, .. } => {
                    self.incr("cohort_straggling", 1);
                    self.observe("cohort_straggle_makespan_s", *makespan_s);
                }
                Event::EdgeReduce {
                    makespan_s, link_s, ..
                } => {
                    self.incr("edge_reduces", 1);
                    self.observe("edge_reduce_makespan_s", *makespan_s);
                    self.observe("edge_link_s", *link_s);
                }
                Event::AsyncMerge {
                    staleness, weight, ..
                } => {
                    self.incr("async_merges", 1);
                    self.observe("async_staleness", *staleness as f64);
                    self.observe("async_mix_weight", *weight);
                }
                Event::DeadlineDrop { lost_shards, .. } => {
                    self.incr("deadline_drops", 1);
                    self.incr("deadline_lost_shards", *lost_shards as u64);
                }
            }
        }
    }

    /// Deterministic JSON snapshot: counters verbatim, histograms as
    /// `{count, mean, std_dev, min, max}` summaries, all keys sorted.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str(&mut out, name);
            let _ = write!(out, ":{value}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, hist)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str(&mut out, name);
            let _ = write!(out, ":{{\"count\":{}", hist.count());
            for (key, value) in [
                ("mean", hist.mean()),
                ("std_dev", hist.std_dev()),
                ("min", hist.min()),
                ("max", hist.max()),
            ] {
                out.push(',');
                json::push_str(&mut out, key);
                out.push(':');
                json::push_f64(&mut out, value);
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut reg = MetricsRegistry::new();
        assert_eq!(reg.counter("rounds"), 0);
        reg.incr("rounds", 1);
        reg.incr("rounds", 2);
        assert_eq!(reg.counter("rounds"), 3);
    }

    #[test]
    fn histogram_statistics() {
        let mut h = Histogram::default();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 8);
        assert!((h.mean() - 5.0).abs() < 1e-12);
        assert!((h.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(h.min(), 2.0);
        assert_eq!(h.max(), 9.0);
        assert_eq!(h.percentile(0.0), 2.0);
        assert_eq!(h.percentile(100.0), 9.0);
        // Nearest rank on 8 samples: round(0.5 * 7) = 4 -> sorted[4].
        assert_eq!(h.percentile(50.0), 5.0);
        // quantile() is the same scale in [0, 1].
        assert_eq!(h.quantile(0.5), 5.0);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.std_dev(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.percentile(50.0), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    /// While all observations fit in level 0 the sketch *is* the sample
    /// set, so quantiles stay exactly nearest-rank — the regime every
    /// simulation-scale histogram (≲ a few hundred values) lives in.
    #[test]
    fn small_histograms_are_exact() {
        let mut h = Histogram::default();
        let values: Vec<f64> = (0..SKETCH_LEVEL_CAP).map(|i| i as f64).collect();
        for &v in &values {
            h.observe(v);
        }
        assert_eq!(h.retained(), SKETCH_LEVEL_CAP);
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            let rank = (q * (values.len() - 1) as f64).round() as usize;
            assert_eq!(h.quantile(q), values[rank], "q={q}");
        }
    }

    /// Max-error pin on a known distribution: 100k uniformly spaced
    /// values, so the true quantile is the rank itself. The sketch must
    /// stay within 2% rank error at every probed quantile while retaining
    /// only a bounded number of values.
    #[test]
    fn sketch_quantile_error_is_bounded() {
        const N: usize = 100_000;
        let mut h = Histogram::default();
        for i in 0..N {
            // Deterministic shuffle of 0..N (LCG step over a coprime
            // stride) so insertion order is not adversarially sorted.
            let v = (i * 48_271 + 11) % N;
            h.observe(v as f64);
        }
        assert_eq!(h.count(), N);
        // Bounded memory: a handful of levels, each capped.
        assert!(
            h.retained() <= 16 * SKETCH_LEVEL_CAP,
            "sketch retained {} values",
            h.retained()
        );
        // Exact moments survive the sketching.
        let true_mean = (N - 1) as f64 / 2.0;
        assert!((h.mean() - true_mean).abs() / true_mean < 1e-9);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), (N - 1) as f64);
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let got = h.quantile(q);
            let want = q * (N - 1) as f64;
            let rank_err = (got - want).abs() / N as f64;
            assert!(
                rank_err <= 0.02,
                "q={q}: estimated {got}, true {want}, rank error {rank_err:.4}"
            );
        }
    }

    #[test]
    fn merge_adds_counters_and_concatenates_histograms() {
        let mut a = MetricsRegistry::new();
        a.incr("n", 1);
        a.observe("t", 1.0);
        let mut b = MetricsRegistry::new();
        b.incr("n", 2);
        b.incr("m", 5);
        b.observe("t", 3.0);
        a.merge(&b);
        assert_eq!(a.counter("n"), 3);
        assert_eq!(a.counter("m"), 5);
        assert_eq!(a.histogram("t").unwrap().count(), 2);
        assert!((a.histogram("t").unwrap().mean() - 2.0).abs() < 1e-12);
    }

    /// Merging two sketches is equivalent (in moments, and in quantiles
    /// up to sketch resolution) to observing the union.
    #[test]
    fn merged_histograms_match_union_statistics() {
        let mut left = Histogram::default();
        let mut right = Histogram::default();
        let mut union = Histogram::default();
        for i in 0..1000 {
            let v = (i * 7 % 1000) as f64;
            if i % 2 == 0 {
                left.observe(v);
            } else {
                right.observe(v);
            }
            union.observe(v);
        }
        left.merge_from(&right);
        assert_eq!(left.count(), union.count());
        assert!((left.mean() - union.mean()).abs() < 1e-9);
        assert!((left.std_dev() - union.std_dev()).abs() < 1e-9);
        assert_eq!(left.min(), union.min());
        assert_eq!(left.max(), union.max());
        for q in [0.1, 0.5, 0.9] {
            let diff = (left.quantile(q) - union.quantile(q)).abs();
            assert!(diff <= 0.02 * 1000.0, "q={q}: merged vs union diff {diff}");
        }
    }

    #[test]
    fn chaos_events_ingest_into_stable_names() {
        let events = [
            Event::FaultInjected {
                round: 0,
                device: Some(1),
                kind: "crash".into(),
                magnitude: 0.5,
            },
            Event::FaultInjected {
                round: 1,
                device: None,
                kind: "outage".into(),
                magnitude: 3.0,
            },
            Event::TransferRetry {
                round: 0,
                user: 1,
                attempt: 1,
                cause: "loss".into(),
                elapsed_s: 30.0,
            },
            Event::UserTimeout {
                round: 0,
                user: 1,
                cause: "crash".into(),
                shards_at_risk: 4,
            },
            Event::ShardsReassigned {
                round: 0,
                from_user: 1,
                to_user: 0,
                shards: 4,
            },
            Event::RoundDegraded {
                round: 0,
                scheduled: 10,
                completed: 9,
                rescued: 3,
                lost: 1,
                coverage: 0.9,
            },
            Event::AsyncMerge {
                t_s: 1.0,
                user: 0,
                staleness: 2,
                weight: 0.2,
            },
            Event::DeadlineDrop {
                user: 2,
                predicted_s: 50.0,
                deadline_s: 20.0,
                lost_shards: 6,
            },
        ];
        let mut reg = MetricsRegistry::new();
        reg.ingest(events.iter());
        assert_eq!(reg.counter("faults_injected"), 2);
        assert_eq!(reg.counter("fault_crash"), 1);
        assert_eq!(reg.counter("fault_outage"), 1);
        assert_eq!(reg.counter("transfer_retries"), 1);
        assert_eq!(reg.counter("transfer_retry_loss"), 1);
        assert_eq!(reg.counter("user_timeouts"), 1);
        assert_eq!(reg.counter("shards_reassigned"), 4);
        assert_eq!(reg.counter("rounds_degraded"), 1);
        assert_eq!(reg.counter("shards_lost"), 1);
        assert_eq!(reg.counter("shards_rescued"), 3);
        assert_eq!(reg.histogram("round_coverage").unwrap().mean(), 0.9);
        assert_eq!(reg.counter("async_merges"), 1);
        assert_eq!(reg.histogram("async_staleness").unwrap().mean(), 2.0);
        assert_eq!(reg.counter("deadline_drops"), 1);
        assert_eq!(reg.counter("deadline_lost_shards"), 6);
    }

    #[test]
    fn coordination_events_ingest_into_stable_names() {
        let events = [
            Event::GlobalDeadlineSet {
                round: 0,
                policy: "mean_factor".into(),
                deadline_s: Some(40.0),
                pooled: 32,
                cohorts: 4,
            },
            Event::GlobalDeadlineSet {
                round: 1,
                policy: "quantile".into(),
                deadline_s: None,
                pooled: 0,
                cohorts: 4,
            },
            Event::CohortStraggling {
                round: 0,
                cohort: 2,
                makespan_s: 55.0,
                deadline_s: Some(40.0),
                timed_out: 3,
            },
        ];
        let mut reg = MetricsRegistry::new();
        reg.ingest(events.iter());
        assert_eq!(reg.counter("global_deadlines_set"), 2);
        assert_eq!(reg.histogram("global_deadline_s").unwrap().count(), 1);
        assert_eq!(reg.histogram("global_deadline_s").unwrap().mean(), 40.0);
        assert_eq!(reg.counter("cohort_straggling"), 1);
        assert_eq!(
            reg.histogram("cohort_straggle_makespan_s").unwrap().mean(),
            55.0
        );
    }

    #[test]
    fn json_is_sorted_and_deterministic() {
        let build = || {
            let mut reg = MetricsRegistry::new();
            reg.incr("zeta", 1);
            reg.incr("alpha", 2);
            reg.observe("makespan_s", 1.5);
            reg.observe("makespan_s", 2.5);
            reg.to_json()
        };
        let json = build();
        assert_eq!(json, build());
        let alpha = json.find("\"alpha\"").unwrap();
        let zeta = json.find("\"zeta\"").unwrap();
        assert!(alpha < zeta, "counter keys must be sorted: {json}");
        assert!(json.contains(
            "\"makespan_s\":{\"count\":2,\"mean\":2.0,\"std_dev\":0.5,\"min\":1.5,\"max\":2.5}"
        ));
    }
}
