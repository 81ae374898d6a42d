//! Update-divergence metrics.
//!
//! The paper leans on two statistical notions: *gradient divergence* (local
//! updates pulling away from the global direction under non-IID data, the
//! mechanism behind Fig. 3's accuracy loss) and *gradient diversity* (Yin et
//! al., AISTATS'18 — the paper's reference \[21\]) which it invokes to explain
//! why random assignments sometimes win Table III. This module computes both
//! from a round's client updates.

use fedsched_telemetry::{Event, MetricsRegistry};
use serde::Serialize;

/// Divergence statistics for one round of client updates.
#[derive(Debug, Clone, Serialize)]
pub struct DivergenceReport {
    /// Mean pairwise cosine similarity between client *deltas* (update
    /// minus previous global). 1.0 = all clients agree; near 0 or negative
    /// = divergent (non-IID symptom).
    pub mean_pairwise_cosine: f64,
    /// Gradient diversity `sum ||d_i||^2 / ||sum d_i||^2` (Yin et al.);
    /// higher = more diverse updates. Equals `1/n` when all deltas are
    /// identical... scaled by n: we report the normalized variant in
    /// `[1/n, inf)`.
    pub gradient_diversity: f64,
    /// L2 norm of each client's delta.
    pub delta_norms: Vec<f64>,
}

impl DivergenceReport {
    /// The telemetry event summarizing this round's divergence.
    pub fn to_event(&self, round: usize) -> Event {
        Event::RoundDivergence {
            round,
            mean_cosine: self.mean_pairwise_cosine,
        }
    }

    /// Fold this report into a [`MetricsRegistry`]: cosine and per-client
    /// delta norms as histogram observations, diversity only when finite
    /// (opposing updates make it `inf`, which would poison the mean).
    pub fn record_into(&self, registry: &mut MetricsRegistry) {
        registry.observe("divergence_mean_cosine", self.mean_pairwise_cosine);
        if self.gradient_diversity.is_finite() {
            registry.observe("gradient_diversity", self.gradient_diversity);
        }
        for &norm in &self.delta_norms {
            registry.observe("client_delta_norm", norm);
        }
    }
}

/// Cosine similarity between two vectors (0 when either is zero).
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "cosine: dimension mismatch");
    let mut dot = 0.0f64;
    let mut na = 0.0f64;
    let mut nb = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        dot += f64::from(x) * f64::from(y);
        na += f64::from(x) * f64::from(x);
        nb += f64::from(y) * f64::from(y);
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

/// Analyze a round: `updates[i]` is client i's uploaded parameters and
/// `previous_global` the model they all started from.
///
/// # Panics
/// Panics on an empty update set or mismatched dimensions.
pub fn analyze_round<U: AsRef<[f32]>>(updates: &[U], previous_global: &[f32]) -> DivergenceReport {
    assert!(!updates.is_empty(), "analyze_round: no updates");
    let dim = previous_global.len();
    assert!(
        updates.iter().all(|u| u.as_ref().len() == dim),
        "update dimension mismatch"
    );

    let deltas: Vec<Vec<f64>> = updates
        .iter()
        .map(|u| {
            u.as_ref()
                .iter()
                .zip(previous_global)
                .map(|(&w, &g)| f64::from(w) - f64::from(g))
                .collect()
        })
        .collect();

    let delta_norms: Vec<f64> = deltas
        .iter()
        .map(|d| d.iter().map(|x| x * x).sum::<f64>().sqrt())
        .collect();

    // Pairwise cosine over f64 deltas.
    let n = deltas.len();
    let mut cos_sum = 0.0;
    let mut pairs = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            let dot: f64 = deltas[i].iter().zip(&deltas[j]).map(|(a, b)| a * b).sum();
            let denom = delta_norms[i] * delta_norms[j];
            if denom > 0.0 {
                cos_sum += dot / denom;
                pairs += 1;
            }
        }
    }
    let mean_pairwise_cosine = if pairs == 0 {
        1.0
    } else {
        cos_sum / pairs as f64
    };

    // Gradient diversity: sum ||d_i||^2 / ||sum_i d_i||^2.
    let sum_sq: f64 = delta_norms.iter().map(|x| x * x).sum();
    let mut summed = vec![0.0f64; dim];
    for d in &deltas {
        for (s, &v) in summed.iter_mut().zip(d) {
            *s += v;
        }
    }
    let norm_sum_sq: f64 = summed.iter().map(|x| x * x).sum();
    let gradient_diversity = if norm_sum_sq == 0.0 {
        f64::INFINITY
    } else {
        sum_sq / norm_sum_sq
    };

    DivergenceReport {
        mean_pairwise_cosine,
        gradient_diversity,
        delta_norms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_basics() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-9);
        assert!((cosine_similarity(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-9);
        assert!((cosine_similarity(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-9);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    #[test]
    fn identical_updates_have_cosine_one_and_diversity_one_over_n() {
        let global = vec![0.0f32; 4];
        let update = vec![1.0f32, 2.0, 3.0, 4.0];
        let report = analyze_round(&[update.clone(), update.clone(), update], &global);
        assert!((report.mean_pairwise_cosine - 1.0).abs() < 1e-9);
        // sum||d||^2 = 3 * 30 = 90; ||sum||^2 = 9 * 30 = 270 -> 1/3.
        assert!((report.gradient_diversity - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn orthogonal_updates_have_zero_cosine_and_diversity_one() {
        let global = vec![0.0f32; 2];
        let report = analyze_round(&[vec![1.0, 0.0], vec![0.0, 1.0]], &global);
        assert!(report.mean_pairwise_cosine.abs() < 1e-9);
        // sum||d||^2 = 2; ||d1+d2||^2 = 2 -> diversity 1.0.
        assert!((report.gradient_diversity - 1.0).abs() < 1e-9);
    }

    #[test]
    fn opposing_updates_are_maximally_diverse() {
        let global = vec![0.0f32; 2];
        let report = analyze_round(&[vec![1.0, 0.0], vec![-1.0, 0.0]], &global);
        assert!((report.mean_pairwise_cosine + 1.0).abs() < 1e-9);
        assert!(report.gradient_diversity.is_infinite());
    }

    #[test]
    fn norms_are_reported_per_client() {
        let global = vec![1.0f32, 1.0];
        let report = analyze_round(&[vec![1.0, 1.0], vec![4.0, 5.0]], &global);
        assert_eq!(report.delta_norms[0], 0.0);
        assert!((report.delta_norms[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "no updates")]
    fn empty_updates_panic() {
        let _ = analyze_round::<Vec<f32>>(&[], &[0.0]);
    }

    #[test]
    fn report_converts_to_event_and_registry() {
        let global = vec![0.0f32; 2];
        let report = analyze_round(&[vec![1.0, 0.0], vec![0.0, 1.0]], &global);
        match report.to_event(3) {
            Event::RoundDivergence { round, mean_cosine } => {
                assert_eq!(round, 3);
                assert!((mean_cosine - report.mean_pairwise_cosine).abs() < 1e-12);
            }
            other => panic!("wrong event {other:?}"),
        }
        let mut reg = MetricsRegistry::new();
        report.record_into(&mut reg);
        assert_eq!(reg.histogram("divergence_mean_cosine").unwrap().count(), 1);
        assert_eq!(reg.histogram("client_delta_norm").unwrap().count(), 2);
        assert_eq!(reg.histogram("gradient_diversity").unwrap().count(), 1);
    }

    #[test]
    fn infinite_diversity_is_not_recorded() {
        let global = vec![0.0f32; 2];
        let report = analyze_round(&[vec![1.0, 0.0], vec![-1.0, 0.0]], &global);
        let mut reg = MetricsRegistry::new();
        report.record_into(&mut reg);
        assert!(reg.histogram("gradient_diversity").is_none());
        assert_eq!(reg.histogram("divergence_mean_cosine").unwrap().count(), 1);
    }
}
