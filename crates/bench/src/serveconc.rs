//! Concurrent orchestration sweep — N heterogeneous jobs through one
//! `fedsched-serve` supervisor (service companion; not a paper figure).
//!
//! The supervisor gives every job its own worker thread, so a busy
//! service advances many experiments at once. That concurrency must be
//! *invisible* in the results: round digests and telemetry bytes are a
//! pure function of the job request, never of scheduling order or of
//! what else the service is running. This sweep drives a mixed fleet —
//! sequential with crashes, sequential with churn, population engine, and a
//! bandit-selection job under performance drift — through one supervisor
//! with all workers racing, then replays the same requests one at a time
//! through a fresh supervisor and compares every byte.
//!
//! The throughput numbers are wall-clock (and thus host-dependent); the
//! identity columns are the contract.

use std::sync::Arc;
use std::time::Instant;

use fedsched_core::Schedule;
use fedsched_device::TrainingWorkload;
use fedsched_faults::{ChurnConfig, DriftConfig, FaultConfig};
use fedsched_fl::spec::BuildTarget;
use fedsched_fl::{DeviceSetSpec, JobSpec, PolicyKind, RoundDigest, SelectionConfig};
use fedsched_net::{model_transfer_bytes, Link};
use fedsched_profiler::ModelArch;
use fedsched_serve::{JobRequest, MemoryStore, Supervisor};

use crate::report::Table;
use crate::scale::Scale;

/// Rounds each worker advances per mailbox command — small enough that
/// the concurrent pass genuinely interleaves jobs.
const ADVANCE_CHUNK: usize = 2;

/// One job's identity outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Human label for the arm.
    pub label: &'static str,
    /// Supervisor job ID (fingerprint-derived).
    pub job_id: String,
    /// Rounds the job ran.
    pub rounds: usize,
    /// Concurrent and sequential round digests agree exactly.
    pub digests_match: bool,
    /// Concurrent and sequential telemetry agree byte for byte.
    pub telemetry_match: bool,
}

/// The sweep result: per-job identity plus aggregate throughput.
#[derive(Debug, Clone)]
pub struct ServeConcurrentReport {
    /// One outcome per submitted job.
    pub jobs: Vec<JobOutcome>,
    /// Total rounds advanced across all jobs (per pass).
    pub total_rounds: usize,
    /// Wall-clock seconds for the concurrent pass.
    pub concurrent_secs: f64,
    /// Wall-clock seconds for the sequential pass.
    pub sequential_secs: f64,
    /// Resubmitting a running request returned the cached job.
    pub dedup_hit: bool,
}

/// The mixed job fleet: every simulator family the service hosts, plus a
/// bandit-selection job exercising the new wire knob end to end.
fn requests(scale: Scale, seed: u64) -> Vec<(&'static str, JobRequest)> {
    let rounds = scale.pick(6usize, 16);
    let wl = TrainingWorkload::lenet();
    let link = Link::wifi_campus();
    let bytes = model_transfer_bytes(&ModelArch::lenet());
    let spec_for = |target, preset, seed| {
        JobSpec::new(
            target,
            DeviceSetSpec::Testbed { preset, seed },
            wl,
            link,
            bytes,
            seed,
        )
    };
    let schedule_for = |spec: &JobSpec, shards: usize| {
        let n = spec.devices.n_devices().expect("valid preset");
        Schedule::new(vec![shards; n], crate::common::SHARD_SIZE)
    };

    let resilient = {
        let mut spec = spec_for(BuildTarget::EventSim, 1, seed);
        spec.faults = Some((FaultConfig::none().with_crash_prob(0.2), rounds));
        spec
    };
    let churny = {
        let mut spec = spec_for(BuildTarget::EventSim, 2, seed ^ 0x11);
        spec.faults = Some((FaultConfig::none().with_loss_prob(0.05), rounds));
        spec.churn = Some(ChurnConfig::symmetric(0.01, 60.0));
        spec
    };
    let hier = {
        let mut spec = spec_for(BuildTarget::Hier, 3, seed ^ 0x22);
        spec.cohort_size = Some(5);
        spec.threads = Some(2);
        spec
    };
    let bandit = {
        let mut spec = spec_for(BuildTarget::EventSim, 3, seed ^ 0x33);
        spec.faults = Some((
            FaultConfig::none()
                .with_loss_prob(0.05)
                .with_drift(DriftConfig::new(0.2, 6.0)),
            rounds,
        ));
        spec.selection = Some(SelectionConfig::new(PolicyKind::Ucb1 { c: 1.0 }, 6));
        spec
    };

    vec![
        ("resilient + crashes", resilient),
        ("event + churn", churny),
        ("population engine", hier),
        ("bandit + drift", bandit),
    ]
    .into_iter()
    .map(|(label, spec)| {
        let schedule = schedule_for(&spec, 10);
        (
            label,
            JobRequest {
                spec,
                schedule,
                rounds_total: rounds,
            },
        )
    })
    .collect()
}

/// Advance every submitted job to completion from one thread per job.
fn drive_concurrent(sup: &Supervisor, ids: &[String]) {
    std::thread::scope(|scope| {
        for id in ids {
            scope.spawn(move || loop {
                let reply = sup.advance(id, ADVANCE_CHUNK).expect("job advances");
                if reply.status != fedsched_serve::JobStatus::Running {
                    break;
                }
            });
        }
    });
}

/// Run the sweep: submit the fleet concurrently, then sequentially, and
/// compare digests and telemetry per job.
pub fn run(scale: Scale, seed: u64) -> ServeConcurrentReport {
    let fleet = requests(scale, seed);

    // Concurrent pass: one supervisor, every worker racing.
    let sup = Supervisor::new(Arc::new(MemoryStore::new()));
    let mut ids = Vec::new();
    for (_, request) in &fleet {
        let (info, cached) = sup.create_job(request.clone()).expect("valid request");
        assert!(!cached, "fresh supervisor should not dedup");
        ids.push(info.job_id);
    }
    // The cache is keyed on the request fingerprint: resubmitting a
    // running job hands back the same job untouched.
    let (_, dedup_hit) = sup
        .create_job(fleet[0].1.clone())
        .expect("resubmission is valid");
    let started = Instant::now();
    drive_concurrent(&sup, &ids);
    let concurrent_secs = started.elapsed().as_secs_f64();

    // Sequential pass: a fresh supervisor, one job at a time.
    let seq = Supervisor::new(Arc::new(MemoryStore::new()));
    let started = Instant::now();
    let mut seq_results: Vec<(Vec<RoundDigest>, String)> = Vec::new();
    for (_, request) in &fleet {
        let (info, _) = seq.create_job(request.clone()).expect("valid request");
        loop {
            let reply = seq.advance(&info.job_id, ADVANCE_CHUNK).expect("advances");
            if reply.status != fedsched_serve::JobStatus::Running {
                break;
            }
        }
        seq_results.push((
            seq.digests(&info.job_id).expect("digests"),
            seq.telemetry(&info.job_id, 0).expect("telemetry"),
        ));
    }
    let sequential_secs = started.elapsed().as_secs_f64();

    let mut jobs = Vec::new();
    let mut total_rounds = 0;
    for (i, (label, request)) in fleet.iter().enumerate() {
        let digests = sup.digests(&ids[i]).expect("digests");
        let telemetry = sup.telemetry(&ids[i], 0).expect("telemetry");
        total_rounds += request.rounds_total;
        jobs.push(JobOutcome {
            label,
            job_id: ids[i].clone(),
            rounds: request.rounds_total,
            digests_match: digests == seq_results[i].0,
            telemetry_match: telemetry == seq_results[i].1,
        });
    }
    ServeConcurrentReport {
        jobs,
        total_rounds,
        concurrent_secs,
        sequential_secs,
        dedup_hit,
    }
}

/// Render the report as a table plus throughput lines.
pub fn render(report: &ServeConcurrentReport) -> String {
    let mut out = String::from("## Concurrent serve sweep — N jobs through one supervisor\n\n");
    let mut t = Table::new(vec!["job", "id", "rounds", "digests", "telemetry"]);
    for j in &report.jobs {
        t.row(vec![
            j.label.to_string(),
            j.job_id.clone(),
            j.rounds.to_string(),
            if j.digests_match {
                "identical"
            } else {
                "DIVERGED"
            }
            .to_string(),
            if j.telemetry_match {
                "identical"
            } else {
                "DIVERGED"
            }
            .to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(&format!(
        "Concurrent: {} rounds across {} jobs in {:.2}s ({:.1} rounds/s aggregate); \
         sequential replay: {:.2}s ({:.1} rounds/s). Duplicate submission \
         dedup hit: {}.\n\n",
        report.total_rounds,
        report.jobs.len(),
        report.concurrent_secs,
        report.total_rounds as f64 / report.concurrent_secs.max(1e-9),
        report.sequential_secs,
        report.total_rounds as f64 / report.sequential_secs.max(1e-9),
        report.dedup_hit,
    ));
    out.push_str(
        "Finding: worker concurrency is invisible in the results — every \
         job's round digests and telemetry are byte-identical whether the \
         supervisor ran it alone or raced it against the whole fleet.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> &'static ServeConcurrentReport {
        use std::sync::OnceLock;
        static CACHE: OnceLock<ServeConcurrentReport> = OnceLock::new();
        CACHE.get_or_init(|| run(Scale::Smoke, 7))
    }

    #[test]
    fn concurrent_results_are_byte_identical_to_sequential() {
        for j in &report().jobs {
            assert!(j.digests_match, "{} digests diverged", j.label);
            assert!(j.telemetry_match, "{} telemetry diverged", j.label);
        }
    }

    #[test]
    fn fleet_covers_the_families_and_dedups() {
        let r = report();
        assert_eq!(r.jobs.len(), 4);
        assert!(r.dedup_hit, "resubmission should hit the job cache");
        let labels: Vec<&str> = r.jobs.iter().map(|j| j.label).collect();
        assert!(labels.contains(&"bandit + drift"));
        // Job IDs are fingerprints: all distinct.
        let mut ids: Vec<&String> = r.jobs.iter().map(|j| &j.job_id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), r.jobs.len());
    }

    #[test]
    fn render_reports_identity_not_divergence() {
        let s = render(report());
        assert!(s.contains("identical"));
        assert!(!s.contains("DIVERGED"), "{s}");
        assert!(s.contains("bandit + drift"));
    }
}
