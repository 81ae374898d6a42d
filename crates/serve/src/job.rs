//! Serializable job documents.
//!
//! A [`JobRequest`] is everything needed to (re)run an experiment:
//! the [`JobSpec`], the per-device [`Schedule`], and the total round
//! budget. A [`Snapshot`] is a request plus a completed-round count;
//! because the simulators are deterministic, that pair reconstructs
//! the exact mid-run state by replay. Both documents use the same
//! canonical JSON discipline as the spec layer: fixed field order,
//! strict decoding (unknown fields are errors), and a version tag.

use fedsched_core::json::{self, JsonValue};
use fedsched_core::Schedule;
use fedsched_fl::spec::{check_schedule, schedule_from_json, schedule_to_json};
use fedsched_fl::{ConfigError, JobSpec};

/// Version tag for the job-request and snapshot wire documents.
pub const JOB_DOC_VERSION: u64 = 1;

/// Largest `rounds_total` a job request may ask for: a bigger budget,
/// advanced by a large `{"rounds":k}`, would pin its worker for good.
pub const MAX_JOB_ROUNDS: usize = 1 << 20;

fn bad(problem: impl Into<String>) -> ConfigError {
    ConfigError::InvalidSpec(problem.into())
}

fn expect_fields(v: &JsonValue, allowed: &[&str]) -> Result<(), ConfigError> {
    if let JsonValue::Obj(fields) = v {
        for (key, _) in fields {
            if !allowed.contains(&key.as_str()) {
                return Err(bad(format!("unknown field `{key}`")));
            }
        }
    }
    Ok(())
}

/// A complete, serializable description of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// What to build (target, devices, knobs).
    pub spec: JobSpec,
    /// The per-device shard assignment every round uses.
    pub schedule: Schedule,
    /// Total rounds the job runs before it is `Done`.
    pub rounds_total: usize,
}

impl JobRequest {
    /// Canonical JSON document: `{"version":1,"spec":..,"schedule":..,
    /// "rounds_total":..}` with fields in exactly that order.
    pub fn to_json(&self) -> JsonValue {
        json::obj(vec![
            ("version", json::num(JOB_DOC_VERSION as f64)),
            ("spec", self.spec.to_json()),
            ("schedule", schedule_to_json(&self.schedule)),
            ("rounds_total", json::num(self.rounds_total as f64)),
        ])
    }

    /// The canonical encoding as a string; input to [`JobRequest::fingerprint`].
    pub fn canonical_json(&self) -> String {
        self.to_json().encode()
    }

    /// The request-level checks, each an [`ConfigError::InvalidSpec`], in
    /// decode order: the schedule's shard bounds ([`check_schedule`]),
    /// `rounds_total` in `1..=`[`MAX_JOB_ROUNDS`], and one schedule entry
    /// per device the spec builds. Decoding and
    /// [`Supervisor::create_job`](crate::Supervisor::create_job) both run
    /// them, so an in-process request meets the wire's rules.
    pub fn check(&self) -> Result<(), ConfigError> {
        check_schedule(&self.schedule)?;
        let rounds_total = self.rounds_total;
        if rounds_total == 0 {
            return Err(bad("`rounds_total` must be at least 1"));
        }
        if rounds_total > MAX_JOB_ROUNDS {
            return Err(bad(format!(
                "`rounds_total` {rounds_total} exceeds the limit of {MAX_JOB_ROUNDS}"
            )));
        }
        let n_devices = self.spec.devices.n_devices()?;
        if self.schedule.shards.len() != n_devices {
            return Err(bad(format!(
                "schedule covers {} devices but the spec builds {n_devices}",
                self.schedule.shards.len()
            )));
        }
        Ok(())
    }

    /// Strict decode; unknown fields, version mismatches and requests
    /// that fail [`JobRequest::check`] are [`ConfigError::InvalidSpec`].
    pub fn from_json(v: &JsonValue) -> Result<Self, ConfigError> {
        expect_fields(v, &["version", "spec", "schedule", "rounds_total"])?;
        let version = v
            .get("version")
            .and_then(|x| x.as_u64().ok())
            .ok_or_else(|| bad("job request is missing `version`"))?;
        if version != JOB_DOC_VERSION {
            return Err(bad(format!(
                "unsupported job document version {version} (this build speaks {JOB_DOC_VERSION})"
            )));
        }
        let spec = JobSpec::from_json(
            v.get("spec")
                .ok_or_else(|| bad("job request is missing `spec`"))?,
        )?;
        let schedule = schedule_from_json(
            v.get("schedule")
                .ok_or_else(|| bad("job request is missing `schedule`"))?,
        )?;
        let rounds_total = v
            .get("rounds_total")
            .and_then(|x| x.as_usize().ok())
            .ok_or_else(|| bad("job request needs an integer `rounds_total`"))?;
        let request = JobRequest {
            spec,
            schedule,
            rounds_total,
        };
        request.check()?;
        Ok(request)
    }

    /// Parse a request from raw JSON text.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let v =
            JsonValue::parse(text).map_err(|e| bad(format!("malformed JSON: {}", e.message)))?;
        Self::from_json(&v)
    }

    /// FNV-1a 64 fingerprint of the canonical encoding. Two requests
    /// collide exactly when they describe the same experiment; the
    /// supervisor's cache and job IDs key on this.
    pub fn fingerprint(&self) -> u64 {
        json::fnv1a64(self.canonical_json().as_bytes())
    }

    /// The job ID this request maps to: `"j"` + 16 hex digits of the
    /// fingerprint.
    pub fn job_id(&self) -> String {
        format!("j{:016x}", self.fingerprint())
    }
}

/// A persisted resume point: the request plus how far it got.
///
/// Restore rebuilds the simulator from `request.spec` and replays
/// `completed_rounds` rounds; determinism makes the result bit-identical
/// to the pre-crash state, telemetry included.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// ID of the job this snapshot belongs to.
    pub job_id: String,
    /// Rounds already executed when the snapshot was taken.
    pub completed_rounds: usize,
    /// The full job description; sufficient to replay.
    pub request: JobRequest,
}

impl Snapshot {
    /// Canonical JSON document.
    pub fn to_json(&self) -> JsonValue {
        json::obj(vec![
            ("version", json::num(JOB_DOC_VERSION as f64)),
            ("job_id", json::str(&self.job_id)),
            ("completed_rounds", json::num(self.completed_rounds as f64)),
            ("request", self.request.to_json()),
        ])
    }

    /// The canonical encoding as a string (what the store persists).
    pub fn canonical_json(&self) -> String {
        self.to_json().encode()
    }

    /// Strict decode of a persisted snapshot.
    pub fn from_json(v: &JsonValue) -> Result<Self, ConfigError> {
        expect_fields(v, &["version", "job_id", "completed_rounds", "request"])?;
        let version = v
            .get("version")
            .and_then(|x| x.as_u64().ok())
            .ok_or_else(|| bad("snapshot is missing `version`"))?;
        if version != JOB_DOC_VERSION {
            return Err(bad(format!(
                "unsupported snapshot version {version} (this build speaks {JOB_DOC_VERSION})"
            )));
        }
        let job_id = v
            .get("job_id")
            .and_then(|x| x.as_str().ok())
            .ok_or_else(|| bad("snapshot is missing `job_id`"))?
            .to_string();
        let completed_rounds = v
            .get("completed_rounds")
            .and_then(|x| x.as_usize().ok())
            .ok_or_else(|| bad("snapshot needs an integer `completed_rounds`"))?;
        let request = JobRequest::from_json(
            v.get("request")
                .ok_or_else(|| bad("snapshot is missing `request`"))?,
        )?;
        if completed_rounds > request.rounds_total {
            return Err(bad(format!(
                "snapshot claims {completed_rounds} completed rounds of {}",
                request.rounds_total
            )));
        }
        if job_id != request.job_id() {
            return Err(bad(format!(
                "snapshot job_id `{job_id}` does not match the request fingerprint `{}`",
                request.job_id()
            )));
        }
        Ok(Snapshot {
            job_id,
            completed_rounds,
            request,
        })
    }

    /// Parse a snapshot from raw JSON text.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let v =
            JsonValue::parse(text).map_err(|e| bad(format!("malformed JSON: {}", e.message)))?;
        Self::from_json(&v)
    }
}

/// Lifecycle of a supervised job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Rounds remain and the worker is healthy.
    Running,
    /// All `rounds_total` rounds have executed.
    Done,
    /// A round panicked twice in a row (once live, once after a
    /// restore-and-retry); the job is parked and no longer advances.
    Failed,
}

impl JobStatus {
    /// Stable wire name.
    pub fn name(&self) -> &'static str {
        match self {
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsched_fl::spec::BuildTarget;
    use fedsched_fl::{DeviceSetSpec, JobSpec};

    fn request() -> JobRequest {
        let spec = JobSpec::new(
            BuildTarget::Hier,
            DeviceSetSpec::Testbed { preset: 1, seed: 7 },
            fedsched_device::TrainingWorkload::lenet(),
            fedsched_net::Link::wifi_campus(),
            2.5e6,
            7,
        );
        JobRequest {
            spec,
            schedule: Schedule::new(vec![8; 3], 100.0),
            rounds_total: 4,
        }
    }

    #[test]
    fn request_round_trips_and_is_canonical() {
        let req = request();
        let text = req.canonical_json();
        let back = JobRequest::parse(&text).unwrap();
        assert_eq!(back, req);
        assert_eq!(
            back.canonical_json(),
            text,
            "canonical form is a fixed point"
        );
        assert_eq!(back.fingerprint(), req.fingerprint());
        assert!(req.job_id().starts_with('j'));
        assert_eq!(req.job_id().len(), 17);
    }

    #[test]
    fn request_rejects_garbage() {
        let req = request();
        let err = |t: &str| JobRequest::parse(t).unwrap_err().cause_code();

        assert_eq!(err("not json"), "invalid_spec");
        assert_eq!(
            err(&req.canonical_json().replace("rounds_total", "round_total")),
            "invalid_spec"
        );
        assert_eq!(
            err(&req
                .canonical_json()
                .replace("\"version\":1", "\"version\":9")),
            "invalid_spec"
        );
        // Schedule arity must match the device set (3 devices in preset 1).
        let mut short = request();
        short.schedule = Schedule::new(vec![8; 2], 100.0);
        assert_eq!(err(&short.canonical_json()), "invalid_spec");
        // A zero round budget never makes sense.
        let mut zero = request();
        zero.rounds_total = 0;
        assert_eq!(err(&zero.canonical_json()), "invalid_spec");
        // The round budget is bounded, and the bound itself decodes.
        let mut over = request();
        over.rounds_total = MAX_JOB_ROUNDS + 1;
        let e = JobRequest::parse(&over.canonical_json()).unwrap_err();
        assert_eq!(e.cause_code(), "invalid_spec");
        assert!(e.to_string().contains("rounds_total"), "{e}");
        let mut at_limit = request();
        at_limit.rounds_total = MAX_JOB_ROUNDS;
        assert_eq!(
            JobRequest::parse(&at_limit.canonical_json()).unwrap(),
            at_limit
        );
        // Schedules the round core cannot simulate: a round of ~1e17
        // samples, a 2^53 shard count, and a negative shard size.
        let schedule = r#""schedule":{"shards":[8,8,8],"shard_size":100}"#;
        let text = req.canonical_json();
        assert!(text.contains(schedule), "{text}");
        for bad_schedule in [
            r#""schedule":{"shards":[8,8,8],"shard_size":1e15}"#,
            r#""schedule":{"shards":[9007199254740992,8,8],"shard_size":100}"#,
            r#""schedule":{"shards":[8,8,8],"shard_size":-5}"#,
        ] {
            let doc = text.replace(schedule, bad_schedule);
            let err = JobRequest::parse(&doc).unwrap_err();
            assert_eq!(err.cause_code(), "invalid_spec", "{doc}");
            assert!(err.to_string().contains("shard"), "{err}");
        }
    }

    #[test]
    fn snapshot_round_trips_and_validates() {
        let req = request();
        let snap = Snapshot {
            job_id: req.job_id(),
            completed_rounds: 2,
            request: req.clone(),
        };
        let back = Snapshot::parse(&snap.canonical_json()).unwrap();
        assert_eq!(back, snap);

        let mut wrong_id = snap.clone();
        wrong_id.job_id = "j0000000000000000".to_string();
        assert_eq!(
            Snapshot::parse(&wrong_id.canonical_json())
                .unwrap_err()
                .cause_code(),
            "invalid_spec"
        );

        let mut too_far = snap;
        too_far.completed_rounds = 99;
        assert_eq!(
            Snapshot::parse(&too_far.canonical_json())
                .unwrap_err()
                .cause_code(),
            "invalid_spec"
        );
    }

    #[test]
    fn distinct_requests_get_distinct_ids() {
        let a = request();
        let mut b = request();
        b.rounds_total = 5;
        assert_ne!(a.job_id(), b.job_id());
        let mut c = request();
        c.spec.seed = 8;
        assert_ne!(a.job_id(), c.job_id());
    }
}
