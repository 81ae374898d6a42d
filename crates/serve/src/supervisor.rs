//! The actor runtime: one worker thread per job.
//!
//! Each job's simulator lives on exactly one worker thread; the rest of
//! the service talks to it through a typed-command mailbox. That gives
//! three properties the HTTP front end leans on:
//!
//! * **Serialization for free** — concurrent advance requests for one
//!   job queue in the mailbox and execute in order; the simulator never
//!   needs interior locking.
//! * **Panic isolation** — a round executes inside `catch_unwind`. A
//!   panicking round poisons nothing outside its own worker: the worker
//!   discards the torn simulator, rebuilds a fresh one from the spec,
//!   replays the completed rounds (determinism makes the replay
//!   bit-identical, telemetry included), and retries the round once.
//!   A round that panics again after a clean replay is a deterministic
//!   bug in the experiment, and the job parks as `Failed`.
//! * **Crash recovery** — a worker thread that died outright (or a
//!   whole process that was killed and restarted over the same state
//!   store) is respawned through the same rebuild-by-replay path, from
//!   the in-memory progress count or a persisted [`Snapshot`].
//!
//! The supervisor also acts as the experiment cache: job IDs are the
//! request fingerprint, so re-submitting an identical [`JobRequest`]
//! returns the existing job instead of spawning a duplicate.

use std::collections::HashMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;

use fedsched_fl::spec::RoundDigest;
use fedsched_fl::{BuiltSim, ConfigError};
use fedsched_telemetry::{EventLog, Probe};

use crate::job::{JobRequest, JobStatus, Snapshot};
use crate::store::StateStore;

/// Why a supervisor call failed.
#[derive(Debug)]
pub enum SupervisorError {
    /// No job with the given ID.
    NotFound(String),
    /// The request or spec was rejected; carries the in-process error
    /// verbatim so `cause_code` survives to the wire.
    Config(ConfigError),
    /// The state store failed.
    Io(io::Error),
    /// The job is parked as `Failed` (a round panicked deterministically).
    JobFailed(String),
}

impl std::fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupervisorError::NotFound(id) => write!(f, "no job `{id}`"),
            SupervisorError::Config(e) => write!(f, "{e}"),
            SupervisorError::Io(e) => write!(f, "state store error: {e}"),
            SupervisorError::JobFailed(why) => write!(f, "job failed: {why}"),
        }
    }
}

impl From<ConfigError> for SupervisorError {
    fn from(e: ConfigError) -> Self {
        SupervisorError::Config(e)
    }
}

impl From<io::Error> for SupervisorError {
    fn from(e: io::Error) -> Self {
        SupervisorError::Io(e)
    }
}

/// How the test-only crash hook should take the worker down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// Poison the worker so its next round panics (exercises in-worker
    /// catch-and-replay recovery).
    Panic,
    /// Make the worker thread exit immediately, dropping its mailbox
    /// and simulator (exercises supervisor-level respawn).
    Die,
}

/// What one advance call accomplished.
#[derive(Debug, Clone, PartialEq)]
pub struct AdvanceReply {
    /// Rounds actually executed by this call (0 when already done).
    pub executed: usize,
    /// Total rounds completed over the job's lifetime.
    pub completed_rounds: usize,
    /// Job status after the call.
    pub status: JobStatus,
    /// Makespan of the last executed round, if any were executed.
    pub last_makespan_s: Option<f64>,
}

/// A point-in-time public view of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobInfo {
    /// The job's ID (request fingerprint).
    pub job_id: String,
    /// Lifecycle state.
    pub status: JobStatus,
    /// Rounds completed so far.
    pub completed_rounds: usize,
    /// The job's round budget.
    pub rounds_total: usize,
    /// Recoveries performed (panic replays + worker respawns).
    pub restarts: usize,
    /// Telemetry events recorded so far.
    pub telemetry_events: usize,
}

/// Progress state shared between the worker and the front end.
struct Progress {
    completed_rounds: usize,
    digests: Vec<RoundDigest>,
    status: JobStatus,
    restarts: usize,
    /// Human-readable reason when `status == Failed`.
    failure: Option<String>,
}

/// Everything about a job except the simulator itself (which is owned
/// by the worker thread).
struct JobShared {
    job_id: String,
    request: JobRequest,
    /// The job's telemetry stream. The simulator's probe points here;
    /// rebuilds replay into it under the progress lock.
    log: Arc<EventLog>,
    progress: Mutex<Progress>,
}

impl JobShared {
    /// Rebuild the simulator from the spec and replay every completed
    /// round into a clean telemetry log. Holds the progress lock for
    /// the whole replay so readers never observe a half-replayed log.
    fn rebuild(&self) -> Result<BuiltSim, ConfigError> {
        let mut progress = self.progress.lock().unwrap();
        self.log.take();
        let mut sim = self.request.spec.build(Probe::attached(self.log.clone()))?;
        let mut digests = Vec::with_capacity(progress.completed_rounds);
        for _ in 0..progress.completed_rounds {
            digests.push(sim.step(&self.request.schedule));
        }
        progress.digests = digests;
        Ok(sim)
    }

    fn info(&self) -> JobInfo {
        let progress = self.progress.lock().unwrap();
        JobInfo {
            job_id: self.job_id.clone(),
            status: progress.status,
            completed_rounds: progress.completed_rounds,
            rounds_total: self.request.rounds_total,
            restarts: progress.restarts,
            telemetry_events: self.log.len(),
        }
    }

    /// JSONL telemetry from event index `from` onward. Taken under the
    /// progress lock so a concurrent rebuild can't expose a
    /// half-replayed log.
    fn telemetry_from(&self, from: usize) -> String {
        let _progress = self.progress.lock().unwrap();
        self.log.to_jsonl_from(from)
    }
}

/// Commands a worker accepts through its mailbox.
enum Command {
    Advance {
        rounds: usize,
        reply: mpsc::Sender<Result<AdvanceReply, String>>,
    },
    Crash {
        mode: CrashMode,
        reply: mpsc::Sender<()>,
    },
    Stop,
}

struct JobHandle {
    shared: Arc<JobShared>,
    /// Mailbox sender; the mutex doubles as the per-job operation lock
    /// so a dead worker is respawned exactly once.
    tx: Mutex<mpsc::Sender<Command>>,
}

/// The service core: owns every job, its worker, and the state store.
pub struct Supervisor {
    jobs: Mutex<HashMap<String, Arc<JobHandle>>>,
    store: Arc<dyn StateStore>,
}

impl Supervisor {
    /// A supervisor over the given snapshot store. Call
    /// [`Supervisor::restore_all`] afterwards to adopt persisted jobs.
    pub fn new(store: Arc<dyn StateStore>) -> Self {
        Supervisor {
            jobs: Mutex::new(HashMap::new()),
            store,
        }
    }

    /// Submit a job. Returns `(info, cached)`; `cached` is true when an
    /// identical request (same fingerprint) was already running, in
    /// which case the existing job is returned untouched. New jobs are
    /// validated eagerly — a bad request ([`JobRequest::check`]) or spec
    /// is reported here, not at first advance — and persisted to the
    /// store at round zero.
    pub fn create_job(&self, request: JobRequest) -> Result<(JobInfo, bool), SupervisorError> {
        let job_id = request.job_id();
        {
            let jobs = self.jobs.lock().unwrap();
            if let Some(handle) = jobs.get(&job_id) {
                return Ok((handle.shared.info(), true));
            }
        }
        // Validate before spawning anything; the worker builds.
        request.check()?;
        request.spec.check()?;
        let snapshot = Snapshot {
            job_id: job_id.clone(),
            completed_rounds: 0,
            request: request.clone(),
        };
        self.store.put(&job_id, &snapshot.canonical_json())?;
        let handle = self.adopt(request, 0);
        Ok((handle.shared.info(), false))
    }

    /// Adopt every decodable snapshot in the store as a live job,
    /// replaying each to its recorded round. Returns the adopted IDs;
    /// undecodable documents are skipped and reported alongside.
    pub fn restore_all(&self) -> io::Result<(Vec<String>, Vec<String>)> {
        let mut adopted = Vec::new();
        let mut skipped = Vec::new();
        for id in self.store.list()? {
            if self.jobs.lock().unwrap().contains_key(&id) {
                continue;
            }
            let Some(doc) = self.store.get(&id)? else {
                continue;
            };
            match Snapshot::parse(&doc) {
                Ok(snap) if snap.job_id == id => {
                    self.adopt(snap.request, snap.completed_rounds);
                    adopted.push(id);
                }
                _ => skipped.push(id),
            }
        }
        Ok((adopted, skipped))
    }

    /// Register a job at `completed_rounds` and spawn its worker (which
    /// replays up to that round before serving commands).
    fn adopt(&self, request: JobRequest, completed_rounds: usize) -> Arc<JobHandle> {
        let job_id = request.job_id();
        let status = if completed_rounds >= request.rounds_total {
            JobStatus::Done
        } else {
            JobStatus::Running
        };
        let shared = Arc::new(JobShared {
            job_id: job_id.clone(),
            request,
            log: Arc::new(EventLog::new()),
            progress: Mutex::new(Progress {
                completed_rounds,
                digests: Vec::new(),
                status,
                restarts: 0,
                failure: None,
            }),
        });
        let tx = spawn_worker(shared.clone());
        let handle = Arc::new(JobHandle {
            shared,
            tx: Mutex::new(tx),
        });
        self.jobs.lock().unwrap().insert(job_id, handle.clone());
        handle
    }

    fn handle(&self, job_id: &str) -> Result<Arc<JobHandle>, SupervisorError> {
        self.jobs
            .lock()
            .unwrap()
            .get(job_id)
            .cloned()
            .ok_or_else(|| SupervisorError::NotFound(job_id.to_string()))
    }

    /// Advance a job by up to `rounds` rounds (clamped to the remaining
    /// budget). If the worker thread has died, it is respawned through
    /// replay and the call retried once — callers never see a dead
    /// worker as an error.
    pub fn advance(&self, job_id: &str, rounds: usize) -> Result<AdvanceReply, SupervisorError> {
        let handle = self.handle(job_id)?;
        let mut tx = handle.tx.lock().unwrap();
        for attempt in 0..2 {
            let (reply_tx, reply_rx) = mpsc::channel();
            let sent = tx
                .send(Command::Advance {
                    rounds,
                    reply: reply_tx,
                })
                .is_ok();
            if sent {
                match reply_rx.recv() {
                    Ok(Ok(reply)) => return Ok(reply),
                    Ok(Err(why)) => return Err(SupervisorError::JobFailed(why)),
                    Err(_) => {} // worker died mid-command; fall through
                }
            }
            if attempt == 0 {
                handle.shared.progress.lock().unwrap().restarts += 1;
                *tx = spawn_worker(handle.shared.clone());
            }
        }
        Err(SupervisorError::JobFailed(
            "worker did not survive a respawn".to_string(),
        ))
    }

    /// Point-in-time view of one job.
    pub fn info(&self, job_id: &str) -> Result<JobInfo, SupervisorError> {
        Ok(self.handle(job_id)?.shared.info())
    }

    /// All jobs, sorted by ID.
    pub fn list(&self) -> Vec<JobInfo> {
        let jobs = self.jobs.lock().unwrap();
        let mut infos: Vec<JobInfo> = jobs.values().map(|h| h.shared.info()).collect();
        infos.sort_by(|a, b| a.job_id.cmp(&b.job_id));
        infos
    }

    /// The job's round digests up to now (replay-stable).
    pub fn digests(&self, job_id: &str) -> Result<Vec<RoundDigest>, SupervisorError> {
        let handle = self.handle(job_id)?;
        let progress = handle.shared.progress.lock().unwrap();
        Ok(progress.digests.clone())
    }

    /// JSONL telemetry from event index `from` onward.
    pub fn telemetry(&self, job_id: &str, from: usize) -> Result<String, SupervisorError> {
        Ok(self.handle(job_id)?.shared.telemetry_from(from))
    }

    /// Persist the job's current progress as a [`Snapshot`] and return it.
    pub fn snapshot(&self, job_id: &str) -> Result<Snapshot, SupervisorError> {
        let handle = self.handle(job_id)?;
        let completed_rounds = handle.shared.progress.lock().unwrap().completed_rounds;
        let snapshot = Snapshot {
            job_id: job_id.to_string(),
            completed_rounds,
            request: handle.shared.request.clone(),
        };
        self.store.put(job_id, &snapshot.canonical_json())?;
        Ok(snapshot)
    }

    /// Stop a job's worker and remove the job and its persisted state.
    pub fn delete(&self, job_id: &str) -> Result<(), SupervisorError> {
        let handle = {
            let mut jobs = self.jobs.lock().unwrap();
            jobs.remove(job_id)
                .ok_or_else(|| SupervisorError::NotFound(job_id.to_string()))?
        };
        let _ = handle.tx.lock().unwrap().send(Command::Stop);
        self.store.delete(job_id)?;
        Ok(())
    }

    /// Test-only crash hook: take the job's worker down in the given
    /// way. The next advance exercises the corresponding recovery path.
    pub fn inject_crash(&self, job_id: &str, mode: CrashMode) -> Result<(), SupervisorError> {
        let handle = self.handle(job_id)?;
        let tx = handle.tx.lock().unwrap();
        let (reply_tx, reply_rx) = mpsc::channel();
        if tx
            .send(Command::Crash {
                mode,
                reply: reply_tx,
            })
            .is_ok()
        {
            let _ = reply_rx.recv();
        }
        Ok(())
    }
}

/// Spawn a worker for `shared`: rebuild-and-replay to the recorded
/// round, then serve mailbox commands until `Stop` or channel close.
fn spawn_worker(shared: Arc<JobShared>) -> mpsc::Sender<Command> {
    let (tx, rx) = mpsc::channel::<Command>();
    thread::spawn(move || {
        let mut sim = match shared.rebuild() {
            Ok(sim) => sim,
            Err(e) => {
                let mut progress = shared.progress.lock().unwrap();
                progress.status = JobStatus::Failed;
                progress.failure = Some(format!("rebuild failed: {e}"));
                // Drain the mailbox reporting failure so callers get an
                // answer instead of a dropped reply channel.
                for cmd in rx {
                    match cmd {
                        Command::Advance { reply, .. } => {
                            let _ = reply.send(Err(format!("rebuild failed: {e}")));
                        }
                        Command::Crash { reply, .. } => {
                            let _ = reply.send(());
                        }
                        Command::Stop => return,
                    }
                }
                return;
            }
        };
        let mut poisoned = false;
        for cmd in rx {
            match cmd {
                Command::Stop => return,
                Command::Crash { mode, reply } => match mode {
                    CrashMode::Panic => {
                        poisoned = true;
                        let _ = reply.send(());
                    }
                    CrashMode::Die => {
                        let _ = reply.send(());
                        return;
                    }
                },
                Command::Advance { rounds, reply } => {
                    let result = advance_rounds(&shared, &mut sim, rounds, &mut poisoned);
                    let _ = reply.send(result);
                }
            }
        }
    });
    tx
}

/// Execute up to `rounds` rounds on the worker thread, recovering from
/// at most one panic per round via rebuild-and-replay.
fn advance_rounds(
    shared: &JobShared,
    sim: &mut BuiltSim,
    rounds: usize,
    poisoned: &mut bool,
) -> Result<AdvanceReply, String> {
    {
        let progress = shared.progress.lock().unwrap();
        if progress.status == JobStatus::Failed {
            return Err(progress
                .failure
                .clone()
                .unwrap_or_else(|| "job is failed".to_string()));
        }
    }
    let mut executed = 0usize;
    let mut last_makespan = None;
    let mut retried_round = None;
    loop {
        let (completed, total) = {
            let progress = shared.progress.lock().unwrap();
            (progress.completed_rounds, shared.request.rounds_total)
        };
        if executed >= rounds || completed >= total {
            break;
        }
        let step = catch_unwind(AssertUnwindSafe(|| {
            if *poisoned {
                *poisoned = false;
                panic!("injected test crash");
            }
            sim.step(&shared.request.schedule)
        }));
        match step {
            Ok(digest) => {
                executed += 1;
                last_makespan = Some(digest.makespan_s);
                let mut progress = shared.progress.lock().unwrap();
                progress.completed_rounds += 1;
                progress.digests.push(digest);
                if progress.completed_rounds >= shared.request.rounds_total {
                    progress.status = JobStatus::Done;
                }
            }
            Err(_) => {
                if retried_round == Some(completed) {
                    let why =
                        format!("round {completed} panicked twice (once after a clean replay)");
                    let mut progress = shared.progress.lock().unwrap();
                    progress.status = JobStatus::Failed;
                    progress.failure = Some(why.clone());
                    return Err(why);
                }
                retried_round = Some(completed);
                match shared.rebuild() {
                    Ok(fresh) => {
                        *sim = fresh;
                        shared.progress.lock().unwrap().restarts += 1;
                    }
                    Err(e) => {
                        let why = format!("rebuild after panic failed: {e}");
                        let mut progress = shared.progress.lock().unwrap();
                        progress.status = JobStatus::Failed;
                        progress.failure = Some(why.clone());
                        return Err(why);
                    }
                }
            }
        }
    }
    let progress = shared.progress.lock().unwrap();
    Ok(AdvanceReply {
        executed,
        completed_rounds: progress.completed_rounds,
        status: progress.status,
        last_makespan_s: last_makespan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemoryStore;
    use fedsched_core::Schedule;
    use fedsched_device::TrainingWorkload;
    use fedsched_fl::spec::BuildTarget;
    use fedsched_fl::{DeviceSetSpec, JobSpec};
    use fedsched_net::Link;

    fn request(seed: u64, rounds_total: usize) -> JobRequest {
        let mut spec = JobSpec::new(
            BuildTarget::Hier,
            DeviceSetSpec::Testbed { preset: 2, seed },
            TrainingWorkload::lenet(),
            Link::wifi_campus(),
            2.5e6,
            seed,
        );
        spec.cohort_size = Some(3);
        spec.threads = Some(2);
        JobRequest {
            spec,
            schedule: Schedule::new(vec![6; 6], 100.0),
            rounds_total,
        }
    }

    fn supervisor() -> Supervisor {
        Supervisor::new(Arc::new(MemoryStore::new()))
    }

    /// Drive a request straight through with no crashes and return the
    /// final (digest-debug, telemetry) pair — the recovery tests'
    /// reference output.
    fn uninterrupted(request: &JobRequest) -> (String, String) {
        let sup = supervisor();
        let (info, _) = sup.create_job(request.clone()).unwrap();
        sup.advance(&info.job_id, request.rounds_total).unwrap();
        (
            format!("{:?}", sup.digests(&info.job_id).unwrap()),
            sup.telemetry(&info.job_id, 0).unwrap(),
        )
    }

    #[test]
    fn jobs_run_to_completion_and_cache_by_fingerprint() {
        let sup = supervisor();
        let req = request(11, 3);
        let (info, cached) = sup.create_job(req.clone()).unwrap();
        assert!(!cached);
        assert_eq!(info.status, JobStatus::Running);

        // Identical request: cache hit, same job, nothing spawned.
        let (again, cached) = sup.create_job(req.clone()).unwrap();
        assert!(cached);
        assert_eq!(again.job_id, info.job_id);

        let reply = sup.advance(&info.job_id, 2).unwrap();
        assert_eq!(reply.executed, 2);
        assert_eq!(reply.status, JobStatus::Running);
        let reply = sup.advance(&info.job_id, 99).unwrap();
        assert_eq!(reply.executed, 1, "advance clamps to the round budget");
        assert_eq!(reply.status, JobStatus::Done);
        let reply = sup.advance(&info.job_id, 1).unwrap();
        assert_eq!(reply.executed, 0);

        let info = sup.info(&info.job_id).unwrap();
        assert_eq!(info.completed_rounds, 3);
        assert_eq!(info.restarts, 0);
        assert!(info.telemetry_events > 0);
        assert_eq!(sup.digests(&info.job_id).unwrap().len(), 3);
    }

    #[test]
    fn bad_specs_are_rejected_at_creation_with_their_cause_code() {
        let sup = supervisor();
        let mut req = request(11, 3);
        req.spec.cohort_size = Some(0);
        match sup.create_job(req).unwrap_err() {
            SupervisorError::Config(e) => assert_eq!(e.cause_code(), "zero_cohort_size"),
            other => panic!("expected Config error, got {other:?}"),
        }
        assert!(
            sup.list().is_empty(),
            "rejected jobs must not be registered"
        );
    }

    #[test]
    fn in_process_requests_are_held_to_the_wire_request_checks() {
        use crate::job::MAX_JOB_ROUNDS;
        use fedsched_fl::spec::MAX_ROUND_SAMPLES;

        let edits: [fn(&mut JobRequest); 6] = [
            |r| r.rounds_total = 0,
            |r| r.rounds_total = MAX_JOB_ROUNDS + 1,
            // Two entries for Testbed II's six devices.
            |r| r.schedule.shards.truncate(2),
            |r| r.schedule.shard_size = -5.0,
            |r| r.schedule.shard_size = f64::NAN,
            // 36 shards of 2^26 / 35 samples: past a round's cap.
            |r| r.schedule.shard_size = MAX_ROUND_SAMPLES as f64 / 35.0,
        ];
        let store: Arc<dyn StateStore> = Arc::new(MemoryStore::new());
        let sup = Supervisor::new(store.clone());
        for edit in edits {
            let mut req = request(61, 3);
            edit(&mut req);
            let wire = JobRequest::parse(&req.canonical_json()).expect_err("decoding refuses it");
            assert_eq!(wire.cause_code(), "invalid_spec", "{wire}");
            match sup.create_job(req.clone()) {
                Err(SupervisorError::Config(e)) => assert_eq!(e, wire, "{req:?}"),
                other => panic!("expected `{wire}` for {req:?}, got {other:?}"),
            }
        }
        assert!(sup.list().is_empty(), "refused jobs must not be registered");
        assert!(store.list().unwrap().is_empty(), "nor persisted");
        let (adopted, skipped) = Supervisor::new(store).restore_all().unwrap();
        assert!(adopted.is_empty() && skipped.is_empty());
    }

    #[test]
    fn panic_recovery_is_bit_identical_to_an_uninterrupted_run() {
        let req = request(23, 4);
        let reference = uninterrupted(&req);

        let sup = supervisor();
        let (info, _) = sup.create_job(req.clone()).unwrap();
        sup.advance(&info.job_id, 2).unwrap();
        sup.inject_crash(&info.job_id, CrashMode::Panic).unwrap();
        let reply = sup.advance(&info.job_id, 2).unwrap();
        assert_eq!(reply.status, JobStatus::Done);
        let info = sup.info(&info.job_id).unwrap();
        assert_eq!(info.restarts, 1, "the panic must have triggered one replay");

        let recovered = (
            format!("{:?}", sup.digests(&info.job_id).unwrap()),
            sup.telemetry(&info.job_id, 0).unwrap(),
        );
        assert_eq!(recovered, reference);
    }

    #[test]
    fn dead_worker_is_respawned_and_stays_bit_identical() {
        let req = request(31, 4);
        let reference = uninterrupted(&req);

        let sup = supervisor();
        let (info, _) = sup.create_job(req.clone()).unwrap();
        sup.advance(&info.job_id, 3).unwrap();
        sup.inject_crash(&info.job_id, CrashMode::Die).unwrap();
        let reply = sup.advance(&info.job_id, 1).unwrap();
        assert_eq!(reply.status, JobStatus::Done);
        let info = sup.info(&info.job_id).unwrap();
        assert_eq!(info.restarts, 1, "the dead worker must have been respawned");

        let recovered = (
            format!("{:?}", sup.digests(&info.job_id).unwrap()),
            sup.telemetry(&info.job_id, 0).unwrap(),
        );
        assert_eq!(recovered, reference);
    }

    #[test]
    fn snapshot_restore_across_supervisors_is_bit_identical() {
        let req = request(47, 5);
        let reference = uninterrupted(&req);

        // First "process": run 2 rounds, snapshot, drop the supervisor.
        let store: Arc<dyn StateStore> = Arc::new(MemoryStore::new());
        let job_id = {
            let sup = Supervisor::new(store.clone());
            let (info, _) = sup.create_job(req.clone()).unwrap();
            sup.advance(&info.job_id, 2).unwrap();
            let snap = sup.snapshot(&info.job_id).unwrap();
            assert_eq!(snap.completed_rounds, 2);
            info.job_id
        };

        // Second "process": restore from the store and finish the job.
        let sup = Supervisor::new(store);
        let (adopted, skipped) = sup.restore_all().unwrap();
        assert_eq!(adopted, vec![job_id.clone()]);
        assert!(skipped.is_empty());
        let info = sup.info(&job_id).unwrap();
        assert_eq!(info.completed_rounds, 2);
        let reply = sup.advance(&job_id, 99).unwrap();
        assert_eq!(reply.status, JobStatus::Done);

        let recovered = (
            format!("{:?}", sup.digests(&job_id).unwrap()),
            sup.telemetry(&job_id, 0).unwrap(),
        );
        assert_eq!(recovered, reference);
    }

    #[test]
    fn delete_removes_the_job_and_its_state() {
        let sup = supervisor();
        let (info, _) = sup.create_job(request(53, 2)).unwrap();
        sup.delete(&info.job_id).unwrap();
        assert!(matches!(
            sup.info(&info.job_id),
            Err(SupervisorError::NotFound(_))
        ));
        assert!(matches!(
            sup.delete(&info.job_id),
            Err(SupervisorError::NotFound(_))
        ));
        // The persisted snapshot is gone too: nothing restores.
        let (adopted, _) = sup.restore_all().unwrap();
        assert!(adopted.is_empty());
    }

    #[test]
    fn telemetry_tail_streams_only_the_new_suffix() {
        let sup = supervisor();
        let req = request(59, 3);
        let (info, _) = sup.create_job(req).unwrap();
        sup.advance(&info.job_id, 1).unwrap();
        let head = sup.telemetry(&info.job_id, 0).unwrap();
        let seen = head.lines().count();
        sup.advance(&info.job_id, 2).unwrap();
        let tail = sup.telemetry(&info.job_id, seen).unwrap();
        let full = sup.telemetry(&info.job_id, 0).unwrap();
        assert_eq!(format!("{head}{tail}"), full);
        assert!(!tail.is_empty());
    }
}
