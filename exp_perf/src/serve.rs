//! `serve_mixed`: the orchestration service under closed-loop load, over
//! a real TCP socket, plus the service probe every simulator workload's
//! traced run takes.
//!
//! Two client threads each run jobs back to back, one connection per
//! request, waiting for every reply — the way `jobctl` drives the
//! service. The server's accept loop has no shutdown, so its thread (and
//! any server bound for a set-up sample) lives until the process exits.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use fedsched_core::json::JsonValue;
use fedsched_core::Schedule;
use fedsched_device::Testbed;
use fedsched_faults::{ChurnConfig, DriftConfig, FaultConfig};
use fedsched_fl::{
    AdmissionPolicy, BuildTarget, DeviceSetSpec, JobSpec, PolicyKind, SelectionConfig,
};
use fedsched_net::RetryPolicy;
use fedsched_serve::{JobRequest, MemoryStore, Server, Supervisor};
use fedsched_telemetry::{EventLog, Probe};

use crate::inputs::{self, derive, Size, SHARD_SIZE};
use crate::sims::{self, Fnv};
use crate::stats;
use crate::trace::{Timer, Tracer};
use crate::{Episode, Run};

/// Rounds every job runs, one `advance` request each.
pub const JOB_ROUNDS: usize = 20;
/// The telemetry tail is fetched after every this many rounds.
const TAIL_EVERY: usize = 5;
/// Every this-many-th job's telemetry (and the whole first cycle's) is
/// checked against an in-process replay.
const VERIFY_EVERY: usize = 50;
/// Client threads: one per core of the two-core reference host.
const CLIENTS: usize = 2;
/// Set-up samples (fresh server each) per run.
const SETUPS: usize = 15;
/// Job kinds in the mix; a client runs whole cycles of all of them.
const KINDS: usize = 4;
/// Job indices from here on are warm-up jobs, never timed.
const WARMUP: usize = 1 << 30;

/// One HTTP exchange on its own connection; the reply body, or why the
/// exchange failed or did not answer 2xx.
fn ok(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed response to {method} {path}"))?;
    let reply = raw
        .split_once("\r\n\r\n")
        .map_or(String::new(), |(_, b)| b.to_string());
    if (200..300).contains(&status) {
        Ok(reply)
    } else {
        Err(format!("{method} {path} answered {status}: {reply}"))
    }
}

fn field<'a>(v: &'a JsonValue, path: &[&str]) -> Option<&'a JsonValue> {
    path.iter().try_fold(v, |v, key| v.get(key))
}

/// A fresh service on an ephemeral port; returns its address once
/// `GET /healthz` answers.
fn start_service() -> Result<SocketAddr, String> {
    let supervisor = Arc::new(Supervisor::new(Arc::new(MemoryStore::new())));
    let server = Server::bind("127.0.0.1:0", supervisor).map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    // Detached on purpose: `serve_forever` never returns.
    server.spawn();
    ok(addr, "GET", "/healthz", "")?;
    Ok(addr)
}

/// The id of the job a `POST /jobs` reply created; a cached answer is an
/// error, since every job the benchmark submits is new to its server.
fn created_id(reply: &str) -> Result<String, String> {
    let created = JsonValue::parse(reply).map_err(|e| e.to_string())?;
    if field(&created, &["cached"]) != Some(&JsonValue::Bool(false)) {
        return Err("a fresh job was answered from the cache".into());
    }
    field(&created, &["job", "job_id"])
        .and_then(|v| v.as_str().ok())
        .map(String::from)
        .ok_or_else(|| "create reply has no job id".into())
}

/// Service set-up: a fresh service that has admitted one job of each
/// kind. Returns its address and the set-up time; the jobs are then
/// deleted, untimed.
fn cold_start(mix: &Mix) -> Result<(SocketAddr, f64), String> {
    let start = Instant::now();
    let addr = start_service()?;
    let mut ids = Vec::new();
    for request in kind_jobs(mix) {
        ids.push(created_id(&ok(
            addr,
            "POST",
            "/jobs",
            &request.canonical_json(),
        )?)?);
    }
    let secs = start.elapsed().as_secs_f64();
    for id in ids {
        ok(addr, "DELETE", &format!("/jobs/{id}"), "")?;
    }
    Ok((addr, secs))
}

/// The job mix. Its Testbed I–III jobs run Fed-LBAP plans made once per
/// run over fixed fleets; jobs differ in their simulation seed.
pub struct Mix {
    seed: u64,
    plans: Vec<Schedule>,
}

impl Mix {
    pub fn new(seed: u64) -> Result<Self, String> {
        let plans = (1..=3)
            .map(|preset| {
                let testbed = Testbed::by_index(preset, derive(seed, 100 + preset as u64));
                inputs::lbap_plan(&testbed, 60 * (preset + 1), &Timer::off())
            })
            .collect::<Result<_, _>>()?;
        Ok(Mix { seed, plans })
    }

    /// Job `index` of client `client`; `index` picks the kind, and the
    /// pair picks the simulation seed, so no two jobs share a fingerprint.
    pub fn job(&self, client: usize, index: usize) -> JobRequest {
        let kind = index % KINDS;
        let sim_seed = derive(self.seed, ((client as u64 + 1) << 40) | index as u64);
        let testbed = |preset: usize| DeviceSetSpec::Testbed {
            preset,
            seed: derive(self.seed, 100 + preset as u64),
        };
        let (spec, schedule) = match kind {
            0 => (
                inputs::lenet_spec(BuildTarget::EventSim, testbed(1), sim_seed),
                self.plans[0].clone(),
            ),
            1 => {
                let mut spec = inputs::lenet_spec(BuildTarget::EventSim, testbed(2), sim_seed);
                let faults = FaultConfig::none()
                    .with_crash_prob(0.05)
                    .with_loss_prob(0.05);
                spec.faults = Some((faults, JOB_ROUNDS));
                spec.retry = Some(RetryPolicy::default_chaos());
                spec.churn = Some(ChurnConfig::symmetric(0.01, 60.0));
                spec.admission = Some(AdmissionPolicy::NextRound);
                (spec, self.plans[1].clone())
            }
            2 => {
                let mut spec = inputs::lenet_spec(BuildTarget::EventSim, testbed(3), sim_seed);
                let faults = FaultConfig::none()
                    .with_loss_prob(0.05)
                    .with_drift(DriftConfig::new(0.2, 6.0));
                spec.faults = Some((faults, JOB_ROUNDS));
                spec.selection = Some(SelectionConfig::new(PolicyKind::Ucb1 { c: 1.0 }, 6));
                (spec, self.plans[2].clone())
            }
            _ => {
                let devices = DeviceSetSpec::Replicated {
                    preset: 3,
                    copies: 10,
                    seed: derive(self.seed, 104),
                };
                let mut spec = inputs::lenet_spec(BuildTarget::Hier, devices, sim_seed);
                spec.threads = Some(1);
                spec.cohort_size = Some(10);
                spec.edges = Some(2);
                (spec, Schedule::new(vec![2; 100], SHARD_SIZE))
            }
        };
        JobRequest {
            spec,
            schedule,
            rounds_total: JOB_ROUNDS,
        }
    }
}

/// What one job's requests returned, for the later correctness checks.
struct JobTrace {
    request: JobRequest,
    telemetry: String,
}

/// Per-client tallies, merged after the load.
#[derive(Default)]
struct Client {
    advance_ms: Vec<f64>,
    /// One episode per cycle through the job mix.
    cycles: Vec<Episode>,
    request_ms: BTreeMap<&'static str, Vec<f64>>,
    requests: u64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    first_cycle: Vec<String>,
    verify: Vec<JobTrace>,
}

impl Client {
    /// One timed request, its latency filed under `metric`
    /// (`serve.<name>_ms`, whose `<name>` also names its span).
    fn call(
        &mut self,
        t: &Timer,
        metric: &'static str,
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<String, String> {
        self.requests += 1;
        let name = metric.trim_start_matches("serve.").trim_end_matches("_ms");
        let (reply, secs) = t.timed("serve", name, || ok(addr, method, path, body));
        self.request_ms.entry(metric).or_default().push(secs * 1e3);
        reply
    }

    /// Run one job start to finish; `Err` on the first failed request.
    fn run_job(
        &mut self,
        addr: SocketAddr,
        request: &JobRequest,
        t: &Timer,
    ) -> Result<String, String> {
        let body = t.time("fl.spec", "encode", || request.canonical_json());
        let id = created_id(&self.call(t, "serve.create_ms", addr, "POST", "/jobs", &body)?)?;
        let mut telemetry = String::new();
        let mut seen = 0usize;
        for round in 1..=JOB_ROUNDS {
            let path = format!("/jobs/{id}/advance");
            let (reply, secs) = t.timed("serve", "advance", || {
                ok(addr, "POST", &path, r#"{"rounds":1}"#)
            });
            self.requests += 1;
            let reply = JsonValue::parse(&reply?).map_err(|e| e.to_string())?;
            let executed = field(&reply, &["executed"]).and_then(|v| v.as_usize().ok());
            if executed != Some(1) {
                return Err(format!("advance executed {executed:?} rounds, not 1"));
            }
            self.advance_ms.push(secs * 1e3);
            if round % TAIL_EVERY == 0 {
                let tail = self.call(
                    t,
                    "serve.telemetry_ms",
                    addr,
                    "GET",
                    &format!("/jobs/{id}/telemetry?from={seen}"),
                    "",
                )?;
                seen += tail.lines().count();
                telemetry.push_str(&tail);
            }
        }
        let snap = self.call(
            t,
            "serve.snapshot_ms",
            addr,
            "POST",
            &format!("/jobs/{id}/snapshot"),
            "",
        )?;
        let snap = JsonValue::parse(&snap).map_err(|e| e.to_string())?;
        if field(&snap, &["completed_rounds"]).and_then(|v| v.as_usize().ok()) != Some(JOB_ROUNDS) {
            return Err("snapshot does not record every round".into());
        }
        self.call(
            t,
            "serve.delete_ms",
            addr,
            "DELETE",
            &format!("/jobs/{id}"),
            "",
        )?;
        Ok(telemetry)
    }
}

/// The closed-loop load: each client runs whole cycles of the job mix
/// until `seconds` have passed. Returns the load's wall time and the jobs
/// kept for verification.
fn load(
    addr: SocketAddr,
    mix: &Mix,
    seconds: f64,
    cycles_min: usize,
    timer: Timer,
    run: &mut Run,
) -> (f64, Vec<JobTrace>) {
    let barrier = Barrier::new(CLIENTS);
    let threads = Mutex::new(0u64);
    let clients: Vec<(Client, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (barrier, threads) = (&barrier, &threads);
                scope.spawn(move || {
                    let mut client = Client::default();
                    // One untimed warm-up job per client: counted as
                    // attempted work, never as a sample.
                    let mut warm = Client::default();
                    if let Err(why) = warm.run_job(addr, &mix.job(c, WARMUP + c), &Timer::off()) {
                        client.failed += 1;
                        client.problems.push(format!("warm-up: {why}"));
                    }
                    client.attempted = warm.requests;
                    barrier.wait();
                    let began = Instant::now();
                    let mut cycle = (0, began);
                    let mut index = 0usize;
                    while !index.is_multiple_of(KINDS)
                        || index / KINDS < cycles_min
                        || began.elapsed().as_secs_f64() < seconds
                    {
                        if index.is_multiple_of(KINDS) {
                            cycle = (client.advance_ms.len(), Instant::now());
                        }
                        let request = mix.job(c, index);
                        let t = timer.child(None, ((c as u64) << 32) | index as u64);
                        let job = t.open("bench", "job");
                        let outcome = client.run_job(addr, &request, &t.child(job, 0));
                        t.close(job);
                        match outcome {
                            Ok(telemetry) => {
                                if index < KINDS {
                                    client.first_cycle.push(telemetry.clone());
                                }
                                if index < KINDS || index.is_multiple_of(VERIFY_EVERY) {
                                    client.verify.push(JobTrace { request, telemetry });
                                }
                            }
                            Err(why) => {
                                client.failed += 1;
                                client.problems.push(why);
                            }
                        }
                        let mut peak = threads.lock().expect("peak is never poisoned");
                        *peak = (*peak).max(stats::threads_now());
                        index += 1;
                        if index.is_multiple_of(KINDS) {
                            client.cycles.push(Episode {
                                first: cycle.0,
                                rounds: client.advance_ms.len() - cycle.0,
                                wall_s: cycle.1.elapsed().as_secs_f64(),
                            });
                        }
                    }
                    (client, began.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads return their errors"))
            .collect()
    });
    let wall = clients.iter().map(|(_, secs)| *secs).fold(0.0, f64::max);
    let mut digest = Fnv::new();
    let mut requests = 0;
    let mut verify = Vec::new();
    for (client, _) in clients {
        run.attempted += client.attempted + client.requests;
        run.failed += client.failed;
        run.problems.extend(client.problems);
        let offset = run.round_ms.len();
        run.round_ms.extend(&client.advance_ms);
        run.episodes
            .extend(client.cycles.into_iter().map(|e| Episode {
                first: e.first + offset,
                ..e
            }));
        requests += client.requests;
        for (metric, ms) in client.request_ms {
            run.samples.entry(metric).or_default().extend(ms);
        }
        for telemetry in &client.first_cycle {
            digest.write(telemetry.as_bytes());
        }
        verify.extend(client.verify);
    }
    run.digest = Some(digest.finish());
    run.sample("serve.requests_per_s", requests as f64 / wall);
    run.sample(
        "serve.threads_peak",
        *threads.lock().expect("peak is never poisoned") as f64,
    );
    (wall, verify)
}

/// Check each kept job's HTTP telemetry byte for byte against an
/// in-process replay of its spec, and return the replays' telemetry.
fn verify(jobs: Vec<JobTrace>, run: &mut Run) -> Vec<Arc<EventLog>> {
    let t = Timer::off();
    let mut logs = Vec::new();
    for JobTrace { request, telemetry } in jobs {
        let log = Arc::new(EventLog::new());
        let Some(mut sim) =
            sims::spec_to_sim(&request.spec, &Probe::attached(log.clone()), &t, run)
        else {
            continue;
        };
        let stepped = catch_unwind(AssertUnwindSafe(|| {
            for _ in 0..request.rounds_total {
                sim.step(&request.schedule);
            }
        }));
        if stepped.is_err() {
            run.fail(format!("replay of job {} panicked", request.job_id()));
            continue;
        }
        let (replay, secs) = t.timed("telemetry", "jsonl", || log.to_jsonl());
        run.sample(
            "telemetry.jsonl_ms_per_kevent",
            secs * 1e6 / replay.lines().count().max(1) as f64,
        );
        if replay != telemetry {
            run.problems.push(format!(
                "job {} telemetry over HTTP differs from its in-process replay",
                request.job_id()
            ));
        }
        logs.push(log);
    }
    logs
}

/// `serve_mixed`: set-up samples, the timed load, then the replay checks.
/// With a tracer, requests are recorded as spans and the service probes
/// (`/healthz`, in-process advance) run after the load.
pub fn measure(
    seed: u64,
    size: Size,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> (Run, Vec<Arc<EventLog>>) {
    let mut run = Run::default();
    let mix = match Mix::new(seed) {
        Ok(mix) => mix,
        Err(why) => {
            run.fail(why);
            return (run, Vec::new());
        }
    };
    let mut addr = None;
    for _ in 0..SETUPS {
        run.attempted += 1;
        match cold_start(&mix) {
            Ok((a, secs)) => {
                run.setup_s.push(secs);
                addr = Some(a);
            }
            Err(why) => run.fail(why),
        }
    }
    let Some(addr) = addr else {
        return (run, Vec::new());
    };
    // Enough whole cycles that the faster half holds ten samples beyond
    // the advance p99.
    let (cycles_min, seconds) = if size.smoke {
        (1, 0.0)
    } else {
        (
            2 * 1000usize.div_ceil(CLIENTS * KINDS * JOB_ROUNDS) + 1,
            seconds,
        )
    };
    let (wall, jobs) = load(addr, &mix, seconds, cycles_min, Timer::on(tracer), &mut run);
    run.streams = CLIENTS;
    run.wall_s = wall;
    let logs = verify(jobs, &mut run);
    if tracer.is_some() {
        healthz(addr, &mut run);
        inproc_advance(&kind_jobs(&mix), &mut run);
    }
    (run, logs)
}

/// One fresh job of each kind (for replays outside the load).
pub fn kind_jobs(mix: &Mix) -> Vec<JobRequest> {
    (0..KINDS)
        .map(|k| mix.job(0, WARMUP + 2 * KINDS + k))
        .collect()
}

/// The service layer around one workload's job, for simulator
/// workloads' traced runs: create, advance it round by round over HTTP,
/// read telemetry, snapshot, delete — then the same advances in process,
/// and `GET /healthz` alone.
pub fn probe(spec: &JobSpec, schedule: &Schedule, run: &mut Run) {
    let request = JobRequest {
        spec: spec.clone(),
        schedule: schedule.clone(),
        rounds_total: JOB_ROUNDS,
    };
    let addr = match start_service() {
        Ok(addr) => addr,
        Err(why) => return run.fail(why),
    };
    let mut client = Client::default();
    let timer = Timer::off();
    if let Err(why) = client.run_job(addr, &request, &timer) {
        run.fail(format!("service probe: {why}"));
    }
    run.attempted += client.requests;
    for (metric, ms) in client.request_ms {
        run.samples.entry(metric).or_default().extend(ms);
    }
    healthz(addr, run);
    inproc_advance(&[request], run);
}

/// `GET /healthz` round trips: connection, handler thread and parse.
pub fn healthz(addr: SocketAddr, run: &mut Run) {
    for _ in 0..50 {
        run.attempted += 1;
        let start = Instant::now();
        match ok(addr, "GET", "/healthz", "") {
            Ok(_) => run.sample("serve.healthz_ms", start.elapsed().as_secs_f64() * 1e3),
            Err(why) => return run.fail(why),
        }
    }
}

/// `Supervisor::advance`, one round at a time, without HTTP.
pub fn inproc_advance(requests: &[JobRequest], run: &mut Run) {
    let supervisor = Supervisor::new(Arc::new(MemoryStore::new()));
    for request in requests {
        let id = match supervisor.create_job(request.clone()) {
            Ok((info, _)) => info.job_id,
            Err(e) => return run.fail(format!("in-process create: {e}")),
        };
        for _ in 0..request.rounds_total {
            run.attempted += 1;
            let start = Instant::now();
            match supervisor.advance(&id, 1) {
                Ok(reply) if reply.executed == 1 => run.sample(
                    "serve.inproc_advance_ms",
                    start.elapsed().as_secs_f64() * 1e3,
                ),
                Ok(reply) => return run.fail(format!("in-process advance ran {}", reply.executed)),
                Err(e) => return run.fail(format!("in-process advance: {e}")),
            }
        }
        let _ = supervisor.delete(&id);
    }
}
