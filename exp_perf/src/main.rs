//! `exp_perf`: the product-path performance benchmark.
//!
//! ```text
//! exp_perf --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!          [--out DIR] [--smoke]
//! exp_perf compare --parent DIR --change DIR [--benchmark FILE]
//! ```
//!
//! A run drives one workload through the public product API only —
//! `JobSpec::canonical_json` → `JobSpec::parse` → `JobSpec::build` →
//! `BuiltSim::step`, the `core` schedulers, and `fedsched_serve` over a
//! real TCP socket — checks the outputs, and prints one JSON line as the
//! last line of standard output: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). `--out DIR` also writes `BENCH_<workload>.json` and,
//! traced, `TRACE_<workload>.json` there. See `README.md` beside this
//! crate for the workloads, the metrics and how to compare two commits.

mod compare;
mod inputs;
mod layers;
mod serve;
mod sims;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::sync::Arc;

use fedsched_core::json::{self, JsonValue};
use fedsched_telemetry::{Event, EventLog};

use crate::inputs::Size;
use crate::trace::{Timer, Tracer};

#[global_allocator]
static ALLOC: stats::HeapCounter = stats::HeapCounter;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 5] = [
    "paper_testbeds",
    "chaos_fleet",
    "bandit_drift",
    "hier_100k",
    "serve_mixed",
];

/// A reported metric: name, unit, and which direction is better.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn metric(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// What a user of the system sees; every workload reports all of them.
/// A "round" is one `BuiltSim::step` for the simulator workloads and one
/// `POST /jobs/:id/advance {"rounds":1}` round trip for `serve_mixed`.
pub const END_TO_END: [Metric; 4] = [
    metric("setup_s", "s", "lower"),
    metric("rounds_per_s", "1/s", "higher"),
    metric("round_p50_ms", "ms", "lower"),
    metric("peak_rss_mb", "MB", "lower"),
];

/// Per-layer numbers of a traced run, led by the round latency p99.
pub const PER_LAYER: [Metric; 32] = [
    metric("round_p99_ms", "ms", "lower"),
    metric("fl.spec.encode_us", "us", "lower"),
    metric("fl.spec.parse_us", "us", "lower"),
    metric("fl.spec.build_ms", "ms", "lower"),
    metric("core.cost.build_ms", "ms", "lower"),
    metric("core.lbap.solve_ms", "ms", "lower"),
    metric("core.minavg.solve_ms", "ms", "lower"),
    metric("core.lbap.slope", "1", "lower"),
    metric("core.minavg.slope", "1", "lower"),
    metric("core.resplits_per_round", "1/round", "lower"),
    metric("device.spans_per_round", "1/round", "lower"),
    metric("device.fleet_bytes_per_device", "B", "lower"),
    metric("faults.plan_mb", "MB", "lower"),
    metric("faults.injected_per_round", "1/round", "lower"),
    metric("faults.churn_per_round", "1/round", "lower"),
    metric("net.retries_per_round", "1/round", "lower"),
    metric("fl.rescues_per_round", "1/round", "lower"),
    metric("fl.orphaned_per_round", "1/round", "lower"),
    metric("fl.hier.edge_reduces_per_round", "1/round", "lower"),
    metric("bandit.selects_per_round", "1/round", "lower"),
    metric("bandit.rewards_per_round", "1/round", "lower"),
    metric("robust.aggregates_per_round", "1/round", "lower"),
    metric("robust.rejected_per_round", "1/round", "lower"),
    metric("telemetry.events_per_round", "1/round", "lower"),
    metric("telemetry.jsonl_ms_per_kevent", "ms", "lower"),
    metric("telemetry.overhead_frac", "ratio", "lower"),
    metric("serve.healthz_ms", "ms", "lower"),
    metric("serve.create_ms", "ms", "lower"),
    metric("serve.telemetry_ms", "ms", "lower"),
    metric("serve.snapshot_ms", "ms", "lower"),
    metric("serve.delete_ms", "ms", "lower"),
    metric("serve.inproc_advance_ms", "ms", "lower"),
];

/// A stretch of rounds from the workload's generator: one simulator
/// episode, or one client's cycle through the serve job mix.
pub struct Episode {
    /// Index of its first round in `Run::round_ms`.
    pub first: usize,
    pub rounds: usize,
    /// Wall time its rounds took.
    pub wall_s: f64,
}

/// What one run measured.
#[derive(Default)]
pub struct Run {
    pub setup_s: Vec<f64>,
    pub round_ms: Vec<f64>,
    pub episodes: Vec<Episode>,
    /// Round streams running at once (the serve clients); 0 means 1.
    pub streams: usize,
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub digest: Option<u64>,
    /// Named samples; a metric's value is their median.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Run {
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    /// Fold another run's counts, problems and samples into this one.
    fn absorb(&mut self, other: Run) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        for (name, v) in other.samples {
            self.samples.entry(name).or_default().extend(v);
        }
    }

    fn median(&self, name: &str) -> Option<f64> {
        self.samples
            .get(name)
            .filter(|v| !v.is_empty())
            .map(|v| stats::median(v))
    }

    /// The round latencies and wall time of the faster half of the
    /// episodes. Episodes do the same amount of work, so what sets them
    /// apart is mostly the host — on a shared machine, whether another
    /// tenant was busy — and the slower half is dropped as that noise.
    pub fn kept(&self) -> (Vec<f64>, f64) {
        let mut order: Vec<&Episode> = self.episodes.iter().filter(|e| e.rounds > 0).collect();
        order.sort_by(|a, b| (a.wall_s / a.rounds as f64).total_cmp(&(b.wall_s / b.rounds as f64)));
        let keep = &order[..order.len().div_ceil(2)];
        let latencies = keep
            .iter()
            .flat_map(|e| &self.round_ms[e.first..e.first + e.rounds])
            .copied()
            .collect();
        (latencies, keep.iter().map(|e| e.wall_s).sum())
    }

    fn rounds_per_s(&self) -> f64 {
        let (rounds, wall) = self.kept();
        self.streams.max(1) as f64 * rounds.len() as f64 / wall
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
}

const USAGE: &str = "usage: exp_perf --workload <paper_testbeds|chaos_fleet|bandit_drift|hier_100k|serve_mixed|all> \
[--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke]\n       \
exp_perf compare --parent DIR --change DIR [--benchmark FILE]";

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 42,
            seconds: 15.0,
            trace: false,
            out: None,
            smoke: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                args.smoke = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--out" => args.out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!("unknown workload `{}`", args.workload));
        }
        if !(args.seconds.is_finite() && args.seconds > 0.0) {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }
}

/// A finished run, ready to print and write.
struct Report {
    e2e: Vec<(&'static str, Option<f64>)>,
    per_layer: Vec<(&'static str, Option<f64>)>,
    run: Run,
    setups: usize,
    rounds: usize,
    kept_rounds: usize,
    /// Traced only: the recorded spans.
    spans: Vec<trace::Span>,
    extra: Vec<(&'static str, f64)>,
}

impl Report {
    fn correct(&self) -> bool {
        self.run.failed == 0 && self.run.problems.is_empty()
    }

    fn metrics(&self, trace: bool) -> JsonValue {
        let (values, catalog) = if trace {
            (&self.per_layer, &PER_LAYER[..])
        } else {
            (&self.e2e, &END_TO_END[..])
        };
        JsonValue::Obj(
            values
                .iter()
                .zip(catalog)
                .map(|((name, v), m)| {
                    let value = v.map_or(JsonValue::Null, json::num);
                    (
                        name.to_string(),
                        json::obj(vec![("value", value), ("unit", json::str(m.unit))]),
                    )
                })
                .collect(),
        )
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    fn line(&self, trace: bool) -> JsonValue {
        json::obj(vec![
            ("correct", JsonValue::Bool(self.correct())),
            ("attempted", json::num(self.run.attempted.max(1) as f64)),
            ("failed", json::num(self.run.failed as f64)),
            ("metrics", self.metrics(trace)),
        ])
    }
}

fn e2e_metrics(run: &Run) -> Vec<(&'static str, Option<f64>)> {
    let setup = (!run.setup_s.is_empty()).then(|| stats::median(&run.setup_s));
    let (kept, _) = run.kept();
    vec![
        ("setup_s", setup),
        (
            "rounds_per_s",
            Some(run.rounds_per_s()).filter(|v| v.is_finite()),
        ),
        ("round_p50_ms", stats::percentile(&kept, 50.0).ok()),
        ("peak_rss_mb", Some(stats::peak_rss_mb())),
    ]
}

/// The untraced measurement of `workload`.
fn untraced(args: &Args, size: Size) -> Run {
    match args.workload.as_str() {
        "serve_mixed" => serve::measure(args.seed, size, args.seconds, None).0,
        w => sims::measure(w, args.seed, size, args.seconds),
    }
}

/// The workload's jobs, generated untimed: a simulator workload's first
/// episode, or one `serve_mixed` job of each kind.
fn jobs(args: &Args, size: Size, run: &mut Run) -> Vec<inputs::Case> {
    let cases = match args.workload.as_str() {
        "serve_mixed" => serve::Mix::new(args.seed).map(|mix| {
            serve::kind_jobs(&mix)
                .into_iter()
                .map(|r| inputs::Case {
                    spec: r.spec,
                    schedule: r.schedule,
                    rounds: r.rounds_total,
                })
                .collect()
        }),
        w => sims::cases(w, sims::episode_seed(args.seed, 0), size, &Timer::off()),
    };
    cases.unwrap_or_else(|why| {
        run.fail(why);
        Vec::new()
    })
}

/// The traced measurement: spans and telemetry on the workload itself,
/// then the replays and probes that give the per-layer numbers.
fn traced(
    args: &Args,
    size: Size,
    base: &Run,
) -> (Run, Vec<trace::Span>, Vec<(&'static str, f64)>) {
    let tracer = Tracer::default();
    let (mut run, logs) = match args.workload.as_str() {
        "serve_mixed" => serve::measure(args.seed, size, args.seconds, Some(&tracer)),
        w => {
            let log = Arc::new(EventLog::new());
            let run = sims::traced_episode(w, args.seed, size, Timer::on(Some(&tracer)), &log);
            (run, vec![log])
        }
    };
    if run.digest != base.digest {
        run.problems
            .push("traced and untraced runs disagree on the digest".into());
    }
    let traced_rounds_per_s = run.rounds_per_s();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    values.insert(
        "telemetry.overhead_frac",
        1.0 - traced_rounds_per_s / base.rounds_per_s(),
    );
    let events: Vec<Event> = logs.iter().flat_map(|l| l.events()).collect();
    let rounds = if args.workload == "serve_mixed" {
        logs.len() * serve::JOB_ROUNDS
    } else {
        run.round_ms.len()
    };
    layers::event_metrics(&events, rounds, &mut values);

    let jobs = jobs(args, size, &mut run);
    let geometry =
        layers::decision_geometry(&events).unwrap_or_else(|| layers::case_geometry(&jobs));
    let base_profiles = layers::base_profiles(args.seed);
    let (cost_ms, solve_ms) = layers::lbap_replay(&base_profiles, geometry);
    values.insert("core.cost.build_ms", cost_ms);
    values.insert("core.lbap.solve_ms", solve_ms);
    match layers::minavg_replay(args.seed) {
        Ok(ms) => {
            values.insert("core.minavg.solve_ms", ms);
        }
        Err(why) => run.fail(why),
    }
    values.insert(
        "core.lbap.slope",
        layers::lbap_slope(&base_profiles, layers::lattice(size)),
    );
    values.insert(
        "core.minavg.slope",
        layers::minavg_slope(&base_profiles, layers::lattice(size)),
    );
    let specs: Vec<_> = jobs.iter().map(|c| c.spec.clone()).collect();
    match layers::heap_metrics(&specs) {
        Ok((plan_mb, per_device)) => {
            values.insert("faults.plan_mb", plan_mb);
            values.insert("device.fleet_bytes_per_device", per_device);
        }
        Err(why) => run.fail(why),
    }
    if args.workload != "serve_mixed" {
        if let Some(case) = jobs.last() {
            serve::probe(&case.spec, &case.schedule, &mut run);
        }
    }
    let extra = vec![
        ("fl.active_frac", layers::active_frac(&jobs)),
        ("replay_geometry_n", geometry.0 as f64),
        ("replay_geometry_s", geometry.1 as f64),
        ("traced_rounds", rounds as f64),
    ];
    for (name, v) in values {
        run.sample(name, v);
    }
    (run, tracer.spans(), extra)
}

fn measure(args: &Args) -> Report {
    let size = Size { smoke: args.smoke };
    let base = untraced(args, size);
    let e2e = e2e_metrics(&base);
    let setups = base.setup_s.len();
    let rounds = base.round_ms.len();
    let (kept, _) = base.kept();
    // The p99 repeats across runs only to within about a tenth on a shared
    // host, so it is reported per layer rather than gated end to end.
    let p99 = stats::percentile(&kept, 99.0).ok();
    let mut extra = vec![("wall_s", base.wall_s)];
    extra.extend(p99.map(|v| ("round_p99_ms", v)));
    extra.extend(
        base.median("serve.requests_per_s")
            .map(|v| ("serve.requests_per_s", v)),
    );
    let mut report = Report {
        e2e,
        per_layer: Vec::new(),
        run: Run::default(),
        setups,
        rounds,
        kept_rounds: kept.len(),
        spans: Vec::new(),
        extra,
    };
    let mut run = Run {
        digest: base.digest,
        ..Run::default()
    };
    if args.trace {
        let (traced, spans, more) = traced(args, size, &base);
        run.absorb(base);
        run.absorb(traced);
        if let Some(v) = p99 {
            run.sample("round_p99_ms", v);
        }
        report.spans = spans;
        report.extra.extend(more);
        report.per_layer = PER_LAYER
            .iter()
            .map(|m| (m.name, run.median(m.name)))
            .collect();
    } else {
        run.absorb(base);
    }
    for (name, v) in report.e2e.iter().chain(&report.per_layer) {
        let optional = args.smoke && *name == "round_p99_ms";
        if v.is_none() && !optional {
            run.problems.push(format!("{name} was not measured"));
        }
    }
    report.run = run;
    report
}

fn host_json(args: &Args) -> JsonValue {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    json::obj(vec![
        ("nproc", json::num(nproc as f64)),
        ("rustc", json::str(env!("EXP_PERF_RUSTC"))),
        ("seconds", json::num(args.seconds)),
        ("smoke", JsonValue::Bool(args.smoke)),
    ])
}

fn bench_json(args: &Args, report: &Report) -> JsonValue {
    let run = &report.run;
    let mut fields = vec![
        ("workload", json::str(&args.workload)),
        ("seed", json::num(args.seed as f64)),
        ("host", host_json(args)),
        ("correct", JsonValue::Bool(report.correct())),
        ("attempted", json::num(run.attempted as f64)),
        ("failed", json::num(run.failed as f64)),
        (
            "failed_frac",
            json::num(run.failed as f64 / run.attempted.max(1) as f64),
        ),
        (
            "digest",
            json::str(run.digest.map_or(String::new(), |d| format!("{d:016x}"))),
        ),
        (
            "problems",
            JsonValue::Arr(run.problems.iter().map(json::str).collect()),
        ),
        (
            "samples",
            json::obj(vec![
                ("setup", json::num(report.setups as f64)),
                ("rounds", json::num(report.rounds as f64)),
                ("kept_rounds", json::num(report.kept_rounds as f64)),
            ]),
        ),
        ("end_to_end", report.metrics(false)),
    ];
    if args.trace {
        let (layers, coverage) = trace::layer_breakdown(&report.spans);
        fields.push(("per_layer", report.metrics(true)));
        fields.push(("layers_self_ms", trace::layers_json(&layers)));
        fields.push(("trace_coverage", json::num(coverage)));
    }
    fields.push((
        "extra",
        JsonValue::Obj(
            report
                .extra
                .iter()
                .map(|(k, v)| (k.to_string(), json::num(*v)))
                .collect(),
        ),
    ));
    json::obj(fields)
}

fn write_files(args: &Args, report: &Report, dir: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let bench = bench_json(args, report).encode();
    std::fs::write(
        dir.join(format!("BENCH_{}.json", args.workload)),
        bench + "\n",
    )?;
    if args.trace {
        let trace = trace::trace_json(&report.spans).encode();
        std::fs::write(
            dir.join(format!("TRACE_{}.json", args.workload)),
            trace + "\n",
        )?;
    }
    Ok(())
}

/// `--workload all`: one child process per workload, so each peak RSS
/// belongs to one workload. Children run one after another.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let mut child_args = argv.to_vec();
        if let Some(i) = child_args.iter().position(|a| a == "--workload") {
            child_args[i + 1] = workload.to_string();
        }
        match Command::new(&exe).args(&child_args).status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("{workload}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&argv);
    }
    if args.trace {
        stats::HeapCounter::enable();
    }
    let report = measure(&args);
    for problem in &report.run.problems {
        eprintln!("{}: {problem}", args.workload);
    }
    if let Some(dir) = &args.out {
        if let Err(e) = write_files(&args, &report, dir) {
            eprintln!("cannot write results to {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", report.line(args.trace).encode());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(line: &JsonValue) -> Vec<String> {
        match line.get("metrics") {
            Some(JsonValue::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
            _ => Vec::new(),
        }
    }

    fn names(catalog: &[Metric]) -> Vec<String> {
        catalog.iter().map(|m| m.name.to_string()).collect()
    }

    /// Every workload, shrunk: no failures, traced and untraced digests
    /// agree (a mismatch is a problem, so `correct` would be false), and
    /// both result lines carry exactly the catalogued metrics.
    #[test]
    fn every_workload_passes_a_smoke_run() {
        for workload in WORKLOADS {
            let report = measure(&Args {
                workload: workload.to_string(),
                seed: 7,
                seconds: 1.0,
                trace: true,
                out: None,
                smoke: true,
            });
            assert!(report.correct(), "{workload}: {:?}", report.run.problems);
            assert_eq!(report.run.failed, 0, "{workload}");
            assert!(report.run.digest.is_some(), "{workload} produced no digest");
            assert_eq!(keys(&report.line(false)), names(&END_TO_END), "{workload}");
            assert_eq!(keys(&report.line(true)), names(&PER_LAYER), "{workload}");
        }
    }

    /// `BENCHMARK.json` declares exactly the workloads and metrics this
    /// tool runs and emits, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let doc = JsonValue::parse(&text).expect("BENCHMARK.json is JSON");
        let list = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(|v| v.as_arr().ok())
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    m.get(field)
                        .and_then(|v| v.as_str().ok())
                        .unwrap_or_default()
                        .to_string()
                })
                .collect()
        };
        assert_eq!(list("workloads", "name"), WORKLOADS);
        for (key, catalog) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            assert_eq!(list(key, "name"), names(catalog), "{key} names");
            let units: Vec<&str> = catalog.iter().map(|m| m.unit).collect();
            assert_eq!(list(key, "unit"), units, "{key} units");
            let better: Vec<&str> = catalog.iter().map(|m| m.better).collect();
            assert_eq!(list(key, "better"), better, "{key} directions");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = Args::parse(&argv("--workload hier_100k --seed 3 --seconds 5 --trace 1")).unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 5.0, true));
        for bad in [
            "--workload nope",
            "--workload hier_100k --trace 2",
            "--workload hier_100k --seconds 0",
            "--workload hier_100k --seed",
        ] {
            assert!(Args::parse(&argv(bad)).is_err(), "{bad}");
        }
    }
}
