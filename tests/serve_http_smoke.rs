//! End-to-end smoke test of the real `fedsched-serve` binary: spawn it
//! on an ephemeral port with a state directory, drive it over raw TCP,
//! SIGKILL it mid-job, restart it over the same state directory, and
//! check the restored job finishes byte-identical to an uninterrupted
//! run on a fresh server. This is the out-of-process twin of the
//! in-process `resume_identity` suite in the serve crate.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use fedsched::core::Schedule;
use fedsched::device::TrainingWorkload;
use fedsched::fl::{BuildTarget, DeviceSetSpec, JobSpec};
use fedsched::net::Link;
use fedsched::serve::JobRequest;

const ROUNDS_TOTAL: usize = 6;

/// A running server child; killed on drop so failed asserts never leak
/// processes.
struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    fn spawn(state_dir: &Path) -> ServerProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_fedsched-serve"))
            .args(["--state-dir", state_dir.to_str().unwrap()])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn fedsched-serve");
        let stdout = child.stdout.take().unwrap();
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read listen line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
            .to_string();
        ServerProc { child, addr }
    }

    /// Hard-kill (SIGKILL on unix): no flush, no shutdown hooks — the
    /// state directory alone must carry the job across.
    fn kill(mut self) {
        self.child.kill().expect("kill server");
        self.child.wait().expect("reap server");
        std::mem::forget(self); // already reaped
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

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

fn request() -> JobRequest {
    let mut spec = JobSpec::new(
        BuildTarget::Hier,
        DeviceSetSpec::Testbed {
            preset: 3,
            seed: 4047,
        },
        TrainingWorkload::lenet(),
        Link::wifi_campus(),
        2.5e6,
        4047,
    );
    spec.cohort_size = Some(3);
    spec.threads = Some(4);
    JobRequest {
        spec,
        schedule: Schedule::new(vec![6; 10], 100.0),
        rounds_total: ROUNDS_TOTAL,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fedsched-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn kill_dash_nine_then_restore_matches_an_uninterrupted_server() {
    let req = request();
    let job_id = req.job_id();
    let advance = format!("/jobs/{job_id}/advance");

    // Reference: a server that is never interrupted.
    let ref_dir = temp_dir("ref");
    let reference = {
        let server = ServerProc::spawn(&ref_dir);
        let (status, body) = http(&server.addr, "POST", "/jobs", &req.canonical_json());
        assert_eq!(status, 201, "{body}");
        let (status, body) = http(
            &server.addr,
            "POST",
            &advance,
            &format!("{{\"rounds\":{ROUNDS_TOTAL}}}"),
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"status\":\"done\""), "{body}");
        let (status, trace) = http(
            &server.addr,
            "GET",
            &format!("/jobs/{job_id}/telemetry"),
            "",
        );
        assert_eq!(status, 200);
        assert!(!trace.is_empty());
        trace
    };

    // Victim: run 3 of 6 rounds, snapshot, SIGKILL the process.
    let state_dir = temp_dir("victim");
    {
        let server = ServerProc::spawn(&state_dir);
        let (status, body) = http(&server.addr, "POST", "/jobs", &req.canonical_json());
        assert_eq!(status, 201, "{body}");
        let (status, body) = http(&server.addr, "POST", &advance, "{\"rounds\":3}");
        assert_eq!(status, 200, "{body}");
        let (status, body) = http(
            &server.addr,
            "POST",
            &format!("/jobs/{job_id}/snapshot"),
            "",
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"completed_rounds\":3"), "{body}");
        server.kill();
    }

    // Restart over the same state directory: the job must come back at
    // round 3 and finish bit-identical to the reference trace.
    let server = ServerProc::spawn(&state_dir);
    let (status, body) = http(&server.addr, "GET", &format!("/jobs/{job_id}"), "");
    assert_eq!(status, 200, "job must be restored after the kill: {body}");
    assert!(body.contains("\"completed_rounds\":3"), "{body}");
    let (status, body) = http(&server.addr, "POST", &advance, "{\"rounds\":99}");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"executed\":3"), "{body}");
    assert!(body.contains("\"status\":\"done\""), "{body}");

    let (status, trace) = http(
        &server.addr,
        "GET",
        &format!("/jobs/{job_id}/telemetry"),
        "",
    );
    assert_eq!(status, 200);
    assert_eq!(trace, reference, "restored trace diverged from reference");

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn jobctl_drives_the_server_end_to_end() {
    let state_dir = temp_dir("jobctl");
    let server = ServerProc::spawn(&state_dir);
    let req = request();
    let spec_file = state_dir.join("request.json");
    std::fs::write(&spec_file, req.canonical_json()).unwrap();

    let jobctl = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_jobctl"))
            .arg(&server.addr)
            .args(args)
            .output()
            .expect("run jobctl");
        (
            out.status.success(),
            String::from_utf8_lossy(&out.stdout).to_string(),
        )
    };

    let (ok, body) = jobctl(&["submit", spec_file.to_str().unwrap()]);
    assert!(ok, "{body}");
    assert!(body.contains(&req.job_id()), "{body}");
    let (ok, body) = jobctl(&["advance", &req.job_id(), "2"]);
    assert!(ok, "{body}");
    assert!(body.contains("\"executed\":2"), "{body}");
    let (ok, body) = jobctl(&["status", &req.job_id()]);
    assert!(ok, "{body}");
    assert!(body.contains("\"completed_rounds\":2"), "{body}");
    let (ok, body) = jobctl(&["telemetry", &req.job_id()]);
    assert!(ok);
    assert!(body.lines().count() > 0, "{body}");
    let (ok, body) = jobctl(&["snapshot", &req.job_id()]);
    assert!(ok, "{body}");
    let (ok, body) = jobctl(&["delete", &req.job_id()]);
    assert!(ok, "{body}");
    let (ok, body) = jobctl(&["status", &req.job_id()]);
    assert!(!ok, "deleted job must 404 through jobctl: {body}");

    drop(server);
    let _ = std::fs::remove_dir_all(&state_dir);
}
