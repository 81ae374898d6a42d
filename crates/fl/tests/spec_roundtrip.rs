//! Property suite for the [`JobSpec`] wire schema: every builder knob
//! combination expressible in-tree must survive `spec -> JSON -> spec`,
//! and the builder's public setters must write exactly the spec fields
//! they name, with a stable fingerprint.
//!
//! The generator draws a random knob subset from a bitmask plus random
//! parameter values. Round-trips must hold for invalid combinations too —
//! the wire layer transports configs, the builder's `build_*` methods
//! judge them — so both legs run on the raw draw. The rest of the suite
//! pins the canonical bytes and the decode-time rejections.

use fedsched_bandit::{MaybeSeeded, PolicyKind, SelectionConfig};
use fedsched_core::DeadlinePolicy;
use fedsched_core::Schedule;
use fedsched_device::TrainingWorkload;
use fedsched_faults::{DriftConfig, FaultConfig};
use fedsched_fl::builder::MAX_ENGINE_THREADS;
use fedsched_fl::spec::{schedule_from_json, schedule_to_json, MAX_FLEET_DEVICES, MAX_PLAN_CELLS};
use fedsched_fl::{
    AdmissionPolicy, AdversaryConfig, AggregatorKind, AttackKind, BuildTarget, ChurnConfig,
    ConfigError, DeviceSetSpec, JobSpec, Selection, SimBuilder,
};
use fedsched_net::{Link, RetryPolicy};
use fedsched_telemetry::Probe;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Draw one JobSpec from `(mask, rng)`: each mask bit enables a knob
/// family, parameter values come from the rng.
fn draw_spec(mask: u32, rng: &mut TestRng) -> JobSpec {
    let targets = BuildTarget::all();
    let target = targets[rng.below(targets.len() as u64) as usize];
    let devices = if mask & 1 != 0 {
        DeviceSetSpec::Replicated {
            preset: 1 + rng.below(3) as usize,
            copies: 1 + rng.below(4) as usize,
            seed: rng.next_u64(),
        }
    } else {
        DeviceSetSpec::Testbed {
            preset: 1 + rng.below(3) as usize,
            seed: rng.next_u64(),
        }
    };
    let workload = if mask & 2 != 0 {
        TrainingWorkload::vgg6()
    } else {
        TrainingWorkload::lenet()
    };
    let link = if mask & 4 != 0 {
        Link::lte_tmobile()
    } else {
        Link::wifi_campus()
    };
    let mut spec = JobSpec::new(
        target,
        devices,
        workload,
        link,
        1e6 + 4e6 * rng.unit_f64(),
        rng.next_u64(),
    );
    if mask & 8 != 0 {
        spec.deadline = Some(match rng.below(3) {
            0 => DeadlinePolicy::Fixed(10.0 + 90.0 * rng.unit_f64()),
            1 => DeadlinePolicy::MeanFactor(1.0 + rng.unit_f64()),
            _ => DeadlinePolicy::Quantile(0.5 + 0.5 * rng.unit_f64()),
        });
    }
    if mask & 16 != 0 {
        spec.retry = Some(if rng.below(2) == 0 {
            RetryPolicy::single_attempt() // timeout_s: inf — wire stress
        } else {
            RetryPolicy::default_chaos()
        });
    }
    if mask & 32 != 0 {
        spec.no_rescue = true;
    }
    if mask & 64 != 0 {
        spec.rescue_soc_floor = rng.unit_f64() * 0.5;
    }
    if mask & 128 != 0 {
        let mut config = FaultConfig::none()
            .with_crash_prob(rng.unit_f64() * 0.4)
            .with_loss_prob(rng.unit_f64() * 0.3);
        if rng.below(2) == 0 {
            config = config.with_contention(rng.unit_f64() * 0.5, 1.0 + rng.unit_f64());
        }
        if rng.below(2) == 0 {
            config = config.with_drift(DriftConfig::new(
                rng.unit_f64() * 0.5,
                1.5 + 5.0 * rng.unit_f64(),
            ));
        }
        spec.faults = Some((config, 1 + rng.below(8) as usize));
    }
    if mask & 256 != 0 {
        spec.cohort_size = Some(1 + rng.below(8) as usize);
        spec.threads = Some(1 + rng.below(4) as usize);
    }
    if mask & 512 != 0 {
        spec.buffered_async = Some((1 + rng.below(3) as usize, 0.1 + rng.unit_f64()));
    }
    if mask & 1024 != 0 {
        spec.aggregator = Some(match rng.below(5) {
            0 => AggregatorKind::TrimmedMean { trim: 1 },
            1 => AggregatorKind::Median,
            2 => AggregatorKind::NormClip {
                tau: rng.unit_f64() * 4.0,
            },
            3 => AggregatorKind::Krum { f: 1 },
            _ => AggregatorKind::MultiKrum { f: 1, k: 2 },
        });
    }
    if mask & 2048 != 0 {
        let attack = match rng.below(4) {
            0 => AttackKind::SignFlip,
            1 => AttackKind::Boost {
                factor: 2.0 + 8.0 * rng.unit_f64(),
            },
            2 => AttackKind::GaussianNoise {
                sigma: rng.unit_f64(),
            },
            _ => AttackKind::LabelFlip,
        };
        spec.adversary = Some((
            AdversaryConfig::none().with_attackers(0.1 + 0.3 * rng.unit_f64(), attack),
            1 + rng.below(8) as usize,
        ));
    }
    if mask & 8192 != 0 {
        spec.churn = Some(ChurnConfig::symmetric(0.01 + 0.1 * rng.unit_f64(), 60.0));
        spec.admission = Some(match rng.below(3) {
            0 => AdmissionPolicy::Reject,
            1 => AdmissionPolicy::NextRound,
            _ => AdmissionPolicy::MidRoundFill,
        });
    }
    if mask & 16384 != 0 {
        spec.edges = Some(1);
        if rng.below(2) == 0 {
            spec.edge_link = Some(Link::edge_backhaul());
        }
        spec.edge_aggregator = Some(AggregatorKind::Median);
        spec.server_aggregator = Some(AggregatorKind::TrimmedMean { trim: 1 });
    }
    if mask & 32768 != 0 {
        let policy = match rng.below(3) {
            0 => PolicyKind::EpsilonGreedy {
                epsilon: rng.unit_f64(),
            },
            1 => PolicyKind::Ucb1 {
                c: 0.1 + 2.0 * rng.unit_f64(),
            },
            _ => PolicyKind::ThompsonSampling,
        };
        let mut config = SelectionConfig::new(policy, 1 + rng.below(6) as usize);
        if rng.below(2) == 0 {
            config.seed = MaybeSeeded::pinned(rng.next_u64());
        }
        spec.selection = Some(config);
    }
    spec
}

/// Rebuild `spec` through the public setters: `from_spec` of the bare
/// spec, then each knob of the draw through the setter of the same name.
fn through_setters(spec: &JobSpec) -> SimBuilder {
    let bare = JobSpec::new(
        spec.target,
        spec.devices,
        spec.workload,
        spec.link,
        spec.model_bytes,
        spec.seed,
    );
    let mut b = SimBuilder::from_spec(&bare).rescue_soc_floor(spec.rescue_soc_floor);
    if let Some(policy) = spec.deadline {
        b = b.deadline(policy);
    }
    if let Some(retry) = spec.retry {
        b = b.retry(retry);
    }
    if spec.no_rescue {
        b = b.no_rescue();
    }
    if let Some((config, planned)) = &spec.faults {
        b = b.faults(config.clone(), *planned);
    }
    if let Some(size) = spec.cohort_size {
        b = b.cohort_size(size);
    }
    if let Some(threads) = spec.threads {
        b = b.threads(threads);
    }
    if let Some((buffer, eta)) = spec.buffered_async {
        b = b.buffered_async(buffer, eta);
    }
    if let Some(kind) = spec.aggregator {
        b = b.aggregator(kind);
    }
    if let Some((config, planned)) = spec.adversary {
        b = b.adversary(config, planned);
    }
    if let Some(churn) = spec.churn {
        b = b.churn(churn);
    }
    if let Some(policy) = spec.admission {
        b = b.admission(policy);
    }
    if let Some(edges) = spec.edges {
        b = b.edges(edges);
    }
    if let Some(link) = spec.edge_link {
        b = b.edge_link(link);
    }
    if let Some(kind) = spec.edge_aggregator {
        b = b.edge_aggregator(kind);
    }
    if let Some(kind) = spec.server_aggregator {
        b = b.server_aggregator(kind);
    }
    if let Some(config) = spec.selection {
        b = b.selection(Selection::Bandit(config));
    }
    b
}

/// One spec per remaining target, knob-rich where the target allows.
fn pinned_specs() -> Vec<JobSpec> {
    let base = |target: BuildTarget, devices: DeviceSetSpec, seed: u64| {
        JobSpec::new(
            target,
            devices,
            TrainingWorkload::lenet(),
            Link::wifi_campus(),
            2.5e6,
            seed,
        )
    };
    let minimal = base(
        BuildTarget::EventSim,
        DeviceSetSpec::Testbed { preset: 1, seed: 7 },
        7,
    );

    let mut loaded = base(
        BuildTarget::EventSim,
        DeviceSetSpec::Testbed {
            preset: 2,
            seed: 11,
        },
        u64::MAX - 3,
    );
    loaded.deadline = Some(DeadlinePolicy::MeanFactor(1.5));
    loaded.retry = Some(RetryPolicy::default_chaos());
    loaded.no_rescue = true;
    loaded.rescue_soc_floor = 0.15;
    loaded.faults = Some((
        FaultConfig::none()
            .with_crash_prob(0.2)
            .with_loss_prob(0.1)
            .with_drift(DriftConfig::new(0.2, 6.0)),
        8,
    ));
    loaded.aggregator = Some(AggregatorKind::TrimmedMean { trim: 1 });
    loaded.adversary = Some((
        AdversaryConfig::none().with_attackers(0.2, AttackKind::Boost { factor: 8.0 }),
        8,
    ));
    loaded.churn = Some(ChurnConfig::symmetric(0.05, 60.0));
    loaded.admission = Some(AdmissionPolicy::MidRoundFill);
    let mut selection = SelectionConfig::new(PolicyKind::Ucb1 { c: 1.0 }, 2);
    selection.seed = MaybeSeeded::pinned(u64::MAX - 9);
    loaded.selection = Some(selection);

    let mut coordinator = base(
        BuildTarget::Coordinator,
        DeviceSetSpec::Testbed { preset: 3, seed: 3 },
        (1 << 60) + 1,
    );
    coordinator.buffered_async = Some((2, 0.5));
    coordinator.retry = Some(RetryPolicy::single_attempt());

    let mut hier = base(
        BuildTarget::Hier,
        DeviceSetSpec::Replicated {
            preset: 3,
            copies: 10,
            seed: 9,
        },
        2020,
    );
    hier.cohort_size = Some(16);
    hier.edges = Some(2);
    hier.edge_link = Some(Link::edge_backhaul());
    hier.edge_aggregator = Some(AggregatorKind::Median);
    hier.server_aggregator = Some(AggregatorKind::TrimmedMean { trim: 1 });

    vec![minimal, loaded, coordinator, hier]
}

/// Canonical JSON and fingerprint of [`pinned_specs`], byte for byte:
/// fingerprints are job IDs and cache keys, and persisted snapshots hold
/// this text, so neither may move while the schema version stays 1.
const PINNED: [(&str, u64); 4] = [
    (
        r#"{"version":1,"target":"event_sim","devices":{"kind":"testbed","preset":1,"seed":7},"workload":{"conv_flops_per_sample":5100000,"dense_flops_per_sample":1100000,"batch_size":20},"link":{"uplink_mbps":85,"downlink_mbps":85,"rtt_s":0.015,"jitter_sigma":0.05},"model_bytes":2500000,"seed":7}"#,
        0xfd5c451e344bab51,
    ),
    (
        r#"{"version":1,"target":"event_sim","devices":{"kind":"testbed","preset":2,"seed":11},"workload":{"conv_flops_per_sample":5100000,"dense_flops_per_sample":1100000,"batch_size":20},"link":{"uplink_mbps":85,"downlink_mbps":85,"rtt_s":0.015,"jitter_sigma":0.05},"model_bytes":2500000,"seed":"18446744073709551612","deadline":{"policy":"mean_factor","value":1.5},"retry":{"max_attempts":4,"timeout_s":30,"base_backoff_s":1,"backoff_multiplier":2,"max_backoff_s":8,"jitter_frac":0.2},"no_rescue":true,"rescue_soc_floor":0.15,"faults":{"config":{"crash_prob":0.2,"reboot_rounds":1,"churn_prob":0,"contention_prob":0,"contention_factor":1,"loss_prob":0.1,"outage_prob":0,"outage_horizon_s":0,"outage_duration_s":0,"group_outage_prob":0,"group_count":1,"group_outage_rounds":1,"drift":{"sigma":0.2,"max_slowdown":6}},"planned_rounds":8},"aggregator":{"kind":"trimmed_mean","trim":1},"adversary":{"config":{"attacker_frac":0.2,"attack":{"kind":"boost","factor":8},"collusion_groups":0,"active_prob":1},"planned_rounds":8},"churn":{"depart_rate":0.05,"arrive_rate":0.05,"horizon_s":60},"admission":"mid_round_fill","selection":{"policy":{"kind":"ucb1","c":1},"k":2,"seed":"18446744073709551606"}}"#,
        0x0db03b1224a08a34,
    ),
    (
        r#"{"version":1,"target":"coordinator","devices":{"kind":"testbed","preset":3,"seed":3},"workload":{"conv_flops_per_sample":5100000,"dense_flops_per_sample":1100000,"batch_size":20},"link":{"uplink_mbps":85,"downlink_mbps":85,"rtt_s":0.015,"jitter_sigma":0.05},"model_bytes":2500000,"seed":"1152921504606846977","retry":{"max_attempts":1,"timeout_s":"inf","base_backoff_s":0,"backoff_multiplier":1,"max_backoff_s":0,"jitter_frac":0},"buffered_async":{"buffer":2,"eta":0.5}}"#,
        0x1ada6a4aa9b204b1,
    ),
    (
        r#"{"version":1,"target":"hier","devices":{"kind":"replicated","preset":3,"copies":10,"seed":9},"workload":{"conv_flops_per_sample":5100000,"dense_flops_per_sample":1100000,"batch_size":20},"link":{"uplink_mbps":85,"downlink_mbps":85,"rtt_s":0.015,"jitter_sigma":0.05},"model_bytes":2500000,"seed":2020,"cohort_size":16,"edges":2,"edge_link":{"uplink_mbps":1000,"downlink_mbps":1000,"rtt_s":0.005,"jitter_sigma":0.01},"edge_aggregator":{"kind":"median"},"server_aggregator":{"kind":"trimmed_mean","trim":1}}"#,
        0x91cc57716aec58fe,
    ),
];

#[test]
fn canonical_bytes_of_remaining_targets_are_unchanged() {
    for (spec, (text, fingerprint)) in pinned_specs().iter().zip(PINNED) {
        assert_eq!(spec.canonical_json(), text, "{:?}", spec.target);
        assert_eq!(spec.fingerprint(), fingerprint, "{:?}", spec.target);
        assert_eq!(&JobSpec::parse(text).unwrap(), spec);
    }
}

/// A document pinned while the flat `engine` target existed; its target
/// tag is retired, so it must now fail to decode.
const RETIRED_ENGINE_DOC: &str = r#"{"version":1,"target":"engine","devices":{"kind":"replicated","preset":2,"copies":4,"seed":5},"workload":{"conv_flops_per_sample":5100000,"dense_flops_per_sample":1100000,"batch_size":20},"link":{"uplink_mbps":85,"downlink_mbps":85,"rtt_s":0.015,"jitter_sigma":0.05},"model_bytes":2500000,"seed":42,"deadline":{"policy":"fixed","value":55},"faults":{"config":{"crash_prob":0.3,"reboot_rounds":1,"churn_prob":0,"contention_prob":0,"contention_factor":1,"loss_prob":0,"outage_prob":0,"outage_horizon_s":0,"outage_duration_s":0,"group_outage_prob":0,"group_count":1,"group_outage_rounds":1},"planned_rounds":4},"cohort_size":4,"threads":2}"#;

/// The per-cohort engine selector field that specs no longer carry
/// (spelled in two parts so a search for the removed API finds no use).
const REMOVED_FIELD: &str = concat!("engine", "_kind");

#[test]
fn removed_tags_decode_to_invalid_spec_naming_the_tag() {
    let minimal = PINNED[0].0;
    let with_field = |value: &str| {
        minimal.replace(
            r#""seed":7}"#,
            &format!(r#""seed":7,"{REMOVED_FIELD}":"{value}"}}"#),
        )
    };
    let field_tag = format!("`{REMOVED_FIELD}`");
    let cases = [
        (
            minimal.replace(r#""target":"event_sim""#, r#""target":"sim""#),
            "`sim`",
        ),
        (
            minimal.replace(r#""target":"event_sim""#, r#""target":"resilient""#),
            "`resilient`",
        ),
        (with_field("lockstep"), field_tag.as_str()),
        (with_field("event_driven"), field_tag.as_str()),
        (
            minimal.replace(r#""target":"event_sim""#, r#""target":"engine""#),
            "`engine`",
        ),
        (RETIRED_ENGINE_DOC.to_string(), "`engine`"),
    ];
    for (doc, tag) in cases {
        assert_ne!(doc, minimal, "the substitution must apply");
        let err = JobSpec::parse(&doc).expect_err("removed tags must not decode");
        assert!(matches!(err, ConfigError::InvalidSpec(_)), "{err:?}");
        assert_eq!(err.cause_code(), "invalid_spec");
        assert!(err.to_string().contains(tag), "{err} does not name {tag}");
    }
}

/// Decode `doc`, expecting a cause-coded `invalid_spec` whose message
/// names `needle`.
fn assert_rejected(doc: &str, needle: &str) {
    let err = JobSpec::parse(doc).expect_err("oversized specs must not decode");
    assert!(matches!(err, ConfigError::InvalidSpec(_)), "{err:?}");
    assert_eq!(err.cause_code(), "invalid_spec");
    assert!(
        err.to_string().contains(needle),
        "{err} does not name {needle}"
    );
}

#[test]
fn oversized_fleets_fail_to_decode() {
    let hier = PINNED[3].0;
    let with_copies = |copies: &str| {
        let doc = hier.replace(r#""copies":10"#, &format!(r#""copies":{copies}"#));
        assert_ne!(doc, hier, "the substitution must apply");
        doc
    };
    // Testbed III has 10 devices: the last fleet under the cap decodes.
    let fits = MAX_FLEET_DEVICES / 10;
    let spec = JobSpec::parse(&with_copies(&fits.to_string())).unwrap();
    assert_eq!(spec.devices.n_devices().unwrap(), fits * 10);
    // One copy more, 1e16 devices, and 10 x 2^61 (which wraps a `usize`).
    for copies in [
        (fits + 1).to_string(),
        "1e15".into(),
        (1u64 << 61).to_string(),
    ] {
        assert_rejected(&with_copies(&copies), "devices");
    }
}

#[test]
fn oversized_fault_and_adversary_plans_fail_to_decode() {
    // The loaded spec runs 6 devices with both plans 8 rounds long.
    let loaded = PINNED[1].0;
    let fits = MAX_PLAN_CELLS / 6;
    for (plan, next) in [("faults", "aggregator"), ("adversary", "churn")] {
        let with_rounds = |rounds: &str| {
            let from = format!(r#""planned_rounds":8}},"{next}""#);
            let doc = loaded.replace(&from, &format!(r#""planned_rounds":{rounds}}},"{next}""#));
            assert_ne!(doc, loaded, "the substitution must apply");
            doc
        };
        JobSpec::parse(&with_rounds(&fits.to_string())).unwrap();
        for rounds in [(fits + 1).to_string(), "1e15".into()] {
            assert_rejected(&with_rounds(&rounds), plan);
        }
    }
}

/// The same document with the first `from` replaced by `to`.
fn with(doc: &str, from: &str, to: &str) -> String {
    let out = doc.replacen(from, to, 1);
    assert_ne!(out, doc, "the substitution `{from}` must apply");
    out
}

#[test]
fn values_the_round_core_cannot_simulate_fail_to_decode() {
    let (minimal, loaded, hier) = (PINNED[0].0, PINNED[1].0, PINNED[3].0);
    let churn = r#""group_outage_rounds":1,"churn_process":{"depart_rate":-1,"arrive_rate":0,"horizon_s":60},"drift""#;
    let cases = [
        // Each of these decoded before and then spun, panicked or ran
        // with a term silently dropped.
        (
            with(minimal, r#""batch_size":20"#, r#""batch_size":0"#),
            "workload.batch_size",
        ),
        (
            with(
                minimal,
                r#""conv_flops_per_sample":5100000"#,
                r#""conv_flops_per_sample":"inf""#,
            ),
            "workload.conv_flops_per_sample",
        ),
        (
            with(
                minimal,
                r#""conv_flops_per_sample":5100000"#,
                r#""conv_flops_per_sample":-1"#,
            ),
            "workload.conv_flops_per_sample",
        ),
        (
            with(
                minimal,
                r#""dense_flops_per_sample":1100000"#,
                r#""dense_flops_per_sample":"nan""#,
            ),
            "workload.dense_flops_per_sample",
        ),
        (
            with(
                minimal,
                r#""model_bytes":2500000"#,
                r#""model_bytes":"nan""#,
            ),
            "model_bytes",
        ),
        (
            with(minimal, r#""model_bytes":2500000"#, r#""model_bytes":-1"#),
            "model_bytes",
        ),
        (
            with(minimal, r#""uplink_mbps":85"#, r#""uplink_mbps":"nan""#),
            "link.uplink_mbps",
        ),
        (
            with(minimal, r#""uplink_mbps":85"#, r#""uplink_mbps":0"#),
            "link.uplink_mbps",
        ),
        (
            with(minimal, r#""downlink_mbps":85"#, r#""downlink_mbps":-5"#),
            "link.downlink_mbps",
        ),
        (
            with(minimal, r#""rtt_s":0.015"#, r#""rtt_s":"inf""#),
            "link.rtt_s",
        ),
        (
            with(minimal, r#""jitter_sigma":0.05"#, r#""jitter_sigma":"nan""#),
            "link.jitter_sigma",
        ),
        (
            with(
                hier,
                r#""edge_link":{"uplink_mbps":1000"#,
                r#""edge_link":{"uplink_mbps":0"#,
            ),
            "edge_link.uplink_mbps",
        ),
        // Out-of-range fault configs used to panic inside `build`.
        (
            with(loaded, r#""crash_prob":0.2"#, r#""crash_prob":2"#),
            "crash_prob",
        ),
        (
            with(
                loaded,
                r#""contention_factor":1"#,
                r#""contention_factor":0.5"#,
            ),
            "contention_factor",
        ),
        (
            with(loaded, r#""group_outage_rounds":1,"drift""#, churn),
            "depart_rate",
        ),
        (
            with(
                loaded,
                r#""drift":{"sigma":0.2"#,
                r#""drift":{"sigma":"nan""#,
            ),
            "drift sigma",
        ),
    ];
    for (doc, field) in cases {
        let err = JobSpec::parse(&doc).expect_err("hostile values must not decode");
        assert_eq!(err.cause_code(), "invalid_spec", "{err}");
        assert!(
            err.to_string().contains(field),
            "{err} does not name {field}"
        );
    }

    // The boundary values the round core simulates fine still decode,
    // build and step.
    let schedule = Schedule::new(vec![10, 10, 10], 100.0);
    for (from, to) in [
        (r#""model_bytes":2500000"#, r#""model_bytes":0"#),
        (
            r#""conv_flops_per_sample":5100000"#,
            r#""conv_flops_per_sample":0"#,
        ),
        (
            r#""dense_flops_per_sample":1100000"#,
            r#""dense_flops_per_sample":0"#,
        ),
        (r#""rtt_s":0.015"#, r#""rtt_s":0"#),
        (r#""jitter_sigma":0.05"#, r#""jitter_sigma":0"#),
    ] {
        let spec = JobSpec::parse(&with(minimal, from, to)).expect("boundary values decode");
        let mut sim = spec.build(Probe::disabled()).expect("and build");
        assert!(sim.step(&schedule).makespan_s.is_finite(), "{to}");
    }
}

#[test]
fn bad_specs_fail_before_their_fleet_is_built() {
    // The largest fleet a spec may describe. Built, it would take about
    // 11 GB, so each error below must come from the knobs alone.
    let fleet = DeviceSetSpec::Replicated {
        preset: 3,
        copies: MAX_FLEET_DEVICES / 10,
        seed: 1,
    };
    let spec = |target| {
        JobSpec::new(
            target,
            fleet,
            TrainingWorkload::lenet(),
            Link::wifi_campus(),
            2.5e6,
            1,
        )
    };
    let mut hier = spec(BuildTarget::Hier);
    hier.threads = Some(0);
    let mut event_sim = spec(BuildTarget::EventSim);
    event_sim.cohort_size = Some(64);
    let mut coordinator = spec(BuildTarget::Coordinator);
    coordinator.deadline = Some(DeadlinePolicy::Fixed(-1.0));
    for (spec, cause) in [
        (hier, "zero_threads"),
        (event_sim, "unsupported_option"),
        (coordinator, "invalid_deadline"),
    ] {
        let checked = spec.check().expect_err("check refuses what build refuses");
        assert_eq!(checked.cause_code(), cause, "{checked}");
        match spec.build(Probe::disabled()) {
            Ok(_) => panic!("{:?} must not build", spec.target),
            Err(err) => assert_eq!(err, checked),
        }
    }
}

#[test]
fn thread_counts_past_the_engine_cap_are_refused() {
    // 100,000 one-device cohorts: an advance would start one OS thread
    // per cohort up to `threads`. Checks build nothing and start nothing.
    for target in [BuildTarget::Hier, BuildTarget::Coordinator] {
        let mut spec = JobSpec::new(
            target,
            DeviceSetSpec::Replicated {
                preset: 3,
                copies: 10_000,
                seed: 1,
            },
            TrainingWorkload::lenet(),
            Link::wifi_campus(),
            2.5e6,
            1,
        );
        spec.cohort_size = Some(1);
        spec.threads = Some(MAX_ENGINE_THREADS);
        assert_eq!(spec.check(), Ok(()), "{target:?} at the cap");
        for threads in [MAX_ENGINE_THREADS + 1, 1_000_000] {
            spec.threads = Some(threads);
            let err = spec.check().expect_err("past the cap");
            assert_eq!(err.cause_code(), "invalid_spec", "{err}");
            assert!(err.to_string().contains("threads"), "{err}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_drawn_spec_round_trips_through_json(mask in 0u32..65536, salt in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(salt);
        let spec = draw_spec(mask, &mut rng);
        let text = spec.canonical_json();
        let back = JobSpec::parse(&text).expect("canonical JSON must decode");
        prop_assert_eq!(&back, &spec);
        // Canonical encoding is a fixed point and fingerprints agree.
        prop_assert_eq!(back.canonical_json(), text);
        prop_assert_eq!(back.fingerprint(), spec.fingerprint());
    }

    /// Every drawn knob set through its setter serializes back to the
    /// draw: `to_spec` validates nothing, so invalid combinations count.
    /// `JobSpec::check` accepts and refuses each draw as `build` does.
    #[test]
    fn buildable_specs_round_trip_through_the_builder(mask in 0u32..65536, salt in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(salt);
        let spec = draw_spec(mask, &mut rng);
        let back = through_setters(&spec)
            .to_spec(spec.target)
            .expect("a recipe fleet without host-side objects serializes");
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(back.fingerprint(), spec.fingerprint());
        // `check` refuses exactly what `build` refuses, with its error.
        prop_assert_eq!(spec.check().err(), spec.build(Probe::disabled()).err());
    }
}

#[test]
fn schedules_round_trip() {
    for shards in [vec![10, 10, 10], vec![0, 5, 0, 40], vec![1]] {
        let s = Schedule::new(shards, 100.0);
        assert_eq!(schedule_from_json(&schedule_to_json(&s)).unwrap(), s);
    }
}
