//! One Criterion bench per paper table/figure: each measures the hot kernel
//! of the corresponding experiment at a bounded size, so `cargo bench`
//! exercises every reproduction path end-to-end. (The full reports are
//! produced by the `exp_*` binaries; these benches keep their machinery
//! honest and measurable.)

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fedsched_bench::common::cost_matrix_for_testbed;
use fedsched_bench::noniid::{minavg_problem, random_class_sets};
use fedsched_core::{FedLbap, FedMinAvg, Schedule, Scheduler};
use fedsched_data::{iid_imbalanced, n_class_noniid, Dataset, DatasetKind};
use fedsched_device::{Device, DeviceModel, Testbed, TrainingWorkload};
use fedsched_fl::{fedavg_aggregate, FlSetup, RoundConfig, SimBuilder};
use fedsched_net::{model_transfer_bytes, Link};
use fedsched_nn::ModelKind;
use fedsched_profiler::{ModelArch, TwoStepProfiler};

/// Table II kernel: one cold epoch on the straggler device.
fn bench_table2(c: &mut Criterion) {
    c.bench_function("table2_epoch_sim_nexus6p_500", |b| {
        let wl = TrainingWorkload::lenet();
        b.iter(|| {
            let mut d = Device::from_model(DeviceModel::Nexus6P, 1);
            black_box(d.epoch_time_cold(&wl, 500))
        })
    });
}

/// Fig. 1 kernel: a traced epoch with telemetry.
fn bench_fig1(c: &mut Criterion) {
    c.bench_function("fig1_trace_epoch_mate10_500", |b| {
        let wl = TrainingWorkload::lenet();
        b.iter(|| {
            let mut d = Device::from_model(DeviceModel::Mate10, 2);
            black_box(d.train_epoch_trace(&wl, 500, 5.0))
        })
    });
}

/// Fig. 2 kernel: imbalanced partition + one FedAvg round.
fn bench_fig2(c: &mut Criterion) {
    let (train, test) = Dataset::generate_split(DatasetKind::MnistLike, 400, 100, 3);
    c.bench_function("fig2_partition_and_round", |b| {
        b.iter(|| {
            let p = iid_imbalanced(&train, 4, 0.5, 7);
            let out = FlSetup::new(&train, &test, p.users.clone(), ModelKind::Mlp, 1, 3).run();
            black_box(out.final_accuracy)
        })
    });
}

/// Fig. 3 kernel: n-class non-IID partition construction.
fn bench_fig3(c: &mut Criterion) {
    let ds = Dataset::generate(DatasetKind::CifarLike, 5000, 4);
    c.bench_function("fig3_nclass_partition", |b| {
        b.iter(|| black_box(n_class_noniid(&ds, 10, 3, 0.3, 11)))
    });
}

/// Fig. 4 kernel: the two-step profiler fit.
fn bench_fig4(c: &mut Criterion) {
    let mut profiler = TwoStepProfiler::new();
    // Conv/dense features must not be collinear or the plane fit is
    // rank-deficient; vary them on independent grids.
    for &d in &[500u64, 1000, 2000] {
        for i in 0..6u64 {
            let conv = 1e4 + 2e5 * i as f64;
            let dense = 5e4 + 1e5 * ((i * i + 1) % 5) as f64;
            let arch = ModelArch::new(conv, dense);
            let t = 0.5 + (3e-6 * conv + 4e-7 * dense) * d as f64 / 1000.0;
            profiler.record(d, arch, t);
        }
    }
    c.bench_function("fig4_twostep_fit", |b| {
        b.iter(|| {
            let fitted = profiler.fit().unwrap();
            black_box(fitted.linear_profile(ModelArch::lenet()).unwrap())
        })
    });
}

/// Fig. 5 kernel: profile testbed 2 + Fed-LBAP at paper size (600 shards).
fn bench_fig5(c: &mut Criterion) {
    let testbed = Testbed::testbed_2(5);
    let wl = TrainingWorkload::lenet();
    let link = Link::wifi_campus();
    let bytes = model_transfer_bytes(&ModelArch::lenet());
    let costs = cost_matrix_for_testbed(&testbed, &wl, 600, &link, bytes);
    c.bench_function("fig5_lbap_600_shards", |b| {
        b.iter(|| black_box(FedLbap.schedule(&costs).unwrap()))
    });
}

/// Table III kernel: FedAvg aggregation at LeNet parameter size.
fn bench_table3(c: &mut Criterion) {
    let dim = 205_000;
    let updates: Vec<(Vec<f32>, usize)> = (0..10).map(|j| (vec![j as f32; dim], 100 + j)).collect();
    c.bench_function("table3_fedavg_aggregate_205k_x10", |b| {
        b.iter(|| black_box(fedavg_aggregate(&updates)))
    });
}

/// Fig. 6 kernel: Fed-MinAvg on scenario-scale input (200 shards).
fn bench_fig6(c: &mut Criterion) {
    let ds = Dataset::generate(DatasetKind::CifarLike, 2000, 6);
    let testbed = Testbed::testbed_1(6);
    let sets = random_class_sets(testbed.len(), 6);
    let wl = TrainingWorkload::lenet();
    let link = Link::wifi_campus();
    let bytes = model_transfer_bytes(&ModelArch::lenet());
    let profiles = fedsched_bench::common::profiles_for_devices(testbed.devices(), &wl);
    let problem = minavg_problem(
        &ds,
        testbed.devices(),
        &sets,
        profiles,
        &link,
        bytes,
        200,
        10.0,
        1000.0,
        2.0,
    );
    c.bench_function("fig6_minavg_200_shards", |b| {
        b.iter(|| black_box(FedMinAvg.schedule(&problem).unwrap()))
    });
}

/// Table IV kernel: MinAvg at the four (alpha, beta) points.
fn bench_table4(c: &mut Criterion) {
    let ds = Dataset::generate(DatasetKind::CifarLike, 2000, 8);
    let testbed = Testbed::testbed_1(8);
    let sets = random_class_sets(testbed.len(), 8);
    let wl = TrainingWorkload::lenet();
    let link = Link::wifi_campus();
    let bytes = model_transfer_bytes(&ModelArch::lenet());
    let profiles = fedsched_bench::common::profiles_for_devices(testbed.devices(), &wl);
    c.bench_function("table4_minavg_four_param_points", |b| {
        b.iter(|| {
            for (alpha, beta) in [(100.0, 0.0), (5000.0, 0.0), (100.0, 2.0), (5000.0, 2.0)] {
                let problem = minavg_problem(
                    &ds,
                    testbed.devices(),
                    &sets,
                    profiles.clone(),
                    &link,
                    bytes,
                    200,
                    10.0,
                    alpha,
                    beta,
                );
                black_box(FedMinAvg.schedule(&problem).unwrap());
            }
        })
    });
}

/// Fig. 7 kernel: one simulated synchronous round on testbed 2.
fn bench_fig7(c: &mut Criterion) {
    let testbed = Testbed::testbed_2(9);
    let wl = TrainingWorkload::lenet();
    let link = Link::wifi_campus();
    let bytes = model_transfer_bytes(&ModelArch::lenet());
    let schedule = Schedule::new(vec![10, 10, 2, 2, 8, 12], 100.0);
    c.bench_function("fig7_roundsim_one_round", |b| {
        b.iter(|| {
            let mut sim = SimBuilder::new(
                testbed.devices().to_vec(),
                RoundConfig::new(wl, link, bytes, 9),
            )
            .build_event_sim()
            .expect("valid sim config");
            black_box(sim.run(&schedule, 1).timing.mean_makespan())
        })
    });
}

/// Table V kernel: one federated round over non-IID assignments.
fn bench_table5(c: &mut Criterion) {
    let (train, test) = Dataset::generate_split(DatasetKind::MnistLike, 400, 100, 10);
    let p = n_class_noniid(&train, 4, 4, 0.3, 10);
    c.bench_function("table5_fedavg_round_noniid", |b| {
        b.iter(|| {
            let out = FlSetup::new(&train, &test, p.users.clone(), ModelKind::Mlp, 1, 5).run();
            black_box(out.final_accuracy)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_table2, bench_fig1, bench_fig2, bench_fig3, bench_fig4,
              bench_fig5, bench_table3, bench_fig6, bench_table4, bench_fig7,
              bench_table5
}
criterion_main!(benches);
