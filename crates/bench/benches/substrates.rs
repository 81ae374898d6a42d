//! Criterion benches of the substrates: NN kernels, device simulation
//! throughput, dataset materialization, and the parallel primitives.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use fedsched_data::{Dataset, DatasetKind};
use fedsched_device::{Device, DeviceModel, TrainingWorkload};
use fedsched_nn::{lenet_with_threads, mlp};
use fedsched_parallel::parallel_map;

fn bench_nn_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("nn_train_batch");
    let ds = Dataset::generate(DatasetKind::MnistLike, 64, 1);
    let idx: Vec<usize> = (0..20).collect();
    let (x, y) = ds.batch(&idx);

    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("lenet_batch20", threads),
            &threads,
            |b, &t| {
                let mut net = lenet_with_threads((1, 28, 28), 3, t);
                b.iter(|| black_box(net.train_batch(&x, &y)))
            },
        );
    }
    group.bench_function("mlp_batch20", |b| {
        let mut net = mlp((1, 28, 28), 3);
        b.iter(|| black_box(net.train_batch(&x, &y)))
    });
    group.finish();
}

fn bench_device_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("device_sim");
    for model in DeviceModel::all() {
        group.bench_with_input(
            BenchmarkId::new("epoch_1000_lenet", model.name()),
            &model,
            |b, &m| {
                let wl = TrainingWorkload::lenet();
                b.iter(|| {
                    let mut d = Device::from_model(m, 1);
                    black_box(d.epoch_time_cold(&wl, 1000))
                })
            },
        );
    }
    group.finish();
}

/// The device hot loop with telemetry on vs off: `train_samples` is the
/// inner loop of every round simulation, so a disabled probe must cost
/// nothing measurable and an attached one only its event dispatch.
fn bench_device_probe(c: &mut Criterion) {
    use fedsched_telemetry::{NullRecorder, Probe};
    use std::sync::Arc;

    let mut group = c.benchmark_group("device_probe");
    let wl = TrainingWorkload::lenet();
    for (name, probe) in [
        ("train_200_detached", Probe::disabled()),
        (
            "train_200_attached",
            Probe::attached(Arc::new(NullRecorder)),
        ),
    ] {
        group.bench_function(name, |b| {
            let mut d = Device::from_model(DeviceModel::Pixel2, 1);
            d.set_probe(probe.clone());
            b.iter(|| black_box(d.train_samples(&wl, 200)))
        });
    }
    group.finish();
}

/// Engine thread scaling on a fixed 1,024-device population.
fn bench_parallel_engine(c: &mut Criterion) {
    use fedsched_core::Schedule;
    use fedsched_fl::{RoundConfig, SimBuilder};
    use fedsched_net::Link;

    let mut group = c.benchmark_group("parallel_engine");
    let n = 1_024usize;
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("run_1024dev_1round", threads),
            &threads,
            |b, &t| {
                let schedule = Schedule::new(vec![2; n], 100.0);
                let devices: Vec<Device> = (0..n)
                    .map(|i| {
                        Device::from_model(
                            DeviceModel::all()[i % 4],
                            1u64.wrapping_add(i as u64 * 0x9E37_79B9),
                        )
                    })
                    .collect();
                let mut eng = SimBuilder::new(
                    devices,
                    RoundConfig::new(TrainingWorkload::lenet(), Link::wifi_campus(), 2.5e6, 1),
                )
                .threads(t)
                .build_hier()
                .expect("valid engine config");
                b.iter(|| black_box(eng.run(&schedule, 1).timing.per_round_makespan[0]))
            },
        );
    }
    group.finish();
}

fn bench_dataset(c: &mut Criterion) {
    let ds = Dataset::generate(DatasetKind::CifarLike, 10_000, 2);
    let idx: Vec<usize> = (0..128).collect();
    c.bench_function("dataset_materialize_128_cifar", |b| {
        b.iter(|| black_box(ds.batch(&idx)))
    });
}

fn bench_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_primitives");
    group.bench_function("parallel_map_4t_10k", |b| {
        b.iter(|| black_box(parallel_map(10_000, 4, |i| (i as f64).sqrt())))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_nn_kernels, bench_device_sim, bench_device_probe,
        bench_parallel_engine, bench_dataset, bench_parallel
}
criterion_main!(benches);
