//! Queueing benchmarks — the Fig. 10 machinery, and the request-level DES
//! (`hecmix_check::reference::des`) that the self-check runs against it.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use hecmix_check::reference::des::{self, DesConfig, ServiceDist};
use hecmix_queueing::{window_energy, MD1};

fn bench_closed_forms(c: &mut Criterion) {
    c.bench_function("queueing/md1_response", |b| {
        b.iter(|| {
            let q = MD1::new(black_box(9.75), black_box(0.026)).unwrap();
            black_box(q.mean_response_s().unwrap())
        })
    });
    c.bench_function("queueing/fig10_window_energy", |b| {
        b.iter(|| {
            black_box(
                window_energy(
                    black_box(9.75),
                    20.0,
                    black_box(0.026),
                    black_box(14.5),
                    black_box(651.0),
                )
                .unwrap(),
            )
        })
    });
}

fn bench_des_crosscheck(c: &mut Criterion) {
    let mut g = c.benchmark_group("queueing");
    g.sample_size(20);
    // The M/D/1 cross-check run: one deterministic server at ρ = 0.5.
    let md1 = DesConfig {
        pps: 50.0,
        n_requests: 100_000,
        service: ServiceDist::Constant(0.01),
        seed: 7,
    };
    g.throughput(criterion::Throughput::Elements(md1.n_requests));
    g.bench_function("md1_des_100k_jobs", |b| {
        b.iter(|| black_box(des::simulate(black_box(&md1)).unwrap()))
    });
    g.finish();
}

criterion_group!(benches, bench_closed_forms, bench_des_crosscheck);
criterion_main!(benches);
