//! End-to-end engine benchmarks: ingestion and point lookups for the
//! RocksDB-like baseline and Lethe on the simulated device.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use lethe_bench::{experiment_config, EngineSpec};
use lethe_core::baseline::BaselineKind;

const PRELOAD: u64 = 20_000;

fn preloaded(spec: &EngineSpec) -> lethe_core::Lethe {
    let mut cfg = experiment_config();
    cfg.buffer_pages = 32;
    let mut engine = spec.build(cfg).unwrap();
    for k in 0..PRELOAD {
        engine
            .tree_mut()
            .put(k, (k * 7919) % PRELOAD, vec![0u8; 64].into())
            .unwrap();
    }
    engine.persist().unwrap();
    engine
}

fn bench_engine(c: &mut Criterion) {
    let specs = [
        ("rocksdb", EngineSpec::Baseline(BaselineKind::RocksDbLike)),
        ("lethe_h4", EngineSpec::Lethe { dth_micros: 10_000_000, h: 4 }),
    ];

    let mut group = c.benchmark_group("engine_ingest");
    for (name, spec) in &specs {
        group.bench_function(*name, |b| {
            b.iter_batched(
                || {
                    let mut cfg = experiment_config();
                    cfg.buffer_pages = 16;
                    spec.build(cfg).unwrap()
                },
                |mut engine| {
                    for k in 0..5_000u64 {
                        engine.tree_mut().put(k, k % 100, vec![0u8; 64].into()).unwrap();
                    }
                    engine
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();

    let mut group = c.benchmark_group("engine_point_lookup");
    for (name, spec) in &specs {
        let mut engine = preloaded(spec);
        group.bench_function(*name, |b| {
            let mut k = 0u64;
            b.iter(|| {
                k = (k + 7919) % PRELOAD;
                black_box(engine.tree_mut().get(black_box(k)).unwrap())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
