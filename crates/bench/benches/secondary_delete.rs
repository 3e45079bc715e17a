//! Benchmark: the cost of a secondary range delete under the classic layout
//! (full-tree compaction), KiWi with `h = 1` and KiWi with larger tiles —
//! the headline win of the paper.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lethe_bench::{experiment_config, EngineSpec};
use lethe_core::baseline::BaselineKind;

const ENTRIES: u64 = 20_000;

fn build(spec: &EngineSpec) -> lethe_core::Lethe {
    let mut cfg = experiment_config();
    cfg.buffer_pages = 32;
    let mut engine = spec.build(cfg).unwrap();
    for k in 0..ENTRIES {
        engine
            .tree_mut()
            .put(k, (k.wrapping_mul(2_654_435_761)) % ENTRIES, vec![0u8; 64].into())
            .unwrap();
    }
    engine.persist().unwrap();
    engine
}

fn bench_secondary_delete(c: &mut Criterion) {
    let specs = [
        ("full_tree_compaction", EngineSpec::Baseline(BaselineKind::RocksDbLike)),
        ("kiwi_h1", EngineSpec::Lethe { dth_micros: u64::MAX / 4, h: 1 }),
        ("kiwi_h8", EngineSpec::Lethe { dth_micros: u64::MAX / 4, h: 8 }),
        ("kiwi_h32", EngineSpec::Lethe { dth_micros: u64::MAX / 4, h: 32 }),
    ];
    let mut group = c.benchmark_group("secondary_range_delete_one_seventh");
    group.sample_size(10);
    for (name, spec) in &specs {
        group.bench_function(*name, |b| {
            b.iter_batched(
                || build(spec),
                |mut engine| {
                    engine.tree_mut().secondary_range_delete(0, ENTRIES / 7).unwrap();
                    engine
                },
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_secondary_delete);
criterion_main!(benches);
