//! Benchmark: throughput scaling of the sharded concurrent front-end.
//!
//! A fixed mixed workload (60% puts / 30% point lookups / 10% point deletes)
//! is driven from 4 client threads against `ShardedLethe` configured with 1,
//! 2, 4 and 8 shards. With one shard every operation serialises on a single
//! lock; with more shards, operations on different shards proceed in
//! parallel, so wall-clock time per run should drop as the shard count grows
//! toward the thread count.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lethe_core::{LetheBuilder, ShardedLethe, ShardedLetheBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREADS: u64 = 4;
const OPS_PER_THREAD: u64 = 4_000;
const KEY_SPACE: u64 = 40_000;

fn build(shards: usize) -> ShardedLethe {
    let db = ShardedLetheBuilder::from_builder(
        LetheBuilder::new()
            .buffer(32, 4, 64)
            .size_ratio(4)
            .delete_tile_pages(2)
            .delete_persistence_threshold_secs(30.0),
    )
    .shards(shards)
    .build()
    .unwrap();
    // preload so lookups hit data
    for k in 0..KEY_SPACE / 4 {
        db.put(k * 4, k % 365, vec![0u8; 64]).unwrap();
    }
    db.persist().unwrap();
    db
}

fn mixed_run(db: &ShardedLethe) {
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let db = &db;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xBEEF ^ t);
                for _ in 0..OPS_PER_THREAD {
                    let k = rng.gen_range(0..KEY_SPACE);
                    match rng.gen_range(0..10u32) {
                        0..=5 => db.put(k, k % 365, vec![0u8; 64]).map(|_| ()).unwrap(),
                        6..=8 => db.get(k).map(|_| ()).unwrap(),
                        _ => db.delete(k).map(|_| ()).unwrap(),
                    }
                }
            });
        }
    });
}

fn bench_sharded(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_mixed_4threads");
    group.sample_size(10);
    for shards in [1usize, 2, 4, 8] {
        group.bench_function(format!("shards_{shards}"), |b| {
            b.iter_batched(|| build(shards), |db| mixed_run(&db), BatchSize::PerIteration)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sharded);
criterion_main!(benches);
