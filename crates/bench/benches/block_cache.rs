//! Benchmark: the block cache on the durable read path.
//!
//! Three measurements against file-backed (durable) stores:
//!
//! 1. **Cold vs warm point reads** — uncached baseline throughput (every
//!    `get` pays a positional device read plus a page decode) against a
//!    cache-enabled store after a warming pass (every `get` is a hash lookup
//!    plus an `Arc` clone). CI asserts the headline claim: **warm reads are
//!    ≥ 3× the uncached baseline**.
//! 2. **Multi-threaded read scaling** — aggregate `get` throughput at 1 vs 4
//!    reader threads on the *uncached* store, i.e. the pure miss path. Before
//!    the positional-read rework every reader serialised behind one
//!    `Mutex<File>` seek+read; with `pread` there is no shared lock to queue
//!    on, so aggregate throughput must grow with reader count (asserted only
//!    when the machine actually has ≥ 4 CPUs).
//! 3. A criterion smoke sample of the warm hit path.
//!
//! Set `LETHE_BENCH_NO_ASSERT=1` to demote the wall-clock gates to warnings.

use criterion::{criterion_group, criterion_main, Criterion};
use lethe_core::{LetheBuilder, ShardedLethe, ShardedLetheBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const KEYS: u64 = 4_000;
/// Point reads per single-threaded measurement pass.
const READS: u64 = 2 * KEYS;
/// Point reads issued by every thread of the scaling measurement.
const READS_PER_THREAD: u64 = KEYS;

fn open_store(dir: &std::path::Path, cache_bytes: usize) -> ShardedLethe {
    // realistic page geometry (8 × 128 B entries per page): a miss pays the
    // pread *and* a full page decode, which is exactly the cost a hit skips
    let db = ShardedLetheBuilder::from_builder(
        LetheBuilder::new()
            .buffer(32, 8, 128)
            .size_ratio(4)
            .delete_tile_pages(2)
            .delete_persistence_threshold_secs(3600.0)
            .block_cache_bytes(cache_bytes),
    )
    .shards(2)
    .wal_sync_policy(lethe_storage::SyncPolicy::OnFlush)
    .open(dir)
    .unwrap();
    for k in 0..KEYS {
        db.put(k, k % 365, vec![0u8; 128]).unwrap();
    }
    db.persist().unwrap();
    db
}

/// Sequential random point reads, returning ops/second.
fn read_throughput(db: &ShardedLethe, seed: u64, reads: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let t0 = Instant::now();
    for _ in 0..reads {
        let k = rng.gen_range(0..KEYS);
        assert!(db.get(k).unwrap().is_some(), "preloaded key {k} missing");
    }
    reads as f64 / t0.elapsed().as_secs_f64()
}

/// Aggregate ops/second of `threads` concurrent readers.
fn concurrent_read_throughput(db: &ShardedLethe, threads: usize) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let db = &db;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x5CA1E + t as u64);
                for _ in 0..READS_PER_THREAD {
                    let k = rng.gen_range(0..KEYS);
                    assert!(db.get(k).unwrap().is_some(), "preloaded key {k} missing");
                }
            });
        }
    });
    (threads as u64 * READS_PER_THREAD) as f64 / t0.elapsed().as_secs_f64()
}

fn gate(ok: bool, msg: String) {
    if std::env::var_os("LETHE_BENCH_NO_ASSERT").is_none() {
        assert!(ok, "{msg}");
    } else if !ok {
        println!("WARN: {msg}");
    }
}

fn bench_block_cache(c: &mut Criterion) {
    let base = std::env::temp_dir().join(format!("lethe-bcache-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let uncached = open_store(&base.join("uncached"), 0);
    let cached = open_store(&base.join("cached"), 64 << 20);

    // 1. cold (uncached baseline) vs warm (cache-resident working set)
    let cold_tput = read_throughput(&uncached, 0xC01D, READS);
    read_throughput(&cached, 0x3A97, READS); // warming pass
    let before = cached.io_snapshot();
    let warm_tput = read_throughput(&cached, 0x3A98, READS);
    let hits = cached.io_snapshot().since(&before);
    let speedup = warm_tput / cold_tput;
    let snap = cached.cache_snapshot().expect("cached store must expose its cache");
    println!(
        "block_cache: uncached {cold_tput:.0} gets/s | warm {warm_tput:.0} gets/s | \
         speedup {speedup:.1}x | measured-pass hit rate {:.1}% | resident {} pages / {} bytes \
         (evictions {})",
        hits.cache_hit_rate() * 100.0,
        snap.pages_resident,
        snap.bytes_resident,
        snap.evictions,
    );
    gate(
        speedup >= 3.0,
        format!("warm point reads must be >= 3x the uncached baseline, got {speedup:.1}x"),
    );
    gate(
        hits.cache_hit_rate() > 0.99,
        format!(
            "a 64 MiB cache must hold the whole working set, hit rate {:.3}",
            hits.cache_hit_rate()
        ),
    );

    // 2. multi-threaded scaling on the uncached (pure miss) path: with
    // positional reads there is no file mutex for readers to queue on
    let solo = concurrent_read_throughput(&uncached, 1);
    let four = concurrent_read_throughput(&uncached, 4);
    let scaling = four / solo;
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "block_cache: uncached read scaling 1->4 threads: {solo:.0} -> {four:.0} gets/s \
         ({scaling:.2}x, {cpus} CPUs)"
    );
    if cpus >= 4 {
        gate(
            scaling >= 1.4,
            format!("durable reads must scale with reader count, got {scaling:.2}x on {cpus} CPUs"),
        );
    }

    // 3. criterion smoke: the warm hit path
    let mut group = c.benchmark_group("block_cache");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(11);
    group.bench_function("get_warm_hit", |b| {
        b.iter(|| cached.get(rng.gen_range(0..KEYS)).unwrap())
    });
    group.finish();

    drop(uncached);
    drop(cached);
    let _ = std::fs::remove_dir_all(&base);
}

criterion_group!(benches, bench_block_cache);
criterion_main!(benches);
