//! Benchmark: MVCC snapshot read overhead and online checkpoint throughput.
//!
//! Three measurements around the snapshot subsystem:
//!
//! * **plain vs snapshot reads** — the same seeded point-lookup stream served
//!   by the live store, by one long-lived [`Snapshot`] handle, and by a fresh
//!   open-read-drop snapshot per lookup. The long-lived handle prices the
//!   MVCC read path itself (pinned versions + frozen buffers); the churn run
//!   prices `snapshot()`'s all-shard lock sweep on top.
//! * **checkpoint under live writers** — `checkpoint()` streams a pinned
//!   point-in-time image to disk while writer threads keep mutating the
//!   store; reported as entries/s of checkpoint throughput.
//!
//! Asserted gates (set `LETHE_BENCH_NO_ASSERT=1` to demote to warnings):
//!
//! * always: the checkpoint taken under churn restores to *exactly* the
//!   fence image — every preloaded key at its preload version, none of the
//!   concurrent overwrites. This is a counted outcome, stable on shared
//!   runners.
//! * with `LETHE_BENCH_STRICT=1` (reference hardware): reads through a held
//!   snapshot stay within 3x of plain reads — the MVCC path adds a pointer
//!   hop, not an extra I/O tier. Wall-clock ratios flake on shared runners,
//!   so this only gates strict runs.

use criterion::{criterion_group, criterion_main, Criterion};
use lethe_core::{Lethe, LetheBuilder, ShardedLethe, ShardedLetheBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

const KEYS: u64 = 40_000;
const LOOKUPS: u64 = 60_000;
const CHURN_OPENS: u64 = 2_000;

fn unique_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("lethe-snap-bench-{tag}-{}-{n}", std::process::id()))
}

fn preloaded() -> ShardedLethe {
    let db = ShardedLetheBuilder::from_builder(
        LetheBuilder::new()
            .buffer(64, 8, 64)
            .size_ratio(4)
            .delete_tile_pages(2)
            .delete_persistence_threshold_secs(3600.0),
    )
    .shards(4)
    .build()
    .unwrap();
    for k in 0..KEYS {
        db.put(k, k % 365, value(k, 1)).unwrap();
    }
    db.persist().unwrap();
    db
}

fn value(key: u64, version: u64) -> Vec<u8> {
    let mut v = vec![0u8; 64];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8..16].copy_from_slice(&version.to_le_bytes());
    v
}

/// Same seeded lookup stream through `read`; returns lookups per second.
fn timed_lookups(mut read: impl FnMut(u64)) -> f64 {
    let mut rng = StdRng::seed_from_u64(0x54A9);
    let t0 = Instant::now();
    for _ in 0..LOOKUPS {
        read(rng.gen_range(0..KEYS));
    }
    LOOKUPS as f64 / t0.elapsed().as_secs_f64()
}

fn bench_snapshot(c: &mut Criterion) {
    let no_assert = std::env::var_os("LETHE_BENCH_NO_ASSERT").is_some();
    let strict = std::env::var_os("LETHE_BENCH_STRICT").is_some();
    let db = preloaded();

    // -------------------------------------------- read-path overhead
    let plain = timed_lookups(|k| {
        db.get(k).unwrap().expect("preloaded key");
    });
    let held = db.snapshot();
    let snapped = timed_lookups(|k| {
        held.get(k).unwrap().expect("preloaded key");
    });
    drop(held);
    // open-read-drop: prices the all-shard lock sweep of snapshot()
    let mut rng = StdRng::seed_from_u64(0x54AA);
    let t0 = Instant::now();
    for _ in 0..CHURN_OPENS {
        let snap = db.snapshot();
        snap.get(rng.gen_range(0..KEYS)).unwrap().expect("preloaded key");
    }
    let churn = CHURN_OPENS as f64 / t0.elapsed().as_secs_f64();
    let overhead = plain / snapped;
    println!(
        "snapshot: plain {plain:>9.0} reads/s, held snapshot {snapped:>9.0} reads/s \
         ({overhead:.2}x overhead), open-read-drop {churn:>7.0} snapshots/s"
    );
    if strict && !no_assert {
        assert!(
            overhead <= 3.0,
            "reads through a held snapshot must stay within 3x of plain reads, \
             got {overhead:.2}x ({snapped:.0} vs {plain:.0} reads/s)"
        );
    } else if overhead > 3.0 {
        println!(
            "WARN: held-snapshot read overhead {overhead:.2}x above the 3x reference bar \
             (gated only under LETHE_BENCH_STRICT=1)"
        );
    }

    // -------------------------------- checkpoint throughput, writers live
    let fence = db.snapshot();
    let dir = unique_dir("ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let stop = AtomicBool::new(false);
    let (marker, elapsed) = std::thread::scope(|s| {
        let db = &db;
        let stop = &stop;
        for t in 0..4u64 {
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xC4A7 ^ t);
                while !stop.load(Ordering::Relaxed) {
                    let k = rng.gen_range(0..KEYS);
                    db.put(k, k % 365, value(k, 2)).unwrap();
                }
            });
        }
        let t0 = Instant::now();
        let marker = db.checkpoint_at(&fence, &dir).unwrap();
        let elapsed = t0.elapsed();
        stop.store(true, Ordering::Relaxed);
        (marker, elapsed)
    });
    println!(
        "snapshot: checkpoint of {KEYS} keys under 4 live writers in {:.2}s \
         ({:.0} entries/s, fence seqnum {})",
        elapsed.as_secs_f64(),
        KEYS as f64 / elapsed.as_secs_f64(),
        marker.fence,
    );

    // the always-on gate: the image is the fence, not the churn
    let restored = Lethe::restore(&dir).unwrap();
    let mut rng = StdRng::seed_from_u64(0x9E57);
    let mut torn = 0u64;
    for _ in 0..2_000 {
        let k = rng.gen_range(0..KEYS);
        let got = restored.get(k).unwrap().expect("restored checkpoint lost a key");
        if got.as_ref() != value(k, 1).as_slice() {
            torn += 1;
        }
    }
    if !no_assert {
        assert_eq!(
            torn, 0,
            "a checkpoint under churn must restore the fence image exactly \
             ({torn}/2000 sampled keys showed post-fence writes)"
        );
    } else if torn > 0 {
        println!("WARN: {torn}/2000 restored keys showed post-fence writes");
    }
    drop(restored);
    drop(fence);
    let _ = std::fs::remove_dir_all(&dir);

    // criterion smoke: the three read paths, one lookup at a time
    let mut group = c.benchmark_group("snapshot");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(7);
    group.bench_function("plain_get", |b| {
        b.iter(|| db.get(rng.gen_range(0..KEYS)).unwrap())
    });
    let held = db.snapshot();
    group.bench_function("held_snapshot_get", |b| {
        b.iter(|| held.get(rng.gen_range(0..KEYS)).unwrap())
    });
    group.bench_function("open_read_drop", |b| {
        b.iter(|| db.snapshot().get(rng.gen_range(0..KEYS)).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_snapshot);
criterion_main!(benches);
