//! Concurrent-access tests for the sharded front-end: `ShardedLethe` is
//! hammered from many threads with interleaved puts/deletes/gets and checked
//! against a `Mutex<BTreeMap>` oracle (the same oracle pattern as
//! `crates/bench/src/bin/fuzz_oracle.rs`, held under a lock so every thread
//! can update it).
//!
//! Determinism: each thread owns a disjoint slice of the key space and runs
//! a seeded operation stream, so the *final* store state is independent of
//! the thread interleaving and can be compared against the oracle exactly.
//!
//! One durable test counts the fsyncs that group commit shares among eight
//! writers.

#![allow(
    clippy::disallowed_types,
    reason = "the oracle lives outside the engine, so no rank of the engine's lock order applies"
)]

use lethe::workload::{run_concurrent, BatchWriteOp, Operation, WorkloadSpec};
use lethe::{LetheBuilder, ShardedLethe, ShardedLetheBuilder, WriteBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Mutex;

const THREADS: u64 = 6;
const KEYS_PER_THREAD: u64 = 2_000;
const OPS_PER_THREAD: u64 = 6_000;

fn small_sharded(shards: usize) -> ShardedLethe {
    ShardedLetheBuilder::from_builder(
        LetheBuilder::new()
            .buffer(8, 4, 64)
            .size_ratio(4)
            .delete_tile_pages(2)
            .delete_persistence_threshold_secs(2.0),
    )
    .shards(shards)
    .build()
    .unwrap()
}

/// The oracle's view of one entry: `(delete_key, value)`.
type Oracle = Mutex<BTreeMap<u64, (u64, Vec<u8>)>>;

/// Runs one seeded thread of interleaved mutations over the thread's own key
/// slice `[base, base + KEYS_PER_THREAD)`, updating the shared oracle, and
/// checking point lookups against it as it goes.
fn hammer(db: &ShardedLethe, oracle: &Oracle, thread: u64) {
    let base = thread * KEYS_PER_THREAD;
    let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ thread);
    for _ in 0..OPS_PER_THREAD {
        let k = base + rng.gen_range(0..KEYS_PER_THREAD);
        match rng.gen_range(0..10u32) {
            // 60% puts
            0..=5 => {
                let d = k.wrapping_mul(31) % (THREADS * KEYS_PER_THREAD);
                let v = vec![rng.gen::<u8>(); 9];
                db.put(k, d, v.clone()).unwrap();
                oracle.lock().unwrap().insert(k, (d, v));
            }
            // 20% point deletes
            6..=7 => {
                db.delete(k).unwrap();
                oracle.lock().unwrap().remove(&k);
            }
            // 20% point lookups, verified against the oracle mid-run (the
            // thread is the only writer of its slice, so the expectation is
            // stable even while other threads run)
            _ => {
                let expected = oracle.lock().unwrap().get(&k).map(|(_, v)| v.clone());
                let got = db.get(k).unwrap().map(|b| b.to_vec());
                assert_eq!(got, expected, "thread {thread}: key {k} diverged mid-run");
            }
        }
    }
}

#[test]
fn concurrent_hammer_matches_oracle() {
    let db = small_sharded(4);
    let oracle: Oracle = Mutex::new(BTreeMap::new());

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let db = &db;
            let oracle = &oracle;
            s.spawn(move || hammer(db, oracle, t));
        }
    });

    db.persist().unwrap();
    let oracle = oracle.into_inner().unwrap();

    // every key of the key space agrees with the oracle after the dust settles
    let key_space = THREADS * KEYS_PER_THREAD;
    for k in 0..key_space {
        let expected = oracle.get(&k).map(|(_, v)| v.clone());
        let got = db.get(k).unwrap().map(|b| b.to_vec());
        assert_eq!(got, expected, "key {k} disagrees with the oracle");
    }

    // a full fan-out scan returns exactly the oracle's live keys, in order
    let scan: Vec<u64> = db.range(0, key_space).unwrap().into_iter().map(|(k, _)| k).collect();
    let expected: Vec<u64> = oracle.keys().copied().collect();
    assert_eq!(scan, expected);

    // a fan-out secondary range delete agrees with the oracle too: every
    // live entry with a qualifying delete key disappears, everything else
    // survives. (`entries_deleted` counts physical removals, which can
    // exceed the live count when stale versions are still on disk, so it is
    // checked as a lower bound.)
    let cutoff = key_space / 3;
    let stats = db.delete_where_delete_key_in(0, cutoff).unwrap();
    let expected_deleted = oracle.values().filter(|(d, _)| *d < cutoff).count() as u64;
    assert!(
        stats.entries_deleted >= expected_deleted,
        "physically deleted {} < {expected_deleted} live qualifying entries",
        stats.entries_deleted
    );
    assert!(db.scan_by_delete_key(0, cutoff).unwrap().is_empty());
    for (k, (d, v)) in &oracle {
        let got = db.get(*k).unwrap().map(|b| b.to_vec());
        if *d < cutoff {
            assert_eq!(got, None, "key {k} (delete key {d}) survived the purge");
        } else {
            assert_eq!(got.as_ref(), Some(v), "key {k} (delete key {d}) was wrongly purged");
        }
    }

    // aggregated counters saw every thread's traffic
    let tree_stats = db.stats();
    assert!(tree_stats.entries_ingested > 0);
    assert!(tree_stats.point_lookups >= THREADS * OPS_PER_THREAD / 10);
}

#[test]
fn concurrent_hammer_is_deterministic_across_shard_counts() {
    // the same seeded op streams must land the same final state whether the
    // store has 1 shard or 8 — sharding is an implementation detail
    let mut fingerprints = Vec::new();
    for shards in [1usize, 2, 8] {
        let db = small_sharded(shards);
        let oracle: Oracle = Mutex::new(BTreeMap::new());
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let db = &db;
                let oracle = &oracle;
                s.spawn(move || hammer(db, oracle, t));
            }
        });
        db.persist().unwrap();
        let state: Vec<(u64, Vec<u8>)> = db
            .range(0, THREADS * KEYS_PER_THREAD)
            .unwrap()
            .into_iter()
            .map(|(k, v)| (k, v.to_vec()))
            .collect();
        fingerprints.push(state);
    }
    assert_eq!(fingerprints[0], fingerprints[1]);
    assert_eq!(fingerprints[1], fingerprints[2]);
}

#[test]
fn concurrent_workload_driver_smoke() {
    // the generic concurrent driver from lethe-workload applies a full mixed
    // spec (including range ops and secondary deletes) through the &self API
    let db = small_sharded(4);
    let spec = WorkloadSpec {
        operations: 4_000,
        key_space: 50_000,
        value_size: 32,
        preload_keys: 1_000,
        update_fraction: 0.40,
        timeseries_fraction: 0.03,
        batch_fraction: 0.04,
        batch_size: 6,
        snapshot_fraction: 0.03,
        point_lookup_fraction: 0.28,
        empty_lookup_fraction: 0.05,
        point_delete_fraction: 0.05,
        range_delete_fraction: 0.02,
        range_lookup_fraction: 0.05,
        streaming_range_fraction: 0.02,
        secondary_delete_fraction: 0.03,
        ..Default::default()
    };
    let report = run_concurrent(&spec, 4, |_t, op| match op {
        Operation::Put { key, delete_key } => {
            db.put(*key, *delete_key, vec![0u8; 32]).unwrap();
        }
        Operation::Get { key } | Operation::GetEmpty { key } => {
            db.get(*key).unwrap();
        }
        Operation::Delete { key } => {
            db.delete(*key).unwrap();
        }
        Operation::DeleteRange { start, end } => db.delete_range(*start, *end).unwrap(),
        Operation::RangeLookup { start, end } => {
            db.range(*start, *end).unwrap();
        }
        Operation::RangeStream { start, end, limit } => {
            for item in db.iter_range(*start, *end).take(*limit as usize) {
                item.unwrap();
            }
        }
        Operation::SecondaryRangeDelete { start, end } => {
            db.delete_where_delete_key_in(*start, *end).unwrap();
        }
        Operation::WriteBatch { ops } => {
            let mut batch = WriteBatch::new();
            for op in ops {
                match op {
                    BatchWriteOp::Put { key, delete_key } => {
                        batch.put(*key, *delete_key, vec![0u8; 32]);
                    }
                    BatchWriteOp::Delete { key } => {
                        batch.delete(*key);
                    }
                }
            }
            db.write(batch).unwrap();
        }
        Operation::SnapshotRead { key } => {
            let snapshot = db.snapshot();
            snapshot.get(*key).unwrap();
        }
    });
    assert_eq!(report.operations, 4_000);
    db.persist().unwrap();
    let stats = db.stats();
    assert!(stats.entries_ingested > 1_000);
    assert!(stats.point_lookups > 0);
}

/// Group commit on one durable shard under `SyncPolicy::Always`: eight
/// writers mixing plain puts with 4-op atomic batches pile up behind the
/// leader's fsync, so each barrier covers at least two acknowledged records
/// on average, where one writer alone pays one fsync per record. The fsync
/// count is a counted outcome of convoy formation, so the bound needs no
/// clock.
#[test]
fn eight_durable_writers_share_each_fsync() {
    const WRITERS: u64 = 8;
    const RECORDS_PER_WRITER: u64 = 200;
    let dir = std::env::temp_dir().join(format!("lethe-group-commit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // the buffer holds the whole run, so no flush adds barriers of its own
    let db = ShardedLetheBuilder::from_builder(
        LetheBuilder::new()
            .buffer(512, 16, 64)
            .size_ratio(4)
            .delete_tile_pages(2)
            .delete_persistence_threshold_secs(3600.0),
    )
    .shards(1)
    .wal_sync_policy(lethe::storage::SyncPolicy::Always)
    .open(&dir)
    .unwrap();
    let before = db.io_snapshot();
    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let db = &db;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x6C0_FFEE ^ t);
                let mut written = 0u64;
                while written < RECORDS_PER_WRITER {
                    let k = rng.gen_range(0..50_000u64);
                    if rng.gen_range(0..10u32) == 0 && written + 4 <= RECORDS_PER_WRITER {
                        let mut batch = WriteBatch::new();
                        for i in 0..4 {
                            batch.put(k + i, k % 365, vec![0u8; 64]);
                        }
                        db.write(batch).unwrap();
                        written += 4;
                    } else {
                        db.put(k, k % 365, vec![0u8; 64]).unwrap();
                        written += 1;
                    }
                }
            });
        }
    });
    let fsyncs = db.io_snapshot().since(&before).fsyncs;
    let records = WRITERS * RECORDS_PER_WRITER;
    assert!(fsyncs > 0, "durable writes must issue barriers");
    assert!(
        fsyncs * 2 <= records,
        "group commit must share barriers: {fsyncs} fsyncs for {records} records"
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
