//! Concurrency stress tests for background FADE compaction with snapshot
//! reads.
//!
//! N writer threads and M reader threads run against a live [`ShardedLethe`]
//! while the per-shard background workers flush and compact underneath them,
//! checked against a lock-free oracle:
//!
//! * every key is owned by exactly one writer, which publishes two atomic
//!   watermarks per key — `issued` (stored *before* the put) and `acked`
//!   (stored *after* the put returns). Values encode `(key, version)`.
//! * a read of key `k` must return a version `v` with
//!   `acked_before_read ≤ v ≤ issued_after_read`: the lower bound is
//!   linearizability (an acknowledged write is visible to every later read),
//!   the upper bound rejects values from the future or thin air.
//! * within one reader thread, versions per key never go backwards.
//! * a range scan must contain every key acknowledged before the scan
//!   started, in strictly increasing key order — a half-committed version
//!   install (input files removed but replacements not yet visible) would
//!   surface here as a vanished key or a torn ordering.
//!
//! The runs are seeded and sized deterministically for CI; set
//! `LETHE_STRESS_ROUNDS` to scale the writer workload up for longer soaks.

use lethe::{LetheBuilder, ShardedLethe, ShardedLetheBuilder, WriteBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

const WRITERS: usize = 4;
const READERS: usize = 3;
const KEYS_PER_WRITER: u64 = 300;
const KEYS: u64 = WRITERS as u64 * KEYS_PER_WRITER;
/// Churn keys (deleted/range-deleted/secondary-deleted at random) live in a
/// disjoint region so the versioned invariants above stay exact.
const CHURN_BASE: u64 = 1 << 20;
const CHURN_KEYS: u64 = 512;

fn rounds() -> u64 {
    std::env::var("LETHE_STRESS_ROUNDS").ok().and_then(|v| v.parse().ok()).unwrap_or(6)
}

fn store_with_cache(block_cache_bytes: usize) -> ShardedLethe {
    // tiny buffers: flushes and compactions run constantly under the load
    ShardedLetheBuilder::from_builder(
        LetheBuilder::new()
            .buffer(8, 4, 64)
            .size_ratio(4)
            .delete_tile_pages(2)
            .delete_persistence_threshold_secs(2.0)
            .block_cache_bytes(block_cache_bytes)
            .warm_block_cache_on_write(block_cache_bytes > 0),
    )
    .shards(4)
    .build()
    .unwrap()
}

fn store() -> ShardedLethe {
    store_with_cache(0)
}

fn encode(key: u64, version: u64) -> Vec<u8> {
    let mut v = vec![0u8; 16];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8..].copy_from_slice(&version.to_le_bytes());
    v
}

fn decode(key: u64, raw: &[u8]) -> u64 {
    assert_eq!(raw.len(), 16, "value for key {key} has the wrong shape");
    let k = u64::from_le_bytes(raw[..8].try_into().unwrap());
    assert_eq!(k, key, "value embeds key {k} but was returned for key {key}");
    u64::from_le_bytes(raw[8..].try_into().unwrap())
}

#[test]
fn writers_and_readers_with_live_oracle() {
    oracle_stress(store());
}

/// The same harness reading through a block cache so small (a few pages
/// across 4 shards) that every flush and compaction forces evictions while
/// the churn thread retires pages via deletes of every flavour: any missed
/// `drop_page`/deferred-reclamation invalidation — a stale page served from
/// cache — fails the oracle's version bounds.
#[test]
fn writers_and_readers_with_live_oracle_eviction_heavy_cache() {
    let db = store_with_cache(4096);
    oracle_stress(db);
}

fn oracle_stress(db: ShardedLethe) {
    let issued: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(0)).collect();
    let acked: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(0)).collect();
    let stop = AtomicBool::new(false);
    let rounds = rounds();

    std::thread::scope(|s| {
        let db = &db;
        let issued = &issued;
        let acked = &acked;
        let stop = &stop;

        let mut writer_handles = Vec::new();
        for w in 0..WRITERS {
            writer_handles.push(s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xA11CE + w as u64);
                let base = w as u64 * KEYS_PER_WRITER;
                for version in 1..=rounds {
                    // visit the slice in a fresh random order every round
                    let mut keys: Vec<u64> = (base..base + KEYS_PER_WRITER).collect();
                    for i in (1..keys.len()).rev() {
                        keys.swap(i, rng.gen_range(0..i + 1));
                    }
                    for k in keys {
                        issued[k as usize].store(version, Ordering::SeqCst);
                        db.put(k, k, encode(k, version)).unwrap();
                        acked[k as usize].store(version, Ordering::SeqCst);
                    }
                }
            }));
        }

        for r in 0..READERS {
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xBEE + r as u64);
                let mut last_seen = vec![0u64; KEYS as usize];
                while !stop.load(Ordering::Relaxed) {
                    // point lookups with linearizability bounds
                    for _ in 0..64 {
                        let k = rng.gen_range(0..KEYS);
                        let lo = acked[k as usize].load(Ordering::SeqCst);
                        let got = db.get(k).unwrap();
                        let hi = issued[k as usize].load(Ordering::SeqCst);
                        match got {
                            Some(raw) => {
                                let v = decode(k, &raw);
                                assert!(
                                    v >= lo && v <= hi,
                                    "key {k}: read version {v} outside [{lo}, {hi}]"
                                );
                                assert!(
                                    v >= last_seen[k as usize],
                                    "key {k}: version went backwards ({} then {v})",
                                    last_seen[k as usize]
                                );
                                last_seen[k as usize] = v;
                            }
                            None => assert_eq!(
                                lo, 0,
                                "key {k}: acknowledged version {lo} vanished"
                            ),
                        }
                    }
                    // a range scan: acknowledged keys may never vanish and
                    // the result must be strictly sorted (a half-committed
                    // version would tear exactly these properties)
                    let a = rng.gen_range(0..KEYS - 64);
                    let b = a + rng.gen_range(16..64);
                    let floor: Vec<u64> =
                        (a..b).map(|k| acked[k as usize].load(Ordering::SeqCst)).collect();
                    let scan = db.range(a, b).unwrap();
                    assert!(
                        scan.windows(2).all(|w| w[0].0 < w[1].0),
                        "range scan not strictly sorted"
                    );
                    for (k, raw) in &scan {
                        let v = decode(*k, raw);
                        let lo = floor[(*k - a) as usize];
                        assert!(v >= lo, "key {k}: scanned version {v} below acked floor {lo}");
                    }
                    let present: Vec<u64> = scan.iter().map(|(k, _)| *k).collect();
                    for k in a..b {
                        if floor[(k - a) as usize] > 0 {
                            assert!(
                                present.binary_search(&k).is_ok(),
                                "key {k} acknowledged before the scan but missing from it"
                            );
                        }
                    }
                }
            });
        }

        // churn + maintenance thread: deletes of every flavour plus clock
        // advances so FADE's TTL triggers fire while readers are in flight
        s.spawn(move || {
            let mut rng = StdRng::seed_from_u64(0xC0FFEE);
            while !stop.load(Ordering::Relaxed) {
                let k = CHURN_BASE + rng.gen_range(0..CHURN_KEYS);
                db.put(k, k, encode(k, 1)).unwrap();
                match rng.gen_range(0..4u32) {
                    0 => {
                        db.delete(k).unwrap();
                    }
                    1 => {
                        let s0 = CHURN_BASE + rng.gen_range(0..CHURN_KEYS / 2);
                        db.delete_range(s0, s0 + rng.gen_range(1..CHURN_KEYS / 4)).unwrap();
                    }
                    2 => {
                        // secondary delete confined to the churn region's
                        // delete keys; exercises the worker pause protocol
                        let s0 = CHURN_BASE + rng.gen_range(0..CHURN_KEYS / 2);
                        db.delete_where_delete_key_in(s0, s0 + rng.gen_range(1..CHURN_KEYS / 4))
                            .unwrap();
                    }
                    _ => {
                        // let logical time pass so TTL-driven compactions fire
                        db.clock().advance_secs(0.5);
                        db.maintain().unwrap();
                    }
                }
            }
        });

        for h in writer_handles {
            h.join().expect("writer thread panicked");
        }
        stop.store(true, Ordering::Relaxed);
    });

    // quiesce and verify the end state exactly against the oracle
    db.persist().unwrap();
    for k in 0..KEYS {
        let want = acked[k as usize].load(Ordering::SeqCst);
        let got = db.get(k).unwrap().expect("key written by a joined writer");
        assert_eq!(decode(k, &got), want, "key {k} final version");
    }
    let full: Vec<u64> = db.range(0, KEYS).unwrap().into_iter().map(|(k, _)| k).collect();
    assert_eq!(full, (0..KEYS).collect::<Vec<u64>>(), "final scan must hold every key");

    // the background machinery must actually have run
    let stats = db.stats();
    assert!(stats.flushes > 0, "no background flush ever ran");
    assert!(stats.compactions > 0, "no background compaction ever ran");
    let installs: u64 =
        (0..db.shard_count()).map(|i| db.with_shard(i, |s| s.tree().versions().installs())).sum();
    assert!(installs > 0, "no version was ever installed");

    // when running with a cache, it must actually have been exercised: the
    // tiny budget forces constant eviction and the retire paths invalidate
    if let Some(snap) = db.cache_snapshot() {
        assert!(snap.hits > 0, "the cache never served a hit: {snap:?}");
        assert!(snap.evictions > 0, "a few-page cache must evict under churn: {snap:?}");
        assert!(
            snap.bytes_resident <= snap.capacity_bytes,
            "residency exceeded the configured budget: {snap:?}"
        );
    }
}

// ------------------------------------------------- group-commit batch stress

/// Size of one atomic batch in the stress harness: each batch rewrites one
/// whole *group* of keys to a single new version.
const BATCH: u64 = 8;
const GROUPS_PER_WRITER: u64 = 40;
const BATCH_WRITERS: usize = 4;
const BATCH_KEYS: u64 = BATCH_WRITERS as u64 * GROUPS_PER_WRITER * BATCH;

/// Slot `slot` of group `group` owned by `writer`. The layout stripes
/// writers across adjacent sort keys, so concurrent batches from different
/// writers always overlap in key-space (every scan window crosses all of
/// them) even though each group has exactly one owner.
fn batch_key(writer: usize, group: u64, slot: u64) -> u64 {
    (group * BATCH + slot) * BATCH_WRITERS as u64 + writer as u64
}

/// Global group index of a key (indexes the `issued`/`acked` watermarks).
fn batch_gid(key: u64) -> usize {
    let writer = (key % BATCH_WRITERS as u64) as usize;
    let group = (key / BATCH_WRITERS as u64) / BATCH;
    writer * GROUPS_PER_WRITER as usize + group as usize
}

/// N writer threads issuing overlapping atomic batches against a live store
/// (flushes/compactions churning underneath), readers asserting
/// **linearizable per-batch watermarks**: each group publishes `issued`
/// (stored before the batch is submitted) and `acked` (stored after it
/// returns), and every read of any key in the group must observe a version
/// in `[acked_before_read, issued_after_read]` — the lower bound is batch
/// linearizability (an acknowledged batch is fully visible: a half-applied
/// batch would strand a key below it), the upper bound rejects speculative
/// application of a batch that was never submitted. Versions per key never
/// go backwards within one reader.
///
/// With `strict_scan_atomicity` (single-shard stores, where a scan pins one
/// snapshot) every scan must additionally see each group *uniformly*: two
/// different versions of one batch group inside a single pinned scan is a
/// torn batch.
fn batch_oracle_stress(db: ShardedLethe, strict_scan_atomicity: bool) {
    let groups = BATCH_WRITERS * GROUPS_PER_WRITER as usize;
    let issued: Vec<AtomicU64> = (0..groups).map(|_| AtomicU64::new(0)).collect();
    let acked: Vec<AtomicU64> = (0..groups).map(|_| AtomicU64::new(0)).collect();
    let stop = AtomicBool::new(false);
    let rounds = rounds();

    std::thread::scope(|s| {
        let db = &db;
        let issued = &issued;
        let acked = &acked;
        let stop = &stop;

        let mut writer_handles = Vec::new();
        for w in 0..BATCH_WRITERS {
            writer_handles.push(s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xBA7C4 + w as u64);
                for version in 1..=rounds {
                    let mut order: Vec<u64> = (0..GROUPS_PER_WRITER).collect();
                    for i in (1..order.len()).rev() {
                        order.swap(i, rng.gen_range(0..i + 1));
                    }
                    for g in order {
                        let gid = w * GROUPS_PER_WRITER as usize + g as usize;
                        issued[gid].store(version, Ordering::SeqCst);
                        let mut batch = WriteBatch::new();
                        for j in 0..BATCH {
                            let k = batch_key(w, g, j);
                            batch.put(k, k, encode(k, version));
                        }
                        db.write(batch).unwrap();
                        acked[gid].store(version, Ordering::SeqCst);
                    }
                }
            }));
        }

        for r in 0..READERS {
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xFEED + r as u64);
                let mut last_seen = vec![0u64; BATCH_KEYS as usize];
                while !stop.load(Ordering::Relaxed) {
                    // point lookups against the per-batch watermark bounds
                    for _ in 0..64 {
                        let k = rng.gen_range(0..BATCH_KEYS);
                        let gid = batch_gid(k);
                        let lo = acked[gid].load(Ordering::SeqCst);
                        let got = db.get(k).unwrap();
                        let hi = issued[gid].load(Ordering::SeqCst);
                        match got {
                            Some(raw) => {
                                let v = decode(k, &raw);
                                assert!(
                                    v >= lo && v <= hi,
                                    "key {k}: version {v} outside its batch's \
                                     watermark window [{lo}, {hi}]"
                                );
                                assert!(
                                    v >= last_seen[k as usize],
                                    "key {k}: version went backwards ({} then {v})",
                                    last_seen[k as usize]
                                );
                                last_seen[k as usize] = v;
                            }
                            None => assert_eq!(
                                lo, 0,
                                "key {k}: its batch was acknowledged at version {lo} \
                                 but the key vanished"
                            ),
                        }
                    }
                    // a streaming scan across many writers' groups: every key
                    // acknowledged before the scan must be present, versions
                    // respect the acked floor, and (single-shard) each group
                    // is uniformly versioned within the pinned snapshot
                    let a = rng.gen_range(0..BATCH_KEYS - 256);
                    let b = a + rng.gen_range(64..256);
                    let floor: Vec<u64> =
                        (a..b).map(|k| acked[batch_gid(k)].load(Ordering::SeqCst)).collect();
                    let mut scan = Vec::new();
                    for item in db.iter_range(a, b) {
                        scan.push(item.unwrap());
                    }
                    assert!(
                        scan.windows(2).all(|w| w[0].0 < w[1].0),
                        "range scan not strictly sorted"
                    );
                    let mut group_version: std::collections::BTreeMap<usize, u64> =
                        std::collections::BTreeMap::new();
                    for (k, raw) in &scan {
                        let v = decode(*k, raw);
                        let lo = floor[(*k - a) as usize];
                        assert!(v >= lo, "key {k}: scanned version {v} below acked floor {lo}");
                        if strict_scan_atomicity {
                            let prev = *group_version.entry(batch_gid(*k)).or_insert(v);
                            assert_eq!(
                                prev,
                                v,
                                "torn batch: group {} shows versions {prev} and {v} \
                                 inside one pinned scan",
                                batch_gid(*k)
                            );
                        }
                    }
                    let present: Vec<u64> = scan.iter().map(|(k, _)| *k).collect();
                    for k in a..b {
                        if floor[(k - a) as usize] > 0 {
                            assert!(
                                present.binary_search(&k).is_ok(),
                                "key {k} acknowledged before the scan but missing from it"
                            );
                        }
                    }
                }
            });
        }

        // churn thread: atomic batches of puts+deletes in a disjoint region,
        // range/secondary deletes and TTL maintenance, all overlapping the
        // measured batches in the group-commit queues
        s.spawn(move || {
            let mut rng = StdRng::seed_from_u64(0x0DDB);
            while !stop.load(Ordering::Relaxed) {
                let mut batch = WriteBatch::new();
                for _ in 0..6 {
                    let k = CHURN_BASE + rng.gen_range(0..CHURN_KEYS);
                    batch.put(k, k, encode(k, 1));
                }
                batch.delete(CHURN_BASE + rng.gen_range(0..CHURN_KEYS));
                db.write(batch).unwrap();
                match rng.gen_range(0..4u32) {
                    0 => {
                        let s0 = CHURN_BASE + rng.gen_range(0..CHURN_KEYS / 2);
                        db.delete_range(s0, s0 + rng.gen_range(1..CHURN_KEYS / 4)).unwrap();
                    }
                    1 => {
                        // a structural batch: a secondary delete confined to
                        // the churn region rides along with fresh puts
                        let s0 = CHURN_BASE + rng.gen_range(0..CHURN_KEYS / 2);
                        let mut batch = WriteBatch::new();
                        let k = CHURN_BASE + rng.gen_range(0..CHURN_KEYS);
                        batch.put(k, k, encode(k, 1));
                        batch.secondary_range_delete(s0, s0 + rng.gen_range(1..CHURN_KEYS / 4));
                        db.write(batch).unwrap();
                    }
                    2 => {
                        db.clock().advance_secs(0.5);
                        db.maintain().unwrap();
                    }
                    _ => {}
                }
            }
        });

        for h in writer_handles {
            h.join().expect("batch writer thread panicked");
        }
        stop.store(true, Ordering::Relaxed);
    });

    // quiesce and verify the end state exactly: every group fully at its
    // acknowledged version
    db.persist().unwrap();
    for k in 0..BATCH_KEYS {
        let want = acked[batch_gid(k)].load(Ordering::SeqCst);
        let got = db.get(k).unwrap().expect("key written by a joined batch writer");
        assert_eq!(decode(k, &got), want, "key {k} final version");
    }
    let full: Vec<u64> = db.range(0, BATCH_KEYS).unwrap().into_iter().map(|(k, _)| k).collect();
    assert_eq!(full, (0..BATCH_KEYS).collect::<Vec<u64>>(), "final scan must hold every key");
    let stats = db.stats();
    assert!(stats.flushes > 0, "no background flush ever ran");
    assert!(stats.compactions > 0, "no background compaction ever ran");
}

/// Overlapping batches across a 4-shard store: per-batch watermark bounds
/// and monotonicity (multi-shard scans are the documented weakly-consistent
/// fan-out, so strict in-scan uniformity is asserted by the single-shard
/// variant below).
#[test]
fn concurrent_batch_writers_with_live_oracle() {
    batch_oracle_stress(store(), false);
}

/// The same harness against a **durable single-shard** store: every batch
/// rides the group-commit WAL (leader fsync, waiter wakeup) and every scan
/// pins one snapshot, so in-scan group uniformity is asserted strictly
/// (fsync coalescing itself is asserted by the shard unit tests and the
/// `group_commit` bench).
#[test]
fn concurrent_batch_writers_durable_single_shard() {
    let dir = std::env::temp_dir()
        .join(format!("lethe-batch-stress-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = ShardedLetheBuilder::from_builder(
        LetheBuilder::new()
            .buffer(8, 4, 64)
            .size_ratio(4)
            .delete_tile_pages(2)
            .delete_persistence_threshold_secs(2.0),
    )
    .shards(1)
    .open(&dir)
    .unwrap();
    batch_oracle_stress(db, true);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Readers hammering a store whose only mutations are *rewrites* (forced
/// full-tree compactions and no-op secondary deletes) must observe the exact
/// same contents on every single read: any torn version install — files
/// removed before their replacements became visible, or a reader seeing a
/// mixture of two versions — shows up as a missing key, a duplicate, or a
/// wrong value.
#[test]
fn rewrites_are_invisible_to_snapshot_readers() {
    const N: u64 = 600;
    let db = ShardedLetheBuilder::from_builder(
        LetheBuilder::new()
            .buffer(8, 4, 64)
            .size_ratio(3)
            .delete_tile_pages(2)
            .delete_persistence_threshold_secs(30.0),
    )
    .shards(1)
    .build()
    .unwrap();
    for k in 0..N {
        db.put(k, k, encode(k, 7)).unwrap();
    }
    db.persist().unwrap();
    let installs_before = db.with_shard(0, |s| s.tree().versions().installs());

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let db = &db;
        let stop = &stop;
        for r in 0..4 {
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xD00D + r as u64);
                while !stop.load(Ordering::Relaxed) {
                    let k = rng.gen_range(0..N);
                    let got = db.get(k).unwrap().expect("preloaded key vanished mid-rewrite");
                    assert_eq!(decode(k, &got), 7, "key {k} value torn by a rewrite");
                    let scan = db.range(0, N).unwrap();
                    assert_eq!(scan.len(), N as usize, "full scan lost keys mid-rewrite");
                    assert!(scan.windows(2).all(|w| w[0].0 < w[1].0));
                }
            });
        }
        // rewrite the whole tree over and over underneath the readers
        s.spawn(move || {
            for _ in 0..12 {
                db.with_shard(0, |shard| shard.tree_mut().force_full_compaction()).unwrap();
                // a secondary delete over an empty delete-key range walks the
                // whole pause/commit path without changing contents
                db.delete_where_delete_key_in(N + 1, N + 2).unwrap();
                db.maintain().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        });
    });

    let installs_after = db.with_shard(0, |s| s.tree().versions().installs());
    assert!(
        installs_after > installs_before,
        "the rewrite loop must actually install new versions"
    );
    for k in 0..N {
        assert_eq!(decode(k, &db.get(k).unwrap().unwrap()), 7, "key {k} after the rewrite storm");
    }
}

/// A point read never waits for the shard's engine lock, which a flush or
/// compaction holds while it runs: with the lock held, every get from
/// another thread still completes, and then the held lock runs a full
/// compaction. A get that queued behind the lock could not finish until the
/// closure returned, so the reader's completion is the whole claim and no
/// latency needs measuring.
#[test]
fn gets_complete_while_the_engine_lock_is_held() {
    const N: u64 = 2_000;
    let db = std::sync::Arc::new(store());
    for k in 0..N {
        db.put(k, k, encode(k, 3)).unwrap();
    }
    db.persist().unwrap();
    let (reader, reader_finished) = db.with_shard(0, |engine| {
        let (done, finished) = std::sync::mpsc::channel();
        let store = std::sync::Arc::clone(&db);
        // not scoped: a scope would join a reader stuck on the lock before
        // this closure could return and release it
        let reader = std::thread::spawn(move || {
            for k in 0..N {
                assert_eq!(decode(k, &store.get(k).unwrap().unwrap()), 3);
            }
            done.send(()).unwrap();
        });
        let finished = finished.recv_timeout(std::time::Duration::from_secs(60)).is_ok();
        engine.tree_mut().force_full_compaction().unwrap();
        (reader, finished)
    });
    reader.join().expect("the reader thread panicked");
    assert!(reader_finished, "gets waited for the engine lock held by with_shard");
    for k in (0..N).step_by(7) {
        assert_eq!(decode(k, &db.get(k).unwrap().unwrap()), 3, "key {k} after the compaction");
    }
}

// ---------------------------------------------------- snapshot churn stress

/// Retired files still awaiting page reclamation, summed across shards.
fn garbage_backlog(db: &ShardedLethe) -> usize {
    (0..db.shard_count()).map(|i| db.with_shard(i, |s| s.tree().versions().garbage_len())).sum()
}

/// Snapshot readers churn — open a point-in-time view, read through it, drop
/// it — alongside the writer/compaction storm, and deliberately *hold* views
/// across whole compaction cycles:
///
/// * a key acknowledged before a snapshot was taken may never vanish from
///   it, and its version must sit inside the snapshot's
///   `[acked_before, issued_after]` watermark window;
/// * re-reading through a held snapshot after the tree has been rewritten
///   underneath it must return the exact same bytes — reclaiming a pinned
///   page (use-after-reclaim) would surface here as an error, a vanished
///   key, or a torn value;
/// * the page-reclamation backlog that builds up behind a pin is bounded:
///   it must drain to zero once every snapshot handle is released.
#[test]
fn snapshot_churn_under_background_compaction() {
    let db = store();
    // watermarks start at 1: the preload below acknowledges every key, so
    // no snapshot taken afterwards may ever miss one
    let issued: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(1)).collect();
    let acked: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(1)).collect();
    let stop = AtomicBool::new(false);
    let rounds = rounds();

    // preload every key at version 1, pin the image, then rewrite the whole
    // tree underneath the pin: every preloaded table is retired while still
    // pinned, so reclamation must defer — not free — its pages
    for k in 0..KEYS {
        db.put(k, k, encode(k, 1)).unwrap();
    }
    db.persist().unwrap();
    let preload = db.snapshot();
    for i in 0..db.shard_count() {
        db.with_shard(i, |s| s.tree_mut().force_full_compaction()).unwrap();
    }
    assert!(
        garbage_backlog(&db) > 0,
        "rewriting a pinned tree must defer page reclamation, not skip it"
    );

    std::thread::scope(|s| {
        let db = &db;
        let issued = &issued;
        let acked = &acked;
        let stop = &stop;

        // the same seeded writer storm as the point-oracle harness, shifted
        // up one version so the preload stays distinguishable
        let mut writer_handles = Vec::new();
        for w in 0..WRITERS {
            writer_handles.push(s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x5A4B + w as u64);
                let base = w as u64 * KEYS_PER_WRITER;
                for version in 2..=rounds + 1 {
                    let mut keys: Vec<u64> = (base..base + KEYS_PER_WRITER).collect();
                    for i in (1..keys.len()).rev() {
                        keys.swap(i, rng.gen_range(0..i + 1));
                    }
                    for k in keys {
                        issued[k as usize].store(version, Ordering::SeqCst);
                        db.put(k, k, encode(k, version)).unwrap();
                        acked[k as usize].store(version, Ordering::SeqCst);
                    }
                }
            }));
        }

        // snapshot-churn readers: open a view, bound every read by the
        // watermarks of the instant it was taken, re-scan it for stability,
        // and keep every fourth view alive across later iterations (and the
        // compactions they contain) before re-verifying its frozen contents
        for r in 0..READERS {
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x54A9 + r as u64);
                let mut held: Option<(lethe::Snapshot, Vec<(u64, u64)>)> = None;
                let mut iter = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let keys: Vec<u64> = (0..48).map(|_| rng.gen_range(0..KEYS)).collect();
                    let lo: Vec<u64> =
                        keys.iter().map(|&k| acked[k as usize].load(Ordering::SeqCst)).collect();
                    let snap = db.snapshot();
                    let hi: Vec<u64> =
                        keys.iter().map(|&k| issued[k as usize].load(Ordering::SeqCst)).collect();
                    let mut observed = Vec::with_capacity(keys.len());
                    for (i, &k) in keys.iter().enumerate() {
                        let raw = snap.get(k).unwrap().unwrap_or_else(|| {
                            panic!("key {k} acknowledged before the snapshot but missing from it")
                        });
                        let v = decode(k, &raw);
                        assert!(
                            v >= lo[i] && v <= hi[i],
                            "key {k}: snapshot version {v} outside its window [{}, {}]",
                            lo[i],
                            hi[i]
                        );
                        observed.push((k, v));
                    }
                    // a snapshot scan holds every preloaded key of the window
                    // and never changes between passes over the same handle
                    let a = rng.gen_range(0..KEYS - 64);
                    let b = a + rng.gen_range(16..64);
                    let scan: Vec<(u64, Vec<u8>)> = snap
                        .range(a, b)
                        .unwrap()
                        .into_iter()
                        .map(|(k, v)| (k, v.to_vec()))
                        .collect();
                    let scanned: Vec<u64> = scan.iter().map(|(k, _)| *k).collect();
                    assert_eq!(scanned, (a..b).collect::<Vec<u64>>(), "snapshot scan lost keys");
                    // a view held across whole compaction cycles stays frozen
                    if let Some((old, old_observed)) = &held {
                        for (k, v) in old_observed {
                            let raw = old
                                .get(*k)
                                .unwrap()
                                .unwrap_or_else(|| panic!("held snapshot lost key {k}"));
                            assert_eq!(
                                decode(*k, &raw),
                                *v,
                                "held snapshot changed its answer for key {k}"
                            );
                        }
                    }
                    let rescan: Vec<(u64, Vec<u8>)> = snap
                        .iter_range(a, b)
                        .map(|item| item.map(|(k, v)| (k, v.to_vec())))
                        .collect::<Result<_, _>>()
                        .unwrap();
                    assert_eq!(scan, rescan, "one snapshot, two scans, different answers");
                    if iter.is_multiple_of(4) {
                        held = Some((snap, observed));
                    }
                    iter += 1;
                }
            });
        }

        // churn + maintenance: deletes of every flavour plus clock advances,
        // so TTL-driven (and snapshot-gated) compaction paths run hot
        s.spawn(move || {
            let mut rng = StdRng::seed_from_u64(0x6A4B);
            while !stop.load(Ordering::Relaxed) {
                let k = CHURN_BASE + rng.gen_range(0..CHURN_KEYS);
                db.put(k, k, encode(k, 1)).unwrap();
                match rng.gen_range(0..4u32) {
                    0 => {
                        db.delete(k).unwrap();
                    }
                    1 => {
                        let s0 = CHURN_BASE + rng.gen_range(0..CHURN_KEYS / 2);
                        db.delete_range(s0, s0 + rng.gen_range(1..CHURN_KEYS / 4)).unwrap();
                    }
                    2 => {
                        let s0 = CHURN_BASE + rng.gen_range(0..CHURN_KEYS / 2);
                        db.delete_where_delete_key_in(s0, s0 + rng.gen_range(1..CHURN_KEYS / 4))
                            .unwrap();
                    }
                    _ => {
                        db.clock().advance_secs(0.5);
                        db.maintain().unwrap();
                    }
                }
            }
        });

        for h in writer_handles {
            h.join().expect("writer thread panicked");
        }
        stop.store(true, Ordering::Relaxed);
    });

    // the long-held snapshot survived every compaction cycle of the run: it
    // still serves the exact preload image while the live store moved on
    db.persist().unwrap();
    for k in 0..KEYS {
        let raw = preload.get(k).unwrap().expect("preload snapshot lost a key");
        assert_eq!(decode(k, &raw), 1, "preload snapshot drifted for key {k}");
        let live = db.get(k).unwrap().expect("live key vanished after the run");
        assert_eq!(
            decode(k, &live),
            acked[k as usize].load(Ordering::SeqCst),
            "key {k} final live version"
        );
    }
    assert_eq!(db.live_snapshots(), 1, "only the preload pin should remain");
    assert!(garbage_backlog(&db) > 0, "the preload pin must still be deferring reclamation");

    // release the last pin: the backlog must drain completely — a bounded
    // debt, not a leak. Releasing un-gates FADE's deferred TTL work, so
    // first drain the background workers to quiescence (each structural
    // commit sweeps, but a commit cannot free its own retirees — the
    // in-flight plan still pins them — so a final sweep follows the drain).
    drop(preload);
    assert_eq!(db.live_snapshots(), 0);
    db.maintain().unwrap();
    for i in 0..db.shard_count() {
        db.with_shard(i, |s| {
            let tree = s.tree();
            tree.versions().collect_garbage(tree.backend().as_ref()).unwrap();
        });
    }
    assert_eq!(garbage_backlog(&db), 0, "reclamation backlog must drain once pins release");

    let stats = db.stats();
    assert!(stats.flushes > 0, "no background flush ever ran");
    assert!(stats.compactions > 0, "no background compaction ever ran");
}
