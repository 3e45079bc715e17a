//! Cross-crate integration tests: the Lethe engine and the state-of-the-art
//! baselines must agree with a model key-value store (a `BTreeMap` oracle)
//! under mixed workloads, and Lethe must additionally honour its
//! delete-persistence guarantee.

use bytes::Bytes;
use lethe::lsm::LsmTree;
use lethe::storage::{FileBackend, FileWal, LogicalClock, Manifest, MemVfs, Vfs, Wal, WalRecord};
use lethe::workload::{BatchWriteOp, Operation, WorkloadGenerator, WorkloadSpec};
use lethe::{
    level_ttls, BaselineKind, Lethe, LetheBuilder, LsmConfig, RangeIter, ShardedLethe,
    ShardedLetheBuilder, Snapshot, WriteBatch,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// The model store: sort key -> (delete key, value).
type Oracle = BTreeMap<u64, (u64, Vec<u8>)>;

/// The read surface every engine handle offers — the live engines and their
/// point-in-time views — behind one signature, so one checker covers all.
trait ReadSurface {
    fn get(&self, key: u64) -> Option<Vec<u8>>;
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, Vec<u8>)>;
    fn iter_range(&self, lo: u64, hi: u64) -> RangeIter;
    /// `(sort key, delete key)` of every hit.
    fn scan_by_delete_key(&self, lo: u64, hi: u64) -> Vec<(u64, u64)>;
}

macro_rules! read_surface {
    ($ty:ty, |$s:ident, $lo:ident, $hi:ident| $iter:expr) => {
        impl ReadSurface for $ty {
            fn get(&self, key: u64) -> Option<Vec<u8>> {
                <$ty>::get(self, key).unwrap().map(|b| b.to_vec())
            }
            fn range(&self, lo: u64, hi: u64) -> Vec<(u64, Vec<u8>)> {
                let rows = <$ty>::range(self, lo, hi).unwrap();
                rows.into_iter().map(|(k, v)| (k, v.to_vec())).collect()
            }
            fn iter_range(&self, $lo: u64, $hi: u64) -> RangeIter {
                let $s = self;
                $iter
            }
            fn scan_by_delete_key(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
                let hits = <$ty>::scan_by_delete_key(self, lo, hi).unwrap();
                hits.into_iter().map(|e| (e.sort_key, e.delete_key)).collect()
            }
        }
    };
}
read_surface!(Lethe, |s, lo, hi| s.iter_range(lo, hi).unwrap());
read_surface!(ShardedLethe, |s, lo, hi| s.iter_range(lo, hi));
read_surface!(Snapshot, |s, lo, hi| s.iter_range(lo, hi));

/// Checks `get`, `range`, `iter_range` (drained and paged) and
/// `scan_by_delete_key` of `surface` against `oracle` on the given probes.
fn assert_reads_match(
    name: &str,
    surface: &dyn ReadSurface,
    oracle: &Oracle,
    keys: &[u64],
    ranges: &[(u64, u64)],
    delete_key_ranges: &[(u64, u64)],
) {
    for &key in keys {
        let expected = oracle.get(&key).map(|(_, v)| v.clone());
        assert_eq!(surface.get(key), expected, "{name}: get({key})");
    }
    for &(lo, hi) in ranges {
        let expected: Vec<(u64, Vec<u8>)> = oracle
            .iter()
            .filter(|(k, _)| **k >= lo && **k < hi)
            .map(|(k, (_, v))| (*k, v.clone()))
            .collect();
        assert_eq!(surface.range(lo, hi), expected, "{name}: range({lo}, {hi})");
        let drained: Vec<(u64, Vec<u8>)> =
            surface.iter_range(lo, hi).map(|r| r.unwrap()).map(|(k, v)| (k, v.to_vec())).collect();
        assert_eq!(drained, expected, "{name}: iter_range({lo}, {hi}) drained");
        let paged: Vec<u64> = surface.iter_range(lo, hi).take(3).map(|r| r.unwrap().0).collect();
        let first: Vec<u64> = expected.iter().take(3).map(|(k, _)| *k).collect();
        assert_eq!(paged, first, "{name}: iter_range({lo}, {hi}).take(3)");
    }
    for &(lo, hi) in delete_key_ranges {
        let expected: Vec<(u64, u64)> = oracle
            .iter()
            .filter(|(_, (d, _))| *d >= lo && *d < hi)
            .map(|(k, (d, _))| (*k, *d))
            .collect();
        assert_eq!(surface.scan_by_delete_key(lo, hi), expected, "{name}: delete keys [{lo}, {hi})");
    }
}

fn small_config() -> LsmConfig {
    LsmConfig {
        size_ratio: 4,
        buffer_pages: 8,
        entries_per_page: 4,
        entry_size: 64,
        max_pages_per_file: 8,
        ingestion_rate: 10_000,
        ..LsmConfig::default()
    }
}

fn lethe_engine(h: usize) -> Lethe {
    LetheBuilder::new()
        .with_config(small_config())
        .delete_persistence_threshold_secs(2.0)
        .delete_tile_pages(h)
        .build()
        .unwrap()
}

/// Drives an operation stream through Lethe, a baseline and a BTreeMap
/// oracle, then checks that every key agrees across all three.
fn run_against_oracle(spec: WorkloadSpec, h: usize) {
    let mut gen = WorkloadGenerator::new(spec.clone());
    let mut ops = gen.preload();
    ops.extend(gen.operations());

    let mut lethe = lethe_engine(h);
    let mut baseline = BaselineKind::RocksDbLike.build(small_config()).unwrap();
    let mut oracle = Oracle::new();

    for op in &ops {
        match op {
            Operation::Put { key, delete_key } => {
                let value = format!("v-{key}-{delete_key}").into_bytes();
                lethe.put(*key, *delete_key, value.clone()).unwrap();
                baseline.put(*key, *delete_key, value.clone()).unwrap();
                oracle.insert(*key, (*delete_key, value));
            }
            Operation::Get { key } | Operation::GetEmpty { key } => {
                let expected = oracle.get(key).map(|(_, v)| v.clone());
                assert_eq!(
                    lethe.get(*key).unwrap().map(|b| b.to_vec()),
                    expected,
                    "lethe disagrees with oracle on key {key}"
                );
                assert_eq!(
                    baseline.get(*key).unwrap().map(|b| b.to_vec()),
                    expected,
                    "baseline disagrees with oracle on key {key}"
                );
            }
            Operation::Delete { key } => {
                lethe.delete(*key).unwrap();
                baseline.delete(*key).unwrap();
                oracle.remove(key);
            }
            Operation::DeleteRange { start, end } => {
                lethe.delete_range(*start, *end).unwrap();
                baseline.delete_range(*start, *end).unwrap();
                let victims: Vec<u64> = oracle.range(*start..*end).map(|(k, _)| *k).collect();
                for k in victims {
                    oracle.remove(&k);
                }
            }
            Operation::RangeLookup { start, end } => {
                let expected: Vec<u64> = oracle.range(*start..*end).map(|(k, _)| *k).collect();
                let got: Vec<u64> =
                    lethe.range(*start, *end).unwrap().into_iter().map(|(k, _)| k).collect();
                assert_eq!(got, expected, "lethe range [{start}, {end}) disagrees");
            }
            Operation::RangeStream { start, end, limit } => {
                let expected: Vec<u64> = oracle
                    .range(*start..*end)
                    .map(|(k, _)| *k)
                    .take(*limit as usize)
                    .collect();
                let got: Vec<u64> = lethe
                    .iter_range(*start, *end)
                    .unwrap()
                    .take(*limit as usize)
                    .map(|r| r.unwrap().0)
                    .collect();
                assert_eq!(got, expected, "lethe stream [{start}, {end})x{limit} disagrees");
            }
            Operation::SecondaryRangeDelete { start, end } => {
                lethe.delete_where_delete_key_in(*start, *end).unwrap();
                baseline.delete_where_delete_key_in(*start, *end).unwrap();
                let victims: Vec<u64> = oracle
                    .iter()
                    .filter(|(_, (d, _))| *d >= *start && *d < *end)
                    .map(|(k, _)| *k)
                    .collect();
                for k in victims {
                    oracle.remove(&k);
                }
            }
            Operation::WriteBatch { ops: batch_ops } => {
                let mut lethe_batch = WriteBatch::new();
                let mut baseline_batch = WriteBatch::new();
                for op in batch_ops {
                    match op {
                        BatchWriteOp::Put { key, delete_key } => {
                            let value = format!("b-{key}-{delete_key}").into_bytes();
                            lethe_batch.put(*key, *delete_key, value.clone());
                            baseline_batch.put(*key, *delete_key, value.clone());
                            oracle.insert(*key, (*delete_key, value));
                        }
                        BatchWriteOp::Delete { key } => {
                            lethe_batch.delete(*key);
                            baseline_batch.delete(*key);
                            oracle.remove(key);
                        }
                    }
                }
                lethe.write_batch(lethe_batch).unwrap();
                baseline.write_batch(baseline_batch).unwrap();
            }
            Operation::SnapshotRead { key } => {
                // a snapshot taken now must agree with the oracle frozen now,
                // on the whole read surface around the key
                let snapshot = lethe.snapshot();
                let delete_keys = oracle.get(key).map_or((0, 1), |(d, _)| (*d, d + 1));
                assert_reads_match(
                    "snapshot",
                    &snapshot,
                    &oracle,
                    &[*key],
                    &[(key.saturating_sub(20), key.saturating_add(20))],
                    &[delete_keys],
                );
            }
        }
    }

    lethe.persist().unwrap();
    baseline.persist().unwrap();

    // final audit over every key the oracle has ever seen plus some misses
    for key in oracle.keys().copied().collect::<Vec<_>>() {
        let expected = oracle.get(&key).map(|(_, v)| v.clone());
        assert_eq!(lethe.get(key).unwrap().map(|b| b.to_vec()), expected, "final lethe key {key}");
        assert_eq!(
            baseline.get(key).unwrap().map(|b| b.to_vec()),
            expected,
            "final baseline key {key}"
        );
    }
    // full range scan agrees with the oracle's live key set
    let all_live: Vec<u64> = oracle.keys().copied().collect();
    let lethe_live: Vec<u64> =
        lethe.range(0, u64::MAX).unwrap().into_iter().map(|(k, _)| k).collect();
    assert_eq!(lethe_live, all_live, "lethe full scan disagrees with oracle");
}

#[test]
fn mixed_workload_matches_oracle_classic_layout() {
    let spec = WorkloadSpec {
        seed: 1,
        preload_keys: 500,
        operations: 3_000,
        key_space: 2_000,
        value_size: 48,
        update_fraction: 0.45,
        point_lookup_fraction: 0.30,
        empty_lookup_fraction: 0.05,
        point_delete_fraction: 0.10,
        range_delete_fraction: 0.02,
        range_lookup_fraction: 0.05,
        secondary_delete_fraction: 0.03,
        secondary_delete_selectivity: 0.02,
        ..Default::default()
    };
    run_against_oracle(spec, 1);
}

#[test]
fn mixed_workload_matches_oracle_kiwi_layout() {
    let spec = WorkloadSpec {
        seed: 2,
        preload_keys: 800,
        operations: 3_000,
        key_space: 3_000,
        value_size: 32,
        update_fraction: 0.36,
        batch_fraction: 0.04,
        batch_size: 5,
        point_lookup_fraction: 0.30,
        snapshot_fraction: 0.03,
        empty_lookup_fraction: 0.05,
        point_delete_fraction: 0.10,
        range_delete_fraction: 0.02,
        range_lookup_fraction: 0.05,
        streaming_range_fraction: 0.02,
        streaming_range_limit: 25,
        secondary_delete_fraction: 0.03,
        secondary_delete_selectivity: 0.05,
        ..Default::default()
    };
    run_against_oracle(spec, 4);
}

#[test]
fn zipfian_update_heavy_workload_matches_oracle() {
    let spec = WorkloadSpec {
        seed: 3,
        preload_keys: 300,
        operations: 4_000,
        key_space: 1_000,
        value_size: 24,
        update_fraction: 0.60,
        point_lookup_fraction: 0.25,
        empty_lookup_fraction: 0.0,
        point_delete_fraction: 0.12,
        range_delete_fraction: 0.0,
        range_lookup_fraction: 0.03,
        secondary_delete_fraction: 0.0,
        distribution: lethe::workload::KeyDistribution::Zipfian { theta: 0.9 },
        ..Default::default()
    };
    run_against_oracle(spec, 2);
}

#[test]
fn delete_persistence_is_honoured_under_continuous_ingestion() {
    let mut db = LetheBuilder::new()
        .with_config(small_config())
        .delete_persistence_threshold_secs(1.0)
        .ingestion_rate(10_000)
        .build()
        .unwrap();
    // insert, delete a slice, then keep ingesting for several thresholds of
    // logical time
    for k in 0..2_000u64 {
        db.put(k, k, vec![1u8; 24]).unwrap();
    }
    for k in (0..2_000u64).step_by(3) {
        db.delete(k).unwrap();
    }
    for k in 10_000..40_000u64 {
        db.put(k, k, vec![1u8; 24]).unwrap();
    }
    db.persist().unwrap();
    let dth = db.config().delete_persistence_threshold.unwrap();
    let snap = db.snapshot_contents().unwrap();
    for (age, count) in &snap.tombstone_file_ages {
        assert!(
            age <= &dth,
            "{count} tombstones live in a file older ({age} µs) than Dth ({dth} µs)"
        );
    }
    // deleted keys stay deleted, surviving keys stay readable
    assert_eq!(db.get(0).unwrap(), None);
    assert_eq!(db.get(3).unwrap(), None);
    assert!(db.get(1).unwrap().is_some());
}

/// The TTL allocation the engine actually runs: in a two-level store with
/// `size_ratio(4)`, a level-0 tombstone file is compacted by FADE's TTL
/// trigger once its tombstone is older than `level_ttls(D_th, 10, 2)[0]`,
/// and not at that age. FADE allocates with `T = 10`, not the tree's size
/// ratio (with `T = 4`, level 0's share would be more than twice as long).
#[test]
fn fade_compacts_a_level_0_tombstone_file_at_the_t_10_ttl() {
    let dth = 1_000_000;
    let mut db = LetheBuilder::new()
        .with_config(LsmConfig { auto_advance_clock: false, ..small_config() })
        .size_ratio(4)
        .delete_persistence_threshold_micros(dth)
        .build()
        .unwrap();
    let mut k = 0;
    while db.tree().level_count() < 2 {
        db.put(k, k, vec![1u8; 24]).unwrap();
        k += 1;
    }
    let deleted_at = db.clock().now();
    db.delete(0).unwrap();
    db.persist().unwrap();
    let level_0_has_tombstones =
        |db: &Lethe| db.tree().levels()[0].all_tables().any(|f| f.has_tombstones());
    assert_eq!(db.tree().level_count(), 2);
    assert!(level_0_has_tombstones(&db));
    assert_eq!(db.stats().ttl_triggered_compactions, 0);

    let ttl = level_ttls(dth, 10, 2)[0];
    db.clock().advance_to(deleted_at + ttl);
    db.maintain().unwrap();
    assert_eq!(db.stats().ttl_triggered_compactions, 0, "age == TTL has not expired");
    assert!(level_0_has_tombstones(&db));

    db.clock().advance_to(deleted_at + ttl + 1);
    db.maintain().unwrap();
    assert!(db.stats().ttl_triggered_compactions > 0, "age > TTL has expired");
    assert!(!level_0_has_tombstones(&db));
    assert_eq!(db.get(0).unwrap(), None);
    assert!(db.get(1).unwrap().is_some());
}

/// The tension between FADE's delete-persistence promise and a held MVCC
/// snapshot: while a snapshot can still read deleted data, expired
/// tombstones must NOT be persistently dropped (the snapshot keeps its
/// view), the deferral must be counted, and the delete-persistence
/// accounting must keep reporting the tombstones as unpersisted — never
/// claiming a delete completed under a pin. Once the snapshot releases,
/// one maintenance pass restores the quiesce invariant: no tombstone file
/// older than `D_th`.
#[test]
fn held_snapshot_defers_tombstone_gc_but_never_fakes_persistence() {
    let dth_secs = 1.0;
    let db = ShardedLetheBuilder::from_builder(
        LetheBuilder::new()
            .buffer(8, 4, 64)
            .size_ratio(4)
            .delete_tile_pages(2)
            .delete_persistence_threshold_secs(dth_secs),
    )
    .shards(1)
    .build()
    .unwrap();
    for k in 0..600u64 {
        db.put(k, k, vec![1u8; 24]).unwrap();
    }
    db.persist().unwrap();

    let snapshot = db.snapshot();
    for k in (0..600u64).step_by(3) {
        db.delete(k).unwrap();
    }
    // keep ingesting so compactions (which would normally drop expired
    // tombstones at the bottom level) actually run under the pin
    for k in 10_000..12_000u64 {
        db.put(k, k, vec![1u8; 24]).unwrap();
    }
    db.persist().unwrap();
    // logical time sails past D_th with the snapshot still held
    db.clock().advance_secs(dth_secs * 5.0);
    db.maintain().unwrap();

    let stats = db.stats();
    assert!(
        stats.tombstone_gc_delayed > 0,
        "no tombstone-GC deferral was recorded while a snapshot was pinned"
    );
    // the snapshot still reads the pre-delete state
    assert!(snapshot.get(0).unwrap().is_some(), "snapshot lost key 0 to tombstone GC");
    assert!(snapshot.get(3).unwrap().is_some(), "snapshot lost key 3 to tombstone GC");
    // the accounting keeps reporting the expired tombstones as unpersisted
    // (files older than D_th still hold them) instead of claiming the
    // deletes persisted while the snapshot could read the deleted data
    let dth = (dth_secs * 1_000_000.0) as u64;
    let contents = db.snapshot_contents().unwrap();
    assert!(
        contents.tombstone_file_ages.iter().any(|(age, _)| *age > dth),
        "pinned tombstones vanished from the delete-persistence accounting: {:?}",
        contents.tombstone_file_ages
    );
    // gating GC never gates the delete itself: live reads see the deletes
    assert_eq!(db.get(0).unwrap(), None);
    assert!(db.get(1).unwrap().is_some());

    // release the pin: the next maintenance pass restores the quiesce
    // invariant — no file anywhere still holds a tombstone older than D_th
    drop(snapshot);
    db.maintain().unwrap();
    let contents = db.snapshot_contents().unwrap();
    for (age, count) in &contents.tombstone_file_ages {
        assert!(
            age <= &dth,
            "{count} tombstones still live in a file older ({age} µs) than Dth ({dth} µs) \
             after the snapshot released"
        );
    }
    assert_eq!(db.get(0).unwrap(), None);
    assert!(db.get(1).unwrap().is_some());
}

/// A snapshot of a single-shard store pins its fence like a sharded one:
/// held across deletes and the flush that would drop their tombstones, it
/// keeps them (the deferral counted) and still reads the state it froze;
/// once it drops, the next maintenance pass drops them.
#[test]
fn a_single_shard_snapshot_defers_tombstone_gc_until_it_drops() {
    let dth_secs = 1.0;
    let mut db = LetheBuilder::new()
        .buffer(8, 4, 64)
        .size_ratio(4)
        .delete_tile_pages(2)
        .delete_persistence_threshold_secs(dth_secs)
        .build()
        .unwrap();
    for k in 0..600u64 {
        db.put(k, k, vec![1u8; 24]).unwrap();
    }
    db.persist().unwrap();
    let tombstones = |db: &Lethe| db.snapshot_contents().unwrap().tombstones;
    let delayed = db.stats().tombstone_gc_delayed;

    let snapshot = db.snapshot();
    for k in (0..600u64).step_by(3) {
        db.delete(k).unwrap();
    }
    db.persist().unwrap();
    db.clock().advance_secs(dth_secs * 5.0);
    db.maintain().unwrap();
    assert!(db.stats().tombstone_gc_delayed > delayed, "no deferral was counted");
    assert_eq!(tombstones(&db), 200, "the pinned tombstones were dropped");
    assert_eq!(snapshot.get(3).unwrap(), Some(Bytes::from(vec![1u8; 24])));
    assert_eq!(snapshot.range(0, 600).unwrap().len(), 600);
    assert_eq!(db.get(3).unwrap(), None);

    drop(snapshot);
    db.maintain().unwrap();
    assert_eq!(tombstones(&db), 0, "the released tombstones outlived the next maintenance");
    assert_eq!(db.get(3).unwrap(), None);
    assert_eq!(db.range(0, 600).unwrap().len(), 400);
}

#[test]
fn baseline_without_threshold_retains_old_tombstones() {
    // the state of the art gives no guarantee: with a mostly-static tree the
    // tombstones linger well past any would-be threshold
    let mut baseline = BaselineKind::RocksDbLike.build(small_config()).unwrap();
    for k in 0..2_000u64 {
        baseline.put(k, k, vec![1u8; 24]).unwrap();
    }
    for k in (0..2_000u64).step_by(3) {
        baseline.delete(k).unwrap();
    }
    baseline.persist().unwrap();
    // equivalent logical time passes without substantive new ingestion
    baseline.tree().clock().advance_secs(30.0);
    baseline.persist().unwrap();
    let snap = baseline.tree().snapshot_contents().unwrap();
    assert!(
        snap.tombstones > 0,
        "the baseline should still be holding tombstones after 30 s of idle time"
    );
}

#[test]
fn secondary_range_delete_is_equivalent_to_full_compaction_result() {
    // Lethe's page-drop path and the baseline's full-tree compaction must
    // leave behind exactly the same logical database
    let mut lethe = lethe_engine(8);
    let mut baseline = BaselineKind::RocksDbLike.build(small_config()).unwrap();
    for k in 0..4_000u64 {
        let d = (k * 7919) % 4_000;
        lethe.put(k, d, vec![2u8; 32]).unwrap();
        baseline.put(k, d, vec![2u8; 32]).unwrap();
    }
    lethe.persist().unwrap();
    baseline.persist().unwrap();
    lethe.delete_where_delete_key_in(1_000, 3_000).unwrap();
    baseline.delete_where_delete_key_in(1_000, 3_000).unwrap();
    for k in 0..4_000u64 {
        let gone = (1_000..3_000).contains(&((k * 7919) % 4_000));
        assert_eq!(lethe.get(k).unwrap().is_none(), gone, "lethe key {k}");
        assert_eq!(baseline.get(k).unwrap().is_none(), gone, "baseline key {k}");
    }
    // but Lethe must have done it with page drops, not a full rewrite
    assert!(lethe.stats().secondary_delete.full_page_drops > 0);
    assert_eq!(lethe.stats().full_tree_compactions, 0);
    assert!(baseline.tree().stats().full_tree_compactions >= 1);
}

/// One step of the conformance history below.
#[derive(Clone, Copy)]
enum Step {
    Put(u64, u64, &'static str),
    Delete(u64),
    DeleteRange(u64, u64),
    Persist,
    /// Move the active buffer into the frozen slot without flushing it.
    Freeze,
}
use Step::*;

fn apply_to_oracle(oracle: &mut Oracle, steps: &[Step]) {
    for step in steps {
        match *step {
            Put(k, d, v) => {
                oracle.insert(k, (d, v.as_bytes().to_vec()));
            }
            Delete(k) => {
                oracle.remove(&k);
            }
            DeleteRange(lo, hi) => oracle.retain(|k, _| *k < lo || *k >= hi),
            Persist | Freeze => {}
        }
    }
}

fn apply_to_lethe(db: &mut Lethe, steps: &[Step]) {
    for step in steps {
        match *step {
            Put(k, d, v) => db.put(k, d, v).unwrap(),
            Delete(k) => {
                db.delete(k).unwrap();
            }
            DeleteRange(lo, hi) => db.delete_range(lo, hi).unwrap(),
            Persist => db.persist().unwrap(),
            Freeze => assert!(db.tree_mut().freeze().unwrap()),
        }
    }
}

fn apply_to_sharded(db: &ShardedLethe, steps: &[Step]) {
    for step in steps {
        match *step {
            Put(k, d, v) => db.put(k, d, v).unwrap(),
            Delete(k) => {
                db.delete(k).unwrap();
            }
            DeleteRange(lo, hi) => db.delete_range(lo, hi).unwrap(),
            Persist => db.persist().unwrap(),
            // the shard's worker flushes the frozen buffer as soon as it is
            // resumed, so how long the buffer stays frozen is up to the
            // scheduler (the single engine below holds it deterministically)
            Freeze => {
                for i in 0..db.shard_count() {
                    db.with_shard(i, |shard| shard.tree_mut().freeze()).unwrap();
                }
            }
        }
    }
}

/// Every way of reading a store — `Lethe`, `ShardedLethe` with one and three
/// shards, and a `Snapshot` of each — must give the oracle's answer for the
/// same history, and the point-in-time views must keep giving it after the
/// store has moved on.
#[test]
fn every_read_surface_agrees_with_the_oracle() {
    const MAX: u64 = u64::MAX;
    // layer 1, flushed to disk
    let mut on_disk: Vec<Step> = (0..40).map(|k| Put(k, k * 10, "disk")).collect();
    on_disk.extend([Put(MAX, 7, "disk-max"), Persist]);
    // layer 2, frozen: a newer version of key 5, a point tombstone, and the
    // history's only range tombstone
    let frozen =
        [Put(5, 55, "frozen"), Put(41, 410, "frozen"), Delete(6), DeleteRange(10, 20), Freeze];
    // layer 3, active: key 5 now lives in all three layers; key 12 is
    // re-inserted above the frozen range tombstone; key 41 dies again
    let active = [Put(5, 56, "active"), Put(12, 121, "active"), Delete(41), Put(MAX - 1, 8, "max-1")];
    // what the stores do after the point-in-time views were taken
    let later = [Delete(5), Put(100, 57, "later"), DeleteRange(0, 3), Put(MAX, 9, "later"), Persist];

    let keys = [0, 2, 5, 6, 10, 12, 19, 20, 41, 42, 100, MAX - 1, MAX];
    let ranges = [
        (0, 50),
        (5, 6),
        (8, 25),
        (10, 20),
        (0, MAX),
        (MAX - 1, MAX),
        (30, 30), // hi == lo
        (30, 10), // hi < lo
        (MAX, 0),
    ];
    let delete_key_ranges =
        [(0, 1000), (50, 57), (55, 56), (56, 57), (7, 10), (0, MAX), (100, 100), (200, 100)];

    let mut then = Oracle::new();
    for layer in [&on_disk[..], &frozen, &active] {
        apply_to_oracle(&mut then, layer);
    }
    let mut now = then.clone();
    apply_to_oracle(&mut now, &later);
    let check = |name: &str, surface: &dyn ReadSurface, oracle: &Oracle| {
        assert_reads_match(name, surface, oracle, &keys, &ranges, &delete_key_ranges);
    };

    let mut lethe = lethe_engine(2);
    apply_to_lethe(&mut lethe, &on_disk);
    apply_to_lethe(&mut lethe, &frozen);
    let frozen_entries = lethe.tree().buffered_entries();
    apply_to_lethe(&mut lethe, &active);
    // the three layers really are three layers
    assert!(lethe.tree().disk_entries() > 0);
    assert!(lethe.tree().has_frozen());
    assert!(lethe.tree().buffered_entries() > frozen_entries);
    check("Lethe", &lethe, &then);
    let snapshot = lethe.snapshot();
    check("Lethe::snapshot", &snapshot, &then);
    apply_to_lethe(&mut lethe, &later);
    check("Lethe, later", &lethe, &now);
    check("Lethe::snapshot, later", &snapshot, &then);

    for shards in [1, 3] {
        let db = ShardedLetheBuilder::from_builder(
            LetheBuilder::new()
                .with_config(small_config())
                .delete_tile_pages(2),
        )
        .shards(shards)
        .build()
        .unwrap();
        for layer in [&on_disk[..], &frozen, &active] {
            apply_to_sharded(&db, layer);
        }
        check(&format!("ShardedLethe/{shards}"), &db, &then);
        let snapshot = db.snapshot();
        check(&format!("Snapshot/{shards}"), &snapshot, &then);
        apply_to_sharded(&db, &later);
        check(&format!("ShardedLethe/{shards}, later"), &db, &now);
        check(&format!("Snapshot/{shards}, later"), &snapshot, &then);
    }
}

/// One request of the write-path conformance script below.
#[derive(Clone)]
enum Write {
    Put(u64, u64, &'static str),
    Delete(u64),
    DeleteRange(u64, u64),
    SecondaryDelete(u64, u64),
    Batch(Vec<Write>),
}

/// `writes` as one `WriteBatch`.
fn batch_of(writes: &[Write]) -> WriteBatch {
    let mut batch = WriteBatch::new();
    for w in writes {
        match w {
            Write::Put(k, d, v) => batch.put(*k, *d, *v),
            Write::Delete(k) => batch.delete(*k),
            Write::DeleteRange(lo, hi) => batch.delete_range(*lo, *hi),
            Write::SecondaryDelete(lo, hi) => batch.secondary_range_delete(*lo, *hi),
            Write::Batch(_) => panic!("batches do not nest"),
        };
    }
    batch
}

/// What a write door left behind, observed the same way for every door.
#[derive(Debug, PartialEq)]
struct Left {
    rows: Vec<(u64, Vec<u8>)>,
    /// `(sort key, delete key)` of every live entry.
    by_delete_key: Vec<(u64, u64)>,
    next_seqnum: u64,
    clock: u64,
    /// entries and bytes ingested; point, range and secondary deletes
    /// issued; blind deletes suppressed
    counters: [u64; 6],
}

fn left_by(tree: &LsmTree) -> Left {
    let stats = tree.stats();
    Left {
        rows: tree.range(0, u64::MAX).unwrap().into_iter().map(|(k, v)| (k, v.to_vec())).collect(),
        by_delete_key: tree
            .secondary_range_scan(0, u64::MAX)
            .unwrap()
            .iter()
            .map(|e| (e.sort_key, e.delete_key))
            .collect(),
        next_seqnum: tree.next_seqnum(),
        clock: tree.clock().now(),
        counters: [
            stats.entries_ingested,
            stats.bytes_ingested,
            stats.point_deletes_issued,
            stats.range_deletes_issued,
            stats.secondary_range_deletes,
            stats.blind_deletes_suppressed,
        ],
    }
}

/// Every way of writing to a store — the `LsmTree` point API, the same
/// requests as one-op `WriteBatch`es, a replay of the first door's log, and
/// a one-shard `ShardedLethe` — is the same stage → commit → apply over the
/// same ops, so one script must leave the same contents, seqnum allocator,
/// clock and counters behind each. The doors differ in one documented
/// place: a delete inside a batch is never suppressed as blind.
#[test]
fn every_write_surface_leaves_the_same_store() {
    use Write::*;
    let script = vec![
        Put(1, 10, "a"),
        Put(2, 20, "b"),
        Put(3, 30, "c"),
        Put(4, 40, "d"),
        Put(5, 50, "e"),
        Put(6, 60, "f"),
        Put(2, 21, "b2"),        // an overwrite
        Delete(3),               // of a live key
        Delete(99),              // blind
        DeleteRange(5, 7),       // keys 5 and 6
        DeleteRange(9, 9),       // empty: no tick, no entry
        SecondaryDelete(40, 41), // key 4; no tick
        Batch(vec![
            Put(7, 70, "g"),
            Delete(1),
            DeleteRange(20, 30),
            Put(8, 80, "h"),
            SecondaryDelete(70, 71), // key 7, put by this very batch
            Put(9, 90, "i"),
        ]),
    ];
    // nothing flushes, so door one's log still holds the whole script
    let config = LsmConfig {
        buffer_pages: 1024,
        suppress_blind_deletes: true,
        secondary_delete_mode: lethe::lsm::SecondaryDeleteMode::KiwiPageDrops,
        ..small_config()
    };
    let tick = config.micros_per_ingest();
    use lethe::lsm::{FileSelection, SaturationPolicy};
    let policy = || Box::new(SaturationPolicy::new(FileSelection::MinOverlap));
    let tree = || LsmTree::in_memory(config.clone(), policy()).unwrap();
    // the tree `lethe` in the in-memory directory `/` on `vfs`, recovered
    let wal_path = Path::new("/lethe.wal");
    let open = |vfs: &Arc<dyn Vfs>| {
        let target = config.segment_target_bytes();
        let backend = FileBackend::open_on(vfs, Path::new("/"), "lethe", target).unwrap();
        let wal = FileWal::open_on(vfs, wal_path).unwrap();
        let manifest = Manifest::open_on(vfs, Path::new("/lethe.manifest")).unwrap();
        let clock = LogicalClock::new();
        let (backend, config) = (Arc::new(backend), config.clone());
        let mut t =
            LsmTree::new(config, backend, Box::new(wal), manifest, clock, policy()).unwrap();
        let report = t.recover().unwrap();
        (t, report.wal_records_replayed)
    };

    // door 1: the point API
    let vfs = MemVfs::shared();
    let mut point = open(&vfs).0;
    for w in &script {
        match w {
            Put(k, d, v) => point.put(*k, *d, Bytes::from_static(v.as_bytes())).unwrap(),
            Delete(k) => assert_eq!(point.delete(*k).unwrap(), *k != 99, "only key 99 is blind"),
            DeleteRange(lo, hi) => point.delete_range(*lo, *hi).unwrap(),
            SecondaryDelete(lo, hi) => drop(point.secondary_range_delete(*lo, *hi).unwrap()),
            Batch(inner) => point.write_batch(batch_of(inner)).unwrap(),
        }
    }
    // door 2: every request as a batch of its own
    let mut batched = tree();
    for w in &script {
        let ops = if let Batch(inner) = w { &inner[..] } else { std::slice::from_ref(w) };
        batched.write_batch(batch_of(ops)).unwrap();
    }
    // door 3: a fresh tree replaying door one's log (and not its manifest,
    // which door one's secondary delete committed)
    let log = FileWal::open_on(&vfs, wal_path).unwrap().replay().unwrap();
    let fresh = MemVfs::shared();
    fresh.open(wal_path, true).unwrap().append(&vfs.read(wal_path).unwrap()).unwrap();
    let (replayed, records) = open(&fresh);
    assert_eq!(records, log.len());
    // door 4: a one-shard sharded store (group-commit queue, background mode)
    let sharded = ShardedLetheBuilder::from_builder(LetheBuilder::new().with_config(config.clone()))
        .shards(1)
        .build()
        .unwrap();
    for w in &script {
        match w {
            Put(k, d, v) => sharded.put(*k, *d, *v).unwrap(),
            Delete(k) => assert_eq!(sharded.delete(*k).unwrap(), *k != 99),
            DeleteRange(lo, hi) => sharded.delete_range(*lo, *hi).unwrap(),
            SecondaryDelete(lo, hi) => drop(sharded.delete_where_delete_key_in(*lo, *hi).unwrap()),
            Batch(inner) => sharded.write(batch_of(inner)).unwrap(),
        }
    }

    // 7 puts + 1 delete + 1 range delete + the batch's 5 entries; 11 requests
    // ticked the clock (the blind delete too; the empty range and the lone
    // secondary delete did not)
    let point_tombstone_bytes = lethe::storage::Entry::point_tombstone(0, 0).encoded_size() as u64;
    let expected = left_by(&point);
    assert_eq!(expected.rows, vec![(2, b"b2".to_vec()), (8, b"h".to_vec()), (9, b"i".to_vec())]);
    assert_eq!(expected.by_delete_key, vec![(2, 21), (8, 80), (9, 90)]);
    assert_eq!((expected.next_seqnum, expected.clock), (15, 11 * tick));
    assert_eq!(expected.counters[0], 14);
    assert_eq!(expected.counters[2..], [2, 2, 2, 1]);
    // door, suppresses the blind delete, counts
    let doors = [
        ("one-op WriteBatches", left_by(&batched), false, true),
        ("replay of door one's log", left_by(&replayed), true, false),
        ("ShardedLethe/1", sharded.with_shard(0, |shard| left_by(shard.tree())), true, true),
    ];
    for (door, left, suppresses, counts) in doors {
        let blind = u64::from(!suppresses);
        let [entries, bytes, points, ranges, secondaries, suppressed] = expected.counters;
        let counters = [
            entries + blind,
            bytes + blind * point_tombstone_bytes,
            points + blind,
            ranges,
            secondaries,
            suppressed - blind,
        ];
        let want = Left {
            next_seqnum: expected.next_seqnum + blind,
            counters: if counts { counters } else { [0; 6] },
            rows: expected.rows.clone(),
            by_delete_key: expected.by_delete_key.clone(),
            ..expected
        };
        assert_eq!(left, want, "{door}");
    }
    // door one logged compact single-op records for everything but the
    // multi-op batch, and nothing for the blind delete or the empty range
    let frames: Vec<&str> = log
        .iter()
        .map(|r| match r {
            WalRecord::Put { .. } => "put",
            WalRecord::Delete { .. } => "delete",
            WalRecord::DeleteRange { .. } => "range",
            WalRecord::SecondaryDelete { .. } => "secondary",
            WalRecord::Batch { id: None, ops, .. } if ops.len() == 6 => "batch",
            other => panic!("unexpected frame {other:?}"),
        })
        .collect();
    let mut want_frames = vec!["put"; 7];
    want_frames.extend(["delete", "range", "secondary", "batch"]);
    assert_eq!(frames, want_frames);
}

/// A block cache larger than the store serves every read once warm: after
/// one pass that reads every key of a durable two-shard store, a second pass
/// in another order misses the cache zero times and reads no page from the
/// device, while the same pass on an uncached twin reads a page per get.
#[test]
fn a_cache_larger_than_the_store_serves_every_warm_read() {
    const KEYS: u64 = 4_000;
    let base = std::env::temp_dir().join(format!("lethe-warm-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let open = |name: &str, cache_bytes: usize| {
        let db = ShardedLetheBuilder::from_builder(
            LetheBuilder::new()
                .buffer(32, 8, 128)
                .size_ratio(4)
                .delete_tile_pages(2)
                .delete_persistence_threshold_secs(3600.0)
                .block_cache_bytes(cache_bytes),
        )
        .shards(2)
        .wal_sync_policy(lethe::storage::SyncPolicy::OnFlush)
        .open(base.join(name))
        .unwrap();
        for k in 0..KEYS {
            db.put(k, k % 365, vec![0u8; 128]).unwrap();
        }
        db.persist().unwrap();
        db
    };
    // every key once, in an order no page layout follows
    let pass = |db: &ShardedLethe| {
        let before = db.io_snapshot();
        for i in 0..KEYS {
            let k = (i * 7_919) % KEYS;
            assert!(db.get(k).unwrap().is_some(), "preloaded key {k} missing");
        }
        db.io_snapshot().since(&before)
    };
    let cached = open("cached", 64 << 20);
    pass(&cached);
    let warm = pass(&cached);
    assert_eq!(warm.cache_misses, 0, "a warm 64 MiB cache missed: {warm:?}");
    assert!(warm.cache_hits >= KEYS, "every get must be served by the cache: {warm:?}");
    assert_eq!(warm.pages_read, 0, "a warm cache must keep reads off the device: {warm:?}");
    let uncached = open("uncached", 0);
    pass(&uncached);
    let cold = pass(&uncached);
    assert!(cold.pages_read >= KEYS, "an uncached get reads its page: {cold:?}");
    drop((cached, uncached));
    let _ = std::fs::remove_dir_all(&base);
}

/// A checkpoint streams the whole store image without filling the block
/// cache: like compactions, its bulk walk reads `nofill`, so it cannot
/// evict the hot read set. A cached 3-shard store warmed by gets of a tenth
/// of its keys (most pages never cached) inserts no page while it is
/// checkpointed.
#[test]
fn a_checkpoint_leaves_the_block_cache_as_the_gets_left_it() {
    const KEYS: u64 = 3_000;
    let db = ShardedLetheBuilder::from_builder(
        LetheBuilder::new()
            .buffer(32, 8, 128)
            .size_ratio(4)
            .delete_tile_pages(2)
            .delete_persistence_threshold_secs(3600.0)
            .block_cache_bytes(64 << 20),
    )
    .shards(3)
    .build()
    .unwrap();
    for k in 0..KEYS {
        db.put(k, k % 365, vec![0u8; 128]).unwrap();
    }
    db.persist().unwrap();
    for k in (0..KEYS).step_by(10) {
        assert!(db.get(k).unwrap().is_some(), "preloaded key {k} missing");
    }
    let warm = db.cache_snapshot().expect("the store has a block cache");
    assert!(warm.insertions > 0, "the gets must have filled the cache: {warm:?}");
    db.checkpoint("/ckpt").unwrap();
    let after = db.cache_snapshot().expect("the store has a block cache");
    assert_eq!(after.insertions, warm.insertions, "the checkpoint filled the cache: {after:?}");
}
