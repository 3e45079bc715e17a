//! Streaming-scan integration tests: the `iter_range` cursor stack must be
//! observationally identical to the materialising `range` path across
//! random histories (including flushes and compactions *between* creating
//! an iterator and draining it), scans must respect boundary conditions,
//! compactions must run in bounded memory, and the secondary-scan
//! delete-key pruning + re-validation short-circuit must stay exact under
//! concurrent flush churn.

use bytes::Bytes;
use lethe::lsm::cursor::probe;
use lethe::lsm::jobs::PAGES_PER_MESSAGE;
use lethe::lsm::{LsmConfig, PageHandle, SsTable};
use lethe::storage::{Entry, EntryKind, StorageBackend};
use lethe::{Lethe, LetheBuilder, ShardedLetheBuilder};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn small_config(h: usize) -> LsmConfig {
    let mut cfg = LsmConfig::small_for_test();
    cfg.pages_per_delete_tile = h;
    cfg.max_pages_per_file = (8usize).max(h);
    if !cfg.max_pages_per_file.is_multiple_of(h) {
        cfg.max_pages_per_file = cfg.max_pages_per_file.div_ceil(h) * h;
    }
    cfg.size_ratio = 3;
    cfg
}

fn small_db(h: usize) -> Lethe {
    LetheBuilder::new()
        .with_config(small_config(h))
        .delete_persistence_threshold_secs(60.0)
        .build()
        .unwrap()
}

fn value(k: u64) -> Bytes {
    Bytes::from(format!("value-{k:08}"))
}

/// An independent reference for a merge: the live `(key, value)` pairs of
/// `points` under `range_tombstones`, in key order — per key the newest
/// copy by seqnum, kept when it is a put that no newer range tombstone
/// covers (a linear check over the tombstones).
fn reference(points: Vec<Entry>, range_tombstones: &[Entry]) -> Vec<(u64, Bytes)> {
    let mut newest: BTreeMap<u64, Entry> = BTreeMap::new();
    for e in points {
        if newest.get(&e.sort_key).is_none_or(|n| n.seqnum < e.seqnum) {
            newest.insert(e.sort_key, e);
        }
    }
    newest
        .into_values()
        .filter(|e| e.kind == EntryKind::Put)
        .filter(|e| !range_tombstones.iter().any(|rt| rt.covers(e.sort_key) && rt.seqnum > e.seqnum))
        .map(|e| (e.sort_key, e.value))
        .collect()
}

/// Every point entry `table` stores, read page by page: a reference that
/// shares no code with the tile cursor under test.
fn stored_points(table: &SsTable, backend: &dyn StorageBackend) -> Vec<Entry> {
    let pages = table.tiles.iter().flat_map(|tile| &tile.pages);
    let entries = |page: &PageHandle| backend.read_page(page.id).unwrap().iter().collect::<Vec<_>>();
    pages.flat_map(entries).collect()
}

/// Every stored copy of a store whose buffers are empty: each file's point
/// entries, and its range-tombstone block.
fn stored_copies(db: &Lethe) -> (Vec<Entry>, Vec<Entry>) {
    let backend = db.tree().backend().clone();
    let (mut points, mut range_tombstones) = (Vec::new(), Vec::new());
    for level in db.tree().levels() {
        for table in level.all_tables() {
            points.extend(stored_points(table, backend.as_ref()));
            range_tombstones.extend(table.range_tombstones.iter().cloned());
        }
    }
    (points, range_tombstones)
}

/// Fully drains an iter_range iterator, panicking on I/O errors.
fn drain(iter: impl Iterator<Item = lethe::storage::Result<(u64, Bytes)>>) -> Vec<(u64, Bytes)> {
    iter.map(|r| r.unwrap()).collect()
}

// ------------------------------------------------------------- boundaries

#[test]
fn scan_boundary_conditions() {
    let mut db = small_db(2);
    for k in 0..300u64 {
        db.put(k, k, value(k)).unwrap();
    }
    // a key at the very top of the domain must survive flush, compaction
    // and full-domain scans (a half-open [0, MAX) scan cannot see it, but
    // the compaction merge must not lose it)
    db.put(u64::MAX, 7, value(7)).unwrap();
    db.persist().unwrap();
    db.tree_mut().force_full_compaction().unwrap();
    assert_eq!(db.get(u64::MAX).unwrap(), Some(value(7)));

    // hi <= lo: empty, both materialised and streamed
    assert!(db.range(10, 10).unwrap().is_empty());
    assert!(db.range(20, 10).unwrap().is_empty());
    assert_eq!(db.iter_range(10, 10).unwrap().count(), 0);
    assert_eq!(db.iter_range(20, 10).unwrap().count(), 0);

    // lo == u64::MAX: the half-open range [MAX, MAX) is empty
    assert!(db.range(u64::MAX, u64::MAX).unwrap().is_empty());
    assert_eq!(db.iter_range(u64::MAX, u64::MAX).unwrap().count(), 0);

    // full-domain [0, MAX): every key except the one at MAX itself
    let full = db.range(0, u64::MAX).unwrap();
    assert_eq!(full.len(), 300);
    let streamed = drain(db.iter_range(0, u64::MAX).unwrap());
    assert_eq!(streamed, full);

    // a range that covers MAX inclusively does not exist in the half-open
    // API; the key is still reachable by point lookup (checked above) and
    // by a scan starting at MAX - 1... which excludes MAX too:
    assert!(db.range(u64::MAX - 1, u64::MAX).unwrap().is_empty());

    // scans over an empty tree
    let empty = small_db(1);
    assert!(empty.range(0, u64::MAX).unwrap().is_empty());
    assert_eq!(empty.iter_range(0, u64::MAX).unwrap().count(), 0);
}

#[test]
fn sharded_iter_range_matches_range_and_pages_early() {
    let db = ShardedLetheBuilder::from_builder(
        LetheBuilder::new()
            .buffer(8, 4, 64)
            .size_ratio(4)
            .delete_persistence_threshold_secs(60.0),
    )
    .shards(4)
    .build()
    .unwrap();
    for k in 0..2_000u64 {
        db.put(k, k % 97, format!("v{k}")).unwrap();
    }
    db.persist().unwrap();
    for k in (0..500u64).step_by(5) {
        db.delete(k).unwrap();
    }
    let materialised = db.range(0, 2_000).unwrap();
    let streamed: Vec<(u64, Bytes)> = db.iter_range(0, 2_000).map(|r| r.unwrap()).collect();
    assert_eq!(streamed, materialised);
    // global sort-key order
    assert!(streamed.windows(2).all(|w| w[0].0 < w[1].0));

    // a paging client stops early and pays only for the prefix
    let page: Vec<u64> = db.iter_range(0, 2_000).take(10).map(|r| r.unwrap().0).collect();
    assert_eq!(page, materialised[..10].iter().map(|(k, _)| *k).collect::<Vec<_>>());
}

/// The cursor stack answers a long scan exactly as the materialise-and-resort
/// path it replaced: every overlapping table's entries read page by page,
/// and resolved by an independent reference (newest copy by seqnum per key,
/// a linear range-tombstone check). (The
/// store is persisted, so the tables are the whole input.) A paging client
/// that takes one page of the same scan gets exactly its prefix.
#[test]
fn cursor_stack_equals_the_materialise_and_resort_path() {
    const KEYS: u64 = 20_000;
    const PAGE: usize = 1_024;
    let mut db = LetheBuilder::new()
        .buffer(64, 8, 64)
        .size_ratio(6)
        .delete_tile_pages(2)
        .delete_persistence_threshold_secs(3600.0)
        .build()
        .unwrap();
    for k in 0..KEYS {
        db.put(k, k % 4096, vec![0u8; 64]).unwrap();
    }
    db.persist().unwrap();

    let backend = db.tree().backend().clone();
    let mut inputs = Vec::new();
    let mut range_tombstones = Vec::new();
    for level in db.tree().levels() {
        for run in &level.runs {
            for table in run.overlapping_range(0, KEYS) {
                inputs.extend(stored_points(&table, backend.as_ref()));
                range_tombstones.extend(table.range_tombstones.iter().cloned());
            }
        }
    }
    let materialised: Vec<(u64, Bytes)> = reference(inputs, &range_tombstones)
        .into_iter()
        .filter(|(k, _)| *k < KEYS)
        .collect();
    let streamed = db.range(0, KEYS).unwrap();
    assert_eq!(streamed.len(), KEYS as usize);
    assert_eq!(streamed, materialised);
    let page = drain(db.iter_range(0, KEYS).unwrap().take(PAGE));
    assert_eq!(page, streamed[..PAGE]);
}

// -------------------------------------------------- proptest: equivalence

/// One step of a random history; scans interleave with mutations and
/// maintenance so iterators are created against every tree shape.
#[derive(Debug, Clone)]
enum Step {
    Put(u64, u8),
    Delete(u64),
    DeleteRange(u64, u64),
    SecondaryDelete(u64, u64),
    Persist,
    /// Create an `iter_range` iterator and a materialised `range` result for
    /// the same bounds, drain `consume_before` items, run the *next* steps
    /// of the history (mutations, flushes, compactions), then drain the
    /// rest: the stream must equal the creation-time materialised result.
    Scan { lo: u64, len: u64, consume_before: usize },
}

fn step_strategy(key_space: u64) -> impl Strategy<Value = Step> {
    prop_oneof![
        8 => (0..key_space, any::<u8>()).prop_map(|(k, v)| Step::Put(k, v)),
        2 => (0..key_space).prop_map(Step::Delete),
        1 => (0..key_space, 1..(key_space / 4).max(2))
            .prop_map(|(s, len)| Step::DeleteRange(s, s + len)),
        1 => (0..key_space, 1..(key_space / 4).max(2))
            .prop_map(|(s, len)| Step::SecondaryDelete(s, s + len)),
        1 => Just(Step::Persist),
        3 => (0..key_space, 0..key_space, 0usize..64)
            .prop_map(|(lo, len, c)| Step::Scan { lo, len, consume_before: c }),
    ]
}

fn delete_key_of(k: u64, key_space: u64) -> u64 {
    k.wrapping_mul(31) % key_space
}

fn check_streaming_matches_materialised(ops: &[Step], key_space: u64, h: usize) {
    let mut db = small_db(h);
    let mut i = 0usize;
    while i < ops.len() {
        match ops[i].clone() {
            Step::Put(k, v) => {
                db.put(k, delete_key_of(k, key_space), vec![v; 9]).unwrap();
            }
            Step::Delete(k) => {
                db.delete(k).unwrap();
            }
            Step::DeleteRange(s, e) => db.delete_range(s, e).unwrap(),
            Step::SecondaryDelete(s, e) => {
                db.delete_where_delete_key_in(s, e).unwrap();
            }
            Step::Persist => db.persist().unwrap(),
            Step::Scan { lo, len, consume_before } => {
                let hi = lo.saturating_add(len);
                let expected = db.range(lo, hi).unwrap();
                let mut iter = db.iter_range(lo, hi).unwrap();
                let mut got: Vec<(u64, Bytes)> = Vec::new();
                for _ in 0..consume_before {
                    match iter.next() {
                        Some(r) => got.push(r.unwrap()),
                        None => break,
                    }
                }
                // mutate the tree mid-iteration: apply the remaining steps'
                // mutations plus forced maintenance before draining
                let lookahead = ops[i + 1..].iter().take(8).cloned().collect::<Vec<_>>();
                for step in &lookahead {
                    match step.clone() {
                        Step::Put(k, v) => {
                            db.put(k, delete_key_of(k, key_space), vec![v; 9]).unwrap()
                        }
                        Step::Delete(k) => {
                            db.delete(k).unwrap();
                        }
                        Step::DeleteRange(s, e) => db.delete_range(s, e).unwrap(),
                        Step::SecondaryDelete(s, e) => {
                            db.delete_where_delete_key_in(s, e).unwrap();
                        }
                        _ => {}
                    }
                }
                db.persist().unwrap();
                db.tree_mut().force_full_compaction().unwrap();
                got.extend(iter.map(|r| r.unwrap()));
                assert_eq!(
                    got, expected,
                    "stream [{lo}, {hi}) diverged from its creation-time snapshot"
                );
                // the consumed lookahead steps were already applied: skip them
                i += lookahead.len();
            }
        }
        i += 1;
    }
    // final full-domain check: range() is separately oracle-checked in
    // property_tests.rs, so the streamed result only needs to agree with it
    let expected = db.range(0, u64::MAX).unwrap();
    let streamed = drain(db.iter_range(0, u64::MAX).unwrap());
    assert_eq!(streamed, expected);
    // and, persisted, both agree with the reference over every stored copy
    db.persist().unwrap();
    let (points, range_tombstones) = stored_copies(&db);
    let streamed = drain(db.iter_range(0, u64::MAX).unwrap());
    assert_eq!(streamed, reference(points, &range_tombstones));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    /// `iter_range` streams byte-identical results to the materialising
    /// `range` taken at iterator-creation time, across random histories
    /// with flushes, compactions and secondary deletes applied while the
    /// iterator is half-drained (snapshot isolation).
    #[test]
    fn streaming_scan_equals_materialised_scan(
        ops in prop::collection::vec(step_strategy(256), 1..300),
    ) {
        check_streaming_matches_materialised(&ops, 256, 2);
    }

    /// Same with wide delete tiles (h = 8): the within-tile page re-sort is
    /// exercised hard.
    #[test]
    fn streaming_scan_equals_materialised_scan_wide_tiles(
        ops in prop::collection::vec(step_strategy(128), 1..200),
    ) {
        check_streaming_matches_materialised(&ops, 128, 8);
    }
}

// ------------------------------------------------- bounded-memory merges

/// A compaction that merges the whole tree must not materialise its input,
/// nor even one output file: the merge stage of the execute phase peaks at
/// one delete tile per input file, the output tile being cut, and the woven
/// pages of one message not yet handed to the build stage — far below both
/// the total entry count and one output file's entries.
#[test]
fn full_compaction_memory_is_bounded_by_tile_granularity() {
    let mut cfg = small_config(2);
    cfg.buffer_pages = 32; // 128-entry flushes
    cfg.max_pages_per_file = 32; // 128-entry files (tiles stay at h·B = 8)
    cfg.size_ratio = 10; // keep many files resident without compacting much
    let mut db = LetheBuilder::new()
        .with_config(cfg.clone())
        .delete_persistence_threshold_secs(600.0)
        .build()
        .unwrap();
    let total = 20_000u64;
    for k in 0..total {
        db.put(k, (k * 37) % 10_000, value(k)).unwrap();
    }
    db.persist().unwrap();
    let files: usize = db.tree().files_per_level().iter().sum();
    assert!(files > 20, "need many input files to make this meaningful, got {files}");

    probe::reset();
    db.tree_mut().force_full_compaction().unwrap();
    let peak = probe::peak();

    // bound: one output tile + one message of woven pages + one tile per
    // input file + slack. A message is sent once it holds PAGES_PER_MESSAGE
    // pages, so it holds at most one tile more. Past this thread, a fixed
    // number of messages is queued, being written or waiting to be freed:
    // a constant, whatever the size of the files or the job.
    let per_file = (cfg.max_pages_per_file * cfg.entries_per_page) as u64;
    let per_tile = (cfg.pages_per_delete_tile * cfg.entries_per_page) as u64;
    let per_message =
        ((PAGES_PER_MESSAGE + cfg.pages_per_delete_tile) * cfg.entries_per_page) as u64;
    let bound = per_tile + per_message + files as u64 * per_tile + 64;
    assert!(
        per_tile + per_message < per_file,
        "the bound must be tighter than one output file ({per_file} entries)"
    );
    assert!(
        peak <= bound,
        "compaction peak working set {peak} exceeds tile-granularity bound {bound}"
    );
    assert!(
        peak < total / 4,
        "compaction peak working set {peak} is proportional to input ({total} entries)"
    );
    // and the merge was correct
    assert_eq!(db.range(0, u64::MAX).unwrap().len(), total as usize);
}

// ------------------------------------------ secondary-scan fence pruning

/// With delete keys correlated to sort keys, every file covers a narrow
/// delete-key slice, so a narrow secondary scan must skip almost every file
/// — observable as a collapse in `pages_read`.
#[test]
fn secondary_scan_prunes_files_by_delete_key_bounds() {
    let mut db = small_db(2);
    // correlated: delete key == sort key, so files partition the delete-key
    // domain exactly like the sort-key domain
    let total = 4_000u64;
    for k in 0..total {
        db.put(k, k, value(k)).unwrap();
    }
    db.persist().unwrap();
    let files: usize = db.tree().files_per_level().iter().sum();
    assert!(files > 8, "need several files, got {files}");

    let before = db.io_snapshot();
    let hits = db.scan_by_delete_key(100, 140).unwrap();
    let read = db.io_snapshot().since(&before).pages_read;
    assert_eq!(hits.len(), 40);
    assert!(hits.iter().all(|e| (100..140).contains(&e.delete_key)));

    // the two KiWi fence levels together bound the reads: file-level
    // delete-key bounds skip non-intersecting files outright (the per-file
    // min/max added by this PR) and the per-tile delete fences prune within
    // the few files that do intersect. Only those pages plus the
    // per-candidate verification lookups may be read — an eighth of the
    // device is a generous ceiling.
    let total_pages: u64 = db
        .tree()
        .levels()
        .iter()
        .flat_map(|l| l.all_tables().map(|t| t.page_count() as u64).collect::<Vec<_>>())
        .sum();
    assert!(
        read < total_pages / 8,
        "narrow secondary scan read {read} of {total_pages} pages — file pruning is not working"
    );
}

/// The delete-key bounds drive pruning after a restart too: they are
/// recorded in the manifest and adopted by `SsTable::recover`.
#[test]
fn secondary_scan_pruning_survives_recovery() {
    let dir = std::env::temp_dir().join(format!("lethe-scanprune-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || {
        LetheBuilder::new()
            .with_config(small_config(2))
            .delete_persistence_threshold_secs(60.0)
            .open(&dir)
            .unwrap()
    };
    {
        let mut db = open();
        for k in 0..2_000u64 {
            db.put(k, k, value(k)).unwrap();
        }
        db.persist().unwrap();
    }
    {
        let db = open();
        let before = db.io_snapshot();
        let hits = db.scan_by_delete_key(50, 80).unwrap();
        assert_eq!(hits.len(), 30);
        let read = db.io_snapshot().since(&before).pages_read;
        let total_pages: u64 = db
            .tree()
            .levels()
            .iter()
            .flat_map(|l| l.all_tables().map(|t| t.page_count() as u64).collect::<Vec<_>>())
            .sum();
        assert!(
            read < total_pages / 4,
            "post-recovery narrow scan read {read} of {total_pages} pages"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Puts every key of `0..n` with a delete key `>= 1000`, persists, then
/// deletes every third key and persists again, so the files hold point
/// tombstones (delete key 0) beside puts no purge of `[0, 1000)` can match.
fn tombstones_beside_late_puts(db: &mut Lethe, n: u64) {
    for k in 0..n {
        db.put(k, 1_000 + k, value(k)).unwrap();
    }
    db.persist().unwrap();
    for k in (0..n).step_by(3) {
        db.delete(k).unwrap();
    }
    db.persist().unwrap();
    let tombstones: u64 = db
        .tree()
        .levels()
        .iter()
        .flat_map(|l| l.all_tables().map(|t| t.meta.num_point_tombstones).collect::<Vec<_>>())
        .sum();
    assert!(tombstones > 0, "the purge below must meet tombstones on disk");
}

/// A tombstone is never removed by a secondary range delete, so its delete
/// key 0 is in no delete fence: a purge or scan of `[0, 500)` over files of
/// tombstones and later puts reads no page at all.
#[test]
fn tombstones_do_not_widen_delete_fences() {
    let mut db = small_db(4);
    tombstones_beside_late_puts(&mut db, 1_200);
    let before = db.io_snapshot();
    assert!(db.scan_by_delete_key(0, 500).unwrap().is_empty());
    assert_eq!(db.io_snapshot().since(&before).pages_read, 0, "secondary scan read pages");
    let before = db.io_snapshot();
    let stats = db.delete_where_delete_key_in(0, 500).unwrap();
    assert_eq!(db.io_snapshot().since(&before).pages_read, 0, "purge read pages: {stats:?}");
    assert_eq!(stats.entries_deleted, 0);
    assert_eq!((stats.full_page_drops, stats.partial_page_drops), (0, 0));
    // every tombstone still shadows its key, every other key is live
    for k in 0..1_200u64 {
        assert_eq!(db.get(k).unwrap().is_some(), k % 3 != 0, "key {k}");
    }
}

/// A store written before fences left tombstones out persists wider,
/// tombstone-inclusive file bounds. Recovery accepts any durable bounds
/// that contain the ones it derives from the pages, and prunes on the
/// derived ones.
#[test]
fn wider_durable_delete_fences_reopen_and_prune_exactly() {
    use lethe::storage::Manifest;
    use std::sync::Arc;
    let dir = std::env::temp_dir().join(format!("lethe-widefence-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || {
        LetheBuilder::new()
            .with_config(small_config(4))
            .delete_persistence_threshold_secs(60.0)
            .open(&dir)
            .unwrap()
    };
    tombstones_beside_late_puts(&mut open(), 1_200);
    // rewrite the manifest as an older build would have: the bounds of a
    // tombstone-bearing file start at the tombstones' delete key 0
    {
        let mut manifest = Manifest::open(dir.join("lethe.manifest")).unwrap();
        let mut state = manifest.state().clone();
        let mut widened = 0;
        for file in state.levels.iter_mut().flatten().flatten() {
            if file.oldest_tombstone_ts.is_some() {
                let mut desc = (**file).clone();
                desc.min_delete = 0;
                *file = Arc::new(desc);
                widened += 1;
            }
        }
        assert!(widened > 0);
        manifest.commit(state).unwrap();
    }
    let mut db = open();
    let before = db.io_snapshot();
    let stats = db.delete_where_delete_key_in(0, 500).unwrap();
    assert_eq!(db.io_snapshot().since(&before).pages_read, 0, "purge read pages: {stats:?}");
    assert_eq!(stats.entries_deleted, 0);
    for k in 0..1_200u64 {
        assert_eq!(db.get(k).unwrap().is_some(), k % 3 != 0, "key {k}");
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------- secondary scan under concurrent churn

/// Oracle test for the re-validation short-circuit: a stable, fully-acked
/// population must be returned by every secondary scan while a concurrent
/// writer forces continuous flushes and compactions (entries move between
/// memtable, frozen buffer and versions mid-scan, exercising both the
/// pinned-version fast path and the re-pin fallback).
#[test]
fn secondary_scan_is_exact_under_concurrent_flush_churn() {
    let db = ShardedLetheBuilder::from_builder(
        LetheBuilder::new()
            .buffer(8, 4, 64)
            .size_ratio(3)
            .delete_persistence_threshold_secs(600.0),
    )
    .shards(2)
    .build()
    .unwrap();
    let stable = 400u64;
    for k in 0..stable {
        db.put(k, k, value(k)).unwrap();
    }
    db.persist().unwrap();

    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let db_ref = &db;
        let stop_ref = &stop;
        // churn writer: disjoint keys, disjoint delete keys, constant
        // updates → constant freezes, flushes and compactions
        s.spawn(move || {
            let mut k = 0u64;
            while !stop_ref.load(std::sync::atomic::Ordering::Relaxed) {
                // keys and delete keys both live far outside the stable
                // population; constant updates force freeze/flush/compaction
                db_ref
                    .put(1_000_000 + (k % 50_000), 1_000_000 + (k % 1_000), value(k))
                    .unwrap();
                k += 1;
            }
        });
        // scanner: the stable population must always be complete
        for _ in 0..200 {
            let hits = db_ref.scan_by_delete_key(0, stable).unwrap();
            let keys: Vec<u64> = hits.iter().map(|e| e.sort_key).collect();
            assert_eq!(
                keys,
                (0..stable).collect::<Vec<u64>>(),
                "a scan under churn lost or duplicated acked entries"
            );
            assert!(hits.iter().all(|e| e.delete_key < stable));
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
}
