//! Property-based tests (proptest): random operation sequences against a
//! model oracle, and structural invariants of the storage layer.

use bytes::Bytes;
use lethe::lsm::compaction::{FileSelection, SaturationPolicy};
use lethe::lsm::{LsmConfig, LsmTree, MergePolicy, SecondaryDeleteMode, SsTable};
use lethe::storage::{
    BloomFilter, Entry, FileBackend, Histogram, MemTable, Page, StorageBackend,
};
use lethe::{level_ttls, LetheBuilder, ShardedLethe, ShardedLetheBuilder, WriteBatch};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// A random mutation applied to both the engine and the oracle.
///
/// The delete key of a put is a fixed function of the sort key (as if it were
/// an immutable creation attribute), matching the paper's model where the
/// delete key is e.g. a creation timestamp: all versions of a key share it,
/// so a secondary range delete either covers every version of a key or none.
#[derive(Debug, Clone)]
enum Mutation {
    Put(u64, u8),
    Delete(u64),
    DeleteRange(u64, u64),
    SecondaryDelete(u64, u64),
    Flush,
}

fn delete_key_of(sort_key: u64, key_space: u64) -> u64 {
    sort_key.wrapping_mul(31) % key_space
}

fn mutation_strategy(key_space: u64) -> impl Strategy<Value = Mutation> {
    prop_oneof![
        6 => (0..key_space, any::<u8>()).prop_map(|(k, v)| Mutation::Put(k, v)),
        2 => (0..key_space).prop_map(Mutation::Delete),
        1 => (0..key_space, 1..(key_space / 4).max(2)).prop_map(|(s, len)| Mutation::DeleteRange(s, s + len)),
        1 => (0..key_space, 1..(key_space / 4).max(2)).prop_map(|(s, len)| Mutation::SecondaryDelete(s, s + len)),
        1 => Just(Mutation::Flush),
    ]
}

fn tiny_config(merge_policy: MergePolicy, h: usize) -> LsmConfig {
    let mut cfg = LsmConfig::small_for_test();
    cfg.merge_policy = merge_policy;
    cfg.pages_per_delete_tile = h;
    cfg.max_pages_per_file = (8usize).max(h);
    if !cfg.max_pages_per_file.is_multiple_of(h) {
        cfg.max_pages_per_file = cfg.max_pages_per_file.div_ceil(h) * h;
    }
    cfg.secondary_delete_mode = SecondaryDeleteMode::KiwiPageDrops;
    cfg.key_domain = 1 << 16;
    cfg
}

/// Applies the mutations to an engine and a `BTreeMap` oracle and checks that
/// every key of the key space agrees afterwards.
fn check_against_oracle(cfg: LsmConfig, dth_secs: f64, ops: &[Mutation], key_space: u64) {
    let mut db = LetheBuilder::new()
        .with_config(cfg)
        .delete_persistence_threshold_secs(dth_secs)
        .build()
        .unwrap();
    let mut oracle: BTreeMap<u64, (u64, Vec<u8>)> = BTreeMap::new();
    for op in ops {
        match op {
            Mutation::Put(k, v) => {
                let d = delete_key_of(*k, key_space);
                let value = vec![*v; 9];
                db.put(*k, d, value.clone()).unwrap();
                oracle.insert(*k, (d, value));
            }
            Mutation::Delete(k) => {
                db.delete(*k).unwrap();
                oracle.remove(k);
            }
            Mutation::DeleteRange(s, e) => {
                db.delete_range(*s, *e).unwrap();
                let victims: Vec<u64> = oracle.range(*s..*e).map(|(k, _)| *k).collect();
                for k in victims {
                    oracle.remove(&k);
                }
            }
            Mutation::SecondaryDelete(s, e) => {
                db.delete_where_delete_key_in(*s, *e).unwrap();
                let victims: Vec<u64> =
                    oracle.iter().filter(|(_, (d, _))| d >= s && d < e).map(|(k, _)| *k).collect();
                for k in victims {
                    oracle.remove(&k);
                }
            }
            Mutation::Flush => {
                db.persist().unwrap();
            }
        }
    }
    db.persist().unwrap();
    for k in 0..key_space {
        let expected = oracle.get(&k).map(|(_, v)| v.clone());
        let got = db.get(k).unwrap().map(|b| b.to_vec());
        assert_eq!(got, expected, "key {k} disagrees with the oracle");
    }
    // a full scan returns exactly the oracle's live keys, in order
    let scan: Vec<u64> = db.range(0, key_space).unwrap().into_iter().map(|(k, _)| k).collect();
    let expected: Vec<u64> = oracle.keys().copied().collect();
    assert_eq!(scan, expected);
}

/// Drives a block-cache-enabled store and an uncached one through the same
/// mutation history and checks they are **observationally identical**: every
/// point lookup (spot-checked while the history is still being applied, and
/// exhaustively at the end), the full range scan and a secondary
/// (delete-key) scan must agree. The cache is sized to a few pages so
/// eviction churns constantly, and writes are warmed so freshly flushed
/// pages enter the cache right before compactions retire them — the
/// sequence that would expose a missed `drop_page` invalidation (a stale
/// page resurrected from cache) as a divergence.
fn check_cached_matches_uncached(ops: &[Mutation], key_space: u64, cache_bytes: usize) {
    let cfg = tiny_config(MergePolicy::Leveling, 2);
    let build = |cache: usize| {
        LetheBuilder::new()
            .with_config(cfg.clone())
            .delete_persistence_threshold_secs(1.0)
            .block_cache_bytes(cache)
            .warm_block_cache_on_write(cache > 0)
            .build()
            .unwrap()
    };
    let mut cached = build(cache_bytes);
    let mut plain = build(0);
    for (i, op) in ops.iter().enumerate() {
        match op {
            Mutation::Put(k, v) => {
                let d = delete_key_of(*k, key_space);
                cached.put(*k, d, vec![*v; 9]).unwrap();
                plain.put(*k, d, vec![*v; 9]).unwrap();
            }
            Mutation::Delete(k) => {
                cached.delete(*k).unwrap();
                plain.delete(*k).unwrap();
            }
            Mutation::DeleteRange(s, e) => {
                cached.delete_range(*s, *e).unwrap();
                plain.delete_range(*s, *e).unwrap();
            }
            Mutation::SecondaryDelete(s, e) => {
                cached.delete_where_delete_key_in(*s, *e).unwrap();
                plain.delete_where_delete_key_in(*s, *e).unwrap();
            }
            Mutation::Flush => {
                cached.persist().unwrap();
                plain.persist().unwrap();
            }
        }
        // spot-check mid-history so a stale cached page is caught near the
        // mutation that should have invalidated it, not at the very end
        if i % 16 == 0 {
            for probe in 0..8u64 {
                let k = (i as u64).wrapping_mul(13).wrapping_add(probe * 29) % key_space;
                assert_eq!(cached.get(k).unwrap(), plain.get(k).unwrap(), "key {k} after op {i}");
            }
        }
    }
    cached.persist().unwrap();
    plain.persist().unwrap();
    for k in 0..key_space {
        assert_eq!(cached.get(k).unwrap(), plain.get(k).unwrap(), "key {k} diverged");
    }
    // the equivalence must have been tested *through* the cache, not
    // vacuously against an inert one: every written page is warm-inserted
    // (all pages fit one stripe at this budget), and an immediate re-read
    // of a live key must be served from cache
    let snap = cached.cache_snapshot().expect("cache configured");
    if cached.io_snapshot().pages_written > 0 {
        assert!(snap.insertions > 0, "pages were written but never cached: {snap:?}");
    }
    if let Some(k) = (0..key_space).find(|k| plain.get(*k).unwrap().is_some()) {
        // persist() drained the buffers, so a live key is on disk: the
        // first read makes its page resident, the immediate second read
        // (nothing inserted in between) must hit
        cached.get(k).unwrap();
        let before = cached.io_snapshot();
        cached.get(k).unwrap();
        let delta = cached.io_snapshot().since(&before);
        assert!(delta.cache_hits > 0, "immediate re-read of key {k} missed the cache");
    }
    assert_eq!(
        cached.range(0, key_space).unwrap(),
        plain.range(0, key_space).unwrap(),
        "range scans diverged"
    );
    assert_eq!(
        cached.scan_by_delete_key(0, key_space).unwrap(),
        plain.scan_by_delete_key(0, key_space).unwrap(),
        "secondary scans diverged"
    );
}

/// Drives a tiered-strategy engine and a default-policy one through the same
/// mutation history and checks they are **observationally identical**: every
/// point lookup (spot-checked while the history is still being applied, and
/// exhaustively at the end), the full range scan and the secondary
/// (delete-key) scan must agree byte for byte. Compaction strategies
/// reorganise files differently — size classes for size-tiered, aligned
/// time windows for date-tiered — but must never change what a reader sees.
/// Date-tiered runs with its TTL off here: whole-file drops are
/// *intentional* data loss, so they are exercised separately
/// (`tests/compaction_strategies.rs`), not in an equivalence harness.
fn check_strategy_matches_default(
    strategy: lethe::CompactionStrategy,
    ops: &[Mutation],
    key_space: u64,
) {
    let build = |strategy: lethe::CompactionStrategy| {
        LetheBuilder::new()
            .with_config(tiny_config(MergePolicy::Leveling, 2))
            .delete_persistence_threshold_secs(1.0)
            .compaction_strategy(strategy)
            .build()
            .unwrap()
    };
    let mut tiered = build(strategy);
    let mut plain = build(lethe::CompactionStrategy::Default);
    for (i, op) in ops.iter().enumerate() {
        match op {
            Mutation::Put(k, v) => {
                let d = delete_key_of(*k, key_space);
                tiered.put(*k, d, vec![*v; 9]).unwrap();
                plain.put(*k, d, vec![*v; 9]).unwrap();
            }
            Mutation::Delete(k) => {
                tiered.delete(*k).unwrap();
                plain.delete(*k).unwrap();
            }
            Mutation::DeleteRange(s, e) => {
                tiered.delete_range(*s, *e).unwrap();
                plain.delete_range(*s, *e).unwrap();
            }
            Mutation::SecondaryDelete(s, e) => {
                tiered.delete_where_delete_key_in(*s, *e).unwrap();
                plain.delete_where_delete_key_in(*s, *e).unwrap();
            }
            Mutation::Flush => {
                tiered.persist().unwrap();
                plain.persist().unwrap();
            }
        }
        // spot-check mid-history so a divergence is caught near the
        // compaction that introduced it, not at the very end
        if i % 16 == 0 {
            for probe in 0..8u64 {
                let k = (i as u64).wrapping_mul(13).wrapping_add(probe * 29) % key_space;
                assert_eq!(tiered.get(k).unwrap(), plain.get(k).unwrap(), "key {k} after op {i}");
            }
        }
    }
    tiered.persist().unwrap();
    plain.persist().unwrap();
    for k in 0..key_space {
        assert_eq!(tiered.get(k).unwrap(), plain.get(k).unwrap(), "key {k} diverged");
    }
    assert_eq!(
        tiered.range(0, key_space).unwrap(),
        plain.range(0, key_space).unwrap(),
        "range scans diverged"
    );
    assert_eq!(
        tiered.scan_by_delete_key(0, key_space).unwrap(),
        plain.scan_by_delete_key(0, key_space).unwrap(),
        "secondary scans diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// A size-tiered store answers every query exactly like the default
    /// FADE-policy store across random put/delete/secondary-delete/flush
    /// histories — the strategy changes the file layout, never the data.
    #[test]
    fn size_tiered_store_is_observationally_identical(
        ops in prop::collection::vec(mutation_strategy(256), 1..400),
        fan_in in 2usize..5,
    ) {
        check_strategy_matches_default(
            lethe::CompactionStrategy::SizeTiered { fan_in },
            &ops,
            256,
        );
    }

    /// Same for a date-tiered store with retention disabled: window-bucketed
    /// merging must be invisible to readers.
    #[test]
    fn date_tiered_store_is_observationally_identical(
        ops in prop::collection::vec(mutation_strategy(256), 1..400),
        fan_in in 2usize..5,
        base_window in 1u64..1_000_000,
    ) {
        check_strategy_matches_default(
            lethe::CompactionStrategy::DateTiered {
                base_window_micros: base_window,
                fan_in,
                ttl_micros: None,
            },
            &ops,
            256,
        );
    }
}

/// A durable-engine step: a regular mutation or a restart point (drop the
/// engine mid-history and reopen it from its directory).
#[derive(Debug, Clone)]
enum DurableOp {
    Mutate(Mutation),
    Restart,
}

fn durable_op_strategy(key_space: u64) -> impl Strategy<Value = DurableOp> {
    prop_oneof![
        10 => mutation_strategy(key_space).prop_map(DurableOp::Mutate),
        1 => Just(DurableOp::Restart),
    ]
}

/// Like [`check_against_oracle`] but for the durable (file-backed) engine,
/// with restarts interleaved at arbitrary points: every acknowledged
/// mutation must survive every restart, whether it sat in the write buffer
/// (WAL replay) or had been flushed/compacted (manifest recovery).
fn check_durable_against_oracle(ops: &[DurableOp], key_space: u64) {
    use std::sync::atomic::{AtomicU64, Ordering};
    static CASE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "lethe-prop-durable-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = tiny_config(MergePolicy::Leveling, 2);
    // in-process restarts lose nothing unsynced, so the relaxed policy just
    // keeps the fuzz fast
    cfg.wal_sync = lethe::storage::SyncPolicy::OnFlush;
    let reopen = |cfg: &LsmConfig| {
        LetheBuilder::new()
            .with_config(cfg.clone())
            .delete_persistence_threshold_secs(1.0)
            .open(&dir)
            .unwrap()
    };
    let mut db = reopen(&cfg);
    let mut oracle: BTreeMap<u64, (u64, Vec<u8>)> = BTreeMap::new();
    for op in ops {
        match op {
            DurableOp::Mutate(Mutation::Put(k, v)) => {
                let d = delete_key_of(*k, key_space);
                let value = vec![*v; 9];
                db.put(*k, d, value.clone()).unwrap();
                oracle.insert(*k, (d, value));
            }
            DurableOp::Mutate(Mutation::Delete(k)) => {
                db.delete(*k).unwrap();
                oracle.remove(k);
            }
            DurableOp::Mutate(Mutation::DeleteRange(s, e)) => {
                db.delete_range(*s, *e).unwrap();
                let victims: Vec<u64> = oracle.range(*s..*e).map(|(k, _)| *k).collect();
                for k in victims {
                    oracle.remove(&k);
                }
            }
            DurableOp::Mutate(Mutation::SecondaryDelete(s, e)) => {
                db.delete_where_delete_key_in(*s, *e).unwrap();
                let victims: Vec<u64> =
                    oracle.iter().filter(|(_, (d, _))| d >= s && d < e).map(|(k, _)| *k).collect();
                for k in victims {
                    oracle.remove(&k);
                }
            }
            DurableOp::Mutate(Mutation::Flush) => {
                db.persist().unwrap();
            }
            DurableOp::Restart => {
                drop(db);
                db = reopen(&cfg);
            }
        }
    }
    // one final restart so the end state is checked through recovery too
    drop(db);
    let db = reopen(&cfg);
    for k in 0..key_space {
        let expected = oracle.get(&k).map(|(_, v)| v.clone());
        let got = db.get(k).unwrap().map(|b| b.to_vec());
        assert_eq!(got, expected, "key {k} disagrees with the oracle after restarts");
    }
    let scan: Vec<u64> = db.range(0, key_space).unwrap().into_iter().map(|(k, _)| k).collect();
    let expected: Vec<u64> = oracle.keys().copied().collect();
    assert_eq!(scan, expected);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn lethe_leveling_matches_oracle(ops in prop::collection::vec(mutation_strategy(256), 1..400)) {
        check_against_oracle(tiny_config(MergePolicy::Leveling, 2), 1.0, &ops, 256);
    }

    #[test]
    fn lethe_tiering_matches_oracle(ops in prop::collection::vec(mutation_strategy(256), 1..400)) {
        check_against_oracle(tiny_config(MergePolicy::Tiering, 1), 1.0, &ops, 256);
    }

    #[test]
    fn lethe_wide_tiles_match_oracle(ops in prop::collection::vec(mutation_strategy(128), 1..300)) {
        check_against_oracle(tiny_config(MergePolicy::Leveling, 8), 0.2, &ops, 128);
    }

    /// A store reading through an eviction-heavy block cache answers every
    /// query exactly like an uncached one across random put/delete/
    /// secondary-delete/flush/compact interleavings (the cache is an
    /// optimisation, never a semantic change), and `drop_page`/deferred-
    /// reclamation invalidation never lets a retired page resurface.
    #[test]
    fn cached_store_is_observationally_identical(
        ops in prop::collection::vec(mutation_strategy(256), 1..400),
    ) {
        // a single ~2 KiB stripe holds only a handful of pages, so every
        // flush/compaction churns the cache through eviction
        check_cached_matches_uncached(&ops, 256, 2048);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// The durable engine agrees with the oracle across random restart
    /// points (manifest recovery + WAL replay end to end).
    #[test]
    fn durable_engine_matches_oracle_across_restarts(
        ops in prop::collection::vec(durable_op_strategy(128), 1..250),
    ) {
        check_durable_against_oracle(&ops, 128);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Bloom filters never produce false negatives.
    #[test]
    fn bloom_has_no_false_negatives(keys in prop::collection::hash_set(any::<u64>(), 1..500),
                                    bits in 2.0f64..16.0) {
        let mut bf = BloomFilter::new(keys.len(), bits);
        for &k in &keys {
            bf.insert(k);
        }
        for &k in &keys {
            prop_assert!(bf.may_contain(k));
        }
    }

    /// Page search agrees with a linear scan for every stored key.
    #[test]
    fn page_get_agrees_with_linear_scan(keys in prop::collection::vec(0u64..1000, 1..64)) {
        let entries: Vec<Entry> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| Entry::put(k, k, i as u64 + 1, Bytes::from(vec![0u8; 4])))
            .collect();
        let page = Page::new(entries.clone());
        for &k in &keys {
            let newest = entries
                .iter()
                .filter(|e| e.sort_key == k)
                .max_by_key(|e| e.seqnum)
                .unwrap();
            prop_assert_eq!(page.get(k).unwrap().seqnum, newest.seqnum);
        }
        prop_assert!(page.get(2000).is_none());
    }

    /// Page encode/decode round-trips arbitrary entry mixes.
    #[test]
    fn page_codec_roundtrip(specs in prop::collection::vec((any::<u64>(), any::<u64>(), 0u8..3, 0usize..32), 0..48)) {
        let entries: Vec<Entry> = specs
            .iter()
            .enumerate()
            .map(|(i, (k, d, kind, len))| match kind {
                0 => Entry::put(*k, *d, i as u64, Bytes::from(vec![7u8; *len])),
                1 => Entry::point_tombstone(*k, i as u64),
                _ => Entry::range_tombstone(*k, k.saturating_add(10), i as u64),
            })
            .collect();
        let page = Page::new(entries);
        let decoded = Page::decode(page.encode()).unwrap();
        prop_assert_eq!(decoded, page);
    }

    /// The memtable behaves like a map with latest-write-wins semantics.
    #[test]
    fn memtable_latest_write_wins(writes in prop::collection::vec((0u64..64, any::<u8>()), 1..200)) {
        let mut m = MemTable::new();
        let mut model: BTreeMap<u64, u8> = BTreeMap::new();
        for (seq, (k, v)) in writes.iter().enumerate() {
            m.put(*k, 0, seq as u64 + 1, Bytes::from(vec![*v]));
            model.insert(*k, *v);
        }
        for (k, v) in &model {
            let entry = m.get(*k).unwrap();
            prop_assert_eq!(entry.value.as_ref(), &[*v][..]);
        }
        prop_assert_eq!(m.len(), model.len());
    }

    /// Histogram range estimates never exceed the total and are exact over
    /// the full domain.
    #[test]
    fn histogram_estimates_are_bounded(keys in prop::collection::vec(0u64..10_000, 1..500),
                                       lo in 0u64..10_000, len in 1u64..5_000) {
        let mut h = Histogram::new(0, 10_000, 32);
        for &k in &keys {
            h.add(k);
        }
        let est = h.estimate_range(lo, lo + len);
        prop_assert!(est >= -1e-9);
        prop_assert!(est <= keys.len() as f64 + 1e-9);
        let full = h.estimate_range(0, 10_000);
        prop_assert!((full - keys.len() as f64).abs() < 1e-6);
    }

    /// FADE's TTL allocation always sums to Dth, is increasing, and assigns
    /// exponentially growing per-level shares.
    #[test]
    fn fade_ttls_always_sum_to_dth(dth in 1_000u64..10_000_000, t in 2usize..12, levels in 1usize..8) {
        let ttls = level_ttls(dth, t, levels);
        prop_assert_eq!(ttls.len(), levels);
        prop_assert_eq!(*ttls.last().unwrap(), dth);
        prop_assert!(ttls.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(ttls[0] >= 1 || dth < levels as u64);
    }
}

/// A put of `k` with delete key `d`, or, for about `tombstone_pct` % of the
/// keys, a point tombstone of `k` (delete key 0).
fn put_or_tombstone(k: u64, d: u64, tombstone_pct: u64) -> Entry {
    if k.wrapping_mul(0x2545_F491) % 100 < tombstone_pct {
        Entry::point_tombstone(k, k + 1)
    } else {
        Entry::put(k, d, k + 1, Bytes::from(vec![1u8; 8]))
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The KiWi construction preserves its structural invariants for any
    /// entry set and tile granularity: tiles ordered on the sort key, pages
    /// inside a tile ordered on the delete key, entries inside a page ordered
    /// on the sort key, and no entry lost. Point tombstones are mixed in, so
    /// tiles hold pages of tombstones only, whose fence is empty.
    #[test]
    fn kiwi_layout_invariants_hold(
        keys in prop::collection::btree_set(0u64..50_000, 1..600),
        h in 1usize..16,
        tombstone_pct in 0u64..60,
    ) {
        let mut cfg = LsmConfig::small_for_test();
        cfg.pages_per_delete_tile = h;
        cfg.max_pages_per_file = h * 64; // one file
        let backend = FileBackend::in_memory().unwrap();
        let entries: Vec<Entry> = keys
            .iter()
            .map(|&k| put_or_tombstone(k, k.wrapping_mul(0x9E37_79B9) % 100_000, tombstone_pct))
            .collect();
        let table = SsTable::build(1, entries.clone(), vec![], 0, None, &cfg, &backend).unwrap();

        // tiles are ordered and non-overlapping on the sort key
        for w in table.tiles.windows(2) {
            prop_assert!(w[0].max_sort < w[1].min_sort);
        }
        let mut seen = 0usize;
        for tile in &table.tiles {
            for w in tile.pages.windows(2) {
                prop_assert!(w[0].delete_fence.max <= w[1].delete_fence.min);
            }
            for handle in &tile.pages {
                let page = backend.read_page(handle.id).unwrap();
                let sort_keys: Vec<u64> = page.sort_keys().collect();
                let mut sorted = sort_keys.clone();
                sorted.sort_unstable();
                prop_assert_eq!(&sort_keys, &sorted);
                seen += page.len();
            }
        }
        prop_assert_eq!(seen, entries.len());

        // every key is findable through the fence + filter + page path
        let stats = lethe::storage::IoStats::new_shared();
        for e in entries.iter().take(50) {
            let found = table.get(e.sort_key, &backend, &stats).unwrap();
            prop_assert_eq!(found.unwrap().sort_key, e.sort_key);
        }
    }

    /// A secondary range delete removes exactly the qualifying live entries,
    /// never touches others (every tombstone survives), and reads exactly
    /// the pages it rewrites or finds unchanged: full drops never read.
    #[test]
    fn secondary_delete_partitions_by_delete_key(
        keys in prop::collection::btree_set(0u64..10_000, 10..300),
        h in 1usize..12,
        lo in 0u64..5_000,
        len in 1u64..5_000,
        tombstone_pct in 0u64..60,
    ) {
        let mut cfg = LsmConfig::small_for_test();
        cfg.pages_per_delete_tile = h;
        cfg.max_pages_per_file = h * 64;
        let backend = FileBackend::in_memory().unwrap();
        let entries: Vec<Entry> = keys
            .iter()
            .map(|&k| put_or_tombstone(k, (k * 31) % 10_000, tombstone_pct))
            .collect();
        let table = SsTable::build(1, entries.clone(), vec![], 0, None, &cfg, &backend).unwrap();
        let hi = lo + len;
        let reads_before = backend.stats().snapshot().pages_read;
        let (survivor, stats, obsolete) =
            table.secondary_range_delete(lo, hi, &cfg, &backend, 1).unwrap();
        // page drops are deferred to the caller (version-set garbage)
        prop_assert_eq!(obsolete.len() as u64, stats.full_page_drops + stats.partial_page_drops);
        #[expect(clippy::disallowed_methods, reason = "plays the version set's garbage pass")]
        for id in &obsolete {
            backend.drop_page(*id).unwrap();
        }
        let reads = backend.stats().snapshot().pages_read - reads_before;
        // full drops never read; a page read is either rewritten or found to
        // hold no qualifying put (a fence miss) and kept as it was
        prop_assert_eq!(reads, stats.partial_page_drops + stats.pages_read_unchanged);
        let doomed = |e: &Entry| !e.is_tombstone() && e.delete_key >= lo && e.delete_key < hi;
        let expected_deleted = entries.iter().filter(|e| doomed(e)).count() as u64;
        prop_assert_eq!(stats.entries_deleted, expected_deleted);
        let remaining: Vec<Entry> = match &survivor {
            Some(t) => t.read_all_entries(&backend).unwrap(),
            None => Vec::new(),
        };
        prop_assert_eq!(remaining.len() as u64, entries.len() as u64 - expected_deleted);
        prop_assert!(remaining.iter().all(|e| !doomed(e)));
        let tombstones = |es: &[Entry]| es.iter().filter(|e| e.is_tombstone()).count();
        prop_assert_eq!(tombstones(&remaining), tombstones(&entries));
    }

    /// Under a pure-insert workload the baseline and Lethe answer every
    /// query identically (the "no deletes ⇒ identical behaviour" claim).
    #[test]
    fn no_deletes_means_identical_answers(keys in prop::collection::vec(0u64..2_000, 50..400)) {
        let cfg = tiny_config(MergePolicy::Leveling, 1);
        let mut baseline = LsmTree::in_memory(
            cfg.clone(),
            Box::new(SaturationPolicy::new(FileSelection::MinOverlap)),
        )
        .unwrap();
        let mut lethe = LetheBuilder::new()
            .with_config(cfg)
            .delete_persistence_threshold_secs(0.5)
            .build()
            .unwrap();
        for (i, &k) in keys.iter().enumerate() {
            let v = Bytes::from(format!("v{i}"));
            baseline.put(k, k, v.clone()).unwrap();
            lethe.put(k, k, v).unwrap();
        }
        baseline.flush().unwrap();
        baseline.maintain().unwrap();
        lethe.persist().unwrap();
        for k in 0..2_000u64 {
            prop_assert_eq!(baseline.get(k).unwrap(), lethe.get(k).unwrap());
        }
    }
}

/// One step of the batch-atomicity history: an atomic [`WriteBatch`]
/// rewriting every key of one group with the group's next generation tag,
/// an atomic batch deleting the whole group, or a persist (flush +
/// compaction churn between batches).
#[derive(Debug, Clone)]
enum BatchStep {
    WriteGroup(usize),
    DeleteGroup(usize),
    Persist,
}

fn batch_step_strategy(groups: usize) -> impl Strategy<Value = BatchStep> {
    prop_oneof![
        6 => (0..groups).prop_map(BatchStep::WriteGroup),
        2 => (0..groups).prop_map(BatchStep::DeleteGroup),
        1 => Just(BatchStep::Persist),
    ]
}

const BATCH_GROUPS: usize = 8;
const GROUP_KEYS: u64 = 8;
const BATCH_KEY_SPACE: u64 = BATCH_GROUPS as u64 * GROUP_KEYS;

/// Key `j` of `group`: groups are interleaved across the sort-key space
/// (adjacent sort keys belong to different groups), so one group's keys
/// scatter across pages and files and a batch is never "atomic" merely by
/// sitting in one page.
fn group_key(group: usize, j: u64) -> u64 {
    j * BATCH_GROUPS as u64 + group as u64
}

fn group_of(key: u64) -> usize {
    (key % BATCH_GROUPS as u64) as usize
}

/// Write-batch atomicity as seen by live readers: a writer applies the
/// scripted history of whole-group batches (every key of a group written
/// with one shared generation tag, or the whole group deleted) against a
/// single-shard store while a concurrent reader continuously
///
/// * scans `iter_range` — a pinned snapshot, so every group it returns must
///   be **complete and uniformly tagged** (a partial group or a mix of tags
///   is a torn batch), with the tag per group non-decreasing from scan to
///   scan, and
/// * probes point `get`s — each key's tag must be monotone over time
///   (a regression means a reader observed a batch un-apply).
///
/// The store's buffer is tiny, so the history crosses flush and compaction
/// churn constantly; the single-shard scope is deliberate (multi-shard
/// scans are the documented weakly-consistent fan-out).
fn check_batches_are_atomic_to_readers(steps: &[BatchStep]) {
    let db = ShardedLetheBuilder::from_builder(
        LetheBuilder::new()
            .buffer(8, 4, 64)
            .size_ratio(4)
            .delete_tile_pages(2)
            .delete_persistence_threshold_secs(1.0),
    )
    .shards(1)
    .build()
    .unwrap();
    let tag_of = |value: &[u8]| u64::from_le_bytes(value[..8].try_into().unwrap());
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let db = &db;
        let done = &done;
        let reader = s.spawn(move || {
            let mut last_scan_tag = [0u64; BATCH_GROUPS];
            let mut last_key_tag: BTreeMap<u64, u64> = BTreeMap::new();
            // keep reading one extra pass after the writer finishes so the
            // final history suffix is observed too
            let mut final_pass = false;
            loop {
                let mut by_group: Vec<Vec<(u64, u64)>> = vec![Vec::new(); BATCH_GROUPS];
                for item in db.iter_range(0, BATCH_KEY_SPACE) {
                    let (k, v) = item.unwrap();
                    by_group[group_of(k)].push((k, tag_of(&v)));
                }
                for (g, entries) in by_group.iter().enumerate() {
                    if entries.is_empty() {
                        continue;
                    }
                    assert_eq!(
                        entries.len(),
                        GROUP_KEYS as usize,
                        "torn batch: a pinned scan saw only part of group {g}: {entries:?}"
                    );
                    let tag = entries[0].1;
                    assert!(
                        entries.iter().all(|(_, t)| *t == tag),
                        "torn batch: group {g} mixes generation tags: {entries:?}"
                    );
                    assert!(
                        tag >= last_scan_tag[g],
                        "group {g} went back in time: scan saw tag {tag} after {}",
                        last_scan_tag[g]
                    );
                    last_scan_tag[g] = tag;
                }
                for k in 0..BATCH_KEY_SPACE {
                    if let Some(v) = db.get(k).unwrap() {
                        let tag = tag_of(&v);
                        let seen = last_key_tag.entry(k).or_insert(tag);
                        assert!(
                            tag >= *seen,
                            "key {k} went back in time: get saw tag {tag} after {seen}"
                        );
                        *seen = tag;
                    }
                }
                if final_pass {
                    return;
                }
                final_pass = done.load(Ordering::Acquire);
            }
        });
        let mut generation = 0u64;
        let mut live = [false; BATCH_GROUPS];
        for step in steps {
            match step {
                BatchStep::WriteGroup(g) => {
                    generation += 1;
                    let mut batch = WriteBatch::new();
                    for j in 0..GROUP_KEYS {
                        let k = group_key(*g, j);
                        let mut value = generation.to_le_bytes().to_vec();
                        value.push(0); // match the 9-byte payloads used elsewhere
                        batch.put(k, delete_key_of(k, BATCH_KEY_SPACE), value);
                    }
                    db.write(batch).unwrap();
                    live[*g] = true;
                }
                BatchStep::DeleteGroup(g) => {
                    let mut batch = WriteBatch::new();
                    for j in 0..GROUP_KEYS {
                        batch.delete(group_key(*g, j));
                    }
                    db.write(batch).unwrap();
                    live[*g] = false;
                }
                BatchStep::Persist => db.persist().unwrap(),
            }
        }
        done.store(true, Ordering::Release);
        reader.join().unwrap();
        // final audit: exactly the groups whose last batch was a write are
        // present, each complete
        let mut by_group: Vec<Vec<u64>> = vec![Vec::new(); BATCH_GROUPS];
        for item in db.iter_range(0, BATCH_KEY_SPACE) {
            let (k, _) = item.unwrap();
            by_group[group_of(k)].push(k);
        }
        for (g, keys) in by_group.iter().enumerate() {
            let expected: Vec<u64> =
                if live[g] { (0..GROUP_KEYS).map(|j| group_key(g, j)).collect() } else { Vec::new() };
            assert_eq!(keys, &expected, "group {g} final state diverged");
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Live readers observe every [`WriteBatch`] entirely or not at all —
    /// pinned `iter_range` snapshots never return a partial or mixed-tag
    /// group, and point reads never regress — across constant flush and
    /// compaction churn.
    #[test]
    fn write_batches_are_atomic_to_live_readers(
        steps in prop::collection::vec(batch_step_strategy(BATCH_GROUPS), 10..80),
    ) {
        check_batches_are_atomic_to_readers(&steps);
    }
}

/// One step of the snapshot-consistency history: a plain mutation, an
/// atomic multi-key write batch, or a full maintenance pass (flush plus
/// FADE compaction churn).
#[derive(Debug, Clone)]
enum SnapOp {
    Mutate(Mutation),
    Batch(Vec<(u64, u8)>),
    Maintain,
}

fn snap_op_strategy(key_space: u64) -> impl Strategy<Value = SnapOp> {
    prop_oneof![
        8 => mutation_strategy(key_space).prop_map(SnapOp::Mutate),
        2 => prop::collection::vec((0..key_space, any::<u8>()), 1..6).prop_map(SnapOp::Batch),
        1 => Just(SnapOp::Maintain),
    ]
}

/// Applies one step to the store and a `BTreeMap` oracle in lockstep.
fn apply_snap_op(
    db: &ShardedLethe,
    oracle: &mut BTreeMap<u64, (u64, Vec<u8>)>,
    op: &SnapOp,
    key_space: u64,
) {
    match op {
        SnapOp::Mutate(Mutation::Put(k, v)) => {
            let d = delete_key_of(*k, key_space);
            let value = vec![*v; 9];
            db.put(*k, d, value.clone()).unwrap();
            oracle.insert(*k, (d, value));
        }
        SnapOp::Mutate(Mutation::Delete(k)) => {
            db.delete(*k).unwrap();
            oracle.remove(k);
        }
        SnapOp::Mutate(Mutation::DeleteRange(s, e)) => {
            db.delete_range(*s, *e).unwrap();
            let victims: Vec<u64> = oracle.range(*s..*e).map(|(k, _)| *k).collect();
            for k in victims {
                oracle.remove(&k);
            }
        }
        SnapOp::Mutate(Mutation::SecondaryDelete(s, e)) => {
            db.delete_where_delete_key_in(*s, *e).unwrap();
            let victims: Vec<u64> =
                oracle.iter().filter(|(_, (d, _))| d >= s && d < e).map(|(k, _)| *k).collect();
            for k in victims {
                oracle.remove(&k);
            }
        }
        SnapOp::Mutate(Mutation::Flush) => db.persist().unwrap(),
        SnapOp::Batch(writes) => {
            let mut batch = WriteBatch::new();
            for (k, v) in writes {
                let d = delete_key_of(*k, key_space);
                let value = vec![*v; 9];
                batch.put(*k, d, value.clone());
                oracle.insert(*k, (d, value));
            }
            db.write(batch).unwrap();
        }
        SnapOp::Maintain => db.maintain().unwrap(),
    }
}

/// Takes a [`lethe::Snapshot`] mid-history and checks it stays
/// byte-identical to the oracle frozen at snapshot time while the live
/// store keeps mutating, flushing and compacting underneath it — every
/// read surface: point gets, the materialised range scan, the streaming
/// `iter_range` cursor and the secondary (delete-key) index scan. The live
/// store must meanwhile agree with the *live* oracle, so the snapshot is a
/// frozen view, not a stalled store.
fn check_snapshot_freezes_the_view(shards: usize, pre: &[SnapOp], post: &[SnapOp], key_space: u64) {
    let db = ShardedLetheBuilder::from_builder(
        LetheBuilder::new()
            .buffer(8, 4, 64)
            .size_ratio(4)
            .delete_tile_pages(2)
            .delete_persistence_threshold_secs(1.0),
    )
    .shards(shards)
    .build()
    .unwrap();
    let mut oracle: BTreeMap<u64, (u64, Vec<u8>)> = BTreeMap::new();
    for op in pre {
        apply_snap_op(&db, &mut oracle, op, key_space);
    }
    let snapshot = db.snapshot();
    let frozen = oracle.clone();
    for op in post {
        apply_snap_op(&db, &mut oracle, op, key_space);
    }
    db.persist().unwrap();

    // point reads at the snapshot: byte-identical to the frozen oracle
    for k in 0..key_space {
        let expected = frozen.get(&k).map(|(_, v)| v.clone());
        let got = snapshot.get(k).unwrap().map(|b| b.to_vec());
        assert_eq!(got, expected, "snapshot get({k}) diverged from the frozen oracle");
    }
    // materialised and streamed range scans agree with the frozen oracle
    let expected: Vec<(u64, Vec<u8>)> = frozen.iter().map(|(k, (_, v))| (*k, v.clone())).collect();
    let ranged: Vec<(u64, Vec<u8>)> =
        snapshot.range(0, key_space).unwrap().into_iter().map(|(k, v)| (k, v.to_vec())).collect();
    assert_eq!(ranged, expected, "snapshot range scan diverged from the frozen oracle");
    let streamed: Vec<(u64, Vec<u8>)> = snapshot
        .iter_range(0, key_space)
        .unwrap()
        .map(|item| item.map(|(k, v)| (k, v.to_vec())).unwrap())
        .collect();
    assert_eq!(streamed, expected, "snapshot streamed scan diverged from the materialised one");
    // the secondary (delete-key) index view is frozen too
    let span = (key_space / 2).max(1);
    let expected_secondary: Vec<u64> =
        frozen.iter().filter(|(_, (d, _))| *d < span).map(|(k, _)| *k).collect();
    let got_secondary: Vec<u64> = snapshot
        .scan_by_delete_key(0, span)
        .unwrap()
        .into_iter()
        .map(|e| e.sort_key)
        .collect();
    assert_eq!(got_secondary, expected_secondary, "snapshot secondary scan diverged");
    // the live store moved on with the live oracle
    for k in 0..key_space {
        let expected = oracle.get(&k).map(|(_, v)| v.clone());
        assert_eq!(db.get(k).unwrap().map(|b| b.to_vec()), expected, "live get({k}) diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Reads through a held snapshot stay byte-identical to an oracle frozen
    /// at snapshot time under random interleavings of puts, batches, point
    /// and range deletes, secondary range deletes, flushes and compactions
    /// applied to the live store afterwards — single-shard…
    #[test]
    fn snapshot_reads_are_frozen_single_shard(
        pre in prop::collection::vec(snap_op_strategy(128), 1..120),
        post in prop::collection::vec(snap_op_strategy(128), 1..120),
    ) {
        check_snapshot_freezes_the_view(1, &pre, &post, 128);
    }

    /// …and across a 3-shard store, where the seqnum fence must cut every
    /// shard at the same instant.
    #[test]
    fn snapshot_reads_are_frozen_three_shards(
        pre in prop::collection::vec(snap_op_strategy(128), 1..120),
        post in prop::collection::vec(snap_op_strategy(128), 1..120),
    ) {
        check_snapshot_freezes_the_view(3, &pre, &post, 128);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// FADE's core invariant (paper §4.1) survives the move to *background*
    /// scheduling: tombstone-TTL-driven compactions now run on per-shard
    /// worker threads, but after quiescing the workers no file in any shard
    /// may still hold a tombstone older than the delete persistence
    /// threshold `D_th` — asserted through the tombstone-age watermarks of
    /// the content snapshot, exactly as the paper defines delete
    /// persistence.
    #[test]
    fn background_scheduling_preserves_ttl_guarantee(
        ops in prop::collection::vec(mutation_strategy(256), 40..200),
        dth_secs in 1.0f64..8.0,
        shards in 1usize..4,
    ) {
        let db = ShardedLetheBuilder::from_builder(
            LetheBuilder::new()
                .buffer(8, 4, 64)
                .size_ratio(4)
                .delete_tile_pages(2)
                .delete_persistence_threshold_secs(dth_secs),
        )
        .shards(shards)
        .build()
        .unwrap();
        for op in &ops {
            match op {
                Mutation::Put(k, v) => {
                    db.put(*k, delete_key_of(*k, 256), vec![*v; 9]).unwrap();
                }
                Mutation::Delete(k) => {
                    db.delete(*k).unwrap();
                }
                Mutation::DeleteRange(s, e) => db.delete_range(*s, *e).unwrap(),
                Mutation::SecondaryDelete(s, e) => {
                    db.delete_where_delete_key_in(*s, *e).unwrap();
                }
                Mutation::Flush => db.persist().unwrap(),
            }
        }
        // move logical time past the threshold, then quiesce the workers:
        // every TTL-expired file must have been compacted down by now
        db.clock().advance_secs(dth_secs * 1.5);
        db.maintain().unwrap();
        let dth = (dth_secs * 1_000_000.0) as u64;
        let snap = db.snapshot_contents().unwrap();
        for (age, count) in &snap.tombstone_file_ages {
            prop_assert!(
                *age <= dth,
                "a file holding {} tombstones is older ({} µs) than Dth ({} µs)",
                count, age, dth
            );
        }
    }
}

/// One step of the trivial-move history: sorted appends (whose files overlap
/// nothing below them, so their compactions are moves) interleaved with
/// random overwrites and deletes (whose files do overlap, so theirs are
/// merges). Delete targets are per-mille positions in the key range written
/// so far, so they reach appended keys too.
#[derive(Debug, Clone)]
enum MoveStep {
    Ascending(u64),
    Random(Vec<(u64, u8)>),
    Delete(u64),
    DeleteRange(u64, u64),
}

fn move_step_strategy() -> impl Strategy<Value = MoveStep> {
    prop_oneof![
        3 => (8u64..96).prop_map(MoveStep::Ascending),
        3 => prop::collection::vec((0u64..128, any::<u8>()), 1..24).prop_map(MoveStep::Random),
        2 => (0u64..1000).prop_map(MoveStep::Delete),
        1 => (0u64..1000, 1u64..32).prop_map(|(at, len)| MoveStep::DeleteRange(at, len)),
    ]
}

/// Runs the history against a `BTreeMap` oracle with a snapshot held across
/// its second half: the snapshot reads the frozen oracle while files move
/// and merge beneath it, the live store reads the live oracle before and
/// after the release, and the move path is known to have been taken.
fn check_moves_keep_the_oracle(pre: &[MoveStep], post: &[MoveStep]) {
    let db = ShardedLetheBuilder::from_builder(
        LetheBuilder::new()
            .buffer(8, 4, 64)
            .size_ratio(4)
            .delete_tile_pages(2)
            .delete_persistence_threshold_secs(1.0),
    )
    .shards(1)
    .build()
    .unwrap();
    // random keys live in 0..128, appended keys from `top` upwards
    let (mut oracle, mut top) = (BTreeMap::<u64, Vec<u8>>::new(), 128u64);
    let apply = |oracle: &mut BTreeMap<u64, Vec<u8>>, top: &mut u64, step: &MoveStep| match step {
        MoveStep::Ascending(n) => {
            for k in *top..*top + n {
                let value = vec![(k % 251) as u8; 9];
                db.put(k, k % 97, value.clone()).unwrap();
                oracle.insert(k, value);
            }
            *top += n;
        }
        MoveStep::Random(writes) => {
            for (k, v) in writes {
                db.put(*k, k % 97, vec![*v; 9]).unwrap();
                oracle.insert(*k, vec![*v; 9]);
            }
        }
        MoveStep::Delete(at) => {
            let k = at * *top / 1000;
            db.delete(k).unwrap();
            oracle.remove(&k);
        }
        MoveStep::DeleteRange(at, len) => {
            let start = at * *top / 1000;
            db.delete_range(start, start + len).unwrap();
            oracle.retain(|k, _| *k < start || *k >= start + len);
        }
    };
    // a sorted preload larger than the first level: nothing lies below its
    // first spill and no tombstone exists yet, so that spill is a move.
    // Persisting settles it before the history starts: left to the
    // background worker, whether it spills before the next writes land
    // (and so still moves) would depend on thread timing
    apply(&mut oracle, &mut top, &MoveStep::Ascending(512));
    db.persist().unwrap();
    let preload = db.stats();
    assert!(preload.trivial_moves > 0 && preload.bytes_moved > 0, "the preload never moved: {preload:?}");
    for step in pre {
        apply(&mut oracle, &mut top, step);
    }
    let snapshot = db.snapshot();
    let (frozen, frozen_top) = (oracle.clone(), top);
    for step in post {
        apply(&mut oracle, &mut top, step);
    }
    db.persist().unwrap();
    for k in 0..frozen_top {
        let got = snapshot.get(k).unwrap().map(|b| b.to_vec());
        assert_eq!(got, frozen.get(&k).cloned(), "snapshot get({k}) diverged from the frozen oracle");
    }
    let live_matches = |when: &str| {
        for k in 0..top {
            let got = db.get(k).unwrap().map(|b| b.to_vec());
            assert_eq!(got, oracle.get(&k).cloned(), "live get({k}) diverged {when}");
        }
        let scan: Vec<u64> = db.range(0, top).unwrap().into_iter().map(|(k, _)| k).collect();
        assert_eq!(scan, oracle.keys().copied().collect::<Vec<u64>>(), "live scan diverged {when}");
    };
    live_matches("under the held snapshot");
    // released: the tombstone drops the snapshot gated may now proceed
    drop(snapshot);
    db.clock().advance_secs(2.0);
    db.persist().unwrap();
    live_matches("after the release");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Trivial moves are invisible to every reader: a history that mixes
    /// sorted appends (moved) with random overwrites and deletes (merged)
    /// reads back exactly as the oracle says, live and through a snapshot
    /// held while files change level underneath it.
    #[test]
    fn trivial_moves_are_invisible_to_readers(
        pre in prop::collection::vec(move_step_strategy(), 1..60),
        post in prop::collection::vec(move_step_strategy(), 1..60),
    ) {
        check_moves_keep_the_oracle(&pre, &post);
    }
}
