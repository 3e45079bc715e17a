//! Oracle-checked crash-recovery tests for the durable engine.
//!
//! Two crash models are exercised, both against a `BTreeMap` oracle of the
//! acknowledged state:
//!
//! * **Abrupt kill** — the engine is dropped at an arbitrary operation
//!   boundary with no warning. Everything acknowledged must be returned by
//!   the reopened store (manifest recovery for flushed data, WAL replay for
//!   the buffered tail).
//! * **Injected kill** — a [`FailPoint`] shared by the data file, WAL and
//!   manifest makes the n-th durable step fail, simulating a kill *inside*
//!   a flush, compaction, WAL truncation or manifest rewrite. The kill-point
//!   sweep replays one scripted workload for every reachable n, so every
//!   ordering window of the protocol (pages written but manifest not
//!   committed, manifest committed but WAL not yet truncated, mid-rewrite,
//!   …) is crossed at least once. After an injected kill, only the single
//!   in-flight operation may be in either its before or after state; every
//!   earlier acknowledgement must hold exactly.

#![expect(
    clippy::disallowed_methods,
    reason = "the tests list, tear and plant store files on disk as a crash or an operator would"
)]

use bytes::Bytes;
use lethe::lsm::{CompactionStrategy, LsmConfig, SecondaryDeleteMode};
use lethe::storage::{FailPoint, KillPoint, Result, SyncPolicy};
use lethe::{Lethe, LetheBuilder, ShardedLethe, ShardedLetheBuilder, WriteBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

const KEY_SPACE: u64 = 256;

/// The delete key is a fixed function of the sort key (an immutable
/// creation attribute, as in the paper's model).
fn delete_key_of(k: u64) -> u64 {
    k.wrapping_mul(31) % KEY_SPACE
}

fn unique_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "lethe-crash-{tag}-{}-{n}",
        std::process::id()
    ))
}

fn tiny_config() -> LsmConfig {
    let mut cfg = LsmConfig::small_for_test();
    cfg.pages_per_delete_tile = 2;
    cfg.secondary_delete_mode = SecondaryDeleteMode::KiwiPageDrops;
    cfg.suppress_blind_deletes = true;
    cfg.key_domain = 1 << 16;
    // in-process crashes lose nothing that reached the file, so the relaxed
    // policy keeps the fuzz fast without weakening what it checks (the
    // protocol ordering); power-failure durability itself is Always's job
    cfg.wal_sync = SyncPolicy::OnFlush;
    cfg
}

fn builder() -> LetheBuilder {
    LetheBuilder::new().with_config(tiny_config()).delete_persistence_threshold_secs(1.0)
}

/// `builder()` with 1 MiB entries. A page is `B` entries of any size, so the
/// 16-entry buffer flushes as 16 MiB of pages: one flush fills a whole data
/// segment, its barrier seals it, and the next page written creates the
/// segment's successor.
fn fat_builder() -> LetheBuilder {
    let mut cfg = tiny_config();
    cfg.entry_size = 1 << 20;
    LetheBuilder::new().with_config(cfg).delete_persistence_threshold_secs(1.0)
}

fn fat_value(k: u64) -> Vec<u8> {
    vec![(k % 251) as u8; 1 << 20]
}

/// Ids of the data segments of the single-shard store in `dir`, ascending
/// (`lethe.data` is segment 0, `lethe.data.<id>` segment `<id>`).
fn data_segments(dir: &std::path::Path) -> Vec<u64> {
    let mut ids: Vec<u64> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            let suffix = name.strip_prefix("lethe.data")?;
            if suffix.is_empty() { Some(0) } else { suffix.strip_prefix('.')?.parse().ok() }
        })
        .collect();
    ids.sort_unstable();
    ids
}

// ----------------------------------------------------------------- op model

#[derive(Debug, Clone)]
enum Op {
    Put(u64, u8),
    Delete(u64),
    DeleteRange(u64, u64),
    SecondaryDelete(u64, u64),
    Persist,
}

fn random_op(rng: &mut StdRng) -> Op {
    match rng.gen_range(0..12u32) {
        0..=6 => Op::Put(rng.gen_range(0..KEY_SPACE), rng.gen::<u8>()),
        7..=8 => Op::Delete(rng.gen_range(0..KEY_SPACE)),
        9 => {
            let s = rng.gen_range(0..KEY_SPACE);
            Op::DeleteRange(s, s + rng.gen_range(1..KEY_SPACE / 4))
        }
        10 => {
            let s = rng.gen_range(0..KEY_SPACE);
            Op::SecondaryDelete(s, s + rng.gen_range(1..KEY_SPACE / 4))
        }
        _ => Op::Persist,
    }
}

type Oracle = BTreeMap<u64, Vec<u8>>;

fn apply_oracle(oracle: &mut Oracle, op: &Op) {
    match op {
        Op::Put(k, v) => {
            oracle.insert(*k, vec![*v; 9]);
        }
        Op::Delete(k) => {
            oracle.remove(k);
        }
        Op::DeleteRange(s, e) => {
            let victims: Vec<u64> = oracle.range(*s..*e).map(|(k, _)| *k).collect();
            for k in victims {
                oracle.remove(&k);
            }
        }
        Op::SecondaryDelete(s, e) => {
            let victims: Vec<u64> = oracle
                .keys()
                .copied()
                .filter(|k| {
                    let d = delete_key_of(*k);
                    d >= *s && d < *e
                })
                .collect();
            for k in victims {
                oracle.remove(&k);
            }
        }
        Op::Persist => {}
    }
}

/// Keys whose state an in-flight (crashed) op may or may not have reached.
fn affected_keys(op: &Op) -> Vec<u64> {
    match op {
        Op::Put(k, _) | Op::Delete(k) => vec![*k],
        Op::DeleteRange(s, e) => (*s..(*e).min(KEY_SPACE)).collect(),
        Op::SecondaryDelete(s, e) => (0..KEY_SPACE)
            .filter(|k| {
                let d = delete_key_of(*k);
                d >= *s && d < *e
            })
            .collect(),
        Op::Persist => vec![],
    }
}

/// A store the crash harness can drive: `Lethe` or `ShardedLethe`.
trait Store {
    fn apply(&mut self, op: &Op) -> Result<()>;
    fn get(&mut self, k: u64) -> Result<Option<Bytes>>;
    fn live_keys(&mut self) -> Result<Vec<u64>>;
}

impl Store for Lethe {
    fn apply(&mut self, op: &Op) -> Result<()> {
        match op {
            Op::Put(k, v) => self.put(*k, delete_key_of(*k), vec![*v; 9]),
            Op::Delete(k) => self.delete(*k).map(|_| ()),
            Op::DeleteRange(s, e) => self.delete_range(*s, *e),
            Op::SecondaryDelete(s, e) => self.delete_where_delete_key_in(*s, *e).map(|_| ()),
            Op::Persist => self.persist(),
        }
    }
    fn get(&mut self, k: u64) -> Result<Option<Bytes>> {
        Lethe::get(self, k)
    }
    fn live_keys(&mut self) -> Result<Vec<u64>> {
        Ok(self.range(0, KEY_SPACE)?.into_iter().map(|(k, _)| k).collect())
    }
}

impl Store for ShardedLethe {
    fn apply(&mut self, op: &Op) -> Result<()> {
        match op {
            Op::Put(k, v) => self.put(*k, delete_key_of(*k), vec![*v; 9]),
            Op::Delete(k) => self.delete(*k).map(|_| ()),
            Op::DeleteRange(s, e) => self.delete_range(*s, *e),
            Op::SecondaryDelete(s, e) => self.delete_where_delete_key_in(*s, *e).map(|_| ()),
            Op::Persist => self.persist(),
        }
    }
    fn get(&mut self, k: u64) -> Result<Option<Bytes>> {
        ShardedLethe::get(self, k)
    }
    fn live_keys(&mut self) -> Result<Vec<u64>> {
        Ok(self.range(0, KEY_SPACE)?.into_iter().map(|(k, _)| k).collect())
    }
}

/// Verifies a reopened store against the oracle. `pending` is the op that
/// was in flight when the store crashed, if any: keys it touches may be in
/// either their before or after state, and the oracle is resynchronised to
/// whichever the store durably chose. Every other key must match exactly.
fn verify_and_resync(store: &mut dyn Store, oracle: &mut Oracle, pending: Option<&Op>) {
    let mut oracle_after = oracle.clone();
    let ambiguous: Vec<u64> = match pending {
        Some(op) => {
            apply_oracle(&mut oracle_after, op);
            affected_keys(op)
        }
        None => vec![],
    };
    for k in 0..KEY_SPACE {
        let got = store.get(k).unwrap().map(|b| b.to_vec());
        let before = oracle.get(&k).cloned();
        if ambiguous.contains(&k) {
            let after = oracle_after.get(&k).cloned();
            assert!(
                got == before || got == after,
                "key {k}: got {got:?}, expected before-crash {before:?} or after {after:?} \
                 (pending {pending:?})"
            );
            // adopt whatever the store durably decided
            match got {
                Some(v) => {
                    oracle.insert(k, v);
                }
                None => {
                    oracle.remove(&k);
                }
            }
        } else {
            assert_eq!(got, before, "key {k} lost or corrupted across the crash");
        }
    }
    let live = store.live_keys().unwrap();
    let expected: Vec<u64> = oracle.keys().copied().collect();
    assert_eq!(live, expected, "full scan disagrees with the oracle after recovery");
}

// ----------------------------------------------------------- headline tests

/// The bug this subsystem exists to fix: before the manifest, a durable
/// store forgot everything that had been flushed (the flush truncated the
/// WAL without persisting the tree's file layout).
#[test]
fn flushed_data_survives_reopen() {
    let dir = unique_dir("flushed");
    let mut expected: Oracle = BTreeMap::new();
    {
        let mut db = builder().open(&dir).unwrap();
        for i in 0..2000u64 {
            let k = i % KEY_SPACE;
            let v = (i % 251) as u8;
            db.put(k, delete_key_of(k), vec![v; 9]).unwrap();
            expected.insert(k, vec![v; 9]);
        }
        db.persist().unwrap();
        assert!(db.stats().flushes > 0, "workload must actually flush");
        assert!(db.stats().compactions > 0, "workload must actually compact");
    }
    {
        let mut db = builder().open(&dir).unwrap();
        for (k, v) in &expected {
            assert_eq!(db.get(*k).unwrap().map(|b| b.to_vec()), Some(v.clone()), "key {k}");
        }
        // a write-after-recovery round trip still works
        db.put(7, delete_key_of(7), b"fresh".to_vec()).unwrap();
        db.persist().unwrap();
        assert_eq!(db.get(7).unwrap(), Some(Bytes::from_static(b"fresh")));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn trailing WAL frame (crash mid-append) must not fail the open; the
/// valid prefix is recovered.
#[test]
fn torn_wal_tail_recovers_valid_prefix_on_open() {
    let dir = unique_dir("tornwal");
    {
        let mut db = builder().open(&dir).unwrap();
        for k in 0..8u64 {
            db.put(k, delete_key_of(k), vec![1u8; 9]).unwrap();
        }
        // no persist: the records live only in the WAL
    }
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("lethe.wal"))
            .unwrap();
        // a length prefix promising 100 bytes, followed by only 3
        f.write_all(&100u32.to_be_bytes()).unwrap();
        f.write_all(&[1, 2, 3]).unwrap();
    }
    let db = builder().open(&dir).expect("torn tail must not fail the open");
    for k in 0..8u64 {
        assert_eq!(db.get(k).unwrap(), Some(Bytes::from(vec![1u8; 9])), "key {k}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// -------------------------------------------------------- kill-point sweep

/// Builds the deterministic workload script shared by the sweep tests.
fn sweep_script() -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut script: Vec<Op> = (0..140).map(|_| random_op(&mut rng)).collect();
    // make sure the protocol-heavy paths are on the script regardless of
    // what the dice said
    script.push(Op::Persist);
    script.push(Op::SecondaryDelete(0, KEY_SPACE / 2));
    script.push(Op::Persist);
    script
}

/// Replays `script` against a fresh store with the fail point armed at
/// `kill`, then reopens and verifies. Returns `false` once `kill` is past
/// every durable step of the script (i.e. nothing crashed).
fn run_sweep_iteration(script: &[Op], kill: u64, shards: Option<usize>) -> bool {
    let dir = unique_dir("sweep");
    let fp = FailPoint::new();
    let mut oracle: Oracle = BTreeMap::new();
    let mut pending: Option<Op> = None;

    let armed = |fp: Option<FailPoint>| -> LetheBuilder {
        match fp {
            Some(fp) => builder().crash_failpoint(fp),
            None => builder(),
        }
    };
    let open_single = |fp: Option<FailPoint>| -> Lethe { armed(fp).open(&dir).unwrap() };
    let open_sharded = |fp: Option<FailPoint>, n: usize| -> ShardedLethe {
        ShardedLetheBuilder::from_builder(armed(fp)).shards(n).open(&dir).unwrap()
    };

    {
        let mut store: Box<dyn Store> = match shards {
            None => Box::new(open_single(Some(fp.clone()))),
            Some(n) => Box::new(open_sharded(Some(fp.clone()), n)),
        };
        fp.arm(kill);
        for op in script {
            match store.apply(op) {
                Ok(()) => apply_oracle(&mut oracle, op),
                Err(_) => {
                    pending = Some(op.clone());
                    break;
                }
            }
        }
        fp.disarm();
    }
    let crashed = pending.is_some();
    let mut store: Box<dyn Store> = match shards {
        None => Box::new(open_single(None)),
        Some(n) => Box::new(open_sharded(None, n)),
    };
    verify_and_resync(store.as_mut(), &mut oracle, pending.as_ref());
    let _ = std::fs::remove_dir_all(&dir);
    crashed
}

#[test]
fn kill_point_sweep_single_shard() {
    let script = sweep_script();
    // dense coverage of the early protocol steps, sparser further out; the
    // sweep ends when a kill index is past the script's last durable step
    let mut kill = 0u64;
    let mut crashes = 0u32;
    while run_sweep_iteration(&script, kill, None) {
        crashes += 1;
        kill += 1 + kill / 16;
    }
    assert!(crashes > 30, "sweep must cross many kill points, got {crashes}");
}

#[test]
fn kill_point_sweep_sharded() {
    let script = sweep_script();
    let mut kill = 0u64;
    let mut crashes = 0u32;
    while run_sweep_iteration(&script, kill, Some(3)) {
        crashes += 1;
        kill += 1 + kill / 12;
    }
    assert!(crashes > 30, "sweep must cross many kill points, got {crashes}");
}

/// One iteration of the whole-file-drop sweep: ingest an expired timeline
/// into a date-tiered durable store, then crash at the `kill`-th durable
/// step *of the drop commit* (manifest edit before page retirement).
/// Because one `DropFiles` task retires every expired file through a single
/// manifest edit, recovery must see the window either entirely present
/// (crash before the edit landed) or entirely gone — never partially
/// retired, and a re-driven maintenance pass must finish the retirement.
/// Returns `false` once `kill` is past every durable step of the drop.
fn run_drop_sweep_iteration(kill: u64) -> bool {
    const TIMELINE: u64 = 96;
    let dir = unique_dir("dropsweep");
    let fp = FailPoint::new();
    let date_tiered = || {
        builder().compaction_strategy(CompactionStrategy::DateTiered {
            base_window_micros: 1_000,
            fan_in: 2,
            ttl_micros: Some(500_000),
        })
    };
    let crashed = {
        let mut db = date_tiered().crash_failpoint(fp.clone()).open(&dir).unwrap();
        for i in 0..TIMELINE {
            db.put(i, i * 100, vec![4u8; 16]).unwrap();
            if (i + 1) % 32 == 0 {
                db.persist().unwrap();
            }
        }
        db.persist().unwrap();
        db.clock().advance_secs(10.0);
        // arm only around the maintenance pass, so the kill lands inside
        // the drop protocol rather than the ingest
        fp.arm(kill);
        let crashed = db.maintain().is_err();
        fp.disarm();
        crashed
    };
    {
        let mut db = date_tiered().open(&dir).unwrap();
        let present = (0..TIMELINE).filter(|&k| db.get(k).unwrap().is_some()).count() as u64;
        assert!(
            present == 0 || present == TIMELINE,
            "partial window after drop crash at step {kill}: {present}/{TIMELINE} keys survive"
        );
        // recovery must be able to finish the job: the logical clock restarts
        // at zero on reopen, so re-expire the window, then retire it
        db.clock().advance_secs(10.0);
        db.maintain().unwrap();
        for k in 0..TIMELINE {
            assert_eq!(db.get(k).unwrap(), None, "expired key {k} survives re-driven maintenance");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    crashed
}

#[test]
fn kill_point_sweep_whole_file_drop() {
    let mut kill = 0u64;
    let mut crashes = 0u32;
    while run_drop_sweep_iteration(kill) {
        crashes += 1;
        kill += 1;
    }
    // the drop commit consults at least drop.commit, manifest.append and
    // drop.retire — the sweep must have crashed inside each window
    assert!(crashes >= 3, "drop sweep must cross the commit protocol, got {crashes}");
}

/// Ids of every page the tree's files reference.
fn referenced_pages(db: &Lethe) -> BTreeSet<u64> {
    let levels = db.tree().levels();
    let files = levels.iter().flat_map(|l| l.all_tables());
    files.flat_map(|f| f.tiles.iter().flat_map(|t| t.pages.iter().map(|p| p.id))).collect()
}

/// One iteration of the trivial-move sweep: sorted ingest, flushed without
/// the compaction loop, leaves level 0 of a durable leveled store saturated
/// with files that overlap nothing below them, so the maintenance pass that
/// follows is a descent of trivial moves. A move's only durable step is its
/// manifest append, so a crash at the `kill`-th step of that pass leaves
/// each picked file either at its old level or at its new one: after the
/// reopen every key reads back, every file sits in exactly one level, no
/// page is unreferenced, and a re-driven pass finishes the descent. Returns
/// whether the pass crashed and how many files the reopened store found
/// below level 0.
fn run_move_sweep_iteration(kill: u64) -> (bool, usize) {
    const KEYS: u64 = 256;
    let dir = unique_dir("movesweep");
    let fp = FailPoint::new();
    let value = |k: u64| vec![(k % 251) as u8; 16];
    let check = |db: &Lethe, when: &str| -> usize {
        for k in 0..KEYS {
            assert_eq!(db.get(k).unwrap(), Some(Bytes::from(value(k))), "key {k} {when}, kill {kill}");
        }
        let levels = db.tree().levels();
        let files = || levels.iter().flat_map(|l| l.all_tables());
        let ids: BTreeSet<u64> = files().map(|f| f.meta.id).collect();
        assert_eq!(ids.len(), files().count(), "a file sits in two levels {when}, kill {kill}");
        assert_eq!(
            db.tree().backend().live_pages(),
            referenced_pages(db).len(),
            "unreferenced pages {when}, kill {kill}"
        );
        levels.iter().skip(1).map(|l| l.file_count()).sum()
    };
    let crashed = {
        let mut db = builder().crash_failpoint(fp.clone()).open(&dir).unwrap();
        for k in 0..KEYS {
            db.put(k, delete_key_of(k), value(k)).unwrap();
            if (k + 1) % 8 == 0 {
                // flush before the buffer fills, so no put runs the loop
                db.tree_mut().flush().unwrap();
            }
        }
        assert_eq!(db.tree().level_count(), 1, "nothing descended during the ingest");
        let device_barriers = |db: &Lethe| db.tree().backend().stats().snapshot().fsyncs;
        let barriers_before = device_barriers(&db);
        // arm only around the maintenance pass, so the kill lands on a move
        fp.arm(kill);
        let crashed = db.maintain().is_err();
        fp.disarm();
        assert_eq!(device_barriers(&db), barriers_before, "a move appends no page: nothing to sync");
        let stats = db.stats();
        assert_eq!((stats.entries_compacted, stats.bytes_compacted), (0, 0), "{stats:?}");
        if !crashed {
            assert!(stats.trivial_moves >= 2, "the pass must be a descent of moves: {stats:?}");
            assert_eq!(stats.trivial_moves, stats.compactions);
        }
        crashed
    };
    let mut db = builder().open(&dir).unwrap();
    let descended = check(&db, "after the reopen");
    db.maintain().unwrap();
    let level0 = db.tree().levels()[0].total_bytes();
    assert!(
        level0 <= db.config().level_capacity_bytes(1),
        "the re-driven pass left level 0 saturated ({level0} B), kill {kill}"
    );
    assert!(check(&db, "after the re-driven pass") >= descended.max(2));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    (crashed, descended)
}

#[test]
fn kill_point_sweep_trivial_move() {
    let mut kill = 0u64;
    let mut descended_at_crash = Vec::new();
    loop {
        let (crashed, descended) = run_move_sweep_iteration(kill);
        if !crashed {
            break;
        }
        descended_at_crash.push(descended);
        kill += 1;
    }
    // one manifest append per move: the first kill lands before any file
    // changed level, each later one after one more did
    assert!(descended_at_crash.len() >= 3, "the sweep must cross several moves: {descended_at_crash:?}");
    assert_eq!(descended_at_crash[0], 0, "killed before the append, the file is at its old level");
    assert!(
        descended_at_crash.windows(2).all(|w| w[0] <= w[1]) && descended_at_crash.last() > Some(&0),
        "killed after an append, the file is at its new level: {descended_at_crash:?}"
    );
}

/// Builds the template of the segment-roll sweep once: a durable FADE store
/// whose only data segment a flush has just filled and sealed. Returns its
/// directory.
fn sealed_segment_template() -> PathBuf {
    let dir = unique_dir("rollsweep-template");
    let mut db = fat_builder().open(&dir).unwrap();
    for k in 0..16u64 {
        db.put(k, delete_key_of(k), fat_value(k)).unwrap();
    }
    db.persist().unwrap();
    assert_eq!(data_segments(&dir), [0], "the template is one segment");
    let len = std::fs::metadata(dir.join("lethe.data")).unwrap().len();
    assert!(len >= 16 << 20, "and a full one: {len} B");
    dir
}

/// One iteration of the segment-roll sweep on a copy of `template`: a few
/// more fat writes are acknowledged, then the `persist()` that flushes them
/// is killed at its `kill`-th durable step. Its first page write creates the
/// sealed segment's successor, the merge rewrites every page of the old
/// segment into it, and the drops after the manifest commit unlink the old
/// file; wherever the kill lands, the reopened store serves every
/// acknowledged key, holds exactly the pages its manifest references, keeps
/// no dead segment but possibly the newest, and finishes a re-driven
/// `persist()`. Returns the site that fired, `None` once `kill` is past the
/// last step.
fn run_roll_sweep_iteration(template: &std::path::Path, kill: u64) -> Option<KillPoint> {
    let dir = unique_dir("rollsweep");
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(template).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    let check_keys = |db: &Lethe, when: &str| {
        for k in 0..18u64 {
            let expected = Bytes::from(fat_value(if k < 2 { k + 100 } else { k }));
            assert!(db.get(k).unwrap() == Some(expected), "key {k} {when}, kill {kill}");
        }
    };
    let fp = FailPoint::new();
    {
        let mut db = fat_builder().crash_failpoint(fp.clone()).open(&dir).unwrap();
        // overwrites and new keys, acknowledged before the fail point is armed
        for k in (0..2u64).chain(16..18) {
            db.put(k, delete_key_of(k), fat_value(if k < 2 { k + 100 } else { k })).unwrap();
        }
        assert_eq!(data_segments(&dir), [0], "nothing rolled before the persist");
        fp.arm(kill);
        let crashed = db.persist().is_err();
        fp.disarm();
        assert_eq!(crashed, fp.last_fired().is_some());
    }
    let mut db = fat_builder().open(&dir).unwrap();
    check_keys(&db, "after the reopen");
    let live: BTreeSet<u64> = db.tree().backend().page_ids().into_iter().collect();
    assert_eq!(live, referenced_pages(&db), "live pages are not the manifest's, kill {kill}");
    // page ids are issued in file order, so a segment holds the ids from its
    // name up to its successor's: every file but the newest holds a live one
    let segments = data_segments(&dir);
    for pair in segments.windows(2) {
        assert!(
            live.range(pair[0]..pair[1]).next().is_some(),
            "dead segment {} of {segments:?} survived the reopen, kill {kill}",
            pair[0]
        );
    }
    if fp.last_fired().is_none() {
        // the flush rewrote every page of the old segment; its drops run one
        // job late, so it is the reopen's unreferenced-page pass that took them
        assert!(segments.len() == 1 && segments[0] > 0, "the old segment is gone: {segments:?}");
        assert!(db.io_snapshot().bytes_reclaimed >= 16 << 20);
    }
    db.persist().unwrap();
    check_keys(&db, "after the re-driven persist");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    fp.last_fired()
}

#[test]
fn kill_point_sweep_segment_roll() {
    let template = sealed_segment_template();
    let mut fired = BTreeSet::new();
    let mut kill = 0u64;
    while let Some(site) = run_roll_sweep_iteration(&template, kill) {
        fired.insert(site);
        kill += 1;
    }
    let _ = std::fs::remove_dir_all(&template);
    for site in [
        KillPoint::BackendSegmentCreate,
        KillPoint::BackendWritePage,
        KillPoint::ManifestRewriteRename,
    ] {
        assert!(fired.contains(&site), "the sweep never died at {site}: {fired:?}");
    }
}

/// Proves every [`KillPoint`] is *runtime-reachable*: a traced (disarmed)
/// fail point records every site a mixed sharded workload consults, and
/// the set must equal [`KillPoint::ALL`] exactly. A variant no site checks
/// any more, or one the workload never reaches, has no sweep that can kill
/// inside it; this test catches both.
#[test]
fn kill_point_trace_covers_the_whole_registry() {
    let dir = unique_dir("killtrace");
    let fp = FailPoint::new();
    fp.enable_trace();
    {
        let db = ShardedLetheBuilder::from_builder(builder().crash_failpoint(fp.clone()))
            .shards(3)
            .open(&dir)
            .unwrap();
        // every mutation stages its WAL frame through the shard's
        // group-commit queue (wal.append_nosync)
        for k in 0..48u64 {
            db.put(k, delete_key_of(k), vec![7u8; 16]).unwrap();
        }
        db.delete(3).unwrap();
        db.delete_range(10, 14).unwrap();
        // cross-shard batch: 2PC through the batch-commit log
        // (batchlog.append + batchlog.commit_fsync)
        let mut batch = WriteBatch::new();
        for k in 100..140u64 {
            batch.put(k, delete_key_of(k), vec![9u8; 16]);
        }
        db.write(batch).unwrap();
        // first persist: flush (backend.write_page), first manifest commit
        // (manifest.rewrite.begin/rename), WAL truncation
        // (wal.rewrite.begin/rename)
        db.persist().unwrap();
        // second round so a later manifest commit takes the append path
        // (manifest.append) instead of the first-commit rewrite
        for k in 200..232u64 {
            db.put(k, delete_key_of(k), vec![5u8; 16]).unwrap();
        }
        db.persist().unwrap();
        // online checkpoint: streams a snapshot into a fresh directory —
        // page writes on the checkpoint backend, its manifest commit, and
        // the completeness marker (checkpoint.marker.tmp/rename)
        let ckpt = unique_dir("killtrace-ckpt");
        db.checkpoint(&ckpt).unwrap();
        let _ = std::fs::remove_dir_all(&ckpt);
    }
    // whole-file drop: a date-tiered store whose wholly-expired windows are
    // retired through the drop commit steps (drop.commit / drop.retire)
    let dropdir = unique_dir("killtrace-drop");
    {
        let mut db = builder()
            .compaction_strategy(CompactionStrategy::DateTiered {
                base_window_micros: 1_000,
                fan_in: 2,
                ttl_micros: Some(500_000),
            })
            .crash_failpoint(fp.clone())
            .open(&dropdir)
            .unwrap();
        for i in 0..64u64 {
            db.put(i, i * 100, vec![6u8; 16]).unwrap();
        }
        db.persist().unwrap();
        db.clock().advance_secs(10.0);
        db.maintain().unwrap();
        assert!(db.stats().whole_file_drops >= 1, "coverage workload must drive a drop");
    }
    let _ = std::fs::remove_dir_all(&dropdir);
    let _ = std::fs::remove_dir_all(&dir);
    // segment roll: the sixteenth fat put flushes a full data segment, which
    // its barrier seals; the persist's flush then creates the successor
    // (backend.segment.create)
    let fatdir = unique_dir("killtrace-fat");
    {
        let mut db = fat_builder().crash_failpoint(fp.clone()).open(&fatdir).unwrap();
        for k in 0..17u64 {
            db.put(k, delete_key_of(k), fat_value(k)).unwrap();
        }
        db.persist().unwrap();
        assert_eq!(data_segments(&fatdir).len(), 2, "rolled once");
    }
    let _ = std::fs::remove_dir_all(&fatdir);
    let traced: BTreeSet<KillPoint> = fp.traced_sites().into_iter().collect();
    let registry: BTreeSet<KillPoint> = KillPoint::ALL.into_iter().collect();
    let unreached: Vec<&KillPoint> = registry.difference(&traced).collect();
    assert!(
        unreached.is_empty(),
        "registered kill points never consulted by the coverage workload: {unreached:?} \
         (traced: {traced:?})"
    );
    let unregistered: Vec<&KillPoint> = traced.difference(&registry).collect();
    assert!(
        unregistered.is_empty(),
        "sites consulted at runtime but missing from KillPoint::ALL: {unregistered:?}"
    );
}

/// Regression: a fail point attached to the wrapped `LetheBuilder` arms the
/// store-wide durable steps too (the `BATCHES` commit log and an online
/// checkpoint's marker), not only the shards' own files.
#[test]
fn wrapped_builder_failpoint_arms_batch_log_and_checkpoint() {
    let dir = unique_dir("wrappedfp");
    let ckpt = unique_dir("wrappedfp-ckpt");
    let fp = FailPoint::new();
    fp.enable_trace();
    {
        let db = ShardedLetheBuilder::from_builder(builder().crash_failpoint(fp.clone()))
            .shards(3)
            .open(&dir)
            .unwrap();
        let mut batch = WriteBatch::new();
        for k in 0..24u64 {
            batch.put(k, delete_key_of(k), vec![4u8; 16]);
        }
        db.write(batch).unwrap();
        db.checkpoint(&ckpt).unwrap();
    }
    let traced: BTreeSet<KillPoint> = fp.traced_sites().into_iter().collect();
    for site in
        [KillPoint::BatchlogAppend, KillPoint::BatchlogCommitFsync, KillPoint::CheckpointMarkerTmp]
    {
        assert!(traced.contains(&site), "{site} never consulted: {traced:?}");
    }
    let _ = std::fs::remove_dir_all(&ckpt);
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------------ restart fuzz

/// Randomized restart fuzz: one long history against one directory, with
/// abrupt kills and armed fail points interleaved at random, continuing
/// after every recovery (so recovered state is itself re-crashed and
/// re-recovered, manifests fold, and WAL replays stack on flushed state).
fn run_restart_fuzz(seed: u64, shards: Option<usize>) {
    let dir = unique_dir(&format!("fuzz{}", shards.unwrap_or(1)));
    let mut rng = StdRng::seed_from_u64(seed);
    let fp = FailPoint::new();
    let mut oracle: Oracle = BTreeMap::new();

    let open = |fp: FailPoint| -> Box<dyn Store> {
        match shards {
            None => Box::new(builder().crash_failpoint(fp).open(&dir).unwrap()),
            Some(n) => Box::new(
                ShardedLetheBuilder::from_builder(builder().crash_failpoint(fp))
                    .shards(n)
                    .open(&dir)
                    .unwrap(),
            ),
        }
    };

    let mut store = open(fp.clone());
    let mut reopens = 0u32;
    let mut injected = 0u32;
    for _ in 0..700 {
        // occasionally schedule an injected failure a few durable steps out
        if !fp.is_armed() && rng.gen_range(0..25u32) == 0 {
            fp.arm(rng.gen_range(0..40u64));
        }
        let op = random_op(&mut rng);
        match store.apply(&op) {
            Ok(()) => apply_oracle(&mut oracle, &op),
            Err(_) => {
                injected += 1;
                fp.disarm();
                drop(store);
                store = open(fp.clone());
                reopens += 1;
                verify_and_resync(store.as_mut(), &mut oracle, Some(&op));
            }
        }
        // abrupt kill at a clean op boundary
        if rng.gen_range(0..60u32) == 0 {
            fp.disarm();
            drop(store);
            store = open(fp.clone());
            reopens += 1;
            verify_and_resync(store.as_mut(), &mut oracle, None);
        }
    }
    fp.disarm();
    drop(store);
    let mut store = open(fp);
    verify_and_resync(store.as_mut(), &mut oracle, None);
    assert!(reopens > 2, "fuzz must actually restart, got {reopens}");
    assert!(injected > 0, "fuzz must hit at least one injected kill");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_fuzz_single_shard() {
    for seed in [1u64, 2, 3] {
        run_restart_fuzz(seed, None);
    }
}

#[test]
fn restart_fuzz_sharded() {
    for seed in [11u64, 12] {
        run_restart_fuzz(seed, Some(3));
    }
}

// ----------------------------------- background-commit kill-point sweep

/// Applies one op to a sharded store directly (the `Store` impl boxes it;
/// here we also need `persist` between phases).
fn apply_sharded(db: &ShardedLethe, op: &Op) -> Result<()> {
    match op {
        Op::Put(k, v) => db.put(*k, delete_key_of(*k), vec![*v; 9]),
        Op::Delete(k) => db.delete(*k).map(|_| ()),
        Op::DeleteRange(s, e) => db.delete_range(*s, *e),
        Op::SecondaryDelete(s, e) => db.delete_where_delete_key_in(*s, *e).map(|_| ()),
        Op::Persist => db.persist(),
    }
}

/// Checks a live (not reopened) sharded store against the oracle exactly.
fn assert_live_matches_oracle(db: &ShardedLethe, oracle: &Oracle) {
    for k in 0..KEY_SPACE {
        let got = db.get(k).unwrap().map(|b| b.to_vec());
        assert_eq!(got, oracle.get(&k).cloned(), "live store diverged on key {k}");
    }
    let live: Vec<u64> = db.range(0, KEY_SPACE).unwrap().into_iter().map(|(k, _)| k).collect();
    let expected: Vec<u64> = oracle.keys().copied().collect();
    assert_eq!(live, expected, "live scan diverged from the oracle");
}

/// Kill-point sweep targeting the *background* commit sequence explicitly.
///
/// A workload is ingested and fully quiesced with the fail point disarmed;
/// a fresh buffer of writes and tombstones is then staged; the fail point
/// is armed; and `persist()` drives the shard's worker across the durable
/// steps of its flush/compaction commits — device page writes and sync,
/// manifest append, WAL prefix rewrite (so the kill lands in every window:
/// pages written but manifest not committed, manifest committed / version
/// installed but WAL not yet truncated, mid-rewrite) — with a kill at every
/// index until one sweep survives the whole sequence.
///
/// Two properties are checked per crash. (a) The **live** store keeps
/// serving exactly the acknowledged state: a failed background job installs
/// nothing and the frozen buffer is only cleared by a successful flush, so
/// an injected crash inside the worker never tears the in-memory view.
/// (b) The **reopened** store recovers exactly the acknowledged state:
/// flushes and compactions never change logical contents, so — unlike a
/// crash inside a foreground write — there is no ambiguous in-flight
/// operation at all.
#[test]
fn kill_point_sweep_background_commit() {
    let mut kill = 0u64;
    let mut crashes = 0u32;
    loop {
        let dir = unique_dir("bgsweep");
        let fp = FailPoint::new();
        let mut oracle: Oracle = BTreeMap::new();
        let mut crashed = false;
        {
            let db = ShardedLetheBuilder::from_builder(builder().crash_failpoint(fp.clone()))
                .shards(1)
                .open(&dir)
                .unwrap();
            let mut rng = StdRng::seed_from_u64(0xBACC);
            // phase 1: ingest and fully quiesce with the fail point disarmed
            for _ in 0..120 {
                let op = random_op(&mut rng);
                if matches!(op, Op::Persist) {
                    continue;
                }
                apply_sharded(&db, &op).unwrap();
                apply_oracle(&mut oracle, &op);
            }
            db.persist().unwrap();
            // phase 2: stage a fresh buffer (puts + tombstones of every
            // flavour) so the armed persist crosses a flush commit and the
            // compactions it triggers
            for _ in 0..40 {
                let op = random_op(&mut rng);
                if matches!(op, Op::Persist | Op::SecondaryDelete(..)) {
                    continue;
                }
                apply_sharded(&db, &op).unwrap();
                apply_oracle(&mut oracle, &op);
            }
            fp.arm(kill);
            if db.persist().is_err() {
                crashed = true;
                fp.disarm();
                // (a) the live store still serves every acknowledged write
                assert_live_matches_oracle(&db, &oracle);
            }
            fp.disarm();
        }
        // (b) reopen and verify exactly: no ambiguity window exists for a
        // crash inside a background flush/compaction commit
        {
            let mut db: Box<dyn Store> = Box::new(
                ShardedLetheBuilder::from_builder(builder()).shards(1).open(&dir).unwrap(),
            );
            verify_and_resync(db.as_mut(), &mut oracle, None);
        }
        let _ = std::fs::remove_dir_all(&dir);
        if !crashed {
            break;
        }
        crashes += 1;
        kill += 1;
    }
    assert!(crashes >= 8, "sweep must cross the background commit's durable steps, got {crashes}");
}

// ------------------------------------- group-commit kill-point sweep

/// One write inside an atomic [`WriteBatch`].
#[derive(Debug, Clone)]
enum BatchItem {
    Put(u64, u8),
    Delete(u64),
    /// Secondary range delete `[s, e)` on the delete key — the structural
    /// batch op that restructures KiWi pages under a paused worker.
    SecDel(u64, u64),
}

/// An op in the group-commit sweep script: an atomic batch or one of the
/// plain ops (so batches land between flushes, WAL truncations and
/// compactions, not in a vacuum).
#[derive(Debug, Clone)]
enum GOp {
    Batch(Vec<BatchItem>),
    Single(Op),
}

fn random_batch(rng: &mut StdRng) -> Vec<BatchItem> {
    let n = rng.gen_range(2..10usize);
    let mut items: Vec<BatchItem> = (0..n)
        .map(|_| {
            if rng.gen_range(0..5u32) == 0 {
                BatchItem::Delete(rng.gen_range(0..KEY_SPACE))
            } else {
                BatchItem::Put(rng.gen_range(0..KEY_SPACE), rng.gen::<u8>())
            }
        })
        .collect();
    // occasionally make the batch structural: a secondary range delete
    // rides along with the puts and deletes
    if rng.gen_range(0..8u32) == 0 {
        let s = rng.gen_range(0..KEY_SPACE);
        items.push(BatchItem::SecDel(s, s + rng.gen_range(1..KEY_SPACE / 4)));
    }
    items
}

/// Deterministic script for the group-commit sweep: roughly half atomic
/// batches, interleaved with plain ops and periodic persists so the armed
/// kills also land inside the flushes and compactions between batches.
fn group_commit_script(seed: u64) -> Vec<GOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut script = Vec::new();
    for i in 0..70 {
        if rng.gen_range(0..2u32) == 0 {
            script.push(GOp::Batch(random_batch(&mut rng)));
        } else {
            script.push(GOp::Single(random_op(&mut rng)));
        }
        if i % 20 == 19 {
            script.push(GOp::Single(Op::Persist));
        }
    }
    script.push(GOp::Batch(random_batch(&mut rng)));
    script.push(GOp::Single(Op::Persist));
    script
}

fn apply_batch_to(db: &ShardedLethe, items: &[BatchItem]) -> Result<()> {
    let mut batch = WriteBatch::new();
    for item in items {
        match item {
            BatchItem::Put(k, v) => {
                batch.put(*k, delete_key_of(*k), vec![*v; 9]);
            }
            BatchItem::Delete(k) => {
                batch.delete(*k);
            }
            BatchItem::SecDel(s, e) => {
                batch.secondary_range_delete(*s, *e);
            }
        }
    }
    db.write(batch)
}

fn apply_batch_oracle(oracle: &mut Oracle, items: &[BatchItem]) {
    for item in items {
        match item {
            BatchItem::Put(k, v) => {
                oracle.insert(*k, vec![*v; 9]);
            }
            BatchItem::Delete(k) => {
                oracle.remove(k);
            }
            BatchItem::SecDel(s, e) => {
                apply_oracle(oracle, &Op::SecondaryDelete(*s, *e));
            }
        }
    }
}

/// Keys a batch may touch (a superset: secondary deletes contribute every
/// key whose delete key falls in range, live or not).
fn batch_keys(items: &[BatchItem]) -> Vec<u64> {
    let mut keys: Vec<u64> = items
        .iter()
        .flat_map(|item| match item {
            BatchItem::Put(k, _) | BatchItem::Delete(k) => vec![*k],
            BatchItem::SecDel(s, e) => affected_keys(&Op::SecondaryDelete(*s, *e)),
        })
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// The batch-level atomicity check: unlike [`verify_and_resync`], which
/// allows each ambiguous key independently to be in its before or after
/// state, a crashed batch must leave **all** of its keys in the pre-batch
/// state or **all** of them in the post-batch state — a mix is a torn batch.
/// The oracle is resynchronised to whichever side the store durably chose.
fn verify_batch_all_or_nothing(store: &mut dyn Store, oracle: &mut Oracle, items: &[BatchItem]) {
    let mut after = oracle.clone();
    apply_batch_oracle(&mut after, items);
    let mut all_before = true;
    let mut all_after = true;
    let mut observed: BTreeMap<u64, Option<Vec<u8>>> = BTreeMap::new();
    for k in batch_keys(items) {
        let got = store.get(k).unwrap().map(|b| b.to_vec());
        if got != oracle.get(&k).cloned() {
            all_before = false;
        }
        if got != after.get(&k).cloned() {
            all_after = false;
        }
        observed.insert(k, got);
    }
    assert!(
        all_before || all_after,
        "torn batch after crash: observed {observed:?} matches neither the pre-batch \
         nor the post-batch state (batch {items:?})"
    );
    if all_after {
        *oracle = after;
    }
}

/// Replays the group-commit script with the fail point armed at `kill`,
/// reopens, and checks every acknowledged op exactly and the in-flight op
/// (batch-atomically for batches). Returns `false` once nothing crashed.
fn run_group_commit_sweep_iteration(script: &[GOp], kill: u64, shards: usize) -> (bool, bool) {
    let dir = unique_dir("gcsweep");
    let fp = FailPoint::new();
    let mut oracle: Oracle = BTreeMap::new();
    let mut pending: Option<GOp> = None;
    {
        let db = ShardedLetheBuilder::from_builder(builder().crash_failpoint(fp.clone()))
            .shards(shards)
            .open(&dir)
            .unwrap();
        fp.arm(kill);
        for op in script {
            let res = match op {
                GOp::Batch(items) => apply_batch_to(&db, items),
                GOp::Single(op) => apply_sharded(&db, op),
            };
            match res {
                Ok(()) => match op {
                    GOp::Batch(items) => apply_batch_oracle(&mut oracle, items),
                    GOp::Single(op) => apply_oracle(&mut oracle, op),
                },
                Err(_) => {
                    pending = Some(op.clone());
                    break;
                }
            }
        }
        fp.disarm();
    }
    let crashed = pending.is_some();
    let batch_crashed = matches!(pending, Some(GOp::Batch(_)));
    let mut store: Box<dyn Store> = Box::new(
        ShardedLetheBuilder::from_builder(builder()).shards(shards).open(&dir).unwrap(),
    );
    match &pending {
        Some(GOp::Batch(items)) => {
            verify_batch_all_or_nothing(store.as_mut(), &mut oracle, items);
            verify_and_resync(store.as_mut(), &mut oracle, None);
        }
        Some(GOp::Single(op)) => verify_and_resync(store.as_mut(), &mut oracle, Some(op)),
        None => verify_and_resync(store.as_mut(), &mut oracle, None),
    }
    let _ = std::fs::remove_dir_all(&dir);
    (crashed, batch_crashed)
}

fn run_group_commit_sweep(shards: usize, seed: u64) {
    let script = group_commit_script(seed);
    let mut kill = 0u64;
    let mut crashes = 0u32;
    let mut batch_crashes = 0u32;
    loop {
        let (crashed, batch_crashed) = run_group_commit_sweep_iteration(&script, kill, shards);
        if !crashed {
            break;
        }
        crashes += 1;
        batch_crashes += u32::from(batch_crashed);
        kill += 1 + kill / 16;
    }
    assert!(crashes > 30, "sweep must cross many kill points, got {crashes}");
    assert!(
        batch_crashes > 3,
        "sweep must kill inside batch commits, got {batch_crashes} of {crashes}"
    );
}

/// Single-shard group commit: every kill lands inside the stage → fsync →
/// apply sequence of one WAL frame (or the flush/compaction around it), and
/// each in-flight batch must recover all-or-nothing.
#[test]
fn group_commit_kill_point_sweep_single_shard() {
    run_group_commit_sweep(1, 0xBA7C4);
}

/// Cross-shard group commit: kills land in every window of the two-phase
/// protocol — some prepared WALs durable but not all, all prepared but the
/// BATCHES commit record absent, the commit record durable but the crash
/// before apply — and each in-flight batch must still recover atomically
/// across all three shards.
#[test]
fn group_commit_kill_point_sweep_cross_shard() {
    run_group_commit_sweep(3, 0xBA7C4);
}

/// A batch id left in a shard WAL by a crashed (rolled-back) cross-shard
/// batch must never be handed to a later batch: recovery does not rewrite
/// WALs, so if the new batch commits under the reused id, the *next*
/// recovery would find the stale prepared slice's id in the committed set
/// and resurrect part of the aborted batch. The sweep crashes batch A in
/// every window of the 2PC, reopens, commits an unrelated batch B, then
/// recovers once more and checks A is still all-or-nothing and B intact.
/// (Keys 100–102 and 200–202 both span shards 0 and 2 of 3 under the
/// routing hash, so both batches take the cross-shard prepare/commit path.)
#[test]
fn aborted_batch_id_is_never_reused_after_reopen() {
    let shards = 3;
    let mut kill = 0u64;
    let mut crashes = 0u32;
    loop {
        let dir = unique_dir("gc-id-reuse");
        let fp = FailPoint::new();
        let crashed = {
            let db = ShardedLetheBuilder::from_builder(builder().crash_failpoint(fp.clone()))
                .shards(shards)
                .open(&dir)
                .unwrap();
            fp.arm(kill);
            let mut a = WriteBatch::new();
            for k in [100u64, 101, 102] {
                a.put(k, delete_key_of(k), vec![0xAA; 9]);
            }
            let res = db.write(a);
            fp.disarm();
            res.is_err()
        };
        // first recovery rolls A back (or replays it in full if the crash
        // landed past the commit point); then an unrelated batch commits —
        // its id must be fresh, not A's leftover
        let a_applied = {
            let db =
                ShardedLetheBuilder::from_builder(builder()).shards(shards).open(&dir).unwrap();
            let a_applied = db.get(100).unwrap().is_some();
            for k in [101u64, 102] {
                assert_eq!(
                    db.get(k).unwrap().is_some(),
                    a_applied,
                    "torn batch A after first recovery (kill {kill})"
                );
            }
            let mut b = WriteBatch::new();
            for k in [200u64, 201, 202] {
                b.put(k, delete_key_of(k), vec![0xBB; 9]);
            }
            db.write(b).unwrap();
            a_applied
        };
        // the second recovery is where id reuse would bite: B's commit
        // record must not retroactively commit A's stale prepared slices
        {
            let db =
                ShardedLetheBuilder::from_builder(builder()).shards(shards).open(&dir).unwrap();
            for k in [100u64, 101, 102] {
                assert_eq!(
                    db.get(k).unwrap().is_some(),
                    a_applied,
                    "rolled-back batch slice resurrected by id reuse (kill {kill})"
                );
            }
            for k in [200u64, 201, 202] {
                assert!(
                    db.get(k).unwrap().is_some(),
                    "committed batch B lost after recovery (kill {kill})"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        if !crashed {
            break;
        }
        crashes += 1;
        kill += 1;
    }
    // 4 injectable durable steps under OnFlush: one prepare append per
    // involved shard plus the commit log's append and fsync checks — the
    // sweep must at least cross the all-prepared-uncommitted window
    assert!(crashes >= 4, "sweep must cross the prepare/commit windows, got {crashes}");
}

// --------------------------------------------- checkpoint kill-point sweep

/// Kill-point sweep across every durable step of an online checkpoint.
///
/// One store is built and a snapshot pinned once; the sweep then repeatedly
/// streams that pinned snapshot into a fresh checkpoint directory with the
/// fail point armed one step further each round, while the live store keeps
/// taking writes between rounds (the pinned fence never moves, and the
/// workers are drained before each armed window so the injected step is
/// deterministic). A torn checkpoint must be **detectably incomplete**:
/// [`Lethe::restore`] refuses the directory, it never opens silently short.
/// The surviving run must restore to exactly the oracle frozen at the
/// snapshot fence — none of the post-fence writes may leak across. The
/// fired-site audit proves the sweep crossed *every* durable step of the
/// checkpoint protocol: data-page writes, the manifest commit, and the
/// completeness marker's tmp write and rename.
#[test]
fn checkpoint_kill_point_sweep() {
    let dir = unique_dir("ckpt-sweep");
    let fp = FailPoint::new();
    let db = ShardedLetheBuilder::from_builder(builder().crash_failpoint(fp.clone()))
        .shards(3)
        .open(&dir)
        .unwrap();
    let mut rng = StdRng::seed_from_u64(0xC4E7);
    let mut oracle: Oracle = BTreeMap::new();
    for _ in 0..150 {
        let op = random_op(&mut rng);
        apply_sharded(&db, &op).unwrap();
        apply_oracle(&mut oracle, &op);
    }
    db.persist().unwrap();

    let snapshot = db.snapshot();
    let frozen = oracle.clone();

    let mut kill = 0u64;
    let mut crashes = 0u32;
    let mut fired: BTreeSet<KillPoint> = BTreeSet::new();
    let mut post_key = 10_000u64;
    loop {
        // the store keeps moving while the pinned fence stays put; drain
        // the workers so the armed window below is deterministic
        for _ in 0..4 {
            db.put(post_key, delete_key_of(post_key % KEY_SPACE), vec![0xEE; 9]).unwrap();
            post_key += 1;
        }
        db.maintain().unwrap();

        let ckpt = unique_dir("ckpt-out");
        fp.arm(kill);
        let res = db.checkpoint_at(&snapshot, &ckpt);
        fp.disarm();
        match res {
            Err(_) => {
                crashes += 1;
                fired.insert(fp.last_fired().expect("an injected kill records its site"));
                // torn checkpoints are detectably incomplete, never
                // silently short
                assert!(
                    Lethe::restore(&ckpt).is_err(),
                    "restore accepted a torn checkpoint (kill {kill})"
                );
                let _ = std::fs::remove_dir_all(&ckpt);
            }
            Ok(marker) => {
                assert_eq!(marker.fence, snapshot.seqnum());
                let restored = Lethe::restore(&ckpt).unwrap();
                for k in 0..KEY_SPACE {
                    assert_eq!(
                        restored.get(k).unwrap().map(|b| b.to_vec()),
                        frozen.get(&k).cloned(),
                        "restored key {k} diverged from the fence oracle"
                    );
                }
                // none of the post-fence writes leaked across the fence
                let live: Vec<u64> = restored
                    .range(0, u64::MAX)
                    .unwrap()
                    .into_iter()
                    .map(|(k, _)| k)
                    .collect();
                let expected: Vec<u64> = frozen.keys().copied().collect();
                assert_eq!(live, expected, "restored scan shows post-fence writes");
                let _ = std::fs::remove_dir_all(&ckpt);
                break;
            }
        }
        kill += 1;
    }
    assert!(crashes >= 5, "sweep must cross the checkpoint's durable steps, got {crashes}");
    let expected: BTreeSet<KillPoint> = [
        KillPoint::BackendWritePage,
        KillPoint::ManifestRewriteBegin,
        KillPoint::ManifestRewriteRename,
        KillPoint::CheckpointMarkerTmp,
        KillPoint::CheckpointMarkerRename,
    ]
    .into_iter()
    .collect();
    assert_eq!(fired, expected, "the sweep must kill inside every durable checkpoint step");
    // the live store was never damaged by any of the torn checkpoints
    for k in 0..KEY_SPACE {
        assert_eq!(
            db.get(k).unwrap().map(|b| b.to_vec()),
            oracle.get(&k).cloned(),
            "live store diverged on key {k} after the sweep"
        );
    }
    assert!(db.get(10_000).unwrap().is_some(), "post-fence writes must be live");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An online checkpoint under genuinely concurrent writers: three threads
/// overwrite and delete the snapshotted keys the whole time the checkpoint
/// streams, and the restored store must still read exactly the oracle
/// frozen at the snapshot fence, byte for byte.
#[test]
fn checkpoint_restores_the_fence_despite_concurrent_writers() {
    let dir = unique_dir("ckpt-live");
    let ckpt = unique_dir("ckpt-live-out");
    let db = ShardedLetheBuilder::from_builder(builder()).shards(3).open(&dir).unwrap();
    let mut frozen: Oracle = BTreeMap::new();
    for k in 0..KEY_SPACE {
        let v = vec![(k % 251) as u8; 9];
        db.put(k, delete_key_of(k), v.clone()).unwrap();
        frozen.insert(k, v);
    }
    db.persist().unwrap();

    let snapshot = db.snapshot();
    let stop = AtomicBool::new(false);
    let marker = std::thread::scope(|s| {
        let stop = &stop;
        let db = &db;
        let writers: Vec<_> = (0..3u64)
            .map(|t| {
                s.spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) && i < 5_000 {
                        let k = (t * 1_000 + i) % KEY_SPACE;
                        db.put(k, delete_key_of(k), vec![0xEE; 9]).unwrap();
                        if i.is_multiple_of(64) {
                            db.delete((i * 7) % KEY_SPACE).unwrap();
                        }
                        i += 1;
                    }
                })
            })
            .collect();
        let marker = db.checkpoint_at(&snapshot, &ckpt).unwrap();
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        marker
    });
    assert_eq!(marker.fence, snapshot.seqnum());

    let restored = Lethe::restore(&ckpt).unwrap();
    for k in 0..KEY_SPACE {
        assert_eq!(
            restored.get(k).unwrap().map(|b| b.to_vec()),
            frozen.get(&k).cloned(),
            "restored key {k} shows a concurrent writer's data"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ckpt);
}
