//! Oracle-checked crash-recovery tests for the durable engine.
//!
//! Three crash models are exercised, each against a `BTreeMap` model of the
//! acknowledged state (`sim::Model`):
//!
//! * **Abrupt kill** — the engine is dropped at an operation boundary with
//!   no warning. Everything acknowledged must be returned by the reopened
//!   store (manifest recovery for flushed data, WAL replay for the buffered
//!   tail).
//! * **Injected kill** — the store runs on a [`FaultVfs`], which fails the
//!   n-th call that changes a file or a directory, simulating a kill
//!   *inside* a flush, compaction, WAL truncation or manifest rewrite. Every
//!   such call is a kill site, named by the file it touches and the call
//!   (`manifest.sync_data`, `segment.create`, …). The kill-point sweeps
//!   replay one scripted workload for every reachable n, so every ordering
//!   window of the protocol (pages written but manifest not committed,
//!   manifest committed but WAL not yet truncated, mid-rewrite, …) is
//!   crossed at least once. After an injected kill, only the single
//!   in-flight operation may be in either its before or after state; every
//!   earlier acknowledgement must hold exactly.
//! * **Power loss** — on a [`MemVfs`], which keeps what each barrier made
//!   durable, [`MemVfs::crash`] drops, keeps a prefix of, or tears what no
//!   barrier covered, file bytes and directory entries alike. Under
//!   `SyncPolicy::Always` every acknowledged write must survive; under
//!   `OnFlush` the store must come back as some prefix of its history no
//!   shorter than the last `persist()`.
//!
//! The seeded simulator (`tests/sim`) draws histories that mix all three
//! with restarts, on one and three shards under both policies. The sweeps
//! and the simulator run the tiny test tree on a `MemVfs`: its data
//! segments are 4 KiB (`LsmConfig::segment_target_bytes`), so a few
//! flushes fill, seal and roll one, and a compaction leaves dead ones to
//! unlink. The tests that tear or plant files on the host file system run
//! in a temporary directory.

#![expect(
    clippy::disallowed_methods,
    reason = "the tests list, tear and plant store files on disk as a crash or an operator would"
)]

mod sim;

use bytes::Bytes;
use lethe::lsm::{CompactionStrategy, LsmConfig};
use lethe::storage::{FaultVfs, KillPoint, MemVfs, SyncPolicy, Vfs};
use lethe::{Lethe, LetheBuilder, ShardedLetheBuilder, WriteBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim::{delete_key_of, value, Config, Model, Op, Store, DIR, KEY_SPACE};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn unique_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "lethe-crash-{tag}-{}-{n}",
        std::process::id()
    ))
}

/// A fresh, disarmed fault wrapper over an empty in-memory file system.
fn mem_faults() -> Arc<FaultVfs> {
    FaultVfs::new(MemVfs::shared())
}

/// The sites of `sites`, by name (`manifest.sync_data`, …).
fn names(sites: impl IntoIterator<Item = KillPoint>) -> BTreeSet<String> {
    sites.into_iter().map(|site| site.to_string()).collect()
}

/// The sweeps' tree. They test the protocol's order, which a kill that
/// loses nothing written exercises under any policy, so they take the
/// relaxed one, which keeps them fast; what each policy makes durable
/// across a power loss is the simulator's to check.
fn tiny_config() -> LsmConfig {
    sim::config(SyncPolicy::OnFlush)
}

fn builder() -> LetheBuilder {
    sim::builder(SyncPolicy::OnFlush)
}

/// Ids of the data segments of the single-shard store in `dir` on `vfs`,
/// ascending (`lethe.data` is segment 0, `lethe.data.<id>` segment `<id>`).
fn data_segments(vfs: &dyn Vfs, dir: &Path) -> Vec<u64> {
    let mut ids: Vec<u64> = vfs
        .list(dir)
        .unwrap()
        .iter()
        .filter_map(|name| {
            let suffix = name.strip_prefix("lethe.data")?;
            if suffix.is_empty() { Some(0) } else { suffix.strip_prefix('.')?.parse().ok() }
        })
        .collect();
    ids.sort_unstable();
    ids
}

/// The path of data segment `id` of the single-shard store in `dir`.
fn segment_path(dir: &Path, id: u64) -> PathBuf {
    if id == 0 { dir.join("lethe.data") } else { dir.join(format!("lethe.data.{id}")) }
}

/// The newest data segment of the single-shard store in `dir` on `vfs`.
fn newest_segment(vfs: &dyn Vfs, dir: &Path) -> PathBuf {
    segment_path(dir, *data_segments(vfs, dir).last().unwrap())
}

// ---------------------------------------------------------------- simulator

/// The simulator's tier-1 budget: seeds per configuration (times
/// `LETHE_STRESS_ROUNDS` when set) and ops per seed.
const SIM_SEEDS: u64 = 32;
const SIM_OPS: usize = 300;

/// Kills and restarts only: with power losses this configuration fails,
/// on the three findings the tests below pin.
#[test]
fn sim_one_shard_on_flush() {
    let config = Config { shards: 1, sync: SyncPolicy::OnFlush, power_loss: false };
    sim::run_seeds(config, SIM_SEEDS, SIM_OPS);
}

#[test]
fn sim_one_shard_always() {
    let config = Config { shards: 1, sync: SyncPolicy::Always, power_loss: true };
    sim::run_seeds(config, SIM_SEEDS, SIM_OPS);
}

/// No power loss: the prefix a store of three shards comes back as is one
/// per shard, which the model cannot follow without the routing function.
#[test]
fn sim_three_shards_on_flush() {
    let config = Config { shards: 3, sync: SyncPolicy::OnFlush, power_loss: false };
    sim::run_seeds(config, SIM_SEEDS, SIM_OPS);
}

#[test]
fn sim_three_shards_always() {
    let config = Config { shards: 3, sync: SyncPolicy::Always, power_loss: true };
    sim::run_seeds(config, SIM_SEEDS, SIM_OPS);
}

// Findings, not fixed: a single-shard `OnFlush` store that loses power can
// come back as a state no prefix of its history left, or not at all. Each
// test replays the simulator's shrunk line and asserts the failure as it
// stands; once it is fixed, `sim_one_shard_on_flush` runs with power losses.

/// The failure the simulator reports for `ops` on a single-shard `OnFlush`
/// store that may lose power, at their last op.
fn on_flush_failure(ops: &[Op]) -> String {
    let config = Config { shards: 1, sync: SyncPolicy::OnFlush, power_loss: true };
    let (at, failure) = sim::replay(config, ops).unwrap_err();
    assert_eq!(at, ops.len() - 1, "{failure}");
    failure
}

/// A fresh store's segment 0 is created with no directory barrier, and the
/// first one is the manifest publish's, behind its rename. Killed at that
/// barrier (`Kill(7)` fails the persist's eighth mutating call), a power
/// loss that lands the rename but not the segment's create
/// leaves a manifest naming pages no file holds. A first sync of segment 0
/// that syncs the directory fixes it, at one barrier per new store, which
/// the ledger's `fsyncs_per_write` counts.
#[test]
fn a_first_manifest_can_outlive_the_segment_it_names() {
    use Op::*;
    let ops = [Put(5, 1), DeleteRange(0, 10), Put(20, 2), Kill(7, Some(14)), Persist];
    let failure = on_flush_failure(&ops);
    assert!(failure.contains("does not reopen") && failure.contains("missing page"), "{failure}");
}

/// A flush's manifest commit is durable before the WAL records it covers
/// are, and the WAL is cut only after it. A power loss in between keeps the
/// new manifest and a prefix of the old log, and the replay plays that
/// prefix over the state it already holds: key 5's put outlives the range
/// delete after it. Syncing the log before the commit puts a barrier on
/// every flush; naming the records a manifest covers changes both formats.
#[test]
fn a_wal_prefix_replays_over_the_flush_that_covered_it() {
    use Op::*;
    let ops = [Put(5, 1), DeleteRange(0, 10), Put(20, 2), Kill(7, Some(22)), Persist];
    let failure = on_flush_failure(&ops);
    assert!(failure.contains("reads [5, 20], which no prefix"), "{failure}");
}

/// A secondary range delete that drops flushed pages commits them through
/// the manifest at once, while the writes acknowledged before it sit in the
/// unsynced WAL. A power loss then keeps the delete and loses the writes
/// before it: key 46 is persisted, key 107 put, and the delete of 46's
/// delete key (146) survives while the put of 107 does not. Syncing the WAL
/// before that commit puts a barrier on every such delete, the ledger's
/// `purge_window` included.
#[test]
fn a_secondary_delete_outlives_the_writes_before_it() {
    use Op::*;
    let loss = PowerLoss(1077542982784549563);
    let ops = [Put(46, 51), Persist, Put(107, 8), SecondaryDelete(141, 193), loss];
    assert!(on_flush_failure(&ops).contains("reads [], which no prefix"));
}

/// A kill fails the put of key 172 at its WAL barrier: the put is never
/// acknowledged, but its record reached the log, so the reopened store
/// serves it. Under `Always` what a store serves must then survive a power
/// loss, which tears the record's never-synced bytes unless the replay
/// syncs the log first.
#[test]
fn a_reopen_makes_what_it_replays_durable() {
    let config = Config { shards: 1, sync: SyncPolicy::Always, power_loss: true };
    let ops = [
        Op::Put(74, 52),
        Op::Kill(3, None),
        Op::DeleteRange(47, 87),
        Op::Put(172, 157),
        Op::PowerLoss(4289421067876883069),
    ];
    sim::replay(config, &ops).unwrap();
}

/// A fresh single-shard store under `Always` acknowledges its first put
/// after a WAL `sync_data`, and a power loss before the first flush must
/// not drop the WAL's directory entry, and the put with it: the first
/// commit of a WAL syncs its directory.
#[test]
fn a_fresh_wal_survives_a_power_loss_after_its_first_commit() {
    let config = Config { shards: 1, sync: SyncPolicy::Always, power_loss: true };
    // sixteen power losses, every mode among them
    for seed in 0..16 {
        sim::replay(config, &[Op::Put(1, 7), Op::PowerLoss(seed)]).unwrap();
        // and so does a WAL a clean restart reopened before anything synced
        sim::replay(config, &[Op::Restart, Op::Put(1, 7), Op::PowerLoss(seed)]).unwrap();
    }
}

/// A kill struck a persist after its pages had filled a data segment and
/// before a barrier covered them. The reopen took the full segment, which
/// had no index frame, for sealed; its successor took the writes, and no
/// barrier ever covered its tail. A power loss then tore that tail, and the
/// store did not reopen ("torn frame at offset 3922 of a sealed segment").
/// An open now finds a segment sealed only when it ends in its index frame,
/// so the next `sync()` seals this one behind its own barrier.
/// `sim_one_shard_always` seed 1277, shrunk.
#[test]
fn a_reopen_seals_no_segment_that_no_barrier_made_durable() {
    use Op::*;
    let config = Config { shards: 1, sync: SyncPolicy::Always, power_loss: true };
    let ops = [
        Put(179, 141), Put(13, 57), Put(188, 245), Put(20, 121), Put(162, 108), Put(225, 48),
        Persist, Put(83, 168), Put(22, 237), Put(55, 212), Put(111, 43), Put(7, 124),
        Put(145, 98), Put(176, 255), Put(168, 94), Put(205, 246), Persist, Put(252, 156), Persist,
        Put(152, 47), Put(133, 206), Put(74, 148), Put(208, 238), Put(171, 90), Put(102, 15),
        Persist, Put(4, 219), Put(75, 185), Put(28, 28), Put(242, 163), Put(147, 98),
        Put(163, 7), Put(106, 205), SecondaryDelete(229, 276), Put(199, 243), Persist,
        Put(184, 122), Put(215, 154), Put(239, 194), DeleteRange(44, 99), Put(118, 135), Persist,
        Put(57, 249), Put(218, 182), Persist, Put(0, 176), Put(128, 85), Put(73, 133),
        Put(21, 138), Persist, Put(166, 248), Put(141, 77), Put(60, 30), Put(86, 102),
        Put(237, 84), Persist, Put(26, 201), Put(19, 14), Put(30, 50), Put(56, 212), Put(64, 122),
        Put(206, 66), Put(87, 24), Put(198, 57), Put(193, 125), Persist, DeleteRange(24, 55),
        Put(58, 228), Put(151, 17), Put(154, 98), Put(217, 45), Persist, Put(156, 155),
        DeleteRange(191, 250), DeleteRange(90, 137), Put(107, 2), Put(251, 6), Put(6, 234),
        Kill(22, None), Persist, DeleteRange(89, 102), Persist, Persist,
        PowerLoss(10744700000286242694),
    ];
    assert_eq!(ops.len(), 84);
    sim::replay(config, &ops).unwrap();
}

/// A kill struck a persist's manifest edit at its barrier. The reopen
/// folded the edit in all the same and released the pages it forgot, which
/// unlinked the data segment they had left empty; the WAL replay's
/// directory barrier then made the unlink durable. A power loss that kept
/// only what barriers made durable took the edit back, and the store did
/// not reopen ("manifest references missing page"). Small segments made
/// the unlink real: a 16 MiB segment never emptied in so short a history.
/// The manifest's open now syncs the log it folds. `sim_one_shard_always`
/// seed 217, shrunk.
#[test]
fn a_reopen_makes_the_manifest_it_folds_durable() {
    use Op::*;
    let config = Config { shards: 1, sync: SyncPolicy::Always, power_loss: true };
    let ops = [
        Put(103, 96), Put(217, 192), Put(19, 144), Put(105, 40), Put(14, 121), Put(84, 220),
        Put(242, 246), Put(31, 196), Put(20, 217), Persist, Put(80, 166), Put(57, 52),
        Put(122, 221), Put(229, 202), Put(159, 60), Put(10, 136), Put(110, 72), Put(245, 147),
        Put(192, 36), Persist, Put(165, 75), Kill(10, None), Put(87, 107), Put(161, 152),
        Persist, Persist, Put(28, 50), Persist, Put(13, 56), Put(100, 121), Put(56, 61), Persist,
        SecondaryDelete(197, 209), Put(187, 152), Put(93, 88), Put(222, 34), Persist,
        Put(42, 176), SecondaryDelete(141, 159), Put(138, 197), Put(167, 126), Put(211, 248),
        Kill(32, None), Put(130, 66), Persist, DeleteRange(87, 118), Persist,
        PowerLoss(5315590640913105143),
    ];
    sim::replay(config, &ops).unwrap();
}

// ----------------------------------------------------------- headline tests

/// The bug this subsystem exists to fix: before the manifest, a durable
/// store forgot everything that had been flushed (the flush truncated the
/// WAL without persisting the tree's file layout).
#[test]
fn flushed_data_survives_reopen() {
    let dir = unique_dir("flushed");
    let mut expected: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
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

/// One flipped high bit in the length of the newest data segment's second
/// frame reads as a torn tail there, and the manifest then names pages the
/// scan did not find: the open fails with `Corruption`. It must fail having
/// written nothing, so the segment keeps every frame behind the damage for
/// whoever repairs the store.
#[test]
fn a_failed_open_cuts_nothing() {
    let vfs = MemVfs::shared();
    let dir = Path::new(DIR);
    {
        let mut db = builder().open_on(Arc::clone(&vfs), dir).unwrap();
        for i in 0..2000u64 {
            let k = i % KEY_SPACE;
            db.put(k, delete_key_of(k), vec![(i % 251) as u8; 9]).unwrap();
        }
        db.persist().unwrap();
    }
    let segment = newest_segment(vfs.as_ref(), dir);
    let mut bytes = vfs.read(&segment).unwrap();
    // a page frame is `tag (4) · page id (8) · len (4) · sum (4) · payload`
    let second = 20 + u32::from_be_bytes(bytes[12..16].try_into().unwrap()) as usize;
    bytes[second + 12] ^= 0x80;
    let file = vfs.open(&segment, false).unwrap();
    file.set_len(0).unwrap();
    file.append(&bytes).unwrap();
    match builder().open_on(Arc::clone(&vfs), dir) {
        Err(lethe::storage::StorageError::Corruption(msg)) => {
            assert!(msg.contains("missing page"), "{msg}")
        }
        other => panic!("expected corruption, got {:?}", other.map(|_| ())),
    }
    assert_eq!(vfs.read(&segment).unwrap(), bytes, "a failed open cuts nothing");
}

/// A WAL or a batch log without its file magic is a file of another
/// format, or one whose magic was damaged: the store's open fails with
/// `Corruption` naming the file, and leaves it byte for byte as it was,
/// never reading it as an empty log.
#[test]
fn a_log_without_its_magic_fails_the_open_and_is_left_as_it_is() {
    let vfs = MemVfs::shared();
    // overwrites the log at `path` with its frames alone, and returns them
    let strip_magic = |path: &Path| {
        let bytes = vfs.read(path).unwrap();
        assert!(bytes.len() > 8, "{path:?} holds frames behind its magic");
        let file = vfs.open(path, false).unwrap();
        file.set_len(0).unwrap();
        file.append(&bytes[8..]).unwrap();
        bytes[8..].to_vec()
    };
    let refused = |opened: Result<(), lethe::storage::StorageError>, path: &Path, bytes: &[u8]| {
        let name = path.file_name().unwrap().to_str().unwrap();
        match opened {
            Err(lethe::storage::StorageError::Corruption(msg)) => {
                assert!(msg.contains(name), "the error names {name}: {msg}")
            }
            other => panic!("{name} without its magic opened: {other:?}"),
        }
        assert_eq!(vfs.read(path).unwrap(), bytes, "a refused open leaves {name} as it is");
    };

    let single = Path::new("/single");
    {
        let mut db = builder().open_on(Arc::clone(&vfs), single).unwrap();
        for k in 0..8u64 {
            db.put(k, delete_key_of(k), vec![1u8; 9]).unwrap();
        }
    }
    let wal = single.join("lethe.wal");
    let bytes = strip_magic(&wal);
    refused(builder().open_on(Arc::clone(&vfs), single).map(|_| ()), &wal, &bytes);

    let sharded = Path::new("/sharded");
    let two_shards = || ShardedLetheBuilder::from_builder(builder()).shards(2);
    {
        let db = two_shards().open_on(Arc::clone(&vfs), sharded).unwrap();
        let mut batch = WriteBatch::new();
        for k in 0..8u64 {
            batch.put(k, delete_key_of(k), vec![2u8; 9]);
        }
        db.write(batch).unwrap();
    }
    let batches = sharded.join("BATCHES");
    let bytes = strip_magic(&batches);
    refused(two_shards().open_on(Arc::clone(&vfs), sharded).map(|_| ()), &batches, &bytes);
}

/// Keys of [`sealed_store_with_dead_frames`]: `[0, 96)`.
const SEALED_KEYS: u64 = 96;

/// The delete keys [`sealed_store_with_dead_frames`] purges: `[0, 94)`.
const PURGED: std::ops::Range<u64> = 0..94;

/// The value of key `k` in [`sealed_store_with_dead_frames`].
fn sealed_store_value(k: u64) -> Option<Bytes> {
    (!PURGED.contains(&delete_key_of(k))).then(|| Bytes::from(value(k as u8)))
}

/// A sealed data segment: its path, its frames (see [`frames_of`]), and
/// the ids of its live and of its dead page frames.
struct Sealed {
    path: PathBuf,
    frames: Vec<(usize, u64, usize)>,
    live: Vec<u64>,
    dead: Vec<u64>,
}

/// Builds, on `vfs`, a store whose 96 keys flushed and compacted into
/// sealed data segments, and whose secondary range delete then dropped
/// some pages whole and rewrote others. Returns every sealed segment (all
/// but the newest, each ending in its index frame); at least one holds
/// both live pages and dead frames.
fn sealed_store_with_dead_frames(vfs: Arc<dyn Vfs>, dir: &Path) -> Vec<Sealed> {
    let mut db = builder().open_on(vfs.clone(), dir).unwrap();
    for k in 0..SEALED_KEYS {
        db.put(k, delete_key_of(k), value(k as u8)).unwrap();
    }
    db.persist().unwrap();
    db.delete_where_delete_key_in(PURGED.start, PURGED.end).unwrap();
    db.persist().unwrap();
    let referenced = referenced_pages(&db);
    drop(db);
    let mut ids = data_segments(vfs.as_ref(), dir);
    ids.pop();
    let sealed: Vec<Sealed> = ids
        .into_iter()
        .map(|id| {
            let path = segment_path(dir, id);
            let frames = frames_of(&vfs.read(&path).unwrap());
            assert!(ends_in_index(&vfs.read(&path).unwrap()), "segment {id} ends in its index");
            let pages = frames.iter().map(|f| f.1).filter(|&id| id != u64::MAX);
            let (live, dead) = pages.partition(|id| referenced.contains(id));
            Sealed { path, frames, live, dead }
        })
        .collect();
    assert!(sealed.iter().any(|s| !s.live.is_empty() && !s.dead.is_empty()), "no mixed segment");
    sealed
}

/// A sealed segment of `sealed` that holds both live pages and dead frames.
fn mixed(sealed: &[Sealed]) -> &Sealed {
    sealed.iter().find(|s| !s.live.is_empty() && !s.dead.is_empty()).unwrap()
}

/// Every key of [`sealed_store_with_dead_frames`] reads back.
fn check_sealed_store(db: &Lethe) {
    for k in 0..SEALED_KEYS {
        assert!(db.get(k).unwrap() == sealed_store_value(k), "key {k}");
    }
}

/// The frames of a data segment's bytes, in file order, as
/// `(offset, page id, payload length)`. A frame is
/// `tag (4) · page id (8) · len (4) · sum (4) · payload`; the index frame
/// that ends a sealed segment has page id `u64::MAX`.
fn frames_of(bytes: &[u8]) -> Vec<(usize, u64, usize)> {
    let mut frames = Vec::new();
    let mut at = 0;
    while at + 20 <= bytes.len() {
        let id = u64::from_be_bytes(bytes[at + 4..at + 12].try_into().unwrap());
        let len = u32::from_be_bytes(bytes[at + 12..at + 16].try_into().unwrap()) as usize;
        frames.push((at, id, len));
        at += 20 + len;
    }
    frames
}

/// Flips the last payload bit of page `id`'s frame in the segment at
/// `path` (a bit of its last entry's value), and returns the frame's offset.
fn flip_payload_bit(vfs: &dyn Vfs, path: &Path, id: u64) -> usize {
    let mut bytes = vfs.read(path).unwrap();
    let (at, _, len) = frames_of(&bytes).into_iter().find(|f| f.1 == id).unwrap();
    bytes[at + 20 + len - 1] ^= 0x01;
    let file = vfs.open(path, false).unwrap();
    file.set_len(0).unwrap();
    file.append(&bytes).unwrap();
    at
}

/// The segment id a data segment's path names.
fn segment_id(path: &Path) -> u64 {
    let name = path.file_name().unwrap().to_str().unwrap();
    name.strip_prefix("lethe.data.").map_or(0, |id| id.parse().unwrap())
}

#[test]
fn the_open_reads_a_sealed_segments_index_and_live_pages_only() {
    let fault = mem_faults();
    let dir = Path::new(DIR);
    let sealed = sealed_store_with_dead_frames(fault.clone(), dir);
    fault.take_bytes_read();
    let db = builder().open_on(fault.clone(), dir).unwrap();
    let read = fault.take_bytes_read();
    let mut dead_bytes = 0;
    for s in &sealed {
        // the index's trailing length, the index frame, and each live frame
        let size = |ids: &[u64]| -> usize {
            s.frames.iter().filter(|f| ids.contains(&f.1)).map(|&(_, _, len)| 20 + len).sum()
        };
        let index = s.frames.last().map_or(0, |&(_, _, len)| 20 + len);
        assert_eq!(read[&s.path] as usize, 4 + index + size(&s.live), "{:?}", s.path);
        dead_bytes += size(&s.dead);
    }
    assert!(dead_bytes > 0, "dead frames are never read");
    check_sealed_store(&db);
}

#[test]
fn rot_in_a_live_page_fails_the_open_and_rot_in_a_dead_frame_does_not() {
    let vfs = MemVfs::shared();
    let dir = Path::new(DIR);
    let sealed = sealed_store_with_dead_frames(Arc::clone(&vfs), dir);
    let mixed = mixed(&sealed);
    // a dead frame is never read, so its rot fails nothing
    flip_payload_bit(vfs.as_ref(), &mixed.path, mixed.dead[0]);
    let db = builder().open_on(Arc::clone(&vfs), dir).expect("rot in a dead frame opens");
    check_sealed_store(&db);
    drop(db);
    // a live page is read back by the open, which checks its sum
    let at = flip_payload_bit(vfs.as_ref(), &mixed.path, mixed.live[0]);
    match builder().open_on(Arc::clone(&vfs), dir) {
        Err(lethe::storage::StorageError::Corruption(msg)) => {
            let id = segment_id(&mixed.path);
            let page = mixed.live[0];
            let names = format!("segment {id}: page {page}, the frame at offset {at}, fails");
            assert!(msg.contains(&names), "{msg}")
        }
        other => panic!("expected corruption, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn a_compaction_that_reads_a_rotten_page_fails_and_commits_nothing() {
    let vfs = MemVfs::shared();
    let dir = Path::new(DIR);
    let sealed = sealed_store_with_dead_frames(Arc::clone(&vfs), dir);
    let mixed = mixed(&sealed);
    let mut db = builder().open_on(Arc::clone(&vfs), dir).unwrap();
    let referenced = referenced_pages(&db);
    // rot after the open; a full compaction reads every live page
    let at = flip_payload_bit(vfs.as_ref(), &mixed.path, mixed.live[0]);
    match db.tree_mut().force_full_compaction() {
        Err(lethe::storage::StorageError::Corruption(msg)) => {
            let names = format!("page {}, the frame at offset {at}", mixed.live[0]);
            assert!(msg.contains(&names), "{msg}")
        }
        other => panic!("expected corruption, got {other:?}"),
    }
    assert_eq!(referenced_pages(&db), referenced, "the failed job committed nothing");
    drop(db);
    // so the rotten page is still the manifest's, and the open finds it
    match builder().open_on(Arc::clone(&vfs), dir) {
        Err(lethe::storage::StorageError::Corruption(msg)) => {
            assert!(msg.contains(&format!("page {}", mixed.live[0])), "{msg}")
        }
        other => panic!("expected corruption, got {:?}", other.map(|_| ())),
    }
}

// -------------------------------------------------------- kill-point sweep

/// Builds the deterministic workload script shared by the sweep tests.
fn sweep_script() -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut script: Vec<Op> = (0..140).map(|_| Op::random(&mut rng)).collect();
    // make sure the protocol-heavy paths are on the script regardless of
    // what the dice said
    script.push(Op::Persist);
    script.push(Op::SecondaryDelete(0, KEY_SPACE / 2));
    script.push(Op::Persist);
    script
}

/// Replays `script` against a fresh in-memory store with the fault armed at
/// `kill`, then reopens and verifies. With `retry`, the crashed store first
/// runs one more `persist()` and one more put (of a key outside the
/// script's), disarmed: the commit after a failed one must not lose what
/// the failed one left behind, and a put acknowledged after a failure must
/// survive the reopen. Returns the site that fired, `None` once `kill` is
/// past every durable step of the script.
fn run_sweep_iteration(
    script: &[Op],
    kill: u64,
    shards: Option<usize>,
    retry: bool,
) -> Option<KillPoint> {
    let fault = mem_faults();
    let mut model = Model::default();
    let mut pending: Option<Op> = None;
    let mut late_put = false;
    let open = || -> Box<dyn Store> {
        match shards {
            None => Box::new(builder().open_on(fault.clone(), DIR).unwrap()),
            Some(n) => Box::new(
                ShardedLetheBuilder::from_builder(builder())
                    .shards(n)
                    .open_on(fault.clone(), DIR)
                    .unwrap(),
            ),
        }
    };
    {
        let mut store = open();
        fault.arm(kill);
        for op in script {
            match store.apply(op) {
                Ok(()) => model.apply(op),
                Err(_) => {
                    pending = Some(op.clone());
                    break;
                }
            }
        }
        fault.disarm();
        if retry && pending.is_some() {
            let _ = store.apply(&Op::Persist);
            late_put = store.apply(&Op::Put(KEY_SPACE, 7)).is_ok();
        }
    }
    // every fault fails the op it fires in, a retired page's segment
    // unlink included
    let fired = fault.last_fired();
    assert_eq!(pending.is_some(), fired.is_some(), "{pending:?} failed, {fired:?} fired");
    let store = open();
    sim::verify(store.as_ref(), &mut model, pending.as_ref()).unwrap();
    if late_put {
        let late = store.get(KEY_SPACE).unwrap();
        assert_eq!(late, Some(Bytes::from(value(7))), "the put after {fired:?} was lost");
    }
    fired
}

#[test]
fn kill_point_sweep_single_shard() {
    let script = sweep_script();
    // dense coverage of the early protocol steps, sparser further out; the
    // sweep ends when a kill index is past the script's last durable step
    let mut kill = 0u64;
    let mut crashes = 0u32;
    let mut fired = BTreeSet::new();
    while let Some(site) = run_sweep_iteration(&script, kill, None, false) {
        fired.insert(site);
        crashes += 1;
        kill += 1 + kill / 16;
    }
    assert!(crashes > 30, "sweep must cross many kill points, got {crashes}");
    let fired = names(fired);
    for site in ["wal.append", "segment.append", "manifest.append", "manifest.sync_data"] {
        assert!(fired.contains(site), "the sweep never died at {site}: {fired:?}");
    }
}

#[test]
fn kill_point_sweep_sharded() {
    let script = sweep_script();
    let mut kill = 0u64;
    let mut crashes = 0u32;
    while run_sweep_iteration(&script, kill, Some(3), false).is_some() {
        crashes += 1;
        kill += 1 + kill / 12;
    }
    assert!(crashes > 30, "sweep must cross many kill points, got {crashes}");
}

/// Kills the sweep script at every call up to the third it makes at
/// `site`, each time with `run_sweep_iteration`'s retry: one more
/// `persist()` and one more put before the reopen.
fn sweep_with_retry_at(site: &str) {
    let script = sweep_script();
    let mut hits = 0;
    let mut kill = 0u64;
    while hits < 3 {
        let fired = run_sweep_iteration(&script, kill, None, true).expect("the script ran out");
        hits += usize::from(fired.to_string() == site);
        kill += 1;
    }
}

/// The manifest's delta is in its log and its `sync_data` fails.
#[test]
fn a_failed_manifest_sync_loses_nothing() {
    sweep_with_retry_at("manifest.sync_data");
}

/// A flush's or compaction's pages are written, and the segment barrier
/// that must precede its manifest commit fails.
#[test]
fn a_failed_segment_sync_before_a_commit_loses_nothing() {
    sweep_with_retry_at("segment.sync_all");
}

/// A directory barrier fails: the first flush's new segment, then the
/// manifest's and the WAL's renamed files.
#[test]
fn a_failed_directory_sync_loses_nothing() {
    sweep_with_retry_at("dir.sync_dir");
}

/// The index of the first call at `site` a run makes: the least `kill`
/// whose traced run, armed there, reached the site (a run reaches every
/// site it reached when armed earlier).
fn first_call_at(site: &str, run: impl Fn(u64) -> Arc<FaultVfs>) -> u64 {
    let (mut lo, mut hi) = (0u64, 64u64);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if names(run(mid).traced_sites()).contains(site) { hi = mid } else { lo = mid + 1 }
    }
    lo
}

/// A flush's manifest edit reached the log, so it names the flush's pages,
/// but the edit's barrier failed. Those pages must outlive the failure, as a
/// crash would leave them: here they fill the fresh store's first segment on
/// their own, so releasing them would leave that segment empty, the retried
/// flush's first page write would roll past it and unlink it, and a crash
/// before the retry commits would reopen onto a manifest naming pages that
/// are gone.
#[test]
fn a_landed_manifest_edit_keeps_its_pages_when_its_barrier_fails() {
    // a one-page buffer makes the segment target the buffer's 256 bytes:
    // three 85-byte entries stay buffered until a persist flushes them as
    // one page, whose frame alone fills a segment
    let builder = || {
        let mut cfg = tiny_config();
        cfg.buffer_pages = 1;
        LetheBuilder::new().with_config(cfg).delete_persistence_threshold_secs(1.0)
    };
    let value = |k: u64| vec![k as u8; 60];
    // 3 keys are acknowledged; the persist that flushes them is killed at
    // its `kill`-th call and, with a `retry`, a second persist at that one's
    // `retry`-th. Returns the traced wrapper and the store's segments.
    let run = |kill: u64, retry: Option<u64>| -> (Arc<FaultVfs>, Vec<u64>) {
        let fault = mem_faults();
        fault.enable_trace();
        let mut db = builder().open_on(fault.clone(), DIR).unwrap();
        for k in 0..3u64 {
            db.put(k, delete_key_of(k), value(k)).unwrap();
        }
        fault.arm(kill);
        let _ = db.persist();
        if let Some(retry) = retry {
            fault.arm(retry);
            assert!(db.persist().is_err(), "retry {retry} is past the persist");
        }
        fault.disarm();
        let segments = data_segments(fault.as_ref(), Path::new(DIR));
        (fault, segments)
    };
    let fired = |fault: &FaultVfs| fault.last_fired().unwrap().to_string();
    // the store's first commit writes a snapshot: its edit lands with the
    // rename, and the directory barrier behind it fails
    let kill = first_call_at("manifest.rename", |kill| run(kill, None).0) + 1;
    assert_eq!(fired(&run(kill, None).0), "dir.sync_dir");
    // the retried flush's first page write into a new segment
    let retry =
        (0..).find(|&retry| fired(&run(kill, Some(retry)).0) == "segment.append").unwrap();
    let (fault, segments) = run(kill, Some(retry));
    assert_eq!(segments.len(), 2, "the failed flush's segment is still there: {segments:?}");
    let db = builder().open_on(fault, DIR).unwrap();
    for k in 0..3u64 {
        assert_eq!(db.get(k).unwrap(), Some(Bytes::from(value(k))), "key {k}");
    }
}

/// One iteration of the whole-file-drop sweep: ingest an expired timeline
/// into a date-tiered durable store, then crash at the `kill`-th durable
/// step *of the drop commit* (manifest edit before page retirement).
/// Because one `DropFiles` task retires every expired file through a single
/// manifest edit, recovery must see the window either entirely present
/// (crash before the edit landed) or entirely gone — never partially
/// retired, and a re-driven maintenance pass must finish the retirement.
/// Returns the site that fired, `None` once `kill` is past every durable
/// step of the drop.
fn run_drop_sweep_iteration(kill: u64) -> Option<KillPoint> {
    const TIMELINE: u64 = 96;
    let fault = mem_faults();
    let date_tiered = || {
        builder().compaction_strategy(CompactionStrategy::DateTiered {
            base_window_micros: 1_000,
            fan_in: 2,
            ttl_micros: Some(500_000),
        })
    };
    {
        let mut db = date_tiered().open_on(fault.clone(), DIR).unwrap();
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
        fault.arm(kill);
        let crashed = db.maintain().is_err();
        fault.disarm();
        assert_eq!(crashed, fault.last_fired().is_some(), "kill {kill}");
    }
    {
        let mut db = date_tiered().open_on(fault.clone(), DIR).unwrap();
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
    fault.last_fired()
}

#[test]
fn kill_point_sweep_whole_file_drop() {
    let mut kill = 0u64;
    let mut fired = BTreeSet::new();
    while let Some(site) = run_drop_sweep_iteration(kill) {
        fired.insert(site);
        kill += 1;
    }
    // a drop builds no table, so its commit is one manifest append and that
    // append's barrier, and the page retirement behind it unlinks the data
    // segment the dropped files held alone: the sweep must have crashed
    // before the edit landed, between the landed edit and the retirement,
    // and at the unlink
    assert_eq!(kill, 3, "one crash per window of the drop commit");
    let expected = ["manifest.append", "manifest.sync_data", "segment.remove"];
    assert_eq!(names(fired), names_of(&expected));
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
/// follows is a descent of trivial moves. A move's only durable steps are
/// its manifest append and that append's barrier, so a crash at the
/// `kill`-th step of that pass leaves
/// each picked file either at its old level or at its new one: after the
/// reopen every key reads back, every file sits in exactly one level, no
/// page is unreferenced, and a re-driven pass finishes the descent. Returns
/// whether the pass crashed and how many files the reopened store found
/// below level 0.
fn run_move_sweep_iteration(kill: u64) -> (bool, usize) {
    const KEYS: u64 = 256;
    let fault = mem_faults();
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
        let mut db = builder().open_on(fault.clone(), DIR).unwrap();
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
        fault.arm(kill);
        let crashed = db.maintain().is_err();
        fault.disarm();
        assert_eq!(device_barriers(&db), barriers_before, "a move appends no page: nothing to sync");
        let stats = db.stats();
        assert_eq!((stats.entries_compacted, stats.bytes_compacted), (0, 0), "{stats:?}");
        if !crashed {
            assert!(stats.trivial_moves >= 2, "the pass must be a descent of moves: {stats:?}");
            assert_eq!(stats.trivial_moves, stats.compactions);
        }
        crashed
    };
    let mut db = builder().open_on(fault.clone(), DIR).unwrap();
    let descended = check(&db, "after the reopen");
    db.maintain().unwrap();
    let level0 = db.tree().levels()[0].total_bytes();
    assert!(
        level0 <= db.config().level_capacity_bytes(1),
        "the re-driven pass left level 0 saturated ({level0} B), kill {kill}"
    );
    assert!(check(&db, "after the re-driven pass") >= descended.max(2));
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
    // one manifest append and barrier per move: the first kill lands before
    // any file changed level, each later one no earlier than the last
    assert!(descended_at_crash.len() >= 3, "the sweep must cross several moves: {descended_at_crash:?}");
    assert_eq!(descended_at_crash[0], 0, "killed before the append, the file is at its old level");
    assert!(
        descended_at_crash.windows(2).all(|w| w[0] <= w[1]) && descended_at_crash.last() > Some(&0),
        "killed after an append, the file is at its new level: {descended_at_crash:?}"
    );
}

/// Copies every file of `dir` on `from` into `dir` on a fresh `MemVfs`.
fn mem_copy(from: &dyn Vfs, dir: &Path) -> Arc<dyn Vfs> {
    let to = MemVfs::shared();
    to.create_dir_all(dir).unwrap();
    for name in from.list(dir).unwrap() {
        let path = dir.join(name);
        to.open(&path, true).unwrap().append(&from.read(&path).unwrap()).unwrap();
    }
    to
}

/// Whether a data segment's bytes end in its index frame.
fn ends_in_index(bytes: &[u8]) -> bool {
    frames_of(bytes).last().is_some_and(|f| f.1 == u64::MAX)
}

/// A template of the persist sweeps: a store of [`builder`] on a `MemVfs`
/// after rounds of 16 puts and a `persist()` each, the first round after
/// which `done` holds for its newest data segment's bytes, with the model of
/// what it holds.
fn persisted_until(done: impl Fn(&[u8]) -> bool) -> (Arc<dyn Vfs>, Model) {
    let (vfs, dir) = (MemVfs::shared(), Path::new(DIR));
    let mut db = builder().open_on(Arc::clone(&vfs), dir).unwrap();
    let mut model = Model::default();
    for round in 0u64.. {
        for k in 0..16 {
            let op = Op::Put((round * 40 + k * 7) % KEY_SPACE, round as u8);
            db.apply(&op).unwrap();
            model.apply(&op);
        }
        db.persist().unwrap();
        if round > 0 && done(&vfs.read(&newest_segment(vfs.as_ref(), dir)).unwrap()) {
            break;
        }
    }
    (vfs, model)
}

/// What one iteration of a persist sweep saw when its kill fired: whether
/// the newest data segment had reached the target, and whether it ended in
/// its index frame.
type SealState = (bool, bool);

/// One iteration of a persist sweep on a copy of `template`: 64 puts and a
/// `persist()`, killed at their `kill`-th durable step. Their flushes and
/// compactions write pages, seal full segments and roll past them, and
/// retire the pages they replace, which unlinks every segment left with no
/// live page. Wherever the kill lands, the reopened store serves every
/// acknowledged key and the op in flight before or after, holds exactly
/// the pages its manifest references, keeps no dead segment but possibly
/// the newest, and finishes a re-driven `persist()`. Returns the site that
/// fired (`None` once `kill` is past the last step) and, if one did, the
/// newest segment's state at that point.
fn run_persist_sweep_iteration(
    template: &(Arc<dyn Vfs>, Model),
    kill: u64,
) -> (Option<KillPoint>, Option<SealState>) {
    let dir = Path::new(DIR);
    let fault = FaultVfs::new(mem_copy(template.0.as_ref(), dir));
    let mut model = template.1.clone();
    let ops = (0..64).map(|k| Op::Put(k * 13 % KEY_SPACE, 200)).chain([Op::Persist]);
    let mut pending = None;
    {
        let mut db = builder().open_on(fault.clone(), dir).unwrap();
        fault.arm(kill);
        for op in ops {
            if db.apply(&op).is_err() {
                pending = Some(op);
                break;
            }
            model.apply(&op);
        }
        fault.disarm();
        assert_eq!(pending.is_some(), fault.last_fired().is_some(), "kill {kill}");
    }
    let target = tiny_config().segment_target_bytes() as usize;
    let state = fault.last_fired().map(|_| {
        let bytes = fault.read(&newest_segment(fault.as_ref(), dir)).unwrap();
        (bytes.len() >= target, ends_in_index(&bytes))
    });
    let mut db = builder().open_on(fault.clone(), dir).unwrap();
    let reopened = sim::verify(&db, &mut model, pending.as_ref());
    reopened.unwrap_or_else(|e| panic!("after the reopen, kill {kill}: {e}"));
    // the WAL replay's last job left its inputs for the next commit's
    // garbage pass, which runs here
    db.tree().versions().collect_garbage(db.tree().backend().as_ref()).unwrap();
    let live: BTreeSet<u64> = db.tree().backend().page_ids().into_iter().collect();
    assert_eq!(live, referenced_pages(&db), "live pages are not the manifest's, kill {kill}");
    // page ids are issued in file order, so a segment holds the ids from its
    // name up to its successor's: every file but the newest holds a live one
    let segments = data_segments(fault.as_ref(), dir);
    for pair in segments.windows(2) {
        assert!(
            live.range(pair[0]..pair[1]).next().is_some(),
            "dead segment {} of {segments:?} survived the reopen, kill {kill}",
            pair[0]
        );
    }
    db.persist().unwrap();
    let persisted = sim::verify(&db, &mut model, None);
    persisted.unwrap_or_else(|e| panic!("after the re-driven persist, kill {kill}: {e}"));
    (fault.last_fired(), state)
}

/// Sweeps a persist of `template`, one kill at a time, until one runs
/// through; returns the sites it killed at and the states it saw.
fn run_persist_sweep(template: &(Arc<dyn Vfs>, Model)) -> (BTreeSet<String>, BTreeSet<SealState>) {
    let (mut fired, mut states) = (BTreeSet::new(), BTreeSet::new());
    for kill in 0.. {
        let (site, state) = run_persist_sweep_iteration(template, kill);
        let Some(site) = site else { break };
        fired.insert(site.to_string());
        states.extend(state);
    }
    (fired, states)
}

/// The template ends in a sealed segment, which an open does not take for
/// sealed: the first page write cuts its index away (a `set_len` and its
/// barrier) and lands in it, and a later sync seals it again. The writes
/// then roll past it: a roll creates the successor, whose first barrier
/// syncs the directory, and the compactions unlink the segments they
/// empty.
#[test]
fn kill_point_sweep_segment_roll() {
    let template = persisted_until(ends_in_index);
    let (fired, _) = run_persist_sweep(&template);
    let expected = [
        "segment.create",
        "segment.set_len",
        "segment.append",
        "segment.sync_all",
        "segment.remove",
        "manifest.create",
        "manifest.set_len",
        "manifest.append",
        "manifest.sync_all",
        "manifest.sync_data",
        "manifest.rename",
        "wal.create",
        "wal.set_len",
        "wal.append",
        "wal.sync_all",
        "wal.rename",
        "dir.sync_dir",
    ];
    assert_eq!(fired, names_of(&expected), "the sweep must die at every roll step");
}

/// The template ends in a segment with no index, which the persist fills:
/// the sweep kills the index append that seals it and the barrier behind it.
#[test]
fn kill_point_sweep_segment_seal() {
    let template = persisted_until(|bytes| !ends_in_index(bytes));
    let (fired, states) = run_persist_sweep(&template);
    assert!(states.contains(&(true, false)), "{states:?}");
    assert!(states.contains(&(true, true)), "{states:?}");
    let expected = [
        "segment.create",
        "segment.append",
        "segment.sync_all",
        "segment.remove",
        "manifest.create",
        "manifest.set_len",
        "manifest.append",
        "manifest.sync_all",
        "manifest.sync_data",
        "manifest.rename",
        "wal.create",
        "wal.set_len",
        "wal.append",
        "wal.sync_all",
        "wal.rename",
        "dir.sync_dir",
    ];
    assert_eq!(fired, names_of(&expected), "the sweep must die at every seal step");

    // a power loss that tears the index append: the reopen cuts it as a
    // torn tail, the segment takes the next pages, and the next sync seals
    // it again
    let dir = Path::new(DIR);
    let (vfs, mut model) = persisted_until(ends_in_index);
    let path = newest_segment(vfs.as_ref(), dir);
    let index = frames_of(&vfs.read(&path).unwrap()).pop().unwrap();
    let file = vfs.open(&path, false).unwrap();
    file.set_len((index.0 + 20 + index.2 / 2) as u64).unwrap();
    let mut db = builder().open_on(Arc::clone(&vfs), dir).unwrap();
    for k in 0..16 {
        let op = Op::Put(k * 13 % KEY_SPACE, 201);
        db.apply(&op).unwrap();
        model.apply(&op);
    }
    db.persist().unwrap();
    drop(db);
    let db = builder().open_on(Arc::clone(&vfs), dir).unwrap();
    assert_eq!(sim::contents(&db).unwrap(), model);
}

/// `sites` as a set of names.
fn names_of(sites: &[&str]) -> BTreeSet<String> {
    sites.iter().map(|site| site.to_string()).collect()
}

/// Proves the sweeps can reach every kind of durable step: a traced
/// (disarmed) fault wrapper records every site a mixed sharded workload
/// (whose 4 KiB data segments seal, roll and die) and a whole-file drop
/// reach, and the set must equal the one
/// written out below, every append, barrier, rename, unlink and directory
/// sync of every kind of file. A durable step the workload stops reaching,
/// or a new kind of call it starts making, fails this test.
#[test]
fn kill_point_trace_covers_the_whole_registry() {
    let fault = mem_faults();
    fault.enable_trace();
    {
        let db = ShardedLetheBuilder::from_builder(builder())
            .shards(3)
            .open_on(fault.clone(), "/killtrace")
            .unwrap();
        // every mutation stages its WAL frame through the shard's
        // group-commit queue (wal.append)
        for k in 0..48u64 {
            db.put(k, delete_key_of(k), vec![7u8; 16]).unwrap();
        }
        db.delete(3).unwrap();
        db.delete_range(10, 14).unwrap();
        // cross-shard batch: 2PC through the batch-commit log
        // (batch_log.append + batch_log.sync_data)
        let mut batch = WriteBatch::new();
        for k in 100..140u64 {
            batch.put(k, delete_key_of(k), vec![9u8; 16]);
        }
        db.write(batch).unwrap();
        // first persist: flush (segment.append, segment.sync_all), first
        // manifest commit (manifest.create … manifest.rename), WAL
        // truncation (wal.create … wal.rename)
        db.persist().unwrap();
        // second round so a later manifest commit takes the append path
        // (manifest.append, manifest.sync_data) instead of the rewrite
        for k in 200..232u64 {
            db.put(k, delete_key_of(k), vec![5u8; 16]).unwrap();
        }
        db.persist().unwrap();
        // online checkpoint: streams a snapshot into a fresh directory —
        // page writes on the checkpoint backend, its manifest commit, and
        // the completeness marker (checkpoint_marker.create … rename)
        db.checkpoint("/killtrace-ckpt").unwrap();
    }
    // whole-file drop: a date-tiered store whose wholly-expired windows are
    // retired through one manifest edit (manifest.append + sync_data)
    {
        let mut db = builder()
            .compaction_strategy(CompactionStrategy::DateTiered {
                base_window_micros: 1_000,
                fan_in: 2,
                ttl_micros: Some(500_000),
            })
            .open_on(fault.clone(), "/killtrace-drop")
            .unwrap();
        for i in 0..64u64 {
            db.put(i, i * 100, vec![6u8; 16]).unwrap();
        }
        db.persist().unwrap();
        db.clock().advance_secs(10.0);
        db.maintain().unwrap();
        assert!(db.stats().whole_file_drops >= 1, "coverage workload must drive a drop");
    }
    let registry = names_of(&[
        // segments: a roll's create, a page write, the barrier before a
        // manifest edit names the pages, a dead segment's unlink
        "segment.create",
        "segment.append",
        "segment.sync_all",
        "segment.remove",
        // a WAL record, and a truncation's rewrite: its tmp file's create,
        // cut, write and barrier, and the rename
        "wal.create",
        "wal.append",
        "wal.set_len",
        "wal.sync_all",
        "wal.rename",
        // a manifest delta's append and barrier, and a snapshot's rewrite
        "manifest.create",
        "manifest.append",
        "manifest.sync_data",
        "manifest.set_len",
        "manifest.sync_all",
        "manifest.rename",
        // a cross-shard batch's commit record and its barrier
        "batch_log.create",
        "batch_log.append",
        "batch_log.sync_data",
        // the shard count, published once
        "shards.create",
        "shards.set_len",
        "shards.append",
        "shards.sync_all",
        "shards.rename",
        // a checkpoint's completeness marker, published last
        "checkpoint_marker.create",
        "checkpoint_marker.set_len",
        "checkpoint_marker.append",
        "checkpoint_marker.sync_all",
        "checkpoint_marker.rename",
        // behind every rename and every new segment
        "dir.sync_dir",
    ]);
    let traced = names(fault.traced_sites());
    let unreached: Vec<&String> = registry.difference(&traced).collect();
    assert!(
        unreached.is_empty(),
        "kill sites the coverage workload never reached: {unreached:?} (traced: {traced:?})"
    );
    let unlisted: Vec<&String> = traced.difference(&registry).collect();
    assert!(unlisted.is_empty(), "kill sites reached but not listed here: {unlisted:?}");
}

/// Regression: a store's file system reaches its store-wide durable steps
/// too (the `BATCHES` commit log and an online checkpoint's marker), not
/// only the shards' own files.
#[test]
fn the_store_vfs_reaches_batches_and_the_checkpoint() {
    let fault = mem_faults();
    fault.enable_trace();
    {
        let db = ShardedLetheBuilder::from_builder(builder())
            .shards(3)
            .open_on(fault.clone(), DIR)
            .unwrap();
        let mut batch = WriteBatch::new();
        for k in 0..24u64 {
            batch.put(k, delete_key_of(k), vec![4u8; 16]);
        }
        db.write(batch).unwrap();
        db.checkpoint("/ckpt").unwrap();
    }
    let traced = names(fault.traced_sites());
    for site in ["batch_log.append", "batch_log.sync_data", "checkpoint_marker.create"] {
        assert!(traced.contains(site), "{site} never reached: {traced:?}");
    }
}

// ----------------------------------- background-commit kill-point sweep

/// Kill-point sweep targeting the *background* commit sequence explicitly.
///
/// A workload is ingested and fully quiesced with the fault disarmed; a
/// fresh buffer of writes and tombstones is then staged; the fault is
/// armed; and `persist()` drives the shard's worker across the durable
/// steps of its flush/compaction commits — device page writes and sync,
/// manifest append and its barrier, WAL prefix rewrite (so the kill lands
/// in every window: pages written but manifest not committed, manifest
/// appended but not synced, manifest committed / version installed but WAL
/// not yet truncated, mid-rewrite) — with a kill at every index until one
/// sweep survives the whole sequence.
///
/// Three properties are checked per crash. (a) The **live** store keeps
/// serving exactly the acknowledged state: a failed background job installs
/// nothing and the frozen buffer is only cleared by a successful flush, so
/// an injected crash inside the worker never tears the in-memory view.
/// (b) So does the live store after one more, disarmed, `persist()`: the
/// commit after a failed one (a failed manifest barrier included). (c) The
/// **reopened** store recovers exactly the acknowledged state: flushes and
/// compactions never change logical contents, so — unlike a crash inside a
/// foreground write — there is no ambiguous in-flight operation at all.
#[test]
fn kill_point_sweep_background_commit() {
    let mut kill = 0u64;
    let mut crashes = 0u32;
    let mut fired = BTreeSet::new();
    loop {
        let fault = mem_faults();
        let mut model = Model::default();
        let mut crashed = false;
        {
            let mut db = ShardedLetheBuilder::from_builder(builder())
                .shards(1)
                .open_on(fault.clone(), DIR)
                .unwrap();
            let mut rng = StdRng::seed_from_u64(0xBACC);
            // phase 1: ingest and fully quiesce with the fault disarmed
            for _ in 0..120 {
                let op = Op::random(&mut rng);
                if matches!(op, Op::Persist) {
                    continue;
                }
                db.apply(&op).unwrap();
                model.apply(&op);
            }
            db.persist().unwrap();
            // phase 2: stage a fresh buffer (puts + tombstones of every
            // flavour) so the armed persist crosses a flush commit and the
            // compactions it triggers
            for _ in 0..40 {
                let op = Op::random(&mut rng);
                if matches!(op, Op::Persist | Op::SecondaryDelete(..)) {
                    continue;
                }
                db.apply(&op).unwrap();
                model.apply(&op);
            }
            fault.arm(kill);
            if db.persist().is_err() {
                crashed = true;
                fault.disarm();
                // (a) the live store still serves every acknowledged write
                assert_eq!(sim::contents(&db).unwrap(), model, "the live store diverged");
                // (b) and still does after the next commit
                let _ = db.persist();
                assert_eq!(sim::contents(&db).unwrap(), model, "the live store diverged");
            }
            fault.disarm();
        }
        // (c) reopen and verify exactly: no ambiguity window exists for a
        // crash inside a background flush/compaction commit
        {
            let db = ShardedLetheBuilder::from_builder(builder())
                .shards(1)
                .open_on(fault.clone(), DIR)
                .unwrap();
            sim::verify(&db, &mut model, None).unwrap();
        }
        let Some(site) = fault.last_fired() else { break };
        fired.insert(site.to_string());
        crashes += u32::from(crashed);
        kill += 1;
    }
    assert!(crashes >= 8, "sweep must cross the background commit's durable steps, got {crashes}");
    for site in ["manifest.append", "manifest.sync_data", "segment.sync_all", "wal.rename"] {
        assert!(fired.contains(site), "the sweep never died at {site}: {fired:?}");
    }
}

// ------------------------------------- group-commit kill-point sweep

/// Deterministic script for the group-commit sweep: roughly half atomic
/// batches, interleaved with plain ops and periodic persists so the armed
/// kills also land inside the flushes and compactions between batches.
fn group_commit_script(seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut script = Vec::new();
    for i in 0..70 {
        if rng.gen_range(0..2u32) == 0 {
            script.push(Op::random_batch(&mut rng));
        } else {
            script.push(Op::random(&mut rng));
        }
        if i % 20 == 19 {
            script.push(Op::Persist);
        }
    }
    script.push(Op::random_batch(&mut rng));
    script.push(Op::Persist);
    script
}

/// Replays the group-commit script with the fault armed at `kill`,
/// reopens, and checks every acknowledged op exactly and the in-flight op
/// (batch-atomically for batches). Returns the site that fired (`None` once
/// nothing did) and whether a batch was in flight.
fn run_group_commit_sweep_iteration(
    script: &[Op],
    kill: u64,
    shards: usize,
) -> (Option<KillPoint>, bool) {
    let fault = mem_faults();
    let open = || {
        ShardedLetheBuilder::from_builder(builder())
            .shards(shards)
            .open_on(fault.clone(), DIR)
            .unwrap()
    };
    let mut model = Model::default();
    let mut pending: Option<Op> = None;
    {
        let mut db = open();
        fault.arm(kill);
        for op in script {
            match db.apply(op) {
                Ok(()) => model.apply(op),
                Err(_) => {
                    pending = Some(op.clone());
                    break;
                }
            }
        }
        fault.disarm();
    }
    // a batch in flight recovers all or nothing, any other op key by key
    sim::verify(&open(), &mut model, pending.as_ref()).unwrap();
    (fault.last_fired(), matches!(pending, Some(Op::Batch(_))))
}

/// Sweeps the group-commit script and returns the sites it killed at.
fn run_group_commit_sweep(shards: usize, seed: u64) -> BTreeSet<String> {
    let script = group_commit_script(seed);
    let mut kill = 0u64;
    let mut crashes = 0u32;
    let mut batch_crashes = 0u32;
    let mut fired = BTreeSet::new();
    loop {
        let (site, batch_crashed) = run_group_commit_sweep_iteration(&script, kill, shards);
        let Some(site) = site else { break };
        fired.insert(site.to_string());
        crashes += 1;
        batch_crashes += u32::from(batch_crashed);
        kill += 1 + kill / 16;
    }
    assert!(crashes > 30, "sweep must cross many kill points, got {crashes}");
    assert!(
        batch_crashes > 3,
        "sweep must kill inside batch commits, got {batch_crashes} of {crashes}"
    );
    fired
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
    let fired = run_group_commit_sweep(3, 0xBA7C4);
    for site in ["batch_log.append", "batch_log.sync_data", "wal.append"] {
        assert!(fired.contains(site), "the sweep never died at {site}: {fired:?}");
    }
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
        let fault = mem_faults();
        let open = || {
            ShardedLetheBuilder::from_builder(builder())
                .shards(shards)
                .open_on(fault.clone(), DIR)
                .unwrap()
        };
        let crashed = {
            let db = open();
            fault.arm(kill);
            let mut a = WriteBatch::new();
            for k in [100u64, 101, 102] {
                a.put(k, delete_key_of(k), vec![0xAA; 9]);
            }
            let res = db.write(a);
            fault.disarm();
            res.is_err()
        };
        // first recovery rolls A back (or replays it in full if the crash
        // landed past the commit point); then an unrelated batch commits —
        // its id must be fresh, not A's leftover
        let a_applied = {
            let db = open();
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
            let db = open();
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
        if !crashed {
            break;
        }
        crashes += 1;
        kill += 1;
    }
    // 4 injectable durable steps under OnFlush: one prepare append per
    // involved shard plus the commit log's append and fsync — the sweep
    // must at least cross the all-prepared-uncommitted window
    assert!(crashes >= 4, "sweep must cross the prepare/commit windows, got {crashes}");
}

// --------------------------------------------- checkpoint kill-point sweep

/// Kill-point sweep across every durable step of an online checkpoint.
///
/// One store is built on a `MemVfs` and a snapshot pinned once; the sweep
/// then repeatedly streams that pinned snapshot into a fresh checkpoint
/// directory on the same file system with the fault armed one step further
/// each round, while the live store keeps taking writes between rounds (the
/// pinned fence never moves, and the workers are drained before each armed
/// window so the injected step is deterministic). A torn checkpoint must be
/// **detectably incomplete**: [`LetheBuilder::restore_on`] refuses the
/// directory, it never opens silently short. The marker's rename is the
/// commit point, so a checkpoint killed at the directory barrier behind it
/// restores like a finished one. The surviving run must restore to exactly
/// the model frozen at the snapshot fence — none of the post-fence writes
/// may leak across — and must still do so after a power loss drops
/// everything no barrier made durable. The fired-site audit proves the
/// sweep crossed *every* durable step of the checkpoint protocol: the data
/// segment and its page writes and barrier, the manifest commit, and the
/// completeness marker's tmp write and rename.
#[test]
fn checkpoint_kill_point_sweep() {
    let mem = MemVfs::new();
    let fault = FaultVfs::new(mem.clone());
    let mut db = ShardedLetheBuilder::from_builder(builder())
        .shards(3)
        .open_on(fault.clone(), DIR)
        .unwrap();
    let mut rng = StdRng::seed_from_u64(0xC4E7);
    let mut model = Model::default();
    for _ in 0..150 {
        let op = Op::random(&mut rng);
        db.apply(&op).unwrap();
        model.apply(&op);
    }
    db.persist().unwrap();

    let snapshot = db.snapshot();
    let frozen = model.clone();
    let restore = |ckpt: &Path| LetheBuilder::new().restore_on(mem.clone(), ckpt);
    let check_restored = |ckpt: &Path| {
        // none of the post-fence writes leaked across the fence
        let restored = restore(ckpt).unwrap();
        assert_eq!(sim::contents(&restored).unwrap(), frozen, "the restore is not the fence");
        let scan = restored.range(0, u64::MAX).unwrap();
        assert_eq!(scan.len(), frozen.0.len(), "the restore shows post-fence writes");
    };
    let has_marker = |ckpt: &Path| {
        mem.list(ckpt).unwrap().iter().any(|name| name == lethe::storage::CHECKPOINT_MARKER)
    };

    let mut kill = 0u64;
    let mut crashes = 0u32;
    let mut fired: BTreeSet<KillPoint> = BTreeSet::new();
    let mut post_key = 10_000u64;
    let last = loop {
        // the store keeps moving while the pinned fence stays put; drain
        // the workers so the armed window below is deterministic
        for _ in 0..4 {
            db.put(post_key, delete_key_of(post_key % KEY_SPACE), vec![0xEE; 9]).unwrap();
            post_key += 1;
        }
        db.maintain().unwrap();

        let ckpt = PathBuf::from(format!("/ckpt-{kill}"));
        fault.arm(kill);
        let res = db.checkpoint_at(&snapshot, &ckpt);
        fault.disarm();
        match res {
            Err(_) => {
                crashes += 1;
                let site = fault.last_fired().expect("an injected kill records its site");
                fired.insert(site);
                if has_marker(&ckpt) {
                    // the marker's rename landed: only its directory
                    // barrier failed, and the checkpoint is whole
                    assert_eq!(site.to_string(), "dir.sync_dir", "kill {kill}");
                    check_restored(&ckpt);
                } else {
                    // torn checkpoints are detectably incomplete, never
                    // silently short
                    assert!(restore(&ckpt).is_err(), "a torn checkpoint restored (kill {kill})");
                }
            }
            Ok(marker) => {
                assert_eq!(marker.fence, snapshot.seqnum());
                check_restored(&ckpt);
                break ckpt;
            }
        }
        kill += 1;
    };
    assert!(crashes >= 5, "sweep must cross the checkpoint's durable steps, got {crashes}");
    let expected = names_of(&[
        "segment.create",
        "segment.append",
        "segment.sync_all",
        "manifest.create",
        "manifest.set_len",
        "manifest.append",
        "manifest.sync_all",
        "manifest.rename",
        "checkpoint_marker.create",
        "checkpoint_marker.set_len",
        "checkpoint_marker.append",
        "checkpoint_marker.sync_all",
        "checkpoint_marker.rename",
        "dir.sync_dir",
    ]);
    assert_eq!(names(fired), expected, "the sweep must kill inside every durable checkpoint step");
    // the live store was never damaged by any of the torn checkpoints
    for k in 0..KEY_SPACE {
        assert_eq!(
            db.get(k).unwrap().map(|b| b.to_vec()),
            model.0.get(&k).cloned(),
            "live store diverged on key {k} after the sweep"
        );
    }
    assert!(db.get(10_000).unwrap().is_some(), "post-fence writes must be live");
    // a power loss that keeps only what the barriers made durable: the
    // complete checkpoint still restores, marker and all, to the fence
    drop((snapshot, db));
    assert_eq!(mem.crash(&mut |_| 0), lethe::storage::PowerLoss::DropUnsynced);
    assert!(has_marker(&last), "the power loss dropped the marker");
    check_restored(&last);
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
    let mut frozen: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
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
