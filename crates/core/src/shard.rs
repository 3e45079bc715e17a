//! Sharded concurrent front-end: many [`Lethe`] shards behind one `&self` API.
//!
//! [`ShardedLethe`] scales the single-shard engine out the way industrial
//! LSM stores do: **shared-nothing sharding** for writes, **snapshot
//! isolation** for reads, and **background maintenance** for everything
//! expensive. The sort-key space is hash-partitioned across `N` independent
//! shards, each a complete `Lethe` engine (own memtable, own version set,
//! own FADE policy, own storage device).
//!
//! ## Threading model
//!
//! Three kinds of thread touch a shard, and only writers ever lock it:
//!
//! * **Readers** (`get`/`range`/`scan_by_delete_key`) go through the
//!   shard's live [`ReadView`]: they pin the current immutable version (one
//!   `Arc` clone) and read the shared memtables under brief read locks —
//!   no shard lock, so a reader is *never* blocked by a writer, a flush or
//!   a compaction, and never observes a half-committed version. A
//!   [`Snapshot`] reads through pinned views of the same type, and both go
//!   through one fan-out: route `get` by key hash, heap-merge one stream
//!   per shard for everything else.
//! * **Writers** — every mutation (`put`, `delete`, `delete_range`,
//!   `delete_where_delete_key_in`, a [`WriteBatch`]) — submit their ops to
//!   the shard's **group-commit queue**: the writer that joins an empty
//!   queue is the elected *leader*; everyone who joins while a leader is
//!   active is a *follower* and parks on the queue's condvar without ever
//!   touching the shard lock. The leader takes the shard's ranked
//!   [`lethe_sync::Mutex`] once and drains the queue in convoys — stages
//!   every joined request as its own WAL frame, pays **one** durability
//!   barrier for the combined tail, applies the requests in order, posts
//!   each outcome and wakes the followers — looping until the queue is
//!   empty (requests that arrive mid-fsync are simply the next convoy).
//!   Under `SyncPolicy::Always` the fsync count therefore scales with
//!   commit convoys, not with records. The only writes that take the shard
//!   lock themselves are a cross-shard batch's two-phase commit and the
//!   verdict on a delete that looks blind (see [`ShardedLethe::delete`]).
//!
//!   A full buffer is *frozen*, not flushed: the writer returns immediately
//!   and the worker persists it. Backpressure replaces the old inline
//!   compact-to-completion loop: once level 0 accumulates
//!   `L0_SLOWDOWN_RUNS` (8) runs the writer yields, and at `L0_STALL_RUNS`
//!   (24) — or a full buffer behind an unflushed frozen one — it blocks
//!   until the worker catches up.
//! * **One [`Compactor`] worker per shard** drains flushes and FADE/
//!   saturation compactions through the tree's plan → execute → apply
//!   cycle, holding the shard lock only for the cheap plan and apply
//!   phases; the merge I/O runs lock-free against pinned files.
//!
//! Foreground structural operations (a request carrying a secondary range
//! delete, white-box [`ShardedLethe::with_shard`] access) pause the worker
//! first so exactly one thread at a time restructures a shard's tree.
//!
//! ## Semantics
//!
//! * `put`/`get`/`delete` route to the owning shard by a multiply-shift hash
//!   of the sort key.
//! * [`write`](ShardedLethe::write) applies a [`WriteBatch`] atomically.
//!   A batch confined to one shard is one WAL frame (crash- and
//!   reader-atomic); a batch spanning shards runs a two-phase commit over
//!   the per-shard WALs with the store's batch-commit log (`BATCHES`) as
//!   the commit point, so recovery never surfaces half a batch.
//! * `delete_range`/`range` fan out to every shard (hash partitioning
//!   scatters sort-key ranges) and `range` merges the per-shard results back
//!   into global sort-key order.
//! * Secondary (delete-key) operations — `scan_by_delete_key` and
//!   `delete_where_delete_key_in` — fan out to every shard and aggregate; the
//!   delete key is independent of the partitioning key, so every shard may
//!   hold qualifying entries.
//! * All shards share one [`LogicalClock`], so FADE's per-level TTLs and the
//!   delete persistence threshold `D_th` hold per shard against a single
//!   consistent notion of time; [`ShardedLethe::maintain`] wakes every
//!   shard's worker and waits for all of them to quiesce (the workers run
//!   concurrently — no shard blocks behind another).
//! * `stats`/`io_snapshot`/`snapshot_contents` aggregate the per-shard
//!   [`TreeStats`]/[`IoSnapshot`]/[`ContentSnapshot`] into one combined view.
//! * **Fan-out operations are not atomic snapshots.** Shards are visited
//!   one at a time, so a `range`/`scan_by_delete_key`/`stats` call that is
//!   concurrent with writers may observe some shards before and some after
//!   a given write — e.g. see a writer's second put but not its first when
//!   the two route to different shards. Per-key operations are always
//!   consistent; when a point-in-time multi-shard view is required, take a
//!   [`ShardedLethe::snapshot`]: it fences every shard at one shared
//!   seqnum (no batch straddles it) and serves `get`/`range`/`iter_range`/
//!   `scan_by_delete_key` at that instant for as long as the handle lives.
//! * [`ShardedLethe::checkpoint`] streams a pinned snapshot into a target
//!   directory as a self-contained store — an online backup taken while
//!   writers continue — which [`Lethe::restore`] reopens after verifying
//!   the checkpoint's completeness marker.
//!
//! Each shard owns a full-size write buffer: an `N`-shard store has `N×` the
//! configured buffer memory. Divide `buffer_pages` by the shard count if a
//! fixed total memory budget matters.
//!
//! ```
//! use lethe_core::{LetheBuilder, ShardedLethe, ShardedLetheBuilder};
//! use std::thread;
//!
//! // every engine knob is set on the LetheBuilder; sharding adds the count
//! let shard = LetheBuilder::new()
//!     .buffer(8, 4, 64)
//!     .size_ratio(4)
//!     .delete_persistence_threshold_secs(60.0);
//! let db = ShardedLetheBuilder::from_builder(shard).shards(4).build().unwrap();
//!
//! // &self API: share the engine across threads without any external lock
//! thread::scope(|s| {
//!     for t in 0..4u64 {
//!         let db = &db;
//!         s.spawn(move || {
//!             for k in (t * 100)..(t * 100 + 100) {
//!                 db.put(k, k, format!("v{k}")).unwrap();
//!             }
//!         });
//!     }
//! });
//! assert_eq!(db.get(123).unwrap().unwrap(), &b"v123"[..]);
//! assert_eq!(db.range(0, 400).unwrap().len(), 400);
//!
//! // stream a long scan without materialising it: page through the first 10
//! let page: Vec<_> = db.iter_range(0, 400).take(10).map(|r| r.unwrap()).collect();
//! assert_eq!(page.len(), 10);
//! ```

use crate::compactor::Compactor;
use crate::engine::{Lethe, LetheBuilder};
use bytes::Bytes;
use lethe_lsm::batch::WriteBatch;
use lethe_lsm::snapshot::SnapshotTracker;
use lethe_lsm::jobs::BuildCtx;
use lethe_lsm::sstable::SecondaryDeleteStats;
use lethe_lsm::stats::{ContentSnapshot, TreeStats};
use lethe_lsm::cursor::{EntryCursor, MergeIterator, VecCursor};
use lethe_lsm::read::{RangeIter, ReadView};
use lethe_lsm::tree::MaintenanceMode;
use lethe_storage::{
    write_marker, BatchCommitLog, BatchOp, CacheSnapshot, CheckpointMarker, DeleteKey, Entry,
    FileBackend, IoSnapshot, LogicalClock, Manifest, ManifestState, MemVfs, OsVfs, PageCache,
    Result, SeqNum, SortKey, StorageBackend, StorageError, Vfs,
};
use lethe_storage::barrier;
use lethe_sync::{Condvar, LockRank, Mutex};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Builder for a [`ShardedLethe`] engine.
///
/// Every engine knob lives on the [`LetheBuilder`] this wraps
/// ([`from_builder`](Self::from_builder)), which configures each shard;
/// this builder adds only the shard count.
#[derive(Debug, Clone)]
pub struct ShardedLetheBuilder {
    inner: LetheBuilder,
    shards: usize,
}

impl Default for ShardedLetheBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedLetheBuilder {
    /// Starts from the single-shard reference configuration with 4 shards.
    pub fn new() -> Self {
        Self::from_builder(LetheBuilder::new())
    }

    /// Wraps an already-configured single-shard builder, whose settings
    /// apply to every shard; the shard count starts at 4.
    pub fn from_builder(inner: LetheBuilder) -> Self {
        ShardedLetheBuilder { inner, shards: 4 }
    }

    /// Sets the number of shards (clamped to at least 1).
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Sets when every shard's write-ahead log fsyncs appends; the same knob
    /// as [`LetheBuilder::wal_sync_policy`].
    pub fn wal_sync_policy(mut self, policy: lethe_storage::SyncPolicy) -> Self {
        self.inner = self.inner.wal_sync_policy(policy);
        self
    }

    /// Builds a sharded engine in memory: [`ShardedLetheBuilder::open_on`] a
    /// fresh [`MemVfs`].
    pub fn build(self) -> Result<ShardedLethe> {
        self.open_on(MemVfs::shared(), "/")
    }

    /// Opens (or creates) a durable sharded engine rooted at `dir` on the
    /// host file system: [`ShardedLetheBuilder::open_on`] [`OsVfs`].
    pub fn open(self, dir: impl AsRef<Path>) -> Result<ShardedLethe> {
        self.open_on(OsVfs::shared(), dir)
    }

    /// Opens (or creates) the sharded engine rooted at `dir` on `vfs`. Each
    /// shard gets namespaced data segments, a write-ahead log and a manifest
    /// in the shared directory (`shard-000.data` and `shard-000.data.<id>`,
    /// `shard-000.wal`, `shard-000.manifest`, `shard-001.…`), each shard
    /// recovers its own manifest + WAL on open, and all shards share one
    /// logical clock. The store-wide files (`SHARDS`, the `BATCHES` commit
    /// log) and every [`ShardedLethe::checkpoint`] go through `vfs` too.
    /// Re-opening with a different shard count than the store was created
    /// with is rejected (routing is a function of the count), as is a store
    /// with committed shard state but no readable `SHARDS` super-manifest —
    /// both would otherwise silently misroute keys.
    ///
    /// Every shard gets one logical clock, one block cache (resolved once
    /// and pinned onto the per-shard builder), one seqnum allocator (a
    /// cross-shard batch commits under one consecutive seqnum range, and a
    /// snapshot fence is one number covering the whole store) and one
    /// snapshot tracker (a registered fence gates tombstone GC in every
    /// shard at once).
    pub fn open_on(self, vfs: Arc<dyn Vfs>, dir: impl AsRef<Path>) -> Result<ShardedLethe> {
        let dir = dir.as_ref();
        vfs.create_dir_all(dir)?;
        validate_shard_manifest(vfs.as_ref(), dir, self.shards)?;
        // the batch-commit log opens first: WAL replay consults the
        // committed-id set to decide which prepared cross-shard slices apply
        let batch_log = BatchCommitLog::open(&vfs, &dir.join("BATCHES"))?;
        let clock = LogicalClock::new();
        let cache = self.inner.resolve_cache();
        let seqnums = Arc::new(AtomicU64::new(1));
        let snapshots = Arc::new(SnapshotTracker::new());
        let mut inner = self
            .inner
            .seqnum_allocator(Arc::clone(&seqnums))
            .snapshot_tracker(Arc::clone(&snapshots))
            .committed_batches(batch_log.committed());
        if let Some(c) = &cache {
            inner = inner.shared_block_cache(Arc::clone(c));
        }
        let mut engines = Vec::with_capacity(self.shards);
        let mut live_ids = HashSet::new();
        for i in 0..self.shards {
            let name = format!("shard-{i:03}");
            let engine = inner.clone().assemble(None, &vfs, dir, &name, clock.clone())?;
            live_ids.extend(engine.tree().wal_batch_ids().iter().copied());
            engines.push(engine);
        }
        // rolled-back prepared frames stay in the shard WALs after recovery
        // (nothing rewrites a WAL on open), so the id allocator — rebuilt
        // from committed records only — must be advanced past every id the
        // WALs still hold: reusing one for a batch that then commits would
        // retroactively commit the stale slice and resurrect part of an
        // aborted batch on the next recovery
        if let Some(max) = live_ids.iter().copied().max() {
            batch_log.bump_next_id(max + 1);
        }
        // commit records whose batch no WAL references any more have no
        // reader left (the slices were flushed and truncated away): compact
        // them out so the log is bounded by in-flight batches
        batch_log.retain(&live_ids)?;
        // the super-manifest is written only once every shard opened
        // successfully (a failed open never pins a shard count for a store
        // that was never created), and atomically + fsync'd: once a client
        // can acknowledge writes, the recorded count must survive a crash
        let manifest_fsyncs = AtomicU64::new(0);
        write_shard_manifest(vfs.as_ref(), dir, self.shards, &manifest_fsyncs)?;
        let shards: Vec<Shard> =
            engines.into_iter().enumerate().map(|(i, e)| Shard::spawn(e, i)).collect();
        Ok(ShardedLethe {
            views: ShardViews(shards.iter().map(|s| s.reader.clone()).collect()),
            shards,
            clock,
            cache,
            batch_log,
            manifest_fsyncs,
            stalls: AtomicU64::new(0),
            slowdowns: AtomicU64::new(0),
            seqnums,
            snapshots,
            snapshot_registry: Arc::new(Mutex::new(LockRank::SnapshotRegistry, HashMap::new())),
            snapshot_ids: AtomicU64::new(1),
            vfs,
        })
    }
}

/// Durably records the shard count through [`barrier::publish`]. Both of
/// its barriers charge `fsyncs` so the store's [`IoSnapshot`] accounts for
/// them.
fn write_shard_manifest(vfs: &dyn Vfs, dir: &Path, n: usize, fsyncs: &AtomicU64) -> Result<()> {
    let (path, tmp) = (dir.join("SHARDS"), dir.join("SHARDS.tmp"));
    barrier::publish(vfs, &path, &tmp, fsyncs, format!("{n}\n").as_bytes())?;
    Ok(())
}

/// Validates the recorded shard count of a durable store, if any: routing is
/// a function of the shard count, so re-opening with a different `N` would
/// silently misroute keys.
///
/// A directory with per-shard *manifests* (i.e. committed durable state) but
/// no `SHARDS` super-manifest is partial shard state — someone lost or
/// deleted the routing record — and is rejected rather than guessed at.
/// Leftover data/WAL files without manifests are tolerated: they can only
/// come from a store that never acknowledged a write under a committed shard
/// count (`SHARDS` is durably written before `open` returns).
fn validate_shard_manifest(vfs: &dyn Vfs, dir: &Path, shards: usize) -> Result<()> {
    let path = dir.join("SHARDS");
    match vfs.read(&path) {
        Ok(raw) => {
            let raw = String::from_utf8_lossy(&raw);
            let recorded: usize = raw.trim().parse().map_err(|_| {
                StorageError::Corruption(format!("unreadable shard manifest {path:?}: {raw:?}"))
            })?;
            if recorded != shards {
                return Err(StorageError::Corruption(format!(
                    "store at {dir:?} was created with {recorded} shards, re-opened with {shards}"
                )));
            }
            Ok(())
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            let mut orphaned: Vec<String> = vfs.list(dir)?;
            orphaned.retain(|name| name.starts_with("shard-") && name.ends_with(".manifest"));
            if !orphaned.is_empty() {
                orphaned.sort();
                return Err(StorageError::Corruption(format!(
                    "store at {dir:?} has committed shard state ({}) but no SHARDS \
                     super-manifest; refusing to guess a shard count that could \
                     misroute every key",
                    orphaned.join(", ")
                )));
            }
            Ok(())
        }
        Err(e) => Err(e.into()),
    }
}

/// One shard: the engine behind its write lock, the lock-free read handle,
/// the background maintenance worker and the group-commit queue.
struct Shard {
    engine: Arc<Mutex<Lethe>>,
    reader: ReadView,
    worker: Compactor,
    /// Group-commit queue: the writer that joins it empty leads, everyone
    /// else follows; see [`CommitQueue`].
    queue: CommitQueue,
    /// The engine's `suppress_blind_deletes` setting, copied out so a point
    /// delete knows without the engine lock whether a blind check applies.
    suppress_blind_deletes: bool,
}

impl Shard {
    /// Switches `engine` to background maintenance, wraps it behind its
    /// lock, and spawns the worker. `index` is the shard's position in the
    /// store: engine locks share one rank, so cross-shard writers must take
    /// them in ascending index order, which the ranked mutex enforces
    /// through its same-rank acquisition order.
    fn spawn(mut engine: Lethe, index: usize) -> Shard {
        engine.set_maintenance_mode(MaintenanceMode::Background);
        let reader = engine.reader();
        let suppress_blind_deletes = engine.config().suppress_blind_deletes;
        let engine = Arc::new(Mutex::with_order(LockRank::Engine, index as u64, engine));
        let worker = Compactor::spawn(Arc::clone(&engine));
        Shard { engine, reader, worker, queue: CommitQueue::new(), suppress_blind_deletes }
    }
}

/// The group-commit queue of one shard (the RocksDB write-group idiom).
///
/// A writer joins by pushing its request under the state lock; if no leader
/// is active at that moment it becomes the leader, otherwise it parks on
/// `follower_cv` until a leader posts its outcome. Followers never touch
/// the engine lock at all — the leader acquires it once and serves convoys
/// until the queue drains, so the per-writer cost under contention is one
/// condvar round-trip instead of a mutex handoff, and every request that
/// arrives while the leader is inside an fsync lands in the next convoy.
struct CommitQueue {
    state: Mutex<CommitQueueState>,
    /// Followers wait here; the leader locks `state` (empty critical
    /// section) before notifying, so a follower that just saw its slot
    /// empty is guaranteed to be parked before the wakeup fires.
    follower_cv: Condvar,
}

struct CommitQueueState {
    pending: Vec<PendingWrite>,
    leader_active: bool,
}

impl CommitQueue {
    fn new() -> CommitQueue {
        CommitQueue {
            state: Mutex::new(
                LockRank::CommitQueueState,
                CommitQueueState { pending: Vec::new(), leader_active: false },
            ),
            follower_cv: Condvar::new(),
        }
    }

    /// Joins the queue with `ops`; returns the outcome slot and whether the
    /// calling writer must lead.
    fn join(&self, ops: Vec<BatchOp>) -> (CommitSlot, bool) {
        let slot = Arc::new(Mutex::new(LockRank::CommitSlot, None));
        let mut state = self.state.lock();
        state.pending.push(PendingWrite { ops, slot: Arc::clone(&slot) });
        let lead = !state.leader_active;
        state.leader_active = true;
        (slot, lead)
    }
}

/// Where a leader posts one request's outcome: what its secondary range
/// deletes dropped (all zeroes for a request without one), or its error.
type CommitSlot = Arc<Mutex<Option<Result<SecondaryDeleteStats>>>>;

/// One writer's ops awaiting a group-commit leader, plus the slot the leader
/// posts the outcome into.
struct PendingWrite {
    ops: Vec<BatchOp>,
    slot: CommitSlot,
}

/// The shard (out of `n`) owning `key`: multiply-shift hash (Fibonacci
/// hashing), so dense sequential key ranges spread evenly across shards.
fn shard_of_key(key: SortKey, n: usize) -> usize {
    let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 32) as usize) % n
}

/// One [`ReadView`] per shard, by shard index — live views for the store
/// itself, pinned ones behind a [`Snapshot`] — and the one read fan-out both
/// go through.
struct ShardViews(Vec<ReadView>);

impl ShardViews {
    fn get(&self, key: SortKey) -> Result<Option<Bytes>> {
        self.0[shard_of_key(key, self.0.len())].get(key)
    }

    /// Heap-merges one sorted stream per shard into global sort-key order.
    /// Hash partitioning puts every sort key in exactly one shard and each
    /// stream has already resolved its own versions and tombstones, so the
    /// merge meets no duplicate key and shadows nothing.
    fn merged<C: EntryCursor + 'static>(
        &self,
        stream: impl Fn(&ReadView) -> Result<C>,
    ) -> Result<MergeIterator> {
        let mut cursors: Vec<Box<dyn EntryCursor>> = Vec::with_capacity(self.0.len());
        for view in &self.0 {
            cursors.push(Box::new(stream(view)?));
        }
        MergeIterator::new(cursors, Vec::new(), false)
    }

    fn iter_range(&self, lo: SortKey, hi: SortKey) -> RangeIter {
        RangeIter::new(self.merged(|view| view.range_merge(lo, hi)))
    }

    fn scan_by_delete_key(&self, lo: DeleteKey, hi: DeleteKey) -> Result<Vec<Entry>> {
        let mut merge = self
            .merged(|view| Ok(VecCursor::from_sorted(view.scan_by_delete_key(lo, hi)?)))?;
        let mut out = Vec::new();
        while let Some(e) = merge.next_merged()? {
            out.push(e);
        }
        Ok(out)
    }
}

/// Whether `ops` contains a secondary range delete — the one batch op that
/// restructures the tree instead of appending to the memtable.
fn has_secondary_delete(ops: &[BatchOp]) -> bool {
    ops.iter().any(|op| matches!(op, BatchOp::SecondaryDelete { .. }))
}

/// Mirrors a group-level failure to every waiter in the group.
/// [`StorageError`] is not `Clone` (it wraps `std::io::Error`), so each
/// waiter gets a fresh error carrying the leader's message; an injected
/// crash stays [`StorageError::Injected`] so the crash harness recognises it.
fn mirror_error(e: &StorageError) -> StorageError {
    match e {
        StorageError::Injected => StorageError::Injected,
        other => StorageError::Io(std::io::Error::other(format!("group commit failed: {other}"))),
    }
}

/// Commits one drained group under the engine lock: stages every request as
/// its own WAL frame, pays **one** durability barrier for the combined tail,
/// then applies each request to the memtable and posts its outcome.
///
/// A request that fails to stage fails alone (its frame never reached the
/// log); a failed group fsync fails every staged request, since none of them
/// can claim durability. Either way every drained slot is filled.
fn commit_group(engine: &mut Lethe, pending: Vec<PendingWrite>) {
    if pending.is_empty() {
        return;
    }
    let tree = engine.tree_mut();
    let mut staged = Vec::with_capacity(pending.len());
    for req in pending {
        match tree.stage_batch(&req.ops, None) {
            Ok(ts) => staged.push((req, ts)),
            Err(e) => *req.slot.lock() = Some(Err(e)),
        }
    }
    if staged.is_empty() {
        return;
    }
    if let Err(e) = tree.wal_commit() {
        for (req, _) in &staged {
            *req.slot.lock() = Some(Err(mirror_error(&e)));
        }
        return;
    }
    for (PendingWrite { ops, slot }, ts) in staged {
        let outcome = tree.apply_batch(&ops, ts);
        *slot.lock() = Some(outcome);
    }
}

/// Write backpressure, stage 1: once the first disk level holds this many
/// runs (flushed buffers the background compactor has not merged down yet),
/// a writer yields its scheduling slot after each request.
const L0_SLOWDOWN_RUNS: usize = 8;

/// Write backpressure, stage 2: at this many runs writers *stall* (block)
/// until the compactor drains the level below it.
const L0_STALL_RUNS: usize = 24;

/// Write-backpressure event counters; see [`ShardedLethe::backpressure`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackpressureStats {
    /// Writes that blocked until the worker made progress (full buffer
    /// behind an unflushed frozen one, or level 0 at the stall threshold).
    pub stalls: u64,
    /// Writes that yielded because level 0 reached the slowdown threshold.
    pub slowdowns: u64,
}

/// A concurrent, hash-sharded Lethe engine with a `&self` API.
///
/// See the [module docs](self) for the threading model. Construct one
/// through [`ShardedLetheBuilder`]. Dropping the store shuts down and joins
/// every shard's background worker.
pub struct ShardedLethe {
    shards: Vec<Shard>,
    /// Every shard's live read view, by shard index.
    views: ShardViews,
    clock: LogicalClock,
    /// The block cache shared by every shard, if one was configured.
    cache: Option<Arc<PageCache>>,
    /// The store-wide commit point for cross-shard batches.
    batch_log: BatchCommitLog,
    /// Durability barriers issued for the `SHARDS` super-manifest.
    manifest_fsyncs: AtomicU64,
    stalls: AtomicU64,
    slowdowns: AtomicU64,
    /// The store-wide seqnum allocator every shard draws from. Its value
    /// read while **all** engine locks are held is a consistent snapshot
    /// fence: no write anywhere in the store can be in flight at that
    /// instant, so every seqnum below the fence is fully applied and every
    /// one at or above it is entirely absent.
    seqnums: Arc<AtomicU64>,
    /// The live-snapshot tracker shared with every shard's tree; registered
    /// fences gate tombstone GC and page reclamation store-wide.
    snapshots: Arc<SnapshotTracker>,
    /// Live snapshot state by handle id. Holding the only strong `Arc` here
    /// (handles hold `Weak`s) lets [`ShardedLethe::expire_snapshots`]
    /// release pinned pages even when a stale handle is still around — the
    /// handle then fails closed instead of reading reclaimed pages.
    snapshot_registry: Arc<Mutex<HashMap<u64, Arc<SnapshotInner>>>>,
    snapshot_ids: AtomicU64,
    /// The file system the store lives on; [`ShardedLethe::checkpoint`]
    /// writes through it too.
    vfs: Arc<dyn Vfs>,
}

// Compile-time proof of the headline property: the sharded front-end can be
// shared across threads by reference, no external synchronisation needed.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardedLethe>();
};

impl ShardedLethe {
    /// Starts building a sharded engine.
    pub fn builder() -> ShardedLetheBuilder {
        ShardedLetheBuilder::new()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `key`.
    fn shard_of(&self, key: SortKey) -> usize {
        shard_of_key(key, self.shards.len())
    }

    /// Parks the calling writer while `shard` reports a stall condition
    /// (full buffer behind an unflushed frozen one, or level 0 at
    /// [`L0_STALL_RUNS`]). If the worker twice completes a pass without
    /// clearing the condition (it hit an error, or the threshold lies below
    /// what the policy considers compactable), the writer proceeds anyway —
    /// the buffer overshoots rather than deadlocks, and the error surfaces
    /// at the next `maintain`/`persist`.
    fn backpressure_wait(&self, shard: &Shard) {
        let mut fruitless = 0u32;
        loop {
            let stalled =
                shard.reader.write_stalled() || shard.reader.l0_run_count() >= L0_STALL_RUNS;
            if !stalled || fruitless >= 2 {
                return;
            }
            self.stalls.fetch_add(1, Ordering::Relaxed);
            let jobs_before = shard.worker.jobs_done();
            shard.worker.wait_for_progress();
            if shard.worker.jobs_done() == jobs_before {
                fruitless += 1;
            }
        }
    }

    /// Post-write worker nudge and stage-1 slowdown, shared by every write
    /// path: wakes the worker when there is a frozen buffer to flush or
    /// level 0 crossed the slowdown threshold, and yields the writer's
    /// scheduling slot inside the slowdown window.
    fn after_write(&self, shard: &Shard, frozen: bool) {
        let l0 = shard.reader.l0_run_count();
        if frozen || l0 >= L0_SLOWDOWN_RUNS {
            shard.worker.wake();
        }
        if (L0_SLOWDOWN_RUNS..L0_STALL_RUNS).contains(&l0) {
            self.slowdowns.fetch_add(1, Ordering::Relaxed);
            std::thread::yield_now();
        }
    }

    /// Routes `ops` through `shard`'s group-commit queue; see the module
    /// docs. The caller blocks until a leader (possibly itself) has staged,
    /// fsynced and applied its request, and gets that request's outcome:
    /// what its secondary range deletes dropped.
    fn group_write(&self, shard: &Shard, ops: Vec<BatchOp>) -> Result<SecondaryDeleteStats> {
        // a secondary range delete restructures the tree (KiWi page drops +
        // a version install) and must never race a background version
        // install, so park the worker (its in-flight job completes first)
        // for the whole request. The guard is taken before the queue join
        // and held until the outcome arrives, so whichever leader applies
        // this request finds the worker already parked. A paused worker
        // can't make the progress a stalled writer waits for, so structural
        // requests also skip stall backpressure.
        let structural = has_secondary_delete(&ops);
        let _parked = structural.then(|| shard.worker.pause());
        if !structural {
            self.backpressure_wait(shard);
        }
        let (slot, lead) = shard.queue.join(ops);
        if lead {
            self.lead_commits(shard);
        } else {
            let mut state = shard.queue.state.lock();
            while slot.lock().is_none() {
                state = shard.queue.follower_cv.wait(state, &shard.queue.state);
            }
            drop(state);
        }
        let outcome = slot.lock().take();
        outcome.expect("a group-commit leader posts an outcome for every joined request")
    }

    /// Leader duty: under one engine-lock acquisition, commit convoys of
    /// queued requests until the queue is empty, waking followers after
    /// every convoy. The leader's own request is part of the first convoy
    /// (it joined before leading), so its slot is filled on return.
    fn lead_commits(&self, shard: &Shard) {
        let mut frozen = false;
        let mut engine = shard.engine.lock();
        loop {
            let pending = {
                let mut state = shard.queue.state.lock();
                if state.pending.is_empty() {
                    // resign while holding the state lock: the next joiner
                    // sees no active leader and takes over
                    state.leader_active = false;
                    break;
                }
                std::mem::take(&mut state.pending)
            };
            // no artificial delay to fatten convoys: followers woken by the
            // previous convoy's ack rejoin the queue while this convoy is
            // inside its fsync — that overlap is what grows groups
            commit_group(&mut engine, pending);
            frozen |= engine.tree().has_frozen();
            // the empty state critical section fences follower check-then-
            // wait: anyone who saw an unfilled slot is parked by now
            drop(shard.queue.state.lock());
            shard.queue.follower_cv.notify_all();
        }
        drop(engine);
        self.after_write(shard, frozen);
    }

    /// Inserts (or updates) `key` with an associated delete key and value.
    ///
    /// Durably logged through the owning shard's group-commit queue, so
    /// concurrent puts against one shard share WAL durability barriers; see
    /// the module docs.
    pub fn put(&self, key: SortKey, delete_key: DeleteKey, value: impl Into<Bytes>) -> Result<()> {
        let shard = &self.shards[self.shard_of(key)];
        let op = BatchOp::Put { sort_key: key, delete_key, value: value.into() };
        self.group_write(shard, vec![op]).map(drop)
    }

    /// Atomically applies a [`WriteBatch`]: all of its operations become
    /// durable and visible together or — across a crash — not at all.
    ///
    /// Ops route to their owning shards like the point API (sort-key and
    /// secondary range deletes fan out to every shard). A batch whose ops
    /// all land in one shard is logged as a **single WAL frame** through
    /// that shard's group-commit queue: readers observe it all-or-nothing
    /// (its point ops apply under one memtable write guard) and recovery
    /// replays it all-or-nothing (a torn tail discards the whole frame).
    /// Unlike [`delete`](ShardedLethe::delete), batch deletes are never
    /// suppressed as blind.
    ///
    /// A batch spanning shards runs a two-phase commit:
    /// every involved shard durably *prepares* its slice in its own WAL,
    /// then the store-wide batch-commit log records the batch id — that
    /// single fsync is the commit point — and only then do the slices apply,
    /// holding every involved shard's lock so no flush outruns an unapplied
    /// slice. Recovery rolls back prepared slices whose id never committed,
    /// so a crash anywhere leaves the batch fully applied or fully absent.
    /// In-memory stores ([`ShardedLetheBuilder::build`]) run the same
    /// protocol on their in-memory file system.
    ///
    /// # Errors
    ///
    /// An `Err` raised *before* the commit point means the batch did not
    /// (and never will) take effect. An `Err` raised *after* it — an
    /// in-memory apply failure on some shard — means the batch **is**
    /// durably committed: every slice whose apply succeeded is already
    /// visible, and the rest surface when the store is reopened (recovery
    /// replays the committed batch in full). Callers that cannot tolerate
    /// that window should treat such an error as fatal and restart.
    ///
    /// The weakly-consistent fan-out contract (module docs) still applies to
    /// *live* readers of a multi-shard batch: per-shard snapshots are pinned
    /// one at a time, so a concurrent scan may observe one shard's slice
    /// before another's. Single-shard batches are reader-atomic.
    pub fn write(&self, batch: WriteBatch) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let mut slices: Vec<Vec<BatchOp>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for op in batch.into_ops() {
            match &op {
                BatchOp::Put { sort_key, .. } | BatchOp::Delete { sort_key } => {
                    let i = self.shard_of(*sort_key);
                    slices[i].push(op);
                }
                BatchOp::DeleteRange { .. } | BatchOp::SecondaryDelete { .. } => {
                    // hash partitioning scatters a sort-key range, and the
                    // delete key is independent of the partitioning key, so
                    // every shard may hold qualifying entries
                    for slice in &mut slices {
                        slice.push(op.clone());
                    }
                }
            }
        }
        let involved: Vec<usize> = (0..slices.len()).filter(|&i| !slices[i].is_empty()).collect();
        match involved.as_slice() {
            [] => Ok(()),
            [i] => self.group_write(&self.shards[*i], std::mem::take(&mut slices[*i])).map(drop),
            _ => self.write_cross_shard(slices, involved),
        }
    }

    /// Two-phase commit of a batch spanning several shards; see
    /// [`ShardedLethe::write`].
    fn write_cross_shard(&self, slices: Vec<Vec<BatchOp>>, involved: Vec<usize>) -> Result<()> {
        let log = &self.batch_log;
        // park the involved workers when the batch restructures trees (see
        // `group_write`); otherwise respect write backpressure before taking
        // any locks
        let structural = involved.iter().any(|&i| has_secondary_delete(&slices[i]));
        let _parked: Option<Vec<_>> =
            structural.then(|| involved.iter().map(|&i| self.shards[i].worker.pause()).collect());
        if !structural {
            for &i in &involved {
                self.backpressure_wait(&self.shards[i]);
            }
        }
        let id = log.allocate_id();
        // lock every involved shard in ascending index order (deadlock-free
        // against other cross-shard writers) and hold the locks through
        // prepare → commit → apply: no freeze/flush can truncate a prepared
        // frame out of a WAL before its slice is applied, so a committed id
        // always finds its slices — in the WALs or already flushed
        let mut guards: Vec<_> = involved.iter().map(|&i| self.shards[i].engine.lock()).collect();
        // prepare: durably log each shard's slice under the shared id. An
        // error aborts the batch — `id` never commits, and recovery rolls
        // the already-prepared slices back on every shard
        let mut stamps = Vec::with_capacity(involved.len());
        for (guard, &i) in guards.iter_mut().zip(&involved) {
            let tree = guard.tree_mut();
            // an abort between stage and commit is the designed 2PC failure path:
            // `id` never reaches the batch-commit log, so on the next recovery the
            // prepared slices roll back on every shard (see rollback_batch); an
            // aborted id is rolled back, never leaked, and never reused
            let ts = tree.stage_batch(&slices[i], Some(id))?;
            tree.wal_commit()?;
            stamps.push(ts);
        }
        // commit point: one fsync in the store-wide batch-commit log
        log.commit(id)?;
        // apply: the batch is durable on every shard and will replay in
        // full on the next recovery no matter what happens below, so an
        // apply error must not abort the loop — skipping the remaining
        // slices would leave the batch half-visible to live readers while
        // a restart would surface all of it. Apply every slice, remember
        // the first error, and surface it after the fan-out: an `Err` from
        // here on means "committed, apply incomplete until restart", never
        // "rolled back" (see the `write` docs).
        let mut apply_err = None;
        for ((guard, &i), ts) in guards.iter_mut().zip(&involved).zip(stamps) {
            if let Err(e) = guard.tree_mut().apply_batch(&slices[i], ts) {
                apply_err.get_or_insert(e);
            }
        }
        let frozen: Vec<bool> = guards.iter().map(|g| g.tree().has_frozen()).collect();
        drop(guards);
        for (&i, frozen) in involved.iter().zip(frozen) {
            self.after_write(&self.shards[i], frozen);
        }
        match apply_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Point lookup — served lock-free from the owning shard's snapshot
    /// read surface; never blocked by writers, flushes or compactions.
    pub fn get(&self, key: SortKey) -> Result<Option<Bytes>> {
        self.views.get(key)
    }

    /// Point delete on the sort key. Returns `false` if the owning shard
    /// suppressed the delete as blind (the key cannot exist).
    ///
    /// The verdict is the engine's, under its lock, where no put of the key
    /// can slip in before it; but the lock is only taken once a lock-free
    /// probe of the shard's live view says the key looks absent. A delete of
    /// a key that may exist goes straight to the queue and shares its
    /// convoy's fsync.
    pub fn delete(&self, key: SortKey) -> Result<bool> {
        let shard = &self.shards[self.shard_of(key)];
        if shard.suppress_blind_deletes && !shard.reader.key_may_exist(key)? {
            let suppressed = shard.engine.lock().tree_mut().suppresses_delete(key)?;
            if suppressed {
                return Ok(false);
            }
        }
        self.group_write(shard, vec![BatchOp::Delete { sort_key: key }])?;
        Ok(true)
    }

    /// Submits `op` to every shard, one shard's queue after another (not
    /// atomically across shards), and sums the outcomes.
    fn fan_out(&self, op: BatchOp) -> Result<SecondaryDeleteStats> {
        let mut total = SecondaryDeleteStats::default();
        for shard in &self.shards {
            total.merge(&self.group_write(shard, vec![op.clone()])?);
        }
        Ok(total)
    }

    /// Range delete on the sort key over `[start, end)`. Hash partitioning
    /// scatters the range, so the tombstone fans out to every shard.
    pub fn delete_range(&self, start: SortKey, end: SortKey) -> Result<()> {
        if end <= start {
            return Ok(());
        }
        self.fan_out(BatchOp::DeleteRange { start, end }).map(drop)
    }

    /// Secondary range delete: removes every entry whose **delete key** lies
    /// in `[lo, hi)`. Fans out to every shard (the delete key is independent
    /// of the partitioning key) and returns the aggregated page-drop stats.
    pub fn delete_where_delete_key_in(
        &self,
        lo: DeleteKey,
        hi: DeleteKey,
    ) -> Result<SecondaryDeleteStats> {
        self.fan_out(BatchOp::SecondaryDelete { d_lo: lo, d_hi: hi })
    }

    /// Range lookup on the sort key over `[lo, hi)`: fans out to every
    /// shard's snapshot reader (no shard locks) and merges the per-shard
    /// results back into global sort-key order.
    ///
    /// Materialises the whole result; use
    /// [`iter_range`](ShardedLethe::iter_range) to stream large scans.
    pub fn range(&self, lo: SortKey, hi: SortKey) -> Result<Vec<(SortKey, Bytes)>> {
        self.iter_range(lo, hi).collect()
    }

    /// Streaming range scan over `[lo, hi)` across every shard: heap-merges
    /// the per-shard streaming merges into one iterator of live
    /// `(key, value)` pairs in global sort-key order. Each shard's pages are
    /// decoded lazily as the iterator advances, so callers can page through
    /// arbitrarily large scans (backups, analytics, cursors-over-HTTP)
    /// without materialising results, and an early stop never reads the
    /// tail of any shard.
    ///
    /// Consistency matches `range`: each shard's snapshot is pinned when
    /// this is called (no shard locks taken), so the scan is unaffected by
    /// concurrent maintenance, but the per-shard snapshots are taken one
    /// after another — the usual weakly-consistent fan-out contract. A
    /// failure to open any shard's stream is yielded by the first `next()`;
    /// like any later I/O error, it ends the scan.
    pub fn iter_range(&self, lo: SortKey, hi: SortKey) -> RangeIter {
        self.views.iter_range(lo, hi)
    }

    /// Secondary range lookup: every live entry whose delete key lies in
    /// `[lo, hi)`, across all shards, in sort-key order. Served from the
    /// per-shard snapshot readers without shard locks.
    pub fn scan_by_delete_key(&self, lo: DeleteKey, hi: DeleteKey) -> Result<Vec<Entry>> {
        self.views.scan_by_delete_key(lo, hi)
    }

    /// Captures a consistent cross-shard point-in-time view of the whole
    /// store and returns a [`Snapshot`] handle reading at it.
    ///
    /// Every shard's engine lock is taken in ascending shard order (the
    /// same deadlock-free idiom cross-shard batch commits use), the shared
    /// seqnum allocator is read **once** under all of them as the
    /// snapshot's fence, and each shard's tree is captured. Because the
    /// engine locks are exactly where group-commit leaders, two-phase
    /// cross-shard commits and worker plan/apply phases serialise, no
    /// write — and in particular no multi-op batch — can straddle the
    /// fence: the snapshot observes each batch entirely or not at all,
    /// fixing the weakly-consistent fan-out contract of the live read
    /// path. The capture itself is cheap (per shard: one bounded memtable
    /// clone plus three `Arc` bumps), so writers stall only momentarily.
    ///
    /// The fence is registered with the store's [`SnapshotTracker`]:
    /// while the handle lives, tombstone drops that would discard history
    /// the snapshot still reads are deferred (FADE's accounting counts
    /// them in [`TreeStats::tombstone_gc_delayed`]), and the pinned
    /// versions defer page reclamation. Dropping the handle releases both.
    pub fn snapshot(&self) -> Snapshot {
        let guards: Vec<_> = self.shards.iter().map(|s| s.engine.lock()).collect();
        let fence = self.seqnums.load(Ordering::SeqCst);
        self.snapshots.register(fence);
        let views = ShardViews(guards.iter().map(|g| g.tree().capture_snapshot()).collect());
        drop(guards);
        let inner = Arc::new(SnapshotInner {
            fence,
            views,
            tracker: Arc::clone(&self.snapshots),
        });
        let id = self.snapshot_ids.fetch_add(1, Ordering::Relaxed);
        let handle = Snapshot {
            id,
            fence,
            inner: Arc::downgrade(&inner),
            registry: Arc::clone(&self.snapshot_registry),
        };
        self.snapshot_registry.lock().insert(id, inner);
        handle
    }

    /// Number of snapshot handles currently pinning store state.
    pub fn live_snapshots(&self) -> usize {
        self.snapshot_registry.lock().len()
    }

    /// Forcibly releases every live snapshot, returning how many were
    /// expired. Their pinned buffers and versions are dropped (so deferred
    /// page reclamation and tombstone GC resume) along with their tracker
    /// registrations. An outstanding [`Snapshot`] handle holds only a weak
    /// reference to that state, so it fails closed from now on instead of
    /// ever reading reclaimed pages. An escape hatch for operators when a
    /// forgotten handle is pinning space — not part of normal snapshot
    /// lifecycle (dropping the handle is).
    pub fn expire_snapshots(&self) -> usize {
        let drained: Vec<Arc<SnapshotInner>> = {
            let mut registry = self.snapshot_registry.lock();
            let ids: Vec<u64> = registry.keys().copied().collect();
            ids.iter().filter_map(|id| registry.remove(id)).collect()
        };
        // dropping the last Arcs releases the tracker registrations and the
        // pinned versions (outside the registry lock)
        drained.len()
    }

    /// Streams a consistent point-in-time image of the whole store into
    /// `dir` — an **online backup** — and returns the completeness marker
    /// it committed. Writers, flushes and compactions continue throughout:
    /// the checkpoint pins its own [`Snapshot`] (released on return) and
    /// reads only captured state.
    ///
    /// The target directory, on the store's own file system, becomes a
    /// self-contained single-shard store:
    /// the per-shard checkpoint streams (every entry at the fence, newest
    /// version per key, tombstones and delete keys retained) are k-way
    /// merged into fresh KiWi-laid-out tables on a fresh backend, a fresh
    /// manifest commits the table layout with `next_seqnum` at the fence,
    /// and **last** the checksummed `CHECKPOINT` marker is durably written
    /// — the commit point. A crash anywhere mid-stream leaves a directory
    /// without a valid marker, which [`Lethe::restore`] refuses: a torn
    /// checkpoint is detectably incomplete, never silently short.
    pub fn checkpoint(&self, dir: impl AsRef<Path>) -> Result<CheckpointMarker> {
        let snapshot = self.snapshot();
        self.checkpoint_at(&snapshot, dir)
    }

    /// Streams an already-held [`Snapshot`]'s view into `dir`; see
    /// [`ShardedLethe::checkpoint`]. Lets a caller read through the same
    /// snapshot it backed up (e.g. to verify the backup against the live
    /// view it captured).
    pub fn checkpoint_at(&self, snapshot: &Snapshot, dir: impl AsRef<Path>) -> Result<CheckpointMarker> {
        let inner = snapshot.pinned()?;
        let dir = dir.as_ref();
        let backend: Arc<dyn StorageBackend> =
            Arc::new(FileBackend::open_on(&self.vfs, dir, "checkpoint")?);
        let config = self.shards[0].engine.lock().config().clone();
        let views = &inner.views.0;
        let mut stream = inner.views.merged(ReadView::entry_merge)?;
        // range tombstones live outside the page stream: each joins the file
        // its start falls in, as in a job's output (their shadowing was
        // already applied to the merged entries, so re-applying it on
        // restore is idempotent)
        let rts: Vec<Entry> = views.iter().flat_map(|v| v.all_range_tombstones()).collect();
        let oldest_tombstone_ts = views.iter().filter_map(|v| v.oldest_tombstone_ts()).min();
        let created_at = self.clock.now();
        let file_ids = Arc::new(AtomicU64::new(1));
        let ctx = BuildCtx::new(config, Arc::clone(&backend), created_at, Arc::clone(&file_ids));
        let files = ctx.build_files(&mut stream, rts, oldest_tombstone_ts)?;
        // every page durable before the manifest references it, the
        // manifest durable before the marker declares the stream complete
        backend.sync()?;
        let state = ManifestState {
            next_file_id: file_ids.load(Ordering::Relaxed),
            next_seqnum: inner.fence,
            clock_micros: created_at,
            levels: vec![vec![files.iter().map(|t| t.describe()).collect()]],
        };
        Manifest::open_on(&self.vfs, &dir.join("checkpoint.manifest"))?.commit(state)?;
        let marker =
            CheckpointMarker { fence: inner.fence, shards: views.len() as u32 };
        write_marker(self.vfs.as_ref(), dir, marker, &self.manifest_fsyncs)?;
        Ok(marker)
    }

    /// Flushes every shard's write buffer and waits until every shard's
    /// worker has drained its compaction queue (including TTL-driven
    /// compactions that are due).
    ///
    /// The buffers are frozen under each shard lock in turn (microseconds),
    /// then all workers flush and compact **concurrently**; this call only
    /// blocks for the slowest shard, not for the sum of all shards.
    pub fn persist(&self) -> Result<()> {
        loop {
            let mut pending = false;
            for shard in &self.shards {
                let mut engine = shard.engine.lock();
                // freeze() returns false both for an empty active buffer
                // and for an occupied frozen slot — in the latter case the
                // active buffer may still hold data, so another pass is
                // needed after the workers drain the slot
                if engine.tree_mut().freeze()? || engine.tree().has_frozen() {
                    pending = true;
                }
                drop(engine);
                shard.worker.wake();
            }
            for shard in &self.shards {
                shard.worker.drain()?;
            }
            if !pending {
                return Ok(());
            }
        }
    }

    /// Wakes every shard's worker and waits for all of them to quiesce,
    /// letting FADE react to the passage of logical time; the
    /// delete-persistence threshold `D_th` holds per shard against the
    /// shared clock. The workers run concurrently — no shard blocks
    /// foreground operations on another shard while this drains.
    pub fn maintain(&self) -> Result<()> {
        for shard in &self.shards {
            shard.worker.wake();
        }
        for shard in &self.shards {
            shard.worker.drain()?;
        }
        Ok(())
    }

    /// Write-backpressure event counters accumulated by this store.
    pub fn backpressure(&self) -> BackpressureStats {
        BackpressureStats {
            stalls: self.stalls.load(Ordering::Relaxed),
            slowdowns: self.slowdowns.load(Ordering::Relaxed),
        }
    }

    /// Aggregated lifetime operation counters across all shards.
    ///
    /// The counters are sums of per-shard **physical** operations: one
    /// logical fan-out call (`delete_range`, `delete_where_delete_key_in`)
    /// executes on every shard and therefore counts `N` times here
    /// (`range_deletes_issued`, `secondary_range_deletes`). Divide by
    /// [`shard_count`](Self::shard_count) — or compare equal shard counts —
    /// when reading those counters as logical operation totals. The
    /// maintenance counters (`compactions`, `trivial_moves`, `bytes_moved`,
    /// `whole_file_drops`, …) are plain sums: each shard compacts its own
    /// tree.
    pub fn stats(&self) -> TreeStats {
        let mut total = TreeStats::default();
        for shard in &self.shards {
            total.absorb(&shard.engine.lock().stats());
        }
        total
    }

    /// Aggregated device I/O counters across all shards, including the
    /// block-cache hit/miss counts when a cache is configured, the
    /// durability barriers issued by the per-shard WALs and the store-wide
    /// batch-commit log, and `bytes_reclaimed`, the bytes of data segments
    /// the shards unlinked because no live page was left in them.
    pub fn io_snapshot(&self) -> IoSnapshot {
        let mut snap: IoSnapshot =
            self.shards.iter().map(|shard| shard.engine.lock().io_snapshot()).sum();
        snap.fsyncs += self.batch_log.fsync_count() + self.manifest_fsyncs.load(Ordering::Relaxed);
        snap
    }

    /// The block cache shared by every shard, if one is configured.
    pub fn block_cache(&self) -> Option<&Arc<PageCache>> {
        self.cache.as_ref()
    }

    /// Counters and occupancy of the shared block cache, if one is
    /// configured (hit/miss/eviction/invalidation counts plus resident
    /// bytes and pages).
    pub fn cache_snapshot(&self) -> Option<CacheSnapshot> {
        self.cache.as_ref().map(|c| c.snapshot())
    }

    /// Aggregated measurement-time snapshot of all shard trees.
    pub fn snapshot_contents(&self) -> Result<ContentSnapshot> {
        let mut total = ContentSnapshot::default();
        for shard in &self.shards {
            total.absorb(&shard.engine.lock().snapshot_contents()?);
        }
        Ok(total)
    }

    /// Write amplification across all shards (aggregate device bytes written
    /// over aggregate bytes ingested).
    pub fn write_amplification(&self) -> f64 {
        self.stats().write_amplification(self.io_snapshot().bytes_written)
    }

    /// The logical clock shared by every shard; advance it to model the
    /// passage of time between operations.
    pub fn clock(&self) -> &LogicalClock {
        &self.clock
    }

    /// White-box access to one shard for experiments and tests: pauses the
    /// shard's background worker (its in-flight job completes first), then
    /// runs `f` with the shard's engine locked.
    ///
    /// # Panics
    /// Panics if `index >= self.shard_count()`.
    pub fn with_shard<R>(&self, index: usize, f: impl FnOnce(&mut Lethe) -> R) -> R {
        let shard = &self.shards[index];
        let _parked = shard.worker.pause();
        // bind the guard: a tail-expression temporary would outlive
        // `_parked`, making the pause guard re-lock the worker state while
        // the engine lock is still held — a rank inversion
        let mut engine = shard.engine.lock();
        f(&mut engine)
    }
}

/// The pinned state behind one [`Snapshot`] handle: the per-shard captured
/// views plus the tracker registration covering them. Lives in the store's
/// snapshot registry (the only strong `Arc`); dropping it — via handle drop
/// or [`ShardedLethe::expire_snapshots`] — releases the tracker fence, the
/// pinned buffers and the pinned versions, letting tombstone GC and page
/// reclamation resume.
struct SnapshotInner {
    fence: SeqNum,
    views: ShardViews,
    tracker: Arc<SnapshotTracker>,
}

impl Drop for SnapshotInner {
    fn drop(&mut self) {
        self.tracker.release(self.fence);
    }
}

/// A consistent cross-shard point-in-time view of a [`ShardedLethe`] store,
/// obtained from [`ShardedLethe::snapshot`].
///
/// All reads (`get`/`range`/`iter_range`/`scan_by_delete_key`) answer as of
/// the snapshot's seqnum fence, no matter how many writes, flushes,
/// compactions or secondary deletes have happened since — and they take no
/// shard locks. While the handle lives, tombstone GC that would discard
/// history it reads is deferred and its disk pages are pinned; dropping it
/// releases both. A handle invalidated by
/// [`ShardedLethe::expire_snapshots`] fails every subsequent read with an
/// explicit error (its pinned state is gone and its pages may have been
/// reclaimed) instead of returning partial state; iterators obtained
/// *before* the expiry stay safe, since they hold their own pins.
pub struct Snapshot {
    id: u64,
    fence: SeqNum,
    inner: Weak<SnapshotInner>,
    registry: Arc<Mutex<HashMap<u64, Arc<SnapshotInner>>>>,
}

impl Snapshot {
    /// The snapshot's seqnum fence: every write with a smaller seqnum is
    /// visible, every one at or above it is not.
    pub fn seqnum(&self) -> SeqNum {
        self.fence
    }

    /// The pinned state, or the fail-closed error for an expired handle.
    fn pinned(&self) -> Result<Arc<SnapshotInner>> {
        self.inner.upgrade().ok_or_else(|| {
            StorageError::InvalidOperation(format!(
                "snapshot at seqnum fence {} was expired; take a new snapshot",
                self.fence
            ))
        })
    }

    /// Point lookup at the snapshot: the value of `key` as of the fence.
    pub fn get(&self, key: SortKey) -> Result<Option<Bytes>> {
        self.pinned()?.views.get(key)
    }

    /// Range lookup over `[lo, hi)` at the snapshot, merged back into
    /// global sort-key order across shards.
    pub fn range(&self, lo: SortKey, hi: SortKey) -> Result<Vec<(SortKey, Bytes)>> {
        self.iter_range(lo, hi)?.collect()
    }

    /// Streaming range scan over `[lo, hi)` at the snapshot: the frozen
    /// twin of [`ShardedLethe::iter_range`], over the captured state. The
    /// returned iterator owns its own pins, so it remains valid even if the
    /// handle is expired mid-scan.
    pub fn iter_range(&self, lo: SortKey, hi: SortKey) -> Result<RangeIter> {
        Ok(self.pinned()?.views.iter_range(lo, hi))
    }

    /// Secondary range lookup at the snapshot: every entry live at the
    /// fence whose delete key lies in `[lo, hi)`, across all shards, in
    /// sort-key order.
    pub fn scan_by_delete_key(&self, lo: DeleteKey, hi: DeleteKey) -> Result<Vec<Entry>> {
        self.pinned()?.views.scan_by_delete_key(lo, hi)
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        // remove the registry's Arc (usually the last one): the inner drop
        // runs after the registry lock is released
        let inner = self.registry.lock().remove(&self.id);
        drop(inner);
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the tests plant and remove store files on disk as an operator might"
)]
mod tests {
    use super::*;
    use lethe_lsm::sstable::SsTable;

    fn small() -> LetheBuilder {
        LetheBuilder::new()
            .buffer(8, 4, 64)
            .size_ratio(4)
            .delete_tile_pages(2)
            .delete_persistence_threshold_secs(5.0)
    }

    fn sharded(shard: LetheBuilder, n: usize) -> ShardedLetheBuilder {
        ShardedLetheBuilder::from_builder(shard).shards(n)
    }

    #[test]
    fn routes_points_and_merges_ranges() {
        let db = sharded(small(), 4).build().unwrap();
        assert_eq!(db.shard_count(), 4);
        for k in 0..500u64 {
            db.put(k, k % 97, format!("v{k}")).unwrap();
        }
        db.persist().unwrap();
        assert_eq!(db.get(123).unwrap(), Some(Bytes::from("v123")));
        assert_eq!(db.get(9999).unwrap(), None);
        let all = db.range(0, 500).unwrap();
        assert_eq!(all.len(), 500);
        let keys: Vec<u64> = all.iter().map(|(k, _)| *k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "fan-out range must return global sort-key order");
    }

    #[test]
    fn deletes_fan_out_correctly() {
        let db = sharded(small(), 3).build().unwrap();
        for k in 0..300u64 {
            db.put(k, k, format!("v{k}")).unwrap();
        }
        assert!(db.delete(7).unwrap());
        assert_eq!(db.get(7).unwrap(), None);
        db.delete_range(100, 150).unwrap();
        assert_eq!(db.range(100, 150).unwrap().len(), 0);
        assert_eq!(db.get(150).unwrap(), Some(Bytes::from("v150")));
        // secondary delete covers every shard: drop delete keys [200, 300)
        // (KiWi page drops act on flushed pages, so persist first)
        db.persist().unwrap();
        let stats = db.delete_where_delete_key_in(200, 300).unwrap();
        assert_eq!(stats.entries_deleted, 100);
        assert!(db.scan_by_delete_key(200, 300).unwrap().is_empty());
        assert!(db.get(199).unwrap().is_some());
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let db = sharded(small(), 4).build().unwrap();
        for k in 0..200u64 {
            db.put(k, k, format!("v{k}")).unwrap();
        }
        for k in 0..200u64 {
            db.get(k).unwrap();
        }
        db.persist().unwrap();
        let stats = db.stats();
        assert_eq!(stats.entries_ingested, 200);
        assert_eq!(stats.point_lookups, 200);
        let io = db.io_snapshot();
        assert!(io.pages_written > 0);
        // every shard took a slice of the key space
        for i in 0..db.shard_count() {
            assert!(db.with_shard(i, |s| s.stats().entries_ingested) > 0);
        }
    }

    #[test]
    fn single_shard_matches_unsharded_semantics() {
        let db = sharded(small(), 1).build().unwrap();
        for k in 0..100u64 {
            db.put(k, k, format!("v{k}")).unwrap();
        }
        db.persist().unwrap();
        assert_eq!(db.range(0, 100).unwrap().len(), 100);
        assert!(db.delete(5).unwrap());
        assert!(!db.delete(100_000).unwrap(), "blind delete must be suppressed");
        assert_eq!(db.stats().blind_deletes_suppressed, 1);
    }

    #[test]
    fn durable_sharded_store_roundtrips_and_checks_shard_count() {
        let dir = std::env::temp_dir().join(format!("lethe-sharded-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = || sharded(small().buffer(64, 4, 64), 3);
        {
            let db = durable().open(&dir).unwrap();
            for k in 0..200u64 {
                db.put(k, k, format!("durable-{k}")).unwrap();
            }
            // no flush: data only lives in the per-shard WALs
        }
        {
            let db = durable().open(&dir).unwrap();
            assert_eq!(db.get(42).unwrap(), Some(Bytes::from("durable-42")));
            assert_eq!(db.range(0, 200).unwrap().len(), 200);
        }
        // a mismatched shard count must be rejected, not silently misroute
        assert!(sharded(small(), 5).open(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_sharded_store_recovers_flushed_data() {
        let dir = std::env::temp_dir().join(format!("lethe-sharded-rec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // tiny buffers: the working set is far larger than the write
        // buffers, so reopening must recover per-shard manifests, not just
        // replay the WALs
        let durable = || sharded(small(), 3);
        {
            let db = durable().open(&dir).unwrap();
            for k in 0..500u64 {
                db.put(k, k % 97, format!("flushed-{k}")).unwrap();
            }
            db.persist().unwrap();
            for k in (0..500u64).step_by(7) {
                db.delete(k).unwrap();
            }
            db.persist().unwrap();
        }
        {
            let db = durable().open(&dir).unwrap();
            for k in 0..500u64 {
                let expect = if k % 7 == 0 { None } else { Some(Bytes::from(format!("flushed-{k}"))) };
                assert_eq!(db.get(k).unwrap(), expect, "key {k}");
            }
            assert_eq!(db.range(0, 500).unwrap().len(), 500 - 500usize.div_ceil(7));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn committed_store_without_super_manifest_is_rejected() {
        let dir = std::env::temp_dir().join(format!("lethe-sharded-part-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = sharded(small(), 2).open(&dir).unwrap();
            for k in 0..200u64 {
                db.put(k, k, format!("v{k}")).unwrap();
            }
            db.persist().unwrap();
        }
        // lose the routing record: shard manifests exist, SHARDS does not
        std::fs::remove_file(dir.join("SHARDS")).unwrap();
        let err = match sharded(small(), 2).open(&dir) {
            Ok(_) => panic!("partial shard state must be rejected"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("SHARDS"), "unexpected error: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every engine knob is set once, on the wrapped `LetheBuilder`, and
    /// reaches every shard unchanged; the block cache is one instance whose
    /// budget is the whole store's.
    #[test]
    fn every_builder_knob_reaches_every_shard() {
        use lethe_lsm::config::{CompactionStrategy, LsmConfig, MergePolicy};
        let budget = 1 << 20;
        let base = LsmConfig {
            max_pages_per_file: 12,
            histogram_buckets: 32,
            key_domain: 1 << 20,
            auto_advance_clock: false,
            ..LsmConfig::default()
        };
        let builder = LetheBuilder::new()
            .with_config(base)
            .delete_persistence_threshold_micros(7_000_000)
            .delete_tile_pages(4)
            .size_ratio(5)
            .buffer(16, 8, 96)
            .bits_per_key(7.0)
            .merge_policy(MergePolicy::Tiering)
            .compaction_strategy(CompactionStrategy::SizeTiered { fan_in: 3 })
            .ingestion_rate(777)
            .wal_sync_policy(lethe_storage::SyncPolicy::EveryN(3))
            .block_cache_bytes(budget)
            .warm_block_cache_on_write(true);
        let expected = builder.config().clone();
        let db = sharded(builder, 3).build().unwrap();
        let cache = Arc::clone(db.cache.as_ref().expect("a budget creates one cache"));
        assert_eq!(cache.capacity_bytes(), budget as u64, "the budget is for the whole store");
        for i in 0..db.shard_count() {
            db.with_shard(i, |shard| {
                assert_eq!(shard.config(), &expected, "shard {i}");
                let shard_cache = shard.block_cache().expect("every shard reads through the cache");
                assert!(Arc::ptr_eq(shard_cache, &cache), "shard {i} has a private cache");
            });
        }
    }

    #[test]
    fn failed_open_leaves_no_shard_manifest() {
        let dir = std::env::temp_dir().join(format!("lethe-shardfail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // make shard-000's WAL path unopenable: a directory where the file goes
        std::fs::create_dir_all(dir.join("shard-000.wal")).unwrap();
        assert!(sharded(small(), 2).open(&dir).is_err());
        assert!(
            !dir.join("SHARDS").exists(),
            "a failed open must not pin a shard count for a store that was never created"
        );
        // after clearing the obstruction, any shard count opens fine
        std::fs::remove_dir_all(dir.join("shard-000.wal")).unwrap();
        let db = sharded(small(), 5).open(&dir).unwrap();
        drop(db);
        assert!(dir.join("SHARDS").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_flushes_active_buffer_behind_occupied_frozen_slot() {
        // regression: freeze() returning false because the frozen slot was
        // occupied used to end persist()'s loop one pass early, leaving the
        // active buffer (and with relaxed WAL sync policies, unsynced
        // acknowledged writes) unflushed
        let db = sharded(small(), 1).build().unwrap();
        db.with_shard(0, |engine| {
            // occupy the frozen slot and refill the active buffer while the
            // worker is paused (with_shard) and never woken (direct puts
            // bypass the front-end's wake)
            for k in 0..40u64 {
                engine.put(k, k, format!("frozen-{k}")).unwrap();
            }
            engine.tree_mut().freeze().unwrap();
            assert!(engine.tree().has_frozen());
            for k in 40..80u64 {
                engine.put(k, k, format!("active-{k}")).unwrap();
            }
            assert!(engine.tree().buffered_entries() > 0);
        });
        db.persist().unwrap();
        assert_eq!(
            db.with_shard(0, |engine| engine.tree().buffered_entries()),
            0,
            "persist must flush the active buffer even when the frozen slot was occupied"
        );
        assert!(!db.with_shard(0, |engine| engine.tree().has_frozen()));
        for k in 0..80u64 {
            assert!(db.get(k).unwrap().is_some(), "key {k} lost");
        }
    }

    #[test]
    fn two_stores_share_one_block_cache_without_crosstalk() {
        let cache = PageCache::new_shared(1 << 20);
        let a = sharded(small().shared_block_cache(Arc::clone(&cache)), 2).build().unwrap();
        let b = sharded(small().shared_block_cache(Arc::clone(&cache)), 2).build().unwrap();
        for k in 0..200u64 {
            a.put(k, k, format!("a{k}")).unwrap();
            b.put(k, k, format!("b{k}")).unwrap();
        }
        a.persist().unwrap();
        b.persist().unwrap();
        // per-source keying: the same page ids exist in both stores, yet
        // every read resolves to its own store's value
        for k in 0..200u64 {
            assert_eq!(a.get(k).unwrap(), Some(Bytes::from(format!("a{k}"))));
            assert_eq!(b.get(k).unwrap(), Some(Bytes::from(format!("b{k}"))));
        }
        for k in 0..200u64 {
            a.get(k).unwrap();
            b.get(k).unwrap();
        }
        let snap = cache.snapshot();
        assert!(snap.hits > 0, "the second pass must hit the shared cache: {snap:?}");
        // both stores report the one shared cache
        assert_eq!(a.cache_snapshot().unwrap(), b.cache_snapshot().unwrap());
    }

    #[test]
    fn write_batch_routes_and_applies_all_ops() {
        let db = sharded(small(), 4).build().unwrap();
        db.put(7, 7, "doomed").unwrap();
        let mut batch = WriteBatch::new();
        for k in 0..64u64 {
            batch.put(k, k % 13, format!("b{k}"));
        }
        batch.delete(7);
        db.write(batch).unwrap();
        // the delete was appended after the put of key 7, so it wins
        assert_eq!(db.get(7).unwrap(), None);
        assert_eq!(db.range(0, 64).unwrap().len(), 63);
        for k in [0u64, 1, 31, 63] {
            if k != 7 {
                assert_eq!(db.get(k).unwrap(), Some(Bytes::from(format!("b{k}"))));
            }
        }
        // a batch-wide secondary delete fans out to every shard
        let mut purge = WriteBatch::new();
        purge.secondary_range_delete(0, 4);
        db.persist().unwrap();
        db.write(purge).unwrap();
        assert!(db.scan_by_delete_key(0, 4).unwrap().is_empty());
        // an empty batch is a no-op
        db.write(WriteBatch::new()).unwrap();
    }

    #[test]
    fn snapshot_is_a_frozen_cross_shard_view() {
        let db = sharded(small(), 3).build().unwrap();
        for k in 0..300u64 {
            db.put(k, k % 31, format!("v{k}")).unwrap();
        }
        db.persist().unwrap();
        let snap = db.snapshot();
        assert_eq!(db.live_snapshots(), 1);
        // mutate heavily after the fence: overwrites, deletes, a range
        // delete, a secondary delete, flushes and compactions
        for k in 0..300u64 {
            db.put(k, k % 31, format!("new{k}")).unwrap();
        }
        db.delete_range(50, 100).unwrap();
        db.delete(7).unwrap();
        db.persist().unwrap();
        db.delete_where_delete_key_in(0, 5).unwrap();
        db.maintain().unwrap();
        // the snapshot still answers as of the fence
        let before = db.stats();
        assert_eq!(snap.get(7).unwrap(), Some(Bytes::from("v7")));
        assert_eq!(snap.get(60).unwrap(), Some(Bytes::from("v60")));
        let frozen = snap.range(0, 300).unwrap();
        assert_eq!(frozen.len(), 300);
        for (k, v) in &frozen {
            assert_eq!(v, &Bytes::from(format!("v{k}")));
        }
        // streaming scan agrees with the materialised range
        let streamed: Vec<_> =
            snap.iter_range(0, 300).unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(streamed, frozen);
        // secondary scan at the fence still sees delete keys [0, 5)
        assert!(!snap.scan_by_delete_key(0, 5).unwrap().is_empty());
        // snapshot reads are counted like live ones: two gets, and three
        // fan-out reads that each count once per shard
        let after = db.stats();
        assert_eq!(after.point_lookups - before.point_lookups, 2);
        assert_eq!(after.range_lookups - before.range_lookups, 3 * 3);
        // the live view moved on
        assert_eq!(db.get(7).unwrap(), None);
        assert_eq!(db.get(60).unwrap(), None);
        // key 6's delete key (6) is outside the purged [0, 5) range
        assert_eq!(db.get(6).unwrap(), Some(Bytes::from("new6")));
        drop(snap);
        assert_eq!(db.live_snapshots(), 0);
    }

    #[test]
    fn expired_snapshot_handle_fails_closed() {
        let db = sharded(small(), 2).build().unwrap();
        for k in 0..100u64 {
            db.put(k, k, format!("v{k}")).unwrap();
        }
        let snap = db.snapshot();
        assert_eq!(snap.get(1).unwrap(), Some(Bytes::from("v1")));
        // an iterator created before the expiry owns its own pins
        let mut early_iter = snap.iter_range(0, 100).unwrap();
        assert_eq!(db.expire_snapshots(), 1);
        assert_eq!(db.live_snapshots(), 0);
        let err = snap.get(1).unwrap_err();
        assert!(err.to_string().contains("expired"), "got: {err}");
        assert!(snap.range(0, 100).is_err());
        assert!(snap.iter_range(0, 100).is_err());
        assert!(snap.scan_by_delete_key(0, 100).is_err());
        let drained: Vec<_> = early_iter.by_ref().collect::<Result<_>>().unwrap();
        assert_eq!(drained.len(), 100);
        // a fresh snapshot after the expiry works
        let fresh = db.snapshot();
        assert_eq!(fresh.get(1).unwrap(), Some(Bytes::from("v1")));
    }

    #[test]
    fn checkpoint_restores_the_fenced_view() {
        let dir = std::env::temp_dir().join(format!("lethe-ckpt-{}", std::process::id()));
        let store = dir.with_extension("store");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&store);
        let db = sharded(small(), 3).open(&store).unwrap();
        for k in 0..400u64 {
            db.put(k, k % 53, format!("v{k}")).unwrap();
        }
        db.delete(13).unwrap();
        db.delete_range(350, 400).unwrap();
        db.persist().unwrap();
        let snap = db.snapshot();
        let expected = snap.range(0, 400).unwrap();
        let marker = db.checkpoint_at(&snap, &dir).unwrap();
        assert_eq!(marker.fence, snap.seqnum());
        assert_eq!(marker.shards, 3);
        // writers continue after (and conceptually during) the stream;
        // none of this reaches the checkpoint
        for k in 0..400u64 {
            db.put(k, k % 53, "after").unwrap();
        }
        let restored = Lethe::restore(&dir).unwrap();
        assert_eq!(restored.range(0, 400).unwrap(), expected);
        assert_eq!(restored.get(13).unwrap(), None);
        assert_eq!(restored.get(360).unwrap(), None);
        assert_eq!(restored.get(12).unwrap(), Some(Bytes::from("v12")));
        // secondary index metadata survived the stream
        let by_delete = restored.scan_by_delete_key(5, 6).unwrap();
        assert!(!by_delete.is_empty());
        assert!(by_delete.iter().all(|e| e.delete_key == 5));
        // the restored store resumes past the fence and accepts writes
        let mut restored = restored;
        restored.put(9999, 1, "fresh").unwrap();
        assert_eq!(restored.get(9999).unwrap(), Some(Bytes::from("fresh")));
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&store);

        // an image of several files, with a range delete that starts inside
        // a later one: each range tombstone joins the file its start falls
        // in, as in a job's output, instead of the first file taking all
        let (dir, store) = (dir.with_extension("files"), dir.with_extension("files-store"));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&store);
        let db = sharded(small(), 3).open(&store).unwrap();
        for k in 0..3_000u64 {
            db.put(k, k % 53, format!("v{k}")).unwrap();
        }
        db.delete_range(100, 110).unwrap();
        db.delete_range(2_500, 2_600).unwrap();
        db.persist().unwrap();
        let snap = db.snapshot();
        db.checkpoint_at(&snap, &dir).unwrap();
        let restored = Lethe::restore(&dir).unwrap();
        assert_eq!(restored.range(0, 3_000).unwrap(), snap.range(0, 3_000).unwrap());
        assert_eq!(restored.get(2_550).unwrap(), None);
        let files: Vec<_> = restored.tree().levels()[0].all_tables().cloned().collect();
        assert!(files.len() > 1, "{} files", files.len());
        let rts = |f: &SsTable| f.range_tombstones.iter().map(|rt| rt.sort_key).collect::<Vec<_>>();
        let total: usize = files.iter().map(|f| f.range_tombstones.len()).sum();
        assert!(files[0].range_tombstones.len() < total, "the first file holds {:?}", rts(&files[0]));
        assert!(files[1..].iter().any(|f| rts(f).contains(&2_500)));
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&store);
    }

    /// Regression: the checkpoint stream scanned the half-open
    /// `[0, u64::MAX)`, which cannot name the largest key.
    #[test]
    fn checkpoint_keeps_the_largest_key() {
        for flushed in [false, true] {
            let dir = std::env::temp_dir()
                .join(format!("lethe-ckpt-max-{flushed}-{}", std::process::id()));
            let store = dir.with_extension("store");
            let _ = std::fs::remove_dir_all(&dir);
            let _ = std::fs::remove_dir_all(&store);
            let db = sharded(small(), 2).open(&store).unwrap();
            db.put(7, 7, "small").unwrap();
            db.put(u64::MAX, 1, "largest").unwrap();
            if flushed {
                db.persist().unwrap();
            }
            db.checkpoint(&dir).unwrap();
            let restored = Lethe::restore(&dir).unwrap();
            assert_eq!(restored.get(7).unwrap(), Some(Bytes::from("small")));
            assert_eq!(
                restored.get(u64::MAX).unwrap(),
                Some(Bytes::from("largest")),
                "key u64::MAX, flushed before the checkpoint: {flushed}"
            );
            drop(db);
            let _ = std::fs::remove_dir_all(&dir);
            let _ = std::fs::remove_dir_all(&store);
        }
    }

    /// A checkpoint is written through the store's `Vfs`, so a store held
    /// in memory restores from that memory, not from the host.
    #[test]
    fn a_checkpoint_restores_on_the_store_vfs() {
        let vfs = MemVfs::shared();
        let db = sharded(small(), 3).open_on(Arc::clone(&vfs), "/store").unwrap();
        for k in 0..400u64 {
            db.put(k, k % 53, format!("v{k}")).unwrap();
        }
        db.delete_range(350, 400).unwrap();
        db.persist().unwrap();
        db.put(7, 7, "buffered").unwrap();
        let snap = db.snapshot();
        db.checkpoint_at(&snap, "/ckpt").unwrap();
        db.put(8, 8, "after").unwrap();
        let restored = LetheBuilder::new().restore_on(vfs, "/ckpt").unwrap();
        assert_eq!(restored.range(0, 400).unwrap(), snap.range(0, 400).unwrap());
        assert_eq!(restored.get(7).unwrap(), Some(Bytes::from("buffered")));
        assert_eq!(restored.get(8).unwrap(), Some(Bytes::from("v8")));
    }

    #[test]
    fn restore_refuses_a_markerless_directory() {
        let dir = std::env::temp_dir().join(format!("lethe-ckpt-torn-{}", std::process::id()));
        let store = dir.with_extension("store");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&store);
        let db = sharded(small(), 2).open(&store).unwrap();
        for k in 0..100u64 {
            db.put(k, k, format!("v{k}")).unwrap();
        }
        db.checkpoint(&dir).unwrap();
        // simulate a checkpoint torn before its commit point
        std::fs::remove_file(dir.join("CHECKPOINT")).unwrap();
        let err = match Lethe::restore(&dir) {
            Ok(_) => panic!("a markerless checkpoint must be refused"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("incomplete"), "got: {err}");
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&store);
    }

    #[test]
    fn cross_shard_batches_survive_reopen_unflushed() {
        let dir = std::env::temp_dir().join(format!("lethe-xshard-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = || sharded(small().buffer(64, 4, 64), 3);
        {
            let db = durable().open(&dir).unwrap();
            let mut batch = WriteBatch::new();
            for k in 0..60u64 {
                batch.put(k, k, format!("x{k}"));
            }
            db.write(batch).unwrap();
            // no persist: the batch lives only in the shard WALs + BATCHES
        }
        assert!(dir.join("BATCHES").exists());
        {
            let db = durable().open(&dir).unwrap();
            assert_eq!(db.range(0, 60).unwrap().len(), 60, "committed batch must replay in full");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_log_compacts_once_wals_forget_the_batch() {
        let dir = std::env::temp_dir().join(format!("lethe-blogret-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = || sharded(small(), 3);
        {
            let db = durable().open(&dir).unwrap();
            let mut batch = WriteBatch::new();
            for k in 0..48u64 {
                batch.put(k, k, format!("y{k}"));
            }
            db.write(batch).unwrap();
            // flushing moves the slices into sstables and truncates the WALs
            db.persist().unwrap();
        }
        {
            // this reopen sees no WAL references and compacts the log
            let db = durable().open(&dir).unwrap();
            assert_eq!(db.range(0, 48).unwrap().len(), 48);
        }
        let log = BatchCommitLog::open(&OsVfs::shared(), &dir.join("BATCHES")).unwrap();
        assert_eq!(log.committed().len(), 0, "flushed-out batch ids must be compacted away");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_concurrent_puts_coalesce_fsyncs() {
        let dir = std::env::temp_dir().join(format!("lethe-gc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = sharded(small().buffer(256, 4, 64), 1)
            .wal_sync_policy(lethe_storage::SyncPolicy::Always)
            .open(&dir)
            .unwrap();
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 40;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let db = &db;
                s.spawn(move || {
                    for k in (t * PER_THREAD)..((t + 1) * PER_THREAD) {
                        db.put(k, k, format!("g{k}")).unwrap();
                    }
                });
            }
        });
        for k in 0..THREADS * PER_THREAD {
            assert_eq!(db.get(k).unwrap(), Some(Bytes::from(format!("g{k}"))), "key {k}");
        }
        let io = db.io_snapshot();
        assert!(io.fsyncs > 0, "durable writes must issue barriers");
        // every record is durable, but racing writers share group barriers,
        // so there can never be more WAL fsyncs than records — and with 8
        // writers against one shard there are reliably fewer (the assert is
        // deliberately loose: scheduling decides the exact group sizes)
        assert!(
            io.fsyncs <= THREADS * PER_THREAD,
            "group commit must not fsync more than once per record: {io:?}"
        );
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Deletes ride the group-commit queue like puts: eight deletes of live
    /// keys that arrive while the engine is busy are one convoy, one fsync.
    /// (When each took the engine lock itself, they were eight.)
    #[test]
    fn sharded_deletes_share_a_commit_convoy() {
        let dir = std::env::temp_dir().join(format!("lethe-delgc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = sharded(small().buffer(256, 4, 64), 1)
            .wal_sync_policy(lethe_storage::SyncPolicy::Always)
            .open(&dir)
            .unwrap();
        const KEYS: u64 = 8;
        for k in 0..KEYS {
            db.put(k, k, format!("live{k}")).unwrap();
        }
        let before = db.io_snapshot().fsyncs;
        std::thread::scope(|s| {
            // hold the engine until every delete has joined the queue (the
            // first to join leads, and waits for the engine; the rest park),
            // giving up after a while so a delete that bypasses the queue
            // fails the count below instead of hanging here
            db.with_shard(0, |_engine| {
                for k in 0..KEYS {
                    let db = &db;
                    s.spawn(move || assert!(db.delete(k).unwrap()));
                }
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
                while db.shards[0].queue.state.lock().pending.len() < KEYS as usize
                    && std::time::Instant::now() < deadline
                {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            });
        });
        let fsyncs = db.io_snapshot().fsyncs - before;
        assert_eq!(fsyncs, 1, "{KEYS} queued deletes must share one durability barrier");
        assert_eq!(db.range(0, KEYS).unwrap().len(), 0);
        assert_eq!(db.stats().point_deletes_issued, KEYS);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_land_all_entries() {
        let db = sharded(small(), 4).build().unwrap();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let db = &db;
                s.spawn(move || {
                    for k in (t * 1000)..(t * 1000 + 1000) {
                        db.put(k, k % 31, format!("v{k}")).unwrap();
                    }
                });
            }
        });
        db.persist().unwrap();
        assert_eq!(db.stats().entries_ingested, 8000);
        assert_eq!(db.range(0, 8000).unwrap().len(), 8000);
    }
}
