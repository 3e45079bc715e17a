//! The LSM tree engine.
//!
//! [`LsmTree`] wires together the memtable, the leveled/tiered on-device
//! structure, a pluggable [`CompactionPolicy`]
//! and the KiWi file layout into a complete storage engine: puts, point and
//! range deletes on the sort key, secondary range deletes on the delete key,
//! point lookups, range scans, flushing and compaction.
//!
//! The same type serves as the state-of-the-art baseline (saturation-driven
//! policies, `h = 1`, full-tree compaction for secondary deletes) and as the
//! substrate that the `lethe-core` crate configures into Lethe (FADE policy,
//! `h > 1`, KiWi page drops).
//!
//! ## Concurrency model
//!
//! The tree is split into a *write surface* (`&mut self`: puts, deletes,
//! flushes, compactions — serialised by the owner, e.g. a shard mutex) and a
//! *read surface* that is lock-free with respect to the writer: disk levels
//! live in an immutable, `Arc`-shared [`VersionSet`] and the write buffer in
//! shared `active`/`frozen` memtables, so [`ReadView`] handles obtained
//! from [`LsmTree::reader`] serve `get`/`range`/secondary scans from any
//! thread while flushes and compactions run (the read path itself lives in
//! [`crate::read`]). [`LsmTree::capture_snapshot`] hands out the same
//! `ReadView` over a copy of the buffers and a version set that never
//! installs, and [`LsmTree::snapshot_contents`] audits one such capture.
//! Every mutation is **stage → commit → apply** over one
//! op list, whichever door it came through (the point API, a
//! [`WriteBatch`](crate::batch::WriteBatch), a group-commit leader, WAL
//! replay); that path lives in [`crate::write`]. Structural work is further
//! split into **plan → execute → apply** phases ([`LsmTree::plan_job`],
//! [`JobPlan::execute`](crate::jobs::JobPlan::execute),
//! [`LsmTree::apply_job`], all in [`crate::jobs`]): planning and applying
//! need the write lock but are cheap pointer work, while the expensive
//! execute phase (page reads, merging, building output files) runs against
//! pinned immutable state and needs no lock at all. [`LsmTree::step`] runs
//! one such cycle under `&mut self`, and inline maintenance is `step` in a
//! loop; a background worker (see `lethe-core`) makes the same three calls
//! with its lock released around the execute.

use crate::compaction::CompactionPolicy;
use crate::config::LsmConfig;
use crate::level::{Level, Run};
use crate::read::{FrozenBuffer, MemState, ReadView};
use crate::snapshot::SnapshotTracker;
use crate::sstable::SsTable;
use crate::stats::{ContentSnapshot, TreeStats};
use crate::version::VersionSet;
use bytes::Bytes;
use lethe_storage::{
    DeleteKey, Entry, FileBackend, FileWal, IoSnapshot, LogicalClock, Manifest,
    ManifestCommitted, ManifestState, MemVfs, PageId, Result, SeqNum, SortKey, StorageBackend,
    StorageError, Timestamp, Wal,
};
use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What [`LsmTree::recover`] found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Files rebuilt from the manifest (Bloom filters and fence pointers
    /// re-derived from their pages).
    pub files_recovered: usize,
    /// Device pages released because the durable manifest state did not
    /// reference them (half-written flush output, pages dropped after the
    /// last committed edit).
    pub pages_released: usize,
    /// WAL records replayed on top of the recovered tree.
    pub wal_records_replayed: usize,
}

/// Who calls [`LsmTree::step`]: both modes run the same job cycle, and
/// differ only in which thread drives it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaintenanceMode {
    /// The writer: a put that fills the buffer flushes it and steps until
    /// the tree needs no work before returning.
    #[default]
    Inline,
    /// Someone else: a filled buffer is only *frozen*, a worker owned by the
    /// embedding layer drains it through [`LsmTree::plan_job`] /
    /// [`JobPlan::execute`](crate::jobs::JobPlan::execute) /
    /// [`LsmTree::apply_job`] with its lock released around the execute, and
    /// the writer applies backpressure via [`LsmTree::write_stalled`].
    Background,
}

pub(crate) fn min_opt(a: Option<Timestamp>, b: Option<Timestamp>) -> Option<Timestamp> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// A complete LSM storage engine instance.
pub struct LsmTree {
    pub(crate) config: LsmConfig,
    pub(crate) backend: Arc<dyn StorageBackend>,
    pub(crate) clock: LogicalClock,
    pub(crate) policy: Box<dyn CompactionPolicy>,
    pub(crate) mem: Arc<MemState>,
    pub(crate) versions: Arc<VersionSet>,
    /// Sequence-number allocator. Shared across every shard of a sharded
    /// store so one cross-shard batch commits under one seqnum range.
    pub(crate) next_seqnum: Arc<AtomicU64>,
    /// Cross-shard batch ids proven committed by the batch-commit log;
    /// replay rolls back any `WalRecord::Batch { id: Some(_), .. }` whose id
    /// is missing here (prepared but never committed).
    pub(crate) committed_batches: HashSet<u64>,
    /// Every cross-shard batch id seen in the WAL during recovery (committed
    /// or rolled back). The sharded front-end unions these across shards to
    /// compact its batch-commit log down to ids some WAL still references.
    pub(crate) replayed_batch_ids: HashSet<u64>,
    pub(crate) next_file_id: Arc<AtomicU64>,
    /// Live-snapshot registry. Shared across every shard of a sharded store
    /// (like the seqnum allocator) so one cross-shard snapshot gates
    /// tombstone GC in all shards at once.
    pub(crate) snapshots: Arc<SnapshotTracker>,
    pub(crate) stats: TreeStats,
    reader: ReadView,
    pub(crate) wal: Box<dyn Wal>,
    manifest: Manifest,
    mode: MaintenanceMode,
    /// Set while [`LsmTree::recover`] replays the WAL: a flush then covers
    /// records the log must keep until the replay is over, so a freeze
    /// captures no log position and the flush truncates nothing.
    pub(crate) replaying: bool,
}

impl LsmTree {
    /// Creates an engine over its device, write-ahead log and manifest with
    /// the given compaction policy; [`LsmTree::recover`] it before use.
    pub fn new(
        config: LsmConfig,
        backend: Arc<dyn StorageBackend>,
        wal: Box<dyn Wal>,
        manifest: Manifest,
        clock: LogicalClock,
        policy: Box<dyn CompactionPolicy>,
    ) -> Result<Self> {
        config.validate().map_err(StorageError::InvalidOperation)?;
        let mem = Arc::new(MemState::default());
        let versions = Arc::new(VersionSet::new());
        let reader = ReadView::live(
            Arc::clone(&backend),
            Arc::clone(&mem),
            Arc::clone(&versions),
            config.buffer_capacity_bytes(),
        );
        Ok(LsmTree {
            config,
            backend,
            clock,
            policy,
            mem,
            versions,
            next_seqnum: Arc::new(AtomicU64::new(1)),
            committed_batches: HashSet::new(),
            replayed_batch_ids: HashSet::new(),
            next_file_id: Arc::new(AtomicU64::new(1)),
            snapshots: Arc::new(SnapshotTracker::new()),
            stats: TreeStats::default(),
            reader,
            wal,
            manifest,
            mode: MaintenanceMode::Inline,
            replaying: false,
        })
    }

    /// A recovered tree on a fresh [`MemVfs`], without the engine crate's
    /// block cache: what unit tests and tools build.
    pub fn in_memory(config: LsmConfig, policy: Box<dyn CompactionPolicy>) -> Result<Self> {
        let (vfs, dir) = (MemVfs::shared(), Path::new("/"));
        let target = config.segment_target_bytes();
        let backend = Arc::new(FileBackend::open_on(&vfs, dir, "lethe", target)?);
        let wal = FileWal::open_on(&vfs, &dir.join("lethe.wal"))?.with_sync_policy(config.wal_sync);
        let manifest = Manifest::open_on(&vfs, &dir.join("lethe.manifest"))?;
        let mut tree =
            Self::new(config, backend, Box::new(wal), manifest, LogicalClock::new(), policy)?;
        tree.recover()?;
        Ok(tree)
    }

    /// Shares a sequence-number allocator with other trees (the shards of
    /// one store), so every shard draws from one monotonic seqnum space and
    /// a cross-shard batch commits under a single seqnum range. Call before
    /// [`LsmTree::recover`]; recovery raises the shared counter with
    /// `fetch_max`, never lowers it.
    pub fn with_seqnum_allocator(mut self, alloc: Arc<AtomicU64>) -> Self {
        alloc.fetch_max(self.next_seqnum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.next_seqnum = alloc;
        self
    }

    /// Shares a live-snapshot tracker with other trees (the shards of one
    /// store): one registered snapshot fence gates tombstone GC in every
    /// shard at once.
    pub fn with_snapshot_tracker(mut self, tracker: Arc<SnapshotTracker>) -> Self {
        self.snapshots = tracker;
        self
    }

    /// The tree's live-snapshot tracker.
    pub fn snapshot_tracker(&self) -> &Arc<SnapshotTracker> {
        &self.snapshots
    }

    /// The next sequence number this tree will assign — every write applied
    /// so far carries a strictly smaller one. Loaded from the (possibly
    /// shared) allocator; read it under the tree's write serialisation when
    /// it must fence a consistent cut, as the sharded snapshot path does.
    pub fn next_seqnum(&self) -> SeqNum {
        self.next_seqnum.load(Ordering::Relaxed)
    }

    /// Captures a frozen point-in-time view of this tree.
    ///
    /// Call while holding the tree's write serialisation (the shard's
    /// engine lock in the sharded store): under it no write, flush commit
    /// or version install can interleave, so the three captured sources
    /// (active copy, pinned frozen buffer, pinned version) describe one
    /// instant. The returned [`ReadView`] has the live view's shape over
    /// state nothing writes, and reads without any tree lock. The view is
    /// unpinned: a caller that holds it across writes pins its fence with
    /// [`SnapshotTracker::pin`] so tombstone GC is gated while it lives.
    pub fn capture_snapshot(&self) -> ReadView {
        self.reader.capture()
    }

    /// Provides the set of cross-shard batch ids the batch-commit log proves
    /// committed. Call before [`LsmTree::recover`]: WAL replay applies a
    /// `WalRecord::Batch { id: Some(id), .. }` slice only when `id` is in
    /// this set, rolling back batches that prepared but never committed.
    pub fn set_committed_batches(&mut self, ids: HashSet<u64>) {
        self.committed_batches = ids;
    }

    /// The cross-shard batch ids this tree's WAL still carried at recovery
    /// time (committed or rolled back). Empty until [`LsmTree::recover`] runs
    /// and for trees that never logged a cross-shard slice.
    pub fn wal_batch_ids(&self) -> &HashSet<u64> {
        &self.replayed_batch_ids
    }

    /// Selects who calls [`LsmTree::step`] (default
    /// [`MaintenanceMode::Inline`]).
    pub fn set_maintenance_mode(&mut self, mode: MaintenanceMode) {
        self.mode = mode;
    }

    /// Returns a cheap-to-clone live view serving lock-free reads; see
    /// [`ReadView`].
    pub fn reader(&self) -> ReadView {
        self.reader.clone()
    }

    /// Recovers a freshly-constructed engine from its durable artifacts:
    /// rebuilds levels, runs and files from its manifest (re-deriving Bloom
    /// filters and fence pointers from page contents), releases device pages
    /// the manifest does not reference (half-written flush output, pages
    /// dropped after the last manifest edit), then replays its WAL on top.
    /// The WAL is *not* truncated here: its records stay until the next
    /// flush commits a manifest edit that covers them, so a crash during or
    /// right after recovery loses nothing.
    pub fn recover(&mut self) -> Result<RecoveryReport> {
        let mut report = RecoveryReport::default();
        if !self.versions.current().levels.is_empty()
            || !self.mem.active.read().table.is_empty()
            || self.mem.frozen.read().is_some()
        {
            return Err(StorageError::InvalidOperation(
                "recover() requires a freshly-constructed (empty) tree".into(),
            ));
        }
        let state = self.manifest.state().clone();
        self.next_file_id.fetch_max(state.next_file_id, Ordering::Relaxed);
        self.next_seqnum.fetch_max(state.next_seqnum, Ordering::Relaxed);
        self.clock.advance_to(state.clock_micros);
        let mut levels = Vec::with_capacity(state.levels.len());
        for level_desc in &state.levels {
            let mut level = Level::new();
            for run_desc in level_desc {
                let mut tables = Vec::with_capacity(run_desc.len());
                for fd in run_desc {
                    let table = SsTable::recover(fd, &self.config, self.backend.as_ref())?;
                    self.next_file_id.fetch_max(fd.id + 1, Ordering::Relaxed);
                    self.next_seqnum.fetch_max(fd.max_seqnum + 1, Ordering::Relaxed);
                    report.files_recovered += 1;
                    self.versions.register_table(&table);
                    tables.push(Arc::new(table));
                }
                level.runs.push(Run::new(tables));
            }
            level.prune_empty_runs();
            levels.push(level);
        }
        // the device scan resurfaces every frame in the data file; drop
        // whatever the durable state does not reference
        let referenced: HashSet<PageId> =
            state.files().flat_map(|f| f.tiles.iter().flatten().copied()).collect();
        for id in self.backend.page_ids() {
            if !referenced.contains(&id) {
                crate::reclaim::retire_page(self.backend.as_ref(), id)?;
                report.pages_released += 1;
            }
        }
        self.versions.install(levels);
        report.wal_records_replayed = self.replay_wal()?;
        Ok(report)
    }

    // ----------------------------------------------------------------- reads

    /// Point lookup: returns the current value of `sort_key`, or `None` if
    /// the key does not exist or has been deleted. Lock-free with respect to
    /// flushes and compactions (see [`ReadView`]).
    pub fn get(&self, sort_key: SortKey) -> Result<Option<Bytes>> {
        self.reader.get(sort_key)
    }

    /// Range lookup on the sort key: returns the live `(key, value)` pairs in
    /// `[lo, hi)`, newest version per key, in key order.
    pub fn range(&self, lo: SortKey, hi: SortKey) -> Result<Vec<(SortKey, Bytes)>> {
        self.reader.range(lo, hi)
    }

    /// Secondary range lookup: returns every live entry whose **delete key**
    /// lies in `[d_lo, d_hi)`.
    pub fn secondary_range_scan(&self, d_lo: DeleteKey, d_hi: DeleteKey) -> Result<Vec<Entry>> {
        self.reader.scan_by_delete_key(d_lo, d_hi)
    }

    /// Returns `true` if `sort_key` may exist in the tree (memtable check
    /// plus Bloom probes; no page reads). Used for blind-delete suppression.
    pub fn key_may_exist(&self, sort_key: SortKey) -> Result<bool> {
        self.reader.key_may_exist(sort_key)
    }

    // ------------------------------------------------------------ flush/compact

    /// Describes a prospective tree state for the manifest.
    fn describe_state(&self, levels: &[Level]) -> ManifestState {
        ManifestState {
            next_file_id: self.next_file_id.load(Ordering::Relaxed),
            next_seqnum: self.next_seqnum.load(Ordering::Relaxed),
            clock_micros: self.clock.now(),
            levels: levels
                .iter()
                .map(|l| {
                    l.runs
                        .iter()
                        .map(|r| r.tables().iter().map(|t| t.describe()).collect())
                        .collect()
                })
                .collect(),
        }
    }

    pub(crate) fn maybe_flush(&mut self) -> Result<()> {
        if self.mem.active.read().table.size_bytes() >= self.config.buffer_capacity_bytes() {
            match self.mode {
                MaintenanceMode::Inline => {
                    self.flush()?;
                    self.maintain()?;
                }
                MaintenanceMode::Background => {
                    // only freeze — the worker flushes; if the frozen slot is
                    // still occupied the embedding layer stalls the writer
                    self.freeze()?;
                }
            }
        }
        Ok(())
    }

    /// Moves the active buffer into the frozen slot, making it immutable and
    /// ready to flush. Returns `false` if the active buffer is empty or the
    /// frozen slot is still occupied by an unflushed buffer. Readers never
    /// observe a gap: the frozen slot is populated before the active lock is
    /// released.
    pub fn freeze(&mut self) -> Result<bool> {
        if self.mem.frozen.read().is_some() {
            return Ok(false);
        }
        let wal_upto = if self.replaying { 0 } else { self.wal.position()? };
        let mut active = self.mem.active.write();
        if active.table.is_empty() {
            return Ok(false);
        }
        let (entries, range_tombstones, fragments) = active.table.drain_sorted();
        let oldest_tombstone_ts = active.oldest_tombstone_ts.take();
        *self.mem.frozen.write() = Some(Arc::new(FrozenBuffer {
            entries,
            range_tombstones,
            fragments,
            oldest_tombstone_ts,
            wal_upto,
        }));
        Ok(true)
    }

    /// True if a frozen buffer is waiting to be flushed.
    pub fn has_frozen(&self) -> bool {
        self.mem.frozen.read().is_some()
    }

    /// True when the writer should stall: the active buffer is full *and*
    /// the frozen slot is still occupied (the background flush has not
    /// caught up). The embedding layer blocks the writer until the worker
    /// clears the frozen slot. Delegates to the reader so the read and
    /// write surfaces can never disagree on the condition.
    pub fn write_stalled(&self) -> bool {
        self.reader.write_stalled()
    }

    /// Number of runs in the first disk level (the slowdown/stall
    /// backpressure signal of the sharded front-end).
    pub fn l0_run_count(&self) -> usize {
        self.reader.l0_run_count()
    }

    /// Commits `levels` to the manifest: syncs the device first so the
    /// manifest never references pages that could be lost, then appends the
    /// edit. Called *before* the version is installed, so a failed commit
    /// leaves the in-memory tree unchanged; it releases the freshly built
    /// `new_tables` before the error propagates (nothing references their
    /// pages, which would otherwise leak until a reopen's unreferenced-page
    /// GC). A commit that poisons the manifest releases nothing: its edit
    /// may be in the log and name those pages, so they stay, as a crash
    /// would leave them, for the reopen's GC to sort out.
    ///
    /// The barrier is skipped when the change built no table (`new_tables`
    /// is empty: a trivial move, a whole-file drop, a page drop that emptied
    /// every file it touched): every page the edit names was synced by the
    /// commit that introduced it, so there is nothing unsynced to name.
    fn commit_or_release(
        &mut self,
        levels: &[Level],
        new_tables: &[Arc<SsTable>],
    ) -> Result<ManifestCommitted> {
        let state = self.describe_state(levels);
        let synced = if new_tables.is_empty() { Ok(()) } else { self.backend.sync() };
        let poisoned = self.manifest.is_poisoned();
        let committed = synced.and_then(|()| self.manifest.commit(state));
        if committed.is_err() && self.manifest.is_poisoned() == poisoned {
            for t in new_tables {
                // skip pages shared with live tables: a secondary-delete
                // replacement keeps the original's surviving pages, and
                // the original is still installed after a failed commit
                // the commit's error is the one returned
                let _ = self.versions.release_unregistered_pages(t, self.backend.as_ref());
            }
        }
        committed
    }

    /// The shared commit tail of every structural change: manifest edit
    /// (releasing `new_tables` if it fails), page-reference registration,
    /// atomic version install and retirement of the replaced file objects.
    /// Used by [`LsmTree::apply_job`] and by the secondary-delete page-drop
    /// path, so the commit ordering lives in exactly one place. Each ends
    /// its operation with the garbage-collection pass that retires the
    /// pages, after its in-memory bookkeeping, so a failed segment unlink
    /// fails the operation with all of its effects in place.
    ///
    /// The manifest edit that forgets the retired files is committed
    /// *before* their pages are retired — the reverse order could reclaim
    /// pages a recovered manifest still references. A whole-file drop (a
    /// job placed nowhere) is all commit tail: its manifest append, then the
    /// append's barrier, then the retire. A trivial move passes neither
    /// `new_tables` nor `retired` (its files are the same objects before and
    /// after), so its whole commit is the manifest edit and the install.
    ///
    /// Returns the manifest's commit witness: only a holder may drop the WAL
    /// prefix the edit covers.
    pub(crate) fn commit_version(
        &mut self,
        levels: Vec<Level>,
        new_tables: &[Arc<SsTable>],
        retired: Vec<Arc<SsTable>>,
    ) -> Result<ManifestCommitted> {
        let committed = self.commit_or_release(&levels, new_tables)?;
        for t in new_tables {
            self.versions.register_table(t);
        }
        self.versions.install(levels);
        for t in retired {
            self.versions.retire_table(t);
        }
        Ok(committed)
    }

    // ---------------------------------------------------------- introspection

    /// Engine configuration.
    pub fn config(&self) -> &LsmConfig {
        &self.config
    }

    /// The logical clock driving TTLs and tombstone ages.
    pub fn clock(&self) -> &LogicalClock {
        &self.clock
    }

    /// Lifetime operation counters (write-side counters plus the lock-free
    /// read-side lookup counters, folded together).
    pub fn stats(&self) -> TreeStats {
        let mut s = self.stats.clone();
        let counters = &self.reader.counters;
        s.point_lookups += counters.point_lookups.load(Ordering::Relaxed);
        s.range_lookups += counters.range_lookups.load(Ordering::Relaxed);
        s
    }

    /// Snapshot of the device's I/O counters, with the WAL's and the
    /// manifest's durability barriers folded into `fsyncs` (the backend
    /// counts its own).
    pub fn io_snapshot(&self) -> IoSnapshot {
        let mut snap = self.backend.stats().snapshot();
        snap.fsyncs += self.wal.fsync_count() + self.manifest.fsync_count();
        snap
    }


    /// The storage device the tree writes to.
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    /// The version set publishing the disk levels (white-box access for
    /// tests: install counts, pinned snapshots, garbage length).
    pub fn versions(&self) -> &Arc<VersionSet> {
        &self.versions
    }

    /// Number of disk levels currently allocated.
    pub fn level_count(&self) -> usize {
        self.versions.current().levels.len()
    }

    /// Number of files per level (index 0 = first disk level).
    pub fn files_per_level(&self) -> Vec<usize> {
        self.versions.current().levels.iter().map(|l| l.file_count()).collect()
    }

    /// Total entries currently stored on disk (including tombstones and
    /// stale versions).
    pub fn disk_entries(&self) -> u64 {
        self.versions.current().levels.iter().map(|l| l.total_entries()).sum()
    }

    /// Total bytes currently stored on disk.
    pub fn disk_bytes(&self) -> u64 {
        self.versions.current().levels.iter().map(|l| l.total_bytes()).sum()
    }

    /// Number of entries currently buffered in memory (active + frozen).
    pub fn buffered_entries(&self) -> usize {
        self.mem.active.read().table.len()
            + self.mem.frozen.read().as_ref().map(|f| f.entries.len()).unwrap_or(0)
    }

    /// A copy of the current disk levels (used by policies' tests, KiWi
    /// planning and the benchmark harness for white-box inspection; the
    /// `Arc`-shared files make this cheap).
    pub fn levels(&self) -> Vec<Level> {
        self.versions.current().levels.clone()
    }

    /// Write amplification so far (paper §3.2.3): device bytes written beyond
    /// the bytes of new/modified data, relative to the latter.
    pub fn write_amplification(&self) -> f64 {
        self.stats().write_amplification(self.io_snapshot().bytes_written)
    }

    /// In-memory footprint of all filters and fence pointers, in bytes.
    pub fn metadata_footprint(&self) -> u64 {
        self.versions
            .current()
            .levels
            .iter()
            .flat_map(|l| l.all_tables())
            .map(|t| t.memory_footprint() as u64)
            .sum()
    }

    /// Produces a measurement-time snapshot of the tree contents: space
    /// amplification inputs, tombstone counts and tombstone-age distribution.
    /// Audits one capture of the tree (see [`ReadView`]).
    ///
    /// Note: this reads every page of the tree through the backend, so take
    /// an [`LsmTree::io_snapshot`] *before* calling it if you are measuring
    /// I/O activity.
    pub fn snapshot_contents(&self) -> Result<ContentSnapshot> {
        self.capture_snapshot().contents(self.clock.now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compaction::{FileSelection, SaturationPolicy};
    use crate::config::MergePolicy;

    fn tree(config: LsmConfig) -> LsmTree {
        LsmTree::in_memory(config, Box::new(SaturationPolicy::new(FileSelection::MinOverlap)))
            .unwrap()
    }

    fn value(i: u64) -> Bytes {
        Bytes::from(format!("value-{i:08}"))
    }

    #[test]
    fn put_get_roundtrip_through_flushes() {
        let mut t = tree(LsmConfig::small_for_test());
        for k in 0..500u64 {
            t.put(k, k, value(k)).unwrap();
        }
        t.flush().unwrap();
        t.maintain().unwrap();
        for k in (0..500u64).step_by(7) {
            assert_eq!(t.get(k).unwrap(), Some(value(k)), "key {k}");
        }
        assert_eq!(t.get(10_000).unwrap(), None);
        assert!(t.level_count() >= 1);
        assert!(t.stats().flushes > 0);
    }

    #[test]
    fn shared_seqnum_allocator_spans_trees() {
        let alloc = Arc::new(AtomicU64::new(1));
        let mut a =
            tree(LsmConfig::small_for_test()).with_seqnum_allocator(Arc::clone(&alloc));
        let mut b =
            tree(LsmConfig::small_for_test()).with_seqnum_allocator(Arc::clone(&alloc));
        a.put(1, 1, value(1)).unwrap();
        b.put(2, 2, value(2)).unwrap();
        a.put(3, 3, value(3)).unwrap();
        assert_eq!(alloc.load(Ordering::Relaxed), 4, "three writes drew three seqnums");
    }

    #[test]
    fn updates_return_newest_value() {
        let mut t = tree(LsmConfig::small_for_test());
        for k in 0..200u64 {
            t.put(k, k, value(k)).unwrap();
        }
        for k in 0..200u64 {
            t.put(k, k, Bytes::from(format!("new-{k}"))).unwrap();
        }
        t.flush().unwrap();
        for k in (0..200u64).step_by(11) {
            assert_eq!(t.get(k).unwrap(), Some(Bytes::from(format!("new-{k}"))));
        }
    }

    #[test]
    fn point_delete_hides_key_everywhere() {
        let mut t = tree(LsmConfig::small_for_test());
        for k in 0..300u64 {
            t.put(k, k, value(k)).unwrap();
        }
        t.flush().unwrap();
        t.maintain().unwrap();
        for k in (0..300u64).step_by(3) {
            t.delete(k).unwrap();
        }
        // visible immediately (from the buffer)
        assert_eq!(t.get(0).unwrap(), None);
        assert_eq!(t.get(3).unwrap(), None);
        assert_eq!(t.get(1).unwrap(), Some(value(1)));
        // and still deleted after flush + compaction
        t.flush().unwrap();
        t.maintain().unwrap();
        assert_eq!(t.get(0).unwrap(), None);
        assert_eq!(t.get(299).unwrap(), Some(value(299)));
    }

    #[test]
    fn range_delete_on_sort_key() {
        let mut t = tree(LsmConfig::small_for_test());
        for k in 0..200u64 {
            t.put(k, k, value(k)).unwrap();
        }
        t.flush().unwrap();
        t.delete_range(50, 100).unwrap();
        assert_eq!(t.get(49).unwrap(), Some(value(49)));
        assert_eq!(t.get(50).unwrap(), None);
        assert_eq!(t.get(99).unwrap(), None);
        assert_eq!(t.get(100).unwrap(), Some(value(100)));
        // after flush and compaction the result is identical
        t.flush().unwrap();
        t.maintain().unwrap();
        assert_eq!(t.get(75).unwrap(), None);
        let live = t.range(0, 200).unwrap();
        assert_eq!(live.len(), 150);
        // empty range delete is a no-op
        t.delete_range(10, 10).unwrap();
        assert_eq!(t.get(10).unwrap(), Some(value(10)));
    }

    #[test]
    fn range_scan_merges_memtable_and_disk() {
        let mut t = tree(LsmConfig::small_for_test());
        for k in 0..100u64 {
            t.put(k, k, value(k)).unwrap();
        }
        t.flush().unwrap();
        // overwrite some keys in the buffer only
        for k in 40..60u64 {
            t.put(k, k, Bytes::from_static(b"fresh")).unwrap();
        }
        let got = t.range(30, 70).unwrap();
        assert_eq!(got.len(), 40);
        for (k, v) in got {
            if (40..60).contains(&k) {
                assert_eq!(v, Bytes::from_static(b"fresh"));
            } else {
                assert_eq!(v, value(k));
            }
        }
    }

    #[test]
    fn tree_grows_levels_under_load() {
        let mut cfg = LsmConfig::small_for_test();
        cfg.size_ratio = 3;
        let mut t = tree(cfg);
        for k in 0..3000u64 {
            t.put(k % 1000, k, value(k)).unwrap();
        }
        t.flush().unwrap();
        t.maintain().unwrap();
        assert!(t.level_count() >= 2, "levels: {}", t.level_count());
        assert!(t.stats().compactions > 0);
        assert!(t.write_amplification() > 0.0);
        assert!(t.disk_entries() > 0);
        assert!(t.disk_bytes() > 0);
        assert!(t.metadata_footprint() > 0);
    }

    #[test]
    fn tiering_keeps_multiple_runs() {
        let mut cfg = LsmConfig::small_for_test();
        cfg.merge_policy = MergePolicy::Tiering;
        cfg.size_ratio = 4;
        let mut t = tree(cfg);
        for k in 0..2000u64 {
            t.put(k % 500, k, value(k)).unwrap();
        }
        t.flush().unwrap();
        t.maintain().unwrap();
        for k in (0..500u64).step_by(13) {
            assert!(t.get(k).unwrap().is_some(), "key {k}");
        }
        assert!(t.stats().compactions > 0);
    }

    #[test]
    fn force_full_compaction_collapses_tree() {
        let mut cfg = LsmConfig::small_for_test();
        cfg.size_ratio = 3;
        let mut t = tree(cfg);
        for k in 0..2000u64 {
            t.put(k % 700, k, value(k)).unwrap();
        }
        for k in (0..700u64).step_by(2) {
            t.delete(k).unwrap();
        }
        t.flush().unwrap();
        t.maintain().unwrap();
        t.force_full_compaction().unwrap();
        let snap = t.snapshot_contents().unwrap();
        // a full compaction persists every delete: no tombstones remain
        assert_eq!(snap.tombstones, 0);
        assert_eq!(snap.populated_levels, 1);
        // and queries still work
        assert!(t.get(1).unwrap().is_some());
        assert_eq!(t.get(0).unwrap(), None);
    }

    #[test]
    fn snapshot_reports_space_amplification() {
        let mut t = tree(LsmConfig::small_for_test());
        for k in 0..400u64 {
            t.put(k % 100, k, value(k)).unwrap();
        }
        t.flush().unwrap();
        let snap = t.snapshot_contents().unwrap();
        assert_eq!(snap.unique_entries, 100);
        assert!(snap.total_entries >= snap.unique_entries);
        assert!(snap.space_amplification() >= 0.0);
        assert!(snap.files > 0);
    }

    #[test]
    fn manifest_recovery_restores_flushed_tree() {
        use lethe_storage::{FileBackend, FileWal, Manifest};
        let dir = std::env::temp_dir().join(format!("lethe-tree-rec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = LsmConfig::small_for_test();
        cfg.size_ratio = 3;
        let open = |cfg: &LsmConfig| -> LsmTree {
            let backend = Arc::new(FileBackend::open_named(&dir, "lethe").unwrap());
            let wal = FileWal::open(dir.join("lethe.wal")).unwrap();
            let manifest = Manifest::open(dir.join("lethe.manifest")).unwrap();
            LsmTree::new(
                cfg.clone(),
                backend,
                Box::new(wal),
                manifest,
                LogicalClock::new(),
                Box::new(SaturationPolicy::new(FileSelection::MinOverlap)),
            )
            .unwrap()
        };
        let (files_before, seq_hwm);
        {
            let mut t = open(&cfg);
            t.recover().unwrap();
            for k in 0..2000u64 {
                t.put(k % 700, k, value(k)).unwrap();
            }
            for k in (0..700u64).step_by(5) {
                t.delete(k).unwrap();
            }
            t.flush().unwrap();
            t.maintain().unwrap();
            files_before = t.files_per_level();
            seq_hwm = t.next_seqnum.load(Ordering::Relaxed);
            assert!(t.level_count() >= 2, "need a multi-level tree to make this meaningful");
        }
        {
            let mut t = open(&cfg);
            let report = t.recover().unwrap();
            assert_eq!(report.files_recovered, files_before.iter().sum::<usize>());
            assert_eq!(t.files_per_level(), files_before);
            assert!(
                t.next_seqnum.load(Ordering::Relaxed) >= seq_hwm,
                "seqnums must not regress across restarts"
            );
            for k in 0..700u64 {
                let expect_deleted = k % 5 == 0;
                let got = t.get(k).unwrap();
                if expect_deleted {
                    assert_eq!(got, None, "key {k} should stay deleted after recovery");
                } else {
                    let newest = (0..2000u64).filter(|v| v % 700 == k).max().unwrap();
                    assert_eq!(got, Some(value(newest)), "key {k}");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn frozen_buffer_stays_readable_until_version_installed() {
        // background mode: a full buffer is only frozen; every write must
        // stay visible from the reader between freeze and flush
        let mut t = tree(LsmConfig::small_for_test());
        t.set_maintenance_mode(MaintenanceMode::Background);
        let reader = t.reader();
        for k in 0..200u64 {
            t.put(k, k, value(k)).unwrap();
        }
        assert!(t.has_frozen(), "filling the buffer in background mode must freeze it");
        for k in (0..200u64).step_by(17) {
            assert_eq!(reader.get(k).unwrap(), Some(value(k)), "key {k} invisible while frozen");
        }
        // the worker-equivalent cycle: plan → execute (lock-free) → apply
        while let Some(plan) = t.plan_job(true) {
            let ctx = t.build_ctx();
            let out = plan.execute(&ctx).unwrap();
            assert!(t.apply_job(plan, out).unwrap());
        }
        assert!(!t.has_frozen());
        assert!(t.level_count() >= 1);
        for k in (0..200u64).step_by(17) {
            assert_eq!(reader.get(k).unwrap(), Some(value(k)), "key {k} lost by flush");
        }
    }

    #[test]
    fn pinned_snapshot_survives_full_compaction() {
        let mut cfg = LsmConfig::small_for_test();
        cfg.size_ratio = 3;
        let mut t = tree(cfg);
        for k in 0..1000u64 {
            t.put(k % 300, k, value(k)).unwrap();
        }
        t.flush().unwrap();
        t.maintain().unwrap();
        let pinned = t.versions().current();
        let files_before: usize = pinned.levels.iter().map(|l| l.file_count()).sum();
        assert!(files_before > 0);
        // rewrite the whole tree under the pin
        t.force_full_compaction().unwrap();
        // the pinned version still reads every page it references
        for level in &pinned.levels {
            for run in &level.runs {
                for table in run.tables() {
                    crate::cursor::tests::stored_entries(Arc::clone(table), t.backend().clone());
                }
            }
        }
        assert!(t.versions().garbage_len() > 0, "replaced files must await the pin");
        drop(pinned);
        t.versions().collect_garbage(t.backend().as_ref()).unwrap();
        assert_eq!(t.versions().garbage_len(), 0);
    }

    #[test]
    fn iter_range_streams_a_stable_snapshot_through_maintenance() {
        let mut t = tree(LsmConfig::small_for_test());
        for k in 0..300u64 {
            t.put(k, k, value(k)).unwrap();
        }
        t.flush().unwrap();
        t.maintain().unwrap();
        let reader = t.reader();
        let expected = reader.range(50, 250).unwrap();
        let mut iter = reader.iter_range(50, 250).unwrap();
        let mut got: Vec<(SortKey, Bytes)> = Vec::new();
        for _ in 0..20 {
            got.push(iter.next().unwrap().unwrap());
        }
        // restructure the whole tree mid-iteration: deletes, a flush and a
        // full compaction retire every file the iterator still has to read
        for k in (0..300u64).step_by(3) {
            t.delete(k).unwrap();
        }
        t.flush().unwrap();
        t.force_full_compaction().unwrap();
        got.extend(iter.map(|r| r.unwrap()));
        assert_eq!(got, expected, "a live iterator must stream its creation-time snapshot");
        // a scan opened now observes the deletes
        let after = reader.range(50, 250).unwrap();
        assert!(after.len() < expected.len());
        // and dropping the iterator released its version pin: the retired
        // files become reclaimable
        t.versions().collect_garbage(t.backend().as_ref()).unwrap();
        assert_eq!(t.versions().garbage_len(), 0);
    }

    #[test]
    fn write_stall_signal_tracks_frozen_and_full_buffer() {
        let mut t = tree(LsmConfig::small_for_test());
        t.set_maintenance_mode(MaintenanceMode::Background);
        assert!(!t.write_stalled());
        for k in 0..200u64 {
            t.put(k, k, value(k)).unwrap();
        }
        assert!(t.has_frozen());
        // keep writing without a worker: active fills up again → stall
        for k in 200..400u64 {
            t.put(k, k, value(k)).unwrap();
        }
        assert!(t.write_stalled());
        t.flush().unwrap();
        assert!(!t.write_stalled());
        assert_eq!(t.range(0, 400).unwrap().len(), 400);
    }
}
