//! The Lethe engine: FADE + KiWi behind one public API (paper §4.3).
//!
//! [`Lethe`] is an [`LsmTree`] configured with
//!
//! * the [`FadePolicy`] compaction strategy so every
//!   tombstone persists within the delete persistence threshold `D_th`,
//! * a delete-tile granularity `h` (either chosen explicitly or derived from a
//!   [`WorkloadProfile`] via Equation (3)),
//! * blind-delete suppression, and
//! * KiWi page drops for secondary range deletes.
//!
//! Construction goes through [`LetheBuilder`], which exposes the two tuning
//! knobs the paper calls out (`D_th` and `h`) along with the standard LSM
//! knobs of Table 1.

use crate::fade::FadePolicy;
use crate::tuning::{optimal_delete_tile_pages, TreeShape, WorkloadProfile};
use bytes::Bytes;
use lethe_lsm::compaction::CompactionPolicy;
use lethe_lsm::config::{CompactionStrategy, LsmConfig, MergePolicy, SecondaryDeleteMode};
use lethe_lsm::sstable::SecondaryDeleteStats;
use lethe_lsm::strategy::{DateTieredPolicy, SizeTieredPolicy};
use lethe_lsm::stats::{ContentSnapshot, TreeStats};
use lethe_lsm::batch::WriteBatch;
use lethe_lsm::snapshot::SnapshotTracker;
use lethe_lsm::read::{RangeIter, ReadView};
use lethe_lsm::tree::{LsmTree, MaintenanceMode};
use lethe_storage::{
    CacheSnapshot, CachedBackend, DeleteKey, Entry, FileBackend, FileWal, IoSnapshot,
    LogicalClock, Manifest, MemVfs, OsVfs, PageCache, Result, SortKey, StorageBackend,
    StorageError, SyncPolicy, Timestamp, Vfs, MICROS_PER_SEC,
};
use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Builder for a [`Lethe`] engine.
#[derive(Debug, Clone)]
pub struct LetheBuilder {
    /// Always carries `Some` delete persistence threshold: every setter and
    /// [`with_config`](Self::with_config) keep one in place (the baselines
    /// set theirs to `None` directly).
    pub(crate) config: LsmConfig,
    /// An externally supplied block cache shared with other engines (the
    /// sharded front-end passes one cache to every shard); when absent and
    /// `config.block_cache_bytes > 0`, a private cache is created at build.
    shared_cache: Option<Arc<PageCache>>,
    /// A sequence-number allocator shared with sibling shards, so one
    /// cross-shard batch commits under a single seqnum range.
    seqnum_allocator: Option<Arc<AtomicU64>>,
    /// Cross-shard batch ids the batch-commit log proves committed; WAL
    /// replay rolls back prepared slices whose id is missing here.
    committed_batches: Option<HashSet<u64>>,
    /// A live-snapshot tracker shared with sibling shards, so one registered
    /// snapshot fence gates tombstone GC in every shard at once.
    snapshot_tracker: Option<Arc<SnapshotTracker>>,
}

impl Default for LetheBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl LetheBuilder {
    /// Starts from the Table 1 reference configuration with a delete
    /// persistence threshold of one hour of logical time and `h = 1`.
    pub fn new() -> Self {
        let config = LsmConfig {
            secondary_delete_mode: SecondaryDeleteMode::KiwiPageDrops,
            suppress_blind_deletes: true,
            delete_persistence_threshold: Some(3600 * MICROS_PER_SEC),
            ..LsmConfig::default()
        };
        LetheBuilder {
            config,
            shared_cache: None,
            seqnum_allocator: None,
            committed_batches: None,
            snapshot_tracker: None,
        }
    }

    /// Shares a sequence-number allocator with this engine (the sharded
    /// front-end hands one allocator to every shard so a cross-shard batch
    /// commits under one seqnum range).
    pub(crate) fn seqnum_allocator(mut self, alloc: Arc<AtomicU64>) -> Self {
        self.seqnum_allocator = Some(alloc);
        self
    }

    /// Supplies the committed cross-shard batch ids recovery must honour:
    /// a prepared-but-uncommitted batch slice in the WAL rolls back.
    pub(crate) fn committed_batches(mut self, ids: HashSet<u64>) -> Self {
        self.committed_batches = Some(ids);
        self
    }

    /// Shares a live-snapshot tracker with this engine (the sharded
    /// front-end hands one tracker to every shard so a snapshot's seqnum
    /// fence gates tombstone GC store-wide).
    pub(crate) fn snapshot_tracker(mut self, tracker: Arc<SnapshotTracker>) -> Self {
        self.snapshot_tracker = Some(tracker);
        self
    }

    /// Sets the block-cache memory budget in bytes (`0` disables caching,
    /// the default). The cache holds pages, still encoded, between the table
    /// layer and the device, so repeated point/range reads of warm data skip
    /// both the device access and the page's validating pass. A sharded
    /// store built from this builder creates **one** cache of this total
    /// size and shares it across every shard: size it for the whole store,
    /// not per shard.
    pub fn block_cache_bytes(mut self, bytes: usize) -> Self {
        self.config.block_cache_bytes = bytes;
        self
    }

    /// If `true`, flush/compaction output pages are inserted into the block
    /// cache as they are written. See
    /// [`LsmConfig::block_cache_warm_writes`].
    pub fn warm_block_cache_on_write(mut self, warm: bool) -> Self {
        self.config.block_cache_warm_writes = warm;
        self
    }

    /// Shares an existing [`PageCache`] with this engine instead of creating
    /// a private one: the sharded front-end hands one cache to every shard
    /// so the memory budget is global. Implies caching regardless of
    /// `block_cache_bytes`.
    pub fn shared_block_cache(mut self, cache: Arc<PageCache>) -> Self {
        self.shared_cache = Some(cache);
        self
    }

    /// Resolves which cache this build should use: an externally shared one
    /// wins, otherwise a private cache is created when `block_cache_bytes >
    /// 0`. The single source of the resolution policy — the sharded builder
    /// calls it too, so the sharded and single-shard paths cannot diverge.
    pub(crate) fn resolve_cache(&self) -> Option<Arc<PageCache>> {
        self.shared_cache.clone().or_else(|| {
            (self.config.block_cache_bytes > 0)
                .then(|| PageCache::new_shared(self.config.block_cache_bytes))
        })
    }

    /// Resolves the cache this build should use (shared, private, or none)
    /// and wraps `backend` accordingly.
    fn wrap_backend(
        &self,
        backend: Arc<dyn StorageBackend>,
    ) -> (Arc<dyn StorageBackend>, Option<Arc<PageCache>>) {
        match self.resolve_cache() {
            Some(cache) => (
                Arc::new(CachedBackend::new(
                    backend,
                    Arc::clone(&cache),
                    self.config.block_cache_warm_writes,
                )),
                Some(cache),
            ),
            None => (backend, None),
        }
    }

    /// Sets the delete persistence threshold `D_th` in seconds of logical
    /// time (the data-retention SLA).
    pub fn delete_persistence_threshold_secs(self, secs: f64) -> Self {
        self.delete_persistence_threshold_micros((secs * MICROS_PER_SEC as f64) as Timestamp)
    }

    /// Sets the delete persistence threshold in microseconds of logical time.
    pub fn delete_persistence_threshold_micros(mut self, micros: Timestamp) -> Self {
        self.config.delete_persistence_threshold = Some(micros);
        self
    }

    /// Sets the delete-tile granularity `h` (pages per delete tile).
    pub fn delete_tile_pages(mut self, h: usize) -> Self {
        self.config.pages_per_delete_tile = h.max(1);
        // keep the file size a multiple of the tile size
        let files = self.config.max_pages_per_file.max(h);
        self.config.max_pages_per_file = files.div_ceil(h.max(1)) * h.max(1);
        self
    }

    /// Derives the delete-tile granularity from a workload description using
    /// Equation (3), capped at one tile per file. Wrapped in a
    /// [`ShardedLetheBuilder`](crate::shard::ShardedLetheBuilder), this
    /// builder configures *one* shard, so pass the per-shard
    /// `expected_entries` (the store's total divided by the shard count).
    pub fn tune_delete_tiles_for(self, profile: &WorkloadProfile, expected_entries: u64) -> Self {
        let levels = expected_levels(&self.config, expected_entries);
        let shape = TreeShape {
            entries: expected_entries as f64,
            entries_per_page: self.config.entries_per_page as f64,
            levels: levels as f64,
            false_positive_rate:
                (-self.config.bits_per_key * std::f64::consts::LN_2.powi(2)).exp(),
            size_ratio: self.config.size_ratio as f64,
        };
        let h = optimal_delete_tile_pages(profile, &shape).min(self.config.max_pages_per_file);
        self.delete_tile_pages(h.max(1))
    }

    /// Sets the size ratio `T`.
    pub fn size_ratio(mut self, t: usize) -> Self {
        self.config.size_ratio = t.max(2);
        self
    }

    /// Sets the buffer geometry: pages, entries per page and entry size.
    pub fn buffer(mut self, pages: usize, entries_per_page: usize, entry_size: usize) -> Self {
        self.config.buffer_pages = pages.max(1);
        self.config.entries_per_page = entries_per_page.max(1);
        self.config.entry_size = entry_size.max(1);
        self
    }

    /// Sets the Bloom filter budget in bits per entry.
    pub fn bits_per_key(mut self, bits: f64) -> Self {
        self.config.bits_per_key = bits.max(1.0);
        self
    }

    /// Selects leveling or tiering.
    pub fn merge_policy(mut self, policy: MergePolicy) -> Self {
        self.config.merge_policy = policy;
        self
    }

    /// Selects the compaction strategy driving background maintenance.
    /// [`CompactionStrategy::Default`] (the default) installs FADE, the
    /// paper's delete-aware policy; the tiered strategies replace it with
    /// [`SizeTieredPolicy`] or [`DateTieredPolicy`] — under those, tombstone
    /// persistence rides along with window/class merges and TTL whole-file
    /// drops instead of `D_th`-driven triggers. The tiered strategies need
    /// tiering flushes, so this also switches the merge policy to
    /// [`MergePolicy::Tiering`].
    pub fn compaction_strategy(mut self, strategy: CompactionStrategy) -> Self {
        self.config.compaction_strategy = strategy;
        if !matches!(strategy, CompactionStrategy::Default) {
            self.config.merge_policy = MergePolicy::Tiering;
        }
        self
    }

    /// Constructs the compaction policy the configured strategy calls for.
    fn make_policy(&self) -> Box<dyn CompactionPolicy> {
        match self.config.compaction_strategy {
            CompactionStrategy::Default => {
                let dth = self
                    .config
                    .delete_persistence_threshold
                    .expect("a LetheBuilder config always carries D_th");
                Box::new(FadePolicy::new(dth))
            }
            CompactionStrategy::SizeTiered { fan_in } => Box::new(SizeTieredPolicy::new(fan_in)),
            CompactionStrategy::DateTiered { base_window_micros, fan_in, ttl_micros } => {
                Box::new(DateTieredPolicy::new(base_window_micros, fan_in, ttl_micros))
            }
        }
    }

    /// Sets the ingestion rate `I` (entries per second of logical time).
    pub fn ingestion_rate(mut self, entries_per_sec: u64) -> Self {
        self.config.ingestion_rate = entries_per_sec.max(1);
        self
    }

    /// Sets when a durable store's write-ahead log fsyncs appends. Durable
    /// opens default to [`SyncPolicy::Always`] ("logged before acknowledged"
    /// holds against power failures); [`SyncPolicy::EveryN`] and
    /// [`SyncPolicy::OnFlush`] trade a bounded loss window for throughput.
    pub fn wal_sync_policy(mut self, policy: SyncPolicy) -> Self {
        self.config.wal_sync = policy;
        self
    }

    /// Overrides the low-level configuration (advanced use). The settings
    /// that define Lethe are re-asserted on top of the supplied config:
    /// secondary range deletes always use KiWi page drops, and the delete
    /// persistence threshold is adopted if present (kept otherwise).
    pub fn with_config(mut self, mut config: LsmConfig) -> Self {
        config.secondary_delete_mode = SecondaryDeleteMode::KiwiPageDrops;
        config.delete_persistence_threshold =
            config.delete_persistence_threshold.or(self.config.delete_persistence_threshold);
        self.config = config;
        self
    }

    /// Direct access to the configuration being built.
    pub fn config(&self) -> &LsmConfig {
        &self.config
    }

    /// Builds an engine in memory: [`LetheBuilder::open_on`] a fresh
    /// [`MemVfs`].
    pub fn build(self) -> Result<Lethe> {
        self.open_on(MemVfs::shared(), "/")
    }

    /// Opens (or creates) a durable engine rooted at `dir` on the host file
    /// system: [`LetheBuilder::open_on`] [`OsVfs`].
    pub fn open(self, dir: impl AsRef<Path>) -> Result<Lethe> {
        self.open_on(OsVfs::shared(), dir)
    }

    /// Opens (or creates) the engine rooted at `dir` on `vfs`: data segments
    /// `dir/lethe.data` and `dir/lethe.data.<id>`, write-ahead log
    /// `dir/lethe.wal` and manifest `dir/lethe.manifest`. On startup the
    /// tree's levels and files are recovered from the manifest (flushed and
    /// compacted data survives restarts), then the WAL is replayed on top,
    /// so every acknowledged write is returned by the reopened store. Every
    /// file the store keeps goes through `vfs`, so a
    /// [`FaultVfs`](lethe_storage::FaultVfs) around it reaches every durable
    /// step.
    pub fn open_on(self, vfs: Arc<dyn Vfs>, dir: impl AsRef<Path>) -> Result<Lethe> {
        self.assemble(None, &vfs, dir.as_ref(), "lethe", LogicalClock::new())
    }

    /// The one assembly every engine goes through: the store named `name`
    /// in `dir` on `vfs`, on `clock`. The shards of a sharded store share
    /// one directory and one clock under their own names; the baselines
    /// pass their own `policy`.
    ///
    /// Recovery order: the data segments are scanned to rebuild the page
    /// index (truncating a torn tail of the newest), the manifest's edit log
    /// is folded into the last committed tree state, levels and files are
    /// rebuilt from it (re-deriving Bloom filters and fence pointers),
    /// unreferenced pages are released (which unlinks a segment left with
    /// none), and finally the WAL — whose own torn tail, if any, is
    /// truncated away — is replayed on top. The WAL is only truncated once a
    /// later flush commits a covering manifest edit. The device is wrapped
    /// in the block cache before the tree sees it, so recovery's
    /// unreferenced-page GC already invalidates through it.
    pub(crate) fn assemble(
        self,
        policy: Option<Box<dyn CompactionPolicy>>,
        vfs: &Arc<dyn Vfs>,
        dir: &Path,
        name: &str,
        clock: LogicalClock,
    ) -> Result<Lethe> {
        let policy = policy.unwrap_or_else(|| self.make_policy());
        let backend = FileBackend::open_on(vfs, dir, name)?;
        let wal = FileWal::open_on(vfs, &dir.join(format!("{name}.wal")))?
            .with_sync_policy(self.config.wal_sync);
        let manifest = Manifest::open_on(vfs, &dir.join(format!("{name}.manifest")))?;
        let (backend, cache) = self.wrap_backend(Arc::new(backend));
        let mut tree =
            LsmTree::new(self.config, backend, Box::new(wal), manifest, clock, policy)?;
        if let Some(alloc) = self.seqnum_allocator {
            tree = tree.with_seqnum_allocator(alloc);
        }
        if let Some(tracker) = self.snapshot_tracker {
            tree = tree.with_snapshot_tracker(tracker);
        }
        if let Some(ids) = self.committed_batches {
            tree.set_committed_batches(ids);
        }
        tree.recover()?;
        Ok(Lethe { tree, cache })
    }

    /// Opens the online checkpoint at `dir` on the host file system:
    /// [`LetheBuilder::restore_on`] [`OsVfs`].
    pub fn restore(self, dir: impl AsRef<Path>) -> Result<Lethe> {
        self.restore_on(OsVfs::shared(), dir)
    }

    /// Opens the online checkpoint at `dir` on `vfs` (written there by
    /// [`ShardedLethe::checkpoint`](crate::shard::ShardedLethe::checkpoint)
    /// of a store on the same `vfs`) as a normal durable store.
    ///
    /// The checkpoint's completeness marker is verified first: a directory
    /// whose marker is missing (the checkpoint crashed before its commit
    /// point) or corrupt is refused outright instead of opening as a
    /// silently short store. The restored engine resumes at the snapshot's
    /// seqnum fence, so writes made after the restore never collide with
    /// sequence numbers the checkpoint already used.
    pub fn restore_on(self, vfs: Arc<dyn Vfs>, dir: impl AsRef<Path>) -> Result<Lethe> {
        let dir = dir.as_ref();
        let marker = lethe_storage::read_marker(vfs.as_ref(), dir)?;
        let db = self.assemble(None, &vfs, dir, "checkpoint", LogicalClock::new())?;
        let next = db.tree().next_seqnum();
        if next < marker.fence {
            return Err(StorageError::Corruption(format!(
                "checkpoint at {} recovered to seqnum {next} but its marker \
                 promises the snapshot fence {}: the manifest is behind the marker",
                dir.display(),
                marker.fence
            )));
        }
        Ok(db)
    }
}

fn expected_levels(config: &LsmConfig, entries: u64) -> usize {
    let buffer_entries = config.buffer_capacity_entries().max(1) as f64;
    let t = config.size_ratio.max(2) as f64;
    let ratio = entries.max(1) as f64 / buffer_entries;
    if ratio <= 1.0 {
        1
    } else {
        ratio.log(t).ceil().max(1.0) as usize
    }
}

/// The Lethe key-value engine.
pub struct Lethe {
    tree: LsmTree,
    /// The block cache the engine's device reads through, if one was
    /// configured (private, or shared with sibling shards).
    cache: Option<Arc<PageCache>>,
}

impl Lethe {
    /// Starts building an engine.
    pub fn builder() -> LetheBuilder {
        LetheBuilder::new()
    }

    /// Inserts (or updates) `key` with an associated delete key (e.g. a
    /// creation timestamp) and value.
    pub fn put(&mut self, key: SortKey, delete_key: DeleteKey, value: impl Into<Bytes>) -> Result<()> {
        self.tree.put(key, delete_key, value.into())
    }

    /// Point lookup. Lock-free with respect to background flushes and
    /// compactions (served, like every read, by the tree's live [`ReadView`]).
    pub fn get(&self, key: SortKey) -> Result<Option<Bytes>> {
        self.tree.get(key)
    }

    /// Point delete on the sort key. Returns `false` if the delete was
    /// suppressed as blind (the key cannot exist).
    pub fn delete(&mut self, key: SortKey) -> Result<bool> {
        self.tree.delete(key)
    }

    /// Range delete on the sort key over `[start, end)`.
    pub fn delete_range(&mut self, start: SortKey, end: SortKey) -> Result<()> {
        self.tree.delete_range(start, end)
    }

    /// Atomically applies a [`WriteBatch`]: logged as one WAL frame (crash
    /// recovery replays it entirely or not at all), made durable per the
    /// sync policy with a single barrier, and applied so that concurrent
    /// readers never observe a prefix of the batch's point operations.
    pub fn write_batch(&mut self, batch: WriteBatch) -> Result<()> {
        self.tree.write_batch(batch)
    }

    /// Secondary range delete: removes every entry whose **delete key** lies
    /// in `[lo, hi)` using KiWi full/partial page drops.
    pub fn delete_where_delete_key_in(
        &mut self,
        lo: DeleteKey,
        hi: DeleteKey,
    ) -> Result<SecondaryDeleteStats> {
        self.tree.secondary_range_delete(lo, hi)
    }

    /// Range lookup on the sort key over `[lo, hi)`.
    pub fn range(&self, lo: SortKey, hi: SortKey) -> Result<Vec<(SortKey, Bytes)>> {
        self.tree.range(lo, hi)
    }

    /// Streaming range scan over `[lo, hi)`: returns an iterator of live
    /// `(key, value)` pairs in key order that decodes file pages lazily as
    /// it is advanced, so large scans (analytics, backups, paging APIs) can
    /// be consumed incrementally without materialising the whole result.
    ///
    /// The iterator owns a stable snapshot taken at creation: concurrent
    /// writes, flushes and compactions affect neither its contents nor the
    /// pages it still has to read (see [`lethe_lsm::RangeIter`]).
    pub fn iter_range(&self, lo: SortKey, hi: SortKey) -> Result<RangeIter> {
        self.tree.reader().iter_range(lo, hi)
    }

    /// Secondary range lookup: every live entry whose delete key lies in
    /// `[lo, hi)`.
    pub fn scan_by_delete_key(&self, lo: DeleteKey, hi: DeleteKey) -> Result<Vec<Entry>> {
        self.tree.secondary_range_scan(lo, hi)
    }

    /// Flushes the write buffer and runs the compaction loop (including any
    /// TTL-driven compactions that are due).
    pub fn persist(&mut self) -> Result<()> {
        self.tree.flush()?;
        self.tree.maintain()
    }

    /// Steps the job cycle until the tree needs no work: a frozen buffer
    /// still waiting is flushed first, then the compactions run (the active
    /// buffer stays put). Useful to let FADE react to the passage of logical
    /// time without new writes.
    pub fn maintain(&mut self) -> Result<()> {
        self.tree.maintain()
    }

    /// Lifetime operation counters (write-side counters folded together
    /// with the lock-free read-side lookup counters). Maintenance shows up
    /// as `flushes`, `compactions` (of which `trivial_moves` descended by a
    /// manifest edit alone, carrying `bytes_moved` that `bytes_compacted`
    /// never saw) and `whole_file_drops`.
    pub fn stats(&self) -> TreeStats {
        self.tree.stats()
    }

    /// Returns a cheap-to-clone, `Send + Sync` live view serving lock-free
    /// reads (see [`ReadView`]): `get`/`range`/secondary scans proceed while
    /// this engine flushes or compacts.
    pub fn reader(&self) -> ReadView {
        self.tree.reader()
    }

    /// Restores the checkpoint at `dir` with the reference configuration;
    /// see [`LetheBuilder::restore`] to restore under explicit knobs.
    pub fn restore(dir: impl AsRef<Path>) -> Result<Lethe> {
        LetheBuilder::new().restore(dir)
    }

    /// Captures a frozen point-in-time view of this engine's tree (a pinned
    /// [`ReadView`]: the same read surface, answering as of now). The `&mut`
    /// receiver is the write serialisation the capture requires; the
    /// returned view reads without any lock. Registering the covering seqnum
    /// fence with the
    /// [`snapshot tracker`](Lethe::snapshot_tracker) — so tombstone GC is
    /// gated while the view is alive — is the caller's responsibility, which
    /// the sharded front-end's
    /// [`ShardedLethe::snapshot`](crate::shard::ShardedLethe::snapshot)
    /// discharges automatically.
    pub fn capture_snapshot(&mut self) -> ReadView {
        self.tree.capture_snapshot()
    }

    /// The engine's live-snapshot tracker (shared with sibling shards in a
    /// sharded store).
    pub fn snapshot_tracker(&self) -> &Arc<SnapshotTracker> {
        self.tree.snapshot_tracker()
    }

    /// Selects who drives the job cycle of [`lethe_lsm::jobs`]: the writer,
    /// through [`LsmTree::step`] (inline, the default), or a background
    /// worker making the same calls ([`LsmTree::plan_job`] /
    /// [`lethe_lsm::jobs::JobPlan::execute`] / [`LsmTree::apply_job`]). The
    /// sharded front-end switches its shards to background mode and attaches
    /// a [`crate::compactor::Compactor`] to each.
    pub fn set_maintenance_mode(&mut self, mode: MaintenanceMode) {
        self.tree.set_maintenance_mode(mode);
    }

    /// Device I/O counters (including block-cache hit/miss counts when a
    /// cache is configured, and `bytes_reclaimed`: the bytes of data segments
    /// a durable store unlinked because no live page was left in them).
    pub fn io_snapshot(&self) -> IoSnapshot {
        self.tree.io_snapshot()
    }

    /// The block cache this engine reads through, if one is configured.
    pub fn block_cache(&self) -> Option<&Arc<PageCache>> {
        self.cache.as_ref()
    }

    /// Counters and occupancy of the block cache, if one is configured.
    /// For an engine sharing its cache (a shard), the numbers are those of
    /// the whole shared cache.
    pub fn cache_snapshot(&self) -> Option<CacheSnapshot> {
        self.cache.as_ref().map(|c| c.snapshot())
    }

    /// Measurement-time snapshot of the tree contents (space amplification,
    /// tombstone ages, …).
    pub fn snapshot_contents(&self) -> Result<ContentSnapshot> {
        self.tree.snapshot_contents()
    }

    /// Write amplification so far.
    pub fn write_amplification(&self) -> f64 {
        self.tree.write_amplification()
    }

    /// The logical clock; advance it to model the passage of time between
    /// operations (e.g. an idle period before a retention deadline).
    pub fn clock(&self) -> &LogicalClock {
        self.tree.clock()
    }

    /// Engine configuration.
    pub fn config(&self) -> &LsmConfig {
        self.tree.config()
    }

    /// The underlying tree (white-box access for experiments and tests).
    pub fn tree(&self) -> &LsmTree {
        &self.tree
    }

    /// Mutable access to the underlying tree.
    pub fn tree_mut(&mut self) -> &mut LsmTree {
        &mut self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_lethe_shaped() {
        let b = LetheBuilder::new();
        let cfg = b.config();
        assert_eq!(cfg.secondary_delete_mode, SecondaryDeleteMode::KiwiPageDrops);
        assert!(cfg.suppress_blind_deletes);
        assert!(cfg.delete_persistence_threshold.is_some());
    }

    #[test]
    fn builder_knobs_apply() {
        let b = LetheBuilder::new()
            .delete_persistence_threshold_secs(60.0)
            .delete_tile_pages(8)
            .size_ratio(4)
            .buffer(16, 8, 128)
            .bits_per_key(12.0)
            .merge_policy(MergePolicy::Tiering)
            .ingestion_rate(2048);
        let cfg = b.config();
        assert_eq!(cfg.delete_persistence_threshold, Some(60_000_000));
        assert_eq!(cfg.pages_per_delete_tile, 8);
        assert_eq!(cfg.max_pages_per_file % 8, 0);
        assert_eq!(cfg.size_ratio, 4);
        assert_eq!(cfg.buffer_pages, 16);
        assert_eq!(cfg.entries_per_page, 8);
        assert_eq!(cfg.entry_size, 128);
        assert_eq!(cfg.bits_per_key, 12.0);
        assert_eq!(cfg.merge_policy, MergePolicy::Tiering);
        assert_eq!(cfg.ingestion_rate, 2048);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn tuning_from_workload_profile_sets_h() {
        let profile = WorkloadProfile {
            empty_point_lookups: 100.0,
            point_lookups: 100.0,
            short_range_lookups: 1.0,
            long_range_lookups: 0.0,
            long_range_selectivity: 0.0,
            secondary_range_deletes: 1.0,
            inserts: 0.0,
        };
        let b = LetheBuilder::new()
            .buffer(8, 4, 64)
            .size_ratio(4)
            .tune_delete_tiles_for(&profile, 1 << 16);
        assert!(b.config().pages_per_delete_tile >= 1);
        assert!(b.config().validate().is_ok());
    }

    #[test]
    fn end_to_end_put_delete_get() {
        let mut db = LetheBuilder::new()
            .buffer(8, 4, 64)
            .size_ratio(4)
            .delete_tile_pages(4)
            .delete_persistence_threshold_secs(10.0)
            .build()
            .unwrap();
        for k in 0..2000u64 {
            db.put(k, k % 365, format!("value-{k}")).unwrap();
        }
        db.persist().unwrap();
        assert_eq!(db.get(42).unwrap(), Some(Bytes::from("value-42")));
        assert!(db.delete(42).unwrap());
        assert_eq!(db.get(42).unwrap(), None);
        // a blind delete on a key that never existed is suppressed
        assert!(!db.delete(1_000_000).unwrap());
        assert_eq!(db.stats().blind_deletes_suppressed, 1);
        // secondary range delete: drop everything older than "day 100"
        let stats = db.delete_where_delete_key_in(0, 100).unwrap();
        assert!(stats.entries_deleted > 0);
        assert!(db.scan_by_delete_key(0, 100).unwrap().is_empty());
        assert!(db.get(100).unwrap().is_some()); // delete key 100 not covered
        assert_eq!(db.get(99).unwrap(), None); // delete key 99 covered
    }

    #[test]
    fn deletes_persist_within_threshold() {
        // Dth = 2 seconds of logical time at 1000 entries/sec
        let mut db = LetheBuilder::new()
            .buffer(8, 4, 64)
            .size_ratio(4)
            .delete_persistence_threshold_secs(2.0)
            .ingestion_rate(1000)
            .build()
            .unwrap();
        for k in 0..1000u64 {
            db.put(k, k, format!("v{k}")).unwrap();
        }
        for k in 0..200u64 {
            db.delete(k * 5).unwrap();
        }
        // keep ingesting unrelated keys so logical time moves past Dth
        for k in 10_000..14_000u64 {
            db.put(k, k, format!("v{k}")).unwrap();
        }
        db.persist().unwrap();
        let snap = db.snapshot_contents().unwrap();
        let dth = db.config().delete_persistence_threshold.unwrap();
        for (age, count) in &snap.tombstone_file_ages {
            assert!(
                *age <= dth,
                "a file holding {count} tombstones is older ({age} µs) than Dth ({dth} µs)"
            );
        }
        // the deleted keys are really gone
        assert_eq!(db.get(0).unwrap(), None);
        assert_eq!(db.get(995).unwrap(), None);
        assert!(db.get(3).unwrap().is_some());
    }

    #[test]
    fn durable_engine_roundtrip() {
        let dir = std::env::temp_dir().join(format!("lethe-open-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut db = LetheBuilder::new()
                .buffer(64, 4, 64)
                .size_ratio(4)
                .open(&dir)
                .unwrap();
            for k in 0..100u64 {
                db.put(k, k, format!("persisted-{k}")).unwrap();
            }
            // do not flush: the data only lives in the WAL
        }
        {
            let db = LetheBuilder::new()
                .buffer(64, 4, 64)
                .size_ratio(4)
                .open(&dir)
                .unwrap();
            assert_eq!(db.get(7).unwrap(), Some(Bytes::from("persisted-7")));
            assert_eq!(db.get(1000).unwrap(), None);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
