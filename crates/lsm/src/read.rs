//! The read path: [`ReadView`] carries the only implementation of every
//! lookup the engine offers — the point lookup through a delete tile's page
//! filters, the sort-key range lookup, the secondary range lookup on the
//! delete key (paper §4.2), the Bloom-only existence probe and the
//! checkpoint stream. A view reads three sources in the order data moves
//! through the tree (active write buffer → frozen buffer → disk
//! [`Version`]); whether it reads the tree's *live* state or a *pinned*
//! capture of it is confined to the accessors of the private `Source`.

use crate::cursor::{EntryCursor, MergeIterator, SharedSliceCursor, SsTableCursor, VecCursor};
use crate::tree::min_opt;
use crate::version::{Version, VersionSet};
use bytes::Bytes;
use lethe_storage::{
    DeleteKey, Entry, EntryKind, MemTable, Result, SortKey, StorageBackend, StorageError,
    Timestamp,
};
use lethe_sync::{LockRank, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Lock-free read-side operation counters (the read surface has no `&mut`
/// access to [`TreeStats`](crate::stats::TreeStats)); folded into
/// [`LsmTree::stats`](crate::tree::LsmTree::stats) on demand.
#[derive(Debug, Default)]
pub(crate) struct ReadCounters {
    pub(crate) point_lookups: AtomicU64,
    pub(crate) range_lookups: AtomicU64,
}

/// An immutable snapshot of a drained write buffer, awaiting its flush.
///
/// Readers consult it between the moment the active memtable is frozen and
/// the moment the flushed version is installed, so no acknowledged write is
/// ever invisible.
#[derive(Debug, Clone)]
pub(crate) struct FrozenBuffer {
    /// Point entries, sorted on the sort key, one (newest) version per key.
    pub(crate) entries: Vec<Entry>,
    /// Range tombstones in insertion order.
    pub(crate) range_tombstones: Vec<Entry>,
    /// Insertion time of the oldest tombstone in the buffer.
    pub(crate) oldest_tombstone_ts: Option<Timestamp>,
    /// WAL position at freeze time: the flush that persists this buffer may
    /// discard exactly the first `wal_upto` records, keeping records that
    /// were appended concurrently with the background flush.
    pub(crate) wal_upto: u64,
}

impl FrozenBuffer {
    fn get(&self, sort_key: SortKey) -> Option<Entry> {
        let point = self
            .entries
            .binary_search_by(|e| e.sort_key.cmp(&sort_key))
            .ok()
            .map(|i| self.entries[i].clone());
        let covering_rt = self
            .range_tombstones
            .iter()
            .filter(|t| t.covers(sort_key))
            .max_by_key(|t| t.seqnum);
        Entry::resolve_point_read(sort_key, point, covering_rt)
    }

    pub(crate) fn purge_by_delete_key(&mut self, lo: DeleteKey, hi: DeleteKey) -> usize {
        let before = self.entries.len();
        self.entries
            .retain(|e| e.is_tombstone() || e.delete_key < lo || e.delete_key >= hi);
        before - self.entries.len()
    }

    /// A streaming cursor over this pinned buffer's point entries in
    /// `[lo, hi)`, or over all of them (`None`).
    fn range_cursor(self: &Arc<Self>, bounds: Option<(SortKey, SortKey)>) -> Box<dyn EntryCursor> {
        let (start, end) = match bounds {
            Some((lo, hi)) => (
                self.entries.partition_point(|e| e.sort_key < lo),
                self.entries.partition_point(|e| e.sort_key < hi),
            ),
            None => (0, self.entries.len()),
        };
        Box::new(SharedSliceCursor::new(FrozenEntries(Arc::clone(self)), start, end))
    }
}

/// Adapter exposing a pinned frozen buffer's point entries as a sorted
/// slice, so a scan streams them through a [`SharedSliceCursor`] instead of
/// copying the buffer.
#[derive(Clone)]
pub(crate) struct FrozenEntries(pub(crate) Arc<FrozenBuffer>);

impl AsRef<[Entry]> for FrozenEntries {
    fn as_ref(&self) -> &[Entry] {
        &self.0.entries
    }
}

/// The active write buffer: the memtable and the tombstone clock describing
/// it, under one lock so a reader never sees one without the other.
#[derive(Debug, Default)]
pub(crate) struct ActiveBuffer {
    pub(crate) table: MemTable,
    /// Insertion time of the oldest tombstone buffered in `table`. Set by
    /// the write path's `apply_ops`, handed to the frozen buffer by
    /// `freeze`.
    pub(crate) oldest_tombstone_ts: Option<Timestamp>,
}

/// The shared write-buffer state: the active buffer plus at most one
/// frozen buffer being flushed. Writers mutate `active` under its write
/// lock; readers take brief read locks in the order the data moves
/// (active → frozen → version set), so an entry is always visible in at
/// least one of the three places.
#[derive(Debug)]
pub(crate) struct MemState {
    pub(crate) active: RwLock<ActiveBuffer>,
    /// `Arc` so the flush plan pins the buffer with a pointer clone instead
    /// of copying it under the shard lock; the rare in-place mutation
    /// (secondary-delete purge, which runs with the worker paused) goes
    /// through [`Arc::make_mut`].
    pub(crate) frozen: RwLock<Option<Arc<FrozenBuffer>>>,
}

impl Default for MemState {
    fn default() -> Self {
        MemState {
            active: RwLock::new(LockRank::MemtableActive, ActiveBuffer::default()),
            frozen: RwLock::new(LockRank::MemtableFrozen, None),
        }
    }
}

/// Where a [`ReadView`] finds its write buffers and disk version.
#[derive(Clone)]
enum Source {
    /// The tree's own shared state, read afresh by every operation.
    Live { mem: Arc<MemState>, versions: Arc<VersionSet> },
    /// A capture of that state. The capture is three pointers plus one
    /// bounded copy: the active memtable's entries are cloned into the
    /// frozen-buffer shape (bounded by the buffer capacity), the frozen
    /// buffer — if one is pending flush — is pinned by `Arc` (its rare
    /// in-place mutation goes through `Arc::make_mut`, leaving pinned clones
    /// untouched), and the pinned [`Version`] defers page reclamation of its
    /// tables for as long as the view lives.
    Pinned { active: Arc<FrozenBuffer>, frozen: Option<Arc<FrozenBuffer>>, version: Arc<Version> },
}

impl Source {
    /// Runs `f` on the frozen buffer, if there is one: the same buffer shape
    /// in both arms, behind its brief read lock in a live source.
    fn with_frozen<R>(&self, f: impl FnOnce(&Arc<FrozenBuffer>) -> R) -> Option<R> {
        match self {
            Source::Live { mem, .. } => mem.frozen.read().as_ref().map(f),
            Source::Pinned { frozen, .. } => frozen.as_ref().map(f),
        }
    }

    /// The active buffer's version (possibly a tombstone) of `sort_key`.
    fn active_get(&self, sort_key: SortKey) -> Option<Entry> {
        match self {
            Source::Live { mem, .. } => mem.active.read().table.get(sort_key),
            Source::Pinned { active, .. } => active.get(sort_key),
        }
    }

    /// Newest buffered version (possibly a tombstone) of `sort_key`.
    fn mem_get(&self, sort_key: SortKey) -> Option<Entry> {
        self.active_get(sort_key).or_else(|| self.with_frozen(|f| f.get(sort_key)).flatten())
    }

    /// Pushes one cursor per write buffer over `[lo, hi)` (`None`: over
    /// every buffered entry), newest buffer first, and every buffered range
    /// tombstone.
    fn push_buffers(
        &self,
        bounds: Option<(SortKey, SortKey)>,
        cursors: &mut Vec<Box<dyn EntryCursor>>,
        rts: &mut Vec<Entry>,
    ) {
        match self {
            Source::Live { mem, .. } => {
                // the active memtable is mutable, so its in-range slice is
                // the one source a streaming scan snapshots eagerly (bounded
                // by the buffer capacity, not by the scan length)
                let active = mem.active.read();
                let slice = match bounds {
                    Some((lo, hi)) => active.table.range(lo, hi),
                    None => active.table.iter().cloned().collect(),
                };
                cursors.push(Box::new(VecCursor::from_sorted(slice)));
                rts.extend(active.table.range_tombstones().iter().cloned());
            }
            Source::Pinned { active, .. } => {
                cursors.push(active.range_cursor(bounds));
                rts.extend(active.range_tombstones.iter().cloned());
            }
        }
        self.with_frozen(|f| {
            cursors.push(f.range_cursor(bounds));
            rts.extend(f.range_tombstones.iter().cloned());
        });
    }

    /// The buffered point entries satisfying `qualifies` (any order).
    fn buffered_where(&self, qualifies: impl Fn(&&Entry) -> bool) -> Vec<Entry> {
        let mut hits: Vec<Entry> = match self {
            Source::Live { mem, .. } => {
                mem.active.read().table.iter().filter(&qualifies).cloned().collect()
            }
            Source::Pinned { active, .. } => {
                active.entries.iter().filter(&qualifies).cloned().collect()
            }
        };
        self.with_frozen(|f| hits.extend(f.entries.iter().filter(&qualifies).cloned()));
        hits
    }

    /// Insertion time of the oldest buffered tombstone.
    fn oldest_buffered_tombstone_ts(&self) -> Option<Timestamp> {
        let in_active = match self {
            Source::Live { mem, .. } => mem.active.read().oldest_tombstone_ts,
            Source::Pinned { active, .. } => active.oldest_tombstone_ts,
        };
        min_opt(in_active, self.with_frozen(|f| f.oldest_tombstone_ts).flatten())
    }

    /// The disk levels to read: the current version, pinned for the
    /// caller's use, or the captured one.
    fn version(&self) -> Arc<Version> {
        match self {
            Source::Live { versions, .. } => versions.current(),
            Source::Pinned { version, .. } => Arc::clone(version),
        }
    }

    /// How many versions have been installed under this source. A pinned
    /// source's version never changes, so its count never moves.
    fn installs(&self) -> u64 {
        match self {
            Source::Live { versions, .. } => versions.installs(),
            Source::Pinned { .. } => 0,
        }
    }
}

/// A cheap-to-clone, `Send + Sync` handle serving reads of one tree without
/// the tree's write lock: the only implementation of the engine's lookups.
///
/// A **live** view, from [`LsmTree::reader`](crate::tree::LsmTree::reader),
/// pins the current [`Version`] per operation (one `Arc` clone) and reads
/// the shared memtables under brief read locks, so it is never blocked by a
/// running flush or compaction, and never observes a half-committed version:
/// version installation is a single pointer swap, and the pages of a pinned
/// version are not reclaimed until the pin is dropped. Its point lookups are
/// linearizable with respect to the writer (a write is visible the moment it
/// is acknowledged). Multi-key operations (`range`, `scan_by_delete_key`)
/// read the buffer and the version at slightly different instants and are
/// therefore *weakly* consistent with concurrent writers — exactly the
/// contract the sharded front-end documents for fan-out reads.
///
/// A **pinned** view, from
/// [`LsmTree::capture_snapshot`](crate::tree::LsmTree::capture_snapshot), is
/// a frozen point-in-time view: it is taken while the embedding layer holds
/// the tree's write serialisation (the sharded front-end captures all shards
/// under their engine locks so one seqnum fence covers the whole store), and
/// subsequent writes, flushes, compactions and secondary deletes cannot
/// change what it returns.
///
/// Both kinds bump the tree's lookup counters.
#[derive(Clone)]
pub struct ReadView {
    backend: Arc<dyn StorageBackend>,
    source: Source,
    /// Shared by every view of the tree, live or pinned.
    pub(crate) counters: Arc<ReadCounters>,
    /// The write buffer's capacity in bytes, for [`ReadView::write_stalled`].
    buffer_capacity_bytes: usize,
}

impl ReadView {
    /// A view of the tree's own shared state.
    pub(crate) fn live(
        backend: Arc<dyn StorageBackend>,
        mem: Arc<MemState>,
        versions: Arc<VersionSet>,
        buffer_capacity_bytes: usize,
    ) -> ReadView {
        ReadView {
            backend,
            source: Source::Live { mem, versions },
            counters: Arc::default(),
            buffer_capacity_bytes,
        }
    }

    /// The same tree as `self`, read at the captured state.
    pub(crate) fn pinned(
        &self,
        active: Arc<FrozenBuffer>,
        frozen: Option<Arc<FrozenBuffer>>,
        version: Arc<Version>,
    ) -> ReadView {
        ReadView { source: Source::Pinned { active, frozen, version }, ..self.clone() }
    }

    /// Point lookup: returns the value of `sort_key`, or `None` if the key
    /// does not exist or has been deleted.
    pub fn get(&self, sort_key: SortKey) -> Result<Option<Bytes>> {
        self.counters.point_lookups.fetch_add(1, Ordering::Relaxed);
        let newest = match self.source.mem_get(sort_key) {
            Some(e) => Some(e),
            None => self.disk_entry(&self.source.version(), sort_key)?,
        };
        Ok(newest.filter(|e| e.kind == EntryKind::Put).map(|e| e.value))
    }

    /// Newest on-device version of `sort_key` within `version`.
    fn disk_entry(&self, version: &Version, sort_key: SortKey) -> Result<Option<Entry>> {
        let backend = self.backend.as_ref();
        let stats = backend.stats();
        for level in &version.levels {
            for run in &level.runs {
                // a key normally maps to one file, but range tombstones can
                // stretch a file's range over its neighbours
                let mut candidate: Option<Entry> = None;
                for table in run.tables() {
                    if !table.key_in_range(sort_key) {
                        continue;
                    }
                    if let Some(e) = table.get(sort_key, backend, &stats)? {
                        candidate = match candidate {
                            Some(c) if c.seqnum >= e.seqnum => Some(c),
                            _ => Some(e),
                        };
                    }
                }
                if candidate.is_some() {
                    return Ok(candidate);
                }
            }
        }
        Ok(None)
    }

    /// Builds the streaming merge over `[lo, hi)` — or, with no bounds, over
    /// every entry of the view (a half-open range cannot name the key
    /// `u64::MAX`): one cursor per source (the write buffers, then the
    /// fence-pruned lazy file cursors of the version), newest source first,
    /// plus every source's range tombstones for the shadowing window.
    /// `drop_tombstones` selects between the user-facing view (resolved,
    /// tombstones consumed) and the checkpoint stream (full entries,
    /// tombstones retained). The file cursors hold their tables, which
    /// defers the reclamation of every page the merge may still read for as
    /// long as it lives.
    fn build_merge(
        &self,
        bounds: Option<(SortKey, SortKey)>,
        drop_tombstones: bool,
    ) -> Result<MergeIterator> {
        let mut cursors: Vec<Box<dyn EntryCursor>> = Vec::new();
        let mut rts: Vec<Entry> = Vec::new();
        if bounds.is_none_or(|(lo, hi)| lo < hi) {
            self.source.push_buffers(bounds, &mut cursors, &mut rts);
            let version = self.source.version();
            // both arms list the files in read precedence order (shallowest
            // level first, newest run first)
            let tables = match bounds {
                Some((lo, hi)) => version.overlapping_tables(lo, hi),
                None => version.levels.iter().flat_map(|l| l.all_tables().cloned()).collect(),
            };
            for table in tables {
                rts.extend(table.range_tombstones.iter().cloned());
                let backend = Arc::clone(&self.backend);
                cursors.push(Box::new(match bounds {
                    Some((lo, hi)) => SsTableCursor::new(table, backend, lo, hi, false),
                    None => SsTableCursor::full(table, backend, false),
                }));
            }
        }
        MergeIterator::new(cursors, rts, drop_tombstones)
    }

    /// The merge behind a range lookup over `[lo, hi)` (empty when
    /// `hi <= lo`): live entries in key order, newest version per key,
    /// tombstones resolved. Counts as one range lookup. Callers that merge
    /// several trees (the sharded fan-out) feed it to an outer
    /// [`MergeIterator`]; everyone else wants [`ReadView::iter_range`].
    pub fn range_merge(&self, lo: SortKey, hi: SortKey) -> Result<MergeIterator> {
        self.counters.range_lookups.fetch_add(1, Ordering::Relaxed);
        self.build_merge(Some((lo, hi)), true)
    }

    /// Range lookup on the sort key: returns the live `(key, value)` pairs in
    /// `[lo, hi)`, newest version per key, in key order.
    ///
    /// Drains [`ReadView::iter_range`]; callers that do not need the whole
    /// result at once should use the iterator directly.
    pub fn range(&self, lo: SortKey, hi: SortKey) -> Result<Vec<(SortKey, Bytes)>> {
        self.iter_range(lo, hi)?.collect()
    }

    /// Streaming range scan over `[lo, hi)`: yields the live `(key, value)`
    /// pairs in key order, newest version per key, decoding file pages
    /// lazily one delete tile at a time as the iterator is advanced — a long
    /// scan that stops early never reads the tail, and no scan materialises
    /// the tables it crosses.
    ///
    /// The iterator owns a stable snapshot taken at creation: the files in
    /// range are pinned (their pages cannot be reclaimed by concurrent
    /// flushes, compactions or secondary deletes until the iterator is
    /// dropped) and a live view's in-range buffer slice is captured, so the
    /// stream is unaffected by concurrent writes and maintenance.
    pub fn iter_range(&self, lo: SortKey, hi: SortKey) -> Result<RangeIter> {
        self.range_merge(lo, hi).map(|merge| RangeIter::new(Ok(merge)))
    }

    /// Secondary range lookup: returns every live entry whose **delete key**
    /// lies in `[d_lo, d_hi)`, in sort-key order.
    pub fn scan_by_delete_key(&self, d_lo: DeleteKey, d_hi: DeleteKey) -> Result<Vec<Entry>> {
        self.counters.range_lookups.fetch_add(1, Ordering::Relaxed);
        if d_hi <= d_lo {
            return Ok(Vec::new());
        }
        let mut hits = self.source.buffered_where(|e| {
            !e.is_tombstone() && e.delete_key >= d_lo && e.delete_key < d_hi
        });
        // the install counter is read BEFORE the version is pinned: an
        // install racing these two reads then shows up as a counter
        // mismatch in `verify_newest` (counter already advanced past the
        // captured generation), forcing the fresh re-pin. Read the other
        // way around, a racing install could be counted into `generation`
        // while the pin still holds the pre-install version, and the
        // short-circuit would validate candidates against a stale snapshot.
        let generation = self.source.installs();
        let version = self.source.version();
        for table in version.levels.iter().flat_map(|level| level.all_tables()) {
            // KiWi fence pruning at file granularity: a file whose put
            // delete keys cannot intersect the scanned range holds no
            // qualifying page, so none of its page fences (let alone
            // pages) need to be consulted
            if !table.meta.delete_fence.overlaps(d_lo, d_hi) {
                continue;
            }
            hits.extend(table.secondary_range_scan(d_lo, d_hi, self.backend.as_ref())?);
        }
        // keep only the globally newest version of each key, and only if that
        // version is live and still qualifies
        hits.sort_by(|a, b| a.sort_key.cmp(&b.sort_key).then_with(|| b.seqnum.cmp(&a.seqnum)));
        let mut out: Vec<Entry> = Vec::with_capacity(hits.len());
        let mut examined: Option<SortKey> = None;
        for e in hits {
            // only a key's newest in-range candidate can be its newest
            // version tree-wide; once that one has been examined — emitted
            // or rejected — its older versions need no lookup
            if examined == Some(e.sort_key) {
                continue;
            }
            examined = Some(e.sort_key);
            // verify this is the newest version tree-wide (it may have been
            // updated or deleted by a newer entry outside the delete-key
            // range)
            if let Some(newest) = self.verify_newest(&version, generation, e.sort_key)? {
                if newest.seqnum == e.seqnum && newest.kind == EntryKind::Put {
                    out.push(e);
                }
            }
        }
        Ok(out)
    }

    /// The newest tree-wide version of `sort_key`, for re-validating a scan
    /// candidate collected against `pinned` (taken when the source's install
    /// counter read `generation`).
    ///
    /// The buffered sources are always consulted afresh (a live view's
    /// mutate without version installs). For the disk portion the
    /// collection-time pin is reused when no version has been installed
    /// since — skipping the per-candidate re-pin (version lock + `Arc` bump)
    /// the seed paid on every key — and only a mismatch falls back to a
    /// fresh pin. A pinned view's counter never moves, so it always reuses.
    ///
    /// Safety of the short-circuit against a concurrent flush: `apply_job`
    /// installs the new version *before* clearing the frozen slot, and the
    /// frozen slot's lock synchronises this thread with the worker. So if an
    /// entry has left the buffers by the time they are read here, the
    /// covering install has already happened, the counter check below
    /// observes it, and the fresh re-pin finds the entry at its new home. An
    /// acknowledged write can therefore never be missed by both probes.
    fn verify_newest(
        &self,
        pinned: &Arc<Version>,
        generation: u64,
        sort_key: SortKey,
    ) -> Result<Option<Entry>> {
        if let Some(e) = self.source.mem_get(sort_key) {
            return Ok(Some(e));
        }
        if self.source.installs() == generation {
            self.disk_entry(pinned, sort_key)
        } else {
            self.disk_entry(&self.source.version(), sort_key)
        }
    }

    /// Returns `true` if `sort_key` may exist in the tree (memtable check
    /// plus Bloom probes; no page reads). Used for blind-delete suppression.
    pub fn key_may_exist(&self, sort_key: SortKey) -> Result<bool> {
        let in_frozen = |f: &Arc<FrozenBuffer>| {
            f.get(sort_key).is_some() || !f.range_tombstones.is_empty()
        };
        if self.source.active_get(sort_key).is_some()
            || self.source.with_frozen(in_frozen) == Some(true)
        {
            return Ok(true);
        }
        let stats = self.backend.stats();
        let version = self.source.version();
        for table in version.levels.iter().flat_map(|level| level.all_tables()) {
            if !table.key_in_range(sort_key) {
                continue;
            }
            if !table.range_tombstones.is_empty() {
                return Ok(true);
            }
            if let Some(tile_idx) = table.tile_fences.locate(sort_key) {
                let tile = &table.tiles[tile_idx];
                stats.record_bloom_probes(tile.pages.len() as u64);
                if tile.pages.iter().any(|p| {
                    sort_key >= p.min_sort
                        && sort_key <= p.max_sort
                        && p.bloom.may_contain(sort_key)
                }) {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    /// The checkpoint source stream: every entry of the view in sort-key
    /// order, newest version per key, **retaining tombstones** and their
    /// delete keys and seqnums, so a store rebuilt from it is byte-identical
    /// to the view (including not resurrecting deleted history a
    /// restore-side compaction has yet to persist).
    pub fn entry_merge(&self) -> Result<MergeIterator> {
        self.build_merge(None, false)
    }

    /// Every range tombstone visible in this view, from all of its sources
    /// (checkpoints persist them alongside the point entries).
    pub fn all_range_tombstones(&self) -> Vec<Entry> {
        let mut rts: Vec<Entry> = Vec::new();
        // an empty key range selects no point entry, only the tombstones
        self.source.push_buffers(Some((SortKey::MIN, SortKey::MIN)), &mut Vec::new(), &mut rts);
        for table in self.source.version().levels.iter().flat_map(|level| level.all_tables()) {
            rts.extend(table.range_tombstones.iter().cloned());
        }
        rts.sort_by(|a, b| a.sort_key.cmp(&b.sort_key).then(a.seqnum.cmp(&b.seqnum)));
        rts.dedup_by(|a, b| a.sort_key == b.sort_key && a.seqnum == b.seqnum);
        rts
    }

    /// Insertion time of the oldest tombstone visible in this view, for the
    /// FADE age accounting of files a checkpoint builds from it.
    pub fn oldest_tombstone_ts(&self) -> Option<Timestamp> {
        let version = self.source.version();
        let on_disk = version.levels.iter().flat_map(|level| level.all_tables());
        on_disk.fold(self.source.oldest_buffered_tombstone_ts(), |oldest, table| {
            min_opt(oldest, table.meta.oldest_tombstone_ts)
        })
    }

    /// Number of runs in the first disk level — the write-backpressure
    /// signal, exposed on the view so the check needs no shard lock.
    pub fn l0_run_count(&self) -> usize {
        self.source.version().l0_run_count()
    }

    /// True when the writer should stall (full active buffer behind an
    /// unflushed frozen one); see
    /// [`LsmTree::write_stalled`](crate::tree::LsmTree::write_stalled).
    /// Exposed on the view so backpressure checks need no shard lock.
    pub fn write_stalled(&self) -> bool {
        match &self.source {
            // active before frozen: the `&&` keeps its first operand's guard
            // alive across the second, so this order must match the lock
            // ranks (MemtableActive < MemtableFrozen) — the reverse order
            // was a real rank inversion against the freeze path
            Source::Live { mem, .. } => {
                mem.active.read().table.size_bytes() >= self.buffer_capacity_bytes
                    && mem.frozen.read().is_some()
            }
            // nothing writes into a capture
            Source::Pinned { .. } => false,
        }
    }
}

/// A streaming range scan over a stable snapshot of one tree — or, merged
/// by the sharded front-end, of every shard's tree; obtained from
/// [`ReadView::iter_range`] (or the `iter_range` of any `lethe-core` read
/// surface).
///
/// Yields `Result<(key, value)>` in ascending key order, newest version per
/// key, tombstones resolved. Pages are decoded lazily as the iterator is
/// advanced, so partial consumption (paging, `take(n)`, early break) only
/// pays for the prefix actually read. The merge's file cursors pin the files
/// it was created against: concurrent flushes and compactions can neither
/// change its results nor reclaim the pages it still has to visit. After an
/// I/O error the iterator is fused (yields `None` forever).
pub struct RangeIter {
    /// The merge being streamed; or the failure to build it, taken by the
    /// first `next()`; or `Err(None)` once exhausted or failed.
    merge: std::result::Result<MergeIterator, Option<StorageError>>,
}

impl RangeIter {
    /// Streams `merge`, which must resolve tombstones (see
    /// [`ReadView::range_merge`]). A construction error is deferred to the
    /// first `next()`, for callers whose signature returns the iterator
    /// itself rather than a `Result`.
    pub fn new(merge: Result<MergeIterator>) -> RangeIter {
        RangeIter { merge: merge.map_err(Some) }
    }
}

impl Iterator for RangeIter {
    type Item = Result<(SortKey, Bytes)>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = match &mut self.merge {
            Ok(merge) => merge.next_merged().transpose(),
            Err(deferred) => return deferred.take().map(Err),
        };
        if !matches!(item, Some(Ok(_))) {
            // exhausted or failed: release the pins and fuse
            self.merge = Err(None);
        }
        item.map(|entry| entry.map(|e| (e.sort_key, e.value)))
    }
}

#[cfg(test)]
mod tests {
    use crate::compaction::{FileSelection, SaturationPolicy};
    use crate::config::{LsmConfig, MergePolicy};
    use crate::tree::LsmTree;
    use bytes::Bytes;

    /// Pages read by a delete-key scan of `[100, 200)` over a tree in which
    /// key 1 has `stale_versions` flushed versions with delete keys in that
    /// range, each in a run (and page) of its own, under a newest flushed
    /// version whose delete key is outside it.
    fn scan_pages_with_stale_versions(stale_versions: u64) -> u64 {
        let mut cfg = LsmConfig::small_for_test();
        cfg.merge_policy = MergePolicy::Tiering;
        cfg.size_ratio = 16; // no flush below triggers a merge
        let mut t =
            LsmTree::in_memory(cfg, Box::new(SaturationPolicy::new(FileSelection::MinOverlap)))
                .unwrap();
        for v in 0..stale_versions {
            t.put(1, 100 + v, Bytes::from_static(b"stale")).unwrap();
            t.flush().unwrap();
        }
        t.put(1, 900, Bytes::from_static(b"newest")).unwrap();
        t.flush().unwrap();
        assert_eq!(t.files_per_level(), vec![stale_versions as usize + 1]);
        let before = t.io_snapshot().pages_read;
        assert!(t.secondary_range_scan(100, 200).unwrap().is_empty());
        t.io_snapshot().pages_read - before
    }

    /// Regression: the active buffer's tombstone clock lived outside
    /// `MemState`, so a live view answered `None` until the buffer froze.
    #[test]
    fn live_view_sees_the_active_buffers_tombstone_clock() {
        let mut t = LsmTree::in_memory(
            LsmConfig::small_for_test(),
            Box::new(SaturationPolicy::new(FileSelection::MinOverlap)),
        )
        .unwrap();
        t.put(1, 10, Bytes::from_static(b"v")).unwrap();
        assert_eq!(t.reader().oldest_tombstone_ts(), None);
        t.delete(1).unwrap();
        let ts = t.clock().now();
        t.put(2, 20, Bytes::from_static(b"v")).unwrap();
        assert!(t.level_count() == 0 && !t.has_frozen(), "the tombstone must still be buffered");
        assert_eq!(t.reader().oldest_tombstone_ts(), Some(ts));
        assert_eq!(t.capture_snapshot().oldest_tombstone_ts(), Some(ts));
    }

    #[test]
    fn delete_key_scan_revalidates_a_rejected_key_once() {
        // every stale version costs the one page its candidate is collected
        // from; the tree-wide re-validation that rejects the key (its newest
        // version is out of range) is paid once, not once per stale version
        let few = scan_pages_with_stale_versions(2);
        let many = scan_pages_with_stale_versions(6);
        assert_eq!(many - few, 4, "scan read {few} pages with 2 stale versions, {many} with 6");
    }
}
