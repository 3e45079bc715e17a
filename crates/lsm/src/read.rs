//! The read path: [`ReadView`] carries the only implementation of every
//! lookup the engine offers — the point lookup through a delete tile's page
//! filters, the sort-key range lookup, the secondary range lookup on the
//! delete key (paper §4.2), the Bloom-only existence probe, the checkpoint
//! stream and the content audit behind space amplification (§3.2.1). A view
//! reads three sources in the order data moves through the tree (active
//! write buffer → frozen buffer → disk [`Version`]). A live view reads the
//! tree's own `MemState` and [`VersionSet`]; a captured view has the same
//! shape over a copy of them that nothing writes.

use crate::cursor::{EntryCursor, MergeIterator, SharedSliceCursor, SsTableCursor, VecCursor};
use crate::stats::ContentSnapshot;
use crate::tree::min_opt;
use crate::version::{Version, VersionSet};
use bytes::Bytes;
use lethe_storage::{
    DeleteKey, Entry, EntryKind, MemTable, Result, SortKey, StorageBackend, StorageError,
    Timestamp, TombstoneFragments,
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
    /// The same range tombstones, fragmented for point lookups: handed over
    /// by the memtable, never rebuilt.
    pub(crate) fragments: TombstoneFragments,
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
        Entry::resolve_point_read(sort_key, point, self.fragments.newest_covering(sort_key))
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

/// Appends the range tombstones of `rts` that overlap `[lo, hi)` (all of
/// them with no bounds): the only ones a merge over that range can use.
fn extend_overlapping(out: &mut Vec<Entry>, rts: &[Entry], bounds: Option<(SortKey, SortKey)>) {
    match bounds {
        Some((lo, hi)) => {
            let overlaps = |t: &&Entry| t.sort_key < hi && t.range_end().is_some_and(|e| e > lo);
            out.extend(rts.iter().filter(overlaps).cloned());
        }
        None => out.extend_from_slice(rts),
    }
}

/// The active write buffer: the memtable and the tombstone clock describing
/// it, under one lock so a reader never sees one without the other.
#[derive(Debug, Default, Clone)]
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

impl MemState {
    /// Runs `f` on the frozen buffer, if there is one, behind its brief
    /// read lock.
    fn with_frozen<R>(&self, f: impl FnOnce(&Arc<FrozenBuffer>) -> R) -> Option<R> {
        self.frozen.read().as_ref().map(f)
    }

    /// Newest buffered version (possibly a tombstone) of `sort_key`.
    fn get(&self, sort_key: SortKey) -> Option<Entry> {
        let in_active = self.active.read().table.get(sort_key);
        in_active.or_else(|| self.with_frozen(|f| f.get(sort_key)).flatten())
    }

    /// Pushes one cursor per write buffer over `[lo, hi)` (`None`: over
    /// every buffered entry), newest buffer first, and the buffered range
    /// tombstones that overlap it.
    fn push_buffers(
        &self,
        bounds: Option<(SortKey, SortKey)>,
        cursors: &mut Vec<Box<dyn EntryCursor>>,
        rts: &mut Vec<Entry>,
    ) {
        {
            // the active memtable is mutable, so its in-range slice is the
            // one source a streaming scan snapshots eagerly (bounded by the
            // buffer capacity, not by the scan length)
            let active = self.active.read();
            let slice = match bounds {
                Some((lo, hi)) => active.table.range(lo, hi),
                None => active.table.iter().cloned().collect(),
            };
            cursors.push(Box::new(VecCursor::from_sorted(slice)));
            extend_overlapping(rts, active.table.range_tombstones(), bounds);
        }
        self.with_frozen(|f| {
            cursors.push(f.range_cursor(bounds));
            extend_overlapping(rts, &f.range_tombstones, bounds);
        });
    }

    /// The buffered point entries satisfying `qualifies` (any order).
    fn buffered_where(&self, qualifies: impl Fn(&&Entry) -> bool) -> Vec<Entry> {
        let mut hits: Vec<Entry> =
            self.active.read().table.iter().filter(&qualifies).cloned().collect();
        self.with_frozen(|f| hits.extend(f.entries.iter().filter(&qualifies).cloned()));
        hits
    }

    /// Every buffered range tombstone, active buffer first.
    fn buffered_range_tombstones(&self) -> Vec<Entry> {
        let mut rts = self.active.read().table.range_tombstones().to_vec();
        self.with_frozen(|f| rts.extend_from_slice(&f.range_tombstones));
        rts
    }

    /// Insertion time of the oldest buffered tombstone.
    fn oldest_buffered_tombstone_ts(&self) -> Option<Timestamp> {
        let in_active = self.active.read().oldest_tombstone_ts;
        min_opt(in_active, self.with_frozen(|f| f.oldest_tombstone_ts).flatten())
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
/// A **captured** view, from
/// [`LsmTree::capture_snapshot`](crate::tree::LsmTree::capture_snapshot), is
/// a frozen point-in-time view: it is taken while the embedding layer holds
/// the tree's write serialisation (the sharded front-end captures all shards
/// under their engine locks so one seqnum fence covers the whole store), and
/// subsequent writes, flushes, compactions and secondary deletes cannot
/// change what it returns.
///
/// Both are the same shape: a captured view is a view of a tree nobody
/// writes. Its `MemState` holds a copy of the active buffer (bounded by the
/// buffer capacity) and the same frozen-buffer `Arc` (whose rare in-place
/// mutation goes through `Arc::make_mut`, leaving the capture's pointer
/// untouched); its [`VersionSet`] holds the captured [`Version`] and never
/// installs, so the `Arc<SsTable>`s it reaches defer page reclamation for as
/// long as the view lives; and its buffer capacity is unbounded, so it
/// never reports [`ReadView::write_stalled`].
///
/// Both kinds bump the tree's lookup counters.
#[derive(Clone)]
pub struct ReadView {
    backend: Arc<dyn StorageBackend>,
    mem: Arc<MemState>,
    versions: Arc<VersionSet>,
    /// Shared by every view of the tree, live or captured.
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
        ReadView { backend, mem, versions, counters: Arc::default(), buffer_capacity_bytes }
    }

    /// The same tree as `self`, captured: a view over a copy of the buffers
    /// and the current version that no write, flush or install reaches.
    pub(crate) fn capture(&self) -> ReadView {
        let active = self.mem.active.read().clone();
        let frozen = self.mem.frozen.read().clone();
        let mem = MemState {
            active: RwLock::new(LockRank::MemtableActive, active),
            frozen: RwLock::new(LockRank::MemtableFrozen, frozen),
        };
        ReadView {
            mem: Arc::new(mem),
            versions: Arc::new(VersionSet::fixed(self.versions.current())),
            buffer_capacity_bytes: usize::MAX,
            ..self.clone()
        }
    }

    /// Point lookup: returns the value of `sort_key`, or `None` if the key
    /// does not exist or has been deleted.
    pub fn get(&self, sort_key: SortKey) -> Result<Option<Bytes>> {
        self.counters.point_lookups.fetch_add(1, Ordering::Relaxed);
        let newest = match self.mem.get(sort_key) {
            Some(e) => Some(e),
            None => self.disk_entry(&self.versions.current(), sort_key)?,
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
    /// plus the range tombstones of every source that overlap the bounds,
    /// which the merge fragments to shadow older entries.
    /// `drop_tombstones` selects between the user-facing view (resolved,
    /// tombstones consumed) and the checkpoint stream (full entries,
    /// tombstones retained). The file cursors hold their tables, which
    /// defers the reclamation of every page the merge may still read for as
    /// long as it lives. The whole-view walk (the checkpoint stream and the
    /// content audit) reads its pages `nofill`, as compactions do, so a
    /// bulk pass over the store cannot evict the hot read set from the
    /// block cache; a bounded scan fills it like a get.
    fn build_merge(
        &self,
        bounds: Option<(SortKey, SortKey)>,
        drop_tombstones: bool,
    ) -> Result<MergeIterator> {
        let mut cursors: Vec<Box<dyn EntryCursor>> = Vec::new();
        let mut rts: Vec<Entry> = Vec::new();
        if bounds.is_none_or(|(lo, hi)| lo < hi) {
            self.mem.push_buffers(bounds, &mut cursors, &mut rts);
            let version = self.versions.current();
            // both arms list the files in read precedence order (shallowest
            // level first, newest run first)
            let tables = match bounds {
                Some((lo, hi)) => version.overlapping_tables(lo, hi),
                None => version.levels.iter().flat_map(|l| l.all_tables().cloned()).collect(),
            };
            for table in tables {
                extend_overlapping(&mut rts, &table.range_tombstones, bounds);
                let backend = Arc::clone(&self.backend);
                cursors.push(Box::new(match bounds {
                    Some((lo, hi)) => SsTableCursor::new(table, backend, lo, hi, false),
                    None => SsTableCursor::full(table, backend, true),
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
        let mut hits = self.mem.buffered_where(|e| {
            !e.is_tombstone() && e.delete_key >= d_lo && e.delete_key < d_hi
        });
        // the install counter is read BEFORE the version is pinned: an
        // install racing these two reads then shows up as a counter
        // mismatch in `verify_newest` (counter already advanced past the
        // captured generation), forcing the fresh re-pin. Read the other
        // way around, a racing install could be counted into `generation`
        // while the pin still holds the pre-install version, and the
        // short-circuit would validate candidates against a stale snapshot.
        let generation = self.versions.installs();
        let version = self.versions.current();
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
    /// fresh pin. A captured view's counter never moves, so it always reuses.
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
        if let Some(e) = self.mem.get(sort_key) {
            return Ok(Some(e));
        }
        if self.versions.installs() == generation {
            self.disk_entry(pinned, sort_key)
        } else {
            self.disk_entry(&self.versions.current(), sort_key)
        }
    }

    /// Returns `true` if `sort_key` may exist in the tree (memtable check
    /// plus Bloom probes; no page reads). Used for blind-delete suppression.
    pub fn key_may_exist(&self, sort_key: SortKey) -> Result<bool> {
        let in_frozen = |f: &Arc<FrozenBuffer>| {
            f.get(sort_key).is_some() || !f.range_tombstones.is_empty()
        };
        let in_active = self.mem.active.read().table.get(sort_key).is_some();
        if in_active || self.mem.with_frozen(in_frozen) == Some(true) {
            return Ok(true);
        }
        let stats = self.backend.stats();
        let version = self.versions.current();
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

    /// The content audit behind
    /// [`LsmTree::snapshot_contents`](crate::tree::LsmTree::snapshot_contents),
    /// with tombstone ages taken at logical time `now`. Run it on a captured
    /// view ([`LsmTree::capture_snapshot`](crate::tree::LsmTree::capture_snapshot))
    /// so every count describes one instant; it takes no tree lock. Totals
    /// count every stored copy with no dedup: file metadata (whose entry,
    /// byte and tombstone counts include the file's range-tombstone block)
    /// plus the buffers' point entries and range tombstones. Unique counts
    /// stream the whole view's merge with tombstones resolved.
    pub fn contents(&self, now: Timestamp) -> Result<ContentSnapshot> {
        let version = self.versions.current();
        let mut snap = ContentSnapshot {
            populated_levels: version.levels.iter().filter(|l| !l.is_empty()).count(),
            ..ContentSnapshot::default()
        };
        for table in version.levels.iter().flat_map(|level| level.all_tables()) {
            snap.files += 1;
            snap.metadata_bytes += table.memory_footprint() as u64;
            if table.has_tombstones() {
                snap.tombstone_file_ages.push((table.tombstone_age(now), table.tombstone_count()));
            }
            snap.total_entries += table.meta.num_entries;
            snap.total_bytes += table.meta.data_bytes;
            snap.tombstones += table.tombstone_count();
        }
        let buffered = self.mem.buffered_where(|_| true);
        for e in buffered.iter().chain(&self.mem.buffered_range_tombstones()) {
            snap.total_entries += 1;
            snap.total_bytes += e.encoded_size() as u64;
            snap.tombstones += u64::from(e.is_tombstone());
        }
        let mut merge = self.build_merge(None, true)?;
        while let Some(e) = merge.next_merged()? {
            snap.unique_entries += 1;
            snap.unique_bytes += e.encoded_size() as u64;
        }
        Ok(snap)
    }

    /// Every range tombstone visible in this view, from all of its sources
    /// (checkpoints persist them alongside the point entries).
    pub fn all_range_tombstones(&self) -> Vec<Entry> {
        let mut rts = self.mem.buffered_range_tombstones();
        for table in self.versions.current().levels.iter().flat_map(|level| level.all_tables()) {
            rts.extend(table.range_tombstones.iter().cloned());
        }
        rts.sort_by(|a, b| a.sort_key.cmp(&b.sort_key).then(a.seqnum.cmp(&b.seqnum)));
        rts.dedup_by(|a, b| a.sort_key == b.sort_key && a.seqnum == b.seqnum);
        rts
    }

    /// Insertion time of the oldest tombstone visible in this view, for the
    /// FADE age accounting of files a checkpoint builds from it.
    pub fn oldest_tombstone_ts(&self) -> Option<Timestamp> {
        let version = self.versions.current();
        let on_disk = version.levels.iter().flat_map(|level| level.all_tables());
        on_disk.fold(self.mem.oldest_buffered_tombstone_ts(), |oldest, table| {
            min_opt(oldest, table.meta.oldest_tombstone_ts)
        })
    }

    /// Number of runs in the first disk level — the write-backpressure
    /// signal, exposed on the view so the check needs no shard lock.
    pub fn l0_run_count(&self) -> usize {
        self.versions.current().l0_run_count()
    }

    /// True when the writer should stall (full active buffer behind an
    /// unflushed frozen one); see
    /// [`LsmTree::write_stalled`](crate::tree::LsmTree::write_stalled).
    /// Exposed on the view so backpressure checks need no shard lock.
    pub fn write_stalled(&self) -> bool {
        // each `&&` operand is a temporary scope: the first guard drops
        // before the second lock is taken, so the two are never held
        // together. A capture's unbounded capacity keeps it false: nothing
        // writes into a capture.
        self.mem.active.read().table.size_bytes() >= self.buffer_capacity_bytes
            && self.mem.frozen.read().is_some()
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
    use crate::cursor::tests::stored_entries;
    use crate::tree::{LsmTree, MaintenanceMode};
    use bytes::Bytes;
    use lethe_storage::{
        Entry, EntryKind, FileBackend, FileWal, LogicalClock, Manifest, MemVfs, SortKey, Vfs,
    };
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::path::Path;
    use std::sync::Arc;

    fn policy() -> Box<SaturationPolicy> {
        Box::new(SaturationPolicy::new(FileSelection::MinOverlap))
    }

    /// Opens (or reopens) the tree stored in `vfs`, in background mode: a
    /// full buffer is only frozen, and stays so until the test flushes.
    fn open(vfs: &Arc<dyn Vfs>) -> LsmTree {
        let dir = Path::new("/");
        let config = LsmConfig::small_for_test();
        let target = config.segment_target_bytes();
        let backend = Arc::new(FileBackend::open_on(vfs, dir, "lethe", target).unwrap());
        let wal = FileWal::open_on(vfs, &dir.join("lethe.wal")).unwrap();
        let manifest = Manifest::open_on(vfs, &dir.join("lethe.manifest")).unwrap();
        let mut t =
            LsmTree::new(config, backend, Box::new(wal), manifest, LogicalClock::new(), policy())
                .unwrap();
        t.recover().unwrap();
        t.set_maintenance_mode(MaintenanceMode::Background);
        t
    }

    /// Every stored copy in `t` — each file's point entries and
    /// range-tombstone block, then both write buffers — read entry by entry,
    /// as points and range tombstones.
    fn stored_copies(t: &LsmTree) -> (Vec<Entry>, Vec<Entry>) {
        let (mut points, mut rts) = (Vec::new(), Vec::new());
        for table in t.versions().current().levels.iter().flat_map(|l| l.all_tables()) {
            points.extend(stored_entries(Arc::clone(table), t.backend().clone()));
            rts.extend_from_slice(&table.range_tombstones);
        }
        {
            let active = t.mem.active.read();
            points.extend(active.table.iter().cloned());
            rts.extend_from_slice(active.table.range_tombstones());
        }
        if let Some(frozen) = t.mem.frozen.read().as_ref() {
            points.extend(frozen.entries.iter().cloned());
            rts.extend_from_slice(&frozen.range_tombstones);
        }
        (points, rts)
    }

    /// `[total_entries, total_bytes, tombstones, unique_entries,
    /// unique_bytes]` of the stored copies, by an independent reference:
    /// totals count every copy; a key is live when its newest copy by seqnum
    /// is a put that no newer range tombstone covers (a linear check).
    fn reference_counts(points: &[Entry], rts: &[Entry]) -> [u64; 5] {
        let copies = points.iter().chain(rts);
        let total_bytes = copies.clone().map(|e| e.encoded_size() as u64).sum();
        let tombstones = copies.filter(|e| e.is_tombstone()).count() as u64;
        let mut newest: BTreeMap<SortKey, &Entry> = BTreeMap::new();
        for e in points {
            let slot = newest.entry(e.sort_key).or_insert(e);
            if slot.seqnum < e.seqnum {
                *slot = e;
            }
        }
        let live: Vec<&Entry> = newest
            .into_values()
            .filter(|e| e.kind == EntryKind::Put)
            .filter(|e| !rts.iter().any(|rt| rt.covers(e.sort_key) && rt.seqnum > e.seqnum))
            .collect();
        [
            (points.len() + rts.len()) as u64,
            total_bytes,
            tombstones,
            live.len() as u64,
            live.iter().map(|e| e.encoded_size() as u64).sum(),
        ]
    }

    /// The content audit agrees with [`reference_counts`] on `t`.
    fn check_audit(t: &LsmTree) {
        let (points, rts) = stored_copies(t);
        let snap = t.snapshot_contents().unwrap();
        let audited = [
            snap.total_entries,
            snap.total_bytes,
            snap.tombstones,
            snap.unique_entries,
            snap.unique_bytes,
        ];
        assert_eq!(audited, reference_counts(&points, &rts), "frozen: {}", t.has_frozen());
    }

    #[derive(Debug, Clone)]
    enum Step {
        Put(u64, u8),
        Delete(u64),
        DeleteRange(u64, u64),
        Freeze,
        Flush,
        Compact,
        Reopen,
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            10 => (0..96u64, any::<u8>()).prop_map(|(k, v)| Step::Put(k, v)),
            3 => (0..96u64).prop_map(Step::Delete),
            1 => (0..96u64, 1..24u64).prop_map(|(s, len)| Step::DeleteRange(s, s + len)),
            1 => Just(Step::Freeze),
            1 => Just(Step::Flush),
            1 => Just(Step::Compact),
            1 => Just(Step::Reopen),
        ]
    }

    fn apply(t: &mut LsmTree, vfs: &Arc<dyn Vfs>, step: Step) {
        match step {
            Step::Put(k, v) => t.put(k, k % 7, Bytes::from(vec![v; 1 + k as usize % 13])).unwrap(),
            Step::Delete(k) => drop(t.delete(k).unwrap()),
            Step::DeleteRange(s, e) => t.delete_range(s, e).unwrap(),
            Step::Freeze => drop(t.freeze().unwrap()),
            Step::Flush => t.flush().unwrap(),
            Step::Compact => t.maintain().unwrap(),
            Step::Reopen => *t = open(vfs),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// `snapshot_contents` counts what an independent reference counts
        /// over every stored copy, after every step of a random history —
        /// and on every history, with a frozen buffer held behind the
        /// active one and again after a reopen replays the log.
        #[test]
        fn content_audit_matches_the_reference(ops in prop::collection::vec(step(), 1..120)) {
            let vfs = MemVfs::shared();
            let mut t = open(&vfs);
            let tail = [Step::Put(0, 1), Step::Freeze, Step::Put(1, 2), Step::Delete(2)];
            for step in ops.into_iter().chain(tail) {
                apply(&mut t, &vfs, step);
                check_audit(&t);
            }
            prop_assert!(t.has_frozen(), "the history must end on a held frozen buffer");
            apply(&mut t, &vfs, Step::Reopen);
            check_audit(&t);
        }
    }

    /// A capture taken with a full active buffer behind an unflushed frozen
    /// one keeps reading capture-time values from all three sources through
    /// later writes, a flush, a compaction and a secondary range delete; it
    /// never reports a stall the live view does; and dropping it releases
    /// the files it pinned.
    #[test]
    fn a_capture_reads_its_instant_from_every_source() {
        let vfs = MemVfs::shared();
        let mut t = open(&vfs);
        let value = |k: u64, round: u64| Bytes::from(format!("v{round}-{k}"));
        let mut key = 0u64;
        let mut put_until = |t: &mut LsmTree, done: fn(&LsmTree) -> bool| {
            while !done(t) {
                t.put(key, key % 10, value(key, 0)).unwrap();
                key += 1;
            }
            key - 1
        };
        let on_disk = put_until(&mut t, LsmTree::has_frozen);
        t.flush().unwrap();
        let frozen = put_until(&mut t, LsmTree::has_frozen);
        let active = put_until(&mut t, LsmTree::write_stalled);
        let reader = t.reader();
        let capture = t.capture_snapshot();
        assert!(reader.write_stalled() && !capture.write_stalled());
        let captured = reader.range(0, key).unwrap();
        assert_eq!(captured.len() as u64, key);

        for k in 0..key {
            t.put(k, k % 10, value(k, 1)).unwrap();
        }
        t.delete_range(0, key / 2).unwrap();
        // purges the frozen buffer the capture shares, copy-on-write
        t.secondary_range_delete(5, 10).unwrap();
        t.flush().unwrap();
        t.force_full_compaction().unwrap();
        t.secondary_range_delete(0, 5).unwrap();
        for k in [on_disk, frozen, active] {
            assert_ne!(reader.get(k).unwrap(), Some(value(k, 0)), "live key {k}");
            assert_eq!(capture.get(k).unwrap(), Some(value(k, 0)), "captured key {k}");
        }
        assert_eq!(capture.range(0, key).unwrap(), captured);
        assert!(t.versions().garbage_len() > 0, "the capture pins the replaced files");
        drop(capture);
        t.versions().collect_garbage(t.backend().as_ref()).unwrap();
        assert_eq!(t.versions().garbage_len(), 0);
    }

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
