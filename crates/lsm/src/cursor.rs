//! Streaming entry cursors and the k-way heap merge.
//!
//! Every multi-source read in the engine — range scans, flushes, compactions
//! — reduces to the same operation: walk several sorted entry streams in
//! lock-step, keep the newest version of every sort key, and apply tombstone
//! semantics. The seed implementation materialised every source into a
//! `Vec<Entry>`, concatenated them and re-sorted the already-sorted runs
//! (O(n log n) work and O(n) memory per scan). This module replaces that
//! with *cursors*:
//!
//! * [`EntryCursor`] — a fallible stream of entries sorted on
//!   `(sort key asc, seqnum desc)`.
//! * [`VecCursor`] / [`SharedSliceCursor`] — in-memory sources (memtable
//!   snapshots, the frozen flush buffer).
//! * [`SsTableCursor`] — a *lazy* file source that decodes one delete tile
//!   at a time (fence-pruned to the requested range, stopping at `hi`), so
//!   a scan never holds more than one tile of one file in memory per input.
//! * [`MergeIterator`] — a binary-heap k-way merge over cursors that yields
//!   the newest version per key with range-tombstone shadowing applied
//!   incrementally: the merge fragments its range tombstones once
//!   ([`TombstoneFragments`]) and sweeps the fragments forward with the
//!   keys (amortised O(1) per entry instead of a full tombstone-list scan
//!   per entry). A merge is itself an [`EntryCursor`], so merges nest: the
//!   sharded front-end merges one merged stream per shard.
//!
//! The consumers are `ReadView::iter_range` (streaming scans over pinned
//! files; `range` collects it), the cross-shard fan-out and checkpoint in
//! `lethe-core`, and `JobPlan::execute` (compactions and flushes merge with
//! memory bounded by *tile granularity*, not total input size or the size
//! of an output file).

use crate::sstable::SsTable;
use lethe_storage::{
    Entry, FragmentCursor, Page, PageId, Result, SortKey, StorageBackend, TombstoneFragments,
};
use std::cmp::Ordering as CmpOrdering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// A fallible stream of entries sorted on `(sort_key asc, seqnum desc)`.
///
/// Sources that read from a device (the [`SsTableCursor`]) surface I/O
/// errors; in-memory sources never fail.
pub trait EntryCursor: Send {
    /// Consumes and returns the next entry.
    fn next_entry(&mut self) -> Result<Option<Entry>>;
}

// ------------------------------------------------------------------ probe

/// A per-thread working-set probe for tests: tracks how many entries the
/// streaming machinery (tile buffers, output chunks) holds resident on the
/// current thread, and the peak since the last [`probe::reset`].
///
/// This exists to make the headline memory claim *testable*: a large merge
/// must peak at output-tile + per-input-tile granularity (plus the woven
/// pages its merge stage has not handed on yet), never at output-file or
/// total-input granularity. The counters are thread-local `Cell`s, so the
/// probe costs two increments per tile load and adds no synchronisation.
pub mod probe {
    use std::cell::Cell;

    thread_local! {
        static CURRENT: Cell<u64> = const { Cell::new(0) };
        static PEAK: Cell<u64> = const { Cell::new(0) };
    }

    /// Resets both counters on the calling thread.
    pub fn reset() {
        CURRENT.with(|c| c.set(0));
        PEAK.with(|p| p.set(0));
    }

    /// Peak number of simultaneously resident streamed entries on the
    /// calling thread since the last [`reset`].
    pub fn peak() -> u64 {
        PEAK.with(|p| p.get())
    }

    pub(crate) fn add(n: u64) {
        CURRENT.with(|c| {
            let now = c.get() + n;
            c.set(now);
            PEAK.with(|p| {
                if now > p.get() {
                    p.set(now);
                }
            });
        });
    }

    pub(crate) fn sub(n: u64) {
        CURRENT.with(|c| c.set(c.get().saturating_sub(n)));
    }
}

// ---------------------------------------------------------------- sources

/// Orders two entries the way every cursor and the merge expect:
/// ascending sort key, ties broken newest (largest seqnum) first.
pub fn entry_order(a: &Entry, b: &Entry) -> CmpOrdering {
    a.sort_key.cmp(&b.sort_key).then_with(|| b.seqnum.cmp(&a.seqnum))
}

/// An owned in-memory source (a drained memtable snapshot, a test vector).
#[derive(Debug)]
pub struct VecCursor {
    iter: std::vec::IntoIter<Entry>,
}

impl VecCursor {
    /// Builds a cursor over entries that are already sorted on
    /// `(sort_key asc, seqnum desc)`; debug builds assert the precondition.
    pub fn from_sorted(entries: Vec<Entry>) -> Self {
        debug_assert!(entries
            .windows(2)
            .all(|w| entry_order(&w[0], &w[1]) != CmpOrdering::Greater));
        VecCursor { iter: entries.into_iter() }
    }
}

impl EntryCursor for VecCursor {
    fn next_entry(&mut self) -> Result<Option<Entry>> {
        Ok(self.iter.next())
    }
}

/// A cursor over a *shared* sorted slice (the `Arc`-pinned frozen flush
/// buffer): iterating clones one entry at a time instead of copying the
/// whole buffer up front.
pub struct SharedSliceCursor<T: AsRef<[Entry]> + Send> {
    data: T,
    pos: usize,
    end: usize,
}

impl<T: AsRef<[Entry]> + Send> SharedSliceCursor<T> {
    /// Builds a cursor over `data[start..end)`; the slice must be sorted on
    /// `(sort_key asc, seqnum desc)`.
    pub fn new(data: T, start: usize, end: usize) -> Self {
        debug_assert!(end <= data.as_ref().len() && start <= end);
        SharedSliceCursor { data, pos: start, end }
    }
}

impl<T: AsRef<[Entry]> + Send> EntryCursor for SharedSliceCursor<T> {
    fn next_entry(&mut self) -> Result<Option<Entry>> {
        if self.pos < self.end {
            let e = self.data.as_ref()[self.pos].clone();
            self.pos += 1;
            Ok(Some(e))
        } else {
            Ok(None)
        }
    }
}

/// A lazy cursor over one file's point entries in `[lo, hi)`.
///
/// The KiWi layout keeps delete tiles sorted on the sort key but the pages
/// *inside* a tile sorted on the delete key, so sort-key order is only
/// recoverable a tile at a time: the cursor fence-prunes to the tiles
/// overlapping the range, reads the pages of one tile when it is first
/// needed (skipping pages whose sort-key bounds fall outside the range),
/// decodes and sorts only that tile's in-range entries, and discards them
/// before loading the next tile. Peak memory is therefore one tile
/// (`h · B` entries), not the file; a scan that stops early never decodes
/// the tiles past `hi`.
///
/// A tile's pages are fetched with one [`StorageBackend::read_pages`] call,
/// through the table's backend — and thus through the block cache when one
/// is configured. One build wrote them back to back, so a device reads
/// them with one `pread` into one buffer, and the pages and the values
/// decoded from them are windows on it with no second copy. The trade: a
/// value read on an uncached path keeps its whole tile buffer (up to `h`
/// pages) alive while it is held, not just its page. `nofill` selects the
/// maintenance read path ([`StorageBackend::read_page_nofill`]): compaction
/// merges stream whole files and must not evict the hot point-read working
/// set.
///
/// The cursor holds an `Arc` to the table, which keeps the version set's
/// deferred page reclamation from dropping the file's pages while the scan
/// is in flight (see `lethe_lsm::version`).
pub struct SsTableCursor {
    table: Arc<SsTable>,
    backend: Arc<dyn StorageBackend>,
    lo: SortKey,
    /// Exclusive upper bound; `None` scans to the end of the key domain
    /// (compaction input — `u64::MAX` itself must not be excluded).
    hi: Option<SortKey>,
    nofill: bool,
    /// Next tile index to decode.
    next_tile: usize,
    /// One past the last tile that may overlap the range.
    end_tile: usize,
    /// The current tile's in-range entries not yet yielded, sorted on
    /// `(S asc, seq desc)` *backwards*: the next entry is popped off the end,
    /// moved out rather than cloned.
    buf: Vec<Entry>,
    /// The pages of the tile being loaded and their ids, kept for their
    /// allocations.
    ids: Vec<PageId>,
    pages: Vec<Arc<Page>>,
}

impl SsTableCursor {
    /// Opens a cursor over `table`'s point entries in `[lo, hi)`.
    pub fn new(
        table: Arc<SsTable>,
        backend: Arc<dyn StorageBackend>,
        lo: SortKey,
        hi: SortKey,
        nofill: bool,
    ) -> Self {
        let (next_tile, end_tile) = match table.tile_fences.locate_range(lo, hi) {
            Some((start, end)) if table.overlaps_sort_range(lo, hi) => {
                (start, (end + 1).min(table.tiles.len()))
            }
            _ => (0, 0),
        };
        SsTableCursor {
            table,
            backend,
            lo,
            hi: Some(hi),
            nofill,
            next_tile,
            end_tile,
            buf: Vec::new(),
            ids: Vec::new(),
            pages: Vec::new(),
        }
    }

    /// Opens a cursor over the whole file, **including** a `u64::MAX` sort
    /// key (compaction input; a half-open `[0, u64::MAX)` scan would lose
    /// the largest key).
    pub fn full(table: Arc<SsTable>, backend: Arc<dyn StorageBackend>, nofill: bool) -> Self {
        let end_tile = table.tiles.len();
        SsTableCursor {
            table,
            backend,
            lo: 0,
            hi: None,
            nofill,
            next_tile: 0,
            end_tile,
            buf: Vec::new(),
            ids: Vec::new(),
            pages: Vec::new(),
        }
    }

    /// Ensures `buf` holds the next entry, decoding tiles until one yields
    /// in-range entries or the fence-pruned tile range is exhausted.
    fn fill(&mut self) -> Result<()> {
        while self.buf.is_empty() && self.next_tile < self.end_tile {
            let tile = &self.table.tiles[self.next_tile];
            self.next_tile += 1;
            if tile.max_sort < self.lo || self.hi.is_some_and(|hi| tile.min_sort >= hi) {
                continue;
            }
            let (lo, hi) = (self.lo, self.hi);
            let in_range = tile.pages.iter().filter(|handle| {
                handle.num_entries > 0
                    && handle.max_sort >= lo
                    && hi.is_none_or(|hi| handle.min_sort < hi)
            });
            self.ids.clear();
            self.ids.extend(in_range.map(|handle| handle.id));
            self.backend.read_pages(&self.ids, self.nofill, &mut self.pages)?;
            for page in self.pages.drain(..) {
                match self.hi {
                    Some(hi) => self.buf.extend(page.range(self.lo, hi)),
                    None => self.buf.extend(page.range_from(self.lo)),
                }
            }
            self.buf.sort_by(|a, b| entry_order(b, a));
            probe::add(self.buf.len() as u64);
        }
        Ok(())
    }
}

impl EntryCursor for SsTableCursor {
    fn next_entry(&mut self) -> Result<Option<Entry>> {
        self.fill()?;
        let next = self.buf.pop();
        if next.is_some() {
            probe::sub(1);
        }
        Ok(next)
    }
}

impl Drop for SsTableCursor {
    fn drop(&mut self) {
        // release whatever part of the current tile was loaded but not
        // yielded (yielded entries were released one by one)
        probe::sub(self.buf.len() as u64);
    }
}

// ------------------------------------------------------------------ merge

/// One source's head entry queued in the merge heap. The heap is a max-heap,
/// so `Ord` is inverted to surface the *smallest* sort key (ties: largest
/// seqnum, then the earliest — newest — source).
struct HeapHead {
    entry: Entry,
    src: usize,
}

impl PartialEq for HeapHead {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == CmpOrdering::Equal
    }
}
impl Eq for HeapHead {}
impl PartialOrd for HeapHead {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapHead {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        other
            .entry
            .sort_key
            .cmp(&self.entry.sort_key)
            .then_with(|| self.entry.seqnum.cmp(&other.entry.seqnum))
            .then_with(|| other.src.cmp(&self.src))
    }
}

/// A binary-heap k-way merge over entry cursors that yields the newest
/// version per sort key, with range-tombstone shadowing applied through a
/// [`FragmentCursor`] and (optionally) tombstones themselves dropped.
///
/// Sources must be supplied **newest first** (active memtable, frozen
/// buffer, then disk levels top-down): when two sources hold an entry with
/// the same key and seqnum (possible in the brief window where a flushed
/// buffer coexists with its installed output), the earlier source wins.
pub struct MergeIterator {
    cursors: Vec<Box<dyn EntryCursor>>,
    heap: BinaryHeap<HeapHead>,
    fragments: FragmentCursor,
    drop_tombstones: bool,
    last_key: Option<SortKey>,
}

impl MergeIterator {
    /// Builds a merge over `cursors` (each sorted on `(S asc, seq desc)`,
    /// newest source first) shadowed by `range_tombstones`. When
    /// `drop_tombstones` is set (a merge into the last level, or a read that
    /// only wants live data), surviving point and range tombstones are
    /// discarded from the output.
    pub fn new(
        cursors: Vec<Box<dyn EntryCursor>>,
        range_tombstones: Vec<Entry>,
        drop_tombstones: bool,
    ) -> Result<Self> {
        let mut cursors = cursors;
        let mut heap = BinaryHeap::with_capacity(cursors.len());
        for (src, cursor) in cursors.iter_mut().enumerate() {
            if let Some(entry) = cursor.next_entry()? {
                heap.push(HeapHead { entry, src });
            }
        }
        Ok(MergeIterator {
            cursors,
            heap,
            fragments: TombstoneFragments::from_tombstones(&range_tombstones).into_cursor(),
            drop_tombstones,
            last_key: None,
        })
    }

    /// Returns the next surviving entry of the merge, or `None` when every
    /// source is exhausted.
    pub fn next_merged(&mut self) -> Result<Option<Entry>> {
        while let Some(mut head) = self.heap.peek_mut() {
            // swap the source's next entry into the top slot (one sift when
            // `head` drops) instead of a pop followed by a push
            let entry = match self.cursors[head.src].next_entry()? {
                Some(refill) => std::mem::replace(&mut head.entry, refill),
                None => PeekMut::pop(head).entry,
            };
            if self.last_key == Some(entry.sort_key) {
                continue; // an older version of a key already decided
            }
            self.last_key = Some(entry.sort_key);
            if self.fragments.shadows(entry.sort_key, entry.seqnum) {
                continue;
            }
            if self.drop_tombstones && entry.is_tombstone() {
                continue;
            }
            return Ok(Some(entry));
        }
        Ok(None)
    }
}

/// A merge is a sorted, one-version-per-key stream, hence a valid input to
/// an outer merge: the cross-shard scan and checkpoint in `lethe-core`
/// merge one per-shard merged stream per shard.
impl EntryCursor for MergeIterator {
    fn next_entry(&mut self) -> Result<Option<Entry>> {
        self.next_merged()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::LsmConfig;
    use bytes::Bytes;
    use lethe_storage::FileBackend;

    /// Every point entry `table` stores, in merge order, read as a
    /// compaction reads its inputs.
    pub(crate) fn stored_entries(
        table: Arc<SsTable>,
        backend: Arc<dyn StorageBackend>,
    ) -> Vec<Entry> {
        let mut cursor = SsTableCursor::full(table, backend, true);
        std::iter::from_fn(|| cursor.next_entry().unwrap()).collect()
    }

    fn put(k: u64, seq: u64) -> Entry {
        Entry::put(k, k, seq, Bytes::from_static(b"v"))
    }

    fn collect(mut it: MergeIterator) -> Vec<Entry> {
        let mut out = Vec::new();
        while let Some(e) = it.next_merged().unwrap() {
            out.push(e);
        }
        out
    }

    /// What a merge leaves of `inputs` (each in arbitrary order) under
    /// `range_tombstones`: the surviving point entries and, unless
    /// tombstones are dropped, the range tombstones themselves.
    struct Merged {
        entries: Vec<Entry>,
        range_tombstones: Vec<Entry>,
    }

    impl Merged {
        fn len(&self) -> usize {
            self.entries.len() + self.range_tombstones.len()
        }

        fn is_empty(&self) -> bool {
            self.entries.is_empty() && self.range_tombstones.is_empty()
        }
    }

    fn sorted(mut entries: Vec<Entry>) -> VecCursor {
        entries.sort_by(entry_order);
        VecCursor::from_sorted(entries)
    }

    fn merge_all(inputs: Vec<Vec<Entry>>, range_tombstones: Vec<Entry>, drop: bool) -> Merged {
        let cursors: Vec<Box<dyn EntryCursor>> =
            inputs.into_iter().map(|v| Box::new(sorted(v)) as Box<dyn EntryCursor>).collect();
        let merge = MergeIterator::new(cursors, range_tombstones.clone(), drop).unwrap();
        let range_tombstones = if drop { Vec::new() } else { range_tombstones };
        Merged { entries: collect(merge), range_tombstones }
    }

    #[test]
    fn vec_cursor_streams_in_order() {
        let mut c = sorted(vec![put(3, 1), put(1, 2), put(2, 3)]);
        assert_eq!(c.next_entry().unwrap().unwrap().sort_key, 1);
        assert_eq!(c.next_entry().unwrap().unwrap().sort_key, 2);
        assert_eq!(c.next_entry().unwrap().unwrap().sort_key, 3);
        assert!(c.next_entry().unwrap().is_none());
        assert!(c.next_entry().unwrap().is_none());
    }

    #[test]
    fn merge_yields_newest_version_per_key_across_sources() {
        let a = VecCursor::from_sorted(vec![put(1, 9), put(3, 1)]);
        let b = VecCursor::from_sorted(vec![put(1, 5), put(2, 2), put(3, 7)]);
        let out = collect(
            MergeIterator::new(vec![Box::new(a), Box::new(b)], vec![], false).unwrap(),
        );
        let got: Vec<(u64, u64)> = out.iter().map(|e| (e.sort_key, e.seqnum)).collect();
        assert_eq!(got, vec![(1, 9), (2, 2), (3, 7)]);
    }

    #[test]
    fn equal_seqnums_prefer_the_earlier_source() {
        // the flush race: the same entry visible in the frozen buffer (src 0)
        // and the freshly installed level (src 1)
        let dup = put(5, 42);
        let a = VecCursor::from_sorted(vec![dup.clone()]);
        let b = VecCursor::from_sorted(vec![dup.clone()]);
        let out = collect(
            MergeIterator::new(vec![Box::new(a), Box::new(b)], vec![], false).unwrap(),
        );
        assert_eq!(out, vec![dup]);
    }

    #[test]
    fn merges_nest_as_cursors() {
        // two per-shard streams over disjoint keys, tombstones retained (the
        // checkpoint shape), merged into global key order
        let shard = |entries: Vec<Entry>| {
            let cursor: Box<dyn EntryCursor> = Box::new(VecCursor::from_sorted(entries));
            MergeIterator::new(vec![cursor], vec![], false).unwrap()
        };
        let a = shard(vec![put(1, 4), Entry::point_tombstone(4, 9)]);
        let b = shard(vec![put(2, 7), put(3, 1)]);
        let out =
            collect(MergeIterator::new(vec![Box::new(a), Box::new(b)], vec![], false).unwrap());
        let got: Vec<(u64, bool)> = out.iter().map(|e| (e.sort_key, e.is_tombstone())).collect();
        assert_eq!(got, vec![(1, false), (2, false), (3, false), (4, true)]);
    }

    #[test]
    fn merge_applies_shadowing_and_drops_tombstones_at_last_level() {
        let a = VecCursor::from_sorted(vec![put(5, 1), put(12, 2), put(15, 200)]);
        let b = VecCursor::from_sorted(vec![Entry::point_tombstone(5, 9), put(25, 3)]);
        let rts = vec![Entry::range_tombstone(10, 20, 100)];
        let out = collect(
            MergeIterator::new(vec![Box::new(a), Box::new(b)], rts, true).unwrap(),
        );
        // 5 deleted (point tombstone, dropped), 12 shadowed, 15 newer than
        // the range tombstone, 25 untouched
        let keys: Vec<u64> = out.iter().map(|e| e.sort_key).collect();
        assert_eq!(keys, vec![15, 25]);
    }

    #[test]
    fn sstable_cursor_streams_whole_file_in_order() {
        let backend = Arc::new(FileBackend::in_memory().unwrap());
        let mut cfg = LsmConfig::small_for_test();
        cfg.pages_per_delete_tile = 4;
        cfg.max_pages_per_file = 16;
        // decorrelated delete keys exercise the within-tile page re-sort
        let entries: Vec<Entry> = (0..128u64)
            .map(|k| Entry::put(k, (k * 37) % 1000, k + 1, Bytes::from_static(b"v")))
            .collect();
        let table = Arc::new(
            SsTable::build(1, entries.clone(), vec![], 0, None, &cfg, backend.as_ref()).unwrap(),
        );
        let mut c = SsTableCursor::full(table, backend, false);
        let mut got = Vec::new();
        while let Some(e) = c.next_entry().unwrap() {
            got.push(e);
        }
        assert_eq!(got, entries);
    }

    #[test]
    fn sstable_cursor_prunes_tiles_and_stops_at_hi() {
        let backend = Arc::new(FileBackend::in_memory().unwrap());
        let mut cfg = LsmConfig::small_for_test();
        cfg.pages_per_delete_tile = 2;
        cfg.max_pages_per_file = 64;
        let entries: Vec<Entry> =
            (0..256u64).map(|k| Entry::put(k, k, k + 1, Bytes::from_static(b"v"))).collect();
        let table = Arc::new(
            SsTable::build(1, entries, vec![], 0, None, &cfg, backend.as_ref()).unwrap(),
        );
        let total_pages = table.page_count() as u64;
        let before = backend.stats().snapshot().pages_read;
        let mut c = SsTableCursor::new(Arc::clone(&table), backend.clone(), 20, 36, false);
        let mut got = Vec::new();
        while let Some(e) = c.next_entry().unwrap() {
            got.push(e.sort_key);
        }
        assert_eq!(got, (20..36).collect::<Vec<u64>>());
        let read = backend.stats().snapshot().pages_read - before;
        assert!(
            read < total_pages / 2,
            "a narrow scan must not decode the whole file ({read}/{total_pages} pages)"
        );
        // an empty / non-overlapping range reads nothing
        let before = backend.stats().snapshot().pages_read;
        let mut c = SsTableCursor::new(Arc::clone(&table), backend.clone(), 1000, 2000, false);
        assert!(c.next_entry().unwrap().is_none());
        let mut c = SsTableCursor::new(table, backend.clone(), 10, 10, false);
        assert!(c.next_entry().unwrap().is_none());
        assert_eq!(backend.stats().snapshot().pages_read, before);
    }

    #[test]
    fn probe_tracks_resident_tile_entries() {
        probe::reset();
        let backend = Arc::new(FileBackend::in_memory().unwrap());
        let mut cfg = LsmConfig::small_for_test();
        cfg.pages_per_delete_tile = 2; // 8-entry tiles
        cfg.max_pages_per_file = 64;
        let entries: Vec<Entry> =
            (0..256u64).map(|k| Entry::put(k, k, k + 1, Bytes::from_static(b"v"))).collect();
        let table = Arc::new(
            SsTable::build(1, entries, vec![], 0, None, &cfg, backend.as_ref()).unwrap(),
        );
        let mut c = SsTableCursor::full(table, backend, false);
        let mut n = 0usize;
        while c.next_entry().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 256);
        let tile_entries = (cfg.entries_per_tile()) as u64;
        assert!(
            probe::peak() <= tile_entries,
            "peak {} must stay within one tile ({tile_entries})",
            probe::peak()
        );
    }

    #[test]
    fn empty_merge_is_empty() {
        let out = collect(MergeIterator::new(vec![], vec![], true).unwrap());
        assert!(out.is_empty());
        let c = VecCursor::from_sorted(vec![]);
        let out =
            collect(MergeIterator::new(vec![Box::new(c)], vec![], false).unwrap());
        assert!(out.is_empty());
    }

    #[test]
    fn newest_version_wins() {
        let out = merge_all(vec![vec![put(1, 5), put(2, 1)], vec![put(1, 9)]], vec![], false);
        assert_eq!(out.entries.len(), 2);
        assert_eq!(out.entries[0].seqnum, 9);
        assert_eq!(out.entries[1].sort_key, 2);
        assert_eq!(out.len(), 2);
        assert!(!out.is_empty());
    }

    #[test]
    fn point_tombstone_hides_older_versions_but_survives() {
        let out = merge_all(
            vec![vec![put(7, 1)], vec![Entry::point_tombstone(7, 5)]],
            vec![],
            false,
        );
        assert_eq!(out.entries.len(), 1);
        assert!(out.entries[0].is_point_tombstone());
    }

    #[test]
    fn tombstones_dropped_at_last_level() {
        let out = merge_all(
            vec![vec![put(7, 1), put(8, 2)], vec![Entry::point_tombstone(7, 5)]],
            vec![Entry::range_tombstone(100, 200, 9)],
            true,
        );
        // key 7 deleted persistently, key 8 survives, all tombstones gone
        assert_eq!(out.entries.len(), 1);
        assert_eq!(out.entries[0].sort_key, 8);
        assert!(out.range_tombstones.is_empty());
    }

    #[test]
    fn newer_put_survives_point_tombstone() {
        // a put issued after the delete re-inserts the key
        let out = merge_all(
            vec![vec![Entry::point_tombstone(3, 4)], vec![put(3, 8)]],
            vec![],
            true,
        );
        assert_eq!(out.entries.len(), 1);
        assert_eq!(out.entries[0].seqnum, 8);
        assert!(!out.entries[0].is_tombstone());
    }

    #[test]
    fn range_tombstone_deletes_covered_older_entries_only() {
        let rt = Entry::range_tombstone(10, 20, 100);
        let out = merge_all(
            vec![vec![put(5, 1), put(12, 2), put(15, 200), put(25, 3)]],
            vec![rt.clone()],
            false,
        );
        let keys: Vec<u64> = out.entries.iter().map(|e| e.sort_key).collect();
        // 12 is covered and older than the tombstone; 15 is newer; 5, 25 outside
        assert_eq!(keys, vec![5, 15, 25]);
        assert_eq!(out.range_tombstones, vec![rt]);
    }

    #[test]
    fn output_is_sorted_and_deduplicated() {
        let mut inputs = Vec::new();
        for i in 0..5u64 {
            inputs.push((0..50u64).map(|k| put(k, i * 100 + k)).collect());
        }
        let out = merge_all(inputs, vec![], false);
        assert_eq!(out.entries.len(), 50);
        assert!(out.entries.windows(2).all(|w| w[0].sort_key < w[1].sort_key));
        // all survivors come from the newest input (seqnum >= 400)
        assert!(out.entries.iter().all(|e| e.seqnum >= 400));
    }

    /// Regression for the O(entries × tombstones) shadowing pass: 1k range
    /// tombstones against 10k entries must merge through the sorted window
    /// (and produce exactly the covered/uncovered split) without the
    /// per-entry full-list scan the seed performed.
    #[test]
    fn many_tombstones_times_many_entries_uses_the_window() {
        let n_entries = 10_000u64;
        let n_rts = 1_000u64;
        // entries at seq 1..=10k; tombstones cover [2i, 2i+10) at seq 100k+i
        // (all newer than every entry), so exactly the covered keys die
        let entries: Vec<Entry> = (0..n_entries).map(|k| put(k, k + 1)).collect();
        let rts: Vec<Entry> = (0..n_rts)
            .map(|i| Entry::range_tombstone(2 * i, 2 * i + 10, 100_000 + i))
            .collect();
        let start = std::time::Instant::now();
        let out = merge_all(vec![entries.clone()], rts.clone(), false);
        let elapsed = start.elapsed();
        // brute-force oracle on a sample of keys
        for k in (0..n_entries).step_by(97) {
            let shadowed = rts.iter().any(|rt| rt.covers(k));
            let present = out.entries.iter().any(|e| e.sort_key == k);
            assert_eq!(present, !shadowed, "key {k}");
        }
        assert_eq!(out.range_tombstones.len(), n_rts as usize);
        assert!(out.entries.windows(2).all(|w| w[0].sort_key < w[1].sort_key));
        // generous wall-clock sanity bound: the quadratic path took ~10M
        // covers() calls here; the window does ~(n + t) log t work
        assert!(elapsed.as_secs() < 10, "merge took {elapsed:?}");
    }

    #[test]
    fn empty_inputs() {
        let out = merge_all(vec![], vec![], true);
        assert!(out.is_empty());
        let out = merge_all(vec![vec![]], vec![Entry::range_tombstone(0, 10, 1)], false);
        assert_eq!(out.range_tombstones.len(), 1);
        assert!(out.entries.is_empty());
    }
}
