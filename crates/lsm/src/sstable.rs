//! Sorted immutable files ("SSTables") with the Key Weaving Storage Layout.
//!
//! Every file is a sequence of **delete tiles**; a tile is a sequence of `h`
//! pages (paper §4.2.1):
//!
//! * files within a level are sorted and non-overlapping on the sort key `S`;
//! * delete tiles within a file are sorted on `S`;
//! * **pages within a delete tile are sorted on the delete key `D`**;
//! * entries within a page are sorted on `S`.
//!
//! With `h = 1` a tile is a single page and the layout degenerates to the
//! classic sort-key-only layout of state-of-the-art engines, so baselines and
//! Lethe share this one implementation.
//!
//! The file keeps per-page Bloom filters and delete fence pointers, and
//! per-tile fence pointers on `S`, entirely in memory (their footprint is
//! reported by [`SsTable::memory_footprint`]). Secondary range deletes are
//! served by [`SsTable::secondary_range_delete`], which drops fully-covered
//! pages without reading them (*full page drops*) and rewrites at most the
//! boundary pages of each tile (*partial page drops*).

use crate::config::LsmConfig;
use crate::cursor::entry_order;
use crate::reclaim::PageReservation;
use lethe_storage::{
    BloomFilter, DeleteFence, DeleteKey, Entry, FencePointers, FileDesc, IoStats, Page,
    PageCoverage, PageId, Result, SeqNum, SortKey, StorageBackend, StorageError, Timestamp,
    TombstoneFragments,
};
use std::sync::Arc;

/// In-memory handle to one on-device page.
#[derive(Debug, Clone)]
pub struct PageHandle {
    /// Device page id.
    pub id: PageId,
    /// Bloom filter over the page's sort keys.
    pub bloom: BloomFilter,
    /// Smallest sort key stored in the page.
    pub min_sort: SortKey,
    /// Largest sort key stored in the page.
    pub max_sort: SortKey,
    /// Delete-key bounds of the page's puts (its *delete fence pointer*).
    pub delete_fence: DeleteFence,
    /// Number of entries in the page.
    pub num_entries: usize,
    /// Number of tombstones (point + range) in the page.
    pub num_tombstones: usize,
    /// Encoded size of the page's entries in bytes.
    pub data_bytes: usize,
}

impl PageHandle {
    fn from_page(id: PageId, page: &Page, bits_per_key: f64) -> Self {
        let mut bloom = BloomFilter::new(page.len().max(1), bits_per_key);
        for key in page.sort_keys() {
            bloom.insert(key);
        }
        PageHandle {
            id,
            bloom,
            min_sort: page.min_sort_key().unwrap_or(0),
            max_sort: page.max_sort_key().unwrap_or(0),
            delete_fence: page.delete_fence(),
            num_entries: page.len(),
            num_tombstones: page.tombstone_count(),
            data_bytes: page.data_size(),
        }
    }

    /// How a secondary range delete of `[lo, hi)` treats the page: `Full`
    /// drops it unread, `Partial` reads it and rewrites it if anything
    /// matched, `None` leaves it alone. A fully covered page that holds
    /// tombstones is `Partial`: it must be read to keep them.
    pub fn coverage(&self, lo: DeleteKey, hi: DeleteKey) -> PageCoverage {
        match self.delete_fence.coverage(lo, hi) {
            PageCoverage::Full if self.num_tombstones > 0 => PageCoverage::Partial,
            coverage => coverage,
        }
    }
}

/// A delete tile: `h` pages whose union covers a contiguous range of sort
/// keys, internally ordered by delete key.
#[derive(Debug, Clone)]
pub struct DeleteTile {
    /// Page handles in delete-key order; each carries its page's delete
    /// fence pointer.
    pub pages: Vec<PageHandle>,
    /// Smallest sort key in the tile.
    pub min_sort: SortKey,
    /// Largest sort key in the tile.
    pub max_sort: SortKey,
}

impl DeleteTile {
    fn from_pages(pages: Vec<PageHandle>) -> Self {
        let min_sort = pages.iter().map(|p| p.min_sort).min().unwrap_or(0);
        let max_sort = pages.iter().map(|p| p.max_sort).max().unwrap_or(0);
        DeleteTile { pages, min_sort, max_sort }
    }

    /// Number of entries across all pages of the tile.
    pub fn num_entries(&self) -> usize {
        self.pages.iter().map(|p| p.num_entries).sum()
    }
}

/// One delete tile woven into its pages (key weaving, paper §4.2.1): the
/// tile's entries ordered on the delete key and cut into pages of `B`, each
/// page re-sorted on the sort key and encoded. Weaving is all CPU and
/// touches no device; [`TableWriter::push_tile`] writes the pages, so the
/// two steps can run on different threads.
#[derive(Debug)]
pub(crate) struct WovenTile {
    /// The tile's encoded pages, in delete-key order.
    pages: Vec<Page>,
    /// Largest sequence number among the tile's entries.
    max_seqnum: SeqNum,
}

impl WovenTile {
    /// Weaves one tile of a file, given as its entries in sort-key order:
    /// a stable sort on the delete key (entries with equal delete keys keep
    /// their sort-key order), then each chunk of `entries_per_page` sorted as
    /// [`Page::new`] sorts its entries and encoded. The sorts permute
    /// indices, not entries, and each page is encoded straight from the
    /// tile; the pages are byte-identical to `Page::new` of each chunk.
    pub(crate) fn weave(entries: &[Entry], entries_per_page: usize) -> WovenTile {
        let max_seqnum = entries.iter().map(|e| e.seqnum).max().unwrap_or(0);
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by_key(|&i| entries[i].delete_key);
        let mut page: Vec<&Entry> = Vec::with_capacity(entries_per_page);
        let pages = order
            .chunks_mut(entries_per_page.max(1))
            .map(|chunk| {
                chunk.sort_by(|&a, &b| entry_order(&entries[a], &entries[b]));
                page.clear();
                page.extend(chunk.iter().map(|&i| &entries[i]));
                Page::from_sorted(&page)
            })
            .collect();
        WovenTile { pages, max_seqnum }
    }

    /// Number of pages the tile was cut into.
    pub(crate) fn page_count(&self) -> usize {
        self.pages.len()
    }
}

/// Writes woven tiles to the device and cuts them into files: the one
/// place the pages of a new file are written. Each page is framed,
/// checksummed and appended through one [`PageReservation`], then gets its
/// [`PageHandle`] (Bloom filter and fences); [`TableWriter::cut`]
/// assembles the tiles pushed since the previous cut into a file.
///
/// The reservation covers every page the writer wrote, across all the
/// files it cut, until [`TableWriter::finish`]: a writer dropped on an
/// error path retires them all, so a job that fails after finishing some of
/// its output files strands none of their pages.
pub(crate) struct TableWriter<'a> {
    reservation: PageReservation<'a>,
    bits_per_key: f64,
    /// Tiles of the file being written.
    tiles: Vec<DeleteTile>,
    /// Largest sequence number in those tiles.
    max_seqnum: SeqNum,
}

impl<'a> TableWriter<'a> {
    /// A writer of files for `config` onto `backend`.
    pub(crate) fn new(backend: &'a dyn StorageBackend, config: &LsmConfig) -> TableWriter<'a> {
        TableWriter {
            reservation: PageReservation::new(backend),
            bits_per_key: config.bits_per_key,
            tiles: Vec::new(),
            max_seqnum: 0,
        }
    }

    /// Writes the tile's pages, in order, as the next tile of the file
    /// being written.
    pub(crate) fn push_tile(&mut self, tile: &WovenTile) -> Result<()> {
        let mut pages = Vec::with_capacity(tile.pages.len());
        for page in &tile.pages {
            let id = self.reservation.write(page)?;
            pages.push(PageHandle::from_page(id, page, self.bits_per_key));
        }
        self.tiles.push(DeleteTile::from_pages(pages));
        self.max_seqnum = self.max_seqnum.max(tile.max_seqnum);
        Ok(())
    }

    /// Assembles the tiles pushed since the last cut (possibly none, for a
    /// file of range tombstones only) and `range_tombstones` into file
    /// `id`. Its pages stay covered until [`TableWriter::finish`].
    pub(crate) fn cut(
        &mut self,
        id: u64,
        range_tombstones: Vec<Entry>,
        created_at: Timestamp,
        oldest_tombstone_ts: Option<Timestamp>,
    ) -> SsTable {
        let max_seqnum = range_tombstones
            .iter()
            .map(|e| e.seqnum)
            .fold(std::mem::take(&mut self.max_seqnum), SeqNum::max);
        let tiles = std::mem::take(&mut self.tiles);
        SsTable::assemble(id, tiles, range_tombstones, created_at, oldest_tombstone_ts, max_seqnum)
    }

    /// Hands every page written over to the files cut: they now own them.
    pub(crate) fn finish(self) {
        self.reservation.defuse();
    }
}

/// Immutable metadata describing a file.
#[derive(Debug, Clone)]
pub struct SsTableMeta {
    /// Unique file id assigned by the tree.
    pub id: u64,
    /// Total number of entries (including tombstones) in the file.
    pub num_entries: u64,
    /// Number of point tombstones (RocksDB's `num_deletes`).
    pub num_point_tombstones: u64,
    /// Number of range tombstones stored in the file's range-tombstone block.
    pub num_range_tombstones: u64,
    /// Encoded data size of the file in bytes.
    pub data_bytes: u64,
    /// Smallest sort key in the file.
    pub min_sort: SortKey,
    /// Largest sort key in the file.
    pub max_sort: SortKey,
    /// Delete-key bounds of the file's puts: the union of its page fences.
    pub delete_fence: DeleteFence,
    /// Logical time the file was created (flush or compaction output).
    pub created_at: Timestamp,
    /// Insertion time of the oldest tombstone contained in the file; `None`
    /// when the file holds no tombstones. The tombstone age `a_max` of the
    /// paper is `now - oldest_tombstone_ts`.
    pub oldest_tombstone_ts: Option<Timestamp>,
    /// Largest sequence number stored in the file.
    pub max_seqnum: SeqNum,
}

/// One immutable sorted file of the tree.
#[derive(Debug, Clone)]
pub struct SsTable {
    /// File metadata (the inputs to FADE's `a_max` and `b`).
    pub meta: SsTableMeta,
    /// Delete tiles, sorted on the sort key.
    pub tiles: Vec<DeleteTile>,
    /// Fence pointers on the sort key, one per delete tile.
    pub tile_fences: FencePointers,
    /// The file's range-tombstone block, kept in memory as written: the
    /// manifest persists it and FADE's invalidation estimate counts it. A
    /// file of a delete-heavy workload can hold hundreds.
    pub range_tombstones: Vec<Entry>,
    /// The same range tombstones, fragmented for point lookups; built once,
    /// when the file is assembled.
    fragments: TombstoneFragments,
    /// Lazily-built manifest descriptor; the file is immutable, so it is
    /// computed once and shared (by `Arc` identity) with the manifest's
    /// committed state, letting edits diff unchanged files by pointer.
    desc: std::sync::OnceLock<Arc<FileDesc>>,
}

/// Outcome counters of one secondary range delete over one file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SecondaryDeleteStats {
    /// Pages dropped in their entirety without being read.
    pub full_page_drops: u64,
    /// Pages read, filtered and rewritten because the delete range only
    /// partially covered them (or covered the puts of a page that also
    /// holds tombstones).
    pub partial_page_drops: u64,
    /// Pages whose fence overlapped the range, so they were read, but that
    /// held no matching put and were kept as they were: a fence miss.
    pub pages_read_unchanged: u64,
    /// Pages left unread and untouched.
    pub pages_untouched: u64,
    /// Entries removed from the file.
    pub entries_deleted: u64,
}

impl SecondaryDeleteStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &SecondaryDeleteStats) {
        self.full_page_drops += other.full_page_drops;
        self.partial_page_drops += other.partial_page_drops;
        self.pages_read_unchanged += other.pages_read_unchanged;
        self.pages_untouched += other.pages_untouched;
        self.entries_deleted += other.entries_deleted;
    }
}

impl SsTable {
    /// Builds a file from entries already sorted on the sort key (newest
    /// version per key only — the tree deduplicates before building) and a
    /// list of range tombstones, writing its pages to `backend`: the entries
    /// are woven a tile at a time and written through one table writer, the
    /// same two steps a job's execute splits across two threads.
    ///
    /// `oldest_tombstone_ts` is the insertion time of the oldest tombstone
    /// among the inputs that ended up in this file; the caller (flush or
    /// compaction) tracks it.
    pub fn build(
        id: u64,
        entries: Vec<Entry>,
        range_tombstones: Vec<Entry>,
        created_at: Timestamp,
        oldest_tombstone_ts: Option<Timestamp>,
        config: &LsmConfig,
        backend: &dyn StorageBackend,
    ) -> Result<SsTable> {
        debug_assert!(entries.windows(2).all(|w| w[0].sort_key <= w[1].sort_key));
        let mut writer = TableWriter::new(backend, config);
        for tile in entries.chunks(config.entries_per_tile().max(1)) {
            writer.push_tile(&WovenTile::weave(tile, config.entries_per_page))?;
        }
        let table = writer.cut(id, range_tombstones, created_at, oldest_tombstone_ts);
        writer.finish();
        Ok(table)
    }

    /// Assembles a file around its finished tiles and range-tombstone block,
    /// deriving from them everything in [`SsTableMeta`] that they determine:
    /// the entry and tombstone counts, the data size, the sort-key range, the
    /// delete fence and the tile fence pointers.
    fn assemble(
        id: u64,
        tiles: Vec<DeleteTile>,
        range_tombstones: Vec<Entry>,
        created_at: Timestamp,
        oldest_tombstone_ts: Option<Timestamp>,
        max_seqnum: SeqNum,
    ) -> SsTable {
        let pages = || tiles.iter().flat_map(|t| t.pages.iter());
        // the file's key range covers both its point entries and the spans of
        // its range tombstones, so overlap-based file selection never misses
        // files whose range tombstones cover keys beyond their point entries
        // (lookups would skip such a file, and keys shadowed by those
        // tombstones would resurface from deeper levels)
        let min_sort = tiles
            .iter()
            .map(|t| t.min_sort)
            .chain(range_tombstones.iter().map(|t| t.sort_key))
            .min()
            .unwrap_or(0);
        let max_sort = tiles
            .iter()
            .map(|t| t.max_sort)
            .chain(range_tombstones.iter().filter_map(|t| t.range_end().map(|e| e.saturating_sub(1))))
            .max()
            .unwrap_or(0);
        let meta = SsTableMeta {
            id,
            num_entries: pages().map(|p| p.num_entries as u64).sum::<u64>()
                + range_tombstones.len() as u64,
            num_point_tombstones: pages().map(|p| p.num_tombstones as u64).sum(),
            num_range_tombstones: range_tombstones.len() as u64,
            data_bytes: pages().map(|p| p.data_bytes as u64).sum::<u64>()
                + range_tombstones.iter().map(|e| e.encoded_size() as u64).sum::<u64>(),
            min_sort,
            max_sort,
            delete_fence: pages().fold(DeleteFence::EMPTY, |f, p| f.union(p.delete_fence)),
            created_at,
            oldest_tombstone_ts,
            max_seqnum,
        };
        SsTable {
            meta,
            tile_fences: FencePointers::new(tiles.iter().map(|t| t.min_sort).collect()),
            tiles,
            fragments: TombstoneFragments::from_tombstones(&range_tombstones),
            range_tombstones,
            desc: std::sync::OnceLock::new(),
        }
    }

    /// Produces the durable description of this file for the manifest: page
    /// ids per tile (in layout order) plus the metadata that cannot be
    /// re-derived from page contents. Built once per (immutable) file and
    /// then shared, so repeated manifest commits cost an `Arc` clone.
    pub fn describe(&self) -> Arc<FileDesc> {
        Arc::clone(self.desc.get_or_init(|| {
            Arc::new(FileDesc {
                id: self.meta.id,
                created_at: self.meta.created_at,
                oldest_tombstone_ts: self.meta.oldest_tombstone_ts,
                max_seqnum: self.meta.max_seqnum,
                min_delete: self.meta.delete_fence.min,
                max_delete: self.meta.delete_fence.max,
                tiles: self
                    .tiles
                    .iter()
                    .map(|t| t.pages.iter().map(|p| p.id).collect())
                    .collect(),
                range_tombstones: self.range_tombstones.clone(),
            })
        }))
    }

    /// Rebuilds a file from its manifest description by reading its pages
    /// back from `backend`, re-deriving the Bloom filters, fence pointers,
    /// delete fences and min/max metadata that [`SsTable::describe`] left
    /// out. The inverse of `describe` up to those derived structures; the
    /// supplied descriptor is adopted as the rebuilt file's cached one, so
    /// post-recovery manifest commits recognise it by pointer identity.
    pub fn recover(
        desc: &Arc<FileDesc>,
        config: &LsmConfig,
        backend: &dyn StorageBackend,
    ) -> Result<SsTable> {
        let mut tiles = Vec::with_capacity(desc.tiles.len());
        for tile_pages in &desc.tiles {
            // one read per tile, whose pages one build wrote back to back;
            // recovery is the biggest bulk scan of all: re-deriving the
            // filters must not flush a shared cache's hot working set
            let mut read = Vec::with_capacity(tile_pages.len());
            backend.read_pages(tile_pages, true, &mut read).map_err(|e| match e {
                StorageError::PageNotFound(id) => StorageError::Corruption(format!(
                    "manifest references missing page {id} of file {}",
                    desc.id
                )),
                other => other,
            })?;
            let handles = tile_pages.iter().zip(&read);
            let pages =
                handles.map(|(&pid, page)| PageHandle::from_page(pid, page, config.bits_per_key));
            tiles.push(DeleteTile::from_pages(pages.collect()));
        }
        let mut table = SsTable::assemble(
            desc.id,
            tiles,
            desc.range_tombstones.clone(),
            desc.created_at,
            desc.oldest_tombstone_ts,
            desc.max_seqnum,
        );
        // the fence just derived from the pages is exact, and it is the one
        // kept in memory. The durable bounds need only contain it: an earlier
        // build's tombstone-inclusive bounds, also record version 2, are
        // wider and stay on disk until the file is next rewritten
        let durable = DeleteFence { min: desc.min_delete, max: desc.max_delete };
        debug_assert!(
            durable.contains(table.meta.delete_fence),
            "manifest delete-key bounds {durable:?} of file {} exclude its pages' {:?}",
            desc.id,
            table.meta.delete_fence
        );
        table.desc = std::sync::OnceLock::from(Arc::clone(desc));
        Ok(table)
    }

    /// Number of tombstones (point + range) in the file.
    pub fn tombstone_count(&self) -> u64 {
        self.meta.num_point_tombstones + self.meta.num_range_tombstones
    }

    /// `true` if the file contains at least one tombstone.
    pub fn has_tombstones(&self) -> bool {
        self.tombstone_count() > 0
    }

    /// Number of pages in the file.
    pub fn page_count(&self) -> usize {
        self.tiles.iter().map(|t| t.pages.len()).sum()
    }

    /// Tombstone age `a_max` of the file at logical time `now`
    /// (0 for files without tombstones, per the paper).
    pub fn tombstone_age(&self, now: Timestamp) -> u64 {
        match self.meta.oldest_tombstone_ts {
            Some(ts) => now.saturating_sub(ts),
            None => 0,
        }
    }

    /// `true` if the file's sort-key range may contain `key`.
    pub fn key_in_range(&self, key: SortKey) -> bool {
        self.meta.num_entries > 0 && key >= self.meta.min_sort && key <= self.meta.max_sort
    }

    /// `true` if the file's sort-key range overlaps `[lo, hi)`.
    pub fn overlaps_sort_range(&self, lo: SortKey, hi: SortKey) -> bool {
        self.meta.num_entries > 0 && lo <= self.meta.max_sort && hi > self.meta.min_sort
    }

    /// `true` if the file's sort-key range overlaps the other file's range.
    pub fn overlaps_table(&self, other: &SsTable) -> bool {
        self.meta.min_sort <= other.meta.max_sort && other.meta.min_sort <= self.meta.max_sort
    }

    /// In-memory footprint of the file's navigation metadata in bytes
    /// (Bloom filters + fence pointers + delete fences + the range-tombstone
    /// fragment index).
    pub fn memory_footprint(&self) -> usize {
        let blooms: usize = self.tiles.iter().flat_map(|t| t.pages.iter()).map(|p| p.bloom.size_bytes()).sum();
        let delete_fences = self.page_count() * std::mem::size_of::<DeleteFence>();
        blooms + delete_fences + self.tile_fences.size_bytes() + self.fragments.size_bytes()
    }

    /// The newest version of `key` stored in this file, if any. Consults the
    /// range-tombstone fragments; a covering range tombstone that is newer
    /// than the point entry is returned as a point tombstone.
    ///
    /// Bloom probes and page reads are charged to `stats`.
    pub fn get(
        &self,
        key: SortKey,
        backend: &dyn StorageBackend,
        stats: &IoStats,
    ) -> Result<Option<Entry>> {
        let mut found: Option<Entry> = None;
        if self.key_in_range(key) {
            if let Some(tile_idx) = self.tile_fences.locate(key) {
                let tile = &self.tiles[tile_idx];
                // probe the filter of every page in the tile (one hash each)
                stats.record_bloom_probes(tile.pages.len() as u64);
                for handle in &tile.pages {
                    if key < handle.min_sort || key > handle.max_sort {
                        continue;
                    }
                    if !handle.bloom.may_contain(key) {
                        continue;
                    }
                    let page = backend.read_page(handle.id)?;
                    if let Some(e) = page.get(key) {
                        found = Some(e);
                        break;
                    }
                    // false positive: fall through to the next page of the tile
                }
            }
        }
        // range tombstones can shadow the point entry (or apply on their own)
        Ok(Entry::resolve_point_read(key, found, self.fragments.newest_covering(key)))
    }

    /// Releases every page of the file (after the file was compacted away).
    /// Already-missing pages are no error.
    pub fn release_pages(&self, backend: &dyn StorageBackend) -> Result<()> {
        let ids = self.tiles.iter().flat_map(|tile| tile.pages.iter().map(|handle| handle.id));
        crate::reclaim::retire_pages(backend, ids).map(drop)
    }

    /// Executes a secondary range delete: removes every non-tombstone entry
    /// whose **delete key** lies in `[d_lo, d_hi)`.
    ///
    /// Pages fully covered by the range qualify for a *full page drop*
    /// (released without being read); every other page whose fence overlaps
    /// the range is read and filtered, and rewritten only if something
    /// matched (see [`PageHandle::coverage`]). Returns the surviving file (or
    /// `None` if nothing survived), drop statistics, and the ids of the pages
    /// the delete made obsolete. The pages are **not** released here: the
    /// caller retires them through the version set so that concurrently
    /// pinned snapshots (which may still reference the original file) stay
    /// readable until they are dropped.
    pub fn secondary_range_delete(
        &self,
        d_lo: DeleteKey,
        d_hi: DeleteKey,
        config: &LsmConfig,
        backend: &dyn StorageBackend,
        now: Timestamp,
    ) -> Result<(Option<SsTable>, SecondaryDeleteStats, Vec<PageId>)> {
        let mut stats = SecondaryDeleteStats::default();
        let mut obsolete_pages: Vec<PageId> = Vec::new();
        let mut new_tiles: Vec<DeleteTile> = Vec::with_capacity(self.tiles.len());
        // rewritten pages belong to nothing until the surviving file below
        // exists; a failed later read/write must not strand them on disk
        let mut reservation = PageReservation::new(backend);

        for tile in &self.tiles {
            let mut surviving: Vec<PageHandle> = Vec::with_capacity(tile.pages.len());
            for handle in &tile.pages {
                match handle.coverage(d_lo, d_hi) {
                    PageCoverage::None => {
                        stats.pages_untouched += 1;
                        surviving.push(handle.clone());
                    }
                    PageCoverage::Full => {
                        stats.entries_deleted += handle.num_entries as u64;
                        stats.full_page_drops += 1;
                        obsolete_pages.push(handle.id);
                    }
                    PageCoverage::Partial => {
                        // this page is rewritten (or dropped) right below, so
                        // do not let the read displace anything in the cache
                        let page = backend.read_page_nofill(handle.id)?;
                        let (deleted, kept) = page.drop_secondary_range(d_lo, d_hi);
                        stats.entries_deleted += deleted as u64;
                        if deleted == 0 {
                            stats.pages_read_unchanged += 1;
                            surviving.push(handle.clone());
                            continue;
                        }
                        obsolete_pages.push(handle.id);
                        if kept.is_empty() {
                            stats.full_page_drops += 1;
                        } else {
                            stats.partial_page_drops += 1;
                            let pid = reservation.write(&kept)?;
                            surviving.push(PageHandle::from_page(pid, &kept, config.bits_per_key));
                        }
                    }
                }
            }
            if !surviving.is_empty() {
                new_tiles.push(DeleteTile::from_pages(surviving));
            }
        }

        if new_tiles.is_empty() && self.range_tombstones.is_empty() {
            reservation.defuse();
            return Ok((None, stats, obsolete_pages));
        }

        let mut table = SsTable::assemble(
            self.meta.id,
            new_tiles,
            self.range_tombstones.clone(),
            now,
            self.meta.oldest_tombstone_ts,
            self.meta.max_seqnum,
        );
        if !table.has_tombstones() {
            table.meta.oldest_tombstone_ts = None;
        }
        reservation.defuse();
        Ok((Some(table), stats, obsolete_pages))
    }

    /// Returns every live entry whose **delete key** lies in `[d_lo, d_hi)` —
    /// a secondary range *lookup* (paper §4.2.5). Only pages whose delete
    /// fences overlap the range are read.
    pub fn secondary_range_scan(
        &self,
        d_lo: DeleteKey,
        d_hi: DeleteKey,
        backend: &dyn StorageBackend,
    ) -> Result<Vec<Entry>> {
        let mut out = Vec::new();
        for tile in &self.tiles {
            for handle in &tile.pages {
                if !handle.delete_fence.overlaps(d_lo, d_hi) {
                    continue;
                }
                let page = backend.read_page(handle.id)?;
                out.extend(page.secondary_range(d_lo, d_hi));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::tests::stored_entries;
    use bytes::Bytes;
    use lethe_storage::{FaultVfs, FileBackend, MemVfs, Vfs, SEGMENT_TARGET_BYTES};
    use proptest::prelude::*;
    use std::path::Path;

    fn config(h: usize) -> LsmConfig {
        let mut c = LsmConfig::small_for_test();
        c.pages_per_delete_tile = h;
        c.max_pages_per_file = h * 8;
        c
    }

    /// entries with sort key k and delete key (k*37 % 1000) to decorrelate
    fn entries(n: u64) -> Vec<Entry> {
        (0..n).map(|k| Entry::put(k, (k * 37) % 1000, k + 1, Bytes::from(vec![b'v'; 16]))).collect()
    }

    fn build(h: usize, n: u64) -> (SsTable, std::sync::Arc<FileBackend>) {
        let backend = Arc::new(FileBackend::in_memory().unwrap());
        let cfg = config(h);
        let t = SsTable::build(1, entries(n), vec![], 0, None, &cfg, backend.as_ref()).unwrap();
        (t, backend)
    }

    #[test]
    fn kiwi_layout_invariants() {
        let (t, backend) = build(4, 64);
        // tiles sorted on S and non-overlapping
        for w in t.tiles.windows(2) {
            assert!(w[0].max_sort < w[1].min_sort);
        }
        for tile in &t.tiles {
            // pages within a tile sorted on D
            for w in tile.pages.windows(2) {
                assert!(
                    w[0].delete_fence.max <= w[1].delete_fence.min,
                    "pages must be sorted on delete key"
                );
            }
            // entries within a page sorted on S
            for p in &tile.pages {
                let page = backend.read_page(p.id).unwrap();
                let keys: Vec<u64> = page.sort_keys().collect();
                let mut sorted = keys.clone();
                sorted.sort_unstable();
                assert_eq!(keys, sorted);
            }
        }
        assert_eq!(t.meta.num_entries, 64);
        assert_eq!(t.page_count(), 16);
        assert_eq!(t.tiles.len(), 4);
    }

    #[test]
    fn h_equal_one_is_classic_layout() {
        let (t, backend) = build(1, 32);
        assert_eq!(t.tiles.len(), t.page_count());
        // with one page per tile the file is globally sorted on S
        let mut all = Vec::new();
        for tile in &t.tiles {
            let page = backend.read_page(tile.pages[0].id).unwrap();
            all.extend(page.sort_keys());
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        assert_eq!(all, sorted);
    }

    #[test]
    fn get_finds_every_key_and_rejects_missing() {
        let (t, backend) = build(4, 100);
        let stats = IoStats::new_shared();
        for k in 0..100u64 {
            let e = t.get(k, backend.as_ref(), &stats).unwrap().unwrap();
            assert_eq!(e.sort_key, k);
            assert_eq!(e.delete_key, (k * 37) % 1000);
        }
        assert!(t.get(5000, backend.as_ref(), &stats).unwrap().is_none());
        // probing costs were charged
        assert!(stats.snapshot().bloom_probes > 0);
    }

    #[test]
    fn get_respects_range_tombstone_block() {
        let backend = Arc::new(FileBackend::in_memory().unwrap());
        let cfg = config(2);
        let rt = Entry::range_tombstone(10, 20, 1000);
        let t = SsTable::build(1, entries(30), vec![rt], 0, Some(5), &cfg, backend.as_ref()).unwrap();
        let stats = IoStats::new_shared();
        // key 15 was written with seqnum 16 < 1000 → shadowed by the range tombstone
        let e = t.get(15, backend.as_ref(), &stats).unwrap().unwrap();
        assert!(e.is_tombstone());
        // key 25 unaffected
        assert!(!t.get(25, backend.as_ref(), &stats).unwrap().unwrap().is_tombstone());
        // key 12 never written but covered → reported as tombstone
        assert_eq!(t.meta.num_range_tombstones, 1);
        assert!(t.has_tombstones());
        assert_eq!(t.tombstone_age(105), 100);
    }

    #[test]
    fn secondary_range_delete_uses_full_drops_on_uncorrelated_data() {
        // delete keys uniformly cover [0, 1000); delete 40% of that domain
        let (t, backend) = build(8, 512);
        let before_reads = backend.stats().snapshot().pages_read;
        let (survivor, stats, obsolete) =
            t.secondary_range_delete(0, 400, &config(8), backend.as_ref(), 1).unwrap();
        let survivor = survivor.expect("not everything deleted");
        // page drops are deferred: the caller releases the obsolete pages
        assert_eq!(obsolete.len() as u64, stats.full_page_drops + stats.partial_page_drops);
        #[expect(clippy::disallowed_methods, reason = "plays the version set's garbage pass")]
        for id in &obsolete {
            backend.drop_page(*id).unwrap();
        }
        assert!(stats.full_page_drops > 0, "expected some full page drops: {stats:?}");
        assert!(stats.entries_deleted > 150);
        // full drops do not read pages; only partial drops do
        let reads = backend.stats().snapshot().pages_read - before_reads;
        assert_eq!(reads, stats.partial_page_drops, "only partial drops should read pages");
        // surviving file has no entry with delete key in [0, 400)
        let remaining = stored_entries(Arc::new(survivor), backend);
        assert!(remaining.iter().all(|e| e.delete_key >= 400));
        assert_eq!(
            remaining.len() as u64 + stats.entries_deleted,
            512,
            "deleted + kept must cover all entries"
        );
    }

    #[test]
    fn secondary_range_delete_everything_returns_none() {
        let (t, backend) = build(4, 64);
        let (survivor, stats, obsolete) =
            t.secondary_range_delete(0, u64::MAX, &config(4), backend.as_ref(), 1).unwrap();
        assert!(survivor.is_none());
        assert_eq!(stats.entries_deleted, 64);
        #[expect(clippy::disallowed_methods, reason = "plays the version set's garbage pass")]
        for id in obsolete {
            backend.drop_page(id).unwrap();
        }
        assert_eq!(backend.live_pages(), 0);
    }

    #[test]
    fn secondary_range_delete_preserves_tombstones() {
        let backend = Arc::new(FileBackend::in_memory().unwrap());
        let cfg = config(2);
        let mut es = entries(16);
        es.push(Entry::point_tombstone(100, 200));
        es.sort_by_key(|e| e.sort_key);
        let t = SsTable::build(1, es, vec![], 0, Some(3), &cfg, backend.as_ref()).unwrap();
        let (survivor, _, _) =
            t.secondary_range_delete(0, u64::MAX, &cfg, backend.as_ref(), 1).unwrap();
        let survivor = survivor.expect("tombstone must survive");
        assert_eq!(survivor.meta.num_point_tombstones, 1);
        let all = stored_entries(Arc::new(survivor), backend);
        assert_eq!(all.len(), 1);
        assert!(all[0].is_point_tombstone());
    }

    /// Every third key a point tombstone, every put's delete key `>= 1000`.
    fn tombstones_and_late_puts(n: u64) -> Vec<Entry> {
        (0..n)
            .map(|k| match k % 3 {
                0 => Entry::point_tombstone(k, k + 1),
                _ => Entry::put(k, 1000 + (k * 37) % 1000, k + 1, Bytes::from(vec![b'v'; 16])),
            })
            .collect()
    }

    #[test]
    fn tombstones_do_not_widen_the_delete_fences() {
        let backend = Arc::new(FileBackend::in_memory().unwrap());
        let cfg = config(4);
        let entries = tombstones_and_late_puts(96);
        let put_keys = || entries.iter().filter(|e| !e.is_tombstone()).map(|e| e.delete_key);
        let put_bounds = put_keys().min().zip(put_keys().max());
        let t =
            SsTable::build(1, entries.clone(), vec![], 0, Some(1), &cfg, backend.as_ref()).unwrap();
        assert_eq!(t.meta.num_point_tombstones, 32);
        assert_eq!(t.meta.delete_fence.bounds(), put_bounds);
        let tombstone_only: Vec<&PageHandle> = t
            .tiles
            .iter()
            .flat_map(|tile| &tile.pages)
            .filter(|p| p.num_tombstones == p.num_entries)
            .collect();
        assert!(!tombstone_only.is_empty(), "the layout should hold pages of tombstones only");
        assert!(tombstone_only.iter().all(|p| p.delete_fence == DeleteFence::EMPTY));

        // a purge below every put's delete key reads nothing and deletes nothing
        let before = backend.stats().snapshot();
        let (survivor, stats, obsolete) =
            t.secondary_range_delete(0, 500, &cfg, backend.as_ref(), 1).unwrap();
        assert_eq!(backend.stats().snapshot().since(&before).pages_read, 0, "{stats:?}");
        assert_eq!(stats.entries_deleted, 0);
        assert_eq!(stats.pages_untouched, t.page_count() as u64);
        assert!(obsolete.is_empty());
        assert_eq!(survivor.expect("nothing was deleted").meta.num_entries, 96);

        let before = backend.stats().snapshot();
        assert!(t.secondary_range_scan(0, 500, backend.as_ref()).unwrap().is_empty());
        assert_eq!(backend.stats().snapshot().since(&before).pages_read, 0);
    }

    #[test]
    fn a_fully_covered_page_with_tombstones_is_read_and_keeps_them() {
        let backend = Arc::new(FileBackend::in_memory().unwrap());
        let cfg = config(4);
        let entries = tombstones_and_late_puts(96);
        let t = SsTable::build(1, entries, vec![], 0, Some(1), &cfg, backend.as_ref()).unwrap();
        let before = backend.stats().snapshot();
        let (survivor, stats, _) =
            t.secondary_range_delete(0, u64::MAX, &cfg, backend.as_ref(), 1).unwrap();
        let reads = backend.stats().snapshot().since(&before).pages_read;
        assert_eq!(stats.entries_deleted, 64);
        assert_eq!(reads, stats.partial_page_drops + stats.pages_read_unchanged, "{stats:?}");
        let survivor = survivor.expect("the tombstones survive");
        assert_eq!(survivor.meta.delete_fence, DeleteFence::EMPTY);
        let kept = stored_entries(Arc::new(survivor), backend);
        assert_eq!(kept.len(), 32);
        assert!(kept.iter().all(Entry::is_point_tombstone));
    }

    #[test]
    fn secondary_range_scan_filters_by_delete_key() {
        let (t, backend) = build(4, 200);
        let hits = t.secondary_range_scan(100, 200, backend.as_ref()).unwrap();
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|e| e.delete_key >= 100 && e.delete_key < 200));
        // every qualifying key is found
        let expected = (0..200u64).filter(|k| (k * 37) % 1000 >= 100 && (k * 37) % 1000 < 200).count();
        assert_eq!(hits.len(), expected);
    }

    #[test]
    fn overlap_and_range_predicates() {
        let (t, _) = build(2, 50);
        assert!(t.key_in_range(0));
        assert!(t.key_in_range(49));
        assert!(!t.key_in_range(50));
        assert!(t.overlaps_sort_range(40, 60));
        assert!(!t.overlaps_sort_range(50, 60));
        assert!(t.overlaps_sort_range(0, 1));
    }

    #[test]
    fn memory_footprint_grows_with_h_metadata() {
        let (t1, _) = build(1, 256);
        let (t8, _) = build(8, 256);
        // per-tile fence pointers shrink as h grows, delete fences stay per page
        assert!(t1.memory_footprint() > 0);
        assert!(t8.memory_footprint() > 0);
        assert!(t8.tile_fences.len() < t1.tile_fences.len());
    }

    #[test]
    fn describe_recover_roundtrip_rebuilds_identical_file() {
        let backend = Arc::new(FileBackend::in_memory().unwrap());
        let cfg = config(4);
        let mut es = entries(100);
        es.push(Entry::point_tombstone(200, 300));
        es.sort_by_key(|e| e.sort_key);
        let rt = Entry::range_tombstone(500, 520, 400);
        let t = SsTable::build(7, es, vec![rt], 42, Some(5), &cfg, backend.as_ref()).unwrap();

        let desc = t.describe();
        let back = SsTable::recover(&desc, &cfg, backend.as_ref()).unwrap();

        // metadata is fully reconstructed
        assert_eq!(back.meta.id, t.meta.id);
        assert_eq!(back.meta.num_entries, t.meta.num_entries);
        assert_eq!(back.meta.num_point_tombstones, t.meta.num_point_tombstones);
        assert_eq!(back.meta.num_range_tombstones, t.meta.num_range_tombstones);
        assert_eq!(back.meta.data_bytes, t.meta.data_bytes);
        assert_eq!(back.meta.min_sort, t.meta.min_sort);
        assert_eq!(back.meta.max_sort, t.meta.max_sort);
        assert_eq!(back.meta.delete_fence, t.meta.delete_fence);
        assert_eq!(back.meta.created_at, t.meta.created_at);
        assert_eq!(back.meta.oldest_tombstone_ts, t.meta.oldest_tombstone_ts);
        assert_eq!(back.meta.max_seqnum, t.meta.max_seqnum);
        assert_eq!(back.range_tombstones, t.range_tombstones);
        // the KiWi layout is preserved page for page
        assert_eq!(back.tiles.len(), t.tiles.len());
        for (a, b) in back.tiles.iter().zip(t.tiles.iter()) {
            let ids_a: Vec<_> = a.pages.iter().map(|p| p.id).collect();
            let ids_b: Vec<_> = b.pages.iter().map(|p| p.id).collect();
            assert_eq!(ids_a, ids_b);
        }
        // and the rebuilt file answers lookups identically
        let stats = IoStats::new_shared();
        for k in (0..100u64).chain([200, 505, 519, 9999]) {
            let a = t.get(k, backend.as_ref(), &stats).unwrap();
            let b = back.get(k, backend.as_ref(), &stats).unwrap();
            assert_eq!(a, b, "key {k}");
        }
        assert_eq!(
            stored_entries(Arc::new(back), backend.clone()),
            stored_entries(Arc::new(t), backend)
        );
    }

    #[test]
    fn recover_with_missing_page_is_corruption() {
        let (t, backend) = build(2, 32);
        let desc = t.describe();
        t.release_pages(backend.as_ref()).unwrap();
        let err = SsTable::recover(&desc, &config(2), backend.as_ref()).unwrap_err();
        assert!(matches!(err, lethe_storage::StorageError::Corruption(_)));
    }

    #[test]
    fn release_pages_frees_device() {
        let (t, backend) = build(2, 32);
        assert!(backend.live_pages() > 0);
        t.release_pages(backend.as_ref()).unwrap();
        assert_eq!(backend.live_pages(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The weave lays a tile out exactly as sorting a copy of it on the
        /// delete key (stably) and building `Page::new` of each chunk of `B`
        /// entries did: the same entries in the same pages, the same bytes.
        #[test]
        fn weave_matches_page_new_of_each_delete_key_chunk(
            keys in prop::collection::vec((1u64..4, 0u64..16, 0u8..8), 1..64),
            per_page in 1usize..9,
        ) {
            let mut key = 0;
            let tile: Vec<Entry> = keys
                .into_iter()
                .map(|(gap, dk, kind)| {
                    key += gap;
                    match kind {
                        0 => Entry::point_tombstone(key, key),
                        _ => Entry::put(key, dk, key, Bytes::from(vec![kind; kind as usize])),
                    }
                })
                .collect();
            let mut by_delete_key = tile.clone();
            by_delete_key.sort_by_key(|e| e.delete_key);
            let expected: Vec<Page> =
                by_delete_key.chunks(per_page).map(|chunk| Page::new(chunk.to_vec())).collect();
            let woven = WovenTile::weave(&tile, per_page);
            prop_assert_eq!(woven.pages, expected);
        }
    }

    /// A device on a fault-injecting file system over memory: a page write
    /// is one append, so `arm(n)` fails the write after the first `n`.
    fn faulty_device() -> (Arc<FaultVfs>, Arc<FileBackend>) {
        let vfs = FaultVfs::new(MemVfs::shared());
        let vfs_dyn = vfs.clone() as Arc<dyn Vfs>;
        let device = FileBackend::open_on(&vfs_dyn, Path::new("/"), "lethe", SEGMENT_TARGET_BYTES);
        (vfs, Arc::new(device.unwrap()))
    }

    #[test]
    fn a_failed_page_write_strands_no_page() {
        for fail_at in [0u64, 1, 5] {
            let (vfs, device) = faulty_device();
            vfs.arm(fail_at);
            let built = SsTable::build(1, entries(64), vec![], 0, None, &config(4), device.as_ref());
            assert!(matches!(built, Err(StorageError::Injected)), "fail_at {fail_at}");
            let io = device.stats().snapshot();
            assert_eq!((io.pages_written, io.pages_dropped), (fail_at, fail_at));
            assert_eq!(device.live_pages(), 0);

            // the secondary delete's rewrite of partially covered pages
            let (vfs, device) = faulty_device();
            let t = SsTable::build(1, entries(512), vec![], 0, None, &config(8), device.as_ref());
            let t = t.unwrap();
            let before = device.stats().snapshot();
            vfs.arm(fail_at);
            let deleted = t.secondary_range_delete(0, 400, &config(8), device.as_ref(), 1);
            assert!(matches!(deleted, Err(StorageError::Injected)), "fail_at {fail_at}");
            let io = device.stats().snapshot().since(&before);
            assert_eq!((io.pages_written, io.pages_dropped), (fail_at, fail_at));
            assert_eq!(device.live_pages(), t.page_count(), "the original file is untouched");
        }
    }
}
