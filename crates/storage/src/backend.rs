//! Storage devices.
//!
//! The engine is written against the [`StorageBackend`] trait, the page-level
//! device abstraction, and [`FileBackend`] is its device: pages are appended
//! as [`log`] frames (no file magic; the header extension is the tag `LEFX`
//! and the page id) to a sequence of segment files with an in-memory offset
//! index, and a segment is unlinked when its last live page is dropped, so
//! the bytes on disk follow the tree and not its history. The segments live
//! on a [`Vfs`]: on the host file system for a store opened in a directory,
//! in a [`MemVfs`](crate::vfs::MemVfs) for one built in memory, which the
//! evaluation harness uses. Either way every read, write and drop is charged
//! to an [`IoStats`] counter set; combined with
//! [`crate::iostats::CostModel`] this reproduces the paper's I/O-count and
//! latency figures deterministically.
//!
//! Full page drops (KiWi) map to [`StorageBackend::drop_page`]: the page is
//! released **without being read**, which is exactly the I/O saving the paper
//! claims for secondary range deletes.

use crate::barrier;
use crate::error::{Result, StorageError};
use crate::iostats::IoStats;
use crate::log::{self, be, Format, Kind, Sum};
use crate::page::Page;
use crate::vfs::{OsVfs, Vfs, VfsFile};
use bytes::Bytes;
use lethe_sync::{LockRank, Mutex, RwLock};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of a page on a device.
pub type PageId = u64;

/// A page-granular storage device.
pub trait StorageBackend: Send + Sync {
    /// Persists a page and returns its new id.
    fn write_page(&self, page: &Page) -> Result<PageId>;

    /// Reads a page back from the device. Pages are immutable once written,
    /// so the result is a shared handle: the block cache serves the same
    /// `Arc` to every reader instead of deep-copying the entries, and
    /// concurrent readers on the device use positional reads that never
    /// contend on a device lock.
    fn read_page(&self, id: PageId) -> Result<Arc<Page>>;

    /// Reads a page for a one-shot bulk scan (compaction inputs, secondary-
    /// delete rewrites): cache-backed devices serve hits but do **not**
    /// retain the page on a miss, so streaming a whole tree through a merge
    /// cannot evict the hot point-read working set (the pages read here are
    /// usually about to be retired anyway). Plain devices treat it as
    /// [`StorageBackend::read_page`].
    fn read_page_nofill(&self, id: PageId) -> Result<Arc<Page>> {
        self.read_page(id)
    }

    /// Reads the pages `ids`, in order, as [`StorageBackend::read_page`] (or,
    /// with `nofill`, [`StorageBackend::read_page_nofill`]) reads each one,
    /// and appends them to `pages`. An id that cannot be read fails the
    /// whole call, and `pages` may then hold some of the others. A device
    /// may batch the reads: [`FileBackend`] fetches each run of adjacent
    /// frames with one positional read, which is what a delete tile's pages,
    /// written back to back, are.
    fn read_pages(&self, ids: &[PageId], nofill: bool, pages: &mut Vec<Arc<Page>>) -> Result<()> {
        for &id in ids {
            pages.push(if nofill { self.read_page_nofill(id)? } else { self.read_page(id)? });
        }
        Ok(())
    }

    /// Releases a page without reading it (a KiWi *full page drop*).
    fn drop_page(&self, id: PageId) -> Result<()>;

    /// Shared I/O counters charged by this device.
    fn stats(&self) -> Arc<IoStats>;

    /// Number of live (written and not yet dropped) pages.
    fn live_pages(&self) -> usize;

    /// Ids of every live page. Used by crash recovery to release pages that
    /// the durable manifest no longer (or never did) reference.
    fn page_ids(&self) -> Vec<PageId>;

    /// Makes every page written so far durable, through a counted barrier.
    fn sync(&self) -> Result<()>;
}

/// A segment file's layout: no file magic, and page frames whose header
/// extension is a tag and the page id (see [`log`]). New frames are `LEFX`
/// and carry the low 32 bits of XXH64; `LEFR` frames, written before, carry
/// CRC-32.
pub(crate) const PAGES: Format = Format {
    magic: b"",
    ext_len: 12,
    kind: Kind { tag: b"LEFX", sum: Sum::Xxh64 },
    older: &[Kind { tag: b"LEFR", sum: Sum::Crc32 }],
    max_tail: u64::MAX,
};

/// Size of a page-frame header: tag, page id, payload length, payload sum.
const FRAME_HEADER: usize = PAGES.header_len();

/// The largest segment target, and the target of a device opened with no
/// store config ([`FileBackend::open_named`], [`FileBackend::in_memory`]).
/// A store derives its own, no larger (`LsmConfig::segment_target_bytes`):
/// a segment costs one directory barrier to create, so the roll is
/// amortised over the target's bytes, while a dead frame waits for the rest
/// of its segment to die before its bytes leave the disk.
pub const SEGMENT_TARGET_BYTES: u64 = 16 << 20;

/// The page id a segment's index frame is framed under; no page is ever
/// issued it.
const INDEX_ID: PageId = PageId::MAX;

/// A durable device: pages are appended as self-describing [`log`] frames
/// (`LEFX · page id · length · sum · payload`, where the sum is the low 32
/// bits of XXH64; frames written before it are `LEFR` with a CRC-32, and
/// still read) to a sequence of **append-only segment files**, and an
/// in-memory index maps each page id to its `(segment, offset, length)`. The
/// frames make the files their own recovery log, and a sealed segment ends
/// in an **index frame** that lists them (see *Open*). Dropped pages leave
/// dead frames behind, which a reopen resurfaces (the crash-recovery layer
/// drops again the ones its manifest does not reference); their bytes leave
/// the disk when their whole segment is dead.
///
/// **Open.** The open reads each sealed segment's index frame, not its
/// pages: its part of the page index follows from the frame. It scans, frame
/// by frame and checking every sum, only the newest segment (the one a crash
/// can tear) and any sealed segment whose index is missing, damaged or does
/// not cover exactly the file's bytes: a segment written before index frames
/// were, or one whose index a crash tore. A torn trailing frame of the
/// newest segment is found, and the first `write_page` cuts it away, so an
/// open that fails later (say, on a manifest naming a page no segment holds)
/// leaves every byte as it was. Reopen time therefore follows the live
/// bytes the layer above reads back, plus the newest segment, not every
/// byte on disk; rot in a dead frame of an indexed segment is never read.
///
/// **Reads.** Every read checks the page's frame header (tag, page id,
/// length) against the index. A read that does not fill a cache
/// ([`StorageBackend::read_page_nofill`], or `read_pages` with `nofill`: a
/// table's recovery, compaction inputs, partial page drops, checkpoints and
/// audits) also checks the payload against the header's sum, so the pages
/// an open rebuilds its tables from, and every page a job rewrites, are
/// verified where they are read. A get or a scan that fills the cache checks
/// the header only.
///
/// **Files.** Segment 0 is `<name>.data`, the only file an older store has;
/// a later segment is `<name>.data.<id>`, where `<id>` is the next unissued
/// page id at its creation. All are direct children of the store directory.
///
/// **Roll.** Pages go to the newest segment only. [`StorageBackend::sync`]
/// makes that file durable and *seals* it if it has reached the device's
/// target (given to [`FileBackend::open_on`]; a store sizes it to its write
/// buffer); the next `write_page` creates its successor. A segment is
/// therefore sealed only by the barrier that made all of it durable, and
/// only the newest file can hold a torn tail: a torn or invalid frame in
/// any older segment is corruption, unless it is the index frame itself,
/// which the open then scans past. The sealing `sync()` appends the index
/// frame before its barrier, so that barrier makes the index durable too.
/// It is an `LEFX` frame under the reserved page id `u64::MAX` (which a
/// scan skips) whose body lists every frame in file order, each as its page
/// id and payload length (about three bytes; see `index_frame`), and ends
/// in its own length, so the open finds it from the file's last four
/// bytes. Frames lie back to back from offset 0, so the lengths give the
/// offsets.
///
/// Only a device's own barrier seals: an open finds the newest segment
/// unsealed, whatever its size, since a kill may have struck before the
/// barrier that would have covered its last frames, or between its index
/// append and that append's barrier. If it ends in an index frame, the
/// first write cuts the frame away (behind a barrier, as every cut); either
/// way the segment takes pages until a `sync()` finds it at this device's
/// target and seals it behind its own barrier.
///
/// Creating a segment **needs a barrier**: the manifest edit that follows a
/// `sync()` may name a page in the new file, so the first `sync()` after
/// the creation also syncs the directory (one extra barrier per segment).
/// Segment 0 of a fresh store pays none of its own: the manifest's first
/// commit is a rewrite-and-rename that syncs the same directory.
///
/// **Unlink.** Every segment counts its live pages. When
/// [`StorageBackend::drop_page`] takes the count to zero and the segment is
/// not the newest file, it leaves the index and is unlinked: reclaiming
/// space copies nothing and writes no page. The unlink **needs no barrier**:
/// the engine drops a page only after the manifest edit that forgets it is
/// durable, so when a crash undoes the unlink the segment comes back holding
/// frames nothing references, recovery drops them one by one, and the last
/// drop unlinks it again. The newest file is never unlinked while it is the
/// newest (it is looked at once more when its successor is created). A page
/// a snapshot pins is not dropped, so it pins its segment.
///
/// **Page ids are never reused**, across reopens and crashes: the next id is
/// the larger of *largest surviving frame id + 1* and *the newest segment's
/// name*. The name covers a dead segment whose successor lost its first
/// frames to a crash: without it the dead ids would be issued again, and a
/// resurfaced copy of the dead segment would claim pages it does not hold.
/// A page id framed in two places is corruption.
///
/// Concurrency: writes (append + index insert) serialise behind the
/// `appender` mutex, but reads never touch it: a read resolves the
/// `(segment, offset, len)` of every page it asks for under one shared index
/// lock, then issues one *positional* read (`pread`) per run of adjacent
/// frames on the segment's own handle with no lock held, so N reader threads
/// proceed fully in parallel on hits and misses alike. The read lands in one
/// allocation that the run's pages then share as windows, with no second
/// copy; it starts at the first frame's header, so every page's header comes
/// with it. A reader that resolved a page just before its segment was
/// unlinked still reads the right bytes: a [`Vfs`] handle reads on after an
/// unlink. All paths read the handle the index pinned, never reopen by path.
#[derive(Debug)]
pub struct FileBackend {
    vfs: Arc<dyn Vfs>,
    /// `dir/<name>.data`: segment 0's path and the stem of every other's.
    base: PathBuf,
    appender: Mutex<Appender>,
    index: RwLock<Index>,
    next_id: AtomicU64,
    /// Size at which a `sync()` seals the newest segment.
    target: u64,
    stats: Arc<IoStats>,
    torn_frames_recovered: u64,
    segments_scanned: u64,
}

/// One segment file, shared by the segment list and every page entry in it.
#[derive(Debug)]
struct Segment {
    id: u64,
    /// Handle for positional reads, and for appends while the segment is
    /// the newest.
    file: Arc<dyn VfsFile>,
    /// Pages written here and not yet dropped. Raised under the appender
    /// lock (only the newest segment grows), lowered under the index write
    /// lock, where the zero that unlinks the file is also observed.
    live: AtomicU64,
}

/// Where a page's payload lies: its segment, offset and length.
type Location = (Arc<Segment>, u64, u32);

/// The page id and payload length of each page frame of a segment, in file
/// order: what its index frame lists.
type Frames = Vec<(PageId, u32)>;

/// The page index and the segment list, guarded by one lock.
#[derive(Debug, Default)]
struct Index {
    /// Page id → where its payload lies.
    pages: HashMap<PageId, Location>,
    /// Every segment on disk, oldest first; the last one takes the appends.
    segments: Vec<Arc<Segment>>,
}

/// Append state of the newest segment.
#[derive(Debug)]
struct Appender {
    segment: Arc<Segment>,
    /// End of the last good frame. The handle appends at end-of-file whatever
    /// this says, so a file longer than this must be cut back first.
    end: u64,
    /// The file may hold bytes behind `end`: set when the segment is opened
    /// (a torn tail the scan found) and after a failed append (whose partial
    /// frame the immediate cut may not have removed). The next `write_page`
    /// checks the length and cuts the tail only while this is set, before
    /// anything else; otherwise this device is the file's only writer and
    /// every append it made landed at `end`.
    tail_unchecked: bool,
    /// The last `sync()` found the segment at its target: the next write
    /// creates its successor.
    sealed: bool,
    /// The file was created since the last `sync()`: its directory entry is
    /// not durable yet.
    unsynced_entry: bool,
    /// The segment's page frames, which the seal's index frame lists.
    frames: Frames,
}

/// Path of segment `id` of the store whose segment 0 is `base`.
fn segment_path(base: &Path, id: u64) -> PathBuf {
    if id == 0 {
        return base.to_path_buf();
    }
    let mut path = base.as_os_str().to_owned();
    path.push(format!(".{id}"));
    path.into()
}

/// The segment id `file_name` stands for, if it is a segment of the store
/// whose segment 0 is called `base_name`. Other suffixes (`.tmp`, a
/// non-canonical number) are not segments.
fn segment_id(base_name: &str, file_name: &str) -> Option<u64> {
    let suffix = file_name.strip_prefix(base_name)?;
    if suffix.is_empty() {
        return Some(0);
    }
    let id: u64 = suffix.strip_prefix('.')?.parse().ok()?;
    (id > 0 && suffix[1..] == id.to_string()).then_some(id)
}

/// Appends `n` to `out` as a LEB128 varint: seven bits a byte, low first.
fn put_varint(out: &mut Vec<u8>, mut n: u64) {
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

/// Takes the LEB128 varint `bytes` start with off them; `None` if it runs
/// past their end or past ten bytes.
fn take_varint(bytes: &mut &[u8]) -> Option<u64> {
    let mut n = 0;
    for shift in (0..64).step_by(7) {
        let (&byte, rest) = bytes.split_first()?;
        *bytes = rest;
        n |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            return Some(n);
        }
    }
    None
}

/// The index frame of a segment whose page frames are `frames`, in file
/// order: for each, its page id less the one before's (ids ascend in a
/// segment, so this is one byte) and its payload length, both LEB128
/// varints; then the body's own length (u32 BE).
fn index_frame(frames: &[(PageId, u32)]) -> Vec<u8> {
    let mut body = Vec::with_capacity(frames.len() * 3 + 4);
    let mut last = 0;
    for &(id, len) in frames {
        put_varint(&mut body, id.wrapping_sub(last));
        put_varint(&mut body, u64::from(len));
        last = id;
    }
    let len = body.len() as u32 + 4;
    body.extend_from_slice(&len.to_be_bytes());
    log::frame(&PAGES, &INDEX_ID.to_be_bytes(), &body)
}

/// Whether `header`, a frame header, is an index frame's.
fn is_index_header(header: &[u8]) -> bool {
    header.len() >= PAGES.ext_len
        && header[..4] == *PAGES.kind.tag
        && header[4..PAGES.ext_len] == INDEX_ID.to_be_bytes()
}

/// The frames the index frame that ends `file` lists, with two positional
/// reads (its trailing length, then the frame), or `None` unless the file
/// ends in an intact index frame whose frames cover exactly the bytes
/// before it.
fn read_index(file: &dyn VfsFile) -> Result<Option<Frames>> {
    let len = file.len()?;
    if len < (FRAME_HEADER + 4) as u64 {
        return Ok(None);
    }
    let mut trailer = [0u8; 4];
    file.read_at(&mut trailer, len - 4)?;
    let body_len = be(&trailer);
    let Some(start) = len.checked_sub(FRAME_HEADER as u64 + body_len) else { return Ok(None) };
    if body_len < 4 {
        return Ok(None);
    }
    let mut frame = vec![0u8; (len - start) as usize];
    file.read_at(&mut frame, start)?;
    let (header, body) = frame.split_at(FRAME_HEADER);
    let ext = PAGES.ext_len;
    if !is_index_header(header)
        || be(&header[ext..ext + 4]) != body_len
        || be(&header[ext + 4..]) != u64::from(PAGES.kind.sum.of(body))
    {
        return Ok(None);
    }
    let (mut entries, mut frames, mut id) = (&body[..body.len() - 4], Frames::new(), 0u64);
    while !entries.is_empty() {
        let (Some(delta), Some(len)) = (take_varint(&mut entries), take_varint(&mut entries))
        else {
            return Ok(None);
        };
        let Ok(len) = u32::try_from(len) else { return Ok(None) };
        id = id.wrapping_add(delta);
        frames.push((id, len));
    }
    let covered: u64 = frames.iter().map(|&(_, len)| FRAME_HEADER as u64 + u64::from(len)).sum();
    let named = frames.iter().all(|&(id, _)| id != INDEX_ID);
    Ok((covered == start && named).then_some(frames))
}

impl Index {
    /// Indexes `page` at `offset` (its frame's start) of `segment`.
    fn insert(&mut self, segment: &Arc<Segment>, page: PageId, offset: u64, len: u32) -> Result<()> {
        let at = (Arc::clone(segment), offset + FRAME_HEADER as u64, len);
        if self.pages.insert(page, at).is_some() {
            return Err(StorageError::Corruption(format!("page {page} is framed twice")));
        }
        segment.live.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Indexes sealed segment `id` from `frames`, the list its index frame
    /// holds, reading no page.
    fn adopt(&mut self, id: u64, file: Arc<dyn VfsFile>, frames: &[(PageId, u32)]) -> Result<()> {
        let segment = Arc::new(Segment { id, file, live: AtomicU64::new(0) });
        let mut offset = 0;
        for &(page, len) in frames {
            self.insert(&segment, page, offset, len)?;
            offset += FRAME_HEADER as u64 + u64::from(len);
        }
        self.segments.push(segment);
        Ok(())
    }

    /// Scans segment `id` at `path` under the common [`log`](crate::log)
    /// rule, indexing its page frames and skipping an index frame, and
    /// returns it with the end of its last good frame, its page frames in
    /// file order, and the offset of that last good frame if it is an index
    /// frame. A torn tail ends the scan short of end-of-file; only the
    /// `newest` segment may have one (its first write cuts it), since a
    /// sealed segment is never appended to again. A sealed segment's bad
    /// tail is let be only when it is an index frame: the frames before it
    /// are whole, and no read goes past them.
    fn scan(
        &mut self,
        id: u64,
        file: Arc<dyn VfsFile>,
        path: &Path,
        newest: bool,
    ) -> Result<(Arc<Segment>, u64, Frames, Option<u64>)> {
        let segment = Arc::new(Segment { id, file, live: AtomicU64::new(0) });
        let (mut frames, mut index_at) = (Vec::new(), None);
        let end = log::scan(segment.file.as_ref(), path, &PAGES, |off, fields, payload| {
            let page = be(fields);
            index_at = (page == INDEX_ID).then_some(off);
            if index_at.is_some() {
                return Ok(());
            }
            frames.push((page, payload.len() as u32));
            self.insert(&segment, page, off, payload.len() as u32)
        })?;
        let len = segment.file.len()?;
        if !newest && end < len {
            let mut header = [0u8; FRAME_HEADER];
            let read = header.len().min((len - end) as usize);
            segment.file.read_at(&mut header[..read], end)?;
            if !is_index_header(&header[..read]) {
                return Err(StorageError::Corruption(format!(
                    "data file {path:?}: torn frame at offset {end} of a sealed segment (only \
                     the newest segment is ever appended to, so this is not a torn tail)"
                )));
            }
        }
        self.segments.push(Arc::clone(&segment));
        Ok((segment, end, frames, index_at))
    }

    /// Page `id` with where it lies.
    fn locate(&self, id: PageId) -> Result<(PageId, Location)> {
        self.pages.get(&id).map(|at| (id, at.clone())).ok_or(StorageError::PageNotFound(id))
    }

    /// Takes `segment` off the segment list if no live page is left in it and
    /// it is not the newest file; the caller then unlinks it.
    fn remove_if_dead(&mut self, segment: &Segment) -> bool {
        let dead = segment.live.load(Ordering::Relaxed) == 0
            && self.segments.last().is_some_and(|newest| newest.id != segment.id);
        if dead {
            self.segments.retain(|s| s.id != segment.id);
        }
        dead
    }
}

impl FileBackend {
    /// [`FileBackend::open_on`] the host file system, with the largest
    /// target, [`SEGMENT_TARGET_BYTES`].
    pub fn open_named(dir: impl AsRef<Path>, name: &str) -> Result<Self> {
        Self::open_on(&OsVfs::shared(), dir.as_ref(), name, SEGMENT_TARGET_BYTES)
    }

    /// A device of its own on a fresh [`MemVfs`](crate::vfs::MemVfs), with
    /// the largest target, for tests and tools that need pages but no tree.
    pub fn in_memory() -> Result<Self> {
        Self::open_on(&crate::vfs::MemVfs::shared(), Path::new("/"), "lethe", SEGMENT_TARGET_BYTES)
    }

    /// Opens (or creates) a *namespaced* device rooted at `dir` on `vfs`:
    /// its segments are `dir/<name>.data` and `dir/<name>.data.<id>`. Several
    /// namespaced devices can share one directory, which is how the sharded
    /// front-end keeps the per-shard data files (`shard-000.data`,
    /// `shard-001.data`, …) of one logical store together. A `sync()` seals
    /// the newest segment once it holds `target` bytes; the target may
    /// differ from the one the segments were written under.
    ///
    /// Each sealed segment's part of the page index is rebuilt from its
    /// index frame, read with two positional reads and no page read. The
    /// newest segment is scanned frame by frame, every sum checked, and so
    /// is a sealed segment whose index is missing, damaged, or does not
    /// cover exactly the file's bytes ([`FileBackend::segments_scanned`]
    /// counts both). A torn trailing frame of the newest segment is counted
    /// in [`FileBackend::torn_frames_recovered`] and cut away by the first
    /// [`StorageBackend::write_page`]. The open itself writes nothing to an
    /// existing segment, and reads no payload of an indexed one: those are
    /// checked when a read that does not fill a cache reaches them.
    pub fn open_on(vfs: &Arc<dyn Vfs>, dir: &Path, name: &str, target: u64) -> Result<Self> {
        vfs.create_dir_all(dir)?;
        let base_name = format!("{name}.data");
        let base = dir.join(&base_name);
        let mut ids: Vec<u64> =
            vfs.list(dir)?.iter().filter_map(|f| segment_id(&base_name, f)).collect();
        ids.sort_unstable();
        // the newest segment takes the appends; a fresh store starts at 0
        let newest = ids.pop().unwrap_or(0);
        let mut index = Index::default();
        let mut segments_scanned = 1;
        for id in ids {
            let path = segment_path(&base, id);
            let file = vfs.open(&path, false)?;
            match read_index(file.as_ref())? {
                Some(frames) => index.adopt(id, file, &frames)?,
                None => {
                    index.scan(id, file, &path, false)?;
                    segments_scanned += 1;
                }
            }
        }
        let path = segment_path(&base, newest);
        let (segment, end, frames, index_at) =
            index.scan(newest, vfs.open(&path, true)?, &path, true)?;
        let torn_frames_recovered = u64::from(end < segment.file.len()?);
        let next_id = index.pages.keys().max().map_or(1, |max| max + 1).max(newest);
        // the segment starts unsealed: its index, if it ends in one, is a
        // tail the first write cuts
        let end = index_at.unwrap_or(end);
        let (sealed, unsynced_entry, tail_unchecked) = (false, false, true);
        let appender = Appender { segment, end, sealed, unsynced_entry, tail_unchecked, frames };
        Ok(FileBackend {
            vfs: Arc::clone(vfs),
            base,
            appender: Mutex::new(LockRank::BackendFile, appender),
            index: RwLock::new(LockRank::BackendIndex, index),
            next_id: AtomicU64::new(next_id),
            target,
            stats: IoStats::new_shared(),
            torn_frames_recovered,
            segments_scanned,
        })
    }

    /// Number of torn trailing frames the open found, which the first write
    /// cuts away (0 after a clean shutdown, typically 1 after a crash).
    pub fn torn_frames_recovered(&self) -> u64 {
        self.torn_frames_recovered
    }

    /// Number of segments the open scanned frame by frame: the newest, plus
    /// every sealed segment it could not index from its index frame.
    pub fn segments_scanned(&self) -> u64 {
        self.segments_scanned
    }

    /// Creates the successor of the sealed newest segment and points the
    /// appender at it. The name cannot collide: it is above every page id
    /// issued, hence above every existing segment's name.
    fn roll(&self, app: &mut Appender) -> Result<()> {
        let id = self.next_id.load(Ordering::Relaxed);
        let file = self.vfs.open(&segment_path(&self.base, id), true)?;
        let segment = Arc::new(Segment { id, file, live: AtomicU64::new(0) });
        let successor = Appender {
            segment: Arc::clone(&segment),
            end: 0,
            sealed: false,
            unsynced_entry: true,
            tail_unchecked: false,
            frames: Vec::new(),
        };
        let old = std::mem::replace(app, successor).segment;
        let old_died = {
            let mut index = self.index.write();
            index.segments.push(segment);
            // every page of the old segment may have been dropped while it
            // was the newest file and could not be unlinked
            index.remove_if_dead(&old)
        };
        if old_died {
            self.unlink(&old)?;
        }
        Ok(())
    }

    /// Reads a run of pages whose frames lie back to back in one segment
    /// with one positional read, from the first frame's header to the last
    /// payload's end, into an allocation the pages then share, and hands each
    /// page to `each`, in order. Every frame's header comes with the read and
    /// must name the page and length the index does; with `verify`, each
    /// payload must also match its header's sum.
    fn read_run(
        &self,
        run: &[(PageId, Location)],
        verify: bool,
        mut each: impl FnMut(Arc<Page>),
    ) -> Result<()> {
        let [(_, (segment, first, _)), ..] = run else { return Ok(()) };
        let start = first - FRAME_HEADER as u64;
        let end = run.last().map_or(*first, |(_, (_, offset, len))| offset + u64::from(*len));
        let mut buf: Arc<[u8]> = std::iter::repeat_n(0, (end - start) as usize).collect();
        #[expect(clippy::expect_used, reason = "a freshly collected `Arc` has no other handle")]
        let dst = Arc::get_mut(&mut buf).expect("fresh allocation");
        segment.file.read_at(dst, start)?;
        let buf = Bytes::from(buf);
        for &(id, (_, offset, len)) in run {
            let from = (offset - start) as usize;
            let header = &buf[from - FRAME_HEADER..from];
            let payload = buf.slice(from..from + len as usize);
            let ext = PAGES.ext_len;
            let kind = PAGES
                .kind_of(header)
                .filter(|kind| header[kind.tag.len()..ext] == id.to_be_bytes())
                .filter(|_| be(&header[ext..ext + 4]) == u64::from(len));
            let frame_at = offset - FRAME_HEADER as u64;
            let Some(kind) = kind else {
                return Err(StorageError::Corruption(format!(
                    "segment {}: the frame at offset {frame_at} is not page {id} of {len} bytes",
                    segment.id
                )));
            };
            if verify && be(&header[ext + 4..]) != u64::from(kind.sum.of(&payload)) {
                return Err(StorageError::Corruption(format!(
                    "segment {}: page {id}, the frame at offset {frame_at}, fails its checksum",
                    segment.id
                )));
            }
            self.stats.record_read(u64::from(len));
            each(Arc::new(Page::decode(payload)?));
        }
        Ok(())
    }

    /// Page `id`, read alone; with `verify`, its payload is checked too.
    fn read_one(&self, id: PageId, verify: bool) -> Result<Arc<Page>> {
        let at = self.index.read().locate(id)?;
        let mut page = None;
        self.read_run(&[at], verify, |read| page = Some(read))?;
        page.ok_or(StorageError::PageNotFound(id))
    }

    /// Cuts away whatever may lie behind the newest segment's last good
    /// frame (a torn tail the open found, or the partial frame of a failed
    /// append) if it may hold any: the handle appends at end-of-file, and a
    /// frame must land at `end`.
    fn cut_tail(&self, app: &mut Appender) -> Result<()> {
        if app.tail_unchecked {
            log::cut_tail(app.segment.file.as_ref(), app.end, &self.stats.fsyncs)?;
            app.tail_unchecked = false;
        }
        Ok(())
    }

    /// Appends `frame` at the newest segment's `end`, once [`Self::cut_tail`]
    /// has run, and returns where it landed. A failed append is cut back,
    /// and its tail checked again before the next one.
    fn append(&self, app: &mut Appender, frame: &[u8]) -> Result<u64> {
        if let Err(e) = app.segment.file.append(frame) {
            let _ = app.segment.file.set_len(app.end);
            app.tail_unchecked = true;
            return Err(e.into());
        }
        let at = app.end;
        app.end += frame.len() as u64;
        Ok(at)
    }

    /// Unlinks a segment that has left the index, with no barrier (see the
    /// type's docs for why none is needed).
    fn unlink(&self, segment: &Segment) -> Result<()> {
        let bytes = segment.file.len()?;
        self.vfs.remove(&segment_path(&self.base, segment.id))?;
        self.stats.bytes_reclaimed.fetch_add(bytes, Ordering::Relaxed);
        Ok(())
    }
}

impl StorageBackend for FileBackend {
    fn write_page(&self, page: &Page) -> Result<PageId> {
        let encoded = page.encode();
        let len = encoded.len() as u32;
        let mut app = self.appender.lock();
        // a sealed segment's torn tail is cut before the roll, which would
        // seal it into a segment whose tail no open may cut
        self.cut_tail(&mut app)?;
        if app.sealed {
            self.roll(&mut app)?;
        }
        // ids are issued under the appender lock, so every id in a segment
        // is at or above the segment's name and below its successor's
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let offset = self.append(&mut app, &log::frame(&PAGES, &id.to_be_bytes(), &encoded))?;
        app.frames.push((id, len));
        let at = (Arc::clone(&app.segment), offset + FRAME_HEADER as u64, len);
        app.segment.live.fetch_add(1, Ordering::Relaxed);
        self.index.write().pages.insert(id, at);
        self.stats.record_write(u64::from(len));
        Ok(id)
    }

    fn read_page(&self, id: PageId) -> Result<Arc<Page>> {
        self.read_one(id, false)
    }

    fn read_page_nofill(&self, id: PageId) -> Result<Arc<Page>> {
        self.read_one(id, true)
    }

    fn read_pages(&self, ids: &[PageId], nofill: bool, pages: &mut Vec<Arc<Page>>) -> Result<()> {
        // resolve every page under one brief (shared) index read lock, then
        // do the actual I/O with no lock at all: `pread` needs no seek and no
        // cursor, so concurrent readers never serialise behind each other or
        // behind the writer
        let located = {
            let index = self.index.read();
            ids.iter().map(|&id| index.locate(id)).collect::<Result<Vec<_>>>()?
        };
        let adjacent = |(_, (a, offset, len)): &(PageId, Location), (_, (b, next, _)): &_| {
            Arc::ptr_eq(a, b) && *next == offset + u64::from(*len) + FRAME_HEADER as u64
        };
        for run in located.chunk_by(adjacent) {
            self.read_run(run, nofill, |page| pages.push(page))?;
        }
        Ok(())
    }

    fn drop_page(&self, id: PageId) -> Result<()> {
        let (segment, died) = {
            let mut index = self.index.write();
            let (segment, ..) = index.pages.remove(&id).ok_or(StorageError::PageNotFound(id))?;
            segment.live.fetch_sub(1, Ordering::Relaxed);
            let died = index.remove_if_dead(&segment);
            (segment, died)
        };
        self.stats.record_drop();
        if died {
            self.unlink(&segment)?;
        }
        Ok(())
    }

    fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    fn live_pages(&self) -> usize {
        self.index.read().pages.len()
    }

    fn page_ids(&self) -> Vec<PageId> {
        self.index.read().pages.keys().copied().collect()
    }

    fn sync(&self) -> Result<()> {
        let mut app = self.appender.lock();
        // the barrier that seals a full segment also makes its index frame
        // durable, so the index goes in first
        let pages_end = app.end;
        if !app.sealed && app.end >= self.target {
            self.cut_tail(&mut app)?;
            let index = index_frame(&app.frames);
            self.append(&mut app, &index)?;
        }
        if let Err(e) = barrier::sync_all_counted(app.segment.file.as_ref(), &self.stats.fsyncs) {
            // an index frame whose barrier failed is debris, which the next
            // write cuts; the next sync appends the index again
            if app.end > pages_end {
                app.end = pages_end;
                app.tail_unchecked = true;
            }
            return Err(e);
        }
        // sealed before the directory barrier: a segment that ends in its
        // index takes no more pages, and the successor's first sync syncs
        // the same directory if this one fails
        app.sealed = app.end >= self.target;
        if app.unsynced_entry {
            barrier::fsync_dir_counted(self.vfs.as_ref(), &self.base, &self.stats.fsyncs)?;
            app.unsynced_entry = false;
        }
        Ok(())
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "the devices' own tests drive them directly")]
pub(crate) mod tests {
    use super::*;
    use crate::entry::Entry;
    use bytes::Bytes;
    use proptest::prelude::*;
    use std::fs::OpenOptions;
    use std::io::Write;

    fn page(keys: &[u64]) -> Page {
        Page::new(keys.iter().map(|&k| Entry::put(k, k, k, Bytes::from(vec![0u8; 8]))).collect())
    }

    /// The tests' segment target: three 6 KiB pages fill a segment.
    const TARGET: u64 = 16 << 10;

    impl FileBackend {
        /// Path of the segment being appended to (the newest file).
        fn data_path(&self) -> PathBuf {
            segment_path(&self.base, self.appender.lock().segment.id)
        }

        /// Bytes currently occupied by the segment files, including the
        /// dead frames of dropped pages in segments that still hold a live
        /// one.
        fn file_size(&self) -> Result<u64> {
            let index = self.index.read();
            index.segments.iter().try_fold(0, |sum, s| Ok(sum + s.file.len()?))
        }

        /// Number of segment files on disk.
        fn segment_count(&self) -> usize {
            self.index.read().segments.len()
        }
    }

    /// The device `lethe` in `dir` on `vfs`, at the tests' target.
    fn device(vfs: &Arc<dyn Vfs>, dir: &Path) -> Result<FileBackend> {
        FileBackend::open_on(vfs, dir, "lethe", TARGET)
    }

    /// The device `lethe` in `dir` on the host file system.
    fn open(dir: &Path) -> Result<FileBackend> {
        device(&OsVfs::shared(), dir)
    }

    #[test]
    fn a_drop_is_not_a_read_and_ids_increase() {
        let b = FileBackend::in_memory().unwrap();
        let a = b.write_page(&page(&[1, 2, 3])).unwrap();
        let c = b.write_page(&page(&[4])).unwrap();
        assert!(c > a);
        assert_eq!(b.read_page(a).unwrap().len(), 3);
        b.drop_page(c).unwrap();
        let s = b.stats().snapshot();
        assert_eq!((s.pages_written, s.pages_read, s.pages_dropped), (2, 1, 1));
        assert_eq!(b.live_pages(), 1);
        assert!(matches!(b.read_page(c), Err(StorageError::PageNotFound(_))));
        assert!(matches!(b.drop_page(c), Err(StorageError::PageNotFound(_))));
        assert_eq!(b.stats().snapshot().pages_dropped, 1, "a failed drop counts nothing");
    }

    #[test]
    fn file_backend_roundtrip() {
        let dir = std::env::temp_dir().join(format!("lethe-fb-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let b = open(&dir).unwrap();
        let id1 = b.write_page(&page(&[1, 2, 3])).unwrap();
        let id2 = b.write_page(&page(&[4, 5])).unwrap();
        assert_eq!(b.read_page(id1).unwrap().len(), 3);
        assert_eq!(b.read_page(id2).unwrap().len(), 2);
        assert_eq!(b.live_pages(), 2);
        b.sync().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_reopen_recovers_index() {
        let dir = std::env::temp_dir().join(format!("lethe-fb3-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (id1, id2, id3);
        {
            let b = open(&dir).unwrap();
            id1 = b.write_page(&page(&[1, 2, 3])).unwrap();
            id2 = b.write_page(&page(&[4, 5])).unwrap();
            id3 = b.write_page(&page(&[6])).unwrap();
            b.drop_page(id2).unwrap();
            b.sync().unwrap();
        }
        let b = open(&dir).unwrap();
        assert_eq!(b.torn_frames_recovered(), 0);
        assert_eq!(b.read_page(id1).unwrap().len(), 3);
        assert_eq!(b.read_page(id3).unwrap().len(), 1);
        // a dropped page resurfaces after a crash (drops are in-memory until
        // the file is compacted); the recovery layer above releases it once
        // it knows the page is unreferenced
        assert_eq!(b.read_page(id2).unwrap().len(), 2);
        // ids keep growing across the restart: no reuse, no collisions
        let id4 = b.write_page(&page(&[7])).unwrap();
        assert!(id4 > id3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A fresh, empty directory for one test.
    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lethe-fb-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A page of one entry with a `kib` KiB value: a page is `B` entries of
    /// any size, so a few of these cross [`TARGET`].
    fn big_page(key: u64, kib: usize) -> Page {
        Page::new(vec![Entry::put(key, key, key, Bytes::from(vec![key as u8; kib << 10]))])
    }

    /// Writes `pages` big pages of 6 KiB and syncs: three of them seal the
    /// segment they land in.
    fn write_big(b: &FileBackend, first_key: u64, pages: u64) -> Vec<PageId> {
        let keys = first_key..first_key + pages;
        let ids = keys.map(|k| b.write_page(&big_page(k, 6)).unwrap()).collect();
        b.sync().unwrap();
        ids
    }

    /// Ids of the segment files of store `lethe` in `dir`, ascending.
    fn segments_on_disk(dir: &Path) -> Vec<u64> {
        let names = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().file_name());
        let mut ids: Vec<u64> =
            names.filter_map(|n| segment_id("lethe.data", n.to_str().unwrap())).collect();
        ids.sort_unstable();
        ids
    }

    /// Appends the first half of a frame to `path` from outside the backend,
    /// as a crash mid-write would leave it.
    fn append_half_a_frame(path: &Path) {
        let frame = log::frame(&PAGES, &77u64.to_be_bytes(), &page(&[9]).encode());
        let mut f = OpenOptions::new().append(true).open(path).unwrap();
        f.write_all(&frame[..frame.len() / 2]).unwrap();
    }

    #[test]
    fn file_backend_truncates_torn_tail_on_reopen() {
        let dir = fresh_dir("torn");
        let id1;
        {
            let b = open(&dir).unwrap();
            id1 = b.write_page(&page(&[1, 2, 3])).unwrap();
            b.sync().unwrap();
            append_half_a_frame(&b.data_path());
        }
        let b = open(&dir).unwrap();
        assert_eq!(b.torn_frames_recovered(), 1);
        assert_eq!(b.live_pages(), 1);
        assert_eq!(b.read_page(id1).unwrap().len(), 3);
        // the torn bytes are gone: writing and reopening is clean
        let id2 = b.write_page(&page(&[4])).unwrap();
        b.sync().unwrap();
        drop(b);
        let b2 = open(&dir).unwrap();
        assert_eq!(b2.torn_frames_recovered(), 0);
        assert_eq!(b2.read_page(id2).unwrap().len(), 1);

        // with a sealed segment behind it the newest file is still the only
        // one a crash can tear: the same debris in the older one is an error
        write_big(&b2, 10, 3);
        let id3 = b2.write_page(&page(&[5])).unwrap();
        b2.sync().unwrap();
        let (sealed, newest) = (dir.join("lethe.data"), b2.data_path());
        assert_ne!(sealed, newest);
        drop(b2);
        let sealed_len = std::fs::metadata(&sealed).unwrap().len();
        append_half_a_frame(&sealed);
        match open(&dir) {
            Err(StorageError::Corruption(msg)) => assert!(msg.contains("sealed segment"), "{msg}"),
            other => panic!("expected corruption error, got {other:?}"),
        }
        assert!(std::fs::metadata(&sealed).unwrap().len() > sealed_len, "a failed open cuts nothing");
        OpenOptions::new().write(true).open(&sealed).unwrap().set_len(sealed_len).unwrap();
        append_half_a_frame(&newest);
        let b3 = open(&dir).unwrap();
        assert_eq!(b3.torn_frames_recovered(), 1);
        assert_eq!(b3.read_page(id3).unwrap().len(), 1);
        assert_eq!(b3.read_page(id1).unwrap().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_open_seals_nothing_and_the_next_sync_seals_again() {
        let dir = fresh_dir("sealtorn");
        let b = open(&dir).unwrap();
        write_big(&b, 0, 3);
        let path = b.data_path();
        drop(b);
        append_half_a_frame(&path);
        // the open finds the index and a torn tail behind it, and seals
        // nothing: the first write cuts both away, behind one barrier, and
        // lands in the segment
        let b = open(&dir).unwrap();
        assert_eq!(b.torn_frames_recovered(), 1);
        let fresh = b.write_page(&page(&[1])).unwrap();
        assert_eq!((segments_on_disk(&dir), b.stats().snapshot().fsyncs), (vec![0], 1));
        // the sync seals it again, so the next write rolls
        b.sync().unwrap();
        let rolled = b.write_page(&page(&[2])).unwrap();
        b.sync().unwrap();
        assert_eq!(segments_on_disk(&dir), [0, rolled]);
        drop(b);
        let b = open(&dir).expect("the segment was sealed without its torn tail");
        assert_eq!((b.torn_frames_recovered(), b.segments_scanned(), b.live_pages()), (0, 1, 5));
        assert_eq!(*b.read_page(fresh).unwrap(), page(&[1]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A kill between a seal's index append and its barrier leaves an index
    /// no barrier made durable. The open seals nothing, so no roll leaves
    /// the segment behind before a barrier of the new process covers it.
    #[test]
    fn an_index_no_barrier_covered_is_not_a_seal() {
        let mem = crate::vfs::MemVfs::new();
        let fault = crate::vfs::FaultVfs::new(mem.clone());
        let vfs: Arc<dyn Vfs> = fault.clone();
        let dir = Path::new("/unsealed");
        let b = device(&vfs, dir).unwrap();
        let mut ids: Vec<PageId> = (0..3).map(|k| b.write_page(&big_page(k, 6)).unwrap()).collect();
        fault.arm(1);
        assert!(b.sync().is_err());
        assert_eq!(fault.last_fired().unwrap().to_string(), "segment.sync_all");
        drop(b);
        let b = device(&vfs, dir).unwrap();
        ids.push(b.write_page(&page(&[1])).unwrap());
        b.sync().unwrap();
        ids.push(b.write_page(&page(&[2])).unwrap());
        b.sync().unwrap();
        assert_eq!(b.segment_count(), 2);
        drop(b);
        // a power loss keeps only what barriers made durable
        mem.crash(&mut |_| 0);
        let b = device(&vfs, dir).unwrap();
        assert_eq!((b.segments_scanned(), b.page_ids().len()), (1, ids.len()));
        assert_eq!(*b.read_page(ids[1]).unwrap(), big_page(1, 6));
    }

    /// The frame of page 1 holding `page(&[1, 2])`, as the commit before the
    /// common log rule wrote it.
    const PARENT_SEGMENT_HEX: &str = "\
        4c454652000000000000000100000052914f6ed84c45504700000002000000000000000100000000\
        00000001000000000000000100000000080000000000000000000000000000000200000000000000\
        02000000000000000200000000080000000000000000";

    /// The same page as a `LEFX` frame, as a device writes it now: the tag
    /// and the sum (the low 32 bits of the payload's XXH64) differ.
    const LEFX_SEGMENT_HEX: &str = "\
        4c454658000000000000000100000052e768dd414c45504700000002000000000000000100000000\
        00000001000000000000000100000000080000000000000000000000000000000200000000000000\
        02000000000000000200000000080000000000000000";

    #[test]
    fn segments_written_before_this_change_still_open() {
        let bytes = crate::log::tests::hex(PARENT_SEGMENT_HEX);
        let dir = fresh_dir("parent");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("lethe.data"), &bytes).unwrap();
        let b = open(&dir).unwrap();
        assert_eq!((b.page_ids(), b.torn_frames_recovered()), (vec![1], 0));
        assert_eq!(*b.read_page(1).unwrap(), page(&[1, 2]));
        // the segment takes new frames behind the old ones, and reopens
        // with every page readable, one at a time and as one run
        let id = b.write_page(&page(&[3, 4])).unwrap();
        b.sync().unwrap();
        drop(b);
        let mixed = std::fs::read(dir.join("lethe.data")).unwrap();
        assert_eq!((&mixed[..bytes.len()], &mixed[bytes.len()..][..4]), (&bytes[..], &b"LEFX"[..]));
        let b = open(&dir).unwrap();
        assert_eq!(b.torn_frames_recovered(), 0);
        assert_eq!(*b.read_page(1).unwrap(), page(&[1, 2]));
        assert_eq!(*b.read_page(id).unwrap(), page(&[3, 4]));
        let both = batch(&b, &[1, id], false).unwrap();
        assert_eq!((&*both[0], &*both[1]), (&page(&[1, 2]), &page(&[3, 4])));
        drop(b);
        // and a fresh device writes the pinned `LEFX` frame for the first page
        let dir = fresh_dir("parent");
        let b = open(&dir).unwrap();
        assert_eq!(b.write_page(&page(&[1, 2])).unwrap(), 1);
        assert_eq!(std::fs::read(b.data_path()).unwrap(), crate::log::tests::hex(LEFX_SEGMENT_HEX));
        drop(b);
        assert_eq!(*open(&dir).unwrap().read_page(1).unwrap(), page(&[1, 2]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_mid_file_corruption_is_an_error_not_a_truncation() {
        let dir = fresh_dir("midfile");
        let path;
        {
            let b = open(&dir).unwrap();
            b.write_page(&page(&[1, 2])).unwrap();
            b.write_page(&page(&[3])).unwrap();
            b.write_page(&page(&[4, 5, 6])).unwrap();
            b.sync().unwrap();
            path = b.data_path();
        }
        // flip one payload byte of the FIRST frame: committed frames follow,
        // so this cannot be a torn tail
        let good = std::fs::read(&path).unwrap();
        let mut data = good.clone();
        data[FRAME_HEADER + 2] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        match open(&dir) {
            Err(StorageError::Corruption(msg)) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("expected corruption error, got {other:?}"),
        }
        // the failed open must not have destroyed the later valid frames
        assert_eq!(std::fs::read(&path).unwrap(), data);

        // a damaged LAST frame is a torn tail in the newest segment only: once
        // a successor exists, the same damage is an error, never a truncation
        let mut torn = good.clone();
        *torn.last_mut().unwrap() ^= 0xFF;
        std::fs::write(&path, &torn).unwrap();
        assert_eq!(open(&dir).unwrap().torn_frames_recovered(), 1);
        std::fs::write(&path, &good).unwrap();
        std::fs::write(dir.join("lethe.data.4"), b"").unwrap();
        assert_eq!(open(&dir).unwrap().live_pages(), 3);
        std::fs::write(&path, &torn).unwrap();
        match open(&dir) {
            Err(StorageError::Corruption(msg)) => assert!(msg.contains("sealed segment"), "{msg}"),
            other => panic!("expected corruption error, got {other:?}"),
        }
        assert_eq!(std::fs::read(&path).unwrap(), torn);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A file system over memory whose armed file fails its next append
    /// part-way, after writing half the bytes, and then the cut that
    /// would take them back: what a `write_all` that failed part-way on a
    /// device that then refused the truncation leaves behind.
    #[derive(Debug)]
    struct TornVfs {
        inner: Arc<dyn Vfs>,
        armed: Arc<std::sync::atomic::AtomicBool>,
    }

    #[derive(Debug)]
    struct TornFile {
        inner: Arc<dyn VfsFile>,
        armed: Arc<std::sync::atomic::AtomicBool>,
    }

    impl Vfs for TornVfs {
        fn open(&self, path: &Path, create: bool) -> std::io::Result<Arc<dyn VfsFile>> {
            let inner = self.inner.open(path, create)?;
            Ok(Arc::new(TornFile { inner, armed: Arc::clone(&self.armed) }))
        }
        fn remove(&self, path: &Path) -> std::io::Result<()> {
            self.inner.remove(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            self.inner.rename(from, to)
        }
        fn list(&self, dir: &Path) -> std::io::Result<Vec<String>> {
            self.inner.list(dir)
        }
        fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
            self.inner.create_dir_all(dir)
        }
        fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
            self.inner.sync_dir(dir)
        }
    }

    impl VfsFile for TornFile {
        fn read_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
            self.inner.read_at(buf, offset)
        }
        fn append(&self, bytes: &[u8]) -> std::io::Result<()> {
            if self.armed.load(Ordering::SeqCst) {
                self.inner.append(&bytes[..bytes.len() / 2])?;
                return Err(std::io::Error::other("torn append"));
            }
            self.inner.append(bytes)
        }
        fn len(&self) -> std::io::Result<u64> {
            self.inner.len()
        }
        fn set_len(&self, len: u64) -> std::io::Result<()> {
            if self.armed.swap(false, Ordering::SeqCst) {
                return Err(std::io::Error::other("refused cut"));
            }
            self.inner.set_len(len)
        }
        fn sync_data(&self) -> std::io::Result<()> {
            self.inner.sync_data()
        }
        fn sync_all(&self) -> std::io::Result<()> {
            self.inner.sync_all()
        }
    }

    #[test]
    fn debris_behind_the_last_frame_is_cut_before_the_next_append() {
        let armed = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let vfs: Arc<dyn Vfs> =
            Arc::new(TornVfs { inner: crate::vfs::MemVfs::shared(), armed: Arc::clone(&armed) });
        let dir = Path::new("/debris");
        let b = device(&vfs, dir).unwrap();
        let a = b.write_page(&page(&[1, 2, 3])).unwrap();
        let good_end = vfs.open(&b.data_path(), false).unwrap().len().unwrap();
        armed.store(true, Ordering::SeqCst);
        assert!(b.write_page(&page(&[9])).is_err());
        let debris = vfs.open(&b.data_path(), false).unwrap().len().unwrap();
        assert!(debris > good_end, "the failed append left half a frame behind");
        let c = b.write_page(&page(&[4, 5])).unwrap();
        b.sync().unwrap();
        assert_eq!(b.read_page(c).unwrap().len(), 2);
        drop(b);
        let b = device(&vfs, dir).expect("the debris must not reach the next open");
        assert_eq!(b.torn_frames_recovered(), 0);
        assert_eq!(b.page_ids().len(), 2);
        assert_eq!(b.read_page(a).unwrap().len(), 3);
        assert_eq!(b.read_page(c).unwrap().len(), 2);
    }

    #[test]
    fn a_failed_append_then_a_good_one_leaves_one_intact_frame() {
        let vfs = crate::vfs::FaultVfs::new(crate::vfs::MemVfs::shared());
        let dyn_vfs: Arc<dyn Vfs> = vfs.clone();
        let dir = Path::new("/failed");
        let b = device(&dyn_vfs, dir).unwrap();
        let file = || dyn_vfs.open(&b.data_path(), false).unwrap();
        let a = b.write_page(&page(&[1, 2, 3])).unwrap();
        let after_a = file().len().unwrap();
        vfs.arm(0);
        assert!(matches!(b.write_page(&page(&[9])), Err(StorageError::Injected)));
        assert_eq!(file().len().unwrap(), after_a, "the failed append left nothing");
        let c = b.write_page(&page(&[4, 5])).unwrap();
        let frame = log::frame(&PAGES, &c.to_be_bytes(), &page(&[4, 5]).encode());
        assert_eq!(file().len().unwrap(), after_a + frame.len() as u64, "one frame more");
        let mut tail = vec![0u8; frame.len()];
        file().read_at(&mut tail, after_a).unwrap();
        assert_eq!(tail, frame.to_vec(), "the good append is one intact frame at the old end");
        b.sync().unwrap();
        drop(b);
        let b = device(&dyn_vfs, dir).unwrap();
        assert_eq!(b.torn_frames_recovered(), 0);
        let mut ids = b.page_ids();
        ids.sort_unstable();
        assert_eq!(ids, [a, c], "the failed write's id names no frame");
        assert_eq!(b.read_page(c).unwrap().len(), 2);
    }

    #[test]
    fn segment_rolls_only_at_a_sync() {
        let dir = fresh_dir("roll");
        let b = open(&dir).unwrap();
        let barriers = || b.stats().snapshot().fsyncs;
        for k in 0..5 {
            b.write_page(&big_page(k, 8)).unwrap();
        }
        assert_eq!(segments_on_disk(&dir), [0], "40 KiB with no sync() is one file");
        b.sync().unwrap();
        assert_eq!(barriers(), 1);
        assert_eq!(b.segment_count(), 1, "the sync seals; only the next write rolls");
        let first = b.write_page(&page(&[1])).unwrap();
        assert_eq!(segments_on_disk(&dir), [0, first], "named by the next unissued page id");
        assert_eq!(b.data_path(), dir.join(format!("lethe.data.{first}")));
        b.sync().unwrap();
        assert_eq!(barriers(), 3, "the file and, once, its directory entry");
        b.write_page(&page(&[2])).unwrap();
        b.sync().unwrap();
        assert_eq!(barriers(), 4, "every later sync is the file alone");
        assert_eq!(b.segment_count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_last_drop_unlinks_a_sealed_segment() {
        let dir = fresh_dir("unlink");
        let b = open(&dir).unwrap();
        let oldest = write_big(&b, 0, 3);
        let middle = write_big(&b, 10, 3);
        let newest = b.write_page(&page(&[1, 2])).unwrap();
        b.sync().unwrap();
        assert_eq!(segments_on_disk(&dir), [0, middle[0], newest]);
        let middle_path = segment_path(&dir.join("lethe.data"), middle[0]);
        let middle_len = std::fs::metadata(&middle_path).unwrap().len();
        let size_before = b.file_size().unwrap();

        b.drop_page(middle[0]).unwrap();
        b.drop_page(middle[1]).unwrap();
        assert!(middle_path.exists(), "one live page keeps the whole segment");
        assert_eq!(b.stats().snapshot().bytes_reclaimed, 0);
        b.drop_page(middle[2]).unwrap();
        assert!(!middle_path.exists(), "dropped pages really leave the disk");
        assert_eq!(b.file_size().unwrap(), size_before - middle_len);
        assert_eq!(b.stats().snapshot().bytes_reclaimed, middle_len);
        assert_eq!(b.stats().snapshot().pages_written, 7, "reclaiming wrote no page");
        let live: Vec<PageId> = oldest.iter().copied().chain([newest]).collect();
        let check = |b: &FileBackend| {
            let mut ids = b.page_ids();
            ids.sort_unstable();
            assert_eq!(ids, live);
            for (k, &id) in oldest.iter().enumerate() {
                assert_eq!(*b.read_page(id).unwrap(), big_page(k as u64, 6));
            }
            assert_eq!(b.read_page(newest).unwrap().len(), 2);
            assert_eq!(segments_on_disk(&dir), [0, newest]);
        };
        check(&b);
        drop(b);
        // survivors stay readable across a reopen, which sees the same live set
        let b = open(&dir).unwrap();
        check(&b);

        // the newest file is never unlinked, even with no live page in it
        b.drop_page(newest).unwrap();
        assert_eq!(segments_on_disk(&dir), [0, newest]);
        assert_eq!(b.stats().snapshot().bytes_reclaimed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn page_ids_survive_the_death_of_the_newest_frames() {
        let dir = fresh_dir("ids");
        let b = open(&dir).unwrap();
        let kept = write_big(&b, 0, 3);
        let doomed = write_big(&b, 10, 3);
        // all of segment 1 dies while it is the newest file; its successor's
        // creation unlinks it, and a crash tears the successor's only frame
        for &id in &doomed {
            b.drop_page(id).unwrap();
        }
        assert_eq!(segments_on_disk(&dir), [0, doomed[0]]);
        let torn = b.write_page(&page(&[1])).unwrap();
        assert_eq!(segments_on_disk(&dir), [0, torn], "the dead predecessor went at the roll");
        let path = b.data_path();
        drop(b);
        OpenOptions::new().write(true).open(&path).unwrap().set_len(FRAME_HEADER as u64 + 3).unwrap();

        let b = open(&dir).unwrap();
        assert_eq!(b.torn_frames_recovered(), 1);
        assert_eq!(b.live_pages(), kept.len(), "no frame above segment 0's survives");
        let next = b.write_page(&page(&[2])).unwrap();
        assert!(next > doomed[2], "page {next} re-issues an id of the dead segment {doomed:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "a raw rename puts back a file a crash would have kept, as no engine path may"
    )]
    fn a_resurfaced_segment_is_indexed_and_unlinked_again() {
        let dir = fresh_dir("resurface");
        let b = open(&dir).unwrap();
        let kept = write_big(&b, 0, 3);
        let dead = write_big(&b, 10, 3);
        let newest = b.write_page(&page(&[1])).unwrap();
        b.sync().unwrap();
        // a crash that undoes an unlink: the file is back at the next open
        let path = segment_path(&dir.join("lethe.data"), dead[0]);
        let aside = dir.join("aside");
        std::fs::copy(&path, &aside).unwrap();
        for &id in &dead {
            b.drop_page(id).unwrap();
        }
        assert!(!path.exists());
        drop(b);
        std::fs::rename(&aside, &path).unwrap();

        let b = open(&dir).unwrap();
        assert_eq!(b.live_pages(), 7, "the resurfaced frames are indexed");
        assert_eq!(*b.read_page(dead[1]).unwrap(), big_page(11, 6));
        // recovery drops what its manifest does not reference, one by one
        for &id in &dead {
            b.drop_page(id).unwrap();
        }
        assert_eq!(segments_on_disk(&dir), [0, newest], "and the last drop unlinks it again");
        let mut ids = b.page_ids();
        ids.sort_unstable();
        assert_eq!(ids, kept.iter().copied().chain([newest]).collect::<Vec<_>>());
        assert_eq!(*b.read_page(kept[2]).unwrap(), big_page(2, 6));
        assert!(b.write_page(&page(&[2])).unwrap() > newest);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_single_legacy_file_opens_as_segment_zero_and_dies_with_its_last_page() {
        let dir = fresh_dir("legacy");
        let legacy = dir.join("lethe.data");
        let (small, fat);
        {
            // what the single-file backend left: one file above the target
            // (never rolled, because nothing synced it) with dead frames in it
            let b = open(&dir).unwrap();
            small = b.write_page(&page(&[1, 2, 3])).unwrap();
            fat = (0..3).map(|k| b.write_page(&big_page(k, 6)).unwrap()).collect::<Vec<_>>();
            assert_eq!(segments_on_disk(&dir), [0]);
        }
        let b = open(&dir).unwrap();
        assert_eq!((b.segment_count(), b.live_pages()), (1, 4));
        for &id in &fat[..2] {
            b.drop_page(id).unwrap(); // recovery's unreferenced-page pass
        }
        // with no index frame it is not sealed: it takes pages until a sync
        // seals it behind its barrier
        let late = b.write_page(&page(&[4])).unwrap();
        assert_eq!(segments_on_disk(&dir), [0], "a write lands in it");
        b.sync().unwrap();
        let moved = b.write_page(b.read_page(small).unwrap().as_ref()).unwrap();
        assert_eq!(segments_on_disk(&dir), [0, moved], "sealed: new writes go to a new segment");
        b.sync().unwrap();
        b.drop_page(small).unwrap();
        b.drop_page(late).unwrap();
        assert!(legacy.exists());
        b.drop_page(fat[2]).unwrap();
        assert!(!legacy.exists(), "the old file goes when its last live page is rewritten");
        assert_eq!(b.read_page(moved).unwrap().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn readers_are_undisturbed_by_segment_deaths() {
        let dir = fresh_dir("churn");
        let b = open(&dir).unwrap();
        let pinned: Vec<(PageId, Page)> = (0..8u64)
            .map(|k| {
                let p = page(&[k, k + 100]);
                (b.write_page(&p).unwrap(), p)
            })
            .collect();
        let done = std::sync::atomic::AtomicBool::new(false);
        let start = std::sync::Barrier::new(5);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (b, pinned, done, start) = (&b, &pinned, &done, &start);
                s.spawn(move || {
                    start.wait();
                    let mut reads = 0usize;
                    while !done.load(Ordering::SeqCst) || reads < 64 {
                        let (id, expected) = &pinned[(reads + t) % pinned.len()];
                        assert_eq!(&*b.read_page(*id).unwrap(), expected);
                        reads += 1;
                    }
                });
            }
            start.wait();
            // each round seals a segment and kills the one before it; the
            // pinned pages keep segment 0 alive throughout
            let mut previous: Vec<PageId> = Vec::new();
            for round in 0..6 {
                let ids = write_big(&b, 10 * (round + 1), 3);
                for id in std::mem::replace(&mut previous, ids) {
                    b.drop_page(id).unwrap();
                }
            }
            done.store(true, Ordering::SeqCst);
        });
        let reclaimed = b.stats().snapshot().bytes_reclaimed;
        assert!(reclaimed >= 4 * TARGET, "only {reclaimed} B reclaimed");
        assert_eq!(b.live_pages(), pinned.len() + 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Reads `ids` one `read_page` at a time, with the pages and bytes it
    /// charged.
    fn read_one_by_one(b: &FileBackend, ids: &[PageId]) -> (Vec<Arc<Page>>, (u64, u64)) {
        let before = b.stats().snapshot();
        let pages = ids.iter().map(|&id| b.read_page(id).unwrap()).collect();
        let charged = b.stats().snapshot().since(&before);
        (pages, (charged.pages_read, charged.bytes_read))
    }

    /// The pages `read_pages` reads for `ids`.
    pub(crate) fn batch(
        b: &dyn StorageBackend,
        ids: &[PageId],
        nofill: bool,
    ) -> Result<Vec<Arc<Page>>> {
        let mut pages = Vec::new();
        b.read_pages(ids, nofill, &mut pages).map(|()| pages)
    }

    /// `read_pages` of `ids`, with the pages and bytes it charged.
    fn read_batched(b: &FileBackend, ids: &[PageId]) -> (Vec<Arc<Page>>, (u64, u64)) {
        let before = b.stats().snapshot();
        let pages = batch(b, ids, false).unwrap();
        let charged = b.stats().snapshot().since(&before);
        (pages, (charged.pages_read, charged.bytes_read))
    }

    #[test]
    fn a_run_of_adjacent_pages_is_one_read_and_a_failed_read_fails_the_batch() {
        let vfs = crate::vfs::FaultVfs::new(crate::vfs::MemVfs::shared());
        let dyn_vfs: Arc<dyn Vfs> = vfs.clone();
        let b = device(&dyn_vfs, Path::new("/batch")).unwrap();
        let ids: Vec<PageId> = (0..6u64).map(|k| b.write_page(&page(&[k])).unwrap()).collect();
        // pages 0, 1 and 2 are adjacent, then a gap, then 4 and 5: two runs
        let run = [ids[0], ids[1], ids[2], ids[4], ids[5]];
        assert_eq!(read_batched(&b, &run), read_one_by_one(&b, &run));
        // a run is one read: a fault armed for the second read misses it
        vfs.arm_read(1);
        assert_eq!(batch(&b, &ids[..3], false).unwrap().len(), 3);
        vfs.disarm();
        // the second run's read fails, and so does the whole batch
        vfs.arm_read(1);
        assert!(matches!(batch(&b, &run, false), Err(StorageError::Injected)));
        let fired = vfs.last_fired().map(|site| site.to_string());
        assert_eq!(fired.as_deref(), Some("segment.read_at"));
        assert_eq!(batch(&b, &run, false).unwrap().len(), 5, "the fault fired once");
    }

    #[test]
    fn every_page_read_checks_its_frame_header() {
        let vfs = crate::vfs::MemVfs::shared();
        let b = device(&vfs, Path::new("/headers")).unwrap();
        let ids: Vec<PageId> = (0..3u64).map(|k| b.write_page(&page(&[k])).unwrap()).collect();
        // the second frame now claims to be page 99
        let second = b.index.read().pages[&ids[1]].1 - FRAME_HEADER as u64;
        let file = vfs.open(&b.data_path(), false).unwrap();
        let mut bytes = vfs.read(&b.data_path()).unwrap();
        bytes[second as usize + 4..][..8].copy_from_slice(&99u64.to_be_bytes());
        file.set_len(0).unwrap();
        file.append(&bytes).unwrap();
        // alone, first in a run and inside one
        let alone = b.read_page(ids[1]).map(|p| vec![p]);
        for read in [alone, batch(&b, &ids[1..], false), batch(&b, &ids, false)] {
            match read {
                Err(StorageError::Corruption(msg)) => {
                    assert!(msg.contains(&format!("page {}", ids[1])), "{msg}")
                }
                other => panic!("expected corruption, got {other:?}"),
            }
        }
        assert_eq!(*b.read_page(ids[2]).unwrap(), page(&[2]), "the pages beside it still read");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

        /// A batch read returns what per-page reads return, in the order
        /// asked, and charges the same pages and bytes: over segment rolls,
        /// for runs of adjacent pages and for non-adjacent, unordered and
        /// repeated ids. A dropped id anywhere in a batch fails the whole
        /// batch, never shortens it.
        #[test]
        fn read_pages_agrees_with_read_page(
            sizes in prop::collection::vec(prop_oneof![3 => Just(0usize), 1 => 2usize..5], 4..16),
            window in (any::<usize>(), 1usize..12),
            picks in prop::collection::vec(any::<usize>(), 0..12),
            dropped in any::<usize>(),
        ) {
            let b = device(&crate::vfs::MemVfs::shared(), Path::new("/")).unwrap();
            // three big pages seal segment 0, so the later writes roll
            let mut ids = write_big(&b, 1_000, 3);
            for (n, &kib) in sizes.iter().enumerate() {
                let n = n as u64;
                let p = if kib == 0 { page(&[n, n + 100]) } else { big_page(n, kib) };
                ids.push(b.write_page(&p).unwrap());
                if kib > 0 {
                    b.sync().unwrap();
                }
            }
            prop_assert!(b.segment_count() > 1);
            let (start, len) = (window.0 % ids.len(), window.1);
            let mut asked: Vec<PageId> = ids[start..(start + len).min(ids.len())].to_vec();
            asked.extend(picks.iter().map(|&i| ids[i % ids.len()]));
            let (batched, charged) = read_batched(&b, &asked);
            let (expected, expected_charge) = read_one_by_one(&b, &asked);
            prop_assert_eq!(&batched, &expected);
            prop_assert_eq!(charged, expected_charge);

            let gone = ids[dropped % ids.len()];
            b.drop_page(gone).unwrap();
            let mut with_gone = asked.clone();
            with_gone.insert(dropped % (asked.len() + 1), gone);
            let result = batch(&b, &with_gone, false);
            prop_assert!(matches!(result, Err(StorageError::PageNotFound(id)) if id == gone));
        }
    }

    /// One step of a random device history.
    #[derive(Debug, Clone)]
    enum Step {
        /// Write a page with a value of this many KiB (0: a small page).
        Write(usize),
        /// Drop one of the three oldest live pages (old pages die first in an
        /// LSM tree, and it is what lets whole segments die in a short history).
        Drop(usize),
        Sync,
        Reopen,
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        prop_oneof![
            3 => Just(Step::Write(0)),
            6 => (3usize..7).prop_map(Step::Write),
            7 => any::<usize>().prop_map(Step::Drop),
            4 => Just(Step::Sync),
            1 => Just(Step::Reopen),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

        /// Random write / drop / sync / reopen histories against a map of
        /// the live pages: the device holds the same pages with the same
        /// bytes after every step, never keeps a dead sealed segment, never
        /// rewrites a page to reclaim space and never re-issues a page id.
        #[test]
        fn segments_agree_with_a_model(steps in prop::collection::vec(step_strategy(), 30..60)) {
            let dir = fresh_dir("model");
            let mut b = open(&dir).unwrap();
            let mut model: HashMap<PageId, Page> = HashMap::new();
            let (mut last_id, mut written) = (0, 0);
            for (n, step) in steps.iter().enumerate() {
                match *step {
                    Step::Write(kib) => {
                        let p = if kib == 0 { page(&[n as u64]) } else { big_page(n as u64, kib) };
                        let id = b.write_page(&p).unwrap();
                        prop_assert!(id > last_id, "page id {} issued after {}", id, last_id);
                        last_id = id;
                        written += 1;
                        model.insert(id, p);
                    }
                    Step::Drop(at) => {
                        let mut live: Vec<PageId> = model.keys().copied().collect();
                        live.sort_unstable();
                        if let Some(&id) = live.get(at % live.len().clamp(1, 3)) {
                            b.drop_page(id).unwrap();
                            model.remove(&id);
                        }
                    }
                    Step::Sync => b.sync().unwrap(),
                    Step::Reopen => {
                        let stats = b.stats().snapshot();
                        prop_assert_eq!(stats.pages_written, written, "reclaiming wrote a page");
                        written = 0;
                        drop(b);
                        b = open(&dir).unwrap();
                        // dead frames of surviving segments resurface; drop
                        // them as recovery drops what no manifest references
                        for id in b.page_ids() {
                            if !model.contains_key(&id) {
                                b.drop_page(id).unwrap();
                            }
                        }
                    }
                }
                let mut ids = b.page_ids();
                ids.sort_unstable();
                let mut expected: Vec<PageId> = model.keys().copied().collect();
                expected.sort_unstable();
                prop_assert_eq!(&ids, &expected, "live set after step {} ({:?})", n, step);
                for (id, p) in &model {
                    prop_assert_eq!(&*b.read_page(*id).unwrap(), p);
                }
                // ids are issued in file order, so a segment holds the ids from
                // its name up to its successor's: every file but the newest
                // must still hold a live one
                let on_disk = segments_on_disk(&dir);
                prop_assert_eq!(on_disk.len(), b.segment_count());
                for pair in on_disk.windows(2) {
                    prop_assert!(
                        expected.iter().any(|id| (pair[0]..pair[1]).contains(id)),
                        "dead segment {} on disk after step {} ({:?})", pair[0], n, step
                    );
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Page ids and pages of every live page of `b`, by id.
    fn contents(b: &FileBackend) -> Vec<(PageId, Page)> {
        let mut ids = b.page_ids();
        ids.sort_unstable();
        ids.into_iter().map(|id| (id, (*b.read_page(id).unwrap()).clone())).collect()
    }

    /// Replaces the bytes of the file at `path` on `vfs` with `bytes`.
    fn rewrite(vfs: &Arc<dyn Vfs>, path: &Path, bytes: &[u8]) {
        let file = vfs.open(path, false).unwrap();
        file.set_len(0).unwrap();
        file.append(bytes).unwrap();
    }

    /// The `n`-th segment of `b`, oldest first.
    fn nth_segment(b: &FileBackend, n: usize) -> Arc<Segment> {
        Arc::clone(&b.index.read().segments[n])
    }

    /// The frames of `segment` that `b` indexes, in file order.
    fn frames_of(b: &FileBackend, segment: &Arc<Segment>) -> Frames {
        let index = b.index.read();
        let mut frames: Vec<(u64, PageId, u32)> = (index.pages.iter())
            .filter(|(_, (at, ..))| Arc::ptr_eq(at, segment))
            .map(|(&id, &(_, offset, len))| (offset, id, len))
            .collect();
        frames.sort_unstable();
        frames.into_iter().map(|(_, id, len)| (id, len)).collect()
    }

    /// A page of one entry with a 4 000-byte value, about the engine's page
    /// size: five frames fill a segment.
    fn small_page(key: u64) -> Page {
        Page::new(vec![Entry::put(key, key, key, Bytes::from(vec![key as u8; 4000]))])
    }

    #[test]
    fn the_open_reads_each_sealed_segments_index_and_scans_the_newest() {
        let vfs = crate::vfs::FaultVfs::new(crate::vfs::MemVfs::shared());
        let dyn_vfs: Arc<dyn Vfs> = vfs.clone();
        let dir = Path::new("/open-reads");
        let b = device(&dyn_vfs, dir).unwrap();
        let mut model: HashMap<PageId, u64> = HashMap::new();
        let mut key = 0;
        while b.segment_count() < 3 {
            for _ in 0..5 {
                model.insert(b.write_page(&small_page(key)).unwrap(), key);
                key += 1;
            }
            b.sync().unwrap();
        }
        // every third page dies: its frame stays on disk, and no open reads it
        for id in model.keys().copied().filter(|id| id % 3 == 0).collect::<Vec<_>>() {
            b.drop_page(id).unwrap();
            model.remove(&id);
        }
        drop(b);
        vfs.take_bytes_read();
        let b = device(&dyn_vfs, dir).unwrap();
        let opened = vfs.take_bytes_read();
        assert_eq!(b.segments_scanned(), 1, "only the newest segment is scanned");
        let segments = b.index.read().segments.clone();
        let (newest, sealed) = segments.split_last().unwrap();
        assert_eq!(sealed.len(), 2);
        let path = |s: &Segment| segment_path(&b.base, s.id);
        // the open resurfaced every frame, dead ones too, as the index lists them
        let frames: Vec<Frames> = sealed.iter().map(|s| frames_of(&b, s)).collect();
        for (s, frames) in sealed.iter().zip(&frames) {
            assert_eq!(frames.len(), 5, "segment {}", s.id);
            // the trailing length, then the index frame
            let index = index_frame(frames).len() as u64;
            assert_eq!(opened[&path(s)], 4 + index, "segment {}", s.id);
        }
        assert_eq!(opened[&path(newest)], newest.file.len().unwrap(), "the scan reads it all");
        // the open resurfaced the dead frames; recovery drops them unread,
        // then reads the live pages back without filling a cache
        let mut live: Vec<PageId> = model.keys().copied().collect();
        live.sort_unstable();
        for id in b.page_ids().into_iter().filter(|id| !model.contains_key(id)) {
            b.drop_page(id).unwrap();
        }
        let pages = batch(&b, &live, true).unwrap();
        let recovered = vfs.take_bytes_read();
        for (s, frames) in sealed.iter().zip(&frames) {
            let live = frames.iter().filter(|(id, _)| model.contains_key(id));
            let want: u64 = live.map(|&(_, len)| FRAME_HEADER as u64 + u64::from(len)).sum();
            assert_eq!(recovered[&path(s)], want, "segment {}: its live frames alone", s.id);
        }
        for (id, page) in live.iter().zip(&pages) {
            assert_eq!(**page, small_page(model[id]));
        }
    }

    #[test]
    fn a_sealed_segment_opens_by_scan_when_its_index_is_damaged_or_missing() {
        let vfs = crate::vfs::MemVfs::shared();
        let dir = Path::new("/fallback");
        let b = device(&vfs, dir).unwrap();
        let fat = write_big(&b, 0, 3);
        b.write_page(&page(&[7])).unwrap();
        b.sync().unwrap();
        let frames = frames_of(&b, &nth_segment(&b, 0));
        let sealed = segment_path(&b.base, 0);
        drop(b);
        let good = vfs.read(&sealed).unwrap();
        let at = good.len() - index_frame(&frames).len();
        let b = device(&vfs, dir).unwrap();
        assert_eq!(b.segments_scanned(), 1);
        let expected = contents(&b);
        drop(b);

        let mut flipped = good.clone();
        flipped[at + FRAME_HEADER + 3] ^= 0x10;
        // an intact index frame whose lengths do not add up to its offset
        let mut miscounted = frames.clone();
        miscounted[1].1 += 1;
        let miscounted = [&good[..at], &index_frame(&miscounted)].concat();
        for (name, bytes) in [
            ("a flipped bit in the index frame", flipped),
            ("an index that does not add up", miscounted),
            ("no index", good[..at].to_vec()),
        ] {
            rewrite(&vfs, &sealed, &bytes);
            let b = device(&vfs, dir).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!((b.segments_scanned(), b.torn_frames_recovered()), (2, 0), "{name}");
            assert_eq!(contents(&b), expected, "{name}");
        }
        rewrite(&vfs, &sealed, &good);
        assert_eq!(frames.iter().map(|f| f.0).collect::<Vec<_>>(), fat);
        assert_eq!(index_frame(&frames), good[at..], "the index a seal wrote");

        // a segment written before index frames were, with a successor
        let dir = Path::new("/pre-index");
        vfs.create_dir_all(dir).unwrap();
        let segment = crate::log::tests::hex(PARENT_SEGMENT_HEX);
        vfs.open(&dir.join("lethe.data"), true).unwrap().append(&segment).unwrap();
        vfs.open(&dir.join("lethe.data.2"), true).unwrap();
        let b = device(&vfs, dir).unwrap();
        assert_eq!(b.segments_scanned(), 2);
        assert_eq!(contents(&b), [(1, page(&[1, 2]))]);
    }

    #[test]
    fn a_page_framed_twice_is_still_corruption() {
        let vfs = crate::vfs::MemVfs::shared();
        let dir = Path::new("/twice");
        let b = device(&vfs, dir).unwrap();
        let fat = write_big(&b, 0, 3);
        b.write_page(&page(&[7])).unwrap();
        b.sync().unwrap();
        let frames = frames_of(&b, &nth_segment(&b, 0));
        let (sealed, newest) = (segment_path(&b.base, 0), b.data_path());
        drop(b);
        let expect_twice = |what: &str| match device(&vfs, dir) {
            Err(StorageError::Corruption(msg)) => {
                assert!(msg.contains(&format!("page {} is framed twice", fat[1])), "{what}: {msg}")
            }
            other => panic!("{what}: expected corruption, got {other:?}"),
        };
        // a sealed segment's index and the newest segment's scan
        let newest_bytes = vfs.read(&newest).unwrap();
        let copy = log::frame(&PAGES, &fat[1].to_be_bytes(), &page(&[9]).encode());
        rewrite(&vfs, &newest, &[&newest_bytes[..], &copy].concat());
        expect_twice("index, then scan");
        rewrite(&vfs, &newest, &newest_bytes);
        // one index that names a page twice
        let good = vfs.read(&sealed).unwrap();
        let mut twice = frames.clone();
        twice[0].0 = fat[1];
        let pages = good.len() - index_frame(&frames).len();
        rewrite(&vfs, &sealed, &[&good[..pages], &index_frame(&twice)].concat());
        expect_twice("one index");
    }

    #[test]
    fn a_torn_index_frame_is_cut_and_the_next_sync_seals_its_segment_again() {
        let vfs = crate::vfs::MemVfs::shared();
        let dir = Path::new("/torn-index");
        let b = device(&vfs, dir).unwrap();
        write_big(&b, 0, 3);
        let index = index_frame(&frames_of(&b, &nth_segment(&b, 0))).len() as u64;
        let path = b.data_path();
        drop(b);
        // a power loss tore the sealing sync's index append
        let file = vfs.open(&path, false).unwrap();
        file.set_len(file.len().unwrap() - index / 2).unwrap();
        let b = device(&vfs, dir).unwrap();
        assert_eq!((b.torn_frames_recovered(), b.segments_scanned(), b.live_pages()), (1, 1, 3));
        let expected = contents(&b);
        // the segment lost its seal with its index: the first write cuts the
        // torn index and lands behind the pages, and the sync after it seals
        // the segment again, index and all
        let fresh = b.write_page(&page(&[1])).unwrap();
        b.sync().unwrap();
        assert_eq!(b.segment_count(), 1);
        let frames = frames_of(&b, &nth_segment(&b, 0));
        assert_eq!(read_index(nth_segment(&b, 0).file.as_ref()).unwrap(), Some(frames));
        drop(b);
        let b = device(&vfs, dir).unwrap();
        assert_eq!((b.torn_frames_recovered(), b.segments_scanned()), (0, 1));
        assert_eq!(contents(&b)[..3], expected[..]);
        assert_eq!(*b.read_page(fresh).unwrap(), page(&[1]));
    }

    #[test]
    fn the_target_may_change_across_a_reopen() {
        let dir = fresh_dir("retarget");
        let small = |dir: &Path| FileBackend::open_on(&OsVfs::shared(), dir, "lethe", 4096);
        let small = |dir: &Path| small(dir).unwrap();
        // 40 KiB of pages under the 16 MiB target: one segment, no seal
        let b = FileBackend::open_named(&dir, "lethe").unwrap();
        for k in 0..10 {
            b.write_page(&big_page(k, 4)).unwrap();
        }
        b.sync().unwrap();
        assert_eq!(segments_on_disk(&dir), [0]);
        let written = contents(&b);
        drop(b);

        // under 4 KiB the segment is far past the target but has no index:
        // the first write lands in it, the sync after it seals it, and the
        // write after that rolls; two more pages fill and seal the successor
        let b = small(&dir);
        assert_eq!((b.segments_scanned(), contents(&b)), (1, written));
        b.write_page(&page(&[1])).unwrap();
        assert_eq!(segments_on_disk(&dir), [0], "the first write appends");
        b.sync().unwrap();
        let rolled = b.write_page(&big_page(20, 4)).unwrap();
        b.write_page(&big_page(21, 4)).unwrap();
        b.sync().unwrap();
        assert_eq!(segments_on_disk(&dir), [0, rolled]);
        let written = contents(&b);
        drop(b);

        // back under 16 MiB: both segments end in their index, so the open
        // scans only the newest; the first write cuts the newest's index and
        // lands in it, far below the target, and no sync seals it
        let b = FileBackend::open_named(&dir, "lethe").unwrap();
        assert_eq!((b.segments_scanned(), contents(&b)), (1, written));
        b.write_page(&page(&[2])).unwrap();
        b.sync().unwrap();
        b.write_page(&big_page(22, 4)).unwrap();
        b.sync().unwrap();
        assert_eq!(segments_on_disk(&dir), [0, rolled]);
        drop(b);
        let b = small(&dir);
        assert_eq!(b.segments_scanned(), 1, "segment 0 opens from its index");
        assert_eq!(b.live_pages(), 15);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_read_that_fills_no_cache_checks_the_payload_sum() {
        let vfs = crate::vfs::MemVfs::shared();
        let b = device(&vfs, Path::new("/rot")).unwrap();
        let ids: Vec<PageId> = (0..3u64).map(|k| b.write_page(&page(&[k])).unwrap()).collect();
        let (offset, len) = {
            let index = b.index.read();
            (index.pages[&ids[1]].1, index.pages[&ids[1]].2)
        };
        // the last payload byte is the last byte of the page's one value
        let mut bytes = vfs.read(&b.data_path()).unwrap();
        bytes[(offset + u64::from(len)) as usize - 1] ^= 0x01;
        rewrite(&vfs, &b.data_path(), &bytes);
        let frame_at = offset - FRAME_HEADER as u64;
        let rot = format!("segment 0: page {}, the frame at offset {frame_at}, fails", ids[1]);
        let nofill = b.read_page_nofill(ids[1]).map(|p| vec![p]);
        for read in [nofill, batch(&b, &ids, true), batch(&b, &ids[1..2], true)] {
            match read {
                Err(StorageError::Corruption(msg)) => assert!(msg.contains(&rot), "{msg}"),
                other => panic!("expected corruption, got {other:?}"),
            }
        }
        // a read that fills a cache checks the header alone
        assert_ne!(*b.read_page(ids[1]).unwrap(), page(&[1]));
        assert_eq!(batch(&b, &ids, false).unwrap().len(), 3);
        assert_eq!(*b.read_page_nofill(ids[2]).unwrap(), page(&[2]));
    }

    /// One step of a random device history with failures.
    #[derive(Debug, Clone)]
    enum Event {
        /// Write a page with a value of this many KiB (0: a small page).
        Write(usize),
        /// Drop one of the three oldest live pages.
        Drop(usize),
        Sync,
        /// A write whose append (or roll) fails.
        FailedWrite,
        /// A sync whose `n`-th file system call fails: when it seals, the
        /// index append, the barrier, the directory barrier.
        FailedSync(u64),
    }

    fn event_strategy() -> impl Strategy<Value = Event> {
        prop_oneof![
            3 => Just(Event::Write(0)),
            5 => (2usize..6).prop_map(Event::Write),
            7 => any::<usize>().prop_map(Event::Drop),
            4 => Just(Event::Sync),
            1 => Just(Event::FailedWrite),
            2 => (0u64..3).prop_map(Event::FailedSync),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

        /// Over writes, drops, syncs, failed appends and failed syncs, every
        /// sealed segment ends in an index that lists exactly the frames a
        /// scan finds there, in order, with the same lengths, and a reopen
        /// scans the newest segment alone and finds the same pages.
        #[test]
        fn a_sealed_segments_index_lists_what_a_scan_finds(
            events in prop::collection::vec(event_strategy(), 24..56),
        ) {
            let vfs = crate::vfs::FaultVfs::new(crate::vfs::MemVfs::shared());
            let dyn_vfs: Arc<dyn Vfs> = vfs.clone();
            let dir = Path::new("/index-model");
            let b = device(&dyn_vfs, dir).unwrap();
            let mut live: Vec<PageId> = Vec::new();
            for (n, event) in events.iter().enumerate() {
                let n = n as u64;
                match *event {
                    Event::Write(kib) => {
                        let p = if kib == 0 { page(&[n]) } else { big_page(n, kib) };
                        live.push(b.write_page(&p).unwrap());
                    }
                    Event::Drop(at) if !live.is_empty() => {
                        b.drop_page(live.remove(at % live.len().min(3))).unwrap();
                    }
                    Event::Drop(_) => {}
                    Event::Sync => b.sync().unwrap(),
                    Event::FailedWrite => {
                        vfs.arm(0);
                        prop_assert!(b.write_page(&page(&[n])).is_err());
                        vfs.disarm();
                    }
                    Event::FailedSync(call) => {
                        vfs.arm(call);
                        let _ = b.sync();
                        vfs.disarm();
                    }
                }
            }
            let segments = b.index.read().segments.clone();
            for s in &segments[..segments.len() - 1] {
                let path = segment_path(&b.base, s.id);
                let (_, end, scanned, _) =
                    Index::default().scan(s.id, Arc::clone(&s.file), &path, false).unwrap();
                prop_assert_eq!(end, s.file.len().unwrap(), "segment {} ends in its index", s.id);
                prop_assert_eq!(read_index(s.file.as_ref()).unwrap(), Some(scanned), "segment {}", s.id);
            }
            let expected = contents(&b);
            drop(b);
            let b = device(&dyn_vfs, dir).unwrap();
            prop_assert_eq!(b.segments_scanned(), 1);
            let mut reopened = contents(&b);
            reopened.retain(|(id, _)| live.contains(id));
            prop_assert_eq!(reopened, expected);
        }
    }
}
