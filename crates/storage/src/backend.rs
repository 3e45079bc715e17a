//! Storage devices.
//!
//! The engine is written against the [`StorageBackend`] trait, the page-level
//! device abstraction, and [`FileBackend`] is its device: pages are appended
//! to a sequence of segment files with an in-memory offset index, and a
//! segment is unlinked when its last live page is dropped, so the bytes on
//! disk follow the tree and not its history. The segments live on a
//! [`Vfs`]: on the host file system for a store opened in a directory, in a
//! [`MemVfs`](crate::vfs::MemVfs) for one built in memory, which the
//! evaluation harness uses. Either way every read, write and drop is charged
//! to an [`IoStats`] counter set; combined with
//! [`crate::iostats::CostModel`] this reproduces the paper's I/O-count and
//! latency figures deterministically.
//!
//! Full page drops (KiWi) map to [`StorageBackend::drop_page`]: the page is
//! released **without being read**, which is exactly the I/O saving the paper
//! claims for secondary range deletes.

use crate::barrier;
use crate::checksum::crc32;
use crate::error::{Result, StorageError};
use crate::iostats::IoStats;
use crate::log::{self, be, Frame};
use crate::page::Page;
use crate::vfs::{OsVfs, Vfs, VfsFile};
use bytes::{BufMut, BytesMut};
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

/// Magic number opening every page frame in a [`FileBackend`] segment.
const FRAME_MAGIC: u32 = 0x4C45_4652; // "LEFR"

/// Size of a page-frame header: magic, page id, payload length, payload CRC.
const FRAME_HEADER: usize = 4 + 8 + 4 + 4;

/// Size at which a `sync()` seals the segment it has just made durable. A
/// segment costs one directory barrier to create, so the roll is amortised
/// over this many bytes; a dead frame waits for the rest of its segment to
/// die before its bytes leave the disk.
const SEGMENT_TARGET_BYTES: u64 = 16 << 20;

/// A durable device: pages are appended as self-describing frames
/// (`magic · page id · length · crc · payload`) to a sequence of
/// **append-only segment files**, and an in-memory index maps each page id
/// to its `(segment, offset, length)`. The frames make the files their own
/// recovery log: on open every segment is scanned, the index rebuilt, and a
/// torn trailing frame — the normal result of a crash mid-write — truncated
/// away. Dropped pages leave dead frames behind, which a reopen resurfaces
/// (the crash-recovery layer drops again the ones its manifest does not
/// reference); their bytes leave the disk when their whole segment is dead.
///
/// **Files.** Segment 0 is `<name>.data`, the only file an older store has;
/// a later segment is `<name>.data.<id>`, where `<id>` is the next unissued
/// page id at its creation. All are direct children of the store directory.
///
/// **Roll.** Pages go to the newest segment only. [`StorageBackend::sync`]
/// makes that file durable and *seals* it if it has reached
/// `SEGMENT_TARGET_BYTES`; the next `write_page` creates its successor. A
/// segment is therefore sealed only by the barrier that made all of it
/// durable, and only the newest file can hold a torn tail: a torn or invalid
/// frame in any older segment is corruption. Creating a segment **needs a
/// barrier**: the manifest edit that follows a `sync()` may name a page in
/// the new file, so the first `sync()` after the creation also syncs the
/// directory (one extra barrier per segment). Segment 0 of a fresh store
/// pays none of its own: the manifest's first commit is a rewrite-and-rename
/// that syncs the same directory.
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
/// `appender` mutex, but reads never touch it: they resolve
/// `(segment, offset, len)` under one shared index lock and issue a
/// *positional* read (`pread`) on the segment's own handle with no lock held,
/// so N reader threads proceed fully in parallel on hits and misses alike. A
/// reader that resolved a page just before its segment was unlinked still
/// reads the right bytes: a [`Vfs`] handle reads on after an unlink. All
/// paths read the handle the index pinned, never reopen by path.
#[derive(Debug)]
pub struct FileBackend {
    vfs: Arc<dyn Vfs>,
    /// `dir/<name>.data`: segment 0's path and the stem of every other's.
    base: PathBuf,
    appender: Mutex<Appender>,
    index: RwLock<Index>,
    next_id: AtomicU64,
    stats: Arc<IoStats>,
    torn_frames_recovered: u64,
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

/// The page index and the segment list, guarded by one lock.
#[derive(Debug, Default)]
struct Index {
    /// Page id → (segment, payload offset, payload length).
    pages: HashMap<PageId, (Arc<Segment>, u64, u32)>,
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
    /// and after a failed append (whose partial frame the immediate cut may
    /// not have removed). The next `write_page` checks the length and cuts
    /// the tail only while this is set; otherwise this device is the file's
    /// only writer and every append it made landed at `end`.
    tail_unchecked: bool,
    /// The last `sync()` found the segment at its target: the next write
    /// creates its successor.
    sealed: bool,
    /// The file was created since the last `sync()`: its directory entry is
    /// not durable yet.
    unsynced_entry: bool,
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

/// A page frame: `magic · page id · payload length · payload crc`, then the
/// payload.
struct PageFrame;

impl Frame for PageFrame {
    const PREFIX: usize = FRAME_HEADER;

    fn body_len(header: &[u8]) -> Option<usize> {
        // a torn append of >= 4 bytes still writes the magic, so a full
        // header with the wrong magic is not a torn tail
        (be(&header[..4]) == u64::from(FRAME_MAGIC)).then(|| be(&header[12..16]) as usize)
    }

    fn intact(header: &[u8], payload: &[u8]) -> bool {
        be(&header[16..]) == u64::from(crc32(payload))
    }
}

impl Index {
    /// Scans segment `id` at `path` under the common [`log`](crate::log)
    /// rule, indexing its frames, and returns it with the end of its last
    /// good frame. A torn tail ends the scan short of end-of-file; only the
    /// `newest` segment may have one (the caller cuts it), since a sealed
    /// segment is never appended to again.
    fn scan(
        &mut self,
        id: u64,
        file: Arc<dyn VfsFile>,
        path: &Path,
        newest: bool,
    ) -> Result<(Arc<Segment>, u64)> {
        let segment = Arc::new(Segment { id, file, live: AtomicU64::new(0) });
        let end = log::scan::<PageFrame>(segment.file.as_ref(), path, |off, header, payload| {
            let page = be(&header[4..12]);
            let at = (Arc::clone(&segment), off + FRAME_HEADER as u64, payload.len() as u32);
            if self.pages.insert(page, at).is_some() {
                return Err(StorageError::Corruption(format!(
                    "data file {path:?}: page {page} at offset {off} is framed a second time"
                )));
            }
            segment.live.fetch_add(1, Ordering::Relaxed);
            Ok(())
        })?;
        if !newest && end < segment.file.len()? {
            return Err(StorageError::Corruption(format!(
                "data file {path:?}: torn frame at offset {end} of a sealed segment (only \
                 the newest segment is ever appended to, so this is not a torn tail)"
            )));
        }
        self.segments.push(Arc::clone(&segment));
        Ok((segment, end))
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
    /// Opens (or creates) a device rooted at `dir` on the host file system.
    /// Its first segment is `dir/lethe.data`.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        Self::open_named(dir, "lethe")
    }

    /// [`FileBackend::open_on`] the host file system.
    pub fn open_named(dir: impl AsRef<Path>, name: &str) -> Result<Self> {
        Self::open_on(&OsVfs::shared(), dir.as_ref(), name)
    }

    /// A device of its own on a fresh [`MemVfs`](crate::vfs::MemVfs), for
    /// tests and tools that need pages but no tree.
    pub fn in_memory() -> Result<Self> {
        Self::open_on(&crate::vfs::MemVfs::shared(), Path::new("/"), "lethe")
    }

    /// Opens (or creates) a *namespaced* device rooted at `dir` on `vfs`:
    /// its segments are `dir/<name>.data` and `dir/<name>.data.<id>`. Several
    /// namespaced devices can share one directory, which is how the sharded
    /// front-end keeps the per-shard data files (`shard-000.data`,
    /// `shard-001.data`, …) of one logical store together.
    ///
    /// Existing segments are scanned frame by frame, oldest first, to
    /// rebuild the page index and the next free id; a torn trailing frame of
    /// the newest segment is truncated away and counted in
    /// [`FileBackend::torn_frames_recovered`].
    pub fn open_on(vfs: &Arc<dyn Vfs>, dir: &Path, name: &str) -> Result<Self> {
        vfs.create_dir_all(dir)?;
        let base_name = format!("{name}.data");
        let base = dir.join(&base_name);
        let mut ids: Vec<u64> =
            vfs.list(dir)?.iter().filter_map(|f| segment_id(&base_name, f)).collect();
        ids.sort_unstable();
        // the newest segment takes the appends; a fresh store starts at 0
        let newest = ids.pop().unwrap_or(0);
        let mut index = Index::default();
        for id in ids {
            let path = segment_path(&base, id);
            index.scan(id, vfs.open(&path, false)?, &path, false)?;
        }
        let path = segment_path(&base, newest);
        let (segment, end) = index.scan(newest, vfs.open(&path, true)?, &path, true)?;
        let stats = IoStats::new_shared();
        let torn_frames_recovered =
            u64::from(log::cut_tail(segment.file.as_ref(), end, &stats.fsyncs)?);
        let next_id = index.pages.keys().max().map_or(1, |max| max + 1).max(newest);
        // what a reopen finds on disk is as durable as it will get, so a
        // full newest segment (or an older store's one big file) starts sealed
        let sealed = end >= SEGMENT_TARGET_BYTES;
        let appender =
            Appender { segment, end, sealed, unsynced_entry: false, tail_unchecked: true };
        Ok(FileBackend {
            vfs: Arc::clone(vfs),
            base,
            appender: Mutex::new(LockRank::BackendFile, appender),
            index: RwLock::new(LockRank::BackendIndex, index),
            next_id: AtomicU64::new(next_id),
            stats,
            torn_frames_recovered,
        })
    }

    /// Number of torn trailing frames truncated away when the device was
    /// opened (0 after a clean shutdown, typically 1 after a crash).
    pub fn torn_frames_recovered(&self) -> u64 {
        self.torn_frames_recovered
    }

    /// Path of the segment being appended to (the newest file).
    pub fn data_path(&self) -> PathBuf {
        segment_path(&self.base, self.appender.lock().segment.id)
    }

    /// Bytes currently occupied by the segment files, including the dead
    /// frames of dropped pages in segments that still hold a live one.
    pub fn file_size(&self) -> Result<u64> {
        let index = self.index.read();
        index.segments.iter().try_fold(0, |sum, s| Ok(sum + s.file.len()?))
    }

    /// Number of segment files on disk.
    pub fn segment_count(&self) -> usize {
        self.index.read().segments.len()
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

    /// Unlinks a segment that has left the index, with no barrier (see the
    /// type's docs for why none is needed).
    fn unlink(&self, segment: &Segment) -> Result<()> {
        let bytes = segment.file.len()?;
        self.vfs.remove(&segment_path(&self.base, segment.id))?;
        self.stats.bytes_reclaimed.fetch_add(bytes, Ordering::Relaxed);
        Ok(())
    }
}

/// Builds one on-disk page frame: `magic · page id · length · crc · payload`.
fn encode_frame(id: PageId, payload: &[u8]) -> BytesMut {
    let mut frame = BytesMut::with_capacity(FRAME_HEADER + payload.len());
    frame.put_u32(FRAME_MAGIC);
    frame.put_u64(id);
    frame.put_u32(payload.len() as u32);
    frame.put_u32(crc32(payload));
    frame.extend_from_slice(payload);
    frame
}

impl StorageBackend for FileBackend {
    fn write_page(&self, page: &Page) -> Result<PageId> {
        let encoded = page.encode();
        let mut app = self.appender.lock();
        if app.sealed {
            self.roll(&mut app)?;
        }
        // the handle appends at end-of-file: whatever may lie behind the
        // last good frame (the partial frame of a failed append) is cut away
        // first, so the offset indexed below is where the frame really lands
        if app.tail_unchecked {
            let file = &app.segment.file;
            if file.len()? != app.end {
                file.set_len(app.end)?;
            }
            app.tail_unchecked = false;
        }
        // ids are issued under the appender lock, so every id in a segment
        // is at or above the segment's name and below its successor's
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let frame = encode_frame(id, &encoded);
        if let Err(e) = app.segment.file.append(&frame) {
            let _ = app.segment.file.set_len(app.end);
            app.tail_unchecked = true;
            return Err(e.into());
        }
        let at = (Arc::clone(&app.segment), app.end + FRAME_HEADER as u64, encoded.len() as u32);
        app.end += frame.len() as u64;
        app.segment.live.fetch_add(1, Ordering::Relaxed);
        self.index.write().pages.insert(id, at);
        self.stats.record_write(encoded.len() as u64);
        Ok(id)
    }

    fn read_page(&self, id: PageId) -> Result<Arc<Page>> {
        // resolve the segment and offset under one brief (shared) index read
        // lock, then do the actual I/O with no lock at all: `pread` needs no
        // seek and no cursor, so concurrent readers never serialise behind
        // each other or behind the writer
        let (segment, offset, len) =
            self.index.read().pages.get(&id).cloned().ok_or(StorageError::PageNotFound(id))?;
        let mut buf = vec![0u8; len as usize];
        segment.file.read_at(&mut buf, offset)?;
        self.stats.record_read(len as u64);
        Page::decode(bytes::Bytes::from(buf)).map(Arc::new)
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
        barrier::sync_all_counted(app.segment.file.as_ref(), &self.stats.fsyncs)?;
        if app.unsynced_entry {
            barrier::fsync_dir_counted(self.vfs.as_ref(), &self.base, &self.stats.fsyncs)?;
            app.unsynced_entry = false;
        }
        app.sealed = app.end >= SEGMENT_TARGET_BYTES;
        Ok(())
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "the devices' own tests drive them directly")]
mod tests {
    use super::*;
    use crate::entry::Entry;
    use bytes::Bytes;
    use proptest::prelude::*;
    use std::fs::OpenOptions;
    use std::io::Write;

    fn page(keys: &[u64]) -> Page {
        Page::new(keys.iter().map(|&k| Entry::put(k, k, k, Bytes::from(vec![0u8; 8]))).collect())
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
        let b = FileBackend::open(&dir).unwrap();
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
            let b = FileBackend::open(&dir).unwrap();
            id1 = b.write_page(&page(&[1, 2, 3])).unwrap();
            id2 = b.write_page(&page(&[4, 5])).unwrap();
            id3 = b.write_page(&page(&[6])).unwrap();
            b.drop_page(id2).unwrap();
            b.sync().unwrap();
        }
        let b = FileBackend::open(&dir).unwrap();
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

    /// A page of one entry with a `mib` MiB value: a page is `B` entries of
    /// any size, so a few of these cross `SEGMENT_TARGET_BYTES`.
    fn fat_page(key: u64, mib: usize) -> Page {
        Page::new(vec![Entry::put(key, key, key, Bytes::from(vec![key as u8; mib << 20]))])
    }

    /// Writes `pages` fat pages of 6 MiB and syncs: three of them seal the
    /// segment they land in.
    fn write_fat(b: &FileBackend, first_key: u64, pages: u64) -> Vec<PageId> {
        let keys = first_key..first_key + pages;
        let ids = keys.map(|k| b.write_page(&fat_page(k, 6)).unwrap()).collect();
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
        let frame = encode_frame(77, &page(&[9]).encode());
        let mut f = OpenOptions::new().append(true).open(path).unwrap();
        f.write_all(&frame[..frame.len() / 2]).unwrap();
    }

    #[test]
    fn file_backend_truncates_torn_tail_on_reopen() {
        let dir = fresh_dir("torn");
        let id1;
        {
            let b = FileBackend::open(&dir).unwrap();
            id1 = b.write_page(&page(&[1, 2, 3])).unwrap();
            b.sync().unwrap();
            append_half_a_frame(&b.data_path());
        }
        let b = FileBackend::open(&dir).unwrap();
        assert_eq!(b.torn_frames_recovered(), 1);
        assert_eq!(b.live_pages(), 1);
        assert_eq!(b.read_page(id1).unwrap().len(), 3);
        // the torn bytes are gone: writing and reopening is clean
        let id2 = b.write_page(&page(&[4])).unwrap();
        b.sync().unwrap();
        drop(b);
        let b2 = FileBackend::open(&dir).unwrap();
        assert_eq!(b2.torn_frames_recovered(), 0);
        assert_eq!(b2.read_page(id2).unwrap().len(), 1);

        // with a sealed segment behind it the newest file is still the only
        // one a crash can tear: the same debris in the older one is an error
        write_fat(&b2, 10, 3);
        let id3 = b2.write_page(&page(&[5])).unwrap();
        b2.sync().unwrap();
        let (sealed, newest) = (dir.join("lethe.data"), b2.data_path());
        assert_ne!(sealed, newest);
        drop(b2);
        let sealed_len = std::fs::metadata(&sealed).unwrap().len();
        append_half_a_frame(&sealed);
        match FileBackend::open(&dir) {
            Err(StorageError::Corruption(msg)) => assert!(msg.contains("sealed segment"), "{msg}"),
            other => panic!("expected corruption error, got {other:?}"),
        }
        assert!(std::fs::metadata(&sealed).unwrap().len() > sealed_len, "a failed open cuts nothing");
        OpenOptions::new().write(true).open(&sealed).unwrap().set_len(sealed_len).unwrap();
        append_half_a_frame(&newest);
        let b3 = FileBackend::open(&dir).unwrap();
        assert_eq!(b3.torn_frames_recovered(), 1);
        assert_eq!(b3.read_page(id3).unwrap().len(), 1);
        assert_eq!(b3.read_page(id1).unwrap().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The frame of page 1 holding `page(&[1, 2])`, as the commit before the
    /// common log rule wrote it.
    const PARENT_SEGMENT_HEX: &str = "\
        4c454652000000000000000100000052914f6ed84c45504700000002000000000000000100000000\
        00000001000000000000000100000000080000000000000000000000000000000200000000000000\
        02000000000000000200000000080000000000000000";

    #[test]
    fn segments_written_before_this_change_still_open() {
        let bytes = crate::log::tests::hex(PARENT_SEGMENT_HEX);
        let dir = fresh_dir("parent");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("lethe.data"), &bytes).unwrap();
        let b = FileBackend::open(&dir).unwrap();
        assert_eq!((b.page_ids(), b.torn_frames_recovered()), (vec![1], 0));
        assert_eq!(*b.read_page(1).unwrap(), page(&[1, 2]));
        drop(b);
        // and a fresh device writes the same bytes for the same page
        let dir = fresh_dir("parent");
        let b = FileBackend::open(&dir).unwrap();
        assert_eq!(b.write_page(&page(&[1, 2])).unwrap(), 1);
        assert_eq!(std::fs::read(b.data_path()).unwrap(), bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_mid_file_corruption_is_an_error_not_a_truncation() {
        let dir = fresh_dir("midfile");
        let path;
        {
            let b = FileBackend::open(&dir).unwrap();
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
        match FileBackend::open(&dir) {
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
        assert_eq!(FileBackend::open(&dir).unwrap().torn_frames_recovered(), 1);
        std::fs::write(&path, &good).unwrap();
        std::fs::write(dir.join("lethe.data.4"), b"").unwrap();
        assert_eq!(FileBackend::open(&dir).unwrap().live_pages(), 3);
        std::fs::write(&path, &torn).unwrap();
        match FileBackend::open(&dir) {
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
        let b = FileBackend::open_on(&vfs, dir, "lethe").unwrap();
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
        let b = FileBackend::open_on(&vfs, dir, "lethe").expect("the debris must not reach the next open");
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
        let b = FileBackend::open_on(&dyn_vfs, dir, "lethe").unwrap();
        let file = || dyn_vfs.open(&b.data_path(), false).unwrap();
        let a = b.write_page(&page(&[1, 2, 3])).unwrap();
        let after_a = file().len().unwrap();
        vfs.arm(0);
        assert!(matches!(b.write_page(&page(&[9])), Err(StorageError::Injected)));
        assert_eq!(file().len().unwrap(), after_a, "the failed append left nothing");
        let c = b.write_page(&page(&[4, 5])).unwrap();
        let frame = encode_frame(c, &page(&[4, 5]).encode());
        assert_eq!(file().len().unwrap(), after_a + frame.len() as u64, "one frame more");
        let mut tail = vec![0u8; frame.len()];
        file().read_at(&mut tail, after_a).unwrap();
        assert_eq!(tail, frame.to_vec(), "the good append is one intact frame at the old end");
        b.sync().unwrap();
        drop(b);
        let b = FileBackend::open_on(&dyn_vfs, dir, "lethe").unwrap();
        assert_eq!(b.torn_frames_recovered(), 0);
        let mut ids = b.page_ids();
        ids.sort_unstable();
        assert_eq!(ids, [a, c], "the failed write's id names no frame");
        assert_eq!(b.read_page(c).unwrap().len(), 2);
    }

    #[test]
    fn segment_rolls_only_at_a_sync() {
        let dir = fresh_dir("roll");
        let b = FileBackend::open(&dir).unwrap();
        let barriers = || b.stats().snapshot().fsyncs;
        for k in 0..5 {
            b.write_page(&fat_page(k, 8)).unwrap();
        }
        assert_eq!(segments_on_disk(&dir), [0], "40 MiB with no sync() is one file");
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
        let b = FileBackend::open(&dir).unwrap();
        let oldest = write_fat(&b, 0, 3);
        let middle = write_fat(&b, 10, 3);
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
                assert_eq!(*b.read_page(id).unwrap(), fat_page(k as u64, 6));
            }
            assert_eq!(b.read_page(newest).unwrap().len(), 2);
            assert_eq!(segments_on_disk(&dir), [0, newest]);
        };
        check(&b);
        drop(b);
        // survivors stay readable across a reopen, which sees the same live set
        let b = FileBackend::open(&dir).unwrap();
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
        let b = FileBackend::open(&dir).unwrap();
        let kept = write_fat(&b, 0, 3);
        let doomed = write_fat(&b, 10, 3);
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

        let b = FileBackend::open(&dir).unwrap();
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
        let b = FileBackend::open(&dir).unwrap();
        let kept = write_fat(&b, 0, 3);
        let dead = write_fat(&b, 10, 3);
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

        let b = FileBackend::open(&dir).unwrap();
        assert_eq!(b.live_pages(), 7, "the resurfaced frames are indexed");
        assert_eq!(*b.read_page(dead[1]).unwrap(), fat_page(11, 6));
        // recovery drops what its manifest does not reference, one by one
        for &id in &dead {
            b.drop_page(id).unwrap();
        }
        assert_eq!(segments_on_disk(&dir), [0, newest], "and the last drop unlinks it again");
        let mut ids = b.page_ids();
        ids.sort_unstable();
        assert_eq!(ids, kept.iter().copied().chain([newest]).collect::<Vec<_>>());
        assert_eq!(*b.read_page(kept[2]).unwrap(), fat_page(2, 6));
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
            let b = FileBackend::open(&dir).unwrap();
            small = b.write_page(&page(&[1, 2, 3])).unwrap();
            fat = (0..3).map(|k| b.write_page(&fat_page(k, 6)).unwrap()).collect::<Vec<_>>();
            assert_eq!(segments_on_disk(&dir), [0]);
        }
        let b = FileBackend::open(&dir).unwrap();
        assert_eq!((b.segment_count(), b.live_pages()), (1, 4));
        for &id in &fat[..2] {
            b.drop_page(id).unwrap(); // recovery's unreferenced-page pass
        }
        let moved = b.write_page(b.read_page(small).unwrap().as_ref()).unwrap();
        assert_eq!(segments_on_disk(&dir), [0, moved], "new writes go to a new segment");
        b.sync().unwrap();
        b.drop_page(small).unwrap();
        assert!(legacy.exists());
        b.drop_page(fat[2]).unwrap();
        assert!(!legacy.exists(), "the old file goes when its last live page is rewritten");
        assert_eq!(b.read_page(moved).unwrap().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn readers_are_undisturbed_by_segment_deaths() {
        let dir = fresh_dir("churn");
        let b = FileBackend::open(&dir).unwrap();
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
                let ids = write_fat(&b, 10 * (round + 1), 3);
                for id in std::mem::replace(&mut previous, ids) {
                    b.drop_page(id).unwrap();
                }
            }
            done.store(true, Ordering::SeqCst);
        });
        let reclaimed = b.stats().snapshot().bytes_reclaimed;
        assert!(reclaimed >= 4 * SEGMENT_TARGET_BYTES, "only {reclaimed} B reclaimed");
        assert_eq!(b.live_pages(), pinned.len() + 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One step of a random device history.
    #[derive(Debug, Clone)]
    enum Step {
        /// Write a page with a value of this many MiB (0: a small page).
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
            let mut b = FileBackend::open(&dir).unwrap();
            let mut model: HashMap<PageId, Page> = HashMap::new();
            let (mut last_id, mut written) = (0, 0);
            for (n, step) in steps.iter().enumerate() {
                match *step {
                    Step::Write(mib) => {
                        let p = if mib == 0 { page(&[n as u64]) } else { fat_page(n as u64, mib) };
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
                        b = FileBackend::open(&dir).unwrap();
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
}
