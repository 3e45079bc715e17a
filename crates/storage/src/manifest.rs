//! The durable manifest: the tree's on-device state, crash-consistently.
//!
//! The write-ahead log only covers the *buffered* part of the tree; once a
//! flush moves entries onto the device and truncates the log, the only record
//! of which pages belong to which file, which files to which level, and what
//! the next file id / sequence number / clock watermark are, is in memory.
//! The manifest closes that hole: it is an append-only, checksummed edit log
//! (`<name>.manifest`) that the tree updates after every state transition —
//! flush, compaction, secondary page drop — and *before* the WAL is
//! truncated, so at every instant either the WAL or the manifest (or both,
//! overlapping harmlessly) covers every acknowledged write.
//!
//! ## File format
//!
//! ```text
//! file   := MAGIC (u64) record*
//! record := len (u32) · crc32(body) (u32) · body
//! body   := version (u8) · kind (u8) · payload
//! ```
//!
//! `kind` is either a **snapshot** (the full [`ManifestState`]) or a
//! **delta** (files added/updated/removed plus the new level structure and
//! counters). Recovery folds the records in order under the [`log`](crate::log)
//! rule: a torn trailing record — the normal result of a crash mid-append —
//! is cut away, recovering the last fully-committed state. When the log grows
//! past a threshold it is rewritten as a single snapshot into a temporary file that is atomically
//! renamed over the old log (with a parent-directory fsync), so a crash
//! mid-rewrite leaves either the complete old log or the complete new one.

use crate::checksum::crc32;
use crate::clock::Timestamp;
use crate::entry::{DeleteKey, Entry, SeqNum};
use crate::error::{Result, StorageError};
use crate::failpoint::{FailPoint, KillPoint};
use crate::fence::DeleteFence;
use crate::log::{be, Frame, LogFile};
use crate::vfs::{OsVfs, Vfs};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic number opening every manifest file.
const MANIFEST_MAGIC: u64 = 0x4C45_5448_454D_414E; // "LETHEMAN"

/// On-disk format version of manifest records. Version 2 added the
/// per-file delete-key bounds (`min_delete`/`max_delete`) to [`FileDesc`];
/// version-1 records are still decoded (with conservative full-domain
/// bounds, so secondary-scan pruning is merely disabled until recovery
/// re-derives the exact bounds), keeping pre-existing stores openable.
const MANIFEST_VERSION: u8 = 2;

/// Record kinds.
const KIND_SNAPSHOT: u8 = 0;
const KIND_DELTA: u8 = 1;

/// Appended edits after which the log is folded into a single snapshot.
const REWRITE_THRESHOLD: usize = 64;

/// Durable description of one on-device file (SSTable).
///
/// Everything not stored here is re-derived at recovery time by reading the
/// file's pages back: Bloom filters, fence pointers, delete fences and the
/// min/max key metadata all come from the page contents, so the manifest
/// stays small and cannot disagree with the data it describes.
#[derive(Debug, Clone, PartialEq)]
pub struct FileDesc {
    /// Unique file id assigned by the tree.
    pub id: u64,
    /// Logical time the file was created.
    pub created_at: Timestamp,
    /// Insertion time of the oldest tombstone in the file, if any — the
    /// input to FADE's tombstone age `a_max`, which must survive restarts
    /// for the delete-persistence guarantee to hold across them.
    pub oldest_tombstone_ts: Option<Timestamp>,
    /// Largest sequence number stored in the file.
    pub max_seqnum: SeqNum,
    /// Smallest put delete key stored in the file; with `max_delete`, the
    /// file's [`DeleteFence`], the paper's file-granularity KiWi fence:
    /// secondary scans and deletes skip files whose fence cannot intersect
    /// the queried range. A file of tombstones only stores
    /// [`DeleteFence::EMPTY`] (`min > max`). Recovery re-derives the exact
    /// fence from the pages and only checks that these bounds contain it,
    /// so the wider bounds an older manifest holds (tombstone-inclusive from
    /// version-2 stores, the full domain from version 1) are safe: they
    /// prune less, never wrongly.
    pub min_delete: DeleteKey,
    /// Largest put delete key stored in the file (see `min_delete`).
    pub max_delete: DeleteKey,
    /// Device page ids per delete tile, pages in delete-key order (the KiWi
    /// layout is positional, so order matters and is preserved verbatim).
    pub tiles: Vec<Vec<u64>>,
    /// The file's range-tombstone block. Range tombstones live outside the
    /// pages, so they must be persisted here or a restart would resurrect
    /// every key a flushed range delete covered.
    pub range_tombstones: Vec<Entry>,
}

/// The durable state of one tree, as recorded by its manifest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ManifestState {
    /// Next file id the tree will assign.
    pub next_file_id: u64,
    /// Next sequence number the tree will assign.
    pub next_seqnum: SeqNum,
    /// Logical clock watermark at the time of the edit; the clock is
    /// advanced at least this far on recovery so tombstone ages and TTLs
    /// never move backwards.
    pub clock_micros: Timestamp,
    /// The level structure: `levels[l]` is a list of runs (newest first),
    /// each a list of files in key order. Descriptors are `Arc`-shared with
    /// the tree's in-memory tables, so committing an edit diffs unchanged
    /// files by pointer identity instead of deep comparison.
    pub levels: Vec<Vec<Vec<Arc<FileDesc>>>>,
}

impl ManifestState {
    /// Iterates over every file of the state.
    pub fn files(&self) -> impl Iterator<Item = &Arc<FileDesc>> {
        self.levels.iter().flatten().flatten()
    }

    /// `true` when the state describes an empty tree with virgin counters.
    pub fn is_empty(&self) -> bool {
        self.levels.iter().all(|l| l.iter().all(|r| r.is_empty()))
            && self.next_file_id <= 1
            && self.next_seqnum <= 1
    }

    fn file_map(&self) -> BTreeMap<u64, &Arc<FileDesc>> {
        self.files().map(|f| (f.id, f)).collect()
    }

    fn structure(&self) -> Vec<Vec<Vec<u64>>> {
        self.levels
            .iter()
            .map(|l| l.iter().map(|r| r.iter().map(|f| f.id).collect()).collect())
            .collect()
    }
}

/// One recovered-or-committed edit, used internally when folding the log.
#[derive(Debug, Clone)]
enum ManifestRecord {
    /// Full state replacement.
    Snapshot(ManifestState),
    /// Incremental transition.
    Delta {
        /// Counters after the transition.
        next_file_id: u64,
        /// Next sequence number after the transition.
        next_seqnum: SeqNum,
        /// Clock watermark at commit time.
        clock_micros: Timestamp,
        /// File ids removed by the transition.
        removed: Vec<u64>,
        /// Files added or rewritten in place (same id, new contents — the
        /// result of a KiWi partial page drop).
        upserted: Vec<Arc<FileDesc>>,
        /// The authoritative level → run → file-id layout after the edit.
        structure: Vec<Vec<Vec<u64>>>,
    },
}

/// Handle to a `<name>.manifest` file: recovery on open, checksummed appends,
/// atomic rewrites.
#[derive(Debug)]
pub struct Manifest {
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
    /// The log; `None` until a file exists (lazy creation lets "a manifest
    /// file exists" double as "this store committed durable state", which
    /// the sharded front-end uses to detect partial stores).
    log: Option<LogFile>,
    /// Whether this process has committed yet: its first commit always
    /// writes a fresh snapshot, creating the file or folding the recovered
    /// log into one.
    committed: bool,
    state: ManifestState,
    records_since_rewrite: usize,
    failpoint: FailPoint,
}

/// A manifest record's frame: `len (u32) · crc32(body) (u32)`, then the body.
struct Record;

impl Frame for Record {
    const MAGIC: &'static [u8] = &MANIFEST_MAGIC.to_be_bytes();
    const PREFIX: usize = 8;

    fn body_len(prefix: &[u8]) -> Option<usize> {
        Some(be(&prefix[..4]) as usize)
    }

    fn intact(prefix: &[u8], body: &[u8]) -> bool {
        be(&prefix[4..]) == u64::from(crc32(body))
    }
}

impl Manifest {
    /// Opens the manifest at `path`, folding its edit log into the recovered
    /// [`ManifestState`]. A missing file yields an empty state and is only
    /// created on the first [`Manifest::commit`]. A torn trailing record is
    /// cut away; damage before the last valid record is an error.
    pub fn open(path: impl AsRef<Path>) -> Result<Manifest> {
        Self::open_on(&OsVfs::shared(), path.as_ref())
    }

    /// [`Manifest::open`] on `vfs`.
    pub fn open_on(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<Manifest> {
        let mut manifest = Manifest {
            vfs: Arc::clone(vfs),
            path: path.to_path_buf(),
            log: None,
            committed: false,
            state: ManifestState::default(),
            records_since_rewrite: 0,
            failpoint: FailPoint::new(),
        };
        let mut log = match LogFile::open(vfs, path, false) {
            Err(StorageError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(manifest)
            }
            log => log?,
        };
        // a record that checksums but does not decode is real corruption
        log.recover::<Record>(|_, _, body| {
            manifest.apply(decode_record(Bytes::copy_from_slice(body))?);
            Ok(())
        })?;
        manifest.log = Some(log);
        Ok(manifest)
    }

    /// Attaches a crash-injection fail point consulted before every durable
    /// step of an append or rewrite (testing aid).
    pub fn set_failpoint(&mut self, fp: FailPoint) {
        self.failpoint = fp;
    }

    /// The last committed (or recovered) state.
    pub fn state(&self) -> &ManifestState {
        &self.state
    }

    /// Durability barriers (`fsync`/`fdatasync`) this manifest has issued.
    /// Folded into the engine's [`IoSnapshot::fsyncs`](crate::iostats::IoSnapshot::fsyncs)
    /// so manifest commits are charged like every other barrier.
    pub fn fsync_count(&self) -> u64 {
        self.log.as_ref().map_or(0, LogFile::fsync_count)
    }

    fn apply(&mut self, record: ManifestRecord) {
        match record {
            ManifestRecord::Snapshot(state) => self.state = state,
            ManifestRecord::Delta {
                next_file_id,
                next_seqnum,
                clock_micros,
                removed,
                upserted,
                structure,
            } => {
                let mut files: BTreeMap<u64, Arc<FileDesc>> =
                    self.state.files().map(|f| (f.id, Arc::clone(f))).collect();
                for id in removed {
                    files.remove(&id);
                }
                for f in upserted {
                    files.insert(f.id, f);
                }
                let levels = structure
                    .into_iter()
                    .map(|level| {
                        level
                            .into_iter()
                            .map(|run| {
                                run.into_iter().filter_map(|id| files.get(&id).cloned()).collect()
                            })
                            .collect()
                    })
                    .collect();
                self.state = ManifestState {
                    next_file_id,
                    next_seqnum,
                    clock_micros,
                    levels,
                };
            }
        }
    }

    /// Commits `new_state` durably: computes the delta against the last
    /// committed state, appends it (fsync'd), and folds the log into a fresh
    /// snapshot — via [`LogFile::replace`] — once it has grown past the
    /// rewrite threshold. On success the WAL records covered by this state
    /// may be dropped, and the returned witness is what lets
    /// [`Wal::truncate_prefix`](crate::Wal::truncate_prefix) drop them; on
    /// error nothing durable has changed.
    pub fn commit(&mut self, new_state: ManifestState) -> Result<ManifestCommitted> {
        if self.committed && new_state == self.state {
            return Ok(ManifestCommitted(()));
        }
        // the first commit of a process, and any commit without a log to
        // append to, writes a snapshot; rewriting creates the log
        let log = match &self.log {
            Some(log) if self.committed && self.records_since_rewrite < REWRITE_THRESHOLD => log,
            _ => {
                self.rewrite(new_state)?;
                return Ok(ManifestCommitted(()));
            }
        };
        let old = self.state.file_map();
        let new = new_state.file_map();
        let removed: Vec<u64> = old.keys().filter(|id| !new.contains_key(id)).copied().collect();
        // pointer identity first: descriptors are shared with the tree's
        // tables, so an unchanged file is recognised without a deep compare
        let upserted: Vec<Arc<FileDesc>> = new
            .values()
            .filter(|f| {
                old.get(&f.id).is_none_or(|prev| !Arc::ptr_eq(prev, f) && **prev != ***f)
            })
            .map(|f| Arc::clone(f))
            .collect();
        let record = ManifestRecord::Delta {
            next_file_id: new_state.next_file_id,
            next_seqnum: new_state.next_seqnum,
            clock_micros: new_state.clock_micros,
            removed,
            upserted,
            structure: new_state.structure(),
        };
        self.failpoint.check(KillPoint::ManifestAppend)?;
        log.append(&frame_record(&record))?;
        log.sync_data()?;
        self.records_since_rewrite += 1;
        self.state = new_state;
        Ok(ManifestCommitted(()))
    }

    /// Rewrites the manifest as a single snapshot of `state`, atomically.
    fn rewrite(&mut self, state: ManifestState) -> Result<()> {
        self.failpoint.check(KillPoint::ManifestRewriteBegin)?;
        let framed = frame_record(&ManifestRecord::Snapshot(state.clone()));
        let contents = [&MANIFEST_MAGIC.to_be_bytes()[..], &framed].concat();
        let before_rename = || self.failpoint.check(KillPoint::ManifestRewriteRename);
        match &mut self.log {
            Some(log) => log.replace("manifest.tmp", &contents, before_rename)?,
            None => {
                let (vfs, path) = (&self.vfs, &self.path);
                let log = LogFile::publish(vfs, path, "manifest.tmp", &contents, before_rename)?;
                self.log = Some(log);
            }
        }
        self.committed = true;
        self.records_since_rewrite = 1;
        self.state = state;
        Ok(())
    }
}

/// Proof that a manifest edit is durable. Only [`Manifest::commit`] makes
/// one, and [`Wal::truncate_prefix`](crate::Wal::truncate_prefix) requires
/// one, so a WAL prefix can only be dropped after a commit that covers it.
///
/// ```compile_fail
/// // outside this crate the witness cannot be built by hand
/// let forged = lethe_storage::ManifestCommitted(());
/// ```
///
/// ```compile_fail
/// // and a WAL prefix cannot be dropped without one
/// use lethe_storage::{FileWal, Wal};
/// FileWal::open("lethe.wal").unwrap().truncate_prefix(0).unwrap();
/// ```
#[derive(Debug)]
pub struct ManifestCommitted(());

// --------------------------------------------------------------- codecs

/// One record as it sits in the log: body length, CRC-32 of the body, body.
fn frame_record(record: &ManifestRecord) -> BytesMut {
    let body = encode_record(record);
    let mut framed = BytesMut::with_capacity(body.len() + 8);
    framed.put_u32(body.len() as u32);
    framed.put_u32(crc32(&body));
    framed.extend_from_slice(&body);
    framed
}

fn encode_record(record: &ManifestRecord) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u8(MANIFEST_VERSION);
    match record {
        ManifestRecord::Snapshot(state) => {
            buf.put_u8(KIND_SNAPSHOT);
            buf.put_u64(state.next_file_id);
            buf.put_u64(state.next_seqnum);
            buf.put_u64(state.clock_micros);
            let files: Vec<&Arc<FileDesc>> = state.files().collect();
            buf.put_u32(files.len() as u32);
            for f in files {
                encode_file(f, &mut buf);
            }
            encode_structure(&state.structure(), &mut buf);
        }
        ManifestRecord::Delta {
            next_file_id,
            next_seqnum,
            clock_micros,
            removed,
            upserted,
            structure,
        } => {
            buf.put_u8(KIND_DELTA);
            buf.put_u64(*next_file_id);
            buf.put_u64(*next_seqnum);
            buf.put_u64(*clock_micros);
            buf.put_u32(removed.len() as u32);
            for id in removed {
                buf.put_u64(*id);
            }
            buf.put_u32(upserted.len() as u32);
            for f in upserted {
                encode_file(f, &mut buf);
            }
            encode_structure(structure, &mut buf);
        }
    }
    buf.freeze()
}

fn decode_record(mut body: Bytes) -> Result<ManifestRecord> {
    if body.remaining() < 2 {
        return Err(StorageError::Corruption("manifest record truncated".into()));
    }
    let version = body.get_u8();
    if version == 0 || version > MANIFEST_VERSION {
        return Err(StorageError::Corruption(format!("unknown manifest version {version}")));
    }
    let kind = body.get_u8();
    if body.remaining() < 24 {
        return Err(StorageError::Corruption("manifest counters truncated".into()));
    }
    let next_file_id = body.get_u64();
    let next_seqnum = body.get_u64();
    let clock_micros = body.get_u64();
    match kind {
        KIND_SNAPSHOT => {
            let n = read_u32(&mut body)? as usize;
            let mut files = BTreeMap::new();
            for _ in 0..n {
                let f = Arc::new(decode_file(&mut body, version)?);
                files.insert(f.id, f);
            }
            let structure = decode_structure(&mut body)?;
            let levels = structure
                .into_iter()
                .map(|level| {
                    level
                        .into_iter()
                        .map(|run| {
                            run.into_iter().filter_map(|id| files.get(&id).cloned()).collect()
                        })
                        .collect()
                })
                .collect();
            Ok(ManifestRecord::Snapshot(ManifestState {
                next_file_id,
                next_seqnum,
                clock_micros,
                levels,
            }))
        }
        KIND_DELTA => {
            let n_removed = read_u32(&mut body)? as usize;
            let mut removed = Vec::with_capacity(n_removed);
            for _ in 0..n_removed {
                removed.push(read_u64(&mut body)?);
            }
            let n_upserted = read_u32(&mut body)? as usize;
            let mut upserted = Vec::with_capacity(n_upserted);
            for _ in 0..n_upserted {
                upserted.push(Arc::new(decode_file(&mut body, version)?));
            }
            let structure = decode_structure(&mut body)?;
            Ok(ManifestRecord::Delta {
                next_file_id,
                next_seqnum,
                clock_micros,
                removed,
                upserted,
                structure,
            })
        }
        k => Err(StorageError::Corruption(format!("unknown manifest record kind {k}"))),
    }
}

fn encode_file(f: &FileDesc, buf: &mut BytesMut) {
    buf.put_u64(f.id);
    buf.put_u64(f.created_at);
    match f.oldest_tombstone_ts {
        Some(ts) => {
            buf.put_u8(1);
            buf.put_u64(ts);
        }
        None => buf.put_u8(0),
    }
    buf.put_u64(f.max_seqnum);
    buf.put_u64(f.min_delete);
    buf.put_u64(f.max_delete);
    buf.put_u32(f.tiles.len() as u32);
    for tile in &f.tiles {
        buf.put_u32(tile.len() as u32);
        for &pid in tile {
            buf.put_u64(pid);
        }
    }
    buf.put_u32(f.range_tombstones.len() as u32);
    for rt in &f.range_tombstones {
        rt.encode_into(buf);
    }
}

fn decode_file(body: &mut Bytes, version: u8) -> Result<FileDesc> {
    let id = read_u64(body)?;
    let created_at = read_u64(body)?;
    let oldest_tombstone_ts = match read_u8(body)? {
        0 => None,
        1 => Some(read_u64(body)?),
        t => {
            return Err(StorageError::Corruption(format!("bad oldest-tombstone tag {t}")));
        }
    };
    let max_seqnum = read_u64(body)?;
    // v1 records predate the per-file delete-key bounds; decode them with
    // the conservative full-domain bounds (pruning never fires, so scans
    // stay exact) — recovery re-derives the exact bounds from page
    // contents, and the next manifest edit persists them as v2
    let (min_delete, max_delete) = if version >= 2 {
        (read_u64(body)?, read_u64(body)?)
    } else {
        (DeleteFence::UNKNOWN.min, DeleteFence::UNKNOWN.max)
    };
    let n_tiles = read_u32(body)? as usize;
    let mut tiles = Vec::with_capacity(n_tiles);
    for _ in 0..n_tiles {
        let n_pages = read_u32(body)? as usize;
        let mut pages = Vec::with_capacity(n_pages);
        for _ in 0..n_pages {
            pages.push(read_u64(body)?);
        }
        tiles.push(pages);
    }
    let n_rts = read_u32(body)? as usize;
    let mut range_tombstones = Vec::with_capacity(n_rts);
    for _ in 0..n_rts {
        range_tombstones.push(Entry::decode_from(body)?);
    }
    Ok(FileDesc {
        id,
        created_at,
        oldest_tombstone_ts,
        max_seqnum,
        min_delete,
        max_delete,
        tiles,
        range_tombstones,
    })
}

fn encode_structure(structure: &[Vec<Vec<u64>>], buf: &mut BytesMut) {
    buf.put_u32(structure.len() as u32);
    for level in structure {
        buf.put_u32(level.len() as u32);
        for run in level {
            buf.put_u32(run.len() as u32);
            for &id in run {
                buf.put_u64(id);
            }
        }
    }
}

fn decode_structure(body: &mut Bytes) -> Result<Vec<Vec<Vec<u64>>>> {
    let n_levels = read_u32(body)? as usize;
    let mut levels = Vec::with_capacity(n_levels);
    for _ in 0..n_levels {
        let n_runs = read_u32(body)? as usize;
        let mut runs = Vec::with_capacity(n_runs);
        for _ in 0..n_runs {
            let n_files = read_u32(body)? as usize;
            let mut ids = Vec::with_capacity(n_files);
            for _ in 0..n_files {
                ids.push(read_u64(body)?);
            }
            runs.push(ids);
        }
        levels.push(runs);
    }
    Ok(levels)
}

fn read_u8(body: &mut Bytes) -> Result<u8> {
    if body.remaining() < 1 {
        return Err(StorageError::Corruption("manifest body truncated".into()));
    }
    Ok(body.get_u8())
}

fn read_u32(body: &mut Bytes) -> Result<u32> {
    if body.remaining() < 4 {
        return Err(StorageError::Corruption("manifest body truncated".into()));
    }
    Ok(body.get_u32())
}

fn read_u64(body: &mut Bytes) -> Result<u64> {
    if body.remaining() < 8 {
        return Err(StorageError::Corruption("manifest body truncated".into()));
    }
    Ok(body.get_u64())
}

#[cfg(test)]
impl ManifestCommitted {
    /// A witness for unit tests that truncate a log with no manifest.
    pub(crate) fn for_test() -> ManifestCommitted {
        ManifestCommitted(())
    }
}

#[cfg(test)]
impl Manifest {
    fn torn_tails_recovered(&self) -> u64 {
        self.log.as_ref().map_or(0, LogFile::torn_tails_recovered)
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the tests write torn tails into manifests on disk, as a crash leaves them"
)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("lethe-manifest-{tag}-{}.manifest", std::process::id()))
    }

    /// Version-1 records (no per-file delete-key bounds) must keep
    /// decoding: old stores stay openable, with the conservative
    /// full-domain bounds that disable pruning but never exclude a file.
    #[test]
    fn decodes_version_1_records_with_conservative_delete_bounds() {
        // hand-build a v1 delta body: one file, one tile of two pages
        let mut body = BytesMut::new();
        body.put_u8(1); // version 1
        body.put_u8(KIND_DELTA);
        body.put_u64(9); // next_file_id
        body.put_u64(90); // next_seqnum
        body.put_u64(900); // clock
        body.put_u32(0); // removed
        body.put_u32(1); // upserted
        body.put_u64(7); // file id
        body.put_u64(107); // created_at
        body.put_u8(0); // no oldest tombstone
        body.put_u64(70); // max_seqnum
        // v1 layout continues straight into the tiles
        body.put_u32(1);
        body.put_u32(2);
        body.put_u64(41);
        body.put_u64(42);
        body.put_u32(0); // range tombstones
        // structure: one level, one run, the one file
        body.put_u32(1);
        body.put_u32(1);
        body.put_u32(1);
        body.put_u64(7);
        let record = decode_record(body.freeze()).expect("v1 record must decode");
        match record {
            ManifestRecord::Delta { upserted, .. } => {
                assert_eq!(upserted.len(), 1);
                let f = &upserted[0];
                assert_eq!(f.id, 7);
                assert_eq!(f.tiles, vec![vec![41, 42]]);
                assert_eq!((f.min_delete, f.max_delete), (0, u64::MAX));
            }
            other => panic!("expected a delta, got {other:?}"),
        }
        // future versions stay rejected
        let mut bad = BytesMut::new();
        bad.put_u8(MANIFEST_VERSION + 1);
        bad.put_u8(KIND_DELTA);
        bad.put_u64(0);
        bad.put_u64(0);
        bad.put_u64(0);
        assert!(decode_record(bad.freeze()).is_err());
    }

    fn file_desc(id: u64, pages: &[u64]) -> FileDesc {
        FileDesc {
            id,
            created_at: 100 + id,
            oldest_tombstone_ts: if id.is_multiple_of(2) { Some(id) } else { None },
            max_seqnum: id * 10,
            min_delete: id,
            max_delete: id * 7 + 3,
            tiles: vec![pages.to_vec()],
            range_tombstones: if id.is_multiple_of(3) {
                vec![Entry::range_tombstone(id, id + 5, id)]
            } else {
                vec![]
            },
        }
    }

    fn state(files_per_level: &[&[u64]], next_file_id: u64) -> ManifestState {
        ManifestState {
            next_file_id,
            next_seqnum: next_file_id * 100,
            clock_micros: next_file_id * 1000,
            levels: files_per_level
                .iter()
                .map(|ids| {
                    vec![ids
                        .iter()
                        .map(|&id| Arc::new(file_desc(id, &[id * 2, id * 2 + 1])))
                        .collect()]
                })
                .collect(),
        }
    }

    #[test]
    fn missing_manifest_recovers_empty_and_is_lazy() {
        let path = tmp_path("lazy");
        let _ = std::fs::remove_file(&path);
        let m = Manifest::open(&path).unwrap();
        assert!(m.state().is_empty());
        assert!(!path.exists(), "open alone must not create the file");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn commit_and_reopen_roundtrips_state() {
        let path = tmp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let s1 = state(&[&[1, 2]], 3);
        let s2 = state(&[&[1, 2], &[3, 4, 5]], 6);
        {
            let mut m = Manifest::open(&path).unwrap();
            m.commit(s1.clone()).unwrap();
            assert!(path.exists());
            m.commit(s2.clone()).unwrap();
        }
        let m = Manifest::open(&path).unwrap();
        assert_eq!(m.state(), &s2);
        assert_eq!(m.torn_tails_recovered(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn deltas_handle_removed_updated_and_added_files() {
        let path = tmp_path("delta");
        let _ = std::fs::remove_file(&path);
        let mut m = Manifest::open(&path).unwrap();
        m.commit(state(&[&[1, 2, 3]], 4)).unwrap();
        // remove 1, keep 2, rewrite 3 in place (same id, new pages), add 4
        let mut s = state(&[&[2, 3, 4]], 5);
        Arc::make_mut(&mut s.levels[0][0][1]).tiles = vec![vec![99, 98]]; // file 3 rewritten
        m.commit(s.clone()).unwrap();
        drop(m);
        let m = Manifest::open(&path).unwrap();
        assert_eq!(m.state(), &s);
        let ids: Vec<u64> = m.state().files().map(|f| f.id).collect();
        assert_eq!(ids, vec![2, 3, 4]);
        assert_eq!(
            m.state().files().find(|f| f.id == 3).unwrap().tiles,
            vec![vec![99, 98]]
        );
        let _ = std::fs::remove_file(&path);
    }

    /// A file that only changes level (a trivial move: the tree hands over
    /// the very descriptor it committed before) costs a delta that names no
    /// file at all, only the new structure.
    #[test]
    fn a_file_that_changes_level_is_a_structure_only_delta() {
        let path = tmp_path("move");
        let _ = std::fs::remove_file(&path);
        let mut m = Manifest::open(&path).unwrap();
        let before = state(&[&[1, 2, 3]], 4);
        m.commit(before.clone()).unwrap();
        let mut after = before.clone();
        let moved = after.levels[0][0].pop().unwrap();
        after.levels.push(vec![vec![moved]]);
        m.commit(after.clone()).unwrap();
        drop(m);

        let mut log = Bytes::from(std::fs::read(&path).unwrap());
        log.advance(8); // magic
        let mut last = None;
        while log.has_remaining() {
            let len = log.get_u32() as usize;
            log.advance(4); // crc
            last = Some(decode_record(log.copy_to_bytes(len)).unwrap());
        }
        match last {
            Some(ManifestRecord::Delta { removed, upserted, structure, .. }) => {
                assert!(removed.is_empty() && upserted.is_empty(), "{removed:?} {upserted:?}");
                assert_eq!(structure, vec![vec![vec![1, 2]], vec![vec![3]]]);
            }
            other => panic!("expected a delta, got {other:?}"),
        }
        assert_eq!(Manifest::open(&path).unwrap().state(), &after);
        let _ = std::fs::remove_file(&path);
    }

    /// The magic, one snapshot record and one delta record, as the commit
    /// before the common log rule wrote them.
    const PARENT_LOG_HEX: &str = "\
        4c455448454d414e000000772d72492b0200000000000000000200000000000000c8000000000000\
        07d0000000010000000000000001000000000000006500000000000000000a000000000000000100\
        0000000000000a000000010000000200000000000000020000000000000003000000000000000100\
        000001000000010000000000000001000000ac9af043d30201000000000000000400000000000001\
        900000000000000fa000000000000000010000000000000003000000000000006700000000000000\
        001e0000000000000003000000000000001800000001000000020000000000000006000000000000\
        00070000000100000000000000030000000000000000000000000000000302000000000000000800\
        0000020000000100000001000000000000000100000001000000010000000000000003";

    #[test]
    fn logs_written_before_this_change_still_open() {
        let bytes = crate::log::tests::hex(PARENT_LOG_HEX);
        let path = tmp_path("parent");
        std::fs::write(&path, &bytes).unwrap();
        let (first, second) = (state(&[&[1]], 2), state(&[&[1], &[3]], 4));
        assert_eq!(Manifest::open(&path).unwrap().state(), &second);
        // and a fresh manifest writes the same bytes for the same commits
        std::fs::remove_file(&path).unwrap();
        let mut m = Manifest::open(&path).unwrap();
        m.commit(first).unwrap();
        m.commit(second).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_recovers_previous_commit() {
        let path = tmp_path("torn");
        let _ = std::fs::remove_file(&path);
        let s1 = state(&[&[1]], 2);
        {
            let mut m = Manifest::open(&path).unwrap();
            m.commit(s1.clone()).unwrap();
            m.commit(state(&[&[1, 2]], 3)).unwrap();
        }
        // chop the last record in half: a crash mid-append
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 7).unwrap();
        drop(f);
        let m = Manifest::open(&path).unwrap();
        assert_eq!(m.state(), &s1, "must fall back to the last intact record");
        assert_eq!(m.torn_tails_recovered(), 1);
        // and the torn bytes are gone
        drop(m);
        let m = Manifest::open(&path).unwrap();
        assert_eq!(m.torn_tails_recovered(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_committed_record_is_an_error() {
        let path = tmp_path("corrupt");
        let _ = std::fs::remove_file(&path);
        {
            let mut m = Manifest::open(&path).unwrap();
            m.commit(state(&[&[1]], 2)).unwrap();
            m.commit(state(&[&[1, 2]], 3)).unwrap();
        }
        // flip a byte inside the FIRST record's body (not the tail)
        let mut data = std::fs::read(&path).unwrap();
        data[14] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        // a CRC failure with committed records *behind* it cannot be a torn
        // tail (the log is append-only): recovery must refuse to silently
        // roll the store back, and must not touch the file
        let before = std::fs::read(&path).unwrap();
        assert!(matches!(Manifest::open(&path), Err(StorageError::Corruption(_))));
        assert_eq!(std::fs::read(&path).unwrap(), before, "open must not modify a corrupt log");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crc_failure_on_last_record_is_a_torn_tail() {
        let path = tmp_path("lastcrc");
        let _ = std::fs::remove_file(&path);
        let s1 = state(&[&[1]], 2);
        {
            let mut m = Manifest::open(&path).unwrap();
            m.commit(s1.clone()).unwrap();
            m.commit(state(&[&[1, 2]], 3)).unwrap();
        }
        // damage the LAST record's body: indistinguishable from a crash
        // mid-append, so recovery falls back to the previous commit
        let mut data = std::fs::read(&path).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let m = Manifest::open(&path).unwrap();
        assert_eq!(m.state(), &s1);
        assert_eq!(m.torn_tails_recovered(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn log_folds_into_snapshot_past_threshold() {
        let path = tmp_path("fold");
        let _ = std::fs::remove_file(&path);
        let mut m = Manifest::open(&path).unwrap();
        for i in 0..(REWRITE_THRESHOLD as u64 + 8) {
            m.commit(state(&[&[1]], i + 2)).unwrap();
        }
        let size_after = std::fs::metadata(&path).unwrap().len();
        // a folded log is one snapshot plus at most a handful of deltas
        assert!(m.records_since_rewrite < REWRITE_THRESHOLD);
        assert!(size_after < 16 * 1024, "log must not grow without bound: {size_after}");
        let reopened = Manifest::open(&path).unwrap();
        assert_eq!(reopened.state(), m.state());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failpoint_aborts_commit_without_durable_change() {
        let path = tmp_path("fp");
        let _ = std::fs::remove_file(&path);
        let fp = FailPoint::new();
        let mut m = Manifest::open(&path).unwrap();
        m.set_failpoint(fp.clone());
        let s1 = state(&[&[1]], 2);
        m.commit(s1.clone()).unwrap();
        // kill the next delta append
        fp.arm(0);
        assert!(matches!(m.commit(state(&[&[1, 2]], 3)), Err(StorageError::Injected)));
        drop(m);
        let m = Manifest::open(&path).unwrap();
        assert_eq!(m.state(), &s1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failpoint_mid_rewrite_keeps_old_or_new_state() {
        // kill the rewrite at each of its two durable steps: before the tmp
        // file is written and between tmp write and rename
        for kill_at in [0u64, 1] {
            let path = tmp_path(&format!("fpr{kill_at}"));
            let _ = std::fs::remove_file(&path);
            let fp = FailPoint::new();
            let mut m = Manifest::open(&path).unwrap();
            m.set_failpoint(fp.clone());
            let mut last_good = ManifestState::default();
            let mut i = 0u64;
            // drive commits until one lands on the rewrite path and dies
            let crashed = loop {
                i += 1;
                let s = state(&[&[1]], i + 1);
                if m.records_since_rewrite >= REWRITE_THRESHOLD {
                    fp.arm(kill_at);
                }
                match m.commit(s.clone()) {
                    Ok(_) => last_good = s,
                    Err(StorageError::Injected) => break true,
                    Err(e) => panic!("unexpected error: {e}"),
                }
                if i > 3 * REWRITE_THRESHOLD as u64 {
                    break false;
                }
            };
            assert!(crashed, "rewrite kill point was never reached");
            let m = Manifest::open(&path).unwrap();
            assert_eq!(m.state(), &last_good, "kill_at={kill_at}");
            let _ = std::fs::remove_file(&path);
            let _ = std::fs::remove_file(path.with_extension("manifest.tmp"));
        }
    }
}
