//! The framed log every durable file is: one layout, one encoder, one
//! recovery rule, one tail cut.
//!
//! The WAL, the manifest, the batch-commit log and the page segments are
//! append-only sequences of frames behind a file magic:
//!
//! ```text
//! file  := magic · frame*
//! frame := ext · len (u32 BE) · sum(body) (u32 BE) · body
//! ext   := tag · fields
//! ```
//!
//! `ext` is a fixed-length header extension: the tag of the frame's [`Kind`],
//! which names the checksum `sum`, then the fields the file kind gives every
//! frame. Each file kind declares its magic, its extension and its kinds of
//! frame as a [`Format`] value:
//!
//! | kind         | magic      | ext                    | sum                   |
//! |--------------|------------|------------------------|-----------------------|
//! | WAL          | `LETHEWAL` | none                   | CRC-32                |
//! | manifest     | `LETHEMAN` | none                   | CRC-32                |
//! | batch log    | `LETHEBAT` | none                   | CRC-32                |
//! | page segment | none       | `LEFX` · page id (u64) | XXH64, low 32 bits    |
//! |              |            | `LEFR` · page id (u64) | CRC-32 (older frames) |
//!
//! New page frames are `LEFX`; a segment written before them holds `LEFR`
//! frames, and a store's newest segment may hold both, the older first. See
//! [`checksum`](crate::checksum) for the two kernels and their trade. A
//! sealed segment ends in its index frame, an `LEFX` frame under the page id
//! `u64::MAX` that no page has; to [`scan`] it is one more frame (see
//! [`FileBackend`](crate::FileBackend)).
//!
//! [`frame`] is the only code that lays out a length and a checksum. A
//! crash mid-append only damages the end of a file, so [`scan`] holds one
//! rule for all four: a short header, a body past end-of-file, or a frame
//! that fails its checksum and ends exactly at end-of-file is a **torn
//! tail**; a bad frame with bytes behind it, a full header without one of
//! its kind's tags, or a tail longer than its kind's [`Format::max_tail`],
//! is `Corruption`.

use crate::barrier;
use crate::checksum::{crc32, xxh64};
use crate::error::{Result, StorageError};
use crate::vfs::{Vfs, VfsFile};
use bytes::{Buf, Bytes};
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The checksum a kind of frame carries over its body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sum {
    /// [`crc32`].
    Crc32,
    /// The low 32 bits of [`xxh64`].
    Xxh64,
}

impl Sum {
    /// The checksum of `body`.
    pub fn of(self, body: &[u8]) -> u32 {
        match self {
            Sum::Crc32 => crc32(body),
            Sum::Xxh64 => xxh64(body) as u32,
        }
    }
}

/// One kind of frame: the tag its header extension starts with, and the
/// checksum it carries.
#[derive(Debug)]
pub struct Kind {
    /// The bytes the extension starts with. A torn append of a whole header
    /// still wrote them, so a full header without a known tag is not a torn
    /// tail.
    pub tag: &'static [u8],
    /// The checksum over the body.
    pub sum: Sum,
}

/// The one kind of frame of the WAL, the manifest and the batch log: no
/// tag, CRC-32.
pub(crate) const UNTAGGED: Kind = Kind { tag: b"", sum: Sum::Crc32 };

/// One file kind's layout.
#[derive(Debug)]
pub struct Format {
    /// The bytes every file of the kind starts with.
    pub magic: &'static [u8],
    /// Length of the extension every frame's header starts with: its kind's
    /// tag, then its fields.
    pub ext_len: usize,
    /// The kind of frame [`frame`] writes.
    pub kind: Kind,
    /// Kinds of frame written before `kind`, which [`scan`] still reads.
    pub older: &'static [Kind],
    /// The most bytes a crash can leave behind the last intact frame: a
    /// kind that appends and syncs one fixed-length frame at a time tears
    /// at most one frame, so a longer bad tail is damage (say, a flipped
    /// high bit in a length field), not a torn append.
    pub max_tail: u64,
}

impl Format {
    /// Length of a frame's header: the extension, the body length and the
    /// body's checksum.
    pub const fn header_len(&self) -> usize {
        self.ext_len + 8
    }

    /// The kind of the frame whose header starts `header`, if its tag is
    /// one of this format's.
    pub(crate) fn kind_of(&self, header: &[u8]) -> Option<&Kind> {
        std::iter::once(&self.kind).chain(self.older).find(|kind| header.starts_with(kind.tag))
    }
}

/// One frame of a `format` file, of the kind it writes:
/// `tag · fields · len (u32 BE) · sum(body) (u32 BE) · body`.
pub fn frame(format: &Format, fields: &[u8], body: &[u8]) -> Vec<u8> {
    let Kind { tag, sum } = &format.kind;
    let (len, sum) = ((body.len() as u32).to_be_bytes(), sum.of(body).to_be_bytes());
    [tag, fields, &len, &sum, body].concat()
}

/// Sequential reads of the first `len` bytes of a file, one positional read
/// per call, for a `BufReader` to batch.
struct Cursor<'a> {
    file: &'a dyn VfsFile,
    pos: u64,
    len: u64,
}

impl Read for Cursor<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min((self.len - self.pos) as usize);
        self.file.read_at(&mut buf[..n], self.pos)?;
        self.pos += n as u64;
        Ok(n)
    }
}

/// `Corruption` found in the file at `path`, named by its path.
fn corrupt(path: &Path, what: impl std::fmt::Display) -> StorageError {
    StorageError::Corruption(format!("{path:?}: {what}"))
}

/// Scans the frames of `file`, a `format` file, calling
/// `visit(offset, fields, body)` on each intact one in order (`fields` is
/// its extension behind the tag), and returns where
/// a torn tail, if any, begins. Errors from `visit` propagate; a
/// `Corruption` it reports is named by the file's path and the frame's
/// offset. One frame is in memory at a time.
pub fn scan(
    file: &dyn VfsFile,
    path: &Path,
    format: &Format,
    mut visit: impl FnMut(u64, &[u8], &[u8]) -> Result<()>,
) -> Result<u64> {
    let len = file.len()?;
    let mut end = format.magic.len() as u64;
    if len < end {
        return Ok(0); // not even the magic survived: the whole file is torn
    }
    let mut reader = BufReader::new(Cursor { file, pos: 0, len });
    let mut header = vec![0u8; format.magic.len()];
    reader.read_exact(&mut header)?;
    if header != format.magic {
        return Err(corrupt(path, "bad file magic"));
    }
    let ext_len = format.ext_len;
    header.resize(format.header_len(), 0);
    let mut body = Vec::new();
    while end + header.len() as u64 <= len {
        reader.read_exact(&mut header)?;
        let Some(kind) = format.kind_of(&header) else {
            return Err(corrupt(path, format_args!("no frame starts at offset {end}")));
        };
        let frame_end = end + (header.len() as u64 + be(&header[ext_len..ext_len + 4]));
        if frame_end > len {
            break; // torn tail: the header promises more bytes than exist
        }
        body.resize((frame_end - end) as usize - header.len(), 0);
        reader.read_exact(&mut body)?;
        if be(&header[ext_len + 4..]) != u64::from(kind.sum.of(&body)) {
            if frame_end == len {
                break; // torn tail: the last frame was damaged mid-append
            }
            return Err(corrupt(
                path,
                format_args!(
                    "frame at offset {end} failed its checksum with {} bytes of later frames \
                     behind it (mid-log corruption, not a torn tail)",
                    len - frame_end
                ),
            ));
        }
        visit(end, &header[kind.tag.len()..ext_len], &body).map_err(|e| match e {
            StorageError::Corruption(what) => {
                corrupt(path, format_args!("frame at offset {end}: {what}"))
            }
            e => e,
        })?;
        end = frame_end;
    }
    if len - end > format.max_tail {
        let tail = len - end;
        return Err(corrupt(path, format!("{tail} bad bytes at offset {end}: too many to be torn")));
    }
    Ok(end)
}

/// Cuts `file` back to `end` if anything lies behind it, with one `sync_all`
/// charged to `fsyncs`. Returns whether it cut.
pub fn cut_tail(file: &dyn VfsFile, end: u64, fsyncs: &AtomicU64) -> Result<bool> {
    if file.len()? <= end {
        return Ok(false);
    }
    file.set_len(end)?;
    barrier::sync_all_counted(file, fsyncs)?;
    Ok(true)
}

/// The big-endian number `bytes` spell (at most eight of them).
pub(crate) fn be(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0, |n, &b| n << 8 | u64::from(b))
}

/// Fails with `Corruption` unless `body` holds `n` more bytes. The frame
/// bodies' decoders read through this, and [`scan`] names the file and the
/// frame a failure comes from.
fn need(body: &Bytes, n: usize) -> Result<()> {
    if body.remaining() < n {
        return Err(StorageError::Corruption("frame body truncated".into()));
    }
    Ok(())
}

/// The next byte of a frame body.
pub(crate) fn read_u8(body: &mut Bytes) -> Result<u8> {
    need(body, 1).map(|()| body.get_u8())
}

/// The next big-endian `u32` of a frame body.
pub(crate) fn read_u32(body: &mut Bytes) -> Result<u32> {
    need(body, 4).map(|()| body.get_u32())
}

/// The next big-endian `u64` of a frame body.
pub(crate) fn read_u64(body: &mut Bytes) -> Result<u64> {
    need(body, 8).map(|()| body.get_u64())
}

/// The next `len` bytes of a frame body.
pub(crate) fn read_bytes(body: &mut Bytes, len: usize) -> Result<Bytes> {
    need(body, len).map(|()| body.copy_to_bytes(len))
}

/// A `u32` count, then that many items `item` reads, of a frame body.
pub(crate) fn read_list<T>(
    body: &mut Bytes,
    mut item: impl FnMut(&mut Bytes) -> Result<T>,
) -> Result<Vec<T>> {
    (0..read_u32(body)?).map(|_| item(body)).collect()
}

/// A framed log: its file system, path and read + append handle, and the
/// counter its durability barriers are charged to.
///
/// A failed append, barrier or [`LogFile::replace`] poisons the log: the
/// append may have landed part of a frame, which a later frame would turn
/// into mid-log corruption; the barrier may have lost what it was to make
/// durable; the rename may have landed, leaving the handle on the replaced
/// file. So every later append, barrier and replace fails until the log is
/// reopened.
#[derive(Debug)]
pub struct LogFile {
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
    file: Arc<dyn VfsFile>,
    fsyncs: AtomicU64,
    torn_tails: u64,
    poisoned: AtomicBool,
    /// No barrier this log issued has made its directory entry durable:
    /// [`LogFile::sync_entry`] syncs the directory once.
    unsynced_entry: AtomicBool,
}

impl LogFile {
    /// Opens the log at `path` on `vfs` for reading and appending; with
    /// `create`, a missing file and its directory are created.
    pub fn open(vfs: &Arc<dyn Vfs>, path: &Path, create: bool) -> Result<LogFile> {
        if let Some(parent) = path.parent().filter(|p| create && !p.as_os_str().is_empty()) {
            vfs.create_dir_all(parent)?;
        }
        let file = vfs.open(path, create)?;
        let log = LogFile::on(vfs, path, file, AtomicU64::new(0));
        // the file may be new, or left by a process whose barriers never
        // reached its directory entry: nothing on disk says which
        log.unsynced_entry.store(true, Ordering::Relaxed);
        Ok(log)
    }

    /// The log at `path` on `vfs` through `file`, its barriers so far
    /// counted in `fsyncs`.
    fn on(vfs: &Arc<dyn Vfs>, path: &Path, file: Arc<dyn VfsFile>, fsyncs: AtomicU64) -> LogFile {
        let (vfs, path) = (Arc::clone(vfs), path.to_path_buf());
        let (poisoned, unsynced_entry) = (AtomicBool::new(false), AtomicBool::new(false));
        LogFile { vfs, path, file, fsyncs, torn_tails: 0, poisoned, unsynced_entry }
    }

    /// Opens (or creates) the log at `path` on `vfs` as a `format` file,
    /// before anything is appended to it:
    /// - a file that starts with the magic is opened as it is;
    /// - an empty file, or one whose magic tore, is cut to empty and gets
    ///   the magic as a plain append, with no barrier of its own: the log's
    ///   first barrier covers it;
    /// - any other file was written before `format`: `v1` turns its bytes
    ///   into `format`'s frames, and they replace it. A file at least as
    ///   long as the magic of which `v1` keeps no frame is `Corruption` and
    ///   is left as it is: it is far likelier a `format` file with a
    ///   damaged magic than a version-1 file whose only record tore, which
    ///   held nothing acknowledged.
    ///
    /// So no file ever mixes versions.
    pub fn open_versioned(
        vfs: &Arc<dyn Vfs>,
        path: &Path,
        format: &Format,
        tmp_extension: &str,
        v1: impl FnOnce(&[u8]) -> Result<Vec<u8>>,
    ) -> Result<LogFile> {
        let mut log = LogFile::open(vfs, path, true)?;
        let len = log.file.len()?;
        let mut head = vec![0u8; format.magic.len().min(len as usize)];
        log.file.read_at(&mut head, 0)?;
        if format.magic.starts_with(&head) {
            if head.len() < format.magic.len() {
                log.torn_tails += u64::from(cut_tail(log.file.as_ref(), 0, &log.fsyncs)?);
                log.append(format.magic)?;
            }
            return Ok(log);
        }
        let mut bytes = vec![0u8; len as usize];
        log.file.read_at(&mut bytes, 0)?;
        let frames = v1(&bytes).map_err(|e| match e {
            StorageError::Corruption(what) => corrupt(path, what),
            e => e,
        })?;
        if frames.is_empty() && len >= format.magic.len() as u64 {
            return Err(corrupt(path, "bad file magic, and no version-1 record either"));
        }
        log.replace(format, tmp_extension, &frames)?;
        Ok(log)
    }

    /// Creates the `format` log at `path` on `vfs`, holding `frames`,
    /// through [`barrier::publish`].
    pub fn publish(
        vfs: &Arc<dyn Vfs>,
        path: &Path,
        format: &Format,
        tmp_extension: &str,
        frames: &[u8],
    ) -> Result<LogFile> {
        let (tmp, fsyncs) = (path.with_extension(tmp_extension), AtomicU64::new(0));
        let contents = [format.magic, frames].concat();
        let file = barrier::publish(vfs.as_ref(), path, &tmp, &fsyncs, &contents)?;
        Ok(LogFile::on(vfs, path, file, fsyncs))
    }

    /// [`scan`]s the log as a `format` file and cuts a torn tail away; a
    /// failed scan cuts nothing.
    pub fn recover(
        &mut self,
        format: &Format,
        visit: impl FnMut(u64, &[u8], &[u8]) -> Result<()>,
    ) -> Result<()> {
        let end = scan(self.file.as_ref(), &self.path, format, visit)?;
        self.torn_tails += u64::from(cut_tail(self.file.as_ref(), end, &self.fsyncs)?);
        Ok(())
    }

    /// Appends `bytes`, with no barrier.
    pub fn append(&self, bytes: &[u8]) -> Result<()> {
        self.write(|file| Ok(file.append(bytes)?))
    }

    /// `fdatasync`s the log through the counted barrier.
    pub fn sync_data(&self) -> Result<()> {
        self.write(|file| barrier::sync_data_counted(file, &self.fsyncs))
    }

    /// `fsync`s the log through the counted barrier.
    pub fn sync_all(&self) -> Result<()> {
        self.write(|file| barrier::sync_all_counted(file, &self.fsyncs))
    }

    /// Syncs the log's directory through the counted barrier, once per
    /// open unless a [`LogFile::replace`] did: a barrier on the file is
    /// worth nothing if a power loss can drop the file's name.
    pub(crate) fn sync_entry(&self) -> Result<()> {
        if self.unsynced_entry.load(Ordering::Relaxed) {
            let (vfs, path) = (self.vfs.as_ref(), &self.path);
            self.write(|_| barrier::fsync_dir_counted(vfs, path, &self.fsyncs))?;
            self.unsynced_entry.store(false, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Replaces the log's content with `format`'s magic and `frames` through
    /// [`barrier::publish`], and appends to the new file.
    pub fn replace(&mut self, format: &Format, tmp_extension: &str, frames: &[u8]) -> Result<()> {
        let (vfs, tmp) = (self.vfs.as_ref(), self.path.with_extension(tmp_extension));
        let contents = [format.magic, frames].concat();
        let path = &self.path;
        self.file = self.write(|_| barrier::publish(vfs, path, &tmp, &self.fsyncs, &contents))?;
        // the publish synced the directory behind its rename
        self.unsynced_entry.store(false, Ordering::Relaxed);
        Ok(())
    }

    /// Runs `op` on the file unless the log is poisoned, and poisons it if
    /// `op` fails.
    fn write<T>(&self, op: impl FnOnce(&dyn VfsFile) -> Result<T>) -> Result<T> {
        if self.poisoned.load(Ordering::Relaxed) {
            let path = &self.path;
            return Err(StorageError::InvalidOperation(format!(
                "{path:?} is poisoned: a write or a barrier failed; reopen it"
            )));
        }
        op(self.file.as_ref()).inspect_err(|_| self.poisoned.store(true, Ordering::Relaxed))
    }

    /// Whether a failed append, barrier or replace has poisoned the log.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
    }

    /// Durability barriers issued on this log.
    pub fn fsync_count(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// Torn tails [`LogFile::recover`] has cut away.
    pub fn torn_tails_recovered(&self) -> u64 {
        self.torn_tails
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "the tests lay out logs on disk byte by byte")]
pub(crate) mod tests {
    use super::*;
    use crate::backend::PAGES;

    /// The bytes a known-answer vector spells in hex.
    pub(crate) fn hex(digits: &str) -> Vec<u8> {
        let byte = |i| u8::from_str_radix(&digits[i..i + 2], 16).unwrap();
        (0..digits.len()).step_by(2).map(byte).collect()
    }

    /// The page layout as segments were written before `LEFX` frames:
    /// `LEFR` frames, with CRC-32.
    const PAGES_V1: Format =
        Format { kind: Kind { tag: b"LEFR", sum: Sum::Crc32 }, older: &[], ..PAGES };

    /// A `format` page frame holding `body` as page 7.
    fn good(format: &Format, body: &[u8]) -> Vec<u8> {
        frame(format, &7u64.to_be_bytes(), body)
    }

    /// [`good`] with the first bit of its (non-empty) body flipped.
    fn bad(format: &Format, body: &[u8]) -> Vec<u8> {
        let mut frame = good(format, body);
        frame[format.header_len()] ^= 1;
        frame
    }

    /// What recovering one file must do.
    #[derive(Debug)]
    enum Expect {
        /// Visits these bodies, and cuts the file to `end` with one barrier
        /// when it is shorter than the file.
        Recovers { bodies: &'static [&'static [u8]], end: usize },
        /// Fails with `Corruption` and leaves the file byte-identical.
        Corrupt,
        /// Fails with the visitor's own error and leaves the file alone.
        VisitorError,
    }

    #[test]
    fn one_rule_for_every_branch() {
        let cat = |parts: &[Vec<u8>]| parts.concat();
        let header = PAGES.header_len();
        let mut rows: Vec<(String, Vec<u8>, Expect)> = Vec::new();
        // every row on both kinds of page frame, each scanned by the one
        // page format that reads both
        for format in [&PAGES, &PAGES_V1] {
            let (good, bad) = (|body| good(format, body), |body| bad(format, body));
            let mut wrong_tag = good(b"");
            wrong_tag[0] = b'X';
            let kind_rows = [
                ("empty file", vec![], Expect::Recovers { bodies: &[], end: 0 }),
                (
                    "clean log",
                    cat(&[good(b"ab"), good(b""), good(b"cde")]),
                    Expect::Recovers { bodies: &[b"ab", b"", b"cde"], end: 3 * header + 5 },
                ),
                (
                    "short header",
                    cat(&[good(b"ab"), good(b"cdefg")[..header - 1].to_vec()]),
                    Expect::Recovers { bodies: &[b"ab"], end: header + 2 },
                ),
                (
                    "body past end of file",
                    cat(&[good(b"ab"), good(b"cdefg")[..header + 2].to_vec()]),
                    Expect::Recovers { bodies: &[b"ab"], end: header + 2 },
                ),
                (
                    "flipped body bit in the last frame",
                    cat(&[good(b"ab"), bad(b"cd")]),
                    Expect::Recovers { bodies: &[b"ab"], end: header + 2 },
                ),
                (
                    "flipped body bit with a good frame behind it",
                    cat(&[good(b"ab"), bad(b"cd"), good(b"ef")]),
                    Expect::Corrupt,
                ),
                (
                    "full header with a wrong page tag",
                    cat(&[good(b"ab"), wrong_tag]),
                    Expect::Corrupt,
                ),
                (
                    "visitor error",
                    cat(&[good(b"ab"), good(b"no"), vec![b'L']]),
                    Expect::VisitorError,
                ),
            ];
            let tag = String::from_utf8_lossy(format.kind.tag).into_owned();
            rows.extend(kind_rows.into_iter().map(|(name, bytes, expect)| {
                (format!("{tag}: {name}"), bytes, expect)
            }));
        }
        // a segment written before `LEFX` frames and appended to since
        rows.push((
            "LEFR frames, then LEFX frames".into(),
            cat(&[good(&PAGES_V1, b"ab"), good(&PAGES, b"cd"), bad(&PAGES, b"ef")]),
            Expect::Recovers { bodies: &[b"ab", b"cd"], end: 2 * header + 4 },
        ));
        let path = std::env::temp_dir().join(format!("lethe-log-{}.bin", std::process::id()));
        for (name, bytes, expect) in rows {
            std::fs::write(&path, &bytes).unwrap();
            let mut log = LogFile::open(&crate::vfs::OsVfs::shared(), &path, false).unwrap();
            let mut bodies: Vec<Vec<u8>> = Vec::new();
            let result = log.recover(&PAGES, |_, fields, body| {
                assert_eq!(fields, 7u64.to_be_bytes(), "{name}");
                if body == b"no" {
                    return Err(StorageError::InvalidOperation("visitor refused".into()));
                }
                bodies.push(body.to_vec());
                Ok(())
            });
            let after = std::fs::read(&path).unwrap();
            match expect {
                Expect::Recovers { bodies: want, end } => {
                    result.unwrap_or_else(|e| panic!("{name}: {e}"));
                    assert_eq!(bodies, want, "{name}");
                    assert_eq!(after, bytes[..end], "{name}");
                    let cut = u64::from(end < bytes.len());
                    assert_eq!(log.fsync_count(), cut, "{name}: one barrier per cut");
                    assert_eq!(log.torn_tails_recovered(), cut, "{name}");
                }
                Expect::Corrupt => {
                    assert!(
                        matches!(result, Err(StorageError::Corruption(_))),
                        "{name}: {result:?}"
                    );
                    assert_eq!(after, bytes, "{name}: a failed recover cuts nothing");
                    assert_eq!(log.fsync_count(), 0, "{name}");
                }
                Expect::VisitorError => {
                    assert!(
                        matches!(result, Err(StorageError::InvalidOperation(_))),
                        "{name}: {result:?}"
                    );
                    assert_eq!(after, bytes, "{name}: a failed recover cuts nothing");
                    assert_eq!(log.fsync_count(), 0, "{name}");
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A format with a magic and no extension, as the WAL's.
    const HEADED: Format = crate::wal::FORMAT;

    #[test]
    fn the_file_magic_is_checked_before_the_frames_and_appends_follow_the_cut() {
        let path = std::env::temp_dir().join(format!("lethe-log-magic-{}.bin", std::process::id()));
        let magic = HEADED.magic;
        let recover = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            let mut log = LogFile::open(&crate::vfs::OsVfs::shared(), &path, false).unwrap();
            let mut seen = Vec::new();
            let result = log.recover(&HEADED, |at, _, body| {
                seen.push((at, body.to_vec()));
                Ok(())
            });
            (result.map(|()| seen), log)
        };
        // a file too short to hold its magic is one torn tail
        let (seen, log) = recover(&magic[..4]);
        assert_eq!(seen.unwrap(), vec![]);
        assert_eq!((log.torn_tails_recovered(), log.fsync_count()), (1, 1));
        assert_eq!(std::fs::read(&path).unwrap(), b"");
        // a wrong magic is corruption, and cuts nothing
        let wrong = [b"LETHE???".to_vec(), frame(&HEADED, &[], b"ab")].concat();
        assert!(matches!(recover(&wrong).0, Err(StorageError::Corruption(_))));
        assert_eq!(std::fs::read(&path).unwrap(), wrong);
        // frames start behind the magic
        let (seen, log) = recover(&[magic, &frame(&HEADED, &[], b"ab"), b"L"].concat());
        assert_eq!(seen.unwrap(), vec![(8, b"ab".to_vec())]);
        log.append(&frame(&HEADED, &[], b"cd")).unwrap();
        log.sync_data().unwrap();
        assert_eq!(log.fsync_count(), 2, "the cut and the sync");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            [magic, &frame(&HEADED, &[], b"ab"), &frame(&HEADED, &[], b"cd")].concat()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_fresh_or_torn_magic_log_gets_its_magic_with_no_barrier_of_its_own() {
        let vfs = crate::vfs::MemVfs::shared();
        let path = Path::new("/fresh.log");
        let refuse = |_: &[u8]| -> Result<Vec<u8>> { panic!("not a v1 file") };
        let log = LogFile::open_versioned(&vfs, path, &HEADED, "tmp", refuse).unwrap();
        assert_eq!((log.fsync_count(), log.torn_tails_recovered()), (0, 0));
        assert_eq!(vfs.read(path).unwrap(), HEADED.magic);
        // reopening leaves a whole magic alone
        let log = LogFile::open_versioned(&vfs, path, &HEADED, "tmp", refuse).unwrap();
        assert_eq!(log.fsync_count(), 0);
        // a torn magic is cut (one barrier) and written again (none)
        vfs.open(path, false).unwrap().set_len(3).unwrap();
        let log = LogFile::open_versioned(&vfs, path, &HEADED, "tmp", refuse).unwrap();
        assert_eq!((log.fsync_count(), log.torn_tails_recovered()), (1, 1));
        assert_eq!(vfs.read(path).unwrap(), HEADED.magic);
        // anything else is a v1 file, republished behind the magic
        vfs.open(path, false).unwrap().set_len(0).unwrap();
        vfs.open(path, false).unwrap().append(b"old!").unwrap();
        let upgrade = |old: &[u8]| Ok(frame(&HEADED, &[], old));
        let log = LogFile::open_versioned(&vfs, path, &HEADED, "tmp", upgrade).unwrap();
        assert_eq!(vfs.read(path).unwrap(), [HEADED.magic, &frame(&HEADED, &[], b"old!")].concat());
        assert_eq!(log.fsync_count(), 2, "the publish's file and directory barriers");
    }
}
