//! The framed log every durable file is: one recovery rule, one tail cut.
//!
//! The WAL, the manifest, the batch-commit log and the page segments are
//! append-only sequences of frames, each a fixed-length prefix and the body
//! it gives the length of. A crash mid-append only damages the end of such a
//! file, so [`scan`] holds one rule for all four: a short prefix, a body past
//! end-of-file, or a frame that fails its checksum and ends exactly at
//! end-of-file is a **torn tail**; a bad frame with bytes behind it, or a
//! prefix no frame starts with, is `Corruption`.

use crate::barrier;
use crate::error::{Result, StorageError};
use crate::vfs::{Vfs, VfsFile};
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One file format's layout.
pub trait Frame {
    /// The bytes every file of the format starts with.
    const MAGIC: &'static [u8] = b"";
    /// Length of the fixed prefix every frame starts with.
    const PREFIX: usize;
    /// Length of the body that follows `prefix`; `None` for a prefix that
    /// cannot start a frame, which [`scan`] reports as `Corruption`.
    fn body_len(prefix: &[u8]) -> Option<usize>;
    /// Whether `body` is the one `prefix` describes (its checksum holds).
    fn intact(_prefix: &[u8], _body: &[u8]) -> bool {
        true
    }
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

/// Scans the frames of `file`, calling `visit(offset, prefix, body)` on each
/// intact one in order, and returns where a torn tail, if any, begins.
/// Errors from `visit` propagate. One frame is in memory at a time.
pub fn scan<F: Frame>(
    file: &dyn VfsFile,
    path: &Path,
    mut visit: impl FnMut(u64, &[u8], &[u8]) -> Result<()>,
) -> Result<u64> {
    let corrupt = |what: String| StorageError::Corruption(format!("{path:?}: {what}"));
    let len = file.len()?;
    let mut end = F::MAGIC.len() as u64;
    if len < end {
        return Ok(0); // not even the magic survived: the whole file is torn
    }
    let mut reader = BufReader::new(Cursor { file, pos: 0, len });
    let mut prefix = vec![0u8; F::MAGIC.len()];
    reader.read_exact(&mut prefix)?;
    if prefix != F::MAGIC {
        return Err(corrupt("bad file magic".into()));
    }
    prefix.resize(F::PREFIX, 0);
    let mut body = Vec::new();
    while end + F::PREFIX as u64 <= len {
        reader.read_exact(&mut prefix)?;
        let body_len = F::body_len(&prefix)
            .ok_or_else(|| corrupt(format!("no frame starts with the prefix at offset {end}")))?;
        let frame_end = end + (F::PREFIX + body_len) as u64;
        if frame_end > len {
            break; // torn tail: the prefix promises more bytes than exist
        }
        body.resize(body_len, 0);
        reader.read_exact(&mut body)?;
        if !F::intact(&prefix, &body) {
            if frame_end == len {
                break; // torn tail: the last frame was damaged mid-append
            }
            return Err(corrupt(format!(
                "frame at offset {end} failed its checksum with {} bytes of later frames \
                 behind it (mid-log corruption, not a torn tail)",
                len - frame_end
            )));
        }
        visit(end, &prefix, &body)?;
        end = frame_end;
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

/// A framed log: its file system, path and read + append handle, and the
/// counter its durability barriers are charged to.
///
/// A failed [`LogFile::replace`] poisons the log: its rename may have
/// landed, leaving the handle on the replaced file, so every later append,
/// barrier and replace fails until the log is reopened.
#[derive(Debug)]
pub struct LogFile {
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
    file: Arc<dyn VfsFile>,
    fsyncs: AtomicU64,
    torn_tails: u64,
    poisoned: bool,
}

impl LogFile {
    /// Opens the log at `path` on `vfs` for reading and appending; with
    /// `create`, a missing file and its directory are created.
    pub fn open(vfs: &Arc<dyn Vfs>, path: &Path, create: bool) -> Result<LogFile> {
        if let Some(parent) = path.parent().filter(|p| create && !p.as_os_str().is_empty()) {
            vfs.create_dir_all(parent)?;
        }
        let (vfs, path, file) = (Arc::clone(vfs), path.to_path_buf(), vfs.open(path, create)?);
        Ok(LogFile { vfs, path, file, fsyncs: AtomicU64::new(0), torn_tails: 0, poisoned: false })
    }

    /// Creates the log at `path` on `vfs` through [`barrier::publish`].
    pub fn publish(
        vfs: &Arc<dyn Vfs>,
        path: &Path,
        tmp_extension: &str,
        contents: &[u8],
    ) -> Result<LogFile> {
        let (tmp, fsyncs) = (path.with_extension(tmp_extension), AtomicU64::new(0));
        let file = barrier::publish(vfs.as_ref(), path, &tmp, &fsyncs, contents)?;
        let (vfs, path) = (Arc::clone(vfs), path.to_path_buf());
        Ok(LogFile { vfs, path, file, fsyncs, torn_tails: 0, poisoned: false })
    }

    /// [`scan`]s the log and cuts a torn tail away; a failed scan cuts nothing.
    pub fn recover<F: Frame>(
        &mut self,
        visit: impl FnMut(u64, &[u8], &[u8]) -> Result<()>,
    ) -> Result<()> {
        let end = scan::<F>(self.file.as_ref(), &self.path, visit)?;
        self.torn_tails += u64::from(cut_tail(self.file.as_ref(), end, &self.fsyncs)?);
        Ok(())
    }

    /// Appends `bytes`, with no barrier.
    pub fn append(&self, bytes: &[u8]) -> Result<()> {
        self.writable()?;
        Ok(self.file.append(bytes)?)
    }

    /// `fdatasync`s the log through the counted barrier.
    pub fn sync_data(&self) -> Result<()> {
        self.writable()?;
        barrier::sync_data_counted(self.file.as_ref(), &self.fsyncs)
    }

    /// `fsync`s the log through the counted barrier.
    pub fn sync_all(&self) -> Result<()> {
        self.writable()?;
        barrier::sync_all_counted(self.file.as_ref(), &self.fsyncs)
    }

    /// Replaces the log's content through [`barrier::publish`] and appends
    /// to the new file. A failure poisons the log.
    pub fn replace(&mut self, tmp_extension: &str, contents: &[u8]) -> Result<()> {
        self.writable()?;
        let (vfs, tmp) = (self.vfs.as_ref(), self.path.with_extension(tmp_extension));
        let published = barrier::publish(vfs, &self.path, &tmp, &self.fsyncs, contents);
        self.poisoned = published.is_err();
        self.file = published?;
        Ok(())
    }

    /// Fails once a [`LogFile::replace`] has failed.
    fn writable(&self) -> Result<()> {
        if self.poisoned {
            let path = &self.path;
            return Err(StorageError::InvalidOperation(format!(
                "{path:?} is poisoned: a rewrite failed and may have replaced the file; reopen it"
            )));
        }
        Ok(())
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

    /// The bytes a known-answer vector spells in hex.
    pub(crate) fn hex(digits: &str) -> Vec<u8> {
        let byte = |i| u8::from_str_radix(&digits[i..i + 2], 16).unwrap();
        (0..digits.len()).step_by(2).map(byte).collect()
    }

    /// A toy format: `b'T' · body length (u8) · byte sum of the body (u8)`,
    /// then the body.
    struct Toy;

    impl Frame for Toy {
        const PREFIX: usize = 3;

        fn body_len(prefix: &[u8]) -> Option<usize> {
            (prefix[0] == b'T').then_some(prefix[1] as usize)
        }

        fn intact(prefix: &[u8], body: &[u8]) -> bool {
            prefix[2] == sum(body)
        }
    }

    fn sum(body: &[u8]) -> u8 {
        body.iter().fold(0u8, |sum, b| sum.wrapping_add(*b))
    }

    fn good(body: &[u8]) -> Vec<u8> {
        [&[b'T', body.len() as u8, sum(body)], body].concat()
    }

    fn bad(body: &[u8]) -> Vec<u8> {
        let mut frame = good(body);
        frame[2] ^= 0xFF;
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
        let rows: Vec<(&str, Vec<u8>, Expect)> = vec![
            ("empty file", vec![], Expect::Recovers { bodies: &[], end: 0 }),
            (
                "clean log",
                cat(&[good(b"ab"), good(b""), good(b"cde")]),
                Expect::Recovers { bodies: &[b"ab", b"", b"cde"], end: 14 },
            ),
            (
                "short prefix",
                cat(&[good(b"ab"), vec![b'T', 5]]),
                Expect::Recovers { bodies: &[b"ab"], end: 5 },
            ),
            (
                "body past end of file",
                cat(&[good(b"ab"), good(b"cdefg")[..6].to_vec()]),
                Expect::Recovers { bodies: &[b"ab"], end: 5 },
            ),
            (
                "bad last frame",
                cat(&[good(b"ab"), bad(b"cd")]),
                Expect::Recovers { bodies: &[b"ab"], end: 5 },
            ),
            (
                "bad frame with a good frame behind it",
                cat(&[good(b"ab"), bad(b"cd"), good(b"ef")]),
                Expect::Corrupt,
            ),
            ("prefix rejected by body_len", cat(&[good(b"ab"), vec![b'X', 0, 0]]), Expect::Corrupt),
            ("visitor error", cat(&[good(b"ab"), good(b"no"), vec![b'T']]), Expect::VisitorError),
        ];
        let path = std::env::temp_dir().join(format!("lethe-log-{}.bin", std::process::id()));
        for (name, bytes, expect) in rows {
            std::fs::write(&path, &bytes).unwrap();
            let mut log = LogFile::open(&crate::vfs::OsVfs::shared(), &path, false).unwrap();
            let mut bodies: Vec<Vec<u8>> = Vec::new();
            let result = log.recover::<Toy>(|_, _, body| {
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

    /// The toy format behind an 8-byte file magic.
    struct Headed;

    impl Frame for Headed {
        const MAGIC: &'static [u8] = b"HEADER!!";
        const PREFIX: usize = Toy::PREFIX;

        fn body_len(prefix: &[u8]) -> Option<usize> {
            Toy::body_len(prefix)
        }

        fn intact(prefix: &[u8], body: &[u8]) -> bool {
            Toy::intact(prefix, body)
        }
    }

    #[test]
    fn the_file_magic_is_checked_before_the_frames_and_appends_follow_the_cut() {
        let path = std::env::temp_dir().join(format!("lethe-log-magic-{}.bin", std::process::id()));
        let recover = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            let mut log = LogFile::open(&crate::vfs::OsVfs::shared(), &path, false).unwrap();
            let mut seen = Vec::new();
            let result = log.recover::<Headed>(|at, _, body| {
                seen.push((at, body.to_vec()));
                Ok(())
            });
            (result.map(|()| seen), log)
        };
        // a file too short to hold its magic is one torn tail
        let (seen, log) = recover(b"HEAD");
        assert_eq!(seen.unwrap(), vec![]);
        assert_eq!((log.torn_tails_recovered(), log.fsync_count()), (1, 1));
        assert_eq!(std::fs::read(&path).unwrap(), b"");
        // a wrong magic is corruption, and cuts nothing
        let wrong = [b"HEADER??".to_vec(), good(b"ab")].concat();
        assert!(matches!(recover(&wrong).0, Err(StorageError::Corruption(_))));
        assert_eq!(std::fs::read(&path).unwrap(), wrong);
        // frames start behind the magic
        let (seen, log) = recover(&[b"HEADER!!".to_vec(), good(b"ab"), vec![b'T']].concat());
        assert_eq!(seen.unwrap(), vec![(8, b"ab".to_vec())]);
        log.append(&good(b"cd")).unwrap();
        log.sync_data().unwrap();
        assert_eq!(log.fsync_count(), 2, "the cut and the sync");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            [b"HEADER!!".to_vec(), good(b"ab"), good(b"cd")].concat()
        );
        let _ = std::fs::remove_file(&path);
    }
}
