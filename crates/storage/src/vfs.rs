//! The file system the engine runs on.
//!
//! Every file a store keeps is opened, listed, renamed and unlinked through
//! a [`Vfs`], and read, appended and synced through the [`VfsFile`] handle
//! it returns. [`OsVfs`] is the host file system and the only code that
//! touches it (`clippy.toml` bans the raw `std::fs` calls elsewhere);
//! [`MemVfs`] keeps each file as bytes in a map, so a store built in memory
//! runs the same device, logs, barriers and recovery as one on disk. Both
//! keep what the engine relies on: a handle reads on after its file is
//! unlinked and follows it across a rename, [`Vfs::rename`] replaces its
//! target, and a read past end-of-file is an error.

use lethe_sync::{LockRank, Mutex, RwLock};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One open file: read at any offset, append at the end.
#[expect(clippy::len_without_is_empty, reason = "the engine asks for offsets, never emptiness")]
pub trait VfsFile: Send + Sync + Debug {
    /// Reads exactly `buf.len()` bytes at `offset`.
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()>;
    /// Appends `bytes` at end-of-file.
    fn append(&self, bytes: &[u8]) -> io::Result<()>;
    /// The file's length in bytes.
    fn len(&self) -> io::Result<u64>;
    /// Cuts (or zero-extends) the file to `len` bytes.
    fn set_len(&self, len: u64) -> io::Result<()>;
    /// Makes the file's data durable (`fdatasync`).
    fn sync_data(&self) -> io::Result<()>;
    /// Makes the file's data and metadata durable (`fsync`).
    fn sync_all(&self) -> io::Result<()>;
}

/// A tree of directories of files.
pub trait Vfs: Send + Sync + Debug {
    /// Opens `path` to read and append; with `create`, a missing file is
    /// created empty.
    fn open(&self, path: &Path, create: bool) -> io::Result<Arc<dyn VfsFile>>;
    /// Unlinks `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Renames `from` to `to`, replacing `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Names of the files in `dir`.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Creates `dir` and its missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Makes `dir`'s entries (creations, renames) durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;

    /// The whole content of `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let file = self.open(path, false)?;
        let mut bytes = vec![0; file.len()? as usize];
        file.read_at(&mut bytes, 0)?;
        Ok(bytes)
    }
}

/// The host file system.
#[derive(Debug)]
pub struct OsVfs;

impl OsVfs {
    /// The host file system, ready to hand to a store.
    pub fn shared() -> Arc<dyn Vfs> {
        Arc::new(OsVfs)
    }
}

#[expect(clippy::disallowed_methods, reason = "the one implementation on the host file system")]
impl Vfs for OsVfs {
    fn open(&self, path: &Path, create: bool) -> io::Result<Arc<dyn VfsFile>> {
        let mut options = std::fs::OpenOptions::new();
        Ok(Arc::new(options.read(true).append(true).create(create).open(path)?))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let names = std::fs::read_dir(dir)?.map(|e| Ok(e?.file_name().to_string_lossy().into()));
        names.collect()
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        std::fs::File::open(dir)?.sync_all()
    }
}

#[expect(clippy::disallowed_methods, reason = "the one implementation on the host file system")]
impl VfsFile for std::fs::File {
    /// `pread` on unix, which moves no cursor, so readers never contend.
    /// Elsewhere a seek and a read under one global lock.
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        #[cfg(unix)]
        return std::os::unix::fs::FileExt::read_exact_at(self, buf, offset);
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            static CURSOR: Mutex<()> = Mutex::new(LockRank::FallbackCursor, ());
            let (_guard, mut file) = (CURSOR.lock(), self);
            file.seek(SeekFrom::Start(offset))?;
            file.read_exact(buf)
        }
    }

    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        io::Write::write_all(&mut &*self, bytes)
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.metadata()?.len())
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        std::fs::File::set_len(self, len)
    }

    fn sync_data(&self) -> io::Result<()> {
        std::fs::File::sync_data(self)
    }

    fn sync_all(&self) -> io::Result<()> {
        std::fs::File::sync_all(self)
    }
}

/// An in-memory file system: one map from path to file, each file its bytes.
/// Directories are implicit and syncs are free.
#[derive(Debug)]
pub struct MemVfs(Mutex<BTreeMap<PathBuf, Arc<MemFile>>>);

/// One in-memory file.
#[derive(Debug)]
struct MemFile(RwLock<Vec<u8>>);

impl MemVfs {
    /// An empty in-memory file system, ready to hand to a store.
    pub fn shared() -> Arc<dyn Vfs> {
        Arc::new(MemVfs(Mutex::new(LockRank::MemVfs, BTreeMap::new())))
    }
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("{path:?}"))
}

impl Vfs for MemVfs {
    fn open(&self, path: &Path, create: bool) -> io::Result<Arc<dyn VfsFile>> {
        let mut files = self.0.lock();
        if create {
            let new = || Arc::new(MemFile(RwLock::new(LockRank::MemVfs, Vec::new())));
            return Ok(files.entry(path.to_path_buf()).or_insert_with(new).clone());
        }
        Ok(files.get(path).ok_or_else(|| not_found(path))?.clone())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.0.lock().remove(path).map(drop).ok_or_else(|| not_found(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut files = self.0.lock();
        let file = files.remove(from).ok_or_else(|| not_found(from))?;
        files.insert(to.to_path_buf(), file);
        Ok(())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let files = self.0.lock();
        let names = files.keys().filter(|path| path.parent() == Some(dir));
        Ok(names.filter_map(|path| Some(path.file_name()?.to_string_lossy().into())).collect())
    }

    fn create_dir_all(&self, _: &Path) -> io::Result<()> {
        Ok(())
    }

    fn sync_dir(&self, _: &Path) -> io::Result<()> {
        Ok(())
    }
}

impl VfsFile for MemFile {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let bytes = self.0.read();
        let at = usize::try_from(offset).ok().filter(|&at| at <= bytes.len());
        let src = at.and_then(|at| bytes[at..].get(..buf.len()));
        buf.copy_from_slice(src.ok_or(io::ErrorKind::UnexpectedEof)?);
        Ok(())
    }

    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        self.0.write().extend_from_slice(bytes);
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.0.read().len() as u64)
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.0.write().resize(len as usize, 0);
        Ok(())
    }

    fn sync_data(&self) -> io::Result<()> {
        Ok(())
    }

    fn sync_all(&self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One step of the conformance script and what it must observe.
    #[derive(Debug)]
    enum Step {
        /// Appends to `a` through the handle held since the start.
        Append(&'static [u8]),
        /// `a`'s length, through the held handle.
        Len(u64),
        SetLen(u64),
        /// Reads `len` bytes of `a` at `offset`: `Some` bytes, or `None`
        /// for an error.
        ReadAt { offset: u64, len: usize, want: Option<&'static [u8]> },
        /// The sorted names in the directory.
        List(&'static [&'static str]),
        /// Writes `b` with these bytes and renames it over `a`; the held
        /// handle keeps reading the replaced file.
        RenameOver(&'static [u8]),
        /// Unlinks `a`; the held handle keeps reading it.
        Unlink,
        /// Publishes `c` with these bytes and appends `tail` through the
        /// returned handle: the published file holds both.
        Publish { bytes: &'static [u8], tail: &'static [u8] },
    }

    /// What a step observed, compared across file systems.
    fn run(vfs: &Arc<dyn Vfs>, dir: &Path) -> Vec<String> {
        use Step::*;
        let script = [
            Append(b"hello"),
            Append(b" world"),
            Len(11),
            SetLen(5),
            Len(5),
            ReadAt { offset: 1, len: 3, want: Some(b"ell") },
            ReadAt { offset: 3, len: 3, want: None },
            ReadAt { offset: 99, len: 1, want: None },
            List(&["a"]),
            RenameOver(b"new"),
            List(&["a"]),
            ReadAt { offset: 0, len: 5, want: Some(b"hello") },
            Unlink,
            List(&[]),
            ReadAt { offset: 0, len: 5, want: Some(b"hello") },
            Publish { bytes: b"new", tail: b"+tail" },
            List(&["c"]),
        ];
        vfs.create_dir_all(dir).unwrap();
        let (a, b, c) = (dir.join("a"), dir.join("b"), dir.join("c"));
        let held = vfs.open(&a, true).unwrap();
        let mut seen = Vec::new();
        for step in script {
            let observed = match &step {
                Append(bytes) => format!("{:?}", held.append(bytes).is_ok()),
                Len(want) => {
                    assert_eq!(held.len().unwrap(), *want, "{step:?}");
                    format!("{want}")
                }
                SetLen(len) => format!("{:?}", held.set_len(*len).is_ok()),
                ReadAt { offset, len, want } => {
                    let mut buf = vec![0; *len];
                    let got = held.read_at(&mut buf, *offset).ok().map(|()| buf);
                    assert_eq!(got.as_deref(), *want, "{step:?}");
                    format!("{got:?}")
                }
                List(want) => {
                    let mut names = vfs.list(dir).unwrap();
                    names.sort();
                    assert_eq!(names, *want, "{step:?}");
                    format!("{names:?}")
                }
                RenameOver(bytes) => {
                    vfs.open(&b, true).unwrap().append(bytes).unwrap();
                    vfs.rename(&b, &a).unwrap();
                    let read = vfs.read(&a).unwrap();
                    assert_eq!(read, *bytes, "{step:?}");
                    format!("{read:?} {:?}", vfs.list(dir).unwrap())
                }
                Unlink => {
                    vfs.remove(&a).unwrap();
                    format!("{:?}", vfs.open(&a, false).map_err(|e| e.kind()).err())
                }
                Publish { bytes, tail } => {
                    let fsyncs = std::sync::atomic::AtomicU64::new(0);
                    let tmp = dir.join("c.tmp");
                    let handle =
                        crate::barrier::publish(vfs.as_ref(), &c, &tmp, &fsyncs, bytes, || Ok(()))
                            .unwrap();
                    handle.append(tail).unwrap();
                    let read = vfs.read(&c).unwrap();
                    assert_eq!(read, [*bytes, *tail].concat(), "{step:?}");
                    format!("{read:?} {:?}", vfs.open(&tmp, false).map_err(|e| e.kind()).err())
                }
            };
            seen.push(format!("{step:?} -> {observed}"));
        }
        seen
    }

    #[test]
    fn the_host_and_the_memory_file_systems_agree_step_by_step() {
        let dir = std::env::temp_dir().join(format!("lethe-vfs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let on_host = run(&OsVfs::shared(), &dir);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(on_host, run(&MemVfs::shared(), Path::new("/store")));
    }
}
