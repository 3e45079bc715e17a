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
//! target, and a read past end-of-file is an error. A `MemVfs` also keeps
//! what its barriers made durable, and [`MemVfs::crash`] drops, keeps or
//! tears what they did not, as a power loss may.
//!
//! [`FaultVfs`] wraps either one and fails the n-th call that changes a
//! file or a directory, which the crash-recovery tests use to kill a store
//! inside every durable step. Its kill sites are the calls themselves,
//! named by [`KillPoint`]: a new durable step is covered the moment it
//! reaches the file system, with nothing to register.

use crate::checkpoint::CHECKPOINT_MARKER;
use lethe_sync::{LockRank, Mutex, RwLock};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Debug};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, Ordering};
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

/// An in-memory file system that knows what a power loss keeps.
///
/// Each file is its bytes beside its *durable image*, what its last
/// [`VfsFile::sync_data`] or [`VfsFile::sync_all`] made durable, and each
/// directory's entries beside the ones its last [`Vfs::sync_dir`] made
/// durable. The image costs what changed since the barrier, not a second
/// copy: it is a prefix of the live bytes, and a directory keeps its
/// pending creates, renames and unlinks as a list. [`MemVfs::crash`]
/// resolves that pending state as a power loss may. Directories themselves
/// are implicit and durable from the start.
#[derive(Debug)]
pub struct MemVfs(Mutex<Names>);

/// The names of a [`MemVfs`]'s files.
#[derive(Debug, Default)]
struct Names {
    /// Every file by path, as the running program sees them.
    live: BTreeMap<PathBuf, Arc<MemFile>>,
    /// The entries the last `sync_dir` of each directory made durable.
    durable: BTreeMap<PathBuf, Arc<MemFile>>,
    /// The changes to `live` no `sync_dir` has made durable, oldest first.
    pending: Vec<DirOp>,
}

/// A directory change no barrier has made durable. A rename lands whole or
/// not at all.
#[derive(Debug)]
enum DirOp {
    Create(PathBuf, Arc<MemFile>),
    Rename { from: PathBuf, to: PathBuf },
    Remove(PathBuf),
}

impl DirOp {
    /// The directory whose barrier makes the change durable.
    fn dir(&self) -> Option<&Path> {
        match self {
            DirOp::Create(path, _) | DirOp::Rename { to: path, .. } | DirOp::Remove(path) => {
                path.parent()
            }
        }
    }

    /// Makes the change to `names`; a rename of a name that is not there
    /// (its create did not land) changes nothing.
    fn apply(&self, names: &mut BTreeMap<PathBuf, Arc<MemFile>>) {
        match self {
            DirOp::Create(path, file) => {
                names.insert(path.clone(), Arc::clone(file));
            }
            DirOp::Rename { from, to } => {
                if let Some(file) = names.remove(from) {
                    names.insert(to.clone(), file);
                }
            }
            DirOp::Remove(path) => {
                names.remove(path);
            }
        }
    }
}

/// How [`MemVfs::crash`] resolves what no barrier made durable: the
/// reorderings real file systems make on a power loss (Pillai et al., "All
/// File Systems Are Not Created Equal", OSDI 2014).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerLoss {
    /// Each file is its durable image and each directory its durable
    /// entries: nothing unsynced survives.
    DropUnsynced,
    /// Each file keeps a random prefix of the appends since its last
    /// barrier, and every directory change lands.
    KeepPrefix,
    /// Each file keeps every append since its last barrier but the last,
    /// which is torn at a random 512-byte sector boundary inside it (or
    /// lost whole), and every directory change lands.
    TearLast,
    /// Each file keeps everything written, and a random subset of the
    /// directory changes lands, in order.
    SomeDirOps,
}

/// One in-memory file.
#[derive(Debug)]
struct MemFile(RwLock<Content>);

/// A file's bytes, and what of them a power loss keeps.
#[derive(Debug, Default)]
struct Content {
    bytes: Vec<u8>,
    /// `bytes[..synced]` is the durable image. A cut below it is durable at
    /// once: what it removed is junk behind a torn tail or a tmp file's old
    /// content, which no reader wants back.
    synced: usize,
    /// Where each append and each `set_len` since the last barrier left the
    /// file's end, in order: the lengths a power loss may leave.
    ends: Vec<usize>,
}

/// The bytes of a torn write's sector are all written or none of them.
const SECTOR: usize = 512;

impl Content {
    fn set_len(&mut self, len: usize) {
        self.bytes.resize(len, 0);
        self.synced = self.synced.min(len);
        self.ends.retain(|&end| end < len);
        self.ends.push(len);
    }

    /// A barrier: every byte is durable.
    fn sync(&mut self) {
        (self.synced, self.ends) = (self.bytes.len(), Vec::new());
    }

    /// Leaves the file as `mode` resolves a power loss, every byte durable.
    fn crash(&mut self, mode: PowerLoss, pick: &mut dyn FnMut(usize) -> usize) {
        let keep = match mode {
            PowerLoss::DropUnsynced => self.synced,
            PowerLoss::KeepPrefix => match pick_below(pick, self.ends.len() + 1) {
                0 => self.synced,
                i => self.ends[i - 1],
            },
            PowerLoss::TearLast => match self.ends.last() {
                Some(&end) => {
                    let start = self.ends.iter().rev().nth(1).copied().unwrap_or(self.synced);
                    let first = start / SECTOR + 1;
                    let sectors = (end.saturating_sub(1) / SECTOR + 1).saturating_sub(first);
                    match pick_below(pick, sectors + 1) {
                        0 => start,
                        i => (first + i - 1) * SECTOR,
                    }
                }
                None => self.bytes.len(),
            },
            PowerLoss::SomeDirOps => self.bytes.len(),
        };
        self.bytes.truncate(keep);
        self.sync();
    }
}

/// `pick(n)`, kept below `n`.
fn pick_below(pick: &mut dyn FnMut(usize) -> usize, n: usize) -> usize {
    pick(n).min(n.saturating_sub(1))
}

impl MemVfs {
    /// An empty in-memory file system.
    pub fn new() -> Arc<MemVfs> {
        Arc::new(MemVfs(Mutex::new(LockRank::MemVfs, Names::default())))
    }

    /// An empty in-memory file system, ready to hand to a store.
    pub fn shared() -> Arc<dyn Vfs> {
        MemVfs::new()
    }

    /// Resolves a power loss: each change no barrier made durable lands or
    /// is lost as the [`PowerLoss`] mode drawn first says, and what is left
    /// is all durable. `pick(n)` answers a number below `n` and is the only
    /// source of chance, so a seeded `pick` replays the same resolution.
    /// Call it with no store open: handles opened before keep reading the
    /// files they had, as after a real reboot they could not.
    pub fn crash(&self, pick: &mut dyn FnMut(usize) -> usize) -> PowerLoss {
        use PowerLoss::*;
        let mode = [DropUnsynced, KeepPrefix, TearLast, SomeDirOps][pick_below(pick, 4)];
        let files: Vec<Arc<MemFile>> = {
            let mut names = self.0.lock();
            let resolved = match mode {
                DropUnsynced => names.durable.clone(),
                KeepPrefix | TearLast => names.live.clone(),
                SomeDirOps => {
                    let mut resolved = names.durable.clone();
                    for op in &names.pending {
                        if pick_below(pick, 2) == 1 {
                            op.apply(&mut resolved);
                        }
                    }
                    resolved
                }
            };
            names.pending.clear();
            (names.live, names.durable) = (resolved.clone(), resolved);
            let mut seen = BTreeSet::new();
            names.live.values().filter(|f| seen.insert(Arc::as_ptr(f))).cloned().collect()
        };
        for file in files {
            file.0.write().crash(mode, pick);
        }
        mode
    }
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("{path:?}"))
}

impl Vfs for MemVfs {
    fn open(&self, path: &Path, create: bool) -> io::Result<Arc<dyn VfsFile>> {
        let mut names = self.0.lock();
        if let Some(file) = names.live.get(path) {
            return Ok(file.clone());
        }
        if !create {
            return Err(not_found(path));
        }
        let file = Arc::new(MemFile(RwLock::new(LockRank::MemVfs, Content::default())));
        names.live.insert(path.to_path_buf(), Arc::clone(&file));
        names.pending.push(DirOp::Create(path.to_path_buf(), Arc::clone(&file)));
        Ok(file)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let mut names = self.0.lock();
        names.live.remove(path).ok_or_else(|| not_found(path))?;
        names.pending.push(DirOp::Remove(path.to_path_buf()));
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut names = self.0.lock();
        let file = names.live.remove(from).ok_or_else(|| not_found(from))?;
        names.live.insert(to.to_path_buf(), file);
        names.pending.push(DirOp::Rename { from: from.to_path_buf(), to: to.to_path_buf() });
        Ok(())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let names = self.0.lock();
        let paths = names.live.keys().filter(|path| path.parent() == Some(dir));
        Ok(paths.filter_map(|path| Some(path.file_name()?.to_string_lossy().into())).collect())
    }

    fn create_dir_all(&self, _: &Path) -> io::Result<()> {
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let names = &mut *self.0.lock();
        names.durable.retain(|path, _| path.parent() != Some(dir));
        let entries = names.live.iter().filter(|(path, _)| path.parent() == Some(dir));
        names.durable.extend(entries.map(|(path, file)| (path.clone(), Arc::clone(file))));
        names.pending.retain(|op| op.dir() != Some(dir));
        Ok(())
    }
}

impl VfsFile for MemFile {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let content = self.0.read();
        let at = usize::try_from(offset).ok().filter(|&at| at <= content.bytes.len());
        let src = at.and_then(|at| content.bytes[at..].get(..buf.len()));
        buf.copy_from_slice(src.ok_or(io::ErrorKind::UnexpectedEof)?);
        Ok(())
    }

    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        let mut content = self.0.write();
        content.bytes.extend_from_slice(bytes);
        let end = content.bytes.len();
        content.ends.push(end);
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.0.read().bytes.len() as u64)
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.0.write().set_len(len as usize);
        Ok(())
    }

    fn sync_data(&self) -> io::Result<()> {
        self.0.write().sync();
        Ok(())
    }

    fn sync_all(&self) -> io::Result<()> {
        self.0.write().sync();
        Ok(())
    }
}

/// A call a [`FaultVfs`] can fail. Each is the [`Vfs`] or [`VfsFile`]
/// method of its name; `Create` is [`Vfs::open`] with `create`. Every call
/// but `ReadAt` changes a file or a directory: those are what
/// [`FaultVfs::arm`] counts and a trace records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FileOp {
    ReadAt,
    Create,
    Append,
    SetLen,
    SyncData,
    SyncAll,
    Rename,
    Remove,
    SyncDir,
}

/// Which of a store's files a call touches, told by its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FileKind {
    /// A data segment: `<name>.data` or `<name>.data.<id>`.
    Segment,
    /// A write-ahead log: `<name>.wal`.
    Wal,
    /// A manifest: `<name>.manifest`.
    Manifest,
    /// The cross-shard batch-commit log, `BATCHES`.
    BatchLog,
    /// The sharded store's shard count, `SHARDS`.
    Shards,
    /// A checkpoint's completeness marker, `CHECKPOINT`.
    CheckpointMarker,
    /// A directory (the target of [`Vfs::sync_dir`]).
    Dir,
    /// Any other file.
    Other,
}

impl FileKind {
    /// The kind of the file at `path`. A `*.tmp` is the file it replaces:
    /// the handle it was written through follows it across the rename.
    pub fn of(path: &Path) -> FileKind {
        let name = path.file_name().map(|n| n.to_string_lossy()).unwrap_or_default();
        let name = name.strip_suffix(".tmp").unwrap_or(&name);
        let digits = |id: &str| id.bytes().all(|b| b.is_ascii_digit());
        let segment = name.split_once(".data").is_some_and(|(_, id)| {
            id.is_empty() || id.strip_prefix('.').is_some_and(digits)
        });
        match name.split('.').next() {
            Some("BATCHES") => FileKind::BatchLog,
            Some("SHARDS") => FileKind::Shards,
            Some(CHECKPOINT_MARKER) => FileKind::CheckpointMarker,
            _ if name.ends_with(".wal") => FileKind::Wal,
            _ if name.ends_with(".manifest") => FileKind::Manifest,
            _ if segment => FileKind::Segment,
            _ => FileKind::Other,
        }
    }
}

/// One kill site: a mutating call on a kind of file. Displays as
/// `kind.op`, e.g. `manifest.sync_data`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KillPoint {
    /// The file the call touches.
    pub file: FileKind,
    /// The call.
    pub op: FileOp,
}

impl fmt::Display for KillPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // the variant names in snake case: `CheckpointMarker` reads
        // `checkpoint_marker`
        let snake = |name: String| {
            name.chars().fold(String::new(), |mut out, c| {
                if c.is_uppercase() && !out.is_empty() {
                    out.push('_');
                }
                out.push(c.to_ascii_lowercase());
                out
            })
        };
        write!(f, "{}.{}", snake(format!("{:?}", self.file)), snake(format!("{:?}", self.op)))
    }
}

/// The payload of the I/O error a [`FaultVfs`] injects; it converts to
/// [`StorageError::Injected`](crate::StorageError::Injected).
#[derive(Debug)]
pub(crate) struct InjectedFault(KillPoint);

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at {}", self.0)
    }
}

impl std::error::Error for InjectedFault {}

/// A file system that fails the n-th mutating call on the one it wraps: a
/// crash injected at an exact point of a store's durable protocol.
///
/// Every mutating [`FileOp`] counts, on the wrapper and on every file it
/// opened, so a sweep that arms `0, 1, 2, …` kills a workload inside each
/// of its durable steps in turn. The failed call does nothing, and the
/// wrapper disarms once it fires. Reads have a countdown of their own
/// ([`FaultVfs::arm_read`]), so arming one moves no kill site, and are
/// counted in bytes per file ([`FaultVfs::take_bytes_read`]).
#[derive(Debug)]
pub struct FaultVfs {
    inner: Arc<dyn Vfs>,
    faults: Arc<Faults>,
}

/// The countdown and the site record a [`FaultVfs`] shares with its files.
#[derive(Debug)]
struct Faults {
    /// Mutating calls left before the next one fails; negative when
    /// disarmed.
    remaining: AtomicI64,
    /// Reads left before the next one fails; negative when disarmed.
    reads: AtomicI64,
    /// Bytes read per file, by the path it was opened at.
    bytes_read: Mutex<BTreeMap<PathBuf, u64>>,
    /// Site of the most recent injected failure.
    fired: Mutex<Option<KillPoint>>,
    /// Every distinct site reached, when tracing.
    trace: Mutex<Option<BTreeSet<KillPoint>>>,
}

impl Faults {
    /// Counts one `op` on a `file`; fails it when the countdown reaches
    /// zero, recording the site.
    fn check(&self, file: FileKind, op: FileOp) -> io::Result<()> {
        let site = KillPoint { file, op };
        if let Some(trace) = self.trace.lock().as_mut() {
            trace.insert(site);
        }
        self.count(&self.remaining, site)
    }

    /// Counts one call at `site` against `countdown`; fails it when the
    /// countdown reaches zero, recording the site.
    fn count(&self, countdown: &AtomicI64, site: KillPoint) -> io::Result<()> {
        // one step at a time, never below the firing call's -1: calls racing
        // it on other threads must not wrap a disarmed countdown into an
        // armed one
        let step = |n: i64| (n >= 0).then(|| n - 1);
        if countdown.fetch_update(Ordering::SeqCst, Ordering::SeqCst, step) == Ok(0) {
            *self.fired.lock() = Some(site);
            return Err(io::Error::other(InjectedFault(site)));
        }
        Ok(())
    }
}

impl FaultVfs {
    /// Wraps `inner`, disarmed.
    pub fn new(inner: Arc<dyn Vfs>) -> Arc<FaultVfs> {
        let faults = Faults {
            remaining: AtomicI64::new(i64::MIN),
            reads: AtomicI64::new(i64::MIN),
            bytes_read: Mutex::new(LockRank::FaultVfs, BTreeMap::new()),
            fired: Mutex::new(LockRank::FaultVfs, None),
            trace: Mutex::new(LockRank::FaultVfs, None),
        };
        Arc::new(FaultVfs { inner, faults: Arc::new(faults) })
    }

    /// Arms the wrapper: the `ops`-th mutating call from now (0-based, so
    /// `arm(0)` fails the very next one) fails.
    pub fn arm(&self, ops: u64) {
        self.faults.remaining.store(ops as i64, Ordering::SeqCst);
    }

    /// Arms a read fault: the `reads`-th [`VfsFile::read_at`] from now
    /// (0-based), on any file the wrapper opened, fails once.
    pub fn arm_read(&self, reads: u64) {
        self.faults.reads.store(reads as i64, Ordering::SeqCst);
    }

    /// Disarms the wrapper, reads too; calls pass until it is armed again.
    pub fn disarm(&self) {
        self.faults.remaining.store(i64::MIN, Ordering::SeqCst);
        self.faults.reads.store(i64::MIN, Ordering::SeqCst);
    }

    /// Whether the wrapper is armed for a mutating call and has not fired
    /// yet.
    pub fn is_armed(&self) -> bool {
        self.faults.remaining.load(Ordering::SeqCst) >= 0
    }

    /// Bytes each file has given up to [`VfsFile::read_at`] since the last
    /// call, keyed by the path it was opened at.
    pub fn take_bytes_read(&self) -> BTreeMap<PathBuf, u64> {
        std::mem::take(&mut *self.faults.bytes_read.lock())
    }

    /// Site of the most recent injected failure, `None` before the first.
    pub fn last_fired(&self) -> Option<KillPoint> {
        *self.faults.fired.lock()
    }

    /// Starts recording every site a mutating call reaches, armed or not:
    /// a coverage audit reads them back with [`FaultVfs::traced_sites`].
    pub fn enable_trace(&self) {
        self.faults.trace.lock().get_or_insert_with(BTreeSet::new);
    }

    /// Every distinct site reached since [`FaultVfs::enable_trace`], sorted.
    pub fn traced_sites(&self) -> Vec<KillPoint> {
        self.faults.trace.lock().iter().flatten().copied().collect()
    }
}

impl Vfs for FaultVfs {
    fn open(&self, path: &Path, create: bool) -> io::Result<Arc<dyn VfsFile>> {
        let file = FileKind::of(path);
        if create {
            self.faults.check(file, FileOp::Create)?;
        }
        let (faults, path) = (Arc::clone(&self.faults), path.to_path_buf());
        Ok(Arc::new(FaultFile { inner: self.inner.open(path.as_path(), create)?, file, path, faults }))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.faults.check(FileKind::of(path), FileOp::Remove)?;
        self.inner.remove(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.faults.check(FileKind::of(to), FileOp::Rename)?;
        self.inner.rename(from, to)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.faults.check(FileKind::Dir, FileOp::SyncDir)?;
        self.inner.sync_dir(dir)
    }
}

/// A file opened through a [`FaultVfs`], counted as the kind its name
/// said when it was opened.
#[derive(Debug)]
struct FaultFile {
    inner: Arc<dyn VfsFile>,
    file: FileKind,
    path: PathBuf,
    faults: Arc<Faults>,
}

impl VfsFile for FaultFile {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        self.faults.count(&self.faults.reads, KillPoint { file: self.file, op: FileOp::ReadAt })?;
        self.inner.read_at(buf, offset)?;
        *self.faults.bytes_read.lock().entry(self.path.clone()).or_default() += buf.len() as u64;
        Ok(())
    }

    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        self.faults.check(self.file, FileOp::Append)?;
        self.inner.append(bytes)
    }

    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.faults.check(self.file, FileOp::SetLen)?;
        self.inner.set_len(len)
    }

    fn sync_data(&self) -> io::Result<()> {
        self.faults.check(self.file, FileOp::SyncData)?;
        self.inner.sync_data()
    }

    fn sync_all(&self) -> io::Result<()> {
        self.faults.check(self.file, FileOp::SyncAll)?;
        self.inner.sync_all()
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
                        crate::barrier::publish(vfs.as_ref(), &c, &tmp, &fsyncs, bytes)
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

    /// A `MemVfs` past barriers and changes none covers: `a` holds 1000
    /// durable bytes, then is cut to 600 and takes appends of 100 and 1000
    /// bytes; `b` holds a durable `old`, and a synced `b.tmp` holding `new`
    /// is renamed over it with no directory barrier after; `c` is synced but
    /// its create never was.
    fn past_its_barriers() -> Arc<MemVfs> {
        let vfs = MemVfs::new();
        let dir = Path::new("/s");
        let a = vfs.open(&dir.join("a"), true).unwrap();
        a.append(&[1; 1000]).unwrap();
        a.sync_data().unwrap();
        let b = vfs.open(&dir.join("b"), true).unwrap();
        b.append(b"old").unwrap();
        b.sync_all().unwrap();
        vfs.sync_dir(dir).unwrap();
        a.set_len(600).unwrap();
        a.append(&[2; 100]).unwrap();
        a.append(&[3; 1000]).unwrap();
        let tmp = vfs.open(&dir.join("b.tmp"), true).unwrap();
        tmp.append(b"new").unwrap();
        tmp.sync_all().unwrap();
        vfs.rename(&dir.join("b.tmp"), &dir.join("b")).unwrap();
        let c = vfs.open(&dir.join("c"), true).unwrap();
        c.append(b"c").unwrap();
        c.sync_data().unwrap();
        vfs
    }

    /// The files left after a crash that `pick` answers from `script`, then
    /// with 0s, and the mode it drew.
    fn crash(script: &[usize]) -> (PowerLoss, BTreeMap<String, Vec<u8>>) {
        let vfs = past_its_barriers();
        let mut answers = script.iter().copied();
        let mode = vfs.crash(&mut |_| answers.next().unwrap_or(0));
        let dir = Path::new("/s");
        let names = vfs.list(dir).unwrap().into_iter();
        (mode, names.map(|name| (name.clone(), vfs.read(&dir.join(name)).unwrap())).collect())
    }

    #[test]
    fn a_power_loss_keeps_what_the_barriers_made_durable() {
        let a = |parts: &[(u8, usize)]| parts.iter().flat_map(|&(b, n)| vec![b; n]).collect();
        let files = |list: &[(&str, Vec<u8>)]| {
            list.iter().map(|(name, bytes)| (name.to_string(), bytes.clone())).collect()
        };
        // the durable image: the cut is durable at once, the appends after
        // it, the rename and `c`'s create are lost
        let durable = files(&[("a", a(&[(1, 600)])), ("b", b"old".to_vec())]);
        assert_eq!(crash(&[0]), (PowerLoss::DropUnsynced, durable));
        // a prefix of `a`'s changes (the cut, then the first append); every
        // directory change lands
        let (new, c) = (("b", b"new".to_vec()), ("c", b"c".to_vec()));
        let prefix = [("a", a(&[(1, 600), (2, 100)])), new.clone(), c.clone()];
        assert_eq!(crash(&[1, 2]), (PowerLoss::KeepPrefix, files(&prefix)));
        // the last append torn at the second sector boundary inside it, 1024
        let torn = [("a", a(&[(1, 600), (2, 100), (3, 324)])), new.clone(), c.clone()];
        assert_eq!(crash(&[2, 1]), (PowerLoss::TearLast, files(&torn)));
        // or lost whole, at the sector boundary below it
        assert_eq!(crash(&[2, 0]), (PowerLoss::TearLast, files(&prefix)));
        // some directory changes, in order: the tmp file's create, its
        // rename, `c`'s create; a rename whose source never landed is lost
        let all = a(&[(1, 600), (2, 100), (3, 1000)]);
        let renamed = [("a", all.clone()), ("b", b"new".to_vec())];
        assert_eq!(crash(&[3, 1, 1, 0]), (PowerLoss::SomeDirOps, files(&renamed)));
        let orphan = [("a", all.clone()), ("b", b"old".to_vec()), ("c", b"c".to_vec())];
        assert_eq!(crash(&[3, 0, 1, 1]), (PowerLoss::SomeDirOps, files(&orphan)));
        let unrenamed = [("a", all), ("b", b"old".to_vec()), ("b.tmp", b"new".to_vec())];
        assert_eq!(crash(&[3, 1, 0, 0]), (PowerLoss::SomeDirOps, files(&unrenamed)));
    }

    #[test]
    fn what_a_crash_leaves_is_durable() {
        let vfs = past_its_barriers();
        vfs.crash(&mut |_| 1);
        let (dir, before) = (Path::new("/s"), vfs.list(Path::new("/s")).unwrap());
        vfs.crash(&mut |_| 0);
        assert_eq!(vfs.list(dir).unwrap(), before);
        assert_eq!(vfs.read(&dir.join("a")).unwrap().len(), 600, "the first prefix of `a`");
    }

    #[test]
    fn a_site_is_the_op_and_the_kind_the_file_name_says() {
        use FileKind::*;
        let table = [
            ("/s/lethe.data", Segment),
            ("/s/shard-002.data.17", Segment),
            ("/s/checkpoint.data", Segment),
            ("/s/lethe.data.tmp", Segment),
            ("/s/lethe.data.x7", Other),
            ("/s/lethe.wal", Wal),
            ("/s/shard-000.wal.tmp", Wal),
            ("/s/lethe.manifest", Manifest),
            ("/s/checkpoint.manifest.tmp", Manifest),
            ("/s/BATCHES", BatchLog),
            ("/s/BATCHES.batches.tmp", BatchLog),
            ("/s/SHARDS.tmp", Shards),
            ("/s/CHECKPOINT", CheckpointMarker),
            ("/s/CHECKPOINT.tmp", CheckpointMarker),
            ("/s/notes.txt", Other),
        ];
        for (path, kind) in table {
            assert_eq!(FileKind::of(Path::new(path)), kind, "{path}");
        }
        let site = |file, op| KillPoint { file, op }.to_string();
        assert_eq!(site(Manifest, FileOp::SyncData), "manifest.sync_data");
        assert_eq!(site(Segment, FileOp::Create), "segment.create");
        assert_eq!(site(CheckpointMarker, FileOp::Rename), "checkpoint_marker.rename");
        assert_eq!(site(Dir, FileOp::SyncDir), "dir.sync_dir");
    }

    /// Runs one mutating call of each op, plus the calls that are no site,
    /// and returns the sites whose call failed with an injected fault.
    fn injected_sites(vfs: &FaultVfs) -> Vec<&'static str> {
        let injected = |r: io::Result<()>| {
            r.is_err_and(|e| matches!(crate::StorageError::from(e), crate::StorageError::Injected))
        };
        let dir = Path::new("/s");
        let (wal, tmp) = (dir.join("lethe.wal"), dir.join("lethe.wal.tmp"));
        vfs.create_dir_all(dir).unwrap();
        vfs.list(dir).unwrap();
        let created = vfs.open(&tmp, true);
        // a failed create disarmed the wrapper, so the retry passes
        let file = created.as_ref().map_or_else(|_| vfs.open(&tmp, true).unwrap(), Arc::clone);
        let calls = [
            ("wal.create", injected(created.map(drop))),
            ("wal.append", injected(file.append(b"abc"))),
            ("wal.set_len", injected(file.set_len(2))),
            ("wal.sync_data", injected(file.sync_data())),
            ("wal.sync_all", injected(file.sync_all())),
            ("wal.rename", injected(vfs.rename(&tmp, &wal))),
            ("dir.sync_dir", injected(vfs.sync_dir(dir))),
            ("wal.remove", injected(vfs.remove(&wal))),
        ];
        file.read_at(&mut [0], 0).unwrap();
        file.len().unwrap();
        calls.into_iter().filter(|(_, fired)| *fired).map(|(site, _)| site).collect()
    }

    #[test]
    fn a_fault_vfs_fails_the_nth_mutating_call_once() {
        let sites = ["wal.create", "wal.append", "wal.set_len", "wal.sync_data", "wal.sync_all"];
        let sites = [&sites[..], &["wal.rename", "dir.sync_dir", "wal.remove"]].concat();
        let disarmed = FaultVfs::new(MemVfs::shared());
        disarmed.enable_trace();
        assert!(injected_sites(&disarmed).is_empty(), "disarmed, every call passes");
        let traced: BTreeSet<String> = disarmed.traced_sites().iter().map(|s| s.to_string()).collect();
        assert_eq!(traced, sites.iter().map(|s| s.to_string()).collect(), "reads are no sites");
        assert_eq!(disarmed.last_fired(), None);
        for (n, site) in sites.iter().enumerate() {
            let vfs = FaultVfs::new(MemVfs::shared());
            vfs.arm(n as u64);
            assert!(vfs.is_armed());
            assert_eq!(injected_sites(&vfs), [*site], "arm({n}) fails that call and no other");
            assert_eq!(vfs.last_fired().map(|s| s.to_string()).as_deref(), Some(*site));
            assert!(!vfs.is_armed(), "it fired once, then disarmed");
        }
    }

    #[test]
    fn an_injected_fault_does_nothing_and_surfaces_as_injected() {
        let mem = MemVfs::shared();
        let vfs = FaultVfs::new(Arc::clone(&mem));
        let file = vfs.open(Path::new("/s/BATCHES"), true).unwrap();
        file.append(b"kept").unwrap();
        vfs.arm(0);
        let err = file.append(b"lost").unwrap_err();
        assert!(matches!(crate::StorageError::from(err), crate::StorageError::Injected));
        assert_eq!(mem.read(Path::new("/s/BATCHES")).unwrap(), b"kept");
        vfs.disarm();
        file.append(b"+").unwrap();
        assert_eq!(mem.read(Path::new("/s/BATCHES")).unwrap(), b"kept+");
    }
}
