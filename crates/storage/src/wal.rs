//! Write-ahead log.
//!
//! Every mutation is appended to the WAL before it is acknowledged, so the
//! buffered (not yet flushed) part of the tree survives a crash. How strongly
//! the append is pinned to the platter before the acknowledgement is the
//! [`SyncPolicy`] knob ([`FileWal`] defaults to [`SyncPolicy::Always`], i.e.
//! fsync-per-append); a crash mid-append leaves a torn trailing frame which
//! replay truncates away, recovering the valid prefix. The paper's
//! persistence guarantee (§4.1.5) additionally requires that tombstones do not
//! out-live the delete-persistence threshold `D_th` *inside the WAL*: if the
//! WAL is not rotated faster than `D_th`, a dedicated routine copies live
//! records younger than `D_th` to a fresh log and discards the old one. That
//! routine is [`Wal::purge_older_than`].

use crate::clock::Timestamp;
use crate::entry::{DeleteKey, SortKey};
use crate::error::{Result, StorageError};
use crate::failpoint::{FailPoint, KillPoint};
use crate::log::{be, Frame, LogFile};
use crate::manifest::ManifestCommitted;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use crate::vfs::{OsVfs, Vfs};
use lethe_sync::{LockRank, Mutex};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// When [`Wal::commit`] (and so [`Wal::append`]) forces the log to durable
/// storage.
///
/// The write path promises "logged before acknowledged"; how strong that
/// promise is against an OS or power failure is this knob. In-process crash
/// recovery (the engine being dropped or killed) is unaffected: appends reach
/// the file immediately under every policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every append: an acknowledged write is always durable.
    /// The default for durable stores.
    Always,
    /// `fsync` once every `n` appends: bounds the loss window to at most
    /// `n - 1` acknowledged writes.
    EveryN(u64),
    /// Only `fsync` when the buffer is flushed (or [`Wal::sync`] is called
    /// explicitly): fastest, loses up to one buffer of acknowledged writes on
    /// a power failure.
    OnFlush,
}

/// One operation inside a [`WalRecord::Batch`]. The batch carries the shared
/// logical timestamp; the ops themselves are timestamp-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOp {
    /// A put of `(sort_key, delete_key, value)`.
    Put {
        /// Primary sort key `S`.
        sort_key: SortKey,
        /// Secondary delete key `D`.
        delete_key: DeleteKey,
        /// Opaque value bytes.
        value: Bytes,
    },
    /// A point delete of `sort_key`.
    Delete {
        /// Primary sort key `S`.
        sort_key: SortKey,
    },
    /// A secondary range delete of **delete keys** `[d_lo, d_hi)`.
    SecondaryDelete {
        /// Inclusive lower delete-key bound.
        d_lo: DeleteKey,
        /// Exclusive upper delete-key bound.
        d_hi: DeleteKey,
    },
    /// A range delete of **sort keys** `[start, end)`.
    DeleteRange {
        /// Inclusive lower sort-key bound.
        start: SortKey,
        /// Exclusive upper sort-key bound.
        end: SortKey,
    },
}

impl BatchOp {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            BatchOp::Put { sort_key, delete_key, value } => {
                buf.put_u8(0);
                buf.put_u64(*sort_key);
                buf.put_u64(*delete_key);
                buf.put_u32(value.len() as u32);
                buf.put_slice(value);
            }
            BatchOp::Delete { sort_key } => {
                buf.put_u8(1);
                buf.put_u64(*sort_key);
            }
            BatchOp::SecondaryDelete { d_lo, d_hi } => {
                buf.put_u8(2);
                buf.put_u64(*d_lo);
                buf.put_u64(*d_hi);
            }
            BatchOp::DeleteRange { start, end } => {
                buf.put_u8(3);
                buf.put_u64(*start);
                buf.put_u64(*end);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self> {
        if buf.remaining() < 1 {
            return Err(StorageError::Corruption("wal batch op truncated".into()));
        }
        match buf.get_u8() {
            0 => {
                if buf.remaining() < 20 {
                    return Err(StorageError::Corruption("wal batch put truncated".into()));
                }
                let sort_key = buf.get_u64();
                let delete_key = buf.get_u64();
                let len = buf.get_u32() as usize;
                if buf.remaining() < len {
                    return Err(StorageError::Corruption("wal batch put value truncated".into()));
                }
                let value = buf.copy_to_bytes(len);
                Ok(BatchOp::Put { sort_key, delete_key, value })
            }
            1 => {
                if buf.remaining() < 8 {
                    return Err(StorageError::Corruption("wal batch delete truncated".into()));
                }
                Ok(BatchOp::Delete { sort_key: buf.get_u64() })
            }
            2 => {
                if buf.remaining() < 16 {
                    return Err(StorageError::Corruption(
                        "wal batch secondary delete truncated".into(),
                    ));
                }
                Ok(BatchOp::SecondaryDelete { d_lo: buf.get_u64(), d_hi: buf.get_u64() })
            }
            3 => {
                if buf.remaining() < 16 {
                    return Err(StorageError::Corruption("wal batch range delete truncated".into()));
                }
                Ok(BatchOp::DeleteRange { start: buf.get_u64(), end: buf.get_u64() })
            }
            t => Err(StorageError::Corruption(format!("unknown wal batch op tag {t}"))),
        }
    }
}

/// A logged mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A put of `(sort_key, delete_key, value)` at logical time `ts`.
    Put { sort_key: SortKey, delete_key: DeleteKey, value: Bytes, ts: Timestamp },
    /// A point delete of `sort_key` at logical time `ts`.
    Delete { sort_key: SortKey, ts: Timestamp },
    /// A range delete of sort keys `[start, end)` at logical time `ts`.
    DeleteRange { start: SortKey, end: SortKey, ts: Timestamp },
    /// A secondary range delete of **delete keys** `[d_lo, d_hi)` at logical
    /// time `ts`. Logged so that a crash after the acknowledgement cannot
    /// resurrect buffered entries the delete purged: replaying the log in
    /// order re-purges them.
    SecondaryDelete { d_lo: DeleteKey, d_hi: DeleteKey, ts: Timestamp },
    /// An atomic multi-op batch logged as **one frame**, so the torn-tail
    /// truncation that protects single records extends, for free, to whole
    /// batches: after a crash the batch is either entirely in the recovered
    /// prefix or entirely gone, never split.
    ///
    /// `id` is `None` for a batch confined to one WAL (single shard — the
    /// frame itself is the commit point). A cross-shard batch carries the
    /// store-wide batch id of its per-shard slice; replay must hold such a
    /// slice back until the batch-commit log proves the id committed.
    Batch {
        /// Store-wide batch id for cross-shard batches, `None` when the
        /// frame alone is the commit point.
        id: Option<u64>,
        /// The operations, applied in order under one commit timestamp.
        ops: Vec<BatchOp>,
        /// Shared logical timestamp of every op in the batch.
        ts: Timestamp,
    },
}

impl WalRecord {
    /// The record that logs `ops` as one request stamped `ts`: the only way
    /// the write path turns operations into a frame. A lone operation whose
    /// frame is itself the commit point (`id` is `None`) is logged as its
    /// compact single-op record; anything else (several ops, or a prepared
    /// cross-shard slice) as one [`WalRecord::Batch`].
    pub fn for_ops(ops: &[BatchOp], id: Option<u64>, ts: Timestamp) -> WalRecord {
        match (id, ops) {
            (None, [BatchOp::Put { sort_key, delete_key, value }]) => WalRecord::Put {
                sort_key: *sort_key,
                delete_key: *delete_key,
                value: value.clone(),
                ts,
            },
            (None, [BatchOp::Delete { sort_key }]) => WalRecord::Delete { sort_key: *sort_key, ts },
            (None, [BatchOp::DeleteRange { start, end }]) => {
                WalRecord::DeleteRange { start: *start, end: *end, ts }
            }
            (None, [BatchOp::SecondaryDelete { d_lo, d_hi }]) => {
                WalRecord::SecondaryDelete { d_lo: *d_lo, d_hi: *d_hi, ts }
            }
            _ => WalRecord::Batch { id, ops: ops.to_vec(), ts },
        }
    }

    /// The inverse of [`WalRecord::for_ops`], for replay: the cross-shard
    /// batch id (if any), the logged timestamp and the operations.
    pub fn into_ops(self) -> (Option<u64>, Timestamp, Vec<BatchOp>) {
        match self {
            WalRecord::Put { sort_key, delete_key, value, ts } => {
                (None, ts, vec![BatchOp::Put { sort_key, delete_key, value }])
            }
            WalRecord::Delete { sort_key, ts } => (None, ts, vec![BatchOp::Delete { sort_key }]),
            WalRecord::DeleteRange { start, end, ts } => {
                (None, ts, vec![BatchOp::DeleteRange { start, end }])
            }
            WalRecord::SecondaryDelete { d_lo, d_hi, ts } => {
                (None, ts, vec![BatchOp::SecondaryDelete { d_lo, d_hi }])
            }
            WalRecord::Batch { id, ops, ts } => (id, ts, ops),
        }
    }

    /// Logical timestamp the record was appended at.
    pub fn timestamp(&self) -> Timestamp {
        match self {
            WalRecord::Put { ts, .. }
            | WalRecord::Delete { ts, .. }
            | WalRecord::DeleteRange { ts, .. }
            | WalRecord::SecondaryDelete { ts, .. }
            | WalRecord::Batch { ts, .. } => *ts,
        }
    }

    fn encode(&self, buf: &mut BytesMut) {
        match self {
            WalRecord::Put { sort_key, delete_key, value, ts } => {
                buf.put_u8(0);
                buf.put_u64(*sort_key);
                buf.put_u64(*delete_key);
                buf.put_u64(*ts);
                buf.put_u32(value.len() as u32);
                buf.put_slice(value);
            }
            WalRecord::Delete { sort_key, ts } => {
                buf.put_u8(1);
                buf.put_u64(*sort_key);
                buf.put_u64(*ts);
            }
            WalRecord::DeleteRange { start, end, ts } => {
                buf.put_u8(2);
                buf.put_u64(*start);
                buf.put_u64(*end);
                buf.put_u64(*ts);
            }
            WalRecord::SecondaryDelete { d_lo, d_hi, ts } => {
                buf.put_u8(3);
                buf.put_u64(*d_lo);
                buf.put_u64(*d_hi);
                buf.put_u64(*ts);
            }
            WalRecord::Batch { id, ops, ts } => {
                buf.put_u8(4);
                match id {
                    Some(id) => {
                        buf.put_u8(1);
                        buf.put_u64(*id);
                    }
                    None => buf.put_u8(0),
                }
                buf.put_u64(*ts);
                buf.put_u32(ops.len() as u32);
                for op in ops {
                    op.encode(buf);
                }
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self> {
        if buf.remaining() < 1 {
            return Err(StorageError::Corruption("wal record truncated".into()));
        }
        let tag = buf.get_u8();
        match tag {
            0 => {
                if buf.remaining() < 28 {
                    return Err(StorageError::Corruption("wal put truncated".into()));
                }
                let sort_key = buf.get_u64();
                let delete_key = buf.get_u64();
                let ts = buf.get_u64();
                let len = buf.get_u32() as usize;
                if buf.remaining() < len {
                    return Err(StorageError::Corruption("wal put value truncated".into()));
                }
                let value = buf.copy_to_bytes(len);
                Ok(WalRecord::Put { sort_key, delete_key, value, ts })
            }
            1 => {
                if buf.remaining() < 16 {
                    return Err(StorageError::Corruption("wal delete truncated".into()));
                }
                Ok(WalRecord::Delete { sort_key: buf.get_u64(), ts: buf.get_u64() })
            }
            2 => {
                if buf.remaining() < 24 {
                    return Err(StorageError::Corruption("wal range delete truncated".into()));
                }
                Ok(WalRecord::DeleteRange { start: buf.get_u64(), end: buf.get_u64(), ts: buf.get_u64() })
            }
            3 => {
                if buf.remaining() < 24 {
                    return Err(StorageError::Corruption("wal secondary delete truncated".into()));
                }
                Ok(WalRecord::SecondaryDelete {
                    d_lo: buf.get_u64(),
                    d_hi: buf.get_u64(),
                    ts: buf.get_u64(),
                })
            }
            4 => {
                if buf.remaining() < 1 {
                    return Err(StorageError::Corruption("wal batch truncated".into()));
                }
                let id = match buf.get_u8() {
                    0 => None,
                    1 => {
                        if buf.remaining() < 8 {
                            return Err(StorageError::Corruption("wal batch id truncated".into()));
                        }
                        Some(buf.get_u64())
                    }
                    t => {
                        return Err(StorageError::Corruption(format!(
                            "unknown wal batch id marker {t}"
                        )))
                    }
                };
                if buf.remaining() < 12 {
                    return Err(StorageError::Corruption("wal batch header truncated".into()));
                }
                let ts = buf.get_u64();
                let n = buf.get_u32() as usize;
                let mut ops = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    ops.push(BatchOp::decode(buf)?);
                }
                Ok(WalRecord::Batch { id, ops, ts })
            }
            t => Err(StorageError::Corruption(format!("unknown wal tag {t}"))),
        }
    }
}

/// A write-ahead log.
pub trait Wal: Send + Sync {
    /// Appends a record and applies the sync policy to it: one
    /// [`Wal::append_nosync`] followed by one [`Wal::commit`].
    fn append(&self, record: WalRecord) -> Result<()> {
        self.append_nosync(record)?;
        self.commit()
    }
    /// Appends a record **without** applying the sync policy. A group-commit
    /// leader stages every queued record with this, then makes the combined
    /// tail durable with one [`Wal::commit`] — the whole point of group
    /// commit is that the fsync count scales with commit groups, not records.
    fn append_nosync(&self, record: WalRecord) -> Result<()>;
    /// Makes everything staged by [`Wal::append_nosync`] as durable as the
    /// sync policy demands (under [`SyncPolicy::Always`], one fsync for the
    /// whole staged tail).
    fn commit(&self) -> Result<()>;
    /// Number of durability barriers (`fsync`/`fdatasync`) this log has
    /// issued. Benches and tests assert group commit keeps this sublinear in
    /// the record count.
    fn fsync_count(&self) -> u64;
    /// Returns every record currently in the log, oldest first.
    fn replay(&self) -> Result<Vec<WalRecord>>;
    /// Removes every record (after a successful flush of the buffer).
    fn truncate(&self) -> Result<()>;
    /// Forces the log to durable storage.
    fn sync(&self) -> Result<()>;
    /// Retains only records with `timestamp >= cutoff`. This is the paper's
    /// WAL hygiene routine that keeps tombstone persistence bounded by `D_th`
    /// even when the log is rotated slowly.
    fn purge_older_than(&self, cutoff: Timestamp) -> Result<usize>;
    /// Number of records currently in the log. A background flush captures
    /// this position when it freezes the write buffer, so the commit can
    /// later discard exactly the records it covered while concurrent appends
    /// keep extending the tail.
    fn position(&self) -> Result<u64>;
    /// Removes the first `upto` records (those at positions `< upto`),
    /// keeping any records appended after the position was captured.
    /// `committed` proves the manifest edit that covers those records is
    /// durable, so dropping them cannot lose an acknowledged write.
    fn truncate_prefix(&self, upto: u64, committed: &ManifestCommitted) -> Result<()>;
}

/// A durable WAL with length-prefixed records, on a [`Vfs`].
///
/// Crash tolerance: a crash mid-append leaves a *torn* trailing frame (a
/// dangling length prefix, or a frame body shorter than its prefix). Replay
/// recovers the valid prefix of the log under the [`log`](crate::log) rule
/// and cuts the torn tail away — it is the expected end state after a kill,
/// not corruption. A complete frame that does not decode is reported as
/// [`StorageError::Corruption`].
#[derive(Debug)]
pub struct FileWal {
    log: Mutex<LogFile>,
    sync_policy: SyncPolicy,
    appends_since_sync: AtomicU64,
    /// Records currently in the log; `u64::MAX` until first derived by a
    /// scan. Only read or written while `log` is locked.
    record_count: AtomicU64,
    failpoint: FailPoint,
}

/// Sentinel for "record count not derived yet".
const COUNT_UNKNOWN: u64 = u64::MAX;

/// A WAL frame: a big-endian `u32` body length, then the body. It carries
/// no checksum, so every complete frame is intact.
struct WalFrame;

impl Frame for WalFrame {
    const PREFIX: usize = 4;

    fn body_len(prefix: &[u8]) -> Option<usize> {
        Some(be(prefix) as usize)
    }
}

/// Lays out one log frame: a big-endian `u32` body length, then the body.
fn encode_frame(record: &WalRecord) -> BytesMut {
    let mut body = BytesMut::new();
    record.encode(&mut body);
    let mut frame = BytesMut::with_capacity(body.len() + 4);
    frame.put_u32(body.len() as u32);
    frame.extend_from_slice(&body);
    frame
}

impl FileWal {
    /// Opens (or creates) the WAL file at `path` on the host file system
    /// with [`SyncPolicy::Always`].
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_on(&OsVfs::shared(), path.as_ref())
    }

    /// Opens (or creates) the WAL file at `path` on `vfs` with
    /// [`SyncPolicy::Always`].
    pub fn open_on(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<Self> {
        Ok(FileWal {
            log: Mutex::new(LockRank::Wal, LogFile::open(vfs, path, true)?),
            sync_policy: SyncPolicy::Always,
            appends_since_sync: AtomicU64::new(0),
            record_count: AtomicU64::new(COUNT_UNKNOWN),
            failpoint: FailPoint::new(),
        })
    }

    /// Sets the append durability policy.
    pub fn with_sync_policy(mut self, policy: SyncPolicy) -> Self {
        self.sync_policy = policy;
        self
    }

    /// Attaches a crash-injection fail point consulted before every append
    /// and rewrite step (testing aid).
    pub fn with_failpoint(mut self, fp: FailPoint) -> Self {
        self.failpoint = fp;
        self
    }

    /// Reads every intact record, cutting a torn tail away. Requires the log
    /// lock (appends from other threads must not interleave with the scan
    /// or the cut).
    fn read_all_locked(&self, log: &mut LogFile) -> Result<Vec<WalRecord>> {
        let mut out = Vec::new();
        // a *complete* frame that does not decode is real corruption
        log.recover::<WalFrame>(|_, _, body| {
            out.push(WalRecord::decode(&mut Bytes::copy_from_slice(body))?);
            Ok(())
        })?;
        self.record_count.store(out.len() as u64, Ordering::Relaxed);
        Ok(out)
    }

    /// Atomically replaces the log contents. Requires the log lock so that
    /// no append can slip in between the snapshot the caller took and the
    /// rename (it would be silently discarded).
    fn rewrite_locked(&self, log: &mut LogFile, records: &[WalRecord]) -> Result<()> {
        self.failpoint.check(KillPoint::WalRewriteBegin)?;
        let contents: Vec<u8> = records.iter().flat_map(|r| encode_frame(r).to_vec()).collect();
        log.replace("wal.tmp", &contents, || self.failpoint.check(KillPoint::WalRewriteRename))?;
        self.record_count.store(records.len() as u64, Ordering::Relaxed);
        self.appends_since_sync.store(0, Ordering::Relaxed);
        Ok(())
    }
}

impl Wal for FileWal {
    fn append_nosync(&self, record: WalRecord) -> Result<()> {
        self.failpoint.check(KillPoint::WalAppendNosync)?;
        self.log.lock().append(&encode_frame(&record))?;
        // the cached record count is kept in step, under the same lock
        let count = self.record_count.load(Ordering::Relaxed);
        if count != COUNT_UNKNOWN {
            self.record_count.store(count + 1, Ordering::Relaxed);
        }
        self.appends_since_sync.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn commit(&self) -> Result<()> {
        // decided before the file lock is taken, so a commit with nothing to
        // do costs one atomic load: the counter only moves under that lock,
        // and this thread's own appends are already in it
        let pending = self.appends_since_sync.load(Ordering::Relaxed);
        let due = match self.sync_policy {
            SyncPolicy::Always => pending > 0,
            SyncPolicy::EveryN(n) => pending >= n.max(1),
            SyncPolicy::OnFlush => false,
        };
        if due {
            // the reset stays under the lock, where the counter moves
            let log = self.log.lock();
            log.sync_data()?;
            self.appends_since_sync.store(0, Ordering::Relaxed);
        }
        Ok(())
    }

    fn fsync_count(&self) -> u64 {
        self.log.lock().fsync_count()
    }

    fn replay(&self) -> Result<Vec<WalRecord>> {
        self.read_all_locked(&mut self.log.lock())
    }

    fn truncate(&self) -> Result<()> {
        self.rewrite_locked(&mut self.log.lock(), &[])
    }

    fn sync(&self) -> Result<()> {
        let log = self.log.lock();
        log.sync_all()?;
        self.appends_since_sync.store(0, Ordering::Relaxed);
        Ok(())
    }

    fn purge_older_than(&self, cutoff: Timestamp) -> Result<usize> {
        let mut log = self.log.lock();
        let records = self.read_all_locked(&mut log)?;
        let before = records.len();
        let keep: Vec<WalRecord> = records.into_iter().filter(|r| r.timestamp() >= cutoff).collect();
        let purged = before - keep.len();
        self.rewrite_locked(&mut log, &keep)?;
        Ok(purged)
    }

    fn position(&self) -> Result<u64> {
        let mut log = self.log.lock();
        let count = self.record_count.load(Ordering::Relaxed);
        if count != COUNT_UNKNOWN {
            return Ok(count);
        }
        Ok(self.read_all_locked(&mut log)?.len() as u64)
    }

    fn truncate_prefix(&self, upto: u64, _: &ManifestCommitted) -> Result<()> {
        if upto == 0 {
            return Ok(());
        }
        let mut log = self.log.lock();
        // fast path: when the prefix covers the whole log (no record was
        // appended since the position was captured — the common case for a
        // flush commit), skip the full-log read-and-reparse and write an
        // empty log directly
        let count = self.record_count.load(Ordering::Relaxed);
        if count != COUNT_UNKNOWN && upto >= count {
            return self.rewrite_locked(&mut log, &[]);
        }
        let records = self.read_all_locked(&mut log)?;
        let n = (upto as usize).min(records.len());
        self.rewrite_locked(&mut log, &records[n..])
    }
}

#[cfg(test)]
impl FileWal {
    fn torn_tails_recovered(&self) -> u64 {
        self.log.lock().torn_tails_recovered()
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the tests write torn tails into logs on disk, as a crash leaves them"
)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Put { sort_key: 1, delete_key: 11, value: Bytes::from_static(b"hello"), ts: 10 },
            WalRecord::Delete { sort_key: 2, ts: 20 },
            WalRecord::DeleteRange { start: 5, end: 9, ts: 30 },
        ]
    }

    /// A log on a fresh in-memory file system.
    fn mem_wal() -> FileWal {
        FileWal::open_on(&crate::vfs::MemVfs::shared(), Path::new("/lethe.wal")).unwrap()
    }

    #[test]
    fn purge_respects_the_cutoff() {
        let w = mem_wal();
        for r in sample_records() {
            w.append(r).unwrap();
        }
        let purged = w.purge_older_than(20).unwrap();
        assert_eq!(purged, 1);
        let left = w.replay().unwrap();
        assert_eq!(left.len(), 2);
        assert!(left.iter().all(|r| r.timestamp() >= 20));
    }

    #[test]
    fn file_wal_roundtrip() {
        let path = std::env::temp_dir().join(format!("lethe-wal-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let w = FileWal::open(&path).unwrap();
        for r in sample_records() {
            w.append(r).unwrap();
        }
        w.sync().unwrap();
        assert_eq!(w.replay().unwrap(), sample_records());
        // reopening sees the same records
        drop(w);
        let w2 = FileWal::open(&path).unwrap();
        assert_eq!(w2.replay().unwrap(), sample_records());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_wal_purge_and_truncate() {
        let path = std::env::temp_dir().join(format!("lethe-wal2-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let w = FileWal::open(&path).unwrap();
        for r in sample_records() {
            w.append(r).unwrap();
        }
        assert_eq!(w.purge_older_than(25).unwrap(), 2);
        assert_eq!(w.replay().unwrap().len(), 1);
        w.truncate().unwrap();
        assert!(w.replay().unwrap().is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_wal_recovers_valid_prefix_of_torn_tail() {
        let path = std::env::temp_dir().join(format!("lethe-wal-torn-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let w = FileWal::open(&path).unwrap();
            for r in sample_records() {
                w.append(r).unwrap();
            }
        }
        // simulate a crash mid-append: a complete frame for a 4th record,
        // then chop it so only the length prefix and 2 body bytes survive
        {
            use std::io::Write;
            let mut body = BytesMut::new();
            WalRecord::Delete { sort_key: 99, ts: 40 }.encode(&mut body);
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            let mut frame = BytesMut::new();
            frame.put_u32(body.len() as u32);
            frame.extend_from_slice(&body[..2]);
            f.write_all(&frame).unwrap();
        }
        let w = FileWal::open(&path).unwrap();
        // replay recovers the 3 intact records instead of failing
        assert_eq!(w.replay().unwrap(), sample_records());
        assert_eq!(w.torn_tails_recovered(), 1);
        // the torn tail is gone from the file: a re-open replays cleanly
        drop(w);
        let w2 = FileWal::open(&path).unwrap();
        assert_eq!(w2.replay().unwrap(), sample_records());
        assert_eq!(w2.torn_tails_recovered(), 0);
        // appending after recovery extends the intact prefix
        w2.append(WalRecord::Delete { sort_key: 7, ts: 50 }).unwrap();
        assert_eq!(w2.replay().unwrap().len(), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_wal_recovers_dangling_header_bytes() {
        let path =
            std::env::temp_dir().join(format!("lethe-wal-dangle-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let w = FileWal::open(&path).unwrap();
            w.append(WalRecord::Delete { sort_key: 1, ts: 10 }).unwrap();
        }
        // 1-3 dangling bytes of a never-completed length prefix
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xAB, 0xCD]).unwrap();
        }
        let w = FileWal::open(&path).unwrap();
        assert_eq!(w.replay().unwrap().len(), 1);
        assert_eq!(w.torn_tails_recovered(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sync_policies_acknowledge_every_append() {
        for policy in [SyncPolicy::Always, SyncPolicy::EveryN(3), SyncPolicy::OnFlush] {
            let path = std::env::temp_dir()
                .join(format!("lethe-wal-sync-{:?}-{}.wal", policy, std::process::id()));
            let _ = std::fs::remove_file(&path);
            let w = FileWal::open(&path).unwrap().with_sync_policy(policy);
            for r in sample_records() {
                w.append(r).unwrap();
            }
            w.sync().unwrap();
            assert_eq!(w.replay().unwrap(), sample_records());
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn failpoint_aborts_append_and_rewrite() {
        let path = std::env::temp_dir().join(format!("lethe-wal-fp-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let fp = FailPoint::new();
        let w = FileWal::open(&path).unwrap().with_failpoint(fp.clone());
        w.append(WalRecord::Delete { sort_key: 1, ts: 1 }).unwrap();
        fp.arm(0);
        assert!(matches!(
            w.append(WalRecord::Delete { sort_key: 2, ts: 2 }),
            Err(StorageError::Injected)
        ));
        // the failed append wrote nothing
        assert_eq!(w.replay().unwrap().len(), 1);
        fp.arm(1);
        assert!(matches!(w.truncate(), Err(StorageError::Injected)));
        // the aborted rewrite left the original log intact
        assert_eq!(w.replay().unwrap().len(), 1);
        w.truncate().unwrap();
        assert!(w.replay().unwrap().is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncate_prefix_keeps_concurrently_appended_tail() {
        let path =
            std::env::temp_dir().join(format!("lethe-wal-prefix-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let w = FileWal::open(&path).unwrap();
        for r in sample_records() {
            w.append(r).unwrap();
        }
        // a flush captures the position, then two more records arrive
        // before the commit truncates its prefix
        let upto = w.position().unwrap();
        assert_eq!(upto, 3);
        w.append(WalRecord::Delete { sort_key: 50, ts: 50 }).unwrap();
        w.append(WalRecord::Delete { sort_key: 60, ts: 60 }).unwrap();
        let committed = ManifestCommitted::for_test();
        w.truncate_prefix(upto, &committed).unwrap();
        let left = w.replay().unwrap();
        assert_eq!(left.len(), 2, "the tail appended after the capture must survive");
        assert!(left.iter().all(|r| r.timestamp() >= 50));
        assert_eq!(w.position().unwrap(), 2);
        // fast path: prefix covers the whole log
        w.truncate_prefix(w.position().unwrap(), &committed).unwrap();
        assert!(w.replay().unwrap().is_empty());
        assert_eq!(w.position().unwrap(), 0);
        // reopening derives the count lazily and agrees
        drop(w);
        let w2 = FileWal::open(&path).unwrap();
        assert_eq!(w2.position().unwrap(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncate_prefix_drops_at_most_the_whole_log() {
        let w = mem_wal();
        for r in sample_records() {
            w.append(r).unwrap();
        }
        assert_eq!(w.position().unwrap(), 3);
        let committed = ManifestCommitted::for_test();
        w.truncate_prefix(2, &committed).unwrap();
        assert_eq!(w.replay().unwrap(), sample_records()[2..]);
        w.truncate_prefix(99, &committed).unwrap();
        assert!(w.replay().unwrap().is_empty());
    }

    #[test]
    fn record_timestamps() {
        for (r, want) in sample_records().into_iter().zip([10u64, 20, 30]) {
            assert_eq!(r.timestamp(), want);
        }
        assert_eq!(WalRecord::SecondaryDelete { d_lo: 1, d_hi: 2, ts: 40 }.timestamp(), 40);
    }

    fn sample_batch(id: Option<u64>) -> WalRecord {
        WalRecord::Batch {
            id,
            ops: vec![
                BatchOp::Put { sort_key: 1, delete_key: 11, value: Bytes::from_static(b"a") },
                BatchOp::Delete { sort_key: 2 },
                BatchOp::SecondaryDelete { d_lo: 3, d_hi: 9 },
                BatchOp::DeleteRange { start: 4, end: 8 },
            ],
            ts: 77,
        }
    }

    #[test]
    fn batch_record_roundtrips() {
        let path = std::env::temp_dir().join(format!("lethe-wal-batch-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let w = FileWal::open(&path).unwrap();
        let records =
            vec![sample_batch(None), sample_batch(Some(42)), WalRecord::Batch { id: None, ops: vec![], ts: 5 }];
        for r in &records {
            w.append(r.clone()).unwrap();
        }
        assert_eq!(w.replay().unwrap(), records);
        assert_eq!(records[0].timestamp(), 77);
        // reopening decodes the same frames
        drop(w);
        let w2 = FileWal::open(&path).unwrap();
        assert_eq!(w2.replay().unwrap(), records);
        let _ = std::fs::remove_file(&path);
    }

    /// Every frame kind the commit before `BatchOp::DeleteRange` could write,
    /// as the bytes its `FileWal` wrote for them (230 of them), including the
    /// one-op `Batch` a sharded put logged and a prepared cross-shard slice.
    const PARENT_LOG_HEX: &str = "\
        0000001f000000000000000001000000000000000b00000000000000640000000276310000001101\
        000000000000000200000000000000c8000000190200000000000000030000000000000009000000\
        000000012c0000001903000000000000000a000000000000000c0000000000000190000000250400\
        00000000000001f400000001000000000000000004000000000000002c0000000276340000004704\
        01000000000000000700000000000002580000000300000000000000000500000000000000370000\
        000276350100000000000000010200000000000000280000000000000032";

    #[test]
    fn logs_written_before_this_change_still_replay() {
        let v = |s: &'static str| Bytes::from_static(s.as_bytes());
        let bytes: Vec<u8> = (0..PARENT_LOG_HEX.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&PARENT_LOG_HEX[i..i + 2], 16).unwrap())
            .collect();
        assert_eq!(bytes.len(), 230);
        let path = std::env::temp_dir().join(format!("lethe-wal-old-{}.wal", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let records = FileWal::open(&path).unwrap().replay().unwrap();
        let _ = std::fs::remove_file(&path);
        let lone_put = BatchOp::Put { sort_key: 4, delete_key: 44, value: v("v4") };
        let slice = vec![
            BatchOp::Put { sort_key: 5, delete_key: 55, value: v("v5") },
            BatchOp::Delete { sort_key: 1 },
            BatchOp::SecondaryDelete { d_lo: 40, d_hi: 50 },
        ];
        assert_eq!(
            records,
            vec![
                WalRecord::Put { sort_key: 1, delete_key: 11, value: v("v1"), ts: 100 },
                WalRecord::Delete { sort_key: 2, ts: 200 },
                WalRecord::DeleteRange { start: 3, end: 9, ts: 300 },
                WalRecord::SecondaryDelete { d_lo: 10, d_hi: 12, ts: 400 },
                WalRecord::Batch { id: None, ops: vec![lone_put.clone()], ts: 500 },
                WalRecord::Batch { id: Some(7), ops: slice.clone(), ts: 600 },
            ]
        );
        // the frames themselves have not moved
        let reencoded: Vec<u8> = records.iter().flat_map(|r| encode_frame(r).to_vec()).collect();
        assert_eq!(reencoded, bytes);
        // and ops → record → ops is the identity on every record but the
        // one-op batch, whose op now takes the compact frame
        for (i, record) in records.into_iter().enumerate() {
            let (id, ts, ops) = record.clone().into_ops();
            let again = WalRecord::for_ops(&ops, id, ts);
            if i == 4 {
                assert_eq!((id, ts, ops), (None, 500, vec![lone_put.clone()]));
                let compact = WalRecord::Put { sort_key: 4, delete_key: 44, value: v("v4"), ts: 500 };
                assert_eq!(again, compact);
            } else {
                assert_eq!(again, record);
            }
        }
        // a prepared slice keeps its batch frame even with one op
        assert!(matches!(
            WalRecord::for_ops(&[lone_put], Some(9), 1),
            WalRecord::Batch { id: Some(9), .. }
        ));
    }

    #[test]
    fn torn_batch_frame_is_discarded_whole() {
        let path = std::env::temp_dir().join(format!("lethe-wal-tornb-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let w = FileWal::open(&path).unwrap();
            w.append(WalRecord::Delete { sort_key: 1, ts: 10 }).unwrap();
        }
        // a batch frame chopped mid-op: the whole batch must vanish on
        // replay — all-or-nothing, never a prefix of its ops
        {
            use std::io::Write;
            let mut body = BytesMut::new();
            sample_batch(None).encode(&mut body);
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            let mut frame = BytesMut::new();
            frame.put_u32(body.len() as u32);
            frame.extend_from_slice(&body[..body.len() - 3]);
            f.write_all(&frame).unwrap();
        }
        let w = FileWal::open(&path).unwrap();
        let left = w.replay().unwrap();
        assert_eq!(left, vec![WalRecord::Delete { sort_key: 1, ts: 10 }]);
        assert_eq!(w.torn_tails_recovered(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_commit_coalesces_fsyncs() {
        let path = std::env::temp_dir().join(format!("lethe-wal-gc-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let w = FileWal::open(&path).unwrap(); // SyncPolicy::Always
        for r in sample_records() {
            w.append(r).unwrap();
        }
        let per_record = w.fsync_count();
        assert_eq!(per_record, 3, "Always fsyncs once per append");
        // a leader staging 8 records pays exactly one barrier at commit
        for i in 0..8 {
            w.append_nosync(WalRecord::Delete { sort_key: 100 + i, ts: 100 + i }).unwrap();
        }
        assert_eq!(w.fsync_count(), per_record, "staging must not sync");
        w.commit().unwrap();
        assert_eq!(w.fsync_count(), per_record + 1);
        // an empty commit is free
        w.commit().unwrap();
        assert_eq!(w.fsync_count(), per_record + 1);
        assert_eq!(w.replay().unwrap().len(), 11);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn commit_respects_policy() {
        let path = std::env::temp_dir().join(format!("lethe-wal-gcp-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let w = FileWal::open(&path).unwrap().with_sync_policy(SyncPolicy::OnFlush);
        for i in 0..4 {
            w.append_nosync(WalRecord::Delete { sort_key: i, ts: i }).unwrap();
        }
        w.commit().unwrap();
        assert_eq!(w.fsync_count(), 0, "OnFlush defers durability to the flush");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn secondary_delete_record_roundtrips() {
        let path = std::env::temp_dir().join(format!("lethe-wal-sd-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let w = FileWal::open(&path).unwrap();
        let r = WalRecord::SecondaryDelete { d_lo: 5, d_hi: 10, ts: 99 };
        w.append(r.clone()).unwrap();
        assert_eq!(w.replay().unwrap(), vec![r]);
        let _ = std::fs::remove_file(&path);
    }
}
