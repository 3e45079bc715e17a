//! Write-ahead log.
//!
//! Every mutation is appended to the WAL before it is acknowledged, so the
//! buffered (not yet flushed) part of the tree survives a crash. How strongly
//! the append is pinned to the platter before the acknowledgement is the
//! [`SyncPolicy`] knob ([`FileWal`] defaults to [`SyncPolicy::Always`], i.e.
//! fsync-per-append); a crash mid-append leaves a torn trailing frame which
//! replay truncates away, recovering the valid prefix.
//!
//! The file is the magic `LETHEWAL`, then one [`log`] frame per record, with
//! no header extension: `len · crc32(body) · body`. The checksum is what
//! tells a record damaged mid-log (`Corruption`, named by the file and the
//! frame's offset) from a torn tail. A log written before the checksum
//! (`len · body` frames, no magic) is re-framed once when it is opened.
//!
//! The engine removes records only through [`Wal::truncate_prefix`], after
//! the manifest commit that covers them is durable (the
//! [`ManifestCommitted`] witness proves it). The paper's persistence
//! guarantee (§4.1.5) also asks that tombstones not out-live the
//! delete-persistence threshold `D_th` *inside the WAL*; nothing here bounds
//! that yet, so a log that is not flushed within `D_th` keeps its tombstones
//! longer.

use crate::clock::Timestamp;
use crate::entry::{DeleteKey, SortKey};
use crate::error::{Result, StorageError};
use crate::log::{self, read_bytes, read_list, read_u32, read_u64, read_u8, Format, LogFile};
use crate::manifest::ManifestCommitted;
use bytes::{BufMut, Bytes, BytesMut};
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
        Ok(match read_u8(buf)? {
            0 => {
                let (sort_key, delete_key, len) = (read_u64(buf)?, read_u64(buf)?, read_u32(buf)?);
                BatchOp::Put { sort_key, delete_key, value: read_bytes(buf, len as usize)? }
            }
            1 => BatchOp::Delete { sort_key: read_u64(buf)? },
            2 => BatchOp::SecondaryDelete { d_lo: read_u64(buf)?, d_hi: read_u64(buf)? },
            3 => BatchOp::DeleteRange { start: read_u64(buf)?, end: read_u64(buf)? },
            t => return Err(StorageError::Corruption(format!("unknown wal batch op tag {t}"))),
        })
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

    /// The record's frame body.
    fn encode(&self) -> BytesMut {
        let mut buf = BytesMut::new();
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
                    op.encode(&mut buf);
                }
            }
        }
        buf
    }

    fn decode(buf: &mut Bytes) -> Result<Self> {
        // a struct expression evaluates its fields in the order written
        Ok(match read_u8(buf)? {
            0 => {
                let (sort_key, delete_key, ts) = (read_u64(buf)?, read_u64(buf)?, read_u64(buf)?);
                let len = read_u32(buf)? as usize;
                WalRecord::Put { sort_key, delete_key, ts, value: read_bytes(buf, len)? }
            }
            1 => WalRecord::Delete { sort_key: read_u64(buf)?, ts: read_u64(buf)? },
            2 => WalRecord::DeleteRange {
                start: read_u64(buf)?,
                end: read_u64(buf)?,
                ts: read_u64(buf)?,
            },
            3 => WalRecord::SecondaryDelete {
                d_lo: read_u64(buf)?,
                d_hi: read_u64(buf)?,
                ts: read_u64(buf)?,
            },
            4 => {
                let id = match read_u8(buf)? {
                    0 => None,
                    1 => Some(read_u64(buf)?),
                    t => {
                        return Err(StorageError::Corruption(format!(
                            "unknown wal batch id marker {t}"
                        )))
                    }
                };
                let ts = read_u64(buf)?;
                WalRecord::Batch { id, ts, ops: read_list(buf, BatchOp::decode)? }
            }
            t => return Err(StorageError::Corruption(format!("unknown wal tag {t}"))),
        })
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

/// A durable WAL of checksummed [`log`] frames, on a [`Vfs`].
///
/// Crash tolerance: a crash mid-append leaves a *torn* trailing frame (a
/// dangling header, a body shorter than its header says, or a last frame
/// that fails its checksum). Replay recovers the valid prefix of the log
/// under the [`log`] rule and cuts the torn tail away — it is the expected
/// end state after a kill, not corruption. A frame that fails its checksum
/// with frames behind it, or that checksums but does not decode, is
/// reported as [`StorageError::Corruption`].
///
/// A failed append or barrier poisons the log (see [`LogFile`]): the
/// records the barrier was to make durable may be lost, so no later append
/// or commit succeeds, and none acknowledges them, until the log is
/// reopened.
#[derive(Debug)]
pub struct FileWal {
    log: Mutex<LogFile>,
    sync_policy: SyncPolicy,
    appends_since_sync: AtomicU64,
    /// Records currently in the log; `u64::MAX` until first derived by a
    /// scan. Only read or written while `log` is locked.
    record_count: AtomicU64,
}

/// Sentinel for "record count not derived yet".
const COUNT_UNKNOWN: u64 = u64::MAX;

/// A WAL file's layout: the magic `LETHEWAL`, then [`log`] frames with no
/// header extension, one per record.
pub(crate) const FORMAT: Format =
    Format { magic: b"LETHEWAL", ext_len: 0, kind: log::UNTAGGED, older: &[], max_tail: u64::MAX };

/// Re-frames a log written before the WAL had a checksum: `len (u32 BE) ·
/// body` frames with no file magic. A short length or a body past
/// end-of-file is a torn tail and is dropped, as it was then.
fn v1_frames(mut bytes: &[u8]) -> Result<Vec<u8>> {
    let mut frames = Vec::new();
    while let Some((len, rest)) = bytes.split_first_chunk::<4>() {
        let Some(body) = rest.get(..u32::from_be_bytes(*len) as usize) else { break };
        frames.extend(log::frame(&FORMAT, &[], body));
        bytes = &rest[body.len()..];
    }
    Ok(frames)
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
            log: Mutex::new(
                LockRank::Wal,
                LogFile::open_versioned(vfs, path, &FORMAT, "wal.tmp", v1_frames)?,
            ),
            sync_policy: SyncPolicy::Always,
            appends_since_sync: AtomicU64::new(0),
            record_count: AtomicU64::new(COUNT_UNKNOWN),
        })
    }

    /// Sets the append durability policy.
    pub fn with_sync_policy(mut self, policy: SyncPolicy) -> Self {
        self.sync_policy = policy;
        self
    }

    /// Reads every intact record, cutting a torn tail away. Requires the log
    /// lock (appends from other threads must not interleave with the scan
    /// or the cut).
    fn read_all_locked(&self, log: &mut LogFile) -> Result<Vec<WalRecord>> {
        let mut out = Vec::new();
        // a frame that checksums but does not decode is real corruption
        log.recover(&FORMAT, |_, _, body| {
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
        let frames: Vec<u8> =
            records.iter().flat_map(|r| log::frame(&FORMAT, &[], &r.encode())).collect();
        log.replace(&FORMAT, "wal.tmp", &frames)?;
        self.record_count.store(records.len() as u64, Ordering::Relaxed);
        self.appends_since_sync.store(0, Ordering::Relaxed);
        Ok(())
    }
}

impl Wal for FileWal {
    fn append_nosync(&self, record: WalRecord) -> Result<()> {
        let frame = log::frame(&FORMAT, &[], &record.encode());
        self.log.lock().append(&frame)?;
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
            // the first commit after an open also makes the log's name
            // durable; under `OnFlush` a commit syncs nothing, and a flush
            // rewrites the log through a publish, which syncs the directory
            log.sync_entry()?;
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
        log.sync_entry()?;
        self.appends_since_sync.store(0, Ordering::Relaxed);
        Ok(())
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
    use crate::log::tests::hex;
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
    fn file_wal_truncate() {
        let path = std::env::temp_dir().join(format!("lethe-wal2-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let w = FileWal::open(&path).unwrap();
        for r in sample_records() {
            w.append(r).unwrap();
        }
        assert_eq!(w.replay().unwrap().len(), 3);
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
        // then chop it so only the header and 2 body bytes survive
        {
            use std::io::Write;
            let record = WalRecord::Delete { sort_key: 99, ts: 40 };
            let frame = log::frame(&FORMAT, &[], &record.encode());
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&frame[..FORMAT.header_len() + 2]).unwrap();
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
    fn an_injected_fault_aborts_append_and_rewrite() {
        let vfs = crate::vfs::FaultVfs::new(crate::vfs::MemVfs::shared());
        let open = || {
            FileWal::open_on(&(vfs.clone() as Arc<dyn Vfs>), Path::new("/s/lethe.wal"))
                .unwrap()
                .with_sync_policy(SyncPolicy::OnFlush)
        };
        let w = open();
        w.append(WalRecord::Delete { sort_key: 1, ts: 1 }).unwrap();
        vfs.arm(0);
        assert!(matches!(
            w.append(WalRecord::Delete { sort_key: 2, ts: 2 }),
            Err(StorageError::Injected)
        ));
        assert_eq!(vfs.last_fired().unwrap().to_string(), "wal.append");
        // the failed append wrote nothing
        assert_eq!(w.replay().unwrap().len(), 1);
        // the rewrite: its tmp create, its cut, the write, its barrier, the
        // rename and the directory barrier behind it
        for kill in 0..6 {
            let w = open();
            vfs.arm(kill);
            assert!(matches!(w.truncate(), Err(StorageError::Injected)));
            // a failed rewrite poisons the handle, which may be on the
            // replaced file: it takes no more records
            let refused = w.append(WalRecord::Delete { sort_key: 3, ts: 3 });
            assert!(matches!(refused, Err(StorageError::InvalidOperation(_))));
            // killed before the rename, the original log is intact; after
            // it, the log is the rewritten one
            let site = vfs.last_fired().unwrap().to_string();
            let left = if kill < 5 { 1 } else { 0 };
            assert_eq!(open().replay().unwrap().len(), left, "killed at {site}");
        }
        assert_eq!(vfs.last_fired().unwrap().to_string(), "dir.sync_dir");
        let w = open();
        w.append(WalRecord::Delete { sort_key: 4, ts: 4 }).unwrap();
        w.truncate().unwrap();
        assert!(w.replay().unwrap().is_empty());
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

    /// The same six records in the checksummed frame, behind the magic.
    const FRAMED_LOG_HEX: &str = "\
        4c4554484557414c0000001f78488248000000000000000001000000000000000b00000000000000\
        6400000002763100000011f50058fa01000000000000000200000000000000c800000019ad5398af\
        0200000000000000030000000000000009000000000000012c00000019e12e369403000000000000\
        000a000000000000000c000000000000019000000025ed22123c040000000000000001f400000001\
        000000000000000004000000000000002c000000027634000000471f79de78040100000000000000\
        07000000000000025800000003000000000000000005000000000000003700000002763501000000\
        00000000010200000000000000280000000000000032";

    #[test]
    fn logs_written_before_this_change_still_replay() {
        let v = |s: &'static str| Bytes::from_static(s.as_bytes());
        let bytes = hex(PARENT_LOG_HEX);
        assert_eq!(bytes.len(), 230);
        let path = std::env::temp_dir().join(format!("lethe-wal-old-{}.wal", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let wal = FileWal::open(&path).unwrap();
        let records = wal.replay().unwrap();
        // the open republished the log in the checksummed frame, before any
        // append, and an append extends it in that frame: 8 bytes of magic
        // and 4 of checksum per record more than the parent's
        let framed = hex(FRAMED_LOG_HEX);
        assert_eq!(framed.len(), 230 + 8 + 6 * 4);
        assert_eq!(std::fs::read(&path).unwrap(), framed);
        let late = WalRecord::Delete { sort_key: 8, ts: 700 };
        wal.append(late.clone()).unwrap();
        let appended = [framed.clone(), log::frame(&FORMAT, &[], &late.encode())].concat();
        assert_eq!(std::fs::read(&path).unwrap(), appended);
        drop(wal);
        let reopened = FileWal::open(&path).unwrap().replay().unwrap();
        assert_eq!(reopened, [records.clone(), vec![late]].concat());
        // and a fresh log writes the framed bytes for the same records
        std::fs::remove_file(&path).unwrap();
        let fresh = FileWal::open(&path).unwrap();
        records.iter().for_each(|r| fresh.append(r.clone()).unwrap());
        assert_eq!(std::fs::read(&path).unwrap(), framed);
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
            let frame = log::frame(&FORMAT, &[], &sample_batch(None).encode());
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&frame[..frame.len() - 3]).unwrap();
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
        assert_eq!(per_record, 3 + 1, "Always fsyncs once per append, the first its directory too");
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

    /// A byte flipped inside a complete frame with another frame behind it
    /// is corruption named by the file and the frame's offset; the same
    /// flip in the last frame is a torn tail.
    #[test]
    fn a_flipped_byte_is_corruption_mid_log_and_a_torn_tail_at_the_end() {
        let path = std::env::temp_dir().join(format!("lethe-wal-flip-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let w = FileWal::open(&path).unwrap();
            sample_records().into_iter().for_each(|r| w.append(r).unwrap());
        }
        let clean = std::fs::read(&path).unwrap();
        let frame_len = |r: &WalRecord| log::frame(&FORMAT, &[], &r.encode()).len();
        let first = FORMAT.magic.len();
        let last = clean.len() - frame_len(&sample_records()[2]);
        // the last byte of the first record's value ("hello"), and of the
        // last record's body
        let hello = first + frame_len(&sample_records()[0]) - 1;
        for (frame, flip, torn) in [(first, hello, false), (last, clean.len() - 1, true)] {
            let mut bytes = clean.clone();
            bytes[flip] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            let w = FileWal::open(&path).unwrap();
            match w.replay() {
                Ok(records) => {
                    assert!(torn, "a flip at {flip} replayed {records:?}");
                    assert_eq!(records, sample_records()[..2]);
                    assert_eq!(w.torn_tails_recovered(), 1);
                    assert_eq!(std::fs::read(&path).unwrap(), clean[..last]);
                }
                Err(StorageError::Corruption(what)) => {
                    assert!(!torn, "the last frame's flip is a torn tail, not {what}");
                    let (at, file) = (format!("offset {frame}"), format!("{path:?}"));
                    assert!(what.contains(&at) && what.contains(&file), "{what}");
                    assert_eq!(std::fs::read(&path).unwrap(), bytes, "nothing is cut");
                }
                Err(e) => panic!("{e}"),
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A log whose magic has one bit flipped is not taken for a version-1
    /// log (whose reading would keep none of its records): the open fails
    /// with `Corruption` and leaves the file as it is.
    #[test]
    fn a_damaged_magic_is_corruption_not_an_empty_log() {
        let vfs = crate::vfs::MemVfs::shared();
        let path = Path::new("/lethe.wal");
        let w = FileWal::open_on(&vfs, path).unwrap();
        sample_records().into_iter().for_each(|r| w.append(r).unwrap());
        drop(w);
        let clean = vfs.read(path).unwrap();
        for bit in 0..8 * FORMAT.magic.len() {
            let mut bytes = clean.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            let file = vfs.open(path, false).unwrap();
            file.set_len(0).unwrap();
            file.append(&bytes).unwrap();
            let opened = FileWal::open_on(&vfs, path);
            assert!(matches!(opened, Err(StorageError::Corruption(_))), "bit {bit}: {opened:?}");
            assert_eq!(vfs.read(path).unwrap(), bytes, "bit {bit}: nothing is cut");
        }
    }

    /// A frame whose checksum holds but whose body does not decode names
    /// the file and the frame's offset.
    #[test]
    fn a_record_that_does_not_decode_names_its_place() {
        let vfs = crate::vfs::MemVfs::shared();
        let path = Path::new("/lethe.wal");
        let w = FileWal::open_on(&vfs, path).unwrap();
        w.append(WalRecord::Delete { sort_key: 1, ts: 1 }).unwrap();
        let at = vfs.read(path).unwrap().len();
        vfs.open(path, false).unwrap().append(&log::frame(&FORMAT, &[], &[1, 2])).unwrap();
        let Err(StorageError::Corruption(what)) = w.replay() else { panic!("decoded") };
        let (place, file) = (format!("offset {at}"), format!("{path:?}"));
        assert!(what.contains(&place) && what.contains(&file), "{what}");
        assert!(what.contains("frame body truncated"), "{what}");
    }

    /// The first commit after an open also syncs the log's directory, once:
    /// a barrier on a file whose name a power loss can drop keeps nothing.
    /// Under `OnFlush` a commit syncs nothing at all.
    #[test]
    fn the_first_commit_after_an_open_syncs_the_directory() {
        let vfs = crate::vfs::FaultVfs::new(crate::vfs::MemVfs::shared());
        vfs.enable_trace();
        let open = |policy| {
            let wal = FileWal::open_on(&(vfs.clone() as Arc<dyn Vfs>), Path::new("/s/lethe.wal"));
            wal.unwrap().with_sync_policy(policy)
        };
        let record = |ts| WalRecord::Delete { sort_key: ts, ts };
        let w = open(SyncPolicy::OnFlush);
        w.append(record(1)).unwrap();
        assert_eq!(w.fsync_count(), 0);
        drop(w);
        let synced_dir = || vfs.traced_sites().iter().any(|s| s.to_string() == "dir.sync_dir");
        assert!(!synced_dir());
        let w = open(SyncPolicy::Always);
        for ts in 2..5 {
            w.append(record(ts)).unwrap();
        }
        assert!(synced_dir());
        assert_eq!(w.fsync_count(), 3 + 1, "three appends' barriers and the directory's");
    }

    /// A failed `fdatasync` poisons the log: no later append or commit
    /// succeeds, so no later barrier acknowledges the record whose own
    /// barrier failed, until a reopen.
    #[test]
    fn a_failed_sync_poisons_the_log() {
        let vfs = crate::vfs::FaultVfs::new(crate::vfs::MemVfs::shared());
        let open = || FileWal::open_on(&(vfs.clone() as Arc<dyn Vfs>), Path::new("/s/lethe.wal"));
        let w = open().unwrap(); // SyncPolicy::Always
        let [synced, unsynced, refused] =
            [1, 2, 3].map(|ts| WalRecord::Delete { sort_key: ts, ts });
        w.append(synced.clone()).unwrap();
        // the append lands and its barrier fails
        vfs.arm(1);
        assert!(matches!(w.append(unsynced.clone()), Err(StorageError::Injected)));
        assert_eq!(vfs.last_fired().unwrap().to_string(), "wal.sync_data");
        let poisoned = |r: Result<()>| matches!(r, Err(StorageError::InvalidOperation(_)));
        assert!(poisoned(w.append(refused)), "an append after a failed barrier");
        assert!(poisoned(w.commit()), "a commit after a failed barrier");
        assert!(poisoned(w.sync()));
        assert_eq!(w.fsync_count(), 2, "only the first record's barriers succeeded");
        // the file system here keeps what was appended, so the reopen reads
        // the record whose barrier failed, and never the refused one
        drop(w);
        let w = open().unwrap();
        assert_eq!(w.replay().unwrap(), vec![synced, unsynced]);
        w.append(WalRecord::Delete { sort_key: 4, ts: 4 }).unwrap();
    }
}
