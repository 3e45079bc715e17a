//! The batch-commit log: the commit point for cross-shard write batches.
//!
//! A cross-shard [`WriteBatch`](crate::wal::WalRecord::Batch) is a two-phase
//! commit. **Prepare**: every involved shard durably logs its slice of the
//! batch as a `WalRecord::Batch { id: Some(id), .. }` frame in its own WAL.
//! **Commit**: the coordinator appends `id` to this store-wide log and
//! fsyncs — that single fsync is the commit point. Recovery replays a
//! prepared slice only when its id appears here; a crash between prepare and
//! commit therefore rolls the whole batch back on every shard, never leaving
//! it half-applied.
//!
//! The file is a sequence of fixed 12-byte records (`u64` id + CRC-32 of the
//! id bytes), recovered by the common [`log`](crate::log) rule: a torn or
//! checksum-invalid last record is the expected end state after a crash
//! mid-commit (the batch simply did not commit) and is cut away; a bad
//! record with records behind it is corruption. `commit` writes and syncs
//! one record at a time under the file lock, so no crash leaves two bad
//! records.

use crate::checksum::crc32;
use crate::error::Result;
use crate::failpoint::{FailPoint, KillPoint};
use crate::log::{be, Frame, LogFile};
use crate::vfs::Vfs;
use lethe_sync::{LockRank, Mutex};
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Size of one committed-id record on disk: `u64` id + `u32` CRC.
const RECORD_LEN: usize = 12;

/// The on-disk record of one committed id.
fn record(id: u64) -> [u8; RECORD_LEN] {
    let mut rec = [0u8; RECORD_LEN];
    rec[..8].copy_from_slice(&id.to_be_bytes());
    rec[8..].copy_from_slice(&crc32(&id.to_be_bytes()).to_be_bytes());
    rec
}

/// A record is all prefix: the id and its CRC, with no body.
struct Record;

impl Frame for Record {
    const PREFIX: usize = RECORD_LEN;

    fn body_len(_: &[u8]) -> Option<usize> {
        Some(0)
    }

    fn intact(prefix: &[u8], _: &[u8]) -> bool {
        prefix[8..] == crc32(&prefix[..8]).to_be_bytes()
    }
}

/// Durable append-only set of committed cross-shard batch ids.
#[derive(Debug)]
pub struct BatchCommitLog {
    log: Mutex<LogFile>,
    ids: Mutex<HashSet<u64>>,
    next_id: AtomicU64,
    failpoint: FailPoint,
}

impl BatchCommitLog {
    /// Opens (or creates) the commit log at `path` on `vfs`, loading the
    /// committed-id set and cutting away a torn tail left by a crash
    /// mid-commit.
    pub fn open(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<Self> {
        let mut log = LogFile::open(vfs, path, true)?;
        let mut ids = HashSet::new();
        log.recover::<Record>(|_, rec, _| {
            ids.insert(be(&rec[..8]));
            Ok(())
        })?;
        let next_id = ids.iter().max().map_or(1, |max| max + 1);
        Ok(BatchCommitLog {
            log: Mutex::new(LockRank::BatchLogFile, log),
            ids: Mutex::new(LockRank::BatchLogIds, ids),
            next_id: AtomicU64::new(next_id),
            failpoint: FailPoint::new(),
        })
    }

    /// Attaches a crash-injection fail point consulted before the append and
    /// before the commit fsync (testing aid).
    pub fn with_failpoint(mut self, fp: FailPoint) -> Self {
        self.failpoint = fp;
        self
    }

    /// Allocates a fresh store-wide batch id (monotonic, never reused across
    /// a reopen because [`open`](BatchCommitLog::open) starts past the
    /// largest committed id and the store bumps it past every id still
    /// prepared in a shard WAL via
    /// [`bump_next_id`](BatchCommitLog::bump_next_id)).
    pub fn allocate_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Advances the id allocator to at least `floor`.
    ///
    /// `open` rebuilds the allocator from *committed* records only, but a
    /// prepared-yet-uncommitted `Batch { id }` frame survives a reopen in
    /// its shard's WAL (recovery rolls the slice back without rewriting the
    /// WAL). Handing that id to a new batch that later commits would
    /// retroactively mark the stale rolled-back slice as committed and
    /// resurrect part of an aborted batch on the next recovery. The store
    /// therefore calls this on open with one past the largest id found in
    /// any shard WAL, committed or not.
    pub fn bump_next_id(&self, floor: u64) {
        self.next_id.fetch_max(floor, Ordering::Relaxed);
    }

    /// Durably commits `id`: appends the record and fsyncs. Returns only
    /// once the commit point is on stable storage.
    pub fn commit(&self, id: u64) -> Result<()> {
        self.failpoint.check(KillPoint::BatchlogAppend)?;
        let log = self.log.lock();
        log.append(&record(id))?;
        self.failpoint.check(KillPoint::BatchlogCommitFsync)?;
        log.sync_data()?;
        self.ids.lock().insert(id);
        Ok(())
    }

    /// Whether `id` has durably committed.
    pub fn contains(&self, id: u64) -> bool {
        self.ids.lock().contains(&id)
    }

    /// Snapshot of every committed id.
    pub fn committed(&self) -> HashSet<u64> {
        self.ids.lock().clone()
    }

    /// Compacts the log down to `live` (ids still referenced by some shard's
    /// WAL). Once every prepared slice of a batch has been flushed out of the
    /// WALs, its commit record has no reader left and can be dropped, keeping
    /// the log bounded by in-flight batches instead of store lifetime.
    pub fn retain(&self, live: &HashSet<u64>) -> Result<()> {
        let mut log = self.log.lock();
        let mut ids = self.ids.lock();
        let keep: Vec<u64> = {
            let mut v: Vec<u64> = ids.iter().copied().filter(|id| live.contains(id)).collect();
            v.sort_unstable();
            v
        };
        if keep.len() == ids.len() {
            return Ok(());
        }
        let contents: Vec<u8> = keep.iter().flat_map(|&id| record(id)).collect();
        log.replace("batches.tmp", &contents, || Ok(()))?;
        *ids = keep.into_iter().collect();
        Ok(())
    }

    /// Durability barriers issued by this log.
    pub fn fsync_count(&self) -> u64 {
        self.log.lock().fsync_count()
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the tests write torn tails into logs on disk, as a crash leaves them"
)]
mod tests {
    use super::*;
    use crate::vfs::OsVfs;
    use std::io::Write;

    fn open(path: &Path) -> Result<BatchCommitLog> {
        BatchCommitLog::open(&OsVfs::shared(), path)
    }
    use crate::error::StorageError;
    use crate::log::tests::hex;
    use std::fs::OpenOptions;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("lethe-batchlog-{tag}-{}.bin", std::process::id()))
    }

    #[test]
    fn commit_and_reload() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let log = open(&path).unwrap();
            let a = log.allocate_id();
            let b = log.allocate_id();
            assert_ne!(a, b);
            log.commit(a).unwrap();
            log.commit(b).unwrap();
            assert!(log.contains(a) && log.contains(b));
            assert_eq!(log.fsync_count(), 2, "one fsync per commit point");
        }
        let log = open(&path).unwrap();
        assert_eq!(log.committed().len(), 2);
        // the allocator never reuses a committed id
        assert!(!log.contains(log.allocate_id()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_means_not_committed() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let (a, b) = {
            let log = open(&path).unwrap();
            let a = log.allocate_id();
            let b = log.allocate_id();
            log.commit(a).unwrap();
            (a, b)
        };
        // a crash mid-commit of `b`: only part of its record reaches disk
        {
            let mut rec = [0u8; RECORD_LEN];
            rec[..8].copy_from_slice(&b.to_be_bytes());
            rec[8..].copy_from_slice(&crc32(&b.to_be_bytes()).to_be_bytes());
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&rec[..7]).unwrap();
        }
        let log = open(&path).unwrap();
        assert!(log.contains(a));
        assert!(!log.contains(b), "a torn commit record must read as not-committed");
        // a full-length tail record with a bad checksum is also rolled back
        {
            let mut rec = [0xEEu8; RECORD_LEN];
            rec[..8].copy_from_slice(&b.to_be_bytes());
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&rec).unwrap();
        }
        let log = open(&path).unwrap();
        assert!(!log.contains(b));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bump_next_id_skips_wal_resident_ids() {
        let path = tmp("bump");
        let _ = std::fs::remove_file(&path);
        let log = open(&path).unwrap();
        // simulate a reopen after a crash mid-2PC: id 5 was prepared in some
        // shard WAL but never committed, so the committed set is empty and
        // the allocator would restart at 1 — the bump must push it past 5
        log.bump_next_id(6);
        assert_eq!(log.allocate_id(), 6);
        // a lower floor never moves the allocator backwards
        log.bump_next_id(3);
        assert_eq!(log.allocate_id(), 7);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mid_file_corruption_is_an_error_not_a_rollback() {
        let path = tmp("midcorrupt");
        let _ = std::fs::remove_file(&path);
        {
            let log = open(&path).unwrap();
            for _ in 0..3 {
                let id = log.allocate_id();
                log.commit(id).unwrap();
            }
        }
        // damage the *middle* record: valid records follow, so this is real
        // corruption — truncating here would silently roll back committed
        // batches — and open must refuse rather than guess
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut f = OpenOptions::new().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(RECORD_LEN as u64 + 2)).unwrap();
            f.write_all(&[0xEE; 4]).unwrap();
        }
        assert!(matches!(open(&path), Err(StorageError::Corruption(_))));
        let _ = std::fs::remove_file(&path);
    }

    /// `[good][bad][bad]`: the first bad record has a record behind it, so
    /// it is not a torn tail, whatever that record holds. No crash leaves
    /// two bad records: `commit` writes and syncs one at a time.
    #[test]
    fn two_bad_trailing_records_are_corruption() {
        let path = tmp("twobad");
        let _ = std::fs::remove_file(&path);
        open(&path).unwrap().commit(1).unwrap();
        let mut bad = record(2);
        bad[11] ^= 0xFF;
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&[bad, bad].concat()).unwrap();
        let before = std::fs::read(&path).unwrap();
        assert!(matches!(open(&path), Err(StorageError::Corruption(_))));
        assert_eq!(std::fs::read(&path).unwrap(), before, "a failed open cuts nothing");
        let _ = std::fs::remove_file(&path);
    }

    /// Two records as the commit before the common log rule wrote them.
    const PARENT_LOG_HEX: &str = "00000000000000011225efff01020304050607083fca88c5";

    #[test]
    fn logs_written_before_this_change_still_load() {
        let bytes = hex(PARENT_LOG_HEX);
        let path = tmp("parent");
        std::fs::write(&path, &bytes).unwrap();
        let ids = [1, 0x0102_0304_0506_0708];
        assert_eq!(open(&path).unwrap().committed(), HashSet::from(ids));
        // and a fresh log writes the same bytes for the same commits
        std::fs::remove_file(&path).unwrap();
        let log = open(&path).unwrap();
        ids.iter().for_each(|&id| log.commit(id).unwrap());
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn retain_compacts_dead_ids() {
        let path = tmp("retain");
        let _ = std::fs::remove_file(&path);
        let log = open(&path).unwrap();
        let ids: Vec<u64> = (0..10).map(|_| log.allocate_id()).collect();
        for &id in &ids {
            log.commit(id).unwrap();
        }
        let live: HashSet<u64> = ids[7..].iter().copied().collect();
        log.retain(&live).unwrap();
        assert_eq!(log.committed(), live);
        // the compaction survives a reopen and the allocator stays monotonic
        drop(log);
        let log = open(&path).unwrap();
        assert_eq!(log.committed(), live);
        assert!(log.allocate_id() > *ids.last().unwrap());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failpoint_aborts_commit() {
        let path = tmp("fp");
        let _ = std::fs::remove_file(&path);
        let fp = FailPoint::new();
        let log = open(&path).unwrap().with_failpoint(fp.clone());
        let id = log.allocate_id();
        fp.arm(0);
        assert!(matches!(log.commit(id), Err(StorageError::Injected)));
        assert!(!log.contains(id));
        // after the crash window passes, the commit goes through
        fp.disarm();
        log.commit(id).unwrap();
        assert!(log.contains(id));
        let _ = std::fs::remove_file(&path);
    }
}
