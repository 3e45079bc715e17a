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
//! The file is the magic `LETHEBAT`, then one [`log`] frame per committed
//! id, with no header extension and the id (`u64` BE) as its 8-byte body,
//! recovered by the common [`log`] rule: a torn or checksum-invalid last
//! record is the expected end state after a crash mid-commit (the batch
//! simply did not commit) and is cut away; a bad record with records behind
//! it is corruption. `commit` writes and syncs one 16-byte record at a time
//! under the file lock, so no crash leaves more than one bad record: a bad
//! tail longer than that (a damaged length that runs past end-of-file from
//! mid-log) is corruption too, never a cut. A file without the magic does
//! not open.

use crate::error::{Result, StorageError};
use crate::log::{self, Format, LogFile, Sum};
use crate::vfs::Vfs;
use lethe_sync::{LockRank, Mutex};
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::sync::atomic::{AtomicU64, Ordering};

/// A batch log's layout: the magic `LETHEBAT`, then CRC-32 [`log`] frames
/// with no header extension, one per committed id; a crash tears at most
/// one frame (8 bytes of header, 8 of id).
const FORMAT: Format =
    Format { magic: b"LETHEBAT", ext_len: 0, tag: b"", sum: Sum::Crc32, max_tail: 16 };

/// Durable append-only set of committed cross-shard batch ids.
#[derive(Debug)]
pub struct BatchCommitLog {
    log: Mutex<LogFile>,
    ids: Mutex<HashSet<u64>>,
    next_id: AtomicU64,
}

impl BatchCommitLog {
    /// Opens (or creates) the commit log at `path` on `vfs`, loading the
    /// committed-id set and cutting away a torn tail left by a crash
    /// mid-commit.
    pub fn open(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<Self> {
        let mut log = LogFile::open_versioned(vfs, path, &FORMAT)?;
        let mut ids = HashSet::new();
        log.recover(&FORMAT, |_, _, body| {
            let id = body.try_into().map_err(|_| {
                StorageError::Corruption(format!("a {}-byte record is not one id", body.len()))
            })?;
            ids.insert(u64::from_be_bytes(id));
            Ok(())
        })?;
        // a commit killed at its barrier leaves a record this open serves
        // as committed, and the shards replay its slices on that word: the
        // record must be as durable as a commit's
        if !ids.is_empty() {
            log.sync_data()?;
        }
        let next_id = ids.iter().max().map_or(1, |max| max + 1);
        Ok(BatchCommitLog {
            log: Mutex::new(LockRank::BatchLogFile, log),
            ids: Mutex::new(LockRank::BatchLogIds, ids),
            next_id: AtomicU64::new(next_id),
        })
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
        let log = self.log.lock();
        log.append(&log::frame(&FORMAT, &[], &id.to_be_bytes()))?;
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
        let frames: Vec<u8> =
            keep.iter().flat_map(|&id| log::frame(&FORMAT, &[], &id.to_be_bytes())).collect();
        log.replace(&FORMAT, "batches.tmp", &frames)?;
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
    use crate::log::tests::hex;
    use std::fs::OpenOptions;
    use std::path::PathBuf;

    /// The frame that commits `id`.
    fn record(id: u64) -> Vec<u8> {
        log::frame(&FORMAT, &[], &id.to_be_bytes())
    }

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
            let rec = record(b);
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&rec[..7]).unwrap();
        }
        let log = open(&path).unwrap();
        assert!(log.contains(a));
        assert!(!log.contains(b), "a torn commit record must read as not-committed");
        // a full-length tail record with a bad checksum is also rolled back
        {
            let mut rec = record(b);
            rec[4..8].fill(0xEE);
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
        // batches — and open must refuse rather than guess. Its id bytes
        // fail the checksum; bit 7 of its length runs it past end-of-file,
        // a bad tail of two records, which one torn commit cannot leave
        let clean = std::fs::read(&path).unwrap();
        let middle = FORMAT.magic.len() + record(0).len();
        for (at, flip) in [(middle + FORMAT.header_len() + 2, 0xEE), (middle, 0x80)] {
            let mut bytes = clean.clone();
            bytes[at] ^= flip;
            std::fs::write(&path, &bytes).unwrap();
            assert!(matches!(open(&path), Err(StorageError::Corruption(_))), "byte {at}");
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "a failed open cuts nothing");
        }
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
        file.write_all(&bad.repeat(2)).unwrap();
        let before = std::fs::read(&path).unwrap();
        assert!(matches!(open(&path), Err(StorageError::Corruption(_))));
        assert_eq!(std::fs::read(&path).unwrap(), before, "a failed open cuts nothing");
        let _ = std::fs::remove_file(&path);
    }

    /// Two records as the commit before the common log rule wrote them:
    /// fixed `id · crc32(id)` records with no magic.
    const PARENT_LOG_HEX: &str = "00000000000000011225efff01020304050607083fca88c5";

    /// The same two records as a batch log writes them: common frames
    /// behind the magic.
    const FRAMED_LOG_HEX: &str = "\
        4c45544845424154000000081225efff0000000000000001000000083fca88c50102030405060708";

    /// The open of `path` fails with `Corruption` naming the file, and
    /// leaves its bytes as they were.
    fn assert_refused(path: &Path) {
        let before = std::fs::read(path).unwrap();
        match open(path) {
            Err(StorageError::Corruption(what)) => {
                assert!(what.contains("lethe-batchlog"), "the error names the file: {what}")
            }
            other => panic!("a log without the magic opened: {other:?}"),
        }
        assert_eq!(std::fs::read(path).unwrap(), before);
    }

    #[test]
    fn a_pre_frame_log_is_refused_and_a_fresh_log_writes_the_known_answer() {
        let path = tmp("parent");
        std::fs::write(&path, hex(PARENT_LOG_HEX)).unwrap();
        assert_refused(&path);
        // a fresh log writes the framed bytes for the same commits
        std::fs::remove_file(&path).unwrap();
        let ids = [1, 0x0102_0304_0506_0708];
        let log = open(&path).unwrap();
        ids.iter().for_each(|&id| log.commit(id).unwrap());
        assert_eq!(std::fs::read(&path).unwrap(), hex(FRAMED_LOG_HEX));
        drop(log);
        assert_eq!(open(&path).unwrap().committed(), HashSet::from(ids));
        let _ = std::fs::remove_file(&path);
    }

    /// A pre-frame log is refused whatever its records hold: a damaged
    /// record with a good one behind it, or a damaged last record.
    #[test]
    fn a_pre_frame_log_is_refused_damaged_or_not() {
        let path = tmp("v1rule");
        let mut bytes = hex(PARENT_LOG_HEX);
        bytes.extend_from_within(..12);
        bytes[14] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert_refused(&path);
        std::fs::write(&path, &bytes[..bytes.len() - 12]).unwrap();
        assert_refused(&path);
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

    /// A commit whose barrier failed left its record in the file, and the
    /// reopen serves the batch as committed: a power loss after that open
    /// must not take the record back.
    #[test]
    fn what_the_open_serves_as_committed_survives_a_power_loss() {
        let mem = crate::vfs::MemVfs::new();
        let vfs = crate::vfs::FaultVfs::new(mem.clone());
        let vfs_dyn = vfs.clone() as Arc<dyn Vfs>;
        let path = Path::new("/s/BATCHES");
        let log = BatchCommitLog::open(&vfs_dyn, path).unwrap();
        // as the sharded store's `SHARDS` publish does behind every open
        mem.sync_dir(Path::new("/s")).unwrap();
        vfs.arm(1);
        assert!(matches!(log.commit(1), Err(StorageError::Injected)));
        drop(log);
        assert!(BatchCommitLog::open(&vfs_dyn, path).unwrap().contains(1));
        mem.crash(&mut |_| 0);
        assert!(BatchCommitLog::open(&vfs_dyn, path).unwrap().contains(1));
    }

    #[test]
    fn an_injected_fault_aborts_the_commit() {
        let vfs = crate::vfs::FaultVfs::new(crate::vfs::MemVfs::shared());
        let vfs_dyn = vfs.clone() as Arc<dyn Vfs>;
        let open = || BatchCommitLog::open(&vfs_dyn, Path::new("/s/BATCHES"));
        // killed before the record is appended, then after it is appended
        // but before the fsync that makes it the commit point
        for (kill, site) in [(0, "batch_log.append"), (1, "batch_log.sync_data")] {
            let log = open().unwrap();
            let id = log.allocate_id();
            vfs.arm(kill);
            assert!(matches!(log.commit(id), Err(StorageError::Injected)));
            assert_eq!(vfs.last_fired().unwrap().to_string(), site);
            assert!(!log.contains(id));
            // the failure poisons the log: no commit goes through until a
            // reopen, and then one does
            let refused = log.commit(log.allocate_id());
            assert!(matches!(refused, Err(StorageError::InvalidOperation(_))));
            let log = open().unwrap();
            let id = log.allocate_id();
            log.commit(id).unwrap();
            assert!(log.contains(id));
        }
    }
}
