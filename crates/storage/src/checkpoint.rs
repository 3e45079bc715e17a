//! The checkpoint completeness marker.
//!
//! An online checkpoint streams a pinned snapshot into a fresh backend and
//! manifest in a target directory while writers continue. Every durable step
//! of that stream can be killed (the backend's and manifest's own fail-point
//! sites fire as usual), so the defining question of a checkpoint directory
//! is: *did the stream finish?* This module answers it with a checksummed
//! `CHECKPOINT` marker file written **last**, via the same
//! tmp-write → fsync → rename → dir-fsync sequence
//! ([`barrier::publish`](crate::barrier::publish)) every replaced file uses:
//!
//! * no marker → the checkpoint is detectably incomplete (a crash before the
//!   final rename), and restore refuses it rather than opening a silently
//!   short store;
//! * a marker present → every file it covers was durable before the marker's
//!   rename, so the directory opens as a normal store at exactly the
//!   snapshot's seqnum fence.
//!
//! The marker records the snapshot fence and the shard count so a restored
//! store can verify it is reading the view it was promised.

use crate::barrier::publish;
use crate::checksum::crc32;
use crate::entry::SeqNum;
use crate::error::{Result, StorageError};
use crate::failpoint::{FailPoint, KillPoint};
use crate::vfs::Vfs;
use std::path::Path;
use std::sync::atomic::AtomicU64;

/// File name of the completeness marker inside a checkpoint directory.
pub const CHECKPOINT_MARKER: &str = "CHECKPOINT";

const MARKER_MAGIC: &[u8; 8] = b"LCHKPT01";

/// The payload of a checkpoint completeness marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointMarker {
    /// The snapshot seqnum fence the checkpoint was streamed at: the
    /// restored store's `next_seqnum` starts here.
    pub fence: SeqNum,
    /// Number of shards whose entries were merged into the checkpoint.
    pub shards: u32,
}

impl CheckpointMarker {
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(24);
        buf.extend_from_slice(MARKER_MAGIC);
        buf.extend_from_slice(&self.fence.to_le_bytes());
        buf.extend_from_slice(&self.shards.to_le_bytes());
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    fn decode(data: &[u8]) -> Result<Self> {
        if data.len() != 24 || &data[..8] != MARKER_MAGIC {
            return Err(StorageError::Corruption("checkpoint marker malformed".into()));
        }
        let stored = u32::from_le_bytes([data[20], data[21], data[22], data[23]]);
        if crc32(&data[..20]) != stored {
            return Err(StorageError::Corruption("checkpoint marker checksum mismatch".into()));
        }
        let fence = u64::from_le_bytes([
            data[8], data[9], data[10], data[11], data[12], data[13], data[14], data[15],
        ]);
        let shards = u32::from_le_bytes([data[16], data[17], data[18], data[19]]);
        Ok(CheckpointMarker { fence, shards })
    }
}

/// Durably writes the completeness marker into `dir`, charging its barriers
/// to `fsyncs`. Call this **after** every data file and manifest of the
/// checkpoint is durable — the rename is the checkpoint's commit point.
///
/// The two fail-point sites bracket the durable steps: killed at
/// `checkpoint.marker.tmp` the directory has no marker at all; killed at
/// `checkpoint.marker.rename` it has only the ignored temporary. Either way
/// [`read_marker`] refuses the directory.
pub fn write_marker(
    vfs: &dyn Vfs,
    dir: &Path,
    marker: CheckpointMarker,
    fsyncs: &AtomicU64,
    failpoint: Option<&FailPoint>,
) -> Result<()> {
    if let Some(fp) = failpoint {
        fp.check(KillPoint::CheckpointMarkerTmp)?;
    }
    publish(
        vfs,
        &dir.join(CHECKPOINT_MARKER),
        &dir.join("CHECKPOINT.tmp"),
        fsyncs,
        &marker.encode(),
        || failpoint.map_or(Ok(()), |fp| fp.check(KillPoint::CheckpointMarkerRename)),
    )?;
    Ok(())
}

/// Reads and verifies the completeness marker of a checkpoint directory.
///
/// A missing marker means the checkpoint never committed (torn mid-stream):
/// the error says so explicitly instead of letting a partial directory open
/// as a silently short store. A present-but-corrupt marker is reported as
/// corruption.
pub fn read_marker(vfs: &dyn Vfs, dir: &Path) -> Result<CheckpointMarker> {
    match vfs.read(&dir.join(CHECKPOINT_MARKER)) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            Err(StorageError::InvalidOperation(format!(
                "no checkpoint marker in {} — the checkpoint is incomplete (crashed before \
                 its commit point) and cannot be restored",
                dir.display()
            )))
        }
        data => CheckpointMarker::decode(&data?),
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "the tests lay out checkpoint directories on disk")]
mod tests {
    use super::*;
    use crate::vfs::OsVfs;
    use std::fs;
    use std::sync::atomic::Ordering;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("lethe-checkpoint-{}-{}", tag, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn marker_roundtrips_and_counts_barriers() {
        let dir = tmp_dir("roundtrip");
        let n = AtomicU64::new(0);
        let m = CheckpointMarker { fence: 12345, shards: 4 };
        write_marker(&OsVfs, &dir, m, &n, None).unwrap();
        // one fsync for the tmp file, one for the directory entry
        assert_eq!(n.load(Ordering::Relaxed), 2);
        assert_eq!(read_marker(&OsVfs, &dir).unwrap(), m);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_marker_is_an_explicit_error() {
        let dir = tmp_dir("missing");
        let err = read_marker(&OsVfs, &dir).unwrap_err();
        assert!(err.to_string().contains("incomplete"), "got: {err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_marker_is_rejected() {
        let dir = tmp_dir("corrupt");
        let n = AtomicU64::new(0);
        let m = CheckpointMarker { fence: 7, shards: 1 };
        write_marker(&OsVfs, &dir, m, &n, None).unwrap();
        let path = dir.join(CHECKPOINT_MARKER);
        let mut data = fs::read(&path).unwrap();
        data[9] ^= 0xFF;
        fs::write(&path, &data).unwrap();
        assert!(matches!(read_marker(&OsVfs, &dir), Err(StorageError::Corruption(_))));
        // truncated
        fs::write(&path, &data[..10]).unwrap();
        assert!(matches!(read_marker(&OsVfs, &dir), Err(StorageError::Corruption(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_points_leave_no_valid_marker() {
        let dir = tmp_dir("killpoints");
        let n = AtomicU64::new(0);
        let m = CheckpointMarker { fence: 99, shards: 2 };
        for site_hits in [1u64, 2] {
            let fp = FailPoint::new();
            fp.arm(site_hits - 1);
            let err = write_marker(&OsVfs, &dir, m, &n, Some(&fp)).unwrap_err();
            assert!(matches!(err, StorageError::Injected));
            let torn = read_marker(&OsVfs, &dir);
            assert!(torn.is_err(), "torn marker accepted after kill {site_hits}");
        }
        // a clean retry after the torn attempts succeeds
        write_marker(&OsVfs, &dir, m, &n, None).unwrap();
        assert_eq!(read_marker(&OsVfs, &dir).unwrap(), m);
        let _ = fs::remove_dir_all(&dir);
    }
}
