//! Counted durability barriers and the one atomic publish.
//!
//! Every `fsync`/`fdatasync` the engine issues goes through this module, so
//! each one is charged to a counter that ultimately surfaces in
//! [`IoSnapshot::fsyncs`](crate::iostats::IoSnapshot) — the paper's
//! cost-model experiments (and the group-commit bench gate) rely on that
//! count being *exact*, and a store in memory counts what the same store on
//! disk does: a barrier is a [`VfsFile`] or [`Vfs`] call. The root
//! `clippy.toml` bans the raw sync and rename calls everywhere but
//! [`OsVfs`](crate::vfs::OsVfs), and every file replaced by rename goes
//! through [`publish`], whose fixed order (content barrier before the
//! rename, directory barrier after it) no caller can get wrong.
//!
//! The helpers take the owning component's barrier counter explicitly
//! (a `&AtomicU64` — the WAL's, the device's [`IoStats`](crate::IoStats)
//! field, the manifest's, the batch log's, or the sharded store's), so
//! there is no global that could double-count a store sharing a process
//! with another store.

use crate::error::Result;
use crate::vfs::{Vfs, VfsFile};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// `fdatasync`s `file` and charges one barrier to `fsyncs`. The cheaper
/// barrier: flushes data (and size) but not file timestamps — what every
/// append-path commit wants.
pub fn sync_data_counted(file: &dyn VfsFile, fsyncs: &AtomicU64) -> Result<()> {
    file.sync_data()?;
    fsyncs.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

/// `fsync`s `file` (data + metadata) and charges one barrier to `fsyncs`.
/// Used where metadata matters: freshly created rewrite temporaries and
/// post-truncation tails.
pub fn sync_all_counted(file: &dyn VfsFile, fsyncs: &AtomicU64) -> Result<()> {
    file.sync_all()?;
    fsyncs.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

/// `fsync`s the parent directory of `path` and charges one barrier to
/// `fsyncs`: a rename is only crash-durable once the directory entry is.
/// A path without a parent (or with an empty one) is a no-op *and charges
/// nothing* — there is no barrier to count.
pub fn fsync_dir_counted(vfs: &dyn Vfs, path: &Path, fsyncs: &AtomicU64) -> Result<()> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        vfs.sync_dir(parent)?;
        fsyncs.fetch_add(1, Ordering::Relaxed);
    }
    Ok(())
}

/// Atomically replaces `path` with `contents`, charging two barriers to
/// `fsyncs`: creates (or truncates) `tmp`, writes `contents` to it, syncs
/// it, renames `tmp` over `path` and syncs the directory. A crash at any
/// step leaves either the complete old file or the complete new one under
/// `path`.
///
/// Returns the read + append handle `tmp` was written through. It follows
/// the file across the rename, so a caller that keeps appending never holds
/// a handle to the replaced file.
pub fn publish(
    vfs: &dyn Vfs,
    path: &Path,
    tmp: &Path,
    fsyncs: &AtomicU64,
    contents: &[u8],
) -> Result<Arc<dyn VfsFile>> {
    let file = vfs.open(tmp, true)?;
    file.set_len(0)?;
    file.append(contents)?;
    sync_all_counted(file.as_ref(), fsyncs)?;
    vfs.rename(tmp, path)?;
    fsync_dir_counted(vfs, path, fsyncs)?;
    Ok(file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    #[test]
    fn every_helper_counts_exactly_one_barrier() {
        let vfs = MemVfs::shared();
        let path = Path::new("/barrier/probe.bin");
        let file = vfs.open(path, true).unwrap();
        let n = AtomicU64::new(0);
        sync_data_counted(file.as_ref(), &n).unwrap();
        assert_eq!(n.load(Ordering::Relaxed), 1);
        sync_all_counted(file.as_ref(), &n).unwrap();
        assert_eq!(n.load(Ordering::Relaxed), 2);
        fsync_dir_counted(vfs.as_ref(), path, &n).unwrap();
        assert_eq!(n.load(Ordering::Relaxed), 3);

        // publish: one content barrier and one directory barrier, and the
        // returned handle appends to the published file, not the old one
        let tmp = Path::new("/barrier/probe.tmp");
        let handle = publish(vfs.as_ref(), path, tmp, &n, b"new").unwrap();
        assert_eq!(n.load(Ordering::Relaxed), 5);
        assert!(vfs.open(tmp, false).is_err());
        handle.append(b"+tail").unwrap();
        assert_eq!(vfs.read(path).unwrap(), b"new+tail");
    }

    #[test]
    fn parentless_path_counts_nothing() {
        let n = AtomicU64::new(0);
        fsync_dir_counted(MemVfs::shared().as_ref(), Path::new("relative-file"), &n).unwrap();
        assert_eq!(n.load(Ordering::Relaxed), 0, "no directory was synced");
    }
}
