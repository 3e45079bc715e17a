//! Counted durability barriers and the one atomic publish.
//!
//! Every `fsync`/`fdatasync` the engine issues goes through this module, so
//! each one is charged to a counter that ultimately surfaces in
//! [`IoSnapshot::fsyncs`](crate::iostats::IoSnapshot) — the paper's
//! cost-model experiments (and the group-commit bench gate) rely on that
//! count being *exact*. The root `clippy.toml` bans raw `File::sync_all` /
//! `File::sync_data` / `fs::rename` calls (`disallowed-methods`) everywhere
//! but this file, so an uncounted barrier cannot be reintroduced silently,
//! and every file replaced by rename goes through [`publish`], whose fixed
//! order (content barrier before the rename, directory barrier after it)
//! no caller can get wrong.
//!
//! The helpers take the owning component's barrier counter explicitly
//! (a `&AtomicU64` — the WAL's, the device's [`IoStats`](crate::IoStats)
//! field, the manifest's, the batch log's, or the sharded store's), so
//! there is no global that could double-count a store sharing a process
//! with another store.

#![allow(clippy::disallowed_methods, reason = "the one module the raw calls may live in")]

use crate::error::Result;
use std::fs::{self, File, OpenOptions};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// `fdatasync`s `file` and charges one barrier to `fsyncs`. The cheaper
/// barrier: flushes data (and size) but not file timestamps — what every
/// append-path commit wants.
pub fn sync_data_counted(file: &File, fsyncs: &AtomicU64) -> Result<()> {
    file.sync_data()?;
    fsyncs.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

/// `fsync`s `file` (data + metadata) and charges one barrier to `fsyncs`.
/// Used where metadata matters: freshly created rewrite temporaries and
/// post-truncation tails.
pub fn sync_all_counted(file: &File, fsyncs: &AtomicU64) -> Result<()> {
    file.sync_all()?;
    fsyncs.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

/// `fsync`s the parent directory of `path` and charges one barrier to
/// `fsyncs`: a rename is only crash-durable once the directory entry is.
/// A path without a parent (or with an empty one) is a no-op *and charges
/// nothing* — there is no barrier to count.
pub fn fsync_dir_counted(path: &Path, fsyncs: &AtomicU64) -> Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            File::open(parent)?.sync_all()?;
            fsyncs.fetch_add(1, Ordering::Relaxed);
        }
    }
    Ok(())
}

/// Atomically replaces `path` with what `body` writes, charging two
/// barriers to `fsyncs`: creates (or truncates) `tmp`, runs `body` on it,
/// syncs it, runs `before_rename` (a caller's kill point), renames `tmp`
/// over `path` and syncs the directory. A crash at any step leaves either
/// the complete old file or the complete new one under `path`.
///
/// Returns a read + append handle to the published file. It is opened on
/// `tmp` before the rename and follows the inode across it, so a caller
/// that keeps appending never holds a handle to the replaced file.
pub fn publish(
    path: &Path,
    tmp: &Path,
    fsyncs: &AtomicU64,
    body: impl FnOnce(&mut File) -> std::io::Result<()>,
    before_rename: impl FnOnce() -> Result<()>,
) -> Result<File> {
    let mut file = File::create(tmp)?;
    body(&mut file)?;
    sync_all_counted(&file, fsyncs)?;
    let handle = OpenOptions::new().read(true).append(true).open(tmp)?;
    before_rename()?;
    fs::rename(tmp, path)?;
    fsync_dir_counted(path, fsyncs)?;
    Ok(handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn every_helper_counts_exactly_one_barrier() {
        let dir = std::env::temp_dir().join(format!("lethe-barrier-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("probe.bin");
        let file = File::create(&path).unwrap();
        let n = AtomicU64::new(0);
        sync_data_counted(&file, &n).unwrap();
        assert_eq!(n.load(Ordering::Relaxed), 1);
        sync_all_counted(&file, &n).unwrap();
        assert_eq!(n.load(Ordering::Relaxed), 2);
        fsync_dir_counted(&path, &n).unwrap();
        assert_eq!(n.load(Ordering::Relaxed), 3);

        // publish: one content barrier and one directory barrier, and the
        // returned handle appends to the published file, not the old one
        let tmp = dir.join("probe.tmp");
        let mut handle = publish(&path, &tmp, &n, |f| f.write_all(b"new"), || Ok(())).unwrap();
        assert_eq!(n.load(Ordering::Relaxed), 5);
        assert!(!tmp.exists());
        handle.write_all(b"+tail").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new+tail");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn parentless_path_counts_nothing() {
        let n = AtomicU64::new(0);
        fsync_dir_counted(Path::new("relative-file"), &n).unwrap();
        assert_eq!(n.load(Ordering::Relaxed), 0, "no directory was synced");
    }
}
