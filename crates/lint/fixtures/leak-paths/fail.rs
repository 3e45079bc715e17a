//! Seeded error-path resource leaks. Never compiled — parsed by the
//! `leak-paths` analysis in the lint's tests.
//! Expected: exactly four `leak-paths` findings.

type Result<T> = std::io::Result<T>;

pub struct Page;
pub struct Tree;
pub struct BatchLog;
pub struct Stamp;
pub struct Output;

/// Violation 1 — a fallible page-writing loop with no `PageReservation`
/// in scope: the `?` on a later iteration leaks every page already
/// written this call.
pub fn build_pages(backend: &dyn StorageBackend, chunks: &[Vec<u8>]) -> Result<Vec<u64>> {
    let mut ids = Vec::new();
    for chunk in chunks {
        let id = backend.write_page(&Page::from_bytes(chunk))?;
        ids.push(id);
    }
    Ok(ids)
}

/// Violation 2 — a batch staged under an explicit id that is never
/// committed in this function: the id stays burned in the batch log
/// with no matching commit-or-release.
pub fn stage_only(tree: &mut Tree, slice: &[u8], id: u64) -> Result<Stamp> {
    let stamp = tree.stage_batch(slice, Some(id))?;
    Ok(stamp)
}

/// Violation 3 — a fallible operation between stage and commit: the
/// `?` on the WAL flush abandons the staged id without releasing it.
pub fn stage_then_flush(tree: &mut Tree, log: &BatchLog, slice: &[u8], id: u64) -> Result<()> {
    tree.stage_batch(slice, Some(id))?;
    tree.flush_wal()?;
    log.commit(id)?;
    Ok(())
}

/// Violation 4 — a refusal that forgets the built output: the early
/// return comes before `commit_version` and nothing hands `out` to
/// `abort_output`, so its pages are referenced by no version.
pub fn apply_refusing(tree: &mut Tree, out: Output, stale: bool) -> Result<bool> {
    if stale {
        return Ok(false);
    }
    tree.commit_version(out)?;
    Ok(true)
}
