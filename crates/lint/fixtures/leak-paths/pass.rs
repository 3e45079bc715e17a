//! Leak-free allocation windows the `leak-paths` analysis must accept.
//! Never compiled — parsed by the lint's tests.
//! Expected: zero `leak-paths` findings.

type Result<T> = std::io::Result<T>;

pub struct Page;
pub struct Tree;
pub struct BatchLog;
pub struct Stamp;
pub struct Output;

/// The RAII-covered form of the fallible page-writing loop: a
/// `PageReservation` opened before the first write retires every
/// covered page if an error path unwinds out.
pub fn build_pages_covered(backend: &dyn StorageBackend, chunks: &[Vec<u8>]) -> Result<Vec<u64>> {
    let mut reservation = crate::reclaim::PageReservation::new(backend);
    let mut ids = Vec::new();
    for chunk in chunks {
        let id = backend.write_page(&Page::from_bytes(chunk))?;
        reservation.add(id);
        ids.push(id);
    }
    reservation.defuse();
    Ok(ids)
}

/// Stage and commit with nothing fallible in between: the staged id
/// reaches its commit on every path that survives the stage itself.
pub fn stage_and_commit(tree: &mut Tree, log: &BatchLog, slice: &[u8], id: u64) -> Result<()> {
    tree.stage_batch(slice, Some(id))?;
    log.commit(id)?;
    Ok(())
}

/// Auto-assigned batch ids (no `Some(id)` argument) are recycled by the
/// batch log itself and are not tracked by this rule.
pub fn stage_auto(tree: &mut Tree, slice: &[u8]) -> Result<Stamp> {
    let stamp = tree.stage_batch(slice, None)?;
    Ok(stamp)
}

/// An infallible writer: no `?` or early return, so there is no error
/// path on which a page could leak.
pub fn write_one(backend: &dyn StorageBackend, page: &Page) -> u64 {
    match backend.write_page(page) {
        Ok(id) => id,
        Err(_) => 0,
    }
}

/// A refusal that releases the built output before returning; returns
/// after `commit_version` owe nothing (the version owns the pages).
pub fn apply_refusing(tree: &mut Tree, out: Output, stale: bool) -> Result<bool> {
    if stale {
        tree.abort_output(out);
        return Ok(false);
    }
    tree.commit_version(out)?;
    if tree.is_empty() {
        return Ok(true);
    }
    Ok(true)
}
