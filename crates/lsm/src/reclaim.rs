//! The page choke point: every engine-path write and release of a device
//! page goes through this module.
//!
//! `clippy.toml` bans raw [`StorageBackend::drop_page`] calls everywhere
//! else (`disallowed-methods`; the cache-invalidating device wrapper in
//! `lethe_storage::cache` and test code carry a reasoned `#[expect]`),
//! because a drop issued from an arbitrary call site is how two classes of
//! bugs slip in:
//!
//! 1. **Cache resurrection** — dropping on an inner device while a
//!    [`CachedBackend`](lethe_storage::CachedBackend) still holds the page
//!    resident would serve deleted data from memory. Routing every drop
//!    through the engine's *outermost* device (which is the cached wrapper
//!    when a cache is configured) keeps invalidate-before-drop a structural
//!    property instead of a convention.
//! 2. **Premature reclamation** — dropping a page that a pinned snapshot can
//!    still reach. The version set's deferred-reclamation logic
//!    ([`VersionSet::collect_garbage`](crate::version::VersionSet::collect_garbage))
//!    is the only place with enough information to decide a page is
//!    unreachable, and it calls in here once it has.
//!
//! The same ban covers raw [`StorageBackend::write_page`] calls: a page is
//! written only through [`PageReservation::write`], so no error path can
//! strand a fresh page.
//!
//! The helpers are deliberately thin: the *policy* (when a page may die)
//! stays with the callers listed below; this module only centralises the
//! *mechanism* so the ban has one place to point at.

use lethe_storage::{Page, PageId, Result, StorageBackend, StorageError};

/// Releases one page the caller has proven unreachable (reference count
/// reached zero, or the durable manifest does not reference it). An
/// already-missing page is no error: reclamation must be idempotent across
/// crash recovery, which may retire the same page twice. Any other error
/// (the device dropped the page but could not unlink the segment it
/// emptied) is the caller's to return.
pub fn retire_page(backend: &dyn StorageBackend, id: PageId) -> Result<()> {
    #[expect(clippy::disallowed_methods, reason = "the choke point the ban funnels into")]
    match backend.drop_page(id) {
        Err(StorageError::PageNotFound(_)) => Ok(()),
        dropped => dropped,
    }
}

/// Releases every page of a file that was compacted away and is referenced
/// by no version, snapshot or reference count any more. Every page is
/// retired even when one fails, and the first error is returned.
pub fn retire_pages<I>(backend: &dyn StorageBackend, ids: I) -> Result<usize>
where
    I: IntoIterator<Item = PageId>,
{
    let (mut released, mut first_error) = (0, None);
    for id in ids {
        if let Err(e) = retire_page(backend, id) {
            first_error.get_or_insert(e);
        }
        released += 1;
    }
    first_error.map_or(Ok(released), Err)
}

/// RAII cover for freshly written pages that are not yet reachable from any
/// table or manifest record.
///
/// Until a written page's id is registered in a durable structure, the only
/// reference to it is this reservation: [`write`](Self::write) puts a page
/// on the device and covers its id in one step, and
/// [`defuse`](Self::defuse) hands the ids over once ownership has
/// transferred. If the function returns early through an error path
/// instead, `Drop` retires every still-covered page.
pub struct PageReservation<'a> {
    backend: &'a dyn StorageBackend,
    ids: Vec<PageId>,
}

impl<'a> PageReservation<'a> {
    /// Opens an empty reservation against the device the pages live on.
    pub fn new(backend: &'a dyn StorageBackend) -> PageReservation<'a> {
        PageReservation { backend, ids: Vec::new() }
    }

    /// Writes `page` to the device and covers its id.
    pub fn write(&mut self, page: &Page) -> Result<PageId> {
        #[expect(clippy::disallowed_methods, reason = "the choke point the ban funnels into")]
        let id = self.backend.write_page(page)?;
        self.ids.push(id);
        Ok(id)
    }

    /// Releases the cover without retiring anything: the ids are now owned
    /// by a table / version / manifest record.
    pub fn defuse(mut self) {
        self.ids.clear();
    }
}

impl Drop for PageReservation<'_> {
    fn drop(&mut self) {
        // an error path: the error that unwound it is the one returned, and
        // a segment a failed unlink left is collected by the next open
        let _ = retire_pages(self.backend, self.ids.drain(..));
    }
}
