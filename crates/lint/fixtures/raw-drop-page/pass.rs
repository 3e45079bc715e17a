// must-pass: retirement goes through the choke point, pages are written
// through a reservation; a commented call, a call in test code, and an
// allow-marked call are all fine
fn release(backend: &dyn StorageBackend, id: PageId) {
    crate::reclaim::retire_page(backend, id);
    // backend.drop_page(id) would bypass cache invalidation
}

fn write(reservation: &mut PageReservation<'_>, page: &Page) -> Result<PageId> {
    reservation.write(page)
}

fn checked(backend: &dyn StorageBackend, id: PageId) {
    // lint:allow(raw-drop-page): fixture demonstrating a justified bypass
    let _ = backend.drop_page(id);
}

#[cfg(test)]
mod tests {
    #[test]
    fn drops_directly() {
        let b = InMemoryBackend::new();
        let id = b.write_page(&page).unwrap();
        b.drop_page(id).unwrap();
    }
}
