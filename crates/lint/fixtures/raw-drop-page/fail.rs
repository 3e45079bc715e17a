// must-fail: raw drop_page call outside the retirement choke point, and a
// raw write_page call in lethe-lsm outside PageReservation::write
fn release(backend: &dyn StorageBackend, id: PageId) {
    let _ = backend.drop_page(id);
}

fn write(backend: &dyn StorageBackend, page: &Page) -> Result<PageId> {
    backend.write_page(page)
}
