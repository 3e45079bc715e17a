// must-fail: a raw fsync bypasses the counted barrier helpers, and a raw
// rename bypasses the one publish sequence
fn persist(file: &std::fs::File) -> std::io::Result<()> {
    file.sync_all()?;
    Ok(())
}

fn persist_data(file: &std::fs::File) -> std::io::Result<()> {
    file.sync_data()
}

fn replace(tmp: &Path, path: &Path) -> std::io::Result<()> {
    std::fs::rename(tmp, path)
}
