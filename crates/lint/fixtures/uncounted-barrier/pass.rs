// must-pass: barriers go through the counted helpers, which charge the
// component's fsync counter, and a replaced file goes through publish
fn persist(file: &std::fs::File, fsyncs: &AtomicU64) -> Result<()> {
    barrier::sync_all_counted(file, fsyncs)?;
    barrier::sync_data_counted(file, fsyncs)?;
    barrier::fsync_dir_counted(path, fsyncs)
}

fn replace(path: &Path, tmp: &Path, fsyncs: &AtomicU64) -> Result<File> {
    barrier::publish(path, tmp, fsyncs, |f| f.write_all(b"x"), || Ok(()))
}
