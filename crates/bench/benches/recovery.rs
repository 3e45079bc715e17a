//! Benchmark: crash-recovery (reopen) time as a function of data volume.
//!
//! A durable store is populated once per size and then repeatedly reopened.
//! Each reopen performs the full recovery path: scan every segment,
//! checksumming every frame, to rebuild the page index, fold the manifest's
//! edit log, rebuild every file's Bloom filters and fence pointers from its
//! pages, release unreferenced pages, and replay the (empty) WAL. Reopen
//! time should scale roughly linearly with the volume of data on disk, dead
//! frames included; a regression here means restarts of a production-sized
//! store got slower.

use criterion::{criterion_group, criterion_main, Criterion};
use lethe_core::LetheBuilder;
use std::path::PathBuf;

const SIZES: [u64; 3] = [2_000, 8_000, 32_000];

fn builder() -> LetheBuilder {
    LetheBuilder::new()
        .buffer(32, 4, 64)
        .size_ratio(4)
        .delete_tile_pages(2)
        .delete_persistence_threshold_secs(30.0)
}

/// Populates (once) a durable store with `entries` puts plus a sprinkle of
/// deletes, fully flushed, and returns its directory.
fn populated_dir(entries: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "lethe-bench-recovery-{}-{entries}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = builder().open(&dir).expect("populate open");
    for k in 0..entries {
        db.put(k, k % 365, vec![0u8; 64]).expect("populate put");
    }
    for k in (0..entries).step_by(13) {
        db.delete(k).expect("populate delete");
    }
    db.persist().expect("populate persist");
    dir
}

fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("recovery_reopen");
    group.sample_size(10);
    for entries in SIZES {
        let dir = populated_dir(entries);
        group.bench_function(format!("entries_{entries}"), |b| {
            b.iter(|| {
                let db = builder().open(&dir).expect("reopen");
                // one point read proves the recovered tree is serviceable
                let _ = db.get(1).expect("get after recovery");
            })
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

criterion_group!(benches, bench_recovery);
criterion_main!(benches);
