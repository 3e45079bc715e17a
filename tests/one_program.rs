//! A store built in memory and a store opened in a directory are one
//! program: the same device, WAL, manifest and recovery, on a `MemVfs` or on
//! the host file system. One seeded script must leave both with the same
//! I/O counts (pages, bytes, barriers), the same tree counters and the same
//! contents, and the directory must reopen to those contents.
//!
//! Who drives maintenance is one more input to the same program: a store
//! whose writer only freezes, drained after every write through the
//! worker's three calls, must end exactly where the inline store ends.

use lethe::lsm::MaintenanceMode;
use lethe::storage::IoSnapshot;
use lethe::{Lethe, LetheBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Flushes every 32 entries and compacts at a size ratio of 3, with KiWi
/// tiles of two pages so the secondary deletes can drop whole pages.
fn builder() -> LetheBuilder {
    LetheBuilder::new()
        .buffer(8, 4, 64)
        .size_ratio(3)
        .delete_tile_pages(2)
        .delete_persistence_threshold_secs(5.0)
}

/// Runs `ops` seeded operations on `db`: puts (delete key = the key's
/// "creation time"), point and range deletes, and a few secondary range
/// deletes.
fn run(db: &mut Lethe, seed: u64, ops: usize) {
    run_driven(db, seed, ops, |_| {});
}

/// [`run`], calling `drive` after every write.
fn run_driven(db: &mut Lethe, seed: u64, ops: usize, drive: impl Fn(&mut Lethe)) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..ops as u64 {
        let key = rng.gen_range(0..600u64);
        match rng.gen_range(0..100) {
            0..=79 => db.put(key, key / 4, format!("v{i}-{key}")).unwrap(),
            80..=94 => drop(db.delete(key).unwrap()),
            95..=98 => db.delete_range(key, key + rng.gen_range(1..20)).unwrap(),
            _ => {
                let lo = rng.gen_range(0..150u64);
                db.delete_where_delete_key_in(lo, lo + 10).unwrap();
            }
        }
        drive(db);
    }
}

/// Runs jobs the way a background worker does, with the three calls made
/// one by one, until the tree plans none.
fn drain(db: &mut Lethe) {
    while let Some(plan) = db.tree_mut().plan_job(true) {
        let out = plan.execute(&db.tree().build_ctx()).unwrap();
        assert!(
            db.tree_mut().apply_job(plan, out).unwrap(),
            "nothing else installs a version"
        );
    }
}

/// What a store holds and what it cost, observed the same way for both.
fn observe(db: &Lethe) -> (IoSnapshot, String, Vec<(u64, bytes::Bytes)>, usize) {
    let contents = db.range(0, u64::MAX).unwrap();
    let by_delete_key = db.scan_by_delete_key(0, u64::MAX).unwrap().len();
    // the reads above are charged too, identically on both sides
    (db.io_snapshot(), format!("{:?}", db.stats()), contents, by_delete_key)
}

#[test]
fn build_and_open_run_one_program() {
    let dir = std::env::temp_dir().join(format!("lethe-one-program-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut in_memory = builder().build().unwrap();
    let mut on_disk = builder().open(&dir).unwrap();
    for (seed, ops) in [(1, 1500), (2, 500)] {
        run(&mut in_memory, seed, ops);
        run(&mut on_disk, seed, ops);
    }
    let stats = in_memory.stats();
    assert!(stats.flushes > 10 && stats.compactions > 0, "the script must flush and compact");
    assert!(stats.secondary_range_deletes > 0);
    let (mem, disk) = (observe(&in_memory), observe(&on_disk));
    assert!(mem.0.fsyncs > 1500, "an in-memory store counts its barriers: {:?}", mem.0);
    assert!(mem.0.pages_dropped > 0, "{:?}", mem.0);
    assert_eq!(mem, disk);

    // reopen the directory: it recovers exactly what both stores hold, and
    // from there on both charge the same I/O again. Only the drop count
    // moves apart: recovery released the dead frames it found on disk, and
    // the retired pages the in-memory store still held as garbage, which
    // that store drops later. Both end on the same live pages.
    drop(on_disk);
    let mut on_disk = builder().open(&dir).unwrap();
    assert_eq!(on_disk.range(0, u64::MAX).unwrap(), mem.2);
    let (mem_before, disk_before) = (in_memory.io_snapshot(), on_disk.io_snapshot());
    run(&mut in_memory, 3, 800);
    run(&mut on_disk, 3, 800);
    let but_drops = |io: IoSnapshot| IoSnapshot { pages_dropped: 0, ..io };
    assert_eq!(
        but_drops(in_memory.io_snapshot().since(&mem_before)),
        but_drops(on_disk.io_snapshot().since(&disk_before))
    );
    let live_pages = |db: &Lethe| db.tree().backend().live_pages();
    assert_eq!(live_pages(&in_memory), live_pages(&on_disk));
    assert_eq!(in_memory.range(0, u64::MAX).unwrap(), on_disk.range(0, u64::MAX).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_worker_driving_the_job_cycle_runs_the_inline_program() {
    // a short D_th, so that FADE's TTL trigger picks jobs too
    let store = || {
        builder()
            .delete_persistence_threshold_secs(0.01)
            .build()
            .unwrap()
    };
    let (mut inline, mut driven) = (store(), store());
    driven.set_maintenance_mode(MaintenanceMode::Background);
    for (seed, ops) in [(1, 1500), (2, 500)] {
        run(&mut inline, seed, ops);
        run_driven(&mut driven, seed, ops, drain);
    }
    let stats = inline.stats();
    assert!(
        stats.flushes > 10 && stats.compactions > 0,
        "the script must flush and compact"
    );
    assert!(
        stats.ttl_triggered_compactions > 0,
        "FADE's trigger must fire: {stats:?}"
    );
    assert_eq!(observe(&inline), observe(&driven));
}
