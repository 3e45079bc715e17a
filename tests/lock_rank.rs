//! Debug-build lock-rank detector, exercised with the engine's real ranks.
//!
//! The unit tests in `lethe-sync` prove the mechanism; these tests prove the
//! *deployed order* — the rank constants the engine actually uses — rejects
//! the inversions the sharded front-end is most at risk of:
//!
//! * taking a shard engine lock while holding the commit-queue state lock
//!   (the group-commit leader must lock the engine first);
//! * cross-shard 2PC taking engine locks in descending shard order;
//! * re-locking the compactor worker state while an engine lock is held
//!   (the `with_shard` temporary-lifetime hazard the detector caught during
//!   the migration).
//!
//! All of these are `debug_assertions`-only: release builds compile the
//! tracking away, so every test here is ignored in `--release`.

use lethe::sync::{held_lock_count, LockRank, Mutex};

/// The panic message of a joined thread, empty when it did not panic.
fn panic_message(result: std::thread::Result<()>) -> String {
    match result {
        Ok(()) => String::new(),
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "<non-string panic payload>".into()),
    }
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "rank tracking is debug-only")]
fn engine_lock_under_commit_queue_state_is_an_inversion() {
    let caught = std::thread::spawn(|| {
        let engine = Mutex::with_order(LockRank::Engine, 0, ());
        let queue_state = Mutex::new(LockRank::CommitQueueState, ());
        // the leader protocol locks the engine, then drains the queue state;
        // the reverse nesting would deadlock against it
        let _state = queue_state.lock();
        let _engine = engine.lock();
    })
    .join();
    let msg = panic_message(caught);
    assert!(msg.contains("lock-rank inversion"), "unexpected panic payload: {msg}");
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "rank tracking is debug-only")]
fn cross_shard_engine_locks_must_ascend_by_shard_index() {
    let caught = std::thread::spawn(|| {
        let shard0 = Mutex::with_order(LockRank::Engine, 0, ());
        let shard2 = Mutex::with_order(LockRank::Engine, 2, ());
        // 2PC locks involved shards in ascending index order; descending
        // order deadlocks against a concurrent cross-shard writer
        let _hi = shard2.lock();
        let _lo = shard0.lock();
    })
    .join();
    let msg = panic_message(caught);
    assert!(msg.contains("lock-rank"), "unexpected panic payload: {msg}");
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "rank tracking is debug-only")]
fn ascending_cross_shard_locks_are_legal() {
    let shard0 = Mutex::with_order(LockRank::Engine, 0, ());
    let shard1 = Mutex::with_order(LockRank::Engine, 1, ());
    let shard2 = Mutex::with_order(LockRank::Engine, 2, ());
    let _a = shard0.lock();
    let _b = shard1.lock();
    let _c = shard2.lock();
    assert_eq!(held_lock_count(), 3);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "rank tracking is debug-only")]
fn worker_state_under_engine_lock_is_an_inversion() {
    let caught = std::thread::spawn(|| {
        let engine = Mutex::with_order(LockRank::Engine, 0, ());
        let worker_state = Mutex::new(LockRank::WorkerState, ());
        // Compactor::wake / PauseGuard::drop lock the worker state; calling
        // either while holding the shard lock is the with_shard
        // temporary-lifetime hazard
        let _engine = engine.lock();
        let _state = worker_state.lock();
    })
    .join();
    let msg = panic_message(caught);
    assert!(msg.contains("lock-rank inversion"), "unexpected panic payload: {msg}");
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "rank tracking is debug-only")]
fn garbage_pass_nesting_is_legal() {
    // a job's garbage pass, the deepest nesting a test drives: under the
    // engine lock, the retired-table list, then the page refcounts, then the
    // device's page index as each unreferenced page is dropped, all
    // strictly ascending
    let engine = Mutex::with_order(LockRank::Engine, 0, ());
    let garbage = Mutex::new(LockRank::VersionGarbage, ());
    let page_refs = Mutex::new(LockRank::PageRefs, ());
    let index = Mutex::new(LockRank::BackendIndex, ());
    let _a = engine.lock();
    let _b = garbage.lock();
    let _c = page_refs.lock();
    let _d = index.lock();
    assert_eq!(held_lock_count(), 4);
}
