//! Per-shard background maintenance worker.
//!
//! A [`Compactor`] owns one OS thread that drains a shard's maintenance
//! work — flushing frozen write buffers and running FADE/saturation
//! compactions — through the tree's three-phase job cycle, the same three
//! calls [`LsmTree::step`](lethe_lsm::LsmTree::step) makes for inline
//! maintenance, with the shard lock released around the expensive one:
//!
//! 1. **plan** (shard lock, microseconds): ask the policy for work, pin the
//!    input files of the current version;
//! 2. **execute** (no lock): read, merge and build the output files against
//!    the pinned immutable inputs;
//! 3. **apply** (shard lock, microseconds): commit the manifest edit and
//!    install the new version with one pointer swap.
//!
//! Readers never touch the shard lock at all (they go through
//! a live [`lethe_lsm::ReadView`]); writers share the shard lock with phases 1
//! and 3 only, so a multi-second merge no longer stalls the shard.
//!
//! ## Coordination protocol
//!
//! * [`Compactor::wake`] nudges the worker (cheap; called from the write
//!   path when a buffer freezes or level 0 piles up).
//! * [`Compactor::drain`] blocks until every unit of work that existed at
//!   call time is done — the deterministic quiescing primitive behind
//!   `maintain()`/`persist()`.
//! * [`Compactor::pause`] returns a guard that keeps the worker parked
//!   between jobs; foreground structural operations (secondary range
//!   deletes, forced full compactions, white-box shard access) take it so
//!   they never race a background version install.
//! * [`Compactor::wait_for_progress`] parks the calling writer until the
//!   worker completes a job or a pass — the blocking half of write
//!   backpressure.
//!
//! A job that fails (I/O error, injected crash) leaves the tree unchanged —
//! `apply_job` (see [`lethe_lsm::jobs`]) installs nothing on error and the
//! frozen buffer is only cleared by a successful flush — so the in-memory
//! store stays consistent; the error is recorded and surfaced by the next
//! [`Compactor::drain`]. The one error after the install, a failed unlink
//! of a segment the job's retired pages emptied, leaves the job applied
//! whole.

use crate::engine::Lethe;
use lethe_storage::{Result, StorageError};
use lethe_sync::{Condvar, LockRank, Mutex, MutexGuard};
use std::sync::Arc;
use std::thread::JoinHandle;

#[derive(Debug, Default)]
struct WorkerState {
    /// Work may be available; cleared when a pass starts.
    wake: bool,
    /// The worker is inside a pass (between jobs it may hold no locks).
    busy: bool,
    /// Number of outstanding [`Compactor::pause`] guards.
    pause_requests: usize,
    /// Shut the thread down at the next opportunity.
    shutdown: bool,
    /// Completed passes (a pass ends when no work remains or on pause).
    passes: u64,
    /// Successfully applied jobs.
    jobs_done: u64,
    /// First unreported background failure, surfaced by `drain`.
    error: Option<String>,
}

struct Shared {
    engine: Arc<Mutex<Lethe>>,
    state: Mutex<WorkerState>,
    cv: Condvar,
}

impl Shared {
    /// Locks the worker-state mutex (ranked: `WorkerState` sits below the
    /// engine lock, so callers must not already hold the shard lock).
    fn lock_state(&self) -> MutexGuard<'_, WorkerState> {
        self.state.lock()
    }

    /// Waits on the worker condvar, re-locking the state mutex on wake.
    fn wait_on<'a>(&'a self, guard: MutexGuard<'a, WorkerState>) -> MutexGuard<'a, WorkerState> {
        self.cv.wait(guard, &self.state)
    }
}

/// Handle to a shard's background maintenance thread. Dropping it shuts the
/// thread down (after the current job, if any) and joins it.
pub struct Compactor {
    shared: Arc<Shared>,
    handle: Option<JoinHandle<()>>,
}

/// Keeps the worker parked between jobs while held; see
/// [`Compactor::pause`].
pub struct PauseGuard {
    shared: Arc<Shared>,
}

impl Drop for PauseGuard {
    fn drop(&mut self) {
        let mut st = self.shared.lock_state();
        st.pause_requests -= 1;
        // the pause may have interrupted a pass mid-way (its wake flag was
        // already consumed): re-arm it so pending work — an unflushed
        // frozen buffer, TTL-due compactions — resumes without waiting for
        // the next external wake
        st.wake = true;
        self.shared.cv.notify_all();
    }
}

impl Compactor {
    /// Spawns the worker thread for `engine`.
    pub fn spawn(engine: Arc<Mutex<Lethe>>) -> Compactor {
        let shared = Arc::new(Shared {
            engine,
            state: Mutex::new(LockRank::WorkerState, WorkerState::default()),
            cv: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("lethe-compactor".into())
            .spawn(move || worker_loop(thread_shared))
            .expect("spawning the compactor thread");
        Compactor { shared, handle: Some(handle) }
    }

    /// Nudges the worker: work may be available.
    pub fn wake(&self) {
        let mut st = self.shared.lock_state();
        st.wake = true;
        self.shared.cv.notify_all();
    }

    /// Blocks until the worker has drained every unit of work that existed
    /// when the call was made, then reports (and clears) any background
    /// failure encountered since the last drain.
    pub fn drain(&self) -> Result<()> {
        let mut st = self.shared.lock_state();
        st.wake = true;
        self.shared.cv.notify_all();
        loop {
            if let Some(e) = st.error.take() {
                return Err(StorageError::InvalidOperation(format!("background maintenance: {e}")));
            }
            if (!st.busy && !st.wake) || st.shutdown {
                return Ok(());
            }
            st = self.shared.wait_on(st);
        }
    }

    /// Parks the worker between jobs and returns a guard holding it there.
    /// Blocks until any in-flight job completes. The caller must **not**
    /// hold the shard lock while pausing (the in-flight job needs it to
    /// finish).
    pub fn pause(&self) -> PauseGuard {
        let mut st = self.shared.lock_state();
        st.pause_requests += 1;
        self.shared.cv.notify_all();
        while st.busy {
            st = self.shared.wait_on(st);
        }
        PauseGuard { shared: Arc::clone(&self.shared) }
    }

    /// Parks the calling thread until the worker applies a job or completes
    /// a pass (the blocking half of write backpressure: the stalled writer
    /// waits here for the flush/compaction that unblocks it).
    pub fn wait_for_progress(&self) {
        let mut st = self.shared.lock_state();
        let jobs0 = st.jobs_done;
        let passes0 = st.passes;
        st.wake = true;
        self.shared.cv.notify_all();
        while st.jobs_done == jobs0
            && st.passes == passes0
            && st.error.is_none()
            && !st.shutdown
        {
            st = self.shared.wait_on(st);
        }
    }

    /// Jobs successfully applied so far (diagnostic).
    pub fn jobs_done(&self) -> u64 {
        self.shared.lock_state().jobs_done
    }
}

impl Drop for Compactor {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock_state();
            st.shutdown = true;
            self.shared.cv.notify_all();
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        // wait for work (or shutdown), respecting pauses
        {
            let mut st = shared.lock_state();
            loop {
                if st.shutdown {
                    return;
                }
                if st.wake && st.pause_requests == 0 {
                    break;
                }
                st = shared.wait_on(st);
            }
            st.wake = false;
            st.busy = true;
        }
        // drain available work, one plan → execute → apply cycle at a time
        loop {
            {
                let st = shared.lock_state();
                if st.shutdown || st.pause_requests > 0 {
                    break;
                }
            }
            match run_one_job(&shared.engine) {
                Ok(true) => {
                    let mut st = shared.lock_state();
                    st.jobs_done += 1;
                    shared.cv.notify_all();
                }
                Ok(false) => break,
                Err(e) => {
                    let mut st = shared.lock_state();
                    st.error.get_or_insert_with(|| e.to_string());
                    shared.cv.notify_all();
                    break;
                }
            }
        }
        {
            let mut st = shared.lock_state();
            st.busy = false;
            st.passes += 1;
            shared.cv.notify_all();
        }
    }
}

/// One three-phase job cycle: `LsmTree::step` with the shard lock released
/// around the execute. Returns `Ok(false)` when no work is pending.
fn run_one_job(engine: &Mutex<Lethe>) -> Result<bool> {
    // phase 1 — plan under the shard lock (cheap pointer work)
    let (plan, ctx) = {
        let mut eng = engine.lock();
        let tree = eng.tree_mut();
        match tree.plan_job(true) {
            Some(plan) => {
                let ctx = tree.build_ctx();
                (plan, ctx)
            }
            None => return Ok(false),
        }
    };
    // phase 2 — execute without any lock (the expensive merge I/O)
    let out = plan.execute(&ctx)?;
    // phase 3 — apply under the shard lock (manifest edit + version install)
    let mut eng = engine.lock();
    let applied = eng.tree_mut().apply_job(plan, out)?;
    // a refused (stale) plan aborted its output and applied nothing: report
    // no progress so jobs_done never counts phantom work
    Ok(applied)
}
