//! # lethe-sync
//!
//! Ranked lock primitives for the Lethe workspace.
//!
//! Every blocking lock in the engine is one of the wrappers in this crate —
//! [`Mutex`], [`RwLock`] and [`Condvar`] — constructed with a static
//! [`LockRank`]. The ranks form a total order that mirrors the engine's
//! *legal acquisition order*: a thread may only acquire a lock whose rank is
//! **strictly greater** than the rank of every lock it already holds. Locks
//! that share a rank (the per-shard engine locks taken together by a
//! cross-shard two-phase commit) carry an *order index* and must be acquired
//! in strictly ascending index order.
//!
//! In debug builds (`cfg(debug_assertions)`) each thread maintains a stack
//! of held locks and every acquisition is checked against it; a violation —
//! the shape of every lock-order deadlock — **panics immediately** with both
//! ranks and the full held chain, turning a once-a-month hung stress test
//! into a deterministic unit-test failure. Release builds compile the
//! tracking away entirely: the wrappers are plain `std::sync` primitives
//! with `parking_lot`-style non-poisoning guards (a poisoned lock — a panic
//! while holding the guard — is a bug in its own right, not a reason to
//! wedge every other thread, so guards are recovered, never propagated).
//!
//! Debug builds also record, process-wide, every pair of ranks some thread
//! has nested (in the manner of the Linux kernel's lockdep dependency
//! record): [`nested`] tells a test whether an acquisition of one rank has
//! been seen under another, so a test can show that it drives a nesting the
//! detector is meant to check.
//!
//! The workspace `clippy.toml` bans the `std::sync` lock types everywhere
//! outside this crate (`disallowed-types`), so the rank table below is, by
//! construction, the complete lock inventory of the engine. See
//! `ARCHITECTURE.md` § "Correctness tooling" for the rank-order diagram and
//! how to add a rank.

#![deny(missing_docs)]
#![allow(
    clippy::disallowed_types,
    reason = "the ranked primitives are the one place that wraps the std::sync locks"
)]

#[cfg(debug_assertions)]
use std::cell::RefCell;
use std::fmt;
#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicBool, Ordering};

/// The static acquisition order of every lock in the Lethe workspace,
/// lowest rank acquired first.
///
/// The variants are declared in ascending rank order; the derived `Ord` is
/// the rank comparison. A thread holding a lock of rank `R` may only
/// acquire locks of rank strictly greater than `R` (same-rank acquisition
/// is legal only for locks constructed with [`Mutex::with_order`] /
/// [`RwLock::with_order`], in strictly ascending order-index order).
///
/// To add a lock: pick the point in this list where the new lock is
/// acquired relative to the existing ones, add a variant there, and
/// construct the lock with it. The debug-build checker and the
/// concurrency-stress suites will catch a misplaced rank as a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum LockRank {
    /// A shard maintenance worker's coordination state
    /// (`lethe_core::compactor`). Never held across an engine-lock
    /// acquisition — the worker drops it before running a job — but ranked
    /// below `Engine` so a future "wake the worker while applying" path
    /// would be flagged rather than silently ordered.
    WorkerState,
    /// A shard's engine lock (`lethe_core::shard`). Constructed with the
    /// shard index as its order index: cross-shard two-phase commit holds
    /// several at once and must take them in ascending shard order.
    Engine,
    /// A snapshot tracker's live-seqnum map (`lethe_lsm::snapshot`): locked
    /// only when a pin is taken (under every engine lock of a sharded
    /// store, or under one engine's `&mut`) or dropped (with no lock held).
    /// Hot-path queries (GC gating inside compaction planning) read its
    /// atomic mirrors and take no lock at all.
    SnapshotTracker,
    /// A shard's group-commit queue state (`lethe_core::shard`): the leader
    /// re-locks it under the engine lock to drain convoys.
    CommitQueueState,
    /// A group-commit outcome slot (`lethe_core::shard`): filled by the
    /// leader under the engine lock, read by a follower under the queue
    /// state lock.
    CommitSlot,
    /// The active (mutable) memtable (`lethe_lsm::tree`).
    MemtableActive,
    /// The frozen (immutable, flush-pending) memtable slot
    /// (`lethe_lsm::tree`): swapped while the active guard is held.
    MemtableFrozen,
    /// The current-version pointer of a version set (`lethe_lsm::version`).
    VersionCurrent,
    /// A version set's retired-table garbage list (`lethe_lsm::version`).
    VersionGarbage,
    /// A version set's cross-generation page refcounts
    /// (`lethe_lsm::version`): taken under the garbage lock during
    /// reclamation.
    PageRefs,
    /// A write-ahead log's file handle (`lethe_storage::wal`).
    Wal,
    /// The store-wide batch-commit log's file handle
    /// (`lethe_storage::batchlog`), locked at the 2PC commit point while
    /// every involved engine lock is held.
    BatchLogFile,
    /// The batch-commit log's committed-id set (`lethe_storage::batchlog`),
    /// updated under its file lock.
    BatchLogIds,
    /// One stripe of the shared block cache (`lethe_storage::cache`). A
    /// leaf in practice (probe and insert are separate acquisitions), but
    /// ranked below the device locks it fronts.
    CacheStripe,
    /// The append state of the file-backed device: the newest segment's
    /// handle (`lethe_storage::backend::FileBackend`).
    BackendFile,
    /// The page index and segment list of the file-backed device, taken
    /// under the append state on the write path. Readers take nothing else:
    /// each segment's read handle hangs off its index entries.
    BackendIndex,
    /// The file map, and each file's bytes, of an in-memory file system
    /// (`lethe_storage::vfs::MemVfs`): leaves, never nested in each other.
    MemVfs,
    /// The global cursor-serialisation fallback for platforms with no
    /// positional-read API (`lethe_storage::vfs`).
    FallbackCursor,
    /// A fault file system's fired-site record and trace
    /// (`lethe_storage::vfs::FaultVfs`): touched inside arbitrarily deep
    /// durable paths, so it ranks above everything.
    FaultVfs,
}

// ---------------------------------------------------------------------------
// debug-build held-lock tracking
// ---------------------------------------------------------------------------

/// One acquisition a thread currently holds (debug builds only).
#[cfg(debug_assertions)]
#[derive(Clone, Copy)]
struct Held {
    token: u64,
    rank: LockRank,
    order: u64,
}

#[cfg(debug_assertions)]
thread_local! {
    /// The calling thread's held locks in acquisition order. Pushes always
    /// append (acquisition checks keep `(rank, order)` ascending); releases
    /// may remove from the middle — guards can legally drop out of LIFO
    /// order (e.g. the 2PC guard vector drops engines in ascending shard
    /// order).
    static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    static NEXT_TOKEN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The number of ranks: `FaultVfs` is the highest.
#[cfg(debug_assertions)]
const RANKS: usize = LockRank::FaultVfs as usize + 1;

/// `NESTED[outer * RANKS + inner]` is set once any thread has acquired a
/// lock of rank `inner` while holding one of rank `outer` (debug builds
/// only; read through [`nested`]).
#[cfg(debug_assertions)]
static NESTED: [AtomicBool; RANKS * RANKS] = [const { AtomicBool::new(false) }; RANKS * RANKS];

/// The flag of the nesting `outer → inner`.
#[cfg(debug_assertions)]
fn nesting(outer: LockRank, inner: LockRank) -> &'static AtomicBool {
    &NESTED[outer as usize * RANKS + inner as usize]
}

/// Validates an acquisition of `(rank, order)` against the calling thread's
/// held stack and records it. Returns the token to release with.
#[cfg(debug_assertions)]
fn track_acquire(rank: LockRank, order: u64, ordered: bool) -> u64 {
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(top) = held.last() {
            let legal = rank > top.rank
                || (rank == top.rank && ordered && order > top.order);
            if !legal {
                let chain: Vec<String> = held
                    .iter()
                    .map(|h| format!("{:?}(order {})", h.rank, h.order))
                    .collect();
                panic!(
                    "lock-rank inversion: acquiring {rank:?}(order {order}) while holding \
                     {top_rank:?}(order {top_order}) — held chain: [{chain}]. Locks must be \
                     acquired in ascending LockRank order (same rank only with strictly \
                     ascending order index, e.g. engine locks in ascending shard order); \
                     see lethe-sync's LockRank for the full table.",
                    top_rank = top.rank,
                    top_order = top.order,
                    chain = chain.join(" -> "),
                );
            }
        }
        // same-rank (ordered) nestings are the order index's business
        for h in held.iter().filter(|h| h.rank != rank) {
            nesting(h.rank, rank).store(true, Ordering::Relaxed);
        }
        let token = NEXT_TOKEN.with(|t| {
            let v = t.get();
            t.set(v + 1);
            v
        });
        held.push(Held { token, rank, order });
        token
    })
}

/// Removes the acquisition identified by `token` from the held stack.
#[cfg(debug_assertions)]
fn track_release(token: u64) {
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(pos) = held.iter().rposition(|h| h.token == token) {
            held.remove(pos);
        }
    });
}

/// RAII record of one tracked acquisition; releases on drop.
#[cfg(debug_assertions)]
#[derive(Debug)]
struct Tracked {
    token: u64,
}

#[cfg(debug_assertions)]
impl Tracked {
    fn acquire(rank: LockRank, order: u64, ordered: bool) -> Tracked {
        Tracked { token: track_acquire(rank, order, ordered) }
    }
}

#[cfg(debug_assertions)]
impl Drop for Tracked {
    fn drop(&mut self) {
        track_release(self.token);
    }
}

/// Zero-sized stand-in in release builds.
#[cfg(not(debug_assertions))]
#[derive(Debug)]
struct Tracked;

#[cfg(not(debug_assertions))]
impl Tracked {
    #[inline(always)]
    fn acquire(_rank: LockRank, _order: u64, _ordered: bool) -> Tracked {
        Tracked
    }
}

/// Number of locks the calling thread currently holds (0 in release
/// builds, where tracking is compiled away). Diagnostic aid for tests.
pub fn held_lock_count() -> usize {
    #[cfg(debug_assertions)]
    {
        HELD.with(|held| held.borrow().len())
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

/// Whether any thread of the process has acquired a lock of rank `inner`
/// while holding one of rank `outer` (always `false` in release builds,
/// where tracking is compiled away). Same-rank nestings are not recorded.
/// Lets a test show that it drives the nestings the rank check guards.
pub fn nested(outer: LockRank, inner: LockRank) -> bool {
    #[cfg(debug_assertions)]
    {
        nesting(outer, inner).load(Ordering::Relaxed)
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = (outer, inner);
        false
    }
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// A ranked mutual-exclusion lock with a non-poisoning `lock()` API.
///
/// Construct with [`Mutex::new`] (rank only; same-rank nesting always
/// illegal) or [`Mutex::with_order`] (rank + order index; same-rank nesting
/// legal in ascending index order). Debug builds panic on rank inversion.
pub struct Mutex<T: ?Sized> {
    rank: LockRank,
    order: u64,
    ordered: bool,
    inner: std::sync::Mutex<T>,
}

/// Guard returned by [`Mutex::lock`]; releases (and untracks) on drop.
#[must_use = "if unused the Mutex will immediately unlock"]
pub struct MutexGuard<'a, T: ?Sized> {
    // field order is the drop order: release the OS lock first, then pop
    // the rank-tracking entry
    inner: std::sync::MutexGuard<'a, T>,
    _tracked: Tracked,
}

impl<T> Mutex<T> {
    /// Creates a mutex of rank `rank` protecting `value`.
    pub const fn new(rank: LockRank, value: T) -> Self {
        Mutex { rank, order: 0, ordered: false, inner: std::sync::Mutex::new(value) }
    }

    /// Creates a mutex of rank `rank` with an order index: several locks of
    /// this rank may be held at once when acquired in strictly ascending
    /// `order` (the cross-shard engine-lock protocol).
    pub const fn with_order(rank: LockRank, order: u64, value: T) -> Self {
        Mutex { rank, order, ordered: true, inner: std::sync::Mutex::new(value) }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// This lock's static rank.
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    /// Acquires the lock, blocking until available. Debug builds panic if
    /// the acquisition violates the rank order.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let tracked = Tracked::acquire(self.rank, self.order, self.ordered);
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        MutexGuard { inner, _tracked: tracked }
    }

    /// Attempts to acquire the lock without blocking. A `Some` guard is
    /// tracked exactly like [`Mutex::lock`] (and rank-checked first: a
    /// try-lock that *would* deadlock by rank is still a bug).
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let tracked = Tracked::acquire(self.rank, self.order, self.ordered);
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: g, _tracked: tracked }),
            Err(std::sync::TryLockError::Poisoned(e)) => {
                Some(MutexGuard { inner: e.into_inner(), _tracked: tracked })
            }
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("Mutex");
        s.field("rank", &self.rank);
        match self.inner.try_lock() {
            Ok(g) => s.field("data", &&*g).finish(),
            Err(_) => s.field("data", &"<locked>").finish(),
        }
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

/// A ranked reader-writer lock with non-poisoning `read()`/`write()` APIs.
///
/// Both read and write acquisitions are rank-tracked: a same-rank re-read
/// on one thread is flagged too (with writer-priority locks it deadlocks
/// against a queued writer).
pub struct RwLock<T: ?Sized> {
    rank: LockRank,
    order: u64,
    ordered: bool,
    inner: std::sync::RwLock<T>,
}

/// Guard returned by [`RwLock::read`].
#[must_use = "if unused the RwLock will immediately unlock"]
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
    _tracked: Tracked,
}

/// Guard returned by [`RwLock::write`].
#[must_use = "if unused the RwLock will immediately unlock"]
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
    _tracked: Tracked,
}

impl<T> RwLock<T> {
    /// Creates a lock of rank `rank` protecting `value`.
    pub const fn new(rank: LockRank, value: T) -> Self {
        RwLock { rank, order: 0, ordered: false, inner: std::sync::RwLock::new(value) }
    }

    /// Creates a lock of rank `rank` with an order index (see
    /// [`Mutex::with_order`]).
    pub const fn with_order(rank: LockRank, order: u64, value: T) -> Self {
        RwLock { rank, order, ordered: true, inner: std::sync::RwLock::new(value) }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// This lock's static rank.
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    /// Acquires a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let tracked = Tracked::acquire(self.rank, self.order, self.ordered);
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        RwLockReadGuard { inner, _tracked: tracked }
    }

    /// Acquires an exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let tracked = Tracked::acquire(self.rank, self.order, self.ordered);
        let inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        RwLockWriteGuard { inner, _tracked: tracked }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock").field("rank", &self.rank).finish_non_exhaustive()
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// A condition variable paired with [`Mutex`].
///
/// While a thread waits, its mutex is released and the rank-tracking entry
/// for it is popped; re-acquisition after the wakeup is re-validated like a
/// fresh `lock()`, so a waiter that was woken into an inconsistent held
/// chain still panics in debug builds.
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a condition variable.
    pub const fn new() -> Condvar {
        Condvar { inner: std::sync::Condvar::new() }
    }

    /// Atomically releases `guard` and parks until notified, then
    /// re-acquires the mutex and returns a fresh guard.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>, mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
        let MutexGuard { inner, _tracked } = guard;
        // the mutex is released for the duration of the wait: pop its
        // tracking entry so the parked thread's held chain is accurate
        drop(_tracked);
        let inner = self.inner.wait(inner).unwrap_or_else(|e| e.into_inner());
        let tracked = Tracked::acquire(mutex.rank, mutex.order, mutex.ordered);
        MutexGuard { inner, _tracked: tracked }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "rank tracking is debug-only")]
    fn ascending_acquisition_is_legal() {
        let a = Mutex::new(LockRank::Engine, 1);
        let b = Mutex::new(LockRank::Wal, 2);
        let ga = a.lock();
        let gb = b.lock();
        assert_eq!(*ga + *gb, 3);
        assert_eq!(held_lock_count(), 2);
        drop(ga);
        drop(gb);
        assert_eq!(held_lock_count(), 0);
    }

    #[test]
    fn sequential_reacquisition_is_legal() {
        let a = Mutex::new(LockRank::Wal, ());
        let b = Mutex::new(LockRank::Engine, ());
        drop(a.lock());
        // Wal was released: taking the lower-ranked Engine afterwards is fine
        drop(b.lock());
        drop(a.lock());
    }

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
    fn descending_acquisition_panics() {
        let caught = std::thread::spawn(|| {
            let hi = Mutex::new(LockRank::Wal, ());
            let lo = Mutex::new(LockRank::Engine, ());
            let _g = hi.lock();
            let _h = lo.lock(); // inversion: Engine < Wal
        })
        .join();
        let msg = panic_message(caught);
        assert!(msg.contains("lock-rank inversion"), "unexpected panic payload: {msg}");
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "rank tracking is debug-only")]
    fn same_rank_unordered_panics() {
        let caught = std::thread::spawn(|| {
            let a = Mutex::new(LockRank::Engine, ());
            let b = Mutex::new(LockRank::Engine, ());
            let _g = a.lock();
            let _h = b.lock();
        })
        .join();
        assert!(caught.is_err(), "unordered same-rank nesting must panic");
    }

    #[test]
    fn ordered_same_rank_ascending_is_legal() {
        let shards: Vec<Mutex<u32>> =
            (0..4).map(|i| Mutex::with_order(LockRank::Engine, i, i as u32)).collect();
        let guards: Vec<_> = shards.iter().map(|m| m.lock()).collect();
        assert_eq!(guards.iter().map(|g| **g).sum::<u32>(), 6);
        // non-LIFO release (the 2PC guard vector drops front-to-back)
        drop(guards);
        assert_eq!(held_lock_count(), 0);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "rank tracking is debug-only")]
    fn ordered_same_rank_descending_panics() {
        let caught = std::thread::spawn(|| {
            let a = Mutex::with_order(LockRank::Engine, 3, ());
            let b = Mutex::with_order(LockRank::Engine, 1, ());
            let _g = a.lock();
            let _h = b.lock(); // shard 1 after shard 3: out of order
        })
        .join();
        let msg = panic_message(caught);
        assert!(msg.contains("lock-rank inversion"), "unexpected panic payload: {msg}");
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "rank tracking is debug-only")]
    fn rwlock_read_then_lower_rank_panics() {
        let caught = std::thread::spawn(|| {
            let hi = RwLock::new(LockRank::VersionCurrent, ());
            let lo = RwLock::new(LockRank::MemtableActive, ());
            let _g = hi.read();
            let _h = lo.read();
        })
        .join();
        assert!(caught.is_err());
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "rank tracking is debug-only")]
    fn condvar_wait_releases_and_reacquires_tracking() {
        let pair = Arc::new((Mutex::new(LockRank::WorkerState, false), Condvar::new()));
        let waker = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*waker;
            let mut g = m.lock();
            *g = true;
            drop(g);
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut g = m.lock();
        while !*g {
            g = cv.wait(g, m);
        }
        assert_eq!(held_lock_count(), 1, "the reacquired mutex is tracked again");
        drop(g);
        t.join().unwrap();
        assert_eq!(held_lock_count(), 0);
    }

    /// The ranks below are nested by no other test of this crate, which
    /// shares the process-wide record.
    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "rank tracking is debug-only")]
    fn nestings_are_recorded_process_wide() {
        use LockRank::{BackendFile, BackendIndex, BatchLogFile, BatchLogIds, MemVfs};
        assert!(!nested(BatchLogFile, BatchLogIds));
        std::thread::spawn(|| {
            let file = Mutex::new(BatchLogFile, ());
            let ids = Mutex::new(BatchLogIds, ());
            let _f = file.lock();
            drop(ids.lock());
        })
        .join()
        .unwrap();
        assert!(nested(BatchLogFile, BatchLogIds), "a nesting on another thread is recorded");
        assert!(!nested(BatchLogIds, BatchLogFile), "the record has a direction");
        assert!(!nested(BackendFile, BackendIndex), "a pair never nested reads false");

        let a = RwLock::with_order(MemVfs, 0, ());
        let b = RwLock::with_order(MemVfs, 1, ());
        let _a = a.read();
        let _b = b.write();
        assert!(!nested(MemVfs, MemVfs), "same-rank ordered nestings record nothing");
    }

    #[test]
    fn try_lock_contended_returns_none_and_untracks() {
        let m = Arc::new(Mutex::new(LockRank::Engine, ()));
        let held = m.lock();
        let m2 = Arc::clone(&m);
        std::thread::spawn(move || {
            assert!(m2.try_lock().is_none());
            assert_eq!(held_lock_count(), 0, "a failed try_lock leaves nothing tracked");
        })
        .join()
        .unwrap();
        drop(held);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn guards_deref_and_debug() {
        let m = Mutex::new(LockRank::Wal, vec![1, 2]);
        m.lock().push(3);
        assert_eq!(m.lock().len(), 3);
        let rw = RwLock::new(LockRank::VersionCurrent, 7u32);
        *rw.write() += 1;
        assert_eq!(*rw.read(), 8);
        assert!(format!("{m:?}").contains("Wal"));
        assert!(format!("{rw:?}").contains("VersionCurrent"));
        assert!(!format!("{:?}", Condvar::new()).is_empty());
        assert_eq!(rw.into_inner(), 8);
        assert_eq!(m.into_inner(), vec![1, 2, 3]);
    }
}
