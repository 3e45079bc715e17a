//! Live-snapshot tracking: the registry that lets long-lived point-in-time
//! readers coexist with FADE's delete-persistence compactions and the
//! deferred page reclamation of the version layer.
//!
//! A [`SnapshotTracker`] records the seqnum fence of every live
//! [`SnapshotPin`], and tombstone GC consults it: a compaction may only drop
//! persistent tombstones if no live snapshot could still observe the
//! deleted data, i.e. if the oldest live snapshot seqnum is at or above the
//! compaction's view of the data. While a snapshot pins old history, FADE's
//! `D_th` guarantee is deliberately suspended (and counted, so the
//! delete-persistence accounting never claims a tombstone persisted while
//! it was still snapshot-visible).
//!
//! A fence is registered only through [`SnapshotTracker::pin`] and released
//! only by dropping the pin it returns, so a registration can be neither
//! forgotten nor released twice. Page reclamation needs no help from the
//! tracker: a snapshot's captured views pin their `Arc<Version>`s, which
//! defers it structurally for exactly as long as the snapshot lives.
//!
//! The seqnum map itself is a ranked mutex locked only when a pin is taken
//! or dropped — never on read or compaction hot paths. The values
//! hot paths need (`live`, `oldest_live`) are mirrored into atomics
//! under that mutex, so GC-gating checks inside compaction planning are
//! plain atomic loads with no lock-rank footprint.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lethe_storage::SeqNum;
use lethe_sync::{LockRank, Mutex};

/// Sentinel meaning "no live snapshot" in the `oldest_live` mirror.
const NO_LIVE: u64 = u64::MAX;

/// Registry of live snapshot seqnums.
///
/// Shared store-wide (one tracker per store, injected into every shard's
/// tree), because a cross-shard snapshot is one fence seqnum pinned in all
/// shards at once.
#[derive(Debug)]
pub struct SnapshotTracker {
    /// Refcounted live seqnums: several handles may share one fence.
    live: Mutex<BTreeMap<SeqNum, usize>>,
    /// Atomic mirror of the smallest key in `live`, or [`NO_LIVE`].
    oldest_live: AtomicU64,
    /// Atomic mirror of the number of live registrations.
    live_count: AtomicU64,
}

impl Default for SnapshotTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotTracker {
    /// Creates an empty tracker (no live snapshots).
    pub fn new() -> Self {
        SnapshotTracker {
            live: Mutex::new(LockRank::SnapshotTracker, BTreeMap::new()),
            oldest_live: AtomicU64::new(NO_LIVE),
            live_count: AtomicU64::new(0),
        }
    }

    /// Registers a live snapshot at `fence` for as long as the returned pin
    /// lives. Pins at one fence are counted: each releases only itself.
    pub fn pin(self: &Arc<Self>, fence: SeqNum) -> SnapshotPin {
        let mut live = self.live.lock();
        *live.entry(fence).or_insert(0) += 1;
        self.refresh_mirrors(&live);
        SnapshotPin { tracker: Arc::clone(self), fence }
    }

    /// The number of live pins.
    pub fn live(&self) -> usize {
        self.live_count.load(Ordering::Acquire) as usize
    }

    /// The oldest live snapshot seqnum, if any. Lock-free.
    pub fn oldest_live(&self) -> Option<SeqNum> {
        match self.oldest_live.load(Ordering::Acquire) {
            NO_LIVE => None,
            seq => Some(seq),
        }
    }

    /// True if a compaction whose inputs were written before `fence` may
    /// drop persistent tombstones: no live snapshot is older than the fence,
    /// so nobody can still observe the data those tombstones shadow.
    /// Lock-free; safe to call from compaction planning under version locks.
    pub fn may_drop_tombstones(&self, fence: SeqNum) -> bool {
        match self.oldest_live.load(Ordering::Acquire) {
            NO_LIVE => true,
            oldest => oldest >= fence,
        }
    }

    /// Re-derives the atomic mirrors from the authoritative map. Called
    /// under the map lock so mirror updates are totally ordered.
    fn refresh_mirrors(&self, live: &BTreeMap<SeqNum, usize>) {
        let oldest = live.keys().next().copied().unwrap_or(NO_LIVE);
        let count = live.values().map(|&c| c as u64).sum();
        self.oldest_live.store(oldest, Ordering::Release);
        self.live_count.store(count, Ordering::Release);
    }
}

/// One live registration of a snapshot fence with a [`SnapshotTracker`],
/// released when the pin drops.
#[derive(Debug)]
pub struct SnapshotPin {
    tracker: Arc<SnapshotTracker>,
    fence: SeqNum,
}

impl SnapshotPin {
    /// The pinned fence: every write with a smaller seqnum is visible to the
    /// snapshot, every one at or above it is not.
    pub fn fence(&self) -> SeqNum {
        self.fence
    }

    /// Whether this pin is registered with `tracker`.
    pub fn is_on(&self, tracker: &Arc<SnapshotTracker>) -> bool {
        Arc::ptr_eq(&self.tracker, tracker)
    }
}

impl Drop for SnapshotPin {
    fn drop(&mut self) {
        let mut live = self.tracker.live.lock();
        if let Some(count) = live.get_mut(&self.fence) {
            *count -= 1;
            if *count == 0 {
                live.remove(&self.fence);
            }
        }
        self.tracker.refresh_mirrors(&live);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_release_tracks_oldest() {
        let t = Arc::new(SnapshotTracker::new());
        assert_eq!((t.live(), t.oldest_live()), (0, None));
        assert!(t.may_drop_tombstones(1_000_000));

        let (fifty, ten, ninety) = (t.pin(50), t.pin(10), t.pin(90));
        assert_eq!((t.live(), t.oldest_live()), (3, Some(10)));
        assert!(!t.may_drop_tombstones(11));
        assert!(t.may_drop_tombstones(10));

        drop(ten);
        assert_eq!(t.oldest_live(), Some(50));
        drop((ninety, fifty));
        assert_eq!((t.live(), t.oldest_live()), (0, None));
    }

    #[test]
    fn registrations_are_refcounted() {
        let t = Arc::new(SnapshotTracker::new());
        let (a, b) = (t.pin(7), t.pin(7));
        assert_eq!((t.live(), t.oldest_live(), a.fence()), (2, Some(7), 7));
        assert!(a.is_on(&t) && !a.is_on(&Arc::new(SnapshotTracker::new())));
        drop(a);
        assert_eq!((t.live(), t.oldest_live()), (1, Some(7)));
        drop(b);
        assert_eq!((t.live(), t.oldest_live()), (0, None));
    }

    #[test]
    fn gating_uses_oldest_not_count() {
        let t = Arc::new(SnapshotTracker::new());
        let (_newer, older) = (t.pin(100), t.pin(5));
        // a compaction at fence 50 is blocked by the snapshot at 5 ...
        assert!(!t.may_drop_tombstones(50));
        drop(older);
        // ... and unblocked the moment the old snapshot releases, even
        // though a newer one is still live.
        assert!(t.may_drop_tombstones(50));
        assert_eq!(t.live(), 1);
    }
}
