//! Live-snapshot tracking: the registry that lets long-lived point-in-time
//! readers coexist with FADE's delete-persistence compactions and the
//! deferred page reclamation of the version layer.
//!
//! A [`SnapshotTracker`] records the seqnum fence of every live snapshot
//! handle, and tombstone GC consults it: a compaction may only drop
//! persistent tombstones if no live snapshot could still observe the
//! deleted data, i.e. if the oldest live snapshot seqnum is at or above the
//! compaction's view of the data. While a snapshot pins old history, FADE's
//! `D_th` guarantee is deliberately suspended (and counted, so the
//! delete-persistence accounting never claims a tombstone persisted while
//! it was still snapshot-visible).
//!
//! Page reclamation needs no help from the tracker: a snapshot's pinned
//! `Arc<Version>`s defer it structurally, and a forcibly expired handle
//! fails closed because the state it pinned is gone (the sharded store's
//! handles hold only a `Weak` to it).
//!
//! The seqnum map itself is a ranked mutex locked only on snapshot
//! register/release — never on read or compaction hot paths. The values
//! hot paths need (`has_live`, `oldest_live`) are mirrored into atomics
//! under that mutex, so GC-gating checks inside compaction planning are
//! plain atomic loads with no lock-rank footprint.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

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

    /// Registers a live snapshot at `seq`. Counted: each `register` must be
    /// paired with exactly one [`release`](Self::release).
    pub fn register(&self, seq: SeqNum) {
        let mut live = self.live.lock();
        *live.entry(seq).or_insert(0) += 1;
        self.refresh_mirrors(&live);
    }

    /// Releases one registration at `seq`. Unmatched releases are ignored
    /// (the map is authoritative; a double-release cannot underflow it).
    pub fn release(&self, seq: SeqNum) {
        let mut live = self.live.lock();
        if let Some(count) = live.get_mut(&seq) {
            *count -= 1;
            if *count == 0 {
                live.remove(&seq);
            }
        }
        self.refresh_mirrors(&live);
    }

    /// The oldest live snapshot seqnum, if any. Lock-free.
    pub fn oldest_live(&self) -> Option<SeqNum> {
        match self.oldest_live.load(Ordering::Acquire) {
            NO_LIVE => None,
            seq => Some(seq),
        }
    }

    /// Whether any snapshot is live. Lock-free.
    pub fn has_live(&self) -> bool {
        self.live_count.load(Ordering::Acquire) != 0
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_release_tracks_oldest() {
        let t = SnapshotTracker::new();
        assert!(!t.has_live());
        assert_eq!(t.oldest_live(), None);
        assert!(t.may_drop_tombstones(1_000_000));

        t.register(50);
        t.register(10);
        t.register(90);
        assert!(t.has_live());
        assert_eq!(t.oldest_live(), Some(10));
        assert!(!t.may_drop_tombstones(11));
        assert!(t.may_drop_tombstones(10));

        t.release(10);
        assert_eq!(t.oldest_live(), Some(50));
        t.release(90);
        t.release(50);
        assert!(!t.has_live());
        assert_eq!(t.oldest_live(), None);
    }

    #[test]
    fn registrations_are_refcounted() {
        let t = SnapshotTracker::new();
        t.register(7);
        t.register(7);
        t.release(7);
        assert_eq!(t.oldest_live(), Some(7));
        t.release(7);
        assert_eq!(t.oldest_live(), None);
        // unmatched release must not underflow or re-create the entry
        t.release(7);
        assert_eq!(t.oldest_live(), None);
        assert!(!t.has_live());
    }

    #[test]
    fn gating_uses_oldest_not_count() {
        let t = SnapshotTracker::new();
        t.register(100);
        t.register(5);
        // a compaction at fence 50 is blocked by the snapshot at 5 ...
        assert!(!t.may_drop_tombstones(50));
        t.release(5);
        // ... and unblocked the moment the old snapshot releases, even
        // though a newer one is still live.
        assert!(t.may_drop_tombstones(50));
        assert!(t.has_live());
    }
}
