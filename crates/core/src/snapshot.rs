//! Point-in-time reads: [`Snapshot`], the one frozen handle both stores hand
//! out, and `ShardViews`, the read fan-out it shares with the sharded
//! store's live reads.
//!
//! A snapshot is its captured views plus a [`SnapshotPin`] on the store's
//! [`SnapshotTracker`](lethe_lsm::snapshot::SnapshotTracker): the pin gates
//! tombstone GC for as long as the handle lives and releases its fence when
//! the handle drops, and the captured views pin the versions they read, so
//! the pages under them outlive every later compaction. Nothing else keeps
//! a snapshot alive and nothing can take one away from its holder.

use crate::shard::shard_of_key;
use bytes::Bytes;
use lethe_lsm::cursor::{EntryCursor, MergeIterator, VecCursor};
use lethe_lsm::read::{RangeIter, ReadView};
use lethe_lsm::snapshot::SnapshotPin;
use lethe_storage::{DeleteKey, Entry, Result, SeqNum, SortKey};

/// One [`ReadView`] per shard, by shard index — live views for the sharded
/// store itself, captured ones behind a [`Snapshot`] (one view for a
/// single-shard store) — and the one read fan-out all of them go through.
pub(crate) struct ShardViews(pub(crate) Vec<ReadView>);

impl ShardViews {
    pub(crate) fn get(&self, key: SortKey) -> Result<Option<Bytes>> {
        self.0[shard_of_key(key, self.0.len())].get(key)
    }

    /// Heap-merges one sorted stream per shard into global sort-key order.
    /// Hash partitioning puts every sort key in exactly one shard and each
    /// stream has already resolved its own versions and tombstones, so the
    /// merge meets no duplicate key and shadows nothing.
    pub(crate) fn merged<C: EntryCursor + 'static>(
        &self,
        stream: impl Fn(&ReadView) -> Result<C>,
    ) -> Result<MergeIterator> {
        let mut cursors: Vec<Box<dyn EntryCursor>> = Vec::with_capacity(self.0.len());
        for view in &self.0 {
            cursors.push(Box::new(stream(view)?));
        }
        MergeIterator::new(cursors, Vec::new(), false)
    }

    pub(crate) fn iter_range(&self, lo: SortKey, hi: SortKey) -> RangeIter {
        RangeIter::new(self.merged(|view| view.range_merge(lo, hi)))
    }

    pub(crate) fn scan_by_delete_key(&self, lo: DeleteKey, hi: DeleteKey) -> Result<Vec<Entry>> {
        let mut merge = self
            .merged(|view| Ok(VecCursor::from_sorted(view.scan_by_delete_key(lo, hi)?)))?;
        let mut out = Vec::new();
        while let Some(e) = merge.next_merged()? {
            out.push(e);
        }
        Ok(out)
    }
}

/// A consistent point-in-time view of a store, obtained from
/// [`Lethe::snapshot`](crate::Lethe::snapshot) or
/// [`ShardedLethe::snapshot`](crate::ShardedLethe::snapshot).
///
/// All reads (`get`/`range`/`iter_range`/`scan_by_delete_key`) answer as of
/// the snapshot's seqnum fence, no matter how many writes, flushes,
/// compactions or secondary deletes have happened since — and they take no
/// store lock. While the handle lives, tombstone GC that would discard
/// history it reads is deferred (counted in
/// [`TreeStats::tombstone_gc_delayed`](crate::TreeStats::tombstone_gc_delayed))
/// and its disk pages are pinned; dropping it releases both.
pub struct Snapshot {
    pub(crate) views: ShardViews,
    pub(crate) pin: SnapshotPin,
}

impl Snapshot {
    /// The snapshot's seqnum fence: every write with a smaller seqnum is
    /// visible, every one at or above it is not.
    pub fn seqnum(&self) -> SeqNum {
        self.pin.fence()
    }

    /// Point lookup at the snapshot: the value of `key` as of the fence.
    pub fn get(&self, key: SortKey) -> Result<Option<Bytes>> {
        self.views.get(key)
    }

    /// Range lookup over `[lo, hi)` at the snapshot, in sort-key order.
    pub fn range(&self, lo: SortKey, hi: SortKey) -> Result<Vec<(SortKey, Bytes)>> {
        self.iter_range(lo, hi).collect()
    }

    /// Streaming range scan over `[lo, hi)` at the snapshot: the frozen twin
    /// of the stores' `iter_range`, over the captured state. The iterator
    /// holds its own pins, so it stays valid after the handle drops.
    pub fn iter_range(&self, lo: SortKey, hi: SortKey) -> RangeIter {
        self.views.iter_range(lo, hi)
    }

    /// Secondary range lookup at the snapshot: every entry live at the
    /// fence whose delete key lies in `[lo, hi)`, in sort-key order.
    pub fn scan_by_delete_key(&self, lo: DeleteKey, hi: DeleteKey) -> Result<Vec<Entry>> {
        self.views.scan_by_delete_key(lo, hi)
    }
}
