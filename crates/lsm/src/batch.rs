//! Atomic multi-operation write batches.
//!
//! A [`WriteBatch`] groups puts, point deletes, sort-key range deletes and
//! secondary range deletes into one unit that commits atomically: the engine
//! logs the whole batch as a single WAL frame (so crash recovery replays it
//! entirely or not at all — a torn tail discards the frame whole) and applies
//! its point operations to the write buffer under a single memtable write
//! lock (so concurrent readers never observe a prefix of the batch). Across
//! shards, the sharded front-end splits one logical batch into per-shard
//! slices and runs a two-phase commit over the per-shard WALs; see
//! `lethe-core`'s shard module.

use lethe_storage::{BatchOp, DeleteKey, SortKey};

/// An ordered, atomic group of write operations.
///
/// Build one incrementally, then hand it to `LsmTree::write_batch` (or the
/// engine front-ends in `lethe-core`). Operations apply in insertion order
/// under a single shared commit timestamp and consecutive sequence numbers.
///
/// ```
/// use lethe_lsm::batch::WriteBatch;
///
/// let mut batch = WriteBatch::new();
/// batch.put(1, 100, "a");
/// batch.put(2, 200, "b");
/// batch.delete(3);
/// assert_eq!(batch.len(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteBatch {
    ops: Vec<BatchOp>,
}

impl WriteBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty batch with room for `n` operations.
    pub fn with_capacity(n: usize) -> Self {
        WriteBatch { ops: Vec::with_capacity(n) }
    }

    /// Appends a put of `(sort_key, delete_key, value)`.
    pub fn put(
        &mut self,
        sort_key: SortKey,
        delete_key: DeleteKey,
        value: impl Into<bytes::Bytes>,
    ) -> &mut Self {
        self.ops.push(BatchOp::Put { sort_key, delete_key, value: value.into() });
        self
    }

    /// Appends a point delete of `sort_key`.
    ///
    /// Unlike the single-op delete path, batch deletes are never suppressed
    /// as blind: the batch is logged as one opaque frame before any of it is
    /// evaluated against the tree.
    pub fn delete(&mut self, sort_key: SortKey) -> &mut Self {
        self.ops.push(BatchOp::Delete { sort_key });
        self
    }

    /// Appends a range delete of sort keys `[start, end)` (an empty range
    /// deletes nothing).
    pub fn delete_range(&mut self, start: SortKey, end: SortKey) -> &mut Self {
        self.ops.push(BatchOp::DeleteRange { start, end });
        self
    }

    /// Appends a secondary range delete of delete keys `[d_lo, d_hi)`.
    pub fn secondary_range_delete(&mut self, d_lo: DeleteKey, d_hi: DeleteKey) -> &mut Self {
        self.ops.push(BatchOp::SecondaryDelete { d_lo, d_hi });
        self
    }

    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the batch holds no operations (committing it is a no-op).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operations in insertion order.
    pub fn ops(&self) -> &[BatchOp] {
        &self.ops
    }

    /// Consumes the batch, yielding its operations.
    pub fn into_ops(self) -> Vec<BatchOp> {
        self.ops
    }
}

impl From<Vec<BatchOp>> for WriteBatch {
    fn from(ops: Vec<BatchOp>) -> Self {
        WriteBatch { ops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_preserves_order() {
        let mut b = WriteBatch::new();
        b.put(1, 10, "x").delete(2).secondary_range_delete(5, 9).delete_range(3, 4);
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
        let ops = b.clone().into_ops();
        assert!(matches!(ops[0], BatchOp::Put { sort_key: 1, .. }));
        assert!(matches!(ops[1], BatchOp::Delete { sort_key: 2 }));
        assert!(matches!(ops[2], BatchOp::SecondaryDelete { d_lo: 5, d_hi: 9 }));
        assert!(matches!(ops[3], BatchOp::DeleteRange { start: 3, end: 4 }));
        assert_eq!(WriteBatch::from(ops), b);
    }

    #[test]
    fn empty_batch_is_empty() {
        assert!(WriteBatch::new().is_empty());
        assert_eq!(WriteBatch::with_capacity(8).len(), 0);
    }
}
