//! Sort-merge of entry streams.
//!
//! Compactions, flushes and range queries all reduce to the same operation:
//! take entries from several sorted runs, keep only the most recent version
//! of every sort key, and apply tombstones. During a compaction that does not
//! reach the last level, tombstones (and range tombstones) are *retained*
//! because older versions of their keys may still exist further down the tree
//! (paper §3.1.1); when the output is the last level they are discarded,
//! which is the moment a logical delete becomes persistent.
//!
//! [`merge_entries`] is the *materialising* convenience wrapper over the
//! streaming machinery in [`crate::cursor`]: it is retained for callers that
//! genuinely need the whole output at once (content snapshots, tests). The
//! hot paths — range scans and compaction — drive
//! [`crate::cursor::MergeIterator`] directly and never hold more than one
//! delete tile per input in memory. Range-tombstone shadowing is applied
//! by sweeping the tombstones' fragments
//! ([`lethe_storage::TombstoneFragments`]), not by re-scanning the tombstone
//! list per entry.

use crate::cursor::{EntryCursor, MergeIterator, VecCursor};
use lethe_storage::Entry;

/// Result of a merge: surviving point entries (sorted on the sort key) and
/// surviving range tombstones.
#[derive(Debug, Clone, Default)]
pub struct MergeOutput {
    /// Surviving point entries (puts and, unless dropped, point tombstones),
    /// one per sort key, sorted on the sort key.
    pub entries: Vec<Entry>,
    /// Surviving range tombstones (empty when `drop_tombstones` was set).
    pub range_tombstones: Vec<Entry>,
}

impl MergeOutput {
    /// Total number of surviving records.
    pub fn len(&self) -> usize {
        self.entries.len() + self.range_tombstones.len()
    }

    /// True when nothing survived the merge.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.range_tombstones.is_empty()
    }
}

/// Merges `inputs` (each an arbitrary-order vector of point entries) together
/// with `range_tombstones`, keeping the newest version per sort key and
/// applying tombstone semantics.
///
/// * A point entry is dropped if a range tombstone with a larger sequence
///   number covers its sort key.
/// * Older versions of a key are dropped in favour of the newest one
///   (which may itself be a point tombstone).
/// * When `drop_tombstones` is true (merge into the last level), surviving
///   point and range tombstones are themselves discarded — this is what makes
///   the delete *persistent*.
pub fn merge_entries(
    inputs: Vec<Vec<Entry>>,
    range_tombstones: Vec<Entry>,
    drop_tombstones: bool,
) -> MergeOutput {
    let total: usize = inputs.iter().map(|v| v.len()).sum();
    let cursors: Vec<Box<dyn EntryCursor>> = inputs
        .into_iter()
        .map(|v| Box::new(VecCursor::from_unsorted(v)) as Box<dyn EntryCursor>)
        .collect();
    let merge = MergeIterator::new(cursors, range_tombstones.clone(), drop_tombstones);
    #[expect(clippy::expect_used, reason = "VecCursor never returns an I/O error")]
    let mut merge = merge.expect("in-memory cursors are infallible");
    let mut entries: Vec<Entry> = Vec::with_capacity(total);
    #[expect(clippy::expect_used, reason = "VecCursor never returns an I/O error")]
    while let Some(e) = merge.next_merged().expect("in-memory cursors are infallible") {
        entries.push(e);
    }

    let range_tombstones = if drop_tombstones { Vec::new() } else { range_tombstones };
    MergeOutput { entries, range_tombstones }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn put(k: u64, seq: u64) -> Entry {
        Entry::put(k, k, seq, Bytes::from_static(b"v"))
    }

    #[test]
    fn newest_version_wins() {
        let out = merge_entries(vec![vec![put(1, 5), put(2, 1)], vec![put(1, 9)]], vec![], false);
        assert_eq!(out.entries.len(), 2);
        assert_eq!(out.entries[0].seqnum, 9);
        assert_eq!(out.entries[1].sort_key, 2);
        assert_eq!(out.len(), 2);
        assert!(!out.is_empty());
    }

    #[test]
    fn point_tombstone_hides_older_versions_but_survives() {
        let out = merge_entries(
            vec![vec![put(7, 1)], vec![Entry::point_tombstone(7, 5)]],
            vec![],
            false,
        );
        assert_eq!(out.entries.len(), 1);
        assert!(out.entries[0].is_point_tombstone());
    }

    #[test]
    fn tombstones_dropped_at_last_level() {
        let out = merge_entries(
            vec![vec![put(7, 1), put(8, 2)], vec![Entry::point_tombstone(7, 5)]],
            vec![Entry::range_tombstone(100, 200, 9)],
            true,
        );
        // key 7 deleted persistently, key 8 survives, all tombstones gone
        assert_eq!(out.entries.len(), 1);
        assert_eq!(out.entries[0].sort_key, 8);
        assert!(out.range_tombstones.is_empty());
    }

    #[test]
    fn newer_put_survives_point_tombstone() {
        // a put issued after the delete re-inserts the key
        let out = merge_entries(
            vec![vec![Entry::point_tombstone(3, 4)], vec![put(3, 8)]],
            vec![],
            true,
        );
        assert_eq!(out.entries.len(), 1);
        assert_eq!(out.entries[0].seqnum, 8);
        assert!(!out.entries[0].is_tombstone());
    }

    #[test]
    fn range_tombstone_deletes_covered_older_entries_only() {
        let rt = Entry::range_tombstone(10, 20, 100);
        let out = merge_entries(
            vec![vec![put(5, 1), put(12, 2), put(15, 200), put(25, 3)]],
            vec![rt.clone()],
            false,
        );
        let keys: Vec<u64> = out.entries.iter().map(|e| e.sort_key).collect();
        // 12 is covered and older than the tombstone; 15 is newer; 5, 25 outside
        assert_eq!(keys, vec![5, 15, 25]);
        assert_eq!(out.range_tombstones, vec![rt]);
    }

    #[test]
    fn output_is_sorted_and_deduplicated() {
        let mut inputs = Vec::new();
        for i in 0..5u64 {
            inputs.push((0..50u64).map(|k| put(k, i * 100 + k)).collect());
        }
        let out = merge_entries(inputs, vec![], false);
        assert_eq!(out.entries.len(), 50);
        assert!(out.entries.windows(2).all(|w| w[0].sort_key < w[1].sort_key));
        // all survivors come from the newest input (seqnum >= 400)
        assert!(out.entries.iter().all(|e| e.seqnum >= 400));
    }

    /// Regression for the O(entries × tombstones) shadowing pass: 1k range
    /// tombstones against 10k entries must merge through the sorted window
    /// (and produce exactly the covered/uncovered split) without the
    /// per-entry full-list scan the seed performed.
    #[test]
    fn many_tombstones_times_many_entries_uses_the_window() {
        let n_entries = 10_000u64;
        let n_rts = 1_000u64;
        // entries at seq 1..=10k; tombstones cover [2i, 2i+10) at seq 100k+i
        // (all newer than every entry), so exactly the covered keys die
        let entries: Vec<Entry> = (0..n_entries).map(|k| put(k, k + 1)).collect();
        let rts: Vec<Entry> = (0..n_rts)
            .map(|i| Entry::range_tombstone(2 * i, 2 * i + 10, 100_000 + i))
            .collect();
        let start = std::time::Instant::now();
        let out = merge_entries(vec![entries.clone()], rts.clone(), false);
        let elapsed = start.elapsed();
        // brute-force oracle on a sample of keys
        for k in (0..n_entries).step_by(97) {
            let shadowed = rts.iter().any(|rt| rt.covers(k));
            let present = out.entries.iter().any(|e| e.sort_key == k);
            assert_eq!(present, !shadowed, "key {k}");
        }
        assert_eq!(out.range_tombstones.len(), n_rts as usize);
        assert!(out.entries.windows(2).all(|w| w[0].sort_key < w[1].sort_key));
        // generous wall-clock sanity bound: the quadratic path took ~10M
        // covers() calls here; the window does ~(n + t) log t work
        assert!(elapsed.as_secs() < 10, "merge took {elapsed:?}");
    }

    #[test]
    fn empty_inputs() {
        let out = merge_entries(vec![], vec![], true);
        assert!(out.is_empty());
        let out = merge_entries(vec![vec![]], vec![Entry::range_tombstone(0, 10, 1)], false);
        assert_eq!(out.range_tombstones.len(), 1);
        assert!(out.entries.is_empty());
    }
}
