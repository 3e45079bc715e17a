//! Range tombstones as sorted, disjoint fragments.
//!
//! A point lookup asks one question of the range tombstones of a buffer or
//! a file: what is the newest seqnum of a tombstone covering this key?
//! Scanning the raw tombstone list answers it in O(t) per lookup, and files
//! hold hundreds of range tombstones under delete-heavy workloads. A
//! [`TombstoneFragments`] stores the same tombstones as sorted, disjoint
//! fragments `[start, end)`, each carrying the newest seqnum of any
//! tombstone covering it (RocksDB's fragmented range tombstones), so the
//! lookup is a binary search, and a merge visiting keys in order sweeps the
//! fragments forward with a [`FragmentCursor`].
//!
//! The index answers lookups only. The raw tombstone lists stay the durable
//! form (the manifest's range-tombstone blocks) and the counted one (FADE's
//! invalidation estimate, file attachment in a merge).

use crate::entry::{Entry, SeqNum, SortKey};

/// One fragment: every key in `[start, end)` is covered by a tombstone, the
/// newest of which has sequence number `seqnum`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fragment {
    start: SortKey,
    end: SortKey,
    seqnum: SeqNum,
}

/// Range tombstones as sorted, disjoint, non-empty fragments, each carrying
/// the newest covering seqnum.
#[derive(Debug, Clone, Default)]
pub struct TombstoneFragments {
    /// Sorted on `start`; disjoint, so also sorted on `end`.
    fragments: Vec<Fragment>,
}

impl TombstoneFragments {
    /// An index covering nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the index over the range tombstones among `tombstones` (other
    /// entries are ignored). They are inserted in start order, so every
    /// insert splices at the tail.
    pub fn from_tombstones<'a>(tombstones: impl IntoIterator<Item = &'a Entry>) -> Self {
        let mut spans: Vec<(SortKey, SortKey, SeqNum)> = tombstones
            .into_iter()
            .filter_map(|t| t.range_end().map(|end| (t.sort_key, end, t.seqnum)))
            .collect();
        spans.sort_unstable_by_key(|&(start, _, _)| start);
        let mut index = TombstoneFragments::new();
        for (start, end, seqnum) in spans {
            index.insert(start, end, seqnum);
        }
        index.fragments.shrink_to_fit();
        index
    }

    /// Records a tombstone covering `[start, end)` at `seqnum`: the fragments
    /// it overlaps are split at its bounds and take the newer of the two
    /// seqnums, and the keys no fragment covered yet become new fragments.
    /// A range with `end <= start` covers nothing.
    pub fn insert(&mut self, start: SortKey, end: SortKey, seqnum: SeqNum) {
        if end <= start {
            return;
        }
        // `[lo, hi)`: the fragments overlapping `[start, end)`
        let lo = self.fragments.partition_point(|f| f.end <= start);
        let hi = lo + self.fragments[lo..].partition_point(|f| f.start < end);
        let mut pieces: Vec<Fragment> = Vec::with_capacity(2 * (hi - lo) + 1);
        let mut push = |start: SortKey, end: SortKey, seqnum: SeqNum| match pieces.last_mut() {
            Some(last) if last.end == start && last.seqnum == seqnum => last.end = end,
            _ => pieces.push(Fragment { start, end, seqnum }),
        };
        // the next key of `[start, end)` no piece covers yet
        let mut next = start;
        for f in &self.fragments[lo..hi] {
            if f.start < start {
                push(f.start, start, f.seqnum);
            }
            if next < f.start {
                push(next, f.start, seqnum);
            }
            let overlap_end = f.end.min(end);
            push(f.start.max(start), overlap_end, f.seqnum.max(seqnum));
            next = overlap_end;
            if f.end > end {
                push(end, f.end, f.seqnum);
            }
        }
        if next < end {
            push(next, end, seqnum);
        }
        self.fragments.splice(lo..hi, pieces);
    }

    /// The newest seqnum of a tombstone covering `key`, if any covers it.
    #[inline]
    pub fn newest_covering(&self, key: SortKey) -> Option<SeqNum> {
        let i = self.fragments.partition_point(|f| f.end <= key);
        self.fragments
            .get(i)
            .filter(|f| f.start <= key)
            .map(|f| f.seqnum)
    }

    /// Heap bytes held by the index.
    pub fn size_bytes(&self) -> usize {
        self.fragments.capacity() * std::mem::size_of::<Fragment>()
    }

    /// A cursor sweeping the fragments in key order.
    pub fn into_cursor(self) -> FragmentCursor {
        FragmentCursor {
            fragments: self.fragments,
            next: 0,
        }
    }
}

/// A forward sweep over [`TombstoneFragments`] for a stream of keys visited
/// in non-decreasing order (a merge): each query steps past the fragments
/// the stream has left behind, so a whole merge costs
/// O(entries + fragments).
#[derive(Debug)]
pub struct FragmentCursor {
    fragments: Vec<Fragment>,
    /// The first fragment whose end lies beyond the last key queried.
    next: usize,
}

impl FragmentCursor {
    /// The newest seqnum of a tombstone covering `key`. Keys must be queried
    /// in non-decreasing order; repeated queries at one key are fine.
    #[inline]
    pub fn newest_covering(&mut self, key: SortKey) -> Option<SeqNum> {
        while self.fragments.get(self.next).is_some_and(|f| f.end <= key) {
            self.next += 1;
        }
        self.fragments
            .get(self.next)
            .filter(|f| f.start <= key)
            .map(|f| f.seqnum)
    }

    /// True if a tombstone strictly newer than `seqnum` covers `key`.
    #[inline]
    pub fn shadows(&mut self, key: SortKey, seqnum: SeqNum) -> bool {
        self.newest_covering(key)
            .is_some_and(|newest| newest > seqnum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rt(start: SortKey, end: SortKey, seqnum: SeqNum) -> Entry {
        Entry::range_tombstone(start, end, seqnum)
    }

    /// The definition the index must agree with: a scan of the raw list.
    fn linear(rts: &[Entry], key: SortKey) -> Option<SeqNum> {
        rts.iter().filter(|t| t.covers(key)).map(|t| t.seqnum).max()
    }

    fn assert_well_formed(index: &TombstoneFragments) {
        for f in &index.fragments {
            assert!(f.start < f.end, "empty fragment {f:?}");
        }
        for w in index.fragments.windows(2) {
            assert!(
                w[0].end <= w[1].start,
                "fragments overlap or are unsorted: {w:?}"
            );
        }
    }

    #[test]
    fn nested_ranges_split_the_outer_one() {
        let index = TombstoneFragments::from_tombstones(&[rt(0, 100, 10), rt(40, 60, 99)]);
        assert_eq!(index.fragments.len(), 3);
        assert_eq!(index.newest_covering(0), Some(10));
        assert_eq!(index.newest_covering(39), Some(10));
        assert_eq!(index.newest_covering(40), Some(99));
        assert_eq!(index.newest_covering(59), Some(99));
        assert_eq!(index.newest_covering(60), Some(10));
        assert_eq!(index.newest_covering(100), None);
    }

    #[test]
    fn empty_ranges_cover_nothing_and_max_ends_work() {
        let mut index = TombstoneFragments::new();
        index.insert(5, 5, 1);
        index.insert(9, 3, 1);
        assert!(index.fragments.is_empty());
        index.insert(u64::MAX - 1, u64::MAX, 7);
        index.insert(0, u64::MAX, 2);
        assert_eq!(index.newest_covering(0), Some(2));
        assert_eq!(index.newest_covering(u64::MAX - 1), Some(7));
        // the end is exclusive, so no range tombstone covers `u64::MAX`
        assert_eq!(index.newest_covering(u64::MAX), None);
        assert_well_formed(&index);
    }

    #[test]
    fn adjacent_fragments_of_one_seqnum_coalesce() {
        let mut index = TombstoneFragments::new();
        index.insert(0, 10, 4);
        index.insert(10, 20, 4);
        index.insert(0, 20, 4);
        assert_eq!(index.fragments.len(), 1);
        assert_eq!(index.newest_covering(19), Some(4));
    }

    // carried over case for case from the merge's former sweep structure
    #[test]
    fn cursor_shadows_covered_older_entries_only() {
        let rts = [rt(10, 20, 100), rt(15, 30, 50)];
        let mut c = TombstoneFragments::from_tombstones(&rts).into_cursor();
        assert!(!c.shadows(5, 1)); // before any tombstone
        assert!(c.shadows(10, 99)); // covered, older than seq 100
        assert!(!c.shadows(12, 100)); // same seq is not shadowed
        assert!(!c.shadows(15, 150)); // newer than both
        assert!(c.shadows(25, 49)); // only the second still covers
        assert!(!c.shadows(25, 60)); // newer than the second
        assert!(!c.shadows(30, 1)); // past both ends
        assert!(!c.shadows(u64::MAX, 0));
    }

    #[test]
    fn cursor_handles_nested_and_disjoint_spans() {
        let rts = [rt(0, 100, 10), rt(40, 60, 99), rt(200, 201, 5)];
        let mut c = TombstoneFragments::from_tombstones(&rts).into_cursor();
        assert!(c.shadows(0, 9));
        assert!(!c.shadows(0, 10));
        assert!(c.shadows(50, 50)); // inner newer tombstone
        assert!(c.shadows(99, 9));
        assert!(!c.shadows(99, 20)); // inner expired, outer seq 10 <= 20
        assert!(c.shadows(200, 4));
        assert!(!c.shadows(201, 0));
    }

    /// Range bounds drawn from a small domain (so ranges nest, touch and
    /// repeat) plus the two ends of the key space.
    fn bound() -> impl Strategy<Value = SortKey> {
        prop_oneof![8 => 0u64..48, 1 => Just(u64::MAX - 1), 1 => Just(u64::MAX)]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Inserted in any order, one at a time or built in bulk, the
        /// index answers every key exactly as the linear scan does, and a
        /// cursor sweeping the keys in order agrees with both.
        #[test]
        fn index_matches_the_linear_definition(
            spans in prop::collection::vec((bound(), bound(), 0u64..6), 0..40),
            extra in prop::collection::vec(bound(), 0..8),
        ) {
            // small seqnums repeat, so equal-seqnum overlaps are covered
            let rts: Vec<Entry> = spans.iter().map(|&(s, e, q)| rt(s, e, q)).collect();
            let mut incremental = TombstoneFragments::new();
            for t in &rts {
                incremental.insert(t.sort_key, t.range_end().unwrap(), t.seqnum);
            }
            let bulk = TombstoneFragments::from_tombstones(&rts);
            assert_well_formed(&incremental);
            assert_well_formed(&bulk);
            let mut keys: Vec<SortKey> = (0..50).chain(extra).collect();
            keys.extend([u64::MAX - 2, u64::MAX - 1, u64::MAX]);
            keys.sort_unstable();
            let mut cursor = bulk.clone().into_cursor();
            for key in keys {
                let want = linear(&rts, key);
                prop_assert_eq!(incremental.newest_covering(key), want, "key {}", key);
                prop_assert_eq!(bulk.newest_covering(key), want, "key {}", key);
                prop_assert_eq!(cursor.newest_covering(key), want, "key {}", key);
            }
        }
    }
}
