//! Fence pointers.
//!
//! Two kinds of in-memory navigation metadata (paper §4.2.3):
//!
//! * [`FencePointers`] on the **sort key `S`**: one entry per unit (a page in
//!   the classic layout, a delete tile under KiWi) recording the smallest
//!   sort key of that unit. A lookup binary-searches them to find the single
//!   unit that may contain a key.
//! * [`DeleteFence`] on the **delete key `D`**: the delete-key range of the
//!   puts of one page (kept per page inside a delete tile) or of one file. A
//!   secondary range delete consults them to find the pages that are fully
//!   covered by the deleted range (full page drops — no read required) and
//!   the at most two pages per tile that are partially covered (partial page
//!   drops); files and pages whose fence misses the range are skipped.

use crate::entry::{DeleteKey, SortKey};

/// Fence pointers over the sort key: `mins[i]` is the smallest sort key of
/// unit `i`; units are stored in increasing sort-key order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FencePointers {
    mins: Vec<SortKey>,
}

impl FencePointers {
    /// Builds fence pointers from per-unit minimum sort keys (must be
    /// non-decreasing; debug-asserted).
    pub fn new(mins: Vec<SortKey>) -> Self {
        debug_assert!(mins.windows(2).all(|w| w[0] <= w[1]));
        FencePointers { mins }
    }

    /// Number of units covered.
    pub fn len(&self) -> usize {
        self.mins.len()
    }

    /// True if no units are covered.
    pub fn is_empty(&self) -> bool {
        self.mins.is_empty()
    }

    /// Returns the index of the unit that may contain `key`: the last unit
    /// whose minimum is `<= key`. Keys smaller than every minimum fall into
    /// unit 0 (which will simply not contain them).
    pub fn locate(&self, key: SortKey) -> Option<usize> {
        if self.mins.is_empty() {
            return None;
        }
        let idx = self.mins.partition_point(|&m| m <= key);
        Some(idx.saturating_sub(1))
    }

    /// Returns the inclusive range of unit indices that may overlap the sort
    /// key range `[lo, hi)`.
    pub fn locate_range(&self, lo: SortKey, hi: SortKey) -> Option<(usize, usize)> {
        if self.mins.is_empty() || hi <= lo {
            return None;
        }
        let start = self.locate(lo)?;
        // last unit whose min is < hi
        let end = self.mins.partition_point(|&m| m < hi).saturating_sub(1);
        Some((start, end.max(start)))
    }

    /// The raw minimums (for serialisation / introspection).
    pub fn mins(&self) -> &[SortKey] {
        &self.mins
    }

    /// In-memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.mins.len() * std::mem::size_of::<SortKey>()
    }
}

/// The delete-key bounds of the entries a secondary range delete can
/// remove: a page's, or a file's, **puts**. A tombstone is never removed by
/// one ([`Page::secondary_range`](crate::Page::secondary_range) spares it),
/// so its delete key is left out, exactly as a zone map leaves out the
/// values its predicate can never match. A bound that counted tombstones
/// would start at their delete key 0 and turn every purge of the oldest
/// delete keys into a read of every tombstone-bearing page.
///
/// [`DeleteFence::EMPTY`] bounds nothing (a page or file of tombstones
/// only). Its `min > max` representation is the identity of
/// [`DeleteFence::union`], and it overlaps no range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeleteFence {
    /// Smallest put delete key (`DeleteKey::MAX` when empty).
    pub min: DeleteKey,
    /// Largest put delete key (0 when empty).
    pub max: DeleteKey,
}

/// How a secondary range delete `[lo, hi)` relates to one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageCoverage {
    /// Every delete key in the page is inside the deleted range: the page can
    /// be dropped without being read.
    Full,
    /// Some delete keys may be inside the range: the page must be read and
    /// rewritten without the deleted entries.
    Partial,
    /// No delete key of the page falls in the range: the page is untouched.
    None,
}

impl DeleteFence {
    /// The fence of no put at all.
    pub const EMPTY: DeleteFence = DeleteFence { min: DeleteKey::MAX, max: 0 };

    /// The full-domain bounds a version-1 manifest decodes to: nothing is
    /// known, so every range overlaps.
    pub const UNKNOWN: DeleteFence = DeleteFence { min: 0, max: DeleteKey::MAX };

    /// The bounds of `keys`, the delete keys of a set of puts.
    pub fn of_keys(keys: impl IntoIterator<Item = DeleteKey>) -> Self {
        keys.into_iter().fold(DeleteFence::EMPTY, |f, d| f.union(DeleteFence { min: d, max: d }))
    }

    /// The smallest fence containing both `self` and `other`.
    pub fn union(self, other: DeleteFence) -> Self {
        DeleteFence { min: self.min.min(other.min), max: self.max.max(other.max) }
    }

    /// `true` if the fence bounds no put.
    pub fn is_empty(&self) -> bool {
        self.min > self.max
    }

    /// `(min, max)`, or `None` for [`DeleteFence::EMPTY`].
    pub fn bounds(&self) -> Option<(DeleteKey, DeleteKey)> {
        (!self.is_empty()).then_some((self.min, self.max))
    }

    /// `true` if every key `other` bounds is inside `self`. Every fence
    /// contains [`DeleteFence::EMPTY`], and [`DeleteFence::UNKNOWN`]
    /// contains every fence.
    pub fn contains(&self, other: DeleteFence) -> bool {
        other.is_empty() || (self.min <= other.min && other.max <= self.max)
    }

    /// Classifies the fence against the delete-key range `[lo, hi)`.
    pub fn coverage(&self, lo: DeleteKey, hi: DeleteKey) -> PageCoverage {
        // an empty fence has `min = MAX >= hi`, so it overlaps no range
        if hi <= lo || self.max < lo || self.min >= hi {
            PageCoverage::None
        } else if self.min >= lo && self.max < hi {
            PageCoverage::Full
        } else {
            PageCoverage::Partial
        }
    }

    /// `true` if some put the fence bounds may lie in `[lo, hi)`.
    pub fn overlaps(&self, lo: DeleteKey, hi: DeleteKey) -> bool {
        self.coverage(lo, hi) != PageCoverage::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_picks_the_right_unit() {
        let f = FencePointers::new(vec![10, 20, 30, 40]);
        assert_eq!(f.locate(5), Some(0)); // before the first fence → unit 0
        assert_eq!(f.locate(10), Some(0));
        assert_eq!(f.locate(19), Some(0));
        assert_eq!(f.locate(20), Some(1));
        assert_eq!(f.locate(35), Some(2));
        assert_eq!(f.locate(1000), Some(3));
        assert_eq!(f.len(), 4);
        assert!(!f.is_empty());
    }

    #[test]
    fn locate_on_empty_is_none() {
        let f = FencePointers::default();
        assert_eq!(f.locate(1), None);
        assert_eq!(f.locate_range(1, 10), None);
        assert!(f.is_empty());
    }

    #[test]
    fn locate_range_spans_overlapping_units() {
        let f = FencePointers::new(vec![10, 20, 30, 40]);
        assert_eq!(f.locate_range(12, 35), Some((0, 2)));
        assert_eq!(f.locate_range(0, 5), Some((0, 0)));
        assert_eq!(f.locate_range(45, 50), Some((3, 3)));
        assert_eq!(f.locate_range(20, 21), Some((1, 1)));
        assert_eq!(f.locate_range(30, 30), None); // empty range
    }

    #[test]
    fn size_accounting() {
        let f = FencePointers::new(vec![1, 2, 3]);
        assert_eq!(f.size_bytes(), 24);
        assert_eq!(std::mem::size_of::<DeleteFence>(), 16);
    }

    fn fence(min: u64, max: u64) -> DeleteFence {
        DeleteFence { min, max }
    }

    #[test]
    fn coverage_classification() {
        // delete range [10, 30): pages 1 and 2 fully covered, 0 and 3 untouched
        let pages = [fence(0, 9), fence(10, 19), fence(20, 29), fence(30, 39)];
        let covered: Vec<PageCoverage> = pages.iter().map(|f| f.coverage(10, 30)).collect();
        use PageCoverage::{Full, None};
        assert_eq!(covered, vec![None, Full, Full, None]);
    }

    #[test]
    fn partial_coverage_at_range_edges() {
        // range [5, 25) partially covers pages 0 and 2, fully covers page 1
        let pages = [fence(0, 9), fence(10, 19), fence(20, 29)];
        let covered: Vec<PageCoverage> = pages.iter().map(|f| f.coverage(5, 25)).collect();
        use PageCoverage::{Full, Partial};
        assert_eq!(covered, vec![Partial, Full, Partial]);
        assert!(pages.iter().all(|f| f.overlaps(5, 25)));
    }

    #[test]
    fn empty_or_inverted_range_covers_nothing() {
        let d = fence(0, 100);
        assert_eq!(d.coverage(50, 50), PageCoverage::None);
        assert_eq!(d.coverage(60, 40), PageCoverage::None);
    }

    #[test]
    fn the_empty_fence_overlaps_nothing_and_is_the_union_identity() {
        let e = DeleteFence::EMPTY;
        assert!(e.is_empty());
        assert_eq!(e.bounds(), None);
        for (lo, hi) in [(0, 1), (0, u64::MAX), (u64::MAX - 1, u64::MAX), (7, 9)] {
            assert_eq!(e.coverage(lo, hi), PageCoverage::None, "[{lo}, {hi})");
        }
        assert_eq!(DeleteFence::of_keys([]), e);
        assert_eq!(e.union(fence(3, 8)), fence(3, 8));
        assert_eq!(DeleteFence::of_keys([40, 7, 19]), fence(7, 40));
        assert_eq!(fence(7, 40).bounds(), Some((7, 40)));
    }

    #[test]
    fn containment_accepts_wider_durable_bounds() {
        // the wider, tombstone-inclusive bounds of an older store contain
        // the exact ones, and the version-1 sentinel contains everything
        assert!(fence(0, 50).contains(fence(10, 50)));
        assert!(fence(0, 0).contains(DeleteFence::EMPTY));
        assert!(DeleteFence::UNKNOWN.contains(fence(3, u64::MAX)));
        assert!(DeleteFence::EMPTY.contains(DeleteFence::EMPTY));
        assert!(!fence(10, 50).contains(fence(0, 50)));
        assert!(!fence(10, 50).contains(fence(10, 51)));
        assert!(!DeleteFence::EMPTY.contains(fence(5, 5)));
    }
}
