//! KiWi — Key Weaving Storage Layout analysis helpers (paper §4.2).
//!
//! The mechanics of the interweaved layout (delete tiles, per-page Bloom
//! filters, delete fence pointers, full/partial page drops) live in the
//! `lethe-lsm` crate because every file of the tree is stored that way
//! (`h = 1` is the classic layout). This module adds the KiWi-specific
//! *planning and accounting* layer:
//!
//! * [`plan_secondary_delete`] predicts, from fence metadata alone and
//!   without touching the device, how many pages a secondary range delete
//!   would fully drop, partially rewrite or leave untouched — the quantity
//!   plotted in Figure 6(H) and 6(L).
//! * [`metadata_overhead_bytes`] evaluates the memory-overhead expression of
//!   §4.2.3 (`#delete_tiles · (sizeof(S) + h · (sizeof(D) − sizeof(S)))`
//!   relative to the state of the art).
//! * [`hash_cost_multiplier`] captures the CPU overhead of probing per-page
//!   filters (`L·h` probes for zero-result lookups, `L·h/4` on average for
//!   existing keys — §4.2.4).

use lethe_lsm::tree::LsmTree;
use lethe_storage::{DeleteKey, PageCoverage};

/// Predicted outcome of a secondary range delete, in pages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropPlan {
    /// Pages whose whole delete-key range falls inside the deleted range:
    /// they would be dropped without being read.
    pub full_drops: u64,
    /// Pages straddling a range boundary, or fully covered pages that also
    /// hold tombstones: they would be read, filtered and rewritten (or kept
    /// as they are if no put in them matched, so this is an upper bound).
    pub partial_drops: u64,
    /// Pages unaffected by the delete, a page of tombstones only among them.
    pub untouched: u64,
}

impl DropPlan {
    /// Total pages considered.
    pub fn total_pages(&self) -> u64 {
        self.full_drops + self.partial_drops + self.untouched
    }

    /// Fraction of *affected* pages that can be dropped without a read
    /// (the y-axis of Figure 6(H)); 0 when nothing is affected.
    pub fn full_drop_fraction(&self) -> f64 {
        let affected = self.full_drops + self.partial_drops;
        if affected == 0 {
            0.0
        } else {
            self.full_drops as f64 / affected as f64
        }
    }

    /// Page I/Os this plan would cost: each partial drop is one read plus one
    /// write; full drops are free.
    pub fn io_cost_pages(&self) -> u64 {
        self.partial_drops * 2
    }
}

/// Walks the tree's fence metadata and predicts the page-level outcome of
/// deleting every entry whose delete key lies in `[d_lo, d_hi)`. Performs no
/// device I/O.
pub fn plan_secondary_delete(tree: &LsmTree, d_lo: DeleteKey, d_hi: DeleteKey) -> DropPlan {
    let mut plan = DropPlan::default();
    for level in tree.levels() {
        for run in &level.runs {
            for table in run.tables() {
                for handle in table.tiles.iter().flat_map(|tile| &tile.pages) {
                    match handle.coverage(d_lo, d_hi) {
                        PageCoverage::Full => plan.full_drops += 1,
                        PageCoverage::Partial => plan.partial_drops += 1,
                        PageCoverage::None => plan.untouched += 1,
                    }
                }
            }
        }
    }
    plan
}

/// The extra in-memory metadata KiWi keeps relative to the state of the art
/// (paper §4.2.3):
///
/// `KiWi_mem − SoA_mem = #delete_tiles · (sizeof(S) + h·(sizeof(D) − sizeof(S)))`
///
/// where the state of the art keeps one sort-key fence per page and KiWi keeps
/// one sort-key fence per tile plus one delete-key fence per page. A negative
/// result means KiWi's metadata is *smaller* (possible when
/// `sizeof(D) < sizeof(S)`).
pub fn metadata_overhead_bytes(
    num_entries: u64,
    entries_per_page: usize,
    pages_per_tile: usize,
    sizeof_sort_key: usize,
    sizeof_delete_key: usize,
) -> i64 {
    let b = entries_per_page.max(1) as u64;
    let h = pages_per_tile.max(1) as u64;
    let delete_tiles = num_entries.div_ceil(b * h);
    let s = sizeof_sort_key as i64;
    let d = sizeof_delete_key as i64;
    delete_tiles as i64 * (s + h as i64 * (d - s))
}

/// CPU-cost multiplier of KiWi lookups relative to the state of the art
/// (paper §4.2.4): a zero-result lookup probes `h` per-page filters per level
/// instead of one; an existing-key lookup stops after `h/4` pages on average
/// within the terminal tile.
pub fn hash_cost_multiplier(pages_per_tile: usize, zero_result: bool) -> f64 {
    let h = pages_per_tile.max(1) as f64;
    if zero_result {
        h
    } else {
        (h / 4.0).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use lethe_lsm::compaction::{FileSelection, SaturationPolicy};
    use lethe_lsm::config::{LsmConfig, SecondaryDeleteMode};

    fn build_tree(h: usize, n: u64, correlated: bool) -> LsmTree {
        let mut cfg = LsmConfig::small_for_test();
        cfg.pages_per_delete_tile = h;
        cfg.max_pages_per_file = h * 4;
        cfg.secondary_delete_mode = SecondaryDeleteMode::KiwiPageDrops;
        let mut tree =
            LsmTree::in_memory(cfg, Box::new(SaturationPolicy::new(FileSelection::MinOverlap)))
                .unwrap();
        for k in 0..n {
            let d = if correlated { k } else { (k * 7919) % n };
            tree.put(k, d, Bytes::from(vec![b'v'; 16])).unwrap();
        }
        tree.flush().unwrap();
        tree.maintain().unwrap();
        tree
    }

    #[test]
    fn plan_matches_execution() {
        let mut tree = build_tree(4, 2000, false);
        let plan = plan_secondary_delete(&tree, 0, 1000);
        assert!(plan.total_pages() > 0);
        assert!(plan.full_drops > 0, "{plan:?}");
        let stats = tree.secondary_range_delete(0, 1000).unwrap();
        assert_eq!(stats.full_page_drops, plan.full_drops, "plan {plan:?} vs actual {stats:?}");
        assert_eq!(stats.partial_page_drops, plan.partial_drops);
    }

    #[test]
    fn a_page_of_tombstones_only_is_untouched() {
        let mut tree = build_tree(4, 0, false);
        // every third key a point tombstone, every put's delete key >= 1000
        for k in 0..600u64 {
            if k % 3 == 0 {
                tree.delete(k).unwrap();
            } else {
                tree.put(k, 1000 + k, Bytes::from(vec![b'v'; 16])).unwrap();
            }
        }
        tree.flush().unwrap();
        let pages: Vec<_> = tree
            .levels()
            .iter()
            .flat_map(|l| l.runs.iter())
            .flat_map(|r| r.tables().iter())
            .flat_map(|t| t.tiles.iter().flat_map(|tile| tile.pages.clone()))
            .collect();
        let tombstone_only = pages.iter().filter(|p| p.num_tombstones == p.num_entries);
        assert!(tombstone_only.count() > 0, "no page of tombstones only");
        // a purge below every put's delete key touches no page
        let plan = plan_secondary_delete(&tree, 0, 500);
        assert_eq!(plan, DropPlan { untouched: pages.len() as u64, ..DropPlan::default() });
        // a fully covered page that holds tombstones is read, not dropped
        let plan = plan_secondary_delete(&tree, 0, u64::MAX);
        let mixed =
            pages.iter().filter(|p| p.num_tombstones > 0 && p.num_tombstones < p.num_entries);
        assert_eq!(plan.partial_drops, mixed.count() as u64, "{plan:?}");
    }

    #[test]
    fn larger_tiles_drop_more_pages_fully() {
        let tree_h1 = build_tree(1, 2000, false);
        let tree_h8 = build_tree(8, 2000, false);
        let plan_h1 = plan_secondary_delete(&tree_h1, 0, 500);
        let plan_h8 = plan_secondary_delete(&tree_h8, 0, 500);
        assert!(
            plan_h8.full_drop_fraction() > plan_h1.full_drop_fraction(),
            "h=8 {plan_h8:?} should fully drop a larger fraction than h=1 {plan_h1:?}"
        );
        assert!(plan_h8.io_cost_pages() <= plan_h1.io_cost_pages());
    }

    #[test]
    fn correlated_keys_make_tiles_unnecessary() {
        // when sort and delete key are perfectly correlated the classic
        // layout already clusters deleted entries, so h=1 plans mostly full
        // drops too (paper Figure 6(L))
        let tree = build_tree(1, 2000, true);
        let plan = plan_secondary_delete(&tree, 0, 1000);
        assert!(plan.full_drop_fraction() > 0.8, "{plan:?}");
    }

    #[test]
    fn metadata_overhead_formula() {
        // equal key sizes: overhead is one sort key per tile
        let n = 1_000_000u64;
        let overhead = metadata_overhead_bytes(n, 4, 16, 8, 8);
        let tiles = n.div_ceil(4 * 16);
        assert_eq!(overhead, (tiles * 8) as i64);
        // smaller delete key than sort key can make KiWi cheaper
        let negative = metadata_overhead_bytes(n, 4, 16, 16, 4);
        assert!(negative < 0);
        // h = 1: overhead equals one delete key per page (fences on D added,
        // fences on S unchanged)
        let h1 = metadata_overhead_bytes(n, 4, 1, 8, 8);
        assert_eq!(h1, (n.div_ceil(4) * 8) as i64);
    }

    #[test]
    fn hash_multiplier_shapes() {
        assert_eq!(hash_cost_multiplier(1, true), 1.0);
        assert_eq!(hash_cost_multiplier(8, true), 8.0);
        assert_eq!(hash_cost_multiplier(8, false), 2.0);
        assert_eq!(hash_cost_multiplier(2, false), 1.0);
    }

    #[test]
    fn empty_plan_edge_cases() {
        let plan = DropPlan::default();
        assert_eq!(plan.full_drop_fraction(), 0.0);
        assert_eq!(plan.total_pages(), 0);
        assert_eq!(plan.io_cost_pages(), 0);
    }
}
