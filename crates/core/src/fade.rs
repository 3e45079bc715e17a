//! FADE — Fast Deletion: the delete-aware family of compaction strategies
//! (paper §4.1).
//!
//! FADE guarantees that every tombstone participates in a compaction with the
//! last level within the user-supplied *delete persistence threshold* `D_th`.
//! It does so by assigning every disk level an exponentially increasing
//! time-to-live; a file whose oldest tombstone is older than its level's
//! (cumulative) TTL *expires* and must be compacted down, regardless of
//! whether its level is full.
//!
//! Per the paper, each compaction decision has two parts:
//!
//! * **trigger** — a level is saturated, *or* a file's TTL has expired;
//! * **file selection** — `SO` (smallest overlap, write-optimised),
//!   `SD` (highest estimated invalidation count `b`, space-optimised) or
//!   `DD` (the expired file, delete-persistence-driven).
//!
//! TTL expiry always uses `DD`. For saturation-driven compactions the
//! secondary optimisation goal is configurable via [`SaturationSelection`].

use lethe_lsm::compaction::{CompactionPolicy, CompactionTask, TreeView};
use lethe_lsm::config::MergePolicy;
use lethe_lsm::sstable::SsTable;
use lethe_storage::Timestamp;
use std::sync::Arc;

/// The secondary optimisation goal used when a compaction is triggered by
/// level saturation (the TTL guarantee holds under either choice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaturationSelection {
    /// `SO`: pick the file with the smallest overlap with the next level,
    /// minimising write amplification (the state-of-the-art default).
    SmallestOverlap,
    /// `SD`: pick the file with the highest estimated invalidation count `b`,
    /// minimising space amplification (Lethe's default).
    MostInvalidations,
}

/// Per-level TTL allocation for a given threshold, size ratio and level count
/// (paper §4.1.2).
///
/// `d_i = d_0 · T^i` with `d_0 = D_th (T − 1) / (T^n − 1)` for `n` disk
/// levels, so that `Σ d_i = D_th`. The returned vector holds the *cumulative*
/// TTLs `Σ_{j ≤ i} d_j`; a file living in level `i` expires once the age of
/// its oldest tombstone exceeds `cumulative[i]`.
pub fn level_ttls(dth: Timestamp, size_ratio: usize, disk_levels: usize) -> Vec<Timestamp> {
    let n = disk_levels.max(1);
    let t = size_ratio.max(2) as f64;
    let dth_f = dth as f64;
    let d0 = dth_f * (t - 1.0) / (t.powi(n as i32) - 1.0);
    let mut cumulative = Vec::with_capacity(n);
    let mut acc = 0.0;
    for i in 0..n {
        acc += d0 * t.powi(i as i32);
        cumulative.push(acc.round() as Timestamp);
    }
    // guard against floating point drift: the last level's cumulative TTL is
    // exactly D_th by construction
    if let Some(last) = cumulative.last_mut() {
        *last = dth;
    }
    cumulative
}

/// The FADE compaction policy.
#[derive(Debug, Clone)]
pub struct FadePolicy {
    dth: Timestamp,
    selection: SaturationSelection,
    level_count: usize,
    cumulative_ttls: Vec<Timestamp>,
}

impl FadePolicy {
    /// Creates a FADE policy enforcing the delete persistence threshold
    /// `dth` (logical microseconds), using `SD` selection for
    /// saturation-driven compactions.
    pub fn new(dth: Timestamp) -> Self {
        Self::with_selection(dth, SaturationSelection::MostInvalidations)
    }

    /// Creates a FADE policy with an explicit saturation-selection mode.
    pub fn with_selection(dth: Timestamp, selection: SaturationSelection) -> Self {
        FadePolicy {
            dth,
            selection,
            level_count: 0,
            cumulative_ttls: Vec::new(),
        }
    }

    /// The configured delete persistence threshold.
    pub fn delete_persistence_threshold(&self) -> Timestamp {
        self.dth
    }

    /// The cumulative per-level TTLs currently in force.
    pub fn cumulative_ttls(&self) -> &[Timestamp] {
        &self.cumulative_ttls
    }

    fn recompute_ttls(&mut self, level_count: usize) {
        if level_count == self.level_count && !self.cumulative_ttls.is_empty() {
            return;
        }
        self.level_count = level_count;
        if level_count == 0 {
            self.cumulative_ttls.clear();
        } else {
            // size ratio is filled in lazily on the first `pick` (we need the
            // view's config); keep a placeholder consistent with T = 10
            self.cumulative_ttls = level_ttls(self.dth, 10, level_count);
        }
    }

    /// True if `table`, resident in disk level `level`, has outlived its TTL
    /// at logical time `now`.
    fn is_expired(&self, table: &SsTable, level: usize, now: Timestamp) -> bool {
        if !table.has_tombstones() {
            return false;
        }
        let ttl = self
            .cumulative_ttls
            .get(level)
            .copied()
            .unwrap_or(self.dth);
        table.tombstone_age(now) > ttl
    }

    /// Collects the files to compact from `level` for a delete-driven (DD)
    /// compaction: every expired file of the level is compacted in one job
    /// (paper Figure 4), ordered oldest tombstone first.
    fn pick_dd(&self, view: &TreeView<'_>, level: usize) -> Vec<u64> {
        let now = view.now;
        let mut expired: Vec<_> = view.levels[level]
            .all_tables()
            .filter(|t| self.is_expired(t, level, now))
            .collect();
        expired.sort_by(|a, b| {
            b.tombstone_age(now)
                .cmp(&a.tombstone_age(now))
                .then_with(|| b.tombstone_count().cmp(&a.tombstone_count()))
        });
        expired.iter().map(|t| t.meta.id).collect()
    }

    /// Picks the file to compact from a saturated `level` according to the
    /// configured secondary goal.
    fn pick_saturated(&self, view: &TreeView<'_>, level: usize) -> Option<u64> {
        let tables: Vec<&Arc<SsTable>> = view.levels[level].all_tables().collect();
        if tables.is_empty() {
            return None;
        }
        let now = view.now;
        // With no tombstones anywhere in the level there is nothing for the
        // delete-driven goal to optimise: fall back to the write-optimised
        // smallest-overlap choice so that, absent deletes, Lethe behaves
        // exactly like the state of the art (paper §5.1).
        let selection = if self.selection == SaturationSelection::MostInvalidations
            && tables.iter().all(|t| view.estimated_invalidation_count(t) == 0.0)
        {
            SaturationSelection::SmallestOverlap
        } else {
            self.selection
        };
        let chosen = match selection {
            SaturationSelection::MostInvalidations => tables.iter().max_by(|a, b| {
                let ba = view.estimated_invalidation_count(a);
                let bb = view.estimated_invalidation_count(b);
                ba.partial_cmp(&bb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.tombstone_age(now).cmp(&b.tombstone_age(now)))
                    .then_with(|| a.tombstone_count().cmp(&b.tombstone_count()))
            }),
            SaturationSelection::SmallestOverlap => tables.iter().min_by(|a, b| {
                view.overlap_bytes(level, a)
                    .cmp(&view.overlap_bytes(level, b))
                    .then_with(|| b.tombstone_count().cmp(&a.tombstone_count()))
            }),
        };
        chosen.map(|t| t.meta.id)
    }
}

impl CompactionPolicy for FadePolicy {
    fn pick(&mut self, view: &TreeView<'_>) -> Option<CompactionTask> {
        // keep the TTL allocation in sync with the tree height and size ratio
        let level_count = view.levels.len();
        if level_count == 0 {
            return None;
        }
        if level_count != self.level_count || self.cumulative_ttls.is_empty() {
            self.level_count = level_count;
            self.cumulative_ttls = level_ttls(self.dth, view.config.size_ratio, level_count);
        }

        // 1. delete-driven trigger: any level holding an expired file, the
        //    smallest such level first (ties among levels go to the smallest
        //    level, §4.1.4). Suspended while a live snapshot gates tombstone
        //    GC: a DD compaction exists only to drop its expired tombstones,
        //    which a gated job must retain — running it anyway would rewrite
        //    the file with `oldest_tombstone_ts` intact, leave it expired,
        //    and re-pick it forever. The engine counts the deferral
        //    (`TreeStats::tombstone_gc_delayed`) and the expired files are
        //    picked up on the first pick after the snapshot releases.
        let now = view.now;
        let skip_dd = view.tombstone_gc_gated;
        for level in (0..level_count).filter(|_| !skip_dd) {
            if view.levels[level].is_empty() {
                continue;
            }
            let has_expired =
                view.levels[level].all_tables().any(|t| self.is_expired(t, level, now));
            if !has_expired {
                continue;
            }
            return match view.config.merge_policy {
                MergePolicy::Leveling => {
                    let file_ids = self.pick_dd(view, level);
                    if file_ids.is_empty() {
                        None
                    } else {
                        Some(CompactionTask::LeveledMulti { level, file_ids, ttl_expired: true })
                    }
                }
                MergePolicy::Tiering => {
                    Some(CompactionTask::TieredLevel { level, ttl_expired: true })
                }
            };
        }

        // 2. saturation-driven trigger
        for level in 0..level_count {
            if view.levels[level].is_empty() || !view.is_saturated(level) {
                continue;
            }
            return match view.config.merge_policy {
                MergePolicy::Leveling => self.pick_saturated(view, level).map(|file_id| {
                    CompactionTask::LeveledMulti { level, file_ids: vec![file_id], ttl_expired: false }
                }),
                MergePolicy::Tiering => {
                    Some(CompactionTask::TieredLevel { level, ttl_expired: false })
                }
            };
        }
        None
    }

    fn name(&self) -> &'static str {
        match self.selection {
            SaturationSelection::MostInvalidations => "fade/sd+dd",
            SaturationSelection::SmallestOverlap => "fade/so+dd",
        }
    }

    fn on_tree_growth(&mut self, level_count: usize) {
        self.recompute_ttls(level_count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use lethe_lsm::config::LsmConfig;
    use lethe_lsm::level::{Level, Run};
    use lethe_storage::{Entry, Histogram, InMemoryBackend};

    #[test]
    fn ttl_allocation_sums_to_dth_and_grows_exponentially() {
        let dth = 1_000_000;
        let ttls = level_ttls(dth, 10, 3);
        assert_eq!(ttls.len(), 3);
        // cumulative and ending exactly at D_th
        assert!(ttls[0] < ttls[1] && ttls[1] < ttls[2]);
        assert_eq!(*ttls.last().unwrap(), dth);
        // per-level (non-cumulative) TTLs grow by a factor of T
        let d0 = ttls[0] as f64;
        let d1 = (ttls[1] - ttls[0]) as f64;
        let d2 = (ttls[2] - ttls[1]) as f64;
        assert!((d1 / d0 - 10.0).abs() < 0.1, "d1/d0 = {}", d1 / d0);
        assert!((d2 / d1 - 10.0).abs() < 0.1, "d2/d1 = {}", d2 / d1);
    }

    #[test]
    fn ttl_allocation_single_level_is_dth() {
        let ttls = level_ttls(500, 4, 1);
        assert_eq!(ttls, vec![500]);
    }

    fn table_with_tombstones(
        id: u64,
        lo: u64,
        n: u64,
        tombstones: u64,
        tombstone_ts: u64,
        backend: &InMemoryBackend,
    ) -> Arc<SsTable> {
        let cfg = LsmConfig::small_for_test();
        let mut entries: Vec<Entry> = (lo..lo + n)
            .map(|k| Entry::put(k, k, k + 1, Bytes::from(vec![0u8; 32])))
            .collect();
        for i in 0..tombstones {
            entries.push(Entry::point_tombstone(lo + n + i, 10_000 + i));
        }
        entries.sort_by_key(|e| e.sort_key);
        let ts = if tombstones > 0 { Some(tombstone_ts) } else { None };
        Arc::new(SsTable::build(id, entries, vec![], 0, ts, &cfg, backend).unwrap())
    }

    fn make_view<'a>(
        levels: &'a [Level],
        cfg: &'a LsmConfig,
        hist: &'a Histogram,
        now: u64,
    ) -> TreeView<'a> {
        TreeView {
            levels,
            capacities: (0..levels.len()).map(|i| cfg.level_capacity_bytes(i + 1)).collect(),
            now,
            config: cfg,
            sort_key_histogram: hist,
            tombstone_gc_gated: false,
        }
    }

    #[test]
    fn expired_ttl_triggers_dd_compaction_even_without_saturation() {
        let backend = InMemoryBackend::new();
        let cfg = LsmConfig::small_for_test().with_delete_persistence_secs(1.0);
        let hist = Histogram::new(0, 1 << 20, 16);
        let mut levels = vec![Level::new(), Level::new()];
        // a tiny file (far below capacity) whose tombstone was inserted at t=0
        levels[0].runs.push(Run::new(vec![table_with_tombstones(1, 0, 4, 2, 0, &backend)]));
        levels[1].runs.push(Run::new(vec![table_with_tombstones(2, 0, 4, 0, 0, &backend)]));
        let mut policy = FadePolicy::new(1_000_000);

        // well before any TTL expires: nothing to do
        let view = make_view(&levels, &cfg, &hist, 1_000);
        assert!(policy.pick(&view).is_none());

        // after D_th the file must be compacted regardless of saturation
        let view = make_view(&levels, &cfg, &hist, 2_000_000);
        assert_eq!(
            policy.pick(&view),
            Some(CompactionTask::LeveledMulti { level: 0, file_ids: vec![1], ttl_expired: true })
        );
    }

    #[test]
    fn files_without_tombstones_never_expire() {
        let backend = InMemoryBackend::new();
        let cfg = LsmConfig::small_for_test();
        let hist = Histogram::new(0, 1 << 20, 16);
        let mut levels = vec![Level::new()];
        levels[0].runs.push(Run::new(vec![table_with_tombstones(1, 0, 8, 0, 0, &backend)]));
        let mut policy = FadePolicy::new(100);
        let view = make_view(&levels, &cfg, &hist, u64::MAX / 2);
        assert!(policy.pick(&view).is_none());
    }

    #[test]
    fn dd_compacts_every_expired_file_oldest_first() {
        let backend = InMemoryBackend::new();
        let cfg = LsmConfig::small_for_test();
        let hist = Histogram::new(0, 1 << 20, 16);
        let mut levels = vec![Level::new()];
        levels[0].runs.push(Run::new(vec![
            table_with_tombstones(1, 0, 4, 1, 500, &backend),
            table_with_tombstones(2, 100, 4, 1, 100, &backend), // older tombstone
            table_with_tombstones(3, 200, 4, 0, 0, &backend),   // no tombstones: never expires
        ]));
        let mut policy = FadePolicy::new(1_000);
        let view = make_view(&levels, &cfg, &hist, 10_000);
        // both expired files are compacted in one job, the one holding the
        // oldest tombstone first; the tombstone-free file is left alone
        assert_eq!(
            policy.pick(&view),
            Some(CompactionTask::LeveledMulti { level: 0, file_ids: vec![2, 1], ttl_expired: true })
        );
    }

    #[test]
    fn saturation_uses_sd_selection_by_default() {
        let backend = InMemoryBackend::new();
        let mut cfg = LsmConfig::small_for_test();
        cfg.delete_persistence_threshold = Some(u64::MAX);
        let hist = Histogram::new(0, 1 << 20, 16);
        let mut levels = vec![Level::new(), Level::new()];
        // file 2 holds many tombstones (higher b), file 1 has none
        levels[0].runs.push(Run::new(vec![
            table_with_tombstones(1, 0, 64, 0, 0, &backend),
            table_with_tombstones(2, 100, 64, 16, 0, &backend),
        ]));
        let mut policy = FadePolicy::new(u64::MAX);
        let mut view = make_view(&levels, &cfg, &hist, 10);
        view.capacities = vec![1, u64::MAX]; // force saturation of level 0
        assert_eq!(
            policy.pick(&view),
            Some(CompactionTask::LeveledMulti { level: 0, file_ids: vec![2], ttl_expired: false })
        );
        assert_eq!(policy.name(), "fade/sd+dd");

        // the SO variant prefers the file with the smallest overlap instead
        let mut policy = FadePolicy::with_selection(u64::MAX, SaturationSelection::SmallestOverlap);
        let mut view = make_view(&levels, &cfg, &hist, 10);
        view.capacities = vec![1, u64::MAX];
        assert!(matches!(
            policy.pick(&view),
            Some(CompactionTask::LeveledMulti { level: 0, ttl_expired: false, .. })
        ));
        assert_eq!(policy.name(), "fade/so+dd");
    }

    #[test]
    fn tiering_expiry_compacts_whole_level() {
        let backend = InMemoryBackend::new();
        let mut cfg = LsmConfig::small_for_test();
        cfg.merge_policy = MergePolicy::Tiering;
        let hist = Histogram::new(0, 1 << 20, 16);
        let mut levels = vec![Level::new()];
        levels[0].runs.push(Run::new(vec![table_with_tombstones(1, 0, 4, 1, 0, &backend)]));
        let mut policy = FadePolicy::new(1_000);
        let view = make_view(&levels, &cfg, &hist, 5_000);
        assert_eq!(
            policy.pick(&view),
            Some(CompactionTask::TieredLevel { level: 0, ttl_expired: true })
        );
    }

    /// Regression: the tree used to guess the trigger (`age >= D_th / 2`,
    /// below every level's TTL but the last) instead of asking the policy,
    /// so `ttl_triggered_compactions` read 0 under inline FADE.
    #[test]
    fn tree_counts_the_compactions_fades_ttl_trigger_picked() {
        use lethe_lsm::LsmTree;
        use lethe_storage::LogicalClock;
        let dth = 1_000_000;
        let mut cfg = LsmConfig::small_for_test();
        cfg.size_ratio = 2;
        cfg.auto_advance_clock = false;
        cfg.delete_persistence_threshold = Some(dth);
        let clock = LogicalClock::new();
        let mut t = LsmTree::new(
            cfg,
            InMemoryBackend::new_shared(),
            clock.clone(),
            Box::new(FadePolicy::new(dth)),
        )
        .unwrap();
        for k in 0..400u64 {
            t.put(k, k, Bytes::from(vec![0u8; 32])).unwrap();
        }
        t.delete(7).unwrap();
        t.flush().unwrap();
        assert!(t.level_count() >= 2, "levels: {}", t.level_count());
        assert!(t.levels()[0].all_tables().any(|f| f.has_tombstones()));
        assert_eq!(t.stats().ttl_triggered_compactions, 0, "nothing has aged yet");

        // past level 0's TTL (at most D_th / 3 with two or more levels),
        // well short of D_th / 2
        clock.advance_to(clock.now() + dth * 2 / 5);
        t.maintain().unwrap();
        assert!(t.stats().ttl_triggered_compactions > 0);
        assert!(!t.levels()[0].all_tables().any(|f| f.has_tombstones()));
    }

    #[test]
    fn on_tree_growth_rescales_ttls() {
        let mut policy = FadePolicy::new(1_000_000);
        policy.on_tree_growth(2);
        let two = policy.cumulative_ttls().to_vec();
        policy.on_tree_growth(4);
        let four = policy.cumulative_ttls().to_vec();
        assert_eq!(two.len(), 2);
        assert_eq!(four.len(), 4);
        assert_eq!(*two.last().unwrap(), 1_000_000);
        assert_eq!(*four.last().unwrap(), 1_000_000);
        // with more levels the first level's share shrinks
        assert!(four[0] < two[0]);
    }
}
