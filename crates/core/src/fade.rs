//! FADE — Fast Deletion: the delete-aware compaction policy (paper §4.1).
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
//! This module holds FADE's own half: the TTL allocation ([`level_ttls`])
//! and the TTL trigger, which always selects `DD`. Every pick that trigger
//! does not claim goes to an inner [`SaturationPolicy`] selecting `SD`
//! ([`FileSelection::MostInvalidations`], which is `SO` while no file of the
//! level invalidates anything).

use lethe_lsm::compaction::{
    CompactionPolicy, CompactionTask, FileSelection, SaturationPolicy, TreeView,
};
use lethe_lsm::config::MergePolicy;
use lethe_lsm::level::Level;
use lethe_storage::Timestamp;

/// The size ratio `T` FADE allocates its TTLs with, whatever the tree's
/// own. §4.1.2 uses the tree's size ratio; this fixed value is an open
/// departure (ROADMAP.md, "FADE as §4.1 specifies it"): a larger `T` gives
/// the shallow levels shorter TTLs, trading write amplification for space
/// amplification.
const TTL_SIZE_RATIO: usize = 10;

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

/// The FADE compaction policy: the TTL trigger over a
/// [`FileSelection::MostInvalidations`] saturation policy.
#[derive(Debug, Clone)]
pub struct FadePolicy {
    dth: Timestamp,
    saturation: SaturationPolicy,
}

impl FadePolicy {
    /// Creates a FADE policy enforcing the delete persistence threshold
    /// `dth` (logical microseconds).
    pub fn new(dth: Timestamp) -> Self {
        FadePolicy { dth, saturation: SaturationPolicy::new(FileSelection::MostInvalidations) }
    }
}

/// The files of `level` whose oldest tombstone is older than `ttl` at
/// logical time `now`, oldest tombstone first: a delete-driven (DD)
/// compaction moves every expired file of the level in one job (paper
/// Figure 4).
fn expired_files(level: &Level, ttl: Timestamp, now: Timestamp) -> Vec<u64> {
    let mut expired: Vec<_> = level
        .all_tables()
        .filter(|t| t.has_tombstones() && t.tombstone_age(now) > ttl)
        .collect();
    expired.sort_by(|a, b| {
        b.tombstone_age(now)
            .cmp(&a.tombstone_age(now))
            .then_with(|| b.tombstone_count().cmp(&a.tombstone_count()))
    });
    expired.iter().map(|t| t.meta.id).collect()
}

impl CompactionPolicy for FadePolicy {
    fn pick(&mut self, view: &TreeView<'_>) -> Option<CompactionTask> {
        // The TTL trigger goes first, on the smallest level holding an
        // expired file (ties among levels go to the smallest level, §4.1.4).
        // It is suspended while a live snapshot gates tombstone GC: a DD
        // compaction exists only to drop its expired tombstones, which a
        // gated job must retain — running it anyway would rewrite the file
        // with `oldest_tombstone_ts` intact, leave it expired, and re-pick it
        // forever. The engine counts the deferral
        // (`TreeStats::tombstone_gc_delayed`) and the expired files are
        // picked up on the first pick after the snapshot releases.
        if !view.tombstone_gc_gated {
            let ttls = level_ttls(self.dth, TTL_SIZE_RATIO, view.levels.len());
            for (level, (files, &ttl)) in view.levels.iter().zip(&ttls).enumerate() {
                let file_ids = expired_files(files, ttl, view.now);
                if file_ids.is_empty() {
                    continue;
                }
                return Some(match view.config.merge_policy {
                    MergePolicy::Leveling => {
                        CompactionTask::LeveledMulti { level, file_ids, ttl_expired: true }
                    }
                    MergePolicy::Tiering => {
                        CompactionTask::TieredLevel { level, ttl_expired: true }
                    }
                });
            }
        }
        self.saturation.pick(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use lethe_lsm::config::LsmConfig;
    use lethe_lsm::level::Run;
    use lethe_lsm::sstable::SsTable;
    use lethe_storage::{Entry, Histogram, FileBackend};
    use std::sync::Arc;

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
        backend: &FileBackend,
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
        let backend = FileBackend::in_memory().unwrap();
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
        let backend = FileBackend::in_memory().unwrap();
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
        let backend = FileBackend::in_memory().unwrap();
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
        let backend = FileBackend::in_memory().unwrap();
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
    }

    /// A saturated level 0 and a TTL-expired file in level 1 at once: the
    /// TTL trigger wins, even though saturation would pick the shallower
    /// level.
    #[test]
    fn expired_ttl_takes_precedence_over_saturation() {
        let backend = FileBackend::in_memory().unwrap();
        let cfg = LsmConfig::small_for_test();
        let hist = Histogram::new(0, 1 << 20, 16);
        let mut levels = vec![Level::new(), Level::new(), Level::new()];
        levels[0].runs.push(Run::new(vec![table_with_tombstones(1, 0, 64, 0, 0, &backend)]));
        levels[1].runs.push(Run::new(vec![table_with_tombstones(2, 100, 8, 1, 0, &backend)]));
        let mut policy = FadePolicy::new(1_000_000);
        // past level 1's cumulative TTL, short of level 2's (= D_th)
        let now = level_ttls(1_000_000, 10, 3)[1] + 1;
        let mut view = make_view(&levels, &cfg, &hist, now);
        view.capacities = vec![1, u64::MAX, u64::MAX]; // level 0 is saturated
        assert_eq!(
            policy.pick(&view),
            Some(CompactionTask::LeveledMulti { level: 1, file_ids: vec![2], ttl_expired: true })
        );
        // without the expired file, saturation picks level 0
        levels[1].runs.clear();
        let mut view = make_view(&levels, &cfg, &hist, now);
        view.capacities = vec![1, u64::MAX, u64::MAX];
        assert_eq!(
            policy.pick(&view),
            Some(CompactionTask::LeveledMulti { level: 0, file_ids: vec![1], ttl_expired: false })
        );
    }

    #[test]
    fn tiering_expiry_compacts_whole_level() {
        let backend = FileBackend::in_memory().unwrap();
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
        let dth = 1_000_000;
        let mut cfg = LsmConfig::small_for_test();
        cfg.size_ratio = 2;
        cfg.auto_advance_clock = false;
        cfg.delete_persistence_threshold = Some(dth);
        let mut t = LsmTree::in_memory(cfg, Box::new(FadePolicy::new(dth))).unwrap();
        let clock = t.clock().clone();
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
    fn deeper_trees_shrink_the_first_levels_ttl() {
        let two = level_ttls(1_000_000, 10, 2);
        let four = level_ttls(1_000_000, 10, 4);
        assert_eq!(two.len(), 2);
        assert_eq!(four.len(), 4);
        assert_eq!(*two.last().unwrap(), 1_000_000);
        assert_eq!(*four.last().unwrap(), 1_000_000);
        // with more levels the first level's share shrinks
        assert!(four[0] < two[0]);
    }
}
