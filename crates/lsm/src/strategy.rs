//! Pluggable compaction strategies: size-tiered and date-tiered.
//!
//! The baseline policies of [`crate::compaction`] (and FADE in `lethe-core`)
//! reorganise the tree one *file* at a time under leveling, or one whole
//! *level* at a time under tiering. The strategies here exploit the same
//! [`crate::compaction::CompactionPolicy`] seam with two finer-grained
//! layouts borrowed from production engines:
//!
//! * [`SizeTieredPolicy`] — bucket each level's runs by size class (powers of
//!   the fan-in over the buffer size) and merge a class once `fan_in` runs of
//!   it accumulate. Small fresh runs merge with small fresh runs; a large old
//!   run is rewritten only when enough peers of its own size exist, which is
//!   what keeps write amplification below leveling on append-heavy
//!   workloads.
//! * [`DateTieredPolicy`] — bucket runs into aligned time windows over the
//!   delete key (Lethe's creation-timestamp attribute). Window widths grow
//!   with age along a geometric ladder (base width × `fan_in` per rung, the
//!   classic 4 MB → 4 GB-style progression), and **windows never merge across
//!   boundaries**, so every file holds a disjoint time range. That layout is
//!   the natural amplifier for FADE's delete guarantees: once a retention TTL
//!   expires, an entire window is stale *as whole files* and the policy
//!   retires it with [`CompactionTask::DropFiles`] — zero pages read or
//!   written.
//!
//! Both strategies require [`MergePolicy::Tiering`](crate::config::MergePolicy)
//! (enforced by [`LsmConfig::validate`](crate::config::LsmConfig::validate)):
//! flushes must *append* runs for there to be same-sized / same-windowed runs
//! to bucket at all.
//!
//! ## Why merges take only adjacent runs, and replace them in place
//!
//! Reads resolve key versions by recency: shallower level first, then newer
//! run first within a level. A merge that combined runs *around* a surviving
//! run of intermediate recency would put versions older than the survivor
//! and versions newer than it into one output run, which no single position
//! in the run list can order correctly. Both strategies therefore only ever
//! propose a **contiguous** group of a level's runs via
//! [`CompactionTask::MergeRuns`], whose planner rejects anything else; the
//! merged run replaces the group at its own position, so the order of
//! everything around it is untouched. When several groups are ready the
//! oldest merges first — old runs are the ones TTL retirement and tombstone
//! persistence are waiting on.

use crate::compaction::{CompactionPolicy, CompactionTask, TreeView};
use crate::level::Run;
use lethe_storage::Timestamp;

/// Upper bound on ladder rungs: window widths stop growing after
/// `base × fan_in^MAX_LADDER_RUNGS` (with the 4 MB base and fan-in 4 of the
/// classic ladder that is the 4 GB top rung). A cap keeps very old data in
/// bounded-width windows instead of one unbounded "everything ancient"
/// window that a TTL could never retire in one piece.
pub const MAX_LADDER_RUNGS: u32 = 5;

/// Scans `runs` oldest-first for a contiguous group of at least `fan_in`
/// runs sharing one bucket label and returns the ids of every file of the
/// oldest such group. `label` maps a run to its bucket; runs labelled `None`
/// (empty runs) break a group.
fn oldest_group_sharing_label<L: PartialEq>(
    runs: &[Run],
    fan_in: usize,
    label: impl Fn(&Run) -> Option<L>,
) -> Option<Vec<u64>> {
    let mut group_end = runs.len(); // exclusive end of the current group
    let mut current: Option<L> = None;
    let mut count = 0;
    for (i, run) in runs.iter().enumerate().rev() {
        let l = label(run);
        if l.is_some() && l == current {
            count += 1;
        } else {
            if count >= fan_in {
                break;
            }
            current = l;
            count = if current.is_some() { 1 } else { 0 };
            group_end = i + 1;
        }
    }
    if count < fan_in {
        return None;
    }
    let ids: Vec<u64> = runs[group_end - count..group_end]
        .iter()
        .flat_map(|r| r.tables().iter().map(|t| t.meta.id))
        .collect();
    Some(ids)
}

/// Size-tiered compaction: each level's runs are bucketed into geometric
/// size classes (class 0 holds runs up to one buffer's worth of bytes, each
/// further class `fan_in` times larger) and a class is merged into one run of
/// the next level once `fan_in` runs of it pile up at the old end of the
/// level.
#[derive(Debug, Clone)]
pub struct SizeTieredPolicy {
    fan_in: usize,
}

impl SizeTieredPolicy {
    /// Creates the policy; `fan_in` is clamped to at least 2.
    pub fn new(fan_in: usize) -> Self {
        SizeTieredPolicy { fan_in: fan_in.max(2) }
    }

    /// Geometric size class of a run: the smallest `c` with
    /// `bytes ≤ base · fan_in^c`, where `base` is the buffer capacity.
    fn size_class(&self, bytes: u64, base: u64) -> u32 {
        let mut class = 0;
        let mut cap = base.max(1);
        while bytes > cap {
            cap = cap.saturating_mul(self.fan_in as u64);
            class += 1;
        }
        class
    }
}

impl CompactionPolicy for SizeTieredPolicy {
    fn pick(&mut self, view: &TreeView<'_>) -> Option<CompactionTask> {
        let base = view.config.buffer_capacity_bytes() as u64;
        for (level, l) in view.levels.iter().enumerate() {
            let picked = oldest_group_sharing_label(&l.runs, self.fan_in, |run| {
                if run.is_empty() {
                    None
                } else {
                    Some(self.size_class(run.total_bytes(), base))
                }
            });
            if let Some(file_ids) = picked {
                return Some(CompactionTask::MergeRuns { level, file_ids });
            }
        }
        None
    }
}

/// Date-tiered compaction: runs are bucketed into aligned time windows over
/// the delete key, window widths growing geometrically with age, and a base
/// window wholly past the retention TTL is retired via whole-file drops.
#[derive(Debug, Clone)]
pub struct DateTieredPolicy {
    base_window_micros: Timestamp,
    fan_in: usize,
    ttl_micros: Option<Timestamp>,
}

impl DateTieredPolicy {
    /// Creates the policy; `base_window_micros` is clamped to at least 1 and
    /// `fan_in` to at least 2. `ttl_micros = None` disables whole-file drops.
    pub fn new(base_window_micros: Timestamp, fan_in: usize, ttl_micros: Option<Timestamp>) -> Self {
        DateTieredPolicy {
            base_window_micros: base_window_micros.max(1),
            fan_in: fan_in.max(2),
            ttl_micros,
        }
    }

    /// Ladder window containing timestamp `ts` as seen at time `now`:
    /// `(rung, index)` where the window width is `base × fan_in^rung`
    /// (rungs capped at [`MAX_LADDER_RUNGS`]), the rung is the smallest one
    /// whose width covers the timestamp's age, and `index` is the aligned
    /// window number at that width. Two timestamps share a window iff both
    /// components match.
    fn window_of(&self, ts: Timestamp, now: Timestamp) -> (u32, Timestamp) {
        let age = now.saturating_sub(ts);
        let mut rung = 0u32;
        let mut width = self.base_window_micros;
        while rung < MAX_LADDER_RUNGS && age > width.saturating_mul(self.fan_in as Timestamp) {
            width = width.saturating_mul(self.fan_in as Timestamp);
            rung += 1;
        }
        (rung, ts / width)
    }

    /// End of the *base-width* aligned window containing `ts`. Drops work at
    /// base-window granularity: a file is wholly expired once the base
    /// window its newest timestamp falls in ends at or before `now − ttl`,
    /// regardless of which ladder rung currently buckets it.
    fn base_window_end(&self, ts: Timestamp) -> Timestamp {
        (ts / self.base_window_micros).saturating_add(1).saturating_mul(self.base_window_micros)
    }

    /// Every file (across all levels) that is wholly expired and safe to
    /// retire without reading: its newest delete key sits in a base window
    /// that ended at or before `now − ttl`, and it holds **no tombstones** —
    /// dropping a tombstone-bearing file could resurrect an older surviving
    /// version of a deleted key elsewhere in the tree.
    fn expired_file_ids(&self, view: &TreeView<'_>) -> Vec<u64> {
        let Some(ttl) = self.ttl_micros else {
            return Vec::new();
        };
        let cutoff = view.now.saturating_sub(ttl);
        view.levels
            .iter()
            .flat_map(|l| l.all_tables())
            .filter(|t| {
                !t.has_tombstones() && self.base_window_end(t.meta.delete_fence.max) <= cutoff
            })
            .map(|t| t.meta.id)
            .collect()
    }

    /// The next window merge, if any level's oldest runs have accumulated
    /// `fan_in` runs of one ladder window.
    fn pick_merge(&self, view: &TreeView<'_>) -> Option<CompactionTask> {
        for (level, l) in view.levels.iter().enumerate() {
            let picked = oldest_group_sharing_label(&l.runs, self.fan_in, |run| {
                run.tables()
                    .iter()
                    .map(|t| t.meta.delete_fence.max)
                    .max()
                    .map(|newest| self.window_of(newest, view.now))
            });
            if let Some(file_ids) = picked {
                return Some(CompactionTask::MergeRuns { level, file_ids });
            }
        }
        None
    }
}

impl CompactionPolicy for DateTieredPolicy {
    fn pick(&mut self, view: &TreeView<'_>) -> Option<CompactionTask> {
        let drop = || {
            let ids = self.expired_file_ids(view);
            if ids.is_empty() {
                None
            } else {
                Some(CompactionTask::DropFiles { file_ids: ids })
            }
        };
        if view.tombstone_gc_gated {
            // A live snapshot pins the expired window: propose merges first
            // so maintenance keeps making progress, then still surface the
            // drop — the planner refuses it through the snapshot gate and
            // counts the delay in `TreeStats::tombstone_gc_delayed`.
            self.pick_merge(view).or_else(drop)
        } else {
            drop().or_else(|| self.pick_merge(view))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LsmConfig, MergePolicy};
    use crate::level::Level;
    use crate::sstable::SsTable;
    use bytes::Bytes;
    use lethe_storage::{Entry, Histogram, FileBackend};
    use std::sync::Arc;

    /// Builds a table of `n` entries whose delete keys all equal `ts`; ids
    /// double as sort keys so tables never overlap.
    fn table(
        id: u64,
        n: u64,
        ts: Timestamp,
        tombstones: u64,
        backend: &FileBackend,
    ) -> Arc<SsTable> {
        let cfg = LsmConfig::small_for_test();
        let lo = id * 10_000;
        let mut entries: Vec<Entry> =
            (lo..lo + n).map(|k| Entry::put(k, ts, k + 1, Bytes::from(vec![0u8; 64]))).collect();
        for i in 0..tombstones {
            entries.push(Entry::point_tombstone(lo + n + i, 1000 + i));
        }
        entries.sort_by_key(|e| e.sort_key);
        let oldest = if tombstones > 0 { Some(ts) } else { None };
        Arc::new(SsTable::build(id, entries, vec![], 0, oldest, &cfg, backend).unwrap())
    }

    fn view<'a>(
        levels: &'a [Level],
        cfg: &'a LsmConfig,
        hist: &'a Histogram,
        now: Timestamp,
        gated: bool,
    ) -> TreeView<'a> {
        TreeView {
            levels,
            capacities: vec![u64::MAX; levels.len()],
            now,
            config: cfg,
            sort_key_histogram: hist,
            tombstone_gc_gated: gated,
        }
    }

    fn tiering_cfg() -> LsmConfig {
        let mut cfg = LsmConfig::small_for_test();
        cfg.merge_policy = MergePolicy::Tiering;
        cfg
    }

    #[test]
    fn size_classes_are_geometric() {
        let p = SizeTieredPolicy::new(4);
        assert_eq!(p.size_class(0, 1024), 0);
        assert_eq!(p.size_class(1024, 1024), 0);
        assert_eq!(p.size_class(1025, 1024), 1);
        assert_eq!(p.size_class(4096, 1024), 1);
        assert_eq!(p.size_class(4097, 1024), 2);
    }

    #[test]
    fn size_tiered_merges_oldest_suffix_of_one_class() {
        let backend = FileBackend::in_memory().unwrap();
        let cfg = tiering_cfg();
        let hist = Histogram::new(0, 1 << 20, 16);
        let mut levels = vec![Level::new()];
        // newest-first: one big run in front, three small runs behind it
        levels[0].runs.push(Run::new(vec![table(9, 200, 0, 0, &backend)]));
        for id in 1..=3 {
            levels[0].runs.push(Run::new(vec![table(id, 4, 0, 0, &backend)]));
        }
        let mut p = SizeTieredPolicy::new(3);
        let task = p.pick(&view(&levels, &cfg, &hist, 0, false));
        // only the three small runs at the old end are picked — not file 9
        assert_eq!(
            task,
            Some(CompactionTask::MergeRuns { level: 0, file_ids: vec![1, 2, 3] })
        );
    }

    #[test]
    fn size_tiered_waits_for_fan_in() {
        let backend = FileBackend::in_memory().unwrap();
        let cfg = tiering_cfg();
        let hist = Histogram::new(0, 1 << 20, 16);
        let mut levels = vec![Level::new()];
        for id in 1..=2 {
            levels[0].runs.push(Run::new(vec![table(id, 4, 0, 0, &backend)]));
        }
        let mut p = SizeTieredPolicy::new(3);
        assert!(p.pick(&view(&levels, &cfg, &hist, 0, false)).is_none());
    }

    #[test]
    fn ladder_windows_grow_with_age_and_cap() {
        let p = DateTieredPolicy::new(100, 4, None);
        let now = 1_000_000;
        // fresh timestamps sit on the base rung
        assert_eq!(p.window_of(now - 50, now).0, 0);
        // ancient timestamps climb the ladder but stop at the cap
        let (rung, _) = p.window_of(0, now);
        assert_eq!(rung, MAX_LADDER_RUNGS);
        // same base window ⇒ same bucket
        assert_eq!(p.window_of(now - 10, now), p.window_of(now - 20, now));
    }

    #[test]
    fn date_tiered_never_merges_across_window_boundaries() {
        let backend = FileBackend::in_memory().unwrap();
        let cfg = tiering_cfg();
        let hist = Histogram::new(0, 1 << 20, 16);
        let now = 10_000;
        let mut levels = vec![Level::new()];
        // two runs in window [9900, 10000), two in [9800, 9900): each window
        // is below the fan-in of 3, so nothing merges even though four runs
        // of identical size are stacked up.
        levels[0].runs.push(Run::new(vec![table(1, 4, 9_950, 0, &backend)]));
        levels[0].runs.push(Run::new(vec![table(2, 4, 9_960, 0, &backend)]));
        levels[0].runs.push(Run::new(vec![table(3, 4, 9_850, 0, &backend)]));
        levels[0].runs.push(Run::new(vec![table(4, 4, 9_860, 0, &backend)]));
        let mut p = DateTieredPolicy::new(100, 3, None);
        assert!(p.pick(&view(&levels, &cfg, &hist, now, false)).is_none());
        // a third run in the older window completes its fan-in; only the
        // oldest suffix (the three old-window runs) is merged
        levels[0].runs.push(Run::new(vec![table(5, 4, 9_870, 0, &backend)]));
        let task = p.pick(&view(&levels, &cfg, &hist, now, false));
        assert_eq!(
            task,
            Some(CompactionTask::MergeRuns { level: 0, file_ids: vec![3, 4, 5] })
        );
    }

    #[test]
    fn date_tiered_drops_wholly_expired_windows_first() {
        let backend = FileBackend::in_memory().unwrap();
        let cfg = tiering_cfg();
        let hist = Histogram::new(0, 1 << 20, 16);
        let now = 10_000;
        let mut levels = vec![Level::new(), Level::new()];
        // fresh data in level 0, expired windows spread over both levels
        levels[0].runs.push(Run::new(vec![table(1, 4, 9_950, 0, &backend)]));
        levels[0].runs.push(Run::new(vec![table(2, 4, 500, 0, &backend)]));
        levels[1].runs.push(Run::new(vec![table(3, 4, 400, 0, &backend)]));
        let mut p = DateTieredPolicy::new(100, 2, Some(5_000));
        let task = p.pick(&view(&levels, &cfg, &hist, now, false));
        assert_eq!(task, Some(CompactionTask::DropFiles { file_ids: vec![2, 3] }));
    }

    #[test]
    fn expired_files_with_tombstones_are_never_dropped() {
        let backend = FileBackend::in_memory().unwrap();
        let cfg = tiering_cfg();
        let hist = Histogram::new(0, 1 << 20, 16);
        let mut levels = vec![Level::new()];
        levels[0].runs.push(Run::new(vec![table(1, 4, 500, 2, &backend)]));
        let mut p = DateTieredPolicy::new(100, 2, Some(1_000));
        // the file is far past the TTL but carries tombstones → no drop,
        // and a single run is below fan-in → no merge either
        assert!(p.pick(&view(&levels, &cfg, &hist, 100_000, false)).is_none());
    }

    #[test]
    fn ttl_boundary_is_respected() {
        let backend = FileBackend::in_memory().unwrap();
        let cfg = tiering_cfg();
        let hist = Histogram::new(0, 1 << 20, 16);
        let mut levels = vec![Level::new()];
        levels[0].runs.push(Run::new(vec![table(1, 4, 950, 0, &backend)]));
        let p = DateTieredPolicy::new(100, 2, Some(5_000));
        // base window [900, 1000) ends at 1000; expired only once
        // now − ttl ≥ 1000
        assert!(p.expired_file_ids(&view(&levels, &cfg, &hist, 5_999, false)).is_empty());
        assert_eq!(p.expired_file_ids(&view(&levels, &cfg, &hist, 6_000, false)), vec![1]);
    }

    #[test]
    fn gated_view_reorders_but_still_surfaces_the_drop() {
        let backend = FileBackend::in_memory().unwrap();
        let cfg = tiering_cfg();
        let hist = Histogram::new(0, 1 << 20, 16);
        let now = 10_000;
        let mut levels = vec![Level::new()];
        // two mergeable fresh runs + one expired file
        levels[0].runs.push(Run::new(vec![table(1, 4, 9_950, 0, &backend)]));
        levels[0].runs.push(Run::new(vec![table(2, 4, 9_960, 0, &backend)]));
        let mut p = DateTieredPolicy::new(100, 2, Some(5_000));
        let mut levels2 = levels.clone();
        levels2[0].runs.push(Run::new(vec![table(3, 4, 500, 0, &backend)]));
        // ungated: the drop wins
        assert!(matches!(
            p.pick(&view(&levels2, &cfg, &hist, now, false)),
            Some(CompactionTask::DropFiles { .. })
        ));
        // gated: merge work proceeds first so a held snapshot cannot starve
        // compaction...
        assert!(matches!(
            p.pick(&view(&levels2, &cfg, &hist, now, true)),
            Some(CompactionTask::MergeRuns { .. })
        ));
        // ...and with no merges left the drop is still proposed (the planner
        // refuses it and counts the delay)
        let mut only_expired = vec![Level::new()];
        only_expired[0].runs.push(Run::new(vec![table(3, 4, 500, 0, &backend)]));
        assert!(matches!(
            p.pick(&view(&only_expired, &cfg, &hist, now, true)),
            Some(CompactionTask::DropFiles { .. })
        ));
    }
}
