//! Compaction policies.
//!
//! A policy answers two questions after every flush (paper §4.1.4): *should a
//! compaction run now* (the trigger), and *which file should it compact* (the
//! file selection). The engine calls [`CompactionPolicy::pick`] in a loop
//! until it returns `None`.
//!
//! [`SaturationPolicy`] is the saturation trigger: compact only when a level
//! exceeds its capacity. Its [`FileSelection`] is one of
//!
//! * [`FileSelection::MinOverlap`] — the file with the least overlap with
//!   the next level (write-amplification optimised; the paper's "SO" mode
//!   and the default of production engines);
//! * [`FileSelection::MostTombstones`] — RocksDB's tombstone-count-based
//!   file selection (§3.1.3);
//! * [`FileSelection::MostInvalidations`] — the file with the highest
//!   estimated invalidation count `b` (the paper's space-optimised "SD"
//!   mode, Lethe's choice).
//!
//! Two more triggers wrap a `SaturationPolicy` and hand it every pick they
//! do not claim:
//!
//! * [`PeriodicFullCompactionPolicy`] — the industry workaround for delete
//!   persistence: force a full-tree compaction every `period` time units;
//! * the paper's FADE policy, in the `lethe-core` crate — a per-level TTL
//!   trigger that compacts the expired files themselves (the paper's
//!   delete-driven "DD" mode) over a `MostInvalidations` saturation policy.
//!
//! The size-tiered and date-tiered strategies live in [`crate::strategy`].
//!
//! Policies only *choose* work. Executing a chosen job
//! ([`crate::jobs::JobPlan::execute`]) streams the input files through the
//! lazy cursors and heap merge of [`crate::cursor`], so even a policy that
//! picks an arbitrarily large merge (e.g. a forced full-tree compaction)
//! runs in memory bounded by output-file and delete-tile granularity, never
//! by total input size.

use crate::config::{LsmConfig, MergePolicy};
use crate::level::Level;
use crate::sstable::{PageHandle, SsTable};
use lethe_storage::{SortKey, Timestamp};
use std::sync::Arc;

/// A read-only view of the tree handed to compaction policies. It keeps no
/// statistics of its own: FADE's `b` is read off the levels' page fences
/// ([`TreeView::estimated_invalidation_count`]).
pub struct TreeView<'a> {
    /// Disk levels (index 0 = the first disk level, "Level 1" in the paper).
    pub levels: &'a [Level],
    /// Capacity in bytes of each disk level.
    pub capacities: Vec<u64>,
    /// Current logical time.
    pub now: Timestamp,
    /// Engine configuration.
    pub config: &'a LsmConfig,
    /// True while a live snapshot gates tombstone GC (see
    /// `lethe_lsm::snapshot`): a compaction planned now must retain its
    /// tombstones, so delete-persistence-driven (TTL) triggers should be
    /// deferred — a gated TTL rewrite would make no progress and be re-picked
    /// forever. Saturation-driven work proceeds normally.
    pub tombstone_gc_gated: bool,
}

impl<'a> TreeView<'a> {
    /// The view of `levels` the tree's planner hands its policy: each level's
    /// capacity is `config`'s for it.
    pub(crate) fn new(
        levels: &'a [Level],
        config: &'a LsmConfig,
        now: Timestamp,
        tombstone_gc_gated: bool,
    ) -> Self {
        let capacities = (1..=levels.len()).map(|i| config.level_capacity_bytes(i)).collect();
        TreeView { levels, capacities, now, config, tombstone_gc_gated }
    }

    /// Index of the deepest level that currently holds data, if any.
    pub fn deepest_nonempty_level(&self) -> Option<usize> {
        (0..self.levels.len()).rev().find(|&i| !self.levels[i].is_empty())
    }

    /// True if `level` holds more bytes than its capacity.
    pub fn is_saturated(&self, level: usize) -> bool {
        match self.config.merge_policy {
            MergePolicy::Leveling => {
                self.levels[level].total_bytes() > self.capacities[level]
            }
            // under tiering a level is "full" once it has accumulated T runs
            MergePolicy::Tiering => self.levels[level].run_count() >= self.config.size_ratio,
        }
    }

    /// FADE's `b` for `table`, a file of `level` (paper §4.1.3): how many
    /// older entries its tombstones invalidate. Each point tombstone counts
    /// one. A range tombstone `[s, e)` counts the entries of the deeper
    /// levels' pages whose sort-key fences overlap it, an edge page
    /// prorated by the share of its `[min_sort, max_sort]` span inside the
    /// range. The fences are the tree's own, so the estimate counts only
    /// entries that exist: it forgets what compaction removed and reads
    /// the same after a reopen, which rebuilds them.
    pub fn estimated_invalidation_count(&self, level: usize, table: &SsTable) -> f64 {
        let mut b = table.meta.num_point_tombstones as f64;
        for rt in &table.range_tombstones {
            if let Some(end) = rt.range_end() {
                b += self.entries_below(level, rt.sort_key, end);
            }
        }
        b
    }

    /// Estimated entries with a sort key in `[lo, hi)` in the levels below
    /// `level`: per run, a binary search for the first overlapping file,
    /// then the tile fences of each overlapping file, then every page of
    /// each overlapping tile (a tile's pages are in delete-key order, so
    /// any of them may overlap).
    fn entries_below(&self, level: usize, lo: SortKey, hi: SortKey) -> f64 {
        let older = self.levels.get(level + 1..).unwrap_or_default();
        let mut n = 0.0;
        for run in older.iter().flat_map(|l| &l.runs) {
            let tables = run.tables();
            // a run's files are disjoint, so their maxima ascend with their minima
            let first = tables.partition_point(|t| t.meta.max_sort < lo);
            for table in tables[first..].iter().take_while(|t| t.meta.min_sort < hi) {
                let Some((a, z)) = table.tile_fences.locate_range(lo, hi) else { continue };
                for page in table.tiles[a..=z].iter().flat_map(|tile| &tile.pages) {
                    n += page_entries_in(page, lo, hi);
                }
            }
        }
        n
    }

    /// Total bytes of next-level files overlapping `table`'s key range
    /// (the merge cost proxy used by overlap-driven selection).
    pub fn overlap_bytes(&self, level: usize, table: &SsTable) -> u64 {
        if level + 1 >= self.levels.len() {
            return 0;
        }
        self.levels[level + 1]
            .all_tables()
            .filter(|t| t.overlaps_table(table))
            .map(|t| t.meta.data_bytes)
            .sum()
    }
}

/// `page`'s entries estimated to lie in `[lo, hi)`: all of them when its
/// fences lie inside the range, else the share of its `[min_sort, max_sort]`
/// span the range covers.
fn page_entries_in(page: &PageHandle, lo: SortKey, hi: SortKey) -> f64 {
    let (min, end) = (u128::from(page.min_sort), u128::from(page.max_sort) + 1);
    let (from, to) = (min.max(lo.into()), end.min(hi.into()));
    if to <= from {
        return 0.0;
    }
    page.num_entries as f64 * ((to - from) as f64 / (end - min) as f64)
}

/// A unit of compaction work chosen by a policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompactionTask {
    /// Merge files of `level` into `level + 1` in a single job (leveling): one
    /// file for a saturation-driven partial compaction, every TTL-expired
    /// file of the level for FADE's delete-driven trigger (paper Figure 4:
    /// "all files with expired TTL are compacted").
    LeveledMulti {
        /// Source level index.
        level: usize,
        /// Ids of the files to move down together.
        file_ids: Vec<u64>,
        /// The trigger was an expired file TTL, not saturation (counted in
        /// `TreeStats::ttl_triggered_compactions`).
        ttl_expired: bool,
    },
    /// Merge every run of `level` into a single run placed in `level + 1`
    /// (tiering).
    TieredLevel {
        /// Source level index.
        level: usize,
        /// As for [`CompactionTask::LeveledMulti`].
        ttl_expired: bool,
    },
    /// Merge a *subset* of `level`'s runs — identified by the ids of every
    /// file they contain — into one run that **replaces them in place**. The
    /// tiered strategies (see [`crate::strategy`]) use this to merge exactly
    /// one size class or one time window without touching the level's other
    /// runs. The planner only accepts whole runs that are **contiguous** in
    /// the level's run list: the merged run takes the segment's position, so
    /// the global recency order of runs (shallower level first, then newer
    /// run first) is preserved and reads stay correct.
    MergeRuns {
        /// Source level index.
        level: usize,
        /// Ids of every file of the runs to merge (whole adjacent runs only).
        file_ids: Vec<u64>,
    },
    /// Retire whole files without reading them: the files vanish from every
    /// level in one atomic version install, their manifest entries are
    /// removed, and their pages are reclaimed — zero pages read or written.
    /// This is how a date-tiered TTL expiry drops a wholly-expired time
    /// window. The planner routes the task through the snapshot gate: while
    /// a live snapshot pins history the drop is deferred (counted in
    /// `TreeStats::tombstone_gc_delayed`) and the expired files stay
    /// readable.
    DropFiles {
        /// Ids of the files to retire, across all levels.
        file_ids: Vec<u64>,
    },
    /// Read, merge and rewrite the entire tree into its last level.
    FullTree,
}

/// A compaction trigger + file selection strategy. A policy sees only the
/// [`TreeView`] it is handed, so anything it derives from the tree (FADE's
/// per-level TTLs, for one) it derives inside `pick`.
pub trait CompactionPolicy: Send {
    /// Returns the next compaction to perform, or `None` if the tree needs no
    /// work right now. Called repeatedly until it returns `None`.
    fn pick(&mut self, view: &TreeView<'_>) -> Option<CompactionTask>;
}

/// How saturation-driven policies choose the file to compact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileSelection {
    /// The file with the smallest byte-overlap with the next level
    /// (minimises write amplification; ties broken by most tombstones).
    MinOverlap,
    /// The file containing the most tombstones (RocksDB's delete-triggered
    /// selection; ties broken by smallest overlap).
    MostTombstones,
    /// The file with the highest estimated invalidation count `b`
    /// ([`TreeView::estimated_invalidation_count`]; ties broken by oldest
    /// tombstone, then most tombstones). When no file of the level
    /// invalidates anything this is exactly [`FileSelection::MinOverlap`].
    MostInvalidations,
}

/// The classic saturation-driven compaction policy used by state-of-the-art
/// engines: compact only when a level exceeds its size threshold.
#[derive(Debug, Clone)]
pub struct SaturationPolicy {
    selection: FileSelection,
}

impl SaturationPolicy {
    /// Creates a saturation-driven policy with the given file selection.
    pub fn new(selection: FileSelection) -> Self {
        SaturationPolicy { selection }
    }

    /// Picks a file from `level` according to the configured selection.
    fn select_file(&self, view: &TreeView<'_>, level: usize) -> Option<u64> {
        let tables: Vec<&Arc<SsTable>> = view.levels[level].all_tables().collect();
        if tables.is_empty() {
            return None;
        }
        let now = view.now;
        // each file's `b`, computed once per pick
        let invalidations: Vec<f64> = match self.selection {
            FileSelection::MostInvalidations => {
                tables.iter().map(|t| view.estimated_invalidation_count(level, t)).collect()
            }
            _ => Vec::new(),
        };
        // With nothing invalidated anywhere in the level there is nothing for
        // the delete-driven goal to optimise: fall back to the write-optimised
        // smallest-overlap choice so that, absent deletes, Lethe behaves
        // exactly like the state of the art (paper §5.1).
        let selection = if self.selection == FileSelection::MostInvalidations
            && invalidations.iter().all(|&b| b == 0.0)
        {
            FileSelection::MinOverlap
        } else {
            self.selection
        };
        let chosen = match selection {
            FileSelection::MinOverlap => tables.iter().min_by(|a, b| {
                view.overlap_bytes(level, a)
                    .cmp(&view.overlap_bytes(level, b))
                    .then_with(|| b.tombstone_count().cmp(&a.tombstone_count()))
            }),
            FileSelection::MostTombstones => tables.iter().max_by(|a, b| {
                a.tombstone_count()
                    .cmp(&b.tombstone_count())
                    .then_with(|| view.overlap_bytes(level, b).cmp(&view.overlap_bytes(level, a)))
            }),
            FileSelection::MostInvalidations => tables
                .iter()
                .zip(&invalidations)
                .max_by(|(a, ba), (b, bb)| {
                    ba.partial_cmp(bb)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| a.tombstone_age(now).cmp(&b.tombstone_age(now)))
                        .then_with(|| a.tombstone_count().cmp(&b.tombstone_count()))
                })
                .map(|(t, _)| t),
        };
        chosen.map(|t| t.meta.id)
    }
}

impl CompactionPolicy for SaturationPolicy {
    fn pick(&mut self, view: &TreeView<'_>) -> Option<CompactionTask> {
        // smallest saturated level first (ties among levels go to the
        // smallest level to avoid write stalls, paper §4.1.4)
        for level in 0..view.levels.len() {
            if view.levels[level].is_empty() || !view.is_saturated(level) {
                continue;
            }
            return match view.config.merge_policy {
                MergePolicy::Leveling => self.select_file(view, level).map(|file_id| {
                    CompactionTask::LeveledMulti { level, file_ids: vec![file_id], ttl_expired: false }
                }),
                MergePolicy::Tiering => {
                    Some(CompactionTask::TieredLevel { level, ttl_expired: false })
                }
            };
        }
        None
    }
}

/// The industry workaround the paper argues against: in addition to
/// saturation-driven compactions, force a full-tree compaction every
/// `period` microseconds of logical time so that deletes eventually persist.
#[derive(Debug, Clone)]
pub struct PeriodicFullCompactionPolicy {
    inner: SaturationPolicy,
    period: Timestamp,
    last_full: Timestamp,
}

impl PeriodicFullCompactionPolicy {
    /// Creates the policy with a full-compaction `period` (logical µs).
    pub fn new(selection: FileSelection, period: Timestamp) -> Self {
        PeriodicFullCompactionPolicy {
            inner: SaturationPolicy::new(selection),
            period: period.max(1),
            last_full: 0,
        }
    }
}

impl CompactionPolicy for PeriodicFullCompactionPolicy {
    fn pick(&mut self, view: &TreeView<'_>) -> Option<CompactionTask> {
        if view.now.saturating_sub(self.last_full) >= self.period
            && view.deepest_nonempty_level().is_some()
        {
            self.last_full = view.now;
            return Some(CompactionTask::FullTree);
        }
        self.inner.pick(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::Run;
    use crate::tree::LsmTree;
    use bytes::Bytes;
    use lethe_storage::{Entry, FileBackend, FileWal, LogicalClock, Manifest, MemVfs, Vfs};
    use std::path::Path;

    fn table(id: u64, lo: u64, hi: u64, tombstones: u64, backend: &FileBackend) -> Arc<SsTable> {
        tombstoned(id, lo, hi, tombstones, vec![], 10, backend)
    }

    /// Puts over `lo..hi`, `points` point tombstones right above them, the
    /// given range tombstones, and `oldest_ts` as the oldest tombstone's time.
    fn tombstoned(
        id: u64,
        lo: u64,
        hi: u64,
        points: u64,
        ranges: Vec<Entry>,
        oldest_ts: Timestamp,
        backend: &FileBackend,
    ) -> Arc<SsTable> {
        let cfg = LsmConfig::small_for_test();
        let mut entries: Vec<Entry> =
            (lo..hi).map(|k| Entry::put(k, k, k + 1, Bytes::from(vec![0u8; 32]))).collect();
        for i in 0..points {
            entries.push(Entry::point_tombstone(hi + i, 1000 + i));
        }
        entries.sort_by_key(|e| e.sort_key);
        let ts = (points > 0 || !ranges.is_empty()).then_some(oldest_ts);
        Arc::new(SsTable::build(id, entries, ranges, 0, ts, &cfg, backend).unwrap())
    }

    /// Level 0 over capacity (so it is the level a saturation policy
    /// compacts), level 1 as given.
    fn saturated<'a>(levels: &'a [Level], cfg: &'a LsmConfig, now: Timestamp) -> TreeView<'a> {
        TreeView { levels, capacities: vec![1, u64::MAX], now, config: cfg, tombstone_gc_gated: false }
    }

    fn pick_with(selection: FileSelection, view: &TreeView<'_>) -> Option<CompactionTask> {
        SaturationPolicy::new(selection).pick(view)
    }

    fn leveled(file_id: u64) -> Option<CompactionTask> {
        Some(CompactionTask::LeveledMulti { level: 0, file_ids: vec![file_id], ttl_expired: false })
    }

    #[test]
    fn no_compaction_when_under_capacity() {
        let backend = FileBackend::in_memory().unwrap();
        let cfg = LsmConfig::small_for_test();
        let mut levels = vec![Level::new()];
        levels[0].runs.push(Run::new(vec![table(1, 0, 4, 0, &backend)]));
        let view = TreeView::new(&levels, &cfg, 0, false);
        let mut policy = SaturationPolicy::new(FileSelection::MinOverlap);
        assert!(policy.pick(&view).is_none());
    }

    #[test]
    fn saturated_level_triggers_partial_compaction() {
        let backend = FileBackend::in_memory().unwrap();
        let cfg = LsmConfig::small_for_test();
        let mut levels = vec![Level::new(), Level::new()];
        levels[0].runs.push(Run::new(vec![
            table(1, 0, 100, 0, &backend),
            table(2, 100, 200, 5, &backend),
        ]));
        // next level holds a file overlapping file 1 only
        levels[1].runs.push(Run::new(vec![table(3, 0, 100, 0, &backend)]));
        let view = saturated(&levels, &cfg, 0);
        // min-overlap picks file 2 (no overlap below)
        let mut policy = SaturationPolicy::new(FileSelection::MinOverlap);
        assert_eq!(
            policy.pick(&view),
            Some(CompactionTask::LeveledMulti { level: 0, file_ids: vec![2], ttl_expired: false })
        );
        // most-tombstones also picks file 2 (it holds the tombstones)
        let mut policy = SaturationPolicy::new(FileSelection::MostTombstones);
        assert_eq!(
            policy.pick(&view),
            Some(CompactionTask::LeveledMulti { level: 0, file_ids: vec![2], ttl_expired: false })
        );
    }

    #[test]
    fn most_invalidations_picks_the_highest_estimated_b() {
        let backend = FileBackend::in_memory().unwrap();
        let cfg = LsmConfig::small_for_test();
        let mut levels = vec![Level::new(), Level::new()];
        levels[0].runs.push(Run::new(vec![
            // eight point tombstones: b = 8
            tombstoned(1, 0, 10, 8, vec![], 10, &backend),
            // one range tombstone over 300 older keys: b = 300
            tombstoned(2, 100, 110, 0, vec![Entry::range_tombstone(200, 500, 2000)], 10, &backend),
            tombstoned(3, 600, 610, 0, vec![], 10, &backend),
        ]));
        levels[1].runs.push(Run::new(vec![table(4, 0, 1000, 0, &backend)]));
        let view = saturated(&levels, &cfg, 100);
        assert_eq!(pick_with(FileSelection::MostInvalidations, &view), leveled(2));
        // counting tombstones instead picks the eight point tombstones
        assert_eq!(pick_with(FileSelection::MostTombstones, &view), leveled(1));
    }

    #[test]
    fn most_invalidations_breaks_ties_by_oldest_tombstone_then_most_tombstones() {
        let backend = FileBackend::in_memory().unwrap();
        let cfg = LsmConfig::small_for_test();
        // with nothing below level 0 a range tombstone invalidates nothing,
        // so each file's b is its point-tombstone count: 2 everywhere below
        let mut levels = vec![Level::new(), Level::new()];
        levels[0].runs.push(Run::new(vec![
            tombstoned(1, 0, 10, 2, vec![], 50, &backend),
            tombstoned(2, 100, 110, 2, vec![], 10, &backend), // oldest tombstone
            tombstoned(3, 200, 210, 2, vec![], 30, &backend),
        ]));
        let view = saturated(&levels, &cfg, 100);
        assert_eq!(pick_with(FileSelection::MostInvalidations, &view), leveled(2));

        // same b and same age: the file with the most tombstones
        levels[0].runs = vec![Run::new(vec![
            tombstoned(1, 0, 10, 2, vec![], 10, &backend),
            tombstoned(2, 100, 110, 2, vec![Entry::range_tombstone(120, 130, 2000)], 10, &backend),
            tombstoned(3, 200, 210, 2, vec![], 10, &backend),
        ])];
        let view = saturated(&levels, &cfg, 100);
        assert_eq!(pick_with(FileSelection::MostInvalidations, &view), leveled(2));
    }

    #[test]
    fn most_invalidations_without_invalidations_is_min_overlap() {
        let backend = FileBackend::in_memory().unwrap();
        let cfg = LsmConfig::small_for_test();
        let mut levels = vec![Level::new(), Level::new()];
        levels[0].runs.push(Run::new(vec![
            tombstoned(1, 0, 100, 0, vec![], 10, &backend),
            // a range tombstone over no older key (b = 0), but the older
            // tombstone: the SD comparator alone would pick file 2
            tombstoned(2, 200, 300, 0, vec![Entry::range_tombstone(300, 400, 2000)], 10, &backend),
        ]));
        levels[1].runs.push(Run::new(vec![table(3, 200, 300, 0, &backend)]));
        let view = saturated(&levels, &cfg, 100);
        let min_overlap = pick_with(FileSelection::MinOverlap, &view);
        assert_eq!(min_overlap, leveled(1));
        assert_eq!(pick_with(FileSelection::MostInvalidations, &view), min_overlap);
    }

    #[test]
    fn tiering_triggers_when_t_runs_accumulate() {
        let backend = FileBackend::in_memory().unwrap();
        let mut cfg = LsmConfig::small_for_test();
        cfg.merge_policy = MergePolicy::Tiering;
        cfg.size_ratio = 3;
        let mut levels = vec![Level::new()];
        for id in 0..3 {
            levels[0].runs.push(Run::new(vec![table(id, 0, 10, 0, &backend)]));
        }
        let view = TreeView::new(&levels, &cfg, 0, false);
        let mut policy = SaturationPolicy::new(FileSelection::MinOverlap);
        assert_eq!(
            policy.pick(&view),
            Some(CompactionTask::TieredLevel { level: 0, ttl_expired: false })
        );
    }

    #[test]
    fn periodic_policy_issues_full_compactions() {
        let backend = FileBackend::in_memory().unwrap();
        let cfg = LsmConfig::small_for_test();
        let mut levels = vec![Level::new()];
        levels[0].runs.push(Run::new(vec![table(1, 0, 10, 1, &backend)]));
        let mut policy = PeriodicFullCompactionPolicy::new(FileSelection::MinOverlap, 1000);
        let mut pick = |now| policy.pick(&TreeView::new(&levels, &cfg, now, false));
        // at t=1000 the period elapsed → full tree compaction
        assert_eq!(pick(1000), Some(CompactionTask::FullTree));
        // immediately afterwards nothing more to do
        assert!(pick(1001).is_none());
        // after another period elapses it fires again
        assert_eq!(pick(2100), Some(CompactionTask::FullTree));
    }

    #[test]
    fn estimated_invalidation_counts_points_and_ranges() {
        let backend = FileBackend::in_memory().unwrap();
        let cfg = LsmConfig::small_for_test();
        // the file's own puts 0..10 are not older than its tombstones
        let mut entries: Vec<Entry> =
            (0..10u64).map(|k| Entry::put(k, k, k + 1, Bytes::from_static(b"v"))).collect();
        entries.push(Entry::point_tombstone(3, 100));
        entries.sort_by_key(|e| e.sort_key);
        let ranges = vec![Entry::range_tombstone(0, 500, 101), Entry::range_tombstone(600, 602, 102)];
        let t = SsTable::build(9, entries, ranges, 0, Some(1), &cfg, &backend).unwrap();
        let mut levels = vec![Level::new(), Level::new()];
        levels[1].runs.push(Run::new(vec![table(1, 0, 1000, 0, &backend)]));
        let view = TreeView::new(&levels, &cfg, 0, false);
        // 1 point tombstone + the 500 older keys of [0, 500) + half of the
        // page [600, 603], prorated
        assert_eq!(view.estimated_invalidation_count(0, &t), 1.0 + 500.0 + 2.0);
        // from the deepest level nothing is older
        assert_eq!(view.estimated_invalidation_count(1, &t), 1.0);
    }

    /// Proposes its one task once.
    struct Once(Option<CompactionTask>);

    impl CompactionPolicy for Once {
        fn pick(&mut self, _: &TreeView<'_>) -> Option<CompactionTask> {
            self.0.take()
        }
    }

    /// The tree `lethe` in `/` on `vfs`, recovered, whose policy picks
    /// nothing until a test scripts it.
    fn open(vfs: &Arc<dyn Vfs>, config: LsmConfig) -> LsmTree {
        let (dir, target) = (Path::new("/"), config.segment_target_bytes());
        let mut t = LsmTree::new(
            config,
            Arc::new(FileBackend::open_on(vfs, dir, "lethe", target).unwrap()),
            Box::new(FileWal::open_on(vfs, &dir.join("lethe.wal")).unwrap()),
            Manifest::open_on(vfs, &dir.join("lethe.manifest")).unwrap(),
            LogicalClock::new(),
            Box::new(Once(None)),
        )
        .unwrap();
        t.recover().unwrap();
        t
    }

    /// Puts `keys` once each, then flushes.
    fn put_flushed(t: &mut LsmTree, keys: impl IntoIterator<Item = u64>) {
        for k in keys {
            t.put(k, k, Bytes::from(format!("value-{k:08}"))).unwrap();
        }
        t.flush().unwrap();
    }

    /// Moves level 0 down to level 1: a tiered merge of a level places its
    /// output one level down, even in a leveled tree that has room.
    fn descend(t: &mut LsmTree) {
        t.policy = Box::new(Once(Some(CompactionTask::TieredLevel { level: 0, ttl_expired: false })));
        t.maintain().unwrap();
        assert!(t.levels()[0].is_empty() && !t.levels()[1].is_empty());
    }

    /// FADE's `b` of level 0's one file, through the view the tree's
    /// planner hands its policy.
    fn b_of_level_0(t: &LsmTree) -> f64 {
        let levels = t.levels();
        let files: Vec<&Arc<SsTable>> = levels[0].all_tables().collect();
        assert_eq!(files.len(), 1, "level 0 holds the tombstone file");
        TreeView::new(&levels, t.config(), t.clock().now(), false)
            .estimated_invalidation_count(0, files[0])
    }

    /// A default-config tree counts every older entry a range tombstone
    /// covers: the estimate needs no knob sized to the key domain.
    #[test]
    fn a_default_config_tree_counts_the_older_entries_a_range_tombstone_covers() {
        let mut t = open(&MemVfs::shared(), LsmConfig::default());
        put_flushed(&mut t, 0..1000);
        descend(&mut t);
        t.delete_range(200, 600).unwrap();
        t.flush().unwrap();
        // [200, 600) starts and ends on page fences: 100 whole pages of 4
        assert_eq!(b_of_level_0(&t), 400.0);
    }

    /// 64 keys 2^14 apart.
    fn sparse_keys() -> impl Iterator<Item = u64> {
        (0..64).map(|k| k << 14)
    }

    /// Overwritten versions that compaction removed are not counted: `b`
    /// counts each live key once, however often it was written (counting
    /// every write would give 11 per key here).
    #[test]
    fn b_forgets_the_versions_compaction_removed() {
        let mut t = open(&MemVfs::shared(), LsmConfig::small_for_test());
        for _ in 0..=10 {
            put_flushed(&mut t, sparse_keys());
        }
        t.force_full_compaction().unwrap();
        descend(&mut t);
        t.delete_range(0, 64 << 14).unwrap();
        t.flush().unwrap();
        assert_eq!(b_of_level_0(&t), 64.0);
    }

    /// `b` reads the page fences recovery rebuilds, so a reopen keeps it.
    #[test]
    fn b_is_the_same_after_a_reopen() {
        let vfs = MemVfs::shared();
        let mut t = open(&vfs, LsmConfig::small_for_test());
        put_flushed(&mut t, sparse_keys());
        descend(&mut t);
        // the 32 keys of 8 whole pages
        t.delete_range(16 << 14, 48 << 14).unwrap();
        t.flush().unwrap();
        let before = b_of_level_0(&t);
        assert_eq!(before, 32.0);
        drop(t);
        assert_eq!(b_of_level_0(&open(&vfs, LsmConfig::small_for_test())), before);
    }
}
