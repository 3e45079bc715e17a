//! Levels and runs.
//!
//! A *run* is a collection of files with non-overlapping sort-key ranges that
//! together form one sorted sequence. A *level* holds one run under leveling
//! and up to `T` runs under tiering (newest run first). Level 0 is the
//! in-memory buffer and is not represented here; `levels[0]` is the first
//! disk level (Level 1 of the paper).

use crate::sstable::SsTable;
use lethe_storage::SortKey;
use std::sync::Arc;

/// A sorted run: non-overlapping files ordered by their minimum sort key.
#[derive(Debug, Clone, Default)]
pub struct Run {
    tables: Vec<Arc<SsTable>>,
}

impl Run {
    /// Builds a run from files, sorting them by minimum sort key.
    pub fn new(mut tables: Vec<Arc<SsTable>>) -> Self {
        tables.sort_by_key(|t| t.meta.min_sort);
        Run { tables }
    }

    /// The files of the run in key order.
    pub fn tables(&self) -> &[Arc<SsTable>] {
        &self.tables
    }

    /// Number of files in the run.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True if the run holds no files.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Total data bytes across the run's files.
    pub fn total_bytes(&self) -> u64 {
        self.tables.iter().map(|t| t.meta.data_bytes).sum()
    }

    /// Total entries across the run's files.
    pub fn total_entries(&self) -> u64 {
        self.tables.iter().map(|t| t.meta.num_entries).sum()
    }

    /// Every file whose key range overlaps `[lo, hi)`.
    pub fn overlapping_range(&self, lo: SortKey, hi: SortKey) -> Vec<Arc<SsTable>> {
        self.tables.iter().filter(|t| t.overlaps_sort_range(lo, hi)).cloned().collect()
    }

    /// Looks up a file by id.
    pub fn find_by_id(&self, id: u64) -> Option<&Arc<SsTable>> {
        self.tables.iter().find(|t| t.meta.id == id)
    }

    /// Removes (and returns) the files whose ids are in `ids`.
    pub fn remove_ids(&mut self, ids: &[u64]) -> Vec<Arc<SsTable>> {
        let mut removed = Vec::new();
        self.tables.retain(|t| {
            if ids.contains(&t.meta.id) {
                removed.push(Arc::clone(t));
                false
            } else {
                true
            }
        });
        removed
    }

    /// Adds files to the run, keeping key order.
    pub fn add_tables(&mut self, new_tables: Vec<Arc<SsTable>>) {
        self.tables.extend(new_tables);
        self.tables.sort_by_key(|t| t.meta.min_sort);
    }

    /// Replaces a file in place by id (used after secondary range deletes).
    /// Returns `true` if the id was present.
    pub fn replace(&mut self, id: u64, replacement: Option<Arc<SsTable>>) -> bool {
        if let Some(pos) = self.tables.iter().position(|t| t.meta.id == id) {
            match replacement {
                Some(t) => self.tables[pos] = t,
                None => {
                    self.tables.remove(pos);
                }
            }
            true
        } else {
            false
        }
    }
}

/// One disk level of the tree.
#[derive(Debug, Clone, Default)]
pub struct Level {
    /// Runs of the level, newest first. Leveling keeps at most one.
    pub runs: Vec<Run>,
}

impl Level {
    /// Creates an empty level.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total data bytes in the level.
    pub fn total_bytes(&self) -> u64 {
        self.runs.iter().map(|r| r.total_bytes()).sum()
    }

    /// Total entries in the level.
    pub fn total_entries(&self) -> u64 {
        self.runs.iter().map(|r| r.total_entries()).sum()
    }

    /// Number of files in the level.
    pub fn file_count(&self) -> usize {
        self.runs.iter().map(|r| r.len()).sum()
    }

    /// Number of runs in the level.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// True if the level holds no data.
    pub fn is_empty(&self) -> bool {
        self.runs.iter().all(|r| r.is_empty())
    }

    /// Iterates over every file of the level, newest run first.
    pub fn all_tables(&self) -> impl Iterator<Item = &Arc<SsTable>> {
        self.runs.iter().flat_map(|r| r.tables().iter())
    }

    /// Total number of tombstones stored in the level.
    pub fn tombstone_count(&self) -> u64 {
        self.all_tables().map(|t| t.tombstone_count()).sum()
    }

    /// Drops empty runs.
    pub fn prune_empty_runs(&mut self) {
        self.runs.retain(|r| !r.is_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LsmConfig;
    use bytes::Bytes;
    use lethe_storage::{Entry, InMemoryBackend};

    fn table(id: u64, lo: u64, hi: u64, backend: &InMemoryBackend) -> Arc<SsTable> {
        let cfg = LsmConfig::small_for_test();
        let entries: Vec<Entry> =
            (lo..hi).map(|k| Entry::put(k, k, k + 1, Bytes::from_static(b"v"))).collect();
        Arc::new(SsTable::build(id, entries, vec![], 0, None, &cfg, backend).unwrap())
    }

    #[test]
    fn run_orders_and_finds_files() {
        let backend = InMemoryBackend::new();
        let run = Run::new(vec![table(2, 100, 200, &backend), table(1, 0, 100, &backend)]);
        assert_eq!(run.len(), 2);
        assert_eq!(run.tables()[0].meta.id, 1);
        assert!(run.find_by_id(2).is_some());
        assert!(run.find_by_id(9).is_none());
        assert_eq!(run.total_entries(), 200);
        assert!(run.total_bytes() > 0);
    }

    #[test]
    fn run_overlap_queries() {
        let backend = InMemoryBackend::new();
        let run = Run::new(vec![table(1, 0, 100, &backend), table(2, 100, 200, &backend)]);
        assert_eq!(run.overlapping_range(50, 150).len(), 2);
        assert_eq!(run.overlapping_range(0, 50).len(), 1);
        assert_eq!(run.overlapping_range(300, 400).len(), 0);
    }

    #[test]
    fn run_remove_add_replace() {
        let backend = InMemoryBackend::new();
        let mut run = Run::new(vec![table(1, 0, 100, &backend), table(2, 100, 200, &backend)]);
        let removed = run.remove_ids(&[1]);
        assert_eq!(removed.len(), 1);
        assert_eq!(run.len(), 1);
        run.add_tables(vec![table(3, 200, 300, &backend)]);
        assert_eq!(run.len(), 2);
        assert!(run.replace(2, None));
        assert_eq!(run.len(), 1);
        assert!(!run.replace(99, None));
        let t = table(4, 300, 400, &backend);
        assert!(run.replace(3, Some(t)));
        assert_eq!(run.tables()[0].meta.id, 4);
    }

    #[test]
    fn level_aggregates() {
        let backend = InMemoryBackend::new();
        let mut level = Level::new();
        assert!(level.is_empty());
        level.runs.push(Run::new(vec![table(1, 0, 100, &backend)]));
        level.runs.push(Run::new(vec![table(2, 0, 50, &backend), table(3, 50, 100, &backend)]));
        assert_eq!(level.run_count(), 2);
        assert_eq!(level.file_count(), 3);
        assert_eq!(level.total_entries(), 200);
        assert_eq!(level.all_tables().count(), 3);
        assert_eq!(level.tombstone_count(), 0);
        level.runs.push(Run::default());
        level.prune_empty_runs();
        assert_eq!(level.run_count(), 2);
    }
}
