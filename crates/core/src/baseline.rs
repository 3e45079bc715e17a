//! The state-of-the-art baselines the paper compares Lethe against (§5).
//!
//! [`BaselineKind::build`] returns a [`Lethe`] handle over an
//! [`LsmTree`](lethe_lsm::tree::LsmTree) with the classic sort-key-only
//! layout (`h = 1`), full-tree compactions for secondary range deletes, and
//! one of three compaction policies:
//!
//! * [`BaselineKind::RocksDbLike`] — saturation trigger + min-overlap file
//!   selection ("RocksDB" in the figures).
//! * [`BaselineKind::TombstoneSelection`] — RocksDB's tombstone-count-based
//!   file picking (§3.1.3): it reduces stale entries but gives no persistence
//!   guarantee.
//! * [`BaselineKind::PeriodicFullCompaction`] — the industry workaround: a
//!   forced full-tree compaction every `period` of logical time ("state of
//!   the art + full compaction" in Figure 1).

use crate::engine::{Lethe, LetheBuilder};
use lethe_lsm::compaction::{
    CompactionPolicy, FileSelection, PeriodicFullCompactionPolicy, SaturationPolicy,
};
use lethe_lsm::config::{LsmConfig, SecondaryDeleteMode};
use lethe_storage::{LogicalClock, MemVfs, Result, Timestamp};
use std::path::Path;

/// Which baseline engine to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// Saturation-driven compactions with min-overlap file selection.
    RocksDbLike,
    /// Saturation-driven compactions picking the file with the most
    /// tombstones.
    TombstoneSelection,
    /// `RocksDbLike` plus a forced full-tree compaction every `period`
    /// microseconds of logical time.
    PeriodicFullCompaction {
        /// Full-compaction period in logical microseconds.
        period: Timestamp,
    },
}

impl BaselineKind {
    fn policy(&self) -> Box<dyn CompactionPolicy> {
        match self {
            BaselineKind::RocksDbLike => {
                Box::new(SaturationPolicy::new(FileSelection::MinOverlap))
            }
            BaselineKind::TombstoneSelection => {
                Box::new(SaturationPolicy::new(FileSelection::MostTombstones))
            }
            BaselineKind::PeriodicFullCompaction { period } => {
                Box::new(PeriodicFullCompactionPolicy::new(FileSelection::MinOverlap, *period))
            }
        }
    }

    /// Human-readable label used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            BaselineKind::RocksDbLike => "rocksdb-like",
            BaselineKind::TombstoneSelection => "rocksdb-tombstone-selection",
            BaselineKind::PeriodicFullCompaction { .. } => "rocksdb+periodic-full",
        }
    }

    /// Builds this baseline in memory, through the same assembly and behind
    /// the same [`Lethe`] handle as the delete-aware engine's
    /// [`LetheBuilder::build`], so experiments drive both uniformly. The
    /// classic layout is forced on top of `config`: `h = 1`, full-tree
    /// secondary deletes, no blind-delete suppression and no delete
    /// persistence threshold.
    pub fn build(&self, mut config: LsmConfig) -> Result<Lethe> {
        config.pages_per_delete_tile = 1;
        config.secondary_delete_mode = SecondaryDeleteMode::FullTreeCompaction;
        config.suppress_blind_deletes = false;
        config.delete_persistence_threshold = None;
        let mut builder = LetheBuilder::new();
        builder.config = config;
        let (vfs, clock) = (MemVfs::shared(), LogicalClock::new());
        builder.open_on(Some(self.policy()), &vfs, Path::new("/"), "lethe", clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn small() -> LsmConfig {
        LsmConfig::small_for_test()
    }

    #[test]
    fn baseline_config_is_classic() {
        let kind = BaselineKind::RocksDbLike;
        let b = kind
            .build({
                let mut c = small();
                c.pages_per_delete_tile = 8; // must be overridden back to 1
                c.suppress_blind_deletes = true;
                c
            })
            .unwrap();
        assert_eq!(b.tree().config().pages_per_delete_tile, 1);
        assert_eq!(
            b.tree().config().secondary_delete_mode,
            SecondaryDeleteMode::FullTreeCompaction
        );
        assert!(!b.tree().config().suppress_blind_deletes);
        assert_eq!(kind.label(), "rocksdb-like");
    }

    #[test]
    fn all_baselines_answer_queries_identically() {
        let kinds = [
            BaselineKind::RocksDbLike,
            BaselineKind::TombstoneSelection,
            BaselineKind::PeriodicFullCompaction { period: 500_000 },
        ];
        for kind in kinds {
            let mut b = kind.build(small()).unwrap();
            for k in 0..800u64 {
                b.put(k, k % 100, format!("v{k}")).unwrap();
            }
            for k in (0..800u64).step_by(4) {
                b.delete(k).unwrap();
            }
            b.delete_range(500, 600).unwrap();
            b.persist().unwrap();
            assert_eq!(b.get(0).unwrap(), None, "{kind:?}");
            assert_eq!(b.get(1).unwrap(), Some(Bytes::from("v1")), "{kind:?}");
            assert_eq!(b.get(550).unwrap(), None, "{kind:?}");
            let live = b.range(0, 800).unwrap();
            // 800 keys − 200 point-deleted − (100 range-deleted − 25 overlap)
            assert_eq!(live.len(), 525, "{kind:?}");
        }
    }

    #[test]
    fn periodic_full_compaction_persists_deletes() {
        let mut b =
            BaselineKind::PeriodicFullCompaction { period: 100_000 }.build(small()).unwrap();
        for k in 0..500u64 {
            b.put(k, k, format!("v{k}")).unwrap();
        }
        for k in 0..100u64 {
            b.delete(k).unwrap();
        }
        // ingest enough to move logical time past several periods
        for k in 1000..3000u64 {
            b.put(k, k, format!("v{k}")).unwrap();
        }
        b.persist().unwrap();
        assert!(b.tree().stats().full_tree_compactions > 0);
        let snap = b.tree().snapshot_contents().unwrap();
        assert_eq!(snap.tombstones, 0, "full compactions must purge tombstones");
    }

    #[test]
    fn secondary_delete_runs_full_tree_compaction() {
        let mut b = BaselineKind::RocksDbLike.build(small()).unwrap();
        for k in 0..600u64 {
            b.put(k, (k * 13) % 1000, format!("v{k}")).unwrap();
        }
        b.persist().unwrap();
        let before = b.tree().stats().full_tree_compactions;
        let stats = b.delete_where_delete_key_in(0, 500).unwrap();
        assert_eq!(b.tree().stats().full_tree_compactions, before + 1);
        assert!(stats.entries_deleted > 100);
        for k in 0..600u64 {
            let gone = (k * 13) % 1000 < 500;
            assert_eq!(b.get(k).unwrap().is_none(), gone, "key {k}");
        }
    }
}
