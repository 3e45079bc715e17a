//! # lethe-core
//!
//! The primary contribution of *Lethe: A Tunable Delete-Aware LSM Engine*
//! (SIGMOD 2020), built on top of the `lethe-lsm` substrate:
//!
//! * [`fade`] — the FADE delete-aware compaction policy: per-level TTLs
//!   derived from the delete persistence threshold `D_th` and the
//!   delete-driven (DD) trigger they fire, over `lethe-lsm`'s saturation
//!   policy with SD file selection.
//! * [`kiwi`] — planning and accounting helpers for the Key Weaving Storage
//!   Layout (full/partial page-drop prediction, metadata overhead, CPU-cost
//!   multipliers).
//! * [`engine`] — [`Lethe`], the engine that combines FADE and KiWi behind a
//!   single API with the two tuning knobs `D_th` and `h`.
//! * [`snapshot`] — [`Snapshot`], the point-in-time handle both stores
//!   hand out: captured views plus a pinned seqnum fence.
//! * [`compactor`] — the per-shard background maintenance worker that
//!   drains flushes and FADE compactions off the foreground write path.
//! * [`baseline`] — the state-of-the-art engines the paper compares against.
//! * [`tuning`] — the navigable-design equations (1)–(3) that pick the
//!   optimal delete-tile granularity for a workload.
//! * [`model`] — the closed-form cost model of Table 2.
//!
//! ## Quick start
//!
//! ```
//! use lethe_core::{Lethe, LetheBuilder};
//!
//! let mut db = LetheBuilder::new()
//!     .buffer(8, 4, 64)
//!     .size_ratio(4)
//!     .delete_persistence_threshold_secs(60.0)
//!     .delete_tile_pages(4)
//!     .build()
//!     .unwrap();
//!
//! db.put(1, 20200614, "hello").unwrap();
//! assert_eq!(db.get(1).unwrap().unwrap(), &b"hello"[..]);
//! db.delete(1).unwrap();
//! assert_eq!(db.get(1).unwrap(), None);
//!
//! // secondary range delete: purge everything with delete key < 20200101
//! db.delete_where_delete_key_in(0, 20200101).unwrap();
//! ```

#![deny(missing_docs)]

pub mod baseline;
pub mod compactor;
pub mod engine;
pub mod fade;
pub mod kiwi;
pub mod model;
pub mod shard;
pub mod snapshot;
pub mod tuning;

pub use baseline::BaselineKind;
pub use compactor::Compactor;
pub use engine::{Lethe, LetheBuilder};
pub use shard::{BackpressureStats, ShardedLethe, ShardedLetheBuilder};
pub use snapshot::Snapshot;
pub use fade::{level_ttls, FadePolicy};
pub use kiwi::{
    hash_cost_multiplier, metadata_overhead_bytes, plan_secondary_delete, DropPlan,
};
pub use model::{table2, Design, MergeStyle, ModelParams, Table2Row};
pub use tuning::{
    best_delete_tile_pages_numeric, optimal_delete_tile_pages, workload_cost, TreeShape,
    WorkloadProfile,
};

// Re-export the substrate types a user of the public API touches directly.
pub use lethe_lsm::batch::WriteBatch;
pub use lethe_lsm::config::{CompactionStrategy, LsmConfig, MergePolicy, SecondaryDeleteMode};
pub use lethe_lsm::strategy::{DateTieredPolicy, SizeTieredPolicy};
pub use lethe_lsm::read::{RangeIter, ReadView};
pub use lethe_lsm::sstable::SecondaryDeleteStats;
pub use lethe_lsm::stats::{ContentSnapshot, TreeStats};
pub use lethe_storage::{
    CacheSnapshot, CostModel, DeleteKey, Entry, EntryKind, IoSnapshot, LogicalClock, PageCache,
    SortKey, Timestamp,
};
