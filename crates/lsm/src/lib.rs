//! # lethe-lsm
//!
//! A complete LSM-tree storage engine substrate for the Lethe reproduction
//! (*Lethe: A Tunable Delete-Aware LSM Engine*, SIGMOD 2020).
//!
//! The crate provides the tree itself and the state-of-the-art baselines the
//! paper compares against:
//!
//! * [`config`] — every knob of the paper's Table 1 (size ratio `T`, buffer
//!   geometry, Bloom bits, leveling/tiering, delete-tile granularity `h`,
//!   delete persistence threshold `D_th`).
//! * [`sstable`] — immutable sorted files laid out as delete tiles (the Key
//!   Weaving Storage Layout; `h = 1` is the classic layout).
//! * [`level`] — runs and levels.
//! * [`cursor`] — streaming entry cursors (lazy per-tile file readers) and
//!   the binary-heap k-way [`cursor::MergeIterator`] every scan, flush and
//!   compaction is built on.
//! * [`compaction`] — the [`compaction::CompactionPolicy`] trait plus the
//!   baseline policies (saturation + min-overlap, saturation + most
//!   tombstones, periodic full-tree compaction).
//! * [`batch`] — [`batch::WriteBatch`], the atomic multi-op unit the
//!   write path logs as a single WAL frame.
//! * [`tree`] — [`tree::LsmTree`]: construction, manifest recovery, the
//!   version-commit tail and introspection.
//! * [`mod@write`] — the one write path: puts, deletes, range deletes, secondary
//!   range deletes, batches and WAL replay are each stage → commit → apply
//!   over one op list.
//! * [`jobs`] — [`jobs::JobPlan`], the one shape of every flush and
//!   compaction, and the plan/execute/apply cycle the inline paths and a
//!   background worker drive.
//! * [`read`] — [`read::ReadView`], the one read path: point lookups, range
//!   scans, delete-key scans, the checkpoint stream and the content audit,
//!   served lock-free over the tree's live state or, in the same shape,
//!   over an MVCC capture of it.
//! * [`version`] — immutable, `Arc`-shared version sets: snapshot-isolated
//!   reads and deferred page reclamation.
//! * [`reclaim`] — the page-retirement choke point every engine-path
//!   `drop_page` and `write_page` funnel through (a `clippy.toml` ban).
//! * [`snapshot`] — the live-snapshot tracker: the seqnum fence a live
//!   pin holds gates tombstone GC.
//! * [`stats`] — space/write amplification and tombstone-age accounting.
//! * [`strategy`] — pluggable compaction strategies: size-tiered run
//!   bucketing and date-tiered time windows whose wholly-expired windows are
//!   retired as whole files without reading a page.
//!
//! The delete-aware pieces of the paper (the FADE compaction policy and the
//! Lethe engine wrapper) live in the `lethe-core` crate and plug into this
//! substrate through [`compaction::CompactionPolicy`] and [`config::LsmConfig`].

#![deny(missing_docs)]
// non-test code returns errors instead of panicking (`clippy.toml` exempts
// tests); a proven-impossible case carries a reasoned `#[expect]`
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod batch;
pub mod compaction;
pub mod config;
pub mod cursor;
pub mod jobs;
pub mod level;
pub mod read;
pub mod reclaim;
pub mod snapshot;
pub mod sstable;
pub mod stats;
pub mod strategy;
pub mod tree;
pub mod version;
pub mod write;

pub use batch::WriteBatch;
pub use compaction::{
    CompactionPolicy, CompactionTask, FileSelection, PeriodicFullCompactionPolicy,
    SaturationPolicy, TreeView,
};
pub use cursor::{EntryCursor, MergeIterator, SsTableCursor, VecCursor};
pub use config::{CompactionStrategy, LsmConfig, MergePolicy, SecondaryDeleteMode};
pub use level::{Level, Run};
pub use read::{RangeIter, ReadView};
pub use snapshot::{SnapshotPin, SnapshotTracker};
pub use sstable::{DeleteTile, PageHandle, SecondaryDeleteStats, SsTable, SsTableMeta};
pub use stats::{ContentSnapshot, TreeStats};
pub use strategy::{DateTieredPolicy, SizeTieredPolicy};
pub use jobs::{BuildCtx, JobOutput, JobPlan};
pub use tree::{LsmTree, MaintenanceMode, RecoveryReport};
pub use version::{Version, VersionSet};
