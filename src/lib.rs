//! # lethe
//!
//! Umbrella crate for the Lethe reproduction (*Lethe: A Tunable Delete-Aware
//! LSM Engine*, SIGMOD 2020). It re-exports the public API of the workspace
//! crates so applications can depend on a single crate:
//!
//! * [`lethe_core`] (re-exported at the root) — the [`Lethe`] engine, the
//!   FADE compaction policy, KiWi planning helpers, the tuning equations and
//!   the Table 2 cost model, the state-of-the-art baseline engines
//!   ([`BaselineKind::build`]), and [`ShardedLethe`] — the concurrent,
//!   `Send + Sync` sharded front-end, configured by wrapping a
//!   [`LetheBuilder`] in a [`ShardedLetheBuilder`].
//! * [`lsm`] — the underlying LSM-tree substrate (for white-box access).
//! * [`storage`] — pages, Bloom filters, fence pointers, devices, WAL.
//! * [`workload`] — the deterministic workload generator used by the
//!   benchmark harness and the examples, plus the multi-threaded
//!   concurrent driver ([`workload::run_concurrent`]).
//!
//! Start with the repository-level docs: `README.md` (what Lethe is, the
//! two knobs, quick start) and `ARCHITECTURE.md` (the layer stack, the
//! FADE/KiWi split, and where the sharded front-end sits).
//!
//! ```
//! use lethe::{Lethe, LetheBuilder};
//!
//! let mut db = LetheBuilder::new()
//!     .buffer(8, 4, 64)
//!     .size_ratio(4)
//!     .delete_persistence_threshold_secs(60.0)
//!     .build()
//!     .unwrap();
//! db.put(10, 1234, "value").unwrap();
//! assert!(db.get(10).unwrap().is_some());
//! ```

pub use lethe_core::*;

/// The LSM-tree substrate (levels, compaction policies, the tree itself).
pub use lethe_lsm as lsm;
/// The storage substrate (pages, filters, fences, devices, WAL, clock).
pub use lethe_storage as storage;
/// Ranked lock primitives (deadlock-checked in debug builds).
pub use lethe_sync as sync;
/// Deterministic workload generation (YCSB-A variant with deletes).
pub use lethe_workload as workload;
