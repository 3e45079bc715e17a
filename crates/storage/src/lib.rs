//! # lethe-storage
//!
//! Storage substrate for the Lethe LSM engine reproduction
//! (*Lethe: A Tunable Delete-Aware LSM Engine*, SIGMOD 2020).
//!
//! This crate contains everything below the LSM tree itself:
//!
//! * [`entry`] — the record model: sort key `S`, delete key `D`, sequence
//!   numbers, puts, point tombstones and range tombstones, and the tombstone
//!   size ratio λ.
//! * [`page`] — immutable disk pages (entries sorted on `S`), the unit of I/O,
//!   held as their encoded bytes plus an offset per entry.
//! * [`bloom`] — per-page Bloom filters over `S`.
//! * [`fence`] — fence pointers on `S` and *delete fence pointers* on `D`,
//!   the metadata that makes KiWi's full page drops possible.
//! * [`fragments`] — range tombstones as sorted, disjoint fragments
//!   ([`TombstoneFragments`]): a point lookup binary-searches them and a
//!   merge sweeps them with a [`FragmentCursor`].
//! * [`vfs`] — the only door to files: [`OsVfs`] (the host) or [`MemVfs`]
//!   (bytes in a map), so a store in memory runs the same stack as on disk,
//!   and [`FaultVfs`], which wraps either to fail the n-th mutating call.
//! * [`backend`] — the page-granular device abstraction and its device: page
//!   frames (the [`log`] frame, with `LEFX` and the page id as its header
//!   extension) in segment files, each sealed one ending in an index frame
//!   the open reads instead of its pages, with exact I/O accounting and
//!   lock-free positional reads.
//! * [`cache`] — the sharded, size-charged CLOCK block cache of encoded
//!   pages ([`PageCache`]) and the [`CachedBackend`] device wrapper that
//!   serves hits without touching the device.
//! * [`iostats`] — I/O / hash counters plus the latency cost model (100 µs per
//!   page access, 80 ns per hash) used to reproduce the paper's figures.
//! * [`memtable`] — the in-memory write buffer with in-place delete/update
//!   semantics.
//! * [`log`] — the framed log every durable file is: one layout
//!   (`magic · frame*`, `frame := ext · len · sum(body) · body`), one
//!   encoder ([`log::frame`]), one recovery rule ([`log::scan`]), one tail
//!   cut, and the handle the logs go through. Each file kind declares its
//!   one format (magic, header extension, frame tag and checksum) as a
//!   [`log::Format`] value.
//! * [`wal`] — write-ahead logging in checksummed frames behind the magic
//!   `LETHEWAL`, with prefix truncation behind a manifest commit, torn-tail
//!   recovery, the [`SyncPolicy`] durability knob and the group-commit
//!   staging primitives (`append_nosync` + `commit`).
//! * [`batchlog`] — the durable commit point for cross-shard write batches
//!   (two-phase commit over the per-shard WALs): one frame per committed id
//!   behind the magic `LETHEBAT`.
//! * [`manifest`] — the durable, checksummed manifest recording the tree's
//!   on-device state (levels, files, page ids), one frame per edit behind the
//!   magic `LETHEMAN`, so a reopened store recovers flushed data, not just
//!   the WAL tail. Its commit mints the
//!   [`ManifestCommitted`] witness a WAL prefix truncation requires.
//! * [`barrier`] — the counted durability barriers every fsync goes
//!   through, so [`IoSnapshot::fsyncs`](iostats::IoSnapshot::fsyncs) is
//!   exact (enforced by `clippy.toml`), and [`barrier::publish`], the one
//!   write-sync-rename-sync sequence every atomically replaced file uses.
//! * [`checkpoint`] — the checksummed completeness marker that makes an
//!   online checkpoint's commit point explicit (a torn checkpoint is
//!   detectably incomplete, never silently short).
//! * [`checksum`] — the two checksum kernels of on-disk structures: CRC-32,
//!   and XXH64, whose low 32 bits the page frames carry.
//! * [`clock`] — the logical clock that drives TTLs and tombstone ages.

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

pub mod backend;
pub mod barrier;
pub mod batchlog;
pub mod bloom;
pub mod cache;
pub mod checkpoint;
pub mod checksum;
pub mod clock;
pub mod entry;
pub mod error;
pub mod fence;
pub mod fragments;
pub mod iostats;
pub mod log;
pub mod manifest;
pub mod memtable;
pub mod page;
pub mod vfs;
pub mod wal;

pub use backend::{FileBackend, PageId, StorageBackend, SEGMENT_TARGET_BYTES};
pub use batchlog::BatchCommitLog;
pub use bloom::BloomFilter;
pub use cache::{CacheSnapshot, CachedBackend, PageCache};
pub use checkpoint::{read_marker, write_marker, CheckpointMarker, CHECKPOINT_MARKER};
pub use clock::{LogicalClock, Timestamp, MICROS_PER_SEC};
pub use entry::{DeleteKey, Entry, EntryKind, SeqNum, SortKey};
pub use error::{Result, StorageError};
pub use fence::{DeleteFence, FencePointers, PageCoverage};
pub use fragments::{FragmentCursor, TombstoneFragments};
pub use iostats::{CostModel, IoSnapshot, IoStats};
pub use manifest::{FileDesc, Manifest, ManifestCommitted, ManifestState};
pub use memtable::MemTable;
pub use page::Page;
pub use vfs::{FaultVfs, FileKind, FileOp, KillPoint, MemVfs, OsVfs, PowerLoss, Vfs, VfsFile};
pub use wal::{BatchOp, FileWal, SyncPolicy, Wal, WalRecord};
