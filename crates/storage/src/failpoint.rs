//! Deterministic crash injection for recovery testing.
//!
//! A [`FailPoint`] is a shared countdown that the durable components — the
//! file-backed device, the write-ahead log, the manifest and the
//! batch-commit log — consult before every state-changing step. Arming it
//! with `n` lets the `n`-th subsequent step fail with
//! [`StorageError::Injected`], which the crash-recovery tests use to
//! simulate a process kill at *every* interesting point of the
//! flush/compaction/manifest/WAL protocol (a "kill-point sweep"). A
//! default-constructed fail point is disarmed and costs one relaxed atomic
//! load per check.
//!
//! Every check site names itself with a [`KillPoint`] variant, so a site
//! that is not in the enum cannot be written. The site that fired last is
//! recorded and exposed through [`FailPoint::last_fired`], so a sweep can
//! assert *which* durable steps its crash script actually exercised, and
//! `kill_point_trace_covers_the_whole_registry` in `tests/crash_recovery.rs`
//! fails on a variant of [`KillPoint::ALL`] that no workload reaches.

use crate::error::{Result, StorageError};
use lethe_sync::{LockRank, Mutex};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;

/// One durable step a [`FailPoint`] can kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KillPoint {
    /// A page write that rolled to a new segment file, before the page
    /// lands in it.
    BackendSegmentCreate,
    /// A page write, before the bytes reach the data file.
    BackendWritePage,
    /// A batch-commit log record, before it is appended.
    BatchlogAppend,
    /// A batch-commit log record, appended but not yet fsync'd.
    BatchlogCommitFsync,
    /// A checkpoint's completeness marker, written but not yet renamed.
    CheckpointMarkerRename,
    /// A checkpoint's completeness marker, before its temporary file.
    CheckpointMarkerTmp,
    /// A whole-file drop, before its manifest commit.
    DropCommit,
    /// A whole-file drop, committed but its pages not yet retired.
    DropRetire,
    /// A manifest delta, before it is appended.
    ManifestAppend,
    /// A manifest snapshot rewrite, before its temporary file.
    ManifestRewriteBegin,
    /// A manifest snapshot rewrite, written but not yet renamed.
    ManifestRewriteRename,
    /// A WAL record, before it is appended.
    WalAppendNosync,
    /// A WAL rewrite, before its temporary file.
    WalRewriteBegin,
    /// A WAL rewrite, written but not yet renamed.
    WalRewriteRename,
}

impl KillPoint {
    /// Every kill point, in declaration order: the registry the crash
    /// sweeps assert coverage against.
    pub const ALL: [KillPoint; 14] = [
        KillPoint::BackendSegmentCreate,
        KillPoint::BackendWritePage,
        KillPoint::BatchlogAppend,
        KillPoint::BatchlogCommitFsync,
        KillPoint::CheckpointMarkerRename,
        KillPoint::CheckpointMarkerTmp,
        KillPoint::DropCommit,
        KillPoint::DropRetire,
        KillPoint::ManifestAppend,
        KillPoint::ManifestRewriteBegin,
        KillPoint::ManifestRewriteRename,
        KillPoint::WalAppendNosync,
        KillPoint::WalRewriteBegin,
        KillPoint::WalRewriteRename,
    ];

    /// Stable dotted name (`"component.step"`).
    pub fn name(self) -> &'static str {
        match self {
            KillPoint::BackendSegmentCreate => "backend.segment.create",
            KillPoint::BackendWritePage => "backend.write_page",
            KillPoint::BatchlogAppend => "batchlog.append",
            KillPoint::BatchlogCommitFsync => "batchlog.commit_fsync",
            KillPoint::CheckpointMarkerRename => "checkpoint.marker.rename",
            KillPoint::CheckpointMarkerTmp => "checkpoint.marker.tmp",
            KillPoint::DropCommit => "drop.commit",
            KillPoint::DropRetire => "drop.retire",
            KillPoint::ManifestAppend => "manifest.append",
            KillPoint::ManifestRewriteBegin => "manifest.rewrite.begin",
            KillPoint::ManifestRewriteRename => "manifest.rewrite.rename",
            KillPoint::WalAppendNosync => "wal.append_nosync",
            KillPoint::WalRewriteBegin => "wal.rewrite.begin",
            KillPoint::WalRewriteRename => "wal.rewrite.rename",
        }
    }
}

impl fmt::Display for KillPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A shared, armable crash-injection countdown.
///
/// Clones share the same counter, so one fail point can be attached to every
/// durable component of an engine (or every shard of a sharded store) and
/// will trigger exactly once across all of them.
#[derive(Debug, Clone)]
pub struct FailPoint {
    /// Remaining durable steps before the next check fails; negative when
    /// disarmed.
    remaining: Arc<AtomicI64>,
    /// Site of the most recent injected failure, shared by clones.
    fired: Arc<Mutex<Option<KillPoint>>>,
    /// When set, every checked site is recorded in `trace` (coverage
    /// audits); off by default so the hot path stays one atomic load.
    tracing: Arc<AtomicBool>,
    /// Every distinct site seen by [`FailPoint::check`] while tracing.
    trace: Arc<Mutex<BTreeSet<KillPoint>>>,
}

impl Default for FailPoint {
    fn default() -> Self {
        Self::new()
    }
}

impl FailPoint {
    /// Creates a disarmed fail point.
    pub fn new() -> Self {
        let fp = FailPoint {
            remaining: Arc::new(AtomicI64::new(0)),
            fired: Arc::new(Mutex::new(LockRank::FailPointState, None)),
            tracing: Arc::new(AtomicBool::new(false)),
            trace: Arc::new(Mutex::new(LockRank::FailPointState, BTreeSet::new())),
        };
        fp.disarm();
        fp
    }

    /// Arms the fail point: the `ops`-th subsequent [`FailPoint::check`]
    /// (0-based — `arm(0)` fails the very next check) returns an error.
    pub fn arm(&self, ops: u64) {
        self.remaining.store(ops as i64, Ordering::SeqCst);
    }

    /// Disarms the fail point; checks pass until it is armed again.
    pub fn disarm(&self) {
        self.remaining.store(i64::MIN, Ordering::SeqCst);
    }

    /// Returns `true` while armed (the injected failure has not fired yet).
    pub fn is_armed(&self) -> bool {
        self.remaining.load(Ordering::SeqCst) >= 0
    }

    /// Site of the most recent injected failure, `None` before the first
    /// one. Shared across clones, so a sweep over a multi-component store
    /// sees the site regardless of which component fired.
    pub fn last_fired(&self) -> Option<KillPoint> {
        *self.fired.lock()
    }

    /// Starts recording every site passed to [`FailPoint::check`]
    /// (whether armed or not). Shared across clones. Used by coverage
    /// audits that assert a workload reaches every registered kill point.
    pub fn enable_trace(&self) {
        self.tracing.store(true, Ordering::SeqCst);
    }

    /// Every distinct site seen since [`FailPoint::enable_trace`], in
    /// declaration order.
    pub fn traced_sites(&self) -> Vec<KillPoint> {
        self.trace.lock().iter().copied().collect()
    }

    /// Consumes one countdown step on behalf of the durable step `site`;
    /// fails with [`StorageError::Injected`] when the countdown reaches
    /// zero (recording `site` as the fired kill point). Disarmed fail
    /// points always pass.
    pub fn check(&self, site: KillPoint) -> Result<()> {
        if self.tracing.load(Ordering::Relaxed) {
            self.trace.lock().insert(site);
        }
        if self.remaining.load(Ordering::Relaxed) < 0 {
            return Ok(());
        }
        if self.remaining.fetch_sub(1, Ordering::SeqCst) == 0 {
            self.disarm();
            *self.fired.lock() = Some(site);
            return Err(StorageError::Injected);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use KillPoint::*;

    #[test]
    fn disarmed_always_passes() {
        let fp = FailPoint::new();
        for _ in 0..100 {
            fp.check(WalAppendNosync).unwrap();
        }
        assert!(!fp.is_armed());
        assert_eq!(fp.last_fired(), None);
    }

    #[test]
    fn armed_fails_on_nth_check_then_disarms() {
        let fp = FailPoint::new();
        fp.arm(2);
        assert!(fp.is_armed());
        fp.check(WalAppendNosync).unwrap();
        fp.check(BackendWritePage).unwrap();
        assert!(matches!(fp.check(ManifestAppend), Err(StorageError::Injected)));
        // fires once, then the countdown is disarmed
        fp.check(WalRewriteBegin).unwrap();
        assert!(!fp.is_armed());
        assert_eq!(fp.last_fired(), Some(ManifestAppend), "the firing site is recorded");
    }

    #[test]
    fn clones_share_the_countdown_and_fired_site() {
        let a = FailPoint::new();
        let b = a.clone();
        a.arm(1);
        b.check(BatchlogAppend).unwrap();
        assert!(matches!(a.check(BatchlogCommitFsync), Err(StorageError::Injected)));
        assert_eq!(b.last_fired(), Some(BatchlogCommitFsync));
    }

    #[test]
    fn trace_records_every_site_across_clones() {
        let a = FailPoint::new();
        let b = a.clone();
        a.check(DropCommit).unwrap();
        a.enable_trace();
        a.check(WalRewriteRename).unwrap();
        b.check(CheckpointMarkerTmp).unwrap();
        b.check(WalRewriteRename).unwrap();
        assert_eq!(
            a.traced_sites(),
            vec![CheckpointMarkerTmp, WalRewriteRename],
            "pre-trace sites excluded"
        );
    }

    /// `[$(KillPoint::$v),*]` behind an exhaustive `match` over the same
    /// list, so a variant the list leaves out does not compile.
    macro_rules! every_variant {
        ($($v:ident),* $(,)?) => {{
            let _exhaustive = |kp: KillPoint| match kp {
                $(KillPoint::$v => (),)*
            };
            [$(KillPoint::$v),*]
        }};
    }

    #[test]
    fn all_holds_every_variant_once_under_a_unique_dotted_name() {
        let mut every = every_variant![
            BackendSegmentCreate,
            BackendWritePage,
            BatchlogAppend,
            BatchlogCommitFsync,
            CheckpointMarkerRename,
            CheckpointMarkerTmp,
            DropCommit,
            DropRetire,
            ManifestAppend,
            ManifestRewriteBegin,
            ManifestRewriteRename,
            WalAppendNosync,
            WalRewriteBegin,
            WalRewriteRename,
        ]
        .to_vec();
        every.sort();
        let mut all = KillPoint::ALL.to_vec();
        all.sort();
        assert_eq!(all, KillPoint::ALL, "ALL is in declaration order");
        all.dedup();
        assert_eq!(all.len(), KillPoint::ALL.len(), "a variant is listed twice in ALL");
        assert_eq!(all, every, "ALL and the enum disagree");

        let names: BTreeSet<&str> = KillPoint::ALL.iter().map(|kp| kp.name()).collect();
        assert_eq!(names.len(), KillPoint::ALL.len(), "two kill points share a name");
        for name in names {
            let parts: Vec<&str> = name.split('.').collect();
            assert!(parts.len() >= 2, "{name} is not dotted");
            assert!(
                parts.iter().all(|p| {
                    !p.is_empty() && p.chars().all(|c| c.is_ascii_lowercase() || c == '_')
                }),
                "{name} is not `component.step`"
            );
        }
    }
}
