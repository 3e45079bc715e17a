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
//! Every check site carries a stable **site name** (`"wal.append_nosync"`,
//! `"manifest.rewrite.rename"`, …). The name of the site that fired last is
//! recorded and exposed through [`FailPoint::last_fired`], so a sweep can
//! assert *which* durable steps its crash script actually exercised. The
//! repo lint cross-checks the site names against the `KILL_POINTS` registry
//! in `tests/crash_recovery.rs` in both directions: a new durable step
//! without sweep coverage, or a registry entry whose site was deleted, fails
//! CI.

use crate::error::{Result, StorageError};
use lethe_sync::{LockRank, Mutex};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;

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
    /// Site name of the most recent injected failure, shared by clones.
    fired: Arc<Mutex<Option<&'static str>>>,
    /// When set, every checked site name is recorded in `trace` (coverage
    /// audits); off by default so the hot path stays one atomic load.
    tracing: Arc<AtomicBool>,
    /// Every distinct site name seen by [`FailPoint::check`] while tracing.
    trace: Arc<Mutex<BTreeSet<&'static str>>>,
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

    /// Site name of the most recent injected failure, `None` before the
    /// first one. Shared across clones, so a sweep over a multi-component
    /// store sees the site regardless of which component fired.
    pub fn last_fired(&self) -> Option<&'static str> {
        *self.fired.lock()
    }

    /// Starts recording every site name passed to [`FailPoint::check`]
    /// (whether armed or not). Shared across clones. Used by coverage
    /// audits that assert a workload reaches every registered kill point.
    pub fn enable_trace(&self) {
        self.tracing.store(true, Ordering::SeqCst);
    }

    /// Every distinct site name seen since [`FailPoint::enable_trace`], in
    /// lexicographic order.
    pub fn traced_sites(&self) -> Vec<&'static str> {
        self.trace.lock().iter().copied().collect()
    }

    /// Consumes one countdown step on behalf of the named durable step;
    /// fails with [`StorageError::Injected`] when the countdown reaches
    /// zero (recording `site` as the fired kill point). Disarmed fail
    /// points always pass.
    ///
    /// `site` must be a stable dotted name (`"component.step"`) listed in
    /// the `KILL_POINTS` registry of `tests/crash_recovery.rs`; the repo
    /// lint enforces the cross-check.
    pub fn check(&self, site: &'static str) -> Result<()> {
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

    #[test]
    fn disarmed_always_passes() {
        let fp = FailPoint::new();
        for _ in 0..100 {
            fp.check("test.step").unwrap();
        }
        assert!(!fp.is_armed());
        assert_eq!(fp.last_fired(), None);
    }

    #[test]
    fn armed_fails_on_nth_check_then_disarms() {
        let fp = FailPoint::new();
        fp.arm(2);
        assert!(fp.is_armed());
        fp.check("test.first").unwrap();
        fp.check("test.second").unwrap();
        assert!(matches!(fp.check("test.third"), Err(StorageError::Injected)));
        // fires once, then the countdown is disarmed
        fp.check("test.fourth").unwrap();
        assert!(!fp.is_armed());
        assert_eq!(fp.last_fired(), Some("test.third"), "the firing site is recorded");
    }

    #[test]
    fn clones_share_the_countdown_and_fired_site() {
        let a = FailPoint::new();
        let b = a.clone();
        a.arm(1);
        b.check("test.pass").unwrap();
        assert!(matches!(a.check("test.fire"), Err(StorageError::Injected)));
        assert_eq!(b.last_fired(), Some("test.fire"));
    }

    #[test]
    fn trace_records_every_site_across_clones() {
        let a = FailPoint::new();
        let b = a.clone();
        a.check("test.before").unwrap();
        a.enable_trace();
        a.check("test.one").unwrap();
        b.check("test.two").unwrap();
        b.check("test.one").unwrap();
        assert_eq!(a.traced_sites(), vec!["test.one", "test.two"], "pre-trace sites excluded");
    }
}
