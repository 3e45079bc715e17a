//! The write path: every mutation of an [`LsmTree`] is **stage → commit →
//! apply** over one list of [`BatchOp`]s. [`LsmTree::stage_batch`] stamps the
//! request with the logical clock and appends it to the WAL as one frame
//! ([`WalRecord::for_ops`]); [`LsmTree::wal_commit`] pays one durability
//! barrier for everything staged; [`LsmTree::apply_batch`] runs the ops
//! against the tree and flushes if the buffer filled.
//!
//! The point API and [`LsmTree::write_batch`] build their ops and run the
//! three steps back to back; a group-commit leader (`lethe-core`'s shard
//! module) stages many requests, commits once and applies each; WAL replay
//! (in [`LsmTree::recover`]) turns each record back into ops
//! ([`WalRecord::into_ops`]). All of them end in the one `apply_ops`, the
//! only code that draws sequence numbers, writes the active memtable, sets
//! the buffer's tombstone clock and counts ingest.
//!
//! The clock ticks once per staged request that ingests an entry (a put or a
//! tombstone); a request of secondary range deletes alone ingests nothing
//! and is stamped at the current time. Replay never ticks: it raises the
//! clock to each record's logged timestamp.

use crate::batch::WriteBatch;
use crate::config::SecondaryDeleteMode;
use crate::sstable::{SecondaryDeleteStats, SsTable};
use crate::tree::LsmTree;
use bytes::Bytes;
use lethe_storage::{
    BatchOp, DeleteKey, Entry, Result, SortKey, SyncPolicy, Timestamp, WalRecord,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Whether `apply_ops` runs a request being acknowledged now, or one that
/// was acknowledged (and counted) before a restart.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Ack {
    Live,
    Replay,
}

/// Whether `op` adds an entry (a put or a tombstone) to the write buffer: a
/// secondary range delete only removes entries, and an empty sort-key range
/// covers no key.
fn ingests(op: &BatchOp) -> bool {
    match op {
        BatchOp::Put { .. } | BatchOp::Delete { .. } => true,
        BatchOp::DeleteRange { start, end } => start < end,
        BatchOp::SecondaryDelete { .. } => false,
    }
}

impl LsmTree {
    // ------------------------------------------------------------ front doors

    /// Inserts (or updates) `sort_key` with the given delete key and value.
    pub fn put(&mut self, sort_key: SortKey, delete_key: DeleteKey, value: Bytes) -> Result<()> {
        self.write_ops(&[BatchOp::Put { sort_key, delete_key, value }]).map(drop)
    }

    /// Issues a point delete for `sort_key`. Returns `false` when the delete
    /// was suppressed as *blind* (the key cannot exist anywhere in the tree —
    /// only checked when `suppress_blind_deletes` is enabled).
    pub fn delete(&mut self, sort_key: SortKey) -> Result<bool> {
        if self.suppresses_delete(sort_key)? {
            return Ok(false);
        }
        self.write_ops(&[BatchOp::Delete { sort_key }])?;
        Ok(true)
    }

    /// Blind-delete suppression (paper §4.1.5): when it is enabled and the
    /// memtables and Bloom filters prove `sort_key` absent, counts a delete
    /// of it as suppressed, gives it the clock tick its ingest would have
    /// taken, and returns `true`: the caller then issues no delete. Only
    /// point deletes ask (see [`WriteBatch::delete`]).
    pub fn suppresses_delete(&mut self, sort_key: SortKey) -> Result<bool> {
        if !self.config.suppress_blind_deletes || self.key_may_exist(sort_key)? {
            return Ok(false);
        }
        self.advance_clock_for_ingest();
        self.stats.blind_deletes_suppressed += 1;
        Ok(true)
    }

    /// Issues a range delete on the **sort key** for `[start, end)`.
    pub fn delete_range(&mut self, start: SortKey, end: SortKey) -> Result<()> {
        if end <= start {
            return Ok(());
        }
        self.write_ops(&[BatchOp::DeleteRange { start, end }]).map(drop)
    }

    /// Executes a secondary range delete: removes every entry whose **delete
    /// key** lies in `[d_lo, d_hi)`, using the strategy selected by
    /// [`LsmConfig::secondary_delete_mode`](crate::config::LsmConfig::secondary_delete_mode).
    /// Logged to the WAL before it runs: the purge of *buffered* entries
    /// would otherwise be resurrected by replaying their still-logged puts
    /// after a crash.
    pub fn secondary_range_delete(
        &mut self,
        d_lo: DeleteKey,
        d_hi: DeleteKey,
    ) -> Result<SecondaryDeleteStats> {
        self.write_ops(&[BatchOp::SecondaryDelete { d_lo, d_hi }])
    }

    /// Atomically applies `batch`: the whole batch is logged as **one** WAL
    /// frame (crash recovery replays it entirely or discards it entirely —
    /// a torn tail can never split it), made durable per the sync policy,
    /// and its point operations are applied to the write buffer under a
    /// single memtable write lock (concurrent readers never observe a
    /// prefix). Operations apply in insertion order under one commit
    /// timestamp and consecutive sequence numbers. An empty batch is a
    /// no-op.
    pub fn write_batch(&mut self, batch: WriteBatch) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        self.write_ops(batch.ops()).map(drop)
    }

    /// One request, start to finish: stage → commit → apply. Returns what
    /// its secondary range deletes dropped.
    fn write_ops(&mut self, ops: &[BatchOp]) -> Result<SecondaryDeleteStats> {
        let ts = self.stage_batch(ops, None)?;
        self.wal_commit()?;
        self.apply_batch(ops, ts)
    }

    // ------------------------------------------------- stage → commit → apply

    /// Stages `ops` in the WAL as one frame **without** the sync-policy
    /// barrier and returns the request's commit timestamp, at which
    /// [`LsmTree::apply_batch`] applies it once [`LsmTree::wal_commit`] has
    /// made it durable. `id` tags a prepared cross-shard slice (replay holds
    /// it back until the batch-commit log shows `id`); `None` marks the
    /// frame itself as the commit point.
    pub fn stage_batch(&mut self, ops: &[BatchOp], id: Option<u64>) -> Result<Timestamp> {
        if ops.iter().any(ingests) {
            self.advance_clock_for_ingest();
        }
        let now = self.clock.now();
        self.wal.append_nosync(WalRecord::for_ops(ops, id, now))?;
        Ok(now)
    }

    /// One durability barrier covering everything staged since the last
    /// commit (the group-commit fsync).
    pub fn wal_commit(&mut self) -> Result<()> {
        self.wal.commit()
    }

    /// Applies a staged request to the tree at its commit timestamp, then
    /// flushes (or freezes) the write buffer if that filled it. Returns what
    /// the request's secondary range deletes dropped.
    pub fn apply_batch(&mut self, ops: &[BatchOp], ts: Timestamp) -> Result<SecondaryDeleteStats> {
        let dropped = self.apply_ops(ops, ts, Ack::Live)?;
        self.maybe_flush()?;
        Ok(dropped)
    }

    /// Replays the tree's WAL into the engine. Unlike the front doors, replay
    /// never suppresses a logged tombstone as blind, never re-counts ingest
    /// statistics (they were counted when the record was first
    /// acknowledged), and re-applies each record at its *logged* timestamp
    /// instead of re-stamping it. Returns the number of records read.
    pub(crate) fn replay_wal(&mut self) -> Result<usize> {
        let records = self.wal.replay()?;
        let n = records.len();
        // the log may hold a record whose barrier never ran (its write
        // failed, and was never acknowledged); this replay serves it, so a
        // policy that makes what it serves durable syncs it first
        if n > 0 && self.config.wal_sync != SyncPolicy::OnFlush {
            self.wal.sync()?;
        }
        self.replaying = true;
        for record in records {
            let (id, ts, ops) = record.into_ops();
            // a prepared cross-shard slice replays only when the batch
            // commit log proves its id committed; otherwise the whole
            // slice rolls back — a batch is never half-applied
            if let Some(id) = id {
                self.replayed_batch_ids.insert(id);
                if !self.committed_batches.contains(&id) {
                    continue;
                }
            }
            self.clock.advance_to(ts);
            self.apply_ops(&ops, ts, Ack::Replay)?;
            self.maybe_flush()?;
        }
        self.replaying = false;
        Ok(n)
    }

    fn advance_clock_for_ingest(&self) {
        if self.config.auto_advance_clock {
            self.clock.advance_micros(self.config.micros_per_ingest());
        }
    }

    /// Applies `ops` in order at timestamp `ts`. Each run of puts and
    /// tombstones between two secondary range deletes is applied under a
    /// single memtable write lock so concurrent readers observe it
    /// all-or-nothing; a secondary range delete runs outside that guard (it
    /// touches the frozen buffer and the version set) and only purges data
    /// that predates the request. Under [`Ack::Replay`] the
    /// acknowledgement-time bookkeeping (counters) is skipped.
    /// Returns what the request's secondary range deletes dropped.
    fn apply_ops(
        &mut self,
        ops: &[BatchOp],
        ts: Timestamp,
        ack: Ack,
    ) -> Result<SecondaryDeleteStats> {
        let live = ack == Ack::Live;
        let mut dropped = SecondaryDeleteStats::default();
        // each group is a run of buffer ops, closed by the secondary range
        // delete that follows it (the last group may have none)
        for group in ops.split_inclusive(|op| matches!(op, BatchOp::SecondaryDelete { .. })) {
            let mut active = self.mem.active.write();
            for op in group.iter().filter(|op| ingests(op)) {
                let seq = self.next_seqnum.fetch_add(1, Ordering::Relaxed);
                match op {
                    BatchOp::Put { sort_key, delete_key, value } => {
                        let entry = Entry::put(*sort_key, *delete_key, seq, value.clone());
                        if live {
                            self.stats.record_ingest(entry.encoded_size() as u64);
                        }
                        active.table.put(*sort_key, *delete_key, seq, entry.value);
                    }
                    BatchOp::Delete { sort_key } => {
                        if live {
                            let entry = Entry::point_tombstone(*sort_key, seq);
                            self.stats.record_ingest(entry.encoded_size() as u64);
                            self.stats.point_deletes_issued += 1;
                        }
                        active.oldest_tombstone_ts.get_or_insert(ts);
                        active.table.delete(*sort_key, seq);
                    }
                    BatchOp::DeleteRange { start, end } => {
                        if live {
                            let entry = Entry::range_tombstone(*start, *end, seq);
                            self.stats.record_ingest(entry.encoded_size() as u64);
                            self.stats.range_deletes_issued += 1;
                        }
                        active.oldest_tombstone_ts.get_or_insert(ts);
                        active.table.delete_range(*start, *end, seq);
                    }
                    #[expect(clippy::unreachable, reason = "a secondary delete ingests nothing")]
                    BatchOp::SecondaryDelete { .. } => unreachable!("filtered out above"),
                }
            }
            drop(active);
            if let Some(BatchOp::SecondaryDelete { d_lo, d_hi }) = group.last() {
                // on replay this re-purges buffered entries replayed so far
                // and re-drops any on-device pages the pre-crash run did not
                // get to (idempotent on the ones it did)
                let result = self.apply_secondary_range_delete(*d_lo, *d_hi)?;
                if live {
                    self.stats.secondary_range_deletes += 1;
                    self.stats.secondary_delete.merge(&result);
                }
                dropped.merge(&result);
            }
        }
        Ok(dropped)
    }

    // ------------------------------------------- the secondary range delete

    /// The body of a secondary range delete: drop (or compact away) the
    /// qualifying on-disk entries, then purge the buffers. In that order a
    /// failed disk part leaves the request wholly unapplied: the buffered
    /// versions it did not purge still shadow the older ones on disk it did
    /// not drop, and a later flush cannot make half a delete durable.
    fn apply_secondary_range_delete(
        &mut self,
        d_lo: DeleteKey,
        d_hi: DeleteKey,
    ) -> Result<SecondaryDeleteStats> {
        let dropped = match self.config.secondary_delete_mode {
            SecondaryDeleteMode::KiwiPageDrops => self.secondary_delete_with_drops(d_lo, d_hi),
            SecondaryDeleteMode::FullTreeCompaction => {
                self.secondary_delete_with_full_compaction(d_lo, d_hi)
            }
        }?;
        // the buffered portion (active and frozen) is purged in place in
        // both modes
        self.mem.active.write().table.purge_by_delete_key(d_lo, d_hi);
        if let Some(f) = self.mem.frozen.write().as_mut() {
            Arc::make_mut(f).purge_by_delete_key(d_lo, d_hi);
        }
        // the dropped pages leave the device last: a failed segment unlink
        // fails the request with all of it applied
        self.versions.collect_garbage(self.backend.as_ref())?;
        Ok(dropped)
    }

    /// KiWi page drops, committed as one new version: fully-covered pages
    /// are never read, partially-covered pages are rewritten, and the
    /// obsolete pages are retired through the version set so concurrently
    /// pinned snapshots stay readable until they are released.
    fn secondary_delete_with_drops(
        &mut self,
        d_lo: DeleteKey,
        d_hi: DeleteKey,
    ) -> Result<SecondaryDeleteStats> {
        let now = self.clock.now();
        let mut total = SecondaryDeleteStats::default();
        let mut levels = self.versions.current().levels.clone();
        let mut retired: Vec<Arc<SsTable>> = Vec::new();
        let mut replacements: Vec<Arc<SsTable>> = Vec::new();
        for level in &mut levels {
            for run in &mut level.runs {
                let ids: Vec<u64> = run.tables().iter().map(|t| t.meta.id).collect();
                for id in ids {
                    let table = match run.find_by_id(id) {
                        Some(t) => Arc::clone(t),
                        None => continue,
                    };
                    if !table.meta.delete_fence.overlaps(d_lo, d_hi) {
                        continue;
                    }
                    // the obsolete-page list is implied by the reference
                    // counts: retiring the original releases exactly the
                    // pages its replacement does not share
                    let (replacement, stats, _obsolete) = table.secondary_range_delete(
                        d_lo,
                        d_hi,
                        &self.config,
                        self.backend.as_ref(),
                        now,
                    )?;
                    total.merge(&stats);
                    let replacement = replacement.map(Arc::new);
                    if let Some(r) = &replacement {
                        replacements.push(Arc::clone(r));
                    }
                    run.replace(id, replacement);
                    retired.push(table);
                }
            }
            level.prune_empty_runs();
        }
        self.commit_version(levels, &replacements, retired)?;
        Ok(total)
    }

    fn secondary_delete_with_full_compaction(
        &mut self,
        d_lo: DeleteKey,
        d_hi: DeleteKey,
    ) -> Result<SecondaryDeleteStats> {
        // the state-of-the-art path: read, merge and rewrite the whole tree
        let mut stats = SecondaryDeleteStats::default();
        let before = self.versions.current();
        let before_entries: u64 = before.levels.iter().map(|l| l.total_entries()).sum();
        drop(before);
        self.full_tree_compaction_filtered(Some((d_lo, d_hi)))?;
        let after = self.versions.current();
        let after_entries: u64 = after.levels.iter().map(|l| l.total_entries()).sum();
        stats.entries_deleted = before_entries.saturating_sub(after_entries);
        // every surviving page was read and rewritten
        stats.partial_page_drops =
            after.levels.iter().flat_map(|l| l.all_tables()).map(|t| t.page_count() as u64).sum();
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compaction::{FileSelection, SaturationPolicy};
    use crate::config::LsmConfig;
    use lethe_storage::{FileBackend, FileWal, LogicalClock, Manifest, MemVfs, Vfs, Wal};
    use std::path::Path;
    use std::sync::Arc;

    fn tree(config: LsmConfig) -> LsmTree {
        LsmTree::in_memory(config, Box::new(SaturationPolicy::new(FileSelection::MinOverlap)))
            .unwrap()
    }

    /// A tree that recovers `records` from its own log, with the batch ids
    /// `committed` proven committed.
    fn replayed(config: LsmConfig, records: &[WalRecord], committed: &[u64]) -> (LsmTree, usize) {
        let mut t = tree(config);
        for r in records {
            t.wal.append(r.clone()).unwrap();
        }
        t.set_committed_batches(committed.iter().copied().collect());
        let report = t.recover().unwrap();
        (t, report.wal_records_replayed)
    }

    /// The tree `lethe` in `/` on `vfs`, recovered, and the WAL records it
    /// replayed: a directory that outlives its tree, for tests that reopen.
    fn reopen(vfs: &Arc<dyn Vfs>, config: LsmConfig) -> (LsmTree, usize) {
        let (dir, target) = (Path::new("/"), config.segment_target_bytes());
        let mut t = LsmTree::new(
            config,
            Arc::new(FileBackend::open_on(vfs, dir, "lethe", target).unwrap()),
            Box::new(FileWal::open_on(vfs, &dir.join("lethe.wal")).unwrap()),
            Manifest::open_on(vfs, &dir.join("lethe.manifest")).unwrap(),
            LogicalClock::new(),
            Box::new(SaturationPolicy::new(FileSelection::MinOverlap)),
        )
        .unwrap();
        let report = t.recover().unwrap();
        (t, report.wal_records_replayed)
    }

    fn value(i: u64) -> Bytes {
        Bytes::from(format!("value-{i:08}"))
    }

    #[test]
    fn write_batch_applies_all_ops_in_order() {
        let mut t = tree(LsmConfig::small_for_test());
        t.put(5, 50, value(5)).unwrap();
        t.put(30, 300, value(30)).unwrap();
        let mut b = WriteBatch::new();
        b.put(1, 10, value(1)).put(2, 20, value(2)).delete(5).put(1, 11, value(100));
        b.put(31, 310, value(31)).delete_range(30, 40).put(32, 320, value(32));
        t.write_batch(b).unwrap();
        // last op wins within the batch; the pre-existing key is deleted
        assert_eq!(t.get(1).unwrap(), Some(value(100)));
        assert_eq!(t.get(2).unwrap(), Some(value(2)));
        assert_eq!(t.get(5).unwrap(), None);
        // the range delete covers what came before it, in the batch or not,
        // and nothing that came after
        assert_eq!(t.get(30).unwrap(), None);
        assert_eq!(t.get(31).unwrap(), None);
        assert_eq!(t.get(32).unwrap(), Some(value(32)));
        assert_eq!(t.stats().range_deletes_issued, 1);
        // empty batches are free
        t.write_batch(WriteBatch::new()).unwrap();
        // batches survive flush + compaction churn
        for k in 100..600u64 {
            t.put(k, k, value(k)).unwrap();
        }
        t.flush().unwrap();
        t.maintain().unwrap();
        assert_eq!(t.get(1).unwrap(), Some(value(100)));
        assert_eq!(t.get(5).unwrap(), None);
        assert_eq!(t.get(31).unwrap(), None);
        assert_eq!(t.get(32).unwrap(), Some(value(32)));
    }

    #[test]
    fn write_batch_secondary_delete_purges_range() {
        let mut t = tree(LsmConfig::small_for_test());
        for k in 0..20u64 {
            t.put(k, k, value(k)).unwrap();
        }
        let mut b = WriteBatch::new();
        b.secondary_range_delete(0, 10).put(50, 5, value(50));
        t.write_batch(b).unwrap();
        for k in 0..10u64 {
            assert_eq!(t.get(k).unwrap(), None, "delete key {k} in purge range");
        }
        assert_eq!(t.get(15).unwrap(), Some(value(15)));
        // the put rides in the same batch even though its delete key (5)
        // falls in the purged range: ops apply in order
        assert_eq!(t.get(50).unwrap(), Some(value(50)));
    }

    #[test]
    fn batches_replay_from_wal_and_respect_commit_filter() {
        // stage one local batch (commit point = the frame) and one prepared
        // cross-shard slice for an id that never committed
        let mut records = {
            let mut t = tree(LsmConfig::small_for_test());
            let mut b = WriteBatch::new();
            b.put(1, 10, value(1)).delete(2).put(3, 30, value(3)).delete_range(3, 5);
            t.write_batch(b).unwrap();
            t.wal.replay().unwrap()
        };
        records.push(WalRecord::Batch {
            id: Some(99),
            ops: vec![BatchOp::Put { sort_key: 7, delete_key: 70, value: value(7) }],
            ts: 1,
        });
        records.push(WalRecord::Batch {
            id: Some(100),
            ops: vec![BatchOp::Put { sort_key: 8, delete_key: 80, value: value(8) }],
            ts: 2,
        });
        let (t, replayed) = replayed(LsmConfig::small_for_test(), &records, &[100]);
        assert_eq!(replayed, 3);
        assert_eq!(t.get(1).unwrap(), Some(value(1)));
        assert_eq!(t.get(2).unwrap(), None);
        assert_eq!(t.get(3).unwrap(), None, "the batch's range delete must replay");
        assert_eq!(t.get(7).unwrap(), None, "uncommitted prepared slice must roll back");
        assert_eq!(t.get(8).unwrap(), Some(value(8)), "committed slice must apply");
    }

    #[test]
    fn secondary_range_delete_with_page_drops() {
        let mut cfg = LsmConfig::small_for_test();
        cfg.pages_per_delete_tile = 4;
        cfg.max_pages_per_file = 8;
        cfg.secondary_delete_mode = SecondaryDeleteMode::KiwiPageDrops;
        let mut t = tree(cfg);
        // delete key is decorrelated from sort key
        for k in 0..1000u64 {
            t.put(k, (k * 7919) % 10_000, value(k)).unwrap();
        }
        t.flush().unwrap();
        t.maintain().unwrap();
        let stats = t.secondary_range_delete(0, 5_000).unwrap();
        assert!(stats.entries_deleted > 300, "{stats:?}");
        assert!(stats.full_page_drops > 0, "{stats:?}");
        // all surviving entries have delete keys outside the range
        let survivors = t.secondary_range_scan(0, 10_000).unwrap();
        assert!(survivors.iter().all(|e| e.delete_key >= 5_000));
        // point lookups agree
        for k in 0..1000u64 {
            let deleted = (k * 7919) % 10_000 < 5_000;
            assert_eq!(t.get(k).unwrap().is_none(), deleted, "key {k}");
        }
    }

    #[test]
    fn secondary_range_delete_with_full_compaction_baseline() {
        let mut cfg = LsmConfig::small_for_test();
        cfg.secondary_delete_mode = SecondaryDeleteMode::FullTreeCompaction;
        let mut t = tree(cfg);
        for k in 0..500u64 {
            t.put(k, (k * 31) % 1000, value(k)).unwrap();
        }
        t.flush().unwrap();
        let before = t.stats().full_tree_compactions;
        let stats = t.secondary_range_delete(0, 500).unwrap();
        assert_eq!(t.stats().full_tree_compactions, before + 1);
        assert!(stats.entries_deleted > 100);
        for k in 0..500u64 {
            let deleted = (k * 31) % 1000 < 500;
            assert_eq!(t.get(k).unwrap().is_none(), deleted, "key {k}");
        }
    }

    #[test]
    fn blind_delete_suppression() {
        let mut cfg = LsmConfig::small_for_test();
        cfg.suppress_blind_deletes = true;
        let mut t = tree(cfg);
        for k in 0..100u64 {
            t.put(k, k, value(k)).unwrap();
        }
        t.flush().unwrap();
        // deleting an existing key inserts a tombstone
        assert!(t.delete(5).unwrap());
        // deleting a key that never existed is suppressed
        assert!(!t.delete(1_000_000).unwrap());
        assert_eq!(t.stats().blind_deletes_suppressed, 1);
        assert_eq!(t.get(5).unwrap(), None);
    }

    #[test]
    fn wal_recovery_restores_unflushed_writes() {
        // large buffer so nothing is flushed (and the WAL never truncated):
        // the whole working set must be recoverable from the log alone
        let mut cfg = LsmConfig::small_for_test();
        cfg.buffer_pages = 1024;
        let vfs = MemVfs::shared();
        let mut t = reopen(&vfs, cfg.clone()).0;
        for k in 0..50u64 {
            t.put(k, k, value(k)).unwrap();
        }
        t.delete(7).unwrap();
        // simulate a crash: open the directory again and replay its WAL
        drop(t);
        let (recovered, replayed) = reopen(&vfs, cfg);
        assert_eq!(replayed, 51);
        assert_eq!(recovered.get(3).unwrap(), Some(value(3)));
        assert_eq!(recovered.get(7).unwrap(), None);
    }

    /// Replay flushes every buffer it fills, but the log keeps every record
    /// until the replay is over: a crash right after recovery loses nothing.
    #[test]
    fn a_flush_during_replay_truncates_no_record() {
        let vfs = MemVfs::shared();
        let log = FileWal::open_on(&vfs, Path::new("/lethe.wal")).unwrap();
        for k in 0..101u64 {
            log.append(WalRecord::Put { sort_key: k, delete_key: k, value: value(k), ts: k + 1 })
                .unwrap();
        }
        drop(log);
        let (t, replayed) = reopen(&vfs, LsmConfig::small_for_test());
        assert_eq!(replayed, 101);
        assert!(t.stats().flushes > 1, "the replay must fill and flush buffers");
        drop(t);
        let t = reopen(&vfs, LsmConfig::small_for_test()).0;
        for k in 0..101u64 {
            assert_eq!(t.get(k).unwrap(), Some(value(k)), "key {k}");
        }
    }

    #[test]
    fn wal_replay_preserves_tombstones_stats_and_timestamps() {
        // regression: the old replay path went through the public put/delete
        // API, so blind-delete suppression could drop a legitimately logged
        // tombstone, ingest stats were double-counted across restarts, and
        // replayed records were re-stamped by the ingest clock
        let mut cfg = LsmConfig::small_for_test();
        cfg.buffer_pages = 1024;
        cfg.suppress_blind_deletes = true;
        // a tombstone whose key was flushed before the crash: the reopened
        // buffer has no trace of it, so the public path would call it blind
        let records = [
            WalRecord::Delete { sort_key: 5, ts: 12_345 },
            WalRecord::Put {
                sort_key: 6,
                delete_key: 6,
                value: Bytes::from_static(b"v"),
                ts: 12_400,
            },
        ];
        let (t, replayed) = replayed(cfg, &records, &[]);
        assert_eq!(replayed, 2);
        // the logged tombstone survives replay
        assert_eq!(t.buffered_entries(), 2);
        assert_eq!(t.get(5).unwrap(), None);
        assert_eq!(t.get(6).unwrap(), Some(Bytes::from_static(b"v")));
        // ingest statistics are not re-counted
        assert_eq!(t.stats().entries_ingested, 0);
        assert_eq!(t.stats().point_deletes_issued, 0);
        assert_eq!(t.stats().blind_deletes_suppressed, 0);
        // the clock sits at the logged watermark, not a re-stamped one
        assert_eq!(t.clock().now(), 12_400);
    }

    #[test]
    fn clock_advances_with_ingestion() {
        let mut cfg = LsmConfig::small_for_test();
        cfg.ingestion_rate = 1000; // 1000 entries/s → 1ms per entry
        let mut t = tree(cfg);
        for k in 0..100u64 {
            t.put(k, k, value(k)).unwrap();
        }
        assert_eq!(t.clock().now(), 100_000);
    }

    /// The records of `wal::tests::logs_written_before_this_change_still_replay`
    /// (every frame kind the parent commit could write, decoded there from
    /// the bytes it wrote): what replaying them leaves, with and without the
    /// prepared slice's id committed, is what the parent commit's replay
    /// left.
    #[test]
    fn a_log_written_before_this_change_replays_to_the_same_state() {
        let v = |s: &'static str| Bytes::from_static(s.as_bytes());
        let records = vec![
            WalRecord::Put { sort_key: 1, delete_key: 11, value: v("v1"), ts: 100 },
            WalRecord::Delete { sort_key: 2, ts: 200 },
            WalRecord::DeleteRange { start: 3, end: 9, ts: 300 },
            WalRecord::SecondaryDelete { d_lo: 10, d_hi: 12, ts: 400 },
            WalRecord::Batch {
                id: None,
                ops: vec![BatchOp::Put { sort_key: 4, delete_key: 44, value: v("v4") }],
                ts: 500,
            },
            WalRecord::Batch {
                id: Some(7),
                ops: vec![
                    BatchOp::Put { sort_key: 5, delete_key: 55, value: v("v5") },
                    BatchOp::Delete { sort_key: 1 },
                    BatchOp::SecondaryDelete { d_lo: 40, d_hi: 50 },
                ],
                ts: 600,
            },
        ];
        // (committed ids, the one live key and its value, next seqnum, clock)
        let with_slice = (vec![7u64], 5, "v5", 7, 600);
        let without = (vec![], 4, "v4", 5, 500);
        for (committed, key, val, next_seqnum, clock) in [with_slice, without] {
            let mut cfg = LsmConfig::small_for_test();
            cfg.buffer_pages = 1024;
            cfg.secondary_delete_mode = SecondaryDeleteMode::KiwiPageDrops;
            let (t, replayed) = replayed(cfg, &records, &committed);
            assert_eq!(replayed, 6);
            assert_eq!(t.range(0, 100).unwrap(), vec![(key, v(val))], "committed: {committed:?}");
            assert_eq!(t.next_seqnum(), next_seqnum);
            assert_eq!(t.clock().now(), clock);
            assert_eq!(t.wal_batch_ids(), &[7u64].into_iter().collect());
            let stats = t.stats();
            assert_eq!(
                (stats.entries_ingested, stats.bytes_ingested, stats.point_deletes_issued),
                (0, 0, 0)
            );
            assert_eq!((stats.range_deletes_issued, stats.secondary_range_deletes), (0, 0));
        }
    }

    #[test]
    fn every_front_door_logs_through_the_same_framing() {
        let mut t = tree(LsmConfig::small_for_test());
        t.put(1, 10, value(1)).unwrap();
        t.delete(1).unwrap();
        t.delete_range(5, 9).unwrap();
        t.delete_range(9, 9).unwrap(); // empty: neither ticks nor logs
        t.secondary_range_delete(0, 4).unwrap(); // stamped at the current time
        let mut lone = WriteBatch::new();
        lone.put(2, 20, value(2));
        t.write_batch(lone).unwrap();
        let mut pair = WriteBatch::new();
        pair.put(3, 30, value(3)).delete_range(3, 4);
        t.write_batch(pair).unwrap();
        let tick = t.config().micros_per_ingest();
        let logged = t.wal.replay().unwrap();
        assert_eq!(
            logged,
            vec![
                WalRecord::Put { sort_key: 1, delete_key: 10, value: value(1), ts: tick },
                WalRecord::Delete { sort_key: 1, ts: 2 * tick },
                WalRecord::DeleteRange { start: 5, end: 9, ts: 3 * tick },
                WalRecord::SecondaryDelete { d_lo: 0, d_hi: 4, ts: 3 * tick },
                // a lone id-less op keeps its compact frame, batch or not
                WalRecord::Put { sort_key: 2, delete_key: 20, value: value(2), ts: 4 * tick },
                WalRecord::Batch {
                    id: None,
                    ops: vec![
                        BatchOp::Put { sort_key: 3, delete_key: 30, value: value(3) },
                        BatchOp::DeleteRange { start: 3, end: 4 },
                    ],
                    ts: 5 * tick,
                },
            ]
        );
        assert_eq!(t.clock().now(), 5 * tick);
    }
}
