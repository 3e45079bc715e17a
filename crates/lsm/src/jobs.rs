//! Maintenance jobs: one shape for every flush and compaction.
//!
//! The paper describes compaction as two *decisions* (trigger and file
//! selection, §4.1.3–4.1.4 — the [`CompactionPolicy`](crate::compaction::CompactionPolicy)
//! seam) over one *mechanism*: merge the picked files with what they overlap
//! in the target level and persist tombstones that reach the last level.
//! [`JobPlan`] is that mechanism's only description: an optional pinned
//! frozen buffer, the ordered list of files the job reads and retires, a
//! placement for the run it builds, and the merge parameters. The `plan_*`
//! functions hold the rules (destination level, contiguity of runs, which
//! merges may persist tombstones, the snapshot gate) and return the struct;
//! [`JobPlan::execute`] and [`LsmTree::apply_job`] each have one body.
//! ARCHITECTURE.md ("One job shape") tabulates what each kind of job reads,
//! where it places its output and which counters it moves.
//!
//! Both purposes of the mechanism can be absent. A leveled job bound for the
//! next level is a **trivial move** when (a) no file of the destination run
//! overlaps a source file, so there is nothing to reconcile, and (b) arriving
//! there would not have persisted a tombstone (no source holds one, or the
//! destination lies above the deepest level), so there is nothing to drop.
//! A file's level is a manifest attribute, not a property of its bytes: the
//! plan then has nothing to merge, `execute` hands back the input objects
//! having read and written no page, and the apply phase re-places them
//! through the same commit as a structure-only manifest edit.
//!
//! Planning and applying need the tree's write serialisation but are cheap
//! pointer work; the expensive execute phase runs against pinned immutable
//! state and needs no lock at all. It runs on two threads: the caller's
//! thread reads and merges the inputs and weaves the output's pages, and a
//! scoped build thread writes them and assembles the files (see
//! [`JobPlan::execute`]). Peak memory is one delete tile per input, the
//! output tile being cut and a bounded number of woven pages in flight
//! between the two.

use crate::compaction::{CompactionTask, TreeView};
use crate::config::{LsmConfig, MergePolicy};
use crate::cursor::{probe, EntryCursor, MergeIterator, SharedSliceCursor, SsTableCursor};
use crate::level::{Level, Run};
use crate::read::{FrozenBuffer, FrozenEntries};
use crate::sstable::{SsTable, TableWriter, WovenTile};
use crate::tree::{min_opt, LsmTree};
use crate::version::Version;
use lethe_storage::{DeleteKey, Entry, Result, SortKey, StorageBackend, StorageError, Timestamp};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::Arc;

/// Safety bound on back-to-back compactions triggered by a single flush.
const MAX_MAINTENANCE_ROUNDS: usize = 10_000;

/// Everything the lock-free execute phase needs to build output files:
/// captured from the tree at plan time so no lock is held while pages are
/// read, merged and written.
#[derive(Clone)]
pub struct BuildCtx {
    config: LsmConfig,
    backend: Arc<dyn StorageBackend>,
    now: Timestamp,
    next_file_id: Arc<AtomicU64>,
}

/// Where the run a job builds enters the tree.
#[derive(Clone, Copy)]
enum Placement {
    /// The output files join run 0 of `level` (created if the level has no
    /// run left once the inputs are removed).
    JoinRun { level: usize },
    /// The output forms a new run inserted at run index `index` of `level`.
    NewRun { level: usize, index: usize },
}

/// One unit of maintenance work, decided under the write lock against the
/// current version. Executing it performs the expensive I/O without any
/// lock; applying it back under the write lock commits the result atomically
/// (manifest edit + version install).
pub struct JobPlan {
    /// The pinned frozen write buffer a flush persists (shared with the
    /// frozen slot, so planning is a pointer clone).
    buffer: Option<Arc<FrozenBuffer>>,
    /// The files the job reads and retires, newest source first.
    inputs: Vec<Arc<SsTable>>,
    /// Where the built run goes. `None` builds nothing: a whole-file drop
    /// reads and writes zero pages and only retires its inputs.
    placement: Option<Placement>,
    drop_tombstones: bool,
    /// Additionally drops surviving puts whose delete key falls in the range
    /// (the full-tree secondary-delete baseline).
    delete_key_filter: Option<(DeleteKey, DeleteKey)>,
    /// [`VersionSet::installs`](crate::version::VersionSet::installs) when
    /// the plan was taken; the apply phase refuses the job if it moved.
    base: u64,
    /// The policy picked this job because a FADE TTL expired.
    ttl_expired: bool,
    /// The job rewrites the entire tree.
    full_tree: bool,
    /// There is nothing to merge: the output is the inputs themselves,
    /// re-placed (see [`LsmTree::plan_files`] for the two conditions).
    trivial_move: bool,
}

impl JobPlan {
    /// True if this plan persists the frozen write buffer.
    pub fn is_flush(&self) -> bool {
        self.buffer.is_some()
    }

    /// The execute phase: reads the input pages, merges, and builds the
    /// output files on the device. Requires **no** tree lock — all inputs
    /// are immutable (pinned `Arc<SsTable>`s and the pinned frozen buffer)
    /// and the device is thread-safe. The output references freshly written
    /// pages that no version knows about yet; it becomes visible only via
    /// [`LsmTree::apply_job`].
    ///
    /// The work runs as two stages joined by a bounded channel. The **merge
    /// stage**, on the calling thread, reads the input files through lazy
    /// per-tile cursors (cache-bypassing `nofill` reads, like every bulk
    /// maintenance scan), heap-merges them, cuts the stream into tiles and
    /// files, and weaves each tile into encoded pages. The **build stage**,
    /// on one scoped thread, writes those pages (frame, checksum, append),
    /// derives each page's Bloom filter and fences, and assembles the files.
    /// Peak memory is one delete tile per input, the output tile being cut,
    /// and a bounded number of woven pages between the stages — independent
    /// of both the number of input entries and the size of an output file.
    ///
    /// If either stage fails, every page the job wrote is released before
    /// the error returns, output files already finished included.
    pub fn execute(&self, ctx: &BuildCtx) -> Result<JobOutput> {
        let Some(placement) = self.placement else {
            // a whole-file drop reads and writes nothing: the entire effect
            // is the apply phase's version/manifest edit
            return Ok(JobOutput { tables: Vec::new() });
        };
        if self.trivial_move {
            return Ok(JobOutput { tables: self.inputs.clone() });
        }
        let mut cursors: Vec<Box<dyn EntryCursor>> = Vec::with_capacity(1 + self.inputs.len());
        let mut rts = Vec::new();
        let mut oldest = None;
        if let Some(buffer) = &self.buffer {
            // the pinned buffer streams without being copied
            let mut entries =
                SharedSliceCursor::new(FrozenEntries(Arc::clone(buffer)), 0, buffer.entries.len());
            if self.inputs.is_empty() && matches!(placement, Placement::NewRun { .. }) {
                // a buffer that becomes a run of its own has nothing to
                // merge with: it is written as-is (no dedup — the buffer
                // already holds one version per key)
                let (rts, oldest) = (buffer.range_tombstones.clone(), buffer.oldest_tombstone_ts);
                let tables = pipeline(ctx, &mut entries, rts, oldest, None)?;
                return Ok(JobOutput { tables });
            }
            cursors.push(Box::new(entries));
            rts = buffer.range_tombstones.clone();
            oldest = buffer.oldest_tombstone_ts;
        }
        for table in &self.inputs {
            cursors.push(Box::new(SsTableCursor::full(
                Arc::clone(table),
                Arc::clone(&ctx.backend),
                true,
            )));
            rts.extend(table.range_tombstones.iter().cloned());
            oldest = min_opt(oldest, table.meta.oldest_tombstone_ts);
        }
        let (surviving_rts, oldest) =
            if self.drop_tombstones { (Vec::new(), None) } else { (rts.clone(), oldest) };
        let mut merge = MergeIterator::new(cursors, rts, self.drop_tombstones)?;
        let tables = pipeline(ctx, &mut merge, surviving_rts, oldest, self.delete_key_filter)?;
        Ok(JobOutput { tables })
    }
}

/// The output of [`JobPlan::execute`]: freshly built files awaiting
/// [`LsmTree::apply_job`].
pub struct JobOutput {
    tables: Vec<Arc<SsTable>>,
}

/// Pages one message from the merge stage to the build stage carries at
/// least (the tile that reaches the count may take it past). With `h = 1` a
/// tile is a single page, and a message per page would pay a thread
/// wake-up per page.
pub const PAGES_PER_MESSAGE: usize = 8;

/// Messages the channel between the stages holds before the merge stage
/// blocks on it. Counting the message the merge stage is filling, the one
/// the build stage is writing and the written ones waiting to be freed at
/// the merge stage's next send, at most `2 * MESSAGES_IN_FLIGHT + 3`
/// messages of woven pages exist at once.
const MESSAGES_IN_FLIGHT: usize = 2;

/// One step of the woven stream, in stream order.
enum Woven {
    /// The next tile of the file being written.
    Tile(WovenTile),
    /// The tiles sent since the previous cut form file `id`, with these
    /// range tombstones and tombstone age.
    Cut { id: u64, rts: Vec<Entry>, oldest: Option<Timestamp> },
}

/// Streams `source` (sorted, one version per key) into output files through
/// the two-stage pipeline and returns them; see [`JobPlan::execute`]. Drops
/// the puts whose delete key falls in `delete_key_filter` (the full-tree
/// secondary-delete baseline).
///
/// The build stage is the only writer, so page ids are issued in stream
/// order, exactly as one thread would issue them, and the files are
/// byte-identical to [`SsTable::build`] over the same stream cut at the
/// same places. Errors travel both ways: a merge-side error drops the
/// sender, which ends the build stage's loop; a build-side error drops the
/// receiver, which fails the merge stage's next send. Either way the
/// [`TableWriter`] is dropped unfinished and its reservation releases every
/// page the job wrote.
fn pipeline(
    ctx: &BuildCtx,
    source: &mut dyn EntryCursor,
    range_tombstones: Vec<Entry>,
    oldest_tombstone_ts: Option<Timestamp>,
    delete_key_filter: Option<(DeleteKey, DeleteKey)>,
) -> Result<Vec<Arc<SsTable>>> {
    let (tx, rx) = mpsc::sync_channel::<Vec<Woven>>(MESSAGES_IN_FLIGHT);
    let (spent_tx, spent) = mpsc::channel::<Vec<Woven>>();
    let writer = TableWriter::new(ctx.backend.as_ref(), &ctx.config);
    let now = ctx.now;
    std::thread::scope(|scope| {
        let build = std::thread::Builder::new()
            .name("lethe-job-build".into())
            .spawn_scoped(scope, move || build_stage(rx, spent_tx, writer, now))?;
        let merged = MergeStage::new(ctx, tx, &spent, range_tombstones, oldest_tombstone_ts)
            .run(source, delete_key_filter);
        let built = build.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        // the build stage has stopped: free here what it handed back last
        spent.try_iter().for_each(drop);
        // a merge stage stopped by a closed channel reports the build
        // stage's error, which is the cause
        let (writer, tables) = built?;
        merged?;
        writer.finish();
        Ok(tables)
    })
}

/// The build stage: writes each woven tile and assembles a file at each
/// cut, until the merge stage hangs up. Hands the writer back unfinished:
/// only the caller knows whether the merge stage completed.
///
/// Each message goes back on `spent` once written, so that its pages are
/// freed by the merge stage, which allocated them. A buffer freed on
/// another thread goes back to the allocating thread's heap under that
/// heap's lock; freeing every page here cost both stages about a quarter of
/// their time on `ingest_fade`.
fn build_stage(
    rx: Receiver<Vec<Woven>>,
    spent: Sender<Vec<Woven>>,
    mut writer: TableWriter<'_>,
    now: Timestamp,
) -> Result<(TableWriter<'_>, Vec<Arc<SsTable>>)> {
    let mut tables = Vec::new();
    for mut message in rx {
        for woven in &mut message {
            match woven {
                Woven::Tile(tile) => writer.push_tile(tile)?,
                Woven::Cut { id, rts, oldest } => {
                    let rts = std::mem::take(rts);
                    tables.push(Arc::new(writer.cut(*id, rts, now, *oldest)));
                }
            }
        }
        // the merge stage is gone only on an error path, where the pages
        // may as well be freed here
        let _ = spent.send(message);
    }
    Ok((writer, tables))
}

/// The merge stage: cuts the merged stream into output files (each at most
/// `max_pages_per_file` pages) and their tiles, weaves each full tile and
/// sends the woven pages on in batches. File ids come from the shared
/// atomic allocator so concurrent jobs never collide.
///
/// Range tombstones (the small, already-in-memory survivors of the merge)
/// are attached to the output file whose key range their start falls into;
/// the final file absorbs whatever is left, so a stream that ends with
/// range tombstones but no entries still gets a file to hold them.
struct MergeStage<'a> {
    next_file_id: &'a AtomicU64,
    per_file: usize,
    per_tile: usize,
    per_page: usize,
    /// Entries of the tile being cut, in sort-key order.
    tile: Vec<Entry>,
    /// Entries cut into the current file so far.
    file_entries: usize,
    /// The current file holds a tombstone.
    file_tombstones: bool,
    /// Sort key of the current file's last entry.
    last_key: SortKey,
    /// Surviving range tombstones not yet attached, sorted by start key.
    rts_remaining: Vec<Entry>,
    oldest_tombstone_ts: Option<Timestamp>,
    /// Woven steps not sent yet, and how many pages and entries they hold.
    batch: Vec<Woven>,
    batch_pages: usize,
    batch_entries: u64,
    tx: SyncSender<Vec<Woven>>,
    /// Messages the build stage has written, handed back to be freed here.
    spent: &'a Receiver<Vec<Woven>>,
}

impl<'a> MergeStage<'a> {
    fn new(
        ctx: &'a BuildCtx,
        tx: SyncSender<Vec<Woven>>,
        spent: &'a Receiver<Vec<Woven>>,
        mut range_tombstones: Vec<Entry>,
        oldest_tombstone_ts: Option<Timestamp>,
    ) -> Self {
        range_tombstones.sort_by_key(|e| e.sort_key);
        let per_tile = ctx.config.entries_per_tile().max(1);
        MergeStage {
            next_file_id: &ctx.next_file_id,
            per_file: ctx.config.entries_per_file().max(1),
            per_tile,
            per_page: ctx.config.entries_per_page.max(1),
            tile: Vec::with_capacity(per_tile),
            file_entries: 0,
            file_tombstones: false,
            last_key: 0,
            rts_remaining: range_tombstones,
            oldest_tombstone_ts,
            batch: Vec::new(),
            batch_pages: 0,
            batch_entries: 0,
            tx,
            spent,
        }
    }

    /// Drains `source` into the pipeline and cuts the final file. Consumes
    /// the stage, so the channel closes when this returns.
    fn run(
        mut self,
        source: &mut dyn EntryCursor,
        delete_key_filter: Option<(DeleteKey, DeleteKey)>,
    ) -> Result<()> {
        while let Some(e) = source.next_entry()? {
            if let Some((d_lo, d_hi)) = delete_key_filter {
                if !e.is_tombstone() && e.delete_key >= d_lo && e.delete_key < d_hi {
                    continue;
                }
            }
            self.push(e)?;
        }
        self.cut(true)?;
        self.send()
    }

    /// Appends the next entry of the stream (must arrive in sort-key
    /// order), cutting a file when one is full and weaving a tile when one
    /// is.
    fn push(&mut self, e: Entry) -> Result<()> {
        if self.file_entries >= self.per_file {
            self.cut(false)?;
        }
        probe::add(1);
        self.file_tombstones |= e.is_tombstone();
        self.last_key = e.sort_key;
        self.tile.push(e);
        self.file_entries += 1;
        if self.tile.len() >= self.per_tile {
            self.weave()?;
        }
        Ok(())
    }

    /// Weaves the tile being cut into pages and queues them; sends the
    /// batch once it holds [`PAGES_PER_MESSAGE`] pages.
    fn weave(&mut self) -> Result<()> {
        let tile = WovenTile::weave(&self.tile, self.per_page);
        self.batch_entries += self.tile.len() as u64;
        self.tile.clear();
        self.batch_pages += tile.page_count();
        self.batch.push(Woven::Tile(tile));
        if self.batch_pages >= PAGES_PER_MESSAGE {
            self.send()?;
        }
        Ok(())
    }

    /// Ends the current file. A non-final file takes the pending range
    /// tombstones starting within its key range; the final file absorbs all
    /// that remain.
    fn cut(&mut self, last: bool) -> Result<()> {
        if !self.tile.is_empty() {
            self.weave()?;
        }
        // nothing to build — except a final rts-only file when point entries
        // ran out but surviving range tombstones remain
        let rts_only_file = last && !self.rts_remaining.is_empty();
        if self.file_entries == 0 && !rts_only_file {
            return Ok(());
        }
        let rts: Vec<Entry> = if last {
            std::mem::take(&mut self.rts_remaining)
        } else {
            let split = self.rts_remaining.partition_point(|rt| rt.sort_key <= self.last_key);
            let keep = self.rts_remaining.split_off(split);
            std::mem::replace(&mut self.rts_remaining, keep)
        };
        let has_tombstones = !rts.is_empty() || self.file_tombstones;
        let oldest = if has_tombstones { self.oldest_tombstone_ts } else { None };
        let id = self.next_file_id.fetch_add(1, Ordering::Relaxed);
        self.batch.push(Woven::Cut { id, rts, oldest });
        self.file_entries = 0;
        self.file_tombstones = false;
        Ok(())
    }

    /// Hands the batch to the build stage, blocking while the channel is
    /// full, after freeing the messages the build stage has written (the
    /// last one's vector becomes the next batch). Fails once the build
    /// stage has stopped.
    fn send(&mut self) -> Result<()> {
        if self.batch.is_empty() {
            return Ok(());
        }
        probe::sub(std::mem::take(&mut self.batch_entries));
        self.batch_pages = 0;
        let mut next = Vec::new();
        for mut spent in self.spent.try_iter() {
            spent.clear();
            next = spent;
        }
        let batch = std::mem::replace(&mut self.batch, next);
        self.tx.send(batch).map_err(|_| {
            StorageError::InvalidOperation("the job's build stage stopped".into())
        })
    }
}

impl LsmTree {
    /// Flushes the write buffer (frozen remainder first, then the active
    /// buffer) to the first disk level. A no-op when nothing is buffered.
    ///
    /// Durability ordering: the flushed files' pages are synced and a
    /// manifest edit describing the new tree state is committed **before**
    /// the WAL records it covers are discarded, so at no instant is an
    /// acknowledged write covered by neither log.
    pub fn flush(&mut self) -> Result<()> {
        if self.has_frozen() {
            let plan = self.plan_flush();
            self.run_job(plan)?;
        }
        if self.freeze()? {
            let plan = self.plan_flush();
            self.run_job(plan)?;
        }
        Ok(())
    }

    /// Runs the compaction loop inline: repeatedly asks the policy for work
    /// until it reports none is needed.
    pub fn maintain(&mut self) -> Result<()> {
        for _ in 0..MAX_MAINTENANCE_ROUNDS {
            let plan = self.plan_compaction();
            if !self.run_job(plan)? {
                break;
            }
        }
        Ok(())
    }

    /// Forces a full-tree compaction (reads, merges and rewrites every file
    /// into the last level). This is the operation Lethe is designed to make
    /// unnecessary; it is exposed for the baselines and experiments.
    pub fn force_full_compaction(&mut self) -> Result<()> {
        self.full_tree_compaction_filtered(None)
    }

    pub(crate) fn full_tree_compaction_filtered(
        &mut self,
        delete_key_range: Option<(DeleteKey, DeleteKey)>,
    ) -> Result<()> {
        let plan = self.plan_full(delete_key_range);
        self.run_job(plan)?;
        Ok(())
    }

    /// The inline job cycle: execute `plan` and apply it. Returns `false`
    /// when there was nothing to do or the plan was refused as stale.
    fn run_job(&mut self, plan: Option<JobPlan>) -> Result<bool> {
        let Some(plan) = plan else {
            return Ok(false);
        };
        let out = plan.execute(&self.build_ctx())?;
        self.apply_job(plan, out)
    }

    /// Captures the context the lock-free execute phase needs.
    pub fn build_ctx(&self) -> BuildCtx {
        BuildCtx {
            config: self.config.clone(),
            backend: Arc::clone(&self.backend),
            now: self.clock.now(),
            next_file_id: Arc::clone(&self.next_file_id),
        }
    }

    /// Plans the next unit of maintenance work, flush first: the frozen
    /// buffer if one is waiting (when `include_flush`), otherwise whatever
    /// compaction the policy picks. Returns `None` when the tree needs no
    /// work right now. The plan pins its inputs; execute it without the
    /// lock via [`JobPlan::execute`] and commit with [`LsmTree::apply_job`].
    pub fn plan_job(&mut self, include_flush: bool) -> Option<JobPlan> {
        if include_flush {
            if let Some(p) = self.plan_flush() {
                return Some(p);
            }
        }
        self.plan_compaction()
    }

    /// True while a live snapshot pins history older than the newest write.
    /// Conservative fence: the current `next_seqnum` — any snapshot taken
    /// before the latest write blocks drops, and a snapshot with no writes
    /// after it (which already observes every tombstone) does not.
    fn tombstone_gc_gated(&self) -> bool {
        !self.snapshots.may_drop_tombstones(self.next_seqnum.load(Ordering::Relaxed))
    }

    /// Applies the snapshot gate to a planned job's tombstone-drop decision,
    /// counting each suppression so the delete-persistence accounting can
    /// show that `D_th` was deliberately suspended rather than violated.
    fn gate_tombstone_drop(&mut self, want_drop: bool) -> bool {
        if want_drop && self.tombstone_gc_gated() {
            self.stats.tombstone_gc_delayed += 1;
            return false;
        }
        want_drop
    }

    /// A job over `inputs` planned against the current version; callers set
    /// what distinguishes their job on top of it.
    fn new_plan(
        &self,
        inputs: Vec<Arc<SsTable>>,
        placement: Option<Placement>,
        drop_tombstones: bool,
    ) -> JobPlan {
        JobPlan {
            buffer: None,
            inputs,
            placement,
            drop_tombstones,
            delete_key_filter: None,
            base: self.versions.installs(),
            ttl_expired: false,
            full_tree: false,
            trivial_move: false,
        }
    }

    fn plan_flush(&mut self) -> Option<JobPlan> {
        let buffer = Arc::clone(self.mem.frozen.read().as_ref()?);
        let version = self.versions.current();
        let (resident, placement, drop_tombstones) =
            if self.config.merge_policy == MergePolicy::Tiering {
                // the flushed buffer becomes a fresh run (newest first)
                (Vec::new(), Placement::NewRun { level: 0, index: 0 }, false)
            } else {
                // greedy sort-merge with the resident run of level 1
                let resident: Vec<Arc<SsTable>> = version
                    .levels
                    .first()
                    .map(|l| l.all_tables().cloned().collect())
                    .unwrap_or_default();
                let drop = version.deepest_nonempty_level().is_none_or(|d| d == 0);
                (resident, Placement::JoinRun { level: 0 }, drop)
            };
        let drop_tombstones = self.gate_tombstone_drop(drop_tombstones);
        Some(JobPlan {
            buffer: Some(buffer),
            ..self.new_plan(resident, Some(placement), drop_tombstones)
        })
    }

    fn plan_compaction(&mut self) -> Option<JobPlan> {
        let version = self.versions.current();
        let task = {
            let view = TreeView {
                levels: &version.levels,
                capacities: (0..version.levels.len())
                    .map(|i| self.config.level_capacity_bytes(i + 1))
                    .collect(),
                now: self.clock.now(),
                config: &self.config,
                sort_key_histogram: &self.sort_key_histogram,
                tombstone_gc_gated: self.tombstone_gc_gated(),
            };
            self.policy.pick(&view)?
        };
        match task {
            CompactionTask::LeveledMulti { level, file_ids, ttl_expired } => {
                let plan = self.plan_files(&version, level, &file_ids)?;
                Some(JobPlan { ttl_expired, ..plan })
            }
            CompactionTask::TieredLevel { level, ttl_expired } => {
                let victims: Vec<Arc<SsTable>> =
                    version.levels.get(level)?.all_tables().cloned().collect();
                if victims.is_empty() {
                    return None;
                }
                // Tiering merges only the source level's runs; runs already
                // resident in deeper levels are not part of the merge, so
                // tombstones may only be discarded when *nothing* exists at
                // the destination level or below — otherwise an older
                // version they cover could resurface.
                let deepest_other = (0..version.levels.len())
                    .rev()
                    .find(|&i| i != level && !version.levels[i].is_empty());
                let drop_tombstones =
                    self.gate_tombstone_drop(deepest_other.is_none_or(|d| d < level + 1));
                let placement = Placement::NewRun { level: level + 1, index: 0 };
                Some(JobPlan {
                    ttl_expired,
                    ..self.new_plan(victims, Some(placement), drop_tombstones)
                })
            }
            CompactionTask::MergeRuns { level, file_ids } => {
                self.plan_merge_runs(&version, level, &file_ids)
            }
            CompactionTask::DropFiles { file_ids } => self.plan_drop_files(&version, &file_ids),
            CompactionTask::FullTree => self.plan_full(None),
        }
    }

    /// Plans a tiered subset merge: whole runs of `level`, contiguous in its
    /// run list and jointly holding exactly `file_ids`, merged into one run
    /// that replaces them in place. Rejects partial runs and non-adjacent
    /// selections — merging around a surviving run of intermediate recency
    /// would invert the version order reads depend on.
    fn plan_merge_runs(
        &mut self,
        version: &Version,
        level: usize,
        file_ids: &[u64],
    ) -> Option<JobPlan> {
        if file_ids.is_empty() {
            return None;
        }
        let l = version.levels.get(level)?;
        let want: HashSet<u64> = file_ids.iter().copied().collect();
        let mut picked: Vec<usize> = Vec::new();
        for (i, run) in l.runs.iter().enumerate() {
            let selected = run.tables().iter().filter(|t| want.contains(&t.meta.id)).count();
            if selected == 0 {
                continue;
            }
            if selected != run.len() {
                return None; // partial run selected
            }
            picked.push(i);
        }
        let (start, end) = (*picked.first()?, *picked.last()? + 1);
        if picked.len() != end - start {
            return None; // non-adjacent runs selected
        }
        let covered: usize = picked.iter().map(|&i| l.runs[i].len()).sum();
        if covered != want.len() {
            return None; // some wanted id is not in this level
        }
        let victims: Vec<Arc<SsTable>> =
            l.runs[start..end].iter().flat_map(|r| r.tables().iter().cloned()).collect();
        // The merge may persist tombstones only when it covers the oldest
        // data of the tree: the segment reaches the level's oldest run and
        // every deeper level is empty.
        let oldest = end == l.runs.len()
            && version.levels.iter().skip(level + 1).all(|deeper| deeper.is_empty());
        let drop_tombstones = self.gate_tombstone_drop(oldest);
        // the merged run takes the segment's position, preserving the
        // level's recency order around it
        let placement = Placement::NewRun { level, index: start };
        Some(self.new_plan(victims, Some(placement), drop_tombstones))
    }

    /// Plans a whole-file drop of `file_ids`, resolved across all levels.
    /// Routed through the snapshot gate: while a live snapshot pins history
    /// the plan is refused and the delay is counted in
    /// `TreeStats::tombstone_gc_delayed` — the expired files stay in place
    /// (and readable) until the snapshot is released.
    fn plan_drop_files(&mut self, version: &Version, file_ids: &[u64]) -> Option<JobPlan> {
        if file_ids.is_empty() {
            return None;
        }
        let victims: Vec<Arc<SsTable>> = file_ids
            .iter()
            .filter_map(|id| {
                version
                    .levels
                    .iter()
                    .find_map(|l| l.runs.iter().find_map(|r| r.find_by_id(*id).map(Arc::clone)))
            })
            .collect();
        if victims.len() != file_ids.len() {
            return None;
        }
        // A drop erases data versions outright, which is only invisible to
        // readers because the TTL already expired them; a held snapshot must
        // still see the expired window, so the gate defers the whole job.
        if !self.gate_tombstone_drop(true) {
            return None;
        }
        Some(self.new_plan(victims, None, false))
    }

    /// Plans a leveling compaction of `file_ids` out of `level`, mirroring
    /// FADE's placement rules: TTL-driven jobs on an unsaturated deepest
    /// level rewrite in place, everything else spills to `level + 1`.
    ///
    /// A job bound for `level + 1` is a *trivial move* — same inputs, same
    /// placement, nothing to merge — when both things a rewrite exists for
    /// are absent:
    ///
    /// * no file of the destination run overlaps a source file (the bounds
    ///   [`SsTable::overlaps_table`] compares cover range-tombstone spans),
    ///   so the sources can join the run as they are and no key has two
    ///   versions to reconcile;
    /// * arriving would not have persisted a tombstone: no source holds one,
    ///   or the destination lies above the deepest non-empty level.
    ///   Otherwise the rewrite is what drops the tombstones, and moving the
    ///   file would park them in the last level past their `D_th`. The
    ///   question is asked by position, not through the snapshot gate: a
    ///   gated rewrite that must keep its tombstones stays a rewrite.
    ///
    /// A multi-file pick moves only if every source qualifies; the moved
    /// files land exactly where the rewrite would have put their entries.
    fn plan_files(&mut self, version: &Version, level: usize, file_ids: &[u64]) -> Option<JobPlan> {
        let mut inputs: Vec<Arc<SsTable>> = {
            let run = version.levels.get(level)?.runs.first()?;
            file_ids.iter().filter_map(|id| run.find_by_id(*id).map(Arc::clone)).collect()
        };
        if inputs.is_empty() {
            return None;
        }
        let deepest = version.deepest_nonempty_level().unwrap_or(level);
        // Files picked from the deepest level while that level still has
        // headroom are being compacted only to persist their tombstones (a
        // TTL-driven compaction): rewrite them in place instead of growing
        // the tree by a level. A saturated deepest level still spills down.
        let saturated =
            version.levels[level].total_bytes() > self.config.level_capacity_bytes(level + 1);
        let dst_level = if level == deepest && !saturated { level } else { level + 1 };
        let persists_tombstones = dst_level >= deepest;

        let mut trivial_move = false;
        if dst_level != level {
            let run = version.levels.get(dst_level).and_then(|l| l.runs.first());
            let overlapping: Vec<Arc<SsTable>> = run
                .into_iter()
                .flat_map(|run| run.tables())
                .filter(|t| inputs.iter().any(|s| t.overlaps_table(s)))
                .cloned()
                .collect();
            trivial_move = overlapping.is_empty()
                && !(persists_tombstones && inputs.iter().any(|s| s.has_tombstones()));
            inputs.extend(overlapping);
        }

        // a move merges nothing, so it neither drops nor delays tombstones
        let drop_tombstones = !trivial_move && self.gate_tombstone_drop(persists_tombstones);
        let placement = Placement::JoinRun { level: dst_level };
        Some(JobPlan { trivial_move, ..self.new_plan(inputs, Some(placement), drop_tombstones) })
    }

    fn plan_full(&mut self, delete_key_filter: Option<(DeleteKey, DeleteKey)>) -> Option<JobPlan> {
        let version = self.versions.current();
        let deepest = version.deepest_nonempty_level()?;
        let victims: Vec<Arc<SsTable>> =
            version.levels.iter().flat_map(|l| l.all_tables().cloned()).collect();
        let drop_tombstones = self.gate_tombstone_drop(true);
        let placement = Placement::NewRun { level: deepest, index: 0 };
        Some(JobPlan {
            delete_key_filter,
            full_tree: true,
            ..self.new_plan(victims, Some(placement), drop_tombstones)
        })
    }

    /// Commits an executed job: removes the inputs from a copy of the
    /// current levels, places the output, commits the manifest edit,
    /// installs the new version (one atomic pointer swap — readers see the
    /// old or the new tree, never a mixture), retires the inputs for
    /// deferred page reclamation, and — for flushes — clears the frozen
    /// buffer and discards the covered WAL prefix, which needs the commit's
    /// [`ManifestCommitted`](lethe_storage::ManifestCommitted) witness. A
    /// trivial move takes the
    /// same steps with the inputs as its output: they leave one run and join
    /// another, and the commit registers and retires nothing.
    ///
    /// Returns `false` (and releases the output's pages) if a version was
    /// installed since the plan was taken. Versions are only installed here
    /// and by a secondary range delete, both under `&mut self`, so an
    /// unchanged install counter proves the current version is the very one
    /// the plan pinned its inputs from: every input is still in place, *as
    /// the object the job read* (a secondary range delete replaces a file
    /// under its old id, which no id comparison could tell apart), and the
    /// placement indices still mean what they meant. One worker per tree and
    /// paused workers around foreground structural operations make refusals
    /// rare; when the discipline slips, the cost is wasted work, never
    /// resurrected data.
    pub fn apply_job(&mut self, plan: JobPlan, out: JobOutput) -> Result<bool> {
        let JobPlan { buffer, inputs, placement, base, ttl_expired, full_tree, trivial_move, .. } =
            plan;
        // A flush plan is only current while the frozen slot holds the very
        // buffer it pinned: a secondary range delete purges the slot through
        // `Arc::make_mut`, which copies when a plan shares it, and on an
        // empty tree installs no version for the counter to notice.
        let buffer_in_place = buffer.as_ref().is_none_or(|planned| {
            self.mem.frozen.read().as_ref().is_some_and(|held| Arc::ptr_eq(held, planned))
        });
        if self.versions.installs() != base || !buffer_in_place {
            self.abort_output(out);
            return Ok(false);
        }
        // `current` stays pinned until this function returns, so the GC pass
        // of this commit skips the inputs it still references and the next
        // pass reclaims them; dropping the pin earlier would reorder page
        // reuse on the device.
        let current = self.versions.current();
        let mut levels = current.levels.clone();
        let ids: Vec<u64> = inputs.iter().map(|t| t.meta.id).collect();
        for level in &mut levels {
            for run in &mut level.runs {
                run.remove_ids(&ids);
            }
            level.prune_empty_runs();
        }
        let placed = out.tables;
        if let Some(placement) = placement {
            let (Placement::JoinRun { level } | Placement::NewRun { level, .. }) = placement;
            if levels.len() <= level {
                levels.resize_with(level + 1, Level::new);
            }
            let runs = &mut levels[level].runs;
            match placement {
                _ if placed.is_empty() => {}
                Placement::NewRun { index, .. } => runs.insert(index, Run::new(placed.clone())),
                Placement::JoinRun { .. } if runs.is_empty() => runs.push(Run::new(placed.clone())),
                Placement::JoinRun { .. } => runs[0].add_tables(placed.clone()),
            }
        }
        // A moved file is the same object in the old version and the new:
        // the commit has nothing to register and nothing to retire, and its
        // manifest delta is the level structure alone.
        let data_bytes = |files: &[Arc<SsTable>]| files.iter().map(|t| t.meta.data_bytes).sum::<u64>();
        let (new_tables, inputs, bytes_moved) =
            if trivial_move { (Vec::new(), Vec::new(), data_bytes(&placed)) } else { (placed, inputs, 0) };
        let written = data_bytes(&new_tables);
        let input_entries: u64 = inputs.iter().map(|t| t.meta.num_entries).sum();
        let dropped_files = inputs.len() as u64;
        let committed = self.commit_version(levels, &new_tables, inputs)?;
        if let Some(buffer) = buffer {
            *self.mem.frozen.write() = None;
            self.stats.flushes += 1;
            self.stats.bytes_flushed += written;
            self.wal.truncate_prefix(buffer.wal_upto, &committed)?;
        } else if placement.is_none() {
            self.stats.whole_file_drops += dropped_files;
        } else {
            self.stats.compactions += 1;
            self.stats.full_tree_compactions += u64::from(full_tree);
            self.stats.ttl_triggered_compactions += u64::from(ttl_expired);
            self.stats.entries_compacted += input_entries;
            self.stats.bytes_compacted += written;
            self.stats.trivial_moves += u64::from(trivial_move);
            self.stats.bytes_moved += bytes_moved;
        }
        Ok(true)
    }

    /// Releases the pages of a job output that will never be installed
    /// (skipping any page shared with a live, registered table — which is
    /// every page of a refused move's output: the plan still pins its
    /// inputs, so the version set has not let go of them).
    fn abort_output(&self, out: JobOutput) {
        for t in out.tables {
            self.versions.release_unregistered_pages(&t, self.backend.as_ref());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compaction::{CompactionPolicy, FileSelection, SaturationPolicy};
    use crate::config::SecondaryDeleteMode;
    use crate::stats::TreeStats;
    use crate::strategy::{DateTieredPolicy, SizeTieredPolicy};
    use crate::cursor::VecCursor;
    use crate::tree::MaintenanceMode;
    use bytes::Bytes;
    use lethe_storage::{
        FaultVfs, FileBackend, FileWal, IoStats, LogicalClock, Manifest, MemVfs, Page, PageId,
        Vfs,
    };
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};
    use std::path::Path;

    type Oracle = BTreeMap<u64, Bytes>;
    /// File ids per `(level, run index)`.
    type Layout = Vec<Vec<BTreeSet<u64>>>;

    const KEYS: u64 = 4096;

    fn value(k: u64) -> Bytes {
        Bytes::from(format!("value-{k:08}"))
    }

    /// A tree whose maintenance the test drives job by job: puts only freeze.
    fn tree(cfg: LsmConfig, policy: Box<dyn CompactionPolicy>) -> LsmTree {
        let mut t = LsmTree::in_memory(cfg, policy).unwrap();
        t.set_maintenance_mode(MaintenanceMode::Background);
        t
    }

    fn saturation() -> Box<dyn CompactionPolicy> {
        Box::new(SaturationPolicy::new(FileSelection::MinOverlap))
    }

    fn tiering(size_ratio: usize) -> LsmConfig {
        LsmConfig { merge_policy: MergePolicy::Tiering, size_ratio, ..LsmConfig::small_for_test() }
    }

    fn layout(t: &LsmTree) -> Layout {
        let ids = |r: &Run| r.tables().iter().map(|f| f.meta.id).collect();
        t.versions.current().levels.iter().map(|l| l.runs.iter().map(ids).collect()).collect()
    }

    fn ids(files: &[Arc<SsTable>]) -> BTreeSet<u64> {
        files.iter().map(|f| f.meta.id).collect()
    }

    fn all_ids(l: &[Vec<BTreeSet<u64>>]) -> BTreeSet<u64> {
        l.iter().flatten().flatten().copied().collect()
    }

    fn run(t: &mut LsmTree, plan: JobPlan) -> bool {
        let out = plan.execute(&t.build_ctx()).unwrap();
        t.apply_job(plan, out).unwrap()
    }

    fn flush_frozen(t: &mut LsmTree) {
        let plan = t.plan_job(true).expect("a frozen buffer plans a flush");
        assert!(plan.is_flush());
        assert!(run(t, plan));
    }

    /// Puts `keys` (delete key = `dk(key)`), flushing whenever the buffer
    /// freezes.
    fn put_all(
        t: &mut LsmTree,
        oracle: &mut Oracle,
        keys: impl IntoIterator<Item = u64>,
        dk: impl Fn(u64) -> u64,
    ) {
        for k in keys {
            t.put(k, dk(k), value(k)).unwrap();
            oracle.insert(k, value(k));
            if t.has_frozen() {
                flush_frozen(t);
            }
        }
    }

    /// Freezes and flushes whatever the active buffer holds.
    fn flush_active(t: &mut LsmTree) {
        assert!(t.freeze().unwrap());
        flush_frozen(t);
    }

    /// Ingests scattered keys, running every compaction the policy asks for,
    /// until one satisfies `wanted`; returns it unexecuted.
    fn grow_until(
        t: &mut LsmTree,
        oracle: &mut Oracle,
        wanted: impl Fn(&LsmTree, &JobPlan) -> bool,
    ) -> JobPlan {
        for i in 0..20 * KEYS {
            put_all(t, oracle, [(i * 7919) % KEYS], |k| k);
            while let Some(plan) = t.plan_job(false) {
                if wanted(t, &plan) {
                    return plan;
                }
                assert!(run(t, plan));
            }
        }
        panic!("the policy never proposed the wanted job");
    }

    fn assert_reads(t: &LsmTree, oracle: &Oracle, context: &str) {
        for k in 0..KEYS {
            assert_eq!(t.get(k).unwrap(), oracle.get(&k).cloned(), "{context}: key {k}");
        }
    }

    /// Every `u64` counter of [`TreeStats`] that differs between two reads.
    fn moved(before: &TreeStats, after: &TreeStats) -> BTreeMap<&'static str, u64> {
        let fields = |s: &TreeStats| {
            [
                ("flushes", s.flushes),
                ("compactions", s.compactions),
                ("full_tree_compactions", s.full_tree_compactions),
                ("ttl_triggered_compactions", s.ttl_triggered_compactions),
                ("entries_compacted", s.entries_compacted),
                ("bytes_ingested", s.bytes_ingested),
                ("entries_ingested", s.entries_ingested),
                ("point_deletes_issued", s.point_deletes_issued),
                ("range_deletes_issued", s.range_deletes_issued),
                ("blind_deletes_suppressed", s.blind_deletes_suppressed),
                ("secondary_range_deletes", s.secondary_range_deletes),
                ("tombstone_gc_delayed", s.tombstone_gc_delayed),
                ("bytes_flushed", s.bytes_flushed),
                ("bytes_compacted", s.bytes_compacted),
                ("whole_file_drops", s.whole_file_drops),
                ("trivial_moves", s.trivial_moves),
                ("bytes_moved", s.bytes_moved),
            ]
        };
        fields(before)
            .into_iter()
            .zip(fields(after))
            .filter(|((_, b), (_, a))| a != b)
            .map(|((name, b), (_, a))| (name, a - b))
            .collect()
    }

    /// Applies `plan` and checks that exactly what it described was
    /// committed: inputs gone, output at its placement, everything else in
    /// place; only the job kind's counters moved; reads match the oracle;
    /// no page is leaked or lost. A merge that drops tombstones builds files
    /// without any; a move touches no page and installs the objects it took.
    fn commits_what_it_planned(name: &str, t: &mut LsmTree, oracle: &Oracle, plan: JobPlan) {
        // earlier jobs' inputs are reclaimed one job late: not this job's I/O
        t.versions.collect_garbage(t.backend.as_ref());
        let before = layout(t);
        let stats_before = t.stats();
        let io_before = t.io_snapshot();
        let (flush, placement) = (plan.is_flush(), plan.placement);
        let (ttl_expired, full_tree) = (plan.ttl_expired, plan.full_tree);
        let (trivial_move, drop_tombstones) = (plan.trivial_move, plan.drop_tombstones);
        let sources = plan.inputs.clone();
        let inputs = ids(&sources);
        let input_entries: u64 = sources.iter().map(|f| f.meta.num_entries).sum();
        assert!(inputs.is_subset(&all_ids(&before)), "{name}: inputs come from the tree");
        assert!(run(t, plan), "{name}: a fresh plan applies");
        let io = t.io_snapshot().since(&io_before);

        let after = layout(t);
        let built: BTreeSet<u64> = all_ids(&after).difference(&all_ids(&before)).copied().collect();
        let placed = if trivial_move { &inputs } else { &built };
        let mut expected: Layout = before
            .iter()
            .map(|l| {
                l.iter()
                    .map(|r| r.difference(&inputs).copied().collect::<BTreeSet<u64>>())
                    .filter(|r| !r.is_empty())
                    .collect()
            })
            .collect();
        match placement {
            Some(Placement::JoinRun { level }) => {
                expected.resize(expected.len().max(level + 1), Vec::new());
                if expected[level].is_empty() && !placed.is_empty() {
                    expected[level].push(BTreeSet::new());
                }
                if let Some(run) = expected[level].first_mut() {
                    run.extend(placed);
                }
            }
            Some(Placement::NewRun { level, index }) => {
                expected.resize(expected.len().max(level + 1), Vec::new());
                if !placed.is_empty() {
                    expected[level].insert(index, placed.clone());
                }
            }
            None => assert!(built.is_empty(), "{name}: a job placed nowhere builds nothing"),
        }
        assert_eq!(after, expected, "{name}: committed layout");

        let files: Vec<Arc<SsTable>> =
            t.versions.current().levels.iter().flat_map(|l| l.all_tables().cloned()).collect();
        let built_files = || files.iter().filter(|f| built.contains(&f.meta.id));
        let written: u64 = built_files().map(|f| f.meta.data_bytes).sum();
        let mut counters = if flush {
            BTreeMap::from([("flushes", 1), ("bytes_flushed", written)])
        } else if placement.is_none() {
            BTreeMap::from([("whole_file_drops", inputs.len() as u64)])
        } else if trivial_move {
            BTreeMap::from([
                ("compactions", 1),
                ("trivial_moves", 1),
                ("bytes_moved", sources.iter().map(|f| f.meta.data_bytes).sum()),
                ("ttl_triggered_compactions", u64::from(ttl_expired)),
            ])
        } else {
            BTreeMap::from([
                ("compactions", 1),
                ("entries_compacted", input_entries),
                ("bytes_compacted", written),
                ("ttl_triggered_compactions", u64::from(ttl_expired)),
                ("full_tree_compactions", u64::from(full_tree)),
            ])
        };
        counters.retain(|_, v| *v != 0);
        assert_eq!(moved(&stats_before, &t.stats()), counters, "{name}: counters");
        assert!(!flush || !t.has_frozen(), "{name}: a flush clears the frozen slot");
        if drop_tombstones {
            assert!(built_files().all(|f| !f.has_tombstones()), "{name}: tombstones persisted");
        }
        if trivial_move {
            assert!(built.is_empty(), "{name}: a move builds nothing");
            assert_eq!(
                (io.pages_read, io.pages_written, io.pages_dropped),
                (0, 0, 0),
                "{name}: a move touches no page"
            );
            for source in &sources {
                assert!(
                    files.iter().any(|f| Arc::ptr_eq(f, source)),
                    "{name}: file {} was installed as the object the plan took",
                    source.meta.id
                );
            }
        }

        assert_reads(t, oracle, name);
        drop(sources); // the last pins on the retired inputs
        t.versions.collect_garbage(t.backend.as_ref());
        let referenced: BTreeSet<PageId> = files
            .iter()
            .flat_map(|f| f.tiles.iter().flat_map(|tile| tile.pages.iter().map(|p| p.id)))
            .collect();
        assert_eq!(t.backend.live_pages(), referenced.len(), "{name}: live pages");
    }

    /// A policy that proposes exactly the tasks it is handed (FADE lives in
    /// `lethe-core`; the TTL row scripts the task its trigger emits).
    struct Scripted(Vec<CompactionTask>);

    impl CompactionPolicy for Scripted {
        fn pick(&mut self, _: &TreeView<'_>) -> Option<CompactionTask> {
            self.0.pop()
        }
    }

    /// A tree holding one block of keys in each of the levels `1..=deepest`
    /// (each large enough to saturate the level it leaves, so it spills
    /// instead of being rewritten in place) and, in level 0, a
    /// tombstone-bearing file that overlaps none of them; returns the plan
    /// of the TTL task sending that file one level down.
    fn tombstone_file_over(deepest: usize) -> (LsmTree, Oracle, JobPlan) {
        let cfg = LsmConfig { size_ratio: 2, ..LsmConfig::small_for_test() };
        let (mut t, mut o) = (tree(cfg, Box::new(Scripted(Vec::new()))), Oracle::new());
        let descend = |t: &mut LsmTree, level: usize, ttl_expired: bool| {
            let file_ids = t.levels()[level].all_tables().map(|f| f.meta.id).collect();
            let task = CompactionTask::LeveledMulti { level, file_ids, ttl_expired };
            t.policy = Box::new(Scripted(vec![task]));
            t.plan_job(true).unwrap()
        };
        for (block, depth) in (1..=deepest).rev().enumerate() {
            let base = 1_000 * block as u64;
            put_all(&mut t, &mut o, base..base + 256, |k| k);
            flush_active(&mut t);
            for level in 0..depth {
                let plan = descend(&mut t, level, false);
                assert!(plan.trivial_move && run(&mut t, plan));
            }
        }
        put_all(&mut t, &mut o, 500..512, |k| k);
        for k in [501, 505] {
            t.delete(k).unwrap();
            o.remove(&k);
        }
        flush_active(&mut t);
        let plan = descend(&mut t, 0, true);
        (t, o, plan)
    }

    #[test]
    fn every_job_shape_commits_the_layout_it_planned() {
        type Row = (&'static str, fn() -> (LsmTree, Oracle, JobPlan), fn(&JobPlan, &Layout));
        let rows: [Row; 11] = [
            (
                "flush, leveling",
                || {
                    let (mut t, mut o) = (tree(LsmConfig::small_for_test(), saturation()), Oracle::new());
                    put_all(&mut t, &mut o, 0..64, |k| k);
                    flush_active(&mut t);
                    put_all(&mut t, &mut o, 8..16, |k| k);
                    assert!(t.freeze().unwrap());
                    let plan = t.plan_job(true).unwrap();
                    (t, o, plan)
                },
                |plan, before| {
                    assert!(plan.is_flush());
                    assert!(matches!(plan.placement, Some(Placement::JoinRun { level: 0 })));
                    assert!(!before[0].is_empty());
                    assert_eq!(ids(&plan.inputs), all_ids(&before[..1]));
                },
            ),
            (
                "flush, tiering",
                || {
                    let (mut t, mut o) = (tree(tiering(4), saturation()), Oracle::new());
                    put_all(&mut t, &mut o, 0..64, |k| k);
                    flush_active(&mut t);
                    put_all(&mut t, &mut o, 8..16, |k| k);
                    assert!(t.freeze().unwrap());
                    let plan = t.plan_job(true).unwrap();
                    (t, o, plan)
                },
                |plan, before| {
                    assert!(plan.is_flush() && plan.inputs.is_empty());
                    assert!(matches!(plan.placement, Some(Placement::NewRun { level: 0, index: 0 })));
                    assert!(!before[0].is_empty(), "the new run goes in front of older ones");
                },
            ),
            (
                "saturation, files into the next level",
                || {
                    let cfg = LsmConfig { size_ratio: 2, ..LsmConfig::small_for_test() };
                    let (mut t, mut o) = (tree(cfg, saturation()), Oracle::new());
                    let plan = grow_until(&mut t, &mut o, |t, p| {
                        p.inputs.len() > 1 && t.level_count() > 1 && !p.full_tree
                    });
                    (t, o, plan)
                },
                |plan, before| {
                    let level = before.iter().position(|l| l[0].contains(&plan.inputs[0].meta.id));
                    let level = level.expect("the source sits in run 0 of its level");
                    assert!(matches!(plan.placement, Some(Placement::JoinRun { level: d }) if d == level + 1));
                    let overlapped = ids(&plan.inputs[1..]);
                    assert!(!overlapped.is_empty() && overlapped.is_subset(&before[level + 1][0]));
                    assert!(!plan.ttl_expired);
                },
            ),
            (
                "trivial move, a file that overlaps nothing in the next level",
                || {
                    let cfg = LsmConfig { size_ratio: 2, ..LsmConfig::small_for_test() };
                    let (mut t, mut o) = (tree(cfg, saturation()), Oracle::new());
                    // sorted ingest: no file ever overlaps what lies below it
                    let mut keys = 0..KEYS;
                    let plan = loop {
                        put_all(&mut t, &mut o, keys.next(), |k| k);
                        if let Some(plan) = t.plan_job(false) {
                            break plan;
                        }
                    };
                    (t, o, plan)
                },
                |plan, before| {
                    let level = before.iter().position(|l| l[0].contains(&plan.inputs[0].meta.id));
                    let level = level.expect("the source sits in run 0 of its level");
                    assert!(matches!(plan.placement, Some(Placement::JoinRun { level: d }) if d == level + 1));
                    assert!(plan.trivial_move && !plan.drop_tombstones && !plan.ttl_expired);
                    assert_eq!(plan.inputs.len(), 1, "the sources and nothing else");
                },
            ),
            (
                "tombstones bound for the deepest level are rewritten, not moved",
                || tombstone_file_over(1),
                |plan, before| {
                    assert_eq!(before.len(), 2, "level 1 is the deepest");
                    assert!(matches!(plan.placement, Some(Placement::JoinRun { level: 1 })));
                    assert_eq!(plan.inputs.len(), 1, "nothing in level 1 overlaps the file");
                    assert!(plan.inputs[0].has_tombstones());
                    assert!(!plan.trivial_move && plan.drop_tombstones && plan.ttl_expired);
                },
            ),
            (
                "the same file above a deeper level moves and keeps its tombstone age",
                || tombstone_file_over(2),
                |plan, before| {
                    assert_eq!(before.len(), 3, "level 1 lies above the deepest");
                    assert!(!before[1].is_empty(), "the file joins the resident run");
                    assert!(matches!(plan.placement, Some(Placement::JoinRun { level: 1 })));
                    assert_eq!(plan.inputs.len(), 1);
                    let file = &plan.inputs[0].meta;
                    assert!(plan.inputs[0].has_tombstones() && file.oldest_tombstone_ts.is_some());
                    assert!(plan.trivial_move && !plan.drop_tombstones && plan.ttl_expired);
                },
            ),
            (
                "ttl expiry, rewritten in place on the deepest level",
                || {
                    let (mut t, mut o) =
                        (tree(LsmConfig::small_for_test(), Box::new(Scripted(Vec::new()))), Oracle::new());
                    put_all(&mut t, &mut o, 0..12, |k| k);
                    for k in [2, 5] {
                        t.delete(k).unwrap();
                        o.remove(&k);
                    }
                    // a snapshot held over the flush keeps the tombstones
                    // in the deepest level, where only their TTL moves them
                    let held = t.next_seqnum() - 1;
                    t.snapshot_tracker().register(held);
                    flush_active(&mut t);
                    t.snapshot_tracker().release(held);
                    let file = t.levels()[0].all_tables().find(|f| f.has_tombstones()).unwrap().meta.id;
                    t.policy = Box::new(Scripted(vec![CompactionTask::LeveledMulti {
                        level: 0,
                        file_ids: vec![file],
                        ttl_expired: true,
                    }]));
                    let plan = t.plan_job(true).unwrap();
                    (t, o, plan)
                },
                |plan, before| {
                    assert_eq!(before.len(), 1, "level 0 is the deepest");
                    assert!(matches!(plan.placement, Some(Placement::JoinRun { level: 0 })));
                    assert_eq!(plan.inputs.len(), 1);
                    assert!(plan.ttl_expired && plan.drop_tombstones);
                },
            ),
            (
                "tiered level",
                || {
                    let (mut t, mut o) = (tree(tiering(2), saturation()), Oracle::new());
                    let plan = grow_until(&mut t, &mut o, |t, p| {
                        t.level_count() > 1
                            && matches!(p.placement, Some(Placement::NewRun { level: 1, index: 0 }))
                    });
                    (t, o, plan)
                },
                |plan, before| {
                    assert!(before[0].len() >= 2 && !before[1].is_empty());
                    assert_eq!(ids(&plan.inputs), all_ids(&before[..1]));
                },
            ),
            (
                "size-tiered run merge behind a surviving newer run",
                || {
                    let (mut t, mut o) =
                        (tree(tiering(4), Box::new(SizeTieredPolicy::new(3))), Oracle::new());
                    for small in 0..3u64 {
                        put_all(&mut t, &mut o, small * 4..small * 4 + 4, |k| k);
                        flush_active(&mut t);
                    }
                    // a full buffer's run lands in the next size class
                    put_all(&mut t, &mut o, 100..140, |k| k);
                    assert_eq!(t.levels()[0].run_count(), 4);
                    let plan = t.plan_job(true).unwrap();
                    (t, o, plan)
                },
                |plan, before| {
                    assert!(matches!(plan.placement, Some(Placement::NewRun { level: 0, index: 1 })));
                    let behind: BTreeSet<u64> = before[0][1..].iter().flatten().copied().collect();
                    assert_eq!(ids(&plan.inputs), behind);
                },
            ),
            (
                "date-tiered whole-file drop",
                || {
                    let policy = DateTieredPolicy::new(100, 4, Some(1_000));
                    let cfg = LsmConfig { auto_advance_clock: false, ..tiering(4) };
                    let (mut t, mut o) = (tree(cfg, Box::new(policy)), Oracle::new());
                    put_all(&mut t, &mut o, 0..8, |k| 100 + k);
                    flush_active(&mut t);
                    t.clock().advance_to(1_000_000);
                    put_all(&mut t, &mut o, 8..16, |k| 999_000 + k);
                    flush_active(&mut t);
                    // the window of keys 0..8 ended long before `now - ttl`
                    o.retain(|k, _| *k >= 8);
                    let plan = t.plan_job(true).unwrap();
                    (t, o, plan)
                },
                |plan, before| {
                    assert!(plan.placement.is_none() && !plan.is_flush());
                    assert_eq!(ids(&plan.inputs), before[0][1], "the older run expires, the newer stays");
                },
            ),
            (
                "forced full-tree compaction",
                || {
                    let cfg = LsmConfig { size_ratio: 2, ..LsmConfig::small_for_test() };
                    let (mut t, mut o) = (tree(cfg, saturation()), Oracle::new());
                    grow_until(&mut t, &mut o, |t, _| t.level_count() > 2);
                    let plan = t.plan_full(None).unwrap();
                    (t, o, plan)
                },
                |plan, before| {
                    let deepest = before.len() - 1;
                    assert!(
                        matches!(plan.placement, Some(Placement::NewRun { level, index: 0 }) if level == deepest)
                    );
                    assert_eq!(ids(&plan.inputs), all_ids(before));
                    assert!(plan.full_tree && plan.drop_tombstones);
                },
            ),
        ];
        for (name, build, shape) in rows {
            let (mut t, oracle, plan) = build();
            shape(&plan, &layout(&t));
            commits_what_it_planned(name, &mut t, &oracle, plan);
        }
    }

    /// The stale-plan scenarios: delete keys scattered over `0..10_000`, page
    /// drops that install a version whatever they hit.
    fn purgeable() -> (LsmTree, Oracle, fn(u64) -> u64) {
        let cfg = LsmConfig {
            size_ratio: 2,
            pages_per_delete_tile: 4,
            secondary_delete_mode: SecondaryDeleteMode::KiwiPageDrops,
            ..LsmConfig::small_for_test()
        };
        (tree(cfg, saturation()), Oracle::new(), |k| (k * 7919) % 10_000)
    }

    /// Regression: a secondary range delete replaces files under their old
    /// ids, so a compaction planned before it used to pass the id-based
    /// staleness check, install output merged from the pre-delete pages and
    /// bring purged entries back.
    #[test]
    fn stale_plan_is_refused_and_leaks_nothing() {
        let (mut t, mut oracle, dk) = purgeable();
        // scattered keys, so that files overlap the level below them and the
        // plan is a merge (the first spills find nothing below and move)
        let mut i = 0;
        let stale = 'ingest: loop {
            put_all(&mut t, &mut oracle, [(i * 7919) % KEYS], dk);
            i += 1;
            while let Some(plan) = t.plan_job(true) {
                assert!(!plan.is_flush());
                if !plan.trivial_move {
                    break 'ingest plan;
                }
                assert!(run(&mut t, plan));
            }
        };
        let purged = t.secondary_range_delete(0, 5_000).unwrap();
        assert!(purged.entries_deleted > 0, "the delete must reach the planned files: {purged:?}");
        oracle.retain(|k, _| dk(*k) >= 5_000);

        let live_before = t.backend.live_pages();
        let out = stale.execute(&t.build_ctx()).unwrap();
        assert!(t.backend.live_pages() > live_before, "the stale job built output");
        assert!(!t.apply_job(stale, out).unwrap(), "a plan older than the installed version is refused");
        assert_eq!(t.backend.live_pages(), live_before, "the refused output was released");
        assert_reads(&t, &oracle, "after the refusal");

        // the purge emptied the level below saturation: grow it back
        let fresh = grow_until(&mut t, &mut oracle, |_, _| true);
        assert!(run(&mut t, fresh), "a plan taken against the new version applies");
        assert_reads(&t, &oracle, "after the fresh job");
    }

    /// The mirror case: a stale *move* built nothing, so its refusal has
    /// nothing to release — and must release nothing, for its "output" is
    /// files the tree still owns. The file stays at its old level.
    #[test]
    fn stale_move_is_refused_and_the_file_stays_put() {
        let (mut t, mut oracle, dk) = purgeable();
        let mut keys = 0..KEYS;
        let stale = loop {
            put_all(&mut t, &mut oracle, keys.next(), dk);
            if let Some(plan) = t.plan_job(true) {
                assert!(plan.trivial_move, "sorted ingest overlaps nothing");
                break plan;
            }
        };
        let moving = ids(&stale.inputs);
        let purged = t.secondary_range_delete(0, 5_000).unwrap();
        assert!(purged.entries_deleted > 0, "{purged:?}");
        oracle.retain(|k, _| dk(*k) >= 5_000);

        let (placed_before, live_before) = (layout(&t), t.backend.live_pages());
        let out = stale.execute(&t.build_ctx()).unwrap();
        assert_eq!(t.backend.live_pages(), live_before, "a move builds nothing");
        assert!(!t.apply_job(stale, out).unwrap(), "a plan older than the installed version is refused");
        assert_eq!(t.backend.live_pages(), live_before, "no page of a file still in the tree is released");
        assert_eq!(layout(&t), placed_before, "nothing changed level");
        assert!(moving.is_subset(&all_ids(&placed_before[..1])), "the picked file sits in level 0");
        assert_eq!(t.stats().trivial_moves, 0);
        assert_reads(&t, &oracle, "after the refusal");

        let fresh = grow_until(&mut t, &mut oracle, |_, _| true);
        assert!(run(&mut t, fresh), "a plan taken against the new version applies");
        assert_reads(&t, &oracle, "after the fresh job");
    }

    /// Regression: the flush half of the staleness rule asked whether *a*
    /// frozen buffer was present, not whether it was the plan's. On an empty
    /// disk tree the full-compaction delete mode purges the frozen buffer
    /// (through a copy, because the plan pins the original) and installs no
    /// version, so the stale plan went on to persist the pre-purge entries.
    #[test]
    fn stale_flush_plan_is_refused_and_leaks_nothing() {
        let cfg = LsmConfig {
            secondary_delete_mode: SecondaryDeleteMode::FullTreeCompaction,
            ..LsmConfig::small_for_test()
        };
        let (mut t, mut oracle) = (tree(cfg, saturation()), Oracle::new());
        let dk = |k: u64| k % 100;
        for k in 0.. {
            t.put(k, dk(k), value(k)).unwrap();
            oracle.insert(k, value(k));
            if t.has_frozen() {
                break;
            }
        }
        let stale = t.plan_job(true).unwrap();
        assert!(stale.is_flush());
        let installs = t.versions.installs();
        t.secondary_range_delete(0, 50).unwrap();
        assert_eq!(t.versions.installs(), installs, "nothing on disk, nothing installed");
        let purged = oracle.len();
        oracle.retain(|k, _| dk(*k) >= 50);
        assert!(oracle.len() < purged, "the delete reached the frozen buffer");

        let live_before = t.backend.live_pages();
        let out = stale.execute(&t.build_ctx()).unwrap();
        assert!(t.backend.live_pages() > live_before, "the stale flush built output");
        assert!(!t.apply_job(stale, out).unwrap(), "the slot no longer holds the planned buffer");
        assert_eq!(t.backend.live_pages(), live_before, "the refused output was released");
        assert!(t.has_frozen(), "the purged buffer still waits for its flush");
        assert_reads(&t, &oracle, "after the refusal");

        flush_frozen(&mut t);
        assert_reads(&t, &oracle, "after the fresh flush");
    }

    /// A recovered tree, driven job by job, whose store lives on `vfs`.
    fn tree_on(vfs: &Arc<FaultVfs>, cfg: LsmConfig) -> LsmTree {
        let (vfs, dir): (Arc<dyn Vfs>, _) = (vfs.clone(), Path::new("/"));
        let backend = Arc::new(FileBackend::open_on(&vfs, dir, "lethe").unwrap());
        let wal = FileWal::open_on(&vfs, &dir.join("lethe.wal")).unwrap();
        let manifest = Manifest::open_on(&vfs, &dir.join("lethe.manifest")).unwrap();
        let clock = LogicalClock::new();
        let mut t = LsmTree::new(cfg, backend, Box::new(wal), manifest, clock, saturation()).unwrap();
        t.recover().unwrap();
        t.set_maintenance_mode(MaintenanceMode::Background);
        t
    }

    /// Regression: a job stopped by an error after finishing some of its
    /// output files used to drop those files with nothing covering their
    /// pages, which stayed live on the device, referenced by no version,
    /// until a reopen's unreferenced-page pass.
    #[test]
    fn a_failed_job_strands_no_page_of_the_files_it_finished() {
        let cfg = LsmConfig { max_pages_per_file: 1, ..LsmConfig::small_for_test() };
        let vfs = FaultVfs::new(MemVfs::shared());
        let (mut t, mut oracle) = (tree_on(&vfs, cfg), Oracle::new());
        for k in 0.. {
            t.put(k, k, value(k)).unwrap();
            oracle.insert(k, value(k));
            if t.has_frozen() {
                break;
            }
        }
        let plan = t.plan_job(true).unwrap();
        assert!(plan.is_flush());
        assert_eq!(t.backend.live_pages(), 0);
        // one page per file: the 4th append fails with three files built
        vfs.arm(3);
        let failed = plan.execute(&t.build_ctx());
        assert!(matches!(failed, Err(StorageError::Injected)), "the fault surfaces");
        assert_eq!(t.backend.stats().snapshot().pages_written, 3);
        assert_eq!(t.backend.live_pages(), 0, "the finished files' pages were released");

        assert!(run(&mut t, plan), "the same plan executes once the device recovers");
        assert_reads(&t, &oracle, "after the retried flush");
    }

    /// A device that fails the read of one page and passes everything else
    /// through: a bad sector under a job's input.
    struct FailingRead {
        inner: Arc<dyn StorageBackend>,
        page: PageId,
    }

    impl FailingRead {
        fn check(&self, id: PageId) -> Result<()> {
            if id == self.page {
                return Err(StorageError::Io(std::io::Error::other("unreadable page")));
            }
            Ok(())
        }
    }

    #[expect(clippy::disallowed_methods, reason = "a pass-through device")]
    impl StorageBackend for FailingRead {
        fn write_page(&self, page: &Page) -> Result<PageId> {
            self.inner.write_page(page)
        }
        fn read_page(&self, id: PageId) -> Result<Arc<Page>> {
            self.check(id)?;
            self.inner.read_page(id)
        }
        fn read_page_nofill(&self, id: PageId) -> Result<Arc<Page>> {
            self.check(id)?;
            self.inner.read_page_nofill(id)
        }
        fn drop_page(&self, id: PageId) -> Result<()> {
            self.inner.drop_page(id)
        }
        fn stats(&self) -> Arc<IoStats> {
            self.inner.stats()
        }
        fn live_pages(&self) -> usize {
            self.inner.live_pages()
        }
        fn page_ids(&self) -> Vec<PageId> {
            self.inner.page_ids()
        }
        fn sync(&self) -> Result<()> {
            self.inner.sync()
        }
    }

    /// Fails each append of a multi-file compaction in turn, then one read
    /// of its last input page: every fault surfaces as the job's error, no
    /// page of its output survives it, both stages stop (the test would
    /// hang otherwise), and the untouched tree still reads the oracle and
    /// runs the job once the device recovers.
    #[test]
    fn every_failed_append_or_read_of_a_job_fails_it_cleanly() {
        let cfg = LsmConfig { size_ratio: 2, ..LsmConfig::small_for_test() };
        let vfs = FaultVfs::new(MemVfs::shared());
        let (mut t, mut oracle) = (tree_on(&vfs, cfg.clone()), Oracle::new());
        let plan = grow_until(&mut t, &mut oracle, |_, p| {
            let entries: u64 = p.inputs.iter().map(|f| f.meta.num_entries).sum();
            !p.trivial_move && p.inputs.len() > 1 && entries > 2 * cfg.entries_per_file() as u64
        });
        t.versions.collect_garbage(t.backend.as_ref());
        let live = t.backend.live_pages();

        let last_input_page = plan.inputs.iter().flat_map(|f| &f.tiles).flat_map(|tile| &tile.pages);
        let page = last_input_page.map(|p| p.id).max().unwrap();
        let failing = FailingRead { inner: Arc::clone(&t.backend), page };
        let ctx = BuildCtx { backend: Arc::new(failing), ..t.build_ctx() };
        let written = t.backend.stats().snapshot().pages_written;
        let failed = plan.execute(&ctx);
        assert!(matches!(failed, Err(StorageError::Io(_))), "the failed read surfaces");
        assert!(t.backend.stats().snapshot().pages_written > written, "it failed mid-job");
        assert_eq!(t.backend.live_pages(), live, "after the failed read");

        let mut appends = 0;
        let out = loop {
            vfs.arm(appends);
            let out = plan.execute(&t.build_ctx());
            let fired = !vfs.is_armed();
            vfs.disarm();
            match out {
                Err(e) => {
                    assert!(fired && matches!(e, StorageError::Injected), "append {appends}: {e}");
                    assert_eq!(t.backend.live_pages(), live, "after failing append {appends}");
                    assert_reads(&t, &oracle, "after a failed job");
                    appends += 1;
                }
                Ok(out) => break out,
            }
        };
        assert!(out.tables.len() > 2, "a multi-file job: {} files", out.tables.len());
        let pages: usize = out.tables.iter().map(|f| f.page_count()).sum();
        assert_eq!(appends as usize, pages, "every append of the job was failed once");
        assert!(t.apply_job(plan, out).unwrap());
        assert_reads(&t, &oracle, "after the job");
    }

    /// The stream the pipeline is fed in the equivalence check: `(sort-key
    /// gap, delete key, tombstone, seqnum)` per entry, and `(start, length,
    /// seqnum)` per range tombstone.
    type Stream = (Vec<(u64, u64, bool, u64)>, Vec<(u64, u64, u64)>);

    fn stream_strategy() -> impl Strategy<Value = Stream> {
        let tombstone = (0u8..10).prop_map(|d| d == 0);
        let entry = (1u64..4, 0u64..1_000, tombstone, 1u64..100_000);
        let entries = prop_oneof![
            1 => Just(Vec::new()),
            8 => prop::collection::vec(entry, 1..400),
        ];
        let rts = prop::collection::vec((0u64..1_400, 1u64..64, 1u64..100_000), 0..5);
        (entries, rts)
    }

    /// The files [`SsTable::build`] makes of `entries` cut at every
    /// `entries_per_file`-th entry, range tombstones attached by start key
    /// and the rest to the final file, which a stream of range tombstones
    /// only still gets: the layout the pipeline must reproduce.
    fn reference_build(
        entries: &[Entry],
        mut rts: Vec<Entry>,
        oldest: Option<Timestamp>,
        ctx: &BuildCtx,
    ) -> Vec<SsTable> {
        rts.sort_by_key(|e| e.sort_key);
        let mut chunks: Vec<&[Entry]> = entries.chunks(ctx.config.entries_per_file()).collect();
        if chunks.is_empty() && !rts.is_empty() {
            chunks.push(&[]);
        }
        let last = chunks.len().saturating_sub(1);
        let mut files = Vec::new();
        for (i, chunk) in chunks.into_iter().enumerate() {
            let file_rts = if i == last {
                std::mem::take(&mut rts)
            } else {
                let upper = chunk.last().map_or(0, |e| e.sort_key);
                let keep = rts.split_off(rts.partition_point(|rt| rt.sort_key <= upper));
                std::mem::replace(&mut rts, keep)
            };
            let tombstones = !file_rts.is_empty() || chunk.iter().any(Entry::is_tombstone);
            let id = ctx.next_file_id.fetch_add(1, Ordering::Relaxed);
            let oldest = if tombstones { oldest } else { None };
            let built = SsTable::build(
                id,
                chunk.to_vec(),
                file_rts,
                ctx.now,
                oldest,
                &ctx.config,
                ctx.backend.as_ref(),
            );
            files.push(built.unwrap());
        }
        files
    }

    /// Runs `stream` through the pipeline and through [`reference_build`],
    /// each onto a fresh device, and checks that they wrote the same files
    /// with the same page ids in the same order, the same page bytes, the
    /// same range tombstones in the same files, and the same `max_seqnum`
    /// and tombstone age. Returns the number of files.
    fn pipeline_matches_build(
        h: usize,
        pages_per_file: usize,
        stream: Stream,
        oldest: Option<Timestamp>,
    ) -> usize {
        let config = LsmConfig {
            pages_per_delete_tile: h,
            max_pages_per_file: pages_per_file,
            ..LsmConfig::small_for_test()
        };
        let (entries, rts) = stream;
        let mut key = 0;
        let entries: Vec<Entry> = entries
            .into_iter()
            .map(|(gap, dk, tombstone, seq)| {
                key += gap;
                match tombstone {
                    true => Entry::point_tombstone(key, seq),
                    false => Entry::put(key, dk, seq, value(key)),
                }
            })
            .collect();
        let rts: Vec<Entry> =
            rts.into_iter().map(|(start, len, seq)| Entry::range_tombstone(start, start + len, seq)).collect();
        let ctx = |backend: &Arc<FileBackend>| BuildCtx {
            config: config.clone(),
            backend: Arc::clone(backend) as Arc<dyn StorageBackend>,
            now: 77,
            next_file_id: Arc::new(AtomicU64::new(1)),
        };
        let piped_dev = Arc::new(FileBackend::in_memory().unwrap());
        let built_dev = Arc::new(FileBackend::in_memory().unwrap());
        let mut source = VecCursor::from_sorted(entries.clone());
        let piped = pipeline(&ctx(&piped_dev), &mut source, rts.clone(), oldest, None).unwrap();
        let built = reference_build(&entries, rts, oldest, &ctx(&built_dev));

        assert_eq!(piped.len(), built.len(), "files");
        for (p, b) in piped.iter().zip(&built) {
            assert_eq!(*p.describe(), *b.describe(), "page ids, range tombstones, seqnum, age");
            assert_eq!(p.meta.max_seqnum, b.meta.max_seqnum);
            assert_eq!(p.meta.oldest_tombstone_ts, b.meta.oldest_tombstone_ts);
            assert_eq!(p.meta.data_bytes, b.meta.data_bytes);
            for id in p.tiles.iter().flat_map(|tile| tile.pages.iter().map(|page| page.id)) {
                assert_eq!(piped_dev.read_page(id).unwrap(), built_dev.read_page(id).unwrap());
            }
            let stored = p.read_all_entries(piped_dev.as_ref()).unwrap();
            let seqnums = stored.iter().chain(&p.range_tombstones).map(|e| e.seqnum);
            assert_eq!(p.meta.max_seqnum, seqnums.max().unwrap_or(0), "max_seqnum of what the file holds");
        }
        assert_eq!(piped_dev.page_ids().len(), built_dev.page_ids().len(), "pages written");
        piped.len()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// The pipelined job writes exactly what one thread building each
        /// file with [`SsTable::build`] writes.
        #[test]
        fn the_pipeline_builds_what_sstable_build_builds(
            h in prop_oneof![1 => Just(1usize), 1 => Just(4usize), 1 => Just(8usize)],
            pages_per_file in 1usize..20,
            stream in stream_strategy(),
            oldest in prop_oneof![1 => Just(None), 3 => (0u64..1_000).prop_map(Some)],
        ) {
            pipeline_matches_build(h, pages_per_file, stream, oldest);
        }
    }

    /// The shapes the random streams may miss: no output at all, a final
    /// file of range tombstones only, a range tombstone starting at the last
    /// key of a file, a stream ending exactly at a file boundary, and a tile
    /// split by a file boundary.
    #[test]
    fn the_pipeline_builds_what_sstable_build_builds_at_the_edges() {
        let puts = |n: usize| (0..n as u64).map(|k| (1, (k * 37) % 1_000, k % 7 == 0, k + 1)).collect();
        let rts = vec![(3, 10, 900), (5_000, 20, 901)];
        for h in [1, 4, 8] {
            assert_eq!(pipeline_matches_build(h, 2, (Vec::new(), Vec::new()), Some(5)), 0);
            assert_eq!(pipeline_matches_build(h, 2, (Vec::new(), rts.clone()), Some(5)), 1);
            // keys run 1, 2, ...: the first file ends at key `per_file`
            let per_file = 2 * h * LsmConfig::small_for_test().entries_per_page;
            let at_cut = [rts.clone(), vec![(per_file as u64, 3, 902)]].concat();
            assert_eq!(pipeline_matches_build(h, 2 * h, (puts(3 * per_file), at_cut), Some(5)), 3);
            assert_eq!(pipeline_matches_build(h, 3, (puts(100), rts.clone()), None), 100usize.div_ceil(12));
        }
    }
}
