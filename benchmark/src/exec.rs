//! Executes one pass of a [`Plan`] against a fresh durable store.
//!
//! An untraced pass times each block as a whole (`Instant` around the op
//! list, no per-op timers) and captures the engine's counters at the block
//! boundaries, outside the timed region. The traced pass runs the same
//! blocks with every op individually timed and spans recorded, and drives
//! flushes and compactions itself (`plan_job → execute → apply_job`) so each
//! maintenance job is attributed to the put that caused it.

use crate::plan::{self, Block, BlockKind, Expect, Op, Plan, WorkloadDef};
use crate::trace::{Phase, Tracer};
use lethe_core::{Lethe, LetheBuilder};
use lethe_lsm::MaintenanceMode;
use lethe_storage::SyncPolicy;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Engine counters captured at block boundaries. One flat array so a delta,
/// a sum over blocks and the cross-pass fingerprint are all one loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters(pub [u64; C::COUNT]);

/// Index of one counter in [`Counters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum C {
    PagesRead,
    PagesWritten,
    PagesDropped,
    BytesRead,
    BytesWritten,
    BloomProbes,
    CacheHits,
    CacheMisses,
    Fsyncs,
    Flushes,
    Compactions,
    TtlCompactions,
    EntriesCompacted,
    BytesIngested,
    EntriesIngested,
    BytesFlushed,
    BytesCompacted,
    BlindDeletesSuppressed,
    SrdFullDrops,
    SrdPartialDrops,
    SrdEntriesDeleted,
    CacheEvictions,
}

impl C {
    pub const COUNT: usize = C::CacheEvictions as usize + 1;
}

impl Counters {
    pub fn capture(db: &Lethe) -> Counters {
        let io = db.io_snapshot();
        let st = db.stats();
        let evictions = db.cache_snapshot().map_or(0, |c| c.evictions);
        let mut c = [0u64; C::COUNT];
        c[C::PagesRead as usize] = io.pages_read;
        c[C::PagesWritten as usize] = io.pages_written;
        c[C::PagesDropped as usize] = io.pages_dropped;
        c[C::BytesRead as usize] = io.bytes_read;
        c[C::BytesWritten as usize] = io.bytes_written;
        c[C::BloomProbes as usize] = io.bloom_probes;
        c[C::CacheHits as usize] = io.cache_hits;
        c[C::CacheMisses as usize] = io.cache_misses;
        c[C::Fsyncs as usize] = io.fsyncs;
        c[C::Flushes as usize] = st.flushes;
        c[C::Compactions as usize] = st.compactions;
        c[C::TtlCompactions as usize] = st.ttl_triggered_compactions;
        c[C::EntriesCompacted as usize] = st.entries_compacted;
        c[C::BytesIngested as usize] = st.bytes_ingested;
        c[C::EntriesIngested as usize] = st.entries_ingested;
        c[C::BytesFlushed as usize] = st.bytes_flushed;
        c[C::BytesCompacted as usize] = st.bytes_compacted;
        c[C::BlindDeletesSuppressed as usize] = st.blind_deletes_suppressed;
        c[C::SrdFullDrops as usize] = st.secondary_delete.full_page_drops;
        c[C::SrdPartialDrops as usize] = st.secondary_delete.partial_page_drops;
        c[C::SrdEntriesDeleted as usize] = st.secondary_delete.entries_deleted;
        c[C::CacheEvictions as usize] = evictions;
        Counters(c)
    }

    pub fn since(&self, earlier: &Counters) -> Counters {
        let mut d = [0u64; C::COUNT];
        for (i, slot) in d.iter_mut().enumerate() {
            *slot = self.0[i].saturating_sub(earlier.0[i]);
        }
        Counters(d)
    }

    pub fn add(&mut self, other: &Counters) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }

    pub fn get(&self, c: C) -> u64 {
        self.0[c as usize]
    }
}

/// What a block's ops actually returned, summed inside the timed region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Got {
    pub hits: u64,
    pub entries: u64,
    pub stamp_sum: u64,
    pub srd_deleted: u64,
    /// Ops that returned `Err`.
    pub errors: u64,
}

impl Got {
    /// Number of ways this block's results disagree with the model.
    fn mismatches(&self, kind: BlockKind, expect: &Expect) -> u64 {
        let mut bad = self.errors;
        match kind {
            BlockKind::Get | BlockKind::Scan => {
                bad += u64::from(self.hits != expect.hits)
                    + u64::from(self.entries != expect.entries)
                    + u64::from(self.stamp_sum != expect.stamp_sum);
            }
            BlockKind::Srd => {
                bad += u64::from(
                    self.srd_deleted < expect.srd_deleted_min
                        || self.srd_deleted > expect.srd_deleted_max,
                );
            }
            BlockKind::Setup | BlockKind::Put | BlockKind::Reopen => {}
        }
        bad
    }
}

/// State of the store at the end of a pass (before and after the reopen).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EndState {
    /// Counters of the whole pass up to the reopen.
    pub totals: Counters,
    /// Counters of the reopened engine (recovery work only).
    pub reopen: Counters,
    pub levels: u64,
    pub files: u64,
    /// Encoded bytes of every entry on disk and in the buffer.
    pub total_bytes: u64,
    /// Tombstones resident in files at the end.
    pub tombstones: u64,
    pub cache_pages_resident: u64,
    pub cache_bytes_resident: u64,
    /// Bytes of each file in the store directory.
    pub data_file_bytes: u64,
    pub wal_bytes: u64,
    pub manifest_bytes: u64,
    pub dir_bytes: u64,
    /// WAL records on disk when the store was reopened.
    pub wal_records_at_reopen: u64,
    /// Largest `age of the oldest tombstone in any file / D_th` seen at a
    /// round end, in parts per million (kept integral for the fingerprint).
    pub max_tombstone_age_ppm: u64,
    /// Peak entries resident in the streaming merge machinery.
    pub merge_peak_entries: u64,
}

/// Latencies of individually timed ops (traced pass only), in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct OpSamples {
    pub put: Vec<f64>,
    /// Subset of `put`: writes that froze the buffer and ran maintenance.
    pub put_stalled: Vec<f64>,
    /// Nanoseconds of flushes and compactions under the writes in `put`.
    pub maintenance_ns: f64,
    pub get: Vec<f64>,
    pub scan: Vec<f64>,
    pub srd: Vec<f64>,
}

#[derive(Debug, Clone, Default)]
pub struct PassResult {
    /// Seconds per slice, in execution order. A block is timed as a run of
    /// slices ([`BlockKind::slice_ops`] ops each, plus one slice each for
    /// open, persist and reopen), so that the minimum over passes can be
    /// taken over a few hundred microseconds of work at a time.
    pub slices: Vec<f64>,
    /// For each block, the index one past its last slice in `slices`.
    pub block_ends: Vec<usize>,
    /// Counter deltas per block, in plan order.
    pub deltas: Vec<Counters>,
    pub got: Vec<Got>,
    pub end: EndState,
    pub attempted: u64,
    pub failed: u64,
    /// What only a traced pass gathers.
    pub traced: TracedExtras,
}

/// Beside the block results, a traced pass keeps these.
#[derive(Debug, Clone, Default)]
pub struct TracedExtras {
    /// Latencies of the counted ops.
    pub samples: OpSamples,
    /// Compactions planned while no level was over capacity. FADE has two
    /// triggers, saturation and an expired TTL, so these were delete-driven;
    /// it is a lower bound, because an expired file is picked first even
    /// when a level is also saturated.
    pub delete_driven_compactions: u64,
    /// Seconds of `scan_by_delete_key` over the newest window, and entries
    /// it returned.
    pub dscan: (f64, u64),
}

impl PassResult {
    /// Seconds per block given seconds per slice (this pass's own, or the
    /// minimum over passes).
    pub fn block_times(&self, slices: &[f64]) -> Vec<f64> {
        let mut start = 0;
        self.block_ends
            .iter()
            .map(|&end| {
                let secs = slices[start..end].iter().sum();
                start = end;
                secs
            })
            .collect()
    }

    /// Every counted outcome of the pass. Two passes of one plan must
    /// produce the same vector, bit for bit.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut f = Vec::with_capacity(self.deltas.len() * (C::COUNT + 4) + 32);
        for (d, g) in self.deltas.iter().zip(&self.got) {
            f.extend_from_slice(&d.0);
            f.extend_from_slice(&[g.hits, g.entries, g.stamp_sum, g.srd_deleted]);
        }
        let e = &self.end;
        f.extend_from_slice(&e.totals.0);
        f.extend_from_slice(&e.reopen.0);
        f.extend_from_slice(&[
            e.levels,
            e.files,
            e.total_bytes,
            e.tombstones,
            e.cache_pages_resident,
            e.cache_bytes_resident,
            e.data_file_bytes,
            e.wal_bytes,
            e.manifest_bytes,
            e.dir_bytes,
            e.wal_records_at_reopen,
            e.max_tombstone_age_ppm,
            self.failed,
        ]);
        f
    }
}

/// A directory removed when the guard drops — on normal exit and when a
/// panic unwinds through the pass.
pub struct TempDir {
    path: PathBuf,
    /// Also remove the parent directory, if that leaves it empty.
    with_parent: bool,
}

impl TempDir {
    pub fn create(path: PathBuf) -> std::io::Result<TempDir> {
        std::fs::create_dir_all(&path)?;
        Ok(TempDir {
            path,
            with_parent: false,
        })
    }

    /// The parent was made for this directory: it goes too, unless another
    /// run still has a directory in it.
    pub fn and_parent_if_empty(mut self) -> TempDir {
        self.with_parent = true;
        self
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let (true, Some(parent)) = (self.with_parent, self.path.parent()) {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

pub fn builder(def: &WorkloadDef) -> LetheBuilder {
    LetheBuilder::new()
        .buffer(
            plan::BUFFER_PAGES,
            plan::ENTRIES_PER_PAGE,
            plan::ENTRY_BYTES,
        )
        .size_ratio(4)
        .bits_per_key(10.0)
        .delete_tile_pages(def.tile_pages)
        .delete_persistence_threshold_secs(def.dth_secs)
        .ingestion_rate(plan::INGESTION_RATE)
        .wal_sync_policy(SyncPolicy::OnFlush)
        .block_cache_bytes(def.cache_bytes())
}

/// The 99-byte value of a put: the tick as an 8-byte stamp, then filler.
#[inline]
pub fn value_for(tick: u64) -> Vec<u8> {
    let mut v = vec![0xA5u8; plan::VALUE_BYTES];
    v[..8].copy_from_slice(&tick.to_le_bytes());
    v
}

#[inline]
fn stamp_of(value: &[u8]) -> u64 {
    match value.get(..8) {
        Some(b) => u64::from_le_bytes(b.try_into().expect("8-byte slice")),
        None => u64::MAX,
    }
}

/// Runs flushes and compactions until the tree needs none, as the inline
/// mode would, with a span per job and per job phase.
fn drain_jobs(db: &mut Lethe, tracer: &mut Tracer, got: &mut Got, delete_driven: &mut u64) {
    loop {
        let saturated = {
            let tree = db.tree();
            let levels = tree.levels();
            (0..levels.len())
                .any(|l| levels[l].total_bytes() > tree.config().level_capacity_bytes(l + 1))
        };
        // the job's kind is only known once it is planned
        let job_span = tracer.enter(Phase::Compaction);
        let plan_span = tracer.enter(Phase::Plan);
        let planned = db.tree_mut().plan_job(true);
        tracer.exit(plan_span);
        let Some(job) = planned else {
            tracer.cancel(job_span);
            return;
        };
        if job.is_flush() {
            tracer.set_phase(job_span, Phase::Flush);
        } else if !saturated {
            *delete_driven += 1;
        }
        let ctx = db.tree().build_ctx();
        let exec_span = tracer.enter(Phase::Execute);
        let out = job.execute(&ctx);
        tracer.exit(exec_span);
        let apply_span = tracer.enter(Phase::Apply);
        let progressed = out.and_then(|out| db.tree_mut().apply_job(job, out));
        tracer.exit(apply_span);
        tracer.exit(job_span);
        match progressed {
            Ok(true) => {}
            Ok(false) => return,
            Err(_) => {
                got.errors += 1;
                return;
            }
        }
    }
}

/// Runs `f` and appends its duration to `slices`.
fn timed<R>(slices: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let started = Instant::now();
    let out = f();
    slices.push(started.elapsed().as_secs_f64());
    out
}

/// Runs `ops` against `db`, `slice_ops` at a time, each slice timed as a
/// whole. With `TRACED` the block is one slice, every op gets a span and a
/// latency sample, and maintenance is drained under the write that caused it.
fn run_ops<const TRACED: bool>(
    db: &mut Lethe,
    ops: &[Op],
    slice_ops: usize,
    slices: &mut Vec<f64>,
    counted: bool,
    tracer: &mut Tracer,
    sink: &mut TracedExtras,
) -> Got {
    let mut got = Got::default();
    let slice_ops = if TRACED { ops.len().max(1) } else { slice_ops };
    for slice in ops.chunks(slice_ops) {
        timed(slices, || {
            run_slice::<TRACED>(db, slice, counted, tracer, sink, &mut got)
        });
    }
    got
}

fn run_slice<const TRACED: bool>(
    db: &mut Lethe,
    ops: &[Op],
    counted: bool,
    tracer: &mut Tracer,
    sink: &mut TracedExtras,
    got: &mut Got,
) {
    for op in ops {
        let span = if TRACED {
            tracer.enter(match op {
                Op::Put { .. } | Op::Delete { .. } | Op::DeleteRange { .. } => Phase::OpPut,
                Op::Get { .. } => Phase::OpGet,
                Op::Scan { .. } => Phase::OpScan,
                Op::Srd { .. } => Phase::OpSrd,
            })
        } else {
            0
        };
        let mut is_write = false;
        match *op {
            Op::Put { key, tick } => {
                is_write = true;
                if db.put(key, tick, value_for(tick)).is_err() {
                    got.errors += 1;
                }
            }
            Op::Delete { key } => {
                is_write = true;
                if db.delete(key).is_err() {
                    got.errors += 1;
                }
            }
            Op::DeleteRange { lo, hi } => {
                is_write = true;
                if db.delete_range(lo, hi).is_err() {
                    got.errors += 1;
                }
            }
            Op::Get { key } => match db.get(key) {
                Ok(Some(v)) => {
                    got.hits += 1;
                    got.stamp_sum = got.stamp_sum.wrapping_add(stamp_of(&v));
                }
                Ok(None) => {}
                Err(_) => got.errors += 1,
            },
            Op::Scan { lo, hi } => match db.iter_range(lo, hi) {
                Ok(iter) => {
                    for item in iter {
                        match item {
                            Ok((_, v)) => {
                                got.entries += 1;
                                got.stamp_sum = got.stamp_sum.wrapping_add(stamp_of(&v));
                            }
                            Err(_) => got.errors += 1,
                        }
                    }
                }
                Err(_) => got.errors += 1,
            },
            Op::Srd { lo, hi } => {
                is_write = true;
                match db.delete_where_delete_key_in(lo, hi) {
                    Ok(stats) => got.srd_deleted += stats.entries_deleted,
                    Err(_) => got.errors += 1,
                }
            }
        }
        if TRACED {
            let stalled = is_write && db.tree().has_frozen();
            if stalled {
                let started = Instant::now();
                drain_jobs(db, tracer, got, &mut sink.delete_driven_compactions);
                if counted {
                    sink.samples.maintenance_ns += started.elapsed().as_nanos() as f64;
                }
            }
            let ns = tracer.exit(span) as f64;
            if counted {
                match op {
                    Op::Put { .. } | Op::Delete { .. } | Op::DeleteRange { .. } => {
                        sink.samples.put.push(ns);
                        if stalled {
                            sink.samples.put_stalled.push(ns);
                        }
                    }
                    Op::Get { .. } => sink.samples.get.push(ns),
                    Op::Scan { .. } => sink.samples.scan.push(ns),
                    Op::Srd { .. } => sink.samples.srd.push(ns),
                }
            }
        }
    }
}

/// `max over files of (age of the file's oldest tombstone) / D_th`, in ppm,
/// and the tombstones resident in files. Reads metadata only.
fn tombstone_state(db: &Lethe, dth_micros: u64) -> (u64, u64) {
    let now = db.clock().now();
    let mut oldest = 0u64;
    let mut resident = 0u64;
    for level in db.tree().levels() {
        for table in level.all_tables() {
            if table.has_tombstones() {
                oldest = oldest.max(table.tombstone_age(now));
                resident += table.tombstone_count();
            }
        }
    }
    (
        (oldest as u128 * 1_000_000 / dth_micros.max(1) as u128) as u64,
        resident,
    )
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| entries.flatten().map(|e| file_len(&e.path())).sum())
        .unwrap_or(0)
}

/// The reopened store of a pass that has run, still on disk until this is
/// dropped (the engine closes before the directory goes).
pub struct OpenStore {
    pub db: Lethe,
    _dir: TempDir,
}

/// Runs one pass of `plan` in a fresh directory under `base`.
pub fn run_pass<const TRACED: bool>(
    plan: &Plan,
    base: &Path,
    pass: usize,
    tracer: &mut Tracer,
) -> Result<(PassResult, OpenStore), String> {
    let dir = TempDir::create(base.join(format!("pass-{pass}"))).map_err(|e| {
        format!(
            "cannot create store directory under {}: {e}",
            base.display()
        )
    })?;
    let def = &plan.def;
    let dth_micros = (def.dth_secs * 1e6) as u64;
    let mut result = PassResult::default();
    let mut db: Option<Lethe> = None;
    let setup_chunks = plan
        .blocks
        .iter()
        .filter(|b| b.kind == BlockKind::Setup)
        .count();
    lethe_lsm::cursor::probe::reset();
    let pass_span = if TRACED { tracer.enter(Phase::Pass) } else { 0 };

    for block in &plan.blocks {
        let Block {
            kind,
            round,
            counted,
            ops,
            expect,
        } = block;
        if TRACED {
            tracer.set_round(*round);
        }
        let before = db
            .as_ref()
            .map_or_else(Counters::default, Counters::capture);
        let mut got = Got::default();
        let block_span = if TRACED {
            tracer.enter(Phase::Block(*kind))
        } else {
            0
        };
        let slices = &mut result.slices;
        match kind {
            BlockKind::Setup => {
                if *round == 0 {
                    let span = if TRACED {
                        tracer.enter(Phase::OpOpen)
                    } else {
                        0
                    };
                    let opened = timed(slices, || builder(def).open(dir.path()));
                    if TRACED {
                        tracer.exit(span);
                    }
                    let mut engine = opened.map_err(|e| format!("open failed: {e}"))?;
                    if TRACED {
                        engine.set_maintenance_mode(MaintenanceMode::Background);
                    }
                    db = Some(engine);
                }
                let engine = db.as_mut().expect("store opened by the first set-up chunk");
                got = run_ops::<TRACED>(
                    engine,
                    ops,
                    kind.slice_ops(),
                    slices,
                    false,
                    tracer,
                    &mut result.traced,
                );
                if *round + 1 == setup_chunks {
                    let span = if TRACED {
                        tracer.enter(Phase::OpPersist)
                    } else {
                        0
                    };
                    if timed(slices, || engine.persist()).is_err() {
                        got.errors += 1;
                    }
                    if TRACED {
                        tracer.exit(span);
                    }
                }
            }
            BlockKind::Put | BlockKind::Get | BlockKind::Scan | BlockKind::Srd => {
                let engine = db.as_mut().expect("store opened by the first set-up chunk");
                got = run_ops::<TRACED>(
                    engine,
                    ops,
                    kind.slice_ops(),
                    slices,
                    *counted,
                    tracer,
                    &mut result.traced,
                );
            }
            BlockKind::Reopen => {
                let span = if TRACED {
                    tracer.enter(Phase::OpReopen)
                } else {
                    0
                };
                let reopened = timed(slices, || {
                    drop(db.take());
                    builder(def).open(dir.path())
                });
                if TRACED {
                    tracer.exit(span);
                }
                db = Some(reopened.map_err(|e| format!("reopen failed: {e}"))?);
            }
        }
        if TRACED {
            tracer.exit(block_span);
        }
        let engine = db.as_ref().expect("store is open between blocks");
        let after = Counters::capture(engine);
        // a reopened engine starts its counters from zero: everything it
        // shows is recovery work
        let delta = if *kind == BlockKind::Reopen {
            after
        } else {
            after.since(&before)
        };
        result.failed += got.mismatches(*kind, expect);
        result.attempted += ops.len() as u64;
        result.block_ends.push(result.slices.len());
        result.deltas.push(delta);
        result.got.push(got);

        match kind {
            BlockKind::Srd => {
                let (ppm, _) = tombstone_state(engine, dth_micros);
                result.end.max_tombstone_age_ppm = result.end.max_tombstone_age_ppm.max(ppm);
                if *round == plan::ROUNDS {
                    // last round done: the state the reopen is about to discard
                    let tree = engine.tree();
                    result.end.totals = after;
                    result.end.levels =
                        tree.levels().iter().filter(|l| !l.is_empty()).count() as u64;
                    result.end.files = tree.files_per_level().iter().sum::<usize>() as u64;
                    result.end.total_bytes = tree.disk_bytes()
                        + tree.buffered_entries() as u64 * (plan::ENTRY_BYTES as u64 - 4);
                    result.end.tombstones = tombstone_state(engine, dth_micros).1;
                    if let Some(cache) = engine.cache_snapshot() {
                        result.end.cache_pages_resident = cache.pages_resident;
                        result.end.cache_bytes_resident = cache.bytes_resident;
                    }
                    result.end.merge_peak_entries = lethe_lsm::cursor::probe::peak();
                    result.end.wal_records_at_reopen = wal_records(dir.path());
                    if TRACED {
                        result.traced.dscan = time_delete_key_scan(engine, plan);
                    }
                }
            }
            BlockKind::Reopen => result.end.reopen = after,
            _ => {}
        }
    }
    // open, persist and reopen are one attempted operation each
    result.attempted += 3;

    // every acknowledged write must be readable after the restart
    let engine = db.expect("store reopened by the last block");
    for (key, expected) in &plan.sweep {
        result.attempted += 1;
        match engine.get(*key) {
            Ok(found) if found.as_deref().map(stamp_of) == *expected => {}
            _ => result.failed += 1,
        }
    }
    if TRACED {
        tracer.exit(pass_span);
    }

    result.end.data_file_bytes = file_len(&dir.path().join("lethe.data"));
    result.end.wal_bytes = file_len(&dir.path().join("lethe.wal"));
    result.end.manifest_bytes = file_len(&dir.path().join("lethe.manifest"));
    result.end.dir_bytes = dir_bytes(dir.path());
    Ok((
        result,
        OpenStore {
            db: engine,
            _dir: dir,
        },
    ))
}

/// Records in the store's WAL file right now (what the reopen will replay).
fn wal_records(dir: &Path) -> u64 {
    use lethe_storage::Wal;
    lethe_storage::FileWal::open(dir.join("lethe.wal"))
        .and_then(|w| w.position())
        .unwrap_or(0)
}

/// Times `scan_by_delete_key` over the newest tenth of the delete-key
/// domain: `(seconds, entries)`.
fn time_delete_key_scan(db: &Lethe, plan: &Plan) -> (f64, u64) {
    let newest = plan
        .blocks
        .iter()
        .flat_map(|b| b.ops.iter())
        .filter_map(|op| match op {
            Op::Put { tick, .. } => Some(*tick),
            _ => None,
        })
        .max()
        .unwrap_or(1);
    let lo = newest - newest / 10;
    let started = Instant::now();
    let n = db
        .scan_by_delete_key(lo, newest + 1)
        .map_or(0, |v| v.len() as u64);
    (started.elapsed().as_secs_f64(), n)
}
