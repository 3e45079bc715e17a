//! The sharded twin: the workload's writes and gets replayed against a
//! `ShardedLethe` (2 shards, background compactors, one writer thread and
//! one reader thread, `SyncPolicy::Always`).
//!
//! Recorded, never gated: with background workers and two client threads
//! neither the timings nor the counts repeat between runs of the same code
//! (the prototype behind this benchmark saw 15–17 % spread on put, srd and
//! set-up and a `space_amp` that moved between 0.10 and 0.23), so none of
//! this can carry a bound. It is here so a change to the shard or compactor
//! layer has a number to look at.

use crate::estimate::Percentiles;
use crate::exec::{value_for, TempDir};
use crate::plan::{BlockKind, Op, Plan};
use lethe_core::{ShardedLetheBuilder, WriteBatch};
use lethe_storage::SyncPolicy;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Preloaded keys, writes and scan entries of the twin: small, because under
/// `SyncPolicy::Always` a lone writer pays one fsync per write.
const PRELOAD: usize = 20_000;
const WRITES: usize = 1_500;
const SCAN_KEYS: u64 = 8_000;

#[derive(Debug, Clone, Default)]
pub struct Twin {
    pub put_ops_per_s: f64,
    pub get_ops_per_s: f64,
    pub scan_entries_per_s: f64,
    pub records_per_fsync: f64,
    pub put_p99_us: f64,
    pub get_p99_us_under_writes: f64,
    pub jobs_done: f64,
    pub stalls: f64,
    pub slowdowns: f64,
    pub failed: u64,
    pub attempted: u64,
}

pub fn run(plan: &Plan, base: &Path) -> Result<Twin, String> {
    let dir = TempDir::create(base.join("twin")).map_err(|e| format!("sharded twin: {e}"))?;
    let db = ShardedLetheBuilder::from_builder(crate::exec::builder(&plan.def))
        .shards(2)
        .wal_sync_policy(SyncPolicy::Always)
        .open(dir.path())
        .map_err(|e| format!("sharded twin: open failed: {e}"))?;
    let mut twin = Twin::default();

    // preload through batches: one durability barrier per thousand puts
    let preload: Vec<&Op> = plan
        .blocks
        .iter()
        .filter(|b| b.kind == BlockKind::Setup)
        .flat_map(|b| b.ops.iter())
        .take(PRELOAD)
        .collect();
    for chunk in preload.chunks(1000) {
        let mut batch = WriteBatch::with_capacity(chunk.len());
        for op in chunk {
            if let Op::Put { key, tick } = op {
                batch.put(*key, *tick, value_for(*tick));
            }
        }
        twin.attempted += 1;
        twin.failed += u64::from(db.write(batch).is_err());
    }
    twin.attempted += 1;
    twin.failed += u64::from(db.persist().is_err());
    let max_key = preload
        .iter()
        .filter_map(|op| {
            if let Op::Put { key, .. } = op {
                Some(*key)
            } else {
                None
            }
        })
        .max()
        .unwrap_or(0);

    let writes: Vec<&Op> = plan
        .blocks
        .iter()
        .filter(|b| b.kind == BlockKind::Put)
        .flat_map(|b| b.ops.iter())
        .take(WRITES)
        .collect();
    let gets: Vec<u64> = plan
        .blocks
        .iter()
        .filter(|b| b.kind == BlockKind::Get)
        .flat_map(|b| b.ops.iter())
        .filter_map(|op| {
            if let Op::Get { key } = op {
                Some(*key % (max_key + 2))
            } else {
                None
            }
        })
        .collect();
    if gets.is_empty() {
        return Err("sharded twin: the plan has no gets".into());
    }

    let io_before = db.io_snapshot();
    let stats_before = db.stats();
    let writer_done = AtomicBool::new(false);
    let (write_lat, write_secs, write_failed, get_lat, get_secs, get_failed) =
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let mut lat = Vec::with_capacity(writes.len());
                let mut failed = 0u64;
                let started = Instant::now();
                for op in &writes {
                    let t = Instant::now();
                    let ok = match op {
                        Op::Put { key, tick } => db.put(*key, *tick, value_for(*tick)).is_ok(),
                        Op::Delete { key } => db.delete(*key).is_ok(),
                        Op::DeleteRange { lo, hi } => db.delete_range(*lo, *hi).is_ok(),
                        _ => true,
                    };
                    lat.push(t.elapsed().as_nanos() as f64);
                    failed += u64::from(!ok);
                }
                let secs = started.elapsed().as_secs_f64();
                writer_done.store(true, Ordering::SeqCst);
                (lat, secs, failed)
            });
            let reader = scope.spawn(|| {
                let mut lat = Vec::new();
                let mut failed = 0u64;
                let started = Instant::now();
                // read for as long as the writer writes
                'outer: loop {
                    for key in &gets {
                        if writer_done.load(Ordering::SeqCst) {
                            break 'outer;
                        }
                        let t = Instant::now();
                        failed += u64::from(db.get(*key).is_err());
                        lat.push(t.elapsed().as_nanos() as f64);
                    }
                }
                (lat, started.elapsed().as_secs_f64(), failed)
            });
            let (wl, ws, wf) = writer.join().expect("twin writer thread panicked");
            let (gl, gs, gf) = reader.join().expect("twin reader thread panicked");
            (wl, ws, wf, gl, gs, gf)
        });
    twin.attempted += (write_lat.len() + get_lat.len()) as u64;
    twin.failed += write_failed + get_failed;
    twin.put_ops_per_s = write_lat.len() as f64 / write_secs;
    twin.get_ops_per_s = get_lat.len() as f64 / get_secs;
    let fsyncs = db.io_snapshot().since(&io_before).fsyncs;
    twin.records_per_fsync = write_lat.len() as f64 / fsyncs.max(1) as f64;
    twin.put_p99_us = Percentiles::new(write_lat)
        .capped(0.99, &crate::estimate::LADDER)
        .0
        / 1e3;
    twin.get_p99_us_under_writes = Percentiles::new(get_lat)
        .capped(0.99, &crate::estimate::LADDER)
        .0
        / 1e3;

    let started = Instant::now();
    let mut entries = 0u64;
    let mut lo = 0;
    while lo < max_key {
        for item in db.iter_range(lo, lo + SCAN_KEYS) {
            entries += 1;
            twin.failed += u64::from(item.is_err());
        }
        twin.attempted += 1;
        lo += SCAN_KEYS;
    }
    twin.scan_entries_per_s = entries as f64 / started.elapsed().as_secs_f64();

    twin.failed += u64::from(db.persist().is_err());
    let stats = db.stats();
    twin.jobs_done = (stats.flushes + stats.compactions
        - stats_before.flushes
        - stats_before.compactions) as f64;
    let pressure = db.backpressure();
    twin.stalls = pressure.stalls as f64;
    twin.slowdowns = pressure.slowdowns as f64;
    Ok(twin)
}
