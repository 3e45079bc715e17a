//! Per-layer probes: each times calls into one module's public functions,
//! from here, on inputs shaped like the workload's (32-entry 4 KiB pages,
//! 99-byte values, the workload's key range, per-page 10-bit filters).
//!
//! A probe repeats a fixed batch a few times and keeps the fastest batch,
//! for the same reason the run keeps blockwise minima. The numbers say what
//! a layer costs in isolation; `core.engine.*_unattributed_ns` says how much
//! of a real op they do not explain.

use crate::exec::value_for;
use crate::plan::{self, WorkloadDef};
use bytes::Bytes;
use lethe_lsm::{EntryCursor, LsmConfig, MergeIterator, SsTable, VecCursor};
use lethe_storage::{
    BloomFilter, Entry, FencePointers, FileBackend, FileDesc, FileWal, IoStats, Manifest,
    ManifestState, MemTable, Page, PageCache, StorageBackend, SyncPolicy, Wal, WalRecord,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// What the probes measured, in the unit each metric name carries.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    pub memtable_put_ns: f64,
    pub memtable_get_ns: f64,
    pub wal_append_ns: f64,
    pub wal_fsync_us: f64,
    pub wal_bytes_per_put: f64,
    pub wal_replay_records_per_s: f64,
    pub manifest_commit_us: f64,
    pub bloom_probe_ns: f64,
    pub bloom_false_positive_rate: f64,
    pub fence_locate_ns: f64,
    pub page_encode_us: f64,
    pub page_decode_us: f64,
    pub page_bytes_per_entry: f64,
    pub backend_read_page_us: f64,
    pub backend_write_page_us: f64,
    pub cache_get_ns: f64,
    pub cache_insert_ns: f64,
    pub merge_ns_per_entry: f64,
    pub sstable_build_entries_per_s: f64,
    pub sstable_get_us: f64,
}

/// Fastest of `reps` runs of `batch`, in seconds per run.
fn fastest(reps: usize, mut batch: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let started = Instant::now();
            batch();
            started.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn put_entry(key: u64, tick: u64) -> Entry {
    Entry::put(key, tick, tick, Bytes::from(value_for(tick)))
}

/// `n` even keys starting at `first`, as one page's (or file's) entries.
fn sorted_entries(first: u64, n: usize) -> Vec<Entry> {
    (0..n as u64)
        .map(|i| put_entry(first + 2 * i, 1 + i))
        .collect()
}

fn lsm_config(def: &WorkloadDef) -> LsmConfig {
    crate::exec::builder(def).config().clone()
}

pub fn run(def: &WorkloadDef, dir: &Path, seed: u64) -> Result<Probes, String> {
    let mut p = Probes::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x70_726F_6265);
    let key_space = 2 * def.preload as u64;
    let buffer_entries = plan::BUFFER_PAGES * plan::ENTRIES_PER_PAGE;
    let per_page = plan::ENTRIES_PER_PAGE;
    let err = |what: &str, e: lethe_storage::StorageError| format!("probe {what}: {e}");

    // memtable: fill one write buffer with random even keys, then read them
    let keys: Vec<u64> = (0..buffer_entries)
        .map(|_| rng.gen_range(0..key_space) & !1)
        .collect();
    let mut table = MemTable::new();
    p.memtable_put_ns = fastest(7, || {
        table = MemTable::new();
        for (i, k) in keys.iter().enumerate() {
            table.put(*k, i as u64, i as u64, Bytes::from(value_for(i as u64)));
        }
    }) / keys.len() as f64
        * 1e9;
    p.memtable_get_ns = fastest(7, || {
        for k in &keys {
            black_box(table.get(*k));
        }
    }) / keys.len() as f64
        * 1e9;

    // WAL: append one buffer of puts under the workload's sync policy, then
    // one explicit barrier, then replay what was written
    let wal_path = dir.join("probe.wal");
    let wal = FileWal::open(&wal_path)
        .map_err(|e| err("wal open", e))?
        .with_sync_policy(SyncPolicy::OnFlush);
    let mut append_s = f64::INFINITY;
    let mut fsyncs_us = Vec::new();
    for _ in 0..5 {
        wal.truncate().map_err(|e| err("wal truncate", e))?;
        let started = Instant::now();
        for (i, k) in keys.iter().enumerate() {
            let record = WalRecord::Put {
                sort_key: *k,
                delete_key: i as u64,
                value: Bytes::from(value_for(i as u64)),
                ts: i as u64,
            };
            wal.append(record).map_err(|e| err("wal append", e))?;
        }
        append_s = append_s.min(started.elapsed().as_secs_f64());
        let started = Instant::now();
        wal.sync().map_err(|e| err("wal sync", e))?;
        fsyncs_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    p.wal_append_ns = append_s / keys.len() as f64 * 1e9;
    p.wal_fsync_us = crate::estimate::median(&fsyncs_us);
    p.wal_bytes_per_put =
        std::fs::metadata(&wal_path).map_or(0, |m| m.len()) as f64 / keys.len() as f64;
    let mut replayed = 0usize;
    let replay_s = fastest(5, || replayed = wal.replay().map_or(0, |r| r.len()));
    p.wal_replay_records_per_s = replayed as f64 / replay_s;
    drop(wal);

    // manifest: a tree of 16 full files; each commit swaps one file for a
    // new one, as a flush or compaction does
    let pages_per_file = lsm_config(def).max_pages_per_file as u64;
    let tile = def.tile_pages.max(1) as u64;
    let desc = |id: u64| {
        let first_page = id * pages_per_file;
        Arc::new(FileDesc {
            id,
            created_at: id,
            oldest_tombstone_ts: None,
            max_seqnum: id * 1000,
            min_delete: id,
            max_delete: id + 1000,
            tiles: (0..pages_per_file / tile)
                .map(|t| (0..tile).map(|i| first_page + t * tile + i).collect())
                .collect(),
            range_tombstones: Vec::new(),
        })
    };
    let mut manifest =
        Manifest::open(dir.join("probe.manifest")).map_err(|e| err("manifest open", e))?;
    let mut files: Vec<Arc<FileDesc>> = (1..=16).map(desc).collect();
    let mut commits_us = Vec::new();
    for next in 17..17 + 12u64 {
        files.remove(0);
        files.push(desc(next));
        let state = ManifestState {
            next_file_id: next + 1,
            next_seqnum: next * 1000,
            clock_micros: next,
            levels: vec![vec![files.clone()]],
        };
        let started = Instant::now();
        manifest
            .commit(state)
            .map_err(|e| err("manifest commit", e))?;
        commits_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    // the first commit creates the file (a rewrite); the rest are edits
    p.manifest_commit_us = crate::estimate::median(&commits_us[1..]);
    drop(manifest);

    // Bloom: one page's filter; then the false-positive rate of 256 page
    // filters probed with keys that are never inserted (odd keys)
    let filters: Vec<BloomFilter> = (0..256u64)
        .map(|page| {
            let mut f = BloomFilter::new(per_page, 10.0);
            for i in 0..per_page as u64 {
                f.insert(2 * (page * per_page as u64 + i));
            }
            f
        })
        .collect();
    let probes: Vec<u64> = (0..8192).map(|_| rng.gen_range(0..key_space)).collect();
    p.bloom_probe_ns = fastest(7, || {
        for k in &probes {
            black_box(filters[0].may_contain(*k));
        }
    }) / probes.len() as f64
        * 1e9;
    let mut false_positives = 0u64;
    for (i, k) in probes.iter().enumerate() {
        false_positives += u64::from(filters[i % filters.len()].may_contain(*k | 1));
    }
    p.bloom_false_positive_rate = false_positives as f64 / probes.len() as f64;

    // fence pointers over as many pages as the preload fills
    let pages = (def.preload / per_page).max(1);
    let fences = FencePointers::new((0..pages as u64).map(|i| i * 2 * per_page as u64).collect());
    p.fence_locate_ns = fastest(7, || {
        for k in &probes {
            black_box(fences.locate(*k));
        }
    }) / probes.len() as f64
        * 1e9;

    // page codec
    let page = Page::from_sorted(sorted_entries(0, per_page));
    let mut encoded = page.encode();
    p.page_encode_us = fastest(7, || {
        for _ in 0..256 {
            encoded = black_box(&page).encode();
        }
    }) / 256.0
        * 1e6;
    p.page_decode_us = fastest(7, || {
        for _ in 0..256 {
            black_box(
                Page::decode(encoded.clone())
                    .map(|pg| pg.len())
                    .unwrap_or(0),
            );
        }
    }) / 256.0
        * 1e6;
    p.page_bytes_per_entry = encoded.len() as f64 / per_page as f64;

    // device: append 512 pages, then read them back in random order
    let backend =
        Arc::new(FileBackend::open_named(dir, "probe").map_err(|e| err("backend open", e))?);
    let mut ids = Vec::new();
    let started = Instant::now();
    for i in 0..512u64 {
        let page = Page::from_sorted(sorted_entries(i * 2 * per_page as u64, per_page));
        ids.push(
            backend
                .write_page(&page)
                .map_err(|e| err("write_page", e))?,
        );
    }
    // building the page is part of the loop; the codec probe above prices it
    p.backend_write_page_us = started.elapsed().as_secs_f64() / 512.0 * 1e6;
    let order: Vec<u64> = (0..2048)
        .map(|_| ids[rng.gen_range(0..ids.len())])
        .collect();
    p.backend_read_page_us = fastest(5, || {
        for id in &order {
            black_box(backend.read_page(*id).map(|pg| pg.len()).unwrap_or(0));
        }
    }) / order.len() as f64
        * 1e6;

    // block cache: hits on resident pages
    let cache = PageCache::new(64 << 20);
    let source = cache.register_source();
    let shared = Arc::new(page.clone());
    for id in &ids {
        cache.insert(source, *id, Arc::clone(&shared));
    }
    p.cache_get_ns = fastest(7, || {
        for id in &order {
            black_box(cache.get(source, *id).is_some());
        }
    }) / order.len() as f64
        * 1e9;

    // block cache at capacity: every insert evicts (the read_spill miss path)
    let small = PageCache::new(2 << 20);
    let source = small.register_source();
    let mut next_id = 0u64;
    let mut fill = |n: u64| {
        for _ in 0..n {
            small.insert(source, next_id, Arc::clone(&shared));
            next_id += 1;
        }
    };
    fill(1024);
    p.cache_insert_ns = fastest(7, || fill(2048)) / 2048.0 * 1e9;

    // merge: four sorted runs of one file each, keys interleaved
    let run_len = 8192usize;
    let runs: Vec<Vec<Entry>> = (0..4u64)
        .map(|r| {
            (0..run_len as u64)
                .map(|i| put_entry(2 * (4 * i + r), 1 + i))
                .collect()
        })
        .collect();
    let mut merged = 0usize;
    p.merge_ns_per_entry = fastest(5, || {
        let cursors: Vec<Box<dyn EntryCursor>> = runs
            .iter()
            .map(|r| Box::new(VecCursor::from_sorted(r.clone())) as Box<dyn EntryCursor>)
            .collect();
        merged = 0;
        if let Ok(mut it) = MergeIterator::new(cursors, Vec::new(), false) {
            while let Ok(Some(e)) = it.next_merged() {
                black_box(&e);
                merged += 1;
            }
        }
    }) / (4 * run_len) as f64
        * 1e9;
    if merged != 4 * run_len {
        return Err(format!(
            "probe merge: {merged} entries out of {}",
            4 * run_len
        ));
    }

    // table: build one full file on the device, then look keys up in it
    let config = lsm_config(def);
    let file_entries = config.entries_per_file();
    let mut built = None;
    let build_s = fastest(3, || {
        let entries = sorted_entries(0, file_entries);
        built = SsTable::build(1, entries, Vec::new(), 0, None, &config, backend.as_ref()).ok();
    });
    let table = built.ok_or("probe sstable: build failed")?;
    p.sstable_build_entries_per_s = file_entries as f64 / build_s;
    let stats = IoStats::new_shared();
    let lookups: Vec<u64> = (0..2048)
        .map(|_| 2 * rng.gen_range(0..file_entries as u64))
        .collect();
    let mut found = 0usize;
    p.sstable_get_us = fastest(5, || {
        found = 0;
        for k in &lookups {
            found += usize::from(matches!(
                table.get(*k, backend.as_ref(), &stats),
                Ok(Some(_))
            ));
        }
    }) / lookups.len() as f64
        * 1e6;
    if found != lookups.len() {
        return Err(format!(
            "probe sstable: found {found} of {} present keys",
            lookups.len()
        ));
    }
    Ok(p)
}
