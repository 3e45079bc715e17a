//! The metric tables (name, unit, direction, bound) and how each value is
//! computed from the passes of a run.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a unit test
//! keeps the two in step.

use crate::estimate::{Percentiles, LADDER};
use crate::exec::{Counters, PassResult, C};
use crate::plan::{BlockKind, Op, Plan};
use crate::probes::Probes;
use crate::trace::{Phase, PhaseTotals};
use crate::twin::Twin;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(&self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How `compare` judges two sets of runs of one end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Judge {
    /// Wall clock or memory: medians may differ by the bound.
    Measured,
    /// Computed from the engine's counters: the same code and seeds must
    /// reproduce it exactly; the bound is for changes to the code.
    Counted,
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub judge: Judge,
    pub what: &'static str,
}

use Better::{Higher, Lower};
use Judge::{Counted, Measured};

#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 12] = [
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25, judge: Measured, what: "open + preload + persist(), sum of the set-up chunks' minima" },
    EndToEnd { name: "put_ops_per_s", unit: "1/s", better: Higher, bound: 0.25, judge: Measured, what: "writes (puts, point and range deletes) including inline flush and compaction" },
    EndToEnd { name: "get_ops_per_s", unit: "1/s", better: Higher, bound: 0.25, judge: Measured, what: "point lookups in the workload's hit/miss mix" },
    EndToEnd { name: "scan_entries_per_s", unit: "1/s", better: Higher, bound: 0.25, judge: Measured, what: "entries yielded by iter_range drains" },
    EndToEnd { name: "srd_ms", unit: "ms", better: Lower, bound: 0.25, judge: Measured, what: "mean delete_where_delete_key_in call" },
    EndToEnd { name: "reopen_s", unit: "s", better: Lower, bound: 0.25, judge: Measured, what: "drop + open of the same directory: data-file scan, manifest fold, filter rebuild, WAL replay" },
    EndToEnd { name: "write_amp", unit: "ratio", better: Lower, bound: 0.05, judge: Counted, what: "page bytes written / bytes ingested, whole pass" },
    EndToEnd { name: "space_amp", unit: "ratio", better: Lower, bound: 0.05, judge: Counted, what: "bytes of all entries / bytes of live newest versions (1 + the paper's s_amp)" },
    EndToEnd { name: "disk_amp", unit: "ratio", better: Lower, bound: 0.05, judge: Counted, what: "bytes of all files in the store directory / bytes of live newest versions" },
    EndToEnd { name: "pages_read_per_get", unit: "ratio", better: Lower, bound: 0.05, judge: Counted, what: "device pages read in counted get blocks / gets" },
    EndToEnd { name: "fsyncs_per_write", unit: "ratio", better: Lower, bound: 0.05, judge: Counted, what: "durability barriers in set-up and put blocks / writes" },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Lower, bound: 0.05, judge: Measured, what: "VmHWM after the last of the identical passes" },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric this should move, and on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const WRITE_PATH: &str = "put_ops_per_s on ingest_fade";
const READ_PATH: &str = "get_ops_per_s, pages_read_per_get on read_spill";
const MAINTENANCE: &str = "put_ops_per_s, write_amp on ingest_fade";
const FADE: &str = "write_amp, space_amp on ingest_fade";
const KIWI: &str = "srd_ms on purge_window";
const LATENCY: &str = "the matching throughput metric, every workload";
const UNGATED: &str = "none (sharded twin, recorded only)";

#[rustfmt::skip]
pub const PER_LAYER: [PerLayer; 78] = [
    layer("workload.generator.ops_per_s", "1/s", Higher, "none (shows the generator is not the bottleneck)"),
    layer("storage.memtable.put_ns", "ns", Lower, WRITE_PATH),
    layer("storage.memtable.get_ns", "ns", Lower, "get_ops_per_s, every workload"),
    layer("storage.wal.append_ns", "ns", Lower, WRITE_PATH),
    layer("storage.wal.fsync_us", "us", Lower, "put_ops_per_s on ingest_fade (the sandbox's fsync, not a device's)"),
    layer("storage.wal.bytes_per_put", "B", Lower, WRITE_PATH),
    layer("storage.wal.replay_records_per_s", "1/s", Higher, "reopen_s, every workload"),
    layer("storage.manifest.commits", "count", Lower, "put_ops_per_s, reopen_s on ingest_fade, purge_window"),
    layer("storage.manifest.commit_us", "us", Lower, "put_ops_per_s, srd_ms on ingest_fade, purge_window"),
    layer("storage.manifest.bytes", "B", Lower, "reopen_s, disk_amp on ingest_fade, purge_window"),
    layer("storage.bloom.probe_ns", "ns", Lower, READ_PATH),
    layer("storage.bloom.probes_per_get", "ratio", Lower, READ_PATH),
    layer("storage.bloom.false_positive_rate", "ratio", Lower, READ_PATH),
    layer("storage.fence.locate_ns", "ns", Lower, "get_ops_per_s on read_spill, read_hot"),
    layer("storage.page.encode_us", "us", Lower, "put_ops_per_s on ingest_fade"),
    layer("storage.page.decode_us", "us", Lower, "get_ops_per_s, scan_entries_per_s, reopen_s on read_spill; no move on read_hot gets"),
    layer("storage.page.bytes_per_entry", "B", Lower, "write_amp, disk_amp on ingest_fade"),
    layer("storage.backend.read_page_us", "us", Lower, "get_ops_per_s on read_spill; no move on read_hot"),
    layer("storage.backend.write_page_us", "us", Lower, WRITE_PATH),
    layer("storage.backend.pages_written_per_put", "ratio", Lower, "write_amp on ingest_fade"),
    layer("storage.backend.file_bytes", "B", Lower, "disk_amp, reopen_s on ingest_fade"),
    layer("storage.cache.get_ns", "ns", Lower, "get_ops_per_s on read_hot"),
    layer("storage.cache.insert_ns", "ns", Lower, "get_ops_per_s on read_spill (a miss inserts and evicts)"),
    layer("storage.cache.hit_rate", "ratio", Higher, "get_ops_per_s on read_hot (hit path) vs read_spill (eviction path)"),
    layer("storage.cache.evictions_per_get", "ratio", Lower, "get_ops_per_s on read_spill"),
    layer("storage.cache.pages_resident_per_mib", "1/MiB", Higher, "storage.cache.hit_rate on read_spill"),
    layer("lsm.tree.flushes", "count", Lower, MAINTENANCE),
    layer("lsm.tree.compactions", "count", Lower, MAINTENANCE),
    layer("lsm.tree.ttl_triggered_compactions", "count", Lower, MAINTENANCE),
    layer("lsm.tree.bytes_flushed", "B", Lower, MAINTENANCE),
    layer("lsm.tree.bytes_compacted", "B", Lower, MAINTENANCE),
    layer("lsm.tree.entries_compacted_per_put", "ratio", Lower, MAINTENANCE),
    layer("lsm.tree.levels", "count", Lower, "pages_read_per_get on read_spill"),
    layer("lsm.tree.files", "count", Lower, "reopen_s, peak_rss_mb"),
    layer("lsm.tree.flush_ms", "ms", Lower, WRITE_PATH),
    layer("lsm.tree.compaction_ms", "ms", Lower, WRITE_PATH),
    layer("lsm.tree.put_p99_us", "us", Lower, WRITE_PATH),
    layer("lsm.tree.put_max_ms", "ms", Lower, "put_ops_per_s on ingest_fade (the inline-maintenance stall a median hides)"),
    layer("lsm.tree.put_stall_share", "ratio", Lower, WRITE_PATH),
    layer("lsm.cursor.merge_ns_per_entry", "ns", Lower, "scan_entries_per_s everywhere, put_ops_per_s on ingest_fade"),
    layer("lsm.cursor.peak_working_set", "count", Lower, "peak_rss_mb"),
    layer("lsm.sstable.build_entries_per_s", "1/s", Higher, WRITE_PATH),
    layer("lsm.sstable.get_us", "us", Lower, READ_PATH),
    layer("lsm.sstable.metadata_bytes_per_entry", "B", Lower, "reopen_s, peak_rss_mb"),
    layer("core.fade.ttl_compactions", "count", Lower, FADE),
    layer("core.fade.tombstones_resident", "count", Lower, FADE),
    layer("core.fade.blind_deletes_suppressed", "count", Higher, FADE),
    layer("core.fade.max_tombstone_age_over_dth", "ratio", Lower, "the paper's promise: must stay <= 1 on ingest_fade"),
    layer("core.kiwi.full_page_drops", "count", Higher, KIWI),
    layer("core.kiwi.partial_page_drops", "count", Lower, KIWI),
    layer("core.kiwi.pages_read_per_srd", "ratio", Lower, KIWI),
    layer("core.kiwi.pages_written_per_srd", "ratio", Lower, KIWI),
    layer("core.kiwi.entries_deleted", "count", Higher, KIWI),
    layer("core.kiwi.dscan_entries_per_s", "1/s", Higher, "none (secondary range lookups are not an end-to-end block)"),
    layer("core.engine.get_samples", "count", Higher, "none (sample count behind the get percentiles)"),
    layer("core.engine.get_mean_us", "us", Lower, LATENCY),
    layer("core.engine.get_p50_us", "us", Lower, LATENCY),
    layer("core.engine.get_p99_us", "us", Lower, LATENCY),
    layer("core.engine.get_p999_us", "us", Lower, LATENCY),
    layer("core.engine.put_mean_us", "us", Lower, LATENCY),
    layer("core.engine.put_p50_us", "us", Lower, LATENCY),
    layer("core.engine.scan_p50_ms", "ms", Lower, LATENCY),
    layer("core.engine.srd_max_ms", "ms", Lower, LATENCY),
    layer("core.engine.recover_wal_records", "count", Lower, "reopen_s, every workload"),
    layer("core.engine.get_unattributed_ns", "ns", Lower, "get_ops_per_s on read_spill (time no probe explains)"),
    layer("core.engine.put_unattributed_ns", "ns", Lower, "put_ops_per_s on ingest_fade (time no probe explains)"),
    layer("core.shard.put_ops_per_s", "1/s", Higher, UNGATED),
    layer("core.shard.get_ops_per_s", "1/s", Higher, UNGATED),
    layer("core.shard.scan_entries_per_s", "1/s", Higher, UNGATED),
    layer("core.shard.records_per_fsync", "ratio", Higher, UNGATED),
    layer("core.shard.put_p99_us", "us", Lower, UNGATED),
    layer("core.shard.get_p99_us_under_writes", "us", Lower, UNGATED),
    layer("core.compactor.jobs_done", "count", Lower, UNGATED),
    layer("core.compactor.stalls", "count", Lower, UNGATED),
    layer("core.compactor.slowdowns", "count", Lower, UNGATED),
    layer("trace.overhead_pct", "%", Lower, "none (traced pass's block time over the untraced minimum)"),
    layer("trace.counts_match", "bool", Higher, "none (1 when the traced pass counted exactly what the untraced passes did)"),
    layer("trace.spans", "count", Lower, "none (spans recorded by the traced pass)"),
];

/// A metric name is made of letters, digits, `_`, `.` and `-`, starts with a
/// letter or digit and is at most 64 characters.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Metric values in table order.
pub type Values = Vec<(&'static str, f64, &'static str)>;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Sums over the counted blocks of one kind.
pub struct KindSums {
    /// Sum of the blocks' minimum durations, seconds.
    pub secs: f64,
    pub ops: u64,
    pub counters: Counters,
    pub entries: u64,
}

/// `min` is the blockwise minimum of the passes' times; counters and results
/// come from `pass` (every pass has the same, or the run is incorrect).
pub fn kind_sums(plan: &Plan, pass: &PassResult, min: &[f64], kind: BlockKind) -> KindSums {
    let mut sums = KindSums {
        secs: 0.0,
        ops: 0,
        counters: Counters::default(),
        entries: 0,
    };
    for (i, block) in plan.blocks.iter().enumerate() {
        if block.kind == kind && block.counted {
            sums.secs += min[i];
            sums.ops += block.ops.len() as u64;
            sums.counters.add(&pass.deltas[i]);
            sums.entries += pass.got[i].entries;
        }
    }
    sums
}

/// `min` holds seconds per block, each the minimum over the passes.
pub fn end_to_end(
    plan: &Plan,
    pass: &PassResult,
    min: &[f64],
    contents: &lethe_lsm::ContentSnapshot,
    peak_rss_mb: f64,
) -> Values {
    let setup = kind_sums(plan, pass, min, BlockKind::Setup);
    let put = kind_sums(plan, pass, min, BlockKind::Put);
    let get = kind_sums(plan, pass, min, BlockKind::Get);
    let scan = kind_sums(plan, pass, min, BlockKind::Scan);
    let srd = kind_sums(plan, pass, min, BlockKind::Srd);
    let reopen = kind_sums(plan, pass, min, BlockKind::Reopen);
    let totals = &pass.end.totals;
    let unique = contents.unique_bytes as f64;
    let values = [
        setup.secs,
        ratio(put.ops as f64, put.secs),
        ratio(get.ops as f64, get.secs),
        ratio(scan.entries as f64, scan.secs),
        ratio(srd.secs * 1e3, srd.ops as f64),
        reopen.secs,
        ratio(
            totals.get(C::BytesWritten) as f64,
            totals.get(C::BytesIngested) as f64,
        ),
        ratio(contents.total_bytes as f64, unique),
        ratio(pass.end.dir_bytes as f64, unique),
        ratio(get.counters.get(C::PagesRead) as f64, get.ops as f64),
        ratio(
            (setup.counters.get(C::Fsyncs) + put.counters.get(C::Fsyncs)) as f64,
            (setup.ops + put.ops) as f64,
        ),
        peak_rss_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(def, v)| (def.name, v, def.unit))
        .collect()
}

/// Everything the traced run gathered beyond the untraced passes.
pub struct Traced<'a> {
    pub pass: &'a PassResult,
    pub phases: &'a BTreeMap<Phase, PhaseTotals>,
    pub spans: usize,
    pub probes: &'a Probes,
    pub twin: &'a Twin,
    pub counts_match: bool,
    pub metadata_bytes: u64,
    pub disk_entries: u64,
}

pub fn per_layer(plan: &Plan, pass: &PassResult, min: &[f64], t: &Traced<'_>) -> Values {
    let get = kind_sums(plan, pass, min, BlockKind::Get);
    let srd = kind_sums(plan, pass, min, BlockKind::Srd);
    let totals = &pass.end.totals;
    let end = &pass.end;
    let p = t.probes;
    let gets = get.ops as f64;

    let phase = |ph: Phase| t.phases.get(&ph).copied().unwrap_or_default();
    let mean_ms = |ph: Phase| ratio(phase(ph).wall_ns as f64 / 1e6, phase(ph).count as f64);

    let get_lat = Percentiles::new(t.pass.traced.samples.get.clone());
    let put_lat = Percentiles::new(t.pass.traced.samples.put.clone());
    let scan_lat = Percentiles::new(t.pass.traced.samples.scan.clone());
    let srd_lat = Percentiles::new(t.pass.traced.samples.srd.clone());
    let stalled_ns: f64 = t.pass.traced.samples.put_stalled.iter().sum();
    let put_total_ns: f64 = t.pass.traced.samples.put.iter().sum();

    // what the probes explain of one get and one put
    let cache_lookups = (get.counters.get(C::CacheHits) + get.counters.get(C::CacheMisses)) as f64;
    let get_explained = p.memtable_get_ns
        + ratio(get.counters.get(C::BloomProbes) as f64, gets) * p.bloom_probe_ns
        + end.levels as f64 * p.fence_locate_ns
        + ratio(cache_lookups, gets) * p.cache_get_ns
        + ratio(get.counters.get(C::CacheMisses) as f64, gets) * p.cache_insert_ns
        + ratio(get.counters.get(C::PagesRead) as f64, gets) * p.backend_read_page_us * 1e3;
    let put_explained = p.memtable_put_ns
        + p.wal_append_ns
        + ratio(
            t.pass.traced.samples.maintenance_ns,
            t.pass.traced.samples.put.len() as f64,
        );

    let traced_secs: f64 = t.pass.slices.iter().sum();
    let untraced_secs: f64 = min.iter().sum();
    let new_ticks = plan
        .blocks
        .iter()
        .flat_map(|b| b.ops.iter())
        .filter(|op| matches!(op, Op::Put { .. }))
        .count();

    let values = [
        ratio(plan.generated_ops() as f64, plan.generate_secs),
        p.memtable_put_ns,
        p.memtable_get_ns,
        p.wal_append_ns,
        p.wal_fsync_us,
        p.wal_bytes_per_put,
        p.wal_replay_records_per_s,
        // every flush, compaction and secondary delete installs one version
        (totals.get(C::Flushes) + totals.get(C::Compactions)) as f64
            + plan
                .blocks
                .iter()
                .filter(|b| b.kind == BlockKind::Srd)
                .map(|b| b.ops.len())
                .sum::<usize>() as f64,
        p.manifest_commit_us,
        end.manifest_bytes as f64,
        p.bloom_probe_ns,
        ratio(get.counters.get(C::BloomProbes) as f64, gets),
        p.bloom_false_positive_rate,
        p.fence_locate_ns,
        p.page_encode_us,
        p.page_decode_us,
        p.page_bytes_per_entry,
        p.backend_read_page_us,
        p.backend_write_page_us,
        ratio(totals.get(C::PagesWritten) as f64, new_ticks as f64),
        end.data_file_bytes as f64,
        p.cache_get_ns,
        p.cache_insert_ns,
        ratio(get.counters.get(C::CacheHits) as f64, cache_lookups),
        ratio(get.counters.get(C::CacheEvictions) as f64, gets),
        ratio(
            end.cache_pages_resident as f64,
            end.cache_bytes_resident as f64 / (1 << 20) as f64,
        ),
        totals.get(C::Flushes) as f64,
        totals.get(C::Compactions) as f64,
        totals.get(C::TtlCompactions) as f64,
        totals.get(C::BytesFlushed) as f64,
        totals.get(C::BytesCompacted) as f64,
        ratio(
            totals.get(C::EntriesCompacted) as f64,
            totals.get(C::EntriesIngested) as f64,
        ),
        end.levels as f64,
        end.files as f64,
        mean_ms(Phase::Flush),
        mean_ms(Phase::Compaction),
        put_lat.capped(0.99, &LADDER).0 / 1e3,
        put_lat.max() / 1e6,
        ratio(stalled_ns, put_total_ns),
        p.merge_ns_per_entry,
        end.merge_peak_entries as f64,
        p.sstable_build_entries_per_s,
        p.sstable_get_us,
        ratio(t.metadata_bytes as f64, t.disk_entries as f64),
        t.pass.traced.delete_driven_compactions as f64,
        end.tombstones as f64,
        totals.get(C::BlindDeletesSuppressed) as f64,
        end.max_tombstone_age_ppm as f64 / 1e6,
        totals.get(C::SrdFullDrops) as f64,
        totals.get(C::SrdPartialDrops) as f64,
        ratio(srd.counters.get(C::PagesRead) as f64, srd.ops as f64),
        ratio(srd.counters.get(C::PagesWritten) as f64, srd.ops as f64),
        totals.get(C::SrdEntriesDeleted) as f64,
        ratio(t.pass.traced.dscan.1 as f64, t.pass.traced.dscan.0),
        get_lat.samples() as f64,
        get_lat.mean() / 1e3,
        get_lat.at(0.5) / 1e3,
        get_lat.capped(0.99, &LADDER).0 / 1e3,
        get_lat.capped(0.999, &LADDER).0 / 1e3,
        put_lat.mean() / 1e3,
        put_lat.at(0.5) / 1e3,
        scan_lat.at(0.5) / 1e6,
        srd_lat.max() / 1e6,
        end.wal_records_at_reopen as f64,
        get_lat.mean() - get_explained,
        put_lat.mean() - put_explained,
        t.twin.put_ops_per_s,
        t.twin.get_ops_per_s,
        t.twin.scan_entries_per_s,
        t.twin.records_per_fsync,
        t.twin.put_p99_us,
        t.twin.get_p99_us_under_writes,
        t.twin.jobs_done,
        t.twin.stalls,
        t.twin.slowdowns,
        ratio(traced_secs - untraced_secs, untraced_secs) * 100.0,
        f64::from(u8::from(t.counts_match)),
        t.spans as f64,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(def, v)| (def.name, v, def.unit))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn metric_names_use_the_contract_charset_and_are_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(crate::plan::WORKLOADS.iter().map(|w| w.name))
            .collect();
        for name in &names {
            assert!(valid_name(name), "bad metric name {name:?}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        for bad in ["", "-x", ".x", "a b", "a/b", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "accepted {bad:?}");
        }
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit_ok(unit), "bad unit {unit:?}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `BENCHMARK.json` is what the driver reads; the tables here are what
    /// the binary prints. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("BENCHMARK.json: `{key}` is {other:?}"),
        };
        let field =
            |item: &Json, key: &str| item.get(key).and_then(Json::as_str).map(str::to_owned);

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (item, def) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(item, "name").as_deref(), Some(def.name));
            assert_eq!(field(item, "unit").as_deref(), Some(def.unit));
            assert_eq!(field(item, "better").as_deref(), Some(def.better.as_str()));
            assert_eq!(
                item.get("bound").and_then(Json::as_f64),
                Some(def.bound),
                "{}",
                def.name
            );
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (item, def) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(item, "name").as_deref(), Some(def.name));
            assert_eq!(field(item, "unit").as_deref(), Some(def.unit));
            assert_eq!(field(item, "better").as_deref(), Some(def.better.as_str()));
        }
        let workloads = list("workloads");
        assert_eq!(workloads.len(), crate::plan::WORKLOADS.len());
        for (item, def) in workloads.iter().zip(&crate::plan::WORKLOADS) {
            assert_eq!(field(item, "name").as_deref(), Some(def.name));
            assert_eq!(field(item, "why").as_deref(), Some(def.why));
            assert!(
                def.why.len() <= 200,
                "{}: why is {} characters",
                def.name,
                def.why.len()
            );
        }
        assert_eq!(list("paths"), vec![Json::Str("benchmark".into())]);
    }
}
