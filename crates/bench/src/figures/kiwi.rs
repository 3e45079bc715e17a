//! Figures 6(H)–(L): the secondary-range-delete experiments.
//!
//! These figures explore the KiWi layout continuum: how the delete-tile
//! granularity `h` trades the cost of secondary range deletes (full page
//! drops) against point/range lookup cost, the CPU/I-O balance, and the
//! influence of sort-key/delete-key correlation.

use crate::{apply_all, cell, experiment_config, print_table, EngineSpec};
use lethe_core::kiwi::plan_secondary_delete;
use lethe_storage::CostModel;
use lethe_workload::{WorkloadGenerator, WorkloadSpec};

/// Builds a Lethe engine preloaded with `entries` keys whose delete keys are
/// either uncorrelated with (pseudo-random permutation) or equal to the sort
/// key.
fn preloaded_engine(h: usize, entries: u64, correlated: bool) -> lethe_core::Lethe {
    let cfg = experiment_config();
    let value_size = cfg.entry_size - 32;
    let spec = EngineSpec::Lethe { dth_micros: u64::MAX / 4, h };
    let mut engine = spec.build(cfg).expect("engine builds");
    for k in 0..entries {
        let d = if correlated { k } else { (k.wrapping_mul(2_654_435_761)) % entries };
        let mut v = vec![0u8; value_size];
        v[..8].copy_from_slice(&k.to_le_bytes());
        engine.tree_mut().put(k, d, v.into()).expect("put");
    }
    engine.persist().expect("persist");
    engine
}

/// Figure 6(H): percentage of affected pages that can be fully dropped, as a
/// function of the fraction of the database deleted, for several `h`.
pub fn fig6h(entries: u64) {
    let hs = [1usize, 4, 8, 16, 32, 64];
    let selectivities = [0.01, 0.02, 0.03, 0.04, 0.05];
    let mut header = vec!["h \\ deleted fraction".to_string()];
    header.extend(selectivities.iter().map(|s| format!("{}%", s * 100.0)));
    let mut rows = Vec::new();
    for &h in &hs {
        let engine = preloaded_engine(h, entries, false);
        let mut row = vec![format!("h={h}")];
        for &sel in &selectivities {
            let hi = (entries as f64 * sel) as u64;
            let plan = plan_secondary_delete(engine.tree(), 0, hi.max(1));
            row.push(cell(plan.full_drop_fraction() * 100.0));
        }
        rows.push(row);
    }
    print_table(
        "Figure 6(H) — % of affected pages dropped whole vs fraction of DB deleted",
        &header,
        &rows,
    );
}

/// Figure 6(I): average lookup cost in page I/Os vs delete-tile granularity,
/// for zero-result and existing-key lookups.
pub fn fig6i(entries: u64, lookups: u64) {
    let hs = [1usize, 2, 4, 8, 16, 32, 64];
    let cfg = experiment_config();
    let value_size = cfg.entry_size - 32;
    let mut rows = Vec::new();
    for &h in &hs {
        // only even keys are inserted so that zero-result lookups (odd keys)
        // fall inside the tree's key range and exercise the Bloom filters
        let spec = EngineSpec::Lethe { dth_micros: u64::MAX / 4, h };
        let mut engine = spec.build(cfg.clone()).expect("engine builds");
        for k in 0..entries {
            let d = (k.wrapping_mul(2_654_435_761)) % entries;
            let mut v = vec![0u8; value_size];
            v[..8].copy_from_slice(&k.to_le_bytes());
            engine.tree_mut().put(k * 2, d, v.into()).expect("put");
        }
        engine.persist().expect("persist");
        // existing keys
        let before = engine.tree().io_snapshot();
        for i in 0..lookups {
            let key = ((i * 7919) % entries) * 2;
            let _ = engine.tree_mut().get(key);
        }
        let existing = engine.tree().io_snapshot().since(&before);
        // missing keys inside the key range
        let before = engine.tree().io_snapshot();
        for i in 0..lookups {
            let key = ((i * 7919) % entries) * 2 + 1;
            let _ = engine.tree_mut().get(key);
        }
        let missing = engine.tree().io_snapshot().since(&before);
        rows.push(vec![
            format!("h={h}"),
            cell(existing.pages_read as f64 / lookups.max(1) as f64),
            cell(missing.pages_read as f64 / lookups.max(1) as f64),
            cell(existing.bloom_probes as f64 / lookups.max(1) as f64),
            cell(missing.bloom_probes as f64 / lookups.max(1) as f64),
        ]);
    }
    let header = vec![
        "delete-tile granularity".to_string(),
        "non-zero lookup (I/Os)".to_string(),
        "zero-result lookup (I/Os)".to_string(),
        "non-zero bloom probes".to_string(),
        "zero-result bloom probes".to_string(),
    ];
    print_table("Figure 6(I) — average lookup cost vs delete-tile granularity", &header, &rows);
}

/// Figure 6(J): average I/Os per operation for a mixed lookup + secondary
/// range delete workload, as the delete selectivity grows, for several `h`.
/// The lookup : secondary-delete ratio is scaled down from the paper's 10⁵:1
/// to keep the harness fast; the crossover structure is preserved.
pub fn fig6j(entries: u64, lookups_per_delete: u64) {
    let hs = [1usize, 2, 4, 8, 16];
    let selectivities = [0.01, 0.02, 0.03, 0.04, 0.05];
    let mut header = vec![format!("h \\ selectivity ({lookups_per_delete} lookups per SRD)")];
    header.extend(selectivities.iter().map(|s| format!("{}%", s * 100.0)));
    let mut rows = Vec::new();
    for &h in &hs {
        let mut row = vec![format!("h={h}")];
        for &sel in &selectivities {
            let mut engine = preloaded_engine(h, entries, false);
            let before = engine.tree().io_snapshot();
            for i in 0..lookups_per_delete {
                let key = (i * 104_729) % entries;
                let _ = engine.tree_mut().get(key);
            }
            let hi = ((entries as f64) * sel) as u64;
            let _ = engine.tree_mut().secondary_range_delete(0, hi.max(1));
            let delta = engine.tree().io_snapshot().since(&before);
            let ops = lookups_per_delete + 1;
            row.push(cell(delta.page_ios() as f64 / ops as f64));
        }
        rows.push(row);
    }
    print_table(
        "Figure 6(J) — average I/Os per operation vs secondary-delete selectivity",
        &header,
        &rows,
    );
}

/// Figure 6(K): CPU (hashing) time vs I/O time as the delete-tile
/// granularity grows, for the §5.2 workload: 50% point queries, 1% range
/// queries, 49% inserts, plus one secondary range delete of 1/7 of the
/// database.
pub fn fig6k(entries: u64, ops: u64) {
    let cfg = experiment_config();
    let value_size = cfg.entry_size - 32;
    let hs = [1usize, 2, 4, 8, 16, 32, 64];
    let model = CostModel::default();
    let mut rows = Vec::new();
    for &h in &hs {
        let mut engine = preloaded_engine(h, entries, false);
        let spec = WorkloadSpec {
            operations: ops,
            key_space: entries,
            value_size,
            update_fraction: 0.49,
            point_lookup_fraction: 0.50,
            range_lookup_fraction: 0.01,
            range_lookup_selectivity: 1.0e-5,
            ..Default::default()
        };
        let stream = WorkloadGenerator::new(spec).operations();
        let before = engine.tree().io_snapshot();
        apply_all(engine.tree_mut(), &stream, value_size).expect("mixed phase");
        // one secondary range delete covering 1/7 of the delete-key domain
        let _ = engine.tree_mut().secondary_range_delete(0, entries / 7);
        let delta = engine.tree().io_snapshot().since(&before);
        let hash_ms = model.cpu_time_us(&delta) / 1000.0;
        let io_ms = model.io_time_us(&delta) / 1000.0;
        rows.push(vec![
            format!("h={h}"),
            cell(hash_ms),
            cell(io_ms),
            cell(hash_ms + io_ms),
            delta.bloom_probes.to_string(),
            delta.page_ios().to_string(),
        ]);
    }
    let header = vec![
        "delete-tile granularity".to_string(),
        "hashing time (ms)".to_string(),
        "I/O time (ms)".to_string(),
        "total (ms)".to_string(),
        "bloom probes".to_string(),
        "page I/Os".to_string(),
    ];
    print_table(
        "Figure 6(K) — CPU (hashing) vs I/O time for the mixed workload + 1/7-DB secondary delete",
        &header,
        &rows,
    );
}

/// Figure 6(L): the effect of sort-key/delete-key correlation. For an
/// uncorrelated and a perfectly correlated workload, reports the cost of a
/// short range query and the fraction of pages a secondary range delete can
/// drop whole, across delete-tile sizes.
pub fn fig6l(entries: u64, range_queries: u64) {
    let hs = [1usize, 2, 4, 8, 16, 32, 64];
    let span = (entries / 200).max(4); // short range queries (~0.5% of the keys)
    let mut rows = Vec::new();
    for (label, correlated) in [("uncorrelated", false), ("correlated (≈1)", true)] {
        for &h in &hs {
            let mut engine = preloaded_engine(h, entries, correlated);
            // range query cost
            let before = engine.tree().io_snapshot();
            for i in 0..range_queries {
                let start = (i * 49_999) % (entries - span);
                let _ = engine.tree_mut().range(start, start + span);
            }
            let rq = engine.tree().io_snapshot().since(&before);
            // secondary range delete: drop 1/7 of the delete-key domain
            let plan = plan_secondary_delete(engine.tree(), 0, entries / 7);
            let before = engine.tree().io_snapshot();
            let stats = engine.tree_mut().secondary_range_delete(0, entries / 7).expect("srd");
            let srd = engine.tree().io_snapshot().since(&before);
            rows.push(vec![
                label.to_string(),
                format!("h={h}"),
                cell(rq.pages_read as f64 / range_queries.max(1) as f64),
                cell(plan.full_drop_fraction() * 100.0),
                cell(srd.page_ios() as f64),
                stats.full_page_drops.to_string(),
            ]);
        }
    }
    let header = vec![
        "workload".to_string(),
        "tile size".to_string(),
        "range query cost (I/Os)".to_string(),
        "% pages dropped whole".to_string(),
        "secondary delete I/Os".to_string(),
        "full page drops".to_string(),
    ];
    print_table(
        "Figure 6(L) — effect of sort/delete key correlation on range queries and secondary deletes",
        &header,
        &rows,
    );
}

/// Drives one full secondary-range-delete on engines with and without KiWi to
/// print a compact comparison (used by Figure 1's narrative).
pub fn secondary_delete_comparison(entries: u64) -> Vec<(String, u64, u64)> {
    let mut out = Vec::new();
    for (label, h) in [("classic layout (h=1)", 1usize), ("kiwi (h=16)", 16)] {
        let mut engine = preloaded_engine(h, entries, false);
        let before = engine.tree().io_snapshot();
        let _ = engine.tree_mut().secondary_range_delete(0, entries / 7);
        let delta = engine.tree().io_snapshot().since(&before);
        out.push((label.to_string(), delta.page_ios(), delta.pages_dropped));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preloaded_engine_answers_queries() {
        let mut e = preloaded_engine(4, 2_000, false);
        assert!(e.tree_mut().get(100).unwrap().is_some());
        assert!(e.tree_mut().get(5_000).unwrap().is_none());
        assert!(e.tree().disk_entries() > 0);
    }

    #[test]
    fn correlation_changes_full_drop_fraction() {
        let uncorrelated = preloaded_engine(1, 4_000, false);
        let correlated = preloaded_engine(1, 4_000, true);
        let pu = plan_secondary_delete(uncorrelated.tree(), 0, 1_000);
        let pc = plan_secondary_delete(correlated.tree(), 0, 1_000);
        assert!(
            pc.full_drop_fraction() > pu.full_drop_fraction(),
            "correlated {pc:?} vs uncorrelated {pu:?}"
        );
    }

    #[test]
    fn comparison_shows_kiwi_saves_io() {
        let results = secondary_delete_comparison(4_000);
        assert_eq!(results.len(), 2);
        let classic = results[0].1;
        let kiwi = results[1].1;
        assert!(kiwi < classic, "kiwi {kiwi} I/Os should be below classic {classic}");
    }
}
