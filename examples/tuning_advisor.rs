//! Tuning advisor: pick the delete-tile granularity `h` and see the predicted
//! cost trade-off of Equation (1)/(3) for your workload, then verify the
//! choice empirically on a scaled-down engine.
//!
//! Run with `cargo run --example tuning_advisor --release`.

use lethe::workload::{DeleteKeyCorrelation, WorkloadSpec};
use lethe::{
    best_delete_tile_pages_numeric, optimal_delete_tile_pages, workload_cost, LetheBuilder,
    TreeShape, WorkloadProfile,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Describe the production workload: how many of each operation run
    // between two secondary range deletes.
    let profile = WorkloadProfile {
        empty_point_lookups: 2.0e6,
        point_lookups: 8.0e6,
        short_range_lookups: 5.0e3,
        long_range_lookups: 100.0,
        long_range_selectivity: 1.0e-3,
        secondary_range_deletes: 1.0,
        inserts: 1.0e6,
    };
    // Describe the tree the workload runs against.
    let shape = TreeShape {
        entries: 2.0e9,
        entries_per_page: 4.0,
        levels: 6.0,
        false_positive_rate: 0.02,
        size_ratio: 10.0,
    };

    let h_bound = optimal_delete_tile_pages(&profile, &shape);
    let h_best = best_delete_tile_pages_numeric(&profile, &shape, 4096);
    println!("=== analytic tuning (paper §4.2.6) ===");
    println!("equation (3) bound on h : {h_bound}");
    println!("numeric optimum (Eq. 1) : {h_best}");
    println!("\n   h    weighted cost (page I/Os, lower is better)");
    for h in [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024] {
        let cost = workload_cost(&profile, &shape, h);
        let marker = if h == h_best { "  <- chosen" } else { "" };
        println!("{h:>5}    {cost:>18.0}{marker}");
    }

    // Build an engine with the chosen granularity and sanity-check it on a
    // scaled-down version of the same workload.
    println!("\n=== empirical spot check (scaled down) ===");
    let spec = WorkloadSpec {
        operations: 30_000,
        key_space: 30_000,
        value_size: 64,
        correlation: DeleteKeyCorrelation::Uncorrelated,
        ..WorkloadSpec::secondary_delete_mix(30_000, 0.0005, 0.2)
    };
    spec.validate().map_err(std::io::Error::other)?;

    for h in [1usize, 8, h_best.min(64)] {
        let mut db = LetheBuilder::new()
            .size_ratio(4)
            .buffer(64, 4, 64)
            .delete_persistence_threshold_secs(5.0)
            .delete_tile_pages(h)
            .build()?;
        let mut gen = lethe::workload::WorkloadGenerator::new(spec.clone());
        let before = db.io_snapshot();
        let mut ops_run = 0u64;
        for op in gen.operations() {
            use lethe::workload::Operation::*;
            match op {
                Put { key, delete_key } => db.put(key, delete_key, vec![0u8; 64])?,
                Get { key } | GetEmpty { key } => {
                    db.get(key)?;
                }
                Delete { key } => {
                    db.delete(key)?;
                }
                DeleteRange { start, end } => db.delete_range(start, end)?,
                RangeLookup { start, end } => {
                    db.range(start, end)?;
                }
                RangeStream { start, end, limit } => {
                    for item in db.iter_range(start, end)?.take(limit as usize) {
                        item?;
                    }
                }
                SecondaryRangeDelete { start, end } => {
                    db.delete_where_delete_key_in(start, end)?;
                }
                WriteBatch { ops } => {
                    let mut batch = lethe::WriteBatch::new();
                    for op in ops {
                        match op {
                            lethe::workload::BatchWriteOp::Put { key, delete_key } => {
                                batch.put(key, delete_key, vec![0u8; 64]);
                            }
                            lethe::workload::BatchWriteOp::Delete { key } => {
                                batch.delete(key);
                            }
                        }
                    }
                    db.write_batch(batch)?;
                }
                SnapshotRead { key } => {
                    db.capture_snapshot().get(key)?;
                }
            }
            ops_run += 1;
        }
        db.persist()?;
        let io = db.io_snapshot().since(&before);
        println!(
            "h = {h:>3}: {} page reads, {} page writes over {ops_run} ops",
            io.pages_read, io.pages_written
        );
    }
    println!("\npick the h whose measured I/O matches your read/delete balance;");
    println!("LetheBuilder::tune_delete_tiles_for() applies equation (3) automatically.");
    Ok(())
}
