//! Scenario 1 of the paper (EComp): an e-commerce company stores order
//! details sorted by `order_id` and must delete a user's order history — a
//! set of point and range deletes on the sort key — while honouring a
//! right-to-be-forgotten SLA (the delete persistence threshold `D_th`).
//!
//! The example drives a Lethe engine and a RocksDB-like baseline through the
//! same workload and compares how quickly the logical deletes become
//! persistent, and what that does to space amplification.
//!
//! Run with `cargo run --example order_history_purge --release`.

use lethe::workload::{Operation, WorkloadGenerator, WorkloadSpec};
use lethe::{BaselineKind, LetheBuilder, LsmConfig};

const TOTAL_ORDERS: u64 = 40_000;
const USERS: u64 = 400;

fn config() -> LsmConfig {
    LsmConfig {
        size_ratio: 4,
        buffer_pages: 64,
        entries_per_page: 4,
        entry_size: 128,
        max_pages_per_file: 16,
        ingestion_rate: 20_000,
        ..LsmConfig::default()
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Lethe: deletes must persist within 2 seconds of logical time
    // (a stand-in for the "30 days" of a real retention SLA).
    let mut lethe = LetheBuilder::new()
        .with_config(config())
        .delete_persistence_threshold_secs(2.0)
        .delete_tile_pages(1) // primary deletes only: the classic layout is optimal
        .build()?;
    let mut baseline = BaselineKind::RocksDbLike.build(config())?;

    // Phase 1 — ingest the order history. Order ids are grouped by user:
    // user `u` owns orders [u*100, u*100+100).
    println!("ingesting {TOTAL_ORDERS} orders for {USERS} users…");
    let spec = WorkloadSpec {
        preload_keys: TOTAL_ORDERS,
        key_space: TOTAL_ORDERS,
        value_size: 100,
        ..Default::default()
    };
    let mut gen = WorkloadGenerator::new(spec);
    for op in gen.preload() {
        if let Operation::Put { key, delete_key } = op {
            let payload = format!("order {key}");
            lethe.put(key, delete_key, payload.clone())?;
            baseline.put(key, delete_key, payload)?;
        }
    }

    // Phase 2 — a user exercises the right to be forgotten: delete all of
    // their orders (a range delete on the sort key) plus a handful of point
    // deletes for orders that were migrated elsewhere.
    let forgotten_user = 123u64;
    let start = forgotten_user * (TOTAL_ORDERS / USERS);
    let end = start + TOTAL_ORDERS / USERS;
    println!("deleting order history of user {forgotten_user} (orders {start}..{end})…");
    lethe.delete_range(start, end)?;
    baseline.delete_range(start, end)?;
    for order in (0..TOTAL_ORDERS).step_by(1000) {
        lethe.delete(order)?;
        baseline.delete(order)?;
    }

    // Phase 3 — the workload keeps running (other users keep ordering);
    // logical time advances past the SLA threshold.
    for key in TOTAL_ORDERS..TOTAL_ORDERS + 60_000 {
        let payload = format!("order {key}");
        lethe.put(key, key % 365, payload.clone())?;
        baseline.put(key, key % 365, payload)?;
    }
    lethe.persist()?;
    baseline.persist()?;

    // Phase 4 — audit: has the deletion actually been persisted?
    let dth = lethe.config().delete_persistence_threshold.unwrap();
    let lethe_snap = lethe.snapshot_contents()?;
    let base_snap = baseline.tree().snapshot_contents()?;

    println!("\n=== audit ===");
    println!("delete persistence threshold (logical): {} s", dth / 1_000_000);
    let lethe_overdue: u64 = lethe_snap
        .tombstone_file_ages
        .iter()
        .filter(|(age, _)| *age > dth)
        .map(|(_, n)| *n)
        .sum();
    let base_overdue: u64 = base_snap
        .tombstone_file_ages
        .iter()
        .filter(|(age, _)| *age > dth)
        .map(|(_, n)| *n)
        .sum();
    println!(
        "lethe   : {:>6} tombstones still in the tree, {:>6} older than the SLA, space amp {:.4}",
        lethe_snap.tombstones,
        lethe_overdue,
        lethe_snap.space_amplification()
    );
    println!(
        "baseline: {:>6} tombstones still in the tree, {:>6} older than the SLA, space amp {:.4}",
        base_snap.tombstones,
        base_overdue,
        base_snap.space_amplification()
    );
    assert_eq!(lethe_overdue, 0, "Lethe must persist every delete within the SLA");

    // The user's data is gone from both engines' query interface either way —
    // the difference is whether the *bytes* are still on disk.
    assert!(lethe.get(start + 5)?.is_none());
    assert!(baseline.get(start + 5)?.is_none());
    println!("\nuser {forgotten_user}'s orders are unreadable in both engines;");
    println!("only Lethe guarantees the physical copies were purged within the SLA.");
    Ok(())
}
