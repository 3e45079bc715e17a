//! Quickstart: build a Lethe engine, write, read, delete, and watch deletes
//! persist within the configured threshold.
//!
//! Run with `cargo run --example quickstart --release`.

use lethe::{Lethe, LetheBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small engine built in memory:
    //  - size ratio T = 4
    //  - buffer of 32 pages × 4 entries
    //  - deletes must persist within 5 seconds of (logical) time
    //  - delete tiles of 4 pages for cheap secondary range deletes
    let mut db: Lethe = LetheBuilder::new()
        .size_ratio(4)
        .buffer(32, 4, 128)
        .delete_persistence_threshold_secs(5.0)
        .delete_tile_pages(4)
        .ingestion_rate(10_000)
        .build()?;

    // Ingest 20k orders: the sort key is the order id, the delete key is the
    // day the order was created.
    println!("ingesting 20,000 entries…");
    for order_id in 0..20_000u64 {
        let creation_day = order_id % 365;
        db.put(order_id, creation_day, format!("order payload #{order_id}"))?;
    }

    // Point lookups.
    println!("order 4242 -> {:?}", db.get(4242)?.map(|v| v.len()));
    assert!(db.get(4242)?.is_some());

    // Point delete: the key disappears immediately from the application's
    // point of view; FADE guarantees the physical tombstone reaches the last
    // level within the 5-second threshold.
    db.delete(4242)?;
    assert!(db.get(4242)?.is_none());

    // Range delete on the sort key.
    db.delete_range(100, 200)?;
    assert!(db.get(150)?.is_none());

    // Secondary range delete: purge everything created before day 30 without
    // a full-tree compaction — KiWi drops whole pages instead.
    let drops = db.delete_where_delete_key_in(0, 30)?;
    println!(
        "secondary range delete: {} entries removed, {} pages dropped whole, {} rewritten",
        drops.entries_deleted, drops.full_page_drops, drops.partial_page_drops
    );

    // Flush and let FADE run any TTL-driven compactions that are due.
    db.persist()?;

    let snapshot = db.snapshot_contents()?;
    println!(
        "tree: {} live keys, {} total entries, space amplification {:.4}, {} tombstones",
        snapshot.unique_entries,
        snapshot.total_entries,
        snapshot.space_amplification(),
        snapshot.tombstones
    );
    println!(
        "write amplification so far: {:.2}, I/O: {:?}",
        db.write_amplification(),
        db.io_snapshot()
    );
    let dth = db.config().delete_persistence_threshold.unwrap();
    for (age, count) in &snapshot.tombstone_file_ages {
        assert!(age <= &dth, "tombstone-bearing file older than the threshold");
        println!("  file with {count} tombstones is {age} µs old (Dth = {dth} µs)");
    }
    println!("all tombstone-bearing files are younger than Dth — deletes are on schedule");
    Ok(())
}
