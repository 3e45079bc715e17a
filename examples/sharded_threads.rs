//! Multi-threaded quick start for the sharded front-end.
//!
//! Eight writer/reader threads share one [`ShardedLethe`] by reference — no
//! external lock — while the store keeps Lethe's delete-aware guarantees per
//! shard. The run finishes with a retention-style secondary range delete
//! ("purge everything older than day 100") fanned out across all shards.
//!
//! ```text
//! cargo run --example sharded_threads
//! ```

use lethe::{LetheBuilder, ShardedLethe, ShardedLetheBuilder};
use std::time::Instant;

const THREADS: u64 = 8;
const KEYS_PER_THREAD: u64 = 25_000;

fn main() {
    // every engine knob is set on the LetheBuilder, which configures each
    // shard; the sharded builder adds only the shard count
    let db: ShardedLethe = ShardedLetheBuilder::from_builder(
        LetheBuilder::new()
            .buffer(32, 4, 64)
            .size_ratio(4)
            .delete_tile_pages(4)
            .delete_persistence_threshold_secs(60.0),
    )
    .shards(4)
    .build()
    .expect("an in-memory store opens");

    // Phase 1: concurrent ingest. Every thread writes its own key slice with
    // a "creation day" delete key, then reads a few of its keys back.
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let db = &db;
            s.spawn(move || {
                let base = t * KEYS_PER_THREAD;
                for k in base..base + KEYS_PER_THREAD {
                    let creation_day = k % 365;
                    db.put(k, creation_day, format!("payload-{k}")).unwrap();
                }
                for k in (base..base + KEYS_PER_THREAD).step_by(1000) {
                    assert!(db.get(k).unwrap().is_some());
                }
            });
        }
    });
    let ingest = start.elapsed();
    db.persist().unwrap();

    let total = THREADS * KEYS_PER_THREAD;
    println!(
        "ingested {total} entries from {THREADS} threads across {} shards in {ingest:.2?} \
         ({:.0} puts/s wall-clock)",
        db.shard_count(),
        total as f64 / ingest.as_secs_f64(),
    );

    // Phase 2: retention delete on the secondary (delete) key — the paper's
    // headline operation, here fanned out across every shard.
    let start = Instant::now();
    let stats = db.delete_where_delete_key_in(0, 100).unwrap();
    println!(
        "purged days [0, 100): {} entries via {} full page drops + {} partial drops in {:.2?}",
        stats.entries_deleted,
        stats.full_page_drops,
        stats.partial_page_drops,
        start.elapsed(),
    );
    assert!(db.scan_by_delete_key(0, 100).unwrap().is_empty());

    // Phase 3: aggregated observability across shards.
    let tree = db.stats();
    let io = db.io_snapshot();
    println!(
        "aggregate: {} flushes, {} compactions, {} pages written, {} pages dropped unread, \
         write amplification {:.2}",
        tree.flushes,
        tree.compactions,
        io.pages_written,
        io.pages_dropped,
        db.write_amplification(),
    );
}
