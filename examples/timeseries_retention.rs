//! Scenario 2 of the paper (DComp): a data company stores operational
//! documents sorted by `document_id` but must *delete by timestamp* — "drop
//! everything older than D days" — even though the timestamp is not the sort
//! key. This is a **secondary range delete**, the operation KiWi is built
//! for.
//!
//! The example compares three layouts on the same retention workload:
//! the state-of-the-art baseline (full-tree compaction), Lethe with `h = 1`
//! (classic layout + delete fences) and Lethe with a tuned `h`, reporting the
//! I/O each daily purge costs.
//!
//! Run with `cargo run --example timeseries_retention --release`.

use lethe::storage::CostModel;
use lethe::{BaselineKind, Lethe, LetheBuilder, LsmConfig};

const DOCS: u64 = 60_000;
const DAYS: u64 = 30;
const RETAIN_DAYS: u64 = 23;

fn config() -> LsmConfig {
    LsmConfig {
        size_ratio: 4,
        buffer_pages: 64,
        entries_per_page: 4,
        entry_size: 128,
        max_pages_per_file: 32,
        ingestion_rate: 50_000,
        ..LsmConfig::default()
    }
}

/// Ingest `DOCS` documents whose ids arrive in random-ish order while their
/// timestamps advance monotonically (id and timestamp are uncorrelated).
fn ingest(mut put: impl FnMut(u64, u64, String)) {
    for i in 0..DOCS {
        let doc_id = (i * 7919) % DOCS; // scrambled arrival order (7919 is coprime to DOCS)
        let day = i * DAYS / DOCS; // timestamps move forward
        put(doc_id, day, format!("document {doc_id} created on day {day}"));
    }
}

fn report(label: &str, pages_read: u64, pages_written: u64, dropped: u64, deleted: u64) {
    let model = CostModel::default();
    let io_us = pages_read as f64 * model.page_read_us + pages_written as f64 * model.page_write_us;
    println!(
        "{label:<28} {deleted:>7} docs purged | {pages_read:>7} pages read, {pages_written:>7} written, {dropped:>7} dropped whole | modeled I/O {:>9.1} ms",
        io_us / 1000.0
    );
}

fn run_lethe(h: usize) -> Result<(), Box<dyn std::error::Error>> {
    let mut db: Lethe = LetheBuilder::new()
        .with_config(config())
        .delete_persistence_threshold_secs(10.0)
        .delete_tile_pages(h)
        .build()?;
    ingest(|k, d, v| db.put(k, d, v).unwrap());
    db.persist()?;
    let before = db.io_snapshot();
    let stats = db.delete_where_delete_key_in(0, DAYS - RETAIN_DAYS)?;
    let delta = db.io_snapshot().since(&before);
    report(
        &format!("lethe (h = {h})"),
        delta.pages_read,
        delta.pages_written,
        stats.full_page_drops,
        stats.entries_deleted,
    );
    // retention audit: nothing older than the cutoff is readable any more
    assert!(db.scan_by_delete_key(0, DAYS - RETAIN_DAYS)?.is_empty());
    Ok(())
}

fn run_baseline() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = BaselineKind::RocksDbLike.build(config())?;
    ingest(|k, d, v| db.put(k, d, v).unwrap());
    db.persist()?;
    let before = db.tree().io_snapshot();
    let stats = db.delete_where_delete_key_in(0, DAYS - RETAIN_DAYS)?;
    let delta = db.tree().io_snapshot().since(&before);
    report(
        "state of the art (full tree)",
        delta.pages_read,
        delta.pages_written,
        stats.full_page_drops,
        stats.entries_deleted,
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "retention purge: drop the oldest {} of {DAYS} days from {DOCS} documents\n",
        DAYS - RETAIN_DAYS
    );
    run_baseline()?;
    for h in [1, 4, 16] {
        run_lethe(h)?;
    }
    println!("\nlarger delete tiles turn the daily purge from a full-tree rewrite into");
    println!("mostly whole-page drops; lookups pay for it, so pick h with the tuner");
    println!("(see the tuning_advisor example).");
    Ok(())
}
