//! Time-series ingest under the date-tiered compaction strategy: retention
//! ("keep only the freshest ticks") is handled by the *compaction layout*,
//! not by deletes — wholly-expired time windows are retired as whole files
//! without reading a page of them.
//!
//! The workload is the monotone append stream from
//! `lethe_workload::timeseries`: each append is a put under a time-major key
//! whose delete key is its tick, and its value here is derived from the key.
//! The logical clock is driven in lock-step with the data's tick timeline
//! so windows age out as ingest runs.
//!
//! Run with `cargo run --example timeseries_strategy --release`.

use lethe::workload::timeseries::{decode_key, encode_key, TimeSeriesGenerator, TimeSeriesSpec};
use lethe::workload::Operation;
use lethe::{CompactionStrategy, LetheBuilder};

const APPENDS: u64 = 2_000;
const SAMPLES: u64 = 32;
const MAX_TICK: u64 = APPENDS * SAMPLES;
/// Keep roughly the last quarter of the timeline.
const TTL: u64 = 16_384;
const BASE_WINDOW: u64 = 4_096;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = LetheBuilder::new()
        .buffer(32, 8, 64)
        .size_ratio(4)
        // 1 µs of auto-advanced time per ingest: this example moves the
        // clock itself, in lock-step with the data's ticks
        .ingestion_rate(1_000_000)
        .delete_persistence_threshold_secs(1.0)
        .compaction_strategy(CompactionStrategy::DateTiered {
            base_window_micros: BASE_WINDOW,
            fan_in: 4,
            ttl_micros: Some(TTL),
        })
        .build()?;

    let mut generator = TimeSeriesGenerator::new(TimeSeriesSpec {
        appends: APPENDS,
        samples_per_append: SAMPLES,
        scan_every: 0, // this example runs its own scans below
        ..TimeSeriesSpec::default()
    });
    let mut appends = 0u64;
    for op in generator.operations() {
        if let Operation::Put { key, delete_key: tick } = op {
            db.put(key, tick, key.to_le_bytes().to_vec())?;
            db.clock().advance_to(tick + SAMPLES);
            appends += 1;
            if appends.is_multiple_of(64) {
                db.persist()?;
            }
            if appends.is_multiple_of(256) {
                db.maintain()?;
            }
        }
    }
    db.persist()?;
    db.maintain()?;

    let stats = db.stats();
    println!("ingested {appends} appends, {SAMPLES} ticks apart, across 8 series");
    println!(
        "write amp {:.2}, {} whole-file drops (expired windows retired unread)",
        stats.write_amp(),
        stats.whole_file_drops
    );
    assert!(stats.whole_file_drops >= 1, "the expired windows should have been dropped");

    // the expired prefix is gone — retention by retirement, not by deletes
    let expired = db.range(encode_key(0, 0), encode_key(MAX_TICK - TTL - BASE_WINDOW, 0))?;
    assert!(expired.is_empty(), "expired windows still readable");
    println!("ticks [0, {}) retired by the TTL", MAX_TICK - TTL - BASE_WINDOW);

    // a windowed scan over the freshest ticks
    let window = db.range(encode_key(MAX_TICK - 1_024, 0), encode_key(MAX_TICK, 0))?;
    println!("last 1024 ticks: {} appends retained", window.len());
    let (key, value) = window.last().expect("the freshest window must be readable");
    assert_eq!(value.as_ref(), key.to_le_bytes(), "the newest append reads back its value");
    let (tick, series) = decode_key(*key);
    println!("newest append: series {series}, ticks {tick}..{}", tick + SAMPLES);
    Ok(())
}
