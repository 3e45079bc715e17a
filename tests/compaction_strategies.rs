//! Integration tests for the pluggable compaction strategies: size-tiered
//! and date-tiered selection through the builders, whole-file retirement of
//! expired time windows (zero pages read), the FADE-tension case where
//! a held MVCC snapshot must delay a TTL drop without losing it, and one
//! time-series history replayed under all three strategies.

use lethe::{CompactionStrategy, LetheBuilder, LsmConfig, MergePolicy, ShardedLetheBuilder};

fn small_config() -> LsmConfig {
    LsmConfig { merge_policy: MergePolicy::Tiering, ..LsmConfig::small_for_test() }
}

/// Writes `n` tombstone-free entries whose delete keys form a dense logical
/// timeline (entry `i` "created" at `i * spacing` µs), flushing periodically
/// so the history lands in several files across several base windows.
fn ingest_timeline(db: &mut lethe::Lethe, n: u64, spacing: u64) {
    for i in 0..n {
        db.put(i, i * spacing, vec![0u8; 48]).unwrap();
        if (i + 1) % 32 == 0 {
            db.persist().unwrap();
        }
    }
    db.persist().unwrap();
}

/// A wholly-expired window is retired as whole files: the manifest edit and
/// page reclamation happen without reading a single page of the dropped
/// files (the paper's full-file-drop ideal, generalised to whole windows).
#[test]
fn date_tiered_drops_expired_windows_without_reading_them() {
    let mut db = LetheBuilder::new()
        .with_config(small_config())
        .delete_persistence_threshold_secs(1.0)
        .compaction_strategy(CompactionStrategy::DateTiered {
            base_window_micros: 1_000,
            fan_in: 2,
            ttl_micros: Some(500_000),
        })
        .build()
        .unwrap();
    ingest_timeline(&mut db, 200, 100); // timeline spans 0..20_000 µs
    assert!(db.get(0).unwrap().is_some());
    assert!(db.stats().whole_file_drops == 0, "nothing may expire during ingest");

    // move logical time far past every window's end + TTL, then let
    // maintenance retire the whole history
    db.clock().advance_secs(10.0);
    let before = db.io_snapshot();
    let compacted_before = db.stats().bytes_compacted;
    db.maintain().unwrap();
    let io = db.io_snapshot().since(&before);
    let stats = db.stats();

    assert!(stats.whole_file_drops >= 1, "expected whole-file drops, stats: {stats:?}");
    assert_eq!(io.pages_read, 0, "whole-file drops must not read the dropped pages");
    assert_eq!(io.pages_written, 0, "whole-file drops must not rewrite data");
    for k in (0..200).step_by(13) {
        assert_eq!(db.get(k).unwrap(), None, "expired key {k} still readable");
    }
    assert!(db.range(0, 1 << 20).unwrap().is_empty(), "expired windows must be gone");
    // retiring files without reading them adds nothing to the compaction
    // write counters, so the drop is free in write-amplification terms
    assert_eq!(stats.bytes_compacted, compacted_before);
}

/// The FADE tension case: a held MVCC snapshot (registered with the
/// snapshot tracker, i.e. a `ShardedLethe::snapshot`) must delay the TTL
/// drop — counted in `tombstone_gc_delayed`, with the expired window still
/// readable through the snapshot — and the drop must proceed once the
/// snapshot is released.
#[test]
fn held_snapshot_delays_whole_file_drop_until_released() {
    let db = ShardedLetheBuilder::from_builder(
        LetheBuilder::new()
            .buffer(4, 4, 64)
            .size_ratio(4)
            .delete_persistence_threshold_secs(1.0)
            .compaction_strategy(CompactionStrategy::DateTiered {
                base_window_micros: 1_000,
                fan_in: 2,
                ttl_micros: Some(500_000),
            }),
    )
    .shards(1)
    .build()
    .unwrap();
    for i in 0..200u64 {
        db.put(i, i * 100, vec![0u8; 48]).unwrap();
        if (i + 1) % 32 == 0 {
            db.persist().unwrap();
        }
    }
    db.persist().unwrap();

    let snapshot = db.snapshot();
    // the live store keeps moving: a later write advances the seqnum fence,
    // making the snapshot strictly older than the state a drop would edit
    db.clock().advance_secs(10.0);
    db.put(100_000, db.clock().now(), vec![3u8; 48]).unwrap();
    let delayed_before = db.stats().tombstone_gc_delayed;
    db.maintain().unwrap();
    let stats = db.stats();
    assert_eq!(stats.whole_file_drops, 0, "drop must wait for the snapshot");
    assert!(
        stats.tombstone_gc_delayed > delayed_before,
        "the suppressed drop must be counted: {stats:?}"
    );
    // the snapshot still reads the expired window in full
    for k in (0..200).step_by(7) {
        assert!(snapshot.get(k).unwrap().is_some(), "snapshot lost expired key {k}");
    }
    // the live store does too: the data is expired, not deleted
    assert!(db.get(0).unwrap().is_some());

    drop(snapshot);
    db.maintain().unwrap();
    let stats = db.stats();
    assert!(stats.whole_file_drops >= 1, "drop must proceed after release: {stats:?}");
    assert_eq!(db.get(0).unwrap(), None);
    assert!(db.range(0, 200).unwrap().is_empty(), "the expired window must be gone");
    // the fresh post-snapshot write is inside its TTL and survives
    assert!(db.get(100_000).unwrap().is_some());
}

/// Files holding tombstones are never whole-file-dropped, even when their
/// window is wholly expired — dropping the tombstone could resurrect an
/// older version of the key surviving in another file.
#[test]
fn tombstone_bearing_files_survive_window_expiry() {
    let mut db = LetheBuilder::new()
        .with_config(small_config())
        .delete_persistence_threshold_secs(1_000.0) // keep tombstones around
        .compaction_strategy(CompactionStrategy::DateTiered {
            base_window_micros: 1_000,
            fan_in: 2,
            ttl_micros: Some(500_000),
        })
        .build()
        .unwrap();
    for i in 0..64u64 {
        db.put(i, i * 100, vec![1u8; 48]).unwrap();
    }
    db.persist().unwrap();
    // a second generation of the same keys plus tombstones for half of them
    for i in 0..64u64 {
        if i % 2 == 0 {
            db.delete(i).unwrap();
        }
    }
    db.persist().unwrap();
    db.clock().advance_secs(10.0);
    db.maintain().unwrap();
    // the tombstones must still mask the first generation: a dropped
    // tombstone file would resurrect the generation-one values
    for i in 0..64u64 {
        if i % 2 == 0 {
            assert_eq!(db.get(i).unwrap(), None, "deleted key {i} resurrected");
        }
    }
}

/// The builder knob selects the strategy and forces the tiering merge
/// policy; a size-tiered engine ingests, compacts and reads correctly, and
/// the write-amplification counters account for its merges.
#[test]
fn size_tiered_builder_knob_works_end_to_end() {
    let builder = LetheBuilder::new()
        .with_config(LsmConfig::small_for_test())
        .compaction_strategy(CompactionStrategy::SizeTiered { fan_in: 2 });
    assert_eq!(
        builder.config().merge_policy,
        MergePolicy::Tiering,
        "tiered strategies require run-per-flush (tiering) levels"
    );
    let mut db = builder.delete_persistence_threshold_secs(1.0).build().unwrap();
    for i in 0..400u64 {
        db.put(i % 97, i, vec![(i % 251) as u8; 48]).unwrap();
        if (i + 1) % 64 == 0 {
            db.persist().unwrap();
        }
    }
    db.persist().unwrap();
    let stats = db.stats();
    assert!(stats.compactions >= 1, "size-tiered merges never triggered: {stats:?}");
    assert!(stats.bytes_flushed > 0 && stats.bytes_compacted > 0);
    assert!(stats.write_amp() > 1.0, "merges must show up as write amplification");
    for i in 0..97u64 {
        let got = db.get(i).unwrap().expect("key lost under size-tiered compaction");
        let last = (0..400u64).rev().find(|j| j % 97 == i).unwrap();
        assert_eq!(got[0], (last % 251) as u8, "stale version for key {i}");
    }
}

/// The sharded builder forwards the knob to every shard and absorbs the
/// new counters across them.
#[test]
fn sharded_builder_forwards_the_strategy_knob() {
    let db = ShardedLetheBuilder::from_builder(
        LetheBuilder::new()
            .buffer(4, 4, 64)
            .size_ratio(4)
            .delete_persistence_threshold_secs(1.0)
            .compaction_strategy(CompactionStrategy::DateTiered {
                base_window_micros: 1_000,
                fan_in: 2,
                ttl_micros: None, // pure window-bucketed merging, no retention
            }),
    )
    .shards(2)
    .build()
    .unwrap();
    for i in 0..256u64 {
        db.put(i, i * 100, vec![2u8; 48]).unwrap();
    }
    db.persist().unwrap();
    let stats = db.stats();
    assert!(stats.bytes_flushed > 0, "absorbed flush bytes missing: {stats:?}");
    assert_eq!(stats.whole_file_drops, 0, "no TTL configured, nothing may drop");
    for i in (0..256u64).step_by(17) {
        assert!(db.get(i).unwrap().is_some(), "key {i} lost across shards");
    }
}

/// What one strategy left behind after replaying the shared history.
struct Replayed {
    db: lethe::Lethe,
    write_amp: f64,
    whole_file_drops: u64,
    /// One recent-window scan, for the cross-strategy equivalence check.
    recent: Vec<(u64, Vec<u8>)>,
}

/// One append-only time-series history (each value derived from its key,
/// interleaved windowed scans) replayed into leveled, size-tiered and
/// date-tiered engines that differ only in their strategy, and into two
/// more that keep the same retention the paper's way: leveled FADE and
/// size-tiered, each purging `[0, tick − TTL)` by a KiWi secondary range
/// delete at every maintenance pass. Every assertion is a count or a byte
/// comparison, so it holds on any machine: the tiered layouts write
/// strictly less than leveling, only the date-tiered engine retires
/// windows, it retires them whole and writes less than either KiWi
/// retention, every retention empties the first window, and all five
/// answer a recent scan byte for byte alike.
#[test]
fn tiered_strategies_write_less_than_leveled_on_one_time_series_history() {
    use lethe::workload::timeseries::{encode_key, TimeSeriesGenerator, TimeSeriesSpec};
    use lethe::workload::Operation;

    const APPENDS: u64 = 3_000;
    const SAMPLES: u64 = 32;
    const MAX_TICK: u64 = APPENDS * SAMPLES;
    const BASE_WINDOW: u64 = 8_192;
    // with logical time in lock-step with the ticks, every window that ends
    // before MAX_TICK - TTL has expired by the end of the replay
    const TTL: u64 = 32_768;

    let history = TimeSeriesGenerator::new(TimeSeriesSpec {
        appends: APPENDS,
        samples_per_append: SAMPLES,
        scan_every: 16,
        window_ticks: 1_024,
        // retention is the date-tiered strategy's job, not the workload's
        ttl_ticks: None,
        ..TimeSeriesSpec::default()
    })
    .operations();
    let replay = |strategy: Option<CompactionStrategy>, purge: bool| {
        let mut builder = LetheBuilder::new()
            .buffer(32, 8, 64)
            .size_ratio(4)
            // 1 µs of logical time per ingest; the replay also advances the
            // clock to the end of each append's ticks
            .ingestion_rate(1_000_000)
            .delete_persistence_threshold_secs(1.0);
        if let Some(strategy) = strategy {
            builder = builder.compaction_strategy(strategy);
        }
        let mut db = builder.build().unwrap();
        let mut appends = 0u64;
        let maintain = |db: &mut lethe::Lethe, tick: u64| {
            if purge {
                db.delete_where_delete_key_in(0, tick.saturating_sub(TTL)).unwrap();
            }
            db.maintain().unwrap();
        };
        let mut now = 0;
        for op in &history {
            match op {
                Operation::Put { key, delete_key: tick } => {
                    db.put(*key, *tick, key.to_le_bytes().to_vec()).unwrap();
                    db.clock().advance_to(tick + SAMPLES);
                    now = *tick;
                    appends += 1;
                    if appends.is_multiple_of(64) {
                        db.persist().unwrap();
                    }
                    if appends.is_multiple_of(256) {
                        maintain(&mut db, now);
                    }
                }
                Operation::RangeLookup { start, end } => {
                    db.range(*start, *end).unwrap();
                }
                other => unreachable!("the history is appends and scans only, got {other:?}"),
            }
        }
        db.persist().unwrap();
        maintain(&mut db, now);
        let recent = db
            .range(encode_key(MAX_TICK - 12_288, 0), encode_key(MAX_TICK, 0))
            .unwrap()
            .into_iter()
            .map(|(k, v)| (k, v.to_vec()))
            .collect();
        let stats = db.stats();
        Replayed {
            write_amp: stats.write_amp(),
            whole_file_drops: stats.whole_file_drops,
            recent,
            db,
        }
    };

    let size_tiered = Some(CompactionStrategy::SizeTiered { fan_in: 4 });
    let leveled = replay(None, false);
    let tiered = replay(size_tiered, false);
    let dated = replay(
        Some(CompactionStrategy::DateTiered {
            base_window_micros: BASE_WINDOW,
            fan_in: 4,
            ttl_micros: Some(TTL),
        }),
        false,
    );
    let purged = [("leveled FADE", replay(None, true)), ("size-tiered", replay(size_tiered, true))];

    assert!(
        tiered.write_amp < leveled.write_amp,
        "size-tiered write amp {:.2} must be below leveled {:.2}",
        tiered.write_amp,
        leveled.write_amp
    );
    assert!(
        dated.write_amp < leveled.write_amp,
        "date-tiered write amp {:.2} must be below leveled {:.2}",
        dated.write_amp,
        leveled.write_amp
    );
    assert!(dated.whole_file_drops >= 1, "date-tiered retired no expired window");
    assert_eq!(leveled.whole_file_drops, 0, "leveled has no TTL, yet dropped files");
    assert_eq!(tiered.whole_file_drops, 0, "size-tiered has no TTL, yet dropped files");
    // retention by retirement: the first window is gone on the date-tiered
    // engine and intact on the baseline
    let first_window = (encode_key(0, 0), encode_key(BASE_WINDOW / 2, 0));
    assert!(dated.db.range(first_window.0, first_window.1).unwrap().is_empty());
    assert!(!leveled.db.range(first_window.0, first_window.1).unwrap().is_empty());
    assert!(!leveled.recent.is_empty(), "the recent window must hold data");
    assert!(leveled.recent == tiered.recent, "size-tiered diverged on the recent window");
    assert!(leveled.recent == dated.recent, "date-tiered diverged on the recent window");
    // retention by secondary range deletes empties the same window, and
    // rewriting the pages it cuts writes more than retiring whole windows
    for (name, purged) in &purged {
        assert!(
            dated.write_amp < purged.write_amp,
            "date-tiered write amp {:.2} must be below {name} with secondary deletes {:.2}",
            dated.write_amp,
            purged.write_amp
        );
        assert!(purged.db.range(first_window.0, first_window.1).unwrap().is_empty(), "{name}");
        assert!(leveled.recent == purged.recent, "{name} diverged on the recent window");
    }
}
