//! Time-series workload: monotone appends, windowed scans, TTL retention.
//!
//! This is the workload the date-tiered compaction strategy
//! (`lethe_lsm::strategy::DateTieredPolicy`) is built for, and the one the
//! paper's FADE machinery is in tension with: data arrives in timestamp
//! order, reads target recent time windows, and deletes are pure
//! *retention* — "drop everything older than the TTL" — expressed as
//! secondary range deletes on the delete key, exactly the §5.2 use case.
//!
//! ## Key layout
//!
//! Sort keys are **time-major**: the append tick occupies the high bits and
//! the series id the low [`SERIES_BITS`] bits, so one time window is one
//! contiguous sort-key range covering every series. That is what makes
//! windowed scans cheap and lets a date-tiered policy retire a whole
//! expired window as whole files. The top bit is always set, placing
//! time-series keys in a region disjoint from both the mixed workload's
//! `key_space` and its never-inserted empty-lookup keys, so the two
//! workloads compose inside one store without colliding.
//!
//! ## Delete keys
//!
//! An append is an [`Operation::Put`] whose delete key is its tick — the
//! creation-timestamp attribute of the paper — so a retention delete is
//! `SecondaryRangeDelete { start: 0, end: now - ttl }`. Like every put, its
//! value is the applier's to make.

use crate::generator::Operation;

/// Low bits of a sort key holding the series id; the rest (below the tag
/// bit) hold the append tick.
pub const SERIES_BITS: u32 = 16;

/// High tag bit keeping time-series keys disjoint from mixed-workload keys.
const KEY_TAG: u64 = 1 << 63;

/// Builds the time-major sort key of an append: tag bit, then tick, then
/// series.
///
/// # Panics
/// Panics if `series` needs more than [`SERIES_BITS`] bits or `tick` would
/// overflow into the tag bit.
pub fn encode_key(tick: u64, series: u64) -> u64 {
    assert!(series < 1 << SERIES_BITS, "series {series} out of range");
    assert!(tick < 1 << (63 - SERIES_BITS), "tick {tick} out of range");
    KEY_TAG | (tick << SERIES_BITS) | series
}

/// Inverse of [`encode_key`]: `(tick, series)`.
pub fn decode_key(key: u64) -> (u64, u64) {
    ((key & !KEY_TAG) >> SERIES_BITS, key & ((1 << SERIES_BITS) - 1))
}

/// Knobs for a pure time-series phase.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeriesSpec {
    /// Number of distinct series written round-robin.
    pub series: u64,
    /// Ticks between one append and the next (each append stands for this
    /// many samples of its series).
    pub samples_per_append: u64,
    /// Number of append operations in the phase.
    pub appends: u64,
    /// Emit a windowed range scan after every this many appends (0 = never).
    pub scan_every: u64,
    /// Width (in ticks) of each windowed scan, ending at the current tick.
    pub window_ticks: u64,
    /// Retention TTL in ticks; `None` disables retention deletes.
    pub ttl_ticks: Option<u64>,
    /// Emit a retention delete after every this many appends (0 = never).
    pub retention_every: u64,
}

impl Default for TimeSeriesSpec {
    fn default() -> Self {
        TimeSeriesSpec {
            series: 8,
            samples_per_append: 32,
            appends: 1_000,
            scan_every: 16,
            window_ticks: 1_024,
            ttl_ticks: None,
            retention_every: 64,
        }
    }
}

/// A generator of pure time-series operation streams; the spec alone fixes
/// the stream.
///
/// Appends rotate round-robin over the series so every series grows at the
/// same rate; the global tick advances by `samples_per_append` per append,
/// so timestamps are strictly monotone across the whole stream — the
/// monotone-ingest shape date-tiered compaction assumes.
#[derive(Debug)]
pub struct TimeSeriesGenerator {
    spec: TimeSeriesSpec,
    tick: u64,
    next_series: u64,
}

impl TimeSeriesGenerator {
    /// Creates a generator for `spec`.
    ///
    /// # Panics
    /// Panics if `spec.series` is zero, doesn't fit [`SERIES_BITS`], or
    /// `samples_per_append` is zero.
    pub fn new(spec: TimeSeriesSpec) -> Self {
        assert!(spec.series > 0 && spec.series < 1 << SERIES_BITS, "bad series count");
        assert!(spec.samples_per_append > 0, "samples_per_append must be >= 1");
        TimeSeriesGenerator { spec, tick: 0, next_series: 0 }
    }

    fn make_append(&mut self) -> Operation {
        let series = self.next_series;
        self.next_series = (self.next_series + 1) % self.spec.series;
        let tick = self.tick;
        self.tick += self.spec.samples_per_append;
        Operation::Put { key: encode_key(tick, series), delete_key: tick }
    }

    /// Generates the whole phase: appends interleaved with windowed scans
    /// and retention deletes at the spec's cadences.
    pub fn operations(&mut self) -> Vec<Operation> {
        let mut ops = Vec::new();
        for i in 1..=self.spec.appends {
            ops.push(self.make_append());
            if self.spec.scan_every > 0 && i % self.spec.scan_every == 0 {
                let end = self.tick;
                let start = end.saturating_sub(self.spec.window_ticks);
                ops.push(Operation::RangeLookup {
                    start: encode_key(start, 0),
                    end: encode_key(end, 0),
                });
            }
            if let Some(ttl) = self.spec.ttl_ticks {
                if self.spec.retention_every > 0
                    && i % self.spec.retention_every == 0
                    && self.tick > ttl
                {
                    // "delete everything older than the TTL": the tick is
                    // the delete key, so this is a secondary range delete
                    ops.push(Operation::SecondaryRangeDelete { start: 0, end: self.tick - ttl });
                }
            }
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_codec_is_time_major_and_invertible() {
        for (tick, series) in [(0u64, 0u64), (1, 7), (1 << 30, (1 << SERIES_BITS) - 1)] {
            assert_eq!(decode_key(encode_key(tick, series)), (tick, series));
        }
        // a whole window is one contiguous key range: any series at tick t
        // sorts below series 0 at tick t+1
        assert!(encode_key(5, (1 << SERIES_BITS) - 1) < encode_key(6, 0));
        // and the region is disjoint from mixed-workload keys (< 2^63)
        assert!(encode_key(0, 0) >= 1 << 63);
    }

    #[test]
    fn appends_are_monotone_and_cover_all_series() {
        let spec = TimeSeriesSpec { appends: 100, series: 8, ..Default::default() };
        let ops = TimeSeriesGenerator::new(spec.clone()).operations();
        let mut last_tick = None;
        let mut seen = std::collections::HashSet::new();
        for op in &ops {
            if let Operation::Put { key, delete_key } = op {
                let (tick, series) = decode_key(*key);
                assert!(
                    last_tick.is_none_or(|t| tick == t + spec.samples_per_append),
                    "ticks must rise by the stride"
                );
                last_tick = Some(tick);
                assert_eq!(*delete_key, tick);
                seen.insert(series);
            }
        }
        assert_eq!(seen.len() as u64, spec.series);
    }

    #[test]
    fn scans_cover_the_trailing_window() {
        let spec = TimeSeriesSpec {
            appends: 64,
            scan_every: 8,
            window_ticks: 100,
            samples_per_append: 10,
            ..Default::default()
        };
        let ops = TimeSeriesGenerator::new(spec).operations();
        let mut tick = 0u64;
        let mut scans = 0;
        for op in &ops {
            match op {
                Operation::Put { delete_key, .. } => tick = delete_key + 10,
                Operation::RangeLookup { start, end } => {
                    scans += 1;
                    assert_eq!(*end, encode_key(tick, 0));
                    assert_eq!(*start, encode_key(tick.saturating_sub(100), 0));
                }
                other => panic!("unexpected op {other:?}"),
            }
        }
        assert_eq!(scans, 8);
    }

    #[test]
    fn retention_deletes_trail_the_ttl() {
        let spec = TimeSeriesSpec {
            appends: 200,
            samples_per_append: 10,
            scan_every: 0,
            ttl_ticks: Some(500),
            retention_every: 50,
            ..Default::default()
        };
        let ops = TimeSeriesGenerator::new(spec).operations();
        let mut tick = 0u64;
        let mut purges = 0;
        for op in &ops {
            match op {
                Operation::Put { delete_key, .. } => tick = delete_key + 10,
                Operation::SecondaryRangeDelete { start, end } => {
                    purges += 1;
                    assert_eq!(*start, 0);
                    assert_eq!(*end, tick - 500, "purge must end exactly TTL behind now");
                }
                other => panic!("unexpected op {other:?}"),
            }
        }
        assert!(purges > 0, "TTL retention must fire");
        // no retention fires with the TTL off
        let off = TimeSeriesSpec { appends: 200, ttl_ticks: None, scan_every: 0, ..Default::default() };
        assert!(TimeSeriesGenerator::new(off)
            .operations()
            .iter()
            .all(|op| !matches!(op, Operation::SecondaryRangeDelete { .. })));
    }

    #[test]
    fn deterministic_for_a_given_seed() {
        let spec = TimeSeriesSpec { appends: 50, ..Default::default() };
        let a = TimeSeriesGenerator::new(spec.clone()).operations();
        let b = TimeSeriesGenerator::new(spec).operations();
        assert_eq!(a, b);
    }
}
