//! Engine configuration — the knobs of Table 1 plus the Lethe-specific ones
//! (`D_th`, delete-tile granularity `h`, compaction policy selection).

use lethe_storage::clock::MICROS_PER_SEC;
use lethe_storage::{SyncPolicy, Timestamp};

/// How runs are merged across levels (paper §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergePolicy {
    /// At most one run per level; an incoming run is greedily sort-merged
    /// with the resident run.
    Leveling,
    /// A level accumulates up to `T` runs before they are merged together and
    /// pushed down.
    Tiering,
}

/// Which compaction strategy drives background maintenance.
///
/// The strategy selects the [`crate::compaction::CompactionPolicy`] the
/// embedding layer constructs; the tiered strategies additionally require
/// [`MergePolicy::Tiering`] so flushes append fresh runs instead of
/// sort-merging into the resident first level (the source of leveling's
/// write amplification).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactionStrategy {
    /// Whatever policy the embedding layer installs by default: FADE in
    /// `lethe-core`, plain saturation-driven compaction elsewhere. The
    /// default — selecting it changes nothing.
    Default,
    /// Size-tiered ([`crate::strategy::SizeTieredPolicy`]): bucket each
    /// level's runs by size class and merge a class once it accumulates
    /// `fan_in` runs.
    SizeTiered {
        /// Runs of one size class merged together (≥ 2).
        fan_in: usize,
    },
    /// Date-tiered ([`crate::strategy::DateTieredPolicy`]): bucket runs into
    /// aligned time windows over the delete key (the creation-timestamp
    /// attribute), windows growing by the ladder factor with age; windows
    /// never merge across boundaries, and a window wholly past `ttl_micros`
    /// is dropped as whole files without reading them.
    DateTiered {
        /// Width of the newest (base) time window in logical microseconds.
        base_window_micros: Timestamp,
        /// Runs of one window merged together (≥ 2); also the factor by
        /// which window widths grow per ladder rung.
        fan_in: usize,
        /// Retention TTL in logical microseconds: base windows wholly older
        /// than `now − ttl` are retired via whole-file drops. `None`
        /// disables drops (pure window-bucketed merging).
        ttl_micros: Option<Timestamp>,
    },
}

/// How a secondary range delete (on the delete key) is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecondaryDeleteMode {
    /// The state-of-the-art fallback: read, merge and rewrite the entire tree
    /// (cost `O(N/B)`, independent of selectivity — paper §3.3).
    FullTreeCompaction,
    /// KiWi: use delete fence pointers to drop fully-covered pages without
    /// reading them and rewrite only the at most one partially-covered page
    /// per delete tile (paper §4.2.2).
    KiwiPageDrops,
}

/// Configuration of an LSM tree / Lethe engine instance.
///
/// Field names follow the symbols of Table 1 where applicable.
#[derive(Debug, Clone, PartialEq)]
pub struct LsmConfig {
    /// Size ratio `T` between consecutive levels.
    pub size_ratio: usize,
    /// Memory buffer capacity in disk pages (`P`).
    pub buffer_pages: usize,
    /// Entries per disk page (`B`).
    pub entries_per_page: usize,
    /// Average key-value entry size in bytes (`E`), used to size the buffer
    /// (`M = P · B · E`) and as the default payload size.
    pub entry_size: usize,
    /// Bloom filter budget in bits per entry (`m / N`).
    pub bits_per_key: f64,
    /// Leveling or tiering.
    pub merge_policy: MergePolicy,
    /// Pages per delete tile (`h`). `1` reproduces the classic sort-key-only
    /// layout; larger values trade lookup cost for cheaper secondary range
    /// deletes (paper §4.2.3).
    pub pages_per_delete_tile: usize,
    /// Maximum pages per on-disk file (the partial-compaction granularity).
    pub max_pages_per_file: usize,
    /// Delete persistence threshold `D_th` in microseconds of logical time.
    /// `None` disables TTL-driven compactions (state-of-the-art behaviour).
    pub delete_persistence_threshold: Option<Timestamp>,
    /// Ingestion rate `I` in entries per second; used when
    /// `auto_advance_clock` is on to advance the logical clock by `1/I` per
    /// ingested entry.
    pub ingestion_rate: u64,
    /// If `true`, every ingestion advances the logical clock by `1/I`.
    pub auto_advance_clock: bool,
    /// If `true`, point deletes first probe the filters and are dropped when
    /// the key cannot exist (FADE's blind-delete suppression, §4.1.5).
    pub suppress_blind_deletes: bool,
    /// How secondary (delete-key) range deletes are executed.
    pub secondary_delete_mode: SecondaryDeleteMode,
    /// Number of buckets in the system-wide sort-key histogram used to
    /// estimate range-tombstone invalidation counts.
    pub histogram_buckets: usize,
    /// Upper bound of the sort-key domain used by the histogram (keys above
    /// are clamped; purely an estimation aid).
    pub key_domain: u64,
    /// When the write-ahead log of a durable store fsyncs appends
    /// ([`SyncPolicy::Always`] keeps "logged before acknowledged" true
    /// against power failures; the relaxed policies trade a bounded loss
    /// window for throughput). A store built in memory counts the same
    /// barriers, which cost it nothing.
    pub wal_sync: SyncPolicy,
    /// Memory budget of the shared block cache of encoded pages, in bytes.
    /// `0` (the default) disables caching: every read that reaches the disk
    /// levels pays a device access, which keeps the paper's I/O-count
    /// reproduction exact. A sharded store shares **one** cache of this size
    /// across all shards (hot shards naturally take a larger slice).
    pub block_cache_bytes: usize,
    /// If `true`, flush/compaction output pages are inserted into the block
    /// cache as they are written (*warming*), so reads immediately after a
    /// flush hit without going back to the device. Off by default: warming
    /// competes with genuinely hot read pages for cache space and adds one
    /// page copy per written page on the flush/compaction path.
    pub block_cache_warm_writes: bool,
    /// Which compaction strategy drives background maintenance.
    /// [`CompactionStrategy::Default`] keeps the embedding layer's policy
    /// (FADE for `lethe-core` engines) — existing configurations behave
    /// exactly as before.
    pub compaction_strategy: CompactionStrategy,
}

impl Default for LsmConfig {
    /// The reference configuration of Table 1: `T = 10`, `P = 512` pages,
    /// `B = 4` entries/page, `E = 1024` bytes (16 MB buffer), 10 bits/key.
    fn default() -> Self {
        LsmConfig {
            size_ratio: 10,
            buffer_pages: 512,
            entries_per_page: 4,
            entry_size: 1024,
            bits_per_key: 10.0,
            merge_policy: MergePolicy::Leveling,
            pages_per_delete_tile: 1,
            max_pages_per_file: 256,
            delete_persistence_threshold: None,
            ingestion_rate: 1024,
            auto_advance_clock: true,
            suppress_blind_deletes: false,
            secondary_delete_mode: SecondaryDeleteMode::FullTreeCompaction,
            histogram_buckets: 256,
            key_domain: u64::MAX,
            wal_sync: SyncPolicy::Always,
            block_cache_bytes: 0,
            block_cache_warm_writes: false,
            compaction_strategy: CompactionStrategy::Default,
        }
    }
}

impl LsmConfig {
    /// A small configuration convenient for tests: tiny buffer, small pages.
    pub fn small_for_test() -> Self {
        LsmConfig {
            size_ratio: 4,
            buffer_pages: 4,
            entries_per_page: 4,
            entry_size: 64,
            bits_per_key: 10.0,
            max_pages_per_file: 8,
            histogram_buckets: 64,
            key_domain: 1 << 20,
            ..Default::default()
        }
    }

    /// Buffer capacity `M = P · B · E` in bytes.
    pub fn buffer_capacity_bytes(&self) -> usize {
        self.buffer_pages * self.entries_per_page * self.entry_size
    }

    /// Number of entries the buffer holds when full (`P · B`).
    pub fn buffer_capacity_entries(&self) -> usize {
        self.buffer_pages * self.entries_per_page
    }

    /// Capacity in bytes of disk level `level` (1-based: level 1 is the first
    /// disk level), `M · T^level`.
    pub fn level_capacity_bytes(&self, level: usize) -> u64 {
        let mut cap = self.buffer_capacity_bytes() as u64;
        for _ in 0..level {
            cap = cap.saturating_mul(self.size_ratio as u64);
        }
        cap
    }

    /// Entries per delete tile (`h · B`).
    pub fn entries_per_tile(&self) -> usize {
        self.pages_per_delete_tile * self.entries_per_page
    }

    /// Entries per file (`max_pages_per_file · B`).
    pub fn entries_per_file(&self) -> usize {
        self.max_pages_per_file * self.entries_per_page
    }

    /// Microseconds of logical time per ingested entry (`1/I`).
    pub fn micros_per_ingest(&self) -> u64 {
        (MICROS_PER_SEC / self.ingestion_rate.max(1)).max(1)
    }

    /// Sets the delete persistence threshold from seconds of logical time.
    pub fn with_delete_persistence_secs(mut self, secs: f64) -> Self {
        self.delete_persistence_threshold = Some((secs * MICROS_PER_SEC as f64) as Timestamp);
        self
    }

    /// Validates internal consistency (non-zero knobs, tile divides file).
    pub fn validate(&self) -> Result<(), String> {
        if self.size_ratio < 2 {
            return Err("size_ratio must be at least 2".into());
        }
        if self.buffer_pages == 0 || self.entries_per_page == 0 || self.entry_size == 0 {
            return Err("buffer_pages, entries_per_page and entry_size must be positive".into());
        }
        if self.pages_per_delete_tile == 0 {
            return Err("pages_per_delete_tile (h) must be at least 1".into());
        }
        if self.max_pages_per_file == 0 {
            return Err("max_pages_per_file must be at least 1".into());
        }
        if !self.max_pages_per_file.is_multiple_of(self.pages_per_delete_tile) {
            return Err(format!(
                "pages per file ({}) must be a multiple of pages per delete tile ({})",
                self.max_pages_per_file, self.pages_per_delete_tile
            ));
        }
        if self.bits_per_key <= 0.0 {
            return Err("bits_per_key must be positive".into());
        }
        let fan_in = match self.compaction_strategy {
            CompactionStrategy::Default => return Ok(()),
            CompactionStrategy::SizeTiered { fan_in } => fan_in,
            CompactionStrategy::DateTiered { base_window_micros, fan_in, .. } => {
                if base_window_micros == 0 {
                    return Err("date-tiered base_window_micros must be positive".into());
                }
                fan_in
            }
        };
        if fan_in < 2 {
            return Err("tiered compaction fan_in must be at least 2".into());
        }
        if self.merge_policy != MergePolicy::Tiering {
            return Err(
                "tiered compaction requires MergePolicy::Tiering (flushes must append runs, \
                 not merge into the resident level)"
                    .into(),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reference_values() {
        let c = LsmConfig::default();
        assert_eq!(c.size_ratio, 10);
        assert_eq!(c.buffer_pages, 512);
        assert_eq!(c.entries_per_page, 4);
        assert_eq!(c.entry_size, 1024);
        // M = P * B * E = 512 * 4 * 1024 = 2 MiB... the paper's Table 1 lists
        // 16 MB for an 8 KB page; our page is B·E = 4 KiB, so M = 2 MiB.
        assert_eq!(c.buffer_capacity_bytes(), 512 * 4 * 1024);
        assert_eq!(c.buffer_capacity_entries(), 2048);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn level_capacities_grow_by_t() {
        let c = LsmConfig::default();
        let m = c.buffer_capacity_bytes() as u64;
        assert_eq!(c.level_capacity_bytes(0), m);
        assert_eq!(c.level_capacity_bytes(1), m * 10);
        assert_eq!(c.level_capacity_bytes(3), m * 1000);
    }

    #[test]
    fn derived_quantities() {
        let mut c = LsmConfig::small_for_test();
        c.pages_per_delete_tile = 2;
        assert_eq!(c.entries_per_tile(), 8);
        assert_eq!(c.entries_per_file(), 32);
        assert_eq!(LsmConfig { ingestion_rate: 1_000_000, ..c.clone() }.micros_per_ingest(), 1);
        assert_eq!(LsmConfig { ingestion_rate: 1024, ..c }.micros_per_ingest(), 976);
    }

    #[test]
    fn with_delete_persistence_secs_sets_threshold() {
        let c = LsmConfig::default().with_delete_persistence_secs(60.0);
        assert_eq!(c.delete_persistence_threshold, Some(60_000_000));
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)] // per-field mutation is the point here
    fn validation_catches_bad_configs() {
        let mut c = LsmConfig::default();
        c.size_ratio = 1;
        assert!(c.validate().is_err());

        let mut c = LsmConfig::default();
        c.pages_per_delete_tile = 0;
        assert!(c.validate().is_err());

        let mut c = LsmConfig::default();
        c.pages_per_delete_tile = 3;
        c.max_pages_per_file = 256; // not a multiple of 3
        assert!(c.validate().is_err());

        let mut c = LsmConfig::default();
        c.bits_per_key = 0.0;
        assert!(c.validate().is_err());

        let mut c = LsmConfig::default();
        c.entries_per_page = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn strategy_validation() {
        // tiered strategies need tiering flushes
        let mut c = LsmConfig {
            compaction_strategy: CompactionStrategy::SizeTiered { fan_in: 4 },
            ..LsmConfig::default()
        };
        assert!(c.validate().is_err());
        c.merge_policy = MergePolicy::Tiering;
        assert!(c.validate().is_ok());
        c.compaction_strategy = CompactionStrategy::SizeTiered { fan_in: 1 };
        assert!(c.validate().is_err());

        let mut c = LsmConfig {
            merge_policy: MergePolicy::Tiering,
            compaction_strategy: CompactionStrategy::DateTiered {
                base_window_micros: 1_000_000,
                fan_in: 4,
                ttl_micros: Some(60_000_000),
            },
            ..LsmConfig::default()
        };
        assert!(c.validate().is_ok());
        c.compaction_strategy =
            CompactionStrategy::DateTiered { base_window_micros: 0, fan_in: 4, ttl_micros: None };
        assert!(c.validate().is_err());
        c.compaction_strategy = CompactionStrategy::DateTiered {
            base_window_micros: 1_000_000,
            fan_in: 1,
            ttl_micros: None,
        };
        assert!(c.validate().is_err());
        c.compaction_strategy = CompactionStrategy::DateTiered {
            base_window_micros: 1_000_000,
            fan_in: 4,
            ttl_micros: None,
        };
        c.merge_policy = MergePolicy::Leveling;
        assert!(c.validate().is_err());
    }
}
