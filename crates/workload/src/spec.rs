//! Workload specification.
//!
//! The paper evaluates Lethe with "a variation of YCSB Workload A" produced
//! by a custom generator: 50% general updates and 50% point lookups, with a
//! configurable fraction of the ingestion turned into deletes, plus range
//! deletes of a given selectivity and (for the KiWi experiments) secondary
//! range deletes on the delete key. [`WorkloadSpec`] captures those knobs.

use serde::{Deserialize, Serialize};

/// How keys are drawn from the key space.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum KeyDistribution {
    /// Uniformly random keys (the paper's default setup).
    Uniform,
    /// Zipfian-skewed keys with the given skew parameter; models the
    /// hot-data-modifying adversarial workloads of §3.1.1.
    Zipfian {
        /// Skew parameter θ (0 = uniform, ~1 = heavily skewed).
        theta: f64,
    },
}

/// How an entry's delete key relates to its sort key.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DeleteKeyCorrelation {
    /// Delete key is drawn independently of the sort key (e.g. an arrival
    /// timestamp for randomly-ordered inserts) — the case KiWi is built for.
    Uncorrelated,
    /// Delete key equals the sort key (correlation ≈ 1): the classic layout
    /// already clusters deletes, Figure 6(L)'s second workload.
    Correlated,
}

/// A complete description of a generated workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Random seed; every spec with the same seed generates the same stream.
    pub seed: u64,
    /// Number of distinct keys preloaded into the store before the measured
    /// phase (0 to start from an empty store).
    pub preload_keys: u64,
    /// Number of operations in the measured phase.
    pub operations: u64,
    /// Size of the key space keys are drawn from.
    pub key_space: u64,
    /// Value payload size in bytes.
    pub value_size: usize,
    /// Fraction of operations that are inserts/updates.
    pub update_fraction: f64,
    /// Fraction of operations that are point lookups on existing keys.
    pub point_lookup_fraction: f64,
    /// Fraction of operations that are point lookups on non-existing keys.
    pub empty_lookup_fraction: f64,
    /// Fraction of operations that are point deletes (issued only on keys
    /// that have been inserted, as in the paper's setup).
    pub point_delete_fraction: f64,
    /// Fraction of operations that are range deletes on the sort key.
    pub range_delete_fraction: f64,
    /// Selectivity σ of each range delete (fraction of the key space).
    pub range_delete_selectivity: f64,
    /// Fraction of operations that are short range lookups.
    pub range_lookup_fraction: f64,
    /// Selectivity of each range lookup (fraction of the key space).
    pub range_lookup_selectivity: f64,
    /// Fraction of operations that are *streaming* range scans: paged
    /// cursor reads that consume at most
    /// [`streaming_range_limit`](Self::streaming_range_limit) results of a
    /// long scan (the `iter_range` paging-API workload). Defaults to 0, so
    /// pre-existing specs keep generating identical operation streams.
    pub streaming_range_fraction: f64,
    /// Maximum results one streaming range scan consumes before stopping
    /// (the page size of a paging API).
    pub streaming_range_limit: u64,
    /// Fraction of operations that are secondary range deletes (on the
    /// delete key).
    pub secondary_delete_fraction: f64,
    /// Selectivity of each secondary range delete (fraction of the delete-key
    /// domain).
    pub secondary_delete_selectivity: f64,
    /// Fraction of operations that are atomic multi-op write batches
    /// (`ShardedLethe::write` / `LsmTree::write_batch`). Defaults to 0, so
    /// pre-existing specs keep generating identical operation streams.
    pub batch_fraction: f64,
    /// Number of write operations inside each generated batch (mostly puts,
    /// with ~1 in 8 a point delete of an existing key).
    pub batch_size: u64,
    /// Fraction of operations that are snapshot reads: the driver opens (or
    /// reuses) a point-in-time `ShardedLethe::snapshot` view and serves a
    /// point lookup through it instead of the live store. Defaults to 0, so
    /// pre-existing specs keep generating identical operation streams.
    pub snapshot_fraction: f64,
    /// Fraction of operations that are time-series appends: puts under a
    /// monotone time-major key whose delete key is the append's tick (see
    /// [`crate::timeseries`]). Defaults to 0, so pre-existing specs keep
    /// generating identical operation streams.
    pub timeseries_fraction: f64,
    /// Ticks between one time-series append and the next (each append
    /// stands for this many samples).
    pub timeseries_samples: u64,
    /// Key popularity distribution.
    pub distribution: KeyDistribution,
    /// Relationship between sort and delete keys.
    pub correlation: DeleteKeyCorrelation,
}

fn default_streaming_range_limit() -> u64 {
    100
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            seed: 0xC0FFEE,
            preload_keys: 0,
            operations: 10_000,
            key_space: 1 << 20,
            value_size: 1024,
            update_fraction: 0.5,
            point_lookup_fraction: 0.5,
            empty_lookup_fraction: 0.0,
            point_delete_fraction: 0.0,
            range_delete_fraction: 0.0,
            range_delete_selectivity: 5.0e-4,
            range_lookup_fraction: 0.0,
            range_lookup_selectivity: 1.0e-3,
            streaming_range_fraction: 0.0,
            streaming_range_limit: default_streaming_range_limit(),
            secondary_delete_fraction: 0.0,
            secondary_delete_selectivity: 0.0,
            batch_fraction: 0.0,
            batch_size: 8,
            snapshot_fraction: 0.0,
            timeseries_fraction: 0.0,
            timeseries_samples: 32,
            distribution: KeyDistribution::Uniform,
            correlation: DeleteKeyCorrelation::Uncorrelated,
        }
    }
}

impl WorkloadSpec {
    /// The paper's YCSB-A variant: 50% general updates, 50% point lookups,
    /// with `delete_pct` percent of the *ingestion* replaced by point deletes
    /// (the x-axis of Figures 6(A)–(D)).
    pub fn ycsb_a_with_deletes(operations: u64, delete_pct: f64) -> Self {
        let delete_share = 0.5 * (delete_pct / 100.0);
        WorkloadSpec {
            operations,
            update_fraction: 0.5 - delete_share,
            point_delete_fraction: delete_share,
            point_lookup_fraction: 0.5,
            ..Default::default()
        }
    }

    /// A write-only workload (Figure 6(G)'s "write" series).
    pub fn write_only(operations: u64) -> Self {
        WorkloadSpec {
            operations,
            update_fraction: 1.0,
            point_lookup_fraction: 0.0,
            ..Default::default()
        }
    }

    /// The secondary-range-delete workload of §5.2: 50% point queries, 1%
    /// range queries, ~49% inserts and a small fraction of secondary range
    /// deletes of the given selectivity.
    pub fn secondary_delete_mix(
        operations: u64,
        secondary_delete_fraction: f64,
        secondary_delete_selectivity: f64,
    ) -> Self {
        WorkloadSpec {
            operations,
            update_fraction: 0.49 - secondary_delete_fraction,
            point_lookup_fraction: 0.5,
            range_lookup_fraction: 0.01,
            range_lookup_selectivity: 1.0e-5,
            secondary_delete_fraction,
            secondary_delete_selectivity,
            ..Default::default()
        }
    }

    /// Sum of all operation-class fractions (should be ≈ 1).
    pub fn total_fraction(&self) -> f64 {
        self.update_fraction
            + self.point_lookup_fraction
            + self.empty_lookup_fraction
            + self.point_delete_fraction
            + self.range_delete_fraction
            + self.range_lookup_fraction
            + self.streaming_range_fraction
            + self.secondary_delete_fraction
            + self.batch_fraction
            + self.snapshot_fraction
            + self.timeseries_fraction
    }

    /// Checks that fractions are non-negative and sum to ~1, and that
    /// selectivities are in `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        let fractions = [
            self.update_fraction,
            self.point_lookup_fraction,
            self.empty_lookup_fraction,
            self.point_delete_fraction,
            self.range_delete_fraction,
            self.range_lookup_fraction,
            self.streaming_range_fraction,
            self.secondary_delete_fraction,
            self.batch_fraction,
            self.snapshot_fraction,
            self.timeseries_fraction,
        ];
        if fractions.iter().any(|f| *f < 0.0) {
            return Err("operation fractions must be non-negative".into());
        }
        if self.batch_fraction > 0.0 && self.batch_size == 0 {
            return Err("batch_size must be at least 1 when batches are generated".into());
        }
        if self.timeseries_fraction > 0.0 && self.timeseries_samples == 0 {
            return Err("timeseries_samples must be at least 1 when appends are generated".into());
        }
        if (self.total_fraction() - 1.0).abs() > 1e-6 {
            return Err(format!("operation fractions sum to {}, expected 1", self.total_fraction()));
        }
        for s in [
            self.range_delete_selectivity,
            self.range_lookup_selectivity,
            self.secondary_delete_selectivity,
        ] {
            if !(0.0..=1.0).contains(&s) {
                return Err(format!("selectivity {s} out of [0, 1]"));
            }
        }
        if self.key_space == 0 {
            return Err("key space must be non-empty".into());
        }
        if let KeyDistribution::Zipfian { theta } = self.distribution {
            if theta < 0.0 {
                return Err("zipfian theta must be non-negative".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_valid_ycsb_a() {
        let s = WorkloadSpec::default();
        assert!(s.validate().is_ok());
        assert!((s.total_fraction() - 1.0).abs() < 1e-9);
        assert_eq!(s.update_fraction, 0.5);
        assert_eq!(s.point_lookup_fraction, 0.5);
    }

    #[test]
    fn delete_percentage_reduces_updates() {
        let s = WorkloadSpec::ycsb_a_with_deletes(1000, 10.0);
        assert!(s.validate().is_ok());
        assert!((s.point_delete_fraction - 0.05).abs() < 1e-9);
        assert!((s.update_fraction - 0.45).abs() < 1e-9);
        let none = WorkloadSpec::ycsb_a_with_deletes(1000, 0.0);
        assert_eq!(none.point_delete_fraction, 0.0);
        assert_eq!(none.update_fraction, 0.5);
    }

    #[test]
    fn snapshot_fraction_participates_in_the_sum() {
        let s = WorkloadSpec {
            update_fraction: 0.4,
            point_lookup_fraction: 0.5,
            snapshot_fraction: 0.1,
            ..Default::default()
        };
        assert!(s.validate().is_ok());
        // forgetting to carve the fraction out of another class is caught
        let bad = WorkloadSpec { snapshot_fraction: 0.1, ..Default::default() };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn timeseries_fraction_participates_in_the_sum() {
        let s = WorkloadSpec {
            update_fraction: 0.4,
            point_lookup_fraction: 0.5,
            timeseries_fraction: 0.1,
            ..Default::default()
        };
        assert!(s.validate().is_ok());
        let bad = WorkloadSpec { timeseries_fraction: 0.1, ..Default::default() };
        assert!(bad.validate().is_err());
        let bad = WorkloadSpec {
            update_fraction: 0.4,
            point_lookup_fraction: 0.5,
            timeseries_fraction: 0.1,
            timeseries_samples: 0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn presets_are_valid() {
        assert!(WorkloadSpec::write_only(10).validate().is_ok());
        assert!(WorkloadSpec::secondary_delete_mix(10, 0.001, 0.01).validate().is_ok());
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)] // per-field mutation is the point here
    fn validation_rejects_bad_specs() {
        let mut s = WorkloadSpec::default();
        s.update_fraction = 0.9; // sums to 1.4
        assert!(s.validate().is_err());

        let mut s = WorkloadSpec::default();
        s.point_lookup_fraction = -0.1;
        assert!(s.validate().is_err());

        let mut s = WorkloadSpec::default();
        s.range_delete_selectivity = 2.0;
        assert!(s.validate().is_err());

        let mut s = WorkloadSpec::default();
        s.key_space = 0;
        assert!(s.validate().is_err());

        let mut s = WorkloadSpec::default();
        s.distribution = KeyDistribution::Zipfian { theta: -1.0 };
        assert!(s.validate().is_err());
    }
}
