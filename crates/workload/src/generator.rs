//! Deterministic operation-stream generation.
//!
//! [`WorkloadGenerator`] turns a [`WorkloadSpec`] into a reproducible stream
//! of [`Operation`]s. The generator tracks which keys have been inserted so
//! that point deletes and point lookups target existing keys (as in the
//! paper's setup: "deletes are issued only on keys that have been inserted
//! in the database") while empty lookups target keys that were never written.

use crate::spec::{DeleteKeyCorrelation, KeyDistribution, WorkloadSpec};
use crate::timeseries::encode_key;
use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One operation of a generated workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operation {
    /// Insert or update `key` with the given delete key and a value of the
    /// spec's `value_size`. Time-series appends are puts too: the key is
    /// [`crate::timeseries::encode_key`]`(tick, series)` and the delete key
    /// the tick, so TTL retention is a secondary range delete on the tick
    /// domain.
    Put {
        /// Sort key.
        key: u64,
        /// Delete key (secondary attribute, e.g. creation time).
        delete_key: u64,
    },
    /// Point lookup expected to find a value.
    Get {
        /// Sort key to look up.
        key: u64,
    },
    /// Point lookup on a key that was never inserted.
    GetEmpty {
        /// Sort key to look up.
        key: u64,
    },
    /// Point delete.
    Delete {
        /// Sort key to delete.
        key: u64,
    },
    /// Range delete on the sort key over `[start, end)`.
    DeleteRange {
        /// Inclusive start of the deleted sort-key range.
        start: u64,
        /// Exclusive end of the deleted sort-key range.
        end: u64,
    },
    /// Range lookup on the sort key over `[start, end)`.
    RangeLookup {
        /// Inclusive start of the scanned range.
        start: u64,
        /// Exclusive end of the scanned range.
        end: u64,
    },
    /// Streaming (paged) range scan on the sort key over `[start, end)` that
    /// stops after consuming at most `limit` results — the paging-API
    /// pattern `iter_range` exists for: the store must only pay for the
    /// prefix actually read.
    RangeStream {
        /// Inclusive start of the scanned range.
        start: u64,
        /// Exclusive end of the scanned range.
        end: u64,
        /// Maximum number of results the client consumes.
        limit: u64,
    },
    /// Secondary range delete on the delete key over `[start, end)`.
    SecondaryRangeDelete {
        /// Inclusive start of the deleted delete-key range.
        start: u64,
        /// Exclusive end of the deleted delete-key range.
        end: u64,
    },
    /// An atomic multi-op write batch: every contained write commits (and,
    /// across a crash, recovers) together or not at all. Drivers map this to
    /// `ShardedLethe::write` / `LsmTree::write_batch`.
    WriteBatch {
        /// The writes inside the batch, in application order.
        ops: Vec<BatchWriteOp>,
    },
    /// Point lookup served through a point-in-time snapshot
    /// (`ShardedLethe::snapshot`) instead of the live store. Drivers open a
    /// snapshot (or reuse a recent one), read `key` through it, and drop it —
    /// measuring the MVCC read path and the cost of pinning versions.
    SnapshotRead {
        /// Sort key to look up through the snapshot.
        key: u64,
    },
}

/// One write inside an [`Operation::WriteBatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchWriteOp {
    /// Insert or update `key` with the given delete key.
    Put {
        /// Sort key.
        key: u64,
        /// Delete key (secondary attribute, e.g. creation time).
        delete_key: u64,
    },
    /// Point delete of `key`.
    Delete {
        /// Sort key to delete.
        key: u64,
    },
}

/// A seeded generator of operation streams.
#[derive(Debug)]
pub struct WorkloadGenerator {
    spec: WorkloadSpec,
    rng: StdRng,
    zipf: Option<Zipf>,
    /// Keys known to have been inserted (targets for lookups and deletes).
    inserted: Vec<u64>,
    /// Monotonically increasing counter used as the "arrival time" delete key
    /// for uncorrelated workloads.
    arrival: u64,
    /// Next free tick of the time-series timeline; advances by
    /// `timeseries_samples` per append so timestamps stay strictly monotone.
    ts_tick: u64,
}

/// Distinct series the mixed generator spreads time-series appends over.
const TIMESERIES_SERIES: u64 = 16;

impl WorkloadGenerator {
    /// Creates a generator for `spec`.
    ///
    /// # Panics
    /// Panics if the spec fails [`WorkloadSpec::validate`].
    pub fn new(spec: WorkloadSpec) -> Self {
        spec.validate().expect("invalid workload spec");
        let zipf = match spec.distribution {
            KeyDistribution::Uniform => None,
            KeyDistribution::Zipfian { theta } => {
                Some(Zipf::new(spec.key_space.min(1 << 22) as usize, theta))
            }
        };
        let rng = StdRng::seed_from_u64(spec.seed);
        WorkloadGenerator { spec, rng, zipf, inserted: Vec::new(), arrival: 0, ts_tick: 0 }
    }

    /// The spec this generator was built from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Starts the uncorrelated delete-key "arrival" counter at `base`
    /// instead of zero. Multi-generator drivers (see
    /// [`crate::concurrent::run_concurrent`]) give each generator a disjoint
    /// base so delete keys stay globally unique — without it, every
    /// generator would restart the arrival timeline at zero and
    /// retention-style secondary deletes ("purge the oldest entries") would
    /// collide across generators.
    pub fn start_arrival_at(mut self, base: u64) -> Self {
        self.arrival = base;
        self
    }

    /// Value payload matching the spec's `value_size`, derived from the key
    /// so that values are distinguishable in tests.
    pub fn value_for(&self, key: u64) -> Vec<u8> {
        let mut v = vec![0u8; self.spec.value_size.max(8)];
        v[..8].copy_from_slice(&key.to_le_bytes());
        v
    }

    fn pick_key(&mut self) -> u64 {
        match &self.zipf {
            Some(z) => {
                let rank = z.sample(&mut self.rng) as u64;
                // spread ranks over the key space deterministically
                (rank.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % self.spec.key_space
            }
            None => self.rng.gen_range(0..self.spec.key_space),
        }
    }

    fn pick_existing_key(&mut self) -> Option<u64> {
        if self.inserted.is_empty() {
            return None;
        }
        let idx = self.rng.gen_range(0..self.inserted.len());
        Some(self.inserted[idx])
    }

    fn delete_key_for(&mut self, sort_key: u64) -> u64 {
        match self.spec.correlation {
            DeleteKeyCorrelation::Correlated => sort_key,
            DeleteKeyCorrelation::Uncorrelated => {
                self.arrival += 1;
                self.arrival
            }
        }
    }

    fn make_put(&mut self) -> Operation {
        let key = self.pick_key();
        let delete_key = self.delete_key_for(key);
        self.inserted.push(key);
        Operation::Put { key, delete_key }
    }

    /// Builds one atomic write batch of `batch_size` ops: mostly puts, with
    /// roughly one in eight a point delete of an already-inserted key (so
    /// batches exercise mixed put/delete atomicity, not just group inserts).
    fn make_batch(&mut self) -> Operation {
        let n = self.spec.batch_size.max(1);
        let mut ops = Vec::with_capacity(n as usize);
        for _ in 0..n {
            if self.rng.gen_range(0..8u32) == 0 {
                if let Some(key) = self.pick_existing_key() {
                    ops.push(BatchWriteOp::Delete { key });
                    continue;
                }
            }
            let key = self.pick_key();
            let delete_key = self.delete_key_for(key);
            self.inserted.push(key);
            ops.push(BatchWriteOp::Put { key, delete_key });
        }
        Operation::WriteBatch { ops }
    }

    /// Builds one time-series append: a put at the next tick of the global
    /// monotone timeline, for a random series.
    fn make_timeseries(&mut self) -> Operation {
        let series = self.rng.gen_range(0..TIMESERIES_SERIES);
        let tick = self.ts_tick;
        self.ts_tick += self.spec.timeseries_samples.max(1);
        Operation::Put { key: encode_key(tick, series), delete_key: tick }
    }

    /// Generates the preload phase: `preload_keys` distinct puts covering the
    /// key space evenly (so later range deletes behave predictably).
    pub fn preload(&mut self) -> Vec<Operation> {
        let n = self.spec.preload_keys;
        let mut ops = Vec::with_capacity(n as usize);
        if n == 0 {
            return ops;
        }
        let stride = (self.spec.key_space / n).max(1);
        for i in 0..n {
            let key = (i * stride) % self.spec.key_space;
            let delete_key = self.delete_key_for(key);
            self.inserted.push(key);
            ops.push(Operation::Put { key, delete_key });
        }
        ops
    }

    /// Generates the next operation of the measured phase.
    pub fn next_operation(&mut self) -> Operation {
        let spec = self.spec.clone();
        let mut x: f64 = self.rng.gen();
        let classes = [
            spec.update_fraction,
            spec.point_lookup_fraction,
            spec.empty_lookup_fraction,
            spec.point_delete_fraction,
            spec.range_delete_fraction,
            spec.range_lookup_fraction,
            spec.streaming_range_fraction,
            spec.batch_fraction,
            spec.snapshot_fraction,
            spec.timeseries_fraction,
            spec.secondary_delete_fraction,
        ];
        let mut class = classes.len() - 1;
        for (i, f) in classes.iter().enumerate() {
            if x < *f {
                class = i;
                break;
            }
            x -= f;
        }
        match class {
            0 => self.make_put(),
            1 => match self.pick_existing_key() {
                Some(key) => Operation::Get { key },
                None => self.make_put(),
            },
            2 => Operation::GetEmpty { key: self.spec.key_space + self.rng.gen_range(0..u32::MAX as u64) },
            3 => match self.pick_existing_key() {
                Some(key) => Operation::Delete { key },
                None => self.make_put(),
            },
            4 => {
                let span = ((self.spec.key_space as f64 * spec.range_delete_selectivity) as u64).max(1);
                let start = self.rng.gen_range(0..self.spec.key_space.saturating_sub(span).max(1));
                Operation::DeleteRange { start, end: start + span }
            }
            5 => {
                let span = ((self.spec.key_space as f64 * spec.range_lookup_selectivity) as u64).max(1);
                let start = self.rng.gen_range(0..self.spec.key_space.saturating_sub(span).max(1));
                Operation::RangeLookup { start, end: start + span }
            }
            6 => {
                // a paging client opens a long scan (the rest of the key
                // space) but consumes only one page of it
                let start = self.rng.gen_range(0..self.spec.key_space);
                Operation::RangeStream {
                    start,
                    end: self.spec.key_space,
                    limit: spec.streaming_range_limit.max(1),
                }
            }
            7 => self.make_batch(),
            8 => match self.pick_existing_key() {
                Some(key) => Operation::SnapshotRead { key },
                None => self.make_put(),
            },
            9 => self.make_timeseries(),
            // secondary range deletes stay the final arm: it doubles as the
            // floating-point fallback class, so adding new classes above
            // never changes what a rounding leftover generates
            _ => {
                // the delete-key domain is the arrival counter for
                // uncorrelated workloads and the key space when correlated
                let domain = match self.spec.correlation {
                    DeleteKeyCorrelation::Uncorrelated => self.arrival.max(1),
                    DeleteKeyCorrelation::Correlated => self.spec.key_space,
                };
                // retention-style deletes: purge the oldest `selectivity`
                // fraction of the delete-key domain (the paper's use case —
                // "delete everything older than D days"), which also keeps
                // the delete range covering every older version of a key
                let span = ((domain as f64 * spec.secondary_delete_selectivity) as u64).max(1);
                Operation::SecondaryRangeDelete { start: 0, end: span }
            }
        }
    }

    /// Generates the whole measured phase as a vector.
    pub fn operations(&mut self) -> Vec<Operation> {
        (0..self.spec.operations).map(|_| self.next_operation()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_class(ops: &[Operation]) -> (usize, usize, usize, usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0, 0, 0, 0);
        let mut streams = 0usize;
        for op in ops {
            match op {
                Operation::Put { .. } => c.0 += 1,
                Operation::Get { .. } => c.1 += 1,
                Operation::GetEmpty { .. } => c.2 += 1,
                Operation::Delete { .. } => c.3 += 1,
                Operation::DeleteRange { .. } => c.4 += 1,
                Operation::RangeLookup { .. } => c.5 += 1,
                Operation::RangeStream { .. } => streams += 1,
                Operation::SecondaryRangeDelete { .. } => c.6 += 1,
                Operation::WriteBatch { .. } | Operation::SnapshotRead { .. } => {}
            }
        }
        let _ = streams;
        c
    }

    #[test]
    fn streaming_scans_are_generated_when_requested() {
        let spec = WorkloadSpec {
            operations: 5_000,
            key_space: 10_000,
            update_fraction: 0.8,
            point_lookup_fraction: 0.0,
            streaming_range_fraction: 0.2,
            streaming_range_limit: 64,
            ..Default::default()
        };
        let ops = WorkloadGenerator::new(spec.clone()).operations();
        let streams: Vec<_> = ops
            .iter()
            .filter_map(|op| match op {
                Operation::RangeStream { start, end, limit } => Some((*start, *end, *limit)),
                _ => None,
            })
            .collect();
        let share = streams.len() as f64 / ops.len() as f64;
        assert!((share - 0.2).abs() < 0.05, "stream share {share}");
        for (start, end, limit) in streams {
            assert!(start < end && end <= spec.key_space);
            assert_eq!(limit, 64);
        }
        // with the knob off the class is never generated and streams are
        // byte-identical to the pre-knob generator
        let spec_off = WorkloadSpec { operations: 500, ..Default::default() };
        let ops_off = WorkloadGenerator::new(spec_off).operations();
        assert!(ops_off.iter().all(|op| !matches!(op, Operation::RangeStream { .. })));
    }

    #[test]
    fn batches_are_generated_when_requested() {
        let spec = WorkloadSpec {
            operations: 5_000,
            key_space: 10_000,
            update_fraction: 0.7,
            point_lookup_fraction: 0.1,
            batch_fraction: 0.2,
            batch_size: 16,
            ..Default::default()
        };
        let ops = WorkloadGenerator::new(spec).operations();
        let batches: Vec<&Vec<BatchWriteOp>> = ops
            .iter()
            .filter_map(|op| match op {
                Operation::WriteBatch { ops } => Some(ops),
                _ => None,
            })
            .collect();
        let share = batches.len() as f64 / ops.len() as f64;
        assert!((share - 0.2).abs() < 0.05, "batch share {share}");
        let mut puts = 0usize;
        let mut deletes = 0usize;
        for batch in &batches {
            assert_eq!(batch.len(), 16);
            for op in batch.iter() {
                match op {
                    BatchWriteOp::Put { .. } => puts += 1,
                    BatchWriteOp::Delete { .. } => deletes += 1,
                }
            }
        }
        assert!(puts > 0 && deletes > 0, "batches must mix puts and deletes ({puts}/{deletes})");
        // with the knob off the class is never generated and the stream is
        // byte-identical to the pre-knob generator
        let ops_off = WorkloadGenerator::new(WorkloadSpec { operations: 500, ..Default::default() })
            .operations();
        assert!(ops_off.iter().all(|op| !matches!(op, Operation::WriteBatch { .. })));
    }

    #[test]
    fn snapshot_reads_are_generated_when_requested() {
        let spec = WorkloadSpec {
            operations: 5_000,
            key_space: 10_000,
            update_fraction: 0.7,
            point_lookup_fraction: 0.1,
            snapshot_fraction: 0.2,
            ..Default::default()
        };
        let ops = WorkloadGenerator::new(spec).operations();
        let mut inserted = std::collections::HashSet::new();
        let mut snapshot_reads = 0usize;
        for op in &ops {
            match op {
                Operation::Put { key, .. } => {
                    inserted.insert(*key);
                }
                Operation::SnapshotRead { key } => {
                    snapshot_reads += 1;
                    assert!(inserted.contains(key), "snapshot read targets a key never inserted");
                }
                _ => {}
            }
        }
        let share = snapshot_reads as f64 / ops.len() as f64;
        assert!((share - 0.2).abs() < 0.05, "snapshot-read share {share}");
        // with the knob off the class is never generated and the stream is
        // byte-identical to the pre-knob generator
        let ops_off = WorkloadGenerator::new(WorkloadSpec { operations: 500, ..Default::default() })
            .operations();
        assert!(ops_off.iter().all(|op| !matches!(op, Operation::SnapshotRead { .. })));
    }

    #[test]
    fn timeseries_appends_are_generated_when_requested() {
        let spec = WorkloadSpec {
            operations: 5_000,
            key_space: 10_000,
            update_fraction: 0.7,
            point_lookup_fraction: 0.1,
            timeseries_fraction: 0.2,
            timeseries_samples: 24,
            ..Default::default()
        };
        let ops = WorkloadGenerator::new(spec).operations();
        // appends are the puts whose key carries the time-series tag bit
        let is_append = |key: u64| key >= 1 << 63;
        let mut appends = 0usize;
        let mut last_tick: Option<u64> = None;
        for op in &ops {
            if let Operation::Put { key, delete_key } = op {
                if !is_append(*key) {
                    continue;
                }
                appends += 1;
                let (tick, series) = crate::timeseries::decode_key(*key);
                assert!(series < super::TIMESERIES_SERIES);
                assert_eq!(*delete_key, tick, "an append's delete key is its tick");
                assert!(last_tick.is_none_or(|t| tick == t + 24), "ticks must rise by the stride");
                last_tick = Some(tick);
            }
        }
        let share = appends as f64 / ops.len() as f64;
        assert!((share - 0.2).abs() < 0.05, "append share {share}");
        // with the knob off the class is never generated and the stream is
        // byte-identical to the pre-knob generator
        let ops_off = WorkloadGenerator::new(WorkloadSpec { operations: 500, ..Default::default() })
            .operations();
        assert!(ops_off.iter().all(|op| !matches!(op, Operation::Put { key, .. } if is_append(*key))));
    }

    /// FNV-1a over each operation's class tag and fields, in stream order,
    /// so a reordered, retagged or reshaped stream changes the sum.
    fn stream_checksum(ops: &[Operation]) -> u64 {
        let mut words = Vec::new();
        for op in ops {
            match op {
                Operation::Put { key, delete_key } => words.extend([0, *key, *delete_key]),
                Operation::Get { key } => words.extend([1, *key]),
                Operation::GetEmpty { key } => words.extend([2, *key]),
                Operation::Delete { key } => words.extend([3, *key]),
                Operation::DeleteRange { start, end } => words.extend([4, *start, *end]),
                Operation::RangeLookup { start, end } => words.extend([5, *start, *end]),
                Operation::RangeStream { start, end, limit } => {
                    words.extend([6, *start, *end, *limit])
                }
                Operation::SecondaryRangeDelete { start, end } => words.extend([7, *start, *end]),
                Operation::WriteBatch { ops } => {
                    words.extend([8, ops.len() as u64]);
                    for op in ops {
                        match op {
                            BatchWriteOp::Put { key, delete_key } => {
                                words.extend([0, *key, *delete_key])
                            }
                            BatchWriteOp::Delete { key } => words.extend([3, *key]),
                        }
                    }
                }
                Operation::SnapshotRead { key } => words.extend([9, *key]),
            }
        }
        words.iter().flat_map(|w| w.to_le_bytes()).fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
    }

    #[test]
    fn deterministic_for_a_given_seed() {
        let spec = WorkloadSpec { operations: 500, ..Default::default() };
        let a = WorkloadGenerator::new(spec.clone()).operations();
        let b = WorkloadGenerator::new(spec).operations();
        assert_eq!(a, b);
        let c = WorkloadGenerator::new(WorkloadSpec { seed: 99, operations: 500, ..Default::default() })
            .operations();
        assert_ne!(a, c);

        // every class but time-series, pinned: an edit that shifts any
        // generated stream (the benchmark ledger's among them) fails here
        let every_class = WorkloadSpec {
            preload_keys: 1_000,
            operations: 10_000,
            key_space: 50_000,
            update_fraction: 0.4,
            point_lookup_fraction: 0.2,
            empty_lookup_fraction: 0.05,
            point_delete_fraction: 0.05,
            range_delete_fraction: 0.05,
            range_lookup_fraction: 0.05,
            streaming_range_fraction: 0.05,
            batch_fraction: 0.05,
            snapshot_fraction: 0.05,
            secondary_delete_fraction: 0.05,
            secondary_delete_selectivity: 0.01,
            ..Default::default()
        };
        let mut gen = WorkloadGenerator::new(every_class);
        let ops: Vec<Operation> = gen.preload().into_iter().chain(gen.operations()).collect();
        let (puts, .., srds) = count_class(&ops);
        assert!(puts > 1_000 && srds > 0);
        assert_eq!(stream_checksum(&ops), 0xB611_D8F7_9015_04FF, "the pinned operation stream moved");
    }

    #[test]
    fn class_mix_matches_fractions() {
        let spec = WorkloadSpec::ycsb_a_with_deletes(20_000, 10.0);
        let ops = WorkloadGenerator::new(spec).operations();
        let (puts, gets, _, deletes, _, _, _) = count_class(&ops);
        let n = ops.len() as f64;
        assert!((puts as f64 / n - 0.45).abs() < 0.05, "puts {puts}");
        // early lookups fall back to puts while nothing exists yet, so allow slack
        assert!((gets as f64 / n - 0.5).abs() < 0.05, "gets {gets}");
        assert!((deletes as f64 / n - 0.05).abs() < 0.02, "deletes {deletes}");
    }

    #[test]
    fn deletes_and_lookups_target_inserted_keys() {
        let spec = WorkloadSpec::ycsb_a_with_deletes(5_000, 10.0);
        let mut gen = WorkloadGenerator::new(spec);
        let ops = gen.operations();
        let mut inserted = std::collections::HashSet::new();
        for op in &ops {
            match op {
                Operation::Put { key, .. } => {
                    inserted.insert(*key);
                }
                Operation::Get { key } | Operation::Delete { key } => {
                    assert!(inserted.contains(key), "{op:?} targets a key never inserted");
                }
                Operation::GetEmpty { key } => {
                    assert!(*key >= gen.spec().key_space);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn preload_covers_key_space_without_duplicates() {
        let spec = WorkloadSpec { preload_keys: 1000, key_space: 100_000, ..Default::default() };
        let mut gen = WorkloadGenerator::new(spec);
        let ops = gen.preload();
        assert_eq!(ops.len(), 1000);
        let keys: std::collections::HashSet<u64> = ops
            .iter()
            .map(|op| match op {
                Operation::Put { key, .. } => *key,
                _ => panic!("preload must only contain puts"),
            })
            .collect();
        assert_eq!(keys.len(), 1000);
    }

    #[test]
    fn correlation_controls_delete_keys() {
        let correlated = WorkloadSpec {
            preload_keys: 100,
            correlation: DeleteKeyCorrelation::Correlated,
            ..Default::default()
        };
        let mut gen = WorkloadGenerator::new(correlated);
        for op in gen.preload() {
            if let Operation::Put { key, delete_key } = op {
                assert_eq!(key, delete_key);
            }
        }
        let uncorrelated = WorkloadSpec {
            preload_keys: 100,
            correlation: DeleteKeyCorrelation::Uncorrelated,
            ..Default::default()
        };
        let mut gen = WorkloadGenerator::new(uncorrelated);
        let dks: Vec<u64> = gen
            .preload()
            .iter()
            .map(|op| match op {
                Operation::Put { delete_key, .. } => *delete_key,
                _ => unreachable!(),
            })
            .collect();
        // arrival order: strictly increasing
        assert!(dks.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn secondary_deletes_generated_when_requested() {
        let spec = WorkloadSpec::secondary_delete_mix(20_000, 0.001, 0.05);
        let ops = WorkloadGenerator::new(spec).operations();
        let (_, _, _, _, _, range_lookups, srds) = count_class(&ops);
        assert!(srds > 0, "expected at least one secondary range delete");
        assert!(range_lookups > 0);
    }

    #[test]
    fn zipfian_workload_produces_hot_keys() {
        let spec = WorkloadSpec {
            operations: 10_000,
            distribution: KeyDistribution::Zipfian { theta: 0.99 },
            update_fraction: 1.0,
            point_lookup_fraction: 0.0,
            ..Default::default()
        };
        let ops = WorkloadGenerator::new(spec).operations();
        let mut counts = std::collections::HashMap::new();
        for op in &ops {
            if let Operation::Put { key, .. } = op {
                *counts.entry(*key).or_insert(0usize) += 1;
            }
        }
        let max = counts.values().max().unwrap();
        assert!(*max > 100, "a hot key should dominate, max = {max}");
    }

    #[test]
    fn value_embeds_key_and_has_requested_size() {
        let spec = WorkloadSpec { value_size: 128, ..Default::default() };
        let gen = WorkloadGenerator::new(spec);
        let v = gen.value_for(42);
        assert_eq!(v.len(), 128);
        assert_eq!(u64::from_le_bytes(v[..8].try_into().unwrap()), 42);
    }
}
