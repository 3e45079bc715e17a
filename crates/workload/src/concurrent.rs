//! Multi-threaded workload driving.
//!
//! [`run_concurrent`] fans one [`WorkloadSpec`] out over `M` client threads,
//! each with its own deterministically re-seeded [`WorkloadGenerator`], and
//! applies every generated operation through a caller-supplied `&self`-style
//! closure. It is the driver used to exercise the sharded concurrent
//! front-end (`ShardedLethe` in `lethe-core`) from many threads at once —
//! the generic closure keeps this crate free of a dependency on the engine
//! crates (the dependency points the other way around).
//!
//! Determinism: thread `t` runs the spec with seed `spec.seed + t` and its
//! slice of the operation count (slices sum to exactly `spec.operations`),
//! so a concurrent run issues a reproducible *set* of operations; only the
//! interleaving across threads is scheduler-dependent.

use crate::generator::{Operation, WorkloadGenerator};
use crate::spec::WorkloadSpec;
use std::time::{Duration, Instant};

/// Outcome of one concurrent run.
#[derive(Debug, Clone)]
pub struct ConcurrentReport {
    /// Number of client threads that ran.
    pub threads: usize,
    /// Total operations applied across all threads.
    pub operations: u64,
    /// Wall-clock duration of the run (spawn to last join).
    pub elapsed: Duration,
}

impl ConcurrentReport {
    /// Wall-clock throughput in operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return f64::INFINITY;
        }
        self.operations as f64 / secs
    }
}

/// Operation count for thread `t` of `threads`: the total divided evenly,
/// with the remainder spread over the first `operations % threads` threads,
/// so the per-thread counts always sum to exactly `operations`.
fn ops_for_thread(operations: u64, t: usize, threads: usize) -> u64 {
    let threads = threads.max(1) as u64;
    operations / threads + u64::from((t as u64) < operations % threads)
}

/// Derives the spec thread `t` of `threads` runs: same mix, re-seeded, with
/// its slice of the operation count (slices sum to exactly
/// `base.operations`).
pub fn thread_spec(base: &WorkloadSpec, t: usize, threads: usize) -> WorkloadSpec {
    let mut spec = base.clone();
    spec.seed = base.seed.wrapping_add(t as u64);
    spec.operations = ops_for_thread(base.operations, t, threads);
    // preload is a whole-store concern; only thread 0 issues it
    if t != 0 {
        spec.preload_keys = 0;
    }
    spec
}

/// Runs `spec` from `threads` client threads against `apply`.
///
/// `apply` receives `(thread_index, operation)` for every generated
/// operation and must be callable from any thread through a shared reference
/// — exactly the contract of a sharded `&self` engine. Thread 0 issues the
/// spec's preload phase (if any) before the measured phase starts on the
/// other threads; the measured phase of every thread runs concurrently.
///
/// # Panics
/// Propagates panics from `apply` (a panicking worker fails the run).
pub fn run_concurrent<F>(spec: &WorkloadSpec, threads: usize, apply: F) -> ConcurrentReport
where
    F: Fn(usize, &Operation) + Sync,
{
    let threads = threads.max(1);
    // preload first, single-threaded, so the measured phase of every thread
    // sees the same starting store
    let preload_spec = thread_spec(spec, 0, threads);
    let mut preload_gen = WorkloadGenerator::new(preload_spec.clone());
    for op in preload_gen.preload() {
        apply(0, &op);
    }

    let start = Instant::now();
    let mut total_ops = 0u64;
    std::thread::scope(|s| {
        let apply = &apply;
        let mut handles = Vec::with_capacity(threads);
        // disjoint arrival bases keep uncorrelated delete keys globally
        // unique across threads (the preload consumed the first block), so
        // "purge the oldest" secondary deletes keep their meaning
        let mut arrival_base = spec.preload_keys;
        for t in 0..threads {
            let mut spec_t = thread_spec(spec, t, threads);
            spec_t.preload_keys = 0; // already issued above
            let base = arrival_base;
            arrival_base += spec_t.operations; // at most one arrival per op
            handles.push(s.spawn(move || {
                let mut generator = WorkloadGenerator::new(spec_t).start_arrival_at(base);
                let ops = generator.operations();
                for op in &ops {
                    apply(t, op);
                }
                ops.len() as u64
            }));
        }
        for handle in handles {
            total_ops += handle.join().expect("workload thread panicked");
        }
    });

    ConcurrentReport { threads, operations: total_ops, elapsed: start.elapsed() }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_types,
    reason = "a test oracle outside the engine, so no rank of the engine's lock order applies"
)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Mutex;

    fn tiny_spec(ops: u64) -> WorkloadSpec {
        WorkloadSpec { operations: ops, key_space: 1000, ..Default::default() }
    }

    #[test]
    fn every_thread_contributes_its_slice() {
        let counts = Mutex::new(HashMap::<usize, u64>::new());
        let report = run_concurrent(&tiny_spec(400), 4, |t, _op| {
            *counts.lock().unwrap().entry(t).or_insert(0) += 1;
        });
        assert_eq!(report.threads, 4);
        assert_eq!(report.operations, 400);
        let counts = counts.lock().unwrap();
        assert_eq!(counts.len(), 4);
        for t in 0..4 {
            assert_eq!(counts[&t], 100);
        }
        assert!(report.ops_per_sec() > 0.0);
    }

    #[test]
    fn op_slices_sum_exactly_even_when_not_divisible() {
        for (ops, threads) in [(1000u64, 3usize), (2, 4), (7, 7), (5, 8), (0, 3)] {
            let applied = Mutex::new(0u64);
            let report = run_concurrent(&tiny_spec(ops), threads, |_t, _op| {
                *applied.lock().unwrap() += 1;
            });
            assert_eq!(report.operations, ops, "{ops} ops over {threads} threads");
            assert_eq!(*applied.lock().unwrap(), ops);
        }
    }

    #[test]
    fn thread_specs_are_reseeded_slices() {
        let base = tiny_spec(100);
        let a = thread_spec(&base, 0, 4);
        let b = thread_spec(&base, 1, 4);
        assert_eq!(a.operations, 25);
        assert_eq!(b.operations, 25);
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.preload_keys, base.preload_keys);
        assert_eq!(b.preload_keys, 0);
    }

    #[test]
    fn uncorrelated_delete_keys_are_globally_unique_across_threads() {
        use crate::spec::DeleteKeyCorrelation;
        let spec = WorkloadSpec {
            operations: 400,
            key_space: 10_000,
            preload_keys: 50,
            correlation: DeleteKeyCorrelation::Uncorrelated,
            update_fraction: 1.0,
            point_lookup_fraction: 0.0,
            ..Default::default()
        };
        let seen = Mutex::new(Vec::<u64>::new());
        run_concurrent(&spec, 4, |_t, op| {
            if let crate::generator::Operation::Put { delete_key, .. } = op {
                seen.lock().unwrap().push(*delete_key);
            }
        });
        let mut dks = seen.into_inner().unwrap();
        let n = dks.len();
        dks.sort_unstable();
        dks.dedup();
        assert_eq!(dks.len(), n, "arrival delete keys collided across threads");
    }

    #[test]
    fn preload_runs_once_on_thread_zero() {
        let mut spec = tiny_spec(40);
        spec.preload_keys = 50;
        let puts = Mutex::new(0u64);
        let report = run_concurrent(&spec, 4, |_t, op| {
            if matches!(op, crate::generator::Operation::Put { .. }) {
                *puts.lock().unwrap() += 1;
            }
        });
        // measured ops exclude the preload in the report…
        assert_eq!(report.operations, 40);
        // …but the preload puts were applied exactly once
        assert!(*puts.lock().unwrap() >= 50);
    }
}
