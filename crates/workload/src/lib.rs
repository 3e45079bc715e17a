//! # lethe-workload
//!
//! Deterministic workload generation for the Lethe reproduction: the paper's
//! YCSB-A variant (50% updates / 50% point lookups) with tunable delete
//! fractions, range deletes of a given selectivity, secondary range deletes
//! on the delete key, uniform/Zipfian key popularity, and a knob for the
//! correlation between sort and delete keys (Figure 6(L)).
//!
//! Everything is seeded: the same [`WorkloadSpec`] always produces the same
//! operation stream, which keeps every figure of the benchmark harness
//! reproducible.

pub mod concurrent;
pub mod generator;
pub mod gorilla;
pub mod spec;
pub mod timeseries;
pub mod zipf;

pub use concurrent::{run_concurrent, thread_spec, ConcurrentReport};
pub use generator::{BatchWriteOp, Operation, WorkloadGenerator};
pub use spec::{DeleteKeyCorrelation, KeyDistribution, WorkloadSpec};
pub use timeseries::{TimeSeriesGenerator, TimeSeriesSpec};
pub use zipf::Zipf;
