//! Shared infrastructure for the Lethe benchmark harness.
//!
//! The `experiments` binary (one subcommand per figure/table of the paper's
//! evaluation) is built from the helpers in this crate: engine construction
//! for every compared design, a uniform driver that applies generated
//! workload operations to an engine, and small formatting utilities for the
//! printed series.

pub mod figures;

use lethe_core::baseline::BaselineKind;
use lethe_core::engine::{Lethe, LetheBuilder};
use lethe_lsm::config::{LsmConfig, SecondaryDeleteMode};
use lethe_lsm::tree::LsmTree;
use lethe_storage::{CostModel, IoSnapshot, Result, Timestamp};
use lethe_workload::{BatchWriteOp, Operation};

/// Which engine design an experiment instantiates.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineSpec {
    /// A state-of-the-art baseline.
    Baseline(BaselineKind),
    /// Lethe with a delete persistence threshold (µs of logical time) and a
    /// delete-tile granularity.
    Lethe {
        /// Delete persistence threshold in logical microseconds.
        dth_micros: Timestamp,
        /// Pages per delete tile (`h`).
        h: usize,
    },
}

impl EngineSpec {
    /// Label used in printed tables.
    pub fn label(&self) -> String {
        match self {
            EngineSpec::Baseline(kind) => kind.label().to_string(),
            EngineSpec::Lethe { dth_micros, h } => {
                format!("lethe(dth={:.2}s,h={h})", *dth_micros as f64 / 1_000_000.0)
            }
        }
    }

    /// Builds the engine in memory (the full stack on a `MemVfs`).
    pub fn build(&self, base: LsmConfig) -> Result<Lethe> {
        match self {
            EngineSpec::Baseline(kind) => kind.build(base),
            EngineSpec::Lethe { dth_micros, h } => {
                let mut cfg = base;
                cfg.pages_per_delete_tile = *h;
                if !cfg.max_pages_per_file.is_multiple_of(*h) {
                    cfg.max_pages_per_file = cfg.max_pages_per_file.div_ceil(*h) * *h;
                }
                cfg.secondary_delete_mode = SecondaryDeleteMode::KiwiPageDrops;
                cfg.suppress_blind_deletes = true;
                cfg.delete_persistence_threshold = Some(*dth_micros);
                LetheBuilder::new()
                    .with_config(cfg)
                    .delete_persistence_threshold_micros(*dth_micros)
                    .build()
            }
        }
    }
}

/// Applies one generated operation to an engine. The value payload is
/// `value_size` bytes embedding the key.
pub fn apply_operation(tree: &mut LsmTree, op: &Operation, value_size: usize) -> Result<()> {
    match op {
        Operation::Put { key, delete_key } => {
            let mut v = vec![0u8; value_size.max(8)];
            v[..8].copy_from_slice(&key.to_le_bytes());
            tree.put(*key, *delete_key, v.into())
        }
        Operation::Get { key } | Operation::GetEmpty { key } => tree.get(*key).map(|_| ()),
        Operation::Delete { key } => tree.delete(*key).map(|_| ()),
        Operation::DeleteRange { start, end } => tree.delete_range(*start, *end),
        Operation::RangeLookup { start, end } => tree.range(*start, *end).map(|_| ()),
        Operation::RangeStream { start, end, limit } => {
            // consume one page of a streaming scan through the reader
            let mut n = 0u64;
            for item in tree.reader().iter_range(*start, *end)? {
                item?;
                n += 1;
                if n >= *limit {
                    break;
                }
            }
            Ok(())
        }
        Operation::SecondaryRangeDelete { start, end } => {
            tree.secondary_range_delete(*start, *end).map(|_| ())
        }
        Operation::WriteBatch { ops } => {
            let mut batch = lethe_lsm::batch::WriteBatch::new();
            for op in ops {
                match op {
                    BatchWriteOp::Put { key, delete_key } => {
                        let mut v = vec![0u8; value_size.max(8)];
                        v[..8].copy_from_slice(&key.to_le_bytes());
                        batch.put(*key, *delete_key, v);
                    }
                    BatchWriteOp::Delete { key } => {
                        batch.delete(*key);
                    }
                }
            }
            tree.write_batch(batch)
        }
        Operation::SnapshotRead { key } => {
            // open a point-in-time view, serve the lookup through it, drop it
            let snapshot = tree.capture_snapshot();
            snapshot.get(*key).map(|_| ())
        }
    }
}

/// Applies a whole operation stream.
pub fn apply_all(tree: &mut LsmTree, ops: &[Operation], value_size: usize) -> Result<()> {
    for op in ops {
        apply_operation(tree, op, value_size)?;
    }
    Ok(())
}

/// The scaled-down base configuration every experiment starts from. The
/// paper runs on a 240 GB SSD with 1 KB entries; the harness keeps the same
/// structural parameters (T, B, bits/key) but shrinks the buffer and entry
/// size so a full figure regenerates in seconds on a laptop. Use the
/// `--ops`/`--scale` flags of the `experiments` binary to scale up.
pub fn experiment_config() -> LsmConfig {
    LsmConfig {
        size_ratio: 10,
        buffer_pages: 64,
        entries_per_page: 4,
        entry_size: 128,
        bits_per_key: 10.0,
        max_pages_per_file: 16,
        ingestion_rate: 4096,
        key_domain: 1 << 24,
        ..LsmConfig::default()
    }
}

/// Modeled time (µs) of an I/O snapshot under the paper's latency constants.
pub fn modeled_time_us(io: &IoSnapshot) -> f64 {
    CostModel::default().total_time_us(io)
}

/// Formats a floating point cell with a sensible width for printed tables.
pub fn cell(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// Prints a header row followed by data rows, space-aligned.
pub fn print_table(title: &str, header: &[String], rows: &[Vec<String>]) {
    println!("\n## {title}");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, c) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(header));
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lethe_workload::{WorkloadGenerator, WorkloadSpec};

    #[test]
    fn engine_specs_build_and_label() {
        let specs = [
            EngineSpec::Baseline(BaselineKind::RocksDbLike),
            EngineSpec::Baseline(BaselineKind::TombstoneSelection),
            EngineSpec::Lethe { dth_micros: 2_000_000, h: 4 },
        ];
        for spec in specs {
            let mut cfg = experiment_config();
            cfg.buffer_pages = 8;
            let mut engine = spec.build(cfg).unwrap();
            assert!(!spec.label().is_empty());
            engine.tree_mut().put(1, 1, vec![0u8; 16].into()).unwrap();
            assert!(engine.tree_mut().get(1).unwrap().is_some());
            engine.persist().unwrap();
            assert!(engine.tree().disk_entries() > 0);
        }
    }

    #[test]
    fn lethe_spec_enables_kiwi_and_fade() {
        let engine = EngineSpec::Lethe { dth_micros: 5_000_000, h: 8 }
            .build(experiment_config())
            .unwrap();
        let cfg = engine.tree().config();
        assert_eq!(cfg.pages_per_delete_tile, 8);
        assert_eq!(cfg.secondary_delete_mode, SecondaryDeleteMode::KiwiPageDrops);
        assert_eq!(cfg.delete_persistence_threshold, Some(5_000_000));
        assert_eq!(cfg.max_pages_per_file % 8, 0);
    }

    #[test]
    fn drivers_execute_every_operation_kind() {
        let mut cfg = experiment_config();
        cfg.buffer_pages = 8;
        let mut engine = EngineSpec::Lethe { dth_micros: 1_000_000, h: 2 }.build(cfg).unwrap();
        let spec = WorkloadSpec {
            operations: 2_000,
            key_space: 10_000,
            value_size: 32,
            update_fraction: 0.55,
            point_lookup_fraction: 0.25,
            empty_lookup_fraction: 0.05,
            point_delete_fraction: 0.05,
            range_delete_fraction: 0.02,
            range_lookup_fraction: 0.05,
            secondary_delete_fraction: 0.03,
            secondary_delete_selectivity: 0.01,
            ..Default::default()
        };
        let mut gen = WorkloadGenerator::new(spec);
        let ops = gen.operations();
        apply_all(engine.tree_mut(), &ops, 32).unwrap();
        engine.persist().unwrap();
        assert!(engine.tree().stats().entries_ingested > 0);
        assert!(engine.tree().stats().point_lookups > 0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(cell(0.0), "0");
        assert_eq!(cell(12345.6), "12346");
        assert_eq!(cell(42.0), "42.0");
        assert_eq!(cell(0.1234), "0.1234");
        assert!(modeled_time_us(&IoSnapshot::default()) == 0.0);
        // print_table must not panic on ragged rows
        print_table(
            "smoke",
            &["a".into(), "b".into()],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
