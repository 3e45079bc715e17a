//! `lethe-benchmark compare [--same-code] <setA-dir> <setB-dir>`: how do two
//! sets of `--out` files differ?
//!
//! Per `workload/metric` it prints both medians, their relative difference
//! (positive when set B is worse), the metric's bound and a verdict, and
//! exits non-zero when any cell fails.
//!
//! * As a regression gate (A = parent, B = change) a cell fails when B is
//!   *worse* than A by more than the bound; an improvement of any size passes.
//! * With `--same-code` it checks the benchmark itself: two sets of runs of
//!   one build on the same seeds must agree. A measured cell (time, memory)
//!   fails when the medians differ by more than the bound in either
//!   direction, a counted cell when they differ at all.
//!
//! Either way a workload or an end-to-end metric that one set has and the
//! other lacks is a failed cell: sets that cannot be compared do not agree.

use crate::estimate::median;
use crate::json::Json;
use crate::metrics::{Better, Judge, END_TO_END};
use std::collections::BTreeMap;
use std::path::Path;

/// `workload → metric → values`, one value per run file.
type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(dir: &Path) -> Result<Set, String> {
    let mut set = Set::new();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no `workload`", path.display()))?;
        if doc.get("correct").and_then(Json::as_bool) != Some(true) {
            return Err(format!(
                "{}: the run reported correct != true",
                path.display()
            ));
        }
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err(format!("{}: no `metrics` object", path.display()));
        };
        let per_workload = set.entry(workload.to_owned()).or_default();
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                per_workload.entry(name.clone()).or_default().push(value);
            }
        }
    }
    if set.is_empty() {
        return Err(format!("{}: no run files (*.json)", dir.display()));
    }
    Ok(set)
}

/// What two sets of runs are expected to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// A is the parent, B the change: only a worsening beyond the bound fails.
    Gate,
    /// Both are the same build on the same seeds: any measured difference
    /// beyond the bound, and any counted difference at all, fails.
    SameCode,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Identical,
    OutOfBound,
    CountDiffers,
    /// One of the sets has no value for this cell.
    Missing,
    /// A per-layer metric: shown, not judged.
    Unjudged,
}

impl Verdict {
    pub fn failed(self) -> bool {
        matches!(
            self,
            Verdict::OutOfBound | Verdict::CountDiffers | Verdict::Missing
        )
    }

    fn as_str(self) -> &'static str {
        match self {
            Verdict::Within => "within bound",
            Verdict::Identical => "identical",
            Verdict::OutOfBound => "OUT OF BOUND",
            Verdict::CountDiffers => "COUNT DIFFERS",
            Verdict::Missing => "MISSING",
            Verdict::Unjudged => "-",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub workload: String,
    pub metric: String,
    /// Medians; `NaN` for a set that has no value.
    pub a: f64,
    pub b: f64,
    /// `(b − a) / a`, signed so that positive means B is worse.
    pub worse_by: f64,
    pub bound: Option<f64>,
    pub verdict: Verdict,
}

pub fn cells(mode: Mode, a: &Set, b: &Set) -> Vec<Cell> {
    let none = BTreeMap::new();
    let mut workloads: Vec<&String> = a.keys().chain(b.keys()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut out = Vec::new();
    for workload in workloads {
        let metrics_a = a.get(workload).unwrap_or(&none);
        let metrics_b = b.get(workload).unwrap_or(&none);
        // end-to-end metrics first, in table order, then whatever else both
        // sets carry (per-layer metrics of traced runs), unjudged
        let known = END_TO_END.iter().map(|d| d.name.to_owned());
        let extra = metrics_a
            .keys()
            .filter(|k| END_TO_END.iter().all(|d| d.name != *k) && metrics_b.contains_key(*k))
            .cloned();
        for metric in known.chain(extra) {
            let def = END_TO_END.iter().find(|d| d.name == metric);
            let ma = metrics_a.get(&metric).map_or(f64::NAN, |v| median(v));
            let mb = metrics_b.get(&metric).map_or(f64::NAN, |v| median(v));
            let raw = if ma == 0.0 { 0.0 } else { (mb - ma) / ma };
            let worse_by = match def.map(|d| d.better) {
                Some(Better::Higher) => -raw,
                _ => raw,
            };
            let verdict = match (def, mode) {
                (None, _) => Verdict::Unjudged,
                (Some(_), _) if ma.is_nan() || mb.is_nan() => Verdict::Missing,
                (Some(d), Mode::SameCode) if d.judge == Judge::Counted => {
                    if ma == mb {
                        Verdict::Identical
                    } else {
                        Verdict::CountDiffers
                    }
                }
                (Some(d), Mode::SameCode) if worse_by.abs() > d.bound => Verdict::OutOfBound,
                (Some(d), Mode::Gate) if worse_by > d.bound => Verdict::OutOfBound,
                (Some(_), _) => Verdict::Within,
            };
            out.push(Cell {
                workload: workload.clone(),
                metric,
                a: ma,
                b: mb,
                worse_by,
                bound: def.map(|d| d.bound),
                verdict,
            });
        }
    }
    out
}

pub fn render(cells: &[Cell]) -> String {
    let mut out = format!(
        "{:<36} {:>16} {:>16} {:>9} {:>7}  {}\n",
        "workload/metric", "median A", "median B", "B worse", "bound", "verdict"
    );
    for c in cells {
        out.push_str(&format!(
            "{:<36} {:>16.6} {:>16.6} {:>8.2}% {:>7}  {}\n",
            format!("{}/{}", c.workload, c.metric),
            c.a,
            c.b,
            c.worse_by * 100.0,
            c.bound
                .map_or("-".to_owned(), |b| format!("{:.0}%", b * 100.0)),
            c.verdict.as_str()
        ));
    }
    out
}

/// Runs the comparison; `Ok(true)` when no cell fails.
pub fn run(mode: Mode, dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let cells = cells(mode, &load(dir_a)?, &load(dir_b)?);
    print!("{}", render(&cells));
    let judged = cells
        .iter()
        .filter(|c| c.verdict != Verdict::Unjudged)
        .count();
    let failed = cells.iter().filter(|c| c.verdict.failed()).count();
    let worst = cells
        .iter()
        .filter(|c| {
            END_TO_END
                .iter()
                .any(|d| d.name == c.metric && d.judge == Judge::Measured)
        })
        .map(|c| c.worse_by.abs())
        .filter(|w| w.is_finite())
        .fold(0.0, f64::max);
    println!(
        "{judged} judged cells, {failed} failed, largest measured difference {:.2}%",
        worst * 100.0
    );
    Ok(failed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(values: &[(&str, &[f64])]) -> Set {
        let mut metrics = BTreeMap::new();
        for (name, v) in values {
            metrics.insert((*name).to_owned(), v.to_vec());
        }
        BTreeMap::from([("read_hot".to_owned(), metrics)])
    }

    fn verdict(cells: &[Cell], metric: &str) -> Verdict {
        cells.iter().find(|c| c.metric == metric).unwrap().verdict
    }

    #[test]
    fn same_code_needs_measured_cells_within_the_bound_and_counted_cells_identical() {
        let a = set(&[
            ("get_ops_per_s", &[100.0, 102.0, 98.0]),
            ("srd_ms", &[2.0, 2.0, 2.0]),
            ("put_ops_per_s", &[100.0]),
            ("write_amp", &[3.5, 3.5]),
            ("space_amp", &[1.25]),
            ("storage.cache.hit_rate", &[0.9]),
        ]);
        let b = set(&[
            ("get_ops_per_s", &[95.0, 95.0, 95.0]), // 5 % slower: inside the bound
            ("srd_ms", &[2.8, 2.8, 2.8]),           // 40 % slower: outside
            ("put_ops_per_s", &[140.0]),            // 40 % faster: as much a disagreement
            ("write_amp", &[3.5, 3.5]),             // identical
            ("space_amp", &[1.2500001]),            // a count that moved at all
            ("storage.cache.hit_rate", &[0.1]),     // per-layer: shown, not judged
        ]);
        let cells = cells(Mode::SameCode, &a, &b);
        assert_eq!(verdict(&cells, "get_ops_per_s"), Verdict::Within);
        let get = cells.iter().find(|c| c.metric == "get_ops_per_s").unwrap();
        assert!((get.worse_by - 0.05).abs() < 1e-12);
        assert_eq!(verdict(&cells, "srd_ms"), Verdict::OutOfBound);
        assert_eq!(verdict(&cells, "put_ops_per_s"), Verdict::OutOfBound);
        assert_eq!(verdict(&cells, "write_amp"), Verdict::Identical);
        assert_eq!(verdict(&cells, "space_amp"), Verdict::CountDiffers);
        assert_eq!(verdict(&cells, "storage.cache.hit_rate"), Verdict::Unjudged);
        // what neither set reports is missing, and that fails
        assert_eq!(verdict(&cells, "reopen_s"), Verdict::Missing);
        assert!(Verdict::Missing.failed());
        let table = render(&cells);
        assert!(table.contains("read_hot/srd_ms"));
        assert!(table.contains("OUT OF BOUND"));
        assert!(table.contains("COUNT DIFFERS"));
        assert!(table.contains("MISSING"));
    }

    #[test]
    fn the_gate_fails_only_what_got_worse_and_whatever_is_missing() {
        let a = set(&[
            ("put_ops_per_s", &[100.0]),
            ("srd_ms", &[2.0]),
            ("write_amp", &[3.5]),
            ("space_amp", &[1.25]),
            ("setup_s", &[1.0]),
        ]);
        let b = set(&[
            ("put_ops_per_s", &[140.0]), // faster: an improvement passes
            ("srd_ms", &[2.8]),          // slower beyond the bound
            ("write_amp", &[3.0]),       // a count that improved
            ("space_amp", &[1.4]),       // a count 12 % worse
        ]);
        let cells = cells(Mode::Gate, &a, &b);
        assert_eq!(verdict(&cells, "put_ops_per_s"), Verdict::Within);
        assert_eq!(verdict(&cells, "srd_ms"), Verdict::OutOfBound);
        assert_eq!(verdict(&cells, "write_amp"), Verdict::Within);
        assert_eq!(verdict(&cells, "space_amp"), Verdict::OutOfBound);
        assert_eq!(verdict(&cells, "setup_s"), Verdict::Missing);

        // a workload only one set has fails cell by cell
        let other = BTreeMap::from([(
            "read_spill".to_owned(),
            BTreeMap::from([("setup_s".to_owned(), vec![1.0])]),
        )]);
        let cells = super::cells(Mode::Gate, &a, &other);
        assert!(cells
            .iter()
            .filter(|c| c.bound.is_some())
            .all(|c| c.verdict == Verdict::Missing));
        assert_eq!(cells.iter().filter(|c| c.workload == "read_spill").count(), 12);
    }
}
