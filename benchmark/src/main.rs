//! `lethe-benchmark`: a deterministic four-workload performance ledger for
//! the Lethe engine. See `benchmark/README.md`.
//!
//! ```text
//! lethe-benchmark --workload <name> --seed <u64> [--passes 5] [--trace [0|1]]
//!                 [--dir <path>] [--out <file>] [--seconds <ignored>]
//! lethe-benchmark compare [--same-code] <setA-dir> <setB-dir>
//! lethe-benchmark layers
//! ```

mod compare;
mod estimate;
mod exec;
mod json;
mod metrics;
mod plan;
mod probes;
mod trace;
mod twin;

use exec::{OpenStore, PassResult, TempDir};
use json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: lethe-benchmark --workload <ingest_fade|read_spill|read_hot|purge_window> --seed <u64> \
[--passes 5] [--trace [0|1]] [--dir <path>] [--out <file>] [--seconds <ignored>]\n       \
lethe-benchmark compare [--same-code] <setA-dir> <setB-dir>\n       \
lethe-benchmark layers";

/// Identical passes per run. Every timing is a minimum over this many
/// samples, so the number is part of the estimator and never depends on how
/// fast the machine is.
const PASSES: usize = 5;

/// Size of `/dev/shm`, and free memory, below which the store goes to disk
/// instead (2 GiB, in kB): one pass leaves up to ~0.3 GB of page file behind
/// until its directory is removed.
const TMPFS_MIN_KB: u64 = 2 << 20;

struct Args {
    workload: String,
    seed: u64,
    passes: usize,
    trace: bool,
    dir: Option<PathBuf>,
    out: Option<PathBuf>,
    /// Size multiplier; only the tests run below full size.
    scale: f64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        passes: PASSES,
        trace: false,
        dir: None,
        out: None,
        scale: 1.0,
    };
    let mut seed_given = false;
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut value = |what: &str| -> Result<&String, String> {
            i += 1;
            argv.get(i).ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag {
            "--workload" => args.workload = value("a workload name")?.clone(),
            "--seed" => {
                let v = value("a number")?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: `{v}` is not a u64"))?;
                seed_given = true;
            }
            // the driver passes its time budget; a run does a fixed amount
            // of work in a fixed number of passes, so the value is not used
            "--seconds" => {
                value("a number")?;
            }
            "--passes" => {
                let v = value("a number")?;
                args.passes = v
                    .parse()
                    .ok()
                    .filter(|p| *p >= 1)
                    .ok_or_else(|| format!("--passes: `{v}` is not a positive integer"))?;
            }
            "--trace" => {
                // `--trace`, `--trace 1` and `--trace 0` are all accepted
                args.trace = match argv.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--dir" => args.dir = Some(PathBuf::from(value("a path")?)),
            "--out" => args.out = Some(PathBuf::from(value("a path")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !seed_given {
        return Err("--seed is required".into());
    }
    Ok(args)
}

/// Where stores may go when `--dir` does not say, best first: `/dev/shm`
/// when it is a tmpfs and the machine has memory to spare (the journal and
/// writeback of a disk file system were the largest source of noise), then
/// the build directory (`CARGO_TARGET_DIR`, or this package's `target/`),
/// which `.gitignore` covers. The first one a directory can be made in wins.
fn default_store_roots() -> Vec<PathBuf> {
    let mut roots = Vec::new();
    let shm = Path::new("/dev/shm");
    let available_kb = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("MemAvailable:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .unwrap_or(0);
    // a container's default /dev/shm is `size=65536k`; no option, no limit
    let (fs_type, options) = mount_of(shm);
    let size_kb = options
        .split(',')
        .find_map(|o| o.strip_prefix("size="))
        .and_then(|v| v.trim_end_matches('k').parse::<u64>().ok());
    if fs_type == "tmpfs"
        && available_kb >= TMPFS_MIN_KB
        && size_kb.map_or(true, |kb| kb >= TMPFS_MIN_KB)
    {
        roots.push(shm.to_path_buf());
    }
    roots.push(match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => Path::new(env!("CARGO_MANIFEST_DIR")).join("target"),
    });
    for root in &mut roots {
        root.push("lethe-benchmark-store");
    }
    roots
}

/// File-system type and super-block options of the mount `dir` lives on:
/// the longest mount point in `/proc/self/mountinfo` that prefixes `dir`.
fn mount_of(dir: &Path) -> (String, String) {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best = (0, "", "");
    for line in mounts.lines() {
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let mut right = right.split(' ');
        let (Some(mount_point), Some(fs_type)) = (left.split(' ').nth(4), right.next()) else {
            continue;
        };
        if dir.starts_with(mount_point) && mount_point.len() >= best.0 {
            best = (mount_point.len(), fs_type, right.nth(1).unwrap_or(""));
        }
    }
    (best.1.to_owned(), best.2.to_owned())
}

/// `tmpfs` when `dir` lives on a memory file system, else `disk`.
fn store_fs(dir: &Path) -> &'static str {
    if matches!(mount_of(dir).0.as_str(), "tmpfs" | "ramfs") {
        "tmpfs"
    } else {
        "disk"
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Prints every metric by name with its unit; `note(i)` says what metric
/// `i` measures (end to end) or which end-to-end metric it should move.
fn print_values(
    title: &str,
    values: &metrics::Values,
    note: impl Fn(usize) -> (metrics::Better, &'static str),
) {
    println!("{title}");
    for (i, (name, value, unit)) in values.iter().enumerate() {
        let (better, note) = note(i);
        println!(
            "  {name:<42} {value:>18.6} {unit:<6} {:<6} {note}",
            better.as_str()
        );
    }
}

fn values_json(values: &metrics::Values) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|(name, value, unit)| {
                (
                    (*name).to_owned(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(*value)),
                        ("unit".into(), Json::Str((*unit).into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// What a run found; the last line of output is this, as JSON.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// The metrics of the result line (read back by the tests).
    #[cfg_attr(not(test), allow(dead_code))]
    values: metrics::Values,
}

/// Per kind of timed block: how many are counted, the sum of their minima
/// and the shortest of them. A cell under 0.1 s, or a block under 10 ms, is
/// too small to time steadily.
fn print_cells(plan: &plan::Plan, min: &[f64]) {
    println!("timing cells (counted blocks, minimum over passes):");
    for kind in [
        plan::BlockKind::Setup,
        plan::BlockKind::Put,
        plan::BlockKind::Get,
        plan::BlockKind::Scan,
        plan::BlockKind::Srd,
        plan::BlockKind::Reopen,
    ] {
        let blocks: Vec<f64> = plan
            .blocks
            .iter()
            .zip(min)
            .filter(|(b, _)| b.kind == kind && b.counted)
            .map(|(_, secs)| *secs)
            .collect();
        println!(
            "  {:<7} {:>3} blocks {:>9.4} s in all {:>9.3} ms the shortest",
            kind.name(),
            blocks.len(),
            blocks.iter().sum::<f64>(),
            blocks.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
        );
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let def = plan::workload(&args.workload)
        .ok_or_else(|| format!("unknown workload `{}`\n{USAGE}", args.workload))?
        .scaled(args.scale);
    let roots = match &args.dir {
        Some(dir) => vec![dir.clone()],
        None => default_store_roots(),
    };
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    let run_dir = format!("run-{}-{nanos}", std::process::id());
    // removed when `base` drops: on return, on `?`, and when a panic unwinds
    let base = roots
        .iter()
        .find_map(|root| TempDir::create(root.join(&run_dir)).ok())
        .ok_or_else(|| format!("cannot create a store directory under any of {roots:?}"))?;
    // a default root was made by this run, or by one running beside it
    let base = if args.dir.is_none() {
        base.and_parent_if_empty()
    } else {
        base
    };
    println!(
        "lethe-benchmark workload={} seed={} passes={} trace={} scale={} store={} store_fs={} cpus={}",
        def.name,
        args.seed,
        args.passes,
        u8::from(args.trace),
        args.scale,
        base.path().display(),
        store_fs(base.path()),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    let plan = plan::build(&def, args.seed);
    println!(
        "plan: {} blocks, {} ops per pass, generated in {:.3} s",
        plan.blocks.len(),
        plan.generated_ops(),
        plan.generate_secs
    );

    // the identical passes
    let mut untraced_tracer = trace::Tracer::new();
    let mut passes: Vec<PassResult> = Vec::new();
    let mut last: Option<OpenStore> = None;
    for n in 0..args.passes {
        // the previous pass's store goes before the next one is built
        drop(last.take());
        let (result, store) =
            exec::run_pass::<false>(&plan, base.path(), n, &mut untraced_tracer)?;
        println!(
            "pass {}: {:.3} s in timed blocks, failed {}",
            n + 1,
            result.slices.iter().sum::<f64>(),
            result.failed
        );
        passes.push(result);
        last = Some(store);
    }
    let last = last.expect("at least one pass ran");
    // not a metric: when the passes of one run disagree this much, the
    // machine's speed moved while it ran, and no estimator inside the run
    // sees what it was before or after
    let totals: Vec<f64> = passes.iter().map(|p| p.slices.iter().sum()).collect();
    let fastest = totals.iter().copied().fold(f64::INFINITY, f64::min);
    let slowest = totals.iter().copied().fold(0.0, f64::max);
    println!(
        "host steadiness: slowest pass {:.1} % above the fastest",
        (slowest / fastest - 1.0) * 100.0
    );
    let first = &passes[0];
    let fingerprint = first.fingerprint();
    let repeatable = passes.iter().all(|p| p.fingerprint() == fingerprint);
    if !repeatable {
        println!("INCORRECT: the counted fingerprint differs between passes");
    }
    let min = first.block_times(&estimate::blockwise_min(
        passes.iter().map(|p| p.slices.as_slice()),
    ));
    let mut attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let mut failed: u64 = passes.iter().map(|p| p.failed).sum();

    // memory first: the audit below materialises the whole tree, which is
    // the harness's footprint, not the engine's
    let rss = peak_rss_mb();
    let content = last
        .db
        .snapshot_contents()
        .map_err(|e| format!("content audit failed: {e}"))?;
    drop(last);
    attempted += 1;
    if content.unique_entries != plan.live_at_end {
        println!(
            "INCORRECT: the store holds {} live keys, the model {}",
            content.unique_entries, plan.live_at_end
        );
        failed += 1;
    }
    print_cells(&plan, &min);
    let mut values = metrics::end_to_end(&plan, first, &min, &content, rss);
    print_values(
        &format!(
            "end-to-end metrics (minimum of {} passes per timed slice):",
            passes.len()
        ),
        &values,
        |i| (metrics::END_TO_END[i].better, metrics::END_TO_END[i].what),
    );

    if args.trace {
        let mut tracer = trace::Tracer::new();
        let (traced_result, store) =
            exec::run_pass::<true>(&plan, base.path(), passes.len(), &mut tracer)?;
        let counts_match = traced_result.fingerprint() == fingerprint;
        let tree = store.db.tree();
        let (metadata_bytes, disk_entries) = (tree.metadata_footprint(), tree.disk_entries());
        drop(store);
        attempted += traced_result.attempted;
        failed += traced_result.failed;

        let probe_dir = TempDir::create(base.path().join("probes")).map_err(|e| e.to_string())?;
        let probes = probes::run(&def, probe_dir.path(), args.seed)?;
        drop(probe_dir);
        let twin = twin::run(&plan, base.path())?;
        attempted += twin.attempted;
        failed += twin.failed;

        let phases = trace::phase_totals(tracer.spans());
        println!("traced pass: {} spans", tracer.spans().len());
        print!("{}", trace::render_table(&phases));
        if let Some(out) = &args.out {
            let spans_path = out.with_extension("spans.jsonl");
            std::fs::write(&spans_path, trace::render_jsonl(tracer.spans()))
                .map_err(|e| format!("{}: {e}", spans_path.display()))?;
        }
        // the result of a traced run is the per-layer metrics
        values = metrics::per_layer(
            &plan,
            first,
            &min,
            &metrics::Traced {
                pass: &traced_result,
                phases: &phases,
                spans: tracer.spans().len(),
                probes: &probes,
                twin: &twin,
                counts_match,
                metadata_bytes,
                disk_entries,
            },
        );
        print_values(
            "per-layer metrics (traced pass, probes, sharded twin) -> what each should move:",
            &values,
            |i| (metrics::PER_LAYER[i].better, metrics::PER_LAYER[i].moves),
        );
    }

    let correct = failed == 0 && repeatable;
    let result = vec![
        ("correct".to_owned(), Json::Bool(correct)),
        ("attempted".to_owned(), Json::Num(attempted as f64)),
        ("failed".to_owned(), Json::Num(failed as f64)),
        ("metrics".to_owned(), values_json(&values)),
    ];
    if let Some(out) = &args.out {
        let mut doc = vec![
            ("workload".to_owned(), Json::Str(def.name.to_owned())),
            ("seed".to_owned(), Json::Num(args.seed as f64)),
            ("passes".to_owned(), Json::Num(passes.len() as f64)),
            ("trace".to_owned(), Json::Bool(args.trace)),
        ];
        doc.extend(result.iter().cloned());
        // a ledger record states no gain; an issue that claims one cites
        // `<workload>/<metric>` from two sets of these files
        doc.push(("claim".to_owned(), Json::Null));
        std::fs::write(out, Json::Obj(doc).render() + "\n")
            .map_err(|e| format!("{}: {e}", out.display()))?;
    }
    drop(base);
    println!("{}", Json::Obj(result).render());
    Ok(Outcome {
        correct,
        attempted,
        failed,
        values,
    })
}

/// The per-layer table as JSON: `BENCHMARK.json` may name only a metric's
/// unit and direction, so which end-to-end metric each layer metric should
/// move is served from here.
fn layers_json() -> Json {
    Json::Arr(
        metrics::PER_LAYER
            .iter()
            .map(|m| {
                Json::Obj(vec![
                    ("name".to_owned(), Json::Str(m.name.to_owned())),
                    ("unit".to_owned(), Json::Str(m.unit.to_owned())),
                    ("better".to_owned(), Json::Str(m.better.as_str().to_owned())),
                    ("moves".to_owned(), Json::Str(m.moves.to_owned())),
                ])
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["layers"] {
        println!("{}", layers_json().render());
        return ExitCode::SUCCESS;
    }
    if argv.first().map(String::as_str) == Some("compare") {
        let (mode, a, b) = match &argv[1..] {
            [flag, a, b] if flag == "--same-code" => (compare::Mode::SameCode, a, b),
            [a, b] => (compare::Mode::Gate, a, b),
            _ => {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        };
        return match compare::run(mode, Path::new(a), Path::new(b)) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("lethe-benchmark compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lethe-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        // an incorrect run still printed its result line; the exit code is
        // for failures to run at all
        Ok(outcome) => {
            if !outcome.correct {
                eprintln!(
                    "lethe-benchmark: INCORRECT run: {} of {} operations failed, or the passes disagreed",
                    outcome.failed, outcome.attempted
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lethe-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> Outcome {
        let args = Args {
            workload: workload.to_owned(),
            seed: 11,
            passes: 2,
            trace,
            dir: None,
            out: None,
            scale: 0.05,
        };
        run(&args).expect("the run completes")
    }

    /// Two passes of each workload at 1/20 size: every block's results match
    /// the model, the sweep after the restart finds every acknowledged
    /// write, and both passes count exactly the same things.
    #[test]
    fn every_workload_is_correct_and_repeatable_at_small_scale() {
        for def in &plan::WORKLOADS {
            let outcome = smoke(def.name, false);
            assert!(outcome.correct, "{}: incorrect", def.name);
            assert_eq!(outcome.failed, 0, "{}", def.name);
            assert!(outcome.attempted > 10_000, "{}", def.name);
            let names: Vec<&str> = outcome.values.iter().map(|v| v.0).collect();
            let expected: Vec<&str> = metrics::END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, expected);
            for (name, value, _) in &outcome.values {
                assert!(
                    value.is_finite() && *value > 0.0,
                    "{}/{name} = {value}",
                    def.name
                );
            }
        }
    }

    /// The traced run prints every per-layer metric, and driving maintenance
    /// from the harness changes no count.
    #[test]
    fn traced_run_reports_every_layer_and_counts_what_the_untraced_passes_did() {
        for workload in ["ingest_fade", "purge_window"] {
            let outcome = smoke(workload, true);
            assert!(outcome.correct, "{workload}: incorrect");
            let names: Vec<&str> = outcome.values.iter().map(|v| v.0).collect();
            let expected: Vec<&str> = metrics::PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(names, expected);
            let value = |name: &str| outcome.values.iter().find(|v| v.0 == name).unwrap().1;
            assert!(
                outcome.values.iter().all(|v| v.1.is_finite()),
                "{workload}: non-finite metric"
            );
            assert_eq!(value("trace.counts_match"), 1.0, "{workload}");
            assert!(value("trace.spans") > 1_000.0);
            assert!(value("lsm.tree.flushes") > 0.0);
            assert!(value("core.engine.get_samples") > 0.0);
        }
        let purge = smoke("purge_window", true);
        let drops = purge
            .values
            .iter()
            .find(|v| v.0 == "core.kiwi.full_page_drops")
            .unwrap()
            .1;
        assert!(drops > 0.0, "purge_window dropped no page whole");
    }

    #[test]
    fn arguments_follow_the_driver_contract() {
        let argv = |s: &str| s.split(' ').map(str::to_owned).collect::<Vec<_>>();
        // the driver's time budget is accepted and changes nothing
        let a = parse_args(&argv("--workload read_hot --seed 7 --seconds 18 --trace 0")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.passes, a.trace),
            ("read_hot", 7, PASSES, false)
        );
        assert!(
            parse_args(&argv("--workload read_hot --seed 7 --seconds 18 --trace 1"))
                .unwrap()
                .trace
        );
        let b = parse_args(&argv("--workload read_hot --seed 7 --trace --passes 3")).unwrap();
        assert!(b.trace);
        assert_eq!(b.passes, 3);
        for bad in [
            "--seed 7",
            "--workload read_hot",
            "--workload read_hot --seed x",
            "--workload read_hot --seed 1 --seconds",
            "--workload read_hot --seed 1 --passes 0",
            "--workload read_hot --seed 1 --frobnicate",
            "--workload read_hot --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn store_directory_is_removed_when_a_pass_panics() {
        let root = default_store_roots().pop().expect("the build directory");
        let path = root.join(format!("panic-test-{}", std::process::id()));
        let probe = path.clone();
        let unwound = std::panic::catch_unwind(move || {
            let dir = TempDir::create(path).unwrap();
            std::fs::write(dir.path().join("lethe.data"), b"pages").unwrap();
            panic!("a pass went wrong");
        });
        assert!(unwound.is_err());
        assert!(!probe.exists(), "{} survived the panic", probe.display());
    }
}
