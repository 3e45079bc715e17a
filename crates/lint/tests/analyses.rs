//! Fixture tests for the workspace-level analyses introduced by lint v2:
//! `lock-order`, `durability-order`, `leak-paths`, plus the lexer's
//! masking regression fixtures and the `stale-allow` cross-check.
//!
//! Each fail fixture seeds an exact number of violations; the tests
//! assert the analysis finds *every* seeded site and nothing on the
//! matching pass fixture.

use std::fs;
use std::path::PathBuf;

fn fixture(rule: &str, which: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(rule)
        .join(which);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Runs the workspace analyses over a single virtual file and keeps
/// only the findings for `rule`.
fn workspace_rule(virtual_path: &str, rule: &str, src: &str) -> Vec<lethe_lint::Finding> {
    lethe_lint::check_workspace(&[(virtual_path.to_string(), src.to_string())])
        .into_iter()
        .filter(|f| f.rule == rule)
        .collect()
}

/// 1-based line of the `n`-th occurrence (0-based `n`) of `needle`.
fn nth_line_of(src: &str, needle: &str, n: usize) -> usize {
    src.lines()
        .enumerate()
        .filter(|(_, l)| l.contains(needle))
        .map(|(i, _)| i + 1)
        .nth(n)
        .unwrap_or_else(|| panic!("occurrence {n} of {needle:?} not found"))
}

// ---------------------------------------------------------------- lock-order

#[test]
fn lock_order_fail_fixture_reports_each_seeded_inversion() {
    let src = fixture("lock-order", "fail.rs");
    let findings = workspace_rule("crates/core/src/fixture.rs", "lock-order", &src);
    assert_eq!(
        findings.len(),
        3,
        "expected the three transplanted inversions, got: {findings:#?}"
    );

    // 1. direct inversion: engine acquired while the queue state is held
    let direct = findings
        .iter()
        .find(|f| f.line == nth_line_of(&src, "let _engine = self.engine.lock();", 0))
        .expect("direct engine-under-queue-state inversion");
    assert!(direct.message.contains("lock-order inversion"), "{direct}");
    assert!(direct.message.contains("Engine"), "{direct}");
    assert!(direct.message.contains("CommitQueueState"), "{direct}");

    // 2. inversion one call deep, visible only through the call graph
    let through_call = findings
        .iter()
        .find(|f| f.message.contains("inside the call to"))
        .expect("worker-state-under-engine inversion through wake_worker()");
    assert!(through_call.message.contains("wake_worker"), "{through_call}");
    assert!(through_call.message.contains("WorkerState"), "{through_call}");

    // 3. the `with_shard` tail-temporary hazard (the PR 7 deadlock class):
    // PauseGuard's Drop locks the worker state while the tail expression's
    // engine guard is still alive
    let tail_temp = findings
        .iter()
        .find(|f| f.message.contains("Drop for PauseGuard"))
        .expect("with_shard tail-temporary hazard");
    assert!(
        tail_temp.message.contains("tail-expression temporaries"),
        "{tail_temp}"
    );
}

#[test]
fn lock_order_pass_fixture_is_clean() {
    let src = fixture("lock-order", "pass.rs");
    let findings =
        lethe_lint::check_workspace(&[("crates/core/src/fixture.rs".to_string(), src)]);
    assert!(findings.is_empty(), "pass fixture must be clean: {findings:#?}");
}

// ----------------------------------------------------------- durability-order

#[test]
fn durability_order_fail_fixture_reports_each_seeded_violation() {
    let src = fixture("durability-order", "fail.rs");
    let findings = workspace_rule("crates/storage/src/fixture.rs", "durability-order", &src);
    assert_eq!(
        findings.len(),
        5,
        "expected the five seeded protocol violations, got: {findings:#?}"
    );

    let with = |needle: &str| findings.iter().filter(|f| f.message.contains(needle)).count();
    assert_eq!(with("without a dominating counted barrier"), 1);
    assert_eq!(with("no directory fsync afterwards"), 1);
    assert_eq!(with("truncate_prefix without a dominating manifest-edit"), 2);
    assert_eq!(with("is not adjacent to the durable"), 1);

    // the unbarriered rename is the first rename in the file; the branchy
    // commit case is the second truncate
    let rename_line = nth_line_of(&src, "std::fs::rename(tmp, dst)?;", 0);
    assert!(findings.iter().any(|f| f.line == rename_line));
    let branchy_truncate = nth_line_of(&src, "self.wal.truncate_prefix(upto)?;", 1);
    assert!(findings.iter().any(|f| f.line == branchy_truncate));
}

#[test]
fn durability_order_pass_fixture_is_clean() {
    let src = fixture("durability-order", "pass.rs");
    let findings =
        lethe_lint::check_workspace(&[("crates/storage/src/fixture.rs".to_string(), src)]);
    assert!(findings.is_empty(), "pass fixture must be clean: {findings:#?}");
}

// ---------------------------------------------------------------- leak-paths

#[test]
fn leak_paths_fail_fixture_reports_each_seeded_leak() {
    let src = fixture("leak-paths", "fail.rs");
    let findings = workspace_rule("crates/lsm/src/fixture.rs", "leak-paths", &src);
    assert_eq!(
        findings.len(),
        4,
        "expected the four seeded leaks, got: {findings:#?}"
    );

    let with = |needle: &str| findings.iter().filter(|f| f.message.contains(needle)).count();
    assert_eq!(with("page id can leak on an error path"), 1);
    assert_eq!(with("never reaches its"), 1);
    assert_eq!(with("error path abandons a staged batch id"), 1);
    assert_eq!(with("job output can leak"), 1);

    let write_line = nth_line_of(&src, "backend.write_page", 0);
    assert!(findings.iter().any(|f| f.line == write_line));
}

#[test]
fn leak_paths_pass_fixture_is_clean() {
    let src = fixture("leak-paths", "pass.rs");
    let findings =
        lethe_lint::check_workspace(&[("crates/lsm/src/fixture.rs".to_string(), src)]);
    assert!(findings.is_empty(), "pass fixture must be clean: {findings:#?}");
}

// ------------------------------------------- the real job cycle (jobs.rs)

/// `crates/lsm/src/jobs.rs` as checked in, with `from` replaced by `to`
/// (exactly one occurrence) to seed a protocol violation into `apply_job`.
fn jobs_rs_with(from: &str, to: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../lsm/src/jobs.rs");
    let src = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    assert_eq!(src.matches(from).count(), 1, "jobs.rs no longer has exactly one {from:?}");
    src.replace(from, to)
}

const JOBS_RS: &str = "crates/lsm/src/jobs.rs";

#[test]
fn jobs_rs_is_clean_and_a_truncate_before_the_commit_is_flagged() {
    let commit = "self.commit_version(levels, &new_tables, inputs, placement.is_none())?;";
    assert!(lethe_lint::check_workspace(&[(JOBS_RS.to_string(), jobs_rs_with(commit, commit))])
        .is_empty());
    let seeded = jobs_rs_with(
        commit,
        &format!("if let Some(wal) = &self.wal {{ wal.truncate_prefix(0)?; }}\n        {commit}"),
    );
    let findings = workspace_rule(JOBS_RS, "durability-order", &seeded);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert!(findings[0].message.contains("truncate_prefix without a dominating manifest-edit"));
    assert_eq!(findings[0].line, nth_line_of(&seeded, "wal.truncate_prefix(0)", 0));
}

#[test]
fn jobs_rs_refusal_that_skips_abort_output_is_flagged() {
    let refusal = "            return Ok(false);";
    let seeded = jobs_rs_with(&format!("            self.abort_output(out);\n{refusal}"), refusal);
    let findings = workspace_rule(JOBS_RS, "leak-paths", &seeded);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert!(findings[0].message.contains("job output can leak"));
}

#[test]
fn allow_marker_suppresses_a_workspace_finding() {
    // the 2PC stage site in shard.rs uses exactly this shape: recovery
    // rolls aborted ids back, so the stage-never-commits finding is
    // acknowledged with a reasoned marker directly above the call
    let src = "type Result<T> = std::io::Result<T>;\n\
               pub struct Tree;\n\
               pub fn stage_only(tree: &mut Tree, slice: &[u8], id: u64) -> Result<()> {\n\
                   // lint:allow(leak-paths): recovery rolls aborted ids back\n\
                   tree.stage_batch(slice, Some(id))?;\n\
                   Ok(())\n\
               }\n";
    let findings =
        lethe_lint::check_workspace(&[("crates/lsm/src/fixture.rs".to_string(), src.to_string())]);
    assert!(findings.is_empty(), "reasoned allow must suppress: {findings:#?}");

    // without the marker the same code is a violation
    let bare = src.replace("// lint:allow(leak-paths): recovery rolls aborted ids back\n", "");
    let findings =
        lethe_lint::check_workspace(&[("crates/lsm/src/fixture.rs".to_string(), bare)]);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, "leak-paths");
}

// ------------------------------------------------------------------- masking

#[test]
fn masking_fail_fixture_fires_after_raw_strings_and_nested_comments() {
    let src = fixture("masking", "fail.rs");
    let findings = lethe_lint::check_file("crates/storage/src/fixture.rs", &src);
    let barrier: Vec<_> = findings.iter().filter(|f| f.rule == "uncounted-barrier").collect();
    assert_eq!(barrier.len(), 2, "{findings:#?}");
    assert!(barrier.iter().any(|f| f.line == nth_line_of(&src, "file.sync_all()?", 0)));
    assert!(barrier.iter().any(|f| f.line == nth_line_of(&src, "file.sync_data()?", 0)));
}

#[test]
fn masking_pass_fixture_is_clean_under_every_rule() {
    let src = fixture("masking", "pass.rs");
    for root in ["crates/storage/src/fixture.rs", "crates/lsm/src/fixture.rs"] {
        let findings = lethe_lint::check_file(root, &src);
        assert!(findings.is_empty(), "{root}: {findings:#?}");
        let findings = lethe_lint::check_workspace(&[(root.to_string(), src.clone())]);
        assert!(findings.is_empty(), "{root}: {findings:#?}");
    }
}

// --------------------------------------------------------------- stale-allow

#[test]
fn stale_allow_flags_markers_for_unknown_rules_only() {
    let src = "// lint:allow(lock-order): known rule, fine\n\
               // lint:allow(durability-order): known rule, fine\n\
               // lint:allow(leak-paths): known rule, fine\n\
               // lint:allow(made-up-rule): suppresses nothing\n\
               pub fn f() {}\n";
    let findings = lethe_lint::check_file("crates/core/src/x.rs", src);
    let stale: Vec<_> = findings.iter().filter(|f| f.rule == "stale-allow").collect();
    assert_eq!(stale.len(), 1, "{findings:#?}");
    assert_eq!(stale[0].line, 4);
    assert!(stale[0].message.contains("made-up-rule"), "{}", stale[0]);
}

// -------------------------------------------------------------------- output

#[test]
fn json_output_is_well_formed_and_escaped() {
    let src = fixture("masking", "fail.rs");
    let findings = lethe_lint::check_file("crates/storage/src/fixture.rs", &src);
    let json = lethe_lint::to_json(&findings);
    assert!(json.starts_with("{\"count\":2,"), "{json}");
    assert!(json.contains("\"rule\":\"uncounted-barrier\""), "{json}");
    assert!(json.contains("\"file\":\"crates/storage/src/fixture.rs\""), "{json}");
    assert!(json.ends_with("]}"), "{json}");

    let quoted = vec![lethe_lint::Finding {
        rule: "no-panic",
        file: "a.rs".to_string(),
        line: 1,
        message: "contains \"quotes\" and a \\ backslash".to_string(),
    }];
    let json = lethe_lint::to_json(&quoted);
    assert!(
        json.contains("contains \\\"quotes\\\" and a \\\\ backslash"),
        "{json}"
    );
}
