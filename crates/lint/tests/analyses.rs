//! Fixture tests for the `lock-order` analysis, plus the lexer's masking
//! regression fixtures and the check that the real tree is clean.
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

// ------------------------------------------------------------------- masking

#[test]
fn masking_fail_fixture_finds_the_inversions_after_raw_strings_and_nested_comments() {
    let src = fixture("masking", "fail.rs");
    let findings = workspace_rule("crates/core/src/fixture.rs", "lock-order", &src);
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    let real = "let _worker = self.worker_state.lock();";
    assert_eq!(lines, [nth_line_of(&src, real, 0), nth_line_of(&src, real, 1)], "{findings:#?}");
}

#[test]
fn masking_pass_fixture_is_clean() {
    let src = fixture("masking", "pass.rs");
    let findings =
        lethe_lint::check_workspace(&[("crates/core/src/fixture.rs".to_string(), src)]);
    assert!(findings.is_empty(), "{findings:#?}");
}

// ----------------------------------------------------------------- real tree

#[test]
fn the_real_tree_is_clean() {
    // the analysis must hold on the workspace that ships it (CI runs the
    // binary; this keeps `cargo test -p lethe-lint` self-contained)
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = lethe_lint::run(&root);
    assert!(findings.is_empty(), "lethe-lint found violations in the tree:\n{findings:#?}");
}
