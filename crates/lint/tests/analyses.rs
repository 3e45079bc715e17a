//! Fixture tests for the workspace-level `lock-order` analysis, plus the
//! lexer's masking regression fixtures and the `stale-allow` cross-check.
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

#[test]
fn allow_marker_suppresses_a_workspace_finding() {
    let src = fixture("lock-order", "fail.rs");
    let line = nth_line_of(&src, "let _engine = self.engine.lock();", 0);
    let marked: String = src
        .lines()
        .enumerate()
        .map(|(i, l)| {
            let marker = if i + 1 == line { "// lint:allow(lock-order): fixture\n" } else { "" };
            format!("{marker}{l}\n")
        })
        .collect();
    let before = workspace_rule("crates/core/src/fixture.rs", "lock-order", &src);
    let after = workspace_rule("crates/core/src/fixture.rs", "lock-order", &marked);
    assert_eq!(after.len(), before.len() - 1, "reasoned allow must suppress: {after:#?}");
    assert!(after.iter().all(|f| !f.message.contains("via `engine`")), "{after:#?}");
}

// ------------------------------------------------------------------- masking

#[test]
fn masking_fail_fixture_fires_after_raw_strings_and_nested_comments() {
    let src = fixture("masking", "fail.rs");
    let findings = lethe_lint::check_file("crates/storage/src/fixture.rs", &src);
    let panics: Vec<_> = findings.iter().filter(|f| f.rule == "no-panic").collect();
    assert_eq!(panics.len(), 2, "{findings:#?}");
    assert!(panics.iter().any(|f| f.line == nth_line_of(&src, "text.parse().unwrap()", 0)));
    assert!(panics.iter().any(|f| f.line == nth_line_of(&src, "text.parse().expect(", 0)));
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
    // `durability-order` and `leak-paths` were rules once: their markers
    // now suppress nothing and are flagged like any unknown rule
    let src = "// lint:allow(lock-order): known rule, fine\n\
               // lint:allow(raw-drop-page): known rule, fine\n\
               // lint:allow(leak-paths): a deleted rule\n\
               // lint:allow(made-up-rule): suppresses nothing\n\
               pub fn f() {}\n";
    let findings = lethe_lint::check_file("crates/core/src/x.rs", src);
    let stale: Vec<_> = findings.iter().filter(|f| f.rule == "stale-allow").collect();
    assert_eq!(stale.len(), 2, "{findings:#?}");
    assert_eq!((stale[0].line, stale[1].line), (3, 4));
    assert!(stale[1].message.contains("made-up-rule"), "{}", stale[1]);
}

// -------------------------------------------------------------------- output

#[test]
fn json_output_is_well_formed_and_escaped() {
    let src = fixture("masking", "fail.rs");
    let findings = lethe_lint::check_file("crates/storage/src/fixture.rs", &src);
    let json = lethe_lint::to_json(&findings);
    assert!(json.starts_with("{\"count\":2,"), "{json}");
    assert!(json.contains("\"rule\":\"no-panic\""), "{json}");
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
