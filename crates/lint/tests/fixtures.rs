//! Fixture corpus for every lint rule: each `fixtures/<rule>/fail.rs` must
//! produce at least one finding of exactly that rule, and each
//! `fixtures/<rule>/pass.rs` must produce none. The fixtures double as
//! documentation of what each rule accepts and rejects.

use lethe_lint::{check_file, check_kill_points, parse_registry, rule_unsafe_hygiene, Finding};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn fixture(rule: &str, which: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("fixtures/{rule}/{which}.rs"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path:?}: {e}"))
}

/// Virtual workspace-relative path placing a fixture under the crate the
/// rule targets.
fn virtual_path(rule: &str) -> &'static str {
    match rule {
        "raw-drop-page" => "crates/lsm/src/fixture.rs",
        "no-panic" => "crates/storage/src/fixture.rs",
        other => panic!("no virtual path for rule {other}"),
    }
}

fn run_rule(rule: &str, which: &str) -> Vec<Finding> {
    check_file(virtual_path(rule), &fixture(rule, which))
        .into_iter()
        .filter(|f| f.rule == rule)
        .collect()
}

#[test]
fn every_code_rule_fails_its_fail_fixture_and_passes_its_pass_fixture() {
    for rule in ["raw-drop-page", "no-panic"] {
        let failures = run_rule(rule, "fail");
        assert!(!failures.is_empty(), "{rule}: fail fixture produced no findings");
        let passes = run_rule(rule, "pass");
        assert!(passes.is_empty(), "{rule}: pass fixture flagged: {passes:?}");
    }
}

#[test]
fn fail_fixtures_report_each_violation_site() {
    assert_eq!(run_rule("raw-drop-page", "fail").len(), 2, "drop_page and write_page");
    assert_eq!(run_rule("no-panic", "fail").len(), 3, "unwrap, expect, unimplemented");
}

#[test]
fn unsafe_hygiene_checks_crate_roots_only() {
    let fail = fixture("unsafe-hygiene", "fail");
    let pass = fixture("unsafe-hygiene", "pass");
    assert!(rule_unsafe_hygiene("crates/storage/src/lib.rs", &fail).is_some());
    assert!(rule_unsafe_hygiene("crates/lint/src/main.rs", &fail).is_some());
    assert!(rule_unsafe_hygiene("src/lib.rs", &fail).is_some());
    assert!(rule_unsafe_hygiene("crates/storage/src/lib.rs", &pass).is_none());
    // a non-root module never needs the attribute
    assert!(rule_unsafe_hygiene("crates/storage/src/wal.rs", &fail).is_none());
}

#[test]
fn drop_page_choke_point_files_are_exempt() {
    let fail = fixture("raw-drop-page", "fail");
    assert!(check_file("crates/lsm/src/reclaim.rs", &fail)
        .iter()
        .all(|f| f.rule != "raw-drop-page"));
    assert!(check_file("crates/storage/src/cache.rs", &fail)
        .iter()
        .all(|f| f.rule != "raw-drop-page"));
    // outside lethe-lsm a page write is the device's own business
    let write = "fn f(b: &dyn StorageBackend, p: &Page) { let _ = b.write_page(p); }\n";
    assert!(check_file("crates/core/src/fixture.rs", write).is_empty());
    assert_eq!(check_file("crates/lsm/src/fixture.rs", write).len(), 1);
}

#[test]
fn allow_marker_without_a_reason_is_ignored() {
    let src = "fn f(v: Option<u64>) -> u64 {\n    // lint:allow(no-panic)\n    v.unwrap()\n}\n";
    let findings = check_file("crates/storage/src/fixture.rs", src);
    assert_eq!(findings.len(), 1, "a reasonless marker must not suppress: {findings:?}");
    let src =
        "fn f(v: Option<u64>) -> u64 {\n    // lint:allow(no-panic): checked\n    v.unwrap()\n}\n";
    assert!(check_file("crates/storage/src/fixture.rs", src).is_empty());
}

#[test]
fn patterns_inside_strings_and_comments_do_not_fire() {
    let src = concat!(
        "fn f() -> &'static str {\n",
        "    // calling .unwrap() here would be wrong\n",
        "    /* std::fs::rename(a, b) is banned */\n",
        "    \"error: .sync_all() and backend.drop_page(id) and panic!(now)\"\n",
        "}\n",
    );
    for rel in ["crates/storage/src/fixture.rs", "crates/core/src/fixture.rs"] {
        let findings = check_file(rel, src);
        assert!(findings.is_empty(), "{rel}: {findings:?}");
    }
}

#[test]
fn kill_point_cross_check_flags_both_directions() {
    let mut sites = BTreeMap::new();
    sites.insert("wal.append".to_string(), ("crates/storage/src/wal.rs".to_string(), 10));
    sites.insert("wal.orphan".to_string(), ("crates/storage/src/wal.rs".to_string(), 20));
    let registry_src = "\
// lint:kill-points-registry:begin
const KILL_POINTS: &[&str] = &[\"wal.append\", \"manifest.ghost\"];
// lint:kill-points-registry:end
";
    let registry = parse_registry(registry_src);
    assert_eq!(registry.len(), 2);
    let findings = check_kill_points(&sites, &registry, "tests/crash_recovery.rs");
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().any(|f| f.message.contains("wal.orphan")), "unregistered site");
    assert!(findings.iter().any(|f| f.message.contains("manifest.ghost")), "dead registry entry");
}

#[test]
fn the_real_tree_is_clean() {
    // the lint must hold on the workspace that ships it (CI runs the binary;
    // this keeps `cargo test -p lethe-lint` self-contained)
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = lethe_lint::run(&root);
    assert!(findings.is_empty(), "lethe-lint found violations in the tree:\n{findings:#?}");
}
