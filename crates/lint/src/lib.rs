//! Repo-specific static invariant checks for the Lethe workspace.
//!
//! `lethe-lint` is a dependency-free source-level analyser — a hand-rolled
//! lexer + token-tree parser (the clippy/rust-analyzer idiom, minus the
//! compiler) with item and statement models on top, not a line scanner.
//! It enforces the conventions that are neither types nor clippy
//! configuration:
//!
//! | rule id               | invariant                                                            |
//! |-----------------------|----------------------------------------------------------------------|
//! | `raw-drop-page`       | `drop_page` calls only in the page choke point / cache wrapper, and  |
//! |                       | `write_page` calls in `crates/lsm` only in the choke point           |
//! | `kill-point-registry` | `FailPoint::check` site names ⇆ `KILL_POINTS` registry, both ways    |
//! | `no-panic`            | no `unwrap`/`expect`/`panic!` in non-test storage/lsm code           |
//! | `unsafe-hygiene`      | every crate root carries `#![forbid(unsafe_code)]` (or `deny`)       |
//! | `lock-order`          | static may-hold-while-acquiring graph respects the `LockRank` order  |
//! | `stale-allow`         | every `lint:allow` marker names a rule that still exists             |
//!
//! The durability orderings are types, not rules: `barrier::publish` is the
//! only rename path, and `Wal::truncate_prefix` takes the
//! `ManifestCommitted` witness only `Manifest::commit` mints. Raw lock
//! types are banned by `clippy.toml`'s `disallowed-types`, and raw
//! `sync_all`/`sync_data`/`fs::rename` calls by its `disallowed-methods`.
//!
//! A violation is silenced by a marker on the same line or the line above:
//! `// lint:allow(<rule-id>): <reason>` — the reason is mandatory.
//!
//! Because rules match token patterns rather than text, content inside
//! string literals (raw or not) and comments (nested or not) can neither
//! trigger nor mask a rule. `#[cfg(test)]` regions are tracked
//! structurally from the attribute's brace group, and test functions are
//! exempt from every rule except the registry cross-check.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod lexer;
mod lockgraph;
mod model;
mod rules;
mod syntax;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;

use lexer::{Kind, Tok};
use model::{Block, LockCtor};
use syntax::{FileItems, Tree};

/// One rule violation: where it is and what convention it breaks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`raw-drop-page`, `lock-order`, …).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Line-keyed metadata for one file: `#[cfg(test)]` spans (structural)
/// and `lint:allow` markers.
pub(crate) struct SourceMaps {
    test_spans: Vec<(u32, u32)>,
    allows: BTreeMap<usize, Vec<String>>,
}

impl SourceMaps {
    /// Whether a 1-based line is inside a `#[cfg(test)]` item.
    pub(crate) fn is_test_line(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(a, b)| a <= line && line <= b)
    }

    /// Whether `rule` is allowed at `line` by a marker on the same line
    /// or the line above.
    pub(crate) fn allowed(&self, rule: &str, line: usize) -> bool {
        for probe in [line, line.saturating_sub(1)] {
            if let Some(rules) = self.allows.get(&probe) {
                if rules.iter().any(|r| r == rule) {
                    return true;
                }
            }
        }
        false
    }

    /// All allow markers: (line, rule ids).
    pub(crate) fn allow_entries(&self) -> impl Iterator<Item = (usize, &Vec<String>)> {
        self.allows.iter().map(|(l, r)| (*l, r))
    }
}

/// One fully-parsed source file, shared by every analysis.
pub(crate) struct ParsedFile {
    pub(crate) rel: String,
    pub(crate) toks: Vec<Tok>,
    pub(crate) items: FileItems,
    /// Parsed bodies, aligned with `items.functions`.
    pub(crate) bodies: Vec<Block>,
    pub(crate) ctors: Vec<LockCtor>,
    pub(crate) maps: SourceMaps,
}

fn parse_file(rel: &str, source: &str) -> ParsedFile {
    let toks = lexer::lex(source);
    let trees = syntax::build_trees(toks.clone());
    let items = syntax::collect_items(&trees);
    let bodies =
        items.functions.iter().map(|f| model::parse_block(&f.body.trees)).collect::<Vec<_>>();
    let ctors = model::collect_lock_ctors(&trees);
    let maps =
        SourceMaps { test_spans: items.test_spans.clone(), allows: collect_allows(source) };
    ParsedFile { rel: rel.to_string(), toks, items, bodies, ctors, maps }
}

/// Collects `// lint:allow(rule): reason` markers (reason mandatory) from
/// the raw source.
fn collect_allows(source: &str) -> BTreeMap<usize, Vec<String>> {
    let mut out: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for (idx, raw) in source.lines().enumerate() {
        let Some(pos) = raw.find("lint:allow(") else {
            continue;
        };
        let rest = &raw[pos + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest[..close].trim().to_string();
        // the reason after "):" must be non-empty, otherwise the marker is
        // ignored (an unexplained suppression is itself a smell)
        let after = rest[close + 1..].trim_start();
        if let Some(reason) = after.strip_prefix(':') {
            if !reason.trim().is_empty() {
                out.entry(idx + 1).or_default().push(rule);
            }
        }
    }
    out
}

/// Runs every single-file rule against one workspace-relative file.
pub fn check_file(rel: &str, source: &str) -> Vec<Finding> {
    let parsed = parse_file(rel, source);
    check_file_parsed(&parsed)
}

fn check_file_parsed(parsed: &ParsedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    rules::raw_drop_page(&parsed.rel, &parsed.toks, &parsed.maps, &mut findings);
    rules::no_panic(&parsed.rel, &parsed.toks, &parsed.maps, &mut findings);
    rules::stale_allow(&parsed.rel, &parsed.maps, &mut findings);
    findings
}

/// Crate roots whose source directories take part in the cross-file
/// analysis (the lock-taking crates).
const ANALYSIS_ROOTS: &[&str] = &["crates/core/src/", "crates/lsm/src/", "crates/storage/src/"];

/// Runs the cross-file analysis (`lock-order`) over a set of
/// `(workspace-relative path, source)` pairs.
///
/// The `LockRank` order is parsed from whichever input file declares
/// `enum LockRank` (in the real tree, `crates/sync/src/lib.rs`); without
/// one, the lock-order analysis has no rank table and reports nothing.
/// Only files under the protocol-bearing crates (`crates/core`,
/// `crates/lsm`, `crates/storage`) are analysed.
pub fn check_workspace(files: &[(String, String)]) -> Vec<Finding> {
    let parsed: Vec<ParsedFile> =
        files.iter().map(|(rel, src)| parse_file(rel, src)).collect();
    check_workspace_parsed(&parsed)
}

fn check_workspace_parsed(parsed: &[ParsedFile]) -> Vec<Finding> {
    // rank order from the LockRank enum, wherever it is declared
    let mut variants = Vec::new();
    for file in parsed {
        let trees = syntax::build_trees(file.toks.clone());
        if let Some(v) = find_rank_enum(&trees) {
            variants = v;
            break;
        }
    }
    let mut ordered = BTreeSet::new();
    for file in parsed {
        for ctor in &file.ctors {
            if ctor.ordered {
                ordered.insert(ctor.rank.clone());
            }
        }
    }
    let ranks = lockgraph::RankTable::new(variants, ordered);

    let scope: Vec<&ParsedFile> = parsed
        .iter()
        .filter(|f| ANALYSIS_ROOTS.iter().any(|root| f.rel.starts_with(root)))
        .collect();
    let mut findings = Vec::new();
    findings.extend(lockgraph::check(&scope, &ranks));

    // apply allow markers per file
    let maps: BTreeMap<&str, &SourceMaps> =
        parsed.iter().map(|f| (f.rel.as_str(), &f.maps)).collect();
    findings.retain(|f| {
        maps.get(f.file.as_str()).is_none_or(|m| !m.allowed(f.rule, f.line))
    });
    findings
}

/// Finds `enum LockRank { … }` anywhere in a file and returns the
/// variant names in declaration order.
fn find_rank_enum(trees: &[Tree]) -> Option<Vec<String>> {
    for (i, t) in trees.iter().enumerate() {
        if t.is_ident("enum")
            && trees.get(i + 1).is_some_and(|n| n.is_ident("LockRank"))
        {
            let body = trees.get(i + 2)?.group(Some(lexer::Delim::Brace))?;
            let variants = body
                .trees
                .iter()
                .filter_map(|v| v.leaf())
                .filter(|tok| tok.kind == Kind::Ident)
                .map(|tok| tok.text.clone())
                .collect();
            return Some(variants);
        }
        if let Tree::Group(g) = t {
            if let Some(v) = find_rank_enum(&g.trees) {
                return Some(v);
            }
        }
    }
    None
}

/// Cross-checks the fail-point site names found in source (`sites`: name →
/// (file, line)) against the `KILL_POINTS` registry in the crash-recovery
/// suite (`registry`: name → line). Both directions are errors: an
/// unregistered site is untested, a registered name with no site is dead.
pub fn check_kill_points(
    sites: &BTreeMap<String, (String, usize)>,
    registry: &BTreeMap<String, usize>,
    registry_file: &str,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (name, (file, line)) in sites {
        if !registry.contains_key(name) {
            findings.push(Finding {
                rule: "kill-point-registry",
                file: file.clone(),
                line: *line,
                message: format!(
                    "fail-point site {name:?} is not listed in KILL_POINTS ({registry_file}); \
                     the crash sweeps will never assert coverage for it"
                ),
            });
        }
    }
    for (name, line) in registry {
        if !sites.contains_key(name) {
            findings.push(Finding {
                rule: "kill-point-registry",
                file: registry_file.to_string(),
                line: *line,
                message: format!(
                    "KILL_POINTS entry {name:?} matches no FailPoint::check site in the source; \
                     remove the dead registry entry"
                ),
            });
        }
    }
    findings
}

/// Parses the `KILL_POINTS` registry from the crash-recovery suite: every
/// string literal between the `lint:kill-points-registry:begin`/`:end`
/// marker comments.
pub fn parse_registry(source: &str) -> BTreeMap<String, usize> {
    let mut registry = BTreeMap::new();
    let mut inside = false;
    for (idx, raw) in source.lines().enumerate() {
        if raw.contains("lint:kill-points-registry:begin") {
            inside = true;
            continue;
        }
        if raw.contains("lint:kill-points-registry:end") {
            inside = false;
            continue;
        }
        if !inside {
            continue;
        }
        let mut rest = raw;
        while let Some(start) = rest.find('"') {
            let Some(len) = rest[start + 1..].find('"') else {
                break;
            };
            registry.insert(rest[start + 1..start + 1 + len].to_string(), idx + 1);
            rest = &rest[start + len + 2..];
        }
    }
    registry
}

/// Checks a crate root for the `unsafe_code` lint gate.
pub fn rule_unsafe_hygiene(rel: &str, source: &str) -> Option<Finding> {
    let is_root = rel == "src/lib.rs"
        || rel == "src/main.rs"
        || (rel.starts_with("crates/")
            && (rel.ends_with("/src/lib.rs") || rel.ends_with("/src/main.rs")));
    if !is_root {
        return None;
    }
    // token-level: `#![forbid(unsafe_code)]` / `#![deny(unsafe_code)]`
    let toks = lexer::lex(source);
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct("#")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
            && toks.get(i + 3).is_some_and(|n| n.is_ident("forbid") || n.is_ident("deny"))
            && toks.get(i + 5).is_some_and(|n| n.is_ident("unsafe_code"))
        {
            return None;
        }
    }
    Some(Finding {
        rule: "unsafe-hygiene",
        file: rel.to_string(),
        line: 1,
        message: "crate root is missing #![forbid(unsafe_code)] (or #![deny(unsafe_code)])"
            .to_string(),
    })
}

/// Recursively collects `.rs` files under `dir`, returning workspace-relative
/// paths (sorted for deterministic output).
fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
}

/// Runs every rule over the workspace rooted at `root` (`crates/*/src` and
/// `src/` for the code rules, `tests/crash_recovery.rs` for the kill-point
/// registry). I/O errors on individual files are reported as findings so a
/// truncated checkout cannot pass silently.
pub fn run(root: &Path) -> Vec<Finding> {
    let mut files = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for dir in dirs {
            collect_rs(root, &dir.join("src"), &mut files);
        }
    }
    collect_rs(root, &root.join("src"), &mut files);

    let mut findings = Vec::new();
    let mut parsed: Vec<ParsedFile> = Vec::new();
    let mut sites: BTreeMap<String, (String, usize)> = BTreeMap::new();
    for rel in &files {
        let source = match std::fs::read_to_string(root.join(rel)) {
            Ok(s) => s,
            Err(e) => {
                findings.push(Finding {
                    rule: "io",
                    file: rel.clone(),
                    line: 0,
                    message: format!("unreadable source file: {e}"),
                });
                continue;
            }
        };
        if let Some(f) = rule_unsafe_hygiene(rel, &source) {
            findings.push(f);
        }
        let file = parse_file(rel, &source);
        findings.extend(check_file_parsed(&file));
        for (name, line) in rules::kill_point_sites(&file.toks, &file.maps) {
            sites.entry(name).or_insert((rel.clone(), line as usize));
        }
        parsed.push(file);
    }
    findings.extend(check_workspace_parsed(&parsed));

    let registry_file = "tests/crash_recovery.rs";
    match std::fs::read_to_string(root.join(registry_file)) {
        Ok(source) => {
            let registry = parse_registry(&source);
            if registry.is_empty() {
                findings.push(Finding {
                    rule: "kill-point-registry",
                    file: registry_file.to_string(),
                    line: 1,
                    message: "no KILL_POINTS registry found (missing \
                              lint:kill-points-registry markers)"
                        .to_string(),
                });
            } else {
                findings.extend(check_kill_points(&sites, &registry, registry_file));
            }
        }
        Err(e) => findings.push(Finding {
            rule: "kill-point-registry",
            file: registry_file.to_string(),
            line: 0,
            message: format!("unreadable registry file: {e}"),
        }),
    }

    // deduplicate (a pattern can match twice on one line) and sort for
    // stable CI output
    let set: BTreeSet<(String, usize, &'static str, String)> =
        findings.into_iter().map(|f| (f.file, f.line, f.rule, f.message)).collect();
    set.into_iter()
        .map(|(file, line, rule, message)| Finding { rule, file, line, message })
        .collect()
}

/// Serialises findings as JSON (hand-rolled; the lint stays
/// dependency-free): `{"count": N, "findings": [{…}]}`.
pub fn to_json(findings: &[Finding]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut out = String::from("{\"count\":");
    out.push_str(&findings.len().to_string());
    out.push_str(",\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            esc(f.rule),
            esc(&f.file),
            f.line,
            esc(&f.message)
        ));
    }
    out.push_str("]}");
    out
}
