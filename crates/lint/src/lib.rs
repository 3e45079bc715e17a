//! Repo-specific static lock-order analysis for the Lethe workspace.
//!
//! `lethe-lint` is a dependency-free source-level analyser — a hand-rolled
//! lexer + token-tree parser (the clippy/rust-analyzer idiom, minus the
//! compiler) with item and statement models on top, not a line scanner.
//! It runs one analysis, `lock-order`: the static may-hold-while-acquiring
//! graph of the ranked `lethe_sync` locks must respect the `LockRank`
//! order, on every path, including paths no test executes.
//!
//! Every other repo convention is held by the compiler: types (the
//! `ManifestCommitted` witness, `barrier::publish`, the `KillPoint` enum),
//! the workspace `unsafe_code = "forbid"` lint, the panicking clippy lints
//! denied in `lethe-storage` and `lethe-lsm`, and `clippy.toml`'s bans on
//! raw locks, raw barriers and raw page writes and drops.
//!
//! Because the analysis matches token trees rather than text, content
//! inside string literals (raw or not) and comments (nested or not) can
//! neither add nor hide an edge. `#[cfg(test)]` regions are tracked
//! structurally from the attribute's brace group.

#![deny(missing_docs)]

mod lexer;
mod lockgraph;
mod model;
mod syntax;

use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;

use lexer::Kind;
use model::{Block, LockCtor};
use syntax::{FileItems, Tree};

/// One violation: where it is and what it breaks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`lock-order`, or `io` for an unreadable file).
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

/// One fully-parsed source file.
pub(crate) struct ParsedFile {
    pub(crate) rel: String,
    pub(crate) trees: Vec<Tree>,
    pub(crate) items: FileItems,
    /// Parsed bodies, aligned with `items.functions`.
    pub(crate) bodies: Vec<Block>,
    pub(crate) ctors: Vec<LockCtor>,
}

fn parse_file(rel: &str, source: &str) -> ParsedFile {
    let trees = syntax::build_trees(lexer::lex(source));
    let items = syntax::collect_items(&trees);
    let bodies =
        items.functions.iter().map(|f| model::parse_block(&f.body.trees)).collect::<Vec<_>>();
    let ctors = model::collect_lock_ctors(&trees);
    ParsedFile { rel: rel.to_string(), trees, items, bodies, ctors }
}

/// Crate roots whose source directories take part in the cross-file
/// analysis (the lock-taking crates).
const ANALYSIS_ROOTS: &[&str] = &["crates/core/src/", "crates/lsm/src/", "crates/storage/src/"];

/// Runs the `lock-order` analysis over a set of
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
    let variants =
        parsed.iter().find_map(|file| find_rank_enum(&file.trees)).unwrap_or_default();
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
    lockgraph::check(&scope, &ranks)
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

/// Recursively collects `.rs` files under `dir`, returning workspace-relative
/// paths (sorted for deterministic output).
#[expect(clippy::disallowed_methods, reason = "walks the source checkout, which is no store")]
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

/// Runs the analysis over the workspace rooted at `root` (`crates/*/src`
/// and `src/`). I/O errors on individual files are reported as findings so
/// a truncated checkout cannot pass silently.
#[expect(clippy::disallowed_methods, reason = "walks the source checkout, which is no store")]
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
    for rel in &files {
        match std::fs::read_to_string(root.join(rel)) {
            Ok(source) => parsed.push(parse_file(rel, &source)),
            Err(e) => findings.push(Finding {
                rule: "io",
                file: rel.clone(),
                line: 0,
                message: format!("unreadable source file: {e}"),
            }),
        }
    }
    findings.extend(check_workspace_parsed(&parsed));

    // deduplicate (a pattern can match twice on one line) and sort for
    // stable CI output
    let set: BTreeSet<(String, usize, &'static str, String)> =
        findings.into_iter().map(|f| (f.file, f.line, f.rule, f.message)).collect();
    set.into_iter()
        .map(|(file, line, rule, message)| Finding { rule, file, line, message })
        .collect()
}
