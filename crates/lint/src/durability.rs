//! Durability-protocol ordering dataflow.
//!
//! Intraprocedural checks over commit tails, using the structured
//! dominator discipline of the statement model: an operation in an
//! earlier statement of the same (or an enclosing) sequence dominates;
//! unconditional `Scope` blocks propagate their operations outward;
//! `Branch` blocks do not (an op that only happens on one path proves
//! nothing about the others); closure bodies are ignored.
//!
//! Three protocol rules:
//! 1. **WAL truncation**: `truncate_prefix` discards the only copy of
//!    recent batches, so a manifest-edit commit
//!    (`commit_version`/`commit_or_release`/`commit_manifest_for`) must
//!    dominate it on every path.
//! 2. **Atomic-rename publish**: `fs::rename` makes a file visible, so a
//!    counted barrier (`sync_all_counted`/`sync_data_counted`) on the
//!    content must dominate it, and a directory fsync
//!    (`fsync_dir_counted`) must follow later in the same function.
//! 3. **Kill-point adjacency**: a registered `FailPoint::check` site is
//!    only meaningful next to the durable operation it guards; a durable
//!    op must appear within the same statement or a short window of
//!    following statements (frame construction in between is fine).

use std::collections::BTreeSet;

use crate::model::{flatten, Block, CallEv, Ctx, FlatStmt, Piece};
use crate::{Finding, ParsedFile};

/// Calls that commit a manifest edit (and may therefore precede WAL
/// truncation).
const MANIFEST_COMMIT_OPS: &[&str] = &["commit_version", "commit_or_release", "commit_manifest_for"];

/// Counted content barriers.
const BARRIER_OPS: &[&str] = &["sync_all_counted", "sync_data_counted"];

/// Directory barrier that completes an atomic-rename publish.
const DIR_FSYNC: &str = "fsync_dir_counted";

/// How many statements of frame/record construction may sit between a
/// kill point and the durable operation it guards.
const KILL_ADJACENCY_WINDOW: usize = 8;

/// Operations that count as "the durable op a kill point guards".
const DURABLE_OPS: &[&str] = &[
    "rename",
    "remove_file",
    "sync_all_counted",
    "sync_data_counted",
    "fsync_dir_counted",
    "write_all",
    "write_page",
    "write_marker",
    "create",
    "commit",
    "commit_or_release",
    "commit_version",
    "install",
    "retire_table",
    "truncate_prefix",
    "set_len",
    "append",
    "append_nosync",
    "stage_batch",
    "wal_commit",
    "persist",
    "flush",
];

fn is_fs_rename(c: &CallEv) -> bool {
    !c.method && c.name() == "rename" && c.path.iter().any(|s| s == "fs")
}

/// Runs the durability checks over the in-scope files.
pub fn check(files: &[&ParsedFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        for (fj, func) in file.items.functions.iter().enumerate() {
            if func.is_test {
                continue;
            }
            let body = &file.bodies[fj];
            let mut doms = BTreeSet::new();
            dominator_walk(body, &file.rel, &mut doms, &mut findings);
            let mut flat = Vec::new();
            flatten(body, false, &mut flat);
            adjacency_checks(&flat, &file.rel, &mut findings);
        }
    }
    findings
}

/// Walks a block carrying the set of call names that dominate the
/// current point; reports rules 1 and 2a (missing barrier) at each site.
fn dominator_walk(
    block: &Block,
    rel: &str,
    doms: &mut BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    for stmt in &block.stmts {
        for piece in &stmt.pieces {
            match piece {
                Piece::Call(c) if !c.in_closure => {
                    if c.name() == "truncate_prefix"
                        && c.method
                        && !MANIFEST_COMMIT_OPS.iter().any(|op| doms.contains(*op))
                    {
                        findings.push(Finding {
                            rule: "durability-order",
                            file: rel.to_string(),
                            line: c.line as usize,
                            message: "truncate_prefix without a dominating manifest-edit \
                                      commit: a crash after the truncate replays nothing and \
                                      loses the batches the WAL prefix held (commit_version / \
                                      commit_or_release / commit_manifest_for must come first \
                                      on every path)"
                                .to_string(),
                        });
                    }
                    if is_fs_rename(c) && !BARRIER_OPS.iter().any(|op| doms.contains(*op)) {
                        findings.push(Finding {
                            rule: "durability-order",
                            file: rel.to_string(),
                            line: c.line as usize,
                            message: "atomic-rename publish without a dominating counted \
                                      barrier: the renamed file's content may still be \
                                      unflushed when its name becomes visible \
                                      (sync_all_counted / sync_data_counted must come first \
                                      on every path)"
                                .to_string(),
                        });
                    }
                    doms.insert(c.name().to_string());
                }
                Piece::Nested { block: inner, ctx } => match ctx {
                    Ctx::Scope => dominator_walk(inner, rel, doms, findings),
                    Ctx::Branch => {
                        let mut branch_doms = doms.clone();
                        dominator_walk(inner, rel, &mut branch_doms, findings);
                    }
                    Ctx::Closure => {}
                },
                _ => {}
            }
        }
    }
}

/// Rules 2b (directory fsync after rename) and 3 (kill-point adjacency)
/// over the flattened statement list.
fn adjacency_checks(flat: &[FlatStmt<'_>], rel: &str, findings: &mut Vec<Finding>) {
    for (si, stmt) in flat.iter().enumerate() {
        for (ei, piece) in stmt.events.iter().enumerate() {
            let Piece::Call(c) = piece else { continue };
            if c.in_closure {
                continue;
            }
            if is_fs_rename(c) {
                // the fsync need not be immediate (a rename *away* to a
                // .old name may come between), but it must follow somewhere
                // in the same function
                let found =
                    window_calls(flat, si, ei, usize::MAX).any(|call| call.name() == DIR_FSYNC);
                if !found {
                    findings.push(Finding {
                        rule: "durability-order",
                        file: rel.to_string(),
                        line: c.line as usize,
                        message: "atomic-rename publish with no directory fsync afterwards: \
                                  the new directory entry is not durable until \
                                  fsync_dir_counted runs"
                            .to_string(),
                    });
                }
            }
            if c.method && c.name() == "check" {
                if let Some(site) = &c.first_str {
                    let guarded = window_calls(flat, si, ei, KILL_ADJACENCY_WINDOW)
                        .any(|call| DURABLE_OPS.contains(&call.name()));
                    if !guarded {
                        findings.push(Finding {
                            rule: "durability-order",
                            file: rel.to_string(),
                            line: c.line as usize,
                            message: format!(
                                "kill point {site:?} is not adjacent to the durable \
                                 operation it guards (no durable op within the next \
                                 {KILL_ADJACENCY_WINDOW} statements); move the check next \
                                 to the op so the crash sweep exercises the intended window"
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// Calls after event `ei` of statement `si`, through the next `n`
/// flattened statements.
fn window_calls<'a>(
    flat: &'a [FlatStmt<'a>],
    si: usize,
    ei: usize,
    n: usize,
) -> impl Iterator<Item = &'a CallEv> {
    let same_stmt = flat[si].events.iter().skip(ei + 1);
    let later = flat[si + 1..].iter().take(n).flat_map(|s| s.events.iter());
    same_stmt.chain(later).filter_map(|p| match p {
        Piece::Call(c) => Some(c),
        _ => None,
    })
}
