//! Error-path resource-leak analysis.
//!
//! Two resources in this workspace are acquired in plain code but
//! released by protocol, so the type system cannot see a leak:
//!
//! * **Page ids** — `backend.write_page(…)` hands back a `PageId` the
//!   caller must eventually register in a table's page set or retire via
//!   `reclaim`. If the function can still bail with `?`/`return` after
//!   the write, the id must be covered by a `PageReservation` RAII guard
//!   (constructed before the write on every path) so the error path
//!   retires it.
//! * **Staged batch ids** — `stage_batch(…, Some(id))` parks a 2PC
//!   participant under a pre-allocated id; the id must reach a
//!   `.commit(id)` later in the same function, and any `?`/early return
//!   between stage and commit abandons it (recovery then has to roll it
//!   back — a path that needs an explicit `lint:allow(leak-paths)` with
//!   its reason if intentional).
//! * **Job outputs** — a function that commits freshly built files
//!   through `commit_version` owns their pages until that call (which
//!   releases them itself if the manifest edit fails). A `return` before
//!   it — the stale-plan refusal of `apply_job` — must hand the output to
//!   `abort_output` first, or its pages stay on the device, referenced by
//!   no version, until a reopen's unreferenced-page GC.
//!
//! The rule is scoped to non-test code; `crates/lsm` for page writes and
//! job outputs (the storage backends and cache are the implementation of
//! `write_page`, not callers that own ids).

use std::collections::BTreeSet;

use crate::model::{flatten, Block, Ctx, FlatStmt, Piece};
use crate::{Finding, ParsedFile};

/// Runs the leak checks over the in-scope files.
pub fn check(files: &[&ParsedFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        let lsm = file.rel.starts_with("crates/lsm/src/");
        for (fj, func) in file.items.functions.iter().enumerate() {
            if func.is_test {
                continue;
            }
            let body = &file.bodies[fj];
            let mut flat = Vec::new();
            flatten(body, false, &mut flat);
            let has_exit = flat.iter().flat_map(|s| s.events.iter()).any(|p| {
                matches!(
                    p,
                    Piece::Question { in_closure: false, .. }
                        | Piece::Return { in_closure: false, .. }
                )
            });
            if lsm && has_exit {
                let mut doms = BTreeSet::new();
                page_walk(body, &file.rel, &mut doms, &mut findings);
            }
            let commits = flat.iter().flat_map(|s| s.events.iter()).any(|p| {
                matches!(p, Piece::Call(c) if !c.in_closure && c.name() == "commit_version")
            });
            if lsm && commits {
                output_walk(body, &file.rel, false, &mut false, &mut findings);
            }
            stage_checks(&flat, &file.rel, &mut findings);
        }
    }
    findings
}

/// Dominator walk for page writes: a `PageReservation` constructed in a
/// dominating position covers every later `write_page` in the function.
fn page_walk(
    block: &Block,
    rel: &str,
    doms: &mut BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    for stmt in &block.stmts {
        for piece in &stmt.pieces {
            match piece {
                Piece::Call(c) if !c.in_closure => {
                    if c.method && c.name() == "write_page" && !doms.contains("PageReservation") {
                        findings.push(Finding {
                            rule: "leak-paths",
                            file: rel.to_string(),
                            line: c.line as usize,
                            message: "page id can leak on an error path: this function has \
                                      `?`/early returns, so the write must be covered by a \
                                      dominating reclaim::PageReservation (add the id with \
                                      .add(), .defuse() on success) or carry a \
                                      lint:allow(leak-paths) with the reason"
                                .to_string(),
                        });
                    }
                    for seg in &c.path {
                        doms.insert(seg.clone());
                    }
                }
                Piece::Nested { block: inner, ctx } => match ctx {
                    Ctx::Scope => page_walk(inner, rel, doms, findings),
                    Ctx::Branch => {
                        let mut branch = doms.clone();
                        page_walk(inner, rel, &mut branch, findings);
                    }
                    Ctx::Closure => {}
                },
                _ => {}
            }
        }
    }
}

/// Walk for job outputs: until `commit_version` has been reached, every
/// `return` must follow an `abort_output` on its own path. Returns whether
/// the output was aborted by the end of `block` (a `Scope` block's abort
/// covers what follows it; a `Branch` block's does not).
fn output_walk(
    block: &Block,
    rel: &str,
    mut aborted: bool,
    committed: &mut bool,
    findings: &mut Vec<Finding>,
) -> bool {
    for stmt in &block.stmts {
        for piece in &stmt.pieces {
            match piece {
                Piece::Call(c) if !c.in_closure => match c.name() {
                    "commit_version" => *committed = true,
                    "abort_output" => aborted = true,
                    _ => {}
                },
                Piece::Return { line, in_closure: false } if !*committed && !aborted => {
                    findings.push(Finding {
                        rule: "leak-paths",
                        file: rel.to_string(),
                        line: *line as usize,
                        message: "job output can leak: this return comes before \
                                  commit_version and no abort_output precedes it on its \
                                  path, so the freshly built files' pages stay on the \
                                  device with no version referencing them"
                            .to_string(),
                    });
                }
                Piece::Nested { block: inner, ctx } => match ctx {
                    Ctx::Scope => aborted = output_walk(inner, rel, aborted, committed, findings),
                    Ctx::Branch => {
                        output_walk(inner, rel, aborted, committed, findings);
                    }
                    Ctx::Closure => {}
                },
                _ => {}
            }
        }
    }
    aborted
}

/// `stage_batch(…, Some(id))` obligations over the flattened statements.
fn stage_checks(flat: &[FlatStmt<'_>], rel: &str, findings: &mut Vec<Finding>) {
    for (si, stmt) in flat.iter().enumerate() {
        for piece in &stmt.events {
            let Piece::Call(c) = piece else { continue };
            if c.in_closure
                || c.name() != "stage_batch"
                || !c.arg_idents.iter().any(|a| a == "Some")
            {
                continue;
            }
            // find the commit that discharges the obligation
            let commit_at = flat[si + 1..].iter().position(|s| {
                s.events.iter().any(|p| match p {
                    Piece::Call(cc) => cc.method && cc.name() == "commit" && !cc.in_closure,
                    _ => false,
                })
            });
            let Some(offset) = commit_at else {
                findings.push(Finding {
                    rule: "leak-paths",
                    file: rel.to_string(),
                    line: c.line as usize,
                    message: "batch staged under a pre-allocated id never reaches its \
                              .commit(id): the id stays parked in the batch log forever \
                              (or until recovery rolls it back)"
                        .to_string(),
                });
                continue;
            };
            // any error exit strictly between stage and commit abandons
            // the staged id to recovery
            let between = &flat[si + 1..si + 1 + offset];
            let exit = between.iter().flat_map(|s| s.events.iter()).find_map(|p| match p {
                Piece::Question { line, in_closure: false } => Some(*line),
                Piece::Return { line, in_closure: false } => Some(*line),
                _ => None,
            });
            if let Some(exit_line) = exit {
                findings.push(Finding {
                    rule: "leak-paths",
                    file: rel.to_string(),
                    line: c.line as usize,
                    message: format!(
                        "error path abandons a staged batch id: the `?`/return on line \
                         {exit_line} can fire between stage_batch(…, Some(id)) and its \
                         .commit(id); if recovery is meant to roll the id back, say so \
                         with lint:allow(leak-paths)"
                    ),
                });
            }
        }
    }
}
