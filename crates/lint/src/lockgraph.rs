//! Static lock-order analysis.
//!
//! Builds the "may hold A while acquiring B" graph for the ranked locks
//! in `lethe-sync` and reports any acquisition that contradicts the
//! declared `LockRank` order — the compile-time complement of the
//! runtime held-stack detector, covering paths no test executes.
//!
//! Pipeline:
//! 1. The `LockRank` enum (parsed from `crates/sync`) gives the total
//!    order; `with_order` constructors mark ranks where same-rank
//!    nesting is legal (index order is the runtime's job).
//! 2. Every `Mutex`/`RwLock` constructor naming a `LockRank` maps its
//!    binding (struct field / `let` / `static` name) to a rank —
//!    file-local table first, globally-unique names as fallback.
//! 3. A name-resolution call graph (unambiguous names only, same-file
//!    preferred) gives each function its transitive acquire set.
//! 4. An intra-function walk simulates guard liveness: `let`-bound
//!    guards live to end of scope and drop in reverse declaration
//!    order, statement temporaries die at the semicolon, and **tail-
//!    expression temporaries outlive block locals** — which is exactly
//!    the `with_shard` hazard: a guard temporary in the tail expression
//!    is still held when an earlier local's `Drop` impl runs and
//!    acquires a lower-ranked lock.
//! 5. `impl Drop` bodies contribute deferred acquisitions at the point
//!    the value drops, not where it was created.

use std::collections::{BTreeMap, BTreeSet};

use crate::model::{Block, Piece};
use crate::{Finding, ParsedFile};

/// The declared rank order plus which ranks permit same-rank nesting.
pub struct RankTable {
    /// Variant name → position in the enum (ascending acquisition order).
    pub order: BTreeMap<String, usize>,
    /// Ranks constructed with `with_order` somewhere in the workspace.
    pub ordered: BTreeSet<String>,
    names: Vec<String>,
}

impl RankTable {
    /// Builds the table from the variant list in declaration order.
    pub fn new(variants: Vec<String>, ordered: BTreeSet<String>) -> RankTable {
        let order = variants.iter().cloned().enumerate().map(|(i, v)| (v, i)).collect();
        RankTable { order, ordered, names: variants }
    }

    fn name(&self, idx: usize) -> &str {
        self.names.get(idx).map(String::as_str).unwrap_or("?")
    }

    fn is_ordered(&self, idx: usize) -> bool {
        self.ordered.contains(self.name(idx))
    }
}

/// Guard type names from `lethe-sync`; a function whose return type
/// mentions one returns a held guard to its caller.
const GUARD_TYPES: &[&str] = &["MutexGuard", "RwLockReadGuard", "RwLockWriteGuard"];

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct FnId(usize, usize); // (file index, function index)

/// Where a deferred acquisition comes from, for the finding message.
enum Why<'a> {
    Direct(&'a str),
    CallInto(&'a str),
    DropOf(&'a str),
}

struct Analysis<'a> {
    files: &'a [&'a ParsedFile],
    ranks: &'a RankTable,
    file_tables: Vec<BTreeMap<String, String>>,
    global_table: BTreeMap<String, Option<String>>,
    name_map: BTreeMap<&'a str, Vec<FnId>>,
    typed_map: BTreeMap<(&'a str, &'a str), Vec<FnId>>,
    trans_acq: BTreeMap<FnId, BTreeSet<usize>>,
    guard_rank: BTreeMap<FnId, usize>,
    droppy: BTreeMap<&'a str, BTreeSet<usize>>,
    edges: BTreeMap<(usize, usize), (String, usize)>,
    findings: Vec<Finding>,
    reported: BTreeSet<(String, usize, usize, usize)>,
}

/// Runs the lock-order analysis over the in-scope files.
pub fn check(files: &[&ParsedFile], ranks: &RankTable) -> Vec<Finding> {
    let mut a = Analysis {
        files,
        ranks,
        file_tables: Vec::new(),
        global_table: BTreeMap::new(),
        name_map: BTreeMap::new(),
        typed_map: BTreeMap::new(),
        trans_acq: BTreeMap::new(),
        guard_rank: BTreeMap::new(),
        droppy: BTreeMap::new(),
        edges: BTreeMap::new(),
        findings: Vec::new(),
        reported: BTreeSet::new(),
    };
    a.build_field_tables();
    a.build_fn_maps();
    a.build_acquire_sets();
    a.build_droppy();
    for (fi, file) in files.iter().enumerate() {
        for (fj, func) in file.items.functions.iter().enumerate() {
            if func.is_test {
                continue;
            }
            let body = &file.bodies[fj];
            let mut held = Vec::new();
            let mut next_id = 0usize;
            a.walk_block(body, FnId(fi, fj), &mut held, &mut next_id);
        }
    }
    a.check_cycles();
    a.findings
}

/// A currently-held guard during the liveness walk.
#[derive(Clone)]
struct Held {
    id: usize,
    rank: usize,
    line: u32,
}

/// What a block-scoped local is, for end-of-scope drop processing.
enum Local {
    Guard { id: usize, name: Option<String> },
    Droppy { ty: String, name: Option<String> },
}

impl<'a> Analysis<'a> {
    fn build_field_tables(&mut self) {
        let mut global: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for file in self.files {
            let mut local: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
            for ctor in &file.ctors {
                if file.items.is_test_line(ctor.line) {
                    continue;
                }
                let Some(binding) = &ctor.binding else { continue };
                local.entry(binding.clone()).or_default().insert(ctor.rank.clone());
                global.entry(binding.clone()).or_default().insert(ctor.rank.clone());
            }
            let table = local
                .into_iter()
                .filter_map(|(k, v)| {
                    if v.len() == 1 {
                        Some((k, v.into_iter().next().expect("one rank")))
                    } else {
                        None
                    }
                })
                .collect();
            self.file_tables.push(table);
        }
        self.global_table = global
            .into_iter()
            .map(|(k, v)| {
                let rank =
                    if v.len() == 1 { Some(v.into_iter().next().expect("one rank")) } else { None };
                (k, rank)
            })
            .collect();
    }

    /// Resolves an acquisition receiver to a rank index.
    fn resolve_recv(&self, recv: &str, file_idx: usize) -> Option<usize> {
        if recv.is_empty() {
            return None;
        }
        let rank = self.file_tables[file_idx]
            .get(recv)
            .cloned()
            .or_else(|| self.global_table.get(recv).cloned().flatten())?;
        self.ranks.order.get(&rank).copied()
    }

    fn build_fn_maps(&mut self) {
        for (fi, file) in self.files.iter().enumerate() {
            for (fj, func) in file.items.functions.iter().enumerate() {
                let id = FnId(fi, fj);
                self.name_map.entry(&func.name).or_default().push(id);
                if let Some(ty) = &func.impl_type {
                    self.typed_map.entry((ty, &func.name)).or_default().push(id);
                }
            }
        }
    }

    /// Resolves a call to a workspace function. Deliberately conservative
    /// — an unresolved call contributes nothing, a misresolved one
    /// fabricates edges — so only unambiguous shapes resolve:
    ///
    /// * `self.m(…)`       → the enclosing impl type's method, if unique
    /// * `Type::f(…)`      → that type's function, if unique (`Self` maps
    ///   to the enclosing impl type); **no** bare-name fallback
    /// * `module::f(…)`    → globally-unique function name
    /// * `f(…)`            → same-file-unique, else globally-unique name
    ///
    /// Method calls on any receiver other than `self` stay unresolved:
    /// without types, `queue.put(…)` matching some unrelated `fn put`
    /// would poison the graph.
    fn resolve_call(
        &self,
        c: &crate::model::CallEv,
        file_idx: usize,
        enclosing: Option<&str>,
    ) -> Option<FnId> {
        let name = c.path.last()?;
        if c.method {
            if c.recv != "self" {
                return None;
            }
            let cands = self.typed_map.get(&(enclosing?, name.as_str()))?;
            return if cands.len() == 1 { Some(cands[0]) } else { None };
        }
        if c.path.len() >= 2 {
            let seg = &c.path[c.path.len() - 2];
            let type_qualified = seg.chars().next().is_some_and(char::is_uppercase);
            if type_qualified || seg == "Self" {
                let ty = if seg == "Self" { enclosing? } else { seg.as_str() };
                let cands = self.typed_map.get(&(ty, name.as_str()))?;
                return if cands.len() == 1 { Some(cands[0]) } else { None };
            }
            // module-qualified free function: by name, globally unique
            let cands = self.name_map.get(name.as_str())?;
            return if cands.len() == 1 { Some(cands[0]) } else { None };
        }
        let cands = self.name_map.get(name.as_str())?;
        let same_file: Vec<_> = cands.iter().filter(|FnId(fi, _)| *fi == file_idx).collect();
        if same_file.len() == 1 {
            return Some(*same_file[0]);
        }
        if cands.len() == 1 {
            return Some(cands[0]);
        }
        None
    }

    /// Direct acquire sets, then the transitive closure over resolved
    /// calls, then guard-returning ranks.
    fn build_acquire_sets(&mut self) {
        let mut direct: BTreeMap<FnId, BTreeSet<usize>> = BTreeMap::new();
        let mut calls: BTreeMap<FnId, BTreeSet<FnId>> = BTreeMap::new();
        for (fi, file) in self.files.iter().enumerate() {
            for (fj, func) in file.items.functions.iter().enumerate() {
                let id = FnId(fi, fj);
                let enclosing = func.impl_type.as_deref();
                let mut acq = BTreeSet::new();
                let mut out_calls = BTreeSet::new();
                collect_events(&file.bodies[fj], &mut |piece| match piece {
                    Piece::Acquire { recv, .. } => {
                        if let Some(r) = self.resolve_recv(recv, fi) {
                            acq.insert(r);
                        }
                    }
                    Piece::Call(c) => {
                        if let Some(callee) = self.resolve_call(c, fi, enclosing) {
                            if callee != id {
                                out_calls.insert(callee);
                            }
                        }
                    }
                    _ => {}
                });
                direct.insert(id, acq);
                calls.insert(id, out_calls);
            }
        }
        // fixpoint
        let mut trans = direct.clone();
        loop {
            let mut changed = false;
            let ids: Vec<FnId> = trans.keys().copied().collect();
            for id in ids {
                let mut merged = trans.get(&id).cloned().unwrap_or_default();
                let before = merged.len();
                if let Some(cs) = calls.get(&id) {
                    for c in cs {
                        if let Some(set) = trans.get(c) {
                            merged.extend(set.iter().copied());
                        }
                    }
                }
                if merged.len() != before {
                    trans.insert(id, merged);
                    changed = true;
                } else {
                    trans.insert(id, merged);
                }
            }
            if !changed {
                break;
            }
        }
        // guard-returning functions: return type names a guard and the
        // function's acquire set is a single rank
        for (fi, file) in self.files.iter().enumerate() {
            for (fj, func) in file.items.functions.iter().enumerate() {
                let id = FnId(fi, fj);
                if func.ret_idents.iter().any(|r| GUARD_TYPES.contains(&r.as_str())) {
                    if let Some(set) = trans.get(&id) {
                        if set.len() == 1 {
                            self.guard_rank.insert(id, *set.iter().next().expect("one"));
                        }
                    }
                }
            }
        }
        self.trans_acq = trans;
    }

    fn build_droppy(&mut self) {
        for (fi, file) in self.files.iter().enumerate() {
            for ty in &file.items.drop_impl_types {
                let Some(cands) = self.typed_map.get(&(ty.as_str(), "drop")) else { continue };
                let mut ranks = BTreeSet::new();
                for id in cands {
                    if id.0 == fi {
                        if let Some(set) = self.trans_acq.get(id) {
                            ranks.extend(set.iter().copied());
                        }
                    }
                }
                if !ranks.is_empty() {
                    self.droppy.entry(ty).or_default().extend(ranks);
                }
            }
        }
    }

    /// Records one held→acquired pair and reports violations.
    fn check_edge(&mut self, rel: &str, line: u32, held: &Held, to: usize, why: &Why<'_>) {
        let from = held.rank;
        if from != to {
            self.edges.entry((from, to)).or_insert_with(|| (rel.to_string(), line as usize));
        }
        let bad_inversion = to < from;
        let bad_same = to == from && !self.ranks.is_ordered(to);
        if !bad_inversion && !bad_same {
            return;
        }
        if !self.reported.insert((rel.to_string(), line as usize, from, to)) {
            return;
        }
        let via = match why {
            Why::Direct(recv) => format!("via `{recv}`"),
            Why::CallInto(callee) => format!("inside the call to `{callee}`"),
            Why::DropOf(ty) => format!(
                "deferred to `Drop for {ty}` at end of scope — note tail-expression \
                 temporaries outlive block locals"
            ),
        };
        let msg = if bad_same {
            format!(
                "same-rank reacquisition of {rank} while already held (line {hl}), {via}; \
                 only `with_order` locks may nest at equal rank",
                rank = self.ranks.name(to),
                hl = held.line,
            )
        } else {
            format!(
                "lock-order inversion: acquiring {to_n} {via} while holding {from_n} \
                 (acquired line {hl}); the declared order is {to_n} < {from_n}",
                to_n = self.ranks.name(to),
                from_n = self.ranks.name(from),
                hl = held.line,
            )
        };
        self.findings.push(Finding {
            rule: "lock-order",
            file: rel.to_string(),
            line: line as usize,
            message: msg,
        });
    }

    fn walk_block(&mut self, block: &Block, fun: FnId, held: &mut Vec<Held>, next_id: &mut usize) {
        let rel = self.files[fun.0].rel.clone();
        let mut locals: Vec<Local> = Vec::new();
        let mut tail_ids: Vec<usize> = Vec::new();
        for stmt in &block.stmts {
            let mut stmt_temp_ids: Vec<usize> = Vec::new();
            let mut stmt_droppy: Vec<String> = Vec::new();
            for piece in &stmt.pieces {
                match piece {
                    Piece::Acquire { recv, line, nested, in_closure, chained } => {
                        let Some(r) = self.resolve_recv(recv, fun.0) else { continue };
                        for h in held.clone() {
                            self.check_edge(&rel, *line, &h, r, &Why::Direct(recv));
                        }
                        let id = *next_id;
                        *next_id += 1;
                        let tail_temp = stmt.is_tail && *nested;
                        held.push(Held { id, rank: r, line: *line });
                        if *chained {
                            // `x.read().len()` — the guard is a temporary
                            // even when the result is `let`-bound
                            stmt_temp_ids.push(id);
                        } else if stmt.let_name.is_some() && (!*nested || *in_closure) {
                            locals.push(Local::Guard { id, name: stmt.let_name.clone() });
                        } else if tail_temp {
                            tail_ids.push(id);
                        } else {
                            stmt_temp_ids.push(id);
                        }
                    }
                    Piece::Call(c) => {
                        let enclosing =
                            self.files[fun.0].items.functions[fun.1].impl_type.clone();
                        let Some(callee) = self.resolve_call(c, fun.0, enclosing.as_deref())
                        else {
                            continue;
                        };
                        let callee_name =
                            self.files[callee.0].items.functions[callee.1].name.clone();
                        if let Some(set) = self.trans_acq.get(&callee).cloned() {
                            for r in set {
                                for h in held.clone() {
                                    self.check_edge(&rel, c.line, &h, r, &Why::CallInto(&callee_name));
                                }
                            }
                        }
                        if let Some(gr) = self.guard_rank.get(&callee).copied() {
                            let id = *next_id;
                            *next_id += 1;
                            let tail_temp = stmt.is_tail && c.nested;
                            held.push(Held { id, rank: gr, line: c.line });
                            if stmt.let_name.is_some() && !c.nested {
                                locals.push(Local::Guard { id, name: stmt.let_name.clone() });
                            } else if tail_temp {
                                tail_ids.push(id);
                            } else {
                                stmt_temp_ids.push(id);
                            }
                        } else if let Some(ty) = self.droppy_return(callee) {
                            if stmt.let_name.is_some() && !c.nested {
                                locals.push(Local::Droppy { ty, name: stmt.let_name.clone() });
                            } else if !stmt.is_tail || c.nested {
                                // a returned droppy value escapes; a
                                // temporary drops at end of statement
                                stmt_droppy.push(ty);
                            }
                        }
                    }
                    Piece::DropOf { name, line } => {
                        // explicit drop releases a named guard, or runs a
                        // named droppy local's Drop right here
                        if let Some(pos) = locals.iter().rposition(|l| match l {
                            Local::Guard { name: n, .. } | Local::Droppy { name: n, .. } => {
                                n.as_deref() == Some(name)
                            }
                        }) {
                            match locals.remove(pos) {
                                Local::Guard { id, .. } => held.retain(|h| h.id != id),
                                Local::Droppy { ty, .. } => {
                                    self.run_drop(&rel, *line, &ty, held);
                                }
                            }
                        }
                    }
                    Piece::Nested(inner) => {
                        // a plain `if`/`while` drops its condition
                        // temporaries before the body runs; only `match` /
                        // `if let` scrutinee temporaries extend through
                        if !stmt.extends_temps {
                            held.retain(|h| !stmt_temp_ids.contains(&h.id));
                            stmt_temp_ids.clear();
                            for ty in stmt_droppy.drain(..) {
                                self.run_drop(&rel, stmt.line, &ty, held);
                            }
                        }
                        // closures are walked inline: guards captured or
                        // produced inside argument closures behave like
                        // part of the enclosing statement
                        self.walk_block(inner, fun, held, next_id);
                    }
                }
            }
            // end of statement: temporaries die (no Drop impl on guards
            // beyond releasing), then droppy temporaries run Drop
            held.retain(|h| !stmt_temp_ids.contains(&h.id));
            for ty in stmt_droppy {
                self.run_drop(&rel, stmt.line, &ty, held);
            }
        }
        // end of block: locals drop in reverse declaration order, then
        // tail-expression temporaries
        while let Some(local) = locals.pop() {
            match local {
                Local::Guard { id, .. } => held.retain(|h| h.id != id),
                Local::Droppy { ty, .. } => {
                    let line = block.stmts.last().map_or(0, |s| s.line);
                    self.run_drop(&rel, line, &ty, held);
                }
            }
        }
        held.retain(|h| !tail_ids.contains(&h.id));
    }

    /// Applies a type's `Drop` acquisitions against the currently-held
    /// guards.
    fn run_drop(&mut self, rel: &str, line: u32, ty: &str, held: &[Held]) {
        let Some(ranks) = self.droppy.get(ty).cloned() else { return };
        for r in ranks {
            for h in held {
                self.check_edge(rel, line, h, r, &Why::DropOf(ty));
            }
        }
    }

    fn droppy_return(&self, id: FnId) -> Option<String> {
        let func = &self.files[id.0].items.functions[id.1];
        func.ret_idents.iter().find(|r| self.droppy.contains_key(r.as_str())).cloned()
    }

    /// DFS cycle detection over the recorded edge graph (belt and braces:
    /// with a total order and inversion checks, a cycle should be
    /// impossible — but the rule's contract says "fail on any cycle").
    fn check_cycles(&mut self) {
        let mut adj: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (from, to) in self.edges.keys() {
            if from != to {
                adj.entry(*from).or_default().push(*to);
            }
        }
        let nodes: Vec<usize> = adj.keys().copied().collect();
        let mut state: BTreeMap<usize, u8> = BTreeMap::new(); // 1 = on stack, 2 = done
        for n in nodes {
            if state.contains_key(&n) {
                continue;
            }
            let mut stack = vec![(n, 0usize)];
            state.insert(n, 1);
            while let Some(&(node, next)) = stack.last() {
                let succs = adj.get(&node).cloned().unwrap_or_default();
                if next >= succs.len() {
                    state.insert(node, 2);
                    stack.pop();
                    continue;
                }
                let succ = succs[next];
                if let Some(top) = stack.last_mut() {
                    top.1 += 1;
                }
                match state.get(&succ) {
                    Some(1) => {
                        let (file, line) =
                            self.edges.get(&(node, succ)).cloned().unwrap_or_default();
                        let cycle: Vec<String> = stack
                            .iter()
                            .map(|&(n, _)| self.ranks.name(n).to_string())
                            .collect();
                        self.findings.push(Finding {
                            rule: "lock-order",
                            file,
                            line,
                            message: format!(
                                "cycle in the may-hold-while-acquiring graph: {} -> {}",
                                cycle.join(" -> "),
                                self.ranks.name(succ)
                            ),
                        });
                        return;
                    }
                    Some(_) => {}
                    None => {
                        state.insert(succ, 1);
                        stack.push((succ, 0));
                    }
                }
            }
        }
    }
}

/// Visits every event piece in a block, closures included.
fn collect_events<'b>(block: &'b Block, f: &mut impl FnMut(&'b Piece)) {
    for stmt in &block.stmts {
        for piece in &stmt.pieces {
            match piece {
                Piece::Nested(b) => collect_events(b, f),
                other => f(other),
            }
        }
    }
}
