//! Statement/event model over token trees.
//!
//! Function bodies are parsed into a nested [`Block`] structure whose
//! statements carry a flat, textually-ordered list of [`Piece`]s: lock
//! acquisitions, calls, `drop()`s, and nested blocks (branch bodies, match
//! arms, closure bodies). The lock-order analysis walks it to simulate
//! guard liveness.
//!
//! The model is deliberately approximate — it is a lint, not a compiler —
//! but the approximations are chosen so that the analysis stays sound for
//! the shapes this workspace actually uses (see ARCHITECTURE.md,
//! "Correctness tooling").

use crate::lexer::{Delim, Kind};
use crate::syntax::{Group, Tree};

/// A parsed sequence of statements.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Statements in source order.
    pub stmts: Vec<Stmt>,
}

/// One statement and the events inside it.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// Line of the statement's first token.
    pub line: u32,
    /// Simple `let` binding name, if the pattern is one identifier.
    pub let_name: Option<String>,
    /// True for the block's tail expression (no trailing `;`).
    pub is_tail: bool,
    /// True when the statement's scrutinee temporaries extend through its
    /// nested blocks (`match`, `if let`, `while let`); a plain `if`'s
    /// condition temporaries drop before the body runs.
    pub extends_temps: bool,
    /// Events and nested blocks in textual order.
    pub pieces: Vec<Piece>,
}

/// A call expression (free, path or method).
#[derive(Debug, Clone)]
pub struct CallEv {
    /// Path identifiers (`std::fs::rename` → `[std, fs, rename]`;
    /// method calls carry just the method name).
    pub path: Vec<String>,
    /// True for `.name(…)` method syntax.
    pub method: bool,
    /// Receiver identifier for method calls (`self.frob()` → `self`);
    /// empty for path calls or unrecognisable receivers.
    pub recv: String,
    /// Source line.
    pub line: u32,
    /// True when the call sits inside a nested paren/bracket group of its
    /// statement (i.e. it is an argument subexpression, not the statement's
    /// own top-level chain).
    pub nested: bool,
}

/// One event or nested block inside a statement.
#[derive(Debug, Clone)]
pub enum Piece {
    /// A zero-argument `.lock()`/`.read()`/`.write()`/`.try_lock()` on a
    /// field — a ranked-lock acquisition candidate.
    Acquire {
        /// Last identifier of the receiver chain (`self.mem.active` →
        /// `active`); empty when unrecognisable.
        recv: String,
        /// Source line.
        line: u32,
        /// True when inside a nested group (argument position).
        nested: bool,
        /// True when textually inside a closure.
        in_closure: bool,
        /// True when the chain continues past the acquisition
        /// (`x.read().len()`): the guard is a temporary even under `let`.
        chained: bool,
    },
    /// A call expression.
    Call(CallEv),
    /// An explicit `drop(name)`.
    DropOf {
        /// The dropped binding.
        name: String,
        /// Source line.
        line: u32,
    },
    /// A nested block.
    Nested(Block),
}

/// Keywords that make a following brace group a statement boundary.
fn is_block_kw(t: &Tree) -> bool {
    ["if", "while", "for", "loop", "match", "unsafe", "else"].iter().any(|k| t.is_ident(k))
}

/// Parses a brace group's trees into a [`Block`].
pub fn parse_block(trees: &[Tree]) -> Block {
    let mut stmts = Vec::new();
    let mut start = 0usize;
    let mut i = 0usize;
    let mut semi_terminated = false;
    while i < trees.len() {
        let t = &trees[i];
        if t.is_punct(";") {
            if i > start {
                stmts.push(make_stmt(&trees[start..i]));
            }
            semi_terminated = true;
            start = i + 1;
            i += 1;
            continue;
        }
        if t.group(Some(Delim::Brace)).is_some() {
            let begins_block_stmt =
                i == start || (start < trees.len() && is_block_kw(&trees[start]));
            let next_continues = trees.get(i + 1).is_some_and(|n| {
                n.is_ident("else") || n.is_punct("?") || n.is_punct(".") || n.is_punct(";")
            });
            if begins_block_stmt && !next_continues {
                stmts.push(make_stmt(&trees[start..=i]));
                semi_terminated = false;
                start = i + 1;
            }
        }
        i += 1;
    }
    if start < trees.len() {
        stmts.push(make_stmt(&trees[start..]));
        semi_terminated = false;
    }
    if !semi_terminated {
        if let Some(last) = stmts.last_mut() {
            last.is_tail = true;
        }
    }
    Block { stmts }
}

/// Builds one statement from its trees.
fn make_stmt(trees: &[Tree]) -> Stmt {
    let line = trees.first().map_or(0, Tree::line);
    let let_name = extract_let_name(trees);
    let extends_temps = trees.first().is_some_and(|h| h.is_ident("match"))
        || (trees.first().is_some_and(|h| h.is_ident("if") || h.is_ident("while"))
            && trees.get(1).is_some_and(|n| n.is_ident("let")));
    let mut pieces = Vec::new();
    scan_level(trees, false, false, &mut pieces);
    Stmt { line, let_name, is_tail: false, extends_temps, pieces }
}

/// `let [mut] name [: ty] = …` → `Some(name)`; destructuring → `None`.
fn extract_let_name(trees: &[Tree]) -> Option<String> {
    let head = trees.first()?;
    if !head.is_ident("let") && !head.is_ident("static") && !head.is_ident("const") {
        return None;
    }
    let mut name = None;
    for t in &trees[1..] {
        if t.is_punct("=") || t.is_punct(":") {
            break;
        }
        match t.leaf() {
            Some(tok) if tok.kind == Kind::Ident => {
                if tok.text == "mut" || tok.text == "ref" {
                    continue;
                }
                if name.is_some() {
                    return None; // not a simple pattern
                }
                name = Some(tok.text.clone());
            }
            Some(_) => continue,
            None => return None, // tuple/struct pattern
        }
    }
    name
}

/// Whether the tree before a `|` is an operand (making the `|` a binary
/// operator rather than a closure head).
fn is_operand(prev: Option<&Tree>) -> bool {
    match prev {
        None => false,
        Some(Tree::Group(_)) => true,
        Some(Tree::Leaf(t)) => match t.kind {
            Kind::Ident => t.text != "move" && t.text != "return",
            Kind::Num | Kind::Str | Kind::Char | Kind::Lifetime => true,
            _ => false,
        },
    }
}

/// Scans one nesting level of a statement, pushing events in textual
/// order. `nested` marks argument position (inside parens/brackets).
fn scan_level(trees: &[Tree], nested: bool, in_closure: bool, pieces: &mut Vec<Piece>) {
    let mut i = 0usize;
    let mut closure_tail = false; // a brace-less closure body covers the rest of this level
    let mut last_kw: Option<String> = None;
    while i < trees.len() {
        let in_closure = in_closure || closure_tail;
        match &trees[i] {
            Tree::Leaf(t) => {
                if t.kind == Kind::Ident && is_block_kw(&trees[i]) {
                    last_kw = Some(t.text.clone());
                    i += 1;
                    continue;
                }
                // method call: `.name(...)`
                if t.is_punct(".") {
                    if let (Some(m), Some(args)) = (
                        trees.get(i + 1).and_then(Tree::leaf).filter(|m| m.kind == Kind::Ident),
                        trees.get(i + 2).and_then(|a| a.group(Some(Delim::Paren))),
                    ) {
                        let is_acquire = args.trees.is_empty()
                            && matches!(m.text.as_str(), "lock" | "read" | "write" | "try_lock");
                        if is_acquire {
                            let chained = trees
                                .get(i + 3)
                                .is_some_and(|n| n.is_punct(".") || n.is_punct("?"));
                            pieces.push(Piece::Acquire {
                                recv: receiver_of(trees, i),
                                line: m.line,
                                nested,
                                in_closure,
                                chained,
                            });
                        } else {
                            pieces.push(Piece::Call(CallEv {
                                path: vec![m.text.clone()],
                                method: true,
                                recv: receiver_of(trees, i),
                                line: m.line,
                                nested,
                            }));
                        }
                        scan_level(&args.trees, true, in_closure, pieces);
                        i += 3;
                        continue;
                    }
                    i += 1;
                    continue;
                }
                // path (possibly a call): `a::b::c(...)`
                if t.kind == Kind::Ident {
                    let mut path = vec![t.text.clone()];
                    let mut k = i + 1;
                    while trees.get(k).is_some_and(|p| p.is_punct("::"))
                        && trees
                            .get(k + 1)
                            .and_then(Tree::leaf)
                            .is_some_and(|n| n.kind == Kind::Ident)
                    {
                        path.push(trees[k + 1].leaf().expect("ident").text.clone());
                        k += 2;
                    }
                    if let Some(args) = trees.get(k).and_then(|a| a.group(Some(Delim::Paren))) {
                        if path.len() == 1 && path[0] == "drop" && !args.trees.is_empty() {
                            if let Some(name) =
                                single_ident_arg(args).filter(|_| args.trees.len() <= 3)
                            {
                                pieces.push(Piece::DropOf { name, line: t.line });
                                scan_level(&args.trees, true, in_closure, pieces);
                                i = k + 1;
                                continue;
                            }
                        }
                        pieces.push(Piece::Call(CallEv {
                            path,
                            method: false,
                            recv: String::new(),
                            line: t.line,
                            nested,
                        }));
                        scan_level(&args.trees, true, in_closure, pieces);
                        i = k + 1;
                        continue;
                    }
                    i = k.max(i + 1);
                    continue;
                }
                // closure head
                if (t.is_punct("|") || t.is_punct("||"))
                    && !is_operand(if i == 0 { None } else { Some(&trees[i - 1]) })
                {
                    let body_at = if t.is_punct("||") {
                        i + 1
                    } else {
                        // skip to the closing `|` of the parameter list
                        let mut j = i + 1;
                        while j < trees.len() && !trees[j].is_punct("|") {
                            j += 1;
                        }
                        j + 1
                    };
                    if let Some(body) =
                        trees.get(body_at).and_then(|b| b.group(Some(Delim::Brace)))
                    {
                        pieces.push(Piece::Nested(parse_block(&body.trees)));
                        i = body_at + 1;
                    } else {
                        closure_tail = true;
                        i = body_at;
                    }
                    continue;
                }
                i += 1;
            }
            Tree::Group(g) => {
                match g.delim {
                    Delim::Paren | Delim::Bracket => {
                        scan_level(&g.trees, true, in_closure, pieces);
                    }
                    Delim::Brace => {
                        if last_kw.as_deref() == Some("match") {
                            pieces.extend(parse_match_arms(g).into_iter().map(Piece::Nested));
                        } else {
                            pieces.push(Piece::Nested(parse_block(&g.trees)));
                        }
                        last_kw = None;
                    }
                }
                i += 1;
            }
        }
    }
}

/// The sole identifier argument of a call, if the args are that simple.
fn single_ident_arg(args: &Group) -> Option<String> {
    let idents: Vec<_> = args
        .trees
        .iter()
        .filter_map(|t| t.leaf().filter(|tok| tok.kind == Kind::Ident))
        .collect();
    match idents.as_slice() {
        [only] => Some(only.text.clone()),
        _ => None,
    }
}

/// Receiver of a method chain ending at the `.` at `dot`: the nearest
/// preceding identifier, looking through one index expression.
fn receiver_of(trees: &[Tree], dot: usize) -> String {
    let mut j = dot;
    while j > 0 {
        j -= 1;
        match &trees[j] {
            Tree::Leaf(t) if t.kind == Kind::Ident => return t.text.clone(),
            Tree::Group(g) if g.delim == Delim::Bracket => continue, // `xs[i].lock()`
            _ => break,
        }
    }
    String::new()
}

/// Splits a `match` body group into one block per arm (pattern and guard
/// tokens are not modelled; arm bodies are).
fn parse_match_arms(g: &Group) -> Vec<Block> {
    let mut arms = Vec::new();
    let mut i = 0usize;
    while i < g.trees.len() {
        if !g.trees[i].is_punct("=>") {
            i += 1;
            continue;
        }
        let body_at = i + 1;
        match g.trees.get(body_at) {
            Some(Tree::Group(b)) if b.delim == Delim::Brace => {
                arms.push(parse_block(&b.trees));
                i = body_at + 1;
            }
            Some(_) => {
                // expression arm: trees until the next top-level comma
                let mut j = body_at;
                while j < g.trees.len() && !g.trees[j].is_punct(",") {
                    j += 1;
                }
                let mut stmt = make_stmt(&g.trees[body_at..j]);
                stmt.is_tail = true;
                arms.push(Block { stmts: vec![stmt] });
                i = j;
            }
            None => break,
        }
    }
    arms
}

/// Lock constructor found anywhere in a file.
#[derive(Debug, Clone)]
pub struct LockCtor {
    /// The binding the lock is stored under (struct field, `let`/`static`
    /// name), when recognisable.
    pub binding: Option<String>,
    /// The `LockRank` variant named in the constructor args.
    pub rank: String,
    /// True for `with_order` constructors (same-rank nesting is legal,
    /// index order checked at runtime).
    pub ordered: bool,
    /// Source line.
    pub line: u32,
}

/// Scans a whole file's trees for `Mutex::new/with_order` and
/// `RwLock::new/with_order` constructors that name a `LockRank`, tracking
/// the binding context (struct-literal field, `let` name, `static` name).
pub fn collect_lock_ctors(trees: &[Tree]) -> Vec<LockCtor> {
    let mut out = Vec::new();
    ctor_scan(trees, None, &mut out);
    out
}

fn ctor_scan(trees: &[Tree], outer: Option<&str>, out: &mut Vec<LockCtor>) {
    let mut field: Option<String> = None;
    let mut let_name: Option<String> = None;
    let mut i = 0usize;
    while i < trees.len() {
        match &trees[i] {
            Tree::Leaf(t) => {
                if t.is_punct(",") || t.is_punct(";") {
                    field = None;
                    if t.is_punct(";") {
                        let_name = None;
                    }
                    i += 1;
                    continue;
                }
                if t.is_ident("let") || t.is_ident("static") || t.is_ident("const") {
                    // take the binding name: next ident that isn't mut/ref
                    let mut j = i + 1;
                    while let Some(n) = trees.get(j).and_then(Tree::leaf) {
                        if n.kind == Kind::Ident && n.text != "mut" && n.text != "ref" {
                            let_name = Some(n.text.clone());
                            break;
                        }
                        if n.kind != Kind::Ident {
                            break;
                        }
                        j += 1;
                    }
                    i += 1;
                    continue;
                }
                if t.kind == Kind::Ident {
                    // `name:` (single colon) sets the field context
                    if trees.get(i + 1).is_some_and(|n| n.is_punct(":")) {
                        field = Some(t.text.clone());
                        i += 2;
                        continue;
                    }
                    // `Mutex::new(…)` / `RwLock::with_order(…)`
                    if (t.text == "Mutex" || t.text == "RwLock")
                        && trees.get(i + 1).is_some_and(|n| n.is_punct("::"))
                    {
                        if let Some(kind) = trees
                            .get(i + 2)
                            .and_then(Tree::leaf)
                            .filter(|k| k.text == "new" || k.text == "with_order")
                        {
                            if let Some(args) =
                                trees.get(i + 3).and_then(|a| a.group(Some(Delim::Paren)))
                            {
                                if let Some(rank) = find_rank(args) {
                                    let binding = field
                                        .clone()
                                        .or_else(|| let_name.clone())
                                        .or_else(|| outer.map(str::to_string));
                                    out.push(LockCtor {
                                        binding,
                                        rank,
                                        ordered: kind.text == "with_order",
                                        line: t.line,
                                    });
                                }
                            }
                        }
                    }
                }
                i += 1;
            }
            Tree::Group(g) => {
                let ctx = field.as_deref().or(let_name.as_deref()).or(outer);
                ctor_scan(&g.trees, ctx, out);
                i += 1;
            }
        }
    }
}

/// Finds `LockRank::Variant` inside a constructor's argument group.
fn find_rank(args: &Group) -> Option<String> {
    let trees = &args.trees;
    for (i, t) in trees.iter().enumerate() {
        if t.is_ident("LockRank")
            && trees.get(i + 1).is_some_and(|p| p.is_punct("::"))
        {
            if let Some(v) = trees.get(i + 2).and_then(Tree::leaf) {
                if v.kind == Kind::Ident {
                    return Some(v.text.clone());
                }
            }
        }
    }
    None
}
