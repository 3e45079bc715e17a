//! Token trees and the item walker.
//!
//! Token trees group the flat token stream by matched delimiters (the
//! rustc/proc-macro idiom). The item walker then recovers the coarse item
//! structure the analyses need: functions (with their body group, return
//! type idents and `impl` context), `#[cfg(test)]` regions tracked
//! *structurally* by the brace group they attach to, and `impl Drop`
//! targets for the lock-order analysis's temporary-drop modelling.

use crate::lexer::{Delim, Kind, Tok};

/// A token tree: a leaf token or a delimited group.
#[derive(Debug, Clone)]
pub enum Tree {
    /// A single non-delimiter token.
    Leaf(Tok),
    /// A matched `(…)`, `[…]` or `{…}` group.
    Group(Group),
}

/// A delimited group of token trees.
#[derive(Debug, Clone)]
pub struct Group {
    /// Which delimiter pair encloses the group.
    pub delim: Delim,
    /// Line of the opening delimiter.
    pub open_line: u32,
    /// Line of the closing delimiter (== `open_line` if unterminated).
    pub close_line: u32,
    /// The trees between the delimiters.
    pub trees: Vec<Tree>,
}

impl Tree {
    /// The leaf token, if this is a leaf.
    pub fn leaf(&self) -> Option<&Tok> {
        match self {
            Tree::Leaf(t) => Some(t),
            Tree::Group(_) => None,
        }
    }

    /// The group, if this is one (optionally of a specific delimiter).
    pub fn group(&self, delim: Option<Delim>) -> Option<&Group> {
        match self {
            Tree::Group(g) if delim.is_none() || delim == Some(g.delim) => Some(g),
            _ => None,
        }
    }

    /// True for an identifier leaf with this text.
    pub fn is_ident(&self, s: &str) -> bool {
        self.leaf().is_some_and(|t| t.is_ident(s))
    }

    /// True for a punctuation leaf with this text.
    pub fn is_punct(&self, s: &str) -> bool {
        self.leaf().is_some_and(|t| t.is_punct(s))
    }

    /// Source line of the tree's first token.
    pub fn line(&self) -> u32 {
        match self {
            Tree::Leaf(t) => t.line,
            Tree::Group(g) => g.open_line,
        }
    }
}

/// Builds token trees from a flat stream. Stray closing delimiters are
/// dropped and unterminated groups close at end of input: half-written
/// code must degrade, not abort the lint.
pub fn build_trees(toks: Vec<Tok>) -> Vec<Tree> {
    // stack of (delim, open_line, children)
    let mut stack: Vec<(Delim, u32, Vec<Tree>)> = Vec::new();
    let mut top: Vec<Tree> = Vec::new();
    for tok in toks {
        match tok.kind {
            Kind::Open(d) => {
                stack.push((d, tok.line, std::mem::take(&mut top)));
            }
            Kind::Close(d) => {
                // pop until a matching opener is found (mismatches are
                // treated as the innermost group closing early)
                if stack.iter().any(|(od, _, _)| *od == d) {
                    loop {
                        let (od, open_line, parent) = stack.pop().expect("matching opener");
                        let group = Group {
                            delim: od,
                            open_line,
                            close_line: tok.line,
                            trees: std::mem::replace(&mut top, parent),
                        };
                        top.push(Tree::Group(group));
                        if od == d {
                            break;
                        }
                    }
                }
            }
            _ => top.push(Tree::Leaf(tok)),
        }
    }
    while let Some((od, open_line, parent)) = stack.pop() {
        let close_line = top.last().map_or(open_line, |t| t.line());
        let group =
            Group { delim: od, open_line, close_line, trees: std::mem::replace(&mut top, parent) };
        top.push(Tree::Group(group));
    }
    top
}

/// One function item with everything the analyses need.
#[derive(Debug, Clone)]
pub struct Function {
    /// The function's name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any (`impl Drop for X` → `X`).
    pub impl_type: Option<String>,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// True when the function is test-only: `#[test]`, `#[cfg(test)]`, or
    /// inside a `#[cfg(test)]` module/impl.
    pub is_test: bool,
    /// Identifier tokens of the return type (`-> Result<PageId, E>` →
    /// `[Result, PageId, E]`); empty for `()`.
    pub ret_idents: Vec<String>,
    /// The body's brace group.
    pub body: Group,
}

/// Items recovered from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    /// Every function with a body, in source order.
    pub functions: Vec<Function>,
    /// Line spans (1-based, inclusive) covered by `#[cfg(test)]` items.
    pub test_spans: Vec<(u32, u32)>,
    /// Type names with an `impl Drop` in this file.
    pub drop_impl_types: Vec<String>,
}

impl FileItems {
    /// Whether a 1-based line is inside a `#[cfg(test)]` item.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(a, b)| a <= line && line <= b)
    }
}

/// Walks `trees` (a whole file) and collects items.
pub fn collect_items(trees: &[Tree]) -> FileItems {
    let mut items = FileItems::default();
    walk_items(trees, false, None, &mut items);
    items
}

/// True when an attribute group (`#[…]`'s bracket trees) is `cfg(test)`
/// or `cfg(all(test, …))`-shaped.
fn attr_is_cfg_test(attr: &Group) -> bool {
    let mut it = attr.trees.iter();
    let Some(first) = it.next() else { return false };
    if !first.is_ident("cfg") {
        return false;
    }
    let Some(args) = it.next().and_then(|t| t.group(Some(Delim::Paren))) else { return false };
    contains_ident(&args.trees, "test")
}

/// True when an attribute marks a test function (`#[test]`, `#[bench]`,
/// or a path ending in `::test`).
fn attr_is_test_fn(attr: &Group) -> bool {
    attr.trees
        .iter()
        .any(|t| t.is_ident("test") || t.is_ident("bench"))
        && !attr.trees.first().is_some_and(|t| t.is_ident("cfg"))
}

fn contains_ident(trees: &[Tree], name: &str) -> bool {
    trees.iter().any(|t| match t {
        Tree::Leaf(tok) => tok.is_ident(name),
        Tree::Group(g) => contains_ident(&g.trees, name),
    })
}

/// Extracts the self-type name of an `impl` header segment (the trees
/// between `impl` and the body brace): the last path segment of the type
/// after `for` (trait impls) or of the first path (inherent impls), with
/// generic parameter lists skipped.
fn impl_type_name(header: &[Tree]) -> Option<String> {
    // slice after the last `for` at angle depth 0, if any
    let mut depth = 0i32;
    let mut after_for: Option<usize> = None;
    for (i, t) in header.iter().enumerate() {
        if t.is_punct("<") {
            depth += 1;
        } else if t.is_punct(">") {
            depth -= 1;
        } else if depth == 0 && t.is_ident("for") {
            after_for = Some(i + 1);
        }
    }
    let seg = &header[after_for.unwrap_or(0)..];
    // first path at angle depth 0: idents joined by `::`; keep the last
    let mut depth = 0i32;
    let mut last: Option<String> = None;
    let mut i = 0usize;
    while i < seg.len() {
        match &seg[i] {
            Tree::Leaf(t) if t.is_punct("<") => depth += 1,
            Tree::Leaf(t) if t.is_punct(">") => depth -= 1,
            Tree::Leaf(t) if depth == 0 && t.kind == Kind::Ident => {
                if matches!(t.text.as_str(), "dyn" | "mut" | "const") {
                    i += 1;
                    continue;
                }
                last = Some(t.text.clone());
                // continue through `::` path segments only
                if !seg.get(i + 1).is_some_and(|n| n.is_punct("::")) {
                    break;
                }
                i += 1; // skip the `::`
            }
            Tree::Leaf(t) if depth == 0 && (t.is_punct("&") || t.kind == Kind::Lifetime) => {}
            _ => {}
        }
        i += 1;
    }
    last
}

/// Whether the trait being implemented (the path before `for`) is `Drop`.
fn impl_is_drop(header: &[Tree]) -> bool {
    let mut depth = 0i32;
    for (i, t) in header.iter().enumerate() {
        if t.is_punct("<") {
            depth += 1;
        } else if t.is_punct(">") {
            depth -= 1;
        } else if depth == 0 && t.is_ident("for") {
            return header[..i].iter().any(|t| t.is_ident("Drop"));
        }
    }
    false
}

fn walk_items(trees: &[Tree], in_test: bool, impl_type: Option<&str>, items: &mut FileItems) {
    let mut i = 0usize;
    let mut pending_cfg_test = false;
    let mut pending_test_fn = false;
    let mut pending_line: u32 = 0;

    macro_rules! reset_pending {
        () => {{
            pending_cfg_test = false;
            pending_test_fn = false;
        }};
    }

    while i < trees.len() {
        let t = &trees[i];
        // attributes: `#[…]` accumulates, `#![…]` is skipped
        if t.is_punct("#") {
            if trees.get(i + 1).is_some_and(|n| n.is_punct("!")) {
                i += 3.min(trees.len() - i);
                continue;
            }
            if let Some(attr) = trees.get(i + 1).and_then(|n| n.group(Some(Delim::Bracket))) {
                let cfg_test = attr_is_cfg_test(attr);
                let test_fn = attr_is_test_fn(attr);
                if (cfg_test || test_fn) && !pending_cfg_test && !pending_test_fn {
                    pending_line = t.line();
                }
                pending_cfg_test |= cfg_test;
                pending_test_fn |= test_fn;
                i += 2;
                continue;
            }
        }
        // `mod name { … }`
        if t.is_ident("mod") {
            if let Some(body) = trees.get(i + 2).and_then(|b| b.group(Some(Delim::Brace))) {
                let test = in_test || pending_cfg_test;
                if pending_cfg_test {
                    items.test_spans.push((pending_line, body.close_line));
                }
                walk_items(&body.trees, test, None, items);
                reset_pending!();
                i += 3;
                continue;
            }
            // `mod name;` — nothing to walk
            reset_pending!();
            i += 1;
            continue;
        }
        // `impl … { … }` / `trait Name { … }`
        if t.is_ident("impl") || t.is_ident("trait") {
            let start = i + 1;
            let mut j = start;
            while j < trees.len() && trees[j].group(Some(Delim::Brace)).is_none() {
                // a terminating `;` means a bodyless item (e.g. `trait X;`)
                if trees[j].is_punct(";") {
                    break;
                }
                j += 1;
            }
            if let Some(body) = trees.get(j).and_then(|b| b.group(Some(Delim::Brace))) {
                let header = &trees[start..j];
                let ty = if t.is_ident("trait") {
                    header.first().and_then(|h| h.leaf()).map(|h| h.text.clone())
                } else {
                    impl_type_name(header)
                };
                if t.is_ident("impl") && impl_is_drop(header) {
                    if let Some(ty) = &ty {
                        items.drop_impl_types.push(ty.clone());
                    }
                }
                let test = in_test || pending_cfg_test;
                if pending_cfg_test {
                    items.test_spans.push((pending_line, body.close_line));
                }
                walk_items(&body.trees, test, ty.as_deref(), items);
                reset_pending!();
                i = j + 1;
                continue;
            }
            reset_pending!();
            i = j + 1;
            continue;
        }
        // `fn name(…) -> … { … }`
        if t.is_ident("fn") {
            if let Some((func, next)) = parse_fn(trees, i, in_test, impl_type) {
                let is_test = func.is_test || pending_cfg_test || pending_test_fn;
                if pending_cfg_test || pending_test_fn {
                    let span_start = pending_line.min(func.line).max(1);
                    items.test_spans.push((span_start, func.body.close_line));
                }
                items.functions.push(Function { is_test, ..func });
                reset_pending!();
                i = next;
                continue;
            }
            reset_pending!();
            i += 1;
            continue;
        }
        // any other item: a brace group or `;` consumes the pending attrs
        if let Some(g) = t.group(Some(Delim::Brace)) {
            if pending_cfg_test {
                items.test_spans.push((pending_line, g.close_line));
            }
            reset_pending!();
            i += 1;
            continue;
        }
        if t.is_punct(";") {
            if pending_cfg_test {
                items.test_spans.push((pending_line, t.line()));
            }
            reset_pending!();
        }
        i += 1;
    }
}

/// Parses a `fn` item starting at `trees[at]` (the `fn` keyword). Returns
/// the function and the index after its body. Bodyless declarations
/// (trait methods) return `None`.
fn parse_fn(
    trees: &[Tree],
    at: usize,
    in_test: bool,
    impl_type: Option<&str>,
) -> Option<(Function, usize)> {
    let fn_line = trees[at].line();
    let name = trees.get(at + 1)?.leaf().filter(|t| t.kind == Kind::Ident)?.text.clone();
    // find the argument list: the first paren group at angle depth 0
    let mut j = at + 2;
    let mut depth = 0i32;
    let args_at = loop {
        let t = trees.get(j)?;
        if t.is_punct("<") {
            depth += 1;
        } else if t.is_punct(">") {
            depth -= 1;
        } else if depth == 0 && t.group(Some(Delim::Paren)).is_some() {
            break j;
        } else if t.is_punct(";") {
            return None;
        }
        j += 1;
    };
    // return type idents (between `->` and the body/where clause)
    let mut ret_idents = Vec::new();
    let mut j = args_at + 1;
    let mut in_ret = false;
    let body_at = loop {
        let t = trees.get(j)?;
        if t.group(Some(Delim::Brace)).is_some() {
            break j;
        }
        if t.is_punct(";") {
            return None; // bodyless declaration
        }
        if t.is_punct("->") {
            in_ret = true;
        } else if t.is_ident("where") {
            in_ret = false;
        } else if in_ret {
            if let Some(tok) = t.leaf() {
                if tok.kind == Kind::Ident {
                    ret_idents.push(tok.text.clone());
                }
            }
        }
        j += 1;
    };
    let body = trees[body_at].group(Some(Delim::Brace))?.clone();
    Some((
        Function {
            name,
            impl_type: impl_type.map(|s| s.to_string()),
            line: fn_line,
            is_test: in_test,
            ret_idents,
            body,
        },
        body_at + 1,
    ))
}
