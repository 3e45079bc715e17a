//! The single-file rules, matched on the token stream rather than on
//! lines or regexes. Working on tokens closes the old masking window by
//! construction: string literals are single `Str` tokens and comments
//! never reach the stream, so `".unwrap()"` inside a banner string or a
//! nested block comment can no longer shadow (or fake) a violation.

use crate::lexer::{Delim, Kind, Tok};
use crate::{Finding, SourceMaps};

/// Files exempt from `raw-drop-page`: the page choke point and the cache's
/// invalidating wrapper.
pub const DROP_PAGE_EXEMPT: &[&str] =
    &["crates/lsm/src/reclaim.rs", "crates/storage/src/cache.rs"];

/// The crate whose page writes must go through the choke point's
/// `PageReservation::write` (the storage crate implements `write_page`).
pub const WRITE_PAGE_ROOT: &str = "crates/lsm/src/";

/// Crates whose non-test code must be panic-free.
pub const NO_PANIC_ROOTS: &[&str] = &["crates/storage/src/", "crates/lsm/src/"];

/// Every rule id the lint knows; `stale-allow` cross-checks markers
/// against this list.
pub const KNOWN_RULES: &[&str] = &[
    "raw-drop-page",
    "kill-point-registry",
    "no-panic",
    "unsafe-hygiene",
    "lock-order",
    "stale-allow",
];

/// Emits a finding unless the line is test code or carries an allow.
fn emit(
    rel: &str,
    maps: &SourceMaps,
    rule: &'static str,
    line: u32,
    message: &str,
    findings: &mut Vec<Finding>,
) {
    if maps.is_test_line(line) || maps.allowed(rule, line as usize) {
        return;
    }
    findings.push(Finding {
        rule,
        file: rel.to_string(),
        line: line as usize,
        message: message.to_string(),
    });
}

/// `t` is `.name(` — i.e. a method-call head for one of `names`.
fn method_head<'a>(toks: &'a [Tok], i: usize, names: &[&str]) -> Option<&'a Tok> {
    if !toks[i].is_punct(".") {
        return None;
    }
    let m = toks.get(i + 1).filter(|t| t.kind == Kind::Ident)?;
    if !names.contains(&m.text.as_str()) {
        return None;
    }
    toks.get(i + 2).filter(|t| t.kind == Kind::Open(Delim::Paren))?;
    Some(m)
}

/// `raw-drop-page`: page retirement, and page writes in `lethe-lsm`, must
/// go through the choke point.
pub fn raw_drop_page(rel: &str, toks: &[Tok], maps: &SourceMaps, findings: &mut Vec<Finding>) {
    if DROP_PAGE_EXEMPT.contains(&rel) {
        return;
    }
    let writes_checked = rel.starts_with(WRITE_PAGE_ROOT);
    for i in 0..toks.len() {
        if let Some(m) = method_head(toks, i, &["drop_page"]) {
            emit(
                rel,
                maps,
                "raw-drop-page",
                m.line,
                "raw drop_page call: route page retirement through \
                 lethe_lsm::reclaim::retire_page (cache invalidation and the retirement \
                 policy live there)",
                findings,
            );
        }
        if let Some(m) = method_head(toks, i, &["write_page"]).filter(|_| writes_checked) {
            emit(
                rel,
                maps,
                "raw-drop-page",
                m.line,
                "raw write_page call: write through lethe_lsm::reclaim::PageReservation::write \
                 so an error path retires the page instead of stranding it",
                findings,
            );
        }
    }
}

/// `no-panic`: storage/lsm non-test code must not have panic paths.
pub fn no_panic(rel: &str, toks: &[Tok], maps: &SourceMaps, findings: &mut Vec<Finding>) {
    if !NO_PANIC_ROOTS.iter().any(|root| rel.starts_with(root)) {
        return;
    }
    const MSG: &str = "panic path in storage/lsm code: return a StorageError, or justify \
                       with a `lint:allow(no-panic): reason` marker";
    for (i, t) in toks.iter().enumerate() {
        // `.unwrap()` (empty args) and `.expect(…)`
        if t.is_punct(".") {
            if let Some(m) = method_head(toks, i, &["unwrap"]) {
                if toks.get(i + 3).is_some_and(|c| c.kind == Kind::Close(Delim::Paren)) {
                    emit(rel, maps, "no-panic", m.line, MSG, findings);
                }
            }
            if let Some(m) = method_head(toks, i, &["expect"]) {
                emit(rel, maps, "no-panic", m.line, MSG, findings);
            }
        }
        // `panic!(…)` and friends
        if t.kind == Kind::Ident
            && matches!(t.text.as_str(), "panic" | "unreachable" | "todo" | "unimplemented")
            && toks.get(i + 1).is_some_and(|b| b.is_punct("!"))
            && toks.get(i + 2).is_some_and(|o| matches!(o.kind, Kind::Open(_)))
        {
            emit(rel, maps, "no-panic", t.line, MSG, findings);
        }
    }
}

/// `stale-allow`: every `lint:allow` marker must reference a rule that
/// still exists (a marker naming a dead rule is a silent no-op).
pub fn stale_allow(rel: &str, maps: &SourceMaps, findings: &mut Vec<Finding>) {
    // the lint's own sources talk about marker syntax in docs and
    // messages; everything else must reference live rules
    if rel.starts_with("crates/lint/") {
        return;
    }
    for (line, rules) in maps.allow_entries() {
        for rule in rules {
            if !KNOWN_RULES.contains(&rule.as_str()) {
                findings.push(Finding {
                    rule: "stale-allow",
                    file: rel.to_string(),
                    line,
                    message: format!(
                        "lint:allow references unknown rule {rule:?}; the marker suppresses \
                         nothing (known rules: {})",
                        KNOWN_RULES.join(", ")
                    ),
                });
            }
        }
    }
}

/// Fail-point sites: `.check("name")` string args with their lines,
/// non-test only.
pub fn kill_point_sites(toks: &[Tok], maps: &SourceMaps) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if method_head(toks, i, &["check"]).is_some() {
            if let Some(s) = toks.get(i + 3).filter(|t| t.kind == Kind::Str) {
                if !maps.is_test_line(s.line) {
                    out.push((s.text.clone(), s.line));
                }
            }
        }
    }
    out
}
