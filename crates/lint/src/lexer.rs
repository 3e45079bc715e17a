//! A minimal Rust lexer: the foundation the lock-order analysis sits on.
//!
//! The lexer turns source text into a flat token stream with 1-based line
//! numbers. It understands the constructs that defeated the old line
//! scanner by design — raw strings with hash fences (`r#"…"#`), byte and
//! byte-raw strings, *nested* block comments, and the char-literal vs.
//! lifetime ambiguity — so a lock call can never be faked or masked by
//! literal or comment content: literals become single `Str`/`Char` tokens
//! and comments produce no tokens at all.
//!
//! Only the punctuation joins the analyses care about are combined
//! (`::`, `->`, `=>`, `..=`, `..`, `&&`, `||`); notably `>>` is left as
//! two tokens so `Vec<Vec<u8>>` closes two angle-bracket levels.

/// The three bracket kinds that form token trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delim {
    /// `( … )`
    Paren,
    /// `[ … ]`
    Bracket,
    /// `{ … }`
    Brace,
}

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword (`fn`, `self`, `truncate_prefix`, …).
    Ident,
    /// Lifetime (`'a`), without the quote.
    Lifetime,
    /// String literal of any flavour; `text` holds the *content* between
    /// the quotes (escapes unprocessed).
    Str,
    /// Char or byte literal; `text` holds the content between the quotes.
    Char,
    /// Numeric literal, including suffixes (`0x1f`, `1_000u64`, `1.5`).
    Num,
    /// Punctuation; `text` holds the (possibly combined) operator.
    Punct,
    /// Opening delimiter.
    Open(Delim),
    /// Closing delimiter.
    Close(Delim),
}

/// One token with its source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// What kind of token this is.
    pub kind: Kind,
    /// The token text (see [`Kind`] for what it holds per kind).
    pub text: String,
    /// 1-based line of the token's first byte.
    pub line: u32,
}

impl Tok {
    /// True for an identifier with exactly this text.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == Kind::Ident && self.text == s
    }

    /// True for punctuation with exactly this text.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == Kind::Punct && self.text == s
    }
}

fn ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes `source` into a token stream. Unterminated literals and comments
/// are tolerated (the token simply extends to end of input): the lint must
/// degrade gracefully on half-written code rather than panic.
pub fn lex(source: &str) -> Vec<Tok> {
    let b = source.as_bytes();
    let mut toks: Vec<Tok> = Vec::new();
    let mut line: u32 = 1;
    let mut i = 0usize;

    while i < b.len() {
        let c = b[i];
        // whitespace
        if c == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // line comment (incl. doc comments)
        if c == b'/' && b.get(i + 1) == Some(&b'/') {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        // block comment, nesting tracked
        if c == b'/' && b.get(i + 1) == Some(&b'*') {
            let mut depth = 1usize;
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    if b[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            continue;
        }
        // identifier — or a literal prefix (r"", r#""#, b"", br"", b'')
        if ident_start(c) {
            let start = i;
            while i < b.len() && ident_continue(b[i]) {
                i += 1;
            }
            let ident = &source[start..i];
            match ident {
                "r" | "br" if matches!(b.get(i), Some(b'"') | Some(b'#')) => {
                    if let Some((tok, next, lines)) = lex_raw_string(source, i, line) {
                        line += lines;
                        i = next;
                        toks.push(tok);
                        continue;
                    }
                }
                "b" if b.get(i) == Some(&b'"') => {
                    let (tok, next, lines) = lex_string(source, i, line);
                    line += lines;
                    i = next;
                    toks.push(tok);
                    continue;
                }
                "b" if b.get(i) == Some(&b'\'') => {
                    if let Some((tok, next)) = lex_char(source, i, line) {
                        i = next;
                        toks.push(tok);
                        continue;
                    }
                }
                _ => {}
            }
            toks.push(Tok { kind: Kind::Ident, text: ident.to_string(), line });
            continue;
        }
        // string literal
        if c == b'"' {
            let (tok, next, lines) = lex_string(source, i, line);
            line += lines;
            i = next;
            toks.push(tok);
            continue;
        }
        // char literal vs. lifetime
        if c == b'\'' {
            if let Some((tok, next)) = lex_char(source, i, line) {
                i = next;
                toks.push(tok);
            } else {
                // lifetime: quote followed by an identifier
                let start = i + 1;
                let mut j = start;
                while j < b.len() && ident_continue(b[j]) {
                    j += 1;
                }
                toks.push(Tok { kind: Kind::Lifetime, text: source[start..j].to_string(), line });
                i = j;
            }
            continue;
        }
        // number (incl. float dot, suffix letters; `1.5e-3` splits at the
        // sign, which no rule cares about)
        if c.is_ascii_digit() {
            let start = i;
            while i < b.len() && (ident_continue(b[i]) || b[i] == b'.') {
                if b[i] == b'.' {
                    // only consume the dot for a float: `0..n` must stay a
                    // range, `x.0` field access is reached via the punct arm
                    if b.get(i + 1).is_some_and(|d| d.is_ascii_digit()) {
                        i += 1;
                    } else {
                        break;
                    }
                }
                i += 1;
            }
            toks.push(Tok { kind: Kind::Num, text: source[start..i].to_string(), line });
            continue;
        }
        // delimiters
        let delim = match c {
            b'(' => Some((Kind::Open(Delim::Paren), "(")),
            b')' => Some((Kind::Close(Delim::Paren), ")")),
            b'[' => Some((Kind::Open(Delim::Bracket), "[")),
            b']' => Some((Kind::Close(Delim::Bracket), "]")),
            b'{' => Some((Kind::Open(Delim::Brace), "{")),
            b'}' => Some((Kind::Close(Delim::Brace), "}")),
            _ => None,
        };
        if let Some((kind, text)) = delim {
            toks.push(Tok { kind, text: text.to_string(), line });
            i += 1;
            continue;
        }
        // punctuation, longest-match over the combined set
        let rest = &source[i..];
        let combined = ["..=", "::", "->", "=>", "..", "&&", "||"]
            .iter()
            .find(|op| rest.starts_with(**op));
        if let Some(op) = combined {
            toks.push(Tok { kind: Kind::Punct, text: (*op).to_string(), line });
            i += op.len();
        } else {
            toks.push(Tok { kind: Kind::Punct, text: (c as char).to_string(), line });
            i += 1;
        }
    }
    toks
}

/// Lexes a plain (or byte) string starting at the opening quote `at`.
/// Returns the token, the index after the closing quote, and how many
/// newlines the literal spanned.
fn lex_string(source: &str, at: usize, line: u32) -> (Tok, usize, u32) {
    let b = source.as_bytes();
    let mut j = at + 1;
    let mut lines = 0u32;
    let start = j;
    while j < b.len() {
        match b[j] {
            b'\\' => {
                if b.get(j + 1) == Some(&b'\n') {
                    lines += 1;
                }
                j += 2;
            }
            b'"' => break,
            b'\n' => {
                lines += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    let end = j.min(b.len());
    let content = source.get(start..end).unwrap_or("").to_string();
    (Tok { kind: Kind::Str, text: content, line }, end.saturating_add(1).min(b.len() + 1), lines)
}

/// Lexes a raw (or raw-byte) string whose hash fence starts at `at` (the
/// first `#` or the quote). Returns `None` if this is not actually a raw
/// string (e.g. `r#foo` raw identifier).
fn lex_raw_string(source: &str, at: usize, line: u32) -> Option<(Tok, usize, u32)> {
    let b = source.as_bytes();
    let mut j = at;
    let mut hashes = 0usize;
    while b.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if b.get(j) != Some(&b'"') {
        return None;
    }
    j += 1;
    let start = j;
    let mut lines = 0u32;
    while j < b.len() {
        if b[j] == b'"' && b[j + 1..].iter().take(hashes).all(|&h| h == b'#') && b[j + 1..].len() >= hashes {
            let content = source[start..j].to_string();
            return Some((Tok { kind: Kind::Str, text: content, line }, j + 1 + hashes, lines));
        }
        if b[j] == b'\n' {
            lines += 1;
        }
        j += 1;
    }
    Some((Tok { kind: Kind::Str, text: source[start..].to_string(), line }, b.len(), lines))
}

/// Lexes a char (or byte-char) literal starting at the quote `at`; returns
/// `None` when the quote begins a lifetime instead.
fn lex_char(source: &str, at: usize, line: u32) -> Option<(Tok, usize)> {
    let b = source.as_bytes();
    let is_char = match b.get(at + 1) {
        Some(b'\\') => true,
        // `'x'` closes immediately; `'a>` or `'a,` is a lifetime
        Some(_) => b.get(at + 2) == Some(&b'\''),
        None => false,
    };
    if !is_char {
        return None;
    }
    let mut j = at + 1;
    if b.get(j) == Some(&b'\\') {
        j += 2; // skip the escape head so `'\''` terminates correctly
    }
    while j < b.len() && b[j] != b'\'' {
        j += 1;
    }
    let content = source.get(at + 1..j).unwrap_or("").to_string();
    Some((Tok { kind: Kind::Char, text: content, line }, (j + 1).min(b.len())))
}
