//! Violations that naive comment/string blanking used to mask: each
//! real violation sits right after a construct (raw string, nested
//! block comment) that a regex-based scrubber mis-tracks.
//! Expected: exactly two `no-panic` findings.

/// The raw string contains quotes and a panic-shaped token; the
/// `unwrap` on the next line is the real violation.
pub fn parse_after_banner(text: &str) -> u64 {
    let _banner = r#"say "hello" and mention .unwrap() freely"#;
    text.parse().unwrap()
}

/// Nested block comments: a scrubber that closes at the first `*/`
/// treats the rest of the file as comment and misses the violation.
pub fn parse_after_nested_comment(text: &str) -> u64 {
    /* nested /* comment mentioning expect("x") */ still closed here */
    text.parse().expect("a number")
}
