//! `lethe-lint`: run the workspace lock-order analysis and exit non-zero on
//! any violation. Usage: `lethe-lint [workspace-root]` (defaults to the
//! current directory; CI runs it from the repo root).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("usage: lethe-lint [workspace-root]");
                return ExitCode::SUCCESS;
            }
            other if root.is_none() && !other.starts_with('-') => {
                root = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("lethe-lint: unexpected argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(|| PathBuf::from("."));
    if !root.join("Cargo.toml").exists() {
        eprintln!("lethe-lint: {} does not look like a workspace root", root.display());
        return ExitCode::from(2);
    }
    let findings = lethe_lint::run(&root);
    if findings.is_empty() {
        println!("lethe-lint: clean");
        return ExitCode::SUCCESS;
    }
    for f in &findings {
        println!("{f}");
    }
    println!("lethe-lint: {} violation(s)", findings.len());
    ExitCode::FAILURE
}
