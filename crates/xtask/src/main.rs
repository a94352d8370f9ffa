//! Repo automation for the Shoggoth reproduction.
//!
//! ```text
//! cargo run -p xtask -- lint [--root <dir>]
//! ```
//!
//! Runs the five domain lints (see [`lints`]) over every `crates/*/src`
//! tree and prints `path:line:col: [lint] message` diagnostics. Exit
//! status: `0` clean, `1` violations, `2` usage or I/O failure.
//!
//! The checks encode invariants `cargo clippy` cannot see because they are
//! properties of *this* codebase, not of Rust: bit-reproducible simulation
//! (L1), a justified-and-budgeted panic inventory (L2), explicit float
//! comparison semantics (L3), unit-suffix discipline on the
//! `_ms`/`_bytes`/`_mbps` bookkeeping the latency model lives on (L4), and
//! telemetry-boundary hygiene — no recorders in the tensor kernels, no
//! wall clocks in the telemetry crate (L5).

mod lints;
mod scan;

use lints::{
    l1_determinism, l2_panic_audit, l3_float_hygiene, l4_unit_suffixes, l5_telemetry_hygiene,
    parse_allowlist, Violation, DETERMINISTIC_CRATES,
};
use scan::SourceFile;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Repo-relative location of the panic allowlist consumed by L2.
const ALLOWLIST: &str = "crates/xtask/panic-allowlist.txt";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = None;
    let mut root = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => root = it.next().map(PathBuf::from),
            "lint" if cmd.is_none() => cmd = Some("lint"),
            other => {
                eprintln!("xtask: unknown argument `{other}`");
                cmd = None;
                break;
            }
        }
    }
    let Some("lint") = cmd else {
        eprintln!("usage: cargo run -p xtask -- lint [--root <dir>]");
        return ExitCode::from(2);
    };
    let root = match root.map_or_else(find_root, Ok) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask: {e}");
            return ExitCode::from(2);
        }
    };
    match run_lint(&root) {
        Ok(violations) if violations.is_empty() => {
            println!("xtask lint: clean");
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                println!("{v}");
            }
            println!("xtask lint: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask: {e}");
            ExitCode::from(2)
        }
    }
}

/// Walks up from the current directory to the workspace root (the first
/// ancestor holding both `Cargo.toml` and `crates/`).
fn find_root() -> Result<PathBuf, String> {
    let start = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    let mut dir = start.as_path();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Ok(dir.to_path_buf());
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => {
                return Err(format!(
                    "no workspace root (Cargo.toml + crates/) above {}",
                    start.display()
                ))
            }
        }
    }
}

/// Runs every lint over `crates/*/src` under `root`; returns the sorted
/// diagnostics.
fn run_lint(root: &Path) -> Result<Vec<Violation>, String> {
    let sources = load_sources(root).map_err(|e| format!("scanning sources: {e}"))?;
    let mut violations = Vec::new();

    let allowlist_rel = Path::new(ALLOWLIST);
    let allowlist_text = fs::read_to_string(root.join(allowlist_rel)).unwrap_or_default();
    let allowlist = match parse_allowlist(allowlist_rel, &allowlist_text) {
        Ok(entries) => entries,
        Err(mut errors) => {
            violations.append(&mut errors);
            Vec::new()
        }
    };

    for file in &sources {
        if in_deterministic_crate(&file.path) {
            violations.extend(l1_determinism(file));
        }
        violations.extend(l3_float_hygiene(file));
        violations.extend(l4_unit_suffixes(file));
        violations.extend(l5_telemetry_hygiene(file));
    }
    violations.extend(l2_panic_audit(&sources, &allowlist, allowlist_rel));

    violations.sort_by(|a, b| (&a.path, a.line, a.col).cmp(&(&b.path, b.line, b.col)));
    Ok(violations)
}

/// Whether the repo-relative path sits in a crate covered by L1.
fn in_deterministic_crate(path: &Path) -> bool {
    let mut parts = path.components().map(|c| c.as_os_str());
    parts.next() == Some("crates".as_ref())
        && parts
            .next()
            .is_some_and(|name| DETERMINISTIC_CRATES.iter().any(|c| name == *c))
}

/// Loads and preprocesses every `crates/*/src/**/*.rs`, with repo-relative
/// paths and a deterministic order.
fn load_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut paths)?;
        }
    }
    let mut sources = Vec::with_capacity(paths.len());
    for path in paths {
        let content = fs::read_to_string(&path)?;
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        sources.push(SourceFile::parse(rel, &content));
    }
    Ok(sources)
}

/// Recursively collects `.rs` files in filename order.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_crate_is_held_to_determinism() {
        for (path, covered) in [
            ("crates/metrics/src/map.rs", true),
            ("crates/core/src/sim.rs", true),
            ("crates/bench/src/lib.rs", false),
            ("benchmark/metrics/src/x.rs", false),
        ] {
            assert_eq!(in_deterministic_crate(Path::new(path)), covered, "{path}");
        }
    }
}
