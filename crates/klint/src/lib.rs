//! `klint`: static enforcement of the project's determinism and
//! MSR-protocol invariants.
//!
//! The compiler cannot check the two properties the reproduction's
//! substitution argument rests on (DESIGN.md): simulations must be
//! bit-for-bit deterministic, and tools must speak the documented MSR
//! protocol. `klint` walks the workspace sources with a hand-rolled lexer
//! ([`lexer`]) and enforces both as token-level rules ([`rules`]), with
//! per-site suppressions and a checked-in baseline ([`baseline`]) so
//! existing debt is frozen rather than ignored. Its dynamic twin is
//! `pmu::ProtocolChecker`, which validates the MSR access trace at runtime.
//!
//! No dependencies, by design — the linter must never be the thing that
//! drags a supply chain into the build (and the container is offline).
//!
//! Suppression syntax, on the offending line or the line above:
//!
//! ```text
//! // klint: allow(D1): host wall time for a rate report, never digested
//! let t = Instant::now();
//! ```

pub mod baseline;
pub mod lexer;
pub mod rules;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

pub use baseline::Baseline;
pub use rules::{AtomicSite, Rule, Violation, ALL_RULES};

/// Parses `// klint: allow(R1, R2)` suppressions out of lexed comments.
/// Returns `(line, rules)` pairs; a suppression covers its own line and
/// the next line.
fn suppressions(lexed: &lexer::Lexed) -> Vec<(usize, BTreeSet<Rule>)> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        let text = c.text.trim();
        let Some(rest) = text.strip_prefix("klint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("allow") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(open) = rest.strip_prefix('(') else {
            continue;
        };
        let Some(end) = open.find(')') else {
            continue;
        };
        let rules: BTreeSet<Rule> = open[..end]
            .split(',')
            .filter_map(|r| Rule::parse(r.trim()))
            .collect();
        if !rules.is_empty() {
            out.push((c.line, rules));
        }
    }
    out
}

/// Lints one file's source text.
///
/// `rel_path` must be workspace-relative with forward slashes
/// (`crates/ksim/src/machine.rs`); rule scoping and the baseline key both
/// derive from it.
pub fn check_source(rel_path: &str, text: &str) -> Vec<Violation> {
    let lexed = lexer::lex(text);
    let crate_name = crate_of(rel_path);
    let in_tests_dir = in_tests_dir(rel_path);
    let violations = rules::check_tokens(&lexed, rel_path, crate_name, in_tests_dir);
    let allows = suppressions(&lexed);
    filter_suppressed(violations, &allows)
}

fn crate_of(rel_path: &str) -> Option<&str> {
    rel_path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
}

fn in_tests_dir(rel_path: &str) -> bool {
    rel_path.split('/').any(|seg| seg == "tests")
}

fn filter_suppressed(
    violations: Vec<Violation>,
    allows: &[(usize, BTreeSet<Rule>)],
) -> Vec<Violation> {
    violations
        .into_iter()
        .filter(|v| {
            !allows.iter().any(|(line, rules)| {
                rules.contains(&v.rule) && (v.line == *line || v.line == line + 1)
            })
        })
        .collect()
}

/// A filesystem error while walking or reading sources.
#[derive(Debug)]
pub struct WalkError {
    /// The path the operation failed on.
    pub path: PathBuf,
    /// The underlying I/O error.
    pub error: std::io::Error,
}

impl std::fmt::Display for WalkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.error)
    }
}

impl std::error::Error for WalkError {}

/// Collects the workspace-relative paths of every `.rs` file klint scans:
/// `crates/*/{src,tests,examples}`, sorted for deterministic reports.
/// `compat/` (vendored stand-ins) and build output are not scanned.
///
/// # Errors
///
/// Returns [`WalkError`] if a directory listed above cannot be read.
fn workspace_sources(root: &Path) -> Result<Vec<String>, WalkError> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    for krate in read_dir_sorted(&crates)? {
        if !krate.is_dir() {
            continue;
        }
        for sub in ["src", "tests", "examples"] {
            let dir = krate.join(sub);
            if dir.is_dir() {
                collect_rs(&dir, &mut files)?;
            }
        }
    }
    let mut rel: Vec<String> = files
        .iter()
        .filter_map(|p| p.strip_prefix(root).ok())
        .map(|p| {
            p.components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/")
        })
        .collect();
    rel.sort();
    Ok(rel)
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, WalkError> {
    let rd = std::fs::read_dir(dir).map_err(|error| WalkError {
        path: dir.to_path_buf(),
        error,
    })?;
    let mut out = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|error| WalkError {
            path: dir.to_path_buf(),
            error,
        })?;
        out.push(entry.path());
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), WalkError> {
    for path in read_dir_sorted(dir)? {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints the whole workspace under `root`.
///
/// Beyond the per-file rules this runs `A1`, the crate-level atomic
/// ordering-pairing audit: every file's [`AtomicSite`]s are collected,
/// grouped per crate, and paired by [`rules::a1_violations`]. A1 hits
/// honor `// klint: allow(A1)` suppressions at the flagged site like any
/// per-file rule.
///
/// # Errors
///
/// Returns [`WalkError`] if sources cannot be listed or read.
pub fn check_workspace(root: &Path) -> Result<Vec<Violation>, WalkError> {
    let mut all = Vec::new();
    let mut sites: Vec<AtomicSite> = Vec::new();
    type Allows = Vec<(usize, BTreeSet<Rule>)>;
    let mut allows_by_path: Vec<(String, Allows)> = Vec::new();
    for rel in workspace_sources(root)? {
        let path = root.join(&rel);
        let text = std::fs::read_to_string(&path).map_err(|error| WalkError {
            path: path.clone(),
            error,
        })?;
        let lexed = lexer::lex(&text);
        let crate_name = crate_of(&rel);
        let tests = in_tests_dir(&rel);
        let violations = rules::check_tokens(&lexed, &rel, crate_name, tests);
        let allows = suppressions(&lexed);
        all.extend(filter_suppressed(violations, &allows));
        sites.extend(rules::collect_atomic_sites(&lexed, &rel, crate_name, tests));
        allows_by_path.push((rel, allows));
    }
    let a1 = rules::a1_violations(&sites);
    for v in a1 {
        let allows = allows_by_path
            .iter()
            .find(|(p, _)| *p == v.path)
            .map(|(_, a)| a.as_slice())
            .unwrap_or(&[]);
        all.extend(filter_suppressed(vec![v], allows));
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_covers_own_and_next_line() {
        let src = "\
// klint: allow(D1)
fn f() { let _ = Instant::now(); }
fn g() { let _ = Instant::now(); }
";
        let v = check_source("crates/ksim/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn suppression_is_rule_specific() {
        let src = "fn f() { let _ = Instant::now(); } // klint: allow(D2)\n";
        let v = check_source("crates/ksim/src/x.rs", src);
        assert_eq!(v.len(), 1, "allow(D2) must not silence D1");
    }

    #[test]
    fn out_of_scope_crate_is_clean() {
        let src = "fn f() { let _ = Instant::now(); }\n";
        assert!(check_source("crates/analysis/src/x.rs", src).is_empty());
    }

    #[test]
    fn d1_flags_entropy_seeding_and_rand_random() {
        let src = "\
fn f() {
    let mut rng = StdRng::from_entropy();
    let coin: bool = rand::random();
    let byte = rand::random::<u8>();
}
";
        let v = check_source("crates/ksim/src/x.rs", src);
        let snippets: Vec<&str> = v.iter().map(|x| x.snippet.as_str()).collect();
        assert_eq!(
            snippets,
            vec!["from_entropy()", "rand::random()", "rand::random()"],
            "got: {v:?}"
        );
        assert!(v.iter().all(|x| x.rule == Rule::D1));
    }

    #[test]
    fn d1_allows_seeded_rng_construction() {
        let src = "\
fn f() {
    let mut rng = StdRng::seed_from_u64(7);
    let from_entropy = 3; // a binding, not a call
    let x = some.random;  // field access, not rand::random()
}
";
        assert!(check_source("crates/ksim/src/x.rs", src).is_empty());
    }
}
