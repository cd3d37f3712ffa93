//! The klint binary end to end: exit codes, report format, and
//! `--write-baseline` idempotency, against the seeded fixture tree in
//! `fixtures/bad/` (one violation per rule).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/bad")
}

fn klint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_klint"))
        .args(args)
        .output()
        .expect("spawn klint")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A scratch path removed on drop, so failed assertions don't leak files.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        Self(std::env::temp_dir().join(format!("klint-{}-{name}", std::process::id())))
    }

    fn path(&self) -> &str {
        self.0.to_str().unwrap()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn seeded_fixture_tree_fails_with_every_rule_reported() {
    let root = fixture_root();
    let out = klint(&["--workspace", "--root", root.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout(&out));
    let text = stdout(&out);
    for tag in ["[D1]", "[D2]", "[D3]", "[M1]", "[U1]", "[A1]"] {
        assert!(text.contains(tag), "missing {tag} in:\n{text}");
    }
    assert!(
        text.contains("6 violation(s): 6 new"),
        "unexpected summary:\n{text}"
    );
    // Reports point at real locations.
    assert!(text.contains("crates/ksim/src/lib.rs:9:"), "{text}");
}

#[test]
fn write_baseline_is_idempotent_and_silences_the_gate() {
    let root = fixture_root();
    let root = root.to_str().unwrap();
    let first = Scratch::new("first.baseline");
    let second = Scratch::new("second.baseline");

    let out = klint(&[
        "--workspace",
        "--root",
        root,
        "--baseline",
        first.path(),
        "--write-baseline",
    ]);
    assert_eq!(out.status.code(), Some(0), "stdout: {}", stdout(&out));

    // With the frozen baseline the same tree passes, reporting no new.
    let out = klint(&["--workspace", "--root", root, "--baseline", first.path()]);
    assert_eq!(out.status.code(), Some(0), "stdout: {}", stdout(&out));
    assert!(
        stdout(&out).contains("6 violation(s): 0 new, 6 frozen"),
        "unexpected summary:\n{}",
        stdout(&out)
    );

    // Writing again produces byte-identical output.
    let out = klint(&[
        "--workspace",
        "--root",
        root,
        "--baseline",
        second.path(),
        "--write-baseline",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let a = std::fs::read(&first.0).unwrap();
    let b = std::fs::read(&second.0).unwrap();
    assert_eq!(a, b, "--write-baseline must be deterministic");
    assert!(!a.is_empty());
}

#[test]
fn usage_errors_exit_2() {
    let out = klint(&[]);
    assert_eq!(out.status.code(), Some(2));
    let out = klint(&["--workspace", "--bogus-flag"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn shipped_workspace_is_clean_under_its_checked_in_baseline() {
    // CARGO_MANIFEST_DIR = crates/klint → the workspace root is two up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap();
    let out = klint(&["--workspace", "--root", root.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "the shipped tree must pass its own gate:\n{}",
        stdout(&out)
    );
}

#[test]
fn shipped_baseline_carries_zero_frozen_debt() {
    // The checked-in baseline must stay empty: all historical violations
    // have been fixed, so any new entry is fresh debt that should be
    // fixed (or explicitly suppressed) rather than frozen.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap();
    let baseline = std::fs::read_to_string(root.join("klint.baseline")).unwrap();
    let entries: Vec<&str> = baseline
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .collect();
    assert!(
        entries.is_empty(),
        "klint.baseline should be empty (header only); frozen debt found:\n{}",
        entries.join("\n")
    );
}
