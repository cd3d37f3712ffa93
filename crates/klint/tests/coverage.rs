//! Coverage guard: every workspace member under `crates/` must be in
//! scope of at least one klint rule, and any crate outside the
//! *determinism* rules (D1/D2/D3) must be on the documented exemption
//! list below. A new crate added to the workspace therefore fails this
//! test until its linting posture is decided explicitly — either by
//! adding it to a rule's scope in `rules.rs` or by exempting it here
//! with a justification.

use std::path::Path;

use klint::{Rule, ALL_RULES};

/// Crates deliberately outside every determinism rule, with the reason.
/// (They remain covered by the workspace-wide rules M1/U1/A1.)
const DETERMINISM_EXEMPT: [(&str, &str); 4] = [
    (
        "analysis",
        "offline post-processing; panicking on malformed input is acceptable",
    ),
    (
        "baselines",
        "comparison harness for the paper's baseline tools, not simulation core",
    ),
    (
        "klint",
        "the linter itself; it may read clocks and panic on its own bugs",
    ),
    (
        "kloom",
        "the model checker; panics *are* its failure-reporting mechanism",
    ),
];

/// Expands the `crates/*` member glob from the root Cargo.toml against
/// the filesystem, returning crate directory names.
fn workspace_crates(root: &Path) -> Vec<String> {
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("read root Cargo.toml");
    let members_line = manifest
        .lines()
        .find(|l| l.trim_start().starts_with("members"))
        .expect("root Cargo.toml declares workspace members");
    assert!(
        members_line.contains("\"crates/*\""),
        "expected a crates/* member glob, got: {members_line}"
    );
    let mut names = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("list crates/") {
        let entry = entry.expect("read crates/ entry");
        if entry.path().join("Cargo.toml").is_file() {
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    names.sort();
    assert!(!names.is_empty(), "crates/* expanded to nothing");
    names
}

#[test]
fn every_workspace_crate_is_scoped_by_some_rule() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for krate in workspace_crates(&root) {
        let covered: Vec<&str> = ALL_RULES
            .iter()
            .filter(|r| r.applies_to_crate(Some(&krate)))
            .map(|r| r.name())
            .collect();
        assert!(
            !covered.is_empty(),
            "crate `{krate}` is unscoped by every klint rule — add it to a \
             rule's scope in rules.rs or document why it is exempt"
        );
    }
}

/// The supervision layer contains other threads' panics; its own code
/// must satisfy every determinism rule, including D2 — which the rest
/// of `fleet` is not held to. Guards the file-level opt-in in rules.rs
/// (and that the file it names still exists).
#[test]
fn supervisor_is_scanned_by_every_determinism_rule() {
    let rel_path = "crates/fleet/src/supervisor.rs";
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    assert!(
        root.join(rel_path).is_file(),
        "{rel_path} moved — update the D2 opt-in in rules.rs"
    );
    for rule in [Rule::D1, Rule::D2, Rule::D3] {
        assert!(
            rule.in_scope(rel_path, Some("fleet")),
            "{} must scan {rel_path}",
            rule.name()
        );
    }
    // The opt-in widens scope for that one file only: the rest of the
    // crate keeps its crate-level posture.
    assert!(!Rule::D2.in_scope("crates/fleet/src/runner.rs", Some("fleet")));
}

#[test]
fn determinism_exemptions_are_documented_and_current() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let determinism = [Rule::D1, Rule::D2, Rule::D3];
    for krate in workspace_crates(&root) {
        let in_determinism_scope = determinism.iter().any(|r| r.applies_to_crate(Some(&krate)));
        let exempt = DETERMINISM_EXEMPT.iter().any(|(name, _)| *name == krate);
        assert!(
            in_determinism_scope || exempt,
            "crate `{krate}` is outside every determinism rule (D1/D2/D3) \
             but not on the documented exemption list in coverage.rs"
        );
        assert!(
            !(in_determinism_scope && exempt),
            "crate `{krate}` is both determinism-scoped and exempted — \
             remove the stale exemption"
        );
    }
}
