//! The apisnap binary end to end: which items its `# unreferenced`
//! marker flags in the fixture tree `fixtures/apisnap/`, and the marked
//! count of the shipped `api.txt`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Items of the shipped `api.txt` that no non-test code outside their
/// own file names. A change that marks one more item raises this number
/// in the same diff; one that removes or uses a marked item lowers it.
const SHIPPED_UNREFERENCED: usize = 69;

const MARK: &str = " # unreferenced";

fn apisnap(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_apisnap"))
        .args(args)
        .output()
        .expect("spawn apisnap")
}

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/klint → the workspace root is two up.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

#[test]
fn marker_flags_items_that_only_tests_docs_reexports_or_their_own_file_name() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/apisnap");
    let root = root.to_str().unwrap();
    let snapshot = std::env::temp_dir().join(format!("apisnap-{}.txt", std::process::id()));
    let snapshot_arg = snapshot.to_str().unwrap();
    let out = apisnap(&["--root", root, "--snapshot", snapshot_arg, "--write"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = std::fs::read_to_string(&snapshot).unwrap();
    // Checking against the file just written finds no drift.
    let out = apisnap(&["--root", root, "--snapshot", snapshot_arg]);
    let _ = std::fs::remove_file(&snapshot);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    for (item, marked) in [
        // A `tests/` file, a `#[cfg(test)]` module and doc comments.
        ("fn only_tests", true),
        // A `pub use` in the umbrella crate.
        ("fn reexported", true),
        // Its own file only.
        ("fn own_file_only", true),
        ("fn by_example", false),
        ("fn by_bin", false),
        ("fn called_by_lib2", false),
    ] {
        let line = text
            .lines()
            .map(str::trim_start)
            .find(|l| l.strip_suffix(MARK).unwrap_or(l) == item)
            .unwrap_or_else(|| panic!("{item} missing from:\n{text}"));
        assert_eq!(line.ends_with(MARK), marked, "{line}\n{text}");
    }
    // Re-exports are listed, never marked.
    assert!(text.contains("  use lib1::reexported\n"), "{text}");
}

#[test]
fn shipped_snapshot_marks_the_pinned_count() {
    let api = std::fs::read_to_string(workspace_root().join("api.txt")).unwrap();
    let marked: Vec<&str> = api.lines().filter(|l| l.ends_with(MARK)).collect();
    assert_eq!(
        marked.len(),
        SHIPPED_UNREFERENCED,
        "api.txt marks {} items; update the pin only with a reason:\n{}",
        marked.len(),
        marked.join("\n")
    );
}
