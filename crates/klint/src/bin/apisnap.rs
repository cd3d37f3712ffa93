//! Public-API snapshot: inventory every `pub` item per crate and diff it
//! against the committed `api.txt`, so API drift lands as a reviewed
//! hunk instead of an accident.
//!
//! The inventory is lexical, built on klint's lexer: it walks each
//! library's `src/` tree (crates under `crates/`, plus the umbrella
//! crate's `src/`; bins, tests, examples and `compat/` stand-ins are not
//! API surface), tracks brace nesting to attribute `pub fn`s to their
//! `impl` type, and skips anything inside a `mod tests`. It is a surface
//! inventory, not a reachability analysis — a `pub` item in a private
//! module still shows up, which errs on the side of flagging drift.
//!
//! An item that no non-test code outside its own file names is listed
//! with a trailing `# unreferenced`. Non-test code is every crate's
//! `src/` (bins included), the umbrella `src/`, `examples/` and
//! `perfbench/src/`, minus `#[cfg(test)]` items and the files of
//! `#[cfg(test)] mod x;` declarations. Comments (doc comments too, so a
//! doctest is no caller), `use` declarations (so a re-export is no
//! caller) and the names that item definitions introduce do not count.
//! Matching is by name, so a mark is a candidate for removal, not a
//! verdict; a newly marked item shows in the diff like any other change.
//!
//! Usage: `apisnap [--root <dir>] [--snapshot <path>] [--write]`.
//! Exit status 0 when the snapshot matches, 1 on drift (the diff is
//! printed), 2 on usage or I/O errors. `--write` refreshes the file,
//! mirroring `klint --write-baseline`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use klint::lexer::{lex, Tok, Token};

/// What the next `{` belongs to, for attribution.
#[derive(Debug, Clone, PartialEq)]
enum Ctx {
    /// A `mod name { ... }` block.
    Module(String),
    /// An `impl ... { ... }` block for the named type.
    Impl(String),
    /// Anything else (fn bodies, match arms, ...).
    Other,
}

fn ident(t: &Token) -> Option<&str> {
    match &t.tok {
        Tok::Ident(s) => Some(s),
        _ => None,
    }
}

fn punct(t: &Token, c: char) -> bool {
    matches!(t.tok, Tok::Punct(p) if p == c)
}

/// Skips a balanced `<...>` generics list starting at `i` (which must
/// point at the `<`); returns the index just past the matching `>`.
fn skip_generics(toks: &[Token], mut i: usize) -> usize {
    let mut depth = 0usize;
    while i < toks.len() {
        if punct(&toks[i], '<') {
            depth += 1;
        } else if punct(&toks[i], '>') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// The type name an `impl` header targets: the last path segment before
/// generics/`where`/`{`, taken after `for` when present (so trait impls
/// attribute to the implementing type).
fn impl_target(toks: &[Token], start: usize, end: usize) -> String {
    let mut i = start;
    if i < end && punct(&toks[i], '<') {
        i = skip_generics(toks, i);
    }
    let mut after_for = None;
    let mut j = i;
    while j < end {
        if ident(&toks[j]) == Some("for") {
            after_for = Some(j + 1);
        }
        j += 1;
    }
    let mut k = after_for.unwrap_or(i);
    let mut last = String::new();
    while k < end {
        match &toks[k].tok {
            Tok::Ident(s) if s != "where" => last = s.clone(),
            Tok::Ident(_) => break,
            Tok::Punct(':') => {}
            Tok::Punct('<') => break,
            _ => break,
        }
        k += 1;
    }
    last
}

/// Renders a `pub use` path compactly: `use fleet::{A, B}`.
fn render_use(toks: &[Token], mut i: usize, end: usize) -> (String, usize) {
    let mut out = String::from("use ");
    while i < end && !punct(&toks[i], ';') {
        match &toks[i].tok {
            Tok::Ident(s) => {
                if out
                    .chars()
                    .last()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_')
                {
                    out.push(' ');
                }
                out.push_str(s);
            }
            Tok::Punct(',') => out.push_str(", "),
            Tok::Punct(c) => out.push(*c),
            _ => {}
        }
        i += 1;
    }
    (out, i)
}

const MODIFIERS: [&str; 4] = ["unsafe", "async", "extern", "default"];
const ITEM_KINDS: [&str; 10] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union", "macro",
];

/// Collects the `pub` items of one file into `items`.
fn scan_file(src: &str, items: &mut BTreeSet<String>) {
    let toks = lex(src).tokens;
    let mut stack: Vec<Ctx> = Vec::new();
    let mut pending = Ctx::Other;
    let mut i = 0usize;
    while i < toks.len() {
        if punct(&toks[i], '{') {
            stack.push(std::mem::replace(&mut pending, Ctx::Other));
            i += 1;
            continue;
        }
        if punct(&toks[i], '}') {
            stack.pop();
            i += 1;
            continue;
        }
        match ident(&toks[i]) {
            Some("impl") => {
                // Find the body `{` (or `;` for marker impls) and stage
                // the target type for it.
                let mut j = i + 1;
                while j < toks.len() && !punct(&toks[j], '{') && !punct(&toks[j], ';') {
                    j += 1;
                }
                pending = Ctx::Impl(impl_target(&toks, i + 1, j));
                i = j;
                continue;
            }
            Some("mod") => {
                // Only inline `mod name { ... }` opens a scope; `mod name;`
                // must not leak its name onto the next unrelated brace.
                if let Some(name) = toks.get(i + 1).and_then(ident) {
                    if toks.get(i + 2).is_some_and(|t| punct(t, '{')) {
                        pending = Ctx::Module(name.to_string());
                    }
                }
                i += 2;
                continue;
            }
            Some("pub") => {
                let in_tests = stack
                    .iter()
                    .any(|c| matches!(c, Ctx::Module(m) if m == "tests"));
                let mut j = i + 1;
                // pub(crate) / pub(super) / pub(in ...) are not public API.
                if toks.get(j).is_some_and(|t| punct(t, '(')) {
                    while j < toks.len() && !punct(&toks[j], ')') {
                        j += 1;
                    }
                    i = j + 1;
                    continue;
                }
                // Skip modifiers (and the ABI string of `extern "C"`).
                while j < toks.len() {
                    match &toks[j].tok {
                        Tok::Ident(s) if MODIFIERS.contains(&s.as_str()) => j += 1,
                        Tok::Str => j += 1,
                        _ => break,
                    }
                }
                // `const` is a modifier in `pub const fn` and a kind in
                // `pub const NAME`.
                let mut kind = match toks.get(j).and_then(ident) {
                    Some(k) if ITEM_KINDS.contains(&k) => k.to_string(),
                    _ => {
                        i += 1;
                        continue;
                    }
                };
                if kind == "const" && toks.get(j + 1).and_then(ident) == Some("fn") {
                    kind = "fn".to_string();
                    j += 1;
                }
                if in_tests {
                    i = j + 1;
                    continue;
                }
                j += 1;
                if kind == "static" && toks.get(j).and_then(ident) == Some("mut") {
                    j += 1;
                }
                let Some(name) = toks.get(j).and_then(ident) else {
                    i = j;
                    continue;
                };
                let owner = stack.iter().rev().find_map(|c| match c {
                    Ctx::Impl(t) if !t.is_empty() => Some(t.clone()),
                    _ => None,
                });
                let line = match (kind.as_str(), owner) {
                    ("fn", Some(t)) => format!("fn {t}::{name}"),
                    _ => format!("{kind} {name}"),
                };
                items.insert(line);
                i = j + 1;
                continue;
            }
            _ => {}
        }
        // `pub use ...;` — `use` follows `pub` directly.
        if ident(&toks[i]) == Some("use")
            && i > 0
            && ident(&toks[i - 1]) == Some("pub")
            && !stack
                .iter()
                .any(|c| matches!(c, Ctx::Module(m) if m == "tests"))
        {
            let (rendered, next) = render_use(&toks, i + 1, toks.len());
            items.insert(rendered);
            i = next;
            continue;
        }
        i += 1;
    }
}

fn collect_rs(dir: &Path, skip_bin: bool, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let rd = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut entries: Vec<PathBuf> = rd.filter_map(Result::ok).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if skip_bin && path.file_name().is_some_and(|n| n == "bin") {
                continue;
            }
            collect_rs(&path, false, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Where each name is used: name -> the non-test files whose code names it.
type References = BTreeMap<String, BTreeSet<PathBuf>>;

/// Index just past the bracket that closes the one at `i`.
fn skip_balanced(toks: &[Token], mut i: usize) -> usize {
    let mut depth = 0usize;
    while i < toks.len() {
        match toks[i].tok {
            Tok::Punct('(' | '[' | '{') => depth += 1,
            Tok::Punct(')' | ']' | '}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Index just past the item starting at `i`, after any further
/// attributes: its `;`, or the `}` that closes its body.
fn skip_item(toks: &[Token], mut i: usize) -> usize {
    while i < toks.len() {
        match toks[i].tok {
            Tok::Punct(';') => return i + 1,
            Tok::Punct('{') => return skip_balanced(toks, i),
            Tok::Punct('(' | '[') => i = skip_balanced(toks, i),
            _ => i += 1,
        }
    }
    i
}

/// Whether the attribute body `attr` (between `#[` and `]`) is a `cfg`
/// that only test builds enable: it names `test`, and not as `not(test)`.
fn is_cfg_test(attr: &[Token]) -> bool {
    attr.first().and_then(ident) == Some("cfg")
        && attr.iter().enumerate().any(|(k, t)| {
            ident(t) == Some("test")
                && !(k >= 2 && punct(&attr[k - 1], '(') && ident(&attr[k - 2]) == Some("not"))
        })
}

/// Keywords whose next identifier is the name of a new item.
const DEFINES: [&str; 9] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
];

/// The names `src`'s non-test code uses, and the names of its
/// `#[cfg(test)] mod name;` declarations.
fn scan_refs(src: &str) -> (BTreeSet<String>, Vec<String>) {
    let toks = lex(src).tokens;
    let mut names = BTreeSet::new();
    let mut test_mods = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if punct(&toks[i], '#') && toks.get(i + 1).is_some_and(|t| punct(t, '[')) {
            let end = skip_balanced(&toks, i + 1);
            if toks.get(i + 2..end - 1).is_some_and(is_cfg_test) {
                i = skip_item(&toks, end);
                if let [.., m, name, semi] = &toks[end..i] {
                    if ident(m) == Some("mod") && punct(semi, ';') {
                        test_mods.extend(ident(name).map(str::to_string));
                    }
                }
            } else {
                i = end;
            }
            continue;
        }
        match ident(&toks[i]) {
            Some("use") => {
                // The modules a path walks must stay public for it to
                // resolve; the names it imports are no callers.
                while i < toks.len() && !punct(&toks[i], ';') {
                    if let Some(seg) = ident(&toks[i]) {
                        if toks.get(i + 1).is_some_and(|t| punct(t, ':')) {
                            names.insert(seg.to_string());
                        }
                    }
                    i += 1;
                }
            }
            // The name a definition introduces is no reference to it.
            Some(kw)
                if DEFINES.contains(&kw)
                    && toks
                        .get(i + 1)
                        .and_then(ident)
                        .is_some_and(|n| !DEFINES.contains(&n)) =>
            {
                i += 1;
            }
            Some(name) => {
                names.insert(name.to_string());
            }
            None => {}
        }
        i += 1;
    }
    (names, test_mods)
}

/// Indexes the names used by the non-test code under `dir`.
fn index_refs(dir: &Path, refs: &mut References) -> Result<(), String> {
    let mut files = Vec::new();
    collect_rs(dir, false, &mut files)?;
    let mut test_files = BTreeSet::new();
    let mut scanned = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        let (names, test_mods) = scan_refs(&text);
        // `lib.rs`, `main.rs` and `mod.rs` keep their modules beside them;
        // any other `x.rs` keeps them in `x/`.
        let stem = f.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        let parent = f.parent().unwrap_or(dir);
        let mod_dir = if ["lib", "main", "mod"].contains(&stem) {
            parent.to_path_buf()
        } else {
            parent.join(stem)
        };
        for m in test_mods {
            test_files.insert(mod_dir.join(format!("{m}.rs")));
            test_files.insert(mod_dir.join(&m).join("mod.rs"));
        }
        scanned.push((f, names));
    }
    for (f, names) in scanned {
        if !test_files.contains(&f) {
            for name in names {
                refs.entry(name).or_default().insert(f.clone());
            }
        }
    }
    Ok(())
}

/// Whether no non-test file outside `defined_in` names the snapshot
/// line's item. `use` lines are re-exports, never marked.
fn unreferenced(line: &str, defined_in: &BTreeSet<PathBuf>, refs: &References) -> bool {
    let Some((kind, path)) = line.split_once(' ') else {
        return false;
    };
    if kind == "use" {
        return false;
    }
    let name = path.rsplit("::").next().unwrap_or(path);
    refs.get(name)
        .is_none_or(|users| users.is_subset(defined_in))
}

/// One crate's `src/` tree reduced to its sorted `pub` inventory.
fn snapshot_crate(
    name: &str,
    src_dir: &Path,
    refs: &References,
    out: &mut String,
) -> Result<(), String> {
    let mut files = Vec::new();
    collect_rs(src_dir, true, &mut files)?;
    let mut items: BTreeMap<String, BTreeSet<PathBuf>> = BTreeMap::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        let mut lines = BTreeSet::new();
        scan_file(&text, &mut lines);
        for line in lines {
            items.entry(line).or_default().insert(f.clone());
        }
    }
    out.push_str(&format!("crate {name}\n"));
    for (item, defined_in) in items {
        out.push_str("  ");
        out.push_str(&item);
        if unreferenced(&item, &defined_in, refs) {
            out.push_str(" # unreferenced");
        }
        out.push('\n');
    }
    Ok(())
}

fn build_snapshot(root: &Path) -> Result<String, String> {
    let mut out = String::from(
        "# Public-API snapshot. Regenerate with: cargo run -p klint --bin apisnap -- --write\n",
    );
    let crates_dir = root.join("crates");
    let rd =
        std::fs::read_dir(&crates_dir).map_err(|e| format!("{}: {e}", crates_dir.display()))?;
    let mut names: Vec<String> = rd
        .filter_map(Result::ok)
        .filter(|e| e.path().join("src").is_dir())
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    names.sort();
    let mut refs = References::new();
    let extra = ["src", "examples", "perfbench/src"].map(|d| root.join(d));
    for dir in names
        .iter()
        .map(|n| crates_dir.join(n).join("src"))
        .chain(extra)
    {
        if dir.is_dir() {
            index_refs(&dir, &mut refs)?;
        }
    }
    for name in names {
        snapshot_crate(&name, &crates_dir.join(&name).join("src"), &refs, &mut out)?;
    }
    // The umbrella crate last: its src/ is the workspace root's.
    if root.join("src").is_dir() {
        snapshot_crate("kleb-repro", &root.join("src"), &refs, &mut out)?;
    }
    Ok(out)
}

fn print_drift(committed: &str, generated: &str) {
    let old: BTreeSet<&str> = committed.lines().collect();
    let new: BTreeSet<&str> = generated.lines().collect();
    for gone in old.difference(&new) {
        println!("- {gone}");
    }
    for added in new.difference(&old) {
        println!("+ {added}");
    }
}

const USAGE: &str = "usage: apisnap [--root <dir>] [--snapshot <path>] [--write]";

fn run() -> Result<ExitCode, String> {
    let mut root = PathBuf::from(".");
    let mut snapshot_path: Option<PathBuf> = None;
    let mut write = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--root" => {
                root = argv
                    .next()
                    .map(PathBuf::from)
                    .ok_or("--root needs a value")?
            }
            "--snapshot" => {
                snapshot_path = Some(
                    argv.next()
                        .map(PathBuf::from)
                        .ok_or("--snapshot needs a value")?,
                )
            }
            "--write" => write = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let snapshot_path = snapshot_path.unwrap_or_else(|| root.join("api.txt"));
    let generated = build_snapshot(&root)?;
    if write {
        std::fs::write(&snapshot_path, &generated)
            .map_err(|e| format!("{}: {e}", snapshot_path.display()))?;
        println!(
            "wrote {} ({} lines)",
            snapshot_path.display(),
            generated.lines().count()
        );
        return Ok(ExitCode::SUCCESS);
    }
    let committed = std::fs::read_to_string(&snapshot_path).map_err(|e| {
        format!(
            "{}: {e}\n(no snapshot yet? run with --write to create it)",
            snapshot_path.display()
        )
    })?;
    if committed == generated {
        println!(
            "api snapshot clean: {} lines match {}",
            generated.lines().count(),
            snapshot_path.display()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "public API drifted from {} — review and refresh with --write:",
            snapshot_path.display()
        );
        print_drift(&committed, &generated);
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("apisnap: {e}");
            ExitCode::from(2)
        }
    }
}
