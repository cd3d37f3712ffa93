//! The rule set: project invariants as token-pattern checks.
//!
//! | Rule | Invariant | Scope |
//! |------|-----------|-------|
//! | `D1` | no wall-clock / unseeded RNG (`SystemTime::now`, `Instant::now`, argless `thread_rng()`, `from_entropy()`, `rand::random()`) — simulated time comes from `ksim::time`, randomness from seeded `StdRng` | `pmu`, `ksim`, `memsim`, `kleb`, `workloads`, `fleet`, `ktrace`, `kchan`, `bench` |
//! | `D2` | no `unwrap()` / `expect()` in library code — use typed errors | `pmu`, `ksim`, `memsim`, `kleb`, `ktrace`, `kchan` (non-test); plus `fleet/src/supervisor.rs`, the one fleet file opted in file-by-file |
//! | `D3` | no `Ordering::Relaxed` on atomics that gate cross-thread data visibility | `fleet`, `kchan` (allowlist: `kchan/src/ring.rs`, the documented ordering-protocol module) |
//! | `M1` | `wrmsr`/`rdmsr` call sites name a `pmu::msr` constant, never a bare integer MSR address | all crates (non-test) |
//! | `U1` | every `unsafe` block/fn/impl is preceded by a `// SAFETY:` comment (or a `/// # Safety` doc section) justifying it | all crates |
//! | `A1` | atomic ordering pairing, audited crate-wide: a `Release` store must have a same-field `Acquire`/`AcqRel` read somewhere in the crate, and one field must not mix `SeqCst` with `Relaxed` | all crates (non-test) |
//!
//! `U1` is purely per-file; `A1` is the one *crate-level* rule — its
//! per-file pass only collects [`AtomicSite`]s, and
//! [`a1_violations`] pairs them up across the whole crate (see
//! `check_workspace`).
//!
//! `D2` and `M1` skip `#[cfg(test)]` modules and `tests/` directories:
//! panicking on broken invariants is the *point* of a test, and tests
//! legitimately poke raw MSR addresses to probe error paths. `D1` and `D3`
//! apply to tests too — a wall-clock read in a test breaks determinism just
//! as thoroughly as one in library code.

use crate::lexer::{Lexed, Tok};

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Determinism: no wall-clock / unseeded RNG in simulation crates.
    D1,
    /// No `unwrap()`/`expect()` in library code of core crates.
    D2,
    /// No `Ordering::Relaxed` gating cross-thread visibility in `fleet`.
    D3,
    /// MSR addresses must be named `pmu::msr` constants.
    M1,
    /// `unsafe` requires an adjacent `// SAFETY:` justification.
    U1,
    /// Crate-wide atomic ordering pairing (Release↔Acquire, no
    /// SeqCst/Relaxed mixing on one field).
    A1,
}

/// All rules, in report order.
pub const ALL_RULES: [Rule; 6] = [Rule::D1, Rule::D2, Rule::D3, Rule::M1, Rule::U1, Rule::A1];

impl Rule {
    /// Short name used in reports, baselines, and suppressions.
    pub fn name(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::M1 => "M1",
            Rule::U1 => "U1",
            Rule::A1 => "A1",
        }
    }

    /// Parses a rule name (as written in `// klint: allow(...)`).
    pub fn parse(s: &str) -> Option<Rule> {
        match s {
            "D1" => Some(Rule::D1),
            "D2" => Some(Rule::D2),
            "D3" => Some(Rule::D3),
            "M1" => Some(Rule::M1),
            "U1" => Some(Rule::U1),
            "A1" => Some(Rule::A1),
            _ => None,
        }
    }

    /// Whether `crate_name` (e.g. `"ksim"`) is in this rule's scope.
    /// `None` means the file is outside `crates/` (workspace-level code).
    pub fn applies_to_crate(self, crate_name: Option<&str>) -> bool {
        match self {
            Rule::D1 => matches!(
                crate_name,
                Some(
                    "pmu"
                        | "ksim"
                        | "memsim"
                        | "kleb"
                        | "workloads"
                        | "fleet"
                        | "ktrace"
                        | "kchan"
                        | "bench"
                )
            ),
            Rule::D2 => matches!(
                crate_name,
                Some("pmu" | "ksim" | "memsim" | "kleb" | "ktrace" | "kchan")
            ),
            Rule::D3 => matches!(crate_name, Some("fleet" | "kchan")),
            Rule::M1 => true,
            // Unsafe code and atomics can appear anywhere; the
            // justification / pairing invariants are workspace-wide.
            Rule::U1 | Rule::A1 => true,
        }
    }

    /// Whether this rule skips test code (`#[cfg(test)]` modules and
    /// `tests/` directories).
    pub fn skips_tests(self) -> bool {
        // A1 skips tests: model/stress tests deliberately use odd
        // orderings, and pairing analysis is only meaningful over the
        // library code that ships. U1 applies to tests too — unsafe in a
        // test still needs its justification.
        matches!(self, Rule::D2 | Rule::M1 | Rule::A1)
    }

    /// Per-file opt-ins baked into the rule definition: files whose
    /// crate is outside the rule's scope but which must be scanned
    /// anyway.
    pub fn includes_file(self, rel_path: &str) -> bool {
        match self {
            // The supervision layer is the code that *contains* other
            // threads' panics — a panic of its own (an unwrap on a
            // poisoned lock, say) forfeits containment and takes the
            // whole partial-outcome contract with it. The rest of
            // `fleet` stays outside D2, but this file holds the bar.
            Rule::D2 => rel_path == "crates/fleet/src/supervisor.rs",
            _ => false,
        }
    }

    /// Whether this rule scans `rel_path`: in crate scope (or opted in
    /// file-by-file) and not on the per-file allowlist.
    pub fn in_scope(self, rel_path: &str, crate_name: Option<&str>) -> bool {
        (self.applies_to_crate(crate_name) || self.includes_file(rel_path))
            && !self.allows_file(rel_path)
    }

    /// Per-file allowlist baked into the rule definition.
    pub fn allows_file(self, rel_path: &str) -> bool {
        match self {
            // ring.rs: the one module allowed to choose atomic orderings
            // for data publication, with the full release/acquire
            // argument documented at the top of the file.
            Rule::D3 => rel_path == "crates/kchan/src/ring.rs",
            _ => false,
        }
    }
}

/// One rule hit at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line of the offending token.
    pub line: usize,
    /// Normalized token snippet identifying the hit (baseline key).
    pub snippet: String,
    /// Human explanation.
    pub message: String,
}

/// Token index ranges covered by `#[cfg(test)] mod … { … }`.
fn test_spans(lexed: &Lexed) -> Vec<(usize, usize)> {
    let t = &lexed.tokens;
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 6 < t.len() {
        let is_cfg_test = t[i].tok.is_punct('#')
            && t[i + 1].tok.is_punct('[')
            && t[i + 2].tok.is_ident("cfg")
            && t[i + 3].tok.is_punct('(')
            && t[i + 4].tok.is_ident("test")
            && t[i + 5].tok.is_punct(')')
            && t[i + 6].tok.is_punct(']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Walk forward over further attributes / visibility to `mod x {`.
        let mut j = i + 7;
        let mut is_mod = false;
        while j < t.len() {
            match &t[j].tok {
                Tok::Ident(s) if s == "mod" => {
                    is_mod = true;
                    break;
                }
                // Another attribute, visibility, or doc tokens: keep going
                // up to the next item keyword.
                Tok::Ident(s) if s == "pub" => j += 1,
                Tok::Punct('#') => {
                    // Skip a whole `#[...]` attribute.
                    j += 1;
                    if j < t.len() && t[j].tok.is_punct('[') {
                        let mut depth = 0usize;
                        while j < t.len() {
                            if t[j].tok.is_punct('[') {
                                depth += 1;
                            } else if t[j].tok.is_punct(']') {
                                depth -= 1;
                                if depth == 0 {
                                    j += 1;
                                    break;
                                }
                            }
                            j += 1;
                        }
                    }
                }
                Tok::Punct('(') => {
                    // e.g. pub(crate)
                    while j < t.len() && !t[j].tok.is_punct(')') {
                        j += 1;
                    }
                    j += 1;
                }
                _ => break, // cfg(test) on a non-mod item (fn, use, …)
            }
        }
        if !is_mod {
            i += 7;
            continue;
        }
        // Find the opening brace of the module body, then its match.
        let mut k = j;
        while k < t.len() && !t[k].tok.is_punct('{') {
            if t[k].tok.is_punct(';') {
                break; // out-of-line `mod tests;` — span is another file
            }
            k += 1;
        }
        if k >= t.len() || !t[k].tok.is_punct('{') {
            i = j + 1;
            continue;
        }
        let mut depth = 0usize;
        let start = i;
        let mut end = k;
        while end < t.len() {
            if t[end].tok.is_punct('{') {
                depth += 1;
            } else if t[end].tok.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            end += 1;
        }
        spans.push((start, end));
        i = end + 1;
    }
    spans
}

fn in_spans(spans: &[(usize, usize)], idx: usize) -> bool {
    spans.iter().any(|&(a, b)| idx >= a && idx <= b)
}

/// Runs every applicable rule over one lexed file.
///
/// `crate_name` is the `crates/<name>/…` component of the path (if any),
/// `in_tests_dir` marks files under a `tests/` directory.
pub fn check_tokens(
    lexed: &Lexed,
    rel_path: &str,
    crate_name: Option<&str>,
    in_tests_dir: bool,
) -> Vec<Violation> {
    let spans = test_spans(lexed);
    let mut out = Vec::new();
    for rule in ALL_RULES {
        if !rule.in_scope(rel_path, crate_name) {
            continue;
        }
        if rule.skips_tests() && in_tests_dir {
            continue;
        }
        let hits = match rule {
            Rule::D1 => rule_d1(lexed),
            Rule::D2 => rule_d2(lexed),
            Rule::D3 => rule_d3(lexed),
            Rule::M1 => rule_m1(lexed),
            Rule::U1 => rule_u1(lexed),
            // Crate-level: sites are collected by collect_atomic_sites
            // and paired in a1_violations, not here.
            Rule::A1 => Vec::new(),
        };
        for (idx, snippet, message) in hits {
            if rule.skips_tests() && in_spans(&spans, idx) {
                continue;
            }
            out.push(Violation {
                rule,
                path: rel_path.to_string(),
                line: lexed.tokens[idx].line,
                snippet,
                message,
            });
        }
    }
    out.sort_by_key(|a| (a.line, a.rule));
    out
}

type Hit = (usize, String, String);

/// D1: `SystemTime::now`, `Instant::now`, argless `thread_rng()`,
/// `from_entropy()`, `rand::random()`.
fn rule_d1(lexed: &Lexed) -> Vec<Hit> {
    let t = &lexed.tokens;
    let mut hits = Vec::new();
    for i in 0..t.len() {
        if t[i].tok.is_ident("now")
            && i >= 3
            && t[i - 1].tok.is_punct(':')
            && t[i - 2].tok.is_punct(':')
        {
            for ty in ["Instant", "SystemTime"] {
                if t[i - 3].tok.is_ident(ty) {
                    hits.push((
                        i,
                        format!("{ty}::now"),
                        format!(
                            "{ty}::now() reads the wall clock; use the simulated \
                             clock (ksim::time), or justify a host-time reading \
                             that no result depends on with allow(D1)"
                        ),
                    ));
                }
            }
        }
        if t[i].tok.is_ident("thread_rng")
            && t.get(i + 1).is_some_and(|n| n.tok.is_punct('('))
            && t.get(i + 2).is_some_and(|n| n.tok.is_punct(')'))
        {
            hits.push((
                i,
                "thread_rng()".to_string(),
                "thread_rng() is unseeded; use StdRng::seed_from_u64 so runs \
                 reproduce under --seed"
                    .to_string(),
            ));
        }
        if t[i].tok.is_ident("from_entropy")
            && t.get(i + 1).is_some_and(|n| n.tok.is_punct('('))
            && t.get(i + 2).is_some_and(|n| n.tok.is_punct(')'))
        {
            hits.push((
                i,
                "from_entropy()".to_string(),
                "from_entropy() seeds from the OS entropy pool; use \
                 StdRng::seed_from_u64 so runs reproduce under --seed"
                    .to_string(),
            ));
        }
        if t[i].tok.is_ident("random")
            && i >= 3
            && t[i - 1].tok.is_punct(':')
            && t[i - 2].tok.is_punct(':')
            && t[i - 3].tok.is_ident("rand")
        {
            // Skip an optional turbofish: rand::random::<T>().
            let mut j = i + 1;
            if t.get(j).is_some_and(|n| n.tok.is_punct(':'))
                && t.get(j + 1).is_some_and(|n| n.tok.is_punct(':'))
                && t.get(j + 2).is_some_and(|n| n.tok.is_punct('<'))
            {
                j += 2;
                let mut depth = 0usize;
                while j < t.len() {
                    if t[j].tok.is_punct('<') {
                        depth += 1;
                    } else if t[j].tok.is_punct('>') {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
            }
            if t.get(j).is_some_and(|n| n.tok.is_punct('(')) {
                hits.push((
                    i,
                    "rand::random()".to_string(),
                    "rand::random() draws from the unseeded thread RNG; use a \
                     seeded StdRng so runs reproduce under --seed"
                        .to_string(),
                ));
            }
        }
    }
    hits
}

/// D2: `.unwrap()` / `.expect(` in library code.
fn rule_d2(lexed: &Lexed) -> Vec<Hit> {
    let t = &lexed.tokens;
    let mut hits = Vec::new();
    for i in 1..t.len() {
        for name in ["unwrap", "expect"] {
            if t[i].tok.is_ident(name)
                && t[i - 1].tok.is_punct('.')
                && t.get(i + 1).is_some_and(|n| n.tok.is_punct('('))
            {
                hits.push((
                    i,
                    format!(".{name}()"),
                    format!(".{name}() panics on the error path; return a typed error"),
                ));
            }
        }
    }
    hits
}

/// D3: `Ordering::Relaxed`.
fn rule_d3(lexed: &Lexed) -> Vec<Hit> {
    let t = &lexed.tokens;
    let mut hits = Vec::new();
    for i in 3..t.len() {
        if t[i].tok.is_ident("Relaxed")
            && t[i - 1].tok.is_punct(':')
            && t[i - 2].tok.is_punct(':')
            && t[i - 3].tok.is_ident("Ordering")
        {
            hits.push((
                i,
                "Ordering::Relaxed".to_string(),
                "Relaxed ordering does not order other memory; use \
                 Acquire/Release (or move the counter to the metrics allowlist)"
                    .to_string(),
            ));
        }
    }
    hits
}

/// M1: bare integer literal as the MSR-address argument of
/// `wrmsr`/`rdmsr`/`wrmsr_on`/`rdmsr_on`.
fn rule_m1(lexed: &Lexed) -> Vec<Hit> {
    let t = &lexed.tokens;
    let mut hits = Vec::new();
    for i in 0..t.len() {
        let (name, addr_arg) = match &t[i].tok {
            Tok::Ident(s) if s == "wrmsr" || s == "rdmsr" => (s.clone(), 0usize),
            Tok::Ident(s) if s == "wrmsr_on" || s == "rdmsr_on" => (s.clone(), 1usize),
            _ => continue,
        };
        let Some(open) = t.get(i + 1) else { continue };
        if !open.tok.is_punct('(') {
            continue;
        }
        // Split the argument list at depth-0 commas and look at the
        // MSR-address argument.
        let mut depth = 1usize;
        let mut arg = 0usize;
        let mut arg_tokens: Vec<usize> = Vec::new();
        let mut j = i + 2;
        while j < t.len() && depth > 0 {
            match &t[j].tok {
                Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Punct(',') if depth == 1 => {
                    arg += 1;
                    j += 1;
                    continue;
                }
                _ => {}
            }
            if arg == addr_arg {
                arg_tokens.push(j);
            }
            j += 1;
        }
        if let [only] = arg_tokens[..] {
            if let Tok::Num(text) = &t[only].tok {
                hits.push((
                    only,
                    format!("{name}({text}, …)"),
                    format!(
                        "bare MSR address {text} in {name}(); name it via a \
                         pmu::msr constant or accessor"
                    ),
                ));
            }
        }
    }
    hits
}

/// U1: every `unsafe` token introducing a block, fn, impl, or trait must
/// have a `// SAFETY:` comment (or a `/// # Safety` doc section line)
/// adjacent above it — on the same line, or separated only by further
/// comment lines and attribute lines.
fn rule_u1(lexed: &Lexed) -> Vec<Hit> {
    use std::collections::{BTreeMap, BTreeSet};
    let t = &lexed.tokens;
    // line -> "some comment on this line justifies unsafe".
    let mut comment_lines: BTreeMap<usize, bool> = BTreeMap::new();
    for c in &lexed.comments {
        let text = c.text.trim();
        let is_safety =
            text.starts_with("SAFETY") || (text.starts_with('/') && text.contains("# Safety"));
        let e = comment_lines.entry(c.line).or_insert(false);
        *e = *e || is_safety;
    }
    // Lines whose first token is `#` — attribute lines, transparent when
    // walking up from `unsafe` to its justification.
    let mut first_tok_on_line: BTreeMap<usize, &Tok> = BTreeMap::new();
    for tok in t {
        first_tok_on_line.entry(tok.line).or_insert(&tok.tok);
    }
    let attr_lines: BTreeSet<usize> = first_tok_on_line
        .iter()
        .filter(|(_, tok)| tok.is_punct('#'))
        .map(|(&l, _)| l)
        .collect();

    let mut hits = Vec::new();
    for i in 0..t.len() {
        if !t[i].tok.is_ident("unsafe") {
            continue;
        }
        let kind = match t.get(i + 1).map(|n| &n.tok) {
            Some(Tok::Ident(s)) if s == "fn" => "unsafe fn",
            Some(Tok::Ident(s)) if s == "impl" => "unsafe impl",
            Some(Tok::Ident(s)) if s == "trait" => "unsafe trait",
            Some(Tok::Ident(s)) if s == "extern" => "unsafe extern",
            _ => "unsafe block",
        };
        let line = t[i].line;
        let mut justified = comment_lines.get(&line).copied().unwrap_or(false);
        let mut l = line;
        while !justified && l > 1 {
            l -= 1;
            match comment_lines.get(&l) {
                Some(true) => justified = true,
                Some(false) => {}
                // Attribute lines (e.g. `#[cfg(kloom)]`) may sit between
                // the comment and the unsafe token; anything else ends
                // the adjacency walk.
                None if attr_lines.contains(&l) => {}
                None => break,
            }
        }
        if !justified {
            hits.push((
                i,
                kind.to_string(),
                format!(
                    "{kind} without an adjacent `// SAFETY:` comment (or \
                     `/// # Safety` doc section) justifying it"
                ),
            ));
        }
    }
    hits
}

/// One atomic-method call site with an explicit `Ordering::…` argument,
/// collected per file and paired crate-wide by [`a1_violations`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomicSite {
    /// Workspace-relative path of the file.
    pub path: String,
    /// Crate the file belongs to (`crates/<name>/…`).
    pub crate_name: String,
    /// 1-based line of the method identifier.
    pub line: usize,
    /// Receiver field the atomic lives in (`tail` in
    /// `self.shared.tail.0.store(…)`).
    pub field: String,
    /// The atomic method (`load`, `store`, `fetch_add`, …).
    pub op: String,
    /// Every `Ordering::X` named in the argument list (two for
    /// `compare_exchange`).
    pub orderings: Vec<String>,
}

const ATOMIC_OPS: [&str; 13] = [
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Collects [`AtomicSite`]s from one lexed file, honoring A1's scope
/// (skips test code; files outside `crates/` yield nothing). Sites whose
/// ordering is not a literal `Ordering::X` (e.g. passed through a
/// variable) are skipped — pairing needs the spelling.
pub fn collect_atomic_sites(
    lexed: &Lexed,
    rel_path: &str,
    crate_name: Option<&str>,
    in_tests_dir: bool,
) -> Vec<AtomicSite> {
    let Some(crate_name) = crate_name else {
        return Vec::new();
    };
    if in_tests_dir || !Rule::A1.applies_to_crate(Some(crate_name)) {
        return Vec::new();
    }
    let spans = test_spans(lexed);
    let t = &lexed.tokens;
    let mut out = Vec::new();
    for i in 2..t.len() {
        let Tok::Ident(op) = &t[i].tok else { continue };
        if !ATOMIC_OPS.contains(&op.as_str())
            || !t[i - 1].tok.is_punct('.')
            || !t.get(i + 1).is_some_and(|n| n.tok.is_punct('('))
            || in_spans(&spans, i)
        {
            continue;
        }
        // Resolve the receiver field, walking back over `.0` tuple
        // projections (`self.shared.tail.0.store` → `tail`).
        let mut j = i - 2;
        let field = loop {
            match &t[j].tok {
                Tok::Ident(s) => break Some(s.clone()),
                Tok::Num(_) if j >= 2 && t[j - 1].tok.is_punct('.') => j -= 2,
                _ => break None,
            }
        };
        let Some(field) = field else { continue };
        // Scan the argument list (at any nesting depth — `proto_ord!`
        // style macros wrap the literal) for `Ordering :: X`.
        let mut orderings = Vec::new();
        let mut depth = 1usize;
        let mut k = i + 2;
        while k < t.len() && depth > 0 {
            match &t[k].tok {
                Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => depth -= 1,
                Tok::Ident(s)
                    if s == "Ordering"
                        && t.get(k + 1).is_some_and(|n| n.tok.is_punct(':'))
                        && t.get(k + 2).is_some_and(|n| n.tok.is_punct(':')) =>
                {
                    if let Some(Tok::Ident(ord)) = t.get(k + 3).map(|n| &n.tok) {
                        if ORDERINGS.contains(&ord.as_str()) {
                            orderings.push(ord.clone());
                        }
                    }
                }
                _ => {}
            }
            k += 1;
        }
        if orderings.is_empty() {
            continue;
        }
        out.push(AtomicSite {
            path: rel_path.to_string(),
            crate_name: crate_name.to_string(),
            line: t[i].line,
            field,
            op: op.clone(),
            orderings,
        });
    }
    out
}

/// A1's crate-level pass: groups sites by `(crate, field)` and checks
/// that (a) a `Release` (or `AcqRel`) write has a same-field
/// `Acquire`/`AcqRel` read somewhere in the crate, and (b) no field
/// mixes `SeqCst` with `Relaxed` accesses.
pub fn a1_violations(sites: &[AtomicSite]) -> Vec<Violation> {
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<(&str, &str), Vec<&AtomicSite>> = BTreeMap::new();
    for s in sites {
        groups
            .entry((s.crate_name.as_str(), s.field.as_str()))
            .or_default()
            .push(s);
    }
    let mut out = Vec::new();
    for ((krate, field), group) in groups {
        let has = |s: &AtomicSite, ord: &str| s.orderings.iter().any(|o| o == ord);
        let is_write = |s: &AtomicSite| s.op != "load";
        let is_read = |s: &AtomicSite| s.op != "store";
        let rel_write = group
            .iter()
            .find(|s| is_write(s) && (has(s, "Release") || has(s, "AcqRel")));
        let acq_read = group
            .iter()
            .any(|s| is_read(s) && (has(s, "Acquire") || has(s, "AcqRel")));
        if let Some(w) = rel_write {
            if !acq_read {
                out.push(Violation {
                    rule: Rule::A1,
                    path: w.path.clone(),
                    line: w.line,
                    snippet: format!("{field}.{}(Release) unpaired", w.op),
                    message: format!(
                        "Release write to `{field}` has no Acquire/AcqRel read \
                         anywhere in crate `{krate}` — nothing ever \
                         synchronizes-with this publication"
                    ),
                });
            }
        }
        let has_seqcst = group.iter().any(|s| has(s, "SeqCst"));
        let relaxed = group.iter().find(|s| has(s, "Relaxed"));
        if has_seqcst {
            if let Some(r) = relaxed {
                out.push(Violation {
                    rule: Rule::A1,
                    path: r.path.clone(),
                    line: r.line,
                    snippet: format!("{field}: SeqCst mixed with Relaxed"),
                    message: format!(
                        "field `{field}` in crate `{krate}` is accessed with both \
                         SeqCst and Relaxed — the SeqCst total order silently \
                         excludes the Relaxed accesses; pick one discipline"
                    ),
                });
            }
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}
