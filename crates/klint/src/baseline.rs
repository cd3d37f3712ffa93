//! Baseline files: freeze existing debt without ignoring it.
//!
//! A baseline maps `(rule, path, snippet)` to an allowed count. Keying on
//! the snippet rather than the line number makes the baseline stable under
//! unrelated edits: moving a function does not un-freeze its debt, but
//! adding a *new* `.unwrap()` to a frozen file raises the count and fails
//! the gate.
//!
//! Format: one entry per line, tab-separated, sorted —
//!
//! ```text
//! D2\tcrates/ksim/src/machine.rs\t.expect()\t2
//! ```

use std::collections::BTreeMap;

use crate::rules::{Rule, Violation};

/// Key of one baseline entry.
type Key = (Rule, String, String);

/// Allowed violation counts, keyed by `(rule, path, snippet)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    entries: BTreeMap<Key, usize>,
}

/// A malformed baseline line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number in the baseline file.
    pub line: usize,
    /// What was wrong.
    pub reason: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "baseline line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseError {}

impl Baseline {
    /// Parses the serialized form produced by [`Baseline::serialize`].
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] for lines that are not
    /// `rule\tpath\tsnippet\tcount` (blank lines and `#` comments are
    /// skipped).
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let mut entries = BTreeMap::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim_end();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |reason: &str| ParseError {
                line: i + 1,
                reason: reason.to_string(),
            };
            let mut parts = line.split('\t');
            let rule = parts
                .next()
                .and_then(Rule::parse)
                .ok_or_else(|| err("unknown rule"))?;
            let path = parts.next().ok_or_else(|| err("missing path"))?;
            let snippet = parts.next().ok_or_else(|| err("missing snippet"))?;
            let count: usize = parts
                .next()
                .and_then(|c| c.parse().ok())
                .ok_or_else(|| err("missing or non-numeric count"))?;
            if parts.next().is_some() {
                return Err(err("trailing fields"));
            }
            entries.insert((rule, path.to_string(), snippet.to_string()), count);
        }
        Ok(Self { entries })
    }

    /// Builds a baseline that freezes exactly `violations`.
    pub fn from_violations(violations: &[Violation]) -> Self {
        let mut entries: BTreeMap<Key, usize> = BTreeMap::new();
        for v in violations {
            *entries
                .entry((v.rule, v.path.clone(), v.snippet.clone()))
                .or_default() += 1;
        }
        Self { entries }
    }

    /// The serialized, sorted textual form (deterministic: serialize ∘
    /// parse is the identity, which the idempotency test relies on).
    pub fn serialize(&self) -> String {
        let mut out = String::from(
            "# klint baseline: frozen pre-existing violations (rule\tpath\tsnippet\tcount).\n\
             # Regenerate with `cargo run -p klint -- --workspace --write-baseline`.\n",
        );
        for ((rule, path, snippet), count) in &self.entries {
            out.push_str(&format!("{}\t{path}\t{snippet}\t{count}\n", rule.name()));
        }
        out
    }

    /// Total allowed count across all entries.
    pub fn total(&self) -> usize {
        self.entries.values().sum()
    }

    /// Splits `violations` into (new, frozen): each key's first
    /// `allowed(key)` occurrences are frozen, the excess is new.
    pub fn split<'a>(
        &self,
        violations: &'a [Violation],
    ) -> (Vec<&'a Violation>, Vec<&'a Violation>) {
        let mut remaining = self.entries.clone();
        let mut new = Vec::new();
        let mut frozen = Vec::new();
        for v in violations {
            let key = (v.rule, v.path.clone(), v.snippet.clone());
            match remaining.get_mut(&key) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    frozen.push(v);
                }
                _ => new.push(v),
            }
        }
        (new, frozen)
    }
}
