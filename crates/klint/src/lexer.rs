//! A lightweight Rust lexer: just enough tokenization for the rule engine.
//!
//! The rules in [`crate::rules`] match on identifier/punctuation patterns
//! (`Instant :: now`, `. unwrap (`, a bare integer literal in a `wrmsr`
//! argument list). What makes `grep` unusable for this is Rust's literal
//! and comment syntax: `// Instant::now` in a doc comment, `"unwrap"` in a
//! string, `'a'` versus the lifetime `'a`, nested `/* /* */ */` block
//! comments, raw strings `r#"…"#`. The lexer's entire job is to strip those
//! out correctly and hand the rules a clean token stream with line numbers.
//!
//! Not handled (not needed): token *values* beyond identifier and integer
//! spelling, float edge cases, or macro expansion. The stream is the
//! source's surface syntax.

/// What kind of token was lexed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (`unwrap`, `fn`, `r#match`).
    Ident(String),
    /// Integer or float literal, original spelling (`0x38F`, `1_000u64`).
    Num(String),
    /// String literal of any flavor (content discarded).
    Str,
    /// Character literal (content discarded).
    Char,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// Single punctuation character (`::` arrives as two `:`).
    Punct(char),
}

/// One token plus the 1-based source line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token kind and spelling.
    pub tok: Tok,
    /// 1-based line number.
    pub line: usize,
}

/// A `//` comment (doc or plain) with its line, kept for suppression
/// parsing (`// klint: allow(D2)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineComment {
    /// Text after the `//`, untrimmed.
    pub text: String,
    /// 1-based line number.
    pub line: usize,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// `//` comments in source order.
    pub comments: Vec<LineComment>,
}

/// Lexes `src`, discarding comment and literal *content* but keeping
/// `//` comment text for suppression parsing.
pub fn lex(src: &str) -> Lexed {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    out: Lexed,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn push(&mut self, tok: Tok, line: usize) {
        self.out.tokens.push(Token { tok, line });
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => {
                    self.bump();
                    self.string_body(0, false);
                    self.push(Tok::Str, line);
                }
                'b' | 'r' if self.raw_or_byte_literal(line) => {}
                c if c == '_' || c.is_alphabetic() => self.ident(line),
                c if c.is_ascii_digit() => self.number(line),
                '\'' => self.quote(line),
                other => {
                    self.bump();
                    self.push(Tok::Punct(other), line);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let line = self.line;
        self.bump();
        self.bump();
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out.comments.push(LineComment { text, line });
    }

    fn block_comment(&mut self) {
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some('*'), Some('/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break, // unterminated; tolerate
            }
        }
    }

    /// Handles `b"…"`, `r"…"`, `r#"…"#`, `br#"…"#` and raw identifiers
    /// (`r#match`). Returns false if this is just an ordinary identifier
    /// starting with `b`/`r` (caller then lexes it as an ident).
    fn raw_or_byte_literal(&mut self, line: usize) -> bool {
        let c0 = self.peek(0);
        let (skip, raw) = match (c0, self.peek(1)) {
            (Some('b'), Some('"')) => (1, false),
            (Some('b'), Some('r')) => match self.peek(2) {
                Some('"') | Some('#') => (2, true),
                _ => return false,
            },
            (Some('r'), Some('"')) => (1, true),
            (Some('r'), Some('#')) => (1, true),
            _ => return false,
        };
        if raw {
            // Distinguish r#"…" (raw string) from r#ident (raw identifier).
            let mut hashes = 0usize;
            while self.peek(skip + hashes) == Some('#') {
                hashes += 1;
            }
            match self.peek(skip + hashes) {
                Some('"') => {}
                _ if hashes > 0 => return false, // r#ident → plain ident path
                _ => return false,
            }
            for _ in 0..skip + hashes + 1 {
                self.bump();
            }
            self.string_body(hashes, true);
        } else {
            self.bump();
            self.bump();
            self.string_body(0, false);
        }
        self.push(Tok::Str, line);
        true
    }

    /// Consumes a string body up to the closing quote followed by `hashes`
    /// `#` characters. Backslash escapes only exist when `!raw` (note
    /// `r"\"` is a complete raw string: rawness is independent of the
    /// hash count).
    fn string_body(&mut self, hashes: usize, raw: bool) {
        loop {
            match self.peek(0) {
                None => break, // unterminated; tolerate
                Some('\\') if !raw => {
                    self.bump();
                    self.bump();
                }
                Some('"') => {
                    let mut ok = true;
                    for i in 0..hashes {
                        if self.peek(1 + i) != Some('#') {
                            ok = false;
                            break;
                        }
                    }
                    self.bump();
                    if ok {
                        for _ in 0..hashes {
                            self.bump();
                        }
                        break;
                    }
                }
                Some(_) => {
                    self.bump();
                }
            }
        }
    }

    fn ident(&mut self, line: usize) {
        let mut text = String::new();
        // Raw identifier prefix: treat `r#match` as ident `match`.
        if self.peek(0) == Some('r') && self.peek(1) == Some('#') {
            self.bump();
            self.bump();
        }
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(Tok::Ident(text), line);
    }

    fn number(&mut self, line: usize) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else if c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                // Float like 1.5 — but not ranges (1..2) or methods (1.max).
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(Tok::Num(text), line);
    }

    /// `'` starts either a lifetime or a char literal.
    fn quote(&mut self, line: usize) {
        self.bump(); // the opening '
        match self.peek(0) {
            // Escaped char: '\n', '\'', '\u{…}'.
            Some('\\') => {
                self.bump();
                self.bump(); // escape head (or u of \u{…})
                while let Some(c) = self.peek(0) {
                    self.bump();
                    if c == '\'' {
                        break;
                    }
                }
                self.push(Tok::Char, line);
            }
            // 'x' (char) vs 'x (lifetime start): decided by the next char.
            Some(c) if c == '_' || c.is_alphanumeric() => {
                if self.peek(1) == Some('\'') {
                    self.bump();
                    self.bump();
                    self.push(Tok::Char, line);
                } else {
                    while let Some(c) = self.peek(0) {
                        if c == '_' || c.is_alphanumeric() {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.push(Tok::Lifetime, line);
                }
            }
            // Punctuation char literal: '(' etc.
            Some(_) => {
                self.bump();
                if self.peek(0) == Some('\'') {
                    self.bump();
                }
                self.push(Tok::Char, line);
            }
            None => self.push(Tok::Punct('\''), line),
        }
    }
}

impl Tok {
    /// True if this token is the identifier `name`.
    pub(crate) fn is_ident(&self, name: &str) -> bool {
        matches!(self, Tok::Ident(s) if s == name)
    }

    /// True if this token is the punctuation `c`.
    pub(crate) fn is_punct(&self, c: char) -> bool {
        matches!(self, Tok::Punct(p) if *p == c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).tokens.into_iter().map(|t| t.tok).collect()
    }

    fn idents(src: &str) -> Vec<String> {
        toks(src)
            .into_iter()
            .filter_map(|t| match t {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn plain_tokens_with_lines() {
        let lexed = lex("let x = 42;\nlet y = x;\n");
        assert_eq!(lexed.tokens[0].tok, Tok::Ident("let".into()));
        assert_eq!(lexed.tokens[0].line, 1);
        let y = lexed.tokens.iter().find(|t| t.tok.is_ident("y")).unwrap();
        assert_eq!(y.line, 2);
    }

    #[test]
    fn string_content_is_discarded() {
        // The word `unwrap` inside a string must not reach the rules.
        assert_eq!(idents(r#"let s = "x.unwrap()";"#), vec!["let", "s"]);
        assert_eq!(toks(r#""a\"b\\""#), vec![Tok::Str]);
    }

    #[test]
    fn raw_strings_ignore_escapes_and_inner_quotes() {
        // r"\" is a complete raw string (backslash is literal).
        assert_eq!(toks(r#"r"\" ; "#), vec![Tok::Str, Tok::Punct(';')]);
        // Hashes guard inner quotes: the " before the closing "## stays inside.
        assert_eq!(
            toks(r###"r##"quote " inside"## ;"###),
            vec![Tok::Str, Tok::Punct(';')]
        );
        // Byte and byte-raw strings lex the same way.
        assert_eq!(toks(r##"b"bytes" br#"raw bytes"# ;"##).len(), 3);
    }

    #[test]
    fn raw_identifier_is_an_ident_not_a_string() {
        assert_eq!(idents("r#match r#unwrap"), vec!["match", "unwrap"]);
    }

    #[test]
    fn nested_block_comments_vanish() {
        let src = "a /* outer /* inner */ still outer */ b";
        assert_eq!(idents(src), vec!["a", "b"]);
    }

    #[test]
    fn line_comment_text_is_kept_for_suppressions() {
        let lexed = lex("let x = 1; // klint: allow(D2)\n");
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.comments[0].text, " klint: allow(D2)");
        assert_eq!(lexed.comments[0].line, 1);
        // Comment content contributes no code tokens.
        assert!(lexed.tokens.iter().all(|t| !t.tok.is_ident("klint")));
    }

    #[test]
    fn commented_out_violation_is_not_a_token() {
        assert_eq!(idents("// Instant::now()\nreal"), vec!["real"]);
    }

    #[test]
    fn char_literal_vs_lifetime() {
        // 'a' is a char; 'a (no closing quote) is a lifetime.
        assert_eq!(toks("'a'"), vec![Tok::Char]);
        assert_eq!(toks("&'a str")[1], Tok::Lifetime);
        assert_eq!(toks("'static")[0], Tok::Lifetime);
        // Escaped char literals, including multi-char escapes.
        assert_eq!(toks(r"'\n'"), vec![Tok::Char]);
        assert_eq!(toks(r"'\u{1F600}'"), vec![Tok::Char]);
        // Punctuation char literal must not open a string-like region.
        assert_eq!(toks("'(' x"), vec![Tok::Char, Tok::Ident("x".into())]);
    }

    #[test]
    fn numbers_keep_their_spelling() {
        assert_eq!(
            toks("0x38F 1_000u64 1.5"),
            vec![
                Tok::Num("0x38F".into()),
                Tok::Num("1_000u64".into()),
                Tok::Num("1.5".into())
            ]
        );
        // Ranges and method calls on ints do not swallow the dot.
        assert_eq!(toks("0..4")[0], Tok::Num("0".into()));
        assert_eq!(toks("0..4")[3], Tok::Num("4".into()));
    }

    #[test]
    fn double_colon_arrives_as_two_puncts() {
        let t = toks("Instant::now");
        assert_eq!(
            t,
            vec![
                Tok::Ident("Instant".into()),
                Tok::Punct(':'),
                Tok::Punct(':'),
                Tok::Ident("now".into())
            ]
        );
    }
}
