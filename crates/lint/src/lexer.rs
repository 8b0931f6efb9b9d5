//! A hand-rolled Rust token scanner — just enough lexical structure for
//! the rule engine: identifiers, punctuation, literals, and the
//! `// lint:allow(...)` suppression comments.
//!
//! The scanner is deliberately not a full Rust lexer. It understands the
//! parts that matter for sound pattern matching: line and (nested) block
//! comments, string/raw-string/byte-string/char literals (so that a
//! forbidden name inside a string or comment is never a finding), and the
//! lifetime-vs-char-literal ambiguity of `'`.

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`unwrap`, `impl`, `unsafe`, ...).
    Ident,
    /// A single punctuation byte (`.`, `!`, `{`, `(`, `#`, ...).
    Punct,
    /// A string, raw-string, byte-string, char or numeric literal.
    Literal,
    /// A lifetime such as `'a` or `'static`.
    Lifetime,
}

/// One lexeme with its source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// Lexeme kind.
    pub kind: TokKind,
    /// Byte range into the scanned source.
    pub start: usize,
    /// End byte offset (exclusive).
    pub end: usize,
    /// 1-based line number of `start`.
    pub line: u32,
    /// 1-based column (in bytes) of `start`.
    pub col: u32,
}

impl Token {
    /// The lexeme text.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }
}

/// A `// lint:allow(<rule>): <justification>` suppression comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Rule id, e.g. `R1`.
    pub rule: String,
    /// The justification text after the colon.
    pub justification: String,
    /// 1-based line the comment sits on. The suppression covers findings
    /// on this line and the next.
    pub line: u32,
}

/// The result of scanning one source file.
#[derive(Debug, Default)]
pub struct Scan {
    /// Code tokens in source order (comments and whitespace dropped).
    pub tokens: Vec<Token>,
    /// Suppression comments found, in source order.
    pub suppressions: Vec<Suppression>,
}

/// Tokenize `src`. Never fails: unrecognized bytes are skipped, an
/// unterminated literal or comment simply ends the scan at end of input.
pub fn scan(src: &str) -> Scan {
    Lexer {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
        out: Scan::default(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    out: Scan,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Scan {
        while self.pos < self.bytes.len() {
            let (line, col, start) = (self.line, self.col, self.pos);
            let b = self.bytes[self.pos];
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.advance();
                }
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => {
                    self.string_literal();
                    self.push(TokKind::Literal, start, line, col);
                }
                b'\'' => self.quote(start, line, col),
                b'0'..=b'9' => {
                    self.number();
                    self.push(TokKind::Literal, start, line, col);
                }
                _ if is_ident_start(b) => {
                    self.ident();
                    // r"..." / r#"..."# / b"..." / b'x' / br#"..."# prefixes
                    let text = &self.src[start..self.pos];
                    if matches!(text, "r" | "b" | "br" | "rb")
                        && matches!(self.cur(), Some(b'"') | Some(b'#') | Some(b'\''))
                    {
                        let raw = text.contains('r');
                        match self.cur() {
                            Some(b'\'') => {
                                self.advance(); // consume the quote
                                self.char_literal_body();
                            }
                            _ => self.raw_or_plain_string(raw),
                        }
                        self.push(TokKind::Literal, start, line, col);
                    } else {
                        self.push(TokKind::Ident, start, line, col);
                    }
                }
                _ if b < 0x80 => {
                    self.advance();
                    self.push(TokKind::Punct, start, line, col);
                }
                _ => {
                    // non-ASCII outside literals: skip the whole char
                    self.advance();
                }
            }
        }
        self.out
    }

    fn push(&mut self, kind: TokKind, start: usize, line: u32, col: u32) {
        self.out.tokens.push(Token {
            kind,
            start,
            end: self.pos,
            line,
            col,
        });
    }

    #[inline]
    fn cur(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn peek(&self, n: usize) -> Option<u8> {
        self.bytes.get(self.pos + n).copied()
    }

    fn advance(&mut self) {
        if self.bytes[self.pos] == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        self.pos += 1;
    }

    fn line_comment(&mut self) {
        let start = self.pos;
        let line = self.line;
        while self.cur().is_some_and(|b| b != b'\n') {
            self.advance();
        }
        let body = &self.src[start..self.pos];
        if let Some(sup) = parse_suppression(body, line) {
            self.out.suppressions.push(sup);
        }
    }

    fn block_comment(&mut self) {
        // nested, as in Rust
        let mut depth = 0usize;
        while self.pos < self.bytes.len() {
            if self.cur() == Some(b'/') && self.peek(1) == Some(b'*') {
                depth += 1;
                self.advance();
                self.advance();
            } else if self.cur() == Some(b'*') && self.peek(1) == Some(b'/') {
                self.advance();
                self.advance();
                depth -= 1;
                if depth == 0 {
                    return;
                }
            } else {
                self.advance();
            }
        }
    }

    fn string_literal(&mut self) {
        self.advance(); // opening quote
        while let Some(b) = self.cur() {
            match b {
                b'\\' => {
                    self.advance();
                    if self.cur().is_some() {
                        self.advance();
                    }
                }
                b'"' => {
                    self.advance();
                    return;
                }
                _ => self.advance(),
            }
        }
    }

    /// After an `r`/`b`/`br`/`rb` prefix: either `#*"..."#*` (raw, when
    /// the prefix contains `r`) or a plain escaped string body (`b"..."`).
    fn raw_or_plain_string(&mut self, raw: bool) {
        let mut hashes = 0usize;
        while self.cur() == Some(b'#') {
            hashes += 1;
            self.advance();
        }
        if self.cur() != Some(b'"') {
            return; // `#` that wasn't a raw string after all
        }
        if !raw {
            // b"..." — ordinary escapes apply
            self.string_literal();
            return;
        }
        self.advance(); // opening quote
                        // raw body: ends at `"` followed by `hashes` hashes (no escapes)
        'outer: while self.cur().is_some() {
            if self.cur() == Some(b'"') {
                for i in 0..hashes {
                    if self.peek(1 + i) != Some(b'#') {
                        self.advance();
                        continue 'outer;
                    }
                }
                self.advance();
                for _ in 0..hashes {
                    self.advance();
                }
                return;
            }
            self.advance();
        }
    }

    /// A `'`: lifetime or char literal.
    fn quote(&mut self, start: usize, line: u32, col: u32) {
        self.advance(); // the quote
        match self.cur() {
            Some(b'\\') => {
                // escaped char literal: '\n', '\'', '\\', '\u{..}'
                self.char_literal_body();
                self.push(TokKind::Literal, start, line, col);
            }
            Some(b) if is_ident_start(b) || b >= 0x80 => {
                // Could be 'a' (char) or 'a / 'static (lifetime): consume
                // the ident run, then check for a closing quote.
                while self.cur().is_some_and(|c| is_ident_char(c) || c >= 0x80) {
                    self.advance();
                }
                if self.cur() == Some(b'\'') {
                    self.advance();
                    self.push(TokKind::Literal, start, line, col);
                } else {
                    self.push(TokKind::Lifetime, start, line, col);
                }
            }
            Some(_) => {
                // ',' or similar single-char literal
                self.char_literal_body();
                self.push(TokKind::Literal, start, line, col);
            }
            None => {}
        }
    }

    /// Consume a char-literal body up to and including the closing `'`
    /// (the opening quote is already consumed).
    fn char_literal_body(&mut self) {
        while let Some(b) = self.cur() {
            match b {
                b'\\' => {
                    self.advance();
                    if self.cur().is_some() {
                        self.advance();
                    }
                }
                b'\'' => {
                    self.advance();
                    return;
                }
                _ => self.advance(),
            }
        }
    }

    fn number(&mut self) {
        while self
            .cur()
            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
        {
            self.advance();
        }
        // fraction: `.` followed by a digit (not `..` range, not method)
        if self.cur() == Some(b'.') && self.peek(1).is_some_and(|b| b.is_ascii_digit()) {
            self.advance();
            while self
                .cur()
                .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
            {
                self.advance();
            }
        }
    }

    fn ident(&mut self) {
        while self.cur().is_some_and(is_ident_char) {
            self.advance();
        }
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Parse a suppression of the form `lint:allow(R1): justification` from a
/// line-comment body. The directive must be the first thing in the
/// comment (so prose and doc comments that merely *mention* the syntax
/// are not suppressions). Returns `None` for ordinary comments or
/// malformed suppressions (a malformed suppression simply does not
/// suppress).
fn parse_suppression(comment: &str, line: u32) -> Option<Suppression> {
    let body = comment.strip_prefix("//")?.trim_start();
    let rest = body.strip_prefix("lint:allow(")?;
    let close = rest.find(')')?;
    let rule = rest[..close].trim().to_string();
    if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_alphanumeric()) {
        return None;
    }
    let after = &rest[close + 1..];
    let justification = after.strip_prefix(':')?.trim().to_string();
    if justification.is_empty() {
        return None; // a suppression must say why
    }
    Some(Suppression {
        rule,
        justification,
        line,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        scan(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text(src).to_string())
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_tokens() {
        let src = r##"
            // unwrap in a comment
            /* panic! in /* a nested */ block */
            let s = "call .unwrap() here";
            let r = r#"also panic!()"#;
            let ok = value;
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap".to_string()), "{ids:?}");
        assert!(!ids.contains(&"panic".to_string()), "{ids:?}");
        assert!(ids.contains(&"value".to_string()));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }";
        let s = scan(src);
        let lifetimes: Vec<_> = s
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a"]);
        let lits = s
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Literal)
            .count();
        assert_eq!(lits, 2, "'x' and '\\n'");
    }

    #[test]
    fn positions_are_one_based() {
        let src = "a\n  b";
        let s = scan(src);
        assert_eq!((s.tokens[0].line, s.tokens[0].col), (1, 1));
        assert_eq!((s.tokens[1].line, s.tokens[1].col), (2, 3));
    }

    #[test]
    fn suppression_comments_parsed() {
        let src = "// lint:allow(R1): invariant upheld by caller\nx.unwrap();";
        let s = scan(src);
        assert_eq!(s.suppressions.len(), 1);
        assert_eq!(s.suppressions[0].rule, "R1");
        assert_eq!(s.suppressions[0].line, 1);
        assert!(s.suppressions[0].justification.contains("invariant"));
    }

    #[test]
    fn suppression_without_justification_ignored() {
        let s = scan("// lint:allow(R1):\nx.unwrap();");
        assert!(s.suppressions.is_empty());
        let s = scan("// lint:allow(R1)\nx.unwrap();");
        assert!(s.suppressions.is_empty());
    }

    #[test]
    fn byte_and_raw_strings() {
        let src = r##"let a = b"unsafe"; let c = br#"unwrap"#; let d = b'u';"##;
        let ids = idents(src);
        assert!(!ids.contains(&"unsafe".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
    }
}
