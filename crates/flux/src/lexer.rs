//! Hand-rolled lexer for the flux update DSL (in the style of
//! `xupd-lint`'s Rust lexer, but for a far smaller token alphabet).
//!
//! The interesting tokens are *composite*: a `Path` token swallows a
//! whole XPath (`/site/people/person[2]`), a `Tree` token swallows a
//! balanced XML snippet (`<person><name>x</name></person>`), and a
//! `Str` token a double-quoted string. Keeping those as single tokens
//! means the parser never has to re-tokenize XPath or XML syntax — it
//! hands the raw text to `xupd_encoding::parse_xpath` /
//! `xupd_xmldom::parse` and converts their errors into span-carrying
//! diagnostics.
//!
//! The lexer walks `char_indices`, so every recorded offset is a char
//! boundary: arbitrary (even non-UTF-8-aligned mutations of) source
//! text can never make a downstream slice panic. The parser fuzz
//! property in `tests/flux_diagnostics.rs` pins this.

use crate::diag::{Diagnostic, Span};

/// Token kinds of the DSL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// A bare word: keyword (`insert`, `into`, ...) or element name.
    Word,
    /// An XPath argument, starting with `/` or `.`.
    Path,
    /// A balanced XML tree literal, starting with `<`.
    Tree,
    /// A double-quoted string (quotes included in the span).
    Str,
    /// Statement separator `;`.
    Semi,
}

/// One token: kind plus the source span it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// What kind of token.
    pub kind: TokKind,
    /// Source range (byte offsets on char boundaries).
    pub span: Span,
}

impl Token {
    /// The token's raw text.
    pub fn text<'s>(&self, src: &'s str) -> &'s str {
        src.get(self.span.start..self.span.end).unwrap_or("")
    }
}

/// Lex `src` into tokens. `#` starts a comment running to end of line.
/// Returns the token stream or the first lexical error (unterminated
/// string / unbalanced tree literal).
pub fn lex(src: &str) -> Result<Vec<Token>, Diagnostic> {
    let chars: Vec<(usize, char)> = src.char_indices().collect();
    let end_of = |i: usize| -> usize { chars.get(i).map(|&(off, _)| off).unwrap_or(src.len()) };
    // Token starts are strictly increasing, so line/column tracking is
    // one forward walk over the whole source (`Span::at` from scratch
    // per token would make lexing quadratic in program length).
    let mut cursor = PosCursor::default();
    let mut span_from = |chars: &[(usize, char)], start_i: usize, start: usize, end: usize| {
        let (line, col) = cursor.advance_to(chars, start_i);
        Span {
            start,
            end,
            line,
            col,
        }
    };
    let mut toks = Vec::new();
    let mut i = 0usize;
    while i < chars.len() {
        let (off, c) = chars[i];
        match c {
            c if c.is_whitespace() => i += 1,
            '#' => {
                while i < chars.len() && chars[i].1 != '\n' {
                    i += 1;
                }
            }
            ';' => {
                toks.push(Token {
                    kind: TokKind::Semi,
                    span: span_from(&chars, i, off, end_of(i + 1)),
                });
                i += 1;
            }
            '"' => {
                let start = i;
                i += 1;
                while i < chars.len() && chars[i].1 != '"' {
                    i += 1;
                }
                if i >= chars.len() {
                    return Err(Diagnostic::new(
                        "F001",
                        Span::at(src, off, src.len()),
                        "unterminated string literal",
                    ));
                }
                i += 1; // past the closing quote
                toks.push(Token {
                    kind: TokKind::Str,
                    span: span_from(&chars, start, chars[start].0, end_of(i)),
                });
            }
            '/' | '.' => {
                let (start_i, start) = (i, off);
                i = lex_path(&chars, i);
                toks.push(Token {
                    kind: TokKind::Path,
                    span: span_from(&chars, start_i, start, end_of(i)),
                });
            }
            '<' => {
                let (start_i, start) = (i, off);
                i = lex_tree(&chars, i).ok_or_else(|| {
                    Diagnostic::new(
                        "F003",
                        Span::at(src, start, src.len()),
                        "unbalanced XML tree literal",
                    )
                })?;
                toks.push(Token {
                    kind: TokKind::Tree,
                    span: span_from(&chars, start_i, start, end_of(i)),
                });
            }
            c if is_word_char(c) => {
                let (start_i, start) = (i, off);
                while i < chars.len() && is_word_char(chars[i].1) {
                    i += 1;
                }
                toks.push(Token {
                    kind: TokKind::Word,
                    span: span_from(&chars, start_i, start, end_of(i)),
                });
            }
            _ => {
                return Err(Diagnostic::new(
                    "F001",
                    Span::at(src, off, end_of(i + 1)),
                    format!("unexpected character {c:?}"),
                ));
            }
        }
    }
    Ok(toks)
}

fn is_word_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '-'
}

/// Forward-only line/column tracker over the lexer's char table.
struct PosCursor {
    idx: usize,
    line: u32,
    col: u32,
}

impl Default for PosCursor {
    fn default() -> Self {
        PosCursor {
            idx: 0,
            line: 1,
            col: 1,
        }
    }
}

impl PosCursor {
    /// Line/column of `chars[target]`, advancing the cursor there.
    /// Targets must be non-decreasing across calls.
    fn advance_to(&mut self, chars: &[(usize, char)], target: usize) -> (u32, u32) {
        while self.idx < target && self.idx < chars.len() {
            if chars[self.idx].1 == '\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
            self.idx += 1;
        }
        (self.line, self.col)
    }
}

/// Consume a path starting at `chars[i]` (`/` or `.`): runs until
/// whitespace, `;` or `#` at bracket depth 0 outside quotes. Brackets
/// track `[...]` predicates, whose quoted values may contain anything.
fn lex_path(chars: &[(usize, char)], mut i: usize) -> usize {
    let mut depth = 0usize;
    let mut quote: Option<char> = None;
    while i < chars.len() {
        let c = chars[i].1;
        if let Some(q) = quote {
            if c == q {
                quote = None;
            }
        } else {
            match c {
                '"' | '\'' => quote = Some(c),
                '[' => depth += 1,
                ']' => depth = depth.saturating_sub(1),
                ';' | '#' if depth == 0 => break,
                c if c.is_whitespace() && depth == 0 => break,
                _ => {}
            }
        }
        i += 1;
    }
    i
}

/// Consume a balanced XML snippet starting at `chars[i] == '<'`.
/// Tracks element nesting: `<x>` opens, `</x>` closes, `<x/>` is
/// neutral, `<!-- -->` and `<?...?>` are skipped whole. Returns the
/// index one past the snippet, or `None` when the input ends before
/// the nesting balances.
fn lex_tree(chars: &[(usize, char)], mut i: usize) -> Option<usize> {
    let mut depth = 0usize;
    loop {
        if i >= chars.len() || chars[i].1 != '<' {
            return None;
        }
        // Classify the tag we are sitting on.
        let next = chars.get(i + 1).map(|&(_, c)| c)?;
        if next == '!' || next == '?' {
            // Comment / PI / doctype: skip to the closing '>'.
            i += 1;
            let mut quote: Option<char> = None;
            while i < chars.len() {
                let c = chars[i].1;
                if let Some(q) = quote {
                    if c == q {
                        quote = None;
                    }
                } else if c == '"' || c == '\'' {
                    quote = Some(c);
                } else if c == '>' {
                    break;
                }
                i += 1;
            }
            if i >= chars.len() {
                return None;
            }
            i += 1;
        } else {
            let closing = next == '/';
            // Scan to the matching '>', honouring attribute quotes.
            let mut quote: Option<char> = None;
            let mut prev = ' ';
            while i < chars.len() {
                let c = chars[i].1;
                if let Some(q) = quote {
                    if c == q {
                        quote = None;
                    }
                } else if c == '"' || c == '\'' {
                    quote = Some(c);
                } else if c == '>' {
                    break;
                }
                prev = c;
                i += 1;
            }
            if i >= chars.len() {
                return None;
            }
            let self_closing = prev == '/';
            i += 1;
            if closing {
                if depth == 0 {
                    return None; // stray `</x>` with nothing open
                }
                depth -= 1;
            } else if !self_closing {
                depth += 1;
            }
        }
        if depth == 0 {
            return Some(i);
        }
        // Skip intervening text content up to the next tag.
        while i < chars.len() && chars[i].1 != '<' {
            i += 1;
        }
        if i >= chars.len() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokKind> {
        lex(src).unwrap().iter().map(|t| t.kind).collect()
    }

    fn texts(src: &str) -> Vec<String> {
        lex(src)
            .unwrap()
            .iter()
            .map(|t| t.text(src).to_string())
            .collect()
    }

    #[test]
    fn words_paths_and_semis() {
        assert_eq!(
            kinds("delete /a/b;"),
            [TokKind::Word, TokKind::Path, TokKind::Semi]
        );
        assert_eq!(texts("delete /a/b;"), ["delete", "/a/b", ";"]);
    }

    #[test]
    fn path_swallows_predicates_with_spaces() {
        let src = r#"delete /a/b[@k="x y"]/c;"#;
        assert_eq!(texts(src)[1], r#"/a/b[@k="x y"]/c"#);
    }

    #[test]
    fn relative_paths_lex() {
        assert_eq!(texts("set ./name to \"x\"")[1], "./name");
        assert_eq!(texts("insert <x/> into .")[3], ".");
    }

    #[test]
    fn tree_literals_balance() {
        let src = "insert <p><n>hi</n></p> into /a";
        assert_eq!(texts(src)[1], "<p><n>hi</n></p>");
        let selfclosing = "insert <p k=\"v\"/> into /a";
        assert_eq!(texts(selfclosing)[1], "<p k=\"v\"/>");
        let comment = "insert <p><!-- < > --></p> into /a";
        assert_eq!(texts(comment)[1], "<p><!-- < > --></p>");
    }

    #[test]
    fn unbalanced_tree_is_f003() {
        // Depth never returns to zero before the input ends.
        for src in ["insert <p><n></p> ", "insert <p><n>", "insert </p>"] {
            let err = lex(src).unwrap_err();
            assert_eq!(err.code, "F003", "{src}");
        }
    }

    #[test]
    fn unterminated_string_is_f001() {
        let err = lex("set /a/text() to \"oops").unwrap_err();
        assert_eq!(err.code, "F001");
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("# a comment\ndelete /x # trailing\n;"),
            [TokKind::Word, TokKind::Path, TokKind::Semi]
        );
    }

    #[test]
    fn unexpected_character_is_f001() {
        let err = lex("delete /a ! ").unwrap_err();
        assert_eq!(err.code, "F001");
        assert!(err.message.contains('!'));
    }

    #[test]
    fn multibyte_source_never_panics() {
        // é and the snowman are multi-byte; offsets must stay on
        // boundaries.
        for src in ["insert <é>☃</é> into /a", "delete /☃", "# é☃\n;"] {
            let _ = lex(src);
        }
    }
}
