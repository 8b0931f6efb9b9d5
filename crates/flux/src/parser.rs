//! Recursive-descent parser for the flux update DSL.
//!
//! Grammar (statements separated by `;`, separators optional before
//! `end` / end of input, `#` line comments):
//!
//! ```text
//! program := { stmt ';' }
//! stmt    := 'insert' TREE pos PATH
//!          | 'delete' PATH
//!          | 'replace' PATH 'with' TREE
//!          | 'rename' PATH 'to' NAME
//!          | 'move' PATH pos PATH
//!          | 'set' PATH 'to' STRING
//!          | 'for' PATH 'do' { stmt ';' } 'end'
//! pos     := 'into' | 'first' 'into' | 'before' | 'after'
//! ```
//!
//! Path arguments are handed to `xupd_encoding::parse_xpath` (F002 on
//! rejection), tree literals to `xupd_xmldom::parse` (F003). Relative
//! paths (`.` / `./rest`) are only meaningful inside a `for` body and
//! are rejected with F004 elsewhere.

use crate::ast::{InsertPos, PathArg, Stmt, TreeArg};
use crate::diag::{Diagnostic, Span};
use crate::lexer::{lex, TokKind, Token};
use xupd_encoding::parse_xpath;

/// Parse `src` into a statement list, or the first diagnostic.
pub fn parse(src: &str) -> Result<Vec<Stmt>, Diagnostic> {
    let toks = lex(src)?;
    let mut p = Parser {
        src,
        toks: &toks,
        i: 0,
        for_depth: 0,
    };
    let stmts = p.program(false)?;
    if let Some(t) = p.peek() {
        return Err(Diagnostic::new(
            "F001",
            t.span,
            format!("expected a statement, found {:?}", t.text(src)),
        ));
    }
    Ok(stmts)
}

struct Parser<'s, 't> {
    src: &'s str,
    toks: &'t [Token],
    i: usize,
    for_depth: u32,
}

impl Parser<'_, '_> {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.i)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.toks.get(self.i).copied();
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    fn eof_span(&self) -> Span {
        Span::at(self.src, self.src.len(), self.src.len())
    }

    fn peek_word(&self) -> Option<&str> {
        self.peek()
            .and_then(|t| (t.kind == TokKind::Word).then(|| t.text(self.src)))
    }

    /// Statements until `end` (when `in_for`) or end of input.
    fn program(&mut self, in_for: bool) -> Result<Vec<Stmt>, Diagnostic> {
        let mut stmts = Vec::new();
        loop {
            while self.peek().map(|t| t.kind) == Some(TokKind::Semi) {
                self.i += 1;
            }
            match self.peek() {
                None => return Ok(stmts),
                Some(_) if in_for && self.peek_word() == Some("end") => return Ok(stmts),
                Some(_) => stmts.push(self.stmt()?),
            }
        }
    }

    fn stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let t = self
            .bump()
            .ok_or_else(|| Diagnostic::new("F001", self.eof_span(), "expected a statement"))?;
        if t.kind != TokKind::Word {
            return Err(Diagnostic::new(
                "F001",
                t.span,
                format!("expected a statement keyword, found {:?}", t.text(self.src)),
            ));
        }
        let start = t.span;
        match t.text(self.src) {
            "insert" => {
                let tree = self.tree_arg()?;
                let pos = self.insert_pos()?;
                let path = self.path_arg()?;
                let span = start.cover(path.span);
                Ok(Stmt::Insert {
                    tree,
                    pos,
                    path,
                    span,
                })
            }
            "delete" => {
                let path = self.path_arg()?;
                let span = start.cover(path.span);
                Ok(Stmt::Delete { path, span })
            }
            "replace" => {
                let path = self.path_arg()?;
                self.keyword("with")?;
                let tree = self.tree_arg()?;
                let span = start.cover(tree.span);
                Ok(Stmt::Replace { path, tree, span })
            }
            "rename" => {
                let path = self.path_arg()?;
                self.keyword("to")?;
                let name_tok = self.expect_tok(TokKind::Word, "an element name")?;
                let name = name_tok.text(self.src).to_string();
                let span = start.cover(name_tok.span);
                Ok(Stmt::Rename {
                    path,
                    name,
                    name_span: name_tok.span,
                    span,
                })
            }
            "move" => {
                let path = self.path_arg()?;
                let pos = self.insert_pos()?;
                let dest = self.path_arg()?;
                let span = start.cover(dest.span);
                Ok(Stmt::Move {
                    path,
                    pos,
                    dest,
                    span,
                })
            }
            "set" => {
                let path = self.path_arg()?;
                self.keyword("to")?;
                let text_tok = self.expect_tok(TokKind::Str, "a quoted string")?;
                // Strip the surrounding quotes (1 byte each).
                let text = self
                    .src
                    .get(text_tok.span.start + 1..text_tok.span.end.saturating_sub(1))
                    .unwrap_or("")
                    .to_string();
                let span = start.cover(text_tok.span);
                Ok(Stmt::Set { path, text, span })
            }
            "for" => {
                let path = self.path_arg()?;
                self.keyword("do")?;
                self.for_depth += 1;
                let body = self.program(true)?;
                self.for_depth -= 1;
                let end_tok = self.bump().ok_or_else(|| {
                    Diagnostic::new("F001", self.eof_span(), "missing `end` to close `for`")
                })?;
                // program(true) only stops at `end` or EOF, so this
                // token is the `end` keyword.
                let span = start.cover(end_tok.span);
                Ok(Stmt::For { path, body, span })
            }
            other => Err(Diagnostic::new(
                "F001",
                t.span,
                format!("unknown statement keyword {other:?}"),
            )),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<Token, Diagnostic> {
        let t = self
            .bump()
            .ok_or_else(|| Diagnostic::new("F001", self.eof_span(), format!("expected `{kw}`")))?;
        if t.kind == TokKind::Word && t.text(self.src) == kw {
            Ok(t)
        } else {
            Err(Diagnostic::new(
                "F001",
                t.span,
                format!("expected `{kw}`, found {:?}", t.text(self.src)),
            ))
        }
    }

    fn expect_tok(&mut self, kind: TokKind, what: &str) -> Result<Token, Diagnostic> {
        let t = self
            .bump()
            .ok_or_else(|| Diagnostic::new("F001", self.eof_span(), format!("expected {what}")))?;
        if t.kind == kind {
            Ok(t)
        } else {
            Err(Diagnostic::new(
                "F001",
                t.span,
                format!("expected {what}, found {:?}", t.text(self.src)),
            ))
        }
    }

    fn insert_pos(&mut self) -> Result<InsertPos, Diagnostic> {
        let t = self.expect_tok(TokKind::Word, "`into`, `first into`, `before` or `after`")?;
        match t.text(self.src) {
            "into" => Ok(InsertPos::Into),
            "first" => {
                self.keyword("into")?;
                Ok(InsertPos::FirstInto)
            }
            "before" => Ok(InsertPos::Before),
            "after" => Ok(InsertPos::After),
            other => Err(Diagnostic::new(
                "F001",
                t.span,
                format!("expected `into`, `first into`, `before` or `after`, found {other:?}"),
            )),
        }
    }

    fn path_arg(&mut self) -> Result<PathArg, Diagnostic> {
        let t = self.expect_tok(TokKind::Path, "a path")?;
        let raw = t.text(self.src).to_string();
        let relative = raw.starts_with('.');
        let parsed = if relative {
            if self.for_depth == 0 {
                return Err(Diagnostic::new(
                    "F004",
                    t.span,
                    format!("relative path {raw:?} is only allowed inside a `for` body"),
                ));
            }
            if raw == "." {
                // One self:: step — resolves to the context node.
                parse_xpath("/.")
            } else if let Some(rest) = raw.strip_prefix('.').filter(|r| r.starts_with('/')) {
                parse_xpath(rest)
            } else {
                return Err(Diagnostic::new(
                    "F002",
                    t.span,
                    format!("relative paths must be `.` or `./...`, got {raw:?}"),
                ));
            }
        } else {
            parse_xpath(&raw)
        };
        match parsed {
            Ok(expr) => Ok(PathArg {
                raw,
                expr,
                relative,
                span: t.span,
            }),
            Err(e) => Err(Diagnostic::new(
                "F002",
                t.span,
                format!("invalid path {raw:?}: {}", e.message),
            )),
        }
    }

    fn tree_arg(&mut self) -> Result<TreeArg, Diagnostic> {
        let t = self.expect_tok(TokKind::Tree, "an XML tree literal")?;
        let raw = t.text(self.src).to_string();
        let tree = xupd_xmldom::parse(&raw)
            .map_err(|e| Diagnostic::new("F003", t.span, format!("invalid tree literal: {e}")))?;
        if tree.document_element().is_none() {
            return Err(Diagnostic::new(
                "F003",
                t.span,
                "tree literal has no root element",
            ));
        }
        Ok(TreeArg {
            raw,
            tree,
            span: t.span,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(src: &str) -> Vec<Stmt> {
        match parse(src) {
            Ok(s) => s,
            Err(d) => panic!("parse failed on {src:?}: {d}"),
        }
    }

    #[test]
    fn all_statement_forms_parse() {
        let stmts = ok(r#"
            insert <m/> into /r/s;
            insert <m/> first into /r/s;
            insert <m/> before /r/s;
            delete /r/s[2];
            replace /r/s with <t><u/></t>;
            rename /r/s to cluster;
            move /r/s after /r/t;
            set /r/s/text() to "new text";
            for /r/s do insert <m/> into .; delete ./old end
        "#);
        assert_eq!(stmts.len(), 9);
        match &stmts[8] {
            Stmt::For { body, .. } => assert_eq!(body.len(), 2),
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn semicolons_are_separators_not_terminators() {
        assert_eq!(ok("delete /a; delete /b").len(), 2);
        assert_eq!(ok("delete /a; delete /b;").len(), 2);
        assert_eq!(ok(";;delete /a;;").len(), 1);
        assert!(ok("").is_empty());
        assert!(ok("# only a comment").is_empty());
    }

    #[test]
    fn relative_path_outside_for_is_f004() {
        let d = parse("delete ./x").unwrap_err();
        assert_eq!(d.code, "F004");
        assert_eq!((d.span.line, d.span.col), (1, 8));
    }

    #[test]
    fn bad_xpath_is_f002() {
        let d = parse("delete /a[").unwrap_err();
        assert_eq!(d.code, "F002");
    }

    #[test]
    fn bad_tree_literal_is_f003() {
        let d = parse("insert <a b=/> into /r").unwrap_err();
        assert_eq!(d.code, "F003");
    }

    #[test]
    fn missing_keyword_is_f001() {
        let d = parse("replace /a <b/>").unwrap_err();
        assert_eq!(d.code, "F001");
        assert!(d.message.contains("with"), "{}", d.message);
    }

    #[test]
    fn unknown_keyword_is_f001() {
        let d = parse("upsert <a/> into /r").unwrap_err();
        assert_eq!(d.code, "F001");
    }

    #[test]
    fn unclosed_for_is_f001() {
        let d = parse("for /a do delete ./x").unwrap_err();
        assert_eq!(d.code, "F001");
        assert!(d.message.contains("end"), "{}", d.message);
    }

    #[test]
    fn nested_for_with_relative_header() {
        let stmts = ok("for /r/s do for ./t do delete ./u end end");
        match &stmts[0] {
            Stmt::For { body, .. } => match &body[0] {
                Stmt::For { path, .. } => assert!(path.relative),
                other => panic!("expected nested for, got {other:?}"),
            },
            other => panic!("expected for, got {other:?}"),
        }
    }
}
