//! A hand-written, dependency-free XML parser.
//!
//! Supports the subset of XML 1.0 needed by the reproduction: elements,
//! attributes (with entity decoding), character data, CDATA sections,
//! comments, processing instructions, the XML declaration (skipped) and
//! DOCTYPE declarations (skipped, internal subsets ignored). Namespaces are
//! treated lexically (prefixes are kept as part of the name), which matches
//! how the surveyed labelling schemes treat names — they never interpret
//! them (§2.3: no labelling scheme captures names or content at all).

use crate::error::{ParseError, ParseErrorKind};
use crate::node::{NodeId, NodeKind};
use crate::tree::XmlTree;

/// Parse an XML document into an [`XmlTree`].
///
/// Whitespace-only text is dropped, which is what the paper's figures
/// assume (the Figure 1 tree has no whitespace nodes); comments and
/// processing instructions are kept.
pub fn parse(input: &str) -> Result<XmlTree, ParseError> {
    Parser {
        input: input.as_bytes(),
        pos: 0,
    }
    .run()
}

/// Does the parser read `s` back as one name — an element, attribute or
/// processing-instruction target name? The parser's own rule, byte for
/// byte: a name-start byte, then name bytes.
pub fn is_name(s: &str) -> bool {
    let mut bytes = s.bytes();
    bytes.next().is_some_and(Parser::is_name_start) && bytes.all(Parser::is_name_char)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, kind: ParseErrorKind) -> ParseError {
        self.err_at(kind, self.pos)
    }

    fn err_at(&self, kind: ParseErrorKind, offset: usize) -> ParseError {
        let mut line = 1;
        let mut col = 1;
        for &b in &self.input[..offset.min(self.input.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        ParseError {
            kind,
            offset,
            line,
            column: col,
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    #[inline]
    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    #[inline]
    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn require(&mut self, s: &'static str) -> Result<(), ParseError> {
        if self.starts_with(s) {
            self.bump(s.len());
            Ok(())
        } else {
            Err(self.err(ParseErrorKind::Expected(s)))
        }
    }

    /// Re-slice parser input as UTF-8. The input arrived as `&str`, so
    /// slices on match boundaries are always valid; a failure is an
    /// internal bug surfaced as [`ParseErrorKind::Internal`], not a panic.
    fn utf8(&self, bytes: &'a [u8]) -> Result<&'a str, ParseError> {
        std::str::from_utf8(bytes)
            .map_err(|_| self.err(ParseErrorKind::Internal("input slice was valid UTF-8")))
    }

    /// Attach a freshly created node under a parent that is live by
    /// construction; a failure is an internal bug surfaced as
    /// [`ParseErrorKind::Internal`], not a panic.
    fn attach(&self, tree: &mut XmlTree, parent: NodeId, child: NodeId) -> Result<(), ParseError> {
        tree.append_child(parent, child).map_err(|_| {
            self.err(ParseErrorKind::Internal(
                "fresh node attaches under a live parent",
            ))
        })
    }

    /// Consume up to and including `end`, returning the content before it.
    fn take_until(&mut self, end: &str, ctx: &'static str) -> Result<&'a str, ParseError> {
        let hay = &self.input[self.pos..];
        let needle = end.as_bytes();
        let mut i = 0;
        while i + needle.len() <= hay.len() {
            if &hay[i..i + needle.len()] == needle {
                let s = self.utf8(&hay[..i])?;
                self.pos += i + needle.len();
                return Ok(s);
            }
            i += 1;
        }
        Err(self.err(ParseErrorKind::UnexpectedEof(ctx)))
    }

    fn is_name_start(b: u8) -> bool {
        b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
    }

    fn is_name_char(b: u8) -> bool {
        Self::is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
    }

    fn name(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        match self.peek() {
            Some(b) if Self::is_name_start(b) => self.pos += 1,
            _ => return Err(self.err(ParseErrorKind::InvalidName)),
        }
        while let Some(b) = self.peek() {
            if Self::is_name_char(b) {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.utf8(&self.input[start..self.pos])
    }

    fn decode_entities(&self, raw: &str, base: usize) -> Result<String, ParseError> {
        if !raw.contains('&') {
            return Ok(raw.to_string());
        }
        let mut out = String::with_capacity(raw.len());
        let bytes = raw.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] != b'&' {
                // copy one UTF-8 char
                let ch_len = utf8_len(bytes[i]);
                out.push_str(&raw[i..i + ch_len]);
                i += ch_len;
                continue;
            }
            let semi = raw[i + 1..]
                .find(';')
                .ok_or_else(|| self.err_at(ParseErrorKind::BadEntity(String::new()), base + i))?;
            let ent = &raw[i + 1..i + 1 + semi];
            match ent {
                "amp" => out.push('&'),
                "lt" => out.push('<'),
                "gt" => out.push('>'),
                "quot" => out.push('"'),
                "apos" => out.push('\''),
                _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                    let v = u32::from_str_radix(&ent[2..], 16).map_err(|_| {
                        self.err_at(ParseErrorKind::BadEntity(ent.to_string()), base + i)
                    })?;
                    out.push(
                        char::from_u32(v)
                            .ok_or_else(|| self.err_at(ParseErrorKind::BadCharRef(v), base + i))?,
                    );
                }
                _ if ent.starts_with('#') => {
                    let v: u32 = ent[1..].parse().map_err(|_| {
                        self.err_at(ParseErrorKind::BadEntity(ent.to_string()), base + i)
                    })?;
                    out.push(
                        char::from_u32(v)
                            .ok_or_else(|| self.err_at(ParseErrorKind::BadCharRef(v), base + i))?,
                    );
                }
                _ => return Err(self.err_at(ParseErrorKind::BadEntity(ent.to_string()), base + i)),
            }
            i += semi + 2;
        }
        Ok(out)
    }

    fn run(mut self) -> Result<XmlTree, ParseError> {
        let mut tree = XmlTree::new();
        let root = tree.root();
        // stack of open elements; the document root is the base
        let mut stack: Vec<(NodeId, String)> = Vec::new();
        let mut saw_document_element = false;
        let mut pending_text = String::new();
        let mut pending_text_start = 0usize;

        // Whitespace-only text is dropped; other text outside the
        // document element is an error.
        macro_rules! flush_text {
            ($tree:expr, $stack:expr) => {
                if !pending_text.chars().all(char::is_whitespace) {
                    let Some(&(parent, _)) = $stack.last() else {
                        return Err(
                            self.err_at(ParseErrorKind::TrailingContent, pending_text_start)
                        );
                    };
                    let decoded = self.decode_entities(&pending_text, pending_text_start)?;
                    let n = $tree.create(NodeKind::Text { value: decoded });
                    self.attach(&mut $tree, parent, n)?;
                }
                pending_text.clear();
            };
        }

        while self.pos < self.input.len() {
            if self.starts_with("<?") {
                flush_text!(tree, stack);
                self.bump(2);
                let target = self.name()?.to_string();
                self.skip_ws();
                let data = self.take_until("?>", "processing instruction")?;
                if target.eq_ignore_ascii_case("xml") {
                    // XML declaration: skip.
                } else {
                    let parent = stack.last().map(|&(p, _)| p).unwrap_or(root);
                    let n = tree.create(NodeKind::Pi {
                        target,
                        data: data.trim_end().to_string(),
                    });
                    self.attach(&mut tree, parent, n)?;
                }
            } else if self.starts_with("<!--") {
                flush_text!(tree, stack);
                self.bump(4);
                let body = self.take_until("-->", "comment")?.to_string();
                let parent = stack.last().map(|&(p, _)| p).unwrap_or(root);
                let n = tree.create(NodeKind::Comment { value: body });
                self.attach(&mut tree, parent, n)?;
            } else if self.starts_with("<![CDATA[") {
                self.bump(9);
                let start = self.pos;
                let body = self.take_until("]]>", "CDATA section")?;
                // CDATA is literal text — but entity decoding must NOT apply.
                let Some(&(parent, _)) = stack.last() else {
                    return Err(self.err_at(ParseErrorKind::TrailingContent, start));
                };
                flush_text!(tree, stack);
                let n = tree.create(NodeKind::Text {
                    value: body.to_string(),
                });
                self.attach(&mut tree, parent, n)?;
            } else if self.starts_with("<!DOCTYPE") || self.starts_with("<!doctype") {
                flush_text!(tree, stack);
                // Skip to the matching '>' accounting for an internal subset
                // in [...].
                self.bump(9);
                let mut depth = 0i32;
                loop {
                    match self.peek() {
                        None => return Err(self.err(ParseErrorKind::UnexpectedEof("DOCTYPE"))),
                        Some(b'[') => {
                            depth += 1;
                            self.bump(1);
                        }
                        Some(b']') => {
                            depth -= 1;
                            self.bump(1);
                        }
                        Some(b'>') if depth <= 0 => {
                            self.bump(1);
                            break;
                        }
                        Some(_) => self.bump(1),
                    }
                }
            } else if self.starts_with("</") {
                flush_text!(tree, stack);
                self.bump(2);
                let name = self.name()?;
                self.skip_ws();
                self.require(">")?;
                match stack.pop() {
                    Some((_, open)) if open == name => {}
                    Some((_, open)) => {
                        return Err(self.err(ParseErrorKind::MismatchedClose {
                            expected: open,
                            found: name.to_string(),
                        }))
                    }
                    None => return Err(self.err(ParseErrorKind::TrailingContent)),
                }
            } else if self.peek() == Some(b'<') {
                flush_text!(tree, stack);
                self.bump(1);
                let name = self.name()?.to_string();
                let parent = match stack.last() {
                    Some(&(p, _)) => p,
                    None if !saw_document_element => root,
                    None => return Err(self.err(ParseErrorKind::TrailingContent)),
                };
                let elem = tree.create(NodeKind::Element { name: name.clone() });
                self.attach(&mut tree, parent, elem)?;
                if stack.is_empty() {
                    saw_document_element = true;
                }
                // attributes
                let mut attr_names: Vec<String> = Vec::new();
                loop {
                    self.skip_ws();
                    match self.peek() {
                        Some(b'>') => {
                            self.bump(1);
                            stack.push((elem, name));
                            break;
                        }
                        Some(b'/') => {
                            self.require("/>")?;
                            break; // self-closing: do not push
                        }
                        Some(b) if Parser::is_name_start(b) => {
                            let astart = self.pos;
                            let aname = self.name()?.to_string();
                            if attr_names.contains(&aname) {
                                return Err(
                                    self.err_at(ParseErrorKind::DuplicateAttribute(aname), astart)
                                );
                            }
                            self.skip_ws();
                            self.require("=")?;
                            self.skip_ws();
                            let quote = match self.peek() {
                                Some(q @ (b'"' | b'\'')) => {
                                    self.bump(1);
                                    q
                                }
                                _ => return Err(self.err(ParseErrorKind::Expected("quote"))),
                            };
                            let vstart = self.pos;
                            let raw = if quote == b'"' {
                                self.take_until("\"", "attribute value")?
                            } else {
                                self.take_until("'", "attribute value")?
                            };
                            let value = self.decode_entities(raw, vstart)?;
                            let a = tree.create(NodeKind::Attribute {
                                name: aname.clone(),
                                value,
                            });
                            self.attach(&mut tree, elem, a)?;
                            attr_names.push(aname);
                        }
                        Some(_) => {
                            return Err(self.err(ParseErrorKind::Expected("attribute, '>' or '/>'")))
                        }
                        None => return Err(self.err(ParseErrorKind::UnexpectedEof("start tag"))),
                    }
                }
            } else {
                // character data
                if pending_text.is_empty() {
                    pending_text_start = self.pos;
                }
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if b == b'<' {
                        break;
                    }
                    self.pos += 1;
                }
                let chunk = self.utf8(&self.input[start..self.pos])?;
                pending_text.push_str(chunk);
            }
        }
        flush_text!(tree, stack);
        if let Some((_, open)) = stack.pop() {
            return Err(self.err(ParseErrorKind::UnexpectedEof(Box::leak(
                format!("element <{open}>").into_boxed_str(),
            ))));
        }
        if !saw_document_element {
            return Err(self.err(ParseErrorKind::NoDocumentElement));
        }
        Ok(tree)
    }
}

#[inline]
fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeKind;

    #[test]
    fn is_name_is_the_parsers_name_rule() {
        for name in ["a", "_x-1.b", "ns:e", "µ", "中文"] {
            assert!(is_name(name), "{name}");
            let t = parse(&format!("<{name} {name}=\"v\"/>")).unwrap();
            let e = t.document_element().unwrap();
            assert_eq!(t.kind(e).name(), Some(name));
        }
        for name in ["", "1a", "-a", "a b", "a?", "a>", "a=b"] {
            assert!(!is_name(name), "{name:?}");
            assert!(parse(&format!("<{name}/>")).is_err(), "{name:?}");
        }
    }

    #[test]
    fn simple_document() {
        let t = parse("<a><b>hi</b><c/></a>").unwrap();
        let a = t.document_element().unwrap();
        assert_eq!(t.kind(a).name(), Some("a"));
        let kids: Vec<_> = t.children(a).collect();
        assert_eq!(kids.len(), 2);
        let hi = t.first_child(kids[0]).unwrap();
        assert_eq!(t.kind(hi), &NodeKind::text("hi"));
        assert_eq!(t.kind(kids[1]).name(), Some("c"));
        t.validate().unwrap();
    }

    #[test]
    fn attributes_become_first_children() {
        let t = parse("<e a=\"1\" b='2'>t</e>").unwrap();
        let e = t.document_element().unwrap();
        let kids: Vec<_> = t.children(e).collect();
        assert_eq!(kids.len(), 3);
        assert!(t.kind(kids[0]).is_attribute());
        assert!(t.kind(kids[1]).is_attribute());
        assert!(t.kind(kids[2]).is_text());
        assert_eq!(t.attribute(e, "a"), Some("1"));
        assert_eq!(t.attribute(e, "b"), Some("2"));
    }

    #[test]
    fn entities_decoded_in_text_and_attributes() {
        let t = parse("<e a=\"&lt;&amp;&gt;\">x &amp; y &#65;&#x42;</e>").unwrap();
        let e = t.document_element().unwrap();
        assert_eq!(t.attribute(e, "a"), Some("<&>"));
        let text = t.last_child(e).unwrap();
        assert_eq!(t.kind(text), &NodeKind::text("x & y AB"));
    }

    #[test]
    fn unknown_entity_is_error() {
        let err = parse("<e>&nope;</e>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::BadEntity(e) if e == "nope"));
    }

    #[test]
    fn cdata_is_literal() {
        let t = parse("<e><![CDATA[a < b & c]]></e>").unwrap();
        let e = t.document_element().unwrap();
        let text = t.first_child(e).unwrap();
        assert_eq!(t.kind(text), &NodeKind::text("a < b & c"));
    }

    #[test]
    fn comments_and_pis_kept() {
        let t = parse("<?xml version=\"1.0\"?><e><!--note--><?php echo?></e>").unwrap();
        let e = t.document_element().unwrap();
        let kids: Vec<_> = t.children(e).collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(t.kind(kids[0]), &NodeKind::comment("note"));
        assert!(matches!(t.kind(kids[1]), NodeKind::Pi { target, .. } if target == "php"));
    }

    #[test]
    fn whitespace_only_text_dropped_by_default() {
        let t = parse("<a>\n  <b/>\n</a>").unwrap();
        let a = t.document_element().unwrap();
        assert_eq!(t.children(a).count(), 1);
    }

    #[test]
    fn mismatched_close_reports_names() {
        let err = parse("<a><b></a>").unwrap_err();
        match err.kind {
            ParseErrorKind::MismatchedClose { expected, found } => {
                assert_eq!(expected, "b");
                assert_eq!(found, "a");
            }
            k => panic!("unexpected {k:?}"),
        }
    }

    #[test]
    fn unclosed_element_is_eof_error() {
        let err = parse("<a><b>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnexpectedEof(_)));
    }

    #[test]
    fn trailing_element_rejected() {
        let err = parse("<a/><b/>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::TrailingContent));
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let err = parse("<a x=\"1\" x=\"2\"/>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::DuplicateAttribute(a) if a == "x"));
    }

    #[test]
    fn doctype_skipped() {
        let t = parse("<!DOCTYPE html [ <!ENTITY x \"y\"> ]><a/>").unwrap();
        assert!(t.document_element().is_some());
    }

    #[test]
    fn empty_input_has_no_document_element() {
        let err = parse("   ").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::NoDocumentElement));
    }

    #[test]
    fn error_position_line_column() {
        let err = parse("<a>\n<b x=></b></a>").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.column > 1);
    }

    #[test]
    fn unicode_text_survives() {
        let t = parse("<e>héllo 世界</e>").unwrap();
        let e = t.document_element().unwrap();
        let text = t.first_child(e).unwrap();
        assert_eq!(t.kind(text), &NodeKind::text("héllo 世界"));
    }
}
