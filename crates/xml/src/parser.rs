//! A small non-validating XML parser.
//!
//! Supports elements, attributes, text, comments, CDATA sections, processing
//! instructions and DOCTYPE (skipped), and the five predefined entities plus
//! numeric character references. Namespaces are treated as plain prefixes in
//! names. Good enough to ingest XMark documents and anything the serializer
//! emits.

use crate::doc::{Document, NodeRef};
use std::fmt;

/// Parse failure with byte offset context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XML parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            offset: self.pos,
            message: msg.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), ParseError> {
        if self.starts_with(s) {
            self.bump(s.len());
            Ok(())
        } else {
            self.err(format!("expected `{s}`"))
        }
    }

    fn skip_until(&mut self, end: &str) -> Result<(), ParseError> {
        match find(&self.input[self.pos..], end.as_bytes()) {
            Some(i) => {
                self.pos += i + end.len();
                Ok(())
            }
            None => self.err(format!("unterminated construct, missing `{end}`")),
        }
    }

    fn name(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            let ok = c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':');
            if !ok {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return self.err("expected name");
        }
        std::str::from_utf8(&self.input[start..self.pos]).map_err(|_| ParseError {
            offset: start,
            message: "invalid UTF-8 in name".into(),
        })
    }

    /// Skips prolog junk: declarations, comments, PIs, DOCTYPE, whitespace.
    fn skip_misc(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<!DOCTYPE") {
                // Naive: skip to the next `>` (internal subsets unsupported).
                self.skip_until(">")?;
            } else {
                return Ok(());
            }
        }
    }

    fn attr_value(&mut self) -> Result<String, ParseError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return self.err("expected quoted attribute value"),
        };
        self.bump(1);
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == quote {
                let raw = &self.input[start..self.pos];
                self.bump(1);
                return decode_entities(raw, start);
            }
            self.pos += 1;
        }
        self.err("unterminated attribute value")
    }

    /// Parses a start tag with its attributes and adds the element under
    /// `parent` (or names the root when `parent` is `None`). Returns the
    /// element, its tag, and whether the tag closed itself (`/>`).
    fn start_tag(
        &mut self,
        doc: &mut Document,
        parent: Option<NodeRef>,
    ) -> Result<(NodeRef, &'a str, bool), ParseError> {
        self.expect("<")?;
        let tag = self.name()?;
        let node = match parent {
            Some(p) => doc.add_element(p, tag),
            None => doc.root(),
        };
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.bump(1);
                    return Ok((node, tag, false));
                }
                Some(b'/') => {
                    self.expect("/>")?;
                    return Ok((node, tag, true));
                }
                Some(_) => {
                    let name = self.name()?;
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let value = self.attr_value()?;
                    doc.set_attr(node, name, &value);
                }
                None => return self.err("unexpected end of input in tag"),
            }
        }
    }

    /// Parses the root element and everything inside it. Open elements
    /// wait on an explicit stack, so the nesting depth is bounded by
    /// memory, not by the thread's stack.
    fn root_element(&mut self, doc: &mut Document) -> Result<(), ParseError> {
        let (root, tag, closed) = self.start_tag(doc, None)?;
        let mut open = if closed {
            Vec::new()
        } else {
            vec![(root, tag)]
        };
        while let Some(&(node, tag)) = open.last() {
            if self.starts_with("</") {
                self.bump(2);
                let end = self.name()?;
                if end != tag {
                    return self.err(format!("mismatched end tag: `{end}` closes `{tag}`"));
                }
                self.skip_ws();
                self.expect(">")?;
                open.pop();
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<![CDATA[") {
                self.bump("<![CDATA[".len());
                let start = self.pos;
                match find(&self.input[self.pos..], b"]]>") {
                    Some(i) => {
                        let text =
                            std::str::from_utf8(&self.input[start..start + i]).map_err(|_| {
                                ParseError {
                                    offset: start,
                                    message: "invalid UTF-8 in CDATA".into(),
                                }
                            })?;
                        if !text.is_empty() {
                            doc.add_text(node, text);
                        }
                        self.pos = start + i + 3;
                    }
                    None => return self.err("unterminated CDATA"),
                }
            } else if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.starts_with("<") {
                let (child, child_tag, closed) = self.start_tag(doc, Some(node))?;
                if !closed {
                    open.push((child, child_tag));
                }
            } else if self.peek().is_none() {
                return self.err(format!("unexpected end of input inside `{tag}`"));
            } else {
                // Text run up to the next `<`.
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c == b'<' {
                        break;
                    }
                    self.pos += 1;
                }
                let raw = &self.input[start..self.pos];
                let text = decode_entities(raw, start)?;
                // Whitespace-only runs between elements are ignorable.
                if !text.trim().is_empty() {
                    doc.add_text(node, &text);
                }
            }
        }
        Ok(())
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn decode_entities(raw: &[u8], offset: usize) -> Result<String, ParseError> {
    let s = std::str::from_utf8(raw).map_err(|_| ParseError {
        offset,
        message: "invalid UTF-8 in text".into(),
    })?;
    if !s.contains('&') {
        return Ok(s.to_owned());
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find('&') {
        out.push_str(&rest[..i]);
        rest = &rest[i..];
        let semi = rest.find(';').ok_or(ParseError {
            offset,
            message: "unterminated entity reference".into(),
        })?;
        let ent = &rest[1..semi];
        match ent {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                let code = u32::from_str_radix(&ent[2..], 16).map_err(|_| ParseError {
                    offset,
                    message: format!("bad character reference `&{ent};`"),
                })?;
                out.push(char::from_u32(code).ok_or(ParseError {
                    offset,
                    message: format!("invalid code point `&{ent};`"),
                })?);
            }
            _ if ent.starts_with('#') => {
                let code: u32 = ent[1..].parse().map_err(|_| ParseError {
                    offset,
                    message: format!("bad character reference `&{ent};`"),
                })?;
                out.push(char::from_u32(code).ok_or(ParseError {
                    offset,
                    message: format!("invalid code point `&{ent};`"),
                })?);
            }
            _ => {
                return Err(ParseError {
                    offset,
                    message: format!("unknown entity `&{ent};`"),
                })
            }
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

/// Parses an XML document from a string.
pub fn parse(input: &str) -> Result<Document, ParseError> {
    let mut p = Parser {
        input: input.as_bytes(),
        pos: 0,
    };
    p.skip_misc()?;
    if p.peek() != Some(b'<') {
        return p.err("expected root element");
    }
    // Peek the root tag name to construct the document.
    let save = p.pos;
    p.bump(1);
    let root_tag = p.name()?.to_owned();
    p.pos = save;
    let mut doc = Document::new(&root_tag);
    p.root_element(&mut doc)?;
    p.skip_misc()?;
    p.skip_ws();
    if p.peek().is_some() {
        return p.err("trailing content after root element");
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn minimal_document() {
        let d = parse("<a/>").unwrap();
        assert_eq!(d.tag_name(d.root()), Some("a"));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn nested_elements_and_text() {
        let d = parse("<a><b>hello</b><c><d/></c></a>").unwrap();
        let kids: Vec<_> = d.children(d.root()).collect();
        assert_eq!(kids.len(), 2);
        let t = d.first_child(kids[0]).unwrap();
        assert_eq!(d.text(t), Some("hello"));
    }

    #[test]
    fn attributes() {
        let d = parse(r#"<a x="1" y='two &amp; three'/>"#).unwrap();
        let attrs = d.attrs(d.root());
        assert_eq!(attrs.len(), 2);
        assert_eq!(attrs[1].1, "two & three");
    }

    #[test]
    fn entities_in_text() {
        let d = parse("<a>&lt;x&gt; &amp; &#65;&#x42;</a>").unwrap();
        let t = d.first_child(d.root()).unwrap();
        assert_eq!(d.text(t), Some("<x> & AB"));
    }

    #[test]
    fn prolog_comments_pis_doctype() {
        let d = parse(
            "<?xml version=\"1.0\"?><!-- hi --><!DOCTYPE site><a><?pi data?><!-- c --><b/></a>",
        )
        .unwrap();
        assert_eq!(d.children(d.root()).count(), 1);
    }

    #[test]
    fn cdata() {
        let d = parse("<a><![CDATA[<raw> & stuff]]></a>").unwrap();
        let t = d.first_child(d.root()).unwrap();
        assert_eq!(d.text(t), Some("<raw> & stuff"));
    }

    #[test]
    fn ignorable_whitespace_dropped() {
        let d = parse("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        assert_eq!(d.len(), 3); // a, b, c — no whitespace text nodes
    }

    #[test]
    fn mismatched_tag_is_error() {
        let e = parse("<a><b></a></b>").unwrap_err();
        assert!(e.message.contains("mismatched"));
    }

    #[test]
    fn trailing_garbage_is_error() {
        assert!(parse("<a/><b/>").is_err());
    }

    #[test]
    fn unterminated_is_error() {
        assert!(parse("<a><b>").is_err());
        assert!(parse("<a").is_err());
    }

    #[test]
    fn unknown_entity_is_error() {
        assert!(parse("<a>&nope;</a>").is_err());
    }
}
