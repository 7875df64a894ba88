//! XML serializer with escaping. `parse(serialize(doc))` reproduces the
//! logical tree (modulo ignorable whitespace, which we never emit in
//! compact mode).

use crate::doc::{Document, NodeRef, XKind};
use crate::symbols::Symbol;

fn escape_text(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            _ => out.push(c),
        }
    }
}

fn escape_attr(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
}

/// One step of the serialization walk.
enum Step {
    /// Write `node` and then its subtree, at `indent` (`None` = compact).
    Open(NodeRef, Option<usize>),
    /// Write the end tag `tag`, on a new line at `indent`.
    Close(Symbol, Option<usize>),
}

/// Writes `node`'s subtree. Pending steps wait on an explicit stack, so the
/// nesting depth is bounded by memory, not by the thread's stack.
fn write_node(doc: &Document, node: NodeRef, out: &mut String, indent: Option<usize>) {
    let mut steps = vec![Step::Open(node, indent)];
    while let Some(step) = steps.pop() {
        let (node, indent) = match step {
            Step::Close(tag, indent) => {
                if let Some(depth) = indent {
                    out.push('\n');
                    out.push_str(&" ".repeat(depth * 2));
                }
                out.push_str("</");
                out.push_str(doc.symbols().name(tag));
                out.push('>');
                continue;
            }
            Step::Open(node, indent) => (node, indent),
        };
        let XKind::Element(sym) = doc.kind(node) else {
            escape_text(doc.text(node).expect("text node"), out);
            continue;
        };
        if let Some(depth) = indent {
            if depth > 0 {
                out.push('\n');
            }
            out.push_str(&" ".repeat(depth * 2));
        }
        out.push('<');
        out.push_str(doc.symbols().name(sym));
        for (name, value) in doc.attrs(node) {
            out.push(' ');
            out.push_str(doc.symbols().name(*name));
            out.push_str("=\"");
            escape_attr(value, out);
            out.push('"');
        }
        if doc.first_child(node).is_none() {
            out.push_str("/>");
            continue;
        }
        out.push('>');
        // Indentation is only safe when no text children exist: inserted
        // whitespace inside mixed content would change the document.
        let elements_only = doc
            .children(node)
            .all(|c| matches!(doc.kind(c), XKind::Element(_)));
        let indent = indent.filter(|_| elements_only);
        steps.push(Step::Close(sym, indent));
        let first = steps.len();
        steps.extend(
            doc.children(node)
                .map(|c| Step::Open(c, indent.map(|d| d + 1))),
        );
        steps[first..].reverse();
    }
}

/// Serializes the document compactly (no insignificant whitespace).
pub fn serialize(doc: &Document) -> String {
    let mut out = String::new();
    write_node(doc, doc.root(), &mut out, None);
    out
}

/// Serializes the document with two-space indentation for human reading.
pub fn serialize_pretty(doc: &Document) -> String {
    let mut out = String::new();
    write_node(doc, doc.root(), &mut out, Some(0));
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::parser::parse;

    #[test]
    fn simple_roundtrip() {
        let src = "<a><b>hi</b><c x=\"1\"><d/></c></a>";
        let d = parse(src).unwrap();
        assert_eq!(serialize(&d), src);
    }

    #[test]
    fn escapes_roundtrip() {
        let mut d = Document::new("a");
        d.add_text(d.root(), "x < y & z > w");
        d.set_attr(d.root(), "q", "say \"hi\" & <bye>");
        let s = serialize(&d);
        let d2 = parse(&s).unwrap();
        assert!(d.logically_equal(&d2));
    }

    #[test]
    fn pretty_parses_back() {
        let src = "<a><b>hi</b><c><d/><e>t</e></c></a>";
        let d = parse(src).unwrap();
        let pretty = serialize_pretty(&d);
        assert!(pretty.contains('\n'));
        let d2 = parse(&pretty).unwrap();
        assert!(d.logically_equal(&d2));
    }

    #[test]
    fn empty_element_self_closes() {
        let d = Document::new("solo");
        assert_eq!(serialize(&d), "<solo/>");
    }

    #[test]
    fn mixed_content_roundtrip() {
        let src = "<t>pre<emph>word</emph>post</t>";
        let d = parse(src).unwrap();
        assert_eq!(serialize(&d), src);
    }
}
