//! Property tests: serializer/parser round-trips over arbitrary documents.

// Tests may panic freely; the unwrap ban guards the hot path (see R3).
#![allow(clippy::unwrap_used)]

use pathix_xml::{parse, serialize, serialize_pretty, Document};
use proptest::prelude::*;

/// Arbitrary document built from (parent-selector, kind, payload) triples.
fn doc_strategy() -> impl Strategy<Value = Document> {
    let tag = prop::sample::select(vec!["a", "b", "c", "ns:d", "x-y.z"]);
    let text = "[ -~]{0,30}"; // printable ASCII incl. <, &, quotes
    prop::collection::vec((any::<usize>(), prop::bool::ANY, tag, text), 0..60).prop_map(|nodes| {
        let mut doc = Document::new("root");
        let mut elements = vec![doc.root()];
        for (psel, is_text, tag, text) in nodes {
            let parent = elements[psel % elements.len()];
            if is_text {
                // The data model keeps adjacent text nodes distinct but a
                // parse would merge them; give texts element siblings by
                // skipping empty/whitespace-only payloads.
                if !text.trim().is_empty() {
                    // Avoid adjacent text nodes (parser would merge them).
                    let last_is_text = doc
                        .last_child(parent)
                        .map(|c| !doc.is_element(c))
                        .unwrap_or(false);
                    if !last_is_text {
                        doc.add_text(parent, &text);
                    }
                }
            } else {
                let el = doc.add_element(parent, tag);
                if text.len() > 10 {
                    doc.set_attr(el, "attr", &text);
                }
                elements.push(el);
            }
        }
        doc
    })
}

proptest! {
    #[test]
    fn serialize_parse_roundtrip(doc in doc_strategy()) {
        let text = serialize(&doc);
        let back = parse(&text).expect("own output parses");
        prop_assert!(doc.logically_equal(&back), "compact roundtrip\n{text}");
    }

    #[test]
    fn pretty_serialize_parse_roundtrip(doc in doc_strategy()) {
        let text = serialize_pretty(&doc);
        let back = parse(&text).expect("pretty output parses");
        prop_assert!(doc.logically_equal(&back), "pretty roundtrip\n{text}");
    }

    #[test]
    fn preorder_ranks_are_a_permutation(doc in doc_strategy()) {
        let ranks = doc.preorder_ranks();
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        let expect: Vec<u64> = (0..doc.len() as u64).collect();
        prop_assert_eq!(sorted, expect);
    }

    #[test]
    fn links_bidirectional(doc in doc_strategy()) {
        for n in doc.descendants_or_self(doc.root()) {
            if let Some(c) = doc.first_child(n) {
                prop_assert_eq!(doc.parent(c), Some(n));
                prop_assert_eq!(doc.prev_sibling(c), None);
            }
            if let Some(s) = doc.next_sibling(n) {
                prop_assert_eq!(doc.prev_sibling(s), Some(n));
                prop_assert_eq!(doc.parent(s), doc.parent(n));
            }
        }
    }
}

/// Arbitrary input: random bytes (lossily decoded) or a jumble of XML
/// punctuation and markup fragments.
fn junk_strategy() -> impl Strategy<Value = String> {
    let markup = prop::sample::select(vec![
        "<",
        ">",
        "/",
        "!",
        "?",
        "=",
        "\"",
        "'",
        "&",
        ";",
        "#",
        "x",
        "a",
        ":",
        "-",
        "[",
        "]",
        " ",
        "\n",
        "<a>",
        "</a>",
        "<a/>",
        "<!--",
        "-->",
        "<![CDATA[",
        "]]>",
        "<?xml",
        "?>",
        "&amp;",
        "&#",
        "&#x",
        "<!DOCTYPE",
    ]);
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..64)
            .prop_map(|b| String::from_utf8_lossy(&b).into_owned()),
        prop::collection::vec(markup, 0..64).prop_map(|parts| parts.concat()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2000, ..ProptestConfig::default() })]

    /// The parser returns a document or an error on any input; it never
    /// panics.
    #[test]
    fn parse_never_panics_on_arbitrary_input(text in junk_strategy()) {
        let _ = parse(&text);
    }
}
