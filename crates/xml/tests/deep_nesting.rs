//! Nesting depth is bounded by memory, not by the thread's stack: the
//! parser, the serializer and `logically_equal` each walk the tree with an
//! explicit stack.

// Tests may panic freely; the unwrap ban guards the hot path (see R3).
#![allow(clippy::unwrap_used)]

use pathix_xml::{parse, serialize};

/// A document nested 1,000,000 deep parses, serializes and compares equal
/// on a default (2 MiB) test thread.
#[test]
fn million_deep_document_round_trips() {
    const DEPTH: usize = 1_000_000;
    let text = format!("{}{}", "<a>".repeat(DEPTH), "</a>".repeat(DEPTH));
    let doc = parse(&text).unwrap();
    assert_eq!(doc.len(), DEPTH);
    let out = serialize(&doc);
    // The innermost element has no children, so it closes itself.
    let inner = DEPTH - 1;
    assert_eq!(
        out,
        format!("{}<a/>{}", "<a>".repeat(inner), "</a>".repeat(inner))
    );
    assert!(doc.logically_equal(&parse(&out).unwrap()));
}
