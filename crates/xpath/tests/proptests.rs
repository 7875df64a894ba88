//! Property tests for the path parser and reference evaluator.

// Tests may panic freely; the unwrap ban guards the hot path (see R3).
#![allow(clippy::unwrap_used)]

use pathix_xpath::{eval_path, parse_path, parse_query, Axis, LocationPath, NodeTest, Query, Step};
use proptest::prelude::*;

fn step_strategy() -> impl Strategy<Value = Step> {
    let axis = prop::sample::select(Axis::ALL.to_vec());
    let test = prop_oneof![
        prop::sample::select(vec!["alpha", "b", "c-d", "x_1"])
            .prop_map(|t| NodeTest::Name(t.into())),
        Just(NodeTest::AnyElement),
        Just(NodeTest::AnyNode),
        Just(NodeTest::Text),
    ];
    (axis, test).prop_map(|(a, t)| Step::new(a, t))
}

fn path_strategy() -> impl Strategy<Value = LocationPath> {
    prop::collection::vec(step_strategy(), 0..6).prop_map(LocationPath::new)
}

fn random_doc() -> pathix_xml::Document {
    let mut d = pathix_xml::Document::new("alpha");
    let b = d.add_element(d.root(), "b");
    d.add_text(b, "t");
    let c = d.add_element(d.root(), "c-d");
    d.add_element(c, "alpha");
    d.add_element(c, "x_1");
    d
}

proptest! {
    /// `parse(display(p)) == p` for every constructible path, and a bare
    /// path parses as the path query of the same path.
    #[test]
    fn display_parse_roundtrip(path in path_strategy()) {
        let text = path.to_string();
        let back = parse_path(&text).expect("displayed path parses");
        prop_assert_eq!(parse_query(&text), Ok(Query::Path(back.clone())));
        prop_assert_eq!(back, path, "text was {}", text);
    }

    /// Normalization never changes evaluation results.
    #[test]
    fn normalize_preserves_semantics(path in path_strategy()) {
        let doc = random_doc();
        let a = eval_path(&doc, doc.root(), &path);
        let b = eval_path(&doc, doc.root(), &path.normalize());
        prop_assert_eq!(a, b);
    }

    /// Results are always distinct and in document order.
    #[test]
    fn eval_results_distinct_ordered(path in path_strategy()) {
        let doc = random_doc();
        let ranks = doc.preorder_ranks();
        let out = eval_path(&doc, doc.root(), &path);
        let rs: Vec<u64> = out.iter().map(|n| ranks[n.0 as usize]).collect();
        let mut sorted = rs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(rs, sorted);
    }

    /// `rooted()` only changes the first step's axis.
    #[test]
    fn rooted_touches_only_first_step(path in path_strategy()) {
        let r = path.rooted();
        prop_assert_eq!(r.len(), path.len());
        for (i, (a, b)) in r.steps.iter().zip(&path.steps).enumerate() {
            prop_assert_eq!(&a.test, &b.test);
            if i > 0 {
                prop_assert_eq!(a.axis, b.axis);
            }
        }
    }
}

/// Arbitrary input: random bytes (lossily decoded) or a jumble of XPath
/// punctuation, axis names and function names.
fn junk_strategy() -> impl Strategy<Value = String> {
    let tokens = prop::sample::select(vec![
        "/",
        "//",
        "::",
        ":",
        "*",
        "[",
        "]",
        "(",
        ")",
        "@",
        ".",
        "..",
        "|",
        "+",
        "-",
        ",",
        "\"",
        "'",
        "=",
        "<",
        ">",
        "!",
        "$",
        " ",
        "1",
        "a",
        "child",
        "descendant-or-self",
        "following",
        "count",
        "text()",
        "node()",
    ]);
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..64)
            .prop_map(|b| String::from_utf8_lossy(&b).into_owned()),
        prop::collection::vec(tokens, 0..64).prop_map(|parts| parts.concat()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2000, ..ProptestConfig::default() })]

    /// Both parsers return a value or an error on any input; they never
    /// panic.
    #[test]
    fn parsers_never_panic_on_arbitrary_input(text in junk_strategy()) {
        let _ = parse_path(&text);
        let _ = parse_query(&text);
    }
}
