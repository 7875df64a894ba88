//! Decode is total: a page that passes its checksum but holds damaged
//! records either fails to decode with a typed error, or decodes to a
//! cluster that can be read and walked without a panic.
//!
//! Each case takes one page of a seeded XMark document (512 B and 1 KiB
//! pages), changes one to four bytes of its used body, re-seals it so the
//! CRC cannot object, and decodes it. A cluster that decodes must:
//! - read every text and attribute payload without panicking (a payload
//!   that is not UTF-8 is an `Err`);
//! - walk every axis from every slot (and resume every border) within a
//!   visit cap.
//!
//! Decode checks each link against the record count, not against the
//! other links, so a damaged page can link its nodes into a cycle. A walk
//! that reaches the cap is accepted only if the slow checker below finds
//! such a cycle in the cluster.

// Tests may panic freely; the unwrap ban guards the hot path (see R3).
#![allow(clippy::unwrap_used)]

use pathix_storage::{seal_page, Device, MemDevice, SimClock, SlottedPageReader, CHECKSUM_LEN};
use pathix_tree::node::{decode_cluster, DecodeError};
use pathix_tree::{
    import_into, Cluster, Entry, ImportConfig, NavCharge, NavCounters, NavParams, NodeKind,
    Placement, ResolvedTest, StepCursor,
};
use pathix_xmlgen::{generate, GenConfig};
use pathix_xpath::Axis;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

const AXES: [Axis; 11] = [
    Axis::SelfAxis,
    Axis::Child,
    Axis::Parent,
    Axis::Descendant,
    Axis::DescendantOrSelf,
    Axis::Ancestor,
    Axis::AncestorOrSelf,
    Axis::FollowingSibling,
    Axis::PrecedingSibling,
    Axis::Following,
    Axis::Preceding,
];

/// Cases per page size.
const CASES: usize = 1500;

/// The sealed page images of a seeded document stored on `page_size` pages.
fn pages(page_size: usize) -> Vec<Vec<u8>> {
    // Short sentences, so every text record fits a 512 B page.
    let doc = generate(&GenConfig {
        avg_sentence_words: 4,
        ..GenConfig::at_scale(0.002).with_seed(0xF022)
    });
    let mut dev = MemDevice::new(page_size);
    let cfg = ImportConfig {
        page_size,
        placement: Placement::Sequential,
    };
    let (meta, _) = import_into(&mut dev, &doc, &cfg).unwrap();
    let clock = SimClock::new();
    meta.page_range()
        .map(|p| dev.read_sync(p, &clock).unwrap().to_vec())
        .collect()
}

/// Bytes of `page` that hold its slot directory and records.
fn used_len(page: &[u8]) -> usize {
    let reader = SlottedPageReader::new(page);
    match reader.len() {
        0 => 4,
        n => reader.record_range(n as u16 - 1).unwrap().end,
    }
}

/// True if following one link function from some slot leads back to it.
fn has_cycle(len: usize, next: impl Fn(usize) -> Option<usize>) -> bool {
    (0..len).any(|start| {
        let mut at = next(start);
        for _ in 0..len {
            match at {
                Some(s) if s == start => return true,
                Some(s) => at = next(s),
                None => return false,
            }
        }
        false
    })
}

/// The slow checker: does any link function a walk follows — parent, next
/// or previous sibling, or the preorder successor (first child, else the
/// next sibling of the nearest ancestor-or-self) — run in a cycle?
fn has_link_cycle(c: &Cluster) -> bool {
    let len = c.len();
    let node = |s: usize| &c.nodes[s];
    let slot = |l: Option<u16>| l.map(usize::from);
    let successor = |s: usize| {
        let n = node(s);
        if !matches!(n.kind, NodeKind::BorderDown { .. }) && n.first_child.is_some() {
            return slot(n.first_child);
        }
        let mut at = s;
        for _ in 0..len {
            let n = node(at);
            if n.next_sibling.is_some() {
                return slot(n.next_sibling);
            }
            at = slot(n.parent)?;
        }
        None // a parent cycle, found by its own check
    };
    has_cycle(len, |s| slot(node(s).parent))
        || has_cycle(len, |s| slot(node(s).next_sibling))
        || has_cycle(len, |s| slot(node(s).prev_sibling))
        || has_cycle(len, successor)
}

/// What became of one damaged page.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Outcome {
    /// Decode failed with this error.
    Rejected(&'static str),
    /// Decoded, but some payload reads as `DecodeError::Utf8`.
    Unreadable,
    /// Decoded, and some walk reached the visit cap on a link cycle.
    Capped,
    /// Decoded; every payload reads and every walk ends.
    Walked,
}

/// Reads and walks a cluster that decoded.
fn read_and_walk(cluster: Cluster) -> Outcome {
    let mut unreadable = false;
    for n in &cluster.nodes {
        unreadable |= cluster.text(n) == Err(DecodeError::Utf8);
        unreadable |= cluster.attrs(n).any(|a| a.is_err());
    }
    // A walk in a tree visits each node at most twice (once on the way
    // down or along, once climbing).
    let cap = 4 * (cluster.len() as u64 + 1);
    let cluster = Arc::new(cluster);
    let clock = SimClock::new();
    let counters = NavCounters::default();
    let charge = NavCharge {
        clock: &clock,
        params: NavParams::default(),
        counters: &counters,
    };
    let mut capped = false;
    for slot in 0..cluster.len() as u16 {
        let border = cluster.node(slot).kind.is_border();
        let resume = border.then_some(Entry::Resume(slot));
        for entry in std::iter::once(Entry::Fresh(slot)).chain(resume) {
            for axis in AXES {
                let mut cursor =
                    StepCursor::new(Arc::clone(&cluster), entry, axis, ResolvedTest::AnyNode);
                counters.nodes_visited.set(0);
                while cursor.next(&charge).is_some() && counters.nodes_visited.get() <= cap {}
                if counters.nodes_visited.get() > cap {
                    assert!(
                        has_link_cycle(&cluster),
                        "{axis:?} from {entry:?} of page {} passed {cap} visits \
                         without a link cycle",
                        cluster.page
                    );
                    capped = true;
                }
            }
        }
    }
    match (unreadable, capped) {
        (true, _) => Outcome::Unreadable,
        (_, true) => Outcome::Capped,
        _ => Outcome::Walked,
    }
}

fn error_name(e: DecodeError) -> &'static str {
    match e {
        DecodeError::SlotDirectory => "slot directory",
        DecodeError::SlotOutOfRange { .. } => "slot out of range",
        DecodeError::RecordBounds { .. } => "record bounds",
        DecodeError::ShortRecord { .. } => "short record",
        DecodeError::UnknownKind { .. } => "unknown kind",
        DecodeError::TextLength { .. } => "text length",
        DecodeError::AttrCount { .. } => "attribute count",
        DecodeError::Link { .. } => "link",
        DecodeError::Utf8 => "utf-8",
    }
}

fn fuzz(page_size: usize, seed: u64) -> BTreeMap<Outcome, usize> {
    let pages = pages(page_size);
    assert!(pages.len() >= 8, "{} pages", pages.len());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut outcomes = BTreeMap::new();
    for _ in 0..CASES {
        let page_no = rng.random_range(0..pages.len());
        let mut image = pages[page_no].clone();
        let used = used_len(&image).min(page_size - CHECKSUM_LEN);
        for _ in 0..rng.random_range(1..=4usize) {
            let at = rng.random_range(0..used);
            image[at] ^= rng.random_range(1..=255u8);
        }
        seal_page(&mut image);
        let image: Arc<[u8]> = image.into();
        let outcome = match decode_cluster(page_no as u32, &image, &SimClock::new()) {
            Err(e) => Outcome::Rejected(error_name(e)),
            Ok(cluster) => read_and_walk(cluster),
        };
        *outcomes.entry(outcome).or_insert(0) += 1;
    }
    outcomes
}

#[test]
fn damaged_pages_fail_typed_or_walk_cleanly() {
    for (page_size, seed) in [(512, 0xDEC0DE), (1024, 0xFA11)] {
        let outcomes = fuzz(page_size, seed);
        let rejected: usize = outcomes
            .iter()
            .filter(|(o, _)| matches!(o, Outcome::Rejected(_)))
            .map(|(_, n)| n)
            .sum();
        assert!(
            rejected > 0,
            "{page_size} B: no case was rejected: {outcomes:?}"
        );
        assert!(
            !outcomes.contains_key(&Outcome::Rejected("utf-8")),
            "decode must leave payloads unchecked"
        );
        for decoded in [Outcome::Unreadable, Outcome::Walked] {
            assert!(
                outcomes.get(&decoded) > Some(&0),
                "{page_size} B: no case {decoded:?}: {outcomes:?}"
            );
        }
        eprintln!("{page_size} B pages: {outcomes:?}");
    }
}
