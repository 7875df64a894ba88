//! Stored node records, clusters, and their page encoding.
//!
//! A cluster is the decoded form of one slotted page: a record index over
//! the verified page image it came from, i.e. a mini-tree of fixed-size
//! [`Node`]s addressed by slot number. Core nodes (elements, text) carry the
//! logical document content; border nodes proxy edges to other clusters
//! (§3.4). Text and attribute payloads are not copied out of the page: a
//! node holds a [`Span`] into its cluster's bytes, read back through
//! [`Cluster::text`] and [`Cluster::attrs`].
//!
//! [`decode_cluster`] runs on every buffer miss and is total: a page that
//! passes its checksum but holds a bad record (a crafted file, an updater
//! bug) is a [`DecodeError`], never a panic. It checks each record's
//! layout — header, kind byte, text length, attribute count — and that
//! every parent, child and sibling link names a record on the page, so
//! navigation never indexes past the cluster. It does not read payloads:
//! count and path queries never look at text, so UTF-8 is checked when a
//! payload is read, and `text`/`attrs` return `Result`. That cut decode by
//! ~40 % (`decode.cluster_ns` ~5.3 → ~3.2 µs per 8 KiB page, perfbench
//! `cold --trace 1`, 2-core Xeon). Known limits: decode checks a page on its
//! own, so a crafted page whose links form a cycle decodes (a walk round
//! the cycle does not end), and a border's target slot is not checked
//! against the companion page.

use pathix_storage::cost::DECODE_NODE_NS;
pub use pathix_storage::DecodeError;
use pathix_storage::{PageId, SimClock, SlottedPageBuilder, SlottedPageReader};
use pathix_xml::Symbol;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::Arc;

/// Spacing between consecutive document-order keys at import time. The gap
/// leaves room for `ORDER_SPACING − 1` insertions between any two adjacent
/// nodes before a local key range is exhausted — the insert-friendly
/// labelling the paper assumes via ORDPATHs (§5.5), realized as gapped
/// integer keys.
pub const ORDER_SPACING: u64 = 1 << 16;

/// The order key assigned to preorder rank `rank` at import time.
#[inline]
pub fn order_key(rank: u64) -> u64 {
    rank * ORDER_SPACING
}

/// Identifier of a stored node: record id = (page, slot) — the typical
/// NodeID form of the paper's Example 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId {
    /// Page (= cluster) number.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
}

impl NodeId {
    /// Constructs a node id.
    pub fn new(page: PageId, slot: u16) -> Self {
        Self { page, slot }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.page, self.slot)
    }
}

/// Multiply-rotate hasher for keys the engine assigns itself: page, slot
/// and step numbers, never bytes from a document. No outside input can
/// choose such keys to collide, so SipHash's flooding defence buys nothing
/// here; callers must not iterate maps built with it.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }
    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }
}

/// A map keyed by engine-assigned ids (see [`IdHasher`]).
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
/// A set of engine-assigned ids (see [`IdHasher`]).
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Where a payload lives in its cluster's bytes: `len` bytes from offset
/// `at`. Meaningful only together with the cluster that holds the node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    at: u32,
    len: u32,
}

impl Span {
    pub(crate) fn new(at: usize, len: usize) -> Self {
        Self {
            at: at as u32,
            len: len as u32,
        }
    }

    fn range(self) -> Range<usize> {
        self.at as usize..(self.at + self.len) as usize
    }

    pub(crate) fn len(self) -> usize {
        self.len as usize
    }
}

/// Payload of a stored node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Tombstone: a deleted record. Keeps slot numbers stable so border
    /// companions in other clusters stay valid; never linked into any
    /// chain, never matched by navigation.
    Free,
    /// Core element node with an interned tag and its attributes.
    /// Attributes are payload only — they are not navigable (the paper's
    /// model ignores the attribute axis) but are preserved for export.
    Element {
        /// Interned tag.
        tag: Symbol,
        /// The encoded attribute entries; see [`Cluster::attrs`].
        attrs: Span,
    },
    /// Core text node; its content is [`Cluster::text`].
    Text(Span),
    /// Border node standing for a child subtree stored in another cluster;
    /// `target` is the companion `BorderUp` node.
    BorderDown {
        /// Companion border node on the far side of the edge.
        target: NodeId,
    },
    /// Border node rooting one subtree of a cluster's forest, standing for
    /// the remote parent; `target` is the companion `BorderDown` node.
    BorderUp {
        /// Companion border node on the far side of the edge.
        target: NodeId,
    },
}

impl NodeKind {
    /// Convenience constructor for an attribute-less element.
    pub fn elem(tag: Symbol) -> Self {
        NodeKind::Element {
            tag,
            attrs: Span::default(),
        }
    }

    /// True for element/text core nodes.
    pub fn is_core(&self) -> bool {
        matches!(self, NodeKind::Element { .. } | NodeKind::Text(_))
    }

    /// True for either border variant.
    pub fn is_border(&self) -> bool {
        matches!(
            self,
            NodeKind::BorderDown { .. } | NodeKind::BorderUp { .. }
        )
    }

    /// The companion border NodeId, for border nodes (the paper's
    /// `target(x)` operation, §3.4).
    pub fn target(&self) -> Option<NodeId> {
        match self {
            NodeKind::BorderDown { target } | NodeKind::BorderUp { target } => Some(*target),
            _ => None,
        }
    }

    /// The same record with its payload at `span`.
    pub(crate) fn with_payload(self, span: Span) -> Self {
        match self {
            NodeKind::Text(_) => NodeKind::Text(span),
            NodeKind::Element { tag, .. } => NodeKind::Element { tag, attrs: span },
            other => other,
        }
    }
}

/// One stored node: payload plus intra-cluster structure links and the
/// document-order key (an ORDPATH-substitute preorder rank, §5.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    /// Payload.
    pub kind: NodeKind,
    /// Parent slot within this cluster (`None` for the cluster root).
    pub parent: Option<u16>,
    /// First child slot within this cluster.
    pub first_child: Option<u16>,
    /// Next sibling slot within this cluster.
    pub next_sibling: Option<u16>,
    /// Previous sibling slot within this cluster.
    pub prev_sibling: Option<u16>,
    /// Document preorder rank (for core nodes: the logical node's rank;
    /// for borders: the rank of the node the companion stands next to).
    pub order: u64,
}

impl Node {
    /// A tombstone record, unlinked.
    pub const FREE: Node = Node {
        kind: NodeKind::Free,
        parent: None,
        first_child: None,
        next_sibling: None,
        prev_sibling: None,
        order: 0,
    };
}

/// One page's mini-tree: the nodes by slot, and the bytes their payload
/// spans point into — the verified page image for a decoded cluster, plus
/// any payload the updater appended since.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// The page this cluster lives on.
    pub page: PageId,
    /// Nodes by slot.
    pub nodes: Vec<Node>,
    pub(crate) bytes: Arc<[u8]>,
}

impl Cluster {
    /// An empty cluster on `page`.
    pub fn new(page: PageId) -> Self {
        Self {
            page,
            nodes: Vec::new(),
            bytes: Arc::from([]),
        }
    }

    /// Node at `slot`.
    ///
    /// # Panics
    /// Panics if the slot is out of range. Decode checks every link, so a
    /// slot read from this cluster's nodes is always in range.
    #[inline]
    pub fn node(&self, slot: u16) -> &Node {
        // lint:allow(documented panic; every link in a decoded cluster is < len)
        &self.nodes[slot as usize]
    }

    /// Number of nodes in the cluster.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the cluster holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The global id of the node at `slot`.
    pub fn id(&self, slot: u16) -> NodeId {
        NodeId::new(self.page, slot)
    }

    /// Slots of all border nodes in the cluster (used by the speculative
    /// instance generation of `XScan`/`XSchedule`).
    pub fn border_slots(&self) -> impl Iterator<Item = u16> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.kind.is_border())
            .map(|(i, _)| i as u16)
    }

    /// Number of core nodes.
    pub fn core_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.kind.is_core()).count()
    }

    /// Content of a text node (`""` for any other kind), or
    /// [`DecodeError::Utf8`] if the stored bytes are not UTF-8. Decode
    /// leaves payloads unchecked; this is where they are checked.
    pub fn text(&self, node: &Node) -> Result<&str, DecodeError> {
        match node.kind {
            NodeKind::Text(_) => utf8(payload_in(&self.bytes, &node.kind)),
            _ => Ok(""),
        }
    }

    /// Attribute name/value pairs of an element node (none for any other
    /// kind); a value that is not UTF-8 is [`DecodeError::Utf8`].
    pub fn attrs(&self, node: &Node) -> impl Iterator<Item = Result<(Symbol, &str), DecodeError>> {
        let entries = match node.kind {
            NodeKind::Element { .. } => payload_in(&self.bytes, &node.kind),
            _ => &[],
        };
        AttrEntries(entries).map(|(name, value)| Ok((name, utf8(value)?)))
    }

    /// `kind`, a record of cluster `from`, with its payload appended to this
    /// cluster's bytes. Copies the byte store: meant for the updater's few
    /// new, relocated and rewritten records, not for bulk building.
    pub(crate) fn adopt(&mut self, from: &Cluster, kind: NodeKind) -> NodeKind {
        self.append(kind, payload_in(&from.bytes, &kind))
    }

    /// A new text record holding `text`, appended to this cluster's bytes.
    pub(crate) fn push_text(&mut self, text: &str) -> NodeKind {
        self.append(NodeKind::Text(Span::default()), text.as_bytes())
    }

    fn append(&mut self, kind: NodeKind, payload: &[u8]) -> NodeKind {
        let span = Span::new(self.bytes.len(), payload.len());
        if !payload.is_empty() {
            self.bytes = [self.bytes.as_ref(), payload].concat().into();
        }
        kind.with_payload(span)
    }
}

/// The payload bytes of `kind` in `bytes`, the store its span points into.
/// Decode checked every span against its record, and the importer's spans
/// are its own, so the fallback to no bytes is never taken.
fn payload_in<'a>(bytes: &'a [u8], kind: &NodeKind) -> &'a [u8] {
    match kind {
        NodeKind::Text(s) | NodeKind::Element { attrs: s, .. } => {
            bytes.get(s.range()).unwrap_or_default()
        }
        _ => &[],
    }
}

/// A payload as text. Decode does not look at payload bytes, so a sealed
/// page can still hold bytes that are not UTF-8; they are caught here.
fn utf8(bytes: &[u8]) -> Result<&str, DecodeError> {
    std::str::from_utf8(bytes).map_err(|_| DecodeError::Utf8)
}

/// The `(name, value bytes)` entries of an encoded attribute list.
struct AttrEntries<'a>(&'a [u8]);

impl<'a> Iterator for AttrEntries<'a> {
    type Item = (Symbol, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        let (name, rest) = self.0.split_first_chunk::<4>()?;
        let (len, rest) = rest.split_first_chunk::<2>()?;
        let (value, rest) = rest.split_at_checked(u16::from_le_bytes(*len) as usize)?;
        self.0 = rest;
        Some((Symbol(u32::from_le_bytes(*name)), value))
    }
}

/// Appends one attribute entry in record layout (the importer's builder).
/// A value too long for its `u16` length saturates it; such a record is
/// larger than any page, and the importer rejects it by its size.
pub(crate) fn put_attr(buf: &mut Vec<u8>, name: Symbol, value: &str) {
    buf.extend_from_slice(&name.0.to_le_bytes());
    let len = u16::try_from(value.len()).unwrap_or(u16::MAX);
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(value.as_bytes());
}

// --- encoding ---------------------------------------------------------
//
// Record layout (little endian):
//   u8   kind (0 element, 1 text, 2 border-down, 3 border-up, 4 free)
//   u16  parent + 1        (0 = none)
//   u16  first_child + 1
//   u16  next_sibling + 1
//   u16  prev_sibling + 1
//   u64  order
//   payload:
//     element:     u32 tag symbol, u16 count, count x (u32 name, u16 len, bytes)
//     text:        u16 len, bytes
//     border-*:    u32 target page, u16 target slot
// A free record is the kind byte alone. A decoded node's span covers the
// attribute entries or the text bytes in place.

const FIXED_HEAD: usize = 1 + 4 * 2 + 8;

/// Encoded size of either border record.
pub(crate) const BORDER_SIZE: usize = FIXED_HEAD + 6;

/// Exact encoded size of a node record (used by the importer's packing
/// budget).
pub fn encoded_size(kind: &NodeKind) -> usize {
    FIXED_HEAD
        + match kind {
            NodeKind::Free => return 1,
            NodeKind::Element { attrs, .. } => 4 + 2 + attrs.len(),
            NodeKind::Text(t) => 2 + t.len(),
            NodeKind::BorderDown { .. } | NodeKind::BorderUp { .. } => return BORDER_SIZE,
        }
}

fn put_link(buf: &mut Vec<u8>, link: Option<u16>) {
    let v = link.map(|s| s + 1).unwrap_or(0);
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `node`'s record, its payload read from `bytes`.
fn encode_node(bytes: &[u8], node: &Node, buf: &mut Vec<u8>) {
    let kind_byte = match &node.kind {
        NodeKind::Element { .. } => 0u8,
        NodeKind::Text(_) => 1,
        NodeKind::BorderDown { .. } => 2,
        NodeKind::BorderUp { .. } => 3,
        NodeKind::Free => {
            buf.push(4);
            return;
        }
    };
    buf.push(kind_byte);
    put_link(buf, node.parent);
    put_link(buf, node.first_child);
    put_link(buf, node.next_sibling);
    put_link(buf, node.prev_sibling);
    buf.extend_from_slice(&node.order.to_le_bytes());
    let payload = payload_in(bytes, &node.kind);
    match &node.kind {
        NodeKind::Free => {} // the kind byte alone, written above
        NodeKind::Element { tag, .. } => {
            buf.extend_from_slice(&tag.0.to_le_bytes());
            let count = AttrEntries(payload).count();
            assert!(count <= u16::MAX as usize, "too many attributes");
            buf.extend_from_slice(&(count as u16).to_le_bytes());
            buf.extend_from_slice(payload);
        }
        NodeKind::Text(_) => {
            assert!(payload.len() <= u16::MAX as usize, "text record too long");
            buf.extend_from_slice(&(payload.len() as u16).to_le_bytes());
            buf.extend_from_slice(payload);
        }
        NodeKind::BorderDown { target } | NodeKind::BorderUp { target } => {
            buf.extend_from_slice(&target.page.to_le_bytes());
            buf.extend_from_slice(&target.slot.to_le_bytes());
        }
    }
}

/// Serializes a cluster into page bytes, each record written in place.
///
/// # Panics
/// Panics if the cluster exceeds the page size; the importer's budget
/// arithmetic guarantees it never does.
pub fn encode_cluster(cluster: &Cluster, page_size: usize) -> Vec<u8> {
    encode_records(&cluster.nodes, &cluster.bytes, page_size)
}

/// Serializes `nodes`, whose payload spans point into `bytes`, into page
/// bytes: [`encode_cluster`] for the importer's clusters, whose nodes and
/// payloads are still in their build buffers.
///
/// # Panics
/// As [`encode_cluster`].
pub(crate) fn encode_records(nodes: &[Node], bytes: &[u8], page_size: usize) -> Vec<u8> {
    let mut builder = SlottedPageBuilder::new(page_size, nodes.len());
    for node in nodes {
        builder.push_with(|page| encode_node(bytes, node, page));
    }
    builder.finish()
}

/// Rewrites the target page of every border record of an encoded page
/// image in place, to `retarget` of the page it names. The importer encodes
/// a cluster before the placement has given its companions page numbers,
/// so it writes placeholders and fixes them here, once, before sealing;
/// nothing else on the page moves. A page whose directory does not read is
/// left as it is.
pub(crate) fn retarget_borders(page: &mut [u8], retarget: impl Fn(PageId) -> PageId) {
    let count = SlottedPageReader::try_new(page).map_or(0, |r| r.len());
    for slot in 0..count as u16 {
        let Ok(record) = SlottedPageReader::try_new(page).and_then(|r| r.record_range(slot)) else {
            continue;
        };
        // Kind byte 2 or 3: border-down or border-up, whose payload starts
        // with the target page.
        if !matches!(page.get(record.start), Some(2 | 3)) {
            continue;
        }
        let field = page
            .get_mut(record.start + FIXED_HEAD..record.end)
            .and_then(|p| p.first_chunk_mut::<4>());
        if let Some(field) = field {
            *field = retarget(u32::from_le_bytes(*field)).to_le_bytes();
        }
    }
}

/// Decodes record `slot`, at `range` of `page`, of a page holding `count`
/// records. Checks the record's layout and that its links stay on the page;
/// leaves its payload in place and unchecked (see [`Cluster::text`]).
fn decode_node(
    page: &[u8],
    range: Range<usize>,
    slot: u16,
    count: usize,
) -> Result<Node, DecodeError> {
    let short = DecodeError::ShortRecord { slot };
    let at = range.start;
    let rec = page.get(range).ok_or(DecodeError::RecordBounds { slot })?;
    let (&kind, rest) = rec.split_first().ok_or(short)?;
    if kind == 4 {
        return Ok(Node::FREE);
    }
    let (head, payload) = rest
        .split_first_chunk::<{ FIXED_HEAD - 1 }>()
        .ok_or(short)?;
    let [p0, p1, c0, c1, n0, n1, v0, v1, order @ ..] = *head;
    let link = |lo: u8, hi: u8| match u16::from_le_bytes([lo, hi]).checked_sub(1) {
        Some(link) if link as usize >= count => Err(DecodeError::Link { slot, link }),
        link => Ok(link),
    };
    let kind = match (kind, payload) {
        (0, [t0, t1, t2, t3, k0, k1, entries @ ..]) => {
            let mut parsed = AttrEntries(entries);
            let found = parsed.by_ref().count();
            if found != u16::from_le_bytes([*k0, *k1]) as usize || !parsed.0.is_empty() {
                return Err(DecodeError::AttrCount { slot });
            }
            NodeKind::Element {
                tag: Symbol(u32::from_le_bytes([*t0, *t1, *t2, *t3])),
                attrs: Span::new(at + FIXED_HEAD + 6, entries.len()),
            }
        }
        (1, [l0, l1, text @ ..]) => {
            let len = u16::from_le_bytes([*l0, *l1]) as usize;
            if len > text.len() {
                return Err(DecodeError::TextLength { slot });
            }
            NodeKind::Text(Span::new(at + FIXED_HEAD + 2, len))
        }
        (2 | 3, [g0, g1, g2, g3, s0, s1, ..]) => {
            let page = u32::from_le_bytes([*g0, *g1, *g2, *g3]);
            let target = NodeId::new(page, u16::from_le_bytes([*s0, *s1]));
            if kind == 2 {
                NodeKind::BorderDown { target }
            } else {
                NodeKind::BorderUp { target }
            }
        }
        (0..=3, _) => return Err(short),
        (kind, _) => return Err(DecodeError::UnknownKind { slot, kind }),
    };
    Ok(Node {
        kind,
        parent: link(p0, p1)?,
        first_child: link(c0, c1)?,
        next_sibling: link(n0, n1)?,
        prev_sibling: link(v0, v1)?,
        order: u64::from_le_bytes(order),
    })
}

/// Indexes the records of a verified page image, charging
/// [`DECODE_NODE_NS`] per record, or
/// reports the first record that does not decode (charging nothing). The
/// cluster keeps `bytes` — the device's allocation, not a copy — and its
/// nodes' payload spans point into it.
///
/// Every record's layout and intra-cluster links are checked, so no slot a
/// node names is out of range; payloads are not, and are UTF-8-checked
/// when read. Links are not checked against each other: a crafted page
/// whose links form a cycle decodes.
pub fn decode_cluster(
    page: PageId,
    bytes: &Arc<[u8]>,
    clock: &SimClock,
) -> Result<Cluster, DecodeError> {
    let reader = SlottedPageReader::try_new(bytes)?;
    let count = reader.len();
    let mut nodes = Vec::with_capacity(count);
    for slot in 0..count as u16 {
        nodes.push(decode_node(bytes, reader.record_range(slot)?, slot, count)?);
    }
    clock.charge_cpu(DECODE_NODE_NS * count as u64);
    Ok(Cluster {
        page,
        nodes,
        bytes: Arc::clone(bytes),
    })
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test code.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use pathix_storage::{seal_page, verify_page};
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    fn sample_cluster() -> Cluster {
        let mut c = Cluster::new(7);
        let mut attrs = Vec::new();
        put_attr(&mut attrs, Symbol(3), "v1");
        put_attr(&mut attrs, Symbol(5), "zwei");
        let elem = c.append(
            NodeKind::Element {
                tag: Symbol(12),
                attrs: Span::new(0, attrs.len()),
            },
            &attrs,
        );
        let text = c.push_text("hello world");
        c.nodes = vec![
            Node {
                kind: NodeKind::BorderUp {
                    target: NodeId::new(3, 9),
                },
                first_child: Some(1),
                order: 41,
                ..Node::FREE
            },
            Node {
                kind: elem,
                parent: Some(0),
                first_child: Some(2),
                order: 42,
                ..Node::FREE
            },
            Node {
                kind: text,
                parent: Some(1),
                next_sibling: Some(3),
                order: 43,
                ..Node::FREE
            },
            Node {
                kind: NodeKind::BorderDown {
                    target: NodeId::new(9, 0),
                },
                parent: Some(1),
                prev_sibling: Some(2),
                order: 44,
                ..Node::FREE
            },
            Node::FREE,
        ];
        c
    }

    /// A cluster's logical content: structure, border targets and
    /// payload values — not the spans, which depend on where the bytes are.
    type Logical<'a> = (
        Vec<(Option<u16>, Option<u16>, Option<u16>, Option<u16>, u64)>,
        Vec<String>,
    );

    fn logical(c: &Cluster) -> Logical<'_> {
        let links = c
            .nodes
            .iter()
            .map(|n| {
                (
                    n.parent,
                    n.first_child,
                    n.next_sibling,
                    n.prev_sibling,
                    n.order,
                )
            })
            .collect();
        let payloads = c
            .nodes
            .iter()
            .map(|n| {
                let attrs: Vec<_> = c.attrs(n).map(Result::unwrap).collect();
                format!("{:?} {:?} {:?}", n.kind.target(), c.text(n).unwrap(), attrs)
            })
            .collect();
        (links, payloads)
    }

    fn encoded(c: &Cluster) -> Arc<[u8]> {
        let mut bytes = encode_cluster(c, 4096);
        seal_page(&mut bytes);
        bytes.into()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let c = sample_cluster();
        let bytes = encoded(&c);
        let clock = SimClock::new();
        let back = decode_cluster(7, &bytes, &clock).unwrap();
        assert_eq!(logical(&c), logical(&back));
        assert_eq!(back.text(back.node(2)), Ok("hello world"));
        let attrs: Vec<_> = back.attrs(back.node(1)).collect();
        assert_eq!(attrs, vec![Ok((Symbol(3), "v1")), Ok((Symbol(5), "zwei"))]);
        assert_eq!(back.text(back.node(1)), Ok(""), "an element has no text");
        assert_eq!(back.attrs(back.node(2)).count(), 0, "text has no attrs");
        assert_eq!(encoded(&back), bytes, "re-encoding is byte-identical");
        assert_eq!(clock.cpu_ns(), DECODE_NODE_NS * 5);
    }

    #[test]
    fn decoded_cluster_borrows_the_page_image() {
        let bytes = encoded(&sample_cluster());
        let back = decode_cluster(7, &bytes, &SimClock::new()).unwrap();
        assert!(Arc::ptr_eq(&back.bytes, &bytes), "decode copies no bytes");
        let text = back.text(back.node(2)).unwrap().as_bytes().as_ptr_range();
        assert!(bytes.as_ptr_range().contains(&text.start));
    }

    #[test]
    fn node_is_plain_data() {
        const fn copy<T: Copy>() {}
        const {
            copy::<Node>();
            assert!(!std::mem::needs_drop::<Node>());
            assert!(std::mem::size_of::<Node>() <= 40);
        }
    }

    /// Seals a copy of the sample page with `needle`'s first byte replaced
    /// by a byte that is never valid UTF-8.
    fn corrupt_payload(needle: &[u8]) -> Arc<[u8]> {
        let mut bytes = encode_cluster(&sample_cluster(), 4096);
        let at = bytes.windows(needle.len()).position(|w| w == needle);
        let at = at.expect("payload on the page");
        bytes[at] = 0xFF;
        seal_page(&mut bytes);
        assert!(verify_page(&bytes), "the checksum is no UTF-8 check");
        bytes.into()
    }

    #[test]
    fn invalid_utf8_text_fails_on_read() {
        let bytes = corrupt_payload(b"hello");
        let back = decode_cluster(7, &bytes, &SimClock::new()).unwrap();
        assert_eq!(back.text(back.node(2)), Err(DecodeError::Utf8));
        assert!(
            back.attrs(back.node(1)).all(|a| a.is_ok()),
            "others still read"
        );
    }

    #[test]
    fn invalid_utf8_attr_fails_on_read() {
        let bytes = corrupt_payload(b"zwei");
        let back = decode_cluster(7, &bytes, &SimClock::new()).unwrap();
        let attrs: Vec<_> = back.attrs(back.node(1)).collect();
        assert_eq!(attrs, vec![Ok((Symbol(3), "v1")), Err(DecodeError::Utf8)]);
        assert_eq!(back.text(back.node(2)), Ok("hello world"));
    }

    /// The sample page with `with` written at byte `at`, resealed, so only
    /// decode can object to it.
    fn patched(at: usize, with: &[u8]) -> Arc<[u8]> {
        let mut bytes = encode_cluster(&sample_cluster(), 4096);
        bytes[at..at + with.len()].copy_from_slice(with);
        seal_page(&mut bytes);
        bytes.into()
    }

    #[test]
    fn bad_records_are_decode_errors() {
        let page = encode_cluster(&sample_cluster(), 4096);
        let rec = |slot| {
            SlottedPageReader::new(&page)
                .record_range(slot)
                .unwrap()
                .start
        };
        let max = u16::MAX.to_le_bytes();
        let cases = [
            (patched(0, &max), DecodeError::SlotDirectory),
            (
                patched(2 + 2 * 5, &max),
                DecodeError::RecordBounds { slot: 4 },
            ),
            (patched(rec(4), &[0]), DecodeError::ShortRecord { slot: 4 }),
            (
                patched(rec(2), &[9]),
                DecodeError::UnknownKind { slot: 2, kind: 9 },
            ),
            (
                patched(rec(2) + FIXED_HEAD, &200u16.to_le_bytes()),
                DecodeError::TextLength { slot: 2 },
            ),
            (
                patched(rec(1) + FIXED_HEAD + 4, &3u16.to_le_bytes()),
                DecodeError::AttrCount { slot: 1 },
            ),
            (
                patched(rec(2) + 1, &6u16.to_le_bytes()),
                DecodeError::Link { slot: 2, link: 5 },
            ),
        ];
        for (bytes, want) in cases {
            assert!(verify_page(&bytes));
            let clock = SimClock::new();
            assert_eq!(decode_cluster(7, &bytes, &clock).unwrap_err(), want);
            assert_eq!(clock.cpu_ns(), 0, "a failed decode charges nothing");
        }
        // A link to the last record (a tombstone) is on the page: no error.
        assert!(decode_cluster(
            7,
            &patched(rec(2) + 1, &5u16.to_le_bytes()),
            &SimClock::new()
        )
        .is_ok());
    }

    #[test]
    fn adopt_copies_the_payload() {
        let c = sample_cluster();
        let mut other = Cluster::new(8);
        other.push_text("already here");
        for slot in [1, 2] {
            let node = Node {
                kind: other.adopt(&c, c.node(slot).kind),
                ..*c.node(slot)
            };
            assert_eq!(other.text(&node), c.text(c.node(slot)));
            assert!(other.attrs(&node).eq(c.attrs(c.node(slot))));
        }
    }

    #[test]
    fn encoded_size_is_exact() {
        let c = sample_cluster();
        for n in &c.nodes {
            let mut buf = Vec::new();
            encode_node(&c.bytes, n, &mut buf);
            assert_eq!(buf.len(), encoded_size(&n.kind));
        }
    }

    #[test]
    fn retargeting_moves_only_border_pages() {
        let c = sample_cluster();
        let mut page = encode_cluster(&c, 4096);
        retarget_borders(&mut page, |p| p * 100 + 1);
        seal_page(&mut page);
        let back = decode_cluster(7, &page.into(), &SimClock::new()).unwrap();
        let mut want = c.clone();
        for n in &mut want.nodes {
            if let NodeKind::BorderDown { target } | NodeKind::BorderUp { target } = &mut n.kind {
                target.page = target.page * 100 + 1;
            }
        }
        assert_eq!(logical(&back), logical(&want));
        assert_eq!(back.node(0).kind.target(), Some(NodeId::new(301, 9)));
        assert_eq!(back.node(3).kind.target(), Some(NodeId::new(901, 0)));
    }

    #[test]
    fn border_helpers() {
        let c = sample_cluster();
        let borders: Vec<u16> = c.border_slots().collect();
        assert_eq!(borders, vec![0, 3]);
        assert_eq!(c.core_count(), 2);
        assert_eq!(c.node(0).kind.target(), Some(NodeId::new(3, 9)));
        assert_eq!(c.node(1).kind.target(), None);
        assert!(c.node(3).kind.is_border());
        assert!(c.node(1).kind.is_core());
    }

    #[test]
    fn node_id_ordering_is_page_then_slot() {
        assert!(NodeId::new(1, 9) < NodeId::new(2, 0));
        assert!(NodeId::new(2, 1) < NodeId::new(2, 2));
        assert_eq!(NodeId::new(4, 4).to_string(), "4:4");
    }

    #[test]
    fn empty_cluster_roundtrip() {
        let bytes: Arc<[u8]> = encode_cluster(&Cluster::new(0), 128).into();
        let clock = SimClock::new();
        let back = decode_cluster(0, &bytes, &clock).unwrap();
        assert!(back.is_empty());
    }

    // --- byte identity with the two-buffer encoder ----------------------

    /// The page encoder that preceded the in-place builder, kept as the
    /// byte-for-byte reference: each record is encoded into a scratch
    /// buffer and copied into a record vector, its end goes into an offset
    /// vector, and `finish` copies directory and records into the page.
    fn reference_encode(cluster: &Cluster, page_size: usize) -> Vec<u8> {
        let (mut records, mut ends) = (Vec::new(), Vec::new());
        let mut buf = Vec::with_capacity(64);
        for node in &cluster.nodes {
            buf.clear();
            encode_node(&cluster.bytes, node, &mut buf);
            let used = 2 + (ends.len() + 1) * 2 + records.len();
            let remaining = page_size.saturating_sub(used + 2);
            assert!(buf.len() <= remaining, "record does not fit in page");
            records.extend_from_slice(&buf);
            ends.push(records.len());
        }
        let header = 2 + (ends.len() + 1) * 2;
        let mut out = Vec::with_capacity(page_size);
        out.extend_from_slice(&(ends.len() as u16).to_le_bytes());
        for start in std::iter::once(0).chain(ends) {
            out.extend_from_slice(&((header + start) as u16).to_le_bytes());
        }
        out.extend_from_slice(&records);
        out.resize(page_size, 0);
        out
    }

    /// `doc` imported onto `page_size`-byte pages.
    fn store_of(
        doc: &pathix_xml::Document,
        page_size: usize,
        placement: crate::Placement,
    ) -> crate::TreeStore {
        let mut dev = pathix_storage::SimDisk::with_profile(
            page_size,
            pathix_storage::DiskProfile::instant(),
        );
        let cfg = crate::ImportConfig {
            page_size,
            placement,
        };
        let (meta, _) = crate::import_into(&mut dev, doc, &cfg).unwrap();
        let clock = std::rc::Rc::new(SimClock::new());
        crate::TreeStore::open(Box::new(dev), meta, Default::default(), clock)
    }

    /// Checks every stored page against the reference encoding of its
    /// decoded cluster, and `encode_cluster` against the reference; returns
    /// the tombstones seen.
    fn assert_pages_match_reference(store: &crate::TreeStore) -> usize {
        let page_size = store.buffer.device_mut().page_size();
        let clock = SimClock::new();
        let mut tombstones = 0;
        for p in store.meta.page_range() {
            let image = store.buffer.device_mut().read_sync(p, &clock).unwrap();
            let cluster = decode_cluster(p, &image, &clock).unwrap();
            let mut want = reference_encode(&cluster, page_size);
            assert!(encode_cluster(&cluster, page_size) == want, "page {p}");
            seal_page(&mut want);
            assert!(want[..] == image[..], "page {p} ({page_size} B)");
            tombstones += cluster
                .nodes
                .iter()
                .filter(|n| n.kind == NodeKind::Free)
                .count();
        }
        tombstones
    }

    /// A seeded XMark document with short sentences, so every text record
    /// fits a 512 B page.
    fn short_doc() -> pathix_xml::Document {
        pathix_xmlgen::generate(&pathix_xmlgen::GenConfig {
            avg_sentence_words: 4,
            ..pathix_xmlgen::GenConfig::at_scale(0.01)
        })
    }

    #[test]
    fn imports_match_the_reference_encoder() {
        use crate::Placement;
        let doc = short_doc();
        for page_size in [512, 1024, 2048, 4096, 8192] {
            for placement in [
                Placement::Sequential,
                Placement::ChunkShuffled { chunk: 4, seed: 7 },
                Placement::ChunkShuffled { chunk: 1, seed: 7 },
            ] {
                assert_pages_match_reference(&store_of(&doc, page_size, placement));
            }
        }
    }

    /// A seeded node of `store` matching `want`.
    fn pick(store: &crate::TreeStore, rng: &mut StdRng, want: fn(&Node) -> bool) -> NodeId {
        loop {
            let page = rng.random_range(store.meta.page_range());
            let cluster = store.fix(page);
            let slots: Vec<u16> = (0..cluster.len() as u16)
                .filter(|&s| want(cluster.node(s)))
                .collect();
            if let Some(&slot) = slots.get(rng.random_range(0..slots.len().max(1))) {
                return NodeId::new(page, slot);
            }
        }
    }

    #[test]
    fn updated_pages_match_the_reference_encoder() {
        use crate::{InsertPos, NewNode, TreeUpdater};
        const PAGE: usize = 2048;
        let mut store = store_of(&short_doc(), PAGE, crate::Placement::Sequential);
        let imported = store.meta.page_count;
        let mut rng = StdRng::seed_from_u64(0xB17E);
        let inner: fn(&Node) -> bool = |n| n.kind.is_core() && n.parent.is_some();
        let text: fn(&Node) -> bool = |n| matches!(n.kind, NodeKind::Text(_));

        // Text and element inserts (some overflow onto fresh pages), text
        // rewrites, and subtree deletes (tombstones).
        for _ in 0..400 {
            let (at, t) = (pick(&store, &mut rng, inner), pick(&store, &mut rng, text));
            let long = "t ".repeat(rng.random_range(0..300));
            let mut up = TreeUpdater::new(&mut store);
            let _ = match rng.random_range(0..4) {
                0 => up
                    .insert(InsertPos::After(at), NewNode::Text(long))
                    .map(drop),
                1 => up
                    .insert(InsertPos::After(at), NewNode::Element("ins".into()))
                    .map(drop),
                2 => up.delete(at),
                _ => up.update_text(t, &long),
            };
        }
        assert!(store.meta.page_count > imported, "no insert overflowed");

        // Fill a text's page to the last byte, then insert next to it: not
        // even a border proxy fits, so `make_room` relocates leaves.
        let t = pick(&store, &mut rng, text);
        let (mut lo, mut hi) = (0, PAGE);
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            match TreeUpdater::new(&mut store).update_text(t, &"f".repeat(mid)) {
                Ok(()) => lo = mid,
                Err(_) => hi = mid,
            }
        }
        TreeUpdater::new(&mut store)
            .update_text(t, &"f".repeat(lo))
            .unwrap();
        let before = store.meta.page_count;
        TreeUpdater::new(&mut store)
            .insert(InsertPos::After(t), NewNode::Text("next".into()))
            .unwrap();
        assert_eq!(
            store.meta.page_count,
            before + 2,
            "relocated leaves, then the insert"
        );
        assert!(matches!(
            store.fix(t.page).node(t.slot).kind,
            NodeKind::BorderDown { .. }
        ));
        assert!(assert_pages_match_reference(&store) > 0, "no tombstones");
    }

    #[test]
    fn exactly_full_page_matches_the_reference_encoder() {
        const PAGE: usize = 512;
        let mut c = Cluster::new(0);
        // One text record after a 6-byte directory, filling the page.
        let text = "x".repeat(PAGE - 6 - FIXED_HEAD - 2);
        c.nodes = vec![Node {
            kind: c.push_text(&text),
            ..Node::FREE
        }];
        let bytes = encode_cluster(&c, PAGE);
        assert_eq!(bytes, reference_encode(&c, PAGE));
        assert_eq!(bytes.last(), Some(&b'x'), "the record ends at the page end");
        let back = decode_cluster(0, &bytes.into(), &SimClock::new()).unwrap();
        assert_eq!(back.text(back.node(0)), Ok(text.as_str()));
    }
}
