//! Arena-based ordered labelled document tree — the logical tree model of
//! the paper's §3.1.
//!
//! Nodes live in a flat arena and are addressed by [`NodeRef`]. Every node
//! carries parent, first/last-child and sibling links, so all XPath axes can
//! be evaluated on the in-memory tree. The arena is the input to the
//! clustering importer and the data structure of the reference evaluator.

use crate::symbols::{Symbol, SymbolTable};

/// Index of a node within a [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeRef(pub u32);

impl NodeRef {
    #[inline]
    fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Node payload: an element with an interned tag, or a text node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XKind {
    /// Element node labelled with a tag symbol.
    Element(Symbol),
    /// Text node; payload index into the document's text arena.
    Text(u32),
}

#[derive(Debug, Clone)]
struct XNode {
    kind: XKind,
    parent: Option<NodeRef>,
    first_child: Option<NodeRef>,
    last_child: Option<NodeRef>,
    next_sibling: Option<NodeRef>,
    prev_sibling: Option<NodeRef>,
    // Boxed so the common attribute-less node stays one pointer wide
    // instead of carrying an inline Vec header.
    #[allow(clippy::box_collection)]
    attrs: Option<Box<Vec<(Symbol, String)>>>,
}

/// An ordered, labelled XML document tree.
#[derive(Debug, Clone)]
pub struct Document {
    symbols: SymbolTable,
    nodes: Vec<XNode>,
    texts: Vec<String>,
    root: NodeRef,
}

impl Document {
    /// Creates a document whose root element is tagged `root_tag`.
    pub fn new(root_tag: &str) -> Self {
        let mut symbols = SymbolTable::new();
        let tag = symbols.intern(root_tag);
        let root = XNode {
            kind: XKind::Element(tag),
            parent: None,
            first_child: None,
            last_child: None,
            next_sibling: None,
            prev_sibling: None,
            attrs: None,
        };
        Self {
            symbols,
            nodes: vec![root],
            texts: Vec::new(),
            root: NodeRef(0),
        }
    }

    /// The root element.
    #[inline]
    pub fn root(&self) -> NodeRef {
        self.root
    }

    /// Total number of nodes (elements + text).
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a freshly rooted, single-node document — never for a
    /// populated one. (A document always has at least its root.)
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// The symbol table (tag alphabet).
    #[inline]
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Interns a tag name.
    pub fn intern(&mut self, name: &str) -> Symbol {
        self.symbols.intern(name)
    }

    fn push_node(&mut self, kind: XKind, parent: NodeRef) -> NodeRef {
        let n = NodeRef(self.nodes.len() as u32);
        self.nodes.push(XNode {
            kind,
            parent: Some(parent),
            first_child: None,
            last_child: None,
            next_sibling: None,
            prev_sibling: None,
            attrs: None,
        });
        // Link as last child.
        let prev_last = self.nodes[parent.idx()].last_child;
        match prev_last {
            Some(last) => {
                self.nodes[last.idx()].next_sibling = Some(n);
                self.nodes[n.idx()].prev_sibling = Some(last);
            }
            None => self.nodes[parent.idx()].first_child = Some(n),
        }
        self.nodes[parent.idx()].last_child = Some(n);
        n
    }

    fn push_unlinked(&mut self, kind: XKind) -> NodeRef {
        let n = NodeRef(self.nodes.len() as u32);
        self.nodes.push(XNode {
            kind,
            parent: None,
            first_child: None,
            last_child: None,
            next_sibling: None,
            prev_sibling: None,
            attrs: None,
        });
        n
    }

    /// Links an unlinked node as the first child of `parent`.
    fn link_first(&mut self, parent: NodeRef, n: NodeRef) {
        let old = self.nodes[parent.idx()].first_child;
        self.nodes[n.idx()].parent = Some(parent);
        self.nodes[n.idx()].next_sibling = old;
        match old {
            Some(o) => self.nodes[o.idx()].prev_sibling = Some(n),
            None => self.nodes[parent.idx()].last_child = Some(n),
        }
        self.nodes[parent.idx()].first_child = Some(n);
    }

    /// Links an unlinked node right after `sibling`.
    fn link_after(&mut self, sibling: NodeRef, n: NodeRef) {
        let parent = self.nodes[sibling.idx()]
            .parent
            .expect("sibling has a parent");
        let next = self.nodes[sibling.idx()].next_sibling;
        self.nodes[n.idx()].parent = Some(parent);
        self.nodes[n.idx()].prev_sibling = Some(sibling);
        self.nodes[n.idx()].next_sibling = next;
        self.nodes[sibling.idx()].next_sibling = Some(n);
        match next {
            Some(x) => self.nodes[x.idx()].prev_sibling = Some(n),
            None => self.nodes[parent.idx()].last_child = Some(n),
        }
    }

    /// Inserts a new element as the **first** child of `parent`.
    pub fn insert_element_first(&mut self, parent: NodeRef, tag: &str) -> NodeRef {
        let sym = self.symbols.intern(tag);
        let n = self.push_unlinked(XKind::Element(sym));
        self.link_first(parent, n);
        n
    }

    /// Inserts a new element right **after** `sibling`.
    pub fn insert_element_after(&mut self, sibling: NodeRef, tag: &str) -> NodeRef {
        let sym = self.symbols.intern(tag);
        let n = self.push_unlinked(XKind::Element(sym));
        self.link_after(sibling, n);
        n
    }

    /// Inserts a new text node as the **first** child of `parent`.
    pub fn insert_text_first(&mut self, parent: NodeRef, text: &str) -> NodeRef {
        let idx = self.texts.len() as u32;
        self.texts.push(text.to_owned());
        let n = self.push_unlinked(XKind::Text(idx));
        self.link_first(parent, n);
        n
    }

    /// Inserts a new text node right **after** `sibling`.
    pub fn insert_text_after(&mut self, sibling: NodeRef, text: &str) -> NodeRef {
        let idx = self.texts.len() as u32;
        self.texts.push(text.to_owned());
        let n = self.push_unlinked(XKind::Text(idx));
        self.link_after(sibling, n);
        n
    }

    /// Unlinks `node` (and its subtree) from the tree. The records remain
    /// in the arena but are unreachable from the root.
    ///
    /// # Panics
    /// Panics when detaching the root.
    pub fn detach(&mut self, node: NodeRef) {
        let parent = self.nodes[node.idx()]
            .parent
            .expect("cannot detach the root");
        let prev = self.nodes[node.idx()].prev_sibling;
        let next = self.nodes[node.idx()].next_sibling;
        match prev {
            Some(p) => self.nodes[p.idx()].next_sibling = next,
            None => self.nodes[parent.idx()].first_child = next,
        }
        match next {
            Some(x) => self.nodes[x.idx()].prev_sibling = prev,
            None => self.nodes[parent.idx()].last_child = prev,
        }
        let n = &mut self.nodes[node.idx()];
        n.parent = None;
        n.prev_sibling = None;
        n.next_sibling = None;
    }

    /// Replaces the content of a text node.
    ///
    /// # Panics
    /// Panics if `node` is not a text node.
    pub fn set_text(&mut self, node: NodeRef, text: &str) {
        match self.nodes[node.idx()].kind {
            XKind::Text(i) => self.texts[i as usize] = text.to_owned(),
            XKind::Element(_) => panic!("set_text on an element"),
        }
    }

    /// Appends an element child to `parent`.
    pub fn add_element(&mut self, parent: NodeRef, tag: &str) -> NodeRef {
        let sym = self.symbols.intern(tag);
        self.add_element_sym(parent, sym)
    }

    /// Appends an element child with an already-interned tag.
    pub fn add_element_sym(&mut self, parent: NodeRef, tag: Symbol) -> NodeRef {
        debug_assert!((tag.0 as usize) < self.symbols.len(), "foreign symbol");
        self.push_node(XKind::Element(tag), parent)
    }

    /// Appends a text child to `parent`.
    pub fn add_text(&mut self, parent: NodeRef, text: &str) -> NodeRef {
        let idx = self.texts.len() as u32;
        self.texts.push(text.to_owned());
        self.push_node(XKind::Text(idx), parent)
    }

    /// Sets an attribute on an element (attributes are carried as metadata,
    /// not as navigable children — the paper's model ignores them).
    pub fn set_attr(&mut self, node: NodeRef, name: &str, value: &str) {
        let sym = self.symbols.intern(name);
        let n = &mut self.nodes[node.idx()];
        debug_assert!(matches!(n.kind, XKind::Element(_)), "attr on non-element");
        n.attrs
            .get_or_insert_with(Default::default)
            .push((sym, value.to_owned()));
    }

    /// The node's kind.
    #[inline]
    pub fn kind(&self, node: NodeRef) -> XKind {
        self.nodes[node.idx()].kind
    }

    /// The tag symbol if `node` is an element.
    #[inline]
    pub fn tag(&self, node: NodeRef) -> Option<Symbol> {
        match self.nodes[node.idx()].kind {
            XKind::Element(s) => Some(s),
            XKind::Text(_) => None,
        }
    }

    /// The tag name if `node` is an element.
    pub fn tag_name(&self, node: NodeRef) -> Option<&str> {
        self.tag(node).map(|s| self.symbols.name(s))
    }

    /// The text payload if `node` is a text node.
    pub fn text(&self, node: NodeRef) -> Option<&str> {
        match self.nodes[node.idx()].kind {
            XKind::Text(i) => Some(&self.texts[i as usize]),
            XKind::Element(_) => None,
        }
    }

    /// True if `node` is an element.
    #[inline]
    pub fn is_element(&self, node: NodeRef) -> bool {
        matches!(self.nodes[node.idx()].kind, XKind::Element(_))
    }

    /// Attributes of an element (empty slice if none).
    pub fn attrs(&self, node: NodeRef) -> &[(Symbol, String)] {
        self.nodes[node.idx()]
            .attrs
            .as_deref()
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Parent link.
    #[inline]
    pub fn parent(&self, node: NodeRef) -> Option<NodeRef> {
        self.nodes[node.idx()].parent
    }

    /// First child link.
    #[inline]
    pub fn first_child(&self, node: NodeRef) -> Option<NodeRef> {
        self.nodes[node.idx()].first_child
    }

    /// Last child link.
    #[inline]
    pub fn last_child(&self, node: NodeRef) -> Option<NodeRef> {
        self.nodes[node.idx()].last_child
    }

    /// Next sibling link.
    #[inline]
    pub fn next_sibling(&self, node: NodeRef) -> Option<NodeRef> {
        self.nodes[node.idx()].next_sibling
    }

    /// Previous sibling link.
    #[inline]
    pub fn prev_sibling(&self, node: NodeRef) -> Option<NodeRef> {
        self.nodes[node.idx()].prev_sibling
    }

    /// Iterates the children of `node` in document order.
    pub fn children(&self, node: NodeRef) -> impl Iterator<Item = NodeRef> + '_ {
        std::iter::successors(self.first_child(node), move |&n| self.next_sibling(n))
    }

    /// Iterates `node`'s subtree in document (pre-)order, including `node`.
    pub fn descendants_or_self(&self, node: NodeRef) -> PreorderIter<'_> {
        PreorderIter {
            doc: self,
            stack: vec![node],
        }
    }

    /// Iterates `node`'s proper descendants in document order.
    pub fn descendants(&self, node: NodeRef) -> impl Iterator<Item = NodeRef> + '_ {
        let mut it = self.descendants_or_self(node);
        it.next(); // drop self
        it
    }

    /// Computes each node's preorder rank (document order key). Index by
    /// `NodeRef.0`.
    pub fn preorder_ranks(&self) -> Vec<u64> {
        let mut ranks = vec![0u64; self.nodes.len()];
        for (i, n) in self.descendants_or_self(self.root).enumerate() {
            ranks[n.idx()] = i as u64;
        }
        ranks
    }

    /// Number of element nodes.
    pub fn element_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, XKind::Element(_)))
            .count()
    }

    /// Structural + label equality (ignores symbol numbering differences and
    /// attribute order). Node pairs still to compare wait on an explicit
    /// stack, so the nesting depth is bounded by memory, not by the
    /// thread's stack.
    pub fn logically_equal(&self, other: &Document) -> bool {
        let mut pending = vec![(self.root, other.root)];
        while let Some((an, bn)) = pending.pop() {
            let same = match (self.kind(an), other.kind(bn)) {
                (XKind::Element(_), XKind::Element(_)) => {
                    self.tag_name(an) == other.tag_name(bn)
                        && self.sorted_attrs(an) == other.sorted_attrs(bn)
                        && self.children(an).count() == other.children(bn).count()
                }
                (XKind::Text(_), XKind::Text(_)) => self.text(an) == other.text(bn),
                _ => false,
            };
            if !same {
                return false;
            }
            pending.extend(self.children(an).zip(other.children(bn)));
        }
        true
    }

    /// `node`'s attributes as sorted `(name, value)` pairs.
    fn sorted_attrs(&self, node: NodeRef) -> Vec<(&str, &str)> {
        let mut attrs: Vec<(&str, &str)> = self
            .attrs(node)
            .iter()
            .map(|(s, v)| (self.symbols.name(*s), v.as_str()))
            .collect();
        attrs.sort_unstable();
        attrs
    }
}

/// Document-order iterator over a subtree.
pub struct PreorderIter<'a> {
    doc: &'a Document,
    stack: Vec<NodeRef>,
}

impl Iterator for PreorderIter<'_> {
    type Item = NodeRef;

    fn next(&mut self) -> Option<NodeRef> {
        let n = self.stack.pop()?;
        // Push children in reverse so the first child pops first.
        let mut kids: Vec<NodeRef> = self.doc.children(n).collect();
        kids.reverse();
        self.stack.extend(kids);
        Some(n)
    }
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn sample() -> Document {
        // <a><b>t1</b><c><d/>t2</c></a>
        let mut d = Document::new("a");
        let b = d.add_element(d.root(), "b");
        d.add_text(b, "t1");
        let c = d.add_element(d.root(), "c");
        d.add_element(c, "d");
        d.add_text(c, "t2");
        d
    }

    #[test]
    fn links_are_consistent() {
        let d = sample();
        let root = d.root();
        let kids: Vec<_> = d.children(root).collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(d.tag_name(kids[0]), Some("b"));
        assert_eq!(d.tag_name(kids[1]), Some("c"));
        assert_eq!(d.parent(kids[0]), Some(root));
        assert_eq!(d.prev_sibling(kids[1]), Some(kids[0]));
        assert_eq!(d.next_sibling(kids[0]), Some(kids[1]));
        assert_eq!(d.first_child(root), Some(kids[0]));
        assert_eq!(d.last_child(root), Some(kids[1]));
    }

    #[test]
    fn preorder_visits_document_order() {
        let d = sample();
        let tags: Vec<String> = d
            .descendants_or_self(d.root())
            .map(|n| {
                d.tag_name(n)
                    .map(str::to_owned)
                    .unwrap_or_else(|| format!("#{}", d.text(n).unwrap()))
            })
            .collect();
        assert_eq!(tags, vec!["a", "b", "#t1", "c", "d", "#t2"]);
    }

    #[test]
    fn preorder_ranks_increase_in_document_order() {
        let d = sample();
        let ranks = d.preorder_ranks();
        let order: Vec<u64> = d
            .descendants_or_self(d.root())
            .map(|n| ranks[n.0 as usize])
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn descendants_excludes_self() {
        let d = sample();
        assert_eq!(d.descendants(d.root()).count(), 5);
    }

    #[test]
    fn text_and_tag_accessors() {
        let d = sample();
        let b = d.children(d.root()).next().unwrap();
        let t = d.first_child(b).unwrap();
        assert!(d.is_element(b));
        assert!(!d.is_element(t));
        assert_eq!(d.text(t), Some("t1"));
        assert_eq!(d.tag(t), None);
        assert_eq!(d.text(b), None);
    }

    #[test]
    fn attrs_roundtrip() {
        let mut d = Document::new("a");
        let b = d.add_element(d.root(), "b");
        d.set_attr(b, "id", "x1");
        d.set_attr(b, "class", "y");
        let attrs = d.attrs(b);
        assert_eq!(attrs.len(), 2);
        assert_eq!(d.symbols().name(attrs[0].0), "id");
        assert_eq!(attrs[0].1, "x1");
        assert!(d.attrs(d.root()).is_empty());
    }

    #[test]
    fn logically_equal_detects_differences() {
        let a = sample();
        let b = sample();
        assert!(a.logically_equal(&b));
        let mut c = sample();
        c.add_element(c.root(), "extra");
        assert!(!a.logically_equal(&c));
    }

    #[test]
    fn insert_first_and_after() {
        let mut d = Document::new("r");
        let b = d.add_element(d.root(), "b");
        let a = d.insert_element_first(d.root(), "a");
        let c = d.insert_element_after(b, "c");
        let tags: Vec<_> = d
            .children(d.root())
            .map(|n| d.tag_name(n).unwrap())
            .collect();
        assert_eq!(tags, vec!["a", "b", "c"]);
        assert_eq!(d.prev_sibling(b), Some(a));
        assert_eq!(d.next_sibling(b), Some(c));
        assert_eq!(d.last_child(d.root()), Some(c));
        d.insert_text_after(c, "tail");
        assert_eq!(d.children(d.root()).count(), 4);
        d.insert_text_first(a, "head");
        assert_eq!(
            d.first_child(a).and_then(|t| d.text(t).map(str::to_owned)),
            Some("head".into())
        );
    }

    #[test]
    fn detach_unlinks_subtree() {
        let mut d = sample();
        let b = d.children(d.root()).next().unwrap();
        d.detach(b);
        let tags: Vec<_> = d
            .children(d.root())
            .map(|n| d.tag_name(n).unwrap())
            .collect();
        assert_eq!(tags, vec!["c"]);
        assert_eq!(d.descendants_or_self(d.root()).count(), 4);
    }

    #[test]
    fn set_text_replaces_content() {
        let mut d = Document::new("r");
        let t = d.add_text(d.root(), "old");
        d.set_text(t, "new");
        assert_eq!(d.text(t), Some("new"));
    }

    #[test]
    fn element_count_ignores_text() {
        let d = sample();
        assert_eq!(d.element_count(), 4);
        assert_eq!(d.len(), 6);
    }
}
