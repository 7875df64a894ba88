//! Navigational primitives (§3.5): per-axis cursors over the stored tree.
//!
//! [`StepCursor`] enumerates the nodes reachable along one XPath axis *using
//! intra-cluster edges only*. Whenever the traversal would cross a cluster
//! boundary it yields the border node instead ([`StepItem::Border`]); the
//! caller may later *resume* the step from the companion proxy in the target
//! cluster ([`Entry::Resume`]). This deferred crossing is exactly what the
//! physical algebra's right-incomplete path instances represent.
//!
//! [`FullCursor`] is the contrasting primitive used by the paper's baseline
//! "Simple" method and fallback mode: it crosses borders eagerly by fixing
//! the target page through the buffer manager (synchronous, possibly random
//! I/O in the middle of a step).
//!
//! All cursors charge per-node CPU costs to the shared clock through
//! [`NavCharge`], so the cost model sees every visited node and node test.

use crate::node::{Cluster, NodeId, NodeKind};
use crate::store::TreeStore;
use pathix_storage::SimClock;
use pathix_xml::{Symbol, SymbolTable};
use pathix_xpath::{Axis, NodeTest};
use std::cell::Cell;
use std::sync::Arc;

/// CPU cost parameters for navigation.
#[derive(Debug, Clone, Copy)]
pub struct NavParams {
    /// Cost of touching one stored node (pointer chase + header decode).
    pub visit_ns: u64,
    /// Cost of one node test.
    pub test_ns: u64,
}

impl Default for NavParams {
    fn default() -> Self {
        Self {
            visit_ns: 1_000,
            test_ns: 350,
        }
    }
}

/// Counters shared by all cursors of one execution.
#[derive(Debug, Default)]
pub struct NavCounters {
    /// Stored nodes touched.
    pub nodes_visited: Cell<u64>,
    /// Node tests evaluated.
    pub node_tests: Cell<u64>,
    /// Border nodes yielded.
    pub borders: Cell<u64>,
}

/// Charging context handed to every cursor call.
pub struct NavCharge<'a> {
    /// The shared simulated clock.
    pub clock: &'a SimClock,
    /// Cost parameters.
    pub params: NavParams,
    /// Shared counters.
    pub counters: &'a NavCounters,
}

impl NavCharge<'_> {
    #[inline]
    fn visit(&self) {
        self.counters
            .nodes_visited
            .set(self.counters.nodes_visited.get() + 1);
        self.clock.charge_cpu(self.params.visit_ns);
    }

    #[inline]
    fn test(&self) {
        self.counters
            .node_tests
            .set(self.counters.node_tests.get() + 1);
        self.clock.charge_cpu(self.params.test_ns);
    }

    #[inline]
    fn border(&self) {
        self.counters.borders.set(self.counters.borders.get() + 1);
    }
}

/// A node test resolved against a document's symbol table, so matching is a
/// symbol comparison instead of a string comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolvedTest {
    /// Tag test; `None` if the name does not occur in the document (never
    /// matches).
    Name(Option<Symbol>),
    /// Any element.
    AnyElement,
    /// Any core node.
    AnyNode,
    /// Text nodes only.
    Text,
}

impl ResolvedTest {
    /// Resolves `test` against `symbols`.
    pub fn resolve(test: &NodeTest, symbols: &SymbolTable) -> Self {
        match test {
            NodeTest::Name(n) => ResolvedTest::Name(symbols.lookup(n)),
            NodeTest::AnyElement => ResolvedTest::AnyElement,
            NodeTest::AnyNode => ResolvedTest::AnyNode,
            NodeTest::Text => ResolvedTest::Text,
        }
    }

    /// Whether a core node of `kind` passes the test. Border nodes never
    /// match (their content is remote).
    pub fn matches(&self, kind: &NodeKind) -> bool {
        match (self, kind) {
            (ResolvedTest::Name(Some(sym)), NodeKind::Element { tag, .. }) => sym == tag,
            (ResolvedTest::Name(_), _) => false,
            (ResolvedTest::AnyElement, NodeKind::Element { .. }) => true,
            (ResolvedTest::AnyElement, _) => false,
            (ResolvedTest::AnyNode, k) => k.is_core(),
            (ResolvedTest::Text, NodeKind::Text(_)) => true,
            (ResolvedTest::Text, _) => false,
        }
    }
}

/// One item produced by a step cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepItem {
    /// A core node passing the node test.
    Match {
        /// The node's id.
        id: NodeId,
        /// Its document-order key.
        order: u64,
    },
    /// Navigation stopped at a border; the step may be resumed from
    /// `target` once its cluster is loaded.
    Border {
        /// The border node encountered in this cluster.
        proxy: NodeId,
        /// Its companion in the target cluster (the paper's `target(x)`).
        target: NodeId,
    },
}

/// How a cursor enters a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// Start a step at a core context node in this cluster.
    Fresh(u16),
    /// Continue an interrupted step at a border proxy in this cluster
    /// (the companion of the border where navigation stopped).
    Resume(u16),
}

#[derive(Debug)]
enum State {
    Done,
    SelfPending(u16),
    /// Sibling-chain walk (child / following- / preceding-sibling).
    Chain {
        cur: Option<u16>,
        forward: bool,
        /// If the chain's parent is a `BorderUp`, the chain may continue in
        /// the companion cluster: emit this border when the chain ends.
        end_border: Option<u16>,
    },
    /// Depth-first walk (descendant / descendant-or-self).
    Dfs {
        stack: Vec<u16>,
    },
    /// Parent-chain walk (parent / ancestor / ancestor-or-self).
    Up {
        cur: Option<u16>,
        single: bool,
    },
    /// Document-order walk (following / preceding): for each
    /// ancestor-or-self, the subtrees of its siblings on one side.
    Walk {
        /// DFS stack of the sibling subtree currently being emitted.
        dfs: Vec<u16>,
        /// Next sibling position in the current chain.
        chain: Option<u16>,
        /// Node whose parent we climb to when the chain ends.
        climb: Option<u16>,
        /// true = following (next siblings), false = preceding.
        forward: bool,
    },
}

/// Intra-cluster navigation cursor for one (axis, node-test) step.
#[derive(Debug)]
pub struct StepCursor {
    cluster: Arc<Cluster>,
    test: ResolvedTest,
    state: State,
}

impl StepCursor {
    /// Creates a cursor for `axis`/`test` entering the cluster at `entry`.
    pub fn new(cluster: Arc<Cluster>, entry: Entry, axis: Axis, test: ResolvedTest) -> Self {
        let state = match entry {
            Entry::Fresh(slot) => Self::fresh_state(&cluster, slot, axis),
            Entry::Resume(slot) => Self::resume_state(&cluster, slot, axis),
        };
        Self {
            cluster,
            test,
            state,
        }
    }

    /// `end_border` helper: the chain continues remotely iff its parent is a
    /// `BorderUp` proxy.
    fn chain_end(cluster: &Cluster, parent: Option<u16>) -> Option<u16> {
        parent.filter(|&p| matches!(cluster.node(p).kind, NodeKind::BorderUp { .. }))
    }

    fn children_rev(cluster: &Cluster, slot: u16) -> Vec<u16> {
        let mut kids = Vec::new();
        let mut cur = cluster.node(slot).first_child;
        while let Some(s) = cur {
            kids.push(s);
            cur = cluster.node(s).next_sibling;
        }
        kids.reverse();
        kids
    }

    fn fresh_state(cluster: &Cluster, slot: u16, axis: Axis) -> State {
        let node = cluster.node(slot);
        match axis {
            Axis::SelfAxis => State::SelfPending(slot),
            Axis::Child => State::Chain {
                cur: node.first_child,
                forward: true,
                end_border: Self::chain_end(cluster, Some(slot)),
            },
            Axis::Descendant => State::Dfs {
                stack: Self::children_rev(cluster, slot),
            },
            Axis::DescendantOrSelf => State::Dfs { stack: vec![slot] },
            Axis::Parent => State::Up {
                cur: node.parent,
                single: true,
            },
            Axis::Ancestor => State::Up {
                cur: node.parent,
                single: false,
            },
            Axis::AncestorOrSelf => State::Up {
                cur: Some(slot),
                single: false,
            },
            Axis::FollowingSibling => State::Chain {
                cur: node.next_sibling,
                forward: true,
                end_border: Self::chain_end(cluster, node.parent),
            },
            Axis::PrecedingSibling => State::Chain {
                cur: node.prev_sibling,
                forward: false,
                end_border: Self::chain_end(cluster, node.parent),
            },
            Axis::Following => State::Walk {
                dfs: Vec::new(),
                chain: node.next_sibling,
                climb: Some(slot),
                forward: true,
            },
            Axis::Preceding => State::Walk {
                dfs: Vec::new(),
                chain: node.prev_sibling,
                climb: Some(slot),
                forward: false,
            },
        }
    }

    fn resume_state(cluster: &Cluster, slot: u16, axis: Axis) -> State {
        let node = cluster.node(slot);
        debug_assert!(node.kind.is_border(), "resume entry must be a proxy");
        let is_up_proxy = matches!(node.kind, NodeKind::BorderUp { .. });
        match axis {
            // `self` never crosses clusters; a speculative instance entering
            // here is dead.
            Axis::SelfAxis => State::Done,
            // The proxy stands at the position of the remote context: its
            // children are the deferred child entries.
            Axis::Child => State::Chain {
                cur: node.first_child,
                forward: true,
                end_border: Self::chain_end(cluster, Some(slot)),
            },
            Axis::Descendant | Axis::DescendantOrSelf => State::Dfs {
                stack: Self::children_rev(cluster, slot),
            },
            Axis::Parent => State::Up {
                cur: node.parent,
                single: true,
            },
            Axis::Ancestor | Axis::AncestorOrSelf => State::Up {
                cur: node.parent,
                single: false,
            },
            Axis::Following | Axis::Preceding => {
                if is_up_proxy {
                    // Descend into the continuation group: every subtree of
                    // the proxy's children lies on the requested side.
                    State::Walk {
                        dfs: Self::children_rev(cluster, slot),
                        chain: None,
                        climb: None,
                        forward: axis == Axis::Following,
                    }
                } else {
                    // Continue the document-order walk from the BorderDown
                    // proxy's structural position in this cluster.
                    let chain = if axis == Axis::Following {
                        node.next_sibling
                    } else {
                        node.prev_sibling
                    };
                    State::Walk {
                        dfs: Vec::new(),
                        chain,
                        climb: Some(slot),
                        forward: axis == Axis::Following,
                    }
                }
            }
            Axis::FollowingSibling | Axis::PrecedingSibling => {
                if is_up_proxy {
                    // Descend into the continuation group: all of the
                    // proxy's children are siblings on the requested side.
                    State::Chain {
                        cur: node.first_child,
                        forward: true,
                        end_border: Self::chain_end(cluster, Some(slot)),
                    }
                } else {
                    // Continue the chain in the parent cluster from the
                    // BorderDown proxy's position.
                    let cur = if axis == Axis::FollowingSibling {
                        node.next_sibling
                    } else {
                        node.prev_sibling
                    };
                    State::Chain {
                        cur,
                        forward: axis == Axis::FollowingSibling,
                        end_border: Self::chain_end(cluster, node.parent),
                    }
                }
            }
        }
    }

    /// The cluster this cursor walks.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// Advances the cursor, returning the next match or border.
    pub fn next(&mut self, charge: &NavCharge<'_>) -> Option<StepItem> {
        loop {
            match &mut self.state {
                State::Done => return None,
                State::SelfPending(slot) => {
                    let slot = *slot;
                    self.state = State::Done;
                    let node = self.cluster.node(slot);
                    charge.visit();
                    charge.test();
                    if self.test.matches(&node.kind) {
                        return Some(StepItem::Match {
                            id: self.cluster.id(slot),
                            order: node.order,
                        });
                    }
                }
                State::Chain {
                    cur,
                    forward,
                    end_border,
                } => match *cur {
                    Some(s) => {
                        let node = self.cluster.node(s);
                        charge.visit();
                        *cur = if *forward {
                            node.next_sibling
                        } else {
                            node.prev_sibling
                        };
                        match &node.kind {
                            NodeKind::BorderDown { target } => {
                                charge.border();
                                return Some(StepItem::Border {
                                    proxy: self.cluster.id(s),
                                    target: *target,
                                });
                            }
                            kind => {
                                charge.test();
                                if self.test.matches(kind) {
                                    return Some(StepItem::Match {
                                        id: self.cluster.id(s),
                                        order: node.order,
                                    });
                                }
                            }
                        }
                    }
                    None => {
                        if let Some(p) = end_border.take() {
                            let node = self.cluster.node(p);
                            if let NodeKind::BorderUp { target } = node.kind {
                                charge.border();
                                self.state = State::Done;
                                return Some(StepItem::Border {
                                    proxy: self.cluster.id(p),
                                    target,
                                });
                            }
                        }
                        self.state = State::Done;
                    }
                },
                State::Dfs { stack } => match stack.pop() {
                    Some(s) => {
                        let node = self.cluster.node(s);
                        charge.visit();
                        match &node.kind {
                            NodeKind::BorderDown { target } => {
                                charge.border();
                                return Some(StepItem::Border {
                                    proxy: self.cluster.id(s),
                                    target: *target,
                                });
                            }
                            kind => {
                                // Push children (reverse for document order).
                                let mut kid = node.first_child;
                                let at = stack.len();
                                while let Some(k) = kid {
                                    stack.insert(at, k);
                                    kid = self.cluster.node(k).next_sibling;
                                }
                                charge.test();
                                if self.test.matches(kind) {
                                    return Some(StepItem::Match {
                                        id: self.cluster.id(s),
                                        order: node.order,
                                    });
                                }
                            }
                        }
                    }
                    None => self.state = State::Done,
                },
                State::Walk {
                    dfs,
                    chain,
                    climb,
                    forward,
                } => {
                    if let Some(s) = dfs.pop() {
                        let node = self.cluster.node(s);
                        charge.visit();
                        match &node.kind {
                            NodeKind::BorderDown { target } => {
                                charge.border();
                                return Some(StepItem::Border {
                                    proxy: self.cluster.id(s),
                                    target: *target,
                                });
                            }
                            kind => {
                                let mut kid = node.first_child;
                                let at = dfs.len();
                                while let Some(k) = kid {
                                    dfs.insert(at, k);
                                    kid = self.cluster.node(k).next_sibling;
                                }
                                charge.test();
                                if self.test.matches(kind) {
                                    return Some(StepItem::Match {
                                        id: self.cluster.id(s),
                                        order: node.order,
                                    });
                                }
                            }
                        }
                    } else if let Some(s) = *chain {
                        let node = self.cluster.node(s);
                        charge.visit();
                        *chain = if *forward {
                            node.next_sibling
                        } else {
                            node.prev_sibling
                        };
                        match &node.kind {
                            NodeKind::BorderDown { target } => {
                                charge.border();
                                return Some(StepItem::Border {
                                    proxy: self.cluster.id(s),
                                    target: *target,
                                });
                            }
                            _ => dfs.push(s),
                        }
                    } else if let Some(c) = *climb {
                        match self.cluster.node(c).parent {
                            None => self.state = State::Done,
                            Some(p) => {
                                let pnode = self.cluster.node(p);
                                charge.visit();
                                match &pnode.kind {
                                    NodeKind::BorderUp { target } => {
                                        charge.border();
                                        let target = *target;
                                        self.state = State::Done;
                                        return Some(StepItem::Border {
                                            proxy: self.cluster.id(p),
                                            target,
                                        });
                                    }
                                    _ => {
                                        *chain = if *forward {
                                            pnode.next_sibling
                                        } else {
                                            pnode.prev_sibling
                                        };
                                        *climb = Some(p);
                                    }
                                }
                            }
                        }
                    } else {
                        self.state = State::Done;
                    }
                }
                State::Up { cur, single } => match *cur {
                    Some(s) => {
                        let node = self.cluster.node(s);
                        charge.visit();
                        match &node.kind {
                            NodeKind::BorderUp { target } => {
                                charge.border();
                                self.state = State::Done;
                                return Some(StepItem::Border {
                                    proxy: self.cluster.id(s),
                                    target: *target,
                                });
                            }
                            kind => {
                                *cur = if *single { None } else { node.parent };
                                charge.test();
                                if self.test.matches(kind) {
                                    return Some(StepItem::Match {
                                        id: self.cluster.id(s),
                                        order: node.order,
                                    });
                                }
                            }
                        }
                    }
                    None => self.state = State::Done,
                },
            }
        }
    }
}

/// Border-crossing cursor: evaluates a whole step across clusters by fixing
/// target pages synchronously — the navigation style of the paper's
/// baseline Simple method (and of fallback mode).
#[derive(Debug)]
pub struct FullCursor {
    axis: Axis,
    test: ResolvedTest,
    stack: Vec<StepCursor>,
}

impl FullCursor {
    /// Starts a full (border-crossing) step from the core node `context`.
    pub fn new(store: &TreeStore, context: NodeId, axis: Axis, test: ResolvedTest) -> Self {
        Self::with_entry(store, context, Entry::Fresh(context.slot), axis, test)
    }

    /// Starts a full step at an arbitrary entry (fresh context or border
    /// resume) — used by fallback mode to continue instances that were
    /// queued before the switch.
    pub fn with_entry(
        store: &TreeStore,
        at: NodeId,
        entry: Entry,
        axis: Axis,
        test: ResolvedTest,
    ) -> Self {
        // On a read failure the cursor starts exhausted; the store records
        // the error and the executor surfaces it after the plan winds down.
        let stack = match store.checked_fix(at.page) {
            Some(cluster) => vec![StepCursor::new(cluster, entry, axis, test.clone())],
            None => Vec::new(),
        };
        Self { axis, test, stack }
    }

    /// Advances to the next matching node, crossing borders via `store`.
    pub fn next(&mut self, store: &TreeStore, charge: &NavCharge<'_>) -> Option<(NodeId, u64)> {
        loop {
            let top = self.stack.last_mut()?;
            match top.next(charge) {
                Some(StepItem::Match { id, order }) => return Some((id, order)),
                Some(StepItem::Border { target, .. }) => {
                    // A failed border crossing exhausts the cursor; the
                    // store's recorded error reaches the executor.
                    let Some(cluster) = store.checked_fix(target.page) else {
                        self.stack.clear();
                        return None;
                    };
                    self.stack.push(StepCursor::new(
                        cluster,
                        Entry::Resume(target.slot),
                        self.axis,
                        self.test.clone(),
                    ));
                }
                None => {
                    self.stack.pop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::import::{import_into, ImportConfig, Placement};
    use crate::node::Span;
    use crate::store::TreeStore;
    use pathix_storage::{BufferParams, MemDevice};
    use pathix_xml::Document;
    use pathix_xpath::eval::eval_path;
    use pathix_xpath::{LocationPath, Step};
    use std::rc::Rc;

    fn store_for(doc: &Document, page_size: usize, placement: Placement) -> TreeStore {
        let mut dev = MemDevice::new(page_size);
        let cfg = ImportConfig {
            page_size,
            placement,
        };
        let (meta, _) = import_into(&mut dev, doc, &cfg).unwrap();
        TreeStore::open(
            Box::new(dev),
            meta,
            BufferParams {
                capacity: 64,
                ..Default::default()
            },
            Rc::new(SimClock::new()),
        )
    }

    fn charge_ctx<'a>(clock: &'a SimClock, counters: &'a NavCounters) -> NavCharge<'a> {
        NavCharge {
            clock,
            params: NavParams::default(),
            counters,
        }
    }

    /// Evaluates one full axis step with FullCursor and compares the order
    /// keys against the reference evaluator, for every element context.
    fn axis_equiv(doc: &Document, page_size: usize, axis: Axis, test: NodeTest) {
        let store = store_for(doc, page_size, Placement::Sequential);
        let ranks = doc.preorder_ranks();
        let clock = SimClock::new();
        let counters = NavCounters::default();
        let charge = charge_ctx(&clock, &counters);

        // Map rank -> stored NodeId by scanning all clusters.
        let mut rank_to_id = std::collections::HashMap::new();
        for p in store.meta.page_range() {
            let c = store.fix(p);
            for (slot, n) in c.nodes.iter().enumerate() {
                if n.kind.is_core() {
                    rank_to_id.insert(n.order, NodeId::new(p, slot as u16));
                }
            }
        }

        let resolved = ResolvedTest::resolve(&test, &store.meta.symbols);
        for ctx in doc.descendants_or_self(doc.root()) {
            if !doc.is_element(ctx) {
                continue;
            }
            let ctx_rank = crate::node::order_key(ranks[ctx.0 as usize]);
            let ctx_id = rank_to_id[&ctx_rank];
            let mut cursor = FullCursor::new(&store, ctx_id, axis, resolved.clone());
            let mut got: Vec<u64> = Vec::new();
            while let Some((_, order)) = cursor.next(&store, &charge) {
                got.push(order);
            }
            got.sort_unstable();
            let path = LocationPath::new(vec![Step::new(axis, test.clone())]);
            let mut want: Vec<u64> = eval_path(doc, ctx, &path)
                .into_iter()
                .map(|n| crate::node::order_key(ranks[n.0 as usize]))
                .collect();
            want.sort_unstable();
            assert_eq!(
                got, want,
                "axis {axis:?} test {test:?} mismatch at context rank {ctx_rank}"
            );
        }
    }

    fn fixture_doc() -> Document {
        // Deliberately bushy + deep so small pages force many borders.
        let mut d = Document::new("r");
        for i in 0..8 {
            let a = d.add_element(d.root(), "a");
            d.add_text(a, "one two three four five");
            for j in 0..6 {
                let b = d.add_element(a, if j % 2 == 0 { "b" } else { "c" });
                d.add_text(b, "lorem ipsum dolor sit amet");
                if i % 3 == 0 {
                    let e = d.add_element(b, "b");
                    d.add_element(e, "d");
                }
            }
        }
        d
    }

    #[test]
    fn all_axes_match_reference_on_split_store() {
        let doc = fixture_doc();
        for axis in Axis::ALL {
            axis_equiv(&doc, 256, axis, NodeTest::Name("b".into()));
            axis_equiv(&doc, 256, axis, NodeTest::AnyElement);
        }
    }

    #[test]
    fn node_and_text_tests_match_reference() {
        let doc = fixture_doc();
        for axis in [Axis::Child, Axis::Descendant, Axis::DescendantOrSelf] {
            axis_equiv(&doc, 256, axis, NodeTest::AnyNode);
            axis_equiv(&doc, 256, axis, NodeTest::Text);
        }
    }

    #[test]
    fn single_cluster_no_borders() {
        let doc = fixture_doc();
        let store = store_for(&doc, 1 << 15, Placement::Sequential);
        assert_eq!(store.meta.page_count, 1);
        let clock = SimClock::new();
        let counters = NavCounters::default();
        let charge = charge_ctx(&clock, &counters);
        let cluster = store.fix_node(store.root());
        let test = ResolvedTest::resolve(&NodeTest::AnyElement, &store.meta.symbols);
        let mut cursor = StepCursor::new(
            cluster,
            Entry::Fresh(store.root().slot),
            Axis::Descendant,
            test,
        );
        let mut matches = 0;
        while let Some(item) = cursor.next(&charge) {
            assert!(matches!(item, StepItem::Match { .. }));
            matches += 1;
        }
        assert_eq!(matches as u64, store.meta.element_count - 1);
        assert_eq!(counters.borders.get(), 0);
    }

    #[test]
    fn step_cursor_stops_at_borders() {
        let doc = fixture_doc();
        let store = store_for(&doc, 256, Placement::Sequential);
        assert!(store.meta.page_count > 1);
        let clock = SimClock::new();
        let counters = NavCounters::default();
        let charge = charge_ctx(&clock, &counters);
        let cluster = store.fix_node(store.root());
        let test = ResolvedTest::resolve(&NodeTest::AnyElement, &store.meta.symbols);
        let mut cursor = StepCursor::new(
            cluster.clone(),
            Entry::Fresh(store.root().slot),
            Axis::Descendant,
            test,
        );
        let mut borders = 0;
        while let Some(item) = cursor.next(&charge) {
            if let StepItem::Border { proxy, target } = item {
                borders += 1;
                // Proxy lives in this cluster, target elsewhere.
                assert_eq!(proxy.page, cluster.page);
                assert_ne!(target.page, cluster.page);
            }
        }
        assert!(borders > 0, "small pages must force borders");
        assert_eq!(counters.borders.get(), borders);
    }

    #[test]
    fn charges_cpu_per_visit() {
        let doc = fixture_doc();
        let store = store_for(&doc, 1 << 15, Placement::Sequential);
        let clock = SimClock::new();
        let counters = NavCounters::default();
        let charge = charge_ctx(&clock, &counters);
        let cluster = store.fix_node(store.root());
        let test = ResolvedTest::resolve(&NodeTest::AnyNode, &store.meta.symbols);
        let cpu0 = clock.cpu_ns();
        let mut cursor =
            StepCursor::new(cluster, Entry::Fresh(store.root().slot), Axis::Child, test);
        while cursor.next(&charge).is_some() {}
        let visited = counters.nodes_visited.get();
        assert!(visited > 0);
        assert_eq!(
            clock.cpu_ns() - cpu0,
            visited * NavParams::default().visit_ns
                + counters.node_tests.get() * NavParams::default().test_ns
        );
    }

    #[test]
    fn resolved_test_matching() {
        let mut table = SymbolTable::new();
        let a = table.intern("a");
        let t = ResolvedTest::resolve(&NodeTest::Name("a".into()), &table);
        assert!(t.matches(&NodeKind::elem(a)));
        assert!(!t.matches(&NodeKind::Text(Span::default())));
        let missing = ResolvedTest::resolve(&NodeTest::Name("zzz".into()), &table);
        assert_eq!(missing, ResolvedTest::Name(None));
        assert!(!missing.matches(&NodeKind::elem(a)));
        assert!(ResolvedTest::AnyNode.matches(&NodeKind::Text(Span::default())));
        assert!(!ResolvedTest::AnyNode.matches(&NodeKind::BorderDown {
            target: NodeId::new(0, 0)
        }));
        assert!(ResolvedTest::Text.matches(&NodeKind::Text(Span::default())));
        assert!(!ResolvedTest::Text.matches(&NodeKind::elem(a)));
    }

    #[test]
    fn shuffled_placement_same_results() {
        let doc = fixture_doc();
        for axis in [Axis::Descendant, Axis::Child, Axis::Ancestor] {
            let seq = store_for(&doc, 256, Placement::Sequential);
            let shuf = store_for(&doc, 256, Placement::Shuffled { seed: 5 });
            let clock = SimClock::new();
            let counters = NavCounters::default();
            let charge = charge_ctx(&clock, &counters);
            let test_a = ResolvedTest::resolve(&NodeTest::AnyElement, &seq.meta.symbols);
            let run = |store: &TreeStore| {
                let mut c = FullCursor::new(store, store.root(), axis, test_a.clone());
                let mut got = Vec::new();
                while let Some((_, order)) = c.next(store, &charge) {
                    got.push(order);
                }
                got.sort_unstable();
                got
            };
            assert_eq!(run(&seq), run(&shuf), "placement must not change results");
        }
    }
}
