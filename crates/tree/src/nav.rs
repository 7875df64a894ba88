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
//! A `StepCursor` walks subtrees (descendant axes; the sibling subtrees of
//! following / preceding) in preorder over the cluster's own child, sibling
//! and parent links, without a stack, so it never touches the allocator.

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
    /// Parent-chain walk (parent / ancestor / ancestor-or-self).
    Up {
        cur: Option<u16>,
        single: bool,
    },
    /// Document-order walk: the subtree `sub`, then (following / preceding)
    /// for each ancestor-or-self, the subtrees of its siblings on one side.
    /// The descendant axes walk `sub` alone.
    Walk {
        /// The subtree currently being emitted.
        sub: Subtree,
        /// Next sibling position in the current chain.
        chain: Option<u16>,
        /// Node whose parent we climb to when the chain ends.
        climb: Option<u16>,
        /// true = following (next siblings), false = preceding.
        forward: bool,
    },
}

/// A preorder walk over the subtree of `root` that follows the cluster's
/// own links instead of keeping a stack; `next` is the node to emit next.
#[derive(Debug, Clone, Copy, Default)]
struct Subtree {
    next: Option<u16>,
    root: u16,
}

impl Subtree {
    /// `root` and its descendants.
    fn of(root: u16) -> Self {
        Self {
            next: Some(root),
            root,
        }
    }

    /// The descendants of `root`, without `root` itself.
    fn below(cluster: &Cluster, root: u16) -> Self {
        Self {
            next: cluster.node(root).first_child,
            root,
        }
    }

    /// Moves past `s`: to its first child unless it is a `BorderDown`
    /// (whose subtree is remote), else to the next sibling of the nearest
    /// ancestor-or-self of `s` below `root`.
    ///
    /// The climb is the one loop here that charges no visit. In a tree it
    /// meets each ancestor once, so it ends within `len` steps; the bound
    /// ends a climb round a parent-link cycle, which decode does not reject.
    fn advance(&mut self, cluster: &Cluster, mut s: u16) {
        let node = cluster.node(s);
        if !matches!(node.kind, NodeKind::BorderDown { .. }) && node.first_child.is_some() {
            self.next = node.first_child;
            return;
        }
        self.next = None;
        for _ in 0..cluster.len() {
            let node = cluster.node(s);
            match (s == self.root, node.next_sibling, node.parent) {
                (false, Some(n), _) => {
                    self.next = Some(n);
                    return;
                }
                (false, None, Some(p)) => s = p,
                _ => return,
            }
        }
    }
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

    /// A walk over `sub` alone.
    fn subtree(sub: Subtree) -> State {
        State::Walk {
            sub,
            chain: None,
            climb: None,
            forward: true,
        }
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
            Axis::Descendant => Self::subtree(Subtree::below(cluster, slot)),
            Axis::DescendantOrSelf => Self::subtree(Subtree::of(slot)),
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
                sub: Subtree::default(),
                chain: node.next_sibling,
                climb: Some(slot),
                forward: true,
            },
            Axis::Preceding => State::Walk {
                sub: Subtree::default(),
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
            Axis::Descendant | Axis::DescendantOrSelf => {
                Self::subtree(Subtree::below(cluster, slot))
            }
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
                    Self::subtree(Subtree::below(cluster, slot))
                } else {
                    // Continue the document-order walk from the BorderDown
                    // proxy's structural position in this cluster.
                    let chain = if axis == Axis::Following {
                        node.next_sibling
                    } else {
                        node.prev_sibling
                    };
                    State::Walk {
                        sub: Subtree::default(),
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
                State::Walk {
                    sub,
                    chain,
                    climb,
                    forward,
                } => {
                    if let Some(s) = sub.next {
                        sub.advance(&self.cluster, s);
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
                            _ => *sub = Subtree::of(s),
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
    use crate::node::{Node, Span};
    use crate::store::TreeStore;
    use pathix_storage::{BufferParams, MemDevice};
    use pathix_xml::Document;
    use pathix_xpath::eval::eval_path;
    use pathix_xpath::{LocationPath, Step};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
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

    /// The stack-based subtree walk `StepCursor` used before its walks
    /// became stackless, kept as the reference for
    /// `subtree_walks_match_stack_reference` (descendant, descendant-or-self,
    /// following and preceding only).
    struct StackWalk {
        cluster: Arc<Cluster>,
        test: ResolvedTest,
        /// Preorder stack of the subtree being emitted (next on top).
        dfs: Vec<u16>,
        chain: Option<u16>,
        climb: Option<u16>,
        forward: bool,
    }

    impl StackWalk {
        fn new(cluster: Arc<Cluster>, entry: Entry, axis: Axis, test: ResolvedTest) -> Self {
            let children_rev = |slot: u16| {
                let mut kids = Vec::new();
                let mut cur = cluster.node(slot).first_child;
                while let Some(s) = cur {
                    kids.push(s);
                    cur = cluster.node(s).next_sibling;
                }
                kids.reverse();
                kids
            };
            let forward = axis == Axis::Following;
            let (dfs, chain, climb) = match (entry, axis) {
                (Entry::Fresh(slot), Axis::Descendant) => (children_rev(slot), None, None),
                (Entry::Fresh(slot), Axis::DescendantOrSelf) => (vec![slot], None, None),
                (Entry::Resume(slot), Axis::Descendant | Axis::DescendantOrSelf) => {
                    (children_rev(slot), None, None)
                }
                (Entry::Resume(slot), _)
                    if matches!(cluster.node(slot).kind, NodeKind::BorderUp { .. }) =>
                {
                    (children_rev(slot), None, None)
                }
                (Entry::Fresh(slot) | Entry::Resume(slot), Axis::Following | Axis::Preceding) => {
                    let node = cluster.node(slot);
                    let chain = if forward {
                        node.next_sibling
                    } else {
                        node.prev_sibling
                    };
                    (Vec::new(), chain, Some(slot))
                }
                _ => unreachable!("StackWalk covers subtree-walking axes only"),
            };
            Self {
                cluster,
                test,
                dfs,
                chain,
                climb,
                forward,
            }
        }

        fn next(&mut self, charge: &NavCharge<'_>) -> Option<StepItem> {
            let cluster = Arc::clone(&self.cluster);
            loop {
                if let Some(s) = self.dfs.pop() {
                    let node = cluster.node(s);
                    charge.visit();
                    if let NodeKind::BorderDown { target } = node.kind {
                        charge.border();
                        return Some(StepItem::Border {
                            proxy: cluster.id(s),
                            target,
                        });
                    }
                    let mut kid = node.first_child;
                    let at = self.dfs.len();
                    while let Some(k) = kid {
                        self.dfs.insert(at, k);
                        kid = cluster.node(k).next_sibling;
                    }
                    charge.test();
                    if self.test.matches(&node.kind) {
                        return Some(StepItem::Match {
                            id: cluster.id(s),
                            order: node.order,
                        });
                    }
                } else if let Some(s) = self.chain {
                    let node = cluster.node(s);
                    charge.visit();
                    self.chain = if self.forward {
                        node.next_sibling
                    } else {
                        node.prev_sibling
                    };
                    if let NodeKind::BorderDown { target } = node.kind {
                        charge.border();
                        return Some(StepItem::Border {
                            proxy: cluster.id(s),
                            target,
                        });
                    }
                    self.dfs.push(s);
                } else if let Some(c) = self.climb {
                    let p = cluster.node(c).parent?;
                    let pnode = cluster.node(p);
                    charge.visit();
                    if let NodeKind::BorderUp { target } = pnode.kind {
                        charge.border();
                        self.climb = None;
                        return Some(StepItem::Border {
                            proxy: cluster.id(p),
                            target,
                        });
                    }
                    self.chain = if self.forward {
                        pnode.next_sibling
                    } else {
                        pnode.prev_sibling
                    };
                    self.climb = Some(p);
                } else {
                    return None;
                }
            }
        }
    }

    /// A seeded document with one element of 240 children and a chain 120
    /// deep, around randomly shaped subtrees.
    fn walk_doc(seed: u64) -> Document {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Document::new("r");
        let mut open = vec![d.root()];
        for i in 0..400 {
            let parent = open[rng.random_range(0..open.len())];
            if rng.random_bool(0.3) {
                d.add_text(parent, "some text");
            } else {
                let tag = ["a", "b", "c"][i % 3];
                open.push(d.add_element(parent, tag));
            }
        }
        let wide = d.add_element(open[rng.random_range(0..open.len())], "w");
        for i in 0..240 {
            let kid = d.add_element(wide, if i % 2 == 0 { "b" } else { "c" });
            if i % 7 == 0 {
                d.add_text(kid, "x");
            }
        }
        let mut deep = d.add_element(open[rng.random_range(0..open.len())], "deep");
        for i in 0..120 {
            deep = d.add_element(deep, if i % 3 == 0 { "b" } else { "a" });
            if i % 10 == 0 {
                d.add_text(deep, "y");
            }
        }
        d
    }

    /// Runs one walk through `StackWalk` and `StepCursor`; both must yield
    /// the same items and charge the same visits, tests and borders.
    fn assert_same_walk(cluster: &Arc<Cluster>, entry: Entry, axis: Axis, test: &ResolvedTest) {
        let clock = SimClock::new();
        let (want_n, got_n) = (NavCounters::default(), NavCounters::default());
        let (want_c, got_c) = (charge_ctx(&clock, &want_n), charge_ctx(&clock, &got_n));
        let mut reference = StackWalk::new(Arc::clone(cluster), entry, axis, test.clone());
        let want: Vec<_> = std::iter::from_fn(|| reference.next(&want_c)).collect();
        let mut cursor = StepCursor::new(Arc::clone(cluster), entry, axis, test.clone());
        let got: Vec<_> = std::iter::from_fn(|| cursor.next(&got_c)).collect();
        let at = format!("{axis:?} {test:?} from {entry:?} on page {}", cluster.page);
        assert_eq!(got, want, "{at}");
        let counts = |n: &NavCounters| (n.nodes_visited.get(), n.node_tests.get(), n.borders.get());
        assert_eq!(
            counts(&got_n),
            counts(&want_n),
            "{at}: visits, tests, borders"
        );
    }

    #[test]
    fn subtree_walks_match_stack_reference() {
        let doc = walk_doc(0x5EED);
        let axes = [
            Axis::Descendant,
            Axis::DescendantOrSelf,
            Axis::Following,
            Axis::Preceding,
        ];
        let mut widest = 0;
        for page_size in [256, 512, 8192] {
            for placement in [Placement::Sequential, Placement::Shuffled { seed: 11 }] {
                let store = store_for(&doc, page_size, placement);
                let name_b =
                    ResolvedTest::resolve(&NodeTest::Name("b".into()), &store.meta.symbols);
                for page in store.meta.page_range() {
                    let cluster = store.fix(page);
                    for (slot, node) in cluster.nodes.iter().enumerate() {
                        let slot = slot as u16;
                        let entry = match node.kind {
                            NodeKind::Free => continue,
                            k if k.is_border() => Entry::Resume(slot),
                            _ => Entry::Fresh(slot),
                        };
                        let kids = cluster.nodes.iter().filter(|n| n.parent == Some(slot));
                        widest = widest.max(kids.count());
                        for axis in axes {
                            for test in [&name_b, &ResolvedTest::AnyNode] {
                                assert_same_walk(&cluster, entry, axis, test);
                            }
                        }
                    }
                }
            }
        }
        assert!(widest >= 200, "no cluster held the wide node's children");
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
    fn subtree_climb_ends_on_a_parent_cycle() {
        // 0 ─ 1 ─ 2, but 1's parent link points back down at 2: the climb
        // out of 2 (no child, no sibling) would go round 2 → 1 → 2 forever.
        let link = |parent, first_child| Node {
            kind: NodeKind::elem(Symbol(0)),
            parent,
            first_child,
            ..Node::FREE
        };
        let mut cluster = Cluster::new(0);
        cluster.nodes = vec![
            link(None, Some(1)),
            link(Some(2), Some(2)),
            link(Some(1), None),
        ];
        let clock = SimClock::new();
        let counters = NavCounters::default();
        let charge = charge_ctx(&clock, &counters);
        let mut c = StepCursor::new(
            Arc::new(cluster),
            Entry::Fresh(0),
            Axis::Descendant,
            ResolvedTest::AnyNode,
        );
        let got: Vec<_> = std::iter::from_fn(|| c.next(&charge)).collect();
        assert_eq!(got.len(), 2, "1 and 2, then the walk ends: {got:?}");
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
