//! `XStep` (paper §5.3.2): extends partial path instances by location
//! steps using **intra-cluster navigation only**.
//!
//! The paper's `XStep_i` processes instances whose right end was produced
//! by step `i − 1` (`S_R = i − 1`) and whose right end is swizzled (a
//! pinned cluster). For each such instance it enumerates the step's result
//! nodes within the current cluster:
//!
//! * a reachable core node passing the node test extends the instance
//!   (`S_R` becomes `i`),
//! * a border node interrupts the step: the instance is emitted
//!   right-incomplete (`S_R` stays `i − 1`, `N_R` is the border) and the
//!   enumeration continues — further intra-cluster results of the same
//!   context are still produced.
//!
//! One [`XStep`] plays every `XStep_i` of a path. It routes each instance
//! it receives straight to the step it applies to, `S_R + 1`; an instance
//! with a border end, or one that is already full, goes straight up to
//! `XAssembly` (it is completed via `XAssembly`/`XSchedule`). The pull
//! order is that of a chain of per-step operators: a step takes new input
//! only once its own cursor is exhausted. So the busy steps, one cursor
//! each, are consecutive, the highest of them runs, and the steps an
//! instance skips are idle.
//!
//! An unswizzled end gets a [`FullCursor`], which navigates across
//! borders with synchronous I/O and emits only complete extensions: the
//! nested Unnest-Map loops of the Simple method (§5.1). Every end of a
//! Simple plan is unswizzled (`ContextSource → XStep`), and in **fallback
//! mode** (§5.4.6) every end is treated as one, so a degraded plan runs
//! its steps as the Simple method does.

use crate::context::ExecCtx;
use crate::instance::{Pi, REnd};
use crate::ops::Operator;
use pathix_tree::{Entry, FullCursor, NodeId, ResolvedTest, StepCursor, StepItem};
use pathix_xpath::Axis;

enum Cursor {
    Intra(StepCursor),
    Full(FullCursor),
}

impl Cursor {
    /// The next item of step `i`: its `S_R` and right end.
    fn next(&mut self, cx: &ExecCtx<'_>, i: u16) -> Option<(u16, REnd)> {
        let charge = cx.nav_charge();
        Some(match self {
            Cursor::Intra(c) => match c.next(&charge)? {
                StepItem::Match { id, order } => {
                    let cluster = c.cluster().clone();
                    let slot = id.slot;
                    (
                        i,
                        REnd::Core {
                            cluster,
                            slot,
                            order,
                        },
                    )
                }
                StepItem::Border { proxy, target } => (i - 1, REnd::Border { proxy, target }),
            },
            Cursor::Full(c) => {
                let (id, order) = c.next(cx.store, &charge)?;
                (i, REnd::Done { id, order })
            }
        })
    }
}

/// A busy step `i`: the instance it extends and its cursor.
struct Busy {
    i: u16,
    sl: u16,
    nl: NodeId,
    li: bool,
    cursor: Cursor,
}

/// The navigation operator for all steps of a path.
pub struct XStep {
    producer: Box<dyn Operator>,
    /// `axis::test` of step `i` at index `i − 1`.
    steps: Vec<(Axis, ResolvedTest)>,
    /// The busy steps, lowest first; the last one runs.
    busy: Vec<Busy>,
}

impl XStep {
    /// Creates the operator for the path `steps` (`axis::test`, step 1
    /// first) on top of `producer`.
    pub fn new(producer: Box<dyn Operator>, steps: Vec<(Axis, ResolvedTest)>) -> Self {
        Self {
            producer,
            busy: Vec::with_capacity(steps.len()),
            steps,
        }
    }

    /// The producer's next instance.
    fn pull(&mut self, cx: &ExecCtx<'_>) -> Option<Pi> {
        let p = self.producer.next(cx)?;
        debug_assert!(p.validate(self.steps.len() as u16).is_ok(), "{p:?}");
        Some(p)
    }

    /// Hands `p` to the step it applies to, which becomes the running
    /// step; `p` itself comes back if no step applies to it.
    fn route(&mut self, cx: &ExecCtx<'_>, p: Pi) -> Option<Pi> {
        let Some((axis, test)) = self.steps.get(usize::from(p.sr)) else {
            return Some(p); // full: no step left
        };
        match start_cursor(cx, p.nr, *axis, test) {
            Ok(cursor) => {
                let i = p.sr + 1;
                debug_assert!(self.busy.last().is_none_or(|b| b.i + 1 == i));
                let (sl, nl, li) = (p.sl, p.nl, p.li);
                self.busy.push(Busy {
                    i,
                    sl,
                    nl,
                    li,
                    cursor,
                });
                None
            }
            // Already stopped at a border: up to the consumer untouched.
            Err(nr) => Some(Pi::band(p.sl, p.nl, p.sr, nr, p.li)),
        }
    }
}

/// Starts `axis::test` at `nr`, moving a swizzled end's pin into the
/// cursor; a border end, at which no step starts, is handed back.
fn start_cursor(
    cx: &ExecCtx<'_>,
    nr: REnd,
    axis: Axis,
    test: &ResolvedTest,
) -> Result<Cursor, REnd> {
    let (id, entry, pin) = match nr {
        REnd::Core { cluster, slot, .. } => (cluster.id(slot), Entry::Fresh(slot), Some(cluster)),
        REnd::Entry { cluster, slot } => (cluster.id(slot), Entry::Resume(slot), Some(cluster)),
        REnd::Done { id, .. } | REnd::Cold { id, resume: false } => {
            (id, Entry::Fresh(id.slot), None)
        }
        REnd::Cold { id, resume: true } => (id, Entry::Resume(id.slot), None),
        REnd::Border { .. } => return Err(nr),
    };
    let test = test.clone();
    Ok(match pin {
        Some(cluster) if !cx.in_fallback() => {
            Cursor::Intra(StepCursor::new(cluster, entry, axis, test))
        }
        // An unswizzled end, or any end in fallback: fix and navigate.
        _ => Cursor::Full(FullCursor::with_entry(cx.store, id, entry, axis, test)),
    })
}

impl Operator for XStep {
    fn next(&mut self, cx: &ExecCtx<'_>) -> Option<Pi> {
        loop {
            // Governor checkpoint where each loop of the chain has one:
            // before every cursor advance, and before a producer pull
            // unless step 1's cursor just ran dry. An unrecovered read
            // error or a passed hard deadline aborts the plan — wind down
            // instead of extending further instances.
            if cx.interrupted() {
                self.busy.clear();
                return None;
            }
            let p = match self.busy.last_mut() {
                None => self.pull(cx)?,
                Some(b) => match b.cursor.next(cx, b.i) {
                    Some((sr, nr)) => {
                        cx.charge_instance();
                        Pi::band(b.sl, b.nl, sr, nr, b.li)
                    }
                    None => {
                        // Step `i` is exhausted; the step below runs on,
                        // or step 1 takes its next input at once.
                        self.busy.pop();
                        if !self.busy.is_empty() {
                            continue;
                        }
                        self.pull(cx)?
                    }
                },
            };
            if let Some(p) = self.route(cx, p) {
                return Some(p);
            }
        }
    }
}

/// The chain of per-step operators that [`XStep`] replaces, `XStep_1 …
/// XStep_n` stacked one per step, each passing the instances it does not
/// apply to through unchanged. Kept as the reference the router must
/// reproduce, pull for pull.
#[cfg(test)]
mod chain {
    use super::*;

    /// `XStep_i` of the chain.
    pub(super) struct ChainStep {
        producer: Box<dyn Operator>,
        /// 1-based step number `i`.
        i: u16,
        axis: Axis,
        test: ResolvedTest,
        /// Enumeration state for the instance currently being extended.
        current: Option<(u16, NodeId, bool, Cursor)>,
    }

    /// Stacks one `XStep_i` per step of `steps` on `op`.
    pub(super) fn stack(
        mut op: Box<dyn Operator>,
        steps: &[(Axis, ResolvedTest)],
    ) -> Box<dyn Operator> {
        for (idx, (axis, test)) in steps.iter().enumerate() {
            op = Box::new(ChainStep {
                producer: op,
                i: idx as u16 + 1,
                axis: *axis,
                test: test.clone(),
                current: None,
            });
        }
        op
    }

    impl Operator for ChainStep {
        fn next(&mut self, cx: &ExecCtx<'_>) -> Option<Pi> {
            loop {
                if cx.interrupted() {
                    self.current = None;
                    return None;
                }
                if let Some((sl, nl, li, cursor)) = &mut self.current {
                    match cursor.next(cx, self.i) {
                        Some((sr, nr)) => {
                            cx.charge_instance();
                            return Some(Pi::band(*sl, *nl, sr, nr, *li));
                        }
                        None => self.current = None,
                    }
                }
                let p = self.producer.next(cx)?;
                let applicable = p.sr == self.i - 1 && !p.nr.is_border();
                if !applicable {
                    return Some(p);
                }
                match start_cursor(cx, p.nr, self.axis, &self.test) {
                    Ok(cursor) => self.current = Some((p.sl, p.nl, p.li, cursor)),
                    Err(nr) => return Some(Pi::band(p.sl, p.nl, p.sr, nr, p.li)),
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
    use crate::governor::{Deadline, QueryBudget};
    use crate::ops::testutil::{drain, mem_store, sample_doc};
    use crate::ops::{ContextSource, ScanCursor, SchedShared, XAssembly, XScan, XSchedule};
    use pathix_tree::{Placement, TreeStore};
    use pathix_xpath::{LocationPath, NodeTest, Step};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Wraps context instances with swizzled Core ends (bypassing the I/O
    /// operator for unit testing the steps alone).
    struct Swizzle {
        inner: ContextSource,
    }

    impl Operator for Swizzle {
        fn next(&mut self, cx: &ExecCtx<'_>) -> Option<Pi> {
            let p = self.inner.next(cx)?;
            let id = p.nr.node_id();
            let cluster = cx.store.fix(id.page);
            let order = cluster.node(id.slot).order;
            Some(Pi {
                nr: REnd::Core {
                    cluster,
                    slot: id.slot,
                    order,
                },
                ..p
            })
        }
    }

    struct Once(Option<Pi>);

    impl Operator for Once {
        fn next(&mut self, _cx: &ExecCtx<'_>) -> Option<Pi> {
            self.0.take()
        }
    }

    fn resolved(store: &TreeStore, name: &str) -> ResolvedTest {
        ResolvedTest::resolve(&NodeTest::Name(name.into()), &store.meta.symbols)
    }

    fn from_root(store: &TreeStore) -> Box<dyn Operator> {
        Box::new(Swizzle {
            inner: ContextSource::new(vec![store.root()]),
        })
    }

    /// The Simple method's source: the root as an unswizzled context.
    fn cold(store: &TreeStore) -> Box<dyn Operator> {
        Box::new(ContextSource::new(vec![store.root()]))
    }

    fn reference_len(doc: &pathix_xml::Document, path: &str) -> usize {
        let path = pathix_xpath::parse_path(path).unwrap().normalize();
        pathix_xpath::eval_path(doc, doc.root(), &path).len()
    }

    #[test]
    fn extends_by_one_step_within_cluster() {
        let doc = sample_doc();
        // Big pages: everything in one cluster, no borders.
        let store = mem_store(&doc, 1 << 15, Placement::Sequential);
        let cx = ExecCtx::new(&store, None);
        let steps = vec![(Axis::Child, resolved(&store, "regions"))];
        let mut step = XStep::new(from_root(&store), steps);
        let got = drain(&mut step, &cx);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].sr, 1);
        assert!(matches!(got[0].nr, REnd::Core { .. }));
    }

    #[test]
    fn emits_borders_without_io() {
        let doc = sample_doc();
        // Tiny pages: many clusters.
        let store = mem_store(&doc, 256, Placement::Sequential);
        let cx = ExecCtx::new(&store, None);
        let steps = vec![(Axis::Descendant, resolved(&store, "item"))];
        let mut step = XStep::new(from_root(&store), steps);
        let fixes_before = store.buffer.stats().fixes;
        let got = drain(&mut step, &cx);
        // Fixes happened only in Swizzle (context cluster), not in XStep.
        assert_eq!(
            store.buffer.stats().fixes,
            fixes_before + 1,
            "XStep must not fix pages"
        );
        let borders = got.iter().filter(|p| p.nr.is_border()).count();
        let matches = got.iter().filter(|p| !p.nr.is_border()).count();
        assert!(borders > 0, "small pages must yield borders");
        // Only intra-cluster items are matched directly.
        assert!(matches < 10);
        for p in &got {
            if p.nr.is_border() {
                assert_eq!(p.sr, 0, "border keeps S_R at i-1");
            } else {
                assert_eq!(p.sr, 1);
            }
        }
    }

    #[test]
    fn passes_through_inapplicable_instances() {
        let doc = sample_doc();
        let store = mem_store(&doc, 1 << 15, Placement::Sequential);
        let cx = ExecCtx::new(&store, None);
        // An instance already at step 2 of a 2-step path is full: no step
        // applies to it, and it goes up untouched.
        let cluster = store.fix(store.root().page);
        let pre = Pi {
            sl: 0,
            nl: store.root(),
            sr: 2,
            nr: REnd::Core {
                cluster,
                slot: store.root().slot,
                order: 0,
            },
            li: false,
        };
        let steps = vec![
            (Axis::Child, resolved(&store, "regions")),
            (Axis::Child, resolved(&store, "eu")),
        ];
        let mut step = XStep::new(Box::new(Once(Some(pre))), steps);
        let got = drain(&mut step, &cx);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].sr, 2);
        assert_eq!(cx.nav_counters.nodes_visited.get(), 0);
    }

    /// The raw stream of the steps is the nested loops' output, duplicates
    /// included (the plan removes them): on `//item//name` over nested
    /// items the inner `name` comes once per `item`, from a swizzled
    /// context as from the Simple method's unswizzled one.
    #[test]
    fn chain_of_steps_full_path_single_cluster() {
        let doc = sample_doc();
        let store = mem_store(&doc, 1 << 15, Placement::Sequential);
        let cx = ExecCtx::new(&store, None);
        let steps = vec![
            (Axis::Child, resolved(&store, "regions")),
            (Axis::Descendant, resolved(&store, "item")),
        ];
        let mut step = XStep::new(from_root(&store), steps);
        let got = drain(&mut step, &cx);
        // Reference: 10 items + 3 nested items (i % 2 == 0 in eu and us).
        assert_eq!(got.len(), reference_len(&doc, "/regions//item"));
        assert!(got.iter().all(|p| p.is_full(2)));

        let mut nested = pathix_xml::Document::new("r");
        let outer = nested.add_element(nested.root(), "item");
        let inner = nested.add_element(outer, "item");
        nested.add_element(inner, "name");
        let store = mem_store(&nested, 1 << 14, Placement::Sequential);
        for simple in [false, true] {
            let cx = ExecCtx::new(&store, None);
            let source = if simple {
                cold(&store)
            } else {
                from_root(&store)
            };
            let steps = vec![
                (Axis::Descendant, resolved(&store, "item")),
                (Axis::Descendant, resolved(&store, "name")),
            ];
            let got = drain(&mut XStep::new(source, steps), &cx);
            let names: Vec<NodeId> = got.iter().map(|p| p.nr.node_id()).collect();
            assert_eq!(
                names.len(),
                2,
                "name reached via both items, simple: {simple}"
            );
            assert_eq!(names[0], names[1], "the same node twice, simple: {simple}");
        }
    }

    /// A `FullCursor` crosses borders with synchronous I/O and never
    /// prefetches: in fallback, from a swizzled context, and over the
    /// Simple method's unswizzled one. Either way the raw stream is the
    /// reference result (these paths produce no duplicates).
    #[test]
    fn fallback_mode_crosses_borders() {
        let doc = sample_doc();
        let ranks = doc.preorder_ranks();
        for (path, placement) in [
            ("/regions//item", Placement::Sequential),
            ("//email", Placement::Shuffled { seed: 9 }),
        ] {
            let path = pathix_xpath::parse_path(path).unwrap().normalize();
            let mut want: Vec<u64> = pathix_xpath::eval_path(&doc, doc.root(), &path)
                .iter()
                .map(|n| pathix_tree::node::order_key(ranks[n.0 as usize]))
                .collect();
            want.sort_unstable();
            for simple in [false, true] {
                let store = mem_store(&doc, 256, placement);
                let cx = ExecCtx::new(&store, None);
                cx.fallback.set(!simple);
                let source = if simple {
                    cold(&store)
                } else {
                    from_root(&store)
                };
                let steps: Vec<_> = path
                    .steps
                    .iter()
                    .map(|s| (s.axis, ResolvedTest::resolve(&s.test, &store.meta.symbols)))
                    .collect();
                let len = steps.len() as u16;
                let mut got: Vec<u64> = drain(&mut XStep::new(source, steps), &cx)
                    .iter()
                    .map(|p| match p.nr {
                        REnd::Done { order, .. } if p.is_full(len) => order,
                        ref other => panic!("unexpected end {other:?} at step {}", p.sr),
                    })
                    .collect();
                got.sort_unstable();
                let case = format!("{path}, simple: {simple}");
                assert_eq!(got, want, "{case}: the full result");
                let stats = store.buffer.stats();
                assert!(stats.misses > 1, "{case}: the steps read pages mid-step");
                assert_eq!(stats.prefetches, 0, "{case}: a FullCursor never prefetches");
            }
        }
    }

    #[test]
    fn resume_entry_continues_interrupted_step() {
        // Manufacture a resume: run step 1 on a small-page store, take a
        // border, and feed the companion back in as an Entry end.
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Sequential);
        let cx = ExecCtx::new(&store, None);
        let steps = vec![(Axis::Descendant, resolved(&store, "item"))];
        let mut s1 = XStep::new(from_root(&store), steps.clone());
        let first_pass = drain(&mut s1, &cx);
        let mut results: Vec<u64> = Vec::new();
        let mut frontier: Vec<Pi> = first_pass;
        // Breadth-first resumption loop standing in for XSchedule/XAssembly.
        let mut seen_targets = std::collections::HashSet::new();
        while let Some(p) = frontier.pop() {
            match p.nr {
                REnd::Core { order, .. } => results.push(order),
                REnd::Border { target, .. } => {
                    if !seen_targets.insert(target) {
                        continue;
                    }
                    let cluster = store.fix(target.page);
                    let entry = Pi {
                        sl: p.sl,
                        nl: p.nl,
                        sr: p.sr,
                        nr: REnd::Entry {
                            cluster,
                            slot: target.slot,
                        },
                        li: p.li,
                    };
                    let mut resumed = XStep::new(Box::new(Once(Some(entry))), steps.clone());
                    frontier.extend(drain(&mut resumed, &cx));
                }
                other => panic!("unexpected end {other:?}"),
            }
        }
        results.sort_unstable();
        let ranks = doc.preorder_ranks();
        let mut want: Vec<u64> = pathix_xpath::eval_path(
            &doc,
            doc.root(),
            &pathix_xpath::parse_path("/descendant::item").unwrap(),
        )
        .iter()
        .map(|n| pathix_tree::node::order_key(ranks[n.0 as usize]))
        .collect();
        want.sort_unstable();
        assert_eq!(results, want);
    }

    /// What one pull from the step layer returned and left behind: the
    /// instance (`sl`, `nl`, `sr`, end kind, end node, `li`), the clock,
    /// the navigation and operator counters, and the fallback switch.
    type Snap = (
        Option<(u16, NodeId, u16, &'static str, NodeId, bool)>,
        u64,
        [u64; 9],
        bool,
    );

    fn end_kind(nr: &REnd) -> &'static str {
        match nr {
            REnd::Core { .. } => "core",
            REnd::Entry { .. } => "entry",
            REnd::Border { .. } => "border",
            REnd::Cold { .. } => "cold",
            REnd::Done { .. } => "done",
        }
    }

    /// Logs a [`Snap`] after every pull from the operator it wraps.
    struct Tap {
        inner: Box<dyn Operator>,
        log: Rc<RefCell<Vec<Snap>>>,
    }

    impl Operator for Tap {
        fn next(&mut self, cx: &ExecCtx<'_>) -> Option<Pi> {
            let p = self.inner.next(cx);
            let (nav, st) = (&cx.nav_counters, &cx.stats);
            self.log.borrow_mut().push((
                p.as_ref()
                    .map(|p| (p.sl, p.nl, p.sr, end_kind(&p.nr), p.nr.node_id(), p.li)),
                cx.clock().now_ns(),
                [
                    nav.nodes_visited.get(),
                    nav.node_tests.get(),
                    nav.borders.get(),
                    st.instances.get(),
                    st.r_inserts.get(),
                    st.s_inserts.get(),
                    st.s_peak.get(),
                    st.q_pushes.get(),
                    st.speculative_generated.get(),
                ],
                cx.in_fallback(),
            ));
            p
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Source {
        /// The Simple method: the unswizzled context straight into the
        /// steps, and no `XAssembly`.
        Simple,
        Scan,
        Schedule {
            speculative: bool,
        },
    }

    #[derive(Debug, Clone, Copy)]
    enum Limit {
        Unlimited,
        Memory(usize),
        Budget(Deadline),
    }

    /// How a run of [`run_plan`] ended.
    struct Outcome {
        log: Vec<Snap>,
        elapsed_ns: u64,
        s_peak: u64,
        fallback: bool,
        aborted: bool,
    }

    /// Runs `source → steps → XAssembly` from the root on `store` (just
    /// `ContextSource → steps` for [`Source::Simple`]), with the steps as
    /// one router or as the reference chain, and logs every pull from the
    /// step layer.
    fn run_plan(
        store: &TreeStore,
        steps: &[(Axis, ResolvedTest)],
        source: Source,
        limit: Limit,
        router: bool,
    ) -> Outcome {
        let cx = match limit {
            Limit::Unlimited => ExecCtx::new(store, None),
            Limit::Memory(m) => ExecCtx::new(store, Some(m)),
            Limit::Budget(d) => {
                ExecCtx::with_budget(store, None, &QueryBudget { deadline: Some(d) })
            }
        };
        let t0 = cx.clock().now_ns();
        let len = steps.len() as u16;
        let context = cold(store);
        let (io, sched): (Box<dyn Operator>, _) = match source {
            Source::Simple => (context, None),
            Source::Scan => {
                let cursor = ScanCursor::new(store.meta.page_range());
                (Box::new(XScan::new(context, &cursor, len)), None)
            }
            Source::Schedule { speculative } => {
                let shared = Rc::new(RefCell::new(SchedShared::default()));
                let sched = XSchedule::new(context, Rc::clone(&shared), 10, speculative, len);
                (Box::new(sched), Some(shared))
            }
        };
        let inner = if router {
            Box::new(XStep::new(io, steps.to_vec()))
        } else {
            chain::stack(io, steps)
        };
        let log = Rc::new(RefCell::new(Vec::new()));
        let tap = Tap {
            inner,
            log: Rc::clone(&log),
        };
        let mut plan: Box<dyn Operator> = match source {
            Source::Simple => Box::new(tap),
            _ => Box::new(XAssembly::new(Box::new(tap), len, sched, None)),
        };
        while plan.next(&cx).is_some() {}
        drop(plan);
        let outcome = Outcome {
            log: log.take(),
            elapsed_ns: cx.clock().now_ns() - t0,
            s_peak: cx.stats.s_peak.get(),
            fallback: cx.in_fallback(),
            aborted: cx.governor_abort(),
        };
        let _ = cx.governor_verdict(store.take_io_error().as_ref());
        outcome
    }

    const TAGS: [&str; 12] = [
        "site",
        "regions",
        "item",
        "name",
        "description",
        "text",
        "keyword",
        "person",
        "open_auction",
        "bidder",
        "listitem",
        "category",
    ];

    /// A seeded path of `len` steps. The first step is `descendant::` from
    /// the root, so that most plans get past it; every later step's axis is
    /// drawn from all the cursors support. Name tests keep the steps that
    /// can multiply instances (all but self, child and parent) selective;
    /// each names an element the step reaches in `doc`, so that long paths
    /// still select something.
    fn random_path(rng: &mut StdRng, doc: &pathix_xml::Document, len: usize) -> LocationPath {
        let mut path = LocationPath::new(Vec::new());
        for k in 0..len {
            let axis = match k {
                0 => Axis::Descendant,
                _ => Axis::ALL[rng.random_range(0..Axis::ALL.len())],
            };
            let narrow = matches!(axis, Axis::SelfAxis | Axis::Child | Axis::Parent);
            let test = match rng.random_range(0..10) {
                0..=1 if narrow => NodeTest::AnyElement,
                2 if narrow => NodeTest::AnyNode,
                3 => NodeTest::Text,
                _ => {
                    let mut probe = path.clone();
                    probe.steps.push(Step::new(axis, NodeTest::AnyElement));
                    let reached = pathix_xpath::eval_path(doc, doc.root(), &probe);
                    let name = match reached.len() {
                        0 => TAGS[rng.random_range(0..TAGS.len())],
                        n => doc
                            .tag_name(reached[rng.random_range(0..n)])
                            .unwrap_or("site"),
                    };
                    NodeTest::Name(name.into())
                }
            };
            path.steps.push(Step::new(axis, test));
        }
        path
    }

    /// The router reproduces the per-step chain exactly: after every pull
    /// from the step layer, the same instance, the same simulated clock and
    /// the same navigation and operator counters — for Simple plans and
    /// under XScan and XSchedule with and without speculation, unlimited,
    /// with a memory limit below the peak of `S`, with a soft deadline that
    /// flips fallback mid-plan, and with a hard deadline. Over the Simple
    /// method's unswizzled ends the chain is the nested Unnest-Map loops.
    /// Most paths select something, so most pull logs are longer than one
    /// `None`.
    #[test]
    fn router_reproduces_the_step_chain() {
        let sources = [
            Source::Simple,
            Source::Scan,
            Source::Schedule { speculative: true },
            Source::Schedule { speculative: false },
        ];
        let mut rng = StdRng::seed_from_u64(0x0051_57E9);
        // Soft flips and aborts counted apart for Simple plans (index 1).
        let (mut mem_fallbacks, mut soft_flips, mut aborts) = (0, [0, 0], [0, 0]);
        let mut selecting = 0;
        let cases = [(256usize, [1, 5, 9]), (512, [2, 6, 12]), (1024, [3, 7, 10])];
        for (d, (page_size, lens)) in cases.into_iter().enumerate() {
            // Short prose, so that every text record fits a 256-B page.
            let cfg = pathix_xmlgen::GenConfig {
                avg_sentence_words: 4,
                ..pathix_xmlgen::GenConfig::at_scale(0.001).with_seed(31 + d as u64)
            };
            let doc = pathix_xmlgen::generate(&cfg);
            let placement = Placement::Shuffled { seed: 7 + d as u64 };
            let fresh = || mem_store(&doc, page_size, placement);
            let symbols = fresh();
            for len in lens {
                let path = random_path(&mut rng, &doc, len);
                selecting +=
                    usize::from(!pathix_xpath::eval_path(&doc, doc.root(), &path).is_empty());
                let alphabet = &symbols.meta.symbols;
                let steps: Vec<_> = (path.steps.iter())
                    .map(|s| (s.axis, ResolvedTest::resolve(&s.test, alphabet)))
                    .collect();
                for source in sources {
                    let simple = usize::from(matches!(source, Source::Simple));
                    let base = run_plan(&fresh(), &steps, source, Limit::Unlimited, false);
                    let mut limits = vec![
                        Limit::Unlimited,
                        Limit::Budget(Deadline::new(base.elapsed_ns / 2, u64::MAX / 2)),
                        Limit::Budget(Deadline::hard_only(base.elapsed_ns / 2)),
                    ];
                    if base.s_peak > 1 {
                        limits.push(Limit::Memory(base.s_peak as usize / 2));
                    }
                    for limit in limits {
                        let chain = run_plan(&fresh(), &steps, source, limit, false);
                        let router = run_plan(&fresh(), &steps, source, limit, true);
                        let case = format!("page {page_size}, {len} steps, {source:?}, {limit:?}");
                        let pulls = chain.log.len().max(router.log.len());
                        for k in 0..pulls {
                            assert_eq!(
                                router.log.get(k),
                                chain.log.get(k),
                                "{case}: pull {k} of {pulls}, steps {steps:?}"
                            );
                        }
                        match limit {
                            Limit::Memory(_) => mem_fallbacks += usize::from(chain.fallback),
                            Limit::Budget(_) if chain.aborted => aborts[simple] += 1,
                            Limit::Budget(_) => soft_flips[simple] += usize::from(chain.fallback),
                            Limit::Unlimited => {}
                        }
                    }
                }
            }
        }
        assert!(selecting >= 6, "only {selecting} of 9 paths select nodes");
        assert!(mem_fallbacks > 0, "no memory-limit fallback was exercised");
        assert!(
            soft_flips.iter().all(|&n| n > 0),
            "no soft deadline flipped fallback: {soft_flips:?}"
        );
        assert!(
            aborts.iter().all(|&n| n > 0),
            "no hard deadline aborted a plan: {aborts:?}"
        );
    }
}
