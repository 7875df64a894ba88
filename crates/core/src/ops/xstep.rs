//! `XStep` (paper §5.3.2): extends partial path instances by one location
//! step using **intra-cluster navigation only**.
//!
//! `XStep_i` processes instances whose right end was produced by step
//! `i − 1` (`S_R = i − 1`) and whose right end is swizzled (a pinned
//! cluster). For each such instance it enumerates the step's result nodes
//! within the current cluster:
//!
//! * a reachable core node passing the node test extends the instance
//!   (`S_R` becomes `i`),
//! * a border node interrupts the step: the instance is emitted
//!   right-incomplete (`S_R` stays `i − 1`, `N_R` is the border) and the
//!   enumeration continues — further intra-cluster results of the same
//!   context are still produced.
//!
//! Instances the operator is not applicable to are passed through
//! unchanged (they are already incomplete for an earlier step and will be
//! completed via `XAssembly`/`XSchedule`).
//!
//! In **fallback mode** (§5.4.6) the operator behaves as a plain
//! Unnest-Map: it navigates across borders with a [`FullCursor`], issuing
//! synchronous I/O, and emits only complete extensions.

use crate::context::ExecCtx;
use crate::instance::{Pi, REnd};
use crate::ops::Operator;
use pathix_tree::{Entry, FullCursor, NodeId, ResolvedTest, StepCursor, StepItem};
use pathix_xpath::Axis;

enum Cursor {
    Intra(StepCursor),
    Full(FullCursor),
}

/// The per-step navigation operator.
pub struct XStep {
    producer: Box<dyn Operator>,
    /// 1-based step number `i`.
    i: u16,
    axis: Axis,
    test: ResolvedTest,
    /// Enumeration state for the instance currently being extended.
    current: Option<(u16, NodeId, bool, Cursor)>,
}

impl XStep {
    /// Creates `XStep_i` for `axis::test` on top of `producer`.
    pub fn new(producer: Box<dyn Operator>, i: u16, axis: Axis, test: ResolvedTest) -> Self {
        assert!(i >= 1, "step numbers are 1-based");
        Self {
            producer,
            i,
            axis,
            test,
            current: None,
        }
    }

    /// Starts the step at `nr`, moving a swizzled end's pin into the
    /// cursor; a border end is handed back.
    fn start_cursor(&self, cx: &ExecCtx<'_>, nr: REnd) -> Result<Cursor, REnd> {
        let (id, entry, pin) = match nr {
            REnd::Core { cluster, slot, .. } => {
                (cluster.id(slot), Entry::Fresh(slot), Some(cluster))
            }
            REnd::Entry { cluster, slot } => (cluster.id(slot), Entry::Resume(slot), Some(cluster)),
            REnd::Done { id, .. } | REnd::Cold { id, resume: false } => {
                (id, Entry::Fresh(id.slot), None)
            }
            REnd::Cold { id, resume: true } => (id, Entry::Resume(id.slot), None),
            REnd::Border { .. } => return Err(nr),
        };
        let test = self.test.clone();
        Ok(match pin {
            Some(cluster) if !cx.in_fallback() => {
                Cursor::Intra(StepCursor::new(cluster, entry, self.axis, test))
            }
            // Unswizzled ends reach XStep only in fallback mode (results of
            // the simple method pass Done ends around) — fix and navigate.
            _ => {
                debug_assert!(cx.in_fallback(), "cold end at XStep outside fallback");
                Cursor::Full(FullCursor::with_entry(cx.store, id, entry, self.axis, test))
            }
        })
    }
}

impl Operator for XStep {
    fn next(&mut self, cx: &ExecCtx<'_>) -> Option<Pi> {
        loop {
            // Governor checkpoint: an unrecovered read error, a cancel, or a
            // passed hard deadline aborts the plan — wind down instead of
            // extending further instances over the failed store.
            if cx.interrupted() {
                self.current = None;
                return None;
            }
            if let Some((sl, nl, li, cursor)) = &mut self.current {
                let charge = cx.nav_charge();
                match cursor {
                    Cursor::Intra(c) => match c.next(&charge) {
                        Some(StepItem::Match { id, order }) => {
                            cx.charge_instance();
                            return Some(Pi::band(
                                *sl,
                                *nl,
                                self.i,
                                REnd::Core {
                                    cluster: c.cluster().clone(),
                                    slot: id.slot,
                                    order,
                                },
                                *li,
                            ));
                        }
                        Some(StepItem::Border { proxy, target }) => {
                            cx.charge_instance();
                            return Some(Pi::band(
                                *sl,
                                *nl,
                                self.i - 1,
                                REnd::Border { proxy, target },
                                *li,
                            ));
                        }
                        None => self.current = None,
                    },
                    Cursor::Full(c) => match c.next(cx.store, &charge) {
                        Some((id, order)) => {
                            cx.charge_instance();
                            return Some(Pi::band(*sl, *nl, self.i, REnd::Done { id, order }, *li));
                        }
                        None => self.current = None,
                    },
                }
            }
            let p = self.producer.next(cx)?;
            debug_assert!(p.validate(u16::MAX).is_ok());
            let applicable = p.sr == self.i - 1 && !p.nr.is_border();
            if !applicable {
                // Not generated by step i−1, or already stopped at a border:
                // hand through to the consumer untouched.
                return Some(p);
            }
            match self.start_cursor(cx, p.nr) {
                Ok(cursor) => self.current = Some((p.sl, p.nl, p.li, cursor)),
                Err(nr) => return Some(Pi::band(p.sl, p.nl, p.sr, nr, p.li)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::ops::testutil::{drain, mem_store, sample_doc};
    use crate::ops::ContextSource;
    use pathix_tree::Placement;
    use pathix_xpath::NodeTest;

    /// Wraps context instances with swizzled Core ends (bypassing the I/O
    /// operator for unit testing the step chain alone).
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

    fn resolved(store: &pathix_tree::TreeStore, name: &str) -> ResolvedTest {
        ResolvedTest::resolve(&NodeTest::Name(name.into()), &store.meta.symbols)
    }

    #[test]
    fn extends_by_one_step_within_cluster() {
        let doc = sample_doc();
        // Big pages: everything in one cluster, no borders.
        let store = mem_store(&doc, 1 << 15, Placement::Sequential);
        let cx = ExecCtx::new(&store, None);
        let src = Swizzle {
            inner: ContextSource::new(vec![store.root()]),
        };
        let mut step = XStep::new(Box::new(src), 1, Axis::Child, resolved(&store, "regions"));
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
        let src = Swizzle {
            inner: ContextSource::new(vec![store.root()]),
        };
        let mut chain: Box<dyn Operator> = Box::new(XStep::new(
            Box::new(src),
            1,
            Axis::Descendant,
            ResolvedTest::resolve(&NodeTest::Name("item".into()), &store.meta.symbols),
        ));
        let fixes_before = store.buffer.stats().fixes;
        let got = drain(&mut chain, &cx);
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
        // An instance already at step 2 flows through XStep_1 untouched.
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
        struct Once(Option<Pi>);
        impl Operator for Once {
            fn next(&mut self, _cx: &ExecCtx<'_>) -> Option<Pi> {
                self.0.take()
            }
        }
        let mut step = XStep::new(
            Box::new(Once(Some(pre.clone()))),
            1,
            Axis::Child,
            resolved(&store, "regions"),
        );
        let got = drain(&mut step, &cx);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].sr, 2);
    }

    #[test]
    fn chain_of_steps_full_path_single_cluster() {
        let doc = sample_doc();
        let store = mem_store(&doc, 1 << 15, Placement::Sequential);
        let cx = ExecCtx::new(&store, None);
        let src = Swizzle {
            inner: ContextSource::new(vec![store.root()]),
        };
        let s1 = XStep::new(Box::new(src), 1, Axis::Child, resolved(&store, "regions"));
        let s2 = XStep::new(Box::new(s1), 2, Axis::Descendant, resolved(&store, "item"));
        let mut chain = s2;
        let got = drain(&mut chain, &cx);
        // Reference: 10 items + 3 nested items (i % 2 == 0 in eu and us).
        let want = pathix_xpath::eval_path(
            &doc,
            doc.root(),
            &pathix_xpath::parse_path("/regions//item")
                .unwrap()
                .normalize(),
        )
        .len();
        assert_eq!(got.len(), want);
        assert!(got.iter().all(|p| p.is_full(2)));
    }

    #[test]
    fn fallback_mode_crosses_borders() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Sequential);
        let cx = ExecCtx::new(&store, None);
        cx.fallback.set(true);
        let src = Swizzle {
            inner: ContextSource::new(vec![store.root()]),
        };
        let s1 = XStep::new(Box::new(src), 1, Axis::Child, resolved(&store, "regions"));
        let mut s2 = XStep::new(Box::new(s1), 2, Axis::Descendant, resolved(&store, "item"));
        let got = drain(&mut s2, &cx);
        let want = pathix_xpath::eval_path(
            &doc,
            doc.root(),
            &pathix_xpath::parse_path("/regions//item")
                .unwrap()
                .normalize(),
        )
        .len();
        assert_eq!(got.len(), want, "fallback must produce the full result");
        assert!(got.iter().all(|p| p.is_full(2)));
        // In fallback the chain does fix pages.
        assert!(store.buffer.stats().fixes > 1);
    }

    #[test]
    fn resume_entry_continues_interrupted_step() {
        // Manufacture a resume: run step 1 on a small-page store, take a
        // border, and feed the companion back in as an Entry end.
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Sequential);
        let cx = ExecCtx::new(&store, None);
        let src = Swizzle {
            inner: ContextSource::new(vec![store.root()]),
        };
        let mut s1 = XStep::new(Box::new(src), 1, Axis::Descendant, resolved(&store, "item"));
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
                    struct Once(Option<Pi>);
                    impl Operator for Once {
                        fn next(&mut self, _cx: &ExecCtx<'_>) -> Option<Pi> {
                            self.0.take()
                        }
                    }
                    let mut resumed = XStep::new(
                        Box::new(Once(Some(entry))),
                        1,
                        Axis::Descendant,
                        resolved(&store, "item"),
                    );
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
}
