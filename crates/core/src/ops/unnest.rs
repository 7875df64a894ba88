//! `Unnest-Map` — the baseline **Simple method** (paper §5.1): one nested
//! loop per location step, navigating the logical tree without regard to
//! physical layout. Border crossings trigger synchronous page fixes right
//! in the middle of a step, which on a cold buffer means random I/O — the
//! access pattern of the paper's Example 1.
//!
//! Instances flow between Unnest-Maps as unswizzled NodeIDs (`Done` ends),
//! mirroring a system without pointer swizzling.

use crate::context::ExecCtx;
use crate::instance::{Pi, REnd};
use crate::ops::Operator;
use pathix_tree::{FullCursor, NodeId, ResolvedTest};
use pathix_xpath::Axis;

/// One nested-loop step of the Simple method.
pub struct UnnestMap {
    producer: Box<dyn Operator>,
    /// 1-based step number.
    i: u16,
    axis: Axis,
    test: ResolvedTest,
    current: Option<(u16, NodeId, FullCursor)>,
}

impl UnnestMap {
    /// Creates `UnnestMap_i` over `producer`.
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
}

impl Operator for UnnestMap {
    fn next(&mut self, cx: &ExecCtx<'_>) -> Option<Pi> {
        loop {
            // Governor checkpoint: an unrecovered read error, a cancel, or a
            // passed hard deadline aborts the plan — wind down instead of
            // starting further cursors over the failed store.
            if cx.interrupted() {
                self.current = None;
                return None;
            }
            if let Some((sl, nl, cursor)) = &mut self.current {
                let charge = cx.nav_charge();
                match cursor.next(cx.store, &charge) {
                    Some((id, order)) => {
                        cx.charge_instance();
                        return Some(Pi::band(*sl, *nl, self.i, REnd::Done { id, order }, false));
                    }
                    None => self.current = None,
                }
            }
            let p = self.producer.next(cx)?;
            debug_assert_eq!(p.sr, self.i - 1, "simple plans are strictly sequential");
            let id = p.nr.node_id();
            let cursor = FullCursor::new(cx.store, id, self.axis, self.test.clone());
            self.current = Some((p.sl, p.nl, cursor));
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
    use pathix_xpath::parse_path;

    fn run_simple(
        store: &pathix_tree::TreeStore,
        path: &pathix_xpath::LocationPath,
        cx: &ExecCtx<'_>,
    ) -> Vec<u64> {
        let mut op: Box<dyn Operator> = Box::new(ContextSource::new(vec![store.root()]));
        for (idx, step) in path.steps.iter().enumerate() {
            let test = ResolvedTest::resolve(&step.test, &store.meta.symbols);
            op = Box::new(UnnestMap::new(op, idx as u16 + 1, step.axis, test));
        }
        let mut orders: Vec<u64> = drain(&mut op, cx)
            .into_iter()
            .map(|p| match p.nr {
                REnd::Done { order, .. } => order,
                other => panic!("unexpected end {other:?}"),
            })
            .collect();
        orders.sort_unstable();
        orders
    }

    #[test]
    fn simple_chain_matches_reference_with_duplicates() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Shuffled { seed: 3 });
        let cx = ExecCtx::new(&store, None);
        let path = parse_path("/regions//item").unwrap().normalize();
        let got = run_simple(&store, &path, &cx);
        let ranks = doc.preorder_ranks();
        let mut want: Vec<u64> = pathix_xpath::eval_path(&doc, doc.root(), &path)
            .iter()
            .map(|n| pathix_tree::node::order_key(ranks[n.0 as usize]))
            .collect();
        want.sort_unstable();
        // This path produces no duplicates, so the raw stream matches.
        assert_eq!(got, want);
    }

    #[test]
    fn nested_loops_can_produce_duplicates() {
        // //item//name visits nested items; an inner name is reached from
        // several ancestors — the raw nested-loop stream contains it once
        // per ancestor (the paper's motivation for duplicate elimination).
        let mut doc = pathix_xml::Document::new("r");
        let a = doc.add_element(doc.root(), "item");
        let b = doc.add_element(a, "item");
        let c = doc.add_element(b, "name");
        let _ = c;
        let store = mem_store(&doc, 1 << 14, Placement::Sequential);
        let cx = ExecCtx::new(&store, None);
        let path = pathix_xpath::LocationPath::new(vec![
            pathix_xpath::Step::descendant("item"),
            pathix_xpath::Step::descendant("name"),
        ]);
        let got = run_simple(&store, &path, &cx);
        assert_eq!(got.len(), 2, "name reached via both items");
        assert_eq!(got[0], got[1], "the same node twice — duplicates exist");
    }

    #[test]
    fn unnest_map_fixes_pages_synchronously() {
        let doc = sample_doc();
        let store = mem_store(&doc, 256, Placement::Shuffled { seed: 9 });
        let cx = ExecCtx::new(&store, None);
        let path = parse_path("//email").unwrap().normalize();
        let _ = run_simple(&store, &path, &cx);
        let stats = store.buffer.stats();
        assert!(stats.misses > 1, "simple method reads pages mid-step");
        assert_eq!(stats.prefetches, 0, "simple method never prefetches");
    }
}
