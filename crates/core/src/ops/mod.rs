//! The physical operators (paper §5). All operators are iterators in the
//! classic Graefe sense: `next()` produces one partial path instance at a
//! time; `open`/`close` are folded into construction and drop.

mod unnest;
mod xassembly;
mod xscan;
mod xschedule;
mod xstep;

pub use unnest::UnnestMap;
pub use xassembly::XAssembly;
pub(crate) use xscan::ClusterEmit;
pub use xscan::XScan;
pub use xschedule::{SchedShared, XSchedule};
pub use xstep::XStep;

use crate::context::ExecCtx;
use crate::instance::Pi;
use pathix_tree::NodeId;

/// A physical operator producing partial path instances.
pub trait Operator {
    /// Produces the next instance, or `None` when (currently) exhausted.
    ///
    /// Operators must tolerate further `next` calls after returning `None`:
    /// upstream state (e.g. the schedule queue `Q`) may have been refilled
    /// by a downstream consumer in the meantime.
    fn next(&mut self, cx: &ExecCtx<'_>) -> Option<Pi>;
}

impl Operator for Box<dyn Operator> {
    fn next(&mut self, cx: &ExecCtx<'_>) -> Option<Pi> {
        (**self).next(cx)
    }
}

/// Leaf operator enumerating the context nodes of the path as non-full,
/// complete instances with `S_L = S_R = 0` (paper §5.1).
pub struct ContextSource {
    nodes: std::vec::IntoIter<NodeId>,
}

impl ContextSource {
    /// Source over the given context nodes.
    pub fn new(nodes: Vec<NodeId>) -> Self {
        Self {
            nodes: nodes.into_iter(),
        }
    }
}

impl Operator for ContextSource {
    fn next(&mut self, cx: &ExecCtx<'_>) -> Option<Pi> {
        let id = self.nodes.next()?;
        cx.charge_instance();
        Some(Pi::context(id))
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    // Test fixtures panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use pathix_storage::{BufferParams, MemDevice, SimClock};
    use pathix_tree::{import_into, ImportConfig, Placement, TreeStore};
    use pathix_xml::Document;
    use std::rc::Rc;

    /// Builds a store over a MemDevice with small pages so documents split
    /// into many clusters.
    pub fn mem_store(doc: &Document, page_size: usize, placement: Placement) -> TreeStore {
        let mut dev = MemDevice::new(page_size);
        let (meta, _) = import_into(
            &mut dev,
            doc,
            &ImportConfig {
                page_size,
                placement,
            },
        )
        .unwrap();
        TreeStore::open(
            Box::new(dev),
            meta,
            BufferParams { capacity: 128 },
            Rc::new(SimClock::new()),
        )
    }

    /// A small document with nesting, text, and repeated tags.
    pub fn sample_doc() -> Document {
        let mut d = Document::new("site");
        let regions = d.add_element(d.root(), "regions");
        for r in ["eu", "us"] {
            let region = d.add_element(regions, r);
            for i in 0..5 {
                let item = d.add_element(region, "item");
                let name = d.add_element(item, "name");
                d.add_text(name, "gentle herald of the kingdom");
                if i % 2 == 0 {
                    let desc = d.add_element(item, "description");
                    let sub = d.add_element(desc, "item");
                    d.add_text(sub, "nested item text");
                }
            }
        }
        let people = d.add_element(d.root(), "people");
        for _ in 0..4 {
            let p = d.add_element(people, "person");
            let e = d.add_element(p, "email");
            d.add_text(e, "sovereign at majesty dot example");
        }
        d
    }

    /// Runs an operator to exhaustion collecting instances.
    pub fn drain(op: &mut dyn Operator, cx: &ExecCtx<'_>) -> Vec<Pi> {
        let mut out = Vec::new();
        while let Some(p) = op.next(cx) {
            out.push(p);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;
    use pathix_tree::Placement;

    #[test]
    fn context_source_emits_context_instances() {
        let doc = sample_doc();
        let store = mem_store(&doc, 512, Placement::Sequential);
        let cx = ExecCtx::new(&store, None);
        let ids = vec![store.root(), NodeId::new(0, 0)];
        let mut src = ContextSource::new(ids.clone());
        let got = drain(&mut src, &cx);
        assert_eq!(got.len(), 2);
        for (p, id) in got.iter().zip(ids) {
            assert_eq!(p.sl, 0);
            assert_eq!(p.sr, 0);
            assert_eq!(p.nl, id);
            assert_eq!(p.nr.node_id(), id);
        }
        assert_eq!(cx.stats.instances.get(), 2);
    }

    #[test]
    fn context_source_tolerates_extra_next() {
        let doc = sample_doc();
        let store = mem_store(&doc, 512, Placement::Sequential);
        let cx = ExecCtx::new(&store, None);
        let mut src = ContextSource::new(vec![store.root()]);
        assert!(src.next(&cx).is_some());
        assert!(src.next(&cx).is_none());
        assert!(src.next(&cx).is_none());
    }
}
