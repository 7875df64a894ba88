//! Cost model for choosing the I/O-performing operator — the paper's
//! outlook asks for exactly this: "Further research is needed to create a
//! cost model to support the choice of the I/O-performing operator" (§7).
//!
//! The model estimates, from per-tag statistics collected at import time,
//! how many clusters a path will touch and what each plan pays for them:
//!
//! * **XScan** reads every page once, sequentially, and pays CPU for the
//!   speculative machinery (borders × path length);
//! * **XSchedule** reads only the touched pages, at the batched random-read
//!   cost (short seeks + SPTF rotational gains);
//! * **Simple** reads the touched pages at the full random-read cost
//!   (kept for reporting; it is never the winner when XSchedule exists).
//!
//! The decisive quantity is the paper's *selectivity*: the fraction of the
//! document a path inspects. Low selectivity (Q7) → scan; high selectivity
//! (Q15) → schedule.

use pathix_storage::cost::{DECODE_NODE_NS, INSTANCE_NS, SET_OP_NS, TEST_NS, VISIT_NS};
use pathix_storage::DiskProfile;
use pathix_tree::TreeMeta;
use pathix_xpath::{Axis, LocationPath, NodeTest};

use crate::plan::Method;

/// Cost estimates (simulated nanoseconds) for each plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanEstimate {
    /// Estimated fraction of document nodes the path inspects, `[0, 1]`.
    pub touched_fraction: f64,
    /// Estimated pages the navigational plans visit.
    pub touched_pages: f64,
    /// Estimated cost of the Simple plan.
    pub simple_ns: f64,
    /// Estimated cost of the XSchedule plan.
    pub xschedule_ns: f64,
    /// Estimated cost of the XScan plan.
    pub xscan_ns: f64,
    /// CPU part of `simple_ns` and `xschedule_ns` (node inspection and
    /// decoding of the touched pages).
    nav_cpu_ns: f64,
    /// CPU part of `xscan_ns` (decoding every page, node inspection and the
    /// speculative machinery).
    xscan_cpu_ns: f64,
}

impl PlanEstimate {
    /// The CPU part of `method`'s estimate: its cost without I/O wait, so
    /// independent of the disk profile.
    pub fn cpu_ns(&self, method: Method) -> f64 {
        match method {
            Method::Simple | Method::XSchedule { .. } => self.nav_cpu_ns,
            Method::XScan => self.xscan_cpu_ns,
        }
    }

    /// The recommended I/O operator (XSchedule or XScan).
    pub fn recommend(&self) -> Method {
        if self.xscan_ns < self.xschedule_ns {
            Method::XScan
        } else {
            Method::xschedule()
        }
    }
}

/// Estimator state: document statistics plus the device profile.
#[derive(Debug, Clone)]
pub struct Optimizer<'a> {
    meta: &'a TreeMeta,
    profile: DiskProfile,
    /// Average border nodes per cluster: two per inter-cluster edge,
    /// spread over the pages, at least one half.
    borders_per_cluster: f64,
}

impl<'a> Optimizer<'a> {
    /// Creates an optimizer over a stored document.
    pub fn new(meta: &'a TreeMeta, profile: DiskProfile) -> Self {
        let borders_per_cluster =
            (2.0 * meta.border_edges as f64 / meta.page_count.max(1) as f64).max(0.5);
        Self {
            meta,
            profile,
            borders_per_cluster,
        }
    }

    /// Estimated number of elements matched by a node test.
    fn test_cardinality(&self, test: &NodeTest) -> f64 {
        match test {
            NodeTest::Name(name) => self
                .meta
                .symbols
                .lookup(name)
                .map(|s| self.meta.tag_count(s) as f64)
                .unwrap_or(0.0),
            NodeTest::AnyElement => self.meta.element_count as f64,
            NodeTest::AnyNode => self.meta.node_count as f64,
            NodeTest::Text => (self.meta.node_count - self.meta.element_count) as f64,
        }
    }

    /// Estimated nodes *inspected* by one step, given the incoming context
    /// cardinality and (if known) the tag of the context elements.
    /// Downward recursive axes inspect whole subtrees — sized from the
    /// per-tag subtree statistics — while child/sibling steps inspect local
    /// neighbourhoods.
    fn step_inspection(
        &self,
        ctx: f64,
        ctx_tag: Option<&str>,
        axis: Axis,
        test: &NodeTest,
    ) -> (f64, f64) {
        let nodes = self.meta.node_count as f64;
        let avg_fanout = (nodes / self.meta.element_count.max(1) as f64).max(2.0) * 2.0;
        let matched = self.test_cardinality(test);
        // Total subtree volume below the current context set.
        let ctx_subtree = match ctx_tag.and_then(|t| self.meta.symbols.lookup(t)) {
            Some(sym) => self.meta.tag_subtree_nodes(sym) as f64,
            None => nodes,
        };
        match axis {
            Axis::SelfAxis => (
                ctx,
                (matched / nodes * ctx).min(ctx).max(
                    // A self::name step on name-producing contexts passes all.
                    if Some(true) == ctx_tag.map(|t| matches!(test, NodeTest::Name(n) if n == t)) {
                        ctx
                    } else {
                        0.0
                    },
                ),
            ),
            Axis::Child | Axis::FollowingSibling | Axis::PrecedingSibling => {
                let inspected = (ctx * avg_fanout).min(ctx_subtree);
                // Assume matches are concentrated under matching parents:
                // cap at the global cardinality of the test.
                (inspected, matched.min(inspected))
            }
            Axis::Descendant | Axis::DescendantOrSelf => {
                // A recursive step inspects the whole subtree below the
                // context set.
                let inspected = ctx_subtree.min(nodes);
                (inspected, matched.min(inspected))
            }
            Axis::Parent => (ctx, ctx.min(matched)),
            Axis::Ancestor | Axis::AncestorOrSelf => (ctx * 8.0, (ctx * 8.0).min(matched)),
            // Document-order halves: expect to inspect about half the
            // document from an average position.
            Axis::Following | Axis::Preceding => {
                let inspected = nodes / 2.0;
                (inspected, matched.min(inspected))
            }
        }
    }

    /// Builds the full estimate for a path evaluated from the root.
    pub fn estimate(&self, path: &LocationPath) -> PlanEstimate {
        let path = path.normalize();
        let nodes = self.meta.node_count.max(1) as f64;
        let pages = self.meta.page_count.max(1) as f64;
        let nodes_per_page = nodes / pages;

        let mut ctx = 1.0f64;
        let mut ctx_tag: Option<String> = None;
        let mut inspected_total = 0.0f64;
        for step in &path.steps {
            let (inspected, matched) =
                self.step_inspection(ctx, ctx_tag.as_deref(), step.axis, &step.test);
            inspected_total += inspected;
            ctx = matched;
            ctx_tag = match &step.test {
                NodeTest::Name(n) => Some(n.clone()),
                _ => None,
            };
            if ctx == 0.0 {
                break;
            }
        }
        let touched_fraction = (inspected_total / nodes).min(1.0);
        let touched_pages = (inspected_total / nodes_per_page).min(pages).max(1.0);

        // Device cost building blocks.
        let seq = self.profile.command_overhead_ns + self.profile.transfer_ns;
        let mid_seek = self.profile.seek_base_ns as f64
            + self.profile.seek_sqrt_coef_ns as f64 * (pages / 4.0).sqrt();
        let random = mid_seek + self.profile.rotational_ns as f64 + seq as f64;
        // Batched: short seeks (requests cluster), SPTF rotational gains.
        let batched = self.profile.seek_base_ns as f64
            + self.profile.seek_sqrt_coef_ns as f64 * (pages / 64.0).sqrt()
            + self.profile.rotational_ns as f64 / 8.0
            + seq as f64;

        // CPU building blocks, from the cost table the engine charges: an
        // inspected node is a visit plus a node test, a speculative instance
        // is forwarded between operators and costs one `R`/`S` operation,
        // and decoding a page charges per stored node.
        let node_ns = (VISIT_NS + TEST_NS) as f64;
        let spec_ns = (INSTANCE_NS + SET_OP_NS) as f64;
        let decode_ns = DECODE_NODE_NS as f64;

        // Navigational plans inspect nodes + decode touched pages. Simple's
        // DFS rides sequential runs part of the time; charge a blend.
        let nav_cpu_ns = inspected_total * node_ns + touched_pages * nodes_per_page * decode_ns;
        let simple_ns = touched_pages * (0.6 * random + 0.4 * seq as f64) + nav_cpu_ns;
        let xschedule_ns = touched_pages * (0.6 * batched + 0.4 * seq as f64) + nav_cpu_ns;

        // The scan reads and decodes everything and pays the speculative
        // machinery per border per step.
        let spec_instances =
            pages * self.borders_per_cluster * 2.0 * path.steps.len().max(1) as f64;
        let xscan_cpu_ns = nodes * decode_ns + inspected_total * node_ns + spec_instances * spec_ns;
        let xscan_ns = pages * seq as f64 + xscan_cpu_ns;

        PlanEstimate {
            touched_fraction,
            touched_pages,
            simple_ns,
            xschedule_ns,
            xscan_ns,
            nav_cpu_ns,
            xscan_cpu_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::ops::testutil::mem_store;
    use pathix_tree::Placement;
    use pathix_xpath::parse_path;

    fn xmark_meta() -> pathix_tree::TreeMeta {
        let doc = pathix_xmlgen::generate(&pathix_xmlgen::GenConfig::at_scale(0.2));
        let store = mem_store(&doc, 8192, Placement::Sequential);
        store.meta.clone()
    }

    #[test]
    fn low_selectivity_prefers_scan() {
        let meta = xmark_meta();
        let opt = Optimizer::new(&meta, DiskProfile::default());
        let q7 = parse_path("/site//description").unwrap().rooted();
        let est = opt.estimate(&q7);
        assert!(
            est.touched_fraction > 0.3,
            "Q7 must be low selectivity, got {}",
            est.touched_fraction
        );
        assert_eq!(est.recommend(), Method::XScan);
    }

    #[test]
    fn high_selectivity_prefers_schedule() {
        let meta = xmark_meta();
        let opt = Optimizer::new(&meta, DiskProfile::default());
        let q15 = parse_path(
            "/site/closed_auctions/closed_auction/annotation/description/parlist\
             /listitem/parlist/listitem/text/emph/keyword",
        )
        .unwrap()
        .rooted();
        let est = opt.estimate(&q15);
        assert_eq!(est.recommend(), Method::xschedule(), "estimate: {est:?}");
    }

    #[test]
    fn unknown_tag_is_free() {
        let meta = xmark_meta();
        let opt = Optimizer::new(&meta, DiskProfile::default());
        let p = parse_path("/nothing/here").unwrap().rooted();
        let est = opt.estimate(&p);
        assert!(est.touched_fraction < 0.05);
        assert_eq!(est.recommend(), Method::xschedule());
    }

    #[test]
    fn cpu_estimate_is_the_profile_free_part() {
        let meta = xmark_meta();
        let q7 = parse_path("/site//description").unwrap().rooted();
        let disk = Optimizer::new(&meta, DiskProfile::default()).estimate(&q7);
        let instant = Optimizer::new(&meta, DiskProfile::instant()).estimate(&q7);
        for method in [Method::Simple, Method::xschedule(), Method::XScan] {
            assert_eq!(disk.cpu_ns(method), instant.cpu_ns(method));
            assert!(disk.cpu_ns(method) > 0.0);
        }
        // On a zero-latency disk a plan's whole cost is its CPU part.
        assert_eq!(instant.simple_ns, instant.cpu_ns(Method::Simple));
        assert_eq!(instant.xschedule_ns, instant.cpu_ns(Method::xschedule()));
        assert_eq!(instant.xscan_ns, instant.cpu_ns(Method::XScan));
        assert!(disk.cpu_ns(Method::XScan) < disk.xscan_ns);
    }

    #[test]
    fn estimates_are_monotone_in_selectivity() {
        let meta = xmark_meta();
        let opt = Optimizer::new(&meta, DiskProfile::default());
        let narrow = opt.estimate(&parse_path("/site/regions").unwrap().rooted());
        let wide = opt.estimate(&parse_path("//node()").unwrap());
        assert!(narrow.touched_fraction <= wide.touched_fraction);
        assert!(narrow.xschedule_ns <= wide.xschedule_ns);
    }
}
