//! Partial path instances (paper §4).
//!
//! A partial path instance maps a consecutive band `[l, r]` of location
//! steps to document nodes; the ends may be border nodes representing
//! incomplete navigation. As the paper observes (§4.4), operators only need
//! the four values `(S_L, N_L, S_R, N_R)`, so an instance is a flat tuple.
//!
//! The right end additionally carries the *swizzled* form of the node — an
//! `Arc` to its decoded cluster — while the instance flows from step to
//! step through `XStep` (§5.3.2.3: direct pointers are passed along the
//! XStep chain; only ends stored in the main-memory structures `Q`/`R`/`S`
//! are unswizzled back to NodeIDs).

use pathix_tree::{Cluster, NodeId};
use std::sync::Arc;

/// The right end `(S_R, N_R)` of an instance, in one of its physical
/// representations.
#[derive(Clone)]
pub enum REnd {
    /// Swizzled core node: the cluster is pinned in the buffer. Navigation
    /// for the next step starts *fresh* from `slot`.
    Core {
        /// Decoded, pinned cluster.
        cluster: Arc<Cluster>,
        /// Slot of the node within the cluster.
        slot: u16,
        /// Document-order key of the node.
        order: u64,
    },
    /// Swizzled border proxy at which an interrupted step *resumes*
    /// (the companion of the border where navigation stopped).
    Entry {
        /// Decoded, pinned cluster.
        cluster: Arc<Cluster>,
        /// Slot of the proxy within the cluster.
        slot: u16,
    },
    /// Unswizzled border: navigation stopped at `proxy`; continuing
    /// requires loading `target`'s cluster. Produced by `XStep`, consumed
    /// by `XAssembly` (which turns it into a `Q` entry).
    Border {
        /// The border node where navigation stopped.
        proxy: NodeId,
        /// Its companion in the unloaded cluster.
        target: NodeId,
    },
    /// Unswizzled core node whose cluster has not been fixed yet (context
    /// nodes entering the I/O operator, or results leaving the plan).
    Cold {
        /// The node.
        id: NodeId,
        /// Whether navigation resumes at this node (border companion) or
        /// starts fresh (context node).
        resume: bool,
    },
    /// A finished result node (unswizzled, with order key) leaving
    /// `XAssembly`.
    Done {
        /// The result node.
        id: NodeId,
        /// Its document-order key.
        order: u64,
    },
}

impl REnd {
    /// The NodeId of the right end, whatever its representation.
    pub fn node_id(&self) -> NodeId {
        match self {
            REnd::Core { cluster, slot, .. } | REnd::Entry { cluster, slot } => cluster.id(*slot),
            REnd::Border { proxy, .. } => *proxy,
            REnd::Cold { id, .. } => *id,
            REnd::Done { id, .. } => *id,
        }
    }

    /// True if this end is a border (right-incomplete instance).
    pub fn is_border(&self) -> bool {
        matches!(self, REnd::Border { .. })
    }
}

impl std::fmt::Debug for REnd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            REnd::Core {
                cluster,
                slot,
                order,
            } => {
                write!(f, "Core({}:{} @{order})", cluster.page, slot)
            }
            REnd::Entry { cluster, slot } => write!(f, "Entry({}:{})", cluster.page, slot),
            REnd::Border { proxy, target } => write!(f, "Border({proxy}->{target})"),
            REnd::Cold { id, resume } => write!(f, "Cold({id}, resume={resume})"),
            REnd::Done { id, order } => write!(f, "Done({id} @{order})"),
        }
    }
}

/// A partial path instance `(S_L, N_L, S_R, N_R)`.
///
/// * `li == false` ⇒ left-complete (anchored at a context node);
/// * `li == true` ⇒ left-incomplete: "if `nl` is reachable while
///   processing step `sl + 1`, then `nr` is reachable at step `sr`" — the
///   speculative knowledge produced by `XScan`/`XSchedule`.
/// * A border right end means step `sr + 1` is interrupted (the paper's
///   `S_R = r − 1` convention for right-incomplete instances).
#[derive(Clone, Debug)]
pub struct Pi {
    /// Left step number `S_L`.
    pub sl: u16,
    /// Left end node `N_L` (always unswizzled; only used as a key).
    pub nl: NodeId,
    /// Right step number `S_R`.
    pub sr: u16,
    /// Right end `N_R`.
    pub nr: REnd,
    /// Left-incompleteness: true iff `N_L` is a border node (`p_l ∈ B`,
    /// §4.3) — the instance is speculative knowledge, not anchored at a
    /// context node. Note this is *not* derivable from `sl`: a speculative
    /// instance for step 0 has `S_L = 0` but a border left end.
    pub li: bool,
}

impl Pi {
    /// A context-node instance: `S_L = S_R = 0`, `N_L = N_R = node`
    /// (paper §5.3.4, input specification of `XSchedule`).
    pub fn context(id: NodeId) -> Self {
        Pi {
            sl: 0,
            nl: id,
            sr: 0,
            nr: REnd::Cold { id, resume: false },
            li: false,
        }
    }

    /// The general checked constructor: a band `[sl, sr]` anchored at `nl`
    /// with right end `nr`. This is the only way operators outside this
    /// module may build an instance (DESIGN.md invariant R4); the band
    /// condition `S_L ≤ S_R` (§4.3) is asserted at the source instead of
    /// at every consumer.
    pub fn band(sl: u16, nl: NodeId, sr: u16, nr: REnd, li: bool) -> Self {
        debug_assert!(sl <= sr, "band condition violated: sl {sl} > sr {sr}");
        Pi { sl, nl, sr, nr, li }
    }

    /// A context-node instance whose cluster is already pinned: `S_L = S_R
    /// = 0` with a swizzled `Core` end. Produced by the I/O operators when
    /// a context's cluster comes in.
    pub fn swizzled_context(cluster: Arc<Cluster>, slot: u16, order: u64) -> Self {
        let id = cluster.id(slot);
        Pi {
            sl: 0,
            nl: id,
            sr: 0,
            nr: REnd::Core {
                cluster,
                slot,
                order,
            },
            li: false,
        }
    }

    /// The speculative instance `l_{b,step}` for border node `b` (§5.4.3):
    /// left-incomplete, `S_L = S_R = step`, entered at the border's
    /// companion slot.
    pub fn speculative(step: u16, cluster: Arc<Cluster>, slot: u16) -> Self {
        let nl = cluster.id(slot);
        Pi {
            sl: step,
            nl,
            sr: step,
            nr: REnd::Entry { cluster, slot },
            li: true,
        }
    }

    /// A full result instance leaving `XAssembly`: left-complete from step
    /// 0 with an unswizzled `Done` end.
    pub fn result(sr: u16, id: NodeId, order: u64) -> Self {
        Pi {
            sl: 0,
            nl: id,
            sr,
            nr: REnd::Done { id, order },
            li: false,
        }
    }

    /// True iff the instance is full for a path of `len` steps:
    /// left-complete, right-complete, spanning `0..len`.
    pub fn is_full(&self, len: u16) -> bool {
        !self.li
            && self.sl == 0
            && self.sr == len
            && matches!(self.nr, REnd::Core { .. } | REnd::Done { .. })
    }

    /// Checks the §4.3 band condition; used in debug assertions.
    pub fn validate(&self, len: u16) -> Result<(), String> {
        if self.sr > len {
            return Err(format!("sr {} exceeds path length {len}", self.sr));
        }
        if self.sl > self.sr {
            return Err(format!("sl {} > sr {}", self.sl, self.sr));
        }
        if self.nr.is_border() && self.sr >= len {
            return Err("right-incomplete instance cannot be at the final step".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathix_xml::Symbol;

    fn cluster() -> Arc<Cluster> {
        let mut cluster = Cluster::new(3);
        cluster.nodes.push(pathix_tree::Node {
            kind: pathix_tree::NodeKind::elem(Symbol(0)),
            order: 17,
            ..pathix_tree::Node::FREE
        });
        Arc::new(cluster)
    }

    #[test]
    fn context_instance_shape() {
        let id = NodeId::new(2, 5);
        let p = Pi::context(id);
        assert_eq!(p.sl, 0);
        assert_eq!(p.sr, 0);
        assert_eq!(p.nl, id);
        assert_eq!(p.nr.node_id(), id);
        assert!(p.validate(3).is_ok());
    }

    #[test]
    fn full_detection() {
        let c = cluster();
        let p = Pi {
            sl: 0,
            nl: NodeId::new(0, 0),
            sr: 2,
            nr: REnd::Core {
                cluster: c,
                slot: 0,
                order: 17,
            },
            li: false,
        };
        assert!(p.is_full(2));
        assert!(!p.is_full(3));
    }

    #[test]
    fn left_incomplete_not_full() {
        let p = Pi {
            sl: 1,
            nl: NodeId::new(0, 0),
            sr: 2,
            nr: REnd::Done {
                id: NodeId::new(1, 1),
                order: 9,
            },
            li: true,
        };
        assert!(!p.is_full(2));
        assert!(p.validate(2).is_ok());
    }

    #[test]
    fn validate_rejects_bad_bands() {
        let mk = |sl, sr, border| Pi {
            sl,
            nl: NodeId::new(0, 0),
            sr,
            nr: if border {
                REnd::Border {
                    proxy: NodeId::new(0, 1),
                    target: NodeId::new(1, 0),
                }
            } else {
                REnd::Done {
                    id: NodeId::new(0, 1),
                    order: 0,
                }
            },
            li: false,
        };
        assert!(mk(2, 1, false).validate(4).is_err()); // sl > sr
        assert!(mk(0, 5, false).validate(4).is_err()); // sr > len
        assert!(mk(0, 4, true).validate(4).is_err()); // border at final step
        assert!(mk(0, 3, true).validate(4).is_ok());
    }

    #[test]
    fn checked_constructors_build_expected_shapes() {
        let c = cluster();
        let ctx = Pi::swizzled_context(c.clone(), 0, 17);
        assert_eq!((ctx.sl, ctx.sr, ctx.li), (0, 0, false));
        assert_eq!(ctx.nl, NodeId::new(3, 0));
        assert!(matches!(ctx.nr, REnd::Core { order: 17, .. }));

        let spec = Pi::speculative(2, c.clone(), 0);
        assert_eq!((spec.sl, spec.sr, spec.li), (2, 2, true));
        assert_eq!(spec.nl, spec.nr.node_id());
        assert!(matches!(spec.nr, REnd::Entry { .. }));

        let res = Pi::result(3, NodeId::new(7, 1), 99);
        assert!(res.is_full(3));
        assert_eq!(res.nr.node_id(), NodeId::new(7, 1));

        let band = Pi::band(
            1,
            NodeId::new(0, 0),
            2,
            REnd::Done {
                id: NodeId::new(1, 1),
                order: 9,
            },
            true,
        );
        assert!(band.validate(4).is_ok());
    }

    #[test]
    #[should_panic(expected = "band condition")]
    #[cfg(debug_assertions)]
    fn band_constructor_rejects_inverted_band() {
        let _ = Pi::band(
            3,
            NodeId::new(0, 0),
            1,
            REnd::Cold {
                id: NodeId::new(0, 0),
                resume: false,
            },
            false,
        );
    }

    #[test]
    fn node_id_extraction_all_variants() {
        let c = cluster();
        let core = REnd::Core {
            cluster: c.clone(),
            slot: 0,
            order: 1,
        };
        assert_eq!(core.node_id(), NodeId::new(3, 0));
        let entry = REnd::Entry {
            cluster: c,
            slot: 0,
        };
        assert_eq!(entry.node_id(), NodeId::new(3, 0));
        let b = REnd::Border {
            proxy: NodeId::new(1, 2),
            target: NodeId::new(4, 0),
        };
        assert_eq!(b.node_id(), NodeId::new(1, 2));
        assert!(b.is_border());
    }
}
