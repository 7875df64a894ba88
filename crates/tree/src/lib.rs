//! # pathix-tree
//!
//! Clustered on-page XML tree storage with explicit **border nodes** and
//! intra-cluster **navigational primitives** — the storage model of the
//! paper's §3.
//!
//! * Documents are partitioned into *clusters*; one cluster is stored per
//!   disk page, so the cluster is the unit of I/O (§3.3).
//! * Edges crossing a cluster boundary are materialized as a pair of border
//!   nodes: a `BorderDown` proxy in the parent's cluster and a `BorderUp`
//!   proxy rooting the child's cluster, each holding the companion's
//!   [`NodeId`] (§3.4, Fig. 3).
//! * Navigation primitives ([`nav::StepCursor`]) iterate an XPath axis *using
//!   intra-cluster edges only*, yielding matching core nodes and the border
//!   nodes at which navigation had to stop (§3.5). A border can later be
//!   *resumed* from its companion proxy once the target cluster is in the
//!   buffer — this is what the physical algebra's partial path instances
//!   represent.
//! * [`nav::FullCursor`] is the border-crossing variant used by the paper's
//!   baseline "Simple" method and by fallback mode: it fixes target pages
//!   synchronously and continues, i.e. it performs random I/O mid-step.
//! * The importer ([`import_into`]) packs subtrees greedily into page-sized
//!   clusters and supports several physical *placement policies*
//!   (sequential, shuffled, strided) to model freshly-loaded vs. fragmented
//!   databases.

pub mod export;
pub mod import;
pub mod nav;
pub mod node;
pub mod store;
pub mod update;

pub use import::{import_into, ImportConfig, ImportReport, Placement};
pub use nav::{
    ClusterPin, Entry, FullCursor, NavCharge, NavCounters, NavParams, ResolvedTest, StepCursor,
    StepItem,
};
pub use node::{Cluster, IdHasher, IdMap, IdSet, Node, NodeId, NodeKind, Span, ORDER_SPACING};
pub use store::{TreeMeta, TreeStore};
pub use update::{InsertPos, NewNode, TreeUpdater, UpdateError};
