//! The simulated CPU cost of every operation the engine charges, in
//! nanoseconds. Every `charge_cpu` call in the workspace and the
//! optimizer's CPU estimate read these constants. They approximate a
//! 2005-era CPU, calibrated so each plan's CPU share lands near the
//! paper's Table 3. Device time is the [`DiskProfile`](crate::DiskProfile).

/// A navigation cursor touches one stored node (`pathix_tree::nav`).
pub const VISIT_NS: u64 = 1_000;

/// A navigation cursor evaluates one node test (`pathix_tree::nav`).
pub const TEST_NS: u64 = 350;

/// Decoding one record of a page, the representation change of §3.6
/// (`pathix_tree::node::decode_cluster`).
pub const DECODE_NODE_NS: u64 = 700;

/// Every buffer fix, hit or miss: page-table lookup plus latch, the
/// swizzling cost `XStep`s avoid by passing pointers.
pub const FIX_HIT_NS: u64 = 2_500;

/// A buffer miss or prefetch completion beyond device and decode time:
/// frame allocation and bookkeeping.
pub const MISS_OVERHEAD_NS: u64 = 12_000;

/// A read or submit through the shared page cache: hash, lock, refcount.
pub const CACHE_PROBE_NS: u64 = 1_000;

/// One `R`/`S` hash operation, or one duplicate check of the Simple plan
/// (`pathix_core::context`).
pub const SET_OP_NS: u64 = 2_000;

/// One insert or pop on XSchedule's queue `Q` (`pathix_core::context`).
pub const QUEUE_OP_NS: u64 = 1_200;

/// One path instance passed between operators (`pathix_core::context`).
pub const INSTANCE_NS: u64 = 500;

/// One comparison of the document-order result sort (`pathix_core::plan`).
pub const SORT_CMP_NS: u64 = 30;
