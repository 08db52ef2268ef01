//! # kfds-shard — sharded serve tier for the fast direct solver
//!
//! The paper's distributed Algorithms II.4/II.5 assign each rank a
//! subtree of the hierarchical factorization; this crate brings that
//! ownership shape to the serving layer. A [`ShardRouter`] fronts `p`
//! shard worker threads: each worker owns one rank-owned subtree of a
//! [`kfds_core::PartitionedFactor`] (the tree cut at level `log2 p`),
//! solves its contiguous RHS row block with the exact single-node
//! recursion, and the router stitches the partial solves together
//! through the shared top tree — so the sharded answer is bitwise
//! identical to the unsharded blocked solve.
//!
//! RHS blocks move over [`kfds_rt::Transport`] (the in-process channel
//! [`kfds_rt::Comm`] today; a wire backend later), and caching is a
//! three-level hierarchy built from one generic
//! [`SingleFlightCache`]: `kfds-serve`'s λ-free setup cache (built once
//! per shard group) → the router's shard-group partition cache (one
//! [`kfds_core::PartitionedFactor`] per factor key) → each worker's
//! local cache, filled by [`SingleFlightCache::peek`] (workers never
//! build).
//!
//! `kfds-serve` mounts this for `sharded(p)` services (`p > 1`): they
//! route complete factorizations through the router and fall back to the
//! single-node path (bitwise the same) when a factor cannot shard.

#![forbid(unsafe_code)]

pub mod cache;
pub mod router;
pub mod stats;

pub use cache::{CacheError, SingleFlightCache};
pub use kfds_rt::sync::LockRank;
pub use router::{ShardError, ShardRouter};
pub use stats::ShardLane;
