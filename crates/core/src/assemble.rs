//! The λ-independent assembly stage of the factorization.
//!
//! λ enters the entire pipeline at exactly one line — the diagonal shift
//! `kaa[(i, i)] += λ` in [`crate::factor`] — yet a naive λ-sweep
//! re-evaluates every kernel block per λ. This module splits `factorize`
//! the way Minden–Ho–Damle–Ying separate compression from factorization:
//! [`assemble_blocks`] evaluates, once per (dataset, h, seed), every
//! kernel block the factorization will ever read —
//!
//! * leaf diagonal blocks `K_αα` (no λ shift applied), and
//! * internal coupling blocks `K_{l̃r}` / `K_{r̃l}` between a node's
//!   sibling skeletons,
//!
//! and [`crate::factorize_with_blocks`] /
//! [`crate::FactorTree::refactor`] then redo only the linear algebra
//! (diagonal shift, LU/Cholesky, `P̂` solves, reduced systems) per λ.
//! The skeleton projections `P_{αα̃}` are *not* duplicated here — they
//! already live λ-independently in the [`SkeletonTree`].
//!
//! The blocked path is bitwise-identical to a fresh `factorize` under
//! [`StorageMode::StoredGemv`](crate::StorageMode::StoredGemv): kernel
//! block evaluation is deterministic, so a cached block equals a freshly
//! evaluated one bit-for-bit, and every downstream operation is the same
//! code. (The GSKS fused path accumulates in a different order than GEMM
//! over a materialized block, so `factorize_with_blocks` pins the storage
//! mode to `StoredGemv`.)

use crate::config::LevelStats;
use kfds_askit::SkeletonTree;
use kfds_kernels::{eval_block_range, eval_blocks, eval_symmetric, flops, BlockSpec, Kernel};
use kfds_la::Mat;
use rayon::prelude::*;
use std::time::Instant;

/// The λ-independent kernel blocks cached for one tree node.
#[derive(Debug, Default)]
pub struct NodeBlocks {
    /// Leaf diagonal block `K_αα` (**without** the `λI` shift), for
    /// leaves in the factored region.
    pub kaa: Option<Mat>,
    /// `K_{l̃ r}` (`s_l x |r|`) for internal nodes in the factored region.
    pub k_lr: Option<Mat>,
    /// `K_{r̃ l}` (`s_r x |l|`) for internal nodes in the factored region.
    pub k_rl: Option<Mat>,
}

/// Assembly diagnostics, the λ-independent half of what
/// [`crate::FactorStats`] used to account per factorize call.
#[derive(Debug, Default, Clone)]
pub struct AssembleStats {
    /// Wall-clock seconds spent evaluating kernel blocks.
    pub seconds: f64,
    /// Kernel-evaluation flops (the GSKS epilogue cost a refactor skips).
    pub kernel_flops: f64,
    /// Bytes retained by the cached blocks.
    pub bytes: usize,
    /// Per-level breakdown of the batched level walk (root-last,
    /// bottom-up like [`crate::FactorStats::levels`]). Empty on the
    /// per-node path (`KFDS_BATCH=off`), which is node-, not
    /// level-parallel.
    pub levels: Vec<LevelStats>,
}

/// Every kernel block the factorization of `λI + K̃` reads, evaluated
/// once and reusable across arbitrarily many λ values. Indexed like the
/// skeleton tree's nodes.
#[derive(Debug)]
pub struct AssembledBlocks {
    nodes: Vec<NodeBlocks>,
    stats: AssembleStats,
    /// Point count of the tree these blocks were assembled over, so a
    /// mismatched (tree, blocks) pairing fails fast.
    n_points: usize,
}

impl AssembledBlocks {
    /// Blocks for node `i` (indexed like the tree's nodes).
    pub fn node(&self, i: usize) -> &NodeBlocks {
        &self.nodes[i]
    }

    /// Assembly diagnostics.
    pub fn stats(&self) -> &AssembleStats {
        &self.stats
    }

    /// Number of node slots (equals the tree's node count).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` for a zero-node store (never produced by
    /// [`assemble_blocks`] on a real tree).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Asserts this store was assembled over `st`'s tree shape.
    pub(crate) fn check_compatible(&self, st: &SkeletonTree) {
        assert_eq!(
            self.nodes.len(),
            st.tree().nodes().len(),
            "AssembledBlocks node count does not match the skeleton tree"
        );
        assert_eq!(
            self.n_points,
            st.tree().points().len(),
            "AssembledBlocks point count does not match the skeleton tree"
        );
    }
}

/// Evaluates every λ-independent kernel block of the factorization over
/// `st`: leaf `K_αα` diagonal blocks and internal `K_{l̃r}` / `K_{r̃l}`
/// coupling blocks, for all nodes in the factored region. Embarrassingly
/// parallel across nodes (no cross-node dependencies, unlike the
/// factorization itself which sweeps level by level).
pub fn assemble_blocks<K: Kernel>(st: &SkeletonTree, kernel: &K) -> AssembledBlocks {
    let t0 = Instant::now();
    let tree = st.tree();
    let pts = tree.points();
    let d = pts.dim();
    let per_eval = kernel.flops_per_eval();
    let mut levels: Vec<LevelStats> = Vec::new();
    let nodes: Vec<NodeBlocks> = if kfds_la::batch_active() {
        assemble_level_batched(st, kernel, &mut levels)
    } else {
        (0..tree.nodes().len())
            .into_par_iter()
            .map(|i| {
                if !crate::factor::in_factored_region(st, i) {
                    return NodeBlocks::default();
                }
                let nd = tree.node(i);
                match nd.children {
                    None => {
                        let kaa = eval_symmetric(kernel, pts, nd.range());
                        NodeBlocks { kaa: Some(kaa), ..Default::default() }
                    }
                    Some((l, r)) => {
                        let skl =
                            st.skeleton(l).expect("factorable node needs skeletonized children");
                        let skr =
                            st.skeleton(r).expect("factorable node needs skeletonized children");
                        let k_lr =
                            eval_block_range(kernel, pts, &skl.skeleton, tree.node(r).range());
                        let k_rl =
                            eval_block_range(kernel, pts, &skr.skeleton, tree.node(l).range());
                        NodeBlocks { kaa: None, k_lr: Some(k_lr), k_rl: Some(k_rl) }
                    }
                }
            })
            .collect()
    };

    let mut kernel_flops = 0.0;
    let mut bytes = 0usize;
    for nb in &nodes {
        for blk in [&nb.kaa, &nb.k_lr, &nb.k_rl].into_iter().flatten() {
            kernel_flops += flops::summation_flops(blk.nrows(), blk.ncols(), d, per_eval)
                - 2.0 * (blk.nrows() * blk.ncols()) as f64; // evaluation only, no reduction
            bytes += blk.nrows() * blk.ncols() * 8;
        }
    }
    let stats = AssembleStats { seconds: t0.elapsed().as_secs_f64(), kernel_flops, bytes, levels };
    AssembledBlocks { nodes, stats, n_points: pts.len() }
}

/// The batched assembly walk (`KFDS_BATCH`): instead of one task per
/// node, every kernel block of a tree level is requested through one
/// [`eval_blocks`] call — one gather + Gram GEMM + epilogue launch per
/// block *shape* group. Identical bits: each block is evaluated by the
/// same deterministic pipeline as the per-node calls, only the launch
/// structure differs. Assembly has no cross-level dependencies; levels
/// are walked bottom-up purely so the recorded [`LevelStats`] align with
/// the factorization sweep's.
fn assemble_level_batched<K: Kernel>(
    st: &SkeletonTree,
    kernel: &K,
    levels: &mut Vec<LevelStats>,
) -> Vec<NodeBlocks> {
    let tree = st.tree();
    let pts = tree.points();
    let mut nodes: Vec<NodeBlocks> =
        (0..tree.nodes().len()).map(|_| NodeBlocks::default()).collect();
    for level in (0..=tree.depth()).rev() {
        let lt0 = Instant::now();
        let level_nodes: Vec<usize> = tree
            .nodes_at_level(level)
            .iter()
            .copied()
            .filter(|&i| crate::factor::in_factored_region(st, i))
            .collect();
        if level_nodes.is_empty() {
            continue;
        }
        // Spec layout per node: leaf → [K_αα]; internal → [K_l̃r, K_r̃l].
        let mut specs: Vec<BlockSpec<'_>> = Vec::with_capacity(level_nodes.len() * 2);
        for &i in &level_nodes {
            let nd = tree.node(i);
            match nd.children {
                None => specs.push(BlockSpec::Symmetric { range: nd.range() }),
                Some((l, r)) => {
                    let skl = st.skeleton(l).expect("factorable node needs skeletonized children");
                    let skr = st.skeleton(r).expect("factorable node needs skeletonized children");
                    specs.push(BlockSpec::RowsByRange {
                        rows: &skl.skeleton,
                        range: tree.node(r).range(),
                    });
                    specs.push(BlockSpec::RowsByRange {
                        rows: &skr.skeleton,
                        range: tree.node(l).range(),
                    });
                }
            }
        }
        let (mats, op_groups) = eval_blocks(kernel, pts, &specs);
        let mut it = mats.into_iter();
        for &i in &level_nodes {
            match tree.node(i).children {
                None => nodes[i].kaa = Some(it.next().expect("kaa block")),
                Some(_) => {
                    nodes[i].k_lr = Some(it.next().expect("k_lr block"));
                    nodes[i].k_rl = Some(it.next().expect("k_rl block"));
                }
            }
        }
        levels.push(LevelStats {
            level,
            nodes: level_nodes.len(),
            op_groups,
            seconds: lt0.elapsed().as_secs_f64(),
        });
    }
    nodes
}
