//! Bottom-up skeletonization — Algorithm II.1 of the paper.
//!
//! Leaves are skeletonized by an ID of the sampled off-node block
//! `K_{S' α}`; an internal node is skeletonized by an ID of
//! `K_{S' [l̃ r̃]}` over its children's skeletons, so its skeleton is a
//! subset of `l̃ ∪ r̃` (the nested property). Traversal is level-by-level
//! from the deepest level up, parallel across the nodes of each level —
//! exactly the parallelization scheme of the paper's shared-memory layer.

use crate::config::SkelConfig;
use crate::sampling::sample_rows;
use crate::skeleton::{NodeSkeleton, SkeletonTree};
use kfds_kernels::{eval_block, eval_blocks, BlockSpec, Kernel};
use kfds_la::workspace::WsIdx;
use kfds_la::{group_by_shape, interp_decomp, workspace, Mat};
use kfds_tree::{knn_all, knn_approximate, BallTree, NeighborLists};
use rayon::prelude::*;

/// Builds the hierarchical (skeletonized) representation of the kernel
/// matrix over `tree` — the "ASKIT construction" phase.
///
/// Nodes at depth `< config.max_level` are left unskeletonized (level
/// restriction); with `config.adaptive_frontier` a node that achieves no
/// compression also terminates skeletonization along its ancestor path.
pub fn skeletonize<K: Kernel>(tree: BallTree, kernel: &K, config: SkelConfig) -> SkeletonTree {
    let nn = compute_neighbors(&tree, &config);
    skeletonize_with_neighbors(tree, kernel, config, &nn)
}

/// The kNN phase of the construction, exposed separately so harnesses can
/// time tree build / neighbor search / skeletonization individually (the
/// perf-trajectory setup breakdown).
pub fn compute_neighbors(tree: &BallTree, config: &SkelConfig) -> NeighborLists {
    let n = tree.points().len();
    let kappa = config.neighbors.min(n.saturating_sub(1)).max(1);
    match config.approx_knn_trees {
        Some(t) if n > kappa + 1 => knn_approximate(tree, kappa, t, config.seed),
        _ => knn_all(tree, kappa),
    }
}

/// [`skeletonize`] with precomputed neighbor lists (`nn` must come from
/// [`compute_neighbors`] on the same tree and config).
pub fn skeletonize_with_neighbors<K: Kernel>(
    tree: BallTree,
    kernel: &K,
    config: SkelConfig,
    nn: &NeighborLists,
) -> SkeletonTree {
    let n_nodes = tree.nodes().len();
    let mut skeletons: Vec<Option<NodeSkeleton>> = (0..n_nodes).map(|_| None).collect();

    // Deepest level first; each level only reads skeletons of deeper levels.
    for level in (config.max_level..=tree.depth()).rev() {
        let level_nodes: Vec<usize> = tree.nodes_at_level(level).to_vec();
        let results: Vec<(usize, Option<NodeSkeleton>)> = if kfds_la::batch_active() {
            skeletonize_level_batched(&tree, kernel, nn, &skeletons, &level_nodes, &config)
        } else {
            level_nodes
                .par_iter()
                .map(|&i| (i, skeletonize_node(&tree, kernel, nn, &skeletons, i, &config)))
                .collect()
        };
        for (i, sk) in results {
            skeletons[i] = sk;
        }
    }
    SkeletonTree::new(tree, skeletons, config)
}

/// One planned level of the batched construction (`KFDS_BATCH`): per-node
/// row/column sampling first (deterministic per `(seed, node)` regardless
/// of scheduling), then per block-shape group one batched evaluation of
/// the sampled kernel blocks `K_{S' α}` followed immediately by that
/// group's IDs (blocks stay cache-hot between eval and decomposition).
/// Bitwise identical to the per-node path: the same blocks feed the same
/// rank-revealing QR in the same per-node arithmetic order — only the
/// launch structure differs.
fn skeletonize_level_batched<K: Kernel>(
    tree: &BallTree,
    kernel: &K,
    nn: &NeighborLists,
    skeletons: &[Option<NodeSkeleton>],
    level_nodes: &[usize],
    config: &SkelConfig,
) -> Vec<(usize, Option<NodeSkeleton>)> {
    let mut out: Vec<(usize, Option<NodeSkeleton>)> =
        level_nodes.iter().map(|&i| (i, None)).collect();

    // Stage 1 — sampling. `cols` lists stay checked out of the index pool
    // until the IDs resolve skeleton indices through them.
    struct Sampled {
        pos: usize,
        rows: Vec<usize>,
        cols: WsIdx,
        internal: bool,
    }
    let sampled: Vec<Option<Sampled>> = level_nodes
        .par_iter()
        .enumerate()
        .map(|(pos, &node)| -> Option<Sampled> {
            let nd = tree.node(node);
            let mut cols = workspace::take_idx(nd.len());
            match nd.children {
                None => cols.extend(nd.range()),
                Some((l, r)) => {
                    let (ls, rs) = (skeletons[l].as_ref()?, skeletons[r].as_ref()?);
                    cols.extend(ls.skeleton.iter().chain(rs.skeleton.iter()).copied());
                }
            }
            if cols.is_empty() {
                return None;
            }
            let rows = sample_rows(tree, nn, &cols, nd.begin, nd.end, node, config);
            if rows.is_empty() {
                return None;
            }
            Some(Sampled { pos, rows, cols, internal: nd.children.is_some() })
        })
        .collect();
    let sampled: Vec<Sampled> = sampled.into_iter().flatten().collect();
    if sampled.is_empty() {
        return out;
    }

    // Stages 2+3 — per shape group: evaluate the group's blocks in one
    // batched call, then run its IDs immediately while the blocks are
    // still cache-hot. (Materializing the *whole* level before any ID
    // starts costs more in locality than the launch grouping saves —
    // each block is evaluated and decomposed identically either way, so
    // the pipelining is invisible to the bits.)
    let shapes: Vec<(usize, usize)> =
        sampled.iter().map(|s| (s.rows.len(), s.cols.len())).collect();
    for (_, idxs) in group_by_shape(&shapes, |&sh| sh) {
        let specs: Vec<BlockSpec<'_>> = idxs
            .iter()
            .map(|&k| BlockSpec::RowsByCols { rows: &sampled[k].rows, cols: &sampled[k].cols })
            .collect();
        let (mats, _groups) = eval_blocks(kernel, tree.points(), &specs);
        let items: Vec<(usize, Mat)> = idxs.iter().copied().zip(mats).collect();
        let done: Vec<(usize, Option<NodeSkeleton>)> = items
            .into_par_iter()
            .map(|(k, block)| {
                let s = &sampled[k];
                let id = interp_decomp(block, config.tol, config.max_rank);
                let sk = if id.rank() == 0 {
                    // Off-node interactions numerically zero: empty
                    // skeleton is valid — U V vanish for this node.
                    Some(NodeSkeleton {
                        skeleton: Vec::new(),
                        proj: Mat::zeros(0, s.cols.len()),
                        sigma_est: Vec::new(),
                    })
                } else if config.adaptive_frontier && s.internal && id.is_full_rank() {
                    // α̃ = l̃ ∪ r̃: no compression; stop the recursion here
                    // (paper §II-A "Level restriction").
                    None
                } else {
                    let skeleton: Vec<usize> = id.skeleton.iter().map(|&c| s.cols[c]).collect();
                    Some(NodeSkeleton { skeleton, proj: id.proj, sigma_est: id.sigma_est })
                };
                (s.pos, sk)
            })
            .collect();
        for (pos, sk) in done {
            out[pos].1 = sk;
        }
    }
    out
}

/// Skeletonizes one node, or returns `None` when the node cannot (children
/// unskeletonized, nothing outside to sample) or should not (adaptive
/// frontier, no compression) be skeletonized.
fn skeletonize_node<K: Kernel>(
    tree: &BallTree,
    kernel: &K,
    nn: &NeighborLists,
    skeletons: &[Option<NodeSkeleton>],
    node: usize,
    config: &SkelConfig,
) -> Option<NodeSkeleton> {
    let nd = tree.node(node);
    // The ID columns: the node's own points (leaf) or the children's
    // skeleton points (internal, nested basis). Pooled — this per-node
    // union list is rebuilt for every node of every level.
    let mut cols = workspace::take_idx(nd.len());
    match nd.children {
        None => cols.extend(nd.range()),
        Some((l, r)) => {
            let (ls, rs) = (skeletons[l].as_ref()?, skeletons[r].as_ref()?);
            cols.extend(ls.skeleton.iter().chain(rs.skeleton.iter()).copied());
        }
    };
    if cols.is_empty() {
        return None;
    }
    let rows = sample_rows(tree, nn, &cols, nd.begin, nd.end, node, config);
    if rows.is_empty() {
        return None; // nothing outside the node: cannot compress
    }
    // The sampled block is pooled storage (eval_block) and is consumed by
    // the ID, which recycles it along with its own scratch.
    let block = eval_block(kernel, tree.points(), &rows, &cols);
    let id = interp_decomp(block, config.tol, config.max_rank);
    if id.rank() == 0 {
        // Off-node interactions are numerically zero (tiny bandwidth):
        // an empty skeleton is valid — U V vanish for this node.
        return Some(NodeSkeleton {
            skeleton: Vec::new(),
            proj: kfds_la::Mat::zeros(0, cols.len()),
            sigma_est: Vec::new(),
        });
    }
    if config.adaptive_frontier && nd.children.is_some() && id.is_full_rank() {
        // α̃ = l̃ ∪ r̃: no compression happened; stop the recursion here
        // (paper §II-A "Level restriction").
        return None;
    }
    let skeleton: Vec<usize> = id.skeleton.iter().map(|&c| cols[c]).collect();
    Some(NodeSkeleton { skeleton, proj: id.proj, sigma_est: id.sigma_est })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfds_kernels::Gaussian;
    use kfds_tree::datasets::{normal_embedded, uniform_cube};

    fn build(n: usize, m: usize, tol: f64, max_level: usize) -> SkeletonTree {
        let p = uniform_cube(n, 3, 7);
        let tree = BallTree::build(&p, m);
        let cfg = SkelConfig::default()
            .with_tol(tol)
            .with_max_rank(64)
            .with_neighbors(8)
            .with_max_level(max_level);
        skeletonize(tree, &Gaussian::new(1.0), cfg)
    }

    #[test]
    fn all_nonroot_nodes_skeletonized_without_restriction() {
        let st = build(256, 32, 1e-7, 1);
        assert!(st.is_fully_skeletonized());
        assert!(!st.is_skeletonized(st.tree().root()));
        // Frontier = children of the root.
        let (l, r) = st.tree().node(0).children.expect("root has children");
        let mut f = st.frontier().to_vec();
        f.sort_unstable();
        let mut want = vec![l, r];
        want.sort_unstable();
        assert_eq!(f, want);
    }

    #[test]
    fn level_restriction_respected() {
        let st = build(512, 32, 1e-5, 2);
        for (i, nd) in st.tree().nodes().iter().enumerate() {
            if nd.level < 2 {
                assert!(!st.is_skeletonized(i), "node {i} at level {} skeletonized", nd.level);
            } else {
                assert!(st.is_skeletonized(i));
            }
        }
        for &f in st.frontier() {
            assert_eq!(st.tree().node(f).level, 2);
        }
    }

    #[test]
    fn skeleton_points_belong_to_node() {
        let st = build(256, 32, 1e-5, 1);
        for (i, nd) in st.tree().nodes().iter().enumerate() {
            if let Some(sk) = st.skeleton(i) {
                for &s in &sk.skeleton {
                    assert!(nd.range().contains(&s), "skeleton point {s} outside node {i}");
                }
            }
        }
    }

    #[test]
    fn nested_property() {
        // An internal skeleton is a subset of the children's skeletons.
        let st = build(512, 32, 1e-4, 1);
        for (i, nd) in st.tree().nodes().iter().enumerate() {
            if let (Some(sk), Some((l, r))) = (st.skeleton(i), nd.children) {
                let union: std::collections::HashSet<usize> = st
                    .skeleton(l)
                    .into_iter()
                    .chain(st.skeleton(r))
                    .flat_map(|s| s.skeleton.iter().copied())
                    .collect();
                for &s in &sk.skeleton {
                    assert!(union.contains(&s), "node {i}: skeleton {s} not nested");
                }
            }
        }
    }

    #[test]
    fn low_intrinsic_dim_compresses() {
        // Points on a 2-D manifold in 8-D: ranks should saturate well below
        // the node sizes near the top.
        let p = normal_embedded(512, 2, 8, 0.01, 3);
        let tree = BallTree::build(&p, 32);
        let cfg = SkelConfig::default().with_tol(1e-4).with_max_rank(64).with_neighbors(8);
        let st = skeletonize(tree, &Gaussian::new(2.0), cfg);
        let stats = st.rank_stats();
        // Level-1 nodes hold 256 points but must be represented by <= 64
        // skeletons (and typically far fewer for a smooth kernel).
        let (_, _, max1) = stats[1];
        assert!(max1 <= 64);
        assert!(st.is_fully_skeletonized());
    }

    #[test]
    fn apply_p_roundtrip_shapes() {
        let st = build(128, 16, 1e-6, 1);
        let (l, _) = st.tree().node(0).children.expect("children");
        let sk = st.skeleton(l).expect("skeletonized");
        let z: Vec<f64> = (0..sk.rank()).map(|i| i as f64 * 0.1 + 1.0).collect();
        let x = st.apply_p(l, &z);
        assert_eq!(x.len(), st.tree().node(l).len());
        let y = st.apply_p_t(l, &x);
        assert_eq!(y.len(), sk.rank());
    }

    #[test]
    fn blocked_path_preserves_invariants() {
        // The blocked RRQR + GEMM assembly must preserve the structural
        // guarantees of the construction: every non-root node skeletonized,
        // nested skeletons, skeleton points inside their node.
        let p = normal_embedded(512, 2, 8, 0.01, 5);
        let tree = BallTree::build(&p, 32);
        let cfg = SkelConfig::default()
            .with_tol(1e-5)
            .with_max_rank(96)
            .with_neighbors(8)
            .with_max_level(1);
        let st = skeletonize(tree, &Gaussian::new(1.5), cfg);
        assert!(st.is_fully_skeletonized());
        for (i, nd) in st.tree().nodes().iter().enumerate() {
            if let Some(sk) = st.skeleton(i) {
                for &s in &sk.skeleton {
                    assert!(nd.range().contains(&s), "skeleton point {s} outside node {i}");
                }
            }
            if let (Some(sk), Some((l, r))) = (st.skeleton(i), nd.children) {
                let union: std::collections::HashSet<usize> = st
                    .skeleton(l)
                    .into_iter()
                    .chain(st.skeleton(r))
                    .flat_map(|s| s.skeleton.iter().copied())
                    .collect();
                for &s in &sk.skeleton {
                    assert!(union.contains(&s), "node {i}: skeleton {s} not nested");
                }
            }
        }
    }

    #[test]
    fn apply_p_matches_dense_composition() {
        // Explicitly build P_{α α̃} for a level-1 node by composing the
        // stored projections and compare with apply_p on basis vectors.
        let st = build(128, 16, 0.0, 1); // tol 0: full-rank IDs, exact
        let tree = st.tree();
        let (l, _) = tree.node(0).children.expect("children");
        let sk = st.skeleton(l).expect("skeletonized");
        let s = sk.rank();
        let nl = tree.node(l).len();
        // Column k of P_{α α̃} via apply_p(e_k).
        let mut dense = kfds_la::Mat::zeros(nl, s);
        for k in 0..s {
            let mut e = vec![0.0; s];
            e[k] = 1.0;
            let col = st.apply_p(l, &e);
            dense.col_mut(k).copy_from_slice(&col);
        }
        // P has identity rows at the skeleton positions: P_{α α̃} restricted
        // to skeleton rows is the identity.
        let begin = tree.node(l).begin;
        for (k, &gs) in sk.skeleton.iter().enumerate() {
            for kk in 0..s {
                let want = if kk == k { 1.0 } else { 0.0 };
                let got = dense[(gs - begin, kk)];
                assert!((got - want).abs() < 1e-8, "({k},{kk}): {got}");
            }
        }
    }
}
