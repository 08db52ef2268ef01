//! k-nearest-neighbor search on blocked (BLAS-3) distance tiles.
//!
//! ASKIT uses per-point nearest-neighbor lists to choose the sampled rows
//! `S'` of the skeletonization targets (§II-A: "κ is the number of nearest
//! neighbors used for skeletonization sampling").
//!
//! * The exact search is a dual-tree / leaf-blocked all-nearest-neighbors
//!   traversal — a node-vs-node ball bound against the *max* of a query
//!   leaf's current k-th-best radii, then a per-query ball bound, prune
//!   candidate nodes; each surviving leaf×leaf pair resolves as one GEMM
//!   distance tile ([`crate::dist_tiles::dist_tile_ranges`]) whose
//!   columns pass a SIMD selection gate
//!   ([`kfds_la::simd::next_not_above`]) before the few admissible
//!   entries reach the per-query [`KBest`] heaps.
//! * The approximate search batches the projection-tree split keys (one
//!   SIMD dot per point per split, cached outside the
//!   `select_nth_unstable_by` comparator), then merges bucket-major: tree
//!   by tree, each bucket is scored as one symmetric GEMM tile in pooled
//!   scratch and its rows go straight into the members' duplicate-
//!   rejecting heaps.
//!
//! Both order every neighbor list by `(distance, index)` and recompute the
//! reported distances with the scalar [`sq_dist`], so the exact search is
//! bitwise equal to [`knn_brute_force`] whenever the selected neighbor sets
//! agree (see the tolerance model in [`crate::dist_tiles`]).

use crate::balltree::BallTree;
use crate::dist_tiles;
use crate::points::{sq_dist, PointSet};
use kfds_la::{simd, workspace, MatMut};
use rayon::prelude::*;
use std::cmp::Ordering;
use std::ops::Range;

/// k-nearest-neighbor lists for every point of a tree's point set.
///
/// Indices are **permuted positions** (the tree's ordering), which is what
/// the skeletonization consumes directly.
#[derive(Clone, Debug)]
pub struct NeighborLists {
    k: usize,
    /// Row-major `n x k`: `idx[i*k + j]` = j-th nearest neighbor of point i.
    idx: Vec<u32>,
    /// Matching squared distances.
    dist: Vec<f64>,
}

impl NeighborLists {
    /// Number of neighbors per point.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Neighbors of point `i` (permuted positions), nearest first.
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.idx[i * self.k..(i + 1) * self.k]
    }

    /// Squared distances to the neighbors of `i`, nearest first.
    pub fn distances(&self, i: usize) -> &[f64] {
        &self.dist[i * self.k..(i + 1) * self.k]
    }
}

/// `(dist, idx)` lexicographic "less than" — the total order used for all
/// heap comparisons and output sorting. Breaking exact distance ties by
/// index makes the selected set (and its order) independent of insertion
/// order, which is what lets the exact search and [`knn_brute_force`]
/// return bitwise-identical lists.
#[inline]
fn cand_lt(a: (f64, u32), b: (f64, u32)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// Comparator form of [`cand_lt`] for sorts.
fn cand_cmp(a: &(f64, u32), b: &(f64, u32)) -> Ordering {
    a.0.partial_cmp(&b.0).expect("NaN distance").then(a.1.cmp(&b.1))
}

/// A bounded max-heap of `(distance, index)` candidates under the
/// lexicographic order of [`cand_lt`].
struct KBest {
    k: usize,
    heap: Vec<(f64, u32)>,
}

impl KBest {
    fn new(k: usize) -> Self {
        KBest { k, heap: Vec::with_capacity(k + 1) }
    }

    /// Current k-th-best squared distance (∞ while the heap is short) —
    /// the pruning radius τ.
    #[inline]
    fn worst(&self) -> f64 {
        if self.heap.len() < self.k {
            f64::INFINITY
        } else {
            self.heap[0].0
        }
    }

    fn push(&mut self, d: f64, i: u32) {
        let e = (d, i);
        if self.heap.len() < self.k {
            self.heap.push(e);
            // Sift up.
            let mut c = self.heap.len() - 1;
            while c > 0 {
                let p = (c - 1) / 2;
                if cand_lt(self.heap[p], self.heap[c]) {
                    self.heap.swap(p, c);
                    c = p;
                } else {
                    break;
                }
            }
        } else if cand_lt(e, self.heap[0]) {
            self.heap[0] = e;
            // Sift down.
            let mut p = 0;
            loop {
                let (l, r) = (2 * p + 1, 2 * p + 2);
                let mut m = p;
                if l < self.heap.len() && cand_lt(self.heap[m], self.heap[l]) {
                    m = l;
                }
                if r < self.heap.len() && cand_lt(self.heap[m], self.heap[r]) {
                    m = r;
                }
                if m == p {
                    break;
                }
                self.heap.swap(p, m);
                p = m;
            }
        }
    }

    /// [`Self::push`] that rejects an index already in the heap — used when
    /// the candidate stream carries cross-tree duplicates. The `O(k)` scan
    /// only runs on candidates that pass the `worst()` gate (a duplicate
    /// with a bitwise-equal distance whose first copy was evicted compares
    /// `>=` the current worst under the lexicographic order, so it is
    /// gated out before the scan).
    #[inline]
    fn push_distinct(&mut self, d: f64, i: u32) {
        if self.heap.len() == self.k && !cand_lt((d, i), self.heap[0]) {
            return;
        }
        if self.heap.iter().any(|&(_, j)| j == i) {
            return;
        }
        self.push(d, i);
    }

    /// The kept candidates, unordered.
    fn into_entries(self) -> Vec<(f64, u32)> {
        self.heap
    }
}

/// Computes exact k-nearest neighbors (excluding the point itself) for all
/// points in `tree`, in parallel: dual-tree all-nearest-neighbors over
/// query leaves, one GEMM distance tile per surviving leaf×leaf pair.
///
/// # Panics
/// Panics if `k >= n` or `k == 0`.
pub fn knn_all(tree: &BallTree, k: usize) -> NeighborLists {
    let pts = tree.points();
    let n = pts.len();
    assert!(k > 0 && k < n, "need 0 < k < n (k={k}, n={n})");

    let mut norms = workspace::take(n);
    pts.sq_norms_into(&mut norms);
    let norms: &[f64] = &norms;
    let slack = prune_slack(pts.dim(), norms);

    let mut idx = vec![0u32; n * k];
    let mut dist = vec![0.0f64; n * k];

    // Leaves are preorder, so their (contiguous) ranges ascend and tile the
    // output rows exactly: carve one output chunk per query leaf.
    let leaves = tree.leaves();
    let mut jobs: Vec<(usize, &mut [u32], &mut [f64])> = Vec::with_capacity(leaves.len());
    let mut idx_rest: &mut [u32] = &mut idx;
    let mut dist_rest: &mut [f64] = &mut dist;
    for &lf in &leaves {
        let m = tree.node(lf).len();
        let (ichunk, irest) = idx_rest.split_at_mut(m * k);
        let (dchunk, drest) = dist_rest.split_at_mut(m * k);
        idx_rest = irest;
        dist_rest = drest;
        jobs.push((lf, ichunk, dchunk));
    }

    jobs.into_par_iter().for_each(|(lf, irow, drow)| {
        leaf_all_nn(tree, norms, slack, lf, k, irow, drow);
    });

    NeighborLists { k, idx, dist }
}

/// Safety margin of the prune tests: an upper bound on how far a tile
/// distance can undershoot the geometric lower bound it is tested against.
///
/// A tile entry carries the Gram-identity residual, at most about
/// `2(d+2)·eps·(‖x‖² + ‖y‖²)`, and the ball bound's own `sqrt` and
/// radius rounding is of the same order relative to `max ‖y‖²` (centers
/// and radii are within `2·max ‖y‖` of the origin). `64(d+2)·eps·max ‖y‖²`
/// covers both, and is far below any distance gap a prune relies on.
fn prune_slack(d: usize, sq_norms: &[f64]) -> f64 {
    let max_norm = sq_norms.iter().fold(0.0f64, |a, &b| a.max(b));
    64.0 * (d + 2) as f64 * f64::EPSILON * max_norm
}

/// All-nearest-neighbors for the queries of one leaf: self tile first (to
/// tighten the radii), then a closer-child-first DFS over candidate nodes.
///
/// A node `C` is skipped when no query can improve on it. The cheap
/// first test compares the node-to-node gap against the largest radius,
/// `max(0, ‖c_Q − c_C‖ − r_Q − r_C)² > max_i worst_i + slack`; the
/// per-query test then compares each query's own bound,
/// `max(0, ‖x_i − c_C‖ − r_C)² > worst_i + slack` for every `i`, so one
/// outlier query no longer keeps every node alive. Both are strict and
/// padded by [`prune_slack`]: a candidate at exactly `worst_i` with a
/// smaller index still enters a heap, and tile distances carry the
/// Gram-identity residual, so a prune never drops a candidate the full
/// scan would have kept.
fn leaf_all_nn(
    tree: &BallTree,
    norms: &[f64],
    slack: f64,
    lf: usize,
    k: usize,
    irow: &mut [u32],
    drow: &mut [f64],
) {
    let pts = tree.points();
    let nd = tree.node(lf);
    let qr = nd.range();
    let m = nd.len();

    let mut tile = workspace::take(m * tree.leaf_size());
    let mut best: Vec<KBest> = (0..m).map(|_| KBest::new(k)).collect();
    // The gate's bounds, kept equal to `best[i].worst()` at all times.
    let mut worst = workspace::take(m);
    worst.fill(f64::INFINITY);

    score_leaf_pair(pts, norms, qr.clone(), qr.clone(), &mut tile, &mut best, &mut worst, true);
    let mut tau = worst.iter().fold(0.0f64, |a, &w| a.max(w));

    let (qc, qrad) = (&nd.center, nd.radius);
    let mut stack: Vec<usize> = Vec::with_capacity(2 * tree.depth() + 2);
    stack.push(tree.root());
    while let Some(c) = stack.pop() {
        if c == lf {
            continue;
        }
        let cn = tree.node(c);
        let gap = (sq_dist(qc, &cn.center).sqrt() - qrad - cn.radius).max(0.0);
        if gap * gap > tau + slack {
            continue;
        }
        let beyond_every_query = qr.clone().zip(worst.iter()).all(|(i, &w)| {
            let lb = (sq_dist(pts.point(i), &cn.center).sqrt() - cn.radius).max(0.0);
            lb * lb > w + slack
        });
        if beyond_every_query {
            continue;
        }
        if cn.is_leaf() {
            score_leaf_pair(
                pts,
                norms,
                qr.clone(),
                cn.range(),
                &mut tile,
                &mut best,
                &mut worst,
                false,
            );
            tau = worst.iter().fold(0.0f64, |a, &w| a.max(w));
        } else {
            let (l, r) = cn.children.expect("internal node");
            let dl = sq_dist(qc, &tree.node(l).center);
            let dr = sq_dist(qc, &tree.node(r).center);
            // Push the farther child first so the closer one pops first.
            if dl <= dr {
                stack.push(r);
                stack.push(l);
            } else {
                stack.push(l);
                stack.push(r);
            }
        }
    }

    // Finalize: recompute the selected distances with the scalar sq_dist
    // (tile distances carry the Gram-identity residual) and sort by
    // (dist, idx) — bitwise equal to brute force when the selected sets
    // agree.
    for (i, b) in best.into_iter().enumerate() {
        let qp = pts.point(qr.start + i);
        let mut sel = b.into_entries();
        for e in &mut sel {
            e.0 = sq_dist(qp, pts.point(e.1 as usize));
        }
        sel.sort_by(cand_cmp);
        for (j, &(d, id)) in sel.iter().enumerate() {
            irow[i * k + j] = id;
            drow[i * k + j] = d;
        }
    }
}

/// Scores one leaf×leaf pair through a GEMM distance tile and feeds the
/// query heaps. `self_block` skips the diagonal (a query is not its own
/// neighbor).
///
/// Each tile column (one candidate) is scanned against the queries'
/// current k-th-best distances `worst` with the
/// [`kfds_la::simd::next_not_above`] gate; only the rows it returns reach
/// [`KBest::push`], and `worst` is refreshed after each push. The gate
/// passes everything a push could accept (NaN while a heap is short, and
/// a tie that wins on index), so the heaps evolve exactly as if every
/// entry were pushed.
#[allow(clippy::too_many_arguments)]
fn score_leaf_pair(
    pts: &PointSet,
    norms: &[f64],
    q: Range<usize>,
    c: Range<usize>,
    tile: &mut [f64],
    best: &mut [KBest],
    worst: &mut [f64],
    self_block: bool,
) {
    let (m, nc) = (q.len(), c.len());
    let out = MatMut::from_parts(&mut tile[..m * nc], m, nc, m);
    dist_tiles::dist_tile_ranges(pts, norms, q, c.clone(), out);
    for j in 0..nc {
        let col = &tile[j * m..(j + 1) * m];
        let cid = (c.start + j) as u32;
        let mut i = simd::next_not_above(col, worst, 0);
        while i < m {
            if !(self_block && i == j) {
                best[i].push(col[i], cid);
                worst[i] = best[i].worst();
            }
            i = simd::next_not_above(col, worst, i + 1);
        }
    }
}

/// Approximate kNN via randomized projection trees — the scheme ASKIT
/// uses in high ambient dimensions, where ball-pruned exact search
/// degenerates to `O(N²d)`.
///
/// `n_trees` random trees are built by recursively splitting on random
/// directions at the median; each point's candidate set is the union of
/// its leaf buckets across trees, and distances are computed only among
/// candidates: `O(T·N·bucket·d)` total. Recall improves with `n_trees`;
/// indices refer to the *permuted* positions of `tree`, like [`knn_all`].
///
/// The trees split on batched, cached projection keys (one SIMD dot per
/// point per split). The merge is bucket-major: tree by tree, every bucket
/// is scored as one symmetric GEMM tile
/// ([`crate::dist_tiles::dist_tile_sym`]) in pooled scratch and its rows
/// merge into the members' duplicate-rejecting heaps while the tile is in
/// cache. Each heap sees its candidates in tree order, then bucket-column
/// order, so the lists do not depend on the thread count.
///
/// # Panics
/// Panics if `k >= n`, `k == 0`, or `n_trees == 0`.
pub fn knn_approximate(tree: &BallTree, k: usize, n_trees: usize, seed: u64) -> NeighborLists {
    let pts = tree.points();
    let n = pts.len();
    assert!(k > 0 && k < n, "need 0 < k < n (k={k}, n={n})");
    assert!(n_trees > 0, "need at least one projection tree");
    let bucket = (4 * k).max(32).min(n);

    // For each projection tree, bucket ids per point. Trees are independent
    // and seeded per index, so they are built in parallel.
    let buckets: Vec<Vec<u32>> = (0..n_trees)
        .into_par_iter()
        .map(|t| projection_tree_buckets(pts, t, seed, bucket))
        .collect();

    let mut norms = workspace::take(n);
    pts.sq_norms_into(&mut norms);
    let norms: &[f64] = &norms;

    let mut best: Vec<KBest> = (0..n).map(|_| KBest::new(k)).collect();
    for assignment in &buckets {
        // A tree's buckets partition the points: hand every bucket its
        // members (ascending) together with the `&mut` of their heaps, in
        // the same order, so a member's rank is its tile row.
        let nb = assignment.iter().copied().max().unwrap_or(0) as usize + 1;
        let mut groups: Vec<(Vec<u32>, Vec<&mut KBest>)> =
            (0..nb).map(|_| (Vec::new(), Vec::new())).collect();
        for (q, (heap, &b)) in best.iter_mut().zip(assignment).enumerate() {
            let (mem, heaps) = &mut groups[b as usize];
            mem.push(q as u32);
            heaps.push(heap);
        }
        groups.into_par_iter().for_each(|(mem, mut heaps)| {
            let len = mem.len();
            let mut tile = workspace::take(len * len);
            dist_tiles::dist_tile_sym(
                pts,
                norms,
                &mem,
                MatMut::from_parts(&mut tile, len, len, len),
            );
            // Member `row` reads its tile row; cross-tree duplicates carry
            // bitwise-equal tile distances.
            for (row, (heap, &q)) in heaps.iter_mut().zip(&mem).enumerate() {
                for (jj, &c) in mem.iter().enumerate() {
                    if c != q {
                        heap.push_distinct(tile[jj * len + row], c);
                    }
                }
            }
        });
    }

    let mut idx_out = vec![0u32; n * k];
    let mut dist_out = vec![0.0f64; n * k];
    idx_out
        .par_chunks_mut(k)
        .zip(dist_out.par_chunks_mut(k))
        .zip(best.into_par_iter())
        .enumerate()
        .for_each(|(q, ((irow, drow), heap))| finalize_approx_row(pts, q, heap, k, irow, drow));

    NeighborLists { k, idx: idx_out, dist: dist_out }
}

/// Tail of the approximate search: exact-distance recompute (candidates
/// were selected on tile distances), `(dist, idx)` sort, row write-out, and
/// the candidates-short-of-`k` padding with the smallest indices not
/// already present (sorted among themselves, so the row stays
/// duplicate-free).
fn finalize_approx_row(
    pts: &PointSet,
    q: usize,
    best: KBest,
    k: usize,
    irow: &mut [u32],
    drow: &mut [f64],
) {
    let mut sel = best.into_entries();
    // Same exact-recompute finalization as the dual-tree path.
    let qp = pts.point(q);
    for e in &mut sel {
        e.0 = sq_dist(qp, pts.point(e.1 as usize));
    }
    sel.sort_by(cand_cmp);
    for (j, &(d, i)) in sel.iter().enumerate() {
        irow[j] = i;
        drow[j] = d;
    }
    if sel.len() < k {
        let mut pad: Vec<(f64, u32)> = Vec::with_capacity(k - sel.len());
        let mut c = 0u32;
        while sel.len() + pad.len() < k {
            if c as usize != q && !sel.iter().any(|&(_, i)| i == c) {
                pad.push((pts.sq_dist(q, c as usize), c));
            }
            c += 1;
        }
        pad.sort_by(cand_cmp);
        for (j, &(d, i)) in pad.iter().enumerate() {
            irow[sel.len() + j] = i;
            drow[sel.len() + j] = d;
        }
    }
}

/// Builds one randomized projection tree and returns the bucket id per
/// point. Each point's projection is computed once per split into a
/// cached key buffer.
fn projection_tree_buckets(pts: &PointSet, t: usize, seed: u64, bucket: usize) -> Vec<u32> {
    let n = pts.len();
    let d = pts.dim();
    let mut assignment = vec![0u32; n];
    let mut idx: Vec<usize> = (0..n).collect();
    let mut next_bucket = 0u32;
    // Deterministic per-tree RNG (splitmix-style stream).
    let mut state = seed ^ (t as u64).wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut rnd = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    // Iterative median splits on random directions.
    let mut stack: Vec<(usize, usize)> = vec![(0, n)];
    let mut dir = vec![0.0f64; d];
    let mut keys = workspace::take(n);
    while let Some((lo, hi)) = stack.pop() {
        if hi - lo <= bucket {
            for &i in &idx[lo..hi] {
                assignment[i] = next_bucket;
            }
            next_bucket += 1;
            continue;
        }
        for v in &mut dir {
            *v = rnd();
        }
        let mid = lo + (hi - lo) / 2;
        for &i in &idx[lo..hi] {
            keys[i] = kfds_la::blas1::dot(pts.point(i), &dir);
        }
        idx[lo..hi].select_nth_unstable_by(mid - lo, |&a, &b| {
            keys[a].partial_cmp(&keys[b]).expect("NaN projection")
        });
        stack.push((lo, mid));
        stack.push((mid, hi));
    }
    assignment
}

/// Fraction of exact k-nearest neighbors recovered by `approx` (averaged
/// over points) — the recall metric for [`knn_approximate`].
pub fn knn_recall(exact: &NeighborLists, approx: &NeighborLists) -> f64 {
    assert_eq!(exact.k(), approx.k());
    let k = exact.k();
    let n = exact.idx.len() / k;
    let mut hits = 0usize;
    for i in 0..n {
        let e = exact.neighbors(i);
        for c in approx.neighbors(i) {
            if e.contains(c) {
                hits += 1;
            }
        }
    }
    hits as f64 / (n * k) as f64
}

/// Brute-force kNN reference (O(n² d)); used for testing and tiny inputs.
/// Rows are `(dist, idx)`-sorted like [`knn_all`] and [`knn_approximate`].
pub fn knn_brute_force(tree: &BallTree, k: usize) -> NeighborLists {
    let pts = tree.points();
    let n = pts.len();
    assert!(k > 0 && k < n);
    let mut idx = vec![0u32; n * k];
    let mut dist = vec![0.0f64; n * k];
    for q in 0..n {
        let mut cands: Vec<(f64, u32)> =
            (0..n).filter(|&i| i != q).map(|i| (pts.sq_dist(q, i), i as u32)).collect();
        cands.sort_by(cand_cmp);
        for j in 0..k {
            idx[q * k + j] = cands[j].1;
            dist[q * k + j] = cands[j].0;
        }
    }
    NeighborLists { k, idx, dist }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::PointSet;

    fn rand_points(n: usize, d: usize, seed: u64) -> PointSet {
        let mut state = seed | 1;
        let mut data = Vec::with_capacity(n * d);
        for _ in 0..n * d {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            data.push(((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0);
        }
        PointSet::from_col_major(d, data)
    }

    fn assert_lists_bitwise_eq(a: &NeighborLists, b: &NeighborLists, n: usize, what: &str) {
        assert_eq!(a.k(), b.k());
        for i in 0..n {
            assert_eq!(a.neighbors(i), b.neighbors(i), "{what}: indices of point {i}");
            for (x, y) in a.distances(i).iter().zip(b.distances(i)) {
                assert!(x.to_bits() == y.to_bits(), "{what}: distances of point {i}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn knn_matches_brute_force() {
        let p = rand_points(200, 3, 42);
        let t = BallTree::build(&p, 16);
        let fast = knn_all(&t, 5);
        let slow = knn_brute_force(&t, 5);
        for i in 0..200 {
            // Compare distances (indices can differ on near-ties from the
            // blocked path's Gram-identity selection).
            for j in 0..5 {
                let df = fast.distances(i)[j];
                let ds = slow.distances(i)[j];
                assert!((df - ds).abs() < 1e-12, "point {i} neighbor {j}: {df} vs {ds}");
            }
        }
    }

    #[test]
    fn dual_tree_matches_brute_force_on_clustered_points() {
        // Clustered data exercises the ball-pruning bound hard: most
        // leaf×leaf pairs must prune, the survivors must still be exact.
        let p = crate::datasets::gaussian_mixture(500, 6, 8, 0.05, 11);
        let t = BallTree::build(&p, 16);
        let fast = knn_all(&t, 8);
        let slow = knn_brute_force(&t, 8);
        for i in 0..500 {
            for j in 0..8 {
                let (df, ds) = (fast.distances(i)[j], slow.distances(i)[j]);
                assert!((df - ds).abs() < 1e-12, "point {i} neighbor {j}: {df} vs {ds}");
            }
        }
    }

    #[test]
    fn dual_tree_handles_coincident_points() {
        // 40 distinct sites, each duplicated 4 times: every point has 3
        // exact-zero neighbors, ties broken by index identically to the
        // brute-force reference.
        let sites = rand_points(40, 5, 77);
        let mut p = PointSet::with_capacity(5, 160);
        for _copy in 0..4 {
            for i in 0..40 {
                p.push(sites.point(i));
            }
        }
        let t = BallTree::build(&p, 8);
        let fast = knn_all(&t, 5);
        let slow = knn_brute_force(&t, 5);
        assert_lists_bitwise_eq(&fast, &slow, 160, "coincident");
        for i in 0..160 {
            assert_eq!(fast.distances(i)[..3], [0.0, 0.0, 0.0], "point {i}");
        }
    }

    #[test]
    fn exact_knn_matches_brute_force_bitwise() {
        // Distances AND indices must reproduce the brute-force (dist, idx)
        // order exactly: well-separated random points; the fit_hybrid_susy
        // shape at a quarter of its size (5 intrinsic dimensions in 8,
        // 64-point leaves, k = 16); and two n that are not a multiple of
        // the leaf size, so leaves differ in size.
        use crate::datasets::normal_embedded;
        let cases = [
            (rand_points(300, 8, 4), 16, 7),
            (rand_points(180, 4, 15), 8, 6),
            (normal_embedded(4096, 5, 8, 0.1, 11), 64, 16),
            (normal_embedded(1000, 3, 6, 0.1, 23), 64, 9),
            (normal_embedded(777, 3, 6, 0.1, 29), 32, 16),
        ];
        for (p, leaf, k) in cases {
            let n = p.len();
            let t = BallTree::build(&p, leaf);
            let what = format!("exact vs brute, n {n}, leaf {leaf}, k {k}");
            assert_lists_bitwise_eq(&knn_all(&t, k), &knn_brute_force(&t, k), n, &what);
        }
    }

    /// A 6 x 6 x 6 integer lattice (exactly representable, so every tile
    /// distance is exact and equal distances tie exactly) whose first 60
    /// sites are repeated up to seven times.
    fn tied_points() -> PointSet {
        let mut p = PointSet::with_capacity(3, 400);
        for s in 0..216usize {
            let site = [(s % 6) as f64, ((s / 6) % 6) as f64, (s / 36) as f64];
            let copies = if s < 60 { 1 + s % 7 } else { 1 };
            for _ in 0..copies {
                p.push(&site);
            }
        }
        p
    }

    #[test]
    fn exact_knn_breaks_distance_ties_by_index_like_brute_force() {
        let p = tied_points();
        let n = p.len();
        for &(leaf, k) in &[(8, 3), (8, 6), (16, 4), (32, 12)] {
            let t = BallTree::build(&p, leaf);
            let what = format!("ties, leaf {leaf}, k {k}");
            assert_lists_bitwise_eq(&knn_all(&t, k), &knn_brute_force(&t, k), n, &what);
        }
    }

    #[test]
    fn knn_excludes_self_and_sorted() {
        let p = rand_points(100, 4, 7);
        let t = BallTree::build(&p, 8);
        let nn = knn_all(&t, 6);
        for i in 0..100 {
            let ds = nn.distances(i);
            for w in ds.windows(2) {
                assert!(w[0] <= w[1]);
            }
            for &j in nn.neighbors(i) {
                assert_ne!(j as usize, i);
            }
        }
    }

    #[test]
    fn knn_on_line_finds_adjacent() {
        // Points on a line at integer positions: nearest neighbor of i is
        // i-1 or i+1 (in permuted coordinates we check distances instead).
        let data: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let p = PointSet::from_col_major(1, data);
        let t = BallTree::build(&p, 4);
        let nn = knn_all(&t, 2);
        for i in 0..50 {
            assert!(nn.distances(i)[0] <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn approximate_knn_recall() {
        // Low intrinsic dimension: projection trees should recover most
        // true neighbors with a handful of trees.
        let p = crate::datasets::normal_embedded(400, 3, 24, 0.05, 5);
        let t = BallTree::build(&p, 16);
        let exact = knn_brute_force(&t, 8);
        let approx = knn_approximate(&t, 8, 6, 42);
        let recall = knn_recall(&exact, &approx);
        assert!(recall > 0.7, "recall {recall}");
        // More trees => recall does not get (much) worse.
        let approx1 = knn_approximate(&t, 8, 1, 42);
        let r1 = knn_recall(&exact, &approx1);
        assert!(recall >= r1 - 0.05, "6 trees {recall} vs 1 tree {r1}");
    }

    /// The flat-buffer approximate search: every bucket tile of every tree
    /// in one buffer, then each query merges its row of each tree's tile.
    /// The reference the bucket-major merge must reproduce bitwise.
    fn knn_approximate_flat(tree: &BallTree, k: usize, n_trees: usize, seed: u64) -> NeighborLists {
        let pts = tree.points();
        let n = pts.len();
        let bucket = (4 * k).max(32).min(n);
        let buckets: Vec<Vec<u32>> =
            (0..n_trees).map(|t| projection_tree_buckets(pts, t, seed, bucket)).collect();
        let mut members: Vec<Vec<Vec<u32>>> = Vec::new();
        let mut ranks: Vec<Vec<usize>> = Vec::new();
        for assignment in &buckets {
            let nb = assignment.iter().copied().max().unwrap_or(0) as usize + 1;
            let mut m = vec![Vec::new(); nb];
            let mut r = vec![0; n];
            for (i, &b) in assignment.iter().enumerate() {
                r[i] = m[b as usize].len();
                m[b as usize].push(i as u32);
            }
            members.push(m);
            ranks.push(r);
        }
        let norms = pts.sq_norms();
        let mut offsets: Vec<Vec<usize>> = Vec::new();
        let mut tiles: Vec<f64> = Vec::new();
        for m in &members {
            let mut offs = Vec::new();
            for mem in m {
                offs.push(tiles.len());
                let len = mem.len();
                let mut tile = vec![0.0; len * len];
                dist_tiles::dist_tile_sym(
                    pts,
                    &norms,
                    mem,
                    MatMut::from_parts(&mut tile, len, len, len),
                );
                tiles.extend_from_slice(&tile);
            }
            offsets.push(offs);
        }
        let mut idx = vec![0u32; n * k];
        let mut dist = vec![0.0f64; n * k];
        for q in 0..n {
            let mut best = KBest::new(k);
            for t in 0..n_trees {
                let b = buckets[t][q] as usize;
                let mem = &members[t][b];
                let (len, row) = (mem.len(), ranks[t][q]);
                let tile = &tiles[offsets[t][b]..offsets[t][b] + len * len];
                for (jj, &c) in mem.iter().enumerate() {
                    if c as usize != q {
                        best.push_distinct(tile[jj * len + row], c);
                    }
                }
            }
            let (irow, drow) = (&mut idx[q * k..(q + 1) * k], &mut dist[q * k..(q + 1) * k]);
            finalize_approx_row(pts, q, best, k, irow, drow);
        }
        NeighborLists { k, idx, dist }
    }

    #[test]
    fn approximate_knn_matches_the_flat_buffer_merge_bitwise() {
        // n is not a multiple of any bucket size; k = 1 and 8 use 32-point
        // buckets, k = 16 64-point ones.
        for &(n, d, seed) in &[(1000usize, 12usize, 3u64), (2333, 24, 17), (517, 6, 99)] {
            let p = crate::datasets::normal_embedded(n, 4, d, 0.05, seed);
            let t = BallTree::build(&p, 32);
            for k in [1usize, 8, 16] {
                for (n_trees, tseed) in [(1usize, seed), (4, seed + 1), (8, 42)] {
                    let what = format!("n {n} k {k} trees {n_trees} seed {tseed}");
                    let got = knn_approximate(&t, k, n_trees, tseed);
                    let want = knn_approximate_flat(&t, k, n_trees, tseed);
                    assert_lists_bitwise_eq(&got, &want, n, &what);
                }
            }
        }
    }

    #[test]
    fn approximate_knn_well_formed() {
        let p = rand_points(150, 8, 3);
        let t = BallTree::build(&p, 16);
        let nn = knn_approximate(&t, 5, 3, 7);
        for i in 0..150 {
            let ds = nn.distances(i);
            for w in ds.windows(2) {
                assert!(w[0] <= w[1] + 1e-12);
            }
            for &j in nn.neighbors(i) {
                assert_ne!(j as usize, i, "self-neighbor at {i}");
                assert!((j as usize) < 150);
            }
        }
    }

    #[test]
    fn approximate_padding_is_distinct_and_tail_sorted() {
        // k close to n with a single tree forces candidates < k for some
        // queries; padded rows must still be duplicate-free and self-free.
        let p = rand_points(40, 3, 31);
        let t = BallTree::build(&p, 8);
        let nn = knn_approximate(&t, 36, 1, 3);
        for i in 0..40 {
            let mut ids: Vec<u32> = nn.neighbors(i).to_vec();
            assert!(!ids.contains(&(i as u32)), "self-neighbor at {i}");
            ids.sort_unstable();
            let len = ids.len();
            ids.dedup();
            assert_eq!(ids.len(), len, "duplicate neighbors at {i}");
        }
    }

    #[test]
    fn high_dim_small_n() {
        let p = rand_points(30, 64, 9);
        let t = BallTree::build(&p, 8);
        let fast = knn_all(&t, 3);
        let slow = knn_brute_force(&t, 3);
        for i in 0..30 {
            for j in 0..3 {
                assert!((fast.distances(i)[j] - slow.distances(i)[j]).abs() < 1e-12);
            }
        }
    }
}
