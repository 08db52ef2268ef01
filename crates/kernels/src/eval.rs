//! Blocked evaluation of kernel sub-matrices `K[rows, cols]`.
//!
//! These routines materialize kernel blocks (the "stored" mode of §II-D);
//! the matrix-free engines live in [`crate::reference`] (two-pass) and
//! [`crate::gsks`] (fused).
//!
//! By default the inner-product pass is one packed rank-`d` GEMM over
//! gathered coordinate panels (`G = Xr^T Xc`, through the SIMD microkernel
//! path) followed by the batched [`Kernel::eval_parts_many`] epilogue —
//! the same pipeline as [`crate::reference::kernel_block_gemm`]. The tests
//! check every block against the pointwise [`Kernel::eval`] oracle.

use crate::function::Kernel;
use kfds_la::blas1::dot;
use kfds_la::{gemm, workspace, Mat, MatRef, Trans};
use kfds_tree::PointSet;
use rayon::prelude::*;

/// Evaluates the kernel block `K[rows, cols]` between index lists into the
/// same point set.
///
/// The result is backed by pooled storage; hot-path callers that drop the
/// block should hand it back with [`workspace::recycle_mat`].
pub fn eval_block(kernel: &dyn Kernel, pts: &PointSet, rows: &[usize], cols: &[usize]) -> Mat {
    if rows.is_empty() || cols.is_empty() {
        return Mat::zeros(rows.len(), cols.len());
    }
    let xc = crate::reference::gather_coords(pts, cols);
    let out = eval_block_gemm(kernel, pts, rows, xc.rb());
    workspace::recycle_mat(xc);
    out
}

/// Evaluates `K[rows, range]` where the columns are a contiguous range of
/// (permuted) positions — the common case for tree-node blocks. The
/// column panel is a zero-copy view of the point set (points are stored
/// column-major), so no index list or coordinate gather is materialized.
pub fn eval_block_range(
    kernel: &dyn Kernel,
    pts: &PointSet,
    rows: &[usize],
    range: std::ops::Range<usize>,
) -> Mat {
    let n = range.len();
    if rows.is_empty() || n == 0 {
        return Mat::zeros(rows.len(), n);
    }
    let d = pts.dim();
    let xc = MatRef::from_parts(&pts.as_slice()[range.start * d..range.end * d], d, n, d);
    eval_block_gemm(kernel, pts, rows, xc)
}

/// GEMM assembly pipeline shared by [`eval_block`]/[`eval_block_range`]:
/// `G = Xr^T Xc` through the packed SIMD GEMM, then the batched kernel
/// transform per column (one `vexp` per column for Gaussian/Laplacian).
fn eval_block_gemm(kernel: &dyn Kernel, pts: &PointSet, rows: &[usize], xc: MatRef<'_>) -> Mat {
    let m = rows.len();
    let n = xc.ncols();
    let xr = crate::reference::gather_coords(pts, rows);
    let mut out = workspace::take_mat_detached(m, n);
    gemm(1.0, xr.rb(), Trans::Yes, xc, Trans::No, 0.0, out.rb_mut());
    let mut row_norms = workspace::take(m);
    let mut col_norms = workspace::take(n);
    for i in 0..m {
        row_norms[i] = sq_norm(xr.col(i));
    }
    for j in 0..n {
        col_norms[j] = sq_norm(xc.col(j));
    }
    let rn: &[f64] = &row_norms;
    let cn: &[f64] = &col_norms;
    out.as_mut_slice().par_chunks_mut(m).enumerate().for_each(|(j, col)| {
        kernel.eval_parts_many(col, rn, &cn[j..j + 1]);
    });
    workspace::recycle_mat(xr);
    out
}

/// One requested kernel block in a batched assembly launch
/// ([`eval_blocks`]).
#[derive(Clone, Debug)]
pub enum BlockSpec<'a> {
    /// Full symmetric diagonal block `K[range, range]` (leaf blocks) —
    /// evaluated exactly like [`eval_symmetric`].
    Symmetric {
        /// Contiguous (permuted) point range.
        range: std::ops::Range<usize>,
    },
    /// `K[rows, range]` against a contiguous column range — evaluated
    /// exactly like [`eval_block_range`].
    RowsByRange {
        /// Row index list.
        rows: &'a [usize],
        /// Contiguous (permuted) column range.
        range: std::ops::Range<usize>,
    },
    /// `K[rows, cols]` between explicit index lists — evaluated exactly
    /// like [`eval_block`].
    RowsByCols {
        /// Row index list.
        rows: &'a [usize],
        /// Column index list.
        cols: &'a [usize],
    },
}

impl BlockSpec<'_> {
    /// Shape-bucketing key: block kind plus output dimensions. Blocks
    /// sharing a key run the identical gather/GEMM/epilogue schedule.
    fn shape_key(&self) -> (u8, usize, usize) {
        match self {
            BlockSpec::Symmetric { range } => (0, range.len(), range.len()),
            BlockSpec::RowsByRange { rows, range } => (1, rows.len(), range.len()),
            BlockSpec::RowsByCols { rows, cols } => (2, rows.len(), cols.len()),
        }
    }
}

/// Batched block assembly: evaluates every requested block, bucketed into
/// same-shape groups (first-occurrence order) with **one** parallel launch
/// per group. Returns the blocks in request order plus the group count.
///
/// Each block is built by the same gather + Gram GEMM + per-column
/// [`Kernel::eval_parts_many`] pipeline as the per-node entry points, so
/// every returned matrix is **bitwise identical** to calling
/// [`eval_block`]/[`eval_block_range`]/[`eval_symmetric`] on its spec: the
/// GEMM never splits the accumulation dimension, and the epilogue is
/// applied per independent column either way. The only scheduling change
/// is that parallelism moves from *inside* each block (the per-column
/// `par_chunks_mut` epilogue dispatch) to *across* the blocks of a group —
/// one rayon launch per shape group instead of one per block column.
///
/// Storage matches the per-node entry points too: `Symmetric` blocks are
/// plainly allocated (consumed into long-lived factors), the rectangular
/// kinds are pooled (`workspace::recycle_mat` to return them).
pub fn eval_blocks(
    kernel: &dyn Kernel,
    pts: &PointSet,
    specs: &[BlockSpec<'_>],
) -> (Vec<Mat>, usize) {
    let groups = kfds_la::batch::group_by_shape(specs, BlockSpec::shape_key);
    let n_groups = groups.len();
    let mut out: Vec<Option<Mat>> = Vec::with_capacity(specs.len());
    out.resize_with(specs.len(), || None);
    for (_, idxs) in &groups {
        if idxs.len() == 1 {
            // Singleton group: run inline, letting the block's own column
            // epilogue parallelize (identical to the per-node call).
            let i = idxs[0];
            out[i] = Some(eval_spec_inline(kernel, pts, &specs[i]));
        } else {
            let built: Vec<(usize, Mat)> =
                idxs.par_iter().map(|&i| (i, eval_spec_grouped(kernel, pts, &specs[i]))).collect();
            for (i, m) in built {
                out[i] = Some(m);
            }
        }
    }
    (out.into_iter().map(|m| m.expect("every spec evaluated")).collect(), n_groups)
}

/// Per-node evaluation of one spec (singleton groups): delegates to the
/// existing entry points verbatim.
fn eval_spec_inline(kernel: &dyn Kernel, pts: &PointSet, spec: &BlockSpec<'_>) -> Mat {
    match spec {
        BlockSpec::Symmetric { range } => eval_symmetric(kernel, pts, range.clone()),
        BlockSpec::RowsByRange { rows, range } => {
            eval_block_range(kernel, pts, rows, range.clone())
        }
        BlockSpec::RowsByCols { rows, cols } => eval_block(kernel, pts, rows, cols),
    }
}

/// Evaluation of one spec inside a multi-block group launch: the same
/// pipeline with a *serial* per-column epilogue (bitwise identical —
/// columns are independent), since the group launch already occupies the
/// thread pool.
fn eval_spec_grouped(kernel: &dyn Kernel, pts: &PointSet, spec: &BlockSpec<'_>) -> Mat {
    match spec {
        BlockSpec::Symmetric { range } => eval_symmetric(kernel, pts, range.clone()),
        BlockSpec::RowsByRange { rows, range } => {
            let n = range.len();
            if rows.is_empty() || n == 0 {
                return Mat::zeros(rows.len(), n);
            }
            let d = pts.dim();
            let xc = MatRef::from_parts(&pts.as_slice()[range.start * d..range.end * d], d, n, d);
            eval_block_gemm_serial(kernel, pts, rows, xc)
        }
        BlockSpec::RowsByCols { rows, cols } => {
            if rows.is_empty() || cols.is_empty() {
                return Mat::zeros(rows.len(), cols.len());
            }
            let xc = crate::reference::gather_coords(pts, cols);
            let out = eval_block_gemm_serial(kernel, pts, rows, xc.rb());
            workspace::recycle_mat(xc);
            out
        }
    }
}

/// [`eval_block_gemm`] with the per-column kernel epilogue applied
/// serially instead of through `par_chunks_mut` — bitwise identical
/// (each column's transform reads only that column), used inside group
/// launches where the blocks themselves are the parallel units.
fn eval_block_gemm_serial(
    kernel: &dyn Kernel,
    pts: &PointSet,
    rows: &[usize],
    xc: MatRef<'_>,
) -> Mat {
    let m = rows.len();
    let n = xc.ncols();
    let xr = crate::reference::gather_coords(pts, rows);
    let mut out = workspace::take_mat_detached(m, n);
    gemm(1.0, xr.rb(), Trans::Yes, xc, Trans::No, 0.0, out.rb_mut());
    let mut row_norms = workspace::take(m);
    let mut col_norms = workspace::take(n);
    for i in 0..m {
        row_norms[i] = sq_norm(xr.col(i));
    }
    for j in 0..n {
        col_norms[j] = sq_norm(xc.col(j));
    }
    let rn: &[f64] = &row_norms;
    let cn: &[f64] = &col_norms;
    for (j, col) in out.as_mut_slice().chunks_mut(m).enumerate() {
        kernel.eval_parts_many(col, rn, &cn[j..j + 1]);
    }
    workspace::recycle_mat(xr);
    out
}

/// Evaluates the full symmetric kernel matrix `K[range, range]` (used for
/// leaf diagonal blocks and dense cross-checks).
///
/// The GEMM path forms the Gram block from a zero-copy coordinate panel,
/// overwrites the diagonal with the exact `x·x` dots before the kernel
/// transform (so `K(x, x)` is evaluated from bitwise-equal arguments and
/// the unit diagonal of distance kernels is exact), and mirrors the upper
/// triangle so the result is exactly symmetric.
pub fn eval_symmetric(kernel: &dyn Kernel, pts: &PointSet, range: std::ops::Range<usize>) -> Mat {
    let n = range.len();
    // Output is plainly allocated (not pooled): leaf diagonal blocks are
    // consumed into long-lived factors, so pooling them would only drain
    // the pool.
    let mut out = Mat::zeros(n, n);
    if n == 0 {
        return out;
    }
    let d = pts.dim();
    let xc = MatRef::from_parts(&pts.as_slice()[range.start * d..range.end * d], d, n, d);
    gemm(1.0, xc, Trans::Yes, xc, Trans::No, 0.0, out.rb_mut());
    let mut norms = workspace::take(n);
    for j in 0..n {
        norms[j] = sq_norm(xc.col(j));
    }
    for j in 0..n {
        out[(j, j)] = norms[j];
    }
    for j in 0..n {
        kernel.eval_parts_many(&mut out.col_mut(j)[..], &norms, &norms[j..j + 1]);
    }
    for j in 0..n {
        for i in j + 1..n {
            out[(i, j)] = out[(j, i)];
        }
    }
    out
}

#[inline]
fn sq_norm(x: &[f64]) -> f64 {
    dot(x, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::{Gaussian, Laplacian, Matern32, Polynomial};

    fn pts() -> PointSet {
        let data: Vec<f64> = (0..20).map(|i| (i as f64 * 0.37).sin()).collect();
        PointSet::from_col_major(2, data)
    }

    #[test]
    fn block_matches_pointwise() {
        let p = pts();
        let k = Gaussian::new(0.8);
        let rows = [0, 3, 7];
        let cols = [1, 2, 9, 4];
        let b = eval_block(&k, &p, &rows, &cols);
        for (i, &ri) in rows.iter().enumerate() {
            for (j, &cj) in cols.iter().enumerate() {
                let want = k.eval(p.point(ri), p.point(cj));
                assert!((b[(i, j)] - want).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn range_block_matches_list_block() {
        let p = pts();
        let k = Gaussian::new(0.5);
        let rows = [2, 5];
        let a = eval_block_range(&k, &p, &rows, 3..8);
        let b = eval_block(&k, &p, &rows, &[3, 4, 5, 6, 7]);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn symmetric_block_is_symmetric_with_unit_diagonal() {
        let p = pts();
        let k = Gaussian::new(1.1);
        let s = eval_symmetric(&k, &p, 2..9);
        for i in 0..7 {
            assert_eq!(s[(i, i)], 1.0);
            for j in 0..7 {
                assert_eq!(s[(i, j)], s[(j, i)]);
            }
        }
    }

    /// Pointwise oracle: `K[rows, cols]` one [`Kernel::eval`] per entry.
    fn pointwise_block(k: &dyn Kernel, p: &PointSet, rows: &[usize], cols: &[usize]) -> Mat {
        Mat::from_fn(rows.len(), cols.len(), |i, j| k.eval(p.point(rows[i]), p.point(cols[j])))
    }

    #[test]
    fn gemm_path_matches_pointwise_eval() {
        // Larger panel in a higher dimension so the GEMM actually tiles.
        let d = 6;
        let n = 40;
        let data: Vec<f64> = (0..d * n).map(|i| (i as f64 * 0.13).cos()).collect();
        let p = PointSet::from_col_major(d, data);
        let rows: Vec<usize> = (0..n).step_by(3).collect();
        let cols: Vec<usize> = (1..n).step_by(2).collect();
        // Kernels smooth in the *squared* distance see only the raw
        // cancellation residual of the expanded form (~eps·‖x‖²); kernels
        // that take a square root (Laplacian, Matérn) amplify that
        // residual to ~√eps near coincident points.
        let kernels: Vec<(Box<dyn Kernel>, f64)> = vec![
            (Box::new(Gaussian::new(0.9)), 1e-13),
            (Box::new(Laplacian::new(0.7)), 5e-8),
            (Box::new(Matern32::new(1.2)), 5e-8),
            (Box::new(Polynomial::new(0.5, 1.0, 2)), 1e-13),
        ];
        for (k, tol) in &kernels {
            let a = eval_block(k.as_ref(), &p, &rows, &cols);
            let b = pointwise_block(k.as_ref(), &p, &rows, &cols);
            for j in 0..cols.len() {
                for i in 0..rows.len() {
                    assert!(
                        (a[(i, j)] - b[(i, j)]).abs() <= *tol,
                        "({i},{j}): {} vs {}",
                        a[(i, j)],
                        b[(i, j)]
                    );
                }
            }
            let sg = eval_symmetric(k.as_ref(), &p, 4..n - 3);
            let range: Vec<usize> = (4..n - 3).collect();
            let sw = pointwise_block(k.as_ref(), &p, &range, &range);
            for j in 0..sg.ncols() {
                for i in 0..sg.nrows() {
                    assert_eq!(sg[(i, j)], sg[(j, i)], "asymmetric at ({i},{j})");
                    assert!((sg[(i, j)] - sw[(i, j)]).abs() <= *tol, "symmetric ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn batched_blocks_match_per_node_bitwise() {
        let d = 4;
        let n = 36;
        let data: Vec<f64> = (0..d * n).map(|i| (i as f64 * 0.29).sin()).collect();
        let p = PointSet::from_col_major(d, data);
        let k = Gaussian::new(0.8);
        let rows_a: Vec<usize> = (0..12).collect();
        let rows_b: Vec<usize> = (12..24).collect();
        let cols: Vec<usize> = (5..17).collect();
        // Two symmetric 8x8 blocks, two 12x12 range blocks, one 12x12
        // list block sharing the range blocks' dimensions but not their
        // kind, and one odd singleton: 4 shape groups.
        let specs = vec![
            BlockSpec::Symmetric { range: 0..8 },
            BlockSpec::Symmetric { range: 8..16 },
            BlockSpec::RowsByRange { rows: &rows_a, range: 20..32 },
            BlockSpec::RowsByRange { rows: &rows_b, range: 4..16 },
            BlockSpec::RowsByCols { rows: &rows_a, cols: &cols },
            BlockSpec::RowsByRange { rows: &rows_a[..5], range: 0..7 },
        ];
        let (got, groups) = eval_blocks(&k, &p, &specs);
        assert_eq!(groups, 4);
        assert_eq!(got.len(), specs.len());
        let want = [
            eval_symmetric(&k, &p, 0..8),
            eval_symmetric(&k, &p, 8..16),
            eval_block_range(&k, &p, &rows_a, 20..32),
            eval_block_range(&k, &p, &rows_b, 4..16),
            eval_block(&k, &p, &rows_a, &cols),
            eval_block_range(&k, &p, &rows_a[..5], 0..7),
        ];
        for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            assert_eq!((g.nrows(), g.ncols()), (w.nrows(), w.ncols()), "block {i}");
            assert_eq!(g.as_slice(), w.as_slice(), "block {i} not bitwise equal");
        }
    }

    #[test]
    fn empty_blocks() {
        let p = pts();
        let k = Gaussian::new(1.0);
        assert_eq!(eval_block(&k, &p, &[], &[1, 2]).nrows(), 0);
        assert_eq!(eval_block(&k, &p, &[1], &[]).ncols(), 0);
        assert_eq!(eval_block_range(&k, &p, &[1], 3..3).ncols(), 0);
        assert_eq!(eval_symmetric(&k, &p, 5..5).nrows(), 0);
    }
}
