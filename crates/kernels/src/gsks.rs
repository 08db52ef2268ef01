//! GSKS — fused, matrix-free kernel summation (paper §II-D, \[24\]).
//!
//! The two-pass reference streams an `m x n` kernel block through memory
//! twice. GSKS fuses the three stages — rank-`d` Gram update, elementwise
//! kernel evaluation, and the GEMV reduction — inside one register tile:
//! an `MR x NR` block of `K` is produced in registers by the semi-ring
//! rank-`d` update, transformed by the kernel function, contracted against
//! the weights, and discarded. Only `O(md + nd)` memory moves remain and
//! the `m x n` block never exists (`O(1)` extra storage), which is the
//! paper's 3–30x win over the reference for small `d`.
//!
//! The paper implements the microkernel in AVX2/AVX512 assembly. Here the
//! single-RHS [`sum_fused`] dispatches, once per call, in the order
//! AVX-512 → AVX2 → scalar:
//!
//! * **AVX-512, exp-type kernel** (a kernel whose [`Kernel::exp_form`] is
//!   `Some`: Gaussian, Laplacian) — `kfds_la::simd::gsks_exp_rows_8`, the
//!   fully fused row kernel: 8 targets against 8-wide dimension-major
//!   source tiles, with distance, `exp` and the weight FMA in registers;
//! * **AVX2, or any other kernel** (Matérn, polynomial) — the `8 x 4`
//!   tile path: `kfds_la::simd::gsks_tile_8x4` forms the dot tile against
//!   4-wide dimension-major source tiles, and the kernel transform of the
//!   whole tile is batched through [`Kernel::eval_parts_many`] (one `vexp`
//!   per tile for Gaussian / Laplacian instead of `MR x NR` scalar `exp`
//!   calls);
//! * **`KFDS_SIMD=off` or no AVX2** — the same tile walk with the scalar
//!   dot tile over point-major sources (bitwise the old numerics).
//!
//! [`sum_fused_multi`] always takes the tile path. All packing scratch
//! comes from `kfds_la::workspace`.

use crate::function::{ExpForm, Kernel};
use kfds_la::workspace;
use kfds_la::{MatMut, MatRef};
use kfds_tree::PointSet;
use rayon::prelude::*;

/// Register tile height (rows = targets), matching the SIMD kernel.
const MR: usize = kfds_la::simd::GSKS_MR;
/// Register tile width (columns = sources), matching the SIMD kernel.
const NR: usize = kfds_la::simd::GSKS_NR;

/// Packed, zero-padded coordinates + norms for one side of a summation.
/// Storage comes from the workspace pool and returns to it on drop.
struct Packed {
    /// `padded x d`. Point-major (point `i` = `coords[i*d .. (i+1)*d]`)
    /// for target panels and scalar-mode source panels; dimension-major
    /// per source tile for SIMD-mode source panels (see
    /// [`pack_cols_transposed`]).
    coords: workspace::WsVec,
    /// Squared norms, zero-padded.
    norms: workspace::WsVec,
}

fn pack(pts: &PointSet, idx: &[usize], pad_to: usize) -> Packed {
    let d = pts.dim();
    let padded = idx.len().next_multiple_of(pad_to);
    // Pooled buffers arrive with stale contents; the loop overwrites the
    // live region and only the padding tail needs explicit zeroing (padded
    // tile entries must evaluate the kernel at the origin, not at garbage
    // coordinates, so their weighted contribution of zero stays finite).
    let mut coords = workspace::take(padded * d);
    let mut norms = workspace::take(padded);
    for (i, &p) in idx.iter().enumerate() {
        coords[i * d..(i + 1) * d].copy_from_slice(pts.point(p));
    }
    coords[idx.len() * d..].fill(0.0);
    // Norms in one pass over the packed panel (cache-hot, just copied)
    // instead of re-walking each source point inside the copy loop.
    for (i, nv) in norms.iter_mut().enumerate().take(idx.len()) {
        *nv = kfds_la::blas1::nrm2_sq(&coords[i * d..(i + 1) * d]);
    }
    norms[idx.len()..].fill(0.0);
    Packed { coords, norms }
}

/// SIMD-mode source packing: within each `width`-point tile the
/// coordinates are stored dimension-major (`coords[tile*width*d +
/// kk*width + c] = y_c[kk]`), so the vector kernels load the tile's values
/// of dimension `kk` with a single unaligned load instead of a strided
/// gather. Norms come from one `width`-wide vectorizable accumulation pass
/// over the packed panel.
fn pack_cols_transposed(pts: &PointSet, idx: &[usize], width: usize) -> Packed {
    let d = pts.dim();
    let padded = idx.len().next_multiple_of(width);
    let mut coords = workspace::take(padded * d);
    let mut norms = workspace::take(padded);
    // Pad slots of a partial last tile interleave with live ones, so zero
    // that whole tile up front before scattering the live points in.
    if !idx.len().is_multiple_of(width) {
        let last_tile = (padded / width - 1) * width * d;
        coords[last_tile..].fill(0.0);
    }
    for (i, &p) in idx.iter().enumerate() {
        let base = (i / width) * width * d + i % width;
        for (kk, &v) in pts.point(p).iter().enumerate() {
            coords[base + kk * width] = v;
        }
    }
    norms.fill(0.0);
    for t in 0..padded / width {
        let base = t * width * d;
        let nrow = &mut norms[t * width..(t + 1) * width];
        let crow = &coords[base..base + width * d];
        for kk in 0..d {
            for (nv, &v) in nrow.iter_mut().zip(&crow[kk * width..(kk + 1) * width]) {
                *nv += v * v;
            }
        }
    }
    Packed { coords, norms }
}

/// Copies `u` into pooled scratch zero-padded to `len`, so padded source
/// columns contribute nothing.
fn pad_weights(u: &[f64], len: usize) -> workspace::WsVec {
    let mut upad = workspace::take(len);
    upad[..u.len()].copy_from_slice(u);
    upad[u.len()..].fill(0.0);
    upad
}

/// Fused kernel summation: `w = K[rows, cols] * u` (overwrites `w`),
/// matrix-free with `O((m + n) d)` workspace.
///
/// # Panics
/// Panics on length mismatches.
pub fn sum_fused<K: Kernel>(
    k: &K,
    pts: &PointSet,
    rows: &[usize],
    cols: &[usize],
    u: &[f64],
    w: &mut [f64],
) {
    assert_eq!(u.len(), cols.len(), "sum_fused: weight length mismatch");
    assert_eq!(w.len(), rows.len(), "sum_fused: output length mismatch");
    if rows.is_empty() {
        return;
    }
    if cols.is_empty() {
        w.fill(0.0);
        return;
    }
    // Dispatch captured once: the packed source layout and the kernel
    // must agree for the whole call.
    if let Some(form) = k.exp_form().filter(|_| kfds_la::simd::avx512_active()) {
        sum_fused_exp(form, pts, rows, cols, u, w);
        return;
    }
    let d = pts.dim();
    let use_simd = kfds_la::simd::active();
    let rp = pack(pts, rows, MR);
    let cp = if use_simd { pack_cols_transposed(pts, cols, NR) } else { pack(pts, cols, NR) };
    let upad = pad_weights(u, cp.norms.len());

    let n_tiles_c = cp.norms.len() / NR;
    // Parallel over disjoint MR-row chunks of the output.
    w.par_chunks_mut(MR).enumerate().for_each(|(rt, wchunk)| {
        let r0 = rt * MR;
        let rows_here = wchunk.len();
        let mut acc = [0.0f64; MR];
        for ct in 0..n_tiles_c {
            let c0 = ct * NR;
            let mut tile = [0.0f64; MR * NR];
            if use_simd {
                kfds_la::simd::gsks_tile_8x4(
                    &rp.coords[r0 * d..(r0 + MR) * d],
                    &cp.coords[c0 * d..(c0 + NR) * d],
                    d,
                    &mut tile,
                );
            } else {
                tile_dots(
                    &rp.coords[r0 * d..(r0 + rows_here) * d],
                    &cp.coords[c0 * d..(c0 + NR) * d],
                    d,
                    &mut tile,
                );
            }
            // Fused epilogue: batched kernel transform of the live tile
            // rows, then the weight reduction.
            k.eval_parts_many(
                &mut tile[..rows_here * NR],
                &rp.norms[r0..r0 + rows_here],
                &cp.norms[c0..c0 + NR],
            );
            for (r, accr) in acc.iter_mut().enumerate().take(rows_here) {
                let mut s = 0.0;
                for (kv, uv) in tile[r * NR..r * NR + NR].iter().zip(&upad[c0..c0 + NR]) {
                    s += kv * uv;
                }
                *accr += s;
            }
        }
        wchunk.copy_from_slice(&acc[..rows_here]);
    });
}

/// The AVX-512 arm of [`sum_fused`] for exp-type kernels: each 8-row
/// output chunk is one `gsks_exp_rows_8` call over every packed source
/// tile.
fn sum_fused_exp(
    form: ExpForm,
    pts: &PointSet,
    rows: &[usize],
    cols: &[usize],
    u: &[f64],
    w: &mut [f64],
) {
    const W: usize = kfds_la::simd::GSKS_EXP_W;
    let d = pts.dim();
    let rp = pack(pts, rows, W);
    let cp = pack_cols_transposed(pts, cols, W);
    let upad = pad_weights(u, cp.norms.len());
    w.par_chunks_mut(W).enumerate().for_each(|(rt, wchunk)| {
        let r0 = rt * W;
        let acc = kfds_la::simd::gsks_exp_rows_8(
            form,
            &rp.coords[r0 * d..(r0 + W) * d],
            &rp.norms[r0..r0 + W],
            &cp.coords,
            &cp.norms,
            &upad,
            d,
        );
        wchunk.copy_from_slice(&acc[..wchunk.len()]);
    });
}

/// Fused multi-RHS summation: `W = K[rows, cols] * U` (overwrites `W`),
/// matrix-free. `U` is `cols.len() x nrhs`, `W` is `rows.len() x nrhs`.
///
/// # Panics
/// Panics on dimension mismatches.
pub fn sum_fused_multi<K: Kernel>(
    k: &K,
    pts: &PointSet,
    rows: &[usize],
    cols: &[usize],
    u: MatRef<'_>,
    mut w: MatMut<'_>,
) {
    assert_eq!(u.nrows(), cols.len(), "sum_fused_multi: U rows mismatch");
    assert_eq!(w.nrows(), rows.len(), "sum_fused_multi: W rows mismatch");
    assert_eq!(u.ncols(), w.ncols(), "sum_fused_multi: RHS count mismatch");
    let d = pts.dim();
    let nrhs = u.ncols();
    let m = rows.len();
    if m == 0 || nrhs == 0 {
        return;
    }
    if cols.is_empty() {
        w.fill(0.0);
        return;
    }
    let use_simd = kfds_la::simd::active();
    let rp = pack(pts, rows, MR);
    let cp = if use_simd { pack_cols_transposed(pts, cols, NR) } else { pack(pts, cols, NR) };
    let n_tiles_c = cp.norms.len() / NR;

    // SIMD mode: transpose U once into source-major layout (`ut[c * nrhs
    // + t] = U[c, t]`) so the contraction kernel sweeps each source's
    // weights with contiguous vector loads. The zero padding rows make the
    // padded tile columns — whose kernel values are finite but meaningless
    // — contribute nothing, so the kernel never needs a `cols_here` guard.
    let ut = use_simd.then(|| {
        let mut ut = workspace::take(cp.norms.len() * nrhs);
        for t in 0..nrhs {
            for (c, &v) in u.col(t).iter().enumerate() {
                ut[c * nrhs + t] = v;
            }
        }
        ut[cols.len() * nrhs..].fill(0.0);
        ut
    });
    let ut_ref = ut.as_deref();

    // Row-major accumulation buffer (m x nrhs) so row tiles are chunkable;
    // zeroed because the tile loop accumulates into it.
    let mut wbuf = workspace::take_zeroed(m * nrhs);
    wbuf.par_chunks_mut(MR * nrhs).enumerate().for_each(|(rt, wchunk)| {
        let r0 = rt * MR;
        let rows_here = MR.min(m - r0);
        for ct in 0..n_tiles_c {
            let c0 = ct * NR;
            let cols_here = NR.min(cols.len().saturating_sub(c0));
            let mut tile = [0.0f64; MR * NR];
            if use_simd {
                kfds_la::simd::gsks_tile_8x4(
                    &rp.coords[r0 * d..(r0 + MR) * d],
                    &cp.coords[c0 * d..(c0 + NR) * d],
                    d,
                    &mut tile,
                );
            } else {
                tile_dots(
                    &rp.coords[r0 * d..(r0 + rows_here) * d],
                    &cp.coords[c0 * d..(c0 + NR) * d],
                    d,
                    &mut tile,
                );
            }
            // Batched kernel transform of the live rows (padded columns
            // are evaluated too but never read), then contract against U.
            k.eval_parts_many(
                &mut tile[..rows_here * NR],
                &rp.norms[r0..r0 + rows_here],
                &cp.norms[c0..c0 + NR],
            );
            match ut_ref {
                // Vectorized contraction of a full row tile against every
                // RHS at once — this multi-RHS epilogue dominates the
                // factorization's P̂ panel applies (nrhs = skeleton size).
                Some(ut) if rows_here == MR => {
                    kfds_la::simd::gsks_contract_8x4(
                        &tile,
                        &ut[c0 * nrhs..(c0 + NR) * nrhs],
                        nrhs,
                        wchunk,
                    );
                }
                _ => {
                    for r in 0..rows_here {
                        let krow = &tile[r * NR..r * NR + NR];
                        let wrow = &mut wchunk[r * nrhs..(r + 1) * nrhs];
                        for (t, wt) in wrow.iter_mut().enumerate() {
                            let ucol = u.col(t);
                            let mut s = 0.0;
                            for c in 0..cols_here {
                                s += krow[c] * ucol[c0 + c];
                            }
                            *wt += s;
                        }
                    }
                }
            }
        }
    });
    // Transpose the row-major buffer into the column-major output view.
    for t in 0..nrhs {
        let col = w.col_mut(t);
        for (i, c) in col.iter_mut().enumerate() {
            *c = wbuf[i * nrhs + t];
        }
    }
}

/// Computes the `MR x NR` tile of inner products between `xr` (up to MR
/// packed points) and `yc` (NR **point-major** packed points), the
/// semi-ring rank-`d` update at the heart of GSKS — the scalar reference
/// path, written row-major into `out` (`out[r*NR + c] = x_r . y_c`).
#[inline]
fn tile_dots(xr: &[f64], yc: &[f64], d: usize, out: &mut [f64; MR * NR]) {
    let rows = xr.len().checked_div(d).unwrap_or(0);
    for kk in 0..d {
        let mut yv = [0.0f64; NR];
        for (c, yvc) in yv.iter_mut().enumerate() {
            *yvc = yc[c * d + kk];
        }
        for r in 0..rows {
            let xv = xr[r * d + kk];
            for (acc, &y) in out[r * NR..r * NR + NR].iter_mut().zip(&yv) {
                *acc += xv * y;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::{Gaussian, Laplacian};
    use crate::reference::{sum_reference, sum_reference_multi};
    use kfds_la::Mat;

    fn pts(n: usize, d: usize, seed: u64) -> PointSet {
        let mut state = seed | 1;
        let data: Vec<f64> = (0..n * d)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect();
        PointSet::from_col_major(d, data)
    }

    #[test]
    fn fused_matches_reference_various_shapes() {
        for &(m, n, d) in &[(1, 1, 1), (4, 4, 2), (7, 13, 3), (33, 29, 8), (16, 64, 20)] {
            let p = pts(m + n, d, (m * 7 + n * 3 + d) as u64);
            let rows: Vec<usize> = (0..m).collect();
            let cols: Vec<usize> = (m..m + n).collect();
            let u: Vec<f64> = (0..n).map(|i| (i as f64 * 0.41).sin()).collect();
            let k = Gaussian::new(0.7);
            let mut w1 = vec![0.0; m];
            let mut w2 = vec![0.0; m];
            sum_reference(&k, &p, &rows, &cols, &u, &mut w1);
            sum_fused(&k, &p, &rows, &cols, &u, &mut w2);
            for i in 0..m {
                assert!(
                    (w1[i] - w2[i]).abs() < 1e-11 * (1.0 + w1[i].abs()),
                    "shape ({m},{n},{d}) row {i}: {} vs {}",
                    w1[i],
                    w2[i]
                );
            }
        }
    }

    /// Delegates to the wrapped kernel but reports no exp form, so
    /// [`sum_fused`] takes the tile path for it on every host.
    struct TilePath<K>(K);

    impl<K: Kernel> Kernel for TilePath<K> {
        fn eval_parts(&self, dot: f64, nx: f64, ny: f64) -> f64 {
            self.0.eval_parts(dot, nx, ny)
        }
        fn eval_parts_many(&self, tile: &mut [f64], nx: &[f64], ny: &[f64]) {
            self.0.eval_parts_many(tile, nx, ny)
        }
        fn name(&self) -> &'static str {
            self.0.name()
        }
    }

    /// `sum_fused` through the kernel's own dispatch (the fused row kernel
    /// on an AVX-512 host) and through the tile path, both against the
    /// `sum_reference` oracle.
    fn check_both_paths<K: Kernel + Copy>(k: K, p: &PointSet, rows: &[usize], cols: &[usize]) {
        let u: Vec<f64> = (0..cols.len()).map(|i| (i as f64 * 0.41).sin()).collect();
        let mut want = vec![0.0; rows.len()];
        sum_reference(&k, p, rows, cols, &u, &mut want);
        let mut fused = vec![f64::NAN; rows.len()];
        sum_fused(&k, p, rows, cols, &u, &mut fused);
        let mut tiled = vec![f64::NAN; rows.len()];
        sum_fused(&TilePath(k), p, rows, cols, &u, &mut tiled);
        for (path, got) in [("tile", &tiled), ("fused", &fused)] {
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (g - w).abs() < 1e-11 * (1.0 + w.abs()),
                    "{} {path} m={} n={} d={} row {i}: {g} vs {w}",
                    k.name(),
                    rows.len(),
                    cols.len(),
                    p.dim()
                );
            }
        }
    }

    #[test]
    fn exp_kernels_fused_and_tile_paths_match_reference() {
        for d in [1usize, 3, 8, 64] {
            let p = pts(160, d, 31 + d as u64);
            // m and n off the 8-wide tile grid, permuted non-contiguous
            // index lists, and empty lists. Rows and columns stay disjoint
            // (as in the hybrid V-apply): at a coincident pair the oracle's
            // GEMM Gram leaves a ~1e-15 cancellation residual that the
            // Laplacian's sqrt lifts to ~1e-8.
            let contiguous: (Vec<usize>, Vec<usize>) = ((0..13).collect(), (13..150).collect());
            let strided: (Vec<usize>, Vec<usize>) = (
                (0..21).map(|i| (i * 37 % 80) * 2 + 1).collect(),
                (0..45).map(|i| (i * 37 % 80) * 2).collect(),
            );
            let shapes = [contiguous, strided, (vec![4, 9], vec![]), (vec![], vec![1, 2, 3])];
            let h = 0.3 * (d as f64).sqrt() + 0.2;
            for (rows, cols) in &shapes {
                check_both_paths(Gaussian::new(h), &p, rows, cols);
                check_both_paths(Laplacian::new(h), &p, rows, cols);
            }
        }
    }

    #[test]
    fn fused_multi_matches_reference_multi() {
        let (m, n, d, nrhs) = (19, 23, 5, 6);
        let p = pts(m + n, d, 77);
        let rows: Vec<usize> = (0..m).collect();
        let cols: Vec<usize> = (m..m + n).collect();
        let u = Mat::from_fn(n, nrhs, |i, j| ((i * 5 + j) as f64 * 0.23).cos());
        let k = Laplacian::new(1.1);
        let mut w1 = Mat::zeros(m, nrhs);
        let mut w2 = Mat::zeros(m, nrhs);
        sum_reference_multi(&k, &p, &rows, &cols, u.rb(), w1.rb_mut());
        sum_fused_multi(&k, &p, &rows, &cols, u.rb(), w2.rb_mut());
        for t in 0..nrhs {
            for i in 0..m {
                assert!((w1[(i, t)] - w2[(i, t)]).abs() < 1e-11);
            }
        }
    }

    #[test]
    fn fused_with_noncontiguous_indices() {
        let p = pts(40, 3, 9);
        let rows = [0, 5, 11, 7, 39];
        let cols = [2, 3, 17, 30, 4, 8, 25];
        let u: Vec<f64> = (0..7).map(|i| i as f64 - 3.0).collect();
        let k = Gaussian::new(0.5);
        let mut w1 = vec![0.0; 5];
        let mut w2 = vec![0.0; 5];
        sum_reference(&k, &p, &rows, &cols, &u, &mut w1);
        sum_fused(&k, &p, &rows, &cols, &u, &mut w2);
        for i in 0..5 {
            assert!((w1[i] - w2[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_rows_cols_and_rhs() {
        let p = pts(6, 2, 1);
        let k = Gaussian::new(1.0);
        // Empty columns: output must be zeroed, not stale.
        let mut w = [f64::NAN; 2];
        sum_fused(&k, &p, &[0, 1], &[], &[], &mut w);
        assert_eq!(w, [0.0, 0.0]);
        // Empty rows: nothing to write.
        let mut w0: [f64; 0] = [];
        sum_fused(&k, &p, &[], &[2, 3], &[1.0, 1.0], &mut w0);
        // Zero RHS columns in the multi variant (rank-0 skeleton case).
        let u = Mat::zeros(3, 0);
        let mut wm = Mat::zeros(2, 0);
        sum_fused_multi(&k, &p, &[0, 1], &[2, 3, 4], u.rb(), wm.rb_mut());
        // Empty cols in the multi variant.
        let u2 = Mat::zeros(0, 2);
        let mut wm2 = Mat::from_fn(2, 2, |_, _| f64::NAN);
        sum_fused_multi(&k, &p, &[0, 1], &[], u2.rb(), wm2.rb_mut());
        assert_eq!(wm2.as_slice(), &[0.0; 4]);
    }

    #[test]
    fn fused_overwrites_output() {
        let p = pts(10, 2, 4);
        let rows = [0, 1];
        let cols = [2, 3];
        let u = [0.0, 0.0];
        let mut w = [f64::NAN, f64::NAN];
        sum_fused(&Gaussian::new(1.0), &p, &rows, &cols, &u, &mut w);
        assert_eq!(w, [0.0, 0.0]);
    }
}
