//! SIMD microkernel A/B micro-benchmarks.
//!
//! Each shape family runs twice — `scalar` (vector kernels disabled via
//! [`kfds_la::simd::set_simd_enabled`]) and `simd` — so the microkernel
//! win is visible per shape rather than only end-to-end:
//!
//! * `gemm` — square blocks (the skeletonization CPQR/ID working sets),
//!   the tall-skinny panel products dominating the factorization, and the
//!   small `P̂`-apply shapes.
//! * `gemv` — the solve's dominant primitive.
//! * `gsks` — the fused summation at small source dimensions `d`, where
//!   the rank-`d` register tile and the vectorized `exp` epilogue carry
//!   the cost: Gaussian and Laplacian, square `1024 x 1024` blocks and the
//!   hybrid V-apply's `128 x 16384` at `d = 8` (per-entry cost without a
//!   full hybrid solve).
//!
//! ```sh
//! cargo bench -p kfds-bench --bench microkernel
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use kfds_kernels::{sum_fused, Gaussian, Kernel, Laplacian};
use kfds_la::{gemm, simd, Mat, Trans};
use kfds_tree::PointSet;
use std::hint::black_box;

fn rand_mat(m: usize, n: usize, seed: u64) -> Mat {
    let mut state = seed | 1;
    Mat::from_fn(m, n, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    })
}

fn rand_points(n: usize, d: usize, seed: u64) -> PointSet {
    let m = rand_mat(d, n, seed);
    PointSet::from_col_major(d, m.into_vec())
}

const MODES: [(&str, bool); 2] = [("scalar", false), ("simd", true)];

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("microkernel_gemm");
    group.sample_size(10);
    for &(m, k, n, tag) in &[
        (256usize, 256usize, 256usize, "square_256"),
        (512, 512, 512, "square_512"),
        (4096, 256, 64, "tall_skinny_4096x64"),
        (8192, 16, 8, "panel_apply_8192x8"),
    ] {
        let a = rand_mat(m, k, 1);
        let b = rand_mat(k, n, 2);
        let mut out = Mat::zeros(m, n);
        for (name, on) in MODES {
            group.bench_with_input(BenchmarkId::new(name, tag), &m, |bch, _| {
                simd::set_simd_enabled(on);
                bch.iter(|| {
                    gemm(1.0, a.rb(), Trans::No, b.rb(), Trans::No, 0.0, out.rb_mut());
                    black_box(out.as_slice()[0])
                })
            });
        }
    }
    simd::set_simd_enabled(true);
    group.finish();
}

fn bench_gemv(c: &mut Criterion) {
    let mut group = c.benchmark_group("microkernel_gemv");
    group.sample_size(10);
    for &(m, n) in &[(1024usize, 1024usize), (8192, 128)] {
        let a = rand_mat(m, n, 3);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin()).collect();
        let mut y = vec![0.0; m];
        for (name, on) in MODES {
            group.bench_with_input(BenchmarkId::new(name, format!("{m}x{n}")), &m, |bch, _| {
                simd::set_simd_enabled(on);
                bch.iter(|| {
                    kfds_la::blas2::gemv(1.0, a.rb(), &x, 0.0, &mut y);
                    black_box(y[0])
                })
            });
        }
    }
    simd::set_simd_enabled(true);
    group.finish();
}

/// One `sum_fused` shape per mode. On an AVX-512 host the `simd` mode of
/// an exp-type kernel runs the fused row kernel, every other case the
/// `8 x 4` tile path.
fn bench_gsks_case<K: Kernel>(
    group: &mut BenchmarkGroup<'_>,
    kernel: &K,
    (m, n, d): (usize, usize, usize),
) {
    let pts = rand_points(m + n, d, 5);
    let rows: Vec<usize> = (0..m).collect();
    let cols: Vec<usize> = (m..m + n).collect();
    let u: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
    let mut w = vec![0.0; m];
    for (name, on) in MODES {
        let id = BenchmarkId::new(format!("{name}_{}", kernel.name()), format!("{m}x{n}_d{d}"));
        group.bench_with_input(id, &d, |bch, _| {
            simd::set_simd_enabled(on);
            bch.iter(|| {
                sum_fused(kernel, &pts, &rows, &cols, &u, &mut w);
                black_box(w[0])
            })
        });
    }
}

fn bench_gsks_tiles(c: &mut Criterion) {
    let mut group = c.benchmark_group("microkernel_gsks");
    group.sample_size(10);
    for &d in &[3usize, 8, 16] {
        bench_gsks_case(&mut group, &Gaussian::new(1.0), (1024, 1024, d));
    }
    bench_gsks_case(&mut group, &Laplacian::new(1.0), (1024, 1024, 8));
    // The hybrid V-apply's shape: one frontier node's 128 skeleton rows
    // against N = 16384 sources in 8-D (the SUSY stand-in of Table V).
    bench_gsks_case(&mut group, &Gaussian::new(1.4), (128, 16384, 8));
    bench_gsks_case(&mut group, &Laplacian::new(1.4), (128, 16384, 8));
    simd::set_simd_enabled(true);
    group.finish();
}

criterion_group!(benches, bench_gemm, bench_gemv, bench_gsks_tiles);
criterion_main!(benches);
