//! Criterion micro-benchmarks for the geometric substrate.
//!
//! Besides a small build/kNN pair, the group carries the two neighbor
//! searches at the shapes the end-to-end benchmark runs them, so the kNN
//! layer can be timed on its own:
//!
//! * `knn_exact_16K_d8`: exact `knn_all`, 16384 points with 5 intrinsic
//!   dimensions in 8 (the hybrid SUSY stand-in), 128-point leaves, k = 16;
//! * `knn_approx_32K_d64`: `knn_approximate`, 32768 points with 6
//!   intrinsic dimensions in 64, 8 projection trees, k = 16.

use criterion::{criterion_group, criterion_main, Criterion};
use kfds_tree::datasets::normal_embedded;
use kfds_tree::{knn_all, knn_approximate, BallTree};
use std::hint::black_box;

fn bench_tree(c: &mut Criterion) {
    let pts = normal_embedded(8192, 4, 16, 0.05, 9);
    let mut group = c.benchmark_group("tree");
    group.sample_size(10);
    group.bench_function("build_8K", |b| b.iter(|| black_box(BallTree::build(&pts, 128).depth())));
    let tree = BallTree::build(&pts, 128);
    group.bench_function("knn16_8K", |b| b.iter(|| black_box(knn_all(&tree, 16).k())));

    let exact = BallTree::build(&normal_embedded(16384, 5, 8, 0.1, 11), 128);
    group.bench_function("knn_exact_16K_d8", |b| b.iter(|| black_box(knn_all(&exact, 16).k())));
    let approx = BallTree::build(&normal_embedded(32768, 6, 64, 0.1, 11), 128);
    group.bench_function("knn_approx_32K_d64", |b| {
        b.iter(|| black_box(knn_approximate(&approx, 16, 8, 11).k()))
    });
    group.finish();
}

criterion_group!(benches, bench_tree);
criterion_main!(benches);
