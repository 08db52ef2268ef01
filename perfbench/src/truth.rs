//! Inputs derived from the workload seed, and ground-truth checks that do
//! not trust the solver: residuals against the exact kernel, exact
//! neighbours by brute force, and a measured GEMM peak.

use kfds_kernels::Kernel;
use kfds_la::{Mat, Trans};
use kfds_tree::datasets::normal;
use kfds_tree::{NeighborLists, PointSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::time::Instant;

/// Seed of the fixed linear maps of [`embedded`].
const EMBED_SEED: u64 = 0x5eed;

/// `n` points of a `datasets::normal_embedded`-style set: `intrinsic`-D
/// standard normal samples mapped into `ambient`-D by a random linear map,
/// plus noise of standard deviation `noise` in every coordinate, then
/// normalized. The map is drawn from a fixed seed, so every `seed` samples
/// the same distribution; `normal_embedded` draws a new map per seed, and
/// the solver's accuracy and iteration counts then vary with the map.
pub fn embedded(n: usize, intrinsic: usize, ambient: usize, noise: f64, seed: u64) -> PointSet {
    let mut map_rng = StdRng::seed_from_u64(EMBED_SEED);
    let map: Vec<f64> = (0..ambient * intrinsic).map(|_| normal(&mut map_rng)).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(n * ambient);
    let mut z = vec![0.0; intrinsic];
    for _ in 0..n {
        for zk in &mut z {
            *zk = normal(&mut rng);
        }
        for a in 0..ambient {
            let v: f64 =
                map[a * intrinsic..(a + 1) * intrinsic].iter().zip(&z).map(|(e, z)| e * z).sum();
            data.push(v + noise * normal(&mut rng));
        }
    }
    let mut p = PointSet::from_col_major(ambient, data);
    p.normalize();
    p
}

/// SplitMix64: a small, well-mixed generator for seeded inputs.
pub struct Rng(u64);

impl Rng {
    /// Generator for one seeded stream; `stream` separates independent
    /// uses of the same workload seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Right-hand side number `index` of a workload: uniform entries in
/// `[-1, 1)`, a pure function of `(seed, index)`.
pub fn rhs(n: usize, seed: u64, index: u64) -> Vec<f64> {
    let mut rng = Rng::new(seed, 1 + index);
    (0..n).map(|_| rng.unit()).collect()
}

/// `count` distinct row indices below `n`, chosen from the seed.
pub fn sample_rows(n: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed, 0x0123_4567);
    let mut rows = std::collections::BTreeSet::new();
    while rows.len() < count.min(n) {
        rows.insert(rng.below(n));
    }
    rows.into_iter().collect()
}

/// Sampled-row relative residual `‖((λI + K)x − b)_S‖ / ‖b_S‖` against the
/// **exact** kernel, with `x`, `b` and `points` in the same ordering.
pub fn sampled_residual<K: Kernel>(
    points: &PointSet,
    kernel: &K,
    lambda: f64,
    x: &[f64],
    b: &[f64],
    rows: &[usize],
) -> f64 {
    let n = points.len();
    let r: Vec<(f64, f64)> = rows
        .to_vec()
        .into_par_iter()
        .map(|i| {
            let pi = points.point(i);
            let kx: f64 = (0..n).map(|j| kernel.eval(pi, points.point(j)) * x[j]).sum();
            let ri = lambda * x[i] + kx - b[i];
            (ri * ri, b[i] * b[i])
        })
        .collect();
    let num: f64 = r.iter().map(|p| p.0).sum();
    let den: f64 = r.iter().map(|p| p.1).sum();
    (num / den.max(f64::MIN_POSITIVE)).sqrt()
}

/// Recall of `lists` against exact neighbours found by brute force, for
/// the given query points (tree ordering, self excluded, ties by index).
pub fn sampled_recall(points: &PointSet, lists: &NeighborLists, queries: &[usize]) -> f64 {
    let k = lists.k();
    let n = points.len();
    let hits: Vec<usize> = queries
        .to_vec()
        .into_par_iter()
        .map(|q| {
            let mut cands: Vec<(f64, usize)> =
                (0..n).filter(|&i| i != q).map(|i| (points.sq_dist(q, i), i)).collect();
            cands.select_nth_unstable_by(k - 1, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let exact: Vec<usize> = cands[..k].iter().map(|c| c.1).collect();
            lists.neighbors(q).iter().filter(|&&c| exact.contains(&(c as usize))).count()
        })
        .collect();
    hits.iter().sum::<usize>() as f64 / (queries.len() * k) as f64
}

/// Peak GEMM rate in GFLOP/s: best of `reps` `n×n×n` products through
/// `kfds_la::gemm` at the calling thread's rayon thread count.
pub fn gemm_peak_gflops(n: usize, reps: usize) -> f64 {
    let a = Mat::from_fn(n, n, |i, j| ((i * 7 + j * 13) % 17) as f64 * 0.01);
    let b = Mat::from_fn(n, n, |i, j| ((i * 5 + j * 3) % 11) as f64 * 0.02);
    let mut c = Mat::zeros(n, n);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        kfds_la::gemm(1.0, a.rb(), Trans::No, b.rb(), Trans::No, 0.0, c.rb_mut());
        best = best.min(t.elapsed().as_secs_f64());
        std::hint::black_box(&c);
    }
    2.0 * (n as f64).powi(3) / best / 1e9
}

/// `‖a − b‖ / ‖b‖`.
pub fn rel_diff(a: &[f64], b: &[f64]) -> f64 {
    let num: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    let den: f64 = b.iter().map(|v| v * v).sum();
    (num / den.max(f64::MIN_POSITIVE)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfds_kernels::Gaussian;
    use kfds_tree::{knn_brute_force, BallTree};

    #[test]
    fn embedded_points_are_seeded_and_normalized() {
        let a = embedded(200, 3, 8, 0.1, 1);
        assert_eq!((a.len(), a.dim()), (200, 8));
        assert_eq!(a.as_slice(), embedded(200, 3, 8, 0.1, 1).as_slice());
        assert_ne!(a.as_slice(), embedded(200, 3, 8, 0.1, 2).as_slice());
        let mean: f64 = (0..200).map(|i| a.point(i)[0]).sum::<f64>() / 200.0;
        assert!(mean.abs() < 1e-12);
    }

    #[test]
    fn seeded_inputs_repeat() {
        assert_eq!(rhs(8, 3, 1), rhs(8, 3, 1));
        assert_ne!(rhs(8, 3, 1), rhs(8, 4, 1));
        assert_ne!(rhs(8, 3, 1), rhs(8, 3, 2));
        let rows = sample_rows(100, 10, 5);
        assert_eq!(rows.len(), 10);
        assert!(rows.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        // b = (2I + K)x formed densely: zero residual at λ = 2, not at 1.
        let pts = kfds_tree::datasets::uniform_cube(40, 3, 1);
        let kern = Gaussian::new(0.7);
        let x = rhs(40, 9, 0);
        let b: Vec<f64> = (0..40)
            .map(|i| {
                2.0 * x[i]
                    + (0..40).map(|j| kern.eval(pts.point(i), pts.point(j)) * x[j]).sum::<f64>()
            })
            .collect();
        let rows: Vec<usize> = (0..40).collect();
        assert!(sampled_residual(&pts, &kern, 2.0, &x, &b, &rows) < 1e-14);
        assert!(sampled_residual(&pts, &kern, 1.0, &x, &b, &rows) > 1e-3);
    }

    #[test]
    fn brute_force_lists_have_full_recall() {
        let pts = kfds_tree::datasets::uniform_cube(300, 4, 2);
        let tree = BallTree::build(&pts, 32);
        let exact = knn_brute_force(&tree, 5);
        let q: Vec<usize> = (0..300).step_by(7).collect();
        assert_eq!(sampled_recall(tree.points(), &exact, &q), 1.0);
    }

    #[test]
    fn gemm_peak_is_finite() {
        let g = gemm_peak_gflops(64, 2);
        assert!(g.is_finite() && g > 0.0);
    }
}
