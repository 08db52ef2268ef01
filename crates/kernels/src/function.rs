//! Kernel functions `K(x, y)`.
//!
//! Every kernel is evaluated from the triple `(x·y, ‖x‖², ‖y‖²)` so that
//! blocked evaluation and the fused summation can obtain all pairwise
//! quantities from a single rank-`d` update (`‖x−y‖² = ‖x‖²+‖y‖²−2x·y`).
//! ASKIT has been applied to polynomial, Matérn, Laplacian and Gaussian
//! kernels (paper §I); all four are provided.

pub use kfds_la::simd::ExpForm;

/// A positive-definite kernel function evaluable in `O(d)` per entry.
pub trait Kernel: Sync + Send {
    /// Evaluates the kernel from the inner product and squared norms of the
    /// two arguments.
    fn eval_parts(&self, dot: f64, sq_norm_x: f64, sq_norm_y: f64) -> f64;

    /// Evaluates the kernel on explicit coordinates.
    fn eval(&self, x: &[f64], y: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), y.len());
        let mut dot = 0.0;
        let mut nx = 0.0;
        let mut ny = 0.0;
        for (&a, &b) in x.iter().zip(y) {
            dot += a * b;
            nx += a * a;
            ny += b * b;
        }
        self.eval_parts(dot, nx, ny)
    }

    /// Evaluates the kernel elementwise over a row-major
    /// `nx.len() x ny.len()` tile of inner products, **in place**:
    /// on entry `tile[r * ny.len() + c]` holds `x_r . y_c`; on exit it
    /// holds `K(x_r, y_c)`.
    ///
    /// This is the batched form the fused GSKS epilogue and the blocked
    /// evaluators call. For a kernel with an [`exp_form`](Kernel::exp_form)
    /// the scaled negative distances are written elementwise (the same
    /// expression as `eval_parts`, so identical per-entry arguments) and
    /// the whole tile goes through one `kfds_la::simd::vexp` call: with
    /// SIMD off that is `f64::exp` per element in order — bitwise the
    /// scalar path; with SIMD on the vector `exp` is within a few ulp of
    /// libm. Other kernels walk the tile with [`Kernel::eval_parts`].
    fn eval_parts_many(&self, tile: &mut [f64], nx: &[f64], ny: &[f64]) {
        debug_assert_eq!(tile.len(), nx.len() * ny.len());
        let n = ny.len();
        let Some(form) = self.exp_form() else {
            for (r, &nxr) in nx.iter().enumerate() {
                for (t, &nyc) in tile[r * n..(r + 1) * n].iter_mut().zip(ny) {
                    *t = self.eval_parts(*t, nxr, nyc);
                }
            }
            return;
        };
        for (r, &nxr) in nx.iter().enumerate() {
            for (t, &nyc) in tile[r * n..(r + 1) * n].iter_mut().zip(ny) {
                let d2 = (nxr + nyc - 2.0 * *t).max(0.0);
                *t = match form {
                    ExpForm::SqDist(c) => -d2 * c,
                    ExpForm::Dist(c) => -d2.sqrt() * c,
                };
            }
        }
        kfds_la::simd::vexp(tile);
    }

    /// The kernel's shape as an exponential of the distance, if it has
    /// one: Gaussian is `exp(−c·d²)`, Laplacian `exp(−c·d)`. Kernels that
    /// report a form batch their `exp` in [`Kernel::eval_parts_many`] and
    /// take the fused AVX-512 row kernel in [`sum_fused`](crate::sum_fused);
    /// the default `None` keeps the tile path. A reported form must
    /// describe `eval_parts` exactly.
    fn exp_form(&self) -> Option<ExpForm> {
        None
    }

    /// Approximate flop count of one `eval_parts` call (used for the
    /// GFLOP/s accounting of Table I; the `2d` flops of the inner product
    /// are counted separately).
    fn flops_per_eval(&self) -> f64 {
        5.0
    }

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// The Gaussian (RBF) kernel `exp(-‖x−y‖² / (2h²))` — eq. (1) of the paper.
#[derive(Clone, Copy, Debug)]
pub struct Gaussian {
    inv_two_h2: f64,
    /// Bandwidth `h`.
    pub h: f64,
}

impl Gaussian {
    /// Creates a Gaussian kernel with bandwidth `h > 0`.
    pub fn new(h: f64) -> Self {
        assert!(h > 0.0, "bandwidth must be positive");
        Gaussian { inv_two_h2: 1.0 / (2.0 * h * h), h }
    }
}

impl Kernel for Gaussian {
    #[inline]
    fn eval_parts(&self, dot: f64, nx: f64, ny: f64) -> f64 {
        let d2 = (nx + ny - 2.0 * dot).max(0.0);
        (-d2 * self.inv_two_h2).exp()
    }

    fn exp_form(&self) -> Option<ExpForm> {
        Some(ExpForm::SqDist(self.inv_two_h2))
    }

    fn name(&self) -> &'static str {
        "gaussian"
    }
}

/// The Laplacian kernel `exp(-‖x−y‖ / h)`.
#[derive(Clone, Copy, Debug)]
pub struct Laplacian {
    inv_h: f64,
    /// Bandwidth `h`.
    pub h: f64,
}

impl Laplacian {
    /// Creates a Laplacian kernel with bandwidth `h > 0`.
    pub fn new(h: f64) -> Self {
        assert!(h > 0.0, "bandwidth must be positive");
        Laplacian { inv_h: 1.0 / h, h }
    }
}

impl Kernel for Laplacian {
    #[inline]
    fn eval_parts(&self, dot: f64, nx: f64, ny: f64) -> f64 {
        let d2 = (nx + ny - 2.0 * dot).max(0.0);
        (-d2.sqrt() * self.inv_h).exp()
    }

    fn exp_form(&self) -> Option<ExpForm> {
        Some(ExpForm::Dist(self.inv_h))
    }

    fn name(&self) -> &'static str {
        "laplacian"
    }
}

/// The Matérn-3/2 kernel `(1 + √3 r/h) exp(-√3 r/h)`, `r = ‖x−y‖`.
#[derive(Clone, Copy, Debug)]
pub struct Matern32 {
    sqrt3_inv_h: f64,
    /// Bandwidth `h`.
    pub h: f64,
}

impl Matern32 {
    /// Creates a Matérn-3/2 kernel with bandwidth `h > 0`.
    pub fn new(h: f64) -> Self {
        assert!(h > 0.0, "bandwidth must be positive");
        Matern32 { sqrt3_inv_h: 3f64.sqrt() / h, h }
    }
}

impl Kernel for Matern32 {
    #[inline]
    fn eval_parts(&self, dot: f64, nx: f64, ny: f64) -> f64 {
        let d2 = (nx + ny - 2.0 * dot).max(0.0);
        let t = d2.sqrt() * self.sqrt3_inv_h;
        (1.0 + t) * (-t).exp()
    }

    fn name(&self) -> &'static str {
        "matern32"
    }
}

/// The polynomial kernel `(scale · x·y + shift)^degree`.
#[derive(Clone, Copy, Debug)]
pub struct Polynomial {
    /// Multiplicative scale on the inner product.
    pub scale: f64,
    /// Additive shift.
    pub shift: f64,
    /// Degree (positive integer).
    pub degree: u32,
}

impl Polynomial {
    /// Creates a polynomial kernel.
    pub fn new(scale: f64, shift: f64, degree: u32) -> Self {
        assert!(degree >= 1);
        Polynomial { scale, shift, degree }
    }
}

impl Kernel for Polynomial {
    #[inline]
    fn eval_parts(&self, dot: f64, _nx: f64, _ny: f64) -> f64 {
        (self.scale * dot + self.shift).powi(self.degree as i32)
    }

    fn name(&self) -> &'static str {
        "polynomial"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_limits() {
        let k = Gaussian::new(1.0);
        assert_eq!(k.eval(&[1.0, 2.0], &[1.0, 2.0]), 1.0);
        // d2 = 2, K = exp(-1).
        let v = k.eval(&[0.0, 0.0], &[1.0, 1.0]);
        assert!((v - (-1.0f64).exp()).abs() < 1e-15);
        // Small bandwidth: far points give ~0.
        let ks = Gaussian::new(0.01);
        assert!(ks.eval(&[0.0], &[1.0]) < 1e-300);
    }

    #[test]
    fn eval_parts_matches_eval() {
        let kernels: Vec<Box<dyn Kernel>> = vec![
            Box::new(Gaussian::new(0.7)),
            Box::new(Laplacian::new(1.3)),
            Box::new(Matern32::new(0.5)),
            Box::new(Polynomial::new(0.5, 1.0, 3)),
        ];
        let x = [0.3, -1.2, 0.8];
        let y = [1.0, 0.1, -0.4];
        let dot: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let nx: f64 = x.iter().map(|v| v * v).sum();
        let ny: f64 = y.iter().map(|v| v * v).sum();
        for k in &kernels {
            assert!((k.eval(&x, &y) - k.eval_parts(dot, nx, ny)).abs() < 1e-14, "{}", k.name());
        }
    }

    #[test]
    fn kernels_symmetric() {
        let x = [0.5, 0.25];
        let y = [-1.0, 2.0];
        let g = Gaussian::new(0.9);
        assert_eq!(g.eval(&x, &y), g.eval(&y, &x));
        let m = Matern32::new(0.9);
        assert!((m.eval(&x, &y) - m.eval(&y, &x)).abs() < 1e-15);
    }

    #[test]
    fn matern_at_zero_distance() {
        let m = Matern32::new(2.0);
        assert_eq!(m.eval(&[1.0], &[1.0]), 1.0);
    }

    #[test]
    fn polynomial_uses_dot_only() {
        let p = Polynomial::new(1.0, 0.0, 2);
        assert_eq!(p.eval(&[2.0, 0.0], &[3.0, 5.0]), 36.0);
    }

    #[test]
    fn eval_parts_many_matches_eval_parts() {
        let kernels: Vec<Box<dyn Kernel>> = vec![
            Box::new(Gaussian::new(0.7)),
            Box::new(Laplacian::new(1.3)),
            Box::new(Matern32::new(0.5)),
            Box::new(Polynomial::new(0.5, 1.0, 3)),
        ];
        let nx: Vec<f64> = (0..5).map(|i| 0.3 + i as f64 * 0.7).collect();
        let ny: Vec<f64> = (0..3).map(|j| 0.1 + j as f64 * 1.1).collect();
        let dots: Vec<f64> = (0..15).map(|t| ((t * 7 % 11) as f64 * 0.17 - 0.5).min(1.0)).collect();
        for k in &kernels {
            let mut tile = dots.clone();
            k.eval_parts_many(&mut tile, &nx, &ny);
            for (r, &nxr) in nx.iter().enumerate() {
                for (c, &nyc) in ny.iter().enumerate() {
                    let want = k.eval_parts(dots[r * 3 + c], nxr, nyc);
                    let got = tile[r * 3 + c];
                    assert!(
                        (got - want).abs() <= 1e-13 * (1.0 + want.abs()),
                        "{} ({r},{c}): {got} vs {want}",
                        k.name()
                    );
                }
            }
        }
    }

    #[test]
    fn exp_form_describes_eval_parts() {
        let kernels: Vec<Box<dyn Kernel>> = vec![
            Box::new(Gaussian::new(0.7)),
            Box::new(Laplacian::new(1.3)),
            Box::new(Matern32::new(0.5)),
            Box::new(Polynomial::new(0.5, 1.0, 3)),
        ];
        let (dot, nx, ny) = (0.4, 1.1, 0.9);
        let d2: f64 = nx + ny - 2.0 * dot;
        for k in &kernels {
            let want = k.eval_parts(dot, nx, ny);
            match k.exp_form() {
                Some(ExpForm::SqDist(c)) => assert_eq!((-c * d2).exp(), want, "{}", k.name()),
                Some(ExpForm::Dist(c)) => assert_eq!((-c * d2.sqrt()).exp(), want, "{}", k.name()),
                // Only kernels that are not a pure exponential of the
                // distance may report no form.
                None => assert!(matches!(k.name(), "matern32" | "polynomial")),
            }
        }
    }

    #[test]
    fn cancellation_clamped() {
        // nx + ny - 2 dot can go slightly negative in floating point for
        // identical points; the clamp keeps kernels at exactly 1.
        let g = Gaussian::new(1e-3);
        let v = g.eval_parts(1.0 + 1e-16, 1.0, 1.0);
        assert_eq!(v, 1.0);
    }
}
