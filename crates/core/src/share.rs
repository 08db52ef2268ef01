//! Owned, shareable factorization handles for long-lived services.
//!
//! [`FactorTree`] borrows its [`SkeletonTree`] and kernel, which is the
//! right shape for one-shot binaries but not for a serving system that
//! caches factorizations across requests and threads: a cache entry must
//! own everything it needs. [`SharedFactor`] bundles the skeleton tree,
//! the kernel, and the factorization behind one `Arc`, so handles clone
//! in O(1) and can be handed to worker threads freely.
//!
//! Internally the factor tree is stored with a `'static` lifetime that is
//! a private fiction: the references point into `Arc` allocations owned by
//! the same struct, and the API only ever re-exposes them at the handle's
//! borrow lifetime (sound because `FactorTree` is covariant in its
//! lifetime parameter).

use crate::assemble::{assemble_blocks, AssembledBlocks};
use crate::config::SolverConfig;
use crate::error::SolverError;
use crate::factor::{factorize, factorize_with_blocks, FactorTree};
use crate::hybrid::HybridSolver;
use kfds_askit::SkeletonTree;
use kfds_kernels::Kernel;
use kfds_krylov::GmresOptions;
use kfds_la::Mat;
use std::sync::Arc;

/// The λ-independent half of a factorization, owned and shareable: the
/// skeleton tree, the kernel, and the assembled kernel blocks
/// ([`AssembledBlocks`]). A serving system caches one of these per
/// `(dataset, n, h, seed)` and derives every λ-specific [`SharedFactor`]
/// from it via [`SharedFactor::refactorize`], so a λ sweep pays for tree
/// building, skeletonization, and kernel evaluation exactly once.
pub struct SharedSetup<K: Kernel + 'static> {
    st: Arc<SkeletonTree>,
    kernel: Arc<K>,
    blocks: Arc<AssembledBlocks>,
}

impl<K: Kernel + 'static> Clone for SharedSetup<K> {
    fn clone(&self) -> Self {
        SharedSetup {
            st: Arc::clone(&self.st),
            kernel: Arc::clone(&self.kernel),
            blocks: Arc::clone(&self.blocks),
        }
    }
}

impl<K: Kernel + 'static> SharedSetup<K> {
    /// Assembles the λ-independent kernel blocks over an owned skeleton
    /// tree, producing a self-contained setup handle.
    pub fn build(st: Arc<SkeletonTree>, kernel: Arc<K>) -> Self {
        let blocks = Arc::new(assemble_blocks(&st, kernel.as_ref()));
        SharedSetup { st, kernel, blocks }
    }

    /// The skeleton tree.
    pub fn skeleton_tree(&self) -> &SkeletonTree {
        &self.st
    }

    /// The kernel.
    pub fn kernel(&self) -> &K {
        &self.kernel
    }

    /// The assembled λ-independent kernel blocks.
    pub fn blocks(&self) -> &Arc<AssembledBlocks> {
        &self.blocks
    }

    /// Problem size `N`.
    pub fn n(&self) -> usize {
        self.st.tree().points().len()
    }
}

struct SharedInner<K: Kernel + 'static> {
    /// Declared first so it drops before the `Arc`s it points into.
    ft: FactorTree<'static, K>,
    _st: Arc<SkeletonTree>,
    _kernel: Arc<K>,
}

/// An owned factorization of `λI + K̃`: skeleton tree + kernel + factors
/// behind a single `Arc`. `Clone` is a reference-count bump, so a cache
/// can hand the same factorization to many solve workers.
pub struct SharedFactor<K: Kernel + 'static> {
    inner: Arc<SharedInner<K>>,
}

impl<K: Kernel + 'static> Clone for SharedFactor<K> {
    fn clone(&self) -> Self {
        SharedFactor { inner: Arc::clone(&self.inner) }
    }
}

impl<K: Kernel + 'static> SharedFactor<K> {
    /// Runs [`factorize`] over an owned skeleton tree and kernel,
    /// producing a self-contained handle.
    ///
    /// # Errors
    /// Propagates [`SolverError`] from the factorization.
    pub fn factorize(
        st: Arc<SkeletonTree>,
        kernel: Arc<K>,
        config: SolverConfig,
    ) -> Result<Self, SolverError> {
        // SAFETY: the Arc heap allocations are stable for the life of
        // `SharedInner` (the Arcs are stored alongside the factor tree and
        // outlive it — field order), neither type has interior mutability,
        // and no method returns a reference outliving `&self`.
        let st_ref: &'static SkeletonTree = unsafe { &*Arc::as_ptr(&st) };
        // SAFETY: identical argument for the kernel Arc — stored in
        // `SharedInner._kernel`, declared after `ft`, so it outlives it.
        let k_ref: &'static K = unsafe { &*Arc::as_ptr(&kernel) };
        let ft = factorize(st_ref, k_ref, config)?;
        Ok(SharedFactor { inner: Arc::new(SharedInner { ft, _st: st, _kernel: kernel }) })
    }

    /// Factorizes at a new λ from a [`SharedSetup`], reusing its
    /// assembled kernel blocks so only linear algebra runs (the λ-sweep
    /// refactorization path; pins the stored `V`-block scheme).
    ///
    /// # Errors
    /// Propagates [`SolverError`] from the factorization.
    pub fn refactorize(setup: &SharedSetup<K>, config: SolverConfig) -> Result<Self, SolverError> {
        let st = Arc::clone(&setup.st);
        let kernel = Arc::clone(&setup.kernel);
        // SAFETY: as in [`Self::factorize`] — the Arc heap allocations are
        // stable for the life of `SharedInner` (stored alongside the factor
        // tree, declared after it, so they outlive it), neither type has
        // interior mutability, and no method returns a reference outliving
        // `&self`.
        let st_ref: &'static SkeletonTree = unsafe { &*Arc::as_ptr(&st) };
        // SAFETY: identical argument for the kernel Arc.
        let k_ref: &'static K = unsafe { &*Arc::as_ptr(&kernel) };
        let ft = factorize_with_blocks(st_ref, k_ref, Arc::clone(&setup.blocks), config)?;
        Ok(SharedFactor { inner: Arc::new(SharedInner { ft, _st: st, _kernel: kernel }) })
    }

    /// The underlying factor tree, at the handle's borrow lifetime.
    pub fn factor_tree(&self) -> &FactorTree<'_, K> {
        &self.inner.ft
    }

    /// The skeleton tree.
    pub fn skeleton_tree(&self) -> &SkeletonTree {
        self.inner.ft.skeleton_tree()
    }

    /// Problem size `N`.
    pub fn n(&self) -> usize {
        self.skeleton_tree().tree().points().len()
    }

    /// `true` when the factorization is complete (direct solves apply);
    /// otherwise solves route through the hybrid path.
    pub fn is_complete(&self) -> bool {
        self.inner.ft.is_complete()
    }

    /// Number of live handles to this factorization (diagnostic).
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.inner)
    }

    /// Single-RHS solve in the tree's permuted ordering.
    ///
    /// # Errors
    /// See [`FactorTree::solve_in_place`].
    pub fn solve_in_place(&self, b: &mut [f64]) -> Result<(), SolverError> {
        self.inner.ft.solve_in_place(b)
    }

    /// Blocked multi-RHS solve in the tree's permuted ordering: the
    /// complete-factorization direct path when available, the blocked
    /// hybrid path (partial factorization + GMRES on the reduced system)
    /// otherwise. This is the dispatch point a batching service uses.
    ///
    /// # Errors
    /// Propagates [`SolverError`] from either path.
    pub fn solve_block_in_place(
        &self,
        b: &mut Mat,
        gmres: &GmresOptions,
    ) -> Result<(), SolverError> {
        if self.is_complete() {
            self.inner.ft.solve_mat_in_place(b)
        } else {
            let hs = HybridSolver::new(self.factor_tree())?;
            hs.solve_mat_in_place(b, gmres).map(|_| ())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfds_askit::{skeletonize, SkelConfig};
    use kfds_kernels::Gaussian;
    use kfds_tree::datasets::normal_embedded;
    use kfds_tree::BallTree;

    #[test]
    fn shared_factor_matches_borrowed_factorize() {
        let n = 512;
        let pts = normal_embedded(n, 3, 6, 0.05, 7);
        let kernel = Gaussian::new(1.0);
        let tree = BallTree::build(&pts, 64);
        let st = skeletonize(
            tree,
            &kernel,
            SkelConfig::default().with_tol(1e-5).with_max_rank(48).with_neighbors(8),
        );
        let cfg = SolverConfig::default().with_lambda(0.7);
        let ft = factorize(&st, &kernel, cfg).expect("borrowed factorize");
        let mut want = vec![0.4; n];
        ft.solve_in_place(&mut want).expect("borrowed solve");

        let shared =
            SharedFactor::factorize(Arc::new(st), Arc::new(Gaussian::new(1.0)), cfg).expect("sf");
        let clone = shared.clone();
        assert!(clone.handle_count() >= 2);
        let mut got = vec![0.4; n];
        clone.solve_in_place(&mut got).expect("shared solve");
        assert_eq!(got, want, "shared handle must reproduce the borrowed solve bitwise");

        // Handles survive moving to another thread and outliving the original.
        drop(shared);
        let th = std::thread::spawn(move || {
            let mut x = vec![1.0; clone.n()];
            clone.solve_in_place(&mut x).expect("cross-thread solve");
            x[0]
        });
        assert!(th.join().expect("join").is_finite());
    }

    #[test]
    fn refactorize_matches_shared_factorize_bitwise() {
        use crate::config::StorageMode;
        let n = 512;
        let pts = normal_embedded(n, 3, 6, 0.05, 11);
        let kernel = Gaussian::new(0.9);
        let tree = BallTree::build(&pts, 64);
        let st = Arc::new(skeletonize(
            tree,
            &kernel,
            SkelConfig::default().with_tol(1e-5).with_max_rank(48).with_neighbors(8),
        ));
        let kernel = Arc::new(kernel);
        let setup = SharedSetup::build(Arc::clone(&st), Arc::clone(&kernel));
        assert_eq!(setup.n(), n);
        // The refactor contract pins stored V-blocks, so the reference
        // factorization must run under the same storage mode.
        let base = SolverConfig::default().with_storage(StorageMode::StoredGemv);
        for lambda in [1e-3, 0.3, 5.0] {
            let cfg = base.with_lambda(lambda);
            let fresh =
                SharedFactor::factorize(Arc::clone(&st), Arc::clone(&kernel), cfg).expect("fresh");
            let re = SharedFactor::refactorize(&setup, cfg).expect("refactorize");
            let mut want = vec![0.25; n];
            let mut got = vec![0.25; n];
            fresh.solve_in_place(&mut want).expect("fresh solve");
            re.solve_in_place(&mut got).expect("refactor solve");
            assert_eq!(got, want, "refactorize must be bitwise at λ={lambda}");
        }
    }
}
