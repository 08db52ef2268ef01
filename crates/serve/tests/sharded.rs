//! Sharded-service acceptance: a `sharded(p)` service must answer
//! **bitwise-identically** to the single-node `with_shards(1)` service
//! (the shard tier only repartitions the same arithmetic), and per-shard
//! lanes must account for every routed batch.

use kfds_askit::{skeletonize, SkelConfig};
use kfds_core::{SharedFactor, SolverConfig, StorageMode};
use kfds_kernels::Gaussian;
use kfds_serve::{FactorKey, ServeConfig, ServeError, SolveService};
use kfds_tree::datasets::normal_embedded;
use kfds_tree::BallTree;
use std::sync::Arc;
use std::time::Duration;

fn build_factor(key: &FactorKey) -> Result<SharedFactor<Gaussian>, ServeError> {
    let pts = normal_embedded(key.n, 3, 8, 0.05, key.seed);
    let kernel = Gaussian::new(key.h());
    let tree = BallTree::build(&pts, 64);
    let st = skeletonize(
        tree,
        &kernel,
        SkelConfig::default().with_tol(1e-5).with_max_rank(48).with_neighbors(8).with_max_level(1),
    );
    let cfg =
        SolverConfig::default().with_lambda(key.lambda()).with_storage(StorageMode::StoredGemv);
    SharedFactor::factorize(Arc::new(st), Arc::new(kernel), cfg)
        .map_err(|e| ServeError::FactorizationFailed(e.to_string()))
}

fn rhs(n: usize, seed: usize) -> Vec<f64> {
    (0..n).map(|i| 0.5 + ((i * 13 + seed * 7) % 17) as f64 / 17.0).collect()
}

fn cfg(shards: usize) -> ServeConfig {
    // One worker and zero linger so sequential submit→wait cycles
    // dispatch deterministically as batches of 1.
    ServeConfig::default().with_workers(1).with_shards(shards).with_linger(Duration::ZERO)
}

#[test]
fn sharded_service_answers_bitwise_like_the_single_node_service() {
    let n = 512;
    let nreq = 6;
    let key = FactorKey::new("t-shard", n, 1.0, 0.5, 3);

    // Reference: the single-node service, which starts no router.
    let svc = SolveService::start(cfg(1), build_factor);
    let reference: Vec<Vec<f64>> = (0..nreq)
        .map(|r| svc.submit(key.clone(), rhs(n, r)).expect("submit").wait().expect("solve"))
        .collect();
    let stats = svc.shutdown();
    assert!(stats.shards.is_empty(), "with_shards(1) must leave the service unsharded");
    assert_eq!(stats.shard_fallbacks, 0);
    assert_eq!(stats.completed, nreq as u64);

    // Sharded services at p = 2 and p = 4 must reproduce every byte.
    for p in [2usize, 4] {
        let svc = SolveService::start(cfg(p), build_factor);
        for (r, want) in reference.iter().enumerate() {
            let got =
                svc.submit(key.clone(), rhs(n, r)).expect("submit").wait().expect("routed solve");
            assert_eq!(&got, want, "p={p} request {r}: sharded answer must be bitwise identical");
        }
        let stats = svc.shutdown();
        assert_eq!(stats.completed, nreq as u64);
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.shard_fallbacks, 0, "complete factors must never fall back");
        assert_eq!(stats.shards.len(), p, "one counter lane per shard");
        for lane in &stats.shards {
            assert_eq!(lane.requests, stats.batches, "every batch reaches every shard");
            assert_eq!(lane.local_misses, 1, "one local partition-cache fill per shard");
            assert_eq!(lane.local_hits, stats.batches - 1);
            assert_eq!(lane.errors, 0);
            assert_eq!(lane.rows_solved, stats.batches * (n / p) as u64);
        }
    }
}
