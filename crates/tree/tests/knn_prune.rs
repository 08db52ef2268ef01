//! Pruning witness for the exact neighbor search.
//!
//! `blocked_tile_count` is process-global, so this check lives in its own
//! test binary with a single test: no other search can run concurrently
//! and inflate the count.

use kfds_tree::datasets::gaussian_mixture;
use kfds_tree::{blocked_tile_count, knn_all, knn_brute_force, BallTree};

#[test]
fn exact_search_prunes_leaf_pairs_on_clustered_low_dim_data() {
    // Eight well-separated clusters in 3-D: most leaf pairs lie in other
    // clusters and must be skipped. A search that silently scores every
    // leaf pair again computes exactly leaves² tiles.
    let pts = gaussian_mixture(4096, 3, 8, 20.0, 5);
    let tree = BallTree::build(&pts, 64);
    let leaves = tree.leaves().len() as u64;
    let before = blocked_tile_count();
    let nn = knn_all(&tree, 16);
    let tiles = blocked_tile_count() - before;
    assert!(tiles < leaves * leaves, "{tiles} tiles for {leaves} leaves: nothing was pruned");

    // The pruned search is still exact.
    let brute = knn_brute_force(&tree, 16);
    for i in 0..pts.len() {
        assert_eq!(nn.neighbors(i), brute.neighbors(i), "point {i}");
    }
}
