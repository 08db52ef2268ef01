//! Tiny-N smoke of every workload, traced and untraced: each run must be
//! correct and must report every metric `BENCHMARK.json` names, and the
//! layers each workload exercises must report nonzero values, so a layer
//! cannot drop out of the benchmark silently.

use kfds_perfbench::report::{per_layer, Report, END_TO_END};
use kfds_perfbench::{run, Params, WORKLOADS};

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn benchmark_json_metrics(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[body.find('[').expect("array")..body.find(']').expect("array end")];
    let field = |obj: &str, key: &str| -> String {
        let pat = format!("\"{key}\": \"");
        let at = obj.find(&pat).unwrap_or_else(|| panic!("{key} in {obj}")) + pat.len();
        obj[at..at + obj[at..].find('"').expect("closing quote")].to_string()
    };
    body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let e2e: Vec<(String, String)> =
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
    assert_eq!(benchmark_json_metrics("end_to_end"), e2e);
    let layers: Vec<(String, String)> =
        per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
    assert_eq!(benchmark_json_metrics("per_layer"), layers);
}

fn tiny(workload: &str, trace: bool) -> Report {
    let p = Params {
        workload: workload.to_string(),
        seed: 5,
        seconds: 0.5,
        trace,
        tiny: true,
        out_dir: None,
    };
    let r = run(&p).expect("known workload");
    assert!(r.correct(), "{workload} trace={trace}: {:?}", r.failures);
    r
}

/// Per-layer metrics that must be nonzero on a workload: the layers it
/// calls.
fn exercised(workload: &str) -> Vec<&'static str> {
    let setup = vec![
        "tree.build_s",
        "tree.knn_s",
        "tree.knn_recall",
        "askit.skeletonize_s",
        "askit.skeleton_points",
        "askit.max_rank",
        "la.gemm_peak_gflops",
        "core.min_pivot_ratio",
        "core.stored_bytes",
        "trace.overhead_ratio",
    ];
    let fit = [
        "core.factor_s",
        "core.factor_flops",
        "core.factor_gflops",
        "core.factor_peak_frac",
        "core.factor.level3_s",
        "core.factor.level3.speedup_2t",
        "tree.dist_tiles",
        "tree.build.speedup_2t",
        "tree.knn.speedup_2t",
        "askit.skeletonize.speedup_2t",
        "core.factor.speedup_2t",
        "trace.unattributed_frac",
    ];
    let serve = [
        "core.assemble_s",
        "core.refactor_s",
        "core.solve1_s",
        "core.solve16_s",
        "core.solve16_gbps_computed",
        "serve.request_ms",
        "serve.request_tail_ms",
        "serve.submit_us",
        "serve.mean_batch",
        "serve.batches",
        "serve.factor_hits",
        "serve.setup_builds",
        "serve.queue_p50_us",
        "serve.solve_p50_us",
        "serve.gen_late_max_ms",
    ];
    let extra: Vec<&'static str> = match workload {
        "fit_normal64d" => [
            "core.assemble_s",
            "core.refactor_s",
            "core.solve1_s",
            "core.solve16_s",
            "core.solve16_gbps_computed",
            "core.solve16.speedup_2t",
            "core.factor_nlogn_exponent",
        ]
        .iter()
        .chain(&fit)
        .copied()
        .collect(),
        "fit_hybrid_susy" => [
            "core.hybrid_setup_s",
            "krylov.gmres_s",
            "krylov.gmres_iters",
            "krylov.s_per_iter",
            "krylov.gmres.speedup_2t",
        ]
        .iter()
        .chain(&fit)
        .copied()
        .collect(),
        "serve_normal64d" => serve
            .iter()
            .chain(&["shard.requests", "shard.rows_solved", "rt.bytes_computed", "shard.solve16_s"])
            .copied()
            .collect(),
        other => panic!("no expectations for {other}"),
    };
    setup.into_iter().chain(extra).collect()
}

#[test]
fn every_workload_reports_every_metric() {
    for &w in WORKLOADS {
        let plain = tiny(w, false);
        for (name, v, _) in plain.metrics(false) {
            assert!(v.is_finite() && v > 0.0, "{w}: end-to-end {name} = {v}");
        }
        let traced = tiny(w, true);
        let layers = traced.metrics(true);
        for name in exercised(w) {
            let v = layers.iter().find(|m| m.0 == name).expect("catalogue name").1;
            assert!(v.is_finite() && v > 0.0, "{w}: per-layer {name} = {v}");
        }
        if w.starts_with("serve") {
            let builds = layers.iter().find(|m| m.0 == "serve.setup_builds").expect("present").1;
            assert_eq!(builds, 1.0, "{w}: a λ-only key set must build its setup once");
        }
    }
}
