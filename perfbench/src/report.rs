//! The metric catalogue and the per-run report.
//!
//! Every workload reports every end-to-end metric (untraced run) and every
//! per-layer metric (traced run). A per-layer metric of a layer that the
//! workload never calls is reported as `0`, set explicitly by the workload
//! with [`Report::not_exercised`]; a metric nobody set is a bug and makes
//! [`Report::json`] panic, so a layer cannot drop out silently.

use crate::stats::Summary;

/// End-to-end metrics: `(name, unit)`. Their definitions per workload are
/// in `perfbench/README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("fit_s", "s"),
    ("answer_p50_ms", "ms"),
    ("answers_per_s", "1/s"),
    ("residual", "rel"),
    ("peak_rss_mb", "MiB"),
];

/// Deepest tree level reported per level (`N = 32768`, `m = 128`).
pub const MAX_LEVEL: usize = 8;

/// Per-layer metrics of the traced run: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: &[(&str, &str)] = &[
        ("tree.build_s", "s"),
        ("tree.knn_s", "s"),
        ("tree.dist_tiles", "count"),
        ("tree.knn_recall", "ratio"),
        ("askit.skeletonize_s", "s"),
        ("askit.skeleton_points", "count"),
        ("askit.max_rank", "count"),
        ("core.assemble_s", "s"),
        ("core.factor_s", "s"),
        ("core.factor_flops", "flop"),
        ("core.factor_gflops", "GFLOP/s"),
        ("core.stored_bytes", "B"),
        ("core.min_pivot_ratio", "ratio"),
        ("core.refactor_s", "s"),
        ("core.solve1_s", "s"),
        ("core.solve16_s", "s"),
        ("core.solve16_gbps_computed", "GB/s"),
        ("core.hybrid_setup_s", "s"),
        ("krylov.gmres_s", "s"),
        ("krylov.gmres_iters", "count"),
        ("krylov.s_per_iter", "s"),
        ("la.gemm_peak_gflops", "GFLOP/s"),
        ("core.factor_peak_frac", "ratio"),
        ("serve.request_ms", "ms"),
        ("serve.request_tail_ms", "ms"),
        ("serve.submit_us", "us"),
        ("serve.mean_batch", "count"),
        ("serve.batches", "count"),
        ("serve.factor_hits", "count"),
        ("serve.setup_builds", "count"),
        ("serve.rejected", "count"),
        ("serve.queue_p50_us", "us"),
        ("serve.solve_p50_us", "us"),
        ("serve.gen_late_max_ms", "ms"),
        ("shard.requests", "count"),
        ("shard.rows_solved", "count"),
        ("shard.local_misses", "count"),
        ("shard.errors", "count"),
        ("rt.bytes_computed", "B"),
        ("shard.solve16_s", "s"),
        ("tree.build.speedup_2t", "x"),
        ("tree.knn.speedup_2t", "x"),
        ("askit.skeletonize.speedup_2t", "x"),
        ("core.factor.speedup_2t", "x"),
        ("core.solve16.speedup_2t", "x"),
        ("krylov.gmres.speedup_2t", "x"),
        ("core.factor_nlogn_exponent", "1"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.unattributed_frac", "ratio"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for l in 0..=MAX_LEVEL {
        out.push((level_metric(l), "s"));
        out.push((level_speedup_metric(l), "x"));
    }
    out
}

/// Name of the per-level factorization time metric.
pub fn level_metric(level: usize) -> String {
    format!("core.factor.level{level}_s")
}

/// Name of the per-level 1-thread/2-thread speed-up metric.
pub fn level_speedup_metric(level: usize) -> String {
    format!("core.factor.level{level}.speedup_2t")
}

/// Metrics, checks and notes of one run.
#[derive(Default)]
pub struct Report {
    e2e: Vec<(String, f64)>,
    layer: Vec<(String, f64)>,
    /// Human-readable lines printed before the JSON result.
    pub lines: Vec<String>,
    /// Operations attempted (fits, λ steps, solves, requests).
    pub attempted: u64,
    /// Failure reasons; each counts once in `failed`.
    pub failures: Vec<String>,
}

fn set(list: &mut Vec<(String, f64)>, name: &str, value: f64) {
    match list.iter_mut().find(|(n, _)| n == name) {
        Some(slot) => slot.1 = value,
        None => list.push((name.to_string(), value)),
    }
}

impl Report {
    /// Sets an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64) {
        set(&mut self.e2e, name, value);
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        set(&mut self.layer, name, value);
    }

    /// Reports `0` for per-layer metrics of layers this workload never
    /// calls.
    pub fn not_exercised(&mut self, names: &[&str]) {
        for n in names {
            self.layer(n, 0.0);
        }
    }

    /// Records a timing line (count, median, supported tail) and returns
    /// its summary; `scale` converts seconds to the printed unit.
    pub fn timing(&mut self, label: &str, unit: &str, scale: f64, secs: &[f64]) -> Summary {
        let scaled: Vec<f64> = secs.iter().map(|s| s * scale).collect();
        let sm = if scaled.is_empty() { Summary::of(&[0.0]) } else { Summary::of(&scaled) };
        self.lines.push(format!(
            "timing {label:<28} n={:<5} median={:.6} {unit}  {}={:.6} {unit}",
            scaled.len(),
            sm.median,
            sm.tail_label(),
            sm.tail
        ));
        sm
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.failures.push(reason.into());
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.attempted > 0
    }

    /// Metrics of the chosen class, in catalogue order.
    ///
    /// # Panics
    /// Panics if the workload left a catalogue metric unset.
    pub fn metrics(&self, traced: bool) -> Vec<(String, f64, &'static str)> {
        let (catalogue, list): (Vec<(String, &'static str)>, _) = if traced {
            (per_layer(), &self.layer)
        } else {
            (END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect(), &self.e2e)
        };
        catalogue
            .into_iter()
            .map(|(name, unit)| {
                let v = list
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("metric {name} was not reported"))
                    .1;
                (name, v, unit)
            })
            .collect()
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self, traced: bool) -> String {
        let metrics: Vec<String> = self
            .metrics(traced)
            .into_iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:e}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|p| p.0.to_string()).collect();
        names.extend(per_layer().into_iter().map(|p| p.0));
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        for name in &names {
            assert!(name.len() <= 64);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    #[should_panic(expected = "was not reported")]
    fn unset_metric_panics() {
        Report::default().json(false);
    }

    #[test]
    fn json_carries_every_metric() {
        let mut r = Report::default();
        for (n, _) in END_TO_END {
            r.e2e(n, 1.5);
        }
        r.attempted = 3;
        r.fail("x");
        let j = r.json(false);
        assert!(j.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1"));
        assert!(j.contains("\"setup_s\": {\"value\": 1.5e0, \"unit\": \"s\"}"));
    }
}
