//! End-to-end and per-layer benchmark of the kernel fast direct solver.
//!
//! Three workloads (see `README.md` for why each exists):
//!
//! * `fit_normal64d` — full direct solve plus a λ sweep, N = 32768, d = 64;
//! * `fit_hybrid_susy` — level-restricted hybrid (GMRES) solve, N = 16384;
//! * `serve_normal64d` — the two-level solve service under open- and
//!   closed-loop traffic, N = 16384.
//!
//! The untraced run reports the end-to-end metrics; the traced run records
//! spans around every call into a layer's public API and reports the
//! per-layer metrics. Every answer is checked against ground truth.

pub mod env;
pub mod fit;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod truth;

use std::path::PathBuf;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["fit_normal64d", "fit_hybrid_susy", "serve_normal64d"];

/// One benchmark invocation.
pub struct Params {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny problem sizes, for the benchmark's own tests.
    pub tiny: bool,
    /// Where the traced run writes its spans; `None` writes nothing.
    pub out_dir: Option<PathBuf>,
}

/// Runs one workload and returns its report, or `None` for an unknown
/// workload name.
pub fn run(p: &Params) -> Option<report::Report> {
    Some(match p.workload.as_str() {
        "fit_normal64d" => fit::fit_normal64d(p),
        "fit_hybrid_susy" => fit::fit_hybrid_susy(p),
        "serve_normal64d" => serve::serve(p),
        _ => return None,
    })
}

/// Writes the traced run's spans as JSON into `out_dir`, when set. A write
/// failure is reported on stderr and does not fail the run.
pub(crate) fn write_spans(p: &Params, spans: &[trace::Span]) {
    let Some(dir) = &p.out_dir else { return };
    let path = dir.join(format!("spans-{}-seed{}.json", p.workload, p.seed));
    let res =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, trace::to_json(spans)));
    match res {
        Ok(()) => eprintln!("wrote {} spans to {}", spans.len(), path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
