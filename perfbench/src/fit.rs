//! The two fit workloads: points in, solution out.
//!
//! `fit_normal64d` is the full direct solver in the paper's Fig. 4-left
//! regime followed by a λ sweep (the cross-validation shape);
//! `fit_hybrid_susy` is the level-restricted hybrid solver of Table V.
//! Each run repeats the whole pipeline until its time is used (at least
//! `min_reps` times) and reports medians over the repetitions.

use crate::env::peak_rss_mb;
use crate::report::{level_metric, level_speedup_metric, Report, MAX_LEVEL};
use crate::stats::{median, slope};
use crate::trace::{self_times, self_times_of, Span, Tracer};
use crate::truth::{
    embedded, gemm_peak_gflops, rhs, sample_rows, sampled_recall, sampled_residual,
};
use crate::Params;
use kfds_askit::{compute_neighbors, skeletonize_with_neighbors, SkelConfig, SkeletonTree};
use kfds_core::{
    assemble_blocks, factorize, factorize_with_blocks, FactorStats, FactorTree, HybridSolver,
    SolverConfig, StorageMode,
};
use kfds_kernels::Gaussian;
use kfds_krylov::GmresOptions;
use kfds_la::Mat;
use kfds_tree::{blocked_tile_count, BallTree, NeighborLists, PointSet};
use rayon::{ThreadPool, ThreadPoolBuilder};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Right-hand sides per blocked solve (the serving batch size).
pub const NRHS: usize = 16;

/// λ of the first solve and the λ grid of the sweep (and of the serve
/// keys). Rank-64 skeletons approximate this kernel coarsely (sampled
/// matvec error ≈ 35 %); at λ ≥ 10 the answer's residual against the exact
/// kernel stays well below 1, so it carries information.
pub const LAMBDA0: f64 = 10.0;
pub const LAMBDA_GRID: [f64; 4] = [10.0, 20.0, 40.0, 80.0];

/// A sampled-row residual above this is a wrong answer for the rank-64
/// direct solver (measured values sit near 0.15 at λ = 10 and fall with λ).
pub const DIRECT_RESIDUAL_LIMIT: f64 = 0.5;

/// A hybrid answer above this residual is wrong (measured values sit near
/// 0.05: the skeletons' approximation error, not the GMRES tolerance,
/// dominates).
const HYBRID_RESIDUAL_LIMIT: f64 = 0.25;

pub(crate) fn pool(threads: usize) -> ThreadPool {
    ThreadPoolBuilder::new().num_threads(threads).build().expect("thread pool")
}

pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Tree, kNN and skeletonization: the λ-free setup before assembly.
pub(crate) struct Setup {
    pub st: SkeletonTree,
    pub nn: NeighborLists,
    pub secs: f64,
    pub tiles: u64,
}

pub(crate) fn setup(
    pts: &PointSet,
    m: usize,
    cfg: &SkelConfig,
    kernel: &Gaussian,
    tr: &Tracer,
    rep: u32,
) -> Setup {
    let (tree, t_tree) = tr.scope("tree.build", rep, || BallTree::build(pts, m));
    let tiles0 = blocked_tile_count();
    let (nn, t_knn) = tr.scope("tree.knn", rep, || compute_neighbors(&tree, cfg));
    let tiles = blocked_tile_count() - tiles0;
    let (st, t_skel) = tr.scope("askit.skeletonize", rep, || {
        skeletonize_with_neighbors(tree, kernel, cfg.clone(), &nn)
    });
    Setup { st, nn, secs: t_tree + t_knn + t_skel, tiles }
}

/// `NRHS` seeded right-hand sides as columns.
pub(crate) fn rhs_block(n: usize, seed: u64, first: u64) -> Mat {
    let mut b = Mat::zeros(n, NRHS);
    for j in 0..NRHS {
        b.col_mut(j).copy_from_slice(&rhs(n, seed, first + j as u64));
    }
    b
}

/// Records an unstable factorization as a failure.
fn check_stable(report: &mut Report, what: &str, stats: &FactorStats) {
    if stats.is_unstable() {
        report.fail(format!("{what}: {} unstable factorizations", stats.unstable_factorizations));
    }
}

/// Runs `f` and returns its result with its wall-clock seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Checks an answer against the exact kernel; returns its residual.
#[allow(clippy::too_many_arguments)]
fn check_answer(
    report: &mut Report,
    what: &str,
    pts: &PointSet,
    kernel: &Gaussian,
    lambda: f64,
    x: &[f64],
    b: &[f64],
    rows: &[usize],
    limit: f64,
) -> f64 {
    if !x.iter().all(|v| v.is_finite()) {
        report.fail(format!("{what}: non-finite answer"));
        return f64::INFINITY;
    }
    let r = sampled_residual(pts, kernel, lambda, x, b, rows);
    if r.is_nan() || r > limit {
        report.fail(format!("{what}: residual {r:.3e} above {limit:.0e}"));
    }
    r
}

/// Per-layer numbers that come from spans: the median self time of every
/// span with the given name.
fn span_median(spans: &[Span], selfs: &[f64], name: &str) -> f64 {
    median(&self_times_of(spans, selfs, name))
}

/// Fraction of traced repetitions' wall time covered by no layer span.
fn unattributed_frac(spans: &[Span], selfs: &[f64]) -> f64 {
    let fr: Vec<f64> = spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == "rep")
        .map(|(s, st)| st / s.duration())
        .collect();
    median(&fr)
}

/// Median of traced repetitions' `fit_s` over untraced ones, leaving out
/// the cold first repetition. Traced repetitions are the even ones.
fn overhead_ratio(fit: &[f64]) -> f64 {
    let traced: Vec<f64> = fit.iter().enumerate().skip(2).step_by(2).map(|p| *p.1).collect();
    let plain: Vec<f64> = fit.iter().enumerate().skip(1).step_by(2).map(|p| *p.1).collect();
    if traced.is_empty() || plain.is_empty() {
        return 1.0;
    }
    median(&traced) / median(&plain)
}

/// Per-level factorization seconds, collected over calls.
#[derive(Default)]
struct Levels(BTreeMap<usize, Vec<f64>>);

impl Levels {
    fn add(&mut self, stats: &FactorStats) {
        for l in &stats.levels {
            self.0.entry(l.level).or_default().push(l.seconds);
        }
    }

    fn median(&self, level: usize) -> f64 {
        self.0.get(&level).map_or(0.0, |v| median(v))
    }
}

/// Reports the per-level metrics: `nproc`-thread medians and 1-thread
/// over `nproc`-thread ratios.
fn report_levels(report: &mut Report, two: &Levels, one: &Levels) {
    for l in 0..=MAX_LEVEL {
        let t2 = two.median(l);
        report.layer(&level_metric(l), t2);
        report.layer(&level_speedup_metric(l), ratio(one.median(l), t2));
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

const SERVE_LAYER: &[&str] = &[
    "serve.request_ms",
    "serve.request_tail_ms",
    "serve.submit_us",
    "serve.mean_batch",
    "serve.batches",
    "serve.factor_hits",
    "serve.setup_builds",
    "serve.rejected",
    "serve.queue_p50_us",
    "serve.solve_p50_us",
    "serve.gen_late_max_ms",
    "shard.requests",
    "shard.rows_solved",
    "shard.local_misses",
    "shard.errors",
    "rt.bytes_computed",
    "shard.solve16_s",
];

/// Sizes and parameters of `fit_normal64d`.
struct NormalCfg {
    n: usize,
    m: usize,
    rank: usize,
    h: f64,
    lambda0: f64,
    grid: [f64; 4],
    nlogn_sizes: [usize; 3],
    /// Rows of the residual metric (first repetition) and of the
    /// correctness check on later repetitions, which repeat the same
    /// inputs.
    metric_rows: usize,
    check_rows: usize,
    recall_queries: usize,
    gemm_n: usize,
    min_reps: u32,
}

impl NormalCfg {
    fn new(tiny: bool) -> Self {
        let (n, m, rank, nlogn_sizes, metric_rows, recall_queries, gemm_n) = if tiny {
            (1024, 64, 64, [256, 512, 1024], 64, 16, 96)
        } else {
            (32768, 128, 64, [8192, 16384, 32768], 1024, 128, 1024)
        };
        NormalCfg {
            n,
            m,
            rank,
            h: 4.0,
            lambda0: LAMBDA0,
            grid: LAMBDA_GRID,
            nlogn_sizes,
            metric_rows,
            check_rows: 32,
            recall_queries,
            gemm_n,
            min_reps: 3,
        }
    }

    /// Fixed rank (τ = 0), approximate kNN: the d ≥ 64 setting.
    fn skel(&self, seed: u64) -> SkelConfig {
        SkelConfig::default()
            .with_tol(0.0)
            .with_max_rank(self.rank)
            .with_neighbors(16)
            .with_max_level(1)
            .with_seed(seed)
            .with_approx_knn(8)
    }

    fn points(&self, n: usize, seed: u64) -> PointSet {
        embedded(n, 6, 64, 0.1, seed)
    }
}

/// `fit_normal64d`: tree → kNN → skeletonize → factorize → solve one RHS,
/// then assemble once and sweep four λ (refactor + 16-RHS solve each).
pub fn fit_normal64d(p: &Params) -> Report {
    let c = NormalCfg::new(p.tiny);
    let mut report = Report::default();
    let pts = c.points(c.n, p.seed);
    let kernel = Gaussian::new(c.h);
    let skel = c.skel(p.seed);
    let cfg0 = SolverConfig::default().with_lambda(c.lambda0);
    let stored = cfg0.with_storage(StorageMode::StoredGemv);
    let metric_rows = sample_rows(c.n, c.metric_rows, p.seed);
    let check_rows = sample_rows(c.n, c.check_rows, p.seed ^ 2);
    let b = rhs(c.n, p.seed, 0);
    let block = rhs_block(c.n, p.seed, 1);
    let two = pool(nproc());
    let on = Tracer::new(p.trace);
    let off = Tracer::new(false);

    let (mut setup_s, mut fit_s, mut steps, mut sweeps, mut resid) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut tiles, mut factor_levels) = (vec![], Levels::default());
    let (mut flops, mut stored_bytes, mut min_pivot) = (0.0, 0.0, f64::INFINITY);
    let mut kept: Option<Setup> = None;
    let start = Instant::now();
    let mut last = 0.0;
    let mut r = 0u32;
    while r < c.min_reps || start.elapsed().as_secs_f64() + last <= p.seconds {
        let t_rep = Instant::now();
        let traced = p.trace && r.is_multiple_of(2);
        let tr = if traced { &on } else { &off };
        two.install(|| {
            tr.scope("rep", r, || {
                let s = setup(&pts, c.m, &skel, &kernel, tr, r);
                let tpts = s.st.tree().points();
                let rows = if r == 0 { &metric_rows } else { &check_rows };
                report.attempted += 1;
                let (ft, t_fac) = tr.scope("core.factor", r, || factorize(&s.st, &kernel, cfg0));
                let ft = match ft {
                    Ok(ft) => ft,
                    Err(e) => return report.fail(format!("factorize: {e}")),
                };
                let mut x = b.clone();
                let (ok, t_s1) = tr.scope("core.solve1", r, || ft.solve_in_place(&mut x));
                if let Err(e) = ok {
                    return report.fail(format!("solve: {e}"));
                }
                fit_s.push(s.secs + t_fac + t_s1);
                check_stable(&mut report, "factorize", ft.stats());
                let res = check_answer(
                    &mut report,
                    "fit",
                    tpts,
                    &kernel,
                    c.lambda0,
                    &x,
                    &b,
                    rows,
                    DIRECT_RESIDUAL_LIMIT,
                );
                resid.push(res);
                if traced {
                    flops = ft.stats().flops;
                    factor_levels.add(ft.stats());
                }
                min_pivot = min_pivot.min(ft.stats().min_pivot_ratio);
                drop(ft);

                let (blocks, t_asm) =
                    tr.scope("core.assemble", r, || Arc::new(assemble_blocks(&s.st, &kernel)));
                setup_s.push(s.secs + t_asm);
                tiles.push(s.tiles as f64);
                let mut sweep = 0.0;
                for (i, &lambda) in c.grid.iter().enumerate() {
                    report.attempted += 1;
                    let (ft, t_ref) = tr.scope("core.refactor", r, || {
                        factorize_with_blocks(
                            &s.st,
                            &kernel,
                            Arc::clone(&blocks),
                            stored.with_lambda(lambda),
                        )
                    });
                    let ft = match ft {
                        Ok(ft) => ft,
                        Err(e) => return report.fail(format!("refactor λ={lambda}: {e}")),
                    };
                    let mut xm = block.clone();
                    let (ok, t16) = tr.scope("core.solve16", r, || ft.solve_mat_in_place(&mut xm));
                    if let Err(e) = ok {
                        return report.fail(format!("solve16 λ={lambda}: {e}"));
                    }
                    steps.push(t_ref + t16);
                    sweep += t_ref + t16;
                    check_stable(&mut report, "refactor", ft.stats());
                    stored_bytes = ft.stats().stored_bytes as f64;
                    min_pivot = min_pivot.min(ft.stats().min_pivot_ratio);
                    if !xm.as_slice().iter().all(|v| v.is_finite()) {
                        report.fail(format!("solve16 λ={lambda}: non-finite answer"));
                    } else if i == r as usize % c.grid.len() {
                        // One λ per repetition, rotating, is checked
                        // against the exact kernel.
                        let j = r as usize % NRHS;
                        check_answer(
                            &mut report,
                            "sweep",
                            tpts,
                            &kernel,
                            lambda,
                            xm.col(j),
                            block.col(j),
                            &check_rows,
                            DIRECT_RESIDUAL_LIMIT,
                        );
                    }
                }
                sweeps.push(sweep);
                if traced {
                    kept = Some(s);
                }
            })
        });
        last = t_rep.elapsed().as_secs_f64();
        r += 1;
    }

    let setup_sm = report.timing("setup_s", "s", 1.0, &setup_s);
    report.e2e("setup_s", setup_sm.median);
    let fit = report.timing("fit_s", "s", 1.0, &fit_s);
    report.e2e("fit_s", fit.median);
    let step = report.timing("answer (lambda step)", "ms", 1e3, &steps);
    report.e2e("answer_p50_ms", step.median);
    let sweep = report.timing("sweep_s", "s", 1.0, &sweeps).median;
    report.e2e("answers_per_s", ratio((NRHS * c.grid.len()) as f64, sweep));
    // The residual metric is the first repetition's, measured on the most
    // rows; later repetitions solve the same inputs and are only checked.
    let first = resid.first().copied().unwrap_or(f64::INFINITY);
    report.e2e("residual", first);
    let worst = resid.iter().copied().fold(0.0, f64::max);
    report.lines.push(format!("residual metric={first:.4e} worst checked={worst:.3e}"));
    report.e2e("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));

    if !p.trace {
        return report;
    }
    let spans = on.spans();
    let selfs = self_times(&spans);
    let m = |name: &str| span_median(&spans, &selfs, name);
    let (t_tree, t_knn, t_skel, t_fac) =
        (m("tree.build"), m("tree.knn"), m("askit.skeletonize"), m("core.factor"));
    let (t_solve16, t_asm) = (m("core.solve16"), m("core.assemble"));
    report.layer("tree.build_s", t_tree);
    report.layer("tree.knn_s", t_knn);
    report.layer("tree.dist_tiles", median(&tiles));
    report.layer("askit.skeletonize_s", t_skel);
    report.layer("core.assemble_s", t_asm);
    report.layer("core.factor_s", t_fac);
    report.layer("core.factor_flops", flops);
    report.layer("core.factor_gflops", ratio(flops / 1e9, t_fac));
    report.layer("core.stored_bytes", stored_bytes);
    report.layer("core.min_pivot_ratio", min_pivot);
    report.layer("core.refactor_s", m("core.refactor"));
    report.layer("core.solve1_s", m("core.solve1"));
    report.layer("core.solve16_s", t_solve16);
    report.layer("core.solve16_gbps_computed", ratio(stored_bytes / 1e9, t_solve16));
    report.layer("trace.overhead_ratio", overhead_ratio(&fit_s));
    report.layer("trace.unattributed_frac", unattributed_frac(&spans, &selfs));
    report.not_exercised(&[
        "core.hybrid_setup_s",
        "krylov.gmres_s",
        "krylov.gmres_iters",
        "krylov.s_per_iter",
        "krylov.gmres.speedup_2t",
    ]);
    report.not_exercised(SERVE_LAYER);

    let s = kept.expect("at least one traced repetition");
    report.layer("askit.skeleton_points", s.st.total_skeleton_size() as f64);
    report.layer("askit.max_rank", max_rank(&s.st));
    let queries = sample_rows(c.n, c.recall_queries, p.seed ^ 1);
    let recall = two.install(|| sampled_recall(s.st.tree().points(), &s.nn, &queries));
    report.layer("tree.knn_recall", recall);
    let peak = two.install(|| gemm_peak_gflops(c.gemm_n, 3));
    report.layer("la.gemm_peak_gflops", peak);
    report.layer("core.factor_peak_frac", ratio(ratio(flops / 1e9, t_fac), peak));
    drop(s);

    // Single-thread baseline of the same stages.
    let mut levels1 = Levels::default();
    let one = pool(1).install(|| -> Result<[f64; 5], String> {
        let (tree, t_tree) = timed(|| BallTree::build(&pts, c.m));
        let (nn, t_knn) = timed(|| compute_neighbors(&tree, &skel));
        let (st, t_skel) = timed(|| skeletonize_with_neighbors(tree, &kernel, skel.clone(), &nn));
        let (ft, t_fac) = timed(|| factorize(&st, &kernel, cfg0));
        levels1.add(ft.map_err(|e| format!("1-thread factorize: {e}"))?.stats());
        let blocks = Arc::new(assemble_blocks(&st, &kernel));
        let ft = factorize_with_blocks(&st, &kernel, blocks, stored)
            .map_err(|e| format!("1-thread refactor: {e}"))?;
        let mut xm = block.clone();
        let (ok, t_solve16) = timed(|| ft.solve_mat_in_place(&mut xm));
        ok.map_err(|e| format!("1-thread solve16: {e}"))?;
        Ok([t_tree, t_knn, t_skel, t_fac, t_solve16])
    });
    let one = one.unwrap_or_else(|e| {
        report.fail(e);
        [0.0; 5]
    });
    report.layer("tree.build.speedup_2t", ratio(one[0], t_tree));
    report.layer("tree.knn.speedup_2t", ratio(one[1], t_knn));
    report.layer("askit.skeletonize.speedup_2t", ratio(one[2], t_skel));
    report.layer("core.factor.speedup_2t", ratio(one[3], t_fac));
    report.layer("core.solve16.speedup_2t", ratio(one[4], t_solve16));
    report_levels(&mut report, &factor_levels, &levels1);

    // Factorization time against N log N (Fig. 4-left); the largest size
    // is the workload's own, measured above.
    let mut xs = vec![];
    let mut ys = vec![];
    for &n in &c.nlogn_sizes {
        let t = if n == c.n {
            t_fac
        } else {
            let pts_n = c.points(n, p.seed);
            two.install(|| {
                let s = setup(&pts_n, c.m, &skel, &kernel, &Tracer::new(false), 0);
                let times: Vec<f64> =
                    (0..3).map(|_| timed(|| factorize(&s.st, &kernel, cfg0)).1).collect();
                median(&times)
            })
        };
        let nf = n as f64;
        xs.push((nf * nf.log2()).ln());
        ys.push(t.ln());
        report.lines.push(format!("nlogn factor N={n} t={t:.6} s"));
    }
    report.layer("core.factor_nlogn_exponent", slope(&xs, &ys));
    crate::write_spans(p, &spans);
    report
}

fn max_rank(st: &SkeletonTree) -> f64 {
    st.rank_stats().iter().map(|r| r.2).max().unwrap_or(0) as f64
}

/// Sizes and parameters of `fit_hybrid_susy`.
struct HybridCfg {
    n: usize,
    m: usize,
    restriction: usize,
    residual_rows: usize,
    recall_queries: usize,
    gemm_n: usize,
    min_reps: u32,
}

impl HybridCfg {
    fn new(tiny: bool) -> Self {
        if tiny {
            HybridCfg {
                n: 2048,
                m: 64,
                restriction: 2,
                residual_rows: 64,
                recall_queries: 16,
                gemm_n: 96,
                min_reps: 3,
            }
        } else {
            HybridCfg {
                n: 16384,
                m: 128,
                restriction: 3,
                residual_rows: 1024,
                recall_queries: 128,
                gemm_n: 1024,
                min_reps: 3,
            }
        }
    }
}

/// SUSY stand-in: 5 intrinsic dimensions in 8 (Table II), bandwidth
/// `0.35 √(2d)` and λ = 10 as in the Table V harness.
const SUSY_H: f64 = 1.4;
const SUSY_LAMBDA: f64 = 10.0;

/// `fit_hybrid_susy`: tree → exact kNN → skeletonize (L = 3) → partial
/// factorize → `HybridSolver` → GMRES solve.
pub fn fit_hybrid_susy(p: &Params) -> Report {
    let c = HybridCfg::new(p.tiny);
    let mut report = Report::default();
    let pts = embedded(c.n, 5, 8, 0.1, p.seed);
    let kernel = Gaussian::new(SUSY_H);
    let skel = SkelConfig::default()
        .with_tol(1e-5)
        .with_max_rank(128)
        .with_neighbors(16)
        .with_max_level(c.restriction)
        .with_seed(p.seed);
    let cfg = SolverConfig::default().with_lambda(SUSY_LAMBDA);
    let gmres = GmresOptions { tol: 1e-6, max_iters: 150, ..Default::default() };
    let rows = sample_rows(c.n, c.residual_rows, p.seed);
    let two = pool(nproc());
    let on = Tracer::new(p.trace);
    let off = Tracer::new(false);

    let (mut setup_s, mut fit_s, mut solves, mut resid, mut iters) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut tiles, mut factor_levels) = (vec![], Levels::default());
    let (mut flops, mut stored_bytes, mut min_pivot) = (0.0, 0.0, f64::INFINITY);
    let mut kept: Option<Setup> = None;
    let start = Instant::now();
    let mut last = 0.0;
    let mut r = 0u32;
    while r < c.min_reps || start.elapsed().as_secs_f64() + last <= p.seconds {
        let t_rep = Instant::now();
        let traced = p.trace && r.is_multiple_of(2);
        let tr = if traced { &on } else { &off };
        two.install(|| {
            tr.scope("rep", r, || {
                // Each repetition solves its own RHS, so the residual
                // metric is a median over right-hand sides.
                let b = rhs(c.n, p.seed, u64::from(r));
                let s = setup(&pts, c.m, &skel, &kernel, tr, r);
                setup_s.push(s.secs);
                tiles.push(s.tiles as f64);
                report.attempted += 1;
                let (ft, t_fac) = tr.scope("core.factor", r, || factorize(&s.st, &kernel, cfg));
                let ft: FactorTree<'_, Gaussian> = match ft {
                    Ok(ft) => ft,
                    Err(e) => return report.fail(format!("partial factorize: {e}")),
                };
                check_stable(&mut report, "partial factorize", ft.stats());
                if traced {
                    flops = ft.stats().flops;
                    stored_bytes = ft.stats().stored_bytes as f64;
                    factor_levels.add(ft.stats());
                }
                min_pivot = min_pivot.min(ft.stats().min_pivot_ratio);
                let (hy, t_hy) = tr.scope("core.hybrid_setup", r, || HybridSolver::new(&ft));
                let hy = match hy {
                    Ok(hy) => hy,
                    Err(e) => return report.fail(format!("hybrid setup: {e}")),
                };
                let (out, t_solve) = tr.scope("krylov.gmres", r, || hy.solve(&b, &gmres));
                let out = match out {
                    Ok(out) => out,
                    Err(e) => return report.fail(format!("hybrid solve: {e}")),
                };
                fit_s.push(s.secs + t_fac + t_hy + t_solve);
                solves.push(t_solve);
                iters.push(out.gmres.iters as f64);
                if !out.gmres.converged {
                    report.fail(format!(
                        "GMRES did not converge in {} iterations (residual {:.2e})",
                        out.gmres.iters, out.gmres.residual
                    ));
                }
                let tpts = s.st.tree().points();
                let res = check_answer(
                    &mut report,
                    "hybrid",
                    tpts,
                    &kernel,
                    SUSY_LAMBDA,
                    &out.x,
                    &b,
                    &rows,
                    HYBRID_RESIDUAL_LIMIT,
                );
                resid.push(res);
                if traced {
                    report.lines.push(format!(
                        "hybrid reduced_dim={} gmres_iters={}",
                        hy.reduced_dim(),
                        out.gmres.iters
                    ));
                }
                drop(hy);
                drop(ft);
                if traced {
                    kept = Some(s);
                }
            })
        });
        last = t_rep.elapsed().as_secs_f64();
        r += 1;
    }

    let setup_sm = report.timing("setup_s", "s", 1.0, &setup_s);
    report.e2e("setup_s", setup_sm.median);
    let fit = report.timing("fit_s", "s", 1.0, &fit_s);
    report.e2e("fit_s", fit.median);
    let solve = report.timing("answer (hybrid solve)", "ms", 1e3, &solves);
    report.e2e("answer_p50_ms", solve.median);
    report.e2e("answers_per_s", ratio(1e3, solve.median));
    report.e2e("residual", median(&resid));
    report.lines.push(format!("residual median={:.4e} over {} RHS", median(&resid), resid.len()));
    report.lines.push(format!("gmres iterations median={}", median(&iters)));
    report.e2e("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));

    if !p.trace {
        return report;
    }
    let spans = on.spans();
    let selfs = self_times(&spans);
    let m = |name: &str| span_median(&spans, &selfs, name);
    let (t_tree, t_knn, t_skel, t_fac) =
        (m("tree.build"), m("tree.knn"), m("askit.skeletonize"), m("core.factor"));
    let t_gmres = m("krylov.gmres");
    let it = median(&iters);
    report.layer("tree.build_s", t_tree);
    report.layer("tree.knn_s", t_knn);
    report.layer("tree.dist_tiles", median(&tiles));
    report.layer("askit.skeletonize_s", t_skel);
    report.layer("core.factor_s", t_fac);
    report.layer("core.factor_flops", flops);
    report.layer("core.factor_gflops", ratio(flops / 1e9, t_fac));
    report.layer("core.stored_bytes", stored_bytes);
    report.layer("core.min_pivot_ratio", min_pivot);
    report.layer("core.hybrid_setup_s", m("core.hybrid_setup"));
    report.layer("krylov.gmres_s", t_gmres);
    report.layer("krylov.gmres_iters", it);
    report.layer("krylov.s_per_iter", ratio(t_gmres, it));
    report.layer("trace.overhead_ratio", overhead_ratio(&fit_s));
    report.layer("trace.unattributed_frac", unattributed_frac(&spans, &selfs));
    report.not_exercised(&[
        "core.assemble_s",
        "core.refactor_s",
        "core.solve1_s",
        "core.solve16_s",
        "core.solve16_gbps_computed",
        "core.solve16.speedup_2t",
        "core.factor_nlogn_exponent",
    ]);
    report.not_exercised(SERVE_LAYER);

    let s = kept.expect("at least one traced repetition");
    report.layer("askit.skeleton_points", s.st.total_skeleton_size() as f64);
    report.layer("askit.max_rank", max_rank(&s.st));
    let queries = sample_rows(c.n, c.recall_queries, p.seed ^ 1);
    let recall = two.install(|| sampled_recall(s.st.tree().points(), &s.nn, &queries));
    report.layer("tree.knn_recall", recall);
    let peak = two.install(|| gemm_peak_gflops(c.gemm_n, 3));
    report.layer("la.gemm_peak_gflops", peak);
    report.layer("core.factor_peak_frac", ratio(ratio(flops / 1e9, t_fac), peak));
    drop(s);

    let mut levels1 = Levels::default();
    let one = pool(1).install(|| -> Result<[f64; 5], String> {
        let (tree, t_tree) = timed(|| BallTree::build(&pts, c.m));
        let (nn, t_knn) = timed(|| compute_neighbors(&tree, &skel));
        let (st, t_skel) = timed(|| skeletonize_with_neighbors(tree, &kernel, skel.clone(), &nn));
        let (ft, t_fac) = timed(|| factorize(&st, &kernel, cfg));
        let ft = ft.map_err(|e| format!("1-thread partial factorize: {e}"))?;
        levels1.add(ft.stats());
        let hy = HybridSolver::new(&ft).map_err(|e| format!("1-thread hybrid setup: {e}"))?;
        let (out, t_gmres) = timed(|| hy.solve(&rhs(c.n, p.seed, 0), &gmres));
        out.map_err(|e| format!("1-thread hybrid solve: {e}"))?;
        Ok([t_tree, t_knn, t_skel, t_fac, t_gmres])
    });
    let one = one.unwrap_or_else(|e| {
        report.fail(e);
        [0.0; 5]
    });
    report.layer("tree.build.speedup_2t", ratio(one[0], t_tree));
    report.layer("tree.knn.speedup_2t", ratio(one[1], t_knn));
    report.layer("askit.skeletonize.speedup_2t", ratio(one[2], t_skel));
    report.layer("core.factor.speedup_2t", ratio(one[3], t_fac));
    report.layer("krylov.gmres.speedup_2t", ratio(one[4], t_gmres));
    report_levels(&mut report, &factor_levels, &levels1);
    crate::write_spans(p, &spans);
    report
}
