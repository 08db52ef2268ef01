//! The two serve workloads: a two-level `SolveService` over one λ-free
//! setup with four λ-only keys, driven first by an open loop at a fixed
//! rate (latency) and then by a closed loop with a fixed number of
//! outstanding requests (capacity). `serve_sharded` runs the same traffic
//! through the shard tier.
//!
//! The load generator is one submit thread and one collector thread. The
//! collector polls the tickets it holds, so each answer is timed when it
//! arrives rather than in submission order.

use crate::env::peak_rss_mb;
use crate::fit::{nproc, pool, rhs_block, setup, DIRECT_RESIDUAL_LIMIT, LAMBDA_GRID};
use crate::report::{level_metric, level_speedup_metric, Report, MAX_LEVEL};
use crate::stats::{median, Summary};
use crate::trace::{self_times, self_times_of, Span, Tracer};
use crate::truth::{
    embedded, gemm_peak_gflops, rel_diff, rhs, sample_rows, sampled_recall, sampled_residual,
};
use crate::Params;
use kfds_askit::SkelConfig;
use kfds_core::{SharedFactor, SharedSetup, SolverConfig, StorageMode};
use kfds_kernels::Gaussian;
use kfds_krylov::GmresOptions;
use kfds_la::Mat;
use kfds_serve::{FactorKey, ServeConfig, ServeError, SetupKey, SolveService, Ticket};
use kfds_shard::ShardRouter;
use kfds_tree::{NeighborLists, PointSet};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Served answers of key 0 whose exact-kernel residual makes up the
/// residual metric.
const RESIDUAL_ANSWERS: usize = 4;

/// Served answers must match an out-of-band solve of the same RHS to this
/// relative difference (batching may reorder floating-point sums).
const SERVE_MATCH_LIMIT: f64 = 1e-10;

/// Sizes and traffic of the serve workloads.
struct ServeCfg {
    n: usize,
    m: usize,
    rank: usize,
    h: f64,
    grid: [f64; 4],
    /// Open-loop arrival rate (requests per second).
    rate: f64,
    /// Outstanding requests in the closed loop.
    outstanding: usize,
    /// Timed service starts per run, after the serving instance; each one
    /// is a `setup_s` and a `fit_s` sample.
    cold_starts: usize,
    /// Every `keep_every`-th open-loop answer is checked out of band.
    keep_every: usize,
    rows: usize,
    recall_queries: usize,
    gemm_n: usize,
}

impl ServeCfg {
    fn new(tiny: bool) -> Self {
        let (n, m, rank, rows, recall_queries, gemm_n) =
            if tiny { (1024, 64, 64, 64, 16, 96) } else { (16384, 128, 64, 512, 128, 1024) };
        ServeCfg {
            n,
            m,
            rank,
            h: 4.0,
            grid: LAMBDA_GRID,
            rate: 100.0,
            outstanding: 64,
            cold_starts: 3,
            keep_every: 50,
            rows,
            recall_queries,
            gemm_n,
        }
    }

    fn keys(&self, seed: u64) -> Vec<FactorKey> {
        self.grid.iter().map(|&l| FactorKey::new("normal64d", self.n, self.h, l, seed)).collect()
    }
}

/// What the setup builder hands back to the benchmark: the setup it built
/// (for the out-of-band reference solves) and its neighbour lists.
type Stash = Arc<Mutex<Option<(SharedSetup<Gaussian>, NeighborLists, u64)>>>;

/// One request's outcome as the collector saw it.
struct Done {
    index: u64,
    key: usize,
    due: Instant,
    submitted: Instant,
    done: Instant,
    traced: bool,
    /// Kept answer (every `keep_every`-th open-loop request).
    answer: Option<Vec<f64>>,
    error: Option<String>,
}

struct Pending {
    index: u64,
    key: usize,
    due: Instant,
    submitted: Instant,
    traced: bool,
    ticket: Result<Ticket, ServeError>,
}

/// Polls outstanding tickets until the submit side hangs up and every
/// ticket is answered. Each completion returns a token on `tokens`; the
/// answers of requests for which `keep` holds are kept.
fn collect(
    rx: Receiver<Pending>,
    tokens: Option<Sender<()>>,
    keep: impl Fn(u64) -> bool,
    poll: Duration,
) -> Vec<Done> {
    let mut pending: Vec<Pending> = Vec::new();
    let mut out = Vec::new();
    let mut open = true;
    while open || !pending.is_empty() {
        if pending.is_empty() && open {
            match rx.recv() {
                Ok(p) => pending.push(p),
                Err(_) => open = false,
            }
        }
        loop {
            match rx.try_recv() {
                Ok(p) => pending.push(p),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        let now = Instant::now();
        let before = out.len();
        pending.retain(|p| {
            let result = match &p.ticket {
                Err(e) => Some(Err(e.to_string())),
                Ok(t) => t.try_take().map(|r| r.map_err(|e| e.to_string())),
            };
            let Some(result) = result else { return true };
            let (answer, error) = match result {
                Ok(x) if x.iter().all(|v| v.is_finite()) => (keep(p.index).then_some(x), None),
                Ok(_) => (None, Some("non-finite answer".to_string())),
                Err(e) => (None, Some(e)),
            };
            out.push(Done {
                index: p.index,
                key: p.key,
                due: p.due,
                submitted: p.submitted,
                done: now,
                traced: p.traced,
                answer,
                error,
            });
            false
        });
        if let Some(tok) = &tokens {
            for _ in before..out.len() {
                let _ = tok.send(());
            }
        }
        if !pending.is_empty() {
            std::thread::sleep(poll);
        }
    }
    out
}

/// Submits request `index` (its RHS already generated) and hands the
/// ticket to the collector. Returns how long the submit call took.
fn submit(
    svc: &SolveService<Gaussian>,
    keys: &[FactorKey],
    index: u64,
    b: Vec<f64>,
    due: Instant,
    traced: bool,
    tx: &Sender<Pending>,
) -> Duration {
    let key = index as usize % keys.len();
    let submitted = Instant::now();
    let ticket = svc.submit(keys[key].clone(), b);
    let took = submitted.elapsed();
    let _ = tx.send(Pending { index, key, due, submitted, traced, ticket });
    took
}

/// How often the collector polls its tickets: the resolution of every
/// serve latency (≈ 1 % of a typical answer) at a modest CPU cost.
const POLL: Duration = Duration::from_millis(1);

/// Index of the first open-loop request; warm-up and closed-loop requests
/// use their own ranges, so every RHS is distinct and reproducible.
const OPEN_BASE: u64 = 1 << 20;
const CLOSED_BASE: u64 = 1 << 30;
const WARM_BASE: u64 = 1 << 10;

/// Requests per block when the traced run alternates traced and untraced
/// blocks to measure the recorder's overhead.
const TRACE_BLOCK: u64 = 250;

/// Open loop: `count` requests at `rate`, each due at a fixed time.
/// Returns the outcomes, the submit-call durations and the generator's
/// worst lateness.
fn open_loop(
    svc: &SolveService<Gaussian>,
    keys: &[FactorKey],
    seed: u64,
    rate: f64,
    count: u64,
    keep_every: u64,
    trace: bool,
) -> (Vec<Done>, Vec<f64>, f64) {
    let (tx, rx) = channel();
    std::thread::scope(|sc| {
        // Every `keep_every`-th request of each key is kept.
        let nkeys = keys.len() as u64;
        let keep = move |i: u64| ((i - OPEN_BASE) / nkeys).is_multiple_of(keep_every);
        let col = sc.spawn(move || collect(rx, None, keep, POLL));
        let t0 = Instant::now() + Duration::from_millis(20);
        let mut submit_s = Vec::with_capacity(count as usize);
        let mut late_max = 0.0f64;
        for i in 0..count {
            let due = t0 + Duration::from_secs_f64(i as f64 / rate);
            let b = rhs(keys[0].n, seed, OPEN_BASE + i);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            late_max = late_max.max(Instant::now().saturating_duration_since(due).as_secs_f64());
            let traced = trace && (i / TRACE_BLOCK) % 2 == 1;
            let took = submit(svc, keys, OPEN_BASE + i, b, due, traced, &tx);
            submit_s.push(took.as_secs_f64());
        }
        drop(tx);
        (col.join().expect("collector thread"), submit_s, late_max)
    })
}

/// Closed loop for `secs`: `outstanding` requests in flight at all times.
/// Returns the outcomes and the answer rate: the median over the window's
/// quarters, so that a brief stall of the host moves it little.
fn closed_loop(
    svc: &SolveService<Gaussian>,
    keys: &[FactorKey],
    seed: u64,
    outstanding: usize,
    secs: f64,
) -> (Vec<Done>, f64) {
    let (tx, rx) = channel();
    let (tok_tx, tok_rx) = channel();
    for _ in 0..outstanding {
        tok_tx.send(()).expect("token channel");
    }
    std::thread::scope(|sc| {
        let col = sc.spawn(move || collect(rx, Some(tok_tx), |_| false, POLL));
        let t0 = Instant::now();
        let end = t0 + Duration::from_secs_f64(secs);
        let mut i = 0;
        loop {
            match tok_rx.recv_timeout(end.saturating_duration_since(Instant::now())) {
                Ok(()) if Instant::now() < end => {}
                Ok(()) | Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                    break
                }
            }
            let b = rhs(keys[0].n, seed, CLOSED_BASE + i);
            submit(svc, keys, CLOSED_BASE + i, b, Instant::now(), false, &tx);
            i += 1;
        }
        let stop = Instant::now();
        drop(tx);
        let done = col.join().expect("collector thread");
        let quarter = (stop - t0) / 4;
        let rates: Vec<f64> = (0..4u32)
            .map(|q| {
                let (a, b) = (t0 + quarter * q, t0 + quarter * (q + 1));
                let n = done.iter().filter(|d| d.error.is_none() && d.done > a && d.done <= b);
                n.count() as f64 / quarter.as_secs_f64()
            })
            .collect();
        (done, median(&rates))
    })
}

/// Builds the λ-free setup for the service and stashes a handle to it.
fn builder(
    pts: Arc<PointSet>,
    c: &ServeCfg,
    seed: u64,
    tracer: Arc<Tracer>,
    rep: u32,
    stash: Stash,
) -> impl Fn(&SetupKey) -> Result<SharedSetup<Gaussian>, ServeError> + Send + Sync + 'static {
    let (m, h) = (c.m, c.h);
    let skel = SkelConfig::default()
        .with_tol(0.0)
        .with_max_rank(c.rank)
        .with_neighbors(16)
        .with_max_level(1)
        .with_seed(seed)
        .with_approx_knn(8);
    move |_key: &SetupKey| {
        let kernel = Gaussian::new(h);
        let s = setup(&pts, m, &skel, &kernel, &tracer, rep);
        let (shared, _) = tracer
            .scope("core.assemble", rep, || SharedSetup::build(Arc::new(s.st), Arc::new(kernel)));
        *stash.lock().expect("stash lock") = Some((shared.clone(), s.nn, s.tiles));
        Ok(shared)
    }
}

/// Starts a two-level service and sends one request per key, in order.
/// Returns the service and the seconds from start to the first answer.
fn start_warm<B>(
    cfg: &ServeConfig,
    base: SolverConfig,
    builder: B,
    keys: &[FactorKey],
    seed: u64,
    report: &mut Report,
) -> (SolveService<Gaussian>, f64)
where
    B: Fn(&SetupKey) -> Result<SharedSetup<Gaussian>, ServeError> + Send + Sync + 'static,
{
    let t0 = Instant::now();
    let svc = SolveService::start_two_level(cfg.clone(), base, builder);
    let mut first = 0.0;
    for (k, key) in keys.iter().enumerate() {
        report.attempted += 1;
        match svc.submit(key.clone(), rhs(key.n, seed, WARM_BASE + k as u64)).and_then(Ticket::wait)
        {
            Ok(x) if x.iter().all(|v| v.is_finite()) => {}
            Ok(_) => report.fail(format!("warm-up key {k}: non-finite answer")),
            Err(e) => report.fail(format!("warm-up key {k}: {e}")),
        }
        if k == 0 {
            first = t0.elapsed().as_secs_f64();
        }
    }
    (svc, first)
}

/// Shards of the router the traced run sends the 16-RHS block through.
const SHARDS: usize = 2;

/// `serve_normal64d`.
pub fn serve(p: &Params) -> Report {
    let c = ServeCfg::new(p.tiny);
    let mut report = Report::default();
    let pts = Arc::new(embedded(c.n, 6, 64, 0.1, p.seed));
    let keys = c.keys(p.seed);
    let base = SolverConfig::default().with_storage(StorageMode::StoredGemv);
    let cfg = ServeConfig::default().with_workers(2).with_cache_capacity(keys.len());
    let tracer = Arc::new(Tracer::new(p.trace));
    let stash: Stash = Arc::new(Mutex::new(None));

    // The serving instance is the process's first start, which also pays
    // one-time page faults and workspace-pool fills; it runs untimed.
    let b = builder(Arc::clone(&pts), &c, p.seed, Arc::clone(&tracer), 0, Arc::clone(&stash));
    let (svc, _) = start_warm(&cfg, base, b, &keys, p.seed, &mut report);
    let open_count = (c.rate * p.seconds * 0.5).round().max(1.0) as u64;
    let phase_start = Instant::now();
    let ((open, submit_s, late_max), _) = tracer.scope("serve.open_loop", 0, || {
        open_loop(&svc, &keys, p.seed, c.rate, open_count, c.keep_every as u64, p.trace)
    });
    let phase_end = Instant::now();
    let (closed, capacity) = closed_loop(&svc, &keys, p.seed, c.outstanding, p.seconds * 0.25);
    let stats = svc.stats();
    svc.shutdown();
    // Peak memory of one service lifetime: start, warm-up and traffic. The
    // timed restarts below exist only to sample setup time.
    report.e2e("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    let (setup_ref, nn, tiles) = stash.lock().expect("stash lock").take().expect("setup was built");

    // Timed cold starts: service start → first answer (fit_s) → every key
    // warm (setup_s).
    let (mut setup_s, mut fit_s) = (vec![], vec![]);
    for i in 1..=c.cold_starts {
        let t0 = Instant::now();
        let b = builder(
            Arc::clone(&pts),
            &c,
            p.seed,
            Arc::clone(&tracer),
            i as u32,
            Arc::new(Mutex::new(None)),
        );
        let (s, first) = start_warm(&cfg, base, b, &keys, p.seed, &mut report);
        setup_s.push(t0.elapsed().as_secs_f64());
        fit_s.push(first);
        s.shutdown();
    }

    report.attempted += (open.len() + closed.len()) as u64;
    for d in open.iter().chain(&closed) {
        if let Some(e) = &d.error {
            report.fail(format!("request {}: {e}", d.index));
        }
    }
    let lat: Vec<f64> = open.iter().map(|d| (d.done - d.due).as_secs_f64()).collect();
    let setup_sm = report.timing("setup_s", "s", 1.0, &setup_s);
    report.e2e("setup_s", setup_sm.median);
    let fit = report.timing("fit_s (first answer)", "s", 1.0, &fit_s);
    report.e2e("fit_s", fit.median);
    let lat_sm = report.timing("answer (open loop, from due)", "ms", 1e3, &lat);
    report.e2e("answer_p50_ms", lat_sm.median);
    report.e2e("answers_per_s", capacity);
    report.lines.push(format!(
        "open loop: {} requests at {} rps, late_max={:.3} ms; closed loop: {} requests, {} \
         outstanding, {capacity:.1} rps",
        open.len(),
        c.rate,
        late_max * 1e3,
        closed.len(),
        c.outstanding
    ));

    // Out-of-band reference: refactor each key on the serving instance's
    // setup and solve the kept requests' right-hand sides single-node.
    let gmres = GmresOptions::default();
    let two = pool(nproc());
    let (mut worst, mut resid) = (0.0f64, vec![]);
    let rows = sample_rows(c.n, c.rows, p.seed);
    let check_rows = sample_rows(c.n, 32, p.seed ^ 2);
    let mut first_factor = None;
    let (mut stored_bytes, mut min_pivot) = (0.0, f64::INFINITY);
    two.install(|| {
        for (k, key) in keys.iter().enumerate() {
            let (sf, _) = tracer.scope("core.refactor", 0, || {
                SharedFactor::refactorize(&setup_ref, base.with_lambda(key.lambda()))
            });
            let sf = match sf {
                Ok(sf) => sf,
                Err(e) => return report.fail(format!("reference refactor key {k}: {e}")),
            };
            stored_bytes = sf.factor_tree().stats().stored_bytes as f64;
            min_pivot = min_pivot.min(sf.factor_tree().stats().min_pivot_ratio);
            let tree = sf.skeleton_tree().tree();
            // The residual metric is the median over the first answers of
            // key 0 (the smallest λ, so the largest residual); the first
            // answer of every other key gets a cheaper check.
            let mut checked = 0;
            for d in open.iter().filter(|d| d.key == k) {
                let Some(got) = &d.answer else { continue };
                let b = rhs(c.n, p.seed, d.index);
                let mut m = Mat::zeros(c.n, 1);
                m.col_mut(0).copy_from_slice(&tree.permute_vec(&b));
                let (ok, _) =
                    tracer.scope("core.solve1", 0, || sf.solve_block_in_place(&mut m, &gmres));
                if let Err(e) = ok {
                    report.fail(format!("reference solve: {e}"));
                    continue;
                }
                let want = tree.unpermute_vec(m.col(0));
                let diff = rel_diff(got, &want);
                worst = worst.max(diff);
                if diff.is_nan() || diff > SERVE_MATCH_LIMIT {
                    report
                        .fail(format!("request {}: served answer differs by {diff:.3e}", d.index));
                }
                let limit = if k == 0 { RESIDUAL_ANSWERS } else { 1 };
                if checked < limit {
                    checked += 1;
                    let rows = if k == 0 { &rows } else { &check_rows };
                    let r = sampled_residual(&pts, setup_ref.kernel(), key.lambda(), got, &b, rows);
                    if r.is_nan() || r > DIRECT_RESIDUAL_LIMIT {
                        report.fail(format!("request {}: residual {r:.3e}", d.index));
                    }
                    if k == 0 {
                        resid.push(r);
                    }
                }
            }
            if k == 0 {
                first_factor = Some(sf);
            }
        }
    });
    report.e2e("residual", median(&resid));
    report.lines.push(format!(
        "checked {} served answers out of band: worst relative difference {worst:.3e}",
        open.iter().filter(|d| d.answer.is_some()).count()
    ));
    if resid.is_empty() {
        report.fail("no served answer was checked against the exact kernel");
    }

    if !p.trace {
        return report;
    }
    // 16-RHS blocked solve single-node and through a shard router, on the
    // same block: the shard tier and its transport measured from outside.
    let block = rhs_block(c.n, p.seed, 1);
    let mut t16_shard = vec![];
    let mut lanes = vec![];
    if let Some(sf) = &first_factor {
        two.install(|| {
            let mut single = block.clone();
            for _ in 0..3 {
                single = block.clone();
                let (ok, _) = tracer
                    .scope("core.solve16", 0, || sf.solve_block_in_place(&mut single, &gmres));
                if let Err(e) = ok {
                    report.fail(format!("16-RHS solve: {e}"));
                }
            }
            let router: ShardRouter<FactorKey, Gaussian> = ShardRouter::start(SHARDS, 1);
            for i in 0..4 {
                let mut b = block.clone();
                let (ok, t) =
                    tracer.scope("shard.solve16", 0, || router.solve(&keys[0], sf, &mut b));
                match ok {
                    // The first call partitions the factor.
                    Ok(()) if i > 0 => t16_shard.push(t),
                    Ok(()) => {}
                    Err(e) => report.fail(format!("router solve: {e}")),
                }
                if rel_diff(b.as_slice(), single.as_slice()) > SERVE_MATCH_LIMIT {
                    report.fail("routed 16-RHS solve differs from the single-node solve");
                }
            }
            lanes = router.stats();
            router.shutdown();
        });
    }

    let open_span = tracer.spans().iter().position(|s| s.name == "serve.open_loop");
    for d in open.iter().filter(|d| d.traced) {
        tracer.record("serve.request", 0, open_span, d.submitted, d.done);
    }
    let spans = tracer.spans();
    let selfs = self_times(&spans);
    let m = |name: &str| median(&self_times_of(&spans, &selfs, name));
    let traced_lat: Vec<f64> =
        open.iter().filter(|d| d.traced).map(|d| (d.done - d.due).as_secs_f64()).collect();
    let plain_lat: Vec<f64> =
        open.iter().filter(|d| !d.traced).map(|d| (d.done - d.due).as_secs_f64()).collect();
    let req: Vec<f64> = open.iter().map(|d| (d.done - d.submitted).as_secs_f64()).collect();
    let req_sm = Summary::of(&req);
    report.lines.push(format!(
        "serve.request (submit to answer): n={} median={:.3} ms {}={:.3} ms",
        req_sm.n,
        req_sm.median * 1e3,
        req_sm.tail_label(),
        req_sm.tail * 1e3
    ));
    let rows_solved: u64 = lanes.iter().map(|l| l.rows_solved).sum();
    let t_solve16 = m("core.solve16");
    report.layer("tree.build_s", m("tree.build"));
    report.layer("tree.knn_s", m("tree.knn"));
    report.layer("askit.skeletonize_s", m("askit.skeletonize"));
    report.layer("core.assemble_s", m("core.assemble"));
    report.layer("core.refactor_s", m("core.refactor"));
    report.layer("core.solve1_s", m("core.solve1"));
    report.layer("core.solve16_s", t_solve16);
    report.layer("core.stored_bytes", stored_bytes);
    report.layer("core.min_pivot_ratio", min_pivot);
    report.layer(
        "core.solve16_gbps_computed",
        if t_solve16 > 0.0 { stored_bytes / 1e9 / t_solve16 } else { 0.0 },
    );
    report.layer("serve.request_ms", req_sm.median * 1e3);
    report.layer("serve.request_tail_ms", req_sm.tail * 1e3);
    report.layer("serve.submit_us", median(&submit_s) * 1e6);
    report.layer("serve.mean_batch", stats.mean_batch);
    report.layer("serve.batches", stats.batches as f64);
    report.layer("serve.factor_hits", stats.cache_hits as f64);
    report.layer("serve.setup_builds", stats.setup_builds as f64);
    report.layer("serve.rejected", (stats.rejected_overload + stats.rejected_deadline) as f64);
    report.layer("serve.queue_p50_us", stats.queue.p50_us);
    report.layer("serve.solve_p50_us", stats.solve.p50_us);
    report.layer("serve.gen_late_max_ms", late_max * 1e3);
    report.layer("shard.requests", lanes.iter().map(|l| l.requests).sum::<u64>() as f64);
    report.layer("shard.rows_solved", rows_solved as f64);
    report.layer("shard.local_misses", lanes.iter().map(|l| l.local_misses).sum::<u64>() as f64);
    report.layer("shard.errors", lanes.iter().map(|l| l.errors).sum::<u64>() as f64);
    report.layer("rt.bytes_computed", (rows_solved * 8 * 2) as f64);
    report.layer("shard.solve16_s", median(&t16_shard));
    report.layer(
        "trace.overhead_ratio",
        if plain_lat.is_empty() || traced_lat.is_empty() {
            1.0
        } else {
            median(&traced_lat) / median(&plain_lat)
        },
    );
    report.layer("trace.unattributed_frac", idle_frac(&open, phase_start, phase_end));
    report.lines.push(format!(
        "serve stats (log2 buckets, coarse): queue p50={:.0} us, solve p50={:.0} us, mean batch={:.2}",
        stats.queue.p50_us, stats.solve.p50_us, stats.mean_batch
    ));
    let queries = sample_rows(c.n, c.recall_queries, p.seed ^ 1);
    report.layer(
        "tree.knn_recall",
        two.install(|| sampled_recall(setup_ref.skeleton_tree().tree().points(), &nn, &queries)),
    );
    report.layer("askit.skeleton_points", setup_ref.skeleton_tree().total_skeleton_size() as f64);
    report.layer(
        "askit.max_rank",
        setup_ref.skeleton_tree().rank_stats().iter().map(|r| r.2).max().unwrap_or(0) as f64,
    );
    report.layer("la.gemm_peak_gflops", two.install(|| gemm_peak_gflops(c.gemm_n, 3)));
    report.layer("tree.dist_tiles", tiles as f64);
    report.not_exercised(&[
        "core.factor_s",
        "core.factor_flops",
        "core.factor_gflops",
        "core.factor_peak_frac",
        "core.hybrid_setup_s",
        "krylov.gmres_s",
        "krylov.gmres_iters",
        "krylov.s_per_iter",
        "tree.build.speedup_2t",
        "tree.knn.speedup_2t",
        "askit.skeletonize.speedup_2t",
        "core.factor.speedup_2t",
        "core.solve16.speedup_2t",
        "krylov.gmres.speedup_2t",
        "core.factor_nlogn_exponent",
    ]);
    for l in 0..=MAX_LEVEL {
        report.not_exercised(&[&level_metric(l), &level_speedup_metric(l)]);
    }
    crate::write_spans(p, &spans);
    report
}

/// Share of the open-loop phase during which no request was in flight.
fn idle_frac(open: &[Done], start: Instant, end: Instant) -> f64 {
    let mut spans = vec![Span {
        name: "phase",
        start: 0.0,
        end: (end - start).as_secs_f64(),
        parent: None,
        rep: 0,
    }];
    spans.extend(open.iter().map(|d| Span {
        name: "req",
        start: d.submitted.saturating_duration_since(start).as_secs_f64(),
        end: d.done.saturating_duration_since(start).as_secs_f64(),
        parent: Some(0),
        rep: 0,
    }));
    self_times(&spans)[0] / spans[0].duration()
}
