//! Run provenance: host, dispatch state and `KFDS_*` switches, plus the
//! process's peak resident set.

use std::ffi::c_long;

/// What a run needs recorded to be compared with another run.
pub struct Provenance {
    /// Logical CPUs (`available_parallelism`).
    pub nproc: usize,
    /// Distinct `(physical id, core id)` pairs; `nproc` when unknown.
    pub physical_cores: usize,
    /// Vector features detected by `kfds-la`.
    pub simd_features: String,
    /// `(subsystem, active)` dispatch state after defaults were forced.
    pub dispatch: Vec<(&'static str, bool)>,
    /// `KFDS_*` variables present in the environment.
    pub kfds_env: Vec<String>,
}

impl Provenance {
    /// Captures the current host and dispatch state.
    pub fn capture() -> Self {
        let nproc = crate::fit::nproc();
        Provenance {
            nproc,
            physical_cores: physical_cores().unwrap_or(nproc),
            simd_features: kfds_la::simd::detected_features(),
            dispatch: vec![
                ("simd", kfds_la::simd::active()),
                ("batch", kfds_la::batch_active()),
                ("pool", !kfds_switches::KFDS_WS_POOL.is_off()),
                ("knn_blocked", kfds_tree::knn_blocked_active()),
                ("cpqr_blocked", kfds_la::cpqr::blocked_active()),
                ("gemm_eval", kfds_kernels::gemm_eval_active()),
                ("refactor", kfds_core::refactor_enabled()),
            ],
            kfds_env: std::env::vars_os()
                .filter_map(|(k, v)| {
                    let k = k.to_string_lossy().into_owned();
                    k.starts_with("KFDS_").then(|| format!("{k}={}", v.to_string_lossy()))
                })
                .collect(),
        }
    }

    /// A run is comparable only when no `KFDS_*` switch was set.
    pub fn comparable(&self) -> bool {
        self.kfds_env.is_empty()
    }

    /// One-line summary for the report.
    pub fn line(&self, seed: u64) -> String {
        let dispatch: Vec<String> =
            self.dispatch.iter().map(|(k, v)| format!("{k}={}", u8::from(*v))).collect();
        let env = if self.kfds_env.is_empty() { "none".into() } else { self.kfds_env.join(",") };
        format!(
            "provenance: nproc={} physical_cores={} simd={} dispatch[{}] kfds_env={} seed={} \
             comparable={}",
            self.nproc,
            self.physical_cores,
            self.simd_features,
            dispatch.join(" "),
            env,
            seed,
            self.comparable()
        )
    }
}

/// Selects every fast path the library ships as its default, overriding
/// any `KFDS_*` switch in the environment: the benchmark always measures
/// the defaults (a run with a switch set is still marked not comparable).
pub fn force_defaults() {
    kfds_la::simd::set_simd_enabled(true);
    kfds_la::workspace::set_pool_enabled(true);
    kfds_la::cpqr::set_cpqr_blocked(true);
    kfds_la::set_batch_enabled(true);
    kfds_kernels::set_gemm_eval_enabled(true);
    kfds_tree::set_knn_blocked(true);
    kfds_core::set_refactor_enabled(true);
    kfds_serve::set_batching_enabled(true);
    kfds_serve::set_shard_enabled(true);
}

fn physical_cores() -> Option<usize> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let mut cores = std::collections::BTreeSet::new();
    let mut phys = 0usize;
    for line in info.lines() {
        let Some((key, val)) = line.split_once(':') else { continue };
        match key.trim() {
            "physical id" => phys = val.trim().parse().unwrap_or(0),
            "core id" => {
                cores.insert((phys, val.trim().parse::<usize>().unwrap_or(0)));
            }
            _ => {}
        }
    }
    (!cores.is_empty()).then_some(cores.len())
}

/// `struct rusage` as Linux and glibc lay it out: two `timeval`s, then
/// fourteen `long` counters starting with `ru_maxrss`.
#[repr(C)]
struct Rusage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set of this process in MiB (the kernel's high-water mark,
/// `VmHWM`), or `None` if the call fails.
pub fn peak_rss_mb() -> Option<f64> {
    let mut usage = Rusage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
    // SAFETY: `usage` is a live, writable `struct rusage` with the C
    // layout above, and RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    // Linux reports ru_maxrss in KiB.
    (rc == 0 && usage.maxrss > 0).then(|| usage.maxrss as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive() {
        let big = vec![1u8; 8 << 20];
        std::hint::black_box(&big);
        assert!(peak_rss_mb().expect("getrusage") >= 8.0);
    }

    #[test]
    fn provenance_line_names_every_field() {
        let p = Provenance::capture();
        let line = p.line(7);
        for key in ["nproc=", "physical_cores=", "simd=", "batch=", "kfds_env=", "seed=7"] {
            assert!(line.contains(key), "{line}");
        }
    }
}
