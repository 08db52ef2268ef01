//! `kfds-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's provenance, every timing with its sample count, median
//! and highest supported percentile, and as the last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics
//! untraced, per-layer metrics traced). Exits 1 if any answer was wrong,
//! 2 on a usage error.

use kfds_perfbench::env::{force_defaults, Provenance};
use kfds_perfbench::{run, Params, WORKLOADS};
use std::path::PathBuf;

fn parse() -> Result<Params, String> {
    let mut p = Params {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        tiny: false,
        out_dir: Some(PathBuf::from(".bench_out")),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => p.workload = value()?,
            "--seed" => p.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                p.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(p.seconds > 0.0 && p.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                p.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                }
            }
            "--out-dir" => p.out_dir = Some(PathBuf::from(value()?)),
            "--tiny" => p.tiny = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&p.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(p)
}

fn main() {
    let p = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("kfds-perfbench: {e}");
            std::process::exit(2);
        }
    };
    force_defaults();
    let prov = Provenance::capture();
    println!("workload {} seed {} seconds {} trace {}", p.workload, p.seed, p.seconds, p.trace);
    println!("{}", prov.line(p.seed));
    let report = run(&p).expect("workload name was validated");
    for line in &report.lines {
        println!("{line}");
    }
    let failed_frac = report.failures.len() as f64 / report.attempted.max(1) as f64;
    println!(
        "attempted={} failed={} failed_frac={failed_frac}",
        report.attempted,
        report.failures.len()
    );
    for f in report.failures.iter().take(20) {
        println!("FAILED: {f}");
    }
    if !p.trace {
        for (name, value, unit) in report.metrics(false) {
            println!("metric {name:<24} {value:>14.6} {unit}");
        }
    } else {
        for (name, value, unit) in report.metrics(true) {
            println!("layer  {name:<34} {value:>16.6} {unit}");
        }
    }
    println!("{}", report.json(p.trace));
    std::process::exit(if report.correct() { 0 } else { 1 });
}
