//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-analysis|warm-serve \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a human-readable report, then, as the last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. An untraced run
//! (`--trace 0`) reports the end-to-end metrics; a traced run (`--trace
//! 1`) the per-layer ones. Exits 1 when an output check failed, 2 on a
//! usage or set-up error.

use datanet_perfbench::stats::{median, peak_rss_mb, percentile};
use datanet_perfbench::{cold, warm, Opts, Outcome, END_TO_END, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got `{v}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !a.seconds.is_finite() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: work.clone(),
    };
    let result = std::fs::create_dir_all(&work)
        .map_err(Into::into)
        .and_then(|()| match args.workload.as_str() {
            "cold-analysis" => cold::run(&opts),
            _ => warm::run(&opts),
        });
    let _ = std::fs::remove_dir_all(&work);
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    if args.trace {
        let dir = PathBuf::from(".bench_work").join("traces");
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| out.tracer.write_jsonl(&path)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    report(&args, &out)
}

/// Print the report and the result line.
fn report(args: &Args, out: &Outcome) -> ExitCode {
    println!(
        "workload {} seed {} ({:.0} s timed, {})",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    println!(
        "ops: {} attempted, {} failed ({:.4} failed share)",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        // Layer self time inside the timed operations, with its share of
        // them, next to the self time spent in set-up and probes.
        let timed = out.tracer.totals_where(|s| s.op != 0);
        let rest = out.tracer.totals_where(|s| s.op == 0);
        let timed_ns: u64 = timed
            .iter()
            .filter(|(n, _)| n.starts_with(datanet_perfbench::OP_PREFIX))
            .map(|(_, t)| t.total_ns)
            .sum();
        println!(
            "{:<20} {:>7} {:>12} {:>10} {:>9} {:>14}",
            "span", "calls", "timed ms", "ms/call", "of timed", "set-up ms"
        );
        let names: std::collections::BTreeSet<&str> =
            timed.keys().chain(rest.keys()).copied().collect();
        for name in names {
            let t = timed.get(name).copied().unwrap_or_default();
            let r = rest.get(name).copied().unwrap_or_default();
            println!(
                "{:<20} {:>7} {:>12.3} {:>10.4} {:>8.1}% {:>14.3}",
                name,
                t.calls + r.calls,
                t.self_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6 / t.calls.max(1) as f64,
                100.0 * t.self_ns as f64 / timed_ns.max(1) as f64,
                r.self_ns as f64 / 1e6
            );
        }
        println!(
            "trace overhead: {:+.4} ({} paired ops)",
            out.trace_overhead(),
            out.traced_op_ms.len()
        );
        metrics = out.per_layer();
    } else {
        let p = |q: f64| percentile(&out.op_ms, q);
        let (p10, p50, p90) = (p(10.0), p(50.0), p(90.0));
        for (label, p) in [("p10", p10), ("p50", p50), ("p90", p90)] {
            if let Some(p) = p {
                println!(
                    "op latency {label}: {:.3} ms over {} samples, {} below, {} beyond",
                    p.value, p.samples, p.below, p.beyond
                );
            }
        }
        println!(
            "throughput: {:.3} items per second of operation time ({} items)",
            out.throughput(),
            out.items
        );
        println!(
            "set-up: {} repetitions, median {:.6} s",
            out.setup_secs.len(),
            median(&out.setup_secs)
        );
        for (name, unit) in END_TO_END {
            let v = match name {
                "setup_s" => median(&out.setup_secs),
                "op_p90_ms" => p90.map_or(0.0, |p| p.value),
                "peak_rss_mb" => peak_rss_mb().unwrap_or(0.0),
                "meta_bytes_per_mb" => out.meta_bytes_per_mb,
                other => unreachable!("unhandled end-to-end metric {other}"),
            };
            metrics.push((name, unit, v));
        }
    }
    for (name, unit, v) in &metrics {
        println!("{name:<28} {v:>16.6} {unit}");
    }
    for e in &out.errors {
        println!("CHECK FAILED: {e}");
    }
    let correct = out.errors.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// A finite JSON number with every digit Rust prints for the value.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
