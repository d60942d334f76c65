//! Serving-plane trajectory: measures p50/p99 latency and decision
//! throughput of `datanet-serve` at 1/8/64 concurrent tenants with the
//! epoch-keyed plan cache on and off, and gates the cache speedup and the
//! simulated outcome against the committed baseline (see
//! `datanet_bench::serve` for the methodology and `datanet_bench::gate`
//! for the report schema).
//!
//! ```text
//! serve [--quick] [--json BENCH_serve.json] [--baseline BENCH_baseline.json]
//! ```
//!
//! Fails when cache-on decision throughput falls under 2x cache-off at
//! the 64-tenant point, when caching changes any simulated outcome, or
//! when the deterministic simulated numbers drift from the baseline's
//! `serve` section (a full-mode run: gate without `--quick`).

use std::process::ExitCode;

fn main() -> ExitCode {
    datanet_bench::gate::main(&datanet_bench::serve::BENCH)
}
