//! Distribution-aware shuffle trajectory: measures the network-byte
//! reduction of the reduce-side partitioner over hash partitioning across
//! a Zipf skew sweep and gates it against the committed baseline (see
//! `datanet_bench::shuffle` for the methodology and `datanet_bench::gate`
//! for the report schema).
//!
//! ```text
//! shuffle [--quick] [--json BENCH_shuffle.json] [--baseline BENCH_baseline.json]
//! ```
//!
//! Fails when the reduction at the skewed point leaves the ±20% band
//! around the baseline's `shuffle` section, misses the 2x absolute floor,
//! or the aware plan's makespan regresses on the uniform workload.

use std::process::ExitCode;

fn main() -> ExitCode {
    datanet_bench::gate::main(&datanet_bench::shuffle::BENCH)
}
