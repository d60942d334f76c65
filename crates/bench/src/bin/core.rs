//! Hot-path performance trajectory: measures the metadata build / query /
//! planner speedups over the frozen pre-optimisation reference and gates
//! them against the committed baseline (see `datanet_bench::core` for the
//! methodology and `datanet_bench::gate` for the report schema).
//!
//! ```text
//! core [--quick] [--json BENCH_core.json] [--baseline BENCH_baseline.json]
//! ```
//!
//! Fails on a >15% ratio regression against the baseline's `core`
//! section or a missed absolute floor.

use std::process::ExitCode;

fn main() -> ExitCode {
    datanet_bench::gate::main(&datanet_bench::core::BENCH)
}
