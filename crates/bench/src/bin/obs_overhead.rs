//! Recorder overhead measurement: the always-on metrics plane and the
//! full trace, each against the untraced workload (see
//! `datanet_bench::obs` for the methodology and `datanet_bench::gate` for
//! the report schema).
//!
//! ```text
//! obs_overhead [--quick] [--json BENCH_obs.json] [--baseline BENCH_baseline.json]
//! ```
//!
//! Fails when the metrics plane costs more than 2% of the untraced
//! makespan or the trace more than 5%, on each of three measurements.

use std::process::ExitCode;

fn main() -> ExitCode {
    datanet_bench::gate::main(&datanet_bench::obs::BENCH)
}
