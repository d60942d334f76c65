//! Streaming-ingest trajectory: measures the incremental-maintenance
//! speedup over rebuild-per-commit and gates it against the committed
//! baseline (see `datanet_bench::ingest` for the methodology and
//! `datanet_bench::gate` for the report schema).
//!
//! ```text
//! ingest [--quick] [--json BENCH_ingest.json] [--baseline BENCH_baseline.json]
//! ```
//!
//! Fails on a >20% ratio regression against the baseline's `ingest`
//! section or a missed absolute floor.

use std::process::ExitCode;

fn main() -> ExitCode {
    datanet_bench::gate::main(&datanet_bench::ingest::BENCH)
}
