//! The `ingest` streaming benchmark behind `BENCH_ingest.json` and the CI
//! `bench-gate` job.
//!
//! ## Methodology (DESIGN.md §14)
//!
//! The question the gate answers: how much does *incremental* ElasticMap
//! maintenance save over the naive alternative — rebuilding the whole
//! array from scratch every time the stream reaches a commit point? Both
//! sides replay the identical arrival sequence (the paper's 256-block
//! movie dataset appended block by block) with a queryable snapshot
//! demanded every [`COMMIT_EVERY`] arrivals:
//!
//! * **rebuild**: [`ElasticMapArray::build`] over everything received so
//!   far, at every commit point — O(n²) record scans across the stream;
//! * **incremental**: one [`Ingestor::append`] per arrival plus a
//!   compaction per commit point — every record is summarized exactly
//!   once.
//!
//! As in the core bench, absolute times are machine-dependent, so the
//! gate is built on the **within-run speedup ratio** (both sides run in
//! the same process on the same workload, each timed as the minimum over
//! repetitions) against a committed baseline ± [`INGEST_GATE_TOLERANCE`],
//! plus the absolute floor [`INGEST_SPEEDUP_FLOOR`]. Ingest throughput
//! and the durable-commit (epoch persistence) time are reported for the
//! trajectory record but not gated — disk speed has no within-run
//! baseline.

use crate::gate::{Bench, Gate, Report, Row};
use crate::min_secs;
use crate::setup::{movie_dataset, NODES};
use datanet::{ElasticMapArray, IngestConfig, Ingestor, Separation};
use datanet_dfs::Dfs;
use std::path::Path;

/// Separation policy used by every measurement (the paper's α = 0.3).
const ALPHA: f64 = 0.3;

/// Arrivals between commit points (both sides must produce a queryable
/// snapshot here). 16 points over the 256-block stream.
pub const COMMIT_EVERY: usize = 16;

/// Ratio tolerance of the ingest gate: current ≥ baseline × (1 − 0.20).
/// Wider than the core gate's 15% — the rebuild side's quadratic scan is
/// long enough for allocator and page-cache noise to move the ratio more.
pub const INGEST_GATE_TOLERANCE: f64 = 0.20;

/// Absolute floor for the ingest speedup (acceptance criterion): streaming
/// maintenance must beat rebuild-per-commit at least this much.
pub const INGEST_SPEEDUP_FLOOR: f64 = 3.0;

/// The `ingest` gate as the driver runs it.
pub const BENCH: Bench = Bench {
    name: "ingest",
    measure: run_ingest_bench,
    attempts: 1,
};

/// The gated row: `rebuild / ingest` seconds, over
/// [`INGEST_SPEEDUP_FLOOR`] and at most [`INGEST_GATE_TOLERANCE`] below
/// the baseline.
fn speedup(rebuild: f64, ingest: f64) -> Row {
    let band = Gate::Band {
        below: INGEST_GATE_TOLERANCE,
        above: f64::INFINITY,
    };
    Row::new("incremental", "speedup", rebuild / ingest)
        .gated([Gate::Floor(INGEST_SPEEDUP_FLOOR), band])
}

/// Run the streaming-ingest benchmark. `quick` shrinks repetitions for CI
/// smoke jobs; the measured ratio keeps the same meaning.
pub fn run_ingest_bench(quick: bool) -> Report {
    let (dfs, catalog) = movie_dataset(NODES);
    let policy = Separation::Alpha(ALPHA);
    let reps = if quick { 2 } else { 5 };
    // Probe the hottest movie at every commit point so neither side can
    // dead-code its snapshot.
    let probe = catalog.by_size_desc()[0].0;

    // Rebuild side: from-scratch array build at every commit point.
    let rebuild = min_secs(reps, || {
        let mut live = Dfs::empty(dfs.config().clone());
        let mut touched = 0usize;
        for (k, b) in dfs.blocks().iter().enumerate() {
            live.append_block(b.records().to_vec());
            if (k + 1) % COMMIT_EVERY == 0 {
                let arr = ElasticMapArray::build(&live, &policy);
                touched += arr.view(probe).block_count();
            }
        }
        touched
    });

    // Incremental side: identical arrivals and commit points, but each
    // record is summarized exactly once.
    let cfg = IngestConfig {
        policy: policy.clone(),
        compact_every: COMMIT_EVERY,
        shard_blocks: 64,
    };
    let ingest = min_secs(reps, || {
        let mut live = Dfs::empty(dfs.config().clone());
        let mut ing = Ingestor::new(cfg.clone());
        let mut touched = 0usize;
        for (k, b) in dfs.blocks().iter().enumerate() {
            let id = live.append_block(b.records().to_vec());
            ing.append(live.block(id), k as u64);
            if (k + 1) % COMMIT_EVERY == 0 {
                ing.compact();
                touched += ing.view(probe).block_count();
            }
        }
        touched
    });

    // Disk session: one full stream with a durable epoch per commit point
    // (reported, not gated — dominated by filesystem speed).
    let disk_dir =
        std::env::temp_dir().join(format!("datanet-bench-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&disk_dir);
    let mut epochs = 0u64;
    let commit_disk = min_secs(1, || {
        let refs: Vec<&Path> = vec![disk_dir.as_path()];
        let mut ing = Ingestor::new(cfg.clone());
        for (k, b) in dfs.blocks().iter().enumerate() {
            ing.append(b, k as u64);
            if (k + 1) % COMMIT_EVERY == 0 {
                ing.commit(&refs).expect("bench commit");
            }
        }
        ing.commit(&refs).expect("bench commit");
        epochs = ing.stats().epochs_committed;
    });
    let _ = std::fs::remove_dir_all(&disk_dir);

    let raw_mb = dfs.total_bytes() as f64 / (1024.0 * 1024.0);
    Report::new(
        BENCH.name,
        quick,
        vec![
            Row::new("workload", "blocks", dfs.block_count() as f64),
            Row::new("workload", "commit_every", COMMIT_EVERY as f64),
            Row::new("workload", "raw_mb", raw_mb),
            Row::new("rebuild", "stream_ms", rebuild * 1e3),
            Row::new("incremental", "stream_ms", ingest * 1e3),
            speedup(rebuild, ingest),
            Row::new("incremental", "mb_per_s", raw_mb / ingest),
            Row::new("disk commit", "session_ms", commit_disk * 1e3),
            Row::new("disk commit", "epochs", epochs as f64),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::check;

    /// A report whose gated speedup is `x`.
    fn report(x: f64) -> Report {
        Report::new(BENCH.name, true, vec![speedup(x, 1.0)])
    }

    #[test]
    fn gate_flags_regressions_and_floor_misses() {
        let base = report(8.0);
        // 25% below baseline: regression, but above the absolute floor.
        let v = check(&report(6.0), &base);
        assert_eq!(v.len(), 1, "violations: {v:?}");
        assert!(v[0].contains("fails >= base -20%"), "{v:?}");
        // Below both the tolerance band and the absolute floor.
        let v = check(&report(2.0), &base);
        assert_eq!(v.len(), 2, "violations: {v:?}");
        assert!(v.iter().any(|m| m.contains("fails >= 3")), "{v:?}");
        // Within tolerance passes.
        assert!(check(&report(6.8), &base).is_empty());
    }

    #[test]
    fn report_roundtrips_through_json() {
        crate::gate::assert_roundtrips(&run_ingest_bench(true));
    }
}
