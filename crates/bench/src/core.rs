//! The `core` hot-path benchmark behind `BENCH_core.json` and the CI
//! `bench-gate` job.
//!
//! ## Methodology (DESIGN.md §13)
//!
//! Absolute wall times are machine-dependent, so the gate is built on
//! **within-run speedup ratios**: every run times the frozen pre-PR-5
//! reference implementations ([`crate::legacy`]) and the current hot path
//! back to back, in one process, on the identical workload (the paper's
//! 256-block movie dataset). A slow or noisy runner slows both sides; the
//! ratio survives. Each side is timed as the *minimum over repetitions*,
//! the standard way to strip scheduler noise from a micro-measurement.
//!
//! Three ratios are gated (committed baseline ± 15%, plus absolute
//! floors): ElasticMap array build, batched multi-view query, and
//! scheduling-time planning (view assembly + Algorithm 1). Scan
//! throughput and single-view latency percentiles are reported for the
//! trajectory record but not gated — they have no within-run baseline.

use crate::gate::{Bench, Gate, Report, Row};
use crate::legacy;
use crate::min_secs;
use crate::setup::{movie_dataset, NODES};
use datanet::{plan_balanced_batch, ElasticMapArray, Separation};
use datanet_dfs::{Dfs, SubDatasetId};

/// Separation policy used by every measurement (the paper's α = 0.3).
const ALPHA: f64 = 0.3;

/// Ratio tolerance of the core gate: current ≥ baseline × (1 − 0.15).
pub const GATE_TOLERANCE: f64 = 0.15;

/// Absolute floor for the build ratio (acceptance criterion).
pub const BUILD_FLOOR: f64 = 1.5;

/// Absolute floor for the query/planner ratios (acceptance criterion).
pub const PLANNER_FLOOR: f64 = 1.3;

/// The ratio band: current ≥ baseline × (1 − [`GATE_TOLERANCE`]).
const BAND: Gate = Gate::Band {
    below: GATE_TOLERANCE,
    above: f64::INFINITY,
};

/// The gated `case` row: `legacy / current` seconds, over `floor` and
/// within [`BAND`] of the baseline.
fn speedup(case: &str, legacy: f64, current: f64, floor: f64) -> Row {
    Row::new(case, "speedup", legacy / current).gated([Gate::Floor(floor), BAND])
}

/// The `core` gate as the driver runs it.
pub const BENCH: Bench = Bench {
    name: "core",
    measure: run_core_bench,
    attempts: 1,
};

/// The probe id set: every real movie interleaved from both ends of the
/// size ranking (hot head, long tail) plus one absent id per eight probes,
/// capped at `limit` — the shape of a scheduling sweep over a catalogue.
fn probe_ids(
    dfs: &Dfs,
    catalog: &datanet_workloads::MovieCatalog,
    limit: usize,
) -> Vec<SubDatasetId> {
    let ranked = catalog.by_size_desc();
    let mut ids = Vec::with_capacity(limit);
    let (mut lo, mut hi) = (0usize, ranked.len());
    while ids.len() < limit && lo < hi {
        ids.push(ranked[lo].0);
        lo += 1;
        if ids.len() % 8 == 7 {
            // An id no movie uses: exercises the all-negative bloom path.
            ids.push(SubDatasetId(u64::MAX - ids.len() as u64));
        } else if lo < hi {
            hi -= 1;
            ids.push(ranked[hi].0);
        }
    }
    ids.truncate(limit);
    assert!(dfs.block_count() > 0);
    ids
}

/// Run the core hot-path benchmark. `quick` shrinks repetitions and the
/// probe set for CI smoke jobs; the measured ratios keep the same meaning.
pub fn run_core_bench(quick: bool) -> Report {
    let (dfs, catalog) = movie_dataset(NODES);
    let policy = Separation::Alpha(ALPHA);
    let reps = if quick { 3 } else { 7 };
    let ids = probe_ids(&dfs, &catalog, if quick { 64 } else { 192 });

    // Build: frozen serial legacy vs current sharded build.
    let build_legacy = min_secs(reps, || legacy::build(&dfs, &policy));
    let build_new = min_secs(reps, || ElasticMapArray::build(&dfs, &policy));

    let legacy_maps = legacy::build(&dfs, &policy);
    let array = ElasticMapArray::build(&dfs, &policy);

    // Query: N legacy single views vs one batched walk.
    let query_legacy = min_secs(reps, || {
        ids.iter()
            .map(|&id| legacy::view(&legacy_maps, id))
            .collect::<Vec<_>>()
    });
    let query_new = min_secs(reps, || array.views(&ids));

    // Single-view latency distribution on the current path.
    let mut lat_us: Vec<f64> = ids
        .iter()
        .map(|&id| min_secs(reps.min(3), || array.view(id)) * 1e6)
        .collect();
    lat_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: f64| lat_us[((lat_us.len() - 1) as f64 * p).round() as usize];

    // Planner: per-id view+plan loop vs the batched entry point.
    let planner_legacy = min_secs(reps, || legacy::plan_balanced(&dfs, &legacy_maps, &ids));
    let planner_new = min_secs(reps, || plan_balanced_batch(&dfs, &array, &ids));

    let raw_mb = dfs.total_bytes() as f64 / (1024.0 * 1024.0);
    Report::new(
        BENCH.name,
        quick,
        vec![
            Row::new("workload", "blocks", dfs.block_count() as f64),
            Row::new("workload", "probe_ids", ids.len() as f64),
            Row::new("workload", "raw_mb", raw_mb),
            Row::new("build", "legacy_ms", build_legacy * 1e3),
            Row::new("build", "current_ms", build_new * 1e3),
            speedup("build", build_legacy, build_new, BUILD_FLOOR),
            Row::new("build", "scan_mb_per_s", raw_mb / build_new),
            speedup("query", query_legacy, query_new, PLANNER_FLOOR),
            Row::new("query", "view_p50_us", pct(0.50)),
            Row::new("query", "view_p99_us", pct(0.99)),
            Row::new("planner", "legacy_ms", planner_legacy * 1e3),
            Row::new("planner", "current_ms", planner_new * 1e3),
            speedup("planner", planner_legacy, planner_new, PLANNER_FLOOR),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::check;

    /// A report whose three gated ratios are `build`, `query`, `planner`.
    fn report(build: f64, query: f64, planner: f64) -> Report {
        Report::new(
            BENCH.name,
            true,
            vec![
                speedup("build", build, 1.0, BUILD_FLOOR),
                speedup("query", query, 1.0, PLANNER_FLOOR),
                speedup("planner", planner, 1.0, PLANNER_FLOOR),
            ],
        )
    }

    #[test]
    fn gate_flags_regressions_and_floor_misses() {
        let base = report(3.0, 2.0, 2.0);
        // build: above its 1.5 floor but 33% below baseline 3.0; planner:
        // below both the tolerance band and its 1.3 floor.
        let v = check(&report(2.0, 2.0, 1.1), &base);
        assert_eq!(v.len(), 3, "violations: {v:?}");
        assert!(
            v.iter()
                .any(|m| m.starts_with("core build speedup") && m.contains("base -15%")),
            "{v:?}"
        );
        assert!(
            v.iter()
                .any(|m| m.starts_with("core planner speedup") && m.contains("base -15%")),
            "{v:?}"
        );
        assert!(
            v.iter()
                .any(|m| m.starts_with("core planner speedup") && m.contains("fails >= 1.3")),
            "{v:?}"
        );
        // Within tolerance passes: 13% below 3.0 < 15%.
        assert!(check(&report(2.6, 2.0, 2.0), &base).is_empty());
    }

    #[test]
    fn report_roundtrips_through_json() {
        crate::gate::assert_roundtrips(&run_core_bench(true));
    }
}
