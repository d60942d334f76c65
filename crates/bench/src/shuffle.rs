//! The `shuffle` benchmark behind `BENCH_shuffle.json` and the CI
//! `bench-gate` job.
//!
//! ## Methodology (DESIGN.md §17)
//!
//! The question the gate answers: how many bytes does the
//! distribution-aware reduce-side partitioner keep off the network
//! relative to classic `hash(key) % reducers` partitioning, and does that
//! win ever cost reduce makespan when there is no skew to exploit?
//!
//! The workload is the synthetic clustered matrix the paper's Section V
//! setup implies: [`KEY_RANGES`] key ranges over [`NODES`] nodes, range
//! `g`'s bytes concentrated [`HOME_FRACTION`] on its home node `g % NODES`
//! (the write-locality a real DFS produces) with the rest spread evenly,
//! and per-range totals drawn from a Zipf law at exponent `s`. The sweep
//! runs `s ∈ {0.0, 0.8, 1.2}`: uniform, moderate and heavy skew. For each
//! point both plans replay the identical matrix through
//! [`run_analysis_shuffled`] — the same simulation the pipeline executor
//! uses — so every number is a deterministic function of the workload, not
//! of wall-clock noise.
//!
//! The gate (acceptance criteria of the shuffle tentpole):
//!
//! * at `s =` [`SHUFFLE_SKEW_S`] the network-byte reduction
//!   `hash / aware` must be at least [`SHUFFLE_BYTES_FLOOR`] and within
//!   ±[`SHUFFLE_GATE_TOLERANCE`] of the committed baseline ratio;
//! * at `s =` [`SHUFFLE_UNIFORM_S`] the aware plan's makespan must be no
//!   worse than hash partitioning's — locality is only a win if it never
//!   trades away the balanced case. The report carries this as the
//!   derived row `aware_minus_hash_makespan_secs`, capped at zero.

use crate::gate::{Bench, Gate, Report, Row};
use datanet_analytics::profiles::word_count_profile;
use datanet_dfs::NodeId;
use datanet_mapreduce::{run_analysis_shuffled, AnalysisConfig, ShufflePlan, ShufflePlanner};

/// Reducer/mapper nodes in the synthetic cluster.
pub const NODES: usize = 8;

/// Key ranges the intermediate key space is hashed into.
pub const KEY_RANGES: usize = 64;

/// Heavy-key split threshold, in fair shares (the pipeline default).
pub const SPLIT_FACTOR: f64 = 1.25;

/// Fraction of a range's bytes sitting on its home node.
pub const HOME_FRACTION: f64 = 0.8;

/// Zipf exponent of the gated skewed point.
pub const SHUFFLE_SKEW_S: f64 = 1.2;

/// Zipf exponent of the gated uniform point.
pub const SHUFFLE_UNIFORM_S: f64 = 0.0;

/// Ratio tolerance of the shuffle gate, both directions: the measured
/// reduction must stay within ±20% of the committed baseline. The sweep is
/// deterministic, so a drift means the workload or the planner changed —
/// either way the baseline must be re-committed deliberately.
pub const SHUFFLE_GATE_TOLERANCE: f64 = 0.20;

/// Absolute floor for the network-byte reduction at the skewed point
/// (acceptance criterion): the aware plan must at least halve what
/// crosses the network.
pub const SHUFFLE_BYTES_FLOOR: f64 = 2.0;

/// The `shuffle` gate as the driver runs it.
pub const BENCH: Bench = Bench {
    name: "shuffle",
    measure: run_shuffle_bench,
    attempts: 1,
};

/// The report case of one Zipf point.
fn case(s: f64) -> String {
    format!("s={s:.1}")
}

/// Unnormalised Zipf weights `1/rank^s` for ranks `1..=k`.
fn zipf_weights(k: usize, s: f64) -> Vec<f64> {
    (1..=k).map(|i| (i as f64).powf(-s)).collect()
}

/// The synthetic clustered per-(node, key-range) matrix: Zipf range
/// totals, [`HOME_FRACTION`] of each range on node `g % nodes`, the rest
/// spread evenly (remainder bytes to the home node, keeping the matrix an
/// exact partition of `total`).
fn clustered_matrix(nodes: usize, ranges: usize, s: f64, total: u64) -> Vec<Vec<u64>> {
    let w = zipf_weights(ranges, s);
    let sum: f64 = w.iter().sum();
    let mut matrix = vec![vec![0u64; ranges]; nodes];
    for g in 0..ranges {
        let bytes = (total as f64 * w[g] / sum).round() as u64;
        let home = g % nodes;
        let foreign = ((1.0 - HOME_FRACTION) * bytes as f64) as u64;
        let each = foreign / (nodes - 1) as u64;
        for (n, row) in matrix.iter_mut().enumerate() {
            if n != home {
                row[g] = each;
            }
        }
        matrix[home][g] = bytes - each * (nodes - 1) as u64;
    }
    matrix
}

/// The derived row of the uniform point: how much longer the aware plan
/// runs than hash partitioning, capped at zero. An exact sign test:
/// `a − b > 0` iff `a > b` for finite floats.
fn makespan_excess(case: &str, aware_secs: f64, hash_secs: f64) -> Row {
    Row::new(
        case,
        "aware_minus_hash_makespan_secs",
        aware_secs - hash_secs,
    )
    .gated([Gate::Cap(0.0)])
}

/// Run the shuffle benchmark sweep. Deterministic: identical inputs give
/// byte-identical reports, so the gate never flakes. Quick mode only
/// shrinks the matrix byte totals; every ratio keeps its meaning.
pub fn run_shuffle_bench(quick: bool) -> Report {
    // 256 MB of intermediate bytes (32 MB in quick mode) — enough that
    // largest-remainder rounding is invisible in every ratio.
    let total: u64 = if quick { 32 << 20 } else { 256 << 20 };
    let job = word_count_profile();
    let cfg = AnalysisConfig::default();
    let mut rows = vec![
        Row::new("workload", "nodes", NODES as f64),
        Row::new("workload", "key_ranges", KEY_RANGES as f64),
        Row::new("workload", "split_factor", SPLIT_FACTOR),
    ];
    for s in [SHUFFLE_UNIFORM_S, 0.8, SHUFFLE_SKEW_S] {
        let matrix = clustered_matrix(NODES, KEY_RANGES, s, total);
        let aware_plan = ShufflePlanner::new(SPLIT_FACTOR).plan(&matrix);
        let hash_plan = ShufflePlan::hash(KEY_RANGES, (0..NODES as u32).map(NodeId).collect());
        let aware = run_analysis_shuffled(&matrix, &job, &cfg, &aware_plan);
        let hash = run_analysis_shuffled(&matrix, &job, &cfg, &hash_plan);
        let reduction = hash.network_bytes as f64 / aware.network_bytes.max(1) as f64;
        let split_ranges = aware_plan
            .assignments
            .iter()
            .filter(|frags| frags.len() > 1)
            .count();
        let (hash_secs, aware_secs) = (hash.report.makespan_secs, aware.report.makespan_secs);
        let c = case(s);
        rows.extend([
            Row::new(&c, "hash_network_bytes", hash.network_bytes as f64),
            Row::new(&c, "aware_network_bytes", aware.network_bytes as f64),
            Row::new(&c, "bytes_reduction", reduction).gated(if s == SHUFFLE_SKEW_S {
                vec![
                    Gate::Floor(SHUFFLE_BYTES_FLOOR),
                    Gate::Band {
                        below: SHUFFLE_GATE_TOLERANCE,
                        above: SHUFFLE_GATE_TOLERANCE,
                    },
                ]
            } else {
                vec![]
            }),
            Row::new(&c, "hash_makespan_secs", hash_secs),
            Row::new(&c, "aware_makespan_secs", aware_secs),
            Row::new(&c, "hash_reduce_imbalance", hash.reduce_imbalance()),
            Row::new(&c, "aware_reduce_imbalance", aware.reduce_imbalance()),
            Row::new(&c, "aware_locality", aware.locality_fraction()),
            Row::new(&c, "split_ranges", split_ranges as f64),
        ]);
        if s == SHUFFLE_UNIFORM_S {
            rows.push(makespan_excess(&c, aware_secs, hash_secs));
        }
    }
    Report::new(BENCH.name, quick, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::check;

    #[test]
    fn matrix_partitions_the_total_exactly() {
        for s in [0.0, 0.8, 1.2] {
            let m = clustered_matrix(NODES, KEY_RANGES, s, 1 << 20);
            for g in 0..KEY_RANGES {
                let col: u64 = m.iter().map(|row| row[g]).sum();
                let home = m[g % NODES][g];
                assert!(
                    home as f64 >= HOME_FRACTION * col as f64,
                    "s={s} range {g}: home holds {home} of {col}"
                );
            }
        }
    }

    #[test]
    fn sweep_is_deterministic_and_passes_its_own_gate() {
        let a = run_shuffle_bench(true);
        let b = run_shuffle_bench(true);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "two identical sweeps diverged"
        );
        assert!(check(&a, &b).is_empty(), "{:?}", check(&a, &b));
    }

    #[test]
    fn skewed_point_clears_the_floor_and_splits_heavy_ranges() {
        let r = run_shuffle_bench(true);
        let skew = |metric| r.value(&case(SHUFFLE_SKEW_S), metric).unwrap();
        assert!(
            skew("bytes_reduction") >= SHUFFLE_BYTES_FLOOR,
            "reduction {:.2}x under the floor",
            skew("bytes_reduction")
        );
        assert!(skew("split_ranges") > 0.0, "no heavy range split at s=1.2");
        let uniform = |metric| r.value(&case(SHUFFLE_UNIFORM_S), metric).unwrap();
        assert!(uniform("aware_makespan_secs") <= uniform("hash_makespan_secs"));
        assert!(
            uniform("aware_reduce_imbalance") <= uniform("hash_reduce_imbalance") + 1e-9,
            "aware {:.3} vs hash {:.3}",
            uniform("aware_reduce_imbalance"),
            uniform("hash_reduce_imbalance")
        );
    }

    #[test]
    fn gate_flags_floor_misses_drift_and_makespan_regressions() {
        let base = run_shuffle_bench(true);
        let pos = |case: &str, metric: &str| {
            base.rows
                .iter()
                .position(|x| x.case == case && x.metric == metric)
                .unwrap()
        };

        let mut bad = base.clone();
        let i = pos(&case(SHUFFLE_SKEW_S), "bytes_reduction");
        bad.rows[i].value = 1.5; // under the floor AND out of band
        let v = check(&bad, &base);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|m| m.contains("fails >= 2")), "{v:?}");
        assert!(
            v.iter().any(|m| m.contains("fails base -20%/+20%")),
            "{v:?}"
        );

        let mut slow = base.clone();
        let c = case(SHUFFLE_UNIFORM_S);
        let hash_secs = base.value(&c, "hash_makespan_secs").unwrap();
        let i = pos(&c, "aware_makespan_secs");
        slow.rows[i].value = hash_secs * 2.0;
        let i = pos(&c, "aware_minus_hash_makespan_secs");
        slow.rows[i] = makespan_excess(&c, hash_secs * 2.0, hash_secs);
        let v = check(&slow, &base);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("aware_minus_hash_makespan_secs"), "{v:?}");
        assert!(v[0].contains("fails <= 0"), "{v:?}");
    }

    #[test]
    fn report_roundtrips_through_json() {
        crate::gate::assert_roundtrips(&run_shuffle_bench(true));
    }
}
