//! The `serve` benchmark behind `BENCH_serve.json` and the CI
//! `bench-gate` job.
//!
//! ## Methodology (DESIGN.md §18)
//!
//! The question the gate answers: what does the epoch-keyed plan cache
//! buy the serving plane under multi-tenant load, and does caching ever
//! change what tenants are served?
//!
//! The workload is a synthetic serving world ([`SERVE_SUBDATASETS`]
//! sub-datasets striped over [`SERVE_NODES`] nodes) under a skewed query
//! stream, swept over [`SERVE_TENANT_POINTS`] concurrent tenants with the
//! plan cache on and off. Per point the report records two kinds of
//! numbers:
//!
//! * **simulated** — completed/rejected/shed counts and the p50/p99
//!   admission-to-completion latency on the simulated clock. These are
//!   deterministic functions of the stream, so they are gated as *exact*
//!   equalities: against the cache-off twin (a coherent cache may change
//!   where plans come from, never what they are; the derived row
//!   `cache_outcome_mismatches` counts differing fields, capped at zero)
//!   and against the committed baseline (a drift means the planner or
//!   the serving plane changed — re-commit the baseline deliberately).
//! * **wall-clock** — how long the serve call itself takes, best of
//!   several repetitions. The cache's entire job is to skip planner
//!   walks, so the gate demands cache-on decision throughput at least
//!   [`SERVE_CACHE_SPEEDUP_FLOOR`]× cache-off at the
//!   [`SERVE_GATE_TENANTS`]-tenant point.

use crate::gate::{Bench, Gate, Report, Row};
use datanet::Separation;
use datanet_dfs::{Dfs, DfsConfig, Record, SubDatasetId, Topology};
use datanet_obs::Recorder;
use datanet_serve::{
    generate_stream, serve, Disposition, ServeConfig, StreamConfig, TenantMix, World,
};
use std::time::Instant;

/// Tenant counts of the sweep.
pub const SERVE_TENANT_POINTS: [u32; 3] = [1, 8, 64];

/// The tenant count the cache-speedup gate reads.
pub const SERVE_GATE_TENANTS: u32 = 64;

/// Minimum cache-on / cache-off wall-clock throughput ratio at the gate
/// point (acceptance criterion): the cache must at least double decision
/// throughput once many tenants hammer a bounded set of sub-datasets.
pub const SERVE_CACHE_SPEEDUP_FLOOR: f64 = 2.0;

/// Sub-datasets in the serving world.
pub const SERVE_SUBDATASETS: u64 = 8;

/// Nodes in the serving world.
pub const SERVE_NODES: u32 = 10;

/// The `serve` gate as the driver runs it.
pub const BENCH: Bench = Bench {
    name: "serve",
    measure: run_serve_bench,
    attempts: 1,
};

/// The simulated outcome a coherent cache must leave untouched.
const OUTCOME: [&str; 5] = [
    "completed",
    "rejected",
    "shed",
    "sim_p50_latency_us",
    "sim_p99_latency_us",
];

/// The report case of one sweep point.
fn case(tenants: u32, cache: bool) -> String {
    format!(
        "tenants={tenants} cache={}",
        if cache { "on" } else { "off" }
    )
}

/// The synthetic serving world: records striped round-robin over the
/// sub-datasets, written through the DFS placement policy.
fn build_world(records: u64, seed: u64) -> World {
    let dfs = Dfs::write_random(
        DfsConfig {
            block_size: 2_000,
            replication: 2,
            topology: Topology::single_rack(SERVE_NODES),
            seed,
        },
        (0..records).map(|i| Record::new(SubDatasetId(i % SERVE_SUBDATASETS), i, 280, seed ^ i)),
    );
    World::new(dfs, SERVE_SUBDATASETS, Separation::Alpha(0.3), seed)
}

/// Run the serve benchmark sweep. Every simulated number is deterministic;
/// only the `wall_*` rows and the cache speedup move with the machine.
/// Quick mode serves a smaller world, so its simulated numbers differ
/// from a full run's.
pub fn run_serve_bench(quick: bool) -> Report {
    let records: u64 = if quick { 2_000 } else { 8_000 };
    let queries: u32 = if quick { 240 } else { 720 };
    let iters = if quick { 3 } else { 5 };
    let seed = 0xBE4C_u64;

    let proto = build_world(records, seed);
    let mut report = Report::new(
        BENCH.name,
        quick,
        vec![
            Row::new("world", "nodes", SERVE_NODES as f64),
            Row::new("world", "subdatasets", SERVE_SUBDATASETS as f64),
            Row::new("world", "blocks", proto.dfs().block_count() as f64),
            Row::new("world", "queries", queries as f64),
        ],
    );
    for tenants in SERVE_TENANT_POINTS {
        let stream = generate_stream(&StreamConfig {
            tenants,
            queries,
            gap_us: 300,
            subdatasets: SERVE_SUBDATASETS,
            mix: TenantMix::Skewed,
            seed,
        });
        for cache in [true, false] {
            let cfg = ServeConfig {
                workers: 4,
                queue_cap: 64,
                // Generous quantum: the bench measures planning cost, not
                // quota pressure, so every arrival should admit promptly
                // at every tenant count.
                quantum_bytes: 512 * 1024,
                cache,
                ..ServeConfig::default()
            };
            let mut served = None;
            let mut best = f64::INFINITY;
            for _ in 0..iters {
                let world = proto.clone();
                let t0 = Instant::now();
                let r = serve(world, &stream, &[], &cfg, &Recorder::off());
                best = best.min(t0.elapsed().as_secs_f64() * 1e3);
                served = Some(r);
            }
            let r = served.expect("at least one repetition ran");
            let a = &r.answers;
            let completed = a
                .outcomes
                .iter()
                .filter(|o| matches!(o.disposition, Disposition::Completed { .. }))
                .count() as f64;
            let rejected: u32 = a.tenants.iter().map(|t| t.rejected).sum();
            let shed: u32 = a.tenants.iter().map(|t| t.shed).sum();
            let c = case(tenants, cache);
            for (metric, value) in [
                ("completed", completed),
                ("rejected", rejected as f64),
                ("shed", shed as f64),
                ("cache_hits", a.cache_hits as f64),
                ("cache_misses", a.cache_misses as f64),
                ("sim_p50_latency_us", r.timing.p50_latency_us as f64),
                ("sim_p99_latency_us", r.timing.p99_latency_us as f64),
                ("sim_throughput_qps", r.timing.throughput_qps),
                ("wall_ms", best),
                (
                    "wall_qps",
                    if best > 0.0 {
                        completed / (best / 1e3)
                    } else {
                        0.0
                    },
                ),
            ] {
                // Cache-on outcomes are the baseline's business; cache-off
                // ones are held to the cache-on twin below.
                let exact = cache && (OUTCOME.contains(&metric) || metric == "cache_misses");
                report
                    .rows
                    .push(Row::new(&c, metric, value).gated(exact.then_some(Gate::Exact)));
            }
        }
        let derived = cache_rows(&report, tenants);
        report.rows.extend(derived);
    }
    report
}

/// The derived rows of one tenant point, read off its measured cache-on
/// and cache-off rows: how many [`OUTCOME`] fields differ (capped at
/// zero) and the cache-on / cache-off wall-clock throughput ratio
/// (floored at the gate point).
fn cache_rows(report: &Report, tenants: u32) -> [Row; 2] {
    let side = |cache, metric| {
        report
            .value(&case(tenants, cache), metric)
            .expect("both sides measured")
    };
    let mismatches = OUTCOME
        .iter()
        .filter(|&&m| side(true, m) != side(false, m))
        .count();
    let speedup = side(true, "wall_qps") / side(false, "wall_qps").max(f64::MIN_POSITIVE);
    let c = format!("tenants={tenants}");
    let gate_point = tenants == SERVE_GATE_TENANTS;
    [
        Row::new(&c, "cache_outcome_mismatches", mismatches as f64).gated([Gate::Cap(0.0)]),
        Row::new(&c, "cache_speedup", speedup)
            .gated(gate_point.then_some(Gate::Floor(SERVE_CACHE_SPEEDUP_FLOOR))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::check;

    #[test]
    fn sweep_covers_every_point_and_caches_pay_off() {
        let r = run_serve_bench(true);
        for tenants in SERVE_TENANT_POINTS {
            let on = |m| r.value(&case(tenants, true), m).unwrap();
            let off = |m| r.value(&case(tenants, false), m).unwrap();
            assert!(on("completed") > 0.0, "{tenants} tenants completed nothing");
            assert!(
                on("cache_hits") > 0.0,
                "{tenants} tenants never hit the cache"
            );
            // Cache off means the cache is never consulted at all.
            assert_eq!((off("cache_hits"), off("cache_misses")), (0.0, 0.0));
            // A coherent cache never changes the simulated outcome.
            for m in OUTCOME {
                assert_eq!(on(m), off(m), "{tenants} tenants: {m}");
            }
            // Hot-path sanity: the cache-on run plans each sub-dataset once.
            assert!(
                on("cache_misses") <= SERVE_SUBDATASETS as f64,
                "{tenants} tenants: {} misses over {} sub-datasets",
                on("cache_misses"),
                SERVE_SUBDATASETS
            );
        }
    }

    #[test]
    fn simulated_fields_are_deterministic_across_runs() {
        let a = run_serve_bench(true);
        let b = run_serve_bench(true);
        // Wall-clock moves run to run; everything gated must not.
        assert!(check(&a, &b).is_empty(), "{:?}", check(&a, &b));
        assert_eq!(a.rows.len(), b.rows.len());
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!((&x.case, &x.metric), (&y.case, &y.metric));
            if !x.metric.starts_with("wall_") && x.metric != "cache_speedup" {
                assert_eq!(x.value, y.value, "{} {}", x.case, x.metric);
            }
        }
    }

    /// Set `case metric` of `r` to `value` and re-derive the rows of
    /// the `tenants` point from it.
    fn set(r: &mut Report, tenants: u32, case: &str, metric: &str, value: f64) {
        let pos = |r: &Report, case: &str, metric: &str| {
            r.rows
                .iter()
                .position(|x| x.case == case && x.metric == metric)
                .unwrap()
        };
        let i = pos(r, case, metric);
        r.rows[i].value = value;
        for row in cache_rows(r, tenants) {
            let i = pos(r, &row.case, &row.metric);
            r.rows[i] = row;
        }
    }

    #[test]
    fn gate_flags_speedup_misses_coherence_breaks_and_baseline_drift() {
        let base = run_serve_bench(true);

        // Equal cache-on/off throughputs = 1.0x speedup, under the floor.
        let mut slow = base.clone();
        let t = SERVE_GATE_TENANTS;
        let off_qps = base.value(&case(t, false), "wall_qps").unwrap();
        set(&mut slow, t, &case(t, true), "wall_qps", off_qps);
        assert_eq!(
            slow.value(&format!("tenants={t}"), "cache_speedup"),
            Some(1.0)
        );
        let v = check(&slow, &base);
        assert!(
            v.iter()
                .any(|m| m.contains("cache_speedup") && m.contains("fails >= 2")),
            "{v:?}"
        );

        let mut incoherent = base.clone();
        let on = case(8, true);
        let completed = base.value(&on, "completed").unwrap();
        set(&mut incoherent, 8, &on, "completed", completed + 1.0);
        let v = check(&incoherent, &base);
        assert!(
            v.iter()
                .any(|m| m.contains("tenants=8 cache_outcome_mismatches = 1 fails <= 0")),
            "{v:?}"
        );
        assert!(
            v.iter()
                .any(|m| m.contains("tenants=8 cache=on completed") && m.contains("fails = base")),
            "{v:?}"
        );
    }

    #[test]
    fn report_roundtrips_through_json() {
        crate::gate::assert_roundtrips(&run_serve_bench(true));
    }
}
