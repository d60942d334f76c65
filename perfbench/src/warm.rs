//! `warm-serve`: the multi-tenant serving plane over a world built once.
//!
//! Set-up builds the world `datanet serve` builds without `--dataset`:
//! records striped over the sub-datasets, written to the DFS, ElasticMap
//! array built. The timed phase calls `datanet_serve::serve` over long
//! skewed 64-tenant query streams (open loop on the simulated clock: one
//! arrival every [`GAP_US`]), each with an ingest commit every
//! [`COMMIT_EVERY`] queries and one node loss half-way. No file is read
//! or written: the work is admission, fair-share quotas, the plan cache,
//! the planners on every miss and the array rebuilds of ingest commits.

use crate::cli;
use crate::stats::mix;
use crate::trace::Tracer;
use crate::{paired_op, set_up, timed_phase_over, Opts, Outcome};
use datanet::Separation;
use datanet_dfs::{Dfs, DfsConfig, Record, SubDatasetId, Topology};
use datanet_obs::Recorder;
use datanet_serve::{
    generate_stream, serve, Disposition, QuerySpec, ScriptedEvent, ServeConfig, ServeEvent,
    ServeReport, StreamConfig, TenantMix, World,
};
use std::time::Instant;

/// Records in the world (about 1,400 blocks of 4 KiB).
pub const RECORDS: u64 = 21_000;
/// Bytes per record.
pub const RECORD_BYTES: u32 = 260;
/// DFS nodes.
pub const NODES: u32 = 32;
/// DFS block size, KiB.
pub const BLOCK_KB: u64 = 4;
/// Sub-datasets (the plan cache's working set).
pub const SUBDATASETS: u64 = 64;
/// Tenants issuing queries.
pub const TENANTS: u32 = 64;
/// Queries per `serve` call.
pub const QUERIES: u32 = 1_024;
/// Simulated microseconds between arrivals.
pub const GAP_US: u64 = 1_000;
/// Queries between ingest commits (one cache epoch).
pub const COMMIT_EVERY: u32 = 256;
/// Distinct streams the timed phase cycles through.
pub const STREAMS: u64 = 8;

/// `datanet serve`'s synthetic world at the sizes above.
fn build_world(seed: u64, t: &mut Tracer) -> World {
    let records: Vec<Record> = t.span("workloads.gen", |_| {
        (0..RECORDS)
            .map(|i| Record::new(SubDatasetId(i % SUBDATASETS), i, RECORD_BYTES, seed ^ i))
            .collect()
    });
    let dfs = t.span("dfs.write", |_| {
        Dfs::write_random(
            DfsConfig {
                block_size: BLOCK_KB * 1024,
                replication: 2,
                topology: Topology::single_rack(NODES),
                seed,
            },
            records,
        )
    });
    t.span("scan.build", |_| {
        World::new(dfs, SUBDATASETS, Separation::Alpha(cli::ALPHA), seed)
    })
}

/// The scripted events of every stream: an ingest commit of two blocks
/// every [`COMMIT_EVERY`] queries and the loss of one node half-way.
fn events(lost: u32) -> Vec<ScriptedEvent> {
    let mut ev: Vec<ScriptedEvent> = (1..QUERIES / COMMIT_EVERY)
        .map(|k| ScriptedEvent {
            at_query: k * COMMIT_EVERY,
            event: ServeEvent::IngestCommit { blocks: 2 },
        })
        .collect();
    ev.push(ScriptedEvent {
        at_query: QUERIES / 2 + 1,
        event: ServeEvent::NodeLoss { node: lost },
    });
    ev.sort_by_key(|e| e.at_query);
    ev
}

fn config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        cache: true,
        ..ServeConfig::default()
    }
}

/// Run the workload.
///
/// # Errors
/// None at present; the signature matches `cold::run`.
pub fn run(o: &Opts) -> Result<Outcome, cli::Error> {
    let mut out = Outcome::new(if o.trace { Tracer::on() } else { Tracer::off() });
    let world_seed = mix(o.seed, 1);
    let world = set_up(
        &mut out,
        |t| Ok::<_, cli::Error>(build_world(world_seed, t)),
        |a, b| {
            a.dfs().blocks() == b.dfs().blocks()
                && a.array().memory_bytes() == b.array().memory_bytes()
        },
    )?;
    let data_mb = world.dfs().total_bytes() as f64 / (1024.0 * 1024.0);
    out.meta_bytes_per_mb = world.array().memory_bytes() as f64 / data_mb;

    let streams: Vec<(Vec<QuerySpec>, Vec<ScriptedEvent>)> = (0..STREAMS)
        .map(|j| {
            let stream = generate_stream(&StreamConfig {
                tenants: TENANTS,
                queries: QUERIES,
                gap_us: GAP_US,
                subdatasets: SUBDATASETS,
                mix: TenantMix::Skewed,
                seed: mix(o.seed, 100 + j),
            });
            (
                stream,
                events((mix(o.seed, 200 + j) % u64::from(NODES)) as u32),
            )
        })
        .collect();
    let cfg = config();

    let mut answers: Vec<Option<(String, u64)>> = vec![None; streams.len()];
    let (mut hits, mut misses, mut rejected, mut shed, mut calls) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut p99_ms = Vec::new();
    let start = Instant::now();
    let mut i = 0u64;
    while !timed_phase_over(o, start, i as usize) {
        let slot = (i % STREAMS) as usize;
        let (stream, ev) = &streams[slot];
        // `serve` consumes its world; the copies are made outside the
        // timed calls.
        let mut copies = vec![world.clone(); if o.trace { 2 } else { 1 }];
        let (untraced, traced) = paired_op(&mut out, i, "op.serve", |t, _| {
            let w = copies.pop().expect("one copy per pass");
            t.span("serve.call", |_| {
                serve(w, stream, ev, &cfg, &Recorder::off())
            })
        });
        out.attempted += stream.len() as u64;
        out.items += stream.len() as u64;
        for report in std::iter::once(&untraced).chain(traced.as_ref()) {
            let (r, s) = refused(report);
            out.failed += r + s;
            let key = (
                report.answers.canonical_json(),
                report.timing.p99_latency_us,
            );
            let first = answers[slot].get_or_insert_with(|| key.clone());
            let same = *first == key;
            out.check(same, || {
                format!("stream {slot}: answers or simulated p99 changed between calls")
            });
        }
        let report = traced.as_ref().unwrap_or(&untraced);
        hits += report.answers.cache_hits;
        misses += report.answers.cache_misses;
        let (r, s) = refused(report);
        rejected += r;
        shed += s;
        calls += 1;
        p99_ms.push(report.timing.p99_latency_us as f64 / 1e3);
        i += 1;
    }
    out.values.insert(
        "serve.cache_hit_frac",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.values
        .insert("serve.rejected", rejected as f64 / calls.max(1) as f64);
    out.values
        .insert("serve.shed", shed as f64 / calls.max(1) as f64);
    out.values.insert(
        "serve.sim_p99_ms",
        p99_ms.iter().sum::<f64>() / p99_ms.len().max(1) as f64,
    );

    if o.trace {
        // The two layers `serve` spends its decision time in, timed by
        // calling them directly on the same world.
        let subs: Vec<SubDatasetId> = (0..SUBDATASETS).map(SubDatasetId).collect();
        for _ in 0..5 {
            let plans = out
                .tracer
                .span("planner.batch", |_| world.plan_batch(&subs, cfg.maxflow));
            out.check(plans.len() == subs.len(), || {
                "plan_batch lost a sub-dataset".into()
            });
            let mut w = world.clone();
            out.tracer.span("serve.apply", |_| {
                w.apply(&ServeEvent::IngestCommit { blocks: 2 })
            });
            out.check(
                w.dfs().block_count() == world.dfs().block_count() + 2,
                || "ingest commit lost a block".into(),
            );
        }
    }
    Ok(out)
}

/// Rejected and shed queries of one call.
fn refused(report: &ServeReport) -> (u64, u64) {
    let mut r = (0, 0);
    for q in &report.answers.outcomes {
        match q.disposition {
            Disposition::Rejected { .. } => r.0 += 1,
            Disposition::Shed { .. } => r.1 += 1,
            Disposition::Completed { .. } => {}
        }
    }
    r
}
