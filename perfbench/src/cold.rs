//! `cold-analysis`: one client runs CLI-equivalent commands back to back
//! (closed loop) against a persisted movies dataset and meta-data store.
//!
//! Set-up is `datanet gen movies` followed by `datanet scan` into two
//! store replicas. The timed phase cycles through a seeded rotation of
//! `query`, `plan` (alg1 and maxflow), `simulate --job topk --shuffle
//! aware`, `pipeline --job wordcount` and `ingest` over the hottest, the
//! median and the coldest sub-dataset. Every command re-reads and decodes
//! the dataset file, as a fresh CLI process does, so the read path of
//! persisted state dominates. `pipeline` and `ingest` write into fresh
//! replica directories.

use crate::cli::{self, Dataset, Planner};
use crate::stats::{dir_bytes, median, mix, shuffle};
use crate::trace::Tracer;
use crate::{paired_op, set_up, timed, timed_phase_over, Opts, Outcome};
use datanet::{ElasticMapArray, MetaStore, Separation, SubDatasetView};
use datanet_dfs::{Dfs, SubDatasetId};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Records in the dataset.
pub const RECORDS: usize = 2_000;
/// DFS nodes.
pub const NODES: u32 = 32;
/// DFS block size, KiB.
pub const BLOCK_KB: u64 = 4;

/// One command of the rotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// `datanet query`.
    Query,
    /// `datanet plan --planner alg1|maxflow`.
    Plan(Planner),
    /// `datanet simulate --job topk --shuffle aware`.
    Simulate,
    /// `datanet pipeline --job wordcount`.
    Pipeline,
    /// `datanet ingest`.
    Ingest,
}

impl Command {
    const ALL: [Command; 6] = [
        Command::Query,
        Command::Plan(Planner::Alg1),
        Command::Plan(Planner::MaxFlow),
        Command::Simulate,
        Command::Pipeline,
        Command::Ingest,
    ];

    fn span(self) -> &'static str {
        match self {
            Command::Query => "op.query",
            Command::Plan(_) => "op.plan",
            Command::Simulate => "op.simulate",
            Command::Pipeline => "op.pipeline",
            Command::Ingest => "op.ingest",
        }
    }
}

/// Files of one scanned dataset.
struct Persisted {
    dataset: PathBuf,
    meta: [PathBuf; 2],
}

impl Persisted {
    fn new(dir: &Path) -> Self {
        Self {
            dataset: dir.join("movies.json"),
            meta: [dir.join("meta-a"), dir.join("meta-b")],
        }
    }

    fn meta(&self) -> [&Path; 2] {
        [&self.meta[0], &self.meta[1]]
    }
}

/// `datanet gen` + `datanet scan` for `ds` into `dir`.
fn persist(
    ds: &Dataset,
    dir: &Path,
    t: &mut Tracer,
) -> Result<(Persisted, cli::ScanOut), cli::Error> {
    std::fs::create_dir_all(dir)?;
    let p = Persisted::new(dir);
    cli::save(ds, &p.dataset, t)?;
    let scan = cli::scan(&p.dataset, &p.meta(), t)?;
    Ok((p, scan))
}

/// Sub-datasets ranked by record count, most popular first (ties by id).
pub fn ranked(ds: &Dataset) -> Vec<SubDatasetId> {
    let mut counts: BTreeMap<SubDatasetId, u64> = BTreeMap::new();
    for r in &ds.records {
        *counts.entry(r.subdataset).or_default() += 1;
    }
    let mut v: Vec<(SubDatasetId, u64)> = counts.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v.into_iter().map(|(s, _)| s).collect()
}

/// The checkable result of one command: a fingerprint of every
/// deterministic figure it prints, plus what the output check compares.
struct Answer {
    fingerprint: String,
    view: Option<(SubDatasetId, SubDatasetView)>,
    dataset: Option<Dataset>,
    simulate: Option<cli::SimulateOut>,
    ingest: Option<cli::IngestOut>,
}

fn run_command(
    cmd: Command,
    s: SubDatasetId,
    p: &Persisted,
    dirs: &[PathBuf; 2],
    t: &mut Tracer,
) -> Result<Answer, cli::Error> {
    let dirs = [dirs[0].as_path(), dirs[1].as_path()];
    let mut a = Answer {
        fingerprint: String::new(),
        view: None,
        dataset: None,
        simulate: None,
        ingest: None,
    };
    match cmd {
        Command::Query => {
            let q = cli::query(&p.dataset, &p.meta(), s, t)?;
            a.fingerprint = format!(
                "query {s}: {} blocks, est {}, actual {}, delta {}",
                q.view.block_count(),
                q.view.estimated_total(),
                q.actual,
                q.view.delta()
            );
            a.view = Some((s, q.view));
            a.dataset = Some(q.dataset);
        }
        Command::Plan(planner) => {
            let o = cli::plan(&p.dataset, &p.meta(), s, planner, t)?;
            a.fingerprint = format!(
                "plan {} {s}: digest {:#x}, imbalance {}, locality {}",
                planner.as_str(),
                o.digest,
                o.imbalance,
                o.locality
            );
            a.view = Some((s, o.view));
            a.dataset = Some(o.dataset);
        }
        Command::Simulate => {
            let o = cli::simulate(&p.dataset, s, t)?;
            a.fingerprint = format!("simulate {s}: {o:?}");
            a.simulate = Some(o);
        }
        Command::Pipeline => {
            let o = cli::pipeline(&p.dataset, s, &dirs, t)?;
            a.fingerprint = format!("pipeline {s}: {o:?}");
        }
        Command::Ingest => {
            let o = cli::ingest(&p.dataset, &dirs, t)?;
            a.fingerprint = format!("ingest: {o:?}");
            a.ingest = Some(o);
        }
    }
    Ok(a)
}

/// Run the workload.
///
/// # Errors
/// Set-up failures (the timed phase counts command errors as failed ops).
pub fn run(o: &Opts) -> Result<Outcome, cli::Error> {
    let mut out = Outcome::new(if o.trace { Tracer::on() } else { Tracer::off() });
    let gen_seed = mix(o.seed, 1);

    // Set-up, repeated; the last repetition's files serve the timed phase.
    let mut rep = 0;
    let (p, scan, ds) = set_up(
        &mut out,
        |t| {
            rep += 1;
            let ds = cli::gen_movies(RECORDS, NODES, BLOCK_KB, gen_seed, t);
            let (p, scan) = persist(&ds, &o.work.join(format!("setup-{rep}")), t)?;
            Ok::<_, cli::Error>((p, scan, ds))
        },
        |a, b| a.1 == b.1 && a.2 == b.2,
    )?;
    let decoded = cli::load(&p.dataset, &mut Tracer::off())?;
    out.check(decoded == ds, || {
        "dataset decode does not round-trip".into()
    });
    out.meta_bytes_per_mb = scan.disk_bytes as f64 / (scan.data_bytes as f64 / (1024.0 * 1024.0));
    out.values.insert("scan.accuracy", scan.accuracy);

    // In-memory reference for the store's answers.
    let reference = ElasticMapArray::build(
        &ds.to_dfs(&mut Tracer::off()),
        &Separation::Alpha(cli::ALPHA),
    );
    let subs = ranked(&ds);
    let picks = [subs[0], subs[subs.len() / 2], subs[subs.len() - 1]];
    let mut rotation: Vec<(Command, SubDatasetId)> = Command::ALL
        .iter()
        .flat_map(|&c| picks.iter().map(move |&s| (c, s)))
        .collect();
    shuffle(&mut rotation, mix(o.seed, 2));

    let full = ds.to_dfs(&mut Tracer::off());
    let mut prefix_views = BTreeMap::new();
    let mut fingerprints: Vec<Option<String>> = vec![None; rotation.len()];
    let (mut sims, mut ckpt_bytes, mut ingests) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut i = 0u64;
    while !timed_phase_over(o, start, i as usize) {
        let slot = (i as usize) % rotation.len();
        let (cmd, s) = rotation[slot];
        let dirs_of = |traced: bool| -> [PathBuf; 2] {
            let tag = if traced { "t" } else { "u" };
            [
                o.work.join(format!("out-{i}-{tag}-a")),
                o.work.join(format!("out-{i}-{tag}-b")),
            ]
        };
        let (untraced, traced) = paired_op(&mut out, i, cmd.span(), |t, traced| {
            run_command(cmd, s, &p, &dirs_of(traced), t)
        });
        out.attempted += 1;
        out.items += 1;
        for (traced, answer) in [(false, Some(untraced)), (true, traced)] {
            let Some(answer) = answer else { continue };
            let dirs = dirs_of(traced);
            match answer {
                Err(e) => {
                    out.failed += 1;
                    out.check(false, || format!("{cmd:?} on {s} failed: {e}"));
                }
                Ok(a) => {
                    check_answer(&mut out, &mut fingerprints[slot], &a, &ds, &reference);
                    if a.ingest.is_some() {
                        check_ingested(&mut out, &dirs, s, &full, &mut prefix_views);
                    }
                    // Per-layer figures come from the traced twin.
                    if traced || !out.tracer.is_on() {
                        let bytes = dir_bytes(&dirs[0]);
                        sims.extend(a.simulate);
                        if cmd == Command::Pipeline {
                            ckpt_bytes.push(bytes);
                        }
                        ingests.extend(a.ingest.map(|o| (o, bytes)));
                    }
                }
            }
            for d in &dirs {
                let _ = std::fs::remove_dir_all(d);
            }
        }
        i += 1;
    }

    if !sims.is_empty() {
        let n = sims.len() as f64;
        out.values.insert(
            "engine.improvement_pct",
            sims.iter().map(|s| s.improvement_pct).sum::<f64>() / n,
        );
        out.values.insert(
            "engine.sim_job_s",
            sims.iter().map(|s| s.with_secs).sum::<f64>() / n,
        );
        let hash: u64 = sims.iter().map(|s| s.hash_network_bytes).sum();
        let aware: u64 = sims.iter().map(|s| s.aware_network_bytes).sum();
        out.values
            .insert("shuffle.bytes_cut", hash as f64 / aware.max(1) as f64);
    }
    if !ckpt_bytes.is_empty() {
        out.values.insert(
            "pipeline.ckpt_bytes",
            ckpt_bytes.iter().sum::<u64>() as f64 / ckpt_bytes.len() as f64,
        );
    }
    // Every ingest of the same file is identical (checked above), so the
    // first one stands for all.
    if let Some((o, bytes)) = ingests.first() {
        out.values
            .insert("ingest.compactions", o.stats.compactions as f64);
        out.values
            .insert("ingest.redominated", o.stats.redominated as f64);
        out.values.insert(
            "ingest.bytes_per_block",
            *bytes as f64 / o.stats.appended_blocks as f64,
        );
    }
    if o.trace {
        scale_probes(o, &ds, &p, &mut out)?;
    }
    Ok(out)
}

/// Compare one answer with the reference and with the slot's earlier
/// answers.
fn check_answer(
    out: &mut Outcome,
    seen: &mut Option<String>,
    a: &Answer,
    ds: &Dataset,
    reference: &ElasticMapArray,
) {
    let first = seen.get_or_insert_with(|| a.fingerprint.clone());
    let same = *first == a.fingerprint;
    let first = first.clone();
    out.check(same, || {
        format!(
            "non-deterministic output: `{}` then `{}`",
            first, a.fingerprint
        )
    });
    if let Some(d) = &a.dataset {
        out.check(d == ds, || {
            "decoded dataset differs from the generated records".into()
        });
    }
    if let Some((s, view)) = &a.view {
        out.check(*view == reference.view(*s), || {
            format!("store view of {s} differs from the in-memory array")
        });
    }
}

/// Time-travel read-back of an ingested store: the view of `s` at the
/// middle and at the last durable epoch must equal a fresh scan of the
/// same block prefix (memoised in `prefix_views`).
fn check_ingested(
    out: &mut Outcome,
    dirs: &[PathBuf; 2],
    s: SubDatasetId,
    full: &Dfs,
    prefix_views: &mut BTreeMap<(usize, SubDatasetId), SubDatasetView>,
) {
    let refs = [dirs[0].as_path(), dirs[1].as_path()];
    let last = match MetaStore::open_replicated(&refs, 4) {
        Ok(store) => store.manifest().epoch,
        Err(e) => return out.check(false, || format!("ingested store does not open: {e}")),
    };
    for epoch in [last.div_ceil(2), last] {
        let read = MetaStore::open_replicated_at_epoch(&refs, epoch, 4).and_then(|mut store| {
            let blocks = store.manifest().blocks;
            Ok((blocks, store.view(s)?))
        });
        let (blocks, view) = match read {
            Ok(r) => r,
            Err(e) => {
                return out.check(false, || format!("read-back at epoch {epoch} failed: {e}"))
            }
        };
        let expect = prefix_views.entry((blocks, s)).or_insert_with(|| {
            let mut prefix = Dfs::empty(full.config().clone());
            for b in &full.blocks()[..blocks] {
                prefix.append_block(b.records().to_vec());
            }
            ElasticMapArray::build(&prefix, &Separation::Alpha(cli::ALPHA)).view(s)
        });
        out.check(view == *expect, || {
            format!(
                "read-back of {s} at epoch {epoch} differs from a fresh scan of {blocks} blocks"
            )
        });
    }
}

/// Decode, scan build and store view timed at 1× and 4× the records; the
/// ratios are host-independent (4 for a linear-time layer).
fn scale_probes(
    o: &Opts,
    ds: &Dataset,
    p: &Persisted,
    out: &mut Outcome,
) -> Result<(), cli::Error> {
    let t = &mut Tracer::off();
    let big = cli::gen_movies(RECORDS * 4, NODES, BLOCK_KB, ds.config.seed, t);
    let big_dir = o.work.join("scale-4x");
    std::fs::create_dir_all(&big_dir)?;
    let big_p = Persisted::new(&big_dir);
    cli::save(&big, &big_p.dataset, t)?;
    let small_dfs = ds.to_dfs(t);
    let big_dfs = big.to_dfs(t);
    let policy = Separation::Alpha(cli::ALPHA);
    let big_arr = ElasticMapArray::build(&big_dfs, &policy);
    MetaStore::save_replicated(&big_arr, &big_p.meta(), cli::SHARD_BLOCKS)?;

    let decode = |path: &Path, reps: usize| -> Result<f64, cli::Error> {
        let bytes = std::fs::read(path)?;
        let mut ms = Vec::new();
        for _ in 0..reps {
            let (r, m) = timed(|| serde_json::from_slice::<Dataset>(&bytes));
            r?;
            ms.push(m);
        }
        Ok(median(&ms))
    };
    let build = |dfs: &datanet_dfs::Dfs, reps: usize| {
        median(
            &(0..reps)
                .map(|_| timed(|| ElasticMapArray::build(dfs, &policy)).1)
                .collect::<Vec<_>>(),
        )
    };
    let view = |p: &Persisted, s: SubDatasetId, reps: usize| -> Result<f64, cli::Error> {
        let mut ms = Vec::new();
        for _ in 0..reps {
            let mut store = MetaStore::open_replicated(&p.meta(), 4)?;
            let (r, m) = timed(|| store.view(s));
            r?;
            ms.push(m);
        }
        Ok(median(&ms))
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let d = ratio(decode(&big_p.dataset, 1)?, decode(&p.dataset, 3)?);
    let b = ratio(build(&big_dfs, 3), build(&small_dfs, 5));
    let v = ratio(
        view(&big_p, ranked(&big)[0], 5)?,
        view(p, ranked(ds)[0], 5)?,
    );
    out.values.insert("serde_json.decode_scale_4x", d);
    out.values.insert("scan.build_scale_4x", b);
    out.values.insert("store.view_scale_4x", v);
    Ok(())
}
