//! In-process equivalents of the `datanet-cli` commands the benchmark
//! times: `gen movies`, `scan`, `query`, `plan`, `simulate --shuffle
//! aware`, `pipeline` and `ingest`.
//!
//! Each function makes the same public calls, in the same order, as the
//! command of the same name in `crates/datanet-cli/src/commands.rs`, with
//! the program's recorder off. The commands share no state: every one
//! re-reads and decodes the dataset file, rebuilds the DFS and opens the
//! store, as a fresh `datanet-cli` process does. Instead of printing, each
//! returns the figures the command prints, so the benchmark can check
//! them and `tests/cli_parity.rs` can compare them with the real binary.
//!
//! Every call into a layer is wrapped in a [`Tracer`] span named after
//! the layer.

use crate::trace::Tracer;
use datanet::{
    Algorithm1, ElasticMapArray, FordFulkersonPlanner, IngestConfig, IngestStats, Ingestor,
    MetaStore, Separation, SubDatasetView,
};
use datanet_analytics::{top_k_profile, word_count_pipeline, Pipeline, PipelineEnv};
use datanet_dfs::{Dfs, DfsConfig, NodeId, Record, SubDatasetId, Topology};
use datanet_mapreduce::{
    range_matrix_estimate, range_matrix_truth, run_analysis_shuffled, run_pipeline, AnalysisConfig,
    DataNetScheduler, LocalityScheduler, SelectionConfig, ShufflePlan, ShufflePlanner,
};
use datanet_obs::Recorder;
use datanet_workloads::MoviesConfig;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Error of one command.
pub type Error = Box<dyn std::error::Error>;

/// ElasticMap separation the CLI uses by default (`--alpha 0.3`).
pub const ALPHA: f64 = 0.3;

/// Blocks per store shard the CLI uses by default (`--shard-blocks 64`).
pub const SHARD_BLOCKS: usize = 64;

/// Shards the CLI's `query` and `plan` keep cached.
const CACHE_SHARDS: usize = 4;

/// Key ranges and split factor of `--shuffle aware` at the CLI defaults.
const KEY_RANGES: usize = 32;
const SPLIT_FACTOR: f64 = 1.25;

/// The dataset file `datanet gen` writes: same fields, same order, so the
/// JSON is byte-identical to the CLI's.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// The generator that produced it.
    pub generator: String,
    /// DFS layout parameters.
    pub config: DfsConfig,
    /// The record stream in write order.
    pub records: Vec<Record>,
}

impl Dataset {
    /// Rebuild the DFS the file describes.
    pub fn to_dfs(&self, t: &mut Tracer) -> Dfs {
        t.span("dfs.write", |_| {
            Dfs::write_random(self.config.clone(), self.records.iter().copied())
        })
    }
}

/// `datanet gen movies --records N --nodes N --block-kb N --seed S`,
/// without the file write.
pub fn gen_movies(records: usize, nodes: u32, block_kb: u64, seed: u64, t: &mut Tracer) -> Dataset {
    let records = t.span("workloads.gen", |_| {
        MoviesConfig {
            records,
            seed,
            ..Default::default()
        }
        .generate()
        .0
    });
    Dataset {
        generator: "movies".to_string(),
        config: DfsConfig {
            block_size: block_kb * 1024,
            replication: 3,
            topology: Topology::single_rack(nodes),
            seed,
        },
        records,
    }
}

/// Encode and write a dataset file (the tail of `datanet gen`). Returns
/// the bytes written.
///
/// # Errors
/// Filesystem or encoding failures.
pub fn save(ds: &Dataset, path: &Path, t: &mut Tracer) -> Result<u64, Error> {
    let bytes = t.span("serde_json.encode", |_| serde_json::to_vec(ds))?;
    t.span("io.write", |_| std::fs::write(path, &bytes))?;
    Ok(bytes.len() as u64)
}

/// Read and decode a dataset file, as every command starts.
///
/// # Errors
/// Filesystem or decoding failures.
pub fn load(path: &Path, t: &mut Tracer) -> Result<Dataset, Error> {
    let bytes = t.span("io.read", |_| std::fs::read(path))?;
    t.count("serde_json.decode_bytes", bytes.len() as u64);
    Ok(t.span("serde_json.decode", |_| serde_json::from_slice(&bytes))?)
}

/// What `datanet scan` prints.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanOut {
    /// Blocks scanned.
    pub blocks: usize,
    /// Meta-data bytes in the primary replica.
    pub disk_bytes: u64,
    /// Raw data bytes.
    pub data_bytes: u64,
    /// Estimation accuracy χ in `[0, 1]`.
    pub accuracy: f64,
}

/// `datanet scan --dataset FILE --meta DIR,DIR`.
///
/// # Errors
/// Filesystem, decoding or store failures.
pub fn scan(dataset: &Path, meta: &[&Path], t: &mut Tracer) -> Result<ScanOut, Error> {
    let ds = load(dataset, t)?;
    let dfs = ds.to_dfs(t);
    let arr = t.span("scan.build", |_| {
        ElasticMapArray::build(&dfs, &Separation::Alpha(ALPHA))
    });
    t.span("store.save", |_| {
        MetaStore::save_replicated(&arr, meta, SHARD_BLOCKS)
    })?;
    let store = t.span("store.open", |_| MetaStore::open_replicated(meta, 1))?;
    let disk_bytes = t.span("store.disk_bytes", |_| store.disk_bytes())?;
    let accuracy = t.span("scan.accuracy", |_| arr.accuracy(&dfs));
    Ok(ScanOut {
        blocks: arr.len(),
        disk_bytes,
        data_bytes: dfs.total_bytes(),
        accuracy,
    })
}

/// What `datanet query` prints, plus the decoded dataset and the view for
/// the benchmark's output check.
#[derive(Debug, Clone)]
pub struct QueryOut {
    /// The view the store answered.
    pub view: SubDatasetView,
    /// Actual bytes of the sub-dataset in the DFS.
    pub actual: u64,
    /// The decoded dataset file.
    pub dataset: Dataset,
}

/// `datanet query --dataset FILE --meta DIR,DIR --subdataset ID`.
///
/// # Errors
/// Filesystem, decoding or store failures.
pub fn query(
    dataset: &Path,
    meta: &[&Path],
    s: SubDatasetId,
    t: &mut Tracer,
) -> Result<QueryOut, Error> {
    let ds = load(dataset, t)?;
    let mut store = t.span("store.open", |_| {
        MetaStore::open_replicated(meta, CACHE_SHARDS)
    })?;
    let view = t.span("store.view", |_| store.view(s))?;
    let dfs = ds.to_dfs(t);
    Ok(QueryOut {
        view,
        actual: dfs.subdataset_total(s),
        dataset: ds,
    })
}

/// Which planner `datanet plan --planner` selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Planner {
    /// `alg1`: the paper's Algorithm 1.
    Alg1,
    /// `maxflow`: the Ford–Fulkerson planner.
    MaxFlow,
}

impl Planner {
    /// The `--planner` value.
    pub fn as_str(self) -> &'static str {
        match self {
            Planner::Alg1 => "alg1",
            Planner::MaxFlow => "maxflow",
        }
    }
}

/// What `datanet plan` prints, plus the view and the plan's digest.
#[derive(Debug, Clone)]
pub struct PlanOut {
    /// Blocks assigned to a task.
    pub tasks: usize,
    /// Nodes of the plan.
    pub nodes: usize,
    /// Max/mean node workload.
    pub imbalance: f64,
    /// Fraction of tasks on a node holding a replica.
    pub locality: f64,
    /// Per-node assigned bytes.
    pub workloads: Vec<u64>,
    /// Digest of the whole plan.
    pub digest: u64,
    /// The view the store answered.
    pub view: SubDatasetView,
    /// The decoded dataset file.
    pub dataset: Dataset,
}

/// `datanet plan --dataset FILE --meta DIR,DIR --subdataset ID --planner P`.
///
/// # Errors
/// Filesystem, decoding or store failures.
pub fn plan(
    dataset: &Path,
    meta: &[&Path],
    s: SubDatasetId,
    planner: Planner,
    t: &mut Tracer,
) -> Result<PlanOut, Error> {
    let ds = load(dataset, t)?;
    let mut store = t.span("store.open", |_| {
        MetaStore::open_replicated(meta, CACHE_SHARDS)
    })?;
    let view = t.span("store.view", |_| store.view(s))?;
    let dfs = ds.to_dfs(t);
    let plan = match planner {
        Planner::Alg1 => t.span("planner.alg1", |_| {
            Algorithm1::new(&dfs, &view).plan_balanced()
        }),
        Planner::MaxFlow => t.span("planner.maxflow", |_| {
            FordFulkersonPlanner::new(&dfs, &view).plan()
        }),
    };
    Ok(PlanOut {
        tasks: plan.assigned_blocks(),
        nodes: plan.node_count(),
        imbalance: plan.imbalance(),
        locality: plan.locality_fraction(),
        workloads: plan.workloads().to_vec(),
        digest: datanet_serve::plan_digest(&plan),
        view,
        dataset: ds,
    })
}

/// What `datanet simulate --job topk --shuffle aware` prints.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateOut {
    /// Simulated seconds without DataNet (locality scheduler).
    pub without_secs: f64,
    /// Simulated seconds with DataNet.
    pub with_secs: f64,
    /// `100 × (1 − with/without)`.
    pub improvement_pct: f64,
    /// Shuffle bytes over the network under hash partitioning.
    pub hash_network_bytes: u64,
    /// Shuffle bytes over the network under the aware partitioner.
    pub aware_network_bytes: u64,
}

/// `datanet simulate --dataset FILE --subdataset ID --job topk --shuffle aware`.
///
/// # Errors
/// Filesystem or decoding failures.
pub fn simulate(dataset: &Path, s: SubDatasetId, t: &mut Tracer) -> Result<SimulateOut, Error> {
    let ds = load(dataset, t)?;
    let job = top_k_profile();
    let dfs = ds.to_dfs(t);
    let sel = SelectionConfig::default();
    let ana = AnalysisConfig::default();
    let without = t.span("engine.pipeline", |_| {
        let mut base = LocalityScheduler::new(&dfs);
        run_pipeline(&dfs, s, &mut base, &job, &sel, &ana)
    });
    let view = t.span("scan.build", |_| {
        ElasticMapArray::build(&dfs, &Separation::Alpha(ALPHA)).view(s)
    });
    let with = t.span("engine.pipeline", |_| {
        let mut dn = DataNetScheduler::new(&dfs, &view);
        run_pipeline(&dfs, s, &mut dn, &job, &sel, &ana)
    });
    let (hash, aware) = t.span("shuffle.plan", |_| {
        let est = range_matrix_estimate(&dfs, &view, KEY_RANGES);
        let truth = range_matrix_truth(&dfs, s, KEY_RANGES);
        let m = truth.len();
        let aware = ShufflePlanner::new(SPLIT_FACTOR).plan(&est);
        let hash = ShufflePlan::hash(KEY_RANGES, (0..m as u32).map(NodeId).collect());
        (
            run_analysis_shuffled(&truth, &job, &ana, &hash).network_bytes,
            run_analysis_shuffled(&truth, &job, &ana, &aware).network_bytes,
        )
    });
    Ok(SimulateOut {
        without_secs: without.total_secs(),
        with_secs: with.total_secs(),
        improvement_pct: 100.0 * (1.0 - with.total_secs() / without.total_secs()),
        hash_network_bytes: hash,
        aware_network_bytes: aware,
    })
}

/// What `datanet pipeline --job wordcount` prints.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineOut {
    /// Stages executed.
    pub stages: usize,
    /// Output records.
    pub records: u64,
    /// Output aggregates.
    pub aggregates: usize,
    /// Output digest.
    pub digest: u32,
}

/// `datanet pipeline --dataset FILE --subdataset ID --ckpt DIR,DIR --job wordcount`.
///
/// # Errors
/// Filesystem, decoding or checkpoint failures.
pub fn pipeline(
    dataset: &Path,
    s: SubDatasetId,
    ckpt: &[&Path],
    t: &mut Tracer,
) -> Result<PipelineOut, Error> {
    let ds = load(dataset, t)?;
    let dfs = ds.to_dfs(t);
    let arr = t.span("scan.build", |_| {
        ElasticMapArray::build(&dfs, &Separation::Alpha(ALPHA))
    });
    let mut env = PipelineEnv::new(&dfs, &arr);
    let pipe = Pipeline::new(word_count_pipeline(s));
    let report = t.span("pipeline.run", |_| {
        pipe.run(&mut env, ckpt, &Recorder::off())
    })?;
    Ok(PipelineOut {
        stages: report.stages.len(),
        records: report.output.records,
        aggregates: report.output.aggregates.len(),
        digest: report.output.digest,
    })
}

/// What `datanet ingest` prints.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestOut {
    /// Session totals (blocks, records, bytes, compactions, demotions,
    /// epochs).
    pub stats: IngestStats,
    /// The last durable epoch.
    pub epoch: u64,
}

/// `datanet ingest --dataset FILE --meta DIR,DIR`: stream the dataset's
/// blocks into an [`Ingestor`], committing every [`SHARD_BLOCKS`] blocks
/// and once at the end. A commit is the three calls `Ingestor::commit`
/// makes, each in its own span.
///
/// # Errors
/// Filesystem, decoding or store failures.
pub fn ingest(dataset: &Path, meta: &[&Path], t: &mut Tracer) -> Result<IngestOut, Error> {
    let ds = load(dataset, t)?;
    let mut ing = Ingestor::new(IngestConfig {
        policy: Separation::Alpha(ALPHA),
        compact_every: SHARD_BLOCKS,
        shard_blocks: SHARD_BLOCKS,
    });
    let dfs = ds.to_dfs(t);
    let commit = |ing: &mut Ingestor, t: &mut Tracer| -> Result<(), Error> {
        if let Some(plan) = t.span("ingest.commit_plan", |_| ing.commit_plan()) {
            t.span("ingest.apply", |_| {
                plan.apply(meta)?;
                ing.mark_durable(&plan);
                Ok::<_, datanet::StoreError>(())
            })?;
        }
        Ok(())
    };
    for (k, b) in dfs.blocks().iter().enumerate() {
        t.span("ingest.append", |_| ing.append(b, k as u64 * 1_000));
        if (k + 1) % SHARD_BLOCKS == 0 {
            commit(&mut ing, t)?;
        }
    }
    commit(&mut ing, t)?;
    Ok(IngestOut {
        stats: ing.stats().clone(),
        epoch: ing.durable_epoch(),
    })
}
