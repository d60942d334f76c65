//! The DataNet benchmark: two workloads that time the user paths of the
//! system end to end, with per-layer attribution from a separate traced
//! run. `README.md` in this directory describes the workloads, metrics
//! and sizes; `src/main.rs` is the command the benchmark runs.

pub mod cli;
pub mod cold;
pub mod stats;
pub mod trace;
pub mod warm;

use std::collections::BTreeMap;
use std::path::PathBuf;
use trace::Tracer;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 2] = ["cold-analysis", "warm-serve"];

/// Set-up runs at least this many times, and until [`SETUP_SECS`] have
/// passed; `setup_s` is the median repetition.
pub const SETUPS: usize = 3;

/// Minimum total set-up time per run, seconds.
pub const SETUP_SECS: f64 = 3.0;

/// An untraced run keeps timing operations past `--seconds` until it has
/// this many, so that ten samples lie beyond `op_p90_ms`.
pub const MIN_OPS: usize = 100;

/// End-to-end metrics (name, unit), printed by every untraced run.
///
/// Operation latency is gated at p90 only. On a shared host the CPU
/// alternates every few seconds between speeds up to 1.7× apart, so a
/// run's median (and mean, and p10) depends on how much of the run fell
/// into slow periods and moved by a quarter to a third from run to run;
/// the slow-period ceiling recurs in every run and p90 stayed within
/// about a tenth. The report still prints p10 and the median.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("meta_bytes_per_mb", "B/MB"),
];

/// How a per-layer metric is derived from a traced run.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// Mean self time per call of the named span, in milliseconds.
    SelfMs(&'static str),
    /// Mean self time per call of the named span, in microseconds.
    SelfUs(&'static str),
    /// A value the workload measured directly, or one derived from the
    /// spans (trace overhead, attributed share, decode rate).
    Value(&'static str),
}

/// Per-layer metrics (name, unit, source), printed by every traced run.
/// A layer a workload never calls reads 0 there.
pub const PER_LAYER: [(&str, &str, Source); 38] = [
    ("io.read_ms", "ms", Source::SelfMs("io.read")),
    (
        "serde_json.decode_ms",
        "ms",
        Source::SelfMs("serde_json.decode"),
    ),
    (
        "serde_json.decode_mb_per_s",
        "MB/s",
        Source::Value("serde_json.decode_mb_per_s"),
    ),
    (
        "serde_json.decode_scale_4x",
        "ratio",
        Source::Value("serde_json.decode_scale_4x"),
    ),
    (
        "serde_json.encode_ms",
        "ms",
        Source::SelfMs("serde_json.encode"),
    ),
    ("workloads.gen_ms", "ms", Source::SelfMs("workloads.gen")),
    ("dfs.write_ms", "ms", Source::SelfMs("dfs.write")),
    ("scan.build_ms", "ms", Source::SelfMs("scan.build")),
    (
        "scan.build_scale_4x",
        "ratio",
        Source::Value("scan.build_scale_4x"),
    ),
    ("scan.accuracy", "ratio", Source::Value("scan.accuracy")),
    ("store.save_ms", "ms", Source::SelfMs("store.save")),
    ("store.open_ms", "ms", Source::SelfMs("store.open")),
    ("store.view_ms", "ms", Source::SelfMs("store.view")),
    (
        "store.view_scale_4x",
        "ratio",
        Source::Value("store.view_scale_4x"),
    ),
    ("planner.alg1_ms", "ms", Source::SelfMs("planner.alg1")),
    (
        "planner.maxflow_ms",
        "ms",
        Source::SelfMs("planner.maxflow"),
    ),
    ("planner.batch_ms", "ms", Source::SelfMs("planner.batch")),
    (
        "engine.pipeline_ms",
        "ms",
        Source::SelfMs("engine.pipeline"),
    ),
    (
        "engine.improvement_pct",
        "%",
        Source::Value("engine.improvement_pct"),
    ),
    ("engine.sim_job_s", "s", Source::Value("engine.sim_job_s")),
    ("shuffle.plan_ms", "ms", Source::SelfMs("shuffle.plan")),
    (
        "shuffle.bytes_cut",
        "ratio",
        Source::Value("shuffle.bytes_cut"),
    ),
    ("pipeline.run_ms", "ms", Source::SelfMs("pipeline.run")),
    (
        "pipeline.ckpt_bytes",
        "B",
        Source::Value("pipeline.ckpt_bytes"),
    ),
    ("ingest.append_us", "us", Source::SelfUs("ingest.append")),
    (
        "ingest.commit_plan_ms",
        "ms",
        Source::SelfMs("ingest.commit_plan"),
    ),
    ("ingest.apply_ms", "ms", Source::SelfMs("ingest.apply")),
    (
        "ingest.compactions",
        "count",
        Source::Value("ingest.compactions"),
    ),
    (
        "ingest.redominated",
        "count",
        Source::Value("ingest.redominated"),
    ),
    (
        "ingest.bytes_per_block",
        "B",
        Source::Value("ingest.bytes_per_block"),
    ),
    ("serve.call_ms", "ms", Source::SelfMs("serve.call")),
    (
        "serve.cache_hit_frac",
        "ratio",
        Source::Value("serve.cache_hit_frac"),
    ),
    ("serve.apply_ms", "ms", Source::SelfMs("serve.apply")),
    ("serve.rejected", "count", Source::Value("serve.rejected")),
    ("serve.shed", "count", Source::Value("serve.shed")),
    ("serve.sim_p99_ms", "ms", Source::Value("serve.sim_p99_ms")),
    (
        "bench.trace_overhead_frac",
        "ratio",
        Source::Value("bench.trace_overhead_frac"),
    ),
    (
        "bench.attributed_frac",
        "ratio",
        Source::Value("bench.attributed_frac"),
    ),
];

/// Name prefix of the span around each timed operation. Layer spans
/// nest inside it; its own self time is what no layer span covers.
pub const OP_PREFIX: &str = "op.";

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Traced run: every operation runs once untraced and once traced.
    pub trace: bool,
    /// Scratch directory for dataset files and stores.
    pub work: PathBuf,
}

/// What a workload run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Wall seconds of each set-up repetition.
    pub setup_secs: Vec<f64>,
    /// Wall milliseconds of each untraced timed operation.
    pub op_ms: Vec<f64>,
    /// Wall milliseconds of each traced operation (traced runs only),
    /// paired with `op_ms`.
    pub traced_op_ms: Vec<f64>,
    /// Items completed by the untraced operations (commands, queries or
    /// blocks).
    pub items: u64,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that returned an error or were refused.
    pub failed: u64,
    /// Meta-data bytes per MB of data.
    pub meta_bytes_per_mb: f64,
    /// Per-layer values measured directly (see [`Source::Value`]).
    pub values: BTreeMap<&'static str, f64>,
    /// Output-check failures; empty when every output was correct.
    pub errors: Vec<String>,
    /// The traced run's spans (empty when untraced).
    pub tracer: Tracer,
}

impl Outcome {
    /// An empty outcome recording into `tracer`.
    pub fn new(tracer: Tracer) -> Self {
        Self {
            setup_secs: Vec::new(),
            op_ms: Vec::new(),
            traced_op_ms: Vec::new(),
            items: 0,
            attempted: 0,
            failed: 0,
            meta_bytes_per_mb: 0.0,
            values: BTreeMap::new(),
            errors: Vec::new(),
            tracer,
        }
    }

    /// Record an output-check failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.errors.len() < 32 {
            self.errors.push(what());
        }
    }

    /// Items per wall second of the untraced operations.
    pub fn throughput(&self) -> f64 {
        let secs: f64 = self.op_ms.iter().sum::<f64>() / 1e3;
        if secs > 0.0 {
            self.items as f64 / secs
        } else {
            0.0
        }
    }

    /// Traced minus untraced operation time, as a share of untraced.
    pub fn trace_overhead(&self) -> f64 {
        let u: f64 = self.op_ms.iter().sum();
        let t: f64 = self.traced_op_ms.iter().sum();
        if u > 0.0 {
            (t - u) / u
        } else {
            0.0
        }
    }

    /// Every per-layer metric of [`PER_LAYER`], in order.
    pub fn per_layer(&self) -> Vec<(&'static str, &'static str, f64)> {
        let totals = self.tracer.totals();
        let mean = |span: &str, scale: f64| {
            totals
                .get(span)
                .map_or(0.0, |t| t.self_ns as f64 / t.calls as f64 / scale)
        };
        let mut values = self.values.clone();
        values.insert("bench.trace_overhead_frac", self.trace_overhead());
        let (total, own) = totals
            .iter()
            .filter(|(n, _)| n.starts_with(OP_PREFIX))
            .fold((0, 0), |(a, b), (_, t)| (a + t.total_ns, b + t.self_ns));
        values.insert(
            "bench.attributed_frac",
            1.0 - own as f64 / total.max(1) as f64,
        );
        if let Some(t) = totals.get("serde_json.decode") {
            let mib = self.tracer.counter("serde_json.decode_bytes") as f64 / (1024.0 * 1024.0);
            values.insert("serde_json.decode_mb_per_s", mib / (t.self_ns as f64 / 1e9));
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit, src)| {
                let v = match src {
                    Source::SelfMs(s) => mean(s, 1e6),
                    Source::SelfUs(s) => mean(s, 1e3),
                    Source::Value(key) => values.get(key).copied().unwrap_or(0.0),
                };
                (name, unit, v)
            })
            .collect()
    }
}

/// Run the workload's set-up `f` repeatedly (see [`SETUPS`]), recording
/// each repetition's wall time and checking that every repetition built
/// the same thing as the first. Returns the last repetition's result.
///
/// # Errors
/// The first error `f` returns.
pub fn set_up<T, E>(
    out: &mut Outcome,
    mut f: impl FnMut(&mut Tracer) -> Result<T, E>,
    same: impl Fn(&T, &T) -> bool,
) -> Result<T, E> {
    let start = std::time::Instant::now();
    let (first, ms) = timed(|| f(&mut out.tracer));
    let first = first?;
    out.setup_secs.push(ms / 1e3);
    let mut last = None;
    while out.setup_secs.len() < SETUPS || start.elapsed().as_secs_f64() < SETUP_SECS {
        let (r, ms) = timed(|| f(&mut out.tracer));
        let r = r?;
        out.setup_secs.push(ms / 1e3);
        let k = out.setup_secs.len();
        out.check(same(&first, &r), || {
            format!("set-up repetition {k} built different inputs")
        });
        last = Some(r);
    }
    Ok(last.unwrap_or(first))
}

/// Whether the timed phase that started at `start` is over after `ops`
/// operations.
pub fn timed_phase_over(o: &Opts, start: std::time::Instant, ops: usize) -> bool {
    start.elapsed().as_secs_f64() >= o.seconds && (o.trace || ops >= MIN_OPS)
}

/// Run `f`, returning its result and its wall time in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// One timed operation: untraced in an untraced run; in a traced run,
/// once untraced and once traced (alternating which goes first, so drift
/// cancels), both recorded. Returns the untraced result and, in a traced
/// run, the traced one.
pub fn paired_op<T>(
    out: &mut Outcome,
    index: u64,
    kind: &'static str,
    mut op: impl FnMut(&mut Tracer, bool) -> T,
) -> (T, Option<T>) {
    if !out.tracer.is_on() {
        let (r, ms) = timed(|| op(&mut Tracer::off(), false));
        out.op_ms.push(ms);
        return (r, None);
    }
    let traced_first = index % 2 == 1;
    let (mut untraced, mut traced) = (None, None);
    for pass in 0..2 {
        if (pass == 0) == traced_first {
            out.tracer.set_op(index + 1);
            let tracer = &mut out.tracer;
            let (r, ms) = timed(|| tracer.span(kind, |t| op(t, true)));
            out.tracer.set_op(0);
            out.traced_op_ms.push(ms);
            traced = Some(r);
        } else {
            let (r, ms) = timed(|| op(&mut Tracer::off(), false));
            out.op_ms.push(ms);
            untraced = Some(r);
        }
    }
    (untraced.expect("both passes ran"), traced)
}
