//! A MapReduce execution engine over the simulated cluster — the framework
//! substrate the paper's experiments run on.
//!
//! The paper's experimental pipeline (Section V-A) is reproduced end to end:
//!
//! Every run goes through one [`engine::Run`] context (phase configs,
//! optional fault injection, recorder); a healthy run is the fault-tolerant
//! event loop with no faults scripted.
//!
//! 1. **Selection** ([`Run::select`]): map tasks scan every
//!    in-scope block, filter the target sub-dataset and store it locally.
//!    Which node scans which block is decided by a pluggable
//!    [`scheduler::MapScheduler`]:
//!    [`scheduler::LocalityScheduler`] (Hadoop's block-locality default,
//!    the paper's "without DataNet"),
//!    [`scheduler::DataNetScheduler`] (Algorithm 1, "with DataNet"),
//!    [`scheduler::PlannedScheduler`] (any precomputed assignment, e.g.
//!    Ford–Fulkerson).
//! 2. **Analysis** ([`Run::analyze`]): a MapReduce job
//!    ([`job::JobProfile`]) runs over the filtered per-node partitions —
//!    map (disk + job-specific CPU), shuffle (all-to-all transfers over the
//!    simulated NICs), reduce. The report records per-node map times,
//!    per-reducer shuffle times and the makespan — Figures 5, 6 and 7.
//!    [`Run::analyze_shuffled`] routes the same job through a
//!    distribution-aware [`shuffle::ShufflePlan`], and [`Run::pipeline`]
//!    chains both phases on one simulated timeline.
//! 3. **SkewTune-like baseline** ([`skewtune`]): the runtime-migration
//!    alternative the paper discusses (Section V-A-4) — rebalance the
//!    filtered partitions after selection and account the network cost.

pub mod engine;
pub mod job;
pub mod report;
pub mod scheduler;
pub mod shuffle;
pub mod skewtune;
pub mod speculation;

pub use engine::{
    capability_of, planned_makespan, run_analysis_shuffled, run_pipeline, AnalysisConfig,
    FaultConfig, Run, SelectionConfig,
};
pub use job::JobProfile;
pub use report::{
    total_secs, ExecutionReport, FaultStats, JobReport, SelectionOutcome, ShuffleOutcome,
};
pub use scheduler::{
    DataNetScheduler, DelayScheduler, LocalityScheduler, MapScheduler, PlannedScheduler,
    ResilientScheduler,
};
pub use shuffle::{
    key_range_of, planned_load_bound, range_matrix_estimate, range_matrix_truth, Fragment,
    ShufflePlan, ShufflePlanner,
};
pub use skewtune::{
    apportion, fragments_needed, rebalance, split_even, split_threshold, MigrationOutcome,
};
pub use speculation::{
    speculative_map_phase, speculative_map_phase_with_slowdowns, SpeculationConfig,
    SpeculativeMapOutcome,
};
