//! Reproducibility: the whole stack — generators, DFS placement, scan,
//! scheduling, simulation — is exactly deterministic under fixed seeds.

use datanet::{ElasticMapArray, MetaStore, Separation};
use datanet_analytics::profiles::word_count_profile;
use datanet_bench::{github_dataset, movie_dataset, NODES};
use datanet_cluster::{FaultPlan, SimTime};
use datanet_mapreduce::{
    run_pipeline, AnalysisConfig, DataNetScheduler, FaultConfig, LocalityScheduler, Run,
    SelectionConfig,
};
use datanet_obs::{Recorder, TraceData};

#[test]
fn movie_pipeline_is_bitwise_reproducible() {
    let run = || {
        let (dfs, catalog) = movie_dataset(NODES);
        let hot = catalog.most_reviewed();
        let mut sched = LocalityScheduler::new(&dfs);
        run_pipeline(
            &dfs,
            hot,
            &mut sched,
            &word_count_profile(),
            &SelectionConfig::default(),
            &AnalysisConfig::default(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn datanet_pipeline_is_bitwise_reproducible() {
    let run = || {
        let (dfs, catalog) = movie_dataset(NODES);
        let hot = catalog.most_reviewed();
        let view = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3)).view(hot);
        let mut sched = DataNetScheduler::new(&dfs, &view);
        run_pipeline(
            &dfs,
            hot,
            &mut sched,
            &word_count_profile(),
            &SelectionConfig::default(),
            &AnalysisConfig::default(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn parallel_scan_is_deterministic() {
    // Rayon parallelism must not leak into results: parallel and sequential
    // builds answer every query identically and occupy the same memory.
    // (HashMap iteration order is instance-specific, so we compare
    // semantics, not serialised bytes.)
    let (dfs, catalog) = movie_dataset(NODES);
    let par = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));
    let seq = ElasticMapArray::build_sequential(&dfs, &Separation::Alpha(0.3));
    assert_eq!(par.len(), seq.len());
    assert_eq!(par.memory_bytes(), seq.memory_bytes());
    for (movie, _) in catalog.by_size_desc().into_iter().take(200) {
        for b in dfs.blocks() {
            assert_eq!(par.query(b.id(), movie), seq.query(b.id(), movie));
        }
        assert_eq!(par.view(movie), seq.view(movie));
    }
}

// ---------------------------------------------------------------------------
// Traced twins: every `Run` entry point must be observation-transparent. The
// recorder may watch, but never steer — results are bit-identical whether
// tracing is disabled (`Recorder::off()`) or active; and an active recorder
// closes every span it opens.

/// Runs `call` on `base` with the recorder off and then on, asserts both
/// results are identical and every span closed, and returns the untraced
/// result with the live trace.
fn twin<T: PartialEq + std::fmt::Debug>(base: Run, call: impl Fn(&Run) -> T) -> (T, TraceData) {
    let off = call(&Run {
        rec: Recorder::off(),
        ..base.clone()
    });
    let traced = Run {
        rec: Recorder::new(),
        ..base
    };
    assert_eq!(off, call(&traced), "tracing perturbed the run");
    let trace = traced.rec.take();
    assert_eq!(trace.unclosed_spans(), 0);
    (off, trace)
}

#[test]
fn traced_selection_twin_matches_untraced() {
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let truth = dfs.subdataset_distribution(hot);
    let (_, trace) = twin(Run::default(), |run| {
        run.select(&dfs, &truth, &mut LocalityScheduler::new(&dfs))
    });
    assert!(trace.sim_end_us() > 0, "an active recorder saw the run");
    // A healthy run reports no fault counters.
    let counters: Vec<&str> = trace.counters.keys().map(String::as_str).collect();
    assert_eq!(
        counters,
        [
            "bytes_read",
            "local_tasks",
            "remote_tasks",
            "tasks_executed"
        ]
    );
}

#[test]
fn traced_pipeline_twin_matches_untraced() {
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));
    let view = arr.view(hot);
    let sched = || DataNetScheduler::new(&dfs, &view);
    let (plain, _) = twin(Run::default(), |run| {
        run.pipeline(&dfs, hot, &mut sched(), &word_count_profile())
    });
    // The kept shorthand is the same healthy, untraced run.
    let job = word_count_profile();
    let (sel, ana) = (SelectionConfig::default(), AnalysisConfig::default());
    assert_eq!(
        plain,
        run_pipeline(&dfs, hot, &mut sched(), &job, &sel, &ana)
    );
}

#[test]
fn traced_faulty_selection_twin_matches_untraced() {
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let truth = dfs.subdataset_distribution(hot);
    let faults = FaultConfig::new(
        FaultPlan::none(NODES as usize)
            .crash(1, SimTime::from_micros(5_000))
            .slow(
                2,
                SimTime::from_micros(0),
                SimTime::from_micros(50_000),
                3.0,
            ),
    );
    let base = Run {
        faults: Some(&faults),
        ..Run::default()
    };
    let (plain, _) = twin(base, |run| {
        run.select(&dfs, &truth, &mut LocalityScheduler::new(&dfs))
    });
    assert_eq!(
        plain.faults.crashed_nodes,
        vec![1],
        "the scripted crash must actually fire"
    );
}

#[test]
fn traced_faulty_pipeline_twin_matches_untraced() {
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let faults =
        FaultConfig::new(FaultPlan::none(NODES as usize).crash(2, SimTime::from_micros(8_000)));
    let base = Run {
        faults: Some(&faults),
        ..Run::default()
    };
    twin(base, |run| {
        let mut sched = LocalityScheduler::new(&dfs);
        run.pipeline(&dfs, hot, &mut sched, &word_count_profile())
    });
}

#[test]
fn traced_resilient_selection_twin_matches_untraced() {
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));
    let base = std::env::temp_dir().join(format!("datanet-det-twin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let dirs = [base.join("a"), base.join("b")];
    let refs: Vec<&std::path::Path> = dirs.iter().map(|d| d.as_path()).collect();
    MetaStore::save_replicated(&arr, &refs, 8).expect("save");
    // Each run opens its own store: reads populate the shard cache, so a
    // shared handle would not be a fair twin comparison.
    twin(Run::default(), |run| {
        let mut store = MetaStore::open_replicated(&refs, 2).expect("open");
        run.select_resilient(&dfs, hot, &mut store)
    });
    std::fs::remove_dir_all(&base).expect("cleanup");
}

#[test]
fn github_dataset_is_reproducible() {
    let a = github_dataset(NODES);
    let b = github_dataset(NODES);
    assert_eq!(a.namenode(), b.namenode());
    assert_eq!(a.total_bytes(), b.total_bytes());
    for (ba, bb) in a.blocks().iter().zip(b.blocks()) {
        assert_eq!(ba, bb);
    }
}
