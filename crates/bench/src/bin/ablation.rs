//! Ablation: where does DataNet's balance come from, and what does each
//! design choice cost?
//!
//! Compares, on the Figure 5 workload:
//! * Hadoop locality scheduling (baseline);
//! * Algorithm 1 with perfect meta-data (`Separation::All`);
//! * Algorithm 1 with the paper's α = 0.3 ElasticMap;
//! * Algorithm 1 with bloom-only meta-data (α = 0);
//! * the Ford–Fulkerson optimal plan with perfect meta-data.

use datanet::{ElasticMapArray, FordFulkersonPlanner, Separation};
use datanet_bench::{movie_dataset, Table, NODES};
use datanet_mapreduce::{
    DataNetScheduler, DelayScheduler, LocalityScheduler, PlannedScheduler, Run,
};

fn main() {
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let truth = dfs.subdataset_distribution(hot);
    let run = Run::default();

    let mut t = Table::new([
        "scheduler",
        "meta-data",
        "imbalance (max/avg)",
        "max/min",
        "gini",
        "locality",
        "blocks read",
    ]);

    let mut report = |name: &str, meta: &str, out: &datanet_mapreduce::SelectionOutcome| {
        let s = out.workload_summary();
        t.row([
            name.to_string(),
            meta.to_string(),
            format!("{:.3}", out.imbalance()),
            format!("{:.2}", s.spread_ratio().unwrap_or(f64::INFINITY)),
            format!("{:.3}", out.gini()),
            format!("{:.0}%", out.locality_fraction() * 100.0),
            out.total_tasks.to_string(),
        ]);
    };

    let mut base = LocalityScheduler::new(&dfs);
    let o = run.select(&dfs, &truth, &mut base);
    report("locality (Hadoop)", "none", &o);

    // Delay scheduling fixes locality, not distribution: same imbalance.
    let mut delay = DelayScheduler::new(&dfs, 3);
    let o = run.select(&dfs, &truth, &mut delay);
    report("delay scheduling", "none", &o);

    for (label, sep) in [
        ("exact (All)", Separation::All),
        ("alpha=0.3", Separation::Alpha(0.3)),
        ("bloom-only", Separation::BloomOnly),
    ] {
        let view = ElasticMapArray::build(&dfs, &sep).view(hot);
        let mut dn = DataNetScheduler::new(&dfs, &view);
        let o = run.select(&dfs, &truth, &mut dn);
        report("algorithm 1 (paced)", label, &o);
    }

    // The paper's literal best-fit-to-terminal-target rule, for contrast.
    let view = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3)).view(hot);
    let mut literal =
        DataNetScheduler::with_policy(&dfs, &view, datanet::BalancePolicy::BestFitTerminal);
    let o = run.select(&dfs, &truth, &mut literal);
    report("algorithm 1 (best-fit literal)", "alpha=0.3", &o);

    let view = ElasticMapArray::build(&dfs, &Separation::All).view(hot);
    let plan = FordFulkersonPlanner::new(&dfs, &view).plan();
    let mut ff = PlannedScheduler::new(&plan, dfs.namenode());
    let o = run.select(&dfs, &truth, &mut ff);
    report("ford-fulkerson", "exact (All)", &o);

    t.print();
}
