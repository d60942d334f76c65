//! Figure 10 — degree of balanced computing vs α.
//!
//! Sweeps the hash-map fraction α from 10% to 100% and reports the
//! max/min/avg per-node workload (normalised by the maximum) plus the
//! standard deviation. The paper's finding: "with only about 15% of the
//! sub-datasets recorded in the hash map, DataNet is able to achieve a
//! satisfactory workload balance … changing the percentage from 15 to 100
//! will have little effect".

use datanet::{ElasticMapArray, Separation};
use datanet_bench::{movie_dataset, quick, Table, NODES};
use datanet_mapreduce::{DataNetScheduler, Run};

fn main() {
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let truth = dfs.subdataset_distribution(hot);
    let run = Run::default();

    println!("== Figure 10: workload balance vs alpha (normalised by max) ==");
    let mut t = Table::new(["alpha", "max", "min", "avg", "std dev"]);
    for pct in (10..=100).step_by(if quick() { 15 } else { 5 }) {
        let alpha = pct as f64 / 100.0;
        let view = ElasticMapArray::build(&dfs, &Separation::Alpha(alpha)).view(hot);
        let mut dn = DataNetScheduler::new(&dfs, &view);
        let out = run.select(&dfs, &truth, &mut dn);
        let s = out.workload_summary();
        let norm = s.max();
        t.row([
            format!("{pct}%"),
            format!("{:.2}", s.max() / norm),
            format!("{:.2}", s.min() / norm),
            format!("{:.2}", s.mean() / norm),
            format!("{:.3}", s.std_dev() / norm),
        ]);
    }
    t.print();
    println!(
        "(compare the paper: max ~0.9, min ~0.7, flat from alpha = 15% upward;\n\
         normalisation here is by each row's max)"
    );
}
