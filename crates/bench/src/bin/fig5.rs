//! Figure 5 — the headline comparison on the 32-node cluster.
//!
//! (a) Overall execution time of the four analysis jobs with and without
//!     DataNet (paper improvements: MovingAverage 20%, WordCount 39.1%,
//!     Histogram 40.6%, TopKSearch 42%).
//! (b) Size of the target sub-dataset over HDFS blocks.
//! (c) Filtered workload over the 32 nodes, with and without DataNet.

use datanet::{ElasticMapArray, Separation};
use datanet_analytics::profiles::{
    histogram_profile, moving_average_profile, top_k_profile, word_count_profile,
};
use datanet_bench::{movie_dataset, quick, Table, NODES};
use datanet_mapreduce::{DataNetScheduler, LocalityScheduler, Run};

fn main() {
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let truth = dfs.subdataset_distribution(hot);
    // Paper: "we set the value of α in Equation 5 to 0.3".
    let view = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3)).view(hot);

    // Selection under both schedulers.
    let run = Run::default();
    let mut base = LocalityScheduler::new(&dfs);
    let without = run.select(&dfs, &truth, &mut base);
    let mut dn = DataNetScheduler::new(&dfs, &view);
    let with = run.select(&dfs, &truth, &mut dn);

    println!("== Figure 5(a): overall execution time (s) of the four jobs ==");
    let jobs = [
        moving_average_profile(),
        word_count_profile(),
        histogram_profile(),
        top_k_profile(),
    ];
    let mut t = Table::new([
        "job",
        "without DataNet",
        "with DataNet",
        "improvement",
        "cpu util (w/o -> w/)",
    ]);
    for job in &jobs {
        let jw = run.analyze(&without.per_node_bytes, job, None);
        let jd = run.analyze(&with.per_node_bytes, job, None);
        let impr = 100.0 * (1.0 - jd.makespan_secs / jw.makespan_secs);
        t.row([
            job.name.clone(),
            format!("{:.2}", jw.makespan_secs),
            format!("{:.2}", jd.makespan_secs),
            format!("{impr:.1}%"),
            format!(
                "{:.0}% -> {:.0}%",
                jw.util_summary().mean() * 100.0,
                jd.util_summary().mean() * 100.0
            ),
        ]);
    }
    t.print();
    println!("(paper: 20% / 39.1% / 40.6% / 42%)\n");

    let shown = if quick() { 16 } else { 64 };
    println!("== Figure 5(b): size of data over HDFS blocks (kB, first {shown} blocks) ==");
    let mut t = Table::new(["block", "kB"]);
    for (i, b) in truth.iter().take(shown).enumerate() {
        t.row([i.to_string(), format!("{:.1}", *b as f64 / 1024.0)]);
    }
    t.print();

    println!("\n== Figure 5(c): workload after selection (kB per node) ==");
    let mut t = Table::new(["node", "without DataNet", "with DataNet"]);
    for n in 0..NODES as usize {
        t.row([
            n.to_string(),
            format!("{:.1}", without.per_node_bytes[n] as f64 / 1024.0),
            format!("{:.1}", with.per_node_bytes[n] as f64 / 1024.0),
        ]);
    }
    t.print();
    println!(
        "imbalance (max/avg): without = {:.2}, with = {:.2}",
        without.imbalance(),
        with.imbalance()
    );
    println!(
        "blocks scanned: without = {} (all), with = {} (ElasticMap skips empty blocks)",
        without.total_tasks, with.total_tasks
    );
}
