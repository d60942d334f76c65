//! Figure 1 — the motivating observation.
//!
//! (a) Distribution of one movie's data over the first 128 HDFS blocks:
//!     content clustering puts most of it in a contiguous minority of
//!     blocks.
//! (b) Filtered-workload distribution over a 32-node cluster under
//!     Hadoop's default block-locality scheduling: heavily imbalanced.

use datanet_bench::{movie_dataset, quick, Table, NODES};
use datanet_mapreduce::{LocalityScheduler, Run};

fn main() {
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let dist = dfs.subdataset_distribution(hot);
    let shown = if quick() { 32 } else { 128 };

    println!("== Figure 1(a): sub-dataset distribution over HDFS blocks ==");
    println!("(movie {hot}, bytes per block, first {shown} blocks)");
    let mut t = Table::new(["block", "kB"]);
    for (i, b) in dist.iter().take(shown).enumerate() {
        t.row([i.to_string(), format!("{:.1}", *b as f64 / 1024.0)]);
    }
    t.print();
    let total: u64 = dist.iter().sum();
    let mut sorted = dist.clone();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let top30: u64 = sorted.iter().take(30).sum();
    println!(
        "top-30 blocks hold {:.1}% of the sub-dataset ({} blocks total)\n",
        100.0 * top30 as f64 / total as f64,
        dist.len()
    );

    println!("== Figure 1(b): workload distribution over cluster nodes ==");
    println!("(bytes of movie {hot} filtered onto each of {NODES} nodes, locality scheduling)");
    let mut sched = LocalityScheduler::new(&dfs);
    let out = Run::default().select(&dfs, &dist, &mut sched);
    let mut t = Table::new(["node", "kB"]);
    for (n, b) in out.per_node_bytes.iter().enumerate() {
        t.row([n.to_string(), format!("{:.1}", *b as f64 / 1024.0)]);
    }
    t.print();
    let s = out.workload_summary();
    println!(
        "min {:.1} kB  avg {:.1} kB  max {:.1} kB  (max/min = {:.1}x, max/avg = {:.2}x)",
        s.min() / 1024.0,
        s.mean() / 1024.0,
        s.max() / 1024.0,
        s.spread_ratio().unwrap_or(f64::INFINITY),
        out.imbalance()
    );
}
