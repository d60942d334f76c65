//! Figure 6 — map execution times on the filtered sub-dataset.
//!
//! (a) Per-node Top-K Search map times on 32 nodes (paper: 5 s … 64 s
//!     without DataNet).
//! (b) Moving Average min/avg/max map time.
//! (c) Word Count min/avg/max map time — a larger min–max gap than Moving
//!     Average because "with greater computational requirements, the issue
//!     of imbalance becomes more serious".

use datanet::{ElasticMapArray, Separation};
use datanet_analytics::profiles::{moving_average_profile, top_k_profile, word_count_profile};
use datanet_bench::{movie_dataset, quick, Table, NODES};
use datanet_mapreduce::{DataNetScheduler, LocalityScheduler, Run};

fn main() {
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let truth = dfs.subdataset_distribution(hot);
    let view = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3)).view(hot);
    let run = Run::default();

    let mut base = LocalityScheduler::new(&dfs);
    let without = run.select(&dfs, &truth, &mut base);
    let mut dn = DataNetScheduler::new(&dfs, &view);
    let with = run.select(&dfs, &truth, &mut dn);

    println!("== Figure 6(a): Top-K Search map time per node (s) ==");
    let tw = run.analyze(&without.per_node_bytes, &top_k_profile(), None);
    let td = run.analyze(&with.per_node_bytes, &top_k_profile(), None);
    let mut t = Table::new(["node", "without DataNet", "with DataNet"]);
    let rows = if quick() { 8 } else { NODES as usize };
    for n in 0..rows {
        t.row([
            n.to_string(),
            format!("{:.3}", tw.map_secs[n]),
            format!("{:.3}", td.map_secs[n]),
        ]);
    }
    t.print();
    println!(
        "slowest/fastest map without DataNet: {:.3}s / {:.3}s ({:.1}x)",
        tw.map_summary().max(),
        tw.map_summary().min(),
        tw.map_summary().max() / tw.map_summary().min()
    );

    println!("\n== Figure 6(b)(c): min/avg/max map time (s) ==");
    let mut t = Table::new(["job", "variant", "min", "avg", "max", "max-min gap"]);
    for profile in [moving_average_profile(), word_count_profile()] {
        for (name, filtered) in [
            ("without DataNet", &without.per_node_bytes),
            ("with DataNet", &with.per_node_bytes),
        ] {
            let rep = run.analyze(filtered, &profile, None);
            let s = rep.map_summary();
            t.row([
                profile.name.clone(),
                name.to_string(),
                format!("{:.3}", s.min()),
                format!("{:.3}", s.mean()),
                format!("{:.3}", s.max()),
                format!("{:.3}", s.max() - s.min()),
            ]);
        }
    }
    t.print();
    println!(
        "(the WordCount gap exceeds the MovingAverage gap — heavier compute\n\
         amplifies the same byte imbalance, as in the paper)"
    );
}
