//! Figure 7 — shuffle-phase execution times.
//!
//! "The shuffle phase starts whenever a map task is finished and ends when
//! all map tasks have been executed." With imbalanced maps, reducers sit
//! waiting for the straggler, so shuffle tasks take 4–5× longer without
//! DataNet.

use datanet::{ElasticMapArray, Separation};
use datanet_analytics::profiles::{top_k_profile, word_count_profile};
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

    println!("== Figure 7: shuffle execution time (s), min/avg/max ==");
    let mut t = Table::new(["job", "variant", "min", "avg", "max"]);
    let mut ratios = Vec::new();
    let profiles = if quick() {
        vec![word_count_profile()]
    } else {
        vec![word_count_profile(), top_k_profile()]
    };
    for profile in profiles {
        let jw = run.analyze(&without.per_node_bytes, &profile, None);
        let jd = run.analyze(&with.per_node_bytes, &profile, None);
        for (name, rep) in [("without DataNet", &jw), ("with DataNet", &jd)] {
            let s = rep.shuffle_summary();
            t.row([
                profile.name.clone(),
                name.to_string(),
                format!("{:.3}", s.min()),
                format!("{:.3}", s.mean()),
                format!("{:.3}", s.max()),
            ]);
        }
        ratios.push((
            profile.name.clone(),
            jw.shuffle_summary().max() / jd.shuffle_summary().max().max(1e-9),
        ));
    }
    t.print();
    for (job, r) in ratios {
        println!("{job}: shuffle max without/with = {r:.1}x (paper: 4-5x)");
    }
}
