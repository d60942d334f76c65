//! Section V-A-4 — the dynamic-migration (SkewTune-like) alternative.
//!
//! "With the example without DataNet in Figure 5(c), we find that almost
//! every cluster node will transfer or receive sub-datasets and the overall
//! percentage of data migration is more than 30%."
//!
//! This binary rebalances the locality scheduler's skewed partitions by
//! migration, reports the migrated fraction and time, and compares the
//! end-to-end path against DataNet's proactive balancing.

use datanet::{ElasticMapArray, Separation};
use datanet_analytics::profiles::word_count_profile;
use datanet_bench::{movie_dataset, Table, NODES};
use datanet_cluster::NodeSpec;
use datanet_mapreduce::{rebalance, DataNetScheduler, LocalityScheduler, Run};

fn main() {
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let truth = dfs.subdataset_distribution(hot);
    let run = Run::default();

    let mut base = LocalityScheduler::new(&dfs);
    let without = run.select(&dfs, &truth, &mut base);
    let view = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3)).view(hot);
    let mut dn = DataNetScheduler::new(&dfs, &view);
    let with = run.select(&dfs, &truth, &mut dn);

    let mig = rebalance(&without.per_node_bytes, &NodeSpec::marmot());
    println!("== Dynamic migration after an imbalanced selection ==");
    println!(
        "migrated bytes: {} of {} ({:.1}%), touching {} of {NODES} nodes",
        mig.moved_bytes,
        without.per_node_bytes.iter().sum::<u64>(),
        mig.fraction * 100.0,
        mig.nodes_touched,
    );
    println!("migration wall time: {:.3}s", mig.migration_secs);
    println!("(paper: \"more than 30%\" of the data migrates, touching almost every node)\n");

    // End-to-end WordCount comparison across the three strategies.
    let job = word_count_profile();
    let j_without = run.analyze(&without.per_node_bytes, &job, None);
    let j_migrated = run.analyze(&mig.balanced, &job, None);
    let j_with = run.analyze(&with.per_node_bytes, &job, None);

    let mut t = Table::new([
        "strategy",
        "selection (s)",
        "extra (s)",
        "job (s)",
        "total (s)",
    ]);
    let rows = [
        (
            "locality (no fix)",
            without.end.as_secs_f64(),
            0.0,
            j_without.makespan_secs,
        ),
        (
            "locality + migration",
            without.end.as_secs_f64(),
            mig.migration_secs,
            j_migrated.makespan_secs,
        ),
        (
            "DataNet (proactive)",
            with.end.as_secs_f64(),
            0.0,
            j_with.makespan_secs,
        ),
    ];
    for (name, sel_s, extra, job_s) in rows {
        t.row([
            name.to_string(),
            format!("{sel_s:.3}"),
            format!("{extra:.3}"),
            format!("{job_s:.3}"),
            format!("{:.3}", sel_s + extra + job_s),
        ]);
    }
    t.print();
    println!(
        "\nDataNet foresees the imbalance and avoids both the migration traffic\n\
         and the runtime monitoring the reactive approach needs."
    );
}
