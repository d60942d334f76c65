//! Meta-data amortization — Section V-A-4's closing argument: "DataNet will
//! scan the raw data once to build all sub-dataset distributions, while the
//! method of dynamic adjustment will migrate the workload for each
//! sub-dataset analysis during runtime."
//!
//! This binary analyses the top-K movies back to back and accounts the
//! one-off scan cost against the per-job migration cost it replaces.

use datanet::{ElasticMapArray, Separation};
use datanet_analytics::profiles::word_count_profile;
use datanet_bench::{movie_dataset, Table, NODES};
use datanet_cluster::NodeSpec;
use datanet_mapreduce::{rebalance, DataNetScheduler, LocalityScheduler, Run};

fn main() {
    let (dfs, catalog) = movie_dataset(NODES);
    let jobs = 6usize;
    let targets: Vec<_> = catalog
        .by_size_desc()
        .into_iter()
        .take(jobs)
        .map(|(m, _)| m)
        .collect();
    let job = word_count_profile();
    let run = Run::default();

    // One-off: build the meta-data for ALL sub-datasets in a single scan.
    // Scan cost ≈ one pass over every block at disk+scan speed, parallel
    // over nodes — the same cost as one content-oblivious selection pass.
    let scan_cost_secs = {
        let bytes_per_node = dfs.total_bytes() / NODES as u64;
        let spec = NodeSpec::marmot();
        bytes_per_node as f64 / spec.disk_bps as f64 + bytes_per_node as f64 / spec.cpu_bps as f64
    };
    let maps = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));

    let mut datanet_total = scan_cost_secs;
    let mut migration_total = 0.0;
    let mut t = Table::new([
        "movie",
        "DataNet job (s)",
        "migrate: fraction",
        "migrate+job (s)",
    ]);
    for &m in &targets {
        let truth = dfs.subdataset_distribution(m);

        // DataNet path: balanced selection + job.
        let mut dn = DataNetScheduler::new(&dfs, &maps.view(m));
        let with = run.select(&dfs, &truth, &mut dn);
        let jd = run.analyze(&with.per_node_bytes, &job, None);
        let dn_secs = datanet_mapreduce::total_secs(with.end, jd.makespan_secs);
        datanet_total += dn_secs;

        // Reactive path: oblivious selection, then migrate, then job.
        let mut base = LocalityScheduler::new(&dfs);
        let without = run.select(&dfs, &truth, &mut base);
        let mig = rebalance(&without.per_node_bytes, &NodeSpec::marmot());
        let jm = run.analyze(&mig.balanced, &job, None);
        let mig_secs =
            datanet_mapreduce::total_secs(without.end, mig.migration_secs + jm.makespan_secs);
        migration_total += mig_secs;

        t.row([
            m.to_string(),
            format!("{dn_secs:.3}"),
            format!("{:.1}%", mig.fraction * 100.0),
            format!("{mig_secs:.3}"),
        ]);
    }
    println!("== One scan vs per-job migration, {jobs} sub-dataset analyses ==");
    t.print();
    println!(
        "\ntotals: DataNet = {scan_cost_secs:.3}s scan + jobs = {datanet_total:.3}s;  \
         migration path = {migration_total:.3}s"
    );
    println!(
        "the single scan amortises across every subsequent analysis, while the\n\
         reactive path pays selection + migration for each one."
    );
    assert!(
        datanet_total < migration_total,
        "amortization should win over {jobs} jobs"
    );
}
