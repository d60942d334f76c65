//! Speculative execution vs data skew — why Hadoop's built-in straggler
//! mitigation does not solve the paper's problem.
//!
//! Two scenarios over the movie workload's filtered partitions:
//! * **data skew** (the content-clustering case): backups are launched but
//!   cannot beat the originals — improvement ≈ 0, work duplicated;
//! * **slow node** (what speculation was designed for): a degraded node's
//!   balanced partition is rescued.

use datanet_bench::{movie_dataset, Table, NODES};
use datanet_cluster::NodeSpec;
use datanet_mapreduce::{
    speculative_map_phase, speculative_map_phase_with_slowdowns, LocalityScheduler, Run,
    SpeculationConfig,
};

fn main() {
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let truth = dfs.subdataset_distribution(hot);
    let mut base = LocalityScheduler::new(&dfs);
    let selection = Run::default().select(&dfs, &truth, &mut base);
    let job = datanet_analytics::profiles::top_k_profile();
    let cfg = SpeculationConfig::default();
    let spec = NodeSpec::marmot();

    println!("== Speculative execution vs the two kinds of straggler ==");
    let mut t = Table::new([
        "scenario",
        "backups",
        "duplicated kB",
        "map makespan (s)",
        "vs no speculation",
    ]);

    // Data-skew stragglers: the locality selection's imbalanced partitions.
    let skew = speculative_map_phase(&selection.per_node_bytes, &job, &spec, &cfg);
    t.row([
        "data skew (clustering)".to_string(),
        skew.backups.to_string(),
        format!("{:.0}", skew.duplicated_bytes as f64 / 1024.0),
        format!("{:.4}", skew.makespan_secs),
        format!("{:.1}%", skew.improvement() * 100.0),
    ]);

    // Slow-node straggler: balanced partitions, one node 4x degraded.
    let total: u64 = selection.per_node_bytes.iter().sum();
    let balanced = vec![total / NODES as u64; NODES as usize];
    let mut slowdowns = vec![1.0; NODES as usize];
    slowdowns[7] = 4.0;
    let slow = speculative_map_phase_with_slowdowns(&balanced, &job, &spec, &cfg, &slowdowns);
    t.row([
        "slow node (4x degraded)".to_string(),
        slow.backups.to_string(),
        format!("{:.0}", slow.duplicated_bytes as f64 / 1024.0),
        format!("{:.4}", slow.makespan_secs),
        format!("{:.1}%", slow.improvement() * 100.0),
    ]);
    t.print();

    println!(
        "\nspeculation rescues machine-level stragglers but not content-clustering\n\
         skew: a backup of the same oversized partition, launched later and fed\n\
         over the network, cannot beat the original. DataNet prevents the skew\n\
         instead of racing it."
    );
}
