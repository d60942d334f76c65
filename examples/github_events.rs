//! GitHub event-log analysis: the paper's second dataset. Filters
//! `IssueEvent` and shows that DataNet still balances a distribution that
//! is imbalanced *without* being content-clustered, plus a sessionization
//! pass over the filtered events.
//!
//! Run with: `cargo run --release --example github_events`

use datanet::prelude::*;
use datanet_analytics::session::session_stats;
use datanet_dfs::{Dfs, DfsConfig, Topology};
use datanet_mapreduce::{DataNetScheduler, LocalityScheduler, Run};
use datanet_workloads::{EventType, GithubConfig};

fn main() {
    let nodes = 16u32;
    let records = GithubConfig {
        records: 60_000,
        ..Default::default()
    }
    .generate();
    let dfs = Dfs::write_random(
        DfsConfig {
            block_size: 256 * 1024,
            replication: 3,
            topology: Topology::single_rack(nodes),
            seed: 3,
        },
        records,
    );
    let issue = EventType::Issue.id();
    let truth = dfs.subdataset_distribution(issue);
    println!(
        "GitHub log: {} blocks; IssueEvent present in {} of them",
        dfs.block_count(),
        truth.iter().filter(|&&b| b > 0).count()
    );

    let run = Run::default();
    let mut base = LocalityScheduler::new(&dfs);
    let without = run.select(&dfs, &truth, &mut base);
    let maps = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));
    let mut dn = DataNetScheduler::new(&dfs, &maps.view(issue));
    let with = run.select(&dfs, &truth, &mut dn);
    println!(
        "IssueEvent selection imbalance: locality {:.2} → DataNet {:.2}",
        without.imbalance(),
        with.imbalance()
    );

    // Sessionize the filtered IssueEvents (one "user" = the event type here;
    // in a real deployment the key would be the repo or actor id).
    let mut events: Vec<_> = dfs
        .blocks()
        .iter()
        .flat_map(|b| b.filter(issue).copied())
        .collect();
    events.sort_by_key(|r| r.timestamp);
    let stats = session_stats(&events, 1800);
    println!(
        "sessionization (30 min timeout): {} bursts, {:.1} events/burst on average, \
         longest burst {}s",
        stats.count, stats.mean_events, stats.max_duration
    );
}
