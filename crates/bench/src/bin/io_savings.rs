//! I/O savings from block skipping — Section V-B-1: "with the knowledge of
//! ElasticMap, we can reduce the I/O cost, since we don't need to process
//! blocks that don't contain our target data (no records in the hash map
//! and bloom filter)."
//!
//! The saving grows as the target sub-dataset shrinks: a blockbuster touches
//! every block, a niche movie only a handful.

use datanet::{ElasticMapArray, Separation};
use datanet_bench::{movie_dataset, Table, NODES};
use datanet_mapreduce::{DataNetScheduler, LocalityScheduler, Run};

fn main() {
    let (dfs, catalog) = movie_dataset(NODES);
    let maps = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));
    let ranked = catalog.by_size_desc();
    let run = Run::default();
    let total_blocks = dfs.block_count();

    println!("== I/O savings from ElasticMap block skipping ==");
    let mut t = Table::new([
        "movie rank",
        "movie size kB",
        "blocks read (locality)",
        "blocks read (DataNet)",
        "bytes saved",
    ]);
    for rank in [0usize, 4, 19, 99, 499, 1999] {
        let Some(&(movie, size)) = ranked.get(rank) else {
            continue;
        };
        if size == 0 {
            continue;
        }
        let truth = dfs.subdataset_distribution(movie);
        let mut base = LocalityScheduler::new(&dfs);
        let without = run.select(&dfs, &truth, &mut base);
        let mut dn = DataNetScheduler::new(&dfs, &maps.view(movie));
        let with = run.select(&dfs, &truth, &mut dn);
        assert_eq!(without.total_tasks, total_blocks);
        t.row([
            format!("#{}", rank + 1),
            format!("{:.1}", size as f64 / 1024.0),
            without.total_tasks.to_string(),
            with.total_tasks.to_string(),
            format!(
                "{:.1} MB ({:.0}%)",
                (without.bytes_read - with.bytes_read) as f64 / 1_048_576.0,
                100.0 * (1.0 - with.bytes_read as f64 / without.bytes_read as f64)
            ),
        ]);
    }
    t.print();
    println!(
        "\nthe oblivious scheduler must scan all {total_blocks} blocks for every\n\
         query; ElasticMap restricts the scan to blocks that (may) hold the\n\
         target — bloom false positives cost at most a handful of extra reads."
    );
}
