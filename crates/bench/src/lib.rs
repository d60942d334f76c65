//! Shared scaffolding for the reproduction harness: canonical experiment
//! datasets (scaled versions of the paper's setups) and table-printing
//! helpers used by the `fig*`/`table*` binaries.
//!
//! ## Scaling
//!
//! The paper stores 256 × 64 MB blocks on 32–128 Marmot nodes. This harness
//! keeps the *block count*, *node count*, *replication* and all
//! distributional parameters, and scales the block size down to 256 kB so a
//! full figure regenerates in seconds on a laptop. The simulator's outputs
//! are ratios of byte quantities over hardware rates, so every comparative
//! claim (who wins, by what factor, where the crossover sits) is preserved;
//! absolute seconds are not comparable to the paper's testbed and are not
//! meant to be.

pub mod core;
pub mod gate;
pub mod ingest;
pub mod legacy;
pub mod obs;
pub mod serve;
pub mod setup;
pub mod shuffle;
pub mod table;

pub use gate::{Bench, Gate, Report, Row};
pub use setup::{github_dataset, movie_dataset, MOVIE_BLOCKS, NODES};
pub use table::Table;

use std::path::PathBuf;
use std::time::Instant;

/// Whether the binary was invoked with `--quick`: CI smoke mode. Binaries
/// shrink their sweeps (fewer seeds, smaller clusters, fewer rows) so every
/// figure exercises its full code path in a couple of seconds.
pub fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Value of `--<flag> PATH`, if given.
pub fn path_flag(flag: &str) -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
}

/// Minimum wall-seconds of `f` over `reps` repetitions.
pub fn min_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let out = f();
        best = best.min(t.elapsed().as_secs_f64());
        std::hint::black_box(out);
    }
    best
}
