//! Small measurement helpers: percentiles with their sample counts, peak
//! memory, directory sizes and seed mixing.

use std::path::Path;

/// A percentile of a sample, with the counts the report prints next to it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly below the value.
    pub below: usize,
    /// Samples strictly above the value.
    pub beyond: usize,
}

/// The `p`-th percentile (0–100) of `xs` by linear interpolation between
/// closest ranks. `None` for an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> Option<Percentile> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let value = v[lo] + (v[hi] - v[lo]) * (rank - lo as f64);
    Some(Percentile {
        value,
        samples: v.len(),
        below: v.iter().filter(|&&x| x < value).count(),
        beyond: v.iter().filter(|&&x| x > value).count(),
    })
}

/// Median of `xs` (0 for an empty sample).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0).map_or(0.0, |p| p.value)
}

/// Peak resident set size of this process in MiB, from `/proc/self/status`
/// (`VmHWM`). `None` where the file is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Total bytes of the regular files under `dir`, recursively (0 when it
/// does not exist).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// SplitMix64: spreads a small workload seed into well-mixed generator
/// seeds, one per `stream`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic Fisher–Yates shuffle driven by [`mix`].
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_counts_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&xs, 90.0).unwrap();
        assert!((p90.value - 90.1).abs() < 1e-9);
        assert_eq!(p90.samples, 100);
        assert_eq!(p90.beyond, 10);
        assert_eq!(percentile(&xs, 10.0).unwrap().below, 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        shuffle(&mut a, 5);
        shuffle(&mut b, 5);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        assert_ne!(mix(1, 0), mix(2, 0));
    }
}
