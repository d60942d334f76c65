//! Frozen pre-optimisation reference implementations of the metadata hot
//! path, used by the `core` bench as the **within-run baseline**.
//!
//! `BENCH_core.json` reports speedup *ratios* (legacy time ÷ current time
//! measured in the same process, same workload, same compiler), so the
//! core gate is machine-independent: a slow CI runner slows both sides
//! equally. The structures here reproduce the PR 2–4 hot path exactly:
//!
//! * SipHash `HashMap` bucket accounting (vs the interned `FastMap`),
//! * a `HashMap`-backed ElasticMap exact side (vs sorted parallel arrays),
//! * a flat Bloom bit layout probing `k` scattered cache lines per query
//!   (vs the cache-line-blocked layout),
//! * one full array walk per sub-dataset view (vs the batched merge-join).
//!
//! Keep this module frozen: it only changes if a bug made the historical
//! behaviour unrepresentative.

use datanet::{Assignment, Buckets, Separation, SizeInfo, SubDatasetView};
use datanet_dfs::{Block, BlockId, Dfs, NodeId, SubDatasetId};
use std::collections::HashMap;

/// Design false-positive rate (same as the current path).
const BLOOM_EPSILON: f64 = 0.01;

/// The pre-blocking Bloom filter: one `% num_bits` probe per hash, `k`
/// potentially distinct cache lines touched per query.
pub struct LegacyBloom {
    bits: Vec<u64>,
    num_bits: u64,
    num_hashes: u32,
}

impl LegacyBloom {
    pub fn with_rate(expected_items: usize, fpr: f64) -> Self {
        let n = expected_items.max(1) as f64;
        let bits = (-(n * fpr.ln()) / (2f64.ln() * 2f64.ln())).ceil().max(8.0);
        let k = ((bits / n) * 2f64.ln()).round().clamp(1.0, 30.0) as u32;
        let num_bits = bits as u64;
        Self {
            bits: vec![0; num_bits.div_ceil(64) as usize],
            num_bits,
            num_hashes: k,
        }
    }

    fn hash_pair(id: SubDatasetId) -> (u64, u64) {
        // SplitMix64, identical constants to `datanet::BloomFilter`.
        let mut z = id.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let h1 = z ^ (z >> 31);
        let mut w = h1.wrapping_add(0xD1B5_4A32_D192_ED03);
        w = (w ^ (w >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        w = (w ^ (w >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (h1, (w ^ (w >> 31)) | 1)
    }

    pub fn insert(&mut self, id: SubDatasetId) {
        let (h1, h2) = Self::hash_pair(id);
        for i in 0..u64::from(self.num_hashes) {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % self.num_bits;
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }

    pub fn contains(&self, id: SubDatasetId) -> bool {
        let (h1, h2) = Self::hash_pair(id);
        (0..u64::from(self.num_hashes)).all(|i| {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % self.num_bits;
            self.bits[(bit / 64) as usize] & (1 << (bit % 64)) != 0
        })
    }
}

/// The pre-interning per-block map: SipHash `HashMap` exact side, flat
/// bloom tail, one hash probe per query.
pub struct LegacyElasticMap {
    block: BlockId,
    exact: HashMap<SubDatasetId, u64>,
    bloom: LegacyBloom,
    threshold: u64,
    bloom_min_bytes: Option<u64>,
}

impl LegacyElasticMap {
    /// The PR 2 build: SipHash bucket accounting, then the α split.
    pub fn build(block: &Block, policy: &Separation) -> Self {
        let base = if block.is_empty() {
            1024
        } else {
            (block.bytes() / block.len() as u64).max(1)
        };
        let buckets = Buckets::fibonacci(base, 9);
        let mut sizes: HashMap<SubDatasetId, u64> = HashMap::new();
        let mut counts = vec![0usize; buckets.len()];
        for r in block.records() {
            let entry = sizes.entry(r.subdataset).or_insert(0);
            let old = *entry;
            *entry = old.saturating_add(r.size as u64);
            let new_bucket = buckets.bucket_of(*entry);
            if old == 0 {
                counts[new_bucket] += 1;
            } else {
                let old_bucket = buckets.bucket_of(old);
                if old_bucket != new_bucket {
                    counts[old_bucket] -= 1;
                    counts[new_bucket] += 1;
                }
            }
        }
        let distinct = sizes.len();
        let threshold = match policy {
            Separation::Alpha(alpha) => {
                let quota = (*alpha * distinct as f64).ceil() as usize;
                // The top-down bucket walk, exactly as
                // `BucketCounter::dominance_threshold` does it.
                if quota == 0 {
                    u64::MAX
                } else {
                    let mut taken = 0;
                    let mut t = 0;
                    for i in (0..buckets.len()).rev() {
                        taken += counts[i];
                        if taken >= quota {
                            t = buckets.lower_bound(i);
                            break;
                        }
                    }
                    t
                }
            }
            Separation::Threshold { min_bytes } => *min_bytes,
            Separation::All => 0,
            Separation::BloomOnly => u64::MAX,
        };
        let bloom_count = sizes.values().filter(|&&s| s < threshold).count();
        let mut bloom = LegacyBloom::with_rate(bloom_count.max(1), BLOOM_EPSILON);
        let mut exact = HashMap::new();
        let mut bloom_min_bytes: Option<u64> = None;
        for (id, size) in sizes {
            if size >= threshold {
                exact.insert(id, size);
            } else {
                bloom.insert(id);
                bloom_min_bytes = Some(bloom_min_bytes.map_or(size, |m: u64| m.min(size)));
            }
        }
        Self {
            block: block.id(),
            exact,
            bloom,
            threshold,
            bloom_min_bytes,
        }
    }

    pub fn query(&self, id: SubDatasetId) -> SizeInfo {
        if let Some(&size) = self.exact.get(&id) {
            SizeInfo::Exact(size)
        } else if self.bloom.contains(id) {
            SizeInfo::Approximate
        } else {
            SizeInfo::Absent
        }
    }

    fn bloom_delta_hint(&self) -> u64 {
        self.bloom_min_bytes
            .unwrap_or(if self.threshold == u64::MAX {
                0
            } else {
                self.threshold
            })
    }
}

/// The pre-sharding serial array build.
pub fn build(dfs: &Dfs, policy: &Separation) -> Vec<LegacyElasticMap> {
    dfs.blocks()
        .iter()
        .map(|b| LegacyElasticMap::build(b, policy))
        .collect()
}

/// The pre-batching view assembly: one full array walk per sub-dataset.
pub fn view(maps: &[LegacyElasticMap], s: SubDatasetId) -> SubDatasetView {
    let mut exact = Vec::new();
    let mut bloom = Vec::new();
    let mut delta_hint = u64::MAX;
    for m in maps {
        match m.query(s) {
            SizeInfo::Exact(sz) => exact.push((m.block, sz)),
            SizeInfo::Approximate => {
                bloom.push(m.block);
                delta_hint = delta_hint.min(m.bloom_delta_hint());
            }
            SizeInfo::Absent => {}
        }
    }
    SubDatasetView::new(s, exact, bloom, delta_hint)
}

/// The pre-indexing bipartite graph: `heaviest`/`lightest` answered by a
/// full scan over every block the NameNode knows, per task request — the
/// PR 4 planner hot path, frozen.
struct LegacyGraph {
    adj_node: Vec<Vec<BlockId>>,
    holders: Vec<Option<Vec<NodeId>>>,
    weight: Vec<u64>,
    remaining: usize,
}

impl LegacyGraph {
    fn from_view(dfs: &Dfs, v: &SubDatasetView) -> Self {
        let nn = dfs.namenode();
        let total = nn.block_count();
        let mut holders: Vec<Option<Vec<NodeId>>> = vec![None; total];
        let mut weight = vec![0u64; total];
        let mut adj_node = vec![Vec::new(); nn.node_count()];
        let mut remaining = 0;
        for b in v.blocks() {
            let nodes = nn.replicas(b).to_vec();
            for &n in &nodes {
                adj_node[n.index()].push(b);
            }
            holders[b.index()] = Some(nodes);
            weight[b.index()] = v.weight(b);
            remaining += 1;
        }
        Self {
            adj_node,
            holders,
            weight,
            remaining,
        }
    }

    fn contains(&self, b: BlockId) -> bool {
        self.holders[b.index()].is_some()
    }

    fn local_blocks(&self, n: NodeId) -> impl Iterator<Item = BlockId> + '_ {
        self.adj_node[n.index()]
            .iter()
            .copied()
            .filter(|&b| self.contains(b))
    }

    fn remaining_blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.holders
            .iter()
            .enumerate()
            .filter(|(_, h)| h.is_some())
            .map(|(i, _)| BlockId(i as u32))
    }

    fn remove(&mut self, b: BlockId) {
        self.holders[b.index()] = None;
        self.remaining -= 1;
    }
}

/// The pre-indexing Algorithm 1 (paced-greedy policy only, no fault
/// hooks): semantically identical picks to the current planner, but every
/// global candidate is found by rescanning all blocks.
fn legacy_plan_one(dfs: &Dfs, v: &SubDatasetView) -> Assignment {
    let mut graph = LegacyGraph::from_view(dfs, v);
    let m = dfs.namenode().node_count();
    let target = v.estimated_total() as f64 / m as f64;
    let mut workloads = vec![0u64; m];
    let mut assignment = Assignment::new(m);
    let largest_fit = |g: &LegacyGraph,
                       w: &[u64],
                       node: NodeId,
                       cands: &mut dyn Iterator<Item = BlockId>|
     -> Option<BlockId> {
        let headroom = (target - w[node.index()] as f64).max(0.0);
        cands
            .map(|b| (g.weight[b.index()], b))
            .filter(|&(wt, _)| wt as f64 <= headroom)
            .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
            .map(|(_, b)| b)
    };
    while graph.remaining > 0 {
        let node = NodeId(
            (0..m)
                .min_by(|&a, &b| {
                    let rel = |i: usize| {
                        if target > 0.0 {
                            workloads[i] as f64 / target
                        } else {
                            workloads[i] as f64
                        }
                    };
                    rel(a).partial_cmp(&rel(b)).unwrap().then(a.cmp(&b))
                })
                .unwrap() as u32,
        );
        let global_heaviest = graph
            .remaining_blocks()
            .map(|b| (graph.weight[b.index()], b))
            .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
            .map(|(_, b)| b);
        let local_fit = largest_fit(&graph, &workloads, node, &mut graph.local_blocks(node));
        let global_fit = largest_fit(&graph, &workloads, node, &mut global_heaviest.into_iter());
        let my_headroom = target - workloads[node.index()] as f64;
        let rescue = global_fit.filter(|&g| {
            let beats_local =
                local_fit.is_none_or(|l| graph.weight[g.index()] > graph.weight[l.index()]);
            beats_local
                && graph.holders[g.index()]
                    .as_ref()
                    .unwrap()
                    .iter()
                    .all(|h| *h != node && target - (workloads[h.index()] as f64) < my_headroom)
        });
        let (block, local) = if let Some(b) = rescue.or(local_fit).or(global_fit) {
            let local = graph.holders[b.index()].as_ref().unwrap().contains(&node);
            (b, local)
        } else {
            let light = |cands: &mut dyn Iterator<Item = BlockId>| {
                cands
                    .map(|b| (graph.weight[b.index()], b))
                    .min_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)))
                    .map(|(_, b)| b)
            };
            let light_local = light(&mut graph.local_blocks(node));
            let light_global = light(&mut graph.remaining_blocks()).unwrap();
            match light_local {
                Some(l)
                    if graph.weight[l.index()]
                        <= graph.weight[light_global.index()].saturating_mul(4) =>
                {
                    (l, true)
                }
                _ => (light_global, false),
            }
        };
        let w = graph.weight[block.index()];
        workloads[node.index()] += w;
        graph.remove(block);
        assignment.assign(node, block, w, local);
    }
    assignment
}

/// The pre-batching planner loop: view + plan, one array walk per id and
/// one full-block scan per task request.
pub fn plan_balanced(
    dfs: &Dfs,
    maps: &[LegacyElasticMap],
    ids: &[SubDatasetId],
) -> Vec<Assignment> {
    ids.iter()
        .map(|&id| legacy_plan_one(dfs, &view(maps, id)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datanet::ElasticMapArray;
    use datanet_dfs::{DfsConfig, Record, Topology};

    /// The legacy reference must agree with the current implementation on
    /// semantics (same exact sizes, no false negatives) — only the data
    /// layout and constant factors differ.
    #[test]
    fn legacy_reference_semantically_matches_current() {
        let recs = (0..4000u64).map(|i| Record::new(SubDatasetId(i % 80), i, 100, i));
        let dfs = Dfs::write_random(
            DfsConfig {
                block_size: 20_000,
                replication: 2,
                topology: Topology::single_rack(4),
                seed: 3,
            },
            recs,
        );
        let policy = Separation::Alpha(0.3);
        let old = build(&dfs, &policy);
        let new = ElasticMapArray::build(&dfs, &policy);
        assert_eq!(old.len(), new.len());
        for (m_old, m_new) in old.iter().zip(new.maps()) {
            for s in 0..100u64 {
                let (a, b) = (m_old.query(SubDatasetId(s)), m_new.query(SubDatasetId(s)));
                match (a, b) {
                    // Exact answers must agree exactly.
                    (SizeInfo::Exact(x), SizeInfo::Exact(y)) => assert_eq!(x, y),
                    // Bloom sides may differ only in false positives.
                    (SizeInfo::Exact(_), _) | (_, SizeInfo::Exact(_)) => {
                        panic!("exact/approx split diverged for {s}: {a:?} vs {b:?}")
                    }
                    _ => {}
                }
            }
        }
        // Views built from both agree on the exact side and δ.
        for s in [0u64, 7, 42] {
            let v_old = view(&old, SubDatasetId(s));
            let v_new = new.view(SubDatasetId(s));
            assert_eq!(v_old.exact(), v_new.exact());
            assert_eq!(v_old.delta(), v_new.delta());
        }
    }

    /// The frozen planner and the current (indexed) planner must make
    /// identical picks on identical views — the speedup is allowed to come
    /// only from data-structure work, never from changed plans.
    #[test]
    fn legacy_planner_plans_identically_to_current() {
        let recs =
            (0..6000u64).map(|i| Record::new(SubDatasetId(i % 37), i, 90 + (i % 5) as u32 * 30, i));
        let dfs = Dfs::write_random(
            DfsConfig {
                block_size: 15_000,
                replication: 3,
                topology: Topology::single_rack(8),
                seed: 9,
            },
            recs,
        );
        let array = ElasticMapArray::build(&dfs, &Separation::Alpha(0.4));
        for s in 0..37u64 {
            let v = array.view(SubDatasetId(s));
            let frozen = legacy_plan_one(&dfs, &v);
            let current = datanet::Algorithm1::new(&dfs, &v).plan_balanced();
            assert_eq!(frozen, current, "plans diverged for sub-dataset {s}");
        }
    }
}
