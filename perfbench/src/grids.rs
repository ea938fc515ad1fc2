//! Inputs generated from the benchmark's seed: the design-space sample
//! and the served request order. The program under test only ever sees
//! the resulting `SimKey`s.

use mom3d_bench::SimKey;
use mom3d_cpu::{BackendId, BackendRegistry};
use mom3d_kernels::{IsaVariant, WorkloadKind};

/// SplitMix64: a tiny, well-mixed, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Every design point the tuner can visit one knob at a time: each
/// registered family at its defaults, plus each declared `ParamSpec`
/// candidate with the other knobs left at their defaults.
pub fn design_points() -> Vec<(BackendId, bool)> {
    let mut points = Vec::new();
    for entry in BackendRegistry::entries() {
        points.push((entry.backend_id(), entry.has_3d));
        for spec in entry.params {
            for &value in spec.candidates.iter().filter(|&&v| v != spec.default) {
                let id = BackendRegistry::make_id(entry.id, &[(spec.key, value)])
                    .expect("a declared candidate forms a valid id");
                points.push((id, entry.has_3d));
            }
        }
    }
    points
}

/// The `design-space` workload: every design point under MOM, and under
/// MOM+3D where the family has the 3D register file, in registry order.
/// Workloads and L2 latencies (20/40/60) are dealt to the points in
/// turn. The sample is the same for every seed, which generates the data
/// the cells run on: which workload lands on which backend, at which
/// latency and in which order sets most of a sweep's host time (an
/// `mpeg2 encode` MOM cell costs ten small ones, a `dram-burst` cell's
/// schedule calls vary fourfold with its latency, and a heavy cell late
/// in the queue idles the other worker), and a seed should change the
/// inputs, not the amount of work.
pub fn design_space_sample() -> Vec<SimKey> {
    let points = design_points();
    let mut cells = Vec::new();
    for variant in [IsaVariant::Mom, IsaVariant::Mom3d] {
        let group = points
            .iter()
            .filter(|&&(_, has_3d)| variant == IsaVariant::Mom || has_3d)
            .map(|&(id, _)| id);
        for (i, memory) in group.enumerate() {
            cells.push(SimKey {
                kind: WorkloadKind::ALL[i % WorkloadKind::ALL.len()],
                variant,
                memory,
                l2_latency: [20, 40, 60][i % 3],
            });
        }
    }
    cells
}

/// The order in which served client `client` visits `keys` on its
/// `pass`-th pass: a seeded permutation, different for every client and
/// pass.
pub fn served_pass(keys: &[SimKey], seed: u64, client: u64, pass: u64) -> Vec<SimKey> {
    let mut rng = Rng::new(seed ^ client.wrapping_mul(0x5851_f42d_4c95_7f2d) ^ (pass << 20));
    let mut order = keys.to_vec();
    rng.shuffle(&mut order);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn sample_covers_every_family_candidate_variant_and_latency() {
        let cells = design_space_sample();
        let points = design_points();
        // 7 families: each base id plus every non-default candidate.
        assert_eq!(points.len(), 37);
        let families: HashSet<&str> = points.iter().map(|p| p.0.base()).collect();
        assert_eq!(families.len(), BackendRegistry::entries().len());
        for (id, _) in &points {
            assert!(cells.iter().any(|c| c.memory == *id), "{id} missing");
        }
        assert!(cells.iter().any(|c| c.variant == IsaVariant::Mom3d));
        let l2s: HashSet<u32> = cells.iter().map(|c| c.l2_latency).collect();
        assert_eq!(l2s, HashSet::from([20, 40, 60]));
        // Every Mom3d cell is on a family with the 3D register file.
        assert!(cells
            .iter()
            .filter(|c| c.variant == IsaVariant::Mom3d)
            .all(|c| c.memory.has_3d()));
    }

    #[test]
    fn every_latency_meets_every_workload() {
        let cells = design_space_sample();
        assert_eq!(cells.len(), 41);
        for l2 in [20, 40, 60] {
            let kinds: HashSet<WorkloadKind> = cells
                .iter()
                .filter(|c| c.l2_latency == l2)
                .map(|c| c.kind)
                .collect();
            assert_eq!(kinds.len(), WorkloadKind::ALL.len(), "L2 {l2}");
        }
    }

    #[test]
    fn served_passes_are_seeded_permutations() {
        let keys = mom3d_bench::sweep::extended_grid();
        let p = served_pass(&keys, 1, 0, 0);
        assert_eq!(p, served_pass(&keys, 1, 0, 0));
        assert_ne!(p, served_pass(&keys, 1, 1, 0));
        assert_ne!(p, served_pass(&keys, 1, 0, 1));
        let mut sorted = p.clone();
        sorted.sort_by_key(|k| format!("{k:?}"));
        let mut want = keys.clone();
        want.sort_by_key(|k| format!("{k:?}"));
        assert_eq!(sorted, want);
    }
}
