//! The two-level cache hierarchy with exclusive-bit scalar/vector
//! coherence (§5.3).
//!
//! Scalar accesses flow through the L1; MOM/3D vector accesses bypass the
//! L1 and reference the L2 directly. Because a line can be touched from
//! both sides, the paper adopts "a simple coherence protocol, based on an
//! exclusive-bit policy": we model it by invalidating the L1 copies of
//! any line a vector access touches (write-through L1 means the L2 is
//! always up to date, so invalidation never loses data).

use crate::cache::{Cache, CacheConfig, CacheStats};

/// Latency and geometry configuration of the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 geometry (scalar side).
    pub l1: CacheConfig,
    /// L2 geometry (shared).
    pub l2: CacheConfig,
    /// L1 hit latency in cycles (paper: 1).
    pub l1_latency: u32,
    /// L2 hit latency in cycles (paper: 20; swept 20/40/60 in Figure 10).
    pub l2_latency: u32,
    /// Main-memory access latency in cycles.
    pub mem_latency: u32,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            l1: CacheConfig::l1_64kb(),
            l2: CacheConfig::l2_2mb(),
            l1_latency: 1,
            l2_latency: 20,
            mem_latency: 100,
        }
    }
}

impl HierarchyConfig {
    /// Returns the configuration with a different L2 latency (Figure 10's
    /// sweep knob).
    pub fn with_l2_latency(mut self, cycles: u32) -> Self {
        self.l2_latency = cycles;
        self
    }
}

/// Counters accumulated by the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Scalar-side L1 lookups.
    pub l1_accesses: u64,
    /// L2 lookups from the scalar side (L1 misses + write-throughs).
    pub l2_scalar_accesses: u64,
    /// L2 line lookups from the vector side.
    pub l2_vector_accesses: u64,
    /// L2 hits (both sides).
    pub l2_hits: u64,
    /// L2 misses (both sides).
    pub l2_misses: u64,
    /// Lines filled from main memory.
    pub mem_fills: u64,
    /// Dirty lines written back to main memory.
    pub mem_writebacks: u64,
    /// L1 lines invalidated by vector accesses (coherence actions).
    pub coherence_invalidations: u64,
}

impl HierarchyStats {
    /// Total L2 lookups.
    pub fn l2_accesses(&self) -> u64 {
        self.l2_scalar_accesses + self.l2_vector_accesses
    }
}

/// Outcome of a vector-side line access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorAccessOutcome {
    /// True when the line was resident in L2.
    pub hit: bool,
    /// Cycles until the data is available (L2 latency, plus memory on a
    /// miss).
    pub latency: u32,
}

/// The L1 + L2 hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemHierarchy {
    config: HierarchyConfig,
    l1: Cache,
    l2: Cache,
    stats: HierarchyStats,
}

impl MemHierarchy {
    /// Creates an empty hierarchy.
    pub fn new(config: HierarchyConfig) -> Self {
        MemHierarchy { config, l1: Cache::new(config.l1), l2: Cache::new(config.l2), stats: HierarchyStats::default() }
    }

    /// The configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Replaces the latencies with those of `config`, keeping the cache
    /// contents. Contents depend only on the access sequence and the
    /// geometry, so a hierarchy warmed once can be cloned and re-timed
    /// for every latency a sweep visits.
    ///
    /// # Panics
    ///
    /// Panics if `config` has a different L1 or L2 geometry.
    pub fn retime(&mut self, config: HierarchyConfig) {
        assert!(
            config.l1 == self.config.l1 && config.l2 == self.config.l2,
            "re-timing cannot change the cache geometry"
        );
        self.config = config;
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Resets all counters (hierarchy and per-cache) without touching
    /// cache contents — used after warming the caches to steady state.
    pub fn reset_stats(&mut self) {
        self.stats = HierarchyStats::default();
        self.l1.reset_stats();
        self.l2.reset_stats();
    }

    /// L1 tag-array statistics.
    pub fn l1_stats(&self) -> &CacheStats {
        self.l1.stats()
    }

    /// L2 tag-array statistics.
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// Performs a scalar access of `bytes` bytes at `addr` through the
    /// L1, returning the access latency in cycles.
    ///
    /// Write-through, no-write-allocate L1: stores update the L2
    /// unconditionally; loads fill the L1 on a miss. An access straddling
    /// an L1 line boundary touches both lines.
    pub fn scalar_access(&mut self, addr: u64, bytes: u8, is_write: bool) -> u32 {
        let mut latency = self.config.l1_latency;
        let line_bytes = self.config.l1.line_bytes as u64;
        // Counted rather than compared against `addr + bytes - 1`, so an
        // access at the top of the address space wraps instead of
        // overflowing. The count is `(offset + bytes).div_ceil(line_bytes)`,
        // by shift.
        let end = (addr & (line_bytes - 1)) + bytes.max(1) as u64;
        let lines = (end + line_bytes - 1) >> line_bytes.trailing_zeros();
        let mut line = self.config.l1.line_of(addr);
        for _ in 0..lines {
            self.stats.l1_accesses += 1;
            let l1_hit = self.l1.access(line, is_write).hit;
            if is_write {
                // Write-through: the store is forwarded to the L2.
                latency = latency.max(self.l2_line_access(line, true));
            } else if !l1_hit {
                latency = latency.max(self.config.l1_latency + self.l2_line_access(line, false));
            }
            line = line.wrapping_add(line_bytes);
        }
        latency
    }

    /// L2 lookup from the scalar side for one line; returns latency.
    fn l2_line_access(&mut self, addr: u64, is_write: bool) -> u32 {
        self.stats.l2_scalar_accesses += 1;
        let r = self.l2.access(addr, is_write);
        self.record_l2(r.hit, r.writeback.is_some());
        if r.hit {
            self.config.l2_latency
        } else {
            self.config.l2_latency + self.config.mem_latency
        }
    }

    /// Performs a vector-side access to the L2 line containing `addr`
    /// (MOM loads/stores and `3dvload` blocks), applying the
    /// exclusive-bit coherence rule: any L1 copies of the line are
    /// invalidated first.
    ///
    /// The L1 lines overlapping the L2 line are probed only while the L1
    /// holds any valid line at all. With none, no probe can hit, so
    /// skipping them changes nothing; vector-heavy traces spend most of
    /// their accesses in that state.
    pub fn vector_line_access(&mut self, addr: u64, is_write: bool) -> VectorAccessOutcome {
        let l2_line = self.config.l2.line_of(addr);
        if self.l1.resident_lines() > 0 {
            // Invalidate every L1 line overlapping this L2 line. Offsets
            // stay below the L2 line size, so the last line of the
            // address space does not overflow.
            let l1_bytes = self.config.l1.line_bytes as u64;
            for k in 0..(self.config.l2.line_bytes as u64).div_ceil(l1_bytes) {
                let l1_line = l2_line + k * l1_bytes;
                if self.l1.probe(l1_line) {
                    // The L1 is write-through, so invalidation never loses
                    // data; a dirty return here would indicate a model bug.
                    let dirty = self.l1.invalidate(l1_line);
                    debug_assert!(dirty.is_none(), "write-through L1 line cannot be dirty");
                    self.stats.coherence_invalidations += 1;
                }
            }
        }

        self.stats.l2_vector_accesses += 1;
        let r = self.l2.access(l2_line, is_write);
        self.record_l2(r.hit, r.writeback.is_some());
        let latency = if r.hit {
            self.config.l2_latency
        } else {
            self.config.l2_latency + self.config.mem_latency
        };
        VectorAccessOutcome { hit: r.hit, latency }
    }

    fn record_l2(&mut self, hit: bool, writeback: bool) {
        if hit {
            self.stats.l2_hits += 1;
        } else {
            self.stats.l2_misses += 1;
            self.stats.mem_fills += 1;
        }
        if writeback {
            self.stats.mem_writebacks += 1;
        }
    }

    /// Overall L2 hit rate across both sides.
    pub fn l2_hit_rate(&self) -> f64 {
        let total = self.stats.l2_hits + self.stats.l2_misses;
        if total == 0 {
            0.0
        } else {
            self.stats.l2_hits as f64 / total as f64
        }
    }
}

/// The pre-change access paths, kept as the oracle for the equivalence
/// property test: `scalar_access` walked its lines up to
/// `addr + bytes - 1`, and `vector_line_access` probed every L1 line of
/// the L2 line whether or not the L1 held anything.
#[cfg(test)]
mod reference {
    use super::{MemHierarchy, VectorAccessOutcome};

    pub fn scalar_access(h: &mut MemHierarchy, addr: u64, bytes: u8, is_write: bool) -> u32 {
        let mut latency = h.config.l1_latency;
        let first_line = h.config.l1.line_of(addr);
        let last_line = h.config.l1.line_of(addr + bytes.max(1) as u64 - 1);
        let mut line = first_line;
        loop {
            h.stats.l1_accesses += 1;
            let l1_hit = h.l1.access(line, is_write).hit;
            if is_write {
                // Write-through: the store is forwarded to the L2.
                latency = latency.max(h.l2_line_access(line, true));
            } else if !l1_hit {
                latency = latency.max(h.config.l1_latency + h.l2_line_access(line, false));
            }
            if line == last_line {
                break;
            }
            line += h.config.l1.line_bytes as u64;
        }
        latency
    }

    pub fn vector_line_access(
        h: &mut MemHierarchy,
        addr: u64,
        is_write: bool,
    ) -> VectorAccessOutcome {
        // Invalidate every L1 line overlapping this L2 line.
        let l2_line = h.config.l2.line_of(addr);
        let mut l1_line = l2_line;
        while l1_line < l2_line + h.config.l2.line_bytes as u64 {
            if h.l1.probe(l1_line) {
                // The L1 is write-through, so invalidation never loses
                // data; a dirty return here would indicate a model bug.
                let dirty = h.l1.invalidate(l1_line);
                debug_assert!(dirty.is_none(), "write-through L1 line cannot be dirty");
                h.stats.coherence_invalidations += 1;
            }
            l1_line += h.config.l1.line_bytes as u64;
        }

        h.stats.l2_vector_accesses += 1;
        let r = h.l2.access(l2_line, is_write);
        h.record_l2(r.hit, r.writeback.is_some());
        let latency = if r.hit {
            h.config.l2_latency
        } else {
            h.config.l2_latency + h.config.mem_latency
        };
        VectorAccessOutcome { hit: r.hit, latency }
    }
}

#[cfg(test)]
mod equivalence {
    use super::*;
    use crate::cache::WritePolicy;
    use proptest::prelude::*;

    /// Small hierarchies whose L1 fills and empties within a few dozen
    /// operations: a write-through L1 of 8–32 B lines, 1–2 ways and 1–4
    /// sets, and a write-back L2 whose lines are 1–8 L1 lines, with 1–4
    /// ways and 1–8 sets.
    fn arb_config() -> impl Strategy<Value = HierarchyConfig> {
        ((3u32..=5, 1usize..=2, 0u32..=2), (0u32..=3, 1usize..=4, 0u32..=3), 0u32..=3).prop_map(
            |((l1_shift, l1_assoc, l1_sets), (ratio, l2_assoc, l2_sets), l1_latency)| {
                let l1_line = 1usize << l1_shift;
                let l2_line = l1_line << ratio;
                HierarchyConfig {
                    l1: CacheConfig {
                        size_bytes: (l1_line * l1_assoc) << l1_sets,
                        assoc: l1_assoc,
                        line_bytes: l1_line,
                        write_policy: WritePolicy::WriteThrough,
                    },
                    l2: CacheConfig {
                        size_bytes: (l2_line * l2_assoc) << l2_sets,
                        assoc: l2_assoc,
                        line_bytes: l2_line,
                        write_policy: WritePolicy::WriteBack,
                    },
                    l1_latency,
                    l2_latency: 20,
                    mem_latency: 100,
                }
            },
        )
    }

    /// `(op, offset, bytes)`. Ops 0–3 are scalar loads, 4–5 scalar
    /// stores, 6–8 vector reads and 9 a vector write; scalar loads fill
    /// the L1 and vector accesses empty it again.
    fn arb_ops() -> impl Strategy<Value = Vec<(u8, u64, u8)>> {
        proptest::collection::vec((0u8..10, any::<u64>(), 1u8..=16), 1..300)
    }

    proptest! {
        /// The hierarchy that skips its coherence probes while the L1 is
        /// empty, and counts its scalar lines, answers every access
        /// exactly as the always-probing one, and keeps the same
        /// statistics and cache contents throughout.
        #[test]
        fn hierarchy_matches_reference(
            cfg in arb_config(),
            base in 0u64..1 << 40,
            ops in arb_ops(),
        ) {
            let mut fast = MemHierarchy::new(cfg);
            let mut slow = MemHierarchy::new(cfg);
            // Twice the L2's capacity: lines are evicted and come back.
            let span = 2 * cfg.l2.size_bytes as u64;
            for (op, offset, bytes) in ops {
                let addr = base + offset % span;
                match op {
                    0..=5 => {
                        let is_write = op >= 4;
                        prop_assert_eq!(
                            fast.scalar_access(addr, bytes, is_write),
                            reference::scalar_access(&mut slow, addr, bytes, is_write),
                            "scalar({:#x}, {}, {}) on {:?}", addr, bytes, is_write, cfg
                        );
                    }
                    _ => {
                        let is_write = op == 9;
                        prop_assert_eq!(
                            fast.vector_line_access(addr, is_write),
                            reference::vector_line_access(&mut slow, addr, is_write),
                            "vector({:#x}, {}) on {:?}", addr, is_write, cfg
                        );
                    }
                }
                prop_assert_eq!(fast.stats(), slow.stats());
                prop_assert_eq!(fast.l1_stats(), slow.l1_stats());
                prop_assert_eq!(fast.l2_stats(), slow.l2_stats());
            }
            prop_assert_eq!(&fast, &slow);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> MemHierarchy {
        MemHierarchy::new(HierarchyConfig::default())
    }

    #[test]
    fn scalar_load_l1_hit_is_fast() {
        let mut h = hierarchy();
        let cold = h.scalar_access(0x1000, 8, false);
        assert_eq!(cold, 1 + 20 + 100); // L1 miss, L2 miss, memory
        let warm = h.scalar_access(0x1000, 8, false);
        assert_eq!(warm, 1);
        let l2_only = h.scalar_access(0x1000 + 32, 8, false); // same L2 line, next L1 line
        assert_eq!(l2_only, 1 + 20);
    }

    #[test]
    fn scalar_store_write_through() {
        let mut h = hierarchy();
        h.scalar_access(0x2000, 8, true);
        // Store reached L2 (write-back allocates there).
        assert_eq!(h.stats().l2_scalar_accesses, 1);
        // L1 did not allocate (no-write-allocate).
        let lat = h.scalar_access(0x2000, 8, false);
        assert_eq!(lat, 1 + 20, "read after WT store: L1 miss, L2 hit");
    }

    #[test]
    fn vector_access_bypasses_l1() {
        let mut h = hierarchy();
        let r = h.vector_line_access(0x8000, false);
        assert!(!r.hit);
        assert_eq!(r.latency, 20 + 100);
        let r = h.vector_line_access(0x8000, false);
        assert!(r.hit);
        assert_eq!(r.latency, 20);
        assert_eq!(h.stats().l1_accesses, 0);
    }

    #[test]
    fn exclusive_bit_invalidates_l1_copies() {
        let mut h = hierarchy();
        // Scalar warms four L1 lines inside one L2 line.
        for i in 0..4u64 {
            h.scalar_access(0x4000 + i * 32, 8, false);
        }
        assert_eq!(h.scalar_access(0x4000, 8, false), 1); // L1 hit
        // Vector touches the L2 line -> L1 copies invalidated.
        h.vector_line_access(0x4000, false);
        assert!(h.stats().coherence_invalidations >= 4);
        assert_eq!(h.scalar_access(0x4000, 8, false), 1 + 20); // back to L2
    }

    #[test]
    fn l2_latency_knob() {
        let mut h = MemHierarchy::new(HierarchyConfig::default().with_l2_latency(60));
        h.vector_line_access(0x0, false);
        let r = h.vector_line_access(0x0, false);
        assert_eq!(r.latency, 60);
    }

    #[test]
    fn retime_keeps_contents_and_changes_latency() {
        let mut h = hierarchy();
        h.vector_line_access(0x0, false);
        h.retime(HierarchyConfig::default().with_l2_latency(60));
        let r = h.vector_line_access(0x0, false);
        assert!(r.hit, "the line stays resident");
        assert_eq!(r.latency, 60);
    }

    #[test]
    #[should_panic(expected = "geometry")]
    fn retime_refuses_a_different_geometry() {
        let mut config = HierarchyConfig::default();
        config.l1 = config.l2;
        hierarchy().retime(config);
    }

    #[test]
    fn straddling_scalar_access_touches_two_lines() {
        let mut h = hierarchy();
        h.scalar_access(0x101E, 8, false); // crosses the 32-byte boundary at 0x1020
        assert_eq!(h.stats().l1_accesses, 2);
    }

    #[test]
    fn stats_accumulate() {
        let mut h = hierarchy();
        h.vector_line_access(0x0, false);
        h.vector_line_access(0x80, false);
        h.vector_line_access(0x0, true);
        let s = h.stats();
        assert_eq!(s.l2_vector_accesses, 3);
        assert_eq!(s.l2_hits, 1);
        assert_eq!(s.l2_misses, 2);
        assert_eq!(s.l2_accesses(), 3);
        assert!((h.l2_hit_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn vector_store_marks_dirty_and_writes_back() {
        let mut h = hierarchy();
        h.vector_line_access(0x0, true); // dirty line at set 0
        // Evict it by filling the set: lines mapping to set 0 are
        // 0, 4096*128, 2*4096*128, ... (4096 sets x 128B lines).
        let set_stride = 4096u64 * 128;
        for i in 1..=4u64 {
            h.vector_line_access(i * set_stride, false);
        }
        assert_eq!(h.stats().mem_writebacks, 1);
    }

    #[test]
    fn scalar_access_at_the_top_of_the_address_space_wraps() {
        let mut h = hierarchy();
        // The last L1 line of the address space, then one straddling
        // into line 0.
        assert_eq!(h.scalar_access(u64::MAX - 7, 8, false), 1 + 20 + 100);
        assert_eq!(h.stats().l1_accesses, 1);
        h.scalar_access(u64::MAX - 3, 8, false);
        assert_eq!(h.stats().l1_accesses, 3);
        assert_eq!(h.scalar_access(0, 4, false), 1, "line 0 was filled by the wrap");
        // A vector access to the last L2 line invalidates its L1 copies.
        h.vector_line_access(u64::MAX, false);
        assert_eq!(h.stats().coherence_invalidations, 1);
    }

    #[test]
    fn an_empty_l1_skips_no_invalidation() {
        let mut h = hierarchy();
        h.vector_line_access(0x4000, false);
        assert_eq!(h.stats().coherence_invalidations, 0);
        h.scalar_access(0x4020, 8, false);
        h.vector_line_access(0x4000, false);
        assert_eq!(h.stats().coherence_invalidations, 1);
        // The L1 is empty again: the next access has nothing to probe.
        h.vector_line_access(0x4000, false);
        assert_eq!(h.stats().coherence_invalidations, 1);
        assert_eq!(h.scalar_access(0x4020, 8, false), 1 + 20);
    }
}
