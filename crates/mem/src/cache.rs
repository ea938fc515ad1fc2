//! Set-associative tag-array cache model.

use std::fmt;

/// Write-allocation policy of a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WritePolicy {
    /// Write-through, no write-allocate (the paper's L1).
    WriteThrough,
    /// Write-back, write-allocate (the paper's L2).
    WriteBack,
}

/// Geometry and policy of a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Write policy.
    pub write_policy: WritePolicy,
}

impl CacheConfig {
    /// The paper's L1: 64 KB, 2-way, 32-byte lines, write-through (§5.3).
    pub fn l1_64kb() -> Self {
        CacheConfig {
            size_bytes: 64 * 1024,
            assoc: 2,
            line_bytes: 32,
            write_policy: WritePolicy::WriteThrough,
        }
    }

    /// The paper's L2: 2 MB, 4-way, 128-byte lines, write-back (§5.3).
    pub fn l2_2mb() -> Self {
        CacheConfig {
            size_bytes: 2 * 1024 * 1024,
            assoc: 4,
            line_bytes: 128,
            write_policy: WritePolicy::WriteBack,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.assoc * self.line_bytes)
    }

    /// Line-aligned address of the line containing `addr`.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes as u64 - 1)
    }

    fn validate(&self) {
        assert!(self.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(self.assoc >= 1, "associativity must be at least 1");
        assert!(
            self.size_bytes.is_multiple_of(self.assoc * self.line_bytes),
            "size must be a multiple of assoc * line size"
        );
        assert!(self.sets().is_power_of_two(), "set count must be a power of two");
    }
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// True when the line was resident.
    pub hit: bool,
    /// Line-aligned address of a dirty line evicted by this access.
    pub writeback: Option<u64>,
}

/// Hit/miss/traffic counters of a cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses (reads + writes).
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
    /// Dirty evictions.
    pub writebacks: u64,
    /// Lines filled from the next level.
    pub fills: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; zero when no accesses occurred.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {:.1}% hit, {} writebacks",
            self.accesses,
            self.hit_rate() * 100.0,
            self.writebacks
        )
    }
}

/// One way of a set. Sixteen bytes, so a 4-way set (the paper's L2)
/// spans one 64-byte host cache line and the tag array a sweep clones
/// per cell is two thirds the size of a layout with separate `valid`
/// and `dirty` flags. Alternating benchmark pairs against that layout
/// showed no measurable time or memory gain either way; the packing is
/// kept for the smaller clone, at the cost of one invariant: a stamp
/// of zero is an invalid way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Way {
    /// The line's tag: its address shifted right past the set index.
    tag: u64,
    /// `tick << 1 | dirty`, with `tick` the cache's access count at the
    /// way's last use (larger = more recently used). Every access
    /// advances the tick before using it, so a valid way's stamp is at
    /// least 2 and zero marks an invalid way.
    stamp: u64,
}

const INVALID_WAY: Way = Way { tag: 0, stamp: 0 };

impl Way {
    #[inline]
    fn is_valid(&self) -> bool {
        self.stamp != 0
    }

    #[inline]
    fn is_dirty(&self) -> bool {
        self.stamp & 1 != 0
    }

    /// True when this way holds the line with tag `tag`.
    #[inline]
    fn holds(&self, tag: u64) -> bool {
        self.is_valid() && self.tag == tag
    }
}

/// A set-associative, true-LRU tag array.
///
/// The cache tracks presence and dirtiness only; actual data always lives
/// in [`crate::MainMemory`], which keeps the timing model and the
/// functional emulator decoupled (a standard trace-driven-simulator
/// structure).
///
/// Line size and set count are powers of two, so a lookup splits the
/// address with shifts and a mask precomputed by [`Cache::new`]:
/// `addr >> tag_shift` is the tag, `(addr >> line_shift) & set_mask`
/// the set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cache {
    config: CacheConfig,
    ways: Vec<Way>,
    /// Number of valid ways, kept in step with `ways` by every fill and
    /// invalidation, so [`Cache::resident_lines`] is O(1).
    valid: usize,
    stats: CacheStats,
    tick: u64,
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// `sets - 1`.
    set_mask: u64,
    /// `log2(line_bytes * sets)`.
    tag_shift: u32,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is not self-consistent (non-power-of-2
    /// sets, zero associativity, ...).
    pub fn new(config: CacheConfig) -> Self {
        config.validate();
        let sets = config.sets();
        let line_shift = config.line_bytes.trailing_zeros();
        Cache {
            config,
            ways: vec![INVALID_WAY; sets * config.assoc],
            valid: 0,
            stats: CacheStats::default(),
            tick: 0,
            line_shift,
            set_mask: sets as u64 - 1,
            tag_shift: line_shift + sets.trailing_zeros(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (not contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    #[inline]
    fn set_index(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) & self.set_mask) as usize
    }

    #[inline]
    fn tag_of(&self, addr: u64) -> u64 {
        addr >> self.tag_shift
    }

    /// Range of `ways` holding the set of `addr`.
    #[inline]
    fn set_range(&self, addr: u64) -> std::ops::Range<usize> {
        let start = self.set_index(addr) * self.config.assoc;
        start..start + self.config.assoc
    }

    /// True when the line containing `addr` is resident (no side effects,
    /// no statistics).
    pub fn probe(&self, addr: u64) -> bool {
        let tag = self.tag_of(addr);
        self.ways[self.set_range(addr)].iter().any(|w| w.holds(tag))
    }

    /// Performs one access to the line containing `addr`.
    ///
    /// On a miss the line is filled (for writes under write-through, the
    /// line is *not* allocated, matching no-write-allocate). Returns the
    /// hit flag and any dirty line evicted to make room.
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessResult {
        self.stats.accesses += 1;
        self.tick += 1;
        let tag = self.tag_of(addr);
        let range = self.set_range(addr);
        let write_back = self.config.write_policy == WritePolicy::WriteBack;
        let dirty = (is_write && write_back) as u64;
        let stamp = self.tick << 1;
        let ways = &mut self.ways[range];
        if let Some(w) = ways.iter_mut().find(|w| w.holds(tag)) {
            w.stamp = stamp | (w.stamp & 1) | dirty;
            self.stats.hits += 1;
            return AccessResult { hit: true, writeback: None };
        }

        self.stats.misses += 1;
        if is_write && !write_back {
            // No-write-allocate: the write goes straight through.
            return AccessResult { hit: false, writeback: None };
        }

        // Fill: choose an invalid way (stamp 0), else the LRU way. Valid
        // ways carry distinct ticks, so the dirty bit never decides.
        let victim = ways.iter_mut().min_by_key(|w| w.stamp).expect("associativity >= 1");
        let writeback = victim.is_dirty().then(|| {
            // Reconstruct the victim's line address from its tag.
            (victim.tag << self.tag_shift) | (addr & (self.set_mask << self.line_shift))
        });
        self.valid += !victim.is_valid() as usize;
        *victim = Way { tag, stamp: stamp | dirty };
        self.stats.fills += 1;
        if writeback.is_some() {
            self.stats.writebacks += 1;
        }
        AccessResult { hit: false, writeback }
    }

    /// Invalidates the line containing `addr`, returning its address if
    /// it was resident and dirty (caller must write it back).
    pub fn invalidate(&mut self, addr: u64) -> Option<u64> {
        let tag = self.tag_of(addr);
        let range = self.set_range(addr);
        let w = self.ways[range].iter_mut().find(|w| w.holds(tag))?;
        let was_dirty = w.is_dirty();
        *w = INVALID_WAY;
        self.valid -= 1;
        was_dirty.then(|| self.config.line_of(addr))
    }

    /// Number of valid lines currently resident, in O(1).
    pub fn resident_lines(&self) -> usize {
        self.valid
    }
}

/// The pre-rewrite cache, kept verbatim as the oracle for the
/// equivalence property test: it indexed with divisions by the line size
/// and set count, and kept `valid` and `dirty` flags beside a 24-byte
/// way's tag and LRU tick.
#[cfg(test)]
#[allow(dead_code)] // `Cache::config` is unused, but kept with the rest
mod reference {
    use super::{AccessResult, CacheConfig, CacheStats, WritePolicy};

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Way {
        tag: u64,
        valid: bool,
        dirty: bool,
        lru: u64, // larger = more recently used
    }

    const INVALID_WAY: Way = Way { tag: 0, valid: false, dirty: false, lru: 0 };

    /// A set-associative, true-LRU tag array.
    ///
    /// The cache tracks presence and dirtiness only; actual data always lives
    /// in [`crate::MainMemory`], which keeps the timing model and the
    /// functional emulator decoupled (a standard trace-driven-simulator
    /// structure).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Cache {
        config: CacheConfig,
        ways: Vec<Way>,
        stats: CacheStats,
        tick: u64,
    }

    impl Cache {
        /// Creates an empty (all-invalid) cache.
        ///
        /// # Panics
        ///
        /// Panics if the configuration is not self-consistent (non-power-of-2
        /// sets, zero associativity, ...).
        pub fn new(config: CacheConfig) -> Self {
            config.validate();
            Cache {
                config,
                ways: vec![INVALID_WAY; config.sets() * config.assoc],
                stats: CacheStats::default(),
                tick: 0,
            }
        }

        /// The cache geometry.
        pub fn config(&self) -> &CacheConfig {
            &self.config
        }

        /// Accumulated statistics.
        pub fn stats(&self) -> &CacheStats {
            &self.stats
        }

        /// Resets statistics (not contents).
        pub fn reset_stats(&mut self) {
            self.stats = CacheStats::default();
        }

        #[inline]
        fn set_index(&self, addr: u64) -> usize {
            ((addr / self.config.line_bytes as u64) % self.config.sets() as u64) as usize
        }

        #[inline]
        fn tag_of(&self, addr: u64) -> u64 {
            addr / self.config.line_bytes as u64 / self.config.sets() as u64
        }

        fn set_ways(&mut self, set: usize) -> &mut [Way] {
            let a = self.config.assoc;
            &mut self.ways[set * a..(set + 1) * a]
        }

        /// True when the line containing `addr` is resident (no side effects,
        /// no statistics).
        pub fn probe(&self, addr: u64) -> bool {
            let set = self.set_index(addr);
            let tag = self.tag_of(addr);
            let a = self.config.assoc;
            self.ways[set * a..(set + 1) * a]
                .iter()
                .any(|w| w.valid && w.tag == tag)
        }

        /// Performs one access to the line containing `addr`.
        ///
        /// On a miss the line is filled (for writes under write-through, the
        /// line is *not* allocated, matching no-write-allocate). Returns the
        /// hit flag and any dirty line evicted to make room.
        pub fn access(&mut self, addr: u64, is_write: bool) -> AccessResult {
            self.stats.accesses += 1;
            self.tick += 1;
            let tick = self.tick;
            let set = self.set_index(addr);
            let tag = self.tag_of(addr);
            let write_policy = self.config.write_policy;
            let line_bytes = self.config.line_bytes as u64;
            let sets = self.config.sets() as u64;
            {
                let ways = self.set_ways(set);
                if let Some(w) = ways.iter_mut().find(|w| w.valid && w.tag == tag) {
                    w.lru = tick;
                    if is_write && write_policy == WritePolicy::WriteBack {
                        w.dirty = true;
                    }
                    self.stats.hits += 1;
                    return AccessResult { hit: true, writeback: None };
                }
            }

            self.stats.misses += 1;
            if is_write && write_policy == WritePolicy::WriteThrough {
                // No-write-allocate: the write goes straight through.
                return AccessResult { hit: false, writeback: None };
            }

            // Fill: choose an invalid way, else the LRU way.
            let writeback = {
                let ways = self.set_ways(set);
                let victim = ways
                    .iter_mut()
                    .min_by_key(|w| if w.valid { w.lru + 1 } else { 0 })
                    .expect("associativity >= 1");
                let writeback = (victim.valid && victim.dirty).then(|| {
                    // Reconstruct the victim's line address from its tag.
                    (victim.tag * sets + set as u64) * line_bytes
                });
                *victim = Way {
                    tag,
                    valid: true,
                    dirty: is_write && write_policy == WritePolicy::WriteBack,
                    lru: tick,
                };
                writeback
            };
            self.stats.fills += 1;
            if writeback.is_some() {
                self.stats.writebacks += 1;
            }
            AccessResult { hit: false, writeback }
        }

        /// Invalidates the line containing `addr`, returning its address if
        /// it was resident and dirty (caller must write it back).
        pub fn invalidate(&mut self, addr: u64) -> Option<u64> {
            let set = self.set_index(addr);
            let tag = self.tag_of(addr);
            let line = self.config.line_of(addr);
            let ways = self.set_ways(set);
            for w in ways {
                if w.valid && w.tag == tag {
                    let was_dirty = w.dirty;
                    *w = INVALID_WAY;
                    return was_dirty.then_some(line);
                }
            }
            None
        }

        /// Number of valid lines currently resident.
        pub fn resident_lines(&self) -> usize {
            self.ways.iter().filter(|w| w.valid).count()
        }
    }
}

#[cfg(test)]
mod equivalence {
    use super::*;
    use proptest::prelude::*;

    /// `(log2 line bytes, associativity, log2 sets, write-back)`: lines
    /// of 8–256 B, 1–8 ways, 1–4096 sets, either policy.
    fn arb_geometry() -> impl Strategy<Value = CacheConfig> {
        (3u32..=8, 1usize..=8, 0u32..=12, any::<bool>()).prop_map(
            |(line_shift, assoc, set_shift, write_back)| {
                let line_bytes = 1usize << line_shift;
                CacheConfig {
                    size_bytes: (line_bytes * assoc) << set_shift,
                    assoc,
                    line_bytes,
                    write_policy: if write_back {
                        WritePolicy::WriteBack
                    } else {
                        WritePolicy::WriteThrough
                    },
                }
            },
        )
    }

    /// `(op, tag, set, offset, wild address)`. Op 0–3 reads, 4–6
    /// writes, 7 probes, 8 invalidates and 9 resets the statistics.
    fn arb_ops() -> impl Strategy<Value = Vec<(u8, u64, u64, u64, u64)>> {
        proptest::collection::vec(
            (0u8..10, any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            1..300,
        )
    }

    /// Most addresses crowd a few sets with twice as many tags as there
    /// are ways, tag 0 included, so fills, evictions and writebacks are
    /// frequent; one in eight is an arbitrary 64-bit address.
    fn address(cfg: &CacheConfig, (tag, set, offset, wild): (u64, u64, u64, u64)) -> u64 {
        if wild % 8 == 0 {
            return wild;
        }
        let sets = cfg.sets() as u64;
        let tag = tag % (2 * cfg.assoc as u64 + 1);
        let set = set % sets.min(3);
        (tag * sets + set) * cfg.line_bytes as u64 + offset % cfg.line_bytes as u64
    }

    proptest! {
        /// The shift/mask cache with 16-byte ways answers every access,
        /// probe and invalidate exactly as the division-indexed cache
        /// it replaced, writeback addresses included, and keeps the
        /// same statistics and residency throughout.
        #[test]
        fn cache_matches_reference(cfg in arb_geometry(), ops in arb_ops()) {
            let mut fast = Cache::new(cfg);
            let mut slow = reference::Cache::new(cfg);
            for (op, tag, set, offset, wild) in ops {
                let addr = address(&cfg, (tag, set, offset, wild));
                match op {
                    0..=6 => {
                        let is_write = op >= 4;
                        prop_assert_eq!(
                            fast.access(addr, is_write),
                            slow.access(addr, is_write),
                            "access({:#x}, {}) on {:?}", addr, is_write, cfg
                        );
                    }
                    7 => prop_assert_eq!(fast.probe(addr), slow.probe(addr)),
                    8 => prop_assert_eq!(fast.invalidate(addr), slow.invalidate(addr)),
                    _ => {
                        fast.reset_stats();
                        slow.reset_stats();
                    }
                }
                prop_assert_eq!(fast.stats(), slow.stats());
                prop_assert_eq!(fast.resident_lines(), slow.resident_lines());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 16B lines = 128 B.
        Cache::new(CacheConfig {
            size_bytes: 128,
            assoc: 2,
            line_bytes: 16,
            write_policy: WritePolicy::WriteBack,
        })
    }

    #[test]
    fn paper_geometries() {
        let l1 = CacheConfig::l1_64kb();
        assert_eq!(l1.sets(), 1024);
        let l2 = CacheConfig::l2_2mb();
        assert_eq!(l2.sets(), 4096);
        assert_eq!(l2.line_of(0x1234), 0x1200); // 128-byte aligned
        assert_eq!(l2.line_of(0x127F), 0x1200);
        assert_eq!(l2.line_of(0x1280), 0x1280);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x100, false).hit);
        assert!(c.access(0x100, false).hit);
        assert!(c.access(0x10F, false).hit); // same line
        assert!(!c.access(0x110, false).hit); // next line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines whose (addr/16) % 4 == 0: 0x000, 0x040, 0x080...
        c.access(0x000, false);
        c.access(0x040, false);
        c.access(0x000, false); // refresh line 0
        c.access(0x080, false); // evicts 0x040 (LRU)
        assert!(c.probe(0x000));
        assert!(!c.probe(0x040));
        assert!(c.probe(0x080));
    }

    #[test]
    fn writeback_of_dirty_victim() {
        let mut c = tiny();
        c.access(0x000, true); // dirty
        c.access(0x040, false);
        let r = c.access(0x080, false); // evicts dirty 0x000
        assert_eq!(r.writeback, Some(0x000));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_through_does_not_allocate() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 128,
            assoc: 2,
            line_bytes: 16,
            write_policy: WritePolicy::WriteThrough,
        });
        assert!(!c.access(0x0, true).hit);
        assert!(!c.probe(0x0)); // not allocated
        c.access(0x0, false); // read allocates
        assert!(c.probe(0x0));
        let r = c.access(0x0, true); // write hit, but never dirty
        assert!(r.hit);
        c.access(0x40, false);
        let r = c.access(0x80, false);
        assert_eq!(r.writeback, None); // WT lines are never dirty
    }

    #[test]
    fn invalidate_returns_dirty_line() {
        let mut c = tiny();
        c.access(0x000, true);
        assert_eq!(c.invalidate(0x008), Some(0x000)); // same line, dirty
        assert!(!c.probe(0x000));
        c.access(0x040, false);
        assert_eq!(c.invalidate(0x040), None); // clean
        assert_eq!(c.invalidate(0x040), None); // already gone
    }

    #[test]
    fn victim_line_address_reconstruction() {
        // Fill way beyond one set round to force eviction with high tags.
        let mut c = tiny();
        c.access(0x1000, true); // set (0x1000/16)%4 = 0, dirty
        c.access(0x2000, false); // same set 0
        let r = c.access(0x3000, false); // evicts 0x1000
        assert_eq!(r.writeback, Some(0x1000));
    }

    #[test]
    fn stats_hit_rate() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, false);
        c.access(0, false);
        c.access(0, false);
        assert!((c.stats().hit_rate() - 0.75).abs() < 1e-9);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        Cache::new(CacheConfig {
            size_bytes: 96,
            assoc: 2,
            line_bytes: 12,
            write_policy: WritePolicy::WriteBack,
        });
    }

    #[test]
    fn large_cache_holds_working_set() {
        let mut c = Cache::new(CacheConfig::l2_2mb());
        // A 1 MB working set fits in a 2 MB cache with 4-way assoc.
        for addr in (0..1024 * 1024u64).step_by(128) {
            c.access(addr, false);
        }
        for addr in (0..1024 * 1024u64).step_by(128) {
            assert!(c.probe(addr), "line {addr:#x} should be resident");
        }
    }
}
