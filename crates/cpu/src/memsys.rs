//! The memory-system adapter: routes accesses to the hierarchy and the
//! port schedulers, and accumulates bandwidth/activity counters.

use crate::config::ProcessorConfig;
use mom3d_isa::MemAccess;
use mom3d_mem::{
    BackendId, BackendRegistry, BackendStats, BankedConfig, LineSet, MemHierarchy,
    VectorMemoryBackend,
};

/// Extra cycles per additional outstanding L2 miss beyond the first
/// (misses to main memory are pipelined, not serialized).
const MISS_PIPELINE_CYCLES: u32 = 8;

/// Timing of one memory instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOpTiming {
    /// Cycles the issuing port is occupied.
    pub occupancy: u32,
    /// Cycles from issue until the data is available (added on top of
    /// the occupancy).
    pub latency: u32,
}

/// The vector/scalar memory system of one simulation run.
///
/// Port scheduling is delegated to the configured
/// [`VectorMemoryBackend`]; the hierarchy (tag lookups, hit/miss
/// accounting, coherence) and the bandwidth counters are shared by all
/// backends.
#[derive(Debug)]
pub struct MemorySystem {
    backend: Box<dyn VectorMemoryBackend>,
    /// Cached [`VectorMemoryBackend::is_ideal`] (checked on every
    /// access).
    ideal: bool,
    hierarchy: MemHierarchy,
    banked: BankedConfig,
    /// Vector-port grant cycles (Figure 6 denominator).
    pub port_accesses: u64,
    /// Energy-relevant vector-side L2 accesses (Table 4).
    pub l2_activity: u64,
    /// 64-bit words moved by vector memory instructions (Figures 6/7).
    pub vec_words: u64,
    /// 3D-register-file element writes performed by `3dvload`s (one lane
    /// write per fetched element) — the Figure 11 3D-RF energy input.
    pub d3_writes: u64,
    /// Scratch block list, reused across accesses so the per-instruction
    /// path does not allocate in steady state.
    blocks_buf: Vec<(u64, u32)>,
    /// Scratch line deduplicator, reused for the same reason (its hash
    /// index is only filled for accesses of more than 32 lines).
    line_set: LineSet,
}

impl MemorySystem {
    /// Builds the memory system for a processor configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.memory` names a backend that is not registered
    /// ([`crate::Processor::run`] checks this first and returns
    /// [`crate::SimError::UnknownBackend`] instead).
    pub fn new(config: &ProcessorConfig) -> Self {
        Self::with_hierarchy(config, MemHierarchy::new(config.hierarchy))
    }

    /// Builds the memory system around an existing (typically warmed and
    /// re-timed) hierarchy instead of an empty one.
    ///
    /// # Panics
    ///
    /// As [`MemorySystem::new`].
    pub(crate) fn with_hierarchy(config: &ProcessorConfig, hierarchy: MemHierarchy) -> Self {
        let backend = BackendRegistry::build(config.memory, &config.backend_params())
            .unwrap_or_else(|| {
                panic!("memory backend {:?} is not registered", config.memory.as_str())
            });
        MemorySystem {
            ideal: backend.is_ideal(),
            backend,
            hierarchy,
            banked: config.banked,
            port_accesses: 0,
            l2_activity: 0,
            vec_words: 0,
            d3_writes: 0,
            blocks_buf: Vec::new(),
            line_set: LineSet::new(),
        }
    }

    /// The configured backend's id.
    pub fn backend_id(&self) -> BackendId {
        self.backend.id()
    }

    /// Backend-specific counters (e.g. DRAM row-buffer hits/misses).
    pub fn backend_stats(&self) -> BackendStats {
        self.backend.stats()
    }

    /// Read-only view of the hierarchy (for stats extraction).
    pub fn hierarchy(&self) -> &MemHierarchy {
        &self.hierarchy
    }

    /// Bank index of a scalar address (for L1 bank-conflict modelling).
    pub fn bank_of(&self, addr: u64) -> usize {
        self.banked.bank_of(addr)
    }

    /// Pre-touches every line referenced by `trace` (both cache levels),
    /// then clears the hierarchy statistics, so a subsequent simulation
    /// measures steady-state hit behaviour. A no-op on an ideal backend,
    /// which never consults the hierarchy.
    pub fn warm_from_trace(&mut self, trace: &mom3d_isa::Trace) {
        if self.ideal {
            return;
        }
        warm(&mut self.hierarchy, trace, &mut self.blocks_buf, &mut self.line_set);
    }

    /// Performs a scalar or µSIMD access; returns its latency.
    pub fn scalar_access(&mut self, mem: &MemAccess, is_write: bool) -> u32 {
        if self.ideal {
            return 1;
        }
        self.hierarchy.scalar_access(mem.base, mem.elem_bytes, is_write)
    }

    /// Performs a vector memory access (2D load/store or `3dvload`);
    /// returns its port occupancy and completion latency, and updates
    /// the bandwidth/activity counters.
    ///
    /// The cost is per distinct L2 line: the reused [`LineSet`] dedupes
    /// the lines by a short linear scan, and each line is one
    /// [`MemHierarchy::vector_line_access`]: one L2 access, a
    /// shift-and-mask tag lookup, preceded by the coherence probes of
    /// the L1 lines it covers (four at the paper geometry) only while
    /// the L1 holds a valid line. Nothing on the path hashes or
    /// allocates in steady state.
    pub fn vector_access(&mut self, mem: &MemAccess, is_store: bool, is_3d: bool) -> MemOpTiming {
        if self.ideal {
            self.vec_words += mem.total_bytes().div_ceil(8);
            return MemOpTiming { occupancy: 1, latency: 1 };
        }
        self.blocks_buf.clear();
        self.blocks_buf.extend(mem.blocks());

        // Tag lookups: one per distinct L2 line touched.
        let line_bytes = self.hierarchy.config().l2.line_bytes as u64;
        self.line_set.collect(&self.blocks_buf, line_bytes);
        let mut misses = 0u32;
        for &line in self.line_set.lines() {
            if !self.hierarchy.vector_line_access(line, is_store).hit {
                misses += 1;
            }
        }

        // Port scheduling: who wins how many words per cycle.
        let schedule = self.backend.schedule(&self.blocks_buf, is_3d);
        self.port_accesses += schedule.port_cycles as u64;
        self.l2_activity += schedule.cache_accesses;
        self.vec_words += schedule.words;
        if is_3d {
            self.d3_writes += mem.count as u64;
        }

        let hierarchy = self.hierarchy.config();
        let miss_penalty = if misses > 0 {
            hierarchy.mem_latency + (misses - 1) * MISS_PIPELINE_CYCLES
        } else {
            0
        };
        MemOpTiming {
            occupancy: schedule.port_cycles,
            latency: hierarchy.l2_latency + miss_penalty,
        }
    }
}

/// Pre-touches every line `trace` references in `hierarchy` and clears
/// its statistics. Only the access sequence and the cache geometry
/// decide the resulting contents; the latencies play no part.
pub(crate) fn warm(
    hierarchy: &mut MemHierarchy,
    trace: &mom3d_isa::Trace,
    blocks_buf: &mut Vec<(u64, u32)>,
    line_set: &mut LineSet,
) {
    let line_bytes = hierarchy.config().l2.line_bytes as u64;
    for instr in trace.iter() {
        let Some(mem) = &instr.mem else { continue };
        match instr.opcode.class() {
            mom3d_isa::ExecClass::Mem => {
                hierarchy.scalar_access(mem.base, mem.elem_bytes, instr.opcode.is_store());
            }
            mom3d_isa::ExecClass::VecMem => {
                blocks_buf.clear();
                blocks_buf.extend(mem.blocks());
                line_set.collect(blocks_buf, line_bytes);
                for &line in line_set.lines() {
                    hierarchy.vector_line_access(line, instr.opcode.is_store());
                }
            }
            _ => {}
        }
    }
    hierarchy.reset_stats();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MemorySystemKind, ProcessorConfig};

    fn system(kind: MemorySystemKind) -> MemorySystem {
        MemorySystem::new(&ProcessorConfig::mom().with_memory(kind))
    }

    #[test]
    fn ideal_is_flat() {
        let mut s = system(MemorySystemKind::Ideal);
        let m = MemAccess::strided2d(0x1000, 640, 8);
        let t = s.vector_access(&m, false, false);
        assert_eq!(t, MemOpTiming { occupancy: 1, latency: 1 });
        assert_eq!(s.vec_words, 8);
        assert_eq!(s.l2_activity, 0);
    }

    #[test]
    fn vector_cache_strided_costs_vl_cycles() {
        let mut s = system(MemorySystemKind::VectorCache);
        let m = MemAccess::strided2d(0x1000, 640, 8);
        let t = s.vector_access(&m, false, false);
        assert_eq!(t.occupancy, 8, "one element per cycle for non-unit stride");
        // Cold: 8 distinct lines missed.
        assert_eq!(t.latency, 20 + 100 + 7 * MISS_PIPELINE_CYCLES);
        // Warm: same access hits.
        let t = s.vector_access(&m, false, false);
        assert_eq!(t.latency, 20);
    }

    #[test]
    fn vector_cache_unit_stride_is_wide() {
        let mut s = system(MemorySystemKind::VectorCache);
        let m = MemAccess::strided2d(0x1000, 8, 16);
        let t = s.vector_access(&m, false, false);
        assert_eq!(t.occupancy, 4); // 16 words / 4-wide port
        assert_eq!(s.port_accesses, 4);
        assert_eq!(s.vec_words, 16);
    }

    #[test]
    fn multibanked_parallel_banks() {
        let mut s = system(MemorySystemKind::MultiBanked);
        let m = MemAccess::strided2d(0x1000, 8, 16);
        let t = s.vector_access(&m, false, false);
        assert_eq!(t.occupancy, 4); // 4 ports x 8 banks, unit stride
        assert_eq!(s.l2_activity, 16, "each element is a bank access");
    }

    #[test]
    fn multibanked_conflicts() {
        let mut s = system(MemorySystemKind::MultiBanked);
        // Stride 64 B = bank 0 every time.
        let m = MemAccess::strided2d(0, 64, 8);
        let t = s.vector_access(&m, false, false);
        assert_eq!(t.occupancy, 8);
    }

    #[test]
    fn dvload_uses_wide_path() {
        let mut s = system(MemorySystemKind::VectorCache3d);
        let m = MemAccess::strided3d(0x1000, 640, 16, 16);
        let t = s.vector_access(&m, false, true);
        assert_eq!(t.occupancy, 16, "one 128-byte element per cycle");
        assert_eq!(s.vec_words, 256);
        assert_eq!(s.l2_activity, 16);
        // Effective bandwidth of this access: 16 words per access.
        assert_eq!(s.vec_words / s.port_accesses, 16);
    }

    #[test]
    fn l2_latency_flows_through() {
        let mut s = MemorySystem::new(
            &ProcessorConfig::mom()
                .with_memory(MemorySystemKind::VectorCache)
                .with_l2_latency(60),
        );
        let m = MemAccess::strided2d(0x1000, 640, 4);
        s.vector_access(&m, false, false); // warm up
        let t = s.vector_access(&m, false, false);
        assert_eq!(t.latency, 60);
    }

    #[test]
    fn dram_burst_backend_runs_through_the_adapter() {
        let mut s = MemorySystem::new(
            &ProcessorConfig::mom().with_memory(BackendId::new("dram-burst")),
        );
        assert_eq!(s.backend_id().as_str(), "dram-burst");
        let m = MemAccess::strided2d(0x1000, 8, 16);
        // Cold: 4 bursts of 4 words + one row activate (default 6 cy).
        let t = s.vector_access(&m, false, false);
        assert_eq!(t.occupancy, 4 + 6);
        assert_eq!(s.backend_stats().row_misses, 1);
        // The row stays open across instructions: burst rate.
        let t = s.vector_access(&m, false, false);
        assert_eq!(t.occupancy, 4);
        assert_eq!(s.vec_words, 32);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unknown_backend_panics_with_clear_message() {
        MemorySystem::new(&ProcessorConfig::mom().with_memory(BackendId::new("no-such")));
    }

    #[test]
    fn scalar_goes_through_l1() {
        let mut s = system(MemorySystemKind::VectorCache);
        let m = MemAccess::scalar(0x500, 4);
        let cold = s.scalar_access(&m, false);
        assert!(cold > 100);
        let warm = s.scalar_access(&m, false);
        assert_eq!(warm, 1);
    }
}
