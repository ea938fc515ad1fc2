//! Vector memory port schedulers.
//!
//! The paper compares three ways of feeding a SIMD pipeline from the L2
//! cache (§3.1 Figure 2, §5.3 Figure 8). Given the resolved element
//! addresses of one vector memory instruction, each scheduler computes
//!
//! * how many cycles the port (or bank array) is occupied,
//! * how many energy-relevant cache accesses are performed (the Table 4
//!   "activity" / Figure 11 power metric), and
//! * how many 64-bit words are transferred to the register files (the
//!   Figure 6 effective-bandwidth and Figure 7 traffic metric).
//!
//! The schedulers are pure functions so they can be property-tested and
//! reused by both the timing simulator and the analytical harness. They
//! sit on the innermost loop of every timing simulation (one call per
//! vector memory instruction), so the simulator's path through them
//! does not allocate in steady state: [`schedule_vector_cache`] streams
//! its word references directly from the `(address, length)` blocks
//! without materializing them, `BankScheduler` keeps the multi-banked
//! queue and bank mask across calls, and line deduplication
//! ([`LineSet`], [`distinct_lines`]) scans a short ordered list,
//! hashing only past 32 lines.
//!
//! ```
//! use mom3d_mem::{schedule_vector_cache, VectorCacheConfig};
//!
//! // Eight consecutive 64-bit words through a 4-word-wide port: two
//! // wide accesses, each delivering four words.
//! let blocks: Vec<(u64, u32)> = (0..8).map(|i| (0x1000 + 8 * i, 8)).collect();
//! let s = schedule_vector_cache(&VectorCacheConfig::default(), &blocks);
//! assert_eq!(s.port_cycles, 2);
//! assert_eq!(s.words_per_access(), 4.0);
//! ```

use std::collections::HashSet;

/// Result of scheduling one vector memory instruction on a port system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortSchedule {
    /// Cycles the port/bank array is busy servicing this instruction.
    pub port_cycles: u32,
    /// Energy-relevant cache accesses (bank reads for the multi-banked
    /// organization, wide-port accesses for the vector cache and 3D path).
    pub cache_accesses: u64,
    /// 64-bit words transferred between the cache and a register file.
    pub words: u64,
}

impl PortSchedule {
    /// Effective bandwidth of this instruction in words per access
    /// — the paper's Figure 6 metric. Zero when nothing was transferred.
    pub fn words_per_access(&self) -> f64 {
        if self.port_cycles == 0 {
            0.0
        } else {
            self.words as f64 / self.port_cycles as f64
        }
    }

    /// Accumulates another schedule (for whole-trace totals).
    pub fn merge(&mut self, other: &PortSchedule) {
        self.port_cycles += other.port_cycles;
        self.cache_accesses += other.cache_accesses;
        self.words += other.words;
    }
}

/// Multi-banked cache configuration (Figure 2-a): `ports` references per
/// cycle served by `banks` interleaved banks behind a crossbar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankedConfig {
    /// Concurrent references per cycle (the paper evaluates 4).
    pub ports: usize,
    /// Number of banks (the paper evaluates 8).
    pub banks: usize,
    /// Bank interleaving granularity in bytes (64-bit words).
    pub interleave_bytes: u64,
}

impl Default for BankedConfig {
    fn default() -> Self {
        BankedConfig { ports: 4, banks: 8, interleave_bytes: 8 }
    }
}

impl BankedConfig {
    /// Bank servicing byte address `addr`.
    #[inline]
    pub fn bank_of(&self, addr: u64) -> usize {
        ((addr / self.interleave_bytes) % self.banks as u64) as usize
    }
}

/// Vector cache configuration (Figure 2-b): one port of `width_words`
/// 64-bit words, fed by two interleaved line banks with an interchange
/// switch and shift&mask network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorCacheConfig {
    /// Words deliverable per access (the paper evaluates 4 × 64 bit).
    pub width_words: usize,
    /// L2 line size in bytes (bounds a wide access to two lines).
    pub line_bytes: u64,
}

impl Default for VectorCacheConfig {
    fn default() -> Self {
        VectorCacheConfig { width_words: 4, line_bytes: 128 }
    }
}

/// Schedules one vector instruction's element references on a
/// multi-banked cache.
///
/// Elements are granted greedily: each cycle takes up to `ports`
/// references whose banks do not collide, scanning the pending queue in
/// order (references blocked by a bank conflict retry next cycle; younger
/// references may bypass them, as a crossbar permits). Every granted
/// reference is one bank access — the multi-banked organization cannot
/// combine two references to the same line, which is exactly why its
/// Table 4 activity is high.
///
/// `blocks` holds `(address, length-in-bytes)` pairs; blocks wider than
/// the interleave granularity are split into words first.
///
/// ```
/// use mom3d_mem::{schedule_multibanked, BankedConfig};
///
/// // A 64-byte stride maps every reference to bank 0: full serialization.
/// let conflicting: Vec<(u64, u32)> = (0..8).map(|i| (64 * i, 8)).collect();
/// let s = schedule_multibanked(&BankedConfig::default(), &conflicting);
/// assert_eq!(s.port_cycles, 8);
/// // Unit stride spreads over all 8 banks: 4 ports grant 4 words/cycle.
/// let dense: Vec<(u64, u32)> = (0..8).map(|i| (8 * i, 8)).collect();
/// let s = schedule_multibanked(&BankedConfig::default(), &dense);
/// assert_eq!(s.port_cycles, 2);
/// ```
pub fn schedule_multibanked(cfg: &BankedConfig, blocks: &[(u64, u32)]) -> PortSchedule {
    BankScheduler::new().schedule(cfg, blocks)
}

/// Reusable multi-banked scheduler: [`schedule_multibanked`] with its
/// scratch buffers kept across calls, so the per-instruction path does
/// not allocate in steady state.
///
/// Each word reference is reduced to its bank once; a port cycle then
/// grants from the remaining banks in order and compacts the ungranted
/// ones forward, so no reference is visited after its grant. The banks
/// in use during a cycle are a reused bit mask of `banks.div_ceil(64)`
/// words, one word for every geometry up to 64 banks.
#[derive(Debug, Clone, Default)]
pub(crate) struct BankScheduler {
    /// Bank of every not-yet-granted word reference, in queue order.
    pending: Vec<u32>,
    /// Banks in use this cycle, one bit each.
    used: Vec<u64>,
}

impl BankScheduler {
    /// A scheduler with empty scratch buffers.
    pub(crate) fn new() -> Self {
        BankScheduler::default()
    }

    /// Schedules one vector instruction's element references exactly as
    /// [`schedule_multibanked`] does.
    pub(crate) fn schedule(&mut self, cfg: &BankedConfig, blocks: &[(u64, u32)]) -> PortSchedule {
        // Split into word references. Consecutive words of a block sit
        // in consecutive banks, so only a block's first bank divides.
        self.pending.clear();
        for &(addr, len) in blocks {
            let mut bank = cfg.bank_of(addr) as u32;
            let mut off = 0;
            while off < len as u64 {
                self.pending.push(bank);
                bank += 1;
                if bank as usize == cfg.banks {
                    bank = 0;
                }
                off += cfg.interleave_bytes;
            }
        }
        let words = self.pending.len() as u64;
        self.used.resize(cfg.banks.div_ceil(64), 0);
        let port_cycles = grant_cycles(&mut self.pending, cfg.ports, &mut self.used);
        PortSchedule { port_cycles, cache_accesses: words, words }
    }
}

/// Port cycles needed to grant every reference in `pending` (bank
/// indices in queue order), `ports` per cycle with no two on one bank;
/// `used` holds one bit per bank. Each cycle scans the queue in order,
/// grants what it can and keeps the rest, in order, at the front;
/// `pending` is consumed.
fn grant_cycles(pending: &mut [u32], ports: usize, used: &mut [u64]) -> u32 {
    let mut remaining = pending.len();
    let mut cycles = 0;
    while remaining > 0 {
        cycles += 1;
        used.fill(0);
        let mut granted = 0;
        let mut kept = 0;
        let mut i = 0;
        while i < remaining && granted < ports {
            let bank = pending[i];
            let word = &mut used[bank as usize / 64];
            let bit = 1u64 << (bank % 64);
            if *word & bit == 0 {
                *word |= bit;
                granted += 1;
            } else {
                pending[kept] = bank;
                kept += 1;
            }
            i += 1;
        }
        debug_assert!(granted > 0, "scheduler must make progress");
        pending.copy_within(i..remaining, kept);
        remaining = kept + (remaining - i);
    }
    cycles
}

/// Word references of a block list in order: every 64-bit word of every
/// `(address, length-in-bytes)` block, `len` rounded up to whole words.
#[inline]
fn word_refs(blocks: &[(u64, u32)]) -> impl Iterator<Item = u64> + '_ {
    blocks
        .iter()
        .flat_map(|&(addr, len)| (0..(len as u64).div_ceil(8)).map(move |k| addr + 8 * k))
}

/// Schedules one vector instruction on the vector cache's single wide
/// port.
///
/// Elements are serviced strictly in order. A run of references to
/// *consecutive ascending* words is combined into a single wide access of
/// up to `width_words` words (the shift&mask network extracts them from
/// the two fetched lines). Any other stride degrades to one element per
/// access — the §3.1 limitation that motivates the 3D extension.
///
/// The runs are detected by streaming the word references straight off
/// the block list; the scheduling loop performs no heap allocation.
///
/// ```
/// use mom3d_mem::{schedule_vector_cache, VectorCacheConfig};
///
/// // The §3.1 limitation: a 640-byte stride gets one word per access…
/// let strided: Vec<(u64, u32)> = (0..8).map(|i| (640 * i, 8)).collect();
/// let s = schedule_vector_cache(&VectorCacheConfig::default(), &strided);
/// assert_eq!((s.port_cycles, s.words), (8, 8));
/// // …while one dense 128-byte block fills the 4-word port every cycle.
/// let s = schedule_vector_cache(&VectorCacheConfig::default(), &[(0x1F4, 128)]);
/// assert_eq!((s.port_cycles, s.words), (4, 16));
/// ```
pub fn schedule_vector_cache(cfg: &VectorCacheConfig, blocks: &[(u64, u32)]) -> PortSchedule {
    let mut schedule = PortSchedule::default();
    // Length of the current consecutive ascending run (0 = none yet) and
    // the previous word's address.
    let mut run = 0usize;
    let mut prev = 0u64;
    for word in word_refs(blocks) {
        schedule.words += 1;
        if run > 0 && run < cfg.width_words && word == prev + 8 {
            run += 1;
        } else {
            schedule.port_cycles += 1;
            schedule.cache_accesses += 1;
            run = 1;
        }
        prev = word;
    }
    schedule
}

/// Schedules one `3dvload` on the vector cache + 3D register file path.
///
/// Each 3D register element (up to a whole 128-byte L2 line, at any byte
/// alignment thanks to the two interleaved line banks) is written into
/// one 3D-register-file lane per cycle: one wide access per element
/// (Figure 8-c).
///
/// ```
/// use mom3d_mem::schedule_3d;
///
/// // Four 128-byte candidate rows, one per cycle: 16 words per access.
/// let blocks: Vec<(u64, u32)> = (0..4).map(|i| (0x1000 + 640 * i, 128)).collect();
/// let s = schedule_3d(&blocks);
/// assert_eq!((s.port_cycles, s.words), (4, 64));
/// assert_eq!(s.words_per_access(), 16.0);
/// ```
pub fn schedule_3d(blocks: &[(u64, u32)]) -> PortSchedule {
    let mut schedule = PortSchedule::default();
    for &(_, len) in blocks {
        schedule.port_cycles += 1;
        schedule.cache_accesses += 1;
        schedule.words += (len as u64).div_ceil(8);
    }
    schedule
}

/// Line count up to which [`LineSet`] deduplicates by scanning its
/// ordered `Vec`; above it a hash index takes over. No access in the
/// `perfbench` workloads touches more than 16 L2 lines, so the scan
/// handles all of them; the hash index is there so that a longer
/// access stays linear rather than quadratic in its line count.
const LINEAR_SCAN_LINES: usize = 32;

/// Reusable first-touch-order line deduplicator.
///
/// The timing simulator needs the distinct L2 lines of every vector
/// memory instruction (tag lookups, hit/miss accounting, warm-up). A
/// typical instruction touches about six lines, so while at most 32
/// are collected a line is checked against the ordered `Vec` by a
/// linear scan, which costs less than hashing it.
/// Past that count every collected line goes into a [`HashSet`] and
/// each further line is O(1), so a long access stays linear. Both
/// buffers are reused across calls, so the steady-state scheduling path
/// does not allocate.
///
/// ```
/// use mom3d_mem::LineSet;
///
/// let mut set = LineSet::new();
/// // An 8-byte access straddling a 128-byte line boundary: two lines.
/// set.collect(&[(0x7C, 8)], 128);
/// assert_eq!(set.lines(), &[0x00, 0x80]);
/// // Buffers are cleared and reused by the next collect.
/// set.collect(&[(0x100, 128), (0x101, 128)], 128);
/// assert_eq!(set.lines(), &[0x100, 0x180]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LineSet {
    lines: Vec<u64>,
    /// Every line of `lines` once it holds more than
    /// [`LINEAR_SCAN_LINES`]; empty until then.
    seen: HashSet<u64>,
}

impl LineSet {
    /// An empty set.
    pub fn new() -> Self {
        LineSet::default()
    }

    /// Clears the set and collects the distinct line-aligned addresses
    /// touched by `blocks`, in first-touch order.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `line_bytes` is a power of two.
    pub fn collect(&mut self, blocks: &[(u64, u32)], line_bytes: u64) {
        debug_assert!(line_bytes.is_power_of_two());
        self.lines.clear();
        if !self.seen.is_empty() {
            // `clear` walks the whole table, so skip it when unused.
            self.seen.clear();
        }
        for &(addr, len) in blocks {
            let mut line = addr & !(line_bytes - 1);
            let end = addr + len as u64;
            while line < end {
                self.insert(line);
                line += line_bytes;
            }
        }
    }

    #[inline]
    fn insert(&mut self, line: u64) {
        if self.lines.len() <= LINEAR_SCAN_LINES {
            if !self.lines.contains(&line) {
                self.lines.push(line);
            }
            return;
        }
        if self.seen.is_empty() {
            self.seen.extend(&self.lines);
        }
        if self.seen.insert(line) {
            self.lines.push(line);
        }
    }

    /// The collected lines, in first-touch order.
    pub fn lines(&self) -> &[u64] {
        &self.lines
    }
}

/// Distinct line-aligned addresses touched by a set of blocks, in first-
/// touch order (used for L2 hit/miss accounting).
///
/// One-shot convenience over [`LineSet`]; hot loops should hold a
/// `LineSet` and [`LineSet::collect`] into it instead.
///
/// ```
/// use mom3d_mem::distinct_lines;
///
/// // Two overlapping 128-byte blocks one byte apart: two 128-byte lines.
/// assert_eq!(distinct_lines(&[(0x100, 128), (0x101, 128)], 128), vec![0x100, 0x180]);
/// ```
pub fn distinct_lines(blocks: &[(u64, u32)], line_bytes: u64) -> Vec<u64> {
    let mut set = LineSet::new();
    set.collect(blocks, line_bytes);
    set.lines
}

/// The pre-rewrite implementations, kept verbatim as oracles for the
/// equivalence property tests: `schedule_multibanked` allocated its
/// queue, its grant flags and a per-cycle bank table and rescanned the
/// whole queue every cycle, `schedule_vector_cache` used to materialize
/// every word reference in a `Vec<u64>` before scanning, and
/// `distinct_lines` deduplicated with a quadratic `Vec::contains` scan.
#[cfg(test)]
mod reference {
    use super::{BankedConfig, PortSchedule, VectorCacheConfig};

    pub fn schedule_multibanked(cfg: &BankedConfig, blocks: &[(u64, u32)]) -> PortSchedule {
        // Split into word references.
        let mut pending: Vec<u64> = Vec::new();
        for &(addr, len) in blocks {
            let mut off = 0;
            while off < len as u64 {
                pending.push(addr + off);
                off += cfg.interleave_bytes;
            }
        }
        let words = pending.len() as u64;
        let mut schedule = PortSchedule { port_cycles: 0, cache_accesses: words, words };
        let mut done = vec![false; pending.len()];
        let mut remaining = pending.len();
        while remaining > 0 {
            schedule.port_cycles += 1;
            let mut used_banks = vec![false; cfg.banks];
            let mut granted = 0;
            for (i, &addr) in pending.iter().enumerate() {
                if done[i] || granted == cfg.ports {
                    continue;
                }
                let bank = cfg.bank_of(addr);
                if !used_banks[bank] {
                    used_banks[bank] = true;
                    done[i] = true;
                    granted += 1;
                    remaining -= 1;
                }
            }
            debug_assert!(granted > 0, "scheduler must make progress");
        }
        schedule
    }

    pub fn schedule_vector_cache(cfg: &VectorCacheConfig, blocks: &[(u64, u32)]) -> PortSchedule {
        let mut refs: Vec<u64> = Vec::new();
        for &(addr, len) in blocks {
            let mut off = 0;
            while off < len as u64 {
                refs.push(addr + off);
                off += 8;
            }
        }
        let mut schedule =
            PortSchedule { port_cycles: 0, cache_accesses: 0, words: refs.len() as u64 };
        let mut i = 0;
        while i < refs.len() {
            let mut run = 1;
            while run < cfg.width_words
                && i + run < refs.len()
                && refs[i + run] == refs[i + run - 1] + 8
            {
                run += 1;
            }
            schedule.port_cycles += 1;
            schedule.cache_accesses += 1;
            i += run;
        }
        schedule
    }

    pub fn distinct_lines(blocks: &[(u64, u32)], line_bytes: u64) -> Vec<u64> {
        let mut lines: Vec<u64> = Vec::new();
        for &(addr, len) in blocks {
            let mut line = addr & !(line_bytes - 1);
            let end = addr + len as u64;
            while line < end {
                if !lines.contains(&line) {
                    lines.push(line);
                }
                line += line_bytes;
            }
        }
        lines
    }
}

#[cfg(test)]
mod equivalence {
    use super::*;
    use proptest::prelude::*;

    fn arb_blocks() -> impl Strategy<Value = Vec<(u64, u32)>> {
        proptest::collection::vec((0u64..0x2_0000, 1u32..300), 1..40)
    }

    /// Random blocks, or a strided run of `count` equal blocks whose
    /// stride may be negative: up to 160 elements of up to 256 bytes,
    /// so collections of both fewer and more than
    /// [`LINEAR_SCAN_LINES`] lines, with repeats, are common. The base
    /// keeps every address positive.
    fn arb_line_blocks() -> impl Strategy<Value = Vec<(u64, u32)>> {
        prop_oneof![
            arb_blocks(),
            (0x2_0000u64..0x4_0000, -700i64..700, 1u32..=256, 1usize..160).prop_map(
                |(base, stride, len, count)| {
                    (0..count as i64).map(|i| ((base as i64 + stride * i) as u64, len)).collect()
                }
            ),
        ]
    }

    proptest! {
        /// The streaming scheduler matches the old materialize-then-scan
        /// implementation on arbitrary block lists and port widths.
        #[test]
        fn vector_cache_streaming_matches_reference(
            blocks in arb_blocks(),
            width in 1usize..9,
        ) {
            let cfg = VectorCacheConfig { width_words: width, line_bytes: 128 };
            prop_assert_eq!(
                schedule_vector_cache(&cfg, &blocks),
                reference::schedule_vector_cache(&cfg, &blocks)
            );
        }

        /// The reused, compacting bank scheduler matches the old
        /// allocate-and-rescan one with one- and two-word bank masks,
        /// for any port count and interleave.
        #[test]
        fn multibanked_matches_reference(
            blocks in arb_line_blocks(),
            banks in 1usize..=128,
            ports in 1usize..=8,
            interleave_shift in 2u32..=5,
        ) {
            let cfg = BankedConfig { ports, banks, interleave_bytes: 1 << interleave_shift };
            // Leave another geometry's scratch (and mask width) behind first.
            let mut reused = BankScheduler::new();
            reused.schedule(&BankedConfig { banks: 129 - banks, ..cfg }, &blocks);
            prop_assert_eq!(
                reused.schedule(&cfg, &blocks),
                reference::schedule_multibanked(&cfg, &blocks)
            );
        }

        /// The scan-then-hash dedup returns exactly the old quadratic
        /// scan's lines, in the same first-touch order.
        #[test]
        fn distinct_lines_matches_reference(blocks in arb_line_blocks()) {
            prop_assert_eq!(
                distinct_lines(&blocks, 128),
                reference::distinct_lines(&blocks, 128)
            );
        }

        /// A reused LineSet gives the same answer as a fresh one.
        #[test]
        fn line_set_reuse_is_stateless(a in arb_line_blocks(), b in arb_line_blocks()) {
            let mut reused = LineSet::new();
            reused.collect(&a, 128);
            reused.collect(&b, 128);
            prop_assert_eq!(reused.lines(), distinct_lines(&b, 128).as_slice());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_blocks(base: u64, stride: i64, n: usize) -> Vec<(u64, u32)> {
        (0..n)
            .map(|i| ((base as i64 + stride * i as i64) as u64, 8))
            .collect()
    }

    #[test]
    fn multibanked_unit_stride_uses_all_ports() {
        // 8 consecutive words over 8 banks: 4 ports -> 2 cycles.
        let s = schedule_multibanked(&BankedConfig::default(), &unit_blocks(0, 8, 8));
        assert_eq!(s.port_cycles, 2);
        assert_eq!(s.cache_accesses, 8);
        assert_eq!(s.words, 8);
        assert_eq!(s.words_per_access(), 4.0);
    }

    #[test]
    fn multibanked_bank_conflicts_serialize() {
        // Stride of 64 bytes = 8 words: every reference maps to bank 0.
        let s = schedule_multibanked(&BankedConfig::default(), &unit_blocks(0, 64, 8));
        assert_eq!(s.port_cycles, 8);
        assert_eq!(s.words_per_access(), 1.0);
    }

    #[test]
    fn multibanked_moderate_stride() {
        // Stride 16B = 2 words: banks 0,2,4,6,0,2,4,6 -> 4 distinct banks
        // per cycle, ports=4 -> 2 cycles.
        let s = schedule_multibanked(&BankedConfig::default(), &unit_blocks(0, 16, 8));
        assert_eq!(s.port_cycles, 2);
    }

    #[test]
    fn multibanked_splits_wide_blocks() {
        // One 32-byte block = 4 word references.
        let s = schedule_multibanked(&BankedConfig::default(), &[(0, 32)]);
        assert_eq!(s.words, 4);
        assert_eq!(s.port_cycles, 1);
        assert_eq!(s.cache_accesses, 4);
    }

    #[test]
    fn vector_cache_unit_stride_wide_grants() {
        // 8 consecutive words -> two 4-word accesses.
        let s = schedule_vector_cache(&VectorCacheConfig::default(), &unit_blocks(0, 8, 8));
        assert_eq!(s.port_cycles, 2);
        assert_eq!(s.cache_accesses, 2);
        assert_eq!(s.words, 8);
        assert_eq!(s.words_per_access(), 4.0);
    }

    #[test]
    fn vector_cache_strided_degrades_to_one_per_cycle() {
        // The paper's §3.1 limitation: stride != 1 word -> 1 ref/cycle.
        let s = schedule_vector_cache(&VectorCacheConfig::default(), &unit_blocks(0, 640, 8));
        assert_eq!(s.port_cycles, 8);
        assert_eq!(s.words_per_access(), 1.0);
    }

    #[test]
    fn vector_cache_partial_tail_run() {
        // 6 consecutive words -> 4 + 2.
        let s = schedule_vector_cache(&VectorCacheConfig::default(), &unit_blocks(0, 8, 6));
        assert_eq!(s.port_cycles, 2);
        assert_eq!(s.words, 6);
    }

    #[test]
    fn vector_cache_descending_not_combined() {
        let s = schedule_vector_cache(&VectorCacheConfig::default(), &unit_blocks(0x1000, -8, 4));
        assert_eq!(s.port_cycles, 4);
    }

    #[test]
    fn vector_cache_wide_block_crosses_lines() {
        // A 128-byte block at unaligned base: 16 words consecutive ->
        // 4 accesses of 4 words regardless of alignment.
        let s = schedule_vector_cache(&VectorCacheConfig::default(), &[(0x1F4, 128)]);
        assert_eq!(s.port_cycles, 4);
        assert_eq!(s.words, 16);
    }

    #[test]
    fn schedule_3d_one_line_per_cycle() {
        // 16 blocks of 128 B: one per cycle, 16 words each.
        let blocks: Vec<(u64, u32)> = (0..16).map(|i| (0x1000 + i, 128)).collect();
        let s = schedule_3d(&blocks);
        assert_eq!(s.port_cycles, 16);
        assert_eq!(s.cache_accesses, 16);
        assert_eq!(s.words, 256);
        assert_eq!(s.words_per_access(), 16.0);
    }

    #[test]
    fn schedule_3d_narrow_blocks() {
        let blocks: Vec<(u64, u32)> = (0..4).map(|i| (i * 640, 64)).collect();
        let s = schedule_3d(&blocks);
        assert_eq!(s.port_cycles, 4);
        assert_eq!(s.words, 32);
    }

    #[test]
    fn distinct_lines_dedups_and_spans() {
        // Two overlapping 128-byte blocks 1 byte apart on 128B lines.
        let lines = distinct_lines(&[(0x100, 128), (0x101, 128)], 128);
        assert_eq!(lines, vec![0x100, 0x180]);
        // Strided 8-byte elements far apart: one line each.
        let blocks = unit_blocks(0, 640, 4);
        let lines = distinct_lines(&blocks, 128);
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn distinct_lines_straddle() {
        // 8-byte access straddling a line boundary touches two lines.
        let lines = distinct_lines(&[(0x7C, 8)], 128);
        assert_eq!(lines, vec![0x00, 0x80]);
    }

    #[test]
    fn merge_accumulates() {
        let mut total = PortSchedule::default();
        total.merge(&PortSchedule { port_cycles: 2, cache_accesses: 2, words: 8 });
        total.merge(&PortSchedule { port_cycles: 8, cache_accesses: 8, words: 8 });
        assert_eq!(total.port_cycles, 10);
        assert_eq!(total.words, 16);
        assert!((total.words_per_access() - 1.6).abs() < 1e-9);
    }

    #[test]
    fn bank_mapping() {
        let cfg = BankedConfig::default();
        assert_eq!(cfg.bank_of(0), 0);
        assert_eq!(cfg.bank_of(8), 1);
        assert_eq!(cfg.bank_of(56), 7);
        assert_eq!(cfg.bank_of(64), 0);
    }
}
