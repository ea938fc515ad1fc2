//! Register and memory dependence analysis over a dynamic trace.
//!
//! Renaming over the dynamic instruction stream: each instruction's
//! sources resolve to the trace index of their last writer. Memory
//! ordering adds one edge from each load to the most recent older store
//! whose byte envelope overlaps it (media traces rarely alias, but
//! correctness-sensitive patterns — e.g. motion-compensation writes
//! followed by re-reads — must serialize).

use mom3d_isa::{Instruction, Reg, Trace};
use std::collections::VecDeque;

/// How many recent stores are checked for load-store aliasing, mirroring
/// the finite associative search of a real load/store queue.
const STORE_WINDOW: usize = 64;

/// One producer edge: the producing instruction's trace index, and
/// whether the consumer only needs the producer's *pointer register*
/// value.
///
/// Pointer registers are renamed on every `3dvmov`, and the renamed value
/// (`pointer + Ps`, or the `b`-flag constant of a `3dvload`) is computable
/// at rename time — so a pointer-only consumer may issue one cycle after
/// its producer, without waiting for the data movement to finish. This is
/// what lets a chain of `3dvmov`s stream at full rate (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// Producing instruction's trace index.
    pub producer: u32,
    /// True when the dependence is carried only by a pointer register.
    pub ptr_only: bool,
}

/// Producer edges of every instruction in a trace (CSR layout).
#[derive(Debug, Clone, Default)]
pub struct DepGraph {
    offsets: Vec<u32>,
    edges: Vec<DepEdge>,
}

/// One wakeup edge in the inverted view: which later instruction to
/// notify when a producer issues, and whether the consumer waits only
/// for the producer's renamed pointer value (see [`DepEdge::ptr_only`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WakeEdge {
    /// Consuming instruction's trace index.
    pub consumer: u32,
    /// True when the consumer needs only the pointer-register value,
    /// available one cycle after the producer issues.
    pub ptr_only: bool,
}

/// The [`DepGraph`] inverted into per-producer wakeup lists (CSR), as
/// [`DepGraph::invert`] returns them and as [`crate::PreparedTrace::new`]
/// builds them in one walk of the trace.
///
/// `DepGraph` answers "which producers must finish before `i` may
/// issue?" — the polling view, paid on every cycle for every waiting
/// instruction. `WakeupLists` answers the event-driven question "whom
/// do I notify when `i` issues?": the scheduler decrements each
/// consumer's outstanding-operand count exactly once per edge, so the
/// total readiness work over a run is `O(edges)` instead of
/// `O(edges × cycles)`.
#[derive(Debug, Clone, Default)]
pub struct WakeupLists {
    offsets: Vec<u32>,
    edges: Vec<WakeEdge>,
    dep_counts: Vec<u32>,
}

impl WakeupLists {
    /// Consumers to wake when instruction `producer` issues, in trace
    /// order.
    pub fn consumers(&self, producer: usize) -> &[WakeEdge] {
        &self.edges[self.offsets[producer] as usize..self.offsets[producer + 1] as usize]
    }

    /// Number of producer edges instruction `i` starts with (the initial
    /// outstanding-operand count of an event-driven scheduler).
    pub fn dep_count(&self, i: usize) -> u32 {
        self.dep_counts[i]
    }

    /// Number of instructions covered.
    pub fn len(&self) -> usize {
        self.dep_counts.len()
    }

    /// True when the lists cover no instructions.
    pub fn is_empty(&self) -> bool {
        self.dep_counts.is_empty()
    }
}

/// Sentinel for "no writer yet" in [`Renamer::last_writer`].
const NO_WRITER: u32 = u32::MAX;

/// The last [`STORE_WINDOW`] stores' byte envelopes, oldest first, and
/// the hull of the window: a load whose envelope misses the hull
/// overlaps no store in it and skips the scan (exact, since every store
/// envelope lies inside the hull). The hull is kept by two monotonic
/// queues, so each store costs O(1) amortized to track.
#[derive(Debug, Default)]
struct StoreWindow {
    stores: VecDeque<(u32, (u64, u64))>,
    /// Window stores whose `lo` is below every younger store's, oldest
    /// first: the front holds the hull's low end.
    lows: VecDeque<(u32, u64)>,
    /// Window stores whose `hi` is above every younger store's, oldest
    /// first: the front holds the hull's high end.
    highs: VecDeque<(u32, u64)>,
}

impl StoreWindow {
    /// Records store `i` with byte envelope `(lo, hi)`, forgetting the
    /// oldest store once the window is full.
    fn push(&mut self, i: u32, (lo, hi): (u64, u64)) {
        if self.stores.len() == STORE_WINDOW {
            let (old, _) = self.stores.pop_front().expect("a full window");
            if self.lows.front().is_some_and(|&(s, _)| s == old) {
                self.lows.pop_front();
            }
            if self.highs.front().is_some_and(|&(s, _)| s == old) {
                self.highs.pop_front();
            }
        }
        self.stores.push_back((i, (lo, hi)));
        while self.lows.back().is_some_and(|&(_, l)| l >= lo) {
            self.lows.pop_back();
        }
        self.lows.push_back((i, lo));
        while self.highs.back().is_some_and(|&(_, h)| h <= hi) {
            self.highs.pop_back();
        }
        self.highs.push_back((i, hi));
    }

    /// The most recent store in the window whose envelope overlaps
    /// `[lo, hi)`.
    fn last_overlap(&self, (lo, hi): (u64, u64)) -> Option<u32> {
        let (&(_, hull_lo), &(_, hull_hi)) = (self.lows.front()?, self.highs.front()?);
        if hull_lo < hi && lo < hull_hi {
            self.last_overlap_scan((lo, hi))
        } else {
            None
        }
    }

    /// [`StoreWindow::last_overlap`] without the hull test: every store
    /// of the window, youngest first.
    fn last_overlap_scan(&self, (lo, hi): (u64, u64)) -> Option<u32> {
        self.stores.iter().rev().find(|(_, (slo, shi))| *slo < hi && lo < *shi).map(|&(s, _)| s)
    }
}

/// Register renaming and the load–store alias search, one instruction
/// at a time in trace order: the walk [`DepGraph::build`] and the
/// one-pass [`WakeupBuilder`] share.
#[derive(Debug)]
struct Renamer {
    /// Trace index of each register's last writer, or [`NO_WRITER`].
    last_writer: Vec<u32>,
    stores: StoreWindow,
}

impl Renamer {
    fn new() -> Self {
        Renamer { last_writer: vec![NO_WRITER; Reg::FLAT_COUNT], stores: StoreWindow::default() }
    }

    /// Appends the producer edges of `instr`, trace index `i`, to
    /// `edges` (one per producer), then records its writes.
    fn push(&mut self, i: u32, instr: &Instruction, edges: &mut Vec<DepEdge>) {
        let start = edges.len();
        // A producer reached through both a pointer and a data register
        // (or through memory) is a data dependence.
        let mut add = |producer: u32, ptr_only: bool| {
            if let Some(e) = edges[start..].iter_mut().find(|e| e.producer == producer) {
                e.ptr_only &= ptr_only;
            } else {
                edges.push(DepEdge { producer, ptr_only });
            }
        };
        for src in instr.srcs.iter() {
            let w = self.last_writer[src.flat_index()];
            if w != NO_WRITER {
                add(w, matches!(src, Reg::P(_)));
            }
        }
        if let Some(mem) = &instr.mem {
            if instr.opcode.is_load() {
                // Most recent older store that overlaps.
                if let Some(s) = self.stores.last_overlap(mem.envelope()) {
                    add(s, false);
                }
            }
            if instr.opcode.is_store() {
                self.stores.push(i, mem.envelope());
            }
        }
        for dst in instr.dsts.iter() {
            self.last_writer[dst.flat_index()] = i;
        }
    }
}

/// Builds a trace's [`WakeupLists`] one instruction at a time, in the
/// same walk that decodes the trace ([`crate::PreparedTrace::new`]):
/// equal to `DepGraph::build(trace).invert()` without materializing the
/// graph. Each consumer's edges are counted per producer as they are
/// found, so [`WakeupBuilder::finish`] only places them.
#[derive(Debug)]
pub(crate) struct WakeupBuilder {
    renamer: Renamer,
    /// Producer edges of every instruction pushed, consumer by consumer.
    edges: Vec<DepEdge>,
    dep_counts: Vec<u32>,
    /// `counts[p + 2]` = consumers of producer `p` found so far; the
    /// two leading slots let [`WakeupBuilder::finish`] turn the counts
    /// into CSR offsets in place.
    counts: Vec<u32>,
}

impl WakeupBuilder {
    /// An empty builder with room for a trace of `n` instructions.
    pub(crate) fn with_capacity(n: usize) -> Self {
        let mut counts = Vec::with_capacity(n + 2);
        counts.extend([0, 0]);
        WakeupBuilder {
            renamer: Renamer::new(),
            edges: Vec::with_capacity(n * 2),
            dep_counts: Vec::with_capacity(n),
            counts,
        }
    }

    /// Adds the trace's next instruction.
    pub(crate) fn push(&mut self, instr: &Instruction) {
        let i = self.dep_counts.len();
        let start = self.edges.len();
        self.renamer.push(i as u32, instr, &mut self.edges);
        self.dep_counts.push((self.edges.len() - start) as u32);
        self.counts.push(0);
        for e in &self.edges[start..] {
            self.counts[e.producer as usize + 2] += 1;
        }
    }

    /// The wakeup lists of the instructions pushed.
    pub(crate) fn finish(self) -> WakeupLists {
        let WakeupBuilder { edges: forward, dep_counts, counts: mut offsets, .. } = self;
        // Prefix sums: `offsets[p + 1]` becomes the start of producer
        // `p`'s list, and the cursor placing its consumers, which ends
        // at the start of `p + 1`'s.
        for k in 2..offsets.len() {
            offsets[k] += offsets[k - 1];
        }
        let mut edges = vec![WakeEdge { consumer: 0, ptr_only: false }; forward.len()];
        let mut deps = forward.iter();
        for (i, &count) in dep_counts.iter().enumerate() {
            for e in deps.by_ref().take(count as usize) {
                let cursor = &mut offsets[e.producer as usize + 1];
                edges[*cursor as usize] = WakeEdge { consumer: i as u32, ptr_only: e.ptr_only };
                *cursor += 1;
            }
        }
        offsets.pop();
        WakeupLists { offsets, edges, dep_counts }
    }
}

impl DepGraph {
    /// Builds the dependence graph for `trace`.
    pub fn build(trace: &Trace) -> Self {
        let n = trace.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges: Vec<DepEdge> = Vec::with_capacity(n * 2);
        let mut renamer = Renamer::new();
        offsets.push(0);
        for (i, instr) in trace.iter().enumerate() {
            renamer.push(i as u32, instr, &mut edges);
            offsets.push(edges.len() as u32);
        }
        DepGraph { offsets, edges }
    }

    /// Producer edges of instruction `i`.
    pub fn deps(&self, i: usize) -> &[DepEdge] {
        &self.edges[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Inverts the graph into per-producer [`WakeupLists`] (one
    /// counting-sort pass; no per-edge allocation).
    pub fn invert(&self) -> WakeupLists {
        let n = self.len();
        // offsets[p] = start of producer p's consumer list.
        let mut offsets = vec![0u32; n + 1];
        for e in &self.edges {
            offsets[e.producer as usize + 1] += 1;
        }
        for p in 1..=n {
            offsets[p] += offsets[p - 1];
        }
        let mut cursor = offsets.clone();
        let mut edges = vec![WakeEdge { consumer: 0, ptr_only: false }; self.edges.len()];
        let mut dep_counts = vec![0u32; n];
        for (i, count) in dep_counts.iter_mut().enumerate() {
            let deps = self.deps(i);
            *count = deps.len() as u32;
            for e in deps {
                let p = e.producer as usize;
                edges[cursor[p] as usize] = WakeEdge { consumer: i as u32, ptr_only: e.ptr_only };
                cursor[p] += 1;
            }
        }
        WakeupLists { offsets, edges, dep_counts }
    }

    /// Producer indices of instruction `i` (ignoring edge kinds).
    pub fn dep_indices(&self, i: usize) -> impl Iterator<Item = u32> + '_ {
        self.deps(i).iter().map(|e| e.producer)
    }

    /// Number of instructions covered.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// True when the graph covers no instructions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Longest dependence-chain length (in instructions) — a quick
    /// parallelism diagnostic for tests.
    pub fn critical_path(&self) -> usize {
        let mut depth = vec![0usize; self.len()];
        for i in 0..self.len() {
            depth[i] = self
                .deps(i)
                .iter()
                .map(|e| depth[e.producer as usize] + 1)
                .max()
                .unwrap_or(0);
        }
        depth.into_iter().max().map(|d| d + 1).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mom3d_isa::{Gpr, IntOp, MomReg, TraceBuilder};

    fn producers(g: &DepGraph, i: usize) -> Vec<u32> {
        g.dep_indices(i).collect()
    }

    #[test]
    fn straight_line_chain() {
        let mut tb = TraceBuilder::new();
        let a = tb.li(Gpr::new(1), 1); // 0
        tb.alui(IntOp::Add, Gpr::new(2), a, 1); // 1 <- 0
        tb.alui(IntOp::Add, Gpr::new(3), Gpr::new(2), 1); // 2 <- 1
        let g = DepGraph::build(&tb.finish());
        assert!(producers(&g, 0).is_empty());
        assert_eq!(producers(&g, 1), vec![0]);
        assert_eq!(producers(&g, 2), vec![1]);
        assert_eq!(g.critical_path(), 3);
    }

    #[test]
    fn renaming_breaks_false_dependences() {
        let mut tb = TraceBuilder::new();
        tb.li(Gpr::new(1), 1); // 0
        tb.li(Gpr::new(1), 2); // 1: WAW on r1 — not a dataflow edge
        tb.alui(IntOp::Add, Gpr::new(2), Gpr::new(1), 0); // 2 <- 1 only
        let g = DepGraph::build(&tb.finish());
        assert!(producers(&g, 1).is_empty());
        assert_eq!(producers(&g, 2), vec![1]);
    }

    #[test]
    fn independent_instructions_are_parallel() {
        let mut tb = TraceBuilder::new();
        for i in 0..8 {
            tb.li(Gpr::new(i), i as i64);
        }
        let g = DepGraph::build(&tb.finish());
        assert_eq!(g.critical_path(), 1);
    }

    #[test]
    fn load_depends_on_overlapping_store() {
        let mut tb = TraceBuilder::new();
        let v = tb.li(Gpr::new(1), 42); // 0
        tb.store_scalar(v, Gpr::new(0), 0x100, 8); // 1
        tb.load_scalar(Gpr::new(2), Gpr::new(0), 0x104, 4); // 2: overlaps
        tb.load_scalar(Gpr::new(3), Gpr::new(0), 0x200, 4); // 3: disjoint
        let g = DepGraph::build(&tb.finish());
        assert!(producers(&g, 2).contains(&1));
        assert!(!producers(&g, 3).contains(&1));
        // Memory-ordering edges are never pointer-only.
        assert!(g.deps(2).iter().all(|e| !e.ptr_only));
    }

    #[test]
    fn vector_load_sees_scalar_store() {
        let mut tb = TraceBuilder::new();
        tb.set_vl(4);
        tb.set_vs(640);
        let v = tb.li(Gpr::new(1), 7);
        tb.store_scalar(v, Gpr::new(0), 0x1_0000 + 640, 1);
        tb.vload(MomReg::new(0), Gpr::new(0), 0x1_0000);
        let g = DepGraph::build(&tb.finish());
        let store_idx = 3; // setvl, setvs, li, store, vload
        assert!(producers(&g, 4).contains(&store_idx));
    }

    #[test]
    fn vl_vs_register_dependence() {
        let mut tb = TraceBuilder::new();
        tb.set_vl(4); // index 0 writes VL
        tb.set_vs(640); // index 1 writes VS (non-default, so not elided)
        tb.vload(MomReg::new(0), Gpr::new(0), 0); // index 2 reads both
        let g = DepGraph::build(&tb.finish());
        assert!(producers(&g, 2).contains(&0));
        assert!(producers(&g, 2).contains(&1));
    }

    #[test]
    fn pointer_edges_are_marked() {
        use mom3d_isa::DReg;
        let mut tb = TraceBuilder::new();
        tb.set_vl(4);
        let b = tb.li(Gpr::new(1), 0x1000);
        tb.dvload(DReg::new(0), b, 0x1000, 64, 2, false); // 2
        tb.dvmov(MomReg::new(0), DReg::new(0), 1); // 3 <- 2 (dreg+ptr)
        tb.dvmov(MomReg::new(1), DReg::new(0), 1); // 4 <- 3 (ptr), 2 (dreg)
        let g = DepGraph::build(&tb.finish());
        // Move 3 depends on the dvload through BOTH dreg and pointer:
        // a data dependence.
        let e32 = g.deps(3).iter().find(|e| e.producer == 2).unwrap();
        assert!(!e32.ptr_only);
        // Move 4 depends on move 3 only through the renamed pointer.
        let e43 = g.deps(4).iter().find(|e| e.producer == 3).unwrap();
        assert!(e43.ptr_only, "pointer rename must not serialize the moves");
        // ...and on the dvload's data.
        let e42 = g.deps(4).iter().find(|e| e.producer == 2).unwrap();
        assert!(!e42.ptr_only);
    }

    #[test]
    fn inversion_mirrors_every_edge_exactly_once() {
        use mom3d_isa::DReg;
        let mut tb = TraceBuilder::new();
        tb.set_vl(4); // 0
        let b = tb.li(Gpr::new(1), 0x1000); // 1
        tb.dvload(DReg::new(0), b, 0x1000, 64, 2, false); // 2
        tb.dvmov(MomReg::new(0), DReg::new(0), 1); // 3
        tb.dvmov(MomReg::new(1), DReg::new(0), 1); // 4
        tb.alui(IntOp::Add, Gpr::new(2), b, 1); // 5
        let g = DepGraph::build(&tb.finish());
        let w = g.invert();
        assert_eq!(w.len(), g.len());
        // Forward and inverted edge multisets agree, ptr_only included.
        let mut forward: Vec<(u32, u32, bool)> = Vec::new();
        for i in 0..g.len() {
            assert_eq!(w.dep_count(i) as usize, g.deps(i).len());
            for e in g.deps(i) {
                forward.push((e.producer, i as u32, e.ptr_only));
            }
        }
        let mut inverted: Vec<(u32, u32, bool)> = Vec::new();
        for p in 0..w.len() {
            let consumers = w.consumers(p);
            // Consumers are listed in trace order (the scheduler relies
            // on wakeup determinism).
            assert!(consumers.windows(2).all(|c| c[0].consumer <= c[1].consumer));
            for e in consumers {
                inverted.push((p as u32, e.consumer, e.ptr_only));
            }
        }
        forward.sort_unstable();
        inverted.sort_unstable();
        assert_eq!(forward, inverted);
        // The pointer-only chain between the two moves survives inversion.
        assert!(w.consumers(3).iter().any(|e| e.consumer == 4 && e.ptr_only));
    }

    #[test]
    fn inversion_of_empty_graph() {
        let w = DepGraph::default().invert();
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn store_window_is_bounded() {
        // 100 stores then a load overlapping the very first store: the
        // LSQ-like window (64) has forgotten it, so no edge — acceptable
        // because real hardware would also have retired it long before.
        let mut tb = TraceBuilder::new();
        let v = tb.li(Gpr::new(1), 1);
        tb.store_scalar(v, Gpr::new(0), 0x42, 1);
        for i in 0..100u64 {
            tb.store_scalar(v, Gpr::new(0), 0x10_000 + i * 8, 8);
        }
        tb.load_scalar(Gpr::new(2), Gpr::new(0), 0x42, 1);
        let g = DepGraph::build(&tb.finish());
        let last = g.len() - 1;
        assert!(!producers(&g, last).contains(&1));
    }

    mod equivalence {
        //! The one-pass wakeup lists against `DepGraph::build(t).invert()`,
        //! and the hull-filtered alias search against the full scan.

        use super::*;
        use mom3d_isa::{DReg, MmxReg, UsimdOp, Width};
        use proptest::prelude::*;

        /// Register and memory traffic over a 512-byte region, so that
        /// loads often alias one of the recent stores and, on long
        /// traces, the 64-store window evicts.
        #[derive(Debug, Clone, Copy)]
        enum Step {
            Alu(u8, u8),
            Load(u8, u16, u8),
            Store(u8, u16, u8),
            VLoad(u8, u16),
            VStore(u8, u16),
            SetVs(i8),
            DvLoad(u16, u8),
            DvMov(u8, i8),
            Usimd(u8, u8),
        }

        fn step() -> impl Strategy<Value = Step> {
            prop_oneof![
                (0u8..8, 0u8..8).prop_map(|(d, s)| Step::Alu(d, s)),
                (0u8..8, 0u16..512, 1u8..=8).prop_map(|(d, a, w)| Step::Load(d, a, w)),
                (0u8..8, 0u16..512, 1u8..=8).prop_map(|(s, a, w)| Step::Store(s, a, w)),
                (0u8..8, 0u16..512).prop_map(|(d, a)| Step::VLoad(d, a)),
                (0u8..8, 0u16..512).prop_map(|(s, a)| Step::VStore(s, a)),
                (-64i8..=64).prop_map(Step::SetVs),
                (0u16..512, 1u8..=8).prop_map(|(a, w)| Step::DvLoad(a, w)),
                (0u8..8, -4i8..=4).prop_map(|(d, p)| Step::DvMov(d, p)),
                (0u8..8, 0u8..8).prop_map(|(d, s)| Step::Usimd(d, s)),
            ]
        }

        fn build(steps: &[Step]) -> Trace {
            let mut tb = TraceBuilder::new();
            tb.set_vl(4);
            let base = tb.li(Gpr::new(31), 0x4000);
            let at = |a: u16| 0x4000 + a as u64;
            for s in steps {
                match *s {
                    Step::Alu(d, s) => {
                        tb.alui(IntOp::Add, Gpr::new(d), Gpr::new(s), 1);
                    }
                    Step::Load(d, a, w) => {
                        tb.load_scalar(Gpr::new(d), base, at(a), w);
                    }
                    Step::Store(s, a, w) => tb.store_scalar(Gpr::new(s), base, at(a), w),
                    Step::VLoad(d, a) => {
                        tb.vload(MomReg::new(d), base, at(a));
                    }
                    Step::VStore(s, a) => tb.vstore(MomReg::new(s), base, at(a)),
                    Step::SetVs(vs) => tb.set_vs(vs as i64),
                    Step::DvLoad(a, w) => {
                        tb.dvload(DReg::new(0), base, at(a), 16, w, false);
                    }
                    Step::DvMov(d, p) => {
                        tb.dvmov(MomReg::new(d), DReg::new(0), p as i16);
                    }
                    Step::Usimd(d, s) => {
                        tb.usimd2(
                            UsimdOp::AddWrap(Width::B8),
                            MmxReg::new(d),
                            MmxReg::new(s),
                            MmxReg::new((s + 1) % 8),
                        );
                    }
                }
            }
            tb.finish()
        }

        proptest! {
            /// For every instruction of a random trace, the lists the
            /// one-pass builder makes hold the consumers, in order and
            /// with their edge kinds, and the dependence count that the
            /// inverted graph holds.
            #[test]
            fn one_pass_lists_equal_the_inverted_graph(
                steps in proptest::collection::vec(step(), 0..300),
            ) {
                let trace = build(&steps);
                let oracle = DepGraph::build(&trace).invert();
                let mut builder = WakeupBuilder::with_capacity(trace.len());
                for instr in trace.iter() {
                    builder.push(instr);
                }
                let lists = builder.finish();
                prop_assert_eq!(lists.len(), oracle.len());
                for i in 0..trace.len() {
                    prop_assert_eq!(lists.consumers(i), oracle.consumers(i), "consumers of {}", i);
                    prop_assert_eq!(lists.dep_count(i), oracle.dep_count(i), "dep count of {}", i);
                }
            }

            /// Over random envelopes, empty and huge ones included, the
            /// hull test never skips a load that a store in the window
            /// overlaps: the filtered search finds the store the full
            /// scan finds, as the window fills and evicts.
            #[test]
            fn hull_filtered_alias_search_equals_the_full_scan(
                ops in proptest::collection::vec(
                    (any::<bool>(), 0u64..2048, prop_oneof![0u64..16, 0u64..1024]),
                    1..400,
                ),
            ) {
                let mut window = StoreWindow::default();
                for (i, (is_store, lo, len)) in ops.into_iter().enumerate() {
                    let envelope = (lo, lo + len);
                    if is_store {
                        window.push(i as u32, envelope);
                    } else {
                        prop_assert_eq!(
                            window.last_overlap(envelope),
                            window.last_overlap_scan(envelope),
                            "load {} over {:?}", i, envelope
                        );
                    }
                }
            }
        }

        /// The generator does exercise the alias search: loads that
        /// overlap a recent store get a memory edge.
        #[test]
        fn generated_traces_have_aliasing_loads() {
            let steps: Vec<Step> = (0..64u16)
                .map(|k| {
                    if k % 2 == 0 {
                        Step::Store(1, 8 * k, 8)
                    } else {
                        Step::Load(2, 8 * k - 4, 4)
                    }
                })
                .collect();
            let trace = build(&steps);
            let g = DepGraph::build(&trace);
            let aliasing = (0..g.len())
                .filter(|&i| trace.instrs()[i].opcode.is_load())
                .filter(|&i| g.dep_indices(i).any(|p| trace.instrs()[p as usize].opcode.is_store()))
                .count();
            assert_eq!(aliasing, 32, "every load overlaps the store before it");
        }
    }
}
