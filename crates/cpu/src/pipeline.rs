//! The out-of-order pipeline model: an event-driven scheduler over the
//! same cycle-accurate semantics as the original scan-everything loop.
//!
//! The timing model is defined cycle by cycle — commit in order, issue
//! oldest-first under per-class budgets, fetch in order — but the
//! implementation does not *evaluate* every cycle:
//!
//! * **Wakeup lists** ([`crate::depgraph::WakeupLists`]) invert the
//!   dependence graph so an instruction's outstanding-operand count is
//!   decremented exactly once per edge when a producer issues, instead
//!   of re-polling every operand of every waiting instruction every
//!   cycle. Fully woken instructions sit in a time-ordered heap and
//!   drop into their class's ready list when their operands mature.
//! * **Per-class ready lists**: the issue loop keeps one age-ordered
//!   ready list per scan slot (one per execution class, vector memory
//!   apart from scalar memory) and merges their heads oldest-first, so
//!   the cycle sees the same order as one list in trace order. A slot
//!   closes when its budget is spent or when one of its entries finds
//!   every unit busy; within a cycle neither is ever freed, so a closed
//!   slot's list is never visited again, and the cycle's issue ends once
//!   every slot is closed or out of unscanned entries.
//! * **Idle-cycle skipping**: a cycle with no commit, no issue and no
//!   fetch changes no architectural or resource state, so `now` jumps
//!   straight to the next completion (the top of a min-heap of issued,
//!   uncommitted instructions' `done_at`) or functional-unit release
//!   ([`Units::free_at`]) rather than stepping by 1.
//! * **Pre-decoded traces** ([`DecodedProgram`]): opcode class, base
//!   latency, FU occupancy, memory-descriptor index and packed-op count
//!   are decoded once per trace into a dense SoA-style array, so the
//!   issue loop touches one small `Copy` record per instruction instead
//!   of chasing `Instruction` fields. The only processor-dependent
//!   occupancy, a vector SIMD op's `vl / simd_lanes`, is computed at
//!   issue. The same pass records the first 3D opcode and the first
//!   memory opcode without a descriptor, which validate the trace
//!   against any backend without another walk.
//! * **Per-trace state** ([`PreparedTrace`]): the decoded program, the
//!   wakeup lists (built with the decode in one walk of the trace) and
//!   the warmed caches depend only on the trace (and the cache
//!   geometry), so [`Processor::run_prepared`] shares them between runs
//!   of one trace; [`Processor::run`] takes the same path on fresh
//!   state, with a hierarchy warmed for that run alone.
//!
//! The produced [`Metrics`] are **bit-identical** to the original loop:
//! active cycles run the same commit/issue/fetch logic in the same
//! order (memory-system calls included, so cache state evolves
//! identically), and skipped cycles are exactly those in which the
//! original loop would have done nothing. The original loop survives as
//! the `#[cfg(test)]` oracle [`Processor::run_legacy`], held equivalent
//! by proptest over random traces and by a full kernel × variant ×
//! backend matrix (see the tests below and
//! `tests/backend_equivalence.rs`).

use crate::config::ProcessorConfig;
#[cfg(test)]
use crate::depgraph::DepGraph;
use crate::depgraph::WakeupLists;
use crate::error::SimError;
use crate::memsys::MemorySystem;
use crate::metrics::Metrics;
use crate::prepared::PreparedTrace;
use mom3d_isa::{ExecClass, Instruction, MemAccess, Opcode, Trace};
use mom3d_mem::{BackendEntry, BackendRegistry};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A pool of identical functional units tracked by busy-until cycle.
#[derive(Debug, Clone)]
struct Units {
    busy_until: Vec<u64>,
}

impl Units {
    fn new(n: usize) -> Self {
        Units { busy_until: vec![0; n] }
    }

    /// Earliest cycle at which at least one unit is (or becomes) free.
    ///
    /// `free_at() <= now` is exactly the condition under which
    /// [`Units::acquire`] at `now` succeeds; it is also the pool's
    /// next-release event time for the idle-cycle skip.
    fn free_at(&self) -> u64 {
        self.busy_until.iter().copied().min().unwrap_or(u64::MAX)
    }

    /// Non-mutating probe: true exactly when [`Units::acquire`] at
    /// `now` would succeed.
    fn peek(&self, now: u64) -> bool {
        self.free_at() <= now
    }

    /// Reserves a free unit for `occupancy` cycles starting at `now`.
    fn acquire(&mut self, now: u64, occupancy: u32) -> bool {
        if let Some(u) = self.busy_until.iter_mut().find(|b| **b <= now) {
            *u = now + occupancy as u64;
            true
        } else {
            false
        }
    }
}

/// Sentinel for "no memory descriptor" in [`DecodedOp::mem`].
const NO_MEM: u32 = u32::MAX;

/// One pre-decoded instruction: everything the issue loop reads,
/// flattened into a small `Copy` record.
#[derive(Debug, Clone, Copy)]
struct DecodedOp {
    /// Issue/execution steering class.
    class: ExecClass,
    /// True for memory opcodes (LSQ occupancy).
    is_mem: bool,
    /// True for stores (retire into the store buffer).
    is_store: bool,
    /// True for `3dvload` (routes to the 3D side of the backend).
    is_3d: bool,
    /// True for vector SIMD instructions, which hold their unit for
    /// `vl / simd_lanes` cycles, rounded up. The lane count is the one
    /// processor parameter the decode would need, so that occupancy is
    /// computed at issue and `occupancy` is unused.
    per_lane: bool,
    /// Base execution latency in cycles.
    latency: u32,
    /// Functional-unit occupancy in cycles (`3dvmov` instructions hold
    /// their unit for multiple cycles).
    occupancy: u32,
    /// Captured vector length.
    vl: u8,
    /// Index into [`DecodedProgram::mems`], or [`NO_MEM`].
    mem: u32,
    /// Packed scalar operations performed on commit.
    packed_ops: u64,
}

/// A trace pre-decoded once for every run of it ([`PreparedTrace`]
/// holds it): the per-instruction records the issue loop reads, the
/// memory descriptors, and the facts that validate the trace against
/// any backend.
#[derive(Debug)]
pub(crate) struct DecodedProgram {
    ops: Vec<DecodedOp>,
    mems: Vec<MemAccess>,
    /// Index of the first 3D opcode (`3dvload` or `3dvmov`).
    first_3d: Option<usize>,
    /// Index of the first memory opcode without a descriptor.
    first_malformed: Option<usize>,
}

impl DecodedProgram {
    /// An empty program with room for a trace of `n` instructions.
    pub(crate) fn with_capacity(n: usize) -> Self {
        DecodedProgram {
            ops: Vec::with_capacity(n),
            mems: Vec::new(),
            first_3d: None,
            first_malformed: None,
        }
    }

    /// Decodes the trace's next instruction.
    pub(crate) fn push(&mut self, i: &Instruction) {
        let index = self.ops.len();
        let class = i.opcode.class();
        if matches!(i.opcode, Opcode::DvLoad | Opcode::DvMov) && self.first_3d.is_none() {
            self.first_3d = Some(index);
        }
        let is_mem = i.opcode.is_mem();
        let mem = match i.mem {
            Some(mem) if is_mem => {
                self.mems.push(mem);
                (self.mems.len() - 1) as u32
            }
            None if is_mem => {
                // Never simulated: `check` rejects the trace first.
                self.first_malformed.get_or_insert(index);
                NO_MEM
            }
            _ => NO_MEM,
        };
        self.ops.push(DecodedOp {
            class,
            is_mem,
            is_store: i.opcode.is_store(),
            is_3d: i.opcode == Opcode::DvLoad,
            per_lane: class == ExecClass::Simd && i.opcode.is_vector(),
            latency: i.opcode.base_latency(),
            // Four lanes move 4 x 64 bit per cycle.
            occupancy: if class == ExecClass::Mov3d { (i.vl as u32).div_ceil(4) } else { 1 },
            vl: i.vl,
            mem,
            packed_ops: i.packed_ops(),
        });
    }

    /// The memory ops in trace order, as warming replays them: each
    /// one's descriptor, whether it is a vector access, and whether it
    /// writes. A memory op without a descriptor has none to replay.
    pub(crate) fn mem_ops(&self) -> impl Iterator<Item = (&MemAccess, bool, bool)> {
        self.ops.iter().filter(|op| op.mem != NO_MEM).map(|op| {
            (&self.mems[op.mem as usize], op.class == ExecClass::VecMem, op.is_store)
        })
    }

    /// Validates the trace for a backend with or without the 3D
    /// register file: the error of its first offending instruction, a
    /// 3D opcode on a backend without the 3D register file taking
    /// precedence over a missing descriptor at the same index.
    fn check(&self, has_3d: bool) -> Result<(), SimError> {
        let no_3d = self.first_3d.filter(|_| !has_3d);
        match (no_3d, self.first_malformed) {
            (Some(index), Some(m)) if m < index => {
                Err(SimError::Malformed { index: m, what: "memory descriptor" })
            }
            (Some(index), _) => Err(SimError::No3dRegisterFile { index }),
            (None, Some(index)) => Err(SimError::Malformed { index, what: "memory descriptor" }),
            (None, None) => Ok(()),
        }
    }
}

/// Scan slots of the issue loop, one per execution class, each with its
/// own age-ordered ready list. Vector memory has a slot of its own
/// although it draws on the memory issue budget with scalar memory: a
/// busy vector port closes vector memory for the cycle but leaves scalar
/// loads free to issue.
const SLOTS: usize = 5;
const INT: usize = 0;
const SIMD: usize = 1;
const MEM: usize = 2;
const VEC_MEM: usize = 3;
const MOV3D: usize = 4;

fn scan_slot(class: ExecClass) -> usize {
    match class {
        ExecClass::Int => INT,
        ExecClass::Simd => SIMD,
        ExecClass::Mem => MEM,
        ExecClass::VecMem => VEC_MEM,
        ExecClass::Mov3d => MOV3D,
    }
}

/// The out-of-order processor model.
///
/// See the crate docs for the modeled resources. One `Processor` is a
/// reusable configuration; [`Processor::run`] simulates one trace and
/// returns its [`Metrics`], and [`Processor::run_prepared`] does the
/// same on per-trace state shared with other runs of that trace.
#[derive(Debug, Clone)]
pub struct Processor {
    config: ProcessorConfig,
}

impl Processor {
    /// Creates a processor with the given configuration.
    pub fn new(config: ProcessorConfig) -> Self {
        Processor { config }
    }

    /// The configuration.
    pub fn config(&self) -> &ProcessorConfig {
        &self.config
    }

    /// Simulates `trace` to completion on a [`PreparedTrace`] of its own,
    /// warming a hierarchy for this run alone: the run's memory system
    /// owns it, and nothing keeps a copy.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnsupportedConfig`] if the configuration is
    /// outside the timing model's limits (see
    /// [`ProcessorConfig::validate`]), [`SimError::UnknownBackend`] if
    /// the configured memory backend id is not registered,
    /// [`SimError::No3dRegisterFile`] if the trace contains 3D memory
    /// instructions and the configured memory system lacks the 3D
    /// register file, or [`SimError::Malformed`] for memory opcodes
    /// without descriptors.
    pub fn run(&self, trace: &Trace) -> Result<Metrics, SimError> {
        self.run_on(&PreparedTrace::new(trace), false)
    }

    /// Simulates the prepared trace to completion, taking its decode and
    /// wakeup lists from `prepared`, and a copy of the hierarchy it
    /// warmed for this geometry (warmed by the first run that needs
    /// it). The [`Metrics`] do not depend on which runs shared
    /// `prepared` before, or on their order.
    ///
    /// # Errors
    ///
    /// As [`Processor::run`].
    pub fn run_prepared(&self, prepared: &PreparedTrace) -> Result<Metrics, SimError> {
        self.run_on(prepared, true)
    }

    /// [`Processor::run`] and [`Processor::run_prepared`]: a warmed
    /// hierarchy comes from `prepared`'s shared copies when `shared`,
    /// and is warmed for this run alone otherwise.
    fn run_on(&self, prepared: &PreparedTrace, shared: bool) -> Result<Metrics, SimError> {
        let cfg = &self.config;
        cfg.validate()?;
        let backend = BackendRegistry::get(cfg.memory.as_str())
            .ok_or_else(|| SimError::UnknownBackend { id: cfg.memory.as_str().to_string() })?;
        let prog = prepared.program();
        prog.check(backend.has_3d)?;
        // An ideal backend never consults the hierarchy, so it is not
        // warmed either.
        let memsys = if cfg.warm_caches && !backend.is_ideal {
            let hierarchy = if shared {
                prepared.warmed_hierarchy(cfg.hierarchy)
            } else {
                prepared.warm(cfg.hierarchy)
            };
            MemorySystem::with_hierarchy(cfg, hierarchy)
        } else {
            MemorySystem::new(cfg)
        };
        Ok(self.simulate(prog, prepared.wakeup_lists(), memsys, &backend))
    }

    /// The timing loop proper, over a validated and decoded trace, its
    /// wakeup lists and a ready (warmed, if configured) memory system.
    fn simulate(
        &self,
        prog: &DecodedProgram,
        wake: &WakeupLists,
        mut memsys: MemorySystem,
        backend: &BackendEntry,
    ) -> Metrics {
        let cfg = &self.config;
        let n = prog.ops.len();
        let track_banks = cfg.l1_banked && !backend.is_ideal;
        let simd_lanes = cfg.simd_lanes;
        let mut metrics = Metrics::default();

        // Completion cycle per instruction; `u64::MAX` until it issues.
        let mut done_at: Vec<u64> = vec![u64::MAX; n];
        // Completion times of issued instructions, for the idle skip.
        // Entries at or before `now` are dropped every cycle, so every
        // entry left belongs to an issued, uncommitted instruction.
        let mut completions: BinaryHeap<Reverse<u64>> = BinaryHeap::with_capacity(cfg.window);

        // Wakeup state: outstanding-operand counts, the latest
        // operand-ready time seen so far per instruction, and a heap of
        // (ready_at, index) for fetched, fully woken instructions.
        // Pointer-register results are available one cycle after the
        // producer issues (the renamed value is `ptr + Ps` or the
        // `b`-flag constant), which the wakeup time per edge encodes.
        let mut pending: Vec<u32> = (0..n).map(|i| wake.dep_count(i)).collect();
        let mut edge_ready: Vec<u64> = vec![0; n];
        let mut wakeups: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
        // Ready, unissued, in-window instructions: one list per scan
        // slot, each in trace (age) order.
        let mut ready: [Vec<u32>; SLOTS] = Default::default();

        let mut window: VecDeque<u32> = VecDeque::with_capacity(cfg.window);
        let mut next_fetch = 0usize;
        let mut lsq_used = 0usize;

        let mut int_units = Units::new(cfg.int_units);
        let mut simd_units = Units::new(cfg.simd_units);
        let mut l1_ports = Units::new(cfg.l1_ports);
        let mut vec_port = Units::new(1);
        let mut vec_txn = Units::new(cfg.vec_outstanding.max(1));
        let mut mov3d_unit = Units::new(1);

        // Scan slots with an issue budget (see `scan_slot`).
        let open_at_cycle_start =
            [cfg.int_issue > 0, cfg.simd_issue > 0, cfg.mem_issue > 0, cfg.mem_issue > 0, true];

        let mut now: u64 = 0;
        // Generous progress bound: every instruction finishes within a few
        // hundred cycles of being oldest, so exceeding this many evaluated
        // cycles means a model bug, not a slow workload.
        let mut steps: u64 = 0;
        let step_bound = 2_000u64 * n as u64 + 1_000_000;

        while next_fetch < n || !window.is_empty() {
            steps += 1;
            assert!(steps < step_bound, "simulator failed to make progress (model bug)");

            // ---- commit (in order, up to commit_rate) ---------------------
            let mut committed = 0usize;
            while committed < cfg.commit_rate {
                match window.front() {
                    Some(&front) if done_at[front as usize] <= now => {
                        let op = &prog.ops[front as usize];
                        if op.is_mem {
                            lsq_used -= 1;
                        }
                        metrics.instructions += 1;
                        metrics.packed_ops += op.packed_ops;
                        window.pop_front();
                        committed += 1;
                    }
                    _ => break,
                }
            }

            // ---- wake: matured instructions join the ready list -----------
            while let Some(&Reverse((t, idx))) = wakeups.peek() {
                if t > now {
                    break;
                }
                wakeups.pop();
                let list = &mut ready[scan_slot(prog.ops[idx as usize].class)];
                let pos = list.partition_point(|&r| r < idx);
                list.insert(pos, idx);
            }

            // ---- issue (oldest first, per-class budgets) ------------------
            let mut int_budget = cfg.int_issue;
            let mut simd_budget = cfg.simd_issue;
            let mut mem_budget = cfg.mem_issue; // scalar and vector memory
            let mut mov3d_budget = 1usize;
            let mut banks_used: u64 = 0; // L1 bank bitmask for this cycle
            let mut issued_any = false;
            // Which slots can still issue this cycle. A slot closes when
            // its budget is spent or when one of its entries finds every
            // unit busy. Within a cycle budgets and units are only taken,
            // never freed, so a closed slot stays closed and its list is
            // not visited again. An entry refused by busy units changes
            // nothing, as in the legacy scan.
            let mut open = open_at_cycle_start;
            // Per slot: the next unscanned entry of its list, and how
            // many scanned entries it keeps (compacted to the front).
            let mut next = [0usize; SLOTS];
            let mut kept = [0usize; SLOTS];

            loop {
                // The oldest unscanned entry of any open slot: merging the
                // heads keeps the legacy loop's oldest-first order across
                // classes, which the shared memory budget, the memory
                // system's state and same-cycle wakeups all depend on.
                let mut slot = SLOTS;
                let mut head = u32::MAX;
                for s in 0..SLOTS {
                    if open[s] {
                        if let Some(&i) = ready[s].get(next[s]) {
                            if i < head {
                                head = i;
                                slot = s;
                            }
                        }
                    }
                }
                if slot == SLOTS {
                    break;
                }
                next[slot] += 1;
                let idx = head as usize;
                let op = prog.ops[idx];
                let did_issue = match op.class {
                    ExecClass::Int => {
                        if int_units.acquire(now, 1) {
                            int_budget -= 1;
                            open[INT] = int_budget > 0;
                            done_at[idx] = now + op.latency as u64;
                            true
                        } else {
                            open[INT] = false;
                            false
                        }
                    }
                    ExecClass::Simd => {
                        let occupancy = if op.per_lane {
                            (op.vl as usize).div_ceil(simd_lanes) as u32
                        } else {
                            op.occupancy
                        };
                        if simd_units.acquire(now, occupancy) {
                            simd_budget -= 1;
                            open[SIMD] = simd_budget > 0;
                            done_at[idx] = now + (occupancy - 1) as u64 + op.latency as u64;
                            true
                        } else {
                            open[SIMD] = false;
                            false
                        }
                    }
                    ExecClass::Mem => 'mem: {
                        let mem = prog.mems[op.mem as usize];
                        if track_banks {
                            let bank = memsys.bank_of(mem.base);
                            debug_assert!(bank < 64, "bank index validated in ProcessorConfig");
                            if banks_used & (1u64 << bank) != 0 {
                                break 'mem false; // bank conflict: retry next cycle
                            }
                            banks_used |= 1u64 << bank;
                        }
                        if !l1_ports.acquire(now, 1) {
                            open[MEM] = false;
                            break 'mem false;
                        }
                        mem_budget -= 1;
                        open[MEM] = mem_budget > 0;
                        open[VEC_MEM] &= mem_budget > 0;
                        let latency = memsys.scalar_access(&mem, op.is_store);
                        metrics.scalar_mem_instrs += 1;
                        // Stores retire into the store buffer and drain
                        // in the background; only loads expose access
                        // latency.
                        done_at[idx] =
                            if op.is_store { now + 1 } else { now + latency as u64 };
                        true
                    }
                    ExecClass::VecMem => 'vec: {
                        // Probe both the port and a transaction buffer
                        // before paying for the access (the access
                        // mutates cache state, so it must not be
                        // speculated).
                        if !vec_port.peek(now) || !vec_txn.peek(now) {
                            open[VEC_MEM] = false;
                            break 'vec false;
                        }
                        let mem = prog.mems[op.mem as usize];
                        let timing = memsys.vector_access(&mem, op.is_store, op.is_3d);
                        let ok = vec_port.acquire(now, timing.occupancy);
                        debug_assert!(ok, "vector port probed free");
                        // The transaction buffer is held until the data
                        // returns, bounding latency overlap.
                        let ok = vec_txn.acquire(now, timing.occupancy + timing.latency);
                        debug_assert!(ok, "transaction buffer probed free");
                        mem_budget -= 1;
                        open[VEC_MEM] = mem_budget > 0;
                        open[MEM] &= mem_budget > 0;
                        metrics.vec_mem_instrs += 1;
                        // Vector stores hold the port for their occupancy
                        // but complete without waiting on the L2 write.
                        done_at[idx] = if op.is_store {
                            now + timing.occupancy as u64
                        } else {
                            now + timing.occupancy as u64 + timing.latency as u64
                        };
                        true
                    }
                    ExecClass::Mov3d => {
                        if mov3d_unit.acquire(now, op.occupancy) {
                            mov3d_budget -= 1;
                            open[MOV3D] = mov3d_budget > 0;
                            metrics.mov3d_instrs += 1;
                            metrics.mov3d_words += op.vl as u64;
                            done_at[idx] = now + (op.occupancy - 1) as u64 + op.latency as u64;
                            true
                        } else {
                            open[MOV3D] = false;
                            false
                        }
                    }
                };
                if did_issue {
                    issued_any = true;
                    let completes = done_at[idx];
                    // This issue makes the cycle active, so the next cycle
                    // evaluated is `now + 1`: a completion by then is never
                    // a future event for the idle skip.
                    if completes > now + 1 {
                        completions.push(Reverse(completes));
                    }
                    for e in wake.consumers(idx) {
                        let c = e.consumer as usize;
                        let t = if e.ptr_only { now + 1 } else { completes };
                        if t > edge_ready[c] {
                            edge_ready[c] = t;
                        }
                        pending[c] -= 1;
                        if pending[c] == 0 && c < next_fetch {
                            if edge_ready[c] <= now {
                                // A zero-latency producer (e.g. an L1 hit
                                // with `l1_latency = 0`) completed in its
                                // own issue cycle. The age-ordered merge
                                // reaches this younger consumer later in
                                // the *same* cycle, so splice it into the
                                // unscanned part of its slot's list (it is
                                // younger than every scanned entry) rather
                                // than deferring it a cycle via the heap.
                                let s = scan_slot(prog.ops[c].class);
                                let list = &mut ready[s];
                                let pos = next[s]
                                    + list[next[s]..].partition_point(|&x| x < e.consumer);
                                list.insert(pos, e.consumer);
                            } else {
                                wakeups.push(Reverse((edge_ready[c], e.consumer)));
                            }
                        }
                    }
                } else {
                    ready[slot][kept[slot]] = head;
                    kept[slot] += 1;
                }
            }
            // Drop the issued entries: each list keeps its refused
            // entries and its unscanned tail, in order.
            for (list, (&next, &kept)) in ready.iter_mut().zip(next.iter().zip(&kept)) {
                if kept < next {
                    list.copy_within(next.., kept);
                    list.truncate(list.len() - (next - kept));
                }
            }

            // ---- fetch (in order, bounded by window and LSQ) ---------------
            let mut fetched = 0usize;
            while fetched < cfg.fetch_rate && next_fetch < n && window.len() < cfg.window {
                let op = &prog.ops[next_fetch];
                if op.is_mem && lsq_used == cfg.lsq {
                    break;
                }
                if op.is_mem {
                    lsq_used += 1;
                }
                window.push_back(next_fetch as u32);
                if pending[next_fetch] == 0 {
                    // All producers issued before this instruction was
                    // fetched; it wakes at its recorded operand-ready time.
                    // When that time has already passed (the common case
                    // for dependence-free code) it goes straight to the
                    // back of the ready list — it is the youngest fetched
                    // instruction, so order is preserved — and is first
                    // considered next cycle, exactly as via the heap.
                    if edge_ready[next_fetch] <= now + 1 {
                        ready[scan_slot(op.class)].push(next_fetch as u32);
                    } else {
                        wakeups.push(Reverse((edge_ready[next_fetch], next_fetch as u32)));
                    }
                }
                next_fetch += 1;
                fetched += 1;
            }

            // ---- advance --------------------------------------------------
            // An instruction that completed by `now` has committed or is
            // waiting to, so its completion is never a future event.
            while completions.peek().is_some_and(|&Reverse(t)| t <= now) {
                completions.pop();
            }
            if committed > 0 || issued_any || fetched > 0 {
                // Budgets reset, pointer operands mature and bank masks
                // clear on the very next cycle, so it must be evaluated.
                now += 1;
            } else {
                // Nothing happened: no budget, bank mask or rename state
                // changed, so re-evaluating intermediate cycles is a no-op.
                // Jump to the next completion or unit release.
                let mut next_event = completions.peek().map_or(u64::MAX, |&Reverse(t)| t);
                for units in
                    [&int_units, &simd_units, &l1_ports, &vec_port, &vec_txn, &mov3d_unit]
                {
                    let t = units.free_at();
                    if t > now && t < next_event {
                        next_event = t;
                    }
                }
                debug_assert!(
                    next_event != u64::MAX,
                    "idle cycle with no pending event (model bug)"
                );
                now = if next_event == u64::MAX { now + 1 } else { next_event };
            }
        }

        metrics.cycles = now;
        metrics.port_accesses = memsys.port_accesses;
        metrics.l2_activity = memsys.l2_activity;
        metrics.vec_words = memsys.vec_words;
        metrics.d3_writes = memsys.d3_writes;
        let b = memsys.backend_stats();
        metrics.dram_row_hits = b.row_hits;
        metrics.dram_row_misses = b.row_misses;
        let h = memsys.hierarchy().stats();
        metrics.l2_scalar_accesses = h.l2_scalar_accesses;
        metrics.l2_hits = h.l2_hits;
        metrics.l2_misses = h.l2_misses;
        metrics.l1_accesses = h.l1_accesses;
        metrics.coherence_invalidations = h.coherence_invalidations;
        metrics
    }

    /// The original scan-everything-every-cycle timing loop, kept
    /// verbatim as the equivalence oracle for [`Processor::run`] (the
    /// `ports.rs` pattern): the event-driven scheduler must reproduce
    /// its [`Metrics`] bit for bit on any valid trace.
    #[cfg(test)]
    pub(crate) fn run_legacy(&self, trace: &Trace) -> Result<Metrics, SimError> {
        let cfg = &self.config;
        cfg.validate()?;
        let instrs = trace.instrs();
        let n = instrs.len();

        let backend = mom3d_mem::BackendRegistry::get(cfg.memory.as_str())
            .ok_or_else(|| SimError::UnknownBackend { id: cfg.memory.as_str().to_string() })?;
        for (index, i) in instrs.iter().enumerate() {
            match i.opcode {
                Opcode::DvLoad | Opcode::DvMov if !backend.has_3d => {
                    return Err(SimError::No3dRegisterFile { index });
                }
                op if op.is_mem() && i.mem.is_none() => {
                    return Err(SimError::Malformed { index, what: "memory descriptor" });
                }
                _ => {}
            }
        }

        let deps = DepGraph::build(trace);
        let mut memsys = MemorySystem::new(cfg);
        if cfg.warm_caches {
            memsys.warm_from_trace(trace);
        }
        let mut metrics = Metrics::default();

        let mut done_at: Vec<u64> = vec![u64::MAX; n];
        let mut ptr_ready_at: Vec<u64> = vec![u64::MAX; n];
        let mut issued: Vec<bool> = vec![false; n];
        let mut window: VecDeque<u32> = VecDeque::with_capacity(cfg.window);
        let mut next_fetch = 0usize;
        let mut lsq_used = 0usize;

        let mut int_units = Units::new(cfg.int_units);
        let mut simd_units = Units::new(cfg.simd_units);
        let mut l1_ports = Units::new(cfg.l1_ports);
        let mut vec_port = Units::new(1);
        let mut vec_txn = Units::new(cfg.vec_outstanding.max(1));
        let mut mov3d_unit = Units::new(1);

        let mut now: u64 = 0;
        let cycle_bound = 2_000u64 * n as u64 + 1_000_000;

        while next_fetch < n || !window.is_empty() {
            // ---- commit (in order, up to commit_rate) ---------------------
            let mut committed = 0usize;
            while committed < cfg.commit_rate {
                match window.front() {
                    Some(&front) if issued[front as usize] && done_at[front as usize] <= now => {
                        let i = &instrs[front as usize];
                        if i.opcode.is_mem() {
                            lsq_used -= 1;
                        }
                        metrics.instructions += 1;
                        metrics.packed_ops += i.packed_ops();
                        window.pop_front();
                        committed += 1;
                    }
                    _ => break,
                }
            }

            // ---- issue (oldest first, per-class budgets) ------------------
            let mut int_budget = cfg.int_issue;
            let mut simd_budget = cfg.simd_issue;
            let mut mem_budget = cfg.mem_issue;
            let mut mov3d_budget = 1usize;
            let mut banks_used: u64 = 0;

            for &wi in window.iter() {
                let idx = wi as usize;
                if issued[idx] {
                    continue;
                }
                if int_budget == 0 && simd_budget == 0 && mem_budget == 0 && mov3d_budget == 0 {
                    break;
                }
                let instr = &instrs[idx];
                let ready = deps.deps(idx).iter().all(|e| {
                    let d = e.producer as usize;
                    if e.ptr_only {
                        ptr_ready_at[d] <= now
                    } else {
                        done_at[d] <= now
                    }
                });
                if !ready {
                    continue;
                }
                match instr.opcode.class() {
                    ExecClass::Int => {
                        if int_budget == 0 || !int_units.acquire(now, 1) {
                            continue;
                        }
                        int_budget -= 1;
                        done_at[idx] = now + instr.opcode.base_latency() as u64;
                    }
                    ExecClass::Simd => {
                        if simd_budget == 0 {
                            continue;
                        }
                        let occupancy = if instr.opcode.is_vector() {
                            (instr.vl as usize).div_ceil(cfg.simd_lanes) as u32
                        } else {
                            1
                        };
                        if !simd_units.acquire(now, occupancy) {
                            continue;
                        }
                        simd_budget -= 1;
                        done_at[idx] =
                            now + (occupancy - 1) as u64 + instr.opcode.base_latency() as u64;
                    }
                    ExecClass::Mem => {
                        if mem_budget == 0 {
                            continue;
                        }
                        let mem = instr.mem.expect("validated above");
                        if cfg.l1_banked && !backend.is_ideal {
                            let bank = memsys.bank_of(mem.base);
                            if banks_used & (1 << bank) != 0 {
                                continue;
                            }
                            banks_used |= 1 << bank;
                        }
                        if !l1_ports.acquire(now, 1) {
                            continue;
                        }
                        mem_budget -= 1;
                        let latency = memsys.scalar_access(&mem, instr.opcode.is_store());
                        metrics.scalar_mem_instrs += 1;
                        done_at[idx] = if instr.opcode.is_store() {
                            now + 1
                        } else {
                            now + latency as u64
                        };
                    }
                    ExecClass::VecMem => {
                        if mem_budget == 0 {
                            continue;
                        }
                        if !vec_port.peek(now) || !vec_txn.peek(now) {
                            continue;
                        }
                        let mem = instr.mem.expect("validated above");
                        let is_3d = instr.opcode == Opcode::DvLoad;
                        let timing = memsys.vector_access(&mem, instr.opcode.is_store(), is_3d);
                        let ok = vec_port.acquire(now, timing.occupancy);
                        debug_assert!(ok, "vector port probed free");
                        let ok = vec_txn.acquire(now, timing.occupancy + timing.latency);
                        debug_assert!(ok, "transaction buffer probed free");
                        mem_budget -= 1;
                        metrics.vec_mem_instrs += 1;
                        done_at[idx] = if instr.opcode.is_store() {
                            now + timing.occupancy as u64
                        } else {
                            now + timing.occupancy as u64 + timing.latency as u64
                        };
                    }
                    ExecClass::Mov3d => {
                        if mov3d_budget == 0 {
                            continue;
                        }
                        let occupancy = (instr.vl as usize).div_ceil(4) as u32;
                        if !mov3d_unit.acquire(now, occupancy) {
                            continue;
                        }
                        mov3d_budget -= 1;
                        metrics.mov3d_instrs += 1;
                        metrics.mov3d_words += instr.vl as u64;
                        done_at[idx] =
                            now + (occupancy - 1) as u64 + instr.opcode.base_latency() as u64;
                    }
                }
                issued[idx] = true;
                ptr_ready_at[idx] = now + 1;
            }

            // ---- fetch (in order, bounded by window and LSQ) ---------------
            let mut fetched = 0usize;
            while fetched < cfg.fetch_rate && next_fetch < n && window.len() < cfg.window {
                let is_mem = instrs[next_fetch].opcode.is_mem();
                if is_mem && lsq_used == cfg.lsq {
                    break;
                }
                if is_mem {
                    lsq_used += 1;
                }
                window.push_back(next_fetch as u32);
                next_fetch += 1;
                fetched += 1;
            }

            now += 1;
            assert!(now < cycle_bound, "simulator failed to make progress (model bug)");
        }

        metrics.cycles = now;
        metrics.port_accesses = memsys.port_accesses;
        metrics.l2_activity = memsys.l2_activity;
        metrics.vec_words = memsys.vec_words;
        metrics.d3_writes = memsys.d3_writes;
        let b = memsys.backend_stats();
        metrics.dram_row_hits = b.row_hits;
        metrics.dram_row_misses = b.row_misses;
        let h = memsys.hierarchy().stats();
        metrics.l2_scalar_accesses = h.l2_scalar_accesses;
        metrics.l2_hits = h.l2_hits;
        metrics.l2_misses = h.l2_misses;
        metrics.l1_accesses = h.l1_accesses;
        metrics.coherence_invalidations = h.coherence_invalidations;
        Ok(metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemorySystemKind;
    use mom3d_isa::{DReg, Gpr, IntOp, MmxReg, MomReg, TraceBuilder, UsimdOp, Width};

    fn mom(kind: MemorySystemKind) -> Processor {
        Processor::new(ProcessorConfig::mom().with_memory(kind))
    }

    #[test]
    fn empty_trace() {
        let m = mom(MemorySystemKind::Ideal).run(&Trace::new()).unwrap();
        assert_eq!(m.instructions, 0);
        assert_eq!(m.cycles, 0);
    }

    #[test]
    fn independent_alu_ops_reach_issue_width() {
        // 400 independent int ops on a 4-wide int machine: IPC -> ~4.
        let mut tb = TraceBuilder::new();
        for i in 0..400 {
            tb.li(Gpr::new((i % 32) as u8), i as i64);
        }
        let m = mom(MemorySystemKind::Ideal).run(&tb.finish()).unwrap();
        assert!(m.ipc() > 3.0, "IPC {}", m.ipc());
        assert!(m.ipc() <= 4.1);
    }

    #[test]
    fn dependence_chain_serializes() {
        let mut tb = TraceBuilder::new();
        tb.li(Gpr::new(1), 0);
        for _ in 0..200 {
            tb.alui(IntOp::Add, Gpr::new(1), Gpr::new(1), 1);
        }
        let m = mom(MemorySystemKind::Ideal).run(&tb.finish()).unwrap();
        assert!(m.cycles >= 200, "a chain cannot beat 1 op/cycle");
        assert!(m.ipc() < 1.2);
    }

    #[test]
    fn mmx_simd_wider_than_mom_issue() {
        // 400 independent usimd ops: MMX has 4 FUs, MOM 1 (x4 lanes).
        let build = || {
            let mut tb = TraceBuilder::new();
            for i in 0..400u32 {
                let r = (i % 16) as u8;
                tb.usimd2(
                    UsimdOp::AddWrap(Width::B8),
                    MmxReg::new(r),
                    MmxReg::new(16 + (i % 8) as u8),
                    MmxReg::new(24 + (i % 8) as u8),
                );
            }
            tb.finish()
        };
        let mmx = Processor::new(ProcessorConfig::mmx().with_memory(MemorySystemKind::Ideal))
            .run(&build())
            .unwrap();
        let momp = mom(MemorySystemKind::Ideal).run(&build()).unwrap();
        assert!(mmx.cycles < momp.cycles, "MMX 4-wide µSIMD beats MOM 1-wide on scalar SIMD");
    }

    #[test]
    fn vector_op_occupies_lanes() {
        // One VL=16 vector op on 4 lanes: 4 cycles of FU occupancy.
        let mut tb = TraceBuilder::new();
        tb.set_vl(16);
        for _ in 0..100 {
            tb.vop2(UsimdOp::AddWrap(Width::B8), MomReg::new(0), MomReg::new(1), MomReg::new(2));
        }
        let m = mom(MemorySystemKind::Ideal).run(&tb.finish()).unwrap();
        // 100 x ceil(16/4) = 400 FU cycles on one unit.
        assert!(m.cycles >= 400);
        assert!(m.packed_ops >= 100 * 16 * 8);
    }

    #[test]
    fn strided_vload_slower_on_vector_cache_than_multibanked() {
        // Stride 136 B = 17 words: element k maps to bank k % 8, so the
        // multi-banked system sustains 4 grants/cycle while the vector
        // cache degrades to 1 element/cycle. Repeated bases keep the L2
        // warm after the first pass so port behaviour dominates.
        let build = || {
            let mut tb = TraceBuilder::new();
            tb.set_vl(16);
            tb.set_vs(136);
            let b = tb.li(Gpr::new(1), 0x1_0000);
            for k in 0..64u64 {
                tb.vload(MomReg::new((k % 8) as u8), b, 0x1_0000 + (k % 4));
            }
            tb.finish()
        };
        let vc = mom(MemorySystemKind::VectorCache).run(&build()).unwrap();
        let mb = mom(MemorySystemKind::MultiBanked).run(&build()).unwrap();
        let ideal = mom(MemorySystemKind::Ideal).run(&build()).unwrap();
        // Strided: VC serves 1 elem/cycle, MB up to 4 (different banks).
        assert!(vc.cycles > mb.cycles, "vc {} mb {}", vc.cycles, mb.cycles);
        assert!(mb.cycles > ideal.cycles);
        assert!(vc.effective_bandwidth() <= 1.01);
        assert!(mb.effective_bandwidth() > 1.5);
    }

    #[test]
    fn unit_stride_vload_wide_on_vector_cache() {
        let mut tb = TraceBuilder::new();
        tb.set_vl(16);
        tb.set_vs(8);
        let b = tb.li(Gpr::new(1), 0x1_0000);
        for k in 0..64u64 {
            tb.vload(MomReg::new((k % 8) as u8), b, 0x1_0000 + 128 * k);
        }
        let m = mom(MemorySystemKind::VectorCache).run(&tb.finish()).unwrap();
        assert!((m.effective_bandwidth() - 4.0).abs() < 0.01);
    }

    #[test]
    fn dvload_requires_3d_register_file() {
        let mut tb = TraceBuilder::new();
        tb.set_vl(8);
        let b = tb.li(Gpr::new(1), 0);
        tb.dvload(DReg::new(0), b, 0, 640, 16, false);
        let trace = tb.finish();
        let err = mom(MemorySystemKind::VectorCache).run(&trace).unwrap_err();
        assert!(matches!(err, SimError::No3dRegisterFile { .. }));
        assert!(mom(MemorySystemKind::VectorCache3d).run(&trace).is_ok());
    }

    #[test]
    fn dvload_bandwidth_beats_2d_strided() {
        // Same bytes delivered to MOM registers over 8 search windows:
        // 16 strided 2D loads per window vs one 3dvload + 16 dvmovs.
        // Several windows amortize the initial cold misses, exposing the
        // steady-state bandwidth difference.
        let mut tb = TraceBuilder::new();
        tb.set_vl(8);
        tb.set_vs(640);
        let b = tb.li(Gpr::new(1), 0x1_0000);
        for blk in 0..8u64 {
            for k in 0..16u64 {
                tb.vload(MomReg::new((k % 8) as u8), b, 0x1_0000 + blk * 16 + k);
            }
        }
        let t2d = tb.finish();

        let mut tb = TraceBuilder::new();
        tb.set_vl(8);
        let b = tb.li(Gpr::new(1), 0x1_0000);
        for blk in 0..8u64 {
            tb.dvload(DReg::new(0), b, 0x1_0000 + blk * 16, 640, 3, false);
            for k in 0..16u8 {
                tb.dvmov(MomReg::new(k % 8), DReg::new(0), 1);
            }
        }
        let t3d = tb.finish();

        let m2d = mom(MemorySystemKind::VectorCache).run(&t2d).unwrap();
        let m3d = mom(MemorySystemKind::VectorCache3d).run(&t3d).unwrap();
        assert!(m3d.cycles < m2d.cycles, "3d {} vs 2d {}", m3d.cycles, m2d.cycles);
        assert!(m3d.l2_activity < m2d.l2_activity);
        assert!(m3d.effective_bandwidth() > m2d.effective_bandwidth());
    }

    #[test]
    fn l2_latency_sweep_hurts_2d_more_than_3d() {
        let build_2d = || {
            let mut tb = TraceBuilder::new();
            tb.set_vl(8);
            tb.set_vs(640);
            let b = tb.li(Gpr::new(1), 0x1_0000);
            for k in 0..128u64 {
                tb.vload(MomReg::new(0), b, 0x1_0000 + k);
                tb.vop2(UsimdOp::AbsDiffU(Width::B8), MomReg::new(2), MomReg::new(0), MomReg::new(1));
            }
            tb.finish()
        };
        let build_3d = || {
            let mut tb = TraceBuilder::new();
            tb.set_vl(8);
            let b = tb.li(Gpr::new(1), 0x1_0000);
            for blk in 0..2u64 {
                tb.dvload(DReg::new(0), b, 0x1_0000 + blk * 64, 640, 9, false);
                for _ in 0..64 {
                    tb.dvmov(MomReg::new(0), DReg::new(0), 1);
                    tb.vop2(
                        UsimdOp::AbsDiffU(Width::B8),
                        MomReg::new(2),
                        MomReg::new(0),
                        MomReg::new(1),
                    );
                }
            }
            tb.finish()
        };
        let t2 = build_2d();
        let t3 = build_3d();
        let p20_2d = mom(MemorySystemKind::VectorCache).run(&t2).unwrap();
        let p60_2d = Processor::new(
            ProcessorConfig::mom()
                .with_memory(MemorySystemKind::VectorCache)
                .with_l2_latency(60),
        )
        .run(&t2)
        .unwrap();
        let p20_3d = mom(MemorySystemKind::VectorCache3d).run(&t3).unwrap();
        let p60_3d = Processor::new(
            ProcessorConfig::mom()
                .with_memory(MemorySystemKind::VectorCache3d)
                .with_l2_latency(60),
        )
        .run(&t3)
        .unwrap();
        let slow_2d = p60_2d.cycles as f64 / p20_2d.cycles as f64;
        let slow_3d = p60_3d.cycles as f64 / p20_3d.cycles as f64;
        assert!(
            slow_3d < slow_2d,
            "3D must be more latency tolerant: {slow_3d:.3} vs {slow_2d:.3}"
        );
    }

    #[test]
    fn unknown_backend_is_a_sim_error() {
        let p = Processor::new(ProcessorConfig::mom().with_memory(crate::BackendId::new("bogus")));
        let err = p.run(&Trace::new()).unwrap_err();
        assert!(matches!(err, SimError::UnknownBackend { ref id } if id == "bogus"));
    }

    #[test]
    fn oversized_bank_count_is_a_sim_error() {
        // Satellite of the event refactor: >64 L1 banks used to shift the
        // conflict bitmask out of range; now it is a validation error.
        let mut cfg = ProcessorConfig::mmx().with_memory(MemorySystemKind::MultiBanked);
        cfg.banked.banks = 65;
        let err = Processor::new(cfg).run(&Trace::new()).unwrap_err();
        assert!(matches!(err, SimError::UnsupportedConfig { ref what } if what.contains("65")));
        // 64 banks exactly fills the mask and still simulates.
        let mut cfg = ProcessorConfig::mmx().with_memory(MemorySystemKind::MultiBanked);
        cfg.banked.banks = 64;
        let mut tb = TraceBuilder::new();
        let b = tb.li(Gpr::new(1), 0);
        for i in 0..64u64 {
            tb.load_scalar(Gpr::new((2 + i % 4) as u8), b, i * 8, 8);
        }
        let m = Processor::new(cfg).run(&tb.finish()).unwrap();
        assert_eq!(m.scalar_mem_instrs, 64);
    }

    #[test]
    fn dram_burst_backend_times_a_vector_trace() {
        // A registry-only backend drives the unmodified pipeline: large
        // strides thrash the row buffers, dense streams burst.
        let build = |stride: i64| {
            let mut tb = TraceBuilder::new();
            tb.set_vl(16);
            tb.set_vs(stride);
            let b = tb.li(Gpr::new(1), 0x1_0000);
            for k in 0..32u64 {
                tb.vload(MomReg::new((k % 8) as u8), b, 0x1_0000 + (k % 4));
            }
            tb.finish()
        };
        let dram = Processor::new(
            ProcessorConfig::mom().with_memory(crate::BackendId::new("dram-burst")),
        );
        let dense = dram.run(&build(8)).unwrap();
        let strided = dram.run(&build(8192)).unwrap();
        assert!(dense.dram_row_misses > 0, "cold rows must be activated");
        assert!(
            strided.dram_row_misses > dense.dram_row_misses,
            "row-set-sized strides must thrash the row buffers"
        );
        assert!(strided.cycles > dense.cycles);
        // 3D traces are rejected: the DRAM model has no 3D register file.
        let mut tb = TraceBuilder::new();
        tb.set_vl(8);
        let b = tb.li(Gpr::new(1), 0);
        tb.dvload(DReg::new(0), b, 0, 640, 16, false);
        let err = dram.run(&tb.finish()).unwrap_err();
        assert!(matches!(err, SimError::No3dRegisterFile { .. }));
    }

    #[test]
    fn multi_banked_beyond_sixty_four_banks_runs() {
        // 128 banks need a two-word bank mask in the scheduler. A
        // 64-byte stride lands every element on bank 0 of 8 banks but
        // spreads over 16 of 128, so the wide array must be faster.
        let mut tb = TraceBuilder::new();
        tb.set_vl(16);
        tb.set_vs(64);
        let b = tb.li(Gpr::new(1), 0x1_0000);
        for k in 0..32u64 {
            tb.vload(MomReg::new((k % 8) as u8), b, 0x1_0000 + 8 * (k % 4));
        }
        let trace = tb.finish();
        let run = |id: &str| {
            let id = BackendRegistry::parse(id).unwrap();
            Processor::new(ProcessorConfig::mom().with_memory(id)).run(&trace).unwrap()
        };
        let narrow = run("multi-banked");
        let wide = run("multi-banked?banks=128");
        assert_eq!(wide.instructions, narrow.instructions);
        assert!(wide.cycles < narrow.cycles, "{} vs {}", wide.cycles, narrow.cycles);
    }

    #[test]
    fn lsq_bounds_inflight_memory() {
        // 64 loads with a long-latency first load: the LSQ (32) bounds how
        // many can be in flight, but everything still completes.
        let mut tb = TraceBuilder::new();
        let b = tb.li(Gpr::new(1), 0);
        for i in 0..64u64 {
            tb.load_scalar(Gpr::new(2), b, 0x8_0000 + i * 4096, 4);
        }
        let m = mom(MemorySystemKind::VectorCache).run(&tb.finish()).unwrap();
        assert_eq!(m.scalar_mem_instrs, 64);
        assert_eq!(m.instructions, 65);
    }

    #[test]
    fn mmx_bank_conflicts_cost_cycles() {
        // 4 loads per "iteration" all mapping to bank 0 vs spread banks.
        let conflicting = {
            let mut tb = TraceBuilder::new();
            let b = tb.li(Gpr::new(1), 0);
            for i in 0..128u64 {
                tb.load_scalar(Gpr::new((2 + i % 4) as u8), b, (i % 4) * 64, 8);
            }
            tb.finish()
        };
        let spread = {
            let mut tb = TraceBuilder::new();
            let b = tb.li(Gpr::new(1), 0);
            for i in 0..128u64 {
                tb.load_scalar(Gpr::new((2 + i % 4) as u8), b, (i % 4) * 8, 8);
            }
            tb.finish()
        };
        let mmx = |t: &Trace| {
            Processor::new(ProcessorConfig::mmx().with_memory(MemorySystemKind::MultiBanked))
                .run(t)
                .unwrap()
        };
        let c = mmx(&conflicting);
        let s = mmx(&spread);
        assert!(c.cycles > s.cycles, "conflicts {} vs spread {}", c.cycles, s.cycles);
    }

    #[test]
    fn metrics_totals_are_consistent() {
        let mut tb = TraceBuilder::new();
        tb.set_vl(8);
        tb.set_vs(640);
        let b = tb.li(Gpr::new(1), 0x1_0000);
        tb.vload(MomReg::new(0), b, 0x1_0000);
        tb.vstore(MomReg::new(0), b, 0x5_0000);
        let m = mom(MemorySystemKind::VectorCache).run(&tb.finish()).unwrap();
        assert_eq!(m.vec_mem_instrs, 2);
        assert_eq!(m.vec_words, 16); // 8 loaded + 8 stored
        assert_eq!(m.instructions, 5);
        assert!(m.l2_misses > 0);
    }

    #[test]
    fn zero_latency_l1_hits_wake_consumers_same_cycle() {
        // With `l1_latency = 0` (a public knob) a warm L1 hit completes in
        // its own issue cycle, and the age-ordered scan lets the younger
        // dependent issue that same cycle. The event-driven path must
        // splice such consumers into the in-flight ready scan instead of
        // deferring them a cycle through the wakeup heap.
        let mut cfg = ProcessorConfig::mom()
            .with_memory(MemorySystemKind::VectorCache)
            .with_warm_caches(true);
        cfg.hierarchy.l1_latency = 0;
        let mut tb = TraceBuilder::new();
        let b = tb.li(Gpr::new(1), 0x1000);
        for i in 0..20u64 {
            let d = Gpr::new((2 + i % 8) as u8);
            tb.load_scalar(d, b, 0x1000 + (i % 4) * 8, 8);
            tb.alui(IntOp::Add, Gpr::new(10 + (i % 4) as u8), d, 1);
        }
        let trace = tb.finish();
        let p = Processor::new(cfg);
        let new = p.run(&trace).unwrap();
        let old = p.run_legacy(&trace).unwrap();
        assert_eq!(new, old, "zero-latency loads must not delay their consumers");
    }

    /// A zero-latency load wakes its consumer `C`, another load, in the
    /// load's own issue cycle while `Y`, a younger load that is ready,
    /// waits in the scalar memory ready list. `C` must be spliced in
    /// ahead of `Y`: with two memory issues a cycle, `C` issues in that
    /// very cycle, and so does the 40-op integer chain that its result
    /// feeds, one op a cycle. Appending `C` at the back of its list lets
    /// `Y` take the last memory issue, which delays `C` and the chain
    /// by a cycle and changes `cycles`.
    #[test]
    fn a_same_cycle_wakeup_is_spliced_ahead_of_younger_ready_entries() {
        let mut cfg = ProcessorConfig::mom()
            .with_memory(MemorySystemKind::VectorCache)
            .with_warm_caches(true);
        cfg.hierarchy.l1_latency = 0;
        cfg.mem_issue = 2;
        let mut tb = TraceBuilder::new();
        // The base register is never written, so the first load has no
        // producer and is ready as soon as it is fetched, as is `Y`.
        let d = tb.load_scalar(Gpr::new(2), Gpr::new(1), 0x1000, 8);
        let c = tb.load_scalar(Gpr::new(3), d, 0x1000, 8); // C
        tb.load_scalar(Gpr::new(4), Gpr::new(1), 0x1008, 8); // Y
        for _ in 0..40 {
            tb.alui(IntOp::Add, c, c, 1);
        }
        let trace = tb.finish();
        let p = Processor::new(cfg);
        let m = p.run(&trace).unwrap();
        assert_eq!(m, p.run_legacy(&trace).unwrap());
        // Both loads and the chain's first op issue in cycle 1, its
        // 40th op in cycle 40; that commits in cycle 41.
        assert_eq!(m.cycles, 42, "{m:?}");
    }

    #[test]
    fn scalar_loads_issue_past_a_blocked_vector_load() {
        // Four strided vector loads hold the single vector port for 16
        // cycles each, so vector memory is closed for most of the first
        // 64 cycles. The scalar loads queued behind the blocked `vload`s
        // draw on the same memory issue budget but not on the port: they
        // must issue in those cycles, two per cycle, exactly as in the
        // legacy loop. A large LSQ lets all of them in at once.
        let mut cfg = ProcessorConfig::mom()
            .with_memory(MemorySystemKind::VectorCache)
            .with_warm_caches(true);
        cfg.lsq = cfg.window;
        let build = |vloads: u64, loads: u64| {
            let mut tb = TraceBuilder::new();
            tb.set_vl(16);
            tb.set_vs(136);
            let b = tb.li(Gpr::new(1), 0x1_0000);
            for k in 0..vloads {
                tb.vload(MomReg::new((k % 8) as u8), b, 0x1_0000 + 8 * k);
            }
            for k in 0..loads {
                tb.load_scalar(Gpr::new((2 + k % 8) as u8), b, 0x8_0000 + 8 * k, 8);
            }
            tb.finish()
        };
        let p = Processor::new(cfg);
        let mixed = build(4, 120);
        let m = p.run(&mixed).unwrap();
        assert_eq!(m, p.run_legacy(&mixed).unwrap());
        let vector_only = p.run(&build(4, 0)).unwrap().cycles;
        let scalar_only = p.run(&build(0, 120)).unwrap().cycles;
        assert!(
            m.cycles < vector_only + scalar_only / 2,
            "scalar loads must overlap the busy vector port: {} vs {vector_only} + {scalar_only}",
            m.cycles
        );
    }

    #[test]
    fn simd_ops_issue_past_full_int_units() {
        // One integer unit under a four-wide integer issue budget: the
        // units run out before the budget does, so every cycle the second
        // ready integer op is refused. The SIMD ops queued behind the
        // integer ops must still issue in those cycles, overlapping them.
        let mut cfg = ProcessorConfig::mmx().with_memory(MemorySystemKind::Ideal);
        cfg.int_units = 1;
        let build = |int: bool, simd: bool| {
            let mut tb = TraceBuilder::new();
            for i in 0..64u32 {
                if int {
                    tb.li(Gpr::new((i % 30) as u8), i as i64);
                }
            }
            for i in 0..64u32 {
                if simd {
                    tb.usimd2(
                        UsimdOp::AddWrap(Width::B8),
                        MmxReg::new((i % 16) as u8),
                        MmxReg::new(16 + (i % 8) as u8),
                        MmxReg::new(24 + (i % 8) as u8),
                    );
                }
            }
            tb.finish()
        };
        let p = Processor::new(cfg);
        let mixed = build(true, true);
        let m = p.run(&mixed).unwrap();
        assert_eq!(m, p.run_legacy(&mixed).unwrap());
        let int_only = p.run(&build(true, false)).unwrap().cycles;
        let simd_only = p.run(&build(false, true)).unwrap().cycles;
        assert!(
            m.cycles < int_only + simd_only,
            "SIMD ops must overlap the full int units: {} vs {int_only} + {simd_only}",
            m.cycles
        );
    }

    #[test]
    fn units_peek_and_free_at_agree_with_acquire() {
        let mut u = Units::new(2);
        assert_eq!(u.free_at(), 0);
        assert!(u.peek(0));
        assert!(u.acquire(0, 3)); // unit 0 busy until 3
        assert!(u.peek(0), "second unit still free");
        assert!(u.acquire(0, 5)); // unit 1 busy until 5
        assert!(!u.peek(1));
        assert!(!u.acquire(1, 1), "acquire must agree with peek");
        assert_eq!(u.free_at(), 3, "earliest release is the next event");
        assert!(u.peek(3));
        assert!(u.acquire(3, 1));
        assert_eq!(u.free_at(), 4);
        // An empty pool never grants and never schedules an event.
        let mut empty = Units::new(0);
        assert_eq!(empty.free_at(), u64::MAX);
        assert!(!empty.peek(u64::MAX - 1));
        assert!(!empty.acquire(0, 1));
    }

    /// The full kernel x ISA-variant x backend matrix: the event-driven
    /// scheduler reproduces the legacy loop's metrics bit for bit on
    /// every real workload (reduced geometry) under every registered
    /// backend, in exactly the configurations the sweep engine uses.
    #[test]
    fn event_driven_matches_legacy_on_kernel_matrix() {
        use mom3d_kernels::{IsaVariant, Workload, WorkloadKind};
        for kind in WorkloadKind::ALL {
            for variant in [IsaVariant::Mmx, IsaVariant::Mom, IsaVariant::Mom3d] {
                let wl = Workload::build_small(kind, variant, 11)
                    .unwrap_or_else(|e| panic!("{kind} {variant}: build failed: {e}"));
                for entry in mom3d_mem::BackendRegistry::entries() {
                    let base = match variant {
                        IsaVariant::Mmx => ProcessorConfig::mmx(),
                        _ => ProcessorConfig::mom(),
                    };
                    let p = Processor::new(
                        base.with_memory(entry.backend_id()).with_warm_caches(true),
                    );
                    let new = p.run(wl.trace());
                    let old = p.run_legacy(wl.trace());
                    assert_eq!(
                        new, old,
                        "{kind} {variant} on {}: event-driven diverged from the legacy loop",
                        entry.id
                    );
                }
            }
        }
    }

    mod equivalence {
        //! Proptest equivalence of the event-driven scheduler against
        //! the legacy cycle-stepped oracle over random traces.

        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone, Copy)]
        enum Step {
            Alu(u8, u8, i8),
            Load(u8, u32),
            Store(u8, u32),
            Usimd(u8, u8),
            SetVl(u8),
            VLoad(u8, u32),
            VStore(u8, u32),
            DvLoad(u32, u8),
            DvMov(u8, i8),
            Branch(bool),
        }

        fn step_strategy() -> impl Strategy<Value = Step> {
            prop_oneof![
                (0u8..30, 0u8..30, any::<i8>()).prop_map(|(d, s, i)| Step::Alu(d, s, i)),
                (0u8..30, 0u32..0x8000).prop_map(|(d, a)| Step::Load(d, a)),
                (0u8..30, 0u32..0x8000).prop_map(|(s, a)| Step::Store(s, a)),
                (0u8..16, 0u8..16).prop_map(|(d, s)| Step::Usimd(d, s)),
                (1u8..=16).prop_map(Step::SetVl),
                (0u8..16, 0u32..0x8000).prop_map(|(d, a)| Step::VLoad(d, a)),
                (0u8..16, 0u32..0x8000).prop_map(|(s, a)| Step::VStore(s, a)),
                (0u32..0x8000, 1u8..=16).prop_map(|(a, w)| Step::DvLoad(a, w)),
                (0u8..16, -8i8..=8).prop_map(|(d, p)| Step::DvMov(d, p)),
                any::<bool>().prop_map(Step::Branch),
            ]
        }

        fn build(steps: &[Step]) -> Trace {
            let mut tb = TraceBuilder::new();
            tb.set_vl(8);
            tb.set_vs(64);
            let base = tb.li(Gpr::new(31), 0x10_0000);
            for s in steps {
                match *s {
                    Step::Alu(d, s, imm) => {
                        tb.alui(IntOp::Add, Gpr::new(d % 30), Gpr::new(s % 30), imm as i64);
                    }
                    Step::Load(d, a) => {
                        tb.load_scalar(Gpr::new(d % 30), base, 0x10_0000 + a as u64, 8);
                    }
                    Step::Store(s, a) => {
                        tb.store_scalar(Gpr::new(s % 30), base, 0x10_0000 + a as u64, 8);
                    }
                    Step::Usimd(d, s) => {
                        tb.usimd2(
                            UsimdOp::AddSatU(Width::B8),
                            MmxReg::new(d % 16),
                            MmxReg::new(s % 16),
                            MmxReg::new((s + 1) % 16),
                        );
                    }
                    Step::SetVl(v) => tb.set_vl(v),
                    Step::VLoad(d, a) => {
                        tb.vload(MomReg::new(d % 16), base, 0x10_0000 + a as u64);
                    }
                    Step::VStore(s, a) => {
                        tb.vstore(MomReg::new(s % 16), base, 0x10_0000 + a as u64);
                    }
                    Step::DvLoad(a, w) => {
                        tb.dvload(DReg::new(0), base, 0x10_0000 + a as u64, 64, w, false);
                    }
                    Step::DvMov(d, p) => {
                        tb.dvmov(MomReg::new(d % 16), DReg::new(0), p as i16);
                    }
                    Step::Branch(t) => tb.branch(Gpr::new(1), t),
                }
            }
            tb.finish()
        }

        /// Issue widths and unit counts, so that a class can run out of
        /// units before it runs out of budget (and the other way round).
        #[derive(Debug, Clone, Copy)]
        struct Resources {
            int_units: usize,
            simd_units: usize,
            int_issue: usize,
            simd_issue: usize,
            mem_issue: usize,
            l1_ports: usize,
            vec_outstanding: usize,
            window: usize,
            lsq: usize,
        }

        impl Resources {
            fn apply(self, mut cfg: ProcessorConfig) -> ProcessorConfig {
                cfg.int_units = self.int_units;
                cfg.simd_units = self.simd_units;
                cfg.int_issue = self.int_issue;
                cfg.simd_issue = self.simd_issue;
                cfg.mem_issue = self.mem_issue;
                cfg.l1_ports = self.l1_ports;
                cfg.vec_outstanding = self.vec_outstanding;
                cfg.window = self.window;
                cfg.lsq = self.lsq;
                cfg
            }
        }

        fn resources_strategy() -> impl Strategy<Value = Resources> {
            (
                (1usize..=4, 1usize..=4, 1usize..=4, 1usize..=4),
                (1usize..=4, 1usize..=4, 0usize..=4),
                (1usize..=128, 1usize..=32),
            )
                .prop_map(|(units, memory, (window, lsq))| {
                    let (int_units, simd_units, int_issue, simd_issue) = units;
                    let (mem_issue, l1_ports, vec_outstanding) = memory;
                    Resources {
                        int_units,
                        simd_units,
                        int_issue,
                        simd_issue,
                        mem_issue,
                        l1_ports,
                        vec_outstanding,
                        window,
                        lsq,
                    }
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(40))]

            /// On any well-formed trace, under both Table-2 processor
            /// shapes and every registered backend — zero-latency cache
            /// configurations included — the event-driven path
            /// reproduces the legacy oracle bit for bit, metrics and
            /// errors alike. Each trace then runs once more under a
            /// random resource shape.
            #[test]
            fn event_driven_equals_legacy(
                steps in proptest::collection::vec(step_strategy(), 1..120),
                mmx_shape in any::<bool>(),
                zero_latency in any::<bool>(),
                warm in any::<bool>(),
                resources in resources_strategy(),
            ) {
                let trace = build(&steps);
                let mut base = if mmx_shape {
                    ProcessorConfig::mmx()
                } else {
                    ProcessorConfig::mom()
                };
                base = base.with_warm_caches(warm);
                if zero_latency {
                    // Same-cycle completion paths: producers finish in
                    // their issue cycle.
                    base.hierarchy.l1_latency = 0;
                    base = base.with_l2_latency(0);
                }
                for entry in mom3d_mem::BackendRegistry::entries() {
                    let p = Processor::new(base.with_memory(entry.backend_id()));
                    let new = p.run(&trace);
                    let old = p.run_legacy(&trace);
                    prop_assert_eq!(new, old, "backend {}", entry.id);
                    let p = Processor::new(resources.apply(*p.config()));
                    let new = p.run(&trace);
                    let old = p.run_legacy(&trace);
                    prop_assert_eq!(new, old, "backend {} under {:?}", entry.id, resources);
                }
            }
        }
    }
}
