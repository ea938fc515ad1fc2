//! Per-trace simulator state, built once and shared by every run that
//! replays the trace.

use crate::depgraph::{WakeupBuilder, WakeupLists};
use crate::memsys::warm;
use crate::pipeline::DecodedProgram;
use mom3d_isa::Trace;
use mom3d_mem::{HierarchyConfig, LineSet, MemHierarchy};
use std::sync::Mutex;

/// The part of simulating a trace that no processor timing changes,
/// built once and shared by every [`crate::Processor::run_prepared`]
/// call on it, across threads too:
///
/// * the decoded program: the per-instruction records the issue loop
///   reads, every memory op's descriptor, and the first 3D opcode and
///   first memory opcode without a descriptor, which validate the trace
///   against any backend;
/// * the wakeup lists ([`WakeupLists`]), which depend only on the
///   trace. [`PreparedTrace::new`] builds both in one walk of the trace;
/// * one warmed cache hierarchy per L1/L2 geometry, warmed from the
///   decoded program's memory ops by the first run that needs it.
///   Warming depends only on the trace and the geometry, never on
///   latencies, so each run clones the warmed hierarchy and re-times it
///   to its own latencies ([`MemHierarchy::retime`]).
///
/// It owns all of this and borrows nothing from the trace, so it can
/// outlive the borrow it was built from and be shared behind an `Arc`.
/// It holds an edge per dependence and a full tag array per geometry:
/// the harness's per-trace store keeps only a weak handle to it, so it
/// is freed as soon as the last holder, a worker with cells of the trace
/// left, drops it.
#[derive(Debug)]
pub struct PreparedTrace {
    program: DecodedProgram,
    wake: WakeupLists,
    warmed: Mutex<Vec<MemHierarchy>>,
}

impl PreparedTrace {
    /// Decodes `trace` and builds its wakeup lists, in one walk of it.
    pub fn new(trace: &Trace) -> Self {
        let mut program = DecodedProgram::with_capacity(trace.len());
        let mut wake = WakeupBuilder::with_capacity(trace.len());
        for instr in trace.iter() {
            program.push(instr);
            wake.push(instr);
        }
        PreparedTrace { program, wake: wake.finish(), warmed: Mutex::new(Vec::new()) }
    }

    /// The trace's decoded program and validation facts.
    pub(crate) fn program(&self) -> &DecodedProgram {
        &self.program
    }

    /// The trace's wakeup lists.
    pub(crate) fn wakeup_lists(&self) -> &WakeupLists {
        &self.wake
    }

    /// A hierarchy built from `config` and warmed by the trace's memory
    /// ops.
    pub(crate) fn warm(&self, config: HierarchyConfig) -> MemHierarchy {
        let mut h = MemHierarchy::new(config);
        warm(&mut h, self.program.mem_ops(), &mut Vec::new(), &mut LineSet::new());
        h
    }

    /// A copy of the hierarchy this trace warmed under `config`'s
    /// geometry, re-timed to `config`'s latencies: equal to
    /// [`PreparedTrace::warm`] of `config`.
    pub(crate) fn warmed_hierarchy(&self, config: HierarchyConfig) -> MemHierarchy {
        let mut warmed = self.warmed.lock().expect("warmed hierarchies poisoned");
        let same_geometry =
            |h: &MemHierarchy| h.config().l1 == config.l1 && h.config().l2 == config.l2;
        let i = match warmed.iter().position(same_geometry) {
            Some(i) => i,
            None => {
                warmed.push(self.warm(config));
                warmed.len() - 1
            }
        };
        let mut h = warmed[i].clone();
        drop(warmed);
        h.retime(config);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemorySystem, Processor, ProcessorConfig};
    use mom3d_kernels::{IsaVariant, Workload, WorkloadKind};

    /// Fisher–Yates with a fixed xorshift stream: a reproducible order
    /// that is neither enumeration order nor its reverse.
    fn shuffle<T>(v: &mut [T], mut seed: u64) {
        for i in (1..v.len()).rev() {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            v.swap(i, (seed % (i as u64 + 1)) as usize);
        }
    }

    /// Every registered backend at L2 latency 20, 40 and 60, the cells a
    /// sweep runs on one trace, shuffled; each run on one shared
    /// `PreparedTrace` (from two threads, as the sweep workers do)
    /// equals a fresh `Processor::run`, errors included, and the legacy
    /// loop, which shares neither the decode nor the warming: it builds
    /// its own `DepGraph` and warms by walking the trace.
    #[test]
    fn shared_state_runs_equal_fresh_runs_in_any_order() {
        for (kind, variant) in [
            (WorkloadKind::Mpeg2Encode, IsaVariant::Mom3d),
            (WorkloadKind::JpegEncode, IsaVariant::Mom),
            (WorkloadKind::GsmEncode, IsaVariant::Mmx),
        ] {
            let wl = Workload::build_small(kind, variant, 11)
                .unwrap_or_else(|e| panic!("{kind} {variant}: build failed: {e}"));
            let base = match variant {
                IsaVariant::Mmx => ProcessorConfig::mmx(),
                _ => ProcessorConfig::mom(),
            };
            let mut configs: Vec<ProcessorConfig> = mom3d_mem::BackendRegistry::entries()
                .iter()
                .flat_map(|e| {
                    [20, 40, 60].map(|l2| {
                        base.with_memory(e.backend_id()).with_l2_latency(l2).with_warm_caches(true)
                    })
                })
                .collect();
            // A cold cell shares the graph but not the warmed caches.
            configs.push(base.with_warm_caches(false));
            shuffle(&mut configs, 0x9e37_79b9_7f4a_7c15 ^ kind as u64);

            let prepared = PreparedTrace::new(wl.trace());
            let (a, b) = configs.split_at(configs.len() / 2);
            std::thread::scope(|s| {
                for half in [a, b] {
                    let prepared = &prepared;
                    let trace = wl.trace();
                    s.spawn(move || {
                        for cfg in half {
                            let p = Processor::new(*cfg);
                            let shared = p.run_prepared(prepared);
                            let cell = format!(
                                "{kind} {variant} on {} at L2 {}",
                                cfg.memory.as_str(),
                                cfg.hierarchy.l2_latency
                            );
                            assert_eq!(shared, p.run(trace), "{cell}: run");
                            assert_eq!(shared, p.run_legacy(trace), "{cell}: run_legacy");
                        }
                    });
                }
            });
        }
    }

    /// Latencies never change what warming leaves in the caches: the
    /// hierarchy warmed once (at L2 latency 40) and re-timed to L equals
    /// one built and warmed at L.
    #[test]
    fn a_warmed_hierarchy_retimed_to_l_equals_one_warmed_at_l() {
        let wl = Workload::build_small(WorkloadKind::Mpeg2Decode, IsaVariant::Mom, 11)
            .expect("workload builds");
        let prepared = PreparedTrace::new(wl.trace());
        for l2 in [40, 20, 60] {
            let cfg = ProcessorConfig::mom().with_l2_latency(l2);
            let mut fresh = MemorySystem::new(&cfg);
            fresh.warm_from_trace(wl.trace());
            assert_eq!(&prepared.warmed_hierarchy(cfg.hierarchy), fresh.hierarchy(), "L2 {l2}");
        }
        assert_eq!(prepared.warmed.lock().unwrap().len(), 1, "one geometry, one warm");
    }

    /// Warming from the decoded program's memory ops leaves exactly the
    /// caches `MemorySystem::warm_from_trace` leaves by walking the
    /// trace: on all 15 small-geometry traces and on a trace with a
    /// memory op that has no descriptor, at the paper's L1/L2 geometry
    /// and at a smaller one.
    #[test]
    fn warming_from_the_decoded_program_equals_warming_from_the_trace() {
        use mom3d_isa::{Gpr, MomReg, TraceBuilder};
        use mom3d_mem::CacheConfig;

        let paper = ProcessorConfig::mom().with_memory(crate::MemorySystemKind::VectorCache3d);
        let mut small = paper;
        let (l1, l2) = (small.hierarchy.l1, small.hierarchy.l2);
        small.hierarchy.l1 = CacheConfig { size_bytes: 4 * 1024, assoc: 4, ..l1 };
        small.hierarchy.l2 = CacheConfig { size_bytes: 64 * 1024, line_bytes: 64, ..l2 };
        let check = |name: &str, trace: &Trace| {
            let prepared = PreparedTrace::new(trace);
            for cfg in [paper, small] {
                let mut walked = MemorySystem::new(&cfg);
                walked.warm_from_trace(trace);
                assert_eq!(
                    &prepared.warm(cfg.hierarchy),
                    walked.hierarchy(),
                    "{name} at L1 {:?}, L2 {:?}",
                    cfg.hierarchy.l1,
                    cfg.hierarchy.l2
                );
            }
        };
        for kind in WorkloadKind::ALL {
            for variant in IsaVariant::ALL {
                let wl = Workload::build_small(kind, variant, 11)
                    .unwrap_or_else(|e| panic!("{kind} {variant}: build failed: {e}"));
                check(&format!("{kind} {variant}"), wl.trace());
            }
        }

        // Scalar and vector loads and stores over shared lines, with the
        // descriptor of one vector store removed.
        let mut tb = TraceBuilder::new();
        tb.set_vl(8);
        let b = tb.li(Gpr::new(1), 0x4000);
        for i in 0..6u64 {
            let v = tb.vload(MomReg::new(0), b, 0x4000 + 0x100 * i);
            tb.store_scalar(Gpr::new(2), b, 0x4010 + 0x100 * i, 8);
            tb.vstore(v, b, 0x4080 + 0x100 * i);
            tb.load_scalar(Gpr::new(3), b, 0x4088 + 0x100 * i, 4);
        }
        let mut instrs = tb.finish().instrs().to_vec();
        let bare = instrs.iter().rposition(|i| i.opcode == mom3d_isa::Opcode::VStore);
        assert!(instrs[bare.expect("a vector store")].mem.take().is_some());
        check("descriptorless vector store", &instrs.into_iter().collect());
    }

    /// A trace with a 3D opcode and a memory opcode without descriptor
    /// fails with the error of whichever comes first, a tie going to the
    /// missing 3D register file, exactly as the legacy loop's validation
    /// decides; the errors are cached per trace, not per backend, so one
    /// `PreparedTrace` serves both kinds of backend.
    #[test]
    fn trace_errors_match_the_legacy_validation() {
        use crate::{MemorySystemKind, SimError};
        use mom3d_isa::{DReg, Gpr, MomReg, Opcode, TraceBuilder};

        // `setvl` and `li`, then scalar loads with a 3D op at index `d3`
        // (a `3dvmov` or a `3dvload`), and the descriptor of the
        // instruction at index `bare` removed.
        let build = |dvmov: bool, d3: usize, bare: usize| {
            let mut tb = TraceBuilder::new();
            tb.set_vl(8);
            let b = tb.li(Gpr::new(1), 0x1000);
            for i in 2..7 {
                if i == d3 && dvmov {
                    tb.dvmov(MomReg::new(0), DReg::new(0), 1);
                } else if i == d3 {
                    tb.dvload(DReg::new(0), b, 0x1000, 64, 4, false);
                } else {
                    tb.load_scalar(Gpr::new(2), b, 0x2000 + 8 * i as u64, 8);
                }
            }
            let mut instrs = tb.finish().instrs().to_vec();
            assert!(matches!(instrs[d3].opcode, Opcode::DvLoad | Opcode::DvMov), "3D op at {d3}");
            assert!(instrs[bare].mem.take().is_some(), "index {bare} had a descriptor");
            instrs.into_iter().collect::<Trace>()
        };
        let no_3d = |index| Err(SimError::No3dRegisterFile { index });
        let malformed = |index| Err(SimError::Malformed { index, what: "memory descriptor" });
        let cases = [
            // 3D op first: a 2D backend rejects the 3D op, a 3D one the
            // bare load.
            ("3dvload first", build(false, 3, 5), no_3d(3), malformed(5)),
            ("3dvmov first", build(true, 2, 4), no_3d(2), malformed(4)),
            // The bare load first: both backends reject it.
            ("bare load first", build(false, 5, 3), malformed(3), malformed(3)),
            // The `3dvload` itself has no descriptor.
            ("tie", build(false, 4, 4), no_3d(4), malformed(4)),
        ];
        for (name, trace, on_2d, on_3d) in cases {
            let prepared = PreparedTrace::new(&trace);
            for (kind, expected) in
                [(MemorySystemKind::VectorCache, &on_2d), (MemorySystemKind::VectorCache3d, &on_3d)]
            {
                let p = Processor::new(ProcessorConfig::mom().with_memory(kind));
                let legacy = p.run_legacy(&trace);
                assert_eq!(&legacy, expected, "{name} on {kind:?}: legacy validation");
                assert_eq!(p.run(&trace), legacy, "{name} on {kind:?}: run");
                assert_eq!(p.run_prepared(&prepared), legacy, "{name} on {kind:?}: run_prepared");
            }
        }
    }
}
