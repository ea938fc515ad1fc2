//! Per-trace simulator state, built once and shared by every run that
//! replays the trace.

use crate::depgraph::{DepGraph, WakeupLists};
use crate::memsys::warm;
use crate::pipeline::DecodedProgram;
use mom3d_isa::Trace;
use mom3d_mem::{HierarchyConfig, LineSet, MemHierarchy};
use std::sync::{Mutex, OnceLock};

/// The part of simulating a trace that no processor timing changes,
/// built lazily by the first [`crate::Processor::run_prepared`] call
/// that needs it and then shared by every later one, across threads
/// too:
///
/// * the decoded program: the per-instruction records the issue loop
///   reads, and the first 3D opcode and first memory opcode without a
///   descriptor, which validate the trace against any backend;
/// * the inverted dependence graph ([`WakeupLists`]), which depends
///   only on the trace;
/// * one warmed cache hierarchy per L1/L2 geometry. Warming depends
///   only on the trace and the geometry, never on latencies, so each
///   run clones the warmed hierarchy and re-times it to its own
///   latencies ([`MemHierarchy::retime`]).
///
/// It holds an edge per dependence and a full tag array per geometry, so
/// drop it once the trace's last run is done.
#[derive(Debug)]
pub struct PreparedTrace<'t> {
    trace: &'t Trace,
    program: OnceLock<DecodedProgram>,
    wake: OnceLock<WakeupLists>,
    warmed: Mutex<Vec<MemHierarchy>>,
}

impl<'t> PreparedTrace<'t> {
    /// Wraps `trace`; nothing is built until a run needs it.
    pub fn new(trace: &'t Trace) -> Self {
        PreparedTrace {
            trace,
            program: OnceLock::new(),
            wake: OnceLock::new(),
            warmed: Mutex::new(Vec::new()),
        }
    }

    /// The trace's decoded program and validation facts.
    pub(crate) fn program(&self) -> &DecodedProgram {
        self.program.get_or_init(|| DecodedProgram::decode(self.trace))
    }

    /// The trace's wakeup lists.
    pub(crate) fn wakeup_lists(&self) -> &WakeupLists {
        self.wake.get_or_init(|| DepGraph::build(self.trace).invert())
    }

    /// A copy of the hierarchy this trace warmed under `config`'s
    /// geometry, re-timed to `config`'s latencies: equal to a fresh
    /// hierarchy built from `config` and warmed by the trace.
    pub(crate) fn warmed_hierarchy(&self, config: HierarchyConfig) -> MemHierarchy {
        let mut warmed = self.warmed.lock().expect("warmed hierarchies poisoned");
        let same_geometry =
            |h: &MemHierarchy| h.config().l1 == config.l1 && h.config().l2 == config.l2;
        let i = match warmed.iter().position(same_geometry) {
            Some(i) => i,
            None => {
                let mut h = MemHierarchy::new(config);
                warm(&mut h, self.trace, &mut Vec::new(), &mut LineSet::new());
                warmed.push(h);
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
    /// equals a fresh `Processor::run`, errors included.
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
                            assert_eq!(
                                p.run_prepared(prepared),
                                p.run(trace),
                                "{kind} {variant} on {} at L2 {}",
                                cfg.memory.as_str(),
                                cfg.hierarchy.l2_latency
                            );
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
