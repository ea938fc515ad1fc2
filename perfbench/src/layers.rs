//! Per-layer measurement for the traced run: a span-recording
//! operation context, the per-cell replays of the timing simulator's
//! internal layers, and the frame-codec probe.
//!
//! Every time added to a sample comes from a span around a call the
//! benchmark itself makes into a layer's public function; nothing inside
//! the program is instrumented. Counts are recorded at the same call
//! sites, next to the time they explain.

use crate::trace::Tracer;
use mom3d_bench::protocol::{read_frame, write_frame, Request, Response};
use mom3d_bench::SimKey;
use mom3d_cpu::{BackendRegistry, DepGraph, MemorySystem, Metrics, Processor};
use mom3d_isa::{ExecClass, MemAccess, Opcode, Trace};
use mom3d_mem::{LineSet, MemHierarchy};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::sync::Mutex;

/// One traced operation's per-layer values, by metric name.
pub type Sample = BTreeMap<String, f64>;

/// The seven registered backend families, in registry order.
pub fn families() -> Vec<&'static str> {
    BackendRegistry::entries().iter().map(|e| e.id).collect()
}

/// Span and sample context of one traced operation.
pub struct OpTrace<'a> {
    tracer: &'a Tracer,
    op: u64,
    root: u64,
    root_start: u64,
    sample: Mutex<Sample>,
}

impl<'a> OpTrace<'a> {
    /// Opens the operation's root span.
    pub fn new(tracer: &'a Tracer, op: u64) -> Self {
        let root = tracer.reserve();
        OpTrace {
            tracer,
            op,
            root,
            root_start: tracer.now(),
            sample: Mutex::default(),
        }
    }

    /// Closes the root span (named `name`) and returns its duration.
    pub fn end_root(&self, name: &str) -> u64 {
        self.tracer
            .close(self.root, self.op, None, name, self.root_start);
        self.tracer.now() - self.root_start
    }

    /// Runs `f` in a span under `parent` (the root when `None`) and adds
    /// the span's duration to each of `metrics`.
    pub fn timed<T>(
        &self,
        parent: Option<u64>,
        span: &str,
        metrics: &[&str],
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.tracer.reserve();
        let start = self.tracer.now();
        let out = f();
        let parent = Some(parent.unwrap_or(self.root));
        self.tracer.close(id, self.op, parent, span, start);
        let dur = (self.tracer.now() - start) as f64;
        for m in metrics {
            self.add(m, dur);
        }
        out
    }

    /// Runs `f` inside a top-level span of this operation (outside the
    /// root), handing it the span id for children.
    pub fn group<T>(&self, span: &str, f: impl FnOnce(u64) -> T) -> T {
        let id = self.tracer.reserve();
        let start = self.tracer.now();
        let out = f(id);
        self.tracer.close(id, self.op, None, span, start);
        out
    }

    pub fn add(&self, metric: &str, value: f64) {
        *self
            .sample
            .lock()
            .expect("sample poisoned")
            .entry(metric.to_string())
            .or_default() += value;
    }

    /// Records a simulated cell's result counters.
    pub fn add_cell(&self, key: &SimKey, m: &Metrics) {
        self.add("cpu.sim_instrs", m.instructions as f64);
        self.add("cpu.sim_cycles", m.cycles as f64);
        self.add(
            &format!("cpu.instrs.{}", key.memory.base()),
            m.instructions as f64,
        );
    }

    pub fn into_sample(self) -> Sample {
        self.sample.into_inner().expect("sample poisoned")
    }
}

/// Simulates one cell inside a `cpu.run` span, as a sweep worker does.
pub fn run_cell(t: &OpTrace, parent: Option<u64>, key: &SimKey, trace: &Trace) -> Metrics {
    let per_family = format!("cpu.run_ns.{}", key.memory.base());
    let m = t.timed(parent, "cpu.run", &["cpu.run_ns", &per_family], || {
        Processor::new(key.config())
            .run(trace)
            .expect("grid cells simulate")
    });
    t.add_cell(key, &m);
    m
}

/// A vector memory instruction as the timing simulator sees it.
struct VecOp {
    mem: MemAccess,
    is_store: bool,
    is_3d: bool,
}

/// Replays one cell's trace through the layers `Processor::run` calls
/// into: dependence-graph construction, cache warming, every vector and
/// scalar memory access, and under those the line collection, the
/// hierarchy tag walk and the backend's port schedule. Accesses are
/// replayed in trace order rather than issue order, so stateful
/// backends see a slightly different sequence than in the real run; the
/// counts are exact, the times are those of equivalent work.
pub fn replay_cell(t: &OpTrace, parent: u64, key: &SimKey, trace: &Trace) {
    let cfg = key.config();
    let family = key.memory.base();
    let p = Some(parent);

    let graph = t.timed(p, "cpu.depgraph", &["cpu.depgraph_ns"], || {
        let graph = DepGraph::build(trace);
        black_box(graph.invert());
        graph
    });
    t.add(
        "cpu.depgraph_edges",
        (0..graph.len()).map(|i| graph.deps(i).len()).sum::<usize>() as f64,
    );

    let mut vec_ops = Vec::new();
    let mut scalar_ops = Vec::new();
    for i in trace.iter() {
        let Some(mem) = i.mem else { continue };
        match i.opcode.class() {
            ExecClass::VecMem => vec_ops.push(VecOp {
                mem,
                is_store: i.opcode.is_store(),
                is_3d: i.opcode == Opcode::DvLoad,
            }),
            ExecClass::Mem => scalar_ops.push((mem, i.opcode.is_store())),
            _ => {}
        }
    }

    let mut memsys = MemorySystem::new(&cfg);
    t.timed(p, "cpu.warm", &["cpu.warm_ns"], || {
        memsys.warm_from_trace(trace)
    });
    t.timed(p, "cpu.vector_access", &["cpu.vector_access_ns"], || {
        for op in &vec_ops {
            black_box(memsys.vector_access(&op.mem, op.is_store, op.is_3d));
        }
    });
    t.add("cpu.vector_access_calls", vec_ops.len() as f64);
    t.timed(p, "cpu.scalar_access", &["cpu.scalar_access_ns"], || {
        for (mem, is_store) in &scalar_ops {
            black_box(memsys.scalar_access(mem, *is_store));
        }
    });
    t.add("cpu.scalar_access_calls", scalar_ops.len() as f64);

    // The ideal backend short-circuits every access: no lines, no tag
    // walk, no port schedule.
    if key.memory.is_ideal() {
        return;
    }
    let line_bytes = cfg.hierarchy.l2.line_bytes as u64;
    let blocks: Vec<Vec<(u64, u32)>> = vec_ops.iter().map(|op| op.mem.blocks().collect()).collect();
    let mut set = LineSet::new();
    t.timed(p, "mem.lineset", &["mem.lineset_ns"], || {
        for b in &blocks {
            set.collect(b, line_bytes);
            black_box(set.lines());
        }
    });
    let lines: Vec<Vec<u64>> = blocks
        .iter()
        .map(|b| {
            set.collect(b, line_bytes);
            set.lines().to_vec()
        })
        .collect();
    t.add(
        "mem.lines",
        lines.iter().map(Vec::len).sum::<usize>() as f64,
    );

    // Warm a hierarchy exactly as `MemorySystem::warm_from_trace` does,
    // then replay the vector side's tag lookups on it.
    let mut hier = MemHierarchy::new(cfg.hierarchy);
    let mut warm_lines = 0usize;
    let mut vec_iter = lines.iter();
    for i in trace.iter() {
        let Some(mem) = &i.mem else { continue };
        match i.opcode.class() {
            ExecClass::Mem => {
                hier.scalar_access(mem.base, mem.elem_bytes, i.opcode.is_store());
                warm_lines += 1;
            }
            ExecClass::VecMem => {
                let ls = vec_iter.next().expect("one line list per vector access");
                for &line in ls {
                    hier.vector_line_access(line, i.opcode.is_store());
                }
                warm_lines += ls.len();
            }
            _ => {}
        }
    }
    hier.reset_stats();
    t.add("cpu.warm_lines", warm_lines as f64);
    t.timed(p, "mem.hierarchy", &["mem.hierarchy_ns"], || {
        for (ls, op) in lines.iter().zip(&vec_ops) {
            for &line in ls {
                black_box(hier.vector_line_access(line, op.is_store));
            }
        }
    });
    let stats = hier.stats();
    t.add("mem.line_lookups", stats.l2_vector_accesses as f64);
    t.add("mem.l2_hits", stats.l2_hits as f64);

    let mut backend = BackendRegistry::build(cfg.memory, &cfg.backend_params())
        .expect("grid backends are registered");
    let mut port_cycles = 0u64;
    let span = format!("mem.schedule.{family}");
    t.timed(p, &span, &[&format!("mem.schedule_ns.{family}")], || {
        for (b, op) in blocks.iter().zip(&vec_ops) {
            port_cycles += u64::from(backend.schedule(b, op.is_3d).port_cycles);
        }
    });
    t.add(
        &format!("mem.schedule_calls.{family}"),
        vec_ops.len() as f64,
    );
    t.add(&format!("mem.port_cycles.{family}"), port_cycles as f64);
}

/// Reuse a schedule cache could exploit: over the distinct traces given,
/// `(repeated, total)` vector memory instructions, where an instruction
/// repeats when its `(base, stride, count, elem_bytes, is_3d)` appeared
/// earlier in the same trace.
pub fn vaccess_repeats<'t>(traces: impl IntoIterator<Item = &'t Trace>) -> (u64, u64) {
    let (mut repeated, mut total) = (0, 0);
    for trace in traces {
        let mut seen = HashSet::new();
        for i in trace.iter() {
            let Some(m) = &i.mem else { continue };
            if i.opcode.class() != ExecClass::VecMem {
                continue;
            }
            total += 1;
            if !seen.insert((
                m.base,
                m.stride,
                m.count,
                m.elem_bytes,
                i.opcode == Opcode::DvLoad,
            )) {
                repeated += 1;
            }
        }
    }
    (repeated, total)
}

/// Encodes `requests` and `responses` as frames into one in-memory
/// buffer and decodes them back, timing each direction; checks the round
/// trip is lossless.
pub fn codec_probe(t: &OpTrace, parent: Option<u64>, requests: &[Request], responses: &[Response]) {
    let buf = t.timed(parent, "protocol.encode", &["protocol.encode_ns"], || {
        let mut buf = Vec::new();
        for r in requests {
            let (opcode, payload) = r.encode();
            write_frame(&mut buf, opcode, &payload).expect("writing to memory cannot fail");
        }
        for r in responses {
            let (opcode, payload) = r.encode();
            write_frame(&mut buf, opcode, &payload).expect("writing to memory cannot fail");
        }
        buf
    });
    let (reqs, resps) = t.timed(parent, "protocol.decode", &["protocol.decode_ns"], || {
        let mut rd = &buf[..];
        let reqs: Vec<Request> = requests
            .iter()
            .map(|_| Request::decode(&read_frame(&mut rd).expect("frame")).expect("request"))
            .collect();
        let resps: Vec<Response> = responses
            .iter()
            .map(|_| Response::decode(&read_frame(&mut rd).expect("frame")).expect("response"))
            .collect();
        (reqs, resps)
    });
    assert!(
        reqs == requests && resps == responses,
        "frame codec round trip lost data"
    );
    t.add("protocol.frames", (requests.len() + responses.len()) as f64);
    t.add("protocol.bytes", buf.len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mom3d_bench::Runner;
    use mom3d_cpu::MemorySystemKind;
    use mom3d_kernels::{IsaVariant, WorkloadKind};

    #[test]
    fn replay_counts_match_the_simulator_result() {
        let mut runner = Runner::small(1);
        let tracer = Tracer::new();
        let t = OpTrace::new(&tracer, 1);
        for (variant, memory) in [
            (IsaVariant::Mom, MemorySystemKind::VectorCache.id()),
            (IsaVariant::Mmx, MemorySystemKind::MultiBanked.id()),
        ] {
            let key = SimKey {
                kind: WorkloadKind::GsmEncode,
                variant,
                memory,
                l2_latency: 20,
            };
            let wl = runner.workload_arc(key.kind, key.variant);
            let m = run_cell(&t, None, &key, wl.trace());
            let before = t.sample.lock().unwrap().clone();
            t.group("replay", |id| replay_cell(&t, id, &key, wl.trace()));
            let after = t.snapshot();
            let delta =
                |name: &str| after.get(name).unwrap_or(&0.0) - before.get(name).unwrap_or(&0.0);
            assert_eq!(delta("cpu.vector_access_calls"), m.vec_mem_instrs as f64);
            assert_eq!(delta("cpu.scalar_access_calls"), m.scalar_mem_instrs as f64);
            let calls = format!("mem.schedule_calls.{}", memory.base());
            assert_eq!(delta(&calls), m.vec_mem_instrs as f64);
        }
        t.end_root("op");
        let s = t.into_sample();
        assert_eq!(
            s["mem.l2_hits"], s["mem.line_lookups"],
            "warm caches hit every line"
        );
        assert!(s["cpu.run_ns"] > 0.0 && s["cpu.depgraph_edges"] > 0.0);
    }

    impl OpTrace<'_> {
        fn snapshot(&self) -> Sample {
            self.sample.lock().unwrap().clone()
        }
    }

    #[test]
    fn repeats_count_only_within_one_trace() {
        let mut runner = Runner::small(1);
        let wl = runner.workload_arc(WorkloadKind::Mpeg2Encode, IsaVariant::Mom);
        let (rep, total) = vaccess_repeats([wl.trace()]);
        assert!(total > 0 && rep <= total);
        // The same trace twice: the second copy repeats nothing new
        // across traces, so the shares add up.
        assert_eq!(
            vaccess_repeats([wl.trace(), wl.trace()]),
            (2 * rep, 2 * total)
        );
    }

    #[test]
    fn codec_probe_round_trips_a_served_exchange() {
        let key = SimKey {
            kind: WorkloadKind::JpegDecode,
            variant: IsaVariant::Mom,
            memory: MemorySystemKind::Ideal.into(),
            l2_latency: 20,
        };
        let reply = mom3d_bench::protocol::CellReply {
            key,
            memo_hit: true,
            metrics: Metrics {
                cycles: 9,
                ..Metrics::default()
            },
        };
        let tracer = Tracer::new();
        let t = OpTrace::new(&tracer, 1);
        codec_probe(&t, None, &[Request::Sim(key)], &[Response::Result(reply)]);
        let s = t.into_sample();
        assert_eq!(s["protocol.frames"], 2.0);
        assert!(s["protocol.bytes"] > 0.0 && s["protocol.encode_ns"] > 0.0);
    }
}
