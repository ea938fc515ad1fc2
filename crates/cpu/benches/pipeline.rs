//! Criterion benchmark of the pipeline timing loop: nanoseconds per
//! simulated (trace) instruction for the three trace shapes the event
//! refactor targets — dense independent ALU code (window-scan bound),
//! strided vector memory (stall/idle-cycle bound) and 3D
//! `3dvload`/`3dvmov` streams (wakeup-chain bound).
//!
//! `pipeline_ns_per_instr` times one-off `Processor::run` calls, which
//! decode the trace, build its dependence graph and warm the caches
//! every time. `pipeline_prepared_ns_per_instr` times
//! `Processor::run_prepared` on one `PreparedTrace`, which does that
//! once: what each cell of a sweep pays after the trace's first.
//!
//! Smoke mode for CI: `MOM3D_BENCH_SMOKE=1 cargo bench -p mom3d-cpu
//! --bench pipeline` runs each benchmark once, just proving the harness
//! and the traces stay alive.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mom3d_cpu::{MemorySystemKind, PreparedTrace, Processor, ProcessorConfig};
use mom3d_isa::{DReg, Gpr, MomReg, Trace, TraceBuilder, UsimdOp, Width};

/// Independent scalar ALU ops with a sprinkle of µSIMD: the issue loop
/// sees a full 128-entry window of mostly-ready instructions.
fn dense_alu_trace() -> Trace {
    let mut tb = TraceBuilder::new();
    for i in 0..8192u32 {
        tb.li(Gpr::new((i % 28) as u8), i as i64);
    }
    tb.finish()
}

/// Strided vector loads feeding vector compute on the vector cache:
/// long memory latencies leave the legacy loop spinning through idle
/// cycles between completions.
fn strided_vector_trace() -> Trace {
    let mut tb = TraceBuilder::new();
    tb.set_vl(16);
    tb.set_vs(136);
    let b = tb.li(Gpr::new(1), 0x1_0000);
    for k in 0..1024u64 {
        let d = MomReg::new((k % 8) as u8);
        tb.vload(d, b, 0x1_0000 + (k % 16) * 64);
        tb.vop2(UsimdOp::AbsDiffU(Width::B8), MomReg::new(8 + (k % 4) as u8), d, MomReg::new(12));
    }
    tb.finish()
}

/// The paper's 3D access pattern: one `3dvload` per search window, then
/// a pointer-renamed chain of `3dvmov`s and vector compute.
fn trace_3d() -> Trace {
    let mut tb = TraceBuilder::new();
    tb.set_vl(8);
    let b = tb.li(Gpr::new(1), 0x1_0000);
    for blk in 0..256u64 {
        tb.dvload(DReg::new(0), b, 0x1_0000 + blk * 16, 640, 9, false);
        for _ in 0..8 {
            let m = tb.dvmov(MomReg::new(0), DReg::new(0), 1);
            tb.vop2(UsimdOp::AbsDiffU(Width::B8), MomReg::new(2), m, MomReg::new(1));
        }
    }
    tb.finish()
}

fn bench_pipeline(c: &mut Criterion) {
    let shapes: [(&str, Trace, MemorySystemKind); 3] = [
        ("dense_alu", dense_alu_trace(), MemorySystemKind::Ideal),
        ("strided_vector", strided_vector_trace(), MemorySystemKind::VectorCache),
        ("3d", trace_3d(), MemorySystemKind::VectorCache3d),
    ];
    let processor = |mem: MemorySystemKind| {
        Processor::new(ProcessorConfig::mom().with_memory(mem).with_warm_caches(true))
    };
    let mut g = c.benchmark_group("pipeline_ns_per_instr");
    for (name, trace, mem) in &shapes {
        let p = processor(*mem);
        g.throughput(Throughput::Elements(trace.len() as u64));
        g.bench_function(*name, |b| b.iter(|| p.run(trace).expect("runs").cycles));
    }
    g.finish();
    let mut g = c.benchmark_group("pipeline_prepared_ns_per_instr");
    for (name, trace, mem) in &shapes {
        let p = processor(*mem);
        let prepared = PreparedTrace::new(trace);
        g.throughput(Throughput::Elements(trace.len() as u64));
        g.bench_function(*name, |b| {
            b.iter(|| p.run_prepared(&prepared).expect("runs").cycles)
        });
    }
    g.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
