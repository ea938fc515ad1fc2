//! The emulator's two execution strategies on every kernel trace the
//! harness simulates: the trace-specializing executor
//! (`Emulator::run`) against the per-instruction interpreter oracle
//! (`Emulator::run_interp`, compiled in through the `interp-oracle`
//! feature), on all 15 reduced-geometry workloads (5 kernels × 3 ISA
//! variants). Both must leave the same architectural state and count
//! the same executed instructions.
//!
//! `crates/emu/tests/jit_equivalence.rs` covers random and synthetic
//! traces; this test covers the real kernel code, which only this
//! crate can build.

use mom3d_emu::Emulator;
use mom3d_kernels::{IsaVariant, Workload, WorkloadKind};

#[test]
fn every_small_kernel_trace_runs_identically_on_the_interpreter() {
    for kind in WorkloadKind::ALL {
        for variant in IsaVariant::ALL {
            let wl = Workload::build_small(kind, variant, 7).expect("workload builds");
            let mut jit = Emulator::with_machine(wl.machine());
            jit.run(wl.trace()).expect("trace executes");
            let mut oracle = Emulator::with_machine(wl.machine());
            oracle.run_interp(wl.trace()).expect("trace executes on the interpreter");
            assert_eq!(jit.executed(), oracle.executed(), "{kind} {variant}: executed count");
            assert!(jit.machine() == oracle.machine(), "{kind} {variant}: architectural state");
        }
    }
}
