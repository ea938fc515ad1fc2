//! Differential tests: the trace-specializing executor against the
//! per-instruction interpreter oracle.
//!
//! Every case builds one trace and one pre-seeded machine, runs the
//! trace through both `Emulator::run` (the JIT path) and
//! `Emulator::run_interp` (the oracle), and requires the two to agree
//! on *everything*: the `Result` (including the error variant and the
//! failing instruction's index), the complete architectural state
//! (`Machine` equality covers registers, accumulators, the 3D register
//! file with its pointers, VL/VS, and memory), the sorted resident
//! pages, and the FNV digest over those pages.
//!
//! The property tests generate random traces covering every opcode
//! class — including mid-trace `setvl`/`setvs` and branches (run
//! boundaries), long scalar stretches (pair fusion), page-straddling
//! and negative-stride memory, and randomly injected malformed or
//! VL/VS-corrupted instructions. The explicit tests then pin the error
//! path for each [`EmuError`] variant and each `Malformed` message.

use mom3d_emu::{EmuError, Emulator, Fnv64, Machine};
use mom3d_isa::{
    AccReg, DReg, Gpr, Instruction, IntOp, MemAccess, MmxReg, MomReg, Opcode, ReduceOp, Reg,
    Trace, TraceBuilder, UsimdOp, Width,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Digest of the resident pages, page-order independent of HashMap
/// iteration (pages_sorted is address-ordered).
fn mem_digest(m: &Machine) -> u64 {
    let mut h = Fnv64::new();
    for (base, data) in m.mem.pages_sorted() {
        h.write_u64(base);
        h.write(data);
    }
    h.finish()
}

/// Runs `trace` through the JIT and the interpreter oracle from
/// identical machine states and asserts bit-identical outcomes.
fn assert_equivalent(trace: &Trace, machine: &Machine) {
    let mut jit = Emulator::with_machine(machine.clone());
    let jit_result = jit.run(trace);
    let mut oracle = Emulator::with_machine(machine.clone());
    let oracle_result = oracle.run_interp(trace);

    assert_eq!(jit_result, oracle_result, "JIT and interpreter must return the same Result");
    assert_eq!(
        jit.executed(),
        oracle.executed(),
        "executed-instruction counts must match (faulting instruction included)"
    );
    assert_eq!(
        jit.machine(),
        oracle.machine(),
        "full architectural state must match after {} instructions",
        trace.len()
    );
    let jp = jit.machine().mem.pages_sorted();
    let op = oracle.machine().mem.pages_sorted();
    assert_eq!(
        jp.iter().map(|&(b, _)| b).collect::<Vec<_>>(),
        op.iter().map(|&(b, _)| b).collect::<Vec<_>>(),
        "resident page sets must match"
    );
    assert_eq!(mem_digest(jit.machine()), mem_digest(oracle.machine()), "memory digests");
}

// ---- random program generation --------------------------------------------

const GPRS: u8 = 8;
const MMXS: u8 = 8;
const MOMS: u8 = 8;
const DREGS: u8 = 2;
const ACCS: u8 = 2;

/// Addresses drawn from a small pool: a pre-seeded region, the tail of
/// a page (so 64-bit and block accesses straddle page boundaries), and
/// a never-written region (absent-page reads).
fn addr(rng: &mut SmallRng) -> u64 {
    match rng.gen_range(0u8..4) {
        0 => 0x1000 + rng.gen_range(0u64..0x800),
        1 => 0x1fd0 + rng.gen_range(0u64..0x60), // straddles 0x2000
        2 => 0x2000 + rng.gen_range(0u64..0x800),
        _ => 0x40_0000 + rng.gen_range(0u64..0x100), // absent pages
    }
}

fn usimd_op(rng: &mut SmallRng) -> UsimdOp {
    let w = match rng.gen_range(0u8..4) {
        0 => Width::B8,
        1 => Width::H16,
        2 => Width::W32,
        _ => Width::D64,
    };
    match rng.gen_range(0u8..16) {
        0 => UsimdOp::AddWrap(w),
        1 => UsimdOp::SubWrap(w),
        2 => UsimdOp::AddSatU(w),
        3 => UsimdOp::SubSatS(w),
        4 => UsimdOp::MinU(w),
        5 => UsimdOp::MaxS(w),
        6 => UsimdOp::AbsDiffU(w),
        7 => UsimdOp::SadU8,
        8 => UsimdOp::AvgU(w),
        9 => UsimdOp::MulHighS16,
        10 => UsimdOp::MaddS16,
        11 => UsimdOp::CmpEq(w),
        12 => UsimdOp::AndNot,
        13 => UsimdOp::PackSs16To8,
        // Interleaves reject D64 (panic in both paths); stay narrower.
        14 => UsimdOp::UnpackLo(if w == Width::D64 { Width::W32 } else { w }),
        _ => UsimdOp::UnpackHi(if w == Width::D64 { Width::W32 } else { w }),
    }
}

fn int_op(rng: &mut SmallRng) -> IntOp {
    match rng.gen_range(0u8..12) {
        0 => IntOp::Add,
        1 => IntOp::Sub,
        2 => IntOp::Mul,
        3 => IntOp::And,
        4 => IntOp::Or,
        5 => IntOp::Xor,
        6 => IntOp::Shl,
        7 => IntOp::Shr,
        8 => IntOp::Sar,
        9 => IntOp::SltS,
        10 => IntOp::SltU,
        _ => IntOp::Mov,
    }
}

/// Pushes one randomly chosen instruction; `malformed` injections push
/// raw instructions that must fault identically in both paths.
fn push_random(tb: &mut TraceBuilder, rng: &mut SmallRng) {
    let gpr = |rng: &mut SmallRng| Gpr::new(rng.gen_range(0..GPRS));
    let mmx = |rng: &mut SmallRng| MmxReg::new(rng.gen_range(0..MMXS));
    let mom = |rng: &mut SmallRng| MomReg::new(rng.gen_range(0..MOMS));
    match rng.gen_range(0u8..20) {
        0 => {
            tb.li(gpr(rng), rng.gen_range(-0x1000i64..0x1000));
        }
        1 => {
            let (d, a, b) = (gpr(rng), gpr(rng), gpr(rng));
            tb.alu(int_op(rng), d, a, b);
        }
        2 => {
            let (d, a) = (gpr(rng), gpr(rng));
            tb.alui(int_op(rng), d, a, rng.gen_range(-64i64..64));
        }
        3 => tb.branch(gpr(rng), rng.gen()),
        4 => {
            let bytes = rng.gen_range(1u8..=8);
            let (d, r) = (gpr(rng), gpr(rng));
            tb.load_scalar(d, r, addr(rng), bytes);
        }
        5 => {
            let bytes = rng.gen_range(1u8..=8);
            let (s, r) = (gpr(rng), gpr(rng));
            tb.store_scalar(s, r, addr(rng), bytes);
        }
        6 => {
            let (d, r) = (mmx(rng), gpr(rng));
            tb.movq_load(d, r, addr(rng), Width::B8);
        }
        7 => {
            let (s, r) = (mmx(rng), gpr(rng));
            tb.movq_store(s, r, addr(rng));
        }
        8 => {
            let (d, a, b) = (mmx(rng), mmx(rng), mmx(rng));
            tb.usimd2(usimd_op(rng), d, a, b);
        }
        9 => {
            let (d, a) = (mmx(rng), mmx(rng));
            let sh = rng.gen_range(0i64..8);
            let w = Width::H16;
            match rng.gen_range(0u8..3) {
                0 => tb.usimd2i(UsimdOp::Shl(w), d, a, sh),
                1 => tb.usimd2i(UsimdOp::ShrL(w), d, a, sh),
                _ => tb.usimd2i(UsimdOp::ShrA(w), d, a, sh),
            };
        }
        10 => {
            let (d, s) = (gpr(rng), mmx(rng));
            tb.mmx_to_gpr(d, s);
        }
        11 => tb.set_vl(rng.gen_range(1u8..=16)),
        12 => tb.set_vs([-16i64, -8, 1, 3, 8, 16, 64][rng.gen_range(0usize..7)]),
        13 => {
            let (d, r) = (mom(rng), gpr(rng));
            let a = addr(rng);
            tb.vload(d, r, a);
        }
        14 => {
            let (s, r) = (mom(rng), gpr(rng));
            let a = addr(rng);
            tb.vstore(s, r, a);
        }
        15 => {
            let (d, a, b) = (mom(rng), mom(rng), mom(rng));
            tb.vop2(usimd_op(rng), d, a, b);
        }
        16 => {
            let acc = AccReg::new(rng.gen_range(0..ACCS));
            let (a, b) = (mom(rng), mom(rng));
            let op = match rng.gen_range(0u8..4) {
                0 => ReduceOp::SadAccumU8,
                1 => ReduceOp::SumU(Width::B8),
                2 => ReduceOp::SumS(Width::H16),
                _ => ReduceOp::DotS16,
            };
            if rng.gen() {
                tb.clear_acc(acc);
            }
            tb.vreduce(op, acc, a, Some(b));
            if rng.gen() {
                tb.rdacc(gpr(rng), acc);
            }
        }
        17 => {
            let d = DReg::new(rng.gen_range(0..DREGS));
            let r = gpr(rng);
            let a = addr(rng);
            let stride = [-32i64, 1, 3, 16, 64][rng.gen_range(0usize..5)];
            let wwords = rng.gen_range(1u8..=16);
            tb.dvload(d, r, a, stride, wwords, rng.gen());
        }
        18 => {
            let (d, s) = (mom(rng), DReg::new(rng.gen_range(0..DREGS)));
            tb.dvmov(d, s, rng.gen_range(-16i16..=16));
        }
        _ => push_corrupted(tb, rng),
    }
}

/// Raw-pushes an instruction that faults: VL/VS mismatches and every
/// static malformation class. Both paths must report the identical
/// error at the identical index.
fn push_corrupted(tb: &mut TraceBuilder, rng: &mut SmallRng) {
    let vl = tb.vl();
    let vs = tb.vs();
    let bad_vl = if vl == 16 { 1 } else { vl + 1 };
    let instr = match rng.gen_range(0u8..8) {
        // Captured VL differs from the architectural register.
        0 => Instruction::op(Opcode::VLoad, &[Reg::Mom(MomReg::new(0))], &[])
            .with_mem(MemAccess::strided2d(0x1000, vs, bad_vl))
            .with_vl(bad_vl),
        // Captured stride differs from VS.
        1 => Instruction::op(Opcode::VStore, &[], &[Reg::Mom(MomReg::new(0))])
            .with_mem(MemAccess::strided2d(0x1000, vs + 1, vl))
            .with_vl(vl),
        // Memory op with no descriptor.
        2 => Instruction::op(Opcode::LoadScalar, &[Reg::Gpr(Gpr::new(0))], &[]),
        // Wrong destination classes.
        3 => Instruction::op(Opcode::LoadMmx, &[Reg::Gpr(Gpr::new(0))], &[])
            .with_mem(MemAccess::unit64(0x1000)),
        4 => Instruction::op(
            Opcode::IntAlu(IntOp::Add),
            &[Reg::Mom(MomReg::new(0))],
            &[Reg::Gpr(Gpr::new(1))],
        ),
        // Missing sources.
        5 => Instruction::op(Opcode::Usimd(UsimdOp::SadU8), &[Reg::Mmx(MmxReg::new(0))], &[]),
        6 => Instruction::op(Opcode::VCompute(UsimdOp::SadU8), &[Reg::Mom(MomReg::new(0))], &[])
            .with_vl(vl),
        // VLoad with a valid VL/VS but no destination: the error must
        // fire *after* the VL and VS checks pass.
        _ => Instruction::op(Opcode::VLoad, &[], &[])
            .with_mem(MemAccess::strided2d(0x1000, vs, vl))
            .with_vl(vl),
    };
    tb.push(instr);
}

/// A machine with deterministic, seed-dependent memory contents.
fn seeded_machine(rng: &mut SmallRng) -> Machine {
    let mut m = Machine::new();
    let mut bytes = vec![0u8; 0x3000];
    for b in bytes.iter_mut() {
        *b = rng.gen();
    }
    m.mem.write_bytes(0x1000, &bytes);
    m
}

fn random_case(seed: u64, len: usize) -> (Trace, Machine) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let machine = seeded_machine(&mut rng);
    let mut tb = TraceBuilder::new();
    for _ in 0..len {
        push_random(&mut tb, &mut rng);
    }
    (tb.finish(), machine)
}

proptest! {
    /// Random mixed traces over all opcode classes, with injected
    /// corruption: JIT ≡ interpreter on state, memory, digest, errors.
    #[test]
    fn random_traces_match_oracle(seed: u64, len in 1usize..160) {
        let (trace, machine) = random_case(seed, len);
        assert_equivalent(&trace, &machine);
    }

    /// Long all-scalar stretches: maximal pair fusion, no run breaks.
    #[test]
    fn dense_scalar_traces_match_oracle(seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let machine = seeded_machine(&mut rng);
        let mut tb = TraceBuilder::new();
        for _ in 0..rng.gen_range(50usize..300) {
            match rng.gen_range(0u8..3) {
                0 => { tb.li(Gpr::new(rng.gen_range(0..GPRS)), rng.gen_range(-99i64..99)); }
                1 => {
                    let (d, a, b) = (
                        Gpr::new(rng.gen_range(0..GPRS)),
                        Gpr::new(rng.gen_range(0..GPRS)),
                        Gpr::new(rng.gen_range(0..GPRS)),
                    );
                    tb.alu(int_op(&mut rng), d, a, b);
                }
                _ => {
                    let (d, a) = (
                        Gpr::new(rng.gen_range(0..GPRS)),
                        Gpr::new(rng.gen_range(0..GPRS)),
                    );
                    tb.alui(int_op(&mut rng), d, a, rng.gen_range(0i64..63));
                }
            }
        }
        assert_equivalent(&tb.finish(), &machine);
    }

    /// Vector-heavy traces with frequent VL/VS switching: every vector
    /// instruction sits near a run boundary.
    #[test]
    fn vl_vs_thrashing_matches_oracle(seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let machine = seeded_machine(&mut rng);
        let mut tb = TraceBuilder::new();
        for _ in 0..rng.gen_range(10usize..60) {
            tb.set_vl(rng.gen_range(1u8..=16));
            tb.set_vs([-8i64, 1, 8, 24][rng.gen_range(0usize..4)]);
            let r = Gpr::new(0);
            match rng.gen_range(0u8..4) {
                0 => { tb.vload(MomReg::new(rng.gen_range(0..MOMS)), r, addr(&mut rng)); }
                1 => tb.vstore(MomReg::new(rng.gen_range(0..MOMS)), r, addr(&mut rng)),
                2 => {
                    let d = DReg::new(rng.gen_range(0..DREGS));
                    tb.dvload(d, r, addr(&mut rng), 16, rng.gen_range(1u8..=16), rng.gen());
                    tb.dvmov(MomReg::new(rng.gen_range(0..MOMS)), d, rng.gen_range(-8i16..=8));
                }
                _ => {
                    let (d, a, b) = (
                        MomReg::new(rng.gen_range(0..MOMS)),
                        MomReg::new(rng.gen_range(0..MOMS)),
                        MomReg::new(rng.gen_range(0..MOMS)),
                    );
                    tb.vop2(usimd_op(&mut rng), d, a, b);
                }
            }
        }
        assert_equivalent(&tb.finish(), &machine);
    }
}

// ---- pinned synthetic extremes ---------------------------------------------

/// A 4,096-op straight-line integer chain over eight registers: one run,
/// no memory traffic, the most fused scalar pairs per trace.
#[test]
fn dense_alu_chain_matches_oracle() {
    let mut tb = TraceBuilder::new();
    for r in 0..8u8 {
        tb.li(Gpr::new(r), i64::from(r).wrapping_mul(0x9e37_79b9) + 1);
    }
    let ops = [
        IntOp::Add,
        IntOp::Xor,
        IntOp::And,
        IntOp::Or,
        IntOp::Sub,
        IntOp::Mul,
        IntOp::SltU,
        IntOp::SltS,
    ];
    for i in 0..4096usize {
        let reg = |k: usize| Gpr::new(((i + k) % 8) as u8);
        tb.alu(ops[i % ops.len()], reg(0), reg(1), reg(3));
    }
    assert_equivalent(&tb.finish(), &Machine::new());
}

/// A 512-iteration strided 2D vector loop (VL 16, 256-byte stride):
/// load, load, add, store over a pre-seeded source, the page-batched
/// memory accessors' heaviest shape.
#[test]
fn strided_2d_vector_loop_matches_oracle() {
    const SRC: u64 = 0x1_0000;
    const DST: u64 = 0x2_0000;
    const STRIDE: i64 = 256;
    let mut machine = Machine::new();
    for row in 0..16u64 {
        for col in 0..8u64 {
            let addr = SRC + row * STRIDE as u64 + col * 8;
            machine.mem.write_u64(addr, addr.wrapping_mul(0x2545_f491_4f6c_dd1d));
        }
    }
    let mut tb = TraceBuilder::new();
    tb.set_vl(16);
    tb.set_vs(STRIDE);
    let base = tb.li(Gpr::new(1), 0);
    for i in 0..512u64 {
        let col = (i % 7) * 8;
        tb.vload(MomReg::new(0), base, SRC + col);
        tb.vload(MomReg::new(1), base, SRC + col + 8);
        tb.vop2(UsimdOp::AddWrap(Width::B8), MomReg::new(2), MomReg::new(0), MomReg::new(1));
        tb.vstore(MomReg::new(2), base, DST + col);
    }
    assert_equivalent(&tb.finish(), &machine);
}

// ---- pinned error-path parity ---------------------------------------------

/// Asserts both paths fail with exactly `expected` at the same index,
/// with identical post-fault state.
fn assert_both_fail(trace: &Trace, expected: EmuError) {
    let machine = Machine::new();
    let mut jit = Emulator::with_machine(machine.clone());
    assert_eq!(jit.run(trace), Err(expected.clone()), "JIT error");
    let mut oracle = Emulator::with_machine(machine);
    assert_eq!(oracle.run_interp(trace), Err(expected), "interpreter error");
    assert_eq!(jit.machine(), oracle.machine(), "post-fault state");
    assert_eq!(jit.executed(), oracle.executed(), "post-fault executed count");
}

/// Prefix instructions so the fault does not sit at index 0 (the index
/// in the error must be the faulting instruction's, not the run's).
fn with_prefix(instr: Instruction) -> (Trace, usize) {
    let mut tb = TraceBuilder::new();
    tb.li(Gpr::new(1), 7);
    tb.li(Gpr::new(2), 9);
    let index = tb.len();
    tb.push(instr);
    tb.li(Gpr::new(3), 11); // must never execute
    (tb.finish(), index)
}

#[test]
fn vl_mismatch_parity() {
    let i = Instruction::op(Opcode::VLoad, &[Reg::Mom(MomReg::new(0))], &[])
        .with_mem(MemAccess::strided2d(0x100, 8, 4))
        .with_vl(4); // architectural VL is 16
    let (t, index) = with_prefix(i);
    assert_both_fail(&t, EmuError::VlMismatch { index, captured: 4, architectural: 16 });
}

#[test]
fn vs_mismatch_parity() {
    let i = Instruction::op(Opcode::VLoad, &[Reg::Mom(MomReg::new(0))], &[])
        .with_mem(MemAccess::strided2d(0x100, 24, 16)) // architectural VS is 8
        .with_vl(16);
    let (t, index) = with_prefix(i);
    assert_both_fail(&t, EmuError::VsMismatch { index, captured: 24, architectural: 8 });
}

/// Every `Malformed` message, via the instruction shape that triggers it.
#[test]
fn malformed_parity_all_messages() {
    let mom0 = Reg::Mom(MomReg::new(0));
    let gpr0 = Reg::Gpr(Gpr::new(0));
    let mmx0 = Reg::Mmx(MmxReg::new(0));
    let acc0 = Reg::Acc(AccReg::new(0));
    let dreg0 = Reg::D(DReg::new(0));
    let mem2d = MemAccess::strided2d(0x100, 8, 16);
    let mem3d = MemAccess::strided3d(0x100, 8, 16, 2);
    let cases: Vec<(Instruction, &'static str)> = vec![
        (Instruction::op(Opcode::LoadScalar, &[gpr0], &[]), "missing memory descriptor"),
        (
            Instruction::op(Opcode::LoadScalar, &[mmx0], &[])
                .with_mem(MemAccess::scalar(0x100, 4)),
            "gpr destination",
        ),
        (
            Instruction::op(Opcode::StoreScalar, &[], &[mmx0])
                .with_mem(MemAccess::scalar(0x100, 4)),
            "gpr source",
        ),
        (
            Instruction::op(Opcode::LoadMmx, &[gpr0], &[]).with_mem(MemAccess::unit64(0x100)),
            "mmx destination",
        ),
        (
            Instruction::op(Opcode::StoreMmx, &[], &[gpr0]).with_mem(MemAccess::unit64(0x100)),
            "mmx source",
        ),
        (Instruction::op(Opcode::Usimd(UsimdOp::SadU8), &[gpr0], &[mmx0]), "mmx destination"),
        (Instruction::op(Opcode::Usimd(UsimdOp::SadU8), &[mmx0], &[gpr0]), "usimd source"),
        (
            Instruction::op(Opcode::VLoad, &[], &[]).with_vl(16),
            "missing memory descriptor",
        ),
        (
            Instruction::op(Opcode::VLoad, &[gpr0], &[]).with_mem(mem2d).with_vl(16),
            "mom destination",
        ),
        (
            Instruction::op(Opcode::VStore, &[], &[gpr0]).with_mem(mem2d).with_vl(16),
            "mom source",
        ),
        (
            Instruction::op(Opcode::VCompute(UsimdOp::SadU8), &[gpr0], &[mom0]).with_vl(16),
            "mom destination",
        ),
        (
            Instruction::op(Opcode::VCompute(UsimdOp::SadU8), &[mom0], &[mmx0]).with_vl(16),
            "vector source",
        ),
        (
            Instruction::op(Opcode::VReduce(ReduceOp::SadAccumU8), &[gpr0], &[mom0]).with_vl(16),
            "accumulator destination",
        ),
        (
            Instruction::op(Opcode::VReduce(ReduceOp::SadAccumU8), &[acc0], &[gpr0]).with_vl(16),
            "reduce source",
        ),
        (Instruction::op(Opcode::ReadAcc, &[acc0], &[acc0]), "gpr destination"),
        (Instruction::op(Opcode::ReadAcc, &[gpr0], &[gpr0]), "accumulator source"),
        (
            Instruction::op(Opcode::DvLoad, &[dreg0], &[]).with_vl(16),
            "missing memory descriptor",
        ),
        (
            Instruction::op(Opcode::DvLoad, &[mom0], &[]).with_mem(mem3d).with_vl(16),
            "3d destination",
        ),
        (Instruction::op(Opcode::DvMov, &[gpr0], &[dreg0]).with_vl(16), "mom destination"),
        (Instruction::op(Opcode::DvMov, &[mom0], &[mom0]).with_vl(16), "3d source"),
        (Instruction::op(Opcode::IntAlu(IntOp::Add), &[mom0], &[gpr0]), "int destination class"),
        (Instruction::op(Opcode::IntAlu(IntOp::Add), &[], &[gpr0]), "missing int destination"),
    ];
    for (instr, what) in cases {
        let (t, index) = with_prefix(instr);
        assert_both_fail(&t, EmuError::Malformed { index, what });
    }
}

/// A fault mid-trace must leave the state changes of every earlier
/// instruction visible — including when the fault was detectable at
/// decode time (errors are lazy, not eager).
#[test]
fn lazy_fault_preserves_prior_state() {
    let mut tb = TraceBuilder::new();
    tb.li(Gpr::new(1), 41);
    tb.alui(IntOp::Add, Gpr::new(1), Gpr::new(1), 1);
    tb.store_scalar(Gpr::new(1), Gpr::new(0), 0x500, 8);
    let index = tb.len();
    tb.push(Instruction::op(Opcode::LoadScalar, &[Reg::Gpr(Gpr::new(2))], &[]));
    tb.li(Gpr::new(3), 99); // unreachable
    let t = tb.finish();

    let mut jit = Emulator::new();
    let err = jit.run(&t).unwrap_err();
    assert_eq!(err, EmuError::Malformed { index, what: "missing memory descriptor" });
    assert_eq!(jit.machine().gpr(Gpr::new(1)), 42, "prior ALU results must be applied");
    assert_eq!(jit.machine().mem.read_u64(0x500), 42, "prior stores must be applied");
    assert_eq!(jit.machine().gpr(Gpr::new(3)), 0, "instructions after the fault must not run");
    assert_eq!(jit.executed(), index as u64 + 1, "faulting instruction counts as executed");

    let mut oracle = Emulator::new();
    assert_eq!(oracle.run_interp(&t), Err(err));
    assert_eq!(jit.machine(), oracle.machine());
}

/// The fused scalar-pair path must not skip the error accounting of the
/// instructions around it: a fault right after a fused pair reports the
/// correct index.
#[test]
fn fault_index_after_fused_pair() {
    let mut tb = TraceBuilder::new();
    tb.li(Gpr::new(1), 1); // these two fuse
    tb.li(Gpr::new(2), 2);
    let index = tb.len();
    tb.push(Instruction::op(Opcode::IntAlu(IntOp::Add), &[], &[]));
    let t = tb.finish();
    assert_both_fail(&t, EmuError::Malformed { index, what: "missing int destination" });
}
