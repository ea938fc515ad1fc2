//! The trace-specializing executor: runs a [`DecodedTrace`] through a
//! flat function-pointer table.
//!
//! Each decoded record dispatches through [`HANDLERS`] — indexed by the
//! record's `kind`, in the same order as the `K_*` constants in
//! `decode.rs`. A handler returns the number of records it consumed
//! (the fused scalar-pair handler consumes two), or the interpreter's
//! exact [`EmuError`] for the instruction at its original trace index.
//!
//! Memory goes through `mom3d-mem`'s single-lookup word accessors and
//! its page-run copies (one page lookup per word or per page-sized
//! chunk instead of one per byte), which `mom3d-mem`'s equivalence
//! tests pin bit-identical to per-byte reference paths. Vector
//! addresses still come from `MemAccess::block_addr`, so out-of-range
//! element indices panic with the interpreter's message.

use crate::decode::{
    DecodedTrace, OpRec, DST_GPR, DST_MMX, KIND_COUNT, NO_MEM, NO_REG, SRC_ACC, SRC_GPR, SRC_IMM,
    SRC_MMX,
};
use crate::error::EmuError;
use crate::machine::Machine;
use mom3d_isa::{AccReg, DReg, Gpr, MemAccess, MmxReg, MomReg};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of traces executed through the specializing path
/// (not the interpreter oracle). Lets tests assert the JIT never runs
/// where it must not — e.g. on a fully warm workload cache.
static JIT_RUNS: AtomicU64 = AtomicU64::new(0);

/// Number of traces executed through the trace-specializing path since
/// process start.
pub fn jit_runs() -> u64 {
    JIT_RUNS.load(Ordering::Relaxed)
}

pub(crate) fn note_jit_run() {
    JIT_RUNS.fetch_add(1, Ordering::Relaxed);
}

/// Execution context threaded through every handler: the machine, the
/// decoded side tables, and reusable staging buffers (the executor does
/// no per-instruction allocation).
pub(crate) struct Ctx<'a> {
    m: &'a mut Machine,
    mems: &'a [MemAccess],
    faults: &'a [&'static str],
    reduces: &'a [crate::decode::ReduceFn],
    /// `3dvload` staging blocks, reused across instructions.
    blocks: Vec<Vec<u8>>,
}

type Handler = fn(&mut Ctx, &[OpRec], usize) -> Result<usize, EmuError>;

/// Flat dispatch table, indexed by `OpRec::kind`.
static HANDLERS: [Handler; KIND_COUNT] = [
    h_int,
    h_int_pair,
    h_branch,
    h_load_scalar,
    h_store_scalar,
    h_load_mmx,
    h_store_mmx,
    h_usimd,
    h_set_vl,
    h_set_vs,
    h_vload,
    h_vstore,
    h_vcompute,
    h_vreduce,
    h_read_acc,
    h_dvload,
    h_dvmov,
    h_fault,
];

/// Executes a decoded trace, updating `executed` exactly like the
/// interpreter (the faulting instruction counts as executed).
pub(crate) fn execute(
    d: &DecodedTrace,
    m: &mut Machine,
    executed: &mut u64,
) -> Result<(), EmuError> {
    let mut c =
        Ctx { m, mems: &d.mems, faults: &d.faults, reduces: &d.reduces, blocks: Vec::new() };
    for run in &d.runs {
        let start = run.start as usize;
        let end = start + run.len as usize;
        let mut i = start;
        while i < end {
            let kind = d.ops[i].kind;
            match HANDLERS[kind as usize](&mut c, &d.ops, i) {
                Ok(consumed) => {
                    *executed += consumed as u64;
                    i += consumed;
                }
                Err(e) => {
                    *executed += 1;
                    return Err(e);
                }
            }
        }
    }
    Ok(())
}

// ---- scalar handlers ------------------------------------------------------

#[inline(always)]
fn int_operand(m: &Machine, class: u8, idx: u8, imm: i64) -> u64 {
    match class {
        SRC_GPR => m.gpr(Gpr::new(idx)),
        SRC_MMX => m.mmx(MmxReg::new(idx)),
        SRC_ACC => m.acc(AccReg::new(idx)) as u64,
        SRC_IMM => imm as u64,
        _ => 0,
    }
}

#[inline(always)]
fn int_step(m: &mut Machine, o: &OpRec) {
    let a = int_operand(m, o.k1, o.src1, o.imm);
    let b = int_operand(m, o.k2, o.src2, o.imm);
    let r = (o.f)(a, b, o.imm);
    match o.k3 {
        DST_GPR => m.set_gpr(Gpr::new(o.dst), r),
        DST_MMX => m.set_mmx(MmxReg::new(o.dst), r),
        _ => m.set_acc(AccReg::new(o.dst), r as i128),
    }
}

fn h_int(c: &mut Ctx, ops: &[OpRec], i: usize) -> Result<usize, EmuError> {
    int_step(c.m, &ops[i]);
    Ok(1)
}

fn h_int_pair(c: &mut Ctx, ops: &[OpRec], i: usize) -> Result<usize, EmuError> {
    int_step(c.m, &ops[i]);
    int_step(c.m, &ops[i + 1]);
    Ok(2)
}

fn h_branch(_c: &mut Ctx, _ops: &[OpRec], _i: usize) -> Result<usize, EmuError> {
    // Direction is pre-resolved in the trace.
    Ok(1)
}

fn h_load_scalar(c: &mut Ctx, ops: &[OpRec], i: usize) -> Result<usize, EmuError> {
    let o = &ops[i];
    let mem = &c.mems[o.aux as usize];
    let mut buf = [0u8; 8];
    c.m.mem.read_into(mem.base, &mut buf[..mem.elem_bytes as usize]);
    c.m.set_gpr(Gpr::new(o.dst), u64::from_le_bytes(buf));
    Ok(1)
}

fn h_store_scalar(c: &mut Ctx, ops: &[OpRec], i: usize) -> Result<usize, EmuError> {
    let o = &ops[i];
    let mem = &c.mems[o.aux as usize];
    let bytes = c.m.gpr(Gpr::new(o.src1)).to_le_bytes();
    c.m.mem.write_bytes(mem.base, &bytes[..mem.elem_bytes as usize]);
    Ok(1)
}

fn h_load_mmx(c: &mut Ctx, ops: &[OpRec], i: usize) -> Result<usize, EmuError> {
    let o = &ops[i];
    let v = c.m.mem.read_u64_paged(c.mems[o.aux as usize].base);
    c.m.set_mmx(MmxReg::new(o.dst), v);
    Ok(1)
}

fn h_store_mmx(c: &mut Ctx, ops: &[OpRec], i: usize) -> Result<usize, EmuError> {
    let o = &ops[i];
    let v = c.m.mmx(MmxReg::new(o.src1));
    c.m.mem.write_u64_paged(c.mems[o.aux as usize].base, v);
    Ok(1)
}

fn h_usimd(c: &mut Ctx, ops: &[OpRec], i: usize) -> Result<usize, EmuError> {
    let o = &ops[i];
    let a = c.m.mmx(MmxReg::new(o.src1));
    let b = if o.src2 == NO_REG { 0 } else { c.m.mmx(MmxReg::new(o.src2)) };
    c.m.set_mmx(MmxReg::new(o.dst), (o.f)(a, b, o.imm));
    Ok(1)
}

fn h_set_vl(c: &mut Ctx, ops: &[OpRec], i: usize) -> Result<usize, EmuError> {
    c.m.set_vl(ops[i].imm as u8);
    Ok(1)
}

fn h_set_vs(c: &mut Ctx, ops: &[OpRec], i: usize) -> Result<usize, EmuError> {
    c.m.set_vs(ops[i].imm);
    Ok(1)
}

fn h_read_acc(c: &mut Ctx, ops: &[OpRec], i: usize) -> Result<usize, EmuError> {
    let o = &ops[i];
    let v = c.m.acc(AccReg::new(o.src1)) as u64;
    c.m.set_gpr(Gpr::new(o.dst), v);
    Ok(1)
}

fn h_fault(c: &mut Ctx, ops: &[OpRec], i: usize) -> Result<usize, EmuError> {
    Err(EmuError::Malformed { index: i, what: c.faults[ops[i].aux as usize] })
}

// ---- vector handlers ------------------------------------------------------
//
// Runtime checks replay the interpreter's exact order: VL, then the
// memory descriptor, then VS (2D memory ops only), then operands.

#[inline(always)]
fn check_vl(m: &Machine, o: &OpRec, index: usize) -> Result<(), EmuError> {
    if o.vl != m.vl() {
        return Err(EmuError::VlMismatch { index, captured: o.vl, architectural: m.vl() });
    }
    Ok(())
}

#[inline(always)]
fn need_mem<'a>(
    mems: &'a [MemAccess],
    o: &OpRec,
    index: usize,
) -> Result<&'a MemAccess, EmuError> {
    if o.aux == NO_MEM {
        return Err(EmuError::Malformed { index, what: "missing memory descriptor" });
    }
    Ok(&mems[o.aux as usize])
}

#[inline(always)]
fn check_vs(m: &Machine, stride: i64, index: usize) -> Result<(), EmuError> {
    if stride != m.vs() {
        return Err(EmuError::VsMismatch { index, captured: stride, architectural: m.vs() });
    }
    Ok(())
}

#[inline(always)]
fn need_reg(idx: u8, what: &'static str, index: usize) -> Result<u8, EmuError> {
    if idx == NO_REG {
        return Err(EmuError::Malformed { index, what });
    }
    Ok(idx)
}

fn h_vload(c: &mut Ctx, ops: &[OpRec], i: usize) -> Result<usize, EmuError> {
    let o = &ops[i];
    check_vl(c.m, o, i)?;
    let mem = *need_mem(c.mems, o, i)?;
    check_vs(c.m, mem.stride, i)?;
    let dst = MomReg::new(need_reg(o.dst, "mom destination", i)?);
    for e in 0..o.vl as usize {
        let v = c.m.mem.read_u64_paged(mem.block_addr(e));
        c.m.set_mom(dst, e, v);
    }
    Ok(1)
}

fn h_vstore(c: &mut Ctx, ops: &[OpRec], i: usize) -> Result<usize, EmuError> {
    let o = &ops[i];
    check_vl(c.m, o, i)?;
    let mem = *need_mem(c.mems, o, i)?;
    check_vs(c.m, mem.stride, i)?;
    let src = MomReg::new(need_reg(o.src1, "mom source", i)?);
    for e in 0..o.vl as usize {
        let v = c.m.mom(src, e);
        c.m.mem.write_u64_paged(mem.block_addr(e), v);
    }
    Ok(1)
}

fn h_vcompute(c: &mut Ctx, ops: &[OpRec], i: usize) -> Result<usize, EmuError> {
    let o = &ops[i];
    check_vl(c.m, o, i)?;
    let dst = MomReg::new(need_reg(o.dst, "mom destination", i)?);
    let a = MomReg::new(need_reg(o.src1, "vector source", i)?);
    if o.src2 == NO_REG {
        for e in 0..o.vl as usize {
            let v = (o.f)(c.m.mom(a, e), 0, o.imm);
            c.m.set_mom(dst, e, v);
        }
    } else {
        let b = MomReg::new(o.src2);
        for e in 0..o.vl as usize {
            let v = (o.f)(c.m.mom(a, e), c.m.mom(b, e), o.imm);
            c.m.set_mom(dst, e, v);
        }
    }
    Ok(1)
}

fn h_vreduce(c: &mut Ctx, ops: &[OpRec], i: usize) -> Result<usize, EmuError> {
    let o = &ops[i];
    check_vl(c.m, o, i)?;
    let acc = AccReg::new(need_reg(o.dst, "accumulator destination", i)?);
    let a = MomReg::new(need_reg(o.src1, "reduce source", i)?);
    let rf = c.reduces[o.aux as usize];
    let mut sum: i128 = 0;
    for e in 0..o.vl as usize {
        let av = c.m.mom(a, e);
        let bv = if o.src2 == NO_REG { 0 } else { c.m.mom(MomReg::new(o.src2), e) };
        sum += rf(av, bv);
    }
    c.m.set_acc(acc, c.m.acc(acc) + sum);
    Ok(1)
}

fn h_dvload(c: &mut Ctx, ops: &[OpRec], i: usize) -> Result<usize, EmuError> {
    let o = &ops[i];
    check_vl(c.m, o, i)?;
    let mem = *need_mem(c.mems, o, i)?;
    let dst = DReg::new(need_reg(o.dst, "3d destination", i)?);
    let vl = o.vl as usize;
    if c.blocks.len() < vl {
        c.blocks.resize_with(vl, Vec::new);
    }
    for (e, block) in c.blocks[..vl].iter_mut().enumerate() {
        block.resize(mem.elem_bytes as usize, 0);
        c.m.mem.read_into(mem.block_addr(e), block);
    }
    c.m.dfile_mut().load(dst, &c.blocks[..vl], o.imm != 0);
    Ok(1)
}

fn h_dvmov(c: &mut Ctx, ops: &[OpRec], i: usize) -> Result<usize, EmuError> {
    let o = &ops[i];
    check_vl(c.m, o, i)?;
    let dst = MomReg::new(need_reg(o.dst, "mom destination", i)?);
    let src = DReg::new(need_reg(o.src1, "3d source", i)?);
    let vl = o.vl as usize;
    let mut slices = [0u64; 16];
    c.m.dfile_mut().mov_into(src, &mut slices[..vl], o.imm as i16);
    for (e, v) in slices[..vl].iter().enumerate() {
        c.m.set_mom(dst, e, *v);
    }
    Ok(1)
}
