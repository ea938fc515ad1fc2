//! # mom3d-cpu — Jinks-like out-of-order timing simulator
//!
//! A trace-driven, cycle-stepped model of the paper's evaluation vehicle
//! (§5.3, Table 2): an aggressive 8-way out-of-order superscalar with an
//! independent multimedia pipeline, in two flavours:
//!
//! * **MMX-style** — 4 µSIMD FUs, 4 issue, 4 L1 memory ports;
//! * **MOM** — 1 SIMD FU with 4 lanes (same aggregate ALU bandwidth),
//!   2 memory issue slots, and a single wide L2 vector port.
//!
//! Any backend registered with [`mom3d_mem::BackendRegistry`] can back
//! the vector port; configurations key it by [`BackendId`]. The paper's
//! four organizations keep their [`MemorySystemKind`] spelling: an
//! idealistic memory (1-cycle, unbounded bandwidth — the Figure 3/9
//! baseline), the 4-port/8-bank **multi-banked** cache, the 4×64-bit
//! **vector cache**, and the vector cache plus **3D register file**
//! (which `3dvload`/`3dvmov` traces require). A row-buffer-aware
//! **DRAM-burst** model (`"dram-burst"`) ships alongside them as the
//! first registry-only backend.
//!
//! The simulator consumes [`mom3d_isa::Trace`]s, resolves register and
//! memory dependences by renaming, and models a 128-entry graduation
//! window, a 32-entry load/store queue, per-class issue widths,
//! functional-unit occupancy (vector instructions occupy their FU for
//! `ceil(VL / lanes)` cycles), cache-port scheduling, L2 hit/miss timing
//! and the exclusive-bit L1 coherence traffic.
//!
//! ```
//! use mom3d_cpu::{Processor, ProcessorConfig, MemorySystemKind};
//! use mom3d_isa::{TraceBuilder, Gpr, MomReg};
//!
//! # fn main() -> Result<(), mom3d_cpu::SimError> {
//! let mut tb = TraceBuilder::new();
//! tb.set_vl(8);
//! tb.set_vs(640);
//! let b = tb.li(Gpr::new(1), 0x1_0000);
//! tb.vload(MomReg::new(0), b, 0x1_0000);
//! let trace = tb.finish();
//!
//! let cfg = ProcessorConfig::mom().with_memory(MemorySystemKind::VectorCache);
//! let metrics = Processor::new(cfg).run(&trace)?;
//! assert!(metrics.cycles > 20); // the load must see L2 latency
//! # Ok(())
//! # }
//! ```
//!
//! **Place in the dataflow**: the timing stage. `mom3d-bench` replays
//! each verified workload's trace through [`Processor::run`] once per
//! experiment cell; the resulting [`Metrics`] feed every figure/table
//! formatter and the `mom3d-power` energy model. This crate never
//! touches data values — correctness lives in `mom3d-emu`.

mod config;
mod depgraph;
mod error;
mod memsys;
mod metrics;
mod pipeline;
mod prepared;

pub use config::{MemorySystemKind, ProcessorConfig};
// Re-exported so downstream crates can name backends without a direct
// mom3d-mem dependency.
pub use mom3d_mem::{
    BackendEntry, BackendId, BackendParams, BackendRegistry, BackendStats, DramConfig,
    VectorMemoryBackend,
};
pub use depgraph::{DepEdge, DepGraph, WakeEdge, WakeupLists};
pub use error::SimError;
pub use memsys::MemorySystem;
pub use metrics::Metrics;
pub use pipeline::Processor;
pub use prepared::PreparedTrace;
