//! Workload + simulation cache shared by the experiment binaries.

use crate::cache::WorkloadCache;
use mom3d_cpu::{BackendId, Metrics, PreparedTrace, Processor, ProcessorConfig, SimError};
#[cfg(test)]
use mom3d_cpu::MemorySystemKind;
use mom3d_kernels::{ImageKey, IsaVariant, Workload, WorkloadKind};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock phase breakdown of preparing one workload: trace
/// generation (the functional emulator run included) and verification
/// against the scalar reference. Together with the per-cell simulation
/// wall-clock this is what `BENCH_sweep.json` (schema v4) reports, so
/// the cost of every phase of the harness is machine-readable. For a
/// workload served from the image cache, `build` is the image-load
/// time and `verify` is zero (the image proves a verification that
/// already happened).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkloadTiming {
    /// Building the workload (data generation + trace emission).
    pub build: Duration,
    /// Verifying the built workload against its scalar reference.
    pub verify: Duration,
}

/// One point of the experiment matrix: which workload trace runs on
/// which processor/memory configuration. The key of the [`Runner`]
/// simulation cache and the unit of work of the [`crate::sweep`] engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimKey {
    /// Benchmark.
    pub kind: WorkloadKind,
    /// ISA variant the trace was generated for.
    pub variant: IsaVariant,
    /// Vector memory backend backing the processor (any id registered
    /// with [`mom3d_cpu::BackendRegistry`]).
    pub memory: BackendId,
    /// L2 hit latency in cycles.
    pub l2_latency: u32,
}

impl SimKey {
    /// The processor configuration this key simulates under — the single
    /// source of truth shared by the serial path ([`Runner::metrics`])
    /// and the parallel sweep workers, so both produce bit-identical
    /// metrics.
    pub fn config(&self) -> ProcessorConfig {
        let base = match self.variant {
            IsaVariant::Mmx => ProcessorConfig::mmx(),
            IsaVariant::Mom | IsaVariant::Mom3d => ProcessorConfig::mom(),
        };
        base.with_memory(self.memory).with_l2_latency(self.l2_latency).with_warm_caches(true)
    }
}

/// Builds workloads (verifying each against its scalar reference) and
/// runs timing simulations, caching both so that figures sharing
/// configurations do not recompute them.
///
/// Workloads are stored behind [`Arc`] so the parallel sweep engine can
/// hand the same verified trace to several worker threads without
/// cloning it.
#[derive(Debug, Default)]
pub struct Runner {
    seed: u64,
    small: bool,
    cache: Option<WorkloadCache>,
    workloads: HashMap<(WorkloadKind, IsaVariant), Arc<Workload>>,
    timings: HashMap<(WorkloadKind, IsaVariant), WorkloadTiming>,
    sims: HashMap<SimKey, Metrics>,
}

impl Runner {
    /// Full-size workloads (the experiment binaries).
    pub fn new(seed: u64) -> Self {
        Runner { seed, small: false, ..Default::default() }
    }

    /// Reduced workloads (fast integration tests).
    pub fn small(seed: u64) -> Self {
        Runner { seed, small: true, ..Default::default() }
    }

    /// The data seed in use.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when this runner builds reduced-geometry workloads.
    pub fn is_small(&self) -> bool {
        self.small
    }

    /// Attaches (or detaches) a persistent workload-image cache:
    /// [`Runner::load_or_build`] then serves workloads from disk when a
    /// valid image exists, and persists every fresh build. `None`
    /// leaves the runner uncached (the prior behavior).
    pub fn with_cache(mut self, cache: Option<WorkloadCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The attached workload-image cache, if any.
    pub fn cache(&self) -> Option<&WorkloadCache> {
        self.cache.as_ref()
    }

    /// The on-disk identity of one of this runner's workloads (its
    /// kind/variant plus the runner's seed and geometry).
    pub fn image_key(&self, kind: WorkloadKind, variant: IsaVariant) -> ImageKey {
        ImageKey { kind, variant, seed: self.seed, small: self.small }
    }

    /// Builds and verifies one workload for this runner's seed/geometry
    /// without touching the cache (the sweep engine builds off-thread
    /// and inserts the results afterwards).
    ///
    /// # Panics
    ///
    /// Panics if the workload fails to build or fails verification
    /// against its scalar reference — a harness that times broken traces
    /// would be meaningless.
    pub fn build_workload(&self, kind: WorkloadKind, variant: IsaVariant) -> Workload {
        self.build_workload_timed(kind, variant).0
    }

    /// Like [`Runner::build_workload`], but also reports how long the
    /// build and verification phases took (what the sweep engine records
    /// into `BENCH_sweep.json`).
    ///
    /// # Panics
    ///
    /// See [`Runner::build_workload`].
    pub fn build_workload_timed(
        &self,
        kind: WorkloadKind,
        variant: IsaVariant,
    ) -> (Workload, WorkloadTiming) {
        let (wl, build) = self.build_workload_unverified(kind, variant);
        let (_digest, verify) = verify_timed(&wl);
        (wl, WorkloadTiming { build, verify })
    }

    /// The build phase alone — code generation without verification
    /// (what a caller timing build and verify apart runs first).
    ///
    /// # Panics
    ///
    /// Panics if the workload fails to build.
    pub fn build_workload_unverified(
        &self,
        kind: WorkloadKind,
        variant: IsaVariant,
    ) -> (Workload, Duration) {
        let t0 = Instant::now();
        let wl = if self.small {
            Workload::build_small(kind, variant, self.seed)
        } else {
            Workload::build(kind, variant, self.seed)
        }
        .unwrap_or_else(|e| panic!("building {kind} {variant}: {e}"));
        (wl, t0.elapsed())
    }

    /// Loads the workload from the attached image cache, or builds,
    /// verifies and (when a cache is attached) persists it. Returns the
    /// workload, its phase timing — for a cache hit, `build` is the
    /// image load time and `verify` is zero, since a valid image proves
    /// a verification that already happened — and whether it was served
    /// from the cache.
    ///
    /// Cache problems never propagate: a missing, corrupt or stale
    /// image falls back to the build path, and a failed store is a
    /// warning (see [`WorkloadCache`]).
    ///
    /// # Panics
    ///
    /// See [`Runner::build_workload`].
    pub fn load_or_build(
        &self,
        kind: WorkloadKind,
        variant: IsaVariant,
    ) -> (Workload, WorkloadTiming, bool) {
        if let Some(cache) = &self.cache {
            let t0 = Instant::now();
            if let Some(wl) = cache.load(&self.image_key(kind, variant)) {
                let timing = WorkloadTiming { build: t0.elapsed(), verify: Duration::ZERO };
                return (wl, timing, true);
            }
        }
        let (wl, build) = self.build_workload_unverified(kind, variant);
        let (digest, verify) = verify_timed(&wl);
        if let Some(cache) = &self.cache {
            cache.store(&wl, &self.image_key(kind, variant), digest);
        }
        (wl, WorkloadTiming { build, verify }, false)
    }

    /// Builds (and caches) the workload if it is not cached yet.
    fn ensure_workload(&mut self, kind: WorkloadKind, variant: IsaVariant) {
        if !self.workloads.contains_key(&(kind, variant)) {
            let (wl, timing, _) = self.load_or_build(kind, variant);
            self.workloads.insert((kind, variant), Arc::new(wl));
            self.timings.insert((kind, variant), timing);
        }
    }

    /// Returns (building and verifying on first use) a workload.
    ///
    /// # Panics
    ///
    /// See [`Runner::build_workload`].
    pub fn workload(&mut self, kind: WorkloadKind, variant: IsaVariant) -> &Workload {
        self.ensure_workload(kind, variant);
        &self.workloads[&(kind, variant)]
    }

    /// Like [`Runner::workload`], but hands out the shared [`Arc`]
    /// (what the sweep engine distributes to its workers).
    ///
    /// # Panics
    ///
    /// See [`Runner::build_workload`].
    pub fn workload_arc(&mut self, kind: WorkloadKind, variant: IsaVariant) -> Arc<Workload> {
        self.ensure_workload(kind, variant);
        Arc::clone(&self.workloads[&(kind, variant)])
    }

    /// Inserts an externally built (and verified) workload into the
    /// cache. Later [`Runner::workload`] calls return it instead of
    /// rebuilding.
    pub fn insert_workload(&mut self, wl: Arc<Workload>) {
        self.workloads.insert((wl.kind(), wl.variant()), wl);
    }

    /// Inserts an externally built workload together with its recorded
    /// phase timings (how the sweep's task queue publishes its builds).
    pub fn insert_workload_timed(&mut self, wl: Arc<Workload>, timing: WorkloadTiming) {
        self.timings.insert((wl.kind(), wl.variant()), timing);
        self.insert_workload(wl);
    }

    /// The recorded build/verify wall-clock of a cached workload.
    /// Zero-duration when the workload was inserted without timings or
    /// is not cached at all.
    pub fn workload_timing(&self, kind: WorkloadKind, variant: IsaVariant) -> WorkloadTiming {
        self.timings.get(&(kind, variant)).copied().unwrap_or_default()
    }

    /// The cached workload, if it is built, as its shared [`Arc`].
    pub(crate) fn cached_workload(
        &self,
        kind: WorkloadKind,
        variant: IsaVariant,
    ) -> Option<Arc<Workload>> {
        self.workloads.get(&(kind, variant)).cloned()
    }

    /// True when the workload is already built and cached.
    pub fn has_workload(&self, kind: WorkloadKind, variant: IsaVariant) -> bool {
        self.workloads.contains_key(&(kind, variant))
    }

    /// The cached metrics for `key`, if that cell was already simulated.
    pub fn cached_metrics(&self, key: &SimKey) -> Option<Metrics> {
        self.sims.get(key).copied()
    }

    /// Inserts an externally simulated cell into the cache (how the
    /// sweep engine publishes its workers' results).
    pub fn insert_metrics(&mut self, key: SimKey, metrics: Metrics) {
        self.sims.insert(key, metrics);
    }

    /// Simulates a workload on a processor/memory configuration at the
    /// given L2 latency, with caching. `memory` accepts a
    /// [`mom3d_cpu::MemorySystemKind`] or any [`BackendId`].
    pub fn metrics(
        &mut self,
        kind: WorkloadKind,
        variant: IsaVariant,
        memory: impl Into<BackendId>,
        l2_latency: u32,
    ) -> Metrics {
        let key = SimKey { kind, variant, memory: memory.into(), l2_latency };
        if let Some(m) = self.sims.get(&key) {
            return *m;
        }
        let wl = self.workload_arc(kind, variant);
        let metrics = simulate(&key, &wl);
        self.sims.insert(key, metrics);
        metrics
    }

    /// Cycles of the MOM + ideal-memory configuration — the paper's
    /// normalization baseline for Figures 3 and 9.
    pub fn mom_ideal_cycles(&mut self, kind: WorkloadKind) -> u64 {
        self.metrics(kind, IsaVariant::Mom, BackendId::new("ideal"), 20).cycles
    }
}

/// Runs one simulation cell. Pure apart from the panic on simulator
/// errors; called from the serial [`Runner::metrics`] path and from the
/// sweep worker threads alike.
///
/// # Panics
///
/// Panics if the simulator rejects the trace.
pub(crate) fn simulate(key: &SimKey, wl: &Workload) -> Metrics {
    expect_simulated(key, Processor::new(key.config()).run(wl.trace()))
}

/// [`simulate`] on per-trace state shared with the other cells of the
/// same trace (how the sweep workers run).
///
/// # Panics
///
/// Panics if the simulator rejects the trace.
pub(crate) fn simulate_prepared(key: &SimKey, prepared: &PreparedTrace<'_>) -> Metrics {
    expect_simulated(key, Processor::new(key.config()).run_prepared(prepared))
}

fn expect_simulated(key: &SimKey, result: Result<Metrics, SimError>) -> Metrics {
    result.unwrap_or_else(|e| {
        panic!("simulating {} {} on {:?}: {e}", key.kind, key.variant, key.memory)
    })
}

/// Verifies a freshly built workload, timing the emulator run and
/// keeping the digest the image cache persists.
///
/// # Panics
///
/// Panics on verification failure — a harness that times broken traces
/// would be meaningless.
fn verify_timed(wl: &Workload) -> (u64, Duration) {
    let t0 = Instant::now();
    let digest = wl
        .verify_digested()
        .unwrap_or_else(|e| panic!("verifying {} {}: {e}", wl.kind(), wl.variant()));
    (digest, t0.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caching_returns_identical_metrics() {
        let mut r = Runner::small(1);
        let a = r.metrics(
            WorkloadKind::GsmEncode,
            IsaVariant::Mom,
            MemorySystemKind::VectorCache,
            20,
        );
        let b = r.metrics(
            WorkloadKind::GsmEncode,
            IsaVariant::Mom,
            MemorySystemKind::VectorCache,
            20,
        );
        assert_eq!(a, b);
        let key = SimKey {
            kind: WorkloadKind::GsmEncode,
            variant: IsaVariant::Mom,
            memory: MemorySystemKind::VectorCache.into(),
            l2_latency: 20,
        };
        assert_eq!(r.cached_metrics(&key), Some(a));
    }

    #[test]
    fn ideal_is_fastest() {
        let mut r = Runner::small(1);
        let ideal = r.mom_ideal_cycles(WorkloadKind::Mpeg2Encode);
        let vc = r
            .metrics(
                WorkloadKind::Mpeg2Encode,
                IsaVariant::Mom,
                MemorySystemKind::VectorCache,
                20,
            )
            .cycles;
        assert!(ideal < vc);
    }

    #[test]
    fn workload_phase_timings_are_recorded() {
        let mut r = Runner::small(1);
        let key = (WorkloadKind::GsmEncode, IsaVariant::Mom);
        assert_eq!(r.workload_timing(key.0, key.1), WorkloadTiming::default());
        r.workload(key.0, key.1);
        let t = r.workload_timing(key.0, key.1);
        assert!(t.build > Duration::ZERO, "building must take measurable time");
        // Publishing an external build records its timing too.
        let (wl, timing) = r.build_workload_timed(WorkloadKind::JpegDecode, IsaVariant::Mom);
        r.insert_workload_timed(Arc::new(wl), timing);
        assert_eq!(r.workload_timing(WorkloadKind::JpegDecode, IsaVariant::Mom), timing);
    }

    #[test]
    fn inserted_metrics_shadow_simulation() {
        let mut r = Runner::small(1);
        let key = SimKey {
            kind: WorkloadKind::JpegDecode,
            variant: IsaVariant::Mom,
            memory: MemorySystemKind::Ideal.into(),
            l2_latency: 20,
        };
        let sentinel = Metrics { cycles: 42, ..Default::default() };
        r.insert_metrics(key, sentinel);
        assert_eq!(r.metrics(key.kind, key.variant, key.memory, key.l2_latency), sentinel);
    }
}
