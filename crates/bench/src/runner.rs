//! Workload + simulation cache shared by the experiment binaries, and
//! the per-trace store every simulated cell takes its state from.

use crate::cache::WorkloadCache;
use mom3d_cpu::{BackendId, Metrics, PreparedTrace, Processor, ProcessorConfig};
#[cfg(test)]
use mom3d_cpu::MemorySystemKind;
use mom3d_kernels::{ImageKey, IsaVariant, Workload, WorkloadKind};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
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

/// A trace's identity: the workload and the ISA variant it was
/// generated for.
pub(crate) type TraceId = (WorkloadKind, IsaVariant);

/// The trace a worker last simulated, with its prepared state, kept
/// while the worker has more cells of it ([`Runner::simulate_held`]).
pub(crate) type Held = Option<(TraceId, Arc<PreparedTrace>)>;

/// One trace's entry in the [`Store`].
#[derive(Debug, Default)]
struct Slot {
    /// The verified workload and its build/verify wall-clock, resident
    /// from its load or build for the runner's life.
    workload: Option<(Arc<Workload>, WorkloadTiming)>,
    /// The trace's prepared state, alive while some worker holds it.
    prepared: Weak<PreparedTrace>,
    /// A thread is loading or building the workload, or preparing the
    /// trace; everyone else who needs that waits for it.
    busy: bool,
}

/// The runner's per-trace store: one [`Slot`] per trace, each filled by
/// one thread at a time.
#[derive(Debug, Default)]
struct Store {
    slots: Mutex<HashMap<TraceId, Slot>>,
    /// Notified whenever a slot stops being busy.
    idle: Condvar,
    /// Workloads loaded or built.
    loads: AtomicU64,
}

/// A thread's claim on a busy slot. Dropping it, after the work or
/// while unwinding from a panic in it, marks the slot idle and wakes
/// its waiters, who then find what the claimant stored, or claim the
/// slot themselves: a failed build is retried, never waited on forever.
struct Claim<'a> {
    store: &'a Store,
    id: TraceId,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        // Every update under this lock is one field store, so a poisoned
        // table is still consistent.
        let mut slots = self.store.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(slot) = slots.get_mut(&self.id) {
            slot.busy = false;
        }
        drop(slots);
        self.store.idle.notify_all();
    }
}

impl Store {
    fn lock(&self) -> MutexGuard<'_, HashMap<TraceId, Slot>> {
        self.slots.lock().expect("trace store poisoned")
    }

    /// What `found` finds in `id`'s slot, waiting while another thread
    /// works on the slot. When it finds nothing and nobody works on the
    /// slot, the caller claims it instead.
    fn find_or_claim<T>(
        &self,
        id: TraceId,
        found: impl Fn(&Slot) -> Option<T>,
    ) -> Result<T, Claim<'_>> {
        let mut slots = self.lock();
        loop {
            let slot = slots.entry(id).or_default();
            if let Some(t) = found(slot) {
                return Ok(t);
            }
            if !slot.busy {
                slot.busy = true;
                return Err(Claim { store: self, id });
            }
            slots = self.idle.wait(slots).expect("trace store poisoned");
        }
    }
}

/// Builds workloads (verifying each against its scalar reference) and
/// runs timing simulations, caching both so that figures sharing
/// configurations do not recompute them.
///
/// Its per-trace store is the one place per-trace state lives, and it
/// works through `&self`, so the sweep workers, shard workers and
/// service threads share it:
///
/// * each workload is loaded from the image cache, or built and
///   verified, exactly once, and stays resident behind an [`Arc`] for
///   the runner's life;
/// * each trace is prepared ([`PreparedTrace`]) by one thread while
///   every other thread that asks for it waits. The store keeps only a
///   weak handle: the workers that have cells of the trace hold it, and
///   the last of them to move on frees it.
#[derive(Debug, Default)]
pub struct Runner {
    seed: u64,
    small: bool,
    cache: Option<WorkloadCache>,
    store: Store,
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
    /// Panics if the workload fails to build or fails verification
    /// against its scalar reference — a harness that times broken traces
    /// would be meaningless.
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

    /// The trace's workload, resident from its first use for the
    /// runner's life: loaded from the image cache, or built and
    /// verified, once however many threads ask at the same time.
    ///
    /// # Panics
    ///
    /// See [`Runner::load_or_build`].
    pub(crate) fn resident(&self, kind: WorkloadKind, variant: IsaVariant) -> Arc<Workload> {
        let resident = |s: &Slot| Some(Arc::clone(&s.workload.as_ref()?.0));
        match self.store.find_or_claim((kind, variant), resident) {
            Ok(wl) => wl,
            Err(claim) => self.load(&claim),
        }
    }

    /// Loads or builds the claimed trace's workload into its slot.
    fn load(&self, claim: &Claim<'_>) -> Arc<Workload> {
        let (wl, timing, _) = self.load_or_build(claim.id.0, claim.id.1);
        let wl = Arc::new(wl);
        self.store.loads.fetch_add(1, Ordering::Relaxed);
        self.store.lock().get_mut(&claim.id).expect("a claimed slot").workload =
            Some((Arc::clone(&wl), timing));
        wl
    }

    /// The trace's prepared state, shared with every holder of it, and
    /// the wall-clock this call spent preparing it: zero unless this
    /// call did the preparing. Makes the workload resident first if it
    /// is not. The store keeps no strong reference, so the state lives
    /// as long as the caller or another holder keeps it.
    ///
    /// # Panics
    ///
    /// See [`Runner::load_or_build`].
    pub(crate) fn prepared(
        &self,
        kind: WorkloadKind,
        variant: IsaVariant,
    ) -> (Arc<PreparedTrace>, Duration) {
        let claim = match self.store.find_or_claim((kind, variant), |s| s.prepared.upgrade()) {
            Ok(prepared) => return (prepared, Duration::ZERO),
            Err(claim) => claim,
        };
        let resident = self.store.lock()[&claim.id].workload.as_ref().map(|w| Arc::clone(&w.0));
        let wl = resident.unwrap_or_else(|| self.load(&claim));
        let t0 = Instant::now();
        let prepared = Arc::new(PreparedTrace::new(wl.trace()));
        let took = t0.elapsed();
        self.store.lock().get_mut(&claim.id).expect("a claimed slot").prepared =
            Arc::downgrade(&prepared);
        (prepared, took)
    }

    /// Simulates `key` on `held` when that is `key`'s trace, otherwise
    /// on the trace's state from the store, which then replaces `held`.
    /// The old state is dropped first, so a trace nobody else holds is
    /// freed before the next one is prepared. Returns the metrics and
    /// the wall-clock, the preparation included when this call did the
    /// preparing.
    ///
    /// # Panics
    ///
    /// Panics if the workload fails to build or verify, or the
    /// simulator rejects the trace.
    pub(crate) fn simulate_held(&self, key: &SimKey, held: &mut Held) -> (Metrics, Duration) {
        let id = (key.kind, key.variant);
        let mut wall = Duration::ZERO;
        if held.as_ref().is_none_or(|(h, _)| *h != id) {
            *held = None;
            let (prepared, took) = self.prepared(key.kind, key.variant);
            *held = Some((id, prepared));
            wall = took;
        }
        let (_, prepared) = held.as_ref().expect("held above");
        let t0 = Instant::now();
        (simulate(key, prepared), wall + t0.elapsed())
    }

    /// Returns (loading, or building and verifying, on first use) a
    /// workload as its shared [`Arc`].
    ///
    /// # Panics
    ///
    /// See [`Runner::load_or_build`].
    pub fn workload_arc(&mut self, kind: WorkloadKind, variant: IsaVariant) -> Arc<Workload> {
        self.resident(kind, variant)
    }

    /// The recorded build/verify wall-clock of a resident workload;
    /// zero-duration when it is not resident.
    pub fn workload_timing(&self, kind: WorkloadKind, variant: IsaVariant) -> WorkloadTiming {
        let slots = self.store.lock();
        let slot = slots.get(&(kind, variant));
        slot.and_then(|s| s.workload.as_ref()).map_or_else(Default::default, |w| w.1)
    }

    /// Workloads this runner loaded or built.
    pub(crate) fn workloads_loaded(&self) -> u64 {
        self.store.loads.load(Ordering::Relaxed)
    }

    /// Traces whose prepared state is still alive.
    #[cfg(test)]
    pub(crate) fn live_prepared(&self) -> usize {
        self.store.lock().values().filter(|s| s.prepared.strong_count() > 0).count()
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
        // The trace's state is held for this call only.
        let (metrics, _) = self.simulate_held(&key, &mut None);
        self.sims.insert(key, metrics);
        metrics
    }

    /// Cycles of the MOM + ideal-memory configuration — the paper's
    /// normalization baseline for Figures 3 and 9.
    pub fn mom_ideal_cycles(&mut self, kind: WorkloadKind) -> u64 {
        self.metrics(kind, IsaVariant::Mom, BackendId::new("ideal"), 20).cycles
    }
}

/// Runs one simulation cell on its trace's prepared state: the one
/// simulation path of the harness. Pure apart from the panic on
/// simulator errors.
///
/// # Panics
///
/// Panics if the simulator rejects the trace.
pub(crate) fn simulate(key: &SimKey, prepared: &PreparedTrace) -> Metrics {
    Processor::new(key.config()).run_prepared(prepared).unwrap_or_else(|e| {
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
        let wl = r.workload_arc(key.0, key.1);
        let t = r.workload_timing(key.0, key.1);
        assert!(t.build > Duration::ZERO, "building must take measurable time");
        // The workload stays resident: asking again neither rebuilds
        // nor re-times it.
        assert!(Arc::ptr_eq(&wl, &r.workload_arc(key.0, key.1)));
        assert_eq!(r.workload_timing(key.0, key.1), t);
        assert_eq!(r.workloads_loaded(), 1);
    }

    /// Four threads asking for one trace at once share one build and
    /// one preparation; the state dies with its last holder, and the
    /// next asker prepares it again from the resident workload.
    #[test]
    fn the_store_prepares_once_for_concurrent_askers_and_frees_with_the_last_holder() {
        let r = Runner::small(1);
        let (kind, variant) = (WorkloadKind::JpegDecode, IsaVariant::Mom);
        let held: Vec<(Arc<PreparedTrace>, Duration)> = std::thread::scope(|s| {
            let askers: Vec<_> = (0..4).map(|_| s.spawn(|| r.prepared(kind, variant))).collect();
            askers.into_iter().map(|h| h.join().expect("asker panicked")).collect()
        });
        assert!(held.iter().all(|(p, _)| Arc::ptr_eq(p, &held[0].0)), "one preparation");
        assert_eq!(held.iter().filter(|(_, took)| *took > Duration::ZERO).count(), 1);
        assert_eq!((r.workloads_loaded(), r.live_prepared()), (1, 1));
        drop(held);
        assert_eq!(r.live_prepared(), 0, "the last holder frees the state");
        let (_again, took) = r.prepared(kind, variant);
        assert!(took > Duration::ZERO, "a freed trace is prepared again");
        assert_eq!(r.workloads_loaded(), 1, "from the resident workload");
    }

    /// A claimant that panics un-claims its slot and wakes its waiter,
    /// which then claims the slot itself instead of waiting forever.
    #[test]
    fn a_panicking_claimant_hands_its_slot_to_a_waiter() {
        let store = Store::default();
        let id = (WorkloadKind::GsmEncode, IsaVariant::Mom);
        let claim = store.find_or_claim(id, |_| None::<()>).expect_err("the first asker claims");
        let (looked, seen) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let found = move |_: &Slot| looked.send(()).map_or(None, |()| None::<()>);
                store.find_or_claim(id, found).is_err()
            });
            // The waiter found the slot busy under the lock, which it
            // holds until it waits, so the claim drops onto a parked
            // waiter.
            seen.recv().expect("the waiter looks");
            let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                let _claim = claim;
                panic!("an injected build failure");
            }));
            assert!(failed.is_err());
            assert!(waiter.join().expect("waiter panicked"), "the waiter claims the slot");
        });
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
