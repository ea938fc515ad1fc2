//! Cross-invocation workload cache: persists built-and-verified
//! workload images on disk so the next binary invocation starts warm.
//!
//! Building a full-geometry workload (code generation + a complete
//! functional-emulator verification run) dominates the cold start of
//! every experiment binary. [`WorkloadCache`] stores each verified
//! [`Workload`] as a versioned binary image (see
//! [`mom3d_kernels::encode_workload`]) keyed by workload kind, ISA
//! variant, geometry, seed and format version, and serves it back to
//! later invocations through [`crate::Runner`]'s `load_or_build` path.
//!
//! The cache is **fail-open in every direction**:
//!
//! * no directory configured → no cache, everything builds as before;
//! * the directory cannot be created or written → a warning on stderr
//!   and no cache (never an error);
//! * a cached image is truncated, bit-flipped, written by another
//!   format version or misfiled → the image is rejected (and deleted
//!   best-effort) and the workload rebuilds from scratch.
//!
//! A corrupt cache can therefore cost time, never correctness.
//!
//! Configuration: the `--cache-dir PATH` flag of every binary that
//! simulates. Hit/miss/rejected counters are exposed via
//! [`WorkloadCache::stats`]; the `all` binary prints them on stderr and
//! embeds them in `BENCH_sweep.json`.

use crate::faults::{ShimFile, WriteFault};
use mom3d_kernels::{decode_workload, encode_workload, ImageKey, Workload, WORKLOAD_IMAGE_VERSION};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Snapshot of a cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Images loaded successfully.
    pub hits: u64,
    /// Lookups that found no image (plus rejected images — every
    /// rejection is also a miss, since the workload rebuilds).
    pub misses: u64,
    /// Images found but rejected (corrupt, stale version, misfiled).
    pub rejected: u64,
}

/// A directory of workload images with hit/miss accounting.
///
/// All methods take `&self` — the sweep engine's worker pool loads and
/// stores images concurrently — so the counters are atomics and stores
/// go through a write-to-temp-then-rename dance that keeps concurrent
/// writers from ever exposing a half-written image under the final
/// name.
#[derive(Debug)]
pub struct WorkloadCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
    store_warned: AtomicBool,
    /// One-shot injected write fault consumed by the next
    /// [`WorkloadCache::store`] (chaos tests only; `None` in
    /// production).
    store_fault: Mutex<Option<WriteFault>>,
}

impl WorkloadCache {
    /// Opens (creating if needed) a cache directory, probing that it is
    /// actually writable. Returns `None` — with a warning on stderr —
    /// when the directory cannot be created or written, so callers fall
    /// back to uncached builds instead of erroring out.
    pub fn open(dir: impl Into<PathBuf>) -> Option<WorkloadCache> {
        let dir = dir.into();
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!(
                "warning: workload cache disabled: cannot create {}: {e}",
                dir.display()
            );
            return None;
        }
        // Probe writability up front: a read-only directory should cost
        // one warning, not one failed write per workload.
        let probe = dir.join(format!(".probe-{}", std::process::id()));
        if let Err(e) = std::fs::write(&probe, b"probe") {
            eprintln!(
                "warning: workload cache disabled: {} is not writable: {e}",
                dir.display()
            );
            return None;
        }
        let _ = std::fs::remove_file(&probe);
        Some(WorkloadCache {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            store_warned: AtomicBool::new(false),
            store_fault: Mutex::new(None),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }

    /// The image file name for a key. The format version is part of the
    /// name, so a version bump leaves old images behind as dead files
    /// instead of forcing every reader through their headers.
    pub fn file_name(key: &ImageKey) -> String {
        let kind = key.kind.name().replace(' ', "-");
        let variant = match key.variant {
            mom3d_kernels::IsaVariant::Mmx => "mmx",
            mom3d_kernels::IsaVariant::Mom => "mom",
            mom3d_kernels::IsaVariant::Mom3d => "mom3d",
        };
        let geom = if key.small { "small" } else { "full" };
        format!("{kind}_{variant}_{geom}_s{}_v{}.mwl", key.seed, WORKLOAD_IMAGE_VERSION)
    }

    /// Full path of a key's image.
    pub fn image_path(&self, key: &ImageKey) -> PathBuf {
        self.dir.join(Self::file_name(key))
    }

    /// Attempts to load a cached workload. Any failure — missing file,
    /// truncation, checksum/digest mismatch, stale format version —
    /// counts as a miss and returns `None`; rejected images are
    /// additionally counted, warned about on stderr, and evicted via a
    /// quarantine-rename (compare-then-delete) so a concurrent writer's
    /// fresh image is never deleted by mistake.
    pub fn load(&self, key: &ImageKey) -> Option<Workload> {
        let path = self.image_path(key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match decode_workload(&bytes, key) {
            Ok(wl) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(wl)
            }
            Err(e) => {
                eprintln!(
                    "warning: rejecting cached workload image {}: {e}; rebuilding",
                    path.display()
                );
                self.evict_rejected(&path, &bytes);
                self.rejected.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Evicts a rejected image without racing concurrent writers.
    ///
    /// An unconditional `remove_file` here would lose a *good* image: a
    /// concurrent [`WorkloadCache::store`] can rename a fresh, valid
    /// image into place between this reader's failed decode and its
    /// delete. Instead the file is atomically renamed into a unique
    /// quarantine name and re-read there: bytes identical to the
    /// rejected read are the corrupt image (delete the quarantine);
    /// different bytes mean a writer refreshed the path after our read,
    /// so the quarantined file is the fresh image and is renamed back.
    fn evict_rejected(&self, path: &Path, rejected: &[u8]) {
        let mut quarantine = path.as_os_str().to_os_string();
        quarantine.push(format!(".reject-{}-{:p}", std::process::id(), rejected.as_ptr()));
        let quarantine = PathBuf::from(quarantine);
        if std::fs::rename(path, &quarantine).is_err() {
            // Already gone — another reader evicted it first.
            return;
        }
        match std::fs::read(&quarantine) {
            Ok(current) if current == rejected => {
                let _ = std::fs::remove_file(&quarantine);
            }
            Ok(_) => {
                // A writer replaced the image after our read; what we
                // quarantined is its fresh copy — restore it. (Images
                // are deterministic per key, so racing an even newer
                // writer's rename is byte-equivalent either way.)
                let _ = std::fs::rename(&quarantine, path);
            }
            Err(_) => {
                let _ = std::fs::remove_file(&quarantine);
            }
        }
    }

    /// Arms a one-shot [`WriteFault`] consumed by the next
    /// [`WorkloadCache::store`]: that store's temp-file write fails
    /// after the fault's byte budget, exercising the fail-open path
    /// (warn once, never a half-written image under the final name)
    /// without filling a disk or revoking permissions.
    pub fn arm_store_fault(&self, fault: WriteFault) {
        *self.store_fault.lock().expect("store-fault lock poisoned") = Some(fault);
    }

    /// Stores a built-and-verified workload. `verify_digest` must come
    /// from the [`Workload::verify_digested`] run that just passed.
    /// Write failures warn (once) and are otherwise ignored — the cache
    /// is an accelerator, not a dependency.
    pub fn store(&self, wl: &Workload, key: &ImageKey, verify_digest: u64) {
        let bytes = encode_workload(wl, key, verify_digest);
        let path = self.image_path(key);
        // Unique temp name per writer: concurrent stores of the same key
        // (two binaries racing) each rename a complete image into place.
        let tmp = self.dir.join(format!(
            "{}.tmp-{}-{:p}",
            Self::file_name(key),
            std::process::id(),
            &bytes as *const _
        ));
        let fault = self.store_fault.lock().expect("store-fault lock poisoned").take();
        let result = (|| {
            let file = std::fs::File::create(&tmp)?;
            // All image bytes go through the injectable shim, so chaos
            // tests can stage a disk-full / crash-mid-write store.
            let mut shim = match fault {
                Some(fault) => ShimFile::with_fault(file, fault),
                None => ShimFile::new(file),
            };
            shim.write_all(&bytes)?;
            shim.flush()?;
            drop(shim);
            std::fs::rename(&tmp, &path)
        })();
        if let Err(e) = result {
            let _ = std::fs::remove_file(&tmp);
            if !self.store_warned.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "warning: could not persist workload image {}: {e} \
                     (continuing without caching)",
                    path.display()
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mom3d_kernels::{IsaVariant, WorkloadKind};

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("mom3d-cache-unit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn unwritable_dir_falls_back_to_no_cache() {
        // A path that routes through an existing *file* cannot become a
        // directory, so open() must warn and return None.
        let file = temp_dir("blocker");
        std::fs::create_dir_all(file.parent().unwrap()).unwrap();
        std::fs::write(&file, b"not a directory").unwrap();
        assert!(WorkloadCache::open(file.join("sub")).is_none());
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn file_names_are_key_unique_and_versioned() {
        let a = ImageKey {
            kind: WorkloadKind::JpegEncode,
            variant: IsaVariant::Mom,
            seed: 7,
            small: false,
        };
        let b = ImageKey { variant: IsaVariant::Mom3d, ..a };
        let c = ImageKey { small: true, ..a };
        let d = ImageKey { seed: 8, ..a };
        let names: Vec<String> =
            [a, b, c, d].iter().map(WorkloadCache::file_name).collect();
        for (i, n) in names.iter().enumerate() {
            assert!(n.contains(&format!("v{WORKLOAD_IMAGE_VERSION}")), "{n}");
            for (j, m) in names.iter().enumerate() {
                assert_eq!(i == j, n == m, "{n} vs {m}");
            }
        }
        assert_eq!(names[0], "jpeg-encode_mom_full_s7_v1.mwl");
    }

    #[test]
    fn eviction_deletes_corrupt_but_preserves_refreshed_images() {
        let dir = temp_dir("evict");
        let cache = WorkloadCache::open(&dir).unwrap();
        let path = dir.join("img.mwl");

        // Plain case: the file still holds the bytes we rejected — gone.
        std::fs::write(&path, b"corrupt bytes").unwrap();
        cache.evict_rejected(&path, b"corrupt bytes");
        assert!(!path.exists(), "the corrupt image must be deleted");

        // Race case: between the failed decode and the eviction, a
        // writer renamed a fresh image into place. The fresh image must
        // survive the eviction.
        std::fs::write(&path, b"fresh valid image").unwrap();
        cache.evict_rejected(&path, b"corrupt bytes");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"fresh valid image",
            "a concurrently refreshed image must not be deleted"
        );

        // Already-evicted case: nothing at the path, nothing to do.
        let _ = std::fs::remove_file(&path);
        cache.evict_rejected(&path, b"whatever");
        assert!(!path.exists());

        // No quarantine debris is left behind in any case.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".reject-"))
            .collect();
        assert!(leftovers.is_empty(), "quarantine files must not accumulate: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_armed_store_fault_fails_open_and_is_one_shot() {
        let dir = temp_dir("storefault");
        let cache = WorkloadCache::open(&dir).unwrap();
        let key = ImageKey {
            kind: WorkloadKind::GsmEncode,
            variant: IsaVariant::Mom,
            seed: 3,
            small: true,
        };
        let wl = mom3d_kernels::Workload::build_small(key.kind, key.variant, key.seed).unwrap();
        let digest = wl.verify_digested().expect("small workload verifies");

        // The faulted store must leave nothing under the final name and
        // no temp debris — the cache is an accelerator, not a
        // dependency.
        cache.arm_store_fault(WriteFault { fail_after: 16 });
        cache.store(&wl, &key, digest);
        assert!(cache.load(&key).is_none(), "no half-written image may be served");
        let debris: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(debris.is_empty(), "temp files must be cleaned up: {debris:?}");

        // The fault is one-shot: the next store lands intact.
        cache.store(&wl, &key, digest);
        assert!(cache.load(&key).is_some(), "the retried store must succeed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_image_counts_a_miss() {
        let dir = temp_dir("miss");
        let cache = WorkloadCache::open(&dir).unwrap();
        let key = ImageKey {
            kind: WorkloadKind::GsmEncode,
            variant: IsaVariant::Mom,
            seed: 1,
            small: true,
        };
        assert!(cache.load(&key).is_none());
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 1, rejected: 0 });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
