//! Argument parsing for the experiment binaries.
//!
//! `all` grew beyond the conventional single seed argument: thread
//! count and JSON path used to be controllable only through the
//! `MOM3D_SWEEP_THREADS`/`MOM3D_SWEEP_JSON` environment variables; the
//! `--threads`/`--json` flags now expose them directly (flags win over
//! the environment), `--all-backends` opts into sweeping every
//! registered memory backend instead of just the paper grid, and
//! `--cache-dir` points the cross-invocation workload-image cache at a
//! directory (overriding `MOM3D_WORKLOAD_CACHE`).
//!
//! The figure/table binaries share the smaller `[SEED] [--cache-dir
//! PATH]` grammar ([`parse_common_args`]).

use crate::cache::WorkloadCache;
use crate::faults::ChaosConfig;
use crate::protocol::Endpoint;
use crate::shard::{ShardConfig, WorkerConfig};
use std::path::PathBuf;

/// Parsed `all` arguments.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AllArgs {
    /// Workload data seed (positional; default 7).
    pub seed: Option<u64>,
    /// `--threads N`: sweep worker count (overrides
    /// `MOM3D_SWEEP_THREADS`).
    pub threads: Option<usize>,
    /// `--json PATH`: sweep report path (overrides `MOM3D_SWEEP_JSON`).
    pub json: Option<PathBuf>,
    /// `--all-backends`: sweep and report every registered backend, not
    /// just the four paper organizations.
    pub all_backends: bool,
    /// `--small`: sweep reduced-geometry workloads (the integration-test
    /// geometry) — a fast smoke of the whole pipeline, e.g. for CI
    /// schema checks of `BENCH_sweep.json`.
    pub small: bool,
    /// `--cache-dir PATH`: workload-image cache directory (overrides
    /// `MOM3D_WORKLOAD_CACHE`).
    pub cache_dir: Option<PathBuf>,
}

impl AllArgs {
    /// The seed to use.
    pub fn seed(&self) -> u64 {
        self.seed.unwrap_or(7)
    }

    /// Effective worker count: the flag, else the environment/default
    /// ([`crate::sweep::threads_from_env`]).
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or_else(crate::sweep::threads_from_env)
    }

    /// Effective JSON path: the flag, else the environment/default
    /// ([`crate::sweep::json_path_from_env`]).
    pub fn json_path(&self) -> PathBuf {
        self.json.clone().unwrap_or_else(crate::sweep::json_path_from_env)
    }

    /// Effective workload-image cache: the `--cache-dir` flag, else the
    /// `MOM3D_WORKLOAD_CACHE` environment variable, else none. An
    /// unusable directory degrades to no-cache with a warning (see
    /// [`WorkloadCache`]).
    pub fn cache(&self) -> Option<WorkloadCache> {
        WorkloadCache::resolve(self.cache_dir.as_deref())
    }
}

/// Usage string printed on parse errors.
pub const ALL_USAGE: &str = "usage: all [SEED] [--threads N] [--json PATH] [--all-backends] \
                             [--small] [--cache-dir PATH]";

/// Parses the `all` binary's arguments (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown flags, missing or
/// malformed flag values, and duplicate positional seeds.
pub fn parse_all_args<I>(args: I) -> Result<AllArgs, String>
where
    I: IntoIterator<Item = String>,
{
    let mut parsed = AllArgs::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                let n: usize =
                    v.parse().map_err(|_| format!("--threads {v:?}: not an integer"))?;
                if n == 0 {
                    // Same policy as MOM3D_SWEEP_THREADS=0: zero is not
                    // a thread count, so warn and fall back to the
                    // environment/default instead of erroring — the two
                    // knobs configure the same thing and must not
                    // diverge.
                    eprintln!(
                        "warning: --threads 0 is not a thread count; \
                         using MOM3D_SWEEP_THREADS or the default"
                    );
                    parsed.threads = None;
                } else {
                    parsed.threads = Some(n);
                }
            }
            "--json" => {
                let v = it.next().ok_or("--json needs a path")?;
                parsed.json = Some(PathBuf::from(v));
            }
            "--all-backends" => parsed.all_backends = true,
            "--small" => parsed.small = true,
            "--cache-dir" => {
                let v = it.next().ok_or("--cache-dir needs a path")?;
                parsed.cache_dir = Some(PathBuf::from(v));
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag {flag:?}"));
            }
            positional => {
                if parsed.seed.is_some() {
                    return Err(format!("unexpected second positional argument {positional:?}"));
                }
                let seed: u64 =
                    positional.parse().map_err(|_| format!("seed {positional:?}: not an integer"))?;
                parsed.seed = Some(seed);
            }
        }
    }
    Ok(parsed)
}

/// Arguments shared by every figure/table binary: the conventional
/// optional seed plus the workload-image cache directory.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CommonArgs {
    /// Workload data seed (positional; default 7).
    pub seed: Option<u64>,
    /// `--cache-dir PATH`: workload-image cache directory (overrides
    /// `MOM3D_WORKLOAD_CACHE`).
    pub cache_dir: Option<PathBuf>,
}

impl CommonArgs {
    /// The seed to use.
    pub fn seed(&self) -> u64 {
        self.seed.unwrap_or(7)
    }

    /// Effective workload-image cache (see [`AllArgs::cache`]).
    pub fn cache(&self) -> Option<WorkloadCache> {
        WorkloadCache::resolve(self.cache_dir.as_deref())
    }
}

/// Usage string for the shared figure/table grammar.
pub const COMMON_USAGE: &str = "usage: <binary> [SEED] [--cache-dir PATH]";

/// Parses the shared `[SEED] [--cache-dir PATH]` grammar (without the
/// program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown flags, missing flag
/// values, malformed seeds and duplicate positional seeds.
pub fn parse_common_args<I>(args: I) -> Result<CommonArgs, String>
where
    I: IntoIterator<Item = String>,
{
    let mut parsed = CommonArgs::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cache-dir" => {
                let v = it.next().ok_or("--cache-dir needs a path")?;
                parsed.cache_dir = Some(PathBuf::from(v));
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag {flag:?}"));
            }
            positional => {
                if parsed.seed.is_some() {
                    return Err(format!("unexpected second positional argument {positional:?}"));
                }
                let seed: u64 = positional
                    .parse()
                    .map_err(|_| format!("seed {positional:?}: not an integer"))?;
                parsed.seed = Some(seed);
            }
        }
    }
    Ok(parsed)
}

/// Parsed `mom3d-shard` arguments.
#[derive(Debug, Clone)]
pub struct ShardArgs {
    /// Everything [`crate::shard::coordinate`] needs.
    pub config: ShardConfig,
    /// `--grid extended`: sweep every registered backend
    /// ([`crate::sweep::extended_grid`]) instead of the paper grid.
    pub extended: bool,
    /// `--tcp ADDR | --unix PATH` (default: TCP with a kernel-assigned
    /// port).
    pub endpoint: Option<Endpoint>,
    /// `--json PATH`: merged-report path (overrides `MOM3D_SWEEP_JSON`).
    pub json: Option<PathBuf>,
}

impl ShardArgs {
    /// Effective endpoint: the flag, else loopback TCP on a
    /// kernel-assigned port (the readiness line reports the resolved
    /// address).
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint.clone().unwrap_or_else(|| Endpoint::Tcp("127.0.0.1:0".into()))
    }

    /// Effective JSON path: the flag, else the environment/default.
    pub fn json_path(&self) -> PathBuf {
        self.json.clone().unwrap_or_else(crate::sweep::json_path_from_env)
    }
}

/// Usage string printed on `mom3d-shard` parse errors.
pub const SHARD_USAGE: &str = "usage: mom3d-shard [SEED] [--workers N] [--worker-threads N] \
                               [--batch N] [--grid full|extended] [--small] [--manifest PATH] \
                               [--resume] [--json PATH] [--cache-dir PATH] \
                               [--tcp ADDR | --unix PATH] \
                               [--chaos-seed N] [--chaos-profile P]";

/// Parses the `mom3d-shard` arguments (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown flags, missing or
/// malformed values, duplicate endpoints/seeds, an unknown `--grid`
/// name, and `--resume` without `--manifest`.
pub fn parse_shard_args<I>(args: I) -> Result<ShardArgs, String>
where
    I: IntoIterator<Item = String>,
{
    let mut config = ShardConfig::default();
    let mut parsed =
        ShardArgs { config: ShardConfig::default(), extended: false, endpoint: None, json: None };
    let mut seed: Option<u64> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut chaos_profile: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                config.workers =
                    v.parse().map_err(|_| format!("--workers {v:?}: not an integer"))?;
            }
            "--worker-threads" => {
                let v = it.next().ok_or("--worker-threads needs a value")?;
                config.worker_threads =
                    v.parse().map_err(|_| format!("--worker-threads {v:?}: not an integer"))?;
            }
            "--batch" => {
                let v = it.next().ok_or("--batch needs a value")?;
                config.batch = v.parse().map_err(|_| format!("--batch {v:?}: not an integer"))?;
            }
            "--grid" => {
                let v = it.next().ok_or("--grid needs full|extended")?;
                parsed.extended = match v.as_str() {
                    "full" => false,
                    "extended" => true,
                    other => return Err(format!("--grid {other:?}: expected full or extended")),
                };
            }
            "--small" => config.small = true,
            "--manifest" => {
                let v = it.next().ok_or("--manifest needs a path")?;
                config.manifest = Some(PathBuf::from(v));
            }
            "--resume" => config.resume = true,
            "--json" => {
                let v = it.next().ok_or("--json needs a path")?;
                parsed.json = Some(PathBuf::from(v));
            }
            "--cache-dir" => {
                let v = it.next().ok_or("--cache-dir needs a path")?;
                config.cache_dir = Some(PathBuf::from(v));
            }
            flag @ ("--tcp" | "--unix") => set_endpoint(&mut parsed.endpoint, flag, &mut it)?,
            "--chaos-seed" => {
                let v = it.next().ok_or("--chaos-seed needs a value")?;
                chaos_seed =
                    Some(v.parse().map_err(|_| format!("--chaos-seed {v:?}: not an integer"))?);
            }
            "--chaos-profile" => {
                chaos_profile = Some(it.next().ok_or("--chaos-profile needs a profile")?);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            positional => {
                if seed.is_some() {
                    return Err(format!("unexpected second positional argument {positional:?}"));
                }
                seed = Some(
                    positional
                        .parse()
                        .map_err(|_| format!("seed {positional:?}: not an integer"))?,
                );
            }
        }
    }
    if config.resume && config.manifest.is_none() {
        return Err("--resume requires --manifest PATH (there is nothing to resume from)".into());
    }
    config.seed = seed.unwrap_or(7);
    config.chaos = ChaosConfig::from_cli(chaos_seed, chaos_profile.as_deref())?;
    parsed.config = config;
    Ok(parsed)
}

/// Parsed `mom3d-shard-worker` arguments.
#[derive(Debug, Clone)]
pub struct ShardWorkerArgs {
    /// The coordinator's address (mandatory — a worker without one has
    /// nothing to do).
    pub endpoint: Endpoint,
    /// Everything [`crate::shard::run_worker`] needs.
    pub config: WorkerConfig,
}

/// Usage string printed on `mom3d-shard-worker` parse errors.
pub const SHARD_WORKER_USAGE: &str = "usage: mom3d-shard-worker (--tcp ADDR | --unix PATH) \
                                      [--id N] [--threads N] [--cache-dir PATH] \
                                      [--abort-after N]";

/// Parses the `mom3d-shard-worker` arguments (without the program
/// name).
///
/// # Errors
///
/// Returns a human-readable message for unknown flags, missing or
/// malformed values, and a missing endpoint.
pub fn parse_shard_worker_args<I>(args: I) -> Result<ShardWorkerArgs, String>
where
    I: IntoIterator<Item = String>,
{
    let mut endpoint: Option<Endpoint> = None;
    let mut config = WorkerConfig::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            flag @ ("--tcp" | "--unix") => set_endpoint(&mut endpoint, flag, &mut it)?,
            "--id" => {
                let v = it.next().ok_or("--id needs a value")?;
                config.id = v.parse().map_err(|_| format!("--id {v:?}: not an integer"))?;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                config.threads =
                    v.parse().map_err(|_| format!("--threads {v:?}: not an integer"))?;
            }
            "--cache-dir" => {
                let v = it.next().ok_or("--cache-dir needs a path")?;
                config.cache_dir = Some(PathBuf::from(v));
            }
            "--abort-after" => {
                let v = it.next().ok_or("--abort-after needs a value")?;
                config.abort_after =
                    Some(v.parse().map_err(|_| format!("--abort-after {v:?}: not an integer"))?);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            positional => {
                return Err(format!("unexpected positional argument {positional:?}"));
            }
        }
    }
    let endpoint = endpoint.ok_or("a worker needs --tcp ADDR or --unix PATH")?;
    Ok(ShardWorkerArgs { endpoint, config })
}

/// Parsed `mom3d-tune` arguments.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TuneArgs {
    /// Workload data seed (positional; default 7).
    pub seed: Option<u64>,
    /// `--tune-seed N`: search seed (default: the data seed).
    pub tune_seed: Option<u64>,
    /// `--budget N`: max fresh evaluations per `(workload, family)`.
    pub budget: Option<usize>,
    /// `--smoke`: reduced geometry + tiny budget (the CI configuration).
    pub smoke: bool,
    /// `--small`: reduced-geometry workloads at the normal budget.
    pub small: bool,
    /// `--threads N`: local sweep worker count.
    pub threads: Option<usize>,
    /// `--json PATH`: report path (default `BENCH_tune.json`).
    pub json: Option<PathBuf>,
    /// `--backend ID`: restrict the search to one family.
    pub backend: Option<String>,
    /// `--params K=V,...`: baseline overrides for the `--backend`
    /// family (malformed values warn and fall back, never panic).
    pub params: Option<String>,
    /// `--cache-dir PATH`: workload-image cache directory.
    pub cache_dir: Option<PathBuf>,
    /// `--coordinator ADDR`: evaluate on a resident `mom3d-serve`
    /// (an ADDR containing `/` is a unix socket path, else TCP).
    pub coordinator: Option<Endpoint>,
}

impl TuneArgs {
    /// The data seed to use.
    pub fn seed(&self) -> u64 {
        self.seed.unwrap_or(7)
    }

    /// Effective worker count (see [`AllArgs::threads`]).
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or_else(crate::sweep::threads_from_env)
    }

    /// Effective JSON path.
    pub fn json_path(&self) -> PathBuf {
        self.json.clone().unwrap_or_else(|| PathBuf::from("BENCH_tune.json"))
    }

    /// Effective workload-image cache (see [`AllArgs::cache`]).
    pub fn cache(&self) -> Option<WorkloadCache> {
        WorkloadCache::resolve(self.cache_dir.as_deref())
    }

    /// The search configuration these arguments describe. `--smoke`
    /// supplies the small-geometry/small-budget defaults; explicit
    /// flags still win over it.
    pub fn tune_config(&self) -> crate::tune::TuneConfig {
        let base = if self.smoke {
            crate::tune::TuneConfig::smoke(self.seed())
        } else {
            crate::tune::TuneConfig { seed: self.seed(), ..Default::default() }
        };
        let start_params = match (&self.backend, &self.params) {
            (Some(backend), Some(raw)) => crate::tune::resolve_start_params(backend, raw),
            _ => Vec::new(),
        };
        crate::tune::TuneConfig {
            tune_seed: self.tune_seed.unwrap_or(self.seed()),
            small: base.small || self.small,
            budget: self.budget.unwrap_or(base.budget),
            backend: self.backend.clone(),
            start_params,
            ..base
        }
    }
}

/// Usage string printed on `mom3d-tune` parse errors.
pub const TUNE_USAGE: &str = "usage: mom3d-tune [SEED] [--tune-seed N] [--budget N] [--smoke] \
                              [--small] [--threads N] [--json PATH] [--backend ID] \
                              [--params K=V,...] [--cache-dir PATH] [--coordinator ADDR]";

/// Parses the `mom3d-tune` arguments (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown flags, missing or
/// malformed flag values, duplicate positional seeds, a zero budget,
/// and `--params` without `--backend`.
pub fn parse_tune_args<I>(args: I) -> Result<TuneArgs, String>
where
    I: IntoIterator<Item = String>,
{
    let mut parsed = TuneArgs::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tune-seed" => {
                let v = it.next().ok_or("--tune-seed needs a value")?;
                parsed.tune_seed =
                    Some(v.parse().map_err(|_| format!("--tune-seed {v:?}: not an integer"))?);
            }
            "--budget" => {
                let v = it.next().ok_or("--budget needs a value")?;
                let n: usize =
                    v.parse().map_err(|_| format!("--budget {v:?}: not an integer"))?;
                if n == 0 {
                    return Err("--budget 0: at least one evaluation per family is needed".into());
                }
                parsed.budget = Some(n);
            }
            "--smoke" => parsed.smoke = true,
            "--small" => parsed.small = true,
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                let n: usize =
                    v.parse().map_err(|_| format!("--threads {v:?}: not an integer"))?;
                if n == 0 {
                    // Same policy as `all --threads 0` (and the
                    // environment variable): warn and fall back.
                    eprintln!(
                        "warning: --threads 0 is not a thread count; \
                         using MOM3D_SWEEP_THREADS or the default"
                    );
                    parsed.threads = None;
                } else {
                    parsed.threads = Some(n);
                }
            }
            "--json" => {
                let v = it.next().ok_or("--json needs a path")?;
                parsed.json = Some(PathBuf::from(v));
            }
            "--backend" => {
                let v = it.next().ok_or("--backend needs a backend id")?;
                parsed.backend = Some(v);
            }
            "--params" => {
                let v = it.next().ok_or("--params needs key=value,...")?;
                parsed.params = Some(v);
            }
            "--cache-dir" => {
                let v = it.next().ok_or("--cache-dir needs a path")?;
                parsed.cache_dir = Some(PathBuf::from(v));
            }
            "--coordinator" => {
                let v = it.next().ok_or("--coordinator needs an address")?;
                let ep = if v.contains('/') {
                    Endpoint::Unix(PathBuf::from(v))
                } else {
                    Endpoint::Tcp(v)
                };
                if parsed.coordinator.is_some() {
                    return Err("at most one --coordinator".into());
                }
                parsed.coordinator = Some(ep);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            positional => {
                if parsed.seed.is_some() {
                    return Err(format!("unexpected second positional argument {positional:?}"));
                }
                parsed.seed = Some(
                    positional
                        .parse()
                        .map_err(|_| format!("seed {positional:?}: not an integer"))?,
                );
            }
        }
    }
    if parsed.params.is_some() && parsed.backend.is_none() {
        return Err("--params requires --backend ID (whose parameters to override)".into());
    }
    Ok(parsed)
}

/// Parses the value of `flag` (`--tcp` or `--unix`) from `it` into
/// `slot`, refusing a second endpoint.
///
/// # Errors
///
/// A missing value, or `at most one of --tcp/--unix`.
pub fn set_endpoint(
    slot: &mut Option<Endpoint>,
    flag: &str,
    it: &mut impl Iterator<Item = String>,
) -> Result<(), String> {
    let ep = if flag == "--tcp" {
        Endpoint::Tcp(it.next().ok_or("--tcp needs an address")?)
    } else {
        Endpoint::Unix(PathBuf::from(it.next().ok_or("--unix needs a path")?))
    };
    if slot.is_some() {
        return Err("at most one of --tcp/--unix".into());
    }
    *slot = Some(ep);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<AllArgs, String> {
        parse_all_args(args.iter().map(|s| s.to_string()))
    }

    fn parse_common(args: &[&str]) -> Result<CommonArgs, String> {
        parse_common_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn empty_is_all_defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a, AllArgs::default());
        assert_eq!(a.seed(), 7);
        assert!(!a.all_backends);
    }

    #[test]
    fn seed_and_flags_in_any_order() {
        let a = parse(&["42", "--threads", "3", "--json", "out.json", "--all-backends"]).unwrap();
        assert_eq!(a.seed(), 42);
        assert_eq!(a.threads, Some(3));
        assert_eq!(a.json, Some(PathBuf::from("out.json")));
        assert!(a.all_backends);
        assert!(!a.small);
        let b = parse(&["--json", "out.json", "--all-backends", "--threads", "3", "42"]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn small_flag_parses() {
        let a = parse(&["--small", "5"]).unwrap();
        assert!(a.small);
        assert_eq!(a.seed(), 5);
    }

    #[test]
    fn flags_win_over_env() {
        // threads() prefers the flag; with no flag it falls back to
        // threads_from_env (>= 1 whatever the environment says).
        let a = parse(&["--threads", "5"]).unwrap();
        assert_eq!(a.threads(), 5);
        let b = parse(&[]).unwrap();
        assert!(b.threads() >= 1);
        let c = parse(&["--json", "x.json"]).unwrap();
        assert_eq!(c.json_path(), PathBuf::from("x.json"));
    }

    #[test]
    fn threads_zero_warns_and_falls_back() {
        // `--threads 0` follows the env-var policy (warn + fall back)
        // instead of erroring: the parse succeeds with no override, and
        // the effective count is the environment/default (>= 1).
        let a = parse(&["--threads", "0"]).unwrap();
        assert_eq!(a.threads, None);
        assert!(a.threads() >= 1);
        // A later valid flag still wins.
        let b = parse(&["--threads", "0", "--threads", "2"]).unwrap();
        assert_eq!(a.seed(), 7);
        assert_eq!(b.threads, Some(2));
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse(&["--threads"]).unwrap_err().contains("--threads"));
        assert!(parse(&["--threads", "zero"]).unwrap_err().contains("not an integer"));
        assert!(parse(&["--frobnicate"]).unwrap_err().contains("unknown flag"));
        assert!(parse(&["7", "8"]).unwrap_err().contains("second positional"));
        assert!(parse(&["sevenish"]).unwrap_err().contains("not an integer"));
        assert!(parse(&["--cache-dir"]).unwrap_err().contains("--cache-dir"));
    }

    #[test]
    fn cache_dir_flag_parses() {
        let a = parse(&["--cache-dir", "images", "3"]).unwrap();
        assert_eq!(a.cache_dir, Some(PathBuf::from("images")));
        assert_eq!(a.seed(), 3);
        assert_eq!(parse(&[]).unwrap().cache_dir, None);
    }

    #[test]
    fn common_args_grammar() {
        assert_eq!(parse_common(&[]).unwrap(), CommonArgs::default());
        assert_eq!(parse_common(&[]).unwrap().seed(), 7);
        let a = parse_common(&["42", "--cache-dir", "imgs"]).unwrap();
        assert_eq!(a.seed(), 42);
        assert_eq!(a.cache_dir, Some(PathBuf::from("imgs")));
        let b = parse_common(&["--cache-dir", "imgs", "42"]).unwrap();
        assert_eq!(a, b, "flag/positional order must not matter");
        assert!(parse_common(&["--cache-dir"]).unwrap_err().contains("--cache-dir"));
        assert!(parse_common(&["--nope"]).unwrap_err().contains("unknown flag"));
        assert!(parse_common(&["1", "2"]).unwrap_err().contains("second positional"));
        assert!(parse_common(&["x"]).unwrap_err().contains("not an integer"));
    }

    fn parse_shard(args: &[&str]) -> Result<ShardArgs, String> {
        parse_shard_args(args.iter().map(|s| s.to_string()))
    }

    fn parse_worker(args: &[&str]) -> Result<ShardWorkerArgs, String> {
        parse_shard_worker_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn shard_defaults_and_full_grammar() {
        let a = parse_shard(&[]).unwrap();
        assert_eq!(a.config.seed, 7);
        assert_eq!(a.config.workers, 2);
        assert_eq!(a.config.batch, 0);
        assert!(!a.extended && !a.config.small && !a.config.resume);
        assert_eq!(a.endpoint(), Endpoint::Tcp("127.0.0.1:0".into()));

        let b = parse_shard(&[
            "42", "--workers", "3", "--worker-threads", "2", "--batch", "5", "--grid", "extended",
            "--small", "--manifest", "m.mwm", "--resume", "--json", "out.json", "--cache-dir",
            "imgs", "--unix", "/tmp/s.sock",
        ])
        .unwrap();
        assert_eq!(b.config.seed, 42);
        assert_eq!(b.config.workers, 3);
        assert_eq!(b.config.worker_threads, 2);
        assert_eq!(b.config.batch, 5);
        assert!(b.extended && b.config.small && b.config.resume);
        assert_eq!(b.config.manifest, Some(PathBuf::from("m.mwm")));
        assert_eq!(b.json_path(), PathBuf::from("out.json"));
        assert_eq!(b.config.cache_dir, Some(PathBuf::from("imgs")));
        assert_eq!(b.endpoint(), Endpoint::Unix(PathBuf::from("/tmp/s.sock")));
    }

    #[test]
    fn shard_chaos_flags_parse_and_default_each_other() {
        assert!(parse_shard(&[]).unwrap().config.chaos.is_none());
        let a = parse_shard(&["--chaos-seed", "9"]).unwrap();
        let chaos = a.config.chaos.expect("one chaos flag arms both");
        assert_eq!(chaos.seed, 9);
        assert!(chaos.profile.any(), "the default profile must inject something");
        let b = parse_shard(&["--chaos-profile", "heavy"]).unwrap();
        assert!(b.config.chaos.is_some());
        assert!(parse_shard(&["--chaos-profile", "bogus"])
            .unwrap_err()
            .contains("unknown chaos class"));
        assert!(parse_shard(&["--chaos-seed", "x"]).unwrap_err().contains("not an integer"));
    }

    #[test]
    fn shard_grammar_errors_are_descriptive() {
        assert!(parse_shard(&["--resume"]).unwrap_err().contains("--manifest"));
        assert!(parse_shard(&["--grid", "tiny"]).unwrap_err().contains("full or extended"));
        assert!(parse_shard(&["--workers", "two"]).unwrap_err().contains("not an integer"));
        assert!(parse_shard(&["--tcp", "a:1", "--unix", "p"])
            .unwrap_err()
            .contains("at most one"));
        assert!(parse_shard(&["--frobnicate"]).unwrap_err().contains("unknown flag"));
        assert!(parse_shard(&["1", "2"]).unwrap_err().contains("second positional"));
    }

    fn parse_tune(args: &[&str]) -> Result<TuneArgs, String> {
        parse_tune_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn tune_defaults_and_full_grammar() {
        let a = parse_tune(&[]).unwrap();
        assert_eq!(a, TuneArgs::default());
        assert_eq!(a.seed(), 7);
        assert_eq!(a.json_path(), PathBuf::from("BENCH_tune.json"));
        let cfg = a.tune_config();
        assert_eq!((cfg.seed, cfg.tune_seed, cfg.small, cfg.budget), (7, 7, false, 60));
        assert_eq!(cfg.l2_latencies, vec![20, 40, 60]);

        let b = parse_tune(&[
            "42", "--tune-seed", "9", "--budget", "5", "--small", "--threads", "3", "--json",
            "t.json", "--backend", "dram-burst", "--params", "row=512", "--cache-dir", "imgs",
            "--coordinator", "127.0.0.1:9000",
        ])
        .unwrap();
        assert_eq!(b.seed(), 42);
        assert_eq!(b.json_path(), PathBuf::from("t.json"));
        assert_eq!(b.coordinator, Some(Endpoint::Tcp("127.0.0.1:9000".into())));
        let cfg = b.tune_config();
        assert_eq!((cfg.seed, cfg.tune_seed, cfg.small, cfg.budget), (42, 9, true, 5));
        assert_eq!(cfg.backend.as_deref(), Some("dram-burst"));
        assert_eq!(cfg.start_params, vec![("row", 512)]);
    }

    #[test]
    fn tune_smoke_and_coordinator_forms() {
        let a = parse_tune(&["--smoke", "3"]).unwrap();
        let cfg = a.tune_config();
        assert!(cfg.small);
        assert_eq!((cfg.seed, cfg.budget), (3, 12));
        // Explicit flags still win over the smoke defaults.
        let b = parse_tune(&["--smoke", "3", "--budget", "2"]).unwrap();
        assert_eq!(b.tune_config().budget, 2);
        // A slash means a unix socket path.
        let c = parse_tune(&["--coordinator", "/tmp/serve.sock"]).unwrap();
        assert_eq!(c.coordinator, Some(Endpoint::Unix(PathBuf::from("/tmp/serve.sock"))));
    }

    #[test]
    fn tune_grammar_errors_are_descriptive() {
        assert!(parse_tune(&["--params", "row=512"]).unwrap_err().contains("--backend"));
        assert!(parse_tune(&["--budget", "0"]).unwrap_err().contains("--budget 0"));
        assert!(parse_tune(&["--budget", "lots"]).unwrap_err().contains("not an integer"));
        assert!(parse_tune(&["--tune-seed"]).unwrap_err().contains("--tune-seed"));
        assert!(parse_tune(&["--frobnicate"]).unwrap_err().contains("unknown flag"));
        assert!(parse_tune(&["1", "2"]).unwrap_err().contains("second positional"));
        assert!(parse_tune(&["--coordinator", "a:1", "--coordinator", "b:2"])
            .unwrap_err()
            .contains("at most one"));
        // --threads 0 warns and falls back instead of erroring.
        let a = parse_tune(&["--threads", "0"]).unwrap();
        assert_eq!(a.threads, None);
        assert!(a.threads() >= 1);
        // A malformed --params value does not fail the parse: it warns
        // at resolution time and falls back to the family defaults.
        let b = parse_tune(&["--backend", "dram-burst", "--params", "bogus=1"]).unwrap();
        assert_eq!(b.tune_config().start_params, Vec::new());
    }

    #[test]
    fn shard_worker_grammar() {
        let a = parse_worker(&["--tcp", "127.0.0.1:7", "--id", "3", "--threads", "2",
            "--cache-dir", "imgs", "--abort-after", "4"])
        .unwrap();
        assert_eq!(a.endpoint, Endpoint::Tcp("127.0.0.1:7".into()));
        assert_eq!(a.config.id, 3);
        assert_eq!(a.config.threads, 2);
        assert_eq!(a.config.cache_dir, Some(PathBuf::from("imgs")));
        assert_eq!(a.config.abort_after, Some(4));

        // The endpoint is mandatory; everything else defaults.
        let b = parse_worker(&["--unix", "/tmp/s.sock"]).unwrap();
        assert_eq!(b.config.id, 0);
        assert_eq!(b.config.abort_after, None);
        assert!(parse_worker(&[]).unwrap_err().contains("--tcp ADDR or --unix PATH"));
        assert!(parse_worker(&["--tcp"]).unwrap_err().contains("--tcp"));
        assert!(parse_worker(&["--tcp", "a:1", "7"]).unwrap_err().contains("positional"));
        assert!(parse_worker(&["--tcp", "a:1", "--id", "x"])
            .unwrap_err()
            .contains("not an integer"));
    }
}
