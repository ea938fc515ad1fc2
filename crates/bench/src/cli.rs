//! Argument parsing for every experiment binary.
//!
//! Each grammar is a table of rows read by one parser. A row holds a
//! flag's name, the noun its "`--x` needs …" error asks for (none for a
//! bare switch, which takes no value) and a setter that stores the
//! value. The parser owns what every grammar repeats: fetching values,
//! the `unknown flag` error, the optional positional seed and its
//! errors. The setters share the `not an integer` wording through one
//! helper. Fields several grammars have in common (the seed, the
//! `--tcp`/`--unix` endpoint, `--cache-dir`, `--threads` and the
//! `--chaos-seed`/`--chaos-profile` pair) are staged in a holder until
//! the table has run, so each grammar's `parse_*_args` ends with the few
//! checks that span fields, such as `--resume` needing `--manifest`.
//!
//! Flags are the only settings: no environment variable stands in for
//! one. Binaries call [`parse_or_exit`], which prints the error and the
//! grammar's usage string and exits with status 2.

use crate::cache::WorkloadCache;
use crate::faults::ChaosConfig;
use crate::load::LoadConfig;
use crate::protocol::Endpoint;
use crate::serve::ServeConfig;
use crate::shard::{ShardConfig, WorkerConfig};
use std::path::PathBuf;
use std::str::FromStr;

/// Parses this process's arguments (without the program name) with
/// `parse`. On an error it prints the message and `usage` on stderr and
/// exits with status 2.
pub fn parse_or_exit<T>(
    parse: impl FnOnce(std::iter::Skip<std::env::Args>) -> Result<T, String>,
    usage: &str,
) -> T {
    parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{usage}");
        std::process::exit(2)
    })
}

/// One grammar row: the flag, the noun its "needs" error asks for
/// (`None` for a switch) and the setter, called with the holder, the
/// flag and its value (empty for a switch).
type Flag<T> = (&'static str, Option<&'static str>, fn(&mut Staged<T>, &str, &str) -> SetResult);

/// A setter's result: `Err` is the message printed above the usage.
type SetResult = Result<(), String>;

/// Whether a grammar takes the conventional positional seed.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Positional {
    Seed,
    Refused,
}

/// The parse state: the grammar's own fields plus the ones several
/// grammars share, which wait here until the table has run.
#[derive(Default)]
struct Staged<T> {
    args: T,
    seed: Option<u64>,
    endpoint: Option<Endpoint>,
    cache_dir: Option<PathBuf>,
    threads: Option<usize>,
    chaos_seed: Option<u64>,
    chaos_profile: Option<String>,
}

impl<T> Staged<T> {
    /// The chaos pair, each flag defaulting the other.
    fn chaos(&self) -> Result<Option<ChaosConfig>, String> {
        ChaosConfig::from_cli(self.chaos_seed, self.chaos_profile.as_deref())
    }
}

/// The one parser: runs `args` over the `flags` table.
fn parse_grammar<T: Default>(
    args: impl IntoIterator<Item = String>,
    positional: Positional,
    flags: &[Flag<T>],
) -> Result<Staged<T>, String> {
    let mut staged = Staged::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if let Some(&(name, needs, store)) = flags.iter().find(|row| row.0 == arg) {
            let value = match needs {
                Some(noun) => it.next().ok_or_else(|| format!("{name} needs {noun}"))?,
                None => String::new(),
            };
            store(&mut staged, name, &value)?;
        } else if arg.starts_with('-') {
            return Err(format!("unknown flag {arg:?}"));
        } else if positional == Positional::Refused {
            return Err(format!("unexpected positional argument {arg:?}"));
        } else if staged.seed.is_some() {
            return Err(format!("unexpected second positional argument {arg:?}"));
        } else {
            staged.seed = Some(int("seed", &arg)?);
        }
    }
    Ok(staged)
}

fn set<V>(slot: &mut V, value: V) -> SetResult {
    *slot = value;
    Ok(())
}

/// Fills `slot` once; a second value is the error `twice`.
fn once<V>(slot: &mut Option<V>, value: V, twice: &str) -> SetResult {
    if slot.is_some() {
        return Err(twice.into());
    }
    set(slot, Some(value))
}

fn int<N: FromStr>(flag: &str, value: &str) -> Result<N, String> {
    value.parse().map_err(|_| format!("{flag} {value:?}: not an integer"))
}

/// An integer that must not be zero; `why` ends the `--x 0: …` error.
fn nonzero(flag: &str, value: &str, why: &str) -> Result<usize, String> {
    match int(flag, value)? {
        0 => Err(format!("{flag} 0: {why}")),
        n => Ok(n),
    }
}

fn cache_dir<T>() -> Flag<T> {
    ("--cache-dir", Some("a path"), |s, _, v| set(&mut s.cache_dir, Some(v.into())))
}

/// `--threads N`, one rule for every binary: zero is not a thread
/// count, so it warns and leaves the binary's default (every core) in
/// place.
fn threads<T>() -> Flag<T> {
    ("--threads", Some("a value"), |s, f, v| {
        let n = int(f, v)?;
        if n == 0 {
            eprintln!("warning: --threads 0 is not a thread count; using the default");
        }
        set(&mut s.threads, (n > 0).then_some(n))
    })
}

const TWO_ENDPOINTS: &str = "at most one of --tcp/--unix";

fn tcp<T>() -> Flag<T> {
    ("--tcp", Some("an address"), |s, _, v| {
        once(&mut s.endpoint, Endpoint::Tcp(v.into()), TWO_ENDPOINTS)
    })
}

fn unix<T>() -> Flag<T> {
    ("--unix", Some("a path"), |s, _, v| {
        once(&mut s.endpoint, Endpoint::Unix(v.into()), TWO_ENDPOINTS)
    })
}

fn chaos_seed<T>() -> Flag<T> {
    ("--chaos-seed", Some("a value"), |s, f, v| set(&mut s.chaos_seed, Some(int(f, v)?)))
}

fn chaos_profile<T>() -> Flag<T> {
    ("--chaos-profile", Some("a profile"), |s, _, v| set(&mut s.chaos_profile, Some(v.into())))
}

/// Parsed `all` arguments.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AllArgs {
    /// Workload data seed (positional; default 7).
    pub seed: Option<u64>,
    /// `--threads N`: sweep worker count.
    pub threads: Option<usize>,
    /// `--json PATH`: sweep report path.
    pub json: Option<PathBuf>,
    /// `--all-backends`: sweep and report every registered backend, not
    /// just the four paper organizations.
    pub all_backends: bool,
    /// `--small`: sweep reduced-geometry workloads (the integration-test
    /// geometry) — a fast smoke of the whole pipeline, e.g. for CI
    /// schema checks of `BENCH_sweep.json`.
    pub small: bool,
    /// `--cache-dir PATH`: workload-image cache directory.
    pub cache_dir: Option<PathBuf>,
}

impl AllArgs {
    /// The seed to use.
    pub fn seed(&self) -> u64 {
        self.seed.unwrap_or(7)
    }

    /// Effective worker count: the flag, else every core
    /// ([`crate::sweep::default_threads`]).
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or_else(crate::sweep::default_threads)
    }

    /// Effective JSON path: the flag, else `BENCH_sweep.json`.
    pub fn json_path(&self) -> PathBuf {
        self.json.clone().unwrap_or_else(|| PathBuf::from(SWEEP_JSON))
    }

    /// Effective workload-image cache: the `--cache-dir` flag, else
    /// none. An unusable directory degrades to no-cache with a warning
    /// (see [`WorkloadCache::open`]).
    pub fn cache(&self) -> Option<WorkloadCache> {
        self.cache_dir.as_deref().and_then(WorkloadCache::open)
    }
}

/// The sweep report's path when `--json` is not given.
const SWEEP_JSON: &str = "BENCH_sweep.json";

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
    let s = parse_grammar::<AllArgs>(args, Positional::Seed, &[
        threads(),
        cache_dir(),
        ("--json", Some("a path"), |s, _, v| set(&mut s.args.json, Some(v.into()))),
        ("--all-backends", None, |s, _, _| set(&mut s.args.all_backends, true)),
        ("--small", None, |s, _, _| set(&mut s.args.small, true)),
    ])?;
    Ok(AllArgs { seed: s.seed, threads: s.threads, cache_dir: s.cache_dir, ..s.args })
}

/// The `ablation` arguments: the conventional optional seed plus the
/// workload-image cache directory.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AblationArgs {
    /// Workload data seed (positional; default 7).
    pub seed: Option<u64>,
    /// `--cache-dir PATH`: workload-image cache directory.
    pub cache_dir: Option<PathBuf>,
}

impl AblationArgs {
    /// The seed to use.
    pub fn seed(&self) -> u64 {
        self.seed.unwrap_or(7)
    }

    /// Effective workload-image cache (see [`AllArgs::cache`]).
    pub fn cache(&self) -> Option<WorkloadCache> {
        self.cache_dir.as_deref().and_then(WorkloadCache::open)
    }
}

/// Usage string for the `ablation` grammar.
pub const ABLATION_USAGE: &str = "usage: ablation [SEED] [--cache-dir PATH]";

/// Parses the `[SEED] [--cache-dir PATH]` grammar of `ablation`
/// (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown flags, missing flag
/// values, malformed seeds and duplicate positional seeds.
pub fn parse_ablation_args<I>(args: I) -> Result<AblationArgs, String>
where
    I: IntoIterator<Item = String>,
{
    let s = parse_grammar::<()>(args, Positional::Seed, &[cache_dir()])?;
    Ok(AblationArgs { seed: s.seed, cache_dir: s.cache_dir })
}

/// Parsed `mom3d-shard` arguments.
#[derive(Debug, Clone, Default)]
pub struct ShardArgs {
    /// Everything [`crate::shard::coordinate`] needs.
    pub config: ShardConfig,
    /// `--grid extended`: sweep every registered backend
    /// ([`crate::sweep::extended_grid`]) instead of the paper grid.
    pub extended: bool,
    /// `--tcp ADDR | --unix PATH` (default: TCP with a kernel-assigned
    /// port).
    pub endpoint: Option<Endpoint>,
    /// `--json PATH`: merged-report path.
    pub json: Option<PathBuf>,
}

impl ShardArgs {
    /// Effective endpoint: the flag, else loopback TCP on a
    /// kernel-assigned port (the readiness line reports the resolved
    /// address).
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint.clone().unwrap_or_else(|| Endpoint::Tcp("127.0.0.1:0".into()))
    }

    /// Effective JSON path: the flag, else `BENCH_sweep.json`.
    pub fn json_path(&self) -> PathBuf {
        self.json.clone().unwrap_or_else(|| PathBuf::from(SWEEP_JSON))
    }
}

/// Usage string printed on `mom3d-shard` parse errors.
pub const SHARD_USAGE: &str = "usage: mom3d-shard [SEED] [--workers N] [--batch N] \
                               [--grid full|extended] [--small] [--manifest PATH] \
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
    let s = parse_grammar::<ShardArgs>(args, Positional::Seed, &[
        ("--workers", Some("a value"), |s, f, v| set(&mut s.args.config.workers, int(f, v)?)),
        ("--batch", Some("a value"), |s, f, v| set(&mut s.args.config.batch, int(f, v)?)),
        ("--grid", Some("full|extended"), |s, _, v| match v {
            "full" | "extended" => set(&mut s.args.extended, v == "extended"),
            other => Err(format!("--grid {other:?}: expected full or extended")),
        }),
        ("--small", None, |s, _, _| set(&mut s.args.config.small, true)),
        ("--manifest", Some("a path"), |s, _, v| {
            set(&mut s.args.config.manifest, Some(v.into()))
        }),
        ("--resume", None, |s, _, _| set(&mut s.args.config.resume, true)),
        ("--json", Some("a path"), |s, _, v| set(&mut s.args.json, Some(v.into()))),
        cache_dir(),
        tcp(),
        unix(),
        chaos_seed(),
        chaos_profile(),
    ])?;
    if s.args.config.resume && s.args.config.manifest.is_none() {
        return Err("--resume requires --manifest PATH (there is nothing to resume from)".into());
    }
    let chaos = s.chaos()?;
    let config =
        ShardConfig { seed: s.seed.unwrap_or(7), cache_dir: s.cache_dir, chaos, ..s.args.config };
    Ok(ShardArgs { config, endpoint: s.endpoint, ..s.args })
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
                                      [--id N] [--cache-dir PATH] [--abort-after N]";

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
    let s = parse_grammar::<WorkerConfig>(args, Positional::Refused, &[
        tcp(),
        unix(),
        ("--id", Some("a value"), |s, f, v| set(&mut s.args.id, int(f, v)?)),
        cache_dir(),
        ("--abort-after", Some("a value"), |s, f, v| {
            set(&mut s.args.abort_after, Some(int(f, v)?))
        }),
    ])?;
    let endpoint = s.endpoint.ok_or("a worker needs --tcp ADDR or --unix PATH")?;
    let config = WorkerConfig { cache_dir: s.cache_dir, ..s.args };
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
        self.threads.unwrap_or_else(crate::sweep::default_threads)
    }

    /// Effective JSON path.
    pub fn json_path(&self) -> PathBuf {
        self.json.clone().unwrap_or_else(|| PathBuf::from("BENCH_tune.json"))
    }

    /// Effective workload-image cache (see [`AllArgs::cache`]).
    pub fn cache(&self) -> Option<WorkloadCache> {
        self.cache_dir.as_deref().and_then(WorkloadCache::open)
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
    let s = parse_grammar::<TuneArgs>(args, Positional::Seed, &[
        ("--tune-seed", Some("a value"), |s, f, v| set(&mut s.args.tune_seed, Some(int(f, v)?))),
        ("--budget", Some("a value"), |s, f, v| {
            let n = nonzero(f, v, "at least one evaluation per family is needed")?;
            set(&mut s.args.budget, Some(n))
        }),
        ("--smoke", None, |s, _, _| set(&mut s.args.smoke, true)),
        ("--small", None, |s, _, _| set(&mut s.args.small, true)),
        threads(),
        ("--json", Some("a path"), |s, _, v| set(&mut s.args.json, Some(v.into()))),
        ("--backend", Some("a backend id"), |s, _, v| set(&mut s.args.backend, Some(v.into()))),
        ("--params", Some("key=value,..."), |s, _, v| set(&mut s.args.params, Some(v.into()))),
        cache_dir(),
        ("--coordinator", Some("an address"), |s, _, v| {
            let ep =
                if v.contains('/') { Endpoint::Unix(v.into()) } else { Endpoint::Tcp(v.into()) };
            once(&mut s.args.coordinator, ep, "at most one --coordinator")
        }),
    ])?;
    if s.args.params.is_some() && s.args.backend.is_none() {
        return Err("--params requires --backend ID (whose parameters to override)".into());
    }
    Ok(TuneArgs { seed: s.seed, threads: s.threads, cache_dir: s.cache_dir, ..s.args })
}

/// Parsed `mom3d-serve` arguments.
#[derive(Debug)]
pub struct ServeArgs {
    /// `--tcp ADDR | --unix PATH` (default `--tcp 127.0.0.1:7733`).
    pub endpoint: Endpoint,
    /// Everything [`crate::serve::serve`] needs, the workload-image
    /// cache already resolved.
    pub config: ServeConfig,
}

/// Usage string printed on `mom3d-serve` parse errors.
pub const SERVE_USAGE: &str = "usage: mom3d-serve [SEED] [--tcp ADDR | --unix PATH] [--small] \
                               [--threads N] [--cache-dir PATH] [--prebuild] \
                               [--chaos-seed N] [--chaos-profile P]";

/// Parses the `mom3d-serve` arguments (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown flags, missing or
/// malformed values, duplicate endpoints/seeds and an unknown chaos
/// profile.
pub fn parse_serve_args<I>(args: I) -> Result<ServeArgs, String>
where
    I: IntoIterator<Item = String>,
{
    let s = parse_grammar::<ServeConfig>(args, Positional::Seed, &[
        tcp(),
        unix(),
        ("--small", None, |s, _, _| set(&mut s.args.small, true)),
        ("--prebuild", None, |s, _, _| set(&mut s.args.prebuild, true)),
        threads(),
        cache_dir(),
        chaos_seed(),
        chaos_profile(),
    ])?;
    let config = ServeConfig {
        seed: s.seed.unwrap_or(7),
        threads: s.threads.unwrap_or(0),
        cache: s.cache_dir.as_deref().and_then(WorkloadCache::open),
        chaos: s.chaos()?,
        ..s.args
    };
    let endpoint = s.endpoint.unwrap_or_else(|| Endpoint::Tcp("127.0.0.1:7733".into()));
    Ok(ServeArgs { endpoint, config })
}

/// Parsed `mom3d-load` arguments.
#[derive(Debug, Clone)]
pub struct LoadArgs {
    /// The load run: the `--smoke` or default preset with the explicit
    /// flags applied over it.
    pub config: LoadConfig,
    /// `--json PATH`: report path (default `BENCH_serve.json`).
    pub json: PathBuf,
    /// `--stop`: send `SHUTDOWN` to the server after the run.
    pub stop: bool,
}

/// Usage string printed on `mom3d-load` parse errors.
pub const LOAD_USAGE: &str = "usage: mom3d-load (--tcp ADDR | --unix PATH) [--clients N] \
                              [--requests N] [--mix-seed N] [--smoke] [--no-verify] \
                              [--json PATH] [--stop] [--chaos-seed N] [--chaos-profile P]";

/// The `mom3d-load` flags as given, before the preset is chosen.
#[derive(Default)]
struct LoadFlags {
    smoke: bool,
    clients: Option<usize>,
    requests: Option<usize>,
    mix_seed: Option<u64>,
    no_verify: bool,
    json: Option<PathBuf>,
    stop: bool,
}

/// Parses the `mom3d-load` arguments (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown flags, missing or
/// malformed values, zero clients or requests, a missing endpoint and
/// an unknown chaos profile.
pub fn parse_load_args<I>(args: I) -> Result<LoadArgs, String>
where
    I: IntoIterator<Item = String>,
{
    const AT_LEAST_ONE: &str = "must be at least 1";
    let mut s = parse_grammar::<LoadFlags>(args, Positional::Refused, &[
        tcp(),
        unix(),
        ("--smoke", None, |s, _, _| set(&mut s.args.smoke, true)),
        ("--no-verify", None, |s, _, _| set(&mut s.args.no_verify, true)),
        ("--stop", None, |s, _, _| set(&mut s.args.stop, true)),
        ("--clients", Some("a value"), |s, f, v| {
            set(&mut s.args.clients, Some(nonzero(f, v, AT_LEAST_ONE)?))
        }),
        ("--requests", Some("a value"), |s, f, v| {
            set(&mut s.args.requests, Some(nonzero(f, v, AT_LEAST_ONE)?))
        }),
        ("--mix-seed", Some("a value"), |s, f, v| set(&mut s.args.mix_seed, Some(int(f, v)?))),
        ("--json", Some("a path"), |s, _, v| set(&mut s.args.json, Some(v.into()))),
        chaos_seed(),
        chaos_profile(),
    ])?;
    let endpoint =
        s.endpoint.take().ok_or("an endpoint is required (--tcp ADDR or --unix PATH)")?;
    let chaos = s.chaos()?;
    let flags = s.args;
    let preset =
        if flags.smoke { LoadConfig::smoke(endpoint) } else { LoadConfig::bench(endpoint) };
    let config = LoadConfig {
        clients: flags.clients.unwrap_or(preset.clients),
        requests_per_client: flags.requests.unwrap_or(preset.requests_per_client),
        mix_seed: flags.mix_seed.unwrap_or(preset.mix_seed),
        verify: !flags.no_verify,
        chaos,
        ..preset
    };
    let json = flags.json.unwrap_or_else(|| PathBuf::from("BENCH_serve.json"));
    Ok(LoadArgs { config, json, stop: flags.stop })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<AllArgs, String> {
        parse_all_args(args.iter().map(|s| s.to_string()))
    }

    fn parse_ablation(args: &[&str]) -> Result<AblationArgs, String> {
        parse_ablation_args(args.iter().map(|s| s.to_string()))
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
    fn flags_win_over_defaults() {
        let a = parse(&["--threads", "5"]).unwrap();
        assert_eq!(a.threads(), 5);
        let b = parse(&[]).unwrap();
        assert_eq!(b.threads(), crate::sweep::default_threads());
        assert_eq!(b.json_path(), PathBuf::from("BENCH_sweep.json"));
        let c = parse(&["--json", "x.json"]).unwrap();
        assert_eq!(c.json_path(), PathBuf::from("x.json"));
    }

    #[test]
    fn threads_zero_warns_and_falls_back() {
        // `--threads 0` warns and falls back instead of erroring: the
        // parse succeeds with no override, and the effective count is
        // the default (>= 1).
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
    fn ablation_grammar() {
        assert_eq!(parse_ablation(&[]).unwrap(), AblationArgs::default());
        assert_eq!(parse_ablation(&[]).unwrap().seed(), 7);
        let a = parse_ablation(&["42", "--cache-dir", "imgs"]).unwrap();
        assert_eq!(a.seed(), 42);
        assert_eq!(a.cache_dir, Some(PathBuf::from("imgs")));
        let b = parse_ablation(&["--cache-dir", "imgs", "42"]).unwrap();
        assert_eq!(a, b, "flag/positional order must not matter");
        assert!(parse_ablation(&["--cache-dir"]).unwrap_err().contains("--cache-dir"));
        assert!(parse_ablation(&["--nope"]).unwrap_err().contains("unknown flag"));
        assert!(parse_ablation(&["1", "2"]).unwrap_err().contains("second positional"));
        assert!(parse_ablation(&["x"]).unwrap_err().contains("not an integer"));
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
            "42", "--workers", "3", "--batch", "5", "--grid", "extended",
            "--small", "--manifest", "m.mwm", "--resume", "--json", "out.json", "--cache-dir",
            "imgs", "--unix", "/tmp/s.sock",
        ])
        .unwrap();
        assert_eq!(b.config.seed, 42);
        assert_eq!(b.config.workers, 3);
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
        let a = parse_worker(&["--tcp", "127.0.0.1:7", "--id", "3", "--cache-dir", "imgs",
            "--abort-after", "4"])
        .unwrap();
        assert_eq!(a.endpoint, Endpoint::Tcp("127.0.0.1:7".into()));
        assert_eq!(a.config.id, 3);
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

    fn parse_serve(args: &[&str]) -> Result<ServeArgs, String> {
        parse_serve_args(args.iter().map(|s| s.to_string()))
    }

    fn parse_load(args: &[&str]) -> Result<LoadArgs, String> {
        parse_load_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn serve_defaults_and_full_grammar() {
        let a = parse_serve(&[]).unwrap();
        assert_eq!(a.endpoint, Endpoint::Tcp("127.0.0.1:7733".into()));
        assert_eq!(a.config.seed, 7);
        assert_eq!(a.config.threads, 0, "0 is the serve default: every core");
        assert!(!a.config.small && !a.config.prebuild && a.config.chaos.is_none());

        let b = parse_serve(&["42", "--unix", "/tmp/s.sock", "--small", "--prebuild",
            "--threads", "3"])
        .unwrap();
        assert_eq!(b.endpoint, Endpoint::Unix(PathBuf::from("/tmp/s.sock")));
        assert_eq!((b.config.seed, b.config.threads), (42, 3));
        assert!(b.config.small && b.config.prebuild);

        // --threads 0 warns and keeps the default.
        assert_eq!(parse_serve(&["--threads", "0"]).unwrap().config.threads, 0);
        assert!(parse_serve(&["--tcp", "a:1", "--unix", "p"])
            .unwrap_err()
            .contains("at most one of --tcp/--unix"));
        assert!(parse_serve(&["--frobnicate"]).unwrap_err().contains("unknown flag"));
        assert!(parse_serve(&["1", "2"]).unwrap_err().contains("second positional"));
    }

    #[test]
    fn serve_chaos_flags_default_each_other() {
        let chaos = parse_serve(&["--chaos-seed", "9"]).unwrap().config.chaos.unwrap();
        assert_eq!(chaos.seed, 9);
        assert!(chaos.profile.any(), "the default profile must inject something");
        let chaos = parse_serve(&["--chaos-profile", "heavy"]).unwrap().config.chaos.unwrap();
        assert_eq!(chaos.seed, 1);
        assert!(parse_serve(&["--chaos-profile", "bogus"])
            .unwrap_err()
            .contains("unknown chaos class"));
    }

    #[test]
    fn load_presets_and_overrides() {
        assert!(parse_load(&[]).unwrap_err().contains("an endpoint is required"));

        let a = parse_load(&["--tcp", "127.0.0.1:7733"]).unwrap();
        assert_eq!(a.config.endpoint, Endpoint::Tcp("127.0.0.1:7733".into()));
        assert_eq!((a.config.clients, a.config.requests_per_client), (32, 36));
        assert!(a.config.verify && a.config.chaos.is_none() && !a.stop);
        assert_eq!(a.json, PathBuf::from("BENCH_serve.json"));

        let b = parse_load(&["--unix", "/tmp/s.sock", "--smoke"]).unwrap();
        assert_eq!((b.config.clients, b.config.requests_per_client), (6, 12));

        // Explicit counts win over the preset in either order.
        let c = parse_load(&["--clients", "2", "--smoke", "--tcp", "a:1", "--requests", "5",
            "--mix-seed", "9", "--no-verify", "--json", "l.json", "--stop"])
        .unwrap();
        assert_eq!((c.config.clients, c.config.requests_per_client), (2, 5));
        assert_eq!(c.config.mix_seed, 9);
        assert!(!c.config.verify && c.stop);
        assert_eq!(c.json, PathBuf::from("l.json"));
    }

    #[test]
    fn load_grammar_errors_are_descriptive() {
        assert!(parse_load(&["--tcp", "a:1", "--clients", "0"])
            .unwrap_err()
            .contains("--clients 0: must be at least 1"));
        assert!(parse_load(&["--tcp", "a:1", "--requests", "0"])
            .unwrap_err()
            .contains("must be at least 1"));
        assert!(parse_load(&["--tcp", "a:1", "--clients", "x"])
            .unwrap_err()
            .contains("not an integer"));
        assert!(parse_load(&["--tcp", "a:1", "--unix", "p"])
            .unwrap_err()
            .contains("at most one of --tcp/--unix"));
        assert!(parse_load(&["--tcp", "a:1", "7"]).unwrap_err().contains("positional"));
        assert!(parse_load(&["--frobnicate"]).unwrap_err().contains("unknown flag"));
        let chaos = parse_load(&["--tcp", "a:1", "--chaos-seed", "4"]).unwrap().config.chaos;
        assert_eq!(chaos.map(|c| c.seed), Some(4));
        let chaos = parse_load(&["--tcp", "a:1", "--chaos-profile", "heavy"]).unwrap().config.chaos;
        assert_eq!(chaos.map(|c| c.seed), Some(1));
    }

    #[test]
    fn threads_zero_keeps_every_default() {
        assert_eq!(parse(&["--threads", "2", "--threads", "0"]).unwrap().threads, None);
    }
}
