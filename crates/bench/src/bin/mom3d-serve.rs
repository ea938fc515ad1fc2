//! The resident simulation server.
//!
//! Keeps verified workloads and the `SimKey → Metrics` memo table alive
//! in one long-lived process and serves simulation requests over the
//! binary frame protocol, on TCP or a unix-domain socket:
//!
//! ```text
//! mom3d-serve [SEED] [--tcp ADDR | --unix PATH] [--small] [--threads N]
//!             [--cache-dir PATH] [--prebuild]
//!             [--chaos-seed N] [--chaos-profile P]
//! ```
//!
//! Defaults: seed 7, `--tcp 127.0.0.1:7733`, full geometry, one
//! simulation worker per core. `--cache-dir` (or
//! `MOM3D_WORKLOAD_CACHE`) hydrates workloads from the on-disk image
//! cache; `--prebuild` builds every paper workload at boot so the first
//! request is already warm. The process runs until a client sends
//! `SHUTDOWN` (e.g. `mom3d-load` in `--stop` mode, or any protocol
//! client).
//!
//! `--chaos-seed`/`--chaos-profile` wrap every accepted connection in
//! the deterministic fault injector (`mom3d_bench::faults`): frames are
//! delayed, dropped, truncated, bit-flipped or black-holed from a
//! seeded schedule, so retrying clients can be soak-tested against a
//! hostile server. Either flag defaults the other (seed 1, profile
//! `mixed`).
//!
//! A readiness line (`listening on …`) is printed to stdout once the
//! socket is bound — CI waits for it before starting the load.

use mom3d_bench::cli::set_endpoint;
use mom3d_bench::faults::ChaosConfig;
use mom3d_bench::protocol::Endpoint;
use mom3d_bench::serve::{serve, ServeConfig};
use mom3d_bench::WorkloadCache;
use std::path::PathBuf;

const USAGE: &str = "usage: mom3d-serve [SEED] [--tcp ADDR | --unix PATH] [--small] \
                     [--threads N] [--cache-dir PATH] [--prebuild] \
                     [--chaos-seed N] [--chaos-profile P]";

struct Args {
    endpoint: Endpoint,
    config: ServeConfig,
}

fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    let mut endpoint: Option<Endpoint> = None;
    let mut seed: Option<u64> = None;
    let mut config = ServeConfig::default();
    let mut cache_dir: Option<PathBuf> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut chaos_profile: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            flag @ ("--tcp" | "--unix") => set_endpoint(&mut endpoint, flag, &mut it)?,
            "--small" => config.small = true,
            "--prebuild" => config.prebuild = true,
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("--threads {v:?}: not an integer"))?;
                // 0 follows the same warn-and-fallback policy as
                // MOM3D_SWEEP_THREADS (ServeConfig treats 0 as "default").
                if n == 0 {
                    eprintln!("warning: --threads 0 is not a thread count; using all cores");
                }
                config.threads = n;
            }
            "--cache-dir" => {
                let v = it.next().ok_or("--cache-dir needs a path")?;
                cache_dir = Some(PathBuf::from(v));
            }
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
    config.seed = seed.unwrap_or(7);
    config.cache = WorkloadCache::resolve(cache_dir.as_deref());
    config.chaos = ChaosConfig::from_cli(chaos_seed, chaos_profile.as_deref())?;
    Ok(Args {
        endpoint: endpoint.unwrap_or_else(|| Endpoint::Tcp("127.0.0.1:7733".into())),
        config,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let seed = args.config.seed;
    let small = args.config.small;
    let chaos = args.config.chaos;
    let handle = match serve(args.endpoint, args.config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("error: could not bind: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "mom3d-serve listening on {} (seed {seed}, {} geometry)",
        handle.endpoint(),
        if small { "small" } else { "full" }
    );
    if let Some(chaos) = chaos {
        eprintln!(
            "mom3d-serve: fault injection ARMED (seed {}, profile {}) — \
             every connection will be damaged on purpose",
            chaos.seed, chaos.profile
        );
    }
    handle.wait();
    eprintln!("mom3d-serve: shutdown requested, bye");
}
