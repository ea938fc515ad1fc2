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
//! simulation worker per core. `--cache-dir` hydrates workloads from
//! the on-disk image cache; `--prebuild` builds every paper workload at
//! boot so the first request is already warm. The process runs until a client sends
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

use mom3d_bench::cli::{parse_or_exit, parse_serve_args, SERVE_USAGE};
use mom3d_bench::serve::serve;

fn main() {
    let args = parse_or_exit(parse_serve_args, SERVE_USAGE);
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
