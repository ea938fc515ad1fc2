//! The load generator for `mom3d-serve`.
//!
//! Replays a deterministic mixed request stream (memo-hot cells,
//! memo-cold cells, streamed sweeps, malformed frames, mid-stream
//! disconnects) from many concurrent connections, verifies every
//! observed `Metrics` bit-for-bit against in-process execution, and
//! writes `BENCH_serve.json` with p50/p99 latency and requests/sec:
//!
//! ```text
//! mom3d-load (--tcp ADDR | --unix PATH) [--clients N] [--requests N]
//!            [--mix-seed N] [--smoke] [--no-verify] [--json PATH] [--stop]
//!            [--chaos-seed N] [--chaos-profile P]
//! ```
//!
//! Defaults: 32 clients × 32 requests (≥ 1000 mixed requests) with
//! verification on. `--smoke` is the small CI preset (6 × 12, still
//! every request class). `--stop` additionally sends `SHUTDOWN` after
//! the run, stopping the server. Exits non-zero when any correctness
//! check failed — a lying server fails CI, not just a slow one.
//!
//! `--chaos-seed`/`--chaos-profile` wrap every well-formed connection
//! in the deterministic client-side fault injector and drive it through
//! the retry layer; the report's `faults` block counts the timeouts,
//! retries and `ERR_OVERLOADED` sheds absorbed. Bit-identity is still
//! asserted — chaos may cost latency, never correctness.

use mom3d_bench::cli::set_endpoint;
use mom3d_bench::faults::ChaosConfig;
use mom3d_bench::load::{run_load, LoadConfig};
use mom3d_bench::protocol::{Client, Endpoint, Request};
use std::path::PathBuf;

const USAGE: &str = "usage: mom3d-load (--tcp ADDR | --unix PATH) [--clients N] [--requests N] \
                     [--mix-seed N] [--smoke] [--no-verify] [--json PATH] [--stop] \
                     [--chaos-seed N] [--chaos-profile P]";

struct Args {
    config: LoadConfig,
    json: PathBuf,
    stop: bool,
}

fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    let mut endpoint: Option<Endpoint> = None;
    let mut smoke = false;
    let mut clients: Option<usize> = None;
    let mut requests: Option<usize> = None;
    let mut mix_seed: Option<u64> = None;
    let mut verify = true;
    let mut json: Option<PathBuf> = None;
    let mut stop = false;
    let mut chaos_seed: Option<u64> = None;
    let mut chaos_profile: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            flag @ ("--tcp" | "--unix") => set_endpoint(&mut endpoint, flag, &mut it)?,
            "--smoke" => smoke = true,
            "--no-verify" => verify = false,
            "--stop" => stop = true,
            "--clients" => clients = Some(positive(&mut it, "--clients")?),
            "--requests" => requests = Some(positive(&mut it, "--requests")?),
            "--mix-seed" => {
                let v = it.next().ok_or("--mix-seed needs a value")?;
                mix_seed =
                    Some(v.parse().map_err(|_| format!("--mix-seed {v:?}: not an integer"))?);
            }
            "--json" => {
                let v = it.next().ok_or("--json needs a path")?;
                json = Some(PathBuf::from(v));
            }
            "--chaos-seed" => {
                let v = it.next().ok_or("--chaos-seed needs a value")?;
                chaos_seed =
                    Some(v.parse().map_err(|_| format!("--chaos-seed {v:?}: not an integer"))?);
            }
            "--chaos-profile" => {
                chaos_profile = Some(it.next().ok_or("--chaos-profile needs a profile")?);
            }
            flag => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let endpoint = endpoint.ok_or("an endpoint is required (--tcp ADDR or --unix PATH)")?;
    let mut config =
        if smoke { LoadConfig::smoke(endpoint) } else { LoadConfig::bench(endpoint) };
    if let Some(n) = clients {
        config.clients = n;
    }
    if let Some(n) = requests {
        config.requests_per_client = n;
    }
    if let Some(s) = mix_seed {
        config.mix_seed = s;
    }
    config.verify = verify;
    config.chaos = ChaosConfig::from_cli(chaos_seed, chaos_profile.as_deref())?;
    Ok(Args { config, json: json.unwrap_or_else(|| PathBuf::from("BENCH_serve.json")), stop })
}

fn positive(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<usize, String> {
    let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    let n: usize = v.parse().map_err(|_| format!("{flag} {v:?}: not an integer"))?;
    if n == 0 {
        return Err(format!("{flag} 0: must be at least 1"));
    }
    Ok(n)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = match run_load(&args.config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: load run against {} failed: {e}", args.config.endpoint);
            std::process::exit(1);
        }
    };
    println!(
        "mom3d-load: {} requests from {} clients in {:.2?} ({:.0} req/s)",
        report.requests_sent, report.clients, report.elapsed, report.requests_per_sec
    );
    println!(
        "  results {}  memo hits {}  provoked errors {}  disconnects {}  verified cells {}",
        report.results_received,
        report.memo_hits,
        report.expected_errors,
        report.disconnects,
        report.verified_cells
    );
    println!("  latency p50 {}us  p99 {}us  max {}us", report.p50_us, report.p99_us, report.max_us);
    if let Some(chaos) = &report.chaos {
        println!(
            "  chaos seed {} profile {}  absorbed: {} timeout(s), {} retry(ies), {} shed(s) \
             ({} later succeeded)",
            chaos.seed,
            chaos.profile,
            report.faults.timeouts,
            report.faults.retries,
            report.faults.sheds,
            report.faults.shed_then_succeeded
        );
    }
    for failure in &report.failures {
        eprintln!("FAIL: {failure}");
    }
    match std::fs::write(&args.json, report.to_json()) {
        Ok(()) => eprintln!("load report written to {}", args.json.display()),
        Err(e) => eprintln!("could not write {}: {e}", args.json.display()),
    }
    if args.stop {
        request_shutdown(&args.config.endpoint);
    }
    if !report.ok() {
        eprintln!("mom3d-load: {} correctness check(s) FAILED", report.failures.len());
        std::process::exit(1);
    }
}

/// Asks the server to shut down, retrying with a bounded budget: under
/// fault injection a single `SHUTDOWN` frame (or its `BYE` ack) can be
/// damaged in flight, and an unstopped server would leave the caller's
/// `wait` hanging. A connect that fails outright means the server is
/// already gone — that is success, not an error.
fn request_shutdown(endpoint: &Endpoint) {
    let mut last_err = None;
    for attempt in 0..8u32 {
        let mut client = match Client::connect(endpoint) {
            Ok(client) => client,
            Err(_) => {
                eprintln!("server shutdown confirmed (endpoint no longer accepts)");
                return;
            }
        };
        // Bounded wait: a fault that swallows the ack must not wedge us.
        client.set_io_timeout(Some(std::time::Duration::from_secs(5)));
        match client.round_trip(&Request::Shutdown) {
            Ok(_) => {
                eprintln!("server shutdown requested");
                return;
            }
            Err(e) => last_err = Some(e),
        }
        std::thread::sleep(std::time::Duration::from_millis(50 << attempt.min(4)));
    }
    if let Some(e) = last_err {
        eprintln!("could not request shutdown: {e}");
    }
}
