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
//! Defaults: 32 clients × 36 requests (≥ 1000 mixed requests) with
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

use mom3d_bench::cli::{parse_load_args, parse_or_exit, LOAD_USAGE};
use mom3d_bench::load::run_load;
use mom3d_bench::protocol::{RetryClient, RetryPolicy};

fn main() {
    let args = parse_or_exit(parse_load_args, LOAD_USAGE);
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
        let mut client = RetryClient::new(args.config.endpoint.clone(), RetryPolicy::default());
        match client.request_shutdown() {
            Ok(true) => eprintln!("server shutdown requested"),
            Ok(false) => eprintln!("server shutdown confirmed (endpoint no longer accepts)"),
            Err(e) => eprintln!("could not request shutdown: {e}"),
        }
    }
    if !report.ok() {
        eprintln!("mom3d-load: {} correctness check(s) FAILED", report.failures.len());
        std::process::exit(1);
    }
}
