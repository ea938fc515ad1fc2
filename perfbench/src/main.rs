//! The repository benchmark: four closed-loop workloads over the mom3d
//! stack, end-to-end host-time metrics with tracing off, and a traced
//! run that times the benchmark's calls into each layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-cold --seed 7 --seconds 15 --trace 0
//! ```
//!
//! Human-readable detail goes to stderr; the last line of stdout is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. See
//! `NOTES.md` for the workloads, the metrics and what each layer metric
//! is expected to move.

mod check;
mod grids;
mod layers;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: mom3d-perfbench --workload <paper-cold|design-space|served|sharded> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Where a run keeps its files, relative to the directory the benchmark
/// is started from (the checkout root).
const STATE_DIR: &str = ".perfbench";

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = Path::new(STATE_DIR).join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: creating {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let out = workloads::run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);

    let mut correct = out.tally.mismatches == 0 && out.problems.is_empty();
    for p in &out.problems {
        eprintln!("error: {p}");
    }
    if let Some(e) = &out.tally.first_error {
        eprintln!("first failed operation: {e}");
    }
    if let Err(e) = check_counters_across_runs(&args, &out.counters) {
        eprintln!("error: {e}");
        correct = false;
    }
    if args.trace {
        let path =
            Path::new(STATE_DIR).join(format!("spans-{}-s{}.jsonl", args.workload, args.seed));
        match trace::write_jsonl(&out.spans, &path) {
            Ok(()) => eprintln!("spans: {} written to {}", out.spans.len(), path.display()),
            Err(e) => eprintln!("warning: writing {}: {e}", path.display()),
        }
        eprintln!(
            "{:<28} {:>8} {:>14} {:>14}",
            "span", "count", "total ms", "self ms"
        );
        for (name, (count, total, own)) in trace::by_name(&out.spans) {
            eprintln!(
                "{name:<28} {count:>8} {:>14.3} {:>14.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }
    println!(
        "{}",
        metrics::result_json(correct, &out.tally, &out.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The deterministic work counters of a run must repeat exactly on every
/// run of the same code, workload, seed and mode. The first run records
/// them; later runs compare against the record. Records are keyed by a
/// hash of this executable, so a changed program starts a new record
/// instead of being held to the old one's work.
fn check_counters_across_runs(args: &Args, counters: &metrics::Counters) -> Result<(), String> {
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map_err(|e| format!("reading this executable to key the work counters: {e}"))?;
    let name = format!(
        "{}-s{}-t{}-{:016x}.txt",
        args.workload,
        args.seed,
        u8::from(args.trace),
        fnv1a(&exe)
    );
    let path = Path::new(STATE_DIR).join("counters").join(name);
    compare_or_record(&path, &metrics::counters_text(counters))
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn compare_or_record(path: &Path, text: &str) -> Result<(), String> {
    match std::fs::read_to_string(path) {
        Ok(previous) if previous == text => Ok(()),
        Ok(previous) => Err(format!(
            "work counters differ from an earlier run with the same seed ({}):\n{}",
            path.display(),
            metrics::counter_diff(&previous, text)
        )),
        Err(_) => {
            let write = std::fs::create_dir_all(path.parent().expect("counter file has a parent"))
                .and_then(|()| std::fs::write(path, text));
            if let Err(e) = write {
                eprintln!(
                    "warning: recording work counters in {}: {e}",
                    path.display()
                );
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload served --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("served", 3, 10.0, true)
        );
        assert!(args("--workload nope --seed 3 --seconds 10 --trace 1").is_err());
        assert!(args("--workload served --seed x --seconds 10 --trace 1").is_err());
        assert!(args("--workload served --seed 3 --seconds 0 --trace 1").is_err());
        assert!(args("--workload served --seed 3 --seconds 10 --trace 2").is_err());
        assert!(args("--workload served --seed 3 --seconds 10").is_err());
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn counters_are_recorded_then_compared() {
        let dir = std::env::temp_dir().join(format!("perfbench-counters-{}", std::process::id()));
        let path = dir.join("c.txt");
        assert_eq!(compare_or_record(&path, "a 1\n"), Ok(()));
        assert_eq!(compare_or_record(&path, "a 1\n"), Ok(()));
        let err = compare_or_record(&path, "a 2\n").unwrap_err();
        assert!(err.contains("a 1") && err.contains("a 2"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
