//! The metric catalogue, the per-layer roll-up of traced samples, and
//! the result line.

use crate::check::Tally;
use crate::layers::{families, Sample};
use crate::stats::{median, ratio};
use std::collections::BTreeMap;

/// End-to-end metrics, reported on every workload with tracing off.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("sweep_p50_s", "s"),
    ("sweep_tail_s", "s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("req_p50_us", "us"),
    ("req_tail_us", "us"),
    ("req_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// How a per-layer value behaves across operations of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A deterministic work counter: identical on every operation and
    /// every run with the same code and seed.
    Work,
    /// A host time, or a count or ratio that depends on timing
    /// (retries, steals, ...).
    Varies,
}

/// Every per-layer metric: name, unit, kind.
pub fn per_layer() -> Vec<(String, &'static str, Kind)> {
    use Kind::*;
    let mut m: Vec<(String, &'static str, Kind)> = Vec::new();
    let mut push = |name: &str, unit, kind| m.push((name.to_string(), unit, kind));
    push("kernels.build_ns", "ns", Varies);
    push("kernels.build_instrs", "count", Work);
    push("kernels.image_decode_ns", "ns", Varies);
    push("kernels.image_bytes", "count", Work);
    push("cache.load_ns", "ns", Varies);
    push("cache.hits", "count", Work);
    push("cache.misses", "count", Work);
    push("cache.rejected", "count", Work);
    push("emu.verify_ns", "ns", Varies);
    push("emu.verify_instrs", "count", Work);
    push("cpu.run_ns", "ns", Varies);
    push("cpu.sim_instrs", "count", Work);
    push("cpu.sim_cycles", "count", Work);
    for f in families() {
        push(&format!("cpu.ns_per_instr.{f}"), "ns/instr", Varies);
    }
    push("cpu.depgraph_ns", "ns", Varies);
    push("cpu.depgraph_edges", "count", Work);
    push("cpu.warm_ns", "ns", Varies);
    push("cpu.warm_lines", "count", Work);
    push("cpu.vector_access_ns", "ns", Varies);
    push("cpu.vector_access_calls", "count", Work);
    push("cpu.scalar_access_ns", "ns", Varies);
    push("cpu.scalar_access_calls", "count", Work);
    push("cpu.issue_loop_est_ns", "ns", Varies);
    push("mem.lineset_ns", "ns", Varies);
    push("mem.lines", "count", Work);
    push("mem.hierarchy_ns", "ns", Varies);
    push("mem.line_lookups", "count", Work);
    push("mem.l2_hit_ratio", "ratio", Work);
    // The ideal backend is short-circuited and never scheduled.
    for f in families().into_iter().filter(|&f| f != "ideal") {
        push(&format!("mem.schedule_ns.{f}"), "ns", Varies);
        push(&format!("mem.schedule_calls.{f}"), "count", Work);
        push(&format!("mem.port_cycles.{f}"), "count", Work);
    }
    push("mem.vaccess_repeat_frac", "ratio", Work);
    push("cpu.trace_replays", "ratio", Work);
    push("sweep.busy_ns", "ns", Varies);
    push("sweep.parallel_eff", "ratio", Varies);
    push("protocol.encode_ns", "ns", Varies);
    push("protocol.decode_ns", "ns", Varies);
    push("protocol.frames", "count", Work);
    push("protocol.bytes", "count", Work);
    push("serve.requests", "count", Varies);
    push("serve.memo_hit_ratio", "ratio", Varies);
    push("serve.sims_executed", "count", Varies);
    push("serve.shed", "count", Varies);
    push("serve.protocol_errors", "count", Varies);
    push("client.retries", "count", Varies);
    push("client.timeouts", "count", Varies);
    push("shard.grants", "count", Varies);
    push("shard.steals", "count", Varies);
    push("shard.imbalance", "ratio", Varies);
    push("shard.overhead_ns", "ns", Varies);
    push("trace.overhead_frac", "ratio", Varies);
    push("failed_frac", "ratio", Varies);
    m
}

/// Adds the values derived from other entries of one traced sample.
fn derive(s: &mut Sample) {
    let get = |s: &Sample, k: &str| s.get(k).copied().unwrap_or(0.0);
    for f in families() {
        let v = ratio(
            get(s, &format!("cpu.run_ns.{f}")),
            get(s, &format!("cpu.instrs.{f}")),
        );
        s.insert(format!("cpu.ns_per_instr.{f}"), v);
    }
    let replayed: f64 = [
        "cpu.depgraph_ns",
        "cpu.warm_ns",
        "cpu.vector_access_ns",
        "cpu.scalar_access_ns",
    ]
    .iter()
    .map(|k| get(s, k))
    .sum();
    if s.contains_key("cpu.run_ns") {
        s.insert(
            "cpu.issue_loop_est_ns".into(),
            get(s, "cpu.run_ns") - replayed,
        );
    }
    let hit = ratio(get(s, "mem.l2_hits"), get(s, "mem.line_lookups"));
    s.insert("mem.l2_hit_ratio".into(), hit);
}

/// Named metric values with their units, as the result line lists them.
pub type MetricList = Vec<(String, f64, &'static str)>;

/// Deterministic work counters by name, as recorded and compared across
/// runs.
pub type Counters = BTreeMap<String, String>;

/// Rolls the traced operations' samples up into the per-layer metrics:
/// the median over operations of each value, then `extra` (values the
/// workload measured once per run) on top. Metrics a workload never
/// touches read 0. Returns the metrics and the work counters, or the
/// names of work counters that differed between operations.
pub fn roll_up(samples: &[Sample], extra: &Sample) -> (MetricList, Counters, Vec<String>) {
    let mut samples = samples.to_vec();
    samples.iter_mut().for_each(derive);
    let mut out = Vec::new();
    let mut counters = BTreeMap::new();
    let mut unsteady = Vec::new();
    for (name, unit, kind) in per_layer() {
        let values: Vec<f64> = samples
            .iter()
            .map(|s| s.get(&name).copied().unwrap_or(0.0))
            .collect();
        if kind == Kind::Work && values.windows(2).any(|w| w[0] != w[1]) {
            unsteady.push(format!("{name} differs between operations: {values:?}"));
        }
        let value = match extra.get(&name) {
            Some(&v) => v,
            None => median(&values).unwrap_or(0.0),
        };
        if kind == Kind::Work {
            counters.insert(name.clone(), format!("{value}"));
        }
        out.push((name, value, unit));
    }
    (out, counters, unsteady)
}

/// Hands the heap memory that earlier work freed back to the kernel, so
/// the next operation starts from the heap a fresh process would have:
/// it pays for the memory it touches, and its peak resident set does not
/// depend on what earlier operations and set-up runs left behind.
pub fn fresh_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers, only releases
        // free pages, and is safe to call from any thread at any time.
        unsafe { malloc_trim(0) };
    }
}

/// Restarts the kernel's peak-resident-set record of this process, so
/// the next [`peak_rss_mb`] covers only what ran in between. Where the
/// kernel refuses, the peak stays the whole run's.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process since the last [`reset_peak_rss`],
/// in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Formats a finite number for JSON with every digit Rust keeps.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result line.
pub fn result_json(correct: bool, tally: &Tally, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

/// One `name value` line per counter, sorted.
pub fn counters_text(counters: &Counters) -> String {
    counters.iter().map(|(k, v)| format!("{k} {v}\n")).collect()
}

/// The lines that differ between two [`counters_text`] records.
pub fn counter_diff(before: &str, after: &str) -> String {
    let a: Vec<&str> = before.lines().collect();
    let b: Vec<&str> = after.lines().collect();
    let mut out = String::new();
    for l in a.iter().filter(|l| !b.contains(l)) {
        out.push_str(&format!("  was {l}\n"));
    }
    for l in b.iter().filter(|l| !a.contains(l)) {
        out.push_str(&format!("  now {l}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(pairs: &[(&str, f64)]) -> Sample {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn roll_up_takes_medians_derives_and_flags_unsteady_counters() {
        let a = sample(&[
            ("cpu.run_ns", 100.0),
            ("cpu.depgraph_ns", 10.0),
            ("cpu.vector_access_ns", 30.0),
            ("cpu.run_ns.vector-cache", 100.0),
            ("cpu.instrs.vector-cache", 50.0),
            ("mem.l2_hits", 8.0),
            ("mem.line_lookups", 8.0),
            ("cpu.sim_instrs", 50.0),
        ]);
        let b = sample(&[
            ("cpu.run_ns", 300.0),
            ("cpu.sim_instrs", 50.0),
            ("mem.line_lookups", 8.0),
        ]);
        let c = sample(&[
            ("cpu.run_ns", 200.0),
            ("cpu.sim_instrs", 51.0),
            ("mem.line_lookups", 8.0),
        ]);
        let extra = sample(&[("failed_frac", 0.0), ("sweep.parallel_eff", 0.9)]);
        let (m, counters, unsteady) = roll_up(&[a, b, c], &extra);
        let get = |n: &str| m.iter().find(|x| x.0 == n).unwrap().1;
        assert_eq!(get("cpu.run_ns"), 200.0);
        assert_eq!(get("cpu.issue_loop_est_ns"), 200.0);
        assert_eq!(get("cpu.ns_per_instr.ideal"), 0.0);
        assert_eq!(get("sweep.parallel_eff"), 0.9);
        assert_eq!(get("kernels.build_ns"), 0.0);
        assert_eq!(unsteady.len(), 2, "{unsteady:?}");
        assert!(unsteady.iter().any(|u| u.starts_with("cpu.sim_instrs")));
        assert!(unsteady.iter().any(|u| u.starts_with("mem.l2_hit_ratio")));
        assert_eq!(counters["mem.line_lookups"], "8");
        assert_eq!(m.len(), per_layer().len());
    }

    #[test]
    fn catalogue_names_are_unique_and_valid() {
        let mut names: Vec<String> = per_layer().into_iter().map(|m| m.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.0.to_string()));
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
        for name in names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<String> {
            let start = json.find(&format!("\"{key}\"")).expect(key);
            let end = start + json[start..].find(']').expect("section end");
            json[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').unwrap()].to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(section("end_to_end"), e2e);
        let layers: Vec<String> = per_layer().into_iter().map(|m| m.0).collect();
        assert_eq!(section("per_layer"), layers);
    }

    #[test]
    fn result_line_shape() {
        let t = Tally {
            attempted: 3,
            failed: 1,
            ..Tally::default()
        };
        let line = result_json(false, &t, &[("x".into(), 1.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \
             \"metrics\": {\"x\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(num(f64::NAN), "null");
    }

    #[test]
    fn counter_records_diff_by_line() {
        let c = |b: &str| Counters::from([("a".into(), "1".into()), ("b".into(), b.into())]);
        let (before, after) = (counters_text(&c("2")), counters_text(&c("3")));
        assert_eq!(counter_diff(&before, &after), "  was b 2\n  now b 3\n");
    }
}
