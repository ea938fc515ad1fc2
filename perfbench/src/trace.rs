//! In-memory span recording for the traced run.
//!
//! The benchmark wraps each call it makes into a layer in a span: name,
//! start, end, parent span and the operation it belongs to (spans of
//! one operation share the operation id). Spans stay in memory until
//! the run ends and are then written out as JSON lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call into a layer. Times are nanoseconds since the
/// tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub op: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    base: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            base: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent span ends.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Closes span `id`, started at `start_ns`, now.
    pub fn close(&self, id: u64, op: u64, parent: Option<u64>, name: &str, start_ns: u64) {
        let end_ns = self.now();
        let span = Span {
            id,
            op,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may overlap each other (two worker
/// threads under one operation span), so the covered part is the length
/// of the union of their intervals, clipped to the parent's.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|&(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Per-name totals over `spans`: `(count, total_ns, self_ns)`.
pub fn by_name(spans: &[Span]) -> BTreeMap<String, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name.clone()).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += selfs[&s.id];
    }
    out
}

/// Writes one JSON object per span.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"op\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.op, parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            op: 1,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100) > a [10,40) > a1 [15,25); op > b [50,70).
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(2), 15, 25),
            span(4, Some(1), 50, 70),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 30 - 20);
        assert_eq!(st[&2], 30 - 10);
        assert_eq!(st[&3], 10);
        assert_eq!(st[&4], 20);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two threads' children overlap in [30,40); one child sticks out
        // past the parent's end and is clipped.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),
            span(4, Some(1), 90, 120),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 50 - 10);
    }

    #[test]
    fn by_name_sums_totals_and_self_times() {
        let mut spans = vec![span(1, None, 0, 100), span(2, Some(1), 10, 40)];
        spans.push(Span {
            name: "s2".into(),
            id: 5,
            ..span(5, Some(1), 50, 60)
        });
        let names = by_name(&spans);
        assert_eq!(names["s1"], (1, 100, 60));
        assert_eq!(names["s2"], (2, 40, 40));
    }

    #[test]
    fn tracer_records_nested_spans() {
        let t = Tracer::new();
        let root = t.reserve();
        let start = t.now();
        let child_id = t.reserve();
        let child_start = t.now();
        t.close(child_id, 7, Some(root), "child", child_start);
        t.close(root, 7, None, "root", start);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child.parent, Some(root));
        assert!(child.start_ns >= start);
    }
}
