//! The correctness gate: every simulated result a timed operation
//! produces must equal, bit for bit, the `Metrics` that the serial
//! in-process `Runner::metrics` path computes for the same key and seed.

use mom3d_bench::{Runner, SimKey};
use mom3d_cpu::Metrics;
use std::collections::HashMap;

#[derive(Debug, Clone, Default)]
pub struct Reference {
    expect: HashMap<SimKey, Metrics>,
}

impl Reference {
    /// Computes the reference for `keys` serially on `runner` (whose
    /// seed and geometry must be those of the run under test).
    pub fn compute(runner: &mut Runner, keys: &[SimKey]) -> Reference {
        let expect = keys
            .iter()
            .map(|k| {
                (
                    *k,
                    runner.metrics(k.kind, k.variant, k.memory, k.l2_latency),
                )
            })
            .collect();
        Reference { expect }
    }

    /// Checks one result. The error names the key and the first field
    /// that differs.
    pub fn check(&self, key: &SimKey, got: &Metrics) -> Result<(), String> {
        let Some(want) = self.expect.get(key) else {
            return Err(format!("{key:?}: no reference (key outside the workload)"));
        };
        if want == got {
            return Ok(());
        }
        // Metrics prints every counter; report the first that differs.
        let want_s = format!("{want:?}");
        let got_s = format!("{got:?}");
        let first = want_s
            .split(", ")
            .zip(got_s.split(", "))
            .find(|(a, b)| a != b)
            .map_or(String::new(), |(a, b)| format!(": want {a}, got {b}"));
        Err(format!(
            "{key:?}: metrics differ from the serial reference{first}"
        ))
    }
}

/// Operation outcomes of a run.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Results that came back but differ from the reference. Any
    /// mismatch makes the run incorrect.
    pub mismatches: u64,
    pub first_error: Option<String>,
}

impl Tally {
    /// Records one operation whose results were checked: `errors` holds
    /// the reference mismatches, `transport` an error that left it
    /// without a result (an error reply, or a request still shed after
    /// retries).
    pub fn record(&mut self, errors: Vec<String>, transport: Option<String>) {
        self.attempted += 1;
        if errors.is_empty() && transport.is_none() {
            return;
        }
        self.failed += 1;
        self.mismatches += errors.len() as u64;
        if self.first_error.is_none() {
            self.first_error = errors.into_iter().next().or(transport);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mom3d_cpu::MemorySystemKind;
    use mom3d_kernels::{IsaVariant, WorkloadKind};

    fn key() -> SimKey {
        SimKey {
            kind: WorkloadKind::GsmEncode,
            variant: IsaVariant::Mom,
            memory: MemorySystemKind::VectorCache.into(),
            l2_latency: 40,
        }
    }

    #[test]
    fn reference_accepts_the_serial_result_and_rejects_any_altered_field() {
        let mut runner = Runner::small(3);
        let reference = Reference::compute(&mut runner, &[key()]);
        let good = Runner::small(3).metrics(key().kind, key().variant, key().memory, 40);
        assert_eq!(reference.check(&key(), &good), Ok(()));
        let altered = [
            Metrics {
                cycles: good.cycles + 1,
                ..good
            },
            Metrics {
                instructions: good.instructions - 1,
                ..good
            },
            Metrics {
                l2_misses: good.l2_misses + 1,
                ..good
            },
            Metrics {
                dram_row_misses: good.dram_row_misses + 1,
                ..good
            },
        ];
        for bad in altered {
            let err = reference.check(&key(), &bad).unwrap_err();
            assert!(err.contains("differ"), "{err}");
        }
        let err = reference.check(&altered_key(), &good).unwrap_err();
        assert!(err.contains("no reference"), "{err}");
    }

    fn altered_key() -> SimKey {
        SimKey {
            l2_latency: 60,
            ..key()
        }
    }

    #[test]
    fn mismatch_message_names_the_first_differing_counter() {
        let mut runner = Runner::small(3);
        let reference = Reference::compute(&mut runner, &[key()]);
        let good = runner.metrics(key().kind, key().variant, key().memory, 40);
        let err = reference.check(
            &key(),
            &Metrics {
                l2_hits: good.l2_hits + 5,
                ..good
            },
        );
        assert!(err.unwrap_err().contains("l2_hits"));
    }

    #[test]
    fn tally_counts_failed_operations_once() {
        let mut t = Tally::default();
        t.record(Vec::new(), None);
        t.record(vec!["a".into(), "b".into()], None);
        t.record(Vec::new(), Some("shed after retries".into()));
        assert_eq!((t.attempted, t.failed, t.mismatches), (3, 2, 2));
        assert_eq!(t.first_error.as_deref(), Some("a"));
        let mut sum = Tally::default();
        sum.merge(t);
        assert_eq!(sum.failed, 2);
    }
}
