//! Experiment implementations and their textual reports.

use crate::runner::Runner;
use mom3d_cpu::{BackendRegistry, MemorySystemKind, ProcessorConfig};
use mom3d_kernels::{IsaVariant, WorkloadKind};
use mom3d_power::{average_power_watts, ConfigArea, L2Params, ProcessParams, RegFileSpec};
use std::fmt;

const WORKLOADS: [WorkloadKind; 5] = WorkloadKind::ALL;

/// A named series of per-workload slowdown values (Figures 3 and 9).
#[derive(Debug, Clone, PartialEq)]
pub struct SlowdownReport {
    /// Figure title.
    pub title: &'static str,
    /// Configuration labels.
    pub configs: Vec<&'static str>,
    /// `rows[w][c]` = slowdown of configuration `c` on workload `w`.
    pub rows: Vec<(WorkloadKind, Vec<f64>)>,
}

impl SlowdownReport {
    /// Arithmetic mean slowdown of configuration `c` across workloads.
    pub fn average(&self, c: usize) -> f64 {
        self.rows.iter().map(|(_, v)| v[c]).sum::<f64>() / self.rows.len() as f64
    }

    /// Slowdown of `config` on `workload`.
    pub fn value(&self, workload: WorkloadKind, config: &str) -> f64 {
        let c = self.configs.iter().position(|&n| n == config).expect("known config");
        self.rows.iter().find(|(k, _)| *k == workload).expect("known workload").1[c]
    }
}

impl fmt::Display for SlowdownReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        write!(f, "{:<14}", "workload")?;
        for c in &self.configs {
            write!(f, " {c:>24}")?;
        }
        writeln!(f)?;
        for (w, vals) in &self.rows {
            write!(f, "{:<14}", w.to_string())?;
            for v in vals {
                write!(f, " {v:>23.3}x")?;
            }
            writeln!(f)?;
        }
        write!(f, "{:<14}", "average")?;
        for c in 0..self.configs.len() {
            write!(f, " {:>23.3}x", self.average(c))?;
        }
        writeln!(f)
    }
}

/// Figure 3: performance slowdown of realistic MOM memory systems
/// relative to MOM with idealistic memory.
pub fn fig3(r: &mut Runner) -> SlowdownReport {
    let mut rows = Vec::new();
    for kind in WORKLOADS {
        let base = r.mom_ideal_cycles(kind);
        let mb = r.metrics(kind, IsaVariant::Mom, MemorySystemKind::MultiBanked, 20);
        let vc = r.metrics(kind, IsaVariant::Mom, MemorySystemKind::VectorCache, 20);
        rows.push((kind, vec![mb.slowdown_vs(base), vc.slowdown_vs(base)]));
    }
    SlowdownReport {
        title: "Figure 3: performance slowdown for realistic memory systems (vs MOM ideal)",
        configs: vec!["MOM multi-banked", "MOM vector cache"],
        rows,
    }
}

/// Figure 9: slowdown across ISA styles and memory systems.
pub fn fig9(r: &mut Runner) -> SlowdownReport {
    let mut rows = Vec::new();
    for kind in WORKLOADS {
        let base = r.mom_ideal_cycles(kind);
        let mmx_mb = r.metrics(kind, IsaVariant::Mmx, MemorySystemKind::MultiBanked, 20);
        let mmx_ideal = r.metrics(kind, IsaVariant::Mmx, MemorySystemKind::Ideal, 20);
        let mom_mb = r.metrics(kind, IsaVariant::Mom, MemorySystemKind::MultiBanked, 20);
        let mom_vc = r.metrics(kind, IsaVariant::Mom, MemorySystemKind::VectorCache, 20);
        let m3d = r.metrics(kind, IsaVariant::Mom3d, MemorySystemKind::VectorCache3d, 20);
        rows.push((
            kind,
            vec![
                mmx_mb.slowdown_vs(base),
                mmx_ideal.slowdown_vs(base),
                mom_mb.slowdown_vs(base),
                mom_vc.slowdown_vs(base),
                m3d.slowdown_vs(base),
            ],
        ));
    }
    SlowdownReport {
        title: "Figure 9: performance slowdown across ISA and memory systems (vs MOM ideal)",
        configs: vec![
            "MMX multi-banked",
            "MMX ideal",
            "MOM multi-banked",
            "MOM vector cache",
            "MOM+3D vector cache",
        ],
        rows,
    }
}

/// Figure 6 data: effective bandwidth in 64-bit words per cache access.
pub fn fig6(r: &mut Runner) -> SlowdownReport {
    let mut rows = Vec::new();
    for kind in WORKLOADS {
        let mb = r.metrics(kind, IsaVariant::Mom, MemorySystemKind::MultiBanked, 20);
        let vc = r.metrics(kind, IsaVariant::Mom, MemorySystemKind::VectorCache, 20);
        let m3d = r.metrics(kind, IsaVariant::Mom3d, MemorySystemKind::VectorCache3d, 20);
        rows.push((
            kind,
            vec![mb.effective_bandwidth(), vc.effective_bandwidth(), m3d.effective_bandwidth()],
        ));
    }
    SlowdownReport {
        title: "Figure 6: effective memory bandwidth (64-bit words per access)",
        configs: vec!["MOM multi-banked", "MOM vector cache", "MOM+3D vector cache"],
        rows,
    }
}

/// Figure 7 data: traffic reduction (%) per workload.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficReport {
    /// `(workload, 2D words, 3D words, reduction %)`.
    pub rows: Vec<(WorkloadKind, u64, u64, f64)>,
}

impl TrafficReport {
    /// Reduction percentage for one workload.
    pub fn reduction(&self, kind: WorkloadKind) -> f64 {
        self.rows.iter().find(|(k, ..)| *k == kind).expect("known workload").3
    }
}

impl fmt::Display for TrafficReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 7: vector cache traffic reduction with 3D vectorization")?;
        writeln!(
            f,
            "{:<14} {:>14} {:>14} {:>12}",
            "workload", "MOM words", "MOM+3D words", "reduction"
        )?;
        for (w, w2d, w3d, pct) in &self.rows {
            writeln!(f, "{:<14} {w2d:>14} {w3d:>14} {pct:>11.1}%", w.to_string())?;
        }
        Ok(())
    }
}

/// Figure 7: 64-bit words moved between the vector cache and the
/// register files, MOM vs MOM+3D (both on the vector cache).
pub fn fig7(r: &mut Runner) -> TrafficReport {
    let rows = WORKLOADS
        .iter()
        .map(|&kind| {
            let w2d = r.metrics(kind, IsaVariant::Mom, MemorySystemKind::VectorCache, 20).vec_words;
            let w3d = r
                .metrics(kind, IsaVariant::Mom3d, MemorySystemKind::VectorCache3d, 20)
                .vec_words;
            let pct = if w2d == 0 { 0.0 } else { 100.0 * (1.0 - w3d as f64 / w2d as f64) };
            (kind, w2d, w3d, pct)
        })
        .collect();
    TrafficReport { rows }
}

/// Figure 10 data: normalized execution time vs L2 latency.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10 {
    /// Latencies swept (cycles).
    pub latencies: Vec<u32>,
    /// `(workload, MOM times, MOM+3D times)`, each normalized to MOM at
    /// the first latency.
    pub rows: Vec<(WorkloadKind, Vec<f64>, Vec<f64>)>,
}

impl Fig10 {
    /// Relative speedup of MOM+3D over MOM at the given latency.
    pub fn speedup_at(&self, kind: WorkloadKind, latency: u32) -> f64 {
        let li = self.latencies.iter().position(|&l| l == latency).expect("swept latency");
        let (_, mom, m3d) = self.rows.iter().find(|(k, ..)| *k == kind).expect("workload");
        mom[li] / m3d[li]
    }
}

impl fmt::Display for Fig10 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 10: normalized execution time vs L2 latency")?;
        write!(f, "{:<14} {:<8}", "workload", "config")?;
        for l in &self.latencies {
            write!(f, " {l:>8}cy")?;
        }
        writeln!(f)?;
        for (w, mom, m3d) in &self.rows {
            write!(f, "{:<14} {:<8}", w.to_string(), "MOM")?;
            for v in mom {
                write!(f, " {v:>10.3}")?;
            }
            writeln!(f)?;
            write!(f, "{:<14} {:<8}", "", "MOM+3D")?;
            for v in m3d {
                write!(f, " {v:>10.3}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Figure 10: the four workloads the paper sweeps, at 20/40/60 cycles.
pub fn fig10(r: &mut Runner) -> Fig10 {
    let latencies = vec![20, 40, 60];
    let kinds = [
        WorkloadKind::Mpeg2Decode,
        WorkloadKind::Mpeg2Encode,
        WorkloadKind::GsmEncode,
        WorkloadKind::JpegEncode,
    ];
    let mut rows = Vec::new();
    for kind in kinds {
        let base = r.metrics(kind, IsaVariant::Mom, MemorySystemKind::VectorCache, 20).cycles;
        let mom: Vec<f64> = latencies
            .iter()
            .map(|&l| {
                r.metrics(kind, IsaVariant::Mom, MemorySystemKind::VectorCache, l).cycles as f64
                    / base as f64
            })
            .collect();
        let m3d: Vec<f64> = latencies
            .iter()
            .map(|&l| {
                r.metrics(kind, IsaVariant::Mom3d, MemorySystemKind::VectorCache3d, l).cycles
                    as f64
                    / base as f64
            })
            .collect();
        rows.push((kind, mom, m3d));
    }
    Fig10 { latencies, rows }
}

/// Figure 11 data: average power of the L2 (+ 3D register file).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11 {
    /// `(workload, multi-banked L2 W, vector-cache L2 W, 3D config L2 W,
    /// 3D register file W)`.
    pub rows: Vec<(WorkloadKind, f64, f64, f64, f64)>,
}

impl Fig11 {
    /// L2 power saving of the 3D configuration vs the plain vector cache.
    pub fn l2_saving(&self, kind: WorkloadKind) -> f64 {
        let row = self.rows.iter().find(|(k, ..)| *k == kind).expect("workload");
        1.0 - row.3 / row.2
    }
}

impl fmt::Display for Fig11 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 11: memory sub-system average power (watts)")?;
        writeln!(
            f,
            "{:<14} {:>14} {:>14} {:>14} {:>10}",
            "workload", "multi-banked", "vector cache", "vc+3D (L2)", "3D RF"
        )?;
        for (w, mb, vc, v3, rf) in &self.rows {
            writeln!(
                f,
                "{:<14} {mb:>13.3}W {vc:>13.3}W {v3:>13.3}W {rf:>9.3}W",
                w.to_string()
            )?;
        }
        Ok(())
    }
}

/// Figure 11: power from the Rixner-style energy models at 0.18 µm,
/// 1 GHz, 32 L2 sub-arrays.
pub fn fig11(r: &mut Runner) -> Fig11 {
    let process = ProcessParams::default();
    let e_l2 = L2Params::default().access_energy(&process);
    let e_rf = process.regfile_access_energy(&RegFileSpec::dreg_3d());
    let rows = WORKLOADS
        .iter()
        .map(|&kind| {
            let mb = r.metrics(kind, IsaVariant::Mom, MemorySystemKind::MultiBanked, 20);
            let vc = r.metrics(kind, IsaVariant::Mom, MemorySystemKind::VectorCache, 20);
            let v3 = r.metrics(kind, IsaVariant::Mom3d, MemorySystemKind::VectorCache3d, 20);
            let p = |m: mom3d_cpu::Metrics| {
                average_power_watts(m.total_l2_activity(), e_l2, m.cycles, process.freq_hz)
            };
            // 3D RF: one lane write per fetched element + one lane read
            // per moved word.
            let rf_accesses = v3.d3_writes + v3.mov3d_words;
            let rf = average_power_watts(rf_accesses, e_rf, v3.cycles, process.freq_hz);
            (kind, p(mb), p(vc), p(v3), rf)
        })
        .collect();
    Fig11 { rows }
}

/// Per-dimension vector lengths of a MOM variant: `(d1, d2)`.
pub type MomDims = (f64, f64);
/// Per-dimension vector lengths of a MOM+3D variant:
/// `(d1, d2, d3 avg, d3 max)`.
pub type Mom3dDims = (f64, f64, Option<f64>, u64);

/// Table 1 data: memory-instruction vector length per dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// `(workload, MOM dims, MOM+3D dims)`.
    pub rows: Vec<(WorkloadKind, MomDims, Mom3dDims)>,
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 1: memory instruction vector length per dimension")?;
        writeln!(
            f,
            "{:<14} | {:>6} {:>6} | {:>6} {:>6} {:>12}",
            "workload", "1st", "2nd", "1st", "2nd", "3rd (max)"
        )?;
        writeln!(f, "{:<14} | {:^13} | {:^26}", "", "MOM", "MOM + 3D")?;
        for (w, (d1, d2), (e1, e2, d3, mx)) in &self.rows {
            let third = match d3 {
                Some(v) => format!("{v:.1} ({mx})"),
                None => "-".to_string(),
            };
            writeln!(
                f,
                "{:<14} | {d1:>6.1} {d2:>6.1} | {e1:>6.1} {e2:>6.1} {third:>12}",
                w.to_string()
            )?;
        }
        Ok(())
    }
}

/// Table 1: computed from the trace statistics of the MOM and MOM+3D
/// workload variants.
pub fn table1(r: &mut Runner) -> Table1 {
    let rows = WORKLOADS
        .iter()
        .map(|&kind| {
            let s2 = r.workload_arc(kind, IsaVariant::Mom).trace().stats();
            let s3 = r.workload_arc(kind, IsaVariant::Mom3d).trace().stats();
            (
                kind,
                (s2.avg_dim1(), s2.avg_dim2()),
                (s3.avg_dim1(), s3.avg_dim2(), s3.avg_dim3(), s3.dim3_vl_max),
            )
        })
        .collect();
    Table1 { rows }
}

/// Registry-driven backend comparison: the slowdown of *every*
/// registered non-ideal backend versus the MOM-ideal baseline, each
/// under its native ISA variant (MOM+3D when the backend has a 3D
/// register file, plain MOM otherwise).
///
/// Columns come from [`BackendRegistry::entries`], so a backend
/// registered at startup — the built-in `dram-burst` model, or anything
/// added by [`BackendRegistry::register`] — appears without this crate
/// naming it anywhere.
pub fn backend_matrix(r: &mut Runner) -> SlowdownReport {
    let entries: Vec<_> =
        BackendRegistry::entries().into_iter().filter(|e| !e.is_ideal).collect();
    let mut rows = Vec::new();
    for kind in WORKLOADS {
        let base = r.mom_ideal_cycles(kind);
        let vals = entries
            .iter()
            .map(|e| {
                let variant = if e.has_3d { IsaVariant::Mom3d } else { IsaVariant::Mom };
                r.metrics(kind, variant, e.backend_id(), 20).slowdown_vs(base)
            })
            .collect();
        rows.push((kind, vals));
    }
    SlowdownReport {
        title: "Backend matrix: slowdown of every registered memory backend (vs MOM ideal)",
        configs: entries.iter().map(|e| e.display_name).collect(),
        rows,
    }
}

/// Table 2: the two processor configurations, as a formatted report.
pub fn table2() -> String {
    let mmx = ProcessorConfig::mmx();
    let mom = ProcessorConfig::mom();
    let mut s = String::from("Table 2: processor configurations\n");
    let mut row = |name: &str, a: String, b: String| {
        s.push_str(&format!("{name:<24} {a:>8} {b:>8}\n"));
    };
    row("", "MMX".into(), "MOM".into());
    row("fetch rate", mmx.fetch_rate.to_string(), mom.fetch_rate.to_string());
    row("graduation window", mmx.window.to_string(), mom.window.to_string());
    row("load/store queue", mmx.lsq.to_string(), mom.lsq.to_string());
    row("INTEGER issue", mmx.int_issue.to_string(), mom.int_issue.to_string());
    row("INTEGER FUs", mmx.int_units.to_string(), mom.int_units.to_string());
    row("SIMD issue", mmx.simd_issue.to_string(), mom.simd_issue.to_string());
    row(
        "SIMD FUs",
        format!("{}", mmx.simd_units),
        format!("{}x{}", mom.simd_units, mom.simd_lanes),
    );
    row("memory issue", mmx.mem_issue.to_string(), mom.mem_issue.to_string());
    row("L1 memory ports", mmx.l1_ports.to_string(), mom.l1_ports.to_string());
    row(
        "L2 vector memory ports",
        "n/a".into(),
        format!("1x{}", mom.vector_cache.width_words),
    );
    // The organizations themselves come from the backend registry, so
    // this section grows with it; descriptions use the MOM column's
    // actual port parameters, matching the geometry printed above.
    s.push_str("\nvector memory organizations (registered backends):\n");
    let params = mom.backend_params();
    for entry in BackendRegistry::entries() {
        let backend = (entry.build)(&params);
        s.push_str(&format!("  {:<18} {}\n", entry.id, backend.describe()));
    }
    s
}

/// Table 3: register-file areas — reproduced exactly from the wire-track
/// model.
pub fn table3() -> String {
    let mut s = String::from("Table 3: multimedia register file configurations (areas)\n");
    for spec in [
        RegFileSpec::mmx(),
        RegFileSpec::mom(),
        RegFileSpec::accumulator(),
        RegFileSpec::dreg_3d(),
        RegFileSpec::pointer_3d(),
    ] {
        s.push_str(&format!(
            "{:<28} {:>4} regs x {:>5} bits, {:>2}R/{:>2}W: {:>10} wt^2\n",
            spec.name,
            spec.registers,
            spec.bits_per_register,
            spec.read_ports,
            spec.write_ports,
            spec.area_wire_tracks()
        ));
    }
    for cfg in [ConfigArea::mmx(), ConfigArea::mom(), ConfigArea::mom_3d()] {
        s.push_str(&format!(
            "{:<28} total {:>10} wt^2  (normalized {:.2})\n",
            cfg.name,
            cfg.total_wire_tracks(),
            cfg.normalized_to_mmx()
        ));
    }
    s
}

/// Table 4 data: L2 cache activity in accesses.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4 {
    /// `(workload, multi-banked, vector cache, vector cache + 3D)`.
    pub rows: Vec<(WorkloadKind, u64, u64, u64)>,
}

impl Table4 {
    /// Average activity reduction of the vector cache vs multi-banked.
    pub fn vc_reduction(&self) -> f64 {
        avg_reduction(self.rows.iter().map(|(_, mb, vc, _)| (*mb, *vc)))
    }

    /// Average additional reduction of 3D vs the plain vector cache.
    pub fn d3_reduction(&self) -> f64 {
        avg_reduction(self.rows.iter().map(|(_, _, vc, d3)| (*vc, *d3)))
    }
}

fn avg_reduction(pairs: impl Iterator<Item = (u64, u64)>) -> f64 {
    let mut total = 0.0;
    let mut n = 0usize;
    for (base, new) in pairs {
        if base > 0 {
            total += 1.0 - new as f64 / base as f64;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

impl fmt::Display for Table4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 4: L2 cache activity (accesses)")?;
        writeln!(
            f,
            "{:<14} {:>14} {:>14} {:>18}",
            "workload", "multi-banked", "vector cache", "vc + 3D reg file"
        )?;
        for (w, mb, vc, d3) in &self.rows {
            writeln!(f, "{:<14} {mb:>14} {vc:>14} {d3:>18}", w.to_string())?;
        }
        writeln!(
            f,
            "average reduction: vector cache vs multi-banked {:.0}%, +3D vs vector cache {:.0}%",
            self.vc_reduction() * 100.0,
            self.d3_reduction() * 100.0
        )
    }
}

/// Table 4: L2 activity per memory system.
pub fn table4(r: &mut Runner) -> Table4 {
    let rows = WORKLOADS
        .iter()
        .map(|&kind| {
            let mb = r.metrics(kind, IsaVariant::Mom, MemorySystemKind::MultiBanked, 20);
            let vc = r.metrics(kind, IsaVariant::Mom, MemorySystemKind::VectorCache, 20);
            let d3 = r.metrics(kind, IsaVariant::Mom3d, MemorySystemKind::VectorCache3d, 20);
            (kind, mb.total_l2_activity(), vc.total_l2_activity(), d3.total_l2_activity())
        })
        .collect();
    Table4 { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 3 is the one result reproduced exactly from the paper's
    /// wire-track area model: any drift from the committed golden copy
    /// (which CI also diffs against `all`'s stdout) is a regression.
    #[test]
    fn table3_matches_the_committed_golden_copy() {
        assert_eq!(table3(), include_str!("../../../ci/table3.expected.txt"));
    }

    /// Table 2's organizations section is registry-driven: every
    /// registered backend — including the ones no binary names — shows
    /// up with its id and self-description.
    #[test]
    fn table2_enrolls_every_registered_backend() {
        let t = table2();
        for entry in BackendRegistry::entries() {
            let line = format!("  {:<18} ", entry.id);
            assert!(t.contains(&line), "table2 must list backend {:?}:\n{t}", entry.id);
        }
        // The two registry-only backends specifically, by id.
        for id in ["hbm-wide", "pim-vector"] {
            assert!(t.contains(id), "table2 must mention {id}:\n{t}");
        }
    }

    /// The backend matrix auto-enrolls every non-ideal backend: one
    /// column per registry entry under its native ISA variant, with a
    /// finite slowdown on every workload.
    #[test]
    fn backend_matrix_enrolls_registry_only_backends() {
        let mut r = Runner::small(5);
        let m = backend_matrix(&mut r);
        for name in ["die-stacked wide HBM", "memory-side vector (PIM)"] {
            assert!(m.configs.contains(&name), "matrix must have a {name} column: {:?}", m.configs);
        }
        assert!(!m.configs.contains(&"ideal"), "ideal is the baseline, not a column");
        assert_eq!(m.rows.len(), WORKLOADS.len());
        for (kind, vals) in &m.rows {
            assert_eq!(vals.len(), m.configs.len(), "{kind}: one slowdown per backend");
            for (name, v) in m.configs.iter().zip(vals) {
                assert!(v.is_finite() && *v > 0.0, "{kind}/{name}: slowdown {v}");
            }
        }
    }
}
