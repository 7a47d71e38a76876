//! Figure 3 + Table 6: execution-time decomposition across experiments
//! A–F for both benchmark suites.

use crate::audit::Auditor;
use crate::error::{collect_jobs, MembwError};
use crate::report::{count_uops, Table};
use membw_runner::Runner;
use membw_sim::{decompose, Decomposition, Experiment, MachineSpec};
use membw_workloads::{suite92, suite95, Scale, Suite};
use serde::{Deserialize, Serialize};

/// One bar of Figure 3.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3Cell {
    /// Benchmark name.
    pub benchmark: String,
    /// Suite the benchmark belongs to.
    pub suite_label: String,
    /// Experiment label (`A`–`F`).
    pub experiment: String,
    /// The three-run decomposition.
    pub decomposition: Decomposition,
    /// Execution time in seconds-equivalent units (cycles / MHz),
    /// normalized to experiment A's `T_P` for the same benchmark —
    /// Figure 3's y-axis.
    pub normalized_time: f64,
}

/// The whole figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3Result {
    /// All bars.
    pub cells: Vec<Fig3Cell>,
}

impl Fig3Result {
    /// Find one cell.
    pub fn cell(&self, benchmark: &str, experiment: &str) -> Option<&Fig3Cell> {
        self.cells
            .iter()
            .find(|c| c.benchmark == benchmark && c.experiment == experiment)
    }

    /// Table 6's comparison rows: `(benchmark, f_L(A), f_B(A), f_L(F),
    /// f_B(F))` as percentages.
    pub fn table6_rows(&self) -> Vec<(String, f64, f64, f64, f64)> {
        let mut names: Vec<String> = self
            .cells
            .iter()
            .map(|c| c.benchmark.clone())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect::<Vec<_>>();
        names.sort();
        names
            .into_iter()
            .filter_map(|n| {
                let a = self.cell(&n, "A")?;
                let f = self.cell(&n, "F")?;
                Some((
                    n,
                    a.decomposition.f_l * 100.0,
                    a.decomposition.f_b * 100.0,
                    f.decomposition.f_l * 100.0,
                    f.decomposition.f_b * 100.0,
                ))
            })
            .collect()
    }
}

/// Run the decomposition for one suite at `scale` over `experiments`.
///
/// Fans the full (benchmark × experiment) matrix out on the run engine
/// — each job replays its benchmark's recorded trace (recorded once per
/// process via the trace cache; regenerated when caching is off) and
/// owns its three simulations — then normalizes and assembles in
/// canonical order, so the result is identical at any `--jobs` setting
/// and with the cache on or off. Jobs are fault-isolated and
/// checkpointed under the batch label `fig3/<suite>`.
///
/// # Errors
///
/// Returns [`MembwError::Jobs`] if any matrix cell ultimately failed
/// (after the configured retry budget); healthy cells stay archived in
/// the checkpoint for a `--resume` rerun. Returns
/// [`MembwError::InvariantViolation`] under `--audit strict` if any
/// cell breaks the Eq. 1–4 identities.
pub fn run_suite(
    suite: Suite,
    scale: Scale,
    experiments: &[Experiment],
) -> Result<Fig3Result, MembwError> {
    let benchmarks = match suite {
        Suite::Spec92 => suite92(scale),
        Suite::Spec95 => suite95(scale),
    };
    let suite_label = match suite {
        Suite::Spec92 => "SPEC92",
        Suite::Spec95 => "SPEC95",
    };
    let spec_for = |e: Experiment| match suite {
        Suite::Spec92 => MachineSpec::spec92(e),
        Suite::Spec95 => MachineSpec::spec95(e),
    };

    if experiments.is_empty() {
        return Ok(Fig3Result { cells: Vec::new() });
    }

    // One job per (benchmark, experiment), benchmark-major.
    let n_e = experiments.len();
    let label = format!("fig3/{suite_label}");
    let exp_labels: Vec<&str> = experiments.iter().map(Experiment::label).collect();
    let key = format!(
        "v1/fig3/{suite_label}/{scale:?}/{}x[{}]",
        benchmarks.len(),
        exp_labels.join(",")
    );
    let raw = Runner::default().checkpointed(&label, &key, benchmarks.len() * n_e, |k| {
        let b = &benchmarks[k / n_e];
        let e = experiments[k % n_e];
        let spec = spec_for(e);
        // Record once, replay for every (experiment × memory-mode) run
        // of this benchmark — and across runner threads.
        let d = decompose(&b.replayable(), &spec);
        count_uops(d.uops);
        let seconds = d.t as f64 / spec.cpu_mhz as f64;
        let tp_seconds = d.t_p as f64 / spec.cpu_mhz as f64;
        (d, seconds, tp_seconds)
    });
    let raw: Vec<(Decomposition, f64, f64)> = collect_jobs(&label, raw, |k| {
        format!(
            "{}/{}",
            benchmarks[k / n_e].name(),
            experiments[k % n_e].label()
        )
    })?;

    // Serial normalization pass: experiment A supplies each benchmark's
    // T_P baseline (Figure 3's y-axis is normalized to A's T_P). When A
    // is not among the requested experiments, fall back — loudly — to
    // the first listed one.
    let base_index = match experiments.iter().position(|&e| e == Experiment::A) {
        Some(ai) => ai,
        None => {
            eprintln!(
                "warning: fig3/{suite_label}: experiment A absent from {exp_labels:?}; \
                 normalizing to experiment {} T_P instead",
                exp_labels[0]
            );
            0
        }
    };
    let mut cells = Vec::new();
    for (bi, b) in benchmarks.iter().enumerate() {
        let base_seconds = raw[bi * n_e + base_index].2;
        for (ei, e) in experiments.iter().enumerate() {
            let (d, seconds, _) = raw[bi * n_e + ei];
            cells.push(Fig3Cell {
                benchmark: b.name().to_string(),
                suite_label: suite_label.to_string(),
                // Experiment labels are &'static str: one allocation
                // per cell, no intermediate formatting.
                experiment: e.label().to_string(),
                decomposition: d,
                normalized_time: seconds / base_seconds,
            });
        }
    }
    // Compare by borrowed keys: no per-comparison String clones.
    cells.sort_by(|x, y| {
        (x.benchmark.as_str(), x.experiment.as_str())
            .cmp(&(y.benchmark.as_str(), y.experiment.as_str()))
    });

    let mut audit = Auditor::new(label);
    for c in &cells {
        let cell = format!("{}/{}", c.benchmark, c.experiment);
        audit.decomposition(&cell, &c.decomposition);
        audit.positive(&cell, "normalized time", c.normalized_time);
    }
    // Under `--analytic assist`, replay every simulated cell through
    // the ECM predictor and assert the prediction's error bound. Runs
    // in this serial post-collect section so checkpoint keys and
    // stdout are untouched.
    if crate::fastpath::assist_enabled() {
        crate::fastpath::assist_fig3(&mut audit, suite, &benchmarks, &cells);
    }
    audit.finish()?;
    Ok(Fig3Result { cells })
}

/// Render a Figure 3 panel as a table (one row per benchmark ×
/// experiment).
pub fn render(result: &Fig3Result, title: &str) -> Table {
    let mut table = Table::new(
        title,
        ["Benchmark", "Exp", "Norm. time", "f_P", "f_L", "f_B", "IPC"]
            .map(String::from)
            .to_vec(),
    );
    for c in &result.cells {
        table.row(vec![
            c.benchmark.clone(),
            c.experiment.clone(),
            format!("{:.2}", c.normalized_time),
            format!("{:.2}", c.decomposition.f_p),
            format!("{:.2}", c.decomposition.f_l),
            format!("{:.2}", c.decomposition.f_b),
            format!("{:.2}", c.decomposition.ipc()),
        ]);
    }
    table
}

/// Render Table 6 from a Figure 3 result.
pub fn render_table6(result: &Fig3Result) -> Table {
    let mut table = Table::new(
        "Table 6: latency vs bandwidth stalls, experiments A and F (percent of execution time)",
        ["Benchmark", "A: f_L%", "A: f_B%", "F: f_L%", "F: f_B%"]
            .map(String::from)
            .to_vec(),
    );
    for (name, fl_a, fb_a, fl_f, fb_f) in result.table6_rows() {
        table.row(vec![
            name,
            format!("{fl_a:.1}"),
            format!("{fb_a:.1}"),
            format!("{fl_f:.1}"),
            format!("{fb_f:.1}"),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposition_fractions_are_valid_everywhere() {
        let r = run_suite(Suite::Spec92, Scale::Test, &[Experiment::A, Experiment::F])
            .expect("no faults injected");
        assert_eq!(r.cells.len(), 14, "7 benchmarks x 2 experiments");
        for c in &r.cells {
            let d = &c.decomposition;
            assert!(
                (d.f_p + d.f_l + d.f_b - 1.0).abs() < 1e-9,
                "{}",
                c.benchmark
            );
            assert!(d.f_p > 0.0);
            assert!(c.normalized_time > 0.0);
        }
    }

    #[test]
    fn bandwidth_stalls_grow_from_a_to_f_on_average() {
        // The paper's thesis: latency tolerance exposes bandwidth stalls.
        let r = run_suite(Suite::Spec92, Scale::Test, &[Experiment::A, Experiment::F])
            .expect("no faults injected");
        let t6 = r.table6_rows();
        assert!(!t6.is_empty());
        let mean_fb_a: f64 = t6.iter().map(|r| r.2).sum::<f64>() / t6.len() as f64;
        let mean_fb_f: f64 = t6.iter().map(|r| r.4).sum::<f64>() / t6.len() as f64;
        assert!(
            mean_fb_f > mean_fb_a,
            "f_B should grow: A {mean_fb_a:.1}% -> F {mean_fb_f:.1}%"
        );
    }

    #[test]
    fn baseline_is_experiment_a_regardless_of_order() {
        // With the experiment list reordered so A is not first, every
        // A cell must still be normalized against its own T_P — i.e.
        // its normalized_time matches its decomposition's.
        let r = run_suite(Suite::Spec92, Scale::Test, &[Experiment::F, Experiment::A])
            .expect("no faults injected");
        for c in r.cells.iter().filter(|c| c.experiment == "A") {
            assert!(
                (c.normalized_time - c.decomposition.normalized_time()).abs() < 1e-9,
                "{}: baseline must come from experiment A, not the first listed",
                c.benchmark
            );
        }
        // And F is normalized against A's T_P, matching the canonical
        // ordering's result.
        let canonical = run_suite(Suite::Spec92, Scale::Test, &[Experiment::A, Experiment::F])
            .expect("no faults injected");
        for (x, y) in r.cells.iter().zip(canonical.cells.iter()) {
            assert_eq!(x.benchmark, y.benchmark);
            assert_eq!(x.experiment, y.experiment);
            assert!((x.normalized_time - y.normalized_time).abs() < 1e-12);
        }
    }

    #[test]
    fn tables_render() {
        let r =
            run_suite(Suite::Spec92, Scale::Test, &[Experiment::A]).expect("no faults injected");
        let t = render(&r, "Figure 3 (SPEC92)");
        assert_eq!(t.num_rows(), 7);
        let t6 = render_table6(&r);
        // Table 6 needs both A and F; with only A it is empty.
        assert_eq!(t6.num_rows(), 0);
    }
}
