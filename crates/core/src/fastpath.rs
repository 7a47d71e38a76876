//! The analytic fast path: machine-spec bridge, assist-mode audit
//! hooks, and analytic-only target renderers.
//!
//! Three entry points, one per `--analytic` mode consumer:
//!
//! * [`ecm_config`] converts a full [`MachineSpec`] into the slice the
//!   ECM predictor reads;
//! * the `assist_*` helpers are called by `run_fig3` / `run_fig4` /
//!   `run_table7` after simulation to feed every simulated cell and
//!   its prediction through the auditor's `analytic-bound` invariant;
//! * [`render_target_analytic`] renders a supported target from
//!   signatures alone — microseconds of arithmetic, no trace arena,
//!   admitted to the memory governor as *light* work (no arena
//!   accounting, never throttled).
//!
//! Analytic output is deliberately **not** byte-compatible with the
//! simulated tables: every analytic table is labelled with the model
//! version and carries a ± relative-bound column, so a prediction can
//! never be mistaken for a measurement.

use crate::audit::Auditor;
use crate::report::{size_label, Table};
use crate::run_fig3::Fig3Cell;
use crate::run_fig4::Fig4Panel;
use crate::run_table7::Table7Row;
use crate::targets::RenderedTarget;
use membw_analytic::ecm::{
    self, AnalyticMode, EcmConfig, TrafficGeometry, MODEL_VERSION, TRIAGE_MAX_REL,
};
use membw_analytic::effective_pin_bandwidth;
use membw_runner::RunCtx;
use membw_sim::{Experiment, MachineSpec};
use membw_workloads::{suite92, suite95, Benchmark, Scale, Suite};

/// `true` when the current thread runs with `--analytic assist`.
pub fn assist_enabled() -> bool {
    RunCtx::current().analytic == AnalyticMode::Assist
}

/// The targets [`render_target_analytic`] can answer.
pub const ANALYTIC_TARGETS: [&str; 3] = ["fig3", "table7", "fig4"];

/// Whether `target` has an analytic rendering.
pub fn analytic_supported(target: &str) -> bool {
    ANALYTIC_TARGETS.contains(&target)
}

/// The slice of a machine specification the ECM model consumes.
pub fn ecm_config(spec: &MachineSpec) -> EcmConfig {
    EcmConfig {
        in_order: spec.core == membw_sim::CoreKind::InOrder,
        blocking: spec.mem.blocking,
        tagged_prefetch: spec.mem.tagged_prefetch,
        issue_width: u64::from(spec.issue_width),
        mispredict_penalty: spec.mispredict_penalty,
        l1_bytes: spec.mem.l1_bytes,
        l1_block: spec.mem.l1_block,
        l2_bytes: spec.mem.l2_bytes,
        l2_block: spec.mem.l2_block,
        l2_latency: spec.mem.l2_latency,
        mem_latency: spec.mem.mem_latency,
        bus1_bytes_per_cycle: spec.mem.bus1_width as f64 / spec.mem.bus1_ratio.max(1) as f64,
        bus2_bytes_per_cycle: spec.mem.bus2_width as f64 / spec.mem.bus2_ratio.max(1) as f64,
    }
}

fn spec_for(suite: Suite, e: Experiment) -> MachineSpec {
    match suite {
        Suite::Spec92 => MachineSpec::spec92(e),
        Suite::Spec95 => MachineSpec::spec95(e),
    }
}

fn calibrating() -> bool {
    std::env::var("MEMBW_ANALYTIC_CALIBRATE").is_ok_and(|v| v == "1")
}

fn calibrate_line(kind: &str, cell: &str, predicted: f64, bound: f64, simulated: f64) {
    if calibrating() {
        let rel_err = if simulated != 0.0 {
            (predicted - simulated).abs() / simulated
        } else {
            f64::INFINITY
        };
        eprintln!(
            "calibrate[{kind}] {cell}: pred={predicted:.1} sim={simulated:.1} \
             rel_err={rel_err:.3} bound={bound:.1}"
        );
    }
}

/// Assist hook for Figure 3: check every simulated decomposition cell
/// against the predicted total cycle count.
pub(crate) fn assist_fig3(
    audit: &mut Auditor,
    suite: Suite,
    benchmarks: &[Benchmark],
    cells: &[Fig3Cell],
) {
    for b in benchmarks {
        let sig = b.signature();
        for c in cells.iter().filter(|c| c.benchmark == b.name()) {
            let Some(&e) = Experiment::ALL.iter().find(|e| e.label() == c.experiment) else {
                continue;
            };
            let cfg = ecm_config(&spec_for(suite, e));
            let Some(pred) = ecm::predict_time(&sig.kernel, &cfg) else {
                continue;
            };
            let cell = format!("{}/{}", c.benchmark, c.experiment);
            let simulated = c.decomposition.t as f64;
            calibrate_line("fig3", &cell, pred.cycles, pred.bound, simulated);
            audit.analytic_bound(&cell, pred.model, pred.cycles, pred.bound, simulated);
        }
    }
}

/// Assist hook for Table 7: check every in-range traffic-ratio cell
/// against the predicted ratio for a direct-mapped 32 B-block cache.
pub(crate) fn assist_table7(audit: &mut Auditor, benchmarks: &[Benchmark], rows: &[Table7Row]) {
    for row in rows {
        let Some(b) = benchmarks.iter().find(|b| b.name() == row.name) else {
            continue;
        };
        let sig = b.signature();
        for (size, ratio) in &row.ratios {
            let Some(simulated) = ratio else { continue };
            let Some(pred) =
                ecm::predict_traffic(&sig.kernel, 32, *size, TrafficGeometry::Assoc { ways: 1 })
            else {
                continue;
            };
            let Some((r, r_bound)) = pred.ratio(sig.kernel.request_bytes) else {
                continue;
            };
            let cell = format!("{} @ {}", row.name, size_label(*size));
            calibrate_line("table7", &cell, r, r_bound, *simulated);
            audit.analytic_bound(&cell, pred.model, r, r_bound, *simulated);
        }
    }
}

/// The `(block granularity, geometry)` behind a Figure 4 curve label.
fn curve_geometry(label: &str) -> Option<(u64, TrafficGeometry)> {
    if let Some(block) = label.strip_suffix("B blocks") {
        let block: u64 = block.parse().ok()?;
        return Some((block, TrafficGeometry::Assoc { ways: 4 }));
    }
    match label {
        // The MTC requests at word (4 B) granularity, §5.2.
        "MTC write-allocate" => Some((4, TrafficGeometry::MtcAllocate)),
        "MTC write-validate" => Some((4, TrafficGeometry::MtcValidate)),
        _ => None,
    }
}

/// Assist hook for Figure 4: check every simulated `(curve, capacity)`
/// traffic point against the predicted byte count.
pub(crate) fn assist_fig4(audit: &mut Auditor, benchmarks: &[Benchmark], panels: &[Fig4Panel]) {
    for panel in panels {
        let Some(b) = benchmarks.iter().find(|b| b.name() == panel.name) else {
            continue;
        };
        let sig = b.signature();
        for curve in &panel.curves {
            let Some((block, geom)) = curve_geometry(&curve.label) else {
                continue;
            };
            for &(capacity, traffic) in &curve.points {
                let Some(pred) = ecm::predict_traffic(&sig.kernel, block, capacity, geom) else {
                    continue;
                };
                let cell = format!("{}/{} @ {}", panel.name, curve.label, size_label(capacity));
                calibrate_line("fig4", &cell, pred.bytes, pred.bound, traffic as f64);
                audit.analytic_bound(&cell, pred.model, pred.bytes, pred.bound, traffic as f64);
            }
        }
    }
}

/// One analytic rendering plus the worst relative bound across its
/// cells (the serve triage signal).
pub struct AnalyticRender {
    /// The rendered output (stdout + artifacts, like a simulated run).
    pub rendered: RenderedTarget,
    /// Worst `bound / prediction` over every rendered cell.
    pub worst_rel: f64,
    /// Model version that produced the render (serve provenance).
    pub model: &'static str,
}

impl AnalyticRender {
    /// `true` when every rendered cell's relative bound is within the
    /// serve-triage threshold ([`TRIAGE_MAX_REL`]).
    pub fn is_tight(&self) -> bool {
        self.worst_rel <= TRIAGE_MAX_REL
    }
}

fn fig3_analytic(scale: Scale) -> AnalyticRender {
    let mut out = RenderedTarget {
        stdout: String::new(),
        artifacts: Vec::new(),
    };
    let mut worst_rel = 0.0f64;
    for (suite, label) in [(Suite::Spec92, "SPEC92"), (Suite::Spec95, "SPEC95")] {
        let benchmarks = match suite {
            Suite::Spec92 => suite92(scale),
            Suite::Spec95 => suite95(scale),
        };
        let mut table = Table::new(
            format!("Figure 3 ({label} benchmarks) — analytic {MODEL_VERSION} prediction"),
            [
                "Benchmark",
                "Exp",
                "Norm. time",
                "f_P",
                "f_L",
                "f_B",
                "±rel",
            ]
            .map(String::from)
            .to_vec(),
        );
        for b in &benchmarks {
            let sig = b.signature();
            let spec_a = spec_for(suite, Experiment::A);
            let base = ecm::predict_time(&sig.kernel, &ecm_config(&spec_a))
                .expect("signature covers the Table 4-5 block sizes");
            let base_tp_seconds = base.t_p / spec_a.cpu_mhz as f64;
            for e in Experiment::ALL {
                let spec = spec_for(suite, e);
                let pred = ecm::predict_time(&sig.kernel, &ecm_config(&spec))
                    .expect("signature covers the Table 4-5 block sizes");
                worst_rel = worst_rel.max(pred.rel_bound());
                let seconds = pred.cycles / spec.cpu_mhz as f64;
                table.row(vec![
                    b.name().to_string(),
                    e.label().to_string(),
                    format!("{:.2}", seconds / base_tp_seconds),
                    format!("{:.2}", pred.t_p / pred.cycles),
                    format!("{:.2}", pred.t_l / pred.cycles),
                    format!("{:.2}", pred.t_b / pred.cycles),
                    format!("{:.2}", pred.rel_bound()),
                ]);
            }
        }
        out.stdout.push_str(&table.render());
        out.stdout.push('\n');
    }
    AnalyticRender {
        rendered: out,
        worst_rel,
        model: ecm::MODEL_VERSION,
    }
}

fn table7_analytic(scale: Scale) -> AnalyticRender {
    let suite = suite92(scale);
    let mut worst_rel = 0.0f64;
    let mut rows: Vec<(String, Vec<Option<f64>>)> = Vec::new();
    let mut reasonable: Vec<f64> = Vec::new();
    for b in &suite {
        let sig = b.signature();
        let mut cells = Vec::new();
        for &size in &crate::run_table7::SIZES {
            if size >= b.footprint_bytes {
                cells.push(None);
                continue;
            }
            let ratio =
                ecm::predict_traffic(&sig.kernel, 32, size, TrafficGeometry::Assoc { ways: 1 })
                    .and_then(|p| {
                        worst_rel = worst_rel.max(p.rel_bound());
                        p.ratio(sig.kernel.request_bytes).map(|(r, _)| r)
                    });
            if let Some(r) = ratio {
                if size >= 64 * 1024 {
                    reasonable.push(r);
                }
            }
            cells.push(ratio);
        }
        rows.push((b.name().to_string(), cells));
    }
    let mean = if reasonable.is_empty() {
        0.0
    } else {
        reasonable.iter().sum::<f64>() / reasonable.len() as f64
    };
    let epin = if mean > 0.0 {
        effective_pin_bandwidth(800.0, &[mean])
    } else {
        800.0
    };

    let mut headers = vec!["Trace".to_string()];
    headers.extend(crate::run_table7::SIZES.iter().map(|&s| size_label(s)));
    let mut table = Table::new(
        format!(
            "Table 7 — analytic {MODEL_VERSION} prediction, 32B-block direct-mapped \
             (mean >=64KB cells: {mean:.2}; E_pin @800MB/s = {epin:.0} MB/s)"
        ),
        headers,
    );
    for (name, cells) in &rows {
        let mut row = vec![name.clone()];
        row.extend(cells.iter().map(|v| match v {
            Some(x) => format!("{x:.2}"),
            None => "<<<".to_string(),
        }));
        table.row(row);
    }
    let mut out = RenderedTarget {
        stdout: String::new(),
        artifacts: Vec::new(),
    };
    out.stdout.push_str(&table.render());
    out.stdout.push('\n');
    AnalyticRender {
        rendered: out,
        worst_rel,
        model: ecm::MODEL_VERSION,
    }
}

fn fig4_analytic(scale: Scale) -> AnalyticRender {
    let suite = suite92(scale);
    let panel_names = ["compress", "eqntott", "swm"];
    let mut labels: Vec<String> = crate::run_fig4::BLOCK_SIZES
        .iter()
        .map(|b| format!("{b}B blocks"))
        .collect();
    labels.push("MTC write-allocate".to_string());
    labels.push("MTC write-validate".to_string());

    let mut out = RenderedTarget {
        stdout: String::new(),
        artifacts: Vec::new(),
    };
    let mut worst_rel = 0.0f64;
    for name in panel_names {
        let b = suite
            .iter()
            .find(|b| b.name() == name)
            .expect("panel benchmark exists in SPEC92 suite");
        let sig = b.signature();
        let mut table = Table::new(
            format!(
                "Figure 4 ({name}) — analytic {MODEL_VERSION} prediction: traffic in KB vs size"
            ),
            {
                let mut h = vec!["Size".to_string()];
                h.extend(labels.iter().cloned());
                h
            },
        );
        for s in crate::run_fig4::sizes() {
            let mut cells = vec![size_label(s)];
            for label in &labels {
                let (block, geom) = curve_geometry(label).expect("labels are well-formed");
                // Match the simulated figure's omission rule: a 4-way
                // set needs block × 4 bytes of capacity.
                let invalid = matches!(geom, TrafficGeometry::Assoc { .. }) && block * 4 > s;
                let v = if invalid {
                    None
                } else {
                    ecm::predict_traffic(&sig.kernel, block, s, geom).map(|p| {
                        worst_rel = worst_rel.max(p.rel_bound());
                        format!("{:.0}", p.bytes / 1024.0)
                    })
                };
                cells.push(v.unwrap_or_else(|| "-".to_string()));
            }
            table.row(cells);
        }
        out.stdout.push_str(&table.render());
        out.stdout.push('\n');
    }
    AnalyticRender {
        rendered: out,
        worst_rel,
        model: ecm::MODEL_VERSION,
    }
}

/// Render `target` from trace signatures alone.
///
/// Returns `None` for targets without an analytic model (the caller
/// falls back to simulation). The computation is admitted to the
/// memory governor as *light* work: it holds no trace arena, so it
/// never counts toward the degradation ladder's in-flight estimate.
pub fn render_target_analytic(target: &str, scale: Scale) -> Option<AnalyticRender> {
    if !analytic_supported(target) {
        return None;
    }
    let _light = RunCtx::current().governor.admit_light();
    Some(match target {
        "fig3" => fig3_analytic(scale),
        "table7" => table7_analytic(scale),
        "fig4" => fig4_analytic(scale),
        _ => unreachable!("analytic_supported gates the target list"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecm_config_mirrors_the_machine_spec() {
        let spec = MachineSpec::spec92(Experiment::A);
        let cfg = ecm_config(&spec);
        assert!(cfg.in_order);
        assert!(cfg.blocking);
        assert!(!cfg.tagged_prefetch);
        assert_eq!(cfg.l1_bytes, 128 * 1024);
        assert_eq!(cfg.l2_latency, 9);
        assert_eq!(cfg.mispredict_penalty, spec.mispredict_penalty);
        assert!((cfg.bus1_bytes_per_cycle - 16.0 / 3.0).abs() < 1e-12);
        let f = ecm_config(&MachineSpec::spec95(Experiment::F));
        assert!(!f.in_order);
        assert!(f.tagged_prefetch);
    }

    #[test]
    fn curve_labels_map_to_geometries() {
        assert_eq!(
            curve_geometry("32B blocks"),
            Some((32, TrafficGeometry::Assoc { ways: 4 }))
        );
        assert_eq!(
            curve_geometry("MTC write-validate"),
            Some((4, TrafficGeometry::MtcValidate))
        );
        assert_eq!(curve_geometry("nonsense"), None);
    }

    #[test]
    fn analytic_targets_are_a_subset_of_renderables() {
        for t in ANALYTIC_TARGETS {
            assert!(crate::targets::renderable(t), "{t}");
            assert!(analytic_supported(t));
        }
        assert!(!analytic_supported("table8"));
        assert!(!analytic_supported("dump"));
    }

    #[test]
    fn analytic_renders_are_deterministic_and_labelled() {
        let a = render_target_analytic("table7", Scale::Test).expect("supported");
        let b = render_target_analytic("table7", Scale::Test).expect("supported");
        assert_eq!(a.rendered.stdout, b.rendered.stdout);
        assert!(a.rendered.stdout.contains(MODEL_VERSION));
        assert!(a.worst_rel.is_finite());
        assert_eq!(a.worst_rel.to_bits(), b.worst_rel.to_bits());
        assert!(render_target_analytic("table8", Scale::Test).is_none());
    }
}
