//! Figure 4: total traffic vs. cache (and MTC) size, log-log, for
//! Compress, Eqntott, and Swm — 4-way set-associative caches with block
//! sizes 4 B – 128 B, plus the write-allocate and write-validate MTCs.

use crate::audit::Auditor;
use crate::error::{collect_jobs, MembwError};
use crate::report::{size_label, Table};
use membw_cache::{Associativity, Cache, CacheConfig};
use membw_mtc::{min_sweep, MinCache, MinConfig, MinWritePolicy};
use membw_runner::Runner;
use membw_sweep::{sweep_lru, SweepMode, SweepSpec};
use membw_trace::{MemRef, Workload};
use membw_workloads::{suite92, Scale};
use serde::{Deserialize, Serialize};

/// The block sizes of the figure's six cache curves.
pub const BLOCK_SIZES: [u64; 6] = [4, 8, 16, 32, 64, 128];

/// One curve: traffic (bytes) per cache size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Curve {
    /// Curve label (`"32B blocks"`, `"MTC write-validate"`, …).
    pub label: String,
    /// `(capacity_bytes, traffic_bytes)` points; capacities where the
    /// geometry is invalid (block × 4 ways > size) are omitted.
    pub points: Vec<(u64, u64)>,
}

/// One benchmark's panel of Figure 4.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Panel {
    /// Benchmark name.
    pub name: String,
    /// Six cache curves plus the two MTC curves.
    pub curves: Vec<Curve>,
}

/// Cache sizes swept (64 B – 4 MB, the figure's x-axis).
pub fn sizes() -> Vec<u64> {
    (6..=22).map(|p| 1u64 << p).collect()
}

fn cache_traffic(refs: &[MemRef], size: u64, block: u64) -> Option<u64> {
    let cfg = match CacheConfig::builder(size, block)
        .associativity(Associativity::Ways(4))
        .build()
    {
        Ok(cfg) => cfg,
        // Block × 4 ways exceeding the size is the figure's expected
        // reason to omit a point; anything else is a real bug and must
        // not be silently dropped as "invalid geometry".
        Err(e) if e.is_geometry_limit() => return None,
        Err(e) => {
            eprintln!("fig4: unexpected config error at size {size}, block {block}: {e}");
            return None;
        }
    };
    let mut c = Cache::new(cfg);
    for &r in refs {
        c.access(r);
    }
    Some(c.flush().traffic_below())
}

/// The `(capacity, traffic)` points of one curve, by either engine.
/// Both paths derive every byte count from the same integer counters,
/// so the results are identical (the stack engine is validated against
/// direct simulation cell by cell).
fn curve_points(refs: &[MemRef], spec: &CurveSpec, mode: SweepMode) -> Vec<(u64, u64)> {
    let caps = sizes();
    match (*spec, mode) {
        (CurveSpec::Cache { block }, SweepMode::Direct) => caps
            .into_iter()
            .filter_map(|s| cache_traffic(refs, s, block).map(|t| (s, t)))
            .collect(),
        (CurveSpec::Cache { block }, SweepMode::Stack) => {
            let sweep = SweepSpec::new(block).associativity(Associativity::Ways(4));
            sweep_lru(&sweep, &caps, refs)
                .into_iter()
                .zip(caps)
                .filter_map(|(stats, s)| stats.map(|st| (s, st.traffic_below())))
                .collect()
        }
        (CurveSpec::Mtc { write }, SweepMode::Direct) => caps
            .into_iter()
            .map(|s| {
                let cfg = MinConfig::new(s, 4, write, true);
                (s, MinCache::simulate(&cfg, refs).traffic_below())
            })
            .collect(),
        (CurveSpec::Mtc { write }, SweepMode::Stack) => {
            let cfgs: Vec<MinConfig> = caps
                .iter()
                .map(|&s| MinConfig::new(s, 4, write, true))
                .collect();
            min_sweep(&cfgs, refs)
                .into_iter()
                .zip(caps)
                .map(|(st, s)| (s, st.traffic_below()))
                .collect()
        }
    }
}

/// The curves of one Figure 4 panel: six cache block sizes, then the
/// two MTC write policies.
#[derive(Debug, Clone, Copy)]
enum CurveSpec {
    Cache { block: u64 },
    Mtc { write: MinWritePolicy },
}

impl CurveSpec {
    fn all() -> Vec<CurveSpec> {
        let mut v: Vec<CurveSpec> = BLOCK_SIZES
            .iter()
            .map(|&block| CurveSpec::Cache { block })
            .collect();
        v.push(CurveSpec::Mtc {
            write: MinWritePolicy::Allocate,
        });
        v.push(CurveSpec::Mtc {
            write: MinWritePolicy::Validate,
        });
        v
    }

    fn label(&self) -> String {
        match self {
            CurveSpec::Cache { block } => format!("{block}B blocks"),
            CurveSpec::Mtc {
                write: MinWritePolicy::Allocate,
            } => "MTC write-allocate".to_string(),
            CurveSpec::Mtc {
                write: MinWritePolicy::Validate,
            } => "MTC write-validate".to_string(),
        }
    }
}

/// Regenerate Figure 4 at `scale` for the three panel benchmarks, with
/// the default sweep engine ([`SweepMode::Stack`]).
///
/// # Errors
///
/// Returns [`MembwError::Jobs`] if any (panel, curve) job ultimately
/// failed (after the configured retry budget).
pub fn run(scale: Scale) -> Result<(Vec<Fig4Panel>, Vec<Table>), MembwError> {
    run_with(scale, SweepMode::default())
}

/// Regenerate Figure 4 at `scale` with an explicit sweep engine.
///
/// One run-engine job per (panel, curve) — 3 × 8 — each regenerating
/// the panel's trace; curves merge back panel-major in the figure's
/// fixed curve order. Jobs are fault-isolated and checkpointed under
/// the batch label `fig4` (the key encodes the sweep mode). Under
/// [`SweepMode::Stack`] each cache curve is one [`sweep_lru`] pass and
/// each MTC curve one [`min_sweep`] pass instead of seventeen
/// independent simulations; stdout and the returned values are
/// byte-identical between modes.
///
/// # Errors
///
/// Returns [`MembwError::Jobs`] if any (panel, curve) job ultimately
/// failed (after the configured retry budget).
pub fn run_with(scale: Scale, mode: SweepMode) -> Result<(Vec<Fig4Panel>, Vec<Table>), MembwError> {
    let suite = suite92(scale);
    let panel_names = ["compress", "eqntott", "swm"];
    let curve_specs = CurveSpec::all();
    let n_c = curve_specs.len();
    let key = format!("v2/fig4/{scale:?}/{mode}/{}x{}", panel_names.len(), n_c);
    let raw = Runner::default().checkpointed("fig4", &key, panel_names.len() * n_c, |k| {
        let name = panel_names[k / n_c];
        let spec = &curve_specs[k % n_c];
        let b = suite
            .iter()
            .find(|b| b.name() == name)
            .expect("panel benchmark exists in SPEC92 suite");
        let refs = b.replayable().collect_mem_refs();
        Curve {
            label: spec.label(),
            points: curve_points(&refs, spec, mode),
        }
    });
    let all_curves: Vec<Curve> = collect_jobs("fig4", raw, |k| {
        format!("{}/{}", panel_names[k / n_c], curve_specs[k % n_c].label())
    })?;

    let mut audit = Auditor::new("fig4");
    if mode == SweepMode::Stack && membw_sweep::verify_requested() {
        for (k, curve) in all_curves.iter().enumerate() {
            let name = panel_names[k / n_c];
            let spec = &curve_specs[k % n_c];
            let b = suite
                .iter()
                .find(|b| b.name() == name)
                .expect("panel benchmark exists in SPEC92 suite");
            let refs = b.replayable().collect_mem_refs();
            let direct = curve_points(&refs, spec, SweepMode::Direct);
            audit.sweep_exact(
                &format!("{name}/{}", curve.label),
                direct == curve.points,
                || {
                    let diff = direct
                        .iter()
                        .zip(&curve.points)
                        .find(|(d, s)| d != s)
                        .map(|(d, s)| format!("direct {d:?} vs swept {s:?}"))
                        .unwrap_or_else(|| {
                            format!(
                                "{} direct vs {} swept points",
                                direct.len(),
                                curve.points.len()
                            )
                        });
                    format!("stack sweep diverged from direct simulation: {diff}")
                },
            );
        }
    }
    let mut panels = Vec::new();
    let mut tables = Vec::new();
    for (pi, name) in panel_names.iter().enumerate() {
        let curves: Vec<Curve> =
            all_curves[pi * curve_specs.len()..(pi + 1) * curve_specs.len()].to_vec();

        // §5: at every shared capacity, the write-validate MTC moves no
        // more bytes than any real cache curve.
        if let Some(wv) = curves.iter().find(|c| c.label == "MTC write-validate") {
            for c in curves.iter().filter(|c| c.label.ends_with("blocks")) {
                for &(s, t) in &c.points {
                    if let Some(&(_, m)) = wv.points.iter().find(|(cap, _)| *cap == s) {
                        audit.mtc_bound(&format!("{name}/{} @ {}", c.label, size_label(s)), m, t);
                    }
                }
            }
        }

        let mut table = Table::new(
            format!("Figure 4 ({name}): traffic in KB vs cache/MTC size"),
            {
                let mut h = vec!["Size".to_string()];
                h.extend(curves.iter().map(|c| c.label.clone()));
                h
            },
        );
        for s in sizes() {
            let mut cells = vec![size_label(s)];
            for c in &curves {
                let v = c
                    .points
                    .iter()
                    .find(|(cap, _)| *cap == s)
                    .map(|(_, t)| format!("{:.0}", *t as f64 / 1024.0))
                    .unwrap_or_else(|| "-".to_string());
                cells.push(v);
            }
            table.row(cells);
        }
        tables.push(table);
        panels.push(Fig4Panel {
            name: name.to_string(),
            curves,
        });
    }
    // Under `--analytic assist`, check every simulated traffic point
    // against the ECM prediction and its bound (serial section;
    // checkpoint keys and stdout are untouched).
    if crate::fastpath::assist_enabled() {
        crate::fastpath::assist_fig4(&mut audit, &suite, &panels);
    }
    audit.finish()?;
    Ok((panels, tables))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mtc_curves_lower_bound_everything() {
        let (panels, _) = run(Scale::Test).expect("no faults injected");
        assert_eq!(panels.len(), 3);
        for p in &panels {
            let wv = p
                .curves
                .iter()
                .find(|c| c.label == "MTC write-validate")
                .expect("WV curve");
            for c in p.curves.iter().filter(|c| c.label.ends_with("blocks")) {
                for &(s, t) in &c.points {
                    let m = wv
                        .points
                        .iter()
                        .find(|(cap, _)| *cap == s)
                        .expect("same sizes");
                    assert!(
                        m.1 <= t,
                        "{}: MTC above a cache at {s} ({} vs {t})",
                        p.name,
                        m.1
                    );
                }
            }
        }
    }

    #[test]
    fn compress_traffic_rises_with_block_size() {
        // The paper: "Compress has little spatial locality... any increase
        // in block size causes a corresponding increase in traffic."
        let (panels, _) = run(Scale::Test).expect("no faults injected");
        let compress = &panels[0];
        assert_eq!(compress.name, "compress");
        let at = |label: &str, size: u64| {
            compress
                .curves
                .iter()
                .find(|c| c.label == label)
                .and_then(|c| c.points.iter().find(|(s, _)| *s == size))
                .map(|(_, t)| *t)
        };
        let size = 16 * 1024;
        let t4 = at("4B blocks", size).expect("point");
        let t128 = at("128B blocks", size).expect("point");
        assert!(t128 > 2 * t4, "128B should waste traffic: {t128} vs {t4}");
    }

    #[test]
    fn stack_and_direct_modes_agree() {
        let (stack, _) = run_with(Scale::Test, SweepMode::Stack).expect("no faults injected");
        let (direct, _) = run_with(Scale::Test, SweepMode::Direct).expect("no faults injected");
        assert_eq!(stack.len(), direct.len());
        for (a, b) in stack.iter().zip(&direct) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.curves.len(), b.curves.len());
            for (ca, cb) in a.curves.iter().zip(&b.curves) {
                assert_eq!(ca.label, cb.label);
                assert_eq!(ca.points, cb.points, "{}/{}", a.name, ca.label);
            }
        }
    }

    #[test]
    fn traffic_is_monotone_nonincreasing_for_mtc() {
        let (panels, _) = run(Scale::Test).expect("no faults injected");
        for p in &panels {
            let wv = p
                .curves
                .iter()
                .find(|c| c.label.contains("validate"))
                .unwrap();
            for w in wv.points.windows(2) {
                assert!(
                    w[1].1 <= w[0].1 + 64,
                    "{}: MTC traffic must fall with capacity",
                    p.name
                );
            }
        }
    }
}
