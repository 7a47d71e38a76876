//! Tables 9–10: isolating the factors behind the traffic-inefficiency
//! gap (associativity, replacement, block size ×2, write-validate).

use crate::audit::Auditor;
use crate::error::{collect_jobs, MembwError};
use crate::report::Table;
use membw_mtc::factors::{factor_gap, factor_gaps, FactorGap, TABLE10_FACTORS};
use membw_runner::Runner;
use membw_sweep::SweepMode;
use membw_workloads::{suite92, Scale};
use serde::{Deserialize, Serialize};

/// The Table 9 grid: per factor, per benchmark.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table9Result {
    /// One entry per (factor, benchmark) cell.
    pub gaps: Vec<FactorGap>,
    /// Capacity used per benchmark (64 KiB; 16 KiB for espresso).
    pub capacities: Vec<(String, u64)>,
}

/// Capacity per benchmark: 64 KiB, except espresso's 16 KiB (its data
/// set is tiny — Table 9's caption).
pub fn capacity_for(name: &str) -> u64 {
    if name == "espresso" {
        16 * 1024
    } else {
        64 * 1024
    }
}

/// Regenerate Table 9 at `scale` with the default sweep engine
/// ([`SweepMode::Stack`]).
///
/// # Errors
///
/// Returns [`MembwError::Jobs`] if any job ultimately failed (after
/// the configured retry budget).
pub fn run(scale: Scale) -> Result<(Table9Result, Vec<Table>), MembwError> {
    run_with(scale, SweepMode::default())
}

/// Regenerate Table 9 at `scale` with an explicit sweep engine,
/// including the Table 10 experiment definitions in the rendered
/// output.
///
/// Under [`SweepMode::Direct`] there is one job per (benchmark, factor)
/// cell, each replaying the trace and simulating both experiments plus
/// the reference MTC from scratch. Under [`SweepMode::Stack`] there is
/// one job per benchmark, computing all five factors in one
/// [`factor_gaps`] shot (shared trace collection, shared next-use
/// indices, each of the six unique experiments simulated once). The
/// merged `gaps` come out benchmark-major, factor-minor, with identical
/// values, in both modes. Jobs are fault-isolated and checkpointed
/// under the batch label `table9` (the key encodes the sweep mode).
///
/// # Errors
///
/// Returns [`MembwError::Jobs`] if any job ultimately failed (after
/// the configured retry budget).
pub fn run_with(scale: Scale, mode: SweepMode) -> Result<(Table9Result, Vec<Table>), MembwError> {
    let suite = suite92(scale);
    let capacities: Vec<(String, u64)> = suite
        .iter()
        .map(|b| (b.name().to_string(), capacity_for(b.name())))
        .collect();
    let n_f = TABLE10_FACTORS.len();
    let gaps: Vec<FactorGap> = match mode {
        SweepMode::Direct => {
            let key = format!("v2/table9/{scale:?}/{mode}/{}x{}", suite.len(), n_f);
            let raw = Runner::default().checkpointed("table9", &key, suite.len() * n_f, |k| {
                let b = &suite[k / n_f];
                let spec = &TABLE10_FACTORS[k % n_f];
                factor_gap(spec, &b.replayable(), capacity_for(b.name()))
            });
            collect_jobs("table9", raw, |k| {
                format!(
                    "{}/{}",
                    suite[k / n_f].name(),
                    TABLE10_FACTORS[k % n_f].name
                )
            })?
            .into_iter()
            .flatten()
            .collect()
        }
        SweepMode::Stack => {
            let key = format!("v2/table9/{scale:?}/{mode}/{}", suite.len());
            let raw = Runner::default().checkpointed("table9", &key, suite.len(), |i| {
                let b = &suite[i];
                factor_gaps(&b.replayable(), capacity_for(b.name()))
            });
            collect_jobs("table9", raw, |i| suite[i].name().to_string())?
                .into_iter()
                .flatten()
                .flatten()
                .collect()
        }
    };

    let mut audit = Auditor::new("table9");
    if mode == SweepMode::Stack && membw_sweep::verify_requested() {
        for g in &gaps {
            let spec = TABLE10_FACTORS
                .iter()
                .find(|s| s.name == g.factor)
                .expect("gap names a Table 10 factor");
            let b = suite
                .iter()
                .find(|b| b.name() == g.workload)
                .expect("gap names a suite benchmark");
            let want = factor_gap(spec, &b.replayable(), g.capacity_bytes);
            let ok = want.as_ref().is_some_and(|w| {
                w.g_exp1.to_bits() == g.g_exp1.to_bits() && w.g_exp2.to_bits() == g.g_exp2.to_bits()
            });
            audit.sweep_exact(&format!("{}/{}", g.workload, g.factor), ok, || {
                format!(
                    "one-shot factor sweep diverged from per-cell measurement: {want:?} vs ({}, {})",
                    g.g_exp1, g.g_exp2
                )
            });
        }
    }
    for g in &gaps {
        let cell = format!("{}/{}", g.workload, g.factor);
        // Both endpoints of a factor gap are Eq. 6 inefficiencies.
        audit.inefficiency(&cell, g.g_exp1);
        audit.inefficiency(&cell, g.g_exp2);
    }
    audit.finish()?;

    // Table 9: rows = factors, columns = benchmarks.
    let mut headers = vec!["Factor".to_string()];
    headers.extend(suite.iter().map(|b| b.name().to_string()));
    let mut t9 = Table::new(
        "Table 9: inefficiency gap G(exp1) - G(exp2) per factor (64KB; espresso 16KB)",
        headers,
    );
    for spec in &TABLE10_FACTORS {
        let mut cells = vec![spec.name.to_string()];
        for b in &suite {
            let v = gaps
                .iter()
                .find(|g| g.factor == spec.name && g.workload == b.name())
                .map(|g| format!("{:.1}", g.delta()))
                .unwrap_or_else(|| "-".to_string());
            cells.push(v);
        }
        t9.row(cells);
    }

    let mut t10 = Table::new(
        "Table 10: experimental parameters per factor",
        ["Factor", "Exp1", "Exp2"].map(String::from).to_vec(),
    );
    for spec in &TABLE10_FACTORS {
        t10.row(vec![
            spec.name.to_string(),
            spec.exp1.label(),
            spec.exp2.label(),
        ]);
    }

    Ok((Table9Result { gaps, capacities }, vec![t9, t10]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_factors_by_benchmarks() {
        let (res, tables) = run(Scale::Test).expect("no faults injected");
        assert_eq!(res.gaps.len(), 5 * 7);
        assert_eq!(tables[0].num_rows(), 5);
        assert_eq!(tables[1].num_rows(), 5);
    }

    #[test]
    fn block_size_is_a_consistently_large_factor() {
        // The paper: "The factor that makes the largest consistent
        // contribution to traffic reduction... is reduction of block
        // size." Check it is the max-mean factor across benchmarks.
        let (res, _) = run(Scale::Test).expect("no faults injected");
        let mean = |name: &str| {
            let xs: Vec<f64> = res
                .gaps
                .iter()
                .filter(|g| g.factor == name)
                .map(|g| g.delta())
                .collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        let block = mean("Blocksize (cache)");
        let replacement = mean("Replacement");
        assert!(
            block > replacement,
            "block-size gap ({block}) should exceed replacement ({replacement})"
        );
    }

    #[test]
    fn stack_and_direct_modes_agree() {
        let (stack, _) = run_with(Scale::Test, SweepMode::Stack).expect("no faults injected");
        let (direct, _) = run_with(Scale::Test, SweepMode::Direct).expect("no faults injected");
        assert_eq!(stack.gaps.len(), direct.gaps.len());
        for (a, b) in stack.gaps.iter().zip(&direct.gaps) {
            assert_eq!(a.factor, b.factor);
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.capacity_bytes, b.capacity_bytes);
            assert_eq!(
                a.g_exp1.to_bits(),
                b.g_exp1.to_bits(),
                "{}/{}",
                a.workload,
                a.factor
            );
            assert_eq!(a.g_exp2.to_bits(), b.g_exp2.to_bits());
        }
    }

    #[test]
    fn espresso_uses_the_small_capacity() {
        let (res, _) = run(Scale::Test).expect("no faults injected");
        let esp = res
            .capacities
            .iter()
            .find(|(n, _)| n == "espresso")
            .expect("espresso present");
        assert_eq!(esp.1, 16 * 1024);
    }
}
