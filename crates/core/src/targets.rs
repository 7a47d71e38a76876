//! Target registry and the shared target renderer.
//!
//! Both front ends — the `repro` CLI and the `membw serve` daemon —
//! answer the same question: "render table/figure X at scale Y". This
//! module is the single implementation behind both. The CLI prints
//! [`RenderedTarget::stdout`] verbatim and archives the JSON artifacts
//! under `--json DIR`; the daemon returns the same string over the
//! wire and keys its crash-safe result store by `(target, scale,
//! sweep)`. Because both paths call [`render_target`], the serve soak
//! test's "every response is byte-identical to the CLI run" criterion
//! is checked against literally the same bytes.
//!
//! The registry constants ([`TARGETS`], [`ALL_TARGETS`],
//! [`validate_target`], [`parse_scale`]) migrated here from the bench
//! crate so the serve crate can validate requests without depending on
//! the binary's crate (`membw-bench` re-exports them for
//! compatibility).

use crate::analytic::pins::{dataset, Series};
use crate::error::MembwError;
use crate::plot::AsciiPlot;
use crate::report::Table;
use crate::sim::{Experiment, MachineSpec};
use crate::sweep::SweepMode;
use crate::workloads::{Scale, Suite};
use crate::{
    run_ablation, run_dram, run_epin, run_extrapolation, run_fig1, run_fig2, run_fig3, run_fig4,
    run_interference, run_speculation, run_swprefetch, run_table1, run_table2, run_table3,
    run_table7, run_table8, run_table9,
};

/// Parse a `--scale` / request scale value.
///
/// # Errors
///
/// Returns the offending string if it is not `test`, `small`, or
/// `full`.
pub fn parse_scale(s: &str) -> Result<Scale, String> {
    match s {
        "test" => Ok(Scale::Test),
        "small" => Ok(Scale::Small),
        "full" => Ok(Scale::Full),
        other => Err(format!(
            "unknown scale '{other}' (expected test|small|full)"
        )),
    }
}

/// All targets `repro` understands, including the `all` meta-target.
pub const TARGETS: [&str; 20] = [
    "fig1",
    "table1",
    "fig2",
    "table2",
    "table3",
    "params",
    "fig3",
    "table6",
    "table7",
    "table8",
    "fig4",
    "table9",
    "epin",
    "extrapolate",
    "ablation",
    "interference",
    "dram",
    "speculation",
    "swprefetch",
    "dump",
];

/// The leaf targets the `all` meta-target expands to, in `repro`'s
/// output order (fig3 runs last: it is by far the slowest). This is the
/// single source of truth — the `repro` binary imports it rather than
/// maintaining its own copy, and a test pins it against [`TARGETS`].
pub const ALL_TARGETS: [&str; 18] = [
    "fig1",
    "table1",
    "fig2",
    "table2",
    "table3",
    "params",
    "table7",
    "table8",
    "fig4",
    "table9",
    "epin",
    "extrapolate",
    "ablation",
    "interference",
    "dram",
    "speculation",
    "swprefetch",
    "fig3",
];

/// Levenshtein edit distance (iterative two-row form) — small inputs
/// only, used for the "did you mean" hint.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Validate a target name up front.
///
/// # Errors
///
/// For an unknown target, returns an error message that includes a
/// "did you mean" suggestion when some known target is within edit
/// distance 3.
pub fn validate_target(target: &str) -> Result<(), String> {
    if target == "all" || TARGETS.contains(&target) {
        return Ok(());
    }
    let best = TARGETS
        .iter()
        .map(|t| (edit_distance(target, t), *t))
        .min()
        .filter(|(d, _)| *d <= 3);
    match best {
        Some((_, suggestion)) => Err(format!(
            "unknown target '{target}' (did you mean '{suggestion}'?)"
        )),
        None => Err(format!(
            "unknown target '{target}' (run with --help for the list)"
        )),
    }
}

/// Whether [`render_target`] can serve this target: every known leaf
/// except `dump` (a filesystem utility, not a table) and the `all`
/// meta-target (front ends expand it to [`ALL_TARGETS`] themselves).
pub fn renderable(target: &str) -> bool {
    target != "dump" && target != "all" && TARGETS.contains(&target)
}

/// One JSON artifact a target produces alongside its stdout (the CLI
/// archives these under `--json DIR` as `<name>.json`).
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Artifact stem (`table7`, `fig3_spec92`, …).
    pub name: String,
    /// Pretty-printed JSON body.
    pub json: String,
}

/// The complete observable output of one target run.
#[derive(Debug, Clone)]
pub struct RenderedTarget {
    /// Exactly the bytes the `repro` CLI prints on stdout for this
    /// target — the byte-identity contract both front ends share.
    pub stdout: String,
    /// JSON archives, in the order the CLI writes them.
    pub artifacts: Vec<Artifact>,
}

impl RenderedTarget {
    fn block(&mut self, text: &str) {
        self.stdout.push_str(text);
        self.stdout.push('\n');
    }

    fn emit(&mut self, name: &str, table: &Table, json: Option<String>) {
        self.block(&table.render());
        if let Some(json) = json {
            self.artifacts.push(Artifact {
                name: name.to_string(),
                json,
            });
        }
    }
}

fn params_table(suite: &str, spec_for: impl Fn(Experiment) -> MachineSpec) -> Table {
    let mut t = Table::new(
        format!("Tables 4-5: machine parameters ({suite})"),
        [
            "Exp", "Core", "RUU", "LSQ", "Bpred", "MHz", "L1", "L1 blk", "L2", "L2 blk", "L1 kind",
            "Prefetch",
        ]
        .map(String::from)
        .to_vec(),
    );
    for e in Experiment::ALL {
        let m = spec_for(e);
        t.row(vec![
            e.label().to_string(),
            format!("{:?}", m.core),
            m.ruu_slots.to_string(),
            m.lsq_entries.to_string(),
            m.bpred_entries.to_string(),
            m.cpu_mhz.to_string(),
            format!("{}KB", m.mem.l1_bytes / 1024),
            format!("{}B", m.mem.l1_block),
            format!("{}KB", m.mem.l2_bytes / 1024),
            format!("{}B", m.mem.l2_block),
            if m.mem.blocking {
                "blocking"
            } else {
                "lockup-free"
            }
            .to_string(),
            if m.mem.tagged_prefetch { "tagged" } else { "-" }.to_string(),
        ]);
    }
    t
}

/// Run one renderable leaf target and capture its complete output.
///
/// The returned [`RenderedTarget::stdout`] is byte-for-byte what the
/// `repro` CLI prints for the same `(target, scale, sweep)`; the
/// auditor, governor, checkpoint store, and sweep engine all apply
/// through the current [`RunCtx`](membw_runner::RunCtx) exactly as in a CLI run.
///
/// # Errors
///
/// Propagates the target's own failure ([`MembwError`]): failed jobs,
/// strict-audit invariant violations, trace I/O.
///
/// # Panics
///
/// Panics if `target` is not [`renderable`] — callers validate first
/// (the CLI via [`validate_target`] plus its own `dump` handling, the
/// daemon by rejecting non-renderable requests before dispatch).
pub fn render_target(
    target: &str,
    scale: Scale,
    sweep: SweepMode,
) -> Result<RenderedTarget, MembwError> {
    let mut out = RenderedTarget {
        stdout: String::new(),
        artifacts: Vec::new(),
    };
    match target {
        "fig1" => {
            let (res, table) = run_fig1::run()?;
            out.emit("fig1", &table, serde_json::to_string_pretty(&res).ok());
            for (label, series) in [
                ("Figure 1a: pins vs year (log y)", Series::Pins),
                ("Figure 1b: MIPS/pin vs year (log y)", Series::MipsPerPin),
                (
                    "Figure 1c: MIPS/(pin MB/s) vs year (log y)",
                    Series::MipsPerBandwidth,
                ),
            ] {
                let pts: Vec<(f64, f64)> = dataset()
                    .iter()
                    .map(|pr| (f64::from(pr.year), series.value(pr)))
                    .collect();
                let plot = AsciiPlot::new(label, 60, 14)
                    .log_y()
                    .series('o', "processors", pts);
                out.block(&plot.render());
            }
        }
        "table1" => {
            let (_, table) = run_table1::run()?;
            out.emit("table1", &table, None);
        }
        "table2" => {
            let (res, table) = run_table2::run(1024)?;
            out.emit("table2", &table, serde_json::to_string_pretty(&res).ok());
        }
        "table3" => {
            let (res, table) = run_table3::run(scale)?;
            out.emit("table3", &table, serde_json::to_string_pretty(&res).ok());
        }
        "params" => {
            out.block(&params_table("SPEC92", MachineSpec::spec92).render());
            out.block(&params_table("SPEC95", MachineSpec::spec95).render());
        }
        "fig2" => {
            let (res, table, plots) = run_fig2::run(12)?;
            out.emit("fig2", &table, serde_json::to_string_pretty(&res).ok());
            for p in plots {
                out.block(&p.render());
            }
        }
        "fig3" | "table6" => {
            for (suite, label) in [(Suite::Spec92, "SPEC92"), (Suite::Spec95, "SPEC95")] {
                let res = run_fig3::run_suite(suite, scale, &Experiment::ALL)?;
                if target == "fig3" {
                    let t = run_fig3::render(&res, &format!("Figure 3 ({label} benchmarks)"));
                    out.emit(
                        &format!("fig3_{}", label.to_lowercase()),
                        &t,
                        serde_json::to_string_pretty(&res).ok(),
                    );
                }
                let t6 = run_fig3::render_table6(&res);
                out.emit(&format!("table6_{}", label.to_lowercase()), &t6, None);
            }
        }
        "table7" => {
            let (res, table) = run_table7::run_with(scale, sweep)?;
            out.emit("table7", &table, serde_json::to_string_pretty(&res).ok());
        }
        "table8" => {
            let (res, table) = run_table8::run_with(scale, sweep)?;
            out.emit("table8", &table, serde_json::to_string_pretty(&res).ok());
        }
        "fig4" => {
            let (panels, tables) = run_fig4::run_with(scale, sweep)?;
            for t in &tables {
                out.block(&t.render());
            }
            for p in &panels {
                let mut plot = AsciiPlot::new(
                    format!(
                        "Figure 4 ({}): traffic (bytes) vs capacity, log-log",
                        p.name
                    ),
                    64,
                    16,
                )
                .log_log();
                let markers = ['1', '2', '3', '4', '5', '6', 'A', 'V'];
                for (c, m) in p.curves.iter().zip(markers) {
                    let pts: Vec<(f64, f64)> = c
                        .points
                        .iter()
                        .map(|&(s, t)| (s as f64, t as f64))
                        .collect();
                    plot = plot.series(m, c.label.clone(), pts);
                }
                out.block(&plot.render());
            }
            if let Ok(body) = serde_json::to_string_pretty(&panels) {
                out.artifacts.push(Artifact {
                    name: "fig4".to_string(),
                    json: body,
                });
            }
        }
        "table9" => {
            let (res, tables) = run_table9::run_with(scale, sweep)?;
            for t in &tables {
                out.block(&t.render());
            }
            if let Ok(body) = serde_json::to_string_pretty(&res) {
                out.artifacts.push(Artifact {
                    name: "table9".to_string(),
                    json: body,
                });
            }
        }
        "ablation" => {
            let (res, table) = run_ablation::run(scale, 16 * 1024)?;
            out.emit("ablation", &table, serde_json::to_string_pretty(&res).ok());
        }
        "epin" => {
            let (res, table) = run_epin::run(scale)?;
            out.emit("epin", &table, serde_json::to_string_pretty(&res).ok());
        }
        "swprefetch" => {
            let (res, table) = run_swprefetch::run()?;
            out.emit(
                "swprefetch",
                &table,
                serde_json::to_string_pretty(&res).ok(),
            );
        }
        "speculation" => {
            let (res, table) = run_speculation::run()?;
            out.emit(
                "speculation",
                &table,
                serde_json::to_string_pretty(&res).ok(),
            );
        }
        "dram" => {
            let (res, table) = run_dram::run()?;
            out.emit("dram", &table, serde_json::to_string_pretty(&res).ok());
        }
        "interference" => {
            let (res, table) = run_interference::run(16 * 1024, 200)?;
            out.emit(
                "interference",
                &table,
                serde_json::to_string_pretty(&res).ok(),
            );
        }
        "extrapolate" => {
            let (res, table) = run_extrapolation::run()?;
            out.emit(
                "extrapolate",
                &table,
                serde_json::to_string_pretty(&res).ok(),
            );
        }
        other => unreachable!("target '{other}' is not renderable; callers validate first"),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scales() {
        assert_eq!(parse_scale("test").unwrap(), Scale::Test);
        assert_eq!(parse_scale("small").unwrap(), Scale::Small);
        assert_eq!(parse_scale("full").unwrap(), Scale::Full);
        assert!(parse_scale("huge").is_err());
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", "abd"), 1);
        assert_eq!(edit_distance("table8", "tabel8"), 2);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }

    #[test]
    fn unknown_targets_get_suggestions() {
        assert!(validate_target("table8").is_ok());
        assert!(validate_target("all").is_ok());
        let e = validate_target("tabel8").unwrap_err();
        assert!(e.contains("did you mean 'table8'"), "{e}");
        let e = validate_target("figg4").unwrap_err();
        assert!(e.contains("did you mean 'fig4'"), "{e}");
        // Nothing close: no misleading suggestion.
        let e = validate_target("zzzzzzzzzzzz").unwrap_err();
        assert!(!e.contains("did you mean"), "{e}");
    }

    #[test]
    fn target_list_covers_the_all_expansion() {
        // `all` must only expand to known leaf targets.
        for t in TARGETS {
            assert!(validate_target(t).is_ok(), "{t}");
        }
    }

    #[test]
    fn all_expansion_and_target_list_are_consistent() {
        // Every `all` leaf is a known target, no leaf repeats, and the
        // only targets outside the expansion are the non-default ones
        // (`table6` is folded into `fig3`; `dump` is a utility).
        for t in ALL_TARGETS {
            assert!(TARGETS.contains(&t), "'{t}' missing from TARGETS");
        }
        for (i, t) in ALL_TARGETS.iter().enumerate() {
            assert!(!ALL_TARGETS[..i].contains(t), "'{t}' duplicated");
        }
        let extras: Vec<&str> = TARGETS
            .iter()
            .copied()
            .filter(|t| !ALL_TARGETS.contains(t))
            .collect();
        assert_eq!(extras, ["table6", "dump"]);
    }

    #[test]
    fn renderable_excludes_meta_and_utility_targets() {
        assert!(!renderable("dump"));
        assert!(!renderable("all"));
        assert!(!renderable("nonsense"));
        for t in ALL_TARGETS {
            assert!(renderable(t), "{t}");
        }
        assert!(renderable("table6"));
    }

    #[test]
    fn render_is_deterministic_and_nonempty() {
        // A cheap analytic target: same input, same bytes, and the
        // stdout actually contains the table.
        let a = render_target("extrapolate", Scale::Test, SweepMode::Stack).unwrap();
        let b = render_target("extrapolate", Scale::Test, SweepMode::Stack).unwrap();
        assert_eq!(a.stdout, b.stdout);
        assert!(a.stdout.contains("2006"));
        assert_eq!(a.artifacts.len(), 1);
        assert_eq!(a.artifacts[0].name, "extrapolate");
        assert!(a.artifacts[0].json.starts_with('{') || a.artifacts[0].json.starts_with('['));
    }
}
