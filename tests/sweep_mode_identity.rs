//! `--sweep stack` and `--sweep direct` are observationally identical.
//!
//! For every suite the sweep engine accelerates (fig4, tables 7–9), the
//! rendered tables and the pretty-printed JSON result must be
//! byte-identical between the two modes, and independent of the job
//! count — the same contract `repro` advertises for `--jobs`.

use membw::runner::RunCtx;
use membw::sweep::SweepMode;
use membw::workloads::Scale;
use membw::{run_fig4, run_table7, run_table8, run_table9};

/// Render + serialize one suite under a given mode and job count.
fn observe(mode: SweepMode, jobs: usize, suite: &str) -> String {
    RunCtx {
        jobs,
        ..RunCtx::current().child()
    }
    .enter(|| match suite {
        "fig4" => {
            let (panels, tables) = run_fig4::run_with(Scale::Test, mode).expect("fig4");
            let rendered: Vec<String> = tables.iter().map(|t| t.render()).collect();
            format!(
                "{}\n{}",
                rendered.join("\n"),
                serde_json::to_string_pretty(&panels).expect("json")
            )
        }
        "table7" => {
            let (res, table) = run_table7::run_with(Scale::Test, mode).expect("table7");
            format!(
                "{}\n{}",
                table.render(),
                serde_json::to_string_pretty(&res).expect("json")
            )
        }
        "table8" => {
            let (res, table) = run_table8::run_with(Scale::Test, mode).expect("table8");
            format!(
                "{}\n{}",
                table.render(),
                serde_json::to_string_pretty(&res).expect("json")
            )
        }
        "table9" => {
            let (res, tables) = run_table9::run_with(Scale::Test, mode).expect("table9");
            let rendered: Vec<String> = tables.iter().map(|t| t.render()).collect();
            format!(
                "{}\n{}",
                rendered.join("\n"),
                serde_json::to_string_pretty(&res).expect("json")
            )
        }
        other => panic!("unknown suite {other}"),
    })
}

fn assert_identical(suite: &str) {
    let baseline = observe(SweepMode::Direct, 1, suite);
    for (mode, jobs) in [
        (SweepMode::Stack, 1),
        (SweepMode::Stack, 8),
        (SweepMode::Direct, 8),
    ] {
        let got = observe(mode, jobs, suite);
        assert_eq!(
            got, baseline,
            "{suite}: --sweep {mode} --jobs {jobs} diverges from --sweep direct --jobs 1"
        );
    }
}

#[test]
fn fig4_output_is_mode_and_jobs_invariant() {
    assert_identical("fig4");
}

#[test]
fn table7_output_is_mode_and_jobs_invariant() {
    assert_identical("table7");
}

#[test]
fn table8_output_is_mode_and_jobs_invariant() {
    assert_identical("table8");
}

#[test]
fn table9_output_is_mode_and_jobs_invariant() {
    assert_identical("table9");
}
