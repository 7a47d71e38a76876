//! The run engine's determinism guarantee, end to end: every
//! experiment produces identical results — same tables, same JSON,
//! same traffic counters — whether its job matrix runs serially or on
//! eight threads.
//!
//! This is the contract that lets `repro --jobs N` exist at all: job
//! results merge by canonical matrix index, never by completion order,
//! and each job regenerates its trace from the workload's fixed seed.

use membw::runner::RunCtx;
use membw::sim::Experiment;
use membw::workloads::{Scale, Suite};
use membw::{run_ablation, run_fig3, run_fig4, run_table7, run_table8, run_table9};

#[test]
fn fig3_decomposition_identical_across_jobs() {
    let serial = RunCtx {
        jobs: 1,
        ..RunCtx::current().child()
    }
    .enter(|| {
        run_fig3::run_suite(Suite::Spec92, Scale::Test, &Experiment::ALL)
            .expect("no faults injected")
    });
    let parallel = RunCtx {
        jobs: 8,
        ..RunCtx::current().child()
    }
    .enter(|| {
        run_fig3::run_suite(Suite::Spec92, Scale::Test, &Experiment::ALL)
            .expect("no faults injected")
    });
    // Byte-identical rendered table and JSON: the strongest form of the
    // guarantee (covers ordering, all counters, and float formatting).
    assert_eq!(
        run_fig3::render(&serial, "Figure 3").render(),
        run_fig3::render(&parallel, "Figure 3").render()
    );
    assert_eq!(
        serde_json::to_string_pretty(&serial).unwrap(),
        serde_json::to_string_pretty(&parallel).unwrap()
    );
}

#[test]
fn table7_and_table8_identical_across_jobs() {
    let (t7_serial, t7_tab_serial) = RunCtx {
        jobs: 1,
        ..RunCtx::current().child()
    }
    .enter(|| run_table7::run(Scale::Test).expect("no faults injected"));
    let (t7_parallel, t7_tab_parallel) = RunCtx {
        jobs: 8,
        ..RunCtx::current().child()
    }
    .enter(|| run_table7::run(Scale::Test).expect("no faults injected"));
    assert_eq!(t7_tab_serial.render(), t7_tab_parallel.render());
    assert_eq!(
        serde_json::to_string_pretty(&t7_serial).unwrap(),
        serde_json::to_string_pretty(&t7_parallel).unwrap()
    );

    let (t8_serial, t8_tab_serial) = RunCtx {
        jobs: 1,
        ..RunCtx::current().child()
    }
    .enter(|| run_table8::run(Scale::Test).expect("no faults injected"));
    let (t8_parallel, t8_tab_parallel) = RunCtx {
        jobs: 8,
        ..RunCtx::current().child()
    }
    .enter(|| run_table8::run(Scale::Test).expect("no faults injected"));
    assert_eq!(t8_tab_serial.render(), t8_tab_parallel.render());
    assert_eq!(
        serde_json::to_string_pretty(&t8_serial).unwrap(),
        serde_json::to_string_pretty(&t8_parallel).unwrap()
    );
}

#[test]
fn fig4_mtc_traffic_counts_identical_across_jobs() {
    let (serial, _) = RunCtx {
        jobs: 1,
        ..RunCtx::current().child()
    }
    .enter(|| run_fig4::run(Scale::Test).expect("no faults injected"));
    let (parallel, _) = RunCtx {
        jobs: 8,
        ..RunCtx::current().child()
    }
    .enter(|| run_fig4::run(Scale::Test).expect("no faults injected"));
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.name, p.name);
        for (cs, cp) in s.curves.iter().zip(&p.curves) {
            assert_eq!(
                cs.label, cp.label,
                "{}: curve order must be canonical",
                s.name
            );
            // Exact u64 traffic counts, point by point — the MTC curves
            // exercise the heap min cache inside parallel jobs.
            assert_eq!(cs.points, cp.points, "{}/{}", s.name, cs.label);
        }
    }
}

#[test]
fn table9_factor_gaps_identical_across_jobs() {
    let (serial, _) = RunCtx {
        jobs: 1,
        ..RunCtx::current().child()
    }
    .enter(|| run_table9::run(Scale::Test).expect("no faults injected"));
    let (parallel, _) = RunCtx {
        jobs: 8,
        ..RunCtx::current().child()
    }
    .enter(|| run_table9::run(Scale::Test).expect("no faults injected"));
    assert_eq!(
        serde_json::to_string_pretty(&serial).unwrap(),
        serde_json::to_string_pretty(&parallel).unwrap()
    );
}

#[test]
fn ablation_identical_across_jobs() {
    let (serial, tab_serial) = RunCtx {
        jobs: 1,
        ..RunCtx::current().child()
    }
    .enter(|| run_ablation::run(Scale::Test, 8 * 1024).expect("no faults injected"));
    let (parallel, tab_parallel) = RunCtx {
        jobs: 8,
        ..RunCtx::current().child()
    }
    .enter(|| run_ablation::run(Scale::Test, 8 * 1024).expect("no faults injected"));
    assert_eq!(tab_serial.render(), tab_parallel.render());
    assert_eq!(
        serde_json::to_string_pretty(&serial).unwrap(),
        serde_json::to_string_pretty(&parallel).unwrap()
    );
}
