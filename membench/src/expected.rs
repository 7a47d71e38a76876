//! Outputs and exact counts pinned from the repository's reference
//! commit. A speed-only change must reproduce every one of them.

use membw_core::runner::persist;

/// Length and FNV-1a 64 digest of one target's stdout.
pub struct Pin {
    /// Target name.
    pub target: &'static str,
    /// Byte length of the stdout.
    pub len: usize,
    /// `persist::fnv64` of the stdout.
    pub fnv64: u64,
}

/// `repro --scale test <target>` stdout, per target. A multi-target
/// invocation prints the concatenation in argument order.
pub const CLI_TEST: [Pin; 5] = [
    Pin {
        target: "fig3",
        len: 5744,
        fnv64: 0xc85f_0d10_e6dd_7a11,
    },
    Pin {
        target: "fig4",
        len: 11796,
        fnv64: 0x71a6_7b08_be33_608e,
    },
    Pin {
        target: "table7",
        len: 973,
        fnv64: 0x1b6d_d4bc_9e4a_cb1e,
    },
    Pin {
        target: "table8",
        len: 930,
        fnv64: 0x5687_4c3e_ea4e_fef4,
    },
    Pin {
        target: "table9",
        len: 1124,
        fnv64: 0x6481_7fe1_84b6_a3b9,
    },
];

/// `fastpath::render_target_analytic(<target>, Scale::Small)` stdout
/// (what `repro --analytic only --scale small <target>` prints).
pub const ANALYTIC_SMALL: [Pin; 3] = [
    Pin {
        target: "fig3",
        len: 4712,
        fnv64: 0x669d_8608_19b9_bd7f,
    },
    Pin {
        target: "fig4",
        len: 7236,
        fnv64: 0x783c_54d2_1ddd_460a,
    },
    Pin {
        target: "table7",
        len: 947,
        fnv64: 0xde7b_10cc_6318_f24d,
    },
];

/// The pin for `target` in `pins`.
///
/// # Panics
///
/// When `target` has no pin: the workloads only name pinned targets.
pub fn pin<'a>(pins: &'a [Pin], target: &str) -> &'a Pin {
    pins.iter()
        .find(|p| p.target == target)
        .unwrap_or_else(|| panic!("no pinned output for {target}"))
}

/// Check `bytes` against `pin`.
///
/// # Errors
///
/// A message naming the target and the mismatch.
pub fn check(pin: &Pin, bytes: &str) -> Result<(), String> {
    let got = persist::fnv64(bytes);
    if bytes.len() == pin.len && got == pin.fnv64 {
        Ok(())
    } else {
        Err(format!(
            "{}: stdout is {} bytes with digest {got:016x}; pinned {} bytes with digest {:016x}",
            pin.target,
            bytes.len(),
            pin.len,
            pin.fnv64
        ))
    }
}

/// Check stdout of a multi-target invocation: the pinned outputs of
/// `targets`, concatenated in order.
///
/// # Errors
///
/// A message naming the first target whose slice differs.
pub fn check_concat(targets: &[&str], stdout: &str) -> Result<(), String> {
    let total: usize = targets.iter().map(|t| pin(&CLI_TEST, t).len).sum();
    if stdout.len() != total {
        return Err(format!(
            "stdout is {} bytes; pinned outputs of {targets:?} total {total}",
            stdout.len()
        ));
    }
    let mut at = 0;
    for t in targets {
        let p = pin(&CLI_TEST, t);
        let piece = stdout
            .get(at..at + p.len)
            .ok_or_else(|| format!("{t}: stdout splits inside a character"))?;
        check(p, piece)?;
        at += p.len;
    }
    Ok(())
}

/// Exact counts of the per-layer probes at scale test. Host speed
/// cannot move them; only a change to what is simulated can.
pub const EXACT_COUNTS: &[(&str, u64)] = &[
    ("analytic.calls", 280_000),
    ("analytic.time_predictions", 280_000),
    ("analytic.traffic_predictions", 280_000),
    ("cache.accesses", 556_596),
    ("cache.misses", 34_569),
    ("core.audit_checks", 1_112),
    ("mtc.min_bytes_below", 1_140_632),
    ("mtc.min_refs", 896_322),
    ("mtc.min_sweep_bytes_below", 7_237_740),
    ("mtc.min_sweep_refs", 298_774),
    ("runner.failed", 0),
    ("runner.jobs", 129),
    ("runner.retries", 0),
    ("serve.stats.analytic", 201),
    ("serve.stats.coalesced", 0),
    ("serve.stats.rejected", 0),
    ("serve.stats.simulated", 1),
    ("serve.stats.store", 400),
    ("sim.cycles", 18_832_108),
    ("sim.inorder_uops", 6_623_085),
    ("sim.ruu_uops", 6_623_085),
    ("sweep.bytes_below", 252_239_928),
    ("sweep.fallback_cells", 0),
    ("sweep.lru_refs", 1_792_644),
    ("sweep.swept_cells", 288),
    ("trace.arena_bytes", 22_018_691),
    ("trace.mem_refs", 1_104_383),
    ("trace.uops", 2_207_695),
];
