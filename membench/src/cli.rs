//! The CLI workloads: a fresh `repro --scale test --jobs 2` process per
//! sample, timed from spawn to exit, its stdout checked against the
//! pinned outputs.

use crate::expected;
use crate::proc;
use crate::stats::{describe, median};
use crate::{fresh_dir, Env, Report, JOBS};
use membw_core::trace::signature::SIG_DIR_ENV;
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Fewest timed samples per run, however short `--seconds` is.
const MIN_SAMPLES: usize = 3;

/// `cli-timing`: the T_P/T_L/T_B decomposition.
pub fn timing_targets() -> Vec<&'static str> {
    vec!["fig3"]
}

/// `cli-traffic`: the traffic ratios and the MTC bound.
pub fn traffic_targets() -> Vec<&'static str> {
    vec!["fig4", "table7", "table8", "table9"]
}

/// One timed invocation: its wall time, and its peak resident memory
/// in MiB or why it failed.
struct Invocation {
    wall_s: f64,
    result: Result<f64, String>,
}

/// One `repro` process in the fresh directory `dir`: its own working
/// directory, checkpoint directory and signature directory.
fn invoke(env: &Env, dir: &Path, targets: &[&str]) -> Invocation {
    let mut wall_s = 0.0;
    let result = spawn_and_check(env, dir, targets, &mut wall_s);
    let _ = std::fs::remove_dir_all(dir);
    Invocation { wall_s, result }
}

/// Run `repro` in `dir`, timing it from spawn to exit into `wall_s`.
fn spawn_and_check(
    env: &Env,
    dir: &Path,
    targets: &[&str],
    wall_s: &mut f64,
) -> Result<f64, String> {
    fresh_dir(dir)?;
    let stderr = std::fs::File::create(dir.join("stderr.txt"))
        .map_err(|e| format!("create stderr file: {e}"))?;
    let start = Instant::now();
    let mut child = Command::new(&env.repro)
        .current_dir(dir)
        .args([
            "--scale",
            "test",
            "--jobs",
            &JOBS.to_string(),
            "--checkpoint-dir",
            "ck",
        ])
        .args(targets)
        .env(SIG_DIR_ENV, "sig")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()
        .map_err(|e| format!("spawn repro: {e}"))?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    // Reap before acting on a read error, so no child outlives us.
    let exit = proc::reap(child).map_err(|e| format!("wait for repro: {e}"))?;
    *wall_s = start.elapsed().as_secs_f64();
    read.map_err(|e| format!("read repro stdout: {e}"))?;
    if exit.code != Some(0) {
        let err = std::fs::read_to_string(dir.join("stderr.txt")).unwrap_or_default();
        let tail: Vec<&str> = err.lines().rev().take(5).collect();
        return Err(format!(
            "repro {targets:?} exited with {:?}: {}",
            exit.code,
            tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
        ));
    }
    expected::check_concat(targets, &stdout)?;
    Ok(exit.peak_rss_mb)
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Run one CLI workload: [`SETUP_REPEATS`] set-ups, then samples until
/// `env.seconds` have passed.
pub fn run(env: &Env, targets: Vec<&'static str>) -> Report {
    let mut r = Report::default();
    r.line(format!(
        "workload: repro --scale test --jobs {JOBS} {}",
        targets.join(" ")
    ));
    // Set-up: a fresh run directory plus one discarded, output-checked
    // warm-up invocation.
    let mut setups = Vec::new();
    for k in 0..SETUP_REPEATS {
        let start = Instant::now();
        let inv = invoke(env, &env.work.join(format!("setup{k}")), &targets);
        setups.push(start.elapsed().as_secs_f64());
        r.check(inv.result.map(drop));
    }
    let mut walls = Vec::new();
    let mut rss = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < env.seconds || walls.len() < MIN_SAMPLES {
        let inv = invoke(env, &env.work.join(format!("s{}", walls.len())), &targets);
        walls.push(inv.wall_s);
        if let Ok(mb) = inv.result {
            rss.push(mb);
        }
        r.check(inv.result.map(drop));
    }
    let measured_s = start.elapsed().as_secs_f64();
    let setup_s = median(&setups);
    r.line(format!("setup_s      {}", describe(&setups, "s")));
    r.line(format!("wall_s       {}", describe(&walls, "s")));
    r.line(format!("peak_rss_mb  {}", describe(&rss, "MB")));
    r.line(format!(
        "failed_frac  {:.4} ({} of {})",
        r.failed as f64 / r.attempted as f64,
        r.failed,
        r.attempted
    ));
    r.metric("setup_s", setup_s, "s");
    r.metric("op_p50_ms", median(&walls) * 1e3, "ms");
    r.metric("ops_per_s", walls.len() as f64 / measured_s, "1/s");
    r.metric(
        "peak_rss_mb",
        if rss.is_empty() { 0.0 } else { median(&rss) },
        "MB",
    );
    r
}
