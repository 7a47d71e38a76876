//! `membench`: the same-host benchmark of the membw reproduction.
//!
//! ```text
//! cargo run --release --manifest-path membench/Cargo.toml -- \
//!     --workload cli-timing|cli-traffic|serve-mix|all \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. The harness builds the `repro` binary
//! from source, then either drives it as a user does (`--trace 0`: the
//! end-to-end metrics) or calls each crate's public functions inside
//! recorded spans (`--trace 1`: the per-layer metrics). Every output is
//! checked; the last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`, and the exit code is nonzero
//! when any check failed. See `membench/README.md`.

mod cli;
mod expected;
mod layers;
mod proc;
mod serve;
mod span;
mod stats;

use std::path::{Path, PathBuf};
use std::process::Command;

/// Workload names, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["cli-timing", "cli-traffic", "serve-mix"];

/// Engine threads for every `repro` process and for in-process renders.
pub const JOBS: usize = 2;

/// What one benchmark run needs to know.
pub struct Env {
    /// Absolute path of the built `repro` binary.
    pub repro: PathBuf,
    /// Scratch directory of this run, relative to the repository root.
    pub work: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Measurement time in seconds.
    pub seconds: f64,
}

/// The outcome of one workload run.
#[derive(Default)]
pub struct Report {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// `(name, value, unit)` of every metric the JSON line carries.
    pub metrics: Vec<(String, f64, String)>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

impl Report {
    /// Count one checked operation.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(e);
        }
    }

    /// Count a failure that is not one operation's result.
    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(e);
        }
    }

    /// Add a metric to the JSON line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Add a line to the human report.
    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A metric value as JSON: every digit of Rust's shortest round-trip
/// formatting, and `null` for a value that is not finite.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_string()
    }
}

/// A seeded 64-bit generator (SplitMix64): the same seed gives the
/// same workload inputs on every host.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`, salted by `stream` so independent users
    /// of one seed draw independent sequences.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Replace `dir` with an empty directory.
///
/// # Errors
///
/// Removing the old tree or creating the new one.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value.parse().map_err(|_| format!("bad --seed '{value}'"))?;
            }
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds '{value}'"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Every `MEMBW_*` variable changes what `repro` does (fault plans,
/// cache budgets, thread counts, signature location), so none may leak
/// in from the caller's environment.
fn check_env_unset() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MEMBW_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("unset {} before benchmarking", set.join(", ")))
    }
}

/// Build `repro` from this checkout and return its absolute path.
fn build_repro() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "membw-bench",
            "--bin",
            "repro",
        ])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building repro failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("repro");
    bin.canonicalize()
        .map_err(|e| format!("built repro not found at {}: {e}", bin.display()))
}

fn run_workload(name: &str, env: &Env, trace: bool) -> Report {
    if trace {
        return layers::run(env, name);
    }
    match name {
        "cli-timing" => cli::run(env, cli::timing_targets()),
        "cli-traffic" => cli::run(env, cli::traffic_targets()),
        "serve-mix" => serve::run(env),
        _ => unreachable!("workload names are validated at parsing"),
    }
}

fn main() {
    let args = match parse_args().and_then(|a| check_env_unset().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("membench: {e}");
            std::process::exit(2);
        }
    };
    // Paths stay relative to the repository root, which keeps the Unix
    // socket paths short wherever the checkout lives.
    if let Some(dir) = std::env::var_os("CARGO_MANIFEST_DIR") {
        let root = Path::new(&dir).join("..");
        if let Err(e) = std::env::set_current_dir(&root) {
            eprintln!("membench: cannot enter {}: {e}", root.display());
            std::process::exit(2);
        }
    }
    let repro = match build_repro() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("membench: {e}");
            std::process::exit(1);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all = Report::default();
    for name in &names {
        let env = Env {
            repro: repro.clone(),
            work: PathBuf::from("membench/.work").join(format!(
                "{name}-{}-{}",
                args.seed,
                std::process::id()
            )),
            seed: args.seed,
            seconds: args.seconds,
        };
        let report = match fresh_dir(&env.work) {
            Ok(()) => run_workload(name, &env, args.trace),
            Err(e) => {
                let mut r = Report::default();
                r.fail(e);
                r
            }
        };
        // The scratch tree goes on every path: nothing of a run is left
        // for the next one to find.
        let _ = std::fs::remove_dir_all(&env.work);
        println!(
            "== {name} (seed {}, {} s, trace {})",
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        for l in &report.lines {
            println!("{l}");
        }
        for f in &report.failures {
            println!("FAILED: {f}");
        }
        all.attempted += report.attempted;
        all.failed += report.failed;
        for (n, v, u) in report.metrics {
            let n = if names.len() > 1 {
                format!("{name}.{n}")
            } else {
                n
            };
            all.metrics.push((n, v, u));
        }
    }
    let _ = std::fs::remove_dir("membench/.work");
    println!("{}", all.json());
    if all.failed > 0 {
        std::process::exit(1);
    }
}
