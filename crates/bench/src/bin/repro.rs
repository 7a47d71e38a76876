//! `repro`: regenerate every table and figure of Burger, Goodman & Kägi
//! (ISCA 1996).
//!
//! ```text
//! repro [--scale test|small|full] [--jobs N] [--json DIR]
//!       [--retries N] [--job-timeout SECS] [--deadline SECS]
//!       [--mem-budget MB] [--resume | --no-resume]
//!       [--checkpoint-dir DIR] [--audit off|warn|strict]
//!       [--sweep stack|direct] [--analytic off|assist|only] <target>...
//!
//! repro serve [--socket PATH | --listen tcp:PORT] [--max-inflight N]
//!             [--queue N] [--store DIR] [--checkpoint-dir DIR]
//!             [--jobs N] [--mem-budget MB] [--read-timeout-ms N]
//!
//! repro query [--socket PATH|tcp:HOST:PORT] [--scale S] [--sweep M]
//!             [--audit L] [--deadline-ms N] [--priority P] <target>...
//!
//! targets: fig1 table1 table2 table3 params fig3 table6 table7 table8
//!          fig4 table9 extrapolate all
//! ```
//!
//! `repro serve` keeps a resident daemon answering the same questions
//! over newline-delimited JSON (see `membw_core::service`), with
//! request coalescing, a crash-safe result store, backpressure, and a
//! SIGTERM drain; `repro query` is its line client. A query's stdout is
//! byte-identical to the CLI run of the same `(target, scale, sweep)`
//! because both sides print `membw_core::targets::render_target`.
//!
//! `--sweep` selects how the traffic suites (`fig4`, `table7`,
//! `table8`, `table9`) cover their capacity axes: `stack` (default)
//! runs the one-pass multi-configuration sweep engine, `direct` runs
//! one independent simulation per configuration. Output is
//! byte-identical between the modes; `direct` exists as the cross-check
//! oracle and the `MEMBW_SWEEP_VERIFY=1` environment variable makes a
//! `stack` run recompute every swept cell directly and report any
//! divergence through the auditor.
//!
//! `--analytic` selects the ECM fast path's role: `off` (default)
//! never consults the model and is byte-identical to earlier releases;
//! `assist` runs the normal simulation and additionally checks every
//! simulated cell of `fig3`/`table7`/`fig4` against the model's
//! prediction and error bound through the `analytic-bound` auditor
//! invariant (fatal under `--audit strict`; stdout unchanged); `only`
//! answers supported targets from trace signatures alone in
//! microseconds, with the model version and bounds printed in the
//! output (not byte-compatible with simulation, by design).
//!
//! `--jobs N` (or the `MEMBW_JOBS` environment variable) sets the run
//! engine's thread count. Experiment output on stdout is byte-identical
//! at every setting; wall-clock and throughput accounting goes to
//! stderr after the targets finish.
//!
//! The campaign is fault-tolerant: a job that panics or exceeds
//! `--job-timeout` fails alone (after `--retries` extra attempts), its
//! target is skipped, every other target still runs, a failure summary
//! lands on stderr, and the exit status is nonzero. Completed jobs are
//! checkpointed under `--checkpoint-dir` (default
//! `results/.checkpoint`); rerun with `--resume` to pick up an
//! interrupted campaign without recomputing finished jobs.
//!
//! The campaign is also interruptible: SIGINT/SIGTERM request a drain
//! (in-flight jobs cancel cooperatively, completed work flushes through
//! the durable checkpoint path, exit code 130; a second signal
//! force-exits), `--deadline SECS` bounds the whole invocation's wall
//! clock the same way (exit code 124), and `--mem-budget MB` (or
//! `MEMBW_MEM_BUDGET_MB`) keeps the invocation inside a memory budget
//! by degrading — trace-cache shrink, then record-streaming, then
//! serialized job admission — instead of OOMing. All three preserve
//! stdout byte-identity: a cancelled run resumed with `--resume`, or a
//! budgeted run, prints exactly what an undisturbed run prints.

use membw_bench::{parse_scale, validate_target, ALL_TARGETS};
use membw_core::analytic::ecm::{self, AnalyticMode};
use membw_core::audit::{self, AuditLevel};
use membw_core::fastpath;
use membw_core::report::{self, TargetTiming};
use membw_core::runner;
use membw_core::runner::persist;
use membw_core::runner::{CheckpointConfig, RunCtx};
use membw_core::service::{ServiceRequest, ServiceResponse};
use membw_core::sweep::SweepMode;
use membw_core::targets;
use membw_core::workloads::Scale;
use membw_core::MembwError;
use membw_serve::{client, serve, Endpoint, ResultStore, ServeConfig, Server};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Options {
    scale: Scale,
    json_dir: Option<PathBuf>,
    targets: Vec<String>,
    resume: bool,
    checkpoint_dir: PathBuf,
    deadline: Option<Duration>,
    sweep: SweepMode,
}

fn parse_args() -> Result<Options, String> {
    let mut scale = Scale::Small;
    let mut json_dir = None;
    let mut targets = Vec::new();
    let mut resume = false;
    let mut checkpoint_dir = PathBuf::from("results/.checkpoint");
    let mut deadline = None;
    let mut mem_budget_mb: Option<u64> = None;
    let mut sweep = SweepMode::default();
    let mut analytic = AnalyticMode::Off;
    // Engine settings reach the root context only after the environment
    // is validated: the root reads MEMBW_JOBS when it is first touched.
    let mut jobs = None;
    let mut retries = 0;
    let mut job_timeout = None;
    let mut audit_level = AuditLevel::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                scale = parse_scale(&v)?;
            }
            "--jobs" => {
                let v = args.next().ok_or("--jobs needs a count")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--jobs needs a positive integer, got '{v}'"))?;
                if n == 0 {
                    return Err("--jobs needs a positive integer".to_string());
                }
                jobs = Some(n);
            }
            "--json" => {
                let v = args.next().ok_or("--json needs a directory")?;
                json_dir = Some(PathBuf::from(v));
            }
            "--retries" => {
                let v = args.next().ok_or("--retries needs a count")?;
                retries = v
                    .parse()
                    .map_err(|_| format!("--retries needs a non-negative integer, got '{v}'"))?;
            }
            "--job-timeout" => {
                let v = args.next().ok_or("--job-timeout needs seconds")?;
                let secs: f64 = v
                    .parse()
                    .map_err(|_| format!("--job-timeout needs seconds, got '{v}'"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--job-timeout needs a positive number of seconds".to_string());
                }
                job_timeout = Some(Duration::from_secs_f64(secs));
            }
            "--deadline" => {
                let v = args.next().ok_or("--deadline needs seconds")?;
                let secs: f64 = v
                    .parse()
                    .map_err(|_| format!("--deadline needs seconds, got '{v}'"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--deadline needs a positive number of seconds".to_string());
                }
                deadline = Some(Duration::from_secs_f64(secs));
            }
            "--mem-budget" => {
                let v = args.next().ok_or("--mem-budget needs whole MiB")?;
                let mb = runner::parse_mem_budget_mb(&v)
                    .map_err(|e| e.replace(runner::MEM_BUDGET_MB_ENV, "--mem-budget"))?;
                mem_budget_mb = Some(mb);
            }
            "--audit" => {
                let v = args
                    .next()
                    .ok_or("--audit needs a level (off|warn|strict)")?;
                audit_level = v.parse()?;
            }
            "--sweep" => {
                let v = args.next().ok_or("--sweep needs a mode (stack|direct)")?;
                sweep = SweepMode::parse(&v)?;
            }
            "--analytic" => {
                let v = args
                    .next()
                    .ok_or("--analytic needs a mode (off|assist|only)")?;
                analytic = v.parse()?;
            }
            "--resume" => resume = true,
            "--no-resume" => resume = false,
            "--checkpoint-dir" => {
                let v = args.next().ok_or("--checkpoint-dir needs a directory")?;
                checkpoint_dir = PathBuf::from(v);
            }
            "--help" | "-h" => {
                println!("usage: repro [--scale test|small|full] [--jobs N] [--json DIR]");
                println!("             [--retries N] [--job-timeout SECS] [--deadline SECS]");
                println!("             [--mem-budget MB] [--resume|--no-resume]");
                println!("             [--checkpoint-dir DIR] [--audit off|warn|strict]");
                println!("             [--sweep stack|direct] [--analytic off|assist|only]");
                println!("             <target>...");
                println!("       repro serve [--socket PATH|--listen tcp:PORT] ... (see repro serve --help)");
                println!("       repro query [--socket PATH] <target>...         (see repro query --help)");
                println!("targets: fig1 table1 table2 table3 params fig3 table6 table7");
                println!("         table8 fig4 table9 epin extrapolate ablation interference");
                println!("         dram speculation swprefetch dump all");
                println!("--jobs N (default: MEMBW_JOBS or all cores) sets run-engine threads;");
                println!("stdout is byte-identical at every setting.");
                println!("--retries N retries a panicked job N more times (default 0;");
                println!("timed-out and cancelled jobs are never retried);");
                println!("--job-timeout SECS marks jobs failed past a per-job deadline;");
                println!("--deadline SECS drains the whole invocation at a wall-clock bound");
                println!("(finished work stays checkpointed; exit code 124);");
                println!(
                    "--mem-budget MB (or {}) bounds memory by degrading",
                    runner::MEM_BUDGET_MB_ENV
                );
                println!(
                    "(cache shrink -> record-streaming -> throttled admission; 0 = strictest);"
                );
                println!("--resume replays completed jobs archived under --checkpoint-dir");
                println!("(default results/.checkpoint) by a previous, possibly interrupted run.");
                println!("--audit LEVEL checks the paper's invariants on every target:");
                println!("off skips them, warn (default) reports violations on stderr,");
                println!("strict fails the target; a summary lands on stderr either way.");
                println!("--sweep MODE picks the traffic suites' capacity-axis engine:");
                println!("stack (default) = one-pass multi-configuration sweep engine,");
                println!("direct = one simulation per configuration; output is");
                println!(
                    "byte-identical either way, and {}=1 makes a stack",
                    membw_core::sweep::SWEEP_VERIFY_ENV
                );
                println!("run recompute every swept cell directly through the auditor.");
                println!("--analytic MODE sets the ECM fast path's role: off (default) never");
                println!("consults the model; assist also checks each simulated fig3/table7/fig4");
                println!("cell against the model's bound (analytic-bound invariant, fatal under");
                println!("--audit strict; stdout unchanged); only answers those targets from");
                println!("trace signatures in microseconds, bounds printed, no simulation.");
                println!(
                    "{} caps the in-memory trace cache (whole MiB; 0 disables caching).",
                    membw_core::trace::replay::TRACE_CACHE_MB_ENV
                );
                println!("SIGINT/SIGTERM request a graceful drain (second signal force-exits).");
                println!("exit codes: 0 ok, 1 target/job failures, 2 usage error,");
                println!("            124 deadline exceeded, 130 interrupted,");
                println!(
                    "            134 aborted at an injected {}=crash@K I/O point.",
                    runner::faultio::IO_FAULT_ENV
                );
                std::process::exit(0);
            }
            t if !t.starts_with('-') => targets.push(t.to_string()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    // Reject malformed environment configuration up front, before any
    // target runs: the lazy readers would otherwise only warn and fall
    // back (or in the fault-injection case, silently no-op).
    if let Ok(v) = std::env::var(membw_core::trace::replay::TRACE_CACHE_MB_ENV) {
        membw_core::trace::replay::parse_cache_budget_mb(&v)?;
    }
    if let Ok(v) = std::env::var(runner::JOBS_ENV) {
        runner::parse_jobs(&v)?;
    }
    if let Ok(v) = std::env::var(membw_core::sweep::SWEEP_VERIFY_ENV) {
        membw_core::sweep::parse_verify(&v)?;
    }
    runner::validate_fault_env()?;
    if let Ok(v) = std::env::var(runner::MEM_BUDGET_MB_ENV) {
        let mb = runner::parse_mem_budget_mb(&v)?;
        // The flag wins over the environment when both are present.
        if mem_budget_mb.is_none() {
            mem_budget_mb = Some(mb);
        }
    }
    if let Some(mb) = mem_budget_mb {
        runner::set_mem_budget(Some(mb));
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    for t in &targets {
        validate_target(t)?;
    }
    if analytic == AnalyticMode::Only {
        // Reject up front: an analytic-only run must never silently
        // fall back to simulation for a target the model cannot answer.
        for t in &targets {
            if !fastpath::analytic_supported(t) {
                return Err(format!(
                    "--analytic only cannot answer target '{t}'; supported targets: {}",
                    fastpath::ANALYTIC_TARGETS.join(" ")
                ));
            }
        }
    }
    if let Some(n) = jobs {
        runner::set_jobs(n);
    }
    runner::set_retries(retries);
    runner::set_job_timeout(job_timeout);
    runner::set_audit_level(audit_level);
    runner::set_analytic_mode(analytic);
    Ok(Options {
        scale,
        json_dir,
        targets,
        resume,
        checkpoint_dir,
        deadline,
        sweep,
    })
}

/// Run one leaf target, recording one [`TargetTiming`] on success.
fn run_target(
    opts: &Options,
    target: &str,
    timings: &mut Vec<TargetTiming>,
) -> Result<(), MembwError> {
    let wall_start = Instant::now();
    let ctx = RunCtx::current().child();
    let uops_before = report::uops_executed();
    ctx.enter(|| run_leaf(opts, target))?;
    let counted = ctx.sink.metrics();
    timings.push(TargetTiming {
        target: target.to_string(),
        wall: wall_start.elapsed(),
        jobs: counted.jobs,
        busy: counted.busy(),
        uops: report::uops_executed() - uops_before,
    });
    Ok(())
}

fn run_leaf(opts: &Options, target: &str) -> Result<(), MembwError> {
    if RunCtx::current().analytic == AnalyticMode::Only {
        // Microsecond path: answer from the ECM predictor and trace
        // signatures alone — no simulation, no trace arena. The output
        // is labelled with the model version and carries error bounds;
        // it is intentionally NOT byte-compatible with a simulated run.
        let render = fastpath::render_target_analytic(target, opts.scale)
            .expect("unsupported targets were rejected at argument parsing");
        print!("{}", render.rendered.stdout);
        eprintln!(
            "analytic: {target}: model {}, worst relative bound {:.2}",
            ecm::MODEL_VERSION,
            render.worst_rel
        );
        return Ok(());
    }
    if target == "dump" {
        // Dump every benchmark's reference stream as .mwtr files — the
        // one target with filesystem side effects instead of a
        // rendering, so it stays out of the shared renderer.
        let dir = opts
            .json_dir
            .clone()
            .unwrap_or_else(|| PathBuf::from("traces"));
        runner::faultio::create_dir_all(&dir)
            .map_err(|e| MembwError::io("create trace directory", dir.clone(), e))?;
        use membw_core::trace::io::save_workload;
        use membw_core::workloads::{suite92, suite95};
        for b in suite92(opts.scale).iter().chain(suite95(opts.scale).iter()) {
            let path = dir.join(format!("{}.mwtr", b.name()));
            let n = save_workload(&b.replayable(), &path).map_err(|e| MembwError::Trace {
                path: path.clone(),
                source: e,
            })?;
            println!("wrote {} ({n} refs)", path.display());
        }
        return Ok(());
    }
    let rendered = targets::render_target(target, opts.scale, opts.sweep)?;
    print!("{}", rendered.stdout);
    if let Some(dir) = &opts.json_dir {
        runner::faultio::create_dir_all(dir)
            .map_err(|e| MembwError::io("create JSON directory", dir.clone(), e))?;
        for a in &rendered.artifacts {
            let path = dir.join(format!("{}.json", a.name));
            // Archives go through the same tmp→fsync→rename path as
            // checkpoints: a crash mid-write can leave a stray .tmp,
            // never a torn .json that parses as a truncated result.
            persist::write_atomic(&path, a.json.as_bytes())
                .map_err(|(step, p, e)| MembwError::io(step, p, e))?;
            eprintln!("  [wrote {}]", path.display());
        }
    }
    Ok(())
}

fn serve_usage() {
    println!("usage: repro serve [--socket PATH | --listen tcp:PORT|tcp:HOST:PORT]");
    println!("                   [--max-inflight N] [--queue N] [--conn-limit N]");
    println!("                   [--store DIR] [--checkpoint-dir DIR]");
    println!("                   [--jobs N] [--mem-budget MB] [--read-timeout-ms N]");
    println!("                   [--analytic off|assist] [--supervise]");
    println!("Resident daemon speaking newline-delimited JSON requests");
    println!("  {{\"target\":\"table7\",\"scale\":\"small\",\"sweep\":\"stack\",");
    println!("    \"audit\":\"warn\",\"deadline_ms\":0,\"priority\":0}}");
    println!("over a Unix socket (default results/membw.sock) or TCP.");
    println!("--max-inflight N requests render concurrently (default 2; each still");
    println!("parallelizes its own job matrix under --jobs); --queue N more wait");
    println!("FIFO-within-priority before clients get a busy response.");
    println!("Completed renders persist (checksummed, tmp+fsync+rename) under");
    println!("--store (default results/.serve-store): a killed-and-restarted");
    println!("daemon answers warm requests from the store without recomputing.");
    println!("SIGTERM drains gracefully: in-flight work checkpoints under");
    println!("--checkpoint-dir, new clients get a draining response, exit 0.");
    println!("--analytic assist turns on the ECM fast lane: requests whose model");
    println!("bound fits the client's tolerance (analytic_rel_permille, default");
    println!("600; 0 opts out) are answered in microseconds with provenance");
    println!("(source=analytic, model, bound) instead of queueing a simulation,");
    println!("and simulated renders audit the model via analytic-bound. The");
    println!("daemon always keeps the simulation fallback, so there is no");
    println!("'only' mode. Query target 'stats' for triage counters.");
    println!("--supervise runs the daemon under a restarting parent: a crashed");
    println!("daemon (SIGKILL, abort, injected crash@K) is respawned with");
    println!("bounded deterministic backoff (50ms doubling, cap 2s); 5 fast");
    println!("crashes in a row give up loudly with exit 1. Restarted children");
    println!("run with MEMBW_NET_FAULT/MEMBW_IO_FAULT cleared (injected faults");
    println!("test one generation, not the healed service) and report their");
    println!("generation as the stats counter supervisor-restarts.");
    println!("exit codes: 0 clean drain, 1 fatal/crash-loop give-up, 2 usage,");
    println!("            130 interrupted (SIGTERM/SIGINT), 134 crash@K abort.");
}

/// `repro serve --supervise`: spawn and babysit `repro serve` (same
/// argv minus the flag) per the supervision state machine in
/// [`membw_serve::supervisor`].
fn cmd_serve_supervised(argv: &[String]) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate the repro binary to supervise: {e}");
            return 1;
        }
    };
    let child_args: Vec<String> = argv.iter().filter(|a| *a != "--supervise").cloned().collect();
    // The parent validates nothing itself: a config typo makes the
    // child exit 2 and the supervisor propagates it without looping.
    runner::install_signal_drain();
    let cancel = runner::CancelToken::global();
    membw_serve::supervisor::supervise(
        |restarts| {
            let mut cmd = std::process::Command::new(&exe);
            cmd.arg("serve");
            cmd.args(&child_args);
            if restarts > 0 {
                // An injected fault plan tests one daemon generation;
                // the restarted service must come back clean, or a
                // deterministic crash@K would re-fire at the same point
                // every generation and the loop detector would give up
                // on a fault that was, by construction, transient.
                cmd.env_remove(membw_serve::NET_FAULT_ENV);
                cmd.env_remove(runner::faultio::IO_FAULT_ENV);
            }
            cmd
        },
        &membw_serve::SupervisorConfig::default(),
        &cancel,
    )
}

fn cmd_serve(argv: &[String]) -> i32 {
    if argv.iter().any(|a| a == "--supervise") {
        return cmd_serve_supervised(argv);
    }
    let mut endpoint = Endpoint::Unix(PathBuf::from("results/membw.sock"));
    let mut config = ServeConfig::default();
    let mut store_dir = PathBuf::from("results/.serve-store");
    let mut checkpoint_dir = PathBuf::from("results/.checkpoint");
    let mut mem_budget_mb: Option<u64> = None;
    let mut jobs = None;
    let mut args = argv.iter();
    let parsed = (|| -> Result<(), String> {
        while let Some(a) = args.next() {
            match a.as_str() {
                "--socket" => {
                    let v = args.next().ok_or("--socket needs a path")?;
                    endpoint = Endpoint::Unix(PathBuf::from(v));
                }
                "--listen" => {
                    let v = args
                        .next()
                        .ok_or("--listen needs tcp:PORT or tcp:HOST:PORT")?;
                    endpoint = Endpoint::parse(v)?;
                }
                "--max-inflight" => {
                    let v = args.next().ok_or("--max-inflight needs a count")?;
                    config.max_inflight =
                        v.parse::<usize>().ok().filter(|n| *n > 0).ok_or_else(|| {
                            format!("--max-inflight needs a positive integer, got '{v}'")
                        })?;
                }
                "--queue" => {
                    let v = args.next().ok_or("--queue needs a count")?;
                    config.queue_bound =
                        v.parse::<usize>().ok().filter(|n| *n > 0).ok_or_else(|| {
                            format!("--queue needs a positive integer, got '{v}'")
                        })?;
                }
                "--conn-limit" => {
                    let v = args.next().ok_or("--conn-limit needs a count")?;
                    config.conn_limit =
                        v.parse::<usize>().ok().filter(|n| *n > 0).ok_or_else(|| {
                            format!("--conn-limit needs a positive integer, got '{v}'")
                        })?;
                }
                "--read-timeout-ms" => {
                    let v = args.next().ok_or("--read-timeout-ms needs milliseconds")?;
                    let ms = v.parse::<u64>().ok().filter(|n| *n > 0).ok_or_else(|| {
                        format!("--read-timeout-ms needs positive milliseconds, got '{v}'")
                    })?;
                    config.read_timeout = Duration::from_millis(ms);
                }
                "--store" => {
                    let v = args.next().ok_or("--store needs a directory")?;
                    store_dir = PathBuf::from(v);
                }
                "--checkpoint-dir" => {
                    let v = args.next().ok_or("--checkpoint-dir needs a directory")?;
                    checkpoint_dir = PathBuf::from(v);
                }
                "--jobs" => {
                    let v = args.next().ok_or("--jobs needs a count")?;
                    let n = v
                        .parse::<usize>()
                        .ok()
                        .filter(|n| *n > 0)
                        .ok_or_else(|| format!("--jobs needs a positive integer, got '{v}'"))?;
                    jobs = Some(n);
                }
                "--mem-budget" => {
                    let v = args.next().ok_or("--mem-budget needs whole MiB")?;
                    let mb = runner::parse_mem_budget_mb(v)
                        .map_err(|e| e.replace(runner::MEM_BUDGET_MB_ENV, "--mem-budget"))?;
                    mem_budget_mb = Some(mb);
                }
                "--analytic" => {
                    let v = args.next().ok_or("--analytic needs a mode (off|assist)")?;
                    config.analytic = match v.as_str() {
                        "off" => false,
                        "assist" => true,
                        // The daemon must always be able to fall back to a
                        // real simulation for loose bounds and unsupported
                        // targets, so `only` is not a serve mode.
                        other => {
                            return Err(format!(
                                "serve --analytic supports off|assist, got '{other}'"
                            ))
                        }
                    };
                }
                "--help" | "-h" => {
                    serve_usage();
                    std::process::exit(0);
                }
                other => return Err(format!("unknown serve flag {other}")),
            }
        }
        if let Ok(v) = std::env::var(runner::JOBS_ENV) {
            runner::parse_jobs(&v)?;
        }
        // The serve driver honors the chaos variable too, so validate
        // the chained registry (runner hooks + MEMBW_SERVE_FAULT).
        membw_serve::chaos::validate_env()?;
        if let Ok(v) = std::env::var(runner::MEM_BUDGET_MB_ENV) {
            let mb = runner::parse_mem_budget_mb(&v)?;
            if mem_budget_mb.is_none() {
                mem_budget_mb = Some(mb);
            }
        }
        Ok(())
    })();
    if let Err(e) = parsed {
        eprintln!("error: {e}");
        return 2;
    }
    if let Some(n) = jobs {
        runner::set_jobs(n);
    }
    if let Some(mb) = mem_budget_mb {
        runner::set_mem_budget(Some(mb));
    }
    if config.analytic {
        // Simulated renders on an assist daemon carry the same
        // analytic-bound audits as `repro --analytic assist` runs.
        runner::set_analytic_mode(AnalyticMode::Assist);
        eprintln!(
            "serve: analytic fast lane enabled (model {})",
            ecm::MODEL_VERSION
        );
    }
    // SIGINT/SIGTERM request the drain; a second signal force-exits.
    runner::install_signal_drain();
    // Requests always resume from checkpoints: an interrupted render
    // picks up where the drained daemon left off.
    runner::set_checkpoint(Some(CheckpointConfig {
        root: checkpoint_dir,
        resume: true,
    }));
    let store = match ResultStore::open(&store_dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "error: cannot open result store {}: {e}",
                store_dir.display()
            );
            return 1;
        }
    };
    let listener = match endpoint.listen() {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot listen on {}: {e}", endpoint.display());
            return 1;
        }
    };
    // Warn-only: a daemon without a pidfile still serves, but the
    // orphaned-tmp sweeps lose their liveness cross-check for it.
    match membw_serve::net::write_pidfile(&endpoint) {
        Ok(Some(path)) => eprintln!("serve: pid {} at {}", std::process::id(), path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("warning: cannot write pidfile: {e}"),
    }
    eprintln!(
        "serve: listening on {} (max-inflight {}, queue {}, store {})",
        endpoint.display(),
        config.max_inflight,
        config.queue_bound,
        store_dir.display()
    );
    let server = Arc::new(Server::new(config, store));
    let cancel = runner::CancelToken::global();
    let served = match serve(&server, listener, &cancel) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: serve loop failed: {e}");
            return 1;
        }
    };
    if let Some(path) = endpoint.socket_path() {
        let _ = runner::faultio::remove_file(path);
    }
    membw_serve::net::remove_pidfile(&endpoint);
    eprintln!("serve: drained cleanly after {served} connection(s)");
    0
}

fn query_usage() {
    println!("usage: repro query [--socket PATH|tcp:HOST:PORT] [--scale test|small|full]");
    println!("                   [--sweep stack|direct] [--audit off|warn|strict]");
    println!("                   [--deadline-ms N] [--priority P] [--retries N]");
    println!("                   [--analytic-rel PERMILLE] <target>...");
    println!("Sends one request per target to a repro serve daemon and prints each");
    println!("ok response's stdout payload (byte-identical to the CLI run);");
    println!("source/job accounting goes to stderr. Analytic answers also report");
    println!("their model version and error bound on stderr.");
    println!("--analytic-rel PERMILLE is the widest model bound (permille of the");
    println!("prediction) this client accepts from the daemon's analytic fast");
    println!("lane; 0 demands real simulation (default 600).");
    println!("The pseudo-target 'stats' returns the daemon's triage counters.");
    println!("--retries N retries retryable outcomes (busy, transient errors,");
    println!("torn replies, connection resets — e.g. a daemon restarting under");
    println!("serve --supervise) up to N times with bounded exponential backoff");
    println!("(50ms doubling, cap 2s); the converged answer is byte-identical");
    println!("to a fault-free run. 0 (default) fails fast on the first error.");
    println!("exit codes: 0 ok, 1 error response or transport failure,");
    println!("            2 usage error, 3 busy, 4 draining.");
}

fn cmd_query(argv: &[String]) -> i32 {
    let mut endpoint_spec = "results/membw.sock".to_string();
    let mut template = ServiceRequest::new("");
    let mut targets_req: Vec<String> = Vec::new();
    let mut retries: u32 = 0;
    let mut args = argv.iter();
    let parsed = (|| -> Result<(), String> {
        while let Some(a) = args.next() {
            match a.as_str() {
                "--socket" => {
                    endpoint_spec = args
                        .next()
                        .ok_or("--socket needs a path or tcp: spec")?
                        .clone();
                }
                "--scale" => {
                    template.scale = args.next().ok_or("--scale needs a value")?.clone();
                }
                "--sweep" => {
                    template.sweep = args.next().ok_or("--sweep needs a mode")?.clone();
                }
                "--audit" => {
                    template.audit = args.next().ok_or("--audit needs a level")?.clone();
                }
                "--deadline-ms" => {
                    let v = args.next().ok_or("--deadline-ms needs milliseconds")?;
                    template.deadline_ms = v
                        .parse::<u64>()
                        .map_err(|_| format!("--deadline-ms needs milliseconds, got '{v}'"))?;
                }
                "--priority" => {
                    let v = args.next().ok_or("--priority needs 0-255")?;
                    template.priority = v
                        .parse::<u8>()
                        .map_err(|_| format!("--priority needs 0-255, got '{v}'"))?;
                }
                "--analytic-rel" => {
                    let v = args
                        .next()
                        .ok_or("--analytic-rel needs permille (0 = simulate)")?;
                    template.analytic_rel_permille = v
                        .parse::<u32>()
                        .map_err(|_| format!("--analytic-rel needs permille, got '{v}'"))?;
                }
                "--retries" => {
                    let v = args.next().ok_or("--retries needs a count")?;
                    retries = v
                        .parse::<u32>()
                        .map_err(|_| format!("--retries needs a count, got '{v}'"))?;
                }
                "--help" | "-h" => {
                    query_usage();
                    std::process::exit(0);
                }
                t if !t.starts_with('-') => targets_req.push(t.to_string()),
                other => return Err(format!("unknown query flag {other}")),
            }
        }
        if targets_req.is_empty() {
            return Err("query needs at least one target".to_string());
        }
        Ok(())
    })();
    if let Err(e) = parsed {
        eprintln!("error: {e}");
        return 2;
    }
    let endpoint = match Endpoint::parse(&endpoint_spec) {
        Ok(ep) => ep,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    for target in &targets_req {
        let mut req = template.clone();
        req.target = target.clone();
        let resp = if retries == 0 {
            match client::query(&endpoint, &req, None) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!(
                        "error: query '{target}' against {}: {e}",
                        endpoint.display()
                    );
                    return 1;
                }
            }
        } else {
            let policy = client::Backoff {
                attempts: retries.saturating_add(1),
                ..client::Backoff::default()
            };
            match client::query_with_backoff(&endpoint, &req, None, &policy) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!(
                        "error: query '{target}' against {}: {e}",
                        endpoint.display()
                    );
                    return 1;
                }
            }
        };
        match resp {
            ServiceResponse::Ok {
                source,
                fnv64,
                jobs,
                resumed,
                model,
                bound_rel_permille,
                stdout,
                ..
            } => {
                let actual = format!("{:016x}", persist::fnv64(&stdout));
                if actual != fnv64 {
                    eprintln!(
                        "error: query '{target}': response checksum mismatch \
                         (claimed {fnv64}, payload hashes to {actual})"
                    );
                    return 1;
                }
                print!("{stdout}");
                match (model, bound_rel_permille) {
                    (Some(model), Some(bound)) => eprintln!(
                        "query: {target}: source: {source} (model {model}, \
                         bound {bound} permille)"
                    ),
                    _ => eprintln!(
                        "query: {target}: source: {source} ({jobs} job(s), {resumed} resumed)"
                    ),
                }
            }
            ServiceResponse::Stats(stats) => {
                println!(
                    "stats: analytic {} simulated {} store {} coalesced {} rejected {} \
                     store-hit {} permille quarantined {} retention-dropped {} \
                     save-failures {} net-timeouts {} oversize-rejected {} \
                     malformed-rejected {} reply-aborted {} supervisor-restarts {}",
                    stats.analytic,
                    stats.simulated,
                    stats.store,
                    stats.coalesced,
                    stats.rejected,
                    stats.store_hit_permille(),
                    stats.quarantined,
                    stats.retention_dropped,
                    stats.save_failures,
                    stats.net_timeouts,
                    stats.oversize_rejected,
                    stats.malformed_rejected,
                    stats.reply_aborted,
                    stats.supervisor_restarts
                );
            }
            ServiceResponse::Busy { queued, bound } => {
                eprintln!("query: {target}: busy ({queued} queued, bound {bound}); retry later");
                return 3;
            }
            ServiceResponse::Draining => {
                eprintln!("query: {target}: daemon is draining; retry after restart");
                return 4;
            }
            ServiceResponse::Error {
                kind,
                message,
                cell,
                retry_after_ms,
            } => {
                match cell {
                    Some(cell) => {
                        eprintln!("error: query '{target}': [{kind}] {message} (cell: {cell})");
                    }
                    None => eprintln!("error: query '{target}': [{kind}] {message}"),
                }
                if let Some(ms) = retry_after_ms {
                    eprintln!("query: {target}: transient; retry after {ms} ms");
                }
                return 1;
            }
        }
    }
    0
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => std::process::exit(cmd_serve(&argv[1..])),
        Some("query") => std::process::exit(cmd_query(&argv[1..])),
        _ => {}
    }
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // From here on SIGINT/SIGTERM request a drain instead of killing the
    // process; a second signal force-exits with code 130.
    runner::install_signal_drain();
    let cancel = runner::CancelToken::global();
    if let Some(d) = opts.deadline {
        cancel.set_deadline(d);
    }
    runner::set_checkpoint(Some(CheckpointConfig {
        root: opts.checkpoint_dir.clone(),
        resume: opts.resume,
    }));
    let leaves: Vec<&str> = opts
        .targets
        .iter()
        .flat_map(|t| {
            if t == "all" {
                ALL_TARGETS.to_vec()
            } else {
                vec![t.as_str()]
            }
        })
        .collect();
    let mut timings = Vec::new();
    let mut failed_targets: Vec<String> = Vec::new();
    let mut skipped_targets: Vec<String> = Vec::new();
    for t in leaves {
        // Once a drain is requested (signal or deadline) no further
        // target starts; already-finished targets keep their stdout.
        if cancel.is_cancelled() {
            skipped_targets.push(t.to_string());
            continue;
        }
        // A failed target never aborts the campaign: report it on
        // stderr (stdout stays byte-identical for healthy targets) and
        // keep going.
        if let Err(e) = run_target(&opts, t, &mut timings) {
            failed_targets.push(t.to_string());
            eprintln!("error: target '{t}': {e}");
            let jobs = e.failed_jobs();
            if !jobs.is_empty() {
                eprintln!("{}", report::failure_table(t, jobs).render());
            }
        }
    }
    if !timings.is_empty() {
        eprintln!();
        eprintln!(
            "{}",
            report::timing_table(&timings, RunCtx::current().jobs).render()
        );
    }
    let audit_summary = audit::summary();
    let audit_level = RunCtx::current().audit;
    if audit_summary.targets > 0 || audit_level != AuditLevel::Off {
        let quarantined = runner::quarantined_artifacts();
        let trace_failures = membw_core::trace::TraceCache::global()
            .stats()
            .verify_failures;
        eprintln!(
            "audit[{}]: {} check(s) across {} target(s), {} violation(s); \
             {} artifact(s) quarantined, {} cached trace(s) failed verification",
            audit_level.as_str(),
            audit_summary.checks,
            audit_summary.targets,
            audit_summary.violations,
            quarantined,
            trace_failures,
        );
    }
    let gov = &RunCtx::current().governor;
    if gov.limited() {
        let s = gov.stats();
        eprintln!(
            "governor[{} MiB]: finished at level {}; {} escalation event(s), \
             {} forced eviction(s), {} throttled admission(s)",
            s.budget_bytes.unwrap_or(0) / (1024 * 1024),
            s.level,
            s.events,
            s.forced_evictions,
            s.throttled_admissions,
        );
    }
    if let Some(reason) = cancel.cancel_reason() {
        // Partial-run summary: what finished, what the drain cut short,
        // and how to pick the campaign back up.
        let cancelled_jobs = runner::metrics().cancelled;
        eprintln!(
            "repro: cancelled ({reason}): {} target(s) completed, {} failed or cut short \
             ({} job(s) cancelled in flight), {} never started; completed jobs are \
             checkpointed under {} — rerun with --resume to finish",
            timings.len(),
            failed_targets.len(),
            cancelled_jobs,
            skipped_targets.len(),
            opts.checkpoint_dir.display()
        );
        std::process::exit(match reason {
            runner::CancelReason::Interrupted => 130,
            runner::CancelReason::DeadlineExceeded => 124,
        });
    }
    if !failed_targets.is_empty() {
        eprintln!(
            "repro: {} target(s) failed: {}; completed jobs are checkpointed under {} — rerun with --resume to reuse them",
            failed_targets.len(),
            failed_targets.join(", "),
            opts.checkpoint_dir.display()
        );
        std::process::exit(1);
    }
}
