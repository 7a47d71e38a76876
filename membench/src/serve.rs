//! The `serve-mix` workload: a warm `repro serve --analytic assist`
//! daemon on a Unix socket, driven by a closed loop of two clients that
//! each wait for their reply before sending the next request.

use crate::expected::{self, Pin, ANALYTIC_SMALL, CLI_TEST};
use crate::proc;
use crate::stats::{describe, median};
use crate::{fresh_dir, Env, Report, SplitMix, JOBS};
use membw_core::runner::persist;
use membw_core::service::{source, ServeStats, ServiceRequest, ServiceResponse, STATS_TARGET};
use membw_core::trace::signature::SIG_DIR_ENV;
use membw_serve::{client, Endpoint};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median. Each one spends most of
/// its 20 s on the scale-small signature pass behind fig3's first
/// analytic answer, so two fit the run-time budget where three do not.
const SETUP_REPEATS: usize = 2;

/// Closed-loop clients (one per core of the reference host).
const CLIENTS: u64 = 2;

/// Widest model bound the analytic requests accept, in permille.
pub const ANALYTIC_REL_PERMILLE: u32 = 100_000;

/// Targets the set-up renders into the daemon's store.
const PRIMED: [&str; 5] = ["fig3", "fig4", "table7", "table8", "table9"];

/// Store reads of large payloads.
const STORE_LARGE: [&str; 2] = ["fig3", "fig4"];
/// Store reads of small payloads.
const STORE_SMALL: [&str; 3] = ["table7", "table8", "table9"];
/// Analytic answers at scale small.
const ANALYTIC: [&str; 3] = ["fig3", "fig4", "table7"];

/// Bound on one reply; a stalled daemon fails the sample, not the run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Where a reply must come from, and which bytes it must carry.
#[derive(Clone, Copy)]
struct Expect {
    source: &'static str,
    pin: &'static Pin,
}

/// A request of the mix plus what its reply must be.
fn store_read(target: &str) -> (ServiceRequest, Expect) {
    let mut req = ServiceRequest::new(target);
    req.scale = "test".to_string();
    let pin = expected::pin(&CLI_TEST, target);
    (
        req,
        Expect {
            source: source::STORE,
            pin,
        },
    )
}

fn analytic_read(target: &str) -> (ServiceRequest, Expect) {
    let mut req = ServiceRequest::new(target);
    req.scale = "small".to_string();
    req.analytic_rel_permille = ANALYTIC_REL_PERMILLE;
    let pin = expected::pin(&ANALYTIC_SMALL, target);
    (
        req,
        Expect {
            source: source::ANALYTIC,
            pin,
        },
    )
}

/// A simulated render at scale test (tolerance 0 opts out of the
/// analytic lane), which the daemon persists to its store.
fn prime(target: &str) -> (ServiceRequest, Expect) {
    let (mut req, _) = store_read(target);
    req.analytic_rel_permille = 0;
    let pin = expected::pin(&CLI_TEST, target);
    (
        req,
        Expect {
            source: source::COMPUTED,
            pin,
        },
    )
}

/// Check one reply. `jobs` and `resumed` are not checked: the daemon
/// attributes them from process-global counters, which is a known
/// defect under concurrent renders.
fn check_reply(resp: &ServiceResponse, want: Expect) -> Result<(), String> {
    let ServiceResponse::Ok {
        target,
        source,
        fnv64,
        model,
        bound_rel_permille,
        stdout,
        ..
    } = resp
    else {
        return Err(format!(
            "{}: {} reply: {resp:?}",
            want.pin.target,
            resp.status()
        ));
    };
    if *source != want.source {
        return Err(format!(
            "{target}: source {source}, expected {}",
            want.source
        ));
    }
    let actual = format!("{:016x}", persist::fnv64(stdout));
    if *fnv64 != actual {
        return Err(format!(
            "{target}: reply claims fnv64 {fnv64}, bytes hash to {actual}"
        ));
    }
    if want.source == source::ANALYTIC {
        if model.as_deref() != Some(membw_core::analytic::ecm::MODEL_VERSION) {
            return Err(format!("{target}: analytic reply from model {model:?}"));
        }
        match bound_rel_permille {
            Some(b) if *b <= u64::from(ANALYTIC_REL_PERMILLE) => {}
            other => return Err(format!("{target}: analytic bound {other:?} permille")),
        }
    }
    expected::check(want.pin, stdout)
}

fn ask(endpoint: &Endpoint, req: &ServiceRequest, want: Expect) -> Result<(), String> {
    let resp = client::query(endpoint, req, Some(REPLY_TIMEOUT))
        .map_err(|e| format!("{}: transport: {e}", req.target))?;
    check_reply(&resp, want)
}

/// A running daemon, killed and reaped however the run ends.
struct Daemon {
    child: Child,
    endpoint: Endpoint,
}

impl Daemon {
    fn spawn(env: &Env, dir: &Path) -> Result<Daemon, String> {
        let stderr = std::fs::File::create(dir.join("stderr.txt"))
            .map_err(|e| format!("create daemon stderr file: {e}"))?;
        let jobs = JOBS.to_string();
        let child = Command::new(&env.repro)
            .current_dir(dir)
            .args(["serve", "--analytic", "assist", "--socket", "s.sock"])
            .args(["--store", "store", "--checkpoint-dir", "ck"])
            .args(["--jobs", &jobs, "--max-inflight", &jobs])
            .env(SIG_DIR_ENV, "sig")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        Ok(Daemon {
            child,
            endpoint: Endpoint::Unix(dir.join("s.sock")),
        })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Set-up: spawn a daemon in the fresh directory `dir`, wait until it
/// accepts connections, prime its store, and take the first analytic
/// answer of every key (which pays the trace-signature pass).
fn set_up(env: &Env, dir: &Path, r: &mut Report) -> Result<Daemon, String> {
    fresh_dir(dir)?;
    let daemon = Daemon::spawn(env, dir)?;
    if !client::wait_ready(&daemon.endpoint, Duration::from_secs(60)) {
        return Err("daemon never accepted a connection".to_string());
    }
    for t in PRIMED {
        let (req, want) = prime(t);
        r.check(ask(&daemon.endpoint, &req, want));
    }
    for t in ANALYTIC {
        let (req, want) = analytic_read(t);
        r.check(ask(&daemon.endpoint, &req, want));
    }
    Ok(daemon)
}

/// One client's share of the seeded request stream: 20% large store
/// reads, 40% small store reads, 40% analytic answers.
fn next_request(rng: &mut SplitMix) -> (ServiceRequest, Expect) {
    let roll = rng.below(10);
    let pick =
        |rng: &mut SplitMix, from: &[&'static str]| from[rng.below(from.len() as u64) as usize];
    match roll {
        0..=1 => store_read(pick(rng, &STORE_LARGE)),
        2..=5 => store_read(pick(rng, &STORE_SMALL)),
        _ => analytic_read(pick(rng, &ANALYTIC)),
    }
}

/// One answered request: target, expected source, latency, completion
/// time since the stream started, check.
struct Sample {
    target: String,
    source: &'static str,
    latency_us: f64,
    done_s: f64,
    result: Result<(), String>,
}

fn client_loop(
    endpoint: &Endpoint,
    seed: u64,
    client: u64,
    stream_start: Instant,
    until: Instant,
) -> Vec<Sample> {
    let mut rng = SplitMix::new(seed, 100 + client);
    let mut out = Vec::new();
    while Instant::now() < until {
        let (req, want) = next_request(&mut rng);
        let start = Instant::now();
        let resp = client::query(endpoint, &req, Some(REPLY_TIMEOUT));
        let latency_us = start.elapsed().as_secs_f64() * 1e6;
        let result = resp
            .map_err(|e| format!("{}: transport: {e}", req.target))
            .and_then(|resp| check_reply(&resp, want));
        out.push(Sample {
            target: req.target,
            source: want.source,
            latency_us,
            done_s: stream_start.elapsed().as_secs_f64(),
            result,
        });
    }
    out
}

/// Completed requests in each whole second of the stream. Their median
/// is the throughput: a burst of host noise costs one window, not the
/// run's mean.
fn per_second(samples: &[Sample], measured_s: f64) -> Vec<f64> {
    let mut windows = vec![0u64; measured_s.floor().max(1.0) as usize];
    for s in samples.iter().filter(|s| s.result.is_ok()) {
        if let Some(w) = windows.get_mut(s.done_s as usize) {
            *w += 1;
        }
    }
    windows.into_iter().map(|n| n as f64).collect()
}

fn daemon_stats(endpoint: &Endpoint) -> Result<ServeStats, String> {
    match client::query(
        endpoint,
        &ServiceRequest::new(STATS_TARGET),
        Some(REPLY_TIMEOUT),
    ) {
        Ok(ServiceResponse::Stats(s)) => Ok(s),
        other => Err(format!("stats request answered {other:?}")),
    }
}

/// Run `serve-mix`.
pub fn run(env: &Env) -> Report {
    let mut r = Report::default();
    r.line(format!(
        "workload: repro serve --analytic assist --jobs {JOBS} --max-inflight {JOBS}, \
         {CLIENTS} closed-loop clients"
    ));
    let mut setups = Vec::new();
    let mut daemon = None;
    for k in 0..SETUP_REPEATS {
        let start = Instant::now();
        match set_up(env, &env.work.join(format!("d{k}")), &mut r) {
            Ok(d) => {
                setups.push(start.elapsed().as_secs_f64());
                // Only the last daemon serves the timed stream.
                daemon = Some(d);
            }
            Err(e) => {
                r.fail(e);
                return r;
            }
        }
    }
    let daemon = daemon.expect("at least one set-up ran");
    let endpoint = &daemon.endpoint;
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(env.seconds);
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| s.spawn(move || client_loop(endpoint, env.seed, c, start, until)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let measured_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = proc::vm_hwm_mb(daemon.child.id());
    let stats = daemon_stats(endpoint);
    drop(daemon);

    let lat = |f: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| f(s))
            .map(|s| s.latency_us)
            .collect()
    };
    let all = lat(&|_| true);
    let ok = samples.iter().filter(|s| s.result.is_ok()).count();
    let store_n = samples.iter().filter(|s| s.source == source::STORE).count() as u64;
    for s in &samples {
        r.check(s.result.clone());
    }
    match stats {
        Ok(st) => {
            r.line(format!(
                "daemon stats: store {} analytic {} simulated {} coalesced {} rejected {}",
                st.store, st.analytic, st.simulated, st.coalesced, st.rejected
            ));
            let analytic_n = all.len() as u64 - store_n + ANALYTIC.len() as u64;
            let want = (store_n, analytic_n, PRIMED.len() as u64, 0, 0);
            let got = (
                st.store,
                st.analytic,
                st.simulated,
                st.coalesced,
                st.rejected,
            );
            if got != want {
                r.fail(format!("daemon stats {got:?}, replies imply {want:?}"));
            }
        }
        Err(e) => r.fail(e),
    }
    let windows = per_second(&samples, measured_s);
    let rps = median(&windows);
    r.line(format!("setup_s          {}", describe(&setups, "s")));
    r.line(format!(
        "serve_rps        median {rps:.1} over {} one-second windows ({ok} answered in {measured_s:.2} s)",
        windows.len()
    ));
    r.line(format!("serve_latency_us {}", describe(&all, "us")));
    r.line(format!(
        "store_us         {}",
        describe(&lat(&|s| s.source == source::STORE), "us")
    ));
    r.line(format!(
        "analytic_us      {}",
        describe(&lat(&|s| s.source == source::ANALYTIC), "us")
    ));
    for t in STORE_LARGE.iter().chain(&STORE_SMALL) {
        let xs = lat(&|s| s.source == source::STORE && s.target == *t);
        r.line(format!("  store {t:<7} {}", describe(&xs, "us")));
    }
    for t in ANALYTIC {
        let xs = lat(&|s| s.source == source::ANALYTIC && s.target == t);
        r.line(format!("  analytic {t:<7} {}", describe(&xs, "us")));
    }
    r.line(format!(
        "peak_rss_mb      {:.1}",
        peak_rss_mb.unwrap_or(0.0)
    ));
    r.line(format!(
        "failed_frac      {:.4} ({} of {})",
        r.failed as f64 / r.attempted as f64,
        r.failed,
        r.attempted
    ));
    if peak_rss_mb.is_none() {
        r.fail("cannot read the daemon's VmHWM".to_string());
    }
    r.metric("setup_s", median(&setups), "s");
    r.metric("op_p50_ms", median(&all) / 1e3, "ms");
    r.metric("ops_per_s", rps, "1/s");
    r.metric("peak_rss_mb", peak_rss_mb.unwrap_or(0.0), "MB");
    r
}
