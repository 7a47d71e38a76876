//! The run context end to end.
//!
//! * Attribution: concurrent distinct serve requests (fig3, table7 and
//!   table8 at test scale) each reply with exactly the `jobs` and
//!   `resumed` counts of the same target's solo reply, at max-inflight 1
//!   and 4, from scratch and resuming from a populated checkpoint.
//! * Crossing: a job sees every setting of the context entered around
//!   it on a `Runner` worker thread, on the `--job-timeout` watchdog
//!   thread, and on a `Dispatcher` worker.

use membw::runner::{
    AnalyticMode, AuditLevel, CancelReason, CancelToken, CheckpointConfig, Dispatcher, Governor,
    JobOutcome, RunCtx, Runner,
};
use membw::service::{source, ServiceRequest, ServiceResponse};
use membw_serve::{ResultStore, ServeConfig, Server};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const TARGETS: [&str; 3] = ["fig3", "table7", "table8"];

/// A unique throwaway directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        TempDir(std::env::temp_dir().join(format!(
            "membw-runctx-{}-{tag}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        )))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `(jobs, resumed)` of each target's reply from one fresh-store server
/// built under `ctx`, all requests sent at once.
fn replies(ctx: &RunCtx, max_inflight: usize, targets: &[&str]) -> Vec<(u64, u64)> {
    let store = TempDir::new("store");
    let config = ServeConfig {
        max_inflight,
        ..ServeConfig::default()
    };
    let server = Arc::new(
        ctx.enter(|| Server::new(config, ResultStore::open(&store.0).expect("open store"))),
    );
    let gate = Arc::new(Barrier::new(targets.len()));
    let senders: Vec<_> = targets
        .iter()
        .map(|target| {
            let (server, gate) = (Arc::clone(&server), Arc::clone(&gate));
            let mut req = ServiceRequest::new(*target);
            req.scale = "test".to_string();
            std::thread::spawn(move || {
                gate.wait();
                server.handle_request(&req)
            })
        })
        .collect();
    senders
        .into_iter()
        .zip(targets)
        .map(
            |(sender, target)| match sender.join().expect("sender thread") {
                ServiceResponse::Ok {
                    source: s,
                    jobs,
                    resumed,
                    ..
                } => {
                    assert_eq!(s, source::COMPUTED, "{target}: must simulate");
                    (jobs, resumed)
                }
                other => panic!("{target}: expected a computed reply, got {other:?}"),
            },
        )
        .collect()
}

#[test]
fn concurrent_requests_each_report_exactly_their_own_jobs() {
    let checkpoint = TempDir::new("ckpt");
    let resuming = RunCtx {
        checkpoint: Some(CheckpointConfig {
            root: checkpoint.0.clone(),
            resume: true,
        }),
        ..RunCtx::current().child()
    };
    // Populate the checkpoint: every later render under `resuming`
    // replays its jobs instead of running them.
    replies(&resuming, 4, &TARGETS);

    for (case, ctx) in [("fresh", RunCtx::current().child()), ("resume", resuming)] {
        let solo: Vec<(u64, u64)> = TARGETS
            .iter()
            .map(|target| replies(&ctx, 1, &[target])[0])
            .collect();
        for (target, (jobs, resumed)) in TARGETS.iter().zip(&solo) {
            if case == "fresh" {
                assert!(*jobs > 0 && *resumed == 0, "{target}: {jobs} / {resumed}");
            } else {
                assert!(*resumed > 0, "{target}: nothing resumed");
            }
        }
        for max_inflight in [1, 4] {
            assert_eq!(
                replies(&ctx, max_inflight, &TARGETS),
                solo,
                "{case}, max-inflight {max_inflight}: (jobs, resumed) per target {TARGETS:?}"
            );
        }
    }
}

/// Assert that `seen` (captured inside a job) carries every setting of
/// `entered` except the cancel token, which is checked by cancelling.
fn assert_carries(place: &str, seen: &RunCtx, entered: &RunCtx) {
    assert_eq!(seen.jobs, entered.jobs, "{place}: jobs");
    assert_eq!(seen.retries, entered.retries, "{place}: retries");
    assert_eq!(
        seen.job_timeout, entered.job_timeout,
        "{place}: job timeout"
    );
    assert_eq!(seen.checkpoint, entered.checkpoint, "{place}: checkpoint");
    assert!(
        Arc::ptr_eq(&seen.governor, &entered.governor),
        "{place}: governor"
    );
    assert_eq!(seen.audit, entered.audit, "{place}: audit level");
    assert_eq!(seen.analytic, entered.analytic, "{place}: analytic mode");
    assert!(Arc::ptr_eq(&seen.sink, &entered.sink), "{place}: sink");
}

#[test]
fn jobs_see_the_entered_context_on_every_engine_thread() {
    let entered = RunCtx {
        jobs: 3,
        retries: 2,
        job_timeout: Some(Duration::from_secs(600)),
        checkpoint: Some(CheckpointConfig {
            root: PathBuf::from("never-written"),
            resume: true,
        }),
        cancel: CancelToken::new(),
        governor: Arc::new(Governor::with_budget_mb(1 << 30)),
        audit: AuditLevel::Strict,
        analytic: AnalyticMode::Only,
        ..RunCtx::current().child()
    };
    let caller = std::thread::current().id();
    let probe = |_| (RunCtx::current(), std::thread::current().id());

    // `run` has no watchdog: jobs execute on the runner's own workers.
    let workers = entered.enter(|| Runner::default().run(6, probe));
    // `try_run` with a job timeout runs each attempt on a watchdog thread.
    let watched = entered.enter(|| Runner::default().try_run("probe", 6, probe));
    let watched: Vec<_> = watched
        .into_iter()
        .map(|r| r.expect("probe job succeeds"))
        .collect();
    for (place, seen) in [("runner worker", &workers), ("watchdog", &watched)] {
        for (ctx, thread) in seen {
            assert_ne!(*thread, caller, "{place}: ran off the calling thread");
            assert_carries(place, ctx, &entered);
        }
    }
    entered.cancel.cancel(CancelReason::Interrupted);
    for (ctx, _) in workers.iter().chain(&watched) {
        assert!(ctx.cancel.is_cancelled(), "the entered token reaches jobs");
    }

    // A dispatcher runs every job under the context it was built with,
    // with the job's own cancel token.
    let d = entered.enter(|| Dispatcher::new(&RunCtx::current(), 1, 4));
    let handle = d.submit(0, RunCtx::current).expect("queue has room");
    let seen = match handle.wait() {
        JobOutcome::Completed(ctx) => ctx,
        other => panic!("probe job failed: {other:?}"),
    };
    d.close();
    assert_carries("dispatcher worker", &seen, &entered);
    assert!(!seen.cancel.is_cancelled(), "a job has its own token");
    handle.cancel();
    assert!(
        seen.cancel.is_cancelled(),
        "the job's token is its handle's"
    );

    // Leaving `enter` restores what the thread saw before.
    assert!(!Arc::ptr_eq(&RunCtx::current().sink, &entered.sink));
}
