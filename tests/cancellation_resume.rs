//! Cancellation, deadlines, and the memory governor end to end at the
//! library level: a run cancelled mid-batch leaves a durable checkpoint
//! and, resumed, renders byte-identically to an uninterrupted run at
//! any `--jobs` setting; a deadline cancels with its own reason; a
//! zero memory budget degrades the run without changing a byte of
//! output.

use membw::runner::{CancelToken, CheckpointConfig, Governor, RunCtx, FAULT_CANCEL_ENV};
use membw::workloads::Scale;
use membw::{run_table7, run_table8};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// `MEMBW_FAULT_*` are process-global; tests that set them must not
/// overlap.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Set an env var for the guard's lifetime.
struct EnvGuard(&'static str);

impl EnvGuard {
    fn set(key: &'static str, value: &str) -> Self {
        std::env::set_var(key, value);
        EnvGuard(key)
    }
}

impl Drop for EnvGuard {
    fn drop(&mut self) {
        std::env::remove_var(self.0);
    }
}

/// A unique throwaway checkpoint root, removed on drop.
struct TempCheckpoint(PathBuf);

impl TempCheckpoint {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "membw-cancel-{}-{}-{}",
            std::process::id(),
            tag,
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        TempCheckpoint(dir)
    }

    fn config(&self, resume: bool) -> Option<CheckpointConfig> {
        Some(CheckpointConfig {
            root: self.0.clone(),
            resume,
        })
    }
}

impl Drop for TempCheckpoint {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn cancelled_run_resumes_byte_identically_at_any_jobs_setting() {
    let _lock = ENV_LOCK.lock().unwrap();
    let (_, clean_table) = RunCtx {
        jobs: 1,
        ..RunCtx::current().child()
    }
    .enter(|| run_table7::run(Scale::Test))
    .expect("clean run succeeds");
    let clean = clean_table.render();

    for jobs in [1, 8] {
        let ckpt = TempCheckpoint::new("resume");

        // Phase 1: the injected cancel fires when job table7:1
        // dispatches; the batch drains, completed jobs land in the
        // checkpoint, and the failure table names the cancellation.
        {
            let _env = EnvGuard::set(FAULT_CANCEL_ENV, "table7:1");
            let token = CancelToken::new();
            let err = RunCtx {
                jobs,
                checkpoint: ckpt.config(false),
                cancel: token.clone(),
                ..RunCtx::current().child()
            }
            .enter(|| run_table7::run(Scale::Test))
            .expect_err("the cancelled batch must surface an error");
            assert!(token.is_cancelled(), "the injected cancel tripped");
            let failures = err.failed_jobs();
            assert!(!failures.is_empty(), "at least the injected job drains");
            assert!(
                failures.iter().any(|f| f.error.contains("cancelled")),
                "failures name the cancellation: {failures:?}"
            );
            assert!(
                failures.iter().all(|f| f.attempts <= 1),
                "cancelled jobs are never retried: {failures:?}"
            );
        }

        // Phase 2: resume under a fresh (live) token. Checkpointed jobs
        // replay, drained jobs recompute, and stdout is byte-identical
        // to the run that was never interrupted.
        let (_, resumed) = RunCtx {
            jobs,
            checkpoint: ckpt.config(true),
            ..RunCtx::current().child()
        }
        .enter(|| run_table7::run(Scale::Test))
        .expect("the resumed run completes");
        assert_eq!(
            resumed.render(),
            clean,
            "resumed output must be byte-identical at jobs={jobs}"
        );
    }
}

#[test]
fn deadline_cancels_with_its_own_reason_and_rerun_is_identical() {
    let _lock = ENV_LOCK.lock().unwrap();
    let (_, clean_table) = RunCtx {
        jobs: 1,
        ..RunCtx::current().child()
    }
    .enter(|| run_table8::run(Scale::Test))
    .expect("clean run succeeds");
    let clean = clean_table.render();

    // An already-expired deadline cancels every job before dispatch.
    let token = CancelToken::new();
    token.set_deadline(Duration::from_nanos(1));
    std::thread::sleep(Duration::from_millis(2));
    let err = RunCtx {
        jobs: 4,
        cancel: token.clone(),
        ..RunCtx::current().child()
    }
    .enter(|| run_table8::run(Scale::Test))
    .expect_err("the expired deadline must cancel the batch");
    assert!(token.is_cancelled());
    let failures = err.failed_jobs();
    assert!(!failures.is_empty());
    assert!(
        failures
            .iter()
            .all(|f| f.error.contains("deadline exceeded")),
        "deadline cancellations carry their reason: {failures:?}"
    );
    assert!(
        failures.iter().all(|f| f.attempts == 0),
        "jobs cancelled before dispatch report zero attempts: {failures:?}"
    );

    // Outside the expired token the same target runs clean and
    // byte-identical.
    let (_, rerun) = RunCtx {
        jobs: 4,
        ..RunCtx::current().child()
    }
    .enter(|| run_table8::run(Scale::Test))
    .expect("rerun completes");
    assert_eq!(rerun.render(), clean);
}

#[test]
fn zero_mem_budget_degrades_without_changing_output() {
    let _lock = ENV_LOCK.lock().unwrap();
    let (_, clean7) = RunCtx {
        jobs: 1,
        ..RunCtx::current().child()
    }
    .enter(|| run_table7::run(Scale::Test))
    .expect("clean table7");
    let (_, clean8) = RunCtx {
        jobs: 1,
        ..RunCtx::current().child()
    }
    .enter(|| run_table8::run(Scale::Test))
    .expect("clean table8");

    // The strictest possible budget: the governor must walk its ladder
    // (cache shrink -> record-streaming -> throttled admission) instead
    // of exceeding it, and the science must not notice.
    let gov = Arc::new(Governor::with_budget_mb(0));
    let budgeted = RunCtx {
        jobs: 8,
        governor: Arc::clone(&gov),
        ..RunCtx::current().child()
    };
    let (_, t7) = budgeted
        .enter(|| run_table7::run(Scale::Test))
        .expect("budgeted table7");
    let (_, t8) = budgeted
        .enter(|| run_table8::run(Scale::Test))
        .expect("budgeted table8");
    assert_eq!(t7.render(), clean7.render(), "table7 byte-identical");
    assert_eq!(t8.render(), clean8.render(), "table8 byte-identical");

    let stats = gov.stats();
    assert_eq!(stats.budget_bytes, Some(0));
    assert_ne!(
        stats.level, "normal",
        "a zero budget forces degradation: {stats:?}"
    );
    assert!(
        stats.events >= 1,
        "escalations are recorded as loud events: {stats:?}"
    );
}
