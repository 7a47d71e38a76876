//! Fault tolerance end to end at the library level: an injected
//! per-job panic (or stall) fails that job alone — siblings complete,
//! unaffected batches render byte-identically with or without the
//! fault at any `--jobs` setting, and the failure is reported as a
//! typed error naming the job.

use membw::runner::RunCtx;
use membw::workloads::Scale;
use membw::{run_table7, run_table8};
use std::sync::Mutex;
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

#[test]
fn injected_panic_fails_one_job_and_names_it() {
    let _lock = ENV_LOCK.lock().unwrap();
    let _env = EnvGuard::set("MEMBW_FAULT_INJECT", "table7:2");
    for jobs in [1, 8] {
        let err = RunCtx {
            jobs,
            ..RunCtx::current().child()
        }
        .enter(|| run_table7::run(Scale::Test))
        .expect_err("the injected fault must surface");
        let failures = err.failed_jobs();
        assert_eq!(failures.len(), 1, "exactly the injected job fails");
        let f = &failures[0];
        assert_eq!(f.label, "table7");
        assert_eq!(f.index, 2);
        assert_eq!(f.attempts, 1, "no retries configured");
        assert!(!f.job.is_empty(), "failure names the benchmark");
        assert!(
            f.error.contains("injected fault at table7:2"),
            "panic message preserved: {}",
            f.error
        );
    }
}

#[test]
fn unaffected_batches_render_byte_identically_under_a_fault() {
    let _lock = ENV_LOCK.lock().unwrap();
    let (_, clean_serial) = RunCtx {
        jobs: 1,
        ..RunCtx::current().child()
    }
    .enter(|| run_table8::run(Scale::Test))
    .expect("clean run succeeds");
    let clean = clean_serial.render();

    // A fault in table7 must not perturb table8's output in any way,
    // serial or parallel — the injection hooks key on the batch label.
    let _env = EnvGuard::set("MEMBW_FAULT_INJECT", "table7:0");
    assert!(
        RunCtx {
            jobs: 1,
            ..RunCtx::current().child()
        }
        .enter(|| run_table7::run(Scale::Test))
        .is_err(),
        "the fault is live"
    );
    for jobs in [1, 8] {
        let (_, faulted) = RunCtx {
            jobs,
            ..RunCtx::current().child()
        }
        .enter(|| run_table8::run(Scale::Test))
        .expect("table8 is healthy");
        assert_eq!(
            faulted.render(),
            clean,
            "table8 must be byte-identical with the table7 fault live at jobs={jobs}"
        );
    }
}

#[test]
fn injected_stall_trips_the_job_deadline() {
    let _lock = ENV_LOCK.lock().unwrap();
    // Job 1 sleeps 1.2 s against a 300 ms deadline; healthy Test-scale
    // jobs finish well inside it.
    let _env = EnvGuard::set("MEMBW_FAULT_SLOW", "table7:1:1200");
    let err = RunCtx {
        jobs: 4,
        job_timeout: Some(Duration::from_millis(300)),
        ..RunCtx::current().child()
    }
    .enter(|| run_table7::run(Scale::Test))
    .expect_err("the stalled job must be marked failed");
    let failures = err.failed_jobs();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].index, 1);
    assert!(
        failures[0].error.contains("deadline"),
        "timeout reported as a deadline overrun: {}",
        failures[0].error
    );
}
