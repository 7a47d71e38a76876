//! The run context: every setting a job reads, and the sink its
//! accounting lands in, as one value.
//!
//! A [`RunCtx`] carries the pool width, retry budget, per-job deadline,
//! checkpoint root, cancel token, memory governor, audit level and
//! analytic mode of a run, plus a [`Sink`] counting the jobs that run
//! under it.
//!
//! There is one process root, configured by [`set_jobs`](crate::set_jobs)
//! and the other `set_*` calls (`repro` maps its flags onto them), and
//! one thread-local slot holding the context entered on this thread
//! with [`RunCtx::enter`]. [`RunCtx::current`] reads the slot, or the
//! root when nothing is entered. [`Runner`](crate::Runner) and
//! [`Dispatcher`](crate::Dispatcher) capture a context once and enter
//! it in every thread they start, so a job sees the context its caller
//! entered whichever thread it lands on.
//!
//! A [`RunCtx::child`] shares every setting but counts into a fresh
//! sink, which also feeds its parent's: a serve request or a `repro`
//! target reads exactly its own job counts from its child, while
//! [`metrics`](crate::metrics) (the root sink) still counts every job
//! in the process.

use crate::cancel::CancelToken;
use crate::governor::Governor;
use crate::{CheckpointConfig, Metrics};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};
use std::time::Duration;

/// How hard the auditor reacts to a violated invariant
/// (`repro --audit off|warn|strict`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AuditLevel {
    /// Skip all checks.
    Off,
    /// Check everything; report violations on stderr and keep going.
    #[default]
    Warn,
    /// Check everything; violations fail the target.
    Strict,
}

impl AuditLevel {
    /// The CLI spelling (`off` / `warn` / `strict`).
    pub fn as_str(self) -> &'static str {
        match self {
            AuditLevel::Off => "off",
            AuditLevel::Warn => "warn",
            AuditLevel::Strict => "strict",
        }
    }
}

impl std::str::FromStr for AuditLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(AuditLevel::Off),
            "warn" => Ok(AuditLevel::Warn),
            "strict" => Ok(AuditLevel::Strict),
            other => Err(format!(
                "unknown audit level '{other}' (expected off|warn|strict)"
            )),
        }
    }
}

/// How the analytic predictor participates in a run
/// (`repro --analytic off|assist|only`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalyticMode {
    /// Predictor disabled; output byte-identical to the seed.
    #[default]
    Off,
    /// Simulate as usual, and additionally check every simulated cell
    /// against the predictor through the `analytic-bound` invariant.
    Assist,
    /// Answer from the predictor alone (supported targets only); no
    /// simulation, no trace arena.
    Only,
}

impl AnalyticMode {
    /// The CLI spelling (`off` / `assist` / `only`).
    pub fn as_str(self) -> &'static str {
        match self {
            AnalyticMode::Off => "off",
            AnalyticMode::Assist => "assist",
            AnalyticMode::Only => "only",
        }
    }
}

impl std::str::FromStr for AnalyticMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(AnalyticMode::Off),
            "assist" => Ok(AnalyticMode::Assist),
            "only" => Ok(AnalyticMode::Only),
            other => Err(format!(
                "unknown analytic mode '{other}' (expected off|assist|only)"
            )),
        }
    }
}

/// One counter of a [`Sink`] (the index into its array).
#[derive(Clone, Copy)]
pub(crate) enum Count {
    Batches,
    Jobs,
    BusyNanos,
    Retries,
    Failures,
    Resumed,
    Cancelled,
}

/// Job accounting of one context. Every count added here is also added
/// to the parent sink, up to the process root.
#[derive(Debug, Default)]
pub struct Sink {
    counts: [AtomicU64; 7],
    parent: Option<Arc<Sink>>,
}

impl Sink {
    pub(crate) fn add(&self, what: Count, n: u64) {
        let mut sink = Some(self);
        while let Some(s) = sink {
            s.counts[what as usize].fetch_add(n, Ordering::Relaxed);
            sink = s.parent.as_deref();
        }
    }

    /// Snapshot the jobs counted here (this context and its children).
    pub fn metrics(&self) -> Metrics {
        let get = |what: Count| self.counts[what as usize].load(Ordering::Relaxed);
        Metrics {
            batches: get(Count::Batches),
            jobs: get(Count::Jobs),
            busy_nanos: get(Count::BusyNanos),
            retries: get(Count::Retries),
            failures: get(Count::Failures),
            resumed: get(Count::Resumed),
            cancelled: get(Count::Cancelled),
        }
    }
}

/// See the [module docs](self).
///
/// Derive a context with struct update syntax, for example
/// `RunCtx { jobs: 8, ..RunCtx::current().child() }`, and run code under
/// it with [`RunCtx::enter`]. Cloning shares the sink.
#[derive(Debug, Clone)]
pub struct RunCtx {
    /// Pool width of the runners created under this context
    /// (`--jobs N`, else `MEMBW_JOBS`, else the detected parallelism).
    pub jobs: usize,
    /// Extra attempts a panicked job gets (`--retries N`).
    pub retries: u32,
    /// Per-job deadline (`--job-timeout SECS`); `None` runs no watchdog.
    pub job_timeout: Option<Duration>,
    /// Where completed job results are archived (`--resume`); `None`
    /// (the library default) never touches the filesystem.
    pub checkpoint: Option<CheckpointConfig>,
    /// The token jobs poll; the root's is the one SIGINT flips.
    pub cancel: CancelToken,
    /// The memory governor jobs are admitted through (`--mem-budget`).
    pub governor: Arc<Governor>,
    /// How the auditor reacts to a violated invariant (`--audit`).
    pub audit: AuditLevel,
    /// The analytic predictor's role (`--analytic`).
    pub analytic: AnalyticMode,
    /// Where the jobs run under this context are counted.
    pub sink: Arc<Sink>,
}

thread_local! {
    /// The context entered on this thread; `None` means the root.
    static CURRENT: RefCell<Option<Arc<RunCtx>>> = const { RefCell::new(None) };
}

fn root() -> &'static RwLock<Arc<RunCtx>> {
    static ROOT: OnceLock<RwLock<Arc<RunCtx>>> = OnceLock::new();
    ROOT.get_or_init(|| {
        RwLock::new(Arc::new(RunCtx {
            jobs: jobs_from_env(),
            retries: 0,
            job_timeout: None,
            checkpoint: None,
            cancel: CancelToken::global(),
            governor: Arc::new(Governor::unlimited()),
            audit: AuditLevel::default(),
            analytic: AnalyticMode::default(),
            sink: Arc::default(),
        }))
    })
}

/// The root's pool width, read once: `MEMBW_JOBS`, else the detected
/// parallelism.
fn jobs_from_env() -> usize {
    if let Ok(v) = std::env::var(crate::JOBS_ENV) {
        match crate::parse_jobs(&v) {
            Ok(n) => return n,
            // Library-level fallback for embedders that skipped up-front
            // validation; `repro` rejects the value before this runs.
            Err(e) => eprintln!("warning: {e}; using the detected parallelism"),
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Change one setting of the process root. Contexts captured earlier
/// keep what they captured; the root sink is shared by every version.
pub(crate) fn update_root(f: impl FnOnce(&mut RunCtx)) {
    let mut root = root().write().unwrap_or_else(PoisonError::into_inner);
    f(Arc::make_mut(&mut root));
}

/// Run `f` with `ctx` entered on this thread, restoring the previous
/// slot afterwards (also when `f` unwinds).
pub(crate) fn enter<R>(ctx: Arc<RunCtx>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<RunCtx>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(CURRENT.with(|c| c.replace(Some(ctx))));
    f()
}

impl RunCtx {
    /// The context entered on this thread, else the process root.
    pub fn current() -> Arc<RunCtx> {
        CURRENT
            .with(|c| c.borrow().clone())
            .unwrap_or_else(|| Arc::clone(&root().read().unwrap_or_else(PoisonError::into_inner)))
    }

    /// The same settings with a fresh sink under this one's.
    pub fn child(&self) -> RunCtx {
        RunCtx {
            sink: Arc::new(Sink {
                counts: Default::default(),
                parent: Some(Arc::clone(&self.sink)),
            }),
            ..self.clone()
        }
    }

    /// Run `f` with this context entered on the calling thread: every
    /// runner, dispatcher and job `f` starts reads its settings and
    /// counts into its sink.
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        enter(Arc::new(self.clone()), f)
    }
}

/// Snapshot the job metrics of the whole process (the root sink).
pub fn metrics() -> Metrics {
    root()
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .sink
        .metrics()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_and_modes_parse_and_roundtrip() {
        for l in [AuditLevel::Off, AuditLevel::Warn, AuditLevel::Strict] {
            assert_eq!(l.as_str().parse::<AuditLevel>().unwrap(), l);
        }
        assert!("loud".parse::<AuditLevel>().is_err());
        for m in [AnalyticMode::Off, AnalyticMode::Assist, AnalyticMode::Only] {
            assert_eq!(m.as_str().parse::<AnalyticMode>().unwrap(), m);
        }
        assert!("auto".parse::<AnalyticMode>().is_err());
    }

    #[test]
    fn a_child_counts_its_own_jobs_and_feeds_its_parent() {
        let parent = RunCtx::current().child();
        let child = parent.child();
        child.sink.add(Count::Jobs, 3);
        parent.sink.add(Count::Jobs, 2);
        assert_eq!(child.sink.metrics().jobs, 3);
        assert_eq!(parent.sink.metrics().jobs, 5);
    }
}
