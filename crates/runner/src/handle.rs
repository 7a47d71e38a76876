//! Job handles: submit work to a resident pool and await, poll, or
//! cancel it **without owning the process**.
//!
//! [`Runner`](crate::Runner) is batch-shaped: the caller blocks until
//! the whole matrix is merged. A long-lived service (`membw serve`)
//! needs the opposite shape — requests arrive one at a time, each wants
//! its own completion, and the process keeps running whatever any
//! individual job does. [`Dispatcher`] provides that shape on the same
//! foundations:
//!
//! * **Deterministic ordering** — queued jobs execute strictly by
//!   (priority descending, arrival order ascending). Two identical
//!   submission sequences dispatch in exactly the same order whatever
//!   the worker count.
//! * **Bounded admission** — at most `workers` jobs run concurrently
//!   and at most `queue_bound` wait; past that, [`Dispatcher::submit`]
//!   returns [`SubmitError::QueueFull`] immediately (the caller turns
//!   that into a 429-style `busy` response instead of stalling).
//! * **Fault isolation** — a panicking job resolves its own handle to
//!   [`JobOutcome::Panicked`] with the panic message; the worker thread
//!   and every other job are untouched.
//! * **Cooperative cancellation** — every job gets a private
//!   [`CancelToken`] as its context's token while it runs, so the sim
//!   hot loops poll it exactly as they poll SIGINT in CLI runs.
//!   [`JobHandle::cancel`] stops a queued job before it starts and
//!   drains a running one at the next poll.
//!
//! Every job runs under the [`RunCtx`] the dispatcher was built with
//! (with the job's own token), so dispatched jobs behave exactly like
//! jobs run inline under that context.

use crate::cancel::{CancelReason, CancelToken, CancelUnwind};
use crate::failure::panic_message;
use crate::RunCtx;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The wait queue is at its bound; the caller should shed load
    /// (reply `busy`) rather than queue unboundedly.
    QueueFull {
        /// The configured queue bound that was hit.
        bound: usize,
    },
    /// The dispatcher is draining; no new work is admitted.
    Draining,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { bound } => {
                write!(f, "job queue is full ({bound} waiting)")
            }
            SubmitError::Draining => write!(f, "dispatcher is draining"),
        }
    }
}

/// How a dispatched job ended.
#[derive(Debug)]
pub enum JobOutcome<T> {
    /// The job ran to completion; the result is shared by every clone
    /// of the handle (dedupe fan-out waits on one computation).
    Completed(Arc<T>),
    /// The job panicked; the process and its siblings survived.
    Panicked(String),
    /// The job was cancelled before or during execution.
    Cancelled(CancelReason),
}

impl<T> Clone for JobOutcome<T> {
    fn clone(&self) -> Self {
        match self {
            JobOutcome::Completed(v) => JobOutcome::Completed(Arc::clone(v)),
            JobOutcome::Panicked(m) => JobOutcome::Panicked(m.clone()),
            JobOutcome::Cancelled(r) => JobOutcome::Cancelled(*r),
        }
    }
}

/// Shared completion state of one dispatched job.
struct JobState<T> {
    token: CancelToken,
    slot: Mutex<Option<JobOutcome<T>>>,
    done: Condvar,
}

impl<T> JobState<T> {
    fn resolve(&self, outcome: JobOutcome<T>) {
        let mut slot = self.slot.lock().expect("job slot");
        if slot.is_none() {
            *slot = Some(outcome);
        }
        self.done.notify_all();
    }
}

/// A cloneable handle to one dispatched job. All clones share the same
/// completion state and cancel token.
pub struct JobHandle<T> {
    state: Arc<JobState<T>>,
}

impl<T> std::fmt::Debug for JobHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let done = self.state.slot.lock().expect("job slot").is_some();
        f.debug_struct("JobHandle").field("done", &done).finish()
    }
}

impl<T> Clone for JobHandle<T> {
    fn clone(&self) -> Self {
        JobHandle {
            state: Arc::clone(&self.state),
        }
    }
}

impl<T> JobHandle<T> {
    /// The job's private cancel token (armed with deadlines by callers
    /// that want a per-request wall-clock bound).
    pub fn token(&self) -> CancelToken {
        self.state.token.clone()
    }

    /// Request cancellation: a queued job resolves without running, a
    /// running job drains at its next poll.
    pub fn cancel(&self) {
        self.state.token.cancel(CancelReason::Interrupted);
    }

    /// The outcome, if the job has finished.
    pub fn poll(&self) -> Option<JobOutcome<T>> {
        self.state.slot.lock().expect("job slot").clone()
    }

    /// Block until the job finishes.
    pub fn wait(&self) -> JobOutcome<T> {
        let mut slot = self.state.slot.lock().expect("job slot");
        loop {
            if let Some(outcome) = slot.as_ref() {
                return outcome.clone();
            }
            slot = self.state.done.wait(slot).expect("job slot");
        }
    }

    /// Block until the job finishes or `timeout` elapses (`None`).
    /// The job keeps running after a timed-out wait — other waiters
    /// (and the result store) still get its outcome.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobOutcome<T>> {
        let deadline = std::time::Instant::now() + timeout;
        let mut slot = self.state.slot.lock().expect("job slot");
        loop {
            if let Some(outcome) = slot.as_ref() {
                return Some(outcome.clone());
            }
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return None;
            }
            let (guard, _) = self.state.done.wait_timeout(slot, left).expect("job slot");
            slot = guard;
        }
    }
}

type Job<T> = Box<dyn FnOnce() -> T + Send + 'static>;

struct Pending<T> {
    job: Job<T>,
    state: Arc<JobState<T>>,
}

struct QueueState<T> {
    /// Keyed by (priority descending, arrival ascending): `BTreeMap`
    /// iteration order *is* the dispatch order, which makes the
    /// ordering contract auditable in one line.
    queue: BTreeMap<(Reverse<u8>, u64), Pending<T>>,
    next_seq: u64,
    open: bool,
    active: usize,
}

struct Shared<T> {
    state: Mutex<QueueState<T>>,
    available: Condvar,
    /// Signalled when a job retires (drain waits on this).
    retired: Condvar,
    queue_bound: usize,
    /// The context every job runs under.
    ctx: RunCtx,
}

/// See the [module docs](self).
pub struct Dispatcher<T: Send + Sync + 'static> {
    shared: Arc<Shared<T>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl<T: Send + Sync + 'static> Dispatcher<T> {
    /// A dispatcher with `workers` concurrent executors and room for
    /// `queue_bound` waiting jobs (both clamped to at least 1), running
    /// every job under `ctx`.
    pub fn new(ctx: &RunCtx, workers: usize, queue_bound: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: BTreeMap::new(),
                next_seq: 0,
                open: true,
                active: 0,
            }),
            available: Condvar::new(),
            retired: Condvar::new(),
            queue_bound: queue_bound.max(1),
            ctx: ctx.clone(),
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Dispatcher { shared, workers }
    }

    /// Queue `job` for execution. Higher `priority` dispatches first;
    /// equal priorities dispatch in arrival order (FIFO).
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] once `queue_bound` jobs are waiting;
    /// [`SubmitError::Draining`] after [`Dispatcher::drain`].
    pub fn submit(
        &self,
        priority: u8,
        job: impl FnOnce() -> T + Send + 'static,
    ) -> Result<JobHandle<T>, SubmitError> {
        let state = Arc::new(JobState {
            token: CancelToken::new(),
            slot: Mutex::new(None),
            done: Condvar::new(),
        });
        {
            let mut q = self.shared.state.lock().expect("dispatcher state");
            if !q.open {
                return Err(SubmitError::Draining);
            }
            if q.queue.len() >= self.shared.queue_bound {
                return Err(SubmitError::QueueFull {
                    bound: self.shared.queue_bound,
                });
            }
            let seq = q.next_seq;
            q.next_seq += 1;
            q.queue.insert(
                (Reverse(priority), seq),
                Pending {
                    job: Box::new(job),
                    state: Arc::clone(&state),
                },
            );
        }
        self.shared.available.notify_one();
        Ok(JobHandle { state })
    }

    /// Jobs currently executing.
    pub fn active(&self) -> usize {
        self.shared.state.lock().expect("dispatcher state").active
    }

    /// Jobs waiting in the queue.
    pub fn queued(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("dispatcher state")
            .queue
            .len()
    }

    /// Stop admission and cancel everything: queued jobs resolve as
    /// [`JobOutcome::Cancelled`] without running, running jobs drain at
    /// their next cancel poll (checkpointing completed inner work
    /// through the normal durable path). Does not block.
    pub fn drain(&self) {
        let drained: Vec<Arc<JobState<T>>> = {
            let mut q = self.shared.state.lock().expect("dispatcher state");
            q.open = false;
            let queued = std::mem::take(&mut q.queue);
            queued.into_values().map(|p| p.state).collect()
        };
        for state in drained {
            state.token.cancel(CancelReason::Interrupted);
            state.resolve(JobOutcome::Cancelled(CancelReason::Interrupted));
        }
        // Running jobs: cancel cooperatively via their own tokens.
        // (Their states are only reachable through their handles; the
        // worker resolves them when the unwind lands.)
        self.shared.available.notify_all();
    }

    /// Stop admission, let queued and running jobs **finish**, then
    /// join the workers. Blocks until the pool is idle.
    pub fn close(self) {
        {
            let mut q = self.shared.state.lock().expect("dispatcher state");
            q.open = false;
        }
        self.shared.available.notify_all();
        for w in self.workers {
            let _ = w.join();
        }
    }

    /// Block until no job is executing and the queue is empty (used by
    /// drain-style shutdown after [`Dispatcher::drain`]).
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut q = self.shared.state.lock().expect("dispatcher state");
        loop {
            if q.active == 0 && q.queue.is_empty() {
                return true;
            }
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return false;
            }
            let (guard, _) = self
                .shared
                .retired
                .wait_timeout(q, left)
                .expect("dispatcher state");
            q = guard;
        }
    }
}

fn worker_loop<T: Send + Sync + 'static>(shared: &Shared<T>) {
    loop {
        let pending = {
            let mut q = shared.state.lock().expect("dispatcher state");
            loop {
                if let Some(&key) = q.queue.keys().next() {
                    let p = q.queue.remove(&key).expect("key just observed");
                    q.active += 1;
                    break p;
                }
                if !q.open {
                    return;
                }
                q = shared.available.wait(q).expect("dispatcher state");
            }
        };
        let outcome = run_one(&shared.ctx, &pending.state.token, pending.job);
        pending.state.resolve(outcome);
        {
            let mut q = shared.state.lock().expect("dispatcher state");
            q.active -= 1;
        }
        shared.retired.notify_all();
    }
}

/// Execute one job under `ctx` with its own `token`, with per-job
/// panic isolation and cancellation accounting.
fn run_one<T>(ctx: &RunCtx, token: &CancelToken, job: Job<T>) -> JobOutcome<T> {
    if let Some(reason) = token.cancel_reason() {
        return JobOutcome::Cancelled(reason);
    }
    let job_ctx = RunCtx {
        cancel: token.clone(),
        ..ctx.clone()
    };
    let result = catch_unwind(AssertUnwindSafe(|| job_ctx.enter(job)));
    match result {
        Ok(v) => JobOutcome::Completed(Arc::new(v)),
        Err(p) => match p.downcast_ref::<CancelUnwind>() {
            Some(cu) => JobOutcome::Cancelled(cu.0),
            None => JobOutcome::Panicked(panic_message(p.as_ref())),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn submit_await_round_trips() {
        let d = Dispatcher::new(&RunCtx::current(), 2, 8);
        let h = d.submit(0, || 6 * 7).unwrap();
        match h.wait() {
            JobOutcome::Completed(v) => assert_eq!(*v, 42),
            other => panic!("unexpected outcome: {other:?}"),
        }
        d.close();
    }

    #[test]
    fn priority_then_fifo_ordering_is_deterministic() {
        // One worker, blocked by a gate job while we queue the rest:
        // the observed execution order must be priority desc, then
        // arrival order, independent of submission jitter.
        let d: Dispatcher<()> = Dispatcher::new(&RunCtx::current(), 1, 16);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        let blocker = d
            .submit(255, move || {
                let (lock, cv) = &*g;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            })
            .unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        // (priority, tag) in scrambled submission order; expected
        // execution: p2 before p1 before p0, FIFO within each.
        for (prio, tag) in [
            (1u8, "b1"),
            (0, "c1"),
            (2, "a1"),
            (1, "b2"),
            (2, "a2"),
            (0, "c2"),
        ] {
            let order = Arc::clone(&order);
            handles.push(
                d.submit(prio, move || order.lock().unwrap().push(tag))
                    .unwrap(),
            );
        }
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        blocker.wait();
        for h in &handles {
            h.wait();
        }
        assert_eq!(
            *order.lock().unwrap(),
            vec!["a1", "a2", "b1", "b2", "c1", "c2"]
        );
        d.close();
    }

    #[test]
    fn queue_bound_refuses_with_queue_full() {
        let d: Dispatcher<()> = Dispatcher::new(&RunCtx::current(), 1, 2);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        let blocker = d
            .submit(9, move || {
                let (lock, cv) = &*g;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            })
            .unwrap();
        // Wait until the blocker is actually running so the queue is
        // empty, then fill it to the bound.
        while d.active() == 0 {
            std::thread::yield_now();
        }
        let _q1 = d.submit(0, || ()).unwrap();
        let _q2 = d.submit(0, || ()).unwrap();
        assert_eq!(
            d.submit(0, || ()).unwrap_err(),
            SubmitError::QueueFull { bound: 2 }
        );
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        blocker.wait();
        d.close();
    }

    #[test]
    fn panicking_job_resolves_its_own_handle_only() {
        let d = Dispatcher::new(&RunCtx::current(), 2, 8);
        let bad = d
            .submit(0, || -> u32 { panic!("request 7 exploded") })
            .unwrap();
        let good = d.submit(0, || 5u32).unwrap();
        match bad.wait() {
            JobOutcome::Panicked(m) => assert!(m.contains("request 7 exploded"), "{m}"),
            other => panic!("unexpected outcome: {other:?}"),
        }
        match good.wait() {
            JobOutcome::Completed(v) => assert_eq!(*v, 5),
            other => panic!("unexpected outcome: {other:?}"),
        }
        // The pool survives and keeps serving.
        let again = d.submit(0, || 11u32).unwrap();
        assert!(matches!(again.wait(), JobOutcome::Completed(v) if *v == 11));
        d.close();
    }

    #[test]
    fn cancel_stops_a_queued_job_before_it_runs() {
        let d: Dispatcher<()> = Dispatcher::new(&RunCtx::current(), 1, 8);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        let blocker = d
            .submit(9, move || {
                let (lock, cv) = &*g;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            })
            .unwrap();
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        let queued = d.submit(0, move || {
            r.fetch_add(1, Ordering::SeqCst);
        });
        let queued = queued.unwrap();
        queued.cancel();
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        blocker.wait();
        match queued.wait() {
            JobOutcome::Cancelled(CancelReason::Interrupted) => {}
            other => panic!("unexpected outcome: {other:?}"),
        }
        assert_eq!(ran.load(Ordering::SeqCst), 0, "cancelled before execution");
        d.close();
    }

    #[test]
    fn running_jobs_see_their_own_ambient_token() {
        let d = Dispatcher::new(&RunCtx::current(), 1, 4);
        let h = d
            .submit(0, || {
                // The context's token inside the job is the handle's.
                let tok = RunCtx::current().cancel.clone();
                tok.cancel(CancelReason::Interrupted);
                tok.check(); // unwinds -> Cancelled, not Panicked
            })
            .unwrap();
        match h.wait() {
            JobOutcome::Cancelled(CancelReason::Interrupted) => {}
            other => panic!("unexpected outcome: {other:?}"),
        }
        d.close();
    }

    #[test]
    fn drain_cancels_queued_work_and_refuses_new() {
        let d: Dispatcher<u32> = Dispatcher::new(&RunCtx::current(), 1, 8);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        let blocker = d
            .submit(9, move || {
                let (lock, cv) = &*g;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                1
            })
            .unwrap();
        while d.active() == 0 {
            std::thread::yield_now();
        }
        let queued = d.submit(0, || 2).unwrap();
        d.drain();
        assert!(matches!(
            queued.wait(),
            JobOutcome::Cancelled(CancelReason::Interrupted)
        ));
        assert_eq!(d.submit(0, || 3).unwrap_err(), SubmitError::Draining);
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        blocker.wait();
        assert!(d.wait_idle(Duration::from_secs(5)));
        d.close();
    }

    #[test]
    fn wait_timeout_returns_none_while_running() {
        let d: Dispatcher<()> = Dispatcher::new(&RunCtx::current(), 1, 4);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        let h = d
            .submit(0, move || {
                let (lock, cv) = &*g;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            })
            .unwrap();
        assert!(h.wait_timeout(Duration::from_millis(50)).is_none());
        assert!(h.poll().is_none());
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        assert!(h.wait_timeout(Duration::from_secs(5)).is_some());
        d.close();
    }
}
