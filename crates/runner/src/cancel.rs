//! Cooperative cancellation: a cheap shared token the sim hot loops
//! poll, wired to SIGINT/SIGTERM and to the `--deadline` wall clock.
//!
//! # Protocol
//!
//! A [`CancelToken`] is a shared pair of atomics (state + deadline).
//! Code that wants to *stop* work calls [`CancelToken::cancel`] (or the
//! signal handler / deadline does); code that wants to *be stoppable*
//! polls [`CancelToken::check`] every few thousand units of work. The
//! poll is one relaxed atomic load on the fast path — cheap enough for
//! the per-uop sim loops, the MTC reference scan, and trace recording.
//!
//! `check()` stops the current job by unwinding with a private
//! [`CancelUnwind`] payload (via [`std::panic::resume_unwind`], so the
//! process panic hook stays silent). The run engine's per-job
//! `catch_unwind` recognizes that payload and reports the job as
//! [`JobError::Cancelled`](crate::JobError::Cancelled) instead of
//! `Panicked` — completed siblings keep their results, checkpoints
//! flush through the normal durable path, and a later `--resume` run
//! recomputes only the cancelled slots.
//!
//! # Where jobs find their token
//!
//! The token is the [`RunCtx::cancel`](crate::RunCtx) field. The
//! process root carries the global token (the one SIGINT flips); tests
//! and serve requests enter a context with their own token to cancel an
//! isolated batch without touching process state.
//!
//! # Deadlines
//!
//! [`CancelToken::set_deadline`] arms a monotonic wall-clock bound;
//! the token *self-cancels* with [`CancelReason::DeadlineExceeded`] on
//! the first poll past the deadline. No timer thread exists — the
//! clock is only consulted at poll cadence, which is why polls are
//! split into a cheap flag check and a rarer deadline check.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Why a token was cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// An interrupt was requested (SIGINT/SIGTERM drain, or an explicit
    /// [`CancelToken::cancel`] call).
    Interrupted,
    /// The `--deadline` wall-clock bound elapsed.
    DeadlineExceeded,
}

impl std::fmt::Display for CancelReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelReason::Interrupted => write!(f, "interrupt"),
            CancelReason::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

/// The unwind payload [`CancelToken::check`] throws. Public so the
/// engine (and any embedder with its own `catch_unwind`) can downcast
/// and distinguish cancellation from a genuine panic.
#[derive(Debug, Clone, Copy)]
pub struct CancelUnwind(pub CancelReason);

/// Token state values (in `Inner::state`).
const LIVE: u8 = 0;
const INTERRUPTED: u8 = 1;
const DEADLINE: u8 = 2;
/// "No deadline armed" sentinel (in `Inner::deadline_nanos`).
const NO_DEADLINE: u64 = u64::MAX;

/// The shared core of a token. Const-constructible so the process-wide
/// instance can live in a `static` the signal handler reaches without
/// allocation or locking.
struct Inner {
    /// `LIVE`, `INTERRUPTED`, or `DEADLINE`.
    state: AtomicU8,
    /// Armed deadline as nanoseconds since [`anchor`], or `NO_DEADLINE`.
    deadline_nanos: AtomicU64,
    /// SIGINT/SIGTERM deliveries observed (drain-mode bookkeeping).
    signals: AtomicU64,
}

impl Inner {
    const fn new() -> Self {
        Inner {
            state: AtomicU8::new(LIVE),
            deadline_nanos: AtomicU64::new(NO_DEADLINE),
            signals: AtomicU64::new(0),
        }
    }

    fn cancel(&self, reason: CancelReason) {
        let state = match reason {
            CancelReason::Interrupted => INTERRUPTED,
            CancelReason::DeadlineExceeded => DEADLINE,
        };
        // First cancellation wins; a later deadline must not overwrite
        // an interrupt (or vice versa) so failure tables stay stable.
        let _ = self
            .state
            .compare_exchange(LIVE, state, Ordering::SeqCst, Ordering::SeqCst);
    }

    fn reason(&self) -> Option<CancelReason> {
        match self.state.load(Ordering::Relaxed) {
            INTERRUPTED => Some(CancelReason::Interrupted),
            DEADLINE => Some(CancelReason::DeadlineExceeded),
            _ => {
                let deadline = self.deadline_nanos.load(Ordering::Relaxed);
                if deadline != NO_DEADLINE && monotonic_nanos() >= deadline {
                    self.cancel(CancelReason::DeadlineExceeded);
                    // Re-read: a racing interrupt may have won the CAS.
                    return self.reason();
                }
                None
            }
        }
    }
}

/// The process-wide token's core. A `static` (not a lazy `Arc`) so the
/// async-signal handler can flip it with a single atomic store.
static GLOBAL_INNER: Inner = Inner::new();

/// Monotonic time anchor: nanoseconds are measured from the first call.
fn monotonic_nanos() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Where a token's shared core lives.
#[derive(Clone)]
enum Core {
    /// The process-wide static (what the signal handler cancels).
    Global,
    /// An independently owned core (tests, scoped batches).
    Owned(Arc<Inner>),
}

/// A cheap, cloneable cancellation token.
///
/// Cloning shares the underlying state: cancelling any clone cancels
/// them all. See the [module docs](self) for the protocol.
#[derive(Clone)]
pub struct CancelToken {
    core: Core,
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("global", &matches!(self.core, Core::Global))
            .field("reason", &self.cancel_reason())
            .finish()
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A fresh, independent token (not cancelled, no deadline).
    pub fn new() -> Self {
        CancelToken {
            core: Core::Owned(Arc::new(Inner::new())),
        }
    }

    /// The process-wide token: the one [`install_signal_drain`] wires
    /// to SIGINT/SIGTERM and `repro --deadline` arms, carried by the root
    /// [`RunCtx`](crate::RunCtx).
    pub fn global() -> Self {
        CancelToken { core: Core::Global }
    }

    fn inner(&self) -> &Inner {
        match &self.core {
            Core::Global => &GLOBAL_INNER,
            Core::Owned(arc) => arc,
        }
    }

    /// Request cancellation with an explicit reason. Idempotent; the
    /// first reason sticks.
    pub fn cancel(&self, reason: CancelReason) {
        self.inner().cancel(reason);
    }

    /// Whether cancellation has been requested (including a deadline
    /// that has now elapsed). One relaxed load on the fast path.
    pub fn is_cancelled(&self) -> bool {
        self.inner().reason().is_some()
    }

    /// The sticky cancellation reason, if any.
    pub fn cancel_reason(&self) -> Option<CancelReason> {
        self.inner().reason()
    }

    /// Arm a wall-clock deadline `d` from now. The token self-cancels
    /// with [`CancelReason::DeadlineExceeded`] at the first poll past
    /// it. Re-arming replaces the previous deadline.
    pub fn set_deadline(&self, d: Duration) {
        let at = monotonic_nanos().saturating_add(d.as_nanos().min(u128::from(u64::MAX)) as u64);
        self.inner().deadline_nanos.store(at, Ordering::SeqCst);
    }

    /// Time remaining until the armed deadline (`None` when no deadline
    /// is armed; zero once it has elapsed).
    pub fn deadline_remaining(&self) -> Option<Duration> {
        match self.inner().deadline_nanos.load(Ordering::Relaxed) {
            NO_DEADLINE => None,
            at => Some(Duration::from_nanos(at.saturating_sub(monotonic_nanos()))),
        }
    }

    /// Poll point for hot loops: returns immediately while live, and
    /// unwinds with a [`CancelUnwind`] payload once cancelled (skipping
    /// the process panic hook). The run engine's per-job isolation
    /// converts the unwind into
    /// [`JobError::Cancelled`](crate::JobError::Cancelled).
    #[inline]
    pub fn check(&self) {
        if let Some(reason) = self.inner().reason() {
            std::panic::resume_unwind(Box::new(CancelUnwind(reason)));
        }
    }

    /// Signal deliveries observed by the drain handler on this token
    /// (0 when no handler is installed or no signal arrived).
    pub fn signals_seen(&self) -> u64 {
        self.inner().signals.load(Ordering::Relaxed)
    }
}

/// Async-signal-safe SIGINT/SIGTERM handler: first delivery flips the
/// global token to `INTERRUPTED` (drain mode — in-flight jobs cancel
/// cooperatively and completed work flushes); a second delivery
/// force-exits with code 130 for runs that cannot drain.
#[cfg(unix)]
extern "C" fn drain_handler(_sig: i32) {
    // Everything here must be async-signal-safe: atomic ops and _exit
    // only — no allocation, no locks, no stdio.
    let prior = GLOBAL_INNER.signals.fetch_add(1, Ordering::SeqCst);
    if prior >= 1 {
        // SAFETY: _exit is async-signal-safe by POSIX; it terminates
        // the process without running atexit handlers or unwinding.
        unsafe { _exit(130) };
    }
    GLOBAL_INNER
        .state
        .compare_exchange(LIVE, INTERRUPTED, Ordering::SeqCst, Ordering::SeqCst)
        .ok();
}

// std already links libc; declaring the two POSIX entry points we need
// avoids growing the (offline, vendored-only) dependency set.
#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn _exit(code: i32) -> !;
}

/// Install the SIGINT/SIGTERM request-drain handler on the global
/// token. Call once, early in `main`, from binaries that want the
/// drain protocol (libraries and tests never install it). On
/// non-unix targets this is a no-op.
pub fn install_signal_drain() {
    #[cfg(unix)]
    {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: drain_handler is async-signal-safe (atomics + _exit)
        // and has the exact `extern "C" fn(i32)` ABI signal expects.
        let handler = drain_handler as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.cancel_reason(), None);
        t.check(); // must not unwind
    }

    #[test]
    fn cancel_is_sticky_and_first_reason_wins() {
        let t = CancelToken::new();
        t.cancel(CancelReason::Interrupted);
        assert!(t.is_cancelled());
        t.cancel(CancelReason::DeadlineExceeded);
        assert_eq!(t.cancel_reason(), Some(CancelReason::Interrupted));
    }

    #[test]
    fn clones_share_state() {
        let t = CancelToken::new();
        let u = t.clone();
        u.cancel(CancelReason::Interrupted);
        assert!(t.is_cancelled());
    }

    #[test]
    fn check_unwinds_with_a_recognizable_payload() {
        let t = CancelToken::new();
        t.cancel(CancelReason::DeadlineExceeded);
        let err = catch_unwind(AssertUnwindSafe(|| t.check())).unwrap_err();
        let cu = err
            .downcast_ref::<CancelUnwind>()
            .expect("payload must be CancelUnwind");
        assert_eq!(cu.0, CancelReason::DeadlineExceeded);
    }

    #[test]
    fn deadline_self_cancels() {
        let t = CancelToken::new();
        assert_eq!(t.deadline_remaining(), None);
        t.set_deadline(Duration::from_millis(20));
        assert!(t.deadline_remaining().is_some());
        assert!(!t.is_cancelled(), "deadline still in the future");
        std::thread::sleep(Duration::from_millis(40));
        assert!(t.is_cancelled());
        assert_eq!(t.cancel_reason(), Some(CancelReason::DeadlineExceeded));
    }

    #[test]
    fn reasons_display() {
        assert_eq!(CancelReason::Interrupted.to_string(), "interrupt");
        assert_eq!(
            CancelReason::DeadlineExceeded.to_string(),
            "deadline exceeded"
        );
    }
}
