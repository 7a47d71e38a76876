//! Deterministic fault injection for tests and CI smoke runs.
//!
//! Three environment variables, read at job dispatch:
//!
//! * `MEMBW_FAULT_INJECT` — comma-separated `label:index` entries (or
//!   `label:*` for every job of a batch); matching jobs panic with a
//!   recognizable message on **every** attempt, exercising the
//!   catch_unwind isolation, retry accounting, and failure summary.
//! * `MEMBW_FAULT_SLOW` — comma-separated `label:index:millis` entries;
//!   matching jobs sleep before running, exercising the `--job-timeout`
//!   watchdog. The sleep is sliced and polls the context's cancel token,
//!   so a drain is never stuck behind an injected delay.
//! * `MEMBW_FAULT_CANCEL` — comma-separated `label:index` entries (or
//!   `label:*`); dispatching a matching job cancels the context's
//!   [`CancelToken`](crate::CancelToken), exercising the full
//!   interrupt-drain path in-process, with no real signals.
//!
//! The hooks key on the batch *label* (`"table8"`, `"fig3/SPEC92"`, …)
//! plus the canonical job index, so an injected fault is a pure
//! function of the matrix position — the healthy jobs' outputs stay
//! byte-identical at any `--jobs` setting.
//!
//! Each variable's grammar has a strict validator, registered in the
//! consolidated [`faultenv`](crate::faultenv) module that drivers call
//! up front: a typo'd spec is a named-variable error and a refusal to
//! start, never a silently-ignored hook.

use crate::cancel::CancelReason;
use crate::RunCtx;
use std::time::Duration;

/// Environment variable injecting per-job panics.
pub const FAULT_INJECT_ENV: &str = "MEMBW_FAULT_INJECT";
/// Environment variable injecting per-job delays.
pub const FAULT_SLOW_ENV: &str = "MEMBW_FAULT_SLOW";
/// Environment variable injecting a cancellation of the context's token.
pub const FAULT_CANCEL_ENV: &str = "MEMBW_FAULT_CANCEL";

/// True if `entry` (e.g. `"table8:3"` or `"table8:*"`) selects job
/// `index` of batch `label`.
fn selects(entry: &str, label: &str, index: usize) -> bool {
    let Some((l, i)) = entry.rsplit_once(':') else {
        return false;
    };
    l == label && (i == "*" || i.parse() == Ok(index))
}

/// Validate one `label:index` selector (index may be `*`).
fn check_selector(var: &str, entry: &str) -> Result<(), String> {
    let bad = |why: &str| {
        Err(format!(
            "invalid {var} entry {entry:?}: {why} \
             (expected label:index, with index a job number or '*')"
        ))
    };
    let Some((label, index)) = entry.rsplit_once(':') else {
        return bad("missing ':index' part");
    };
    if label.is_empty() {
        return bad("empty batch label");
    }
    if index != "*" && index.parse::<usize>().is_err() {
        return bad("index is neither a job number nor '*'");
    }
    Ok(())
}

/// Strictly validate a [`FAULT_INJECT_ENV`] / [`FAULT_CANCEL_ENV`]
/// spec: comma-separated `label:index` selectors.
pub fn validate_selector_spec(var: &str, spec: &str) -> Result<(), String> {
    for entry in spec.split(',') {
        check_selector(var, entry.trim())?;
    }
    Ok(())
}

/// Strictly validate a [`FAULT_SLOW_ENV`] spec: comma-separated
/// `label:index:millis` entries.
pub fn validate_slow_spec(spec: &str) -> Result<(), String> {
    for entry in spec.split(',') {
        let entry = entry.trim();
        let Some((sel, ms)) = entry.rsplit_once(':') else {
            return Err(format!(
                "invalid {FAULT_SLOW_ENV} entry {entry:?}: \
                 expected label:index:millis"
            ));
        };
        if ms.trim().parse::<u64>().is_err() {
            return Err(format!(
                "invalid {FAULT_SLOW_ENV} entry {entry:?}: \
                 {ms:?} is not a millisecond count"
            ));
        }
        check_selector(FAULT_SLOW_ENV, sel)?;
    }
    Ok(())
}

/// Sleep for `ms` milliseconds in 50 ms slices, polling the context's
/// cancel token between slices: an injected delay must never hold a
/// drain hostage. Cancellation unwinds via the token's normal
/// [`check`](crate::CancelToken::check) protocol.
fn cancellable_sleep(ms: u64) {
    let token = RunCtx::current().cancel.clone();
    let mut remaining = Duration::from_millis(ms);
    const SLICE: Duration = Duration::from_millis(50);
    while !remaining.is_zero() {
        token.check();
        let step = remaining.min(SLICE);
        std::thread::sleep(step);
        remaining -= step;
    }
    token.check();
}

/// Apply any configured injection for (`label`, `index`): cancel the
/// context's token first (cancel injection), then sleep (slow-job
/// injection), then panic (fault injection).
///
/// # Panics
///
/// Panics deliberately when `MEMBW_FAULT_INJECT` selects this job; the
/// engine's catch_unwind turns it into a per-job failure. A
/// `MEMBW_FAULT_CANCEL` match cancels the context's token and then
/// unwinds through the normal cancellation poll.
pub(crate) fn apply(label: &str, index: usize) {
    if let Ok(spec) = std::env::var(FAULT_CANCEL_ENV) {
        for entry in spec.split(',') {
            if selects(entry.trim(), label, index) {
                RunCtx::current().cancel.cancel(CancelReason::Interrupted);
            }
        }
    }
    if let Ok(spec) = std::env::var(FAULT_SLOW_ENV) {
        for entry in spec.split(',') {
            if let Some((sel, ms)) = entry.rsplit_once(':') {
                if selects(sel, label, index) {
                    if let Ok(ms) = ms.trim().parse::<u64>() {
                        cancellable_sleep(ms);
                    }
                }
            }
        }
    }
    if let Ok(spec) = std::env::var(FAULT_INJECT_ENV) {
        for entry in spec.split(',') {
            if selects(entry.trim(), label, index) {
                panic!("injected fault at {label}:{index} ({FAULT_INJECT_ENV})");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_grammar() {
        assert!(selects("table8:3", "table8", 3));
        assert!(!selects("table8:3", "table8", 4));
        assert!(!selects("table8:3", "table7", 3));
        assert!(selects("table8:*", "table8", 11));
        assert!(!selects("table8", "table8", 0), "no index part");
        // Labels may themselves contain ':'-free slashes.
        assert!(selects("fig3/SPEC92:0", "fig3/SPEC92", 0));
    }

    #[test]
    fn selector_specs_validate_strictly() {
        assert!(validate_selector_spec(FAULT_INJECT_ENV, "table8:3").is_ok());
        assert!(validate_selector_spec(FAULT_INJECT_ENV, "table8:*, fig4:0").is_ok());
        assert!(validate_selector_spec(FAULT_INJECT_ENV, "fig3/SPEC92:12").is_ok());

        for bad in ["table8", "table8:x", ":3", "table8:3,oops", ""] {
            let err = validate_selector_spec(FAULT_INJECT_ENV, bad).unwrap_err();
            assert!(err.contains(FAULT_INJECT_ENV), "{bad:?} -> {err}");
        }
        // The cancel variable is named in its own errors.
        let err = validate_selector_spec(FAULT_CANCEL_ENV, "nope").unwrap_err();
        assert!(err.contains(FAULT_CANCEL_ENV), "{err}");
    }

    #[test]
    fn slow_specs_validate_strictly() {
        assert!(validate_slow_spec("table8:3:500").is_ok());
        assert!(validate_slow_spec("fig3/SPEC92:*:30000, table7:0:1").is_ok());

        for bad in ["table8:3", "table8:3:fast", "table8::5", ":*:5", ""] {
            let err = validate_slow_spec(bad).unwrap_err();
            assert!(err.contains(FAULT_SLOW_ENV), "{bad:?} -> {err}");
        }
    }

    #[test]
    fn cancellable_sleep_aborts_early_when_cancelled() {
        use crate::cancel::CancelToken;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let token = CancelToken::new();
        token.cancel(CancelReason::Interrupted);
        let t0 = std::time::Instant::now();
        let ctx = RunCtx {
            cancel: token,
            ..RunCtx::current().child()
        };
        let unwound =
            ctx.enter(|| catch_unwind(AssertUnwindSafe(|| cancellable_sleep(10_000))).is_err());
        assert!(unwound, "a cancelled sleep must unwind");
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "must not serve the full injected delay"
        );
    }
}
