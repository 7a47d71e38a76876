//! `Benchmark::signature()` streams the generator: neither a cold
//! compute nor a memory or store hit may record a trace arena.
//!
//! The trace cache is process-global, so this check has a test binary
//! of its own: no other test can record into the cache while the
//! counters are compared.

use membw::trace::replay::TraceCache;
use membw::trace::signature::{SignatureCache, SignatureStore, SIG_DIR_ENV};
use membw::trace::{TraceSink, Workload};
use membw::workloads::{suite92, Scale};
use std::sync::Arc;

/// A workload that must never be asked for its stream.
struct Untouchable;

impl Workload for Untouchable {
    fn name(&self) -> &str {
        "untouchable"
    }

    fn generate(&self, _sink: &mut dyn TraceSink) {
        panic!("a stored signature was recomputed");
    }
}

#[test]
fn signatures_never_record_a_trace_arena() {
    let dir = std::env::temp_dir().join(format!("membw_sig_no_arena_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Read once, when the global signature cache is first used below.
    std::env::set_var(SIG_DIR_ENV, &dir);

    let traces = TraceCache::global();
    let before = traces.stats();
    let bench = suite92(Scale::Test)
        .into_iter()
        .find(|b| b.name() == "espresso")
        .expect("espresso is in the SPEC92 selection");

    let cold = bench.signature();
    let hit = bench.signature();
    assert!(Arc::ptr_eq(&cold, &hit), "the second call is a memory hit");

    let fresh = SignatureCache::with_store(Some(SignatureStore::open(&dir).unwrap()));
    let stored = fresh.get_or_compute(bench.name(), bench.variant(), &Untouchable);
    assert_eq!(
        *stored, *cold,
        "the store hit returns the computed signature"
    );

    // Every counter, `misses` and `resident_bytes` included.
    assert_eq!(
        traces.stats(),
        before,
        "a signature went through the trace cache"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
