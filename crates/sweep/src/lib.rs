//! Single-pass multi-configuration cache sweeps.
//!
//! The paper's traffic tables are *sweeps*: the same reference stream
//! run against a whole axis of cache capacities with everything else
//! fixed (Table 7 is twelve direct-mapped sizes, Figure 4 is seventeen
//! sizes per block-size curve). Simulating each point independently
//! replays the trace once per point. But LRU is a stack algorithm
//! (Mattson et al. 1970): with bit-selection indexing, every set of a
//! small cache is refined by the corresponding sets of every larger
//! cache, so one trace pass maintaining a *truncated per-set LRU stack
//! per capacity level* reproduces each level's hit/miss/eviction
//! behavior exactly — including dirty-line tracking, which rides along
//! on the per-level stacks so write-back and end-of-run flush traffic
//! come out byte-exact, not just miss counts.
//!
//! [`sweep_lru`] is the entry point: it consumes one replayed reference
//! stream and returns a full [`CacheStats`] per capacity, each equal —
//! counter for counter — to what [`membw_cache::Cache`] produces for
//! that configuration (property-tested in `tests/sweep_equivalence.rs`
//! and enforced at runtime by the auditor when
//! [`verify_requested`] is set). Configurations the stack model cannot
//! represent exactly (non-LRU replacement, tagged prefetch,
//! write-validate allocation) **fall back loudly** to per-capacity
//! direct simulation — correctness never depends on the engine's
//! coverage.
//!
//! Sweep state registers with the context's memory governor and the hot
//! loop polls the context's [`membw_runner::CancelToken`], so sweeps
//! degrade and drain exactly like direct simulation jobs.

mod lru;
mod mode;

pub use lru::{direct_reference, sweep_lru, sweep_workload, LruSweep, SweepSpec, SweepUnsupported};
pub use mode::{parse_verify, verify_requested, SweepMode, SWEEP_VERIFY_ENV};
