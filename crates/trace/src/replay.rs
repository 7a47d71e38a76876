//! Record-once / replay-many trace engine.
//!
//! The paper's methodology simulates the *identical* uop stream many
//! times: three memory models per decomposition cell (§3.1), six
//! experiments per benchmark (Figure 3), plus the trace-driven cache and
//! MTC passes. Regenerating a synthetic workload for every run wastes
//! most of a figure's wall clock on redundant generation work. This
//! module captures a workload's stream once into a compact
//! structure-of-arrays arena ([`RecordedTrace`]) and replays it as a
//! [`Workload`] with O(1) per-uop dispatch, and provides a process-wide
//! [`TraceCache`] so one recording is shared across the three
//! decomposition runs, across all experiments of a benchmark, and across
//! runner threads.
//!
//! Replay is *exact*: the recorded stream is bit-for-bit the stream the
//! generator emitted, so simulation results are byte-identical whether a
//! trace was replayed or regenerated — which is what keeps the parallel
//! run engine's determinism and checkpoint/resume guarantees intact (see
//! DESIGN.md §9).
//!
//! # Example
//!
//! ```
//! use membw_trace::replay::RecordedTrace;
//! use membw_trace::{pattern::Strided, Workload};
//!
//! let live = Strided::reads(0, 4, 256).repeat(2);
//! let recorded = RecordedTrace::record(&live);
//! assert_eq!(recorded.collect_uops(), live.collect_uops());
//! assert_eq!(recorded.len(), 512);
//! ```

use crate::record::{AccessKind, MemRef};
use crate::sink::TraceSink;
use crate::uop::{BranchInfo, OpClass, Reg, Uop};
use crate::Workload;
use membw_runner::{CancelToken, RunCtx};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

// Packed per-uop metadata layout (one u32 per uop):
//   bits 0-2   operation class (8 variants)
//   bit  3     dest register present
//   bit  4     src0 register present
//   bit  5     src1 register present
//   bit  6     branch info present
//   bit  7     branch taken
//   bits 8-15  dest register
//   bits 16-23 src0 register
//   bits 24-31 src1 register
const CLASS_MASK: u32 = 0b111;
const HAS_DEST: u32 = 1 << 3;
const HAS_SRC0: u32 = 1 << 4;
const HAS_SRC1: u32 = 1 << 5;
const HAS_BRANCH: u32 = 1 << 6;
const BRANCH_TAKEN: u32 = 1 << 7;

/// Fold `bytes` into a running 64-bit FNV-1a hash.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Content checksum of a trace arena: FNV-1a over the name and every
/// side array, each prefixed by its length so boundary shifts between
/// arrays cannot cancel out.
fn arena_checksum(
    name: &str,
    meta: &[u32],
    mem_addr: &[u64],
    mem_size: &[u16],
    branch_pc: &[u64],
) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    fnv1a(&mut h, &(name.len() as u64).to_le_bytes());
    fnv1a(&mut h, name.as_bytes());
    fnv1a(&mut h, &(meta.len() as u64).to_le_bytes());
    for v in meta {
        fnv1a(&mut h, &v.to_le_bytes());
    }
    fnv1a(&mut h, &(mem_addr.len() as u64).to_le_bytes());
    for v in mem_addr {
        fnv1a(&mut h, &v.to_le_bytes());
    }
    fnv1a(&mut h, &(mem_size.len() as u64).to_le_bytes());
    for v in mem_size {
        fnv1a(&mut h, &v.to_le_bytes());
    }
    fnv1a(&mut h, &(branch_pc.len() as u64).to_le_bytes());
    for v in branch_pc {
        fnv1a(&mut h, &v.to_le_bytes());
    }
    h
}

fn class_code(c: OpClass) -> u32 {
    match c {
        OpClass::IntAlu => 0,
        OpClass::IntMul => 1,
        OpClass::FpAdd => 2,
        OpClass::FpMul => 3,
        OpClass::FpDiv => 4,
        OpClass::Load => 5,
        OpClass::Store => 6,
        OpClass::Branch => 7,
    }
}

fn code_class(code: u32) -> OpClass {
    match code {
        0 => OpClass::IntAlu,
        1 => OpClass::IntMul,
        2 => OpClass::FpAdd,
        3 => OpClass::FpMul,
        4 => OpClass::FpDiv,
        5 => OpClass::Load,
        6 => OpClass::Store,
        _ => OpClass::Branch,
    }
}

/// A workload's uop stream, captured once into a structure-of-arrays
/// arena: one packed `u32` per uop plus side arrays for memory
/// references and branch PCs, indexed by sequential cursors during
/// replay. No per-record heap boxes; the whole trace is four flat
/// vectors.
#[derive(Debug, Clone)]
pub struct RecordedTrace {
    name: String,
    /// One packed word per uop (see the layout constants above).
    meta: Vec<u32>,
    /// Address of the i-th memory uop (loads and stores, in order).
    mem_addr: Vec<u64>,
    /// Size of the i-th memory uop.
    mem_size: Vec<u16>,
    /// PC of the i-th branch-info-carrying uop.
    branch_pc: Vec<u64>,
    /// FNV-1a content checksum sealed at recording time; [`verify`]
    /// recomputes it to detect in-memory corruption of a cached arena
    /// before it is replayed into results.
    ///
    /// [`verify`]: RecordedTrace::verify
    checksum: u64,
}

impl RecordedTrace {
    /// Capture `workload`'s full stream.
    ///
    /// Well-formedness (memory uops carry a `mem` whose kind matches
    /// the class, as the [`Uop`] constructors guarantee) is checked in
    /// debug builds.
    pub fn record<W: Workload + ?Sized>(workload: &W) -> Self {
        let mut sink = RecordingSink::new(workload.name());
        workload.generate(&mut sink);
        sink.finish()
    }

    /// Number of uops recorded.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// `true` if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Number of data-memory references recorded.
    pub fn num_mem_refs(&self) -> usize {
        self.mem_addr.len()
    }

    /// Approximate resident size of the arena in bytes (used for the
    /// [`TraceCache`] budget).
    pub fn arena_bytes(&self) -> u64 {
        (self.meta.capacity() * size_of::<u32>()
            + self.mem_addr.capacity() * size_of::<u64>()
            + self.mem_size.capacity() * size_of::<u16>()
            + self.branch_pc.capacity() * size_of::<u64>()
            + self.name.capacity()
            + size_of::<Self>()) as u64
    }

    /// The content checksum sealed when recording finished.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Recompute the arena checksum and compare it against the sealed
    /// one. `false` means the arena was altered after recording and
    /// must not be replayed.
    pub fn verify(&self) -> bool {
        arena_checksum(
            &self.name,
            &self.meta,
            &self.mem_addr,
            &self.mem_size,
            &self.branch_pc,
        ) == self.checksum
    }

    /// Flip one bit of the arena's payload, leaving the sealed checksum
    /// untouched — a corruption injector for integrity tests and the
    /// mutation-fuzz harness. `bit` is reduced modulo the payload size,
    /// so any `u64` seed indexes a valid bit. No-op on an empty trace.
    #[doc(hidden)]
    pub fn corrupt_bit(&mut self, bit: u64) {
        let meta_bits = self.meta.len() as u64 * 32;
        let addr_bits = self.mem_addr.len() as u64 * 64;
        let size_bits = self.mem_size.len() as u64 * 16;
        let pc_bits = self.branch_pc.len() as u64 * 64;
        let total = meta_bits + addr_bits + size_bits + pc_bits;
        if total == 0 {
            return;
        }
        let mut bit = bit % total;
        if bit < meta_bits {
            self.meta[(bit / 32) as usize] ^= 1 << (bit % 32);
            return;
        }
        bit -= meta_bits;
        if bit < addr_bits {
            self.mem_addr[(bit / 64) as usize] ^= 1 << (bit % 64);
            return;
        }
        bit -= addr_bits;
        if bit < size_bits {
            self.mem_size[(bit / 16) as usize] ^= 1 << (bit % 16);
            return;
        }
        bit -= size_bits;
        self.branch_pc[(bit / 64) as usize] ^= 1 << (bit % 64);
    }

    #[inline]
    fn unpack(&self, i: usize, mem_cursor: &mut usize, branch_cursor: &mut usize) -> Uop {
        let m = self.meta[i];
        let class = code_class(m & CLASS_MASK);
        let dest: Option<Reg> = (m & HAS_DEST != 0).then_some((m >> 8) as Reg);
        let src0: Option<Reg> = (m & HAS_SRC0 != 0).then_some((m >> 16) as Reg);
        let src1: Option<Reg> = (m & HAS_SRC1 != 0).then_some((m >> 24) as Reg);
        let mem = if class.is_mem() {
            let k = *mem_cursor;
            *mem_cursor += 1;
            Some(MemRef {
                addr: self.mem_addr[k],
                size: self.mem_size[k],
                kind: if class == OpClass::Load {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                },
            })
        } else {
            None
        };
        let branch = if m & HAS_BRANCH != 0 {
            let k = *branch_cursor;
            *branch_cursor += 1;
            Some(BranchInfo {
                pc: self.branch_pc[k],
                taken: m & BRANCH_TAKEN != 0,
            })
        } else {
            None
        };
        Uop {
            class,
            dest,
            srcs: [src0, src1],
            mem,
            branch,
        }
    }
}

impl Workload for RecordedTrace {
    fn name(&self) -> &str {
        &self.name
    }

    fn generate(&self, sink: &mut dyn TraceSink) {
        // Poll the context's cancel token so replay into sinks that do
        // not poll themselves still stops promptly under a drain.
        let cancel = RunCtx::current().cancel.clone();
        let mut mem_cursor = 0;
        let mut branch_cursor = 0;
        for i in 0..self.meta.len() {
            if i.is_multiple_of(8192) {
                cancel.check();
            }
            sink.uop(self.unpack(i, &mut mem_cursor, &mut branch_cursor));
        }
        debug_assert_eq!(mem_cursor, self.mem_addr.len());
        debug_assert_eq!(branch_cursor, self.branch_pc.len());
    }

    fn for_each_mem_ref(&self, f: &mut dyn FnMut(MemRef)) {
        // Skip the full Uop reconstruction: only the class bits and the
        // memory side arrays matter here.
        let mut mem_cursor = 0;
        for &m in &self.meta {
            let class = code_class(m & CLASS_MASK);
            if class.is_mem() {
                let k = mem_cursor;
                mem_cursor += 1;
                f(MemRef {
                    addr: self.mem_addr[k],
                    size: self.mem_size[k],
                    kind: if class == OpClass::Load {
                        AccessKind::Read
                    } else {
                        AccessKind::Write
                    },
                });
            }
        }
    }
}

/// A [`TraceSink`] that packs the incoming stream into a
/// [`RecordedTrace`] arena.
#[derive(Debug, Clone)]
pub struct RecordingSink {
    trace: RecordedTrace,
    /// Ambient cancel token, captured at construction and polled every
    /// 8192 recorded uops: a drain or deadline stops a long recording
    /// within milliseconds (the partial arena unwinds away unused).
    cancel: CancelToken,
}

impl RecordingSink {
    /// An empty recorder producing a trace named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            trace: RecordedTrace {
                name: name.into(),
                meta: Vec::new(),
                mem_addr: Vec::new(),
                mem_size: Vec::new(),
                branch_pc: Vec::new(),
                checksum: 0,
            },
            cancel: RunCtx::current().cancel.clone(),
        }
    }

    /// Finish recording, returning the packed trace with capacity
    /// trimmed to length and its content checksum sealed.
    pub fn finish(mut self) -> RecordedTrace {
        self.trace.meta.shrink_to_fit();
        self.trace.mem_addr.shrink_to_fit();
        self.trace.mem_size.shrink_to_fit();
        self.trace.branch_pc.shrink_to_fit();
        self.trace.checksum = arena_checksum(
            &self.trace.name,
            &self.trace.meta,
            &self.trace.mem_addr,
            &self.trace.mem_size,
            &self.trace.branch_pc,
        );
        self.trace
    }
}

impl TraceSink for RecordingSink {
    fn uop(&mut self, uop: Uop) {
        if self.trace.meta.len().is_multiple_of(8192) {
            self.cancel.check();
        }
        debug_assert_eq!(
            uop.mem.is_some(),
            uop.class.is_mem(),
            "memory uops (and only memory uops) carry a MemRef"
        );
        let mut m = class_code(uop.class);
        if let Some(d) = uop.dest {
            m |= HAS_DEST | (u32::from(d) << 8);
        }
        if let Some(s) = uop.srcs[0] {
            m |= HAS_SRC0 | (u32::from(s) << 16);
        }
        if let Some(s) = uop.srcs[1] {
            m |= HAS_SRC1 | (u32::from(s) << 24);
        }
        if let Some(r) = uop.mem {
            debug_assert_eq!(
                r.kind.is_read(),
                uop.class == OpClass::Load,
                "MemRef kind must match the uop class"
            );
            self.trace.mem_addr.push(r.addr);
            self.trace.mem_size.push(r.size);
        }
        if let Some(b) = uop.branch {
            m |= HAS_BRANCH;
            if b.taken {
                m |= BRANCH_TAKEN;
            }
            self.trace.branch_pc.push(b.pc);
        }
        self.trace.meta.push(m);
    }
}

/// Environment knob naming the [`TraceCache`] budget in MiB.
///
/// Unset → a 512 MiB default; `0` → caching disabled (every caller
/// falls back to direct regeneration, which produces byte-identical
/// results).
pub const TRACE_CACHE_MB_ENV: &str = "MEMBW_TRACE_CACHE_MB";

const DEFAULT_BUDGET_BYTES: u64 = 512 * 1024 * 1024;

/// Counters describing a [`TraceCache`]'s behaviour so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCacheStats {
    /// Lookups that found a finished recording.
    pub hits: u64,
    /// Lookups that had to record (or wait for a concurrent recording).
    pub misses: u64,
    /// Recordings dropped to stay within the byte budget.
    pub evictions: u64,
    /// Bytes currently accounted to resident recordings.
    pub resident_bytes: u64,
    /// Cache hits whose arena failed checksum verification and were
    /// discarded and re-recorded instead of being served.
    pub verify_failures: u64,
}

struct CacheEntry {
    /// The recording slot. Holding this lock while recording serializes
    /// same-key callers (the second caller waits and reuses the first's
    /// work) without blocking callers on other keys.
    slot: Arc<Mutex<Option<Arc<RecordedTrace>>>>,
    bytes: u64,
    last_used: u64,
}

struct CacheInner {
    map: HashMap<(String, String), CacheEntry>,
    tick: u64,
    stats: TraceCacheStats,
}

/// A process-wide cache of [`RecordedTrace`]s keyed by
/// `(benchmark, variant)` — variant is typically the scale — with an
/// explicit byte budget and least-recently-used eviction.
///
/// `Arc<RecordedTrace>` handles stay valid after eviction (eviction
/// drops the cache's reference, not the trace), so callers never
/// observe a trace disappearing mid-run.
pub struct TraceCache {
    budget_bytes: u64,
    inner: Mutex<CacheInner>,
}

impl std::fmt::Debug for TraceCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCache")
            .field("budget_bytes", &self.budget_bytes)
            .finish_non_exhaustive()
    }
}

impl TraceCache {
    /// A cache with an explicit byte budget. A budget of 0 disables
    /// caching: [`TraceCache::get_or_record`] always returns `None`.
    pub fn with_budget(budget_bytes: u64) -> Self {
        Self {
            budget_bytes,
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                tick: 0,
                stats: TraceCacheStats::default(),
            }),
        }
    }

    /// The shared process-wide cache, budgeted from
    /// [`TRACE_CACHE_MB_ENV`] (read once, at first use).
    pub fn global() -> &'static TraceCache {
        static GLOBAL: OnceLock<TraceCache> = OnceLock::new();
        GLOBAL.get_or_init(|| TraceCache::with_budget(budget_from_env()))
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// `true` if the budget disables caching entirely.
    pub fn is_disabled(&self) -> bool {
        self.budget_bytes == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TraceCacheStats {
        self.inner.lock().expect("trace cache poisoned").stats
    }

    /// Fetch the recording for `(name, variant)`, recording `workload`
    /// on first use. Returns `None` when caching is disabled — the
    /// caller should then use the workload directly.
    ///
    /// Concurrent callers with the same key serialize on the recording
    /// (the loser reuses the winner's arena); callers with different
    /// keys proceed in parallel.
    pub fn get_or_record<W: Workload + ?Sized>(
        &self,
        name: &str,
        variant: &str,
        workload: &W,
    ) -> Option<Arc<RecordedTrace>> {
        if self.is_disabled() {
            return None;
        }
        // Memory-governor consultation: under the Streaming level the
        // cache steps aside entirely (callers record-stream, which is
        // byte-identical); under CacheShrunk the effective byte cap is
        // clamped below the configured budget.
        let gov = RunCtx::current().governor.clone();
        if gov.streaming() {
            return None;
        }
        let effective_budget = gov.cache_cap(self.budget_bytes);
        let slot = {
            let mut inner = self.inner.lock().expect("trace cache poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            let entry = inner
                .map
                .entry((name.to_string(), variant.to_string()))
                .or_insert_with(|| CacheEntry {
                    slot: Arc::new(Mutex::new(None)),
                    bytes: 0,
                    last_used: tick,
                });
            entry.last_used = tick;
            Arc::clone(&entry.slot)
        };

        // Poison-tolerant: a cancellation can unwind a recording while
        // it holds this lock. The slot is only ever written *after* a
        // recording completes, so a poisoned slot still holds `None`
        // (or a finished arena) — safe to reuse.
        let mut guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
        let mut verify_failed = false;
        if let Some(trace) = guard.as_ref() {
            if trace.verify() {
                let trace = Arc::clone(trace);
                drop(guard);
                let mut inner = self.inner.lock().expect("trace cache poisoned");
                inner.stats.hits += 1;
                // Honour a cap the governor shrank since the arena
                // landed: evict on the hit path too, and keep the
                // governor's residency view current.
                self.evict_to_effective_budget(&mut inner, effective_budget, &gov);
                gov.report_cache_resident(inner.stats.resident_bytes);
                return Some(trace);
            }
            // The cached arena no longer matches its sealed checksum
            // (in-memory corruption): never replay it. Drop the bad
            // recording and fall through to record afresh.
            verify_failed = true;
            *guard = None;
            eprintln!(
                "warning: cached trace {name}/{variant} failed checksum verification; \
                 discarded and re-recording"
            );
        }

        // Record while holding only this key's slot lock.
        let trace = Arc::new(RecordedTrace::record(workload));
        *guard = Some(Arc::clone(&trace));
        drop(guard);

        let bytes = trace.arena_bytes();
        gov.observe_arena_bytes(bytes);
        let mut inner = self.inner.lock().expect("trace cache poisoned");
        inner.stats.misses += 1;
        if verify_failed {
            inner.stats.verify_failures += 1;
        }
        let key = (name.to_string(), variant.to_string());
        if let Some(entry) = inner.map.get_mut(&key) {
            // A racing eviction may have already charged (or dropped)
            // this entry; only charge bytes not yet accounted. A
            // re-record after a verify failure may shrink the entry.
            let old = entry.bytes;
            entry.bytes = bytes;
            if bytes >= old {
                inner.stats.resident_bytes += bytes - old;
            } else {
                inner.stats.resident_bytes -= old - bytes;
            }
        }
        self.evict_to_effective_budget(&mut inner, effective_budget, &gov);
        gov.report_cache_resident(inner.stats.resident_bytes);
        Some(trace)
    }

    /// Flip one payload bit of the cached arena for `(name, variant)`,
    /// in place, without touching its sealed checksum. Returns `true`
    /// if a finished recording was present to corrupt. Corruption
    /// injector for integrity tests and the mutation-fuzz harness; the
    /// next lookup must detect the damage and re-record.
    #[doc(hidden)]
    pub fn corrupt_cached_trace(&self, name: &str, variant: &str, bit: u64) -> bool {
        let slot = {
            let inner = self.inner.lock().expect("trace cache poisoned");
            let Some(entry) = inner.map.get(&(name.to_string(), variant.to_string())) else {
                return false;
            };
            Arc::clone(&entry.slot)
        };
        let mut guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(trace) = guard.as_mut() else {
            return false;
        };
        if trace.is_empty() {
            return false;
        }
        // Clone-on-write: outstanding handles keep the healthy arena;
        // the *cached* copy is the one damaged.
        Arc::make_mut(trace).corrupt_bit(bit);
        true
    }

    /// Drop least-recently-used finished recordings until resident
    /// bytes fit `budget`. Entries still recording (bytes == 0, slot
    /// locked elsewhere) carry no weight and are never worth evicting.
    fn evict_to_budget(&self, inner: &mut CacheInner, budget: u64) {
        while inner.stats.resident_bytes > budget {
            let victim = inner
                .map
                .iter()
                .filter(|(_, e)| e.bytes > 0)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            let Some(key) = victim else { break };
            let entry = inner.map.remove(&key).expect("victim exists");
            inner.stats.resident_bytes -= entry.bytes;
            inner.stats.evictions += 1;
        }
    }

    /// [`evict_to_budget`](Self::evict_to_budget) against the
    /// governor-clamped cap, crediting evictions the clamp forced
    /// (beyond what the configured budget alone would have evicted) to
    /// the governor's accounting.
    fn evict_to_effective_budget(
        &self,
        inner: &mut CacheInner,
        effective_budget: u64,
        gov: &membw_runner::Governor,
    ) {
        let before = inner.stats.evictions;
        self.evict_to_budget(inner, self.budget_bytes);
        let own = inner.stats.evictions - before;
        if effective_budget < self.budget_bytes {
            self.evict_to_budget(inner, effective_budget);
            gov.note_forced_evictions(inner.stats.evictions - before - own);
        }
    }
}

/// Parse a [`TRACE_CACHE_MB_ENV`] value into a byte budget.
///
/// # Errors
///
/// A non-numeric value is an error naming the variable and the bad
/// value — drivers (`repro`) validate the environment up front with
/// this and refuse to start, rather than silently running with a
/// default the user didn't ask for.
pub fn parse_cache_budget_mb(value: &str) -> Result<u64, String> {
    value
        .trim()
        .parse::<u64>()
        .map(|mb| mb.saturating_mul(1024 * 1024))
        .map_err(|_| {
            format!(
                "invalid {TRACE_CACHE_MB_ENV}={value:?}: expected a whole number of MiB \
                 (0 disables the trace cache)"
            )
        })
}

fn budget_from_env() -> u64 {
    match std::env::var(TRACE_CACHE_MB_ENV) {
        Ok(v) => parse_cache_budget_mb(&v).unwrap_or_else(|e| {
            // Library-level fallback for embedders that skipped up-front
            // validation; `repro` rejects the value before this runs.
            eprintln!("warning: {e}; using the default budget");
            DEFAULT_BUDGET_BYTES
        }),
        Err(_) => DEFAULT_BUDGET_BYTES,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Strided;
    use crate::sink::CollectSink;

    fn mixed_workload() -> crate::VecWorkload {
        crate::VecWorkload::new(
            "mixed",
            vec![
                MemRef::read(0x1000, 4),
                MemRef::write(0x2000, 8),
                MemRef::read(0x3000, 2),
            ],
        )
    }

    fn full_uop_workload() -> Vec<Uop> {
        vec![
            Uop::compute(OpClass::IntAlu, Some(1), [Some(2), None]),
            Uop::compute(OpClass::FpDiv, Some(63), [Some(62), Some(61)]),
            Uop::load(MemRef::read(0xdead_beef_0000, 8), Some(3), [Some(1), None]),
            Uop::store(MemRef::write(0x42, 2), [Some(3), Some(1)]),
            Uop::branch(0x4000, true, [Some(3), None]),
            Uop::branch(0x4010, false, [None, None]),
        ]
    }

    struct UopListWorkload(Vec<Uop>);
    impl Workload for UopListWorkload {
        fn name(&self) -> &str {
            "uoplist"
        }
        fn generate(&self, sink: &mut dyn TraceSink) {
            for &u in &self.0 {
                sink.uop(u);
            }
        }
    }

    #[test]
    fn roundtrip_is_exact_for_every_field() {
        let w = UopListWorkload(full_uop_workload());
        let rec = RecordedTrace::record(&w);
        assert_eq!(rec.len(), 6);
        assert_eq!(rec.num_mem_refs(), 2);
        assert_eq!(rec.collect_uops(), w.collect_uops());
        // Replaying twice yields the identical stream.
        assert_eq!(rec.collect_uops(), rec.collect_uops());
    }

    #[test]
    fn mem_ref_fast_path_matches_generate() {
        let w = mixed_workload();
        let rec = RecordedTrace::record(&w);
        assert_eq!(rec.collect_mem_refs(), w.collect_mem_refs());
        // And matches the slow path through generate().
        let mut sink = CollectSink::new();
        rec.generate(&mut sink);
        let via_uops: Vec<MemRef> = sink.into_uops().iter().filter_map(|u| u.mem).collect();
        assert_eq!(rec.collect_mem_refs(), via_uops);
    }

    #[test]
    fn strided_pattern_roundtrips() {
        let w = Strided::reads(0x8000, 4, 512).with_write_every(3).repeat(2);
        let rec = RecordedTrace::record(&w);
        assert_eq!(rec.collect_uops(), w.collect_uops());
        assert!(rec.arena_bytes() > 0);
    }

    #[test]
    fn cache_shares_one_recording_per_key() {
        let cache = TraceCache::with_budget(u64::MAX);
        let w = mixed_workload();
        let a = cache.get_or_record("mixed", "Test", &w).expect("enabled");
        let b = cache.get_or_record("mixed", "Test", &w).expect("enabled");
        assert!(Arc::ptr_eq(&a, &b), "second lookup reuses the arena");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.resident_bytes, a.arena_bytes());
        // A different variant records separately.
        let c = cache.get_or_record("mixed", "Small", &w).expect("enabled");
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn zero_budget_disables_caching() {
        let cache = TraceCache::with_budget(0);
        assert!(cache.is_disabled());
        assert!(cache.get_or_record("x", "y", &mixed_workload()).is_none());
        assert_eq!(cache.stats(), TraceCacheStats::default());
    }

    #[test]
    fn lru_eviction_respects_the_budget() {
        let w = Strided::reads(0, 4, 4096);
        let probe = RecordedTrace::record(&w);
        let one = probe.arena_bytes();
        // Budget fits two traces but not three.
        let cache = TraceCache::with_budget(one * 2 + one / 2);
        let a = cache.get_or_record("a", "t", &w).unwrap();
        let _b = cache.get_or_record("b", "t", &w).unwrap();
        // Touch "a" so "b" is the LRU when "c" lands.
        let a2 = cache.get_or_record("a", "t", &w).unwrap();
        assert!(Arc::ptr_eq(&a, &a2));
        let _c = cache.get_or_record("c", "t", &w).unwrap();
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.resident_bytes <= cache.budget_bytes());
        // "b" was evicted; re-fetch records again (miss, not hit).
        let misses_before = s.misses;
        let _b2 = cache.get_or_record("b", "t", &w).unwrap();
        assert_eq!(cache.stats().misses, misses_before + 1);
        // Evicted handles remain usable.
        assert_eq!(a.collect_mem_refs().len(), 4096);
    }

    #[test]
    fn checksum_seals_at_finish_and_catches_any_bit_flip() {
        let w = UopListWorkload(full_uop_workload());
        let rec = RecordedTrace::record(&w);
        assert!(rec.verify(), "freshly recorded arenas verify");
        // Re-recording the same stream yields the same checksum.
        assert_eq!(rec.checksum(), RecordedTrace::record(&w).checksum());
        // Every payload region is covered: probe bits landing in meta,
        // mem_addr, mem_size and branch_pc.
        for bit in [0u64, 6 * 32 + 3, 6 * 32 + 2 * 64 + 5, u64::MAX] {
            let mut bad = rec.clone();
            bad.corrupt_bit(bit);
            assert!(!bad.verify(), "bit {bit} flip must fail verification");
        }
    }

    #[test]
    fn cache_detects_corrupt_arena_and_rerecords() {
        let cache = TraceCache::with_budget(u64::MAX);
        let w = mixed_workload();
        let healthy = cache.get_or_record("mixed", "Test", &w).expect("enabled");
        assert!(
            cache.corrupt_cached_trace("mixed", "Test", 17),
            "a finished recording was present to corrupt"
        );
        let refetched = cache.get_or_record("mixed", "Test", &w).expect("enabled");
        assert!(
            !Arc::ptr_eq(&healthy, &refetched),
            "corrupt arena must not be served"
        );
        assert!(refetched.verify());
        assert_eq!(refetched.collect_uops(), w.collect_uops());
        let s = cache.stats();
        assert_eq!(s.verify_failures, 1);
        assert_eq!((s.hits, s.misses), (0, 2));
        assert_eq!(s.resident_bytes, refetched.arena_bytes());
        // Outstanding handles to the pre-corruption arena stay healthy
        // (clone-on-write damages only the cached copy).
        assert!(healthy.verify());
        // The healed entry now hits normally.
        let again = cache.get_or_record("mixed", "Test", &w).expect("enabled");
        assert!(Arc::ptr_eq(&refetched, &again));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn corrupting_an_absent_entry_is_a_no_op() {
        let cache = TraceCache::with_budget(u64::MAX);
        assert!(!cache.corrupt_cached_trace("nope", "t", 0));
    }

    #[test]
    fn cache_budget_env_parses_strictly() {
        assert_eq!(parse_cache_budget_mb("512"), Ok(512 * 1024 * 1024));
        assert_eq!(parse_cache_budget_mb(" 0 "), Ok(0));
        let err = parse_cache_budget_mb("lots").unwrap_err();
        assert!(err.contains(TRACE_CACHE_MB_ENV), "{err}");
        assert!(err.contains("lots"), "{err}");
        assert!(parse_cache_budget_mb("-1").is_err());
        assert!(parse_cache_budget_mb("1.5").is_err());
        assert!(parse_cache_budget_mb("").is_err());
    }

    #[test]
    fn concurrent_same_key_lookups_record_once() {
        let cache = Arc::new(TraceCache::with_budget(u64::MAX));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    let w = Strided::reads(0, 4, 2048);
                    cache.get_or_record("shared", "t", &w).unwrap()
                })
            })
            .collect();
        let traces: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for t in &traces[1..] {
            assert!(Arc::ptr_eq(&traces[0], t), "all threads share one arena");
        }
        assert_eq!(cache.stats().misses, 1, "exactly one recording happened");
    }
}
