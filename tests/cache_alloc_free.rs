//! The functional cache's access path allocates nothing: once a `Cache`
//! is built, 100k accesses — conflict misses, dirty write-backs and
//! tagged prefetches included — make zero heap allocations, at every
//! associativity and under every replacement policy.
//!
//! This is its own test binary because it installs a counting global
//! allocator. Only allocations on the measuring thread while it is
//! armed are counted, so the harness's own threads cannot disturb it.

use membw::cache::{Associativity, Cache, CacheConfig, ReplacementPolicy};
use membw::trace::MemRef;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made on this thread while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.with(Cell::get)
}

const ACCESSES: u64 = 100_000;

/// A 16 KB write-back cache with tagged prefetch, fed a stream over
/// 48 KB: sequential runs, a hot region and scattered conflicts, about
/// a third of them writes and some straddling a block boundary.
fn check(assoc: Associativity, policy: ReplacementPolicy) {
    let cfg = CacheConfig::builder(16 * 1024, 32)
        .associativity(assoc)
        .replacement(policy)
        .tagged_prefetch(true)
        .build()
        .expect("valid geometry");
    let mut cache = Cache::new(cfg);
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let allocs = allocations_during(|| {
        for i in 0..ACCESSES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = match i % 4 {
                0 => (i * 12) % (48 * 1024),
                1 => (x >> 20) % (4 * 1024),
                _ => (x >> 24) % (48 * 1024),
            };
            let r = if x.is_multiple_of(3) {
                MemRef::write(addr & !3, 4)
            } else {
                MemRef::read(addr & !1, 4)
            };
            cache.access(r);
        }
    });
    let s = *cache.stats();
    assert!(
        s.read_misses > 0 && s.write_misses > 0,
        "{assoc} {policy:?}: no misses"
    );
    assert!(
        s.bytes_written_back > 0,
        "{assoc} {policy:?}: no write-backs"
    );
    assert!(s.prefetch_fills > 0, "{assoc} {policy:?}: no prefetches");
    assert!(s.accesses > ACCESSES, "{assoc} {policy:?}: no straddles");
    assert_eq!(
        allocs, 0,
        "{assoc} {policy:?}: {allocs} allocations in {ACCESSES} accesses"
    );
}

#[test]
fn accesses_never_allocate_at_any_associativity_or_policy() {
    for assoc in [
        Associativity::Ways(1),
        Associativity::Ways(4),
        Associativity::Full,
    ] {
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random(3),
            ReplacementPolicy::Plru,
        ] {
            check(assoc, policy);
        }
    }
}
