//! The trace-signature kernel against an independent oracle, and the
//! signature cache's per-key compute slots.
//!
//! The oracle rebuilds a whole [`TraceSignature`] the slow, obvious
//! way: the instruction mix from a plain `HashMap` pass over the uops,
//! each block size's reuse histogram from [`ReuseProfile::measure`]
//! (a Fenwick tree over trace positions) bucketed by a reimplemented
//! log₂ `bucketize`, and dirty blocks from a `HashSet`. The kernel
//! (dense ids, a live-slot bitmap with compaction) must agree with it
//! field for field on every suite benchmark and on random streams
//! whose tiny block alphabets force many compactions.

use membw::analytic::ecm::{BlockReuse, KernelSignature};
use membw::trace::reuse::ReuseProfile;
use membw::trace::signature::{
    compute_signature, SignatureCache, TraceSignature, SIGNATURE_BLOCK_SIZES, SIGNATURE_VERSION,
};
use membw::trace::uop::NUM_REGS;
use membw::trace::{MemRef, OpClass, TraceSink, Uop, VecWorkload, Workload};
use membw::workloads::{suite92, suite95, Scale};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Every uop, kept for the oracle's separate passes.
#[derive(Default)]
struct Uops(Vec<Uop>);

impl TraceSink for Uops {
    fn uop(&mut self, uop: Uop) {
        self.0.push(uop);
    }
}

fn class_index(class: OpClass) -> usize {
    match class {
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

/// Bucket 0 holds distance 0; bucket `k ≥ 1` holds `[2^(k−1), 2^k)`;
/// no trailing empty buckets.
fn bucketize(profile: &ReuseProfile) -> Vec<u64> {
    let mut buckets = Vec::new();
    for (d, count) in profile.distances() {
        let idx = if d == 0 { 0 } else { d.ilog2() as usize + 1 };
        if buckets.len() <= idx {
            buckets.resize(idx + 1, 0);
        }
        buckets[idx] += count;
    }
    buckets
}

fn oracle_signature(name: &str, variant: &str, workload: &dyn Workload) -> TraceSignature {
    let mut sink = Uops::default();
    workload.generate(&mut sink);
    let uops = sink.0;

    let mut class_counts = vec![0u64; 8];
    let mut last_dir: HashMap<u64, bool> = HashMap::new();
    let (mut branches, mut taken_branches, mut dir_flips) = (0, 0, 0);
    let mut reg_depth = [0u64; NUM_REGS];
    let (mut op_cycles, mut crit_path) = (0, 0);
    for u in &uops {
        class_counts[class_index(u.class)] += 1;
        let lat = u64::from(u.class.latency());
        op_cycles += lat;
        if let Some(b) = u.branch {
            branches += 1;
            taken_branches += u64::from(b.taken);
            if last_dir
                .insert(b.pc, b.taken)
                .is_some_and(|prev| prev != b.taken)
            {
                dir_flips += 1;
            }
        }
        let ready = u
            .srcs
            .iter()
            .flatten()
            .map(|&r| reg_depth[usize::from(r)])
            .max()
            .unwrap_or(0);
        if let Some(d) = u.dest {
            reg_depth[usize::from(d)] = ready + lat;
        }
        crit_path = crit_path.max(ready + lat);
    }

    let refs: Vec<MemRef> = uops.iter().filter_map(|u| u.mem).collect();
    let replay = VecWorkload::new(name, refs.clone());
    let reuse = SIGNATURE_BLOCK_SIZES
        .iter()
        .map(|&block| {
            let profile = ReuseProfile::measure(&replay, block);
            let dirty: HashSet<u64> = refs
                .iter()
                .filter(|r| r.kind.is_write())
                .map(|r| r.addr / block)
                .collect();
            BlockReuse {
                block_size: block,
                accesses: profile.total(),
                cold: profile.cold_misses(),
                dirty_blocks: dirty.len() as u64,
                buckets: bucketize(&profile),
            }
        })
        .collect();

    TraceSignature {
        version: SIGNATURE_VERSION,
        name: name.to_string(),
        variant: variant.to_string(),
        kernel: KernelSignature {
            uops: uops.len() as u64,
            mem_refs: refs.len() as u64,
            stores: class_counts[class_index(OpClass::Store)],
            request_bytes: refs.iter().map(|r| u64::from(r.size)).sum(),
            op_cycles,
            crit_path,
            branches,
            taken_branches,
            dir_flips,
            class_counts,
            reuse,
        },
    }
}

fn assert_matches_oracle(name: &str, workload: &dyn Workload) {
    let kernel = compute_signature(name, "Test", workload);
    let oracle = oracle_signature(name, "Test", workload);
    assert_eq!(
        kernel, oracle,
        "{name}: kernel signature differs from the oracle"
    );
}

#[test]
fn kernel_matches_the_oracle_on_every_suite_benchmark() {
    for b in suite92(Scale::Test).into_iter().chain(suite95(Scale::Test)) {
        assert_matches_oracle(b.name(), b.workload());
    }
}

#[test]
fn kernel_matches_the_oracle_on_edge_traces() {
    let empty = VecWorkload::new("empty", Vec::new());
    assert_matches_oracle("empty", &empty);
    let sig = compute_signature("empty", "Test", &empty);
    assert!(sig
        .kernel
        .reuse
        .iter()
        .all(|r| r.buckets.is_empty() && r.cold == 0));

    let one_block = VecWorkload::new("one", vec![MemRef::read(0x40, 4); 9]);
    assert_matches_oracle("one", &one_block);

    let writes_only: Vec<MemRef> = (0..600u64)
        .map(|i| MemRef::write((i * 37 % 211) * 4, 4))
        .collect();
    assert_matches_oracle("writes", &VecWorkload::new("writes", writes_only));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random read/write streams over at most a few hundred blocks, a
    /// few thousand references long: the kernel's slot space (twice the
    /// distinct blocks) runs out many times per stream, and alphabets
    /// past 32 blocks spread the live slots over several bitmap words.
    #[test]
    fn kernel_matches_the_oracle_on_random_streams(
        alphabet in 1u64..300,
        stride_log in 2u32..9,
        picks in prop::collection::vec((0u64..1 << 20, prop::bool::ANY, prop::bool::ANY), 0..3000),
    ) {
        let refs: Vec<MemRef> = picks
            .iter()
            .map(|&(pick, write, wide)| {
                let addr = (pick % alphabet) << stride_log;
                let size = if wide { 8 } else { 4 };
                if write { MemRef::write(addr, size) } else { MemRef::read(addr, size) }
            })
            .collect();
        let w = VecWorkload::new("prop", refs);
        prop_assert_eq!(compute_signature("prop", "Test", &w), oracle_signature("prop", "Test", &w));
    }
}

/// A workload whose `generate` reports entry on `entered` and then
/// blocks until `release` fires, counting its generations.
struct Gated {
    inner: VecWorkload,
    generations: AtomicUsize,
    entered: mpsc::Sender<()>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl Workload for Gated {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn generate(&self, sink: &mut dyn TraceSink) {
        self.generations.fetch_add(1, Ordering::SeqCst);
        self.entered.send(()).unwrap();
        self.release.lock().unwrap().recv().unwrap();
        self.inner.generate(sink);
    }
}

#[test]
fn a_compute_blocks_neither_other_keys_nor_its_own_waiters_twice() {
    let cache = SignatureCache::with_store(None);
    let toy = VecWorkload::new("b", vec![MemRef::read(0, 4), MemRef::write(64, 4)]);
    let b_first = cache.get_or_compute("b", "Test", &toy);

    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let gated = Gated {
        inner: VecWorkload::new("a", vec![MemRef::read(0, 4), MemRef::read(4, 4)]),
        generations: AtomicUsize::new(0),
        entered: entered_tx,
        release: Mutex::new(release_rx),
    };

    let (cache, toy, gated) = (&cache, &toy, &gated);
    std::thread::scope(move |s| {
        // Owned here, so a failed assertion drops it and unblocks the
        // gated compute instead of hanging the scope's join.
        let release_tx = release_tx;
        let first = s.spawn(move || cache.get_or_compute("a", "Test", gated));
        entered_rx
            .recv()
            .expect("the first caller reaches generate()");

        // Key A is mid-compute: a memory hit for key B must still answer.
        let (hit_tx, hit_rx) = mpsc::channel();
        s.spawn(move || hit_tx.send(cache.get_or_compute("b", "Test", toy)));
        let b_again = hit_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("a memory hit for another key waited on key A's compute");
        assert!(Arc::ptr_eq(&b_first, &b_again));

        // A second caller of key A must wait for the first compute
        // rather than start its own: no second generate() may begin
        // while the first is held.
        let second = s.spawn(move || cache.get_or_compute("a", "Test", gated));
        assert!(
            entered_rx.recv_timeout(Duration::from_millis(300)).is_err(),
            "a second caller of the same key started its own compute"
        );
        release_tx.send(()).unwrap();
        let (a1, a2) = (first.join().unwrap(), second.join().unwrap());
        assert!(Arc::ptr_eq(&a1, &a2), "both callers share one signature");
    });
    assert_eq!(gated.generations.load(Ordering::SeqCst), 1);
}
