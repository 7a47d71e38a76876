//! Trace signatures: the few-KB summary the analytic fast path reads
//! instead of the trace arena.
//!
//! A [`TraceSignature`] condenses one (benchmark, scale) trace into
//! exactly what the ECM predictor
//! ([`membw_analytic::ecm`]) needs — an instruction-mix summary, the
//! register-dependency critical path, and one log₂-bucketed
//! reuse-distance histogram per block granularity in
//! [`SIGNATURE_BLOCK_SIZES`]. Computing it reads the workload's uop
//! stream once, straight from the generator and recording no arena,
//! numbers each 4-B block with a dense id, then runs one exact
//! stack-distance pass over those ids per block size (a live-slot
//! bitmap with a Fenwick tree sized by distinct blocks;
//! [`crate::reuse::ReuseProfile`] is the reference algorithm). After
//! that, predictions for *any* cache/memsys configuration are pure
//! histogram arithmetic and never touch a trace again.
//!
//! Signatures persist through the PR 4 integrity layer: sealed with an
//! FNV-1a 64 header, written tmp→fsync→rename, keyed by
//! `sig-v1|name|variant`, and verified on load (seal, version, and a
//! name/variant echo against hash collisions). A corrupt file is
//! quarantined to a `.corrupt` generation and recomputed — a damaged
//! signature can cost a recompute, never a wrong prediction.

use crate::fasthash::FastHashMap;
use crate::uop::{OpClass, Uop, NUM_REGS};
use crate::{TraceSink, Workload};
use membw_analytic::ecm::{BlockReuse, KernelSignature, MIX_CLASSES};
use membw_runner::persist;
use serde::json::Value;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// Signature format version; part of the persistence key, so a format
/// change simply recomputes rather than misreading old files.
pub const SIGNATURE_VERSION: u32 = 1;

/// Block granularities every signature records, ascending: all the
/// block sizes the repro's sweeps and machine specs use (4 B MTC words
/// through the 128 B experiment-B L2 block).
pub const SIGNATURE_BLOCK_SIZES: [u64; 6] = [4, 8, 16, 32, 64, 128];

/// Environment variable overriding the on-disk signature store
/// directory (default `results/.signatures`).
pub const SIG_DIR_ENV: &str = "MEMBW_SIG_DIR";

/// A persisted kernel signature with its identity echo.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSignature {
    /// Format version ([`SIGNATURE_VERSION`]).
    pub version: u32,
    /// Benchmark name (echoed to defeat key-hash collisions).
    pub name: String,
    /// Scale variant (`"Test"`, `"Small"`, `"Full"`).
    pub variant: String,
    /// The model inputs.
    pub kernel: KernelSignature,
}

/// Streaming statistics collected in one pass over the uop trace.
struct MixSink {
    uops: u64,
    op_cycles: u64,
    branches: u64,
    taken_branches: u64,
    /// Branches whose outcome differs from the same PC's previous
    /// outcome (the predictor-difficulty proxy the time model charges
    /// a mispredict penalty for).
    dir_flips: u64,
    /// Last observed direction per branch PC (trusted keys).
    last_dir: FastHashMap<u64, bool>,
    class_counts: [u64; MIX_CLASSES.len()],
    /// Ready cycle of each logical register's latest value.
    reg_depth: [u64; NUM_REGS],
    crit_path: u64,
    /// Each reference as the reuse kernel reads it: the 4-B block
    /// number shifted up one bit, over the write bit.
    refs: Vec<u64>,
    request_bytes: u64,
}

impl MixSink {
    fn new() -> Self {
        MixSink {
            uops: 0,
            op_cycles: 0,
            branches: 0,
            taken_branches: 0,
            dir_flips: 0,
            last_dir: FastHashMap::default(),
            class_counts: [0; MIX_CLASSES.len()],
            reg_depth: [0; NUM_REGS],
            crit_path: 0,
            refs: Vec::new(),
            request_bytes: 0,
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
}

impl TraceSink for MixSink {
    fn uop(&mut self, uop: Uop) {
        self.uops += 1;
        let lat = u64::from(uop.class.latency());
        self.op_cycles += lat;
        self.class_counts[Self::class_index(uop.class)] += 1;
        if let Some(b) = uop.branch {
            self.branches += 1;
            if b.taken {
                self.taken_branches += 1;
            }
            if let Some(prev) = self.last_dir.insert(b.pc, b.taken) {
                if prev != b.taken {
                    self.dir_flips += 1;
                }
            }
        }
        if let Some(r) = uop.mem {
            let block = r.block(SIGNATURE_BLOCK_SIZES[0]);
            self.refs.push(block << 1 | u64::from(r.kind.is_write()));
            self.request_bytes += u64::from(r.size);
        }
        // Register-dependency critical path with unit memory: a uop is
        // ready when its sources are, and completes `latency` later.
        let ready = uop
            .srcs
            .iter()
            .flatten()
            .map(|&r| self.reg_depth[usize::from(r)])
            .max()
            .unwrap_or(0);
        let done = ready + lat;
        if let Some(d) = uop.dest {
            self.reg_depth[usize::from(d)] = done;
        }
        self.crit_path = self.crit_path.max(done);
    }
}

/// The reference stream over dense ids: each 4-B block (the finest
/// signature granularity) gets a `u32` id in first-touch order, and
/// each reference keeps only its id.
struct DenseRefs {
    /// id → 4-B block number.
    blocks: Vec<u64>,
    /// id → whether any write touched the block.
    written: Vec<bool>,
    /// The id of every reference, in trace order.
    trace: Vec<u32>,
}

impl DenseRefs {
    /// Number the blocks of `refs` (as [`MixSink`] packs them) in one
    /// hash pass; trace addresses are trusted keys.
    fn new(refs: &[u64]) -> Self {
        let mut id_of: FastHashMap<u64, u32> = FastHashMap::default();
        let mut dense = DenseRefs {
            blocks: Vec::new(),
            written: Vec::new(),
            trace: Vec::with_capacity(refs.len()),
        };
        for &r in refs {
            let block = r >> 1;
            let fresh = u32::try_from(dense.blocks.len()).expect("distinct 4-B blocks fit in u32");
            let id = *id_of.entry(block).or_insert(fresh);
            if id == fresh {
                dense.blocks.push(block);
                dense.written.push(false);
            }
            dense.written[id as usize] |= r & 1 == 1;
            dense.trace.push(id);
        }
        dense
    }

    /// Reuse statistics at every block size in
    /// [`SIGNATURE_BLOCK_SIZES`]. The 4-B blocks are sorted by address
    /// once; a coarser level's id is then the rank of `block >> shift`
    /// in that order, so no level needs a hash lookup.
    fn reuse(&self) -> Vec<BlockReuse> {
        let mut order: Vec<u32> = (0..self.blocks.len() as u32).collect();
        order.sort_unstable_by_key(|&id| self.blocks[id as usize]);
        let finest = SIGNATURE_BLOCK_SIZES[0].trailing_zeros();
        let mut level_of = vec![0u32; self.blocks.len()];
        SIGNATURE_BLOCK_SIZES
            .iter()
            .map(|&block| {
                let shift = block.trailing_zeros() - finest;
                let mut distinct = 0u32;
                let mut prev = None;
                for &id in &order {
                    let coarse = self.blocks[id as usize] >> shift;
                    if prev != Some(coarse) {
                        prev = Some(coarse);
                        distinct += 1;
                    }
                    level_of[id as usize] = distinct - 1;
                }
                let mut dirty = vec![false; distinct as usize];
                let mut dirty_blocks = 0u64;
                for (id, _) in self.written.iter().enumerate().filter(|(_, &w)| w) {
                    let flag = &mut dirty[level_of[id] as usize];
                    dirty_blocks += u64::from(!*flag);
                    *flag = true;
                }
                let mut stack = StackDistance::new(distinct as usize);
                let mut buckets = [0u64; 65];
                for &id in &self.trace {
                    if let Some(d) = stack.access(level_of[id as usize]) {
                        buckets[(u64::BITS - d.leading_zeros()) as usize] += 1;
                    }
                }
                let used = buckets.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
                BlockReuse {
                    block_size: block,
                    accesses: self.trace.len() as u64,
                    cold: u64::from(distinct),
                    dirty_blocks,
                    buckets: buckets[..used].to_vec(),
                }
            })
            .collect()
    }
}

/// Exact LRU stack distances over dense block ids.
///
/// Each block's latest access owns one *slot*; slots are handed out in
/// access order, so the distance of a reuse is the number of live slots
/// after the block's previous one. Live slots are bits in a bitmap with
/// a Fenwick tree over its 64-slot words' popcounts. When slots run out
/// the live ones are renumbered densely (order kept) and the tree is
/// rebuilt; with twice as many slots as blocks, that costs O(1)
/// amortized per access and sizes everything by distinct blocks rather
/// than by trace length.
struct StackDistance {
    /// id → its latest slot (`u32::MAX` before the first access).
    slot_of: Vec<u32>,
    /// slot → the id that owns it (meaningful for live slots only).
    owner: Vec<u32>,
    bits: Vec<u64>,
    /// 1-based Fenwick tree over the words of `bits`.
    tree: Vec<u32>,
    live: u64,
    next: usize,
}

impl StackDistance {
    fn new(blocks: usize) -> Self {
        let words = (2 * blocks).div_ceil(64).max(1);
        StackDistance {
            slot_of: vec![u32::MAX; blocks],
            owner: vec![0; words * 64],
            bits: vec![0; words],
            tree: vec![0; words + 1],
            live: 0,
            next: 0,
        }
    }

    /// Record an access to `id`: its stack distance, or `None` for a
    /// first touch.
    fn access(&mut self, id: u32) -> Option<u64> {
        let prev = self.slot_of[id as usize];
        let distance = if prev == u32::MAX {
            self.live += 1;
            None
        } else {
            let prev = prev as usize;
            if prev + 1 == self.next {
                // Already the most recent slot: distance 0, nothing moves.
                return Some(0);
            }
            let d = self.live - self.live_through(prev);
            self.bits[prev / 64] &= !(1 << (prev % 64));
            self.tree_add(prev / 64, u32::MAX);
            Some(d)
        };
        if self.next == self.owner.len() {
            self.compact();
        }
        let slot = self.next;
        self.next += 1;
        self.slot_of[id as usize] = slot as u32;
        self.owner[slot] = id;
        self.bits[slot / 64] |= 1 << (slot % 64);
        self.tree_add(slot / 64, 1);
        distance
    }

    /// Live slots at positions `0..=slot`.
    fn live_through(&self, slot: usize) -> u64 {
        let word = slot / 64;
        let mut sum = u64::from((self.bits[word] & (u64::MAX >> (63 - slot % 64))).count_ones());
        let mut i = word;
        while i > 0 {
            sum += u64::from(self.tree[i]);
            i &= i - 1;
        }
        sum
    }

    /// Add `delta` (wrapping, so `u32::MAX` is −1) to word `word`.
    fn tree_add(&mut self, word: usize, delta: u32) {
        let mut i = word + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Renumber the live slots `0..live` in order and rebuild the tree.
    fn compact(&mut self) {
        let mut next = 0;
        for word in 0..self.bits.len() {
            let mut bits = self.bits[word];
            while bits != 0 {
                let id = self.owner[word * 64 + bits.trailing_zeros() as usize];
                self.owner[next] = id;
                self.slot_of[id as usize] = next as u32;
                next += 1;
                bits &= bits - 1;
            }
        }
        self.next = next;
        self.bits.fill(0);
        for slot in (0..next).step_by(64) {
            self.bits[slot / 64] = u64::MAX >> (64 - (next - slot).min(64));
        }
        for i in 1..self.tree.len() {
            self.tree[i] = self.bits[i - 1].count_ones();
        }
        for i in 1..self.tree.len() {
            let parent = i + (i & i.wrapping_neg());
            if parent < self.tree.len() {
                self.tree[parent] += self.tree[i];
            }
        }
    }
}

/// Compute the signature of `workload` from scratch: one pass over the
/// generated uop stream, then one stack-distance pass per block size.
pub fn compute_signature(name: &str, variant: &str, workload: &dyn Workload) -> TraceSignature {
    let mut mix = MixSink::new();
    workload.generate(&mut mix);
    let dense = DenseRefs::new(&std::mem::take(&mut mix.refs));

    TraceSignature {
        version: SIGNATURE_VERSION,
        name: name.to_string(),
        variant: variant.to_string(),
        kernel: KernelSignature {
            uops: mix.uops,
            mem_refs: dense.trace.len() as u64,
            stores: mix.class_counts[MixSink::class_index(OpClass::Store)],
            request_bytes: mix.request_bytes,
            op_cycles: mix.op_cycles,
            crit_path: mix.crit_path,
            branches: mix.branches,
            taken_branches: mix.taken_branches,
            dir_flips: mix.dir_flips,
            class_counts: mix.class_counts.to_vec(),
            reuse: dense.reuse(),
        },
    }
}

fn store_key(name: &str, variant: &str) -> String {
    format!("sig-v{SIGNATURE_VERSION}|{name}|{variant}")
}

/// Sealed on-disk store for computed signatures, one file per
/// (name, variant), durable through the [`membw_runner::persist`]
/// tmp→fsync→rename + FNV-seal path.
pub struct SignatureStore {
    dir: PathBuf,
}

impl SignatureStore {
    /// Open (creating if needed) the store at `dir`, sweeping orphaned
    /// `*.tmp` files and bounding the `*.corrupt` quarantine backlog.
    ///
    /// # Errors
    ///
    /// Fails only if the directory cannot be created.
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        membw_runner::faultio::create_dir_all(dir)?;
        persist::sweep_orphaned_tmp(dir);
        persist::sweep_corrupt_retention(dir, persist::CORRUPT_KEEP_DEFAULT);
        Ok(SignatureStore {
            dir: dir.to_path_buf(),
        })
    }

    /// The file backing `(name, variant)`.
    pub fn path_for(&self, name: &str, variant: &str) -> PathBuf {
        let key = store_key(name, variant);
        self.dir
            .join(format!("{:016x}.sig.json", persist::fnv64(&key)))
    }

    /// The verified signature for `(name, variant)`, if a sealed entry
    /// exists. A file that fails the seal check, does not parse, or
    /// echoes a different identity (version, name, variant) is
    /// quarantined and reported as a miss — the caller recomputes.
    pub fn load(&self, name: &str, variant: &str) -> Option<TraceSignature> {
        let path = self.path_for(name, variant);
        let bytes = std::fs::read(&path).ok()?;
        // Bytes that aren't even UTF-8 are corruption like any other:
        // quarantine them rather than leaving a permanently dead entry.
        let decoded = String::from_utf8(bytes)
            .ok()
            .and_then(|text| Self::decode(&text, name, variant));
        match decoded {
            Some(sig) => Some(sig),
            None => {
                let quarantine = persist::quarantine_path(&path);
                eprintln!(
                    "signature: store entry {} failed verification; quarantined to {}",
                    path.display(),
                    quarantine.display()
                );
                let _ = membw_runner::faultio::rename(&path, &quarantine);
                None
            }
        }
    }

    fn decode(text: &str, name: &str, variant: &str) -> Option<TraceSignature> {
        let body = persist::unseal(text)?;
        let v: Value = serde_json::from_str(body).ok()?;
        let sig = TraceSignature::from_value(&v).ok()?;
        if sig.version != SIGNATURE_VERSION || sig.name != name || sig.variant != variant {
            return None;
        }
        Some(sig)
    }

    /// Durably persist `sig` (tmp→fsync→rename, FNV-sealed),
    /// overwriting any previous entry.
    ///
    /// # Errors
    ///
    /// The failed filesystem step, its path, and the OS error.
    pub fn save(&self, sig: &TraceSignature) -> Result<(), persist::PersistError> {
        let json = serde_json::to_string(&sig.to_value()).expect("value tree serializes");
        let sealed = persist::seal(&json);
        persist::write_atomic(&self.path_for(&sig.name, &sig.variant), sealed.as_bytes())
    }
}

/// One key's signature, filled once by whichever caller gets there first.
type SignatureSlot = Arc<OnceLock<Arc<TraceSignature>>>;

/// Process-wide signature cache: memory → sealed store → compute, with
/// each signature computed at most once per process.
pub struct SignatureCache {
    /// One slot per key. The map lock is held only to find or insert a
    /// slot; loading or computing runs inside the slot's `OnceLock`, so
    /// same-key callers share one compute while other keys proceed.
    entries: Mutex<HashMap<(String, String), SignatureSlot>>,
    store: Option<SignatureStore>,
}

impl SignatureCache {
    /// A cache backed by `store` (`None` = memory only; used by tests
    /// and as the fallback when the store directory cannot be created).
    pub fn with_store(store: Option<SignatureStore>) -> Self {
        SignatureCache {
            entries: Mutex::new(HashMap::new()),
            store,
        }
    }

    /// The shared process-wide cache, backed by `$MEMBW_SIG_DIR`
    /// (default `results/.signatures`).
    pub fn global() -> &'static SignatureCache {
        static GLOBAL: OnceLock<SignatureCache> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let dir = std::env::var(SIG_DIR_ENV)
                .map(PathBuf::from)
                .unwrap_or_else(|_| PathBuf::from("results/.signatures"));
            let store = match SignatureStore::open(&dir) {
                Ok(s) => Some(s),
                Err(e) => {
                    eprintln!(
                        "signature: cannot open store at {} ({e}); caching in memory only",
                        dir.display()
                    );
                    None
                }
            };
            SignatureCache::with_store(store)
        })
    }

    /// The signature for `(name, variant)`: from memory, else the
    /// sealed store, else computed from `workload` (and persisted).
    ///
    /// Concurrent callers of one key wait for a single load or
    /// compute; a compute never blocks callers of other keys. A
    /// compute that panics leaves the slot empty for the next caller.
    pub fn get_or_compute(
        &self,
        name: &str,
        variant: &str,
        workload: &dyn Workload,
    ) -> Arc<TraceSignature> {
        let slot = {
            let mut entries = self
                .entries
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            Arc::clone(
                entries
                    .entry((name.to_string(), variant.to_string()))
                    .or_default(),
            )
        };
        Arc::clone(slot.get_or_init(|| {
            if let Some(sig) = self.store.as_ref().and_then(|s| s.load(name, variant)) {
                return Arc::new(sig);
            }
            let sig = compute_signature(name, variant, workload);
            if let Some(store) = &self.store {
                if let Err(e) = store.save(&sig) {
                    eprintln!("signature: persisting {name}/{variant} failed: {e:?}");
                }
            }
            Arc::new(sig)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Strided;
    use crate::record::MemRef;
    use crate::reuse::ReuseProfile;
    use crate::VecWorkload;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("membw_sig_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn toy_workload() -> VecWorkload {
        VecWorkload::new(
            "toy",
            vec![
                MemRef::read(0, 4),
                MemRef::write(32, 4),
                MemRef::read(0, 4),
                MemRef::read(64, 4),
                MemRef::write(32, 4),
            ],
        )
    }

    #[test]
    fn signature_counts_mix_and_refs() {
        let sig = compute_signature("toy", "Test", &toy_workload());
        assert_eq!(sig.kernel.uops, 5);
        assert_eq!(sig.kernel.mem_refs, 5);
        assert_eq!(sig.kernel.stores, 2);
        assert_eq!(sig.kernel.request_bytes, 20);
        let br = sig.kernel.reuse_at(32).unwrap();
        assert_eq!(br.accesses, 5);
        assert_eq!(br.cold, 3);
        assert_eq!(br.dirty_blocks, 1);
        assert_eq!(sig.kernel.reuse.len(), SIGNATURE_BLOCK_SIZES.len());
    }

    #[test]
    fn bucketed_misses_agree_with_exact_profile_at_powers_of_two() {
        let w = Strided::reads(0, 4, 4096).repeat(3);
        let sig = compute_signature("strided", "Test", &w);
        for &block in &SIGNATURE_BLOCK_SIZES {
            let profile = ReuseProfile::measure(&w, block);
            let br = sig.kernel.reuse_at(block).unwrap();
            for m in 0..=20u32 {
                let cap = 1u64 << m;
                assert_eq!(
                    br.lru_misses(cap),
                    profile.lru_misses(cap),
                    "block {block} capacity {cap}"
                );
            }
        }
    }

    #[test]
    fn signature_is_deterministic() {
        let w = toy_workload();
        assert_eq!(
            compute_signature("toy", "Test", &w),
            compute_signature("toy", "Test", &w)
        );
    }

    #[test]
    fn store_round_trips_and_rejects_identity_mismatch() {
        let dir = tmpdir("rt");
        let store = SignatureStore::open(&dir).unwrap();
        let sig = compute_signature("toy", "Test", &toy_workload());
        assert!(store.load("toy", "Test").is_none());
        store.save(&sig).unwrap();
        assert_eq!(store.load("toy", "Test").as_ref(), Some(&sig));
        // A sealed entry for a different key must never be served.
        std::fs::rename(
            store.path_for("toy", "Test"),
            store.path_for("other", "Test"),
        )
        .unwrap();
        assert!(store.load("other", "Test").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_store_entries_are_quarantined_and_recomputed() {
        let dir = tmpdir("corrupt");
        let store = SignatureStore::open(&dir).unwrap();
        let sig = compute_signature("toy", "Test", &toy_workload());
        store.save(&sig).unwrap();
        let path = store.path_for("toy", "Test");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load("toy", "Test").is_none(), "corrupt entry misses");
        assert!(!path.exists(), "entry was quarantined away");
        // The cache recomputes an identical signature and re-persists.
        let cache = SignatureCache::with_store(Some(SignatureStore::open(&dir).unwrap()));
        let recomputed = cache.get_or_compute("toy", "Test", &toy_workload());
        assert_eq!(*recomputed, sig);
        assert_eq!(store.load("toy", "Test").as_ref(), Some(&sig));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_computes_once_and_reloads_across_instances() {
        let dir = tmpdir("cache");
        let cache = SignatureCache::with_store(Some(SignatureStore::open(&dir).unwrap()));
        let a = cache.get_or_compute("toy", "Test", &toy_workload());
        let b = cache.get_or_compute("toy", "Test", &toy_workload());
        assert!(Arc::ptr_eq(&a, &b), "second hit comes from memory");
        // A fresh cache (process restart) loads from the sealed store.
        let fresh = SignatureCache::with_store(Some(SignatureStore::open(&dir).unwrap()));
        let c = fresh.get_or_compute("toy", "Test", &toy_workload());
        assert_eq!(*c, *a);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
