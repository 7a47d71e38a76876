//! Wide-set caches (more than 16 ways) find lines through a block index
//! and take LRU/FIFO victims from an intrusive order list. These tests
//! hold them to a plain linear-scan reference model written here: every
//! `CacheStats` counter after every access, and the exact sequence of
//! transfers below the cache, must match under every replacement
//! policy, write policy, allocation policy, tagged prefetch and flush,
//! for 32-way multi-set caches and fully-associative caches of up to
//! 2048 ways — and for a `VictimCache` over a wide main cache.

use membw::cache::replacement::PlruBits;
use membw::cache::{
    Associativity, BelowKind, BelowRequest, Cache, CacheConfig, CacheStats, ReplacementPolicy,
    VictimCache, WriteAllocate, WritePolicy,
};
use membw::trace::{AccessKind, MemRef};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy, Default)]
struct RefLine {
    valid: bool,
    block: u64,
    valid_mask: u64,
    dirty_mask: u64,
    referenced: bool,
    last_touch: u64,
    filled_at: u64,
}

/// The reference: every lookup and victim choice scans the set, and all
/// geometry is plain division.
struct RefCache {
    cfg: CacheConfig,
    sets: u64,
    ways: usize,
    lines: Vec<RefLine>,
    plru: Vec<PlruBits>,
    rng: SmallRng,
    clock: u64,
    stats: CacheStats,
    full_mask: u64,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        let seed = match cfg.replacement() {
            ReplacementPolicy::Random(seed) => seed,
            _ => 0,
        };
        let wpb = cfg.words_per_block();
        Self {
            cfg,
            sets: cfg.num_sets(),
            ways: cfg.ways() as usize,
            lines: vec![RefLine::default(); cfg.num_blocks() as usize],
            plru: vec![PlruBits::default(); cfg.num_sets() as usize],
            rng: SmallRng::seed_from_u64(seed),
            clock: 0,
            stats: CacheStats::default(),
            full_mask: if wpb >= 64 { u64::MAX } else { (1 << wpb) - 1 },
        }
    }

    fn block(&self) -> u64 {
        self.cfg.block_size()
    }

    fn base(&self, block: u64) -> usize {
        (block % self.sets) as usize * self.ways
    }

    fn tree_plru(&self) -> bool {
        self.cfg.replacement() == ReplacementPolicy::Plru && PlruBits::covers(self.ways)
    }

    fn find(&self, block: u64) -> Option<usize> {
        let base = self.base(block);
        (base..base + self.ways).find(|&i| self.lines[i].valid && self.lines[i].block == block)
    }

    fn touch(&mut self, idx: usize) {
        self.clock += 1;
        self.lines[idx].last_touch = self.clock;
        if self.tree_plru() {
            self.plru[idx / self.ways].touch(idx % self.ways, self.ways);
        }
    }

    fn victim(&mut self, block: u64) -> usize {
        let base = self.base(block);
        let set = &self.lines[base..base + self.ways];
        if let Some(w) = set.iter().position(|l| !l.valid) {
            return base + w;
        }
        let oldest = |age: fn(&RefLine) -> u64| {
            (0..set.len())
                .min_by_key(|&w| age(&set[w]))
                .expect("non-empty set")
        };
        let way = match self.cfg.replacement() {
            ReplacementPolicy::Fifo => oldest(|l| l.filled_at),
            ReplacementPolicy::Random(_) => self.rng.gen_range(0..self.ways),
            ReplacementPolicy::Plru if self.tree_plru() => {
                self.plru[base / self.ways].victim(self.ways)
            }
            ReplacementPolicy::Lru | ReplacementPolicy::Plru => oldest(|l| l.last_touch),
        };
        base + way
    }

    fn evict(&mut self, idx: usize, out: &mut Vec<BelowRequest>, flush: bool) {
        let line = self.lines[idx];
        if !line.valid {
            return;
        }
        let dirty = line.dirty_mask & line.valid_mask;
        if dirty != 0 {
            let bytes = if self.cfg.write_allocate() == WriteAllocate::Validate {
                u64::from(dirty.count_ones()) * 4
            } else {
                self.block()
            };
            out.push(BelowRequest {
                addr: line.block * self.block(),
                bytes,
                kind: BelowKind::Writeback,
            });
            if flush {
                self.stats.bytes_flushed += bytes;
            } else {
                self.stats.bytes_written_back += bytes;
            }
        }
        self.lines[idx] = RefLine::default();
    }

    fn fill(&mut self, idx: usize, block: u64, referenced: bool) {
        self.clock += 1;
        self.lines[idx] = RefLine {
            valid: true,
            block,
            referenced,
            last_touch: self.clock,
            filled_at: self.clock,
            ..RefLine::default()
        };
        if self.tree_plru() {
            self.plru[idx / self.ways].touch(idx % self.ways, self.ways);
        }
    }

    fn word_mask(&self, r: MemRef) -> u64 {
        let off = r.addr % self.block();
        let first = off / 4;
        let count = (off + u64::from(r.size).max(1) - 1) / 4 - first + 1;
        (if count >= 64 {
            u64::MAX
        } else {
            (1 << count) - 1
        }) << first
    }

    fn prefetch_next(&mut self, block: u64, out: &mut Vec<BelowRequest>) {
        let next = block + 1;
        if self.find(next).is_some() {
            return;
        }
        let idx = self.victim(next);
        self.evict(idx, out, false);
        self.fill(idx, next, false);
        self.lines[idx].valid_mask = self.full_mask;
        out.push(BelowRequest {
            addr: next * self.block(),
            bytes: self.block(),
            kind: BelowKind::PrefetchFetch,
        });
        self.stats.bytes_prefetched += self.block();
        self.stats.prefetch_fills += 1;
    }

    /// One access; returns `(hit, transfers below)`.
    fn access(&mut self, r: MemRef) -> (bool, Vec<BelowRequest>) {
        let mut out = Vec::new();
        let mut hit = true;
        let end = r.addr + u64::from(r.size);
        let mut addr = r.addr;
        while addr < end {
            let block_end = (addr / self.block() + 1) * self.block();
            let size = (block_end.min(end) - addr) as u16;
            hit &= self.access_piece(
                MemRef {
                    addr,
                    size,
                    kind: r.kind,
                },
                &mut out,
            );
            addr += u64::from(size);
        }
        (hit, out)
    }

    fn access_piece(&mut self, r: MemRef, out: &mut Vec<BelowRequest>) -> bool {
        self.stats.accesses += 1;
        self.stats.request_bytes += u64::from(r.size);
        let block = r.addr / self.block();
        let need = self.word_mask(r);
        let size = u64::from(r.size);
        let write_through = |out: &mut Vec<BelowRequest>, stats: &mut CacheStats| {
            out.push(BelowRequest {
                addr: r.addr,
                bytes: size,
                kind: BelowKind::WriteThrough,
            });
            stats.bytes_written_through += size;
        };
        if r.kind == AccessKind::Read {
            self.stats.reads += 1;
            if let Some(idx) = self.find(block) {
                if self.lines[idx].valid_mask & need == need {
                    self.stats.read_hits += 1;
                    self.touch(idx);
                    let first_use = !self.lines[idx].referenced;
                    self.lines[idx].referenced = true;
                    if self.cfg.tagged_prefetch() && first_use {
                        self.prefetch_next(block, out);
                    }
                    return true;
                }
                self.stats.read_misses += 1;
                let bytes =
                    u64::from((self.full_mask & !self.lines[idx].valid_mask).count_ones()) * 4;
                out.push(BelowRequest {
                    addr: block * self.block(),
                    bytes,
                    kind: BelowKind::Fetch,
                });
                self.stats.bytes_fetched += bytes;
                self.lines[idx].valid_mask = self.full_mask;
                self.lines[idx].referenced = true;
                self.touch(idx);
            } else {
                self.stats.read_misses += 1;
                self.allocate(block, out);
                let idx = self.find(block).expect("just filled");
                self.lines[idx].valid_mask = self.full_mask;
            }
            if self.cfg.tagged_prefetch() {
                self.prefetch_next(block, out);
            }
            return false;
        }
        self.stats.writes += 1;
        if let Some(idx) = self.find(block) {
            self.stats.write_hits += 1;
            self.lines[idx].valid_mask |= need;
            self.lines[idx].referenced = true;
            match self.cfg.write_policy() {
                WritePolicy::WriteBack => self.lines[idx].dirty_mask |= need,
                WritePolicy::WriteThrough => write_through(out, &mut self.stats),
            }
            self.touch(idx);
            return true;
        }
        self.stats.write_misses += 1;
        match self.cfg.write_allocate() {
            WriteAllocate::NoAllocate => write_through(out, &mut self.stats),
            WriteAllocate::Allocate => {
                self.allocate(block, out);
                let idx = self.find(block).expect("just filled");
                self.lines[idx].valid_mask = self.full_mask;
                match self.cfg.write_policy() {
                    WritePolicy::WriteBack => self.lines[idx].dirty_mask |= need,
                    WritePolicy::WriteThrough => write_through(out, &mut self.stats),
                }
            }
            WriteAllocate::Validate => {
                let idx = self.victim(block);
                self.evict(idx, out, false);
                self.fill(idx, block, true);
                self.lines[idx].valid_mask = need;
                self.lines[idx].dirty_mask = need;
            }
        }
        false
    }

    /// Demand miss with fetch: evict, fill, fetch the whole block.
    fn allocate(&mut self, block: u64, out: &mut Vec<BelowRequest>) {
        let idx = self.victim(block);
        self.evict(idx, out, false);
        self.fill(idx, block, true);
        out.push(BelowRequest {
            addr: block * self.block(),
            bytes: self.block(),
            kind: BelowKind::Fetch,
        });
        self.stats.bytes_fetched += self.block();
    }

    fn flush(&mut self) -> (Vec<BelowRequest>, CacheStats) {
        let mut out = Vec::new();
        for idx in 0..self.lines.len() {
            self.evict(idx, &mut out, true);
        }
        (out, self.stats)
    }
}

/// A `VictimCache` built on the reference cache, following the same
/// promotion and FIFO-buffer rules.
struct RefVictim {
    main: RefCache,
    buffer: VecDeque<(u64, u64)>,
    capacity: usize,
    stats: CacheStats,
    victim_hits: u64,
}

impl RefVictim {
    fn swap_in(&mut self, block: u64, dirty: u64) {
        let m = &mut self.main;
        let idx = m.victim(block);
        let old = m.lines[idx];
        m.lines[idx] = RefLine::default();
        m.fill(idx, block, true);
        m.lines[idx].valid_mask = m.full_mask;
        m.lines[idx].dirty_mask = dirty;
        if old.valid {
            self.buffer
                .push_back((old.block, old.dirty_mask & old.valid_mask));
            if self.buffer.len() > self.capacity {
                let (_, d) = self.buffer.pop_front().expect("non-empty");
                if d != 0 {
                    self.stats.bytes_written_back += m.block();
                }
            }
        }
    }

    fn access(&mut self, r: MemRef) -> bool {
        let is_read = r.kind == AccessKind::Read;
        self.stats.accesses += 1;
        self.stats.request_bytes += u64::from(r.size);
        if is_read {
            self.stats.reads += 1;
        } else {
            self.stats.writes += 1;
        }
        let block = r.addr / self.main.block();
        let need = self.main.word_mask(r);
        if let Some(idx) = self.main.find(block) {
            let line = &mut self.main.lines[idx];
            if !is_read || line.valid_mask & need == need {
                if !is_read {
                    line.valid_mask |= need;
                    line.dirty_mask |= need;
                }
                line.referenced = true;
                self.main.touch(idx);
                if is_read {
                    self.stats.read_hits += 1;
                } else {
                    self.stats.write_hits += 1;
                }
                return true;
            }
        }
        let write_dirty = if is_read { 0 } else { need };
        if let Some(pos) = self.buffer.iter().position(|&(b, _)| b == block) {
            let (_, dirty) = self.buffer.remove(pos).expect("position valid");
            self.victim_hits += 1;
            if is_read {
                self.stats.read_hits += 1;
            } else {
                self.stats.write_hits += 1;
            }
            self.swap_in(block, dirty | write_dirty);
            return true;
        }
        if is_read {
            self.stats.read_misses += 1;
        } else {
            self.stats.write_misses += 1;
        }
        self.stats.bytes_fetched += self.main.block();
        self.swap_in(block, write_dirty);
        false
    }

    fn flush(&mut self) -> CacheStats {
        let dirty_lines = self
            .main
            .lines
            .iter()
            .filter(|l| l.valid && l.dirty_mask & l.valid_mask != 0)
            .count() as u64;
        let dirty_buffered = self.buffer.iter().filter(|&&(_, d)| d != 0).count() as u64;
        self.stats.bytes_flushed += (dirty_lines + dirty_buffered) * self.main.block();
        self.stats
    }
}

/// A deterministic stream over `span` blocks of `block` bytes: a hot
/// half that reuses, a sequential walk that feeds the prefetcher, and
/// uniform cold references. `straddle` allows references that cross a
/// block boundary.
fn stream(seed: u64, n: usize, span: u64, block: u64, straddle: bool) -> Vec<MemRef> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut walk = 0u64;
    (0..n)
        .map(|_| {
            let b = match rng.gen_range(0..10u32) {
                0..=4 => rng.gen_range(0..span / 2 + 1),
                5..=7 => {
                    walk = (walk + 1) % span;
                    walk
                }
                _ => rng.gen_range(0..span),
            };
            let size = [1u16, 2, 4, 8][rng.gen_range(0..4usize)];
            let off = if straddle {
                rng.gen_range(0..block)
            } else {
                rng.gen_range(0..block / u64::from(size)) * u64::from(size)
            };
            let addr = b * block + off;
            if rng.gen_range(0..10u32) < 3 {
                MemRef::write(addr, size)
            } else {
                MemRef::read(addr, size)
            }
        })
        .collect()
}

const POLICIES: [ReplacementPolicy; 4] = [
    ReplacementPolicy::Lru,
    ReplacementPolicy::Fifo,
    ReplacementPolicy::Random(0x5EED),
    ReplacementPolicy::Plru,
];

/// The five legal (write policy, allocation) pairs.
const WRITES: [(WritePolicy, WriteAllocate); 5] = [
    (WritePolicy::WriteBack, WriteAllocate::Allocate),
    (WritePolicy::WriteBack, WriteAllocate::NoAllocate),
    (WritePolicy::WriteBack, WriteAllocate::Validate),
    (WritePolicy::WriteThrough, WriteAllocate::Allocate),
    (WritePolicy::WriteThrough, WriteAllocate::NoAllocate),
];

fn config(
    size: u64,
    block: u64,
    assoc: Associativity,
    policy: ReplacementPolicy,
    (wp, wa): (WritePolicy, WriteAllocate),
    prefetch: bool,
) -> CacheConfig {
    CacheConfig::builder(size, block)
        .associativity(assoc)
        .replacement(policy)
        .write_policy(wp)
        .write_allocate(wa)
        .tagged_prefetch(prefetch)
        .build()
        .expect("valid geometry")
}

/// Replay `refs` through both caches, flushing after `flush_at`
/// references and again at the end; every outcome must agree.
fn assert_same(cfg: CacheConfig, refs: &[MemRef], flush_at: usize) {
    let mut got = Cache::new(cfg);
    let mut want = RefCache::new(cfg);
    for (i, &r) in refs.iter().enumerate() {
        if i == flush_at {
            let (g, w) = (got.flush_collect(), want.flush());
            assert_eq!(g, w, "mid-run flush diverges ({cfg:?})");
        }
        let o = got.access(r);
        let (hit, below) = want.access(r);
        assert_eq!(
            (o.hit, o.below()),
            (hit, below.as_slice()),
            "ref {i} {r:?} diverges ({cfg:?})"
        );
        assert_eq!(*got.stats(), want.stats, "stats after ref {i} ({cfg:?})");
    }
    for r in refs.iter().step_by(7) {
        assert_eq!(
            got.is_resident(r.addr),
            want.find(r.addr / cfg.block_size()).is_some()
        );
    }
    assert_eq!(got.flush_collect(), want.flush(), "final flush ({cfg:?})");
}

/// `(size, block, associativity)` for selector `g` and scale `k`.
fn geometry(g: u32, k: u32) -> (u64, u64, Associativity) {
    let block = [16u64, 32, 64][k as usize % 3];
    if g == 0 {
        // 32 ways over 2, 4 or 8 sets.
        let sets = 2u64 << (k % 3);
        (32 * sets * block, block, Associativity::Ways(32))
    } else {
        // Fully associative, 32 to 2048 ways.
        let ways = [32u64, 64, 128, 256, 2048][k as usize % 5];
        (ways * 32, 32, Associativity::Full)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random geometry, policy, write pair and prefetch against the
    /// reference, with a flush somewhere mid-stream.
    #[test]
    fn wide_sets_match_the_linear_scan_reference(
        (g, k) in (0u32..2, 0u32..15),
        (p, w, pf) in (0usize..4, 0usize..5, prop::bool::ANY),
        seed in 0u64..u64::MAX,
        flush_pct in 10u64..90,
    ) {
        let (size, block, assoc) = geometry(g, k);
        let cfg = config(size, block, assoc, POLICIES[p], WRITES[w], pf);
        let blocks = cfg.num_blocks();
        let n = (3 * blocks as usize).max(1500);
        let refs = stream(seed, n, blocks + blocks / 2, block, true);
        assert_same(cfg, &refs, n * flush_pct as usize / 100);
    }

    /// A victim buffer over a wide main cache: promotion and demotion
    /// go through the index and order list on every miss.
    #[test]
    fn victim_cache_over_a_wide_main_cache_matches(
        (g, k) in (0u32..2, 0u32..15),
        p in 0usize..4,
        victim_blocks in 1usize..9,
        seed in 0u64..u64::MAX,
    ) {
        let (size, block, assoc) = geometry(g, k);
        let cfg = config(size, block, assoc, POLICIES[p], WRITES[0], false);
        let blocks = cfg.num_blocks();
        let mut rng = SmallRng::seed_from_u64(seed);
        // Mostly a cycle over one block more than the cache holds, so a
        // miss usually wants the block evicted one miss ago.
        let cycle = blocks + 1;
        let mut next = 0;
        let refs: Vec<MemRef> = (0..(4 * blocks).max(1500))
            .map(|_| {
                let b = if rng.gen_range(0..10u32) == 0 {
                    rng.gen_range(0..cycle)
                } else {
                    next = (next + 1) % cycle;
                    next
                };
                let addr = b * block + rng.gen_range(0..block / 4) * 4;
                if rng.gen_range(0..10u32) < 3 {
                    MemRef::write(addr, 4)
                } else {
                    MemRef::read(addr, 4)
                }
            })
            .collect();
        let mut got = VictimCache::new(cfg, victim_blocks);
        let mut want = RefVictim {
            main: RefCache::new(cfg),
            buffer: VecDeque::new(),
            capacity: victim_blocks,
            stats: CacheStats::default(),
            victim_hits: 0,
        };
        for (i, &r) in refs.iter().enumerate() {
            prop_assert_eq!(got.access(r), want.access(r), "ref {} ({:?})", i, cfg);
            prop_assert_eq!(*got.stats(), want.stats, "stats after ref {}", i);
        }
        prop_assert_eq!(got.victim_hits(), want.victim_hits);
        prop_assert!(want.victim_hits > 0, "stream never hit the victim buffer");
        prop_assert_eq!(got.flush(), want.flush());
    }
}

/// Every policy × write pair × prefetch setting on one 32-way
/// multi-set and one 256-way cache, so no combination is left to
/// chance; then Table 9's 2048-way LRU cell under every policy.
#[test]
fn every_policy_and_write_combination_matches() {
    for (size, block, assoc) in [
        (32 * 4 * 32, 32, Associativity::Ways(32)),
        (256 * 32, 32, Associativity::Full),
    ] {
        for policy in POLICIES {
            for writes in WRITES {
                for prefetch in [false, true] {
                    let cfg = config(size, block, assoc, policy, writes, prefetch);
                    let blocks = cfg.num_blocks();
                    let refs = stream(blocks, 3 * blocks as usize, 2 * blocks, block, true);
                    assert_same(cfg, &refs, refs.len() / 2);
                }
            }
        }
    }
    for policy in POLICIES {
        let cfg = config(64 * 1024, 32, Associativity::Full, policy, WRITES[0], false);
        let refs = stream(9, 8000, 3000, 32, true);
        assert_same(cfg, &refs, 5000);
    }
}
