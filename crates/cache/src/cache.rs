//! Single-level functional cache with traffic accounting.

use crate::config::{BlockSplit, CacheConfig, ReplacementPolicy, WriteAllocate, WritePolicy};
use crate::replacement::{LineAge, PlruBits, VictimPicker};
use crate::stats::CacheStats;
use membw_trace::{AccessKind, FastHashMap, MemRef};

/// What a below-cache transfer is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BelowKind {
    /// Block (or partial-block) fetch caused by a demand miss.
    Fetch,
    /// Block fetch caused by the prefetcher.
    PrefetchFetch,
    /// Dirty data written back on eviction or flush.
    Writeback,
    /// A write propagated through (write-through or no-allocate miss).
    WriteThrough,
}

/// A transfer emitted below the cache (toward memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BelowRequest {
    /// Starting byte address of the transfer.
    pub addr: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Transfer kind.
    pub kind: BelowKind,
}

impl BelowRequest {
    /// `true` if the transfer moves data *up* (fetch), `false` if down.
    pub fn is_fetch(&self) -> bool {
        matches!(self.kind, BelowKind::Fetch | BelowKind::PrefetchFetch)
    }

    const EMPTY: BelowRequest = BelowRequest {
        addr: 0,
        bytes: 0,
        kind: BelowKind::Fetch,
    };
}

/// Inline capacity of [`AccessOutcome`].
///
/// The worst case is statically bounded: a reference straddles at most
/// two blocks (accesses are ≤ 8 bytes, blocks ≥ 16), and each piece
/// emits at most four transfers — a read miss with tagged prefetch
/// produces eviction write-back + demand fetch + prefetch-eviction
/// write-back + prefetch fetch (a write-through allocating miss produces
/// at most three: write-back + fetch + write-through).
pub const MAX_BELOW: usize = 8;

/// Outcome of a single access: hit/miss plus the transfers it generated.
///
/// The transfer list lives inline (no heap allocation on the access
/// path); overflowing [`MAX_BELOW`] is a bug and asserts.
#[derive(Debug, Clone, Copy)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    below: [BelowRequest; MAX_BELOW],
    len: u8,
}

impl Default for AccessOutcome {
    fn default() -> Self {
        Self {
            hit: false,
            below: [BelowRequest::EMPTY; MAX_BELOW],
            len: 0,
        }
    }
}

impl AccessOutcome {
    /// Transfers emitted below the cache by this access, in issue order.
    pub fn below(&self) -> &[BelowRequest] {
        &self.below[..usize::from(self.len)]
    }

    /// Total bytes moved below by this access.
    pub fn bytes_below(&self) -> u64 {
        self.below().iter().map(|b| b.bytes).sum()
    }
}

/// Sink for the transfers an access (or flush) pushes below the cache.
///
/// Lets the eviction/prefetch helpers serve both the allocation-free
/// access path ([`AccessOutcome`]'s inline buffer) and the cold flush
/// path (a plain `Vec`).
pub(crate) trait PushBelow {
    fn push_below(&mut self, req: BelowRequest);
}

impl PushBelow for Vec<BelowRequest> {
    fn push_below(&mut self, req: BelowRequest) {
        self.push(req);
    }
}

impl PushBelow for AccessOutcome {
    fn push_below(&mut self, req: BelowRequest) {
        debug_assert!(
            usize::from(self.len) < MAX_BELOW,
            "one access cannot emit more than MAX_BELOW transfers"
        );
        // The index panics (release builds included) on overflow rather
        // than silently dropping traffic.
        self.below[usize::from(self.len)] = req;
        self.len += 1;
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    tag: u64,
    /// Bit per 4-byte word: word holds up-to-date data.
    valid_mask: u64,
    /// Bit per 4-byte word: word is dirty.
    dirty_mask: u64,
    /// Tagged-prefetch bit: set once the line is demand-referenced.
    referenced: bool,
    last_touch: u64,
    filled_at: u64,
}

impl LineAge for Line {
    fn last_touch(&self) -> u64 {
        self.last_touch
    }

    fn filled_at(&self) -> u64 {
        self.filled_at
    }
}

/// Sets up to this many ways find lines and victims by a linear scan;
/// wider sets use [`WideSets`].
const SCAN_WAYS: usize = 16;

/// "No line" in an [`OrderList`].
const NIL: u32 = u32::MAX;

/// Intrusive per-set line lists, newest first: recency order under LRU
/// (a touch moves its line to the front), fill order under FIFO.
#[derive(Debug)]
struct OrderList {
    /// Per line: the next-newer and next-older line of its set.
    prev: Vec<u32>,
    next: Vec<u32>,
    /// Per set: the newest (MRU) and oldest (LRU) line.
    head: Vec<u32>,
    tail: Vec<u32>,
    move_on_touch: bool,
}

impl OrderList {
    fn new(lines: usize, sets: usize, move_on_touch: bool) -> Self {
        Self {
            prev: vec![NIL; lines],
            next: vec![NIL; lines],
            head: vec![NIL; sets],
            tail: vec![NIL; sets],
            move_on_touch,
        }
    }

    fn push_front(&mut self, set: usize, i: u32) {
        let h = self.head[set];
        self.prev[i as usize] = NIL;
        self.next[i as usize] = h;
        if h == NIL {
            self.tail[set] = i;
        } else {
            self.prev[h as usize] = i;
        }
        self.head[set] = i;
    }

    fn unlink(&mut self, set: usize, i: u32) {
        let (p, n) = (self.prev[i as usize], self.next[i as usize]);
        if p == NIL {
            self.head[set] = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NIL {
            self.tail[set] = p;
        } else {
            self.prev[n as usize] = p;
        }
    }
}

/// O(1) lookup and victim state for sets wider than [`SCAN_WAYS`].
///
/// Every change of a line's validity goes through [`Cache::fill`] and
/// [`Cache::invalidate`], which keep this in step with `lines`.
#[derive(Debug)]
struct WideSets {
    /// Block number → line index of every valid line.
    index: FastHashMap<u64, u32>,
    /// Valid lines per set. A set fills its ways in order and empties
    /// only as a whole (flush, drain), so its valid lines are ways
    /// `0..valid[set]` and the first invalid way is `valid[set]`.
    valid: Vec<u32>,
    /// Eviction order for LRU (and PLRU's LRU fallback) and FIFO;
    /// `None` for policies that pick by way number.
    order: Option<OrderList>,
}

impl WideSets {
    fn new(lines: usize, sets: usize, policy: ReplacementPolicy, ways: usize) -> Self {
        assert!(
            lines < NIL as usize,
            "{lines} lines overflow u32 line indices"
        );
        let mut index = FastHashMap::default();
        // Room for twice the lines keeps the table at most half full, so
        // clearing removal tombstones rehashes in place and never grows:
        // no allocation after construction.
        index.reserve(2 * lines);
        let move_on_touch = match policy {
            ReplacementPolicy::Lru => Some(true),
            ReplacementPolicy::Plru if !PlruBits::covers(ways) => Some(true),
            ReplacementPolicy::Fifo => Some(false),
            ReplacementPolicy::Plru | ReplacementPolicy::Random(_) => None,
        };
        Self {
            index,
            valid: vec![0; sets],
            order: move_on_touch.map(|m| OrderList::new(lines, sets, m)),
        }
    }

    fn insert(&mut self, set: usize, idx: usize, block: u64) {
        self.index.insert(block, idx as u32);
        self.valid[set] += 1;
        if let Some(o) = &mut self.order {
            o.push_front(set, idx as u32);
        }
    }

    fn remove(&mut self, set: usize, idx: usize, block: u64) {
        self.index.remove(&block);
        self.valid[set] -= 1;
        if let Some(o) = &mut self.order {
            o.unlink(set, idx as u32);
        }
    }

    fn touch(&mut self, set: usize, idx: usize) {
        if let Some(o) = &mut self.order {
            if o.move_on_touch && o.head[set] != idx as u32 {
                o.unlink(set, idx as u32);
                o.push_front(set, idx as u32);
            }
        }
    }

    /// The first invalid way of `set`, if any.
    fn first_invalid(&self, set: usize, ways: usize) -> Option<usize> {
        let n = self.valid[set] as usize;
        (n < ways).then_some(n)
    }

    /// The oldest line of `set`, if the policy keeps an order.
    fn oldest(&self, set: usize) -> Option<usize> {
        self.order.as_ref().map(|o| o.tail[set] as usize)
    }
}

/// A single-level, functional (untimed) cache.
///
/// See the [crate docs](crate) for the traffic-accounting rules. Accesses
/// that straddle block boundaries are split QPT-style into per-block
/// sub-accesses, each counted separately.
///
/// An access costs the same at any associativity: set and tag come from
/// shifts and masks fixed at construction, and sets wider than 16 ways
/// find lines through a block-number index and take LRU/FIFO victims
/// from an intrusive order list instead of scanning the set.
///
/// # Example
///
/// ```
/// use membw_cache::{Cache, CacheConfig};
/// use membw_trace::MemRef;
///
/// let mut c = Cache::new(CacheConfig::builder(256, 32).build()?);
/// assert!(!c.access(MemRef::read(0, 4)).hit);   // cold miss
/// assert!(c.access(MemRef::read(28, 4)).hit);   // same block
/// assert_eq!(c.stats().bytes_fetched, 32);
/// # Ok::<(), membw_cache::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    split: BlockSplit,
    /// `log2(num_sets)`: a block number's set is its low `set_bits`
    /// bits, its tag the rest.
    set_bits: u32,
    set_mask: u64,
    ways: usize,
    lines: Vec<Line>, // num_sets * ways, set-major
    plru: Vec<PlruBits>,
    /// Tree PLRU is the policy and one [`PlruBits`] covers a set.
    tree_plru: bool,
    picker: VictimPicker,
    wide: Option<WideSets>,
    clock: u64,
    stats: CacheStats,
    full_mask: u64,
}

impl Cache {
    /// Build an empty cache for `cfg`.
    pub fn new(cfg: CacheConfig) -> Self {
        let blocks = cfg.num_blocks() as usize;
        let sets = cfg.num_sets() as usize;
        let ways = cfg.ways() as usize;
        let wpb = cfg.words_per_block();
        let full_mask = if wpb >= 64 {
            u64::MAX
        } else {
            (1u64 << wpb) - 1
        };
        let policy = cfg.replacement();
        Self {
            cfg,
            split: BlockSplit::new(cfg.block_size()),
            set_bits: sets.trailing_zeros(),
            set_mask: sets as u64 - 1,
            ways,
            lines: vec![Line::default(); blocks],
            plru: vec![PlruBits::default(); sets],
            tree_plru: policy == ReplacementPolicy::Plru && PlruBits::covers(ways),
            picker: VictimPicker::new(policy),
            wide: (ways > SCAN_WAYS).then(|| WideSets::new(blocks, sets, policy, ways)),
            clock: 0,
            stats: CacheStats::default(),
            full_mask,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// `true` if the block containing `addr` is resident (any validity).
    pub fn is_resident(&self, addr: u64) -> bool {
        let (block, set, tag) = self.locate(addr);
        self.find(set, tag, block).is_some()
    }

    /// Block number, set and tag of `addr`.
    fn locate(&self, addr: u64) -> (u64, usize, u64) {
        let block = self.split.block_of(addr);
        (
            block,
            (block & self.set_mask) as usize,
            block >> self.set_bits,
        )
    }

    /// Block number of the block tagged `tag` in `set`.
    fn block_at(&self, set: usize, tag: u64) -> u64 {
        (tag << self.set_bits) | set as u64
    }

    /// Byte address of the block tagged `tag` in `set`.
    fn addr_of(&self, set: usize, tag: u64) -> u64 {
        self.split.addr_of(self.block_at(set, tag))
    }

    /// Line index of the resident block (`set`, `tag`), numbered `block`.
    fn find(&self, set: usize, tag: u64, block: u64) -> Option<usize> {
        match &self.wide {
            Some(w) => w.index.get(&block).map(|&i| i as usize),
            None => {
                let base = set * self.ways;
                self.lines[base..base + self.ways]
                    .iter()
                    .position(|l| l.valid && l.tag == tag)
                    .map(|way| base + way)
            }
        }
    }

    fn touch(&mut self, set: usize, idx: usize) {
        self.clock += 1;
        self.lines[idx].last_touch = self.clock;
        if self.tree_plru {
            self.plru[set].touch(idx - set * self.ways, self.ways);
        }
        if let Some(w) = &mut self.wide {
            w.touch(set, idx);
        }
    }

    /// Pick a victim line in `set`, preferring invalid lines.
    fn pick_victim(&mut self, set: usize) -> usize {
        let base = set * self.ways;
        let lines = &self.lines[base..base + self.ways];
        let (free, oldest) = match &self.wide {
            Some(w) => (w.first_invalid(set, self.ways), w.oldest(set)),
            None => (lines.iter().position(|l| !l.valid), None),
        };
        if let Some(way) = free {
            debug_assert!(!lines[way].valid, "first invalid way is valid");
            return base + way;
        }
        oldest.unwrap_or_else(|| base + self.picker.pick(lines, &self.plru[set]))
    }

    /// Evict line `idx` of `set` if valid, emitting a write-back when
    /// dirty.
    fn evict<O: PushBelow>(&mut self, set: usize, idx: usize, out: &mut O, flush: bool) {
        let line = self.lines[idx];
        if !line.valid {
            return;
        }
        let dirty = line.dirty_mask & line.valid_mask;
        if dirty != 0 {
            let addr = self.addr_of(set, line.tag);
            let bytes = match self.cfg.write_allocate() {
                // Word-granular memory writes under write-validate.
                WriteAllocate::Validate => u64::from(dirty.count_ones()) * 4,
                // Whole-block write-back otherwise.
                _ => self.cfg.block_size(),
            };
            out.push_below(BelowRequest {
                addr,
                bytes,
                kind: BelowKind::Writeback,
            });
            if flush {
                self.stats.bytes_flushed += bytes;
            } else {
                self.stats.bytes_written_back += bytes;
            }
        }
        self.invalidate(set, idx);
    }

    /// Empty valid line `idx` of `set` without counting traffic.
    fn invalidate(&mut self, set: usize, idx: usize) {
        let block = self.block_at(set, self.lines[idx].tag);
        if let Some(w) = &mut self.wide {
            w.remove(set, idx, block);
        }
        self.lines[idx] = Line::default();
    }

    /// Fill invalid line `idx` of `set` with `block` (tagged `tag`); the
    /// caller sets masks afterwards.
    fn fill(&mut self, set: usize, idx: usize, tag: u64, block: u64, referenced: bool) {
        debug_assert!(!self.lines[idx].valid, "fill over a valid line");
        self.clock += 1;
        let clock = self.clock;
        self.lines[idx] = Line {
            valid: true,
            tag,
            valid_mask: 0,
            dirty_mask: 0,
            referenced,
            last_touch: clock,
            filled_at: clock,
        };
        if self.tree_plru {
            self.plru[set].touch(idx - set * self.ways, self.ways);
        }
        if let Some(w) = &mut self.wide {
            w.insert(set, idx, block);
        }
    }

    /// Probe for a full-validity hit without any miss handling: touches
    /// the line and sets dirty bits on writes. Used by [`VictimCache`].
    ///
    /// [`VictimCache`]: crate::VictimCache
    pub(crate) fn probe_touch(&mut self, r: MemRef) -> bool {
        let (block, set, tag) = self.locate(r.addr);
        let need = self.word_mask(r);
        if let Some(idx) = self.find(set, tag, block) {
            if r.kind.is_write() {
                self.lines[idx].valid_mask |= need;
                self.lines[idx].dirty_mask |= need;
                self.lines[idx].referenced = true;
                self.touch(set, idx);
                return true;
            }
            if self.lines[idx].valid_mask & need == need {
                self.lines[idx].referenced = true;
                self.touch(set, idx);
                return true;
            }
        }
        false
    }

    /// Install a block with the given masks, returning the displaced
    /// line's `(block_addr, dirty_word_mask)` if one was evicted. No
    /// traffic is counted — the caller owns the accounting. Used by
    /// [`VictimCache`](crate::VictimCache).
    pub(crate) fn swap_in(
        &mut self,
        block_addr: u64,
        valid_mask: u64,
        dirty_mask: u64,
    ) -> Option<(u64, u64)> {
        let (block, set, tag) = self.locate(block_addr);
        debug_assert!(
            self.find(set, tag, block).is_none(),
            "block already resident"
        );
        let idx = self.pick_victim(set);
        let old = self.lines[idx];
        let displaced = old.valid.then(|| {
            self.invalidate(set, idx);
            (self.addr_of(set, old.tag), old.dirty_mask & old.valid_mask)
        });
        self.fill(set, idx, tag, block, true);
        self.lines[idx].valid_mask = valid_mask;
        self.lines[idx].dirty_mask = dirty_mask;
        displaced
    }

    /// Drain all resident lines as `(block_addr, dirty_word_mask)` pairs
    /// without counting traffic. Used by
    /// [`VictimCache`](crate::VictimCache) at flush time.
    pub(crate) fn drain_lines(&mut self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for idx in 0..self.lines.len() {
            let line = self.lines[idx];
            if line.valid {
                let set = idx / self.ways;
                out.push((
                    self.addr_of(set, line.tag),
                    line.dirty_mask & line.valid_mask,
                ));
                self.invalidate(set, idx);
            }
        }
        out
    }

    /// Word-mask (within a block) covered by `r`.
    pub(crate) fn word_mask(&self, r: MemRef) -> u64 {
        let off = self.split.offset(r.addr);
        let first = off >> 2;
        let last = (off + u64::from(r.size).max(1) - 1) >> 2;
        let count = last - first + 1;
        let ones = if count >= 64 {
            u64::MAX
        } else {
            (1u64 << count) - 1
        };
        ones << first
    }

    /// Issue a tagged prefetch of the block after `block_addr`.
    fn prefetch_next<O: PushBelow>(&mut self, block_addr: u64, out: &mut O) {
        let next = block_addr + self.cfg.block_size();
        let (block, set, tag) = self.locate(next);
        if self.find(set, tag, block).is_some() {
            return;
        }
        let idx = self.pick_victim(set);
        self.evict(set, idx, out, false);
        self.fill(set, idx, tag, block, false);
        self.lines[idx].valid_mask = self.full_mask;
        out.push_below(BelowRequest {
            addr: next,
            bytes: self.cfg.block_size(),
            kind: BelowKind::PrefetchFetch,
        });
        self.stats.bytes_prefetched += self.cfg.block_size();
        self.stats.prefetch_fills += 1;
    }

    /// Present one access; splits block-straddling references.
    ///
    /// Returns the combined outcome (`hit` is true only if *all* pieces
    /// hit).
    pub fn access(&mut self, r: MemRef) -> AccessOutcome {
        if self.split.fits(r) {
            return self.access_within_block(r);
        }
        let mut outcome = AccessOutcome {
            hit: true,
            ..AccessOutcome::default()
        };
        for piece in self.split.pieces(r) {
            let o = self.access_within_block(piece);
            outcome.hit &= o.hit;
            for &req in o.below() {
                outcome.push_below(req);
            }
        }
        outcome
    }

    fn access_within_block(&mut self, r: MemRef) -> AccessOutcome {
        debug_assert!(self.split.fits(r));
        self.stats.accesses += 1;
        self.stats.request_bytes += u64::from(r.size);
        match r.kind {
            AccessKind::Read => {
                self.stats.reads += 1;
                self.read(r)
            }
            AccessKind::Write => {
                self.stats.writes += 1;
                self.write(r)
            }
        }
    }

    fn read(&mut self, r: MemRef) -> AccessOutcome {
        let (block, set, tag) = self.locate(r.addr);
        let need = self.word_mask(r);
        let block_addr = self.split.addr_of(block);
        let mut out = AccessOutcome::default();

        if let Some(idx) = self.find(set, tag, block) {
            if self.lines[idx].valid_mask & need == need {
                // Full hit.
                self.stats.read_hits += 1;
                self.touch(set, idx);
                let first_use = !self.lines[idx].referenced;
                self.lines[idx].referenced = true;
                if self.cfg.tagged_prefetch() && first_use {
                    self.prefetch_next(block_addr, &mut out);
                }
                out.hit = true;
                return out;
            }
            // Partial-validity miss (write-validate line): fetch the
            // missing words of the block.
            self.stats.read_misses += 1;
            let missing = self.full_mask & !self.lines[idx].valid_mask;
            let bytes = u64::from(missing.count_ones()) * 4;
            out.push_below(BelowRequest {
                addr: block_addr,
                bytes,
                kind: BelowKind::Fetch,
            });
            self.stats.bytes_fetched += bytes;
            self.lines[idx].valid_mask = self.full_mask;
            self.lines[idx].referenced = true;
            self.touch(set, idx);
            if self.cfg.tagged_prefetch() {
                self.prefetch_next(block_addr, &mut out);
            }
            return out;
        }

        // Full miss: evict, fetch, fill.
        self.stats.read_misses += 1;
        let idx = self.pick_victim(set);
        self.evict(set, idx, &mut out, false);
        self.fill(set, idx, tag, block, true);
        self.lines[idx].valid_mask = self.full_mask;
        out.push_below(BelowRequest {
            addr: block_addr,
            bytes: self.cfg.block_size(),
            kind: BelowKind::Fetch,
        });
        self.stats.bytes_fetched += self.cfg.block_size();
        if self.cfg.tagged_prefetch() {
            self.prefetch_next(block_addr, &mut out);
        }
        out
    }

    fn write(&mut self, r: MemRef) -> AccessOutcome {
        let (block, set, tag) = self.locate(r.addr);
        let need = self.word_mask(r);
        let block_addr = self.split.addr_of(block);
        let mut out = AccessOutcome::default();

        if let Some(idx) = self.find(set, tag, block) {
            // Write hit (line presence suffices; we overwrite words).
            self.stats.write_hits += 1;
            self.lines[idx].valid_mask |= need;
            self.lines[idx].referenced = true;
            match self.cfg.write_policy() {
                WritePolicy::WriteBack => {
                    self.lines[idx].dirty_mask |= need;
                }
                WritePolicy::WriteThrough => {
                    out.push_below(BelowRequest {
                        addr: r.addr,
                        bytes: u64::from(r.size),
                        kind: BelowKind::WriteThrough,
                    });
                    self.stats.bytes_written_through += u64::from(r.size);
                }
            }
            self.touch(set, idx);
            out.hit = true;
            return out;
        }

        // Write miss.
        self.stats.write_misses += 1;
        match self.cfg.write_allocate() {
            WriteAllocate::NoAllocate => {
                out.push_below(BelowRequest {
                    addr: r.addr,
                    bytes: u64::from(r.size),
                    kind: BelowKind::WriteThrough,
                });
                self.stats.bytes_written_through += u64::from(r.size);
            }
            WriteAllocate::Allocate => {
                let idx = self.pick_victim(set);
                self.evict(set, idx, &mut out, false);
                self.fill(set, idx, tag, block, true);
                out.push_below(BelowRequest {
                    addr: block_addr,
                    bytes: self.cfg.block_size(),
                    kind: BelowKind::Fetch,
                });
                self.stats.bytes_fetched += self.cfg.block_size();
                self.lines[idx].valid_mask = self.full_mask;
                match self.cfg.write_policy() {
                    WritePolicy::WriteBack => self.lines[idx].dirty_mask |= need,
                    WritePolicy::WriteThrough => {
                        out.push_below(BelowRequest {
                            addr: r.addr,
                            bytes: u64::from(r.size),
                            kind: BelowKind::WriteThrough,
                        });
                        self.stats.bytes_written_through += u64::from(r.size);
                    }
                }
            }
            WriteAllocate::Validate => {
                // Allocate without fetching; only written words valid.
                let idx = self.pick_victim(set);
                self.evict(set, idx, &mut out, false);
                self.fill(set, idx, tag, block, true);
                self.lines[idx].valid_mask = need;
                self.lines[idx].dirty_mask = need;
            }
        }
        out
    }

    /// Write back all dirty data (end-of-run flush, counted separately as
    /// `bytes_flushed`), empty the cache, and return the final statistics.
    ///
    /// The emitted write-backs are also returned for hierarchy plumbing.
    pub fn flush(&mut self) -> CacheStats {
        self.flush_collect().1
    }

    /// Like [`Cache::flush`], also returning the emitted write-backs.
    pub fn flush_collect(&mut self) -> (Vec<BelowRequest>, CacheStats) {
        let mut out = Vec::new();
        for idx in 0..self.lines.len() {
            self.evict(idx / self.ways, idx, &mut out, true);
        }
        (out, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Associativity, ReplacementPolicy};

    fn cfg(size: u64, block: u64) -> CacheConfig {
        CacheConfig::builder(size, block).build().unwrap()
    }

    #[test]
    fn cold_miss_then_spatial_hit() {
        let mut c = Cache::new(cfg(256, 32));
        let o = c.access(MemRef::read(0, 4));
        assert!(!o.hit);
        assert_eq!(o.below().len(), 1);
        assert_eq!(o.below()[0].bytes, 32);
        assert!(o.below()[0].is_fetch());
        assert!(c.access(MemRef::read(28, 4)).hit);
        assert_eq!(c.stats().read_hits, 1);
        assert_eq!(c.stats().read_misses, 1);
    }

    #[test]
    fn conflict_misses_in_direct_mapped() {
        // 256-byte direct-mapped, 32B blocks: addresses 0 and 256 conflict.
        let mut c = Cache::new(cfg(256, 32));
        assert!(!c.access(MemRef::read(0, 4)).hit);
        assert!(!c.access(MemRef::read(256, 4)).hit);
        assert!(!c.access(MemRef::read(0, 4)).hit, "evicted by conflict");
        // Same pattern in a 2-way cache of the same size hits.
        let cfg2 = CacheConfig::builder(256, 32)
            .associativity(Associativity::Ways(2))
            .build()
            .unwrap();
        let mut c2 = Cache::new(cfg2);
        c2.access(MemRef::read(0, 4));
        c2.access(MemRef::read(256, 4));
        assert!(c2.access(MemRef::read(0, 4)).hit);
    }

    #[test]
    fn writeback_on_dirty_eviction_and_flush() {
        let mut c = Cache::new(cfg(64, 32)); // two blocks, direct-mapped
        c.access(MemRef::write(0, 4)); // miss: fetch 32, dirty
        assert_eq!(c.stats().bytes_fetched, 32);
        c.access(MemRef::read(64, 4)); // conflicts with block 0 (set 0)
        assert_eq!(c.stats().bytes_written_back, 32, "dirty eviction");
        c.access(MemRef::write(96, 4)); // set 1, dirty
        let stats = c.flush();
        assert_eq!(stats.bytes_flushed, 32, "flush writes back remaining dirty");
    }

    #[test]
    fn write_through_counts_every_write() {
        let c_cfg = CacheConfig::builder(256, 32)
            .write_policy(WritePolicy::WriteThrough)
            .build()
            .unwrap();
        let mut c = Cache::new(c_cfg);
        c.access(MemRef::write(0, 4)); // miss: allocate (fetch 32) + through 4
        c.access(MemRef::write(0, 4)); // hit: through 4
        assert_eq!(c.stats().bytes_written_through, 8);
        assert_eq!(c.stats().bytes_fetched, 32);
        let s = c.flush();
        assert_eq!(s.bytes_flushed, 0, "write-through lines are never dirty");
    }

    #[test]
    fn no_allocate_write_miss_bypasses() {
        let c_cfg = CacheConfig::builder(256, 32)
            .write_allocate(WriteAllocate::NoAllocate)
            .build()
            .unwrap();
        let mut c = Cache::new(c_cfg);
        let o = c.access(MemRef::write(0, 4));
        assert!(!o.hit);
        assert_eq!(o.below()[0].kind, BelowKind::WriteThrough);
        assert_eq!(o.below()[0].bytes, 4);
        assert!(!c.is_resident(0));
    }

    #[test]
    fn write_validate_allocates_without_fetch() {
        let c_cfg = CacheConfig::builder(256, 32)
            .write_allocate(WriteAllocate::Validate)
            .build()
            .unwrap();
        let mut c = Cache::new(c_cfg);
        let o = c.access(MemRef::write(0, 4));
        assert!(!o.hit);
        assert_eq!(o.bytes_below(), 0, "no fetch on write-validate miss");
        assert!(c.is_resident(0));
        // Reading the written word hits; reading another word of the block
        // is a partial miss fetching only the 7 missing words.
        assert!(c.access(MemRef::read(0, 4)).hit);
        let o = c.access(MemRef::read(8, 4));
        assert!(!o.hit);
        assert_eq!(o.below()[0].bytes, 28);
        // Flush writes back only the dirty word.
        let s = c.flush();
        assert_eq!(s.bytes_flushed, 4);
    }

    #[test]
    fn lru_eviction_order() {
        let c_cfg = CacheConfig::builder(128, 32)
            .associativity(Associativity::Full)
            .build()
            .unwrap();
        let mut c = Cache::new(c_cfg); // 4 blocks FA LRU
        for b in 0..4u64 {
            c.access(MemRef::read(b * 32, 4));
        }
        c.access(MemRef::read(0, 4)); // touch block 0: LRU is now block 1
        c.access(MemRef::read(4 * 32, 4)); // evicts block 1
        assert!(c.is_resident(0));
        assert!(!c.is_resident(32));
        assert!(c.is_resident(64));
    }

    #[test]
    fn plru_wider_than_64_ways_falls_back_to_lru() {
        // 128 ways: one PlruBits word cannot hold the tree, so PLRU must
        // behave exactly like LRU.
        let build = |policy| {
            Cache::new(
                CacheConfig::builder(4096, 32)
                    .associativity(Associativity::Full)
                    .replacement(policy)
                    .build()
                    .unwrap(),
            )
        };
        let mut plru = build(ReplacementPolicy::Plru);
        let mut lru = build(ReplacementPolicy::Lru);
        let mut x = 11u64;
        for i in 0..20_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = ((x >> 33) % 300) * 32;
            let r = if i % 4 == 0 {
                MemRef::write(addr, 4)
            } else {
                MemRef::read(addr, 4)
            };
            assert_eq!(plru.access(r).below(), lru.access(r).below(), "ref {i}");
        }
        assert_eq!(plru.flush(), lru.flush());
    }

    #[test]
    fn fifo_eviction_ignores_touches() {
        let c_cfg = CacheConfig::builder(128, 32)
            .associativity(Associativity::Full)
            .replacement(ReplacementPolicy::Fifo)
            .build()
            .unwrap();
        let mut c = Cache::new(c_cfg);
        for b in 0..4u64 {
            c.access(MemRef::read(b * 32, 4));
        }
        c.access(MemRef::read(0, 4)); // touch does not matter for FIFO
        c.access(MemRef::read(4 * 32, 4)); // evicts block 0 (first in)
        assert!(!c.is_resident(0));
        assert!(c.is_resident(32));
    }

    #[test]
    fn straddling_access_splits() {
        let mut c = Cache::new(cfg(256, 32));
        let o = c.access(MemRef::read(30, 4)); // straddles blocks 0 and 1
        assert!(!o.hit);
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().bytes_fetched, 64);
        assert_eq!(c.stats().request_bytes, 4);
    }

    #[test]
    fn tagged_prefetch_fetches_next_block() {
        let c_cfg = CacheConfig::builder(256, 32)
            .tagged_prefetch(true)
            .build()
            .unwrap();
        let mut c = Cache::new(c_cfg);
        let o = c.access(MemRef::read(0, 4)); // miss: fetch 0, prefetch 32
        assert!(!o.hit);
        assert_eq!(c.stats().bytes_prefetched, 32);
        assert!(c.is_resident(32));
        // First use of the prefetched block triggers the next prefetch.
        let o = c.access(MemRef::read(32, 4));
        assert!(o.hit);
        assert!(c.is_resident(64));
        assert_eq!(c.stats().prefetch_fills, 2);
        // Re-touching an already-referenced block does not prefetch again.
        c.access(MemRef::read(32, 4));
        assert_eq!(c.stats().prefetch_fills, 2);
    }

    #[test]
    fn traffic_equals_sum_of_outcome_bytes() {
        let mut c = Cache::new(cfg(128, 32));
        let refs = [
            MemRef::read(0, 4),
            MemRef::write(128, 4),
            MemRef::read(256, 4),
            MemRef::write(0, 4),
            MemRef::read(128, 4),
        ];
        let mut total = 0;
        for r in refs {
            total += c.access(r).bytes_below();
        }
        let (flushed, stats) = c.flush_collect();
        total += flushed.iter().map(|b| b.bytes).sum::<u64>();
        assert_eq!(total, stats.traffic_below());
    }

    #[test]
    fn straddling_write_through_miss_fits_inline_capacity() {
        // Worst case for the inline buffer: a write-through allocating
        // write that straddles two blocks, with both victim lines dirty
        // — per piece: eviction write-back + allocate fetch + write-
        // through = 3 transfers, 6 total, within MAX_BELOW.
        let c_cfg = CacheConfig::builder(64, 32)
            .write_policy(WritePolicy::WriteThrough)
            .build()
            .unwrap();
        let mut c = Cache::new(c_cfg); // two blocks, direct-mapped
                                       // Write-through lines are never dirty, so each straddle piece
                                       // caps at allocate fetch + write-through (the dirty-victim
                                       // worst case is exercised by the prefetch test below).
        c.access(MemRef::write(0, 4));
        c.access(MemRef::write(32, 4));
        let o = c.access(MemRef::write(94, 4)); // straddles blocks 2 and 3
        assert!(!o.hit);
        assert!(o.below().len() <= MAX_BELOW);
        let throughs = o
            .below()
            .iter()
            .filter(|b| b.kind == BelowKind::WriteThrough)
            .count();
        let fetches = o.below().iter().filter(|b| b.is_fetch()).count();
        assert_eq!(
            (throughs, fetches),
            (2, 2),
            "each piece allocates + writes through"
        );
    }

    #[test]
    fn worst_case_straddling_read_with_prefetch_fills_the_buffer() {
        // A straddling read miss in a tagged-prefetch write-back cache
        // where every victim is dirty: each piece emits eviction
        // write-back + fetch + prefetch-eviction write-back + prefetch
        // fetch = 4, so two pieces exactly fill MAX_BELOW.
        let c_cfg = CacheConfig::builder(64, 32)
            .tagged_prefetch(true)
            .build()
            .unwrap();
        let mut c = Cache::new(c_cfg); // two blocks, direct-mapped
                                       // Dirty every line the straddling read (and its prefetches)
                                       // will displace.
        for set in 0..2u64 {
            c.access(MemRef::write(set * 32, 4));
        }
        // Read straddling blocks 2|3: both map onto the dirty lines.
        let o = c.access(MemRef::read(94, 4));
        assert!(!o.hit);
        assert!(o.below().len() <= MAX_BELOW, "{}", o.below().len());
        assert!(
            o.below()
                .iter()
                .filter(|b| b.kind == BelowKind::Writeback)
                .count()
                >= 2,
            "dirty victims write back"
        );
        assert!(o.bytes_below() >= 4 * 32, "at least four block moves");
    }

    #[test]
    #[should_panic]
    fn inline_buffer_overflow_asserts() {
        let mut o = AccessOutcome::default();
        for _ in 0..=MAX_BELOW {
            o.push_below(BelowRequest {
                addr: 0,
                bytes: 1,
                kind: BelowKind::Fetch,
            });
        }
    }

    #[test]
    fn small_cache_can_exceed_unity_traffic_ratio() {
        // Single-word random-ish touches with 32B blocks: each miss hauls
        // 32 bytes for a 4-byte request → R approaches 8.
        let mut c = Cache::new(cfg(1024, 32));
        for i in 0..4096u64 {
            c.access(MemRef::read((i * 4096 + i * 4) % (1 << 22), 4));
        }
        let s = c.flush();
        assert!(s.traffic_ratio().unwrap() > 1.0);
    }
}
