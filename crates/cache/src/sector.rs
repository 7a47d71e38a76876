//! Sector (sub-block) caches — Hill & Smith's block/sub-block design
//! space \[20\], the study the paper's traffic-ratio metric generalizes.
//!
//! A sector cache tags large *address blocks* but transfers small
//! *sub-blocks*: a miss fetches only the touched sub-block, so tag
//! overhead stays low while traffic approaches small-block behaviour.
//! Hill & Smith measured exactly this miss-ratio/traffic-ratio trade;
//! the `fig4` ablation bench uses this model to show where sectoring
//! lands between the 4 B and 32 B curves.

use crate::config::ConfigError;
use crate::replacement::{LineAge, PlruBits, VictimPicker};
use crate::stats::CacheStats;
use crate::ReplacementPolicy;
use membw_trace::{AccessKind, MemRef};

/// Geometry and policy of a sector cache.
///
/// Always write-back, write-allocate-on-sub-block (a write miss fetches
/// nothing: the written words validate their sub-block, per the
/// write-validate discussion in §5.2 being orthogonal, we keep the
/// conservative fetch-on-write here), LRU over address blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectorConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Address-block (tagged) size in bytes.
    pub block_size: u64,
    /// Transfer sub-block size in bytes.
    pub subblock_size: u64,
    /// Ways per set.
    pub ways: u32,
}

impl SectorConfig {
    /// Validate the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for non-power-of-two sizes, a sub-block
    /// larger than the block, or geometry that does not divide evenly.
    pub fn validate(self) -> Result<Self, ConfigError> {
        for (what, v) in [
            ("cache size", self.size_bytes),
            ("block size", self.block_size),
            ("sub-block size", self.subblock_size),
        ] {
            if v == 0 || !v.is_power_of_two() {
                return Err(ConfigError::NotPowerOfTwo(what, v));
            }
        }
        if self.subblock_size > self.block_size {
            return Err(ConfigError::BadGeometry(format!(
                "sub-block {} exceeds block {}",
                self.subblock_size, self.block_size
            )));
        }
        if self.block_size / self.subblock_size > 64 {
            return Err(ConfigError::BadGeometry(
                "more than 64 sub-blocks per block".into(),
            ));
        }
        if self.block_size > self.size_bytes {
            return Err(ConfigError::BlockLargerThanCache {
                block: self.block_size,
                size: self.size_bytes,
            });
        }
        let blocks = self.size_bytes / self.block_size;
        if self.ways == 0 || !blocks.is_multiple_of(u64::from(self.ways)) {
            return Err(ConfigError::BadGeometry(format!(
                "{blocks} blocks not divisible into {}-way sets",
                self.ways
            )));
        }
        if !(blocks / u64::from(self.ways)).is_power_of_two() {
            return Err(ConfigError::BadGeometry("sets not a power of two".into()));
        }
        Ok(self)
    }

    fn num_sets(&self) -> u64 {
        self.size_bytes / self.block_size / u64::from(self.ways)
    }

    /// Sub-blocks per address block.
    pub fn subs_per_block(&self) -> u64 {
        self.block_size / self.subblock_size
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct SectorLine {
    valid: bool,
    tag: u64,
    /// Bit per sub-block: present.
    present: u64,
    /// Bit per sub-block: dirty.
    dirty: u64,
    last_touch: u64,
}

impl LineAge for SectorLine {
    fn last_touch(&self) -> u64 {
        self.last_touch
    }

    /// Sector caches are LRU-only and do not track fill order.
    fn filled_at(&self) -> u64 {
        0
    }
}

/// A sector (sub-block) cache with traffic accounting.
///
/// # Example
///
/// ```
/// use membw_cache::sector::{SectorCache, SectorConfig};
/// use membw_trace::MemRef;
///
/// let cfg = SectorConfig {
///     size_bytes: 1024, block_size: 64, subblock_size: 8, ways: 1,
/// }.validate()?;
/// let mut c = SectorCache::new(cfg);
/// c.access(MemRef::read(0, 4));       // fetches ONE 8-byte sub-block
/// assert_eq!(c.stats().bytes_fetched, 8);
/// assert!(c.access(MemRef::read(4, 4)).0); // same sub-block: hit
/// # Ok::<(), membw_cache::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct SectorCache {
    cfg: SectorConfig,
    lines: Vec<SectorLine>,
    picker: VictimPicker,
    clock: u64,
    stats: CacheStats,
}

impl SectorCache {
    /// Build an empty sector cache.
    pub fn new(cfg: SectorConfig) -> Self {
        let blocks = (cfg.num_sets() * u64::from(cfg.ways)) as usize;
        Self {
            cfg,
            lines: vec![SectorLine::default(); blocks],
            picker: VictimPicker::new(ReplacementPolicy::Lru),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SectorConfig {
        &self.cfg
    }

    /// Counters so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn set_of(&self, addr: u64) -> u64 {
        (addr / self.cfg.block_size) % self.cfg.num_sets()
    }

    fn tag_of(&self, addr: u64) -> u64 {
        (addr / self.cfg.block_size) / self.cfg.num_sets()
    }

    fn sub_mask(&self, r: MemRef) -> u64 {
        let off = r.addr % self.cfg.block_size;
        let first = off / self.cfg.subblock_size;
        let last = (off + u64::from(r.size).max(1) - 1) / self.cfg.subblock_size;
        let count = last - first + 1;
        let ones = if count >= 64 {
            u64::MAX
        } else {
            (1u64 << count) - 1
        };
        ones << first
    }

    fn find(&self, set: u64, tag: u64) -> Option<usize> {
        let ways = self.cfg.ways as usize;
        let base = set as usize * ways;
        (0..ways).find(|&w| {
            let l = &self.lines[base + w];
            l.valid && l.tag == tag
        })
    }

    /// Present one access; returns `(hit, bytes_fetched_now)`.
    ///
    /// A "hit" requires both the address block and all touched
    /// sub-blocks to be present.
    ///
    /// # Panics
    ///
    /// Panics if the access straddles an address-block boundary (split
    /// upstream).
    pub fn access(&mut self, r: MemRef) -> (bool, u64) {
        assert!(
            r.fits_in_block(self.cfg.block_size),
            "straddling access must be split before a sector cache"
        );
        self.clock += 1;
        self.stats.accesses += 1;
        self.stats.request_bytes += u64::from(r.size);
        let is_read = r.kind == AccessKind::Read;
        if is_read {
            self.stats.reads += 1;
        } else {
            self.stats.writes += 1;
        }

        let set = self.set_of(r.addr);
        let tag = self.tag_of(r.addr);
        let need = self.sub_mask(r);
        let ways = self.cfg.ways as usize;
        let base = set as usize * ways;

        let way = match self.find(set, tag) {
            Some(w) => w,
            None => {
                // Block miss: evict a whole address block (write back its
                // dirty sub-blocks) and re-tag; no data moves yet.
                let set_lines = &self.lines[base..base + ways];
                let w = set_lines
                    .iter()
                    .position(|l| !l.valid)
                    .unwrap_or_else(|| self.picker.pick(set_lines, &PlruBits::default()));
                let old = self.lines[base + w];
                if old.valid {
                    let dirty_subs = (old.dirty & old.present).count_ones() as u64;
                    let wb = dirty_subs * self.cfg.subblock_size;
                    self.stats.bytes_written_back += wb;
                }
                self.lines[base + w] = SectorLine {
                    valid: true,
                    tag,
                    present: 0,
                    dirty: 0,
                    last_touch: self.clock,
                };
                w
            }
        };

        let line = &mut self.lines[base + way];
        line.last_touch = self.clock;
        let missing = need & !line.present;
        let hit = missing == 0;
        let mut fetched = 0;
        if !hit {
            if is_read {
                self.stats.read_misses += 1;
            } else {
                self.stats.write_misses += 1;
            }
            fetched = u64::from(missing.count_ones()) * self.cfg.subblock_size;
            self.stats.bytes_fetched += fetched;
            line.present |= missing;
        } else if is_read {
            self.stats.read_hits += 1;
        } else {
            self.stats.write_hits += 1;
        }
        if !is_read {
            line.dirty |= need;
        }
        (hit, fetched)
    }

    /// Flush all dirty sub-blocks and return the final statistics.
    pub fn flush(&mut self) -> CacheStats {
        for line in &mut self.lines {
            if line.valid {
                let dirty_subs = (line.dirty & line.present).count_ones() as u64;
                self.stats.bytes_flushed += dirty_subs * self.cfg.subblock_size;
                *line = SectorLine::default();
            }
        }
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(size: u64, block: u64, sub: u64) -> SectorConfig {
        SectorConfig {
            size_bytes: size,
            block_size: block,
            subblock_size: sub,
            ways: 1,
        }
        .validate()
        .unwrap()
    }

    #[test]
    fn fetches_only_touched_subblocks() {
        let mut c = SectorCache::new(cfg(512, 64, 8));
        let (hit, fetched) = c.access(MemRef::read(0, 4));
        assert!(!hit);
        assert_eq!(fetched, 8);
        // Another sub-block of the same address block: block present,
        // sub-block missing → fetch 8 more.
        let (hit, fetched) = c.access(MemRef::read(32, 4));
        assert!(!hit);
        assert_eq!(fetched, 8);
        assert_eq!(c.stats().bytes_fetched, 16);
    }

    #[test]
    fn traffic_between_small_and_large_blocks() {
        // Sparse single-word touches: sector traffic ≈ sub-block bytes
        // per miss, far below whole-block fills.
        let mut sector = SectorCache::new(cfg(4096, 64, 8));
        let mut whole = crate::Cache::new(crate::CacheConfig::builder(4096, 64).build().unwrap());
        for i in 0..500u64 {
            let addr = i * 8192;
            sector.access(MemRef::read(addr, 4));
            whole.access(MemRef::read(addr, 4));
        }
        let s = sector.flush();
        let w = whole.flush();
        assert_eq!(s.bytes_fetched, 500 * 8);
        assert_eq!(w.bytes_fetched, 500 * 64);
    }

    #[test]
    fn dirty_subblocks_write_back_individually() {
        let mut c = SectorCache::new(cfg(128, 64, 8)); // 2 blocks
        c.access(MemRef::write(0, 4)); // sub-block 0 dirty
        c.access(MemRef::write(8, 4)); // sub-block 1 dirty
                                       // Conflict-evict block 0 (same set in a 2-block, 2-set cache? —
                                       // 128/64 = 2 blocks, direct-mapped → 2 sets; 128 maps to set 0).
        c.access(MemRef::read(128, 4));
        assert_eq!(c.stats().bytes_written_back, 16, "two dirty sub-blocks");
    }

    #[test]
    fn write_allocates_via_fetch() {
        let mut c = SectorCache::new(cfg(512, 64, 8));
        let (hit, fetched) = c.access(MemRef::write(0, 4));
        assert!(!hit);
        assert_eq!(fetched, 8, "conservative fetch-on-write");
        let s = c.flush();
        assert_eq!(s.bytes_flushed, 8);
    }

    #[test]
    fn subblock_equal_to_block_degenerates_to_plain_cache() {
        let mut sector = SectorCache::new(cfg(512, 32, 32));
        let mut plain = crate::Cache::new(crate::CacheConfig::builder(512, 32).build().unwrap());
        let mut x = 5u64;
        for _ in 0..400 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(13);
            let addr = ((x >> 40) % 4096) & !3;
            let r = if x.is_multiple_of(3) {
                MemRef::write(addr, 4)
            } else {
                MemRef::read(addr, 4)
            };
            sector.access(r);
            plain.access(r);
        }
        let s = sector.flush();
        let p = plain.flush();
        assert_eq!(s.bytes_fetched, p.bytes_fetched);
        assert_eq!(s.demand_misses(), p.demand_misses());
    }

    #[test]
    fn rejects_bad_geometry() {
        assert!(SectorConfig {
            size_bytes: 512,
            block_size: 32,
            subblock_size: 64,
            ways: 1
        }
        .validate()
        .is_err());
        assert!(SectorConfig {
            size_bytes: 500,
            block_size: 32,
            subblock_size: 8,
            ways: 1
        }
        .validate()
        .is_err());
    }
}
