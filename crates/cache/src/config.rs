//! Cache configuration and validation.

use membw_trace::MemRef;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Set associativity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Associativity {
    /// `n`-way set associative (1 = direct mapped).
    Ways(u32),
    /// Fully associative: one set spanning the whole cache.
    Full,
}

impl fmt::Display for Associativity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Associativity::Ways(1) => write!(f, "direct-mapped"),
            Associativity::Ways(n) => write!(f, "{n}-way"),
            Associativity::Full => write!(f, "fully-associative"),
        }
    }
}

/// What happens on a write hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WritePolicy {
    /// Dirty data stays in the cache until eviction (or flush).
    WriteBack,
    /// Every write is propagated below immediately.
    WriteThrough,
}

/// What happens on a write miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WriteAllocate {
    /// Fetch the block, then write into it.
    Allocate,
    /// Do not allocate; send the write below.
    NoAllocate,
    /// Allocate the block *without* fetching, overwriting with the store
    /// data and tracking per-word validity (Jouppi's write-validate \[25\]).
    /// Only meaningful with [`WritePolicy::WriteBack`].
    Validate,
}

/// Replacement policy within a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReplacementPolicy {
    /// Least-recently-used.
    Lru,
    /// First-in-first-out (insertion order).
    Fifo,
    /// Pseudo-random, from a deterministic per-cache stream seeded here.
    Random(u64),
    /// Tree pseudo-LRU.
    Plru,
}

/// Errors from cache-configuration validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Size or block size is zero or not a power of two.
    NotPowerOfTwo(&'static str, u64),
    /// Block size exceeds cache size.
    BlockLargerThanCache {
        /// Block size in bytes.
        block: u64,
        /// Cache size in bytes.
        size: u64,
    },
    /// Size is not divisible into whole sets for the given associativity.
    BadGeometry(String),
    /// Block size exceeds the 256-byte per-word-mask limit.
    BlockTooLarge(u64),
    /// Write-validate requires write-back.
    ValidateNeedsWriteBack,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NotPowerOfTwo(what, v) => {
                write!(f, "{what} must be a nonzero power of two, got {v}")
            }
            ConfigError::BlockLargerThanCache { block, size } => {
                write!(f, "block size {block} exceeds cache size {size}")
            }
            ConfigError::BadGeometry(msg) => write!(f, "invalid cache geometry: {msg}"),
            ConfigError::BlockTooLarge(b) => {
                write!(f, "block size {b} exceeds the 256-byte limit")
            }
            ConfigError::ValidateNeedsWriteBack => {
                write!(f, "write-validate requires a write-back cache")
            }
        }
    }
}

impl ConfigError {
    /// `true` for errors that describe an *unrepresentable geometry* —
    /// a block too large for the cache, or a size that will not divide
    /// into whole sets. Sweeps over capacity grids hit these at the
    /// small end of the axis and omit the point by design; any other
    /// variant means the caller built the configuration wrong and
    /// deserves a diagnostic rather than a silently missing point.
    pub fn is_geometry_limit(&self) -> bool {
        matches!(
            self,
            ConfigError::BlockLargerThanCache { .. } | ConfigError::BadGeometry(_)
        )
    }
}

impl std::error::Error for ConfigError {}

/// A validated cache configuration.
///
/// Construct through [`CacheConfig::builder`]; defaults match the paper's
/// baseline traffic-ratio experiments (Table 7): direct-mapped, 32-byte
/// blocks, write-allocate, write-back, LRU.
///
/// # Example
///
/// ```
/// use membw_cache::{Associativity, CacheConfig};
///
/// let cfg = CacheConfig::builder(64 * 1024, 32)
///     .associativity(Associativity::Ways(4))
///     .build()?;
/// assert_eq!(cfg.num_sets(), 512);
/// assert_eq!(cfg.words_per_block(), 8);
/// # Ok::<(), membw_cache::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    size_bytes: u64,
    block_size: u64,
    associativity: Associativity,
    write_policy: WritePolicy,
    write_allocate: WriteAllocate,
    replacement: ReplacementPolicy,
    tagged_prefetch: bool,
}

impl CacheConfig {
    /// Start building a configuration of `size_bytes` with `block_size`
    /// blocks.
    pub fn builder(size_bytes: u64, block_size: u64) -> CacheConfigBuilder {
        CacheConfigBuilder {
            size_bytes,
            block_size,
            associativity: Associativity::Ways(1),
            write_policy: WritePolicy::WriteBack,
            write_allocate: WriteAllocate::Allocate,
            replacement: ReplacementPolicy::Lru,
            tagged_prefetch: false,
        }
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Block (line) size in bytes.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Associativity.
    pub fn associativity(&self) -> Associativity {
        self.associativity
    }

    /// Write-hit policy.
    pub fn write_policy(&self) -> WritePolicy {
        self.write_policy
    }

    /// Write-miss policy.
    pub fn write_allocate(&self) -> WriteAllocate {
        self.write_allocate
    }

    /// Replacement policy.
    pub fn replacement(&self) -> ReplacementPolicy {
        self.replacement
    }

    /// Whether tagged sequential prefetch (Gindele \[17\]) is enabled.
    pub fn tagged_prefetch(&self) -> bool {
        self.tagged_prefetch
    }

    /// Number of blocks the cache holds.
    pub fn num_blocks(&self) -> u64 {
        self.size_bytes / self.block_size
    }

    /// Number of ways per set.
    pub fn ways(&self) -> u64 {
        match self.associativity {
            Associativity::Ways(n) => u64::from(n),
            Associativity::Full => self.num_blocks(),
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.num_blocks() / self.ways()
    }

    /// 4-byte words per block.
    pub fn words_per_block(&self) -> u64 {
        self.block_size / 4
    }
}

/// Shift-and-mask arithmetic for one power-of-two block size: an
/// address's block number and offset, and the QPT-style split of a
/// reference into per-block pieces — with no division.
///
/// # Example
///
/// ```
/// use membw_cache::BlockSplit;
/// use membw_trace::MemRef;
///
/// let split = BlockSplit::new(32);
/// assert_eq!(split.block_of(70), 2);
/// assert!(!split.fits(MemRef::read(30, 4)));
/// let sizes: Vec<u16> = split.pieces(MemRef::read(30, 4)).map(|p| p.size).collect();
/// assert_eq!(sizes, [2, 2]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSplit {
    shift: u32,
}

impl BlockSplit {
    /// Arithmetic for `block_size`-byte blocks.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is not a power of two.
    pub fn new(block_size: u64) -> Self {
        assert!(
            block_size.is_power_of_two(),
            "block size {block_size} is not a power of two"
        );
        Self {
            shift: block_size.trailing_zeros(),
        }
    }

    /// The block number of `addr`.
    #[inline]
    pub fn block_of(self, addr: u64) -> u64 {
        addr >> self.shift
    }

    /// The first byte address of block number `block`.
    #[inline]
    pub fn addr_of(self, block: u64) -> u64 {
        block << self.shift
    }

    /// The byte offset of `addr` within its block.
    #[inline]
    pub fn offset(self, addr: u64) -> u64 {
        addr & ((1 << self.shift) - 1)
    }

    /// `true` if `r` lies within one block; the same answer as
    /// [`MemRef::fits_in_block`].
    #[inline]
    pub fn fits(self, r: MemRef) -> bool {
        self.block_of(r.addr) == self.block_of(r.addr + u64::from(r.size) - 1)
    }

    /// `r` split at block boundaries into per-block pieces, in address
    /// order (one piece when `r` [fits](Self::fits)).
    pub fn pieces(self, r: MemRef) -> impl Iterator<Item = MemRef> {
        let end = r.addr + u64::from(r.size);
        let mut addr = r.addr;
        std::iter::from_fn(move || {
            if addr >= end {
                return None;
            }
            let block_end = self.addr_of(self.block_of(addr) + 1);
            let size = (block_end.min(end) - addr) as u16;
            let piece = MemRef {
                addr,
                size,
                kind: r.kind,
            };
            addr += u64::from(size);
            Some(piece)
        })
    }
}

/// Builder for [`CacheConfig`]; see [`CacheConfig::builder`].
#[derive(Debug, Clone)]
pub struct CacheConfigBuilder {
    size_bytes: u64,
    block_size: u64,
    associativity: Associativity,
    write_policy: WritePolicy,
    write_allocate: WriteAllocate,
    replacement: ReplacementPolicy,
    tagged_prefetch: bool,
}

impl CacheConfigBuilder {
    /// Set the associativity (default: direct-mapped).
    pub fn associativity(mut self, a: Associativity) -> Self {
        self.associativity = a;
        self
    }

    /// Set the write-hit policy (default: write-back).
    pub fn write_policy(mut self, p: WritePolicy) -> Self {
        self.write_policy = p;
        self
    }

    /// Set the write-miss policy (default: write-allocate).
    pub fn write_allocate(mut self, p: WriteAllocate) -> Self {
        self.write_allocate = p;
        self
    }

    /// Set the replacement policy (default: LRU).
    pub fn replacement(mut self, r: ReplacementPolicy) -> Self {
        self.replacement = r;
        self
    }

    /// Enable tagged sequential prefetch (default: off).
    pub fn tagged_prefetch(mut self, on: bool) -> Self {
        self.tagged_prefetch = on;
        self
    }

    /// Validate and produce the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if sizes are not powers of two, the block
    /// does not fit, the geometry does not divide evenly, the block exceeds
    /// 256 bytes (the per-word valid-mask limit), or write-validate is
    /// combined with write-through.
    pub fn build(self) -> Result<CacheConfig, ConfigError> {
        if self.size_bytes == 0 || !self.size_bytes.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo("cache size", self.size_bytes));
        }
        if self.block_size == 0 || !self.block_size.is_power_of_two() || self.block_size < 4 {
            return Err(ConfigError::NotPowerOfTwo("block size", self.block_size));
        }
        if self.block_size > 256 {
            return Err(ConfigError::BlockTooLarge(self.block_size));
        }
        if self.block_size > self.size_bytes {
            return Err(ConfigError::BlockLargerThanCache {
                block: self.block_size,
                size: self.size_bytes,
            });
        }
        let blocks = self.size_bytes / self.block_size;
        let ways = match self.associativity {
            Associativity::Ways(0) => {
                return Err(ConfigError::BadGeometry(
                    "associativity of zero ways".into(),
                ))
            }
            Associativity::Ways(n) => u64::from(n),
            Associativity::Full => blocks,
        };
        if !blocks.is_multiple_of(ways) {
            return Err(ConfigError::BadGeometry(format!(
                "{blocks} blocks not divisible into {ways}-way sets"
            )));
        }
        let sets = blocks / ways;
        if !sets.is_power_of_two() {
            return Err(ConfigError::BadGeometry(format!(
                "{sets} sets is not a power of two"
            )));
        }
        if self.write_allocate == WriteAllocate::Validate
            && self.write_policy == WritePolicy::WriteThrough
        {
            return Err(ConfigError::ValidateNeedsWriteBack);
        }
        Ok(CacheConfig {
            size_bytes: self.size_bytes,
            block_size: self.block_size,
            associativity: self.associativity,
            write_policy: self.write_policy,
            write_allocate: self.write_allocate,
            replacement: self.replacement,
            tagged_prefetch: self.tagged_prefetch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry() {
        let cfg = CacheConfig::builder(1024, 32).build().unwrap();
        assert_eq!(cfg.num_blocks(), 32);
        assert_eq!(cfg.ways(), 1);
        assert_eq!(cfg.num_sets(), 32);
        assert_eq!(cfg.words_per_block(), 8);
    }

    #[test]
    fn fully_associative_is_one_set() {
        let cfg = CacheConfig::builder(1024, 32)
            .associativity(Associativity::Full)
            .build()
            .unwrap();
        assert_eq!(cfg.num_sets(), 1);
        assert_eq!(cfg.ways(), 32);
    }

    #[test]
    fn block_split_matches_division() {
        for block in [4u64, 16, 32, 256] {
            let split = BlockSplit::new(block);
            for addr in [0u64, 3, block - 1, block, 4093, 65536 + 7, 123_456_789] {
                assert_eq!(split.block_of(addr), addr / block);
                assert_eq!(split.offset(addr), addr % block);
                assert_eq!(split.addr_of(split.block_of(addr)), addr & !(block - 1));
                for size in [1u16, 2, 4, 8] {
                    let r = MemRef::read(addr, size);
                    assert_eq!(split.fits(r), r.fits_in_block(block));
                    let pieces: Vec<MemRef> = split.pieces(r).collect();
                    let last = addr + u64::from(size) - 1;
                    assert_eq!(pieces.len() as u64, last / block - addr / block + 1);
                    assert_eq!(pieces[0].addr, addr);
                    assert_eq!(
                        pieces.iter().map(|p| u64::from(p.size)).sum::<u64>(),
                        u64::from(size)
                    );
                    assert!(pieces.iter().all(|&p| p.fits_in_block(block)));
                }
            }
        }
    }

    #[test]
    fn rejects_bad_sizes() {
        assert!(matches!(
            CacheConfig::builder(1000, 32).build(),
            Err(ConfigError::NotPowerOfTwo("cache size", 1000))
        ));
        assert!(matches!(
            CacheConfig::builder(1024, 24).build(),
            Err(ConfigError::NotPowerOfTwo("block size", 24))
        ));
        assert!(matches!(
            CacheConfig::builder(16, 32).build(),
            Err(ConfigError::BlockLargerThanCache { .. })
        ));
        assert!(matches!(
            CacheConfig::builder(4096, 512).build(),
            Err(ConfigError::BlockTooLarge(512))
        ));
        assert!(matches!(
            CacheConfig::builder(1024, 32)
                .associativity(Associativity::Ways(0))
                .build(),
            Err(ConfigError::BadGeometry(_))
        ));
    }

    #[test]
    fn rejects_validate_with_write_through() {
        let err = CacheConfig::builder(1024, 32)
            .write_policy(WritePolicy::WriteThrough)
            .write_allocate(WriteAllocate::Validate)
            .build();
        assert_eq!(err, Err(ConfigError::ValidateNeedsWriteBack));
    }

    #[test]
    fn errors_display_nonempty() {
        let e = CacheConfig::builder(1000, 32).build().unwrap_err();
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn associativity_display() {
        assert_eq!(Associativity::Ways(1).to_string(), "direct-mapped");
        assert_eq!(Associativity::Ways(4).to_string(), "4-way");
        assert_eq!(Associativity::Full.to_string(), "fully-associative");
    }
}
