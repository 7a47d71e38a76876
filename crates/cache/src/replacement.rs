//! Replacement-policy machinery shared by the cache sets.
//!
//! Victim choice works off per-line metadata (`last_touch`, `filled_at`)
//! read straight from the set's lines through [`LineAge`], plus, for tree
//! pseudo-LRU, a per-set bit vector. The policies here are
//! the ones the paper's Table 9 factor experiments exercise (LRU) plus the
//! cheap alternatives a "flexible cache" (§5.3) would offer.

use crate::config::ReplacementPolicy;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Per-set tree-PLRU state, valid for power-of-two way counts.
///
/// Bit `i` of the word is internal node `i` of the binary tree (root at
/// 0); a 0 bit points left, 1 points right, and the victim walk follows
/// the pointers while an access flips the path away from itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlruBits(u64);

impl PlruBits {
    /// `true` if one `PlruBits` word can hold the tree for `ways` ways
    /// (a power of two no larger than 64). Wider or odd sets fall back
    /// to LRU.
    pub fn covers(ways: usize) -> bool {
        ways.is_power_of_two() && ways <= 64
    }

    /// Walk the tree toward the pseudo-LRU victim among `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `ways` is not a power of two or exceeds 64.
    pub fn victim(&self, ways: usize) -> usize {
        debug_assert!(Self::covers(ways));
        let mut node = 0usize; // index within a conceptual heap, 0-rooted
        let mut low = 0usize;
        let mut span = ways;
        while span > 1 {
            let right = (self.0 >> node) & 1 == 1;
            span /= 2;
            if right {
                low += span;
                node = 2 * node + 2;
            } else {
                node = 2 * node + 1;
            }
        }
        low
    }

    /// Record an access to `way`, flipping the path bits away from it.
    pub fn touch(&mut self, way: usize, ways: usize) {
        debug_assert!(Self::covers(ways));
        let mut node = 0usize;
        let mut low = 0usize;
        let mut span = ways;
        while span > 1 {
            span /= 2;
            let went_right = way >= low + span;
            // Point the node *away* from where we went.
            if went_right {
                self.0 &= !(1 << node);
                low += span;
                node = 2 * node + 2;
            } else {
                self.0 |= 1 << node;
                node = 2 * node + 1;
            }
        }
    }
}

/// Per-line replacement metadata a set exposes to [`VictimPicker`].
pub trait LineAge {
    /// Clock of the line's most recent fill or access.
    fn last_touch(&self) -> u64;
    /// Clock of the line's fill.
    fn filled_at(&self) -> u64;
}

/// `(last_touch, filled_at)`.
impl LineAge for (u64, u64) {
    fn last_touch(&self) -> u64 {
        self.0
    }

    fn filled_at(&self) -> u64 {
        self.1
    }
}

/// Index of the line with the smallest `age` (the first on ties).
fn oldest_by<L>(set: &[L], age: impl Fn(&L) -> u64) -> usize {
    (0..set.len())
        .min_by_key(|&i| age(&set[i]))
        .expect("non-empty")
}

/// Victim-selection engine: policy plus any global state (the random
/// stream).
#[derive(Debug)]
pub struct VictimPicker {
    policy: ReplacementPolicy,
    rng: Option<SmallRng>,
}

impl VictimPicker {
    /// Build a picker for `policy`.
    pub fn new(policy: ReplacementPolicy) -> Self {
        let rng = match policy {
            ReplacementPolicy::Random(seed) => Some(SmallRng::seed_from_u64(seed)),
            _ => None,
        };
        Self { policy, rng }
    }

    /// The policy this picker implements.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Choose a victim way among the full `set`'s lines, given the set's
    /// PLRU bits.
    ///
    /// Tree PLRU falls back to LRU on sets [`PlruBits`] cannot cover
    /// (more than 64 ways, or a way count that is not a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `set` is empty.
    pub fn pick<L: LineAge>(&mut self, set: &[L], plru: &PlruBits) -> usize {
        assert!(!set.is_empty(), "cannot pick a victim from an empty set");
        match self.policy {
            ReplacementPolicy::Plru if PlruBits::covers(set.len()) => plru.victim(set.len()),
            ReplacementPolicy::Lru | ReplacementPolicy::Plru => oldest_by(set, L::last_touch),
            ReplacementPolicy::Fifo => oldest_by(set, L::filled_at),
            ReplacementPolicy::Random(_) => {
                let rng = self.rng.as_mut().expect("random picker carries an rng");
                rng.gen_range(0..set.len())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plru_last_touched_is_not_victim() {
        let ways = 8;
        let mut bits = PlruBits::default();
        for w in 0..ways {
            bits.touch(w, ways);
            assert_ne!(bits.victim(ways), w, "victim must differ from MRU way");
        }
    }

    #[test]
    fn plru_cycles_through_all_ways_under_round_robin_touch() {
        // Touching the victim each time must eventually visit every way.
        let ways = 4;
        let mut bits = PlruBits::default();
        let mut seen = [false; 4];
        for _ in 0..16 {
            let v = bits.victim(ways);
            seen[v] = true;
            bits.touch(v, ways);
        }
        assert!(seen.iter().all(|&s| s), "seen = {seen:?}");
    }

    #[test]
    fn lru_picks_oldest_touch() {
        let mut p = VictimPicker::new(ReplacementPolicy::Lru);
        let meta = [(5, 0), (2, 1), (9, 2)];
        assert_eq!(p.pick(&meta, &PlruBits::default()), 1);
    }

    #[test]
    fn fifo_picks_oldest_fill() {
        let mut p = VictimPicker::new(ReplacementPolicy::Fifo);
        let meta = [(5, 7), (2, 3), (9, 1)];
        assert_eq!(p.pick(&meta, &PlruBits::default()), 2);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_in_range() {
        let meta = [(0, 0); 6];
        let picks1: Vec<usize> = {
            let mut p = VictimPicker::new(ReplacementPolicy::Random(42));
            (0..20)
                .map(|_| p.pick(&meta, &PlruBits::default()))
                .collect()
        };
        let picks2: Vec<usize> = {
            let mut p = VictimPicker::new(ReplacementPolicy::Random(42));
            (0..20)
                .map(|_| p.pick(&meta, &PlruBits::default()))
                .collect()
        };
        assert_eq!(picks1, picks2);
        assert!(picks1.iter().all(|&w| w < 6));
        assert!(
            picks1
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len()
                > 1
        );
    }

    #[test]
    fn plru_policy_falls_back_to_lru_for_non_power_of_two() {
        let mut p = VictimPicker::new(ReplacementPolicy::Plru);
        let meta = [(5, 0), (1, 1), (9, 2)];
        assert_eq!(p.pick(&meta, &PlruBits::default()), 1);
    }

    #[test]
    fn plru_policy_falls_back_to_lru_above_64_ways() {
        // One u64 holds a 64-way tree at most; a 128-way set must take
        // the LRU fallback instead of walking past the word.
        let mut p = VictimPicker::new(ReplacementPolicy::Plru);
        let mut meta: Vec<(u64, u64)> = (0..128).map(|w| (1000 - w, w)).collect();
        meta[77].0 = 0;
        assert_eq!(p.pick(&meta, &PlruBits::default()), 77);
        assert!(PlruBits::covers(64) && !PlruBits::covers(128));
    }
}
