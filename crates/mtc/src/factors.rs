//! Factor isolation for the traffic-inefficiency gap (Tables 9–10).
//!
//! Each factor toggles exactly one cache property between two experiment
//! configurations; the reported gap is the *difference in traffic
//! inefficiency* `G(exp1) − G(exp2)` against the common reference MTC
//! (the write-validate MTC used throughout §5, per the Figure 4 caption).

use crate::min::{MinCache, MinConfig, MinWritePolicy};
use crate::nextuse::NextUseIndex;
use membw_cache::{Associativity, Cache, CacheConfig};
use membw_trace::{MemRef, Workload};
use serde::{Deserialize, Serialize};

/// One side of a factor experiment (a row of Table 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactorExperiment {
    /// An LRU cache: `(associativity, block_size)`, write-allocate,
    /// write-back.
    Lru(Associativity, u64),
    /// A fully-associative **min** cache: `(block_size, write policy)`,
    /// write-back, no bypass (bypass is folded into **min**'s victim
    /// choice for the factor studies).
    Min(u64, MinWritePolicy),
}

impl FactorExperiment {
    /// Simulate this experiment at `capacity_bytes` over `refs` and
    /// return total traffic below in bytes.
    pub fn traffic(&self, capacity_bytes: u64, refs: &[MemRef]) -> u64 {
        match *self {
            FactorExperiment::Lru(assoc, block) => {
                let cfg = CacheConfig::builder(capacity_bytes, block)
                    .associativity(assoc)
                    .build()
                    .expect("factor experiment geometry is valid");
                let mut c = Cache::new(cfg);
                for &r in refs {
                    c.access(r);
                }
                c.flush().traffic_below()
            }
            FactorExperiment::Min(block, write) => {
                let cfg = MinConfig::new(capacity_bytes, block, write, true);
                MinCache::simulate(&cfg, refs).traffic_below()
            }
        }
    }

    /// Compact label, e.g. `LRU,1a,32B,WA`.
    pub fn label(&self) -> String {
        match *self {
            FactorExperiment::Lru(assoc, block) => {
                let a = match assoc {
                    Associativity::Ways(n) => format!("{n}a"),
                    Associativity::Full => "fa".to_string(),
                };
                format!("LRU,{a},{block}B,WA")
            }
            FactorExperiment::Min(block, write) => {
                let w = match write {
                    MinWritePolicy::Allocate => "WA",
                    MinWritePolicy::Validate => "WV",
                };
                format!("MIN,fa,{block}B,{w}")
            }
        }
    }
}

/// A named factor: the pair of experiments that isolate it (Table 10).
#[derive(Debug, Clone, Copy)]
pub struct FactorSpec {
    /// Factor name as in Table 9 (e.g. `"Associativity"`).
    pub name: &'static str,
    /// Baseline experiment.
    pub exp1: FactorExperiment,
    /// Improved experiment.
    pub exp2: FactorExperiment,
}

/// The five factor rows of Table 10.
pub const TABLE10_FACTORS: [FactorSpec; 5] = [
    FactorSpec {
        name: "Associativity",
        exp1: FactorExperiment::Lru(Associativity::Ways(1), 32),
        exp2: FactorExperiment::Lru(Associativity::Full, 32),
    },
    FactorSpec {
        name: "Replacement",
        exp1: FactorExperiment::Lru(Associativity::Full, 32),
        exp2: FactorExperiment::Min(32, MinWritePolicy::Allocate),
    },
    FactorSpec {
        name: "Blocksize (cache)",
        exp1: FactorExperiment::Lru(Associativity::Ways(1), 32),
        exp2: FactorExperiment::Lru(Associativity::Ways(1), 4),
    },
    FactorSpec {
        name: "Blocksize (MTC)",
        exp1: FactorExperiment::Min(32, MinWritePolicy::Allocate),
        exp2: FactorExperiment::Min(4, MinWritePolicy::Allocate),
    },
    FactorSpec {
        name: "Write validate",
        exp1: FactorExperiment::Min(4, MinWritePolicy::Allocate),
        exp2: FactorExperiment::Min(4, MinWritePolicy::Validate),
    },
];

/// Result of isolating one factor for one workload (a cell of Table 9).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FactorGap {
    /// Factor name.
    pub factor: String,
    /// Workload name.
    pub workload: String,
    /// Capacity used.
    pub capacity_bytes: u64,
    /// Inefficiency of experiment 1 against the reference MTC.
    pub g_exp1: f64,
    /// Inefficiency of experiment 2 against the reference MTC.
    pub g_exp2: f64,
}

impl FactorGap {
    /// The Table 9 value: `G(exp1) − G(exp2)`. Negative values mean the
    /// "improvement" increased traffic (as the paper observes for
    /// Dnasa7's associativity factor).
    pub fn delta(&self) -> f64 {
        self.g_exp1 - self.g_exp2
    }
}

/// Measure one factor's inefficiency gap for `workload` at
/// `capacity_bytes`.
///
/// Returns `None` if the reference MTC generated no traffic (degenerate
/// trace).
pub fn factor_gap<W: Workload + ?Sized>(
    spec: &FactorSpec,
    workload: &W,
    capacity_bytes: u64,
) -> Option<FactorGap> {
    let refs = workload.collect_mem_refs();
    let mtc = MinCache::simulate(&MinConfig::mtc(capacity_bytes), &refs);
    let d_mtc = mtc.traffic_below();
    if d_mtc == 0 {
        return None;
    }
    let t1 = spec.exp1.traffic(capacity_bytes, &refs);
    let t2 = spec.exp2.traffic(capacity_bytes, &refs);
    Some(FactorGap {
        factor: spec.name.to_string(),
        workload: workload.name().to_string(),
        capacity_bytes,
        g_exp1: t1 as f64 / d_mtc as f64,
        g_exp2: t2 as f64 / d_mtc as f64,
    })
}

/// Measure *every* Table 10 factor for `workload` at `capacity_bytes`
/// in one shot, returning one entry per [`TABLE10_FACTORS`] row in
/// order.
///
/// Produces exactly the values of calling [`factor_gap`] per row, but
/// collects the reference stream once, builds one next-use index per
/// distinct **min** block size (shared by the reference MTC and every
/// **min** experiment at that granularity), and simulates each of the
/// six unique experiments once even though the five rows reference
/// them nine times. Entries are `None` only when the reference MTC
/// generated no traffic (degenerate trace), which holds for all rows
/// at once.
pub fn factor_gaps<W: Workload + ?Sized>(
    workload: &W,
    capacity_bytes: u64,
) -> Vec<Option<FactorGap>> {
    let refs = workload.collect_mem_refs();

    // block size -> next-use index, built lazily on first use. The
    // index is the dominant allocation (16 bytes per reference); report
    // it to the context's governor like any other sweep buffer.
    let mut indices: Vec<(u64, NextUseIndex)> = Vec::new();
    fn index_at<'a>(
        indices: &'a mut Vec<(u64, NextUseIndex)>,
        refs: &[MemRef],
        block: u64,
    ) -> &'a NextUseIndex {
        if let Some(i) = indices.iter().position(|(b, _)| *b == block) {
            return &indices[i].1;
        }
        membw_runner::RunCtx::current()
            .governor
            .observe_arena_bytes(refs.len() as u64 * 16);
        indices.push((block, NextUseIndex::build(refs, block)));
        &indices.last().expect("just pushed").1
    }

    let mtc_cfg = MinConfig::mtc(capacity_bytes);
    let d_mtc = {
        let idx = index_at(&mut indices, &refs, mtc_cfg.block_size);
        MinCache::simulate_with_index(&mtc_cfg, &refs, idx).traffic_below()
    };
    if d_mtc == 0 {
        return TABLE10_FACTORS.iter().map(|_| None).collect();
    }

    let mut computed: Vec<(FactorExperiment, u64)> = Vec::new();
    TABLE10_FACTORS
        .iter()
        .map(|spec| {
            let mut traffic_of = |exp: FactorExperiment| -> u64 {
                if let Some(&(_, t)) = computed.iter().find(|(e, _)| *e == exp) {
                    return t;
                }
                let t = match exp {
                    FactorExperiment::Lru(..) => exp.traffic(capacity_bytes, &refs),
                    FactorExperiment::Min(block, write) => {
                        // Same configuration `FactorExperiment::traffic`
                        // builds, against the shared index.
                        let cfg = MinConfig::new(capacity_bytes, block, write, true);
                        let idx = index_at(&mut indices, &refs, block);
                        MinCache::simulate_with_index(&cfg, &refs, idx).traffic_below()
                    }
                };
                computed.push((exp, t));
                t
            };
            let t1 = traffic_of(spec.exp1);
            let t2 = traffic_of(spec.exp2);
            Some(FactorGap {
                factor: spec.name.to_string(),
                workload: workload.name().to_string(),
                capacity_bytes,
                g_exp1: t1 as f64 / d_mtc as f64,
                g_exp2: t2 as f64 / d_mtc as f64,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use membw_trace::pattern::{UniformRandom, Zipf};

    #[test]
    fn labels_match_table_10() {
        assert_eq!(TABLE10_FACTORS[0].exp1.label(), "LRU,1a,32B,WA");
        assert_eq!(TABLE10_FACTORS[0].exp2.label(), "LRU,fa,32B,WA");
        assert_eq!(TABLE10_FACTORS[1].exp2.label(), "MIN,fa,32B,WA");
        assert_eq!(TABLE10_FACTORS[4].exp2.label(), "MIN,fa,4B,WV");
    }

    #[test]
    fn block_size_factor_dominates_for_no_spatial_locality() {
        // Uniform random single-word touches over a large extent: 32-byte
        // blocks waste 8x traffic, so the cache block-size factor is large
        // and positive.
        let w = UniformRandom::new(0, 1 << 20, 30_000, 21);
        let spec = &TABLE10_FACTORS[2];
        let gap = factor_gap(spec, &w, 16 * 1024).expect("traffic exists");
        assert!(gap.delta() > 1.0, "delta = {}", gap.delta());
    }

    #[test]
    fn write_validate_factor_positive_for_write_heavy_code() {
        let w = UniformRandom::new(0, 1 << 20, 30_000, 22).with_write_fraction(0.5);
        let gap = factor_gap(&TABLE10_FACTORS[4], &w, 16 * 1024).expect("traffic exists");
        assert!(gap.delta() > 0.0, "WV must cut write-fetch traffic");
    }

    #[test]
    fn replacement_factor_non_negative_on_reuse_heavy_code() {
        let w = Zipf::new(0, 4096, 16, 50_000, 0.9, 23);
        let gap = factor_gap(&TABLE10_FACTORS[1], &w, 4096).expect("traffic exists");
        // min replacement cannot generate more misses than LRU; traffic
        // differences from write-backs are second-order here.
        assert!(gap.delta() > -0.5, "delta = {}", gap.delta());
    }

    #[test]
    fn factor_gap_none_for_empty_trace() {
        use membw_trace::VecWorkload;
        let w = VecWorkload::new("empty", vec![]);
        assert!(factor_gap(&TABLE10_FACTORS[0], &w, 1024).is_none());
        assert!(factor_gaps(&w, 1024).iter().all(Option::is_none));
    }

    #[test]
    fn factor_gaps_match_per_factor_measurement() {
        // The one-shot sweep must reproduce every per-factor value
        // bit for bit (same integer traffic, same f64 division).
        let w = Zipf::new(0, 2048, 16, 20_000, 0.8, 31).with_write_fraction(0.3);
        let all = factor_gaps(&w, 8 * 1024);
        assert_eq!(all.len(), TABLE10_FACTORS.len());
        for (spec, got) in TABLE10_FACTORS.iter().zip(&all) {
            let want = factor_gap(spec, &w, 8 * 1024).expect("traffic exists");
            let got = got.as_ref().expect("traffic exists");
            assert_eq!(got.factor, want.factor);
            assert_eq!(got.workload, want.workload);
            assert_eq!(got.capacity_bytes, want.capacity_bytes);
            assert_eq!(got.g_exp1.to_bits(), want.g_exp1.to_bits(), "{}", spec.name);
            assert_eq!(got.g_exp2.to_bits(), want.g_exp2.to_bits(), "{}", spec.name);
        }
    }
}
