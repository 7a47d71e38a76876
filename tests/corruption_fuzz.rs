//! Deterministic mutation-fuzz harness over every artifact the
//! pipeline persists or caches: `.mwtr` trace bytes, checkpoint files,
//! and in-memory trace arenas.
//!
//! 1100 seeded mutations (bit flips, random-byte splices, truncations)
//! with two invariants, checked on every single one:
//!
//! * **never panic** — a mutated artifact yields a structured error or
//!   a quarantine-and-recompute, not a crash;
//! * **never silently wrong** — whenever the pipeline accepts an
//!   artifact, the data it serves is byte-for-byte the clean data.
//!
//! Seeds are fixed (`SmallRng::seed_from_u64`), so a failure reproduces
//! exactly; the CI fuzz-smoke job runs this same harness.

use membw::analytic::ecm::{self, TrafficGeometry};
use membw::runner::{CheckpointConfig, RunCtx, Runner};
use membw::trace::io::{read_refs, write_refs};
use membw::trace::pattern::Zipf;
use membw::trace::replay::TraceCache;
use membw::trace::signature::{compute_signature, SignatureCache, SignatureStore};
use membw::trace::{MemRef, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fs;

const TRACE_MUTATIONS: u64 = 400;
const CHECKPOINT_MUTATIONS: u64 = 400;
const ARENA_MUTATIONS: u64 = 300;
const SIGNATURE_MUTATIONS: u64 = 300;

/// Apply one seeded mutation in place: a bit flip, a byte splice, or a
/// truncation (occasionally to empty).
fn mutate(bytes: &mut Vec<u8>, rng: &mut SmallRng) {
    if bytes.is_empty() {
        return;
    }
    match rng.gen_range(0u32..4) {
        0 => {
            let pos = rng.gen_range(0..bytes.len());
            bytes[pos] ^= 1 << rng.gen_range(0u32..8);
        }
        1 => {
            let pos = rng.gen_range(0..bytes.len());
            bytes[pos] = (rng.gen::<u32>() & 0xff) as u8;
        }
        2 => {
            let keep = rng.gen_range(0..bytes.len());
            bytes.truncate(keep);
        }
        _ => {
            // Short-write shape: drop a small tail, as a torn write
            // that survived a crash would.
            let cut = rng.gen_range(1..=bytes.len().min(16));
            bytes.truncate(bytes.len() - cut);
        }
    }
}

#[test]
fn mutated_trace_bytes_never_panic_and_never_corrupt() {
    let w = Zipf::new(0, 4096, 16, 2_000, 0.7, 3).with_write_fraction(0.25);
    let clean: Vec<MemRef> = w.collect_mem_refs();
    let mut sealed = Vec::new();
    write_refs(&mut sealed, &clean).expect("write clean trace");

    let mut rejected = 0u64;
    for i in 0..TRACE_MUTATIONS {
        let mut rng = SmallRng::seed_from_u64(0xA5A5_0000 + i);
        let mut bytes = sealed.clone();
        mutate(&mut bytes, &mut rng);
        if bytes == sealed {
            continue; // truncation of 0 bytes etc. — nothing mutated
        }
        match read_refs(&bytes[..]) {
            // A mutation the reader accepts must be semantically inert
            // (e.g. a checksum-preserving no-op); anything else is
            // silent corruption.
            Ok(refs) => assert_eq!(
                refs, clean,
                "seed {i}: reader accepted a mutated trace with different data"
            ),
            Err(_) => rejected += 1,
        }
    }
    assert!(
        rejected > TRACE_MUTATIONS / 2,
        "most mutations must be structurally rejected, got {rejected}"
    );
}

#[test]
fn mutated_checkpoint_files_never_panic_and_never_corrupt() {
    let root = std::env::temp_dir().join(format!("membw_fuzz_ckpt_{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let cfg = Some(CheckpointConfig {
        root: root.clone(),
        resume: true,
    });
    // Two jobs with float payloads: exercises the JSON round trip.
    let job = |i: usize| -> Vec<f64> {
        (0..8)
            .map(|k| (i * 8 + k) as f64 * 0.1 + 1.0 / (k + 1) as f64)
            .collect()
    };
    let clean: Vec<Vec<f64>> = RunCtx {
        checkpoint: cfg.clone(),
        ..RunCtx::current().child()
    }
    .enter(|| Runner::new(1).checkpointed("fuzz", "v1/fuzz/2", 2, job))
    .into_iter()
    .map(|r| r.expect("clean run"))
    .collect();

    // The archived artifact for job 0, re-mutated from clean bytes on
    // every iteration.
    let dir = fs::read_dir(&root)
        .expect("batch dir exists")
        .flatten()
        .next()
        .expect("one batch")
        .path();
    let artifact = dir.join("0.json");
    let clean_bytes = fs::read(&artifact).expect("artifact exists");

    for i in 0..CHECKPOINT_MUTATIONS {
        let mut rng = SmallRng::seed_from_u64(0xC4D5_0000 + i);
        let mut bytes = clean_bytes.clone();
        mutate(&mut bytes, &mut rng);
        fs::write(&artifact, &bytes).expect("write mutated artifact");
        let resumed: Vec<Vec<f64>> = RunCtx {
            checkpoint: cfg.clone(),
            ..RunCtx::current().child()
        }
        .enter(|| Runner::new(1).checkpointed("fuzz", "v1/fuzz/2", 2, job))
        .into_iter()
        .map(|r| r.expect("resume never fails outright"))
        .collect();
        // Bit-exact: a quarantined artifact is recomputed, an accepted
        // one must carry exactly the clean values.
        assert_eq!(resumed, clean, "seed {i}: resume served corrupt data");
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn mutated_signature_files_never_yield_a_wrong_prediction() {
    let root = std::env::temp_dir().join(format!("membw_fuzz_sig_{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let w = Zipf::new(0, 4096, 16, 2_000, 0.7, 3).with_write_fraction(0.25);
    let clean = compute_signature("fuzz", "Test", &w);
    // The reference prediction every accepted-or-recomputed signature
    // must reproduce exactly.
    let clean_pred = ecm::predict_traffic(
        &clean.kernel,
        32,
        64 * 1024,
        TrafficGeometry::Assoc { ways: 1 },
    )
    .expect("32 B histogram recorded");

    let store = SignatureStore::open(&root).expect("open signature store");
    store.save(&clean).expect("persist clean signature");
    let path = store.path_for("fuzz", "Test");
    let clean_bytes = fs::read(&path).expect("signature file exists");

    let mut rejected = 0u64;
    for i in 0..SIGNATURE_MUTATIONS {
        let mut rng = SmallRng::seed_from_u64(0x51D0_0000 + i);
        let mut bytes = clean_bytes.clone();
        mutate(&mut bytes, &mut rng);
        if bytes == clean_bytes {
            continue;
        }
        fs::write(&path, &bytes).expect("write mutated signature");
        // Load path: either the seal check quarantines the file (and a
        // fresh cache recomputes the exact clean signature), or the
        // accepted content IS the clean signature. Either way the
        // prediction downstream is bit-identical — a damaged signature
        // can cost a recompute, never a wrong prediction.
        match store.load("fuzz", "Test") {
            Some(sig) => assert_eq!(
                sig, clean,
                "seed {i}: store accepted a mutated signature with different data"
            ),
            None => {
                rejected += 1;
                assert!(
                    !path.exists(),
                    "seed {i}: corrupt entry must be quarantined"
                );
                let cache =
                    SignatureCache::with_store(Some(SignatureStore::open(&root).expect("reopen")));
                let recomputed = cache.get_or_compute("fuzz", "Test", &w);
                assert_eq!(*recomputed, clean, "seed {i}: recompute must match clean");
            }
        }
        let served = store
            .load("fuzz", "Test")
            .expect("entry re-persisted after recompute");
        let pred = ecm::predict_traffic(
            &served.kernel,
            32,
            64 * 1024,
            TrafficGeometry::Assoc { ways: 1 },
        )
        .expect("32 B histogram recorded");
        assert_eq!(
            pred.bytes.to_bits(),
            clean_pred.bytes.to_bits(),
            "seed {i}: prediction drifted"
        );
        assert_eq!(
            pred.bound.to_bits(),
            clean_pred.bound.to_bits(),
            "seed {i}: bound drifted"
        );
        // Restore the sealed clean bytes for the next mutation round.
        fs::write(&path, &clean_bytes).expect("restore clean signature");
    }
    assert!(
        rejected > SIGNATURE_MUTATIONS / 2,
        "most mutations must be structurally rejected, got {rejected}"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn mutated_trace_arenas_never_panic_and_never_corrupt() {
    let cache = TraceCache::with_budget(64 * 1024 * 1024);
    let w = Zipf::new(0, 4096, 16, 2_000, 0.7, 3).with_write_fraction(0.25);
    let clean: Vec<MemRef> = w.collect_mem_refs();
    let first = cache.get_or_record("fuzz", "t", &w).expect("cache enabled");
    assert_eq!(first.collect_mem_refs(), clean);

    for i in 0..ARENA_MUTATIONS {
        let mut rng = SmallRng::seed_from_u64(0xBEEF_0000 + i);
        let failures_before = cache.stats().verify_failures;
        assert!(
            cache.corrupt_cached_trace("fuzz", "t", rng.gen::<u64>()),
            "seed {i}: recording must be resident"
        );
        let served = cache.get_or_record("fuzz", "t", &w).expect("cache enabled");
        assert_eq!(
            served.collect_mem_refs(),
            clean,
            "seed {i}: cache served a corrupted arena"
        );
        assert_eq!(
            cache.stats().verify_failures,
            failures_before + 1,
            "seed {i}: the verify failure must be counted"
        );
    }
}
