//! The traced run: each crate's public functions called on the
//! scale-test inputs, inside recorded spans.
//!
//! The run makes three passes over the same work: a warm-up, an
//! untraced pass and a traced pass. Per-layer metrics come from the
//! traced pass only; its wall time minus the untraced pass's is the
//! tracing overhead. Every exact count must be equal in all passes and
//! equal to its pinned value.

use crate::expected::{self, CLI_TEST, EXACT_COUNTS};
use crate::serve::ANALYTIC_REL_PERMILLE;
use crate::span::Tracer;
use crate::stats::median;
use crate::{fresh_dir, Env, Report, JOBS};
use membw_core::analytic::ecm::{predict_time, predict_traffic, TrafficGeometry};
use membw_core::audit;
use membw_core::cache::{Associativity, Hierarchy};
use membw_core::fastpath;
use membw_core::mtc::{min_sweep, MinCache, MinConfig, MinWritePolicy};
use membw_core::run_fig4;
use membw_core::runner::{self, persist, CancelReason, CancelToken, CheckpointConfig};
use membw_core::service::{source, ServiceRequest, ServiceResponse, STATS_TARGET};
use membw_core::sim::{decompose, Experiment, MachineSpec};
use membw_core::sweep::{sweep_lru, SweepMode, SweepSpec};
use membw_core::targets;
use membw_core::trace::signature::{compute_signature, SIG_DIR_ENV};
use membw_core::trace::{CountSink, MemRef, RecordedTrace, TraceSignature, Workload};
use membw_core::workloads::{suite92, suite95, Benchmark, Scale, Suite};
use membw_serve::{client, serve, Endpoint, ResultStore, ServeConfig, Server};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Targets rendered in-process (the union of both CLI workloads).
const RENDERED: [&str; 5] = ["fig3", "fig4", "table7", "table8", "table9"];
/// Figure 4's benchmarks, the inputs of the MIN and sweep probes.
const FIG4_BENCHMARKS: [&str; 3] = ["compress", "eqntott", "swm"];
/// Capacities of the direct MIN probe (Table 8's MTC sizes span these).
const MIN_CAPACITIES: [u64; 3] = [1 << 10, 16 << 10, 256 << 10];
/// Words per array of the host copy loop (16 MiB each).
const COPY_WORDS: usize = 2 << 20;
/// Repetitions of the host copy loop.
const COPY_REPS: u64 = 20;
/// Calls of each ECM predictor per signature.
const PREDICT_REPS: u64 = 20_000;
/// Repetitions of each microsecond-scale serve and persist probe.
const MICRO_REPS: u64 = 200;
/// Durable checkpoint writes timed (each one fsyncs).
const PERSIST_REPS: u64 = 30;
/// Bytes of one fig3 job checkpoint.
const CHECKPOINT_BYTES: usize = 414;

/// Exact counts of one pass, by name.
type Counts = BTreeMap<&'static str, u64>;

/// What one pass yields besides its spans.
struct PassOut {
    counts: Counts,
    /// Summed per-job time of the in-process renders.
    busy_s: f64,
}

/// Which end-to-end metric, on which workload, each per-layer metric
/// should move (the interaction list of `membench/README.md`).
const MOVES: &[(&str, &str)] = &[
    (
        "host.",
        "none: the host ceiling per-layer bandwidths are read against",
    ),
    (
        "trace.record",
        "op_p50_ms on cli-timing and cli-traffic; setup_s on serve-mix",
    ),
    ("trace.replay", "op_p50_ms on cli-timing and cli-traffic"),
    ("trace.arena", "peak_rss_mb on all workloads"),
    ("trace.signature", "setup_s on serve-mix"),
    (
        "cache.",
        "op_p50_ms on cli-timing; on cli-traffic via the direct-Cache cells",
    ),
    (
        "sim.",
        "op_p50_ms on cli-timing; no move on cli-traffic or serve-mix",
    ),
    ("mtc.", "op_p50_ms on cli-traffic; no move on cli-timing"),
    ("sweep.", "op_p50_ms on cli-traffic"),
    (
        "analytic.",
        "setup_s on serve-mix only; no move on the analytic latency",
    ),
    ("runner.", "op_p50_ms on cli-timing and cli-traffic"),
    ("persist.", "op_p50_ms on cli-timing and cli-traffic"),
    (
        "core.",
        "op_p50_ms of the CLI workload rendering that target",
    ),
    (
        "serve.store",
        "ops_per_s and the tail latency on serve-mix, not the store median",
    ),
    ("serve.frame", "tail latency on serve-mix"),
    ("serve.handle", "op_p50_ms on serve-mix"),
    ("serve.transport", "op_p50_ms on serve-mix"),
    ("serve.stats", "none: exact counters of the probe daemon"),
    ("bench.", "none: the cost of tracing itself"),
];

fn moves(metric: &str) -> &'static str {
    MOVES
        .iter()
        .find(|(prefix, _)| metric.starts_with(prefix))
        .map_or("", |(_, m)| m)
}

fn machine(suite: Suite, e: Experiment) -> MachineSpec {
    match suite {
        Suite::Spec92 => MachineSpec::spec92(e),
        Suite::Spec95 => MachineSpec::spec95(e),
    }
}

fn store_request(target: &str) -> ServiceRequest {
    let mut req = ServiceRequest::new(target);
    req.scale = "test".to_string();
    req
}

fn analytic_request(target: &str) -> ServiceRequest {
    let mut req = store_request(target);
    req.analytic_rel_permille = ANALYTIC_REL_PERMILLE;
    req
}

fn expect_source(resp: &ServiceResponse, want: &str) -> Result<(), String> {
    match resp {
        ServiceResponse::Ok { source, .. } if source == want => Ok(()),
        other => Err(format!("expected a {want} reply, got {other:?}")),
    }
}

/// The STREAM-style copy loop: two 16 MiB arrays.
fn host_layer(tr: &mut Tracer) {
    let a = vec![1.0f64; COPY_WORDS];
    let mut b = vec![0.0f64; COPY_WORDS];
    for i in 0..COPY_REPS {
        tr.set_sample(i);
        tr.span("host.copy", |_| {
            b.copy_from_slice(black_box(&a));
            black_box(&mut b);
        });
    }
}

/// Record, replay and sign every scale-test benchmark.
fn trace_layer(
    tr: &mut Tracer,
    benches: &[Benchmark],
    c: &mut Counts,
) -> Result<(Vec<RecordedTrace>, Vec<TraceSignature>), String> {
    let traces: Vec<RecordedTrace> = tr.span("trace.record", |_| {
        benches
            .iter()
            .map(|b| RecordedTrace::record(b.workload()))
            .collect()
    });
    let uops: u64 = traces.iter().map(|t| t.len() as u64).sum();
    c.insert("trace.uops", uops);
    c.insert(
        "trace.mem_refs",
        traces.iter().map(|t| t.num_mem_refs() as u64).sum(),
    );
    c.insert(
        "trace.arena_bytes",
        traces.iter().map(RecordedTrace::arena_bytes).sum(),
    );
    let replayed: u64 = tr.span("trace.replay", |_| {
        traces
            .iter()
            .map(|t| {
                let mut sink = CountSink::new();
                t.generate(&mut sink);
                sink.uops
            })
            .sum()
    });
    if replayed != uops {
        return Err(format!(
            "replay produced {replayed} uops of {uops} recorded"
        ));
    }
    let sigs = tr.span("trace.signature", |_| {
        benches
            .iter()
            .zip(&traces)
            .map(|(b, t)| compute_signature(b.name(), b.variant(), t))
            .collect()
    });
    Ok((traces, sigs))
}

/// The spec92 L1/L2 cascade over every spec92 benchmark's references.
fn cache_layer(tr: &mut Tracer, benches: &[Benchmark], traces: &[RecordedTrace], c: &mut Counts) {
    let mem = MachineSpec::spec92(Experiment::A).mem;
    let refs: Vec<Vec<MemRef>> = benches
        .iter()
        .zip(traces)
        .filter(|(b, _)| b.suite() == Suite::Spec92)
        .map(|(_, t)| t.collect_mem_refs())
        .collect();
    let (accesses, misses) = tr.span("cache.hierarchy", |_| {
        let (mut accesses, mut misses) = (0u64, 0u64);
        for r in &refs {
            let mut h = Hierarchy::new(vec![mem.l1_config(), mem.l2_config()]);
            for &x in r {
                h.access(x);
            }
            accesses += r.len() as u64;
            misses += h.stats().iter().map(|s| s.demand_misses()).sum::<u64>();
        }
        (accesses, misses)
    });
    c.insert("cache.accesses", accesses);
    c.insert("cache.misses", misses);
}

/// The three-run decomposition on the in-order (A) and RUU (F) cores.
fn sim_layer(tr: &mut Tracer, benches: &[Benchmark], traces: &[RecordedTrace], c: &mut Counts) {
    let mut cycles = 0u64;
    for (name, e) in [("sim.inorder", Experiment::A), ("sim.ruu", Experiment::F)] {
        let uops: u64 = tr.span(name, |_| {
            benches
                .iter()
                .zip(traces)
                .map(|(b, t)| {
                    let d = decompose(t, &machine(b.suite(), e));
                    cycles += d.t_p + d.t_i + d.t;
                    // Three simulations of the stream: T_P, T_I and T.
                    3 * d.uops
                })
                .sum()
        });
        c.insert(
            if e == Experiment::A {
                "sim.inorder_uops"
            } else {
                "sim.ruu_uops"
            },
            uops,
        );
    }
    c.insert("sim.cycles", cycles);
}

/// MIN, the MIN sweep and the LRU sweep over Figure 4's inputs.
fn traffic_layer(tr: &mut Tracer, benches: &[Benchmark], traces: &[RecordedTrace], c: &mut Counts) {
    let refs: Vec<Vec<MemRef>> = FIG4_BENCHMARKS
        .iter()
        .map(|name| {
            let i = benches
                .iter()
                .position(|b| b.name() == *name)
                .expect("Figure 4 benchmark");
            traces[i].collect_mem_refs()
        })
        .collect();
    let n_refs: u64 = refs.iter().map(|r| r.len() as u64).sum();
    let caps = run_fig4::sizes();

    let min_bytes: u64 = tr.span("mtc.min", |_| {
        refs.iter()
            .flat_map(|r| MIN_CAPACITIES.iter().map(move |&cap| (r, cap)))
            .map(|(r, cap)| MinCache::simulate(&MinConfig::mtc(cap), r).traffic_below())
            .sum()
    });
    c.insert("mtc.min_refs", n_refs * MIN_CAPACITIES.len() as u64);
    c.insert("mtc.min_bytes_below", min_bytes);

    let sweep_bytes: u64 = tr.span("mtc.min_sweep", |_| {
        let cfgs: Vec<MinConfig> = caps
            .iter()
            .map(|&s| MinConfig::new(s, 4, MinWritePolicy::Validate, true))
            .collect();
        refs.iter()
            .flat_map(|r| min_sweep(&cfgs, r))
            .map(|st| st.traffic_below())
            .sum()
    });
    c.insert("mtc.min_sweep_refs", n_refs);
    c.insert("mtc.min_sweep_bytes_below", sweep_bytes);

    let (mut swept, mut fallback, mut bytes) = (0u64, 0u64, 0u64);
    tr.span("sweep.lru", |_| {
        for r in &refs {
            for &block in &run_fig4::BLOCK_SIZES {
                let spec = SweepSpec::new(block).associativity(Associativity::Ways(4));
                let cells = sweep_lru(&spec, &caps, r).into_iter().flatten();
                for st in cells {
                    bytes += st.traffic_below();
                    if spec.unsupported_reason().is_none() {
                        swept += 1;
                    } else {
                        fallback += 1;
                    }
                }
            }
        }
    });
    c.insert(
        "sweep.lru_refs",
        n_refs * run_fig4::BLOCK_SIZES.len() as u64,
    );
    c.insert("sweep.swept_cells", swept);
    c.insert("sweep.fallback_cells", fallback);
    c.insert("sweep.bytes_below", bytes);
}

/// The ECM time and traffic predictors on every benchmark signature.
fn analytic_layer(tr: &mut Tracer, sigs: &[TraceSignature], c: &mut Counts) {
    let cfg = fastpath::ecm_config(&MachineSpec::spec92(Experiment::A));
    let time_some = tr.span("analytic.predict_time", |_| {
        let mut some = 0u64;
        for _ in 0..PREDICT_REPS {
            for s in sigs {
                some += u64::from(black_box(predict_time(black_box(&s.kernel), &cfg)).is_some());
            }
        }
        some
    });
    let geom = TrafficGeometry::Assoc { ways: 1 };
    let traffic_some = tr.span("analytic.predict_traffic", |_| {
        let mut some = 0u64;
        for _ in 0..PREDICT_REPS {
            for s in sigs {
                let p = predict_traffic(black_box(&s.kernel), 32, 16 << 10, geom);
                some += u64::from(black_box(p).is_some());
            }
        }
        some
    });
    c.insert("analytic.calls", PREDICT_REPS * sigs.len() as u64);
    c.insert("analytic.time_predictions", time_some);
    c.insert("analytic.traffic_predictions", traffic_some);
}

/// Warm renders of every CLI target through the run engine, with the
/// engine's accounting, then durable checkpoint-sized writes.
fn core_layer(
    tr: &mut Tracer,
    dir: &Path,
    c: &mut Counts,
) -> Result<(BTreeMap<&'static str, String>, f64), String> {
    runner::set_checkpoint(Some(CheckpointConfig {
        root: dir.join("ck"),
        resume: false,
    }));
    let before = runner::metrics();
    let checks_before = audit::summary().checks;
    let mut outputs = BTreeMap::new();
    for t in RENDERED {
        let rendered = tr
            .span(&format!("core.render.{t}"), |_| {
                targets::render_target(t, Scale::Test, SweepMode::Stack)
            })
            .map_err(|e| format!("render {t}: {e}"))?;
        expected::check(expected::pin(&CLI_TEST, t), &rendered.stdout)?;
        outputs.insert(t, rendered.stdout);
    }
    let d = runner::metrics_delta(before, runner::metrics());
    c.insert("runner.jobs", d.jobs);
    c.insert("runner.retries", d.retries);
    c.insert("runner.failed", d.failures);
    c.insert("core.audit_checks", audit::summary().checks - checks_before);

    let path = dir.join("checkpoint.json");
    let payload = vec![b'x'; CHECKPOINT_BYTES];
    for i in 0..PERSIST_REPS {
        tr.set_sample(i);
        tr.span("persist.write_atomic", |_| {
            persist::write_atomic(&path, &payload)
        })
        .map_err(|(step, p, e)| format!("{step} {}: {e}", p.display()))?;
    }
    Ok((outputs, d.busy().as_secs_f64()))
}

/// The result store, wire framing, and a server handling requests
/// in-process and over a Unix socket.
fn serve_layer(
    tr: &mut Tracer,
    dir: &Path,
    outputs: &BTreeMap<&'static str, String>,
    c: &mut Counts,
) -> Result<(), String> {
    let store_dir = dir.join("store");
    let store = ResultStore::open(&store_dir).map_err(|e| format!("open store: {e}"))?;
    let key = |t: &str| store_request(t).coalesce_key();
    for i in 0..MICRO_REPS {
        tr.set_sample(i);
        tr.span("serve.store_save", |_| {
            store.save(&key("fig4"), &outputs["fig4"])
        })
        .map_err(|(step, p, e)| format!("{step} {}: {e}", p.display()))?;
    }
    store
        .save(&key("table7"), &outputs["table7"])
        .map_err(|(step, p, e)| format!("{step} {}: {e}", p.display()))?;
    for t in ["fig4", "table7"] {
        for i in 0..MICRO_REPS {
            tr.set_sample(i);
            let loaded = tr.span(&format!("serve.store_load.{t}"), |_| store.load(&key(t)));
            if loaded.as_deref() != Some(outputs[t].as_str()) {
                return Err(format!("store load of {t} returned other bytes"));
            }
        }
    }
    drop(store);

    let fig4 = &outputs["fig4"];
    let frame = ServiceResponse::Ok {
        target: "fig4".to_string(),
        scale: "test".to_string(),
        sweep: "stack".to_string(),
        source: source::STORE.to_string(),
        fnv64: format!("{:016x}", persist::fnv64(fig4)),
        jobs: 0,
        resumed: 0,
        model: None,
        bound_rel_permille: None,
        stdout: fig4.clone(),
    };
    for i in 0..MICRO_REPS {
        tr.set_sample(i);
        let line = tr
            .span("serve.frame_encode", |_| serde_json::to_string(&frame))
            .map_err(|e| format!("encode frame: {e}"))?;
        let back = tr
            .span("serve.frame_decode", |_| {
                serde_json::from_str::<ServiceResponse>(&line)
            })
            .map_err(|e| format!("decode frame: {e}"))?;
        if back != frame {
            return Err("a fig4 frame did not survive encode and decode".to_string());
        }
    }

    let config = ServeConfig {
        analytic: true,
        max_inflight: JOBS,
        ..ServeConfig::default()
    };
    let store = ResultStore::open(&store_dir).map_err(|e| format!("reopen store: {e}"))?;
    let server = Arc::new(Server::new(config, store));
    let mut simulate = store_request("table8");
    simulate.analytic_rel_permille = 0;
    expect_source(&server.handle_request(&simulate), source::COMPUTED)?;
    // fig3 at scale test is not in the store, so it is answered
    // analytically; the first answer fills the server's memo.
    let analytic = analytic_request("fig3");
    expect_source(&server.handle_request(&analytic), source::ANALYTIC)?;
    let stored = store_request("fig4");
    for (name, req, want) in [
        ("serve.handle.store", &stored, source::STORE),
        ("serve.handle.analytic", &analytic, source::ANALYTIC),
    ] {
        for i in 0..MICRO_REPS {
            tr.set_sample(i);
            expect_source(&tr.span(name, |_| server.handle_request(req)), want)?;
        }
    }

    let endpoint = Endpoint::Unix(dir.join("probe.sock"));
    let listener = endpoint.listen().map_err(|e| format!("listen: {e}"))?;
    let cancel = CancelToken::new();
    let round_trips = std::thread::scope(|s| {
        let daemon = s.spawn(|| serve(&server, listener, &cancel));
        let mut result = Ok(());
        for i in 0..MICRO_REPS {
            tr.set_sample(i);
            let resp = tr.span("serve.round_trip", |_| {
                client::query(&endpoint, &stored, Some(Duration::from_secs(30)))
            });
            result = resp
                .map_err(|e| format!("round trip: {e}"))
                .and_then(|r| expect_source(&r, source::STORE));
            if result.is_err() {
                break;
            }
        }
        cancel.cancel(CancelReason::Interrupted);
        let served = daemon.join().expect("probe server thread panicked");
        result.and(served.map(drop).map_err(|e| format!("probe server: {e}")))
    });
    round_trips?;
    match server.handle_request(&ServiceRequest::new(STATS_TARGET)) {
        ServiceResponse::Stats(s) => {
            c.insert("serve.stats.store", s.store);
            c.insert("serve.stats.analytic", s.analytic);
            c.insert("serve.stats.simulated", s.simulated);
            c.insert("serve.stats.coalesced", s.coalesced);
            c.insert("serve.stats.rejected", s.rejected);
            Ok(())
        }
        other => Err(format!("stats request answered {other:?}")),
    }
}

/// One pass over every layer, recording into `tr`.
fn pass(tr: &mut Tracer, dir: &Path) -> Result<PassOut, String> {
    fresh_dir(dir)?;
    let mut c = Counts::new();
    host_layer(tr);
    let benches: Vec<Benchmark> = suite92(Scale::Test)
        .into_iter()
        .chain(suite95(Scale::Test))
        .collect();
    let (traces, sigs) = trace_layer(tr, &benches, &mut c)?;
    cache_layer(tr, &benches, &traces, &mut c);
    sim_layer(tr, &benches, &traces, &mut c);
    traffic_layer(tr, &benches, &traces, &mut c);
    analytic_layer(tr, &sigs, &mut c);
    let (outputs, busy_s) = core_layer(tr, dir, &mut c)?;
    serve_layer(tr, dir, &outputs, &mut c)?;
    Ok(PassOut { counts: c, busy_s })
}

/// Per-layer metrics of the traced pass.
fn metrics(tr: &Tracer, out: &PassOut) -> Vec<(String, f64, &'static str)> {
    let c = |k: &str| out.counts[k] as f64;
    let med_us = |name: &str| median(&tr.durations(name)) * 1e6;
    let copy_bytes = (2 * COPY_WORDS * std::mem::size_of::<f64>()) as f64;
    let copy_gbps: Vec<f64> = tr
        .durations("host.copy")
        .iter()
        .map(|d| copy_bytes / d / 1e9)
        .collect();
    let render_s: f64 = RENDERED
        .iter()
        .map(|t| tr.total(&format!("core.render.{t}")))
        .sum();
    let mut m = vec![
        ("host.copy_gbps".to_string(), median(&copy_gbps), "GB/s"),
        ("trace.record_s".to_string(), tr.total("trace.record"), "s"),
        (
            "trace.record_uops_per_s".to_string(),
            c("trace.uops") / tr.total("trace.record"),
            "1/s",
        ),
        (
            "trace.replay_uops_per_s".to_string(),
            c("trace.uops") / tr.total("trace.replay"),
            "1/s",
        ),
        (
            "trace.arena_bytes".to_string(),
            c("trace.arena_bytes"),
            "bytes",
        ),
        (
            "trace.signature_s".to_string(),
            tr.total("trace.signature"),
            "s",
        ),
        (
            "cache.hierarchy_ns_per_access".to_string(),
            tr.total("cache.hierarchy") / c("cache.accesses") * 1e9,
            "ns",
        ),
        ("cache.accesses".to_string(), c("cache.accesses"), "count"),
        ("cache.misses".to_string(), c("cache.misses"), "count"),
        (
            "sim.inorder_uops_per_s".to_string(),
            c("sim.inorder_uops") / tr.total("sim.inorder"),
            "1/s",
        ),
        (
            "sim.ruu_uops_per_s".to_string(),
            c("sim.ruu_uops") / tr.total("sim.ruu"),
            "1/s",
        ),
        ("sim.cycles".to_string(), c("sim.cycles"), "count"),
        (
            "mtc.min_refs_per_s".to_string(),
            c("mtc.min_refs") / tr.total("mtc.min"),
            "1/s",
        ),
        (
            "mtc.min_sweep_refs_per_s".to_string(),
            c("mtc.min_sweep_refs") / tr.total("mtc.min_sweep"),
            "1/s",
        ),
        (
            "sweep.lru_refs_per_s".to_string(),
            c("sweep.lru_refs") / tr.total("sweep.lru"),
            "1/s",
        ),
        (
            "sweep.swept_cells".to_string(),
            c("sweep.swept_cells"),
            "count",
        ),
        (
            "sweep.fallback_cells".to_string(),
            c("sweep.fallback_cells"),
            "count",
        ),
        (
            "sweep.bytes_below".to_string(),
            c("sweep.bytes_below"),
            "bytes",
        ),
        (
            "analytic.predict_time_ns".to_string(),
            tr.total("analytic.predict_time") / c("analytic.calls") * 1e9,
            "ns",
        ),
        (
            "analytic.predict_traffic_ns".to_string(),
            tr.total("analytic.predict_traffic") / c("analytic.calls") * 1e9,
            "ns",
        ),
        ("runner.jobs".to_string(), c("runner.jobs"), "count"),
        ("runner.retries".to_string(), c("runner.retries"), "count"),
        ("runner.failed".to_string(), c("runner.failed"), "count"),
        ("runner.busy_s".to_string(), out.busy_s, "s"),
        // Busy time over the wall time the pool's threads had; never
        // the summed-job-time-over-wall "speedup" of repro's stderr.
        (
            "runner.parallel_efficiency".to_string(),
            out.busy_s / (render_s * JOBS as f64),
            "ratio",
        ),
        (
            "persist.write_atomic_us".to_string(),
            med_us("persist.write_atomic"),
            "us",
        ),
    ];
    for t in RENDERED {
        m.push((
            format!("core.render_s.{t}"),
            tr.total(&format!("core.render.{t}")),
            "s",
        ));
    }
    m.push((
        "core.audit_checks".to_string(),
        c("core.audit_checks"),
        "count",
    ));
    m.push((
        "serve.store_load_us.fig4".to_string(),
        med_us("serve.store_load.fig4"),
        "us",
    ));
    m.push((
        "serve.store_load_us.table7".to_string(),
        med_us("serve.store_load.table7"),
        "us",
    ));
    m.push((
        "serve.store_save_us".to_string(),
        med_us("serve.store_save"),
        "us",
    ));
    m.push((
        "serve.frame_encode_us".to_string(),
        med_us("serve.frame_encode"),
        "us",
    ));
    m.push((
        "serve.frame_decode_us".to_string(),
        med_us("serve.frame_decode"),
        "us",
    ));
    m.push((
        "serve.handle_us.store".to_string(),
        med_us("serve.handle.store"),
        "us",
    ));
    m.push((
        "serve.handle_us.analytic".to_string(),
        med_us("serve.handle.analytic"),
        "us",
    ));
    m.push((
        "serve.transport_us".to_string(),
        med_us("serve.round_trip") - med_us("serve.handle.store"),
        "us",
    ));
    for k in ["store", "analytic", "simulated", "coalesced", "rejected"] {
        let name = format!("serve.stats.{k}");
        let v = out.counts[name.as_str()] as f64;
        m.push((name, v, "count"));
    }
    m
}

/// Run the traced benchmark.
pub fn run(env: &Env, workload: &str) -> Report {
    let mut r = Report::default();
    runner::set_jobs(JOBS);
    // The process's own signature cache lives in this run's scratch
    // directory, like every daemon's and CLI process's does.
    std::env::set_var(SIG_DIR_ENV, env.work.join("sig"));
    // Three passes over the same work: a warm-up that fills the
    // process-wide trace and signature caches and the allocator, then
    // an untraced and a traced pass that both find them warm.
    let timed = |tracer: &mut Tracer, name: &str| {
        let start = Instant::now();
        let out = pass(tracer, &env.work.join(name));
        (out, start.elapsed().as_secs_f64())
    };
    let (warm, _) = timed(&mut Tracer::new(false), "warm");
    let (untraced, untraced_s) = timed(&mut Tracer::new(false), "untraced");
    let mut tr = Tracer::new(true);
    let (traced, traced_s) = timed(&mut tr, "traced");
    let (warm, untraced, traced) = match (warm, untraced, traced) {
        (Ok(w), Ok(u), Ok(t)) => (w, u, t),
        (w, u, t) => {
            for e in [w.err(), u.err(), t.err()].into_iter().flatten() {
                r.fail(e);
            }
            return r;
        }
    };
    for other in [&warm, &untraced] {
        r.check(if other.counts == traced.counts {
            Ok(())
        } else {
            Err(format!(
                "exact counts differ between passes: {:?} vs {:?}",
                other.counts, traced.counts
            ))
        });
    }
    for (name, want) in EXACT_COUNTS {
        let got = traced.counts.get(name).copied();
        r.check(if got == Some(*want) {
            Ok(())
        } else {
            Err(format!("exact count {name} is {got:?}, pinned {want}"))
        });
    }

    let spans_path =
        Path::new("membench/out").join(format!("spans-{workload}-seed{}.json", env.seed));
    if let Err(e) = tr.write_json(&spans_path) {
        r.fail(format!("write {}: {e}", spans_path.display()));
    }
    r.line(format!(
        "per-layer metrics (traced pass); spans in {}",
        spans_path.display()
    ));
    r.line(format!(
        "{:<34} {:>16} {:<6} should move",
        "metric", "value", "unit"
    ));
    for (name, v, unit) in metrics(&tr, &traced) {
        r.line(format!("{name:<34} {v:>16.4} {unit:<6} {}", moves(&name)));
        r.metric(&name, v, unit);
    }
    r.line("exact counts:".to_string());
    for (k, v) in &traced.counts {
        r.line(format!("  {k:<32} {v}"));
    }
    let mut selfs: Vec<(String, f64)> = tr.self_times().into_iter().collect();
    selfs.sort_by(|a, b| b.1.total_cmp(&a.1));
    r.line("self time by span (s):".to_string());
    for (name, s) in selfs.iter().take(12) {
        r.line(format!("  {name:<32} {s:.4}"));
    }
    let overhead = traced_s - untraced_s;
    r.line(format!(
        "tracing overhead: traced pass {traced_s:.3} s - untraced pass {untraced_s:.3} s = {overhead:.3} s"
    ));
    r.metric("bench.trace_overhead_s", overhead, "s");
    r
}
