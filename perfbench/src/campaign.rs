//! `campaign-mix`: a closed loop of `nproc` client connections to an
//! in-process `CampaignServer` bound over a seeded result-store file.
//!
//! Traffic: seeded samples of `sweep::engine_out_gimbal_backpressure` on
//! the 3-engine row at the `examples/campaign.rs` resolution and step
//! count, crossed with the precision axis of `campaign_report`'s campaign
//! 2, with a share of resubmissions of recent scenarios (cache hits, and
//! cross-connection coalescing when the other client's copy is still in
//! flight). Then warm passes resubmit the whole campaign.
//!
//! The shared metric names read in solver work: `grind_ns` is the cold
//! pass's wall time per interior cell-step of the scenarios it executed,
//! `grind_1t_ns` the median submit→result time of one executed scenario
//! (solved on one thread) per cell-step, and `grind_alt_ns` the warm
//! pass's wall time per cell-step of the results it returns.

use crate::trace::{self, hist_median_ns, Tracer};
use crate::util::{self, Outcome, Rng};
use crate::{Ctx, Manifest};
use igr_campaign::protocol::Request;
use igr_campaign::{
    result_digest, run_scenario, sweep, CampaignClient, CampaignServer, ExecConfig, ResultStore,
    ScenarioResult, ScenarioSpec, ServerMetrics,
};
use igr_prec::{PrecisionMode, Real, Storage, StoreF16, StoreF32, StoreF64};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// `examples/campaign.rs`: 48 × 24 cells, 60 timed steps.
const RESOLUTION: usize = 24;
const STEPS: usize = 60;
const ENGINE_OUT_SETS: &[&[usize]] = &[&[], &[0], &[1], &[2], &[0, 2]];
const GIMBAL_VALUES: usize = 12;
const BACKPRESSURE_VALUES: usize = 10;
/// Physical points sampled from the 5 × 12 × 10 box; each runs at all three
/// precisions, so the campaign holds 3 × this many distinct scenarios.
const PHYSICAL_POINTS: usize = 360;
const PRECISIONS: [PrecisionMode; 3] = [
    PrecisionMode::Fp64,
    PrecisionMode::Fp32,
    PrecisionMode::Fp16Fp32,
];
/// Share of submissions that resubmit one of the `RECENT_WINDOW` most
/// recently introduced scenarios.
const RESUBMIT_SHARE: f64 = 0.25;
const RECENT_WINDOW: usize = 4;
/// Prior results in the generated store: enough that opening it (the
/// first part of `setup_s`) takes tens of milliseconds.
const STORE_ENTRIES: usize = 20_000;
/// Step count of the prior results, so none shares a content hash with
/// the campaign's scenarios.
const STORE_STEPS: usize = 48;
const SETUP_REPS: usize = 5;
/// Warm passes per run, in batches that each start from fresh client
/// connections; `warm_campaign_s` is the median over all of them. A pass
/// costs mostly thread wake-ups, whose price depends on where the
/// scheduler placed a connection's threads and on bursts of host
/// contention: single batches differ by up to 1.5×, so the median pools
/// several placements over several seconds.
const WARM_BATCHES: usize = 8;
const WARM_PASSES_PER_BATCH: usize = 40;
/// Accepted range of `campaign.latency_coverage`.
const LATENCY_COVERAGE_RANGE: (f64, f64) = (0.8, 1.2);
const STREAM_TIMEOUT: Duration = Duration::from_secs(120);
/// Conversions per timed sample in the `igr-prec` measurement: one
/// scenario-sized field converts in about a microsecond.
const PREC_INNER: usize = 2000;

/// The generated inputs of one run.
struct Traffic {
    /// The distinct scenarios, in introduction order.
    specs: Vec<ScenarioSpec>,
    /// Per client, the spec indices it submits in order.
    ops: Vec<Vec<usize>>,
}

fn rounded(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

fn traffic(seed: u64, clients: usize) -> Traffic {
    let mut rng = Rng::new(seed);
    let mut gimbals = vec![0.0];
    while gimbals.len() < GIMBAL_VALUES {
        let g = rounded(0.005 + 0.145 * rng.unit());
        if !gimbals.contains(&g) {
            gimbals.push(g);
        }
    }
    let mut pressures = Vec::new();
    while pressures.len() < BACKPRESSURE_VALUES {
        let p = rounded(0.2 + 0.8 * rng.unit());
        if !pressures.contains(&p) {
            pressures.push(p);
        }
    }
    let outs: Vec<Vec<usize>> = ENGINE_OUT_SETS.iter().map(|s| s.to_vec()).collect();
    let mut box_specs = distinct(
        sweep::engine_out_gimbal_backpressure(RESOLUTION, STEPS, &outs, &gimbals, &pressures)
            .expand(),
    );
    rng.shuffle(&mut box_specs);
    let mut specs = Vec::new();
    for base in box_specs.into_iter().take(PHYSICAL_POINTS) {
        for prec in PRECISIONS {
            let mut s = base.clone();
            s.precision = prec;
            specs.push(s);
        }
    }
    rng.shuffle(&mut specs);

    // One global submission sequence, dealt round-robin to the clients.
    let mut seq = Vec::new();
    let mut introduced = 0;
    while introduced < specs.len() {
        if introduced > 0 && rng.unit() < RESUBMIT_SHARE {
            let window = introduced.min(RECENT_WINDOW);
            seq.push(introduced - 1 - rng.below(window));
        } else {
            seq.push(introduced);
            introduced += 1;
        }
    }
    let mut ops = vec![Vec::new(); clients];
    for (i, s) in seq.into_iter().enumerate() {
        ops[i % clients].push(s);
    }
    Traffic { specs, ops }
}

/// Drop specs whose content hash repeats an earlier one (a gimbal on an
/// engine that is out normalizes away, so such sweep points coincide).
fn distinct(specs: Vec<ScenarioSpec>) -> Vec<ScenarioSpec> {
    let mut seen = std::collections::BTreeSet::new();
    specs
        .into_iter()
        .filter(|s| seen.insert(s.content_hash()))
        .collect()
}

/// Write the prior-results store: real content hashes of a disjoint sweep,
/// each holding a copy of one executed result with seeded figures.
fn generate_store(path: &Path, seed: u64) -> Result<(), String> {
    let _ = std::fs::remove_file(path);
    let mut rng = Rng::new(seed ^ 0x5707e);
    let gimbals: Vec<f64> = (0..50).map(|i| rounded(0.003 * i as f64)).collect();
    let pressures: Vec<f64> = (0..100).map(|i| rounded(0.2 + 0.008 * i as f64)).collect();
    let outs: Vec<Vec<usize>> = ENGINE_OUT_SETS.iter().map(|s| s.to_vec()).collect();
    let prior = distinct(
        sweep::engine_out_gimbal_backpressure(RESOLUTION, STORE_STEPS, &outs, &gimbals, &pressures)
            .expand(),
    );
    let template = run_scenario(&prior[0]);
    let mut store = ResultStore::open(path).map_err(|e| format!("create store: {e}"))?;
    for spec in prior.iter().take(STORE_ENTRIES) {
        let mut r: ScenarioResult = template.clone();
        r.name = spec.scenario_name();
        r.hash_hex = spec.hash_hex();
        let jitter = 1.0 + 0.1 * (rng.unit() - 0.5);
        r.wall_s *= jitter;
        r.ns_per_cell_step *= jitter;
        r.mass_drift *= jitter;
        r.energy_drift *= jitter;
        store.insert(spec.content_hash(), r);
    }
    if store.len() != STORE_ENTRIES || store.persist_errors() > 0 {
        return Err(format!(
            "generated store holds {} entries ({} write errors)",
            store.len(),
            store.persist_errors()
        ));
    }
    Ok(())
}

/// A bound server with its connected clients.
struct Live {
    server: CampaignServer,
    clients: Vec<CampaignClient>,
    /// Store open, server bind, client handshakes (s).
    parts: [f64; 3],
}

fn bring_up(path: &Path, clients: usize, tracer: &Tracer) -> Result<Live, String> {
    let (store, t_open) = tracer.time("campaign.store.open", "campaign.setup", 0, || {
        ResultStore::open(path)
    });
    let store = store.map_err(|e| format!("open store: {e}"))?;
    let (server, t_bind) = tracer.time("campaign.server.bind", "campaign.setup", 0, || {
        CampaignServer::bind("127.0.0.1:0", ExecConfig::default(), store)
    });
    let server = server.map_err(|e| format!("bind server: {e}"))?;
    let (conns, t_conn) = tracer.time("campaign.client.connect", "campaign.setup", 0, || {
        connect_all(server.local_addr(), clients)
    });
    let conns = conns?;
    Ok(Live {
        server,
        clients: conns,
        parts: [t_open, t_bind, t_conn],
    })
}

/// Connect `n` clients at once, as independent users would.
fn connect_all(addr: std::net::SocketAddr, n: usize) -> Result<Vec<CampaignClient>, String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|_| scope.spawn(move || CampaignClient::connect(addr)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connect thread panicked"))
            .collect::<std::io::Result<Vec<_>>>()
    })
    .map_err(|e| format!("connect: {e}"))
}

fn tear_down(live: Live) -> ResultStore {
    live.server.request_shutdown();
    drop(live.clients);
    live.server.join()
}

/// One answered submission.
struct OpRec {
    spec: usize,
    cached: bool,
    ok: bool,
    hash_ok: bool,
    digest: u64,
    latency_s: f64,
    submit_s: f64,
    stream_s: f64,
}

/// Closed loop: every client submits its next scenario only after the
/// previous result has streamed back. Returns the records and the wall
/// time of the whole pass. `digests` computes each result's
/// `result_digest` inside the loop (left at 0 otherwise).
fn closed_loop(
    clients: &mut [CampaignClient],
    ops: &[Vec<usize>],
    specs: &[ScenarioSpec],
    tracer: &Tracer,
    digests: bool,
) -> Result<(Vec<OpRec>, f64), String> {
    let start = Instant::now();
    let per_client: Vec<Result<Vec<OpRec>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(ops)
            .enumerate()
            .map(|(c, (client, list))| {
                scope.spawn(move || -> Result<Vec<OpRec>, String> {
                    // One client per core: where the scheduler would put
                    // the client threads otherwise changes the cost of
                    // every wake-up, and a warm pass is mostly wake-ups.
                    util::pin_current_thread(c);
                    let mut recs = Vec::with_capacity(list.len());
                    for &i in list {
                        let spec = &specs[i];
                        let hash = spec.content_hash();
                        let t0 = Instant::now();
                        let ack = client.submit(spec, 0).map_err(|e| format!("submit: {e}"))?;
                        let submit_s =
                            tracer.close("campaign.wire.submit", "campaign.request", hash, t0);
                        let t1 = Instant::now();
                        let got = client
                            .stream(1, STREAM_TIMEOUT)
                            .map_err(|e| format!("stream: {e}"))?;
                        let stream_s =
                            tracer.close("campaign.wire.stream", "campaign.request", hash, t1);
                        let latency_s = tracer.close("campaign.request", "campaign.pass", hash, t0);
                        let [r] = got.as_slice() else {
                            return Err(format!("expected 1 streamed result, got {}", got.len()));
                        };
                        recs.push(OpRec {
                            spec: i,
                            cached: r.cached,
                            ok: r.result.status.is_ok(),
                            hash_ok: r.hash == hash
                                && ack.hash_hex == spec.hash_hex()
                                && r.result.hash_hex == spec.hash_hex(),
                            digest: if digests {
                                result_digest(r.hash, &r.result)
                            } else {
                                0
                            },
                            latency_s,
                            submit_s,
                            stream_s,
                        });
                    }
                    Ok(recs)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut all = Vec::new();
    for r in per_client {
        all.extend(r?);
    }
    Ok((all, wall))
}

/// Figures of one full campaign (cold pass plus warm passes).
struct CampaignRun {
    setups: Vec<[f64; 3]>,
    cold: Vec<OpRec>,
    cold_wall: f64,
    /// Records of the first warm pass.
    warm_first: Vec<OpRec>,
    /// Wall time of each warm pass.
    warm_walls: Vec<f64>,
    warm_ops: usize,
    warm_failed: usize,
    /// Every warm result was a cache hit carrying its spec's hash.
    warm_hits_ok: bool,
    executed_cold: u64,
    executed_warm: u64,
    /// Server telemetry (queue histograms and counters) of the cold pass.
    metrics: ServerMetrics,
    /// The `igr-obs` registry after the cold pass: the solver's phase
    /// histograms of every executed scenario (empty unless traced).
    obs: igr_obs::Snapshot,
    store_entries_after: usize,
    /// The store's results for the campaign's distinct scenarios.
    results: Vec<(u64, std::sync::Arc<ScenarioResult>)>,
}

fn run_campaign(
    path: &Path,
    t: &Traffic,
    nproc: usize,
    tracer: &Tracer,
    warm_batches: usize,
) -> Result<CampaignRun, String> {
    let mut setups = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let l = bring_up(path, nproc, tracer)?;
        setups.push(l.parts);
        if rep + 1 < SETUP_REPS {
            tear_down(l);
        } else {
            live = Some(l);
        }
    }
    let mut live = live.expect("SETUP_REPS >= 1");
    let stat = |live: &mut Live| -> Result<u64, String> {
        Ok(live.clients[0]
            .stats()
            .map_err(|e| format!("stats: {e}"))?
            .executed)
    };

    igr_obs::Registry::global().reset();
    let (cold, cold_wall) = closed_loop(&mut live.clients, &t.ops, &t.specs, tracer, true)?;
    let executed_cold = stat(&mut live)?;
    let obs = igr_obs::Registry::global().snapshot();
    let metrics = live.clients[0]
        .metrics()
        .map_err(|e| format!("metrics: {e}"))?;

    // Warm passes: each client resubmits its share of the distinct set.
    // Only the first is traced and digested.
    let warm_ops: Vec<Vec<usize>> = (0..nproc)
        .map(|c| (c..t.specs.len()).step_by(nproc).collect())
        .collect();
    let quiet = Tracer::new(false);
    let mut warm_first = Vec::new();
    let mut warm_walls = Vec::new();
    let (mut warm_ops_done, mut warm_failed) = (0, 0);
    let mut warm_hits_ok = true;
    for pass in 0..warm_batches * WARM_PASSES_PER_BATCH {
        if pass > 0 && pass % WARM_PASSES_PER_BATCH == 0 {
            live.clients = connect_all(live.server.local_addr(), nproc)?;
        }
        let first = pass == 0;
        let (recs, wall) = closed_loop(
            &mut live.clients,
            &warm_ops,
            &t.specs,
            if first { tracer } else { &quiet },
            first,
        )?;
        warm_walls.push(wall);
        warm_ops_done += recs.len();
        warm_failed += recs.iter().filter(|r| !r.ok).count();
        warm_hits_ok &= recs.iter().all(|r| r.cached && r.hash_ok);
        if first {
            warm_first = recs;
        }
    }
    let executed_warm = stat(&mut live)? - executed_cold;
    eprintln!(
        "  cold pass {cold_wall:.2} s; {} warm passes {:.2} s (mean {:.2} ms, median {:.2} ms); set-ups (ms): {:?}",
        warm_walls.len(),
        warm_walls.iter().sum::<f64>(),
        util::mean(&warm_walls) * 1e3,
        util::median(&warm_walls) * 1e3,
        setups.iter().map(|p| p.map(|x| (x * 1e4).round() / 10.0)).collect::<Vec<_>>()
    );
    let store = tear_down(live);
    let hashes: Vec<u64> = t.specs.iter().map(ScenarioSpec::content_hash).collect();
    Ok(CampaignRun {
        results: store.export(&hashes),
        setups,
        cold,
        cold_wall,
        warm_first,
        warm_walls,
        warm_ops: warm_ops_done,
        warm_failed,
        warm_hits_ok,
        executed_cold,
        executed_warm,
        metrics,
        obs,
        store_entries_after: store.len(),
    })
}

pub fn run(ctx: &Ctx, out: &mut Outcome, manifest: &mut Manifest) -> Result<(), String> {
    let nproc = ctx.nproc;
    let tracer = &ctx.tracer;
    let t = traffic(ctx.seed, nproc);
    let store_path = ctx.out_path("store.jsonl");
    generate_store(&store_path, ctx.seed)?;

    // Untraced reference for the traced run's overhead figure, over a copy
    // of the generated store (the cold pass appends to the file it serves).
    let reference = if tracer.is_on() {
        let ref_path = ctx.out_path("store-ref.jsonl");
        std::fs::copy(&store_path, &ref_path).map_err(|e| format!("copy store: {e}"))?;
        let r = run_campaign(&ref_path, &t, nproc, &Tracer::new(false), 0)?;
        let _ = std::fs::remove_file(&ref_path);
        igr_obs::enable();
        Some(r.cold.len() as f64 / r.cold_wall)
    } else {
        None
    };

    let run = run_campaign(&store_path, &t, nproc, tracer, WARM_BATCHES)?;
    let _ = std::fs::remove_file(&store_path);

    // ---- output checks ------------------------------------------------------
    out.attempted += (run.cold.len() + run.warm_ops) as u64;
    out.failed += (run.cold.iter().filter(|r| !r.ok).count() + run.warm_failed) as u64;
    out.check(
        "every cold-pass result carries the submitted spec's content hash",
        run.cold.iter().all(|r| r.hash_ok),
    );
    out.check(
        format!(
            "cold pass executed each distinct scenario once ({} of {})",
            run.executed_cold,
            t.specs.len()
        ),
        run.executed_cold == t.specs.len() as u64,
    );
    out.check(
        format!(
            "warm passes executed 0 scenarios (executed {})",
            run.executed_warm
        ),
        run.executed_warm == 0,
    );
    out.check(
        "every warm-pass result is a cache hit carrying its spec's content hash",
        run.warm_hits_ok,
    );
    let cold_digest: BTreeMap<usize, u64> = run.cold.iter().map(|r| (r.spec, r.digest)).collect();
    out.check(
        "result digests agree between the cold pass and the first warm pass",
        run.cold.iter().all(|r| cold_digest[&r.spec] == r.digest)
            && run.warm_first.len() == t.specs.len()
            && run
                .warm_first
                .iter()
                .all(|r| cold_digest.get(&r.spec) == Some(&r.digest)),
    );
    let completed = run
        .cold
        .iter()
        .filter(|r| r.ok)
        .map(|r| r.spec)
        .collect::<std::collections::BTreeSet<_>>();
    out.check(
        "the store grew by exactly the completed scenarios",
        run.store_entries_after == STORE_ENTRIES + completed.len(),
    );

    let misses: Vec<&OpRec> = run.cold.iter().filter(|r| !r.cached && r.ok).collect();
    let miss_ms: Vec<f64> = misses.iter().map(|r| r.latency_s * 1e3).collect();
    // p90 is reported only with at least 10 samples beyond it.
    let p90_ok = miss_ms.len() >= 100;
    out.check(
        format!(
            "{} executed latency samples (p90 needs >= 100)",
            miss_ms.len()
        ),
        p90_ok,
    );

    let case = t.specs[0]
        .build_case()
        .map_err(|e| format!("build case: {e}"))?;
    let cells = case.domain.shape.n_interior();
    // Interior cell-steps of one scenario, and of the whole distinct set.
    let scenario_cell_steps = (cells * STEPS) as f64;
    let campaign_cell_steps = scenario_cell_steps * t.specs.len() as f64;

    let solver_bytes = solver_bytes(&t.specs)?;
    let workers = ExecConfig::default().workers;

    manifest.set("precision", "[\"fp64\", \"fp32\", \"fp16/32\"]".into());
    manifest.set("kernel_path", util::json_str("fused"));
    manifest.set("grid", format!("[{}, {}, 1]", 2 * RESOLUTION, RESOLUTION));
    manifest.set("distinct_scenarios", t.specs.len().to_string());
    manifest.set("submissions_cold", run.cold.len().to_string());
    manifest.set("store_entries", STORE_ENTRIES.to_string());
    manifest.set(
        "threads",
        format!("{{\"clients\": {nproc}, \"workers\": {workers}}}"),
    );
    // At most `workers` solvers run at once; the FP64 one is the largest.
    let largest = solver_bytes.iter().cloned().fold(0.0, f64::max);
    manifest.set(
        "working_set_bytes",
        util::json_num(largest * workers as f64),
    );
    manifest.set(
        "llc_bytes",
        util::llc_bytes().map_or("null".into(), |b| b.to_string()),
    );

    if !tracer.is_on() {
        let warm_s = util::median(&run.warm_walls);
        out.metric("grind_ns", run.cold_wall * 1e9 / campaign_cell_steps, "ns");
        out.metric(
            "grind_1t_ns",
            util::median(&miss_ms) * 1e6 / scenario_cell_steps,
            "ns",
        );
        out.metric("grind_alt_ns", warm_s * 1e9 / campaign_cell_steps, "ns");
        out.figure(
            "scenarios_per_s",
            run.cold.len() as f64 / run.cold_wall,
            "1/s",
        );
        out.figure("miss_latency_p50_ms", util::quantile(&miss_ms, 0.5), "ms");
        out.figure("miss_latency_p90_ms", util::quantile(&miss_ms, 0.9), "ms");
        out.figure("warm_campaign_s", warm_s, "s");
        let rss = util::peak_rss_bytes().ok_or("VmHWM unavailable")?;
        out.metric("peak_rss_mb", rss as f64 / 1e6, "MB");
        let setups: Vec<f64> = run.setups.iter().map(|p| p.iter().sum()).collect();
        out.metric("setup_s", util::median(&setups), "s");
        return Ok(());
    }

    // ---- per-layer figures (traced run only) --------------------------------
    let ms = |v: Vec<f64>| util::median(&v) * 1e3;
    out.figure(
        "campaign.store.open_ms",
        util::median_col(&run.setups, 0) * 1e3,
        "ms",
    );
    let warm_flat = &run.warm_first;
    let submit_ms = ms(warm_flat.iter().map(|r| r.submit_s).collect());
    let stream_ms = ms(warm_flat.iter().map(|r| r.stream_s).collect());
    out.figure("campaign.wire.submit_ms", submit_ms, "ms");
    out.figure(
        "campaign.wire.decode_us_per_spec",
        decode_us_per_spec(&t.specs, tracer)?,
        "us",
    );
    out.figure(
        "campaign.spec.hash_us",
        hash_us_per_spec(&t.specs, tracer),
        "us",
    );
    out.figure("campaign.stream.ms_per_result", stream_ms, "ms");

    let hist = |name: &str| run.metrics.histogram(name).cloned().unwrap_or_default();
    let (wait, exec) = (hist("queue.time_in_queue"), hist("queue.exec_latency"));
    let p50_ms = |h: &igr_campaign::MetricHistogram| {
        hist_median_ns(&h.buckets, h.count).unwrap_or(0.0) / 1e6
    };
    let mean_ms =
        |h: &igr_campaign::MetricHistogram| h.total_ns as f64 / h.count.max(1) as f64 / 1e6;
    out.figure("campaign.queue.wait_ms_p50", p50_ms(&wait), "ms");
    out.figure("campaign.exec.solve_ms_p50", p50_ms(&exec), "ms");
    let append_ms = store_append_ms(&ctx.out_path("append.jsonl"), &run, tracer)?;
    out.figure("campaign.store.append_ms", append_ms, "ms");

    let hits = run.cold.iter().filter(|r| r.cached).count();
    out.figure(
        "campaign.hit_ratio",
        hits as f64 / run.cold.len() as f64,
        "ratio",
    );
    out.figure(
        "campaign.coalesced",
        run.metrics.counter("queue.coalesce").unwrap_or(0) as f64,
        "count",
    );
    out.figure("campaign.executed", run.executed_cold as f64, "count");
    out.figure(
        "campaign.failed",
        run.cold.iter().filter(|r| !r.ok).count() as f64,
        "count",
    );
    out.figure("campaign.attempted", run.cold.len() as f64, "count");

    // Submit→result of an executed scenario = wire submit + queue wait +
    // solve + store append + stream delivery (a hit's stream time).
    let covered = util::mean(&misses.iter().map(|r| r.submit_s * 1e3).collect::<Vec<_>>())
        + mean_ms(&wait)
        + mean_ms(&exec)
        + append_ms
        + stream_ms;
    let coverage = covered / util::mean(&miss_ms);
    out.figure("campaign.latency_coverage", coverage, "ratio");
    let (lo, hi) = LATENCY_COVERAGE_RANGE;
    out.check(
        format!("latency coverage {coverage:.3} within [{lo}, {hi}]"),
        coverage >= lo && coverage <= hi,
    );

    solver_layers(&run.obs, out)?;
    let (unpack, pack) = crate::jet::prec_gbps::<f32, StoreF16>(
        case.domain.shape.n_total(),
        PREC_INNER,
        ctx.seed,
        tracer,
    );
    out.metric("prec.unpack_gbps", unpack, "GB/s");
    out.metric("prec.pack_gbps", pack, "GB/s");
    // Averaged over the precision axis: each physical point runs at every
    // precision.
    out.metric(
        "mem.state_bytes_per_cell",
        util::mean(&solver_bytes) / cells as f64,
        "B",
    );

    let traced_rate = run.cold.len() as f64 / run.cold_wall;
    out.metric(
        "obs.trace_overhead_frac",
        reference.expect("traced") / traced_rate - 1.0,
        "ratio",
    );
    Ok(())
}

/// The solver phases of the cold pass's executed scenarios, from the
/// registry's phase histograms: self time per step of each phase, and the
/// share of `solver.step` its named phases cover. Each scenario runs on
/// one thread, so totals alone give self times.
fn solver_layers(obs: &igr_obs::Snapshot, out: &mut Outcome) -> Result<(), String> {
    let totals: BTreeMap<String, f64> = obs
        .histograms
        .iter()
        .map(|h| (h.name.clone(), h.total_ns as f64))
        .collect();
    let steps = obs.histogram("solver.step").map_or(0, |h| h.count).max(1) as f64;
    let step_total = *totals
        .get("solver.step")
        .ok_or("no solver.step spans recorded in the cold pass")?;
    let mut st = trace::self_times_from_totals(&totals);
    // As on the jets: the flux slabs are the flux sweep's own work, so
    // only the dispatch time no slab covers is `pool.dispatch` self time.
    let dispatch_self = st.get("pool.dispatch").copied().unwrap_or(0.0);
    let flux_total = totals.get("flux.sweep").copied().unwrap_or(0.0);
    st.insert("flux.sweep".into(), flux_total - dispatch_self);
    for (metric, phase) in trace::CORE_PHASES {
        let ns = st.get(*phase).copied().unwrap_or(0.0);
        out.metric(format!("core.{metric}.ms_per_step"), ns / 1e6 / steps, "ms");
    }
    out.metric(
        "core.phase_coverage",
        1.0 - st["solver.step"] / step_total,
        "ratio",
    );
    Ok(())
}

/// `Solver::memory_report` total bytes of one scenario's solver at each
/// precision of the axis: the solver of the first spec at each precision
/// is built the way the executor builds it, and never stepped.
fn solver_bytes(specs: &[ScenarioSpec]) -> Result<Vec<f64>, String> {
    fn bytes<R: Real, S: Storage<R>>(spec: &ScenarioSpec) -> Result<f64, String> {
        let case = spec.build_case().map_err(|e| format!("build case: {e}"))?;
        let solver = igr_core::solver::igr_solver::<R, S>(
            spec.igr_config(&case),
            case.domain,
            case.init_state(),
        );
        Ok(solver.memory_report().total_bytes() as f64)
    }
    let mut per_mode = Vec::new();
    for mode in PRECISIONS {
        let spec = specs
            .iter()
            .find(|s| s.precision == mode)
            .ok_or("a precision of the axis has no scenario")?;
        per_mode.push(match mode {
            PrecisionMode::Fp64 => bytes::<f64, StoreF64>(spec)?,
            PrecisionMode::Fp32 => bytes::<f32, StoreF32>(spec)?,
            PrecisionMode::Fp16Fp32 => bytes::<f32, StoreF16>(spec)?,
        });
    }
    Ok(per_mode)
}

/// Server-side decode cost of one `SUBMIT` line (`Request::decode`), µs.
fn decode_us_per_spec(specs: &[ScenarioSpec], tracer: &Tracer) -> Result<f64, String> {
    let lines: Vec<String> = specs
        .iter()
        .map(|s| {
            Request::Submit {
                spec: s.clone(),
                priority: 0,
            }
            .encode()
        })
        .collect();
    let mut per_pass = Vec::new();
    for pass in 0..5 {
        let start = Instant::now();
        for l in &lines {
            std::hint::black_box(Request::decode(l).map_err(|e| format!("decode: {e}"))?);
        }
        per_pass.push(tracer.close("campaign.wire.decode", "campaign.wire", pass, start));
    }
    Ok(util::median(&per_pass) * 1e6 / specs.len() as f64)
}

/// Content-hash cost of one spec, µs.
fn hash_us_per_spec(specs: &[ScenarioSpec], tracer: &Tracer) -> f64 {
    let mut per_pass = Vec::new();
    for pass in 0..5 {
        let start = Instant::now();
        for s in specs {
            std::hint::black_box(s.content_hash());
        }
        per_pass.push(tracer.close("campaign.spec.hash", "campaign.spec", pass, start));
    }
    util::median(&per_pass) * 1e6 / specs.len() as f64
}

/// Time `ResultStore::insert` (one appended, flushed line) of every
/// executed scenario's result into a fresh store file, ms per append.
fn store_append_ms(path: &Path, run: &CampaignRun, tracer: &Tracer) -> Result<f64, String> {
    let _ = std::fs::remove_file(path);
    let mut store = ResultStore::open(path).map_err(|e| format!("open append store: {e}"))?;
    let mut times = Vec::new();
    for (hash, r) in &run.results {
        let r = ScenarioResult::clone(r);
        let ((), dt) = tracer.time("campaign.store.append", "campaign.store", *hash, || {
            store.insert(*hash, r)
        });
        times.push(dt);
    }
    drop(store);
    let _ = std::fs::remove_file(path);
    Ok(util::median(&times) * 1e3)
}
