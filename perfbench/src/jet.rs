//! `jet3d-fp64` and `jet3d-fp16`: the 33-engine `cases::super_heavy_3d`
//! case on a grid whose FP64 state is over four times a 32 MiB L3.
//!
//! Legs, in order: the case decomposed over two thread-ranks with
//! `run_decomposed`; set-up (repeated, median reported as `setup_s`); then
//! `Driver::run` at `nproc` threads and at 1 thread, in alternating chunks
//! of the same steps. All legs start from the same seeded state and must
//! agree bitwise.

use crate::trace::{self, ObsEvent, Tracer};
use crate::util::{self, Outcome};
use crate::{Ctx, Manifest};
use igr_app::driver::{Cadence, Driver, FnObserver};
use igr_app::{cases, run_decomposed, CaseSetup};
use igr_comm::CommData;
use igr_core::solver::{igr_solver, BcGhostOps};
use igr_core::{IgrScheme, Solver};
use igr_perf::flops::FlopModel;
use igr_perf::grind::Scheme;
use igr_prec::{MixedVec, Real, Storage};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Cells across the booster: 96³ interior cells, 152 MB of FP64 solver
/// arrays (4.5× a 32 MiB L3).
const GRID_N: usize = 96;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Timed steps per leg: `--seconds` × the workload's steps per second,
/// within these limits, rounded to whole chunks.
const MIN_STEPS: usize = 8;
const MAX_STEPS: usize = 400;
/// The `nproc` and 1-thread legs alternate in chunks of this many steps.
const CHUNK: usize = 5;
/// `run_decomposed` calls of each length in the 2-rank leg.
const RANK_WINDOWS: usize = 5;
/// Relative amplitude of the seeded density perturbation of the initial
/// state (the seed's only effect on the jet workloads).
const NOISE_AMP: f64 = 1e-3;
/// Largest accepted `|m_end - m_0| / m_0` per step marched. The nozzle
/// inflow adds mass through the base plane, about 5e-4 of the initial
/// mass per step on this grid; twice that means the flow is going wrong.
const MASS_DRIFT_PER_STEP_TOL: f64 = 1e-3;
/// Accepted range of `core.phase_coverage`: the named phases must account
/// for most of `solver.step`. The uncovered rest is the RK stage update
/// and the per-step NaN scan, which carry no span; a value above 1 means
/// spans overlap or are double counted.
const PHASE_COVERAGE_RANGE: (f64, f64) = (0.75, 1.0);
/// Conversion repetitions in the `igr-prec` measurement.
const PREC_REPS: usize = 10;

/// What distinguishes the two jet workloads besides their storage type.
pub struct JetParams {
    pub precision: &'static str,
    /// Timed steps per leg for each second of `--seconds`, chosen so that
    /// all legs together take about `--seconds` on a 2-core host. The step
    /// count depends only on `--seconds`, so every run of the workload
    /// marches the same steps.
    pub steps_per_second: f64,
}

type JetSolver<R, S> = Solver<R, S, IgrScheme<R, S>, BcGhostOps>;

/// `super_heavy_3d` with a seeded, position-hashed density perturbation.
/// The hash depends only on the cell centre, so a decomposed run's ranks
/// see exactly the single-block values.
fn seeded_case(seed: u64) -> CaseSetup {
    let mut case = cases::super_heavy_3d(GRID_N);
    let base = case.init.clone();
    case.init = Arc::new(move |p: [f64; 3]| {
        let mut prim = base(p);
        let h = util::mix(
            seed ^ util::mix(
                p[0].to_bits() ^ util::mix(p[1].to_bits() ^ util::mix(p[2].to_bits())),
            ),
        );
        let u = (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        prim.rho *= 1.0 + NOISE_AMP * u;
        prim
    });
    case
}

struct Setup<R: Real, S: Storage<R>> {
    case: CaseSetup,
    solver: JetSolver<R, S>,
    mass0: f64,
    /// Case build, state init + allocation, cold-start step (s).
    parts: [f64; 3],
}

impl<R: Real, S: Storage<R>> Setup<R, S> {
    fn total(&self) -> f64 {
        self.parts.iter().sum()
    }
}

/// Case build, state init, solver allocation, and the cold-start step
/// (the first step runs the elliptic solve from zero with extra sweeps and
/// touches every page).
fn setup<R: Real, S: Storage<R>>(
    seed: u64,
    tracer: &Tracer,
    leg: u64,
) -> Result<Setup<R, S>, String> {
    let (case, t_case) = tracer.time("app.setup.case_build", "app.setup", leg, || {
        seeded_case(seed)
    });
    let (mut solver, t_alloc) = tracer.time("app.setup.alloc", "app.setup", leg, || {
        let q = case.init_state::<R, S>();
        igr_solver(case.igr_config(), case.domain, q)
    });
    let mass0 = solver.q.totals(&case.domain)[0];
    let (cold, t_cold) = tracer.time("app.setup.cold_step", "app.setup", leg, || {
        Driver::new().max_steps(1).run(&mut solver)
    });
    cold.map_err(|e| format!("cold-start step failed: {e}"))?;
    Ok(Setup {
        case,
        solver,
        mass0,
        parts: [t_case, t_alloc, t_cold],
    })
}

/// March `steps` steps through `Driver::run`, timestamping every step
/// from an observer. Returns the wall time of each step (s).
fn timed_leg<R: Real, S: Storage<R>>(
    solver: &mut JetSolver<R, S>,
    steps: usize,
    tracer: &Tracer,
    leg: u64,
) -> Result<Vec<f64>, String> {
    let mut stamps: Vec<Instant> = Vec::with_capacity(steps + 1);
    let start = Instant::now();
    stamps.push(start);
    Driver::new()
        .max_steps(steps)
        .observe(
            Cadence::EveryStep,
            FnObserver(|_: &JetSolver<R, S>, _: &igr_core::StepInfo| {
                stamps.push(Instant::now());
                Ok(())
            }),
        )
        .run(solver)
        .map_err(|e| format!("timed leg failed: {e}"))?;
    tracer.close("app.driver.run", "leg", leg, start);
    Ok(stamps
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64())
        .collect())
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build thread pool")
}

/// Grind time: median step wall time per interior cell, in ns.
fn grind_ns(step_s: &[f64], cells: usize) -> f64 {
    util::median(step_s) * 1e9 / cells as f64
}

/// What one leg leaves behind for the checks.
struct LegEnd {
    checksum: u64,
    finite: bool,
}

fn leg_end<R: Real, S: Storage<R>>(q: &igr_core::State<R, S>) -> LegEnd {
    LegEnd {
        checksum: util::state_checksum(q),
        finite: q.find_non_finite().is_none(),
    }
}

/// Per-layer phase figures of one traced single-block leg.
struct PhaseLeg {
    /// Self time per phase, ms per step.
    self_ms: std::collections::BTreeMap<String, f64>,
    coverage: f64,
    /// `solver.step` total over the leg, s.
    step_total_s: f64,
}

fn phase_leg(events: &[ObsEvent], steps: usize) -> PhaseLeg {
    let total_us = |name: &str| -> f64 {
        events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.dur_us)
            .sum()
    };
    let mut st = trace::self_times_us(events);
    // The `flux.slab` pieces are the flux sweep's own work spread over the
    // pool, so they count toward `flux.sweep`; only the part of the
    // dispatch no slab covers is `pool.dispatch` self time.
    let dispatch_self = st.get("pool.dispatch").copied().unwrap_or(0.0);
    st.insert("flux.sweep".into(), total_us("flux.sweep") - dispatch_self);
    let step_total_us = total_us("solver.step");
    let step_self = st.get("solver.step").copied().unwrap_or(step_total_us);
    PhaseLeg {
        self_ms: st
            .iter()
            .map(|(k, v)| (k.clone(), v / 1e3 / steps as f64))
            .collect(),
        coverage: 1.0 - step_self / step_total_us,
        step_total_s: step_total_us * 1e-6,
    }
}

/// Reset the registry so the next leg's events stand alone.
fn obs_reset() {
    igr_obs::Registry::global().reset();
}

pub fn run<R: Real + CommData, S: Storage<R>>(
    p: &JetParams,
    ctx: &Ctx,
    out: &mut Outcome,
    manifest: &mut Manifest,
) -> Result<(), String> {
    let nproc = ctx.nproc;
    let tracer = &ctx.tracer;
    let traced = tracer.is_on();
    let target = (ctx.seconds * p.steps_per_second).clamp(MIN_STEPS as f64, MAX_STEPS as f64);
    let chunks = ((target / CHUNK as f64).round() as usize).max(3);
    let n = chunks * CHUNK;
    // Steps of one 2-rank window: a third of the single-block steps, in
    // whole chunks.
    let window = CHUNK * (chunks / 3);
    let mut obs_log: Vec<(u64, ObsEvent)> = Vec::new();

    // Untraced reference for the traced run's overhead figure.
    let reference = if traced {
        let quiet = Tracer::new(false);
        let r = pool(nproc).install(|| -> Result<(f64, u64), String> {
            let mut s = setup::<R, S>(ctx.seed, &quiet, 0)?;
            let steps = timed_leg(&mut s.solver, n, &quiet, 0)?;
            let cells = s.case.domain.shape.n_interior();
            Ok((grind_ns(&steps, cells), util::state_checksum(&s.solver.q)))
        })?;
        igr_obs::enable();
        igr_obs::Registry::global().set_capture_events(true);
        Some(r)
    } else {
        None
    };

    // ---- 2-rank leg -------------------------------------------------------
    // `run_decomposed` has no per-step hook: the leg alternates RANK_WINDOWS
    // calls of 1 step with RANK_WINDOWS calls of (1 + window) steps, and
    // takes (median T(1 + window) - median T(1)) / window, which removes
    // the set-up, the cold step and the gather.
    let rank_leg = {
        let case = seeded_case(ctx.seed);
        let shape = case.domain.shape;
        let cfg = case.igr_config();
        let decomposed = |steps: usize| {
            let init = case.init.clone();
            tracer.time("comm.run_decomposed", "leg", 3, || {
                run_decomposed::<R, S>(&cfg, &case.domain, 2, steps, move |x| init(x))
            })
        };
        let mut t_one = Vec::new();
        let mut t_window = Vec::new();
        let mut ends = Vec::new();
        let mut bytes_per_step = 0.0;
        let mut comm = None;
        for k in 0..RANK_WINDOWS {
            let (one, t) = decomposed(1);
            let one_bytes = one.total_bytes_sent;
            t_one.push(t);
            drop(one);
            obs_reset();
            let (run, t) = decomposed(1 + window);
            t_window.push(t);
            ends.push(leg_end(&run.state));
            bytes_per_step = (run.total_bytes_sent - one_bytes) as f64 / window as f64;
            if traced && k == 0 {
                let events = trace::obs_events();
                let decomp = igr_grid::Decomp::auto(
                    [shape.nx, shape.ny, shape.nz],
                    2,
                    cfg.bc.periodic_axes(),
                );
                comm = Some(comm_figures(&events, window, &decomp));
                obs_log.extend(events.into_iter().map(|e| (3, e)));
            }
        }
        eprintln!("  2-rank calls (s): T(1) {t_one:.3?}, T({}) {t_window:.3?}", 1 + window);
        progress("2-rank leg");
        let step_s = (util::median(&t_window) - util::median(&t_one)) / window as f64;
        (step_s, ends, bytes_per_step, comm)
    };

    // ---- set-ups, then the nproc and 1-thread legs in alternating chunks --
    let nt_pool = pool(nproc);
    let one_pool = pool(1);
    let (setup_times, parts, mut a) = nt_pool.install(|| -> Result<_, String> {
        let mut setups = Vec::new();
        let mut parts = Vec::new();
        let mut kept = None;
        for _ in 0..SETUP_REPS {
            // One solver alive at a time keeps the peak RSS a property
            // of the workload, not of the repetition.
            drop(kept.take());
            let s = setup::<R, S>(ctx.seed, tracer, 1)?;
            setups.push(s.total());
            parts.push(s.parts);
            kept = Some(s);
        }
        Ok((setups, parts, kept.expect("SETUP_REPS >= 1")))
    })?;
    let mut b = one_pool.install(|| setup::<R, S>(ctx.seed, &Tracer::new(false), 2))?;
    progress("set-up");

    // Alternating chunks spread both legs over the same stretch of time,
    // so a burst of host contention lands on both instead of one.
    let (mut nt_steps, mut t1_steps) = (Vec::new(), Vec::new());
    let (mut nt_events, mut t1_events) = (Vec::new(), Vec::new());
    let mut window_checksum = None;
    for c in 0..chunks {
        obs_reset();
        nt_steps.extend(nt_pool.install(|| timed_leg(&mut a.solver, CHUNK, tracer, 1))?);
        if traced {
            nt_events.extend(trace::obs_events());
        }
        obs_reset();
        t1_steps.extend(one_pool.install(|| timed_leg(&mut b.solver, CHUNK, tracer, 2))?);
        if traced {
            t1_events.extend(trace::obs_events());
        }
        if (c + 1) * CHUNK == window {
            window_checksum = Some(util::state_checksum(&a.solver.q));
        }
    }
    progress("nproc and 1-thread legs");
    let (nt_phase, t1_phase) = if traced {
        let legs = (phase_leg(&nt_events, n), phase_leg(&t1_events, n));
        obs_log.extend(nt_events.into_iter().map(|e| (1, e)));
        obs_log.extend(t1_events.into_iter().map(|e| (2, e)));
        (Some(legs.0), Some(legs.1))
    } else {
        (None, None)
    };
    let case = a.case.clone();
    let cells = case.domain.shape.n_interior();
    let shape = case.domain.shape;
    let mass1 = a.solver.q.totals(&case.domain)[0];
    let mass_drift = (mass1 - a.mass0).abs() / a.mass0;
    let mem_bytes = a.solver.memory_report().total_bytes();
    let nt_end = leg_end(&a.solver.q);
    let t1_end = leg_end(&b.solver.q);
    drop((a, b));

    // ---- output checks -----------------------------------------------------
    out.attempted += (SETUP_REPS + 1 + 2 * n) as u64;
    out.check("nproc-thread final state is finite", nt_end.finite);
    let drift_tol = MASS_DRIFT_PER_STEP_TOL * (n + 1) as f64;
    out.check(
        format!(
            "mass drift {mass_drift:.3e} within {drift_tol:.3e} ({} steps)",
            n + 1
        ),
        mass_drift.is_finite() && mass_drift <= drift_tol,
    );
    out.check(
        "1-thread final state is bitwise equal to the nproc-thread state",
        t1_end.checksum == nt_end.checksum,
    );
    let (rank_step_s, rank_ends, rank_bytes_per_step, comm) = rank_leg;
    out.attempted += (RANK_WINDOWS * (2 + window)) as u64;
    out.check(
        format!(
            "2-rank states after {} steps are bitwise equal to the nproc-thread state",
            1 + window
        ),
        rank_ends
            .iter()
            .all(|e| e.finite && Some(e.checksum) == window_checksum),
    );
    if let Some((_, ref_sum)) = reference {
        out.check(
            "traced final state is bitwise equal to the untraced one",
            ref_sum == nt_end.checksum,
        );
    }

    let llc = util::llc_bytes();
    manifest.set("precision", util::json_str(p.precision));
    manifest.set("kernel_path", util::json_str("fused"));
    manifest.set(
        "grid",
        format!("[{}, {}, {}]", shape.nx, shape.ny, shape.nz),
    );
    manifest.set("interior_cells", cells.to_string());
    manifest.set("timed_steps_per_leg", n.to_string());
    manifest.set(
        "threads",
        format!("{{\"nproc_leg\": {nproc}, \"single_leg\": 1, \"rank_leg\": \"2 ranks over the {nproc}-thread pool\"}}"),
    );
    manifest.set("working_set_bytes", mem_bytes.to_string());
    manifest.set("llc_bytes", llc.map_or("null".into(), |b| b.to_string()));
    manifest.set(
        "final_state_checksum",
        format!("\"{:016x}\"", nt_end.checksum),
    );

    if !traced {
        out.metric("grind_ns", grind_ns(&nt_steps, cells), "ns");
        out.metric("grind_1t_ns", grind_ns(&t1_steps, cells), "ns");
        // The workload's alternative configuration: 2 thread-ranks.
        out.metric("grind_alt_ns", rank_step_s * 1e9 / cells as f64, "ns");
        let rss = util::peak_rss_bytes().ok_or("VmHWM unavailable")?;
        out.metric("peak_rss_mb", rss as f64 / 1e6, "MB");
        out.metric("setup_s", util::median(&setup_times), "s");
        return Ok(());
    }

    // ---- per-layer figures (traced run only) -------------------------------
    // The `nproc` leg's phases are per-layer metrics; the 1-thread leg's
    // are figures of the jet workloads only.
    let (nt_phase, t1_phase) = (nt_phase.expect("traced"), t1_phase.expect("traced"));
    for (metric, phase) in trace::CORE_PHASES {
        let ms = |leg: &PhaseLeg| leg.self_ms.get(*phase).copied().unwrap_or(0.0);
        out.metric(format!("core.{metric}.ms_per_step"), ms(&nt_phase), "ms");
        out.figure(format!("core.{metric}.ms_per_step.1t"), ms(&t1_phase), "ms");
    }
    for (label, leg) in [("nt", &nt_phase), ("1t", &t1_phase)] {
        let (lo, hi) = PHASE_COVERAGE_RANGE;
        out.check(
            format!(
                "{label} phase coverage {:.3} within [{lo}, {hi}]",
                leg.coverage
            ),
            leg.coverage >= lo && leg.coverage <= hi,
        );
    }
    let cfg = case.igr_config();
    let model = FlopModel {
        dims: 3,
        rk_stages: cfg.rk.stages(),
        sweeps: cfg.sweeps,
        viscous: cfg.viscous(),
    };
    let traced_grind = grind_ns(&nt_steps, cells);
    out.figure(
        "core.step.gflops_computed",
        model.gflops(Scheme::Igr, traced_grind),
        "GFLOP/s",
    );
    out.figure(
        "core.step.flop_per_byte_computed",
        model.arithmetic_intensity(Scheme::Igr, S::BYTES as f64),
        "FLOP/B",
    );
    out.metric("core.phase_coverage", nt_phase.coverage, "ratio");

    let (unpack, pack) = prec_gbps::<R, S>(shape.n_total(), 1, ctx.seed, tracer);
    out.metric("prec.unpack_gbps", unpack, "GB/s");
    out.metric("prec.pack_gbps", pack, "GB/s");

    out.metric(
        "mem.state_bytes_per_cell",
        mem_bytes as f64 / cells as f64,
        "B",
    );
    let llc = llc.ok_or("last-level cache size unavailable")?;
    out.figure(
        "mem.working_set_over_llc",
        mem_bytes as f64 / llc as f64,
        "ratio",
    );

    let comm = comm.ok_or("traced 2-rank window left no halo figures")?;
    out.figure("comm.halo.ms_per_step", comm.halo_ms_per_step, "ms");
    out.figure("comm.halo.msgs_per_step", comm.msgs_per_step, "count");
    out.figure("comm.halo.bytes_per_step", rank_bytes_per_step, "B");
    out.figure("comm.rank_step_spread", comm.rank_spread, "ratio");

    out.figure(
        "app.setup.case_build_ms",
        util::median_col(&parts, 0) * 1e3,
        "ms",
    );
    out.figure(
        "app.setup.alloc_ms",
        util::median_col(&parts, 1) * 1e3,
        "ms",
    );
    out.figure(
        "app.setup.cold_step_ms",
        util::median_col(&parts, 2) * 1e3,
        "ms",
    );
    let driver_total: f64 = nt_steps.iter().sum();
    out.figure(
        "app.driver.overhead_ms_per_step",
        (driver_total - nt_phase.step_total_s) * 1e3 / n as f64,
        "ms",
    );

    let (ref_grind, _) = reference.expect("traced");
    out.metric(
        "obs.trace_overhead_frac",
        traced_grind / ref_grind - 1.0,
        "ratio",
    );

    write_obs_log(ctx, &obs_log).map_err(|e| format!("write obs events: {e}"))?;
    Ok(())
}

/// Progress line on stderr, with the peak RSS so far.
fn progress(what: &str) {
    let rss = util::peak_rss_bytes().unwrap_or(0) as f64 / 1e6;
    eprintln!("  {what} done (peak RSS {rss:.0} MB)");
}

struct CommFigures {
    halo_ms_per_step: f64,
    msgs_per_step: f64,
    rank_spread: f64,
}

/// Halo figures of a traced `run_decomposed(1 + n)`: each rank thread's
/// first `solver.step` (the cold start) and the halo exchanges inside it
/// are left out.
fn comm_figures(events: &[ObsEvent], n: usize, decomp: &igr_grid::Decomp) -> CommFigures {
    let mut tids: Vec<u64> = events
        .iter()
        .filter(|e| e.name == "solver.step")
        .map(|e| e.tid)
        .collect();
    tids.sort_unstable();
    tids.dedup();
    let mut halo_total_us = 0.0;
    let mut halo_calls = 0usize;
    let mut busy = Vec::new();
    for &tid in &tids {
        let mut steps: Vec<&ObsEvent> = events
            .iter()
            .filter(|e| e.tid == tid && e.name == "solver.step")
            .collect();
        steps.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        let cold_end = steps[0].start_us + steps[0].dur_us;
        let step_us: f64 = steps[1..].iter().map(|e| e.dur_us).sum();
        let halos: Vec<&ObsEvent> = events
            .iter()
            .filter(|e| e.tid == tid && e.name == "comm.halo" && e.start_us >= cold_end)
            .collect();
        let halo_us: f64 = halos.iter().map(|e| e.dur_us).sum();
        halo_total_us += halo_us;
        halo_calls += halos.len();
        busy.push(step_us - halo_us);
    }
    // Every exchange call visits one axis; a call sends one message per
    // neighbour on that axis. Calls cycle over the three axes evenly.
    let ranks = decomp.n_ranks();
    let nbrs: usize = (0..ranks)
        .map(|r| {
            igr_grid::Axis::ALL
                .iter()
                .map(|&a| {
                    [-1, 1]
                        .iter()
                        .filter(|&&s| decomp.neighbor(r, a, s).is_some())
                        .count()
                })
                .sum::<usize>()
        })
        .sum();
    let msgs_per_call = nbrs as f64 / (ranks * igr_grid::Axis::ALL.len()) as f64;
    CommFigures {
        halo_ms_per_step: halo_total_us / 1e3 / (n * ranks) as f64,
        msgs_per_step: halo_calls as f64 / n as f64 * msgs_per_call,
        rank_spread: busy.iter().cloned().fold(f64::MIN, f64::max) / util::mean(&busy),
    }
}

/// Conversion throughput of one workload-sized field through
/// `MixedVec::to_compute_vec` (unpack) and `copy_from_compute` (pack), in
/// GB/s of packed plus compute-precision bytes moved; medians of
/// `PREC_REPS` samples of `inner` conversions each (a small field needs
/// many per sample to be timed at all).
pub fn prec_gbps<R: Real, S: Storage<R>>(
    n: usize,
    inner: usize,
    seed: u64,
    tracer: &Tracer,
) -> (f64, f64) {
    let mut rng = util::Rng::new(seed);
    let src: Vec<R> = (0..n)
        .map(|_| R::from_f64(1.0 + 0.5 * (rng.unit() - 0.5)))
        .collect();
    let mut field: MixedVec<R, S> = MixedVec::zeros(n);
    field.copy_from_compute(&src);
    let bytes = (inner * n * (S::BYTES + std::mem::size_of::<R>())) as f64;
    let mut unpack = Vec::new();
    let mut pack = Vec::new();
    for rep in 0..PREC_REPS as u64 {
        // The unpacked copies are dropped after the timed loop, not in it.
        let (vs, t) = tracer.time("prec.unpack", "prec", rep, || {
            (0..inner)
                .map(|_| black_box(field.to_compute_vec()))
                .collect::<Vec<_>>()
        });
        unpack.push(t);
        let ((), t) = tracer.time("prec.pack", "prec", rep, || {
            for v in &vs {
                field.copy_from_compute(black_box(v));
            }
        });
        pack.push(t);
    }
    (
        bytes / util::median(&unpack) / 1e9,
        bytes / util::median(&pack) / 1e9,
    )
}

/// The solver's own phase events of the traced legs, written at exit next
/// to the harness spans.
fn write_obs_log(ctx: &Ctx, log: &[(u64, ObsEvent)]) -> std::io::Result<()> {
    use std::io::Write;
    let path = ctx.out_path("obs.jsonl");
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (leg, e) in log {
        writeln!(
            w,
            "{{\"leg\":{leg},\"name\":\"{}\",\"start_us\":{},\"dur_us\":{},\"tid\":{}}}",
            e.name, e.start_us, e.dur_us, e.tid
        )?;
    }
    w.flush()
}
