//! Benchmark harness for the igr workspace: drives the public API of
//! `igr-app`, `igr-core` and `igr-campaign` from outside and prints one
//! JSON result line. See `perfbench/README.md` for the metric catalog.
//!
//! ```text
//! igr-perfbench --workload <jet3d-fp64|jet3d-fp16|campaign-mix>
//!               --seed <n> --seconds <s> --trace <0|1>
//!               [--out-dir <dir>] [--commit <id>] [--source-digest <hex>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` is the separate per-layer run: it enables `igr-obs`, wraps
//! harness spans around each call into a layer, reports only per-layer
//! metrics, and writes its spans to `--out-dir` at exit.
//!
//! The result line holds the metrics every workload reports, under the
//! names `BENCHMARK.json` declares. Figures that only one workload
//! produces go to the `figures` object of the manifest line before it.

mod campaign;
mod jet;
mod trace;
mod util;

use igr_prec::{StoreF16, StoreF64};
use std::path::PathBuf;
use trace::Tracer;
use util::{json_str, Outcome};

/// Run-wide settings every workload reads.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub nproc: usize,
    pub tracer: Tracer,
    pub out_dir: PathBuf,
}

impl Ctx {
    /// A per-run file in the output directory.
    pub fn out_path(&self, suffix: &str) -> PathBuf {
        self.out_dir.join(format!(
            "{}-seed{}-trace{}.{suffix}",
            self.workload,
            self.seed,
            u8::from(self.tracer.is_on())
        ))
    }
}

/// The provenance manifest: printed before the result line and written to
/// the output directory. Values are JSON text.
#[derive(Default)]
pub struct Manifest(Vec<(String, String)>);

impl Manifest {
    pub fn set(&mut self, key: &str, json_value: String) {
        self.0.retain(|(k, _)| k != key);
        self.0.push((key.to_string(), json_value));
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    commit: Option<String>,
    source_digest: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from("perfbench/out");
    let mut commit = None;
    let mut source_digest = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value()?),
            "--commit" => commit = Some(value()?),
            "--source-digest" => source_digest = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
        commit,
        source_digest,
    })
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Fix glibc's mmap threshold at 1 MiB. By default the threshold slides up
/// to the size of the largest block freed so far, so whether a later
/// solver array is a fresh mapping or reuses the heap depends on the order
/// in which threads freed memory, and the peak RSS of one input varied by
/// over 30% between runs. With a fixed threshold every array of 1 MiB or
/// more is its own mapping, returned to the system when freed.
fn fix_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: mallopt only updates allocator parameters; it is called
        // before this process starts any thread or allocates solver data.
        let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 1 << 20) };
        if ok != 1 {
            eprintln!("igr-perfbench: mallopt(M_MMAP_THRESHOLD) failed");
        }
    }
}

fn main() {
    fix_mmap_threshold();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("igr-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!(
            "igr-perfbench: cannot create {}: {e}",
            args.out_dir.display()
        );
        std::process::exit(2);
    }
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        nproc: util::host_cores(),
        tracer: Tracer::new(args.trace),
        out_dir: args.out_dir.clone(),
    };

    let mut manifest = Manifest::default();
    manifest.set("workload", json_str(&ctx.workload));
    manifest.set("seed", ctx.seed.to_string());
    manifest.set("seconds", util::json_num(ctx.seconds));
    manifest.set("trace", args.trace.to_string());
    manifest.set("host_cores", ctx.nproc.to_string());
    manifest.set(
        "build_profile",
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
    );
    let opt = |v: &Option<String>| v.as_deref().map_or("null".into(), json_str);
    manifest.set("commit", opt(&args.commit));
    manifest.set("source_digest", opt(&args.source_digest));

    let mut out = Outcome::default();
    let result = match ctx.workload.as_str() {
        "jet3d-fp64" => jet::run::<f64, StoreF64>(
            &jet::JetParams {
                precision: "fp64",
                steps_per_second: 1.5,
            },
            &ctx,
            &mut out,
            &mut manifest,
        ),
        "jet3d-fp16" => jet::run::<f32, StoreF16>(
            &jet::JetParams {
                precision: "fp16/32",
                steps_per_second: 1.0,
            },
            &ctx,
            &mut out,
            &mut manifest,
        ),
        "campaign-mix" => campaign::run(&ctx, &mut out, &mut manifest),
        other => {
            eprintln!("igr-perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        out.failed += 1;
        out.attempted = out.attempted.max(out.failed);
        out.check(format!("workload ran to completion: {e}"), false);
    }
    if ctx.tracer.is_on() {
        if let Err(e) = ctx.tracer.write_jsonl(&ctx.out_path("spans.jsonl")) {
            out.check(format!("spans written: {e}"), false);
        }
    }

    let checks: Vec<String> = out
        .checks
        .iter()
        .map(|(what, ok)| format!("{{\"check\": {}, \"ok\": {ok}}}", json_str(what)))
        .collect();
    manifest.set("checks", format!("[{}]", checks.join(", ")));
    manifest.set("figures", util::metrics_json(&out.figures));
    let manifest_json = manifest.to_json();
    if let Err(e) = std::fs::write(ctx.out_path("manifest.json"), &manifest_json) {
        eprintln!("igr-perfbench: cannot write manifest: {e}");
    }
    println!("{{\"manifest\": {manifest_json}}}");
    for m in out.metrics.iter().chain(&out.figures) {
        eprintln!(
            "  {:<44} {:>16} {}",
            m.name,
            util::json_num(m.value),
            m.unit
        );
    }
    println!("{}", out.to_json());
}
