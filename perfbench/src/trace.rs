//! Tracing for the per-layer run: the harness's own spans around each
//! public call into a layer, and readers for the phase spans the solver
//! already records in the `igr-obs` registry.
//!
//! Nothing here records in an untraced run: a `Tracer::new(false)` keeps no spans,
//! and `igr_obs::enable()` is called only by the traced run.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One harness span. Spans of one request share `trace_id` (a scenario's
/// content hash on `campaign-mix`, the leg number on the jet workloads).
struct SpanRec {
    name: &'static str,
    parent: &'static str,
    trace_id: u64,
    start_ns: u64,
    dur_ns: u64,
}

/// In-memory span recorder; [`Tracer::write_jsonl`] writes it out at exit.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Record `[start, now)` as span `name` under `parent`; returns the
    /// duration in seconds either way.
    pub fn close(
        &self,
        name: &'static str,
        parent: &'static str,
        trace_id: u64,
        start: Instant,
    ) -> f64 {
        let end = Instant::now();
        let dur = end - start;
        if self.on {
            let rec = SpanRec {
                name,
                parent,
                trace_id,
                start_ns: (start - self.epoch).as_nanos() as u64,
                dur_ns: dur.as_nanos() as u64,
            };
            self.spans.lock().expect("span buffer poisoned").push(rec);
        }
        dur.as_secs_f64()
    }

    /// Run `f` inside span `name`; returns its value and duration (s).
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: &'static str,
        trace_id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        (out, self.close(name, parent, trace_id, start))
    }

    /// Write every span as one JSON line (times in microseconds).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span buffer poisoned").iter() {
            writeln!(
                w,
                "{{\"name\":\"{}\",\"parent\":\"{}\",\"trace_id\":\"{:016x}\",\"start_us\":{},\"dur_us\":{}}}",
                s.name,
                s.parent,
                s.trace_id,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3
            )?;
        }
        w.flush()
    }
}

/// One `igr-obs` span event, as exported by the registry.
#[derive(Clone, Debug)]
pub struct ObsEvent {
    pub name: String,
    pub start_us: f64,
    pub dur_us: f64,
    pub tid: u64,
}

impl ObsEvent {
    fn end_us(&self) -> f64 {
        self.start_us + self.dur_us
    }
}

/// The registry's buffered span events (its JSON-lines export, parsed).
pub fn obs_events() -> Vec<ObsEvent> {
    let mut buf = Vec::new();
    igr_obs::Registry::global()
        .export_jsonl(&mut buf)
        .expect("export to memory");
    let text = String::from_utf8(buf).expect("registry export is UTF-8");
    text.lines()
        .filter(|l| l.contains("\"type\":\"span\""))
        .filter_map(|l| {
            Some(ObsEvent {
                name: str_field(l, "name")?,
                start_us: num_field(l, "ts_us")?,
                dur_us: num_field(l, "dur_us")?,
                tid: num_field(l, "tid")? as u64,
            })
        })
        .collect()
}

fn str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let end = start + line[start..].find('"')?;
    Some(line[start..end].to_string())
}

fn num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// The solver's span tree (igr-core `solver.rs`/`rhs.rs`): each phase and
/// the phase it runs inside. `flux.slab` runs on pool workers, every other
/// child on its parent's thread.
pub const PHASE_PARENT: &[(&str, &str)] = &[
    ("solver.cfl", "solver.step"),
    ("ghost.fill_state", "solver.step"),
    ("sigma.solve", "solver.step"),
    ("flux.sweep", "solver.step"),
    ("igr.source", "sigma.solve"),
    ("ghost.sigma", "sigma.solve"),
    ("sigma.sweep", "sigma.solve"),
    ("pool.dispatch", "flux.sweep"),
    ("flux.slab", "pool.dispatch"),
];

/// The per-layer names of the solver phases, as `core.<name>.ms_per_step`.
pub const CORE_PHASES: &[(&str, &str)] = &[
    ("sigma_sweep", "sigma.sweep"),
    ("flux_sweep", "flux.sweep"),
    ("igr_source", "igr.source"),
    ("ghost_state", "ghost.fill_state"),
    ("ghost_sigma", "ghost.sigma"),
    ("cfl", "solver.cfl"),
    ("pool_dispatch", "pool.dispatch"),
];

/// Self time of every phase from per-phase totals alone (the registry's
/// histograms), for solvers that each run on one thread: every child span
/// then lies inside its parent, so a phase's self time is its total minus
/// its children's totals. Any unit.
pub fn self_times_from_totals(totals: &BTreeMap<String, f64>) -> BTreeMap<String, f64> {
    totals
        .iter()
        .map(|(name, total)| {
            let children: f64 = PHASE_PARENT
                .iter()
                .filter(|(_, p)| p == name)
                .filter_map(|(c, _)| totals.get(*c))
                .sum();
            (name.clone(), total - children)
        })
        .collect()
}

/// Self time (µs, summed over events) of every phase in `events`: a span's
/// duration minus the part of its interval that its child spans cover.
pub fn self_times_us(events: &[ObsEvent]) -> BTreeMap<String, f64> {
    let mut by_name: BTreeMap<&str, Vec<&ObsEvent>> = BTreeMap::new();
    for e in events {
        by_name.entry(e.name.as_str()).or_default().push(e);
    }
    for v in by_name.values_mut() {
        v.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
    }
    let mut out = BTreeMap::new();
    for (&name, parents) in &by_name {
        let child_names: Vec<&str> = PHASE_PARENT
            .iter()
            .filter(|(_, p)| *p == name)
            .map(|(c, _)| *c)
            .collect();
        let mut total = 0.0;
        for p in parents {
            let mut iv: Vec<(f64, f64)> = Vec::new();
            for c in &child_names {
                let same_thread = *c != "flux.slab";
                let Some(kids) = by_name.get(c) else { continue };
                let first = kids.partition_point(|k| k.start_us < p.start_us);
                for k in &kids[first..] {
                    if k.start_us > p.end_us() {
                        break;
                    }
                    if same_thread && k.tid != p.tid {
                        continue;
                    }
                    iv.push((k.start_us, k.end_us().min(p.end_us())));
                }
            }
            total += p.dur_us - union_len(&mut iv);
        }
        out.insert(name.to_string(), total);
    }
    out
}

/// Total length covered by a set of intervals.
fn union_len(iv: &mut [(f64, f64)]) -> f64 {
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(s, e) in iv.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    covered
}

/// Median of a registry histogram from its log₂ buckets, interpolated
/// inside the bucket that holds the median (ns). `None` when empty.
pub fn hist_median_ns(buckets: &[(u64, u64)], count: u64) -> Option<f64> {
    if count == 0 {
        return None;
    }
    let target = count as f64 / 2.0;
    let mut seen = 0.0;
    for &(lo, c) in buckets {
        let c = c as f64;
        if seen + c >= target {
            let lo = lo as f64;
            let hi = 2.0 * lo.max(1.0);
            return Some(lo + (hi - lo) * (target - seen) / c);
        }
        seen += c;
    }
    buckets.last().map(|&(lo, _)| lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, start: f64, dur: f64, tid: u64) -> ObsEvent {
        ObsEvent {
            name: name.into(),
            start_us: start,
            dur_us: dur,
            tid,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let events = vec![
            ev("pool.dispatch", 0.0, 100.0, 1),
            // Two concurrent slabs on two threads cover [10, 70).
            ev("flux.slab", 10.0, 50.0, 1),
            ev("flux.slab", 20.0, 50.0, 2),
        ];
        let st = self_times_us(&events);
        assert!((st["pool.dispatch"] - 40.0).abs() < 1e-9);
        assert!((st["flux.slab"] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn same_thread_children_ignore_other_threads() {
        let events = vec![
            ev("sigma.solve", 0.0, 100.0, 1),
            ev("sigma.sweep", 10.0, 30.0, 1),
            ev("sigma.sweep", 10.0, 80.0, 2),
        ];
        let st = self_times_us(&events);
        assert!((st["sigma.solve"] - 70.0).abs() < 1e-9);
    }

    #[test]
    fn self_time_from_totals_subtracts_direct_children() {
        let totals: BTreeMap<String, f64> = [
            ("solver.step", 100.0),
            ("sigma.solve", 60.0),
            ("sigma.sweep", 40.0),
            ("flux.sweep", 30.0),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        let st = self_times_from_totals(&totals);
        assert!((st["solver.step"] - 10.0).abs() < 1e-9);
        assert!((st["sigma.solve"] - 20.0).abs() < 1e-9);
        assert!((st["sigma.sweep"] - 40.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_median_interpolates_in_bucket() {
        // 4 samples in [1024, 2048), 4 in [2048, 4096): median at 2048.
        let m = hist_median_ns(&[(1024, 4), (2048, 4)], 8).unwrap();
        assert!((m - 2048.0).abs() < 1e-9);
    }
}
