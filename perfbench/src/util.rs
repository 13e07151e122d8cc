//! Small shared pieces: a seeded generator, order statistics, result JSON,
//! and host facts for the provenance manifest.

use igr_core::State;
use igr_prec::{Real, Storage};

/// SplitMix64: the whole input stream of a run derives from `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)` (n ≤ 2^32, so the modulo bias is negligible).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The SplitMix64 finalizer, also used to hash positions into noise.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Linear-interpolated quantile of `xs` (`q` in `[0, 1]`); NaN when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Median of column `i` of a set of equal-length rows.
pub fn median_col<const N: usize>(rows: &[[f64; N]], i: usize) -> f64 {
    median(&rows.iter().map(|r| r[i]).collect::<Vec<_>>())
}

pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// FNV-1a over the bits of every interior value of every conserved field:
/// equal checksums mean bitwise-equal states.
pub fn state_checksum<R: Real, S: Storage<R>>(q: &State<R, S>) -> u64 {
    let shape = q.shape();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in q.fields() {
        for k in 0..shape.nz as i32 {
            for j in 0..shape.ny as i32 {
                for i in 0..shape.nx as i32 {
                    for b in f.at(i, j, k).to_f64().to_bits().to_le_bytes() {
                        h ^= u64::from(b);
                        h = h.wrapping_mul(0x0000_0100_0000_01b3);
                    }
                }
            }
        }
    }
    h
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number: Rust's shortest round-trip form keeps every digit; a
/// non-finite value (never expected) becomes `null`.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run measured and checked — printed as the last stdout line.
#[derive(Default)]
pub struct Outcome {
    /// Every output check that ran, with whether it held.
    pub checks: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
    /// The result line's metrics: the names `BENCHMARK.json` declares,
    /// which every workload reports.
    pub metrics: Vec<Metric>,
    /// Figures only this workload produces, printed in the manifest line.
    pub figures: Vec<Metric>,
}

impl Outcome {
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        let what = what.into();
        if !ok {
            eprintln!("CHECK FAILED: {what}");
        }
        self.checks.push((what, ok));
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn figure(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.figures.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`
pub fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Logical cores the process may use.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Last-level cache size in bytes, from sysfs (`None` when unreadable).
pub fn llc_bytes() -> Option<u64> {
    let dir = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u32, u64)> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let p = entry.path();
        let read = |f: &str| std::fs::read_to_string(p.join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let bytes = if let Some(k) = size.strip_suffix('K') {
            k.parse::<u64>().ok().map(|k| k * 1024)
        } else if let Some(m) = size.strip_suffix('M') {
            m.parse::<u64>().ok().map(|m| m << 20)
        } else {
            size.parse::<u64>().ok()
        };
        if let Some(bytes) = bytes {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, bytes));
            }
        }
    }
    best.map(|(_, b)| b)
}

/// Peak resident set size (`VmHWM`) of this process, in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread to CPU `cpu % host_cores()` on Linux; elsewhere,
/// or when the CPU is not available to the process, the thread stays
/// unpinned.
pub fn pin_current_thread(cpu: usize) {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        // A `cpu_set_t`: 1024 bits.
        let mut mask = [0u64; 16];
        let cpu = cpu % host_cores();
        mask[cpu / 64] |= 1u64 << (cpu % 64);
        // SAFETY: `mask` is a live 128-byte buffer for the whole call and
        // its size is passed alongside; pid 0 names the calling thread.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    let _ = cpu;
}
