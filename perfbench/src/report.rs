//! Result bookkeeping: metrics with units, the correctness tally, the
//! environment stamp, small statistics helpers and the machine probes
//! (peak RSS, last-level cache size, copy bandwidth).

use std::collections::BTreeMap;
use std::time::Instant;

/// Median of `xs` (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// FNV-1a over `bytes`: the digest the pinned answers are compared by.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// splitmix64: the generator every seeded input is drawn from.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    metrics: BTreeMap<String, (f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Counts one checked operation; `ok == false` records `what` as a
    /// failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Prints the human-readable report and then, as the last line, the
    /// one-object JSON result.
    pub fn print(&self) {
        for f in &self.failures {
            println!("FAILED {f}");
        }
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "fail_ratio = {ratio} ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        for (name, (value, unit)) in &self.metrics {
            println!("{name} = {value} {unit}");
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }
}

/// Peak resident set of the process `pid` (`"self"` for this one), in
/// MiB, from `/proc/<pid>/status`'s `VmHWM`.
pub fn peak_rss_mib(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Size of the largest CPU cache sysfs reports, in bytes.
fn last_level_cache_bytes() -> Option<usize> {
    let mut best = None;
    for i in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let t = text.trim();
        let (num, mul) = match t.chars().last() {
            Some('K') => (&t[..t.len() - 1], 1 << 10),
            Some('M') => (&t[..t.len() - 1], 1 << 20),
            _ => (t, 1),
        };
        if let Ok(v) = num.parse::<usize>() {
            best = best.max(Some(v * mul));
        }
    }
    best
}

/// Copy bandwidth over two arrays that together span 4× the last-level
/// cache, STREAM convention (bytes read + bytes written per second).
/// Returns `(GB/s, llc bytes, bytes per array)`; the median of five
/// copies after a first-touch fill.
pub fn copy_bandwidth() -> (f64, usize, usize) {
    let llc = last_level_cache_bytes().unwrap_or(32 << 20);
    let words = (2 * llc) / 8;
    let src: Vec<u64> = (0..words as u64).collect();
    let mut dst = vec![0u64; words];
    let mut rates = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        rates.push(2.0 * (words * 8) as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    (median(&rates), llc, words * 8)
}

/// The environment every result set is stamped with.
pub fn print_env(workload: &str, seed: u64, threads: usize, trace: bool) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rev = git_rev().unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "env workload={workload} seed={seed} trace={} nproc={nproc} thread_budget={threads} \
         git_rev={rev} profile={profile}",
        u8::from(trace)
    );
}

/// The commit `.git/HEAD` names, read from the working directory only
/// (no `git` process, no search above the checkout).
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{name}")) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(name).map(|rev| rev.trim().to_string()))
}
