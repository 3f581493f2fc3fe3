//! Small measurement helpers: quantiles, resident memory, the host
//! reference loop and a deterministic generator.

use std::hint::black_box;
use std::time::Instant;

/// The `q`-quantile of `values` (linear interpolation between order
/// statistics); 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Interquartile mean: the mean of the middle half of `values` (a
/// quarter dropped at each end); 0 for an empty slice. Across the rounds
/// of one run it moves smoothly with the share of time a host spends
/// fast or slow, where a median would snap between the two, and it
/// ignores the rounds a host stall ruined as long as they are fewer than
/// a quarter.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Nanoseconds of a fixed reference loop (median of five passes). When
/// this moves between runs, the host moved, not the program.
pub fn host_spin_ns() -> f64 {
    let mut passes = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = Instant::now();
        let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
        for _ in 0..2_000_000u32 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x ^= x >> 29;
        }
        black_box(x);
        passes.push(t.elapsed().as_nanos() as f64);
    }
    median(&passes)
}

/// SplitMix64: the benchmark's own deterministic input generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Mixes a seed with a purpose tag so every input family gets its own
/// independent stream.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    Rng::new(seed ^ tag.rotate_left(17)).next_u64()
}
