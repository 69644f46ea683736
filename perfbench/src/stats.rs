//! Sample statistics, the best-of-k unit-cost timer, and the `/proc`
//! readers for CPU time and peak resident memory.

use std::time::Instant;

use crate::json::Json;

/// Linear-interpolated percentile of an ascending-sorted slice, `p` in
/// `[0, 1]` (the "inclusive" method: p = 0 is the minimum, p = 1 the
/// maximum, p = 0.5 the usual median).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    s
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 0.5)
}

/// Min / quartiles / max of a sample set — printed beside every median so
/// the noise of a number is visible next to it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub p90: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        Summary {
            n: s.len(),
            min: s[0],
            q1: percentile(&s, 0.25),
            median: percentile(&s, 0.5),
            q3: percentile(&s, 0.75),
            p90: percentile(&s, 0.9),
            max: s[s.len() - 1],
        }
    }

    /// Interquartile range as a share of the median — the spread the
    /// benchmark's bounds are judged against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(self) -> Json {
        Json::obj(vec![
            ("n", Json::Num(self.n as f64)),
            ("min", Json::Num(self.min)),
            ("q1", Json::Num(self.q1)),
            ("median", Json::Num(self.median)),
            ("q3", Json::Num(self.q3)),
            ("max", Json::Num(self.max)),
        ])
    }
}

/// Best-of-`k` wall time of `f`, in microseconds — the benchmark's own
/// copy of the repository's `microbench` loop, sized for ops that take
/// from a microsecond to tens of milliseconds: one untimed warm-up call
/// calibrates how many calls make a sample of at least `min_sample_us`,
/// then `k` samples are timed and the fastest sample's per-call time is
/// returned (the fastest, not the median, for the reason
/// `run::end_to_end` gives: on a shared host interference only ever adds
/// time).
pub fn time_best_us<R>(k: usize, min_sample_us: f64, mut f: impl FnMut() -> R) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    let once = (t0.elapsed().as_secs_f64() * 1e6).max(0.01);
    let iters = ((min_sample_us / once).ceil() as usize).clamp(1, 1_000_000);
    (0..k.max(1))
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            t0.elapsed().as_secs_f64() * 1e6 / iters as f64
        })
        .fold(f64::MAX, f64::min)
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux has
/// fixed `USER_HZ` at 100 on every architecture this builds for; reading
/// it properly needs `sysconf`, i.e. a libc dependency the hermetic build
/// does not have.
const CLK_TCK: f64 = 100.0;

/// Process CPU time so far, all threads (joined ones included), as
/// `(user, system)` seconds.
pub fn cpu_seconds() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let mut f = rest.split_whitespace().skip(11);
    let mut tick = || -> f64 { f.next().and_then(|v| v.parse().ok()).expect("cpu ticks") };
    let (utime, stime) = (tick(), tick());
    (utime / CLK_TCK, stime / CLK_TCK)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert_eq!(percentile(&s, 0.5), 2.5);
        assert_eq!(percentile(&s, 0.25), 1.75);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn summary_orders_its_fields_and_computes_spread() {
        let s = Summary::of(&[10.0, 12.0, 11.0, 9.0, 13.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (5, 9.0, 11.0, 13.0));
        assert!(s.min <= s.q1 && s.q1 <= s.median && s.median <= s.q3 && s.q3 <= s.max);
        assert!((s.spread() - 2.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn timer_grows_with_the_work_timed() {
        let spin = |n: u64| move || (0..n).fold(0u64, |a, i| a.wrapping_mul(31).wrapping_add(i));
        let small = time_best_us(5, 200.0, spin(1_000));
        let large = time_best_us(5, 200.0, spin(100_000));
        assert!(small > 0.0 && large > 10.0 * small, "{small} vs {large}");
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        let (u, s) = cpu_seconds();
        assert!(u >= 0.0 && s >= 0.0);
        assert!(peak_rss_mb() > 0.5);
    }
}
