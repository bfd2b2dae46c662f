//! How fast the shared host runs right now, measured with a fixed
//! computation that does not use the program under test.
//!
//! Other tenants of the host slow every thread of the benchmark down,
//! and over minutes by a third or more: on the host this benchmark was
//! written on, the closed-loop capacity of every workload fell by
//! 24–31 % within one quarter of an hour while CPU steal stayed near
//! zero. A throughput measured in one run is only comparable with one
//! measured in another at the same host speed, so the benchmark times a
//! reference computation next to each measurement and scales by it.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Side of the reference matrix; its 36 KiB stay in the L2 cache.
const N: usize = 96;

/// Power-iteration steps in one timing of the reference.
const STEPS: usize = 400;

/// Timings per measurement; the median is kept.
const TIMINGS: usize = 3;

/// What one timing of the reference takes on the calm host the benchmark
/// was calibrated on (a shared 2-core x86-64 VM). Only ratios to it are
/// used, so its value sets the scale of the scaled metrics, not their
/// ratios between commits.
pub const CALM: Duration = Duration::from_micros(2_400);

/// Times one run of the reference: power iteration on a fixed 96×96
/// matrix, normalised every step so the values stay finite.
fn time_reference() -> Duration {
    let m: Vec<f32> = (0..N * N)
        .map(|i| ((i * 7919 % 97) as f32 - 48.0) / 97.0)
        .collect();
    let mut v = vec![1.0f32; N];
    let mut next = vec![0.0f32; N];
    let start = Instant::now();
    for _ in 0..STEPS {
        for (o, row) in next.iter_mut().zip(black_box(&m).chunks_exact(N)) {
            *o = row.iter().zip(&v).map(|(a, b)| a * b).sum();
        }
        let norm = next
            .iter()
            .fold(0.0f32, |acc, x| acc.max(x.abs()))
            .max(1e-30);
        for (vi, ni) in v.iter_mut().zip(&next) {
            *vi = ni / norm;
        }
    }
    black_box(&v);
    start.elapsed()
}

/// How many times slower than [`CALM`] the host runs the reference now
/// (the median of a few timings).
pub fn slowdown() -> f64 {
    let mut times: Vec<f64> = (0..TIMINGS)
        .map(|_| time_reference().as_secs_f64())
        .collect();
    times.sort_by(f64::total_cmp);
    times[TIMINGS / 2] / CALM.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_is_timed_and_finite() {
        let s = slowdown();
        assert!(s.is_finite() && s > 0.0, "slowdown {s}");
    }
}
