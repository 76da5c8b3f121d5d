//! Host speed probe.
//!
//! Shared hosts change speed by up to ~1.8x within seconds as neighbours
//! load the sibling hardware threads, which no run length averages away.
//! A fixed std-only kernel (fill, sort and sum 8192 floats), timed right
//! before and right after an operation on as many threads as the
//! operation uses, measures the speed the operation ran at. It shares no
//! code with the engine, so no engine change can move it.

use std::hint::black_box;
use std::time::Instant;

/// Kernel milliseconds at the reference speed that scaled times are
/// expressed in (about the kernel's median on a 2-core x86-64 VM).
pub const REFERENCE_MS: f64 = 0.35;

fn kernel_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut v: Vec<f64> = (0..8192)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64
        })
        .collect();
    v.sort_unstable_by(f64::total_cmp);
    black_box(v.iter().sum::<f64>());
    start.elapsed().as_secs_f64() * 1e3
}

/// Median of three kernel runs: the first run after an operation pays
/// for cold caches, and one run can catch an interrupt.
fn median_kernel_ms() -> f64 {
    let mut runs = [kernel_ms(), kernel_ms(), kernel_ms()];
    runs.sort_unstable_by(f64::total_cmp);
    runs[1]
}

/// Mean kernel time over `threads` threads running it at once.
pub fn sample(threads: usize) -> f64 {
    if threads <= 1 {
        return median_kernel_ms();
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(median_kernel_ms)).collect();
        handles.into_iter().map(|h| h.join().expect("speed kernel does not panic")).sum::<f64>()
            / threads as f64
    })
}

/// `wall_ms` scaled to the reference speed, given the kernel samples
/// taken just before and just after the operation.
pub fn scaled(wall_ms: f64, before: f64, after: f64) -> f64 {
    wall_ms * 2.0 * REFERENCE_MS / (before + after)
}

/// Times of one operation class: as measured and speed-scaled.
#[derive(Debug, Default)]
pub struct Timings {
    pub wall: crate::stats::Samples,
    pub scaled: crate::stats::Samples,
}

impl Timings {
    pub fn push(&mut self, wall_ms: f64, before: f64, after: f64) {
        self.wall.push(wall_ms);
        self.scaled.push(scaled(wall_ms, before, after));
    }

    pub fn len(&self) -> usize {
        self.wall.len()
    }
}
