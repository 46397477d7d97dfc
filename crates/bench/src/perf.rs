//! Minimal wall-clock measurement harness.
//!
//! Replaces criterion (unavailable in offline builds) for the
//! `micro_kernels` target: warm up, run a fixed iteration count,
//! report mean time per iteration.

use std::time::Instant;

/// Wall-clock measurement of one benchmarked closure.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Iterations timed.
    pub iters: u64,
    /// Total wall-clock seconds over all iterations.
    pub total_secs: f64,
}

impl Measurement {
    /// Mean seconds per iteration.
    pub fn secs_per_iter(&self) -> f64 {
        self.total_secs / self.iters.max(1) as f64
    }

    /// Mean nanoseconds per iteration.
    pub fn ns_per_iter(&self) -> f64 {
        self.secs_per_iter() * 1e9
    }
}

/// Times `iters` invocations of `f` (after one untimed warm-up call).
pub fn time_fn<F: FnMut()>(iters: u64, mut f: F) -> Measurement {
    assert!(iters > 0, "need at least one iteration");
    f(); // warm-up: touch caches, fault in pages
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    Measurement {
        iters,
        total_secs: start.elapsed().as_secs_f64(),
    }
}

/// Times `f` and prints a criterion-style one-liner.
pub fn bench_fn<F: FnMut()>(name: &str, iters: u64, f: F) -> Measurement {
    let m = time_fn(iters, f);
    let per = m.ns_per_iter();
    if per >= 1e6 {
        println!("{name:<40} {:>12.3} ms/iter ({iters} iters)", per / 1e6);
    } else if per >= 1e3 {
        println!("{name:<40} {:>12.3} us/iter ({iters} iters)", per / 1e3);
    } else {
        println!("{name:<40} {:>12.1} ns/iter ({iters} iters)", per);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_fn_counts_iterations() {
        let mut calls = 0u64;
        let m = time_fn(10, || calls += 1);
        assert_eq!(calls, 11, "10 timed + 1 warm-up");
        assert_eq!(m.iters, 10);
        assert!(m.total_secs >= 0.0);
        assert!(m.ns_per_iter() >= 0.0);
    }
}
