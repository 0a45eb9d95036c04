//! A fixed reference task that gauges how fast the processor is right now.
//!
//! On a shared host, neighbours slow the processor the benchmark runs on by
//! up to 1.8x, in phases that last from seconds to minutes and that no
//! amount of repetition inside one invocation averages out. The simulator is
//! allocation- and pointer-heavy, and so is this task: an ordered map of
//! boxed values under random inserts and removals. Timed on the same
//! processor right before and right after each run, it tracks the phase that
//! run saw, and `run_s` divides it out; `setup_s` likewise, with a gauge
//! after each set-up (see `README.md`).
//!
//! The task is code of the benchmark, not of the program, so no change to the
//! program moves it. It runs on a thread of its own, whose allocator arena
//! is apart from the one the runs use, so the heap a run leaves behind does
//! not change its cost either.

use std::collections::BTreeMap;
use std::time::Instant;

/// Seconds the reference task takes on an idle processor of the 2-vCPU
/// machine the benchmark was tuned on; `run_s` and `setup_s` are expressed
/// at that speed.
pub const REFERENCE_S: f64 = 0.06;

/// Inserts made by one reference task.
const INSERTS: u64 = 200_000;

/// Distinct keys the inserts draw from: about 10 MB of map.
const KEYS: u64 = 100_000;

/// The reference task itself; returns a value so it cannot be optimised
/// away.
pub fn reference_task() -> usize {
    let mut map = BTreeMap::new();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for i in 0..INSERTS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % KEYS, Box::new([i; 8]));
        if i % 3 == 0 {
            map.remove(&(x % (KEYS / 2)));
        }
    }
    map.len()
}

/// Share of a run's wall time spent on each of its two gauges: one reference
/// task is a noisy gauge of a run many times longer, and a few in a row are a
/// steadier one.
const GAUGE_SHARE: f64 = 0.05;

/// Gauges the processor's speed next to a run of `wall` seconds: the mean
/// wall time of the reference tasks that fill [`GAUGE_SHARE`] of it (at least
/// one), run back to back on a fresh thread, which inherits the calling
/// thread's processor affinity; the caller waits for it.
pub fn gauge(wall: f64) -> f64 {
    let tasks = ((wall * GAUGE_SHARE / REFERENCE_S).round() as usize).max(1);
    std::thread::spawn(move || {
        let started = Instant::now();
        for _ in 0..tasks {
            std::hint::black_box(reference_task());
        }
        started.elapsed().as_secs_f64() / tasks as f64
    })
    .join()
    .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_task_is_deterministic() {
        assert_eq!(reference_task(), reference_task());
        let seconds = gauge(0.0);
        assert!(seconds.is_finite() && seconds > 0.0);
    }
}
