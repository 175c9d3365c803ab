//! Machine-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts by a quarter or
//! more over tens of seconds, for every program alike (a register-only loop
//! drifts as much as the workloads do). Timed phases are therefore
//! interleaved with a fixed reference task owned by the benchmark, and the
//! gated time metrics are scaled by how fast the reference ran next to
//! them: a figure reads as it would have on a machine where the reference
//! takes [`NOMINAL_MS`]. The repository's code cannot change the reference,
//! so a change to that code moves a scaled figure as much as the raw one;
//! only the machine's drift cancels.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Reference time the scaled figures are expressed against: about the
/// reference's median on the machine the baseline was measured on.
const NOMINAL_MS: f64 = 2.5;

/// Runs of the reference per measurement; a measurement is their median.
const REPS: usize = 3;

/// Points of the reference task.
const POINTS: usize = 200;

/// A reusable reference task over a point set built once.
pub struct Reference {
    points: Vec<[f64; 2]>,
}

impl Reference {
    pub fn new() -> Self {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let points = (0..POINTS)
            .map(|_| {
                let x = (next() >> 11) as f64 / (1u64 << 53) as f64;
                let y = (next() >> 11) as f64 / (1u64 << 53) as f64;
                [x, y]
            })
            .collect();
        Reference { points }
    }

    /// Runs the reference task once: every pair of points against every
    /// point, the shape of a brute-force hull. It stays in registers and
    /// the L1 cache: a memory-bound reference was tried and drifted about
    /// three times as much as the workloads did. Returns its wall time in
    /// ms.
    fn run_ms(&self) -> f64 {
        let started = Instant::now();
        let pts = black_box(&self.points);
        let mut left = 0usize;
        for (i, a) in pts.iter().enumerate() {
            for b in &pts[i + 1..] {
                for c in pts {
                    let turn = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]);
                    left += usize::from(turn > 0.0);
                }
            }
        }
        black_box(left);
        started.elapsed().as_secs_f64() * 1e3
    }

    /// One measurement of one core's speed: the median of [`REPS`] runs,
    /// in ms. For phases that run one thread at a time.
    pub fn measure_ms(&self) -> f64 {
        let t: Vec<f64> = (0..REPS).map(|_| self.run_ms()).collect();
        median(&t).expect("at least one run")
    }

    /// One measurement of the whole machine's speed: [`REPS`] runs on each
    /// of `threads` threads at once, and the median of all of them, in ms.
    /// For phases that keep every core busy; on a two-core shared host it
    /// tracked the serving capacity about twice as closely as
    /// [`Reference::measure_ms`] did.
    pub fn measure_parallel_ms(&self, threads: usize) -> f64 {
        let t: Vec<f64> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| scope.spawn(|| (0..REPS).map(|_| self.run_ms()).collect::<Vec<_>>()))
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("reference thread"))
                .collect()
        });
        median(&t).expect("at least one run")
    }
}

/// The reference's time around each of `n` phases, from `n + 1`
/// measurements taken before, between and after them: the mean of the two
/// that bracket the phase.
fn around(measurements: &[f64]) -> impl Iterator<Item = f64> + '_ {
    measurements.windows(2).map(|w| (w[0] + w[1]) / 2.0)
}

/// The times of `n` consecutive phases scaled to the nominal machine, from
/// the `n + 1` reference measurements around them.
pub fn times(times: &[f64], measurements: &[f64]) -> Vec<f64> {
    assert_eq!(times.len() + 1, measurements.len());
    times
        .iter()
        .zip(around(measurements))
        .map(|(t, r)| t * NOMINAL_MS / r)
        .collect()
}

/// The rates of `n` consecutive phases scaled to the nominal machine, from
/// the `n + 1` reference measurements around them.
pub fn rates(rates: &[f64], measurements: &[f64]) -> Vec<f64> {
    assert_eq!(rates.len() + 1, measurements.len());
    rates
        .iter()
        .zip(around(measurements))
        .map(|(x, r)| x * r / NOMINAL_MS)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_are_scaled_by_the_measurements_around_them() {
        // The machine ran at half the nominal speed around the first phase
        // and at three quarters of it around the second.
        let around = [2.0 * NOMINAL_MS, 2.0 * NOMINAL_MS, NOMINAL_MS];
        assert_eq!(times(&[10.0, 6.0], &around), vec![5.0, 4.0]);
        assert_eq!(rates(&[10.0, 6.0], &around), vec![20.0, 9.0]);
    }
}
