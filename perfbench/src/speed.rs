//! Host-speed correction for CPU-bound timings.
//!
//! On a shared host the same single-threaded work can take twice as
//! long from one second to the next, and slow spells last seconds, so
//! medians of raw wall time do not repeat from run to run. The benchmark
//! therefore interleaves a fixed reference loop — plain `std` code that
//! builds, sums and frees a binary tree of boxed nodes, sharing no code
//! with the program under test — with the operations it times, at most
//! [`EVERY`] apart, and several times over after any stretch of
//! [`LONG`] or more. Each operation's wall time is scaled by
//! `NOMINAL_MS / r`, where `r` is the median reference time within
//! [`WINDOW`] of the operation. A change to the program moves the
//! operation and not the reference; a slow spell of the host moves both.

use std::time::{Duration, Instant};

/// A typical time of the (warmed) reference loop; corrected times are in
/// milliseconds at the host speed where it takes this long.
pub const NOMINAL_MS: f64 = 2.0;

/// The longest stretch of timed work between two reference samples.
const EVERY: Duration = Duration::from_millis(50);

/// After a stretch this long without a sample (one long operation), the
/// reference is sampled [`BURST`] times: a long operation averages the
/// host's speed over its whole length, so one sample at either end is too
/// noisy a stand-in.
const LONG: Duration = Duration::from_millis(500);
const BURST: usize = 5;

/// Reference samples this close to an operation (before its start or
/// after its end) set its correction.
const WINDOW: f64 = 0.5;

enum Tree {
    Leaf,
    Node(Box<Tree>, u64, Box<Tree>),
}

fn build(depth: u32, key: u64) -> Tree {
    if depth == 0 {
        Tree::Leaf
    } else {
        Tree::Node(
            Box::new(build(depth - 1, key.wrapping_mul(3))),
            key,
            Box::new(build(depth - 1, key.wrapping_mul(5).wrapping_add(1))),
        )
    }
}

fn sum(t: &Tree) -> u64 {
    match t {
        Tree::Leaf => 0,
        Tree::Node(l, k, r) => sum(l).wrapping_add(*k).wrapping_add(sum(r)),
    }
}

fn reference_once() -> f64 {
    let t = Instant::now();
    let tree = build(std::hint::black_box(15), 7);
    std::hint::black_box(sum(&tree));
    drop(tree);
    t.elapsed().as_secs_f64() * 1e3
}

/// One timed run of the reference loop, in milliseconds, after an
/// untimed one: the first run after an operation pays for the caches and
/// allocator state that operation left, which says nothing about the
/// host.
pub fn reference_ms() -> f64 {
    reference_once();
    reference_once()
}

/// A series of reference samples, timestamped in seconds since the
/// series began.
pub struct Speed {
    origin: Instant,
    samples: Vec<(f64, f64)>,
    last: Instant,
}

impl Default for Speed {
    fn default() -> Self {
        let now = Instant::now();
        let mut s = Speed {
            origin: now,
            samples: Vec::new(),
            last: now,
        };
        s.sample();
        s
    }
}

impl Speed {
    fn sample(&mut self) {
        let at = self.now();
        self.samples.push((at, reference_ms()));
        self.last = Instant::now();
    }

    /// Seconds since the series began.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Samples the reference when the last sample is [`EVERY`] old
    /// ([`BURST`] times when it is [`LONG`] old); call before each timed
    /// operation.
    pub fn tick(&mut self) {
        let age = self.last.elapsed();
        let n = if age >= LONG {
            BURST
        } else {
            usize::from(age >= EVERY)
        };
        for _ in 0..n {
            self.sample();
        }
    }

    /// Closes the series with a last burst of samples.
    pub fn factors(&mut self) -> Factors {
        for _ in 0..BURST {
            self.sample();
        }
        Factors(self.samples.clone())
    }
}

/// A closed series of reference samples.
#[derive(Debug, Clone, Default)]
pub struct Factors(Vec<(f64, f64)>);

/// One timed operation: its start and end on the series' clock, and its
/// raw time in any unit.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub start: f64,
    pub end: f64,
    pub raw: f64,
}

impl Factors {
    /// `NOMINAL_MS` over the median reference time near `[start, end]`
    /// (the nearest sample when none is within [`WINDOW`]).
    pub fn factor(&self, start: f64, end: f64) -> f64 {
        let lo = self.0.partition_point(|&(t, _)| t < start - WINDOW);
        let hi = self.0.partition_point(|&(t, _)| t <= end + WINDOW);
        let near: Vec<f64> = if lo < hi {
            self.0[lo..hi].iter().map(|&(_, ms)| ms).collect()
        } else {
            self.0
                .iter()
                .min_by(|a, b| (a.0 - start).abs().total_cmp(&(b.0 - start).abs()))
                .map(|&(_, ms)| ms)
                .into_iter()
                .collect()
        };
        if near.is_empty() {
            1.0
        } else {
            NOMINAL_MS / crate::stats::median(&near)
        }
    }

    /// An operation's raw time corrected to the reference's nominal speed.
    pub fn correct(&self, t: &Timed) -> f64 {
        t.raw * self.factor(t.start, t.end)
    }

    /// The median of corrected times.
    pub fn median(&self, ts: &[Timed]) -> f64 {
        crate::stats::median(&ts.iter().map(|t| self.correct(t)).collect::<Vec<_>>())
    }

    /// The median correction factor over the series.
    pub fn median_factor(&self) -> f64 {
        let v: Vec<f64> = self.0.iter().map(|&(_, ms)| NOMINAL_MS / ms).collect();
        crate::stats::median(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operations_are_scaled_by_the_reference_samples_near_them() {
        let n = NOMINAL_MS;
        let f = Factors(vec![
            (0.0, 0.8 * n),
            (0.2, 1.2 * n),
            (0.4, n),
            (2.0, 0.5 * n),
            (9.0, 0.1 * n),
        ]);
        // Near [0.1, 0.3]: the median sample is the nominal time.
        let t = Timed {
            start: 0.1,
            end: 0.3,
            raw: 10.0,
        };
        assert_eq!(f.correct(&t), 10.0);
        // Near [2.0, 2.1]: one sample, a host twice the nominal speed.
        assert_eq!(f.factor(2.0, 2.1), 2.0);
        // Nothing within the window of [5.0, 5.1]: the nearest sample.
        assert_eq!(f.factor(5.0, 5.1), 2.0);
        assert_eq!(f.median(&[t, t, t]), 10.0);
        assert!(reference_ms() > 0.0);
    }
}
