//! The estimators every timing number goes through.
//!
//! * [`blockwise_min`] — a run executes the same block list in every pass,
//!   each block as a run of timed slices; the duration of a slice is its
//!   minimum over the passes. Interference on a shared machine only ever adds
//!   time, so the minimum is the stable estimator, and because it is taken
//!   per slice and not per pass, one busy stretch cannot poison a whole pass.
//! * [`Percentiles`] — latency percentiles of individually timed operations,
//!   reported only as far out as the sample supports: a percentile needs at
//!   least [`MIN_BEYOND`] samples beyond it.

/// Samples a percentile needs beyond it before it is worth reporting.
pub const MIN_BEYOND: usize = 10;

/// Element-wise minimum over passes of `times[pass][slice]`.
///
/// # Panics
/// Panics if the passes disagree on the number of slices (they execute one
/// precomputed list, so that is a harness bug).
pub fn blockwise_min<'a>(passes: impl IntoIterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut passes = passes.into_iter();
    let Some(first) = passes.next() else {
        return Vec::new();
    };
    let mut min = first.to_vec();
    for pass in passes {
        assert_eq!(pass.len(), min.len(), "passes ran different block lists");
        for (m, t) in min.iter_mut().zip(pass) {
            if *t < *m {
                *m = *t;
            }
        }
    }
    min
}

/// Latency samples sorted once, queried by quantile.
#[derive(Debug, Clone, Default)]
pub struct Percentiles {
    sorted: Vec<f64>,
}

impl Percentiles {
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Percentiles { sorted: samples }
    }

    /// Number of samples behind every percentile reported from here.
    pub fn samples(&self) -> usize {
        self.sorted.len()
    }

    /// True when at least [`MIN_BEYOND`] samples lie beyond quantile `q`.
    pub fn supports(&self, q: f64) -> bool {
        beyond(self.sorted.len(), q) >= MIN_BEYOND
    }

    /// The value at quantile `q` (nearest-rank), or 0 for an empty sample.
    pub fn at(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted[rank(self.sorted.len(), q).max(1) - 1]
    }

    /// The value at `q` if the sample supports it; otherwise the value at
    /// the highest supported quantile of `ladder` below it (so the metric is
    /// never an extrapolation), with the quantile actually used.
    pub fn capped(&self, q: f64, ladder: &[f64]) -> (f64, f64) {
        if self.supports(q) {
            return (self.at(q), q);
        }
        let used = ladder
            .iter()
            .copied()
            .filter(|&l| l < q && self.supports(l))
            .fold(0.5, f64::max);
        (self.at(used), used)
    }

    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }
}

/// Nearest-rank position (1-based) of quantile `q` in a sample of `n`. The
/// small slack keeps a product such as `0.999 * 20000`, which is not exact
/// in binary, from rounding up one rank.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil().max(0.0) as usize).min(n)
}

/// Samples strictly beyond quantile `q` in a sample of `n`.
fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// The quantile ladder the latency metrics climb.
pub const LADDER: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// Median of a slice (mean of the middle pair for even lengths); 0 if empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Five passes over eight 100 ms blocks; pass 2 ran on a busy machine
    /// and is 40 % slow throughout. The estimate must not notice.
    #[test]
    fn one_poisoned_pass_does_not_move_the_estimate() {
        let clean = vec![0.1; 8];
        let mut passes = vec![clean.clone(); 5];
        passes[2] = vec![0.14; 8];
        let min = blockwise_min(passes.iter().map(Vec::as_slice));
        assert_eq!(min, clean);
        assert!((min.iter().sum::<f64>() - 0.8).abs() < 1e-12);
    }

    /// Every pass has one block hit by a 3x stall, a different block in each
    /// pass. A per-pass minimum (or median) would carry at least one stall;
    /// the blockwise minimum carries none.
    #[test]
    fn one_poisoned_block_per_pass_is_filtered_blockwise() {
        let mut passes = vec![vec![0.05; 6]; 5];
        for (p, pass) in passes.iter_mut().enumerate() {
            pass[p] = 0.15;
        }
        let min = blockwise_min(passes.iter().map(Vec::as_slice));
        assert_eq!(min, vec![0.05; 6]);
        let best_whole_pass = passes
            .iter()
            .map(|p| p.iter().sum::<f64>())
            .fold(f64::INFINITY, f64::min);
        assert!(best_whole_pass > min.iter().sum::<f64>() + 0.09);
    }

    #[test]
    fn blockwise_min_of_one_pass_is_that_pass() {
        assert_eq!(blockwise_min([&[0.3, 0.2][..]]), vec![0.3, 0.2]);
        assert!(blockwise_min(std::iter::empty()).is_empty());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let p = Percentiles::new((1..=1000).map(f64::from).collect());
        assert_eq!(p.samples(), 1000);
        assert!(p.supports(0.5));
        assert!(p.supports(0.99)); // exactly 10 beyond
        assert!(!p.supports(0.999)); // 1 beyond
        assert_eq!(p.at(0.5), 500.0);
        assert_eq!(p.at(0.99), 990.0);
        // asking for p99.9 falls back to p99, and says so
        assert_eq!(p.capped(0.999, &LADDER), (990.0, 0.99));
        assert_eq!(p.capped(0.99, &LADDER), (990.0, 0.99));

        let small = Percentiles::new((1..=25).map(f64::from).collect());
        assert!(small.supports(0.5));
        assert!(!small.supports(0.9));
        assert_eq!(small.capped(0.99, &LADDER), (13.0, 0.5));

        let big = Percentiles::new((1..=20_000).map(f64::from).collect());
        assert!(big.supports(0.999));
        assert_eq!(big.capped(0.999, &LADDER), (19_980.0, 0.999));
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
