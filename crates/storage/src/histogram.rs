//! Equi-width histograms over key domains.
//!
//! FADE needs to estimate, per file, how many entries of the database a range
//! tombstone invalidates (`rd_f` in §4.1.3). The paper piggybacks on the
//! histograms production engines already maintain; here the tree keeps one
//! system-wide histogram on the sort key and one on the delete key, updated on
//! ingestion, and uses [`Histogram::estimate_range`] for that estimate.

/// A fixed-bucket, equi-width histogram over a `u64` domain.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: u64,
    hi: u64,
    buckets: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram covering `[lo, hi)` with `buckets` buckets.
    ///
    /// # Panics
    /// Panics if `hi <= lo` or `buckets == 0`.
    pub fn new(lo: u64, hi: u64, buckets: usize) -> Self {
        assert!(hi > lo, "histogram domain must be non-empty");
        assert!(buckets > 0, "histogram needs at least one bucket");
        Histogram { lo, hi, buckets: vec![0; buckets], total: 0 }
    }

    fn bucket_of(&self, key: u64) -> usize {
        if key <= self.lo {
            return 0;
        }
        let key = key.min(self.hi - 1);
        let span = self.hi - self.lo;
        let idx = ((key - self.lo) as u128 * self.buckets.len() as u128 / span as u128) as usize;
        idx.min(self.buckets.len() - 1)
    }

    /// Width of one bucket in key units.
    fn bucket_width(&self) -> f64 {
        (self.hi - self.lo) as f64 / self.buckets.len() as f64
    }

    /// Records one occurrence of `key` (keys outside the domain are clamped).
    pub fn add(&mut self, key: u64) {
        let b = self.bucket_of(key);
        self.buckets[b] += 1;
        self.total += 1;
    }

    /// Estimates how many recorded keys fall in `[lo, hi)` assuming a uniform
    /// distribution inside each bucket.
    pub fn estimate_range(&self, lo: u64, hi: u64) -> f64 {
        if hi <= lo || self.total == 0 {
            return 0.0;
        }
        let lo = lo.max(self.lo);
        let hi = hi.min(self.hi);
        if hi <= lo {
            return 0.0;
        }
        let width = self.bucket_width();
        let mut estimate = 0.0;
        let first = self.bucket_of(lo);
        let last = self.bucket_of(hi - 1);
        for b in first..=last {
            let b_lo = self.lo as f64 + b as f64 * width;
            let b_hi = b_lo + width;
            let overlap_lo = (lo as f64).max(b_lo);
            let overlap_hi = (hi as f64).min(b_hi);
            let frac = ((overlap_hi - overlap_lo) / width).clamp(0.0, 1.0);
            estimate += self.buckets[b] as f64 * frac;
        }
        estimate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_data_gives_proportional_estimates() {
        let mut h = Histogram::new(0, 1000, 50);
        for k in 0..1000 {
            h.add(k);
        }
        let est = h.estimate_range(0, 500);
        assert!((est - 500.0).abs() < 25.0, "estimate {est}");
    }

    #[test]
    fn empty_and_degenerate_ranges() {
        let mut h = Histogram::new(0, 100, 10);
        assert_eq!(h.estimate_range(10, 20), 0.0);
        h.add(5);
        assert_eq!(h.estimate_range(20, 20), 0.0);
        assert_eq!(h.estimate_range(30, 20), 0.0);
    }

    #[test]
    fn keys_outside_domain_are_clamped() {
        let mut h = Histogram::new(100, 200, 10);
        h.add(5); // clamps to first bucket
        h.add(1000); // clamps to last bucket
        assert!(h.estimate_range(100, 200) > 1.9);
    }

    #[test]
    fn skewed_data_is_reflected() {
        let mut h = Histogram::new(0, 1000, 100);
        for _ in 0..900 {
            h.add(10);
        }
        for k in 0..100 {
            h.add(500 + k);
        }
        assert!(h.estimate_range(0, 100) > 800.0);
        assert!(h.estimate_range(400, 700) < 200.0);
    }

    #[test]
    #[should_panic]
    fn rejects_empty_domain() {
        let _ = Histogram::new(10, 10, 4);
    }
}
