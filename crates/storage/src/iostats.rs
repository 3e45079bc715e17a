//! I/O and CPU accounting.
//!
//! Every evaluation metric in the paper is a function of counts the engine
//! can measure exactly: pages read and written, pages dropped without being
//! read (KiWi full page drops), bytes moved by flushes and compactions, and
//! Bloom-filter probes (one hash digest each). [`IoStats`] collects those
//! counts; [`CostModel`] converts them to time using the constants the paper
//! reports (≈100 µs per SSD page access, ≈80 ns per hash), which is how the
//! CPU-vs-I/O trade-off of Figure 6(K) and the throughput numbers of
//! Figures 6(D)/(G) are reproduced from stores built in memory.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, thread-safe counters for device and CPU activity.
#[derive(Debug, Default)]
pub struct IoStats {
    /// Pages read from the device.
    pub pages_read: AtomicU64,
    /// Pages written to the device (flushes + compactions + partial drops).
    pub pages_written: AtomicU64,
    /// Pages dropped in their entirety without being read (KiWi full drops).
    pub pages_dropped: AtomicU64,
    /// Bytes read from the device.
    pub bytes_read: AtomicU64,
    /// Bytes written to the device.
    pub bytes_written: AtomicU64,
    /// Bloom filter probes performed (one hash digest per probe).
    pub bloom_probes: AtomicU64,
    /// Page reads served by the block cache **without** touching the device
    /// (not counted in `pages_read`/`bytes_read`).
    pub cache_hits: AtomicU64,
    /// Page reads that missed the block cache and fell through to the device
    /// (these *are* also counted in `pages_read`).
    pub cache_misses: AtomicU64,
    /// Durability barriers issued (`fsync`/`fdatasync` on data files, WAL
    /// segments and directories). Group commit exists to keep this number
    /// far below the record count.
    pub fsyncs: AtomicU64,
    /// Bytes of data-file segments unlinked because their last live page was
    /// dropped ([`FileBackend`](crate::FileBackend)): space given back
    /// without rewriting a page.
    pub bytes_reclaimed: AtomicU64,
}

impl IoStats {
    /// Creates a fresh, zeroed counter set behind an `Arc` for sharing.
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Records a page read of `bytes` bytes.
    pub fn record_read(&self, bytes: u64) {
        self.pages_read.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records a page write of `bytes` bytes.
    pub fn record_write(&self, bytes: u64) {
        self.pages_written.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records a full page drop (no read, no write).
    pub fn record_drop(&self) {
        self.pages_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` Bloom filter probes.
    pub fn record_bloom_probes(&self, n: u64) {
        self.bloom_probes.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a page read served from the block cache (no device access).
    pub fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a page read that missed the block cache.
    pub fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one durability barrier (`fsync`/`fdatasync`).
    pub fn record_fsync(&self) {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Returns an owned snapshot of all counters.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            pages_read: self.pages_read.load(Ordering::Relaxed),
            pages_written: self.pages_written.load(Ordering::Relaxed),
            pages_dropped: self.pages_dropped.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bloom_probes: self.bloom_probes.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            bytes_reclaimed: self.bytes_reclaimed.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.pages_read.store(0, Ordering::Relaxed);
        self.pages_written.store(0, Ordering::Relaxed);
        self.pages_dropped.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.bloom_probes.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
        self.cache_misses.store(0, Ordering::Relaxed);
        self.fsyncs.store(0, Ordering::Relaxed);
        self.bytes_reclaimed.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of [`IoStats`], supporting interval arithmetic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    pub pages_read: u64,
    pub pages_written: u64,
    pub pages_dropped: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub bloom_probes: u64,
    /// Page reads served by the block cache without a device access.
    pub cache_hits: u64,
    /// Page reads that missed the block cache (also counted in `pages_read`).
    pub cache_misses: u64,
    /// Durability barriers issued (`fsync`/`fdatasync`).
    pub fsyncs: u64,
    /// Bytes of data-file segments unlinked once no live page was left in
    /// them.
    pub bytes_reclaimed: u64,
}

impl IoSnapshot {
    /// Counter-wise difference `self - earlier` (saturating), used to measure
    /// the activity of one experiment phase.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            pages_read: self.pages_read.saturating_sub(earlier.pages_read),
            pages_written: self.pages_written.saturating_sub(earlier.pages_written),
            pages_dropped: self.pages_dropped.saturating_sub(earlier.pages_dropped),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            bloom_probes: self.bloom_probes.saturating_sub(earlier.bloom_probes),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            fsyncs: self.fsyncs.saturating_sub(earlier.fsyncs),
            bytes_reclaimed: self.bytes_reclaimed.saturating_sub(earlier.bytes_reclaimed),
        }
    }

    /// Block-cache hit rate over the reads this snapshot covers, in `[0, 1]`
    /// (0 when no cached device contributed).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / total as f64
    }

    /// Total page I/Os (reads + writes).
    pub fn page_ios(&self) -> u64 {
        self.pages_read + self.pages_written
    }

    /// Counter-wise sum of two snapshots; used by the sharded front-end to
    /// aggregate per-shard device activity into one combined view.
    pub fn combined(&self, other: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            pages_read: self.pages_read + other.pages_read,
            pages_written: self.pages_written + other.pages_written,
            pages_dropped: self.pages_dropped + other.pages_dropped,
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
            bloom_probes: self.bloom_probes + other.bloom_probes,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
            fsyncs: self.fsyncs + other.fsyncs,
            bytes_reclaimed: self.bytes_reclaimed + other.bytes_reclaimed,
        }
    }
}

impl std::ops::Add for IoSnapshot {
    type Output = IoSnapshot;

    fn add(self, rhs: IoSnapshot) -> IoSnapshot {
        self.combined(&rhs)
    }
}

impl std::iter::Sum for IoSnapshot {
    fn sum<I: Iterator<Item = IoSnapshot>>(iter: I) -> IoSnapshot {
        iter.fold(IoSnapshot::default(), |acc, s| acc.combined(&s))
    }
}

/// Converts counted device/CPU events into time, using the latency constants
/// reported in the paper (§4.2.4): an SSD page access costs ~100 µs and a
/// single MurmurHash-style digest ~80 ns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Latency of reading one page from the device, in microseconds.
    pub page_read_us: f64,
    /// Latency of writing one page to the device, in microseconds.
    pub page_write_us: f64,
    /// CPU cost of one hash digest (one Bloom probe), in nanoseconds.
    pub hash_ns: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel { page_read_us: 100.0, page_write_us: 100.0, hash_ns: 80.0 }
    }
}

impl CostModel {
    /// Total device time for a snapshot, in microseconds.
    pub fn io_time_us(&self, s: &IoSnapshot) -> f64 {
        s.pages_read as f64 * self.page_read_us + s.pages_written as f64 * self.page_write_us
    }

    /// Total hashing (CPU) time for a snapshot, in microseconds.
    pub fn cpu_time_us(&self, s: &IoSnapshot) -> f64 {
        s.bloom_probes as f64 * self.hash_ns / 1_000.0
    }

    /// Combined modeled time, in microseconds.
    pub fn total_time_us(&self, s: &IoSnapshot) -> f64 {
        self.io_time_us(s) + self.cpu_time_us(s)
    }

    /// Modeled throughput in operations per second for `ops` operations whose
    /// combined activity is `s`.
    pub fn throughput_ops_per_sec(&self, ops: u64, s: &IoSnapshot) -> f64 {
        let t = self.total_time_us(s);
        if t <= 0.0 {
            return f64::INFINITY;
        }
        ops as f64 / (t / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let s = IoStats::default();
        s.record_read(4096);
        s.record_read(4096);
        s.record_write(4096);
        s.record_drop();
        s.record_bloom_probes(5);
        let snap = s.snapshot();
        assert_eq!(snap.pages_read, 2);
        assert_eq!(snap.pages_written, 1);
        assert_eq!(snap.pages_dropped, 1);
        assert_eq!(snap.bytes_read, 8192);
        assert_eq!(snap.bytes_written, 4096);
        assert_eq!(snap.bloom_probes, 5);
        assert_eq!(snap.page_ios(), 3);
    }

    #[test]
    fn fsyncs_are_counted_and_intervalled() {
        let s = IoStats::default();
        s.record_fsync();
        s.record_fsync();
        let a = s.snapshot();
        assert_eq!(a.fsyncs, 2);
        s.record_fsync();
        let d = s.snapshot().since(&a);
        assert_eq!(d.fsyncs, 1);
        assert_eq!(a.combined(&d).fsyncs, 3);
        s.reset();
        assert_eq!(s.snapshot().fsyncs, 0);
    }

    #[test]
    fn reclaimed_bytes_are_snapshotted_intervalled_summed_and_reset() {
        let s = IoStats::default();
        s.bytes_reclaimed.fetch_add(100, Ordering::Relaxed);
        let a = s.snapshot();
        s.bytes_reclaimed.fetch_add(50, Ordering::Relaxed);
        let d = s.snapshot().since(&a);
        assert_eq!((a.bytes_reclaimed, d.bytes_reclaimed), (100, 50));
        assert_eq!(a.combined(&d).bytes_reclaimed, 150);
        s.reset();
        assert_eq!(s.snapshot().bytes_reclaimed, 0);
    }

    #[test]
    fn interval_difference() {
        let s = IoStats::default();
        s.record_read(100);
        let a = s.snapshot();
        s.record_read(100);
        s.record_write(200);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.pages_read, 1);
        assert_eq!(d.pages_written, 1);
        assert_eq!(d.bytes_written, 200);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = IoStats::default();
        s.record_read(1);
        s.record_bloom_probes(10);
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn cost_model_matches_paper_constants() {
        let m = CostModel::default();
        let snap = IoSnapshot { pages_read: 10, bloom_probes: 1000, ..Default::default() };
        assert!((m.io_time_us(&snap) - 1000.0).abs() < 1e-9);
        assert!((m.cpu_time_us(&snap) - 80.0).abs() < 1e-9);
        // hashing is three orders of magnitude cheaper than I/O per event
        assert!(m.hash_ns / 1000.0 < m.page_read_us / 100.0);
    }

    #[test]
    fn throughput_is_finite_and_sane() {
        let m = CostModel::default();
        let snap = IoSnapshot { pages_read: 1000, ..Default::default() };
        let tput = m.throughput_ops_per_sec(1000, &snap);
        // 1000 ops, each costing one 100µs read => 10_000 ops/s
        assert!((tput - 10_000.0).abs() < 1.0);
        let empty = IoSnapshot::default();
        assert!(m.throughput_ops_per_sec(10, &empty).is_infinite());
    }
}
