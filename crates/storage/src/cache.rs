//! Sharded, size-charged block cache of pages.
//!
//! Every read that misses the memtables pays a device access *plus* the
//! page's validating pass ([`Page::decode`]). [`PageCache`] sits between the
//! table layer and the device and keeps recently used pages in memory as
//! shared [`Arc<Page>`]s, so a hit costs one hash lookup and one pointer
//! clone instead of a `pread` and a validation. A cached page is held
//! *encoded* — its own bytes plus an offset per entry — so a reader still
//! decodes only the entries it asks for. One cache is shared by every
//! shard of a sharded store (the memory budget is global, hot shards
//! naturally take more of it), which is why entries are keyed by
//! `(source, page id)`: page ids are only unique per device, and each
//! [`CachedBackend`] registers its own source token.
//!
//! ## Eviction
//!
//! The cache is striped into up to 16 independent shards (selected by the
//! key hash; small budgets get fewer stripes so one stripe can always hold
//! several pages) so concurrent readers rarely contend on one lock: a hit
//! takes its stripe's mutex briefly (hash lookup + reference-bit store),
//! and readers on different stripes proceed fully in parallel. Each shard
//! runs **CLOCK (second chance)**: a hit sets the entry's reference bit; the
//! eviction hand sweeps the slots circularly, demoting referenced entries
//! (clearing the bit) and evicting the first unreferenced one. This
//! approximates LRU at a fraction of its bookkeeping cost — no LRU list
//! surgery on the hit path, just that one flag.
//!
//! Entries are charged by their payload size ([`Page::data_size`], the sum
//! of the entries' encoded sizes) plus a fixed per-entry overhead, and a
//! shard evicts until the charge fits; pages larger than a whole shard are
//! simply not cached (they would evict everything for one entry).
//!
//! ## Invalidation
//!
//! [`CachedBackend::drop_page`] invalidates before it drops, so a page
//! retired by compaction, secondary-delete page drops or crash-recovery GC
//! can never be resurrected from cache: page ids are allocated monotonically
//! and never reused, and the deferred-reclamation layer (`VersionSet`) only
//! drops a page once no pinned snapshot can reach it, at which point no
//! correct reader will ask for that id again — invalidation here reclaims the
//! memory and turns any *buggy* later read into the same `PageNotFound` the
//! uncached device reports.
//!
//! That discipline (no read of an id concurrent with its drop) is also what
//! makes the miss path race-free: a `read_page` miss fills the cache after
//! reading the device, so a `drop_page` of the *same id* interleaved between
//! those two steps could strand the filled entry past its invalidation. The
//! engine never produces that interleaving — a reader only learns ids from a
//! pinned version, and the pin defers the drop — and even under misuse the
//! stranded entry is only wasted budget, never wrong data: ids are never
//! reused, so no later lookup can alias it.

use crate::backend::{PageId, StorageBackend};
use crate::error::Result;
use crate::iostats::IoStats;
use crate::page::Page;
use lethe_sync::{LockRank, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Maximum number of independent cache stripes; 16 comfortably exceeds the
/// worker + reader thread counts the engine runs with. Small budgets use
/// fewer stripes (one per [`MIN_STRIPE_BYTES`] of budget) so a stripe always
/// has room for several pages — dividing a few-KiB test cache 16 ways would
/// make every normal page "oversized" and the cache silently inert.
const CACHE_SHARDS: usize = 16;

/// Budget below which adding another stripe would leave stripes too small
/// to hold a handful of pages.
const MIN_STRIPE_BYTES: usize = 4096;

/// Fixed cost charged per cached page on top of its payload. It stands for
/// what the payload leaves out: the cache's key, slot and map entry, the
/// `Arc` and `Page` headers, and the page's own 8-byte header, 4-byte value
/// lengths and 4-byte offset per entry. A 32-entry page of 99-byte values
/// is charged 4 064 B and occupies about 4.4 KB, ~8 % more. The charge,
/// and with it residency, is the one pages had when they were cached
/// decoded, at ~6.5 KB each.
const ENTRY_OVERHEAD: usize = 96;

/// Cache key: the owning device's source token plus the page id on it.
type CacheKey = (u64, PageId);

/// One resident entry of a cache shard.
struct Slot {
    key: CacheKey,
    page: Arc<Page>,
    charge: usize,
    /// CLOCK reference bit: set on every hit, cleared when the hand passes.
    referenced: bool,
}

/// One CLOCK stripe: a circular slot arena plus the key → slot index.
#[derive(Default)]
struct CacheShard {
    slots: Vec<Slot>,
    map: HashMap<CacheKey, usize>,
    /// Current position of the eviction hand in `slots`.
    hand: usize,
    bytes: usize,
}

impl CacheShard {
    fn get(&mut self, key: CacheKey) -> Option<Arc<Page>> {
        let idx = *self.map.get(&key)?;
        let slot = &mut self.slots[idx];
        slot.referenced = true;
        Some(Arc::clone(&slot.page))
    }

    /// Inserts (or replaces) `key`, evicting via CLOCK until the charge fits
    /// `capacity`. Returns `(stored, evictions)`: `stored` is `false` when
    /// the page was rejected as oversized.
    fn insert(
        &mut self,
        key: CacheKey,
        page: Arc<Page>,
        charge: usize,
        capacity: usize,
    ) -> (bool, u64) {
        if charge > capacity {
            return (false, 0); // larger than the whole stripe: not worth caching
        }
        let mut evictions = 0u64;
        if let Some(&idx) = self.map.get(&key) {
            // a page id is never rewritten with different contents, but the
            // replace keeps the cache correct even if that ever changed
            let slot = &mut self.slots[idx];
            self.bytes = self.bytes - slot.charge + charge;
            slot.page = page;
            slot.charge = charge;
            slot.referenced = true;
        } else {
            while self.bytes + charge > capacity && !self.slots.is_empty() {
                self.evict_one();
                evictions += 1;
            }
            self.map.insert(key, self.slots.len());
            self.slots.push(Slot { key, page, charge, referenced: false });
            self.bytes += charge;
        }
        // shrink back if a replace grew past capacity
        while self.bytes > capacity && !self.slots.is_empty() {
            self.evict_one();
            evictions += 1;
        }
        (true, evictions)
    }

    /// Advances the CLOCK hand to the first unreferenced slot (giving
    /// referenced ones their second chance) and evicts it.
    fn evict_one(&mut self) {
        debug_assert!(!self.slots.is_empty());
        loop {
            if self.hand >= self.slots.len() {
                self.hand = 0;
            }
            if self.slots[self.hand].referenced {
                self.slots[self.hand].referenced = false;
                self.hand += 1;
            } else {
                self.remove_at(self.hand);
                return;
            }
        }
    }

    /// Removes the slot at `idx` (swap-remove, fixing up the moved slot's
    /// map entry and the hand).
    fn remove_at(&mut self, idx: usize) {
        let slot = self.slots.swap_remove(idx);
        self.map.remove(&slot.key);
        self.bytes -= slot.charge;
        if let Some(moved) = self.slots.get(idx) {
            #[expect(
                clippy::expect_used,
                reason = "every resident slot has a map entry by construction"
            )]
            let mapped = self.map.get_mut(&moved.key).expect("moved slot must be mapped");
            *mapped = idx;
        }
        if self.hand > self.slots.len() {
            self.hand = 0;
        }
    }

    fn invalidate(&mut self, key: CacheKey) -> bool {
        match self.map.get(&key).copied() {
            Some(idx) => {
                self.remove_at(idx);
                true
            }
            None => false,
        }
    }
}

/// A point-in-time copy of a cache's counters and occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to the device.
    pub misses: u64,
    /// Pages inserted (misses that were cached + warmed writes).
    pub insertions: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
    /// Pages explicitly invalidated by `drop_page`.
    pub invalidations: u64,
    /// Bytes currently charged to resident pages.
    pub bytes_resident: u64,
    /// Pages currently resident.
    pub pages_resident: u64,
    /// Configured capacity in bytes.
    pub capacity_bytes: u64,
}

impl CacheSnapshot {
    /// Hit rate over the cache's lifetime, in `[0, 1]` (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// A sharded, size-charged CLOCK cache of encoded pages, shared across every
/// device of one store. See the [module docs](self).
pub struct PageCache {
    shards: Vec<Mutex<CacheShard>>,
    capacity_per_shard: usize,
    next_source: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl std::fmt::Debug for PageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("PageCache")
            .field("capacity_bytes", &snap.capacity_bytes)
            .field("bytes_resident", &snap.bytes_resident)
            .field("pages_resident", &snap.pages_resident)
            .field("hits", &snap.hits)
            .field("misses", &snap.misses)
            .finish()
    }
}

impl PageCache {
    /// Creates a cache with a total budget of `capacity_bytes`, split evenly
    /// across `min(16, capacity_bytes / 4 KiB)` stripes (at least one), so
    /// even an eviction-heavy test budget of a few KiB leaves each stripe
    /// room for several pages. A page larger than one stripe is never
    /// cached, so a budget smaller than the page payload caches nothing.
    /// [`PageCache::capacity_bytes`] reports the effective total.
    pub fn new(capacity_bytes: usize) -> Self {
        let stripes = (capacity_bytes / MIN_STRIPE_BYTES).clamp(1, CACHE_SHARDS);
        PageCache {
            shards: (0..stripes)
                .map(|_| Mutex::new(LockRank::CacheStripe, CacheShard::default()))
                .collect(),
            capacity_per_shard: (capacity_bytes / stripes).max(ENTRY_OVERHEAD),
            next_source: AtomicU64::new(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Creates a cache behind an `Arc`, ready to be shared across devices.
    pub fn new_shared(capacity_bytes: usize) -> Arc<Self> {
        Arc::new(Self::new(capacity_bytes))
    }

    /// Allocates a fresh source token. Page ids are only unique per device,
    /// so every device sharing this cache must key its entries by its own
    /// token (done automatically by [`CachedBackend`]).
    pub fn register_source(&self) -> u64 {
        self.next_source.fetch_add(1, Ordering::Relaxed)
    }

    fn shard_of(&self, key: CacheKey) -> &Mutex<CacheShard> {
        // Fibonacci hash of (source, id) so sequential page ids of one
        // device spread across stripes
        let h = (key.0 ^ key.1.rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> 56) as usize % self.shards.len()]
    }

    /// Looks up `(source, id)`, marking the entry recently used on a hit.
    pub fn get(&self, source: u64, id: PageId) -> Option<Arc<Page>> {
        let key = (source, id);
        let got = self.shard_of(key).lock().get(key);
        match &got {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        got
    }

    /// Inserts a page, evicting as needed (a page larger than a
    /// whole stripe is rejected, not stored, and not counted as inserted).
    pub fn insert(&self, source: u64, id: PageId, page: Arc<Page>) {
        let key = (source, id);
        let charge = page.data_size() + ENTRY_OVERHEAD;
        let (stored, evicted) =
            self.shard_of(key).lock().insert(key, page, charge, self.capacity_per_shard);
        if stored {
            self.insertions.fetch_add(1, Ordering::Relaxed);
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Removes `(source, id)` if resident (a page dropped on the device must
    /// never be served from cache again).
    pub fn invalidate(&self, source: u64, id: PageId) {
        let key = (source, id);
        if self.shard_of(key).lock().invalidate(key) {
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops every resident page.
    pub fn clear(&self) {
        for shard in &self.shards {
            *shard.lock() = CacheShard::default();
        }
    }

    /// Bytes currently charged to resident pages.
    pub fn bytes_resident(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().bytes as u64).sum()
    }

    /// Number of resident pages.
    pub fn pages_resident(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().slots.len() as u64).sum()
    }

    /// Total configured capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        (self.capacity_per_shard * self.shards.len()) as u64
    }

    /// A point-in-time copy of the cache's counters and occupancy.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            bytes_resident: self.bytes_resident(),
            pages_resident: self.pages_resident(),
            capacity_bytes: self.capacity_bytes(),
        }
    }
}

/// A device wrapper serving reads through a shared [`PageCache`].
///
/// * `read_page` returns the cached page on a hit (no device access, charged
///   to [`IoStats::cache_hits`] instead of `pages_read`) and populates the
///   cache on a miss.
/// * `drop_page` invalidates before dropping, so retired pages can never be
///   resurrected from cache.
/// * `write_page` optionally *warms* the cache with the freshly written page
///   (useful when flush/compaction output is about to be read back).
///
/// All other operations delegate to the wrapped device. The wrapper is what
/// the builders install when `block_cache_bytes > 0`; the tree and table
/// layers just see a `StorageBackend` whose reads got fast.
pub struct CachedBackend {
    inner: Arc<dyn StorageBackend>,
    cache: Arc<PageCache>,
    source: u64,
    warm_writes: bool,
    stats: Arc<IoStats>,
}

impl std::fmt::Debug for CachedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedBackend")
            .field("source", &self.source)
            .field("warm_writes", &self.warm_writes)
            .field("cache", &self.cache)
            .finish()
    }
}

impl CachedBackend {
    /// Wraps `inner` so its reads are served through `cache`. `warm_writes`
    /// inserts every written page into the cache immediately.
    pub fn new(inner: Arc<dyn StorageBackend>, cache: Arc<PageCache>, warm_writes: bool) -> Self {
        let stats = inner.stats();
        let source = cache.register_source();
        CachedBackend { inner, cache, source, warm_writes, stats }
    }

    /// The shared cache this device reads through.
    pub fn cache(&self) -> &Arc<PageCache> {
        &self.cache
    }

    /// The wrapped device.
    pub fn inner(&self) -> &Arc<dyn StorageBackend> {
        &self.inner
    }

    /// A resident page, counted as a hit; `None` is left for the caller to
    /// read from the device and hand to [`CachedBackend::fill`].
    fn lookup(&self, id: PageId) -> Option<Arc<Page>> {
        let page = self.cache.get(self.source, id)?;
        self.stats.record_cache_hit();
        Some(page)
    }

    /// Counts the miss that read `page` from the device and, unless `nofill`,
    /// caches it. A page cut from a multi-page read is cached as a copy of
    /// its own: the cache charges a page its own size, so a resident page
    /// must not pin the rest of the buffer it was read into.
    fn fill(&self, id: PageId, page: &mut Arc<Page>, nofill: bool) {
        self.stats.record_cache_miss();
        if !nofill {
            Page::unshare(page);
            self.cache.insert(self.source, id, Arc::clone(page));
        }
    }

    /// Page `id` from the cache, or from the device, filling the cache
    /// unless `nofill`.
    fn read_one(&self, id: PageId, nofill: bool) -> Result<Arc<Page>> {
        if let Some(page) = self.lookup(id) {
            return Ok(page);
        }
        let mut page = self.inner.read_page(id)?;
        self.fill(id, &mut page, nofill);
        Ok(page)
    }

    /// Reads `ids`, each a cache miss, from the device in one batch and
    /// appends them to `pages`, filling the cache unless `nofill`.
    fn read_misses(&self, ids: &[PageId], nofill: bool, pages: &mut Vec<Arc<Page>>) -> Result<()> {
        if ids.is_empty() {
            return Ok(());
        }
        let first = pages.len();
        self.inner.read_pages(ids, nofill, pages)?;
        for (page, &id) in pages[first..].iter_mut().zip(ids) {
            self.fill(id, page, nofill);
        }
        Ok(())
    }
}

impl StorageBackend for CachedBackend {
    fn write_page(&self, page: &Page) -> Result<PageId> {
        #[expect(clippy::disallowed_methods, reason = "the cache delegates to the device it wraps")]
        let id = self.inner.write_page(page)?;
        if self.warm_writes {
            self.cache.insert(self.source, id, Arc::new(page.clone()));
        }
        Ok(id)
    }

    fn read_page(&self, id: PageId) -> Result<Arc<Page>> {
        self.read_one(id, false)
    }

    fn read_page_nofill(&self, id: PageId) -> Result<Arc<Page>> {
        // bulk maintenance scans: serve resident pages, but never let a
        // streamed compaction input displace the hot read working set
        self.read_one(id, true)
    }

    fn read_pages(&self, ids: &[PageId], nofill: bool, pages: &mut Vec<Arc<Page>>) -> Result<()> {
        // serve the hits in place and read each run of consecutive misses in
        // one batch, so the device can still fetch adjacent pages together
        let mut misses = 0;
        for (at, &id) in ids.iter().enumerate() {
            match self.lookup(id) {
                Some(page) => {
                    self.read_misses(&ids[at - misses..at], nofill, pages)?;
                    misses = 0;
                    pages.push(page);
                }
                None => misses += 1,
            }
        }
        self.read_misses(&ids[ids.len() - misses..], nofill, pages)
    }

    #[expect(clippy::disallowed_methods, reason = "the cache delegates to the device it wraps")]
    fn drop_page(&self, id: PageId) -> Result<()> {
        // invalidate first: even if the device drop fails, serving a page
        // the caller asked to retire would be the worse outcome
        self.cache.invalidate(self.source, id);
        self.inner.drop_page(id)
    }

    fn stats(&self) -> Arc<IoStats> {
        self.inner.stats()
    }

    fn live_pages(&self) -> usize {
        self.inner.live_pages()
    }

    fn page_ids(&self) -> Vec<PageId> {
        self.inner.page_ids()
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "the cache's own tests drive it directly")]
mod tests {
    use super::*;
    use crate::backend::tests::batch;
    use crate::backend::FileBackend;
    use crate::entry::Entry;
    use bytes::Bytes;

    fn page(keys: &[u64]) -> Page {
        Page::new(keys.iter().map(|&k| Entry::put(k, k, k, Bytes::from(vec![0u8; 16]))).collect())
    }

    fn cached(capacity: usize, warm: bool) -> (CachedBackend, Arc<FileBackend>) {
        let inner = Arc::new(FileBackend::in_memory().unwrap());
        let cache = PageCache::new_shared(capacity);
        (CachedBackend::new(Arc::clone(&inner) as Arc<dyn StorageBackend>, cache, warm), inner)
    }

    #[test]
    fn hit_after_miss_and_io_accounting() {
        let (b, _inner) = cached(1 << 20, false);
        let id = b.write_page(&page(&[1, 2, 3])).unwrap();
        assert_eq!(b.read_page(id).unwrap().len(), 3); // miss: device read
        assert_eq!(b.read_page(id).unwrap().len(), 3); // hit: no device read
        let snap = b.cache().snapshot();
        assert_eq!(snap.hits, 1);
        assert_eq!(snap.misses, 1);
        assert!(snap.bytes_resident > 0);
        let io = b.stats().snapshot();
        assert_eq!(io.pages_read, 1, "a cache hit must not count as a device read");
        assert_eq!(io.cache_hits, 1);
        assert_eq!(io.cache_misses, 1);
        assert!((snap.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn warm_writes_serve_without_any_device_read() {
        let (b, _inner) = cached(1 << 20, true);
        let id = b.write_page(&page(&[7])).unwrap();
        assert_eq!(b.read_page(id).unwrap().len(), 1);
        assert_eq!(b.stats().snapshot().pages_read, 0, "warmed write must serve from cache");
        assert_eq!(b.cache().snapshot().hits, 1);
    }

    #[test]
    fn a_batch_serves_hits_and_caches_each_miss_in_its_own_allocation() {
        let (b, _inner) = cached(1 << 20, false);
        let ids: Vec<PageId> = (0..4u64).map(|k| b.write_page(&page(&[k])).unwrap()).collect();
        b.read_page(ids[1]).unwrap();
        // page 1 is a hit; pages 2 and 3 are one run of the device read
        let pages = batch(&b, &ids, false).unwrap();
        assert_eq!(pages.iter().map(|p| p.len()).collect::<Vec<_>>(), [1; 4]);
        let io = b.stats().snapshot();
        assert_eq!((io.pages_read, io.cache_hits, io.cache_misses), (4, 1, 4));
        for (&id, page) in ids.iter().zip(&pages) {
            let resident = b.cache().get(b.source, id).unwrap();
            assert!(Arc::ptr_eq(&resident, page), "the caller gets the cached page");
            assert!(resident.owns_its_bytes(), "cached page {id} pins the buffer it was read into");
        }
        // a bulk read caches nothing
        let more: Vec<PageId> = (4..7u64).map(|k| b.write_page(&page(&[k])).unwrap()).collect();
        assert_eq!(batch(&b, &more, true).unwrap().len(), 3);
        assert_eq!(b.cache().pages_resident(), 4);
    }

    #[test]
    fn drop_page_invalidates_before_dropping() {
        let (b, inner) = cached(1 << 20, true);
        let id = b.write_page(&page(&[1])).unwrap();
        assert_eq!(b.read_page(id).unwrap().len(), 1); // resident
        b.drop_page(id).unwrap();
        assert!(b.read_page(id).is_err(), "a dropped page must never be served from cache");
        assert_eq!(inner.live_pages(), 0);
        assert_eq!(b.cache().snapshot().invalidations, 1);
        assert_eq!(b.cache().pages_resident(), 0);
    }

    #[test]
    fn clock_gives_hot_entries_a_second_chance() {
        let mut shard = CacheShard::default();
        let capacity = 3 * (16 + ENTRY_OVERHEAD);
        let charge = 16 + ENTRY_OVERHEAD;
        let p = Arc::new(page(&[1]));
        for id in 0..3u64 {
            shard.insert((1, id), Arc::clone(&p), charge, capacity);
        }
        // touch page 0: it gains a reference bit
        assert!(shard.get((1, 0)).is_some());
        // inserting a 4th page must evict an *unreferenced* one, not page 0
        shard.insert((1, 3), Arc::clone(&p), charge, capacity);
        assert!(shard.get((1, 0)).is_some(), "hot entry evicted despite its second chance");
        assert_eq!(shard.slots.len(), 3);
    }

    #[test]
    fn size_charging_bounds_residency() {
        let cache = PageCache::new(CACHE_SHARDS * 2 * (page(&[1]).data_size() + ENTRY_OVERHEAD));
        for id in 0..200u64 {
            cache.insert(1, id, Arc::new(page(&[id])));
        }
        let snap = cache.snapshot();
        assert!(snap.bytes_resident <= snap.capacity_bytes);
        assert!(snap.evictions > 0, "overcommitting the budget must evict");
        assert!(snap.pages_resident < 200);
    }

    #[test]
    fn oversized_pages_are_not_cached() {
        let cache = PageCache::new(256);
        let big = Arc::new(page(&(0..256).collect::<Vec<u64>>()));
        cache.insert(1, 1, big);
        assert_eq!(cache.pages_resident(), 0);
        assert!(cache.get(1, 1).is_none());
        assert_eq!(cache.snapshot().insertions, 0, "a rejected page is not an insertion");
    }

    #[test]
    fn sources_do_not_collide() {
        let cache = PageCache::new_shared(1 << 20);
        let a = cache.register_source();
        let b = cache.register_source();
        assert_ne!(a, b);
        cache.insert(a, 1, Arc::new(page(&[10])));
        cache.insert(b, 1, Arc::new(page(&[20, 21])));
        assert_eq!(cache.get(a, 1).unwrap().len(), 1);
        assert_eq!(cache.get(b, 1).unwrap().len(), 2);
        cache.invalidate(a, 1);
        assert!(cache.get(a, 1).is_none());
        assert!(cache.get(b, 1).is_some(), "invalidation must be per source");
    }

    #[test]
    fn clear_empties_everything() {
        let cache = PageCache::new(1 << 20);
        for id in 0..10u64 {
            cache.insert(1, id, Arc::new(page(&[id])));
        }
        assert!(cache.pages_resident() > 0);
        cache.clear();
        assert_eq!(cache.pages_resident(), 0);
        assert_eq!(cache.bytes_resident(), 0);
    }

    #[test]
    fn concurrent_readers_smoke() {
        let (b, _inner) = cached(1 << 14, false);
        let ids: Vec<PageId> =
            (0..64u64).map(|k| b.write_page(&page(&[k, k + 1])).unwrap()).collect();
        std::thread::scope(|s| {
            for t in 0..4 {
                let b = &b;
                let ids = &ids;
                s.spawn(move || {
                    for round in 0..200usize {
                        let id = ids[(round * 7 + t * 13) % ids.len()];
                        assert_eq!(b.read_page(id).unwrap().len(), 2);
                    }
                });
            }
        });
        let snap = b.cache().snapshot();
        assert_eq!(snap.hits + snap.misses, 4 * 200);
    }
}
