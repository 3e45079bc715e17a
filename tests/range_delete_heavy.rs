//! Range deletes by the thousand: overlapping `delete_range`s interleaved
//! with puts, point deletes, flushes and compactions, so buffers and files
//! hold hundreds of range tombstones that nest, touch and repeat. Point
//! lookups, range scans, a snapshot held across the churn and the store
//! reopened from its manifest and WAL must all agree with a `BTreeMap`
//! oracle.

use bytes::Bytes;
use lethe::lsm::{EntryCursor, ReadView, SsTableCursor};
use lethe::storage::{MemVfs, Vfs};
use lethe::{Lethe, LetheBuilder, MergePolicy, Snapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Keys are drawn below this bound; range deletes may reach past it.
const KEYS: u64 = 2048;

fn open(vfs: &Arc<dyn Vfs>) -> Lethe {
    LetheBuilder::new()
        .buffer(8, 4, 64)
        .size_ratio(3)
        .delete_tile_pages(2)
        .open_on(Arc::clone(vfs), "/store")
        .unwrap()
}

/// Deletes `[start, end)` from the oracle.
fn oracle_delete_range(oracle: &mut BTreeMap<u64, Bytes>, start: u64, end: u64) {
    let doomed: Vec<u64> = oracle.range(start..end).map(|(&k, _)| k).collect();
    for k in doomed {
        oracle.remove(&k);
    }
}

/// Runs `ops` seeded operations against `db` and `oracle`; returns how many
/// were range deletes.
fn churn(db: &mut Lethe, oracle: &mut BTreeMap<u64, Bytes>, rng: &mut StdRng, ops: usize) -> usize {
    let mut range_deletes = 0;
    for i in 0..ops {
        let key = rng.gen_range(0..KEYS);
        match rng.gen_range(0..1000) {
            0..=679 => {
                let value = Bytes::from(format!("v{i}-{key}"));
                db.put(key, key, value.clone()).unwrap();
                oracle.insert(key, value);
            }
            680..=719 => {
                db.delete(key).unwrap();
                oracle.remove(&key);
            }
            720..=989 => {
                // mostly short ranges, so the store keeps live keys between
                // them; some long ones, so ranges nest
                let len = if rng.gen_bool(0.02) {
                    rng.gen_range(16..=256)
                } else {
                    rng.gen_range(1..=16)
                };
                db.delete_range(key, key + len).unwrap();
                oracle_delete_range(oracle, key, key + len);
                range_deletes += 1;
            }
            990..=994 => {
                // empty and inverted ranges delete nothing
                db.delete_range(key, key.saturating_sub(rng.gen_range(0..4)))
                    .unwrap();
                range_deletes += 1;
            }
            _ => {
                // a range open to the end of the key space
                let start = KEYS - rng.gen_range(1..64);
                db.delete_range(start, u64::MAX).unwrap();
                oracle_delete_range(oracle, start, u64::MAX);
                range_deletes += 1;
            }
        }
        if i % 97 == 96 {
            db.persist().unwrap();
        }
    }
    range_deletes
}

/// The reads [`assert_matches`] checks, on the live view and a snapshot.
trait Reads {
    fn get(&self, key: u64) -> Option<Bytes>;
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, Bytes)>;
}

impl Reads for ReadView {
    fn get(&self, key: u64) -> Option<Bytes> {
        ReadView::get(self, key).unwrap()
    }
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, Bytes)> {
        ReadView::range(self, lo, hi).unwrap()
    }
}

impl Reads for Snapshot {
    fn get(&self, key: u64) -> Option<Bytes> {
        Snapshot::get(self, key).unwrap()
    }
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, Bytes)> {
        Snapshot::range(self, lo, hi).unwrap()
    }
}

/// Every point lookup, the full scan and a spread of windows of `view`
/// match `oracle`.
fn assert_matches(what: &str, view: &dyn Reads, oracle: &BTreeMap<u64, Bytes>, rng: &mut StdRng) {
    for key in 0..KEYS + 300 {
        assert_eq!(
            view.get(key),
            oracle.get(&key).cloned(),
            "{what}: get({key})"
        );
    }
    let all: Vec<(u64, Bytes)> = oracle.iter().map(|(&k, v)| (k, v.clone())).collect();
    assert_eq!(view.range(0, u64::MAX), all, "{what}: full range");
    for _ in 0..64 {
        let lo = rng.gen_range(0..KEYS);
        let hi = lo + rng.gen_range(0..400);
        let want: Vec<(u64, Bytes)> = oracle.range(lo..hi).map(|(&k, v)| (k, v.clone())).collect();
        assert_eq!(
            view.range(lo, hi),
            want,
            "{what}: range({lo}, {hi})"
        );
    }
}

#[test]
fn overlapping_range_deletes_match_the_oracle() {
    let vfs: Arc<dyn Vfs> = MemVfs::shared();
    let mut db = open(&vfs);
    let mut oracle = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(0x5eed);

    let mut range_deletes = churn(&mut db, &mut oracle, &mut rng, 5000);
    assert_matches("live, before the snapshot", &db.reader(), &oracle, &mut rng);

    // a snapshot held across the rest of the churn keeps reading this state
    let snapshot = db.snapshot();
    let frozen = oracle.clone();

    range_deletes += churn(&mut db, &mut oracle, &mut rng, 5000);
    assert_matches("live", &db.reader(), &oracle, &mut rng);
    assert_matches("snapshot", &snapshot, &frozen, &mut rng);
    drop(snapshot);

    let stats = db.stats();
    assert!(range_deletes > 2500, "only {range_deletes} range deletes");
    assert!(
        oracle.len() > 200,
        "only {} live keys left to check",
        oracle.len()
    );
    assert!(
        stats.flushes > 20 && stats.compactions > 5,
        "the churn must flush and compact"
    );

    // leave some range tombstones in the WAL only, then reopen
    churn(&mut db, &mut oracle, &mut rng, 50);
    drop(db);
    let db = open(&vfs);
    assert_matches("reopened", &db.reader(), &oracle, &mut rng);
}

/// A tiered flush turns the buffer into a run of its own, with nothing
/// below it to merge with. It still merges the buffer with its own range
/// tombstones, so the run holds none of the puts they cover.
#[test]
fn a_tiered_flush_drops_the_puts_its_buffer_range_deletes() {
    let vfs: Arc<dyn Vfs> = MemVfs::shared();
    let open = || {
        LetheBuilder::new()
            .buffer(8, 4, 64)
            .merge_policy(MergePolicy::Tiering)
            .open_on(Arc::clone(&vfs), "/tiered")
            .unwrap()
    };
    let mut db = open();
    let mut oracle = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(7);
    for k in 0..16u64 {
        let value = Bytes::from(format!("v{k}"));
        db.put(k, k, value.clone()).unwrap();
        oracle.insert(k, value);
    }
    db.delete_range(4, 12).unwrap();
    oracle_delete_range(&mut oracle, 4, 12);
    assert_eq!(
        db.stats().flushes,
        0,
        "the puts and the range delete share one buffer"
    );
    assert_matches("buffered", &db.reader(), &oracle, &mut rng);

    db.tree_mut().flush().unwrap();
    let levels = db.tree().levels();
    let files: Vec<_> = levels.iter().flat_map(|l| l.all_tables()).collect();
    assert_eq!(files.len(), 1);
    let mut cursor = SsTableCursor::full(Arc::clone(files[0]), db.tree().backend().clone(), true);
    let stored: Vec<_> = std::iter::from_fn(|| cursor.next_entry().unwrap()).collect();
    let covered: Vec<u64> = stored
        .iter()
        .map(|e| e.sort_key)
        .filter(|k| (4..12).contains(k))
        .collect();
    assert!(
        covered.is_empty(),
        "the flushed run holds covered puts {covered:?}"
    );
    assert_eq!(
        files[0].range_tombstones.len(),
        1,
        "the range tombstone stays, for the runs below"
    );
    assert_matches("flushed", &db.reader(), &oracle, &mut rng);

    drop(db);
    let db = open();
    assert_matches("reopened", &db.reader(), &oracle, &mut rng);
}
