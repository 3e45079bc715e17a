//! Disk pages.
//!
//! A page is the unit of device I/O. It holds up to `B` entries which are
//! always kept **sorted on the sort key `S`** so that, once a page is in
//! memory, point lookups binary-search it exactly like the state of the art
//! (paper §4.2.1 "Page layout"). The page also yields the [`DeleteFence`] of
//! its puts' *delete keys* `D`, which is what lets KiWi decide whether a
//! secondary range delete covers the whole page (full page drop), only part
//! of it (partial page drop), or none of it.
//!
//! ## Representation
//!
//! A [`Page`] is its own on-disk bytes — `magic · count · entry*`, each entry
//! as [`Entry::encode_into`] writes it — plus a `u32` offset per entry.
//! Entries stay encoded until a reader asks for one:
//!
//! * [`Page::decode`] is one validating pass over the bytes a device read:
//!   the magic, the count, every tag and every length are checked against
//!   the bytes present and the offsets recorded. It builds no entry.
//! * [`Page::new`] / [`Page::from_sorted`] encode once, at construction, and
//!   [`Page::encode`] returns the held bytes.
//! * [`Page::get`] binary-searches the offsets on the fixed-width sort key
//!   and decodes only the entry it returns; the value is a window on the
//!   page's bytes. Ranges and iteration decode one entry per step, and the
//!   key columns (sort key, delete key, tag) are read in place.
//! * A KiWi partial drop ([`Page::drop_secondary_range`]) copies the kept
//!   entries' encoded bytes, already in sort order, into the surviving page.

use crate::entry::{encoded, DeleteKey, Entry, SortKey, HEADER_BYTES};
use crate::error::{Result, StorageError};
use crate::fence::DeleteFence;
use bytes::{BufMut, Bytes, BytesMut};
use std::borrow::Borrow;

/// An immutable, sorted collection of entries; the unit of device I/O.
#[derive(Clone, PartialEq, Eq)]
pub struct Page {
    /// The page's encoding, exactly as written to the device.
    bytes: Bytes,
    /// Offset in `bytes` of every entry, in page (sort-key) order.
    offsets: Vec<u32>,
    /// Sum of the entries' [`Entry::encoded_size`].
    data_size: usize,
}

/// Bytes before the first entry: magic and entry count.
const PAGE_HEADER: usize = 8;

const PAGE_MAGIC: u32 = 0x4C45_5047; // "LEPG"

impl Page {
    /// Builds a page from entries, sorting them on the sort key (ties broken
    /// by descending sequence number so the newest version comes first).
    pub fn new(mut entries: Vec<Entry>) -> Self {
        entries.sort_by(|a, b| {
            a.sort_key.cmp(&b.sort_key).then_with(|| b.seqnum.cmp(&a.seqnum))
        });
        Page::from_sorted(entries)
    }

    /// Builds a page from entries already sorted on the sort key, encoding
    /// them from wherever they lie: an owned vector, a slice of a larger
    /// buffer, or references picked out of one in page order. Debug builds
    /// assert the precondition.
    pub fn from_sorted<E: Borrow<Entry>>(entries: impl AsRef<[E]>) -> Self {
        let entries = entries.as_ref();
        let key = |e: &E| e.borrow().sort_key;
        debug_assert!(entries.windows(2).all(|w| key(&w[0]) <= key(&w[1])));
        let data_size = entries.iter().map(|e| e.borrow().encoded_size()).sum();
        let mut buf = BytesMut::with_capacity(PAGE_HEADER + data_size + entries.len() * 4);
        buf.put_u32(PAGE_MAGIC);
        buf.put_u32(entries.len() as u32);
        let mut offsets = Vec::with_capacity(entries.len());
        for e in entries {
            offsets.push(buf.len() as u32);
            e.borrow().encode_into(&mut buf);
        }
        Page { bytes: buf.freeze(), offsets, data_size }
    }

    /// Number of entries stored in the page.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the page holds no entries.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Every entry, in sort-key order, decoded as the iterator advances.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Entry> + '_ {
        self.decode_each(&self.offsets)
    }

    /// Every sort key, in page order, read in place.
    pub fn sort_keys(&self) -> impl ExactSizeIterator<Item = SortKey> + '_ {
        self.offsets.iter().map(|&o| encoded::sort_key(&self.bytes, o as usize))
    }

    /// Smallest sort key in the page.
    pub fn min_sort_key(&self) -> Option<SortKey> {
        self.offsets.first().map(|&o| encoded::sort_key(&self.bytes, o as usize))
    }

    /// Largest sort key in the page.
    pub fn max_sort_key(&self) -> Option<SortKey> {
        self.offsets.last().map(|&o| encoded::sort_key(&self.bytes, o as usize))
    }

    /// The delete-key bounds of the page's puts, read in place: the only
    /// entries [`Page::secondary_range`] can return. Tombstones are left
    /// out, so a page of tombstones only has [`DeleteFence::EMPTY`].
    pub fn delete_fence(&self) -> DeleteFence {
        let raw: &[u8] = &self.bytes;
        DeleteFence::of_keys(
            self.offsets
                .iter()
                .filter(|&&o| !encoded::is_tombstone(raw, o as usize))
                .map(|&o| encoded::delete_key(raw, o as usize)),
        )
    }

    /// Binary-searches the page for `key` and returns the most recent
    /// matching entry (the one with the largest sequence number), if any.
    /// Only that entry is decoded.
    pub fn get(&self, key: SortKey) -> Option<Entry> {
        // the left-most entry whose sort key is `key`: entries with equal
        // sort key are ordered newest-first by construction
        let &at = self.offsets.get(self.lower_bound(key))?;
        (encoded::sort_key(&self.bytes, at as usize) == key)
            .then(|| encoded::decode(&self.bytes, at as usize))
    }

    /// Every entry whose sort key lies in `[lo, hi)`, decoded as the
    /// iterator advances.
    pub fn range(&self, lo: SortKey, hi: SortKey) -> impl ExactSizeIterator<Item = Entry> + '_ {
        let start = self.lower_bound(lo);
        let end = self.lower_bound(hi).max(start);
        self.decode_each(&self.offsets[start..end])
    }

    /// Every entry whose sort key is at least `lo` (a range with no upper
    /// bound, so `u64::MAX` itself is included).
    pub fn range_from(&self, lo: SortKey) -> impl ExactSizeIterator<Item = Entry> + '_ {
        self.decode_each(&self.offsets[self.lower_bound(lo)..])
    }

    /// Number of tombstones (point or range) stored in the page.
    pub fn tombstone_count(&self) -> usize {
        self.offsets.iter().filter(|&&o| encoded::is_tombstone(&self.bytes, o as usize)).count()
    }

    /// Sum of the encoded sizes of all entries, in bytes.
    pub fn data_size(&self) -> usize {
        self.data_size
    }

    /// The entries a secondary range delete of `[lo, hi)` removes: every
    /// put whose **delete key** falls in the range. Tombstones never
    /// qualify; they still need to reach the last level to persist primary
    /// deletes. Only the qualifying entries are decoded.
    pub fn secondary_range(&self, lo: DeleteKey, hi: DeleteKey) -> impl Iterator<Item = Entry> + '_ {
        self.offsets
            .iter()
            .filter(move |&&o| self.in_secondary_range(o, lo, hi))
            .map(|&o| encoded::decode(&self.bytes, o as usize))
    }

    /// A KiWi partial page drop: removes [`Page::secondary_range`]`(lo, hi)`
    /// and returns how many entries that was, with the surviving page. The
    /// survivor is built by copying the kept entries' encoded bytes, which
    /// are already in sort order, so it is byte-identical to `Page::new` of
    /// the kept entries. With nothing to remove the page itself is returned.
    pub fn drop_secondary_range(&self, lo: DeleteKey, hi: DeleteKey) -> (usize, Page) {
        let deleted = self.offsets.iter().filter(|&&o| self.in_secondary_range(o, lo, hi)).count();
        if deleted == 0 {
            return (0, self.clone());
        }
        let kept = self.len() - deleted;
        let mut buf = BytesMut::with_capacity(self.bytes.len());
        buf.put_u32(PAGE_MAGIC);
        buf.put_u32(kept as u32);
        let mut offsets = Vec::with_capacity(kept);
        let mut data_size = 0;
        for (i, &o) in self.offsets.iter().enumerate() {
            if self.in_secondary_range(o, lo, hi) {
                continue;
            }
            let end = self.offsets.get(i + 1).map_or(self.bytes.len(), |&next| next as usize);
            offsets.push(buf.len() as u32);
            buf.extend_from_slice(&self.bytes[o as usize..end]);
            data_size += encoded::size(&self.bytes, o as usize);
        }
        (deleted, Page { bytes: buf.freeze(), offsets, data_size })
    }

    /// The page's self-describing encoding (what the file-backed device
    /// writes). The page holds it, so this is a reference-count bump.
    pub fn encode(&self) -> Bytes {
        self.bytes.clone()
    }

    /// Adopts bytes produced by [`Page::encode`] after one validating pass:
    /// the magic, the entry count, and every entry's tag and lengths are
    /// checked against the bytes present, so no accessor can later read
    /// out of bounds. No entry is decoded. Bytes past the last entry are
    /// ignored.
    pub fn decode(data: Bytes) -> Result<Self> {
        let raw: &[u8] = &data;
        if raw.len() < PAGE_HEADER {
            return Err(StorageError::Corruption("page header truncated".into()));
        }
        if u32::try_from(raw.len()).is_err() {
            return Err(StorageError::Corruption("page larger than 4 GiB".into()));
        }
        let magic = u32::from_be_bytes([raw[0], raw[1], raw[2], raw[3]]);
        if magic != PAGE_MAGIC {
            return Err(StorageError::Corruption(format!("bad page magic {magic:#x}")));
        }
        let n = u32::from_be_bytes([raw[4], raw[5], raw[6], raw[7]]) as usize;
        // every entry takes at least a header, so a count the bytes cannot
        // hold is rejected before anything is reserved for it
        if n > (raw.len() - PAGE_HEADER) / HEADER_BYTES {
            return Err(StorageError::Corruption(format!(
                "page claims {n} entries in {} bytes",
                raw.len()
            )));
        }
        let mut offsets = Vec::with_capacity(n);
        let mut data_size = 0;
        let mut at = PAGE_HEADER;
        for _ in 0..n {
            let end = encoded::validate(raw, at)?;
            offsets.push(at as u32);
            data_size += encoded::size(raw, at);
            at = end;
        }
        Ok(Page { bytes: data.slice(0..at), offsets, data_size })
    }

    /// Index of the first entry whose sort key is at least `key`.
    fn lower_bound(&self, key: SortKey) -> usize {
        let raw: &[u8] = &self.bytes;
        self.offsets.partition_point(|&o| encoded::sort_key(raw, o as usize) < key)
    }

    fn in_secondary_range(&self, at: u32, lo: DeleteKey, hi: DeleteKey) -> bool {
        let raw: &[u8] = &self.bytes;
        let d = encoded::delete_key(raw, at as usize);
        !encoded::is_tombstone(raw, at as usize) && d >= lo && d < hi
    }

    fn decode_each<'a>(&'a self, offsets: &'a [u32]) -> impl ExactSizeIterator<Item = Entry> + 'a {
        offsets.iter().map(|&o| encoded::decode(&self.bytes, o as usize))
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use proptest::prelude::*;

    fn put(k: u64, d: u64, seq: u64) -> Entry {
        Entry::put(k, d, seq, Bytes::from(vec![b'x'; 16]))
    }

    #[test]
    fn new_sorts_entries_on_sort_key() {
        let p = Page::new(vec![put(5, 0, 1), put(1, 0, 2), put(3, 0, 3)]);
        assert_eq!(p.sort_keys().collect::<Vec<u64>>(), vec![1, 3, 5]);
        assert_eq!(p.min_sort_key(), Some(1));
        assert_eq!(p.max_sort_key(), Some(5));
    }

    #[test]
    fn get_returns_newest_version_for_duplicates() {
        let p = Page::new(vec![put(7, 0, 1), put(7, 0, 9), put(7, 0, 4)]);
        assert_eq!(p.get(7).unwrap().seqnum, 9);
        assert!(p.get(8).is_none());
    }

    #[test]
    fn range_is_half_open() {
        let p = Page::new((0..10).map(|k| put(k, 0, k)).collect());
        let keys: Vec<u64> = p.range(3, 7).map(|e| e.sort_key).collect();
        assert_eq!(keys, vec![3, 4, 5, 6]);
        assert_eq!(p.range(20, 30).len(), 0);
        assert_eq!(p.range(7, 3).len(), 0, "an inverted range is empty, not a panic");
        assert_eq!(p.range_from(8).map(|e| e.sort_key).collect::<Vec<u64>>(), vec![8, 9]);
    }

    #[test]
    fn delete_key_bounds_are_independent_of_sort_order() {
        let p = Page::new(vec![put(1, 50, 1), put(2, 10, 2), put(3, 90, 3)]);
        assert_eq!(p.delete_fence().bounds(), Some((10, 90)));
    }

    #[test]
    fn the_delete_fence_bounds_puts_only() {
        // a tombstone's delete key 0 does not widen the fence
        let p = Page::new(vec![put(1, 50, 1), Entry::point_tombstone(2, 2), put(3, 90, 3)]);
        assert_eq!(p.delete_fence().bounds(), Some((50, 90)));
        let tombstones =
            Page::new(vec![Entry::point_tombstone(1, 1), Entry::range_tombstone(4, 9, 2)]);
        assert_eq!(tombstones.delete_fence(), DeleteFence::EMPTY);
    }

    #[test]
    fn secondary_range_spares_tombstones() {
        let mut entries: Vec<Entry> = (0..8).map(|k| put(k, k * 10, k)).collect();
        entries.push(Entry::point_tombstone(100, 99));
        let p = Page::new(entries);
        // delete keys 20,30,40,50 qualify; the tombstone's 0 is outside
        // the range, and a range covering it still spares it
        assert_eq!(p.secondary_range(20, 60).count(), 4);
        let (deleted, kept) = p.drop_secondary_range(20, 60);
        assert_eq!((deleted, kept.len()), (4, 5));
        assert!(kept.iter().any(|e| e.is_tombstone()));
        let (deleted, kept) = p.drop_secondary_range(0, u64::MAX);
        assert_eq!((deleted, kept.len()), (8, 1));
        assert_eq!(p.drop_secondary_range(1000, 2000), (0, p.clone()));
    }

    #[test]
    fn tombstone_count_and_sizes() {
        let p = Page::new(vec![put(1, 0, 1), Entry::point_tombstone(2, 2), Entry::range_tombstone(3, 9, 3)]);
        assert_eq!(p.tombstone_count(), 2);
        assert_eq!(p.data_size(), (HEADER_BYTES + 16) + HEADER_BYTES + (HEADER_BYTES + 8));
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let p = Page::new(vec![
            put(1, 11, 1),
            Entry::point_tombstone(2, 2),
            Entry::range_tombstone(3, 9, 3),
            put(4, 44, 4),
        ]);
        let bytes = p.encode();
        let back = Page::decode(bytes).unwrap();
        assert_eq!(back, p);
    }

    /// The bytes of a three-entry page, written out by hand from the format
    /// (`magic · count · entry*`). A store written before pages stayed
    /// encoded holds exactly these bytes, so they must keep reading back.
    #[test]
    fn encoding_matches_the_known_answer() {
        let p = Page::new(vec![
            Entry::range_tombstone(0x0300, 0x0309, 3),
            Entry::put(0x0100, 0x0B, 1, Bytes::from_static(b"ab")),
            Entry::point_tombstone(0x0200, 2),
        ]);
        #[rustfmt::skip]
        let known: &[u8] = &[
            0x4C, 0x45, 0x50, 0x47, // "LEPG"
            0, 0, 0, 3,             // three entries
            // put: sort key, delete key, seqnum, tag 0, value length, value
            0, 0, 0, 0, 0, 0, 0x01, 0x00,
            0, 0, 0, 0, 0, 0, 0, 0x0B,
            0, 0, 0, 0, 0, 0, 0, 1,
            0,
            0, 0, 0, 2,
            b'a', b'b',
            // point tombstone: sort key, delete key 0, seqnum, tag 1
            0, 0, 0, 0, 0, 0, 0x02, 0x00,
            0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 2,
            1,
            // range tombstone: start, delete key 0, seqnum, tag 2, end
            0, 0, 0, 0, 0, 0, 0x03, 0x00,
            0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 3,
            2,
            0, 0, 0, 0, 0, 0, 0x03, 0x09,
        ];
        assert_eq!(&p.encode()[..], known);
        assert_eq!(Page::decode(Bytes::from_static(known)).unwrap(), p);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Page::decode(Bytes::from_static(b"nonsense")).is_err());
        assert!(Page::decode(Bytes::from_static(b"")).is_err());
        // valid magic but truncated body
        let mut good = Page::new(vec![put(1, 1, 1)]).encode().to_vec();
        good.truncate(good.len() - 3);
        assert!(Page::decode(Bytes::from(good)).is_err());
        // an unknown tag
        let mut bad_tag = Page::new(vec![put(1, 1, 1)]).encode().to_vec();
        bad_tag[PAGE_HEADER + 24] = 7;
        assert!(Page::decode(Bytes::from(bad_tag)).is_err());
    }

    #[test]
    fn decode_rejects_an_absurd_entry_count() {
        let header = [0x4C, 0x45, 0x50, 0x47, 0xFF, 0xFF, 0xFF, 0xFF];
        assert!(matches!(
            Page::decode(Bytes::copy_from_slice(&header)),
            Err(StorageError::Corruption(_))
        ));
        // a count one past what the bytes hold, on an otherwise good page
        let mut page = Page::new(vec![put(1, 1, 1), put(2, 2, 2)]).encode().to_vec();
        page[7] = 3;
        assert!(Page::decode(Bytes::from(page)).is_err());
    }

    #[test]
    fn every_proper_prefix_of_a_page_is_an_error() {
        let p = Page::new(vec![
            put(1, 11, 1),
            Entry::point_tombstone(2, 2),
            Entry::range_tombstone(3, 9, 3),
            Entry::put(4, 44, 4, Bytes::new()),
            put(5, 55, 5),
        ]);
        let bytes = p.encode();
        for cut in 0..bytes.len() {
            assert!(Page::decode(bytes.slice(0..cut)).is_err(), "prefix of {cut} bytes decoded");
        }
        assert_eq!(Page::decode(bytes).unwrap(), p);
    }

    #[test]
    fn empty_page_edge_cases() {
        let p = Page::new(vec![]);
        assert!(p.is_empty());
        assert_eq!(p.min_sort_key(), None);
        assert_eq!(p.delete_fence(), DeleteFence::EMPTY);
        assert!(p.get(1).is_none());
        let rt = Page::decode(p.encode()).unwrap();
        assert!(rt.is_empty());
    }

    /// A random entry: a put with a 0-200-byte value, or a point or range
    /// tombstone. Sort keys come from a small domain so duplicates (with
    /// distinct seqnums, assigned by the caller) are common.
    fn entry_strategy() -> impl Strategy<Value = (u64, u64, u8, usize)> {
        (0u64..64, any::<u64>(), 0u8..4, 0usize..201)
    }

    fn build(specs: &[(u64, u64, u8, usize)]) -> Vec<Entry> {
        specs
            .iter()
            .enumerate()
            .map(|(i, &(k, d, kind, len))| {
                let seq = i as u64 + 1;
                match kind {
                    0 | 1 => Entry::put(k, d, seq, Bytes::from(vec![(seq % 251) as u8; len])),
                    2 => Entry::point_tombstone(k, seq),
                    _ => Entry::range_tombstone(k, k + 1 + len as u64, seq),
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// The encoded page answers every query exactly like a sorted
        /// `Vec<Entry>` of the same entries, and its byte-level partial drop
        /// equals building a fresh page from the kept entries.
        #[test]
        fn encoded_page_agrees_with_a_vec_model(
            specs in prop::collection::vec(entry_strategy(), 0..48),
            probes in prop::collection::vec((0u64..70, 0u64..70), 8..9),
            window in (any::<u64>(), any::<u64>()),
        ) {
            let mut model = build(&specs);
            let page = Page::new(model.clone());
            model.sort_by(|a, b| a.sort_key.cmp(&b.sort_key).then_with(|| b.seqnum.cmp(&a.seqnum)));

            prop_assert_eq!(page.len(), model.len());
            prop_assert_eq!(page.iter().collect::<Vec<Entry>>(), model.clone());
            prop_assert_eq!(page.min_sort_key(), model.first().map(|e| e.sort_key));
            prop_assert_eq!(page.max_sort_key(), model.last().map(|e| e.sort_key));
            // the fence bounds the puts alone, and nothing for a page of
            // tombstones only
            let put_keys = || model.iter().filter(|e| !e.is_tombstone()).map(|e| e.delete_key);
            let put_bounds = put_keys().min().zip(put_keys().max());
            prop_assert_eq!(page.delete_fence().bounds(), put_bounds);
            prop_assert_eq!(page.tombstone_count(), model.iter().filter(|e| e.is_tombstone()).count());
            prop_assert_eq!(page.data_size(), model.iter().map(Entry::encoded_size).sum::<usize>());
            for &(lo, hi) in &probes {
                let newest = model.iter().find(|e| e.sort_key == lo);
                prop_assert_eq!(page.get(lo).as_ref(), newest);
                let in_range: Vec<Entry> =
                    model.iter().filter(|e| e.sort_key >= lo && e.sort_key < hi).cloned().collect();
                prop_assert_eq!(page.range(lo, hi).collect::<Vec<Entry>>(), in_range);
                let from: Vec<Entry> = model.iter().filter(|e| e.sort_key >= lo).cloned().collect();
                prop_assert_eq!(page.range_from(lo).collect::<Vec<Entry>>(), from);
            }

            // decode of the encoding is the identity
            prop_assert_eq!(Page::decode(page.encode()).unwrap(), page.clone());

            // the byte-level partial drop against a rebuilt page
            let (d_lo, d_hi) = (window.0.min(window.1), window.0.max(window.1));
            let doomed = |e: &Entry| !e.is_tombstone() && e.delete_key >= d_lo && e.delete_key < d_hi;
            let removed: Vec<Entry> = model.iter().filter(|e| doomed(e)).cloned().collect();
            let kept: Vec<Entry> = model.iter().filter(|e| !doomed(e)).cloned().collect();
            prop_assert_eq!(page.secondary_range(d_lo, d_hi).collect::<Vec<Entry>>(), removed.clone());
            let (deleted, survivor) = page.drop_secondary_range(d_lo, d_hi);
            prop_assert_eq!(deleted, removed.len());
            let rebuilt = Page::new(kept);
            prop_assert_eq!(&survivor.encode()[..], &rebuilt.encode()[..]);
            prop_assert_eq!(survivor.data_size(), rebuilt.data_size());
            prop_assert_eq!(survivor, rebuilt);
        }
    }
}
