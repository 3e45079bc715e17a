//! The fundamental key-value record stored by the engine.
//!
//! Every record carries a *sort key* `S` (the key the tree is ordered and
//! queried on), a *delete key* `D` (a secondary attribute — e.g. a creation
//! timestamp — that secondary range deletes operate on), a monotonically
//! increasing sequence number used to order versions of the same sort key,
//! and a kind: a regular `Put`, a point tombstone, or a range tombstone.
//!
//! This mirrors the entry layout of the paper's Figure 3: a key-value pair is
//! `⟨sort key, delete key, value⟩` and a tombstone is `⟨sort key, flag⟩`
//! (point) or `⟨start, end, flag⟩` (range).

use crate::error::{Result, StorageError};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// The primary (sort) key. The tree is totally ordered on this key.
pub type SortKey = u64;
/// The secondary (delete) key, e.g. a timestamp. Secondary range deletes are
/// expressed as ranges over this key.
pub type DeleteKey = u64;
/// Monotonically increasing sequence number assigned at ingestion time.
/// A larger sequence number always denotes a more recent version.
pub type SeqNum = u64;

/// Number of bytes used to encode the sort key on disk.
pub const SORT_KEY_BYTES: usize = 8;
/// Number of bytes used to encode the delete key on disk.
pub const DELETE_KEY_BYTES: usize = 8;
/// Number of bytes used to encode the sequence number on disk.
pub const SEQNUM_BYTES: usize = 8;
/// Number of bytes used to encode the entry kind / tombstone flag on disk.
pub const FLAG_BYTES: usize = 1;
/// Fixed per-entry header size (everything except the value payload).
pub const HEADER_BYTES: usize = SORT_KEY_BYTES + DELETE_KEY_BYTES + SEQNUM_BYTES + FLAG_BYTES;

/// What a record represents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryKind {
    /// A live key-value pair.
    Put,
    /// A point tombstone: logically deletes every older version of the same
    /// sort key.
    PointTombstone,
    /// A range tombstone: logically deletes every older version of every sort
    /// key in `[sort_key, end)`.
    RangeTombstone {
        /// Exclusive upper bound of the deleted sort-key range.
        end: SortKey,
    },
}

impl EntryKind {
    /// Returns `true` for both point and range tombstones.
    pub fn is_tombstone(&self) -> bool {
        !matches!(self, EntryKind::Put)
    }
}

/// A single record flowing through the engine (memtable, pages, compactions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// The sort key `S`.
    pub sort_key: SortKey,
    /// The delete key `D`. A tombstone stores 0 here, kept for a uniform
    /// layout; no secondary range delete removes a tombstone, so this 0 is
    /// excluded from every delete-key bound (see
    /// [`DeleteFence`](crate::DeleteFence)).
    pub delete_key: DeleteKey,
    /// Ingestion sequence number; larger is newer.
    pub seqnum: SeqNum,
    /// Whether this is a put, a point tombstone, or a range tombstone.
    pub kind: EntryKind,
    /// The value payload. Empty for tombstones.
    pub value: Bytes,
}

impl Entry {
    /// Creates a live key-value entry.
    pub fn put(sort_key: SortKey, delete_key: DeleteKey, seqnum: SeqNum, value: Bytes) -> Self {
        Entry { sort_key, delete_key, seqnum, kind: EntryKind::Put, value }
    }

    /// Creates a point tombstone for `sort_key`. Its delete key is 0, which
    /// is excluded from every delete-key bound.
    pub fn point_tombstone(sort_key: SortKey, seqnum: SeqNum) -> Self {
        Entry {
            sort_key,
            delete_key: 0,
            seqnum,
            kind: EntryKind::PointTombstone,
            value: Bytes::new(),
        }
    }

    /// Creates a range tombstone covering sort keys in `[start, end)`.
    pub fn range_tombstone(start: SortKey, end: SortKey, seqnum: SeqNum) -> Self {
        Entry {
            sort_key: start,
            delete_key: 0,
            seqnum,
            kind: EntryKind::RangeTombstone { end },
            value: Bytes::new(),
        }
    }

    /// Returns `true` if this entry is any kind of tombstone.
    pub fn is_tombstone(&self) -> bool {
        self.kind.is_tombstone()
    }

    /// Returns `true` if this entry is a point tombstone.
    pub fn is_point_tombstone(&self) -> bool {
        matches!(self.kind, EntryKind::PointTombstone)
    }

    /// Returns `true` if this entry is a range tombstone.
    pub fn is_range_tombstone(&self) -> bool {
        matches!(self.kind, EntryKind::RangeTombstone { .. })
    }

    /// For range tombstones, the exclusive end of the covered range.
    pub fn range_end(&self) -> Option<SortKey> {
        match self.kind {
            EntryKind::RangeTombstone { end } => Some(end),
            _ => None,
        }
    }

    /// Returns `true` if this (range tombstone) entry covers `key`.
    /// Non-range entries cover only their own sort key.
    pub fn covers(&self, key: SortKey) -> bool {
        match self.kind {
            EntryKind::RangeTombstone { end } => self.sort_key <= key && key < end,
            _ => self.sort_key == key,
        }
    }

    /// Resolves a buffered point lookup: combines the buffered point entry
    /// for `sort_key` (if any) with the newest buffered range tombstone
    /// covering it (if any). A strictly newer covering range tombstone
    /// shadows the point entry; a covering tombstone with no point entry
    /// reports the key as deleted. The single definition of this precedence,
    /// shared by the active memtable and the frozen flush buffer so the two
    /// read paths can never diverge.
    pub fn resolve_point_read(
        sort_key: SortKey,
        point: Option<Entry>,
        covering_rt: Option<&Entry>,
    ) -> Option<Entry> {
        match (point, covering_rt) {
            (Some(p), Some(rt)) if rt.seqnum > p.seqnum => {
                Some(Entry::point_tombstone(sort_key, rt.seqnum))
            }
            (Some(p), _) => Some(p),
            (None, Some(rt)) => Some(Entry::point_tombstone(sort_key, rt.seqnum)),
            (None, None) => None,
        }
    }

    /// The on-disk encoded size of this entry in bytes: a fixed header plus
    /// the value payload. Tombstones carry no payload, which is what makes
    /// the tombstone size ratio λ = size(tombstone)/size(key-value) small
    /// (paper §3.2.1).
    pub fn encoded_size(&self) -> usize {
        HEADER_BYTES
            + match self.kind {
                EntryKind::Put => self.value.len(),
                EntryKind::PointTombstone => 0,
                // a range tombstone additionally stores its end key
                EntryKind::RangeTombstone { .. } => SORT_KEY_BYTES,
            }
    }

    /// Returns `true` if `self` is a more recent version than `other` for the
    /// same sort key (strictly larger sequence number).
    pub fn supersedes(&self, other: &Entry) -> bool {
        self.sort_key == other.sort_key && self.seqnum > other.seqnum
    }

    /// Serialises the entry into `buf`. The format is shared by the page
    /// codec and the manifest's range-tombstone blocks:
    /// `sort_key · delete_key · seqnum · tag (· value length · value | · range end)`.
    ///
    /// The fixed-width fields are assembled on the stack and appended with
    /// one call: the buffer's appends are calls into another crate, and one
    /// per field cost several times the copy itself on the page encode path.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        let mut head = [0u8; HEADER_BYTES + SORT_KEY_BYTES];
        head[..8].copy_from_slice(&self.sort_key.to_be_bytes());
        head[8..16].copy_from_slice(&self.delete_key.to_be_bytes());
        head[16..24].copy_from_slice(&self.seqnum.to_be_bytes());
        let len = match &self.kind {
            EntryKind::Put => {
                head[24] = encoded::TAG_PUT;
                head[25..29].copy_from_slice(&(self.value.len() as u32).to_be_bytes());
                HEADER_BYTES + 4
            }
            EntryKind::PointTombstone => {
                head[24] = encoded::TAG_POINT;
                HEADER_BYTES
            }
            EntryKind::RangeTombstone { end } => {
                head[24] = encoded::TAG_RANGE;
                head[25..33].copy_from_slice(&end.to_be_bytes());
                HEADER_BYTES + SORT_KEY_BYTES
            }
        };
        buf.put_slice(&head[..len]);
        if matches!(self.kind, EntryKind::Put) {
            buf.put_slice(&self.value);
        }
    }

    /// Decodes one entry previously produced by [`Entry::encode_into`],
    /// consuming it from the front of `data`.
    pub fn decode_from(data: &mut Bytes) -> Result<Entry> {
        let end = encoded::validate(data, 0)?;
        let entry = encoded::decode(data, 0);
        data.advance(end);
        Ok(entry)
    }
}

/// Reads of an entry in its encoded form, in place inside a larger buffer.
///
/// [`validate`](encoded::validate) is the one check: once it accepted the
/// entry at `at`, every other function here reads inside the buffer, so
/// none of them can fail or index out of bounds. The page keeps its entries
/// in this form and decodes only the ones a reader asks for.
pub(crate) mod encoded {
    use super::*;

    pub(crate) const TAG_PUT: u8 = 0;
    pub(crate) const TAG_POINT: u8 = 1;
    pub(crate) const TAG_RANGE: u8 = 2;

    const DELETE_KEY_AT: usize = SORT_KEY_BYTES;
    const SEQNUM_AT: usize = DELETE_KEY_AT + DELETE_KEY_BYTES;
    const TAG_AT: usize = SEQNUM_AT + SEQNUM_BYTES;
    /// A put's value length, a `u32` after the tag. Not part of
    /// [`Entry::encoded_size`], which prices the paper's λ.
    const VALUE_LEN_BYTES: usize = 4;

    fn u64_at(buf: &[u8], at: usize) -> u64 {
        let mut word = [0u8; 8];
        word.copy_from_slice(&buf[at..at + 8]);
        u64::from_be_bytes(word)
    }

    fn u32_at(buf: &[u8], at: usize) -> u32 {
        let mut word = [0u8; 4];
        word.copy_from_slice(&buf[at..at + 4]);
        u32::from_be_bytes(word)
    }

    /// Checks that a whole entry is encoded at `at` — a known tag, and every
    /// length inside `buf` — and returns the offset one past its end.
    pub(crate) fn validate(buf: &[u8], at: usize) -> Result<usize> {
        // lengths are compared against what is left after `at`, so no sum
        // of an untrusted length can overflow
        let left = buf.len().saturating_sub(at);
        if left < HEADER_BYTES {
            return Err(StorageError::Corruption("entry header truncated".into()));
        }
        let body = at + HEADER_BYTES;
        let tail = match buf[at + TAG_AT] {
            TAG_PUT => {
                if left - HEADER_BYTES < VALUE_LEN_BYTES {
                    return Err(StorageError::Corruption("value length truncated".into()));
                }
                let len = u32_at(buf, body) as usize;
                if left - HEADER_BYTES - VALUE_LEN_BYTES < len {
                    return Err(StorageError::Corruption("value body truncated".into()));
                }
                VALUE_LEN_BYTES + len
            }
            TAG_POINT => 0,
            TAG_RANGE => {
                if left - HEADER_BYTES < SORT_KEY_BYTES {
                    return Err(StorageError::Corruption("range end truncated".into()));
                }
                SORT_KEY_BYTES
            }
            t => return Err(StorageError::Corruption(format!("unknown entry tag {t}"))),
        };
        Ok(body + tail)
    }

    pub(crate) fn sort_key(buf: &[u8], at: usize) -> SortKey {
        u64_at(buf, at)
    }

    pub(crate) fn delete_key(buf: &[u8], at: usize) -> DeleteKey {
        u64_at(buf, at + DELETE_KEY_AT)
    }

    pub(crate) fn is_tombstone(buf: &[u8], at: usize) -> bool {
        buf[at + TAG_AT] != TAG_PUT
    }

    /// The entry's [`Entry::encoded_size`], read from its tag and length.
    pub(crate) fn size(buf: &[u8], at: usize) -> usize {
        HEADER_BYTES
            + match buf[at + TAG_AT] {
                TAG_PUT => u32_at(buf, at + HEADER_BYTES) as usize,
                TAG_POINT => 0,
                _ => SORT_KEY_BYTES,
            }
    }

    /// Decodes the entry at `at`. Its value is a window on `buf`, not a copy.
    pub(crate) fn decode(buf: &Bytes, at: usize) -> Entry {
        let raw: &[u8] = buf;
        let body = at + HEADER_BYTES;
        let (kind, value) = match raw[at + TAG_AT] {
            TAG_PUT => {
                let start = body + VALUE_LEN_BYTES;
                (EntryKind::Put, buf.slice(start..start + u32_at(raw, body) as usize))
            }
            TAG_POINT => (EntryKind::PointTombstone, Bytes::new()),
            _ => (EntryKind::RangeTombstone { end: u64_at(raw, body) }, Bytes::new()),
        };
        Entry {
            sort_key: sort_key(raw, at),
            delete_key: delete_key(raw, at),
            seqnum: u64_at(raw, at + SEQNUM_AT),
            kind,
            value,
        }
    }
}

/// Computes the tombstone size ratio λ = size(tombstone) / size(key-value)
/// for a given average value size (paper §3.2.1). λ ∈ (0, 1].
pub fn tombstone_size_ratio(avg_value_size: usize) -> f64 {
    HEADER_BYTES as f64 / (HEADER_BYTES + avg_value_size) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_entry_reports_sizes_and_kind() {
        let e = Entry::put(10, 99, 7, Bytes::from(vec![0u8; 100]));
        assert!(!e.is_tombstone());
        assert_eq!(e.encoded_size(), HEADER_BYTES + 100);
        assert_eq!(e.range_end(), None);
        assert!(e.covers(10));
        assert!(!e.covers(11));
    }

    #[test]
    fn point_tombstone_has_no_payload() {
        let t = Entry::point_tombstone(5, 3);
        assert!(t.is_tombstone());
        assert!(t.is_point_tombstone());
        assert!(!t.is_range_tombstone());
        assert_eq!(t.encoded_size(), HEADER_BYTES);
        assert!(t.value.is_empty());
    }

    #[test]
    fn range_tombstone_covers_half_open_interval() {
        let t = Entry::range_tombstone(10, 20, 1);
        assert!(t.is_range_tombstone());
        assert_eq!(t.range_end(), Some(20));
        assert!(t.covers(10));
        assert!(t.covers(19));
        assert!(!t.covers(20));
        assert!(!t.covers(9));
        assert_eq!(t.encoded_size(), HEADER_BYTES + SORT_KEY_BYTES);
    }

    #[test]
    fn supersedes_requires_same_key_and_newer_seqnum() {
        let old = Entry::put(1, 0, 5, Bytes::from_static(b"a"));
        let newer = Entry::put(1, 0, 9, Bytes::from_static(b"b"));
        let other_key = Entry::put(2, 0, 10, Bytes::from_static(b"c"));
        assert!(newer.supersedes(&old));
        assert!(!old.supersedes(&newer));
        assert!(!other_key.supersedes(&old));
    }

    #[test]
    fn entry_codec_roundtrips_every_kind() {
        let entries = vec![
            Entry::put(1, 11, 5, Bytes::from_static(b"hello")),
            Entry::put(2, 0, 6, Bytes::new()),
            Entry::point_tombstone(3, 7),
            Entry::range_tombstone(4, 40, 8),
        ];
        let mut buf = BytesMut::new();
        for e in &entries {
            e.encode_into(&mut buf);
        }
        let mut data = buf.freeze();
        for e in &entries {
            assert_eq!(&Entry::decode_from(&mut data).unwrap(), e);
        }
        assert_eq!(data.len(), 0);
        // truncated input is an error, not a panic
        let mut short = Bytes::from_static(b"\x00\x01");
        assert!(Entry::decode_from(&mut short).is_err());
    }

    #[test]
    fn tombstone_size_ratio_matches_definition() {
        let lambda = tombstone_size_ratio(1024 - HEADER_BYTES);
        assert!((lambda - HEADER_BYTES as f64 / 1024.0).abs() < 1e-12);
        // λ is bounded by (0, 1]
        assert!(tombstone_size_ratio(0) <= 1.0);
        assert!(tombstone_size_ratio(1_000_000) > 0.0);
    }
}
