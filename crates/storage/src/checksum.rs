//! Checksums for on-disk structures: two kernels, CRC-32 and XXH64.
//!
//! The durable artifacts of the engine — the frames of every log (WAL
//! records, manifest edits, batch commits and pages, all laid out by
//! [`log::frame`](crate::log::frame)) and checkpoint markers — each carry a
//! 32-bit checksum so that recovery can distinguish a torn tail (the normal
//! result of a crash mid-append, recoverable by truncating to the last valid
//! prefix) from silent corruption of committed data (an error). Each file
//! kind's [`log::Format`](crate::log::Format) names the kernel that sums its
//! frames.
//!
//! [`crc32`] is the standard reflected CRC-32 (IEEE 802.3, the one used by
//! zlib): reflected polynomial `0xEDB88320`, initial value and final XOR
//! `0xFFFFFFFF`. The WAL, the manifest, the batch log and checkpoint markers
//! carry it. The kernel is table-driven *slicing-by-16* (Kounavis & Berry,
//! ISCC 2005): each step folds 16 input bytes into the running CRC with 16
//! independent lookups into sixteen 256-entry tables, computed by a
//! `const fn` at compile time.
//!
//! [`xxh64`] is XXH64 (seed 0), and the page frames (tag `LEFX`) carry its
//! low 32 bits, as zstd's frame checksum does. An open checks every frame of
//! the newest segment and of any sealed one it cannot index, recovery checks
//! every live page it rebuilds a table from, and a compaction every page it
//! rewrites, so this loop lies on the reopen and job paths: four
//! independent 64-bit multiply-rotate lanes over 32-byte stripes run about
//! six times faster than the table-driven CRC, in safe Rust with no
//! architecture gate. **The trade:** a random corruption goes undetected
//! with probability 2^-32 under either sum, but unlike a CRC the hash does
//! not detect *every* burst of 32 bits or fewer. That is enough for bit rot
//! and torn sectors, and it is what zstd and RocksDB (`kxxHash64`) ship. The
//! small, often-synced records keep CRC-32.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[k][b]` is the CRC register contribution of byte `b` followed by
/// `k` zero bytes; `TABLES[0]` is the classic one-byte table.
static TABLES: [[u32; 256]; 16] = tables();

const fn tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Computes the CRC-32 (IEEE) checksum of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let (blocks, tail) = data.as_chunks::<16>();
    for block in blocks {
        let word =
            |i: usize| u32::from_le_bytes([block[i], block[i + 1], block[i + 2], block[i + 3]]);
        let (a, b, c, d) = (word(0) ^ crc, word(4), word(8), word(12));
        let byte = |w: u32, shift: u32| ((w >> shift) & 0xFF) as usize;
        crc = t[15][byte(a, 0)]
            ^ t[14][byte(a, 8)]
            ^ t[13][byte(a, 16)]
            ^ t[12][byte(a, 24)]
            ^ t[11][byte(b, 0)]
            ^ t[10][byte(b, 8)]
            ^ t[9][byte(b, 16)]
            ^ t[8][byte(b, 24)]
            ^ t[7][byte(c, 0)]
            ^ t[6][byte(c, 8)]
            ^ t[5][byte(c, 16)]
            ^ t[4][byte(c, 24)]
            ^ t[3][byte(d, 0)]
            ^ t[2][byte(d, 8)]
            ^ t[1][byte(d, 16)]
            ^ t[0][byte(d, 24)];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// The five XXH64 primes.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// One lane step: folds the 8-byte word `input` into `acc`.
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// Folds a finished lane `acc` into the hash `h`.
fn merge(h: u64, acc: u64) -> u64 {
    (h ^ round(0, acc)).wrapping_mul(P1).wrapping_add(P4)
}

/// Computes the XXH64 hash (seed 0) of `data`.
pub fn xxh64(data: &[u8]) -> u64 {
    let (stripes, rest) = data.as_chunks::<32>();
    let mut h = if stripes.is_empty() {
        P5
    } else {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in stripes {
            let (words, _) = stripe.as_chunks::<8>();
            for (lane, word) in v.iter_mut().zip(words) {
                *lane = round(*lane, u64::from_le_bytes(*word));
            }
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.into_iter().fold(h, merge)
    };
    h = h.wrapping_add(data.len() as u64);
    let (words, mut rest) = rest.as_chunks::<8>();
    for word in words {
        h ^= round(0, u64::from_le_bytes(*word));
        h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
    }
    if let Some((word, tail)) = rest.split_first_chunk::<4>() {
        h ^= u64::from(u32::from_le_bytes(*word)).wrapping_mul(P1);
        h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        rest = tail;
    }
    for &b in rest {
        h ^= u64::from(b).wrapping_mul(P5);
        h = h.rotate_left(11).wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ h >> 32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::Sum;
    use proptest::prelude::*;

    /// The polynomial definition, one bit at a time and with no table: the
    /// reference the table kernel is checked against.
    fn crc32_reference(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// XXH64 (seed 0) as the spec states it, reading the input one byte at
    /// a time: the reference the striped kernel is checked against.
    fn xxh64_reference(data: &[u8]) -> u64 {
        let word = |at: usize, n: usize| {
            (0..n)
                .rev()
                .fold(0u64, |w, i| w << 8 | u64::from(data[at + i]))
        };
        let round = |acc: u64, input: u64| {
            acc.wrapping_add(input.wrapping_mul(P2))
                .rotate_left(31)
                .wrapping_mul(P1)
        };
        let mut at = 0;
        let mut h;
        if data.len() >= 32 {
            let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
            while at + 32 <= data.len() {
                for lane in &mut v {
                    *lane = round(*lane, word(at, 8));
                    at += 8;
                }
            }
            h = v[0].rotate_left(1);
            h = h.wrapping_add(v[1].rotate_left(7));
            h = h.wrapping_add(v[2].rotate_left(12));
            h = h.wrapping_add(v[3].rotate_left(18));
            for lane in v {
                h ^= round(0, lane);
                h = h.wrapping_mul(P1).wrapping_add(P4);
            }
        } else {
            h = P5;
        }
        h = h.wrapping_add(data.len() as u64);
        while at + 8 <= data.len() {
            h ^= round(0, word(at, 8));
            h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
            at += 8;
        }
        if at + 4 <= data.len() {
            h ^= word(at, 4).wrapping_mul(P1);
            h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            at += 4;
        }
        while at < data.len() {
            h ^= u64::from(data[at]).wrapping_mul(P5);
            h = h.rotate_left(11).wrapping_mul(P1);
            at += 1;
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ h >> 32
    }

    /// The spec's answers for seed 0. They keep every `LEFX` page frame
    /// already on disk verifiable.
    #[test]
    fn xxh64_spec_vectors() {
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    #[test]
    fn known_vectors() {
        // standard check value for "123456789"
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// Page-sized answers pinned to zlib's `crc32`: these are what keep every
    /// frame, manifest record, batch record and marker already on disk
    /// verifiable.
    #[test]
    fn page_sized_vectors_match_zlib() {
        assert_eq!(crc32(&[0u8; 4096]), 0xC71C_0011);
        let ramp: Vec<u8> = (0..16).flat_map(|_| 0..=255u8).collect();
        assert_eq!(crc32(&ramp), 0xA291_2082);
        assert_eq!(crc32(&[0xA5u8; 4096]), 0x4A9D_36C6);
    }

    #[test]
    fn detects_single_bit_flips() {
        let text = b"the quick brown fox jumps over the lazy dog";
        let page: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        // CRC-32 at every byte of the short input and at every 61st byte of
        // the page, which visits every lane of the 16-byte step; the page
        // frames' sum, the low 32 bits of XXH64, at every 31st byte of the
        // page, which visits every byte of the 32-byte stripe
        let cases = [
            (Sum::Crc32, &text[..], 1),
            (Sum::Crc32, &page[..], 61),
            (Sum::Xxh64, &page[..], 31),
        ];
        for (sum, data, stride) in cases {
            let base = sum.of(data);
            for byte in (0..data.len()).step_by(stride) {
                for bit in 0..8 {
                    let mut corrupted = data.to_vec();
                    corrupted[byte] ^= 1 << bit;
                    assert_ne!(sum.of(&corrupted), base, "flip at {byte}:{bit} undetected");
                }
            }
        }
    }

    /// Proptest cases per property: one under Miri, which runs each about a
    /// hundred times slower.
    const CASES: u32 = if cfg!(miri) { 1 } else { 8 };

    proptest! {
        #![proptest_config(ProptestConfig { cases: CASES, ..ProptestConfig::default() })]

        /// Every length 0..=300 (whole 16-byte steps plus every tail) at
        /// every offset 0..16 of a random buffer, and one random page-sized
        /// input, agree with the bitwise definition.
        #[test]
        fn matches_the_bitwise_reference(
            buf in prop::collection::vec(any::<u8>(), 316..317),
            page in prop::collection::vec(any::<u8>(), 4096..4201),
        ) {
            for off in 0..16 {
                for len in 0..=300 {
                    let s = &buf[off..off + len];
                    prop_assert_eq!(crc32(s), crc32_reference(s), "off {} len {}", off, len);
                }
            }
            prop_assert_eq!(crc32(&page), crc32_reference(&page));
        }

        /// Every length 0..=300 (whole 32-byte stripes, and every mix of
        /// 8-byte words, a 4-byte word and single bytes behind them) at every
        /// offset 0..16 of a random buffer, and one random page-sized input,
        /// agree with the bytewise reference.
        #[test]
        fn xxh64_matches_the_bytewise_reference(
            buf in prop::collection::vec(any::<u8>(), 316..317),
            page in prop::collection::vec(any::<u8>(), 4096..4201),
        ) {
            for off in 0..16 {
                for len in 0..=300 {
                    let s = &buf[off..off + len];
                    prop_assert_eq!(xxh64(s), xxh64_reference(s), "off {} len {}", off, len);
                }
            }
            prop_assert_eq!(xxh64(&page), xxh64_reference(&page));
        }
    }
}
