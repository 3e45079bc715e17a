//! CRC-32 checksums for on-disk structures.
//!
//! The durable artifacts of the engine — the frames of every log (WAL
//! records, manifest edits, batch commits and pages, all laid out by
//! [`log::frame`](crate::log::frame)) and checkpoint markers — each carry a
//! CRC so that recovery can distinguish a torn tail (the normal result of a
//! crash mid-append, recoverable by truncating to the last valid prefix)
//! from silent corruption of committed data (an error).
//! The polynomial is the standard reflected CRC-32 (IEEE 802.3, the one used
//! by zlib): reflected polynomial `0xEDB88320`, initial value and final XOR
//! `0xFFFFFFFF`.
//!
//! The kernel is table-driven *slicing-by-16* (Kounavis & Berry, ISCC 2005):
//! each step folds 16 input bytes into the running CRC with 16 independent
//! lookups into sixteen 256-entry tables, so the loop is bounded by loads
//! rather than by the one-byte dependency chain of the classic table loop.
//! The tables (16 KiB) are computed by a `const fn` at compile time, and the
//! kernel is still dependency-free and uses no `unsafe`. Every page write
//! checksums its frame and every open checksums every frame of every
//! segment, so this loop is on both paths.
//!
//! There is deliberately no hardware path. SSE 4.2's `crc32` instruction
//! computes CRC-32C, a different polynomial that would change every checksum
//! on disk, which leaves carry-less-multiply folding (PCLMULQDQ): a second,
//! `unsafe`, architecture-gated kernel beside this one. No workload needs it
//! yet; verifying the frame CRC on every page read is the one that would.

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

#[cfg(test)]
mod tests {
    use super::*;
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
        let text = b"the quick brown fox jumps over the lazy dog".to_vec();
        let page: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        // every byte of the short input; every 61st byte of the page, which
        // visits every lane of the 16-byte step
        for (data, stride) in [(text, 1), (page, 61)] {
            let base = crc32(&data);
            for byte in (0..data.len()).step_by(stride) {
                for bit in 0..8 {
                    let mut corrupted = data.clone();
                    corrupted[byte] ^= 1 << bit;
                    assert_ne!(crc32(&corrupted), base, "flip at {byte}:{bit} undetected");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

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
    }
}
