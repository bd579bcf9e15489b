//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the per-frame
//! checksum of the ECCF container.
//!
//! The container stores one CRC per tensor frame, one for the metadata
//! snapshot and one for the tail directory itself, each computed over the
//! exact byte range the directory describes. This is an integrity check
//! against rot and truncation, not a cryptographic MAC.
//!
//! The implementation is slicing-by-16 (Kounavis & Berry, "A Systematic
//! Approach to Building High Performance Software-based CRC Generators",
//! ISCC 2005; zlib's software CRC slices the same way): 16 compile-time
//! tables of 256 entries (16 KiB) fold 16 input bytes per step, so the
//! loop carries one table-lookup chain per 16 bytes instead of one per
//! byte. The tail of fewer than 16 bytes goes byte at a time through the
//! first table, which is the classic single-table walk. Safe, portable
//! code with no CPU-feature dispatch; the read path stays
//! allocation-free.

/// `TABLES[0]` is the reflected CRC-32 byte table; `TABLES[k][b]` is the
/// CRC register after byte `b` followed by `k` zero bytes, so byte `i` of
/// a 16-byte chunk is folded through `TABLES[15 - i]`.
static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// The XOR of the eight bytes of the little-endian `word`, byte `i`
/// looked up in `TABLES[first - i]`.
#[inline(always)]
fn fold_word(word: u64, first: usize) -> u32 {
    (0..8).fold(0, |acc, i| {
        acc ^ TABLES[first - i][((word >> (8 * i)) & 0xFF) as usize]
    })
}

/// CRC-32 of `bytes` (IEEE, as produced by zlib's `crc32`, gzip, BGZF).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        let (lo, hi) = chunk.split_at(8);
        let lo = u64::from_le_bytes(lo.try_into().expect("8 bytes")) ^ u64::from(crc);
        let hi = u64::from_le_bytes(hi.try_into().expect("8 bytes"));
        crc = fold_word(lo, 15) ^ fold_word(hi, 7);
    }
    for &b in chunks.remainder() {
        crc = TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time single-table walk: the reference the sliced
    /// loop must equal on every input.
    fn bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(!0u32, |c, &b| {
            TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8)
        })
    }

    /// `len` bytes from a fixed xorshift stream.
    fn seeded(len: usize) -> Vec<u8> {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_answers() {
        // The check value every CRC-32 implementation pins.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"ECCF"), crc32(b"ECCF"));
    }

    #[test]
    fn single_bit_flips_always_detected() {
        let base: Vec<u8> = (0..97u8).collect();
        let want = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut b = base.clone();
                b[byte] ^= 1 << bit;
                assert_ne!(crc32(&b), want, "flip {byte}.{bit} undetected");
            }
        }
    }

    #[test]
    fn slice_by_16_matches_bytewise_walk() {
        let buf = seeded(1 << 20);
        // Every length across many chunk boundaries, at every alignment.
        for start in 0..16 {
            for len in 0..=300 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), bytewise(s), "start {start}, len {len}");
            }
        }
        // One chunk short, exact and over, once and twice, taken from the
        // buffer's end.
        for len in [15, 16, 17, 31, 32, 33] {
            let s = &buf[buf.len() - len..];
            assert_eq!(crc32(s), bytewise(s), "last {len} bytes");
        }
        assert_eq!(crc32(&buf), bytewise(&buf), "1 MiB");
    }
}
