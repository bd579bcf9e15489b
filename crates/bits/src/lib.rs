//! MSB-first bitstream primitives for the Ecco compressed-block format.
//!
//! Every Ecco compressed block is exactly **512 bits** (64 bytes, the
//! DRAM→L2 transaction size chosen in Section 3.1 of the paper) holding a
//! mix of fixed-width fields and variable-length Huffman codes. This crate
//! provides the [`BitWriter`]/[`BitReader`] pair used by the codec and the
//! hardware models, [`Block64`], the fixed-size block buffer, and
//! [`BlockCursor`], the zero-copy word-level window extractor the parallel
//! decoder's sub-decoders probe.
//!
//! Bit order is MSB-first within each byte, matching the way the paper's
//! decoder slices the 512-bit input into overlapping 15-bit windows.
//!
//! Both the writer and the reader move data at word granularity: the
//! writer accumulates into a 64-bit register and flushes whole bytes, the
//! reader gathers whole bytes into a 64-bit result — neither ever loops
//! per bit.
//!
//! # Examples
//!
//! ```
//! use ecco_bits::{BitReader, BitWriter};
//!
//! let mut w = BitWriter::new();
//! w.write_bits(0b101, 3);
//! w.write_bits(0xFF, 8);
//! let bytes = w.into_bytes();
//!
//! let mut r = BitReader::new(&bytes);
//! assert_eq!(r.read_bits(3), Some(0b101));
//! assert_eq!(r.read_bits(8), Some(0xFF));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// Number of bytes in an Ecco compressed block.
pub const BLOCK_BYTES: usize = 64;
/// Number of bits in an Ecco compressed block.
pub const BLOCK_BITS: usize = BLOCK_BYTES * 8;

/// An MSB-first bit accumulator backed by a growable byte buffer.
///
/// Bits are staged in a 64-bit accumulator and flushed to the byte buffer
/// a whole byte at a time, so a `write_bits` call costs a shift and at
/// most a handful of byte stores — never a per-bit loop.
///
/// # Examples
///
/// ```
/// use ecco_bits::BitWriter;
///
/// let mut w = BitWriter::new();
/// w.write_bits(0b1, 1);
/// w.write_bits(0b0110, 4);
/// assert_eq!(w.bit_len(), 5);
/// assert_eq!(w.into_bytes(), vec![0b1011_0000]);
/// ```
#[derive(Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Pending bits, right-aligned; always fewer than 8 between calls.
    acc: u64,
    acc_bits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> BitWriter {
        BitWriter::default()
    }

    /// Creates an empty writer with space reserved for `bits` bits.
    pub fn with_capacity(bits: usize) -> BitWriter {
        BitWriter {
            bytes: Vec::with_capacity(bits.div_ceil(8)),
            acc: 0,
            acc_bits: 0,
        }
    }

    /// Number of bits written so far.
    #[inline]
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.acc_bits as usize
    }

    /// Appends the low `n` bits of `value`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64` or if `value` has bits set above bit `n`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        assert!(n <= 64, "cannot write more than 64 bits at once");
        assert!(
            n == 64 || value < (1u64 << n),
            "value {value:#x} does not fit in {n} bits"
        );
        if n > 32 {
            // Split so the accumulator (holding < 8 pending bits) never
            // overflows: each chunk is at most 32 bits.
            self.write_chunk(value >> 32, n - 32);
            self.write_chunk(value & 0xFFFF_FFFF, 32);
        } else if n > 0 {
            self.write_chunk(value, n);
        }
    }

    /// Core word-level append: `n <= 32`, `value < 2^n`.
    #[inline]
    fn write_chunk(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 32 && self.acc_bits < 8);
        self.acc = (self.acc << n) | value;
        self.acc_bits += n;
        while self.acc_bits >= 8 {
            self.acc_bits -= 8;
            self.bytes.push((self.acc >> self.acc_bits) as u8);
        }
        self.acc &= (1u64 << self.acc_bits) - 1;
    }

    /// Appends zero bits until `bit_len` reaches `target_bits`.
    ///
    /// Does nothing if the writer is already at or past the target.
    pub fn pad_to(&mut self, target_bits: usize) {
        let mut need = target_bits.saturating_sub(self.bit_len());
        while need > 0 {
            let n = need.min(32) as u32;
            self.write_chunk(0, n);
            need -= n as usize;
        }
    }

    /// Consumes the writer, returning the packed bytes (zero-padded to a
    /// byte boundary).
    pub fn into_bytes(mut self) -> Vec<u8> {
        if self.acc_bits > 0 {
            let tail = (self.acc << (8 - self.acc_bits)) as u8;
            self.bytes.push(tail);
        }
        self.bytes
    }
}

impl fmt::Debug for BitWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitWriter({} bits)", self.bit_len())
    }
}

/// An MSB-first bit cursor over a byte slice.
///
/// Reads return `None` once fewer than the requested bits remain, which the
/// codec uses to detect clipped (truncated) Huffman streams. Reads gather
/// whole bytes, so a 64-bit read touches at most 9 bytes.
///
/// # Examples
///
/// ```
/// use ecco_bits::BitReader;
///
/// let mut r = BitReader::new(&[0b1100_0001, 0b1000_0000]);
/// assert_eq!(r.read_bits(2), Some(0b11));
/// assert_eq!(r.read_bits(7), Some(0b0000011));
/// assert_eq!(r.bit_pos(), 9);
/// ```
#[derive(Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    bit_pos: usize,
    bit_end: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over all bits of `bytes`.
    pub fn new(bytes: &'a [u8]) -> BitReader<'a> {
        BitReader {
            bytes,
            bit_pos: 0,
            bit_end: bytes.len() * 8,
        }
    }

    /// Creates a reader over the first `bit_end` bits of `bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `bit_end` exceeds the slice length in bits.
    pub fn with_limit(bytes: &'a [u8], bit_end: usize) -> BitReader<'a> {
        assert!(bit_end <= bytes.len() * 8, "limit beyond end of slice");
        BitReader {
            bytes,
            bit_pos: 0,
            bit_end,
        }
    }

    /// Current cursor position in bits from the start.
    #[inline]
    pub fn bit_pos(&self) -> usize {
        self.bit_pos
    }

    /// Number of unread bits.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bit_end - self.bit_pos
    }

    /// Moves the cursor to an absolute bit position.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is beyond the readable limit.
    #[inline]
    pub fn seek(&mut self, pos: usize) {
        assert!(pos <= self.bit_end, "seek beyond end of stream");
        self.bit_pos = pos;
    }

    /// Reads `n` bits MSB-first, or `None` if fewer than `n` remain.
    ///
    /// A failed read leaves the cursor unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Option<u64> {
        assert!(n <= 64, "cannot read more than 64 bits at once");
        if self.remaining() < n as usize {
            return None;
        }
        let out = self.extract(self.bit_pos, n);
        self.bit_pos += n as usize;
        Some(out)
    }

    /// Reads up to `n` bits without moving the cursor, zero-padding past the
    /// end of the stream. Returns the bits as if `n` bits had been read with
    /// missing bits as zero.
    ///
    /// This matches the hardware decoder, whose 15-bit windows run past the
    /// end of the 512-bit block and see zero fill.
    #[inline]
    pub fn peek_bits_padded(&self, n: u32) -> u64 {
        assert!(n <= 64);
        let avail = self.remaining().min(n as usize) as u32;
        if avail == 0 {
            // Also guards the n == 64 case below: a shift by n - avail
            // = 64 would overflow.
            return 0;
        }
        self.extract(self.bit_pos, avail) << (n - avail)
    }

    /// Gathers `n` in-bounds bits starting at absolute bit `pos`,
    /// byte-at-a-time (word-level refill).
    #[inline]
    fn extract(&self, pos: usize, n: u32) -> u64 {
        debug_assert!(pos + n as usize <= self.bit_end);
        let mut out = 0u64;
        let mut p = pos;
        let mut left = n;
        while left > 0 {
            let byte = self.bytes[p / 8] as u64;
            let off = (p % 8) as u32;
            let take = (8 - off).min(left);
            let chunk = (byte >> (8 - off - take)) & ((1u64 << take) - 1);
            out = (out << take) | chunk;
            p += take as usize;
            left -= take;
        }
        out
    }
}

impl fmt::Debug for BitReader<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitReader(pos {}, end {})", self.bit_pos, self.bit_end)
    }
}

/// A fixed 64-byte (512-bit) compressed-block buffer.
///
/// [`Block64`] guarantees at the type level that every compressed block has
/// the exact DRAM-transaction size the format requires; writers that
/// overflow it report the overflow instead of growing.
///
/// # Examples
///
/// ```
/// use ecco_bits::Block64;
///
/// let mut w = ecco_bits::BitWriter::new();
/// w.write_bits(0xAB, 8);
/// let block = Block64::from_writer(w).unwrap();
/// assert_eq!(block.as_bytes()[0], 0xAB);
/// assert_eq!(block.as_bytes().len(), 64);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Block64 {
    bytes: [u8; BLOCK_BYTES],
}

impl Block64 {
    /// An all-zero block.
    pub const ZERO: Block64 = Block64 {
        bytes: [0; BLOCK_BYTES],
    };

    /// Wraps an existing 64-byte buffer.
    pub const fn from_bytes(bytes: [u8; BLOCK_BYTES]) -> Block64 {
        Block64 { bytes }
    }

    /// Builds a block from a writer, zero-padding to 512 bits.
    ///
    /// # Errors
    ///
    /// Returns `Err` with the writer's bit length if it exceeds 512 bits —
    /// the caller (the codec's clip stage) decides what to drop.
    pub fn from_writer(mut writer: BitWriter) -> Result<Block64, usize> {
        if writer.bit_len() > BLOCK_BITS {
            return Err(writer.bit_len());
        }
        writer.pad_to(BLOCK_BITS);
        let bytes = writer.into_bytes();
        let mut out = [0u8; BLOCK_BYTES];
        out.copy_from_slice(&bytes[..BLOCK_BYTES]);
        Ok(Block64 { bytes: out })
    }

    /// Borrows the raw bytes.
    pub fn as_bytes(&self) -> &[u8; BLOCK_BYTES] {
        &self.bytes
    }

    /// Returns a bit reader over the whole block.
    pub fn reader(&self) -> BitReader<'_> {
        BitReader::new(&self.bytes)
    }

    /// Returns the word-level window cursor over this block.
    pub fn cursor(&self) -> BlockCursor {
        BlockCursor::new(self)
    }
}

impl Default for Block64 {
    fn default() -> Block64 {
        Block64::ZERO
    }
}

impl fmt::Debug for Block64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Block64(")?;
        for b in &self.bytes[..8] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…)")
    }
}

/// A seek-free window extractor over one 512-bit block.
///
/// The block is re-viewed once as eight big-endian 64-bit words (plus a
/// zero guard word); after that, extracting any ≤ 57-bit window at any bit
/// position is two shifts and an OR — no cursor state, no bounds loop, no
/// reconstruction. This is the primitive the parallel decoder's
/// sub-decoders use to slice the block into overlapping 15-bit windows:
/// a [`BlockCursor`] is built once per block and then only does index math.
///
/// Windows past bit 512 read as zero fill, exactly like the hardware.
///
/// # Examples
///
/// ```
/// use ecco_bits::{BitWriter, Block64};
///
/// let mut w = BitWriter::new();
/// w.write_bits(0b1010_1100, 8);
/// let block = Block64::from_writer(w).unwrap();
/// let cur = block.cursor();
/// assert_eq!(cur.window(0, 4), 0b1010);
/// assert_eq!(cur.window(4, 4), 0b1100);
/// // Past the end: zero padded.
/// assert_eq!(cur.window(510, 15), 0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct BlockCursor {
    /// The 512 block bits as big-endian words; `words[8]` is the zero
    /// guard so windows starting in the last word need no branch.
    words: [u64; 9],
}

impl BlockCursor {
    /// Views `block` as nine big-endian words (eight data + zero guard).
    pub fn new(block: &Block64) -> BlockCursor {
        let mut words = [0u64; 9];
        for (i, chunk) in block.as_bytes().chunks_exact(8).enumerate() {
            words[i] = u64::from_be_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        BlockCursor { words }
    }

    /// Extracts the `n`-bit window starting at absolute bit `pos`,
    /// zero-padded past bit 512.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `n > 57` or `pos >= 512`; the decoder only asks
    /// for 15-bit windows inside the block.
    #[inline]
    pub fn window(&self, pos: usize, n: u32) -> u64 {
        debug_assert!(n <= 57, "window wider than one guarded word pair");
        debug_assert!(pos < BLOCK_BITS, "window start outside block");
        let word = pos >> 6;
        let off = (pos & 63) as u32;
        // Concatenate the addressed word with its successor so any window
        // of up to 57 bits is fully contained in the top 64 bits.
        let hi = self.words[word] << off;
        let lo = if off == 0 {
            0
        } else {
            self.words[word + 1] >> (64 - off)
        };
        (hi | lo) >> (64 - n)
    }
}

/// The window extractor the hardware model runs on:
/// [`BlockCursor::window`]'s word-level shifts, the same on every host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowDispatch {
    /// Word-level window extraction, no intrinsics.
    Portable,
}

/// The [`WindowDispatch`] the hardware model runs on: always
/// [`WindowDispatch::Portable`]. Kept only because the repository
/// benchmark prints it in its env header; it goes away with that
/// benchmark's next change (ROADMAP.md item 1).
pub fn window_dispatch() -> WindowDispatch {
    WindowDispatch::Portable
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn write_then_read_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b10, 2);
        w.write_bits(0xAB, 8);
        w.write_bits(0x3FFF, 15);
        w.write_bits(1, 1);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(2), Some(0b10));
        assert_eq!(r.read_bits(8), Some(0xAB));
        assert_eq!(r.read_bits(15), Some(0x3FFF));
        assert_eq!(r.read_bits(1), Some(1));
    }

    #[test]
    fn read_past_end_returns_none() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8), Some(0xFF));
        assert_eq!(r.read_bits(1), None);
        // A failed read must not move the cursor.
        assert_eq!(r.bit_pos(), 8);
    }

    #[test]
    fn peek_pads_with_zeros() {
        let mut r = BitReader::new(&[0b1010_0000]);
        r.seek(4);
        // 4 real bits (0000) + 4 padded zeros.
        assert_eq!(r.peek_bits_padded(8), 0);
        r.seek(0);
        assert_eq!(r.peek_bits_padded(15), 0b1010_0000 << 7);
    }

    #[test]
    fn full_width_peek_at_end_is_zero() {
        let mut r = BitReader::new(&[0xFF]);
        r.seek(8);
        assert_eq!(r.peek_bits_padded(64), 0);
        assert_eq!(r.peek_bits_padded(0), 0);
        r.seek(7);
        assert_eq!(r.peek_bits_padded(64), 1u64 << 63);
    }

    #[test]
    fn with_limit_truncates() {
        let mut r = BitReader::with_limit(&[0xFF, 0xFF], 9);
        assert_eq!(r.read_bits(9), Some(0x1FF));
        assert_eq!(r.read_bits(1), None);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn writer_rejects_oversized_value() {
        BitWriter::new().write_bits(0b100, 2);
    }

    #[test]
    fn full_width_writes_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0xDEAD_BEEF_CAFE_F00D, 64);
        w.write_bits(1, 1);
        w.write_bits(u64::MAX, 64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(64), Some(0xDEAD_BEEF_CAFE_F00D));
        assert_eq!(r.read_bits(1), Some(1));
        assert_eq!(r.read_bits(64), Some(u64::MAX));
    }

    #[test]
    fn block_overflow_reported() {
        let mut w = BitWriter::new();
        w.write_bits(0, 64);
        for _ in 0..8 {
            w.write_bits(0, 57);
        }
        assert_eq!(Block64::from_writer(w).unwrap_err(), 64 + 8 * 57);
    }

    #[test]
    fn block_is_zero_padded() {
        let mut w = BitWriter::new();
        w.write_bits(0xFFFF, 16);
        let b = Block64::from_writer(w).unwrap();
        assert_eq!(b.as_bytes()[0], 0xFF);
        assert_eq!(b.as_bytes()[1], 0xFF);
        assert!(b.as_bytes()[2..].iter().all(|&x| x == 0));
    }

    #[test]
    fn cursor_matches_reader_on_fixed_pattern() {
        let mut w = BitWriter::new();
        for i in 0..32u64 {
            w.write_bits(i * 7 % 16, 4);
            w.write_bits(i % 2, 1);
        }
        let block = Block64::from_writer(w).unwrap();
        let cur = block.cursor();
        let r = block.reader();
        for pos in 0..BLOCK_BITS {
            let mut rr = r.clone();
            rr.seek(pos);
            assert_eq!(cur.window(pos, 15), rr.peek_bits_padded(15), "pos {pos}");
        }
    }

    proptest! {
        #[test]
        fn roundtrip_random_fields(fields in prop::collection::vec((0u64..u64::MAX, 1u32..=64), 0..64)) {
            let mut w = BitWriter::new();
            let mut expect = Vec::new();
            for &(v, n) in &fields {
                let masked = if n == 64 { v } else { v & ((1u64 << n) - 1) };
                w.write_bits(masked, n);
                expect.push((masked, n));
            }
            let total = w.bit_len();
            prop_assert_eq!(total, fields.iter().map(|&(_, n)| n as usize).sum::<usize>());
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for (v, n) in expect {
                prop_assert_eq!(r.read_bits(n), Some(v));
            }
        }

        #[test]
        fn seek_and_reread_consistent(data in prop::collection::vec(any::<u8>(), 1..64), pos in 0usize..256) {
            let mut r = BitReader::new(&data);
            let pos = pos % (data.len() * 8);
            r.seek(pos);
            let a = r.peek_bits_padded(15);
            let b = r.peek_bits_padded(15);
            prop_assert_eq!(a, b);
            prop_assert_eq!(r.bit_pos(), pos);
        }

        #[test]
        fn cursor_agrees_with_reader(data in prop::collection::vec(any::<u8>(), 64), pos in 0usize..512, n in 1u32..=57) {
            let mut bytes = [0u8; BLOCK_BYTES];
            bytes.copy_from_slice(&data);
            let block = Block64::from_bytes(bytes);
            let cur = block.cursor();
            let mut r = block.reader();
            r.seek(pos);
            prop_assert_eq!(cur.window(pos, n), r.peek_bits_padded(n));
        }

        #[test]
        fn writer_matches_bitwise_reference(fields in prop::collection::vec((0u64..u64::MAX, 1u32..=64), 0..32)) {
            // Word-level writer vs a trivially-correct per-bit reference.
            let mut w = BitWriter::new();
            let mut reference: Vec<bool> = Vec::new();
            for &(v, n) in &fields {
                let masked = if n == 64 { v } else { v & ((1u64 << n) - 1) };
                w.write_bits(masked, n);
                for i in (0..n).rev() {
                    reference.push((masked >> i) & 1 == 1);
                }
            }
            let bytes = w.into_bytes();
            for (i, &bit) in reference.iter().enumerate() {
                let got = (bytes[i / 8] >> (7 - i % 8)) & 1 == 1;
                prop_assert_eq!(got, bit, "bit {}", i);
            }
        }
    }
}
