//! MSB-first bitstream primitives for the Ecco compressed-block format.
//!
//! Every Ecco compressed block is exactly **512 bits** (64 bytes, the
//! DRAM→L2 transaction size chosen in Section 3.1 of the paper) holding a
//! mix of fixed-width fields and variable-length Huffman codes. This crate
//! provides [`BitWriter`], the one writer, [`Block64`], the fixed-size
//! block buffer, and [`BlockCursor`], the one reader: every decoder — the
//! codec's per-symbol walk and the hardware model's segment walk alike —
//! reads a block only as fixed-width windows of a cursor.
//!
//! Bit order is MSB-first within each byte, matching the way the paper's
//! decoder slices the 512-bit input into overlapping 15-bit windows.
//!
//! Both move data at word granularity: the writer accumulates into a
//! 64-bit register and flushes whole 64-bit words, the cursor views the
//! block as big-endian words and cuts any window out of two of them —
//! neither ever loops per bit or per byte.
//!
//! # Examples
//!
//! ```
//! use ecco_bits::{BitWriter, Block64};
//!
//! let mut w = BitWriter::new();
//! w.write_bits(0b101, 3);
//! w.write_bits(0xFF, 8);
//! let cur = Block64::from_writer(w).unwrap().cursor();
//!
//! assert_eq!(cur.window(0, 3), 0b101);
//! assert_eq!(cur.window(3, 8), 0xFF);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// Number of bytes in an Ecco compressed block.
pub const BLOCK_BYTES: usize = 64;
/// Number of bits in an Ecco compressed block.
pub const BLOCK_BITS: usize = BLOCK_BYTES * 8;

/// An MSB-first bit accumulator backed by a growable word buffer.
///
/// Bits are staged in a 64-bit accumulator and flushed to the buffer a
/// whole 64-bit word at a time, so a `write_bits` call costs a shift or
/// two and at most one word push — never a per-bit or per-byte loop.
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
    /// Flushed bits, one big-endian-ordered word per 64.
    words: Vec<u64>,
    /// Pending bits, right-aligned; always fewer than 64 between calls.
    /// Bits above the low `acc_bits` are stale: every read left-aligns
    /// the pending bits by `64 - acc_bits`, which shifts them out.
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
            words: Vec::with_capacity(bits.div_ceil(64)),
            acc: 0,
            acc_bits: 0,
        }
    }

    /// Number of bits written so far.
    #[inline]
    pub fn bit_len(&self) -> usize {
        self.words.len() * 64 + self.acc_bits as usize
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
        let free = 64 - self.acc_bits;
        if n < free {
            self.acc = (self.acc << n) | value;
            self.acc_bits += n;
        } else {
            // The top `free` bits of `value` complete the word; the
            // remaining `n - free` (< 64) start the next one.
            let rest = n - free;
            let word = match free {
                64 => value,
                _ => (self.acc << free) | (value >> rest),
            };
            self.words.push(word);
            self.acc = value;
            self.acc_bits = rest;
        }
    }

    /// Appends zero bits until `bit_len` reaches `target_bits`.
    ///
    /// Does nothing if the writer is already at or past the target.
    pub fn pad_to(&mut self, target_bits: usize) {
        let mut need = target_bits.saturating_sub(self.bit_len());
        while need > 0 {
            let n = need.min(64) as u32;
            self.write_bits(0, n);
            need -= n as usize;
        }
    }

    /// The flushed words followed by the pending bits, left-aligned in
    /// one last word (zero-filled) when there are any.
    fn left_aligned_words(&self) -> impl Iterator<Item = u64> + '_ {
        let tail = (self.acc_bits > 0).then(|| self.acc << (64 - self.acc_bits));
        self.words.iter().copied().chain(tail)
    }

    /// Consumes the writer, returning the packed bytes (zero-padded to a
    /// byte boundary).
    pub fn into_bytes(self) -> Vec<u8> {
        let mut bytes: Vec<u8> = self
            .left_aligned_words()
            .flat_map(u64::to_be_bytes)
            .collect();
        bytes.truncate(self.bit_len().div_ceil(8));
        bytes
    }
}

impl fmt::Debug for BitWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitWriter({} bits)", self.bit_len())
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

    /// Builds a block from a writer, zero-padding to 512 bits: its
    /// (at most eight) words are copied in big-endian order.
    ///
    /// # Errors
    ///
    /// Returns `Err` with the writer's bit length if it exceeds 512 bits —
    /// the caller (the codec's clip stage) decides what to drop.
    pub fn from_writer(writer: BitWriter) -> Result<Block64, usize> {
        if writer.bit_len() > BLOCK_BITS {
            return Err(writer.bit_len());
        }
        let mut bytes = [0u8; BLOCK_BYTES];
        for (chunk, word) in bytes.chunks_exact_mut(8).zip(writer.left_aligned_words()) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        Ok(Block64 { bytes })
    }

    /// Borrows the raw bytes.
    pub fn as_bytes(&self) -> &[u8; BLOCK_BYTES] {
        &self.bytes
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
/// reconstruction. It is the only way anything reads a block: the block
/// reader (`ecco_core::read_block`) builds one per block, cuts the header
/// fields and padded outliers out of it, and hands it to the symbol walk,
/// whose decoders probe `max_len`-bit (codec) or 15-bit (hardware model)
/// windows — after construction a cursor only does index math.
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
    /// zero-padded past bit 512. A zero-width window is 0 (a one-book
    /// pattern's `ID_HF` field).
    ///
    /// # Panics
    ///
    /// Panics (debug) if `n > 57` or `pos >= 512`; the decoders only ask
    /// for windows that start inside the block.
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
        (hi | lo).checked_shr(64 - n).unwrap_or(0)
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

    /// The per-bit reference reader the word-level code is checked
    /// against: bit `i` is bit `7 - i % 8` of byte `i / 8`, and zero past
    /// the end.
    fn bitwise(bytes: &[u8], pos: usize, n: u32) -> u64 {
        (pos..pos + n as usize).fold(0, |acc, i| {
            let bit = bytes.get(i / 8).map_or(0, |&b| (b >> (7 - i % 8)) & 1);
            (acc << 1) | bit as u64
        })
    }

    #[test]
    fn write_then_read_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b10, 2);
        w.write_bits(0xAB, 8);
        w.write_bits(0x3FFF, 15);
        w.write_bits(1, 1);
        let cur = Block64::from_writer(w).unwrap().cursor();
        assert_eq!(cur.window(0, 2), 0b10);
        assert_eq!(cur.window(2, 8), 0xAB);
        assert_eq!(cur.window(10, 15), 0x3FFF);
        assert_eq!(cur.window(25, 1), 1);
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
        assert_eq!(bitwise(&bytes, 0, 64), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(bitwise(&bytes, 64, 1), 1);
        assert_eq!(bitwise(&bytes, 65, 64), u64::MAX);
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
    fn cursor_matches_bitwise_reference_on_fixed_pattern() {
        let mut w = BitWriter::new();
        for i in 0..32u64 {
            w.write_bits(i * 7 % 16, 4);
            w.write_bits(i % 2, 1);
        }
        let block = Block64::from_writer(w).unwrap();
        let cur = block.cursor();
        for pos in 0..BLOCK_BITS {
            let want = bitwise(block.as_bytes(), pos, 15);
            assert_eq!(cur.window(pos, 15), want, "pos {pos}");
        }
    }

    proptest! {
        #[test]
        fn cursor_agrees_with_bitwise_reference(data in prop::collection::vec(any::<u8>(), 64)) {
            let mut bytes = [0u8; BLOCK_BYTES];
            bytes.copy_from_slice(&data);
            let cur = Block64::from_bytes(bytes).cursor();
            for pos in 0..BLOCK_BITS {
                // Every narrower window is a prefix of the widest one.
                let widest = bitwise(&bytes, pos, 57);
                for n in 0..=57 {
                    prop_assert_eq!(cur.window(pos, n), widest >> (57 - n), "pos {} width {}", pos, n);
                }
            }
        }

        #[test]
        fn writer_matches_bitwise_reference(fields in prop::collection::vec((0u64..u64::MAX, 1u32..=64), 0..32)) {
            // Word-level writer vs a trivially-correct per-bit reference,
            // bit by bit and then field by field.
            let mut w = BitWriter::new();
            let mut reference: Vec<bool> = Vec::new();
            let mut written = Vec::new();
            for &(v, n) in &fields {
                let masked = if n == 64 { v } else { v & ((1u64 << n) - 1) };
                w.write_bits(masked, n);
                written.push((masked, n));
                for i in (0..n).rev() {
                    reference.push((masked >> i) & 1 == 1);
                }
            }
            prop_assert_eq!(w.bit_len(), reference.len());
            // A block holds the same bytes, zero-filled to 64, and so
            // does the writer padded with zeros.
            let block = Block64::from_writer(w.clone());
            let mut padded = w.clone();
            padded.pad_to(reference.len() + 100);
            prop_assert_eq!(padded.bit_len(), reference.len() + 100);
            let padded = padded.into_bytes();
            let bytes = w.into_bytes();
            prop_assert_eq!(&padded[..bytes.len()], &bytes[..]);
            prop_assert!(padded[bytes.len()..].iter().all(|&b| b == 0));
            prop_assert_eq!(bytes.len(), reference.len().div_ceil(8));
            match block {
                Ok(block) => {
                    prop_assert_eq!(&block.as_bytes()[..bytes.len()], &bytes[..]);
                    prop_assert!(block.as_bytes()[bytes.len()..].iter().all(|&b| b == 0));
                }
                Err(len) => prop_assert!(len > BLOCK_BITS && len == reference.len()),
            }
            for (i, &bit) in reference.iter().enumerate() {
                let got = (bytes[i / 8] >> (7 - i % 8)) & 1 == 1;
                prop_assert_eq!(got, bit, "bit {}", i);
            }
            let mut pos = 0;
            for (v, n) in written {
                prop_assert_eq!(bitwise(&bytes, pos, n), v, "field at bit {}", pos);
                pos += n as usize;
            }
        }
    }
}
