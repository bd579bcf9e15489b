//! Precomputed **sub-decoder chain tables** for the parallel Huffman
//! decoder (the software analogue of the paper's per-segment combinational
//! sub-decoder logic, Section 4.2).
//!
//! The hardware slices a 512-bit block into 64 segments of 8 bits and
//! gives each segment a 15-bit window (its own 8 bits plus a 7-bit overlap
//! into the next segment). Because code lengths are constrained to
//! **2..=8 bits**, every code that *starts* inside a segment *ends* inside
//! its window, and at most four codes (⌈8 / 2⌉) can start in one segment.
//!
//! A [`SegmentLut`] precomputes, for every possible 15-bit window value,
//! the entire greedy decode chain from window offset 0: up to four
//! `(symbol, end_bit)` pairs plus a flag for windows whose chain hits an
//! invalid prefix. One table probe therefore replaces one-to-four
//! [`SymbolDecoder::decode_window`](crate::SymbolDecoder::decode_window)
//! calls *and* all per-symbol position bookkeeping — the
//! decoder truncates the returned chain to its entry offset's bit budget
//! with pure index math (see `ecco-hw::paradec` for the layout of that
//! pass).
//!
//! # Entry packing
//!
//! Each [`ChainEntry`] is one `u64`:
//!
//! ```text
//! bits  0..32   symbols, 8 bits each (codes ≤ 8 bits ⇒ alphabet ≤ 256)
//! bits 32..48   end positions, 4 bits each (start ≤ 7, len ≤ 8 ⇒ end ≤ 15)
//! bits 48..51   chain length n (0..=4)
//! bit  51       bad: the chain stopped on an invalid prefix before bit 8
//! ```
//!
//! The table holds `2^15` entries (256 KiB). It is built lazily, once per
//! [`Codebook`], and shared by all clones of that book (see
//! [`Codebook::segment_lut`]).

use crate::huffman::Codebook;

/// Window width each sub-decoder sees: 8 own bits + 7 overlap bits.
pub const WINDOW_BITS: u32 = 15;
/// Bits owned by one decoder segment.
pub const SEGMENT_BITS: usize = 8;
/// Maximum codes starting inside one segment (min code length 2).
pub const MAX_CHAIN: usize = 4;

const SYM_SHIFT: u32 = 0;
const END_SHIFT: u32 = 32;
const COUNT_SHIFT: u32 = 48;
const BAD_BIT: u32 = 51;

/// One packed decode chain — see the module docs for the bit layout.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChainEntry(u64);

impl ChainEntry {
    /// Number of symbols in the chain (0..=4).
    #[inline]
    pub fn count(self) -> usize {
        ((self.0 >> COUNT_SHIFT) & 0x7) as usize
    }

    /// The `i`-th decoded symbol.
    #[inline]
    pub fn sym(self, i: usize) -> u16 {
        debug_assert!(i < self.count());
        ((self.0 >> (SYM_SHIFT + 8 * i as u32)) & 0xFF) as u16
    }

    /// Window-relative end bit of the `i`-th code (its start is the
    /// previous code's end, or 0).
    #[inline]
    pub fn end(self, i: usize) -> usize {
        debug_assert!(i < self.count());
        ((self.0 >> (END_SHIFT + 4 * i as u32)) & 0xF) as usize
    }

    /// Window-relative start bit of the `i`-th code.
    #[inline]
    pub fn start(self, i: usize) -> usize {
        if i == 0 {
            0
        } else {
            self.end(i - 1)
        }
    }

    /// `true` if the chain stopped on an invalid prefix before consuming
    /// the segment's own 8 bits. The invalid code would have started at
    /// [`ChainEntry::bad_pos`].
    #[inline]
    pub fn bad(self) -> bool {
        (self.0 >> BAD_BIT) & 1 == 1
    }

    /// Window-relative start of the invalid code (meaningful iff
    /// [`ChainEntry::bad`]).
    #[inline]
    pub fn bad_pos(self) -> usize {
        let n = self.count();
        if n == 0 {
            0
        } else {
            self.end(n - 1)
        }
    }
}

/// The full `2^15`-entry sub-decoder table for one codebook.
pub struct SegmentLut {
    entries: Box<[ChainEntry]>,
}

impl SegmentLut {
    /// Builds the table by chain-decoding every possible window value.
    ///
    /// # Panics
    ///
    /// Panics unless every code length is in `2..=8` — the constraint that
    /// bounds chains to four codes and windows to 15 bits.
    pub fn build(book: &Codebook) -> SegmentLut {
        assert!(
            book.lengths().iter().all(|&l| (2..=8).contains(&l)),
            "segment LUT requires 2..=8-bit codes (got lengths {:?})",
            book.lengths()
        );
        let max_len = book.max_len() as u32;
        let mask = (1u64 << max_len) - 1;
        // One decoder view for all 2^15 chain walks (the table-cache
        // fetch is per build, not per probe).
        let dec = book.symbol_decoder();
        let mut entries = vec![ChainEntry(0); 1usize << WINDOW_BITS].into_boxed_slice();
        for (window, entry) in entries.iter_mut().enumerate() {
            let mut packed = 0u64;
            let mut pos = 0usize;
            let mut count = 0u64;
            let mut bad = false;
            while pos < SEGMENT_BITS {
                debug_assert!(count < MAX_CHAIN as u64, "min length 2 bounds chains to 4");
                let idx = ((window as u64) >> (WINDOW_BITS - pos as u32 - max_len)) & mask;
                match dec.decode_window(idx) {
                    Some((sym, len)) => {
                        let end = pos + len as usize;
                        packed |= (sym as u64) << (SYM_SHIFT + 8 * count as u32);
                        packed |= (end as u64) << (END_SHIFT + 4 * count as u32);
                        count += 1;
                        pos = end;
                    }
                    None => {
                        bad = true;
                        break;
                    }
                }
            }
            packed |= count << COUNT_SHIFT;
            if bad {
                packed |= 1 << BAD_BIT;
            }
            *entry = ChainEntry(packed);
        }
        SegmentLut { entries }
    }

    /// Looks up the chain for a 15-bit window value.
    #[inline]
    pub fn entry(&self, window: u64) -> ChainEntry {
        self.entries[(window & ((1u64 << WINDOW_BITS) - 1)) as usize]
    }

    /// Table memory footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<ChainEntry>()
    }
}

impl std::fmt::Debug for SegmentLut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SegmentLut({} entries)", self.entries.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecco_bits::{BitWriter, Block64};
    use proptest::prelude::*;

    /// Reference chain decode straight off the public `decode_window` API.
    fn reference_chain(book: &Codebook, window: u64) -> (Vec<(u16, usize)>, bool) {
        let dec = book.symbol_decoder();
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos < SEGMENT_BITS {
            let idx = (window >> (WINDOW_BITS as usize - pos - book.max_len() as usize))
                & ((1 << book.max_len()) - 1);
            match dec.decode_window(idx) {
                Some((sym, len)) => {
                    pos += len as usize;
                    out.push((sym, pos));
                }
                None => return (out, true),
            }
        }
        (out, false)
    }

    #[test]
    fn chains_match_reference_for_uniform_book() {
        let book = Codebook::from_frequencies(&[1u64; 16], 4, 4).unwrap();
        let lut = SegmentLut::build(&book);
        for window in [0u64, 0x7FFF, 0x1234, 0x5A5A, 0x7ABC] {
            let e = lut.entry(window);
            let (expect, bad) = reference_chain(&book, window);
            assert_eq!(e.count(), expect.len());
            assert_eq!(e.bad(), bad);
            for (i, &(sym, end)) in expect.iter().enumerate() {
                assert_eq!(e.sym(i), sym);
                assert_eq!(e.end(i), end);
            }
        }
    }

    #[test]
    fn encoded_stream_survives_one_probe() {
        let freqs = [400u64, 210, 96, 60, 31, 17, 9, 5, 3, 2, 1, 1, 1, 1, 1, 30];
        let book = Codebook::from_frequencies(&freqs, 2, 8).unwrap();
        let lut = SegmentLut::build(&book);
        let symbols = [0u16, 1, 0, 0, 2];
        let mut w = BitWriter::new();
        for &s in &symbols {
            book.encode_symbol(&mut w, s);
        }
        let window = Block64::from_writer(w)
            .unwrap()
            .cursor()
            .window(0, WINDOW_BITS);
        let e = lut.entry(window);
        assert!(!e.bad() || e.count() > 0);
        for (i, &sym) in symbols.iter().take(e.count()).enumerate() {
            assert_eq!(e.sym(i), sym, "chain symbol {i}");
        }
    }

    #[test]
    #[should_panic(expected = "2..=8-bit codes")]
    fn rejects_wide_books() {
        let book = Codebook::from_frequencies(&(1u64..=64).collect::<Vec<_>>(), 1, 15).unwrap();
        SegmentLut::build(&book);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn every_window_matches_reference(freqs in prop::collection::vec(0u64..1000, 2..=16), probe in prop::collection::vec(0u64..(1 << 15), 64)) {
            let book = Codebook::from_frequencies(&freqs, 2, 8).unwrap();
            let lut = SegmentLut::build(&book);
            for &window in &probe {
                let e = lut.entry(window);
                let (expect, bad) = reference_chain(&book, window);
                prop_assert_eq!(e.count(), expect.len());
                prop_assert_eq!(e.bad(), bad);
                for (i, &(sym, end)) in expect.iter().enumerate() {
                    prop_assert_eq!(e.sym(i), sym);
                    prop_assert_eq!(e.end(i), end);
                    prop_assert_eq!(e.start(i), if i == 0 { 0 } else { expect[i - 1].1 });
                }
                if bad {
                    prop_assert_eq!(e.bad_pos(), expect.last().map_or(0, |&(_, p)| p));
                }
            }
        }
    }
}
