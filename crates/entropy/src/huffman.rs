//! Length-limited canonical Huffman codes.
//!
//! Ecco constrains its data codes to 2..=8 bits (so each of the 64 parallel
//! decoder segments, which owns 8 bits, decodes between one and four whole
//! symbols) and its pattern-id code to at most 15 bits. Optimal lengths
//! under a cap are produced by the **package-merge** algorithm
//! (Larmore & Hirschberg, 1990); codes are then assigned canonically so a
//! codebook is fully described by its length vector.

use std::fmt;
use std::sync::{Arc, OnceLock};

use ecco_bits::{BitWriter, BlockCursor, BLOCK_BITS};

use crate::lut::SegmentLut;

/// Errors from codebook construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodebookError {
    /// No symbols were supplied.
    Empty,
    /// More symbols than `2^max_len` cannot all receive codes.
    TooManySymbols {
        /// Number of symbols requested.
        symbols: usize,
        /// The maximum code length that made this impossible.
        max_len: u8,
    },
    /// `min_len > max_len` or `max_len > 15`.
    BadLengthBounds {
        /// Requested minimum code length.
        min_len: u8,
        /// Requested maximum code length.
        max_len: u8,
    },
    /// A supplied length vector violates the Kraft inequality.
    KraftViolation,
}

impl fmt::Display for CodebookError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodebookError::Empty => write!(f, "codebook needs at least one symbol"),
            CodebookError::TooManySymbols { symbols, max_len } => write!(
                f,
                "{symbols} symbols cannot be coded with max length {max_len}"
            ),
            CodebookError::BadLengthBounds { min_len, max_len } => {
                write!(f, "invalid length bounds [{min_len}, {max_len}]")
            }
            CodebookError::KraftViolation => write!(f, "lengths violate the Kraft inequality"),
        }
    }
}

impl std::error::Error for CodebookError {}

/// Optimal code lengths under a maximum length, via package-merge.
///
/// Zero weights are treated as weight 1 so every symbol stays encodable
/// (any index can appear in a group at run time even if the calibration set
/// never produced it).
fn package_merge(weights: &[u64], max_len: u8) -> Vec<u8> {
    let n = weights.len();
    debug_assert!(n >= 1 && n <= (1usize << max_len));
    if n == 1 {
        return vec![1];
    }

    let adjusted: Vec<u64> = weights.iter().map(|&w| w.max(1)).collect();
    let mut singletons: Vec<(u64, Vec<u16>)> =
        (0..n).map(|i| (adjusted[i], vec![i as u16])).collect();
    singletons.sort_by_key(|p| p.0);

    let mut packages = singletons.clone();
    for _ in 1..max_len {
        // Pair adjacent packages; an unpaired trailing package is dropped.
        let mut merged: Vec<(u64, Vec<u16>)> = Vec::with_capacity(packages.len() / 2);
        for pair in packages.chunks_exact(2) {
            let mut items = pair[0].1.clone();
            items.extend_from_slice(&pair[1].1);
            merged.push((pair[0].0 + pair[1].0, items));
        }
        // Merge the new packages with the singletons, keeping weight order.
        let mut next = Vec::with_capacity(merged.len() + n);
        let (mut i, mut j) = (0, 0);
        while i < singletons.len() || j < merged.len() {
            let take_single =
                j >= merged.len() || (i < singletons.len() && singletons[i].0 <= merged[j].0);
            if take_single {
                next.push(singletons[i].clone());
                i += 1;
            } else {
                next.push(std::mem::take(&mut merged[j]));
                j += 1;
            }
        }
        packages = next;
    }

    // The first 2n-2 packages of the final list define the code lengths.
    let mut lengths = vec![0u8; n];
    for (_, items) in packages.iter().take(2 * n - 2) {
        for &it in items {
            lengths[it as usize] += 1;
        }
    }
    lengths
}

/// The full `(symbol, length)` decode table over `max_len`-bit windows,
/// with length 0 marking an invalid prefix.
fn build_decode_lut(lengths: &[u8], codes: &[u16], max_len: u8) -> Vec<(u16, u8)> {
    let mut lut = vec![(0u16, 0u8); 1 << max_len];
    for (sym, (&len, &c)) in lengths.iter().zip(codes).enumerate() {
        let shift = (max_len - len) as u32;
        let base = (c as usize) << shift;
        for fill in 0..(1usize << shift) {
            lut[base + fill] = (sym as u16, len);
        }
    }
    lut
}

/// A canonical prefix codebook over symbols `0..num_symbols`.
///
/// Codes are MSB-first; decoding uses a full lookup table over `max_len`
/// bits, the software analogue of the paper's sub-decoder combinational
/// logic.
///
/// Every book is built by [`Codebook::from_lengths`], which checks the
/// length vector once and derives the rest from it: the canonical codes,
/// `max_len` and the decode table. A book is therefore always coherent,
/// and a wire format that stores codes beside the lengths compares them
/// with the derived ones instead of trusting them.
///
/// # Examples
///
/// ```
/// use ecco_entropy::Codebook;
///
/// let book = Codebook::from_frequencies(&[10, 5, 2, 1], 1, 4).unwrap();
/// assert!(book.code_len(0) <= book.code_len(3));
/// assert!(book.kraft_sum() <= 1.0 + 1e-12);
/// ```
#[derive(Clone)]
pub struct Codebook {
    lengths: Vec<u8>,
    codes: Vec<u16>,
    max_len: u8,
    /// Lookup table indexed by a `max_len`-bit window: `(symbol, length)`,
    /// with length 0 marking an invalid prefix.
    lut: Vec<(u16, u8)>,
    /// The parallel-decoder chain table (256 KiB): built on first use,
    /// since only the hardware model reads it, and shared across clones
    /// of this book via the `Arc`. See [`Codebook::segment_lut`].
    seg_lut: OnceLock<Arc<SegmentLut>>,
}

impl PartialEq for Codebook {
    fn eq(&self, other: &Codebook) -> bool {
        // The codes and the decode tables are fully determined by the
        // length vector.
        self.lengths == other.lengths
    }
}

impl Eq for Codebook {}

impl Codebook {
    /// Builds an optimal canonical code for `freqs` with code lengths in
    /// `min_len..=max_len`.
    ///
    /// Lengths come from package-merge (optimal under `max_len`); symbols
    /// that would get shorter codes than `min_len` are lengthened, which
    /// keeps the code prefix-free (the Kraft sum only decreases).
    ///
    /// # Errors
    ///
    /// Returns an error for an empty alphabet, impossible bounds, or more
    /// symbols than `2^max_len`.
    pub fn from_frequencies(
        freqs: &[u64],
        min_len: u8,
        max_len: u8,
    ) -> Result<Codebook, CodebookError> {
        if freqs.is_empty() {
            return Err(CodebookError::Empty);
        }
        if min_len > max_len || max_len > 15 || min_len == 0 {
            return Err(CodebookError::BadLengthBounds { min_len, max_len });
        }
        if freqs.len() > (1usize << max_len) {
            return Err(CodebookError::TooManySymbols {
                symbols: freqs.len(),
                max_len,
            });
        }
        let mut lengths = package_merge(freqs, max_len);
        for l in &mut lengths {
            *l = (*l).max(min_len);
        }
        Codebook::from_lengths(&lengths)
    }

    /// Builds a canonical codebook from explicit per-symbol code lengths.
    ///
    /// # Errors
    ///
    /// Returns [`CodebookError::KraftViolation`] if `Σ 2^-len > 1`, or
    /// bounds errors for zero/oversized lengths.
    pub fn from_lengths(lengths: &[u8]) -> Result<Codebook, CodebookError> {
        if lengths.is_empty() {
            return Err(CodebookError::Empty);
        }
        let max_len = *lengths.iter().max().expect("non-empty");
        if max_len == 0 || max_len > 15 {
            return Err(CodebookError::BadLengthBounds {
                min_len: 0,
                max_len,
            });
        }
        let kraft: u64 = lengths.iter().map(|&l| 1u64 << (max_len - l) as u32).sum();
        if kraft > 1u64 << max_len {
            return Err(CodebookError::KraftViolation);
        }

        // Canonical assignment: symbols sorted by (length, index).
        let mut order: Vec<usize> = (0..lengths.len()).collect();
        order.sort_by_key(|&i| (lengths[i], i));
        let mut codes = vec![0u16; lengths.len()];
        let mut code = 0u32;
        let mut prev_len = 0u8;
        for &sym in &order {
            let len = lengths[sym];
            code <<= (len - prev_len) as u32;
            codes[sym] = code as u16;
            code += 1;
            prev_len = len;
        }

        Ok(Codebook {
            lengths: lengths.to_vec(),
            lut: build_decode_lut(lengths, &codes, max_len),
            codes,
            max_len,
            seg_lut: OnceLock::new(),
        })
    }

    /// The parallel-decoder chain table for this book, built on first use
    /// and shared (via `Arc`) by every clone made after that.
    ///
    /// # Panics
    ///
    /// Panics unless all code lengths are in `2..=8` (the parallel-decode
    /// constraint); see [`SegmentLut::build`].
    pub fn segment_lut(&self) -> &SegmentLut {
        self.seg_lut
            .get_or_init(|| Arc::new(SegmentLut::build(self)))
    }

    /// Number of symbols in the alphabet.
    pub fn num_symbols(&self) -> usize {
        self.lengths.len()
    }

    /// Code length in bits for `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` is out of range.
    #[inline]
    pub fn code_len(&self, sym: u16) -> u8 {
        self.lengths[sym as usize]
    }

    /// The longest code length in this book.
    pub fn max_len(&self) -> u8 {
        self.max_len
    }

    /// The per-symbol length vector (canonical codes are fully determined
    /// by it).
    pub fn lengths(&self) -> &[u8] {
        &self.lengths
    }

    /// The canonical code value for `sym` (MSB-first, `code_len` bits).
    #[inline]
    pub fn code(&self, sym: u16) -> u16 {
        self.codes[sym as usize]
    }

    /// The per-symbol canonical code vector, aligned with
    /// [`Codebook::lengths`]. Wire formats store it beside the lengths
    /// and `max_len`, and ingest refuses a book whose stored codes differ
    /// from these.
    pub fn codes(&self) -> &[u16] {
        &self.codes
    }

    /// Total encoded length in bits of a symbol sequence.
    pub fn encoded_len(&self, symbols: &[u16]) -> usize {
        symbols
            .iter()
            .map(|&s| self.lengths[s as usize] as usize)
            .sum()
    }

    /// Appends the code for `sym` to `writer`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` is out of range.
    #[inline]
    pub fn encode_symbol(&self, writer: &mut BitWriter, sym: u16) {
        let len = self.lengths[sym as usize];
        writer.write_bits(self.codes[sym as usize] as u64, len as u32);
    }

    /// The book's decoder: a borrowed view of its decode table, which
    /// decodes per symbol with a plain slice index.
    pub fn symbol_decoder(&self) -> SymbolDecoder<'_> {
        SymbolDecoder {
            lut: &self.lut,
            max_len: self.max_len,
        }
    }

    /// The Kraft sum `Σ 2^-len` (≤ 1 for any prefix-free code).
    pub fn kraft_sum(&self) -> f64 {
        self.lengths.iter().map(|&l| 2f64.powi(-(l as i32))).sum()
    }

    /// Expected code length in bits under the frequency vector `freqs`.
    pub fn expected_len(&self, freqs: &[u64]) -> f64 {
        let total: u64 = freqs.iter().sum();
        if total == 0 {
            return 0.0;
        }
        freqs
            .iter()
            .zip(&self.lengths)
            .map(|(&f, &l)| f as f64 * l as f64)
            .sum::<f64>()
            / total as f64
    }
}

/// A codebook's decoder over its decode table, created by
/// [`Codebook::symbol_decoder`].
///
/// It reads a block the way the hardware sub-decoders do: peek
/// `max_len` bits, probe the table once, consume the code's length. Two
/// walks share those rules:
///
/// * [`SymbolDecoder::decode_run`], the codec's symbol walk, peeks from a
///   shift register holding one 57-bit [`BlockCursor::window`] and reads
///   a new window only when fewer than `max_len` of its bits are unread;
/// * [`SymbolDecoder::decode_symbol`] cuts one `max_len`-bit window per
///   symbol. It decodes a block header's pattern id, and a loop of it is
///   the oracle every walk is tested against.
#[derive(Clone, Copy, Debug)]
pub struct SymbolDecoder<'a> {
    lut: &'a [(u16, u8)],
    max_len: u8,
}

impl SymbolDecoder<'_> {
    /// Decodes up to `max` symbols from bit `pos` of `cur` on, handing
    /// each to `emit` in stream order, and returns the bit just past the
    /// last one. The symbols and the end bit are exactly those of calling
    /// [`SymbolDecoder::decode_symbol`] until it returns `None` or `max`
    /// symbols have landed: the walk stops at an invalid prefix, before a
    /// code that would end past bit 512, and at bit 512, and the block's
    /// zero fill past bit 512 is probed like any other bits.
    ///
    /// The walk is a shift register: one 57-bit window from `pos`,
    /// left-aligned in a `u64`, yields a `max_len`-bit probe per symbol
    /// and shifts each code out, and a fresh window is read from the new
    /// position once fewer than `max_len` of its bits are unread.
    #[inline]
    pub fn decode_run(
        &self,
        cur: &BlockCursor,
        mut pos: usize,
        max: usize,
        mut emit: impl FnMut(u16),
    ) -> usize {
        /// Bits per refill: the widest window a cursor cuts.
        const REFILL: u32 = 57;
        // Every table entry is at most `max_len` bits long, so a code
        // never runs past the bits its probe saw.
        let width = u32::from(self.max_len);
        let mut decoded = 0;
        while decoded < max && pos < BLOCK_BITS {
            let mut reg = cur.window(pos, REFILL) << (64 - REFILL);
            let mut unread = REFILL;
            while unread >= width && decoded < max {
                let (sym, len) = self.lut[(reg >> (64 - width)) as usize];
                let end = pos + usize::from(len);
                if len == 0 || end > BLOCK_BITS {
                    return pos;
                }
                emit(sym);
                reg <<= len;
                unread -= u32::from(len);
                pos = end;
                decoded += 1;
            }
        }
        pos
    }

    /// Decodes the symbol whose code starts at bit `*pos` of `cur` and
    /// advances `*pos` past it.
    ///
    /// Returns `None`, leaving `*pos` unchanged, when no whole valid code
    /// starts there: an invalid prefix, a code that would end past bit
    /// 512, or `*pos` already at bit 512. That is how a clipped stream
    /// ends — prefix-freeness makes the truncation point unambiguous.
    #[inline]
    pub fn decode_symbol(&self, cur: &BlockCursor, pos: &mut usize) -> Option<u16> {
        if *pos >= BLOCK_BITS {
            return None;
        }
        let (sym, len) = self.decode_window(cur.window(*pos, self.max_len as u32))?;
        let end = *pos + len as usize;
        if end > BLOCK_BITS {
            return None;
        }
        *pos = end;
        Some(sym)
    }

    /// Decodes one symbol from a `max_len`-bit window value (the hardware
    /// sub-decoder primitive). Returns `(symbol, code_len)`, or `None` for
    /// an invalid prefix.
    #[inline]
    pub fn decode_window(&self, window: u64) -> Option<(u16, u8)> {
        let idx = (window & ((1u64 << self.max_len) - 1)) as usize;
        let (sym, len) = self.lut[idx];
        if len == 0 {
            None
        } else {
            Some((sym, len))
        }
    }
}

impl fmt::Debug for Codebook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Codebook({} symbols, lengths {:?})",
            self.lengths.len(),
            self.lengths
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::shannon_entropy;
    use ecco_bits::{Block64, BLOCK_BYTES};
    use proptest::prelude::*;

    /// `symbols` coded under `book` from bit 0 of a zero-filled block.
    fn encoded(book: &Codebook, symbols: &[u16]) -> BlockCursor {
        let mut w = BitWriter::new();
        for &s in symbols {
            book.encode_symbol(&mut w, s);
        }
        Block64::from_writer(w).expect("fits one block").cursor()
    }

    #[test]
    fn lengths_ordered_by_frequency() {
        let freqs = [100u64, 50, 20, 5, 1];
        let book = Codebook::from_frequencies(&freqs, 1, 8).unwrap();
        for w in 0..freqs.len() - 1 {
            assert!(
                book.code_len(w as u16) <= book.code_len((w + 1) as u16),
                "more frequent symbols must not get longer codes"
            );
        }
    }

    #[test]
    fn respects_min_and_max_length() {
        // Extremely skewed: unconstrained Huffman would give a 1-bit code.
        let freqs = [1_000_000u64, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1];
        let book = Codebook::from_frequencies(&freqs, 2, 8).unwrap();
        for s in 0..16 {
            let l = book.code_len(s);
            assert!((2..=8).contains(&l), "symbol {s} got length {l}");
        }
    }

    #[test]
    fn sixteen_symbols_fit_in_four_bits() {
        let freqs = [1u64; 16];
        let book = Codebook::from_frequencies(&freqs, 2, 4).unwrap();
        assert!(book.lengths().iter().all(|&l| l == 4));
    }

    #[test]
    fn kraft_holds() {
        let freqs = [7u64, 6, 5, 4, 3, 2, 1, 1, 9, 22, 3, 1, 1, 5, 8, 100];
        let book = Codebook::from_frequencies(&freqs, 2, 8).unwrap();
        assert!(book.kraft_sum() <= 1.0 + 1e-12);
    }

    #[test]
    fn package_merge_is_optimal_for_known_case() {
        // Classic example: weights 1,1,2,3,5 with max 3 bits.
        let lengths = package_merge(&[1, 1, 2, 3, 5], 3);
        let cost: u64 = [1u64, 1, 2, 3, 5]
            .iter()
            .zip(&lengths)
            .map(|(&w, &l)| w * l as u64)
            .sum();
        // Optimal length-3-limited cost for these weights is 26
        // (lengths [3,3,2,2,2]; the unconstrained optimum is 25).
        assert_eq!(cost, 26, "lengths {lengths:?}");
        assert!(lengths.iter().all(|&l| l <= 3));
    }

    #[test]
    fn expected_length_close_to_entropy() {
        let freqs = [400u64, 200, 100, 50, 25, 12, 6, 3, 2, 1, 1, 1, 1, 1, 1, 30];
        let book = Codebook::from_frequencies(&freqs, 1, 15).unwrap();
        let h = shannon_entropy(&freqs);
        let el = book.expected_len(&freqs);
        assert!(el >= h - 1e-9, "expected length below entropy: {el} < {h}");
        assert!(
            el <= h + 1.0,
            "Huffman within 1 bit of entropy: {el} vs {h}"
        );
    }

    #[test]
    fn error_cases() {
        assert_eq!(
            Codebook::from_frequencies(&[], 2, 8),
            Err(CodebookError::Empty)
        );
        assert!(matches!(
            Codebook::from_frequencies(&[1; 64], 2, 5),
            Err(CodebookError::TooManySymbols { .. })
        ));
        assert!(matches!(
            Codebook::from_frequencies(&[1, 1], 9, 8),
            Err(CodebookError::BadLengthBounds { .. })
        ));
        // Lengths that form no prefix code: three 1-bit codes and a
        // zero-length code beside others violate Kraft; all-zero lengths
        // and codes past 15 bits are out of bounds.
        for lengths in [&[1, 1, 1][..], &[0, 2, 2, 2]] {
            assert_eq!(
                Codebook::from_lengths(lengths),
                Err(CodebookError::KraftViolation)
            );
        }
        for lengths in [&[0; 16][..], &[16, 16]] {
            assert!(matches!(
                Codebook::from_lengths(lengths),
                Err(CodebookError::BadLengthBounds { .. })
            ));
        }
    }

    /// The oracle: [`SymbolDecoder::decode_symbol`] looped until it
    /// returns `None` or `max` symbols have landed.
    fn symbol_loop(
        dec: &SymbolDecoder,
        cur: &BlockCursor,
        mut pos: usize,
        max: usize,
    ) -> (Vec<u16>, usize) {
        let mut symbols = Vec::new();
        while symbols.len() < max {
            match dec.decode_symbol(cur, &mut pos) {
                Some(s) => symbols.push(s),
                None => break,
            }
        }
        (symbols, pos)
    }

    /// [`SymbolDecoder::decode_run`]'s symbols and end bit.
    fn run_walk(
        dec: &SymbolDecoder,
        cur: &BlockCursor,
        pos: usize,
        max: usize,
    ) -> (Vec<u16>, usize) {
        let mut symbols = Vec::new();
        let end = dec.decode_run(cur, pos, max, |s| symbols.push(s));
        (symbols, end)
    }

    #[test]
    fn decode_stops_at_the_block_end() {
        // A uniform 4-bit book reads every 4-bit window as a valid code,
        // so only the block end can stop it.
        let book = Codebook::from_lengths(&[4; 16]).unwrap();
        let dec = book.symbol_decoder();
        let cur = Block64::from_bytes([0xA5; BLOCK_BYTES]).cursor();
        // The last whole code ends exactly at bit 512.
        let mut pos = BLOCK_BITS - 4;
        assert_eq!(dec.decode_symbol(&cur, &mut pos), Some(0x5));
        assert_eq!(pos, BLOCK_BITS);
        // A walk already at bit 512 decodes nothing and stays there.
        assert_eq!(dec.decode_symbol(&cur, &mut pos), None);
        assert_eq!(pos, BLOCK_BITS);
        // So does every code crossing bit 512.
        for start in BLOCK_BITS - 3..BLOCK_BITS {
            let mut pos = start;
            assert_eq!(dec.decode_symbol(&cur, &mut pos), None, "start {start}");
            assert_eq!(pos, start);
        }

        // The run walk stops at the same places: a run from bit 0 takes
        // all 128 codes and ends at bit 512, one from inside the last
        // code takes nothing, and one at bit 512 stays there.
        let (symbols, end) = run_walk(&dec, &cur, 0, usize::MAX);
        assert_eq!(symbols.len(), BLOCK_BITS / 4);
        assert!(symbols.chunks(2).all(|p| p == [0xA, 0x5]));
        assert_eq!(end, BLOCK_BITS);
        assert_eq!(
            run_walk(&dec, &cur, BLOCK_BITS - 4, 9),
            (vec![0x5], BLOCK_BITS)
        );
        for start in BLOCK_BITS - 3..=BLOCK_BITS {
            assert_eq!(
                run_walk(&dec, &cur, start, 9),
                (vec![], start),
                "start {start}"
            );
        }
    }

    proptest! {
        #[test]
        fn roundtrip_random_streams(
            freqs in prop::collection::vec(0u64..1000, 2..=16),
            syms in prop::collection::vec(0u16..16, 0..200),
        ) {
            let n = freqs.len() as u16;
            let book = Codebook::from_frequencies(&freqs, 2, 8).unwrap();
            // Only the symbols that fit in one block.
            let mut bits = 0;
            let symbols: Vec<u16> = syms
                .iter()
                .map(|&s| s % n)
                .take_while(|&s| {
                    bits += book.code_len(s) as usize;
                    bits <= BLOCK_BITS
                })
                .collect();
            let cur = encoded(&book, &symbols);
            let dec = book.symbol_decoder();
            let mut pos = 0;
            for &s in &symbols {
                prop_assert_eq!(dec.decode_symbol(&cur, &mut pos), Some(s));
            }
            prop_assert_eq!(pos, book.encoded_len(&symbols));
        }

        #[test]
        fn codes_are_prefix_free(freqs in prop::collection::vec(0u64..100_000, 2..=16)) {
            let book = Codebook::from_frequencies(&freqs, 2, 8).unwrap();
            let n = book.num_symbols();
            for a in 0..n {
                for b in 0..n {
                    if a == b { continue; }
                    let (la, lb) = (book.code_len(a as u16), book.code_len(b as u16));
                    if la <= lb {
                        let prefix = book.code(b as u16) >> (lb - la) as u32;
                        prop_assert!(
                            prefix != book.code(a as u16),
                            "code {a} is a prefix of {b}"
                        );
                    }
                }
            }
        }

        #[test]
        fn pattern_id_code_max15(freqs in prop::collection::vec(0u64..1000, 2..=64)) {
            // The ID_KP field uses 1..=15-bit codes over up to 64 patterns.
            let book = Codebook::from_frequencies(&freqs, 1, 15).unwrap();
            prop_assert!(book.lengths().iter().all(|&l| (1..=15).contains(&l)));
            prop_assert!(book.kraft_sum() <= 1.0 + 1e-12);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// The run walk against the `decode_symbol` loop: the same
        /// symbols and the same end bit, on fuzzed 2..=8-bit data books
        /// and 1..=15-bit books like the pattern-id code; over raw blocks
        /// and over streams coded from the start bit and clipped at bit
        /// 512; from every start bit, for up to 160 symbols.
        #[test]
        fn run_walk_matches_symbol_loop(
            data_book in any::<bool>(),
            freqs in prop::collection::vec(0u64..1000, 2..=64),
            raw in prop::collection::vec(any::<u8>(), BLOCK_BYTES),
            coded in any::<bool>(),
            syms in prop::collection::vec(any::<u16>(), 0..300),
            start in 0usize..BLOCK_BITS,
            max in 0usize..=160,
        ) {
            let book = if data_book {
                Codebook::from_frequencies(&freqs[..freqs.len().min(16)], 2, 8).unwrap()
            } else {
                Codebook::from_frequencies(&freqs, 1, 15).unwrap()
            };
            let mut bytes = [0u8; BLOCK_BYTES];
            bytes.copy_from_slice(&raw);
            if coded {
                // Raw bits up to `start`, then codes, the last one cut
                // at bit 512 when it does not fit, then zero fill.
                let mut w = BitWriter::new();
                for i in 0..start {
                    w.write_bits(u64::from(bytes[i / 8] >> (7 - i % 8) & 1), 1);
                }
                for &s in &syms {
                    let s = s % book.num_symbols() as u16;
                    let (code, len) = (book.code(s) as u64, book.code_len(s) as usize);
                    let room = BLOCK_BITS - w.bit_len();
                    if len > room {
                        if room > 0 {
                            w.write_bits(code >> (len - room), room as u32);
                        }
                        break;
                    }
                    w.write_bits(code, len as u32);
                }
                bytes = *Block64::from_writer(w).expect("fits one block").as_bytes();
            }
            let cur = Block64::from_bytes(bytes).cursor();
            let dec = book.symbol_decoder();
            prop_assert_eq!(run_walk(&dec, &cur, start, max), symbol_loop(&dec, &cur, start, max));
        }
    }
}
