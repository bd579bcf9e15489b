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

/// Bits per pair-table probe.
const PAIR_BITS: u32 = 9;

/// Entries of a pair table, one per [`PAIR_BITS`]-bit probe.
const PAIR_ENTRIES: usize = 1 << PAIR_BITS;

/// The pair table of a data book (at most 16 symbols, codes of at most 8
/// bits): for every [`PAIR_BITS`]-bit probe, the whole codes it starts
/// with, at most two, packed as `sym0 | sym1 << 4 | count << 8 | bits <<
/// 12`. `count` 0 marks a probe that starts with an invalid prefix, and
/// an entry ends before any code that does not fit in the probe; `bits`
/// is the length of the entry's codes together, and an absent symbol is
/// 0. Each entry takes at most two lookups in `lut`, the book's
/// single-symbol table over `max_len` bits.
fn build_pair_table(lut: &[(u16, u8)], max_len: u8) -> Box<[u16; PAIR_ENTRIES]> {
    let shift = PAIR_BITS - u32::from(max_len);
    let mut pairs = Box::new([0u16; PAIR_ENTRIES]);
    for (probe, entry) in pairs.iter_mut().enumerate() {
        let (sym0, len0) = lut[probe >> shift];
        if len0 == 0 {
            continue;
        }
        let rest = (probe << len0) & (PAIR_ENTRIES - 1);
        let (sym1, len1) = lut[rest >> shift];
        let bits = u32::from(len0) + u32::from(len1);
        *entry = if len1 != 0 && bits <= PAIR_BITS {
            sym0 | sym1 << 4 | 2 << 8 | (bits as u16) << 12
        } else {
            sym0 | 1 << 8 | u16::from(len0) << 12
        };
    }
    pairs
}

/// A canonical prefix codebook over symbols `0..num_symbols`.
///
/// Codes are MSB-first; decoding uses a full lookup table over `max_len`
/// bits, the software analogue of the paper's sub-decoder combinational
/// logic. A book inside the data envelope — at most 16 symbols, codes of
/// at most 8 bits, as `ecco_core::TensorMetadata::from_parts` requires of
/// every data book — also gets a 1 KiB pair table: 512 `u16` entries,
/// one per 9-bit probe, each holding the up to two whole codes the probe
/// starts with, so [`SymbolDecoder::decode_values`] resolves two codes
/// per probe. Other books (the pattern-id code) have no pair table.
///
/// Every book is built by [`Codebook::from_lengths`], which checks the
/// length vector once and derives the rest from it: the canonical codes,
/// `max_len` and the decode tables. A book is therefore always coherent,
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
    /// The pair table, for books inside the data envelope only.
    pairs: Option<Box<[u16; PAIR_ENTRIES]>>,
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

        let lut = build_decode_lut(lengths, &codes, max_len);
        let pairs = (lengths.len() <= 16 && max_len <= 8).then(|| build_pair_table(&lut, max_len));
        Ok(Codebook {
            lengths: lengths.to_vec(),
            lut,
            pairs,
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

    /// The book's decoder: a borrowed view of its decode tables, which
    /// decodes with plain slice indices.
    pub fn symbol_decoder(&self) -> SymbolDecoder<'_> {
        SymbolDecoder {
            lut: &self.lut,
            pairs: self.pairs.as_deref(),
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

/// A codebook's decoder over its decode tables, created by
/// [`Codebook::symbol_decoder`].
///
/// It reads a block the way the hardware sub-decoders do: peek a few
/// bits, probe a table once, consume the codes the entry names. Three
/// public entry points share those rules:
///
/// * [`SymbolDecoder::decode_values`], the codec's symbol walk, peeks
///   from a shift register holding one 57-bit [`BlockCursor::window`]
///   and resolves up to two codes per probe from the book's pair table
///   (data books only: at most 16 symbols, codes of at most 8 bits; 512
///   `u16` entries, 1 KiB per book), one code per probe near the block
///   end and for books without one;
/// * [`SymbolDecoder::decode_values_pair`] runs that walk on two blocks
///   at once, each under its own book, so the two chains of dependent
///   probes overlap; each block's result is exactly its
///   `decode_values` walk's;
/// * [`SymbolDecoder::decode_symbol`] cuts one `max_len`-bit window per
///   symbol. It decodes a block header's pattern id, and a loop of it is
///   the oracle every walk is tested against.
#[derive(Clone, Copy, Debug)]
pub struct SymbolDecoder<'a> {
    lut: &'a [(u16, u8)],
    pairs: Option<&'a [u16; PAIR_ENTRIES]>,
    max_len: u8,
}

/// Bits per shift-register refill: the widest window a cursor cuts.
const REFILL: u32 = 57;

impl SymbolDecoder<'_> {
    /// Decodes up to `out.len()` symbols from bit `pos` of `cur` on,
    /// storing `value(symbol)` of the `i`-th in `out[i]`, and returns the
    /// bit just past the last code and the number of symbols decoded.
    /// The symbols and the end bit are exactly those of calling
    /// [`SymbolDecoder::decode_symbol`] until it returns `None` or
    /// `out.len()` symbols have landed: the walk stops at an invalid
    /// prefix, before a code that would end past bit 512, and at bit 512.
    /// Slots of `out` past the decoded count may be overwritten.
    ///
    /// The walk is a shift register: one 57-bit window from `pos`,
    /// left-aligned in a `u64`, feeds up to six 9-bit probes into the
    /// book's pair table, and a fresh window is read from where they
    /// left off. Each probe writes both of its entry's values, advances
    /// the output by the entry's count and shifts the entry's codes out.
    /// It runs while two or more symbols are wanted and the probe lies
    /// inside the block, so every code it resolves ends by bit 512; the
    /// last codes go one per probe, under the same rules. A book without
    /// a pair table decodes one code per probe throughout.
    ///
    /// # Panics
    ///
    /// Panics if `value` does, e.g. on a symbol past its table.
    #[inline]
    pub fn decode_values<T>(
        &self,
        cur: &BlockCursor,
        mut pos: usize,
        value: impl Fn(u16) -> T,
        out: &mut [T],
    ) -> (usize, usize) {
        const PROBE: usize = PAIR_BITS as usize;
        let max = out.len();
        let mut n = 0;
        if let Some(pairs) = self.pairs {
            while n + 2 <= max && pos + PROBE <= BLOCK_BITS {
                let mut reg = cur.window(pos, REFILL) << (64 - REFILL);
                // A probe takes at most 9 bits and two symbols, so these
                // probes fit the register, lie inside the block and write
                // inside `out`. The count is six until the walk nears its
                // end, so the loop has no data-dependent exit. An invalid
                // prefix's entry is 0: it takes no bits, and the probes
                // after it change nothing but slack.
                let probes = ((max - n) / 2).min((BLOCK_BITS - pos) / PROBE).min(6);
                let mut invalid = false;
                for _ in 0..probes {
                    let entry = pairs[(reg >> (64 - PAIR_BITS)) as usize];
                    invalid |= entry == 0;
                    out[n] = value(entry & 0xF);
                    out[n + 1] = value(entry >> 4 & 0xF);
                    n += usize::from(entry >> 8 & 0xF);
                    let bits = entry >> 12;
                    reg <<= bits;
                    pos += usize::from(bits);
                }
                if invalid {
                    return (pos, n);
                }
            }
        }
        let end = self.decode_run(cur, pos, max - n, |sym| {
            out[n] = value(sym);
            n += 1;
        });
        (end, n)
    }

    /// [`SymbolDecoder::decode_values`] on two blocks at once: side 0
    /// walks `cur[0]` from bit `pos[0]` under this decoder into `out[0]`,
    /// side 1 walks `cur[1]` from bit `pos[1]` under `other` into
    /// `out[1]`, and `value(side, symbol)` gives each symbol's value.
    /// Returns each side's end bit and decoded count, which, like the
    /// values, are exactly those of that side's `decode_values` run
    /// alone; slots past a side's count may be overwritten.
    ///
    /// Each probe of a walk waits on the one before it (window, entry,
    /// shift), so one walk leaves the core idle between probes; two
    /// independent walks fill those gaps (Giesen, "Interleaved entropy
    /// coders", arXiv:1402.3392, applied across blocks). Both shift
    /// registers are refilled together, and one loop takes the smaller
    /// of the two sides' probe counts through both pair tables. Once
    /// either side meets an invalid prefix or runs short of room or of
    /// block, each side finishes alone through `decode_values` from
    /// where it stopped. When either book has no pair table, both sides
    /// walk alone.
    ///
    /// # Panics
    ///
    /// Panics if `value` does, e.g. on a symbol past its table.
    #[inline]
    pub fn decode_values_pair<T>(
        &self,
        other: &SymbolDecoder<'_>,
        cur: [&BlockCursor; 2],
        pos: [usize; 2],
        value: impl Fn(usize, u16) -> T,
        out: [&mut [T]; 2],
    ) -> [(usize, usize); 2] {
        const PROBE: usize = PAIR_BITS as usize;
        let [out0, out1] = out;
        let [mut pos0, mut pos1] = pos;
        let (mut n0, mut n1) = (0, 0);
        if let (Some(pairs0), Some(pairs1)) = (self.pairs, other.pairs) {
            let (max0, max1) = (out0.len(), out1.len());
            while n0 + 2 <= max0
                && pos0 + PROBE <= BLOCK_BITS
                && n1 + 2 <= max1
                && pos1 + PROBE <= BLOCK_BITS
            {
                let mut reg0 = cur[0].window(pos0, REFILL) << (64 - REFILL);
                let mut reg1 = cur[1].window(pos1, REFILL) << (64 - REFILL);
                // Each side's count as `decode_values` bounds it, so every
                // probe here is one that walk would make too.
                let probes = ((max0 - n0) / 2)
                    .min((BLOCK_BITS - pos0) / PROBE)
                    .min((max1 - n1) / 2)
                    .min((BLOCK_BITS - pos1) / PROBE)
                    .min(6);
                let mut invalid = false;
                for _ in 0..probes {
                    let e0 = pairs0[(reg0 >> (64 - PAIR_BITS)) as usize];
                    let e1 = pairs1[(reg1 >> (64 - PAIR_BITS)) as usize];
                    invalid |= (e0 == 0) | (e1 == 0);
                    out0[n0] = value(0, e0 & 0xF);
                    out0[n0 + 1] = value(0, e0 >> 4 & 0xF);
                    out1[n1] = value(1, e1 & 0xF);
                    out1[n1 + 1] = value(1, e1 >> 4 & 0xF);
                    n0 += usize::from(e0 >> 8 & 0xF);
                    n1 += usize::from(e1 >> 8 & 0xF);
                    let (bits0, bits1) = (e0 >> 12, e1 >> 12);
                    reg0 <<= bits0;
                    reg1 <<= bits1;
                    pos0 += usize::from(bits0);
                    pos1 += usize::from(bits1);
                }
                if invalid {
                    break;
                }
            }
        }
        let (end0, more0) = self.decode_values(cur[0], pos0, |s| value(0, s), &mut out0[n0..]);
        let (end1, more1) = other.decode_values(cur[1], pos1, |s| value(1, s), &mut out1[n1..]);
        [(end0, n0 + more0), (end1, n1 + more1)]
    }

    /// The one-code-per-probe walk that finishes
    /// [`SymbolDecoder::decode_values`]: its last codes, and every code
    /// of a book without a pair table. Decodes up to `max` symbols from
    /// bit `pos` of `cur` on, handing each to `emit` in stream order, and
    /// returns the bit just past the last one. The symbols and the end
    /// bit are exactly those of calling [`SymbolDecoder::decode_symbol`]
    /// until it returns `None` or `max` symbols have landed, for any book;
    /// the block's zero fill past bit 512 is probed like any other bits.
    ///
    /// The same shift register as `decode_values`, with a `max_len`-bit
    /// probe per symbol into the single-symbol table.
    #[inline]
    fn decode_run(
        &self,
        cur: &BlockCursor,
        mut pos: usize,
        max: usize,
        mut emit: impl FnMut(u16),
    ) -> usize {
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

    /// [`SymbolDecoder::decode_values`]' symbols and end bit: each
    /// symbol's value is the symbol itself.
    fn value_walk(
        dec: &SymbolDecoder,
        cur: &BlockCursor,
        pos: usize,
        max: usize,
    ) -> (Vec<u16>, usize) {
        let mut symbols = vec![u16::MAX; max];
        let (end, n) = dec.decode_values(cur, pos, |s| s, &mut symbols);
        symbols.truncate(n);
        (symbols, end)
    }

    /// A block holding `raw`'s bits up to `start`, then `syms` (each
    /// taken modulo the alphabet) coded under `book`, the last code cut
    /// at bit 512 when it does not fit, then zero fill.
    fn clipped_stream(book: &Codebook, raw: &[u8], start: usize, syms: &[u16]) -> BlockCursor {
        let mut w = BitWriter::new();
        for i in 0..start {
            w.write_bits(u64::from(raw[i / 8] >> (7 - i % 8) & 1), 1);
        }
        for &s in syms {
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
        Block64::from_writer(w).expect("fits one block").cursor()
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

        // So does the value walk, which resolves two codes per probe up
        // to 9 bits before bit 512 and one per probe after that.
        assert_eq!(
            value_walk(&dec, &cur, 0, BLOCK_BITS / 4),
            (symbols, BLOCK_BITS)
        );
        for start in BLOCK_BITS - 12..BLOCK_BITS - 4 {
            let (symbols, end) = value_walk(&dec, &cur, start, 9);
            assert_eq!(symbols.len(), (BLOCK_BITS - start) / 4, "start {start}");
            assert_eq!(end, start + symbols.len() * 4, "start {start}");
        }
        assert_eq!(
            value_walk(&dec, &cur, BLOCK_BITS - 4, 9),
            (vec![0x5], BLOCK_BITS)
        );
        for start in BLOCK_BITS - 3..=BLOCK_BITS {
            assert_eq!(
                value_walk(&dec, &cur, start, 9),
                (vec![], start),
                "start {start}"
            );
        }
    }

    #[test]
    fn only_data_books_get_a_pair_table() {
        let has_pairs = |lengths: &[u8]| Codebook::from_lengths(lengths).unwrap().pairs.is_some();
        assert!(has_pairs(&[4; 16]));
        assert!(has_pairs(&[1]));
        assert!(has_pairs(&[2, 2, 3, 4, 5, 6, 7, 8, 8]));
        // 17 symbols, or a code past 8 bits: the pattern-id code's shape.
        assert!(!has_pairs(&[5; 17]));
        assert!(!has_pairs(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 9]));
        assert!(!has_pairs(&[12; 4096]));
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
            let cur = if coded {
                clipped_stream(&book, &raw, start, &syms)
            } else {
                let mut bytes = [0u8; BLOCK_BYTES];
                bytes.copy_from_slice(&raw);
                Block64::from_bytes(bytes).cursor()
            };
            let dec = book.symbol_decoder();
            prop_assert_eq!(run_walk(&dec, &cur, start, max), symbol_loop(&dec, &cur, start, max));
        }

        /// The value walk against the `decode_symbol` loop: the same
        /// symbols and the same end bit, on fuzzed 2..=8-bit data books of
        /// 2..=16 symbols (incomplete codes included, where lengthening
        /// to 2 bits leaves invalid prefixes) and on 1..=15-bit books of
        /// as many symbols, which have a pair table only when no code
        /// passes 8 bits; over raw blocks and over streams coded from the
        /// start bit and clipped at bit 512; from every start bit, for
        /// every count up to a group's 128 symbols.
        #[test]
        fn value_walk_matches_symbol_loop(
            data_book in any::<bool>(),
            freqs in prop::collection::vec(0u64..1000, 2..=16),
            raw in prop::collection::vec(any::<u8>(), BLOCK_BYTES),
            coded in any::<bool>(),
            syms in prop::collection::vec(any::<u16>(), 0..300),
            start in 0usize..=BLOCK_BITS,
            max in 0usize..=128,
        ) {
            let book = if data_book {
                Codebook::from_frequencies(&freqs, 2, 8).unwrap()
            } else {
                Codebook::from_frequencies(&freqs, 1, 15).unwrap()
            };
            prop_assert_eq!(book.pairs.is_some(), book.max_len() <= 8);
            let cur = if coded {
                clipped_stream(&book, &raw, start, &syms)
            } else {
                let mut bytes = [0u8; BLOCK_BYTES];
                bytes.copy_from_slice(&raw);
                Block64::from_bytes(bytes).cursor()
            };
            let dec = book.symbol_decoder();
            prop_assert_eq!(value_walk(&dec, &cur, start, max), symbol_loop(&dec, &cur, start, max));
        }

        /// The pair walk against two value walks run alone: each side's
        /// values, count and end bit. The two sides are fuzzed apart:
        /// their books (2..=8-bit data books, which have a pair table,
        /// or 1..=15-bit books of up to 64 symbols, which mostly have
        /// none, so the pair walk must fall back), their streams (raw
        /// blocks, streams coded from the start bit and clipped at bit
        /// 512, and streams whose last code ends exactly at bit 512),
        /// their start bits and their counts (0 and 128 included). A side
        /// that starts late is clipped early while the other runs on.
        #[test]
        fn pair_walk_matches_two_value_walks(
            data_books in (any::<bool>(), any::<bool>()),
            freqs in (
                prop::collection::vec(0u64..1000, 2..=64),
                prop::collection::vec(0u64..1000, 2..=64),
            ),
            raw in (
                prop::collection::vec(any::<u8>(), BLOCK_BYTES),
                prop::collection::vec(any::<u8>(), BLOCK_BYTES),
            ),
            streams in (0u8..3, 0u8..3),
            syms in (
                prop::collection::vec(any::<u16>(), 0..300),
                prop::collection::vec(any::<u16>(), 0..300),
            ),
            starts in (
                prop_oneof![Just(0), 0usize..=BLOCK_BITS, BLOCK_BITS - 64..=BLOCK_BITS],
                prop_oneof![Just(0), 0usize..=BLOCK_BITS, BLOCK_BITS - 64..=BLOCK_BITS],
            ),
            maxes in (
                prop_oneof![Just(0), Just(128), 0usize..=128],
                prop_oneof![Just(0), Just(128), 0usize..=128],
            ),
        ) {
            let side = |data_book: bool, freqs: &[u64], raw: &[u8], stream: u8, syms: &[u16], start: usize| {
                let book = if data_book {
                    Codebook::from_frequencies(&freqs[..freqs.len().min(16)], 2, 8).unwrap()
                } else {
                    Codebook::from_frequencies(freqs, 1, 15).unwrap()
                };
                let (cur, start) = match stream {
                    0 => {
                        let mut bytes = [0u8; BLOCK_BYTES];
                        bytes.copy_from_slice(raw);
                        (Block64::from_bytes(bytes).cursor(), start)
                    }
                    1 => (clipped_stream(&book, raw, start, syms), start),
                    _ => {
                        // The codes that fit, started where they end
                        // exactly at bit 512.
                        let n = book.num_symbols() as u16;
                        let mut bits = 0;
                        let fit: Vec<u16> = syms
                            .iter()
                            .map(|&s| s % n)
                            .take_while(|&s| {
                                bits += usize::from(book.code_len(s));
                                bits <= BLOCK_BITS
                            })
                            .collect();
                        let start = BLOCK_BITS - book.encoded_len(&fit);
                        (clipped_stream(&book, raw, start, &fit), start)
                    }
                };
                (book, cur, start)
            };
            let (book0, cur0, start0) =
                side(data_books.0, &freqs.0, &raw.0, streams.0, &syms.0, starts.0);
            let (book1, cur1, start1) =
                side(data_books.1, &freqs.1, &raw.1, streams.1, &syms.1, starts.1);
            let (dec0, dec1) = (book0.symbol_decoder(), book1.symbol_decoder());
            // Each value names its side, so a side mix-up shows.
            let value = |side: usize, s: u16| (side as u16) << 8 | s;
            let mut out0 = vec![u16::MAX; maxes.0];
            let mut out1 = vec![u16::MAX; maxes.1];
            let [(end0, n0), (end1, n1)] = dec0.decode_values_pair(
                &dec1,
                [&cur0, &cur1],
                [start0, start1],
                value,
                [&mut out0[..], &mut out1[..]],
            );
            for (side, (dec, cur, start, max, out, end, n)) in [
                (&dec0, &cur0, start0, maxes.0, &out0, end0, n0),
                (&dec1, &cur1, start1, maxes.1, &out1, end1, n1),
            ]
            .into_iter()
            .enumerate()
            {
                let mut alone = vec![u16::MAX; max];
                let want = dec.decode_values(cur, start, |s| value(side, s), &mut alone);
                prop_assert_eq!((end, n), want, "side {}", side);
                prop_assert_eq!(&out[..n], &alone[..n], "side {}", side);
            }
        }

        /// Every pair-table entry of a fuzzed data book against two
        /// `decode_symbol` steps on its 9-bit probe (zero fill after it):
        /// the steps stop at an invalid prefix and before a code that
        /// ends past the probe. Books of 2..=16 symbols with lengths
        /// 2..=8, incomplete codes included.
        #[test]
        fn pair_table_matches_symbol_chain(
            freqs in prop::collection::vec(0u64..1000, 2..=16),
        ) {
            let book = Codebook::from_frequencies(&freqs, 2, 8).unwrap();
            let pairs = book.pairs.as_deref().expect("a data book");
            let dec = book.symbol_decoder();
            for (probe, &entry) in pairs.iter().enumerate() {
                let mut w = BitWriter::new();
                w.write_bits(probe as u64, PAIR_BITS);
                let cur = Block64::from_writer(w).expect("9 bits").cursor();
                let mut pos = 0;
                let mut chain = Vec::new();
                while chain.len() < 2 {
                    let mut next = pos;
                    match dec.decode_symbol(&cur, &mut next) {
                        Some(s) if next <= PAIR_BITS as usize => chain.push(s),
                        _ => break,
                    }
                    pos = next;
                }
                let want = chain.iter().rev().fold(0, |e, &s| e << 4 | s)
                    | (chain.len() as u16) << 8
                    | (pos as u16) << 12;
                prop_assert_eq!(entry, want, "probe {:09b}", probe);
            }
        }
    }
}
