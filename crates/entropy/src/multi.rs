//! Single-pass multi-codebook encoded-length accumulation.
//!
//! Step 8 of the paper's pipeline picks, for every group, whichever of the
//! pattern's `H` Huffman codebooks produces the shortest total encoding.
//! The obvious implementation runs `H` separate [`Codebook::encoded_len`]
//! sweeps over the 128 group symbols — `H × 128` table loads on the
//! compress-side hot path.
//!
//! This module folds those sweeps into **one** pass: for each alphabet
//! symbol, the code lengths of up to four books are packed side by side as
//! one `[u8; 4]` lane group (widened to 16 bits per lane for overflow
//! headroom) in a single `u64`. Accumulating a symbol then costs one table
//! load and one 64-bit add, updating all four running totals at once —
//! the SWAR analogue of the hardware compressor's four parallel Huffman
//! encoders. Alphabets with more than four books use ⌈H/4⌉ lane words per
//! symbol.
//!
//! [`MultiLenTable`] is that packed table — built once per codebook set
//! and shared (the codec caches one per pattern in its
//! `TensorMetadata`); [`MultiLenTable::best`] is the encoder's book
//! choice and [`MultiLenTable::totals`] the per-book lengths.
//!
//! # Examples
//!
//! ```
//! use ecco_entropy::{Codebook, MultiLenTable};
//!
//! let skewed = Codebook::from_frequencies(&[40, 20, 2, 1], 1, 8).unwrap();
//! let flat = Codebook::from_frequencies(&[1, 1, 1, 1], 1, 8).unwrap();
//! let symbols = [0u16, 0, 1, 0, 3];
//!
//! let table = MultiLenTable::new(&[skewed.clone(), flat.clone()]);
//! let totals = table.totals(&symbols);
//! assert_eq!(totals[0], skewed.encoded_len(&symbols));
//! assert_eq!(totals[1], flat.encoded_len(&symbols));
//! assert_eq!(table.best(&symbols), (0, totals[0]));
//! ```

use crate::huffman::Codebook;

/// Books per packed lane word (four 16-bit lanes in a `u64`).
pub const LANES: usize = 4;

/// Maximum symbols one accumulation may sum without lane overflow:
/// code lengths are at most 15 bits, lanes are 16 bits wide.
pub const MAX_SYMBOLS_PER_SUM: usize = (u16::MAX / 15) as usize;

const LANE_BITS: u32 = 16;
const LANE_MASK: u64 = 0xFFFF;

/// The immutable packed length table: one lane word group per alphabet
/// symbol holding the code lengths of up to four books side by side.
///
/// Building the table costs one pass over the `H` length vectors, so the
/// codec builds it **once per pattern** (cached in `TensorMetadata`,
/// shared by clones) and reuses it for every group encoded against that
/// pattern; [`best`](MultiLenTable::best) is then a pure
/// load-add-per-symbol sweep with no allocation for the codec's `H ≤ 4`
/// case.
#[derive(Clone, Debug)]
pub struct MultiLenTable {
    /// `packed[sym * words + w]`: lengths of books `4w..4w+4` for `sym`.
    packed: Vec<u64>,
    /// Lane words per symbol, `⌈n_books / 4⌉`.
    words: usize,
    n_books: usize,
    num_symbols: usize,
}

impl MultiLenTable {
    /// Packs the length vectors of `books` into lane words.
    ///
    /// # Panics
    ///
    /// Panics if `books` is empty or the books disagree on alphabet size.
    pub fn new(books: &[Codebook]) -> MultiLenTable {
        assert!(!books.is_empty(), "need at least one codebook");
        let num_symbols = books[0].num_symbols();
        assert!(
            books.iter().all(|b| b.num_symbols() == num_symbols),
            "codebooks must share one alphabet"
        );
        let words = books.len().div_ceil(LANES);
        let mut packed = vec![0u64; num_symbols * words];
        for (bi, book) in books.iter().enumerate() {
            let word = bi / LANES;
            let shift = (bi % LANES) as u32 * LANE_BITS;
            for (sym, &len) in book.lengths().iter().enumerate() {
                packed[sym * words + word] |= (len as u64) << shift;
            }
        }
        MultiLenTable {
            packed,
            words,
            n_books: books.len(),
            num_symbols,
        }
    }

    /// Size of the shared alphabet.
    pub fn num_symbols(&self) -> usize {
        self.num_symbols
    }

    /// Total encoded length in bits of `symbols` under every book, in
    /// book order — one pass over `symbols`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range symbols or more than
    /// [`MAX_SYMBOLS_PER_SUM`] symbols.
    pub fn totals(&self, symbols: &[u16]) -> Vec<usize> {
        assert!(
            symbols.len() <= MAX_SYMBOLS_PER_SUM,
            "lane overflow: {} symbols exceed {MAX_SYMBOLS_PER_SUM}",
            symbols.len()
        );
        let mut acc = vec![0u64; self.words];
        for &s in symbols {
            let base = s as usize * self.words;
            for (w, a) in acc.iter_mut().enumerate() {
                *a += self.packed[base + w];
            }
        }
        (0..self.n_books)
            .map(|bi| ((acc[bi / LANES] >> ((bi % LANES) as u32 * LANE_BITS)) & LANE_MASK) as usize)
            .collect()
    }

    /// `(book_index, total_bits)` of the shortest encoding of `symbols`;
    /// ties resolve to the lowest book index, matching `min_by_key` over
    /// sequential [`Codebook::encoded_len`] sweeps. Allocation-free for
    /// up to four books.
    ///
    /// # Panics
    ///
    /// Same conditions as [`MultiLenTable::totals`].
    pub fn best(&self, symbols: &[u16]) -> (usize, usize) {
        assert!(
            symbols.len() <= MAX_SYMBOLS_PER_SUM,
            "lane overflow: {} symbols exceed {MAX_SYMBOLS_PER_SUM}",
            symbols.len()
        );
        if self.words == 1 {
            // The codec's H ≤ 4 case: one add per symbol, stack-only.
            let mut acc = 0u64;
            for &s in symbols {
                acc += self.packed[s as usize];
            }
            let mut best = (0usize, usize::MAX);
            for bi in 0..self.n_books {
                let len = ((acc >> (bi as u32 * LANE_BITS)) & LANE_MASK) as usize;
                if len < best.1 {
                    best = (bi, len);
                }
            }
            best
        } else {
            let mut best = (0usize, usize::MAX);
            for (bi, total) in self.totals(symbols).into_iter().enumerate() {
                if total < best.1 {
                    best = (bi, total);
                }
            }
            best
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn books_from(freq_sets: &[Vec<u64>]) -> Vec<Codebook> {
        freq_sets
            .iter()
            .map(|f| Codebook::from_frequencies(f, 2, 8).unwrap())
            .collect()
    }

    #[test]
    fn matches_per_book_sweeps() {
        let books = books_from(&[
            vec![100, 50, 20, 5, 1, 1, 1, 1, 9, 3, 2, 1, 1, 4, 7, 60],
            vec![1; 16],
            vec![1, 2, 4, 8, 16, 32, 64, 128, 1, 1, 1, 1, 1, 1, 1, 1],
        ]);
        let symbols: Vec<u16> = (0..128).map(|i| (i * 7 % 16) as u16).collect();
        let totals = MultiLenTable::new(&books).totals(&symbols);
        for (b, &t) in books.iter().zip(&totals) {
            assert_eq!(t, b.encoded_len(&symbols));
        }
    }

    #[test]
    fn best_tie_breaks_to_lowest_index() {
        // Two identical books: the first must win.
        let books = books_from(&[vec![4, 2, 1, 1], vec![4, 2, 1, 1]]);
        assert_eq!(MultiLenTable::new(&books).best(&[0, 1, 2, 3]).0, 0);
    }

    #[test]
    fn more_than_four_books_chunk_into_extra_words() {
        let freqs: Vec<Vec<u64>> = (0..6)
            .map(|i| (0..16).map(|s| 1 + ((s + i) % 16) as u64).collect())
            .collect();
        let books = books_from(&freqs);
        let symbols: Vec<u16> = (0..200).map(|i| (i % 16) as u16).collect();
        let totals = MultiLenTable::new(&books).totals(&symbols);
        assert_eq!(totals.len(), 6);
        for (b, &t) in books.iter().zip(&totals) {
            assert_eq!(t, b.encoded_len(&symbols));
        }
    }

    #[test]
    #[should_panic(expected = "at least one codebook")]
    fn empty_book_set_rejected() {
        MultiLenTable::new(&[]);
    }

    #[test]
    #[should_panic(expected = "share one alphabet")]
    fn mismatched_alphabets_rejected() {
        let a = Codebook::from_frequencies(&[1, 1, 1, 1], 2, 8).unwrap();
        let b = Codebook::from_frequencies(&[1; 16], 2, 8).unwrap();
        MultiLenTable::new(&[a, b]);
    }

    #[test]
    #[should_panic(expected = "lane overflow")]
    fn overflow_guard_trips() {
        let books = books_from(&[vec![1, 1, 1, 1]]);
        let too_many = vec![0u16; MAX_SYMBOLS_PER_SUM + 1];
        MultiLenTable::new(&books).best(&too_many);
    }

    proptest! {
        #[test]
        fn differential_vs_encoded_len(
            freq_sets in prop::collection::vec(
                prop::collection::vec(0u64..1000, 16), 1..=8,
            ),
            syms in prop::collection::vec(0u16..16, 0..300),
        ) {
            // The oracle: one `encoded_len` sweep per book, and the
            // sequential `min_by_key` choice over them.
            let books = books_from(&freq_sets);
            let expect: Vec<usize> = books.iter().map(|b| b.encoded_len(&syms)).collect();
            let seq_best = expect
                .iter()
                .enumerate()
                .map(|(i, &l)| (i, l))
                .min_by_key(|&(_, l)| l)
                .unwrap();
            let table = MultiLenTable::new(&books);
            prop_assert_eq!(table.totals(&syms), expect);
            prop_assert_eq!(table.best(&syms), seq_best);
        }
    }
}
