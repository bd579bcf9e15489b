//! Entropy statistics and length-limited canonical Huffman coding.
//!
//! Ecco's compression quality argument is phrased in terms of *information
//! entropy* and *bit efficiency* (Section 2.2, Figure 2 of the paper), and
//! its format relies on Huffman codes whose lengths are constrained to
//! **2..=8 bits** so that 8-bit decoder segments always make progress and a
//! 15-bit window always contains at least one whole code (Section 4.2).
//!
//! This crate provides:
//!
//! * [`stats`] — Shannon entropy, unique-value counts and the paper's
//!   bit-efficiency metric `η = H / B_real`,
//! * [`huffman`] — optimal length-limited prefix codes via the
//!   package-merge algorithm, canonical code assignment, and bitstream
//!   encode/decode on top of [`ecco_bits`],
//! * [`lut`] — precomputed per-codebook sub-decoder chain tables, the
//!   single-probe primitive behind the parallel decoder's hot path,
//! * [`multi`] — [`MultiLenTable`], packed per-symbol length lanes that
//!   total a symbol stream's encoded length under all `H` candidate
//!   codebooks in a single pass: the codec's codebook choice, cached per
//!   pattern in its metadata.
//!
//! # Examples
//!
//! ```
//! use ecco_entropy::huffman::Codebook;
//! use ecco_bits::{BitReader, BitWriter};
//!
//! // A skewed 16-symbol distribution, as produced by Ecco quantization.
//! let freqs = [400u64, 200, 100, 50, 25, 12, 6, 3, 2, 1, 1, 1, 1, 1, 1, 30];
//! let book = Codebook::from_frequencies(&freqs, 2, 8).unwrap();
//!
//! let mut w = BitWriter::new();
//! for sym in [0u16, 1, 0, 15, 7] {
//!     book.encode_symbol(&mut w, sym);
//! }
//! let bytes = w.into_bytes();
//! let mut r = BitReader::new(&bytes);
//! for expect in [0u16, 1, 0, 15, 7] {
//!     assert_eq!(book.decode_symbol(&mut r), Some(expect));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod huffman;
pub mod lut;
pub mod multi;
pub mod stats;

pub use huffman::{Codebook, CodebookError, SymbolDecoder};
pub use lut::{ChainEntry, SegmentLut};
pub use multi::MultiLenTable;
pub use stats::{bit_efficiency, shannon_entropy, unique_values, BitEfficiency};
