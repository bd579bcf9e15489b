//! Length-prefixed little-endian snapshots of [`TensorMetadata`] and
//! [`CompressedTensor`] — the codec's untrusted-ingest boundary.
//!
//! This module is the codec's one (de)serialization layer, and the ECCF
//! container stores its snapshots: a small explicit wire format whose
//! decoder never panics and maps every malformation onto the located
//! [`DecodeError`] taxonomy (see [`crate::block`]):
//!
//! * [`DecodeErrorKind::TruncatedStream`] — the buffer ends before a
//!   declared field or block payload,
//! * [`DecodeErrorKind::CorruptMetadata`] — bad magic/version, out-of-range
//!   structural fields (including any group size but the format's 128,
//!   and an `ID_HF` width that cannot name every book), or
//!   unsorted/non-finite pattern centroids,
//! * [`DecodeErrorKind::CorruptCodebook`] — a codebook whose lengths form
//!   no canonical code, whose stored codes or `max_len` are not the ones
//!   its lengths derive, or a data book outside the format's 16-symbol,
//!   2..=8-bit envelope,
//! * [`DecodeErrorKind::LengthMismatch`] — a length field that disagrees
//!   with the payload actually present (trailing bytes, lied counts).
//!
//! # Formats
//!
//! Metadata snapshot (`ECCM`, version 1):
//!
//! ```text
//! "ECCM" | u16 version | i8 scale exp | u32 id_hf_bits | u32 group_size
//! | u32 S | S x (15 x f32 centroids)
//! | u32 H | S x H x codebook
//! | codebook (pattern id code)
//! ```
//!
//! Compressed-tensor frame (`ECCT`, version 1):
//!
//! ```text
//! "ECCT" | u16 version | u32 rows | u32 cols | u32 group_size
//! | i8 scale exp | u32 block count | count x 64-byte blocks
//! ```
//!
//! Codebooks serialize as `u32 N | N x u8 lengths | N x u16 codes |
//! u8 max_len`. Ingest rebuilds each book from its lengths alone
//! ([`Codebook::from_lengths`]) and refuses it unless the stored codes and
//! `max_len` are the rebuilt ones: the encoder writes a book's codes and
//! the decoder reads through its lengths, so the two must agree. The
//! revived parts then go through [`TensorMetadata::from_parts`], which
//! checks the whole, so what ingest returns is as usable as calibrated
//! metadata, its tables built, and nothing is checked or rebuilt later.
//!
//! # Examples
//!
//! ```
//! use ecco_core::{wire, EccoConfig, WeightCodec};
//! use ecco_tensor::{synth::SynthSpec, TensorKind};
//!
//! let t = SynthSpec::for_kind(TensorKind::Weight, 8, 256).generate();
//! let codec = WeightCodec::calibrate(&[&t], &EccoConfig::default());
//! let (ct, _) = codec.compress(&t);
//!
//! let bytes = wire::encode_metadata(codec.metadata());
//! let revived = wire::decode_metadata(&bytes).unwrap();
//! assert_eq!(revived.patterns(), codec.metadata().patterns());
//!
//! let frame = wire::encode_tensor(&ct);
//! let back = wire::decode_tensor(&frame).unwrap();
//! assert_eq!(back.blocks(), ct.blocks());
//! ```

use ecco_bits::{Block64, BLOCK_BYTES};
use ecco_entropy::huffman::Codebook;
use ecco_numerics::Po2Scale;
use ecco_tensor::GROUP_SIZE;

use crate::block::{DecodeError, DecodeErrorKind};
use crate::metadata::is_data_book;
use crate::pattern::{KmeansPattern, NUM_CENTROIDS};
use crate::weight::CompressedTensor;
use crate::TensorMetadata;

/// Magic prefix of a metadata snapshot.
pub const METADATA_MAGIC: [u8; 4] = *b"ECCM";
/// Magic prefix of a compressed-tensor frame.
pub const TENSOR_MAGIC: [u8; 4] = *b"ECCT";
/// Current version of both formats.
pub const WIRE_VERSION: u16 = 1;

/// Fixed byte length of an `ECCT` frame's header: magic (4), version (2),
/// rows/cols/group_size (4 each), scale exp (1), block count (4). A frame
/// is exactly this plus `block_count ×` [`BLOCK_BYTES`] bytes — the
/// arithmetic the container's tail directory is validated against.
pub const TENSOR_FRAME_HEADER_BYTES: usize = 23;

fn corrupt_meta() -> DecodeError {
    DecodeError::new(DecodeErrorKind::CorruptMetadata)
}

/// Serializes shared metadata into an `ECCM` snapshot.
pub fn encode_metadata(meta: &TensorMetadata) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&METADATA_MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.push(meta.tensor_scale().exp() as u8);
    out.extend_from_slice(&meta.id_hf_bits().to_le_bytes());
    out.extend_from_slice(&(GROUP_SIZE as u32).to_le_bytes());
    out.extend_from_slice(&(meta.num_patterns() as u32).to_le_bytes());
    for p in meta.patterns() {
        for c in p.centroids() {
            out.extend_from_slice(&c.to_le_bytes());
        }
    }
    out.extend_from_slice(&(meta.books_per_pattern() as u32).to_le_bytes());
    for book in meta.books().iter().flatten() {
        encode_book(&mut out, book);
    }
    encode_book(&mut out, meta.pattern_code());
    out
}

/// Revives shared metadata from an `ECCM` snapshot.
///
/// # Errors
///
/// Returns a [`DecodeError`] mapping the malformation onto the taxonomy —
/// see the module docs for the kind-by-kind contract. Errors carry no
/// tensor/block location: metadata is shared, not per-tensor.
///
/// No count field sizes an allocation: every pattern and book is read
/// before it is stored, so a lied count runs out of bytes
/// ([`DecodeErrorKind::TruncatedStream`]) instead of memory, and
/// [`TensorMetadata::from_parts`] range-checks the counts that remain.
pub fn decode_metadata(bytes: &[u8]) -> Result<TensorMetadata, DecodeError> {
    let mut r = Reader::new(bytes);
    if r.array::<4>()? != METADATA_MAGIC {
        return Err(corrupt_meta());
    }
    if r.u16()? != WIRE_VERSION {
        return Err(corrupt_meta());
    }
    let tensor_scale = Po2Scale::new(r.u8()? as i8);
    let id_hf_bits = r.u32()?;
    if r.u32()? as usize != GROUP_SIZE {
        return Err(corrupt_meta());
    }

    let num_patterns = r.u32()?;
    let patterns = (0..num_patterns)
        .map(|_| {
            let mut centroids = [0f32; NUM_CENTROIDS];
            for c in &mut centroids {
                *c = f32::from_le_bytes(r.array::<4>()?);
            }
            // The non-panicking revival constructor enforces the sorted /
            // finite invariant `KmeansPattern::new` would assert on.
            KmeansPattern::from_revived(centroids).ok_or_else(corrupt_meta)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let books_per_pattern = r.u32()?;
    let books = (0..num_patterns)
        .map(|_| {
            (0..books_per_pattern)
                .map(|_| decode_book(&mut r, true))
                .collect()
        })
        .collect::<Result<Vec<_>, _>>()?;
    let pattern_code = decode_book(&mut r, false)?;
    r.finish()?;

    TensorMetadata::from_parts(tensor_scale, patterns, books, pattern_code, id_hf_bits)
}

/// Serializes a compressed tensor into an `ECCT` frame.
pub fn encode_tensor(ct: &CompressedTensor) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&TENSOR_MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.extend_from_slice(&(ct.rows() as u32).to_le_bytes());
    out.extend_from_slice(&(ct.cols() as u32).to_le_bytes());
    out.extend_from_slice(&(ct.group_size() as u32).to_le_bytes());
    out.push(ct.tensor_scale().exp() as u8);
    out.extend_from_slice(&(ct.blocks().len() as u32).to_le_bytes());
    for b in ct.blocks() {
        out.extend_from_slice(b.as_bytes());
    }
    out
}

/// Revives a compressed tensor from an `ECCT` frame.
///
/// # Errors
///
/// Maps malformations onto the taxonomy (module docs). A block payload
/// that ends mid-stream reports [`DecodeErrorKind::TruncatedStream`]
/// located at the first missing block; a block count that disagrees with
/// the declared `rows x cols / group_size` shape, or trailing bytes after
/// the frame, report [`DecodeErrorKind::LengthMismatch`].
pub fn decode_tensor(bytes: &[u8]) -> Result<CompressedTensor, DecodeError> {
    let mut r = Reader::new(bytes);
    if r.array::<4>()? != TENSOR_MAGIC {
        return Err(corrupt_meta());
    }
    if r.u16()? != WIRE_VERSION {
        return Err(corrupt_meta());
    }
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    let group_size = r.u32()? as usize;
    let tensor_scale = Po2Scale::new(r.u8()? as i8);
    if group_size != GROUP_SIZE {
        return Err(corrupt_meta());
    }
    let declared = (rows as u64) * (cols as u64);
    if !declared.is_multiple_of(group_size as u64) {
        return Err(DecodeError::new(DecodeErrorKind::LengthMismatch));
    }

    let count = r.u32()? as usize;
    if count as u64 != declared / group_size as u64 {
        return Err(DecodeError::new(DecodeErrorKind::LengthMismatch));
    }
    if r.remaining() < count * BLOCK_BYTES {
        // Locate the truncation at the first block that is not fully
        // present, mirroring the batch drivers' convention.
        return Err(DecodeError::new(DecodeErrorKind::TruncatedStream)
            .at_block(r.remaining() / BLOCK_BYTES));
    }
    let mut blocks = Vec::with_capacity(count);
    for _ in 0..count {
        blocks.push(Block64::from_bytes(r.array::<BLOCK_BYTES>()?));
    }
    r.finish()?;

    Ok(CompressedTensor::from_parts(
        rows,
        cols,
        group_size,
        tensor_scale,
        blocks,
    ))
}

fn encode_book(out: &mut Vec<u8>, book: &Codebook) {
    out.extend_from_slice(&(book.num_symbols() as u32).to_le_bytes());
    out.extend_from_slice(book.lengths());
    for &c in book.codes() {
        out.extend_from_slice(&c.to_le_bytes());
    }
    out.push(book.max_len());
}

/// Decodes one codebook: rebuilds it from its lengths alone and refuses
/// it as `CorruptCodebook` unless those form a canonical code whose codes
/// and `max_len` are the stored ones. A data book must also lie in the
/// data-book envelope, which is checked before its decode table is built.
fn decode_book(r: &mut Reader<'_>, data: bool) -> Result<Codebook, DecodeError> {
    let corrupt = || DecodeError::new(DecodeErrorKind::CorruptCodebook);
    let n = r.u32()? as usize;
    let lengths = r.take(n)?;
    if data && !is_data_book(lengths) {
        return Err(corrupt());
    }
    let codes = (0..n).map(|_| r.u16()).collect::<Result<Vec<_>, _>>()?;
    let max_len = r.u8()?;
    let book = Codebook::from_lengths(lengths).map_err(|_| corrupt())?;
    if book.codes() != codes || book.max_len() != max_len {
        return Err(corrupt());
    }
    Ok(book)
}

/// Bounds-checked little-endian cursor; every read past the end is a
/// `TruncatedStream`, every leftover byte at `finish` a `LengthMismatch`.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::new(DecodeErrorKind::TruncatedStream));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>()?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.array::<2>()?))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array::<4>()?))
    }

    fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(DecodeError::new(DecodeErrorKind::LengthMismatch));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EccoConfig, WeightCodec};
    use ecco_tensor::{synth::SynthSpec, TensorKind};

    fn fixture() -> (WeightCodec, CompressedTensor, TensorMetadata) {
        let t = SynthSpec::for_kind(TensorKind::Weight, 8, 256)
            .seeded(7100)
            .generate();
        let cfg = EccoConfig {
            num_patterns: 8,
            books_per_pattern: 2,
            max_calibration_groups: 64,
            ..EccoConfig::default()
        };
        let codec = WeightCodec::calibrate(&[&t], &cfg);
        let (ct, _) = codec.compress(&t);
        let meta = codec.metadata().clone();
        (codec, ct, meta)
    }

    #[test]
    fn metadata_roundtrip_decodes_identically() {
        let (codec, ct, meta) = fixture();
        let revived = decode_metadata(&encode_metadata(&meta)).expect("roundtrip");
        assert_eq!(revived.tensor_scale(), meta.tensor_scale());
        assert_eq!(revived.patterns(), meta.patterns());
        assert_eq!(revived.id_hf_bits(), meta.id_hf_bits());
        assert_eq!(revived.pattern_code(), meta.pattern_code());
        for (a, b) in revived
            .books()
            .iter()
            .flatten()
            .zip(meta.books().iter().flatten())
        {
            assert_eq!(a.lengths(), b.lengths());
            assert_eq!(a.codes(), b.codes());
            assert_eq!(a.max_len(), b.max_len());
        }
        // The revived metadata decodes blocks bit-identically.
        let want = codec.decompress(&ct);
        let got = WeightCodec::from_metadata(revived).decompress(&ct);
        assert_eq!(got.data(), want.data());
    }

    #[test]
    fn tensor_roundtrip_is_bit_identical() {
        let (_, ct, _) = fixture();
        assert_eq!(
            encode_tensor(&ct).len(),
            TENSOR_FRAME_HEADER_BYTES + ct.blocks().len() * BLOCK_BYTES,
            "frame-size arithmetic the container directory relies on"
        );
        let back = decode_tensor(&encode_tensor(&ct)).expect("roundtrip");
        assert_eq!(back.rows(), ct.rows());
        assert_eq!(back.cols(), ct.cols());
        assert_eq!(back.group_size(), ct.group_size());
        assert_eq!(back.tensor_scale(), ct.tensor_scale());
        assert_eq!(back.blocks(), ct.blocks());
    }

    #[test]
    fn every_truncation_is_typed_never_a_panic() {
        let (_, ct, meta) = fixture();
        for bytes in [encode_metadata(&meta), encode_tensor(&ct)] {
            for cut in 0..bytes.len().min(64) {
                let err = if bytes[..cut].starts_with(&TENSOR_MAGIC) {
                    decode_tensor(&bytes[..cut]).unwrap_err()
                } else if bytes[..cut].starts_with(&METADATA_MAGIC) {
                    decode_metadata(&bytes[..cut]).unwrap_err()
                } else {
                    // Shorter than the magic: both decoders must refuse.
                    assert!(decode_metadata(&bytes[..cut]).is_err());
                    continue;
                };
                assert!(
                    matches!(
                        err.kind,
                        DecodeErrorKind::TruncatedStream | DecodeErrorKind::CorruptMetadata
                    ),
                    "cut {cut}: {err}"
                );
            }
            // Suffix truncations hit the payload arrays.
            let cut = bytes.len() - 1;
            let err = if bytes.starts_with(&TENSOR_MAGIC) {
                decode_tensor(&bytes[..cut]).unwrap_err()
            } else {
                decode_metadata(&bytes[..cut]).unwrap_err()
            };
            assert_eq!(err.kind, DecodeErrorKind::TruncatedStream);
        }
    }

    #[test]
    fn truncated_tensor_frame_locates_first_missing_block() {
        let (_, ct, _) = fixture();
        let bytes = encode_tensor(&ct);
        // Drop the last block and half of the one before it.
        let cut = bytes.len() - BLOCK_BYTES - BLOCK_BYTES / 2;
        let err = decode_tensor(&bytes[..cut]).unwrap_err();
        assert_eq!(err.kind, DecodeErrorKind::TruncatedStream);
        assert_eq!(err.block, Some(ct.blocks().len() - 2));
    }

    #[test]
    fn trailing_bytes_and_lied_counts_are_length_mismatch() {
        let (_, ct, meta) = fixture();
        let mut bytes = encode_tensor(&ct);
        bytes.push(0);
        assert_eq!(
            decode_tensor(&bytes).unwrap_err().kind,
            DecodeErrorKind::LengthMismatch
        );
        let mut mb = encode_metadata(&meta);
        mb.push(0);
        assert_eq!(
            decode_metadata(&mb).unwrap_err().kind,
            DecodeErrorKind::LengthMismatch
        );
        // A block count that disagrees with rows x cols / group_size.
        let mut lied = encode_tensor(&ct);
        let off = 4 + 2 + 4 + 4 + 4 + 1;
        lied[off..off + 4].copy_from_slice(&((ct.blocks().len() as u32) - 1).to_le_bytes());
        assert_eq!(
            decode_tensor(&lied).unwrap_err().kind,
            DecodeErrorKind::LengthMismatch
        );
    }

    #[test]
    fn group_sizes_other_than_128_are_corrupt_metadata() {
        // The format fixes groups at 128 values. A snapshot or frame
        // declaring another size is refused at ingest, even when every
        // other field agrees with the lie: 16 blocks must never revive
        // as a tensor of 16 x 65,536 values.
        let (_, ct, meta) = fixture();
        let n = ct.blocks().len() as u32;
        let regroup = |gs: u32| {
            let mut frame = encode_tensor(&ct);
            frame[6..10].copy_from_slice(&n.to_le_bytes()); // rows: one per block
            frame[10..14].copy_from_slice(&gs.to_le_bytes()); // cols: one group each
            frame[14..18].copy_from_slice(&gs.to_le_bytes());
            frame
        };
        assert!(
            decode_tensor(&regroup(128)).is_ok(),
            "the rewrite is consistent"
        );
        for gs in [64u32, 129, 65_536] {
            let mut mb = encode_metadata(&meta);
            mb[11..15].copy_from_slice(&gs.to_le_bytes());
            assert_eq!(
                decode_metadata(&mb).unwrap_err().kind,
                DecodeErrorKind::CorruptMetadata,
                "ECCM declaring group size {gs}"
            );
            assert_eq!(
                decode_tensor(&regroup(gs)).unwrap_err().kind,
                DecodeErrorKind::CorruptMetadata,
                "ECCT declaring group size {gs}"
            );
        }
    }

    #[test]
    fn corrupt_patterns_and_books_surface_typed_errors() {
        let (_, _, meta) = fixture();
        let bytes = encode_metadata(&meta);

        // Unsorted centroids: flip the sign of pattern 0's last centroid.
        let pat0 = 4 + 2 + 1 + 4 + 4 + 4;
        let last = pat0 + (NUM_CENTROIDS - 1) * 4;
        let mut bad = bytes.clone();
        let c = f32::from_le_bytes(bad[last..last + 4].try_into().unwrap());
        bad[last..last + 4].copy_from_slice(&(-c.abs() - 10.0).to_le_bytes());
        assert_eq!(
            decode_metadata(&bad).unwrap_err().kind,
            DecodeErrorKind::CorruptMetadata
        );

        // Garbage codebook lengths: zero out book 0's length vector.
        let books0 = pat0 + meta.num_patterns() * NUM_CENTROIDS * 4 + 4;
        let mut bad = bytes.clone();
        let n = u32::from_le_bytes(bad[books0..books0 + 4].try_into().unwrap()) as usize;
        for b in &mut bad[books0 + 4..books0 + 4 + n] {
            *b = 0;
        }
        assert_eq!(
            decode_metadata(&bad).unwrap_err().kind,
            DecodeErrorKind::CorruptCodebook
        );

        // A bad magic is metadata corruption, not a length problem.
        let mut bad = bytes;
        bad[0] ^= 0xFF;
        assert_eq!(
            decode_metadata(&bad).unwrap_err().kind,
            DecodeErrorKind::CorruptMetadata
        );
    }

    /// The byte ranges of a snapshot's data books, in `[pattern][book]`
    /// order; each is `u32 N | N x u8 lengths | N x u16 codes | u8 max_len`.
    fn data_books(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
        let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let mut at = 19 + word(15) * NUM_CENTROIDS * 4;
        let books = word(15) * word(at);
        at += 4;
        (0..books)
            .map(|_| {
                let start = at;
                at += 4 + 3 * word(at) + 1;
                start..at
            })
            .collect()
    }

    #[test]
    fn ingest_refuses_metadata_the_encoder_cannot_use() {
        // Calibrated metadata with H = 4 books per pattern, so its
        // ID_HF field is 2 bits wide.
        let t = SynthSpec::for_kind(TensorKind::Weight, 16, 512)
            .seeded(1001)
            .generate();
        let cfg = EccoConfig {
            num_patterns: 8,
            books_per_pattern: 4,
            max_calibration_groups: 64,
            ..EccoConfig::default()
        };
        let codec = WeightCodec::calibrate(&[&t], &cfg);
        let bytes = encode_metadata(codec.metadata());
        assert!(decode_metadata(&bytes).is_ok());
        let books = data_books(&bytes);
        assert_eq!(books.len(), 8 * 4);
        let codes = |book: &std::ops::Range<usize>| book.start + 4 + 16;
        let mut cases: Vec<(&str, Vec<u8>, DecodeErrorKind)> = Vec::new();

        // A stored code that is not its length's canonical code: the
        // encoder writes stored codes, the decoder derives them.
        let mut bad = bytes.clone();
        bad[codes(&books[0])..][..2].copy_from_slice(&0xFFFFu16.to_le_bytes());
        cases.push(("code 0xFFFF", bad, DecodeErrorKind::CorruptCodebook));
        let mut bad = bytes.clone();
        for book in &books {
            let lens = &bytes[book.start + 4..codes(book)];
            let (a, b) = (0..16)
                .flat_map(|a| (a + 1..16).map(move |b| (a, b)))
                .find(|&(a, b)| lens[a] == lens[b])
                .expect("16 lengths in 2..=8 repeat one");
            for i in 0..2 {
                bad.swap(codes(book) + 2 * a + i, codes(book) + 2 * b + i);
            }
        }
        cases.push((
            "equal-length codes swapped",
            bad,
            DecodeErrorKind::CorruptCodebook,
        ));

        // A stored max_len that is not the longest length.
        let mut bad = bytes.clone();
        bad[books[0].end - 1] += 1;
        cases.push(("max_len off by one", bad, DecodeErrorKind::CorruptCodebook));

        // An ID_HF field too narrow to name all 4 books.
        for width in [0u32, 1] {
            let mut bad = bytes.clone();
            bad[7..11].copy_from_slice(&width.to_le_bytes());
            cases.push(("ID_HF too narrow", bad, DecodeErrorKind::CorruptMetadata));
        }

        // Canonical 4-symbol data books, which the encoder's 16 symbols
        // overrun.
        let mut four = 4u32.to_le_bytes().to_vec();
        four.extend([2u8; 4]);
        for c in 0u16..4 {
            four.extend(c.to_le_bytes());
        }
        four.push(2);
        let mut bad = bytes[..books[0].start].to_vec();
        for _ in &books {
            bad.extend(&four);
        }
        bad.extend(&bytes[books[books.len() - 1].end..]);
        cases.push(("4-symbol data books", bad, DecodeErrorKind::CorruptCodebook));

        let got: Vec<_> = cases
            .iter()
            .map(|(what, bad, _)| (*what, decode_metadata(bad).err().map(|e| e.kind)))
            .collect();
        let want: Vec<_> = cases.iter().map(|(what, _, k)| (*what, Some(*k))).collect();
        assert_eq!(got, want);
    }
}
