//! 64-byte compressed-block encode/decode (steps 8–9 of Figure 4 and the
//! block layout of Figure 6a).
//!
//! Layout, MSB-first:
//!
//! ```text
//! | ID_HF | SF (8b, FP8 E4M3, signed) | ID_KP (canonical code) |
//! | Huffman-coded symbols (128 × 2..8b, possibly clipped mid-code) |
//! | padded outliers (n × 15b: 7b position + 8b FP8 value) | zero fill |
//! ```
//!
//! The outlier count is *implicit*: `n = ⌊(512 − data_end) / 15⌋`, which the
//! decoder recomputes after decoding the 128th symbol. Clipping truncates
//! the symbol stream mid-code at bit 512; prefix-freeness guarantees the
//! decoder cannot misread the truncated tail as a valid code, so the clip
//! point is recovered without side information.
//!
//! The layout lives in exactly two functions: [`write_block`] writes it
//! and [`read_block`] reads it. Encoders supply only their selection
//! (pattern, codebook, symbols, ranked outliers) and decoders only their
//! symbol walk — the codec's ([`encode_group_scratch`],
//! [`decode_group_into`]) and the hardware models' in `ecco_hw` alike.

use ecco_bits::{BitWriter, Block64, BLOCK_BITS};
use ecco_entropy::Codebook;
use ecco_numerics::F8E4M3;

use crate::group::normalize_group;
use crate::metadata::{PatternSelector, TensorMetadata};
use crate::pattern::SCALE_SYMBOL;
use crate::select::{with_thread_scratch, GroupScratch};

/// Bits per padded outlier: 7-bit position + 8-bit FP8 value.
pub const OUTLIER_BITS: usize = 15;

/// Per-group encoding report, aggregated into [`crate::CodecStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EncodedGroupInfo {
    /// Chosen shared pattern.
    pub pattern_id: usize,
    /// Chosen Huffman codebook within the pattern.
    pub book_id: usize,
    /// Bits of header (`ID_HF` + SF + `ID_KP`).
    pub header_bits: usize,
    /// Bits of Huffman-coded data actually stored (after clipping).
    pub data_bits: usize,
    /// Symbols whose codes did not fit and were truncated.
    pub clipped_symbols: usize,
    /// Outliers padded into leftover space.
    pub padded_outliers: usize,
}

/// The failure classes of the decode/ingest path — the *what* of a
/// [`DecodeError`] (the *where* lives on the error itself).
///
/// Every variant is reachable from a test; `tests/fuzz_ingest.rs` audits
/// the full taxonomy against [`DecodeErrorKind::ALL`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DecodeErrorKind {
    /// The `ID_KP` field did not decode to a known pattern.
    BadPatternId,
    /// The `ID_HF` field named a codebook beyond `H`.
    BadBookId,
    /// The scale-factor byte decoded to NaN.
    BadScaleFactor,
    /// A revived codebook's serialized fields do not cohere (Kraft
    /// violation, `max_len` disagreeing with its lengths, an alphabet
    /// wider than the symbol space, or code lengths the parallel decoder
    /// cannot segment) — decoding refuses instead of silently
    /// zero-filling through an all-invalid table or indexing out of
    /// bounds.
    CorruptCodebook,
    /// Revived tensor metadata is structurally inconsistent (fewer
    /// codebook rows than patterns, an `ID_HF` width that cannot fit a
    /// block header, a corrupt pattern-id code, …).
    CorruptMetadata,
    /// A serialized stream ended before its declared contents: a tensor
    /// whose block array stops short of its shape, or a wire snapshot
    /// truncated mid-field.
    TruncatedStream,
    /// A length field lies: declared counts disagree with the payload
    /// that is actually present (block count vs tensor shape, group size
    /// mismatch, trailing or missing wire bytes).
    LengthMismatch,
    /// A stored frame's CRC-32 does not match its payload — the bytes
    /// rotted (or were tampered with) between write and read. Checked
    /// *before* any decode touches the frame, so a corrupt container
    /// frame is reported here rather than as whatever deep decode error
    /// the damaged bytes happen to produce (see `ecco-container`).
    ChecksumMismatch,
    /// A pool worker panicked while decoding this tensor's batch slice;
    /// the panic was contained to this result (see
    /// [`crate::parallel::decode_tensors_batch_report_with`]).
    WorkerPanic,
}

impl DecodeErrorKind {
    /// Every kind, in precedence/documentation order — the audit test
    /// enumerates this to prove the whole taxonomy is constructible.
    pub const ALL: [DecodeErrorKind; 9] = [
        DecodeErrorKind::BadPatternId,
        DecodeErrorKind::BadBookId,
        DecodeErrorKind::BadScaleFactor,
        DecodeErrorKind::CorruptCodebook,
        DecodeErrorKind::CorruptMetadata,
        DecodeErrorKind::TruncatedStream,
        DecodeErrorKind::LengthMismatch,
        DecodeErrorKind::ChecksumMismatch,
        DecodeErrorKind::WorkerPanic,
    ];

    fn describe(self) -> &'static str {
        match self {
            DecodeErrorKind::BadPatternId => "invalid pattern id",
            DecodeErrorKind::BadBookId => "invalid codebook id",
            DecodeErrorKind::BadScaleFactor => "scale factor is NaN",
            DecodeErrorKind::CorruptCodebook => "corrupt revived codebook",
            DecodeErrorKind::CorruptMetadata => "corrupt revived metadata",
            DecodeErrorKind::TruncatedStream => "stream truncated",
            DecodeErrorKind::LengthMismatch => "length field mismatch",
            DecodeErrorKind::ChecksumMismatch => "frame checksum mismatch",
            DecodeErrorKind::WorkerPanic => "decode worker panicked",
        }
    }
}

/// A located decode failure: what went wrong ([`DecodeErrorKind`]) plus
/// where — the batch index of the tensor and the block index within its
/// stream, each filled in by the innermost driver that knows it.
///
/// Location is attached with [`DecodeError::at_block`] /
/// [`DecodeError::at_tensor`], which only fill unset fields, so an error
/// located at its source (e.g. a truncation at block `n`) survives
/// unchanged through the batch drivers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// The failure class.
    pub kind: DecodeErrorKind,
    /// Batch index of the failing tensor, when decoded through a batch
    /// driver.
    pub tensor: Option<usize>,
    /// Block index within the tensor's stream, when known.
    pub block: Option<usize>,
}

impl DecodeError {
    /// An unlocated error of the given kind.
    pub const fn new(kind: DecodeErrorKind) -> DecodeError {
        DecodeError {
            kind,
            tensor: None,
            block: None,
        }
    }

    /// Fills in the block index unless an inner frame already located it.
    #[must_use]
    pub fn at_block(mut self, block: usize) -> DecodeError {
        self.block.get_or_insert(block);
        self
    }

    /// Fills in the tensor's batch index unless already located.
    #[must_use]
    pub fn at_tensor(mut self, tensor: usize) -> DecodeError {
        self.tensor.get_or_insert(tensor);
        self
    }

    /// The failure class (location-independent).
    pub const fn kind(&self) -> DecodeErrorKind {
        self.kind
    }
}

impl From<DecodeErrorKind> for DecodeError {
    fn from(kind: DecodeErrorKind) -> DecodeError {
        DecodeError::new(kind)
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.kind.describe())?;
        match (self.tensor, self.block) {
            (Some(t), Some(b)) => write!(f, " (tensor {t}, block {b})"),
            (Some(t), None) => write!(f, " (tensor {t})"),
            (None, Some(b)) => write!(f, " (block {b})"),
            (None, None) => Ok(()),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Compresses one 128-value group into a 64-byte block, using the
/// calling thread's shared [`GroupScratch`]. Hot loops that encode many
/// groups should hold their own scratch and call
/// [`encode_group_scratch`] instead (same bits, explicit reuse).
///
/// # Panics
///
/// Panics if `group.len() != meta.group_size`.
pub fn encode_group(
    group: &[f32],
    meta: &TensorMetadata,
    selector: PatternSelector,
) -> (Block64, EncodedGroupInfo) {
    with_thread_scratch(|s| encode_group_scratch(group, meta, selector, s))
}

/// Compresses one group through a caller-provided [`GroupScratch`]: the
/// fused sweep selects the pattern *and* quantizes the group in one pass
/// over its sorted values, and the winner's symbols are emitted straight
/// from the scratch — no per-group selection allocation, no
/// re-quantization.
///
/// # Panics
///
/// Panics if `group.len() != meta.group_size`.
pub fn encode_group_scratch(
    group: &[f32],
    meta: &TensorMetadata,
    selector: PatternSelector,
    scratch: &mut GroupScratch,
) -> (Block64, EncodedGroupInfo) {
    assert_eq!(group.len(), meta.group_size, "group size mismatch");
    let ng = normalize_group(group, meta.tensor_scale);
    let kp = meta.select_pattern_scratch(&ng, selector, scratch);
    encode_selected(group, &ng, meta, kp, scratch)
}

/// Fused activation-aware compression of one group: selects the pattern
/// minimizing the *weighted* squared error (`group_w2[i]` = squared
/// channel magnitude of value `i`) and encodes with the winner's symbols
/// from the same sweep — the offline weight path's hot loop.
///
/// # Panics
///
/// Panics if `group.len() != meta.group_size` or `group_w2` is shorter
/// than the group.
pub fn encode_group_weighted_scratch(
    group: &[f32],
    meta: &TensorMetadata,
    group_w2: &[f32],
    scratch: &mut GroupScratch,
) -> (Block64, EncodedGroupInfo) {
    assert_eq!(group.len(), meta.group_size, "group size mismatch");
    let ng = normalize_group(group, meta.tensor_scale);
    let kp = meta.select_pattern_weighted_scratch(&ng, group_w2, scratch);
    encode_selected(group, &ng, meta, kp, scratch)
}

/// The codec's selection after the fused sweep picked pattern `kp`: the
/// winner's symbols scattered back to group order (step 5), the shortest
/// of the pattern's codebooks in one packed-lane pass (step 8, exact
/// totals, ties to the lowest book — bit-identical to `H` separate
/// `encoded_len` sweeps), and the group's values ranked by magnitude as
/// padding candidates. [`write_block`] does the rest.
fn encode_selected(
    group: &[f32],
    ng: &crate::group::NormalizedGroup,
    meta: &TensorMetadata,
    kp: usize,
    scratch: &mut GroupScratch,
) -> (Block64, EncodedGroupInfo) {
    let symbols: &[u16] = scratch.scatter(meta.group_size);
    let (book_id, _) = meta
        .len_table(kp)
        .expect("the selected pattern has a codebook row")
        .best(symbols);
    // Ranked lazily: a clipped block never reads its outliers.
    let outliers = std::iter::once_with(|| rank_outliers(group, ng.max_pos)).flatten();
    write_block(meta, kp, book_id, ng.sf_bits, symbols, outliers)
}

/// The one block writer (steps 8–9, Fig. 6a): writes the header
/// `| ID_HF | SF | ID_KP |`, then `symbols` under codebook `book_id` of
/// pattern `kp`. If the codes overflow bit 512 the stream is clipped
/// mid-code there (paper: "we simply clip the excess"); otherwise the
/// leftover space holds as many of `ranked_outliers` — `(position,
/// value)` pairs, most important first — as fit, each as a 7-bit
/// position and an FP8 value.
///
/// Every choice belongs to the caller: the codec passes its fused
/// sweep's selection, the hardware compressor (`ecco_hw`) the output of
/// its sorter, pattern selector and parallel encoders. `ranked_outliers`
/// is only consumed when nothing was clipped, so a lazy iterator defers
/// its ranking to the blocks that pad.
///
/// # Panics
///
/// Panics if `kp` or `book_id` is out of range, a symbol lies outside
/// the book's alphabet, or a written outlier position exceeds 7 bits.
pub fn write_block(
    meta: &TensorMetadata,
    kp: usize,
    book_id: usize,
    sf_bits: u8,
    symbols: &[u16],
    ranked_outliers: impl IntoIterator<Item = (usize, f32)>,
) -> (Block64, EncodedGroupInfo) {
    let book = &meta.books[kp][book_id];
    let mut w = BitWriter::with_capacity(BLOCK_BITS);
    if meta.id_hf_bits > 0 {
        w.write_bits(book_id as u64, meta.id_hf_bits);
    }
    w.write_bits(sf_bits as u64, 8);
    meta.pattern_code.encode_symbol(&mut w, kp as u16);
    let header_bits = w.bit_len();

    // Fit or clip: codes go in while they fit; the first one that does
    // not is cut at bit 512 and ends the stream.
    let mut full = 0usize;
    for &s in symbols {
        let (code, len) = (book.code(s) as u64, book.code_len(s) as usize);
        let room = BLOCK_BITS - w.bit_len();
        if len > room {
            if room > 0 {
                w.write_bits(code >> (len - room), room as u32);
            }
            break;
        }
        w.write_bits(code, len as u32);
        full += 1;
    }
    let mut info = EncodedGroupInfo {
        pattern_id: kp,
        book_id,
        header_bits,
        data_bits: w.bit_len() - header_bits,
        clipped_symbols: symbols.len() - full,
        padded_outliers: 0,
    };

    if info.clipped_symbols == 0 {
        // Step 9: pad the leftover space with the next-largest values.
        let slots = (BLOCK_BITS - w.bit_len()) / OUTLIER_BITS;
        for (pos, val) in ranked_outliers.into_iter().take(slots) {
            let f8 = F8E4M3::from_f32(meta.tensor_scale.compress(val));
            w.write_bits(pos as u64, 7);
            w.write_bits(f8.to_bits() as u64, 8);
            info.padded_outliers += 1;
        }
    }

    let block = Block64::from_writer(w).expect("the writer never exceeds 512 bits");
    (block, info)
}

/// The parsed fixed header of a block: `| ID_HF | SF | ID_KP |`.
///
/// The block reader and the benches' raw-decoder harnesses parse the
/// header through [`parse_block_header`], so the field layout lives in
/// exactly one place.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockHeader {
    /// Selected Huffman codebook within the pattern (`ID_HF`).
    pub book_id: usize,
    /// Selected shared pattern (`ID_KP`).
    pub kp: usize,
    /// Raw FP8 scale-factor byte (validated non-NaN).
    pub sf_bits: u8,
    /// Bit position where the Huffman data begins.
    pub data_start: usize,
}

/// Maximum believable `ID_HF` field width: 2^16 codebooks per pattern is
/// far past any real configuration, so wider values only arise from
/// corrupt revived metadata.
const MAX_ID_HF_BITS: u32 = 16;

/// Validates a revived *data* codebook before decoding through it.
///
/// The Ecco format constrains data codes to lengths `2..=8` over at most
/// [`crate::pattern::SYMBOL_COUNT`] symbols (the parallel-decode
/// constraint of the paper); a revived book outside that envelope — or
/// one whose serialized fields do not heal into a canonical code at all —
/// is reported as [`DecodeErrorKind::CorruptCodebook`]. The block reader
/// applies it before any walk runs (so the codec and the hardware model
/// agree error-for-error on corrupt metadata), and wire ingest applies it
/// to every revived book.
pub(crate) fn validate_data_book(book: &Codebook) -> Result<(), DecodeError> {
    if !book.revival_coherent()
        || book.num_symbols() > crate::pattern::SYMBOL_COUNT
        || book.max_len() > 8
        || book.lengths().iter().any(|&l| l < 2)
    {
        return Err(DecodeErrorKind::CorruptCodebook.into());
    }
    Ok(())
}

/// Parses and validates a block's header fields against `meta`.
///
/// # Errors
///
/// Structural [`DecodeErrorKind::CorruptMetadata`] checks come first (an
/// `ID_HF` width no real configuration produces, a corrupt pattern-id
/// code, a codebook table with fewer rows than patterns), then the
/// per-block field errors in the same precedence order every decoder
/// reports: bad pattern id, then bad book id, then NaN scale factor.
pub fn parse_block_header(
    block: &Block64,
    meta: &TensorMetadata,
) -> Result<BlockHeader, DecodeError> {
    if meta.id_hf_bits > MAX_ID_HF_BITS || !meta.pattern_code.revival_coherent() {
        return Err(DecodeErrorKind::CorruptMetadata.into());
    }
    let mut r = block.reader();
    let book_id = if meta.id_hf_bits > 0 {
        r.read_bits(meta.id_hf_bits).expect("block holds header") as usize
    } else {
        0
    };
    let sf_bits = r.read_bits(8).expect("block holds header") as u8;
    let kp = meta
        .pattern_code
        .decode_symbol(&mut r)
        .ok_or(DecodeError::new(DecodeErrorKind::BadPatternId))? as usize;
    if kp >= meta.patterns.len() {
        return Err(DecodeErrorKind::BadPatternId.into());
    }
    let books = meta
        .books
        .get(kp)
        .ok_or(DecodeError::new(DecodeErrorKind::CorruptMetadata))?;
    if book_id >= books.len() {
        return Err(DecodeErrorKind::BadBookId.into());
    }
    if F8E4M3::from_bits(sf_bits).is_nan() {
        return Err(DecodeErrorKind::BadScaleFactor.into());
    }
    Ok(BlockHeader {
        book_id,
        kp,
        sf_bits,
        data_start: r.bit_pos(),
    })
}

/// Per-group decoding report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecodedGroupInfo {
    /// Symbols recovered before the stream ended.
    pub decoded_symbols: usize,
    /// Symbols reconstructed as the near-zero centroid because of clipping.
    pub clipped_symbols: usize,
    /// Outliers applied from the padding region.
    pub applied_outliers: usize,
}

/// A per-block symbol → reconstructed-value table: all 15 centroids and
/// the [`SCALE_SYMBOL`] pre-multiplied by the block's scale factor with
/// [`ecco_numerics::round_f16`] folded in, so the decode walk emits f32
/// by one array gather per symbol instead of a second reconstruction
/// pass.
///
/// `round_f16` is a pure function of `(centroid, scale)`, so gathering
/// from this table is bit-identical to reconstructing each symbol
/// inline; `block::tests::value_table_matches_reconstruction_formula`
/// pins the formula slot by slot.
#[derive(Clone, Copy, Debug)]
pub struct BlockValueTable {
    /// Indexed by decoded symbol (`0..SYMBOL_COUNT`); slot
    /// [`SCALE_SYMBOL`] holds the *signed* scale, the rest
    /// `round_f16(centroid × |scale|)`.
    values: [f32; crate::pattern::SYMBOL_COUNT],
    /// The clipped-tail fill: the zero-centroid slot's value.
    tail_fill: f32,
}

impl BlockValueTable {
    /// Builds the table for one block from its pattern and expanded,
    /// FP16-rounded signed scale.
    ///
    /// An all-zero group has scale 0 and every slot reconstructs to an
    /// exact zero, exactly like the hardware's `pattern × SF` multiplier.
    pub fn new(pattern: &crate::pattern::KmeansPattern, scale_signed: f32) -> Self {
        let scale_mag = scale_signed.abs();
        let mut values = [0f32; crate::pattern::SYMBOL_COUNT];
        for (slot, &c) in values.iter_mut().zip(pattern.centroids().iter()) {
            *slot = ecco_numerics::round_f16(c * scale_mag);
        }
        values[SCALE_SYMBOL as usize] = scale_signed;
        Self {
            values,
            tail_fill: values[pattern.zero_symbol() as usize],
        }
    }

    /// The reconstructed value of one decoded symbol.
    ///
    /// # Panics
    ///
    /// Panics if `sym >= SYMBOL_COUNT`; every data codebook
    /// [`read_block`] accepts only emits symbols below that bound.
    #[inline]
    pub fn value(&self, sym: u16) -> f32 {
        self.values[sym as usize]
    }

    /// The clipped-tail fill value (`round_f16(zero_centroid × |scale|)`).
    #[inline]
    pub fn tail_fill(&self) -> f32 {
        self.tail_fill
    }
}

/// Decompresses one block back into `meta.group_size` FP16 values.
///
/// Thin wrapper over the fused [`decode_group_into`], kept for callers
/// that want an owned buffer per block.
///
/// # Errors
///
/// Returns a [`DecodeError`] for corrupted headers; the symbol stream
/// itself is always decodable (clipping is handled by reconstruction).
pub fn decode_group(
    block: &Block64,
    meta: &TensorMetadata,
) -> Result<(Vec<f32>, DecodedGroupInfo), DecodeError> {
    let mut values = Vec::with_capacity(meta.group_size);
    let info = decode_group_into(block, meta, &mut values)?;
    Ok((values, info))
}

/// The codec's decoder: [`read_block`] with the per-symbol walk — each
/// symbol the book's `SymbolDecoder` resolves is gathered through the
/// block's [`BlockValueTable`] as it lands, with no intermediate symbol
/// buffer or second reconstruction pass. **Appends** `meta.group_size`
/// FP16 values to `values`; on error nothing is appended.
///
/// # Errors
///
/// Returns a [`DecodeError`] for corrupted headers; the symbol stream
/// itself is always decodable (clipping is handled by reconstruction).
pub fn decode_group_into(
    block: &Block64,
    meta: &TensorMetadata,
    values: &mut Vec<f32>,
) -> Result<DecodedGroupInfo, DecodeError> {
    let (info, ()) = read_block(block, meta, values, |book, data_start, table, values| {
        // A clipped tail ends the walk early: prefix-freeness makes the
        // truncation point unambiguous.
        let mut r = block.reader();
        r.seek(data_start);
        let dec = book.symbol_decoder();
        for _ in 0..meta.group_size {
            match dec.decode_symbol(&mut r) {
                Some(s) => values.push(table.value(s)),
                None => break,
            }
        }
        (r.bit_pos(), ())
    })?;
    Ok(info)
}

/// The one block reader (Fig. 6a): parses and validates the header and
/// the data codebook, builds the block's [`BlockValueTable`], hands the
/// symbol stream to `walk`, then fills the clipped tail with the zero
/// centroid and applies the padded outliers — **appending**
/// `meta.group_size` values to `values`. On error nothing is appended
/// and `walk` never runs.
///
/// `walk(book, data_start, table, values)` resolves symbols from bit
/// `data_start` on, appends the value of each (at most
/// `meta.group_size`) to `values`, and returns the bit just past the
/// last one plus whatever the walk reports. The codec passes its
/// per-symbol walk ([`decode_group_into`]), the hardware model
/// (`ecco_hw`) its 64×8 speculative walk; everything else about the
/// format lives here.
///
/// # Errors
///
/// The [`parse_block_header`] errors, then
/// [`DecodeErrorKind::CorruptCodebook`] for a revived data book outside
/// the format's envelope.
///
/// # Panics
///
/// Panics if `walk` appends more than `meta.group_size` values.
pub fn read_block<R>(
    block: &Block64,
    meta: &TensorMetadata,
    values: &mut Vec<f32>,
    walk: impl FnOnce(&Codebook, usize, &BlockValueTable, &mut Vec<f32>) -> (usize, R),
) -> Result<(DecodedGroupInfo, R), DecodeError> {
    let header = parse_block_header(block, meta)?;
    let book = &meta.books[header.kp][header.book_id];
    validate_data_book(book)?;
    let sf = F8E4M3::from_bits(header.sf_bits);
    let scale_signed = ecco_numerics::round_f16(meta.tensor_scale.expand(sf.to_f32()));
    let table = BlockValueTable::new(&meta.patterns[header.kp], scale_signed);

    let base = values.len();
    values.reserve(meta.group_size);
    let (data_end, report) = walk(book, header.data_start, &table, values);
    let decoded = values.len() - base;
    assert!(decoded <= meta.group_size, "the walk overran its group");

    // Clipped tail: the reconstructed zero centroid.
    values.resize(base + meta.group_size, table.tail_fill());

    // Outliers exist only when nothing was clipped.
    let mut applied = 0usize;
    if decoded == meta.group_size {
        let mut r = block.reader();
        r.seek(data_end);
        for _ in 0..(BLOCK_BITS - data_end) / OUTLIER_BITS {
            let pos = r.read_bits(7).expect("outlier fits") as usize;
            let f8 = F8E4M3::from_bits(r.read_bits(8).expect("outlier fits") as u8);
            if pos < meta.group_size && !f8.is_nan() {
                values[base + pos] =
                    ecco_numerics::round_f16(meta.tensor_scale.expand(f8.to_f32()));
                applied += 1;
            }
        }
    }

    let info = DecodedGroupInfo {
        decoded_symbols: decoded,
        clipped_symbols: meta.group_size - decoded,
        applied_outliers: applied,
    };
    Ok((info, report))
}

/// Positions and values ranked by |value| descending, excluding the absmax
/// position — the padding order of step 9.
fn rank_outliers(group: &[f32], max_pos: usize) -> Vec<(usize, f32)> {
    let mut v: Vec<(usize, f32)> = group
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != max_pos)
        .map(|(i, &x)| (i, x))
        .collect();
    v.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EccoConfig, PatternSelector, TensorMetadata};
    use ecco_tensor::{synth::SynthSpec, Tensor, TensorKind};
    use proptest::prelude::*;

    fn meta_for(t: &Tensor) -> TensorMetadata {
        let cfg = EccoConfig {
            num_patterns: 16,
            books_per_pattern: 4,
            max_calibration_groups: 256,
            ..EccoConfig::default()
        };
        TensorMetadata::calibrate(&[t], &cfg, PatternSelector::MseOptimal)
    }

    #[test]
    fn roundtrip_error_bounded() {
        let t = SynthSpec::for_kind(TensorKind::Weight, 16, 512)
            .seeded(11)
            .generate();
        let meta = meta_for(&t);
        for g in t.groups(128) {
            let (block, info) = encode_group(g, &meta, PatternSelector::MseOptimal);
            let (out, dinfo) = decode_group(&block, &meta).unwrap();
            assert_eq!(out.len(), 128);
            assert_eq!(dinfo.clipped_symbols, info.clipped_symbols);
            // Reconstruction error bounded by the group scale (15 centroids
            // over (-1,1) → worst gap well under half the range).
            let absmax = g.iter().fold(0f32, |m, &x| m.max(x.abs()));
            for (a, b) in g.iter().zip(&out) {
                assert!(
                    (a - b).abs() <= absmax * 0.6 + 1e-3,
                    "value {a} reconstructed as {b} (absmax {absmax})"
                );
            }
        }
    }

    #[test]
    fn scale_position_reconstructs_signed_extreme() {
        let t = SynthSpec::for_kind(TensorKind::Weight, 8, 512)
            .seeded(12)
            .generate();
        let meta = meta_for(&t);
        for g in t.groups(128) {
            let (block, _) = encode_group(g, &meta, PatternSelector::MseOptimal);
            let (out, _) = decode_group(&block, &meta).unwrap();
            let max_pos = (0..128)
                .max_by(|&a, &b| g[a].abs().total_cmp(&g[b].abs()))
                .unwrap();
            let rel = (out[max_pos] - g[max_pos]).abs() / g[max_pos].abs().max(1e-6);
            assert!(rel < 0.07, "absmax {} -> {}", g[max_pos], out[max_pos]);
            assert_eq!(
                out[max_pos].signum(),
                g[max_pos].signum(),
                "absmax sign must survive"
            );
        }
    }

    #[test]
    fn zero_group_roundtrips_to_zero() {
        let t = SynthSpec::for_kind(TensorKind::Weight, 8, 512)
            .seeded(13)
            .generate();
        let meta = meta_for(&t);
        let zeros = vec![0f32; 128];
        let (block, _info) = encode_group(&zeros, &meta, PatternSelector::MseOptimal);
        let (out, _) = decode_group(&block, &meta).unwrap();
        // Whatever pattern/book the zero group lands on (possibly even a
        // clipped one), reconstruction multiplies centroids by the zero
        // scale factor: everything must be exactly 0.
        assert!(out.iter().all(|&v| v == 0.0), "{out:?}");
    }

    #[test]
    fn padding_improves_outlier_reconstruction() {
        // Build a tensor of near-constant groups with planted outliers so
        // calibration learns short codes for the dominant symbol, leaving
        // padding space; the padded FP8 value must then beat centroid-only
        // reconstruction for the secondary outlier.
        let mut data = Vec::new();
        for gidx in 0..64usize {
            let mut g = vec![0.01f32; 128];
            g[(gidx * 7) % 128] = 8.0; // absmax
            g[(gidx * 13 + 1) % 128] = 6.0; // secondary outlier
            data.extend_from_slice(&g);
        }
        let t = Tensor::from_vec(64, 128, data);
        let meta = meta_for(&t);

        let mut g = vec![0.01f32; 128];
        g[5] = 8.0;
        g[77] = 6.0;
        let (block, info) = encode_group(&g, &meta, PatternSelector::MseOptimal);
        assert!(info.padded_outliers > 0, "expected padding space: {info:?}");
        let (out, dinfo) = decode_group(&block, &meta).unwrap();
        assert_eq!(dinfo.applied_outliers, info.padded_outliers);
        let rel = (out[77] - 6.0).abs() / 6.0;
        assert!(rel < 0.07, "outlier 6.0 reconstructed as {}", out[77]);
    }

    #[test]
    fn clip_point_is_unambiguous() {
        // Force clipping by building metadata whose codebooks are poorly
        // matched to the data (uniform books: 4 bits × 128 = 512 > budget).
        let t = SynthSpec::for_kind(TensorKind::Weight, 8, 512)
            .seeded(15)
            .generate();
        let mut meta = meta_for(&t);
        let uniform = ecco_entropy::Codebook::from_frequencies(&[1u64; 16], 4, 4).unwrap();
        for row in &mut meta.books {
            for b in row {
                *b = uniform.clone();
            }
        }
        let g: Vec<f32> = (0..128)
            .map(|i| ((i * 37 % 128) as f32 - 64.0) * 0.01)
            .collect();
        let (block, info) = encode_group(&g, &meta, PatternSelector::MseOptimal);
        assert!(info.clipped_symbols > 0, "clipping must occur");
        let (out, dinfo) = decode_group(&block, &meta).unwrap();
        assert_eq!(dinfo.clipped_symbols, info.clipped_symbols);
        assert_eq!(out.len(), 128);
    }

    #[test]
    fn single_pass_book_selection_matches_h_pass_baseline() {
        // The encoder's packed-lane selection must pick the same book (and
        // total length) as the original H separate `encoded_len` sweeps.
        let t = SynthSpec::for_kind(TensorKind::KCache, 16, 512)
            .seeded(18)
            .generate();
        let meta = meta_for(&t);
        for g in t.groups(128) {
            let ng = normalize_group(g, meta.tensor_scale);
            let kp = meta.select_pattern(&ng, PatternSelector::MseOptimal);
            let symbols = ng.symbols(&meta.patterns[kp]);
            let baseline = meta.books[kp]
                .iter()
                .enumerate()
                .map(|(i, b)| (i, b.encoded_len(&symbols)))
                .min_by_key(|&(_, len)| len)
                .unwrap();
            let table = ecco_entropy::MultiLenTable::new(&meta.books[kp]);
            let totals: Vec<usize> = meta.books[kp]
                .iter()
                .map(|b| b.encoded_len(&symbols))
                .collect();
            assert_eq!(table.totals(&symbols), totals);
            assert_eq!(table.best(&symbols), baseline);
            let (_, info) = encode_group(g, &meta, PatternSelector::MseOptimal);
            assert_eq!(info.book_id, baseline.0, "encoder must pick the same book");
        }
    }

    #[test]
    fn corrupt_header_reports_errors() {
        let t = SynthSpec::for_kind(TensorKind::Weight, 8, 512)
            .seeded(16)
            .generate();
        let meta = meta_for(&t);
        let g = t.groups(128).next().unwrap();
        let (block, _) = encode_group(g, &meta, PatternSelector::MseOptimal);
        // Corrupt the scale byte into NaN (0x7F) — bits 2..10 hold SF.
        let mut bytes = *block.as_bytes();
        bytes[0] |= 0x3F; // high 6 bits of SF
        bytes[1] |= 0xC0; // low 2 bits of SF
        let bad = Block64::from_bytes(bytes);
        let err = decode_appending(&bad, &meta).unwrap_err();
        assert_eq!(err.kind, DecodeErrorKind::BadScaleFactor);
        assert_eq!(err, DecodeErrorKind::BadScaleFactor.into());
        assert_eq!(err.to_string(), "scale factor is NaN");
    }

    #[test]
    fn decode_never_panics_on_random_blocks() {
        let t = SynthSpec::for_kind(TensorKind::Weight, 8, 512)
            .seeded(17)
            .generate();
        let meta = meta_for(&t);
        let mut state = 0x12345678u64;
        for _ in 0..200 {
            let mut bytes = [0u8; 64];
            for b in &mut bytes {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                *b = (state >> 33) as u8;
            }
            // Either outcome is fine; the append contract must hold.
            let _ = decode_appending(&Block64::from_bytes(bytes), &meta);
        }
    }

    /// MSB-first bit surgery for corner-case crafting: overwrites `n`
    /// bits of `bytes` starting at bit `pos` with the low `n` bits of
    /// `val`.
    fn set_bits(bytes: &mut [u8; 64], pos: usize, n: usize, val: u64) {
        for i in 0..n {
            let bit = (val >> (n - 1 - i)) & 1;
            let p = pos + i;
            let (byte, off) = (p / 8, 7 - (p % 8));
            if bit == 1 {
                bytes[byte] |= 1 << off;
            } else {
                bytes[byte] &= !(1 << off);
            }
        }
    }

    /// Decodes `block` onto a buffer with a nonzero base and checks the
    /// append contract: on success exactly `group_size` values follow the
    /// untouched base, on error nothing is appended. Returns the decoded
    /// values alone.
    fn decode_appending(
        block: &Block64,
        meta: &TensorMetadata,
    ) -> Result<(Vec<f32>, DecodedGroupInfo), DecodeError> {
        let mut vals = vec![7.0f32; 3];
        let res = decode_group_into(block, meta, &mut vals);
        assert_eq!(&vals[..3], &[7.0f32; 3], "decode must append");
        match res {
            Ok(info) => {
                assert_eq!(vals.len(), 3 + meta.group_size);
                Ok((vals.split_off(3), info))
            }
            Err(e) => {
                assert_eq!(vals.len(), 3, "decode must append nothing on error");
                Err(e)
            }
        }
    }

    /// The value table a healthy block decodes through, rebuilt from its
    /// header.
    fn table_for(block: &Block64, meta: &TensorMetadata) -> BlockValueTable {
        let header = parse_block_header(block, meta).unwrap();
        let sf = F8E4M3::from_bits(header.sf_bits);
        let scale = ecco_numerics::round_f16(meta.tensor_scale.expand(sf.to_f32()));
        BlockValueTable::new(&meta.patterns[header.kp], scale)
    }

    #[test]
    fn decode_appends_on_corner_blocks() {
        let t = SynthSpec::for_kind(TensorKind::Weight, 8, 512)
            .seeded(19)
            .generate();
        let meta = meta_for(&t);

        // All-zero group: scale 0, every value table slot reconstructs 0.
        let zeros = vec![0f32; 128];
        let (zb, _) = encode_group(&zeros, &meta, PatternSelector::MseOptimal);
        let (out, _) = decode_appending(&zb, &meta).unwrap();
        assert!(out.iter().all(|&v| v == 0.0));

        // Signed extreme (negative absmax → negative signed scale at the
        // SCALE_SYMBOL slot) and ordinary healthy groups.
        let mut g: Vec<f32> = (0..128).map(|i| (i as f32 - 64.0) * 0.01).collect();
        g[9] = -9.5; // negative absmax
        let (sb, _) = encode_group(&g, &meta, PatternSelector::MseOptimal);
        let (out, _) = decode_appending(&sb, &meta).unwrap();
        assert!(out[9] < 0.0, "signed absmax lost its sign: {}", out[9]);
        for g in t.groups(128) {
            let (b, _) = encode_group(g, &meta, PatternSelector::MseOptimal);
            decode_appending(&b, &meta).unwrap();
        }

        // Clipped tail: uniform 4-bit books force 128×4 = 512 bits >
        // budget, and every value past the clip point is the table's
        // tail fill.
        let mut clip_meta = meta.clone();
        let uniform = ecco_entropy::Codebook::from_frequencies(&[1u64; 16], 4, 4).unwrap();
        for row in &mut clip_meta.books {
            for b in row {
                *b = uniform.clone();
            }
        }
        let (cb, cinfo) = encode_group(&g, &clip_meta, PatternSelector::MseOptimal);
        assert!(cinfo.clipped_symbols > 0, "clipping must occur");
        let (out, dinfo) = decode_appending(&cb, &clip_meta).unwrap();
        let fill = table_for(&cb, &clip_meta).tail_fill();
        assert!(out[dinfo.decoded_symbols..]
            .iter()
            .all(|v| v.to_bits() == fill.to_bits()));
    }

    #[test]
    fn decode_skips_nan_outliers() {
        // Plant outliers so padding space exists, then corrupt the first
        // padded outlier's FP8 byte into NaN: decoding must skip it.
        let mut data = Vec::new();
        for gidx in 0..64usize {
            let mut g = vec![0.01f32; 128];
            g[(gidx * 7) % 128] = 8.0;
            g[(gidx * 13 + 1) % 128] = 6.0;
            data.extend_from_slice(&g);
        }
        let t = Tensor::from_vec(64, 128, data);
        let meta = meta_for(&t);
        let mut g = vec![0.01f32; 128];
        g[5] = 8.0;
        g[77] = 6.0;
        let (block, info) = encode_group(&g, &meta, PatternSelector::MseOptimal);
        assert!(info.padded_outliers > 0, "need padding space: {info:?}");
        let data_end = info.header_bits + info.data_bits;

        let mut bytes = *block.as_bytes();
        // First outlier: 7-bit position, then the 8-bit FP8 value → NaN.
        set_bits(&mut bytes, data_end + 7, 8, 0x7F);
        let nan_block = Block64::from_bytes(bytes);
        let (_, dinfo) = decode_appending(&nan_block, &meta).unwrap();
        assert_eq!(
            dinfo.applied_outliers,
            info.padded_outliers - 1,
            "NaN outlier must be skipped"
        );
    }

    #[test]
    fn decode_skips_out_of_range_outlier_positions() {
        // The format fixes encoding groups at 128, so a 7-bit outlier
        // position is always in range there — the `pos < group_size`
        // guard protects decode-side mismatches (a revived snapshot
        // claiming a smaller group). Craft that: uniform 4-bit books
        // make every 4-bit window a valid code, so decoding the same
        // block under `group_size = 64` stops cleanly after exactly
        // 64 × 4 = 256 data bits, and everything after is the outlier
        // region, which we rewrite deterministically.
        let t = SynthSpec::for_kind(TensorKind::Weight, 8, 512)
            .seeded(21)
            .generate();
        let mut meta = meta_for(&t);
        let uniform = ecco_entropy::Codebook::from_frequencies(&[1u64; 16], 4, 4).unwrap();
        for row in &mut meta.books {
            for b in row {
                *b = uniform.clone();
            }
        }
        let g: Vec<f32> = (0..128).map(|i| (i as f32 - 64.0) * 0.01).collect();
        let (block, _) = encode_group(&g, &meta, PatternSelector::MseOptimal);
        let data_start = parse_block_header(&block, &meta).unwrap().data_start;

        let mut small_meta = meta.clone();
        small_meta.group_size = 64;
        let data_end = data_start + 64 * 4;
        let n_out = (BLOCK_BITS - data_end) / OUTLIER_BITS;
        assert!(n_out >= 2, "need at least two outlier slots: {n_out}");
        let mut bytes = *block.as_bytes();
        // Slot 0: position 100 ≥ group_size 64 with a valid FP8 value —
        // must be skipped. Slot 1: in-range position 10 — must apply.
        // Remaining slots: NaN values — must be skipped.
        set_bits(&mut bytes, data_end, 7, 100);
        set_bits(&mut bytes, data_end + 7, 8, 0x30);
        set_bits(&mut bytes, data_end + OUTLIER_BITS, 7, 10);
        set_bits(&mut bytes, data_end + OUTLIER_BITS + 7, 8, 0x30);
        for slot in 2..n_out {
            set_bits(&mut bytes, data_end + slot * OUTLIER_BITS + 7, 8, 0x7F);
        }
        let crafted = Block64::from_bytes(bytes);
        let (out, dinfo) = decode_appending(&crafted, &small_meta).unwrap();
        assert_eq!(out.len(), 64);
        assert_eq!(
            dinfo.applied_outliers, 1,
            "only the in-range, non-NaN outlier may apply"
        );
        let want = ecco_numerics::round_f16(
            small_meta
                .tensor_scale
                .expand(F8E4M3::from_bits(0x30).to_f32()),
        );
        assert_eq!(out[10].to_bits(), want.to_bits());
    }

    /// Deterministic f32 fuzz stream for the value-table formula test.
    fn fuzz_f32(state: &mut u64) -> f32 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        f32::from_bits((*state >> 32) as u32)
    }

    #[test]
    fn value_table_matches_reconstruction_formula() {
        // Slot by slot: every centroid symbol reconstructs to
        // round_f16(centroid × |scale|), SCALE_SYMBOL carries the signed
        // scale and the tail fill is the rounded zero centroid — on
        // zero, negative, subnormal and fuzzed finite scales.
        let t = SynthSpec::for_kind(TensorKind::Weight, 8, 512)
            .seeded(23)
            .generate();
        let meta = meta_for(&t);
        let mut scales = vec![
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            f32::MIN_POSITIVE / 4.0,
            -f32::MIN_POSITIVE / 4.0,
            6.0e-8,
            -6.0e-8,
            65504.0,
            -65504.0,
        ];
        let mut state = 0x5CA1Eu64;
        while scales.len() < 64 {
            let s = fuzz_f32(&mut state);
            if s.is_finite() {
                scales.push(s);
                scales.push(ecco_numerics::round_f16(s));
            }
        }
        for pattern in &meta.patterns {
            let zero = pattern.centroids()[pattern.zero_symbol() as usize];
            for &scale in &scales {
                let table = BlockValueTable::new(pattern, scale);
                for (s, &c) in pattern.centroids().iter().enumerate() {
                    let want = ecco_numerics::round_f16(c * scale.abs());
                    assert_eq!(
                        table.value(s as u16).to_bits(),
                        want.to_bits(),
                        "symbol {s} at scale {scale:e}"
                    );
                }
                assert_eq!(table.value(SCALE_SYMBOL).to_bits(), scale.to_bits());
                let fill = ecco_numerics::round_f16(zero * scale.abs());
                assert_eq!(table.tail_fill().to_bits(), fill.to_bits());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn block_always_64_bytes_and_stats_consistent(seed in 0u64..1000) {
            let t = SynthSpec::for_kind(TensorKind::KCache, 4, 512).seeded(seed).generate();
            let meta = meta_for(&t);
            for g in t.groups(128) {
                let (block, info) = encode_group(g, &meta, PatternSelector::MinMax);
                prop_assert_eq!(block.as_bytes().len(), 64);
                let used = info.header_bits + info.data_bits
                    + info.padded_outliers * OUTLIER_BITS;
                prop_assert!(used <= 512, "used {} bits", used);
                let (out, dinfo) = decode_group(&block, &meta).unwrap();
                prop_assert_eq!(out.len(), 128);
                prop_assert_eq!(dinfo.clipped_symbols, info.clipped_symbols);
                prop_assert_eq!(dinfo.applied_outliers, info.padded_outliers);
            }
        }
    }
}
