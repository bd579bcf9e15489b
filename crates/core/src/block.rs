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
//! The layout lives in one writer and one reader: [`write_block`] writes
//! it, and the reader's prologue (cursor, header checks, book, value
//! table) and epilogue (clipped-tail fill, padded outliers) read it.
//! Encoders supply only their selection (pattern, codebook, symbols,
//! ranked outliers) and decoders only their symbol walk — the codec's
//! ([`encode_group_scratch`], [`decode_group_into`]) and the hardware
//! models' in `ecco_hw`, through [`read_block`], alike. The reader views
//! each block once as an [`ecco_bits::BlockCursor`] and reads everything
//! through its windows: the header fields, the symbols (the walk gets
//! the same cursor) and the padded outliers. The tensor's power-of-two
//! scale is a parameter of the reader, so a batch decode binds one scale
//! per tensor to one shared metadata. The codec's walk
//! ([`SymbolDecoder::decode_values`](ecco_entropy::SymbolDecoder::decode_values))
//! reads the symbols through a shift register, one 57-bit window per run
//! of codes, resolving up to two codes per probe of the book's pair
//! table; its batch decode runs two blocks' walks at once
//! ([`SymbolDecoder::decode_values_pair`](ecco_entropy::SymbolDecoder::decode_values_pair))
//! between the same prologues and epilogues.

use ecco_bits::{Block64, BlockCursor, BLOCK_BITS};
use ecco_entropy::Codebook;
use ecco_numerics::{Po2Scale, F8E4M3};
use ecco_tensor::GROUP_SIZE;

use crate::metadata::{PatternSelector, TensorMetadata};
use crate::pattern::{SCALE_SYMBOL, SYMBOL_COUNT};
use crate::select::{with_thread_scratch, GroupScratch};

/// Bits per padded outlier: 7-bit position + 8-bit FP8 value.
pub const OUTLIER_BITS: usize = 15;

/// The most outliers a block can pad: with the 8-bit SF and 128 data
/// codes of at least 2 bits each (the envelope every data book lies in,
/// see [`TensorMetadata::from_parts`]), at most `512 − 8 − 256 = 248`
/// bits are left, 16 slots. Encoders rank no more candidates than this.
pub const MAX_PAD_SLOTS: usize = (BLOCK_BITS - 8 - 128 * 2) / OUTLIER_BITS;

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
    /// A codebook handed to metadata construction cannot be used: its
    /// lengths form no canonical code, its stored codes or `max_len` are
    /// not the ones its lengths derive, or a data book lies outside the
    /// format's 16-symbol, 2..=8-bit envelope. Raised only where metadata
    /// is built (wire ingest, [`TensorMetadata::from_parts`]), never by a
    /// block decode.
    CorruptCodebook,
    /// Metadata or a container is structurally inconsistent: a bad magic
    /// or version, pattern and codebook counts that disagree or leave
    /// their ranges, an `ID_HF` width that cannot name every book, a
    /// pattern-id code short of the pattern count, unsorted centroids, or
    /// a container directory that lies. Raised only at ingest or
    /// construction, never by a block decode.
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
/// Encodes under the metadata's own scale, like [`decode_group`] decodes.
///
/// # Panics
///
/// Panics if `group.len()` is not [`GROUP_SIZE`].
pub fn encode_group(
    group: &[f32],
    meta: &TensorMetadata,
    selector: PatternSelector,
) -> (Block64, EncodedGroupInfo) {
    let scale = meta.tensor_scale();
    with_thread_scratch(|s| encode_group_scratch(group, meta, scale, selector, s))
}

/// Compresses one group through a caller-provided [`GroupScratch`]: the
/// group is normalized into the scratch's own buffer, the selector picks
/// the pattern *and* quantizes the group in one pass — MinMax straight
/// off the group with no sort, MseOptimal by the fused sweep over its
/// sorted values — and the winner's symbols are emitted straight from
/// the scratch: no per-group allocation, no re-quantization. Outliers are
/// ranked only for blocks that pad, and only as many as the block has
/// slots for.
///
/// `scale` is the tensor's power-of-two scale, as in [`read_block`]; the
/// metadata's own is not read.
///
/// # Panics
///
/// Panics if `group.len()` is not [`GROUP_SIZE`].
pub fn encode_group_scratch(
    group: &[f32],
    meta: &TensorMetadata,
    scale: Po2Scale,
    selector: PatternSelector,
    scratch: &mut GroupScratch,
) -> (Block64, EncodedGroupInfo) {
    assert_eq!(group.len(), GROUP_SIZE, "group size mismatch");
    scratch.normalized(group, scale, |ng, scratch| {
        let kp = meta.select_pattern_scratch(ng, selector, scratch);
        encode_selected(group, ng, meta, scale, kp, scratch)
    })
}

/// Fused activation-aware compression of one group: selects the pattern
/// minimizing the *weighted* squared error (`group_w2[i]` = squared
/// channel magnitude of value `i`) and encodes with the winner's symbols
/// from the same sweep — the offline weight path's hot loop. `scale` is
/// the tensor's, as in [`encode_group_scratch`].
///
/// # Panics
///
/// Panics if `group.len()` is not [`GROUP_SIZE`] or `group_w2` is
/// shorter than the group.
pub fn encode_group_weighted_scratch(
    group: &[f32],
    meta: &TensorMetadata,
    scale: Po2Scale,
    group_w2: &[f32],
    scratch: &mut GroupScratch,
) -> (Block64, EncodedGroupInfo) {
    assert_eq!(group.len(), GROUP_SIZE, "group size mismatch");
    scratch.normalized(group, scale, |ng, scratch| {
        let kp = meta.select_pattern_weighted_scratch(ng, group_w2, scratch);
        encode_selected(group, ng, meta, scale, kp, scratch)
    })
}

/// The codec's selection after either selector picked pattern `kp`: the
/// winner's symbols in group order as the scratch holds them (step 5),
/// the shortest of the pattern's codebooks in one packed-lane pass (step
/// 8, exact totals, ties to the lowest book — bit-identical to `H`
/// separate `encoded_len` sweeps), and the ranking of the group's largest
/// values as padding candidates, which [`write_block`] runs for the slots
/// it has. [`write_block`] does the rest.
fn encode_selected(
    group: &[f32],
    ng: &crate::group::NormalizedGroup,
    meta: &TensorMetadata,
    scale: Po2Scale,
    kp: usize,
    scratch: &GroupScratch,
) -> (Block64, EncodedGroupInfo) {
    let symbols = scratch.symbols();
    let (book_id, _) = meta
        .len_table(kp)
        .expect("the selected pattern has a codebook row")
        .best(symbols);
    write_block(meta, scale, kp, book_id, ng.sf_bits, symbols, |slots| {
        rank_outliers(group, ng.max_pos, slots)
    })
}

/// A block's 512 bits while [`write_block`] fills them: eight words,
/// MSB first, and a ninth that catches whatever a field placed across
/// bit 512 spills. The block drops it: that is the clip.
struct BlockWords([u64; 9]);

impl BlockWords {
    /// ORs in `bits`, a field left-aligned in its word (every bit below
    /// the field zero), starting at bit `pos` (< 512).
    #[inline]
    fn put(&mut self, pos: usize, bits: u64) {
        debug_assert!(pos < BLOCK_BITS, "fields start inside the block");
        let word = (pos >> 6) & 7;
        let spread = (u128::from(bits) << 64) >> (pos & 63);
        self.0[word] |= (spread >> 64) as u64;
        self.0[word + 1] |= spread as u64;
    }

    /// The first 512 bits as a block.
    fn into_block(self) -> Block64 {
        let mut bytes = [0u8; BLOCK_BITS / 8];
        for (chunk, word) in bytes.chunks_exact_mut(8).zip(self.0) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        Block64::from_bytes(bytes)
    }
}

/// Codes per data chunk: eight codes of at most 8 bits fill one word.
const CODES_PER_WORD: usize = 8;

/// The one block writer (steps 8–9, Fig. 6a): writes the header
/// `| ID_HF | SF | ID_KP |`, then `symbols` under codebook `book_id` of
/// pattern `kp`. If the codes overflow bit 512 the stream is clipped
/// mid-code there (paper: "we simply clip the excess"); otherwise the
/// leftover space holds `k = ⌊(512 − data_end) / 15⌋` padded outliers,
/// each a 7-bit position and an FP8 value.
///
/// Every choice belongs to the caller: the codec passes its selector's
/// choice, the hardware compressor (`ecco_hw`) the output of its sorter,
/// pattern selector and parallel encoders. Only the writer knows `k`, so
/// the outliers come from `rank_outliers(k)`, called once and only when
/// the block pads (`k > 0`, nothing clipped). It returns `(position,
/// value)` pairs, most important first, of which the first `k` are
/// written. Under any book inside the format's 2..=8-bit code envelope
/// `k` is at most [`MAX_PAD_SLOTS`]. Outliers are compressed under
/// `scale`, the tensor's power-of-two scale.
///
/// The bits go into eight stack words: the codes eight at a time, each
/// eight gathered into one left-aligned word (at most 64 bits) and placed
/// at its offset. Placing stops once the stream reaches bit 512; the code
/// that straddles it is cut there, and only then does the writer walk the
/// code lengths to count the codes that fit.
///
/// # Panics
///
/// Panics if `kp` or `book_id` is out of range, a symbol lies outside
/// the book's alphabet, or a written outlier position exceeds 7 bits.
pub fn write_block<I: IntoIterator<Item = (usize, f32)>>(
    meta: &TensorMetadata,
    scale: Po2Scale,
    kp: usize,
    book_id: usize,
    sf_bits: u8,
    symbols: &[u16],
    rank_outliers: impl FnOnce(usize) -> I,
) -> (Block64, EncodedGroupInfo) {
    let book = &meta.books()[kp][book_id];
    let lens: &[u8; SYMBOL_COUNT] = book.lengths().try_into().expect("a data book");
    let codes: &[u16; SYMBOL_COUNT] = book.codes().try_into().expect("a data book");
    // Symbols index the 16-entry tables through a 4-bit mask, once every
    // symbol is known to fit it.
    let all = symbols.iter().fold(0u16, |acc, &s| acc | s);
    assert!(
        usize::from(all) < SYMBOL_COUNT,
        "symbol outside the book's alphabet"
    );
    let sym = |s: u16| usize::from(s) & (SYMBOL_COUNT - 1);

    let mut words = BlockWords([0; 9]);
    let kp_sym = u16::try_from(kp).expect("a pattern id");
    let kp_len = u32::from(meta.pattern_code().code_len(kp_sym));
    let header = ((book_id as u64) << 8 | u64::from(sf_bits)) << kp_len
        | u64::from(meta.pattern_code().code(kp_sym));
    let header_bits = (meta.id_hf_bits() + 8 + kp_len) as usize;
    words.put(0, header << (64 - header_bits));

    // Fit or clip: place the codes a word's worth at a time until the
    // stream reaches bit 512; the spill word drops whatever crosses it.
    let mut end = header_bits;
    let mut chunks = symbols.chunks(CODES_PER_WORD);
    for chunk in chunks.by_ref() {
        let (mut bits, mut len) = (0u64, 0u32);
        for &s in chunk {
            len += u32::from(lens[sym(s)]);
            bits |= u64::from(codes[sym(s)]) << (64 - len);
        }
        words.put(end, bits);
        end += len as usize;
        if end >= BLOCK_BITS {
            break;
        }
    }
    let clipped = end > BLOCK_BITS || chunks.next().is_some();
    let mut info = EncodedGroupInfo {
        pattern_id: kp,
        book_id,
        header_bits,
        data_bits: end.min(BLOCK_BITS) - header_bits,
        clipped_symbols: 0,
        padded_outliers: 0,
    };

    if clipped {
        // The codes that fit whole; the next one was cut at bit 512.
        let mut at = header_bits;
        let full = symbols
            .iter()
            .take_while(|&&s| {
                at += usize::from(lens[sym(s)]);
                at <= BLOCK_BITS
            })
            .count();
        info.clipped_symbols = symbols.len() - full;
    } else {
        // Step 9: pad the leftover space with the next-largest values.
        let slots = (BLOCK_BITS - end) / OUTLIER_BITS;
        if slots > 0 {
            for (pos, val) in rank_outliers(slots).into_iter().take(slots) {
                assert!(pos < GROUP_SIZE, "outlier position {pos} exceeds 7 bits");
                let f8 = F8E4M3::from_f32(scale.compress(val));
                let field = (pos as u64) << 8 | u64::from(f8.to_bits());
                words.put(end, field << (64 - OUTLIER_BITS));
                end += OUTLIER_BITS;
                info.padded_outliers += 1;
            }
        }
    }
    (words.into_block(), info)
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

/// Parses and validates a block's header fields against `meta`.
///
/// # Errors
///
/// The block's own field errors, in the precedence order every decoder
/// reports: [`DecodeErrorKind::BadPatternId`] for an `ID_KP` that decodes
/// to no pattern, then [`DecodeErrorKind::BadBookId`] for an `ID_HF` past
/// `H`, then [`DecodeErrorKind::BadScaleFactor`] for a NaN scale factor.
/// The metadata itself was checked when it was built.
pub fn parse_block_header(
    block: &Block64,
    meta: &TensorMetadata,
) -> Result<BlockHeader, DecodeError> {
    parse_header(&block.cursor(), meta)
}

/// [`parse_block_header`] on a block [`read_block`] has already viewed.
fn parse_header(cur: &BlockCursor, meta: &TensorMetadata) -> Result<BlockHeader, DecodeError> {
    let book_id = cur.window(0, meta.id_hf_bits()) as usize;
    let sf_at = meta.id_hf_bits() as usize;
    let sf_bits = cur.window(sf_at, 8) as u8;
    let mut data_start = sf_at + 8;
    let kp = meta
        .pattern_code()
        .symbol_decoder()
        .decode_symbol(cur, &mut data_start)
        .ok_or(DecodeError::new(DecodeErrorKind::BadPatternId))? as usize;
    if kp >= meta.num_patterns() {
        return Err(DecodeErrorKind::BadPatternId.into());
    }
    if book_id >= meta.books_per_pattern() {
        return Err(DecodeErrorKind::BadBookId.into());
    }
    if F8E4M3::from_bits(sf_bits).is_nan() {
        return Err(DecodeErrorKind::BadScaleFactor.into());
    }
    Ok(BlockHeader {
        book_id,
        kp,
        sf_bits,
        data_start,
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
    /// Panics if `sym >= SYMBOL_COUNT`; no data codebook emits a symbol
    /// past that bound.
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

/// Decompresses one block back into [`GROUP_SIZE`] FP16 values.
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
    let mut values = Vec::with_capacity(GROUP_SIZE);
    let info = decode_group_into(block, meta, &mut values)?;
    Ok((values, info))
}

/// The codec's decoder on one block: the format's reader (the prologue
/// and epilogue [`read_block`] runs) under the metadata's own scale with
/// the codec's symbol walk — the book's
/// [`SymbolDecoder::decode_values`](ecco_entropy::SymbolDecoder::decode_values)
/// shifts codes out of a register refilled from 57-bit windows of the
/// block's cursor, up to two per probe of the book's pair table, and
/// gathers each symbol through the block's [`BlockValueTable`] straight
/// into `values`, with no intermediate symbol buffer or second
/// reconstruction pass. **Appends** [`GROUP_SIZE`] FP16 values to
/// `values`; on error nothing is appended. The codecs' batch decode walks
/// blocks two at a time instead, and comes to exactly the same values.
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
    decode_group_scaled_into(block, meta, meta.tensor_scale(), values)
}

/// [`decode_group_into`] under the tensor scale `scale` instead of the
/// metadata's own: the codec's single walk, which the run decoder
/// ([`decode_groups_scaled_into`]) takes for an odd last block and to
/// locate a bad header.
pub(crate) fn decode_group_scaled_into(
    block: &Block64,
    meta: &TensorMetadata,
    scale: Po2Scale,
    values: &mut Vec<f32>,
) -> Result<DecodedGroupInfo, DecodeError> {
    let open = open_block(block, meta, scale)?;
    // The walk writes two values per probe, so it gets the group's whole
    // room; the epilogue fills what a clipped tail left.
    let base = values.len();
    values.resize(base + GROUP_SIZE, 0.0);
    let group = &mut values[base..];
    let (end, decoded) = open.book.symbol_decoder().decode_values(
        &open.cur,
        open.data_start,
        |s| open.table.value(s),
        group,
    );
    Ok(open.close(end, decoded, scale, group))
}

/// The codec's paired reader: both blocks' prologues, then one
/// [`SymbolDecoder::decode_values_pair`](ecco_entropy::SymbolDecoder::decode_values_pair)
/// over both, each block under its own book and value table, then both
/// epilogues. **Appends** `2 ×` [`GROUP_SIZE`] values, exactly those of
/// two [`decode_group_scaled_into`] calls; when either header fails,
/// nothing is appended.
fn decode_pair_scaled_into(
    pair: &[Block64],
    meta: &TensorMetadata,
    scale: Po2Scale,
    values: &mut Vec<f32>,
) -> Result<(), DecodeError> {
    let a = open_block(&pair[0], meta, scale)?;
    let b = open_block(&pair[1], meta, scale)?;
    let base = values.len();
    values.resize(base + 2 * GROUP_SIZE, 0.0);
    let (ga, gb) = values[base..].split_at_mut(GROUP_SIZE);
    let tables = [&a.table, &b.table];
    let [(end_a, decoded_a), (end_b, decoded_b)] = a.book.symbol_decoder().decode_values_pair(
        &b.book.symbol_decoder(),
        [&a.cur, &b.cur],
        [a.data_start, b.data_start],
        |side, s| tables[side].value(s),
        [&mut ga[..], &mut gb[..]],
    );
    a.close(end_a, decoded_a, scale, ga);
    b.close(end_b, decoded_b, scale, gb);
    Ok(())
}

/// The codec's run decoder, behind every codec decode: **appends**
/// [`GROUP_SIZE`] values per block of `blocks`, in order, under the
/// tensor scale `scale`. It walks the blocks two at a time through the
/// paired reader, so two blocks' symbol walks are in flight at once, and
/// takes the single walk ([`decode_group_scaled_into`]) only for an odd
/// last block or to re-read a pair whose header check failed, so an
/// error lands on its own block. Every value is that of the single walk
/// on each block in turn.
///
/// # Errors
///
/// The first failing block's index in `blocks` and its error; the values
/// of the blocks before it have been appended, and nothing of it or
/// after it.
pub(crate) fn decode_groups_scaled_into(
    blocks: &[Block64],
    meta: &TensorMetadata,
    scale: Po2Scale,
    values: &mut Vec<f32>,
) -> Result<(), (usize, DecodeError)> {
    let mut pairs = blocks.chunks_exact(2);
    for (k, pair) in pairs.by_ref().enumerate() {
        if decode_pair_scaled_into(pair, meta, scale, values).is_err() {
            for (i, block) in pair.iter().enumerate() {
                decode_group_scaled_into(block, meta, scale, values).map_err(|e| (2 * k + i, e))?;
            }
        }
    }
    if let [last] = pairs.remainder() {
        decode_group_scaled_into(last, meta, scale, values).map_err(|e| (blocks.len() - 1, e))?;
    }
    Ok(())
}

/// A block the reader has opened: its cursor, its header checked, its
/// book, where its codes start and its [`BlockValueTable`].
struct OpenBlock<'m> {
    cur: BlockCursor,
    book: &'m Codebook,
    data_start: usize,
    table: BlockValueTable,
}

/// The reader's prologue: views the block once as a [`BlockCursor`],
/// parses and validates the header, and builds the block's value table
/// under the tensor scale `scale`.
fn open_block<'m>(
    block: &Block64,
    meta: &'m TensorMetadata,
    scale: Po2Scale,
) -> Result<OpenBlock<'m>, DecodeError> {
    let cur = block.cursor();
    let header = parse_header(&cur, meta)?;
    let sf = F8E4M3::from_bits(header.sf_bits);
    let scale_signed = ecco_numerics::round_f16(scale.expand(sf.to_f32()));
    Ok(OpenBlock {
        cur,
        book: &meta.books()[header.kp][header.book_id],
        data_start: header.data_start,
        table: BlockValueTable::new(&meta.patterns()[header.kp], scale_signed),
    })
}

impl OpenBlock<'_> {
    /// The reader's epilogue on a block whose walk put `decoded` values
    /// at the front of `group` and ended at bit `data_end`: fills the
    /// clipped tail with the zero centroid and, when nothing was clipped,
    /// applies the padded outliers.
    ///
    /// # Panics
    ///
    /// Panics if `decoded` passes [`GROUP_SIZE`] or `group` is shorter.
    fn close(
        &self,
        data_end: usize,
        decoded: usize,
        scale: Po2Scale,
        group: &mut [f32],
    ) -> DecodedGroupInfo {
        assert!(decoded <= GROUP_SIZE, "the walk overran its group");
        group[decoded..GROUP_SIZE].fill(self.table.tail_fill());
        // Outliers exist only when nothing was clipped.
        let applied = match decoded {
            GROUP_SIZE => apply_outliers(&self.cur, data_end, scale, group),
            _ => 0,
        };
        DecodedGroupInfo {
            decoded_symbols: decoded,
            clipped_symbols: GROUP_SIZE - decoded,
            applied_outliers: applied,
        }
    }
}

/// The block reader for any symbol walk (Fig. 6a): the prologue views the
/// block once as a [`BlockCursor`], parses and validates the header and
/// builds the block's [`BlockValueTable`]; `walk` gets the cursor; the
/// epilogue fills the clipped tail with the zero centroid and applies the
/// padded outliers — **appending** [`GROUP_SIZE`] values to `values`. On
/// error nothing is appended and `walk` never runs. It checks nothing
/// about `meta`, whose books were checked when it was built. The codec's
/// own readers ([`decode_group_into`] and the paired reader of its batch
/// decode) share the same prologue and epilogue, so the 64-byte layout
/// is read in one place.
///
/// `scale` is the tensor's power-of-two scale: the block's scale factor
/// and its padded outliers are expanded by it. Everything else comes from
/// the shared `meta` (its own scale is not read), so a batch of
/// tensors decodes under one metadata and one scale per tensor.
///
/// `walk(book, cur, data_start, table, values)` resolves symbols from
/// bit `data_start` of `cur` on, appends the value of each (at most
/// [`GROUP_SIZE`]) to `values`, and returns the bit just past the
/// last one plus whatever the walk reports. The hardware model
/// (`ecco_hw`) passes its 64×8 speculative walk; everything else about
/// the format lives here.
///
/// # Errors
///
/// The [`parse_block_header`] errors.
///
/// # Panics
///
/// Panics if `walk` appends more than [`GROUP_SIZE`] values.
pub fn read_block<R>(
    block: &Block64,
    meta: &TensorMetadata,
    scale: Po2Scale,
    values: &mut Vec<f32>,
    walk: impl FnOnce(&Codebook, &BlockCursor, usize, &BlockValueTable, &mut Vec<f32>) -> (usize, R),
) -> Result<(DecodedGroupInfo, R), DecodeError> {
    let open = open_block(block, meta, scale)?;
    let base = values.len();
    values.reserve(GROUP_SIZE);
    let (data_end, report) = walk(open.book, &open.cur, open.data_start, &open.table, values);
    let decoded = values.len() - base;
    assert!(decoded <= GROUP_SIZE, "the walk overran its group");
    values.resize(base + GROUP_SIZE, 0.0);
    let info = open.close(data_end, decoded, scale, &mut values[base..]);
    Ok((info, report))
}

/// The reader's last stage on a block whose [`GROUP_SIZE`] codes end at
/// bit `data_end` of `cur`: writes each padded outlier slot after them
/// (`⌊(512 − data_end) / 15⌋` of them) into `group` at its position,
/// expanded by the tensor scale `scale` and FP16-rounded, skipping the
/// slots whose FP8 value is NaN, and returns how many it applied.
/// The reader's epilogue runs it only on blocks with nothing clipped.
///
/// # Panics
///
/// Panics if `group` is shorter than [`GROUP_SIZE`]: a 7-bit position
/// names any of a group's 128 values.
pub fn apply_outliers(
    cur: &BlockCursor,
    data_end: usize,
    scale: Po2Scale,
    group: &mut [f32],
) -> usize {
    let group = &mut group[..GROUP_SIZE];
    let mut applied = 0;
    for slot in 0..BLOCK_BITS.saturating_sub(data_end) / OUTLIER_BITS {
        let at = data_end + slot * OUTLIER_BITS;
        let pos = cur.window(at, 7) as usize;
        let f8 = F8E4M3::from_bits(cur.window(at + 7, 8) as u8);
        if !f8.is_nan() {
            group[pos] = ecco_numerics::round_f16(scale.expand(f8.to_f32()));
            applied += 1;
        }
    }
    applied
}

/// The ranking's magnitude buckets, on the top 16 bits of `|x|`: 8
/// exponent bits and 2 mantissa bits, four buckets per octave.
const BUCKET_SHIFT: u32 = 5;

/// Buckets the ranking searches, from the largest candidate's down;
/// everything lower shares the last.
const BUCKETS: i16 = 32;

/// The padding order of step 9, cut to the block's `k` slots: the
/// group's positions and values other than the absmax, by |value|
/// descending (IEEE total order, so a NaN ranks above ±inf) with ties to
/// the lower position — the first `k` of them, and never more than
/// [`MAX_PAD_SLOTS`]. `k = ⌊(512 − data_end) / 15⌋` is what
/// [`write_block`] finds left after the codes, about 8 on K-cache blocks.
/// The codec hands it to [`write_block`] as
/// `|k| rank_outliers(group, max_pos, k)`, with `max_pos` the
/// [`NormalizedGroup::max_pos`](crate::NormalizedGroup::max_pos) of the
/// group.
///
/// Ranks on the stack, without ordering all 127 candidates. The top 16
/// bits of each magnitude go into one `i16` lane each, and packed passes
/// over them find the largest and then, by bisection, the fewest
/// magnitude buckets from the largest down that hold `k` values. Every
/// value in those buckets (about ten on a K-cache group, whose absmax
/// often lies octaves above the rest) ranks above every value outside
/// them; only they are sorted.
///
/// # Panics
///
/// Panics if the group is longer than the 128 positions an outlier's
/// 7-bit field can name, or `max_pos` is not one of its positions.
pub fn rank_outliers(
    group: &[f32],
    max_pos: usize,
    k: usize,
) -> impl Iterator<Item = (usize, f32)> + '_ {
    assert!(group.len() <= GROUP_SIZE, "positions fit 7 bits");
    let k = k.min(group.len() - 1).min(MAX_PAD_SLOTS);
    // |x|'s bits, the sign cleared: their unsigned order is `total_cmp`'s
    // on |x|, so every NaN lies above ±inf. The top half of each fits an
    // `i16` lane; -1 marks the absmax and the positions past the group.
    let mag = |x: f32| x.to_bits() & 0x7FFF_FFFF;
    let mut high = [-1i16; GROUP_SIZE];
    for (h, &x) in high.iter_mut().zip(group) {
        *h = (mag(x) >> 16) as i16;
    }
    high[max_pos] = -1;
    let top = high.iter().fold(0, |t, &h| t.max(h)) >> BUCKET_SHIFT;
    // The least high half in the top `cut + 1` buckets (the last takes
    // everything), and the fewest such buckets that hold `k` values.
    let floor_of = |cut: i16| match cut {
        c if c == BUCKETS - 1 => 0,
        c => (top - c).max(0) << BUCKET_SHIFT,
    };
    let held = |floor: i16| high.iter().fold(0u16, |n, &h| n + u16::from(h >= floor));
    let (mut lo, mut hi) = (0, BUCKETS - 1);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if usize::from(held(floor_of(mid))) >= k {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let floor = floor_of(lo);
    // One key per value in them: the magnitude high, the complemented
    // position low, so descending key order is exactly a stable sort by
    // |x| descending.
    let mut keys = [0u64; GROUP_SIZE];
    let mut n = 0;
    for (at, lanes) in high.chunks_exact(16).enumerate() {
        let mut bits = lanes
            .iter()
            .enumerate()
            .fold(0u32, |b, (i, &h)| b | u32::from(h >= floor) << i);
        while bits != 0 {
            let pos = at * 16 + bits.trailing_zeros() as usize;
            keys[n] = u64::from(mag(group[pos])) << 32 | u64::from(!(pos as u32));
            n += 1;
            bits &= bits - 1;
        }
    }
    let candidates = &mut keys[..n];
    candidates.sort_unstable_by(|a, b| b.cmp(a));
    let mut ranked = [0u8; MAX_PAD_SLOTS];
    for (r, &key) in ranked.iter_mut().zip(&candidates[..k]) {
        *r = !(key as u32) as u8;
    }
    ranked.into_iter().take(k).map(move |pos| {
        let pos = usize::from(pos);
        (pos, group[pos])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{normalize_group, EccoConfig, GroupScratch, PatternSelector, TensorMetadata};
    use ecco_bits::BitWriter;
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

    /// `meta` with every data book the uniform 4-bit book, whose 128 × 4
    /// bits overflow any block: every group clips.
    fn with_uniform_books(meta: &TensorMetadata) -> TensorMetadata {
        let uniform = Codebook::from_lengths(&[4; 16]).unwrap();
        TensorMetadata::from_parts(
            meta.tensor_scale(),
            meta.patterns().to_vec(),
            vec![vec![uniform; meta.books_per_pattern()]; meta.num_patterns()],
            meta.pattern_code().clone(),
            meta.id_hf_bits(),
        )
        .unwrap()
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
        let meta = with_uniform_books(&meta_for(&t));
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
            let ng = normalize_group(g, meta.tensor_scale());
            let kp = meta.select_pattern(&ng, PatternSelector::MseOptimal);
            let symbols = ng.symbols(&meta.patterns()[kp]);
            let baseline = meta.books()[kp]
                .iter()
                .enumerate()
                .map(|(i, b)| (i, b.encoded_len(&symbols)))
                .min_by_key(|&(_, len)| len)
                .unwrap();
            let table = ecco_entropy::MultiLenTable::new(&meta.books()[kp]);
            let totals: Vec<usize> = meta.books()[kp]
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
    /// append contract: on success exactly `GROUP_SIZE` values follow the
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
                assert_eq!(vals.len(), 3 + GROUP_SIZE);
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
        let scale = ecco_numerics::round_f16(meta.tensor_scale().expand(sf.to_f32()));
        BlockValueTable::new(&meta.patterns()[header.kp], scale)
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
        let clip_meta = with_uniform_books(&meta);
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
        for pattern in meta.patterns() {
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

    /// Today's writer, the oracle [`write_block`] is held to: the header
    /// and every code through a `BitWriter`, a room check per code (the
    /// first code that does not fit is cut at bit 512), then as many of
    /// `ranked` as the leftover slots hold.
    fn write_block_ref(
        meta: &TensorMetadata,
        scale: Po2Scale,
        kp: usize,
        book_id: usize,
        sf_bits: u8,
        symbols: &[u16],
        ranked: impl IntoIterator<Item = (usize, f32)>,
    ) -> (Block64, EncodedGroupInfo) {
        let book = &meta.books()[kp][book_id];
        let mut w = BitWriter::with_capacity(BLOCK_BITS);
        w.write_bits(book_id as u64, meta.id_hf_bits());
        w.write_bits(sf_bits as u64, 8);
        meta.pattern_code().encode_symbol(&mut w, kp as u16);
        let header_bits = w.bit_len();
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
            let slots = (BLOCK_BITS - w.bit_len()) / OUTLIER_BITS;
            for (pos, val) in ranked.into_iter().take(slots) {
                let f8 = F8E4M3::from_f32(scale.compress(val));
                w.write_bits(pos as u64, 7);
                w.write_bits(f8.to_bits() as u64, 8);
                info.padded_outliers += 1;
            }
        }
        (Block64::from_writer(w).unwrap(), info)
    }

    /// Writes one selection with [`write_block`] and the codec's ranking,
    /// and with the oracle writer and the full stable sort, and asserts
    /// the same bytes and report. Returns the report.
    fn assert_writers_agree(
        meta: &TensorMetadata,
        kp: usize,
        book_id: usize,
        sf_bits: u8,
        symbols: &[u16],
        group: &[f32],
    ) -> EncodedGroupInfo {
        let scale = meta.tensor_scale();
        let max_pos = normalize_group(group, scale).max_pos;
        let (got, info) = write_block(meta, scale, kp, book_id, sf_bits, symbols, |k| {
            rank_outliers(group, max_pos, k)
        });
        let oracle = rank_by_stable_sort(group, max_pos);
        let (want, want_info) = write_block_ref(meta, scale, kp, book_id, sf_bits, symbols, oracle);
        assert_eq!(info, want_info, "pattern {kp}, book {book_id}");
        assert_eq!(
            got.as_bytes(),
            want.as_bytes(),
            "pattern {kp}, book {book_id}"
        );
        info
    }

    /// Writes every group of `t` as the codec selects it under `meta`
    /// with both writers; returns how many groups padded and clipped.
    fn assert_writers_agree_on(
        t: &Tensor,
        meta: &TensorMetadata,
        selector: PatternSelector,
    ) -> (usize, usize) {
        let mut scratch = GroupScratch::new();
        let (mut padded, mut clipped) = (0, 0);
        for g in t.groups(GROUP_SIZE) {
            let ng = normalize_group(g, meta.tensor_scale());
            let kp = meta.select_pattern_scratch(&ng, selector, &mut scratch);
            let (book_id, _) = meta.len_table(kp).unwrap().best(scratch.symbols());
            let info = assert_writers_agree(meta, kp, book_id, ng.sf_bits, scratch.symbols(), g);
            padded += usize::from(info.padded_outliers > 0);
            clipped += usize::from(info.clipped_symbols > 0);
        }
        (padded, clipped)
    }

    /// A 16-symbol data book with codes of every length 2..=8: symbol
    /// `2(ℓ − 2)` is ℓ bits long for ℓ < 8, and 12..=15 are 8 bits.
    fn stepped_book() -> Codebook {
        Codebook::from_lengths(&[2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 8, 8]).unwrap()
    }

    /// `n` symbols of [`stepped_book`] whose codes total exactly `bits`
    /// (between `2n` and `8n`).
    fn symbols_totalling(n: usize, bits: usize) -> Vec<u16> {
        assert!(
            (2 * n..=8 * n).contains(&bits),
            "{bits} bits from {n} codes"
        );
        let mut extra = bits - 2 * n;
        (0..n)
            .map(|_| {
                let add = extra.min(6);
                extra -= add;
                2 * add as u16
            })
            .collect()
    }

    #[test]
    fn write_block_matches_bit_writer_loop() {
        // Calibrated K-cache and weight groups, as the codec selects them.
        for (kind, selector) in [
            (TensorKind::KCache, PatternSelector::MinMax),
            (TensorKind::Weight, PatternSelector::MseOptimal),
        ] {
            let t = SynthSpec::for_kind(kind, 32, 512).seeded(31).generate();
            let meta = meta_for(&t);
            let (padded, _) = assert_writers_agree_on(&t, &meta, selector);
            assert!(padded > 0, "{kind:?}: no group padded");
            // Uniform 4-bit books: 128 × 4 bits overflow every block.
            let (padded, clipped) =
                assert_writers_agree_on(&t, &with_uniform_books(&meta), selector);
            assert_eq!((padded, clipped), (0, t.len() / GROUP_SIZE), "{kind:?}");
        }

        // Crafted streams under a book with every code length, with H = 4
        // (a 2-bit ID_HF) and H = 1 (a 0-bit one): streams that end
        // exactly at bit 512, leave 14 and 15 bits, hold only 2-bit codes
        // (16 slots), cross bit 512 mid-code, end a code at bit 512 with
        // more to come, and overflow by half.
        let t = SynthSpec::for_kind(TensorKind::KCache, 8, 512)
            .seeded(32)
            .generate();
        let calibrated = meta_for(&t);
        let group: Vec<f32> = (0..GROUP_SIZE)
            .map(|i| ((i * 37 % 128) as f32 - 64.0) / 8.0 + if i % 5 == 0 { 0.5 } else { 0.0 })
            .collect();
        for h in [4, 1] {
            let meta = TensorMetadata::from_parts(
                calibrated.tensor_scale(),
                calibrated.patterns().to_vec(),
                vec![vec![stepped_book(); h]; calibrated.num_patterns()],
                calibrated.pattern_code().clone(),
                if h == 1 { 0 } else { 2 },
            )
            .unwrap();
            for kp in 0..meta.num_patterns() {
                let header = meta.id_hf_bits() as usize
                    + 8
                    + usize::from(meta.pattern_code().code_len(kp as u16));
                let fit = BLOCK_BITS - header;
                let mut ends_at_512 = symbols_totalling(127, fit);
                ends_at_512.push(0);
                let cases = [
                    (symbols_totalling(128, fit), 0, 0),
                    (symbols_totalling(128, fit - 14), 0, 0),
                    (symbols_totalling(128, fit - 15), 1, 0),
                    (symbols_totalling(128, 256), (fit - 256) / OUTLIER_BITS, 0),
                    (symbols_totalling(128, fit + 1), 0, 1),
                    (ends_at_512, 0, 1),
                    (symbols_totalling(128, 1024), 0, 128 - fit / 8),
                ];
                for (book_id, (symbols, slots, clipped)) in cases.into_iter().enumerate() {
                    let info = assert_writers_agree(&meta, kp, book_id % h, 0x3A, &symbols, &group);
                    assert_eq!(info.padded_outliers, slots, "kp {kp}, H = {h}");
                    assert_eq!(info.clipped_symbols, clipped, "kp {kp}, H = {h}");
                }
                assert!(header <= 16, "16 slots need a header of at most 16 bits");
            }
        }
    }

    /// The ranking oracle: every value but the absmax, fully
    /// stable-sorted by |value| descending. `rank_outliers` must return
    /// its first `k` entries.
    fn rank_by_stable_sort(group: &[f32], max_pos: usize) -> Vec<(usize, f32)> {
        let mut v: Vec<(usize, f32)> = group
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != max_pos)
            .map(|(i, &x)| (i, x))
            .collect();
        v.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
        v
    }

    /// Values the ranking must order exactly as the stable sort does:
    /// ±0.0, subnormals, ±inf and NaNs of both signs and two payloads.
    const RANK_SPECIALS: [f32; 10] = [
        0.0,
        -0.0,
        f32::MIN_POSITIVE / 4.0,
        -f32::MIN_POSITIVE / 4.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7F80_0001),
        f32::from_bits(0xFF80_0001),
    ];

    proptest! {
        #[test]
        fn ranking_matches_stable_sort(
            lattice in prop::collection::vec(-8i32..=8, 128),
            specials in prop::collection::vec((0usize..128, 0usize..RANK_SPECIALS.len()), 0..24),
            dup_absmax in any::<bool>(),
            a in 0usize..128,
            b in 0usize..128,
            short in any::<bool>(),
            short_len in 1usize..=20,
            k in 0usize..=MAX_PAD_SLOTS,
        ) {
            // A lattice of quarters: |x| ties abound, in both signs.
            let mut g: Vec<f32> = lattice.iter().map(|&q| q as f32 / 4.0).collect();
            for &(pos, which) in &specials {
                g[pos] = RANK_SPECIALS[which];
            }
            if dup_absmax {
                g[a] = 3.0;
                g[b] = -3.0;
            }
            // Short groups hold no more candidates than slots.
            g.truncate(if short { short_len } else { 128 });
            let max_pos = normalize_group(&g, ecco_numerics::Po2Scale::IDENTITY).max_pos;
            let bits = |v: &[(usize, f32)]| -> Vec<(usize, u32)> {
                v.iter().map(|&(p, x)| (p, x.to_bits())).collect()
            };
            let got: Vec<(usize, f32)> = rank_outliers(&g, max_pos, k).collect();
            let oracle = rank_by_stable_sort(&g, max_pos);
            prop_assert_eq!(got.len(), oracle.len().min(k));
            prop_assert_eq!(bits(&got), bits(&oracle[..got.len()]));
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
