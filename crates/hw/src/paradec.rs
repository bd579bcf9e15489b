//! The speculative parallel Huffman decoder (Figure 8 of the paper): a
//! functional model of the 64×8 decoder silicon that reports the work the
//! hardware would do ([`DecodeStats`]) alongside bit-exact output.
//!
//! # Algorithm
//!
//! The 512-bit block is cut into 64 segments of 8 bits. Because code
//! lengths are limited to 2..=8 bits, a segment contains the *start* of
//! between one and four codes, and any code starting in a segment ends
//! within a 15-bit window (7-bit overlap into the next segment). Each
//! segment is decoded speculatively by **8 sub-decoders**, one per
//! possible entry offset 0..=7; the surviving path is then resolved by
//! chaining each segment's end-of-parse offset (`EOP`) into the next
//! segment's entry offset. The result is bit-exact sequential Huffman
//! decoding at 64-way parallelism.
//!
//! # Implementation: one lazy EOP walk over window probes
//!
//! 1. **Window probe.** The walk reads the [`ecco_bits::BlockCursor`]
//!    the block reader ([`ecco_core::read_block`]) built when it viewed
//!    the block; each visited segment's sub-decoder reads its 15-bit
//!    window with one [`ecco_bits::BlockCursor::window`] probe at
//!    `seg * 8 + offset` — two shifts and an OR.
//!
//! 2. **EOP walk.** The concatenation tree's fixed point is computed
//!    directly: starting from the entry offset of `start_bit`, each
//!    segment's surviving sub-decoder names the next segment's entry
//!    offset, so one O(segments) walk visits exactly one window and one
//!    record per segment. A record is one [`SegmentLut`] probe (a
//!    `2^15`-entry table mapping a window to its packed chain of up to
//!    four `(symbol, end)` pairs — layout in [`ecco_entropy::lut`])
//!    truncated to the entry offset's bit budget by index math. Each
//!    record depends only on its own window, so resolving it lazily along
//!    the chain is bit-identical to the silicon's 64×8 speculation, which
//!    is free in hardware and pure waste on one core.
//!
//! 3. **Emit.** The walk hands each surviving symbol to its caller as it
//!    resolves: [`ParallelDecoder::decode_into`] collects symbols, and
//!    [`decode_block_parallel_into`]'s walk gathers reconstructed values
//!    through a per-block [`BlockValueTable`].
//!
//! The returned [`DecodeStats`] still report the modeled hardware cost
//! (`segments × 8` sub-decoder ops and the tree's merge stages).
//!
//! The model owns only that walk. Header parsing, the value table, the
//! clipped-tail fill and the padded outliers of a full block are the
//! format's one block reader, [`ecco_core::read_block`], which
//! [`decode_block_parallel_into`] shares with the codec.

use ecco_bits::{Block64, BlockCursor, BLOCK_BITS};
use ecco_core::block::DecodeError;
use ecco_core::{read_block, BlockValueTable, TensorMetadata};
use ecco_entropy::lut::{ChainEntry, SegmentLut, MAX_CHAIN, WINDOW_BITS as LUT_WINDOW_BITS};
use ecco_entropy::Codebook;
use ecco_tensor::GROUP_SIZE;

/// Bits per decoder segment.
pub const SEGMENT_BITS: usize = 8;
/// Number of segments / parallel decoders over a 512-bit block.
pub const NUM_SEGMENTS: usize = BLOCK_BITS / SEGMENT_BITS;
/// Speculative sub-decoders per segment (entry offsets 0..=7).
pub const SUB_DECODERS: usize = 8;
/// Window bits each sub-decoder sees (8 own + 7 overlap).
pub const WINDOW_BITS: usize = 15;

/// One resolved sub-decoder outcome: the codes that *start* inside the
/// segment when entered at a given offset. Fixed-size, never on the heap.
#[derive(Debug, Default)]
struct SegRecord {
    /// Decoded symbols, in stream order.
    syms: [u16; MAX_CHAIN],
    /// Window-relative end bit of each code (window starts at the entry
    /// offset, so absolute end = `seg*8 + offset + ends[i]`).
    ends: [u8; MAX_CHAIN],
    /// Number of codes decoded (1..=4 unless terminated).
    count: u8,
    /// Entry offset into the next segment (valid iff not terminated).
    eop: u8,
    /// Parse cannot continue (invalid prefix or past end of block).
    terminated: bool,
}

impl SegRecord {
    /// Truncates a window's LUT chain to this entry offset's bit budget
    /// and checks the end-of-block constraint — pure index math.
    #[inline]
    fn from_chain(entry: ChainEntry, seg: usize, offset: usize) -> SegRecord {
        let budget = SEGMENT_BITS - offset;
        let base = seg * SEGMENT_BITS + offset;
        let mut rec = SegRecord::default();
        let mut n = 0usize;
        for i in 0..entry.count() {
            if entry.start(i) >= budget {
                // This code starts in the next segment's own bits.
                break;
            }
            let end = entry.end(i);
            if base + end > BLOCK_BITS {
                rec.terminated = true;
                break;
            }
            rec.syms[n] = entry.sym(i);
            rec.ends[n] = end as u8;
            n += 1;
        }
        rec.count = n as u8;
        if !rec.terminated {
            if entry.bad() && entry.bad_pos() < budget {
                rec.terminated = true;
            } else if n > 0 {
                // Chain stopped because the next start left the segment:
                // offset + end >= 8, and <= 15, so eop is in 0..=7.
                rec.eop = (offset + rec.ends[n - 1] as usize - SEGMENT_BITS) as u8;
            } else {
                // Unreachable for 2..=8-bit codes (start 0 < budget always),
                // but keep the parse well-defined.
                rec.terminated = true;
            }
        }
        rec
    }
}

/// Work/latency accounting for one parallel decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodeStats {
    /// Bit position just after the last decoded symbol.
    pub end_bit: usize,
    /// Concatenation-tree stages the hardware would execute.
    pub merge_stages: usize,
    /// Sub-decoder invocations (64 segments × 8 offsets when fully used).
    pub sub_decoder_ops: usize,
}

/// The parallel decoder bound to one Huffman codebook.
#[derive(Debug)]
pub struct ParallelDecoder<'a> {
    lut: &'a SegmentLut,
}

impl<'a> ParallelDecoder<'a> {
    /// Creates a decoder for `book`, building (or reusing) the book's
    /// sub-decoder chain table.
    ///
    /// # Panics
    ///
    /// Panics if the book's longest code exceeds 8 bits — the hardware's
    /// 15-bit windows require the 2..=8-bit constraint (the table build
    /// also rejects codes shorter than 2 bits). No metadata holds such a
    /// data book: [`TensorMetadata::from_parts`] refuses it.
    pub fn new(book: &'a Codebook) -> ParallelDecoder<'a> {
        assert!(
            book.max_len() <= SEGMENT_BITS as u8,
            "parallel decoding requires codes of at most 8 bits"
        );
        ParallelDecoder {
            lut: book.segment_lut(),
        }
    }

    /// Decodes up to `max_symbols` codes starting at bit `start_bit` of
    /// the block `cur` views into `out` (which is cleared first). Zero
    /// heap allocations beyond `out`'s one-time capacity.
    ///
    /// # Panics
    ///
    /// Panics if `start_bit` is outside the block.
    pub fn decode_into(
        &self,
        cur: &BlockCursor,
        start_bit: usize,
        max_symbols: usize,
        out: &mut Vec<u16>,
    ) -> DecodeStats {
        out.clear();
        self.walk(cur, start_bit, max_symbols, |sym| out.push(sym))
    }

    /// The decode-to-values walk: like [`ParallelDecoder::decode_into`]
    /// over the same cursor, but each resolved symbol is gathered through
    /// a per-block [`BlockValueTable`] as the walk visits it,
    /// **appending** up to `max_symbols` reconstructed f32 values to
    /// `out` — no intermediate symbol buffer, no second reconstruction
    /// pass. The caller computes the decoded count from `out.len()`
    /// before/after. [`decode_block_parallel_into`], its one caller,
    /// passes the cursor [`ecco_core::read_block`] built.
    ///
    /// # Panics
    ///
    /// Panics if `start_bit` is outside the block, or if a decoded
    /// symbol exceeds the table (impossible for a metadata's data book).
    fn decode_values_into(
        &self,
        cur: &BlockCursor,
        start_bit: usize,
        max_symbols: usize,
        table: &BlockValueTable,
        out: &mut Vec<f32>,
    ) -> DecodeStats {
        out.reserve(max_symbols);
        self.walk(cur, start_bit, max_symbols, |sym| {
            out.push(table.value(sym))
        })
    }

    /// The one EOP-chain walk behind both decode entry points: one
    /// window probe and one LUT probe per segment along the live chain,
    /// handing up to `max_symbols` symbols to `emit` in stream order.
    #[inline]
    fn walk(
        &self,
        cur: &BlockCursor,
        start_bit: usize,
        max_symbols: usize,
        mut emit: impl FnMut(u16),
    ) -> DecodeStats {
        assert!(start_bit < BLOCK_BITS, "start bit outside block");
        let first_seg = start_bit / SEGMENT_BITS;
        let segments = NUM_SEGMENTS - first_seg;

        let mut emitted = 0usize;
        let mut end_bit = start_bit;
        let mut offset = start_bit % SEGMENT_BITS;
        'walk: for seg in first_seg..NUM_SEGMENTS {
            let seg_base = seg * SEGMENT_BITS + offset;
            let window = cur.window(seg_base, LUT_WINDOW_BITS);
            let rec = SegRecord::from_chain(self.lut.entry(window), seg, offset);
            for i in 0..rec.count as usize {
                if emitted == max_symbols {
                    break 'walk;
                }
                emit(rec.syms[i]);
                emitted += 1;
                end_bit = seg_base + rec.ends[i] as usize;
            }
            if rec.terminated {
                break;
            }
            offset = rec.eop as usize;
        }

        DecodeStats {
            end_bit,
            merge_stages: ceil_log2(segments),
            sub_decoder_ops: segments * SUB_DECODERS,
        }
    }
}

/// Stages of a binary reduction over `n` items.
fn ceil_log2(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

/// Full block decompression through the parallel decoder — the
/// functional twin of [`ecco_core::decode_group`], returning the modeled
/// hardware cost alongside the values. Thin wrapper over
/// [`decode_block_parallel_into`].
///
/// # Errors
///
/// Returns the same [`DecodeError`]s as the reference decoder.
pub fn decode_block_parallel(
    block: &Block64,
    meta: &TensorMetadata,
) -> Result<(Vec<f32>, DecodeStats), DecodeError> {
    let mut values = Vec::with_capacity(GROUP_SIZE);
    let stats = decode_block_parallel_into(block, meta, &mut values)?;
    Ok((values, stats))
}

/// Full-block decompression: the format's one block reader
/// ([`ecco_core::read_block`], shared with the codec) with the 64×8 walk
/// as its symbol walk,
/// **appending** [`GROUP_SIZE`] reconstructed values to `values`, under
/// the metadata's own scale. On error nothing is appended. Bit-identical to
/// [`ecco_core::decode_group_into`] on every input, errors included (held
/// differentially by `tests/fuzz_ingest.rs`).
///
/// # Errors
///
/// Returns the same [`DecodeError`]s as the reference decoder.
pub fn decode_block_parallel_into(
    block: &Block64,
    meta: &TensorMetadata,
    values: &mut Vec<f32>,
) -> Result<DecodeStats, DecodeError> {
    let (_, stats) = read_block(
        block,
        meta,
        meta.tensor_scale(),
        values,
        |book, cur, start, table, values| {
            let stats = ParallelDecoder::new(book)
                .decode_values_into(cur, start, GROUP_SIZE, table, values);
            (stats.end_bit, stats)
        },
    )?;
    Ok(stats)
}

/// Decodes **many tensors' block arrays in one pool pass** through the
/// hardware parallel-decoder model, returning a per-tensor
/// [`BatchOutcome`](ecco_core::BatchOutcome) report. It runs on the
/// codecs' decode driver
/// ([`ecco_core::parallel::decode_tensors_batch_report_with`]): every
/// tensor's chunks enter the shared persistent pool together, so
/// concurrent serving requests share decode lanes instead of queueing
/// whole pipelines behind each other (the paper's many-blocks-in-flight
/// regime, lifted to many tensors), and every worker runs the fused
/// [`decode_block_parallel_into`] over its run of blocks, one block at a
/// time, straight into its chunk buffer. A whole tensor is a batch of
/// one.
///
/// `batch` pairs each tensor's blocks with the metadata view to decode
/// them under (per-tensor scales differ; patterns/books are typically
/// shared). Healthy tensors are bit-identical to [`decode_block_parallel`]
/// run per block in order. Failures stay isolated: under
/// [`RecoveryPolicy::FailTensor`](ecco_core::RecoveryPolicy) a corrupted
/// block — or a panicking worker task — fails only its own tensor with
/// the first located error in block order; under
/// [`RecoveryPolicy::SalvageBlocks`](ecco_core::RecoveryPolicy) only the
/// corrupt blocks' groups are zero-filled, each reported with its located
/// error.
pub fn decode_tensors_batch_report(
    batch: &[(&[Block64], &TensorMetadata)],
    policy: ecco_core::RecoveryPolicy,
) -> Vec<ecco_core::BatchOutcome> {
    let blocks: Vec<&[Block64]> = batch.iter().map(|&(b, _)| b).collect();
    ecco_core::parallel::decode_tensors_batch_report_with(&blocks, policy, |ti, run, out| {
        for (i, b) in run.iter().enumerate() {
            decode_block_parallel_into(b, batch[ti].1, out).map_err(|e| (i, e))?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecco_bits::BitWriter;
    use ecco_core::{encode_group, EccoConfig, PatternSelector};
    use ecco_tensor::{synth::SynthSpec, Tensor, TensorKind};
    use proptest::prelude::*;

    fn meta_for(t: &Tensor) -> TensorMetadata {
        let cfg = EccoConfig {
            num_patterns: 16,
            books_per_pattern: 4,
            max_calibration_groups: 128,
            ..EccoConfig::default()
        };
        TensorMetadata::calibrate(&[t], &cfg, PatternSelector::MseOptimal)
    }

    /// `meta` with every data book `book`, and the pattern-id code
    /// `pattern_code` when one is given.
    fn with_books(
        meta: &TensorMetadata,
        book: &Codebook,
        pattern_code: Option<&Codebook>,
    ) -> TensorMetadata {
        TensorMetadata::from_parts(
            meta.tensor_scale(),
            meta.patterns().to_vec(),
            vec![vec![book.clone(); meta.books_per_pattern()]; meta.num_patterns()],
            pattern_code.unwrap_or(meta.pattern_code()).clone(),
            meta.id_hf_bits(),
        )
        .unwrap()
    }

    /// The per-symbol oracle over raw symbol streams: the plain
    /// `SymbolDecoder::decode_symbol` loop the parallel decoder must be
    /// bit-exact with.
    fn sequential_symbols(
        book: &Codebook,
        block: &Block64,
        start_bit: usize,
        max_symbols: usize,
    ) -> (Vec<u16>, usize) {
        let (cur, dec) = (block.cursor(), book.symbol_decoder());
        let mut pos = start_bit;
        let mut out = Vec::new();
        while out.len() < max_symbols {
            match dec.decode_symbol(&cur, &mut pos) {
                Some(s) => out.push(s),
                None => break,
            }
        }
        (out, pos)
    }

    #[test]
    fn equivalent_to_sequential_decoder() {
        let t = SynthSpec::for_kind(TensorKind::Weight, 16, 512)
            .seeded(101)
            .generate();
        let meta = meta_for(&t);
        for g in t.groups(128) {
            let (block, _) = encode_group(g, &meta, PatternSelector::MseOptimal);
            let (seq, _) = ecco_core::decode_group(&block, &meta).unwrap();
            let (par, _) = decode_block_parallel(&block, &meta).unwrap();
            assert_eq!(seq, par, "parallel decode must match sequential");
        }
    }

    #[test]
    fn equivalent_on_clipped_blocks() {
        // Force clipping with deliberately mismatched 4-bit-uniform books.
        let t = SynthSpec::for_kind(TensorKind::Weight, 8, 512)
            .seeded(102)
            .generate();
        let uniform = Codebook::from_lengths(&[4; 16]).unwrap();
        let meta = with_books(&meta_for(&t), &uniform, None);
        let mut clipped_seen = false;
        let mut symbols = Vec::new();
        for g in t.groups(128) {
            let (block, info) = encode_group(g, &meta, PatternSelector::MseOptimal);
            clipped_seen |= info.clipped_symbols > 0;
            let (seq, sinfo) = ecco_core::decode_group(&block, &meta).unwrap();
            let (par, _) = decode_block_parallel(&block, &meta).unwrap();
            assert_eq!(seq, par);
            let header = ecco_core::parse_block_header(&block, &meta).unwrap();
            ParallelDecoder::new(&uniform).decode_into(
                &block.cursor(),
                header.data_start,
                GROUP_SIZE,
                &mut symbols,
            );
            assert_eq!(sinfo.decoded_symbols, symbols.len());
        }
        assert!(clipped_seen, "test must exercise the clipped path");
    }

    #[test]
    fn stream_ending_exactly_at_bit_512_decodes_identically() {
        // One book per pattern gives a zero-width ID_HF field, and uniform
        // 4-bit codes for the 16 pattern ids and every data book make the
        // header 12 bits: 125 whole codes end exactly at bit 512, the last
        // 3 symbols are clipped and no partial code is written.
        let t = SynthSpec::for_kind(TensorKind::Weight, 16, 512)
            .seeded(105)
            .generate();
        let cfg = EccoConfig {
            num_patterns: 16,
            books_per_pattern: 1,
            max_calibration_groups: 128,
            ..EccoConfig::default()
        };
        let meta = TensorMetadata::calibrate(&[&t], &cfg, PatternSelector::MseOptimal);
        assert_eq!((meta.num_patterns(), meta.id_hf_bits()), (16, 0));
        let uniform = Codebook::from_lengths(&[4; 16]).unwrap();
        let meta = with_books(&meta, &uniform, Some(&uniform));
        let g = t.groups(128).next().unwrap();
        let (block, info) = encode_group(g, &meta, PatternSelector::MseOptimal);
        assert_eq!(
            (info.header_bits, info.data_bits, info.clipped_symbols),
            (12, 500, 3)
        );

        let mut seq = Vec::new();
        let dinfo = ecco_core::decode_group_into(&block, &meta, &mut seq).unwrap();
        assert_eq!((dinfo.decoded_symbols, dinfo.applied_outliers), (125, 0));
        let (par, stats) = decode_block_parallel(&block, &meta).unwrap();
        assert_eq!(par, seq);
        assert_eq!(stats.end_bit, BLOCK_BITS);
    }

    #[test]
    fn six_merge_stages_for_full_block() {
        let t = SynthSpec::for_kind(TensorKind::Weight, 8, 512)
            .seeded(103)
            .generate();
        let meta = meta_for(&t);
        let g = t.groups(128).next().unwrap();
        let (block, _) = encode_group(g, &meta, PatternSelector::MseOptimal);
        let (_, res) = decode_block_parallel(&block, &meta).unwrap();
        // Data starts within the first couple of segments; merging ~63-64
        // segments takes exactly 6 binary stages.
        assert_eq!(res.merge_stages, 6);
        assert!(res.sub_decoder_ops <= NUM_SEGMENTS * SUB_DECODERS);
        assert!(res.sub_decoder_ops >= (NUM_SEGMENTS - 4) * SUB_DECODERS);
    }

    #[test]
    fn window_constraint_enforced() {
        let wide = Codebook::from_frequencies(&(1u64..=64).collect::<Vec<_>>(), 1, 15).unwrap();
        if wide.max_len() > 8 {
            let result = std::panic::catch_unwind(|| ParallelDecoder::new(&wide));
            assert!(result.is_err(), "books wider than 8 bits must be rejected");
        }
    }

    #[test]
    fn batch_report_matches_per_block_decode_and_isolates_errors() {
        use ecco_core::{BatchOutcome, RecoveryPolicy};
        let metas_and_blocks: Vec<(TensorMetadata, Vec<Block64>)> = (0..3)
            .map(|i| {
                let t = SynthSpec::for_kind(TensorKind::Weight, 8, 512)
                    .seeded(200 + i)
                    .generate();
                let meta = meta_for(&t);
                let blocks = t
                    .groups(128)
                    .map(|g| encode_group(g, &meta, PatternSelector::MseOptimal).0)
                    .collect();
                (meta, blocks)
            })
            .collect();
        let per_block = |blocks: &[Block64], meta: &TensorMetadata| -> Vec<f32> {
            blocks
                .iter()
                .flat_map(|b| decode_block_parallel(b, meta).unwrap().0)
                .collect()
        };
        let batch: Vec<(&[Block64], &TensorMetadata)> =
            metas_and_blocks.iter().map(|(m, b)| (&b[..], m)).collect();
        let report = decode_tensors_batch_report(&batch, RecoveryPolicy::FailTensor);
        for ((meta, blocks), o) in metas_and_blocks.iter().zip(&report) {
            assert_eq!(o, &BatchOutcome::Ok(per_block(blocks, meta)));
        }

        // Corrupt one tensor: only its slot fails, with the error the
        // per-block decoder reports, located at its tensor and block.
        let (meta0, blocks0) = &metas_and_blocks[0];
        let mut poisoned = blocks0.clone();
        poisoned[1] = Block64::from_bytes([0xFF; 64]);
        let want_err = decode_block_parallel(&poisoned[1], meta0).unwrap_err();
        let batch = [
            (&blocks0[..], meta0),
            (&poisoned[..], meta0),
            (&blocks0[..], meta0),
        ];
        let mixed = decode_tensors_batch_report(&batch, RecoveryPolicy::FailTensor);
        assert!(mixed[0].is_ok() && mixed[2].is_ok());
        assert_eq!(
            mixed[1],
            BatchOutcome::Failed(want_err.at_block(1).at_tensor(1)),
            "batch error must locate the bad tensor and block"
        );

        // Salvage zero-fills only the bad block.
        let report = decode_tensors_batch_report(&batch[..2], RecoveryPolicy::SalvageBlocks);
        let healthy = per_block(blocks0, meta0);
        assert_eq!(report[0].values().unwrap(), &healthy);
        let gs = GROUP_SIZE;
        let mut want = healthy.clone();
        want[gs..2 * gs].fill(0.0);
        assert_eq!(
            report[1],
            BatchOutcome::Salvaged {
                values: want,
                bad_blocks: vec![want_err.at_block(1).at_tensor(1)],
            }
        );
    }

    #[test]
    fn decode_into_appends_and_reuses_buffers() {
        let t = SynthSpec::for_kind(TensorKind::Weight, 8, 512)
            .seeded(104)
            .generate();
        let meta = meta_for(&t);
        let mut values = Vec::new();
        let mut symbols = Vec::new();
        for g in t.groups(128) {
            let (block, _) = encode_group(g, &meta, PatternSelector::MseOptimal);
            let (seq, info) = ecco_core::decode_group(&block, &meta).unwrap();
            // The value walk appends; it must agree block for block.
            let before = values.len();
            decode_block_parallel_into(&block, &meta, &mut values).unwrap();
            assert_eq!(&seq[..], &values[before..]);
            // The symbol walk clears its buffer on every call.
            let header = ecco_core::parse_block_header(&block, &meta).unwrap();
            let book = &meta.books()[header.kp][header.book_id];
            ParallelDecoder::new(book).decode_into(
                &block.cursor(),
                header.data_start,
                GROUP_SIZE,
                &mut symbols,
            );
            assert_eq!(symbols.len(), info.decoded_symbols);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Parallel decode == per-symbol walk on random tensors: values
        /// against `decode_group`, raw symbols and end bit against the
        /// `decode_symbol` loop.
        #[test]
        fn equivalence_under_random_tensors(seed in 0u64..500) {
            let t = SynthSpec::for_kind(TensorKind::KCache, 4, 512).seeded(seed).generate();
            let meta = meta_for(&t);
            let mut blocks = Vec::new();
            let mut seq_all = Vec::new();
            for g in t.groups(128) {
                let (block, _) = encode_group(g, &meta, PatternSelector::MinMax);
                let (seq, _) = ecco_core::decode_group(&block, &meta).unwrap();
                blocks.push(block);
                seq_all.extend_from_slice(&seq);
                let header = ecco_core::parse_block_header(&block, &meta).unwrap();
                let book = &meta.books()[header.kp][header.book_id];
                let (want_syms, want_end) =
                    sequential_symbols(book, &block, header.data_start, GROUP_SIZE);
                let (par, stats) = decode_block_parallel(&block, &meta).unwrap();
                let mut syms = Vec::new();
                ParallelDecoder::new(book).decode_into(
                    &block.cursor(),
                    header.data_start,
                    GROUP_SIZE,
                    &mut syms,
                );
                prop_assert_eq!(&par, &seq, "values diverged from the per-symbol walk");
                prop_assert_eq!(&syms, &want_syms, "symbols diverged from the per-symbol walk");
                prop_assert_eq!(stats.end_bit, want_end);
            }

            // Pool layer: the batched multi-tensor decode must reproduce
            // the sequential concatenation bit-for-bit under an injected
            // pool (varied executor count, ragged chunk pin).
            let threads = [1usize, 2, 4, 8][(seed % 4) as usize];
            let chunk = 1 + (seed % 7) as usize;
            let pool = ecco_pool::PoolBuilder::new()
                .threads(threads)
                .chunk(chunk)
                .build();
            let batch = ecco_pool::with_pool(&pool, || {
                decode_tensors_batch_report(
                    &[(&blocks[..], &meta), (&blocks[..1], &meta)],
                    ecco_core::RecoveryPolicy::FailTensor,
                )
            });
            prop_assert_eq!(batch[0].values().unwrap(), &seq_all[..], "batch diverged");
            prop_assert_eq!(
                batch[1].values().unwrap(),
                &seq_all[..GROUP_SIZE],
                "sub-batch diverged"
            );
        }

        /// Differential fuzz: random 2..=8-bit codebooks × random raw
        /// blocks × random start bits. The parallel decoder and the
        /// per-symbol walk must agree symbol-for-symbol — including on
        /// garbage windows that terminate early.
        #[test]
        fn lut_decoder_matches_sequential_on_fuzzed_books(
            freqs in prop::collection::vec(0u64..5000, 2..=16),
            bytes in prop::collection::vec(any::<u8>(), 64),
            start in 0usize..64,
            max in 1usize..160,
        ) {
            let book = Codebook::from_frequencies(&freqs, 2, 8).unwrap();
            prop_assert!(book.lengths().iter().all(|&l| (2..=8).contains(&l)));
            let mut raw = [0u8; 64];
            raw.copy_from_slice(&bytes);
            let block = Block64::from_bytes(raw);

            let (want, want_end) = sequential_symbols(&book, &block, start, max);
            let mut got = Vec::new();
            let stats = ParallelDecoder::new(&book).decode_into(&block.cursor(), start, max, &mut got);
            prop_assert_eq!(&got, &want, "LUT decoder diverged");
            prop_assert_eq!(stats.end_bit, want_end);
        }

        /// The decode-to-values walk against the per-symbol walk plus a
        /// table gather, on fuzzed books × raw blocks — including garbage
        /// windows that terminate early, a nonzero append base, and a
        /// fuzzed block scale.
        #[test]
        fn fused_walk_matches_symbol_walk_on_fuzzed_books(
            freqs in prop::collection::vec(0u64..5000, 2..=16),
            bytes in prop::collection::vec(any::<u8>(), 64),
            start in 0usize..64,
            max in 1usize..160,
            scale in -4.0f32..4.0,
        ) {
            let book = Codebook::from_frequencies(&freqs, 2, 8).unwrap();
            let mut raw = [0u8; 64];
            raw.copy_from_slice(&bytes);
            let block = Block64::from_bytes(raw);
            // A calibrated pattern supplies a real centroid table.
            let t = SynthSpec::for_kind(TensorKind::Weight, 1, 128).seeded(7).generate();
            let meta = meta_for(&t);
            let table = ecco_core::BlockValueTable::new(&meta.patterns()[0], scale);

            let (symbols, want_end) = sequential_symbols(&book, &block, start, max);
            let want: Vec<f32> = symbols.iter().map(|&s| table.value(s)).collect();

            // Nonzero base pins the append (not clear) contract.
            let mut fused = vec![9.0f32; 3];
            let stats = ParallelDecoder::new(&book)
                .decode_values_into(&block.cursor(), start, max, &table, &mut fused);
            prop_assert_eq!(&fused[..3], &[9.0f32; 3][..], "value walk overwrote its base");
            prop_assert_eq!(&fused[3..], &want[..], "value walk diverged");
            prop_assert_eq!(stats.end_bit, want_end);
        }

        /// Valid encoded streams (not just garbage): encode random symbols
        /// with a fuzzed book, then require exact recovery through the
        /// parallel path from bit 0.
        #[test]
        fn lut_decoder_roundtrips_encoded_streams(
            freqs in prop::collection::vec(0u64..5000, 2..=16),
            syms in prop::collection::vec(0u16..16, 1..=128),
        ) {
            let book = Codebook::from_frequencies(&freqs, 2, 8).unwrap();
            let n = book.num_symbols() as u16;
            let symbols: Vec<u16> = syms.iter().map(|&s| s % n).collect();
            let mut w = BitWriter::new();
            let mut fits = 0usize;
            for &s in &symbols {
                if w.bit_len() + book.code_len(s) as usize > BLOCK_BITS {
                    break;
                }
                book.encode_symbol(&mut w, s);
                fits += 1;
            }
            let block = Block64::from_writer(w).expect("within 512 bits");
            let mut got = Vec::new();
            let stats = ParallelDecoder::new(&book).decode_into(&block.cursor(), 0, fits, &mut got);
            prop_assert_eq!(&got[..], &symbols[..fits]);
            let (want, want_end) = sequential_symbols(&book, &block, 0, fits);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(stats.end_bit, want_end);
        }
    }
}
