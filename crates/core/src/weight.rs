//! The offline weight-compression path (4×, MSE-optimal pattern choice).

use ecco_bits::Block64;
use ecco_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::block::DecodeError;
use crate::metadata::{PatternSelector, TensorMetadata};
use crate::metrics::CodecStats;
use crate::parallel::{BatchOutcome, RecoveryPolicy};
use crate::EccoConfig;

/// A tensor compressed into fixed 64-byte blocks.
#[derive(Clone, Debug)]
pub struct CompressedTensor {
    rows: usize,
    cols: usize,
    group_size: usize,
    tensor_scale: ecco_numerics::Po2Scale,
    blocks: Vec<Block64>,
}

impl CompressedTensor {
    /// Assembles a compressed tensor from raw parts (codec-internal).
    pub(crate) fn from_parts(
        rows: usize,
        cols: usize,
        group_size: usize,
        tensor_scale: ecco_numerics::Po2Scale,
        blocks: Vec<Block64>,
    ) -> CompressedTensor {
        CompressedTensor {
            rows,
            cols,
            group_size,
            tensor_scale,
            blocks,
        }
    }

    /// Rebuilds this tensor around a replacement block stream (same
    /// shape, group size, and scale) — the failure-injection surface
    /// the serving fuzz/test layers use to model bit rot in cold
    /// storage. Every batch decode maps the result's corruption or
    /// block-count lies onto located errors instead of panicking.
    pub fn with_blocks(&self, blocks: Vec<Block64>) -> CompressedTensor {
        CompressedTensor {
            rows: self.rows,
            cols: self.cols,
            group_size: self.group_size,
            tensor_scale: self.tensor_scale,
            blocks,
        }
    }

    /// The per-tensor FP16→FP8 power-of-two scale this tensor was
    /// compressed under.
    pub fn tensor_scale(&self) -> ecco_numerics::Po2Scale {
        self.tensor_scale
    }

    /// Original row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Original column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Values per group this tensor was compressed at (128 in the 4×
    /// format).
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// The compressed payload size in bytes (blocks only; tensor metadata
    /// is shared and accounted separately).
    pub fn compressed_bytes(&self) -> usize {
        self.blocks.len() * ecco_bits::BLOCK_BYTES
    }

    /// Achieved compression ratio versus FP16 storage.
    pub fn ratio_vs_fp16(&self) -> f64 {
        (self.rows * self.cols * 2) as f64 / self.compressed_bytes() as f64
    }

    /// Borrows the block array.
    pub fn blocks(&self) -> &[Block64] {
        &self.blocks
    }
}

/// The weight codec: offline calibration + MSE-optimal compression.
///
/// # Examples
///
/// ```
/// use ecco_core::{EccoConfig, WeightCodec};
/// use ecco_tensor::{synth::SynthSpec, TensorKind};
///
/// let t = SynthSpec::for_kind(TensorKind::Weight, 32, 256).generate();
/// let codec = WeightCodec::calibrate(&[&t], &EccoConfig::default());
/// let (ct, stats) = codec.compress(&t);
/// assert_eq!(ct.ratio_vs_fp16(), 4.0);
/// assert_eq!(stats.groups, t.len() / 128);
///
/// let restored = codec.decompress(&ct);
/// assert!(ecco_tensor::stats::nmse(&t, &restored) < 0.01);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WeightCodec {
    meta: TensorMetadata,
    /// Per-column mean |activation| used for activation-aware pattern
    /// selection, when calibrated with [`WeightCodec::calibrate_aware`].
    act_mags: Option<Vec<f32>>,
}

impl WeightCodec {
    /// Calibrates metadata (shared patterns, codebooks, scales) on the
    /// given tensors — the paper uses a small calibration set from The
    /// Pile; this reproduction uses the tensors themselves or synthetic
    /// calibration tensors of the same distribution.
    ///
    /// The per-group k-means fits and statistics collection run across
    /// the worker pool; the result is bit-identical to the sequential
    /// reference regardless of thread count (see
    /// [`TensorMetadata::calibrate`]).
    ///
    /// # Panics
    ///
    /// Panics if `tensors` is empty or shapes are not multiples of 128.
    pub fn calibrate(tensors: &[&Tensor], cfg: &EccoConfig) -> WeightCodec {
        WeightCodec {
            meta: TensorMetadata::calibrate(tensors, cfg, PatternSelector::MseOptimal),
            act_mags: None,
        }
    }

    /// Activation-aware calibration (the paper's step 3): per-group
    /// k-means and pattern selection are weighted by the squared mean
    /// |activation| of each weight's input channel. Parallel and
    /// deterministic, like [`WeightCodec::calibrate`].
    ///
    /// # Panics
    ///
    /// Panics if any tensor's column count differs from `col_mags.len()`.
    pub fn calibrate_aware(tensors: &[&Tensor], col_mags: &[f32], cfg: &EccoConfig) -> WeightCodec {
        let mags: Vec<&[f32]> = tensors.iter().map(|_| col_mags).collect();
        WeightCodec {
            meta: TensorMetadata::calibrate_weighted(
                tensors,
                Some(&mags),
                cfg,
                PatternSelector::MseOptimal,
            ),
            act_mags: Some(col_mags.to_vec()),
        }
    }

    /// Wraps pre-built metadata (used by the hardware models and tests).
    pub fn from_metadata(meta: TensorMetadata) -> WeightCodec {
        WeightCodec {
            meta,
            act_mags: None,
        }
    }

    /// The shared tensor metadata.
    pub fn metadata(&self) -> &TensorMetadata {
        &self.meta
    }

    /// Compresses a tensor; returns the blocks and the encoder's
    /// statistics (clip, pad and bit counts). A batch of one through
    /// [`WeightCodec::compress_batch`]. Compression never decodes; for
    /// the round-trip error, compare the tensor with the reconstruction
    /// of [`WeightCodec::roundtrip`] (`ecco_tensor::stats::nmse`).
    ///
    /// # Panics
    ///
    /// Panics if the tensor length is not a multiple of the group size.
    pub fn compress(&self, tensor: &Tensor) -> (CompressedTensor, CodecStats) {
        self.compress_batch(&[tensor]).remove(0)
    }

    /// Compresses many tensors in **one pool pass**: every tensor's
    /// groups enter the shared worker pool as one chunk list, so
    /// concurrent requests share executors instead of running their
    /// pipelines back to back (or oversubscribing threads). Blocks are
    /// bit-identical to the per-group encode loop at any pool size, and
    /// an activation-aware codec encodes every group weighted by its
    /// columns' squared magnitudes.
    ///
    /// # Panics
    ///
    /// Panics if any tensor's length is not a multiple of the group
    /// size, or (activation-aware) its column count differs from the
    /// calibrated magnitudes — checked up front, before any encoding
    /// starts.
    pub fn compress_batch(&self, tensors: &[&Tensor]) -> Vec<(CompressedTensor, CodecStats)> {
        let aware = self.act_mags.as_deref();
        crate::parallel::encode_batch(&self.meta, tensors, PatternSelector::MseOptimal, aware)
    }

    /// Decompresses many tensors in **one pool pass** — the decode twin
    /// of [`WeightCodec::compress_batch`]: the
    /// [`RecoveryPolicy::FailTensor`] report of
    /// [`WeightCodec::decompress_batch_report`], one `Result` per tensor.
    /// A corrupted block (or even a panicking worker task) poisons only
    /// its own tensor's entry, as the first [`DecodeError`] in block
    /// order; a malformed shape fails its entry as a located
    /// [`DecodeErrorKind::TruncatedStream`](crate::DecodeErrorKind::TruncatedStream) /
    /// [`DecodeErrorKind::LengthMismatch`](crate::DecodeErrorKind::LengthMismatch).
    pub fn decompress_batch(&self, cts: &[&CompressedTensor]) -> Vec<Result<Tensor, DecodeError>> {
        let report = self.decompress_batch_report(cts, RecoveryPolicy::FailTensor);
        crate::parallel::into_tensors(report, cts)
    }

    /// Skip-and-continue batched decompression: one pool pass over every
    /// tensor, returning a per-tensor [`BatchOutcome`] report instead of
    /// failing slots outright — the ingest entry point where one bad
    /// frame must not kill the batch.
    ///
    /// Nothing panics on malformed inputs: a tensor whose group size
    /// disagrees with the codec's, or whose block count disagrees with
    /// its shape, reports a located
    /// [`DecodeErrorKind::LengthMismatch`](crate::DecodeErrorKind::LengthMismatch) /
    /// [`DecodeErrorKind::TruncatedStream`](crate::DecodeErrorKind::TruncatedStream) without touching its blocks.
    /// Healthy tensors decode bit-identically to the per-block loop;
    /// under [`RecoveryPolicy::SalvageBlocks`] corrupt blocks are
    /// zero-filled and reported individually
    /// ([`BatchOutcome::Salvaged`]).
    pub fn decompress_batch_report(
        &self,
        cts: &[&CompressedTensor],
        policy: RecoveryPolicy,
    ) -> Vec<BatchOutcome> {
        crate::parallel::decode_batch(&self.meta, cts, policy)
    }

    /// Decompresses back to FP16 values: a batch of one through
    /// [`WeightCodec::decompress_batch`].
    ///
    /// # Panics
    ///
    /// Panics if the compressed tensor is corrupt or malformed (a group
    /// size or block count that disagrees with the codec or its shape);
    /// untrusted tensors belong in [`WeightCodec::decompress_batch_report`].
    pub fn decompress(&self, ct: &CompressedTensor) -> Tensor {
        self.decompress_batch(&[ct])
            .remove(0)
            .expect("valid blocks")
    }

    /// Convenience: compress + decompress, returning the reconstruction
    /// and statistics. This is the entry point the accuracy harness uses.
    pub fn roundtrip(&self, tensor: &Tensor) -> (Tensor, CodecStats) {
        let (ct, stats) = self.compress(tensor);
        (self.decompress(&ct), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::DecodeErrorKind;
    use ecco_tensor::{stats::nmse, synth::SynthSpec, TensorKind};

    fn cfg() -> EccoConfig {
        EccoConfig {
            num_patterns: 16,
            books_per_pattern: 4,
            max_calibration_groups: 256,
            ..EccoConfig::default()
        }
    }

    #[test]
    fn four_x_ratio_exact() {
        let t = SynthSpec::for_kind(TensorKind::Weight, 32, 512).generate();
        let codec = WeightCodec::calibrate(&[&t], &cfg());
        let (ct, _) = codec.compress(&t);
        assert_eq!(ct.compressed_bytes(), t.len() / 2);
        assert_eq!(ct.ratio_vs_fp16(), 4.0);
    }

    #[test]
    fn roundtrip_preserves_shape_and_quality() {
        let t = SynthSpec::for_kind(TensorKind::Weight, 32, 512)
            .seeded(21)
            .generate();
        let codec = WeightCodec::calibrate(&[&t], &cfg());
        let (out, _) = codec.roundtrip(&t);
        assert_eq!((out.rows(), out.cols()), (32, 512));
        let e = nmse(&t, &out);
        assert!(e < 0.01, "weight NMSE {e}");
    }

    #[test]
    fn ecco_beats_uniform_int4_on_same_groups() {
        // The headline accuracy claim: non-uniform k-means + Huffman +
        // padding beats plain round-to-nearest 4-bit on the same grouping.
        let t = SynthSpec::for_kind(TensorKind::Weight, 32, 512)
            .seeded(22)
            .generate();
        let codec = WeightCodec::calibrate(&[&t], &cfg());
        let (out, _) = codec.roundtrip(&t);
        let ecco_err = nmse(&t, &out);

        // Group-wise asymmetric INT4 RTN.
        let mut rtn = t.clone();
        for g in rtn.data_mut().chunks_mut(128) {
            let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
            for &x in g.iter() {
                lo = lo.min(x);
                hi = hi.max(x);
            }
            let scale = if hi > lo { (hi - lo) / 15.0 } else { 1.0 };
            for x in g.iter_mut() {
                let q = ((*x - lo) / scale).round().clamp(0.0, 15.0);
                *x = ecco_numerics::round_f16(lo + q * scale);
            }
        }
        let rtn_err = nmse(&t, &rtn);
        assert!(
            ecco_err < rtn_err,
            "Ecco NMSE {ecco_err} must beat INT4 RTN {rtn_err}"
        );
    }

    #[test]
    fn batch_decompress_isolates_corrupt_tensors() {
        let t = SynthSpec::for_kind(TensorKind::Weight, 8, 512)
            .seeded(45)
            .generate();
        let codec = WeightCodec::calibrate(&[&t], &cfg());
        let (good, _) = codec.compress(&t);
        let mut bad = good.clone();
        bad.blocks[2] = ecco_bits::Block64::from_bytes([0xFF; 64]);

        let out = codec.decompress_batch(&[&good, &bad, &good]);
        assert!(out[0].is_ok() && out[2].is_ok());
        assert_eq!(
            out[0].as_ref().unwrap().data(),
            codec.decompress(&good).data()
        );
        assert!(out[1].is_err(), "corrupt tensor must fail alone");
    }

    #[test]
    fn batch_report_isolates_and_salvages() {
        let t = SynthSpec::for_kind(TensorKind::Weight, 8, 512)
            .seeded(46)
            .generate();
        let codec = WeightCodec::calibrate(&[&t], &cfg());
        let (good, _) = codec.compress(&t);
        let mut bad = good.clone();
        bad.blocks[2] = ecco_bits::Block64::from_bytes([0xFF; 64]);
        let reference = codec.decompress(&good);

        // FailTensor: the corrupt tensor fails with a located error, the
        // healthy neighbours are bit-identical to the per-tensor loop.
        let report =
            codec.decompress_batch_report(&[&good, &bad, &good], RecoveryPolicy::default());
        assert_eq!(report[0].values().unwrap(), reference.data());
        assert_eq!(report[2].values().unwrap(), reference.data());
        match &report[1] {
            BatchOutcome::Failed(e) => {
                assert_eq!((e.tensor, e.block), (Some(1), Some(2)));
            }
            other => panic!("expected failure, got {other:?}"),
        }

        // SalvageBlocks: only block 2's group is zeroed.
        let report = codec.decompress_batch_report(&[&good, &bad], RecoveryPolicy::SalvageBlocks);
        match &report[1] {
            BatchOutcome::Salvaged { values, bad_blocks } => {
                let gs = codec.metadata().group_size;
                let mut want = reference.data().to_vec();
                want[2 * gs..3 * gs].fill(0.0);
                assert_eq!(values, &want);
                assert_eq!(bad_blocks.len(), 1);
                assert_eq!(
                    (bad_blocks[0].tensor, bad_blocks[0].block),
                    (Some(1), Some(2))
                );
            }
            other => panic!("expected salvage, got {other:?}"),
        }

        // Shape lies never panic: a truncated block array and a group-size
        // mismatch each fail their own slot with the right kind.
        let mut short = good.clone();
        short.blocks.pop();
        let mut wrong_gs = good.clone();
        wrong_gs.group_size = 64;
        let report = codec
            .decompress_batch_report(&[&short, &wrong_gs, &good], RecoveryPolicy::SalvageBlocks);
        match &report[0] {
            BatchOutcome::Failed(e) => {
                assert_eq!(e.kind, DecodeErrorKind::TruncatedStream);
                assert_eq!((e.tensor, e.block), (Some(0), Some(short.blocks.len())));
            }
            other => panic!("short tensor: {other:?}"),
        }
        match &report[1] {
            BatchOutcome::Failed(e) => assert_eq!(e.kind, DecodeErrorKind::LengthMismatch),
            other => panic!("group-size lie: {other:?}"),
        }
        assert_eq!(report[2].values().unwrap(), reference.data());
    }

    #[test]
    fn cross_tensor_calibration() {
        // Calibrate on one tensor, compress another from the same
        // distribution family: quality must hold (shared patterns
        // generalize).
        let a = SynthSpec::for_kind(TensorKind::Weight, 32, 512)
            .seeded(23)
            .generate();
        let b = SynthSpec::for_kind(TensorKind::Weight, 32, 512)
            .seeded(24)
            .generate();
        let codec = WeightCodec::calibrate(&[&a], &cfg());
        let (out, _) = codec.roundtrip(&b);
        assert!(nmse(&b, &out) < 0.02);
    }

    #[test]
    fn stats_cover_all_groups() {
        let t = SynthSpec::for_kind(TensorKind::Weight, 16, 512).generate();
        let codec = WeightCodec::calibrate(&[&t], &cfg());
        let (_, stats) = codec.compress(&t);
        assert_eq!(stats.groups, t.len() / 128);
        assert_eq!(stats.values, t.len());
    }
}
