//! The online KV-cache compression path (4×, min/max pattern selection).
//!
//! Differences from the weight path (Section 3.2 of the paper):
//!
//! * the shared pattern count is reduced to 16 so the hardware pattern
//!   selector stays small,
//! * pattern selection compares only the group's (min, max) against each
//!   pattern's extreme centroids — 2 comparisons instead of a full MSE
//!   evaluation — because the compressor runs online on the write path,
//! * calibration happens offline on captured KV tensors (the paper forwards
//!   the calibration set through the model; this reproduction uses
//!   synthetic KV tensors of the same distribution family).

use ecco_tensor::Tensor;

use crate::block::DecodeError;
use crate::metadata::{PatternSelector, TensorMetadata};
use crate::metrics::CodecStats;
use crate::parallel::{BatchOutcome, RecoveryPolicy};
use crate::weight::CompressedTensor;
use crate::EccoConfig;

/// Number of shared patterns the hardware KV path supports.
pub const KV_PATTERNS: usize = 16;

/// The KV-cache codec.
///
/// # Examples
///
/// ```
/// use ecco_core::{EccoConfig, KvCodec};
/// use ecco_tensor::{synth::SynthSpec, TensorKind};
///
/// let kv = SynthSpec::for_kind(TensorKind::KCache, 32, 256).generate();
/// let codec = KvCodec::calibrate(&[&kv], &EccoConfig::default());
/// let (ct, stats) = codec.compress(&kv);
/// assert_eq!(ct.ratio_vs_fp16(), 4.0);
/// assert!(stats.clip_ratio() < 0.05);
///
/// let restored = codec.decompress(&ct);
/// assert!(ecco_tensor::stats::nmse(&kv, &restored) < 0.05);
/// ```
#[derive(Clone, Debug)]
pub struct KvCodec {
    meta: TensorMetadata,
}

impl KvCodec {
    /// Calibrates on captured (here: synthetic) KV tensors. The pattern
    /// count is capped at [`KV_PATTERNS`] regardless of `cfg.num_patterns`,
    /// and calibration statistics are collected under the min/max selector
    /// so codebooks match runtime symbol distributions.
    ///
    /// Calibration runs across the worker pool and is bit-identical to the
    /// sequential reference (see [`TensorMetadata::calibrate`]); the
    /// min/max selection the *online* compressor performs per group stays
    /// as cheap as the hardware's two comparisons per pattern.
    ///
    /// # Panics
    ///
    /// Panics if `tensors` is empty.
    pub fn calibrate(tensors: &[&Tensor], cfg: &EccoConfig) -> KvCodec {
        let kv_cfg = EccoConfig {
            num_patterns: cfg.num_patterns.min(KV_PATTERNS),
            ..cfg.clone()
        };
        KvCodec {
            meta: TensorMetadata::calibrate(tensors, &kv_cfg, PatternSelector::MinMax),
        }
    }

    /// The shared tensor metadata.
    pub fn metadata(&self) -> &TensorMetadata {
        &self.meta
    }

    /// Compresses a KV tensor with online min/max pattern selection.
    pub fn compress(&self, tensor: &Tensor) -> (CompressedTensor, CodecStats) {
        self.compress_with(tensor, PatternSelector::MinMax)
    }

    /// Compresses with an explicit selector (ablation support): a batch
    /// of one through the codec's encode engine.
    pub fn compress_with(
        &self,
        tensor: &Tensor,
        selector: PatternSelector,
    ) -> (CompressedTensor, CodecStats) {
        crate::parallel::encode_batch(&self.meta, &[tensor], selector, None).remove(0)
    }

    /// Compresses many KV tensors (e.g. every live request's cache
    /// segment) in **one pool pass** with online min/max selection —
    /// the serving-side batched submission. Bit-identical to calling
    /// [`KvCodec::compress`] per tensor, in order; see
    /// [`WeightCodec::compress_batch`](crate::WeightCodec::compress_batch)
    /// for the scheduling model.
    ///
    /// # Panics
    ///
    /// Panics if any tensor's length is not a multiple of the group
    /// size (checked up front, before any encoding starts).
    pub fn compress_batch(&self, tensors: &[&Tensor]) -> Vec<(CompressedTensor, CodecStats)> {
        crate::parallel::encode_batch(&self.meta, tensors, PatternSelector::MinMax, None)
    }

    /// Decompresses many KV tensors in **one pool pass**: the
    /// [`RecoveryPolicy::FailTensor`] report of
    /// [`KvCodec::decompress_batch_report`], one `Result` per tensor.
    /// Per-tensor failures stay isolated: a corrupted block poisons only
    /// its own slot, as the first [`DecodeError`] in block order, and a
    /// malformed shape fails its slot as a located error.
    pub fn decompress_batch(&self, cts: &[&CompressedTensor]) -> Vec<Result<Tensor, DecodeError>> {
        let report = self.decompress_batch_report(cts, RecoveryPolicy::FailTensor);
        crate::parallel::into_tensors(report, cts)
    }

    /// Skip-and-continue batched KV decompression: one pool pass over
    /// every tensor, returning a per-tensor [`BatchOutcome`] report —
    /// the fault-tolerant read path a serving store needs, where one
    /// corrupted cold page must not kill a whole session's read
    /// (`ecco-serve` promotes cold pages through this). The semantics
    /// are those of
    /// [`WeightCodec::decompress_batch_report`](crate::WeightCodec::decompress_batch_report).
    pub fn decompress_batch_report(
        &self,
        cts: &[&CompressedTensor],
        policy: RecoveryPolicy,
    ) -> Vec<BatchOutcome> {
        crate::parallel::decode_batch(&self.meta, cts, policy)
    }

    /// Decompresses a KV tensor: a batch of one through
    /// [`KvCodec::decompress_batch`].
    ///
    /// # Panics
    ///
    /// Panics if the compressed tensor is corrupt or malformed.
    pub fn decompress(&self, ct: &CompressedTensor) -> Tensor {
        self.decompress_batch(&[ct])
            .remove(0)
            .expect("valid blocks")
    }

    /// Compress + decompress convenience for the accuracy harness.
    pub fn roundtrip(&self, tensor: &Tensor) -> (Tensor, CodecStats) {
        let (ct, stats) = self.compress(tensor);
        (self.decompress(&ct), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecco_bits::Block64;
    use ecco_tensor::{stats::nmse, synth::SynthSpec, TensorKind};

    fn kv_tensor(seed: u64) -> Tensor {
        SynthSpec::for_kind(TensorKind::KCache, 64, 256)
            .seeded(seed)
            .generate()
    }

    #[test]
    fn pattern_count_capped_at_16() {
        let t = kv_tensor(1);
        let codec = KvCodec::calibrate(&[&t], &EccoConfig::default());
        assert_eq!(codec.metadata().num_patterns(), KV_PATTERNS);
    }

    #[test]
    fn online_roundtrip_quality() {
        let t = kv_tensor(2);
        let codec = KvCodec::calibrate(&[&t], &EccoConfig::default());
        let (out, _) = codec.roundtrip(&t);
        let e = nmse(&t, &out);
        assert!(e < 0.05, "KV NMSE {e}");
    }

    #[test]
    fn batch_report_salvages_corrupt_kv_page() {
        let t = kv_tensor(50);
        let codec = KvCodec::calibrate(&[&t], &EccoConfig::default());
        let (good, _) = codec.compress(&t);
        let mut blocks = good.blocks().to_vec();
        blocks[2] = Block64::from_bytes([0xFF; 64]);
        let poisoned = CompressedTensor::from_parts(
            good.rows(),
            good.cols(),
            good.group_size(),
            good.tensor_scale(),
            blocks,
        );
        let report =
            codec.decompress_batch_report(&[&good, &poisoned], RecoveryPolicy::SalvageBlocks);
        assert!(report[0].is_ok(), "healthy tensor unaffected");
        match &report[1] {
            BatchOutcome::Salvaged { values, bad_blocks } => {
                let gs = ecco_tensor::GROUP_SIZE;
                let want = codec.decompress(&good);
                assert_eq!(&values[..2 * gs], &want.data()[..2 * gs]);
                assert!(values[2 * gs..3 * gs].iter().all(|&v| v == 0.0));
                assert_eq!(bad_blocks.len(), 1);
                assert_eq!(
                    (bad_blocks[0].tensor, bad_blocks[0].block),
                    (Some(1), Some(2)),
                    "error must be located"
                );
            }
            other => panic!("expected salvage, got {other:?}"),
        }

        // FailTensor: the corrupt page fails alone, located.
        let report = codec.decompress_batch_report(&[&good, &poisoned], RecoveryPolicy::FailTensor);
        assert!(report[0].is_ok());
        assert!(matches!(&report[1], BatchOutcome::Failed(e) if e.tensor == Some(1)));
    }

    #[test]
    fn minmax_close_to_mse_optimal() {
        // The paper's claim: the simplified selector costs only a small
        // accuracy drop (Section 3.2). At the pattern-selection level,
        // MSE-optimal is optimal by construction; end-to-end the two may
        // differ either way (codebooks are calibrated under min/max), but
        // must stay in the same quality class.
        let t = kv_tensor(3);
        let codec = KvCodec::calibrate(&[&t], &EccoConfig::default());
        let meta = codec.metadata();
        let scale = TensorMetadata::scale_for(&t);

        let mut fit_mse = 0.0;
        let mut fit_mm = 0.0;
        for g in t.groups(128) {
            let ng = crate::normalize_group(g, scale);
            let vals: Vec<f32> = ng
                .values
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != ng.max_pos)
                .map(|(_, &v)| v)
                .collect();
            let kp_mse = meta.select_pattern(&ng, crate::PatternSelector::MseOptimal);
            let kp_mm = meta.select_pattern(&ng, crate::PatternSelector::MinMax);
            fit_mse += meta.patterns()[kp_mse].sq_error(&vals);
            fit_mm += meta.patterns()[kp_mm].sq_error(&vals);
        }
        assert!(fit_mse <= fit_mm + 1e-9, "MSE-optimal fit can't be worse");

        let (mm_out, _) = codec.roundtrip(&t);
        let (mse_ct, _) = codec.compress_with(&t, crate::PatternSelector::MseOptimal);
        let mse_out = codec.decompress(&mse_ct);
        let e_mm = nmse(&t, &mm_out);
        let e_mse = nmse(&t, &mse_out);
        assert!(
            e_mm <= e_mse * 2.0 + 1e-6 && e_mse <= e_mm * 2.0 + 1e-6,
            "min/max NMSE {e_mm} and MSE-optimal NMSE {e_mse} diverged"
        );
    }

    #[test]
    fn nan_in_a_kv_group_leaves_its_finite_values_quantized() {
        // One NaN per group, at a position other than the absmax and
        // alternating in sign, must cost the group only that value: the
        // min/max selector ignores it and every finite value keeps its
        // symbol.
        let clean = SynthSpec::for_kind(TensorKind::KCache, 64, 1024)
            .seeded(61)
            .generate();
        let mut poisoned = clean.clone();
        let mut planted = 0;
        for (gi, g) in poisoned.data_mut().chunks_exact_mut(128).enumerate() {
            let absmax = crate::normalize_group(g, ecco_numerics::Po2Scale::IDENTITY).max_pos;
            let pos = (gi * 37 + 11) % 128;
            if pos != absmax {
                g[pos] = if gi % 2 == 0 { f32::NAN } else { -f32::NAN };
                planted += 1;
            }
        }
        // Three of the 512 groups have their absmax at the planting
        // position and stay clean.
        assert_eq!(planted, 509);

        let cfg = EccoConfig {
            max_calibration_groups: 512,
            ..EccoConfig::default()
        };
        let codec = KvCodec::calibrate(&[&clean], &cfg);
        // NMSE over the poisoned tensor's finite positions.
        let finite_nmse = |out: &Tensor| {
            let (mut num, mut den) = (0f64, 0f64);
            for ((&x, &y), &p) in clean.data().iter().zip(out.data()).zip(poisoned.data()) {
                if p.is_finite() {
                    num += ((x - y) as f64).powi(2);
                    den += (x as f64).powi(2);
                }
            }
            num / den
        };
        let clean_nmse = finite_nmse(&codec.roundtrip(&clean).0);
        let poisoned_nmse = finite_nmse(&codec.roundtrip(&poisoned).0);
        assert!(
            poisoned_nmse <= 1.5 * clean_nmse,
            "finite-position NMSE {poisoned_nmse} vs {clean_nmse} on the clean tensor"
        );
    }

    #[test]
    fn kcache_pads_more_than_weights() {
        // Heavier tails => shorter Huffman data => more padding space used.
        let cfg = EccoConfig::default();
        let k = kv_tensor(4);
        let kv_codec = KvCodec::calibrate(&[&k], &cfg);
        let (_, k_stats) = kv_codec.compress(&k);

        let w = SynthSpec::for_kind(TensorKind::Weight, 64, 256)
            .seeded(4)
            .generate();
        let w_codec = crate::WeightCodec::calibrate(&[&w], &cfg);
        let (_, w_stats) = w_codec.compress(&w);

        assert!(
            k_stats.pad_ratio() > w_stats.pad_ratio(),
            "k-cache pad {} must exceed weight pad {}",
            k_stats.pad_ratio(),
            w_stats.pad_ratio()
        );
    }
}
