//! Adaptive lossy/raw compression (the paper's Section 6.2 HPC
//! extension).
//!
//! For workloads that cannot tolerate lossy reconstruction everywhere,
//! the paper proposes keeping data uncompressed wherever the compressed
//! representation misses the target: the page-table compression bit
//! already distinguishes compressed from raw pages, so mixed storage
//! costs nothing extra architecturally. This codec makes that decision
//! per group: blocks whose round-trip error exceeds a tolerance (or that
//! clipped) are stored raw at FP16.

use ecco_bits::Block64;
use ecco_numerics::Po2Scale;
use ecco_tensor::{Tensor, GROUP_SIZE};

use crate::block::{decode_group_scaled_into, encode_group_scratch};
use crate::metadata::{PatternSelector, TensorMetadata};
use crate::select::GroupScratch;
use crate::weight::WeightCodec;
use crate::EccoConfig;

/// One adaptive block: compressed 4× or raw FP16.
#[derive(Clone, Debug, PartialEq)]
pub enum AdaptiveBlock {
    /// A 64-byte Ecco block (4× compressed).
    Compressed(Block64),
    /// 128 raw FP16 values (256 bytes) — the lossless fallback.
    Raw(Vec<f32>),
}

impl AdaptiveBlock {
    /// Stored size in bytes.
    pub fn stored_bytes(&self) -> usize {
        match self {
            AdaptiveBlock::Compressed(_) => 64,
            AdaptiveBlock::Raw(v) => v.len() * 2,
        }
    }
}

/// A tensor compressed adaptively: mixed 64-byte blocks and raw groups,
/// plus the per-tensor scale the compressed blocks were encoded under.
#[derive(Clone, Debug)]
pub struct AdaptiveTensor {
    rows: usize,
    cols: usize,
    tensor_scale: Po2Scale,
    blocks: Vec<AdaptiveBlock>,
}

impl AdaptiveTensor {
    /// Borrow the block stream.
    pub fn blocks(&self) -> &[AdaptiveBlock] {
        &self.blocks
    }

    /// Total stored bytes.
    pub fn stored_bytes(&self) -> usize {
        self.blocks.iter().map(AdaptiveBlock::stored_bytes).sum()
    }
}

/// Aggregate statistics of one adaptive compression.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AdaptiveStats {
    /// Groups stored compressed.
    pub compressed_groups: usize,
    /// Groups stored raw.
    pub raw_groups: usize,
    /// Achieved ratio vs FP16 (between 1× and 4×).
    pub effective_ratio: f64,
    /// Round-trip NMSE (0 when everything fell back to raw).
    pub nmse: f64,
}

/// Per-group error tolerance policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptivePolicy {
    /// Maximum per-group relative squared error (`Σerr²/Σref²`) tolerated
    /// before falling back to raw storage.
    pub max_group_nmse: f64,
    /// Fall back whenever any symbol was clipped, regardless of error.
    pub reject_clipped: bool,
}

impl Default for AdaptivePolicy {
    fn default() -> AdaptivePolicy {
        AdaptivePolicy {
            max_group_nmse: 0.01,
            reject_clipped: true,
        }
    }
}

/// The adaptive codec: an Ecco weight codec plus a fallback policy.
///
/// # Examples
///
/// ```
/// use ecco_core::adaptive::{AdaptiveCodec, AdaptivePolicy};
/// use ecco_core::EccoConfig;
/// use ecco_tensor::{synth::SynthSpec, TensorKind};
///
/// let t = SynthSpec::for_kind(TensorKind::Weight, 32, 256).generate();
/// let codec = AdaptiveCodec::calibrate(&[&t], &EccoConfig::default(), AdaptivePolicy::default());
/// let (blocks, stats) = codec.compress(&t);
/// let out = codec.decompress(&blocks);
/// assert!(stats.effective_ratio >= 1.0);
/// assert!(ecco_tensor::stats::nmse(&t, &out) <= codec.policy().max_group_nmse);
/// ```
#[derive(Clone, Debug)]
pub struct AdaptiveCodec {
    inner: WeightCodec,
    policy: AdaptivePolicy,
}

impl AdaptiveCodec {
    /// Calibrates the underlying Ecco codec and attaches the policy.
    pub fn calibrate(
        tensors: &[&Tensor],
        cfg: &EccoConfig,
        policy: AdaptivePolicy,
    ) -> AdaptiveCodec {
        AdaptiveCodec {
            inner: WeightCodec::calibrate(tensors, cfg),
            policy,
        }
    }

    /// The fallback policy.
    pub fn policy(&self) -> AdaptivePolicy {
        self.policy
    }

    /// Compresses under the tensor's own scale, falling back to raw per
    /// group when the policy demands.
    pub fn compress(&self, tensor: &Tensor) -> (AdaptiveTensor, AdaptiveStats) {
        let tensor_scale = TensorMetadata::scale_for(tensor);
        let meta = self.inner.metadata();
        let mut scratch = GroupScratch::new();
        let mut out = Vec::with_capacity(GROUP_SIZE);
        let mut blocks = Vec::with_capacity(tensor.len() / GROUP_SIZE);
        let mut stats = AdaptiveStats::default();
        let mut sum_err = 0f64;
        let mut sum_ref = 0f64;
        let mut stored_bytes = 0usize;
        for g in tensor.groups(GROUP_SIZE) {
            let selector = PatternSelector::MseOptimal;
            let (block, info) = encode_group_scratch(g, meta, tensor_scale, selector, &mut scratch);
            out.clear();
            decode_group_scaled_into(&block, meta, tensor_scale, &mut out).expect("own block");
            let (mut e, mut r) = (0f64, 0f64);
            for (&a, &b) in g.iter().zip(&out) {
                e += ((a - b) as f64).powi(2);
                r += (a as f64).powi(2);
            }
            let group_nmse = if r > 0.0 { e / r } else { 0.0 };
            let reject = (self.policy.reject_clipped && info.clipped_symbols > 0)
                || group_nmse > self.policy.max_group_nmse;
            let ab = if reject {
                stats.raw_groups += 1;
                AdaptiveBlock::Raw(g.to_vec())
            } else {
                stats.compressed_groups += 1;
                sum_err += e;
                AdaptiveBlock::Compressed(block)
            };
            sum_ref += r;
            stored_bytes += ab.stored_bytes();
            blocks.push(ab);
        }
        stats.effective_ratio = (tensor.len() * 2) as f64 / stored_bytes as f64;
        stats.nmse = if sum_ref > 0.0 {
            sum_err / sum_ref
        } else {
            0.0
        };
        (
            AdaptiveTensor {
                rows: tensor.rows(),
                cols: tensor.cols(),
                tensor_scale,
                blocks,
            },
            stats,
        )
    }

    /// Decompresses an adaptive stream back into a tensor. Raw groups are
    /// copied losslessly; compressed groups decode under the stream's own
    /// per-tensor scale.
    pub fn decompress(&self, at: &AdaptiveTensor) -> Tensor {
        let meta = self.inner.metadata();
        let mut data = Vec::with_capacity(at.rows * at.cols);
        for b in &at.blocks {
            match b {
                AdaptiveBlock::Raw(v) => data.extend_from_slice(v),
                AdaptiveBlock::Compressed(block) => {
                    decode_group_scaled_into(block, meta, at.tensor_scale, &mut data)
                        .expect("valid block");
                }
            }
        }
        Tensor::from_vec(at.rows, at.cols, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecco_tensor::{stats::nmse, synth::SynthSpec, TensorKind};

    fn codec_for(t: &Tensor, policy: AdaptivePolicy) -> AdaptiveCodec {
        let cfg = EccoConfig {
            num_patterns: 16,
            max_calibration_groups: 256,
            ..EccoConfig::default()
        };
        AdaptiveCodec::calibrate(&[t], &cfg, policy)
    }

    #[test]
    fn strict_policy_bounds_error() {
        let t = SynthSpec::for_kind(TensorKind::Weight, 32, 1024)
            .seeded(3001)
            .generate();
        // A tolerance inside the codec's per-group error distribution
        // (median group NMSE ~1e-2 on weights) forces a genuine mix.
        let policy = AdaptivePolicy {
            max_group_nmse: 8e-3,
            reject_clipped: true,
        };
        let codec = codec_for(&t, policy);
        let (blocks, stats) = codec.compress(&t);
        let out = codec.decompress(&blocks);
        assert!(
            nmse(&t, &out) <= policy.max_group_nmse,
            "{}",
            nmse(&t, &out)
        );
        assert!(stats.compressed_groups > 0, "some groups must compress");
        assert!(stats.raw_groups > 0, "some groups must fall back");
        assert!(stats.effective_ratio > 1.0 && stats.effective_ratio < 4.0);
        assert_eq!(stats.raw_groups + stats.compressed_groups, t.len() / 128);
    }

    #[test]
    fn zero_tolerance_stores_everything_raw() {
        let t = SynthSpec::for_kind(TensorKind::Weight, 16, 1024)
            .seeded(3002)
            .generate();
        let codec = codec_for(
            &t,
            AdaptivePolicy {
                max_group_nmse: 0.0,
                reject_clipped: true,
            },
        );
        let (blocks, stats) = codec.compress(&t);
        assert_eq!(stats.compressed_groups, 0);
        assert!((stats.effective_ratio - 1.0).abs() < 1e-12);
        let out = codec.decompress(&blocks);
        assert_eq!(out.data(), t.data(), "raw fallback is lossless");
    }

    #[test]
    fn loose_tolerance_compresses_everything() {
        let t = SynthSpec::for_kind(TensorKind::Weight, 16, 1024)
            .seeded(3003)
            .generate();
        let codec = codec_for(
            &t,
            AdaptivePolicy {
                max_group_nmse: 1.0,
                reject_clipped: false,
            },
        );
        let (_, stats) = codec.compress(&t);
        assert_eq!(stats.raw_groups, 0);
        assert!((stats.effective_ratio - 4.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_interpolates_with_tolerance() {
        let t = SynthSpec::for_kind(TensorKind::KCache, 32, 1024)
            .seeded(3004)
            .generate();
        let strict = codec_for(
            &t,
            AdaptivePolicy {
                max_group_nmse: 1e-5,
                reject_clipped: true,
            },
        );
        let loose = codec_for(
            &t,
            AdaptivePolicy {
                max_group_nmse: 1e-2,
                reject_clipped: true,
            },
        );
        let (_, s1) = strict.compress(&t);
        let (_, s2) = loose.compress(&t);
        assert!(s2.effective_ratio >= s1.effective_ratio);
    }
}
