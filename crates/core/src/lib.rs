//! The Ecco entropy-aware cache compression codec.
//!
//! This crate is the paper's primary contribution: a lossy cache-line codec
//! that packs each 128-value FP16 group into a fixed **64-byte** block
//! (4× compression for weights and KV cache) and each 64-value group into a
//! 64-byte block at 2× for activations. The 4× format combines:
//!
//! * a per-tensor **power-of-two FP16→FP8 scale** and per-group **FP8 scale
//!   factor** (the group absmax),
//! * **group-wise non-uniform quantization** against `S` shared k-means
//!   patterns of 15 centroids each,
//! * **multi-codebook Huffman coding** (`H` codebooks per pattern, code
//!   lengths limited to 2..=8 bits),
//! * an **outlier pad / clip** stage that fills leftover block space with
//!   the next-largest values at FP8 precision, or truncates overflow.
//!
//! The block layout implemented here (cf. Figure 6a of the paper):
//!
//! ```text
//! | ID_HF (log2 H bits) | SF (8b FP8) | ID_KP (1..15b) | Huffman data | outliers n×15b | 0-fill |
//! ```
//!
//! Clipping truncates the Huffman data mid-code at bit 512; because prefix
//! codes cannot decode a proper prefix of a code as valid, the decoder
//! recovers the exact clip point without any side information (see
//! `block::tests::clip_point_is_unambiguous`).
//!
//! # Parallelism and determinism
//!
//! Every hot path is sharded across the persistent worker [`pool`] with
//! order-preserving merges, so parallel and sequential runs are
//! **bit-identical**:
//!
//! * offline calibration ([`TensorMetadata::calibrate`]) fans out group
//!   normalization, the per-group k-means fits, histogram collection and
//!   codebook construction — pinned against the sequential reference
//!   [`TensorMetadata::calibrate_weighted_seq`] by differential proptests,
//! * each codec has one encode and one decode engine (see [`parallel`]):
//!   `compress`, `compress_batch`, `decompress`, `decompress_batch` and
//!   `decompress_batch_report` of [`WeightCodec`] and [`KvCodec`] all
//!   shard the independent 64-byte blocks of a whole batch across the
//!   pool in one pass,
//! * per-group pattern selection + quantization run in one pass over a
//!   reusable [`GroupScratch`] (see [`select`]: the KV path's min/max
//!   selector without sorting, the fused sweep for MSE-optimal and
//!   weighted selection) — pinned against the reference
//!   [`select_pattern_ref`] by differential proptests.
//!
//! # Quick start
//!
//! Calibrate once, then compress and decompress across the thread pool:
//!
//! ```
//! use ecco_core::{EccoConfig, RecoveryPolicy, WeightCodec};
//! use ecco_tensor::{synth::SynthSpec, TensorKind};
//!
//! let tensor = SynthSpec::for_kind(TensorKind::Weight, 64, 256).generate();
//! let codec = WeightCodec::calibrate(&[&tensor], &EccoConfig::default());
//!
//! let (compressed, stats) = codec.compress(&tensor);
//! let restored = codec.decompress(&compressed);
//!
//! assert_eq!(compressed.compressed_bytes(), tensor.len() / 2); // 4x vs FP16
//! assert!(ecco_tensor::stats::nmse(&tensor, &restored) < 0.01);
//! assert!(stats.clip_ratio() < 0.05);
//!
//! // The single-tensor calls are batches of one: the batch and report
//! // forms produce the same bits.
//! let report = codec.decompress_batch_report(&[&compressed], RecoveryPolicy::FailTensor);
//! assert_eq!(report[0].values().unwrap(), restored.data());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod adaptive;
pub mod block;
pub mod group;
pub mod kv;
pub mod metadata;
pub mod metrics;
pub mod parallel;
pub mod pattern;
pub mod pool;
pub mod select;
pub mod weight;
pub mod wire;

pub use activation::{ActivationBlock, ActivationCodec};
pub use adaptive::{AdaptiveBlock, AdaptiveCodec, AdaptivePolicy, AdaptiveStats, AdaptiveTensor};
pub use block::{
    decode_group, decode_group_into, encode_group, encode_group_scratch,
    encode_group_weighted_scratch, parse_block_header, read_block, write_block, BlockHeader,
    BlockValueTable, DecodeError, DecodeErrorKind, EncodedGroupInfo,
};
pub use group::{normalize_group, NormalizedGroup};
pub use kv::KvCodec;
pub use metadata::{PatternSelector, TensorMetadata};
pub use metrics::CodecStats;
pub use parallel::{BatchOutcome, RecoveryPolicy};
pub use pattern::{KmeansPattern, PatternBoundaries, NUM_CENTROIDS, SCALE_SYMBOL, SYMBOL_COUNT};
pub use pool::{quick_from_env, with_pool, Pool, PoolBuilder};
pub use select::{select_pattern_ref, GroupScratch};
pub use weight::{CompressedTensor, WeightCodec};

/// Top-level codec configuration (the paper's `S` and `H`). The 4×
/// format fixes groups at [`ecco_tensor::GROUP_SIZE`] values.
#[derive(Clone, Debug, PartialEq)]
pub struct EccoConfig {
    /// Number of shared k-means patterns `S` (paper default 64; the KV
    /// hardware path reduces this to 16).
    pub num_patterns: usize,
    /// Huffman codebooks per pattern `H` (paper default 4).
    pub books_per_pattern: usize,
    /// Maximum number of calibration groups sampled per tensor (keeps
    /// calibration tractable on large tensors; sampled evenly).
    pub max_calibration_groups: usize,
    /// Seed for every stochastic calibration step.
    pub seed: u64,
}

impl Default for EccoConfig {
    fn default() -> EccoConfig {
        EccoConfig {
            num_patterns: 64,
            books_per_pattern: 4,
            max_calibration_groups: 2048,
            seed: 0xECC0,
        }
    }
}

impl EccoConfig {
    /// Bits used by the `ID_HF` codebook-selector field.
    pub fn id_hf_bits(&self) -> u32 {
        usize::BITS - (self.books_per_pattern.max(1) - 1).leading_zeros()
    }

    /// Validates invariants the codec relies on.
    ///
    /// # Panics
    ///
    /// Panics if any field is out of the supported range.
    pub fn validate(&self) {
        assert!(
            (1..=4096).contains(&self.num_patterns),
            "S must be in 1..=4096"
        );
        assert!(
            (1..=256).contains(&self.books_per_pattern),
            "H must be in 1..=256"
        );
        assert!(self.max_calibration_groups >= 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_hf_bit_widths() {
        let mut cfg = EccoConfig::default();
        assert_eq!(cfg.id_hf_bits(), 2); // H = 4 -> 2 bits, as in Fig 6a
        cfg.books_per_pattern = 1;
        assert_eq!(cfg.id_hf_bits(), 0);
        cfg.books_per_pattern = 2;
        assert_eq!(cfg.id_hf_bits(), 1);
        cfg.books_per_pattern = 256;
        assert_eq!(cfg.id_hf_bits(), 8);
    }

    #[test]
    fn default_matches_paper() {
        let cfg = EccoConfig::default();
        assert_eq!(cfg.num_patterns, 64);
        assert_eq!(cfg.books_per_pattern, 4);
        cfg.validate();
    }
}
