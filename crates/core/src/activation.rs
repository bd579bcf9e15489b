//! The activation compression path (2×, Figure 6b of the paper).
//!
//! Activations are consumed by the very next kernel, so the paper uses a
//! deliberately simple scheme: 64 values per 64-byte block, 7-bit uniform
//! quantization with a zero point, and the spare eighth bit of every byte
//! interleaving a 16-bit FP16 scale and a 16-bit FP16 zero point (32 of the
//! 64 spare bits; the rest are zero).

use ecco_bits::{Block64, BLOCK_BYTES};
use ecco_numerics::F16;
use ecco_tensor::Tensor;

use crate::metrics::CodecStats;

/// Values per activation block.
pub const ACT_GROUP_SIZE: usize = 64;
/// Quantization levels (7-bit unsigned).
const LEVELS: f32 = 127.0;

/// A compressed activation block: 64 bytes carrying 64 values.
pub type ActivationBlock = Block64;

/// The stateless 2× activation codec.
///
/// # Examples
///
/// ```
/// use ecco_core::ActivationCodec;
/// use ecco_tensor::{synth::SynthSpec, TensorKind};
///
/// let t = SynthSpec::for_kind(TensorKind::Activation, 16, 256).generate();
/// let codec = ActivationCodec::new();
/// let (blocks, stats) = codec.compress(&t);
/// let out = codec.decompress(&blocks, t.rows(), t.cols());
/// assert_eq!(blocks.len() * 64, t.len()); // 2x vs FP16
/// assert_eq!(stats.groups, blocks.len());
/// assert!(ecco_tensor::stats::nmse(&t, &out) < 1e-3);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ActivationCodec;

impl ActivationCodec {
    /// Creates the codec (stateless; provided for API symmetry).
    pub fn new() -> ActivationCodec {
        ActivationCodec
    }

    /// Compresses one 64-value group into a 64-byte block.
    ///
    /// # Panics
    ///
    /// Panics if `group.len() != 64`.
    pub fn compress_group(&self, group: &[f32]) -> ActivationBlock {
        assert_eq!(
            group.len(),
            ACT_GROUP_SIZE,
            "activation groups hold 64 values"
        );
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &x in group {
            lo = lo.min(x);
            hi = hi.max(x);
        }
        if !lo.is_finite() || !hi.is_finite() {
            lo = 0.0;
            hi = 0.0;
        }
        let zp = F16::from_f32(lo);
        let zp_f = zp.to_f32();
        let raw_scale = if hi > zp_f { (hi - zp_f) / LEVELS } else { 0.0 };
        // Round the scale *up* through FP16 so `hi` still maps within range.
        let mut scale = F16::from_f32(raw_scale);
        if scale.to_f32() < raw_scale {
            scale = F16::from_bits(scale.to_bits() + 1);
        }
        let scale_f = scale.to_f32();

        let mut bytes = [0u8; BLOCK_BYTES];
        for (i, &x) in group.iter().enumerate() {
            let q = if scale_f > 0.0 {
                (((x - zp_f) / scale_f).round()).clamp(0.0, LEVELS) as u8
            } else {
                0
            };
            bytes[i] = q & 0x7F;
        }
        // Interleave metadata into the high bit of each byte:
        // bytes 0..16 carry the scale bits, 16..32 the zero-point bits.
        let meta = ((scale.to_bits() as u32) << 16) | zp.to_bits() as u32;
        for (i, byte) in bytes.iter_mut().enumerate().take(32) {
            let bit = (meta >> (31 - i)) & 1;
            *byte |= (bit as u8) << 7;
        }
        Block64::from_bytes(bytes)
    }

    /// Decompresses one block back into 64 FP16 values.
    pub fn decompress_group(&self, block: &ActivationBlock) -> Vec<f32> {
        let bytes = block.as_bytes();
        let mut meta = 0u32;
        for (i, &b) in bytes.iter().enumerate().take(32) {
            meta |= (((b >> 7) & 1) as u32) << (31 - i);
        }
        let scale = F16::from_bits((meta >> 16) as u16).to_f32();
        let zp = F16::from_bits((meta & 0xFFFF) as u16).to_f32();
        bytes
            .iter()
            .map(|&b| ecco_numerics::round_f16(zp + (b & 0x7F) as f32 * scale))
            .collect()
    }

    /// Compresses a whole activation tensor (length must be a multiple of
    /// 64). Returns blocks plus the encoder's bit accounting; compression
    /// never decodes.
    pub fn compress(&self, tensor: &Tensor) -> (Vec<ActivationBlock>, CodecStats) {
        let blocks: Vec<ActivationBlock> = tensor
            .groups(ACT_GROUP_SIZE)
            .map(|g| self.compress_group(g))
            .collect();
        let n = blocks.len();
        let stats = CodecStats {
            groups: n,
            values: n * ACT_GROUP_SIZE,
            data_bits: n * ACT_GROUP_SIZE * 7,
            header_bits: n * 32,
            ..CodecStats::default()
        };
        (blocks, stats)
    }

    /// Decompresses a block sequence back into a `rows × cols` tensor.
    ///
    /// # Panics
    ///
    /// Panics if `blocks.len() * 64 != rows * cols`.
    pub fn decompress(&self, blocks: &[ActivationBlock], rows: usize, cols: usize) -> Tensor {
        assert_eq!(blocks.len() * ACT_GROUP_SIZE, rows * cols, "shape mismatch");
        let mut data = Vec::with_capacity(rows * cols);
        for b in blocks {
            data.extend_from_slice(&self.decompress_group(b));
        }
        Tensor::from_vec(rows, cols, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecco_tensor::{stats::nmse, synth::SynthSpec, TensorKind};
    use proptest::prelude::*;

    #[test]
    fn roundtrip_tensor() {
        let t = SynthSpec::for_kind(TensorKind::Activation, 32, 256)
            .seeded(31)
            .generate();
        let codec = ActivationCodec::new();
        let (blocks, stats) = codec.compress(&t);
        let out = codec.decompress(&blocks, 32, 256);
        let e = nmse(&t, &out);
        assert!(e < 1e-3, "activation NMSE {e}");
        assert_eq!(stats.values, t.len());
    }

    #[test]
    fn exact_2x_ratio() {
        let t = SynthSpec::for_kind(TensorKind::Activation, 16, 128).generate();
        let (blocks, _) = ActivationCodec::new().compress(&t);
        assert_eq!(blocks.len() * BLOCK_BYTES * 2, t.len() * 2);
    }

    #[test]
    fn constant_group_is_exact() {
        let g = [3.25f32; ACT_GROUP_SIZE];
        let codec = ActivationCodec::new();
        let out = codec.decompress_group(&codec.compress_group(&g));
        assert!(out.iter().all(|&v| v == 3.25), "{out:?}");
    }

    #[test]
    fn zero_group_is_exact() {
        let g = [0f32; ACT_GROUP_SIZE];
        let codec = ActivationCodec::new();
        let out = codec.decompress_group(&codec.compress_group(&g));
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn extremes_map_inside_range() {
        let mut g = [0f32; ACT_GROUP_SIZE];
        g[0] = -5.5;
        g[63] = 11.0;
        let codec = ActivationCodec::new();
        let out = codec.decompress_group(&codec.compress_group(&g));
        // Min and max are representable almost exactly (7-bit grid ends).
        assert!((out[0] + 5.5).abs() < 0.14, "min -> {}", out[0]);
        assert!((out[63] - 11.0).abs() < 0.14, "max -> {}", out[63]);
    }

    proptest! {
        #[test]
        fn error_bounded_by_half_step(vals in prop::collection::vec(-8.0f32..8.0, ACT_GROUP_SIZE)) {
            let vals: Vec<f32> = vals.iter().map(|&v| ecco_numerics::round_f16(v)).collect();
            let codec = ActivationCodec::new();
            let out = codec.decompress_group(&codec.compress_group(&vals));
            let lo = vals.iter().cloned().fold(f32::INFINITY, f32::min);
            let hi = vals.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let step = (hi - lo).max(1e-6) / 127.0;
            for (a, b) in vals.iter().zip(&out) {
                // Half a step of quantization + FP16 rounding slack.
                prop_assert!(
                    (a - b).abs() <= step * 0.75 + (a.abs() + 1.0) * 2e-3,
                    "value {} -> {} (step {})", a, b, step
                );
            }
        }
    }
}
