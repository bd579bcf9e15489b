//! QoQ (QServe): W4A8KV4 progressive quantization (Lin et al., 2024).
//!
//! QServe's "quantization-on-quantization" first scales each channel to an
//! INT8 grid (per-channel FP16 scale), then applies 4-bit group
//! quantization *within* the INT8 domain, so the expensive per-group
//! scales become cheap 8-bit integers. KV4 uses SmoothAttention-style
//! per-channel smoothing before 4-bit group quantization.

use ecco_tensor::Tensor;

use crate::uniform::{rtn_quantize, Granularity};

/// The QoQ quantizer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Qoq {
    group: usize,
}

impl Qoq {
    /// Creates a W4A8KV4 quantizer with the given weight group size.
    pub fn new(group: usize) -> Qoq {
        Qoq { group }
    }

    /// The paper's configuration (group 128).
    pub fn g128() -> Qoq {
        Qoq::new(128)
    }

    /// Progressive W4 (8-bit channel scale → 4-bit group) weight path.
    pub fn quantize_weight(&self, weights: &Tensor) -> Tensor {
        let cols = weights.cols();
        // Level 1: symmetric per-channel scale onto the INT8 grid.
        let mut int8 = weights.clone();
        let mut ch_scale = vec![0f32; weights.rows()];
        for (r, row) in int8.data_mut().chunks_mut(cols).enumerate() {
            let absmax = row.iter().fold(0f32, |m, &x| m.max(x.abs())).max(1e-12);
            let s = absmax / 127.0;
            ch_scale[r] = s;
            for x in row.iter_mut() {
                *x = (*x / s).round().clamp(-127.0, 127.0);
            }
        }
        // Level 2: asymmetric 4-bit groups in the INT8 domain. The group
        // scales live on the INT8 grid in QServe, but reconstructed values
        // are not re-rounded — only the two quantization levels stack.
        let q = rtn_quantize(&int8, 4, Granularity::PerGroup(self.group));
        let mut out = q;
        for (r, row) in out.data_mut().chunks_mut(cols).enumerate() {
            for x in row.iter_mut() {
                *x = ecco_numerics::round_f16(*x * ch_scale[r]);
            }
        }
        out
    }

    /// A8: per-token (row) 8-bit activations.
    pub fn quantize_activation(&self, activations: &Tensor) -> Tensor {
        rtn_quantize(activations, 8, Granularity::PerChannel)
    }

    /// KV4: SmoothAttention-style per-column smoothing then 4-bit groups.
    pub fn quantize_kv(&self, kv: &Tensor) -> Tensor {
        let cols = kv.cols();
        let mut col_max = vec![1e-6f32; cols];
        for (i, &x) in kv.data().iter().enumerate() {
            let c = i % cols;
            col_max[c] = col_max[c].max(x.abs());
        }
        let s: Vec<f32> = col_max.iter().map(|&m| m.sqrt().clamp(1e-3, 1e3)).collect();
        let mut t = kv.clone();
        for (i, x) in t.data_mut().iter_mut().enumerate() {
            *x /= s[i % cols];
        }
        let mut q = rtn_quantize(&t, 4, Granularity::PerGroup(self.group));
        for (i, x) in q.data_mut().iter_mut().enumerate() {
            *x = ecco_numerics::round_f16(*x * s[i % cols]);
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecco_tensor::{stats::nmse, synth::SynthSpec, TensorKind};

    #[test]
    fn weight_path_quality() {
        let w = SynthSpec::for_kind(TensorKind::Weight, 32, 512)
            .seeded(91)
            .generate();
        let e = nmse(&w, &Qoq::g128().quantize_weight(&w));
        assert!(e < 0.02, "QoQ W4 NMSE {e}");
    }

    #[test]
    fn progressive_close_to_direct_group_quant() {
        // The INT8 intermediate costs a little accuracy versus direct FP16
        // group quantization but must stay in the same regime.
        let w = SynthSpec::for_kind(TensorKind::Weight, 32, 512)
            .seeded(92)
            .generate();
        let e_qoq = nmse(&w, &Qoq::g128().quantize_weight(&w));
        let e_direct = nmse(&w, &rtn_quantize(&w, 4, Granularity::PerGroup(128)));
        assert!(
            e_qoq >= e_direct * 0.9,
            "progressive shouldn't magically win"
        );
        assert!(e_qoq <= e_direct * 2.0, "QoQ {e_qoq} vs direct {e_direct}");
    }

    #[test]
    fn kv_smoothing_beats_direct_kv4() {
        let kv = SynthSpec::for_kind(TensorKind::KCache, 64, 512)
            .seeded(93)
            .generate();
        let e_qoq = nmse(&kv, &Qoq::g128().quantize_kv(&kv));
        let e_direct = nmse(&kv, &rtn_quantize(&kv, 4, Granularity::PerGroup(128)));
        assert!(
            e_qoq < e_direct,
            "SmoothAttention KV4 {e_qoq} must beat direct KV4 {e_direct}"
        );
    }

    #[test]
    fn activation_path_is_8bit_quality() {
        let a = SynthSpec::for_kind(TensorKind::Activation, 32, 512)
            .seeded(94)
            .generate();
        let e = nmse(&a, &Qoq::g128().quantize_activation(&a));
        assert!(e < 1e-3, "A8 NMSE {e}");
    }
}
