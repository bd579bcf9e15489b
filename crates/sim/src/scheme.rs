//! Execution schemes: how each compared system stores and computes.

use crate::decomp::DecompressorModel;

/// Which tensor-core pipeline a scheme's GEMMs run on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ComputePrecision {
    /// FP16 MMA (312 TFLOPS on A100).
    Fp16,
    /// INT8 MMA (624 TOPS on A100).
    Int8,
}

/// One end-to-end execution scheme (precision + overhead model), the
/// simulator analogue of "TensorRT FP16", "AWQ", "SmoothQuant", "Olive",
/// "QuaRot" and "Ecco" in Figures 3 and 11.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecScheme {
    /// Display name used in experiment tables.
    pub name: String,
    /// Average stored bits per weight (including metadata).
    pub weight_bits: f64,
    /// Average stored bits per activation value.
    pub act_bits: f64,
    /// Average stored bits per KV-cache value.
    pub kv_bits: f64,
    /// Tensor-core pipeline for the main GEMMs.
    pub compute: ComputePrecision,
    /// Fraction of the tensor-core peak the scheme's GEMM kernels achieve.
    /// Fused-dequantization kernels (AWQ) and quant/dequant epilogues
    /// (QuaRot) pay here.
    pub compute_efficiency: f64,
    /// CUDA-core FLOPs spent per weight element on dequantization inside
    /// the kernel (0 for schemes whose data arrives ready to use).
    pub dequant_flops_per_weight: f64,
    /// Extra fraction of weight traffic spent on separately-stored
    /// scales/zeros fetched through poorly-utilized sectors.
    pub metadata_traffic_overhead: f64,
    /// Extra elementwise kernels per transformer layer (QuaRot's online
    /// Hadamard/quantize/dequantize ops).
    pub extra_kernels_per_layer: usize,
    /// CUDA-core FLOPs per activation element in those extra kernels.
    pub extra_flops_per_act_elem: f64,
    /// The L2-side decompressor, present only for cache-compressed schemes.
    pub decompressor: Option<DecompressorModel>,
}

impl ExecScheme {
    /// TensorRT-LLM FP16: the uncompressed baseline.
    pub fn fp16_trt() -> ExecScheme {
        ExecScheme {
            name: "TRT-FP16".to_string(),
            weight_bits: 16.0,
            act_bits: 16.0,
            kv_bits: 16.0,
            compute: ComputePrecision::Fp16,
            compute_efficiency: 0.85,
            dequant_flops_per_weight: 0.0,
            metadata_traffic_overhead: 0.0,
            extra_kernels_per_layer: 0,
            extra_flops_per_act_elem: 0.0,
            decompressor: None,
        }
    }

    /// AWQ W4A16 g128: 4-bit weights dequantized inside fused kernels.
    ///
    /// The fused dequant pipeline keeps the MMA units far from peak —
    /// excellent at batch 1–4 (weight-bound), increasingly poor as batch
    /// grows (Figure 11a's "AWQ incurs the highest overhead").
    pub fn awq() -> ExecScheme {
        ExecScheme {
            name: "AWQ".to_string(),
            weight_bits: 4.25,
            act_bits: 16.0,
            kv_bits: 16.0,
            compute: ComputePrecision::Fp16,
            compute_efficiency: 0.22,
            dequant_flops_per_weight: 2.0,
            metadata_traffic_overhead: 0.08,
            extra_kernels_per_layer: 0,
            extra_flops_per_act_elem: 0.0,
            decompressor: None,
        }
    }

    /// SmoothQuant W8A8 (KV8): INT8 tensor cores end to end.
    pub fn smoothquant() -> ExecScheme {
        ExecScheme {
            name: "SmoothQuant".to_string(),
            weight_bits: 8.0,
            act_bits: 8.0,
            kv_bits: 8.0,
            compute: ComputePrecision::Int8,
            compute_efficiency: 0.70,
            dequant_flops_per_weight: 0.0,
            metadata_traffic_overhead: 0.01,
            extra_kernels_per_layer: 1, // per-layer (de)quant of activations
            extra_flops_per_act_elem: 2.0,
            decompressor: None,
        }
    }

    /// OliVe accelerator config as in the paper: all weights unified to
    /// 8-bit, W8A8, KV left FP16, hardware outlier-victim decode (no
    /// kernel overhead).
    pub fn olive() -> ExecScheme {
        ExecScheme {
            name: "Olive".to_string(),
            weight_bits: 8.0,
            act_bits: 8.0,
            kv_bits: 16.0,
            compute: ComputePrecision::Int8,
            compute_efficiency: 0.70,
            dequant_flops_per_weight: 0.0,
            metadata_traffic_overhead: 0.0,
            extra_kernels_per_layer: 0,
            extra_flops_per_act_elem: 0.0,
            decompressor: None,
        }
    }

    /// QuaRot W4A4KV4: online Hadamard rotations + quantize/dequantize
    /// epilogues around every projection (the overhead anatomy of
    /// Figure 3b).
    pub fn quarot() -> ExecScheme {
        ExecScheme {
            name: "QuaRot".to_string(),
            weight_bits: 4.25,
            act_bits: 4.5,
            kv_bits: 4.25,
            compute: ComputePrecision::Fp16, // INT4 path modeled via efficiency
            compute_efficiency: 0.15,
            dequant_flops_per_weight: 1.0,
            metadata_traffic_overhead: 0.15,
            extra_kernels_per_layer: 6,
            extra_flops_per_act_elem: 16.0, // log2(128) butterflies + scale
            decompressor: None,
        }
    }

    /// QuaRot as measured in Figure 3: an eager-framework (HuggingFace/
    /// PyTorch) implementation where dequantization *materializes* FP16
    /// tensors through memory — each compressed operand is read at 4 bits,
    /// written back at FP16 and re-read by the consumer, so effective
    /// traffic exceeds the FP16 baseline (4.25 + 16 + ~6 cache-resident
    /// re-read bits ≈ 26 bits/value), on top of the extra rotation and
    /// (de)quantization kernels.
    pub fn quarot_eager() -> ExecScheme {
        ExecScheme {
            name: "QuaRot (eager)".to_string(),
            weight_bits: 26.0,
            kv_bits: 26.0,
            act_bits: 16.0,
            ..ExecScheme::quarot()
        }
    }

    /// Ecco: weights and KV at 4 bits, activations at 8, decompressed at
    /// the L2 boundary — kernels see plain FP16 data, so compute
    /// efficiency matches the FP16 baseline.
    pub fn ecco() -> ExecScheme {
        ExecScheme::ecco_with(DecompressorModel::shipped())
    }

    /// Ecco with an explicit decompressor configuration (Figure 14).
    pub fn ecco_with(decompressor: DecompressorModel) -> ExecScheme {
        ExecScheme {
            name: "Ecco".to_string(),
            weight_bits: 4.0,
            act_bits: 8.0,
            kv_bits: 4.0,
            compute: ComputePrecision::Fp16,
            compute_efficiency: 0.85,
            dequant_flops_per_weight: 0.0,
            metadata_traffic_overhead: 0.0,
            extra_kernels_per_layer: 0,
            extra_flops_per_act_elem: 0.0,
            decompressor: Some(decompressor),
        }
    }

    /// The five schemes of Figure 11, in the paper's plotting order.
    pub fn figure11_set() -> Vec<ExecScheme> {
        vec![
            ExecScheme::fp16_trt(),
            ExecScheme::olive(),
            ExecScheme::smoothquant(),
            ExecScheme::awq(),
            ExecScheme::ecco(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecco_is_the_only_cache_compressed_scheme() {
        for s in ExecScheme::figure11_set() {
            assert_eq!(s.decompressor.is_some(), s.name == "Ecco", "{}", s.name);
        }
    }

    #[test]
    fn weight_footprints_ordered() {
        assert!(ExecScheme::ecco().weight_bits < ExecScheme::awq().weight_bits);
        assert!(ExecScheme::awq().weight_bits < ExecScheme::smoothquant().weight_bits);
        assert!(ExecScheme::smoothquant().weight_bits < ExecScheme::fp16_trt().weight_bits);
    }

    #[test]
    fn only_quarot_adds_rotation_kernels() {
        assert!(ExecScheme::quarot().extra_kernels_per_layer >= 4);
        assert_eq!(ExecScheme::fp16_trt().extra_kernels_per_layer, 0);
        assert_eq!(ExecScheme::ecco().extra_kernels_per_layer, 0);
    }
}
