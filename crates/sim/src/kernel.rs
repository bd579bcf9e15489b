//! Decode-phase kernels and their operand traffic under a scheme.

use crate::scheme::ExecScheme;

/// One GPU kernel of the decode step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kernel {
    /// Dense projection: activations `[m×k]` times weights `[k×n]`.
    /// `m` is the batch size during decode.
    Gemm {
        /// Rows of the activation operand (batch size in decode).
        m: usize,
        /// Output features (weight columns).
        n: usize,
        /// Reduction dimension (weight rows).
        k: usize,
    },
    /// Batched decode attention over the KV cache (the batched GEMV the
    /// paper describes): one query token per sequence attends to `seq`
    /// cached positions.
    AttentionDecode {
        /// Sequences in the batch.
        batch: usize,
        /// Query heads.
        heads: usize,
        /// KV heads (< heads under grouped-query attention).
        kv_heads: usize,
        /// Head dimension.
        head_dim: usize,
        /// Cached sequence length.
        seq: usize,
    },
    /// Causal self-attention over a whole prompt (prefill). Flash-style
    /// kernels keep K/V tiles on-chip, so HBM traffic is one read of
    /// Q/K/V and one write of the output and the (compressed) KV cache,
    /// while compute grows quadratically in the prompt.
    AttentionPrefill {
        /// Prompts in the batch.
        batch: usize,
        /// Query heads.
        heads: usize,
        /// KV heads.
        kv_heads: usize,
        /// Head dimension.
        head_dim: usize,
        /// Prompt length.
        prompt: usize,
    },
    /// Streaming elementwise work (norms, residuals, rotary embedding, or
    /// a scheme's extra quant/rotation ops) over `elems` activations.
    Elementwise {
        /// Number of activation elements touched.
        elems: usize,
        /// CUDA-core FLOPs per element.
        flops_per_elem: f64,
    },
}

impl Kernel {
    /// Convenience constructor for a projection GEMM.
    pub fn gemm(m: usize, n: usize, k: usize) -> Kernel {
        Kernel::Gemm { m, n, k }
    }

    /// Convenience constructor for a plain elementwise op (4 FLOPs/elem).
    pub fn elementwise(elems: usize) -> Kernel {
        Kernel::Elementwise {
            elems,
            flops_per_elem: 4.0,
        }
    }

    /// Returns `true` for attention kernels (decode's scattered KV reads
    /// or prefill's quadratic self-attention).
    pub fn is_attention(&self) -> bool {
        matches!(
            self,
            Kernel::AttentionDecode { .. } | Kernel::AttentionPrefill { .. }
        )
    }

    /// Computes operand traffic and compute work under `scheme`.
    pub fn traffic(&self, scheme: &ExecScheme) -> KernelTraffic {
        match *self {
            Kernel::Gemm { m, n, k } => {
                let weight_raw = (n * k) as f64 * scheme.weight_bits / 8.0;
                let weight_bytes = weight_raw * (1.0 + scheme.metadata_traffic_overhead);
                let act_bytes = (m * k + m * n) as f64 * scheme.act_bits / 8.0;
                let decompressed = if scheme.decompressor.is_some() {
                    // FP16-equivalent bytes emerging from the decompressor
                    // (weights 4×, activations 2× expansion).
                    ((n * k) as f64 + (m * k + m * n) as f64) * 2.0
                } else {
                    0.0
                };
                KernelTraffic {
                    hbm_bytes: weight_bytes + act_bytes,
                    decompressed_bytes: decompressed,
                    tensor_flops: 2.0 * (m * n * k) as f64,
                    cuda_flops: scheme.dequant_flops_per_weight * (n * k) as f64,
                    attention: false,
                }
            }
            Kernel::AttentionDecode {
                batch,
                heads,
                kv_heads,
                head_dim,
                seq,
            } => {
                let kv_elems = 2.0 * (batch * seq * kv_heads * head_dim) as f64;
                let kv_bytes = kv_elems * scheme.kv_bits / 8.0;
                let qo_bytes = 2.0 * (batch * heads * head_dim) as f64 * scheme.act_bits / 8.0;
                let decompressed = if scheme.decompressor.is_some() {
                    kv_elems * 2.0
                } else {
                    0.0
                };
                KernelTraffic {
                    hbm_bytes: kv_bytes + qo_bytes,
                    decompressed_bytes: decompressed,
                    // QK^T and PV: 2 MACs per cached element per query head.
                    tensor_flops: 4.0 * (batch * heads * seq * head_dim) as f64,
                    cuda_flops: 2.0 * (batch * heads * seq) as f64, // softmax
                    attention: true,
                }
            }
            Kernel::AttentionPrefill {
                batch,
                heads,
                kv_heads,
                head_dim,
                prompt,
            } => {
                let tokens = (batch * prompt) as f64;
                let q_bytes = tokens * (heads * head_dim) as f64 * scheme.act_bits / 8.0;
                let kv_elems = 2.0 * tokens * (kv_heads * head_dim) as f64;
                let kv_read = kv_elems * scheme.act_bits / 8.0; // K/V read once as activations
                let kv_write = kv_elems * scheme.kv_bits / 8.0; // cache written compressed
                let o_bytes = tokens * (heads * head_dim) as f64 * scheme.act_bits / 8.0;
                let decompressed = if scheme.decompressor.is_some() {
                    (q_bytes + kv_read + o_bytes) / scheme.act_bits * 16.0
                } else {
                    0.0
                };
                KernelTraffic {
                    hbm_bytes: q_bytes + kv_read + kv_write + o_bytes,
                    decompressed_bytes: decompressed,
                    // Causal QK^T + PV: 2 x 2 MACs over prompt²/2 pairs.
                    tensor_flops: 2.0
                        * (batch * heads * head_dim) as f64
                        * (prompt * prompt) as f64,
                    cuda_flops: (batch * heads * prompt * prompt / 2) as f64, // softmax
                    attention: false, // dense tiled access, GEMM-class efficiency
                }
            }
            Kernel::Elementwise {
                elems,
                flops_per_elem,
            } => {
                let bytes = 2.0 * elems as f64 * scheme.act_bits / 8.0;
                let decompressed = if scheme.decompressor.is_some() {
                    2.0 * elems as f64 * 2.0
                } else {
                    0.0
                };
                KernelTraffic {
                    hbm_bytes: bytes,
                    decompressed_bytes: decompressed,
                    tensor_flops: 0.0,
                    cuda_flops: flops_per_elem * elems as f64,
                    attention: false,
                }
            }
        }
    }
}

/// Operand traffic and compute work of one kernel under one scheme.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KernelTraffic {
    /// Bytes moved between HBM and L2 (compressed sizes).
    pub hbm_bytes: f64,
    /// FP16-equivalent bytes pushed through the decompressor (0 when no
    /// decompressor is present).
    pub decompressed_bytes: f64,
    /// Tensor-core FLOPs (or INT8 ops).
    pub tensor_flops: f64,
    /// CUDA-core FLOPs (dequantization, rotations, softmax).
    pub cuda_flops: f64,
    /// Whether the traffic has the scattered KV access pattern.
    pub attention: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_traffic_scales_with_weight_bits() {
        let g = Kernel::gemm(16, 13824, 5120);
        let fp16 = g.traffic(&ExecScheme::fp16_trt());
        let ecco = g.traffic(&ExecScheme::ecco());
        // Weights dominate at m=16: ~4x reduction in weight bytes plus 2x
        // on activations puts the total between 3.5x and 4x.
        let ratio = fp16.hbm_bytes / ecco.hbm_bytes;
        assert!(ratio > 3.5 && ratio <= 4.0, "ratio {ratio}");
    }

    #[test]
    fn gqa_reduces_kv_traffic() {
        let mha = Kernel::AttentionDecode {
            batch: 32,
            heads: 32,
            kv_heads: 32,
            head_dim: 128,
            seq: 4096,
        };
        let gqa = Kernel::AttentionDecode {
            batch: 32,
            heads: 32,
            kv_heads: 8,
            head_dim: 128,
            seq: 4096,
        };
        let s = ExecScheme::fp16_trt();
        let r = mha.traffic(&s).hbm_bytes / gqa.traffic(&s).hbm_bytes;
        assert!(
            r > 3.5 && r < 4.5,
            "GQA 4x fewer KV heads -> ~4x less traffic, got {r}"
        );
        // Compute is unchanged: same query heads.
        assert_eq!(mha.traffic(&s).tensor_flops, gqa.traffic(&s).tensor_flops);
    }

    #[test]
    fn decompressed_bytes_only_for_ecco() {
        let g = Kernel::gemm(8, 4096, 4096);
        assert_eq!(g.traffic(&ExecScheme::fp16_trt()).decompressed_bytes, 0.0);
        assert_eq!(g.traffic(&ExecScheme::awq()).decompressed_bytes, 0.0);
        let t = g.traffic(&ExecScheme::ecco());
        assert!(
            t.decompressed_bytes > t.hbm_bytes,
            "expansion through the bank"
        );
    }

    #[test]
    fn dequant_flops_charged_to_cuda_cores() {
        let g = Kernel::gemm(1, 4096, 4096);
        assert_eq!(g.traffic(&ExecScheme::fp16_trt()).cuda_flops, 0.0);
        let awq = g.traffic(&ExecScheme::awq());
        assert!((awq.cuda_flops - 2.0 * 4096.0 * 4096.0).abs() < 1.0);
    }
}
