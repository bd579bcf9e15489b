//! GPU hardware specification.

/// Machine parameters of the simulated GPU.
///
/// Defaults model an NVIDIA A100-80GB (SXM): the platform the paper
/// simulates with Accel-Sim after tuner correlation.
#[derive(Clone, Debug, PartialEq)]
pub struct GpuSpec {
    /// Human-readable name.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sms: usize,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// HBM bandwidth in bytes/second.
    pub hbm_bw: f64,
    /// HBM capacity in bytes.
    pub hbm_capacity: f64,
    /// L2 cache size in bytes.
    pub l2_bytes: usize,
    /// L2 bandwidth in bytes per clock (the paper's 5120 B/cycle peak).
    pub l2_bytes_per_clk: f64,
    /// Peak FP16 tensor-core throughput in FLOP/s.
    pub fp16_tensor_flops: f64,
    /// Peak INT8 tensor-core throughput in OP/s.
    pub int8_tensor_ops: f64,
    /// Peak FP32 CUDA-core throughput in FLOP/s (dequant/rotation work).
    pub fp32_cuda_flops: f64,
    /// Kernel launch + scheduling overhead per kernel, seconds. TensorRT-
    /// class runtimes sit near 4 µs; eager PyTorch near 30 µs (Figure 3).
    pub kernel_launch_s: f64,
    /// Memory transaction sector size in bytes.
    pub sector_bytes: usize,
    /// Fraction of peak HBM bandwidth dense GEMM streams achieve.
    pub gemm_hbm_efficiency: f64,
    /// Fraction of peak HBM bandwidth scattered KV reads achieve.
    pub attention_hbm_efficiency: f64,
}

impl GpuSpec {
    /// An A100-80GB-class GPU with TensorRT-LLM-class launch overhead.
    pub fn a100() -> GpuSpec {
        GpuSpec {
            name: "A100-80GB".to_string(),
            sms: 108,
            clock_ghz: 1.41,
            hbm_bw: 2.039e12,
            hbm_capacity: 80e9,
            l2_bytes: 40 * 1024 * 1024,
            l2_bytes_per_clk: 5120.0,
            fp16_tensor_flops: 312e12,
            int8_tensor_ops: 624e12,
            fp32_cuda_flops: 19.5e12,
            kernel_launch_s: 4e-6,
            sector_bytes: 32,
            gemm_hbm_efficiency: 0.82,
            attention_hbm_efficiency: 0.60,
        }
    }

    /// The same machine driven by an eager framework (HuggingFace/PyTorch,
    /// as in Figure 3): identical silicon, ~30 µs per-op overhead.
    pub fn a100_eager() -> GpuSpec {
        GpuSpec {
            name: "A100-80GB (eager)".to_string(),
            kernel_launch_s: 30e-6,
            ..GpuSpec::a100()
        }
    }

    /// A TPU-class inference accelerator (Section 6.1): wide systolic
    /// compute, high HBM bandwidth, but a much smaller on-chip cache —
    /// the platform the paper argues benefits *more* from compressed
    /// cache capacity.
    pub fn accelerator() -> GpuSpec {
        GpuSpec {
            name: "Accelerator (TPU-class)".to_string(),
            sms: 2,
            clock_ghz: 0.94,
            hbm_bw: 1.2e12,
            hbm_capacity: 32e9,
            l2_bytes: 8 * 1024 * 1024,
            l2_bytes_per_clk: 4096.0,
            fp16_tensor_flops: 275e12,
            int8_tensor_ops: 550e12,
            fp32_cuda_flops: 4e12,
            kernel_launch_s: 2e-6,
            sector_bytes: 32,
            gemm_hbm_efficiency: 0.85,
            attention_hbm_efficiency: 0.65,
        }
    }

    /// An AI-capable client CPU (Section 6.1, e.g. Core Ultra class):
    /// small-batch inference is memory-bound here too, at far lower
    /// absolute bandwidth.
    pub fn ai_cpu() -> GpuSpec {
        GpuSpec {
            name: "AI CPU".to_string(),
            sms: 16,
            clock_ghz: 3.8,
            hbm_bw: 0.09e12, // dual-channel DDR5-5600
            hbm_capacity: 64e9,
            l2_bytes: 36 * 1024 * 1024, // shared L3
            l2_bytes_per_clk: 512.0,
            fp16_tensor_flops: 40e12, // NPU + AMX-class
            int8_tensor_ops: 80e12,
            fp32_cuda_flops: 2e12,
            kernel_launch_s: 0.5e-6,
            sector_bytes: 64,
            gemm_hbm_efficiency: 0.75,
            attention_hbm_efficiency: 0.55,
        }
    }

    /// L2 peak bandwidth in bytes/second.
    pub fn l2_bw(&self) -> f64 {
        self.l2_bytes_per_clk * self.clock_ghz * 1e9
    }

    /// Seconds per core clock cycle.
    pub fn cycle_s(&self) -> f64 {
        1e-9 / self.clock_ghz
    }
}

impl Default for GpuSpec {
    fn default() -> GpuSpec {
        GpuSpec::a100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_l2_bandwidth_matches_paper() {
        let gpu = GpuSpec::a100();
        // 5120 B/clk at 1.41 GHz ≈ 7.2 TB/s, the throughput the paper's 20
        // decompressor replicas are sized against.
        assert!((gpu.l2_bw() - 7.22e12).abs() / 7.22e12 < 0.01);
    }

    #[test]
    fn eager_only_changes_launch_cost() {
        let a = GpuSpec::a100();
        let b = GpuSpec::a100_eager();
        assert!(b.kernel_launch_s > a.kernel_launch_s * 5.0);
        assert_eq!(a.hbm_bw, b.hbm_bw);
    }
}
