//! The L2-side decompressor as a timing-model stage (Figure 14's axes).

/// Timing model of the cache-integrated decompressor bank.
///
/// The paper replicates the decompressor 20× to match the L2's 5120 B/clk
/// peak; `throughput_frac` scales that ceiling (Figure 14a sweeps it down
/// to 10%). `latency_cycles` is the pipeline depth seen by a dependent
/// load (28 cycles in the shipped design; Figure 14b sweeps 0..300).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DecompressorModel {
    /// Decompressor bank throughput as a fraction of L2 peak bandwidth.
    pub throughput_frac: f64,
    /// Added pipeline latency in core clocks per exposed memory phase.
    pub latency_cycles: u32,
    /// Dependent memory phases per kernel whose latency cannot be hidden
    /// by prefetching (mainloop stages that stall on decompressed data).
    pub exposed_phases_per_kernel: f64,
}

impl DecompressorModel {
    /// The shipped configuration: full L2-rate bank, 28-cycle pipeline.
    pub fn shipped() -> DecompressorModel {
        DecompressorModel {
            throughput_frac: 1.0,
            latency_cycles: 28,
            exposed_phases_per_kernel: 34.0,
        }
    }

    /// Returns a copy with a different throughput fraction (Figure 14a).
    pub fn with_throughput_frac(mut self, frac: f64) -> DecompressorModel {
        assert!(frac > 0.0 && frac <= 1.0, "fraction must be in (0, 1]");
        self.throughput_frac = frac;
        self
    }

    /// Returns a copy with a different pipeline latency (Figure 14b).
    pub fn with_latency_cycles(mut self, cycles: u32) -> DecompressorModel {
        self.latency_cycles = cycles;
        self
    }

    /// Time to push `decompressed_bytes` through the bank, given L2 peak
    /// bandwidth in bytes/second.
    pub fn throughput_time(&self, decompressed_bytes: f64, l2_bw: f64) -> f64 {
        decompressed_bytes / (self.throughput_frac * l2_bw)
    }

    /// Exposed latency added to one kernel, in seconds.
    pub fn exposed_latency(&self, cycle_s: f64) -> f64 {
        self.latency_cycles as f64 * self.exposed_phases_per_kernel * cycle_s
    }
}

impl Default for DecompressorModel {
    fn default() -> DecompressorModel {
        DecompressorModel::shipped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_time_scales_inversely_with_fraction() {
        let full = DecompressorModel::shipped();
        let tenth = full.with_throughput_frac(0.1);
        let l2 = 7.2e12;
        assert!(
            (tenth.throughput_time(1e9, l2) / full.throughput_time(1e9, l2) - 10.0).abs() < 1e-9
        );
    }

    #[test]
    fn exposed_latency_linear_in_cycles() {
        let cyc = 1e-9 / 1.41;
        let a = DecompressorModel::shipped().with_latency_cycles(100);
        let b = DecompressorModel::shipped().with_latency_cycles(200);
        assert!((b.exposed_latency(cyc) / a.exposed_latency(cyc) - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn rejects_zero_throughput() {
        DecompressorModel::shipped().with_throughput_frac(0.0);
    }
}
