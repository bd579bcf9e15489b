//! Pipeline latency/throughput accounting for the engines (Section 5.2).
//!
//! The paper reports a 28-cycle decompression pipeline, a 62-cycle
//! compression pipeline (off the critical path, traded for area), and 20
//! replicas of each engine so aggregate throughput matches the L2's
//! 5120 B/clk peak.

/// Stage-level latency budget of the engines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineSpec {
    /// Pattern/codebook retrieval stages.
    pub retrieve_cycles: u32,
    /// Speculative sub-decode stages.
    pub sub_decode_cycles: u32,
    /// Concatenation-tree stages (6 merges, pipelined with buffers).
    pub merge_cycles_per_stage: u32,
    /// Number of merge stages (log2 of 64 segments).
    pub merge_stages: u32,
    /// Data-mapper stages (index → centroid, outlier overlay).
    pub map_cycles: u32,
    /// Compression pipeline latency (not on the load critical path).
    pub compress_cycles: u32,
    /// Engine replicas deployed beside the L2.
    pub replicas: u32,
    /// Decompressed bytes each replica emits per cycle.
    pub bytes_per_cycle_per_replica: u32,
}

impl PipelineSpec {
    /// The shipped configuration from the paper.
    pub fn shipped() -> PipelineSpec {
        PipelineSpec {
            retrieve_cycles: 2,
            sub_decode_cycles: 4,
            merge_cycles_per_stage: 3,
            merge_stages: 6,
            map_cycles: 4,
            compress_cycles: 62,
            replicas: 20,
            bytes_per_cycle_per_replica: 256,
        }
    }

    /// End-to-end decompression latency in cycles (the paper's 28).
    pub fn decompress_cycles(&self) -> u32 {
        self.retrieve_cycles
            + self.sub_decode_cycles
            + self.merge_cycles_per_stage * self.merge_stages
            + self.map_cycles
    }

    /// Aggregate decompressed throughput in bytes per clock.
    pub fn aggregate_bytes_per_clk(&self) -> u32 {
        self.replicas * self.bytes_per_cycle_per_replica
    }

    /// Cycles to stream `blocks` 64-byte compressed blocks through the
    /// bank (pipelined: latency + one block per replica-cycle).
    pub fn stream_cycles(&self, blocks: u64) -> u64 {
        // Each replica emits 256 decompressed bytes (= one block) per
        // cycle, so the bank retires `replicas` blocks per cycle.
        self.decompress_cycles() as u64 + blocks.div_ceil(self.replicas as u64)
    }
}

impl Default for PipelineSpec {
    fn default() -> PipelineSpec {
        PipelineSpec::shipped()
    }
}

/// Discrete-cycle simulation of the decompressor bank serving a stream
/// of compressed blocks.
///
/// Blocks arrive at a configurable offered rate (blocks per cycle, e.g.
/// the HBM delivery rate of 64-byte blocks) and are dispatched to the
/// first free replica; each replica is fully pipelined (one block per
/// cycle throughput, [`PipelineSpec::decompress_cycles`] latency).
/// This exposes the queueing behaviour behind Figure 14a: offered load
/// beyond the bank's aggregate rate grows the queue without bound, while
/// under-provisioned banks saturate at their replica count.
#[derive(Clone, Debug)]
pub struct StreamSim {
    spec: PipelineSpec,
}

/// Result of one stream simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StreamStats {
    /// Blocks fully decompressed.
    pub completed: u64,
    /// Cycles simulated.
    pub cycles: u64,
    /// Mean block latency (arrival to completion) in cycles.
    pub mean_latency: f64,
    /// Peak queue depth observed.
    pub peak_queue: usize,
}

impl StreamStats {
    /// Achieved throughput in blocks per cycle.
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.completed as f64 / self.cycles as f64
        }
    }
}

impl StreamSim {
    /// Creates a simulator over `spec`.
    pub fn new(spec: PipelineSpec) -> StreamSim {
        StreamSim { spec }
    }

    /// Streams `blocks` arrivals at `offered_rate` blocks/cycle through
    /// the bank and drains the pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `offered_rate` is not positive.
    pub fn run(&self, blocks: u64, offered_rate: f64) -> StreamStats {
        assert!(offered_rate > 0.0, "offered rate must be positive");
        let latency = self.spec.decompress_cycles() as u64;
        let replicas = self.spec.replicas as u64;
        let mut queue: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
        let mut arrived = 0u64;
        let mut completed = 0u64;
        let mut latency_sum = 0u64;
        let mut peak_queue = 0usize;
        // Completion times of in-flight blocks, per issue cycle batch.
        let mut inflight: std::collections::VecDeque<(u64, u64)> =
            std::collections::VecDeque::new();
        let mut cycle = 0u64;
        let mut arrival_credit = 0f64;
        while completed < blocks {
            cycle += 1;
            // Arrivals.
            if arrived < blocks {
                arrival_credit += offered_rate;
                while arrival_credit >= 1.0 && arrived < blocks {
                    queue.push_back(cycle);
                    arrived += 1;
                    arrival_credit -= 1.0;
                }
            }
            peak_queue = peak_queue.max(queue.len());
            // Issue: each replica accepts one block per cycle.
            let mut issued_now = 0u64;
            while issued_now < replicas {
                match queue.pop_front() {
                    Some(arrival) => {
                        inflight.push_back((cycle + latency, arrival));
                        issued_now += 1;
                    }
                    None => break,
                }
            }
            // Retire.
            while let Some(&(done, arrival)) = inflight.front() {
                if done <= cycle {
                    inflight.pop_front();
                    completed += 1;
                    latency_sum += cycle - arrival;
                } else {
                    break;
                }
            }
        }
        StreamStats {
            completed,
            cycles: cycle,
            mean_latency: latency_sum as f64 / completed.max(1) as f64,
            peak_queue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_latency_is_28_cycles() {
        assert_eq!(PipelineSpec::shipped().decompress_cycles(), 28);
    }

    #[test]
    fn aggregate_matches_l2_peak() {
        // 20 replicas × 256 B/clk = 5120 B/clk, the paper's L2 peak.
        assert_eq!(PipelineSpec::shipped().aggregate_bytes_per_clk(), 5120);
    }

    #[test]
    fn streaming_amortizes_latency() {
        let p = PipelineSpec::shipped();
        let one = p.stream_cycles(1);
        let many = p.stream_cycles(20_000);
        // Throughput regime: ~1 cycle per 20 blocks plus the 28-cycle fill.
        assert_eq!(one, 29);
        assert!((many as f64 / (20_000.0 / 20.0) - 1.0).abs() < 0.05);
    }

    #[test]
    fn stream_under_capacity_has_low_latency() {
        let sim = StreamSim::new(PipelineSpec::shipped());
        // Offered 10 blocks/cycle against 20 replicas: no queueing.
        let s = sim.run(10_000, 10.0);
        assert!(
            s.mean_latency <= PipelineSpec::shipped().decompress_cycles() as f64 + 2.0,
            "mean latency {}",
            s.mean_latency
        );
        assert!((s.throughput() - 10.0).abs() < 0.5);
    }

    #[test]
    fn stream_saturates_at_replica_count() {
        let sim = StreamSim::new(PipelineSpec::shipped());
        // Offered 40 blocks/cycle against 20 replicas: throughput caps at
        // 20 and the queue grows.
        let s = sim.run(20_000, 40.0);
        assert!(
            (s.throughput() - 20.0).abs() < 1.0,
            "throughput {}",
            s.throughput()
        );
        assert!(s.peak_queue > 1_000, "queue must back up: {}", s.peak_queue);
        assert!(
            s.mean_latency > 100.0,
            "overload latency {} must exceed pipeline depth",
            s.mean_latency
        );
    }

    #[test]
    fn halved_bank_doubles_backlog_latency() {
        // The Figure 14a mechanism at the queue level.
        let full = StreamSim::new(PipelineSpec::shipped()).run(20_000, 18.0);
        let half = StreamSim::new(PipelineSpec {
            replicas: 10,
            ..PipelineSpec::shipped()
        })
        .run(20_000, 18.0);
        assert!(half.mean_latency > full.mean_latency * 2.0);
    }

    #[test]
    fn compression_latency_exceeds_decompression() {
        // The paper trades compressor latency (62 cycles) for area since
        // stores are off the critical path.
        let p = PipelineSpec::shipped();
        assert!(p.compress_cycles > p.decompress_cycles());
        assert_eq!(p.compress_cycles, 62);
    }
}
