//! Cycle-accurate functional models of the Ecco hardware (Sections 4.2
//! and 4.3 of the paper).
//!
//! These models prove the paper's parallel decode algorithm correct and
//! provide the latency/area/power numbers the evaluation reports:
//!
//! * [`bitonic`] — the 128-lane bitonic sorting network the compressor
//!   uses to extract the scale factor, top-16 outliers and group min/max,
//! * [`paradec`] — the 64-decoder × 8-sub-decoder speculative parallel
//!   Huffman decoder with its 6-stage concatenation tree, proven
//!   equivalent to sequential decoding (property-tested),
//! * [`compressor`] — the hardware compression pipeline (min/max pattern
//!   selector over 16 patterns, 4 parallel Huffman encoders, clip),
//!   proven equivalent to the reference codec,
//! * [`pipeline`] — stage/latency accounting (28-cycle decompression,
//!   62-cycle compression, 20 replicas matching 5120 B/clk L2 peak),
//! * [`area`] — the gate-count area/power model behind Table 3.
//!
//! # Examples
//!
//! Decode a compressed tensor's blocks through the hardware decoder model
//! and check it agrees with the reference codec bit for bit:
//!
//! ```
//! use ecco_core::{EccoConfig, WeightCodec};
//! use ecco_tensor::{synth::SynthSpec, TensorKind};
//!
//! let t = SynthSpec::for_kind(TensorKind::Weight, 8, 256).generate();
//! let codec = WeightCodec::calibrate(&[&t], &EccoConfig::default());
//! let (ct, _) = codec.compress_parallel(&t);
//!
//! let meta = codec.metadata().with_scale(ct.tensor_scale());
//! let hw_values = ecco_hw::decode_blocks_parallel(ct.blocks(), &meta).unwrap();
//! assert_eq!(hw_values, codec.decompress_parallel(&ct).data());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod bitonic;
pub mod compressor;
pub mod paradec;
pub mod pipeline;

pub use area::{AreaPowerModel, ComponentArea};
pub use bitonic::BitonicSorter;
pub use compressor::HwCompressor;
pub use paradec::{
    decode_block_parallel, decode_block_parallel_into, decode_blocks_parallel,
    decode_tensors_batch, decode_tensors_batch_report, DecodeStats, ParallelDecoder,
};
pub use pipeline::{PipelineSpec, StreamSim, StreamStats};
