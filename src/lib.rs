//! # Ecco — entropy-aware cache compression for LLMs (ISCA '25 reproduction)
//!
//! This meta-crate re-exports the whole workspace under one roof so the
//! examples and downstream users need a single dependency:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`numerics`] | `ecco-numerics` | software FP16 / FP8, power-of-two scales |
//! | [`bits`] | `ecco-bits` | MSB-first bitstreams, 64-byte blocks |
//! | [`entropy`] | `ecco-entropy` | entropy stats, length-limited Huffman |
//! | [`kmeans`] | `ecco-kmeans` | weighted 1-D / vector k-means |
//! | [`tensor`] | `ecco-tensor` | tensors + synthetic LLM tensor generator |
//! | [`pool`] | `ecco-pool` | persistent worker pool, batched submission scheduler |
//! | [`codec`] | `ecco-core` | **the Ecco compression algorithm** |
//! | [`container`] | `ecco-container` | ECCF random-access model container, pooled partial loads |
//! | [`baselines`] | `ecco-baselines` | RTN / AWQ / GPTQ-R / SmoothQuant / Olive / QuaRot / QoQ |
//! | [`hw`] | `ecco-hw` | parallel decoder, bitonic sorter, compressor, area/power |
//! | [`sim`] | `ecco-sim` | GPU memory-system timing simulator |
//! | [`llm`] | `ecco-llm` | model zoo, decode workloads, traffic mixes, memory footprints |
//! | [`serve`] | `ecco-serve` | multi-tenant paged KV store, compressed cold tier |
//! | [`accuracy`] | `ecco-accuracy` | proxy perplexity / zero-shot harness |
//!
//! # Quick start
//!
//! ```
//! use ecco::codec::{EccoConfig, WeightCodec};
//! use ecco::tensor::{synth::SynthSpec, TensorKind};
//!
//! let weights = SynthSpec::for_kind(TensorKind::Weight, 64, 256).generate();
//! let codec = WeightCodec::calibrate(&[&weights], &EccoConfig::default());
//! let (compressed, stats) = codec.compress(&weights);
//! let restored = codec.decompress(&compressed);
//!
//! assert_eq!(compressed.ratio_vs_fp16(), 4.0);
//! assert!(stats.clip_ratio() < 0.05);
//! assert!(ecco::tensor::stats::nmse(&weights, &restored) < 0.02);
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench/benches/` for
//! the per-table/per-figure experiment harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ecco_accuracy as accuracy;
pub use ecco_baselines as baselines;
pub use ecco_bits as bits;
pub use ecco_container as container;
pub use ecco_core as codec;
pub use ecco_entropy as entropy;
pub use ecco_hw as hw;
pub use ecco_kmeans as kmeans;
pub use ecco_llm as llm;
pub use ecco_numerics as numerics;
pub use ecco_pool as pool;
pub use ecco_serve as serve;
pub use ecco_sim as sim;
pub use ecco_tensor as tensor;

/// The most commonly used types, importable in one line.
pub mod prelude {
    pub use ecco_core::{
        ActivationCodec, AdaptiveCodec, AdaptivePolicy, CodecStats, EccoConfig, KvCodec,
        PatternSelector, TensorMetadata, WeightCodec,
    };
    pub use ecco_llm::{DecodeWorkload, ModelSpec, TrafficMix};
    pub use ecco_pool::{with_pool, Pool, PoolBuilder};
    pub use ecco_serve::{Admission, PagedKvStore, ServeConfig};
    pub use ecco_sim::{DecompressorModel, EnergyModel, ExecScheme, GpuSpec, SimEngine};
    pub use ecco_tensor::{synth::SynthSpec, Tensor, TensorKind};
}
