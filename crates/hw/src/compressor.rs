//! The hardware compression pipeline (Figure 9 of the paper).
//!
//! Stage 1: the [`BitonicSorter`] extracts the scale factor, the top-16
//! sorted values/indices for outlier padding (a block never has room for
//! more: [`ecco_core::block::MAX_PAD_SLOTS`]), and the group min/max.
//! Stage 2: the pattern selector scores all 16 shared patterns with the
//! 2-comparison min/max fitness. Stage 3: four Huffman encoders encode
//! the group in parallel and the shortest stream wins.
//!
//! The model owns only that selection. Concatenating the header, the
//! (clipped) stream and the outliers into a block is the format's one
//! block writer, [`ecco_core::write_block`], shared with the codec. The
//! model is proven equivalent to the reference codec
//! ([`ecco_core::encode_group`] under the min/max selector), which is the
//! property that lets the paper's area/latency numbers stand in for the
//! software codec's behaviour.

use ecco_bits::Block64;
use ecco_core::{normalize_group, write_block, EncodedGroupInfo, TensorMetadata, SCALE_SYMBOL};
use ecco_numerics::Po2Scale;
use ecco_tensor::GROUP_SIZE;

use crate::bitonic::BitonicSorter;

/// Per-stage activity of one group compression (pipeline accounting).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompressorTrace {
    /// Compare stages spent in the bitonic sorter.
    pub sorter_stages: usize,
    /// Patterns scored by the min/max selector.
    pub patterns_scored: usize,
    /// Parallel Huffman encoders engaged.
    pub encoders: usize,
}

/// The hardware compressor bound to tensor metadata and one tensor's
/// power-of-two scale.
#[derive(Clone, Debug)]
pub struct HwCompressor<'a> {
    meta: &'a TensorMetadata,
    scale: Po2Scale,
    sorter: BitonicSorter,
}

impl<'a> HwCompressor<'a> {
    /// Creates a compressor over `meta` (at most 16 patterns, per the
    /// paper's hardware reduction) for a tensor compressed under `scale`.
    ///
    /// # Panics
    ///
    /// Panics if the metadata holds more than 16 patterns.
    pub fn new(meta: &'a TensorMetadata, scale: Po2Scale) -> HwCompressor<'a> {
        assert!(
            meta.num_patterns() <= 16,
            "the hardware pattern selector supports at most 16 patterns"
        );
        HwCompressor {
            meta,
            scale,
            sorter: BitonicSorter::new(),
        }
    }

    /// Compresses one 128-value group through the staged pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `group.len() != 128`.
    pub fn compress_group(&self, group: &[f32]) -> (Block64, EncodedGroupInfo, CompressorTrace) {
        assert_eq!(group.len(), GROUP_SIZE, "group size mismatch");

        // Stage 1: bitonic sorter.
        let sorted = self.sorter.sort(group);
        let (max_pos, _) = sorted.absmax();

        // Normalization (the shared multiply-and-round circuit).
        let ng = normalize_group(group, self.scale);
        debug_assert_eq!(ng.max_pos, max_pos, "sorter and normalizer agree");

        // Stage 2: min/max pattern selector (2 comparisons per pattern).
        let (lo, hi) = {
            let (rlo, rhi) = sorted.minmax_excluding_absmax();
            (rlo / ng.scale_mag, rhi / ng.scale_mag)
        };
        let mut kp = 0usize;
        let mut best = f64::INFINITY;
        for (i, p) in self.meta.patterns().iter().enumerate() {
            let fit = p.minmax_fitness(lo, hi);
            if fit < best {
                best = fit;
                kp = i;
            }
        }
        let pattern = &self.meta.patterns()[kp];

        // Value mappers: symbol per lane.
        let symbols: Vec<u16> = ng
            .values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                if i == ng.max_pos {
                    SCALE_SYMBOL
                } else {
                    pattern.nearest(v)
                }
            })
            .collect();

        // Stage 3: four parallel encoders; shortest total length wins.
        let books = &self.meta.books()[kp];
        let (book_id, _) = books
            .iter()
            .enumerate()
            .map(|(i, b)| (i, b.encoded_len(&symbols)))
            .min_by_key(|&(_, len)| len)
            .expect("H >= 1");

        // Concatenation: the shared writer clips the stream at bit 512 or
        // pads it with the sorter's top outliers — as many as the block
        // has slots for.
        let (block, info) = write_block(
            self.meta,
            self.scale,
            kp,
            book_id,
            ng.sf_bits,
            &symbols,
            |slots| sorted.top_outliers(slots).iter().copied(),
        );
        let trace = CompressorTrace {
            sorter_stages: sorted.stages,
            patterns_scored: self.meta.num_patterns(),
            encoders: books.len(),
        };
        (block, info, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecco_core::{encode_group, EccoConfig, PatternSelector};
    use ecco_entropy::Codebook;
    use ecco_tensor::{synth::SynthSpec, Tensor, TensorKind};
    use proptest::prelude::*;

    fn meta_for(t: &Tensor) -> TensorMetadata {
        let cfg = EccoConfig {
            num_patterns: 16,
            books_per_pattern: 4,
            max_calibration_groups: 128,
            ..EccoConfig::default()
        };
        TensorMetadata::calibrate(&[t], &cfg, PatternSelector::MinMax)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// The pipeline's blocks and reports equal the reference codec's
        /// (`encode_group` under the min/max selector) on K- and V-cache
        /// tensors, once under the calibrated books and once under
        /// uniform 4-bit books that overflow every block: both branches
        /// of the shared writer, fed by the model's own sorter, selector
        /// and encoders.
        #[test]
        fn hw_blocks_match_reference_codec_padded_and_clipped(seed in 0u64..500) {
            let uniform = Codebook::from_lengths(&[4; 16]).unwrap();
            let (mut clipped, mut padded) = (0usize, 0usize);
            for kind in [TensorKind::KCache, TensorKind::VCache] {
                let t = SynthSpec::for_kind(kind, 8, 512).seeded(seed).generate();
                let meta = meta_for(&t);
                let uniform_meta = TensorMetadata::from_parts(
                    meta.tensor_scale(),
                    meta.patterns().to_vec(),
                    vec![vec![uniform.clone(); meta.books_per_pattern()]; meta.num_patterns()],
                    meta.pattern_code().clone(),
                    meta.id_hf_bits(),
                )
                .unwrap();
                for m in [&meta, &uniform_meta] {
                    let hw = HwCompressor::new(m, m.tensor_scale());
                    for g in t.groups(128) {
                        let (want, want_info) = encode_group(g, m, PatternSelector::MinMax);
                        let (got, info, _) = hw.compress_group(g);
                        prop_assert_eq!(info, want_info);
                        prop_assert_eq!(got.as_bytes(), want.as_bytes());
                        clipped += usize::from(info.clipped_symbols > 0);
                        padded += usize::from(info.padded_outliers > 0);
                    }
                }
            }
            prop_assert!(clipped > 0 && padded > 0, "clipped {} padded {}", clipped, padded);
        }
    }

    #[test]
    fn trace_reports_pipeline_shape() {
        let t = SynthSpec::for_kind(TensorKind::VCache, 8, 512)
            .seeded(112)
            .generate();
        let meta = meta_for(&t);
        let hw = HwCompressor::new(&meta, meta.tensor_scale());
        let g = t.groups(128).next().unwrap();
        let (_, _, trace) = hw.compress_group(g);
        assert_eq!(trace.sorter_stages, 28);
        assert_eq!(trace.patterns_scored, 16);
        assert_eq!(trace.encoders, 4);
    }

    #[test]
    fn rejects_oversized_pattern_sets() {
        let t = SynthSpec::for_kind(TensorKind::Weight, 8, 512)
            .seeded(113)
            .generate();
        let cfg = EccoConfig {
            num_patterns: 64,
            max_calibration_groups: 64,
            ..EccoConfig::default()
        };
        let meta = TensorMetadata::calibrate(&[&t], &cfg, PatternSelector::MseOptimal);
        let scale = meta.tensor_scale();
        assert!(std::panic::catch_unwind(|| HwCompressor::new(&meta, scale)).is_err());
    }
}
