//! Tensor-level metadata and offline calibration (steps 1–7 of Figure 4).

use ecco_entropy::huffman::Codebook;
use ecco_entropy::MultiLenTable;
use ecco_kmeans::{fit_scalar_batch, fit_vectors, KmeansConfig, ScalarJob};
use ecco_numerics::{Po2Scale, F8E4M3};
use ecco_tensor::{Tensor, GROUP_SIZE};

use crate::block::{DecodeError, DecodeErrorKind};
use crate::group::{normalize_group, NormalizedGroup};
use crate::pattern::{
    shared_patterns, KmeansPattern, PatternBoundaries, NUM_CENTROIDS, SCALE_SYMBOL, SYMBOL_COUNT,
};
use crate::select::{self, BoundaryLadder, GroupScratch};
use crate::EccoConfig;

/// How a group picks its shared k-means pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PatternSelector {
    /// Try every pattern, keep the one with minimum squared error — the
    /// offline weight path (paper step 5).
    MseOptimal,
    /// Compare only the group's (min, max) with each pattern's extreme
    /// centroids — the hardware-friendly online KV path (Section 3.2),
    /// 2 comparisons instead of 128 multiply-accumulates per pattern.
    MinMax,
}

/// Everything the decompressor preloads before touching blocks: shared
/// patterns, Huffman codebooks, the pattern-id code and the tensor scale.
///
/// Metadata is immutable and is only ever built by
/// [`TensorMetadata::from_parts`]: calibration ([`TensorMetadata::calibrate`]
/// and its variants) and wire ingest ([`crate::wire::decode_metadata`])
/// both go through it. So every encoder and decoder may assume what it
/// checks: `S` patterns with `H` data books each, every data book a
/// 16-symbol code with lengths in `2..=8`, an `ID_HF` field wide enough
/// to name `H` books, and a pattern-id code for every pattern. The
/// encoder's tables are built there too, once.
#[derive(Clone, Debug)]
pub struct TensorMetadata {
    tensor_scale: Po2Scale,
    patterns: Vec<KmeansPattern>,
    /// `[pattern][book]`.
    books: Vec<Vec<Codebook>>,
    pattern_code: Codebook,
    id_hf_bits: u32,
    /// The packed length table of each pattern's books, for the
    /// encoder's single-pass codebook selection.
    len_tables: Vec<MultiLenTable>,
    /// The per-pattern decision boundaries (the 14 centroid midpoints)
    /// and their ladder: the min/max selector's symbol map, and all
    /// `S × 14` midpoints in one ascending list for the fused sweep's
    /// one merge per group.
    ladder: BoundaryLadder,
}

/// Caps mirroring [`EccoConfig::validate`].
const MAX_PATTERNS: usize = 4096;
const MAX_BOOKS_PER_PATTERN: usize = 256;
/// The widest `ID_HF` field a block header takes.
const MAX_ID_HF_BITS: u32 = 16;

/// Whether `lengths` describe a data book: exactly [`SYMBOL_COUNT`]
/// codes, each 2..=8 bits long (the paper's parallel-decode envelope).
pub(crate) fn is_data_book(lengths: &[u8]) -> bool {
    lengths.len() == SYMBOL_COUNT && lengths.iter().all(|l| (2..=8).contains(l))
}

impl TensorMetadata {
    /// Runs the full offline calibration over the provided tensors.
    ///
    /// The heavy stages — group normalization, the per-group 15-cluster
    /// k-means fits (step 3), pattern assignment with symbol-histogram
    /// collection (step 5) and per-pattern codebook construction (steps
    /// 6–7) — are sharded across the worker pool. Every stage merges its
    /// shards in group (or pattern) order and every stochastic step is
    /// seeded per group, so the result is **bit-identical** to the
    /// sequential reference [`TensorMetadata::calibrate_weighted_seq`]
    /// regardless of thread count (pinned by differential proptests).
    ///
    /// `selector` must match how groups will pick patterns at compression
    /// time, so the collected symbol statistics (and hence the Huffman
    /// codebooks) reflect runtime behaviour.
    ///
    /// # Panics
    ///
    /// Panics if `tensors` is empty, any tensor length is not a multiple of
    /// the group size, or `cfg` is invalid.
    pub fn calibrate(
        tensors: &[&Tensor],
        cfg: &EccoConfig,
        selector: PatternSelector,
    ) -> TensorMetadata {
        TensorMetadata::calibrate_weighted(tensors, None, cfg, selector)
    }

    /// Activation-aware calibration (the paper's step 3): per-group
    /// k-means and calibration-time pattern selection are weighted by the
    /// squared activation magnitude of each value's input channel.
    ///
    /// `col_mags`, when given, holds one mean-|activation| vector per
    /// tensor, with length equal to that tensor's column count.
    ///
    /// Runs across the worker pool with the same determinism guarantee as
    /// [`TensorMetadata::calibrate`]: output is bit-identical to
    /// [`TensorMetadata::calibrate_weighted_seq`].
    ///
    /// # Panics
    ///
    /// Panics on empty input, invalid config, or mismatched magnitude
    /// vector lengths.
    pub fn calibrate_weighted(
        tensors: &[&Tensor],
        col_mags: Option<&[&[f32]]>,
        cfg: &EccoConfig,
        selector: PatternSelector,
    ) -> TensorMetadata {
        calibrate_impl(tensors, col_mags, cfg, selector, true)
    }

    /// The sequential reference implementation of
    /// [`TensorMetadata::calibrate_weighted`]: same inputs, same output,
    /// one thread, no pool.
    ///
    /// The parallel path must stay bit-identical to this function — the
    /// differential proptests in this module and the `codec_throughput`
    /// calibration bench both compare against it.
    ///
    /// # Panics
    ///
    /// Same conditions as [`TensorMetadata::calibrate_weighted`].
    pub fn calibrate_weighted_seq(
        tensors: &[&Tensor],
        col_mags: Option<&[&[f32]]>,
        cfg: &EccoConfig,
        selector: PatternSelector,
    ) -> TensorMetadata {
        calibrate_impl(tensors, col_mags, cfg, selector, false)
    }

    /// Assembles metadata from its parts, checking once everything an
    /// encoder or decoder relies on, then builds the encoder's tables.
    ///
    /// # Errors
    ///
    /// [`DecodeErrorKind::CorruptMetadata`] unless `S` is in `1..=4096`,
    /// there is one row of books per pattern and every row holds the same
    /// `H` books, `H` in `1..=256`; unless `id_hf_bits` is at most 16 and
    /// names all `H` books; or unless `pattern_code` has a symbol for
    /// every pattern. [`DecodeErrorKind::CorruptCodebook`] unless every
    /// data book codes exactly [`SYMBOL_COUNT`] symbols with lengths in
    /// `2..=8`, the envelope the 64×8 parallel decoder and the outlier
    /// slot count assume.
    pub fn from_parts(
        tensor_scale: Po2Scale,
        patterns: Vec<KmeansPattern>,
        books: Vec<Vec<Codebook>>,
        pattern_code: Codebook,
        id_hf_bits: u32,
    ) -> Result<TensorMetadata, DecodeError> {
        let h = books.first().map_or(0, Vec::len);
        let corrupt = |kind: DecodeErrorKind| Err(DecodeError::new(kind));
        if !(1..=MAX_PATTERNS).contains(&patterns.len())
            || books.len() != patterns.len()
            || books.iter().any(|row| row.len() != h)
            || !(1..=MAX_BOOKS_PER_PATTERN).contains(&h)
            || id_hf_bits > MAX_ID_HF_BITS
            || h > 1 << id_hf_bits
            || pattern_code.num_symbols() < patterns.len()
        {
            return corrupt(DecodeErrorKind::CorruptMetadata);
        }
        if !books.iter().flatten().all(|b| is_data_book(b.lengths())) {
            return corrupt(DecodeErrorKind::CorruptCodebook);
        }
        Ok(TensorMetadata {
            len_tables: books.iter().map(|row| MultiLenTable::new(row)).collect(),
            ladder: BoundaryLadder::new(&patterns),
            tensor_scale,
            patterns,
            books,
            pattern_code,
            id_hf_bits,
        })
    }

    /// The per-tensor FP16→FP8 power-of-two scale.
    pub fn tensor_scale(&self) -> Po2Scale {
        self.tensor_scale
    }

    /// The `S` shared k-means patterns.
    pub fn patterns(&self) -> &[KmeansPattern] {
        &self.patterns
    }

    /// The `H` Huffman codebooks of each pattern, indexed
    /// `[pattern][book]`.
    pub fn books(&self) -> &[Vec<Codebook>] {
        &self.books
    }

    /// The variable-length canonical code over pattern ids (the `ID_KP`
    /// field).
    pub fn pattern_code(&self) -> &Codebook {
        &self.pattern_code
    }

    /// Width of the `ID_HF` field in bits.
    pub fn id_hf_bits(&self) -> u32 {
        self.id_hf_bits
    }

    /// Picks the pattern for a normalized group under `selector`, through
    /// [`TensorMetadata::select_pattern_scratch`] on a thread-local
    /// scratch — no per-call allocation. Prefer calling that directly on
    /// hot loops that already hold a [`GroupScratch`].
    pub fn select_pattern(&self, ng: &NormalizedGroup, selector: PatternSelector) -> usize {
        select::with_thread_scratch(|s| self.select_pattern_scratch(ng, selector, s))
    }

    /// Selection into a caller-provided scratch, leaving the winner's
    /// symbols in group order in `scratch` for the encoder to emit
    /// directly (see [`crate::select`]): MinMax reads the group's min and
    /// max as it lies, no sort; MseOptimal sorts the group once and scores
    /// every pattern from one merge against all their boundaries.
    /// Bit-identical to [`TensorMetadata::select_pattern_ref`].
    pub fn select_pattern_scratch(
        &self,
        ng: &NormalizedGroup,
        selector: PatternSelector,
        scratch: &mut GroupScratch,
    ) -> usize {
        scratch.select_group(&self.patterns, &self.ladder, ng, None, selector)
    }

    /// Weighted counterpart of [`TensorMetadata::select_pattern_scratch`]:
    /// picks the pattern minimizing the activation-weighted squared error
    /// (`group_w2[i]` = squared channel magnitude of value `i`).
    pub fn select_pattern_weighted_scratch(
        &self,
        ng: &NormalizedGroup,
        group_w2: &[f32],
        scratch: &mut GroupScratch,
    ) -> usize {
        scratch.select_group(
            &self.patterns,
            &self.ladder,
            ng,
            Some(group_w2),
            PatternSelector::MseOptimal,
        )
    }

    /// The pinned reference selection — see [`select::select_pattern_ref`].
    /// The fused paths above must stay bit-identical to this.
    pub fn select_pattern_ref(&self, ng: &NormalizedGroup, selector: PatternSelector) -> usize {
        select::select_pattern_ref(&self.patterns, ng, None, selector)
    }

    /// The per-pattern decision-boundary tables (14 centroid midpoints
    /// each) behind pattern selection (the min/max selector's symbol map;
    /// the fused sweep merges against their ladder).
    pub fn boundaries(&self) -> &[PatternBoundaries] {
        self.ladder.tables()
    }

    /// Returns a copy bound to a different per-tensor FP16→FP8 scale.
    ///
    /// Patterns and codebooks are shared across tensors (they operate on
    /// absmax-normalized values), but the power-of-two scale is per-tensor
    /// metadata: each compressed tensor carries its own so FP8 scale
    /// factors never saturate on tensors larger-ranged than the
    /// calibration set. The codecs never copy their metadata: their
    /// encoders and decoders take each tensor's scale as a parameter.
    /// This copy is for driving [`crate::encode_group`],
    /// [`crate::decode_group`] and the other functions that read the
    /// metadata's own scale under another tensor's.
    pub fn with_scale(&self, tensor_scale: Po2Scale) -> TensorMetadata {
        TensorMetadata {
            tensor_scale,
            ..self.clone()
        }
    }

    /// The packed per-symbol length table for pattern `kp`'s codebooks —
    /// the encoder's single-pass selection primitive.
    ///
    /// Returns `None` only for an out-of-range `kp`.
    pub fn len_table(&self, kp: usize) -> Option<&MultiLenTable> {
        self.len_tables.get(kp)
    }

    /// The scale a given tensor should be compressed under.
    pub fn scale_for(tensor: &Tensor) -> Po2Scale {
        Po2Scale::for_absmax(tensor.absmax(), F8E4M3::MAX_FINITE)
    }

    /// Number of shared patterns `S`.
    pub fn num_patterns(&self) -> usize {
        self.patterns.len()
    }

    /// Number of codebooks per pattern `H`.
    pub fn books_per_pattern(&self) -> usize {
        self.books.first().map_or(0, Vec::len)
    }

    /// Size of the shared metadata in bytes — the "small codebook shared
    /// across tensors" overhead reported in the paper's memory analysis.
    ///
    /// Patterns store 15 FP16 centroids; codebooks are canonical, so only
    /// 4-bit lengths per symbol are needed; the pattern code stores one
    /// length per pattern.
    pub fn metadata_bytes(&self) -> usize {
        let pattern_bytes = self.patterns.len() * crate::pattern::NUM_CENTROIDS * 2;
        let book_bytes = self
            .books
            .iter()
            .map(|b| b.len() * SYMBOL_COUNT / 2)
            .sum::<usize>();
        let pattern_code_bytes = self.patterns.len().div_ceil(2);
        pattern_bytes + book_bytes + pattern_code_bytes + 1 // +1: tensor scale exp
    }
}

/// One sampled calibration group with its precomputed non-absmax views —
/// built once per group so neither the k-means stage nor the assignment
/// stage re-filters the absmax position.
struct SampledGroup {
    ng: NormalizedGroup,
    /// The 127 non-absmax normalized values (k-means / MSE-fitness input).
    vals: Vec<f32>,
    /// Squared channel magnitudes aligned with `vals` (weighted mode only).
    wts: Option<Vec<f32>>,
}

/// A group picked by even-stride sampling: tensor index, flat start offset
/// of the group, and the column the group begins at.
struct Pick {
    ti: usize,
    start: usize,
    col0: usize,
}

/// Maps `f(index, item)` over `items`, either across the worker pool
/// (order-preserving; see [`crate::parallel::par_map_indexed`]) or in a
/// plain sequential loop — the single switch that makes the parallel and
/// reference calibrations share one body.
fn map_ordered<T, R, F>(parallel: bool, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if parallel {
        crate::parallel::par_map_indexed(items, f)
    } else {
        items.iter().enumerate().map(|(i, x)| f(i, x)).collect()
    }
}

/// The calibration body shared by the parallel entry point and the
/// sequential reference. Every stage below is either pure index math
/// (kept sequential) or an order-preserving map over independent,
/// per-group-seeded work — which is why the two modes are bit-identical.
fn calibrate_impl(
    tensors: &[&Tensor],
    col_mags: Option<&[&[f32]]>,
    cfg: &EccoConfig,
    selector: PatternSelector,
    parallel: bool,
) -> TensorMetadata {
    cfg.validate();
    assert!(!tensors.is_empty(), "need at least one calibration tensor");
    for t in tensors {
        assert_eq!(
            t.len() % GROUP_SIZE,
            0,
            "tensor length {} not divisible by group size {GROUP_SIZE}",
            t.len(),
        );
    }
    if let Some(mags) = col_mags {
        assert_eq!(mags.len(), tensors.len(), "one magnitude vector per tensor");
        for (m, t) in mags.iter().zip(tensors) {
            assert_eq!(m.len(), t.cols(), "one magnitude per column");
        }
    }

    // Step 2 prerequisite: global FP16→FP8 scale.
    let absmax = tensors.iter().map(|t| t.absmax()).fold(0.0f32, f32::max);
    let tensor_scale = Po2Scale::for_absmax(absmax, F8E4M3::MAX_FINITE);

    // Sample calibration groups evenly across all tensors. Deciding which
    // groups to keep is pure index math and stays sequential; the actual
    // normalization work fans out below.
    let total_groups: usize = tensors.iter().map(|t| t.len() / GROUP_SIZE).sum();
    let budget = cfg.max_calibration_groups.min(total_groups).max(1);
    let stride = (total_groups as f64 / budget as f64).max(1.0);
    let mut picks: Vec<Pick> = Vec::with_capacity(budget);
    let mut next_pick = 0f64;
    let mut idx = 0usize;
    for (ti, t) in tensors.iter().enumerate() {
        for gi in 0..t.len() / GROUP_SIZE {
            if idx as f64 >= next_pick {
                let start = gi * GROUP_SIZE;
                picks.push(Pick {
                    ti,
                    start,
                    col0: start % t.cols(),
                });
                next_pick += stride;
            }
            idx += 1;
        }
    }

    // Steps 1–2 per group: normalize and split off the absmax position,
    // keeping the squared channel magnitudes of each group's columns.
    let sampled: Vec<SampledGroup> = map_ordered(parallel, &picks, |_, p| {
        let group = &tensors[p.ti].data()[p.start..p.start + GROUP_SIZE];
        let ng = normalize_group(group, tensor_scale);
        let w2: Option<Vec<f32>> = col_mags.map(|mags| {
            mags[p.ti][p.col0..p.col0 + GROUP_SIZE]
                .iter()
                .map(|&m| m * m)
                .collect()
        });
        let mut vals = Vec::with_capacity(ng.values.len() - 1);
        let mut wts = w2.as_ref().map(|_| Vec::with_capacity(ng.values.len() - 1));
        for (j, &v) in ng.values.iter().enumerate() {
            if j == ng.max_pos {
                continue;
            }
            // Non-finite values (NaN/inf in the calibration tensors)
            // carry no pattern information and would poison the k-means
            // centroids — and the wire decoder rightly rejects
            // non-finite centroids as corrupt metadata. Keep them out of
            // the fit; the encoder maps them to deterministic symbols at
            // compress time regardless.
            if !v.is_finite() {
                continue;
            }
            vals.push(v);
            if let (Some(wts), Some(w2)) = (&mut wts, &w2) {
                wts.push(w2[j]);
            }
        }
        if vals.is_empty() {
            // A fully non-finite group still needs one point: k-means
            // refuses empty jobs. Zero is the value such a group's
            // blocks decode to.
            vals.push(0.0);
            if let Some(wts) = &mut wts {
                wts.push(1.0);
            }
        }
        SampledGroup { ng, vals, wts }
    });

    // Step 3: per-group (activation-aware) 15-cluster fits, one seeded
    // job per group, sharded across the pool.
    let jobs: Vec<ScalarJob<'_>> = sampled
        .iter()
        .enumerate()
        .map(|(i, sg)| ScalarJob {
            points: &sg.vals,
            weights: sg.wts.as_deref(),
            seed: cfg.seed.wrapping_add(i as u64),
        })
        .collect();
    let km_cfg = KmeansConfig::with_k(NUM_CENTROIDS);
    let fits = if parallel {
        fit_scalar_batch(&jobs, &km_cfg)
    } else {
        jobs.iter().map(|j| j.fit(&km_cfg)).collect()
    };
    let per_group: Vec<KmeansPattern> = fits.iter().map(KmeansPattern::from_fit).collect();

    // Step 4: S shared patterns (one global fit; Lloyd iterations are
    // inherently sequential).
    let patterns = shared_patterns(&per_group, cfg.num_patterns, cfg.seed);

    // Step 5 (on the calibration set): assign each group a pattern and
    // build its symbol histogram in parallel, then merge in group order —
    // the same order the sequential loop pushes in. Assignment runs the
    // encoder's selection rules (the fused boundary-table sweep, or the
    // unsorted MinMax selector), so calibration-time pattern choices
    // match compression-time choices exactly, and the winner's symbols
    // feed the histogram directly.
    let ladder = BoundaryLadder::new(&patterns);
    let assigned: Vec<(usize, Vec<f32>)> = map_ordered(parallel, &sampled, |_, sg| {
        crate::select::with_thread_scratch(|scratch| {
            let (kp, syms) =
                scratch.select_values(&patterns, &ladder, &sg.vals, sg.wts.as_deref(), selector);
            let mut h = vec![0f32; SYMBOL_COUNT];
            h[SCALE_SYMBOL as usize] += 1.0; // the absmax position
            for &sym in syms {
                h[sym as usize] += 1.0;
            }
            let n = sg.ng.values.len() as f32;
            for x in &mut h {
                *x /= n;
            }
            (kp, h)
        })
    });
    let mut usage = vec![0u64; patterns.len()];
    let mut hists: Vec<Vec<Vec<f32>>> = vec![Vec::new(); patterns.len()];
    for (kp, h) in assigned {
        usage[kp] += 1;
        hists[kp].push(h);
    }

    // Steps 6–7: H codebooks per pattern from clustered histograms, one
    // independently-seeded job per pattern.
    let books = map_ordered(parallel, &hists, |kp, pattern_hists| {
        build_books(pattern_hists, cfg.books_per_pattern, cfg.seed ^ kp as u64)
    });

    // Pattern-id code from usage frequencies (+1 smoothing keeps every
    // pattern encodable).
    let smoothed: Vec<u64> = usage.iter().map(|&u| u + 1).collect();
    let pattern_code =
        Codebook::from_frequencies(&smoothed, 1, 15).expect("S ≤ 4096 fits 15-bit codes");

    TensorMetadata::from_parts(
        tensor_scale,
        patterns,
        books,
        pattern_code,
        cfg.id_hf_bits(),
    )
    .expect("a validated config calibrates valid metadata")
}

/// Clusters per-group symbol histograms into `h` representative
/// distributions and converts each to a 2..=8-bit codebook (steps 6–7).
fn build_books(hists: &[Vec<f32>], h: usize, seed: u64) -> Vec<Codebook> {
    const FREQ_SCALE: f32 = 1e6;
    let uniform =
        || Codebook::from_frequencies(&[1u64; SYMBOL_COUNT], 2, 8).expect("uniform book is valid");
    if hists.is_empty() {
        return (0..h).map(|_| uniform()).collect();
    }
    let k = h.min(hists.len());
    let fit = fit_vectors(hists, &KmeansConfig::with_k(k).seeded(seed));
    let mut books: Vec<Codebook> = fit
        .centroids
        .iter()
        .map(|c| {
            let freqs: Vec<u64> = c.iter().map(|&p| (p * FREQ_SCALE) as u64 + 1).collect();
            Codebook::from_frequencies(&freqs, 2, 8).expect("16 symbols fit 2..=8 bits")
        })
        .collect();
    while books.len() < h {
        books.push(uniform());
    }
    books
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecco_tensor::{synth::SynthSpec, TensorKind};
    use proptest::prelude::*;

    /// Field-by-field bit-identity check between two calibrations.
    fn assert_meta_identical(a: &TensorMetadata, b: &TensorMetadata) {
        assert_eq!(a.tensor_scale, b.tensor_scale, "tensor scale");
        assert_eq!(a.patterns, b.patterns, "shared patterns");
        assert_eq!(a.books, b.books, "codebooks");
        assert_eq!(
            a.pattern_code.lengths(),
            b.pattern_code.lengths(),
            "pattern code"
        );
        assert_eq!(a.id_hf_bits, b.id_hf_bits);
    }

    fn small_cfg() -> EccoConfig {
        EccoConfig {
            num_patterns: 8,
            books_per_pattern: 2,
            max_calibration_groups: 128,
            ..EccoConfig::default()
        }
    }

    fn weight_tensor(seed: u64) -> Tensor {
        SynthSpec::for_kind(TensorKind::Weight, 32, 512)
            .seeded(seed)
            .generate()
    }

    #[test]
    fn calibration_shapes() {
        let t = weight_tensor(1);
        let meta = TensorMetadata::calibrate(&[&t], &small_cfg(), PatternSelector::MseOptimal);
        assert_eq!(meta.num_patterns(), 8);
        assert_eq!(meta.books_per_pattern(), 2);
        assert_eq!(meta.pattern_code.num_symbols(), 8);
        for row in &meta.books {
            for b in row {
                assert_eq!(b.num_symbols(), SYMBOL_COUNT);
                assert!(b.lengths().iter().all(|&l| (2..=8).contains(&l)));
            }
        }
    }

    #[test]
    fn mse_selector_never_worse_than_minmax() {
        let t = weight_tensor(2);
        let meta = TensorMetadata::calibrate(&[&t], &small_cfg(), PatternSelector::MseOptimal);
        let mut mse_total = 0.0;
        let mut minmax_total = 0.0;
        for g in t.groups(128).take(64) {
            let ng = normalize_group(g, meta.tensor_scale);
            let vals: Vec<f32> = ng
                .values
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != ng.max_pos)
                .map(|(_, &v)| v)
                .collect();
            let kp_mse = meta.select_pattern(&ng, PatternSelector::MseOptimal);
            let kp_mm = meta.select_pattern(&ng, PatternSelector::MinMax);
            mse_total += meta.patterns[kp_mse].sq_error(&vals);
            minmax_total += meta.patterns[kp_mm].sq_error(&vals);
        }
        assert!(
            mse_total <= minmax_total + 1e-9,
            "MSE-optimal selection produced higher error ({mse_total} vs {minmax_total})"
        );
    }

    #[test]
    fn metadata_is_small() {
        let t = weight_tensor(3);
        let meta =
            TensorMetadata::calibrate(&[&t], &EccoConfig::default(), PatternSelector::MseOptimal);
        // S=64, H=4: patterns 64*30B + books 64*4*8B + pattern code.
        assert!(meta.metadata_bytes() < 8192, "{}", meta.metadata_bytes());
    }

    #[test]
    fn pattern_code_favors_popular_patterns() {
        let t = weight_tensor(4);
        let meta = TensorMetadata::calibrate(&[&t], &small_cfg(), PatternSelector::MseOptimal);
        // Count usage over the tensor and check code lengths are monotone
        // in popularity (canonical Huffman property).
        let mut usage = vec![0u64; meta.num_patterns()];
        for g in t.groups(128) {
            let ng = normalize_group(g, meta.tensor_scale);
            usage[meta.select_pattern(&ng, PatternSelector::MseOptimal)] += 1;
        }
        let most = (0..usage.len()).max_by_key(|&i| usage[i]).unwrap();
        let least = (0..usage.len()).min_by_key(|&i| usage[i]).unwrap();
        assert!(
            meta.pattern_code.code_len(most as u16) <= meta.pattern_code.code_len(least as u16),
            "popular pattern must not get a longer id code"
        );
    }

    #[test]
    fn from_parts_refuses_what_an_encoder_cannot_use() {
        use DecodeErrorKind::{CorruptCodebook, CorruptMetadata};
        // Calibrated parts: S = 8 patterns, H = 2 books, a 1-bit ID_HF.
        let t = weight_tensor(9);
        let meta = TensorMetadata::calibrate(&[&t], &small_cfg(), PatternSelector::MseOptimal);
        let (p, b, code) = (&meta.patterns, &meta.books, &meta.pattern_code);
        let short = Codebook::from_lengths(&[2; 4]).unwrap();
        let lengths: Vec<u8> = (1..=15).chain([15]).collect();
        let wide = Codebook::from_lengths(&lengths).unwrap();
        let with_book = |book: &Codebook| {
            let mut books = b.clone();
            books[5][1] = book.clone();
            books
        };
        let mut ragged = b.clone();
        ragged[3].pop();
        let cases = [
            (p.clone(), b.clone(), code, 1, None),
            // Structure: no patterns, a missing row, a ragged row, an
            // ID_HF field too narrow for H or wider than a header takes,
            // and a pattern-id code that cannot name every pattern.
            (vec![], vec![], code, 1, Some(CorruptMetadata)),
            (p.clone(), b[1..].to_vec(), code, 1, Some(CorruptMetadata)),
            (p.clone(), ragged, code, 1, Some(CorruptMetadata)),
            (p.clone(), b.clone(), code, 0, Some(CorruptMetadata)),
            (p.clone(), b.clone(), code, 17, Some(CorruptMetadata)),
            (p.clone(), b.clone(), &short, 1, Some(CorruptMetadata)),
            // Data books outside the envelope: 4 symbols, and 16 symbols
            // with codes of 1 and of 9..=15 bits.
            (p.clone(), with_book(&short), code, 1, Some(CorruptCodebook)),
            (p.clone(), with_book(&wide), code, 1, Some(CorruptCodebook)),
        ];
        for (i, (patterns, books, code, bits, want)) in cases.into_iter().enumerate() {
            let built =
                TensorMetadata::from_parts(meta.tensor_scale, patterns, books, code.clone(), bits);
            assert_eq!(built.err().map(|e| e.kind), want, "case {i}");
        }
    }

    #[test]
    fn calibration_is_deterministic() {
        let t = weight_tensor(5);
        let a = TensorMetadata::calibrate(&[&t], &small_cfg(), PatternSelector::MseOptimal);
        let b = TensorMetadata::calibrate(&[&t], &small_cfg(), PatternSelector::MseOptimal);
        assert_eq!(a.patterns, b.patterns);
        assert_eq!(a.pattern_code.lengths(), b.pattern_code.lengths());
    }

    #[test]
    #[should_panic(expected = "at least one calibration tensor")]
    fn empty_calibration_rejected() {
        TensorMetadata::calibrate(&[], &small_cfg(), PatternSelector::MseOptimal);
    }

    #[test]
    #[should_panic(expected = "not divisible by group size")]
    fn ragged_tensor_rejected() {
        // A tensor whose length is not a multiple of 128 must be refused,
        // not silently truncated to whole groups.
        let t = ecco_tensor::Tensor::from_vec(3, 100, vec![0.5; 300]);
        TensorMetadata::calibrate(&[&t], &small_cfg(), PatternSelector::MseOptimal);
    }

    #[test]
    fn parallel_calibration_bit_identical_to_sequential() {
        let a = weight_tensor(6);
        let b = weight_tensor(7);
        let par = TensorMetadata::calibrate(&[&a, &b], &small_cfg(), PatternSelector::MseOptimal);
        let seq = TensorMetadata::calibrate_weighted_seq(
            &[&a, &b],
            None,
            &small_cfg(),
            PatternSelector::MseOptimal,
        );
        assert_meta_identical(&par, &seq);
    }

    #[test]
    fn weighted_parallel_calibration_bit_identical_to_sequential() {
        let t = weight_tensor(8);
        let mags: Vec<f32> = (0..t.cols())
            .map(|c| 0.1 + (c % 13) as f32 * 0.05)
            .collect();
        let mag_refs: Vec<&[f32]> = vec![&mags];
        let par = TensorMetadata::calibrate_weighted(
            &[&t],
            Some(&mag_refs),
            &small_cfg(),
            PatternSelector::MseOptimal,
        );
        let seq = TensorMetadata::calibrate_weighted_seq(
            &[&t],
            Some(&mag_refs),
            &small_cfg(),
            PatternSelector::MseOptimal,
        );
        assert_meta_identical(&par, &seq);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        #[test]
        fn fused_selection_matches_reference_on_calibrated_metadata(
            seed in 0u64..500,
            kind_kv in any::<bool>(),
            minmax in any::<bool>(),
            weighted in any::<bool>(),
        ) {
            use crate::select::{select_pattern_ref, GroupScratch};
            let kind = if kind_kv { TensorKind::KCache } else { TensorKind::Weight };
            // `small_cfg()`'s 8 patterns, and the paper's 64 (an 896-rung
            // ladder) calibrated on enough groups to fill them.
            let wide = EccoConfig { num_patterns: 64, ..small_cfg() };
            for (cfg, cal_rows) in [(small_cfg(), 8), (wide, 32)] {
                let cal = SynthSpec::for_kind(kind, cal_rows, 512).seeded(seed).generate();
                let meta = TensorMetadata::calibrate(&[&cal], &cfg, PatternSelector::MseOptimal);
                prop_assert_eq!(meta.num_patterns(), cfg.num_patterns);
                // Compress a *different, larger-ranged* tensor under the
                // same metadata so normalized values stray outside the
                // patterns' centroid range (clipped symbols) — selection
                // must still agree.
                let mut t = SynthSpec::for_kind(kind, 8, 512).seeded(seed + 1).generate();
                for x in t.data_mut() {
                    *x *= 3.0;
                }
                let selector = if minmax { PatternSelector::MinMax } else { PatternSelector::MseOptimal };
                let w2: Vec<f32> = (0..GROUP_SIZE).map(|i| 0.1 + (i % 9) as f32 * 0.2).collect();
                let mut scratch = GroupScratch::new();
                for g in t.groups(GROUP_SIZE).take(24) {
                    let ng = normalize_group(g, meta.tensor_scale);
                    let (kp, kp_ref) = if weighted {
                        (
                            meta.select_pattern_weighted_scratch(&ng, &w2, &mut scratch),
                            select_pattern_ref(&meta.patterns, &ng, Some(&w2), selector),
                        )
                    } else {
                        (
                            meta.select_pattern_scratch(&ng, selector, &mut scratch),
                            select_pattern_ref(&meta.patterns, &ng, None, selector),
                        )
                    };
                    prop_assert_eq!(kp, kp_ref);
                    prop_assert_eq!(scratch.symbols(), &ng.symbols(&meta.patterns[kp])[..]);
                }
            }
        }

        #[test]
        fn calibration_parallel_seq_differential(
            seed in 0u64..1000,
            kind_kv in any::<bool>(),
            weighted in any::<bool>(),
            minmax in any::<bool>(),
        ) {
            let kind = if kind_kv { TensorKind::KCache } else { TensorKind::Weight };
            let t = SynthSpec::for_kind(kind, 8, 512).seeded(seed).generate();
            let cfg = EccoConfig {
                num_patterns: 4,
                books_per_pattern: 2,
                max_calibration_groups: 24,
                ..EccoConfig::default()
            };
            let selector = if minmax {
                PatternSelector::MinMax
            } else {
                PatternSelector::MseOptimal
            };
            let mags: Vec<f32> = (0..t.cols()).map(|c| 0.05 + (c % 7) as f32 * 0.1).collect();
            let mag_refs: Vec<&[f32]> = vec![&mags];
            let col_mags = if weighted { Some(&mag_refs[..]) } else { None };
            let par = TensorMetadata::calibrate_weighted(&[&t], col_mags, &cfg, selector);
            let seq = TensorMetadata::calibrate_weighted_seq(&[&t], col_mags, &cfg, selector);
            assert_meta_identical(&par, &seq);
        }
    }
}
