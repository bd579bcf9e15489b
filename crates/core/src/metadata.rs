//! Tensor-level metadata and offline calibration (steps 1–7 of Figure 4).

use std::sync::{Arc, OnceLock};

use ecco_entropy::huffman::Codebook;
use ecco_entropy::MultiLenTable;
use ecco_kmeans::{fit_scalar_batch, fit_vectors, KmeansConfig, ScalarJob};
use ecco_numerics::{Po2Scale, F8E4M3};
use ecco_tensor::Tensor;

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
#[derive(Clone, Debug)]
pub struct TensorMetadata {
    /// Per-tensor FP16→FP8 power-of-two scale.
    pub tensor_scale: Po2Scale,
    /// The `S` shared k-means patterns.
    pub patterns: Vec<KmeansPattern>,
    /// `H` Huffman codebooks per pattern, indexed `[pattern][book]`.
    pub books: Vec<Vec<Codebook>>,
    /// Variable-length canonical code over pattern ids (the `ID_KP` field).
    pub pattern_code: Codebook,
    /// Width of the `ID_HF` field in bits.
    pub id_hf_bits: u32,
    /// Values per group (always 128 in the 4× format).
    pub group_size: usize,
    /// Lazily-built packed length tables, one per pattern, for the
    /// encoder's single-pass codebook selection; shared (via `Arc`) by
    /// clones made after first use. Not serialized — the outer `OnceLock`
    /// re-sizes the slot array from `books` on first access, so metadata
    /// revived by `wire` ingest self-heals without a rebuild; replacing
    /// `books` by field access requires
    /// [`TensorMetadata::rebuild_tables`] to stay coherent (it also
    /// restores the codebook decode LUTs, which do need it).
    len_tables: OnceLock<Vec<OnceLock<Arc<MultiLenTable>>>>,
    /// Lazily-built per-pattern decision boundaries (the 14 centroid
    /// midpoints) for the encoder's selection: the min/max selector's
    /// symbol map, and their ladder (all `S × 14` midpoints in one
    /// ascending list) for the fused sweep's one merge per group; shared
    /// (via `Arc`) by clones made after first use. Not serialized —
    /// derived from `patterns` on first access, so metadata revived by
    /// `wire` ingest works without a rebuild; replacing `patterns` by
    /// field access requires [`TensorMetadata::rebuild_tables`] to stay
    /// coherent.
    bounds: OnceLock<Arc<BoundaryLadder>>,
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
        scratch.select_group(&self.patterns, self.ladder(), ng, None, selector)
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
            self.ladder(),
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
    /// the fused sweep merges against their ladder) — built from
    /// `patterns` on first use and shared (via `Arc`) by every clone made
    /// after that.
    pub fn boundaries(&self) -> &[PatternBoundaries] {
        self.ladder().tables()
    }

    /// The boundary tables and their ladder, built on first use.
    fn ladder(&self) -> &BoundaryLadder {
        self.bounds
            .get_or_init(|| Arc::new(BoundaryLadder::new(&self.patterns)))
    }

    /// Returns a copy bound to a different per-tensor FP16→FP8 scale.
    ///
    /// Patterns and codebooks are shared across tensors (they operate on
    /// absmax-normalized values), but the power-of-two scale is per-tensor
    /// metadata: each compressed tensor carries its own so FP8 scale
    /// factors never saturate on tensors larger-ranged than the
    /// calibration set.
    pub fn with_scale(&self, tensor_scale: Po2Scale) -> TensorMetadata {
        TensorMetadata {
            tensor_scale,
            ..self.clone()
        }
    }

    /// The packed per-symbol length table for pattern `kp`'s codebooks —
    /// the encoder's single-pass selection primitive — built on first use
    /// and shared (via `Arc`) by every clone made after that. The slot
    /// array itself materializes lazily from `books`, so the cache works
    /// (and self-heals) on freshly deserialized metadata too.
    ///
    /// Returns `None` only for an out-of-range `kp`.
    pub fn len_table(&self, kp: usize) -> Option<&MultiLenTable> {
        self.len_tables
            .get_or_init(|| empty_len_tables(self.books.len()))
            .get(kp)
            .map(|slot| &**slot.get_or_init(|| Arc::new(MultiLenTable::new(&self.books[kp]))))
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

    /// Assembles metadata from revived wire-format parts (see
    /// [`crate::wire`]). The derived caches start empty, exactly as
    /// deserialization leaves them, and self-heal on first use; the parts
    /// themselves must already be validated by the caller.
    pub(crate) fn from_wire_parts(
        tensor_scale: Po2Scale,
        patterns: Vec<KmeansPattern>,
        books: Vec<Vec<Codebook>>,
        pattern_code: Codebook,
        id_hf_bits: u32,
        group_size: usize,
    ) -> TensorMetadata {
        TensorMetadata {
            tensor_scale,
            patterns,
            books,
            pattern_code,
            id_hf_bits,
            group_size,
            len_tables: OnceLock::new(),
            bounds: OnceLock::new(),
        }
    }

    /// Restores the non-serialized encode/decode tables after `wire`
    /// ingest (or after replacing `books` in place).
    pub fn rebuild_tables(&mut self) {
        for row in &mut self.books {
            for b in row {
                b.rebuild_tables();
            }
        }
        self.pattern_code.rebuild_tables();
        self.len_tables = OnceLock::new();
        self.bounds = OnceLock::new();
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
            t.len() % cfg.group_size,
            0,
            "tensor length {} not divisible by group size {}",
            t.len(),
            cfg.group_size
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
    let total_groups: usize = tensors.iter().map(|t| t.len() / cfg.group_size).sum();
    let budget = cfg.max_calibration_groups.min(total_groups).max(1);
    let stride = (total_groups as f64 / budget as f64).max(1.0);
    let mut picks: Vec<Pick> = Vec::with_capacity(budget);
    let mut next_pick = 0f64;
    let mut idx = 0usize;
    for (ti, t) in tensors.iter().enumerate() {
        for gi in 0..t.len() / cfg.group_size {
            if idx as f64 >= next_pick {
                let start = gi * cfg.group_size;
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
        let group = &tensors[p.ti].data()[p.start..p.start + cfg.group_size];
        let ng = normalize_group(group, tensor_scale);
        let w2: Option<Vec<f32>> = col_mags.map(|mags| {
            mags[p.ti][p.col0..p.col0 + cfg.group_size]
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

    TensorMetadata {
        tensor_scale,
        patterns,
        books,
        pattern_code,
        id_hf_bits: cfg.id_hf_bits(),
        group_size: cfg.group_size,
        len_tables: OnceLock::new(),
        bounds: OnceLock::new(),
    }
}

/// One unbuilt cache slot per pattern.
fn empty_len_tables(patterns: usize) -> Vec<OnceLock<Arc<MultiLenTable>>> {
    (0..patterns).map(|_| OnceLock::new()).collect()
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
        assert_eq!(a.group_size, b.group_size);
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
    fn caches_self_heal_after_rebuild() {
        // rebuild_tables leaves the lazy caches in the same empty state
        // deserialization does; both must rebuild themselves on first
        // access instead of degrading to per-call table packing.
        let t = weight_tensor(9);
        let mut meta = TensorMetadata::calibrate(&[&t], &small_cfg(), PatternSelector::MseOptimal);
        assert!(meta.len_table(0).is_some());
        meta.rebuild_tables();
        assert!(
            meta.len_table(0).is_some(),
            "len table cache must self-heal"
        );
        assert_eq!(meta.boundaries().len(), meta.num_patterns());
        assert!(
            meta.len_table(meta.num_patterns()).is_none(),
            "out of range"
        );
    }

    #[test]
    fn serde_revived_metadata_decodes_without_rebuild() {
        // Regression for the decode-side self-heal: rebuild_tables leaves
        // every derived cache — the per-pattern length tables, the
        // boundary tables, AND each codebook's decode LUT + SegmentLut —
        // in the exact empty state `wire` ingest produces. A block
        // must decode correctly (and identically) straight from that
        // state, with no warm-up call.
        let t = weight_tensor(10);
        let mut meta = TensorMetadata::calibrate(&[&t], &small_cfg(), PatternSelector::MseOptimal);
        let g: Vec<f32> = t.groups(128).next().unwrap().to_vec();
        let (block, _) = crate::block::encode_group(&g, &meta, PatternSelector::MseOptimal);
        let (want, winfo) = crate::block::decode_group(&block, &meta).unwrap();

        meta.rebuild_tables();
        let (got, ginfo) = crate::block::decode_group(&block, &meta)
            .expect("revived metadata must decode without rebuild");
        assert_eq!(want, got, "self-healed decode must be bit-identical");
        assert_eq!(winfo, ginfo);

        // Encoding from the revived state is bit-identical too (the
        // encode-side caches self-heal the same way).
        meta.rebuild_tables();
        let (block2, _) = crate::block::encode_group(&g, &meta, PatternSelector::MseOptimal);
        assert_eq!(block, block2);
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
                let w2: Vec<f32> = (0..meta.group_size).map(|i| 0.1 + (i % 9) as f32 * 0.2).collect();
                let mut scratch = GroupScratch::new();
                for g in t.groups(meta.group_size).take(24) {
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
