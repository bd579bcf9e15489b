//! The fused pattern-selection + quantization engine (paper step 5 on the
//! encoder hot path).
//!
//! Pattern selection is the encoder's dominant cost: naively, each of the
//! `S` shared patterns scores a group with 127 independent
//! nearest-centroid searches, and the winner is then quantized *again* to
//! produce symbols. This module replaces all of that with one **fused
//! sweep**:
//!
//! 1. the group's 127 non-absmax values are sorted **once** into a
//!    reusable [`GroupScratch`] (the rank permutation is retained so the
//!    winner's symbols can be scattered back to group order), and prefix
//!    sums of `v`, `v²` (and their weighted forms) are accumulated over
//!    the sorted order,
//! 2. each pattern is scored by an `O(127 + 15)` **sorted merge** of the
//!    values against the pattern's precomputed midpoint boundaries
//!    ([`crate::pattern::PatternBoundaries`]): both sequences are
//!    non-decreasing, so a single forward-moving cursor splits the sorted
//!    values into at most 15 **runs** — one per centroid — and each run's
//!    squared error closes in constant time from the prefix sums
//!    (`Σ(v−c)² = s2 − 2c·s1 + n·c²`, the `run_error` helper),
//! 3. the merge records the symbols it assigns, so the winning pattern's
//!    symbols are **emitted directly** instead of re-quantized.
//!
//! Nothing allocates per group once the scratch has warmed up, and the
//! per-pattern cost collapses from 127 nearest-centroid searches plus 127
//! floating-point error terms to one linear merge plus ≤ 15 closed-form
//! run errors.
//!
//! # Bit-identity contract
//!
//! The fused sweep is pinned against [`select_pattern_ref`] — a simple,
//! allocating reference implementation — by differential proptests below.
//! Four properties make the two bit-identical rather than merely close:
//!
//! * **shared boundary rule**: both quantize by the midpoint-boundary
//!   rule of [`ecco_kmeans::nearest_sorted`] (ties at exact midpoints take
//!   the lower symbol; the reference finds runs per value, the sweep by
//!   boundary merge — the partitions provably coincide),
//! * **pinned accumulation order**: both score over the values in
//!   ascending order (equal values in group order), so selection is
//!   invariant to how the group happens to be laid out,
//! * **shared run algebra**: both close runs with the same `run_error`
//!   expression over prefix-sum *differences* accumulated by the same
//!   code (`accumulate_prefixes`) — the closed form is tied back to the
//!   naive per-value sum of [`KmeansPattern::sq_error`] by an approximate
//!   property test,
//! * **shared tie-breaks**: both resolve equal pattern scores to the
//!   lowest pattern id via `argmin`, and NaN scores never win.
//!
//! Encode paths require **finite** group values; the merge cursor is
//! monotone and a NaN would sort to one end without resetting it.

use crate::group::NormalizedGroup;
use crate::metadata::PatternSelector;
use crate::pattern::{KmeansPattern, PatternBoundaries, SCALE_SYMBOL};

/// Reusable workspace for fused pattern selection: the sorted group view,
/// per-pattern symbol buffers and the scattered symbol output. Create one
/// per worker (or use the crate-internal thread-local behind the classic
/// entry points) and feed it every group — after the first group no call
/// allocates.
#[derive(Clone, Debug, Default)]
pub struct GroupScratch {
    /// Packed sort keys: the value's IEEE total-order ordinal in the high
    /// 32 bits, its source position in the low 32. Sorting these as plain
    /// `u64`s yields exactly the `(total_cmp, position)` order the
    /// reference sorts into, with branch-free integer compares.
    keys: Vec<u64>,
    /// The sorted values alone, contiguous, for the boundary merge.
    vals: Vec<f32>,
    /// Per-value weights aligned with the sorted order (weighted
    /// selection only).
    wts: Vec<f32>,
    /// Prefix sums over the sorted values: `p1[k] = Σ v`, `p2[k] = Σ v²`
    /// of the first `k` values (length `n + 1`).
    p1: Vec<f64>,
    p2: Vec<f64>,
    /// Weighted prefix sums (weighted load only): `Σ w`, `Σ w·v`,
    /// `Σ w·v²`.
    pw0: Vec<f64>,
    pw1: Vec<f64>,
    pw2: Vec<f64>,
    /// Symbols of the winning pattern, in sorted order.
    win: Vec<u16>,
    /// Winner symbols scattered back to group order.
    syms: Vec<u16>,
}

/// Total order used to sort group values: ascending by value, with equal
/// values (and ±0.0) kept in source order. The reference implementation
/// sorts with this comparator; the fused scratch sorts packed
/// [`sort_key`]s, whose `u64` order coincides with it — which is what
/// lets the weighted error sums match bit-for-bit when a group holds
/// duplicate values with different weights.
#[inline]
fn pair_order(a: &(f32, u32), b: &(f32, u32)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// Maps an `f32` to a `u32` whose unsigned order is IEEE total order —
/// the standard sign-flip trick behind [`f32::total_cmp`]: negative
/// values flip every bit, non-negative values flip only the sign bit.
#[inline]
fn f32_ordinal(x: f32) -> u32 {
    let b = x.to_bits();
    b ^ ((((b as i32) >> 31) as u32) | 0x8000_0000)
}

/// Inverse of [`f32_ordinal`] — recovers the exact value bits.
#[inline]
fn ordinal_to_f32(o: u32) -> f32 {
    let flipped = if o & 0x8000_0000 != 0 {
        o ^ 0x8000_0000
    } else {
        !o
    };
    f32::from_bits(flipped)
}

/// Packs a value and its source position into one sortable `u64` key:
/// ordinal high, position low, so equal values keep source order.
#[inline]
fn sort_key(v: f32, pos: usize) -> u64 {
    ((f32_ordinal(v) as u64) << 32) | pos as u64
}

/// The source position stored in a [`sort_key`].
#[inline]
fn key_pos(key: u64) -> usize {
    (key & 0xFFFF_FFFF) as usize
}

/// Squared error of one run of values assigned to centroid `c`, in closed
/// form from the run's sums: `s2 − 2c·s1 + s0·c²` where `s0` is the value
/// count (or weight sum), `s1` the (weighted) value sum and `s2` the
/// (weighted) square sum. Both the fused sweep and the pinned reference
/// close every run with exactly this expression, which is what keeps
/// their scores bit-identical.
#[inline]
fn run_error(s0: f64, s1: f64, s2: f64, c: f64) -> f64 {
    s2 - 2.0 * c * s1 + s0 * c * c
}

/// Appends the unweighted prefix sums of `vals` (ascending order) to the
/// cleared `p1`/`p2` buffers: `p1[k] = Σ_{i<k} v_i`, `p2[k] = Σ_{i<k} v_i²`.
/// Shared by the scratch loaders and the reference so both read identical
/// prefix arrays.
fn accumulate_prefixes(vals: impl Iterator<Item = f32>, p1: &mut Vec<f64>, p2: &mut Vec<f64>) {
    p1.clear();
    p2.clear();
    p1.push(0.0);
    p2.push(0.0);
    let (mut a1, mut a2) = (0f64, 0f64);
    for v in vals {
        let vf = v as f64;
        a1 += vf;
        a2 += vf * vf;
        p1.push(a1);
        p2.push(a2);
    }
}

/// Weighted counterpart of `accumulate_prefixes`: `Σ w`, `Σ w·v`,
/// `Σ w·v²` over the sorted order.
fn accumulate_weighted_prefixes(
    vals: impl Iterator<Item = (f32, f32)>,
    pw0: &mut Vec<f64>,
    pw1: &mut Vec<f64>,
    pw2: &mut Vec<f64>,
) {
    pw0.clear();
    pw1.clear();
    pw2.clear();
    pw0.push(0.0);
    pw1.push(0.0);
    pw2.push(0.0);
    let (mut a0, mut a1, mut a2) = (0f64, 0f64, 0f64);
    for (v, w) in vals {
        let (vf, wf) = (v as f64, w as f64);
        a0 += wf;
        a1 += wf * vf;
        a2 += wf * vf * vf;
        pw0.push(a0);
        pw1.push(a1);
        pw2.push(a2);
    }
}

impl GroupScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> GroupScratch {
        GroupScratch::default()
    }

    /// Loads a normalized group: every value except the absmax position,
    /// tagged with its group position, sorted ascending, with the prefix
    /// sums the run-closed-form scoring reads.
    pub fn load_group(&mut self, ng: &NormalizedGroup) {
        self.keys.clear();
        self.wts.clear();
        for (i, &v) in ng.values.iter().enumerate() {
            if i != ng.max_pos {
                self.keys.push(sort_key(v, i));
            }
        }
        self.finish_load();
    }

    /// Loads a normalized group plus per-position squared channel
    /// magnitudes (`group_w2[i]` belongs to `ng.values[i]`), permuting the
    /// weights alongside the values.
    ///
    /// # Panics
    ///
    /// Panics if `group_w2` is shorter than the group.
    pub fn load_group_weighted(&mut self, ng: &NormalizedGroup, group_w2: &[f32]) {
        assert!(group_w2.len() >= ng.values.len(), "one weight per value");
        self.load_group(ng);
        self.wts
            .extend(self.keys.iter().map(|&k| group_w2[key_pos(k)]));
        self.finish_weighted_load();
    }

    /// Loads pre-extracted non-absmax values (and optional aligned
    /// weights), as calibration holds them. Positions index into `vals`,
    /// so a scratch loaded this way must not be scattered back to group
    /// order — calibration only consumes [`GroupScratch::winner_symbols`].
    pub fn load_values(&mut self, vals: &[f32], wts: Option<&[f32]>) {
        self.keys.clear();
        self.wts.clear();
        self.keys
            .extend(vals.iter().enumerate().map(|(i, &v)| sort_key(v, i)));
        self.finish_load();
        if let Some(w) = wts {
            assert_eq!(w.len(), vals.len(), "one weight per value");
            self.wts.extend(self.keys.iter().map(|&k| w[key_pos(k)]));
            self.finish_weighted_load();
        }
    }

    /// Sorts the loaded keys, extracts the contiguous value view and
    /// accumulates the unweighted prefix sums.
    fn finish_load(&mut self) {
        self.keys.sort_unstable();
        self.vals.clear();
        self.vals
            .extend(self.keys.iter().map(|&k| ordinal_to_f32((k >> 32) as u32)));
        accumulate_prefixes(self.vals.iter().copied(), &mut self.p1, &mut self.p2);
    }

    /// Accumulates the weighted prefix sums (after `wts` is aligned with
    /// the sorted order).
    fn finish_weighted_load(&mut self) {
        accumulate_weighted_prefixes(
            self.vals.iter().copied().zip(self.wts.iter().copied()),
            &mut self.pw0,
            &mut self.pw1,
            &mut self.pw2,
        );
    }

    /// Min and max of the loaded values — the sorted ends, matching
    /// [`NormalizedGroup::minmax_excluding_max`] for finite groups
    /// (empty groups mirror its `(0.0, 0.0)`).
    fn minmax(&self) -> (f32, f32) {
        match (self.vals.first(), self.vals.last()) {
            (Some(&lo), Some(&hi)) => (lo, hi),
            _ => (0.0, 0.0),
        }
    }

    /// Scores one pattern with the sorted merge: the values split into at
    /// most 15 contiguous runs (one per centroid, delimited by the
    /// pattern's boundaries) and each run's error closes in constant time
    /// from the prefix sums via `run_error`. Run errors accumulate in
    /// ascending symbol order — the same partition and order the
    /// reference scorer produces. Pure scoring: symbols are materialized
    /// only for the winner, by [`GroupScratch::quantize`].
    fn score(&self, pattern: &KmeansPattern, bounds: &PatternBoundaries, weighted: bool) -> f64 {
        let centroids = pattern.centroids();
        let mids = bounds.midpoints();
        let vals = &self.vals[..];
        let n = vals.len();
        let mut err = 0f64;
        let mut lo = 0usize;
        for (j, &c) in centroids.iter().enumerate() {
            // Values ascend and midpoints are non-decreasing, so the value
            // cursor only ever moves forward: O(127 + 15) per pattern. Run
            // `j` ends at the first value above boundary `j`; the last
            // centroid takes everything that remains.
            let hi = match mids.get(j) {
                Some(&m) => lo + vals[lo..].iter().take_while(|&&x| x <= m).count(),
                None => n,
            };
            if hi > lo {
                err += if weighted {
                    run_error(
                        self.pw0[hi] - self.pw0[lo],
                        self.pw1[hi] - self.pw1[lo],
                        self.pw2[hi] - self.pw2[lo],
                        c as f64,
                    )
                } else {
                    run_error(
                        (hi - lo) as f64,
                        self.p1[hi] - self.p1[lo],
                        self.p2[hi] - self.p2[lo],
                        c as f64,
                    )
                };
                lo = hi;
            }
        }
        err
    }

    /// Scores every pattern, then materializes the winner's symbols with
    /// one final merge; lowest score wins, ties to the lowest pattern id,
    /// NaN scores never win.
    fn select_by_sweep(
        &mut self,
        patterns: &[KmeansPattern],
        bounds: &[PatternBoundaries],
        weighted: bool,
    ) -> usize {
        assert_eq!(
            patterns.len(),
            bounds.len(),
            "one boundary table per pattern"
        );
        assert!(!patterns.is_empty(), "no patterns to select from");
        let mut best = (0usize, self.score(&patterns[0], &bounds[0], weighted));
        for (i, (p, b)) in patterns.iter().zip(bounds).enumerate().skip(1) {
            let err = self.score(p, b, weighted);
            if err < best.1 {
                best = (i, err);
            }
        }
        self.quantize(&patterns[best.0], &bounds[best.0]);
        best.0
    }

    /// Fused selection for a loaded group: returns the chosen pattern id
    /// and leaves its symbols available via [`GroupScratch::winner_symbols`]
    /// / [`GroupScratch::scatter`].
    ///
    /// Bit-identical to [`select_pattern_ref`] under the same selector.
    ///
    /// # Panics
    ///
    /// Panics if `patterns` is empty or `bounds` disagrees in length.
    pub fn select(
        &mut self,
        patterns: &[KmeansPattern],
        bounds: &[PatternBoundaries],
        selector: PatternSelector,
    ) -> usize {
        match selector {
            PatternSelector::MseOptimal => self.select_by_sweep(patterns, bounds, false),
            PatternSelector::MinMax => {
                assert_eq!(
                    patterns.len(),
                    bounds.len(),
                    "one boundary table per pattern"
                );
                let (lo, hi) = self.minmax();
                let kp = argmin(patterns.iter().map(|p| p.minmax_fitness(lo, hi)));
                self.quantize(&patterns[kp], &bounds[kp]);
                kp
            }
        }
    }

    /// Fused activation-weighted selection (the offline weight path);
    /// requires a weighted load.
    ///
    /// # Panics
    ///
    /// Panics if the scratch was loaded without weights.
    pub fn select_weighted(
        &mut self,
        patterns: &[KmeansPattern],
        bounds: &[PatternBoundaries],
    ) -> usize {
        assert_eq!(self.wts.len(), self.vals.len(), "weighted load required");
        self.select_by_sweep(patterns, bounds, true)
    }

    /// Quantizes the loaded values against one explicit pattern with a
    /// single run merge, leaving the symbols as the winner — how every
    /// selection materializes its winner's symbols after scoring.
    fn quantize(&mut self, pattern: &KmeansPattern, bounds: &PatternBoundaries) {
        let mids = bounds.midpoints();
        let n = self.vals.len();
        self.win.clear();
        let mut lo = 0usize;
        for j in 0..pattern.centroids().len() {
            let hi = match mids.get(j) {
                Some(&m) => lo + self.vals[lo..].iter().take_while(|&&x| x <= m).count(),
                None => n,
            };
            if hi > lo {
                self.win.resize(hi, j as u16);
                lo = hi;
            }
        }
    }

    /// The winning pattern's symbols in sorted-value order — the same
    /// multiset [`NormalizedGroup::symbols`] produces minus the one
    /// [`SCALE_SYMBOL`]. This is what calibration histograms consume.
    pub fn winner_symbols(&self) -> &[u16] {
        &self.win
    }

    /// Scatters the winner's symbols back to group order through the
    /// retained rank permutation: position `max_pos` (and any position not
    /// loaded) gets [`SCALE_SYMBOL`], every other position its quantized
    /// symbol. Bit-identical to [`NormalizedGroup::symbols`] of the
    /// winning pattern. Only valid after a [`GroupScratch::load_group`]
    /// (positions must be group positions).
    ///
    /// # Panics
    ///
    /// Panics if no selection ran or `group_size` doesn't cover the
    /// loaded positions.
    pub fn scatter(&mut self, group_size: usize) -> &[u16] {
        assert_eq!(self.win.len(), self.keys.len(), "select before scatter");
        self.syms.clear();
        self.syms.resize(group_size, SCALE_SYMBOL);
        for (&k, &s) in self.keys.iter().zip(&self.win) {
            self.syms[key_pos(k)] = s;
        }
        &self.syms
    }
}

/// Reference scorer for one pattern over **sorted** values (with optional
/// aligned weights): finds each run the slow, obvious way — one
/// [`KmeansPattern::nearest`] probe per value, grouping consecutive equal
/// symbols — then closes it with the shared `run_error` expression over
/// prefix-sum differences. The run partition provably equals the fused
/// sweep's boundary merge (nearest counts boundaries below the value),
/// and the shared algebra makes the scores bit-identical; the closed form
/// itself is tied back to the naive per-value sum of
/// [`KmeansPattern::sq_error`] by an approximate property test.
pub(crate) fn ref_pattern_error(
    pattern: &KmeansPattern,
    sorted_vals: &[f32],
    sorted_wts: Option<&[f32]>,
) -> f64 {
    let n = sorted_vals.len();
    let (mut p1, mut p2) = (Vec::new(), Vec::new());
    let (mut pw0, mut pw1, mut pw2) = (Vec::new(), Vec::new(), Vec::new());
    accumulate_prefixes(sorted_vals.iter().copied(), &mut p1, &mut p2);
    if let Some(w) = sorted_wts {
        assert_eq!(w.len(), n, "one weight per value");
        accumulate_weighted_prefixes(
            sorted_vals.iter().copied().zip(w.iter().copied()),
            &mut pw0,
            &mut pw1,
            &mut pw2,
        );
    }
    let mut err = 0f64;
    let mut lo = 0usize;
    while lo < n {
        let sym = pattern.nearest(sorted_vals[lo]);
        let mut hi = lo + 1;
        while hi < n && pattern.nearest(sorted_vals[hi]) == sym {
            hi += 1;
        }
        let c = pattern.centroids()[sym as usize] as f64;
        err += match sorted_wts {
            Some(_) => run_error(pw0[hi] - pw0[lo], pw1[hi] - pw1[lo], pw2[hi] - pw2[lo], c),
            None => run_error((hi - lo) as f64, p1[hi] - p1[lo], p2[hi] - p2[lo], c),
        };
        lo = hi;
    }
    err
}

/// The pinned reference implementation of pattern selection — simple and
/// allocating: sorts the group, scores every pattern independently with
/// `ref_pattern_error` (or [`KmeansPattern::minmax_fitness`]) and takes
/// the `argmin`. The fused sweep must stay bit-identical to this
/// function (differential proptests in this module and the
/// `codec_throughput` bench both compare against it).
///
/// Values are scored in ascending order (the same unique order the fused
/// scratch sorts into), which makes selection invariant to the group's
/// memory layout; `group_w2`, when given, holds one squared channel
/// magnitude per group position.
///
/// # Panics
///
/// Panics if `patterns` is empty or `group_w2` is shorter than the group.
pub fn select_pattern_ref(
    patterns: &[KmeansPattern],
    ng: &NormalizedGroup,
    group_w2: Option<&[f32]>,
    selector: PatternSelector,
) -> usize {
    assert!(!patterns.is_empty(), "no patterns to select from");
    let mut pairs: Vec<(f32, u32)> = ng
        .values
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != ng.max_pos)
        .map(|(i, &v)| (v, i as u32))
        .collect();
    pairs.sort_unstable_by(pair_order);
    let vals: Vec<f32> = pairs.iter().map(|&(v, _)| v).collect();
    match (group_w2, selector) {
        (Some(w2), _) => {
            assert!(w2.len() >= ng.values.len(), "one weight per value");
            let wts: Vec<f32> = pairs.iter().map(|&(_, i)| w2[i as usize]).collect();
            argmin(
                patterns
                    .iter()
                    .map(|p| ref_pattern_error(p, &vals, Some(&wts))),
            )
        }
        (None, PatternSelector::MseOptimal) => {
            argmin(patterns.iter().map(|p| ref_pattern_error(p, &vals, None)))
        }
        (None, PatternSelector::MinMax) => {
            let (lo, hi) = ng.minmax_excluding_max();
            argmin(patterns.iter().map(|p| p.minmax_fitness(lo, hi)))
        }
    }
}

/// Index of the smallest score; ties resolve to the first (lowest) index,
/// and NaN scores never win (an all-NaN stream returns 0). Pinned by the
/// regression tests below — both selection paths rely on this exact rule.
pub(crate) fn argmin(scores: impl Iterator<Item = f64>) -> usize {
    let mut best = (0usize, f64::INFINITY);
    for (i, s) in scores.enumerate() {
        if s < best.1 {
            best = (i, s);
        }
    }
    best.0
}

/// Runs `f` with the calling thread's shared [`GroupScratch`] — how the
/// classic (scratch-less) entry points stay allocation-free per group.
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut GroupScratch) -> R) -> R {
    thread_local! {
        static SCRATCH: std::cell::RefCell<GroupScratch> =
            std::cell::RefCell::new(GroupScratch::new());
    }
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::normalize_group;
    use crate::pattern::NUM_CENTROIDS;
    use ecco_numerics::Po2Scale;
    use proptest::prelude::*;

    #[test]
    fn argmin_pins_ties_and_nan() {
        // Ties resolve to the lowest index.
        assert_eq!(argmin([1.0, 0.5, 0.5, 2.0].into_iter()), 1);
        assert_eq!(argmin([0.0, 0.0].into_iter()), 0);
        // NaN never wins, wherever it sits.
        assert_eq!(argmin([f64::NAN, 1.0, 0.5].into_iter()), 2);
        assert_eq!(argmin([1.0, f64::NAN, 0.5].into_iter()), 2);
        assert_eq!(argmin([0.5, 1.0, f64::NAN].into_iter()), 0);
        // All-NaN (and empty) default to 0.
        assert_eq!(argmin([f64::NAN, f64::NAN].into_iter()), 0);
        assert_eq!(argmin(std::iter::empty()), 0);
    }

    /// A small deliberately-awkward pattern set: smooth, narrow, wide, a
    /// pattern with duplicate centroids, and a skewed one.
    fn test_patterns() -> Vec<KmeansPattern> {
        let mut out = Vec::new();
        out.push(KmeansPattern::new(core::array::from_fn(|i| {
            (i as f32 - 7.0) / 8.0
        })));
        out.push(KmeansPattern::new(core::array::from_fn(|i| {
            (i as f32 - 7.0) / 70.0
        })));
        out.push(KmeansPattern::new(core::array::from_fn(|i| {
            ((i as f32 - 7.0) / 7.5).clamp(-1.0, 1.0)
        })));
        let mut dup = [0f32; NUM_CENTROIDS];
        for (i, x) in dup.iter_mut().enumerate() {
            *x = match i {
                0..=3 => -0.6,
                12..=14 => 0.8,
                _ => (i as f32 - 7.0) / 12.0,
            };
        }
        out.push(KmeansPattern::new(dup));
        out.push(KmeansPattern::new(core::array::from_fn(|i| {
            ((i as f32 / 14.0).powi(2)) * 1.6 - 0.8
        })));
        out
    }

    fn bounds_of(patterns: &[KmeansPattern]) -> Vec<PatternBoundaries> {
        patterns.iter().map(KmeansPattern::boundaries).collect()
    }

    /// Builds a group that stresses the fused sweep: values drawn from a
    /// coarse lattice (forcing duplicates and exact boundary hits), some
    /// outside [-1, 1] after normalization (clipped symbols), and
    /// optionally the absmax magnitude duplicated at a second position.
    fn build_group(lattice: &[i32], dup_absmax: bool, a: usize, b: usize) -> Vec<f32> {
        let mut g: Vec<f32> = lattice.iter().map(|&q| q as f32 / 16.0).collect();
        if dup_absmax && a != b {
            // Two positions share the absolute-maximum magnitude.
            let m = g.iter().fold(0f32, |m, &x| m.max(x.abs())) + 0.25;
            g[a] = m;
            g[b] = -m;
        }
        g
    }

    fn selector_of(minmax: bool) -> PatternSelector {
        if minmax {
            PatternSelector::MinMax
        } else {
            PatternSelector::MseOptimal
        }
    }

    proptest! {
        #[test]
        fn fused_matches_reference_unweighted(
            lattice in prop::collection::vec(-24i32..=24, 128),
            dup_absmax in any::<bool>(),
            a in 0usize..128,
            b in 0usize..128,
            minmax in any::<bool>(),
        ) {
            let g = build_group(&lattice, dup_absmax, a, b);
            let patterns = test_patterns();
            let bounds = bounds_of(&patterns);
            let ng = normalize_group(&g, Po2Scale::IDENTITY);
            let selector = selector_of(minmax);

            let mut scratch = GroupScratch::new();
            scratch.load_group(&ng);
            let kp = scratch.select(&patterns, &bounds, selector);
            let kp_ref = select_pattern_ref(&patterns, &ng, None, selector);
            prop_assert_eq!(kp, kp_ref, "fused and reference disagree on the pattern");

            // The fused winner symbols must equal the from-scratch
            // quantization of the winning pattern, in group order.
            let syms = scratch.scatter(g.len()).to_vec();
            prop_assert_eq!(syms, ng.symbols(&patterns[kp]));
        }

        #[test]
        fn fused_matches_reference_weighted(
            lattice in prop::collection::vec(-24i32..=24, 128),
            dup_absmax in any::<bool>(),
            a in 0usize..128,
            b in 0usize..128,
        ) {
            let g = build_group(&lattice, dup_absmax, a, b);
            let patterns = test_patterns();
            let bounds = bounds_of(&patterns);
            let ng = normalize_group(&g, Po2Scale::IDENTITY);
            // Repeating weights guarantee duplicate values with *different*
            // weights exist, exercising the pinned equal-value order.
            let w2: Vec<f32> = (0..g.len()).map(|i| 0.05 + (i % 5) as f32 * 0.3).collect();

            let mut scratch = GroupScratch::new();
            scratch.load_group_weighted(&ng, &w2);
            let kp = scratch.select_weighted(&patterns, &bounds);
            let kp_ref = select_pattern_ref(&patterns, &ng, Some(&w2), PatternSelector::MseOptimal);
            prop_assert_eq!(kp, kp_ref, "weighted fused and reference disagree");
            let syms = scratch.scatter(g.len()).to_vec();
            prop_assert_eq!(syms, ng.symbols(&patterns[kp]));
        }

        #[test]
        fn run_closed_form_tracks_naive_error(
            lattice in prop::collection::vec(-24i32..=24, 127),
        ) {
            // The run-based closed form (prefix sums + run_error) must
            // track the naive per-value accumulation of
            // KmeansPattern::{sq_error, weighted_sq_error}. They are not
            // bit-equal: the naive path rounds (v - c) in f32 before
            // squaring while the closed form expands in f64, so agreement
            // is bounded by f32 rounding (~1e-7 relative), not exactness.
            let mut vals: Vec<f32> = lattice.iter().map(|&q| q as f32 / 16.0).collect();
            vals.sort_unstable_by(f32::total_cmp);
            let wts: Vec<f32> = (0..vals.len()).map(|i| 0.05 + (i % 7) as f32 * 0.2).collect();
            for p in test_patterns() {
                let closed = ref_pattern_error(&p, &vals, None);
                let naive = p.sq_error(&vals);
                prop_assert!(
                    (closed - naive).abs() <= 1e-5 * (1.0 + naive.abs()),
                    "closed {closed} vs naive {naive}"
                );
                let closed_w = ref_pattern_error(&p, &vals, Some(&wts));
                let naive_w = p.weighted_sq_error(&vals, &wts);
                prop_assert!(
                    (closed_w - naive_w).abs() <= 1e-5 * (1.0 + naive_w.abs()),
                    "weighted closed {closed_w} vs naive {naive_w}"
                );
            }
        }

        #[test]
        fn calibration_load_matches_group_load(
            lattice in prop::collection::vec(-24i32..=24, 128),
            dup_absmax in any::<bool>(),
            a in 0usize..128,
            b in 0usize..128,
        ) {
            // Calibration loads pre-extracted values; the encoder loads the
            // normalized group. Same selection either way.
            let g = build_group(&lattice, dup_absmax, a, b);
            let patterns = test_patterns();
            let bounds = bounds_of(&patterns);
            let ng = normalize_group(&g, Po2Scale::IDENTITY);
            let vals: Vec<f32> = ng
                .values
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != ng.max_pos)
                .map(|(_, &v)| v)
                .collect();
            let mut a = GroupScratch::new();
            a.load_group(&ng);
            let mut b = GroupScratch::new();
            b.load_values(&vals, None);
            for selector in [PatternSelector::MseOptimal, PatternSelector::MinMax] {
                prop_assert_eq!(
                    a.select(&patterns, &bounds, selector),
                    b.select(&patterns, &bounds, selector)
                );
                prop_assert_eq!(a.winner_symbols(), b.winner_symbols());
            }
        }
    }

    #[test]
    fn scratch_reuse_is_stateless() {
        // A scratch that just processed one group must give the same
        // answers on the next as a fresh scratch (loaders fully reset).
        let patterns = test_patterns();
        let bounds = bounds_of(&patterns);
        let g1: Vec<f32> = (0..128)
            .map(|i| ((i * 37) % 128) as f32 / 64.0 - 1.0)
            .collect();
        let g2: Vec<f32> = (0..128).map(|i| ((i * 11) % 32) as f32 / 100.0).collect();
        let ng1 = normalize_group(&g1, Po2Scale::IDENTITY);
        let ng2 = normalize_group(&g2, Po2Scale::IDENTITY);

        let mut reused = GroupScratch::new();
        reused.load_group(&ng1);
        reused.select(&patterns, &bounds, PatternSelector::MseOptimal);
        reused.load_group(&ng2);
        let kp_reused = reused.select(&patterns, &bounds, PatternSelector::MseOptimal);
        let reused_syms = reused.scatter(128).to_vec();

        let mut fresh = GroupScratch::new();
        fresh.load_group(&ng2);
        let kp_fresh = fresh.select(&patterns, &bounds, PatternSelector::MseOptimal);
        assert_eq!(kp_reused, kp_fresh);
        assert_eq!(reused_syms, fresh.scatter(128));
    }

    #[test]
    fn quantize_matches_group_symbols() {
        let patterns = test_patterns();
        let bounds = bounds_of(&patterns);
        let g: Vec<f32> = (0..128).map(|i| ((i as f32) / 42.0).sin()).collect();
        let ng = normalize_group(&g, Po2Scale::IDENTITY);
        let mut scratch = GroupScratch::new();
        scratch.load_group(&ng);
        for (kp, (p, b)) in patterns.iter().zip(&bounds).enumerate() {
            scratch.quantize(p, b);
            assert_eq!(scratch.scatter(128), ng.symbols(p), "pattern {kp}");
        }
    }
}
