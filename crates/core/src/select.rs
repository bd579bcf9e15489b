//! Pattern selection + quantization on the encoder hot path (paper
//! step 5).
//!
//! Two selectors, one [`GroupScratch`] entry point per caller (the
//! encoder's `select_group`, calibration's `select_values`):
//!
//! * **MinMax** (the online KV path, §3.2) needs only the group's min and
//!   max, so it never sorts: `select_minmax` takes them straight off the
//!   normalized group by the reference's rule
//!   ([`NormalizedGroup::minmax_excluding_max`]), picks the pattern by
//!   [`KmeansPattern::minmax_fitness`], and maps every value to its symbol
//!   through the winner's [`PatternBoundaries`] — two comparisons per
//!   pattern and one boundary scan per value, like the hardware selector.
//! * **MseOptimal** and the activation-weighted path score every pattern's
//!   squared error, which the **fused sweep** below makes cheap.
//!
//! Naively, each of the `S` shared patterns scores a group with 127
//! independent nearest-centroid searches, and the winner is then
//! quantized *again* to produce symbols. The fused sweep replaces all of
//! that:
//!
//! 1. the group's 127 non-absmax values are sorted **once** into a
//!    reusable [`GroupScratch`] (the rank permutation is retained so the
//!    winner's symbols can be scattered back to group order), and prefix
//!    sums of `v`, `v²` (and their weighted forms) are accumulated over
//!    the sorted order,
//! 2. one forward **ladder merge** ranks the sorted values against every
//!    pattern's boundaries at once. The `BoundaryLadder` holds all
//!    `S × 14` midpoints of the patterns' [`PatternBoundaries`] in one
//!    ascending list, each tagged with its slot `pattern * 14 + j`; one
//!    pass over values and rungs together records at every rung how many
//!    values lie at or below it. Both sequences ascend, so neither cursor
//!    moves back: `O(127 + 14·S)` per group, not one merge per pattern,
//! 3. each pattern is scored from its 14 ranks: run `j` is
//!    `[lo, max(lo, rank_j))` and the last run ends at the value count,
//!    one run per centroid, and each run's squared error closes in
//!    constant time from the prefix sums (`Σ(v−c)² = s2 − 2c·s1 + n·c²`,
//!    the `run_error` helper),
//! 4. the winner's symbols are read off the same ranks instead of
//!    re-quantized.
//!
//! Nothing allocates per group once the scratch has warmed up, and the
//! per-pattern cost collapses from 127 nearest-centroid searches plus 127
//! floating-point error terms to ≤ 15 closed-form run errors.
//!
//! # Bit-identity contract
//!
//! Both selectors are pinned against [`select_pattern_ref`] — a simple,
//! allocating reference implementation — plus [`NormalizedGroup::symbols`]
//! of its winner, by differential proptests below. MinMax shares the
//! reference's min/max rule and `argmin` outright, and its boundary scan
//! equals [`KmeansPattern::nearest`] for every probe, NaN included. Four
//! properties make the sweep bit-identical rather than merely close:
//!
//! * **shared boundary rule**: both quantize by the midpoint-boundary
//!   rule of [`ecco_kmeans::nearest_sorted`] (ties at exact midpoints take
//!   the lower symbol; the reference finds runs per value, the sweep by
//!   the ranks of its ladder merge — the partitions provably coincide),
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
//! # NaN values
//!
//! The sweep and the reference leave NaN values out of their sort, as
//! they leave out the absmax: a NaN neither scores nor enters the ladder
//! merge, and its position gets symbol 0 — what
//! [`KmeansPattern::nearest`] gives a NaN, and what MinMax gives it too
//! (MinMax leaves NaNs out of the min and max). One NaN therefore costs
//! its group that one value, under either selector.

use ecco_numerics::Po2Scale;

use crate::group::{normalize_into, NormalizedGroup};
use crate::metadata::PatternSelector;
use crate::pattern::{KmeansPattern, PatternBoundaries, NUM_CENTROIDS, SCALE_SYMBOL};

/// Boundaries per pattern: one midpoint between each pair of adjacent
/// centroids.
const MIDS: usize = NUM_CENTROIDS - 1;

/// Reusable workspace for pattern selection: the fused sweep's sorted
/// group view, prefix sums and ladder ranks, the winner's symbols and the
/// group-order symbol output. Create one per worker (or use the
/// crate-internal thread-local behind the classic entry points) and pass
/// it with every group to [`crate::encode_group_scratch`] or
/// [`crate::TensorMetadata::select_pattern_scratch`] — after the first
/// group no call allocates.
#[derive(Clone, Debug, Default)]
pub struct GroupScratch {
    /// Packed sort keys of the loaded values (NaNs are never loaded):
    /// the value's IEEE total-order ordinal in the high 32 bits, its
    /// source position in the low 32. Sorting these as plain `u64`s yields
    /// exactly the `(total_cmp, position)` order the reference sorts into,
    /// with branch-free integer compares.
    keys: Vec<u64>,
    /// The sorted values alone, contiguous, for the ladder merge.
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
    /// The ladder merge's output, one entry per slot `pattern * 14 + j`:
    /// how many sorted values lie at or below that pattern's boundary `j`.
    ranks: Vec<u16>,
    /// Symbols of the sweep's winning pattern, in sorted order.
    win: Vec<u16>,
    /// The selected pattern's symbols in group order — scattered from
    /// `win` after the sweep, written directly by MinMax.
    syms: Vec<u16>,
    /// The normalized group's values, lent to each encode by
    /// [`GroupScratch::normalized`].
    norm: Vec<f32>,
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

/// The boundary tables of a pattern set, plus the **ladder** the fused
/// sweep ranks a group against: every table's midpoints in one ascending
/// list, each tagged with its slot `pattern * 14 + j`. Built once per
/// metadata (next to the packed length tables) and once per
/// calibration.
#[derive(Clone, Debug)]
pub(crate) struct BoundaryLadder {
    /// One boundary table per pattern, in pattern order — the MinMax
    /// selector's symbol map.
    tables: Vec<PatternBoundaries>,
    /// `(midpoint, slot)` rungs by ascending midpoint (equal midpoints by
    /// slot). A NaN midpoint, which only adjacent −∞/+∞ centroids make,
    /// is left off: no value is `<=` it, so its slot keeps rank 0.
    rungs: Vec<(f32, u16)>,
}

impl BoundaryLadder {
    /// Builds every pattern's boundary table and their ladder.
    ///
    /// # Panics
    ///
    /// Panics if the slots outgrow `u16`: more than 4681 patterns
    /// (`EccoConfig::validate` caps `S` at 4096).
    pub(crate) fn new(patterns: &[KmeansPattern]) -> BoundaryLadder {
        let tables: Vec<PatternBoundaries> =
            patterns.iter().map(KmeansPattern::boundaries).collect();
        let mut rungs: Vec<(f32, u16)> = tables
            .iter()
            .flat_map(PatternBoundaries::midpoints)
            .enumerate()
            .map(|(slot, &m)| (m, u16::try_from(slot).expect("ladder slots fit u16")))
            .filter(|&(m, _)| !m.is_nan())
            .collect();
        // `-0.0` sorts before `+0.0`; both compare equal under `<=`, so
        // they rank the same in either order.
        rungs.sort_unstable_by_key(|&(m, slot)| (f32_ordinal(m), slot));
        BoundaryLadder { tables, rungs }
    }

    /// The per-pattern boundary tables, in pattern order.
    pub(crate) fn tables(&self) -> &[PatternBoundaries] {
        &self.tables
    }
}

/// The non-empty runs `(symbol, lo, hi)` that pattern `kp`'s 14 ranks
/// (slots `kp * 14 ..` of the ladder merge's `ranks`) cut `n` sorted
/// values into, in ascending symbol order: run `j` is
/// `[lo, max(lo, rank_j))`, and the last run ends at `n`.
///
/// These are the runs a per-pattern merge finds. Let `P(m)` be the
/// longest prefix of the sorted values that are all `<= m`, which is what
/// the ladder merge records. Over sorted values without NaN, a merge that
/// resumes at `lo` and takes every value `<= m` stops at `max(lo, P(m))`.
#[inline]
fn runs(ranks: &[u16], kp: usize, n: usize) -> impl Iterator<Item = (u16, usize, usize)> + '_ {
    let ranks = &ranks[kp * MIDS..(kp + 1) * MIDS];
    let mut lo = 0;
    (0..NUM_CENTROIDS as u16).filter_map(move |j| {
        let hi = ranks
            .get(usize::from(j))
            .map_or(n, |&r| lo.max(usize::from(r)));
        let run = (j, lo, hi);
        lo = hi;
        (hi > run.1).then_some(run)
    })
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

    /// Runs `f` on `group` normalized under `scale` into this scratch's
    /// own value buffer, which it lends to the group and takes back
    /// after: the encoder's normalization, the one
    /// [`normalize_group`](crate::normalize_group) runs, with no
    /// allocation per group once the buffer has grown.
    ///
    /// # Panics
    ///
    /// Panics if `group` is empty.
    pub fn normalized<R>(
        &mut self,
        group: &[f32],
        scale: Po2Scale,
        f: impl FnOnce(&NormalizedGroup, &mut GroupScratch) -> R,
    ) -> R {
        let ng = normalize_into(group, scale, std::mem::take(&mut self.norm));
        let out = f(&ng, self);
        self.norm = ng.values;
        out
    }

    /// Loads `values` except position `skip` and any NaN, each tagged
    /// with its position, sorted ascending, with the prefix sums the
    /// run-closed-form scoring reads.
    fn load(&mut self, values: &[f32], skip: Option<usize>) {
        self.keys.clear();
        self.wts.clear();
        self.keys.extend(
            values
                .iter()
                .enumerate()
                .filter(|&(i, v)| Some(i) != skip && !v.is_nan())
                .map(|(i, &v)| sort_key(v, i)),
        );
        self.keys.sort_unstable();
        self.vals.clear();
        self.vals
            .extend(self.keys.iter().map(|&k| ordinal_to_f32((k >> 32) as u32)));
        accumulate_prefixes(self.vals.iter().copied(), &mut self.p1, &mut self.p2);
    }

    /// Loads a normalized group: every value except the absmax position
    /// and NaNs, positioned in the group.
    fn load_group(&mut self, ng: &NormalizedGroup) {
        self.load(&ng.values, Some(ng.max_pos));
    }

    /// Loads a normalized group plus per-position squared channel
    /// magnitudes (`group_w2[i]` belongs to `ng.values[i]`), permuting the
    /// weights alongside the values.
    ///
    /// # Panics
    ///
    /// Panics if `group_w2` is shorter than the group.
    fn load_group_weighted(&mut self, ng: &NormalizedGroup, group_w2: &[f32]) {
        assert!(group_w2.len() >= ng.values.len(), "one weight per value");
        self.load_group(ng);
        self.wts
            .extend(self.keys.iter().map(|&k| group_w2[key_pos(k)]));
        self.finish_weighted_load();
    }

    /// Loads pre-extracted non-absmax values (and optional aligned
    /// weights), as calibration holds them (finite: calibration drops
    /// non-finite values). Positions index into `vals`, so a scratch
    /// loaded this way must not be scattered back to group order —
    /// calibration only counts the winner's sorted-order symbols.
    fn load_values(&mut self, vals: &[f32], wts: Option<&[f32]>) {
        self.load(vals, None);
        if let Some(w) = wts {
            assert_eq!(w.len(), vals.len(), "one weight per value");
            self.wts.extend(self.keys.iter().map(|&k| w[key_pos(k)]));
            self.finish_weighted_load();
        }
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

    /// The ladder merge: ranks the loaded values against every rung of
    /// `ladder` in one forward pass. Slot `pattern * 14 + j` receives the
    /// length of the longest prefix of the sorted values that are all
    /// `<=` that pattern's boundary `j`: the index of the first value not
    /// `<=` the rung, or `n` if there is none. Values and rungs both
    /// ascend, so neither cursor ever moves back: `O(n + 14·S)`.
    fn rank(&mut self, ladder: &BoundaryLadder) {
        let vals = &self.vals[..];
        assert!(vals.len() <= usize::from(u16::MAX), "ranks fit u16");
        self.ranks.clear();
        self.ranks.resize(ladder.tables.len() * MIDS, 0);
        let rungs = &ladder.rungs[..];
        let mut r = 0usize;
        for (k, &v) in vals.iter().enumerate() {
            // Neither is NaN (the loaders leave NaN values out, the ladder
            // NaN rungs), so "not `v <= m`" is `v > m`.
            while r < rungs.len() && v > rungs[r].0 {
                self.ranks[usize::from(rungs[r].1)] = k as u16;
                r += 1;
            }
        }
        for &(_, slot) in &rungs[r..] {
            self.ranks[usize::from(slot)] = vals.len() as u16;
        }
    }

    /// Scores pattern `kp` from its ranks: the values split into at most
    /// 15 contiguous runs (one per centroid, see `runs`) and each run's
    /// error closes in constant time from the prefix sums via
    /// `run_error`. Run errors accumulate in ascending symbol order — the
    /// same partition and order the reference scorer produces. Pure
    /// scoring: symbols are materialized only for the winner, by
    /// [`GroupScratch::quantize`].
    fn score(&self, kp: usize, pattern: &KmeansPattern, weighted: bool) -> f64 {
        let centroids = pattern.centroids();
        let mut err = 0f64;
        for (j, lo, hi) in runs(&self.ranks, kp, self.vals.len()) {
            let c = centroids[usize::from(j)] as f64;
            err += if weighted {
                run_error(
                    self.pw0[hi] - self.pw0[lo],
                    self.pw1[hi] - self.pw1[lo],
                    self.pw2[hi] - self.pw2[lo],
                    c,
                )
            } else {
                run_error(
                    (hi - lo) as f64,
                    self.p1[hi] - self.p1[lo],
                    self.p2[hi] - self.p2[lo],
                    c,
                )
            };
        }
        err
    }

    /// Ranks the loaded values once, scores every pattern from its ranks,
    /// then materializes the winner's symbols from the same ranks; lowest
    /// score wins, ties to the lowest pattern id, NaN scores never win
    /// (`argmin`).
    fn select_by_sweep(
        &mut self,
        patterns: &[KmeansPattern],
        ladder: &BoundaryLadder,
        weighted: bool,
    ) -> usize {
        assert_eq!(
            patterns.len(),
            ladder.tables.len(),
            "one boundary table per pattern"
        );
        assert!(!patterns.is_empty(), "no patterns to select from");
        self.rank(ladder);
        let kp = argmin(
            patterns
                .iter()
                .enumerate()
                .map(|(kp, p)| self.score(kp, p, weighted)),
        );
        self.quantize(kp);
        kp
    }

    /// The encoder's selection for one normalized group, with the
    /// arguments of [`select_pattern_ref`] (plus the boundary ladder):
    /// returns the chosen pattern and leaves its symbols in group order
    /// for [`GroupScratch::symbols`] — bit-identical to the reference's
    /// pattern and [`NormalizedGroup::symbols`] of it. Weighted and
    /// MSE-optimal selection run the fused sweep and scatter its winner;
    /// MinMax runs `select_minmax` on the group as it lies, no sort.
    ///
    /// # Panics
    ///
    /// Panics if `patterns` is empty, `ladder` was built for a different
    /// number of patterns, or `group_w2` is shorter than the group.
    pub(crate) fn select_group(
        &mut self,
        patterns: &[KmeansPattern],
        ladder: &BoundaryLadder,
        ng: &NormalizedGroup,
        group_w2: Option<&[f32]>,
        selector: PatternSelector,
    ) -> usize {
        let weighted = match (group_w2, selector) {
            (None, PatternSelector::MinMax) => {
                return select_minmax(
                    patterns,
                    ladder.tables(),
                    &ng.values,
                    Some(ng.max_pos),
                    &mut self.syms,
                )
            }
            (None, PatternSelector::MseOptimal) => {
                self.load_group(ng);
                false
            }
            (Some(w2), _) => {
                self.load_group_weighted(ng, w2);
                true
            }
        };
        let kp = self.select_by_sweep(patterns, ladder, weighted);
        self.scatter(ng.values.len(), ng.max_pos);
        kp
    }

    /// Calibration's counterpart of [`GroupScratch::select_group`], over a
    /// group's pre-extracted non-absmax values (and optional aligned
    /// weights): returns the chosen pattern and one symbol per value. The
    /// symbols' order depends on the selector (sorted after the sweep,
    /// value order after MinMax); calibration only counts them.
    pub(crate) fn select_values(
        &mut self,
        patterns: &[KmeansPattern],
        ladder: &BoundaryLadder,
        vals: &[f32],
        wts: Option<&[f32]>,
        selector: PatternSelector,
    ) -> (usize, &[u16]) {
        if let (None, PatternSelector::MinMax) = (wts, selector) {
            let kp = select_minmax(patterns, ladder.tables(), vals, None, &mut self.syms);
            return (kp, &self.syms);
        }
        self.load_values(vals, wts);
        let kp = self.select_by_sweep(patterns, ladder, wts.is_some());
        (kp, &self.win)
    }

    /// Quantizes the loaded values against pattern `kp` from its ranks,
    /// leaving the symbols as the winner — how the sweep materializes its
    /// winner's symbols after scoring.
    fn quantize(&mut self, kp: usize) {
        self.win.clear();
        for (j, _, hi) in runs(&self.ranks, kp, self.vals.len()) {
            self.win.resize(hi, j);
        }
    }

    /// Scatters the sweep winner's symbols back to group order through
    /// the retained rank permutation: `max_pos` gets [`SCALE_SYMBOL`], a
    /// NaN (never loaded) gets symbol 0 — [`KmeansPattern::nearest`] of
    /// NaN — and every other position its quantized symbol. Only valid
    /// after a [`GroupScratch::load_group`] (positions must be group
    /// positions).
    fn scatter(&mut self, group_size: usize, max_pos: usize) {
        assert_eq!(self.win.len(), self.keys.len(), "select before scatter");
        self.syms.clear();
        self.syms.resize(group_size, 0);
        self.syms[max_pos] = SCALE_SYMBOL;
        for (&k, &s) in self.keys.iter().zip(&self.win) {
            self.syms[key_pos(k)] = s;
        }
    }

    /// The selected pattern's symbols in group order, as the last
    /// [`GroupScratch::select_group`] left them: [`SCALE_SYMBOL`] at the
    /// absmax position, the quantized symbol everywhere else.
    pub(crate) fn symbols(&self) -> &[u16] {
        &self.syms
    }
}

/// Values the MinMax symbol map counts midpoints for at once.
const SYMBOL_LANES: usize = 8;

/// The online KV selector (§3.2), the one MinMax rule of the encoder and
/// calibration alike. The min and max of `values` — skipping position
/// `skip` and ignoring NaNs ([`crate::group::minmax_excluding`], the rule
/// of [`NormalizedGroup::minmax_excluding_max`]) — pick the pattern by
/// [`KmeansPattern::minmax_fitness`] through `argmin`, exactly as
/// [`select_pattern_ref`] does. Every value then maps to its symbol by
/// the winner's midpoints, the rule of [`PatternBoundaries::nearest`]
/// (equal to [`KmeansPattern::nearest`]), with [`SCALE_SYMBOL`] at
/// `skip`; `syms` receives them in value order. No sort, no prefix sums.
///
/// # Panics
///
/// Panics if `patterns` is empty, `bounds` disagrees in length, or `skip`
/// is out of range.
fn select_minmax(
    patterns: &[KmeansPattern],
    bounds: &[PatternBoundaries],
    values: &[f32],
    skip: Option<usize>,
    syms: &mut Vec<u16>,
) -> usize {
    assert_eq!(
        patterns.len(),
        bounds.len(),
        "one boundary table per pattern"
    );
    assert!(!patterns.is_empty(), "no patterns to select from");
    let (lo, hi) = crate::group::minmax_excluding(values, skip);
    let kp = argmin(patterns.iter().map(|p| p.minmax_fitness(lo, hi)));
    // `PatternBoundaries::nearest` over eight values at once: each value's
    // symbol is the count of midpoints strictly below it, counted one
    // midpoint at a time across the eight, so the compares are packed
    // and the counts stay in registers.
    let bounds = &bounds[kp];
    syms.clear();
    let mut chunks = values.chunks_exact(SYMBOL_LANES);
    for chunk in chunks.by_ref() {
        let mut count = [0u16; SYMBOL_LANES];
        for &m in bounds.midpoints() {
            for (c, &v) in count.iter_mut().zip(chunk) {
                *c += u16::from(v > m);
            }
        }
        syms.extend_from_slice(&count);
    }
    syms.extend(chunks.remainder().iter().map(|&v| bounds.nearest(v)));
    if let Some(s) = skip {
        syms[s] = SCALE_SYMBOL;
    }
    kp
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
/// the `argmin`. The fused sweep and the unsorted MinMax selector must
/// stay bit-identical to this function (differential proptests in this
/// module and the `codec_throughput` bench both compare against it).
///
/// Values are scored in ascending order (the same unique order the fused
/// scratch sorts into), which makes selection invariant to the group's
/// memory layout; NaN values are left out, as the fused scratch leaves
/// them out. `group_w2`, when given, holds one squared channel magnitude
/// per group position.
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
        .filter(|&(i, v)| i != ng.max_pos && !v.is_nan())
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
    /// pattern with duplicate centroids, a skewed one, and one whose
    /// adjacent `-0.0` and adjacent `+0.0` centroids put both zeros among
    /// its boundaries.
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
        let zeros = KmeansPattern::new(core::array::from_fn(|i| match i {
            0..=6 => (i as f32 - 7.0) / 7.0,
            7 | 8 => -0.0,
            9 | 10 => 0.0,
            _ => (i as f32 - 10.0) / 4.0,
        }));
        let zero_bits = zeros.boundaries().midpoints().map(f32::to_bits);
        assert!(zero_bits.contains(&(-0.0f32).to_bits()) && zero_bits.contains(&0.0f32.to_bits()));
        out.push(zeros);
        out
    }

    /// A set of 64 patterns, each with sorted centroids from a coarse
    /// lattice (one row of 15 draws per pattern): rungs of different
    /// patterns tie often, on an 896-rung ladder, the size
    /// `EccoConfig::default()` selects over.
    fn lattice_patterns(rows: &[Vec<i32>]) -> Vec<KmeansPattern> {
        rows.iter()
            .map(|row| {
                let mut c: [f32; NUM_CENTROIDS] = core::array::from_fn(|i| row[i] as f32 / 8.0);
                c.sort_unstable_by(f32::total_cmp);
                KmeansPattern::new(c)
            })
            .collect()
    }

    /// Builds a group that stresses the fused sweep: values drawn from a
    /// coarse lattice (forcing duplicates and exact boundary hits, zeros
    /// of both signs), some outside [-1, 1] after normalization (clipped
    /// symbols), and optionally the absmax magnitude duplicated at a
    /// second position.
    fn build_group(lattice: &[i32], dup_absmax: bool, a: usize, b: usize) -> Vec<f32> {
        let mut g: Vec<f32> = lattice
            .iter()
            .enumerate()
            .map(|(i, &q)| match (q, i % 2) {
                (0, 1) => -0.0,
                _ => q as f32 / 16.0,
            })
            .collect();
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
            plant_nan in any::<bool>(),
            nan_at in 0usize..128,
            nan_negative in any::<bool>(),
            rows in prop::collection::vec(prop::collection::vec(-8i32..=8, NUM_CENTROIDS), 64),
        ) {
            let mut g = build_group(&lattice, dup_absmax, a, b);
            // Both selectors take any group as it lies: plant a ±NaN (it
            // never wins the absmax).
            if plant_nan {
                g[nan_at] = if nan_negative { -f32::NAN } else { f32::NAN };
            }
            let ng = normalize_group(&g, Po2Scale::IDENTITY);
            let selector = selector_of(minmax);
            for patterns in [test_patterns(), lattice_patterns(&rows)] {
                let ladder = BoundaryLadder::new(&patterns);
                let mut scratch = GroupScratch::new();
                let kp = scratch.select_group(&patterns, &ladder, &ng, None, selector);
                let kp_ref = select_pattern_ref(&patterns, &ng, None, selector);
                prop_assert_eq!(kp, kp_ref, "fused and reference disagree on the pattern");

                // The winner symbols must equal the from-scratch
                // quantization of the winning pattern, in group order.
                prop_assert_eq!(scratch.symbols(), &ng.symbols(&patterns[kp])[..]);
            }
        }

        #[test]
        fn fused_matches_reference_weighted(
            lattice in prop::collection::vec(-24i32..=24, 128),
            dup_absmax in any::<bool>(),
            a in 0usize..128,
            b in 0usize..128,
            plant_nan in any::<bool>(),
            nan_at in 0usize..128,
            nan_negative in any::<bool>(),
            rows in prop::collection::vec(prop::collection::vec(-8i32..=8, NUM_CENTROIDS), 64),
        ) {
            let mut g = build_group(&lattice, dup_absmax, a, b);
            if plant_nan {
                g[nan_at] = if nan_negative { -f32::NAN } else { f32::NAN };
            }
            let ng = normalize_group(&g, Po2Scale::IDENTITY);
            // Repeating weights guarantee duplicate values with *different*
            // weights exist, exercising the pinned equal-value order.
            let w2: Vec<f32> = (0..g.len()).map(|i| 0.05 + (i % 5) as f32 * 0.3).collect();
            for patterns in [test_patterns(), lattice_patterns(&rows)] {
                let ladder = BoundaryLadder::new(&patterns);
                let mut scratch = GroupScratch::new();
                let kp = scratch.select_group(&patterns, &ladder, &ng, Some(&w2), PatternSelector::MseOptimal);
                let kp_ref = select_pattern_ref(&patterns, &ng, Some(&w2), PatternSelector::MseOptimal);
                prop_assert_eq!(kp, kp_ref, "weighted fused and reference disagree");
                prop_assert_eq!(scratch.symbols(), &ng.symbols(&patterns[kp])[..]);
            }
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
            // Calibration selects over pre-extracted values; the encoder
            // over the normalized group. Same pattern and symbols either
            // way, under both selectors.
            let g = build_group(&lattice, dup_absmax, a, b);
            let patterns = test_patterns();
            let ladder = BoundaryLadder::new(&patterns);
            let ng = normalize_group(&g, Po2Scale::IDENTITY);
            let vals: Vec<f32> = ng
                .values
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != ng.max_pos)
                .map(|(_, &v)| v)
                .collect();
            let mut a = GroupScratch::new();
            let mut b = GroupScratch::new();
            for selector in [PatternSelector::MseOptimal, PatternSelector::MinMax] {
                let kp = a.select_group(&patterns, &ladder, &ng, None, selector);
                let (kp_cal, cal_syms) = b.select_values(&patterns, &ladder, &vals, None, selector);
                prop_assert_eq!(kp, kp_cal);
                match selector {
                    // The sweep's symbols, in sorted order on both sides.
                    PatternSelector::MseOptimal => prop_assert_eq!(&a.win[..], cal_syms),
                    // MinMax's, in value order: the group's minus its absmax.
                    PatternSelector::MinMax => {
                        let mut group_syms = a.symbols().to_vec();
                        prop_assert_eq!(group_syms.remove(ng.max_pos), SCALE_SYMBOL);
                        prop_assert_eq!(&group_syms[..], cal_syms);
                    }
                }
            }
        }
    }

    /// Today's min/max fold, the oracle `minmax_excluding` is held to:
    /// `f32::min`/`max` over every value but `skip`.
    fn minmax_fold(values: &[f32], skip: Option<usize>) -> (f32, f32) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for (i, &v) in values.iter().enumerate() {
            if Some(i) == skip {
                continue;
            }
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if lo > hi {
            (0.0, 0.0)
        } else {
            (lo, hi)
        }
    }

    proptest! {
        #[test]
        fn minmax_matches_min_max_fold_on_special_values(
            lattice in prop::collection::vec(-24i32..=24, 1..=128),
            specials in prop::collection::vec((0usize..128, 0usize..crate::group::tests::SPECIALS.len()), 0..16),
            skip_at in 0usize..128,
            skip_some in any::<bool>(),
            rows in prop::collection::vec(prop::collection::vec(-8i32..=8, NUM_CENTROIDS), 64),
        ) {
            // Raw values with ±0, subnormals, ±inf and NaNs of both signs
            // planted: the same extremes as the fold, up to a zero's sign.
            let mut g = build_group(&lattice, false, 0, 0);
            for &(pos, which) in &specials {
                if let Some(x) = g.get_mut(pos) {
                    *x = crate::group::tests::SPECIALS[which];
                }
            }
            let skip = skip_some.then_some(skip_at % g.len());
            let (lo, hi) = crate::group::minmax_excluding(&g, skip);
            let (lo_ref, hi_ref) = minmax_fold(&g, skip);
            prop_assert!(lo == lo_ref && hi == hi_ref, "({}, {}) vs ({}, {})", lo, hi, lo_ref, hi_ref);

            // The MinMax pattern and symbols of the normalized group are
            // the fold's: the fitness cannot tell a zero's sign.
            let ng = normalize_group(&g, Po2Scale::IDENTITY);
            let (lo_ref, hi_ref) = minmax_fold(&ng.values, Some(ng.max_pos));
            for patterns in [test_patterns(), lattice_patterns(&rows)] {
                let ladder = BoundaryLadder::new(&patterns);
                let kp_ref = argmin(patterns.iter().map(|p| p.minmax_fitness(lo_ref, hi_ref)));
                let mut scratch = GroupScratch::new();
                let kp = scratch.select_group(&patterns, &ladder, &ng, None, PatternSelector::MinMax);
                prop_assert_eq!(kp, kp_ref);
                prop_assert_eq!(scratch.symbols(), &ng.symbols(&patterns[kp_ref])[..]);
            }
        }
    }

    #[test]
    fn scratch_reuse_is_stateless() {
        // A scratch that just processed one group must give the same
        // answers on the next as a fresh scratch, whichever selector ran
        // before (loaders and selectors fully reset).
        let patterns = test_patterns();
        let ladder = BoundaryLadder::new(&patterns);
        let g1: Vec<f32> = (0..128)
            .map(|i| ((i * 37) % 128) as f32 / 64.0 - 1.0)
            .collect();
        let g2: Vec<f32> = (0..128).map(|i| ((i * 11) % 32) as f32 / 100.0).collect();
        let ng1 = normalize_group(&g1, Po2Scale::IDENTITY);
        let ng2 = normalize_group(&g2, Po2Scale::IDENTITY);

        for first in [PatternSelector::MseOptimal, PatternSelector::MinMax] {
            for second in [PatternSelector::MseOptimal, PatternSelector::MinMax] {
                let mut reused = GroupScratch::new();
                reused.select_group(&patterns, &ladder, &ng1, None, first);
                let kp_reused = reused.select_group(&patterns, &ladder, &ng2, None, second);

                let mut fresh = GroupScratch::new();
                let kp_fresh = fresh.select_group(&patterns, &ladder, &ng2, None, second);
                assert_eq!(kp_reused, kp_fresh, "{first:?} then {second:?}");
                assert_eq!(
                    reused.symbols(),
                    fresh.symbols(),
                    "{first:?} then {second:?}"
                );
            }
        }
    }

    #[test]
    fn quantize_matches_group_symbols() {
        // Every pattern's symbols, read off its ranks from one ladder
        // merge, equal the from-scratch quantization.
        let patterns = test_patterns();
        let ladder = BoundaryLadder::new(&patterns);
        let g: Vec<f32> = (0..128).map(|i| ((i as f32) / 42.0).sin()).collect();
        let ng = normalize_group(&g, Po2Scale::IDENTITY);
        let mut scratch = GroupScratch::new();
        scratch.load_group(&ng);
        scratch.rank(&ladder);
        for (kp, p) in patterns.iter().enumerate() {
            scratch.quantize(kp);
            scratch.scatter(128, ng.max_pos);
            assert_eq!(scratch.symbols(), ng.symbols(p), "pattern {kp}");
        }
    }
}
