//! Shared k-means patterns (steps 3–4 of the paper's Figure 4).

use ecco_kmeans::{
    fill_midpoints, fit_scalar, fit_vectors, nearest_by_midpoints, nearest_sorted, KmeansConfig,
    ScalarFit,
};

/// Centroids per pattern: 15 (symbol 15 is reserved for the group absmax).
pub const NUM_CENTROIDS: usize = 15;
/// Total symbols per group alphabet (15 centroids + the scale-factor mark).
pub const SYMBOL_COUNT: usize = 16;
/// The reserved symbol marking the absmax/scale-factor position.
pub const SCALE_SYMBOL: u16 = 15;

/// A sorted 15-centroid quantization pattern over normalized values in
/// `(-1, 1)`.
///
/// # Examples
///
/// ```
/// use ecco_core::KmeansPattern;
///
/// let p = KmeansPattern::from_group(&[-0.9, -0.5, 0.0, 0.1, 0.4, 0.8], None, 1);
/// assert_eq!(p.centroids().len(), 15);
/// let sym = p.nearest(0.09);
/// assert!((p.centroids()[sym as usize] - 0.1).abs() < 0.2);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct KmeansPattern {
    centroids: [f32; NUM_CENTROIDS],
}

impl KmeansPattern {
    /// Wraps an explicit centroid vector.
    ///
    /// # Panics
    ///
    /// Panics if the centroids are not sorted ascending.
    pub fn new(centroids: [f32; NUM_CENTROIDS]) -> KmeansPattern {
        assert!(
            centroids.windows(2).all(|w| w[0] <= w[1]),
            "centroids must be sorted"
        );
        KmeansPattern { centroids }
    }

    /// Non-panicking revival constructor for deserialization paths:
    /// returns `None` when any centroid is non-finite or the array is not
    /// sorted ascending — the invariants [`KmeansPattern::new`] asserts.
    /// Untrusted snapshot bytes (see `ecco_core::wire`) must come through
    /// here so a corrupt pattern surfaces as a typed error, not a panic.
    pub fn from_revived(centroids: [f32; NUM_CENTROIDS]) -> Option<KmeansPattern> {
        let sorted_finite =
            centroids.iter().all(|c| c.is_finite()) && centroids.windows(2).all(|w| w[0] <= w[1]);
        sorted_finite.then_some(KmeansPattern { centroids })
    }

    /// Fits a pattern to one group's normalized non-absmax values via
    /// weighted 1-D k-means (paper step 3). `weights` carries the
    /// activation-aware importance; `None` = uniform.
    pub fn from_group(values: &[f32], weights: Option<&[f32]>, seed: u64) -> KmeansPattern {
        KmeansPattern::from_fit(&fit_scalar(
            values,
            weights,
            &KmeansConfig::with_k(NUM_CENTROIDS).seeded(seed),
        ))
    }

    /// Wraps a finished 15-cluster scalar fit — the constructor the
    /// batched (pool-parallel) calibration path uses after
    /// [`ecco_kmeans::fit_scalar_batch`].
    ///
    /// # Panics
    ///
    /// Panics if the fit does not hold exactly [`NUM_CENTROIDS`] centroids.
    pub fn from_fit(fit: &ScalarFit) -> KmeansPattern {
        assert_eq!(fit.centroids.len(), NUM_CENTROIDS, "need a 15-cluster fit");
        let mut centroids = [0f32; NUM_CENTROIDS];
        centroids.copy_from_slice(&fit.centroids);
        KmeansPattern { centroids }
    }

    /// The sorted centroid values.
    pub fn centroids(&self) -> &[f32; NUM_CENTROIDS] {
        &self.centroids
    }

    /// Smallest centroid.
    pub fn min(&self) -> f32 {
        self.centroids[0]
    }

    /// Largest centroid.
    pub fn max(&self) -> f32 {
        self.centroids[NUM_CENTROIDS - 1]
    }

    /// Index (symbol) of the centroid nearest to `x`.
    #[inline]
    pub fn nearest(&self, x: f32) -> u16 {
        nearest_sorted(&self.centroids, x) as u16
    }

    /// Index of the centroid closest to zero — the reconstruction used for
    /// clipped symbols.
    pub fn zero_symbol(&self) -> u16 {
        self.nearest(0.0)
    }

    /// Sum of squared quantization errors of `values` against this pattern
    /// (in the normalized domain), the paper's MSE pattern-fitness.
    pub fn sq_error(&self, values: &[f32]) -> f64 {
        values
            .iter()
            .map(|&v| {
                let c = self.centroids[self.nearest(v) as usize];
                ((v - c) as f64).powi(2)
            })
            .sum()
    }

    /// Weighted sum of squared quantization errors — the activation-aware
    /// fitness used when compressing weights offline (`weights[i]` is the
    /// squared activation magnitude of value `i`'s input channel).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn weighted_sq_error(&self, values: &[f32], weights: &[f32]) -> f64 {
        assert_eq!(values.len(), weights.len(), "one weight per value");
        values
            .iter()
            .zip(weights)
            .map(|(&v, &w)| {
                let c = self.centroids[self.nearest(v) as usize];
                w as f64 * ((v - c) as f64).powi(2)
            })
            .sum()
    }

    /// The simplified min/max fitness used by the online KV selector
    /// (Section 3.2): `(min−gmin)² + (max−gmax)²`.
    #[inline]
    pub fn minmax_fitness(&self, group_min: f32, group_max: f32) -> f64 {
        ((self.min() - group_min) as f64).powi(2) + ((self.max() - group_max) as f64).powi(2)
    }

    /// Precomputes this pattern's 14 decision boundaries for the encoder
    /// hot path. `TensorMetadata` builds one table per shared pattern and
    /// caches them next to the packed length tables.
    pub fn boundaries(&self) -> PatternBoundaries {
        let mut mids = [0f32; NUM_CENTROIDS - 1];
        fill_midpoints(&self.centroids, &mut mids);
        PatternBoundaries { mids }
    }
}

/// The precomputed decision boundaries of one [`KmeansPattern`]: the 14
/// centroid midpoints `(c[j] + c[j+1]) * 0.5`.
///
/// # The midpoint-boundary invariant
///
/// Quantization against a sorted pattern is fully described by its
/// midpoints: value `x` maps to symbol `i` where `i` is the **count of
/// midpoints strictly below `x`**. Because the centroids are sorted, the
/// midpoints are non-decreasing, so the count can be read off by a
/// branch-free scan ([`PatternBoundaries::nearest`]) or — when many
/// values are quantized at once — by one merge of the sorted values
/// against every pattern's boundaries (the encoder's fused sweep in
/// [`crate::select`]).
///
/// The rule pins every corner case deterministically:
///
/// * a value **exactly on a midpoint** takes the *lower* symbol,
/// * **duplicate centroids**: values at/below the duplicated value take
///   the *lowest* symbol among them, values strictly above the *highest*
///   — the reconstructed centroid is identical either way,
/// * **NaN** compares false against every midpoint and maps to symbol 0,
///   the symbol the encoder gives a NaN value under either selector.
///
/// [`KmeansPattern::nearest`] recomputes the same midpoints per probe, so
/// for every non-NaN `x`:
///
/// ```
/// use ecco_core::KmeansPattern;
///
/// let p = KmeansPattern::new(core::array::from_fn(|i| (i as f32 - 7.0) / 8.0));
/// let b = p.boundaries();
/// for i in -20..=20 {
///     let x = i as f32 * 0.06;
///     assert_eq!(b.nearest(x), p.nearest(x));
/// }
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PatternBoundaries {
    mids: [f32; NUM_CENTROIDS - 1],
}

impl PatternBoundaries {
    /// The non-decreasing midpoint values.
    pub fn midpoints(&self) -> &[f32; NUM_CENTROIDS - 1] {
        &self.mids
    }

    /// Symbol for `x` — a branch-free scan over the 14 boundaries,
    /// bit-identical to [`KmeansPattern::nearest`] for non-NaN probes.
    #[inline]
    pub fn nearest(&self, x: f32) -> u16 {
        nearest_by_midpoints(&self.mids, x) as u16
    }
}

/// Clusters per-group patterns into `s` shared patterns (paper step 4).
///
/// Averaging sorted vectors preserves sortedness, so the shared centroids
/// remain valid patterns.
///
/// # Panics
///
/// Panics if `patterns` is empty or `s == 0`.
pub fn shared_patterns(patterns: &[KmeansPattern], s: usize, seed: u64) -> Vec<KmeansPattern> {
    assert!(!patterns.is_empty(), "no patterns to cluster");
    assert!(s > 0, "need at least one shared pattern");
    let points: Vec<Vec<f32>> = patterns.iter().map(|p| p.centroids.to_vec()).collect();
    let fit = fit_vectors(&points, &KmeansConfig::with_k(s).seeded(seed));
    fit.centroids
        .into_iter()
        .map(|mut c| {
            // Numerical noise can break ties; enforce sortedness.
            c.sort_by(f32::total_cmp);
            let mut arr = [0f32; NUM_CENTROIDS];
            arr.copy_from_slice(&c);
            KmeansPattern { centroids: arr }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_group_produces_sorted_centroids() {
        let vals: Vec<f32> = (0..127).map(|i| (i as f32 / 63.5) - 1.0).collect();
        let p = KmeansPattern::from_group(&vals, None, 7);
        assert!(p.centroids().windows(2).all(|w| w[0] <= w[1]));
        assert!(p.min() >= -1.0 && p.max() <= 1.0);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn new_rejects_unsorted() {
        let mut c = [0f32; NUM_CENTROIDS];
        c[0] = 1.0;
        c[1] = -1.0;
        KmeansPattern::new(c);
    }

    #[test]
    fn zero_symbol_is_closest_to_zero() {
        let vals: Vec<f32> = (0..127).map(|i| (i as f32 / 63.5) - 1.0).collect();
        let p = KmeansPattern::from_group(&vals, None, 7);
        let z = p.zero_symbol() as usize;
        for (i, &c) in p.centroids().iter().enumerate() {
            assert!(c.abs() >= p.centroids()[z].abs() - 1e-9, "centroid {i}");
        }
    }

    #[test]
    fn shared_pattern_count() {
        let groups: Vec<KmeansPattern> = (0..40)
            .map(|g| {
                let vals: Vec<f32> = (0..127)
                    .map(|i| ((i + g * 13) as f32 / 63.5 - 1.0).sin())
                    .collect();
                KmeansPattern::from_group(&vals, None, g as u64)
            })
            .collect();
        let shared = shared_patterns(&groups, 8, 0);
        assert_eq!(shared.len(), 8);
        for p in &shared {
            assert!(p.centroids().windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn minmax_fitness_prefers_matching_range() {
        let narrow = KmeansPattern::new(core::array::from_fn(|i| (i as f32 - 7.0) / 70.0));
        let wide = KmeansPattern::new(core::array::from_fn(|i| (i as f32 - 7.0) / 7.0));
        // A group spanning (-0.1, 0.1) matches the narrow pattern.
        assert!(narrow.minmax_fitness(-0.1, 0.1) < wide.minmax_fitness(-0.1, 0.1));
        // A group spanning (-1, 1) matches the wide pattern.
        assert!(wide.minmax_fitness(-1.0, 1.0) < narrow.minmax_fitness(-1.0, 1.0));
    }

    #[test]
    fn boundaries_pin_ties_duplicates_and_nan() {
        // Duplicate centroids (surplus k-means clusters) collapse to the
        // lowest symbol; exact-midpoint probes take the lower symbol; NaN
        // maps to symbol 0. Pattern and boundary table must agree.
        let mut c = [0f32; NUM_CENTROIDS];
        for (i, x) in c.iter_mut().enumerate() {
            *x = match i {
                0..=2 => -0.5, // triple duplicate
                14 => 0.75,
                _ => (i as f32 - 7.0) / 10.0,
            };
        }
        let p = KmeansPattern::new(c);
        let b = p.boundaries();
        assert_eq!(p.nearest(-0.5), 0, "duplicate centroids pick the lowest");
        assert_eq!(b.nearest(-0.5), 0);
        let mid = (c[6] + c[7]) * 0.5;
        assert_eq!(p.nearest(mid), 6, "exact midpoint ties low");
        assert_eq!(b.nearest(mid), 6);
        assert_eq!(p.nearest(f32::NAN), 0);
        assert_eq!(b.nearest(f32::NAN), 0);
        // Clipped values outside [min, max] land on the edge symbols.
        assert_eq!(b.nearest(-7.0), 0);
        assert_eq!(b.nearest(7.0), (NUM_CENTROIDS - 1) as u16);
    }

    proptest! {
        #[test]
        fn boundary_table_matches_pattern_nearest(
            vals in prop::collection::vec(-1.0f32..1.0, 127),
            probes in prop::collection::vec(-1.5f32..1.5, 32),
        ) {
            let p = KmeansPattern::from_group(&vals, None, 9);
            let b = p.boundaries();
            prop_assert!(b.midpoints().windows(2).all(|w| w[0] <= w[1]));
            for &x in &probes {
                prop_assert_eq!(b.nearest(x), p.nearest(x));
            }
        }

        #[test]
        fn nearest_is_argmin(vals in prop::collection::vec(-1.0f32..1.0, 127), x in -1.2f32..1.2) {
            let p = KmeansPattern::from_group(&vals, None, 3);
            let sym = p.nearest(x) as usize;
            let d = (p.centroids()[sym] - x).abs();
            for &c in p.centroids() {
                prop_assert!(d <= (c - x).abs() + 1e-6);
            }
        }

        #[test]
        fn sq_error_nonnegative_and_bounded(vals in prop::collection::vec(-1.0f32..1.0, 16..127)) {
            let p = KmeansPattern::from_group(&vals, None, 3);
            let e = p.sq_error(&vals);
            prop_assert!(e >= 0.0);
            // Each value is within 2.0 of some centroid (both in (-1,1)).
            prop_assert!(e <= vals.len() as f64 * 4.0);
        }
    }
}
