//! Weighted k-means clustering for the Ecco compression pipeline.
//!
//! The paper uses k-means three times (Figure 4):
//!
//! 1. **per-group** activation-aware 1-D k-means with 15 clusters over the
//!    127 non-absmax values of each group (step 3),
//! 2. **pattern sharing**: vector k-means with `S` clusters over all group
//!    patterns, producing the shared k-means patterns (step 4),
//! 3. **codebook sharing**: vector k-means with `H` clusters over symbol
//!    frequency histograms, producing representative distributions that are
//!    turned into Huffman codebooks (step 6).
//!
//! [`fit_scalar`] covers (1) and [`fit_vectors`] covers (2) and (3). Both
//! are deterministic given a seed (k-means++ initialization over a seeded
//! [`rand::rngs::StdRng`]), which keeps every experiment reproducible.
//!
//! Calibration runs thousands of *independent* per-group fits, so the hot
//! entry point is [`fit_scalar_batch`]: it shards a slice of
//! [`ScalarJob`]s across the current [`ecco_pool::Pool`] and collects
//! results in job order.
//! Each job carries its own seed and re-seeds its own RNG, so the batch is
//! bit-identical to running `jobs[i].fit(cfg)` in a sequential loop — the
//! determinism guarantee `ecco-core`'s parallel calibration is built on.
//!
//! # Examples
//!
//! ```
//! use ecco_kmeans::{fit_scalar, KmeansConfig};
//!
//! let points: Vec<f32> = (0..100).map(|i| if i < 50 { 0.1 } else { 0.9 }).collect();
//! let fit = fit_scalar(&points, None, &KmeansConfig::with_k(2));
//! assert_eq!(fit.centroids.len(), 2);
//! assert!(fit.centroids[0] < 0.2 && fit.centroids[1] > 0.8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration shared by the scalar and vector fitters.
#[derive(Clone, Debug, PartialEq)]
pub struct KmeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Relative inertia improvement below which iteration stops.
    pub tol: f64,
    /// RNG seed for k-means++ initialization.
    pub seed: u64,
}

impl KmeansConfig {
    /// A sensible default configuration for `k` clusters.
    pub fn with_k(k: usize) -> KmeansConfig {
        KmeansConfig {
            k,
            max_iters: 30,
            tol: 1e-6,
            seed: 0x0ECC0,
        }
    }

    /// Returns a copy with a different seed.
    pub fn seeded(mut self, seed: u64) -> KmeansConfig {
        self.seed = seed;
        self
    }
}

/// Result of a 1-D fit: centroids are **sorted ascending**.
#[derive(Clone, Debug, PartialEq)]
pub struct ScalarFit {
    /// Sorted cluster centres.
    pub centroids: Vec<f32>,
    /// Weighted sum of squared distances to assigned centroids.
    pub inertia: f64,
}

/// Result of a vector fit.
#[derive(Clone, Debug, PartialEq)]
pub struct VectorFit {
    /// Cluster centres (unordered).
    pub centroids: Vec<Vec<f32>>,
    /// Cluster index for every input point.
    pub assignments: Vec<usize>,
    /// Sum of squared distances to assigned centroids.
    pub inertia: f64,
}

/// Weighted 1-D k-means (Lloyd) with k-means++ initialization.
///
/// `weights` biases both initialization and centroid updates — the paper's
/// "activation-aware" clustering weights weight values by the activation
/// magnitude they multiply. `None` means uniform weights.
///
/// The returned centroids are sorted ascending and always contain exactly
/// `cfg.k` entries; when the input has fewer distinct values than `k`,
/// surplus centroids duplicate existing ones (harmless for quantization).
///
/// # Panics
///
/// Panics if `points` is empty, `cfg.k == 0`, or `weights` has mismatched
/// length or negative entries.
pub fn fit_scalar(points: &[f32], weights: Option<&[f32]>, cfg: &KmeansConfig) -> ScalarFit {
    assert!(!points.is_empty(), "cannot cluster zero points");
    assert!(cfg.k > 0, "need at least one cluster");
    if let Some(w) = weights {
        assert_eq!(w.len(), points.len(), "weights length mismatch");
        assert!(w.iter().all(|&x| x >= 0.0), "weights must be non-negative");
    }
    let uniform = vec![1.0f32; points.len()];
    let w = weights.unwrap_or(&uniform);

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut centroids = plus_plus_init_scalar(points, w, cfg.k, &mut rng);
    centroids.sort_by(f32::total_cmp);

    let mut assignments = vec![0usize; points.len()];
    let mut last_inertia = f64::INFINITY;
    for _ in 0..cfg.max_iters {
        // Assignment against sorted centroids via midpoint search.
        for (i, &p) in points.iter().enumerate() {
            assignments[i] = nearest_sorted(&centroids, p);
        }
        // Weighted centroid update.
        let mut sums = vec![0f64; cfg.k];
        let mut wsum = vec![0f64; cfg.k];
        for (i, &p) in points.iter().enumerate() {
            sums[assignments[i]] += p as f64 * w[i] as f64;
            wsum[assignments[i]] += w[i] as f64;
        }
        for c in 0..cfg.k {
            if wsum[c] > 0.0 {
                centroids[c] = (sums[c] / wsum[c]) as f32;
            } else {
                // Empty cluster: re-seed at the point with the largest error.
                centroids[c] = farthest_point_scalar(points, &centroids);
            }
        }
        centroids.sort_by(f32::total_cmp);
        let inertia = scalar_inertia(points, w, &centroids);
        let converged =
            last_inertia.is_finite() && last_inertia - inertia <= cfg.tol * last_inertia.abs();
        last_inertia = inertia;
        if converged {
            break;
        }
    }
    ScalarFit {
        inertia: scalar_inertia(points, w, &centroids),
        centroids,
    }
}

/// One independent scalar fit in a [`fit_scalar_batch`] call: the points
/// to cluster, optional per-point weights, and the per-job RNG seed
/// (Ecco derives it from the calibration seed and the group index).
#[derive(Clone, Copy, Debug)]
pub struct ScalarJob<'a> {
    /// Points to cluster.
    pub points: &'a [f32],
    /// Optional non-negative per-point weights (`None` = uniform).
    pub weights: Option<&'a [f32]>,
    /// Seed for this job's k-means++ initialization.
    pub seed: u64,
}

impl ScalarJob<'_> {
    /// Runs this job alone — the sequential unit [`fit_scalar_batch`]
    /// shards across the pool.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`fit_scalar`].
    pub fn fit(&self, cfg: &KmeansConfig) -> ScalarFit {
        fit_scalar(self.points, self.weights, &cfg.clone().seeded(self.seed))
    }
}

/// Fits every job across the current [`ecco_pool::Pool`], preserving job
/// order.
///
/// The result at index `i` is **bit-identical** to `jobs[i].fit(cfg)`:
/// every job re-seeds its own RNG from `ScalarJob::seed`, so no state
/// crosses job boundaries and sharding cannot change any result. This is
/// the primitive behind `ecco-core`'s parallel calibration (paper step 3:
/// one 15-cluster fit per sampled group).
///
/// # Panics
///
/// Panics if any job violates the [`fit_scalar`] preconditions.
pub fn fit_scalar_batch(jobs: &[ScalarJob<'_>], cfg: &KmeansConfig) -> Vec<ScalarFit> {
    let pool = ecco_pool::Pool::current();
    pool.run_map(jobs.len(), pool.chunk_for(jobs.len()), |lo, hi| {
        jobs[lo..hi]
            .iter()
            .map(|job| job.fit(cfg))
            .collect::<Vec<_>>()
    })
    .unwrap_or_else(|p| p.resume())
    .into_iter()
    .flatten()
    .collect()
}

/// Fills `out` with the decision boundaries of a **sorted** centroid
/// slice: `out[j] = (centroids[j] + centroids[j+1]) * 0.5`.
///
/// Because the centroids are sorted, the midpoints are non-decreasing, so
/// the boundary table can be consumed by a monotone merge (see
/// [`nearest_by_midpoints`]). Every nearest-centroid primitive in the
/// workspace computes midpoints with this exact expression — the codec's
/// boundary tables, [`nearest_sorted`] and the encoder's fused sweep must
/// agree bit-for-bit on where each boundary sits.
///
/// # Panics
///
/// Panics if `out.len() + 1 != centroids.len()`.
#[inline]
pub fn fill_midpoints(centroids: &[f32], out: &mut [f32]) {
    assert_eq!(
        out.len() + 1,
        centroids.len(),
        "need one midpoint per centroid gap"
    );
    for (o, w) in out.iter_mut().zip(centroids.windows(2)) {
        *o = (w[0] + w[1]) * 0.5;
    }
}

/// Index of the nearest centroid given its precomputed (non-decreasing)
/// midpoint boundaries: the count of midpoints strictly below `x`.
///
/// This is the branch-free form of [`nearest_sorted`] — same boundary
/// rule, but over a table built once with [`fill_midpoints`] instead of
/// midpoints recomputed per probe. The two agree for every non-NaN `x`;
/// NaN probes return 0 in both.
#[inline]
pub fn nearest_by_midpoints(mids: &[f32], x: f32) -> usize {
    // `mids` is non-decreasing, so `x > m` holds on a prefix and the sum
    // equals the boundary-crossing count; summing all entries keeps the
    // loop branch-free.
    mids.iter().map(|&m| usize::from(x > m)).sum()
}

/// Index of the nearest centroid in a **sorted** centroid slice, by the
/// pinned midpoint-boundary rule: `x` maps to centroid `i` where `i` is
/// the number of midpoints `(c[j] + c[j+1]) * 0.5` strictly below `x`.
///
/// The rule makes every corner case deterministic (regression-pinned in
/// this crate's tests):
///
/// * a probe **exactly on a midpoint** resolves to the *lower* centroid,
/// * **duplicate centroids** (k-means pads surplus clusters by
///   duplication): a probe at or below the duplicated value resolves to
///   the *lowest* index among them; a probe strictly above crosses every
///   degenerate midpoint and resolves to the *highest* — the centroid
///   value is identical either way,
/// * a **NaN** probe compares false against every midpoint and maps to
///   centroid 0.
///
/// This is the software equivalent of the decoder's value-mapper and the
/// scalar reference for the codec's precomputed boundary tables.
///
/// # Panics
///
/// Panics (in debug builds) if `centroids` is empty.
#[inline]
pub fn nearest_sorted(centroids: &[f32], x: f32) -> usize {
    debug_assert!(!centroids.is_empty());
    let mut i = 0usize;
    for w in centroids.windows(2) {
        if x > (w[0] + w[1]) * 0.5 {
            i += 1;
        } else {
            // Midpoints of a sorted slice are non-decreasing: once one is
            // >= x, all later ones are too.
            break;
        }
    }
    i
}

fn scalar_inertia(points: &[f32], w: &[f32], centroids: &[f32]) -> f64 {
    points
        .iter()
        .zip(w)
        .map(|(&p, &wi)| {
            let c = centroids[nearest_sorted(centroids, p)];
            let d = (p - c) as f64;
            d * d * wi as f64
        })
        .sum()
}

fn farthest_point_scalar(points: &[f32], centroids: &[f32]) -> f32 {
    let mut best = points[0];
    let mut best_d = -1.0f64;
    for &p in points {
        let c = centroids[nearest_sorted(centroids, p)];
        let d = ((p - c) as f64).powi(2);
        if d > best_d {
            best_d = d;
            best = p;
        }
    }
    best
}

fn plus_plus_init_scalar(points: &[f32], w: &[f32], k: usize, rng: &mut StdRng) -> Vec<f32> {
    let mut centroids = Vec::with_capacity(k);
    let total_w: f64 = w.iter().map(|&x| x as f64).sum();
    let first = if total_w > 0.0 {
        weighted_pick(w, total_w, rng)
    } else {
        0
    };
    centroids.push(points[first]);
    let mut d2: Vec<f64> = points
        .iter()
        .map(|&p| ((p - centroids[0]) as f64).powi(2))
        .collect();
    while centroids.len() < k {
        let scores: Vec<f64> = d2.iter().zip(w).map(|(&d, &wi)| d * wi as f64).collect();
        let total: f64 = scores.iter().sum();
        let idx = if total > 0.0 {
            weighted_pick_f64(&scores, total, rng)
        } else {
            rng.gen_range(0..points.len())
        };
        let c = points[idx];
        centroids.push(c);
        for (i, &p) in points.iter().enumerate() {
            let d = ((p - c) as f64).powi(2);
            if d < d2[i] {
                d2[i] = d;
            }
        }
    }
    centroids
}

fn weighted_pick(w: &[f32], total: f64, rng: &mut StdRng) -> usize {
    let mut t = rng.gen_range(0.0..total);
    for (i, &wi) in w.iter().enumerate() {
        t -= wi as f64;
        if t <= 0.0 {
            return i;
        }
    }
    w.len() - 1
}

fn weighted_pick_f64(w: &[f64], total: f64, rng: &mut StdRng) -> usize {
    let mut t = rng.gen_range(0.0..total);
    for (i, &wi) in w.iter().enumerate() {
        t -= wi;
        if t <= 0.0 {
            return i;
        }
    }
    w.len() - 1
}

/// Euclidean k-means over fixed-dimension vectors with k-means++ init.
///
/// Used for shared-pattern clustering (15-dim patterns → `S` clusters) and
/// Huffman-codebook clustering (16-dim frequency histograms → `H`
/// clusters).
///
/// # Panics
///
/// Panics if `points` is empty, dimensions are inconsistent, or
/// `cfg.k == 0`.
pub fn fit_vectors(points: &[Vec<f32>], cfg: &KmeansConfig) -> VectorFit {
    assert!(!points.is_empty(), "cannot cluster zero points");
    assert!(cfg.k > 0, "need at least one cluster");
    let dim = points[0].len();
    assert!(
        points.iter().all(|p| p.len() == dim),
        "inconsistent dimensions"
    );

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut centroids = plus_plus_init_vec(points, cfg.k, &mut rng);
    let mut assignments = vec![0usize; points.len()];
    let mut last_inertia = f64::INFINITY;

    for _ in 0..cfg.max_iters {
        for (i, p) in points.iter().enumerate() {
            assignments[i] = nearest_vec(&centroids, p).0;
        }
        let mut sums = vec![vec![0f64; dim]; cfg.k];
        let mut counts = vec![0usize; cfg.k];
        for (i, p) in points.iter().enumerate() {
            counts[assignments[i]] += 1;
            for (s, &v) in sums[assignments[i]].iter_mut().zip(p) {
                *s += v as f64;
            }
        }
        for c in 0..cfg.k {
            if counts[c] > 0 {
                for (d, s) in centroids[c].iter_mut().zip(&sums[c]) {
                    *d = (*s / counts[c] as f64) as f32;
                }
            } else {
                // Re-seed an empty cluster at the worst-served point.
                let far = points
                    .iter()
                    .max_by(|a, b| {
                        nearest_vec(&centroids, a)
                            .1
                            .total_cmp(&nearest_vec(&centroids, b).1)
                    })
                    .expect("non-empty");
                centroids[c] = far.clone();
            }
        }
        let inertia: f64 = points.iter().map(|p| nearest_vec(&centroids, p).1).sum();
        let converged =
            last_inertia.is_finite() && last_inertia - inertia <= cfg.tol * last_inertia.abs();
        last_inertia = inertia;
        if converged {
            break;
        }
    }

    for (i, p) in points.iter().enumerate() {
        assignments[i] = nearest_vec(&centroids, p).0;
    }
    let inertia: f64 = points.iter().map(|p| nearest_vec(&centroids, p).1).sum();
    VectorFit {
        centroids,
        assignments,
        inertia,
    }
}

/// Returns `(index, squared_distance)` of the nearest centroid to `p`.
fn nearest_vec(centroids: &[Vec<f32>], p: &[f32]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (i, c) in centroids.iter().enumerate() {
        let d: f64 = c
            .iter()
            .zip(p)
            .map(|(&a, &b)| ((a - b) as f64).powi(2))
            .sum();
        if d < best.1 {
            best = (i, d);
        }
    }
    best
}

fn plus_plus_init_vec(points: &[Vec<f32>], k: usize, rng: &mut StdRng) -> Vec<Vec<f32>> {
    let mut centroids = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..points.len())].clone());
    let mut d2: Vec<f64> = points
        .iter()
        .map(|p| nearest_vec(&centroids, p).1)
        .collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let idx = if total > 0.0 {
            weighted_pick_f64(&d2, total, rng)
        } else {
            rng.gen_range(0..points.len())
        };
        centroids.push(points[idx].clone());
        for (i, p) in points.iter().enumerate() {
            let d = nearest_vec(&centroids[centroids.len() - 1..], p).1;
            if d < d2[i] {
                d2[i] = d;
            }
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn two_well_separated_clusters() {
        let mut pts = vec![0.0f32; 40];
        pts.extend(vec![10.0f32; 60]);
        let fit = fit_scalar(&pts, None, &KmeansConfig::with_k(2));
        assert!((fit.centroids[0] - 0.0).abs() < 1e-4);
        assert!((fit.centroids[1] - 10.0).abs() < 1e-4);
        assert!(fit.inertia < 1e-6);
    }

    #[test]
    fn weights_pull_centroids() {
        // Two points; weight one of them 99x: the single centroid must land
        // at the weighted mean.
        let pts = [0.0f32, 1.0];
        let w = [99.0f32, 1.0];
        let fit = fit_scalar(&pts, Some(&w), &KmeansConfig::with_k(1));
        assert!(
            (fit.centroids[0] - 0.01).abs() < 1e-4,
            "{:?}",
            fit.centroids
        );
    }

    #[test]
    fn k_larger_than_unique_points_is_safe() {
        let pts = [1.0f32, 1.0, 1.0];
        let fit = fit_scalar(&pts, None, &KmeansConfig::with_k(15));
        assert_eq!(fit.centroids.len(), 15);
        assert!(fit.inertia < 1e-9);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let pts: Vec<f32> = (0..127).map(|i| ((i * 37) % 101) as f32 / 101.0).collect();
        let a = fit_scalar(&pts, None, &KmeansConfig::with_k(15));
        let b = fit_scalar(&pts, None, &KmeansConfig::with_k(15));
        assert_eq!(a, b);
    }

    #[test]
    fn batch_fit_bit_identical_to_sequential() {
        let groups: Vec<Vec<f32>> = (0..48)
            .map(|g| {
                (0..127)
                    .map(|i| (((i * 31 + g * 7) % 113) as f32 / 56.5) - 1.0)
                    .collect()
            })
            .collect();
        let weights: Vec<Vec<f32>> = groups
            .iter()
            .map(|g| g.iter().map(|v| v * v + 0.1).collect())
            .collect();
        let cfg = KmeansConfig::with_k(15);
        let jobs: Vec<ScalarJob<'_>> = groups
            .iter()
            .zip(&weights)
            .enumerate()
            .map(|(i, (g, w))| ScalarJob {
                points: g,
                weights: if i % 2 == 0 { Some(w) } else { None },
                seed: 0xECC0 + i as u64,
            })
            .collect();
        let batch = fit_scalar_batch(&jobs, &cfg);
        for (job, fit) in jobs.iter().zip(&batch) {
            assert_eq!(fit, &job.fit(&cfg), "batch result diverged from solo fit");
        }
    }

    #[test]
    fn nearest_sorted_picks_closest() {
        let cs = [-1.0f32, 0.0, 0.5, 2.0];
        assert_eq!(nearest_sorted(&cs, -5.0), 0);
        assert_eq!(nearest_sorted(&cs, 5.0), 3);
        assert_eq!(nearest_sorted(&cs, 0.2), 1);
        assert_eq!(nearest_sorted(&cs, 0.3), 2);
        // Exact midpoint ties to the lower centroid.
        assert_eq!(nearest_sorted(&cs, 0.25), 1);
        assert_eq!(nearest_sorted(&cs, 0.5), 2);
    }

    #[test]
    fn nearest_sorted_pins_ties_duplicates_and_nan() {
        // Exact-midpoint ties resolve to the LOWER centroid — this is the
        // boundary rule the codec's fused encoder sweep relies on.
        let cs = [-1.0f32, 0.0, 1.0];
        assert_eq!(nearest_sorted(&cs, -0.5), 0);
        assert_eq!(nearest_sorted(&cs, 0.5), 1);
        // Duplicate centroids (k-means pads surplus clusters this way):
        // an exact hit — or anything at/below them — resolves to the
        // LOWEST index among the duplicates; a value strictly above them
        // crosses every degenerate midpoint and resolves to the HIGHEST.
        // The reconstructed centroid value is identical either way.
        let dup = [0.25f32, 0.25, 0.25, 0.75];
        assert_eq!(nearest_sorted(&dup, 0.25), 0);
        assert_eq!(nearest_sorted(&dup, 0.2), 0);
        assert_eq!(nearest_sorted(&dup, 0.3), 2);
        assert_eq!(nearest_sorted(&dup, 0.6), 3);
        let all_same = [0.5f32; 15];
        assert_eq!(nearest_sorted(&all_same, 0.5), 0);
        assert_eq!(nearest_sorted(&all_same, 9.0), 14);
        assert_eq!(nearest_sorted(&all_same, -9.0), 0);
        // NaN probes compare false against every midpoint: symbol 0.
        assert_eq!(nearest_sorted(&cs, f32::NAN), 0);
        assert_eq!(nearest_by_midpoints(&[-0.5, 0.5], f32::NAN), 0);
    }

    #[test]
    fn midpoint_table_matches_scalar_rule() {
        let cs: Vec<f32> = (0..15).map(|i| ((i as f32) / 7.0 - 1.0).powi(3)).collect();
        let mut mids = vec![0f32; 14];
        fill_midpoints(&cs, &mut mids);
        assert!(mids.windows(2).all(|w| w[0] <= w[1]), "mids non-decreasing");
        for i in -30..=30 {
            let x = i as f32 * 0.05;
            assert_eq!(nearest_by_midpoints(&mids, x), nearest_sorted(&cs, x));
        }
        // Probes sitting exactly on each boundary tie to the lower side.
        for (j, &m) in mids.iter().enumerate() {
            let i = nearest_by_midpoints(&mids, m);
            assert_eq!(i, nearest_sorted(&cs, m));
            assert!(i <= j, "midpoint {j} resolved upward to {i}");
        }
    }

    #[test]
    fn vector_clusters_separate() {
        let mut pts: Vec<Vec<f32>> = Vec::new();
        for i in 0..30 {
            let v = i as f32 * 1e-3;
            pts.push(vec![v, v, 1.0]);
            pts.push(vec![1.0 + v, 1.0 + v, -1.0]);
        }
        let fit = fit_vectors(&pts, &KmeansConfig::with_k(2));
        assert_eq!(fit.centroids.len(), 2);
        // Every pair drawn from the same generator half must co-cluster.
        for i in (0..pts.len()).step_by(2) {
            assert_eq!(fit.assignments[i], fit.assignments[0]);
            assert_eq!(fit.assignments[i + 1], fit.assignments[1]);
        }
        assert_ne!(fit.assignments[0], fit.assignments[1]);
    }

    #[test]
    fn fifteen_clusters_over_group_sized_input() {
        // The exact shape used by the codec: 127 values, 15 clusters.
        let pts: Vec<f32> = (0..127)
            .map(|i| ((i as f32 / 127.0) * 2.0 - 1.0).powi(3))
            .collect();
        let fit = fit_scalar(&pts, None, &KmeansConfig::with_k(15));
        assert_eq!(fit.centroids.len(), 15);
        let mut sorted = fit.centroids.clone();
        sorted.sort_by(f32::total_cmp);
        assert_eq!(fit.centroids, sorted, "centroids must be sorted");
        // Quantization through these centroids must beat uniform 15-level.
        let step = 2.0 / 14.0;
        let uniform: Vec<f32> = (0..15).map(|i| -1.0 + i as f32 * step).collect();
        let km_err: f64 = pts
            .iter()
            .map(|&p| ((p - fit.centroids[nearest_sorted(&fit.centroids, p)]) as f64).powi(2))
            .sum();
        let un_err: f64 = pts
            .iter()
            .map(|&p| ((p - uniform[nearest_sorted(&uniform, p)]) as f64).powi(2))
            .sum();
        assert!(
            km_err <= un_err,
            "k-means ({km_err:.6}) must not lose to uniform ({un_err:.6})"
        );
    }

    proptest! {
        #[test]
        fn centroids_within_data_range(
            pts in prop::collection::vec(-1.0f32..1.0, 8..200),
            k in 1usize..16,
        ) {
            let fit = fit_scalar(&pts, None, &KmeansConfig::with_k(k));
            let lo = pts.iter().cloned().fold(f32::INFINITY, f32::min);
            let hi = pts.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            prop_assert_eq!(fit.centroids.len(), k);
            for &c in &fit.centroids {
                prop_assert!(c >= lo - 1e-6 && c <= hi + 1e-6, "centroid {} outside [{}, {}]", c, lo, hi);
            }
        }

        #[test]
        fn more_clusters_never_hurt(pts in prop::collection::vec(-1.0f32..1.0, 32..128)) {
            let few = fit_scalar(&pts, None, &KmeansConfig::with_k(2));
            let many = fit_scalar(&pts, None, &KmeansConfig::with_k(8));
            // Lloyd is a local optimizer: allow a small slack factor.
            prop_assert!(many.inertia <= few.inertia * 1.05 + 1e-9);
        }

        #[test]
        fn assignments_are_nearest(pts in prop::collection::vec(
            prop::collection::vec(-1.0f32..1.0, 4), 4..64,
        )) {
            let fit = fit_vectors(&pts, &KmeansConfig::with_k(3));
            for (i, p) in pts.iter().enumerate() {
                let (best, _) = super::nearest_vec(&fit.centroids, p);
                prop_assert_eq!(fit.assignments[i], best);
            }
        }
    }
}
