//! Synthetic LLM tensor generation (substitution S1 in `DESIGN.md`).
//!
//! Real LLM tensors are not shipped with this reproduction; instead each
//! tensor kind is generated from a distribution family whose knobs map to
//! the statistics the Ecco codec is sensitive to:
//!
//! * **bulk shape / tails** — Student-t with `tail_df` degrees of freedom
//!   (∞ = Gaussian). Heavier tails → larger group absmax relative to the
//!   bulk → more skewed symbol histograms → shorter Huffman data → more
//!   outlier padding. This is what makes the K-cache pad ≈7% in Figure 10.
//! * **per-channel scale spread** — log-normal column scales, the reason
//!   finer-grained quantization wins in Figure 2.
//! * **outlier channels** — a small fraction of columns boosted by a large
//!   factor, the activation phenomenon SmoothQuant/AWQ are built around.
//!
//! All sampling is deterministic from [`SynthSpec::seed`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Tensor, TensorKind};

/// Distribution specification for one synthetic tensor.
#[derive(Clone, Debug, PartialEq)]
pub struct SynthSpec {
    /// Output rows (channels for weights, tokens for caches).
    pub rows: usize,
    /// Output columns.
    pub cols: usize,
    /// Tensor role (chooses the compression path downstream).
    pub kind: TensorKind,
    /// RNG seed; same spec + same seed = identical tensor.
    pub seed: u64,
    /// Bulk standard deviation before channel scaling.
    pub base_std: f32,
    /// Log-normal sigma of per-column scales (0 = all columns equal).
    pub channel_log_std: f32,
    /// Std of per-column mean offsets, relative to `base_std` (real LLM
    /// channels — especially K-cache channels under rotary embeddings —
    /// have strong structured means, which is what gives groups their
    /// diverse shapes and makes shared k-means patterns matter).
    pub col_mean_std: f32,
    /// Student-t degrees of freedom; `f32::INFINITY` for Gaussian bulk.
    pub tail_df: f32,
    /// Fraction of columns designated as outlier channels.
    pub outlier_channel_frac: f32,
    /// Multiplicative boost applied to outlier channels.
    pub outlier_channel_boost: f32,
    /// Probability that an individual element is an isolated outlier.
    pub elem_outlier_prob: f32,
    /// Multiplicative boost for isolated element outliers.
    pub elem_outlier_boost: f32,
}

impl SynthSpec {
    /// Preset distribution for a tensor kind, calibrated so the codec
    /// reproduces the paper's qualitative statistics (Figures 2 and 10).
    pub fn for_kind(kind: TensorKind, rows: usize, cols: usize) -> SynthSpec {
        let base = SynthSpec {
            rows,
            cols,
            kind,
            seed: 0xECC0,
            base_std: 0.02,
            channel_log_std: 0.3,
            col_mean_std: 0.0,
            tail_df: f32::INFINITY,
            outlier_channel_frac: 0.0,
            outlier_channel_boost: 1.0,
            elem_outlier_prob: 0.0,
            elem_outlier_boost: 1.0,
        };
        match kind {
            TensorKind::Weight => SynthSpec {
                base_std: 0.02,
                channel_log_std: 0.4,
                col_mean_std: 0.7,
                tail_df: 8.0,
                elem_outlier_prob: 2e-4,
                elem_outlier_boost: 6.0,
                ..base
            },
            TensorKind::Activation => SynthSpec {
                base_std: 0.5,
                channel_log_std: 0.8,
                col_mean_std: 0.5,
                tail_df: 6.0,
                outlier_channel_frac: 0.005,
                outlier_channel_boost: 15.0,
                ..base
            },
            TensorKind::KCache => SynthSpec {
                base_std: 0.3,
                channel_log_std: 1.5,
                col_mean_std: 0.2,
                tail_df: 1.6,
                elem_outlier_prob: 5e-2,
                elem_outlier_boost: 20.0,
                ..base
            },
            TensorKind::VCache => SynthSpec {
                base_std: 0.3,
                channel_log_std: 0.4,
                col_mean_std: 0.3,
                tail_df: 2.6,
                elem_outlier_prob: 5e-3,
                elem_outlier_boost: 6.0,
                ..base
            },
        }
    }

    /// Returns a copy with a different seed.
    pub fn seeded(mut self, seed: u64) -> SynthSpec {
        self.seed = seed;
        self
    }

    /// Samples the tensor. Values are rounded through binary16, because
    /// every tensor Ecco compresses lives in FP16 on the GPU.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn generate(&self) -> Tensor {
        assert!(
            self.rows > 0 && self.cols > 0,
            "dimensions must be positive"
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut sampler = TailSampler::new(self.tail_df);

        // Per-column scales and structured mean offsets.
        let mut col_scale: Vec<f32> = (0..self.cols)
            .map(|_| (self.channel_log_std as f64 * normal(&mut rng)).exp() as f32)
            .collect();
        let col_mean: Vec<f32> = (0..self.cols)
            .map(|_| (self.col_mean_std as f64 * normal(&mut rng)) as f32 * self.base_std)
            .collect();
        let n_outlier_cols = (self.outlier_channel_frac * self.cols as f32).round() as usize;
        for _ in 0..n_outlier_cols {
            let j = rng.gen_range(0..self.cols);
            col_scale[j] *= self.outlier_channel_boost;
        }

        let mut data = Vec::with_capacity(self.rows * self.cols);
        for _ in 0..self.rows {
            for (&scale, &mean) in col_scale.iter().zip(&col_mean) {
                let mut x = sampler.sample(&mut rng) as f32 * self.base_std * scale;
                if self.elem_outlier_prob > 0.0 && rng.gen::<f32>() < self.elem_outlier_prob {
                    x *= self.elem_outlier_boost * (1.0 + rng.gen::<f32>());
                }
                // Real tensors live in finite FP16; clamp the rare
                // extreme Student-t draw instead of producing infinities.
                let v = (x + mean).clamp(-60000.0, 60000.0);
                data.push(ecco_numerics::round_f16(v));
            }
        }
        Tensor::from_vec(self.rows, self.cols, data)
    }
}

/// Standard normal via Box-Muller (both branches used for efficiency).
fn normal(rng: &mut StdRng) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        let u2: f64 = rng.gen();
        if u1 > 1e-300 {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

/// Marsaglia–Tsang gamma sampler, used to build Student-t variates.
fn gamma(rng: &mut StdRng, shape: f64) -> f64 {
    if shape < 1.0 {
        let u: f64 = rng.gen::<f64>().max(1e-300);
        return gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen();
        if u < 1.0 - 0.0331 * x.powi(4) {
            return d * v;
        }
        if u.max(1e-300).ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

/// Samples unit-variance bulk values: Gaussian or Student-t normalized to
/// unit variance (for `df > 2`).
struct TailSampler {
    df: f64,
    /// Rescale so the t distribution has unit variance when df > 2.
    std_correction: f64,
}

impl TailSampler {
    fn new(df: f32) -> TailSampler {
        let df = df as f64;
        let std_correction = if df.is_finite() && df > 2.0 {
            (df / (df - 2.0)).sqrt()
        } else {
            1.0
        };
        TailSampler { df, std_correction }
    }

    fn sample(&mut self, rng: &mut StdRng) -> f64 {
        if !self.df.is_finite() {
            return normal(rng);
        }
        let z = normal(rng);
        let chi2 = 2.0 * gamma(rng, self.df / 2.0);
        let t = z / (chi2 / self.df).sqrt();
        t / self.std_correction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::excess_kurtosis;

    #[test]
    fn deterministic_generation() {
        let spec = SynthSpec::for_kind(TensorKind::Weight, 32, 128).seeded(99);
        assert_eq!(spec.generate().data(), spec.generate().data());
    }

    #[test]
    fn different_seeds_differ() {
        let a = SynthSpec::for_kind(TensorKind::Weight, 32, 128)
            .seeded(1)
            .generate();
        let b = SynthSpec::for_kind(TensorKind::Weight, 32, 128)
            .seeded(2)
            .generate();
        assert_ne!(a.data(), b.data());
    }

    #[test]
    fn values_are_f16_representable() {
        let t = SynthSpec::for_kind(TensorKind::Activation, 16, 256).generate();
        for &x in t.data() {
            assert_eq!(ecco_numerics::round_f16(x), x);
        }
    }

    #[test]
    fn kcache_has_heavier_tails_than_weights() {
        let w = SynthSpec {
            channel_log_std: 0.0,
            ..SynthSpec::for_kind(TensorKind::Weight, 64, 512)
        }
        .generate();
        let k = SynthSpec {
            channel_log_std: 0.0,
            ..SynthSpec::for_kind(TensorKind::KCache, 64, 512)
        }
        .generate();
        assert!(
            excess_kurtosis(&k) > excess_kurtosis(&w) + 1.0,
            "k-cache kurtosis {} vs weight {}",
            excess_kurtosis(&k),
            excess_kurtosis(&w)
        );
    }

    #[test]
    fn gaussian_bulk_statistics() {
        let spec = SynthSpec {
            rows: 128,
            cols: 512,
            kind: TensorKind::Weight,
            seed: 3,
            base_std: 1.0,
            channel_log_std: 0.0,
            col_mean_std: 0.0,
            tail_df: f32::INFINITY,
            outlier_channel_frac: 0.0,
            outlier_channel_boost: 1.0,
            elem_outlier_prob: 0.0,
            elem_outlier_boost: 1.0,
        };
        let t = spec.generate();
        let n = t.len() as f64;
        let mean: f64 = t.data().iter().map(|&x| x as f64).sum::<f64>() / n;
        let var: f64 = t
            .data()
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
        assert!(excess_kurtosis(&t).abs() < 0.3);
    }

    #[test]
    fn student_t_unit_variance_correction() {
        let spec = SynthSpec {
            rows: 256,
            cols: 512,
            kind: TensorKind::VCache,
            seed: 4,
            base_std: 1.0,
            channel_log_std: 0.0,
            col_mean_std: 0.0,
            tail_df: 8.0,
            outlier_channel_frac: 0.0,
            outlier_channel_boost: 1.0,
            elem_outlier_prob: 0.0,
            elem_outlier_boost: 1.0,
        };
        let t = spec.generate();
        let n = t.len() as f64;
        let var: f64 = t.data().iter().map(|&x| (x as f64).powi(2)).sum::<f64>() / n;
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
    }

    #[test]
    fn outlier_channels_inflate_column_absmax() {
        let spec = SynthSpec {
            outlier_channel_frac: 0.01,
            outlier_channel_boost: 50.0,
            ..SynthSpec::for_kind(TensorKind::Activation, 64, 1024)
        };
        let t = spec.generate();
        // Column absmax distribution must contain values ~boost above median.
        let mut col_max = vec![0.0f32; t.cols()];
        for r in 0..t.rows() {
            for (c, m) in col_max.iter_mut().enumerate() {
                *m = m.max(t.get(r, c).abs());
            }
        }
        let mut sorted = col_max.clone();
        sorted.sort_by(f32::total_cmp);
        let median = sorted[sorted.len() / 2];
        let max = sorted[sorted.len() - 1];
        assert!(max > median * 10.0, "max {max} median {median}");
    }
}
