//! Tensor containers and synthetic LLM tensor generation.
//!
//! The paper evaluates on real LLaMA/Mistral checkpoints; this reproduction
//! substitutes **statistically calibrated synthetic tensors** (substitution
//! S1 in `DESIGN.md`). Everything the Ecco codec reacts to — per-group
//! absmax spread, bulk shape, tail heaviness, outlier channels — is
//! controlled explicitly by [`synth::SynthSpec`], so each experiment can
//! state exactly what distribution it ran on and regenerate it from a seed.
//!
//! # Examples
//!
//! ```
//! use ecco_tensor::{synth::SynthSpec, TensorKind};
//!
//! let spec = SynthSpec::for_kind(TensorKind::Weight, 256, 512).seeded(7);
//! let t = spec.generate();
//! assert_eq!(t.len(), 256 * 512);
//! assert!(t.absmax() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod stats;
pub mod synth;

use std::fmt;

/// The paper's group size for weights and KV cache (128 values → one
/// 64-byte block at 4× compression).
pub const GROUP_SIZE: usize = 128;
/// The paper's group size for activations (64 values → one 64-byte block
/// at 2× compression).
pub const ACT_GROUP_SIZE: usize = 64;

/// What role a tensor plays in the model — selects both the synthetic
/// distribution and the compression path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TensorKind {
    /// Linear-layer weights (4× compression target).
    Weight,
    /// Layer activations (2× compression target).
    Activation,
    /// Attention key cache (4× target; heaviest tails in practice).
    KCache,
    /// Attention value cache (4× target).
    VCache,
}

impl fmt::Display for TensorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TensorKind::Weight => "weight",
            TensorKind::Activation => "activation",
            TensorKind::KCache => "k_cache",
            TensorKind::VCache => "v_cache",
        };
        f.write_str(s)
    }
}

/// A dense row-major 2-D tensor of `f32`.
///
/// Rows model output channels for weights and tokens for caches; the codec
/// flattens row-major and splits into fixed-size groups exactly as the
/// paper's step 1 reshape does.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero-filled tensor.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Tensor {
        assert!(rows > 0 && cols > 0, "tensor dimensions must be positive");
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Wraps existing row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Tensor {
        assert_eq!(data.len(), rows * cols, "data length must match shape");
        Tensor { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` for the (unconstructible) empty tensor, for API
    /// completeness.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrows row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element access.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Iterates over contiguous `group_size` chunks (the paper's groups).
    ///
    /// # Panics
    ///
    /// Panics if the element count is not a multiple of `group_size` —
    /// model dimensions in this repo are always multiples of 128.
    pub fn groups(&self, group_size: usize) -> impl Iterator<Item = &[f32]> {
        assert_eq!(
            self.data.len() % group_size,
            0,
            "tensor length {} not divisible by group size {group_size}",
            self.data.len()
        );
        self.data.chunks_exact(group_size)
    }

    /// Largest absolute value in the tensor (0 for all-zero tensors).
    pub fn absmax(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}x{})", self.rows, self.cols)
    }
}

/// Derives a deterministic seed from a model/layer/tensor naming triple so
/// every experiment regenerates identical data (FNV-1a over the strings).
///
/// # Examples
///
/// ```
/// let a = ecco_tensor::seed_for("llama2-7b", 3, "q_proj");
/// let b = ecco_tensor::seed_for("llama2-7b", 3, "q_proj");
/// let c = ecco_tensor::seed_for("llama2-7b", 4, "q_proj");
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// ```
pub fn seed_for(model: &str, layer: usize, tensor: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf29ce484222325;
    const FNV_PRIME: u64 = 0x100000001b3;
    let mut h = FNV_OFFSET;
    for b in model
        .bytes()
        .chain([b'/'])
        .chain(layer.to_le_bytes())
        .chain([b'/'])
        .chain(tensor.bytes())
    {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_accessors() {
        let t = Tensor::zeros(4, 8);
        assert_eq!((t.rows(), t.cols(), t.len()), (4, 8, 32));
        assert_eq!(t.row(3).len(), 8);
        assert_eq!(t.get(2, 5), 0.0);
    }

    #[test]
    fn groups_cover_all_elements() {
        let t = Tensor::from_vec(2, 128, (0..256).map(|i| i as f32).collect());
        let groups: Vec<_> = t.groups(GROUP_SIZE).collect();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0][0], 0.0);
        assert_eq!(groups[1][127], 255.0);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn groups_reject_ragged_shapes() {
        let t = Tensor::zeros(3, 100);
        let _ = t.groups(GROUP_SIZE).count();
    }

    #[test]
    fn absmax_and_map() {
        let t = Tensor::from_vec(1, 4, vec![1.0, -5.0, 2.0, 0.0]);
        assert_eq!(t.absmax(), 5.0);
        assert_eq!(t.map(|x| x * 2.0).absmax(), 10.0);
    }

    #[test]
    fn seed_is_sensitive_to_every_field() {
        let base = seed_for("m", 0, "t");
        assert_ne!(base, seed_for("m2", 0, "t"));
        assert_ne!(base, seed_for("m", 1, "t"));
        assert_ne!(base, seed_for("m", 0, "t2"));
    }
}
