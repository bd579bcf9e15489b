//! Power-of-two scale factors.
//!
//! Ecco constrains the per-tensor FP16→FP8 scale to a power of two so that
//! the decompressor can undo it with an exponent adder instead of a
//! multiplier (Section 4.2 of the paper). [`Po2Scale`] captures that
//! constraint in the type system.

use std::fmt;

/// A power-of-two scale factor `2^exp`.
///
/// `compress(x) = x / 2^exp` maps tensor-range values into FP8 range;
/// `expand(x) = x * 2^exp` restores them. Both are exact for binary floats
/// within range, mirroring the hardware `Exp Adder`.
///
/// # Examples
///
/// ```
/// use ecco_numerics::{F8E4M3, Po2Scale};
///
/// let s = Po2Scale::for_absmax(1000.0, F8E4M3::MAX_FINITE);
/// assert!(s.compress(1000.0) <= F8E4M3::MAX_FINITE);
/// assert_eq!(s.expand(s.compress(1000.0)), 1000.0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Po2Scale {
    exp: i8,
}

impl Po2Scale {
    /// The identity scale, `2^0`.
    pub const IDENTITY: Po2Scale = Po2Scale { exp: 0 };

    /// Creates a scale `2^exp`.
    pub const fn new(exp: i8) -> Po2Scale {
        Po2Scale { exp }
    }

    /// Returns the exponent `e` of the `2^e` scale.
    pub const fn exp(self) -> i8 {
        self.exp
    }

    /// Returns the scale as an `f32` multiplier.
    pub fn factor(self) -> f32 {
        (self.exp as f64).exp2() as f32
    }

    /// Picks the smallest power-of-two scale such that `absmax / 2^exp`
    /// does not exceed `target_max` (e.g. the FP8 E4M3 finite range).
    ///
    /// Zero or non-finite `absmax` yields the identity scale.
    pub fn for_absmax(absmax: f32, target_max: f32) -> Po2Scale {
        assert!(target_max > 0.0, "target_max must be positive");
        if !absmax.is_finite() || absmax <= 0.0 {
            return Po2Scale::IDENTITY;
        }
        let ratio = (absmax / target_max) as f64;
        let exp = ratio.log2().ceil() as i32;
        // A tiny epsilon above a power of two must still round up.
        let exp = if (exp as f64).exp2() * target_max as f64 >= absmax as f64 {
            exp
        } else {
            exp + 1
        };
        Po2Scale {
            exp: exp.clamp(i8::MIN as i32, i8::MAX as i32) as i8,
        }
    }

    /// Divides by the scale: maps tensor range into the scaled (FP8) range.
    #[inline]
    pub fn compress(self, x: f32) -> f32 {
        x * (-(self.exp as f64)).exp2() as f32
    }

    /// Multiplies by the scale: restores the original range.
    #[inline]
    pub fn expand(self, x: f32) -> f32 {
        x * (self.exp as f64).exp2() as f32
    }
}

impl fmt::Display for Po2Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "2^{}", self.exp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::F8E4M3;
    use proptest::prelude::*;

    #[test]
    fn identity_for_degenerate_input() {
        assert_eq!(Po2Scale::for_absmax(0.0, 448.0), Po2Scale::IDENTITY);
        assert_eq!(Po2Scale::for_absmax(f32::NAN, 448.0), Po2Scale::IDENTITY);
        assert_eq!(Po2Scale::for_absmax(-1.0, 448.0), Po2Scale::IDENTITY);
    }

    #[test]
    fn exact_power_boundary() {
        // absmax exactly target_max: exponent 0 suffices.
        let s = Po2Scale::for_absmax(448.0, 448.0);
        assert_eq!(s.exp(), 0);
        // Slightly above: must bump to 1.
        let s = Po2Scale::for_absmax(448.1, 448.0);
        assert_eq!(s.exp(), 1);
    }

    #[test]
    fn compress_expand_are_inverse() {
        let s = Po2Scale::new(5);
        assert_eq!(s.expand(s.compress(1234.5)), 1234.5);
        let s = Po2Scale::new(-7);
        assert_eq!(s.expand(s.compress(0.0123)), 0.0123);
    }

    proptest! {
        #[test]
        fn scaled_absmax_fits_target(absmax in 1e-6f32..1e30) {
            let s = Po2Scale::for_absmax(absmax, F8E4M3::MAX_FINITE);
            prop_assert!(s.compress(absmax) <= F8E4M3::MAX_FINITE * (1.0 + 1e-6));
        }

        #[test]
        fn scale_is_minimal(absmax in 1e-3f32..1e6) {
            let s = Po2Scale::for_absmax(absmax, F8E4M3::MAX_FINITE);
            if s.exp() > i8::MIN {
                let smaller = Po2Scale::new(s.exp() - 1);
                prop_assert!(
                    smaller.compress(absmax) > F8E4M3::MAX_FINITE,
                    "exp {} not minimal for {}", s.exp(), absmax
                );
            }
        }
    }
}
