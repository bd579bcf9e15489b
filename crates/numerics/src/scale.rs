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
    #[inline]
    pub fn factor(self) -> f32 {
        pow2(self.exp.into())
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
    ///
    /// It multiplies by `2^-exp` as an `f32`; at `exp = -128` that
    /// factor, `2^128`, is `+∞`.
    #[inline]
    pub fn compress(self, x: f32) -> f32 {
        x * pow2(-i32::from(self.exp))
    }

    /// Multiplies by the scale: restores the original range.
    #[inline]
    pub fn expand(self, x: f32) -> f32 {
        x * pow2(self.exp.into())
    }
}

/// `2^e` as an `f32`, assembled from its bit pattern: a biased exponent
/// for the normal powers, one mantissa bit for the subnormal ones
/// (`2^-149..2^-127`), `+∞` above `2^127` and zero below `2^-149` — the
/// value `(e as f64).exp2() as f32` rounds to.
#[inline]
fn pow2(e: i32) -> f32 {
    f32::from_bits(match e {
        128.. => 0x7F80_0000,
        -126..=127 => ((e + 127) as u32) << 23,
        -149..=-127 => 1 << (e + 149),
        _ => 0,
    })
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

    /// Today's formula for the `f32` factor `2^e`, the reference the
    /// bit-level [`pow2`] is pinned to.
    fn pow2_reference(e: f64) -> f32 {
        e.exp2() as f32
    }

    /// Inputs the scale is pinned on: ±0, subnormals, normals across the
    /// range, the extremes, ±∞ and NaNs of both signs and two payloads.
    const PROBES: [f32; 18] = [
        0.0,
        -0.0,
        f32::from_bits(1),
        -f32::MIN_POSITIVE / 4.0,
        f32::MIN_POSITIVE,
        1.0e-30,
        0.1,
        -1.0,
        1.5,
        -448.0,
        65504.0,
        3.0e30,
        f32::MAX,
        -f32::MAX,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::from_bits(0xFF80_0001),
    ];

    #[test]
    fn pow2_matches_exp2_formula() {
        for e in -300..300 {
            assert_eq!(
                pow2(e).to_bits(),
                pow2_reference(e.into()).to_bits(),
                "2^{e}"
            );
        }
    }

    /// Bit for bit, except that any NaN matches any NaN: Rust leaves
    /// the sign and payload of a NaN that arithmetic produces
    /// unspecified (`0 × ∞` or a NaN input may give different NaN bits
    /// in two places of one build), so a product's NaN bits are no pin.
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    #[test]
    fn scale_matches_exp2_formula_on_every_exponent() {
        for e in i8::MIN..=i8::MAX {
            let s = Po2Scale::new(e);
            let want = pow2_reference(e.into());
            assert_eq!(s.factor().to_bits(), want.to_bits(), "factor 2^{e}");
            for x in PROBES {
                let compress = x * pow2_reference(-f64::from(e));
                let expand = x * pow2_reference(e.into());
                assert!(same(s.compress(x), compress), "2^{e} compress {x:e}");
                assert!(same(s.expand(x), expand), "2^{e} expand {x:e}");
            }
        }
        // The subnormal powers, and the one compress factor past f32.
        assert_eq!(Po2Scale::new(-128).factor().to_bits(), 1 << 21);
        assert_eq!(Po2Scale::new(-127).factor().to_bits(), 1 << 22);
        assert_eq!(Po2Scale::new(-128).compress(1.0), f32::INFINITY);
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
