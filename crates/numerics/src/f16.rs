//! IEEE 754 binary16 implemented in software.

use std::cmp::Ordering;
use std::fmt;

/// An IEEE 754 binary16 ("half precision") value stored as raw bits.
///
/// Conversions use round-to-nearest-even, matching GPU FP16 datapaths.
/// The type is a thin `u16` wrapper so it can be packed directly into
/// compressed-block bitstreams.
///
/// # Examples
///
/// ```
/// use ecco_numerics::F16;
///
/// let a = F16::from_f32(1.5);
/// assert_eq!(a.to_f32(), 1.5);
/// assert_eq!(a.to_bits(), 0x3E00);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct F16(u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// The value 1.0.
    pub const ONE: F16 = F16(0x3C00);
    /// Largest finite binary16 value, 65504.
    pub const MAX: F16 = F16(0x7BFF);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Largest finite value as `f32`.
    pub const MAX_F32: f32 = 65504.0;

    /// Creates a value from raw binary16 bits.
    #[inline]
    pub const fn from_bits(bits: u16) -> F16 {
        F16(bits)
    }

    /// Returns the raw binary16 bits.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts from `f32` with round-to-nearest-even.
    ///
    /// Values above the binary16 range become infinities (IEEE behaviour).
    pub fn from_f32(value: f32) -> F16 {
        F16(f32_to_f16_bits(value))
    }

    /// Converts to `f32` exactly (every binary16 value is representable).
    pub fn to_f32(self) -> f32 {
        f16_bits_to_f32(self.0)
    }

    /// Returns `true` when the value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    /// Returns `true` for positive or negative infinity.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }
}

impl From<f32> for F16 {
    fn from(value: f32) -> F16 {
        F16::from_f32(value)
    }
}

impl From<F16> for f32 {
    fn from(value: F16) -> f32 {
        value.to_f32()
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &F16) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F16({} = {:#06x})", self.to_f32(), self.0)
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

/// Converts `f32` bits to binary16 bits with round-to-nearest-even.
fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp32 = ((bits >> 23) & 0xFF) as i32;
    let mant = bits & 0x007F_FFFF;

    if exp32 == 0xFF {
        // Infinity or NaN; preserve a quiet NaN payload bit.
        return if mant == 0 {
            sign | 0x7C00
        } else {
            sign | 0x7E00 | ((mant >> 13) as u16 & 0x03FF)
        };
    }

    let exp = exp32 - 127 + 15;
    if exp >= 0x1F {
        return sign | 0x7C00; // overflow -> infinity
    }
    if exp <= 0 {
        // Subnormal range (or underflow to zero).
        if exp < -10 {
            return sign;
        }
        let m24 = mant | 0x0080_0000;
        let shift = (14 - exp) as u32;
        let q = m24 >> shift;
        let rem = m24 & ((1u32 << shift) - 1);
        let half = 1u32 << (shift - 1);
        let mut h = sign | q as u16;
        if rem > half || (rem == half && (q & 1) == 1) {
            h += 1; // may carry into the exponent field: that is correct
        }
        return h;
    }

    let q = (mant >> 13) as u16;
    let rem = mant & 0x1FFF;
    let mut h = sign | ((exp as u16) << 10) | q;
    if rem > 0x1000 || (rem == 0x1000 && (q & 1) == 1) {
        h = h.wrapping_add(1); // carry may legitimately round up to infinity
    }
    h
}

/// Converts binary16 bits to `f32` exactly.
fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = ((bits & 0x8000) as u32) << 16;
    let exp = ((bits >> 10) & 0x1F) as u32;
    let mant = (bits & 0x03FF) as u32;

    let out = if exp == 0 {
        if mant == 0 {
            sign
        } else {
            // Normalize the subnormal: value = mant * 2^-24 with the top set
            // bit of `mant` becoming the implicit leading one.
            let shift = mant.leading_zeros() - 21; // zeros above bit 9
            let m = (mant << shift) & 0x03FF;
            let e = 113 - shift; // 127 - 15 + 1 - shift
            sign | (e << 23) | (m << 13)
        }
    } else if exp == 0x1F {
        sign | 0x7F80_0000 | (mant << 13)
    } else {
        sign | ((exp + 127 - 15) << 23) | (mant << 13)
    };
    f32::from_bits(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_small_integers() {
        for i in -2048..=2048i32 {
            let x = i as f32;
            assert_eq!(F16::from_f32(x).to_f32(), x, "integer {i}");
        }
    }

    #[test]
    fn known_constants() {
        assert_eq!(F16::from_f32(1.0).to_bits(), 0x3C00);
        assert_eq!(F16::from_f32(-2.0).to_bits(), 0xC000);
        assert_eq!(F16::from_f32(65504.0).to_bits(), 0x7BFF);
        assert_eq!(F16::from_f32(6.103_515_6e-5).to_bits(), 0x0400); // min normal
        assert_eq!(F16::from_f32(5.960_464_5e-8).to_bits(), 0x0001); // min subnormal
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert!(F16::from_f32(1e6).is_infinite());
        assert!(F16::from_f32(-1e6).is_infinite());
        assert_eq!(F16::from_f32(65520.0).to_bits(), 0x7C00); // rounds to inf
    }

    #[test]
    fn underflow_to_zero() {
        assert_eq!(F16::from_f32(1e-12).to_bits(), 0);
        assert_eq!(F16::from_f32(-1e-12).to_bits(), 0x8000);
    }

    #[test]
    fn nan_is_preserved() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10: ties to even.
        let tie = 1.0 + 2f32.powi(-11);
        assert_eq!(F16::from_f32(tie).to_bits(), 0x3C00);
        // 1 + 3*2^-11 is halfway between odd and even: rounds up to even.
        let tie_up = 1.0 + 3.0 * 2f32.powi(-11);
        assert_eq!(F16::from_f32(tie_up).to_bits(), 0x3C02);
    }

    #[test]
    fn subnormal_roundtrip() {
        for bits in [0x0001u16, 0x0002, 0x01FF, 0x03FF, 0x8001, 0x83FF] {
            let f = F16::from_bits(bits);
            assert_eq!(F16::from_f32(f.to_f32()), f, "bits {bits:#06x}");
        }
    }

    proptest! {
        #[test]
        fn roundtrip_all_finite_f16(bits in 0u16..=u16::MAX) {
            let h = F16::from_bits(bits);
            if !h.is_nan() {
                prop_assert_eq!(F16::from_f32(h.to_f32()).to_bits(), bits);
            }
        }

        #[test]
        fn conversion_error_within_half_ulp(x in -60000.0f32..60000.0) {
            let h = F16::from_f32(x);
            let back = h.to_f32();
            // ULP at |x|: 2^(floor(log2 |x|) - 10), at least the subnormal step.
            let ulp = if x == 0.0 {
                2f32.powi(-24)
            } else {
                2f32.powi((x.abs().log2().floor() as i32 - 10).max(-24))
            };
            prop_assert!((back - x).abs() <= ulp * 0.5 + f32::EPSILON);
        }

        #[test]
        fn ordering_matches_f32(a in -60000.0f32..60000.0, b in -60000.0f32..60000.0) {
            let (ha, hb) = (F16::from_f32(a), F16::from_f32(b));
            if ha.to_f32() != hb.to_f32() {
                prop_assert_eq!(
                    ha.partial_cmp(&hb),
                    ha.to_f32().partial_cmp(&hb.to_f32())
                );
            }
        }
    }
}
