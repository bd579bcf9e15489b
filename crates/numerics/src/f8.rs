//! OCP 8-bit floating-point formats (E4M3 and E5M2).
//!
//! Ecco stores each group's scale factor — and each padded outlier value —
//! as an FP8 byte inside the compressed block (Figure 6a of the paper), so
//! the encode/decode here is on the codec's critical path.

use std::fmt;

/// Encodes a finite non-negative `f64` into a minifloat magnitude with
/// `mant` mantissa bits and bias `bias`. `e_max` is the largest usable
/// unbiased exponent (E4M3 uses its top exponent field, E5M2 reserves it for
/// inf/NaN), `max_q` the largest mantissa-unit value representable at
/// `e_max` (14 for E4M3 where `1.111 × 2^8` is NaN, 11 for E5M2). Returns
/// the 7-bit magnitude code; the caller adds the sign bit.
fn encode_magnitude(a: f64, mant: u32, bias: i32, e_max: i32, max_q: u32) -> u8 {
    debug_assert!(a >= 0.0);
    if a == 0.0 {
        return 0;
    }
    let e_min = 1 - bias; // unbiased exponent of the smallest normal
    let saturated = ((((e_max + bias) as u32) << mant) | (max_q - (1 << mant))) as u8;
    // floor(log2 a) from the f64 bit pattern (a > 0, normal in f64).
    let mut e = ((a.to_bits() >> 52) & 0x7FF) as i32 - 1023;
    if e < e_min {
        e = e_min; // subnormal regime: fixed exponent, no implicit bit
    }
    if e > e_max {
        return saturated;
    }
    // Mantissa in units of 2^(e - mant): normals land in [2^mant, 2^(mant+1)).
    // The unit's reciprocal 2^(mant - e) is assembled from its f64 exponent
    // field (it stays far inside the normal range), so the scaling is exact,
    // as a division by the unit was.
    let inv_unit = f64::from_bits(((1023 + mant as i32 - e) as u64) << 52);
    let scaled = a * inv_unit;
    // Round half to even without a libm call: `scaled` < 2^(mant+1), so
    // adding 2^52 leaves a unit in the last place of 1, and the add rounds
    // to the nearest integer, ties to even, which subtracting 2^52 keeps.
    const ROUND: f64 = (1u64 << 52) as f64;
    let mut q = ((scaled + ROUND) - ROUND) as u32;
    if q >= (2 << mant) {
        e += 1;
        q = 1 << mant;
        if e > e_max {
            return saturated;
        }
    }
    if q >= (1 << mant) {
        // Normal number; clamp anything that would spill into NaN space.
        if e == e_max && q > max_q {
            return saturated;
        }
        ((((e + bias) as u32) << mant) | (q - (1 << mant))) as u8
    } else {
        // Subnormal (only reachable when e == e_min).
        q as u8
    }
}

/// Assembles the `f32` of a finite minifloat code with `mant` mantissa
/// bits and bias `bias` from its fields: the sign bit moves to bit 31, a
/// normal's exponent is rebiased and its mantissa shifted up under
/// f32's, and a subnormal (`frac × 2^(1 - bias - mant)`, every one of
/// them normal in f32) is renormalized on its leading one.
#[inline]
fn minifloat_to_f32(code: u8, mant: u32, bias: u32) -> f32 {
    let sign = u32::from(code & 0x80) << 24;
    let exp = u32::from(code & 0x7F) >> mant;
    let frac = u32::from(code) & ((1 << mant) - 1);
    let mag = if exp != 0 {
        (exp + 127 - bias) << 23 | frac << (23 - mant)
    } else if frac == 0 {
        0
    } else {
        let lead = frac.ilog2();
        (128 - bias - mant + lead) << 23 | (frac << (23 - lead)) & 0x007F_FFFF
    };
    f32::from_bits(sign | mag)
}

/// An OCP FP8 E4M3 value: 1 sign, 4 exponent (bias 7), 3 mantissa bits.
///
/// E4M3 has no infinities; `S.1111.111` is NaN and the largest finite value
/// is ±448. Conversions saturate (the behaviour of GPU FP8 cast units).
///
/// # Examples
///
/// ```
/// use ecco_numerics::F8E4M3;
///
/// let x = F8E4M3::from_f32(0.8);
/// assert!((x.to_f32() - 0.8).abs() < 0.05);
/// assert_eq!(F8E4M3::from_f32(1e9).to_f32(), 448.0); // saturates
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct F8E4M3(u8);

impl F8E4M3 {
    /// Largest finite value (1.75 × 2⁸).
    pub const MAX_FINITE: f32 = 448.0;
    /// Smallest positive normal value (2⁻⁶).
    pub const MIN_NORMAL: f32 = 0.015625;
    /// Smallest positive subnormal value (2⁻⁹).
    pub const MIN_SUBNORMAL: f32 = 0.001953125;
    /// The canonical NaN encoding.
    pub const NAN: F8E4M3 = F8E4M3(0x7F);

    const MANT_BITS: u32 = 3;
    const BIAS: i32 = 7;

    /// Creates a value from its raw byte encoding.
    #[inline]
    pub const fn from_bits(bits: u8) -> F8E4M3 {
        F8E4M3(bits)
    }

    /// Returns the raw byte encoding.
    #[inline]
    pub const fn to_bits(self) -> u8 {
        self.0
    }

    /// Converts from `f32` with round-to-nearest-even, saturating to ±448.
    pub fn from_f32(value: f32) -> F8E4M3 {
        if value.is_nan() {
            return F8E4M3::NAN;
        }
        let sign = if value.is_sign_negative() { 0x80 } else { 0 };
        // Top exponent field 15 (unbiased 8) is usable; 1.111 × 2^8 is NaN,
        // so the largest mantissa-unit value there is 14 (1.110 × 2^8 = 448).
        let mag = encode_magnitude(value.abs() as f64, Self::MANT_BITS, Self::BIAS, 8, 14);
        F8E4M3(sign | mag)
    }

    /// Converts to `f32` exactly; both NaN codes give `f32::NAN`.
    #[inline]
    pub fn to_f32(self) -> f32 {
        if self.is_nan() {
            return f32::NAN;
        }
        minifloat_to_f32(self.0, Self::MANT_BITS, Self::BIAS as u32)
    }

    /// Returns `true` when the encoding is one of the two NaN codes.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7F) == 0x7F
    }
}

impl From<f32> for F8E4M3 {
    fn from(value: f32) -> F8E4M3 {
        F8E4M3::from_f32(value)
    }
}

impl fmt::Debug for F8E4M3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F8E4M3({} = {:#04x})", self.to_f32(), self.0)
    }
}

impl fmt::Display for F8E4M3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

/// An OCP FP8 E5M2 value: 1 sign, 5 exponent (bias 15), 2 mantissa bits.
///
/// Wider range (±57344) but coarser mantissa than [`F8E4M3`]. Conversions
/// saturate to the largest finite value rather than producing infinities.
///
/// # Examples
///
/// ```
/// use ecco_numerics::F8E5M2;
///
/// let x = F8E5M2::from_f32(1000.0);
/// assert_eq!(x.to_f32(), 1024.0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct F8E5M2(u8);

impl F8E5M2 {
    /// Largest finite value (1.75 × 2¹⁵).
    pub const MAX_FINITE: f32 = 57344.0;
    /// The canonical NaN encoding.
    pub const NAN: F8E5M2 = F8E5M2(0x7E);

    const MANT_BITS: u32 = 2;
    const BIAS: i32 = 15;

    /// Creates a value from its raw byte encoding.
    #[inline]
    pub const fn from_bits(bits: u8) -> F8E5M2 {
        F8E5M2(bits)
    }

    /// Returns the raw byte encoding.
    #[inline]
    pub const fn to_bits(self) -> u8 {
        self.0
    }

    /// Converts from `f32` with round-to-nearest-even, saturating to ±57344.
    pub fn from_f32(value: f32) -> F8E5M2 {
        if value.is_nan() {
            return F8E5M2::NAN;
        }
        let sign = if value.is_sign_negative() { 0x80 } else { 0 };
        // Exponent field 31 is inf/NaN space: top usable unbiased exponent is
        // 15 (field 30), where all four mantissa codes are finite (max_q 7 =
        // 1.11 × 2^15 = 57344 in units of 2^13).
        let mag = encode_magnitude(value.abs() as f64, Self::MANT_BITS, Self::BIAS, 15, 7);
        F8E5M2(sign | mag)
    }

    /// Converts to `f32` exactly (infinities decode to infinities).
    #[inline]
    pub fn to_f32(self) -> f32 {
        let exp_field = (self.0 >> Self::MANT_BITS) & 0x1F;
        let mant_field = self.0 & 0x03;
        if exp_field == 0x1F {
            let v = if mant_field == 0 {
                f32::INFINITY
            } else {
                f32::NAN
            };
            return if self.0 & 0x80 != 0 { -v } else { v };
        }
        minifloat_to_f32(self.0, Self::MANT_BITS, Self::BIAS as u32)
    }

    /// Returns `true` when the encoding is a NaN code.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C) == 0x7C && (self.0 & 0x03) != 0
    }
}

impl From<f32> for F8E5M2 {
    fn from(value: f32) -> F8E5M2 {
        F8E5M2::from_f32(value)
    }
}

impl fmt::Debug for F8E5M2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F8E5M2({} = {:#04x})", self.to_f32(), self.0)
    }
}

impl fmt::Display for F8E5M2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Today's f64 formula for a minifloat's 7-bit magnitude, the
    /// reference the bit-level conversions are pinned to.
    fn decode_magnitude(code: u8, mant: u32, bias: i32) -> f64 {
        let exp_field = (code as u32) >> mant;
        let mant_field = (code as u32) & ((1 << mant) - 1);
        if exp_field == 0 {
            mant_field as f64 * ((1 - bias - mant as i32) as f64).exp2()
        } else {
            let m = (mant_field | (1 << mant)) as f64;
            m * ((exp_field as i32 - bias - mant as i32) as f64).exp2()
        }
    }

    /// The signed reference value of a finite code.
    fn reference(code: u8, mant: u32, bias: i32) -> f32 {
        let v = decode_magnitude(code & 0x7F, mant, bias) as f32;
        if code & 0x80 != 0 {
            -v
        } else {
            v
        }
    }

    /// Today's f64 formula for a minifloat's 7-bit magnitude code, the
    /// reference the encoders are pinned to: the power-of-two unit of
    /// the mantissa comes from `exp2` of the integer exponent.
    fn encode_magnitude_ref(a: f64, mant: u32, bias: i32, e_max: i32, max_q: u32) -> u8 {
        if a == 0.0 {
            return 0;
        }
        let e_min = 1 - bias;
        let saturated = ((((e_max + bias) as u32) << mant) | (max_q - (1 << mant))) as u8;
        let mut e = ((a.to_bits() >> 52) & 0x7FF) as i32 - 1023;
        if e < e_min {
            e = e_min;
        }
        if e > e_max {
            return saturated;
        }
        let unit = ((e - mant as i32) as f64).exp2();
        let mut q = (a / unit).round_ties_even() as u32;
        if q >= (2 << mant) {
            e += 1;
            q = 1 << mant;
            if e > e_max {
                return saturated;
            }
        }
        if q >= (1 << mant) {
            if e == e_max && q > max_q {
                return saturated;
            }
            ((((e + bias) as u32) << mant) | (q - (1 << mant))) as u8
        } else {
            q as u8
        }
    }

    /// Today's `from_f32`, the reference of both formats' encoders.
    fn from_f32_ref(x: f32, mant: u32, bias: i32, e_max: i32, max_q: u32, nan: u8) -> u8 {
        if x.is_nan() {
            return nan;
        }
        let sign = if x.is_sign_negative() { 0x80 } else { 0 };
        sign | encode_magnitude_ref(x.abs() as f64, mant, bias, e_max, max_q)
    }

    fn e4m3_ref(x: f32) -> u8 {
        from_f32_ref(x, 3, 7, 8, 14, 0x7F)
    }

    fn e5m2_ref(x: f32) -> u8 {
        from_f32_ref(x, 2, 15, 15, 7, 0x7E)
    }

    /// The f32 probes an FP8 encoder is pinned on. `top` is the largest
    /// finite magnitude code and `next` the value one mantissa step
    /// above it, which the format cannot hold. Between each pair of
    /// adjacent magnitudes (and between the top one and `next`, where
    /// rounding up saturates): the midpoint, which f32 holds exactly,
    /// and its f32 neighbours one ulp either side. Then every code's own
    /// value, `next` and the power of two at or above it (where the
    /// exponent leaves the format), ±0, f32 subnormals,
    /// `f32::MAX`, ±∞ and NaNs of both signs and several payloads; every
    /// finite probe in both signs.
    fn fp8_probes(value: impl Fn(u8) -> f32, top: u8, next: f64) -> Vec<f32> {
        let mut mags = Vec::new();
        for code in 0..=top {
            let lo = f64::from(value(code));
            let hi = if code == top {
                next
            } else {
                f64::from(value(code + 1))
            };
            let mid = ((lo + hi) / 2.0) as f32;
            assert_eq!(
                f64::from(mid),
                (lo + hi) / 2.0,
                "midpoint above {code:#04x}"
            );
            mags.extend([mid.to_bits() - 1, mid.to_bits(), mid.to_bits() + 1].map(f32::from_bits));
            mags.push(lo as f32);
        }
        let pow2_above = 2f64.powi(next.log2().ceil() as i32);
        for edge in [next, pow2_above] {
            let edge = edge as f32;
            mags.extend(
                [edge.to_bits() - 1, edge.to_bits(), edge.to_bits() + 1].map(f32::from_bits),
            );
        }
        for bits in [1, 2, 0x1FFF, 0x0040_0000, 0x007F_FFFF, 0x0080_0000] {
            mags.push(f32::from_bits(bits));
        }
        mags.extend([f32::MAX, f32::INFINITY]);
        let mut probes: Vec<f32> = mags.iter().flat_map(|&m| [m, -m]).collect();
        for payload in [1, 0x2000, 0x0040_0000, 0x0055_5555, 0x007F_FFFF] {
            probes.push(f32::from_bits(0x7F80_0000 | payload));
            probes.push(f32::from_bits(0xFF80_0000 | payload));
        }
        probes
    }

    #[test]
    fn e4m3_from_f32_matches_formula_at_every_midpoint() {
        // 0x7E = 1.110 × 2⁸ = 448; the step above it, 480, is NaN's code.
        for x in fp8_probes(|c| F8E4M3::from_bits(c).to_f32(), 0x7E, 480.0) {
            let got = F8E4M3::from_f32(x).to_bits();
            assert_eq!(got, e4m3_ref(x), "x = {x:e} ({:#010x})", x.to_bits());
        }
    }

    #[test]
    fn e5m2_from_f32_matches_formula_at_every_midpoint() {
        // 0x7B = 1.11 × 2¹⁵ = 57344; the step above it, 2¹⁶, is ∞'s code.
        for x in fp8_probes(|c| F8E5M2::from_bits(c).to_f32(), 0x7B, 65536.0) {
            let got = F8E5M2::from_f32(x).to_bits();
            assert_eq!(got, e5m2_ref(x), "x = {x:e} ({:#010x})", x.to_bits());
        }
    }

    /// Every f32 bit pattern through both formats. Too slow for the
    /// default debug suite; run `cargo test --release -p ecco-numerics
    /// -- --ignored fp8_from_f32_matches_formula_on_every_f32`.
    #[test]
    #[ignore]
    fn fp8_from_f32_matches_formula_on_every_f32() {
        let lanes = std::thread::available_parallelism().map_or(1, |n| n.get().min(8)) as u64;
        let span = (1u64 << 32) / lanes;
        let mismatches: u64 = std::thread::scope(|s| {
            let lanes: Vec<_> = (0..lanes)
                .map(|lane| {
                    s.spawn(move || {
                        let end = if lane + 1 == lanes {
                            1 << 32
                        } else {
                            (lane + 1) * span
                        };
                        (lane * span..end)
                            .filter(|&b| {
                                let x = f32::from_bits(b as u32);
                                F8E4M3::from_f32(x).to_bits() != e4m3_ref(x)
                                    || F8E5M2::from_f32(x).to_bits() != e5m2_ref(x)
                            })
                            .count() as u64
                    })
                })
                .collect();
            lanes.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(
            mismatches, 0,
            "f32 bit patterns where an FP8 encoder differs"
        );
    }

    #[test]
    fn e4m3_to_f32_matches_formula_on_every_code() {
        for bits in 0u8..=u8::MAX {
            let want = if bits & 0x7F == 0x7F {
                f32::NAN
            } else {
                reference(bits, 3, 7)
            };
            let got = F8E4M3::from_bits(bits).to_f32();
            assert_eq!(got.to_bits(), want.to_bits(), "code {bits:#04x}");
        }
    }

    #[test]
    fn e5m2_to_f32_matches_formula_on_every_code() {
        for bits in 0u8..=u8::MAX {
            let want = match (bits & 0x7C == 0x7C, bits & 0x03) {
                (true, 0) if bits & 0x80 != 0 => f32::NEG_INFINITY,
                (true, 0) => f32::INFINITY,
                (true, _) if bits & 0x80 != 0 => -f32::NAN,
                (true, _) => f32::NAN,
                (false, _) => reference(bits, 2, 15),
            };
            let got = F8E5M2::from_bits(bits).to_f32();
            assert_eq!(got.to_bits(), want.to_bits(), "code {bits:#04x}");
        }
    }

    #[test]
    fn e4m3_known_values() {
        assert_eq!(F8E4M3::from_f32(0.0).to_bits(), 0);
        assert_eq!(F8E4M3::from_f32(1.0).to_bits(), 0x38);
        assert_eq!(F8E4M3::from_f32(-1.0).to_bits(), 0xB8);
        assert_eq!(F8E4M3::from_f32(448.0).to_f32(), 448.0);
        assert_eq!(F8E4M3::from_f32(0.015625).to_f32(), 0.015625);
        assert_eq!(F8E4M3::from_f32(0.001953125).to_f32(), 0.001953125);
    }

    #[test]
    fn e4m3_saturates_not_nan() {
        for big in [449.0f32, 500.0, 1e9, f32::INFINITY] {
            let v = F8E4M3::from_f32(big);
            assert!(!v.is_nan(), "{big}");
            assert_eq!(v.to_f32(), 448.0, "{big}");
        }
        assert_eq!(F8E4M3::from_f32(-1e9).to_f32(), -448.0);
    }

    #[test]
    fn e4m3_nan() {
        assert!(F8E4M3::from_f32(f32::NAN).is_nan());
        assert!(F8E4M3::NAN.to_f32().is_nan());
    }

    #[test]
    fn e5m2_known_values() {
        assert_eq!(F8E5M2::from_f32(1.0).to_f32(), 1.0);
        assert_eq!(F8E5M2::from_f32(57344.0).to_f32(), 57344.0);
        assert_eq!(F8E5M2::from_f32(1e9).to_f32(), 57344.0);
        assert_eq!(F8E5M2::from_f32(-0.25).to_f32(), -0.25);
    }

    #[test]
    fn e4m3_all_codes_roundtrip() {
        for bits in 0u8..=u8::MAX {
            let v = F8E4M3::from_bits(bits);
            if v.is_nan() {
                continue;
            }
            let f = v.to_f32();
            let back = F8E4M3::from_f32(f);
            // -0.0 encodes back to +0.0 magnitude with sign bit: accept both.
            assert_eq!(
                back.to_f32(),
                f,
                "bits {bits:#04x} decoded to {f}, re-encoded to {}",
                back.to_f32()
            );
        }
    }

    #[test]
    fn e5m2_all_codes_roundtrip() {
        for bits in 0u8..=u8::MAX {
            let v = F8E5M2::from_bits(bits);
            if v.is_nan() || v.to_f32().is_infinite() {
                continue;
            }
            let f = v.to_f32();
            assert_eq!(F8E5M2::from_f32(f).to_f32(), f, "bits {bits:#04x}");
        }
    }

    proptest! {
        #[test]
        fn e4m3_relative_error_bounded(x in -400.0f32..400.0) {
            let v = F8E4M3::from_f32(x).to_f32();
            if x.abs() >= F8E4M3::MIN_NORMAL {
                // 3 mantissa bits -> relative error <= 2^-4.
                prop_assert!((v - x).abs() <= x.abs() * 0.0625 + 1e-9, "{x} -> {v}");
            } else {
                prop_assert!((v - x).abs() <= F8E4M3::MIN_SUBNORMAL * 0.5 + 1e-9);
            }
        }

        #[test]
        fn e4m3_monotonic(a in -440.0f32..440.0, b in -440.0f32..440.0) {
            let (qa, qb) = (F8E4M3::from_f32(a).to_f32(), F8E4M3::from_f32(b).to_f32());
            if a <= b {
                prop_assert!(qa <= qb, "{a}->{qa}, {b}->{qb}");
            }
        }

        #[test]
        fn e5m2_relative_error_bounded(x in -50000.0f32..50000.0) {
            let v = F8E5M2::from_f32(x).to_f32();
            if x.abs() >= 2f32.powi(-14) {
                prop_assert!((v - x).abs() <= x.abs() * 0.125 + 1e-9, "{x} -> {v}");
            }
        }
    }
}
