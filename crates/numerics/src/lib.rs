//! Software floating-point numerics for the Ecco reproduction.
//!
//! The Ecco compression format stores per-group scale factors as **FP8
//! (E4M3)** values normalized by a **power-of-two per-tensor scale**, and
//! reconstructs **FP16** values in the decompressor by pure exponent
//! adjustment (Section 3.2 / Figure 8 of the paper). None of that exists in
//! `std`, and external float crates are out of scope for this reproduction,
//! so this crate implements bit-exact software conversions:
//!
//! * [`F16`] — IEEE 754 binary16 with round-to-nearest-even conversion,
//! * [`F8E4M3`] — OCP 8-bit float, 4 exponent / 3 mantissa bits (no
//!   infinities, single NaN, saturating at ±448),
//! * [`F8E5M2`] — OCP 8-bit float, 5 exponent / 2 mantissa bits,
//! * [`Po2Scale`] — power-of-two scale factors applied by exponent
//!   arithmetic, mirroring the `Exp Adder` blocks of the decompressor.
//!
//! The conversions on the decode path work on bit patterns, with no
//! `f64` detour: [`round_f16`] rounds an f32's bits in place, the FP8
//! `to_f32`s assemble the f32 from the code's fields, and [`Po2Scale`]
//! builds `2^e` from its exponent field. Each is pinned bit for bit in
//! its tests to the `f64` formula it replaced (`exp2`, the minifloat
//! magnitude formula, and the trip through [`F16`]), `round_f16` over
//! every f32 in an ignored release-mode sweep.
//!
//! # Examples
//!
//! ```
//! use ecco_numerics::{F16, F8E4M3, Po2Scale};
//!
//! let x = F16::from_f32(0.1234);
//! assert!((x.to_f32() - 0.1234).abs() < 1e-3);
//!
//! // A group absmax of 37.5 is stored as FP8 at a power-of-two tensor scale.
//! let scale = Po2Scale::for_absmax(37.5, F8E4M3::MAX_FINITE);
//! let stored = F8E4M3::from_f32(scale.compress(37.5));
//! let restored = scale.expand(stored.to_f32());
//! assert!((restored - 37.5).abs() / 37.5 < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod f16;
mod f8;
mod scale;

pub use f16::F16;
pub use f8::{F8E4M3, F8E5M2};
pub use scale::Po2Scale;

/// Rounds `x` to the nearest representable IEEE binary16 value and back,
/// i.e. the value an FP16 datapath would observe: the bits of
/// `F16::from_f32(x).to_f32()`, without the trip through binary16.
///
/// From the smallest binary16 normal (2⁻¹⁴) up, the f32 bits are rounded
/// to nearest-even at bit 13 (binary16 keeps 10 of f32's 23 mantissa
/// bits), a carry running into the exponent; anything that rounds to
/// 2¹⁶ or beyond is ±∞. Below 2⁻¹⁴ binary16 steps by 2⁻²⁴, the ulp of
/// 0.5, so `(|x| + 0.5) − 0.5` rounds there in one f32 add. A NaN is
/// quieted and keeps the top 10 bits of its payload, as binary16 would.
///
/// # Examples
///
/// ```
/// let y = ecco_numerics::round_f16(1.0009765625f32);
/// assert_eq!(y, 1.0009765625); // exactly representable in binary16
/// ```
#[inline]
pub fn round_f16(x: f32) -> f32 {
    /// f32 bits of 2⁻¹⁴, the smallest binary16 normal.
    const MIN_NORMAL: u32 = 0x3880_0000;
    /// f32 bits of 2¹⁶, the first magnitude past binary16's range.
    const OVERFLOW: u32 = 0x4780_0000;
    const INFINITY: u32 = 0x7F80_0000;
    /// The f32 mantissa bits binary16 drops.
    const DROPPED: u32 = 0x1FFF;
    let bits = x.to_bits();
    let sign = bits & 0x8000_0000;
    let abs = bits & 0x7FFF_FFFF;
    let rounded = if abs >= INFINITY {
        match abs {
            INFINITY => INFINITY,
            nan => (nan | 0x0040_0000) & !DROPPED,
        }
    } else if abs >= MIN_NORMAL {
        match (abs + (DROPPED >> 1) + ((abs >> 13) & 1)) & !DROPPED {
            OVERFLOW.. => INFINITY,
            r => r,
        }
    } else {
        ((f32::from_bits(abs) + 0.5) - 0.5).to_bits()
    };
    f32::from_bits(sign | rounded)
}

/// Rounds every element of `data` through binary16 in place.
pub fn round_f16_slice(data: &mut [f32]) {
    for v in data {
        *v = round_f16(*v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Today's formula, the reference [`round_f16`] is pinned to.
    fn reference(x: f32) -> f32 {
        F16::from_f32(x).to_f32()
    }

    fn assert_pinned(x: f32) {
        assert_eq!(
            round_f16(x).to_bits(),
            reference(x).to_bits(),
            "x = {x:e} ({:#010x})",
            x.to_bits()
        );
    }

    #[test]
    fn round_f16_matches_f16_roundtrip_on_every_f16_value() {
        for h in 0..=u16::MAX {
            assert_pinned(F16::from_bits(h).to_f32());
        }
    }

    #[test]
    fn round_f16_matches_f16_roundtrip_at_every_midpoint() {
        // Between each pair of adjacent finite binary16 magnitudes (and
        // between 65504 and 2¹⁶, where rounding up overflows): the
        // midpoint itself, which f32 holds exactly, and its f32
        // neighbours one ulp either side, in both signs.
        for h in 0..0x7C00u16 {
            let lo = f64::from(F16::from_bits(h).to_f32());
            let hi = match h + 1 {
                0x7C00 => 65536.0,
                next => f64::from(F16::from_bits(next).to_f32()),
            };
            let mid = ((lo + hi) / 2.0) as f32;
            assert_eq!(f64::from(mid), (lo + hi) / 2.0, "midpoint above {h:#06x}");
            for bits in [mid.to_bits() - 1, mid.to_bits(), mid.to_bits() + 1] {
                assert_pinned(f32::from_bits(bits));
                assert_pinned(-f32::from_bits(bits));
            }
        }
    }

    #[test]
    fn round_f16_matches_f16_roundtrip_on_special_values() {
        let mut probes = vec![
            0.0,
            -0.0,
            65504.0,
            -65504.0,
            65519.996,
            65520.0,
            -65520.0,
            65536.0,
            f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            6.103_515_6e-5,
            5.960_464_5e-8,
            2.980_232_2e-8,
        ];
        // f32 subnormals, and NaNs of both signs and many payloads.
        for bits in [1, 2, 0x1FFF, 0x2000, 0x0040_0000, 0x007F_FFFF] {
            probes.push(f32::from_bits(bits));
            probes.push(-f32::from_bits(bits));
        }
        for payload in [
            1,
            0x1FFF,
            0x2000,
            0x3FFF,
            0x0040_0000,
            0x0055_5555,
            0x007F_FFFF,
        ] {
            probes.push(f32::from_bits(0x7F80_0000 | payload));
            probes.push(f32::from_bits(0xFF80_0000 | payload));
        }
        for x in probes {
            assert_pinned(x);
        }
    }

    #[test]
    fn round_f16_matches_f16_roundtrip_on_a_strided_sweep() {
        // Every 997th f32 bit pattern, both signs and every exponent.
        for bits in (0..=u32::MAX).step_by(997) {
            assert_pinned(f32::from_bits(bits));
        }
    }

    /// Every f32 bit pattern. Too slow for the default debug suite; run
    /// `cargo test --release -p ecco-numerics -- --ignored
    /// round_f16_matches_f16_roundtrip_on_every_f32`.
    #[test]
    #[ignore]
    fn round_f16_matches_f16_roundtrip_on_every_f32() {
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
                                round_f16(x).to_bits() != reference(x).to_bits()
                            })
                            .count() as u64
                    })
                })
                .collect();
            lanes.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(mismatches, 0, "f32 bit patterns where round_f16 differs");
    }
}
