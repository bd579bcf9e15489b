//! Group normalization (steps 1–2 of the paper's Figure 4).

use ecco_numerics::{Po2Scale, F8E4M3};

use crate::pattern::{KmeansPattern, SCALE_SYMBOL};

/// A group after two-level normalization: the signed absmax has been
/// quantized to FP8 under the per-tensor power-of-two scale, and every
/// value divided by its magnitude.
#[derive(Clone, Debug, PartialEq)]
pub struct NormalizedGroup {
    /// Position of the (first) absolute-maximum value.
    pub max_pos: usize,
    /// FP8 encoding of the signed scale factor (what the block stores).
    pub sf_bits: u8,
    /// Dequantized signed scale factor in tensor range.
    pub scale_signed: f32,
    /// `|scale_signed|`, with zero groups mapped to 1.0 so division is safe.
    pub scale_mag: f32,
    /// Values divided by `scale_mag` (the absmax position normalizes to ≈±1).
    pub values: Vec<f32>,
}

/// Normalizes one group (paper step 2).
///
/// The scale factor is the group's signed extreme value, stored as FP8
/// under `tensor_scale`; all values are normalized by the *dequantized*
/// magnitude so that encoder and decoder agree bit-exactly.
///
/// # Panics
///
/// Panics if `group` is empty.
pub fn normalize_group(group: &[f32], tensor_scale: Po2Scale) -> NormalizedGroup {
    normalize_into(group, tensor_scale, Vec::with_capacity(group.len()))
}

/// [`normalize_group`] into `values`, a buffer the caller lends, whose
/// contents it replaces: the one normalizer. The encoder lends its
/// [`GroupScratch`](crate::GroupScratch)'s buffer, so no group allocates.
///
/// # Panics
///
/// Panics if `group` is empty.
pub(crate) fn normalize_into(
    group: &[f32],
    tensor_scale: Po2Scale,
    mut values: Vec<f32>,
) -> NormalizedGroup {
    assert!(!group.is_empty(), "empty group");
    let max_pos = absmax_position(group);
    // A NaN can only end up at `max_pos` when no value has |x| > 0 (NaN
    // never wins the `>` comparison), i.e. the group is all NaNs and
    // zeros. Encode it as a zero-scale group — the block then round-trips
    // to exact zeros instead of carrying a NaN scale factor the decoder
    // would (rightly) reject as `BadScaleFactor`.
    let signed_extreme = group[max_pos];
    let signed_extreme = if signed_extreme.is_nan() {
        0.0
    } else {
        signed_extreme
    };
    let sf = F8E4M3::from_f32(tensor_scale.compress(signed_extreme));
    let scale_signed = ecco_numerics::round_f16(tensor_scale.expand(sf.to_f32()));
    let mag = scale_signed.abs();
    let scale_mag = if mag > 0.0 { mag } else { 1.0 };
    values.clear();
    values.extend(group.iter().map(|&x| x / scale_mag));
    NormalizedGroup {
        max_pos,
        sf_bits: sf.to_bits(),
        scale_signed,
        scale_mag,
        values,
    }
}

/// Lanes of the compare-select folds below: eight independent running
/// extremes, which the compiler keeps in packed registers.
const LANES: usize = 8;

/// Position of the first value of largest magnitude, NaNs ignored; 0
/// when no value has `|x| > 0`. That is where a scan that moves on every
/// strictly larger `|x|` stops, found in two passes: a compare-select
/// fold for the largest magnitude (packed max), then the first position
/// holding it.
fn absmax_position(group: &[f32]) -> usize {
    let mut lanes = [0f32; LANES];
    let chunks = group.chunks_exact(LANES);
    let rest = chunks.remainder();
    for chunk in chunks {
        for (m, &x) in lanes.iter_mut().zip(chunk) {
            if x.abs() > *m {
                *m = x.abs();
            }
        }
    }
    let max_abs = lanes
        .iter()
        .chain(rest)
        .fold(0f32, |m, &x| if x.abs() > m { x.abs() } else { m });
    if max_abs > 0.0 {
        group
            .iter()
            .position(|x| x.abs() == max_abs)
            .expect("the largest magnitude is in the group")
    } else {
        0
    }
}

impl NormalizedGroup {
    /// Maps every value to its symbol under `pattern` (paper step 5): the
    /// absmax position becomes [`SCALE_SYMBOL`], everything else the index
    /// of its nearest centroid. The one symbol-derivation rule shared by
    /// the encoder, calibration statistics, tests and benches.
    pub fn symbols(&self, pattern: &KmeansPattern) -> Vec<u16> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                if i == self.max_pos {
                    SCALE_SYMBOL
                } else {
                    pattern.nearest(v)
                }
            })
            .collect()
    }

    /// Min/max of the normalized values excluding the absmax position —
    /// the two quantities the online KV pattern selector compares. NaNs
    /// are ignored; with no other value left the result is `(0.0, 0.0)`.
    pub fn minmax_excluding_max(&self) -> (f32, f32) {
        minmax_excluding(&self.values, Some(self.max_pos))
    }
}

/// Min/max of `values` without position `skip`, ignoring NaNs — the rule
/// behind [`NormalizedGroup::minmax_excluding_max`], which calibration's
/// pre-extracted values share. `(0.0, 0.0)` when nothing is left.
///
/// Every value but `skip`'s runs through one compare-select fold over
/// eight lanes (`if v < lo`), which compiles to packed min and max and,
/// like `f32::min`/`max`, passes over a NaN. Only the sign of a zero extreme
/// may differ from theirs, and the min/max fitness `(c − lo)²` cannot
/// tell `-0.0` from `+0.0`.
pub(crate) fn minmax_excluding(values: &[f32], skip: Option<usize>) -> (f32, f32) {
    let mut lo = [f32::INFINITY; LANES];
    let mut hi = [f32::NEG_INFINITY; LANES];
    let mut fold = |chunk: &[f32; LANES]| {
        lo = std::array::from_fn(|j| if chunk[j] < lo[j] { chunk[j] } else { lo[j] });
        hi = std::array::from_fn(|j| if chunk[j] > hi[j] { chunk[j] } else { hi[j] });
    };
    // Whole chunks in one loop, except the one holding `skip`: it and the
    // partial last chunk are folded as copies with NaN, which the fold
    // passes over, in the lanes to leave out.
    let skipped = skip.map_or(usize::MAX, |s| s / LANES);
    let mut chunks = values.chunks_exact(LANES);
    for (i, chunk) in chunks.by_ref().enumerate() {
        if i != skipped {
            fold(chunk.try_into().expect("a whole chunk"));
        }
    }
    let rest = chunks.remainder();
    let mut last = [f32::NAN; LANES];
    last[..rest.len()].copy_from_slice(rest);
    if let Some(s) = skip {
        let at = s - s % LANES;
        match values.get(at..at + LANES) {
            Some(chunk) => {
                let mut chunk: [f32; LANES] = chunk.try_into().expect("a whole chunk");
                chunk[s - at] = f32::NAN;
                fold(&chunk);
            }
            None => last[s - at] = f32::NAN,
        }
    }
    fold(&last);
    let lo = lo
        .into_iter()
        .fold(f32::INFINITY, |a, v| if v < a { v } else { a });
    let hi = hi
        .into_iter()
        .fold(f32::NEG_INFINITY, |a, v| if v > a { v } else { a });
    if lo > hi {
        (0.0, 0.0) // single-element group
    } else {
        (lo, hi)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn absmax_position_and_sign() {
        let g = [0.5f32, -2.0, 1.0, 0.0];
        let n = normalize_group(&g, Po2Scale::IDENTITY);
        assert_eq!(n.max_pos, 1);
        assert!(n.scale_signed < 0.0, "sign must be preserved");
        assert!((n.scale_signed.abs() - 2.0).abs() < 0.2);
    }

    #[test]
    fn normalized_values_bounded() {
        let g: Vec<f32> = (0..128).map(|i| (i as f32 - 64.0) * 0.01).collect();
        let n = normalize_group(&g, Po2Scale::IDENTITY);
        for &v in &n.values {
            // FP8 rounding of the scale can push the bound slightly past 1.
            assert!(v.abs() <= 1.07, "normalized value {v}");
        }
    }

    #[test]
    fn zero_group_is_safe() {
        let g = [0.0f32; 128];
        let n = normalize_group(&g, Po2Scale::IDENTITY);
        assert_eq!(n.scale_signed, 0.0);
        assert_eq!(n.scale_mag, 1.0);
        assert!(n.values.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn nan_only_group_encodes_as_zero_scale() {
        // NaN never wins the absmax comparison, so it can only reach the
        // scale slot in an all-NaN-and-zeros group; such a group must
        // produce a decodable (zero) scale factor, not a NaN one.
        let mut g = [0.0f32; 128];
        g[0] = f32::NAN;
        g[64] = f32::NAN;
        let n = normalize_group(&g, Po2Scale::IDENTITY);
        assert_eq!(n.scale_signed, 0.0);
        assert!(!F8E4M3::from_bits(n.sf_bits).is_nan());
    }

    #[test]
    fn tensor_scale_roundtrips_large_values() {
        let g = [1000.0f32, -3000.0, 500.0, 0.0];
        let scale = Po2Scale::for_absmax(3000.0, F8E4M3::MAX_FINITE);
        let n = normalize_group(&g, scale);
        assert!((n.scale_signed + 3000.0).abs() / 3000.0 < 0.07);
    }

    #[test]
    fn minmax_excludes_the_extreme() {
        let g = [0.1f32, -5.0, 0.3, -0.2];
        let n = normalize_group(&g, Po2Scale::IDENTITY);
        let (lo, hi) = n.minmax_excluding_max();
        assert!((-0.1..=0.0).contains(&lo), "lo {lo}");
        assert!(hi > 0.0 && hi < 0.1, "hi {hi}");
    }

    /// Values the normalizer and the min/max fold must handle as the
    /// serial scans they replaced do: ±0, subnormals, ±inf and NaNs of
    /// both signs.
    pub(crate) const SPECIALS: [f32; 9] = [
        0.0,
        -0.0,
        f32::MIN_POSITIVE / 4.0,
        -f32::MIN_POSITIVE / 4.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0xFF80_0001),
    ];

    /// The absmax scan the normalizer ran before its packed fold, the
    /// oracle `absmax_position` is held to.
    fn absmax_scan(group: &[f32]) -> usize {
        let mut max_pos = 0usize;
        let mut max_abs = 0f32;
        for (i, &x) in group.iter().enumerate() {
            if x.abs() > max_abs {
                max_abs = x.abs();
                max_pos = i;
            }
        }
        max_pos
    }

    proptest! {
        #[test]
        fn absmax_position_matches_serial_scan(
            lattice in prop::collection::vec(-6i32..=6, 1..=128),
            specials in prop::collection::vec((0usize..128, 0usize..SPECIALS.len()), 0..12),
            ties in any::<bool>(),
        ) {
            // Quarter steps and repeated magnitudes in both signs.
            let mut g: Vec<f32> = lattice.iter().map(|&q| q as f32 / 4.0).collect();
            if ties {
                let last = g.len() - 1;
                g[last] = -1.5;
                g[last / 2] = 1.5;
            }
            for &(pos, which) in &specials {
                if let Some(x) = g.get_mut(pos) {
                    *x = SPECIALS[which];
                }
            }
            prop_assert_eq!(absmax_position(&g), absmax_scan(&g));
        }

        #[test]
        fn scale_error_bounded_by_fp8(vals in prop::collection::vec(-100.0f32..100.0, 2..128)) {
            let absmax = vals.iter().fold(0f32, |m, &x| m.max(x.abs()));
            prop_assume!(absmax > 1e-3);
            let scale = Po2Scale::for_absmax(absmax, F8E4M3::MAX_FINITE);
            let n = normalize_group(&vals, scale);
            // FP8 E4M3 relative error ≤ 2^-4.
            prop_assert!(
                (n.scale_signed.abs() - absmax).abs() <= absmax * 0.0625 + 1e-6,
                "absmax {} stored as {}", absmax, n.scale_signed
            );
        }
    }
}
