//! Adversarial-input fuzzing of the *encode* path.
//!
//! The ingest fuzz layer (`fuzz_ingest.rs`) attacks serialized bytes;
//! this file attacks the other untrusted boundary: raw `f32` tensors
//! fed to `calibrate` + `compress`. Real checkpoints contain NaNs from
//! diverged training runs, infinities from overflowed optimizers,
//! denormal tails and negative zeros — none of which may panic the
//! encoder or emit blocks its own decoder rejects. The invariants:
//!
//! * **never panic**: any f32 storm — NaN/±inf floods, denormal dust,
//!   all-equal groups, mixed garbage — calibrates and compresses;
//! * **self-decodable output**: whatever the encoder emits, its own
//!   decoder accepts (garbage in, *typed values* out — non-finite
//!   inputs land as zero-scale groups, never as undecodable blocks);
//! * **bit-identical decode** for finite inputs across both window
//!   dispatch arms (SIMD and portable) and pools {1, 4} — the encoder
//!   must not produce blocks whose decode is tier- or pool-dependent.

use ecco::bits::{set_window_dispatch, window_dispatch, WindowDispatch};
use ecco::codec::{EccoConfig, WeightCodec};
use ecco::prelude::*;
use proptest::prelude::*;

const ROWS: usize = 2;
const COLS: usize = 256;

fn small_cfg() -> EccoConfig {
    EccoConfig {
        num_patterns: 8,
        books_per_pattern: 2,
        max_calibration_groups: 64,
        ..EccoConfig::default()
    }
}

/// One adversarial f32: heavily weighted toward the values that break
/// naive float handling, with a sprinkling of ordinary magnitudes.
fn adversarial_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        2 => Just(f32::NAN),
        2 => Just(f32::INFINITY),
        2 => Just(f32::NEG_INFINITY),
        2 => Just(-0.0f32),
        2 => Just(0.0f32),
        2 => Just(f32::MIN_POSITIVE / 4.0), // subnormal
        1 => Just(-f32::MIN_POSITIVE / 4.0),
        1 => Just(f32::MAX),
        1 => Just(f32::MIN),
        1 => Just(1.0e-38f32),
        4 => -1.0e4f32..1.0e4f32,
    ]
}

/// Decodes `ct` on both dispatch arms and pools {1, 4} and asserts every
/// arm reproduces `want` bit-exactly.
fn assert_decode_invariant_everywhere(
    codec: &WeightCodec,
    ct: &ecco::codec::CompressedTensor,
    want: &[f32],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let prior = window_dispatch();
    for tier in [prior, WindowDispatch::Portable] {
        set_window_dispatch(tier);
        for threads in [1usize, 4] {
            let pool = PoolBuilder::new().threads(threads).build();
            let got = with_pool(&pool, || codec.decompress(ct));
            if got.data() != want {
                set_window_dispatch(prior);
                prop_assert_eq!(
                    got.data(),
                    want,
                    "decode diverged on tier {:?} pool {}",
                    tier,
                    threads
                );
            }
        }
    }
    set_window_dispatch(prior);
    Ok(())
}

proptest! {
    /// The core storm property: calibrate + compress any adversarial
    /// tensor without panicking, and the emitted blocks must decode —
    /// the encoder is never allowed to write a block its own decoder
    /// rejects, whatever garbage went in.
    #[test]
    fn encoder_survives_adversarial_storms(
        values in prop::collection::vec(adversarial_f32(), ROWS * COLS),
    ) {
        // The codec's numeric pipeline is FP16-range by design (the
        // paper's scales are f16-rounded), so "finite in → finite out"
        // is only promised inside that range; f32::MAX-scale inputs
        // overflow the scale path deterministically.
        let in_f16_range = values
            .iter()
            .all(|v| v.is_finite() && v.abs() <= 3.0e4);
        let t = Tensor::from_vec(ROWS, COLS, values);
        let codec = WeightCodec::calibrate(&[&t], &small_cfg());

        // Calibration on garbage must still produce metadata the wire
        // ingest accepts — non-finite centroids would be rejected as
        // corrupt by the very decoder this snapshot feeds.
        for p in &codec.metadata().patterns {
            prop_assert!(
                p.centroids().iter().all(|c| c.is_finite()),
                "calibration emitted a non-finite centroid"
            );
        }

        let (ct, _) = codec.compress(&t);
        let decoded = codec.decompress(&ct);
        prop_assert_eq!(decoded.len(), ROWS * COLS);
        if in_f16_range {
            prop_assert!(
                decoded.data().iter().all(|v| v.is_finite()),
                "finite in-range input decoded to a non-finite value"
            );
        }
        // Arm agreement is only assertable when the output has no NaNs
        // (NaN breaks bit-equality); every finite-output case gets it.
        if decoded.data().iter().all(|v| v.is_finite()) {
            assert_decode_invariant_everywhere(&codec, &ct, decoded.data())?;
        }
    }

    /// Finite-only storms additionally pin batch-encode determinism:
    /// `compress_batch` under pools {1, 4} emits the same blocks as the
    /// sequential `compress`, bit for bit.
    #[test]
    fn finite_storms_compress_identically_across_pools(
        values in prop::collection::vec(-1.0e4f32..1.0e4f32, ROWS * COLS),
    ) {
        let t = Tensor::from_vec(ROWS, COLS, values);
        let codec = WeightCodec::calibrate(&[&t], &small_cfg());
        let (want, _) = codec.compress(&t);
        for threads in [1usize, 4] {
            let pool = PoolBuilder::new().threads(threads).build();
            let got = with_pool(&pool, || codec.compress_batch(&[&t]));
            prop_assert_eq!(
                got[0].0.blocks(),
                want.blocks(),
                "pool {} batch encode diverged", threads
            );
        }
        assert_decode_invariant_everywhere(&codec, &want, codec.decompress(&want).data())?;
    }
}

/// The named worst cases, deterministically — storms proptest might not
/// compose in one run: whole-tensor floods of each special value and
/// the all-equal groups that collapse every centroid onto one point.
#[test]
fn special_value_floods_never_panic() {
    // (flood value, must the decode be finite?) — f32::MAX and ±inf
    // overflow the FP16-range scale path by design, so they only get
    // the no-panic + self-decodable guarantees.
    let floods: &[(&str, f32, bool)] = &[
        ("all-NaN", f32::NAN, true),
        ("all +inf", f32::INFINITY, true),
        ("all -inf", f32::NEG_INFINITY, true),
        ("all -0.0", -0.0, true),
        ("all zero", 0.0, true),
        ("all subnormal", f32::MIN_POSITIVE / 4.0, true),
        ("all f32::MAX", f32::MAX, false),
        ("all-equal 1.0", 1.0, true),
        ("all-equal -5.0", -5.0, true),
    ];
    for &(name, v, expect_finite) in floods {
        let t = Tensor::from_vec(ROWS, COLS, vec![v; ROWS * COLS]);
        let codec = WeightCodec::calibrate(&[&t], &small_cfg());
        let (ct, _) = codec.compress(&t);
        let decoded = codec.decompress(&ct);
        assert_eq!(decoded.len(), ROWS * COLS, "{name}: wrong output length");
        if expect_finite {
            assert!(
                decoded.data().iter().all(|x| x.is_finite()),
                "{name}: decoder emitted non-finite values"
            );
        }
    }

    // The all-equal floods must also round-trip accurately: an
    // all-equal group stores its value in the scale slot, so the decode
    // error is just FP8 scale rounding.
    for v in [1.0f32, -5.0] {
        let t = Tensor::from_vec(ROWS, COLS, vec![v; ROWS * COLS]);
        let codec = WeightCodec::calibrate(&[&t], &small_cfg());
        let (ct, _) = codec.compress(&t);
        for &x in codec.decompress(&ct).data() {
            assert!((x - v).abs() <= v.abs() * 0.07, "all-equal {v} decoded {x}");
        }
    }

    // A group that is entirely NaNs-and-zeros puts NaN in the absmax
    // slot — the one arrangement that used to panic the encoder's
    // internal stats decode. It must encode as a zero-scale group that
    // round-trips to exact zeros.
    let mut values = vec![0.0f32; ROWS * COLS];
    values[3] = f32::NAN;
    values[COLS + 7] = f32::NAN;
    let t = Tensor::from_vec(ROWS, COLS, values);
    let codec = WeightCodec::calibrate(&[&t], &small_cfg());
    let (ct, _) = codec.compress(&t);
    assert!(codec.decompress(&ct).data().iter().all(|&x| x == 0.0));
}

/// Calibrating on garbage and compressing healthy data must also hold:
/// a poisoned calibration set cannot brick the codec for clean tensors.
#[test]
fn poisoned_calibration_still_encodes_clean_tensors() {
    let poison = Tensor::from_vec(
        ROWS,
        COLS,
        (0..ROWS * COLS)
            .map(|i| match i % 5 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => -0.0,
                3 => f32::MIN_POSITIVE / 4.0,
                _ => (i as f32).sin(),
            })
            .collect(),
    );
    let clean = SynthSpec::for_kind(TensorKind::Weight, ROWS, COLS)
        .seeded(0xE4C0)
        .generate();
    let codec = WeightCodec::calibrate(&[&poison], &small_cfg());
    let (ct, _) = codec.compress(&clean);
    let decoded = codec.decompress(&ct);
    assert!(decoded.data().iter().all(|v| v.is_finite()));
    assert!(ecco::tensor::stats::nmse(&clean, &decoded).is_finite());
}
