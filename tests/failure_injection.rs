//! Failure injection: corrupted, truncated and adversarial blocks must
//! never panic, and header corruption must be reported.

use ecco::bits::{BitWriter, Block64, BLOCK_BITS};
use ecco::codec::block::{DecodeError, DecodeErrorKind};
use ecco::codec::wire::{decode_tensor, encode_tensor};
use ecco::codec::{decode_group, encode_group, BatchOutcome, CompressedTensor, RecoveryPolicy};
use ecco::hw::{decode_block_parallel, decode_tensors_batch_report};
use ecco::prelude::*;

fn test_meta() -> (TensorMetadata, Tensor) {
    let t = SynthSpec::for_kind(TensorKind::Weight, 16, 1024)
        .seeded(2001)
        .generate();
    let cfg = EccoConfig {
        num_patterns: 16,
        max_calibration_groups: 256,
        ..EccoConfig::default()
    };
    let meta = TensorMetadata::calibrate(&[&t], &cfg, PatternSelector::MseOptimal);
    (meta, t)
}

/// A whole block stream through the hardware model's batch decode (a
/// batch of one), flattened to a `Result`.
fn hw_decode(blocks: &[Block64], meta: &TensorMetadata) -> Result<Vec<f32>, DecodeError> {
    match decode_tensors_batch_report(&[(blocks, meta)], RecoveryPolicy::FailTensor).remove(0) {
        BatchOutcome::Ok(values) => Ok(values),
        other => Err(*other.first_error().expect("not ok")),
    }
}

#[test]
fn single_bit_flips_never_panic() {
    let (meta, t) = test_meta();
    let g = t.groups(128).next().unwrap();
    let (block, _) = encode_group(g, &meta, PatternSelector::MseOptimal);
    for bit in 0..BLOCK_BITS {
        let mut bytes = *block.as_bytes();
        bytes[bit / 8] ^= 1 << (7 - bit % 8);
        let corrupted = Block64::from_bytes(bytes);
        match decode_group(&corrupted, &meta) {
            Ok((vals, _)) => assert_eq!(vals.len(), 128),
            Err(e) => assert!(matches!(
                e.kind,
                DecodeErrorKind::BadPatternId
                    | DecodeErrorKind::BadBookId
                    | DecodeErrorKind::BadScaleFactor
            )),
        }
        // The parallel model must agree with the sequential decoder even
        // on corrupted data (same error or same values).
        match (
            decode_group(&corrupted, &meta),
            decode_block_parallel(&corrupted, &meta),
        ) {
            (Ok((a, _)), Ok((b, _))) => assert_eq!(a, b, "bit {bit}"),
            (Err(ea), Err(eb)) => assert_eq!(ea, eb, "bit {bit}"),
            (a, b) => panic!("decoders disagree on bit {bit}: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn all_zero_and_all_one_blocks() {
    let (meta, _) = test_meta();
    for fill in [0x00u8, 0xFF] {
        let block = Block64::from_bytes([fill; 64]);
        if let Ok((vals, _)) = decode_group(&block, &meta) {
            assert_eq!(vals.len(), 128)
        }
    }
}

#[test]
fn truncated_writer_blocks_are_zero_padded_safely() {
    let (meta, _) = test_meta();
    // A header-only block: valid header fields, no symbol data at all.
    let mut w = BitWriter::new();
    w.write_bits(0, meta.id_hf_bits()); // book 0
    w.write_bits(0x38, 8); // SF = 1.0 in FP8
    meta.pattern_code().encode_symbol(&mut w, 0);
    let block = Block64::from_writer(w).unwrap();
    let (vals, info) = decode_group(&block, &meta).expect("header is valid");
    assert_eq!(vals.len(), 128);
    // Whatever the zero-fill decodes to, the total is always 128 values
    // and the clip accounting covers the remainder.
    assert_eq!(info.decoded_symbols + info.clipped_symbols, 128);
}

#[test]
fn random_blocks_fuzz_both_decoders() {
    let (meta, _) = test_meta();
    let mut state = 0xDEADBEEFu64;
    for _ in 0..500 {
        let mut bytes = [0u8; 64];
        for b in &mut bytes {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *b = (state >> 56) as u8;
        }
        let block = Block64::from_bytes(bytes);
        let seq = decode_group(&block, &meta);
        let par = decode_block_parallel(&block, &meta);
        match (seq, par) {
            (Ok((a, _)), Ok((b, _))) => assert_eq!(a, b),
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("decoders disagree: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn batched_pipeline_survives_truncated_and_garbage_blocks() {
    // Drive adversarial blocks through the *batched* sharded path
    // (window and LUT probes along the EOP chain per worker run):
    // truncated header-only blocks, zero/one fill, and pseudo-random
    // garbage. The pipeline must never panic, must report the first
    // per-block error in order, and on decodable sets must be
    // bit-identical to per-block decoding.
    let (meta, _) = test_meta();

    // Truncated block: valid header, zero symbol data (the encoder's
    // zero-fill clip shape).
    let mut w = BitWriter::new();
    w.write_bits(0, meta.id_hf_bits());
    w.write_bits(0x38, 8); // SF = 1.0 in FP8
    meta.pattern_code().encode_symbol(&mut w, 0);
    let truncated = Block64::from_writer(w).unwrap();

    let mut candidates = vec![truncated, Block64::from_bytes([0x00; 64])];
    let mut state = 0xFEE1_5EEDu64;
    for _ in 0..200 {
        let mut bytes = [0u8; 64];
        for b in &mut bytes {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *b = (state >> 56) as u8;
        }
        candidates.push(Block64::from_bytes(bytes));
    }

    // Keep only blocks whose headers parse, so the batch is decodable
    // end-to-end; the rejected rest must error identically through the
    // batched path.
    let decodable: Vec<Block64> = candidates
        .iter()
        .copied()
        .filter(|b| decode_group(b, &meta).is_ok())
        .collect();
    assert!(decodable.len() > 1, "need decodable garbage in the batch");

    let mut reference = Vec::new();
    for b in &decodable {
        reference.extend(decode_block_parallel(b, &meta).unwrap().0);
    }
    let batched = hw_decode(&decodable, &meta).unwrap();
    assert_eq!(batched, reference, "batched pipeline diverged on garbage");

    // A batch containing a corrupted header must surface that block's
    // error, exactly as the sequential loop would — now located at the
    // block's index in the batch.
    if let Some(bad) = candidates.iter().find(|b| decode_group(b, &meta).is_err()) {
        let mixed = vec![decodable[0], *bad, decodable[1]];
        let got = hw_decode(&mixed, &meta).unwrap_err();
        assert_eq!(got.kind, decode_group(bad, &meta).unwrap_err().kind);
        assert_eq!(got.block, Some(1), "error must locate the corrupt block");
    }
}

#[test]
fn batched_submission_isolates_injected_failures_per_tensor() {
    // The multi-tensor batch API under the same adversarial inputs as
    // the single-pipeline test above: truncated (header-only) and
    // garbage blocks are injected into *some* tensors of a batch, and
    // each slot must fail or succeed exactly as its own per-block loop
    // would. No panic may escape, and healthy tensors must decode
    // bit-identically to the sequential reference regardless of their
    // neighbours.
    let (meta, t) = test_meta();
    let good: Vec<Block64> = t
        .groups(128)
        .take(8)
        .map(|g| encode_group(g, &meta, PatternSelector::MseOptimal).0)
        .collect();

    // Truncated: valid header, no symbol data (decodes, zero-filled).
    let mut w = BitWriter::new();
    w.write_bits(0, meta.id_hf_bits());
    w.write_bits(0x38, 8); // SF = 1.0 in FP8
    meta.pattern_code().encode_symbol(&mut w, 0);
    let truncated = Block64::from_writer(w).unwrap();
    let mut with_truncated = good.clone();
    with_truncated[4] = truncated;

    // Garbage that fails header parse (all-ones SF decodes to NaN).
    let mut with_garbage = good.clone();
    with_garbage[2] = Block64::from_bytes([0xFF; 64]);
    let want_err = decode_group(&with_garbage[2], &meta).unwrap_err();

    let reference: Vec<f32> = good
        .iter()
        .flat_map(|b| decode_group(b, &meta).unwrap().0)
        .collect();
    let truncated_reference: Vec<f32> = with_truncated
        .iter()
        .flat_map(|b| decode_group(b, &meta).unwrap().0)
        .collect();

    let results = decode_tensors_batch_report(
        &[
            (&good, &meta),
            (&with_garbage, &meta),
            (&with_truncated, &meta),
            (&good, &meta),
        ],
        RecoveryPolicy::FailTensor,
    );
    assert_eq!(results[0].values().unwrap(), &reference);
    let got = results[1].first_error().unwrap();
    assert!(!results[1].is_ok() && results[1].values().is_none());
    assert_eq!(got.kind, want_err.kind);
    assert_eq!(
        (got.tensor, got.block),
        (Some(1), Some(2)),
        "batch error must locate the garbage block"
    );
    assert_eq!(results[2].values().unwrap(), &truncated_reference);
    assert_eq!(results[3].values().unwrap(), &reference);
}

#[test]
fn multi_bit_corruption_never_panics_and_decoders_agree() {
    // The satellite beyond single-bit flips: 2..=16 simultaneous bit
    // flips scattered across one block, driven through both the
    // sequential and parallel decoders. Never a panic, always agreement.
    let (meta, t) = test_meta();
    let g = t.groups(128).next().unwrap();
    let (block, _) = encode_group(g, &meta, PatternSelector::MseOptimal);
    let mut state = 0xC0FFEE42u64;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    for trial in 0..300 {
        let flips = 2 + rng() % 15;
        let mut bytes = *block.as_bytes();
        for _ in 0..flips {
            let bit = rng() % BLOCK_BITS;
            bytes[bit / 8] ^= 1 << (7 - bit % 8);
        }
        let corrupted = Block64::from_bytes(bytes);
        match (
            decode_group(&corrupted, &meta),
            decode_block_parallel(&corrupted, &meta),
        ) {
            (Ok((a, _)), Ok((b, _))) => {
                assert_eq!(a.len(), 128);
                assert_eq!(a, b, "trial {trial}");
            }
            (Err(ea), Err(eb)) => assert_eq!(ea, eb, "trial {trial}"),
            (a, b) => panic!("decoders disagree on trial {trial}: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn cross_block_corruption_is_located_at_the_right_block() {
    // Corruption spanning *several* blocks of one stream: every corrupt
    // block is independent (blocks are self-contained), and the batched
    // pipeline must report the FIRST corrupt block's index, while the
    // salvage report names every one of them.
    let (meta, t) = test_meta();
    let good: Vec<Block64> = t
        .groups(128)
        .take(12)
        .map(|g| encode_group(g, &meta, PatternSelector::MseOptimal).0)
        .collect();

    // Find blocks that reliably fail header parse when NaN-scaled.
    let make_bad = |b: &Block64| {
        let mut bytes = *b.as_bytes();
        // Force the SF byte (bits id_hf_bits..id_hf_bits+8) to NaN by
        // saturating the first two bytes — same shape as the single-bit
        // test's worst case.
        bytes[0] = 0xFF;
        bytes[1] = 0xFF;
        Block64::from_bytes(bytes)
    };
    let mut corrupted = good.clone();
    for &i in &[3usize, 7, 9] {
        corrupted[i] = make_bad(&corrupted[i]);
        assert!(decode_group(&corrupted[i], &meta).is_err());
    }

    // Fail-fast pipeline: first corrupt block in block order.
    let err = hw_decode(&corrupted, &meta).unwrap_err();
    assert_eq!(err.block, Some(3), "first corrupt block is index 3");
    assert_eq!(
        err.kind,
        decode_group(&corrupted[3], &meta).unwrap_err().kind
    );

    // Salvage report: all three named, in block order, others intact.
    let report = decode_tensors_batch_report(
        &[(&corrupted, &meta), (&good, &meta)],
        RecoveryPolicy::SalvageBlocks,
    );
    let healthy: Vec<f32> = good
        .iter()
        .flat_map(|b| decode_group(b, &meta).unwrap().0)
        .collect();
    assert_eq!(report[1].values().unwrap(), &healthy);
    match &report[0] {
        BatchOutcome::Salvaged { values, bad_blocks } => {
            let located: Vec<Option<usize>> = bad_blocks.iter().map(|e| e.block).collect();
            assert_eq!(located, vec![Some(3), Some(7), Some(9)]);
            assert!(bad_blocks.iter().all(|e| e.tensor == Some(0)));
            let gs = ecco::tensor::GROUP_SIZE;
            for (i, b) in good.iter().enumerate() {
                let got = &values[i * gs..(i + 1) * gs];
                if [3, 7, 9].contains(&i) {
                    assert!(got.iter().all(|&v| v == 0.0), "block {i} must be zeroed");
                } else {
                    assert_eq!(got, &decode_group(b, &meta).unwrap().0, "block {i}");
                }
            }
        }
        other => panic!("expected salvage, got {other:?}"),
    }
}

#[test]
fn decompress_batch_locates_malformed_tensors_instead_of_panicking() {
    // A block list one short or one long fails its own slot with a
    // located error in both codecs' `decompress_batch`, exactly as the
    // report does; the healthy neighbour still decodes. No tensor can
    // declare another group size: ingest refuses a frame that does.
    let cfg = EccoConfig {
        num_patterns: 16,
        max_calibration_groups: 64,
        ..EccoConfig::default()
    };
    let w = SynthSpec::for_kind(TensorKind::Weight, 4, 256)
        .seeded(2101)
        .generate();
    let kv = SynthSpec::for_kind(TensorKind::KCache, 4, 256)
        .seeded(2102)
        .generate();
    let weight = WeightCodec::calibrate(&[&w], &cfg);
    let kv_codec = KvCodec::calibrate(&[&kv], &cfg);
    let (wct, kct) = (weight.compress(&w).0, kv_codec.compress(&kv).0);
    type BatchFn<'a> = &'a dyn Fn(&[&CompressedTensor]) -> Vec<Result<Tensor, DecodeError>>;
    let arms: [(&CompressedTensor, Tensor, BatchFn); 2] = [
        (&wct, weight.decompress(&wct), &|cts| {
            weight.decompress_batch(cts)
        }),
        (&kct, kv_codec.decompress(&kct), &|cts| {
            kv_codec.decompress_batch(cts)
        }),
    ];
    for (ct, want, decompress_batch) in arms {
        let n = ct.blocks().len();
        let short = ct.with_blocks(ct.blocks()[..n - 1].to_vec());
        let long = ct.with_blocks([ct.blocks(), &ct.blocks()[..1]].concat());
        let mut frame = encode_tensor(&ct.with_blocks([ct.blocks(), ct.blocks()].concat()));
        frame[14..18].copy_from_slice(&64u32.to_le_bytes());
        assert_eq!(
            decode_tensor(&frame).unwrap_err().kind,
            DecodeErrorKind::CorruptMetadata,
            "a frame declaring 64-value groups"
        );

        let out = decompress_batch(&[&short, &long, ct]);
        let located: Vec<_> = out[..2]
            .iter()
            .map(|r| {
                let e = r.as_ref().unwrap_err();
                (e.kind, e.tensor, e.block)
            })
            .collect();
        assert_eq!(
            located,
            [
                (DecodeErrorKind::TruncatedStream, Some(0), Some(n - 1)),
                (DecodeErrorKind::LengthMismatch, Some(1), Some(n + 1)),
            ]
        );
        assert_eq!(out[2].as_ref().unwrap().data(), want.data());
    }
}

#[test]
fn activation_codec_handles_extremes() {
    let codec = ActivationCodec::new();
    // Saturated FP16 values, constant groups, alternating signs.
    for pattern in [
        vec![60000.0f32; 64],
        vec![-60000.0f32; 64],
        (0..64)
            .map(|i| if i % 2 == 0 { 1e4 } else { -1e4 })
            .collect::<Vec<_>>(),
        vec![0.0f32; 64],
    ] {
        let block = codec.compress_group(&pattern);
        let out = codec.decompress_group(&block);
        assert_eq!(out.len(), 64);
        for (a, b) in pattern.iter().zip(&out) {
            assert!(
                (a - b).abs() <= (a.abs() * 0.02).max(1e-3) + (pattern_range(&pattern) / 127.0),
                "{a} -> {b}"
            );
        }
    }
}

fn pattern_range(p: &[f32]) -> f32 {
    let lo = p.iter().cloned().fold(f32::INFINITY, f32::min);
    let hi = p.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    hi - lo
}
