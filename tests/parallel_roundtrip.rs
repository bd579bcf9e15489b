//! Root-package round-trip through the codec's pooled engine and the
//! hardware model's batch decode.
//!
//! Tier-1 verification (`cargo test -q` at the repo root) runs only this
//! package's tests, so this file is what guarantees the batched decoder
//! model (`BlockCursor::window` and `SegmentLut` probes along the EOP
//! chain) is exercised on every tier-1 run, not just by the workspace CI
//! run.

use ecco::bits::Block64;
use ecco::codec::RecoveryPolicy;
use ecco::prelude::*;

/// A whole block stream through the hardware model's batch decode (a
/// batch of one).
fn hw_decode(blocks: &[Block64], meta: &TensorMetadata) -> Vec<f32> {
    let report =
        ecco::hw::decode_tensors_batch_report(&[(blocks, meta)], RecoveryPolicy::FailTensor);
    report[0].values().expect("valid blocks").to_vec()
}

#[test]
fn weight_roundtrip_through_parallel_codec_and_batched_decoder() {
    let t = SynthSpec::for_kind(TensorKind::Weight, 16, 512)
        .seeded(4001)
        .generate();
    let codec = WeightCodec::calibrate(&[&t], &EccoConfig::default());

    // The pooled engine round-trips, on an injected multi-executor pool
    // as on a one-executor pool.
    let (ct, _) = codec.compress(&t);
    let out = codec.decompress(&ct);
    assert_eq!((out.rows(), out.cols()), (t.rows(), t.cols()));
    let e = ecco::tensor::stats::nmse(&t, &out);
    assert!(e < 0.05, "nmse {e}");
    let pinned = PoolBuilder::new().threads(1).build();
    let (ct_one, _) = with_pool(&pinned, || codec.compress(&t));
    assert_eq!(ct.blocks(), ct_one.blocks(), "pool size changed the encode");
    assert_eq!(
        out.data(),
        with_pool(&pinned, || codec.decompress(&ct)).data()
    );

    // The hardware model's batched decode must reconstruct the
    // identical values.
    let meta = codec.metadata().with_scale(ct.tensor_scale());
    let hw_batched = hw_decode(ct.blocks(), &meta);
    assert_eq!(hw_batched, out.data(), "batched hw decode diverged");
}

#[test]
fn revived_metadata_decodes_through_batched_pipeline() {
    // Metadata revived from a snapshot is as usable as the calibrated
    // metadata it came from: the codec built on it encodes the same
    // blocks, and it decodes them to the same values through the codec
    // engine and through the hardware model's batched decode.
    let t = SynthSpec::for_kind(TensorKind::KCache, 8, 512)
        .seeded(4002)
        .generate();
    let codec = WeightCodec::calibrate(&[&t], &EccoConfig::default());
    let (ct, _) = codec.compress(&t);
    let out = codec.decompress(&ct);

    let snapshot = ecco::codec::wire::encode_metadata(codec.metadata());
    let revived = ecco::codec::wire::decode_metadata(&snapshot).expect("a calibrated snapshot");
    assert_eq!(ecco::codec::wire::encode_metadata(&revived), snapshot);
    assert_eq!(hw_decode(ct.blocks(), &revived), out.data());
    let revived = WeightCodec::from_metadata(revived);
    assert_eq!(revived.compress(&t).0.blocks(), ct.blocks());
    assert_eq!(revived.decompress(&ct).data(), out.data());
}
