//! Root-package round-trip through the codec's pooled engine and the
//! hardware model's batch decode.
//!
//! Tier-1 verification (`cargo test -q` at the repo root) runs only this
//! package's tests, so this file is what guarantees the batched decoder
//! front end (`BlockCursor::windows_all` + `SegmentLut` probes along the
//! EOP chain) is exercised on every tier-1 run — on both dispatch arms — not just
//! by the workspace CI run.

use ecco::bits::{set_window_dispatch, window_dispatch, Block64, WindowDispatch};
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

    // The hardware model's batched window-extraction front end must
    // reconstruct the identical values — through the host's dispatch
    // tier (SIMD where supported) and through the forced-scalar arm.
    let meta = codec.metadata().with_scale(ct.tensor_scale());
    let host_tier = window_dispatch();
    let hw_batched = hw_decode(ct.blocks(), &meta);
    set_window_dispatch(WindowDispatch::Portable);
    let hw_scalar = hw_decode(ct.blocks(), &meta);
    set_window_dispatch(host_tier);
    assert_eq!(hw_batched, out.data(), "batched hw decode diverged");
    assert_eq!(hw_scalar, out.data(), "forced-scalar hw decode diverged");
}

#[test]
fn revived_metadata_decodes_through_batched_pipeline() {
    // Serde-style revival: rebuild_tables leaves every derived cache
    // (codebook decode LUTs, SegmentLuts, length/boundary tables) in the
    // empty state deserialization produces; the batched parallel decode
    // must self-heal them on first use and stay bit-identical.
    let t = SynthSpec::for_kind(TensorKind::KCache, 8, 512)
        .seeded(4002)
        .generate();
    let codec = WeightCodec::calibrate(&[&t], &EccoConfig::default());
    let (ct, _) = codec.compress(&t);
    let out = codec.decompress(&ct);

    let mut revived = codec.metadata().with_scale(ct.tensor_scale());
    revived.rebuild_tables();
    // Revived metadata must decode without a warm-up call.
    assert_eq!(hw_decode(ct.blocks(), &revived), out.data());
}
