//! Root-package round-trip through the parallel codec APIs.
//!
//! Tier-1 verification (`cargo test -q` at the repo root) runs only this
//! package's tests, so this file is what guarantees the batched decoder
//! front end (`BlockCursor::windows_all` + `SegmentLut` probes along the
//! EOP chain) is exercised on every tier-1 run — on both dispatch arms — not just
//! by the workspace CI run.

use ecco::bits::{set_window_dispatch, window_dispatch, WindowDispatch};
use ecco::prelude::*;

#[test]
fn weight_roundtrip_through_parallel_codec_and_batched_decoder() {
    let t = SynthSpec::for_kind(TensorKind::Weight, 16, 512)
        .seeded(4001)
        .generate();
    let codec = WeightCodec::calibrate(&[&t], &EccoConfig::default());

    // Parallel compress/decompress round-trips and matches the
    // sequential path bit-for-bit.
    let (ct, stats) = codec.compress_parallel(&t);
    assert!(stats.nmse() < 0.05, "nmse {}", stats.nmse());
    let out = codec.decompress_parallel(&ct);
    assert_eq!((out.rows(), out.cols()), (t.rows(), t.cols()));
    let (ct_seq, _) = codec.compress(&t);
    assert_eq!(ct.blocks(), ct_seq.blocks(), "parallel encode diverged");
    assert_eq!(out.data(), codec.decompress(&ct_seq).data());

    // The hardware model's batched window-extraction front end must
    // reconstruct the identical values — through the host's dispatch
    // tier (SIMD where supported) and through the forced-scalar arm.
    let meta = codec.metadata().with_scale(ct.tensor_scale());
    let host_tier = window_dispatch();
    let hw_batched = ecco::hw::decode_blocks_parallel(ct.blocks(), &meta).unwrap();
    set_window_dispatch(WindowDispatch::Portable);
    let hw_scalar = ecco::hw::decode_blocks_parallel(ct.blocks(), &meta);
    set_window_dispatch(host_tier);
    assert_eq!(hw_batched, out.data(), "batched hw decode diverged");
    assert_eq!(
        hw_scalar.unwrap(),
        out.data(),
        "forced-scalar hw decode diverged"
    );
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
    let (ct, _) = codec.compress_parallel(&t);
    let out = codec.decompress_parallel(&ct);

    let mut revived = codec.metadata().with_scale(ct.tensor_scale());
    revived.rebuild_tables();
    let vals = ecco::hw::decode_blocks_parallel(ct.blocks(), &revived)
        .expect("revived metadata must decode without a warm-up call");
    assert_eq!(vals, out.data());
}
