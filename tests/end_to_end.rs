//! Cross-crate integration: the full pipeline from synthetic model to
//! compressed blocks, hardware models and the timing simulator.

use ecco::codec::{decode_group, encode_group};
use ecco::hw::{decode_block_parallel, HwCompressor};
use ecco::prelude::*;
use ecco::tensor::stats::nmse;

#[test]
fn weight_pipeline_end_to_end() {
    let w = SynthSpec::for_kind(TensorKind::Weight, 64, 1024)
        .seeded(1001)
        .generate();
    let codec = WeightCodec::calibrate(&[&w], &EccoConfig::default());
    let (ct, _) = codec.compress(&w);

    // Exactly 4x, block-for-block.
    assert_eq!(ct.compressed_bytes() * 4, w.len() * 2);
    assert_eq!(ct.blocks().len(), w.len() / 128);

    // Reconstruction quality in the 4-bit class.
    let out = codec.decompress(&ct);
    let e = nmse(&w, &out);
    assert!(e < 0.02, "weight NMSE {e}");

    // Every block decodes identically through the hardware parallel model.
    let meta = codec.metadata().with_scale(TensorMetadata::scale_for(&w));
    for block in ct.blocks().iter().take(64) {
        let (seq, _) = decode_group(block, &meta).expect("valid block");
        let (par, _) = decode_block_parallel(block, &meta).expect("valid block");
        assert_eq!(seq, par);
    }
}

#[test]
fn kv_pipeline_with_hw_compressor() {
    let k = SynthSpec::for_kind(TensorKind::KCache, 64, 1024)
        .seeded(1002)
        .generate();
    let codec = KvCodec::calibrate(&[&k], &EccoConfig::default());
    let meta = codec.metadata().with_scale(TensorMetadata::scale_for(&k));
    let hw = HwCompressor::new(codec.metadata(), TensorMetadata::scale_for(&k));

    for group in k.groups(128).take(128) {
        let (sw_block, sw_info) = encode_group(group, &meta, PatternSelector::MinMax);
        let (hw_block, hw_info, trace) = hw.compress_group(group);
        assert_eq!(sw_block.as_bytes(), hw_block.as_bytes(), "hw == sw codec");
        assert_eq!(sw_info, hw_info);
        assert_eq!(trace.sorter_stages, 28);
    }
}

#[test]
fn activation_pipeline_2x() {
    let a = SynthSpec::for_kind(TensorKind::Activation, 64, 1024)
        .seeded(1003)
        .generate();
    let codec = ActivationCodec::new();
    let (blocks, stats) = codec.compress(&a);
    assert_eq!(blocks.len() * 64 * 2, a.len() * 2);
    let out = codec.decompress(&blocks, a.rows(), a.cols());
    assert!(nmse(&a, &out) < 1e-3);
    assert!(stats.clip_ratio() == 0.0, "2x path never clips");
}

#[test]
fn compression_feeds_simulator_consistently() {
    // The simulator's Ecco scheme assumes 4x weights/KV and 2x
    // activations; the codec must actually deliver those ratios.
    let w = SynthSpec::for_kind(TensorKind::Weight, 32, 1024)
        .seeded(1004)
        .generate();
    let codec = WeightCodec::calibrate(&[&w], &EccoConfig::default());
    let (ct, _) = codec.compress(&w);
    let achieved_bits = ct.compressed_bytes() as f64 * 8.0 / w.len() as f64;
    let scheme = ExecScheme::ecco();
    assert!(
        (achieved_bits - scheme.weight_bits).abs() < 1e-9,
        "codec delivers {achieved_bits} bits/value; simulator assumes {}",
        scheme.weight_bits
    );

    // And the end-to-end consequence: a >2x decode speedup on LLaMA-13B.
    let engine = SimEngine::new(GpuSpec::a100());
    let wl = DecodeWorkload::new(ModelSpec::llama_13b(), 8, 2048);
    let fp16 = wl.step_time(&engine, &ExecScheme::fp16_trt()).total;
    let ecco = wl.step_time(&engine, &scheme).total;
    assert!(fp16 / ecco > 2.0, "speedup {}", fp16 / ecco);
}

#[test]
fn memory_footprint_matches_block_accounting() {
    // Figure 12's footprint model vs actual blocks for a small model.
    let model = ModelSpec::llama_7b();
    let fp = ecco::llm::memory::footprint(&model, &ExecScheme::ecco(), 1, 128);
    let fp16 = ecco::llm::memory::footprint(&model, &ExecScheme::fp16_trt(), 1, 128);
    let ratio = fp16.total() / fp.total();
    assert!(ratio > 3.9 && ratio <= 4.0, "memory reduction {ratio}");
}

#[test]
fn cross_kind_calibration_generalizes() {
    // Calibrate the weight codec on two tensors, compress a third drawn
    // from the same distribution family but a different seed.
    let a = SynthSpec::for_kind(TensorKind::Weight, 32, 1024)
        .seeded(1)
        .generate();
    let b = SynthSpec::for_kind(TensorKind::Weight, 32, 1024)
        .seeded(2)
        .generate();
    let c = SynthSpec::for_kind(TensorKind::Weight, 32, 1024)
        .seeded(3)
        .generate();
    let codec = WeightCodec::calibrate(&[&a, &b], &EccoConfig::default());
    let (out, _) = codec.roundtrip(&c);
    assert!(
        nmse(&c, &out) < 0.03,
        "generalization NMSE {}",
        nmse(&c, &out)
    );
}
