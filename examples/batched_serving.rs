//! Multi-tensor serving through the persistent worker pool: many
//! concurrent requests' KV-cache segments compressed and decompressed
//! as **batched submissions** instead of back-to-back per-tensor
//! pipelines.
//!
//! This is the software model of the paper's serving regime — the
//! hardware decoder earns its throughput by keeping many independent
//! blocks in flight; the pool earns its by keeping many independent
//! *requests'* blocks in one shared work queue, so small per-request
//! tensors never pay a per-call thread spawn and concurrent codecs never
//! oversubscribe threads.
//!
//! Run with `cargo run --release --example batched_serving`.

use ecco::bits::Block64;
use ecco::codec::RecoveryPolicy;
use ecco::prelude::*;

fn main() {
    let model = ModelSpec::llama31_8b();
    let requests = 24usize;
    let seq = 128usize; // tokens per request segment (demo-sized)
    let (rows, cols) = model.kv_request_shape(seq);

    println!(
        "{} | per-request K segment {rows}x{cols} ({} KiB FP16) | {requests} live requests",
        model.name,
        rows * cols * 2 / 1024,
    );

    // One synthetic K-cache segment per live request.
    let segments: Vec<Tensor> = (0..requests)
        .map(|r| {
            SynthSpec::for_kind(TensorKind::KCache, rows, cols)
                .seeded(7000 + r as u64)
                .generate()
        })
        .collect();
    let refs: Vec<&Tensor> = segments.iter().collect();

    let cfg = EccoConfig {
        max_calibration_groups: 512,
        ..EccoConfig::default()
    };
    // Calibrate on up to the first 4 requests — clamped so a smaller
    // demo (fewer live requests) calibrates on what exists instead of
    // panicking; at the default 24 requests the slice is unchanged.
    let codec = KvCodec::calibrate(&refs[..refs.len().min(4)], &cfg);

    // Per-tensor loop: each request runs its own pipeline, one after the
    // other (what a naive server does).
    let t0 = std::time::Instant::now();
    let per_tensor: Vec<_> = refs.iter().map(|t| codec.compress(t)).collect();
    let loop_enc = t0.elapsed();

    // Batched submission: every request's groups enter the shared pool
    // as one chunk list.
    let t0 = std::time::Instant::now();
    let batched = codec.compress_batch(&refs);
    let batch_enc = t0.elapsed();

    for ((a, _), (b, _)) in per_tensor.iter().zip(&batched) {
        assert_eq!(a.blocks(), b.blocks(), "batch must be bit-identical");
    }

    // Decode side through the hardware parallel-decoder model, batched.
    let metas: Vec<TensorMetadata> = batched
        .iter()
        .map(|(ct, _)| codec.metadata().with_scale(ct.tensor_scale()))
        .collect();
    let hw_batch: Vec<(&[Block64], &TensorMetadata)> = batched
        .iter()
        .zip(&metas)
        .map(|((ct, _), m)| (ct.blocks(), m))
        .collect();
    let t0 = std::time::Instant::now();
    let decoded = ecco::hw::decode_tensors_batch_report(&hw_batch, RecoveryPolicy::FailTensor);
    let batch_dec = t0.elapsed();

    let mut worst_nmse = 0.0f64;
    for (r, t) in decoded.iter().zip(&segments) {
        let vals = r.values().expect("healthy request decodes");
        assert_eq!(vals.len(), t.len());
        let out = Tensor::from_vec(t.rows(), t.cols(), vals.to_vec());
        worst_nmse = worst_nmse.max(ecco::tensor::stats::nmse(t, &out) as f64);
    }

    let syms = (requests * rows * cols) as f64;
    println!(
        "pool ({} executors): encode loop {:.1} ms vs batch {:.1} ms | \
         batched decode {:.1} Msym/s | worst request NMSE {:.2e}",
        Pool::current().executors(),
        loop_enc.as_secs_f64() * 1e3,
        batch_enc.as_secs_f64() * 1e3,
        syms / batch_dec.as_secs_f64() / 1e6,
        worst_nmse,
    );

    // Failure isolation: a request with a corrupted segment fails alone.
    let garbage: Vec<Block64> = (0..hw_batch[0].0.len())
        .map(|_| Block64::from_bytes([0xFF; 64]))
        .collect();
    let mixed = ecco::hw::decode_tensors_batch_report(
        &[hw_batch[0], (&garbage, &metas[0]), hw_batch[1]],
        RecoveryPolicy::FailTensor,
    );
    assert!(mixed[0].is_ok() && mixed[2].is_ok());
    println!(
        "corrupted request isolated: slot 1 -> {:?}, neighbours decode clean",
        mixed[1].first_error().expect("garbage fails")
    );
}
