//! Cold-start loading from an ECCF model container: write a compressed
//! multi-layer model to one random-access file, then reopen it and load
//! — the whole model, and a 25%-of-layers partial set — through the
//! pooled batch decoder.
//!
//! This is the serving cold-start the container exists for: a weights
//! file one quarter the FP16 size, opened without reading the tensors
//! (the tail directory says where everything lives), with partial loads
//! reading only the requested frames.
//!
//! Run with `cargo run --release --example model_container`.

use ecco::codec::{CompressedTensor, EccoConfig, WeightCodec};
use ecco::container::{write_model, Container};
use ecco::prelude::*;

fn main() {
    let layers = 12usize;
    let (rows, cols) = (64usize, 1024);

    // A synthetic transformer stack: alternating weight and KV-cache
    // shaped tensors, calibrated once.
    let tensors: Vec<Tensor> = (0..layers)
        .map(|i| {
            SynthSpec::for_kind(TensorKind::Weight, rows, cols)
                .seeded(0xECCF + i as u64)
                .generate()
        })
        .collect();
    let refs: Vec<&Tensor> = tensors.iter().collect();
    let codec = WeightCodec::calibrate(&refs[..2], &EccoConfig::default());

    let pool = PoolBuilder::new().build();
    let compressed: Vec<CompressedTensor> = with_pool(&pool, || {
        codec
            .compress_batch(&refs)
            .into_iter()
            .map(|(ct, _)| ct)
            .collect()
    });

    let names: Vec<String> = (0..layers).map(|i| format!("blk.{i}.ffn.w")).collect();
    let pairs: Vec<(&str, &CompressedTensor)> = names
        .iter()
        .map(String::as_str)
        .zip(compressed.iter())
        .collect();

    let mut path = std::env::temp_dir();
    path.push(format!("ecco_demo_{}.eccf", std::process::id()));
    write_model(&path, codec.metadata(), &pairs).unwrap();

    let fp16_bytes = layers * rows * cols * 2;
    let file_bytes = std::fs::metadata(&path).unwrap().len() as usize;
    println!(
        "wrote {layers}-layer model: {} KiB ECCF vs {} KiB FP16 ({:.2}x)",
        file_bytes / 1024,
        fp16_bytes / 1024,
        fp16_bytes as f64 / file_bytes as f64,
    );

    // Cold-start: reopen and load everything through one pooled pass.
    let all: Vec<&str> = names.iter().map(String::as_str).collect();
    let quarter: Vec<&str> = all.iter().step_by(4).copied().collect();

    // One throwaway full load so one-time lazy work (decode-table
    // builds for every codebook the model touches) doesn't bill the
    // timed loads.
    let container = Container::open(&path).unwrap();
    with_pool(&pool, || container.load(&all)).unwrap();

    let t0 = std::time::Instant::now();
    let full = with_pool(&pool, || container.load(&all)).unwrap();
    let full_t = t0.elapsed();

    let t0 = std::time::Instant::now();
    let part = with_pool(&pool, || container.load(&quarter)).unwrap();
    let part_t = t0.elapsed();

    let decoded: usize = full.iter().map(Tensor::len).sum::<usize>() * 4;
    println!(
        "full {layers} layers {:>7.2?} ({:.1} MB/s decoded) | partial {}/{layers} layers {:>7.2?}",
        full_t,
        decoded as f64 / full_t.as_secs_f64() / 1e6,
        part.len(),
        part_t,
    );

    // The container is transport, not transformation: every loaded
    // tensor is bit-identical to the direct decode.
    for (t, ct) in full.iter().zip(&compressed) {
        assert_eq!(t.data(), codec.decompress(ct).data());
    }

    std::fs::remove_file(&path).ok();
}
