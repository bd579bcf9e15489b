//! Criterion micro-bench: the parallel-decoder functional model — the
//! LUT + EOP-chain walk vs the sequential per-symbol decoder, plus the
//! pooled batch decode of a whole tensor (a batch of one).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ecco_bits::Block64;
use ecco_core::{
    decode_group, encode_group, EccoConfig, PatternSelector, RecoveryPolicy, TensorMetadata,
};
use ecco_hw::{decode_block_parallel, decode_tensors_batch_report};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    use ecco_tensor::{synth::SynthSpec, TensorKind};
    let t = SynthSpec::for_kind(TensorKind::KCache, 64, 1024)
        .seeded(2)
        .generate();
    let cfg = EccoConfig {
        num_patterns: 16,
        max_calibration_groups: 256,
        ..EccoConfig::default()
    };
    let meta = TensorMetadata::calibrate(&[&t], &cfg, PatternSelector::MinMax);
    let group: Vec<f32> = t.groups(128).next().unwrap().to_vec();
    let (block, _) = encode_group(&group, &meta, PatternSelector::MinMax);
    let blocks: Vec<Block64> = t
        .groups(128)
        .take(512)
        .map(|g| encode_group(g, &meta, PatternSelector::MinMax).0)
        .collect();

    // Raw symbol decode on the block's own (book, start_bit).
    let (book, start_bit) = parse_header(&block, &meta);
    let decoder = ecco_hw::ParallelDecoder::new(book);
    let mut scratch = Vec::with_capacity(128);

    let mut g = c.benchmark_group("huffman_decode");
    g.throughput(Throughput::Elements(128));
    g.bench_function("sequential_reference", |b| {
        b.iter(|| decode_group(black_box(&block), &meta).unwrap())
    });
    g.bench_function("parallel_model_64x8", |b| {
        b.iter(|| decode_block_parallel(black_box(&block), &meta).unwrap())
    });
    g.bench_function("lut_raw_decode", |b| {
        b.iter(|| decoder.decode_into(&black_box(&block).cursor(), start_bit, 128, &mut scratch))
    });
    g.finish();

    let mut g = c.benchmark_group("multi_block");
    g.throughput(Throughput::Elements(128 * blocks.len() as u64));
    g.bench_function("pipeline_decode_512_blocks", |b| {
        b.iter(|| {
            let report = decode_tensors_batch_report(
                &[(black_box(&blocks), &meta)],
                RecoveryPolicy::FailTensor,
            );
            assert!(report[0].is_ok(), "benchmark blocks are valid");
            report
        })
    });
    g.bench_function("sequential_decode_512_blocks", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(blocks.len() * 128);
            for blk in black_box(&blocks) {
                out.extend(decode_group(blk, &meta).unwrap().0);
            }
            out
        })
    });
    g.finish();
}

/// Hands the raw decoders the block's own codebook and data start bit —
/// identical input for every implementation, via the codec's header
/// parser.
fn parse_header<'m>(
    block: &Block64,
    meta: &'m TensorMetadata,
) -> (&'m ecco_entropy::Codebook, usize) {
    let h = ecco_core::parse_block_header(block, meta).expect("benchmark blocks are valid");
    (&meta.books()[h.kp][h.book_id], h.data_start)
}

criterion_group!(benches, bench);
criterion_main!(benches);
