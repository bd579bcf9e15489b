//! Codec throughput: single-group encode/decode micro-benches plus the
//! multi-block pipeline, with machine-readable JSON for the perf
//! trajectory: `BENCH_codec.json` (decode side) and `BENCH_encode.json`
//! (compress side).
//!
//! `BENCH_codec.json` times three decode implementations on identical
//! inputs:
//!
//! * `seq` — the codec's per-symbol walk (`decode_group`),
//! * `lut` — the hardware model's table-driven EOP-chain walk
//!   (`ecco_hw::ParallelDecoder`), raw symbols and full blocks,
//! * `pipeline` — a whole tensor as a batch of one through the pooled
//!   batch decode of both: the codec's decode engine
//!   (`WeightCodec::decompress_batch_report`) and the hardware model's
//!   `decode_tensors_batch_report`,
//!
//! plus a `decode_to_values` section timing the hardware model's
//! decode-to-values walk (`decode_block_parallel_into`) on weight and
//! K-cache blocks, a `batch_decode` section timing many small tensors
//! through a per-tensor pooled loop (the pool's inline fast path, and
//! its forced queue dispatch) and through one batched
//! `decode_tensors_batch_report` submission, a `kv_decode`
//! section timing the serving read path (`decode_group_into` on one
//! thread, and `KvCodec::decompress_batch_report` over the 16-token
//! pages one `chat` decode step reads) on the `kv_encode` K-cache
//! tensor, with a `stages` split of one block's decode and the paired
//! walk beside it, a `weight_decode` section timing `decode_group_into`
//! and the one-executor `WeightCodec::decompress`, which walks blocks
//! two at a time, on the `weight_encode` tensor at S = 64, and a
//! `container_load` section
//! timing ECCF model cold starts: full-model vs 25%-of-layers partial
//! loads through `Container::open`, and the frame checksum (`crc32`)
//! alone.
//!
//! `BENCH_encode.json` covers the compress-side hot path:
//!
//! * `pattern_select` — the fused single-sweep pattern selection (sorted
//!   group + one merge against every pattern's boundaries in a reused
//!   `GroupScratch`) vs the pinned per-pattern reference
//!   `select_pattern_ref`,
//! * `book_selection` — the packed-lane single-pass codebook selection
//!   (the cached `MultiLenTable` path `encode_group` uses) vs the H-pass
//!   `encoded_len`-per-book baseline,
//! * `encode` — full `encode_group_scratch` on one thread, and the
//!   codec's encode engine (`WeightCodec::compress_batch`) on the whole
//!   tensor across the pool,
//! * `weight_encode` — the offline weight path at the paper's S = 64
//!   (`EccoConfig::default()`): `encode_group_scratch` under MSE-optimal
//!   selection on one thread, and `WeightCodec::compress_batch` across
//!   the pool,
//! * `kv_encode` — the serving write path: `encode_group_scratch` under
//!   the min/max selector on one thread, and `KvCodec::compress_batch`
//!   over 16-token pages across the pool, on a synthetic K-cache tensor
//!   calibrated the way the serve workloads calibrate,
//! * `calibration` — pool-parallel `TensorMetadata::calibrate` vs the
//!   pinned sequential reference `calibrate_weighted_seq`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ecco_bits::{Block64, BlockCursor};
use ecco_core::block::{apply_outliers, rank_outliers};
use ecco_core::{
    decode_group, decode_group_into, encode_group, encode_group_scratch, normalize_group,
    parse_block_header, select_pattern_ref, write_block, BlockHeader, BlockValueTable,
    CompressedTensor, EccoConfig, GroupScratch, KvCodec, NormalizedGroup, PatternSelector,
    RecoveryPolicy, TensorMetadata, WeightCodec,
};
use ecco_numerics::{round_f16, Po2Scale, F8E4M3};
use ecco_tensor::Tensor;
use std::hint::black_box;
use std::time::Instant;

use ecco_hw::{decode_tensors_batch_report, ParallelDecoder};
use ecco_pool::{with_pool, Pool, PoolBuilder};

const GROUP: usize = 128;

fn bench(c: &mut Criterion) {
    use ecco_tensor::{synth::SynthSpec, TensorKind};
    let t = SynthSpec::for_kind(TensorKind::Weight, 64, 1024)
        .seeded(1)
        .generate();
    let cfg = EccoConfig {
        num_patterns: 16,
        max_calibration_groups: 256,
        ..EccoConfig::default()
    };
    let meta = TensorMetadata::calibrate(&[&t], &cfg, PatternSelector::MseOptimal);
    let group: Vec<f32> = t.groups(GROUP).next().unwrap().to_vec();
    let (block, _) = encode_group(&group, &meta, PatternSelector::MseOptimal);
    let blocks: Vec<Block64> = t
        .groups(GROUP)
        .map(|g| encode_group(g, &meta, PatternSelector::MseOptimal).0)
        .collect();

    let mut g = c.benchmark_group("codec");
    g.throughput(Throughput::Bytes(2 * GROUP as u64));
    g.bench_function("encode_group_4x", |b| {
        b.iter(|| encode_group(black_box(&group), &meta, PatternSelector::MseOptimal))
    });
    g.bench_function("decode_group_4x", |b| {
        b.iter(|| decode_group(black_box(&block), &meta).unwrap())
    });
    g.finish();

    let mut g = c.benchmark_group("calibration");
    g.bench_function("calibrate_weighted_parallel", |b| {
        b.iter(|| TensorMetadata::calibrate(black_box(&[&t]), &cfg, PatternSelector::MseOptimal))
    });
    g.finish();

    let codec = WeightCodec::from_metadata(meta.clone());
    let mut g = c.benchmark_group("tensor_pipeline");
    g.throughput(Throughput::Bytes(2 * t.len() as u64));
    g.bench_function("pipeline_encode_tensor", |b| {
        b.iter(|| codec.compress_batch(&[black_box(&t)]))
    });
    g.bench_function("pipeline_decode_tensor", |b| {
        b.iter(|| hw_decode_tensor(black_box(&blocks), &meta))
    });
    g.finish();

    // K-cache blocks for the decode_to_values section (different bit
    // statistics than weight blocks: shorter codes, denser outliers).
    let kt = SynthSpec::for_kind(TensorKind::KCache, 16, 1024)
        .seeded(2)
        .generate();
    let kmeta = TensorMetadata::calibrate(&[&kt], &cfg, PatternSelector::MinMax);
    let kc_blocks: Vec<Block64> = kt
        .groups(GROUP)
        .map(|g| encode_group(g, &kmeta, PatternSelector::MinMax).0)
        .collect();

    write_bench_json(&t, &codec, &blocks, &kmeta, &kc_blocks);
    write_encode_json(&t, &codec, &cfg);
}

/// One `decode_to_values` JSON object for a block set: the hardware
/// model's decode-to-values walk over every block, the best of three
/// timed runs.
fn decode_to_values_section(blocks: &[Block64], meta: &TensorMetadata) -> String {
    let best_of = |f: &mut dyn FnMut() -> f64| (0..3).map(|_| f()).fold(f64::INFINITY, f64::min);
    let mut values = Vec::with_capacity(GROUP);
    let ns = best_of(&mut || {
        time_ns(|| {
            for blk in blocks {
                values.clear();
                ecco_hw::decode_block_parallel_into(black_box(blk), meta, &mut values).unwrap();
                black_box(&values);
            }
        })
    });
    let symbols = (blocks.len() * GROUP) as f64;
    format!(
        "{{\n      \
           \"fused_syms_per_s\": {fused:.0}\n    }}",
        fused = symbols / ns * 1e9,
    )
}

/// Small-tensor scheduling timings: decode `small` tiny tensors (a few
/// blocks each — the many-users serving shape) three ways.
///
/// * `pooled` — one `decode_tensors_batch_report` call per tensor on a
///   persistent `threads`-executor pool: tensors under the chunk
///   threshold take the inline fast path (no queue round-trip).
/// * `dispatch` — same pool with the chunk size pinned to 1, forcing
///   every block through the injector queue: the cost of the wake-up
///   round-trip itself, for honesty about what the fast path saves.
/// * `batch` — all tensors in ONE `decode_tensors_batch_report`
///   submission.
///
/// Returns mean ns per whole-set pass for (pooled, dispatch, batch),
/// each the best of three timed runs.
fn pool_timings(meta: &TensorMetadata, small: &[&[Block64]], threads: usize) -> (f64, f64, f64) {
    let best_of = |f: &mut dyn FnMut() -> f64| (0..3).map(|_| f()).fold(f64::INFINITY, f64::min);
    let per_tensor = |pool: &Pool| {
        best_of(&mut || {
            with_pool(pool, || {
                time_ns(|| {
                    for t in small {
                        black_box(hw_decode_tensor(black_box(t), meta));
                    }
                })
            })
        })
    };

    let pool = PoolBuilder::new().threads(threads).build();
    let pooled = per_tensor(&pool);
    let dispatch = per_tensor(&PoolBuilder::new().threads(threads).chunk(1).build());

    let batch_refs: Vec<(&[Block64], &TensorMetadata)> = small.iter().map(|t| (*t, meta)).collect();
    let batch = best_of(&mut || {
        with_pool(&pool, || {
            time_ns(|| {
                let report =
                    decode_tensors_batch_report(black_box(&batch_refs), RecoveryPolicy::FailTensor);
                assert!(
                    report.iter().all(|r| r.is_ok()),
                    "benchmark blocks are valid"
                );
                black_box(report);
            })
        })
    });

    (pooled, dispatch, batch)
}

/// Container cold-start timings: write a compressed multi-layer model
/// to a temp ECCF file, then time full-model and 25%-of-layers partial
/// loads through `Container::open`. Rates are decoded-f32 bytes per
/// second — the number a serving cold start cares about — with each arm
/// the best of three timed runs. A throwaway load on the same container
/// warms its lazy decode tables so no arm bills the one-time build. `crc32_bytes_per_s` is the
/// frame checksum alone: `crc32` over an 8 MiB seeded buffer, best of
/// three.
fn container_load_section() -> String {
    use ecco_container::{crc32, write_model, Container};
    use ecco_tensor::{synth::SynthSpec, TensorKind};

    const LAYERS: usize = 8;
    const ROWS: usize = 16;
    const COLS: usize = 1024;

    let tensors: Vec<Tensor> = (0..LAYERS)
        .map(|i| {
            SynthSpec::for_kind(TensorKind::Weight, ROWS, COLS)
                .seeded(0xECCF + i as u64)
                .generate()
        })
        .collect();
    let refs: Vec<&Tensor> = tensors.iter().collect();
    let codec = WeightCodec::calibrate(&refs[..2], &EccoConfig::default());
    let pool = PoolBuilder::new().build();
    let compressed: Vec<CompressedTensor> = with_pool(&pool, || codec.compress_batch(&refs))
        .into_iter()
        .map(|(ct, _)| ct)
        .collect();
    let names: Vec<String> = (0..LAYERS).map(|i| format!("blk.{i}.w")).collect();
    let pairs: Vec<(&str, &CompressedTensor)> = names
        .iter()
        .map(String::as_str)
        .zip(compressed.iter())
        .collect();
    let mut path = std::env::temp_dir();
    path.push(format!("ecco_bench_{}.eccf", std::process::id()));
    write_model(&path, codec.metadata(), &pairs).expect("write bench container");
    let file_bytes = std::fs::metadata(&path)
        .expect("stat bench container")
        .len();

    let all: Vec<&str> = names.iter().map(String::as_str).collect();
    let quarter: Vec<&str> = all.iter().step_by(4).copied().collect();
    let full_bytes = (LAYERS * ROWS * COLS * 4) as f64;
    let part_bytes = (quarter.len() * ROWS * COLS * 4) as f64;

    let container = Container::open(&path).expect("open bench container");
    with_pool(&pool, || container.load(&all)).expect("warmup load");

    let best_of = |f: &mut dyn FnMut() -> f64| (0..3).map(|_| f()).fold(f64::INFINITY, f64::min);
    let full_ns = best_of(&mut || {
        with_pool(&pool, || {
            time_ns(|| {
                black_box(container.load(black_box(&all)).unwrap());
            })
        })
    });
    let part_ns = best_of(&mut || {
        with_pool(&pool, || {
            time_ns(|| {
                black_box(container.load(black_box(&quarter)).unwrap());
            })
        })
    });
    drop(container);
    std::fs::remove_file(&path).ok();

    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let crc_buf: Vec<u8> = (0..8 << 20)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect();
    let crc_ns = best_of(&mut || {
        time_ns(|| {
            black_box(crc32(black_box(&crc_buf)));
        })
    });

    format!(
        "{{\n      \
           \"layers\": {LAYERS},\n      \
           \"partial_layers\": {partial_layers},\n      \
           \"file_bytes\": {file_bytes},\n      \
           \"decoded_bytes_full\": {decoded:.0},\n      \
           \"full_load_bytes_per_s\": {full:.0},\n      \
           \"partial_load_bytes_per_s\": {part:.0},\n      \
           \"crc32_bytes_per_s\": {crc:.0}\n    }}",
        partial_layers = quarter.len(),
        decoded = full_bytes,
        full = full_bytes / full_ns * 1e9,
        part = part_bytes / part_ns * 1e9,
        crc = crc_buf.len() as f64 / crc_ns * 1e9,
    )
}

/// One whole tensor through the hardware model's batch decode: a batch
/// of one, as every single-tensor caller submits it.
fn hw_decode_tensor(blocks: &[Block64], meta: &TensorMetadata) -> Vec<f32> {
    match decode_tensors_batch_report(&[(blocks, meta)], RecoveryPolicy::FailTensor).pop() {
        Some(ecco_core::BatchOutcome::Ok(values)) => values,
        other => panic!("benchmark blocks are valid: {other:?}"),
    }
}

/// Mean ns of `f` over a time-boxed number of repetitions.
fn time_ns<F: FnMut()>(mut f: F) -> f64 {
    // Warm up once, then run for ~400 ms.
    f();
    let t0 = Instant::now();
    let mut reps = 0u64;
    while t0.elapsed().as_millis() < 400 {
        f();
        reps += 1;
    }
    t0.elapsed().as_nanos() as f64 / reps as f64
}

/// Timed rounds of a stage split: [`interleaved_rounds`] reports
/// medians over this many.
const STAGE_ROUNDS: usize = 201;

/// Times a split of one job into `stages` stages in interleaved rounds.
/// `run(i)` runs stage `i` once over all `items`, `run(stages)` the
/// whole job, and `run(stages + 1 + j)` the `j`-th of `alternatives`,
/// other ways to run some stage that the sum leaves out. After one
/// untimed warm-up round, each of [`STAGE_ROUNDS`] rounds runs every arm
/// once, so all of them see the same host conditions and the split
/// follows the code, not what else ran in some window. Returns each
/// arm's median in ns per item, in arm order, and the median over rounds
/// of the stages' sum divided by the whole.
fn interleaved_rounds(
    stages: usize,
    alternatives: usize,
    items: usize,
    mut run: impl FnMut(usize),
) -> (Vec<f64>, f64) {
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let arms = stages + 1 + alternatives;
    (0..arms).for_each(&mut run);
    let mut times = vec![Vec::with_capacity(STAGE_ROUNDS); arms];
    let mut ratios = Vec::with_capacity(STAGE_ROUNDS);
    for _ in 0..STAGE_ROUNDS {
        for (stage, t) in times.iter_mut().enumerate() {
            let t0 = Instant::now();
            run(stage);
            t.push(t0.elapsed().as_nanos() as f64 / items as f64);
        }
        let round: Vec<f64> = times.iter().map(|t| t[t.len() - 1]).collect();
        ratios.push(round[..stages].iter().sum::<f64>() / round[stages]);
    }
    (times.into_iter().map(median).collect(), median(ratios))
}

/// Hands the raw decoders the block's own codebook and data start bit —
/// identical inputs for every contender, via the codec's header parser.
fn parse_header<'m>(
    block: &Block64,
    meta: &'m TensorMetadata,
) -> (&'m ecco_entropy::Codebook, usize) {
    let h = ecco_core::parse_block_header(block, meta).expect("benchmark blocks are valid");
    (&meta.books()[h.kp][h.book_id], h.data_start)
}

fn write_bench_json(
    t: &Tensor,
    codec: &WeightCodec,
    blocks: &[Block64],
    kmeta: &TensorMetadata,
    kc_blocks: &[Block64],
) {
    let meta = codec.metadata();
    let n = blocks.len();
    let symbols = (n * GROUP) as f64;
    let parsed: Vec<(&ecco_entropy::Codebook, usize)> =
        blocks.iter().map(|b| parse_header(b, meta)).collect();
    // Warm every LUT outside the timed region (a one-time cost per book).
    for &(book, _) in &parsed {
        let _ = ParallelDecoder::new(book);
    }

    // Raw symbol decode over the whole tensor through the LUT decoder.
    let mut sink = Vec::with_capacity(GROUP);
    let lut_ns = time_ns(|| {
        for (blk, &(book, start)) in blocks.iter().zip(&parsed) {
            let d = ParallelDecoder::new(book);
            d.decode_into(&black_box(blk).cursor(), start, GROUP, &mut sink);
        }
    });

    // Full block reconstruction: sequential reference vs LUT model,
    // single-threaded, then the whole tensor as a batch of one through
    // the codec's decode engine and the hardware model's batch decode.
    let seq_ns = time_ns(|| {
        for blk in blocks {
            black_box(decode_group(black_box(blk), meta).unwrap());
        }
    });
    let mut values = Vec::with_capacity(GROUP);
    let lut_block_ns = time_ns(|| {
        for blk in blocks {
            values.clear();
            ecco_hw::decode_block_parallel_into(black_box(blk), meta, &mut values).unwrap();
        }
    });
    let pipeline_hw_ns = time_ns(|| {
        black_box(hw_decode_tensor(black_box(blocks), meta));
    });
    let (ct, _) = codec.compress(t);
    assert_eq!(ct.blocks(), blocks, "codec arm decodes the same blocks");
    let pipeline_ref_ns = time_ns(|| {
        let report = codec.decompress_batch_report(&[black_box(&ct)], RecoveryPolicy::FailTensor);
        assert!(report[0].is_ok(), "benchmark blocks are valid");
        black_box(report);
    });

    // Small-tensor scheduling: a per-tensor loop vs one batch.
    const SMALL_TENSORS: usize = 128;
    const SMALL_BLOCKS: usize = 4;
    const POOL_THREADS: usize = 2;
    let small: Vec<&[Block64]> = (0..SMALL_TENSORS)
        .map(|i| {
            let lo = (i * SMALL_BLOCKS) % (blocks.len() - SMALL_BLOCKS);
            &blocks[lo..lo + SMALL_BLOCKS]
        })
        .collect();
    let (pooled_ns, dispatch_ns, batch_ns) = pool_timings(meta, &small, POOL_THREADS);
    let tensors_per_s = |ns: f64| SMALL_TENSORS as f64 / ns * 1e9;

    let per_s = |ns: f64| symbols / ns * 1e9;
    let json = format!(
        "{{\n  \
         \"bench\": \"codec_throughput\",\n  \
         \"blocks\": {n},\n  \
         \"group_size\": {GROUP},\n  \
         \"threads\": {threads},\n  \
         \"raw_decode\": {{\n    \
           \"lut_syms_per_s\": {lut:.0}\n  }},\n  \
         \"decode_to_values\": {{\n    \
           \"weight\": {wdtv},\n    \
           \"kcache\": {kdtv}\n  }},\n  \
         \"block_decode\": {{\n    \
           \"sequential_reference_syms_per_s\": {seq:.0},\n    \
           \"lut_model_syms_per_s\": {lutb:.0},\n    \
           \"pipeline_reference_syms_per_s\": {piper:.0},\n    \
           \"pipeline_hw_model_syms_per_s\": {pipeh:.0},\n    \
           \"pipeline_vs_sequential_speedup\": {pipe_speedup:.2}\n  }},\n  \
         {kvd}\n  \
         {wdec}\n  \
         \"batch_decode\": {{\n    \
           \"tensors\": {SMALL_TENSORS},\n    \
           \"blocks_per_tensor\": {SMALL_BLOCKS},\n    \
           \"pool_executors\": {POOL_THREADS},\n    \
           \"per_tensor_pooled_tensors_per_s\": {pooled_tps:.0},\n    \
           \"per_tensor_dispatch_tensors_per_s\": {dispatch_tps:.0},\n    \
           \"batched_submission_tensors_per_s\": {batch_tps:.0},\n    \
           \"batched_vs_per_tensor_speedup\": {batch_speedup:.2},\n    \
           \"notes\": \"claim_ranges groups contiguous tensors into block-target-sized claims, so one submission pays one queue wake-up for the whole batch and spreads it across executors; with a single executor that fixed cost is not amortized and batched submission measured ~0.85-0.9x of the per-tensor loop\"\n  }},\n  \
         \"container_load\": {csec}\n}}\n",
        csec = container_load_section(),
        kvd = kv_decode_timings(),
        wdec = weight_decode_timings(),
        threads = Pool::current().executors(),
        lut = per_s(lut_ns),
        wdtv = decode_to_values_section(blocks, meta),
        kdtv = decode_to_values_section(kc_blocks, kmeta),
        seq = per_s(seq_ns),
        lutb = per_s(lut_block_ns),
        piper = per_s(pipeline_ref_ns),
        pipeh = per_s(pipeline_hw_ns),
        pipe_speedup = seq_ns / pipeline_ref_ns,
        pooled_tps = tensors_per_s(pooled_ns),
        dispatch_tps = tensors_per_s(dispatch_ns),
        batch_tps = tensors_per_s(batch_ns),
        batch_speedup = pooled_ns / batch_ns,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_codec.json");
    std::fs::write(path, &json).expect("write BENCH_codec.json");
    println!("\nBENCH_codec.json:\n{json}");
}

/// The weight sections' input: a synthetic weight tensor of 1024 groups
/// and the `WeightCodec` calibrated on it at the paper's S = 64
/// (`EccoConfig::default()`).
fn weight_bench_codec() -> (Tensor, WeightCodec) {
    use ecco_tensor::{synth::SynthSpec, TensorKind};
    let wt = SynthSpec::for_kind(TensorKind::Weight, 128, 1024)
        .seeded(4)
        .generate();
    let codec = WeightCodec::calibrate(&[&wt], &EccoConfig::default());
    (wt, codec)
}

/// The `weight_decode` JSON object: the weight read path at S = 64,
/// where the metadata holds S × 4 books and so S × 4 decode tables, on
/// every block of the [`weight_bench_codec`] tensor. One thread runs
/// `decode_group_into` block by block (the single walk), and
/// `WeightCodec::decompress` in a one-executor pool (the codec engine,
/// whose run decoder walks the blocks two at a time).
fn weight_decode_timings() -> String {
    let (wt, codec) = weight_bench_codec();
    let (ct, _) = codec.compress(&wt);
    let meta = codec.metadata();
    assert_eq!(
        ct.tensor_scale(),
        meta.tensor_scale(),
        "calibrated on the tensor it compresses"
    );
    let mut values = Vec::with_capacity(wt.len());
    let decode_ns = time_ns(|| {
        values.clear();
        for blk in ct.blocks() {
            decode_group_into(black_box(blk), meta, &mut values).unwrap();
        }
        black_box(&values);
    });
    let one = PoolBuilder::new().threads(1).build();
    let paired_ns = with_pool(&one, || time_ns(|| drop(black_box(codec.decompress(&ct)))));
    format!(
        "\"weight_decode\": {{\n    \
           \"num_patterns\": {patterns},\n    \
           \"decode_group_into_values_per_s\": {dec:.0},\n    \
           \"decompress_values_per_s\": {paired:.0},\n    \
           \"decompress_executors\": {executors}\n  }},",
        patterns = meta.num_patterns(),
        dec = wt.len() as f64 / decode_ns * 1e9,
        paired = wt.len() as f64 / paired_ns * 1e9,
        executors = one.executors(),
    )
}

/// The `weight_encode` JSON object: the offline weight path on the
/// [`weight_bench_codec`] tensor. One thread runs `encode_group_scratch`
/// under MSE-optimal selection over every group; the pool runs
/// `WeightCodec::compress_batch` over the tensor cut into row slices, as
/// one batch.
fn weight_encode_timings() -> String {
    const SLICES: usize = 8;
    let (wt, codec) = weight_bench_codec();
    let meta = codec.metadata();
    let mut scratch = GroupScratch::new();
    let encode_ns = time_ns(|| {
        for g in wt.groups(GROUP) {
            black_box(encode_group_scratch(
                black_box(g),
                meta,
                meta.tensor_scale(),
                PatternSelector::MseOptimal,
                &mut scratch,
            ));
        }
    });
    let rows = wt.rows() / SLICES;
    let slices: Vec<Tensor> = wt
        .data()
        .chunks_exact(rows * wt.cols())
        .map(|s| Tensor::from_vec(rows, wt.cols(), s.to_vec()))
        .collect();
    let slice_refs: Vec<&Tensor> = slices.iter().collect();
    let batch_ns = time_ns(|| {
        black_box(codec.compress_batch(black_box(&slice_refs)));
    });
    format!(
        "\"weight_encode\": {{\n    \
           \"num_patterns\": {patterns},\n    \
           \"encode_group_mse_syms_per_s\": {enc:.0},\n    \
           \"compress_batch_values_per_s\": {batch:.0},\n    \
           \"compress_batch_tensors\": {SLICES},\n    \
           \"compress_batch_executors\": {executors}\n  }},",
        patterns = meta.num_patterns(),
        enc = wt.len() as f64 / encode_ns * 1e9,
        batch = wt.len() as f64 / batch_ns * 1e9,
        executors = Pool::current().executors(),
    )
}

/// Tokens per page of the serve workloads' paged KV store.
const PAGE_TOKENS: usize = 16;

/// The KV sections' input: a synthetic K-cache tensor of 1024 groups
/// and the `KvCodec` calibrated on it the way the serve workloads
/// calibrate (`max_calibration_groups: 512`).
fn kv_bench_codec() -> (Tensor, KvCodec) {
    use ecco_tensor::{synth::SynthSpec, TensorKind};
    let kt = SynthSpec::for_kind(TensorKind::KCache, 128, 1024)
        .seeded(3)
        .generate();
    let cfg = EccoConfig {
        max_calibration_groups: 512,
        ..EccoConfig::default()
    };
    let codec = KvCodec::calibrate(&[&kt], &cfg);
    (kt, codec)
}

/// `t` cut into [`PAGE_TOKENS`]-row pages.
fn pages(t: &Tensor) -> Vec<Tensor> {
    t.data()
        .chunks_exact(PAGE_TOKENS * t.cols())
        .map(|p| Tensor::from_vec(PAGE_TOKENS, t.cols(), p.to_vec()))
        .collect()
}

/// The `kv_decode` JSON object: the serving read path on the
/// [`kv_bench_codec`] tensor. One thread runs `decode_group_into` over
/// the whole tensor's blocks; the pool runs
/// `KvCodec::decompress_batch_report` (under the serve store's default
/// `SalvageBlocks`) over `READ_PAGES` compressed pages, the cold pages
/// a `chat` decode step reads.
fn kv_decode_timings() -> String {
    const READ_PAGES: usize = 9;
    let (kt, codec) = kv_bench_codec();
    let (ct, _) = codec.compress(&kt);
    let meta = codec.metadata();
    assert_eq!(
        ct.tensor_scale(),
        meta.tensor_scale(),
        "calibrated on the tensor it compresses"
    );
    let mut values = Vec::with_capacity(kt.len());
    let decode_ns = time_ns(|| {
        values.clear();
        for blk in ct.blocks() {
            decode_group_into(black_box(blk), meta, &mut values).unwrap();
        }
        black_box(&values);
    });
    let read: Vec<CompressedTensor> = codec
        .compress_batch(&pages(&kt).iter().take(READ_PAGES).collect::<Vec<_>>())
        .into_iter()
        .map(|(ct, _)| ct)
        .collect();
    let read_refs: Vec<&CompressedTensor> = read.iter().collect();
    let batch_ns = time_ns(|| {
        let report =
            codec.decompress_batch_report(black_box(&read_refs), RecoveryPolicy::SalvageBlocks);
        assert!(
            report.iter().all(|r| r.is_ok()),
            "benchmark blocks are valid"
        );
        black_box(report);
    });
    let read_values = (READ_PAGES * PAGE_TOKENS * kt.cols()) as f64;
    format!(
        "\"kv_decode\": {{\n    \
           \"decode_group_into_values_per_s\": {dec:.0},\n    \
           \"decompress_batch_values_per_s\": {batch:.0},\n    \
           \"decompress_batch_pages\": {READ_PAGES},\n    \
           \"page_tokens\": {PAGE_TOKENS},\n    \
           \"decompress_batch_executors\": {executors},\n    \
           {stages}\n  }},",
        dec = kt.len() as f64 / decode_ns * 1e9,
        batch = read_values / batch_ns * 1e9,
        executors = Pool::current().executors(),
        stages = kv_decode_stages(&kt, &codec),
    )
}

/// One K-cache block's decode on one thread, stage by stage, in ns per
/// block: the `stages` object of `kv_decode`. The blocks are the
/// [`kv_bench_codec`] tensor's 16-token pages, each compressed under its
/// own scale as the serve store evicts a page, and each stage runs under
/// its page's scale. Each stage is timed alone over every block, on
/// inputs the stages before it produced once up front:
///
/// * `header_and_table` — `parse_block_header` (which views the block
///   as a cursor), then the block's `BlockValueTable`,
/// * `symbol_walk` — the codec's walk from the data start, each value
///   gathered through the block's table,
/// * `tail_and_outliers` — the clipped tail's fill, then `apply_outliers`
///   on the blocks with nothing clipped,
///
/// and `decode_group_into`, all of them in one call (under the
/// metadata's scale, which sets only an exponent, so it costs the same),
/// timed in [`interleaved_rounds`]. `stage_sum` adds the three stages'
/// medians, and `stage_sum_ratio` is the median of the per-round ratios.
/// In the same rounds, `pair_walk` times the walk as the codec's batch
/// decode runs it instead of `symbol_walk`: two blocks at a time through
/// `SymbolDecoder::decode_values_pair`, in ns per block.
fn kv_decode_stages(kt: &Tensor, codec: &KvCodec) -> String {
    struct Block {
        block: Block64,
        scale: Po2Scale,
        cur: BlockCursor,
        header: BlockHeader,
        table: BlockValueTable,
        data_end: usize,
        decoded: usize,
        values: [f32; GROUP],
    }
    let meta = codec.metadata();
    let value_table = |header: &BlockHeader, scale: Po2Scale| {
        let sf = F8E4M3::from_bits(header.sf_bits).to_f32();
        BlockValueTable::new(&meta.patterns()[header.kp], round_f16(scale.expand(sf)))
    };
    let pages = pages(kt);
    let page_refs: Vec<&Tensor> = pages.iter().collect();
    let mut blocks: Vec<Block> = codec
        .compress_batch(&page_refs)
        .into_iter()
        .flat_map(|(ct, _)| {
            let scale = ct.tensor_scale();
            ct.blocks().to_vec().into_iter().map(move |b| (b, scale))
        })
        .map(|(block, scale)| {
            let header = parse_block_header(&block, meta).expect("benchmark blocks are valid");
            let table = value_table(&header, scale);
            let cur = block.cursor();
            let book = &meta.books()[header.kp][header.book_id];
            let mut values = [0f32; GROUP];
            let (data_end, decoded) = book.symbol_decoder().decode_values(
                &cur,
                header.data_start,
                |s| table.value(s),
                &mut values,
            );
            Block {
                block,
                scale,
                cur,
                header,
                table,
                data_end,
                decoded,
                values,
            }
        })
        .collect();
    assert_eq!(blocks.len() % 2, 0, "the pair walk takes whole pairs");
    let mut values = Vec::with_capacity(blocks.len() * GROUP);
    let decoder = |b: &Block| meta.books()[b.header.kp][b.header.book_id].symbol_decoder();
    let (medians, ratio) = interleaved_rounds(3, 1, blocks.len(), |stage| match stage {
        0 => {
            for b in &blocks {
                let header = parse_block_header(black_box(&b.block), meta).unwrap();
                black_box(value_table(&header, b.scale));
            }
        }
        // The walk as `decode_group_into` runs it: into the group's room
        // at the end of the output.
        1 => {
            values.clear();
            for b in &blocks {
                let base = values.len();
                values.resize(base + GROUP, 0.0);
                decoder(b).decode_values(
                    black_box(&b.cur),
                    b.header.data_start,
                    |s| b.table.value(s),
                    &mut values[base..],
                );
            }
            black_box(&values);
        }
        2 => {
            for b in &mut blocks {
                b.values[b.decoded..].fill(b.table.tail_fill());
                if b.decoded == GROUP {
                    black_box(apply_outliers(
                        black_box(&b.cur),
                        b.data_end,
                        b.scale,
                        &mut b.values,
                    ));
                }
            }
        }
        3 => {
            values.clear();
            for b in &blocks {
                decode_group_into(black_box(&b.block), meta, &mut values).unwrap();
            }
            black_box(&values);
        }
        // The walk as the codec's run decoder runs it: two blocks at a
        // time, into both groups' room at the end of the output.
        _ => {
            values.clear();
            for pair in blocks.chunks_exact(2) {
                let [a, b] = pair else {
                    unreachable!("chunks of two")
                };
                let tables = [&a.table, &b.table];
                let base = values.len();
                values.resize(base + 2 * GROUP, 0.0);
                let (ga, gb) = values[base..].split_at_mut(GROUP);
                decoder(a).decode_values_pair(
                    &decoder(b),
                    [black_box(&a.cur), black_box(&b.cur)],
                    [a.header.data_start, b.header.data_start],
                    |side, s| tables[side].value(s),
                    [ga, gb],
                );
            }
            black_box(&values);
        }
    });
    let [header, walk, tail, whole, pair] = medians[..] else {
        unreachable!("three stages, the whole and the pair walk")
    };
    let sum = header + walk + tail;
    format!(
        "\"stages\": {{\n      \
           \"unit\": \"ns_per_block\",\n      \
           \"header_and_table\": {header:.1},\n      \
           \"symbol_walk\": {walk:.1},\n      \
           \"pair_walk\": {pair:.1},\n      \
           \"tail_and_outliers\": {tail:.1},\n      \
           \"stage_sum\": {sum:.1},\n      \
           \"decode_group_into\": {whole:.1},\n      \
           \"rounds\": {STAGE_ROUNDS},\n      \
           \"stage_sum_ratio\": {ratio:.3}\n    }}",
    )
}

/// The `kv_encode` JSON object: the serving write path on the
/// [`kv_bench_codec`] tensor. One thread runs `encode_group_scratch`
/// under the min/max selector over every group; the pool runs
/// `KvCodec::compress_batch` over the tensor cut into 16-token pages, as
/// one eviction batch. `stages` splits one thread's encode per group
/// ([`kv_encode_stages`]).
fn kv_encode_timings() -> String {
    let (kt, codec) = kv_bench_codec();
    let meta = codec.metadata();
    let mut scratch = GroupScratch::new();
    let encode_ns = time_ns(|| {
        for g in kt.groups(GROUP) {
            black_box(encode_group_scratch(
                black_box(g),
                meta,
                meta.tensor_scale(),
                PatternSelector::MinMax,
                &mut scratch,
            ));
        }
    });
    let pages = pages(&kt);
    let page_refs: Vec<&Tensor> = pages.iter().collect();
    let batch_ns = time_ns(|| {
        black_box(codec.compress_batch(black_box(&page_refs)));
    });
    format!(
        "\"kv_encode\": {{\n    \
           \"encode_group_minmax_syms_per_s\": {enc:.0},\n    \
           \"compress_batch_values_per_s\": {batch:.0},\n    \
           \"compress_batch_pages\": {n_pages},\n    \
           \"page_tokens\": {PAGE_TOKENS},\n    \
           \"compress_batch_executors\": {executors},\n    \
           {stages}\n  }},",
        enc = kt.len() as f64 / encode_ns * 1e9,
        batch = kt.len() as f64 / batch_ns * 1e9,
        n_pages = pages.len(),
        executors = Pool::current().executors(),
        stages = kv_encode_stages(&pages, meta),
    )
}

/// One K-cache group's encode on one thread, stage by stage, in ns per
/// group: the `stages` object of `kv_encode`. Every group is encoded
/// under its page's scale, as the serve store encodes an evicted page.
/// Each stage is timed alone over every group, on inputs the stages
/// before it produced once up front:
///
/// * `normalize` — the normalization into the scratch's buffer,
/// * `select_minmax` — the min/max fold, the pattern choice and the
///   symbol map,
/// * `book_choice` — the packed-lane shortest-book pass,
/// * `rank_outliers` — the ranking of the block's free slots, on the
///   groups that pad (the writer ranks nothing for the others),
/// * `write_block` — the writer, handed the ranked outliers,
///
/// and `encode_group_scratch`, all of them in one call, timed in
/// [`interleaved_rounds`]. `stage_sum` adds the five stages' medians,
/// and `stage_sum_ratio` is the median of the per-round ratios.
fn kv_encode_stages(pages: &[Tensor], meta: &TensorMetadata) -> String {
    // `S` is the page's `Po2Scale`, a type this crate does not name.
    struct Group<'a, S> {
        values: &'a [f32],
        scale: S,
        ng: NormalizedGroup,
        kp: usize,
        symbols: Vec<u16>,
        book_id: usize,
        slots: usize,
        ranked: Vec<(usize, f32)>,
    }
    let mut scratch = GroupScratch::new();
    let groups: Vec<Group<_>> = pages
        .iter()
        .flat_map(|page| {
            let scale = TensorMetadata::scale_for(page);
            page.groups(GROUP).map(move |g| (g, scale))
        })
        .map(|(values, scale)| {
            let ng = normalize_group(values, scale);
            let kp = meta.select_pattern_scratch(&ng, PatternSelector::MinMax, &mut scratch);
            // The scratch's symbols, as the reference quantization gives
            // them (pinned equal by the selection differentials).
            let symbols = ng.symbols(&meta.patterns()[kp]);
            let (book_id, _) = meta.len_table(kp).expect("calibrated").best(&symbols);
            let (_, info) =
                encode_group_scratch(values, meta, scale, PatternSelector::MinMax, &mut scratch);
            let slots = match info.clipped_symbols {
                0 => (512 - info.header_bits - info.data_bits) / ecco_core::block::OUTLIER_BITS,
                _ => 0,
            };
            let ranked = rank_outliers(values, ng.max_pos, slots).collect();
            Group {
                values,
                scale,
                ng,
                kp,
                symbols,
                book_id,
                slots,
                ranked,
            }
        })
        .collect();
    let (medians, ratio) = interleaved_rounds(5, 0, groups.len(), |stage| match stage {
        0 => {
            for g in &groups {
                black_box(scratch.normalized(black_box(g.values), g.scale, |ng, _| ng.max_pos));
            }
        }
        1 => {
            for g in &groups {
                black_box(meta.select_pattern_scratch(
                    black_box(&g.ng),
                    PatternSelector::MinMax,
                    &mut scratch,
                ));
            }
        }
        2 => {
            for g in &groups {
                black_box(
                    meta.len_table(g.kp)
                        .expect("calibrated")
                        .best(black_box(&g.symbols)),
                );
            }
        }
        3 => {
            for g in groups.iter().filter(|g| g.slots > 0) {
                for outlier in rank_outliers(black_box(g.values), g.ng.max_pos, g.slots) {
                    black_box(outlier);
                }
            }
        }
        4 => {
            for g in &groups {
                black_box(write_block(
                    meta,
                    g.scale,
                    g.kp,
                    g.book_id,
                    g.ng.sf_bits,
                    black_box(&g.symbols),
                    |_| g.ranked.iter().copied(),
                ));
            }
        }
        _ => {
            for g in &groups {
                black_box(encode_group_scratch(
                    black_box(g.values),
                    meta,
                    g.scale,
                    PatternSelector::MinMax,
                    &mut scratch,
                ));
            }
        }
    });
    let [normalize, select, book, rank, write, whole] = medians[..] else {
        unreachable!("five stages and the whole")
    };
    let sum = normalize + select + book + rank + write;
    format!(
        "\"stages\": {{\n      \
           \"unit\": \"ns_per_group\",\n      \
           \"normalize\": {normalize:.1},\n      \
           \"select_minmax\": {select:.1},\n      \
           \"book_choice\": {book:.1},\n      \
           \"rank_outliers\": {rank:.1},\n      \
           \"write_block\": {write:.1},\n      \
           \"stage_sum\": {sum:.1},\n      \
           \"encode_group_scratch\": {whole:.1},\n      \
           \"rounds\": {STAGE_ROUNDS},\n      \
           \"stage_sum_ratio\": {ratio:.3}\n    }}",
    )
}

/// Compress-side counterpart of [`write_bench_json`]: codebook selection
/// single-pass vs H-pass, full encode throughput, the weight and KV
/// write paths, and parallel vs sequential calibration wall time.
fn write_encode_json(t: &Tensor, codec: &WeightCodec, cfg: &EccoConfig) {
    let meta = codec.metadata();
    // Precompute per-group symbol streams exactly as the encoder derives
    // them, so the selection timings isolate the codebook choice.
    let symbol_sets: Vec<(usize, Vec<u16>)> = t
        .groups(GROUP)
        .map(|g| {
            let ng = normalize_group(g, meta.tensor_scale());
            let kp = meta.select_pattern(&ng, PatternSelector::MseOptimal);
            (kp, ng.symbols(&meta.patterns()[kp]))
        })
        .collect();
    let n_groups = symbol_sets.len();
    let symbols = (n_groups * GROUP) as f64;

    // Pattern selection: the fused single-sweep engine (sorted group +
    // boundary-table merge, winner symbols recorded in the scratch) vs
    // the pinned reference that scores each pattern independently.
    // Normalization is precomputed so both timings isolate selection.
    let ngs: Vec<NormalizedGroup> = t
        .groups(GROUP)
        .map(|g| normalize_group(g, meta.tensor_scale()))
        .collect();
    let ref_select_ns = time_ns(|| {
        for ng in &ngs {
            black_box(select_pattern_ref(
                meta.patterns(),
                black_box(ng),
                None,
                PatternSelector::MseOptimal,
            ));
        }
    });
    let mut scratch = GroupScratch::new();
    let fused_select_ns = time_ns(|| {
        for ng in &ngs {
            black_box(meta.select_pattern_scratch(
                black_box(ng),
                PatternSelector::MseOptimal,
                &mut scratch,
            ));
        }
    });

    // Codebook selection: H separate `encoded_len` sweeps (the pre-PR
    // baseline) vs one packed-lane pass.
    let h_pass_ns = time_ns(|| {
        for (kp, syms) in &symbol_sets {
            let best = meta.books()[*kp]
                .iter()
                .enumerate()
                .map(|(i, b)| (i, b.encoded_len(black_box(syms))))
                .min_by_key(|&(_, len)| len)
                .expect("H >= 1");
            black_box(best);
        }
    });
    // The encoder's actual path: the packed table is cached per pattern
    // in the metadata, so the per-group cost is one load-add per symbol.
    let single_pass_ns = time_ns(|| {
        for (kp, syms) in &symbol_sets {
            let table = meta.len_table(*kp).expect("calibrated metadata");
            black_box(table.best(black_box(syms)));
        }
    });

    // Full group encode (the scratch-threaded hot path every codec loop
    // uses), sequential and through the codec's encode engine.
    let encode_ns = time_ns(|| {
        for g in t.groups(GROUP) {
            black_box(encode_group_scratch(
                black_box(g),
                meta,
                meta.tensor_scale(),
                PatternSelector::MseOptimal,
                &mut scratch,
            ));
        }
    });
    let pipeline_ns = time_ns(|| {
        black_box(codec.compress_batch(&[black_box(t)]));
    });

    // Offline calibration: the pool-parallel path vs the pinned
    // sequential reference (bit-identical outputs; see the differential
    // proptests in ecco-core::metadata).
    let cal_par_ns = time_ns(|| {
        black_box(TensorMetadata::calibrate(
            black_box(&[t]),
            cfg,
            PatternSelector::MseOptimal,
        ));
    });
    let cal_seq_ns = time_ns(|| {
        black_box(TensorMetadata::calibrate_weighted_seq(
            black_box(&[t]),
            None,
            cfg,
            PatternSelector::MseOptimal,
        ));
    });

    let wt = weight_encode_timings();
    let kv = kv_encode_timings();

    let per_s = |ns: f64| symbols / ns * 1e9;
    let selections_per_s = |ns: f64| n_groups as f64 / ns * 1e9;
    let json = format!(
        "{{\n  \
         \"bench\": \"encode_throughput\",\n  \
         \"blocks\": {n_groups},\n  \
         \"group_size\": {GROUP},\n  \
         \"threads\": {threads},\n  \
         \"pattern_select\": {{\n    \
           \"reference_selections_per_s\": {ref_sel:.0},\n    \
           \"fused_selections_per_s\": {fused_sel:.0},\n    \
           \"fused_vs_reference_speedup\": {sel_fused_speedup:.2}\n  }},\n  \
         \"book_selection\": {{\n    \
           \"h_pass_baseline_syms_per_s\": {hp:.0},\n    \
           \"single_pass_syms_per_s\": {sp:.0},\n    \
           \"single_pass_vs_h_pass_speedup\": {sel_speedup:.2}\n  }},\n  \
         \"encode\": {{\n    \
           \"encode_group_syms_per_s\": {enc:.0},\n    \
           \"pipeline_encode_syms_per_s\": {pipe:.0}\n  }},\n  \
         {wt}\n  \
         {kv}\n  \
         \"calibration\": {{\n    \
           \"sequential_ms\": {cal_seq:.2},\n    \
           \"parallel_ms\": {cal_par:.2},\n    \
           \"parallel_vs_sequential_speedup\": {cal_speedup:.2}\n  }}\n}}\n",
        threads = Pool::current().executors(),
        ref_sel = selections_per_s(ref_select_ns),
        fused_sel = selections_per_s(fused_select_ns),
        sel_fused_speedup = ref_select_ns / fused_select_ns,
        hp = per_s(h_pass_ns),
        sp = per_s(single_pass_ns),
        sel_speedup = h_pass_ns / single_pass_ns,
        enc = per_s(encode_ns),
        pipe = per_s(pipeline_ns),
        cal_seq = cal_seq_ns / 1e6,
        cal_par = cal_par_ns / 1e6,
        cal_speedup = cal_seq_ns / cal_par_ns,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_encode.json");
    std::fs::write(path, &json).expect("write BENCH_encode.json");
    println!("\nBENCH_encode.json:\n{json}");
    println!(
        "fused pattern selection is {:.1}x the reference; single-pass codebook \
         selection is {:.1}x the H-pass baseline on identical inputs",
        ref_select_ns / fused_select_ns,
        h_pass_ns / single_pass_ns
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
