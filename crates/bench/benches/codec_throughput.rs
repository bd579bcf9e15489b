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
//! plus a `window_extract` section isolating the hardware model's 64×8
//! window front end on weight and K-cache blocks: 512 scalar
//! `BlockCursor::window` probes per block vs the block-at-a-time
//! `windows_all` fill on the portable tier and on the host SIMD tier
//! (`null` when unsupported), a `decode_to_values` section timing the
//! hardware model's decode-to-values walk (`decode_block_parallel_into`)
//! on weight and K-cache blocks, a `pool_spawn` section
//! measuring spawn amortization on small tensors (per-call scoped-thread
//! sharding — the pre-pool scheduler, reimplemented as the baseline —
//! vs the persistent pool's fast path and its forced queue dispatch),
//! a `batch_decode` section comparing a per-tensor pooled loop with
//! one batched `decode_tensors_batch_report` submission, and a `container_load`
//! section timing ECCF model cold starts: full-model vs 25%-of-layers
//! partial loads through the mmap reader and the pread fallback.
//!
//! `BENCH_encode.json` covers the compress-side hot path:
//!
//! * `pattern_select` — the fused single-sweep pattern selection (sorted
//!   group + boundary-table merge in a reused `GroupScratch`) vs the
//!   pinned per-pattern reference `select_pattern_ref`,
//! * `book_selection` — the packed-lane single-pass codebook selection
//!   (the cached `MultiLenTable` path `encode_group` uses) vs the H-pass
//!   `encoded_len`-per-book baseline,
//! * `encode` — full `encode_group_scratch` and the parallel encode
//!   pipeline,
//! * `calibration` — pool-parallel `TensorMetadata::calibrate` vs the
//!   pinned sequential reference `calibrate_weighted_seq`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ecco_bits::{
    set_window_dispatch, window_dispatch, Block64, BlockCursor, WindowDispatch, WINDOW_SEGMENTS,
};
use ecco_core::parallel::encode_groups_parallel_unchecked;
use ecco_core::{
    decode_group, encode_group, encode_group_scratch, normalize_group, select_pattern_ref,
    EccoConfig, GroupScratch, NormalizedGroup, PatternSelector, RecoveryPolicy, TensorMetadata,
    WeightCodec,
};
use ecco_tensor::Tensor;
use std::hint::black_box;
use std::time::Instant;

use ecco_hw::{decode_tensors_batch_report, ParallelDecoder};

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

    let mut g = c.benchmark_group("tensor_pipeline");
    g.throughput(Throughput::Bytes(2 * t.len() as u64));
    g.bench_function("pipeline_encode_tensor", |b| {
        b.iter(|| {
            encode_groups_parallel_unchecked(black_box(&t), &meta, PatternSelector::MseOptimal)
        })
    });
    g.bench_function("pipeline_decode_tensor", |b| {
        b.iter(|| hw_decode_tensor(black_box(&blocks), &meta))
    });
    g.finish();

    // K-cache blocks for the window_extract section (different bit
    // statistics than weight blocks: shorter codes, denser outliers).
    let kt = SynthSpec::for_kind(TensorKind::KCache, 16, 1024)
        .seeded(2)
        .generate();
    let kmeta = TensorMetadata::calibrate(&[&kt], &cfg, PatternSelector::MinMax);
    let kc_blocks: Vec<Block64> = kt
        .groups(GROUP)
        .map(|g| encode_group(g, &kmeta, PatternSelector::MinMax).0)
        .collect();

    write_bench_json(&t, &meta, &blocks, &kmeta, &kc_blocks);
    write_encode_json(&t, &meta, &cfg);
}

/// Extraction-only timings of the 64×8 window front end over one block
/// set: mean ns for the per-probe scalar baseline and the block-at-a-time
/// fill on the portable tier and the host SIMD tier (`None` where
/// unsupported). Each run extracts every window of every block at the
/// decoder's 15-bit width.
///
/// The scalar loop `black_box`es each window, while the block fills
/// `black_box` each whole 64×8 matrix (their consumer, the EOP walk,
/// takes it as one unit). Without that boundary the compiler happily
/// fuses the "independent" scalar probes into SIMD itself and the
/// comparison measures nothing. Each arm takes the best of three timed
/// runs to shave scheduler noise.
fn window_extract_ns(blocks: &[Block64]) -> (f64, f64, Option<f64>) {
    let best_of = |f: &mut dyn FnMut() -> f64| (0..3).map(|_| f()).fold(f64::INFINITY, f64::min);
    let cursors: Vec<BlockCursor> = blocks.iter().map(Block64::cursor).collect();
    let per_probe = best_of(&mut || {
        time_ns(|| {
            let mut acc = 0u64;
            for cur in &cursors {
                for seg in 0..WINDOW_SEGMENTS {
                    for off in 0..8 {
                        acc ^= black_box(cur.window(seg * 8 + off, 15));
                    }
                }
            }
            black_box(acc);
        })
    });
    let mut rows = [[0u64; 8]; WINDOW_SEGMENTS];
    let block_portable = best_of(&mut || {
        time_ns(|| {
            for cur in &cursors {
                cur.windows_all_portable(15, &mut rows);
                black_box(&rows);
            }
        })
    });
    // Time the SIMD tier through the dispatched hot path (`windows_all`
    // with the tier pinned) — what the decoder actually runs — rather
    // than the re-detecting probe. `set_window_dispatch` clamps to
    // supported tiers, so on a SIMD-less host the pin does not stick and
    // the arm reports `null`.
    let host_tier = window_dispatch();
    let simd_tier = [WindowDispatch::Avx2, WindowDispatch::Neon]
        .into_iter()
        .find(|&t| set_window_dispatch(t) == t);
    let block_simd = simd_tier.map(|_| {
        best_of(&mut || {
            time_ns(|| {
                for cur in &cursors {
                    cur.windows_all(15, &mut rows);
                    black_box(&rows);
                }
            })
        })
    });
    set_window_dispatch(host_tier);
    (per_probe, block_portable, block_simd)
}

/// One `window_extract` JSON object for a block set (throughputs in
/// windows/s; SIMD entries are `null` when the host has no SIMD tier).
fn window_extract_section(blocks: &[Block64]) -> String {
    let windows = (blocks.len() * WINDOW_SEGMENTS * 8) as f64;
    let (probe_ns, block_portable_ns, block_simd_ns) = window_extract_ns(blocks);
    let per_s = |ns: f64| windows / ns * 1e9;
    format!(
        "{{\n      \
           \"per_probe_scalar_windows_per_s\": {probe:.0},\n      \
           \"block_portable_windows_per_s\": {block_portable:.0},\n      \
           \"simd_block_windows_per_s\": {block_simd},\n      \
           \"simd_block_vs_per_probe_speedup\": {block_speedup}\n    }}",
        probe = per_s(probe_ns),
        block_portable = per_s(block_portable_ns),
        block_simd = block_simd_ns.map_or("null".to_string(), |ns| format!("{:.0}", per_s(ns))),
        block_speedup =
            block_simd_ns.map_or("null".to_string(), |ns| format!("{:.2}", probe_ns / ns)),
    )
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

/// Small-tensor scheduling timings: decode `TENSORS` tiny tensors
/// (`BLOCKS_PER` blocks each — the many-users serving shape) four ways.
///
/// * `spawn` — per-call scoped-thread sharding at 2 workers: the
///   scheduler used before the persistent pool, reimplemented here
///   verbatim as the baseline. Every tensor pays two thread spawns +
///   joins.
/// * `pooled` — one `decode_tensors_batch_report` call per tensor on a
///   persistent 2-executor pool: tensors under the chunk threshold take
///   the inline fast path (no queue round-trip) — the spawn cost is
///   amortized away entirely.
/// * `dispatch` — same pool with the chunk size pinned to 1, forcing
///   every block through the injector queue: the cost of the wake-up
///   round-trip itself, for honesty about what the fast path saves.
/// * `batch` — all tensors in ONE `decode_tensors_batch_report`
///   submission.
///
/// Returns mean ns per whole-set pass for (spawn, pooled, dispatch,
/// batch), each the best of three timed runs.
fn pool_timings(
    meta: &TensorMetadata,
    small: &[&[Block64]],
    threads: usize,
) -> (f64, f64, f64, f64) {
    let best_of = |f: &mut dyn FnMut() -> f64| (0..3).map(|_| f()).fold(f64::INFINITY, f64::min);

    let spawn = best_of(&mut || {
        time_ns(|| {
            for t in small {
                let shard = t.len().div_ceil(threads).max(1);
                let mut parts: Vec<Vec<f32>> = Vec::with_capacity(threads);
                std::thread::scope(|s| {
                    let handles: Vec<_> = t
                        .chunks(shard)
                        .map(|run| {
                            s.spawn(move || {
                                let mut out = Vec::with_capacity(run.len() * GROUP);
                                for b in run {
                                    // The fused decoder appends, so the
                                    // shard buffer is the output.
                                    ecco_hw::decode_block_parallel_into(b, meta, &mut out).unwrap();
                                }
                                out
                            })
                        })
                        .collect();
                    for h in handles {
                        parts.push(h.join().unwrap());
                    }
                });
                black_box(parts);
            }
        })
    });

    let pool = ecco_core::pool::PoolBuilder::new().threads(threads).build();
    let pooled = best_of(&mut || {
        ecco_core::pool::with_pool(&pool, || {
            time_ns(|| {
                for t in small {
                    black_box(hw_decode_tensor(black_box(t), meta));
                }
            })
        })
    });

    let queue_pool = ecco_core::pool::PoolBuilder::new()
        .threads(threads)
        .chunk(1)
        .build();
    let dispatch = best_of(&mut || {
        ecco_core::pool::with_pool(&queue_pool, || {
            time_ns(|| {
                for t in small {
                    black_box(hw_decode_tensor(black_box(t), meta));
                }
            })
        })
    });

    let batch_refs: Vec<(&[Block64], &TensorMetadata)> = small.iter().map(|t| (*t, meta)).collect();
    let batch = best_of(&mut || {
        ecco_core::pool::with_pool(&pool, || {
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

    (spawn, pooled, dispatch, batch)
}

/// Container cold-start timings: write a compressed multi-layer model
/// to a temp ECCF file, then time full-model and 25%-of-layers partial
/// loads through `Container::open` (mmap) and `Container::open_buffered`
/// (pread fallback). Rates are decoded-f32 bytes per second — the number
/// a serving cold start cares about — with each arm the best of three
/// timed runs. A throwaway load warms the lazy decode tables so neither
/// backend bills the one-time build.
fn container_load_section() -> String {
    use ecco_container::{write_model, Container, ContainerError};
    use ecco_core::pool::{with_pool, PoolBuilder};
    use ecco_core::{CompressedTensor, WeightCodec};
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

    let warm = Container::open(&path).expect("open bench container");
    with_pool(&pool, || warm.load(&all)).expect("warmup load");
    drop(warm);

    let best_of = |f: &mut dyn FnMut() -> f64| (0..3).map(|_| f()).fold(f64::INFINITY, f64::min);
    type OpenFn = fn(&std::path::Path) -> Result<Container, ContainerError>;
    // rates[backend][0] = full-load B/s, [1] = partial-load B/s.
    let mut rates = [[0.0f64; 2]; 2];
    let backends = [
        Container::open as OpenFn,
        Container::open_buffered as OpenFn,
    ];
    for (bi, open) in backends.into_iter().enumerate() {
        let container = open(&path).expect("reopen bench container");
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
        rates[bi] = [full_bytes / full_ns * 1e9, part_bytes / part_ns * 1e9];
    }
    std::fs::remove_file(&path).ok();

    format!(
        "{{\n      \
           \"layers\": {LAYERS},\n      \
           \"partial_layers\": {partial_layers},\n      \
           \"file_bytes\": {file_bytes},\n      \
           \"decoded_bytes_full\": {decoded:.0},\n      \
           \"mmap_full_load_bytes_per_s\": {mf:.0},\n      \
           \"mmap_partial_load_bytes_per_s\": {mp:.0},\n      \
           \"pread_full_load_bytes_per_s\": {pf:.0},\n      \
           \"pread_partial_load_bytes_per_s\": {pp:.0},\n      \
           \"mmap_vs_pread_full_ratio\": {ratio:.2}\n    }}",
        partial_layers = quarter.len(),
        decoded = full_bytes,
        mf = rates[0][0],
        mp = rates[0][1],
        pf = rates[1][0],
        pp = rates[1][1],
        ratio = rates[0][0] / rates[1][0],
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

/// Hands the raw decoders the block's own codebook and data start bit —
/// identical inputs for every contender, via the codec's header parser.
fn parse_header<'m>(
    block: &Block64,
    meta: &'m TensorMetadata,
) -> (&'m ecco_entropy::Codebook, usize) {
    let h = ecco_core::parse_block_header(block, meta).expect("benchmark blocks are valid");
    (&meta.books[h.kp][h.book_id], h.data_start)
}

fn write_bench_json(
    t: &Tensor,
    meta: &TensorMetadata,
    blocks: &[Block64],
    kmeta: &TensorMetadata,
    kc_blocks: &[Block64],
) {
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
            d.decode_into(black_box(blk), start, GROUP, &mut sink);
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
    let codec = WeightCodec::from_metadata(meta.clone());
    let (ct, _) = codec.compress(t);
    assert_eq!(ct.blocks(), blocks, "codec arm decodes the same blocks");
    let pipeline_ref_ns = time_ns(|| {
        let report = codec.decompress_batch_report(&[black_box(&ct)], RecoveryPolicy::FailTensor);
        assert!(report[0].is_ok(), "benchmark blocks are valid");
        black_box(report);
    });

    // Small-tensor scheduling: spawn-per-call vs the persistent pool.
    const SMALL_TENSORS: usize = 128;
    const SMALL_BLOCKS: usize = 4;
    const POOL_THREADS: usize = 2;
    let small: Vec<&[Block64]> = (0..SMALL_TENSORS)
        .map(|i| {
            let lo = (i * SMALL_BLOCKS) % (blocks.len() - SMALL_BLOCKS);
            &blocks[lo..lo + SMALL_BLOCKS]
        })
        .collect();
    let (spawn_ns, pooled_ns, dispatch_ns, batch_ns) = pool_timings(meta, &small, POOL_THREADS);
    let tensors_per_s = |ns: f64| SMALL_TENSORS as f64 / ns * 1e9;

    let dispatch = match window_dispatch() {
        WindowDispatch::Portable => "portable",
        WindowDispatch::Avx2 => "avx2",
        WindowDispatch::Neon => "neon",
    };
    let per_s = |ns: f64| symbols / ns * 1e9;
    let json = format!(
        "{{\n  \
         \"bench\": \"codec_throughput\",\n  \
         \"blocks\": {n},\n  \
         \"group_size\": {GROUP},\n  \
         \"threads\": {threads},\n  \
         \"raw_decode\": {{\n    \
           \"lut_syms_per_s\": {lut:.0}\n  }},\n  \
         \"window_extract\": {{\n    \
           \"dispatch\": \"{dispatch}\",\n    \
           \"window_bits\": 15,\n    \
           \"weight\": {wsec},\n    \
           \"kcache\": {ksec}\n  }},\n  \
         \"decode_to_values\": {{\n    \
           \"weight\": {wdtv},\n    \
           \"kcache\": {kdtv}\n  }},\n  \
         \"block_decode\": {{\n    \
           \"sequential_reference_syms_per_s\": {seq:.0},\n    \
           \"lut_model_syms_per_s\": {lutb:.0},\n    \
           \"pipeline_reference_syms_per_s\": {piper:.0},\n    \
           \"pipeline_hw_model_syms_per_s\": {pipeh:.0},\n    \
           \"pipeline_vs_sequential_speedup\": {pipe_speedup:.2}\n  }},\n  \
         \"pool_spawn\": {{\n    \
           \"tensors\": {SMALL_TENSORS},\n    \
           \"blocks_per_tensor\": {SMALL_BLOCKS},\n    \
           \"pool_executors\": {POOL_THREADS},\n    \
           \"spawn_per_call_tensors_per_s\": {spawn_tps:.0},\n    \
           \"pooled_tensors_per_s\": {pooled_tps:.0},\n    \
           \"pooled_dispatch_tensors_per_s\": {dispatch_tps:.0},\n    \
           \"pooled_vs_spawn_speedup\": {pool_speedup:.2}\n  }},\n  \
         \"batch_decode\": {{\n    \
           \"tensors\": {SMALL_TENSORS},\n    \
           \"blocks_per_tensor\": {SMALL_BLOCKS},\n    \
           \"pool_executors\": {POOL_THREADS},\n    \
           \"per_tensor_pooled_tensors_per_s\": {pooled_tps:.0},\n    \
           \"batched_submission_tensors_per_s\": {batch_tps:.0},\n    \
           \"batched_vs_per_tensor_speedup\": {batch_speedup:.2},\n    \
           \"notes\": \"claim_ranges groups contiguous tensors into block-target-sized claims, so one submission pays one queue wake-up for the whole batch and spreads it across executors; with a single executor that fixed cost is not amortized and batched submission measured ~0.85-0.9x of the per-tensor loop\"\n  }},\n  \
         \"container_load\": {csec}\n}}\n",
        csec = container_load_section(),
        threads = ecco_core::pool::Pool::current().executors(),
        lut = per_s(lut_ns),
        wsec = window_extract_section(blocks),
        ksec = window_extract_section(kc_blocks),
        wdtv = decode_to_values_section(blocks, meta),
        kdtv = decode_to_values_section(kc_blocks, kmeta),
        seq = per_s(seq_ns),
        lutb = per_s(lut_block_ns),
        piper = per_s(pipeline_ref_ns),
        pipeh = per_s(pipeline_hw_ns),
        pipe_speedup = seq_ns / pipeline_ref_ns,
        spawn_tps = tensors_per_s(spawn_ns),
        pooled_tps = tensors_per_s(pooled_ns),
        dispatch_tps = tensors_per_s(dispatch_ns),
        pool_speedup = spawn_ns / pooled_ns,
        batch_tps = tensors_per_s(batch_ns),
        batch_speedup = pooled_ns / batch_ns,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_codec.json");
    std::fs::write(path, &json).expect("write BENCH_codec.json");
    println!("\nBENCH_codec.json:\n{json}");
    println!(
        "pooled small-tensor decode is {:.1}x the per-call spawn baseline",
        spawn_ns / pooled_ns,
    );
}

/// Compress-side counterpart of [`write_bench_json`]: codebook selection
/// single-pass vs H-pass, full encode throughput, and parallel vs
/// sequential calibration wall time.
fn write_encode_json(t: &Tensor, meta: &TensorMetadata, cfg: &EccoConfig) {
    // Precompute per-group symbol streams exactly as the encoder derives
    // them, so the selection timings isolate the codebook choice.
    let symbol_sets: Vec<(usize, Vec<u16>)> = t
        .groups(GROUP)
        .map(|g| {
            let ng = normalize_group(g, meta.tensor_scale);
            let kp = meta.select_pattern(&ng, PatternSelector::MseOptimal);
            (kp, ng.symbols(&meta.patterns[kp]))
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
        .map(|g| normalize_group(g, meta.tensor_scale))
        .collect();
    let ref_select_ns = time_ns(|| {
        for ng in &ngs {
            black_box(select_pattern_ref(
                &meta.patterns,
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
            let best = meta.books[*kp]
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
    // uses), sequential and through the pooled pipeline.
    let encode_ns = time_ns(|| {
        for g in t.groups(GROUP) {
            black_box(encode_group_scratch(
                black_box(g),
                meta,
                PatternSelector::MseOptimal,
                &mut scratch,
            ));
        }
    });
    let pipeline_ns = time_ns(|| {
        black_box(encode_groups_parallel_unchecked(
            black_box(t),
            meta,
            PatternSelector::MseOptimal,
        ));
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
         \"calibration\": {{\n    \
           \"sequential_ms\": {cal_seq:.2},\n    \
           \"parallel_ms\": {cal_par:.2},\n    \
           \"parallel_vs_sequential_speedup\": {cal_speedup:.2}\n  }}\n}}\n",
        threads = ecco_core::pool::Pool::current().executors(),
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
