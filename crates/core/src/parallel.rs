//! Multi-block codec pipelines: encode/decode whole tensors — and whole
//! *batches* of tensors — across the persistent worker pool.
//!
//! Ecco's block format makes every 64-byte block independently decodable
//! (each carries its own header, and the shared metadata is read-only), so
//! a tensor is embarrassingly parallel across its groups — the same
//! property BGZF exploits to decompress genomic archives block-parallel.
//! This module cuts the group/block array into chunks
//! ([`crate::pool::block_chunk`]) that idle executors claim dynamically
//! from the shared pool ([`crate::pool`]), processes each chunk with
//! chunk-local buffers, and reassembles results in chunk order, so output
//! is bit-identical to the sequential paths
//! ([`encode_group`](crate::block::encode_group)/[`decode_group`]) at any
//! pool size or chunking. Jobs smaller than one chunk run inline on the
//! caller — tiny tensors never pay a scheduling round-trip.
//!
//! The *batched submission* drivers at the bottom flatten many tensors'
//! blocks into one chunk list and feed them through a single pool pass,
//! so concurrent serving requests share the workers instead of each
//! spawning (or queueing) its own pipeline; per-tensor results (and
//! per-tensor failures — including a panicking worker task, surfaced as
//! [`DecodeErrorKind::WorkerPanic`]) stay isolated. Errors leave the
//! drivers *located*: the block index is attached where the block fails,
//! the tensor's batch index where its chunk is claimed.
//!
//! The hardware-model twin (batch decode through the speculative parallel
//! decoder) lives in `ecco-hw::paradec::{decode_blocks_parallel,
//! decode_tensors_batch}`, which reuses these drivers.

use ecco_bits::Block64;
use ecco_tensor::Tensor;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::block::{
    decode_group, decode_group_into, encode_group_scratch, DecodeError, DecodeErrorKind,
    EncodedGroupInfo,
};
use crate::metadata::{PatternSelector, TensorMetadata};
use crate::metrics::CodecStats;
use crate::pool::{block_chunk, Pool};
use crate::select::GroupScratch;

/// Executors the pipelines run on: the current pool's worker threads
/// plus the submitting thread.
pub fn worker_threads() -> usize {
    Pool::current().executors()
}

/// Maps `f(index, item)` over `items` across the pool, returning the
/// results in item order — exactly what the sequential
/// `items.iter().enumerate().map(..)` would produce, in the same order.
///
/// Chunks are claimed dynamically ([`Pool::chunk_for`]); since `f` is
/// per-item, reassembling chunk results in chunk order makes the output
/// independent of pool size and chunking. This is the primitive behind
/// the parallel stages of
/// [`TensorMetadata::calibrate_weighted`](crate::TensorMetadata::calibrate_weighted).
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let pool = Pool::current();
    let chunk = pool.chunk_for(items.len());
    let parts = pool
        .run_map(items.len(), chunk, |lo, hi| {
            (lo..hi).map(|i| f(i, &items[i])).collect::<Vec<R>>()
        })
        .unwrap_or_else(|p| p.resume());
    parts.into_iter().flatten().collect()
}

/// Encodes groups `lo..hi` of `data` (a flat `group_size`-aligned value
/// stream) under `meta`, with the accounting every checked compress
/// path reports: per-group encode stats plus the self-decode round-trip
/// error. The single source of truth for that loop — the tensor
/// pipeline's chunk body and both codecs' batch submissions call this,
/// so stats stay consistent across every entry point.
pub(crate) fn encode_run(
    data: &[f32],
    meta: &TensorMetadata,
    selector: PatternSelector,
    lo: usize,
    hi: usize,
) -> (Vec<Block64>, CodecStats) {
    let gs = meta.group_size;
    let mut blocks = Vec::with_capacity(hi - lo);
    let mut stats = CodecStats::default();
    // One selection scratch per run: the fused sweep reuses its
    // sorted-group and symbol buffers for every group here.
    let mut scratch = GroupScratch::new();
    for g in data[lo * gs..hi * gs].chunks_exact(gs) {
        let (block, info) = encode_group_scratch(g, meta, selector, &mut scratch);
        stats.record(&info, gs);
        let (out, _) = decode_group(&block, meta).expect("own blocks decode");
        stats.record_error(g, &out);
        blocks.push(block);
    }
    (blocks, stats)
}

/// Encodes every `meta.group_size`-value group of `tensor` into blocks,
/// in parallel, returning the blocks in group order plus merged encoding
/// statistics (including round-trip error, as [`crate::WeightCodec::compress`]
/// reports).
///
/// Bit-identical to calling [`encode_group`](crate::block::encode_group)
/// sequentially per group.
///
/// # Panics
///
/// Panics if the tensor length is not a multiple of the group size.
pub fn encode_groups_parallel(
    tensor: &Tensor,
    meta: &TensorMetadata,
    selector: PatternSelector,
) -> (Vec<Block64>, CodecStats) {
    let gs = meta.group_size;
    assert_eq!(tensor.len() % gs, 0, "tensor not a multiple of group size");
    let total = tensor.len() / gs;
    let pool = Pool::current();
    let chunk = block_chunk(&pool, total);
    let data = tensor.data();

    let parts: Vec<(Vec<Block64>, CodecStats)> = pool
        .run_map(total, chunk, |lo, hi| {
            encode_run(data, meta, selector, lo, hi)
        })
        .unwrap_or_else(|p| p.resume());

    let mut blocks = Vec::with_capacity(total);
    let mut stats = CodecStats::default();
    for (b, s) in parts {
        blocks.extend(b);
        stats.merge(&s);
    }
    (blocks, stats)
}

/// Like [`encode_groups_parallel`] but without the round-trip error pass —
/// the fastest path when only the blocks (and clip/pad accounting) are
/// needed, e.g. for throughput benchmarking.
pub fn encode_groups_parallel_unchecked(
    tensor: &Tensor,
    meta: &TensorMetadata,
    selector: PatternSelector,
) -> (Vec<Block64>, Vec<EncodedGroupInfo>) {
    let gs = meta.group_size;
    assert_eq!(tensor.len() % gs, 0, "tensor not a multiple of group size");
    let total = tensor.len() / gs;
    let pool = Pool::current();
    let chunk = block_chunk(&pool, total);
    let data = tensor.data();

    let parts: Vec<Vec<(Block64, EncodedGroupInfo)>> = pool
        .run_map(total, chunk, |lo, hi| {
            let mut scratch = GroupScratch::new();
            data[lo * gs..hi * gs]
                .chunks_exact(gs)
                .map(|g| encode_group_scratch(g, meta, selector, &mut scratch))
                .collect()
        })
        .unwrap_or_else(|p| p.resume());

    let mut blocks = Vec::with_capacity(total);
    let mut infos = Vec::with_capacity(total);
    for part in parts {
        for (b, i) in part {
            blocks.push(b);
            infos.push(i);
        }
    }
    (blocks, infos)
}

/// Decodes `blocks` back into a flat value stream, in parallel, in block
/// order. Bit-identical to calling [`decode_group`] per block.
///
/// # Errors
///
/// Returns the first [`DecodeError`] in block order, as the sequential
/// loop would.
pub fn decode_groups_parallel(
    blocks: &[Block64],
    meta: &TensorMetadata,
) -> Result<Vec<f32>, DecodeError> {
    decode_blocks_parallel_with(
        blocks,
        meta.group_size,
        || (),
        |(), b, out| {
            decode_group_into(b, meta, out)?;
            Ok(())
        },
    )
}

/// The chunked decode driver every multi-block pipeline runs on: blocks
/// are cut into dynamically-claimed chunks ([`crate::pool::block_chunk`]),
/// each chunk builds one `state` with `init` (scratch buffers, decoder
/// tables, …) and folds its blocks through `decode`, and the per-chunk
/// outputs are reassembled in block order — bit-identical to the
/// sequential loop regardless of pool size or chunking.
///
/// [`decode_groups_parallel`] instantiates this with the sequential
/// decoder; `ecco-hw::decode_blocks_parallel` instantiates it with the
/// hardware model's LUT decoder, so both sharded paths share exactly this
/// chunking and reassembly policy.
///
/// `decode` appends exactly `group_size` values per block to `out`.
///
/// # Errors
///
/// Returns the first error in block order, as the sequential loop would,
/// located at its block index ([`DecodeError::block`]).
pub fn decode_blocks_parallel_with<S, I, F>(
    blocks: &[Block64],
    group_size: usize,
    init: I,
    decode: F,
) -> Result<Vec<f32>, DecodeError>
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &Block64, &mut Vec<f32>) -> Result<(), DecodeError> + Sync,
{
    if blocks.is_empty() {
        return Ok(Vec::new());
    }
    let pool = Pool::current();
    let chunk = block_chunk(&pool, blocks.len());
    let parts: Vec<Result<Vec<f32>, DecodeError>> = pool
        .run_map(blocks.len(), chunk, |lo, hi| {
            let mut state = init();
            let mut values = Vec::with_capacity((hi - lo) * group_size);
            for (i, b) in blocks[lo..hi].iter().enumerate() {
                decode(&mut state, b, &mut values).map_err(|e| e.at_block(lo + i))?;
            }
            Ok(values)
        })
        .unwrap_or_else(|p| p.resume());

    let mut out = Vec::with_capacity(blocks.len() * group_size);
    for p in parts {
        out.extend(p?);
    }
    Ok(out)
}

/// One work chunk of a batched multi-tensor submission: `blocks[lo..hi]`
/// of batch entry `tensor`.
#[derive(Clone, Copy, Debug)]
struct BatchChunk {
    tensor: usize,
    lo: usize,
    hi: usize,
}

/// Flattens per-tensor block counts into one chunk list sized by the
/// pool's policy over the *total* batch, so many small tensors still
/// yield chunks big enough to amortize claiming.
fn batch_chunks(pool: &Pool, sizes: &[usize]) -> (Vec<BatchChunk>, usize) {
    let total: usize = sizes.iter().sum();
    let chunk = block_chunk(pool, total);
    let mut out = Vec::with_capacity(total.div_ceil(chunk.max(1)) + sizes.len());
    for (tensor, &n) in sizes.iter().enumerate() {
        let mut lo = 0;
        while lo < n {
            let hi = (lo + chunk).min(n);
            out.push(BatchChunk { tensor, lo, hi });
            lo = hi;
        }
    }
    (out, chunk)
}

/// Groups contiguous chunks into *claims* of roughly `target` blocks
/// each, so a batch of many tiny tensors (whose per-tensor chunks are
/// far below the pool's chunk policy) is claimed a handful of times
/// instead of once per tensor. This is what lets batched submission beat
/// the per-tensor pooled loop: small tensors run entirely on the pool's
/// inline fast path, so a batch driver paying one queue round-trip, one
/// scratch `init()` and one result slot *per tiny tensor* loses to it
/// (the `batch_decode` 0.95x regression); claim-grouping amortizes all
/// three across `target` blocks while keeping per-chunk (= per-tensor)
/// failure isolation inside the claim.
fn claim_ranges(chunks: &[BatchChunk], target: usize) -> Vec<std::ops::Range<usize>> {
    let mut claims = Vec::new();
    let mut start = 0;
    let mut acc = 0;
    for (i, c) in chunks.iter().enumerate() {
        acc += c.hi - c.lo;
        if acc >= target {
            claims.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < chunks.len() {
        claims.push(start..chunks.len());
    }
    claims
}

/// Per-tensor outcome of a fault-tolerant batched decode
/// ([`decode_tensors_batch_report_with`]).
#[derive(Clone, Debug, PartialEq)]
pub enum BatchOutcome {
    /// Every block decoded; the values are bit-identical to the
    /// per-tensor sequential loop.
    Ok(Vec<f32>),
    /// Some blocks were corrupt under [`RecoveryPolicy::SalvageBlocks`]:
    /// healthy blocks' outputs are in place, each corrupt block's group
    /// is zero-filled, and `bad_blocks` lists every corrupt block's
    /// located error in block order.
    Salvaged {
        /// Decoded values with corrupt groups zeroed.
        values: Vec<f32>,
        /// One located error per corrupt block, in block order.
        bad_blocks: Vec<DecodeError>,
    },
    /// The tensor produced no values: its first corrupt block under
    /// [`RecoveryPolicy::FailTensor`], or a worker panic (unknown decode
    /// state, never salvaged).
    Failed(DecodeError),
}

impl BatchOutcome {
    /// The decoded values, if any were produced (`Ok` or `Salvaged`).
    pub fn values(&self) -> Option<&[f32]> {
        match self {
            BatchOutcome::Ok(v) | BatchOutcome::Salvaged { values: v, .. } => Some(v),
            BatchOutcome::Failed(_) => None,
        }
    }

    /// The first located error, if anything went wrong.
    pub fn first_error(&self) -> Option<&DecodeError> {
        match self {
            BatchOutcome::Ok(_) => None,
            BatchOutcome::Salvaged { bad_blocks, .. } => bad_blocks.first(),
            BatchOutcome::Failed(e) => Some(e),
        }
    }

    /// Whether every block of this tensor decoded cleanly.
    pub fn is_ok(&self) -> bool {
        matches!(self, BatchOutcome::Ok(_))
    }
}

/// What a batched decode does when it hits a corrupt block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// The tensor's first corrupt block fails the whole tensor
    /// ([`BatchOutcome::Failed`]); other tensors are unaffected. The
    /// semantics of [`decode_tensors_batch_with`].
    #[default]
    FailTensor,
    /// Zero-fill only the corrupt blocks' groups, keep decoding, and
    /// report each corrupt block ([`BatchOutcome::Salvaged`]). A worker
    /// panic still fails its tensor — a panicked decoder's state is
    /// unknown, so nothing it touched is trusted.
    SalvageBlocks,
}

/// One chunk's result inside the batch driver: decoded values plus the
/// salvage list (empty under `FailTensor`), or the fatal error that ended
/// the chunk.
type ChunkPart = Result<(Vec<f32>, Vec<DecodeError>), DecodeError>;

/// The unified batched-decode driver: one pool pass over every tensor's
/// chunks, grouped into claims (`claim_ranges`), with per-chunk panic
/// containment and `policy`-controlled corrupt-block handling. Returns
/// one [`BatchOutcome`] per tensor, reassembled in block order.
///
/// `decode` receives the batch index of the tensor the block belongs to
/// (for per-tensor metadata) and appends exactly `group_size` values per
/// block. Every error is located: block index at the failing block,
/// tensor index at the claim.
pub fn decode_tensors_batch_report_with<S, I, F>(
    batch: &[&[Block64]],
    group_size: usize,
    policy: RecoveryPolicy,
    init: I,
    decode: F,
) -> Vec<BatchOutcome>
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &Block64, &mut Vec<f32>) -> Result<(), DecodeError> + Sync,
{
    let pool = Pool::current();
    let sizes: Vec<usize> = batch.iter().map(|b| b.len()).collect();
    let (chunks, target) = batch_chunks(&pool, &sizes);
    let claims = claim_ranges(&chunks, target);

    let parts: Vec<Vec<ChunkPart>> = pool
        .run_map(claims.len(), 1, |k, _| {
            // One scratch state serves the whole claim; it is rebuilt
            // only if a panic may have poisoned it.
            let mut state: Option<S> = None;
            let mut out: Vec<ChunkPart> = Vec::with_capacity(claims[k].len());
            for ci in claims[k].clone() {
                let BatchChunk { tensor, lo, hi } = chunks[ci];
                // A panic while decoding (impossible for well-formed
                // metadata, but this is the failure-injection surface)
                // must poison only this tensor's result, not the batch.
                let attempt = catch_unwind(AssertUnwindSafe(|| {
                    let state = state.get_or_insert_with(&init);
                    let mut values = Vec::with_capacity((hi - lo) * group_size);
                    let mut bad: Vec<DecodeError> = Vec::new();
                    for (i, b) in batch[tensor][lo..hi].iter().enumerate() {
                        let before = values.len();
                        match decode(state, tensor, b, &mut values) {
                            Ok(()) => {}
                            Err(e) => {
                                let located = e.at_block(lo + i).at_tensor(tensor);
                                match policy {
                                    RecoveryPolicy::FailTensor => return Err(located),
                                    RecoveryPolicy::SalvageBlocks => {
                                        values.truncate(before);
                                        values.resize(before + group_size, 0.0);
                                        bad.push(located);
                                    }
                                }
                            }
                        }
                    }
                    Ok((values, bad))
                }));
                out.push(match attempt {
                    Ok(part) => part,
                    Err(_) => {
                        state = None;
                        Err(DecodeError::new(DecodeErrorKind::WorkerPanic).at_tensor(tensor))
                    }
                });
            }
            out
        })
        .unwrap_or_else(|p| p.resume());

    // Reassemble per tensor, in block (= chunk) order.
    let mut out: Vec<BatchOutcome> = sizes
        .iter()
        .map(|&n| BatchOutcome::Ok(Vec::with_capacity(n * group_size)))
        .collect();
    for (c, part) in chunks.iter().zip(parts.into_iter().flatten()) {
        let slot = &mut out[c.tensor];
        if matches!(slot, BatchOutcome::Failed(_)) {
            // An earlier chunk of this tensor already failed; keep the
            // first error in block order.
            continue;
        }
        match part {
            Ok((values, bad)) => {
                if !bad.is_empty() {
                    // Promote Ok to Salvaged in place.
                    if let BatchOutcome::Ok(v) = slot {
                        *slot = BatchOutcome::Salvaged {
                            values: std::mem::take(v),
                            bad_blocks: Vec::new(),
                        };
                    }
                }
                match slot {
                    BatchOutcome::Ok(v) => v.extend(values),
                    BatchOutcome::Salvaged {
                        values: v,
                        bad_blocks,
                    } => {
                        v.extend(values);
                        bad_blocks.extend(bad);
                    }
                    BatchOutcome::Failed(_) => unreachable!("filtered above"),
                }
            }
            Err(e) => *slot = BatchOutcome::Failed(e),
        }
    }
    out
}

/// Decodes many tensors' block arrays in **one pool pass** — the batched
/// submission driver behind [`crate::WeightCodec::decompress_batch`] and
/// `ecco-hw::decode_tensors_batch`. All tensors' chunks enter the shared
/// injector queue together (grouped into claims of roughly one pool
/// chunk's worth of blocks), so concurrent requests share workers
/// instead of oversubscribing; a batch that flattens to a single claim
/// runs inline on the caller, multi-claim batches pay one queue wake-up
/// for the whole batch.
///
/// `decode` receives the batch index of the tensor the block belongs to
/// (for per-tensor metadata) and appends exactly `group_size` values per
/// block. Per-tensor results are reassembled in block order.
///
/// Failures stay isolated: each tensor's slot carries its own first
/// [`DecodeError`] in block order — located with its tensor and block
/// indices — and a panicking chunk poisons only its tensor's result
/// (surfaced as [`DecodeErrorKind::WorkerPanic`]); the pool and the rest
/// of the batch are unaffected. This is exactly
/// [`decode_tensors_batch_report_with`] under
/// [`RecoveryPolicy::FailTensor`], flattened to `Result`s.
pub fn decode_tensors_batch_with<S, I, F>(
    batch: &[&[Block64]],
    group_size: usize,
    init: I,
    decode: F,
) -> Vec<Result<Vec<f32>, DecodeError>>
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &Block64, &mut Vec<f32>) -> Result<(), DecodeError> + Sync,
{
    decode_tensors_batch_report_with(batch, group_size, RecoveryPolicy::FailTensor, init, decode)
        .into_iter()
        .map(|o| match o {
            BatchOutcome::Ok(v) => Ok(v),
            BatchOutcome::Failed(e) => Err(e),
            BatchOutcome::Salvaged { .. } => {
                unreachable!("FailTensor never salvages")
            }
        })
        .collect()
}

/// Encodes many tensors in **one pool pass**: per-tensor group counts
/// and an `encode` closure receiving `(batch index, group range)` and
/// returning that chunk's blocks plus statistics. Results are
/// reassembled per tensor in group order — bit-identical to running
/// [`encode_groups_parallel`] per tensor. Like the decode drivers,
/// chunks are grouped into claims so many tiny tensors amortize the
/// queue round-trip.
///
/// This is the driver behind [`crate::WeightCodec::compress_batch`] and
/// [`crate::KvCodec::compress_batch`]. Panics propagate to the caller
/// (encoding valid tensors cannot fail; a panic is a caller bug).
pub fn encode_tensors_batch_with<F>(
    group_counts: &[usize],
    encode: F,
) -> Vec<(Vec<Block64>, CodecStats)>
where
    F: Fn(usize, usize, usize) -> (Vec<Block64>, CodecStats) + Sync,
{
    let pool = Pool::current();
    let (chunks, target) = batch_chunks(&pool, group_counts);
    let claims = claim_ranges(&chunks, target);
    let parts: Vec<Vec<(Vec<Block64>, CodecStats)>> = pool
        .run_map(claims.len(), 1, |k, _| {
            claims[k]
                .clone()
                .map(|ci| {
                    let BatchChunk { tensor, lo, hi } = chunks[ci];
                    encode(tensor, lo, hi)
                })
                .collect()
        })
        .unwrap_or_else(|p| p.resume());

    let mut out: Vec<(Vec<Block64>, CodecStats)> = group_counts
        .iter()
        .map(|&n| (Vec::with_capacity(n), CodecStats::default()))
        .collect();
    for (c, (blocks, stats)) in chunks.iter().zip(parts.into_iter().flatten()) {
        let (ob, os) = &mut out[c.tensor];
        ob.extend(blocks);
        os.merge(&stats);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::encode_group;
    use crate::pool::{with_pool, PoolBuilder};
    use crate::EccoConfig;
    use ecco_tensor::{synth::SynthSpec, TensorKind};
    use proptest::prelude::*;

    fn meta_for(t: &Tensor) -> TensorMetadata {
        let cfg = EccoConfig {
            num_patterns: 16,
            books_per_pattern: 4,
            max_calibration_groups: 128,
            ..EccoConfig::default()
        };
        TensorMetadata::calibrate(&[t], &cfg, PatternSelector::MseOptimal)
    }

    #[test]
    fn parallel_encode_matches_sequential() {
        let t = SynthSpec::for_kind(TensorKind::Weight, 16, 512)
            .seeded(301)
            .generate();
        let meta = meta_for(&t);
        let (par_blocks, par_stats) =
            encode_groups_parallel(&t, &meta, PatternSelector::MseOptimal);

        let mut seq_blocks = Vec::new();
        let mut seq_stats = CodecStats::default();
        for g in t.groups(128) {
            let (b, info) = encode_group(g, &meta, PatternSelector::MseOptimal);
            seq_stats.record(&info, 128);
            let (out, _) = decode_group(&b, &meta).unwrap();
            seq_stats.record_error(g, &out);
            seq_blocks.push(b);
        }
        assert_eq!(par_blocks, seq_blocks, "blocks must be bit-identical");
        assert_eq!(par_stats.groups, seq_stats.groups);
        assert_eq!(par_stats.clipped_symbols, seq_stats.clipped_symbols);
        assert_eq!(par_stats.padded_outliers, seq_stats.padded_outliers);
        assert!((par_stats.nmse() - seq_stats.nmse()).abs() < 1e-12);
    }

    #[test]
    fn parallel_decode_matches_sequential() {
        let t = SynthSpec::for_kind(TensorKind::KCache, 16, 512)
            .seeded(302)
            .generate();
        let meta = meta_for(&t);
        let (blocks, _) = encode_groups_parallel(&t, &meta, PatternSelector::MinMax);
        let par = decode_groups_parallel(&blocks, &meta).unwrap();
        let mut seq = Vec::new();
        for b in &blocks {
            seq.extend(decode_group(b, &meta).unwrap().0);
        }
        assert_eq!(par, seq);
    }

    #[test]
    fn unchecked_encode_matches_checked_blocks() {
        let t = SynthSpec::for_kind(TensorKind::Weight, 8, 512)
            .seeded(303)
            .generate();
        let meta = meta_for(&t);
        let (a, _) = encode_groups_parallel(&t, &meta, PatternSelector::MseOptimal);
        let (b, infos) = encode_groups_parallel_unchecked(&t, &meta, PatternSelector::MseOptimal);
        assert_eq!(a, b);
        assert_eq!(infos.len(), b.len());
    }

    #[test]
    fn single_threaded_env_still_correct() {
        // The chunk math must hold for one executor and tiny inputs.
        let t = SynthSpec::for_kind(TensorKind::Weight, 1, 128)
            .seeded(304)
            .generate();
        let meta = meta_for(&t);
        let pool = PoolBuilder::new().threads(1).build();
        with_pool(&pool, || {
            let (blocks, stats) = encode_groups_parallel(&t, &meta, PatternSelector::MseOptimal);
            assert_eq!(blocks.len(), 1);
            assert_eq!(stats.groups, 1);
            let vals = decode_groups_parallel(&blocks, &meta).unwrap();
            assert_eq!(vals.len(), 128);
        });
    }

    #[test]
    fn batch_decode_isolates_per_tensor_errors() {
        let t = SynthSpec::for_kind(TensorKind::Weight, 8, 512)
            .seeded(305)
            .generate();
        let meta = meta_for(&t);
        let (good, _) = encode_groups_parallel(&t, &meta, PatternSelector::MseOptimal);
        // A block whose pattern id cannot decode: all-ones header run.
        let bad = Block64::from_bytes([0xFF; 64]);
        let mut poisoned = good.clone();
        poisoned[3] = bad;
        let per_block_err = decode_group(&bad, &meta).err();

        let results = decode_tensors_batch_with(
            &[&good, &poisoned, &good],
            meta.group_size,
            || (),
            |(), _ti, b, out| {
                let (v, _) = decode_group(b, &meta)?;
                out.extend_from_slice(&v);
                Ok(())
            },
        );
        assert_eq!(results.len(), 3);
        let seq = decode_groups_parallel(&good, &meta).unwrap();
        assert_eq!(results[0].as_ref().unwrap(), &seq);
        assert_eq!(results[2].as_ref().unwrap(), &seq);
        match (&results[1], per_block_err) {
            (Err(e), Some(want)) => {
                assert_eq!(e.kind, want.kind);
                assert_eq!(e.tensor, Some(1), "error must name the bad tensor");
                assert_eq!(e.block, Some(3), "error must name the bad block");
            }
            other => panic!("poisoned tensor must error like its block: {other:?}"),
        }
    }

    #[test]
    fn batch_report_salvages_only_corrupt_blocks() {
        let t = SynthSpec::for_kind(TensorKind::Weight, 8, 512)
            .seeded(306)
            .generate();
        let meta = meta_for(&t);
        let (good, _) = encode_groups_parallel(&t, &meta, PatternSelector::MseOptimal);
        let bad = Block64::from_bytes([0xFF; 64]);
        let mut poisoned = good.clone();
        poisoned[3] = bad;
        let bad_kind = decode_group(&bad, &meta).unwrap_err().kind;
        let seq = decode_groups_parallel(&good, &meta).unwrap();

        let decode = |(): &mut (), _ti: usize, b: &Block64, out: &mut Vec<f32>| {
            let (v, _) = decode_group(b, &meta)?;
            out.extend_from_slice(&v);
            Ok(())
        };
        let report = decode_tensors_batch_report_with(
            &[&good, &poisoned, &good],
            meta.group_size,
            RecoveryPolicy::SalvageBlocks,
            || (),
            decode,
        );
        assert_eq!(report[0], BatchOutcome::Ok(seq.clone()));
        assert_eq!(report[2], BatchOutcome::Ok(seq.clone()));
        match &report[1] {
            BatchOutcome::Salvaged { values, bad_blocks } => {
                // Only block 3's group is zero-filled; the rest is the
                // healthy reference bit for bit.
                let gs = meta.group_size;
                let mut want = seq.clone();
                want[3 * gs..4 * gs].fill(0.0);
                assert_eq!(values, &want);
                assert_eq!(bad_blocks.len(), 1);
                assert_eq!(bad_blocks[0].kind, bad_kind);
                assert_eq!(
                    (bad_blocks[0].tensor, bad_blocks[0].block),
                    (Some(1), Some(3))
                );
            }
            other => panic!("expected salvage, got {other:?}"),
        }

        // FailTensor through the report API matches the Result API.
        let failed = decode_tensors_batch_report_with(
            &[&good, &poisoned],
            meta.group_size,
            RecoveryPolicy::FailTensor,
            || (),
            decode,
        );
        assert!(failed[0].is_ok());
        match &failed[1] {
            BatchOutcome::Failed(e) => {
                assert_eq!(e.kind, bad_kind);
                assert_eq!((e.tensor, e.block), (Some(1), Some(3)));
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn claim_grouping_preserves_per_tensor_results() {
        // Many tiny tensors: the regression shape behind the batch_decode
        // 0.95x number. Claims must group their chunks without changing a
        // single output bit or mislocating an error.
        let t = SynthSpec::for_kind(TensorKind::Weight, 8, 512)
            .seeded(307)
            .generate();
        let meta = meta_for(&t);
        let (blocks, _) = encode_groups_parallel(&t, &meta, PatternSelector::MseOptimal);
        let tiny: Vec<&[Block64]> = blocks.chunks(2).collect(); // 16 two-block tensors
        let mut poisoned = blocks.clone();
        poisoned[5] = Block64::from_bytes([0xFF; 64]); // tensor 2, block 1
        let tiny_poisoned: Vec<&[Block64]> = poisoned.chunks(2).collect();

        for threads in [1usize, 4] {
            let pool = PoolBuilder::new().threads(threads).build();
            with_pool(&pool, || {
                let results = decode_tensors_batch_with(
                    &tiny,
                    meta.group_size,
                    || (),
                    |(), _ti, b, out| {
                        let (v, _) = decode_group(b, &meta)?;
                        out.extend_from_slice(&v);
                        Ok(())
                    },
                );
                for (r, pair) in results.iter().zip(blocks.chunks(2)) {
                    let mut want = Vec::new();
                    for b in pair {
                        want.extend(decode_group(b, &meta).unwrap().0);
                    }
                    assert_eq!(r.as_ref().unwrap(), &want, "threads {threads}");
                }

                let results = decode_tensors_batch_with(
                    &tiny_poisoned,
                    meta.group_size,
                    || (),
                    |(), _ti, b, out| {
                        let (v, _) = decode_group(b, &meta)?;
                        out.extend_from_slice(&v);
                        Ok(())
                    },
                );
                let e = results[2].as_ref().unwrap_err();
                assert_eq!((e.tensor, e.block), (Some(2), Some(1)), "threads {threads}");
                assert!(results.iter().enumerate().all(|(i, r)| i == 2 || r.is_ok()));
            });
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        /// The pool differential: encode/decode pipelines and the batch
        /// drivers are bit-identical to the sequential reference across
        /// pool sizes {1,2,4,8} × ragged chunk pins — the determinism
        /// contract of the persistent scheduler.
        #[test]
        fn pipelines_bit_identical_across_pool_shapes(
            seed in 0u64..200,
            threads_sel in 0usize..4,
            chunk in 1usize..40,
        ) {
            let threads = [1usize, 2, 4, 8][threads_sel];
            let t = SynthSpec::for_kind(TensorKind::Weight, 8, 512).seeded(seed).generate();
            let meta = meta_for(&t);

            // Sequential references, computed on the default pool.
            let mut seq_blocks = Vec::new();
            for g in t.groups(128) {
                seq_blocks.push(encode_group(g, &meta, PatternSelector::MseOptimal).0);
            }
            let mut seq_vals = Vec::new();
            for b in &seq_blocks {
                seq_vals.extend(decode_group(b, &meta).unwrap().0);
            }

            let pool = PoolBuilder::new().threads(threads).chunk(chunk).build();
            with_pool(&pool, || {
                let (blocks, _) = encode_groups_parallel(&t, &meta, PatternSelector::MseOptimal);
                assert_eq!(blocks, seq_blocks, "encode diverged (threads {threads} chunk {chunk})");
                let vals = decode_groups_parallel(&blocks, &meta).unwrap();
                assert_eq!(vals, seq_vals, "decode diverged (threads {threads} chunk {chunk})");

                // Batch submission == per-tensor loop, bit for bit.
                let empty: &[Block64] = &[];
                let batch = decode_tensors_batch_with(
                    &[&blocks[..], &blocks[..3], empty],
                    meta.group_size,
                    || (),
                    |(), _ti, b, out| {
                        let (v, _) = decode_group(b, &meta)?;
                        out.extend_from_slice(&v);
                        Ok(())
                    },
                );
                assert_eq!(batch[0].as_ref().unwrap(), &seq_vals);
                assert_eq!(batch[1].as_ref().unwrap(), &seq_vals[..3 * 128]);
                assert_eq!(batch[2].as_ref().unwrap(), &Vec::<f32>::new());
            });
        }

        /// Calibration through an injected pool stays bit-identical to
        /// the pinned sequential reference — the pool analogue of the
        /// rayon-era differential tests in `metadata.rs`.
        #[test]
        fn calibrate_bit_identical_across_pool_shapes(
            seed in 0u64..100,
            threads_sel in 0usize..4,
            chunk in 1usize..24,
        ) {
            let threads = [1usize, 2, 4, 8][threads_sel];
            let t = SynthSpec::for_kind(TensorKind::Weight, 4, 512).seeded(seed).generate();
            let cfg = EccoConfig {
                num_patterns: 8,
                books_per_pattern: 2,
                max_calibration_groups: 32,
                ..EccoConfig::default()
            };
            let want = TensorMetadata::calibrate_weighted_seq(
                &[&t], None, &cfg, PatternSelector::MseOptimal,
            );
            let pool = PoolBuilder::new().threads(threads).chunk(chunk).build();
            let got = with_pool(&pool, || {
                TensorMetadata::calibrate(&[&t], &cfg, PatternSelector::MseOptimal)
            });
            prop_assert_eq!(&got.patterns, &want.patterns, "shared patterns");
            prop_assert_eq!(&got.books, &want.books, "codebooks");
            prop_assert_eq!(got.pattern_code.lengths(), want.pattern_code.lengths());
            prop_assert_eq!(got.tensor_scale, want.tensor_scale);
        }
    }
}
