//! The codec engine: one batch encode (`encode_batch`) and one batch
//! decode (`decode_batch`) that every `compress*`/`decompress*` method
//! of [`WeightCodec`](crate::WeightCodec) and [`KvCodec`](crate::KvCodec)
//! delegates to, and the pool drivers underneath them.
//!
//! Ecco's block format makes every 64-byte block independently decodable
//! (each carries its own header, and the shared metadata is read-only), so
//! a batch of tensors is embarrassingly parallel across its groups — the
//! same property BGZF exploits to decompress genomic archives
//! block-parallel. The drivers flatten every tensor's groups/blocks into
//! one chunk list, group contiguous chunks into claims that idle
//! executors take from the shared [`ecco_pool`] pool, and reassemble
//! results per tensor in chunk order, so output is bit-identical to the
//! per-group loop
//! ([`encode_group`](crate::block::encode_group)/[`decode_group`](crate::block::decode_group))
//! at any pool size or chunking. A batch that fits in one claim runs
//! inline on the caller — a single small tensor never pays a scheduling
//! round-trip.
//!
//! Per-tensor results — and per-tensor failures, including a panicking
//! decode (surfaced as [`DecodeErrorKind::WorkerPanic`]) — stay isolated.
//! Errors leave the decode driver *located*: the block index is attached
//! where the block fails, the tensor's batch index where its chunk is
//! claimed.
//!
//! Decode copies nothing per tensor. The engine reads every tensor's
//! blocks under the one shared metadata, each with its own power-of-two
//! scale bound by value (the metadata, codebooks and decode tables
//! included, is never cloned), and the driver's chunk at block 0 of a
//! tensor allocates for the whole tensor: that buffer becomes the
//! tensor's values, and the tensor's later chunks extend it, so a tensor
//! decoded in one chunk is allocated once and never copied.
//!
//! The driver ([`decode_tensors_batch_report_with`]) hands its decoder a
//! run of consecutive blocks, one chunk at a time. The codec's run
//! decoder walks them two at a time, so two blocks' serial Huffman
//! chains are in flight at once (Ecco's many-blocks-in-flight decoder,
//! in software), and takes the single walk of
//! [`decode_group_into`](crate::block::decode_group_into) only for an odd
//! last block or to locate a bad header; every value is that of the
//! single walk. The hardware model's batch decode
//! (`ecco_hw::decode_tensors_batch_report`) runs on the same driver with
//! a per-block loop of the speculative parallel decoder.

use ecco_bits::Block64;
use ecco_numerics::Po2Scale;
use ecco_pool::Pool;
use ecco_tensor::{Tensor, GROUP_SIZE};
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::block::{
    decode_groups_scaled_into, encode_group_scratch, encode_group_weighted_scratch, DecodeError,
    DecodeErrorKind,
};
use crate::metadata::{PatternSelector, TensorMetadata};
use crate::metrics::CodecStats;
use crate::pool::block_chunk;
use crate::select::GroupScratch;
use crate::weight::CompressedTensor;

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

/// The encode engine behind every codec `compress*` method: checks each
/// tensor against the group size (and, for activation-aware encoding,
/// `act_mags` against its columns), binds each tensor's own power-of-two
/// scale by value (the shared metadata is never copied), and encodes
/// every tensor's groups in **one pool pass**.
///
/// With `act_mags`, every group is encoded by
/// [`encode_group_weighted_scratch`] under the squared magnitudes of its
/// columns and `selector` is unused; otherwise by
/// [`encode_group_scratch`] under `selector`.
///
/// # Panics
///
/// Panics before any encoding starts if a tensor's length is not a
/// multiple of the group size, or its column count differs from
/// `act_mags.len()`.
pub(crate) fn encode_batch(
    meta: &TensorMetadata,
    tensors: &[&Tensor],
    selector: PatternSelector,
    act_mags: Option<&[f32]>,
) -> Vec<(CompressedTensor, CodecStats)> {
    let gs = GROUP_SIZE;
    for t in tensors {
        assert_eq!(t.len() % gs, 0, "tensor not a multiple of group size");
        if let Some(mags) = act_mags {
            assert_eq!(mags.len(), t.cols(), "magnitude/column mismatch");
        }
    }
    let w2: Option<Vec<f32>> = act_mags.map(|mags| mags.iter().map(|&m| m * m).collect());
    let scales: Vec<Po2Scale> = tensors
        .iter()
        .map(|t| TensorMetadata::scale_for(t))
        .collect();
    let counts: Vec<usize> = tensors.iter().map(|t| t.len() / gs).collect();
    let encoded = encode_tensors_batch_with(&counts, |ti, lo, hi| {
        let data = tensors[ti].data();
        encode_run(data, meta, scales[ti], selector, w2.as_deref(), lo, hi)
    });
    encoded
        .into_iter()
        .zip(tensors)
        .zip(scales)
        .map(|(((blocks, stats), t), scale)| {
            let ct = CompressedTensor::from_parts(t.rows(), t.cols(), gs, scale, blocks);
            (ct, stats)
        })
        .collect()
}

/// Encodes groups `lo..hi` of `data` (a flat group-aligned value stream)
/// under `meta` and the tensor scale `scale`, accumulating the encoder's
/// per-group reports — it only writes, never decodes. `w2`, when given,
/// holds the squared activation magnitude of every column (`w2.len()` is
/// the row length) and switches to weighted encoding.
fn encode_run(
    data: &[f32],
    meta: &TensorMetadata,
    scale: Po2Scale,
    selector: PatternSelector,
    w2: Option<&[f32]>,
    lo: usize,
    hi: usize,
) -> (Vec<Block64>, CodecStats) {
    let gs = GROUP_SIZE;
    let mut blocks = Vec::with_capacity(hi - lo);
    let mut stats = CodecStats::default();
    // One selection scratch per run: selection reuses its sorted-group
    // and symbol buffers for every group here.
    let mut scratch = GroupScratch::new();
    for (gi, g) in (lo..hi).zip(data[lo * gs..hi * gs].chunks_exact(gs)) {
        let (block, info) = match w2 {
            Some(w2) => {
                let col0 = (gi * gs) % w2.len();
                let w2 = &w2[col0..col0 + gs];
                encode_group_weighted_scratch(g, meta, scale, w2, &mut scratch)
            }
            None => encode_group_scratch(g, meta, scale, selector, &mut scratch),
        };
        stats.record(&info, gs);
        blocks.push(block);
    }
    (blocks, stats)
}

/// The decode engine behind every codec `decompress*` method: screens
/// each tensor's shape and decodes every healthy tensor's blocks in
/// **one pool pass** through the codec's run decoder, which walks each
/// chunk's blocks two at a time and is bit-identical to
/// [`decode_group_into`](crate::block::decode_group_into) on each block,
/// under the shared `meta` and the tensor's own scale, bound by value —
/// the metadata is never copied per tensor.
///
/// Nothing panics on malformed inputs. A tensor whose group size is not
/// the format's, or whose block count disagrees with its shape, fails its
/// own slot with a located
/// [`DecodeErrorKind::LengthMismatch`] /
/// [`DecodeErrorKind::TruncatedStream`] without its blocks being touched.
pub(crate) fn decode_batch(
    meta: &TensorMetadata,
    cts: &[&CompressedTensor],
    policy: RecoveryPolicy,
) -> Vec<BatchOutcome> {
    let gs = GROUP_SIZE;
    let screened: Vec<Option<DecodeError>> = cts
        .iter()
        .enumerate()
        .map(|(ti, ct)| {
            let (declared, stored) = (ct.rows() * ct.cols(), ct.blocks().len() * gs);
            if ct.group_size() != gs || declared % gs != 0 {
                Some(DecodeError::new(DecodeErrorKind::LengthMismatch).at_tensor(ti))
            } else if stored == declared {
                None
            } else {
                let kind = if stored < declared {
                    DecodeErrorKind::TruncatedStream
                } else {
                    DecodeErrorKind::LengthMismatch
                };
                Some(
                    DecodeError::new(kind)
                        .at_block(ct.blocks().len())
                        .at_tensor(ti),
                )
            }
        })
        .collect();
    let scales: Vec<Po2Scale> = cts.iter().map(|ct| ct.tensor_scale()).collect();
    // Screened-out tensors enter the pool pass as empty block lists.
    let batch: Vec<&[Block64]> = cts
        .iter()
        .zip(&screened)
        .map(|(ct, s)| if s.is_some() { &[][..] } else { ct.blocks() })
        .collect();
    let mut out = decode_tensors_batch_report_with(&batch, policy, |ti, blocks, out| {
        decode_groups_scaled_into(blocks, meta, scales[ti], out)
    });
    for (slot, s) in out.iter_mut().zip(screened) {
        if let Some(e) = s {
            *slot = BatchOutcome::Failed(e);
        }
    }
    out
}

/// Shapes [`RecoveryPolicy::FailTensor`] outcomes of [`decode_batch`]
/// into tensors: each slot's values at its source's shape, or its
/// located error.
pub(crate) fn into_tensors(
    outcomes: Vec<BatchOutcome>,
    cts: &[&CompressedTensor],
) -> Vec<Result<Tensor, DecodeError>> {
    outcomes
        .into_iter()
        .zip(cts)
        .map(|(o, ct)| match o {
            BatchOutcome::Ok(v) => Ok(Tensor::from_vec(ct.rows(), ct.cols(), v)),
            BatchOutcome::Failed(e) => Err(e),
            BatchOutcome::Salvaged { .. } => unreachable!("FailTensor never salvages"),
        })
        .collect()
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
/// instead of once per tensor. This is what lets batched submission keep
/// up with the per-tensor pooled loop: small tensors run entirely on the
/// pool's inline fast path, so a batch driver paying one queue
/// round-trip and one result slot *per tiny tensor* loses to it;
/// claim-grouping amortizes both across `target` blocks while keeping
/// per-chunk (= per-tensor) failure isolation inside the claim.
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
    /// [`RecoveryPolicy::FailTensor`], a malformed shape, or a worker
    /// panic (unknown decode state, never salvaged).
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
    /// semantics of the codecs' `decompress_batch`.
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

/// The batched-decode driver: one pool pass over every tensor's chunks,
/// grouped into claims (`claim_ranges`), with per-chunk panic
/// containment and `policy`-controlled corrupt-block handling. Returns
/// one [`BatchOutcome`] per tensor, reassembled in block order. All
/// tensors' chunks enter the shared injector queue together, so
/// concurrent requests share workers instead of oversubscribing.
///
/// `decode(tensor, run, values)` receives the batch index of a tensor
/// (for per-tensor metadata) and a run of its consecutive blocks, at most
/// one chunk, and appends exactly [`GROUP_SIZE`] values per block, in
/// block order. At the first block that fails it stops and returns that
/// block's index in `run` and its error, having appended the values of
/// the blocks before it and nothing else; the driver then fails the
/// tensor, or under [`RecoveryPolicy::SalvageBlocks`] zero-fills the
/// block's group and hands `decode` the rest of the run. The codecs pass
/// their run decoder, which walks blocks two at a time; any per-block
/// decoder fits as a loop that stops at its first error. Every error is
/// located: block index at the failing block, tensor index at the claim.
/// A panicking `decode` fails only its own tensor, as
/// [`DecodeErrorKind::WorkerPanic`].
pub fn decode_tensors_batch_report_with<F>(
    batch: &[&[Block64]],
    policy: RecoveryPolicy,
    decode: F,
) -> Vec<BatchOutcome>
where
    F: Fn(usize, &[Block64], &mut Vec<f32>) -> Result<(), (usize, DecodeError)> + Sync,
{
    let pool = Pool::current();
    let sizes: Vec<usize> = batch.iter().map(|b| b.len()).collect();
    let (chunks, target) = batch_chunks(&pool, &sizes);
    let claims = claim_ranges(&chunks, target);

    let parts: Vec<Vec<ChunkPart>> = pool
        .run_map(claims.len(), 1, |k, _| {
            claims[k]
                .clone()
                .map(|ci| {
                    let BatchChunk { tensor, lo, hi } = chunks[ci];
                    // A panic while decoding (impossible for well-formed
                    // metadata, but this is the failure-injection
                    // surface) must poison only this tensor's result.
                    catch_unwind(AssertUnwindSafe(|| {
                        // The tensor's first chunk allocates for the whole
                        // tensor: reassembly keeps its buffer as the
                        // tensor's values and extends it with the rest.
                        let blocks = if lo == 0 { sizes[tensor] } else { hi - lo };
                        let mut values = Vec::with_capacity(blocks * GROUP_SIZE);
                        let mut bad: Vec<DecodeError> = Vec::new();
                        let mut at = lo;
                        while at < hi {
                            let run = &batch[tensor][at..hi];
                            let before = values.len();
                            let Err((i, e)) = decode(tensor, run, &mut values) else {
                                break;
                            };
                            assert!(i < run.len(), "the decoder failed past its run");
                            let located = e.at_block(at + i).at_tensor(tensor);
                            match policy {
                                RecoveryPolicy::FailTensor => return Err(located),
                                RecoveryPolicy::SalvageBlocks => {
                                    let group = before + i * GROUP_SIZE;
                                    values.truncate(group);
                                    values.resize(group + GROUP_SIZE, 0.0);
                                    bad.push(located);
                                    at += i + 1;
                                }
                            }
                        }
                        Ok((values, bad))
                    }))
                    .unwrap_or_else(|_| {
                        Err(DecodeError::new(DecodeErrorKind::WorkerPanic).at_tensor(tensor))
                    })
                })
                .collect()
        })
        .unwrap_or_else(|p| p.resume());

    // Reassemble per tensor, in block (= chunk) order.
    let mut out = vec![BatchOutcome::Ok(Vec::new()); sizes.len()];
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
                let v = match slot {
                    BatchOutcome::Ok(v) => v,
                    BatchOutcome::Salvaged {
                        values: v,
                        bad_blocks,
                    } => {
                        bad_blocks.extend(bad);
                        v
                    }
                    BatchOutcome::Failed(_) => unreachable!("filtered above"),
                };
                // The first chunk's buffer, sized for the whole tensor,
                // becomes the tensor's values; a tensor of one chunk is
                // never copied.
                if c.lo == 0 {
                    *v = values;
                } else {
                    v.extend(values);
                }
            }
            Err(e) => *slot = BatchOutcome::Failed(e),
        }
    }
    out
}

/// Encodes many tensors in **one pool pass**: per-tensor group counts
/// and an `encode` closure receiving `(batch index, group range)` and
/// returning that chunk's blocks plus statistics. Results are
/// reassembled per tensor in group order. Like the decode driver, chunks
/// are grouped into claims so many tiny tensors amortize the queue
/// round-trip. Panics propagate to the caller (encoding valid tensors
/// cannot fail; a panic is a caller bug).
fn encode_tensors_batch_with<F>(
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
    use crate::block::decode_group_scaled_into;
    use crate::{EccoConfig, KvCodec, WeightCodec};
    use ecco_pool::{with_pool, PoolBuilder};
    use ecco_tensor::{synth::SynthSpec, TensorKind};
    use proptest::prelude::*;

    fn cfg() -> EccoConfig {
        EccoConfig {
            num_patterns: 16,
            books_per_pattern: 4,
            max_calibration_groups: 128,
            ..EccoConfig::default()
        }
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The per-group oracle every engine pass must reproduce: the
    /// sequential encode loop (weighted when `mags` is given) under the
    /// tensor's own scale, with the same stats accounting.
    fn oracle_encode(
        meta: &TensorMetadata,
        t: &Tensor,
        selector: PatternSelector,
        mags: Option<&[f32]>,
    ) -> (Vec<Block64>, CodecStats) {
        let scale = TensorMetadata::scale_for(t);
        let gs = GROUP_SIZE;
        let mut scratch = GroupScratch::new();
        let mut blocks = Vec::new();
        let mut stats = CodecStats::default();
        for (gi, g) in t.groups(gs).enumerate() {
            let (block, info) = match mags {
                Some(mags) => {
                    let col0 = (gi * gs) % t.cols();
                    let w2: Vec<f32> = mags[col0..col0 + gs].iter().map(|&m| m * m).collect();
                    encode_group_weighted_scratch(g, meta, scale, &w2, &mut scratch)
                }
                None => encode_group_scratch(g, meta, scale, selector, &mut scratch),
            };
            stats.record(&info, gs);
            blocks.push(block);
        }
        (blocks, stats)
    }

    /// The per-block decode oracle: the codec walk over every block of
    /// batch entry `tensor`, each corrupt block's group zero-filled and
    /// its error located — what `SalvageBlocks` must report.
    fn oracle_decode(
        meta: &TensorMetadata,
        ct: &CompressedTensor,
        tensor: usize,
    ) -> (Vec<f32>, Vec<DecodeError>) {
        let (mut values, mut bad) = (Vec::new(), Vec::new());
        for (i, b) in ct.blocks().iter().enumerate() {
            if let Err(e) = decode_group_scaled_into(b, meta, ct.tensor_scale(), &mut values) {
                values.resize(values.len() + GROUP_SIZE, 0.0);
                bad.push(e.at_block(i).at_tensor(tensor));
            }
        }
        (values, bad)
    }

    /// One oracle per wrapper, for one codec and tensor: `compress` ==
    /// `compress_batch(&[t])[0]` (blocks and stats), and `decompress`,
    /// `decompress_batch` and both report policies are bit-identical.
    /// Returns what the caller compares across pools.
    macro_rules! assert_wrappers_agree {
        ($codec:expr, $t:expr) => {{
            let (codec, t) = (&$codec, &$t);
            let (ct, stats) = codec.compress(t);
            let (batch_ct, batch_stats) = codec.compress_batch(&[t]).remove(0);
            assert_eq!(ct.blocks(), batch_ct.blocks(), "compress_batch blocks");
            assert_eq!(ct.tensor_scale(), batch_ct.tensor_scale());
            assert_eq!(stats, batch_stats, "compress_batch stats");
            let values = bits(codec.decompress(&ct).data());
            let batch = codec.decompress_batch(&[&ct]).remove(0).unwrap();
            assert_eq!(bits(batch.data()), values, "decompress_batch values");
            assert_eq!((batch.rows(), batch.cols()), (t.rows(), t.cols()));
            for policy in [RecoveryPolicy::FailTensor, RecoveryPolicy::SalvageBlocks] {
                let report = codec.decompress_batch_report(&[&ct], policy);
                assert!(report[0].is_ok(), "{policy:?}");
                assert_eq!(bits(report[0].values().unwrap()), values, "{policy:?}");
            }
            (ct.blocks().to_vec(), stats, values)
        }};
    }

    #[test]
    fn codec_wrappers_agree_with_engine_across_pools_and_arms() {
        let w = SynthSpec::for_kind(TensorKind::Weight, 8, 512)
            .seeded(310)
            .generate();
        let kv = SynthSpec::for_kind(TensorKind::KCache, 8, 512)
            .seeded(311)
            .generate();
        let mags: Vec<f32> = (0..w.cols())
            .map(|c| 0.1 + (c % 11) as f32 * 0.07)
            .collect();
        let weight = WeightCodec::calibrate(&[&w], &cfg());
        let aware = WeightCodec::calibrate_aware(&[&w], &mags, &cfg());
        let kv_codec = KvCodec::calibrate(&[&kv], &cfg());

        let mut runs = Vec::new();
        for threads in [1usize, 4] {
            // A pinned chunk splits every tensor across claims.
            let pool = PoolBuilder::new().threads(threads).chunk(5).build();
            runs.push(with_pool(&pool, || {
                [
                    assert_wrappers_agree!(weight, w),
                    assert_wrappers_agree!(aware, w),
                    assert_wrappers_agree!(kv_codec, kv),
                ]
            }));
        }
        assert!(
            runs.windows(2).all(|r| r[0] == r[1]),
            "pool size changed a bit"
        );

        // And the engine equals the per-group loops it replaced (the
        // weighted one included): blocks and stats bit for bit.
        let oracles = [
            oracle_encode(weight.metadata(), &w, PatternSelector::MseOptimal, None),
            oracle_encode(
                aware.metadata(),
                &w,
                PatternSelector::MseOptimal,
                Some(&mags),
            ),
            oracle_encode(kv_codec.metadata(), &kv, PatternSelector::MinMax, None),
        ];
        for ((blocks, stats, _), (want, want_stats)) in runs[0].iter().zip(oracles) {
            assert_eq!(blocks, &want, "engine != per-group loop");
            assert_eq!(stats, &want_stats, "engine stats != per-group loop");
        }
    }

    /// The run decoder pairs blocks inside each chunk run, so a corrupt
    /// header can sit in either slot of a pair, in both, in an odd last
    /// block, or next to a pair; whichever it is, the error must land on
    /// its own block and the healthy blocks around it must decode. Each
    /// tensor is one corruption case, placed by the chunk pin `chunk` so it
    /// hits the second run: its first block (even offset), its second
    /// (odd offset; with pins 3 and 5 the second slot of a pair), both
    /// (one pair), and the second and third (for pin 3 the odd last
    /// block, for pin 5 two pairs). Odd pins 1, 3 and 5 on pools of 1, 2
    /// and 4: `FailTensor` reports each tensor's first corrupt block and
    /// `SalvageBlocks` the per-block oracle's values and located errors.
    #[test]
    fn pair_walk_locates_corrupt_blocks_in_either_slot() {
        let t = SynthSpec::for_kind(TensorKind::Weight, 8, 512)
            .seeded(312)
            .generate();
        let codec = WeightCodec::calibrate(&[&t], &cfg());
        let meta = codec.metadata();
        let (ct, _) = codec.compress(&t);
        let bad = Block64::from_bytes([0xFF; 64]);
        for chunk in [1usize, 3, 5] {
            let cases: [&[usize]; 5] = [
                &[],
                &[chunk],
                &[chunk + 1],
                &[chunk, chunk + 1],
                &[chunk + 1, chunk + 2],
            ];
            let cts: Vec<CompressedTensor> = cases
                .iter()
                .map(|at| {
                    let mut blocks = ct.blocks().to_vec();
                    for &b in *at {
                        blocks[b] = bad;
                    }
                    ct.with_blocks(blocks)
                })
                .collect();
            let refs: Vec<&CompressedTensor> = cts.iter().collect();
            for threads in [1usize, 2, 4] {
                let pool = PoolBuilder::new().threads(threads).chunk(chunk).build();
                let (failed, salvaged) = with_pool(&pool, || {
                    (
                        codec.decompress_batch_report(&refs, RecoveryPolicy::FailTensor),
                        codec.decompress_batch_report(&refs, RecoveryPolicy::SalvageBlocks),
                    )
                });
                for (i, ((ct, f), s)) in cts.iter().zip(&failed).zip(&salvaged).enumerate() {
                    let shape = format!("tensor {i}, chunk {chunk}, {threads} threads");
                    let (want, want_bad) = oracle_decode(meta, ct, i);
                    let located: Vec<_> = want_bad.iter().map(|e| e.block.unwrap()).collect();
                    assert_eq!(located, cases[i], "{shape}: the oracle's errors");
                    match want_bad.first() {
                        None => {
                            assert_eq!(bits(f.values().expect("healthy")), bits(&want), "{shape}");
                            assert_eq!(f, s, "{shape}");
                        }
                        Some(first) => {
                            assert_eq!(f, &BatchOutcome::Failed(*first), "{shape}");
                            let BatchOutcome::Salvaged { values, bad_blocks } = s else {
                                panic!("{shape} salvages: {s:?}");
                            };
                            assert_eq!(bits(values), bits(&want), "{shape}");
                            assert_eq!(bad_blocks, &want_bad, "{shape}");
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        /// The pool differential: batched encode and decode through the
        /// engine are bit-identical to the per-group loops across pool
        /// sizes {1,2,4,8} × ragged chunk pins — including a batch of many
        /// tiny tensors (claim grouping) with corrupt blocks, which must
        /// touch only their own tensors, located. The chunk pin stays
        /// below the big tensor's 32 blocks, so it always spans several
        /// chunks, and it is corrupted in its first chunk and its last:
        /// `FailTensor` reports the first corrupt block, and
        /// `SalvageBlocks` the per-block oracle's values and errors.
        #[test]
        fn pipelines_bit_identical_across_pool_shapes(
            seed in 0u64..200,
            threads_sel in 0usize..4,
            chunk in 1usize..32,
        ) {
            let threads = [1usize, 2, 4, 8][threads_sel];
            let t = SynthSpec::for_kind(TensorKind::Weight, 8, 512).seeded(seed).generate();
            let codec = WeightCodec::calibrate(&[&t], &cfg());
            let meta = codec.metadata();
            // Sixteen two-group tensors cut from `t`, plus `t` itself.
            let tiny: Vec<Tensor> = t
                .data()
                .chunks(256)
                .map(|c| Tensor::from_vec(1, 256, c.to_vec()))
                .collect();
            let mut refs: Vec<&Tensor> = tiny.iter().collect();
            refs.push(&t);

            let pool = PoolBuilder::new().threads(threads).chunk(chunk).build();
            with_pool(&pool, || {
                let batch = codec.compress_batch(&refs);
                for (x, (ct, stats)) in refs.iter().zip(&batch) {
                    let (want, want_stats) = oracle_encode(meta, x, PatternSelector::MseOptimal, None);
                    prop_assert_eq!(ct.blocks(), &want[..], "encode diverged");
                    prop_assert_eq!(stats, &want_stats);
                }

                let mut cts: Vec<CompressedTensor> = batch.into_iter().map(|(ct, _)| ct).collect();
                // A tiny tensor's second block, and the big tensor's last
                // block of its first chunk and its last block.
                let big = cts.len() - 1;
                let poison = [(2, vec![1]), (big, vec![chunk - 1, 31])];
                for (ti, at) in &poison {
                    let mut blocks = cts[*ti].blocks().to_vec();
                    for &b in at {
                        blocks[b] = Block64::from_bytes([0xFF; 64]);
                    }
                    cts[*ti] = cts[*ti].with_blocks(blocks);
                }
                let ct_refs: Vec<&CompressedTensor> = cts.iter().collect();
                let decoded = codec.decompress_batch(&ct_refs);
                let salvaged = codec.decompress_batch_report(&ct_refs, RecoveryPolicy::SalvageBlocks);
                for (i, ((ct, r), s)) in cts.iter().zip(&decoded).zip(&salvaged).enumerate() {
                    let (want, want_bad) = oracle_decode(meta, ct, i);
                    match poison.iter().find(|(ti, _)| *ti == i) {
                        Some((_, at)) => {
                            let e = r.as_ref().unwrap_err();
                            prop_assert_eq!((e.tensor, e.block), (Some(i), Some(at[0])));
                            let located: Vec<_> =
                                want_bad.iter().map(|e| (e.tensor, e.block)).collect();
                            let want_at: Vec<_> = at.iter().map(|&b| (Some(i), Some(b))).collect();
                            prop_assert_eq!(located, want_at);
                            let BatchOutcome::Salvaged { values, bad_blocks } = s else {
                                panic!("tensor {i} salvages: {s:?}");
                            };
                            prop_assert_eq!(bits(values), bits(&want));
                            prop_assert_eq!(bad_blocks, &want_bad);
                        }
                        None => {
                            let got = r.as_ref().expect("healthy tensor decodes");
                            prop_assert_eq!(bits(got.data()), bits(&want));
                            prop_assert!(s.is_ok(), "tensor {} is healthy: {:?}", i, s);
                            prop_assert_eq!(bits(s.values().unwrap()), bits(&want));
                        }
                    }
                }
                Ok(())
            })?;
        }

        /// Calibration through an injected pool stays bit-identical to
        /// the pinned sequential reference.
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
            prop_assert_eq!(got.patterns(), want.patterns(), "shared patterns");
            prop_assert_eq!(got.books(), want.books(), "codebooks");
            prop_assert_eq!(got.pattern_code().lengths(), want.pattern_code().lengths());
            prop_assert_eq!(got.tensor_scale(), want.tensor_scale());
        }
    }
}
