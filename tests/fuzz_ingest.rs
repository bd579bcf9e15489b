//! Structure-aware fuzzing of the codec's untrusted-ingest surface.
//!
//! Every property here mutates *serialized* artifacts — `ECCM` metadata
//! snapshots and `ECCT` compressed-tensor frames from `ecco::codec::wire`,
//! plus raw 64-byte block streams — with field-targeted bit flips,
//! truncations, length-field lies and block splices, then drives the
//! mutated bytes through both decoder arms. The invariants:
//!
//! * **never panic**: every malformation surfaces as a typed
//!   [`DecodeError`], whatever the mutation;
//! * **located errors**: truncations and corrupt blocks are reported at
//!   the right tensor/block index;
//! * **arm agreement**: the sequential reference decoder and the
//!   hardware parallel decoder return the same values *and the same
//!   errors* on corrupt input, across pool sizes {1, 4}.
//!
//! The vendored proptest honours `PROPTEST_CASES` (the CI fuzz-smoke leg
//! raises it to 256+ under both `ECCO_THREADS=1` and `ECCO_THREADS=4`).
//! It has no shrinking, so failures report the deterministic case index
//! instead of a minimized seed.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use ecco::bits::{Block64, BLOCK_BYTES};
use ecco::codec::block::{decode_group, decode_group_into, DecodeError, DecodeErrorKind};
use ecco::codec::parallel::RecoveryPolicy;
use ecco::codec::wire::{
    decode_metadata, decode_tensor, encode_metadata, encode_tensor, METADATA_MAGIC,
    TENSOR_FRAME_HEADER_BYTES,
};
use ecco::codec::{BatchOutcome, CompressedTensor, EccoConfig, TensorMetadata, WeightCodec};
use ecco::container::{crc32, encode_model, Container, ContainerError, FOOTER_BYTES};
use ecco::prelude::*;
use ecco::tensor::GROUP_SIZE;
use proptest::prelude::*;

/// The two tensor names in the container fixture — same byte length, so
/// the duplicate-name splice below can overwrite one with the other
/// without reshaping the directory.
const T0: &str = "blk.0.w";
const T1: &str = "blk.1.w";

struct Fixture {
    /// The tensor `ct` compresses.
    t: Tensor,
    codec: WeightCodec,
    ct: CompressedTensor,
    ct2: CompressedTensor,
    meta: TensorMetadata,
    meta_bytes: Vec<u8>,
    frame_bytes: Vec<u8>,
    /// ECCF container image holding `ct` as [`T0`] and `ct2` as [`T1`].
    image: Vec<u8>,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let t = SynthSpec::for_kind(TensorKind::Weight, 8, 256)
            .seeded(0xF022)
            .generate();
        let t2 = SynthSpec::for_kind(TensorKind::Weight, 4, 256)
            .seeded(0xF023)
            .generate();
        let cfg = EccoConfig {
            num_patterns: 8,
            books_per_pattern: 2,
            max_calibration_groups: 64,
            ..EccoConfig::default()
        };
        let codec = WeightCodec::calibrate(&[&t], &cfg);
        let (ct, _) = codec.compress(&t);
        let (ct2, _) = codec.compress(&t2);
        let meta = codec.metadata().with_scale(ct.tensor_scale());
        let meta_bytes = encode_metadata(&meta);
        let frame_bytes = encode_tensor(&ct);
        let image = encode_model(codec.metadata(), &[(T0, &ct), (T1, &ct2)]);
        Fixture {
            t,
            codec,
            ct,
            ct2,
            meta,
            meta_bytes,
            frame_bytes,
            image,
        }
    })
}

/// Recomputes the footer's directory CRC after a directory mutation, so
/// an index-entry *lie* reaches the structural validators instead of
/// being rejected as a checksum mismatch.
fn reseal_directory(image: &mut [u8]) {
    let f = image.len() - FOOTER_BYTES;
    let index_offset = u64::from_le_bytes(image[f..f + 8].try_into().unwrap()) as usize;
    let crc = crc32(&image[index_offset..f]);
    image[f + 8..f + 12].copy_from_slice(&crc.to_le_bytes());
}

/// Absolute byte offset, within the image, of each directory entry's
/// fixed fields (`offset | len | block_count | decoded_len | crc`),
/// found by walking the directory exactly as the format defines it.
fn entry_field_positions(image: &[u8]) -> Vec<usize> {
    let f = image.len() - FOOTER_BYTES;
    let index_offset = u64::from_le_bytes(image[f..f + 8].try_into().unwrap()) as usize;
    let count = u32::from_le_bytes(
        image[index_offset + 4..index_offset + 8]
            .try_into()
            .unwrap(),
    );
    let mut pos = index_offset + 28;
    let mut out = Vec::new();
    for _ in 0..count {
        let name_len = u16::from_le_bytes(image[pos..pos + 2].try_into().unwrap()) as usize;
        out.push(pos + 2 + name_len);
        pos += 2 + name_len + 32;
    }
    out
}

/// Unwraps the located decode error out of a container failure.
fn decode_err(e: ContainerError) -> DecodeError {
    match e {
        ContainerError::Decode(d) => d,
        other => panic!("expected a located decode error, got {other}"),
    }
}

/// Decodes a block stream sequentially, returning per-block outcomes.
fn decode_seq(blocks: &[Block64], meta: &TensorMetadata) -> Vec<Result<Vec<f32>, DecodeError>> {
    blocks
        .iter()
        .map(|b| decode_group(b, meta).map(|(v, _)| v))
        .collect()
}

/// Asserts the hardware parallel decoder agrees with the codec's
/// per-symbol walk on `blocks` — same values when healthy, same error
/// kind located at the first failing block otherwise.
///
/// Block for block, the codec's [`decode_group_into`] and the hardware
/// model's `decode_block_parallel_into` must append bit-identical values
/// or fail with identical error kinds, healthy or corrupt; then the
/// hardware model's batch decode must reproduce the concatenation on pools
/// {1, 4}.
fn assert_arms_agree(
    blocks: &[Block64],
    meta: &TensorMetadata,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let seq = decode_seq(blocks, meta);
    let (mut codec, mut hw) = (Vec::new(), Vec::new());
    for (i, b) in blocks.iter().enumerate() {
        let (before_codec, before_hw) = (codec.len(), hw.len());
        match (
            decode_group_into(b, meta, &mut codec),
            ecco::hw::decode_block_parallel_into(b, meta, &mut hw),
        ) {
            (Ok(_), Ok(_)) => {
                let (c, h) = (&codec[before_codec..], &hw[before_hw..]);
                prop_assert_eq!(c.len(), h.len(), "block {} length diverged", i);
                for (a, b) in c.iter().zip(h) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "block {} codec != hw", i);
                }
            }
            (Err(a), Err(b)) => {
                prop_assert_eq!(a.kind, b.kind, "block {} error kind diverged", i);
                prop_assert_eq!(
                    (codec.len(), hw.len()),
                    (before_codec, before_hw),
                    "block {} appended on error",
                    i
                );
            }
            (Ok(_), Err(e)) => {
                prop_assert!(false, "block {i}: hw failed ({e}) where the codec decoded")
            }
            (Err(e), Ok(_)) => {
                prop_assert!(false, "block {i}: the codec failed ({e}) where hw decoded")
            }
        }
    }
    let first_err = seq
        .iter()
        .enumerate()
        .find_map(|(i, r)| r.as_ref().err().map(|e| (i, e.kind)));
    for threads in [1usize, 4] {
        let pool = PoolBuilder::new().threads(threads).build();
        let got = with_pool(&pool, || {
            ecco::hw::decode_tensors_batch_report(&[(blocks, meta)], RecoveryPolicy::FailTensor)
                .remove(0)
        });
        match (&first_err, got) {
            (None, BatchOutcome::Ok(values)) => {
                let want: Vec<f32> = seq
                    .iter()
                    .flat_map(|r| r.as_ref().unwrap().iter().copied())
                    .collect();
                prop_assert_eq!(values, want, "pool {} values diverged", threads);
            }
            (Some((i, kind)), BatchOutcome::Failed(e)) => {
                prop_assert_eq!(e.kind, *kind, "pool {} error kind diverged", threads);
                prop_assert_eq!(e.block, Some(*i), "pool {} error block diverged", threads);
            }
            (None, other) => prop_assert!(
                false,
                "pool {threads}: parallel failed ({other:?}) where sequential decoded"
            ),
            (Some((i, k)), _) => prop_assert!(
                false,
                "pool {threads}: parallel decoded where sequential failed at block {i} ({k:?})"
            ),
        }
    }
    Ok(())
}

/// MSB-first bit set on a 64-byte block, mirroring the wire layout.
fn set_bits(bytes: &mut [u8; BLOCK_BYTES], start: usize, len: usize, value: u64) {
    for i in 0..len {
        let bit = (value >> (len - 1 - i)) & 1;
        let pos = start + i;
        let mask = 1u8 << (7 - pos % 8);
        if bit == 1 {
            bytes[pos / 8] |= mask;
        } else {
            bytes[pos / 8] &= !mask;
        }
    }
}

proptest! {
    /// Field-targeted bit flips over serialized metadata snapshots:
    /// decode never panics, and when a mutated snapshot still revives,
    /// both decoder arms agree on it block for block, and it is as usable
    /// as calibrated metadata: the fixture's tensor compresses under it,
    /// and both arms decode every block it wrote.
    #[test]
    fn metadata_snapshot_bitflips_never_panic(
        flips in prop::collection::vec((0usize..2048, 0u8..8), 1..=8),
        region in 0usize..3,
    ) {
        let fix = fixture();
        let mut bytes = fix.meta_bytes.clone();
        // Aim the flips at one structural region: the fixed header, the
        // pattern centroids, or the codebook tables — structure-aware
        // mutation reaches the deep validators plain random bytes miss.
        let patterns_end = 19 + fix.meta.num_patterns() * 15 * 4;
        let (lo, hi) = match region {
            0 => (0usize, 19usize),
            1 => (19, patterns_end),
            _ => (patterns_end, bytes.len()),
        };
        for (off, bit) in &flips {
            let idx = lo + off % (hi - lo);
            bytes[idx] ^= 1 << bit;
        }
        match decode_metadata(&bytes) {
            Err(e) => prop_assert!(
                matches!(
                    e.kind,
                    DecodeErrorKind::TruncatedStream
                        | DecodeErrorKind::CorruptMetadata
                        | DecodeErrorKind::CorruptCodebook
                        | DecodeErrorKind::LengthMismatch
                ),
                "untyped ingest error: {e}"
            ),
            Ok(revived) => {
                // A surviving snapshot must behave: both arms decode the
                // healthy block stream identically under it (values or
                // identical located errors — e.g. a mutated but sorted
                // centroid table decodes different values; both arms
                // must produce the *same* different values).
                assert_arms_agree(fix.ct.blocks(), &revived)?;
                let codec = WeightCodec::from_metadata(revived);
                let (ct, _) = codec.compress(&fix.t);
                let meta = codec.metadata().with_scale(ct.tensor_scale());
                for (i, r) in decode_seq(ct.blocks(), &meta).iter().enumerate() {
                    prop_assert!(r.is_ok(), "block {} the encoder wrote fails: {:?}", i, r);
                }
                assert_arms_agree(ct.blocks(), &meta)?;
            }
        }
    }

    /// Truncations and length-field lies on compressed-tensor frames:
    /// typed errors only, truncation located at the first missing block.
    #[test]
    fn tensor_frame_truncations_are_located(
        cut in 0usize..4096,
        lie in any::<u32>(),
        lie_count in any::<bool>(),
    ) {
        let fix = fixture();
        let mut bytes = fix.frame_bytes.clone();
        if lie_count {
            // The block-count field must never drive allocation or OOB —
            // it is cross-checked against rows x cols / group_size.
            bytes[19..23].copy_from_slice(&lie.to_le_bytes());
            match decode_tensor(&bytes) {
                Ok(ct) => prop_assert_eq!(ct.blocks(), fix.ct.blocks()),
                Err(e) => prop_assert!(
                    matches!(
                        e.kind,
                        DecodeErrorKind::LengthMismatch | DecodeErrorKind::TruncatedStream
                    ),
                    "lied count produced {e}"
                ),
            }
        } else {
            let cut = cut % bytes.len();
            bytes.truncate(cut);
            let e = decode_tensor(&bytes).unwrap_err();
            prop_assert!(
                matches!(
                    e.kind,
                    DecodeErrorKind::TruncatedStream | DecodeErrorKind::CorruptMetadata
                ),
                "truncation at {cut} produced {e}"
            );
            // Cuts inside the block payload locate the first missing block.
            if cut >= 23 && e.kind == DecodeErrorKind::TruncatedStream {
                prop_assert_eq!(e.block, Some((cut - 23) / BLOCK_BYTES));
            }
        }
    }

    /// Corrupt and spliced block streams: the sequential and parallel
    /// arms agree error-for-error across pools, and the salvage report
    /// zero-fills exactly the corrupt groups.
    #[test]
    fn corrupt_block_streams_keep_arms_in_agreement(
        mutations in prop::collection::vec((0usize..16, 0usize..512), 1..=6),
        splice in any::<bool>(),
        swap in (0usize..16, 0usize..16),
    ) {
        let fix = fixture();
        let mut blocks = fix.ct.blocks().to_vec();
        for (bi, bit) in &mutations {
            let bi = bi % blocks.len();
            let mut bytes = *blocks[bi].as_bytes();
            bytes[bit / 8] ^= 1 << (bit % 8);
            blocks[bi] = Block64::from_bytes(bytes);
        }
        if splice {
            // Splice: blocks are position-independent, so a swapped pair
            // must decode to swapped (or identically failing) groups.
            let (a, b) = (swap.0 % blocks.len(), swap.1 % blocks.len());
            blocks.swap(a, b);
        }
        assert_arms_agree(&blocks, &fix.meta)?;

        // The per-block salvage report agrees with the sequential scan:
        // zero-filled groups exactly where decode_group fails, located
        // errors naming those blocks.
        let seq = decode_seq(&blocks, &fix.meta);
        let bad: Vec<usize> = seq
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.is_err().then_some(i))
            .collect();
        let report = ecco::hw::decode_tensors_batch_report(
            &[(&blocks[..], &fix.meta)],
            RecoveryPolicy::SalvageBlocks,
        );
        let gs = GROUP_SIZE;
        match &report[0] {
            BatchOutcome::Ok(values) => {
                prop_assert!(bad.is_empty(), "healthy report for corrupt stream");
                let want: Vec<f32> = seq
                    .iter()
                    .flat_map(|r| r.as_ref().unwrap().iter().copied())
                    .collect();
                prop_assert_eq!(values.clone(), want);
            }
            BatchOutcome::Salvaged { values, bad_blocks } => {
                let located: Vec<usize> =
                    bad_blocks.iter().map(|e| e.block.unwrap()).collect();
                prop_assert_eq!(&located, &bad, "salvage disagreed on bad blocks");
                for (i, r) in seq.iter().enumerate() {
                    let got = &values[i * gs..(i + 1) * gs];
                    match r {
                        Ok(v) => prop_assert_eq!(got, &v[..], "healthy block {} altered", i),
                        Err(_) => prop_assert!(
                            got.iter().all(|&x| x == 0.0),
                            "corrupt block {i} not zero-filled"
                        ),
                    }
                }
            }
            BatchOutcome::Failed(e) => prop_assert!(
                false,
                "salvage mode failed the whole tensor: {e}"
            ),
        }
    }
}

proptest! {
    /// Random bit flips anywhere in a container image: opening and
    /// loading never panic, and **checksum-before-decode** holds — a
    /// tensor slot either round-trips bit-identically to the pristine
    /// baseline or fails with a located `ChecksumMismatch`; a flipped
    /// frame can never leak different values out of a "successful" load,
    /// because its CRC is checked before any decode touches it.
    #[test]
    fn container_bitflips_never_panic_or_leak(
        flips in prop::collection::vec((0usize..1 << 16, 0u8..8), 1..=8),
    ) {
        let fix = fixture();
        let mut image = fix.image.clone();
        let len = image.len();
        for (off, bit) in &flips {
            image[off % len] ^= 1 << bit;
        }
        let container = match Container::from_bytes(image) {
            // Open refused the image with a typed error — that is the
            // no-panic property doing its job.
            Err(_) => return Ok(()),
            Ok(c) => c,
        };
        // If the image opened, the directory survived its CRC, so both
        // names resolve and the report itself cannot fail.
        let slots = container
            .load_report(&[T0, T1], RecoveryPolicy::SalvageBlocks)
            .expect("names come from the CRC-verified directory");
        for (slot, want) in slots.iter().zip([
            fix.codec.decompress(&fix.ct),
            fix.codec.decompress(&fix.ct2),
        ]) {
            match &slot.outcome {
                BatchOutcome::Ok(values) => {
                    prop_assert_eq!(&values[..], want.data(), "flipped frame leaked values")
                }
                BatchOutcome::Failed(e) => prop_assert_eq!(
                    e.kind,
                    DecodeErrorKind::ChecksumMismatch,
                    "frame corruption surfaced as {} instead of a checksum mismatch", e
                ),
                BatchOutcome::Salvaged { .. } => prop_assert!(
                    false,
                    "block-level salvage on a frame whose CRC should have failed first"
                ),
            }
        }
    }

    /// Truncating a container anywhere — tail directory included — is a
    /// typed open failure, never a panic and never a partial success.
    #[test]
    fn container_truncations_always_refuse(cut in 0usize..1 << 16) {
        let fix = fixture();
        let cut = cut % fix.image.len();
        prop_assert!(Container::from_bytes(fix.image[..cut].to_vec()).is_err());
    }
}

/// Index-entry lies, resealed under a valid directory CRC so they reach
/// the structural validators: offsets past EOF, overlapping frames,
/// wrong block counts, lied decoded lengths, duplicate names and an
/// inflated entry count must every one surface as a typed error located
/// at the lying entry — before any frame byte is decoded.
#[test]
fn container_index_lies_are_located() {
    let fix = fixture();
    let fields = entry_field_positions(&fix.image);
    let open_err = |image: Vec<u8>| decode_err(Container::from_bytes(image).unwrap_err());

    // Entry 1's frame offset points past EOF.
    let mut image = fix.image.clone();
    let past_eof = (image.len() as u64).to_le_bytes();
    image[fields[1]..fields[1] + 8].copy_from_slice(&past_eof);
    reseal_directory(&mut image);
    let e = open_err(image);
    assert_eq!(e.kind, DecodeErrorKind::CorruptMetadata);
    assert_eq!(e.tensor, Some(1));

    // Entry 1 claims entry 0's offset: overlapping frames.
    let mut image = fix.image.clone();
    let offset0 = fix.image[fields[0]..fields[0] + 8].to_vec();
    image[fields[1]..fields[1] + 8].copy_from_slice(&offset0);
    reseal_directory(&mut image);
    let e = open_err(image);
    assert_eq!(e.kind, DecodeErrorKind::CorruptMetadata);
    assert!(e.tensor.is_some(), "overlap not located");

    // Block count off by one: the stored frame length no longer matches
    // `header + count × 64`.
    let mut image = fix.image.clone();
    let bc = u32::from_le_bytes(image[fields[0] + 16..fields[0] + 20].try_into().unwrap());
    image[fields[0] + 16..fields[0] + 20].copy_from_slice(&(bc - 1).to_le_bytes());
    reseal_directory(&mut image);
    let e = open_err(image);
    assert_eq!(e.kind, DecodeErrorKind::LengthMismatch);
    assert_eq!(e.tensor, Some(0));

    // Decoded length disagrees with `block_count × group_size`.
    let mut image = fix.image.clone();
    let dl = u64::from_le_bytes(image[fields[0] + 20..fields[0] + 28].try_into().unwrap());
    image[fields[0] + 20..fields[0] + 28].copy_from_slice(&(dl + 1).to_le_bytes());
    reseal_directory(&mut image);
    let e = open_err(image);
    assert_eq!(e.kind, DecodeErrorKind::LengthMismatch);
    assert_eq!(e.tensor, Some(0));

    // Entry 1 renamed to entry 0's (equal-length) name: duplicate key.
    let mut image = fix.image.clone();
    let name_at = |f: usize| f - T0.len()..f;
    let name0 = fix.image[name_at(fields[0])].to_vec();
    image[name_at(fields[1])].copy_from_slice(&name0);
    reseal_directory(&mut image);
    let e = open_err(image);
    assert_eq!(e.kind, DecodeErrorKind::CorruptMetadata);
    assert_eq!(e.tensor, Some(1));

    // Entry count inflated by one: the directory ends mid-"entry 2".
    let mut image = fix.image.clone();
    let f = image.len() - FOOTER_BYTES;
    let index_offset = u64::from_le_bytes(image[f..f + 8].try_into().unwrap()) as usize;
    image[index_offset + 4..index_offset + 8].copy_from_slice(&3u32.to_le_bytes());
    reseal_directory(&mut image);
    let e = open_err(image);
    assert_eq!(e.kind, DecodeErrorKind::TruncatedStream);
    assert_eq!(e.tensor, Some(2));

    // A lying footer pointer (no reseal possible — the pointer is what
    // the CRC region is computed *from*) still refuses cleanly.
    let mut image = fix.image.clone();
    image[f..f + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(Container::from_bytes(image).is_err());
}

/// Frame corruption is isolated: a bit-flipped frame fails its own slot
/// with a located `ChecksumMismatch` while its neighbour loads
/// bit-identically — one rotten tensor never poisons the container.
#[test]
fn container_frame_corruption_is_isolated() {
    let fix = fixture();
    let pristine = Container::from_bytes(fix.image.clone()).unwrap();
    let frame0 = pristine.entries()[0].clone();

    let mut image = fix.image.clone();
    image[(frame0.offset + frame0.len / 2) as usize] ^= 0x10;
    let container = Container::from_bytes(image).unwrap();

    let e = decode_err(container.read_compressed(T0).unwrap_err());
    assert_eq!(e.kind, DecodeErrorKind::ChecksumMismatch);
    assert_eq!(e.tensor, Some(0));

    let slots = container
        .load_report(&[T0, T1], RecoveryPolicy::SalvageBlocks)
        .unwrap();
    assert!(matches!(
        &slots[0].outcome,
        BatchOutcome::Failed(e) if e.kind == DecodeErrorKind::ChecksumMismatch
    ));
    match &slots[1].outcome {
        BatchOutcome::Ok(values) => {
            assert_eq!(&values[..], fix.codec.decompress(&fix.ct2).data());
        }
        other => panic!("healthy neighbour failed: {other:?}"),
    }
    // Strict load refuses the corrupt tensor but serves the healthy one.
    assert!(container.load(&[T0]).is_err());
    assert!(container.load(&[T1]).is_ok());
}

/// Block decode errors inside a frame that passed its CRC are located at
/// the tensor's directory index, whatever its position in the request:
/// T1's corrupt block reports `tensor 1` whether T1 is loaded alone,
/// second or first, under both recovery policies and the strict load.
#[test]
fn container_block_errors_are_located_at_the_directory_index() {
    let fix = fixture();
    let fields = entry_field_positions(&fix.image);
    let entry = Container::from_bytes(fix.image.clone()).unwrap().entries()[1].clone();
    let bad = Block64::from_bytes([0xFF; BLOCK_BYTES]);
    assert!(
        decode_group(&bad, &fix.meta).is_err(),
        "the planted block must fail"
    );

    // Overwrite block 1 of T1's frame, then rewrite the entry CRC and
    // reseal the directory so the frame passes its checksum.
    let mut image = fix.image.clone();
    let (start, end) = (entry.offset as usize, (entry.offset + entry.len) as usize);
    let at = start + TENSOR_FRAME_HEADER_BYTES + BLOCK_BYTES;
    image[at..at + BLOCK_BYTES].copy_from_slice(bad.as_bytes());
    let crc = crc32(&image[start..end]);
    image[fields[1] + 28..fields[1] + 32].copy_from_slice(&crc.to_le_bytes());
    reseal_directory(&mut image);
    let container = Container::from_bytes(image).unwrap();

    for names in [&[T1][..], &[T0, T1], &[T1, T0]] {
        for policy in [RecoveryPolicy::FailTensor, RecoveryPolicy::SalvageBlocks] {
            let slots = container.load_report(names, policy).unwrap();
            let slot = slots.iter().find(|s| s.name == T1).unwrap();
            let e = slot
                .outcome
                .first_error()
                .expect("the corrupt block is reported");
            assert_eq!(
                (e.tensor, e.block),
                (Some(1), Some(1)),
                "load_report({names:?}, {policy:?})"
            );
        }
        let e = decode_err(container.load(names).unwrap_err());
        assert_eq!((e.tensor, e.block), (Some(1), Some(1)), "load({names:?})");
    }
}

/// Length-field lies, exhaustively: write an all-ones u32 over every
/// 4-byte window of the metadata snapshot. No panic, no multi-gigabyte
/// allocation, only typed errors (or a still-valid snapshot when the
/// window lands in a don't-care position like a centroid payload).
#[test]
fn metadata_length_field_lies_are_typed() {
    let fix = fixture();
    for off in 0..fix.meta_bytes.len().saturating_sub(4) {
        let mut bytes = fix.meta_bytes.clone();
        bytes[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        if let Err(e) = decode_metadata(&bytes) {
            assert!(
                matches!(
                    e.kind,
                    DecodeErrorKind::TruncatedStream
                        | DecodeErrorKind::CorruptMetadata
                        | DecodeErrorKind::CorruptCodebook
                        | DecodeErrorKind::LengthMismatch
                ),
                "offset {off}: untyped ingest error {e}"
            );
        }
    }
}

/// The taxonomy audit: every [`DecodeErrorKind`] variant is reachable
/// from a real ingest path. Enumerates [`DecodeErrorKind::ALL`] so adding
/// a variant without a covering corruption fails this test.
#[test]
fn every_decode_error_kind_is_reachable_from_ingest() {
    let fix = fixture();
    let meta = &fix.meta;
    let block0 = fix.ct.blocks()[0];
    let mut reached: BTreeSet<DecodeErrorKind> = BTreeSet::new();
    let mut reach = |e: DecodeError| {
        reached.insert(e.kind);
    };

    // BadPatternId and BadBookId, under metadata with one pattern and
    // H = 3 books: its pattern-id code is the single 1-bit code `0`, and
    // its ID_HF field is 2 bits wide.
    let cfg = EccoConfig {
        num_patterns: 1,
        books_per_pattern: 3,
        max_calibration_groups: 64,
        ..EccoConfig::default()
    };
    let small = WeightCodec::calibrate(&[&fix.t], &cfg);
    let small_meta = small.metadata();
    let bits = small_meta.id_hf_bits() as usize;
    assert_eq!((small_meta.pattern_code().lengths(), bits), (&[1u8][..], 2));
    let small_block = *small.compress(&fix.t).0.blocks()[0].as_bytes();
    // An ID_KP field starting with a 1 names no pattern.
    let mut bytes = small_block;
    set_bits(&mut bytes, bits + 8, 1, 1);
    reach(decode_group(&Block64::from_bytes(bytes), small_meta).unwrap_err());
    // An ID_HF field of 3 names the fourth of three books.
    let mut bytes = small_block;
    set_bits(&mut bytes, 0, bits, 3);
    reach(decode_group(&Block64::from_bytes(bytes), small_meta).unwrap_err());

    // BadScaleFactor: overwrite the SF field with the FP8 E4M3 NaN.
    let mut bytes = *block0.as_bytes();
    set_bits(&mut bytes, meta.id_hf_bits() as usize, 8, 0x7F);
    reach(decode_group(&Block64::from_bytes(bytes), meta).unwrap_err());

    // CorruptMetadata: a snapshot with a flipped magic.
    let mut bad_magic = fix.meta_bytes.clone();
    bad_magic[0] ^= 0xFF;
    assert!(!bad_magic.starts_with(&METADATA_MAGIC));
    reach(decode_metadata(&bad_magic).unwrap_err());

    // CorruptCodebook: a snapshot whose first data book stores a code
    // that is not its length's canonical code.
    let mut bad_code = fix.meta_bytes.clone();
    let first_code = 19 + meta.num_patterns() * 15 * 4 + 4 + 4 + 16;
    bad_code[first_code..first_code + 2].copy_from_slice(&0xFFFFu16.to_le_bytes());
    reach(decode_metadata(&bad_code).unwrap_err());

    // TruncatedStream: a tensor whose block stream ends a block early.
    let frame = encode_tensor(&fix.ct);
    reach(decode_tensor(&frame[..frame.len() - BLOCK_BYTES]).unwrap_err());
    // A well-formed frame still round-trips through the report API.
    let outcome = fix.codec.decompress_batch_report(
        &[&decode_tensor(&frame).unwrap()],
        RecoveryPolicy::FailTensor,
    );
    assert!(matches!(outcome[0], BatchOutcome::Ok(_)));

    // LengthMismatch: a trailing byte after a well-formed frame.
    let mut trailing = frame.clone();
    trailing.push(0);
    reach(decode_tensor(&trailing).unwrap_err());

    // ChecksumMismatch: a bit-flipped container frame fails its CRC
    // before any decode touches it.
    let mut image = fix.image.clone();
    let frame0 = Container::from_bytes(image.clone()).unwrap().entries()[0].clone();
    image[frame0.offset as usize + 10] ^= 1;
    let corrupt_container = Container::from_bytes(image).unwrap();
    reach(decode_err(
        corrupt_container.read_compressed(T0).unwrap_err(),
    ));

    // WorkerPanic: a panicking decode closure in the batch driver.
    let results = ecco::codec::parallel::decode_tensors_batch_report_with(
        &[fix.ct.blocks()],
        RecoveryPolicy::FailTensor,
        |_, _, _| panic!("injected ingest panic"),
    );
    reach(*results[0].first_error().unwrap());

    let missing: Vec<DecodeErrorKind> = DecodeErrorKind::ALL
        .into_iter()
        .filter(|k| !reached.contains(k))
        .collect();
    assert!(
        missing.is_empty(),
        "taxonomy kinds unreachable from ingest tests: {missing:?}"
    );
}
