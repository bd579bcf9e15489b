//! Tier-1 end-to-end coverage of the ECCF container: write a model,
//! reopen it from the file and from an in-memory image, and load tensors
//! — full model and 25%-of-layers partial — through the pooled batch
//! decoder on pools {1, 4}. Every arm must reproduce the direct
//! `decompress` output bit for bit: the container is transport, not
//! transformation. A file rewritten under an open container must fail
//! the next load with located errors.

use std::path::PathBuf;

use ecco::bits::Block64;
use ecco::codec::{BatchOutcome, DecodeErrorKind, EccoConfig, RecoveryPolicy, WeightCodec};
use ecco::container::{encode_model, write_model, Container, ContainerError};
use ecco::prelude::*;

const LAYERS: usize = 8;

struct Model {
    codec: WeightCodec,
    names: Vec<String>,
    compressed: Vec<ecco::codec::CompressedTensor>,
    baseline: Vec<Vec<f32>>,
}

/// An 8-layer synthetic model — enough layers that a 25% partial load is
/// a real subset — compressed once, with per-tensor baselines from the
/// direct decode path.
fn model() -> Model {
    let tensors: Vec<Tensor> = (0..LAYERS)
        .map(|i| {
            let kind = if i % 2 == 0 {
                TensorKind::Weight
            } else {
                TensorKind::KCache
            };
            SynthSpec::for_kind(kind, 4 + i, 256)
                .seeded(0xC0DE + i as u64)
                .generate()
        })
        .collect();
    let refs: Vec<&Tensor> = tensors.iter().collect();
    let cfg = EccoConfig {
        num_patterns: 8,
        books_per_pattern: 2,
        max_calibration_groups: 64,
        ..EccoConfig::default()
    };
    let codec = WeightCodec::calibrate(&refs, &cfg);
    let compressed: Vec<_> = codec
        .compress_batch(&refs)
        .into_iter()
        .map(|(ct, _)| ct)
        .collect();
    let baseline = compressed
        .iter()
        .map(|ct| codec.decompress(ct).data().to_vec())
        .collect();
    Model {
        codec,
        names: (0..LAYERS).map(|i| format!("layer{i}.w")).collect(),
        compressed,
        baseline,
    }
}

fn temp_eccf(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ecco_rt_{tag}_{}.eccf", std::process::id()));
    p
}

fn write_fixture(m: &Model, tag: &str) -> PathBuf {
    let path = temp_eccf(tag);
    let pairs: Vec<(&str, &ecco::codec::CompressedTensor)> = m
        .names
        .iter()
        .map(String::as_str)
        .zip(m.compressed.iter())
        .collect();
    write_model(&path, m.codec.metadata(), &pairs).unwrap();
    path
}

/// Full-model and 25% partial loads on one opened container, across
/// pools {1, 4}, checked bit-exactly against the baseline.
fn check_loads(m: &Model, container: &Container) {
    let all: Vec<&str> = m.names.iter().map(String::as_str).collect();
    // The 25% partial selection: every 4th layer, off-order on purpose —
    // random access must not care about directory order.
    let partial: Vec<&str> = [6usize, 2].iter().map(|&i| all[i]).collect();
    let partial_base: Vec<&[f32]> = [6usize, 2].iter().map(|&i| &m.baseline[i][..]).collect();

    for threads in [1usize, 4] {
        let pool = PoolBuilder::new().threads(threads).build();

        let full = with_pool(&pool, || container.load(&all)).unwrap();
        assert_eq!(full.len(), LAYERS);
        for (i, (name, t)) in all.iter().zip(&full).enumerate() {
            assert_eq!(
                t.data(),
                &m.baseline[i][..],
                "pool {threads}: full load diverged on {name}"
            );
        }

        let part = with_pool(&pool, || container.load(&partial)).unwrap();
        for ((t, want), name) in part.iter().zip(&partial_base).zip(&partial) {
            assert_eq!(
                t.data(),
                *want,
                "pool {threads}: partial load diverged on {name}"
            );
        }
    }
}

/// `Container::open` on a file: the entry point the memory-mapped
/// backend once served, now read frame by frame with positioned reads.
#[test]
fn mmap_backend_roundtrips() {
    let m = model();
    let path = write_fixture(&m, "mmap");
    let container = Container::open(&path).unwrap();
    check_loads(&m, &container);
    drop(container);
    std::fs::remove_file(&path).ok();
}

/// Positioned reads keep no shared file cursor, so loads from several
/// threads on one open container must each stay bit-exact.
#[test]
fn pread_backend_roundtrips() {
    let m = model();
    let path = write_fixture(&m, "pread");
    let container = Container::open(&path).unwrap();
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| check_loads(&m, &container));
        }
    });
    drop(container);
    std::fs::remove_file(&path).ok();
}

#[test]
fn bytes_backend_roundtrips() {
    let m = model();
    let path = write_fixture(&m, "bytes");
    let image = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let container = Container::from_bytes(image).unwrap();
    check_loads(&m, &container);
}

/// Every slot of `load_report` under both policies is `Failed` with one
/// of `kinds`, located at its directory index (no block), the strict
/// `load` fails on the first slot, and `read_compressed` fails every
/// name with one of `kinds`, located the same way.
fn assert_every_slot_fails(container: &Container, all: &[&str], kinds: &[DecodeErrorKind]) {
    for (i, name) in all.iter().enumerate() {
        match container.read_compressed(name) {
            Err(ContainerError::Decode(e)) => {
                assert!(kinds.contains(&e.kind), "read_compressed {name}: {e}");
                assert_eq!((e.tensor, e.block), (Some(i), None), "{name}: {e}");
            }
            Err(other) => panic!("read_compressed {name}: unexpected error {other}"),
            Ok(_) => panic!("read_compressed {name} of a rewritten file succeeded"),
        }
    }
    match container.load(all) {
        Err(ContainerError::Decode(e)) => {
            assert!(kinds.contains(&e.kind), "load: unexpected {e}");
            assert_eq!(e.tensor, Some(0), "load: {e} not located at slot 0");
        }
        Err(other) => panic!("load: unexpected error {other}"),
        Ok(_) => panic!("load of a rewritten file succeeded"),
    }
    for policy in [RecoveryPolicy::FailTensor, RecoveryPolicy::SalvageBlocks] {
        let loaded = container.load_report(all, policy).unwrap();
        assert_eq!(loaded.len(), all.len());
        for (i, slot) in loaded.iter().enumerate() {
            match &slot.outcome {
                BatchOutcome::Failed(e) => {
                    assert!(
                        kinds.contains(&e.kind),
                        "{policy:?} slot {i}: unexpected {e}"
                    );
                    assert_eq!(
                        (e.tensor, e.block),
                        (Some(i), None),
                        "{policy:?} slot {i}: {e}"
                    );
                    assert_eq!((slot.rows, slot.cols), (0, 0));
                }
                other => panic!("{policy:?} slot {i}: expected a failure, got {other:?}"),
            }
        }
    }
}

/// A model file rewritten in place (`File::create` truncates the inode an
/// open container still reads) fails every later load and frame read
/// with located errors instead of a fatal signal or stale values:
/// (a) truncated to zero length, every frame read runs past the end;
/// (b) re-saved as a smaller one-tensor model, every frame reads short or
/// fails its CRC.
#[test]
fn rewriting_an_open_container_file_is_a_located_error() {
    let m = model();
    let all: Vec<&str> = m.names.iter().map(String::as_str).collect();

    let path = write_fixture(&m, "truncated");
    let container = Container::open(&path).unwrap();
    std::fs::File::create(&path).unwrap();
    assert_every_slot_fails(&container, &all, &[DecodeErrorKind::TruncatedStream]);
    drop(container);
    std::fs::remove_file(&path).ok();

    let path = write_fixture(&m, "resaved");
    let container = Container::open(&path).unwrap();
    let small = SynthSpec::for_kind(TensorKind::Weight, 1, 256)
        .seeded(0xBEEF)
        .generate();
    let (ct, _) = m.codec.compress(&small);
    write_model(&path, m.codec.metadata(), &[("small.w", &ct)]).unwrap();
    assert_every_slot_fails(
        &container,
        &all,
        &[
            DecodeErrorKind::TruncatedStream,
            DecodeErrorKind::ChecksumMismatch,
        ],
    );
    drop(container);
    std::fs::remove_file(&path).ok();
}

#[test]
fn read_compressed_matches_written_blocks() {
    let m = model();
    let path = write_fixture(&m, "blocks");
    let container = Container::open(&path).unwrap();
    for (name, ct) in m.names.iter().zip(&m.compressed) {
        let got = container.read_compressed(name).unwrap();
        assert_eq!(got.blocks(), ct.blocks(), "{name}: frame bytes changed");
        assert_eq!(got.rows(), ct.rows());
        assert_eq!(got.cols(), ct.cols());
        assert_eq!(got.tensor_scale(), ct.tensor_scale());
    }
    drop(container);
    std::fs::remove_file(&path).ok();
}

#[test]
fn unknown_tensor_is_a_clean_error() {
    let m = model();
    let path = write_fixture(&m, "unknown");
    let container = Container::open(&path).unwrap();
    assert!(matches!(
        container.load(&["no.such.tensor"]),
        Err(ContainerError::UnknownTensor(n)) if n == "no.such.tensor"
    ));
    drop(container);
    std::fs::remove_file(&path).ok();
}

/// `load_report` is the codec's batch report over the container's own
/// frames: on both recovery policies, its outcomes equal
/// `WeightCodec::decompress_batch_report` of the `read_compressed`
/// frames, including a frame that carries one corrupt block under a
/// valid CRC (salvaged or failed, located at its directory index).
#[test]
fn load_report_matches_codec_batch_report() {
    const BAD: usize = 3;
    let m = model();
    let mut compressed = m.compressed.clone();
    let mut blocks = compressed[BAD].blocks().to_vec();
    blocks[1] = Block64::from_bytes([0xFF; 64]);
    compressed[BAD] = compressed[BAD].with_blocks(blocks);
    let pairs: Vec<(&str, &ecco::codec::CompressedTensor)> = m
        .names
        .iter()
        .map(String::as_str)
        .zip(compressed.iter())
        .collect();
    let container = Container::from_bytes(encode_model(m.codec.metadata(), &pairs)).unwrap();

    let names: Vec<&str> = m.names.iter().map(String::as_str).collect();
    let frames: Vec<_> = names
        .iter()
        .map(|n| container.read_compressed(n).unwrap())
        .collect();
    let frame_refs: Vec<&_> = frames.iter().collect();
    for policy in [RecoveryPolicy::FailTensor, RecoveryPolicy::SalvageBlocks] {
        let loaded = container.load_report(&names, policy).unwrap();
        let want = m.codec.decompress_batch_report(&frame_refs, policy);
        for (i, (slot, want)) in loaded.iter().zip(&want).enumerate() {
            assert_eq!(&slot.outcome, want, "{policy:?}: {} diverged", slot.name);
            assert_eq!((slot.rows, slot.cols), (frames[i].rows(), frames[i].cols()));
        }
        let e = loaded[BAD]
            .outcome
            .first_error()
            .expect("corrupt block reported");
        assert_eq!((e.tensor, e.block), (Some(BAD), Some(1)));
        match (policy, &loaded[BAD].outcome) {
            (RecoveryPolicy::FailTensor, BatchOutcome::Failed(_))
            | (RecoveryPolicy::SalvageBlocks, BatchOutcome::Salvaged { .. }) => {}
            (_, other) => panic!("{policy:?}: unexpected outcome {other:?}"),
        }
    }
}
