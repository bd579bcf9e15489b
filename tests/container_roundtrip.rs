//! Tier-1 end-to-end coverage of the ECCF container: write a model,
//! reopen it on every byte-source backend, and load tensors — full model
//! and 25%-of-layers partial — through the pooled batch decoder on pools
//! {1, 4}. Every arm must reproduce the direct `decompress` output bit
//! for bit: the container is transport, not transformation.

use std::path::PathBuf;

use ecco::bits::Block64;
use ecco::codec::{BatchOutcome, EccoConfig, RecoveryPolicy, WeightCodec};
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

        let full = with_pool(&pool, || container.load_all()).unwrap();
        assert_eq!(full.len(), LAYERS);
        for (i, (name, t)) in full.iter().enumerate() {
            assert_eq!(name, &m.names[i]);
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

#[test]
fn mmap_backend_roundtrips() {
    let m = model();
    let path = write_fixture(&m, "mmap");
    let container = Container::open(&path).unwrap();
    // With ECCO_NO_MMAP set in the environment this arm degrades to
    // pread — still a valid roundtrip, just redundant with the test
    // below.
    check_loads(&m, &container);
    drop(container);
    std::fs::remove_file(&path).ok();
}

#[test]
fn pread_backend_roundtrips() {
    let m = model();
    let path = write_fixture(&m, "pread");
    let container = Container::open_buffered(&path).unwrap();
    assert_eq!(container.backend(), "pread");
    check_loads(&m, &container);
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
    assert_eq!(container.backend(), "bytes");
    check_loads(&m, &container);
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
