//! Golden-file pin of the ECCF container writer.
//!
//! The container is a persistence format: bytes written today must open
//! under every future reader, and an innocent-looking writer refactor
//! that shifts one field is a silent compatibility break. This test
//! freezes the written image of a deterministic seeded fixture two ways:
//!
//! * **byte-exact** — total length and CRC-32 of the whole image. Any
//!   writer change that alters one bit fails here first; if the change
//!   is an *intentional* format revision, bump `CONTAINER_VERSION` and
//!   re-pin these constants in the same commit.
//! * **field-level** — magic/version/flags placement, footer arithmetic,
//!   directory shape and per-entry fields, decoded independently of the
//!   reader under test, so a reader bug cannot mask a writer bug.
//!
//! The image's tensors, its K-cache one included, are encoded by
//! `WeightCodec`. The blocks `KvCodec` writes (min/max selection, the
//! serving write path) are pinned separately by `kv_blocks_are_byte_exact`,
//! and what both codecs decode the fixtures to by
//! `decoded_values_are_bit_exact`.

use ecco::codec::{wire, CodecStats, EccoConfig, KvCodec, WeightCodec};
use ecco::container::{
    crc32, encode_model, Container, CONTAINER_VERSION, FOOTER_BYTES, HEADER_BYTES,
};
use ecco::tensor::{synth::SynthSpec, Tensor, TensorKind};

/// Three small tensors of different kinds/shapes under one calibration —
/// enough to exercise multi-frame layout without slowing the suite.
const FIXTURE: &[(&str, TensorKind, usize, usize, u64)] = &[
    ("layer0.attn.wq", TensorKind::Weight, 16, 256, 9001),
    ("layer0.mlp.w1", TensorKind::Weight, 8, 512, 9002),
    ("layer1.kv.cache", TensorKind::KCache, 4, 256, 9003),
];

fn fixture() -> (WeightCodec, Vec<(String, ecco::codec::CompressedTensor)>) {
    let tensors: Vec<Tensor> = FIXTURE
        .iter()
        .map(|&(_, kind, rows, cols, seed)| {
            SynthSpec::for_kind(kind, rows, cols)
                .seeded(seed)
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
    let compressed = codec
        .compress_batch(&refs)
        .into_iter()
        .zip(FIXTURE)
        .map(|((ct, _), &(name, ..))| (name.to_owned(), ct))
        .collect();
    (codec, compressed)
}

fn fixture_image() -> Vec<u8> {
    let (codec, compressed) = fixture();
    let pairs: Vec<(&str, &ecco::codec::CompressedTensor)> =
        compressed.iter().map(|(n, ct)| (n.as_str(), ct)).collect();
    encode_model(codec.metadata(), &pairs)
}

/// Byte-exact pin: re-derive these with the `regen_golden` test below
/// when (and only when) the format intentionally changes.
const GOLDEN_LEN: usize = 6261;
const GOLDEN_CRC: u32 = 0xF35E_CA14;

#[test]
fn writer_output_is_byte_exact() {
    let image = fixture_image();
    assert_eq!(
        (image.len(), crc32(&image)),
        (GOLDEN_LEN, GOLDEN_CRC),
        "ECCF writer output changed — if intentional, bump CONTAINER_VERSION and re-pin"
    );
}

#[test]
fn writer_is_deterministic() {
    assert_eq!(fixture_image(), fixture_image());
}

#[test]
fn field_level_layout() {
    let image = fixture_image();

    // Header.
    assert_eq!(&image[..4], b"ECCF");
    assert_eq!(u16::from_le_bytes([image[4], image[5]]), CONTAINER_VERSION);
    assert_eq!(u16::from_le_bytes([image[6], image[7]]), 0, "flags");
    assert_eq!(&image[8..16], &[0u8; 8], "reserved");

    // Footer.
    let f = image.len() - FOOTER_BYTES;
    assert_eq!(&image[f + 12..], b"FCCE");
    let index_offset = u64::from_le_bytes(image[f..f + 8].try_into().unwrap()) as usize;
    let index_crc = u32::from_le_bytes(image[f + 8..f + 12].try_into().unwrap());
    assert!(index_offset >= HEADER_BYTES && index_offset < f);
    let dir = &image[index_offset..f];
    assert_eq!(crc32(dir), index_crc, "directory CRC");

    // Directory header: magic, count, metadata span + CRC.
    assert_eq!(&dir[..4], b"ECCX");
    let count = u32::from_le_bytes(dir[4..8].try_into().unwrap()) as usize;
    assert_eq!(count, FIXTURE.len());
    let meta_offset = u64::from_le_bytes(dir[8..16].try_into().unwrap()) as usize;
    let meta_len = u64::from_le_bytes(dir[16..24].try_into().unwrap()) as usize;
    let meta_crc = u32::from_le_bytes(dir[24..28].try_into().unwrap());
    assert_eq!(meta_offset, HEADER_BYTES, "snapshot directly after header");
    let meta_bytes = &image[meta_offset..meta_offset + meta_len];
    assert_eq!(&meta_bytes[..4], b"ECCM");
    assert_eq!(crc32(meta_bytes), meta_crc, "metadata CRC");
    wire::decode_metadata(meta_bytes).expect("snapshot revives");

    // Entries: walk the directory by hand, independent of the reader.
    let mut pos = 28usize;
    let mut next_frame = meta_offset + meta_len;
    for &(want_name, _, rows, cols, _) in FIXTURE {
        let name_len = u16::from_le_bytes(dir[pos..pos + 2].try_into().unwrap()) as usize;
        pos += 2;
        let name = std::str::from_utf8(&dir[pos..pos + name_len]).unwrap();
        pos += name_len;
        let offset = u64::from_le_bytes(dir[pos..pos + 8].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(dir[pos + 8..pos + 16].try_into().unwrap()) as usize;
        let block_count = u32::from_le_bytes(dir[pos + 16..pos + 20].try_into().unwrap());
        let decoded_len = u64::from_le_bytes(dir[pos + 20..pos + 28].try_into().unwrap());
        let crc = u32::from_le_bytes(dir[pos + 28..pos + 32].try_into().unwrap());
        pos += 32;

        assert_eq!(name, want_name);
        assert_eq!(offset, next_frame, "frames are contiguous, in order");
        assert_eq!(decoded_len as usize, rows * cols);
        assert_eq!(
            len,
            wire::TENSOR_FRAME_HEADER_BYTES + block_count as usize * 64,
            "frame-size arithmetic"
        );
        let frame = &image[offset..offset + len];
        assert_eq!(&frame[..4], b"ECCT");
        assert_eq!(crc32(frame), crc, "frame CRC");
        next_frame = offset + len;
    }
    assert_eq!(pos, dir.len(), "no trailing directory bytes");
    assert_eq!(next_frame, index_offset, "directory directly after frames");
}

#[test]
fn golden_image_opens_and_roundtrips() {
    let (codec, compressed) = fixture();
    let image = fixture_image();
    let container = Container::from_bytes(image).unwrap();
    assert_eq!(container.len(), FIXTURE.len());
    for (name, ct) in &compressed {
        let got = container.load(&[name.as_str()]).unwrap();
        assert_eq!(got[0].data(), codec.decompress(ct).data());
    }
}

/// The KV fixtures: one seeded K-cache and one seeded V-cache tensor,
/// each calibrated on itself the way the serving workloads calibrate
/// (`max_calibration_groups: 512`) and compressed by `KvCodec`.
const KV_FIXTURE: [(TensorKind, usize, usize, u64); 2] = [
    (TensorKind::KCache, 32, 512, 9101),
    (TensorKind::VCache, 32, 512, 9102),
];

/// Per KV fixture: block count, CRC-32 of every block's bytes in order,
/// and the encoder's `CodecStats`.
const KV_GOLDEN: [(usize, u32, CodecStats); 2] = [
    (
        128,
        0x1A43_613F,
        CodecStats {
            groups: 128,
            values: 16384,
            clipped_symbols: 0,
            padded_outliers: 1108,
            header_bits: 1754,
            data_bits: 46257,
        },
    ),
    (
        128,
        0xD5F6_2491,
        CodecStats {
            groups: 128,
            values: 16384,
            clipped_symbols: 4,
            padded_outliers: 361,
            header_bits: 1769,
            data_bits: 57554,
        },
    ),
];

/// Calibrates `KvCodec` on each KV fixture and compresses it.
fn kv_fixture() -> Vec<(KvCodec, ecco::codec::CompressedTensor, CodecStats)> {
    let cfg = EccoConfig {
        max_calibration_groups: 512,
        ..EccoConfig::default()
    };
    KV_FIXTURE
        .iter()
        .map(|&(kind, rows, cols, seed)| {
            let t = SynthSpec::for_kind(kind, rows, cols)
                .seeded(seed)
                .generate();
            let codec = KvCodec::calibrate(&[&t], &cfg);
            let (ct, stats) = codec.compress(&t);
            (codec, ct, stats)
        })
        .collect()
}

/// Compresses each KV fixture: `(block count, blocks' CRC-32, stats)`.
fn kv_fingerprints() -> Vec<(usize, u32, CodecStats)> {
    kv_fixture()
        .into_iter()
        .map(|(_, ct, stats)| {
            let bytes: Vec<u8> = ct.blocks().iter().flat_map(|b| *b.as_bytes()).collect();
            (ct.blocks().len(), crc32(&bytes), stats)
        })
        .collect()
}

#[test]
fn kv_blocks_are_byte_exact() {
    for (got, (want, fixture)) in kv_fingerprints()
        .iter()
        .zip(KV_GOLDEN.iter().zip(KV_FIXTURE))
    {
        assert_eq!(
            got, want,
            "KvCodec output changed for the {:?} fixture — the KV write path must stay bit-identical",
            fixture.0
        );
    }
}

/// CRC-32 of decoded values: every value's f32 bit pattern,
/// little-endian, in order.
fn values_crc(values: &[f32]) -> u32 {
    let bytes: Vec<u8> = values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    crc32(&bytes)
}

/// Decoded-value pins, one CRC-32 ([`values_crc`]) per tensor: the ECCF
/// fixture's tensors through `WeightCodec::decompress`, in `FIXTURE`
/// order.
const DECODED_WEIGHT_CRCS: [u32; 3] = [0x9D4D_6842, 0x32F4_F1EB, 0x25FA_4D1F];
/// The same for the KV fixtures through `KvCodec::decompress`, in
/// `KV_FIXTURE` order.
const DECODED_KV_CRCS: [u32; 2] = [0xF24E_8014, 0xDF5E_3FF4];

/// Decodes every fixture tensor: `(ECCF fixture CRCs, KV fixture CRCs)`.
fn decoded_fingerprints() -> (Vec<u32>, Vec<u32>) {
    let (codec, compressed) = fixture();
    let weights = compressed
        .iter()
        .map(|(_, ct)| values_crc(codec.decompress(ct).data()))
        .collect();
    let kv = kv_fixture()
        .iter()
        .map(|(codec, ct, _)| values_crc(codec.decompress(ct).data()))
        .collect();
    (weights, kv)
}

/// The written bytes are pinned above; this pins what they decode to.
/// The codec's decode is otherwise checked only against the hardware
/// model, and both run the same block reader, value table and numerics,
/// so a slip shared by the two would pass that differential.
#[test]
fn decoded_values_are_bit_exact() {
    let (weights, kv) = decoded_fingerprints();
    assert_eq!(
        weights, DECODED_WEIGHT_CRCS,
        "WeightCodec::decompress changed a decoded value of the ECCF fixture"
    );
    assert_eq!(
        kv, DECODED_KV_CRCS,
        "KvCodec::decompress changed a decoded value of a KV fixture"
    );
}

/// Not a test of the code — a regeneration helper. Run
/// `cargo test -q --test container_golden -- --ignored --nocapture`
/// after an intentional format change and copy the printed constants.
#[test]
#[ignore]
fn regen_golden() {
    let image = fixture_image();
    println!(
        "const GOLDEN_LEN: usize = {};\nconst GOLDEN_CRC: u32 = 0x{:08X};",
        image.len(),
        crc32(&image)
    );
    for (blocks, crc, stats) in kv_fingerprints() {
        println!("KV_GOLDEN entry: ({blocks}, 0x{crc:08X}, {stats:?})");
    }
    let hex = |crcs: Vec<u32>| -> String {
        let items: Vec<String> = crcs.iter().map(|c| format!("0x{c:08X}")).collect();
        items.join(", ")
    };
    let (weights, kv) = decoded_fingerprints();
    println!("const DECODED_WEIGHT_CRCS: [u32; 3] = [{}];", hex(weights));
    println!("const DECODED_KV_CRCS: [u32; 2] = [{}];", hex(kv));
}
