//! ECCF — the random-access compressed model container.
//!
//! A serving process that cold-starts a model wants two things the flat
//! per-tensor wire formats cannot give it: *one file* holding the whole
//! compressed model, and *random access* into it, so loading 25% of the
//! layers reads (and page-faults) 25% of the bytes. ECCF is that file:
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header   "ECCF" | u16 version | u16 flags | u64 reserved     │ 16 B
//! ├──────────────────────────────────────────────────────────────┤
//! │ ECCM metadata snapshot (shared patterns/books, CRC'd)        │
//! ├──────────────────────────────────────────────────────────────┤
//! │ ECCT frame per tensor, self-describing, CRC'd, in order      │
//! ├──────────────────────────────────────────────────────────────┤
//! │ tail directory  "ECCX" | count | meta span+CRC |             │
//! │   per tensor: name | offset | len | blocks | decoded | CRC   │
//! ├──────────────────────────────────────────────────────────────┤
//! │ footer   u64 index_offset | u32 index_crc | "FCCE"           │ 16 B
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! All integers little-endian. The footer is fixed-size and lands at
//! `len - 16`, so a reader seeks there first, CRC-checks the directory,
//! and then knows every frame's byte range without touching one — the
//! BGZF/ZIP tail-index idiom. Frames are independent: each carries its
//! own shape and scale exponent and is CRC-checked *before* decode, so
//! corruption is reported as a located
//! [`ChecksumMismatch`](ecco_core::DecodeErrorKind::ChecksumMismatch)
//! instead of a downstream symbol error, and one rotten frame never
//! poisons its neighbours.
//!
//! Reading goes through [`MapSource`]: mmap on 64-bit unix (zero-copy,
//! pages fault in lazily as frames are touched), positioned reads as the
//! portable fallback (`ECCO_NO_MMAP=1` forces it), or an in-memory
//! buffer for tests and fuzzing. Decode runs through the codec's pooled
//! batch decoder
//! ([`WeightCodec::decompress_batch_report`](ecco_core::WeightCodec::decompress_batch_report)),
//! so a multi-tensor load shares the persistent worker pool's lanes.
//!
//! # Example
//!
//! ```
//! use ecco_container::{encode_model, Container};
//! use ecco_core::{EccoConfig, WeightCodec};
//! use ecco_tensor::{synth::SynthSpec, TensorKind};
//!
//! let t = SynthSpec::for_kind(TensorKind::Weight, 8, 256).generate();
//! let codec = WeightCodec::calibrate(&[&t], &EccoConfig::default());
//! let (ct, _) = codec.compress(&t);
//!
//! let image = encode_model(codec.metadata(), &[("layer0.w", &ct)]);
//! let container = Container::from_bytes(image).unwrap();
//! let loaded = container.load(&["layer0.w"]).unwrap();
//! assert_eq!(loaded[0].data(), codec.decompress(&ct).data());
//! ```

#![deny(unsafe_code)] // confined to source::mmap, which opts back in
#![warn(missing_docs)]

pub mod crc;
pub mod reader;
pub mod source;
pub mod writer;

pub use crc::crc32;
pub use reader::{Container, ContainerError, LoadedTensor, TensorEntry};
pub use source::MapSource;
pub use writer::{encode_model, write_model, ContainerWriter};

/// Magic prefix of a container image.
pub const CONTAINER_MAGIC: [u8; 4] = *b"ECCF";
/// Magic prefix of the tail directory.
pub const DIRECTORY_MAGIC: [u8; 4] = *b"ECCX";
/// Magic suffix of the fixed footer (the container magic reversed, so
/// neither can be mistaken for the other in a hexdump).
pub const FOOTER_MAGIC: [u8; 4] = *b"FCCE";
/// Current container format version.
pub const CONTAINER_VERSION: u16 = 1;
/// Fixed header length: magic + version + flags + reserved.
pub const HEADER_BYTES: usize = 16;
/// Fixed footer length: index offset + index CRC + magic.
pub const FOOTER_BYTES: usize = 16;
/// Cap on directory entries — a lied count must fail fast, not drive a
/// multi-gigabyte allocation (mirrors the wire formats' caps).
pub const MAX_TENSORS: usize = 1 << 16;
/// Cap on tensor-name length in bytes.
pub const MAX_NAME_BYTES: usize = 512;
