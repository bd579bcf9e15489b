//! ECCF writer: streams one metadata snapshot plus per-tensor `ECCT`
//! frames into a container, then seals it with a CRC'd tail directory
//! and a fixed footer.
//!
//! The writer is append-only — frames go out in insertion order, the
//! directory is built from what was actually written (offsets, lengths,
//! CRCs measured over the emitted bytes), and nothing is patched after
//! the fact. That makes the output deterministic for a given metadata +
//! tensor sequence, which is what the golden-file test pins.

use std::io::{self, Write};
use std::path::Path;

use ecco_core::{wire, CompressedTensor, TensorMetadata};

use crate::crc::crc32;
use crate::{
    CONTAINER_MAGIC, CONTAINER_VERSION, DIRECTORY_MAGIC, FOOTER_MAGIC, HEADER_BYTES, MAX_NAME_BYTES,
};

/// Directory entry accumulated per frame, serialized verbatim by
/// [`ContainerWriter::finish`].
struct PendingEntry {
    name: String,
    offset: u64,
    len: u64,
    block_count: u32,
    decoded_len: u64,
    crc: u32,
}

/// Incremental ECCF builder: construct with the shared metadata, add
/// tensors, then [`finish`](ContainerWriter::finish) into the final byte
/// image.
///
/// Tensor frames carry their own scale exponent, so one writer serves a
/// whole model even though every tensor was compressed under a different
/// power-of-two tensor scale; the snapshot stores the shared
/// patterns/books once.
pub struct ContainerWriter {
    buf: Vec<u8>,
    meta_offset: u64,
    meta_len: u64,
    meta_crc: u32,
    entries: Vec<PendingEntry>,
}

impl ContainerWriter {
    /// Starts a container: header plus the `ECCM` snapshot of `meta`.
    pub fn new(meta: &TensorMetadata) -> ContainerWriter {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&CONTAINER_MAGIC);
        buf.extend_from_slice(&CONTAINER_VERSION.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes()); // flags
        buf.extend_from_slice(&0u64.to_le_bytes()); // reserved
        debug_assert_eq!(buf.len(), HEADER_BYTES);

        let meta_bytes = wire::encode_metadata(meta);
        let meta_offset = buf.len() as u64;
        let meta_crc = crc32(&meta_bytes);
        buf.extend_from_slice(&meta_bytes);

        ContainerWriter {
            buf,
            meta_offset,
            meta_len: meta_bytes.len() as u64,
            meta_crc,
            entries: Vec::new(),
        }
    }

    /// Appends one tensor as an `ECCT` frame and records its directory
    /// entry (offset, length, block count, decoded length, CRC-32 of the
    /// frame bytes).
    ///
    /// # Panics
    ///
    /// Panics on an empty, oversized (> [`MAX_NAME_BYTES`]) or duplicate
    /// `name` — caller bugs a directory must never encode.
    pub fn add_tensor(&mut self, name: &str, ct: &CompressedTensor) {
        assert!(
            !name.is_empty() && name.len() <= MAX_NAME_BYTES,
            "tensor name must be 1..={MAX_NAME_BYTES} bytes"
        );
        assert!(
            self.entries.iter().all(|e| e.name != name),
            "duplicate tensor name {name:?}"
        );

        let frame = wire::encode_tensor(ct);
        let offset = self.buf.len() as u64;
        self.entries.push(PendingEntry {
            name: name.to_owned(),
            offset,
            len: frame.len() as u64,
            block_count: ct.blocks().len() as u32,
            decoded_len: (ct.rows() * ct.cols()) as u64,
            crc: crc32(&frame),
        });
        self.buf.extend_from_slice(&frame);
    }

    /// Seals the container: writes the tail directory, CRCs it, and
    /// appends the footer pointing back at it. Returns the complete
    /// container image.
    pub fn finish(self) -> Vec<u8> {
        let mut buf = self.buf;
        let index_offset = buf.len() as u64;

        let mut dir = Vec::with_capacity(64 + self.entries.len() * 64);
        dir.extend_from_slice(&DIRECTORY_MAGIC);
        dir.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        dir.extend_from_slice(&self.meta_offset.to_le_bytes());
        dir.extend_from_slice(&self.meta_len.to_le_bytes());
        dir.extend_from_slice(&self.meta_crc.to_le_bytes());
        for e in &self.entries {
            dir.extend_from_slice(&(e.name.len() as u16).to_le_bytes());
            dir.extend_from_slice(e.name.as_bytes());
            dir.extend_from_slice(&e.offset.to_le_bytes());
            dir.extend_from_slice(&e.len.to_le_bytes());
            dir.extend_from_slice(&e.block_count.to_le_bytes());
            dir.extend_from_slice(&e.decoded_len.to_le_bytes());
            dir.extend_from_slice(&e.crc.to_le_bytes());
        }
        let index_crc = crc32(&dir);
        buf.extend_from_slice(&dir);

        buf.extend_from_slice(&index_offset.to_le_bytes());
        buf.extend_from_slice(&index_crc.to_le_bytes());
        buf.extend_from_slice(&FOOTER_MAGIC);
        buf
    }
}

/// One-shot in-memory encode of a whole model: metadata snapshot plus
/// every `(name, tensor)` pair, in order.
pub fn encode_model(meta: &TensorMetadata, tensors: &[(&str, &CompressedTensor)]) -> Vec<u8> {
    let mut w = ContainerWriter::new(meta);
    for (name, ct) in tensors {
        w.add_tensor(name, ct);
    }
    w.finish()
}

/// Writes [`encode_model`]'s image to `path` (create/truncate).
pub fn write_model(
    path: &Path,
    meta: &TensorMetadata,
    tensors: &[(&str, &CompressedTensor)],
) -> io::Result<()> {
    let bytes = encode_model(meta, tensors);
    let mut f = std::fs::File::create(path)?;
    f.write_all(&bytes)?;
    f.sync_all()
}
