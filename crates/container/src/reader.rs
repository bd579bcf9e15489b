//! ECCF reader: opens a container through a [`MapSource`], validates the
//! tail directory against the actual byte image, and decodes selected
//! tensors through the codec's pooled batch decoder.
//!
//! The directory is untrusted. Everything it claims — offsets, lengths,
//! block counts, decoded lengths, checksums — is cross-checked before a
//! single frame byte reaches [`wire::decode_tensor`], and every
//! malformation maps onto the located [`DecodeError`] taxonomy:
//!
//! * [`DecodeErrorKind::CorruptMetadata`] — bad magic/version anywhere
//!   (header, footer, directory), out-of-bounds or overlapping frame
//!   ranges, duplicate names, or a metadata snapshot that fails to
//!   revive,
//! * [`DecodeErrorKind::TruncatedStream`] — the image ends before the
//!   fixed header + footer, or the directory ends mid-entry,
//! * [`DecodeErrorKind::LengthMismatch`] — an entry whose stored length
//!   disagrees with its own block count, or whose decoded length
//!   disagrees with `block_count × group_size`,
//! * [`DecodeErrorKind::ChecksumMismatch`] — a directory, snapshot or
//!   frame whose CRC-32 does not match its bytes. Frame CRCs are checked
//!   *before* decode, so a bit-flipped frame is reported here (located
//!   at its tensor index) rather than surfacing as some downstream
//!   symbol error.

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::Path;

use ecco_core::wire::{self, TENSOR_FRAME_HEADER_BYTES};
use ecco_core::{
    BatchOutcome, CompressedTensor, DecodeError, DecodeErrorKind, RecoveryPolicy, TensorMetadata,
    WeightCodec,
};
use ecco_tensor::{Tensor, GROUP_SIZE};

use crate::crc::crc32;
use crate::source::MapSource;
use crate::{
    CONTAINER_MAGIC, CONTAINER_VERSION, DIRECTORY_MAGIC, FOOTER_BYTES, FOOTER_MAGIC, HEADER_BYTES,
    MAX_NAME_BYTES, MAX_TENSORS,
};

/// Anything that can go wrong opening or loading from a container.
#[derive(Debug)]
pub enum ContainerError {
    /// The source could not be read (open, map, or positioned read).
    Io(io::Error),
    /// The image is malformed or corrupt — a located decode-taxonomy
    /// error (`tensor` carries the directory index where applicable).
    Decode(DecodeError),
    /// A requested tensor name is not in the directory.
    UnknownTensor(String),
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::Io(e) => write!(f, "container io error: {e}"),
            ContainerError::Decode(e) => write!(f, "container decode error: {e}"),
            ContainerError::UnknownTensor(n) => write!(f, "unknown tensor {n:?}"),
        }
    }
}

impl std::error::Error for ContainerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ContainerError::Io(e) => Some(e),
            ContainerError::Decode(e) => Some(e),
            ContainerError::UnknownTensor(_) => None,
        }
    }
}

impl From<io::Error> for ContainerError {
    fn from(e: io::Error) -> ContainerError {
        ContainerError::Io(e)
    }
}

impl From<DecodeError> for ContainerError {
    fn from(e: DecodeError) -> ContainerError {
        ContainerError::Decode(e)
    }
}

/// One validated directory entry: where a tensor's frame lives and what
/// the frame must contain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TensorEntry {
    /// Tensor name (directory key).
    pub name: String,
    /// Frame start, absolute byte offset into the container.
    pub offset: u64,
    /// Frame length in bytes (header + blocks).
    pub len: u64,
    /// Number of 64-byte blocks in the frame.
    pub block_count: u32,
    /// Decoded element count (`rows × cols`).
    pub decoded_len: u64,
    /// CRC-32 of the frame bytes.
    pub crc: u32,
}

/// One slot of a [`Container::load_report`] result.
#[derive(Debug)]
pub struct LoadedTensor {
    /// The requested name.
    pub name: String,
    /// Row count from the frame header (0 when the read failed).
    pub rows: usize,
    /// Column count from the frame header (0 when the read failed).
    pub cols: usize,
    /// Decode outcome: values, salvage report, or the located error.
    pub outcome: BatchOutcome,
}

/// An open, validated ECCF container.
///
/// Opening verifies the footer, directory CRC, metadata snapshot and
/// every directory entry's internal consistency; frame payloads are
/// CRC-checked lazily, on first read of each tensor, so a partial load
/// never touches (or faults in) the frames it skips.
pub struct Container {
    source: MapSource,
    /// The decoder for every frame, built once from the revived snapshot
    /// so its lazily built decode tables are shared by every load.
    codec: WeightCodec,
    entries: Vec<TensorEntry>,
    by_name: HashMap<String, usize>,
}

impl fmt::Debug for Container {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Container")
            .field("backend", &self.backend())
            .field("tensors", &self.entries.len())
            .finish_non_exhaustive()
    }
}

fn corrupt() -> DecodeError {
    DecodeError::new(DecodeErrorKind::CorruptMetadata)
}

fn truncated() -> DecodeError {
    DecodeError::new(DecodeErrorKind::TruncatedStream)
}

/// Bounds-checked little-endian cursor over the directory bytes; reads
/// past the end are `TruncatedStream` like the wire formats'.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() - self.pos < n {
            return Err(truncated());
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.array::<2>()?))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array::<4>()?))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array::<8>()?))
    }
}

impl Container {
    /// Opens `path` via [`MapSource::open`] (mmap where available).
    pub fn open(path: &Path) -> Result<Container, ContainerError> {
        Container::from_source(MapSource::open(path)?)
    }

    /// Opens `path` on the buffered `pread` backend.
    pub fn open_buffered(path: &Path) -> Result<Container, ContainerError> {
        Container::from_source(MapSource::open_buffered(path)?)
    }

    /// Opens an in-memory container image (tests, fuzzing).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Container, ContainerError> {
        Container::from_source(MapSource::from_bytes(bytes))
    }

    /// Opens and fully validates a container from any byte source.
    pub fn from_source(source: MapSource) -> Result<Container, ContainerError> {
        let total = source.len();
        if total < (HEADER_BYTES + FOOTER_BYTES) as u64 {
            return Err(truncated().into());
        }

        // Fixed header: magic + version. Flags/reserved are ignored on
        // read (v1 defines none) so future writers can set them without
        // breaking v1 readers.
        let header = source.read(0, HEADER_BYTES)?;
        if header[..4] != CONTAINER_MAGIC {
            return Err(corrupt().into());
        }
        if u16::from_le_bytes([header[4], header[5]]) != CONTAINER_VERSION {
            return Err(corrupt().into());
        }

        // Fixed footer: directory pointer + directory CRC + magic.
        let footer = source.read(total - FOOTER_BYTES as u64, FOOTER_BYTES)?;
        if footer[12..16] != FOOTER_MAGIC {
            return Err(corrupt().into());
        }
        let index_offset = u64::from_le_bytes(footer[..8].try_into().expect("8 bytes"));
        let index_crc = u32::from_le_bytes(footer[8..12].try_into().expect("4 bytes"));
        let body_end = total - FOOTER_BYTES as u64;
        if index_offset < HEADER_BYTES as u64 || index_offset > body_end {
            return Err(corrupt().into());
        }

        // Directory CRC before the directory is parsed: a truncated or
        // bit-flipped directory is a checksum mismatch, not whatever
        // garbage its fields would otherwise parse into.
        let dir_len = (body_end - index_offset) as usize;
        let dir = source.read(index_offset, dir_len)?;
        if crc32(&dir) != index_crc {
            return Err(DecodeError::new(DecodeErrorKind::ChecksumMismatch).into());
        }

        let mut c = Cursor { buf: &dir, pos: 0 };
        if c.array::<4>()? != DIRECTORY_MAGIC {
            return Err(corrupt().into());
        }
        let entry_count = c.u32()?;
        if entry_count as usize > MAX_TENSORS {
            return Err(corrupt().into());
        }
        let meta_offset = c.u64()?;
        let meta_len = c.u64()?;
        let meta_crc = c.u32()?;

        // Metadata snapshot must sit inside the body, ahead of the
        // directory.
        let meta_end = meta_offset.checked_add(meta_len).ok_or_else(corrupt)?;
        if meta_offset < HEADER_BYTES as u64 || meta_end > index_offset {
            return Err(corrupt().into());
        }
        let meta_bytes = source.read(meta_offset, meta_len as usize)?;
        if crc32(&meta_bytes) != meta_crc {
            return Err(DecodeError::new(DecodeErrorKind::ChecksumMismatch).into());
        }
        let meta = wire::decode_metadata(&meta_bytes)?;

        // Parse entries. The count is capped above and each entry is at
        // least 35 bytes, so a lied count fails on truncation before any
        // oversized allocation (capacity is bounded by the directory's
        // actual byte length).
        let min_entry = 2 + 1 + 8 + 8 + 4 + 8 + 4;
        let mut entries = Vec::with_capacity((entry_count as usize).min(dir_len / min_entry + 1));
        let mut by_name = HashMap::with_capacity(entries.capacity());
        for i in 0..entry_count as usize {
            let located = |e: DecodeError| ContainerError::Decode(e.at_tensor(i));
            let name_len = c.u16().map_err(located)? as usize;
            if name_len == 0 || name_len > MAX_NAME_BYTES {
                return Err(located(corrupt()));
            }
            let name = std::str::from_utf8(c.take(name_len).map_err(located)?)
                .map_err(|_| located(corrupt()))?
                .to_owned();
            let offset = c.u64().map_err(located)?;
            let len = c.u64().map_err(located)?;
            let block_count = c.u32().map_err(located)?;
            let decoded_len = c.u64().map_err(located)?;
            let crc = c.u32().map_err(located)?;

            // The frame must lie inside the body, after the snapshot
            // region (frames are written between snapshot and directory).
            let end = offset.checked_add(len).ok_or_else(|| located(corrupt()))?;
            if offset < meta_end || end > index_offset {
                return Err(located(corrupt()));
            }
            // Frame-size arithmetic: a frame is exactly its header plus
            // `block_count` 64-byte blocks. A directory that lies about
            // either is a length mismatch located at this entry.
            let want_len = TENSOR_FRAME_HEADER_BYTES as u64 + block_count as u64 * 64;
            if len != want_len {
                return Err(located(DecodeError::new(DecodeErrorKind::LengthMismatch)));
            }
            if decoded_len != block_count as u64 * GROUP_SIZE as u64 {
                return Err(located(DecodeError::new(DecodeErrorKind::LengthMismatch)));
            }
            if by_name.insert(name.clone(), i).is_some() {
                return Err(located(corrupt()));
            }
            entries.push(TensorEntry {
                name,
                offset,
                len,
                block_count,
                decoded_len,
                crc,
            });
        }
        if c.pos != dir.len() {
            return Err(DecodeError::new(DecodeErrorKind::LengthMismatch).into());
        }

        // Frames must not overlap each other. Sort a view by offset; the
        // bounds checks above already pinned every frame inside
        // [meta_end, index_offset).
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by_key(|&i| entries[i].offset);
        for w in order.windows(2) {
            let (a, b) = (&entries[w[0]], &entries[w[1]]);
            if a.offset + a.len > b.offset {
                return Err(ContainerError::Decode(corrupt().at_tensor(w[1])));
            }
        }

        Ok(Container {
            source,
            codec: WeightCodec::from_metadata(meta),
            entries,
            by_name,
        })
    }

    /// The revived shared metadata snapshot.
    pub fn metadata(&self) -> &TensorMetadata {
        self.codec.metadata()
    }

    /// Directory entries in on-disk order.
    pub fn entries(&self) -> &[TensorEntry] {
        &self.entries
    }

    /// Tensor names in directory order.
    pub fn tensor_names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.name.as_str())
    }

    /// Number of tensors in the container.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the container holds no tensors.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Which backend serves frame reads: `"mmap"`, `"pread"` or
    /// `"bytes"`.
    pub fn backend(&self) -> &'static str {
        self.source.backend()
    }

    /// Reads one tensor's frame — CRC-checked against the directory
    /// *before* any decode touches it — and revives the
    /// [`CompressedTensor`].
    ///
    /// # Errors
    ///
    /// [`ContainerError::UnknownTensor`] for a name not in the
    /// directory; [`DecodeErrorKind::ChecksumMismatch`] located at the
    /// entry's index when the frame bytes disagree with the stored CRC;
    /// otherwise whatever located error [`wire::decode_tensor`] reports,
    /// stamped with the tensor index.
    pub fn read_compressed(&self, name: &str) -> Result<CompressedTensor, ContainerError> {
        let &idx = self
            .by_name
            .get(name)
            .ok_or_else(|| ContainerError::UnknownTensor(name.to_owned()))?;
        let e = &self.entries[idx];
        let frame = self.source.read(e.offset, e.len as usize)?;
        if crc32(&frame) != e.crc {
            return Err(ContainerError::Decode(
                DecodeError::new(DecodeErrorKind::ChecksumMismatch).at_tensor(idx),
            ));
        }
        wire::decode_tensor(&frame).map_err(|err| ContainerError::Decode(err.at_tensor(idx)))
    }

    /// Loads the named tensors through **one pooled batch decode pass**
    /// ([`WeightCodec::decompress_batch_report`]) — the partial-load
    /// primitive: only the requested frames are read, CRC-checked and
    /// decoded, in the caller's pool.
    ///
    /// Per-tensor read/CRC/revive failures land in that slot's
    /// [`BatchOutcome::Failed`] (dimensions zeroed) instead of aborting
    /// the batch; under [`RecoveryPolicy::SalvageBlocks`] block-level
    /// corruption inside a frame that passed its CRC salvages as usual.
    /// Every error is located at the tensor's directory index, whatever
    /// its position in `names`.
    ///
    /// # Errors
    ///
    /// Only [`ContainerError::UnknownTensor`] — asking for a name the
    /// directory does not have is a caller bug, not a corrupt slot.
    pub fn load_report(
        &self,
        names: &[&str],
        policy: RecoveryPolicy,
    ) -> Result<Vec<LoadedTensor>, ContainerError> {
        let mut indices = Vec::with_capacity(names.len());
        for name in names {
            let &idx = self
                .by_name
                .get(*name)
                .ok_or_else(|| ContainerError::UnknownTensor((*name).to_owned()))?;
            indices.push(idx);
        }

        // Read + CRC + revive every requested frame first; failures
        // become Failed slots and healthy tensors go to the pool.
        let slots: Vec<Result<CompressedTensor, DecodeError>> = names
            .iter()
            .map(|name| {
                self.read_compressed(name).map_err(|e| match e {
                    ContainerError::Decode(d) => d,
                    ContainerError::Io(_) => DecodeError::new(DecodeErrorKind::TruncatedStream),
                    ContainerError::UnknownTensor(_) => unreachable!("names pre-checked"),
                })
            })
            .collect();
        let healthy: Vec<&CompressedTensor> =
            slots.iter().filter_map(|s| s.as_ref().ok()).collect();
        let mut decoded = self
            .codec
            .decompress_batch_report(&healthy, policy)
            .into_iter();

        // The batch locates errors at batch positions; the container
        // reports directory indices.
        let at_entry = |mut e: DecodeError, idx: usize| {
            e.tensor = Some(idx);
            e
        };
        let out = names
            .iter()
            .zip(slots)
            .zip(indices)
            .map(|((name, slot), idx)| {
                let (rows, cols, outcome) = match slot {
                    Ok(ct) => {
                        let outcome = decoded.next().expect("one outcome per healthy slot");
                        (ct.rows(), ct.cols(), outcome)
                    }
                    Err(e) => (0, 0, BatchOutcome::Failed(e)),
                };
                let outcome = match outcome {
                    BatchOutcome::Failed(e) => BatchOutcome::Failed(at_entry(e, idx)),
                    BatchOutcome::Salvaged { values, bad_blocks } => BatchOutcome::Salvaged {
                        values,
                        bad_blocks: bad_blocks.into_iter().map(|e| at_entry(e, idx)).collect(),
                    },
                    ok => ok,
                };
                LoadedTensor {
                    name: (*name).to_string(),
                    rows,
                    cols,
                    outcome,
                }
            })
            .collect();
        Ok(out)
    }

    /// Strict pooled load: every requested tensor must decode cleanly.
    ///
    /// # Errors
    ///
    /// The first slot's failure (unknown name, checksum mismatch, or any
    /// located decode error) aborts the whole load.
    pub fn load(&self, names: &[&str]) -> Result<Vec<Tensor>, ContainerError> {
        let report = self.load_report(names, RecoveryPolicy::FailTensor)?;
        let mut out = Vec::with_capacity(report.len());
        for t in report {
            match t.outcome {
                BatchOutcome::Ok(values) => out.push(Tensor::from_vec(t.rows, t.cols, values)),
                BatchOutcome::Salvaged { bad_blocks, .. } => {
                    return Err(ContainerError::Decode(
                        bad_blocks.into_iter().next().expect("salvage has errors"),
                    ))
                }
                BatchOutcome::Failed(e) => return Err(ContainerError::Decode(e)),
            }
        }
        Ok(out)
    }

    /// Strict pooled load of every tensor, in directory order.
    ///
    /// # Errors
    ///
    /// As [`Container::load`].
    pub fn load_all(&self) -> Result<Vec<(String, Tensor)>, ContainerError> {
        let names: Vec<&str> = self.tensor_names().collect();
        let tensors = self.load(&names)?;
        Ok(names.into_iter().map(str::to_owned).zip(tensors).collect())
    }
}
