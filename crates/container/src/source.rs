//! Byte sources a container can be read from: a file read by offset
//! (`pread`), or an in-memory buffer.
//!
//! [`Container::open`](crate::Container::open) reads each frame it is
//! asked for with one positioned read, so a partial layer load reads only
//! the requested frames, and a file rewritten under an open container
//! shows up as a located error on the next load, never as a fatal signal.
//! The bytes source serves tests and fuzzing, which mutate containers in
//! memory without touching the filesystem.

use std::borrow::Cow;
use std::fs::File;
use std::io;
use std::path::Path;

/// A read-only random-access byte source of known length.
pub(crate) enum ByteSource {
    /// Open file read with positioned reads (one buffer copy per read).
    File {
        /// The open descriptor, read via `pread` (never seeked).
        file: File,
        /// File length captured at open.
        len: u64,
    },
    /// In-memory bytes (tests, fuzzing, network buffers).
    Bytes(Vec<u8>),
}

impl ByteSource {
    /// Opens `path` for positioned reads.
    pub(crate) fn open(path: &Path) -> io::Result<ByteSource> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        Ok(ByteSource::File { file, len })
    }

    /// Total length in bytes (for a file, its length at open).
    pub(crate) fn len(&self) -> u64 {
        match self {
            ByteSource::File { len, .. } => *len,
            ByteSource::Bytes(b) => b.len() as u64,
        }
    }

    /// Reads `len` bytes at `offset` — borrowed straight out of the
    /// buffer on the bytes arm, copied into an owned buffer on the file
    /// arm. Ranges past the end error with `UnexpectedEof` (callers
    /// translate this into the located decode taxonomy); so does a file
    /// that shrank after open.
    pub(crate) fn read(&self, offset: u64, len: usize) -> io::Result<Cow<'_, [u8]>> {
        let end = offset
            .checked_add(len as u64)
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "range overflow"))?;
        if end > self.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "range past end of source",
            ));
        }
        match self {
            ByteSource::File { file, .. } => {
                let mut buf = vec![0u8; len];
                read_exact_at(file, &mut buf, offset)?;
                Ok(Cow::Owned(buf))
            }
            ByteSource::Bytes(b) => Ok(Cow::Borrowed(&b[offset as usize..end as usize])),
        }
    }
}

/// Positioned full read: `pread` on unix (no seek, safe under concurrent
/// readers of one `File`), seek-and-read elsewhere.
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(not(unix))]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = file;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ecco_source_{tag}_{}.bin", std::process::id()));
        p
    }

    #[test]
    fn all_backends_read_identically() {
        let bytes: Vec<u8> = (0..=255u8).cycle().take(4096 + 17).collect();
        let path = temp_path("identical");
        File::create(&path).unwrap().write_all(&bytes).unwrap();

        let sources = [
            ByteSource::open(&path).unwrap(),
            ByteSource::Bytes(bytes.clone()),
        ];
        for s in &sources {
            assert_eq!(s.len(), bytes.len() as u64);
            for (off, len) in [
                (0u64, 16usize),
                (1, 1),
                (4095, 18),
                (4096 + 16, 1),
                (100, 0),
            ] {
                let got = s.read(off, len).unwrap();
                assert_eq!(&got[..], &bytes[off as usize..off as usize + len]);
            }
            // Past-the-end reads refuse instead of truncating.
            assert!(s.read(bytes.len() as u64, 1).is_err());
            assert!(s.read(u64::MAX, 2).is_err());
        }
        std::fs::remove_file(&path).ok();
    }
}
