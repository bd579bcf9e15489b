//! Byte sources a container can be read from: a memory mapping, a file
//! read by offset (`pread`), or an in-memory buffer.
//!
//! The mmap backend is the production cold-start path — frame bytes are
//! consumed straight out of the page cache with no read syscall per
//! frame, and a partial layer load only faults in the pages the
//! requested frames touch. The `pread` backend is the portable fallback
//! (and the honest baseline the `container_load` bench compares against);
//! the bytes backend serves tests and fuzzing, which mutate containers
//! in memory without touching the filesystem.
//!
//! Backend choice: [`MapSource::open`] memory-maps when the platform
//! supports it and `ECCO_NO_MMAP` is unset, otherwise falls back to
//! `pread`. [`MapSource::open_buffered`] pins the `pread` arm
//! explicitly.

use std::borrow::Cow;
use std::fs::File;
use std::io;
use std::path::Path;

/// A read-only random-access byte source of known length.
pub enum MapSource {
    /// Memory-mapped file (zero-copy reads).
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped(mmap::Mmap),
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

impl MapSource {
    /// Opens `path`, memory-mapping it where supported unless the
    /// `ECCO_NO_MMAP` environment variable is set (any value); empty
    /// files and unsupported platforms fall back to positioned reads.
    pub fn open(path: &Path) -> io::Result<MapSource> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        #[cfg(all(unix, target_pointer_width = "64"))]
        if len > 0 && std::env::var_os("ECCO_NO_MMAP").is_none() {
            if let Ok(map) = mmap::Mmap::map(&file, len) {
                return Ok(MapSource::Mapped(map));
            }
        }
        Ok(MapSource::File { file, len })
    }

    /// Opens `path` on the `pread` backend unconditionally — the
    /// buffered fallback arm, pinnable for differential tests and the
    /// bench baseline.
    pub fn open_buffered(path: &Path) -> io::Result<MapSource> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        Ok(MapSource::File { file, len })
    }

    /// Wraps an in-memory buffer.
    pub fn from_bytes(bytes: Vec<u8>) -> MapSource {
        MapSource::Bytes(bytes)
    }

    /// Total length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            #[cfg(all(unix, target_pointer_width = "64"))]
            MapSource::Mapped(m) => m.as_slice().len() as u64,
            MapSource::File { len, .. } => *len,
            MapSource::Bytes(b) => b.len() as u64,
        }
    }

    /// True when the source holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Which backend serves reads: `"mmap"`, `"pread"` or `"bytes"`.
    pub fn backend(&self) -> &'static str {
        match self {
            #[cfg(all(unix, target_pointer_width = "64"))]
            MapSource::Mapped(_) => "mmap",
            MapSource::File { .. } => "pread",
            MapSource::Bytes(_) => "bytes",
        }
    }

    /// Reads `len` bytes at `offset` — borrowed straight out of the
    /// mapping/buffer where possible, copied into an owned buffer on the
    /// `pread` arm. Ranges past the end error with `UnexpectedEof`
    /// (callers translate this into the located decode taxonomy).
    pub fn read(&self, offset: u64, len: usize) -> io::Result<Cow<'_, [u8]>> {
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
            #[cfg(all(unix, target_pointer_width = "64"))]
            MapSource::Mapped(m) => Ok(Cow::Borrowed(&m.as_slice()[offset as usize..end as usize])),
            MapSource::File { file, .. } => {
                let mut buf = vec![0u8; len];
                read_exact_at(file, &mut buf, offset)?;
                Ok(Cow::Owned(buf))
            }
            MapSource::Bytes(b) => Ok(Cow::Borrowed(&b[offset as usize..end as usize])),
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

/// Read-only memory mapping over the C `mmap`/`munmap` the Rust standard
/// library already links on unix — no external crate. This module is the
/// only `unsafe` in the crate, and the crate stays `deny(unsafe_code)`
/// outside it.
#[cfg(all(unix, target_pointer_width = "64"))]
pub mod mmap {
    #![allow(unsafe_code)]

    use std::fs::File;
    use std::io;
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_void};

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;

    /// An immutable private file mapping, unmapped on drop.
    pub struct Mmap {
        ptr: *const u8,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ and never mutated through this
    // handle; sharing immutable views across threads is sound.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Maps the whole of `file` read-only. `len` must be the file's
        /// current length and non-zero (zero-length mappings are an
        /// `EINVAL` on Linux; callers fall back to `pread`).
        pub fn map(file: &File, len: u64) -> io::Result<Mmap> {
            if len == 0 || len > usize::MAX as u64 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "unmappable file length",
                ));
            }
            let len = len as usize;
            // SAFETY: requests a fresh private read-only mapping of `len`
            // bytes of an open descriptor; the kernel returns MAP_FAILED
            // (-1) on error, checked below, and the pointer otherwise
            // stays valid until the paired munmap in Drop.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Mmap {
                ptr: ptr as *const u8,
                len,
            })
        }

        /// The mapped bytes.
        pub fn as_slice(&self) -> &[u8] {
            // SAFETY: `ptr..ptr+len` is a live PROT_READ mapping owned by
            // `self`; it is unmapped only in Drop, after every borrow of
            // this slice has ended.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            // SAFETY: unmaps exactly the region map() obtained; the
            // pointer is never used again.
            unsafe {
                munmap(self.ptr as *mut c_void, self.len);
            }
        }
    }
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
            MapSource::open(&path).unwrap(),
            MapSource::open_buffered(&path).unwrap(),
            MapSource::from_bytes(bytes.clone()),
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

    #[cfg(all(unix, target_pointer_width = "64"))]
    #[test]
    fn mmap_backend_engages_and_env_disables_it() {
        let path = temp_path("mmap");
        File::create(&path).unwrap().write_all(&[7u8; 64]).unwrap();
        // This test relies on ECCO_NO_MMAP being unset in the test env.
        if std::env::var_os("ECCO_NO_MMAP").is_none() {
            let s = MapSource::open(&path).unwrap();
            assert_eq!(s.backend(), "mmap");
            assert!(matches!(s.read(0, 64).unwrap(), Cow::Borrowed(_)));
        }
        let s = MapSource::open_buffered(&path).unwrap();
        assert_eq!(s.backend(), "pread");
        assert!(matches!(s.read(0, 64).unwrap(), Cow::Owned(_)));
        std::fs::remove_file(&path).ok();
    }
}
