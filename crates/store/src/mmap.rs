//! Read-only file mappings: raw `mmap(2)` on Unix with an owned-buffer
//! fallback everywhere else (and whenever the mapping call itself fails —
//! e.g. on a filesystem without mmap support).
//!
//! This is the only module in the workspace that touches raw pointers:
//! `pa-mdp` is `#![forbid(unsafe_code)]`, so the unsafety of borrowing the
//! page cache is confined here, behind [`Mapping::bytes`].
//!
//! # Truncation
//!
//! Touching a page of a `MAP_PRIVATE` mapping that lies past the end of
//! the file raises `SIGBUS`, which kills the process. [`Mapping::map`]
//! therefore checks the requested range against the file's *current*
//! length before mapping, so a store file truncated after it was opened
//! (and validated) fails the page-in with [`StoreError::Truncated`].
//!
//! One race remains: a file truncated *while* a block of it is mapped
//! (after the length check, before the mapping is dropped) still faults
//! on the next touch of a page past the new end. The store's files are
//! written once and never modified, so only an outside process shrinking
//! a file under a running query can hit it; closing it would need a
//! `SIGBUS` handler or copying every block (the owned path), and neither
//! is worth its cost for that case.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};

use crate::error::StoreError;

#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }
}

/// A read-only view of a byte range of a file: either a live `mmap`
/// (faulted in by the kernel page by page, evicted by dropping) or an
/// owned, 8-byte-aligned buffer read conventionally.
pub enum Mapping {
    /// A raw `mmap(2)` region. Pointer and length are the exact mapping
    /// arguments; `len` bytes starting at `ptr` are valid for reads for
    /// the lifetime of the value.
    #[cfg(unix)]
    Mapped {
        /// Base address returned by `mmap`.
        ptr: *const u8,
        /// Mapped length in bytes.
        len: usize,
    },
    /// Owned fallback. Backed by `Vec<u64>` so the base address is 8-byte
    /// aligned, matching the page alignment the mapped path guarantees —
    /// the typed-slice casts in `format.rs` rely on it.
    Owned {
        /// The buffer; only the first `len` bytes are payload.
        buf: Vec<u64>,
        /// Payload length in bytes.
        len: usize,
    },
}

// SAFETY: the mapping is PROT_READ/MAP_PRIVATE and never mutated after
// construction; shared references to immutable memory are Send + Sync.
#[cfg(unix)]
unsafe impl Send for Mapping {}
#[cfg(unix)]
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Maps `len` bytes of `file` starting at `offset`. `offset` must be
    /// page-aligned for the mmap path (the store writer aligns every block
    /// to 4096); if the mapping fails for any reason the owned read path
    /// is used instead, so callers never observe the difference.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] if the range extends past the file's
    /// current end (see the [module docs](self)), and I/O errors of the
    /// length check or the owned read.
    pub fn map(file: &File, offset: u64, len: usize) -> Result<Mapping, StoreError> {
        // `lseek` to the end reads the current length at under half the
        // cost of `fstat`/`statx`, and this runs on every page-in. The
        // offset it moves is unused by mappings, and the owned path seeks
        // before it reads.
        let mut f = file;
        let file_len = f
            .seek(SeekFrom::End(0))
            .map_err(StoreError::io("read store file length"))?;
        if offset
            .checked_add(len as u64)
            .is_none_or(|end| end > file_len)
        {
            return Err(StoreError::Truncated {
                what: format!(
                    "block payload at offset {offset} ({len} bytes) in a {file_len}-byte file"
                ),
            });
        }
        #[cfg(unix)]
        if len > 0 && offset.is_multiple_of(4096) {
            use std::os::unix::io::AsRawFd;
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    offset as i64,
                )
            };
            if ptr != sys::map_failed() {
                return Ok(Mapping::Mapped {
                    ptr: ptr as *const u8,
                    len,
                });
            }
        }
        Mapping::read_owned(file, offset, len)
    }

    /// The owned fallback: seek and read the range into an aligned buffer.
    pub fn read_owned(file: &File, offset: u64, len: usize) -> Result<Mapping, StoreError> {
        let mut buf = vec![0u64; len.div_ceil(8)];
        let mut f = file;
        f.seek(SeekFrom::Start(offset))
            .map_err(StoreError::io("seek to block"))?;
        let bytes = unsafe {
            // SAFETY: a Vec<u64> of div_ceil(len, 8) elements owns at
            // least `len` initialized bytes at an 8-aligned base.
            std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<u8>(), len)
        };
        f.read_exact(bytes).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                StoreError::Truncated {
                    what: format!("block payload at offset {offset} ({len} bytes)"),
                }
            } else {
                StoreError::Io {
                    op: "read block".into(),
                    source: e,
                }
            }
        })?;
        Ok(Mapping::Owned { buf, len })
    }

    /// The mapped bytes.
    pub fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            Mapping::Mapped { ptr, len } => {
                // SAFETY: ptr/len are the live mmap region created in
                // `map`, valid for reads until Drop.
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
            Mapping::Owned { buf, len } => {
                // SAFETY: the Vec owns at least `len` initialized bytes.
                unsafe { std::slice::from_raw_parts(buf.as_ptr().cast::<u8>(), *len) }
            }
        }
    }

    /// Whether this view is a live kernel mapping (false: owned buffer).
    /// Diagnostic only — the two paths expose identical bytes.
    #[allow(dead_code)]
    pub fn is_mapped(&self) -> bool {
        match self {
            #[cfg(unix)]
            Mapping::Mapped { .. } => true,
            Mapping::Owned { .. } => false,
        }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Mapping::Mapped { ptr, len } = self {
            // SAFETY: unmapping the exact region mmap returned; the value
            // is being dropped so no borrow of the bytes can outlive this.
            unsafe {
                sys::munmap(*ptr as *mut std::os::raw::c_void, *len);
            }
        }
    }
}

impl std::fmt::Debug for Mapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            #[cfg(unix)]
            Mapping::Mapped { len, .. } => write!(f, "Mapping::Mapped({len} bytes)"),
            Mapping::Owned { len, .. } => write!(f, "Mapping::Owned({len} bytes)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(content: &[u8]) -> (std::path::PathBuf, File) {
        let path = std::env::temp_dir().join(format!(
            "pa-store-mmap-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let mut f = File::create(&path).unwrap();
        f.write_all(content).unwrap();
        f.sync_all().unwrap();
        (path.clone(), File::open(&path).unwrap())
    }

    #[test]
    fn mapped_and_owned_views_agree() {
        let mut content = vec![0u8; 8192];
        for (i, b) in content.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let (path, f) = temp_file(&content);
        let mapped = Mapping::map(&f, 4096, 4096).unwrap();
        let owned = Mapping::read_owned(&f, 4096, 4096).unwrap();
        assert_eq!(mapped.bytes(), owned.bytes());
        assert_eq!(owned.bytes(), &content[4096..]);
        assert!(!owned.is_mapped());
        drop(mapped);
        drop(owned);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn map_past_eof_is_truncated_error() {
        let (path, f) = temp_file(&[0u8; 8192]);
        assert!(Mapping::map(&f, 4096, 4096).is_ok());
        for (offset, len) in [(4096, 4097), (8192, 4096), (u64::MAX - 1, 4096)] {
            let err = Mapping::map(&f, offset, len).unwrap_err();
            assert!(matches!(err, StoreError::Truncated { .. }), "{err}");
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn owned_read_past_eof_is_truncated_error() {
        let (path, f) = temp_file(&[1, 2, 3]);
        let err = Mapping::read_owned(&f, 0, 64).unwrap_err();
        assert!(matches!(err, StoreError::Truncated { .. }), "{err}");
        std::fs::remove_file(path).unwrap();
    }
}
