//! Read-only memory mapping for zero-copy graph loading.
//!
//! [`MmapRegion`] wraps a private, read-only `mmap` of a whole file.
//! The `KCOREGR1` binary format in [`crate::io`] was laid out so that
//! its array sections land on their natural alignment (the header is
//! 8-byte aligned and every section size is a multiple of its element
//! size), which lets [`crate::CsrGraph`] point its storage *into* the
//! mapping instead of copying it to the heap — datasets larger than
//! RAM load lazily, one page fault at a time.
//!
//! The container has no `libc` crate, so the syscalls are declared
//! directly; on non-Unix platforms (or non-64-bit / big-endian
//! targets, where the on-disk `u64` arrays cannot alias `usize`) the
//! caller in `io` falls back to the copying reader.

use std::fs::File;
use std::io;

/// A read-only, privately mapped view of an entire file.
///
/// Dropping the region unmaps it; cloning is done by wrapping it in an
/// `Arc` (see the `Mapped` storage variant in `csr`).
pub struct MmapRegion {
    ptr: *const u8,
    len: usize,
}

// SAFETY: the mapping is PROT_READ/MAP_PRIVATE — immutable shared
// bytes, like a leaked `&'static [u8]` — so concurrent reads are safe.
unsafe impl Send for MmapRegion {}
unsafe impl Sync for MmapRegion {}

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

impl MmapRegion {
    /// Maps the whole of `file` read-only.
    ///
    /// Fails with `Unsupported` on non-Unix targets (the caller falls
    /// back to the copying reader) and with the OS error if `mmap` refuses.
    /// An empty file maps to an empty region without a syscall.
    pub fn map_file(file: &File) -> io::Result<Self> {
        let len = file.metadata()?.len();
        if len > usize::MAX as u64 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "file exceeds address space"));
        }
        let len = len as usize;
        if len == 0 {
            return Ok(Self { ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(), len: 0 });
        }
        Self::map_nonempty(file, len)
    }

    #[cfg(unix)]
    fn map_nonempty(file: &File, len: usize) -> io::Result<Self> {
        use std::os::unix::io::AsRawFd;
        // SAFETY: a fresh PROT_READ/MAP_PRIVATE mapping of `len` bytes
        // backed by an open fd; the result is checked against MAP_FAILED
        // before use, and unmapped exactly once in Drop.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 || ptr.is_null() {
            return Err(io::Error::last_os_error());
        }
        Ok(Self { ptr: ptr as *const u8, len })
    }

    #[cfg(not(unix))]
    fn map_nonempty(_file: &File, _len: usize) -> io::Result<Self> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "mmap is only available on unix"))
    }

    /// The mapped bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr` is valid for `len` bytes for the region's
        // lifetime (dangling only when len == 0, which is still a valid
        // empty slice).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Length of the mapping in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for MmapRegion {
    fn drop(&mut self) {
        #[cfg(unix)]
        if self.len > 0 {
            // SAFETY: `ptr`/`len` came from a successful mmap and are
            // unmapped exactly once.
            unsafe { sys::munmap(self.ptr as *mut std::ffi::c_void, self.len) };
        }
    }
}

/// A raw `(ptr, len)` view into an [`MmapRegion`], used by the `Mapped`
/// storage variant of `CsrGraph` to hold typed slices without a self-referential
/// lifetime. The owner must keep the region alive (they hold it in an
/// `Arc` next to the slice) and must have checked alignment and bounds
/// when constructing it.
pub(crate) struct RawSlice<T> {
    ptr: *const T,
    len: usize,
}

// SAFETY: points into an immutable shared mapping (see MmapRegion).
unsafe impl<T: Sync> Send for RawSlice<T> {}
unsafe impl<T: Sync> Sync for RawSlice<T> {}

impl<T> Clone for RawSlice<T> {
    fn clone(&self) -> Self {
        Self { ptr: self.ptr, len: self.len }
    }
}

impl<T> RawSlice<T> {
    /// Reinterprets `bytes[offset..offset + count * size_of::<T>()]` as
    /// `count` values of `T`.
    ///
    /// Returns `None` when the range is out of bounds or misaligned for
    /// `T` — callers turn that into an I/O error. `T` must be a plain
    /// primitive (`u32`/`u64`/`usize`) for which any bit pattern is
    /// valid; that invariant is the caller's.
    pub(crate) fn from_bytes(bytes: &[u8], offset: usize, count: usize) -> Option<Self> {
        let size = std::mem::size_of::<T>();
        let byte_len = count.checked_mul(size)?;
        let end = offset.checked_add(byte_len)?;
        if end > bytes.len() {
            return None;
        }
        let ptr = bytes[offset..].as_ptr();
        if ptr.align_offset(std::mem::align_of::<T>()) != 0 {
            return None;
        }
        Some(Self { ptr: ptr as *const T, len: count })
    }

    /// The slice view. Safe as long as the backing region outlives
    /// `self` (guaranteed by the owning struct holding the `Arc`).
    #[inline]
    pub(crate) fn as_slice(&self) -> &[T] {
        // SAFETY: constructed from an in-bounds, aligned range of a
        // live mapping holding only plain-old-data values.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn map_round_trips_bytes() {
        let dir = std::env::temp_dir().join("kcore_mmap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bytes.bin");
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::File::create(&path).unwrap().write_all(&data).unwrap();
        let region = MmapRegion::map_file(&File::open(&path).unwrap()).unwrap();
        assert_eq!(region.bytes(), &data[..]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_file_maps_empty() {
        let dir = std::env::temp_dir().join("kcore_mmap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.bin");
        std::fs::File::create(&path).unwrap();
        let region = MmapRegion::map_file(&File::open(&path).unwrap()).unwrap();
        assert!(region.is_empty());
        assert_eq!(region.bytes(), &[] as &[u8]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn raw_slice_rejects_out_of_bounds_and_misalignment() {
        let bytes = vec![0u8; 64];
        assert!(RawSlice::<u64>::from_bytes(&bytes, 0, 8).is_some());
        assert!(RawSlice::<u64>::from_bytes(&bytes, 0, 9).is_none(), "out of bounds");
        assert!(RawSlice::<u64>::from_bytes(&bytes, 60, 1).is_none(), "out of bounds");
        // A u64 view at offset 4 of an 8-aligned buffer is misaligned.
        if bytes.as_ptr().align_offset(8) == 0 {
            assert!(RawSlice::<u64>::from_bytes(&bytes, 4, 1).is_none(), "misaligned");
        }
    }
}
