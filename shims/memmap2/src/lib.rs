//! Offline stand-in for `memmap2`.
//!
//! The build environment cannot reach crates.io, so this workspace
//! vendors the one type the snapshot loader needs: a read-only
//! [`Mmap`] over a [`File`], dereferencing to `&[u8]`. On unix the
//! mapping is a real `mmap(2)` (`PROT_READ`/`MAP_PRIVATE`) issued
//! through the C library every Rust binary already links — no new
//! dependency. Anywhere mapping is unavailable (non-unix targets,
//! zero-length files, or an `mmap` failure) the file is read into an
//! owned buffer instead, so callers never see a platform error for a
//! readable file.
//!
//! Differences from real memmap2, by design:
//!
//! * Only read-only, whole-file maps (`Mmap::map`); no `MmapMut`,
//!   no `MmapOptions` offsets or lengths.
//! * The buffered fallback rewinds the file handle it reads from
//!   (real memmap2 never touches the cursor).

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::ops::Deref;

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

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

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
}

/// How the bytes are held.
enum Inner {
    /// A live `mmap(2)` region, unmapped on drop.
    #[cfg(unix)]
    Mapped { ptr: *const u8, len: usize },
    /// Owned copy of the file.
    Owned(Vec<u8>),
}

/// A read-only memory map of an entire file.
pub struct Mmap {
    inner: Inner,
}

// The region is immutable for the lifetime of the value and freed
// exactly once on drop, so shipping it across threads is sound.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps `file` read-only in its entirety.
    ///
    /// # Safety
    ///
    /// As with real memmap2: the caller must ensure the file is not
    /// truncated or mutated by another process while the map is
    /// alive (the fallback copy is immune, a real mapping is not).
    pub unsafe fn map(file: &File) -> io::Result<Mmap> {
        let len = file.metadata()?.len();
        if len > usize::MAX as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "file too large to map into the address space",
            ));
        }
        let len = len as usize;

        #[cfg(unix)]
        if len > 0 {
            use std::os::unix::io::AsRawFd;
            let ptr = sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            );
            if ptr != sys::MAP_FAILED {
                return Ok(Mmap {
                    inner: Inner::Mapped {
                        ptr: ptr.cast::<u8>().cast_const(),
                        len,
                    },
                });
            }
            // Fall through to the owned copy: some filesystems (and
            // all pipes) refuse mmap but read fine.
        }

        let mut reader = file;
        reader.seek(SeekFrom::Start(0))?;
        let mut buf = Vec::with_capacity(len);
        reader.read_to_end(&mut buf)?;
        Ok(Mmap {
            inner: Inner::Owned(buf),
        })
    }
}

impl Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.inner {
            #[cfg(unix)]
            Inner::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Inner::Owned(buf) => buf,
        }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Inner::Mapped { ptr, len } = self.inner {
            unsafe {
                sys::munmap(ptr.cast_mut().cast(), len);
            }
        }
    }
}

impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.inner {
            #[cfg(unix)]
            Inner::Mapped { .. } => "mapped",
            Inner::Owned(_) => "owned",
        };
        f.debug_struct("Mmap")
            .field("kind", &kind)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(name: &str, contents: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("memmap2_shim_{}_{name}", std::process::id()));
        let mut f = File::create(&path).unwrap();
        f.write_all(contents).unwrap();
        path
    }

    #[test]
    fn maps_file_contents() {
        let path = temp_file("contents", b"hello mapping");
        let file = File::open(&path).unwrap();
        let map = unsafe { Mmap::map(&file) }.unwrap();
        assert_eq!(&map[..], b"hello mapping");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = temp_file("empty", b"");
        let file = File::open(&path).unwrap();
        let map = unsafe { Mmap::map(&file) }.unwrap();
        assert!(map.is_empty());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn survives_crossing_threads() {
        let path = temp_file("threads", b"shared bytes");
        let file = File::open(&path).unwrap();
        let map = unsafe { Mmap::map(&file) }.unwrap();
        let handle = std::thread::spawn(move || map.len());
        assert_eq!(handle.join().unwrap(), 12);
        std::fs::remove_file(path).ok();
    }
}
