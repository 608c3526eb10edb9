//! Where a [`DiskStore`](crate::DiskStore) keeps its bytes: the block log
//! and the sidecar index behind one small seam with two implementations.
//!
//! * [`FileBackend`] — `segments.log` and `segments.idx` in a directory.
//!   Log I/O is positional (`pread`/`pwrite`), so concurrent block fetches
//!   share one handle without a cursor lock, and a block is written at its
//!   recorded offset in one call. `sync` is the log file's `sync_data`;
//!   the sidecar is replaced through a temp file and an atomic rename, so a
//!   crash leaves the previous sidecar (or none), never a torn one.
//! * [`MemoryBackend`] — the same bytes in RAM. An in-memory deployment is
//!   therefore the same store as a persistent one — same scan order,
//!   pruning, rollup and sketch rules — and differs only in where its bytes
//!   live. Clones share the bytes, so a store can be reopened over them.
//!
//! Every read and write of the log and the sidecar goes through [`Backend`],
//! which makes it the seam fault-injection tests wrap.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
#[cfg(unix)]
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The byte-level operations a store needs from its medium.
pub(crate) trait Backend: Send + Sync {
    /// Fills `buf` from the log starting at `offset`; an error if the log
    /// ends first.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()>;

    /// Writes all of `bytes` into the log at `offset`, growing it as
    /// needed. On error a prefix of `bytes` may have been written; a retry
    /// at the same offset overwrites it.
    fn write_at(&self, offset: u64, bytes: &[u8]) -> io::Result<()>;

    /// Current log length in bytes.
    fn len(&self) -> io::Result<u64>;

    /// Cuts (or zero-extends) the log to `len` bytes.
    fn truncate(&self, len: u64) -> io::Result<()>;

    /// Makes every log write so far durable.
    fn sync(&self) -> io::Result<()>;

    /// The sidecar's bytes, `None` when there is none.
    fn read_sidecar(&self) -> io::Result<Option<Vec<u8>>>;

    /// Replaces the sidecar atomically: a reader sees the old bytes or the
    /// new ones, never a mix.
    fn replace_sidecar(&self, bytes: &[u8]) -> io::Result<()>;
}

/// The log and sidecar as two files in one directory.
pub(crate) struct FileBackend {
    log: File,
    sidecar: PathBuf,
}

impl FileBackend {
    /// Opens (creating if needed) `dir/segments.log`; the log is not
    /// truncated — recovery decides how much of it survives.
    pub(crate) fn open(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let log = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(dir.join("segments.log"))?;
        Ok(Self {
            log,
            sidecar: dir.join("segments.idx"),
        })
    }
}

impl Backend for FileBackend {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.log.read_exact_at(buf, offset)
    }

    fn write_at(&self, offset: u64, bytes: &[u8]) -> io::Result<()> {
        self.log.write_all_at(bytes, offset)
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.log.metadata()?.len())
    }

    fn truncate(&self, len: u64) -> io::Result<()> {
        self.log.set_len(len)
    }

    fn sync(&self) -> io::Result<()> {
        self.log.sync_data()
    }

    fn read_sidecar(&self) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(&self.sidecar) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn replace_sidecar(&self, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.sidecar.with_extension("idx.tmp");
        {
            let mut file = File::create(&tmp)?;
            file.write_all(bytes)?;
            file.sync_data()?;
        }
        std::fs::rename(&tmp, &self.sidecar)
    }
}

/// Positional file I/O where the platform spells it `seek_read`/`seek_write`
/// (which may transfer less than asked, hence the loops).
#[cfg(windows)]
trait FileExt {
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()>;
    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()>;
}

#[cfg(windows)]
impl FileExt for File {
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        use std::os::windows::fs::FileExt as _;
        let mut done = 0;
        while done < buf.len() {
            match self.seek_read(&mut buf[done..], offset + done as u64)? {
                0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                n => done += n,
            }
        }
        Ok(())
    }

    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        use std::os::windows::fs::FileExt as _;
        let mut done = 0;
        while done < buf.len() {
            match self.seek_write(&buf[done..], offset + done as u64)? {
                0 => return Err(io::ErrorKind::WriteZero.into()),
                n => done += n,
            }
        }
        Ok(())
    }
}

/// The log and sidecar as shared in-memory buffers.
#[derive(Clone, Default)]
pub(crate) struct MemoryBackend(Arc<MemoryBytes>);

#[derive(Default)]
struct MemoryBytes {
    log: RwLock<Vec<u8>>,
    sidecar: Mutex<Option<Vec<u8>>>,
}

impl MemoryBackend {
    fn log(&self) -> RwLockReadGuard<'_, Vec<u8>> {
        self.0.log.read().expect("log lock poisoned")
    }

    fn log_mut(&self) -> RwLockWriteGuard<'_, Vec<u8>> {
        self.0.log.write().expect("log lock poisoned")
    }

    fn sidecar(&self) -> MutexGuard<'_, Option<Vec<u8>>> {
        self.0.sidecar.lock().expect("sidecar lock poisoned")
    }
}

impl Backend for MemoryBackend {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let log = self.log();
        let src = usize::try_from(offset)
            .ok()
            .and_then(|start| log.get(start..start.checked_add(buf.len())?))
            .ok_or(io::ErrorKind::UnexpectedEof)?;
        buf.copy_from_slice(src);
        Ok(())
    }

    fn write_at(&self, offset: u64, bytes: &[u8]) -> io::Result<()> {
        let mut log = self.log_mut();
        let start = usize::try_from(offset).map_err(|_| io::ErrorKind::OutOfMemory)?;
        let end = start + bytes.len();
        if log.len() < end {
            log.resize(end, 0);
        }
        log[start..end].copy_from_slice(bytes);
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.log().len() as u64)
    }

    fn truncate(&self, len: u64) -> io::Result<()> {
        let len = usize::try_from(len).map_err(|_| io::ErrorKind::OutOfMemory)?;
        self.log_mut().resize(len, 0);
        Ok(())
    }

    fn sync(&self) -> io::Result<()> {
        Ok(())
    }

    fn read_sidecar(&self) -> io::Result<Option<Vec<u8>>> {
        Ok(self.sidecar().clone())
    }

    fn replace_sidecar(&self, bytes: &[u8]) -> io::Result<()> {
        *self.sidecar() = Some(bytes.to_vec());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both backends obey the same byte contract.
    fn contract(backend: &dyn Backend) {
        assert_eq!(backend.len().unwrap(), 0);
        assert_eq!(backend.read_sidecar().unwrap(), None);
        backend.write_at(0, b"hello").unwrap();
        backend.write_at(3, b"p!").unwrap();
        let mut buf = [0u8; 5];
        backend.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"help!");
        assert!(backend.read_at(1, &mut buf).is_err(), "read past the end");
        backend.truncate(2).unwrap();
        assert_eq!(backend.len().unwrap(), 2);
        backend.sync().unwrap();
        backend.replace_sidecar(b"one").unwrap();
        backend.replace_sidecar(b"two").unwrap();
        assert_eq!(
            backend.read_sidecar().unwrap().as_deref(),
            Some(&b"two"[..])
        );
    }

    #[test]
    fn file_and_memory_backends_share_one_contract() {
        let dir = mdb_testutil::TempDir::new("backend-contract");
        contract(&FileBackend::open(dir.path()).unwrap());
        assert!(!dir.join("segments.idx.tmp").exists());
        let memory = MemoryBackend::default();
        contract(&memory);
        // Clones share the bytes.
        assert_eq!(memory.clone().len().unwrap(), 2);
    }
}
