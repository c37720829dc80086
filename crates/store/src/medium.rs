//! The untrusted block device under the store.
//!
//! [`StoreMedium`] is the narrow seam between the verified store logic
//! and whatever actually holds the bytes: a real file
//! ([`FileMedium`]), an in-memory buffer ([`MemMedium`], used by the
//! offline-tamper campaign and the crash-matrix tests), or either of
//! those wrapped in the deterministic crash injector ([`CrashMedium`]).
//!
//! The medium is modeled as *synchronous*: a completed `write_at` is
//! durable. Torn writes — the failure the atomic commit protocol must
//! survive — are modeled at the injected crash point, where the fatal
//! write persists only a prefix of its buffer. `sync` is therefore a
//! no-op for durability here, but every implementation still counts it
//! as a device step so the crash matrix enumerates the protocol's sync
//! boundaries too.

#![expect(
    clippy::disallowed_types,
    reason = "MemMedium clones share one buffer so a reopened store sees the same simulated device; stores are built and used on a single worker, never crossing the sweep boundary"
)]

use std::cell::RefCell;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::rc::Rc;

/// An untrusted byte device addressed by absolute offset.
pub trait StoreMedium {
    /// Fills `buf` from `offset`. Reading past the end is an error.
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()>;

    /// Writes `data` at `offset`, extending the device if needed.
    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()>;

    /// Orders preceding writes before subsequent ones (a device step;
    /// see the module docs for the durability model).
    fn sync(&mut self) -> io::Result<()>;

    /// Current device length in bytes.
    fn len(&mut self) -> io::Result<u64>;

    /// Whether the device currently holds zero bytes.
    fn is_empty(&mut self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }
}

/// An in-memory medium sharing one buffer across clones.
///
/// Clones alias the same bytes (the handle is reference-counted), so a
/// test can keep a handle, drive a store to death through another, and
/// then inspect or reopen the very same "disk". Deliberately `!Send` —
/// the store is single-threaded per instance, like the engine; parallel
/// harnesses construct stores on their workers.
#[derive(Debug, Clone, Default)]
pub struct MemMedium {
    bytes: Rc<RefCell<Vec<u8>>>,
}

impl MemMedium {
    /// An empty in-memory device.
    pub fn new() -> Self {
        MemMedium::default()
    }

    /// A copy of the current device contents.
    pub fn snapshot(&self) -> Vec<u8> {
        self.bytes.borrow().clone()
    }

    /// Replaces the device contents wholesale — the stale-image splice
    /// primitive of the offline-tamper family.
    pub fn restore(&self, image: &[u8]) {
        *self.bytes.borrow_mut() = image.to_vec();
    }

    /// XORs one byte — the offline bit-flip primitive.
    pub fn flip(&self, offset: u64, mask: u8) {
        let mut bytes = self.bytes.borrow_mut();
        if let Some(byte) = usize::try_from(offset).ok().and_then(|i| bytes.get_mut(i)) {
            *byte ^= mask;
        }
    }
}

impl StoreMedium for MemMedium {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let bytes = self.bytes.borrow();
        let start = usize::try_from(offset)
            .map_err(|_| io::Error::new(io::ErrorKind::UnexpectedEof, "offset out of range"))?;
        let end = start.checked_add(buf.len()).filter(|&e| e <= bytes.len());
        match end {
            Some(end) => {
                buf.copy_from_slice(&bytes[start..end]);
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "read past end of medium",
            )),
        }
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        let mut bytes = self.bytes.borrow_mut();
        let start = usize::try_from(offset)
            .map_err(|_| io::Error::new(io::ErrorKind::OutOfMemory, "offset out of range"))?;
        let end = start.saturating_add(data.len());
        if bytes.len() < end {
            bytes.resize(end, 0);
        }
        bytes[start..end].copy_from_slice(data);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn len(&mut self) -> io::Result<u64> {
        Ok(self.bytes.borrow().len() as u64)
    }
}

/// A medium backed by a real file via `std::fs`.
#[derive(Debug)]
pub struct FileMedium {
    file: File,
}

impl FileMedium {
    /// Creates (truncating) a fresh file device.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FileMedium { file })
    }

    /// Opens an existing file device read-write.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        Ok(FileMedium { file })
    }
}

impl StoreMedium for FileMedium {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.read_exact(buf)
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.write_all(data)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn len(&mut self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }
}

/// Deterministic crash injection around any medium.
///
/// Mutating device steps (`write_at`, `sync`) are numbered from 1.
/// [`arm`](Self::arm)ing the injector at step *k* makes the *k*-th
/// mutating step fatal: a fatal `write_at` persists only the first half
/// of its buffer (a torn write), a fatal `sync` persists nothing
/// further, and every subsequent operation — reads included — fails.
/// All failures surface as `ErrorKind::Interrupted`, which the store
/// maps to [`StoreError::Crashed`](crate::StoreError::Crashed).
///
/// Running a scripted workload unarmed and reading
/// [`steps`](Self::steps) afterwards gives the exact number of
/// injection points; rerunning the same script armed at each step in
/// turn is the crash-point matrix.
#[derive(Debug)]
pub struct CrashMedium<M> {
    inner: M,
    steps: u64,
    fail_at: Option<u64>,
    dead: bool,
}

impl<M: StoreMedium> CrashMedium<M> {
    /// Wraps `inner` with the injector disarmed.
    pub fn new(inner: M) -> Self {
        CrashMedium {
            inner,
            steps: 0,
            fail_at: None,
            dead: false,
        }
    }

    /// Makes mutating step number `step` (1-based) fatal.
    pub fn arm(mut self, step: u64) -> Self {
        self.fail_at = Some(step);
        self
    }

    /// Mutating steps performed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Whether the injected crash has fired.
    pub fn crashed(&self) -> bool {
        self.dead
    }

    fn step(&mut self) -> io::Result<bool> {
        if self.dead {
            return Err(crash_error());
        }
        self.steps += 1;
        if self.fail_at == Some(self.steps) {
            self.dead = true;
            return Ok(true);
        }
        Ok(false)
    }
}

fn crash_error() -> io::Error {
    io::Error::new(io::ErrorKind::Interrupted, "injected crash")
}

impl<M: StoreMedium> StoreMedium for CrashMedium<M> {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        if self.dead {
            return Err(crash_error());
        }
        self.inner.read_at(offset, buf)
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        if self.step()? {
            // Torn write: only a prefix of the buffer reaches the
            // device before power dies.
            self.inner.write_at(offset, &data[..data.len() / 2])?;
            return Err(crash_error());
        }
        self.inner.write_at(offset, data)
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.step()? {
            return Err(crash_error());
        }
        self.inner.sync()
    }

    fn len(&mut self) -> io::Result<u64> {
        if self.dead {
            return Err(crash_error());
        }
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_medium_clones_alias_one_buffer() {
        let a = MemMedium::new();
        let mut b = a.clone();
        b.write_at(4, b"shared").unwrap();
        assert_eq!(a.snapshot()[4..10].to_vec(), b"shared");
        let mut buf = [0u8; 6];
        b.read_at(4, &mut buf).unwrap();
        assert_eq!(&buf, b"shared");
        assert!(b.read_at(8, &mut buf).is_err(), "read past end fails");
        a.flip(4, 0x01);
        b.read_at(4, &mut buf).unwrap();
        assert_eq!(buf[0], b's' ^ 0x01);
        a.restore(b"xy");
        assert_eq!(b.len().unwrap(), 2);
    }

    #[test]
    fn crash_medium_counts_and_tears() {
        let mem = MemMedium::new();
        let mut m = CrashMedium::new(mem.clone());
        m.write_at(0, &[1; 8]).unwrap();
        m.sync().unwrap();
        m.write_at(8, &[2; 8]).unwrap();
        assert_eq!(m.steps(), 3);
        assert!(!m.crashed());

        // Same script armed at step 3: the second write tears.
        let mem = MemMedium::new();
        let mut m = CrashMedium::new(mem.clone()).arm(3);
        m.write_at(0, &[1; 8]).unwrap();
        m.sync().unwrap();
        let err = m.write_at(8, &[2; 8]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert!(m.crashed());
        // Half of the torn write landed; the device is then dead.
        assert_eq!(mem.snapshot().len(), 12);
        assert!(m.read_at(0, &mut [0u8; 1]).is_err());
        assert!(m.write_at(0, &[0]).is_err());
        assert!(m.sync().is_err());
        assert!(m.len().is_err());
    }

    #[test]
    fn crash_on_sync_persists_nothing_further() {
        let mem = MemMedium::new();
        let mut m = CrashMedium::new(mem.clone()).arm(2);
        m.write_at(0, &[7; 4]).unwrap();
        assert!(m.sync().is_err());
        assert_eq!(mem.snapshot(), vec![7; 4]);
    }
}
