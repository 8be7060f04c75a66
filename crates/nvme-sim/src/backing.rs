//! Page content backings.
//!
//! The device model resolves a `(namespace, LBA)` to a [`PageToken`] through a
//! [`PageBacking`]. Three implementations cover the reproduction's needs:
//!
//! * [`ZeroBacking`] — every page reads as its deterministic "pristine" token;
//!   writes are validated but not stored. Used by the raw-bandwidth
//!   experiments (Figures 5/6), which never re-read written data.
//! * [`MemBacking`] — written pages are stored in a hash map; reads of
//!   untouched pages return the pristine token. Used by correctness tests and
//!   the graph workloads (the CSR arrays genuinely live "on the SSD").
//! * [`SyntheticBacking`] — page content is computed by a caller-supplied
//!   function of the LBA. Used by the DLRM embedding tables, which would be
//!   hundreds of gigabytes if materialised.
//!
//! An optional byte-level payload store ([`MemBacking::with_payloads`]) keeps
//! real 4 KiB buffers (via `bytes::Bytes`) for the small tests that verify
//! byte-exact data movement end to end.

use crate::spec::{Lba, PageToken};
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::HashMap;

/// Resolves page content for a device.
pub trait PageBacking: Send + Sync {
    /// Token stored at `lba`.
    fn read(&self, lba: Lba) -> PageToken;
    /// Store `token` at `lba`.
    fn write(&self, lba: Lba, token: PageToken);
    /// Number of pages that have been explicitly written.
    fn written_pages(&self) -> usize;
}

/// Backing for experiments that never re-read their writes.
pub struct ZeroBacking {
    dev: u32,
    writes: std::sync::atomic::AtomicUsize,
}

impl ZeroBacking {
    /// Create a backing for device `dev`.
    pub fn new(dev: u32) -> Self {
        ZeroBacking {
            dev,
            writes: std::sync::atomic::AtomicUsize::new(0),
        }
    }
}

impl PageBacking for ZeroBacking {
    fn read(&self, lba: Lba) -> PageToken {
        PageToken::pristine(self.dev, lba)
    }
    fn write(&self, _lba: Lba, _token: PageToken) {
        self.writes
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
    fn written_pages(&self) -> usize {
        self.writes.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Sparse in-memory backing storing written tokens (and optionally payloads).
pub struct MemBacking {
    dev: u32,
    pages: RwLock<HashMap<Lba, PageToken>>,
    payloads: Option<RwLock<HashMap<Lba, Bytes>>>,
}

impl MemBacking {
    /// Token-only backing for device `dev`.
    pub fn new(dev: u32) -> Self {
        MemBacking {
            dev,
            pages: RwLock::new(HashMap::new()),
            payloads: None,
        }
    }

    /// Backing that additionally stores byte payloads written through
    /// [`MemBacking::write_payload`].
    pub fn with_payloads(dev: u32) -> Self {
        MemBacking {
            dev,
            pages: RwLock::new(HashMap::new()),
            payloads: Some(RwLock::new(HashMap::new())),
        }
    }

    /// Store a byte payload (≤ 4 KiB) at `lba`, alongside a token derived
    /// from its contents.
    pub fn write_payload(&self, lba: Lba, data: Bytes) {
        assert!(data.len() <= 4096, "payload exceeds one page");
        let token = PageToken(fxhash64(&data));
        self.pages.write().insert(lba, token);
        if let Some(p) = &self.payloads {
            p.write().insert(lba, data);
        }
    }

    /// Fetch the byte payload stored at `lba`, if any.
    pub fn read_payload(&self, lba: Lba) -> Option<Bytes> {
        self.payloads
            .as_ref()
            .and_then(|p| p.read().get(&lba).cloned())
    }
}

/// A small FNV-1a style hash for payload → token derivation.
fn fxhash64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl PageBacking for MemBacking {
    fn read(&self, lba: Lba) -> PageToken {
        self.pages
            .read()
            .get(&lba)
            .copied()
            .unwrap_or_else(|| PageToken::pristine(self.dev, lba))
    }
    fn write(&self, lba: Lba, token: PageToken) {
        self.pages.write().insert(lba, token);
    }
    fn written_pages(&self) -> usize {
        self.pages.read().len()
    }
}

/// Backing whose read content is computed on demand from the LBA.
pub struct SyntheticBacking {
    gen: Box<dyn Fn(Lba) -> PageToken + Send + Sync>,
    overlay: RwLock<HashMap<Lba, PageToken>>,
}

impl SyntheticBacking {
    /// Create a backing whose pristine content is `gen(lba)`. Writes are
    /// stored in an overlay and shadow the generator.
    pub fn new(gen: impl Fn(Lba) -> PageToken + Send + Sync + 'static) -> Self {
        SyntheticBacking {
            gen: Box::new(gen),
            overlay: RwLock::new(HashMap::new()),
        }
    }
}

impl PageBacking for SyntheticBacking {
    fn read(&self, lba: Lba) -> PageToken {
        if let Some(t) = self.overlay.read().get(&lba) {
            return *t;
        }
        (self.gen)(lba)
    }
    fn write(&self, lba: Lba, token: PageToken) {
        self.overlay.write().insert(lba, token);
    }
    fn written_pages(&self) -> usize {
        self.overlay.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_backing_reads_pristine() {
        let b = ZeroBacking::new(2);
        assert_eq!(b.read(10), PageToken::pristine(2, 10));
        b.write(10, PageToken(99));
        // ZeroBacking intentionally discards writes.
        assert_eq!(b.read(10), PageToken::pristine(2, 10));
        assert_eq!(b.written_pages(), 1);
    }

    #[test]
    fn mem_backing_read_after_write() {
        let b = MemBacking::new(0);
        let pristine = b.read(5);
        assert_eq!(pristine, PageToken::pristine(0, 5));
        b.write(5, PageToken(1234));
        assert_eq!(b.read(5), PageToken(1234));
        assert_eq!(b.read(6), PageToken::pristine(0, 6));
        assert_eq!(b.written_pages(), 1);
    }

    #[test]
    fn mem_backing_payloads() {
        let b = MemBacking::with_payloads(0);
        let data = Bytes::from(vec![7u8; 512]);
        b.write_payload(3, data.clone());
        assert_eq!(b.read_payload(3).unwrap(), data);
        assert!(b.read_payload(4).is_none());
        // Token reflects the payload deterministically.
        let again = MemBacking::with_payloads(0);
        again.write_payload(3, data);
        assert_eq!(b.read(3), again.read(3));
    }

    #[test]
    #[should_panic(expected = "exceeds one page")]
    fn oversized_payload_rejected() {
        let b = MemBacking::with_payloads(0);
        b.write_payload(0, Bytes::from(vec![0u8; 5000]));
    }

    #[test]
    fn synthetic_backing_with_overlay() {
        let b = SyntheticBacking::new(|lba| PageToken(lba * 2));
        assert_eq!(b.read(21), PageToken(42));
        b.write(21, PageToken(7));
        assert_eq!(b.read(21), PageToken(7));
        assert_eq!(b.read(22), PageToken(44));
        assert_eq!(b.written_pages(), 1);
    }
}
