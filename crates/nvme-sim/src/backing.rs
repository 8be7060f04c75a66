//! Page content backing.
//!
//! The device model resolves an LBA to a [`PageToken`] through its
//! [`MemBacking`]: written pages are stored in a hash map, and reads of
//! untouched pages return the deterministic pristine token, so a namespace
//! of any size costs memory only for the pages written to it.

use crate::spec::{Lba, PageToken};
use parking_lot::RwLock;
use std::collections::HashMap;

/// Sparse in-memory backing storing written tokens.
pub struct MemBacking {
    dev: u32,
    pages: RwLock<HashMap<Lba, PageToken>>,
}

impl MemBacking {
    /// Backing for device `dev`.
    pub fn new(dev: u32) -> Self {
        MemBacking {
            dev,
            pages: RwLock::new(HashMap::new()),
        }
    }

    /// Token stored at `lba`.
    pub fn read(&self, lba: Lba) -> PageToken {
        self.pages
            .read()
            .get(&lba)
            .copied()
            .unwrap_or_else(|| PageToken::pristine(self.dev, lba))
    }

    /// Store `token` at `lba`.
    pub fn write(&self, lba: Lba, token: PageToken) {
        self.pages.write().insert(lba, token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backing_read_after_write() {
        let b = MemBacking::new(0);
        let pristine = b.read(5);
        assert_eq!(pristine, PageToken::pristine(0, 5));
        b.write(5, PageToken(1234));
        assert_eq!(b.read(5), PageToken(1234));
        assert_eq!(b.read(6), PageToken::pristine(0, 6));
    }
}
