//! NVMe command-set types.
//!
//! Only the pieces of the NVMe 1.4 I/O command set that the AGILE system
//! exercises are modelled: page-granular `Read` and `Write` commands, 16-bit
//! command identifiers (CIDs), completion entries carrying the submission
//! queue head pointer and a phase bit, and generic/status codes. Field names
//! follow the specification (`slba`, `nlb`, `cid`, …) so the code reads like
//! the driver it replaces.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Logical block address, in units of 4 KiB pages.
pub type Lba = u64;

/// A 16-bit NVMe command identifier. The paper (§3.2.1) notes the CID "should
/// be unique to identify commands within a batch using the same SQ"; the AGILE
/// service uses it to map completions back to SQ entries.
pub type CommandId = u16;

/// Index of an I/O queue pair on a device.
pub type QueueId = u16;

/// The modelled content of one 4 KiB flash page.
///
/// Pages are represented by a 64-bit token rather than a byte buffer so the
/// simulator can address terabyte-scale namespaces. A token is enough to
/// detect every data-hazard class the paper worries about (RAW/WAR/WAW):
/// stale data shows up as a stale token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PageToken(pub u64);

impl PageToken {
    /// The token an untouched page of device `dev` at LBA `lba` carries.
    /// Deterministic so reads of never-written pages are still verifiable.
    pub fn pristine(dev: u32, lba: Lba) -> PageToken {
        // SplitMix-style mix of (dev, lba); any good 64-bit mixer works.
        let mut z = (dev as u64) << 48 ^ lba ^ 0x9E37_79B9_7F4A_7C15;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        PageToken(z ^ (z >> 31))
    }
}

impl fmt::Display for PageToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

/// I/O command opcodes (NVMe 1.4, figure 346).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// Flush (modelled as a no-op with controller latency).
    Flush = 0x00,
    /// Write one or more logical blocks.
    Write = 0x01,
    /// Read one or more logical blocks.
    Read = 0x02,
}

/// Completion status codes (generic command status subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmdStatus {
    /// Successful completion.
    Success,
    /// LBA out of the namespace's range.
    LbaOutOfRange,
    /// Opcode not supported by this model.
    InvalidOpcode,
    /// Internal device error (used by fault-injection tests).
    InternalError,
}

impl CmdStatus {
    /// True on success.
    pub fn is_ok(self) -> bool {
        matches!(self, CmdStatus::Success)
    }
}

/// A destination/source "PRP pointer": a 64-bit slot the device DMAs a page
/// token into (reads) or out of (writes).
///
/// In the real system the PRP entry in the SQE points at pinned GPU HBM
/// (a software-cache line or a user buffer registered through GDRCopy). Here
/// the handle names a slot of a shared block of cells: a buffer of its own
/// ([`DmaHandle::new`], one allocation) or one line of a [`DmaSlab`]. The
/// device stores/loads the page token through it at completion time, giving
/// the same "data is in place before the CQE is visible" ordering the
/// hardware provides.
#[derive(Clone)]
pub struct DmaHandle {
    cells: Arc<Cells>,
    slot: u32,
}

/// The cells behind [`DmaHandle`]s: one for a buffer of its own, a block for
/// a [`DmaSlab`].
enum Cells {
    One(AtomicU64),
    Many(Box<[AtomicU64]>),
}

impl Cells {
    fn at(&self, slot: u32) -> &AtomicU64 {
        match self {
            Cells::One(cell) => cell,
            Cells::Many(cells) => &cells[slot as usize],
        }
    }
}

impl DmaHandle {
    /// A fresh, zeroed DMA target.
    pub fn new() -> Self {
        Self::with_token(PageToken(0))
    }

    /// A DMA region pre-filled with `token` (used as the source of writes).
    pub fn with_token(token: PageToken) -> Self {
        DmaHandle {
            cells: Arc::new(Cells::One(AtomicU64::new(token.0))),
            slot: 0,
        }
    }

    /// Read the token currently in the region.
    pub fn load(&self) -> PageToken {
        PageToken(self.cells.at(self.slot).load(Ordering::Acquire))
    }

    /// Store a token into the region (device-side DMA write, or host-side
    /// buffer fill before a write command).
    pub fn store(&self, token: PageToken) {
        self.cells.at(self.slot).store(token.0, Ordering::Release);
    }

    /// Two handles alias iff they name the same slot of the same cells.
    pub fn ptr_eq(&self, other: &DmaHandle) -> bool {
        Arc::ptr_eq(&self.cells, &other.cells) && self.slot == other.slot
    }
}

impl Default for DmaHandle {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for DmaHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DmaHandle")
            .field("slot", &self.slot)
            .finish()
    }
}

/// The DMA slots of every line of an HBM structure, taken as one block: the
/// software cache keeps its lines' page tokens here, so a cache of any size
/// costs 8 bytes a line and two allocations, not an allocation a line. A
/// line's [`DmaHandle`] ([`DmaSlab::handle`]) shares the block and names the
/// line's slot.
pub struct DmaSlab(Arc<Cells>);

impl DmaSlab {
    /// `slots` zeroed slots.
    pub fn new(slots: usize) -> Self {
        assert!(
            u32::try_from(slots).is_ok(),
            "a DMA slab holds at most 2^32 - 1 slots"
        );
        DmaSlab(Arc::new(Cells::Many(
            (0..slots).map(|_| AtomicU64::new(0)).collect(),
        )))
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        match &*self.0 {
            Cells::One(_) => 1,
            Cells::Many(cells) => cells.len(),
        }
    }

    /// True for a slab of no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The handle an NVMe command DMAs slot `slot` through.
    pub fn handle(&self, slot: u32) -> DmaHandle {
        assert!((slot as usize) < self.len(), "DMA slot {slot} out of range");
        DmaHandle {
            cells: Arc::clone(&self.0),
            slot,
        }
    }

    /// Read the token in slot `slot`.
    pub fn load(&self, slot: u32) -> PageToken {
        PageToken(self.0.at(slot).load(Ordering::Acquire))
    }

    /// Store `token` into slot `slot`.
    pub fn store(&self, slot: u32, token: PageToken) {
        self.0.at(slot).store(token.0, Ordering::Release);
    }
}

impl fmt::Debug for DmaSlab {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DmaSlab")
            .field("slots", &self.len())
            .finish()
    }
}

/// A submission queue entry (the subset of the 64-byte SQE the model needs).
#[derive(Debug, Clone)]
pub struct NvmeCommand {
    /// Command identifier; unique among in-flight commands of one SQ.
    pub cid: CommandId,
    /// Opcode.
    pub opcode: Opcode,
    /// Namespace id (1-based, as in NVMe). The model uses a single namespace.
    pub nsid: u32,
    /// Starting LBA (4 KiB pages).
    pub slba: Lba,
    /// Number of logical blocks, 0-based as in NVMe (0 means one block).
    pub nlb: u16,
    /// The simulated PRP entry: where read data lands / write data comes from.
    pub dma: DmaHandle,
}

impl NvmeCommand {
    /// Build a one-page read command.
    pub fn read(cid: CommandId, slba: Lba, dma: DmaHandle) -> Self {
        NvmeCommand {
            cid,
            opcode: Opcode::Read,
            nsid: 1,
            slba,
            nlb: 0,
            dma,
        }
    }

    /// Build a one-page write command.
    pub fn write(cid: CommandId, slba: Lba, dma: DmaHandle) -> Self {
        NvmeCommand {
            cid,
            opcode: Opcode::Write,
            nsid: 1,
            slba,
            nlb: 0,
            dma,
        }
    }

    /// Build a flush command.
    pub fn flush(cid: CommandId) -> Self {
        NvmeCommand {
            cid,
            opcode: Opcode::Flush,
            nsid: 1,
            slba: 0,
            nlb: 0,
            dma: DmaHandle::new(),
        }
    }

    /// Number of 4 KiB pages this command covers.
    pub fn page_count(&self) -> u64 {
        self.nlb as u64 + 1
    }
}

/// A completion queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NvmeCompletion {
    /// Command identifier of the completed command.
    pub cid: CommandId,
    /// Which SQ the command came from.
    pub sq_id: QueueId,
    /// The device's current SQ head pointer (how far it has consumed the SQ).
    pub sq_head: u16,
    /// Completion status.
    pub status: CmdStatus,
    /// Phase tag; flips every time the device wraps the CQ. Pollers compare
    /// it against their expected phase to detect new entries.
    pub phase: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pristine_tokens_are_deterministic_and_distinct() {
        let a = PageToken::pristine(0, 42);
        let b = PageToken::pristine(0, 42);
        let c = PageToken::pristine(0, 43);
        let d = PageToken::pristine(1, 42);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_ne!(c, d);
    }

    #[test]
    fn command_constructors() {
        let dma = DmaHandle::new();
        let r = NvmeCommand::read(7, 100, dma.clone());
        assert_eq!(r.opcode, Opcode::Read);
        assert_eq!(r.cid, 7);
        assert_eq!(r.slba, 100);
        assert_eq!(r.page_count(), 1);
        let w = NvmeCommand::write(8, 200, dma);
        assert_eq!(w.opcode, Opcode::Write);
        let f = NvmeCommand::flush(9);
        assert_eq!(f.opcode, Opcode::Flush);
    }

    #[test]
    fn dma_handle_store_load() {
        let h = DmaHandle::new();
        assert_eq!(h.load(), PageToken(0));
        h.store(PageToken(0xDEAD_BEEF));
        assert_eq!(h.load(), PageToken(0xDEAD_BEEF));
        let alias = h.clone();
        alias.store(PageToken(5));
        assert_eq!(h.load(), PageToken(5));
        assert!(h.ptr_eq(&alias));
        assert!(!h.ptr_eq(&DmaHandle::new()));
    }

    #[test]
    fn slab_handles_name_their_own_slot() {
        let slab = DmaSlab::new(4);
        assert_eq!(slab.len(), 4);
        let (a, b) = (slab.handle(1), slab.handle(2));
        a.store(PageToken(11));
        b.store(PageToken(22));
        assert_eq!(
            (0..4).map(|slot| slab.load(slot)).collect::<Vec<_>>(),
            [PageToken(0), PageToken(11), PageToken(22), PageToken(0)]
        );
        slab.store(1, PageToken(7));
        assert_eq!(a.load(), PageToken(7));
        assert!(a.ptr_eq(&slab.handle(1)));
        assert!(!a.ptr_eq(&b));
        assert_eq!(format!("{b:?}"), "DmaHandle { slot: 2 }");
        assert_eq!(format!("{slab:?}"), "DmaSlab { slots: 4 }");
    }

    #[test]
    fn a_handle_stays_two_words() {
        assert!(std::mem::size_of::<DmaHandle>() <= 16);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slab_handles_are_bounds_checked() {
        DmaSlab::new(2).handle(2);
    }

    #[test]
    fn with_token_prefills() {
        let h = DmaHandle::with_token(PageToken(99));
        assert_eq!(h.load(), PageToken(99));
    }

    #[test]
    fn status_predicates() {
        assert!(CmdStatus::Success.is_ok());
        assert!(!CmdStatus::LbaOutOfRange.is_ok());
        assert!(!CmdStatus::InternalError.is_ok());
    }

    #[test]
    fn display_token() {
        let t = PageToken(0xABC);
        assert_eq!(format!("{t}"), "0x0000000000000abc");
    }
}
