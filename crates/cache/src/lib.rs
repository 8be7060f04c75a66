//! # agile-cache — the HBM-resident software cache and Share Table
//!
//! AGILE routes every SSD access through a software-managed cache in GPU HBM
//! (paper §3.4): cache lines are 4 KiB (one flash page), each line carries a
//! four-state word (`INVALID`, `BUSY`, `READY`, `MODIFIED`), and the
//! replacement policy is pluggable — the paper ships a clock policy and lets
//! users supply their own. A second structure, the Share Table (§3.4.1),
//! extends coherency to user-registered buffers with a MOESI-inspired
//! protocol so `async_issue(src, dst)` into private buffers cannot introduce
//! RAW/WAR/WAW hazards against the cache.
//!
//! This crate implements both structures with the same concurrency discipline
//! a device-side implementation would use: per-line atomic state words and
//! reference counts, short per-set critical sections for tag manipulation,
//! and non-blocking lookups that report `Busy`/`NoLineAvailable` instead of
//! waiting — the caller (a warp state machine) decides whether to retry,
//! which is exactly what makes the asynchronous model deadlock-free.
//!
//! Modules:
//!
//! * [`line`](mod@line) — line state words and pinning;
//! * [`policy`] — the [`policy::CachePolicy`] trait plus the clock and the
//!   tenant-aware [`policy::TenantShare`] implementations;
//! * [`tenant`] — per-tenant accounting (hits/misses/fills/evictions and
//!   live occupancy) shared between the cache and tenant-aware policies;
//! * [`cache`] — the set-associative [`cache::SoftwareCache`]: flat
//!   per-line tag-key and owner arrays, one DMA slab for every line's page
//!   token, and the table of sleepers waiting for its `BUSY` lines;
//! * [`sharded`] — [`sharded::ShardedCache`], the old name of that cache
//!   the benchmark package still spells;
//! * [`share_table`] — the MOESI-inspired [`share_table::ShareTable`].

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod line;
pub mod policy;
pub mod sharded;
pub mod share_table;
pub mod tenant;
mod watch;

pub use cache::{
    BusyTicket, CacheConfig, CacheLookup, CacheStats, LineId, SoftwareCache, Writeback,
};
pub use line::LineState;
pub use policy::{CachePolicy, ClockPolicy, ShareError, TenantShare, MAX_ONLINE_SHARE};
pub use sharded::ShardedCache;
pub use share_table::{BufState, ShareTable, ShareTableStats, SharedBuf};
pub use tenant::{TenantCacheStats, TenantTable, NO_TENANT};
