//! Minimal `rand` shim: the [`RngCore`] trait the workspace's deterministic
//! generator implements so it stays composable with ecosystem code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// Error type for fallible byte-filling (never produced by this workspace).
#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rng error")
    }
}

impl std::error::Error for Error {}

/// The core random-number-generator interface, mirroring `rand::RngCore`.
pub trait RngCore {
    /// Next random `u32`.
    fn next_u32(&mut self) -> u32;
    /// Next random `u64`.
    fn next_u64(&mut self) -> u64;
    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
    /// Fallible variant of [`RngCore::fill_bytes`].
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error>;
}
