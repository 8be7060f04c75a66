//! Minimal `serde` facade for the offline build.
//!
//! The workspace annotates many plain-data structs with
//! `#[derive(Serialize, Deserialize)]` so they stay ecosystem-ready, but no
//! code path performs serde serialization (the trace subsystem ships explicit
//! codecs instead). This shim provides the two marker traits and re-exports
//! the no-op derives, which is all the annotations need to compile.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};

/// Marker trait mirroring `serde::Serialize`.
pub trait Serialize {}

/// Marker trait mirroring `serde::Deserialize`.
pub trait Deserialize<'de> {}
