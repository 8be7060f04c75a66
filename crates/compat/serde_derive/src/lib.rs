//! No-op stand-ins for `serde_derive`'s `Serialize` / `Deserialize` derives.
//!
//! The workspace only uses the derives as forward-compatible annotations —
//! nothing actually serializes through serde (the trace subsystem has its own
//! explicit binary/JSON codecs) — so the derives expand to nothing.

#![forbid(unsafe_code)]

use proc_macro::TokenStream;

/// Accept `#[derive(Serialize)]` and expand to nothing.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// Accept `#[derive(Deserialize)]` and expand to nothing.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
