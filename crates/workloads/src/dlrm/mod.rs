//! DLRM inference over SSD-resident embedding tables (§4.4, Figures 7–10).
//!
//! The paper evaluates AGILE against BaM on Deep Learning Recommendation
//! Model inference: the categorical-feature embedding tables live on the
//! SSDs (they do not fit in GPU memory), the MLP compute runs on the GPU
//! (cuBLAS in the paper, an analytic GEMM cost model here),
//! and each inference epoch gathers `batch × tables` embedding rows before
//! running the MLPs.
//!
//! Three execution modes are compared, matching the paper:
//!
//! * **BaM** — synchronous gathers through the BaM baseline;
//! * **AGILE sync** — the same gather-then-compute schedule through AGILE;
//! * **AGILE async** — AGILE's prefetch API pulls the *next* epoch's
//!   embeddings into the software cache while the current epoch's MLPs run.
//!
//! Submodules: [`model`] (model configurations and the compute model),
//! [`trace`] (the synthetic Zipf-distributed access trace standing in for the
//! Criteo click logs) and [`kernel`] (the warp kernels for the three modes).

pub mod kernel;
pub mod model;
pub mod trace;

pub use kernel::{DlrmKernel, DlrmMode};
pub use model::{DlrmConfig, EmbeddingLayout};
pub use trace::DlrmTrace;
