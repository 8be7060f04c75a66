//! Experiment runners — one per figure of the paper's evaluation.
//!
//! Each submodule exposes a `run_*` function returning plain row structs so
//! the same code serves three consumers: the `figures` example (which prints
//! the tables), the cross-crate integration tests (which run scaled-down
//! versions and assert on the qualitative shape), and the other examples.
//!
//! | Paper artefact | Runner |
//! |---|---|
//! | Figure 4 (CTC sweep) | [`fig04::run_ctc_sweep`] |
//! | Figure 5 (4 KiB random read) | [`fig05_06::run_bandwidth_sweep`] with [`crate::randio::IoDirection::Read`] |
//! | Figure 6 (4 KiB random write) | [`fig05_06::run_bandwidth_sweep`] with [`crate::randio::IoDirection::Write`] |
//! | Figure 7 (DLRM configs) | [`dlrm_figs::run_fig7_configs`] |
//! | Figure 8 (batch-size sweep) | [`dlrm_figs::run_fig8_batch_sweep`] |
//! | Figure 9 (queue-pair sweep) | [`dlrm_figs::run_fig9_queue_sweep`] |
//! | Figure 10 (cache-size sweep) | [`dlrm_figs::run_fig10_cache_sweep`] |
//! | Figure 11 (graph API breakdown) | [`fig11::run_graph_breakdown`] |
//! | Figure 12 (register usage) | [`fig12::run_register_table`] |

pub mod dlrm_figs;
pub mod fig04;
pub mod fig05_06;
pub mod fig11;
pub mod fig12;
pub mod testbed;
pub mod trace_replay;

pub use dlrm_figs::{
    run_fig10_cache_sweep, run_fig7_configs, run_fig8_batch_sweep, run_fig9_queue_sweep, DlrmRow,
};
pub use fig04::{run_ctc_sweep, CtcRow};
pub use fig05_06::{run_bandwidth_sweep, BandwidthRow};
pub use fig11::{run_graph_breakdown, BreakdownRow, GraphScale};
pub use fig12::run_register_table;
pub use testbed::{agile_testbed, bam_testbed, TestbedScale};
pub use trace_replay::{
    run_trace_replay, run_trace_replay_with_sink, MetricsReport, ReplayConfig, ReplayReport,
    ReplaySystem,
};

pub use crate::trace_replay::ReplayPath;
