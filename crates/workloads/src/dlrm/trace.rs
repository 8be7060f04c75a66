//! Synthetic DLRM access trace.
//!
//! The paper drives DLRM inference with the Criteo 1 TB click-logs dataset.
//! That dataset is not available here, so the trace generator substitutes a
//! Zipf-distributed synthetic trace over the same table structure: for every
//! epoch and every sample in the batch, each categorical feature draws one
//! row from its table with a skewed popularity distribution — the property
//! that makes the software cache (and its size sweep in Figure 10) behave the
//! way the paper's workload does.
//!
//! The trace is fully deterministic in the seed, so every execution mode
//! (BaM, AGILE sync, AGILE async) replays exactly the same accesses.

use super::model::{DlrmConfig, EmbeddingLayout};
use agile_sim::{SimRng, ZipfSampler};
use nvme_sim::Lba;

/// A materialised access trace: for every epoch, the page-level requests of
/// the whole batch (sample-major, table-minor).
pub struct DlrmTrace {
    /// Page requests per epoch.
    epochs: Vec<Vec<(u32, Lba)>>,
}

impl DlrmTrace {
    /// Generate a trace for `cfg` over the given table layouts.
    pub fn generate(cfg: &DlrmConfig, layouts: &[EmbeddingLayout], seed: u64) -> Self {
        assert_eq!(layouts.len(), cfg.num_tables());
        // The Zipf head is drawn from each table's hot region; a small
        // `cold_fraction` of lookups goes uniformly to the whole table and
        // stands in for the cold tail of the real click logs.
        let samplers: Vec<ZipfSampler> = layouts
            .iter()
            .map(|l| ZipfSampler::new(l.rows.min(cfg.hot_rows_per_table.max(1)), cfg.zipf_alpha))
            .collect();
        let mut rng = SimRng::new(seed);
        let mut epochs = Vec::with_capacity(cfg.epochs as usize);
        for _e in 0..cfg.epochs {
            let mut reqs = Vec::with_capacity(cfg.lookups_per_epoch() as usize);
            for _s in 0..cfg.batch_size {
                for (t, layout) in layouts.iter().enumerate() {
                    let row = if rng.gen_bool(cfg.cold_fraction) {
                        rng.gen_range(layout.rows)
                    } else {
                        samplers[t].sample(&mut rng)
                    };
                    reqs.push(layout.page_of(row));
                }
            }
            epochs.push(reqs);
        }
        DlrmTrace { epochs }
    }

    /// Number of epochs in the trace.
    pub fn epochs(&self) -> usize {
        self.epochs.len()
    }

    /// The page requests of epoch `e`.
    pub fn epoch_requests(&self, e: usize) -> &[(u32, Lba)] {
        &self.epochs[e]
    }

    /// Total page requests across all epochs.
    pub fn total_requests(&self) -> usize {
        self.epochs.iter().map(|e| e.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic_and_sized_correctly() {
        let cfg = DlrmConfig::tiny(32, 3);
        let layouts = cfg.layout(2);
        let a = DlrmTrace::generate(&cfg, &layouts, 7);
        let b = DlrmTrace::generate(&cfg, &layouts, 7);
        assert_eq!(a.epochs(), 3);
        assert_eq!(a.epoch_requests(0).len(), 32 * 8);
        assert_eq!(a.epoch_requests(1), b.epoch_requests(1));
        let c = DlrmTrace::generate(&cfg, &layouts, 8);
        assert_ne!(a.epoch_requests(0), c.epoch_requests(0));
    }

    #[test]
    fn requests_stay_within_table_ranges() {
        let cfg = DlrmConfig::tiny(64, 2);
        let layouts = cfg.layout(3);
        let trace = DlrmTrace::generate(&cfg, &layouts, 1);
        for e in 0..trace.epochs() {
            for (i, &(dev, lba)) in trace.epoch_requests(e).iter().enumerate() {
                let table = i % cfg.num_tables();
                let l = &layouts[table];
                assert_eq!(dev, l.dev);
                assert!(lba >= l.base_lba && lba < l.base_lba + l.pages());
            }
        }
    }

    #[test]
    fn zipf_trace_is_skewed() {
        let cfg = DlrmConfig::tiny(512, 2);
        let layouts = cfg.layout(1);
        let trace = DlrmTrace::generate(&cfg, &layouts, 3);
        // A strongly skewed trace revisits far fewer distinct pages than the
        // total number of requests.
        let total = trace.total_requests();
        let distinct = (0..trace.epochs())
            .flat_map(|e| trace.epoch_requests(e).iter().copied())
            .collect::<std::collections::HashSet<_>>()
            .len();
        assert!(distinct * 3 < total, "distinct {distinct} vs total {total}");
    }
}
