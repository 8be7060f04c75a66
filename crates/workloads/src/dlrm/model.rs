//! DLRM model configurations and the compute-time model.
//!
//! The paper adopts the Facebook DLRM architecture [Naumov et al. '19] and
//! evaluates three variants (§4.4):
//!
//! * **Config-1** — bottom MLP of three 512×512 layers, top MLP of three
//!   1024×1024 layers (plus projection/activation layers);
//! * **Config-2** — one matrix multiplication in each MLP (less compute);
//! * **Config-3** — the Config-1 multiplications repeated six times (more
//!   compute).
//!
//! The embedding side follows the Criteo click-logs structure: 26 categorical
//! features, each with its own embedding table. The paper builds its
//! vocabulary from the first three days of the 1 TB dataset; we substitute
//! synthetic tables whose sizes put the aggregate footprint well above the
//! 2 GiB software cache, so the cache and prefetch behaviour is exercised the
//! same way.

use agile_sim::costs::CostModel;
use agile_sim::units::SSD_PAGE_SIZE;
use agile_sim::Cycles;
use nvme_sim::Lba;

/// Number of categorical features (tables) in the Criteo dataset.
pub const CRITEO_NUM_TABLES: usize = 26;

/// One embedding table's placement on the SSD array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmbeddingLayout {
    /// Which SSD holds the table.
    pub dev: u32,
    /// First page of the table on that SSD.
    pub base_lba: Lba,
    /// Number of rows (vocabulary size).
    pub rows: u64,
    /// Embedding dimension (f32 elements per row).
    pub dim: u32,
}

impl EmbeddingLayout {
    /// Rows that fit in one 4 KiB page.
    pub fn rows_per_page(&self) -> u64 {
        (SSD_PAGE_SIZE / (self.dim as u64 * 4)).max(1)
    }

    /// Number of pages the table occupies.
    pub fn pages(&self) -> u64 {
        self.rows.div_ceil(self.rows_per_page())
    }

    /// The `(device, LBA)` holding `row`.
    pub fn page_of(&self, row: u64) -> (u32, Lba) {
        debug_assert!(row < self.rows);
        (self.dev, self.base_lba + row / self.rows_per_page())
    }
}

/// A DLRM model variant.
#[derive(Debug, Clone)]
pub struct DlrmConfig {
    /// Configuration name ("config-1", …).
    pub name: String,
    /// Bottom-MLP layer sizes (square GEMMs of this width, applied per batch).
    pub bottom_mlp: Vec<u64>,
    /// Top-MLP layer sizes.
    pub top_mlp: Vec<u64>,
    /// Embedding dimension.
    pub embedding_dim: u32,
    /// Rows of each of the 26 tables.
    pub table_rows: Vec<u64>,
    /// Inference batch size.
    pub batch_size: u64,
    /// Number of inference epochs to run.
    pub epochs: u32,
    /// Zipf skew of the categorical accesses within the hot region.
    pub zipf_alpha: f64,
    /// Rows per table that form the frequently reused "hot" region the Zipf
    /// head is drawn from (the remainder of the table is the cold tail).
    pub hot_rows_per_table: u64,
    /// Fraction of lookups drawn uniformly from the whole table (the cold
    /// tail that misses even a steady-state cache).
    pub cold_fraction: f64,
}

impl DlrmConfig {
    fn criteo_like_tables() -> Vec<u64> {
        // 26 tables: a handful of very large vocabularies and many small
        // ones, echoing the Criteo distribution after the paper's
        // first-three-days vocabulary construction. Aggregate footprint at
        // dim=64 (256 B/row): ≈ 3.4 GiB, i.e. comfortably larger than the
        // 2 GiB software cache so the tail of the (Zipf-skewed) accesses
        // still misses, while the hot head fits.
        let mut rows = Vec::with_capacity(CRITEO_NUM_TABLES);
        for i in 0..CRITEO_NUM_TABLES {
            rows.push(match i {
                0..=5 => 2_000_000,
                6..=11 => 300_000,
                _ => 50_000,
            });
        }
        rows
    }

    /// Config-1: 3×512 bottom MLP, 3×1024 top MLP (§4.4).
    pub fn config1(batch_size: u64, epochs: u32) -> Self {
        DlrmConfig {
            name: "config-1".to_string(),
            bottom_mlp: vec![512, 512, 512],
            top_mlp: vec![1024, 1024, 1024],
            embedding_dim: 64,
            table_rows: Self::criteo_like_tables(),
            batch_size,
            epochs,
            zipf_alpha: 1.2,
            hot_rows_per_table: 100_000,
            cold_fraction: 0.02,
        }
    }

    /// Config-2: a single matrix multiplication per MLP (compute-light).
    pub fn config2(batch_size: u64, epochs: u32) -> Self {
        DlrmConfig {
            name: "config-2".to_string(),
            bottom_mlp: vec![512],
            top_mlp: vec![1024],
            ..Self::config1(batch_size, epochs)
        }
    }

    /// Config-3: the Config-1 multiplications repeated six times
    /// (compute-heavy).
    pub fn config3(batch_size: u64, epochs: u32) -> Self {
        let mut bottom = Vec::new();
        let mut top = Vec::new();
        for _ in 0..6 {
            bottom.extend_from_slice(&[512, 512, 512]);
            top.extend_from_slice(&[1024, 1024, 1024]);
        }
        DlrmConfig {
            name: "config-3".to_string(),
            bottom_mlp: bottom,
            top_mlp: top,
            ..Self::config1(batch_size, epochs)
        }
    }

    /// A small configuration for unit/integration tests.
    pub fn tiny(batch_size: u64, epochs: u32) -> Self {
        DlrmConfig {
            name: "tiny".to_string(),
            bottom_mlp: vec![64],
            top_mlp: vec![128],
            embedding_dim: 64,
            table_rows: vec![5_000; 8],
            batch_size,
            epochs,
            zipf_alpha: 1.05,
            hot_rows_per_table: 2_000,
            cold_fraction: 0.05,
        }
    }

    /// Number of embedding tables.
    pub fn num_tables(&self) -> usize {
        self.table_rows.len()
    }

    /// Embedding lookups per epoch.
    pub fn lookups_per_epoch(&self) -> u64 {
        self.batch_size * self.num_tables() as u64
    }

    /// GPU cycles of MLP compute per epoch under the given cost model.
    ///
    /// Each layer is a `batch × width × width` GEMM; the interaction layer
    /// and activations are folded into a 10 % overhead, matching the paper's
    /// description of "projection layers … and activation layers" around the
    /// main multiplications.
    pub fn compute_cycles_per_epoch(&self, costs: &CostModel) -> Cycles {
        let mut total = 0u64;
        for &w in self.bottom_mlp.iter().chain(self.top_mlp.iter()) {
            total += costs.gemm_cycles(self.batch_size, w, w).raw();
        }
        Cycles((total as f64 * 1.10) as u64)
    }

    /// Lay the tables out across `ssd_count` SSDs (round-robin, contiguous
    /// pages per table).
    pub fn layout(&self, ssd_count: usize) -> Vec<EmbeddingLayout> {
        assert!(ssd_count >= 1);
        let mut next_lba = vec![0u64; ssd_count];
        self.table_rows
            .iter()
            .enumerate()
            .map(|(i, &rows)| {
                let dev = i % ssd_count;
                let layout = EmbeddingLayout {
                    dev: dev as u32,
                    base_lba: next_lba[dev],
                    rows,
                    dim: self.embedding_dim,
                };
                next_lba[dev] += layout.pages();
                layout
            })
            .collect()
    }

    /// Pages each SSD must provide for this model.
    pub fn pages_needed_per_ssd(&self, ssd_count: usize) -> u64 {
        let layouts = self.layout(ssd_count);
        (0..ssd_count as u32)
            .map(|d| {
                layouts
                    .iter()
                    .filter(|l| l.dev == d)
                    .map(|l| l.base_lba + l.pages())
                    .max()
                    .unwrap_or(0)
            })
            .max()
            .unwrap_or(0)
            + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_contiguous_and_disjoint() {
        let cfg = DlrmConfig::config1(2048, 10);
        let layouts = cfg.layout(2);
        assert_eq!(layouts.len(), 26);
        // Tables on the same device must not overlap.
        for d in 0..2u32 {
            let mut ranges: Vec<(u64, u64)> = layouts
                .iter()
                .filter(|l| l.dev == d)
                .map(|l| (l.base_lba, l.base_lba + l.pages()))
                .collect();
            ranges.sort_unstable();
            for w in ranges.windows(2) {
                assert!(w[0].1 <= w[1].0, "tables overlap: {w:?}");
            }
        }
    }

    #[test]
    fn page_of_maps_rows_into_table_range() {
        let l = EmbeddingLayout {
            dev: 1,
            base_lba: 100,
            rows: 1000,
            dim: 64,
        };
        assert_eq!(l.rows_per_page(), 16);
        assert_eq!(l.pages(), 63);
        assert_eq!(l.page_of(0), (1, 100));
        assert_eq!(l.page_of(15), (1, 100));
        assert_eq!(l.page_of(16), (1, 101));
        assert_eq!(l.page_of(999), (1, 100 + 999 / 16));
    }

    #[test]
    fn config_compute_ordering_matches_intent() {
        let costs = CostModel::default();
        let c1 = DlrmConfig::config1(2048, 1).compute_cycles_per_epoch(&costs);
        let c2 = DlrmConfig::config2(2048, 1).compute_cycles_per_epoch(&costs);
        let c3 = DlrmConfig::config3(2048, 1).compute_cycles_per_epoch(&costs);
        assert!(c2 < c1, "config-2 is compute-light");
        assert!(c3 > c1, "config-3 is compute-heavy");
        // Config-3 repeats Config-1's layers six times.
        let ratio = c3.raw() as f64 / c1.raw() as f64;
        assert!(ratio > 4.0 && ratio < 8.0, "ratio {ratio}");
    }

    #[test]
    fn embedding_footprint_exceeds_default_cache() {
        let cfg = DlrmConfig::config1(2048, 1);
        let embedding_bytes = cfg.table_rows.iter().sum::<u64>() * cfg.embedding_dim as u64 * 4;
        assert!(embedding_bytes > 2 * agile_sim::units::GIB);
        assert_eq!(cfg.lookups_per_epoch(), 2048 * 26);
    }

    #[test]
    fn compute_scales_with_batch() {
        let costs = CostModel::default();
        let small = DlrmConfig::config1(16, 1).compute_cycles_per_epoch(&costs);
        let big = DlrmConfig::config1(2048, 1).compute_cycles_per_epoch(&costs);
        assert!(big > small * 16, "GEMM work grows with batch size");
    }
}
