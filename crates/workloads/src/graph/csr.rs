//! Compressed sparse row graphs and their SSD page layout.
//!
//! The algorithmic data (offsets and neighbour indices) lives in host
//! memory — it is what the warp kernels traverse — while the *placement* of
//! the CSR arrays on the simulated SSD defines which pages each traversal
//! step must pull through the storage stack. This mirrors how the real system
//! works: the CSR arrays live on flash, and the kernels' access pattern over
//! them is what stresses the cache and queue APIs.
//!
//! Edge weights are computed, not stored: [`CsrGraph::edge_values`] derives
//! each from its `(src, dst)` pair, so a graph holds 4 bytes per edge plus its
//! row offsets. The value array still has its pages on the SSD
//! ([`CsrGraph::val_pages_of`]), so SpMV moves the same simulated traffic.

use agile_sim::units::SSD_PAGE_SIZE;
use nvme_sim::Lba;

/// Elements (u32 indices or f32 values) per 4 KiB page.
pub const ELEMS_PER_PAGE: u64 = SSD_PAGE_SIZE / 4;

/// Where a graph's arrays live on the SSD array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphLayout {
    /// Device holding the column-index array.
    pub col_dev: u32,
    /// First page of the column-index array.
    pub col_base: Lba,
    /// Device holding the edge-value array (SpMV only).
    pub val_dev: u32,
    /// First page of the edge-value array.
    pub val_base: Lba,
}

impl Default for GraphLayout {
    fn default() -> Self {
        GraphLayout {
            col_dev: 0,
            col_base: 0,
            val_dev: 0,
            val_base: 1 << 20,
        }
    }
}

/// Deterministic, non-trivial edge weight in `[0.5, 1.5)` for SpMV
/// verification: `((31·src + 17·dst) mod 97) / 97 + 0.5`, with the sum taken
/// in `f32`. Every `u32` converts to an integer-valued `f32`, and an `f32` at
/// or above 2²⁴ is an integer, so the rounded products and their sum are
/// non-negative integers below 2⁶⁴. Their `u64` remainder therefore equals
/// the exact `f32` remainder `% 97.0` bit for bit, without a `fmodf` call.
fn edge_weight(src: u32, dst: u32) -> f32 {
    ((src as f32 * 31.0 + dst as f32 * 17.0) as u64 % 97) as f32 / 97.0 + 0.5
}

/// A CSR graph whose single-precision edge values are computed on demand
/// ([`CsrGraph::edge_values`]) rather than stored.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    /// `row_ptr[v] .. row_ptr[v+1]` indexes `col_idx` for vertex `v`.
    pub row_ptr: Vec<u64>,
    /// Neighbour indices.
    pub col_idx: Vec<u32>,
    /// SSD placement.
    pub layout: GraphLayout,
}

impl CsrGraph {
    /// Build from an edge list (directed; duplicates allowed and preserved,
    /// each row in edge-list order).
    ///
    /// # Panics
    /// If an edge names a vertex `>= num_vertices`.
    pub fn from_edges(num_vertices: usize, edges: &[(u32, u32)], layout: GraphLayout) -> Self {
        // Degrees are counted two slots up, so the prefix sum leaves
        // `row_ptr[src + 1]` at the first slot of `src`'s row. The scatter
        // advances it to the row's end, which is `row_ptr[src + 1]` of the
        // finished offsets: no second array of cursors.
        let mut row_ptr = vec![0u64; num_vertices + 2];
        for (i, &(src, dst)) in edges.iter().enumerate() {
            assert!(
                (src.max(dst) as usize) < num_vertices,
                "edge {i} ({src} -> {dst}) names a vertex outside the graph's {num_vertices}"
            );
            row_ptr[src as usize + 2] += 1;
        }
        for v in 0..num_vertices {
            row_ptr[v + 2] += row_ptr[v + 1];
        }
        let mut col_idx = vec![0u32; edges.len()];
        for &(src, dst) in edges {
            let slot = &mut row_ptr[src as usize + 1];
            col_idx[*slot as usize] = dst;
            *slot += 1;
        }
        row_ptr.truncate(num_vertices + 1);
        CsrGraph {
            row_ptr,
            col_idx,
            layout,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of (directed) edges.
    pub fn num_edges(&self) -> usize {
        self.col_idx.len()
    }

    /// Neighbours of `v`.
    pub fn neighbours(&self, v: u32) -> &[u32] {
        let lo = self.row_ptr[v as usize] as usize;
        let hi = self.row_ptr[v as usize + 1] as usize;
        &self.col_idx[lo..hi]
    }

    /// Edge values of `v`'s adjacency list, in [`CsrGraph::neighbours`]
    /// order: `edge_weight(v, dst)` for each neighbour `dst`.
    pub fn edge_values(&self, v: u32) -> impl Iterator<Item = f32> + '_ {
        self.neighbours(v)
            .iter()
            .map(move |&dst| edge_weight(v, dst))
    }

    /// The column-index pages vertex `v`'s adjacency list spans.
    pub fn col_pages_of(&self, v: u32) -> Vec<(u32, Lba)> {
        let lo = self.row_ptr[v as usize];
        let hi = self.row_ptr[v as usize + 1];
        if lo == hi {
            return Vec::new();
        }
        let first = lo / ELEMS_PER_PAGE;
        let last = (hi - 1) / ELEMS_PER_PAGE;
        (first..=last)
            .map(|p| (self.layout.col_dev, self.layout.col_base + p))
            .collect()
    }

    /// The value pages vertex `v`'s adjacency list spans (SpMV).
    pub fn val_pages_of(&self, v: u32) -> Vec<(u32, Lba)> {
        let lo = self.row_ptr[v as usize];
        let hi = self.row_ptr[v as usize + 1];
        if lo == hi {
            return Vec::new();
        }
        let first = lo / ELEMS_PER_PAGE;
        let last = (hi - 1) / ELEMS_PER_PAGE;
        (first..=last)
            .map(|p| (self.layout.val_dev, self.layout.val_base + p))
            .collect()
    }

    /// Every page the whole graph occupies (for cache preloading and sizing).
    pub fn all_pages(&self, include_values: bool) -> Vec<(u32, Lba)> {
        let col_pages = (self.num_edges() as u64).div_ceil(ELEMS_PER_PAGE);
        let mut pages: Vec<(u32, Lba)> = (0..col_pages)
            .map(|p| (self.layout.col_dev, self.layout.col_base + p))
            .collect();
        if include_values {
            pages.extend((0..col_pages).map(|p| (self.layout.val_dev, self.layout.val_base + p)));
        }
        pages
    }

    /// Reference (host) BFS distances from `source` (u32::MAX = unreachable).
    pub fn reference_bfs(&self, source: u32) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.num_vertices()];
        let mut queue = std::collections::VecDeque::new();
        dist[source as usize] = 0;
        queue.push_back(source);
        while let Some(v) = queue.pop_front() {
            let d = dist[v as usize];
            for &n in self.neighbours(v) {
                if dist[n as usize] == u32::MAX {
                    dist[n as usize] = d + 1;
                    queue.push_back(n);
                }
            }
        }
        dist
    }

    /// Reference (host) SpMV: `y = A · x`.
    pub fn reference_spmv(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.num_vertices());
        (0..self.num_vertices() as u32)
            .map(|v| {
                self.neighbours(v)
                    .iter()
                    .zip(self.edge_values(v))
                    .map(|(&c, w)| w * x[c as usize])
                    .sum()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The weight as first written, with the `f32` remainder: the oracle.
    fn fmod_weight(src: u32, dst: u32) -> f32 {
        ((src as f32 * 31.0 + dst as f32 * 17.0) % 97.0) / 97.0 + 0.5
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        fn integer_remainder_weight_is_the_fmod_weight(src in any::<u32>(), dst in any::<u32>()) {
            prop_assert_eq!(edge_weight(src, dst).to_bits(), fmod_weight(src, dst).to_bits());
        }

        #[test]
        fn integer_remainder_weight_is_the_fmod_weight_on_small_ids(
            src in 0u32..1 << 26,
            dst in 0u32..1 << 26,
        ) {
            prop_assert_eq!(edge_weight(src, dst).to_bits(), fmod_weight(src, dst).to_bits());
        }
    }

    #[test]
    fn integer_remainder_weight_is_the_fmod_weight_at_the_edges() {
        let ids = [
            0,
            1,
            96,
            97,
            (1 << 24) - 1,
            1 << 24,
            (1 << 24) + 1,
            u32::MAX - 1,
            u32::MAX,
        ];
        for src in ids {
            for dst in ids {
                assert_eq!(
                    edge_weight(src, dst).to_bits(),
                    fmod_weight(src, dst).to_bits(),
                    "({src}, {dst})"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        /// Duplicates, empty rows and edges from the last vertex all occur:
        /// up to 300 edges over at most 40 vertices.
        #[test]
        fn from_edges_is_a_stable_sort_on_src(
            num_vertices in 1u32..41,
            raw in collection::vec((any::<u32>(), any::<u32>()), 0..301),
        ) {
            let edges: Vec<(u32, u32)> = raw
                .iter()
                .map(|&(s, d)| (s % num_vertices, d % num_vertices))
                .collect();
            let g = CsrGraph::from_edges(num_vertices as usize, &edges, GraphLayout::default());

            let mut sorted = edges.clone();
            sorted.sort_by_key(|&(src, _)| src);
            let col_idx: Vec<u32> = sorted.iter().map(|&(_, dst)| dst).collect();
            let row_ptr: Vec<u64> = (0..=num_vertices)
                .map(|v| sorted.partition_point(|&(src, _)| src < v) as u64)
                .collect();
            prop_assert_eq!(&g.col_idx, &col_idx);
            prop_assert_eq!(&g.row_ptr, &row_ptr);

            prop_assert_eq!(g.row_ptr[0], 0);
            prop_assert_eq!(g.row_ptr[num_vertices as usize], edges.len() as u64);
            prop_assert!(g.row_ptr.windows(2).all(|w| w[0] <= w[1]));
            for v in 0..num_vertices {
                let got: Vec<u32> = g.edge_values(v).map(f32::to_bits).collect();
                let want: Vec<u32> = g
                    .neighbours(v)
                    .iter()
                    .map(|&n| edge_weight(v, n).to_bits())
                    .collect();
                prop_assert_eq!(got, want);
            }
        }
    }

    #[test]
    #[should_panic(expected = "edge 1 (1 -> 4) names a vertex outside the graph's 4")]
    fn from_edges_refuses_a_destination_outside_the_graph() {
        CsrGraph::from_edges(4, &[(0, 1), (1, 4), (2, 3)], GraphLayout::default());
    }

    #[test]
    #[should_panic(expected = "edge 2 (4 -> 0) names a vertex outside the graph's 4")]
    fn from_edges_refuses_a_source_outside_the_graph() {
        CsrGraph::from_edges(4, &[(0, 1), (2, 3), (4, 0)], GraphLayout::default());
    }

    fn diamond() -> CsrGraph {
        // 0 → 1, 0 → 2, 1 → 3, 2 → 3
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)], GraphLayout::default())
    }

    #[test]
    fn csr_construction() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbours(0), &[1, 2]);
        assert_eq!(g.neighbours(1), &[3]);
        assert_eq!(g.neighbours(3), &[] as &[u32]);
    }

    #[test]
    fn page_mapping_spans_edges() {
        let g = diamond();
        let pages = g.col_pages_of(0);
        assert_eq!(pages, vec![(0, 0)]);
        assert!(g.col_pages_of(3).is_empty());
        // Value pages live in a separate region.
        assert_eq!(g.val_pages_of(0), vec![(0, g.layout.val_base)]);
        assert_eq!(g.all_pages(true).len(), 2);
    }

    #[test]
    fn page_mapping_crosses_page_boundaries() {
        // One vertex with more neighbours than fit in a page.
        let n = (ELEMS_PER_PAGE + 10) as u32;
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (0u32, (i % 100) + 1)).collect();
        let g = CsrGraph::from_edges(200, &edges, GraphLayout::default());
        let pages = g.col_pages_of(0);
        assert_eq!(pages.len(), 2);
        assert_eq!(pages[0].1 + 1, pages[1].1);
    }

    #[test]
    fn reference_bfs_distances() {
        let g = diamond();
        let d = g.reference_bfs(0);
        assert_eq!(d, vec![0, 1, 1, 2]);
        let d3 = g.reference_bfs(3);
        assert_eq!(d3, vec![u32::MAX, u32::MAX, u32::MAX, 0]);
    }

    #[test]
    fn reference_spmv_matches_manual() {
        let g = diamond();
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y = g.reference_spmv(&x);
        let w: Vec<f32> = g.edge_values(0).collect();
        let (w01, w02) = (w[0], w[1]);
        assert!((y[0] - (w01 * 2.0 + w02 * 3.0)).abs() < 1e-6);
        assert_eq!(y[3], 0.0);
    }
}
