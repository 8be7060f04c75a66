//! Graph generators: uniform random and Kronecker (R-MAT), following the
//! GAP benchmark suite's generators (§4.5: "We use GAP Benchmark Suite to
//! generate the uniform random graphs and Kronecker graphs").

use super::csr::{CsrGraph, GraphLayout};
use agile_sim::SimRng;

/// Uniform (Erdős–Rényi-style) random graph: `num_vertices` vertices, each
/// with `avg_degree` out-edges to uniformly random destinations.
pub fn generate_uniform(num_vertices: usize, avg_degree: usize, seed: u64) -> CsrGraph {
    let mut rng = SimRng::new(seed);
    let mut edges = Vec::with_capacity(num_vertices * avg_degree);
    for src in 0..num_vertices as u32 {
        for _ in 0..avg_degree {
            let dst = rng.gen_range(num_vertices as u64) as u32;
            edges.push((src, dst));
        }
    }
    CsrGraph::from_edges(num_vertices, &edges, GraphLayout::default())
}

/// GAP's R-MAT quadrant probabilities: a draw below `A` picks the top-left
/// quadrant, below `A + B` the top-right, below `A + B + C` the bottom-left,
/// and the rest the bottom-right.
const A: f64 = 0.57;
const B: f64 = 0.19;
const C: f64 = 0.19;

/// `t · 2⁵³` for a threshold `t ∈ [0.5, 1)`. `SimRng::gen_f64` is exactly
/// `k · 2⁻⁵³` with `k = next_u64() >> 11`, and such a `t` has a 53-bit
/// mantissa under the exponent −1, so `t · 2⁵³` is an integer and
/// `gen_f64() < t ⇔ k < t · 2⁵³`.
const fn draw_threshold(t: f64) -> u64 {
    assert!(0.5 <= t && t < 1.0);
    (t * (1u64 << 53) as f64) as u64
}

const T_A: u64 = draw_threshold(A);
const T_AB: u64 = draw_threshold(A + B);
const T_ABC: u64 = draw_threshold(A + B + C);

/// Kronecker / R-MAT graph with the GAP parameters (A=0.57, B=0.19, C=0.19):
/// `2^scale` vertices and `edge_factor × 2^scale` edges, giving the skewed
/// degree distribution the paper's "-K" graphs have.
///
/// Each edge takes one draw per bit, most significant first. The quadrant
/// test compares the draw's 53 mantissa bits with the integer thresholds
/// `T_A`, `T_AB`, `T_ABC` rather than the float with `A`, `A + B`,
/// `A + B + C` — the same decision for every draw (see `draw_threshold`),
/// so the graph is bit-identical to the float comparison's — and turns it
/// into the two coordinate bits without a branch. The number of thresholds
/// `k` reaches is the quadrant index `2·sbit + dbit`: `sbit = k ≥ T_AB` is
/// its high bit, and its low bit `dbit = (T_A ≤ k < T_AB) | (k ≥ T_ABC)` is
/// the parity of the three comparisons.
///
/// Cost, scale 16 and edge factor 16 on a 2-core Intel Xeon (release): about
/// 38 ns per edge to draw, of which the 16 `next_u64` calls take about 21,
/// and 55–80 ns per edge with the CSR build, the first touch of the fresh
/// edge list and CSR arrays included.
///
/// # Panics
/// If `scale > 31` (vertex ids, and callers' vertex counts, are `u32`) or
/// `edge_factor × 2^scale` overflows `usize`.
pub fn generate_kronecker(scale: u32, edge_factor: usize, seed: u64) -> CsrGraph {
    assert!(
        scale <= 31,
        "Kronecker scale {scale} exceeds 31: the 2^scale vertices are counted and named in u32"
    );
    let num_vertices = 1usize << scale;
    let num_edges = num_vertices.checked_mul(edge_factor).unwrap_or_else(|| {
        panic!("Kronecker edge count edge_factor {edge_factor} × 2^{scale} overflows usize")
    });
    let mut rng = SimRng::new(seed);
    let mut edges = Vec::with_capacity(num_edges);
    for _ in 0..num_edges {
        let mut src = 0u32;
        let mut dst = 0u32;
        for bit in (0..scale).rev() {
            let k = rng.next_u64() >> 11;
            let sbit = k >= T_AB;
            let dbit = (k >= T_A) ^ sbit ^ (k >= T_ABC);
            src |= (sbit as u32) << bit;
            dst |= (dbit as u32) << bit;
        }
        edges.push((src, dst));
    }
    CsrGraph::from_edges(num_vertices, &edges, GraphLayout::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_graph_has_expected_shape() {
        let g = generate_uniform(1000, 8, 42);
        assert_eq!(g.num_vertices(), 1000);
        assert_eq!(g.num_edges(), 8000);
        // Degrees are fixed per source in this generator.
        for v in 0..1000u32 {
            assert_eq!(g.neighbours(v).len(), 8);
        }
    }

    #[test]
    fn kronecker_graph_is_skewed() {
        let g = generate_kronecker(12, 8, 7);
        assert_eq!(g.num_vertices(), 4096);
        assert_eq!(g.num_edges(), 4096 * 8);
        let mut degrees: Vec<usize> = (0..g.num_vertices() as u32)
            .map(|v| g.neighbours(v).len())
            .collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        // The hottest vertex should have far more than the average degree,
        // and a large fraction of vertices should have no out-edges at all —
        // the hallmark of the R-MAT distribution.
        assert!(degrees[0] > 8 * 8, "max degree {} too small", degrees[0]);
        let isolated = degrees.iter().filter(|&&d| d == 0).count();
        assert!(isolated > g.num_vertices() / 10);
    }

    /// `k < T` must decide exactly as `gen_f64() < t` did, for each
    /// threshold: at `T − 1`, `T`, `T + 1`, and at 10⁵ draws taken both ways
    /// from twin streams.
    #[test]
    fn integer_thresholds_decide_as_the_float_comparison() {
        let to_f64 = |k: u64| k as f64 * (1.0 / (1u64 << 53) as f64);
        for (t, tk) in [(A, T_A), (A + B, T_AB), (A + B + C, T_ABC)] {
            for k in [tk - 1, tk, tk + 1] {
                assert_eq!(k < tk, to_f64(k) < t, "t {t}, k {k}");
            }
            assert!(to_f64(tk - 1) < t && to_f64(tk) == t);
            let (mut ints, mut floats) = (SimRng::new(tk), SimRng::new(tk));
            for _ in 0..100_000 {
                let k = ints.next_u64() >> 11;
                assert_eq!(k < tk, floats.gen_f64() < t, "t {t}, k {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "Kronecker scale 32 exceeds 31")]
    fn kronecker_refuses_a_scale_past_u32_vertex_ids() {
        generate_kronecker(32, 1, 0);
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn kronecker_refuses_an_edge_count_past_usize() {
        generate_kronecker(31, usize::MAX >> 30, 0);
    }

    #[test]
    fn generators_are_deterministic() {
        let a = generate_uniform(500, 4, 3);
        let b = generate_uniform(500, 4, 3);
        assert_eq!(a.col_idx, b.col_idx);
        let k1 = generate_kronecker(10, 4, 3);
        let k2 = generate_kronecker(10, 4, 3);
        assert_eq!(k1.col_idx, k2.col_idx);
        let k3 = generate_kronecker(10, 4, 4);
        assert_ne!(k1.col_idx, k3.col_idx);
    }
}
