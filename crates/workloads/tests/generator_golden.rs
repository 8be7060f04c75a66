//! Bit-for-bit pins of the graph generators.
//!
//! Each case is fingerprinted with FNV-1a over `row_ptr`, over `col_idx` and
//! over the bit patterns of the edge values (`edge_values(v)` for `v` in
//! `0..V`), and compared with constants recorded from the original branchy,
//! float-comparing Kronecker generator and `% 97.0` edge weights. Any change to the RNG stream the generators
//! consume, to how a draw picks a quadrant, to the CSR fill order or to the
//! edge weights moves a fingerprint. `(16, 16, 0xA61E)` is the size of the
//! benchmark's `graph_bfs_kron` graph.
//!
//! CI runs it in release (the scale-16 graph has a million edges):
//! `cargo test --release -p agile-workloads --test generator_golden`.

use agile_workloads::graph::{generate_kronecker, generate_uniform, CsrGraph};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

const K10_4_3: [u64; 3] = [
    0xf698_c0e8_663d_8ee6,
    0x11d7_2eb1_70d2_0cde,
    0x20e5_2db1_ba39_ff28,
];
const K12_8_7: [u64; 3] = [
    0x7e91_edf6_54d4_5557,
    0x3c8e_a945_9bb9_e3bf,
    0xfbf9_3337_711c_e229,
];
const K16_16_A61E: [u64; 3] = [
    0xc101_b95f_b57a_8851,
    0xed60_83f1_b84c_e929,
    0xdc86_efae_4673_3d86,
];
const U1000_8_42: [u64; 3] = [
    0x0b52_22e2_041d_fb40,
    0x4f29_d0e0_58de_f7d2,
    0xfdfa_7dfb_97c6_10a2,
];

fn fnv1a(words: impl Iterator<Item = impl AsRef<[u8]>>) -> u64 {
    let mut h = FNV_OFFSET;
    for w in words {
        for &b in w.as_ref() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// `(row_ptr, col_idx, values)` fingerprints, each over little-endian words.
fn fingerprint(g: &CsrGraph) -> [u64; 3] {
    [
        fnv1a(g.row_ptr.iter().map(|v| v.to_le_bytes())),
        fnv1a(g.col_idx.iter().map(|v| v.to_le_bytes())),
        fnv1a(
            (0..g.num_vertices() as u32)
                .flat_map(|v| g.edge_values(v))
                .map(|w| w.to_bits().to_le_bytes()),
        ),
    ]
}

fn check(name: &str, g: &CsrGraph, want: [u64; 3]) {
    let got = fingerprint(g);
    let hex = |f: [u64; 3]| format!("[{:#018x}, {:#018x}, {:#018x}]", f[0], f[1], f[2]);
    assert_eq!(
        got,
        want,
        "{name}: [row_ptr, col_idx, values] fingerprints {} != pinned {}",
        hex(got),
        hex(want)
    );
}

#[test]
fn kronecker_10_4_3() {
    check(
        "kronecker(10, 4, 3)",
        &generate_kronecker(10, 4, 3),
        K10_4_3,
    );
}

#[test]
fn kronecker_12_8_7() {
    check(
        "kronecker(12, 8, 7)",
        &generate_kronecker(12, 8, 7),
        K12_8_7,
    );
}

#[test]
fn kronecker_16_16_benchmark_size() {
    check(
        "kronecker(16, 16, 0xA61E)",
        &generate_kronecker(16, 16, 0xA61E),
        K16_16_A61E,
    );
}

#[test]
fn uniform_1000_8_42() {
    check(
        "uniform(1000, 8, 42)",
        &generate_uniform(1000, 8, 42),
        U1000_8_42,
    );
}
