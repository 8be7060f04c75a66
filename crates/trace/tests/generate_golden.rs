//! Bit-for-bit pins of the synthetic trace generator.
//!
//! Each case is fingerprinted with FNV-1a over [`Trace::to_bytes`] (header,
//! metadata and every op record) and compared with a constant recorded from
//! the original generator, which expanded every tenant into one timeline and
//! stable-sorted it by `(time, tenant id)`. Any change to the draws a tenant
//! makes, to their order, to the merge order of the tenants or to the gaps
//! moves a fingerprint.
//!
//! The cases are the four benchmark replay specs at full size (at the
//! benchmark's default seed), the remaining constructors, and a tie-heavy
//! spec whose three tenants all issue at time 0, so its order rests only on
//! tenant id and each tenant's own order. `golden_traces.rs` covers neither
//! phase shifts nor cross-tenant ties.
//!
//! CI runs it in release: `cargo test --release -p agile-trace --test generate_golden`.

use agile_trace::{AddressPattern, TenantSpec, TraceSpec};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The benchmark's default seed.
const SEED: u64 = 42_526;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(FNV_OFFSET, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

fn check(spec: TraceSpec, want: u64) {
    let got = fnv1a(&spec.generate().to_bytes());
    assert_eq!(
        got, want,
        "{}: trace fingerprint {got:#018x} != pinned {want:#018x}",
        spec.name
    );
}

#[test]
fn raw_large_multi_tenant() {
    check(
        TraceSpec::multi_tenant("raw-large", SEED, 4, 1 << 16, 131_072),
        0x82bc_4eec_34fe_6343,
    );
}

#[test]
fn cached_zipf() {
    check(
        TraceSpec::zipfian("cached-zipf", SEED, 2, 1 << 16, 32_768, 0.99),
        0x0569_60fa_fa3e_89f2,
    );
}

#[test]
fn cached_writemix() {
    check(
        TraceSpec {
            name: "cached-writemix".to_string(),
            seed: SEED,
            devices: 2,
            lba_space: 1 << 14,
            tenants: vec![TenantSpec::new(16_384, AddressPattern::Uniform, 0.5, 200)],
        },
        0xbb8b_22ba_0af8_fd00,
    );
}

#[test]
fn fullstack_shifting_mix() {
    check(
        TraceSpec::shifting_mix("fullstack-shift", SEED, 1, 1 << 13, 98_304, 8),
        0xc54e_7945_18bb_56b3,
    );
}

#[test]
fn bursty() {
    check(
        TraceSpec::bursty("bursty", 5, 2, 1 << 12, 10_000, 32, 100_000),
        0x8bfb_7785_4d96_e071,
    );
}

#[test]
fn noisy_neighbor() {
    check(
        TraceSpec::noisy_neighbor("noisy", 11, 2, 1 << 14, 10_000),
        0xc1aa_ef8e_7099_2884,
    );
}

#[test]
fn cached_noisy_neighbor() {
    check(
        TraceSpec::cached_noisy_neighbor("cached-noisy", 13, 2, 1 << 14, 10_000),
        0xb680_85a8_57d7_c6e6,
    );
}

/// Three tenants with no think time: every op is at time 0, so the trace
/// is tenant 0's stream, then tenant 1's, then tenant 2's.
#[test]
fn ties_at_time_zero() {
    let spec = TraceSpec {
        name: "ties".to_string(),
        seed: 77,
        devices: 3,
        lba_space: 1 << 12,
        tenants: vec![
            TenantSpec::new(3_000, AddressPattern::Zipf { theta: 0.9 }, 0.1, 0),
            TenantSpec::new(2_000, AddressPattern::Uniform, 0.5, 0),
            TenantSpec::new(1_000, AddressPattern::Sequential { start: 4_000 }, 0.0, 0)
                .with_phases(100, AddressPattern::Uniform),
        ],
    };
    let trace = spec.generate();
    assert!(trace.ops.iter().all(|op| op.gap == 0));
    let tenants: Vec<u32> = trace.ops.iter().map(|op| op.tenant).collect();
    let mut sorted = tenants.clone();
    sorted.sort_unstable();
    assert_eq!(tenants, sorted, "ties must be broken by tenant id");
    check(spec, 0x3901_744b_4ccf_7064);
}
