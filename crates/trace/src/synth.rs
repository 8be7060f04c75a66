//! Deterministic synthetic trace generation.
//!
//! A [`TraceSpec`] describes a workload as a set of tenants, each with its
//! own address distribution, read/write mix, pacing, and optional on/off
//! burst profile. [`TraceSpec::generate`] expands every tenant into a
//! virtual-time-stamped request stream (each driven by an independent fork of
//! `agile-sim`'s seeded RNG) and merges the streams into one ordered
//! [`Trace`]. The same spec and seed always produce the byte-identical
//! trace, which is what makes replay runs comparable across systems and
//! sessions.

use crate::format::{Trace, TraceMeta, TraceOp};
use agile_sim::{SimRng, ZipfSampler};

/// How a tenant picks page addresses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AddressPattern {
    /// Uniform over the LBA space.
    Uniform,
    /// Zipf-distributed popularity with exponent `theta` (rank 0 hottest);
    /// ranks are scattered over the LBA space by a fixed bijective hash so
    /// hot pages are not physically clustered.
    Zipf {
        /// Skew exponent (`0.99` ≈ classic YCSB hot-set).
        theta: f64,
    },
    /// Sequential scan starting at `start`, wrapping at the LBA space.
    Sequential {
        /// First page of the scan.
        start: u64,
    },
}

/// On/off burst shaping for a tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstProfile {
    /// Requests issued back-to-back per burst.
    pub on_ops: u32,
    /// Idle cycles inserted between bursts.
    pub idle_cycles: u32,
}

/// Periodic pattern shifting for a tenant: the tenant alternates between its
/// base [`TenantSpec::pattern`] (even phases) and `alternate` (odd phases)
/// every `period_ops` of its requests. This is how [`TraceSpec::shifting_mix`]
/// models a workload whose cache behaviour changes mid-run — e.g. a
/// thrash-heavy uniform flood giving way to a cache-friendly hot-set scan —
/// which no single static prefetch depth serves well.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseShift {
    /// Requests per phase before the pattern toggles (clamped to ≥ 1).
    pub period_ops: u64,
    /// The pattern of odd-numbered phases.
    pub alternate: AddressPattern,
}

/// One tenant of a (possibly multi-tenant) synthetic workload.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Requests this tenant issues.
    pub ops: u64,
    /// Fraction of requests that are writes (`0.0..=1.0`).
    pub write_fraction: f64,
    /// Address distribution.
    pub pattern: AddressPattern,
    /// Mean think-time cycles between this tenant's requests (within a
    /// burst, when a burst profile is set).
    pub mean_gap: u32,
    /// Optional on/off burst shaping.
    pub burst: Option<BurstProfile>,
    /// Optional periodic pattern shifting (see [`PhaseShift`]).
    pub phase: Option<PhaseShift>,
    /// QoS weight of this tenant (relative SQ-admission share under a
    /// weighted-fair scheduler; 1 = baseline). Carried on the spec only —
    /// the trace wire format is weight-agnostic, so existing golden binaries
    /// are unaffected. [`TraceSpec::weights`] collects these for
    /// `WeightedFair::from_weights`.
    pub weight: u64,
}

impl TenantSpec {
    /// A steady tenant with the given pattern and mix (QoS weight 1).
    pub fn new(ops: u64, pattern: AddressPattern, write_fraction: f64, mean_gap: u32) -> Self {
        TenantSpec {
            ops,
            write_fraction,
            pattern,
            mean_gap,
            burst: None,
            phase: None,
            weight: 1,
        }
    }

    /// Add an on/off burst profile.
    pub fn with_burst(mut self, on_ops: u32, idle_cycles: u32) -> Self {
        self.burst = Some(BurstProfile {
            on_ops: on_ops.max(1),
            idle_cycles,
        });
        self
    }

    /// Set the tenant's QoS weight (clamped to ≥ 1).
    pub fn with_weight(mut self, weight: u64) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Alternate between the base pattern and `alternate` every
    /// `period_ops` requests (see [`PhaseShift`]).
    pub fn with_phases(mut self, period_ops: u64, alternate: AddressPattern) -> Self {
        self.phase = Some(PhaseShift {
            period_ops: period_ops.max(1),
            alternate,
        });
        self
    }
}

/// A full synthetic workload description.
#[derive(Debug, Clone)]
pub struct TraceSpec {
    /// Trace name recorded into the metadata.
    pub name: String,
    /// Master RNG seed; every tenant derives an independent stream from it.
    pub seed: u64,
    /// Number of target devices (requests are spread uniformly).
    pub devices: u32,
    /// Pages per device the addresses are drawn from.
    pub lba_space: u64,
    /// The tenants.
    pub tenants: Vec<TenantSpec>,
}

/// Fibonacci-hash scatter: bijective over `u64`, used to spread Zipf ranks
/// and sequential offsets across the LBA space deterministically.
fn scatter(x: u64, space: u64) -> u64 {
    (x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (x >> 31)) % space.max(1)
}

impl TraceSpec {
    /// A single uniform-random tenant (the classic 4 KiB random I/O floor).
    pub fn uniform(name: &str, seed: u64, devices: u32, lba_space: u64, ops: u64) -> Self {
        TraceSpec {
            name: name.to_string(),
            seed,
            devices,
            lba_space,
            tenants: vec![TenantSpec::new(ops, AddressPattern::Uniform, 0.0, 200)],
        }
    }

    /// A single Zipf(θ) read-only tenant (hot-set skew).
    pub fn zipfian(
        name: &str,
        seed: u64,
        devices: u32,
        lba_space: u64,
        ops: u64,
        theta: f64,
    ) -> Self {
        TraceSpec {
            name: name.to_string(),
            seed,
            devices,
            lba_space,
            tenants: vec![TenantSpec::new(
                ops,
                AddressPattern::Zipf { theta },
                0.0,
                200,
            )],
        }
    }

    /// A single bursty mixed read/write tenant.
    pub fn bursty(
        name: &str,
        seed: u64,
        devices: u32,
        lba_space: u64,
        ops: u64,
        on_ops: u32,
        idle_cycles: u32,
    ) -> Self {
        TraceSpec {
            name: name.to_string(),
            seed,
            devices,
            lba_space,
            tenants: vec![TenantSpec::new(ops, AddressPattern::Uniform, 0.3, 50)
                .with_burst(on_ops, idle_cycles)],
        }
    }

    /// The canonical multi-tenant mixture: a Zipf hot-set reader, a uniform
    /// mixed reader/writer, and a bursty write-heavy tenant, splitting
    /// `total_ops` 50/30/20.
    pub fn multi_tenant(
        name: &str,
        seed: u64,
        devices: u32,
        lba_space: u64,
        total_ops: u64,
    ) -> Self {
        let hot = total_ops / 2;
        let mixed = total_ops * 3 / 10;
        let bursty = total_ops - hot - mixed;
        TraceSpec {
            name: name.to_string(),
            seed,
            devices,
            lba_space,
            tenants: vec![
                TenantSpec::new(hot, AddressPattern::Zipf { theta: 0.99 }, 0.0, 150),
                TenantSpec::new(mixed, AddressPattern::Uniform, 0.2, 250),
                TenantSpec::new(bursty, AddressPattern::Uniform, 0.8, 40).with_burst(64, 40_000),
            ],
        }
    }

    /// The noisy-neighbour mixture the QoS scheduler is evaluated on: two
    /// uniform tenants sharing the SQs 9:1 — tenant 0 ("noisy") issues 90 %
    /// of the ops back-to-back, tenant 1 ("victim") issues the remaining
    /// 10 % at a ~10× lower rate, so the two streams overlap for the whole
    /// run. Both carry QoS weight 1: under weighted-fair scheduling the
    /// victim is entitled to an *equal* admission share whenever it is
    /// active, which is exactly what FIFO denies it.
    pub fn noisy_neighbor(
        name: &str,
        seed: u64,
        devices: u32,
        lba_space: u64,
        total_ops: u64,
    ) -> Self {
        let noisy = total_ops * 9 / 10;
        let victim = total_ops - noisy;
        TraceSpec {
            name: name.to_string(),
            seed,
            devices,
            lba_space,
            tenants: vec![
                TenantSpec::new(noisy, AddressPattern::Uniform, 0.0, 20),
                TenantSpec::new(victim, AddressPattern::Uniform, 0.0, 200),
            ],
        }
    }

    /// The cached-path noisy-neighbour mixture: tenant 0 ("noisy") streams
    /// uniform reads over the whole LBA space back-to-back — a
    /// cache-polluting flood with no reuse — while tenant 1 ("victim")
    /// re-reads a Zipf(1.1) hot set at a ~10× lower rate. Under a
    /// tenant-oblivious eviction policy the flood keeps evicting the
    /// victim's hot lines (its hit-rate collapses); a share-bounding policy
    /// (`TenantShare`) preferentially reclaims the flood's over-quota lines
    /// and the hot set stays resident. The cached-path twin of
    /// [`TraceSpec::noisy_neighbor`].
    pub fn cached_noisy_neighbor(
        name: &str,
        seed: u64,
        devices: u32,
        lba_space: u64,
        total_ops: u64,
    ) -> Self {
        let noisy = total_ops * 9 / 10;
        let victim = total_ops - noisy;
        TraceSpec {
            name: name.to_string(),
            seed,
            devices,
            lba_space,
            tenants: vec![
                TenantSpec::new(noisy, AddressPattern::Uniform, 0.0, 20),
                TenantSpec::new(victim, AddressPattern::Zipf { theta: 1.1 }, 0.0, 200),
            ],
        }
    }

    /// The shifting-mix workload the closed-loop control plane is evaluated
    /// on: tenant 0 ("mix", 3/4 of the ops) alternates every
    /// `total_ops × 3/4 / phases` of its requests between a thrash-heavy
    /// uniform flood over the whole LBA space — where speculative prefetch
    /// only steals lines from demand fills — and a cache-friendly Zipf(1.2)
    /// hot set, where lookahead prefetch overlaps fills with consumption.
    /// Tenant 1 ("victim", 1/4 of the ops) steadily re-reads a Zipf(1.1) hot
    /// set at a matched pace so it overlaps every phase; it is the tenant an
    /// SLO is declared on. No single static prefetch depth serves both of
    /// tenant 0's phases — the adaptive controller's reason to exist.
    pub fn shifting_mix(
        name: &str,
        seed: u64,
        devices: u32,
        lba_space: u64,
        total_ops: u64,
        phases: u32,
    ) -> Self {
        let mix = total_ops * 3 / 4;
        let victim = total_ops - mix;
        let period = (mix / phases.max(1) as u64).max(1);
        TraceSpec {
            name: name.to_string(),
            seed,
            devices,
            lba_space,
            tenants: vec![
                TenantSpec::new(mix, AddressPattern::Uniform, 0.0, 20)
                    .with_phases(period, AddressPattern::Zipf { theta: 1.2 }),
                TenantSpec::new(victim, AddressPattern::Zipf { theta: 1.1 }, 0.0, 60),
            ],
        }
    }

    /// The tenants' QoS weights, indexed by tenant id (the shape
    /// `WeightedFair::from_weights` takes).
    pub fn weights(&self) -> Vec<u64> {
        self.tenants.iter().map(|t| t.weight).collect()
    }

    /// Expand the spec into a replayable [`Trace`]. Deterministic: the same
    /// spec and seed always produce the identical trace.
    ///
    /// Each tenant is a stream of `(virtual time, op)` pairs drawn from its
    /// own fork of the seeded RNG, in nondecreasing time. The streams are
    /// merged by repeatedly taking the head with the smallest
    /// `(time, tenant id)`: the trace is in time order, same-time ops of
    /// different tenants go in tenant-id order, and a tenant's ops keep its
    /// own order. Each op's `gap` is the time since the op before it. The
    /// merge writes straight into the finished op vector, so generation holds
    /// nothing per op beyond the trace itself.
    pub fn generate(&self) -> Trace {
        assert!(self.devices >= 1, "trace needs at least one device");
        assert!(self.lba_space >= 1, "trace needs a non-empty LBA space");
        let root = SimRng::new(self.seed);
        let mut streams: Vec<_> = (0..self.tenants.len() as u32)
            .map(|tid| TenantStream::new(self, &root, tid).peekable())
            .collect();
        let total: u64 = self.tenants.iter().map(|t| t.ops).sum();
        let mut ops = Vec::with_capacity(total as usize);
        let mut last_at = 0u64;
        // A linear scan over the heads: specs have a handful of tenants.
        while let Some((_, tid)) = streams
            .iter_mut()
            .enumerate()
            .filter_map(|(tid, s)| s.peek().map(|&(at, _)| (at, tid)))
            .min()
        {
            // Take the winner's ops in a run, up to the next-smallest other
            // head, so a lone tenant is one tight loop rather than a scan
            // per op.
            let limit = streams
                .iter_mut()
                .enumerate()
                .filter(|&(other, _)| other != tid)
                .filter_map(|(other, s)| s.peek().map(|&(at, _)| (at, other)))
                .min()
                .unwrap_or((u64::MAX, usize::MAX));
            let stream = &mut streams[tid];
            while let Some((at, mut op)) = stream.next_if(|&(at, _)| (at, tid) < limit) {
                op.gap = (at - last_at).min(u32::MAX as u64) as u32;
                last_at = at;
                ops.push(op);
            }
        }

        Trace {
            meta: TraceMeta {
                name: self.name.clone(),
                seed: self.seed,
                lba_space: self.lba_space,
                devices: self.devices,
                tenants: self.tenants.len() as u32,
            },
            ops,
        }
    }
}

/// One tenant's request stream: its ops in issue order, each with the
/// absolute virtual time it becomes eligible (nondecreasing) and `gap` 0.
struct TenantStream<'a> {
    spec: &'a TraceSpec,
    tenant: &'a TenantSpec,
    tid: u32,
    rng: SimRng,
    zipf_base: Option<ZipfSampler>,
    zipf_alt: Option<ZipfSampler>,
    now: u64,
    in_burst: u32,
    /// Ops yielded so far.
    k: u64,
}

impl<'a> TenantStream<'a> {
    fn new(spec: &'a TraceSpec, root: &SimRng, tid: u32) -> Self {
        let tenant = &spec.tenants[tid as usize];
        let sampler_for = |pattern: AddressPattern| match pattern {
            AddressPattern::Zipf { theta } => Some(ZipfSampler::new(spec.lba_space, theta)),
            _ => None,
        };
        TenantStream {
            spec,
            tenant,
            tid,
            rng: root.fork(0x7E4A_4E57 ^ tid as u64),
            zipf_base: sampler_for(tenant.pattern),
            zipf_alt: tenant.phase.and_then(|ph| sampler_for(ph.alternate)),
            now: 0,
            in_burst: 0,
            k: 0,
        }
    }
}

impl Iterator for TenantStream<'_> {
    type Item = (u64, TraceOp);

    fn next(&mut self) -> Option<(u64, TraceOp)> {
        let (tenant, k) = (self.tenant, self.k);
        if k == tenant.ops {
            return None;
        }
        self.k += 1;
        let rng = &mut self.rng;
        // Pacing: jittered think time in [0, 2*mean_gap], mean = mean_gap.
        if tenant.mean_gap != 0 {
            self.now += rng.gen_range(2 * tenant.mean_gap as u64 + 1);
        }
        if let Some(burst) = tenant.burst {
            if self.in_burst >= burst.on_ops {
                self.now += burst.idle_cycles as u64;
                self.in_burst = 0;
            }
            self.in_burst += 1;
        }
        // Phase selection: even phases run the base pattern, odd phases the
        // alternate (no-op for unphased tenants).
        let (pattern, zipf) = match tenant.phase {
            Some(ph) if (k / ph.period_ops) % 2 == 1 => (ph.alternate, self.zipf_alt.as_ref()),
            _ => (tenant.pattern, self.zipf_base.as_ref()),
        };
        let lba_space = self.spec.lba_space;
        let lba = match pattern {
            AddressPattern::Uniform => rng.gen_range(lba_space),
            AddressPattern::Zipf { .. } => {
                let rank = zipf.expect("zipf sampler").sample(rng);
                scatter(rank, lba_space)
            }
            AddressPattern::Sequential { start } => (start + k) % lba_space,
        };
        let dev = if self.spec.devices == 1 {
            0
        } else {
            rng.gen_range(self.spec.devices as u64) as u32
        };
        let write = tenant.write_fraction > 0.0 && rng.gen_bool(tenant.write_fraction);
        let op = TraceOp {
            lba,
            gap: 0,
            tenant: self.tid,
            dev,
            write,
        };
        Some((self.now, op))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = TraceSpec::multi_tenant("mt", 1234, 2, 1 << 16, 3_000);
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a, b);
        assert_eq!(a.to_bytes(), b.to_bytes());
        let c = TraceSpec::multi_tenant("mt", 1235, 2, 1 << 16, 3_000).generate();
        assert_ne!(a.ops, c.ops, "different seeds must differ");
    }

    #[test]
    fn uniform_covers_devices_and_space() {
        let trace = TraceSpec::uniform("u", 7, 3, 1024, 5_000).generate();
        assert_eq!(trace.ops.len(), 5_000);
        assert!(trace.ops.iter().all(|o| o.dev < 3 && o.lba < 1024));
        for dev in 0..3u32 {
            let share = trace.ops.iter().filter(|o| o.dev == dev).count();
            assert!(share > 1_000, "device {dev} starved: {share}");
        }
        assert_eq!(trace.writes(), 0);
    }

    #[test]
    fn zipf_skews_toward_a_hot_set() {
        let trace = TraceSpec::zipfian("z", 42, 1, 100_000, 20_000, 0.99).generate();
        let mut counts = std::collections::HashMap::<u64, u64>::new();
        for op in &trace.ops {
            *counts.entry(op.lba).or_default() += 1;
        }
        let mut freq: Vec<u64> = counts.values().copied().collect();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u64 = freq.iter().take(10).sum();
        assert!(
            top10 as f64 > 0.2 * trace.ops.len() as f64,
            "top-10 pages should dominate a zipf(0.99) trace, got {top10}"
        );
        // Distinct pages << ops: the hot set is real.
        assert!(counts.len() < trace.ops.len() / 2);
    }

    #[test]
    fn bursty_traces_alternate_dense_and_idle() {
        let trace = TraceSpec::bursty("b", 5, 1, 4096, 1_000, 32, 100_000).generate();
        let long_gaps = trace.ops.iter().filter(|o| o.gap >= 100_000).count();
        let expected_bursts = 1_000 / 32;
        assert!(
            (long_gaps as i64 - expected_bursts as i64).abs() <= 2,
            "expected ≈{expected_bursts} idle gaps, got {long_gaps}"
        );
        assert!(trace.writes() > 0, "bursty tenant mixes writes in");
    }

    #[test]
    fn multi_tenant_splits_ops_and_interleaves() {
        let trace = TraceSpec::multi_tenant("mt", 9, 2, 1 << 16, 10_000).generate();
        assert_eq!(trace.ops.len(), 10_000);
        assert_eq!(trace.meta.tenants, 3);
        let per_tenant: Vec<usize> = (0..3)
            .map(|t| trace.ops.iter().filter(|o| o.tenant == t).count())
            .collect();
        assert_eq!(per_tenant, vec![5_000, 3_000, 2_000]);
        // Streams are interleaved, not concatenated: tenant of consecutive
        // ops changes often.
        let switches = trace
            .ops
            .windows(2)
            .filter(|w| w[0].tenant != w[1].tenant)
            .count();
        assert!(
            switches > 1_000,
            "streams were not merged: {switches} switches"
        );
        // Mixed read/write.
        assert!(trace.writes() > 0 && trace.reads() > trace.writes());
    }

    #[test]
    fn noisy_neighbor_splits_nine_to_one_and_overlaps() {
        let trace = TraceSpec::noisy_neighbor("nn", 11, 1, 1 << 14, 1_000).generate();
        assert_eq!(trace.ops.len(), 1_000);
        assert_eq!(trace.meta.tenants, 2);
        let noisy = trace.ops.iter().filter(|o| o.tenant == 0).count();
        assert_eq!(noisy, 900);
        // The victim's stream spans the noisy tenant's, not just its tail:
        // the victim submits within the first tenth of the op sequence.
        let first_victim = trace.ops.iter().position(|o| o.tenant == 1).unwrap();
        assert!(first_victim < 100, "victim first submits at {first_victim}");
        assert_eq!(
            TraceSpec::noisy_neighbor("nn", 11, 1, 1 << 14, 1_000).weights(),
            vec![1, 1]
        );
    }

    #[test]
    fn tenant_weights_are_spec_only() {
        // Weights ride on the spec for the scheduler; the generated trace
        // (and therefore the wire format) is identical with or without them.
        let mut weighted = TraceSpec::multi_tenant("w", 5, 1, 1 << 12, 300);
        weighted.tenants[1] = weighted.tenants[1].clone().with_weight(7);
        let plain = TraceSpec::multi_tenant("w", 5, 1, 1 << 12, 300);
        assert_eq!(weighted.generate(), plain.generate());
        assert_eq!(weighted.weights(), vec![1, 7, 1]);
    }

    #[test]
    fn sequential_pattern_wraps() {
        let spec = TraceSpec {
            name: "seq".into(),
            seed: 1,
            devices: 1,
            lba_space: 100,
            tenants: vec![TenantSpec::new(
                250,
                AddressPattern::Sequential { start: 90 },
                0.0,
                0,
            )],
        };
        let trace = spec.generate();
        assert_eq!(trace.ops[0].lba, 90);
        assert_eq!(trace.ops[10].lba, 0);
        assert!(trace.ops.iter().all(|o| o.lba < 100));
    }
}
