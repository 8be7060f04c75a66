//! Warp-level request coalescing (§3.3.2).
//!
//! Threads in a warp frequently request the same SSD page (adjacent embedding
//! rows, neighbouring CSR segments, …). AGILE removes these duplicates
//! *before* touching the shared software cache, because cache lookups need
//! atomics and create critical sections — deduplicating first keeps the warp
//! convergent and cheap. The real implementation uses CUDA warp-level
//! primitives (`__match_any_sync`-style ballots); here the same semantics are
//! computed over the warp's lane request vector.
//!
//! The second coalescing level (the software cache's BUSY state) is
//! implemented in `agile-cache`; this module only handles the intra-warp
//! stage and reports how many redundant requests it removed. It scans the
//! pages it has seen while they are few and hashes past that (see
//! [`coalesce_warp_into`]).

use nvme_sim::Lba;

/// Result of coalescing one warp's worth of requests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoalescedRequests {
    /// The unique `(device, LBA)` pairs, in first-appearance order.
    pub unique: Vec<(u32, Lba)>,
    /// For each input lane, the index into `unique` it maps to.
    pub lane_to_unique: Vec<usize>,
    /// Number of redundant requests eliminated (`lanes - unique.len()`).
    pub eliminated: usize,
}

/// Coalesce the per-lane requests of one warp.
///
/// Order is preserved (first occurrence wins), matching the "select one
/// thread to forward the request" behaviour of the paper.
pub fn coalesce_warp(requests: &[(u32, Lba)]) -> CoalescedRequests {
    let mut out = CoalescedRequests::default();
    coalesce_warp_into(requests, &mut out);
    out
}

/// Distinct pages coalescing finds by scanning the ones it has already
/// seen; past them it hashes. A scan costs one compare per distinct page
/// and lane, so a linear scan does not beat hashing at warp width: over 32
/// lanes it takes about 0.31 µs for 32 distinct pages (a Zipf replay's
/// batch: 496 compares), 0.18 µs for 16 and 0.12 µs for 8, where this
/// hybrid takes 0.09–0.11 µs for each (release build, a 2-core Xeon
/// sandbox). Warps whose lanes share a few pages — BFS neighbour lists,
/// embedding rows — stay on the scan and never clear the table.
const SCAN_DISTINCT: usize = 8;

/// Slots of the open-addressing table past [`SCAN_DISTINCT`]: at most half
/// of them filled, so requests of up to 128 lanes hash and longer ones keep
/// scanning.
const TABLE_SLOTS: usize = 256;

/// [`coalesce_warp`] into `out`, reusing its buffers.
pub fn coalesce_warp_into(requests: &[(u32, Lba)], out: &mut CoalescedRequests) {
    let CoalescedRequests {
        unique,
        lane_to_unique,
        eliminated,
    } = out;
    unique.clear();
    lane_to_unique.clear();
    // One allocation each for a fresh `out`, none for a reused one.
    unique.reserve(requests.len());
    lane_to_unique.reserve(requests.len());
    let hashes = requests.len() <= TABLE_SLOTS / 2;
    let mut lanes = requests.iter();
    for &req in lanes.by_ref() {
        let idx = unique.iter().position(|&u| u == req).unwrap_or_else(|| {
            unique.push(req);
            unique.len() - 1
        });
        lane_to_unique.push(idx);
        if hashes && unique.len() == SCAN_DISTINCT {
            break;
        }
    }
    if lanes.len() > 0 {
        // Slot → index into `unique` plus one (0 = empty), linear probing.
        let mut table = [0u8; TABLE_SLOTS];
        let probe = |table: &[u8; TABLE_SLOTS], unique: &[(u32, Lba)], (dev, lba): (u32, Lba)| {
            let key = lba ^ ((dev as u64) << 40);
            let mut slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize;
            loop {
                match table[slot] {
                    0 => return Err(slot),
                    s if unique[s as usize - 1] == (dev, lba) => return Ok(s as usize - 1),
                    _ => slot = (slot + 1) % TABLE_SLOTS,
                }
            }
        };
        for (idx, &seen) in unique.iter().enumerate() {
            if let Err(slot) = probe(&table, unique, seen) {
                table[slot] = idx as u8 + 1;
            }
        }
        for &req in lanes {
            let idx = probe(&table, unique, req).unwrap_or_else(|slot| {
                unique.push(req);
                table[slot] = unique.len() as u8;
                unique.len() - 1
            });
            lane_to_unique.push(idx);
        }
    }
    *eliminated = requests.len() - unique.len();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_distinct_requests_pass_through() {
        let reqs: Vec<(u32, Lba)> = (0..32).map(|i| (0, i as u64)).collect();
        let c = coalesce_warp(&reqs);
        assert_eq!(c.unique.len(), 32);
        assert_eq!(c.eliminated, 0);
        assert_eq!(c.lane_to_unique, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn identical_requests_collapse_to_one() {
        let reqs = vec![(0, 7u64); 32];
        let c = coalesce_warp(&reqs);
        assert_eq!(c.unique, vec![(0, 7)]);
        assert_eq!(c.eliminated, 31);
        assert!(c.lane_to_unique.iter().all(|&i| i == 0));
    }

    #[test]
    fn mixed_duplicates_preserve_first_appearance_order() {
        let reqs = vec![(0, 5), (1, 5), (0, 5), (0, 9), (1, 5), (2, 1)];
        let c = coalesce_warp(&reqs);
        assert_eq!(c.unique, vec![(0, 5), (1, 5), (0, 9), (2, 1)]);
        assert_eq!(c.eliminated, 2);
        assert_eq!(c.lane_to_unique, vec![0, 1, 0, 2, 1, 3]);
    }

    #[test]
    fn devices_distinguish_identical_lbas() {
        let reqs = vec![(0, 3), (1, 3), (2, 3)];
        let c = coalesce_warp(&reqs);
        assert_eq!(c.unique.len(), 3);
        assert_eq!(c.eliminated, 0);
    }

    #[test]
    fn empty_warp_is_fine() {
        let c = coalesce_warp(&[]);
        assert!(c.unique.is_empty());
        assert!(c.lane_to_unique.is_empty());
        assert_eq!(c.eliminated, 0);
    }

    /// What coalescing means, written the obvious way.
    fn scanned(requests: &[(u32, Lba)]) -> CoalescedRequests {
        let mut out = CoalescedRequests::default();
        for &req in requests {
            let idx = out.unique.iter().position(|&u| u == req);
            let idx = idx.unwrap_or_else(|| {
                out.unique.push(req);
                out.unique.len() - 1
            });
            out.lane_to_unique.push(idx);
        }
        out.eliminated = requests.len() - out.unique.len();
        out
    }

    #[test]
    fn hashing_past_the_scan_coalesces_exactly_like_it() {
        // Below, at and past the scanned distinct pages, past the requests
        // that hash (129 lanes), with and without repeats, and with keys
        // that collide in the table's slots.
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 33
        };
        let mut out = CoalescedRequests::default();
        for lanes in [0, 1, 7, 8, 9, 31, 32, 64, 128, 129, 200] {
            for spread in [1, 4, 8, 9, 24, 1 << 20] {
                let reqs: Vec<(u32, Lba)> = (0..lanes)
                    .map(|_| ((next() % 2) as u32, (next() % spread) << 8))
                    .collect();
                coalesce_warp_into(&reqs, &mut out);
                assert_eq!(out, scanned(&reqs), "{lanes} lanes over {spread} pages");
            }
        }
    }

    #[test]
    fn lane_mapping_reconstructs_original() {
        let reqs = vec![(0, 1), (0, 2), (0, 1), (0, 3), (0, 2)];
        let c = coalesce_warp(&reqs);
        let reconstructed: Vec<(u32, Lba)> =
            c.lane_to_unique.iter().map(|&i| c.unique[i]).collect();
        assert_eq!(reconstructed, reqs);
    }
}
