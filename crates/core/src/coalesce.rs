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
//! stage and reports how many redundant requests it removed.

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
/// thread to forward the request" behaviour of the paper. The warp size is
/// small (32), so a linear scan beats hashing.
pub fn coalesce_warp(requests: &[(u32, Lba)]) -> CoalescedRequests {
    let mut out = CoalescedRequests::default();
    coalesce_warp_into(requests, &mut out);
    out
}

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
    for &req in requests {
        match unique.iter().position(|&u| u == req) {
            Some(idx) => lane_to_unique.push(idx),
            None => {
                unique.push(req);
                lane_to_unique.push(unique.len() - 1);
            }
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

    #[test]
    fn lane_mapping_reconstructs_original() {
        let reqs = vec![(0, 1), (0, 2), (0, 1), (0, 3), (0, 2)];
        let c = coalesce_warp(&reqs);
        let reconstructed: Vec<(u32, Lba)> =
            c.lane_to_unique.iter().map(|&i| c.unique[i]).collect();
        assert_eq!(reconstructed, reqs);
    }
}
