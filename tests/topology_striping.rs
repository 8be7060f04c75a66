//! Property tests for the storage array's striping layer: the global page
//! space is the paper's interleave, and it is a bijection onto
//! (device, local page).

use agile_repro::nvme::StorageTopology;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Striping is a bijection over a dense prefix of the global page space:
    /// no two global pages collide on (device, local page).
    #[test]
    fn striping_is_bijective_over_dense_ranges(
        devices in 1usize..9,
        span in 1u64..512,
    ) {
        let topo = StorageTopology::new(devices);
        let mut seen = std::collections::HashSet::new();
        for g in 0..span {
            let loc = topo.map_page(g);
            prop_assert!(seen.insert((loc.device, loc.page)), "collision at {}", g);
        }
        prop_assert_eq!(seen.len() as u64, span);
    }

    /// The placement is the paper's `g % devices` interleave — the layout
    /// every checked-in golden trace replays against.
    #[test]
    fn default_placement_is_the_golden_interleave(
        devices in 1usize..12,
        pages in proptest::collection::vec(any::<u32>(), 1..64),
    ) {
        let topo = StorageTopology::new(devices);
        for &p in &pages {
            let g = p as u64;
            let loc = topo.map_page(g);
            prop_assert_eq!(loc.device as u64, g % devices as u64);
            prop_assert_eq!(loc.page, g / devices as u64);
        }
    }
}
