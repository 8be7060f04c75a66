//! Size and unit helpers shared across the simulators.

/// One kibibyte.
pub const KIB: u64 = 1024;
/// One mebibyte.
pub const MIB: u64 = 1024 * KIB;
/// One gibibyte.
pub const GIB: u64 = 1024 * MIB;

/// NVMe / flash page size used throughout the system (§2.3.3 of the paper:
/// "data is managed at a coarse-grained page level, typically 4KB per page").
pub const SSD_PAGE_SIZE: u64 = 4 * KIB;

/// Bandwidth in GB/s (decimal gigabytes, as the paper reports) given bytes
/// moved and elapsed seconds.
#[inline]
pub fn gb_per_sec(bytes: u64, secs: f64) -> f64 {
    if secs <= 0.0 {
        return 0.0;
    }
    bytes as f64 / 1e9 / secs
}

/// Integer ceiling division.
#[inline]
pub const fn div_ceil(a: u64, b: u64) -> u64 {
    a.div_ceil(b)
}

/// True when `x` is a power of two (and non-zero).
#[inline]
pub const fn is_power_of_two(x: u64) -> bool {
    x != 0 && (x & (x - 1)) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constants() {
        assert_eq!(KIB, 1024);
        assert_eq!(MIB, 1024 * 1024);
        assert_eq!(GIB, 1024 * 1024 * 1024);
        assert_eq!(SSD_PAGE_SIZE, 4096);
    }

    #[test]
    fn conversions() {
        assert!((gb_per_sec(1_000_000_000, 1.0) - 1.0).abs() < 1e-12);
        assert_eq!(gb_per_sec(123, 0.0), 0.0);
    }

    #[test]
    fn integer_helpers() {
        assert_eq!(div_ceil(10, 4), 3);
        assert_eq!(div_ceil(8, 4), 2);
        assert!(is_power_of_two(4096));
        assert!(!is_power_of_two(0));
        assert!(!is_power_of_two(12));
    }
}
