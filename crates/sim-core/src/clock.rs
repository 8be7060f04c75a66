//! Virtual time.
//!
//! All simulated components agree on a single time base: GPU core cycles.
//! The GPU simulator advances the clock; the SSD model schedules completions
//! at future cycle counts by converting its microsecond-scale latencies into
//! cycles with [`Nanos::to_cycles`].
//!
//! A cycle count is a plain `u64` wrapped in a newtype so that cycle and
//! nanosecond quantities cannot be mixed up silently.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Default simulated GPU core clock in GHz.
///
/// The paper evaluates on an RTX 5000 Ada (boost ≈ 2.55 GHz); we round to a
/// 2.5 GHz core clock. Only ratios matter for the reproduced figures, but an
/// absolute clock keeps the latency constants in [`crate::costs`] legible.
pub const DEFAULT_GPU_CLOCK_GHZ: f64 = 2.5;

/// A duration or point in simulated time, measured in GPU core cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

/// A duration in nanoseconds of simulated wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);
    /// Largest representable cycle count; used as an "infinitely far" sentinel.
    pub const MAX: Cycles = Cycles(u64::MAX);

    /// Construct from a raw count.
    #[inline]
    pub const fn new(c: u64) -> Self {
        Cycles(c)
    }

    /// The raw cycle count.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Convert to seconds under the given clock frequency (GHz).
    #[inline]
    pub fn to_secs(self, clock_ghz: f64) -> f64 {
        self.0 as f64 / (clock_ghz * 1e9)
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    #[inline]
    pub fn checked_add(self, rhs: Cycles) -> Option<Cycles> {
        self.0.checked_add(rhs.0).map(Cycles)
    }

    /// `self` scaled by a floating point factor, rounded to nearest.
    #[inline]
    pub fn scale(self, factor: f64) -> Cycles {
        Cycles((self.0 as f64 * factor).round() as u64)
    }

    /// Maximum of two cycle counts.
    #[inline]
    pub fn max(self, other: Cycles) -> Cycles {
        Cycles(self.0.max(other.0))
    }

    /// Minimum of two cycle counts.
    #[inline]
    pub fn min(self, other: Cycles) -> Cycles {
        Cycles(self.0.min(other.0))
    }
}

impl Nanos {
    /// Zero nanoseconds.
    pub const ZERO: Nanos = Nanos(0);

    /// Construct from a raw nanosecond count.
    #[inline]
    pub const fn new(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// The raw nanosecond count.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Convert to GPU cycles under the given clock frequency (GHz).
    #[inline]
    pub fn to_cycles(self, clock_ghz: f64) -> Cycles {
        Cycles((self.0 as f64 * clock_ghz).round() as u64)
    }

    /// Convert to (floating point) seconds.
    #[inline]
    pub fn to_secs(self) -> f64 {
        self.0 as f64 * 1e-9
    }
}

macro_rules! impl_arith {
    ($t:ident) => {
        impl Add for $t {
            type Output = $t;
            #[inline]
            fn add(self, rhs: $t) -> $t {
                $t(self.0 + rhs.0)
            }
        }
        impl AddAssign for $t {
            #[inline]
            fn add_assign(&mut self, rhs: $t) {
                self.0 += rhs.0;
            }
        }
        impl Sub for $t {
            type Output = $t;
            #[inline]
            fn sub(self, rhs: $t) -> $t {
                $t(self.0 - rhs.0)
            }
        }
        impl SubAssign for $t {
            #[inline]
            fn sub_assign(&mut self, rhs: $t) {
                self.0 -= rhs.0;
            }
        }
        impl Mul<u64> for $t {
            type Output = $t;
            #[inline]
            fn mul(self, rhs: u64) -> $t {
                $t(self.0 * rhs)
            }
        }
        impl Div<u64> for $t {
            type Output = $t;
            #[inline]
            fn div(self, rhs: u64) -> $t {
                $t(self.0 / rhs)
            }
        }
        impl Sum for $t {
            fn sum<I: Iterator<Item = $t>>(iter: I) -> $t {
                $t(iter.map(|v| v.0).sum())
            }
        }
        impl fmt::Display for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    };
}

impl_arith!(Cycles);
impl_arith!(Nanos);

/// The simulation clock shared (by value or behind the engine) between the
/// GPU model and the SSD model.
///
/// The clock only ever moves forward. Components read `now()` and schedule
/// future events; the engine advances it.
#[derive(Debug, Clone)]
pub struct SimClock {
    now: Cycles,
    clock_ghz: f64,
}

impl Default for SimClock {
    fn default() -> Self {
        Self::new(DEFAULT_GPU_CLOCK_GHZ)
    }
}

impl SimClock {
    /// Create a clock at time zero with the given core frequency in GHz.
    pub fn new(clock_ghz: f64) -> Self {
        assert!(clock_ghz > 0.0, "clock frequency must be positive");
        SimClock {
            now: Cycles::ZERO,
            clock_ghz,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Core frequency in GHz.
    #[inline]
    pub fn clock_ghz(&self) -> f64 {
        self.clock_ghz
    }

    /// Advance the clock by `delta` cycles.
    #[inline]
    pub fn advance(&mut self, delta: Cycles) {
        self.now += delta;
    }

    /// Advance the clock to an absolute time. Panics if `to` is in the past.
    #[inline]
    pub fn advance_to(&mut self, to: Cycles) {
        assert!(to >= self.now, "clock cannot move backwards");
        self.now = to;
    }

    /// Convert a nanosecond duration to cycles at this clock's frequency.
    #[inline]
    pub fn ns(&self, nanos: Nanos) -> Cycles {
        nanos.to_cycles(self.clock_ghz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_nanos_roundtrip() {
        let c = Nanos(10_000).to_cycles(2.5);
        assert_eq!(c, Cycles(25_000));
        assert!((c.to_secs(2.5) - Nanos(10_000).to_secs()).abs() < 1e-15);
    }

    #[test]
    fn nanos_constructors() {
        assert_eq!(Nanos::from_millis(2), Nanos(2_000_000));
    }

    #[test]
    fn arithmetic() {
        let a = Cycles(10);
        let b = Cycles(4);
        assert_eq!(a + b, Cycles(14));
        assert_eq!(a - b, Cycles(6));
        assert_eq!(a * 3, Cycles(30));
        assert_eq!(a / 2, Cycles(5));
        assert_eq!(b.saturating_sub(a), Cycles(0));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        let total: Cycles = [a, b, Cycles(1)].into_iter().sum();
        assert_eq!(total, Cycles(15));
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut clk = SimClock::new(2.0);
        assert_eq!(clk.now(), Cycles::ZERO);
        clk.advance(Cycles(100));
        assert_eq!(clk.now(), Cycles(100));
        clk.advance_to(Cycles(150));
        assert_eq!(clk.now(), Cycles(150));
        assert_eq!(clk.ns(Nanos(10)), Cycles(20));
    }

    #[test]
    #[should_panic(expected = "cannot move backwards")]
    fn clock_rejects_backwards() {
        let mut clk = SimClock::default();
        clk.advance(Cycles(10));
        clk.advance_to(Cycles(5));
    }

    #[test]
    fn scale_rounds() {
        assert_eq!(Cycles(10).scale(1.25), Cycles(13));
        assert_eq!(Cycles(0).scale(100.0), Cycles(0));
    }

    #[test]
    fn seconds_conversion() {
        let c = Cycles(2_500_000_000);
        assert!((c.to_secs(2.5) - 1.0).abs() < 1e-12);
    }
}
