//! Virtual time for the simulation kernel.
//!
//! Time is stored as an integer number of microseconds since the start of the
//! simulation. Integer time gives a total order (events never compare equal
//! due to floating-point fuzz) and makes runs bit-reproducible across
//! platforms. Conversions to/from `f64` seconds are provided at the edges for
//! model code that naturally works in seconds (bandwidth, service rates).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// Microseconds per second, as used by all conversions in this module.
pub const MICROS_PER_SEC: u64 = 1_000_000;

/// An instant of virtual time (microseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(u64);

/// A span of virtual time (non-negative, microseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as "never" by schedulers.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Builds an instant from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * MICROS_PER_SEC)
    }

    /// Builds an instant from fractional seconds, rounding to the nearest
    /// microsecond. Negative or non-finite input saturates to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime(secs_to_micros(s))
    }

    /// Raw microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This instant expressed in seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier` is
    /// actually later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration; `None` on overflow.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The greatest representable span; used as "infinite" by schedulers.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Builds a span from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a span from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Builds a span from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * MICROS_PER_SEC)
    }

    /// Builds a span from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60 * MICROS_PER_SEC)
    }

    /// Builds a span from fractional seconds, rounding to the nearest
    /// microsecond. Negative or non-finite input saturates to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration(secs_to_micros(s))
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This span expressed in seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// True iff the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

#[inline]
fn secs_to_micros(s: f64) -> u64 {
    round_micros(s * MICROS_PER_SEC as f64)
}

/// `2⁵²`: below it every `f64` has a fraction bit of `1/2` or finer, and
/// `raw − ⌊raw⌋` is exact.
const TWO_POW_52: f64 = 4_503_599_627_370_496.0;

/// Rounds raw microseconds half away from zero, saturating into `u64`
/// (negative, NaN and `-∞` give 0, `+∞` and overflow give `u64::MAX`).
///
/// On the x86-64 baseline `f64::round` is a software routine call, so the
/// common case, `0 < raw < 2⁵²`, truncates and adds one when the exact
/// fraction is at least one half: bitwise the rounded value. In that range
/// the signed conversions `raw as i64` and `i as f64` give the same values
/// as the unsigned ones, each in one instruction (the unsigned ones need a
/// branch or a fix-up for inputs at or above `2⁶³`). Everything else takes
/// the cold `f64::round` path.
#[inline]
fn round_micros(raw: f64) -> u64 {
    if raw > 0.0 && raw < TWO_POW_52 {
        let i = raw as i64;
        return i as u64 + ((raw - i as f64) >= 0.5) as u64;
    }
    round_micros_slow(raw)
}

/// [`round_micros`] outside `0 < raw < 2⁵²`: zero, negatives, huge
/// values, NaN and infinities.
#[cold]
fn round_micros_slow(raw: f64) -> u64 {
    if !raw.is_finite() {
        return if raw > 0.0 { u64::MAX } else { 0 };
    }
    let us = raw.round();
    if us <= 0.0 {
        0
    } else if us >= u64::MAX as f64 {
        u64::MAX
    } else {
        us as u64
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        self.since(other)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        *self = *self + other;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, other: SimDuration) {
        *self = *self - other;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::from_secs_f64(12.345678);
        assert_eq!(t.as_micros(), 12_345_678);
        assert!((t.as_secs_f64() - 12.345678).abs() < 1e-9);
    }

    #[test]
    fn negative_and_nan_saturate_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NEG_INFINITY), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!(t + d, SimTime::from_secs(14));
        assert_eq!(t - d, SimTime::from_secs(6));
        assert_eq!(t - SimTime::from_secs(3), SimDuration::from_secs(7));
        // saturating: an "earlier minus later" span clamps to zero
        assert_eq!(SimTime::from_secs(3) - SimTime::from_secs(10), SimDuration::ZERO);
        assert_eq!(d * 3, SimDuration::from_secs(12));
        assert_eq!(d / 2, SimDuration::from_secs(2));
    }

    #[test]
    fn ordering_is_total_and_integer_based() {
        let a = SimTime::from_secs_f64(1.000001);
        let b = SimTime::from_secs_f64(1.000002);
        // both round to distinct microseconds
        assert!(a < b);
        assert_eq!(SimTime::from_secs_f64(1.0000000001), SimTime::from_secs(1));
    }

    /// The conversion as it was before the truncating fast path: checks on
    /// the seconds, then `f64::round` on the scaled value.
    fn secs_to_micros_by_round(s: f64) -> u64 {
        if !s.is_finite() {
            return if s > 0.0 { u64::MAX } else { 0 };
        }
        let us = (s * MICROS_PER_SEC as f64).round();
        if us <= 0.0 {
            0
        } else if us >= u64::MAX as f64 {
            u64::MAX
        } else {
            us as u64
        }
    }

    /// `round_micros` against `f64::round` with the same saturation.
    fn round_micros_by_round(raw: f64) -> u64 {
        let us = raw.round();
        if us.is_nan() || us <= 0.0 {
            0
        } else if us >= u64::MAX as f64 {
            u64::MAX
        } else {
            us as u64
        }
    }

    #[test]
    fn truncating_round_matches_f64_round() {
        let p52 = TWO_POW_52;
        let mut adversarial = vec![
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            0.49999999999999994,
            0.5000000000000001,
            1.0 - f64::EPSILON / 2.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            5e-324,
            -5e-324,
            -0.5,
            -1.5,
            -3.0,
            p52 - 1.5,
            p52 - 1.0,
            p52 - 0.5,
            p52,
            p52 + 1.0,
            p52 + 2.0,
            2.0 * p52 + 2.0,
            u64::MAX as f64,
            1e300,
            f64::MAX,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        // The fast path converts through `i64`: the edges of every integer
        // width it could be confused with, and the largest values below 2⁵².
        for e in [31, 32, 33, 51] {
            let p = (1u64 << e) as f64;
            for d in [-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0] {
                adversarial.push(p + d);
            }
        }
        for k in 1..2_000u64 {
            let below = f64::from_bits(p52.to_bits() - k);
            adversarial.push(below);
            adversarial.push(below.floor() + 0.5);
        }
        for k in 0..2_000u64 {
            adversarial.push(k as f64 + 0.5);
            adversarial.push(f64::from_bits((k as f64 + 0.5).to_bits() - 1));
            adversarial.push(f64::from_bits((k as f64 + 0.5).to_bits() + 1));
            adversarial.push((p52 / 2.0) + k as f64 + 0.5);
        }
        for raw in adversarial {
            let want = round_micros_by_round(raw);
            assert_eq!(round_micros(raw), want, "raw {raw:e} ({:#x})", raw.to_bits());
        }
        // Random seconds across every magnitude, and random bit patterns.
        let mut st = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            st = st.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = st;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _ in 0..200_000 {
            let r = next();
            let mantissa = (r >> 11) as f64 / (1u64 << 53) as f64;
            let s = mantissa * 10f64.powi((r % 24) as i32 - 8);
            let s = if r & (1 << 5) == 0 { s } else { -s };
            assert_eq!(secs_to_micros(s), secs_to_micros_by_round(s), "seconds {s:e}");
            let bits = f64::from_bits(next());
            assert_eq!(round_micros(bits), round_micros_by_round(bits), "raw {bits:e}");
            assert_eq!(secs_to_micros(bits), secs_to_micros_by_round(bits), "seconds {bits:e}");
            // Uniform over the fast path's whole range `(0, 2⁵²)`.
            let fast = (next() >> 12) as f64 + (next() >> 11) as f64 / (1u64 << 53) as f64;
            assert_eq!(round_micros(fast), round_micros_by_round(fast), "raw {fast:e}");
        }
    }

    #[test]
    fn helpers() {
        assert_eq!(SimDuration::from_mins(2), SimDuration::from_secs(120));
        assert_eq!(SimDuration::from_millis(1500).as_micros(), 1_500_000);
        assert!(SimDuration::ZERO.is_zero());
        assert!(!SimDuration::from_micros(1).is_zero());
        assert_eq!(
            SimDuration::from_secs(5).saturating_sub(SimDuration::from_secs(9)),
            SimDuration::ZERO
        );
    }
}
