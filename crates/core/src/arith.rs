//! Exact arithmetic helpers for feasibility comparisons.
//!
//! The exact tests of this crate work on integer [`Time`] values, so the
//! demand bound function itself never needs rationals.  Two places do need
//! real-valued comparisons, however:
//!
//! * the utilization condition `U = Σ Cᵢ/Tᵢ ≤ 1`, and
//! * Devi's sufficient condition (a sum of per-task fractions compared
//!   against an integer deadline).
//!
//! Both are sums of non-negative fractions with small denominators (the
//! task periods).  [`FracSum`] accumulates such a sum exactly in `u128`
//! (numerator over a running least common multiple, reduced after every
//! step) and compares it against integers.  If an intermediate value would
//! overflow, the comparison degrades *conservatively*: it reports
//! "greater" when unsure, so a sufficient test can only become more
//! pessimistic, never unsound.  With realistic task parameters (periods up
//! to 2³², a few hundred tasks) the fallback is unreachable in practice;
//! the unit tests construct artificial overflow cases to pin the behaviour
//! down.
//!
//! [`Time`]: edf_model::Time

use core::cmp::Ordering;
use core::fmt;

/// Greatest common divisor of two `u128` values (Euclid).
///
/// `gcd(0, x) == x` by convention.
#[must_use]
pub fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Ceiling division `⌈a / b⌉` in `u128`.
///
/// # Panics
///
/// Panics if `b` is zero.
#[must_use]
pub fn ceil_div_u128(a: u128, b: u128) -> u128 {
    assert!(b != 0, "division by zero");
    a.div_ceil(b)
}

/// `(a / b, a % b)` with a fast path through hardware 64-bit division when
/// both operands fit in `u64` — the overwhelmingly common case in the hot
/// demand comparisons, where a full software `u128` division costs several
/// times more.
#[inline]
pub(crate) fn divmod_u128(a: u128, b: u128) -> (u128, u128) {
    match (u64::try_from(a), u64::try_from(b)) {
        (Ok(a64), Ok(b64)) => (u128::from(a64 / b64), u128::from(a64 % b64)),
        _ => (a / b, a % b),
    }
}

/// Precomputed reciprocal for exact division by a fixed `u64` divisor
/// (Granlund–Montgomery/Lemire): with `c = ⌈2¹²⁸ / d⌉`,
/// `⌊n / d⌋ = ⌊c·n / 2¹²⁸⌋` holds for **every** `n < 2⁶⁴` and `d ≥ 2`
/// (`F = 128 ≥ N + log₂ d` with `N = 64`).  Divisor 1 is the `hi == 0`
/// sentinel (for every real `d ≥ 2`, `c ≥ 2⁶⁴` so `hi ≥ 1`).
///
/// The demand kernel stores one reciprocal per periodic column and the
/// superposition machinery one per [`ApproxTerm`](crate::superposition::ApproxTerm)
/// — periods never change under WCET rewrites, so every hot demand query
/// replaces its hardware division with two widening multiplies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Reciprocal {
    hi: u64,
    lo: u64,
}

impl Reciprocal {
    /// Builds the reciprocal of `divisor`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero (a zero period is invalid input; the
    /// plain division paths panic on such input too).
    pub(crate) fn new(divisor: u64) -> Self {
        assert!(divisor != 0, "divisor must be positive");
        if divisor == 1 {
            return Reciprocal { hi: 0, lo: 0 };
        }
        let c = u128::MAX / u128::from(divisor) + 1;
        Reciprocal {
            hi: (c >> 64) as u64,
            lo: c as u64,
        }
    }

    /// The pre-divided term `(⌊num/d⌋, num mod d, d)` for the divisor `d`
    /// this reciprocal was built from — the input shape of
    /// [`fracs_parts_le_integer_iter`] — going through the reciprocal
    /// whenever the numerator fits `u64` (virtually always) and falling
    /// back to plain `u128` division otherwise.  `den` must equal the
    /// construction divisor.
    #[inline]
    pub(crate) fn divided_parts(self, num: u128, den: u64) -> (u128, u128, u128) {
        if let Ok(n64) = u64::try_from(num) {
            let q = self.divide(n64);
            (u128::from(q), u128::from(n64 - q * den), u128::from(den))
        } else {
            let den = u128::from(den);
            (num / den, num % den, den)
        }
    }

    /// `⌈num / d⌉` for the divisor `d` this reciprocal was built from,
    /// computed through the reciprocal whenever `num` fits `u64`
    /// (virtually always) and through plain `u128` division otherwise —
    /// bit-identical to [`ceil_div_u128`]`(num, d)` for every input.
    ///
    /// This is the ceiling counterpart of [`Reciprocal::divided_parts`]:
    /// the superposition helpers evaluate the linear approximation part
    /// `⌈C·δ/T⌉` once per live term of a failing comparison (the
    /// `LargestError` revision scan), and the cached reciprocal turns that
    /// per-term hardware `u128` division into two widening multiplies.
    /// `den` must equal the construction divisor.
    #[inline]
    pub(crate) fn ceil_divide(self, num: u128, den: u64) -> u128 {
        if let Ok(n64) = u64::try_from(num) {
            let q = self.divide(n64);
            u128::from(q) + u128::from(q * den != n64)
        } else {
            ceil_div_u128(num, u128::from(den))
        }
    }

    /// `⌊n / d⌋` for the divisor this reciprocal was built from.
    #[inline]
    pub(crate) fn divide(self, n: u64) -> u64 {
        if self.hi == 0 {
            // Divisor 1.
            return n;
        }
        // High 128 bits of the 192-bit product c·n: the carries out of the
        // low limb never overflow (hi·n ≤ 2¹²⁸ − 2⁶⁵ + 1, plus < 2⁶⁴).
        let low_carry = (u128::from(self.lo) * u128::from(n)) >> 64;
        let high = u128::from(self.hi) * u128::from(n);
        ((high + low_carry) >> 64) as u64
    }
}

/// A non-negative rational number `num/den` stored in `u128`.
///
/// Construction reduces the fraction; arithmetic is checked and returns
/// `None` on overflow so callers can fall back to a conservative path.
///
/// # Examples
///
/// ```
/// use edf_analysis::arith::Ratio;
///
/// let a = Ratio::new(1, 3).unwrap();
/// let b = Ratio::new(1, 6).unwrap();
/// let sum = a.checked_add(b).unwrap();
/// assert_eq!(sum, Ratio::new(1, 2).unwrap());
/// assert!(sum < Ratio::ONE);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ratio {
    num: u128,
    den: u128,
}

impl Ratio {
    /// The value zero.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };
    /// The value one.
    pub const ONE: Ratio = Ratio { num: 1, den: 1 };

    /// Creates a reduced ratio; `None` if `den == 0`.
    #[must_use]
    pub fn new(num: u128, den: u128) -> Option<Ratio> {
        if den == 0 {
            return None;
        }
        if num == 0 {
            return Some(Ratio::ZERO);
        }
        let g = gcd_u128(num, den);
        Some(Ratio {
            num: num / g,
            den: den / g,
        })
    }

    /// Creates a ratio from an integer.
    #[must_use]
    pub fn from_integer(value: u128) -> Ratio {
        Ratio { num: value, den: 1 }
    }

    /// Numerator of the reduced fraction.
    #[must_use]
    pub fn numer(&self) -> u128 {
        self.num
    }

    /// Denominator of the reduced fraction.
    #[must_use]
    pub fn denom(&self) -> u128 {
        self.den
    }

    /// Lossy conversion to `f64`.
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Checked addition; `None` on overflow.
    #[must_use]
    pub fn checked_add(self, other: Ratio) -> Option<Ratio> {
        let g = gcd_u128(self.den, other.den);
        let lcm = self.den.checked_mul(other.den / g)?;
        let a = self.num.checked_mul(lcm / self.den)?;
        let b = other.num.checked_mul(lcm / other.den)?;
        Ratio::new(a.checked_add(b)?, lcm)
    }

    /// Checked multiplication; `None` on overflow.
    #[must_use]
    pub fn checked_mul(self, other: Ratio) -> Option<Ratio> {
        // Cross-reduce first to keep intermediates small.
        let g1 = gcd_u128(self.num, other.den);
        let g2 = gcd_u128(other.num, self.den);
        let num = (self.num / g1).checked_mul(other.num / g2)?;
        let den = (self.den / g2).checked_mul(other.den / g1)?;
        Ratio::new(num, den)
    }

    /// Checked subtraction; `None` on overflow or if the result would be
    /// negative.
    #[must_use]
    pub fn checked_sub(self, other: Ratio) -> Option<Ratio> {
        let g = gcd_u128(self.den, other.den);
        let lcm = self.den.checked_mul(other.den / g)?;
        let a = self.num.checked_mul(lcm / self.den)?;
        let b = other.num.checked_mul(lcm / other.den)?;
        Ratio::new(a.checked_sub(b)?, lcm)
    }

    /// Compares against an integer without overflow where possible;
    /// `None` if the comparison cannot be performed exactly.
    #[must_use]
    pub fn checked_cmp_integer(&self, value: u128) -> Option<Ordering> {
        let rhs = self.den.checked_mul(value)?;
        Some(self.num.cmp(&rhs))
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Ratio) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Ratio) -> Ordering {
        // a/b vs c/d  <=>  a*d vs c*b; fall back to f64 on (unrealistic)
        // overflow — documented conservative behaviour.
        match (
            self.num.checked_mul(other.den),
            other.num.checked_mul(self.den),
        ) {
            (Some(l), Some(r)) => l.cmp(&r),
            _ => self
                .to_f64()
                .partial_cmp(&other.to_f64())
                .unwrap_or(Ordering::Equal),
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// Result of comparing an exactly accumulated fractional sum against an
/// integer bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundCheck {
    /// The sum is definitely `≤` the bound.
    WithinBound,
    /// The sum is definitely `>` the bound.
    ExceedsBound,
    /// The exact comparison overflowed; the caller must treat this
    /// conservatively (for sufficient tests: as [`BoundCheck::ExceedsBound`]).
    Overflow,
}

impl BoundCheck {
    /// `true` when the sum is certainly within the bound.
    #[must_use]
    pub fn is_within(self) -> bool {
        matches!(self, BoundCheck::WithinBound)
    }
}

/// Exact accumulator for a sum of non-negative fractions `Σ numᵢ/denᵢ`.
///
/// Used by the utilization and Devi tests to compare fractional sums
/// against integer capacities without floating point error.
///
/// # Examples
///
/// ```
/// use edf_analysis::arith::{BoundCheck, FracSum};
///
/// let mut sum = FracSum::new();
/// sum.add(1, 2);
/// sum.add(1, 3);
/// sum.add(1, 6);
/// assert_eq!(sum.cmp_integer(1), BoundCheck::WithinBound);   // exactly 1
/// sum.add(1, 1_000);
/// assert_eq!(sum.cmp_integer(1), BoundCheck::ExceedsBound);
/// ```
#[derive(Debug, Clone)]
pub struct FracSum {
    num: u128,
    den: u128,
    overflowed: bool,
    float_fallback: f64,
}

impl Default for FracSum {
    fn default() -> Self {
        FracSum::new()
    }
}

impl FracSum {
    /// Creates an empty (zero) sum.
    #[must_use]
    pub fn new() -> Self {
        FracSum {
            num: 0,
            den: 1,
            overflowed: false,
            float_fallback: 0.0,
        }
    }

    /// Adds `num/den` to the sum.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn add(&mut self, num: u128, den: u128) {
        assert!(den != 0, "fraction denominator must be positive");
        self.float_fallback += num as f64 / den as f64;
        if self.overflowed {
            return;
        }
        let g = gcd_u128(num, den);
        let (num, den) = (num / g, den / g);
        let g2 = gcd_u128(self.den, den);
        let Some(lcm) = self.den.checked_mul(den / g2) else {
            self.overflowed = true;
            return;
        };
        let Some(a) = self.num.checked_mul(lcm / self.den) else {
            self.overflowed = true;
            return;
        };
        let Some(b) = num.checked_mul(lcm / den) else {
            self.overflowed = true;
            return;
        };
        let Some(total) = a.checked_add(b) else {
            self.overflowed = true;
            return;
        };
        let g3 = gcd_u128(total, lcm);
        self.num = total / g3;
        self.den = lcm / g3;
    }

    /// `true` once the exact representation has overflowed and the
    /// accumulator only tracks the (approximate) floating point value.
    #[must_use]
    pub fn has_overflowed(&self) -> bool {
        self.overflowed
    }

    /// The sum as `f64` (exact value when no overflow occurred, otherwise
    /// the floating point shadow value).
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        if self.overflowed {
            self.float_fallback
        } else {
            self.num as f64 / self.den as f64
        }
    }

    /// Exactly compares the sum against the integer `bound`.
    ///
    /// Returns [`BoundCheck::Overflow`] when exactness was lost; callers of
    /// sufficient tests must treat that as "exceeds".
    #[must_use]
    pub fn cmp_integer(&self, bound: u128) -> BoundCheck {
        if self.overflowed {
            return BoundCheck::Overflow;
        }
        match self.den.checked_mul(bound) {
            Some(rhs) if self.num <= rhs => BoundCheck::WithinBound,
            Some(_) => BoundCheck::ExceedsBound,
            None => BoundCheck::Overflow,
        }
    }
}

/// Exactly decides whether `Σ numᵢ/denᵢ ≤ bound` for non-negative fractions,
/// without ever forming the full common denominator.
///
/// The integer parts `⌊numᵢ/denᵢ⌋` are summed first; only the proper
/// remainders (each `< 1`) are left for an exact fractional comparison,
/// which is needed at all only when the remaining slack is smaller than the
/// number of fractional terms.  If even that comparison overflows `u128`,
/// the function falls back to a floating point comparison with a large
/// conservative margin: it may then report `false` ("exceeds") for sums
/// that are in fact barely within the bound, but never the other way
/// around.  Sufficient tests therefore stay sound and the exact tests of
/// this crate stay exact (they refine on "exceeds" until the comparison is
/// purely integral).
///
/// # Panics
///
/// Panics if any denominator is zero.
///
/// # Examples
///
/// ```
/// use edf_analysis::arith::fracs_le_integer;
///
/// // 1/2 + 1/3 + 1/6 == 1
/// assert!(fracs_le_integer(&[(1, 2), (1, 3), (1, 6)], 1));
/// // ... and adding any positive amount exceeds 1.
/// assert!(!fracs_le_integer(&[(1, 2), (1, 3), (1, 6), (1, 1_000)], 1));
/// ```
#[must_use]
pub fn fracs_le_integer(terms: &[(u128, u128)], bound: u128) -> bool {
    fracs_le_integer_iter(terms.iter().copied(), bound)
}

/// Iterator form of [`fracs_le_integer`]: decides `Σ numᵢ/denᵢ ≤ bound`
/// without materializing the terms in a slice first (and without any heap
/// allocation), which is what the hot bound-refresh paths of
/// [`crate::bounds`] rely on — a feasibility-bound binary search evaluates
/// this comparison dozens of times per probe.  The iterator must be
/// `Clone`: the exact rational accumulation over the remainders is only
/// performed (on a second pass) when the first pass cannot already decide
/// the comparison from the integer parts alone.
///
/// # Panics
///
/// Panics if any denominator is zero.
#[must_use]
pub fn fracs_le_integer_iter(
    terms: impl Iterator<Item = (u128, u128)> + Clone,
    bound: u128,
) -> bool {
    fracs_parts_le_integer_iter(
        terms.map(|(num, den)| {
            assert!(den != 0, "fraction denominator must be positive");
            let (quotient, remainder) = divmod_u128(num, den);
            (quotient, remainder, den)
        }),
        bound,
    )
}

/// [`fracs_le_integer_iter`] over **pre-divided** terms
/// `(⌊numᵢ/denᵢ⌋, numᵢ mod denᵢ, denᵢ)` — the form the hot demand
/// comparisons produce directly from precomputed period reciprocals
/// ([`Reciprocal`]), skipping the per-term hardware division entirely.
/// Decision logic and conservative-overflow behaviour are identical to the
/// `(num, den)` form.
pub(crate) fn fracs_parts_le_integer_iter(
    parts: impl Iterator<Item = (u128, u128, u128)> + Clone,
    bound: u128,
) -> bool {
    let mut integer_total: u128 = 0;
    let mut remainder_count: u128 = 0;
    for (quotient, remainder, _) in parts.clone() {
        match integer_total.checked_add(quotient) {
            Some(total) => integer_total = total,
            // Astronomically large sum: certainly exceeds any realistic bound.
            None => return false,
        }
        if integer_total > bound {
            return false;
        }
        if remainder != 0 {
            remainder_count += 1;
        }
    }
    let slack = bound - integer_total;
    // Each remainder is strictly below 1, so the sum is below the count and
    // the exact accumulated comparison is only needed when the slack is
    // smaller than that.
    if slack >= remainder_count {
        return true;
    }
    // Floating-point screen with a **proven** error margin before the
    // expensive exact rational accumulation.  Each `r/den` lies in [0, 1)
    // with relative division error ≤ 2⁻⁵³, and summing k ≤ 2²⁰ such terms
    // accumulates at most k²·2⁻⁵² < 2⁻¹² absolute error — far below the
    // 1e-3 margin — so any decision taken here is mathematically certain
    // and only the (rare) comparisons within ±1e-3 of the integer slack
    // fall through to `FracSum`.  The hot callers hit this constantly:
    // every demand comparison of the refining tests and every `U > 1`
    // check sits right at such a boundary.
    const FLOAT_SCREEN_MARGIN: f64 = 1e-3;
    if remainder_count <= 1 << 20 {
        let mut float_sum = 0.0f64;
        for (_, r, den) in parts.clone() {
            if r != 0 {
                float_sum += r as f64 / den as f64;
            }
        }
        // `slack < remainder_count ≤ 2²⁰` is exactly representable.
        let slack_f = slack as f64;
        if float_sum + FLOAT_SCREEN_MARGIN <= slack_f {
            return true;
        }
        if float_sum - FLOAT_SCREEN_MARGIN > slack_f {
            return false;
        }
    }
    let mut sum = FracSum::new();
    for (_, r, den) in parts {
        if r != 0 {
            sum.add(r, den);
        }
    }
    match sum.cmp_integer(slack) {
        BoundCheck::WithinBound => true,
        BoundCheck::ExceedsBound => false,
        BoundCheck::Overflow => {
            // Conservative floating point fallback with a wide margin.
            sum.to_f64() <= slack as f64 - 1e-6
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reciprocal_ceil_divide_matches_plain_ceiling_at_the_u64_boundary() {
        // Numerators straddling the `u64::MAX` fast-path gate in every
        // combination with exact-multiple and off-by-one remainders: the
        // reciprocal route and the plain `u128` ceiling must agree bit for
        // bit on both sides of the boundary.
        let ds = [1u64, 2, 3, 7, 10, 255, 1 << 20, u32::MAX as u64, u64::MAX];
        let boundary = u128::from(u64::MAX);
        for &d in &ds {
            let rcp = Reciprocal::new(d);
            let ns = [
                0u128,
                1,
                u128::from(d),
                u128::from(d) + 1,
                3 * u128::from(d) + u128::from(d / 2),
                boundary - 1,
                boundary,
                boundary + 1,
                boundary + u128::from(d),
                boundary * u128::from(d.max(2)),
                u128::MAX,
            ];
            for &n in &ns {
                assert_eq!(
                    rcp.ceil_divide(n, d),
                    ceil_div_u128(n, u128::from(d)),
                    "⌈{n} / {d}⌉ through the reciprocal"
                );
            }
        }
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd_u128(12, 18), 6);
        assert_eq!(gcd_u128(0, 7), 7);
        assert_eq!(gcd_u128(7, 0), 7);
        assert_eq!(gcd_u128(1, 1), 1);
        assert_eq!(gcd_u128(u128::MAX, u128::MAX), u128::MAX);
    }

    #[test]
    fn ceil_div_basics() {
        assert_eq!(ceil_div_u128(0, 5), 0);
        assert_eq!(ceil_div_u128(10, 5), 2);
        assert_eq!(ceil_div_u128(11, 5), 3);
    }

    #[test]
    #[should_panic]
    fn ceil_div_by_zero_panics() {
        let _ = ceil_div_u128(1, 0);
    }

    #[test]
    fn ratio_construction_and_reduction() {
        assert_eq!(Ratio::new(2, 4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(0, 7).unwrap(), Ratio::ZERO);
        assert_eq!(Ratio::new(5, 0), None);
        assert_eq!(Ratio::from_integer(3).numer(), 3);
        assert_eq!(Ratio::from_integer(3).denom(), 1);
        assert_eq!(Ratio::new(6, 3).unwrap().to_string(), "2");
        assert_eq!(Ratio::new(3, 6).unwrap().to_string(), "1/2");
    }

    #[test]
    fn ratio_arithmetic() {
        let third = Ratio::new(1, 3).unwrap();
        let sixth = Ratio::new(1, 6).unwrap();
        assert_eq!(third.checked_add(sixth), Ratio::new(1, 2));
        assert_eq!(third.checked_mul(sixth), Ratio::new(1, 18));
        assert_eq!(third.checked_sub(sixth), Ratio::new(1, 6));
        assert_eq!(sixth.checked_sub(third), None, "negative result rejected");
        assert!((third.to_f64() - 1.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn ratio_ordering() {
        let a = Ratio::new(2, 3).unwrap();
        let b = Ratio::new(3, 4).unwrap();
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
        assert_eq!(a.checked_cmp_integer(1), Some(Ordering::Less));
        assert_eq!(
            Ratio::from_integer(2).checked_cmp_integer(2),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Ratio::from_integer(3).checked_cmp_integer(2),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn ratio_overflow_paths() {
        let huge = Ratio::new(u128::MAX, 1).unwrap();
        assert_eq!(huge.checked_add(Ratio::ONE), None);
        assert_eq!(huge.checked_mul(huge), None);
        assert_eq!(huge.checked_cmp_integer(1), Some(Ordering::Greater));
        let tiny = Ratio::new(1, u128::MAX).unwrap();
        assert_eq!(
            tiny.checked_cmp_integer(u128::MAX),
            None,
            "den * value overflows"
        );
    }

    #[test]
    fn frac_sum_exact_boundaries() {
        let mut sum = FracSum::new();
        sum.add(1, 2);
        sum.add(1, 3);
        sum.add(1, 6);
        assert_eq!(sum.cmp_integer(1), BoundCheck::WithinBound);
        assert!(!sum.has_overflowed());
        assert!((sum.to_f64() - 1.0).abs() < 1e-15);
        sum.add(1, 1_000_000);
        assert_eq!(sum.cmp_integer(1), BoundCheck::ExceedsBound);
        assert_eq!(sum.cmp_integer(2), BoundCheck::WithinBound);
    }

    #[test]
    fn frac_sum_zero_and_default() {
        let sum = FracSum::default();
        assert_eq!(sum.cmp_integer(0), BoundCheck::WithinBound);
        assert_eq!(sum.to_f64(), 0.0);
    }

    #[test]
    fn frac_sum_overflow_is_conservative() {
        let mut sum = FracSum::new();
        // Two coprime, enormous denominators force the lcm over u128.
        sum.add(1, u128::MAX - 1);
        sum.add(1, u128::MAX - 4);
        assert!(sum.has_overflowed());
        assert_eq!(sum.cmp_integer(1), BoundCheck::Overflow);
        assert!(!BoundCheck::Overflow.is_within());
        assert!(sum.to_f64() >= 0.0);
    }

    #[test]
    #[should_panic]
    fn frac_sum_zero_denominator_panics() {
        let mut sum = FracSum::new();
        sum.add(1, 0);
    }

    #[test]
    fn bound_check_predicates() {
        assert!(BoundCheck::WithinBound.is_within());
        assert!(!BoundCheck::ExceedsBound.is_within());
    }

    #[test]
    fn fracs_le_integer_exact_boundary() {
        assert!(fracs_le_integer(&[(1, 2), (1, 3), (1, 6)], 1));
        assert!(!fracs_le_integer(
            &[(1, 2), (1, 3), (1, 6), (1, 1_000_000)],
            1
        ));
        assert!(fracs_le_integer(&[], 0));
        assert!(fracs_le_integer(&[(0, 5)], 0));
        assert!(!fracs_le_integer(&[(1, 5)], 0));
        assert!(fracs_le_integer(&[(5, 5)], 1));
        assert!(!fracs_le_integer(&[(6, 5)], 1));
    }

    #[test]
    fn fracs_le_integer_improper_fractions() {
        // 7/2 + 9/4 = 5.75
        assert!(fracs_le_integer(&[(7, 2), (9, 4)], 6));
        assert!(!fracs_le_integer(&[(7, 2), (9, 4)], 5));
        // Slack far above the number of terms short-circuits.
        assert!(fracs_le_integer(&[(1, 3), (1, 7), (1, 11)], 100));
    }

    #[test]
    fn fracs_le_integer_many_coprime_denominators() {
        // 40 distinct primes as denominators: the naive lcm overflows u128,
        // the remainder-based path must still answer exactly.
        let primes: [u128; 40] = [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83,
            89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173,
        ];
        // Σ (p-1)/p for 40 primes ≈ 40 - Σ1/p ≈ 38.6
        let terms: Vec<(u128, u128)> = primes.iter().map(|&p| (p - 1, p)).collect();
        assert!(fracs_le_integer(&terms, 39));
        assert!(!fracs_le_integer(&terms, 38));
    }

    #[test]
    fn fracs_le_integer_huge_values_are_conservative() {
        // Overflow of the integer part: conservatively reported as exceeding.
        assert!(!fracs_le_integer(
            &[(u128::MAX, 1), (u128::MAX, 1)],
            u128::MAX
        ));
    }

    #[test]
    #[should_panic]
    fn fracs_le_integer_zero_denominator_panics() {
        let _ = fracs_le_integer(&[(1, 0)], 1);
    }

    #[test]
    fn frac_sum_many_small_fractions() {
        // Σ 1/k for k=2..50 compared against its known floor.
        let mut sum = FracSum::new();
        for k in 2u128..=50 {
            sum.add(1, k);
        }
        assert!(!sum.has_overflowed());
        // Harmonic(50) - 1 ≈ 3.499
        assert_eq!(sum.cmp_integer(3), BoundCheck::ExceedsBound);
        assert_eq!(sum.cmp_integer(4), BoundCheck::WithinBound);
    }
}
