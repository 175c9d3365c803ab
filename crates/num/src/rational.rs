//! Exact rational numbers.
//!
//! A [`Rational`] has two forms. The *inline* form holds an `i64` numerator
//! and a `u64` denominator in the value itself and never touches the heap;
//! the *big* form holds two [`BigInt`]s behind one box and is used only when
//! the numerator or the denominator of the reduced fraction needs more than
//! 64 bits. Every constructor and every operation reduces its result and
//! picks the inline form whenever the value fits it, so a value has exactly
//! one representation: `Eq` is structural, and `Hash`, `Display` and `Ord`
//! give the same results as a pair of `BigInt`s in lowest terms would.
//! Either way a `Rational` is two words (16 bytes).
//!
//! Arithmetic on two inline values runs in 128-bit machine integers and
//! falls back to `BigInt` only when an intermediate overflows 128 bits.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::num::NonZeroU64;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::bigint::{BigInt, Sign};
use crate::biguint::BigUint;

/// An exact rational number, always stored in lowest terms with a strictly
/// positive denominator.
#[derive(Clone, PartialEq, Eq)]
pub struct Rational(Repr);

/// The two forms of a [`Rational`]; see the module docs.
#[derive(Clone, PartialEq, Eq)]
enum Repr {
    /// `num / den` in lowest terms. The denominator's zero niche tags the
    /// big form, whose box fits beside it.
    Small(i64, NonZeroU64),
    /// `num / den` in lowest terms, `den > 0`, where `num` does not fit an
    /// `i64` or `den` does not fit a `u64`.
    Big(Box<(BigInt, BigInt)>),
}

/// Greatest common divisor of two 128-bit magnitudes (binary GCD).
fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// `n / d` for non-zero magnitudes of any size: the quotient of their top
/// 128 bits, scaled by the power of two the shifts removed.
fn scaled_ratio(n: &BigUint, d: &BigUint) -> f64 {
    let sn = n.bits().saturating_sub(128);
    let sd = d.bits().saturating_sub(128);
    let mut v = n.shr_bits(sn).to_f64() / d.shr_bits(sd).to_f64();
    let mut exp = sn as i64 - sd as i64;
    while exp != 0 && v != 0.0 && v.is_finite() {
        let step = exp.clamp(-1000, 1000);
        v *= 2f64.powi(step as i32);
        exp -= step;
    }
    v
}

/// Hashes a machine integer exactly as the equal [`BigInt`] hashes (its
/// sign, then its little-endian limbs), so the two forms of [`Rational`]
/// feed a hasher the same bytes a `BigInt` pair would.
fn hash_as_bigint<H: Hasher>(sign: Sign, magnitude: u64, state: &mut H) {
    sign.hash(state);
    let limbs: &[u64] = if magnitude == 0 {
        &[]
    } else {
        std::slice::from_ref(&magnitude)
    };
    limbs.hash(state);
}

impl Rational {
    /// The value `0`.
    pub const fn zero() -> Self {
        Rational(Repr::Small(0, NonZeroU64::MIN))
    }

    /// The value `1`.
    pub const fn one() -> Self {
        Rational(Repr::Small(1, NonZeroU64::MIN))
    }

    /// Builds `num / den`, reducing to lowest terms. Panics if `den == 0`.
    pub fn new(num: BigInt, den: BigInt) -> Self {
        assert!(!den.is_zero(), "rational with zero denominator");
        let (mut num, mut den) = if den.is_negative() {
            (-num, -den)
        } else {
            (num, den)
        };
        if num.is_zero() {
            return Rational::zero();
        }
        let g = num.gcd(&den);
        if !g.is_one() {
            num = &num / &g;
            den = &den / &g;
        }
        Rational::from_reduced_big(num, den)
    }

    /// Wraps a fraction already in lowest terms with `den > 0`, choosing the
    /// inline form when both parts fit it.
    fn from_reduced_big(num: BigInt, den: BigInt) -> Self {
        match (
            num.to_i64(),
            den.magnitude().to_u64().and_then(NonZeroU64::new),
        ) {
            (Some(n), Some(d)) => Rational(Repr::Small(n, d)),
            _ => Rational(Repr::Big(Box::new((num, den)))),
        }
    }

    /// Builds `num / den` from 128-bit parts (`den > 0`), reducing to
    /// lowest terms.
    fn from_i128(num: i128, den: u128) -> Self {
        debug_assert!(den > 0);
        let g = gcd_u128(num.unsigned_abs(), den);
        let mag = num.unsigned_abs() / g;
        let den = den / g;
        let num = if num < 0 {
            // `mag ≤ |num| ≤ 2^127`, and `−2^127` is representable.
            (mag as i128).wrapping_neg()
        } else {
            mag as i128
        };
        match (
            i64::try_from(num),
            u64::try_from(den).ok().and_then(NonZeroU64::new),
        ) {
            (Ok(n), Some(d)) => Rational(Repr::Small(n, d)),
            _ => Rational(Repr::Big(Box::new((
                BigInt::from(num),
                BigInt::from(BigUint::from(den)),
            )))),
        }
    }

    /// Builds a rational from machine integers.
    pub fn from_ratio(num: i64, den: i64) -> Self {
        assert!(den != 0, "rational with zero denominator");
        let (num, den) = (num as i128, den as i128);
        if den < 0 {
            Rational::from_i128(-num, den.unsigned_abs())
        } else {
            Rational::from_i128(num, den as u128)
        }
    }

    /// Builds a rational equal to an integer.
    pub const fn from_int(v: i64) -> Self {
        Rational(Repr::Small(v, NonZeroU64::MIN))
    }

    /// Builds the closest dyadic rational to an `f64` (exact conversion of
    /// the IEEE-754 value). Returns `None` for NaN or infinities.
    pub fn from_f64(v: f64) -> Option<Self> {
        if !v.is_finite() {
            return None;
        }
        if v == 0.0 {
            return Some(Rational::zero());
        }
        let bits = v.to_bits();
        let negative = bits >> 63 == 1;
        let exponent = ((bits >> 52) & 0x7ff) as i64;
        let mantissa = bits & ((1u64 << 52) - 1);
        let (mut mant, mut exp) = if exponent == 0 {
            (mantissa, -1074i64)
        } else {
            (mantissa | (1u64 << 52), exponent - 1075)
        };
        // Cancel the common powers of two so `mant · 2^exp` is in lowest
        // terms: an odd mantissa when the exponent is negative.
        if exp < 0 {
            let shift = (mant.trailing_zeros() as i64).min(-exp);
            mant >>= shift;
            exp += shift;
        }
        // `mant < 2^53`, so it always fits an `i64`.
        let signed = |m: i64| if negative { -m } else { m };
        if exp < 0 && exp > -64 {
            let den = NonZeroU64::new(1u64 << -exp).expect("a power of two is non-zero");
            return Some(Rational(Repr::Small(signed(mant as i64), den)));
        }
        if (0..64).contains(&exp) && mant.leading_zeros() as i64 > exp {
            return Some(Rational::from_int(signed((mant << exp) as i64)));
        }
        let mant = if negative {
            -BigInt::from(mant)
        } else {
            BigInt::from(mant)
        };
        let two = BigInt::from(2i64);
        Some(if exp >= 0 {
            Rational::from_reduced_big(mant * two.pow(exp as u32), BigInt::one())
        } else {
            Rational::from_reduced_big(mant, two.pow((-exp) as u32))
        })
    }

    /// `true` when the value is held in the inline (heap-free) form, which
    /// is exactly when its reduced numerator fits an `i64` and its reduced
    /// denominator fits a `u64`.
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Small(..))
    }

    /// Numerator and denominator of the inline form.
    fn inline(&self) -> Option<(i64, u64)> {
        match &self.0 {
            Repr::Small(n, d) => Some((*n, d.get())),
            Repr::Big(_) => None,
        }
    }

    /// Numerator and denominator as `BigInt`s, borrowed from the big form.
    fn parts(&self) -> (Cow<'_, BigInt>, Cow<'_, BigInt>) {
        match &self.0 {
            Repr::Small(n, d) => (
                Cow::Owned(BigInt::from(*n)),
                Cow::Owned(BigInt::from(d.get())),
            ),
            Repr::Big(b) => (Cow::Borrowed(&b.0), Cow::Borrowed(&b.1)),
        }
    }

    /// The numerator (sign-carrying).
    pub fn numer(&self) -> BigInt {
        self.parts().0.into_owned()
    }

    /// The denominator (always positive).
    pub fn denom(&self) -> BigInt {
        self.parts().1.into_owned()
    }

    /// Returns `true` if this value is zero.
    pub fn is_zero(&self) -> bool {
        matches!(self.0, Repr::Small(0, _))
    }

    /// Returns `true` if this value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.sign() == Sign::Negative
    }

    /// Returns `true` if this value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.sign() == Sign::Positive
    }

    /// Returns `true` if this value is an integer.
    pub fn is_integer(&self) -> bool {
        match &self.0 {
            Repr::Small(_, d) => d.get() == 1,
            Repr::Big(b) => b.1.is_one(),
        }
    }

    /// Sign of the value.
    pub fn sign(&self) -> Sign {
        match &self.0 {
            Repr::Small(n, _) => match n.cmp(&0) {
                Ordering::Less => Sign::Negative,
                Ordering::Equal => Sign::Zero,
                Ordering::Greater => Sign::Positive,
            },
            Repr::Big(b) => b.0.sign(),
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        if self.is_negative() {
            -self
        } else {
            self.clone()
        }
    }

    /// Multiplicative inverse. Panics on zero.
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "reciprocal of zero");
        match &self.0 {
            Repr::Small(n, d) => {
                let d = d.get() as i128;
                Rational::from_i128(if *n < 0 { -d } else { d }, n.unsigned_abs() as u128)
            }
            Repr::Big(b) => Rational::new(b.1.clone(), b.0.clone()),
        }
    }

    /// Lossy conversion to `f64`.
    ///
    /// Scales the operands so the division happens on quantities representable
    /// in double precision, keeping the relative error within a few ulps even
    /// for very large numerators and denominators.
    pub fn to_f64(&self) -> f64 {
        let (num, den) = match &self.0 {
            Repr::Small(0, _) => return 0.0,
            Repr::Small(n, d) => {
                let v = n.unsigned_abs() as f64 / d.get() as f64;
                return if *n < 0 { -v } else { v };
            }
            Repr::Big(b) => (&b.0, &b.1),
        };
        let nb = num.magnitude().bits() as i64;
        let db = den.magnitude().bits() as i64;
        // Bring both operands below 2^900 to avoid infinities, preserving the ratio.
        let shift = (nb.max(db) - 900).max(0);
        let mut v = if shift > 0 && nb.min(db) < shift + 128 {
            // The common shift would leave the smaller operand with too few
            // bits (or none): the value lies far beyond 2^±900. Divide the
            // operands' own 128-bit heads instead.
            scaled_ratio(num.magnitude(), den.magnitude())
        } else {
            let shift = shift as u64;
            num.magnitude().shr_bits(shift).to_f64() / den.magnitude().shr_bits(shift).to_f64()
        };
        if num.is_negative() {
            v = -v;
        }
        v
    }

    /// Integer floor of the value.
    pub fn floor(&self) -> BigInt {
        match &self.0 {
            Repr::Small(n, d) => BigInt::from((*n as i128).div_euclid(d.get() as i128)),
            Repr::Big(b) => {
                let (q, r) = b.0.div_rem(&b.1);
                if r.is_zero() || !b.0.is_negative() {
                    q
                } else {
                    q - BigInt::one()
                }
            }
        }
    }

    /// Integer ceiling of the value.
    pub fn ceil(&self) -> BigInt {
        match &self.0 {
            Repr::Small(n, d) => BigInt::from(-(-(*n as i128)).div_euclid(d.get() as i128)),
            Repr::Big(b) => {
                let (q, r) = b.0.div_rem(&b.1);
                if r.is_zero() || b.0.is_negative() {
                    q
                } else {
                    q + BigInt::one()
                }
            }
        }
    }

    /// Raises to a (possibly negative) integer power.
    pub fn pow(&self, exp: i32) -> Rational {
        if exp == 0 {
            return Rational::one();
        }
        if exp < 0 {
            assert!(!self.is_zero(), "zero to a negative power");
            return self.recip().pow_positive(exp.unsigned_abs());
        }
        self.pow_positive(exp as u32)
    }

    /// `self^exp` for `exp ≥ 1`. Powers of a fraction in lowest terms stay
    /// in lowest terms, so no reduction is needed.
    fn pow_positive(&self, exp: u32) -> Rational {
        if let Repr::Small(n, d) = &self.0 {
            if let (Some(n), Some(d)) = (n.checked_pow(exp), d.checked_pow(exp)) {
                return Rational(Repr::Small(n, d));
            }
        }
        let (num, den) = self.parts();
        Rational::from_reduced_big(num.pow(exp), den.pow(exp))
    }

    /// Minimum of two rationals.
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Maximum of two rationals.
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Parses `"a"`, `"-a"`, `"a/b"` or `"-a/b"` decimal forms.
    pub fn from_decimal(s: &str) -> Option<Self> {
        match s.split_once('/') {
            Some((n, d)) => {
                let num = BigInt::from_decimal(n.trim())?;
                let den = BigInt::from_decimal(d.trim())?;
                if den.is_zero() {
                    None
                } else {
                    Some(Rational::new(num, den))
                }
            }
            None => {
                // Also accept a decimal point: "1.25" -> 125/100.
                if let Some((int_part, frac_part)) = s.split_once('.') {
                    let digits = format!("{int_part}{frac_part}");
                    let num = BigInt::from_decimal(digits.trim())?;
                    let den = BigInt::from(10i64).pow(frac_part.len() as u32);
                    Some(Rational::new(num, den))
                } else {
                    Some(Rational::from(BigInt::from_decimal(s.trim())?))
                }
            }
        }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::zero()
    }
}

impl Hash for Rational {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match &self.0 {
            Repr::Small(n, d) => {
                hash_as_bigint(self.sign(), n.unsigned_abs(), state);
                hash_as_bigint(Sign::Positive, d.get(), state);
            }
            Repr::Big(b) => {
                b.0.hash(state);
                b.1.hash(state);
            }
        }
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational::from_int(v)
    }
}

impl From<i32> for Rational {
    fn from(v: i32) -> Self {
        Rational::from_int(v as i64)
    }
}

impl From<BigInt> for Rational {
    fn from(v: BigInt) -> Self {
        Rational::from_reduced_big(v, BigInt::one())
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b vs c/d  <=>  a*d vs c*b   (b, d > 0)
        if let (Some((a, b)), Some((c, d))) = (self.inline(), other.inline()) {
            // |a·d| < 2^127, so neither product overflows.
            return (a as i128 * d as i128).cmp(&(c as i128 * b as i128));
        }
        let (a, b) = self.parts();
        let (c, d) = other.parts();
        (&*a * &*d).cmp(&(&*c * &*b))
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        match &self.0 {
            Repr::Small(n, d) => match n.checked_neg() {
                Some(m) => Rational(Repr::Small(m, *d)),
                // −i64::MIN needs 64 magnitude bits plus a sign.
                None => Rational::from_i128(-(*n as i128), d.get() as u128),
            },
            Repr::Big(b) => Rational::from_reduced_big(-&b.0, b.1.clone()),
        }
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        match self.0 {
            Repr::Big(b) => {
                let (num, den) = *b;
                Rational::from_reduced_big(-num, den)
            }
            small => -&Rational(small),
        }
    }
}

/// `a/b ± c/d` where `sub` selects the sign of the second term.
fn add_sub(lhs: &Rational, rhs: &Rational, sub: bool) -> Rational {
    if let (Some((a, b)), Some((c, d))) = (lhs.inline(), rhs.inline()) {
        let (a, b, c, d) = (a as i128, b as i128, c as i128, d as i128);
        // Each cross product is below 2^127 in magnitude; only the sum can
        // overflow 128 bits.
        let (ad, cb) = (a * d, c * b);
        let num = if sub {
            ad.checked_sub(cb)
        } else {
            ad.checked_add(cb)
        };
        if let Some(num) = num {
            return Rational::from_i128(num, b as u128 * d as u128);
        }
    }
    let (a, b) = lhs.parts();
    let (c, d) = rhs.parts();
    let (ad, cb) = (&*a * &*d, &*c * &*b);
    let num = if sub { &ad - &cb } else { &ad + &cb };
    Rational::new(num, &*b * &*d)
}

impl Add for &Rational {
    type Output = Rational;
    fn add(self, rhs: &Rational) -> Rational {
        add_sub(self, rhs, false)
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        &self + &rhs
    }
}

impl AddAssign<&Rational> for Rational {
    fn add_assign(&mut self, rhs: &Rational) {
        *self = &*self + rhs;
    }
}

impl Sub for &Rational {
    type Output = Rational;
    fn sub(self, rhs: &Rational) -> Rational {
        add_sub(self, rhs, true)
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        &self - &rhs
    }
}

impl SubAssign<&Rational> for Rational {
    fn sub_assign(&mut self, rhs: &Rational) {
        *self = &*self - rhs;
    }
}

impl Mul for &Rational {
    type Output = Rational;
    fn mul(self, rhs: &Rational) -> Rational {
        if let (Some((a, b)), Some((c, d))) = (self.inline(), rhs.inline()) {
            // |a·c| ≤ 2^126 and b·d < 2^128: no overflow.
            return Rational::from_i128(a as i128 * c as i128, b as u128 * d as u128);
        }
        let (a, b) = self.parts();
        let (c, d) = rhs.parts();
        Rational::new(&*a * &*c, &*b * &*d)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        &self * &rhs
    }
}

impl MulAssign<&Rational> for Rational {
    fn mul_assign(&mut self, rhs: &Rational) {
        *self = &*self * rhs;
    }
}

impl Div for &Rational {
    type Output = Rational;
    fn div(self, rhs: &Rational) -> Rational {
        assert!(!rhs.is_zero(), "rational division by zero");
        if let (Some((a, b)), Some((c, d))) = (self.inline(), rhs.inline()) {
            // (a/b) / (c/d) = (a·d·sign c) / (b·|c|); |a·d| < 2^127.
            let num = a as i128 * d as i128;
            let num = if c < 0 { -num } else { num };
            return Rational::from_i128(num, b as u128 * c.unsigned_abs() as u128);
        }
        let (a, b) = self.parts();
        let (c, d) = rhs.parts();
        Rational::new(&*a * &*d, &*b * &*c)
    }
}

impl Div for Rational {
    type Output = Rational;
    fn div(self, rhs: Rational) -> Rational {
        &self / &rhs
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Repr::Small(n, d) if d.get() == 1 => write!(f, "{n}"),
            Repr::Small(n, d) => write!(f, "{n}/{d}"),
            Repr::Big(b) if b.1.is_one() => write!(f, "{}", b.0),
            Repr::Big(b) => write!(f, "{}/{}", b.0, b.1),
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rational({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ratio(n, d)
    }

    #[test]
    fn normalization() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(2, -4), r(-1, 2));
        assert_eq!(r(0, 5), Rational::zero());
        assert_eq!(r(6, 3).to_string(), "2");
        assert_eq!(r(-5, 10).to_string(), "-1/2");
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rational::new(BigInt::one(), BigInt::zero());
    }

    #[test]
    fn field_operations_match_f64() {
        let cases = [(1, 2), (-3, 4), (7, 5), (-11, 13), (0, 1)];
        for (an, ad) in cases {
            for (bn, bd) in cases {
                let a = r(an, ad);
                let b = r(bn, bd);
                let fa = an as f64 / ad as f64;
                let fb = bn as f64 / bd as f64;
                assert!(((&a + &b).to_f64() - (fa + fb)).abs() < 1e-12);
                assert!(((&a - &b).to_f64() - (fa - fb)).abs() < 1e-12);
                assert!(((&a * &b).to_f64() - (fa * fb)).abs() < 1e-12);
                if !b.is_zero() {
                    assert!(((&a / &b).to_f64() - (fa / fb)).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn ordering() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(2, 3) > r(3, 5));
        assert_eq!(r(4, 6).cmp(&r(2, 3)), Ordering::Equal);
    }

    #[test]
    fn floor_and_ceil() {
        assert_eq!(r(7, 2).floor(), BigInt::from(3i64));
        assert_eq!(r(7, 2).ceil(), BigInt::from(4i64));
        assert_eq!(r(-7, 2).floor(), BigInt::from(-4i64));
        assert_eq!(r(-7, 2).ceil(), BigInt::from(-3i64));
        assert_eq!(r(6, 2).floor(), BigInt::from(3i64));
        assert_eq!(r(6, 2).ceil(), BigInt::from(3i64));
    }

    #[test]
    fn powers_and_recip() {
        assert_eq!(r(2, 3).pow(2), r(4, 9));
        assert_eq!(r(2, 3).pow(-2), r(9, 4));
        assert_eq!(r(2, 3).pow(0), Rational::one());
        assert_eq!(r(-2, 3).recip(), r(-3, 2));
    }

    #[test]
    fn from_f64_exact_dyadics() {
        assert_eq!(Rational::from_f64(0.5).unwrap(), r(1, 2));
        assert_eq!(Rational::from_f64(-0.75).unwrap(), r(-3, 4));
        assert_eq!(Rational::from_f64(3.0).unwrap(), r(3, 1));
        assert_eq!(Rational::from_f64(0.0).unwrap(), Rational::zero());
        assert!(Rational::from_f64(f64::NAN).is_none());
        assert!(Rational::from_f64(f64::INFINITY).is_none());
        // Round trip: from_f64 followed by to_f64 is the identity on finite floats.
        for v in [
            0.1,
            -123.456,
            1e-30,
            1e30,
            std::f64::consts::PI,
            1e300,
            -4e-320,
        ] {
            assert_eq!(Rational::from_f64(v).unwrap().to_f64(), v);
        }
    }

    #[test]
    fn parse_forms() {
        assert_eq!(Rational::from_decimal("3/4").unwrap(), r(3, 4));
        assert_eq!(Rational::from_decimal("-3/4").unwrap(), r(-3, 4));
        assert_eq!(Rational::from_decimal("5").unwrap(), r(5, 1));
        assert_eq!(Rational::from_decimal("1.25").unwrap(), r(5, 4));
        assert_eq!(Rational::from_decimal("-0.5").unwrap(), r(-1, 2));
        assert!(Rational::from_decimal("1/0").is_none());
        assert!(Rational::from_decimal("abc").is_none());
    }

    #[test]
    fn min_max_abs() {
        assert_eq!(r(1, 2).min(r(1, 3)), r(1, 3));
        assert_eq!(r(1, 2).max(r(1, 3)), r(1, 2));
        assert_eq!(r(-5, 2).abs(), r(5, 2));
    }

    #[test]
    fn large_coefficient_growth() {
        // Simulates Fourier-Motzkin style growth: repeated a = a*b + c.
        let mut a = r(3, 7);
        let b = r(-11, 13);
        let c = r(17, 19);
        for _ in 0..200 {
            a = &(&a * &b) + &c;
        }
        // The limit of the fixed point iteration is c / (1 - b) = (17/19)/(24/13);
        // |b| < 1 so after 200 iterations the distance is below 1e-14.
        let limit = &c / &(&Rational::one() - &b);
        assert!((a.to_f64() - limit.to_f64()).abs() < 1e-9);
    }

    #[test]
    fn binary_gcd_matches_euclid() {
        let euclid = |mut a: u128, mut b: u128| {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a
        };
        let cases = [0u128, 1, 2, 6, 12, 18, 1 << 70, u64::MAX as u128, u128::MAX];
        for a in cases {
            for b in cases {
                assert_eq!(gcd_u128(a, b), euclid(a, b), "gcd({a}, {b})");
            }
        }
    }

    #[test]
    fn the_forms_switch_at_64_bits() {
        assert!(r(i64::MIN, 1).is_inline());
        assert!(!(-r(i64::MIN, 1)).is_inline());
        assert!(Rational::new(BigInt::one(), BigInt::from(u64::MAX)).is_inline());
        let wide = Rational::new(BigInt::one(), BigInt::from(u64::MAX as i128 + 1));
        assert!(!wide.is_inline());
        // Shrinking back demotes to the inline form.
        assert!((&wide * &Rational::from_int(2)).is_inline());
        assert_eq!(-(-r(i64::MIN, 3)), r(i64::MIN, 3));
    }
}
