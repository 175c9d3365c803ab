//! The two forms of `Rational` (inline `i64 / u64` and boxed `BigInt`
//! pair) against a reference fraction built from `BigInt` operations only.
//!
//! Operands sit at the edges of the inline form: `i64::MIN`, `i64::MAX`,
//! `u64::MAX` denominators, values just past 64 bits, and products that
//! overflow 64 (or 128) bits and reduce back into the inline form.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use cdb_num::{BigInt, BigUint, Rational};
use proptest::prelude::*;

/// A fraction in lowest terms with a positive denominator, computed with
/// `BigInt` arithmetic alone.
#[derive(Clone, Debug, PartialEq)]
struct Reference {
    num: BigInt,
    den: BigInt,
}

impl Reference {
    fn new(num: BigInt, den: BigInt) -> Self {
        assert!(!den.is_zero());
        let (num, den) = if den.is_negative() {
            (-num, -den)
        } else {
            (num, den)
        };
        if num.is_zero() {
            return Reference {
                num,
                den: BigInt::one(),
            };
        }
        let g = num.gcd(&den);
        Reference {
            num: &num / &g,
            den: &den / &g,
        }
    }

    fn add(&self, o: &Self) -> Self {
        Reference::new(
            &(&self.num * &o.den) + &(&o.num * &self.den),
            &self.den * &o.den,
        )
    }

    fn sub(&self, o: &Self) -> Self {
        Reference::new(
            &(&self.num * &o.den) - &(&o.num * &self.den),
            &self.den * &o.den,
        )
    }

    fn mul(&self, o: &Self) -> Self {
        Reference::new(&self.num * &o.num, &self.den * &o.den)
    }

    fn div(&self, o: &Self) -> Self {
        Reference::new(&self.num * &o.den, &self.den * &o.num)
    }

    fn pow(&self, exp: i32) -> Self {
        let e = exp.unsigned_abs();
        if exp >= 0 {
            Reference::new(self.num.pow(e), self.den.pow(e))
        } else {
            Reference::new(self.den.pow(e), self.num.pow(e))
        }
    }

    fn floor(&self) -> BigInt {
        let (q, r) = self.num.div_rem(&self.den);
        if r.is_zero() || !self.num.is_negative() {
            q
        } else {
            q - BigInt::one()
        }
    }

    fn ceil(&self) -> BigInt {
        let (q, r) = self.num.div_rem(&self.den);
        if r.is_zero() || self.num.is_negative() {
            q
        } else {
            q + BigInt::one()
        }
    }

    /// The `f64` conversion every `Rational` used before the inline form,
    /// on operands below 2^900 (beyond that it shifted them by a common
    /// amount and lost the smaller one's bits); `None` past that range.
    fn to_f64(&self) -> Option<f64> {
        let (n, d) = (self.num.magnitude(), self.den.magnitude());
        if n.bits().max(d.bits()) > 900 {
            return None;
        }
        let v = n.to_f64() / d.to_f64();
        Some(if self.num.is_negative() { -v } else { v })
    }

    fn fits_inline(&self) -> bool {
        self.num.to_i64().is_some() && self.den.magnitude().to_u64().is_some()
    }

    fn display(&self) -> String {
        if self.den.is_one() {
            self.num.to_string()
        } else {
            format!("{}/{}", self.num, self.den)
        }
    }

    fn hash64(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.num.hash(&mut h);
        self.den.hash(&mut h);
        h.finish()
    }
}

fn hash64(r: &Rational) -> u64 {
    let mut h = DefaultHasher::new();
    r.hash(&mut h);
    h.finish()
}

fn big(v: i128) -> BigInt {
    BigInt::from(v)
}

fn pow2(e: u32) -> BigInt {
    BigInt::from(2i64).pow(e)
}

/// Numerators at and around the edges of `i64`, plus a few past it.
fn edge_numerators() -> Vec<BigInt> {
    vec![
        big(0),
        big(1),
        big(-1),
        big(3),
        big(-7),
        big(i64::MAX as i128),
        big(i64::MIN as i128),
        big(i64::MIN as i128 + 1),
        big(i64::MAX as i128 - 1),
        big(1 << 32),
        big(-(1i128 << 62) * 3),
        big(1i128 << 63),
        big(u64::MAX as i128),
        -pow2(64),
        pow2(100) + BigInt::one(),
    ]
}

/// Denominators at and around the edges of `u64`, plus a few past it.
fn edge_denominators() -> Vec<BigInt> {
    vec![
        big(1),
        big(2),
        big(3),
        big(-5),
        big(u64::MAX as i128),
        big(u64::MAX as i128 - 1),
        big(1i128 << 63),
        big((1i128 << 32) + 1),
        big(i64::MAX as i128),
        pow2(64),
        pow2(64) + BigInt::one(),
        pow2(90),
    ]
}

/// A pair `(Rational, Reference)` of the same value: an edge value, a random
/// machine fraction, or an edge value scaled by a random factor.
fn operand() -> impl Strategy<Value = (Rational, Reference)> {
    (0usize..64, 0usize..64, any::<i64>(), any::<u64>(), 0u32..3).prop_map(
        |(ni, di, rn, rd, mode)| {
            let nums = edge_numerators();
            let dens = edge_denominators();
            let (num, den) = match mode {
                0 => (nums[ni % nums.len()].clone(), dens[di % dens.len()].clone()),
                1 => (big(rn as i128), big(rd.max(1) as i128)),
                _ => (
                    &nums[ni % nums.len()] * &big(rn as i128 % 1000),
                    &dens[di % dens.len()] * &big(rd as i128 % 1000 + 1),
                ),
            };
            (
                Rational::new(num.clone(), den.clone()),
                Reference::new(num, den),
            )
        },
    )
}

/// Fails unless `got` is the reference value in its one representation.
fn check(got: &Rational, want: &Reference) -> Result<(), String> {
    let fail = |what: &str| Err(format!("{what}: got {got:?}, want {}", want.display()));
    if got.numer() != want.num || got.denom() != want.den {
        return fail("value");
    }
    if got.is_inline() != want.fits_inline() {
        return fail("form");
    }
    if got.to_string() != want.display() {
        return fail("display");
    }
    if hash64(got) != want.hash64() {
        return fail("hash");
    }
    if want
        .to_f64()
        .is_some_and(|old| got.to_f64().to_bits() != old.to_bits())
    {
        return fail("to_f64");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn field_operations_agree_with_the_reference((a, ra) in operand(), (b, rb) in operand()) {
        check(&a, &ra)?;
        check(&(&a + &b), &ra.add(&rb))?;
        check(&(&a - &b), &ra.sub(&rb))?;
        check(&(&a * &b), &ra.mul(&rb))?;
        check(&(-&a), &Reference::new(-&ra.num, ra.den.clone()))?;
        check(&a.abs(), &Reference::new(ra.num.abs(), ra.den.clone()))?;
        if !b.is_zero() {
            check(&(&a / &b), &ra.div(&rb))?;
            check(&b.recip(), &Reference::new(rb.den.clone(), rb.num.clone()))?;
        }
        let cross = (&ra.num * &rb.den).cmp(&(&rb.num * &ra.den));
        prop_assert_eq!(a.cmp(&b), cross);
        prop_assert_eq!(a == b, ra == rb);
    }

    #[test]
    fn floor_ceil_and_pow_agree_with_the_reference((a, ra) in operand(), exp in -3i32..=3) {
        prop_assert_eq!(a.floor(), ra.floor());
        prop_assert_eq!(a.ceil(), ra.ceil());
        if !(a.is_zero() && exp < 0) {
            check(&a.pow(exp), &ra.pow(exp))?;
        }
    }

    #[test]
    fn f64_conversion_is_exact_and_round_trips(bits in any::<u64>()) {
        let v = f64::from_bits(bits);
        let Some(r) = Rational::from_f64(v) else {
            prop_assert!(!v.is_finite());
            return Ok(());
        };
        // The exact dyadic value of `v`, built from its fields.
        let exponent = ((bits >> 52) & 0x7ff) as i64;
        let mantissa = bits & ((1u64 << 52) - 1);
        let (mant, exp) = if exponent == 0 {
            (mantissa, -1074i64)
        } else {
            (mantissa | (1u64 << 52), exponent - 1075)
        };
        let signed = if v.is_sign_negative() { -BigInt::from(mant) } else { BigInt::from(mant) };
        let want = if exp >= 0 {
            Reference::new(&signed * &pow2(exp as u32), BigInt::one())
        } else {
            Reference::new(signed, pow2((-exp) as u32))
        };
        check(&r, &want)?;
        prop_assert_eq!(r.to_f64(), if v == 0.0 { 0.0 } else { v });
    }
}

#[test]
fn a_value_has_one_representation_on_every_path() {
    let half_paths = [
        Rational::from_ratio(1, 2),
        Rational::from_ratio(-4, -8),
        Rational::new(pow2(70), pow2(71)),
        Rational::from_f64(0.5).unwrap(),
        &Rational::from_ratio(1, 3) + &Rational::from_ratio(1, 6),
        Rational::from_decimal("0.5").unwrap(),
        Rational::from_decimal("36893488147419103232/73786976294838206464").unwrap(),
        &Rational::new(pow2(64) + BigInt::one(), pow2(65))
            - &Rational::new(BigInt::one(), pow2(65)),
        &Rational::new(pow2(80), BigInt::one()) / &Rational::new(pow2(81), BigInt::one()),
        Rational::from_ratio(2, 1).recip(),
        Rational::from_ratio(1, 1 << 31).pow(-1) / Rational::from_int(1 << 32),
    ];
    let min_paths = [
        Rational::from_int(i64::MIN),
        -Rational::new(pow2(63), BigInt::one()),
        Rational::from_f64(-(2f64.powi(63))).unwrap(),
        &Rational::from_int(i64::MIN + 1) - &Rational::one(),
        Rational::new(pow2(64), big(-2)),
    ];
    let past_min_paths = [
        -Rational::from_int(i64::MIN),
        Rational::from_int(i64::MIN).abs(),
        Rational::new(pow2(63), BigInt::one()),
        Rational::from_f64(2f64.powi(63)).unwrap(),
        &Rational::from_int(i64::MAX) + &Rational::one(),
        Rational::from(BigInt::from(BigUint::from(1u64 << 63))),
    ];
    for (paths, inline) in [
        (&half_paths[..], true),
        (&min_paths[..], true),
        (&past_min_paths[..], false),
    ] {
        let first = &paths[0];
        for p in paths {
            assert_eq!(p, first);
            assert_eq!(p.is_inline(), inline, "{p:?}");
            assert_eq!(hash64(p), hash64(first), "{p:?}");
            assert_eq!(p.to_string(), first.to_string());
            assert_eq!(p.cmp(first), std::cmp::Ordering::Equal);
        }
    }
}

#[test]
fn a_rational_fits_in_two_words() {
    // The big form's box sits in the niche of the inline form's non-zero
    // denominator, so no separate tag word is needed.
    assert!(std::mem::size_of::<Rational>() <= 16);
}
