//! Exact arbitrary-precision arithmetic for the spatial constraint database
//! workspace.
//!
//! The constraint layer (Fourier–Motzkin elimination, exact vertex
//! enumeration, exact simplex pivots) produces rational coefficients whose
//! numerators and denominators grow multiplicatively with every elimination
//! step, so 64-bit or even 128-bit machine integers overflow on realistic
//! inputs. This crate provides the two types every exact layer of the
//! workspace is built on:
//!
//! * [`BigInt`] — a sign–magnitude arbitrary-precision integer over `u64`
//!   limbs, and
//! * [`Rational`] — an always-normalized quotient of two integers.
//!
//! A [`Rational`] has two forms. Most coefficients the workspace meets fit
//! the inline form: an `i64` numerator and a `u64` denominator held in the
//! value itself, with arithmetic in 128-bit machine integers and no heap
//! allocation. A value whose reduced numerator or denominator needs more
//! than 64 bits takes the big form, two [`BigInt`]s behind one box. The form
//! is a function of the value alone, so equality, ordering, hashing and
//! printing are those of the reduced fraction whichever path produced it.
//!
//! Both types implement the usual operator traits by value and by reference,
//! total ordering, hashing, and conversion to `f64` (used when a symbolic
//! object is handed to the floating-point samplers).
//!
//! # Example
//!
//! ```
//! use cdb_num::{BigInt, Rational};
//!
//! let a = BigInt::from(1_000_000_007i64);
//! let b = &a * &a;
//! assert_eq!(b.to_string(), "1000000014000000049");
//!
//! let half = Rational::new(BigInt::from(1), BigInt::from(2));
//! let third = Rational::from_ratio(1, 3);
//! assert_eq!((&half + &third).to_string(), "5/6");
//! assert!(half > third);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bigint;
mod biguint;
mod rational;

pub use bigint::{BigInt, Sign};
pub use biguint::BigUint;
pub use rational::Rational;

/// Greatest common divisor of two non-negative big integers.
///
/// Convenience re-export used by the constraint layer when normalizing the
/// coefficient row of a linear atom.
pub fn gcd(a: &BigUint, b: &BigUint) -> BigUint {
    a.gcd(b)
}

/// Least common multiple of two non-negative big integers.
pub fn lcm(a: &BigUint, b: &BigUint) -> BigUint {
    if a.is_zero() || b.is_zero() {
        return BigUint::zero();
    }
    let g = a.gcd(b);
    let (q, _r) = a.div_rem(&g);
    &q * b
}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn gcd_lcm_helpers() {
        let a = BigUint::from(12u64);
        let b = BigUint::from(18u64);
        assert_eq!(gcd(&a, &b), BigUint::from(6u64));
        assert_eq!(lcm(&a, &b), BigUint::from(36u64));
        assert_eq!(lcm(&BigUint::zero(), &b), BigUint::zero());
    }
}
