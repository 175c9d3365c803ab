//! Pins the stratified selector's draws bit for bit.
//!
//! The digests below were recorded before the selector moved from one
//! `Vec<i64>` per cell to one flat key buffer. Each case builds a projection
//! generator (the default cell selection resolves to full stratified
//! enumeration on these bodies), draws 1,000 points with `sample_many`, and
//! folds the raw bits of every coordinate into an FNV-1a digest. Equal
//! digests mean the selector enumerates the same cells with the same weights
//! in the same order and the alias table picks the same keys.

use cdb_constraint::{Atom, CompOp, GeneralizedTuple, LinTerm};
use cdb_sampler::{GeneratorParams, ProjectionGenerator, RelationGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The e9 "stacked slab" body in `2 + k` dimensions: the box `[0,2]×[0,1]`
/// in `x0, x1`, each extra coordinate between `x0 − x1 − 1` and
/// `x0 + x1 + 1`.
fn stacked_body(k: usize) -> GeneralizedTuple {
    let d = 2 + k;
    let unit = |i: usize, v: i64| {
        let mut a = vec![0i64; d];
        a[i] = v;
        a
    };
    let mut atoms = vec![
        Atom::le_from_ints(&unit(0, -1), 0),
        Atom::le_from_ints(&unit(0, 1), -2),
        Atom::le_from_ints(&unit(1, -1), 0),
        Atom::le_from_ints(&unit(1, 1), -1),
    ];
    for i in 2..d {
        let mut lo = vec![0i64; d];
        (lo[0], lo[1], lo[i]) = (1, -1, -1);
        atoms.push(Atom::new(LinTerm::from_ints(&lo, -1), CompOp::Le));
        let mut hi = vec![0i64; d];
        (hi[0], hi[1], hi[i]) = (-1, -1, 1);
        atoms.push(Atom::new(LinTerm::from_ints(&hi, -1), CompOp::Le));
    }
    GeneralizedTuple::new(d, atoms)
}

/// The Figure-1 triangle `0 ≤ x ≤ 1, 0 ≤ y ≤ x`.
fn figure1_triangle() -> GeneralizedTuple {
    GeneralizedTuple::new(
        2,
        vec![
            Atom::le_from_ints(&[-1, 0], 0),
            Atom::le_from_ints(&[1, 0], -1),
            Atom::le_from_ints(&[0, -1], 0),
            Atom::le_from_ints(&[-1, 1], 0),
        ],
    )
}

/// `(digest of 1,000 draws, draws returned, occupied cells)`.
fn draw_digest(
    tuple: &GeneralizedTuple,
    keep: &[usize],
    params: GeneratorParams,
    seed: u64,
) -> (u64, usize, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut generator = ProjectionGenerator::new(tuple, keep, params, &mut rng).unwrap();
    let cells = generator.stratified_cells().map_or(0, |s| s.len());
    let draws = generator.sample_many(1000, &mut rng);
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in draws
        .iter()
        .flatten()
        .flat_map(|v| v.to_bits().to_le_bytes())
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    (h, draws.len(), cells)
}

fn e9_params() -> GeneratorParams {
    GeneratorParams {
        eps: 0.7,
        ..GeneratorParams::fast()
    }
}

#[test]
fn e9_body_draws_are_pinned_at_k1() {
    assert_eq!(
        draw_digest(&stacked_body(1), &[0, 1], e9_params(), 91),
        (8618616666559704098, 1000, 5408)
    );
}

#[test]
fn e9_body_draws_are_pinned_at_k2() {
    assert_eq!(
        draw_digest(&stacked_body(2), &[0, 1], e9_params(), 92),
        (1289337862355812694, 1000, 13041)
    );
}

#[test]
fn figure1_triangle_draws_are_pinned() {
    let params = GeneratorParams {
        gamma: 0.05,
        ..GeneratorParams::fast()
    };
    assert_eq!(
        draw_digest(&figure1_triangle(), &[0], params, 93),
        (4515589591395548930, 1000, 193)
    );
}
