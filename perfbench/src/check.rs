//! The reconstruction check: symmetric difference against the
//! Fourier–Motzkin answer, as a share of the exact volume.

use cdb_constraint::GeneralizedRelation;
use cdb_geometry::volume::{symmetric_difference_volume, union_volume};
use cdb_geometry::{HPolytope, Halfspace};

/// `vol(exact Δ approx) / vol(exact)`.
///
/// The Fourier–Motzkin answer's halfspaces are scaled to unit normals
/// first. Over `f64` inputs its rows carry the inputs' binary denominators
/// (normals of ~2^51), and `HPolytope::is_empty` then reports non-empty
/// intervals as empty, so `union_volume` returns 0 and the ratio 0 or NaN.
/// Scaling a row changes no point set.
pub fn symdiff_fraction(exact: &GeneralizedRelation, approx: &GeneralizedRelation) -> f64 {
    let exact: Vec<HPolytope> = exact.to_polytopes().iter().map(unit_rows).collect();
    symmetric_difference_volume(&exact, &approx.to_polytopes()) / union_volume(&exact)
}

fn unit_rows(p: &HPolytope) -> HPolytope {
    let rows = p
        .halfspaces()
        .iter()
        .map(|h| {
            let norm = h.normal().norm();
            Halfspace::new(h.normal().scale(1.0 / norm), h.offset() / norm)
        })
        .collect();
    HPolytope::new(p.dim(), rows)
}

/// A relative error above this is a wrong answer, not an `(ε, δ)` miss.
pub const GROSS_ERROR: f64 = 1.0;

/// Whether at most a `delta` share of the relative errors exceeds `eps`:
/// the `(ε, δ)` guarantee of Definitions 2.1 and 4.1, checked over a run.
/// Single answers may miss `eps`; the guarantee bounds how many do.
pub fn within_guarantee(errors: &[f64], eps: f64, delta: f64) -> bool {
    let misses = errors.iter().filter(|e| e.is_nan() || **e > eps).count();
    misses as f64 <= delta * errors.len() as f64
}
