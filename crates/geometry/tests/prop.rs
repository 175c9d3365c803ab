//! Property-based tests for the geometric layer.

use cdb_geometry::hull::{
    convex_hull_volume, facets_of_points, hull_2d, hull_to_hpolytope, polygon_area, HULL_EPS,
};
use cdb_geometry::{volume, HPolytope, Halfspace};
use cdb_linalg::Vector;
use proptest::prelude::*;

/// The subset-enumeration hull, built as `hull_to_hpolytope` builds it for
/// `d ≥ 3`: the reference the planar path must agree with.
fn reference_hull(points: &[Vector]) -> Option<HPolytope> {
    let facets = facets_of_points(points);
    if facets.len() < 3 {
        return None;
    }
    let halfspaces = facets
        .into_iter()
        .map(|f| Halfspace::new(f.normal, f.offset))
        .collect();
    let poly = HPolytope::new(2, halfspaces);
    if poly.chebyshev_ball().map(|(_, r)| r).unwrap_or(0.0) <= 0.0 {
        return None;
    }
    Some(poly)
}

/// Area of a bounded planar H-polytope: clips a square that holds the
/// cloud (`bound` is at least its largest coordinate magnitude) by every
/// halfspace in turn (Sutherland–Hodgman).
fn clipped_area(poly: &HPolytope, bound: f64) -> f64 {
    let b = 4.0 * bound;
    let mut ring = vec![(-b, -b), (b, -b), (b, b), (-b, b)];
    for h in poly.halfspaces() {
        let (nx, ny, c) = (h.normal()[0], h.normal()[1], h.offset());
        let slack = |p: (f64, f64)| c - nx * p.0 - ny * p.1;
        let mut next = Vec::with_capacity(ring.len() + 1);
        for i in 0..ring.len() {
            let (p, q) = (ring[i], ring[(i + 1) % ring.len()]);
            let (sp, sq) = (slack(p), slack(q));
            if sp >= 0.0 {
                next.push(p);
            }
            if (sp >= 0.0) != (sq >= 0.0) {
                let t = sp / (sp - sq);
                next.push((p.0 + t * (q.0 - p.0), p.1 + t * (q.1 - p.1)));
            }
        }
        ring = next;
    }
    let verts: Vec<Vector> = ring
        .iter()
        .map(|&(x, y)| Vector::from(vec![x, y]))
        .collect();
    polygon_area(&verts)
}

/// Planar clouds of 3–500 points: uniform in a box, a few tight clusters,
/// or a thin band around a line, at a random scale and offset.
fn planar_cloud() -> impl Strategy<Value = Vec<Vector>> {
    (
        proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 3..=500),
        0u32..3,
        (0.01f64..100.0, -50.0f64..50.0, 0.0f64..1.0),
    )
        .prop_map(|(raw, kind, (scale, shift, param))| {
            raw.iter()
                .enumerate()
                .map(|(i, &(u, v))| {
                    let (x, y) = match kind {
                        // Uniform in the unit square.
                        0 => (u, v),
                        // Up to five clusters of radius 1e-3..1e-2.
                        1 => {
                            let c = (i % (1 + (param * 5.0) as usize)) as f64;
                            let r = 1e-3 + 1e-2 * param;
                            (0.2 * c + r * u, 0.37 * c * c % 1.0 + r * v)
                        }
                        // A band of width 1e-4..1e-2 around a sloped line.
                        _ => {
                            let width = 1e-4 + 1e-2 * param;
                            (u, 0.3 + (param - 0.5) * u + width * v)
                        }
                    };
                    Vector::from(vec![shift + scale * x, shift + scale * y])
                })
                .collect()
        })
}

fn random_box() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (
        proptest::collection::vec(-5.0f64..5.0, 2..=4),
        proptest::collection::vec(0.1f64..4.0, 2..=4),
    )
        .prop_map(|(lo, width)| {
            let d = lo.len().min(width.len());
            let lo: Vec<f64> = lo[..d].to_vec();
            let hi: Vec<f64> = lo.iter().zip(&width[..d]).map(|(l, w)| l + w).collect();
            (lo, hi)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn box_volume_matches_closed_form((lo, hi) in random_box()) {
        let b = HPolytope::axis_box(&lo, &hi);
        let expected: f64 = lo.iter().zip(&hi).map(|(l, h)| h - l).product();
        let got = volume::polytope_volume(&b);
        prop_assert!((got - expected).abs() < 1e-5 * expected.max(1.0), "{got} vs {expected}");
    }

    #[test]
    fn chebyshev_center_is_deep_inside((lo, hi) in random_box()) {
        let b = HPolytope::axis_box(&lo, &hi);
        let (c, r) = b.chebyshev_ball().unwrap();
        prop_assert!(r > 0.0);
        prop_assert!(b.contains(&c, 1e-9));
        // Every halfspace is at distance at least r from the center.
        for h in b.halfspaces() {
            prop_assert!(h.signed_distance(&c).unwrap() >= r - 1e-6);
        }
    }

    #[test]
    fn vertices_are_contained_and_extreme((lo, hi) in random_box()) {
        let b = HPolytope::axis_box(&lo, &hi);
        let verts = b.vertices();
        prop_assert_eq!(verts.len(), 1 << lo.len());
        for v in &verts {
            prop_assert!(b.contains(v, 1e-6));
        }
    }

    #[test]
    fn union_volume_bounds((lo, hi) in random_box(), shift in 0.0f64..2.0) {
        let a = HPolytope::axis_box(&lo, &hi);
        let t: Vec<f64> = lo.iter().map(|_| shift).collect();
        let lo2: Vec<f64> = lo.iter().zip(&t).map(|(l, s)| l + s).collect();
        let hi2: Vec<f64> = hi.iter().zip(&t).map(|(h, s)| h + s).collect();
        let b = HPolytope::axis_box(&lo2, &hi2);
        let va = volume::polytope_volume(&a);
        let vb = volume::polytope_volume(&b);
        let vu = volume::union_volume(&[a.clone(), b.clone()]);
        prop_assert!(vu <= va + vb + 1e-6);
        prop_assert!(vu >= va.max(vb) - 1e-6);
        // Symmetric difference with itself is zero.
        prop_assert!(volume::symmetric_difference_volume(&[a.clone()], &[a]) < 1e-6);
    }

    #[test]
    fn hull_2d_is_convex_and_contains_points(pts in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 3..40)) {
        let points: Vec<Vector> = pts.iter().map(|&(x, y)| Vector::from(vec![x, y])).collect();
        let hull = hull_2d(&points).unwrap();
        let area = polygon_area(&hull);
        prop_assert!(area >= 0.0);
        // The hull area equals the generic convex hull volume routine.
        let generic = convex_hull_volume(&points);
        prop_assert!((area - generic).abs() < 1e-9);
        // Every point is inside or on the hull: check via the hull polytope when non-degenerate.
        if area > 1e-6 {
            let poly = cdb_geometry::hull::hull_to_hpolytope(&points).unwrap();
            for p in &points {
                prop_assert!(poly.contains(p, 1e-5));
            }
        }
    }

    #[test]
    fn planar_hull_agrees_with_subset_enumeration(points in planar_cloud()) {
        let scale = points.iter().map(|p| p.norm_inf()).fold(1.0f64, f64::max);
        let tol = HULL_EPS * scale;
        let fast = hull_to_hpolytope(&points);
        let reference = reference_hull(&points);
        prop_assert_eq!(fast.is_some(), reference.is_some());
        let (Some(fast), Some(reference)) = (fast, reference) else {
            return Ok(());
        };
        // The planar path returns the exact hull of the cloud up to
        // rounding. The reference accepts a supporting line that leaves
        // points up to `tol` outside, so it may shave up to `tol` off any
        // edge: its area may fall short by at most perimeter·tol. That
        // shortfall only shows when the cloud is small beside its offset
        // (the scale is its largest coordinate, not its extent).
        let chain = hull_2d(&points).unwrap();
        let exact = polygon_area(&chain);
        let perimeter: f64 = (0..chain.len())
            .map(|i| (&chain[(i + 1) % chain.len()] - &chain[i]).norm())
            .sum();
        let (a, b) = (clipped_area(&fast, scale), clipped_area(&reference, scale));
        prop_assert!((a - exact).abs() <= 1e-9 * exact, "area {a}, exact hull {exact}");
        prop_assert!(
            (a - b).abs() <= 1e-9 * b + perimeter * tol,
            "areas {a} vs {b} ({} points)",
            points.len()
        );
        for h in fast.halfspaces() {
            prop_assert!((h.normal().norm() - 1.0).abs() < 1e-12);
            for p in &points {
                let excess = h.normal().dot(p) - h.offset();
                prop_assert!(excess <= tol, "a point lies {excess} outside an edge");
            }
        }
    }

    #[test]
    fn planar_hull_rejects_degenerate_clouds(
        ts in proptest::collection::vec(-10.0f64..10.0, 1..200),
        (ox, oy, dx, dy) in (-50.0f64..50.0, -50.0f64..50.0, -3.0f64..3.0, -3.0f64..3.0),
    ) {
        // Points on one line (up to rounding), one repeated point, and a pair.
        let line: Vec<Vector> = ts
            .iter()
            .map(|&t| Vector::from(vec![ox + t * dx, oy + t * dy]))
            .collect();
        let single = vec![Vector::from(vec![ox, oy]); ts.len()];
        let pair = vec![Vector::from(vec![ox, oy]), Vector::from(vec![ox + dx, oy + dy])];
        for cloud in [&line, &single, &pair] {
            prop_assert!(hull_to_hpolytope(cloud).is_none());
            prop_assert!(reference_hull(cloud).is_none());
        }
    }

    #[test]
    fn affine_image_scales_volume((lo, hi) in random_box(), s in 0.2f64..3.0) {
        let d = lo.len();
        let b = HPolytope::axis_box(&lo, &hi);
        let map = cdb_linalg::AffineMap::scaling(d, s);
        let img = b.affine_image(&map);
        let v0 = volume::polytope_volume(&b);
        let v1 = volume::polytope_volume(&img);
        prop_assert!((v1 - v0 * map.det_abs()).abs() < 1e-4 * (v0 * map.det_abs()).max(1.0));
    }
}
