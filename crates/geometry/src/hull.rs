//! Convex hulls of finite point sets.
//!
//! Used by the reconstruction algorithms of Section 4.3 of the paper: the
//! convex hull of `N` almost-uniform samples approximates the sampled convex
//! polytope (Lemma 4.1), and the reconstructed relation is returned as an
//! H-polytope so it can be fed back into the constraint layer.
//!
//! As the paper notes, convex hull computation is exponential in the
//! dimension; these routines are meant for the *result* dimension `e` of a
//! projection query, which is small. Two algorithms are provided:
//!
//! * the plane (`d = 2`, the common case of a 2-D projection query) uses
//!   Andrew's monotone chain, `O(n log n)`: [`hull_2d`], and
//!   [`hull_to_hpolytope`] emits one unit-normal halfspace per
//!   counter-clockwise edge;
//! * `d ≥ 3` uses supporting-hyperplane enumeration over point subsets
//!   ([`facets_of_points`]), which tests every `d`-subset against all `n`
//!   points and so costs `O(n^{d+1})`.

use cdb_linalg::{Matrix, Vector};

use crate::{HPolytope, Halfspace};

/// Tolerance for hull predicates, relative to the point cloud's scale (its
/// largest coordinate magnitude, at least 1).
pub const HULL_EPS: f64 = 1e-7;

/// Andrew's monotone chain over planar points: the hull vertices in
/// counter-clockwise order, starting from the lexicographically smallest
/// point, with collinear boundary points dropped. `None` when a coordinate
/// is NaN or infinite.
fn monotone_chain(points: &[Vector]) -> Option<Vec<(f64, f64)>> {
    assert!(
        points.iter().all(|p| p.dim() == 2),
        "hull_2d expects planar points"
    );
    let mut pts: Vec<(f64, f64)> = points.iter().map(|p| (p[0], p[1])).collect();
    if pts.iter().any(|p| !p.0.is_finite() || !p.1.is_finite()) {
        return None;
    }
    pts.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    pts.dedup_by(|a, b| (a.0 - b.0).abs() < 1e-12 && (a.1 - b.1).abs() < 1e-12);
    if pts.len() < 3 {
        return Some(pts);
    }
    let cross = |o: (f64, f64), a: (f64, f64), b: (f64, f64)| {
        (a.0 - o.0) * (b.1 - o.1) - (a.1 - o.1) * (b.0 - o.0)
    };
    // Lower chain left to right, then the upper chain right to left in the
    // same buffer; the upper pass never pops below the finished lower chain.
    let mut hull: Vec<(f64, f64)> = Vec::with_capacity(pts.len() + 1);
    for &p in &pts {
        while hull.len() >= 2 && cross(hull[hull.len() - 2], hull[hull.len() - 1], p) <= 0.0 {
            hull.pop();
        }
        hull.push(p);
    }
    let lower_len = hull.len() + 1;
    for &p in pts.iter().rev().skip(1) {
        while hull.len() >= lower_len && cross(hull[hull.len() - 2], hull[hull.len() - 1], p) <= 0.0
        {
            hull.pop();
        }
        hull.push(p);
    }
    // The upper chain ends where the lower one starts.
    hull.pop();
    Some(hull)
}

/// Convex hull of a set of points in the plane, returned in counter-clockwise
/// order without repetition (Andrew's monotone chain). Collinear input
/// degenerates to the two extreme points; fewer than three distinct points
/// are returned as-is. Returns `None` when a coordinate is NaN or infinite.
pub fn hull_2d(points: &[Vector]) -> Option<Vec<Vector>> {
    Some(
        monotone_chain(points)?
            .into_iter()
            .map(|(x, y)| Vector::from(vec![x, y]))
            .collect(),
    )
}

/// Area of a simple polygon given by its vertices in order (shoelace formula).
pub fn polygon_area(vertices: &[Vector]) -> f64 {
    if vertices.len() < 3 {
        return 0.0;
    }
    let n = vertices.len();
    let mut twice_area = 0.0;
    for i in 0..n {
        let j = (i + 1) % n;
        twice_area += vertices[i][0] * vertices[j][1] - vertices[j][0] * vertices[i][1];
    }
    twice_area.abs() / 2.0
}

/// A supporting hyperplane of a point cloud together with the indices of the
/// points lying on it.
#[derive(Clone, Debug)]
pub struct Facet {
    /// Outward normal (not normalized).
    pub normal: Vector,
    /// Offset: points satisfy `normal·p ≤ offset`, facet points attain equality.
    pub offset: f64,
    /// Indices of the points on the facet.
    pub on_facet: Vec<usize>,
}

/// Generalized cross product: the vector orthogonal to the `d−1` rows of `m`
/// (each of length `d`), computed by cofactor expansion.
fn generalized_cross(rows: &[Vector]) -> Vector {
    let d = rows[0].dim();
    assert_eq!(
        rows.len(),
        d - 1,
        "need d-1 rows for a generalized cross product"
    );
    let mut normal = Vector::zeros(d);
    for j in 0..d {
        // Minor: remove column j.
        let minor_rows: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| (0..d).filter(|&k| k != j).map(|k| r[k]).collect())
            .collect();
        let det = if d == 1 {
            1.0
        } else {
            Matrix::from_rows(&minor_rows).determinant()
        };
        normal[j] = if j % 2 == 0 { det } else { -det };
    }
    normal
}

/// Enumerates the supporting hyperplanes (facets) of the convex hull of a
/// point cloud in small dimension `d ≥ 2` by testing every `d`-subset of
/// points: `O(n^{d+1})`. The reconstruction path uses it for `d ≥ 3` only
/// ([`hull_to_hpolytope`] takes the monotone chain in the plane); it stays
/// valid in the plane as a reference.
pub fn facets_of_points(points: &[Vector]) -> Vec<Facet> {
    if points.is_empty() {
        return Vec::new();
    }
    let d = points[0].dim();
    let n = points.len();
    if n < d {
        return Vec::new();
    }
    let scale = point_scale(points);
    let tol = HULL_EPS * scale;

    let mut facets: Vec<Facet> = Vec::new();
    let mut seen_keys: Vec<(Vec<i64>, i64)> = Vec::new();
    let mut combo: Vec<usize> = (0..d).collect();
    loop {
        let base = &points[combo[0]];
        let rows: Vec<Vector> = combo[1..].iter().map(|&i| &points[i] - base).collect();
        let mut normal = generalized_cross(&rows);
        let norm = normal.norm();
        if norm > tol {
            normal = normal.scale(1.0 / norm);
            let mut offset = normal.dot(base);
            // Determine on which side the remaining points fall.
            let mut max_slack = f64::NEG_INFINITY;
            let mut min_slack = f64::INFINITY;
            for p in points {
                let s = normal.dot(p) - offset;
                max_slack = max_slack.max(s);
                min_slack = min_slack.min(s);
            }
            let is_facet = if max_slack <= tol {
                true
            } else if min_slack >= -tol {
                normal = -&normal;
                offset = -offset;
                true
            } else {
                false
            };
            if is_facet {
                let key: (Vec<i64>, i64) = (
                    normal.iter().map(|v| (v * 1e6).round() as i64).collect(),
                    (offset / scale.max(1.0) * 1e6).round() as i64,
                );
                if !seen_keys.contains(&key) {
                    seen_keys.push(key);
                    let on_facet: Vec<usize> = points
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| (normal.dot(p) - offset).abs() <= tol)
                        .map(|(i, _)| i)
                        .collect();
                    facets.push(Facet {
                        normal,
                        offset,
                        on_facet,
                    });
                }
            }
        }
        // Next d-combination.
        let mut i = d;
        loop {
            if i == 0 {
                return facets;
            }
            i -= 1;
            if combo[i] != i + n - d {
                combo[i] += 1;
                for j in (i + 1)..d {
                    combo[j] = combo[j - 1] + 1;
                }
                break;
            }
        }
    }
}

/// H-representation of the convex hull of a planar point cloud: one
/// unit-normal halfspace per counter-clockwise edge of the monotone chain.
/// Edges shorter than `HULL_EPS·scale` are dropped: a tiny edge's normal is
/// mostly rounding noise and could cut off an input point, while dropping a
/// constraint only widens the polygon by a corner of that size.
///
/// Returns `None` when the hull is no wider than `HULL_EPS·scale` (the
/// cloud is collinear up to rounding, as [`facets_of_points`] would judge
/// it) or when dropped edges leave it unbounded.
fn planar_hull(points: &[Vector]) -> Option<HPolytope> {
    let chain = monotone_chain(points)?;
    if chain.len() < 3 {
        return None;
    }
    let tol = HULL_EPS * point_scale(points);
    let halfspaces: Vec<Halfspace> = chain
        .iter()
        .zip(chain.iter().cycle().skip(1))
        .filter_map(|(&(ax, ay), &(bx, by))| {
            let (dx, dy) = (bx - ax, by - ay);
            let len = dx.hypot(dy);
            if len <= tol {
                return None;
            }
            // Counter-clockwise order: the interior lies to the left, so the
            // outward normal is the edge direction turned clockwise.
            let normal = Vector::from(vec![dy / len, -dx / len]);
            Some(Halfspace::new(normal, (dy * ax - dx * ay) / len))
        })
        .collect();
    if halfspaces.len() < 3 {
        return None;
    }
    // The width of a convex polygon is attained across one of its edges.
    let depth = |h: &Halfspace| {
        chain
            .iter()
            .map(|&(x, y)| h.offset() - h.normal()[0] * x - h.normal()[1] * y)
            .fold(0.0f64, f64::max)
    };
    if halfspaces.iter().map(depth).fold(f64::INFINITY, f64::min) <= tol {
        return None;
    }
    // Bounded iff consecutive outward normals turn counter-clockwise by
    // less than a half turn all the way round.
    let turns_left = |a: &Halfspace, b: &Halfspace| {
        a.normal()[0] * b.normal()[1] - a.normal()[1] * b.normal()[0] > 0.0
    };
    if !halfspaces
        .iter()
        .zip(halfspaces.iter().cycle().skip(1))
        .all(|(a, b)| turns_left(a, b))
    {
        return None;
    }
    Some(HPolytope::new(2, halfspaces))
}

/// The scale of a point cloud for relative hull tolerances: its largest
/// coordinate magnitude, at least 1.
fn point_scale(points: &[Vector]) -> f64 {
    points.iter().map(|p| p.norm_inf()).fold(1.0f64, f64::max)
}

/// H-representation of the convex hull of a point cloud (small dimensions).
/// Returns `None` when the cloud is affinely degenerate (its hull has no
/// interior), too small, or holds a NaN or infinite coordinate.
///
/// Dimension 1 takes the extreme values, dimension 2 the monotone chain
/// (`O(n log n)`), and higher dimensions [`facets_of_points`]
/// (`O(n^{d+1})`).
pub fn hull_to_hpolytope(points: &[Vector]) -> Option<HPolytope> {
    if points.is_empty() {
        return None;
    }
    let d = points[0].dim();
    if d == 1 {
        let lo = points.iter().map(|p| p[0]).fold(f64::INFINITY, f64::min);
        let hi = points
            .iter()
            .map(|p| p[0])
            .fold(f64::NEG_INFINITY, f64::max);
        if hi - lo <= 0.0 {
            return None;
        }
        return Some(HPolytope::axis_box(&[lo], &[hi]));
    }
    if d == 2 {
        return planar_hull(points);
    }
    let facets = facets_of_points(points);
    if facets.len() < d + 1 {
        return None;
    }
    let halfspaces: Vec<Halfspace> = facets
        .into_iter()
        .map(|f| Halfspace::new(f.normal, f.offset))
        .collect();
    let poly = HPolytope::new(d, halfspaces);
    // Degenerate clouds can slip through with opposite facets only.
    if poly.chebyshev_ball().map(|(_, r)| r).unwrap_or(0.0) <= 0.0 {
        return None;
    }
    Some(poly)
}

/// An orthonormal basis of the hyperplane orthogonal to `normal` (which must
/// be non-zero), produced by Gram–Schmidt over the standard basis.
fn hyperplane_basis(normal: &Vector) -> Vec<Vector> {
    let d = normal.dim();
    let unit = normal.normalized().expect("non-zero normal required");
    let mut basis: Vec<Vector> = Vec::with_capacity(d - 1);
    for i in 0..d {
        let mut candidate = Vector::basis(d, i);
        candidate -= &unit.scale(unit.dot(&candidate));
        for b in &basis {
            candidate -= &b.scale(b.dot(&candidate));
        }
        if let Some(u) = candidate.normalized() {
            if candidate.norm() > 1e-9 {
                basis.push(u);
                if basis.len() == d - 1 {
                    break;
                }
            }
        }
    }
    basis
}

/// Volume of the convex hull of a point cloud in any (small) dimension.
///
/// Dimension 1 and 2 use closed forms; higher dimensions use the cone
/// decomposition from the centroid over the supporting hyperplanes, recursing
/// on the facets expressed in an orthonormal hyperplane basis (so the
/// `(d−1)`-dimensional facet volume is measured correctly).
pub fn convex_hull_volume(points: &[Vector]) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    let d = points[0].dim();
    match d {
        0 => 0.0,
        1 => {
            let lo = points.iter().map(|p| p[0]).fold(f64::INFINITY, f64::min);
            let hi = points
                .iter()
                .map(|p| p[0])
                .fold(f64::NEG_INFINITY, f64::max);
            (hi - lo).max(0.0)
        }
        2 => hull_2d(points).map_or(f64::NAN, |hull| polygon_area(&hull)),
        _ => {
            if points.len() < d + 1 {
                return 0.0;
            }
            let centroid = Matrix::mean(points).expect("non-empty cloud");
            let facets = facets_of_points(points);
            let mut volume = 0.0;
            for f in &facets {
                if f.on_facet.len() < d {
                    continue;
                }
                let base_point = &points[f.on_facet[0]];
                let basis = hyperplane_basis(&f.normal);
                if basis.len() != d - 1 {
                    continue;
                }
                let projected: Vec<Vector> = f
                    .on_facet
                    .iter()
                    .map(|&i| {
                        let rel = &points[i] - base_point;
                        Vector::from(basis.iter().map(|b| b.dot(&rel)).collect::<Vec<_>>())
                    })
                    .collect();
                let facet_vol = convex_hull_volume(&projected);
                let unit_normal = f.normal.normalized().expect("facet normal is non-zero");
                let height = (unit_normal.dot(&centroid) - f.offset / f.normal.norm()).abs();
                volume += facet_vol * height / d as f64;
            }
            volume
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v2(x: f64, y: f64) -> Vector {
        Vector::from(vec![x, y])
    }

    #[test]
    fn hull_2d_square_with_interior_points() {
        let pts = vec![
            v2(0.0, 0.0),
            v2(1.0, 0.0),
            v2(1.0, 1.0),
            v2(0.0, 1.0),
            v2(0.5, 0.5),
            v2(0.25, 0.75),
        ];
        let hull = hull_2d(&pts).unwrap();
        assert_eq!(hull.len(), 4);
        assert!((polygon_area(&hull) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hull_2d_collinear_points() {
        let pts = vec![v2(0.0, 0.0), v2(1.0, 1.0), v2(2.0, 2.0), v2(0.5, 0.5)];
        let hull = hull_2d(&pts).unwrap();
        assert_eq!(hull, vec![v2(0.0, 0.0), v2(2.0, 2.0)]);
        assert_eq!(polygon_area(&hull), 0.0);
        assert!(hull_to_hpolytope(&pts).is_none());
    }

    #[test]
    fn hull_2d_rejects_non_finite_points() {
        let mut pts = vec![v2(0.0, 0.0), v2(1.0, 0.0), v2(0.0, 1.0)];
        pts.push(v2(f64::NAN, 0.5));
        assert!(hull_2d(&pts).is_none());
        assert!(hull_to_hpolytope(&pts).is_none());
        assert!(convex_hull_volume(&pts).is_nan());
        pts[3] = v2(0.5, f64::INFINITY);
        assert!(hull_2d(&pts).is_none());
        assert!(hull_to_hpolytope(&pts).is_none());
    }

    #[test]
    fn hull_2d_merges_duplicate_points() {
        let pts = vec![
            v2(0.0, 0.0),
            v2(1.0, 0.0),
            v2(0.0, 0.0),
            v2(1.0, 1.0),
            v2(1.0, 1.0),
            v2(1.0, 0.0),
        ];
        let hull = hull_2d(&pts).unwrap();
        assert_eq!(hull, vec![v2(0.0, 0.0), v2(1.0, 0.0), v2(1.0, 1.0)]);
        let poly = hull_to_hpolytope(&pts).unwrap();
        assert_eq!(poly.halfspaces().len(), 3);
        // Copies of one point have no interior.
        assert!(hull_to_hpolytope(&[v2(3.0, 4.0), v2(3.0, 4.0), v2(3.0, 4.0)]).is_none());
    }

    #[test]
    fn hull_2d_of_two_points_is_the_pair() {
        let pts = vec![v2(2.0, 1.0), v2(-1.0, 0.5)];
        assert_eq!(hull_2d(&pts).unwrap(), vec![v2(-1.0, 0.5), v2(2.0, 1.0)]);
        assert!(hull_to_hpolytope(&pts).is_none());
        assert_eq!(hull_2d(&[]).unwrap(), Vec::<Vector>::new());
    }

    #[test]
    fn planar_halfspaces_have_unit_normals_and_contain_every_point() {
        let pts = vec![
            v2(0.0, 0.0),
            v2(3.0, 0.5),
            v2(2.0, 2.0),
            v2(-1.0, 1.5),
            v2(1.0, 1.0),
            v2(0.5, 0.2),
        ];
        let poly = hull_to_hpolytope(&pts).unwrap();
        assert_eq!(poly.halfspaces().len(), 4);
        for h in poly.halfspaces() {
            assert!((h.normal().norm() - 1.0).abs() < 1e-12);
            for p in &pts {
                assert!(h.normal().dot(p) - h.offset() <= HULL_EPS * 3.0);
            }
        }
    }

    #[test]
    fn planar_hull_drops_edges_below_tolerance() {
        // Two vertices 1e-9 apart: the edge between them is shorter than
        // HULL_EPS, so it contributes no halfspace, and the remaining edges
        // still contain every point.
        let pts = vec![
            v2(0.0, 0.0),
            v2(1.0, 0.0),
            v2(1.0 + 1e-9, 1e-9),
            v2(0.0, 1.0),
        ];
        assert_eq!(hull_2d(&pts).unwrap().len(), 4);
        let poly = hull_to_hpolytope(&pts).unwrap();
        assert_eq!(poly.halfspaces().len(), 3);
        for p in &pts {
            assert!(poly.contains(p, HULL_EPS));
        }
    }

    #[test]
    fn polygon_area_triangle() {
        let tri = vec![v2(0.0, 0.0), v2(2.0, 0.0), v2(0.0, 2.0)];
        assert!((polygon_area(&tri) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn facets_of_square() {
        let pts = vec![
            v2(0.0, 0.0),
            v2(1.0, 0.0),
            v2(1.0, 1.0),
            v2(0.0, 1.0),
            v2(0.4, 0.6),
        ];
        let facets = facets_of_points(&pts);
        assert_eq!(facets.len(), 4);
        for f in &facets {
            assert_eq!(f.on_facet.len(), 2);
        }
    }

    #[test]
    fn facets_of_tetrahedron() {
        let pts = vec![
            Vector::from(vec![0.0, 0.0, 0.0]),
            Vector::from(vec![1.0, 0.0, 0.0]),
            Vector::from(vec![0.0, 1.0, 0.0]),
            Vector::from(vec![0.0, 0.0, 1.0]),
        ];
        let facets = facets_of_points(&pts);
        assert_eq!(facets.len(), 4);
    }

    #[test]
    fn hull_volume_matches_known_bodies() {
        // Unit square.
        let square = vec![v2(0.0, 0.0), v2(1.0, 0.0), v2(1.0, 1.0), v2(0.0, 1.0)];
        assert!((convex_hull_volume(&square) - 1.0).abs() < 1e-9);
        // Unit cube in 3D (8 corners), volume 1.
        let mut cube = Vec::new();
        for mask in 0..8u32 {
            cube.push(Vector::from(vec![
                (mask & 1) as f64,
                (mask >> 1 & 1) as f64,
                (mask >> 2 & 1) as f64,
            ]));
        }
        assert!((convex_hull_volume(&cube) - 1.0).abs() < 1e-6);
        // Standard 3-simplex, volume 1/6.
        let simplex = vec![
            Vector::from(vec![0.0, 0.0, 0.0]),
            Vector::from(vec![1.0, 0.0, 0.0]),
            Vector::from(vec![0.0, 1.0, 0.0]),
            Vector::from(vec![0.0, 0.0, 1.0]),
        ];
        assert!((convex_hull_volume(&simplex) - 1.0 / 6.0).abs() < 1e-6);
        // 4-dimensional hypercube, volume 1.
        let mut cube4 = Vec::new();
        for mask in 0..16u32 {
            cube4.push(Vector::from(vec![
                (mask & 1) as f64,
                (mask >> 1 & 1) as f64,
                (mask >> 2 & 1) as f64,
                (mask >> 3 & 1) as f64,
            ]));
        }
        assert!((convex_hull_volume(&cube4) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn degenerate_cloud_has_zero_volume() {
        // Four coplanar points in 3D.
        let flat = vec![
            Vector::from(vec![0.0, 0.0, 0.5]),
            Vector::from(vec![1.0, 0.0, 0.5]),
            Vector::from(vec![0.0, 1.0, 0.5]),
            Vector::from(vec![1.0, 1.0, 0.5]),
        ];
        assert!(convex_hull_volume(&flat).abs() < 1e-9);
        assert!(hull_to_hpolytope(&flat).is_none());
    }

    #[test]
    fn hull_to_hpolytope_roundtrip() {
        let pts = vec![
            v2(0.0, 0.0),
            v2(2.0, 0.0),
            v2(2.0, 1.0),
            v2(0.0, 1.0),
            v2(1.0, 0.5),
        ];
        let poly = hull_to_hpolytope(&pts).unwrap();
        assert!(poly.contains_slice(&[1.0, 0.5], 1e-9));
        assert!(poly.contains_slice(&[1.9, 0.9], 1e-6));
        assert!(!poly.contains_slice(&[2.1, 0.5], 1e-6));
        assert!(!poly.contains_slice(&[1.0, -0.1], 1e-6));
    }

    #[test]
    fn hull_to_hpolytope_1d() {
        let pts = vec![
            Vector::from(vec![3.0]),
            Vector::from(vec![-1.0]),
            Vector::from(vec![2.0]),
        ];
        let poly = hull_to_hpolytope(&pts).unwrap();
        assert!(poly.contains_slice(&[0.0], 0.0));
        assert!(!poly.contains_slice(&[3.5], 1e-9));
    }
}
