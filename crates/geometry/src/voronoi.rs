//! Voronoi cells and granular radii.
//!
//! §3.2 of the paper confines every robot to its own Voronoi cell to rule
//! out collisions, and further to its **granular**: the largest disc centred
//! on the robot and enclosed in its cell. For point sites, that disc's
//! radius is exactly *half the distance to the nearest other site* — the
//! nearest bisector is the closest cell boundary. We expose both the exact
//! granular radius and an explicit half-plane representation of the cell
//! (for membership tests and diagnostics), rather than a full plane
//! subdivision, because the protocols only ever query "is this move inside
//! my own cell?".

use crate::approx::Tolerance;
use crate::line::HalfPlane;
use crate::point::Point;
use crate::GeometryError;

/// The Voronoi cell of one site, as an intersection of half-planes.
#[derive(Debug, Clone, PartialEq)]
pub struct VoronoiCell {
    constraints: Vec<HalfPlane>,
}

impl VoronoiCell {
    /// Builds the cell of `sites[index]` with respect to all other sites.
    ///
    /// # Errors
    ///
    /// * [`GeometryError::IndexOutOfRange`] if `index` is not a valid site.
    /// * [`GeometryError::CoincidentPoints`] if two sites coincide (the
    ///   paper's robots occupy distinct positions).
    pub fn build(sites: &[Point], index: usize) -> Result<Self, GeometryError> {
        let site = *sites.get(index).ok_or(GeometryError::IndexOutOfRange {
            index,
            len: sites.len(),
        })?;
        let mut constraints = Vec::with_capacity(sites.len().saturating_sub(1));
        for (j, other) in sites.iter().enumerate() {
            if j == index {
                continue;
            }
            let hp =
                HalfPlane::voronoi(site, *other).map_err(|_| GeometryError::CoincidentPoints {
                    first: index.min(j),
                    second: index.max(j),
                })?;
            constraints.push(hp);
        }
        Ok(Self { constraints })
    }

    /// Whether `p` lies in the (closed) cell.
    #[must_use]
    pub fn contains(&self, p: Point, tol: Tolerance) -> bool {
        self.constraints.iter().all(|hp| hp.contains(p, tol))
    }
}

/// Radius of the granular of `sites[index]`: the largest disc centred on
/// the site and enclosed in its Voronoi cell, i.e. half the distance to the
/// nearest other site.
///
/// # Errors
///
/// * [`GeometryError::IndexOutOfRange`] if `index` is not a valid site.
/// * [`GeometryError::TooFewPoints`] with one site (no other site bounds
///   the cell, so the granular is unbounded).
/// * [`GeometryError::CoincidentPoints`] if the nearest other site
///   coincides with this one.
///
/// # Examples
///
/// ```
/// use stigmergy_geometry::{voronoi::granular_radius, Point};
/// let sites = [Point::new(0.0, 0.0), Point::new(3.0, 0.0), Point::new(0.0, 8.0)];
/// assert_eq!(granular_radius(&sites, 0)?, 1.5);
/// # Ok::<(), stigmergy_geometry::GeometryError>(())
/// ```
pub fn granular_radius(sites: &[Point], index: usize) -> Result<f64, GeometryError> {
    let site = *sites.get(index).ok_or(GeometryError::IndexOutOfRange {
        index,
        len: sites.len(),
    })?;
    if sites.len() < 2 {
        return Err(GeometryError::TooFewPoints {
            needed: 2,
            got: sites.len(),
        });
    }
    let mut best = f64::INFINITY;
    let mut nearest = index;
    for (j, other) in sites.iter().enumerate() {
        if j == index {
            continue;
        }
        let d = site.distance(*other);
        if d < best {
            best = d;
            nearest = j;
        }
    }
    if Tolerance::default().zero(best) {
        return Err(GeometryError::CoincidentPoints {
            first: index.min(nearest),
            second: index.max(nearest),
        });
    }
    Ok(best / 2.0)
}

/// Granular radii of every site; convenience wrapper over
/// [`granular_radius`].
///
/// # Errors
///
/// Propagates the first error from [`granular_radius`].
pub fn granular_radii(sites: &[Point]) -> Result<Vec<f64>, GeometryError> {
    (0..sites.len())
        .map(|i| granular_radius(sites, i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tol() -> Tolerance {
        Tolerance::default()
    }

    #[test]
    fn two_site_cell_is_half_plane() {
        let sites = [Point::new(0.0, 0.0), Point::new(4.0, 0.0)];
        let cell = VoronoiCell::build(&sites, 0).unwrap();
        assert!(cell.contains(Point::new(1.9, 100.0), tol()));
        assert!(cell.contains(Point::new(2.0, -5.0), tol())); // boundary
        assert!(!cell.contains(Point::new(2.1, 0.0), tol()));
    }

    #[test]
    fn cell_always_contains_its_site() {
        let sites = [
            Point::new(0.0, 0.0),
            Point::new(2.0, 1.0),
            Point::new(-1.0, 3.0),
            Point::new(1.0, -2.0),
        ];
        for i in 0..sites.len() {
            let cell = VoronoiCell::build(&sites, i).unwrap();
            assert!(cell.contains(sites[i], tol()), "site {i} outside own cell");
        }
    }

    #[test]
    fn cells_partition_by_nearest_site() {
        let sites = [
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(0.0, 4.0),
        ];
        let cells: Vec<VoronoiCell> = (0..3)
            .map(|i| VoronoiCell::build(&sites, i).unwrap())
            .collect();
        // Probe points: each must belong to exactly the cell of its nearest
        // site.
        let probes = [
            Point::new(0.5, 0.5),
            Point::new(3.5, 0.1),
            Point::new(0.1, 3.9),
            Point::new(-3.0, -3.0),
        ];
        for probe in probes {
            let nearest = (0..3)
                .min_by(|&a, &b| {
                    sites[a]
                        .distance(probe)
                        .partial_cmp(&sites[b].distance(probe))
                        .unwrap()
                })
                .unwrap();
            for (i, cell) in cells.iter().enumerate() {
                assert_eq!(
                    cell.contains(probe, tol()),
                    i == nearest,
                    "probe {probe} cell {i}"
                );
            }
        }
    }

    #[test]
    fn granular_radius_is_half_nearest_distance() {
        let sites = [
            Point::new(0.0, 0.0),
            Point::new(6.0, 0.0),
            Point::new(0.0, 2.0),
        ];
        assert_eq!(granular_radius(&sites, 0).unwrap(), 1.0);
        assert_eq!(granular_radius(&sites, 1).unwrap(), 3.0);
        assert_eq!(granular_radius(&sites, 2).unwrap(), 1.0);
    }

    #[test]
    fn granular_disc_inside_cell() {
        let sites = [
            Point::new(0.0, 0.0),
            Point::new(3.0, 1.0),
            Point::new(-2.0, 2.0),
            Point::new(1.0, -3.0),
        ];
        for i in 0..sites.len() {
            let r = granular_radius(&sites, i).unwrap();
            let cell = VoronoiCell::build(&sites, i).unwrap();
            // Sample the granular boundary densely; every sample must be in
            // the cell.
            for k in 0..64 {
                let theta = f64::from(k) * std::f64::consts::TAU / 64.0;
                let p = sites[i] + crate::point::Vec2::new(theta.cos(), theta.sin()) * (r * 0.999);
                assert!(cell.contains(p, tol()), "site {i} angle {theta}");
            }
        }
    }

    #[test]
    fn granular_discs_are_disjoint() {
        let sites = [
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.5),
            Point::new(-1.0, 1.5),
        ];
        let radii = granular_radii(&sites).unwrap();
        for i in 0..sites.len() {
            for j in (i + 1)..sites.len() {
                assert!(
                    sites[i].distance(sites[j]) >= radii[i] + radii[j] - 1e-12,
                    "granulars {i},{j} overlap"
                );
            }
        }
    }

    #[test]
    fn errors() {
        let sites = [Point::new(0.0, 0.0)];
        assert!(matches!(
            granular_radius(&sites, 0),
            Err(GeometryError::TooFewPoints { .. })
        ));
        assert!(matches!(
            granular_radius(&sites, 5),
            Err(GeometryError::IndexOutOfRange { .. })
        ));
        let dup = [Point::new(0.0, 0.0), Point::new(0.0, 0.0)];
        assert!(matches!(
            granular_radius(&dup, 0),
            Err(GeometryError::CoincidentPoints { .. })
        ));
        assert!(matches!(
            VoronoiCell::build(&dup, 0),
            Err(GeometryError::CoincidentPoints {
                first: 0,
                second: 1
            })
        ));
        assert!(matches!(
            VoronoiCell::build(&sites, 9),
            Err(GeometryError::IndexOutOfRange { .. })
        ));
    }
}

/// Computes the Voronoi cell of `sites[index]` as a convex polygon,
/// clipped to the axis-aligned box `[lo, hi]`.
///
/// The cell is the intersection of the box with every bisector half-plane
/// toward the other sites (Sutherland–Hodgman clipping). Vertices are in
/// counter-clockwise order. An empty result means the box does not reach
/// the cell (cannot happen when the box contains the site).
///
/// # Errors
///
/// As [`VoronoiCell::build`], plus [`GeometryError::TooFewPoints`] for a
/// degenerate box.
///
/// # Examples
///
/// ```
/// use stigmergy_geometry::{voronoi::cell_polygon, Point};
/// let sites = [Point::new(0.0, 0.0), Point::new(10.0, 0.0)];
/// let poly = cell_polygon(&sites, 0, Point::new(-20.0, -20.0), Point::new(20.0, 20.0))?;
/// // The left half of the box, up to the bisector x = 5.
/// assert!(poly.iter().all(|p| p.x <= 5.0 + 1e-9));
/// # Ok::<(), stigmergy_geometry::GeometryError>(())
/// ```
pub fn cell_polygon(
    sites: &[Point],
    index: usize,
    lo: Point,
    hi: Point,
) -> Result<Vec<Point>, GeometryError> {
    if !(lo.x < hi.x && lo.y < hi.y) {
        return Err(GeometryError::TooFewPoints { needed: 2, got: 0 });
    }
    let cell = VoronoiCell::build(sites, index)?;
    let mut polygon = vec![
        Point::new(lo.x, lo.y),
        Point::new(hi.x, lo.y),
        Point::new(hi.x, hi.y),
        Point::new(lo.x, hi.y),
    ];
    for hp in &cell.constraints {
        polygon = clip_polygon(&polygon, hp);
        if polygon.is_empty() {
            break;
        }
    }
    Ok(polygon)
}

/// Sutherland–Hodgman: clips a convex polygon against one half-plane.
fn clip_polygon(polygon: &[Point], hp: &HalfPlane) -> Vec<Point> {
    let mut out = Vec::with_capacity(polygon.len() + 1);
    let n = polygon.len();
    for k in 0..n {
        let a = polygon[k];
        let b = polygon[(k + 1) % n];
        let da = hp.margin(a);
        let db = hp.margin(b);
        if da >= 0.0 {
            out.push(a);
        }
        // The edge crosses the boundary: add the intersection point.
        if (da > 0.0 && db < 0.0) || (da < 0.0 && db > 0.0) {
            let t = da / (da - db);
            out.push(a.lerp(b, t));
        }
    }
    out
}

#[cfg(test)]
mod polygon_tests {
    use super::*;
    use crate::point::Vec2;

    #[test]
    fn two_sites_split_the_box() {
        let sites = [Point::new(0.0, 0.0), Point::new(10.0, 0.0)];
        let lo = Point::new(-20.0, -20.0);
        let hi = Point::new(20.0, 20.0);
        let left = cell_polygon(&sites, 0, lo, hi).unwrap();
        let right = cell_polygon(&sites, 1, lo, hi).unwrap();
        assert!(left.iter().all(|p| p.x <= 5.0 + 1e-9));
        assert!(right.iter().all(|p| p.x >= 5.0 - 1e-9));
        // The bisector x = 5 splits the 40×40 box into 25×40 and 15×40.
        assert!((polygon_area(&left) - 1000.0).abs() < 1e-6);
        assert!((polygon_area(&right) - 600.0).abs() < 1e-6);
    }

    #[test]
    fn cell_areas_partition_the_box() {
        let sites = [
            Point::new(1.0, 2.0),
            Point::new(8.0, 1.5),
            Point::new(4.0, 7.0),
            Point::new(2.0, 9.0),
            Point::new(9.0, 8.0),
        ];
        let lo = Point::new(-5.0, -5.0);
        let hi = Point::new(15.0, 15.0);
        let total: f64 = (0..sites.len())
            .map(|i| polygon_area(&cell_polygon(&sites, i, lo, hi).unwrap()))
            .sum();
        assert!(
            (total - 400.0).abs() < 1e-6,
            "areas sum to the box: {total}"
        );
    }

    #[test]
    fn polygon_contains_site_and_granular() {
        let sites = [
            Point::new(0.0, 0.0),
            Point::new(6.0, 1.0),
            Point::new(2.0, 6.0),
        ];
        let lo = Point::new(-10.0, -10.0);
        let hi = Point::new(16.0, 16.0);
        for i in 0..3 {
            let poly = cell_polygon(&sites, i, lo, hi).unwrap();
            assert!(
                point_in_convex(&poly, sites[i]),
                "site {i} outside its cell"
            );
            // Granular boundary samples are inside too.
            let r = granular_radius(&sites, i).unwrap();
            for k in 0..16 {
                let theta = f64::from(k) * std::f64::consts::TAU / 16.0;
                let p = sites[i] + Vec2::new(theta.cos(), theta.sin()) * (r * 0.99);
                assert!(point_in_convex(&poly, p), "site {i} angle {theta}");
            }
        }
    }

    #[test]
    fn polygon_vertices_are_equidistant_to_defining_sites() {
        // Every interior polygon vertex of a Voronoi cell lies on at least
        // one bisector: its distance to the owner equals its distance to
        // some other site (or it is a box corner/edge point).
        let sites = [
            Point::new(2.0, 2.0),
            Point::new(8.0, 3.0),
            Point::new(5.0, 8.0),
        ];
        let lo = Point::new(0.0, 0.0);
        let hi = Point::new(10.0, 10.0);
        let poly = cell_polygon(&sites, 0, lo, hi).unwrap();
        for v in &poly {
            let d0 = v.distance(sites[0]);
            let on_box = (v.x - lo.x).abs() < 1e-9
                || (v.x - hi.x).abs() < 1e-9
                || (v.y - lo.y).abs() < 1e-9
                || (v.y - hi.y).abs() < 1e-9;
            let on_bisector = (1..3).any(|j| (v.distance(sites[j]) - d0).abs() < 1e-6);
            assert!(on_box || on_bisector, "stray vertex {v}");
        }
    }

    #[test]
    fn degenerate_box_rejected() {
        let sites = [Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        assert!(matches!(
            cell_polygon(&sites, 0, Point::new(1.0, 1.0), Point::new(1.0, 5.0)),
            Err(GeometryError::TooFewPoints { .. })
        ));
    }

    fn polygon_area(poly: &[Point]) -> f64 {
        let n = poly.len();
        if n < 3 {
            return 0.0;
        }
        let mut twice = 0.0;
        for k in 0..n {
            let a = poly[k];
            let b = poly[(k + 1) % n];
            twice += a.x * b.y - b.x * a.y;
        }
        twice.abs() / 2.0
    }

    fn point_in_convex(poly: &[Point], p: Point) -> bool {
        let n = poly.len();
        if n < 3 {
            return false;
        }
        (0..n).all(|k| {
            let a = poly[k];
            let b = poly[(k + 1) % n];
            crate::point::orient(a, b, p) >= -1e-9
        })
    }
}
