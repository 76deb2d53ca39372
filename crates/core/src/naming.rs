//! Naming mechanisms: total orders over robots derived from observations.
//!
//! One-to-one communication needs to *address* a robot. The paper gives
//! three mechanisms, in decreasing order of assumed capabilities:
//!
//! * **ID order** (§3.2) — identified robots: rank by observable ID.
//! * **Lexicographic order** (§3.3) — anonymous robots *with sense of
//!   direction*: rank positions by the shared axes. Private frames differ
//!   only by translation and positive scale, which preserve the order.
//! * **SEC radial order** (§3.4, Fig. 4) — anonymous robots with chirality
//!   only: compute the (unique) smallest enclosing circle with centre `O`;
//!   an observer `r`'s *horizon* is the ray from `O` through `r`; robots are
//!   ranked by clockwise sweep from that ray, ties broken by distance from
//!   `O`. The labelling is observer-relative, but every robot can compute
//!   every other robot's labelling — which is all the decoders need.
//!
//! The module also provides the Fig. 3 impossibility witness:
//! [`rotational_symmetries`] detects configurations whose symmetry rules
//! out any *common* deterministic naming without sense of direction.

use std::error::Error;
use std::fmt;
use stigmergy_geometry::{smallest_enclosing_circle, Angle, Point, Tolerance};
use stigmergy_robots::VisibleId;

/// Errors from naming construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NamingError {
    /// Two robots share a position (or project identically), so no total
    /// order exists.
    AmbiguousPositions {
        /// First tied robot (input index).
        first: usize,
        /// Second tied robot (input index).
        second: usize,
    },
    /// A robot sits exactly at the SEC centre: its horizon ray is
    /// undefined. The paper implicitly excludes this degenerate
    /// configuration.
    RobotAtSecCenter {
        /// The offending robot (input index).
        robot: usize,
    },
    /// The underlying geometry failed (e.g. an empty cohort).
    Geometry(stigmergy_geometry::GeometryError),
}

impl fmt::Display for NamingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NamingError::AmbiguousPositions { first, second } => {
                write!(f, "robots {first} and {second} cannot be ordered")
            }
            NamingError::RobotAtSecCenter { robot } => {
                write!(f, "robot {robot} sits at the SEC centre; horizon undefined")
            }
            NamingError::Geometry(e) => write!(f, "geometry error: {e}"),
        }
    }
}

impl Error for NamingError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NamingError::Geometry(e) => Some(e),
            _ => None,
        }
    }
}

impl From<stigmergy_geometry::GeometryError> for NamingError {
    fn from(e: stigmergy_geometry::GeometryError) -> Self {
        NamingError::Geometry(e)
    }
}

/// A bijection between robot input indices and labels `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Labeling {
    /// `by_label[l]` = input index of the robot labelled `l`.
    by_label: Vec<usize>,
    /// `label_of[i]` = label of input index `i`.
    label_of: Vec<usize>,
}

impl Labeling {
    fn from_order(order: Vec<usize>) -> Self {
        let mut label_of = vec![0usize; order.len()];
        for (label, &idx) in order.iter().enumerate() {
            label_of[idx] = label;
        }
        Self {
            by_label: order,
            label_of,
        }
    }

    /// The input index carrying `label`.
    #[must_use]
    pub fn index_of(&self, label: usize) -> Option<usize> {
        self.by_label.get(label).copied()
    }

    /// The label of input index `i`.
    #[must_use]
    pub fn label_of(&self, i: usize) -> Option<usize> {
        self.label_of.get(i).copied()
    }

    /// Number of robots labelled.
    #[must_use]
    pub fn len(&self) -> usize {
        self.by_label.len()
    }

    /// Whether the labelling is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.by_label.is_empty()
    }
}

/// Ranks identified robots by their observable IDs (§3.2).
///
/// Label 0 is the smallest ID.
///
/// # Errors
///
/// Returns [`NamingError::AmbiguousPositions`] if two IDs are equal (the
/// model guarantees distinct IDs; duplicated input is a caller bug surfaced
/// as an error rather than UB).
pub fn label_by_id(ids: &[VisibleId]) -> Result<Labeling, NamingError> {
    let mut order: Vec<usize> = (0..ids.len()).collect();
    order.sort_by_key(|&i| ids[i]);
    for w in order.windows(2) {
        if ids[w[0]] == ids[w[1]] {
            return Err(NamingError::AmbiguousPositions {
                first: w[0].min(w[1]),
                second: w[0].max(w[1]),
            });
        }
    }
    Ok(Labeling::from_order(order))
}

/// Ranks anonymous robots by lexicographic position order (§3.3).
///
/// Requires sense of direction: all observers' frames share axes up to
/// translation and positive scale, under which `(x, y)` lexicographic
/// order is invariant — so every robot computes the *same* labelling.
///
/// # Errors
///
/// Returns [`NamingError::AmbiguousPositions`] if two robots coincide.
pub fn label_by_lex(positions: &[Point]) -> Result<Labeling, NamingError> {
    let tol = Tolerance::default();
    let mut order: Vec<usize> = (0..positions.len()).collect();
    order.sort_by(|&a, &b| {
        let (pa, pb) = (positions[a], positions[b]);
        pa.x.partial_cmp(&pb.x)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(pa.y.partial_cmp(&pb.y).unwrap_or(std::cmp::Ordering::Equal))
    });
    for w in order.windows(2) {
        if positions[w[0]].approx_eq(positions[w[1]]) {
            let _ = tol;
            return Err(NamingError::AmbiguousPositions {
                first: w[0].min(w[1]),
                second: w[0].max(w[1]),
            });
        }
    }
    Ok(Labeling::from_order(order))
}

/// Ranks anonymous robots by the SEC radial sweep relative to `observer`
/// (§3.4, Fig. 4).
///
/// Robots are numbered following the radii of the SEC in the clockwise
/// direction, starting from the observer's horizon (the ray from the SEC
/// centre `O` through the observer); robots on the same radius are
/// numbered by increasing distance from `O`. Note the observer is not
/// necessarily labelled 0 — robots between `O` and the observer on its own
/// radius come first, exactly as the paper remarks.
///
/// # Errors
///
/// * [`NamingError::RobotAtSecCenter`] if any robot (in particular the
///   observer) sits at `O`.
/// * [`NamingError::AmbiguousPositions`] if two robots coincide.
/// * [`NamingError::Geometry`] for an empty cohort or bad index.
pub fn label_by_sec(positions: &[Point], observer: usize) -> Result<Labeling, NamingError> {
    if observer >= positions.len() {
        return Err(NamingError::Geometry(
            stigmergy_geometry::GeometryError::IndexOutOfRange {
                index: observer,
                len: positions.len(),
            },
        ));
    }
    let sec = smallest_enclosing_circle(positions)?;
    let center = sec.center;
    let tol = Tolerance::default();

    // Horizon direction: from O outward through the observer.
    let horizon = positions[observer] - center;
    if tol.zero(horizon.norm()) {
        return Err(NamingError::RobotAtSecCenter { robot: observer });
    }

    // (clockwise angle from horizon, distance from O) per robot.
    let mut keys: Vec<(f64, f64, usize)> = Vec::with_capacity(positions.len());
    for (i, &p) in positions.iter().enumerate() {
        let v = p - center;
        if tol.zero(v.norm()) {
            return Err(NamingError::RobotAtSecCenter { robot: i });
        }
        let mut angle = Angle::clockwise_from(horizon, v)?.radians();
        // Robots on the horizon itself must sort first: snap near-2π to 0.
        if (std::f64::consts::TAU - angle) < 1e-9 {
            angle = 0.0;
        }
        keys.push((angle, v.norm(), i));
    }
    keys.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
    });
    for w in keys.windows(2) {
        if positions[w[0].2].approx_eq(positions[w[1].2]) {
            return Err(NamingError::AmbiguousPositions {
                first: w[0].2.min(w[1].2),
                second: w[0].2.max(w[1].2),
            });
        }
    }
    Ok(Labeling::from_order(
        keys.into_iter().map(|k| k.2).collect(),
    ))
}

/// Finds the non-trivial rotational symmetries of a configuration about
/// its SEC centre: angles `θ ∈ (0, 2π)` whose rotation maps the point set
/// onto itself.
///
/// A configuration with such a symmetry admits **no** deterministic common
/// naming for robots with chirality only — the Fig. 3 impossibility. (The
/// per-observer SEC naming sidesteps this by being observer-relative.)
///
/// # Errors
///
/// Propagates geometry failures (empty input).
pub fn rotational_symmetries(positions: &[Point]) -> Result<Vec<f64>, NamingError> {
    let sec = smallest_enclosing_circle(positions)?;
    let center = sec.center;
    let n = positions.len();
    if n < 2 {
        return Ok(Vec::new());
    }
    let tol = 1e-6;
    let mut found = Vec::new();
    // Candidate angles: those mapping point 0 onto some point j.
    let v0 = positions[0] - center;
    if v0.norm() < tol {
        // Point at the centre: rotation candidates come from any other pair;
        // for simplicity test the divisors of the full turn up to n.
        for k in 1..n {
            let theta = std::f64::consts::TAU * (k as f64) / (n as f64);
            if is_symmetry(positions, center, theta, tol) {
                found.push(theta);
            }
        }
        return Ok(found);
    }
    for j in 0..n {
        let vj = positions[j] - center;
        if vj.norm() < tol || (v0.norm() - vj.norm()).abs() > tol {
            continue;
        }
        let theta = Angle::clockwise_from(vj, v0)
            .map(Angle::radians)
            .unwrap_or(0.0);
        if theta < 1e-9 || (std::f64::consts::TAU - theta) < 1e-9 {
            continue;
        }
        if is_symmetry(positions, center, theta, tol) {
            found.push(theta);
        }
    }
    found.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    found.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
    Ok(found)
}

/// Quantization grid for [`election_signature`]: normalized distance
/// ratios are snapped to `1 / SIGNATURE_GRID` buckets so that every
/// observer — whose private frame differs by translation, rotation and
/// positive scale, perturbing ratios only at the 1e-15 level — computes
/// the *same* signature for the same robot.
const SIGNATURE_GRID: f64 = (1u64 << 30) as f64;

/// A similarity-invariant signature of `robot`'s place in the
/// configuration, for symmetry-aware leader election.
///
/// The signature is an FNV-1a hash of the sorted, diameter-normalized,
/// quantized distances from `robot` to every other robot. Distance
/// ratios are invariant under translation, rotation, reflection and
/// uniform scaling, so every observer computes the same value from its
/// own private frame — no shared coordinate system needed.
///
/// Two robots get the *same* signature exactly when the configuration
/// cannot distinguish them by distances — in particular whenever a
/// non-trivial [`rotational_symmetries`] orbit maps one onto the other
/// (the degenerate all-robots-on-a-regular-ring SEC configuration is the
/// canonical case). A leader election over signatures must treat a
/// duplicated minimum as a deterministic *rejection*: electing either
/// twin would require breaking a symmetry that, per Fig. 3, no
/// deterministic chirality-only algorithm can break.
///
/// # Errors
///
/// * [`NamingError::Geometry`] for an empty cohort or out-of-range index.
/// * [`NamingError::AmbiguousPositions`] when all robots coincide (no
///   diameter to normalize by).
pub fn election_signature(positions: &[Point], robot: usize) -> Result<u64, NamingError> {
    if positions.is_empty() {
        return Err(NamingError::Geometry(
            stigmergy_geometry::GeometryError::TooFewPoints { needed: 1, got: 0 },
        ));
    }
    if robot >= positions.len() {
        return Err(NamingError::Geometry(
            stigmergy_geometry::GeometryError::IndexOutOfRange {
                index: robot,
                len: positions.len(),
            },
        ));
    }
    let n = positions.len();
    let mut diameter = 0.0f64;
    for i in 0..n {
        for j in (i + 1)..n {
            diameter = diameter.max(positions[i].distance(positions[j]));
        }
    }
    if n > 1 && diameter <= 0.0 {
        return Err(NamingError::AmbiguousPositions {
            first: 0,
            second: 1,
        });
    }
    let mut quantized: Vec<u64> = (0..n)
        .filter(|&j| j != robot)
        .map(|j| {
            let ratio = positions[robot].distance(positions[j]) / diameter;
            (ratio * SIGNATURE_GRID).round() as u64
        })
        .collect();
    quantized.sort_unstable();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for q in quantized {
        for byte in q.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    Ok(hash)
}

/// The [`election_signature`] of every robot, in input order.
///
/// # Errors
///
/// Same conditions as [`election_signature`].
pub fn election_signatures(positions: &[Point]) -> Result<Vec<u64>, NamingError> {
    (0..positions.len())
        .map(|i| election_signature(positions, i))
        .collect()
}

/// Whether rotating every point clockwise by `theta` about `center` maps
/// the set onto itself.
fn is_symmetry(positions: &[Point], center: Point, theta: f64, tol: f64) -> bool {
    positions.iter().all(|&p| {
        let rotated = center + (p - center).rotated(-theta);
        positions.iter().any(|&q| q.distance(rotated) < tol)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{PI, TAU};
    use stigmergy_geometry::Vec2;

    #[test]
    fn id_order_ranks_by_id() {
        let ids = [VisibleId::new(30), VisibleId::new(10), VisibleId::new(20)];
        let l = label_by_id(&ids).unwrap();
        assert_eq!(l.len(), 3);
        assert_eq!(l.index_of(0), Some(1)); // id 10
        assert_eq!(l.index_of(1), Some(2)); // id 20
        assert_eq!(l.index_of(2), Some(0)); // id 30
        assert_eq!(l.label_of(0), Some(2));
        assert_eq!(l.label_of(9), None);
        assert_eq!(l.index_of(9), None);
        assert!(!l.is_empty());
    }

    #[test]
    fn duplicate_ids_rejected() {
        let ids = [VisibleId::new(5), VisibleId::new(5)];
        assert!(matches!(
            label_by_id(&ids),
            Err(NamingError::AmbiguousPositions {
                first: 0,
                second: 1
            })
        ));
    }

    #[test]
    fn lex_order_is_x_then_y() {
        let pts = [
            Point::new(1.0, 5.0),
            Point::new(0.0, 9.0),
            Point::new(1.0, -2.0),
        ];
        let l = label_by_lex(&pts).unwrap();
        assert_eq!(l.index_of(0), Some(1));
        assert_eq!(l.index_of(1), Some(2));
        assert_eq!(l.index_of(2), Some(0));
    }

    #[test]
    fn lex_order_invariant_under_translation_and_scale() {
        // The §3.3 argument: frames share axes; translation + positive
        // scale preserve the order.
        let pts = [
            Point::new(0.3, 1.9),
            Point::new(-1.2, 0.4),
            Point::new(2.5, -0.7),
            Point::new(0.3, -2.1),
        ];
        let base = label_by_lex(&pts).unwrap();
        for (dx, dy, s) in [(10.0, -5.0, 1.0), (0.0, 0.0, 3.7), (-2.0, 8.0, 0.2)] {
            let moved: Vec<Point> = pts
                .iter()
                .map(|p| Point::new((p.x + dx) * s, (p.y + dy) * s))
                .collect();
            let l = label_by_lex(&moved).unwrap();
            assert_eq!(l, base, "dx={dx} dy={dy} s={s}");
        }
    }

    #[test]
    fn lex_rejects_coincident() {
        let pts = [Point::ORIGIN, Point::ORIGIN];
        assert!(matches!(
            label_by_lex(&pts),
            Err(NamingError::AmbiguousPositions { .. })
        ));
    }

    /// Fig. 4-style layout: observer on a ring with others.
    fn ring(n: usize, radius: f64) -> Vec<Point> {
        (0..n)
            .map(|k| {
                let theta = TAU * (k as f64) / (n as f64);
                Point::new(radius * theta.sin(), radius * theta.cos())
            })
            .collect()
    }

    #[test]
    fn sec_order_starts_at_observer_radius() {
        // Four robots on a circle: observer 0 at top (North). Clockwise
        // sweep: 0 (self), 1 (East), 2 (South), 3 (West).
        let pts = ring(4, 2.0);
        let l = label_by_sec(&pts, 0).unwrap();
        assert_eq!(l.index_of(0), Some(0));
        assert_eq!(l.index_of(1), Some(1));
        assert_eq!(l.index_of(2), Some(2));
        assert_eq!(l.index_of(3), Some(3));
        // From observer 1's horizon the order rotates.
        let l1 = label_by_sec(&pts, 1).unwrap();
        assert_eq!(l1.index_of(0), Some(1));
        assert_eq!(l1.index_of(1), Some(2));
        assert_eq!(l1.index_of(2), Some(3));
        assert_eq!(l1.index_of(3), Some(0));
    }

    #[test]
    fn sec_order_breaks_radius_ties_by_distance() {
        // Observer at the rim, another robot between O and the observer on
        // the same radius: the inner robot gets the smaller label (the
        // paper: "r is not necessarily labeled 0").
        let pts = vec![
            Point::new(0.0, 2.0),  // 0: observer at rim (North)
            Point::new(0.0, 1.0),  // 1: same radius, nearer O
            Point::new(0.0, -2.0), // 2: South rim (pins the SEC)
            Point::new(1.9, 0.0),  // 3: East-ish
        ];
        let l = label_by_sec(&pts, 0).unwrap();
        assert_eq!(l.label_of(1), Some(0), "inner robot first");
        assert_eq!(l.label_of(0), Some(1), "observer second");
        assert_eq!(l.label_of(3), Some(2), "east next (clockwise)");
        assert_eq!(l.label_of(2), Some(3));
    }

    #[test]
    fn sec_order_is_chirality_invariant() {
        // Rotating the whole configuration (all observers' frames rotate
        // with the world) must not change any observer's labelling.
        let pts = vec![
            Point::new(0.1, 1.9),
            Point::new(1.3, -0.4),
            Point::new(-1.6, -0.9),
            Point::new(0.4, 0.2),
            Point::new(-0.3, 1.1),
        ];
        for obs in 0..pts.len() {
            let base = label_by_sec(&pts, obs).unwrap();
            for theta in [0.7, 2.1, 4.4] {
                let rotated: Vec<Point> = pts
                    .iter()
                    .map(|p| Point::from(p.to_vec().rotated(theta)))
                    .collect();
                let l = label_by_sec(&rotated, obs).unwrap();
                assert_eq!(l, base, "observer {obs} rotation {theta}");
            }
            // And under translation + scale.
            let mapped: Vec<Point> = pts
                .iter()
                .map(|p| Point::new(3.0 * p.x + 10.0, 3.0 * p.y - 4.0))
                .collect();
            assert_eq!(label_by_sec(&mapped, obs).unwrap(), base);
        }
    }

    #[test]
    fn every_observer_can_compute_every_labelling() {
        // The redundancy property: labellings depend only on positions and
        // the observer *index*, which all robots share knowledge of.
        let pts = ring(6, 3.0);
        for obs in 0..6 {
            let l = label_by_sec(&pts, obs).unwrap();
            assert_eq!(l.len(), 6);
            // Labels are a permutation.
            let mut seen = [false; 6];
            for i in 0..6 {
                seen[l.label_of(i).unwrap()] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn observer_at_sec_center_rejected() {
        let pts = vec![
            Point::ORIGIN, // dead centre
            Point::new(0.0, 2.0),
            Point::new(0.0, -2.0),
        ];
        assert!(matches!(
            label_by_sec(&pts, 0),
            Err(NamingError::RobotAtSecCenter { robot: 0 })
        ));
        // Even another observer fails: labels must cover *all* robots.
        assert!(matches!(
            label_by_sec(&pts, 1),
            Err(NamingError::RobotAtSecCenter { robot: 0 })
        ));
    }

    #[test]
    fn sec_bad_observer_index() {
        let pts = ring(3, 1.0);
        assert!(matches!(
            label_by_sec(&pts, 7),
            Err(NamingError::Geometry(_))
        ));
    }

    /// The Fig. 3 configuration: three pairs of robots arranged with
    /// 180° rotational symmetry.
    fn fig3_symmetric() -> Vec<Point> {
        let base = [
            Point::new(1.0, 0.2),
            Point::new(0.4, 1.3),
            Point::new(-0.8, 0.9),
        ];
        let mut pts = base.to_vec();
        pts.extend(base.iter().map(|p| Point::new(-p.x, -p.y)));
        pts
    }

    #[test]
    fn fig3_symmetry_detected() {
        let pts = fig3_symmetric();
        let syms = rotational_symmetries(&pts).unwrap();
        assert_eq!(syms.len(), 1, "exactly the half turn: {syms:?}");
        assert!((syms[0] - PI).abs() < 1e-6);
    }

    #[test]
    fn asymmetric_configuration_has_no_symmetry() {
        let pts = vec![
            Point::new(0.0, 2.0),
            Point::new(1.7, -0.3),
            Point::new(-1.1, -1.2),
            Point::new(0.2, 0.4),
        ];
        assert!(rotational_symmetries(&pts).unwrap().is_empty());
    }

    #[test]
    fn regular_ring_has_full_symmetry_group() {
        let pts = ring(5, 2.0);
        let syms = rotational_symmetries(&pts).unwrap();
        assert_eq!(syms.len(), 4); // rotations by 2πk/5, k=1..4
    }

    #[test]
    fn degenerate_symmetry_inputs() {
        assert!(rotational_symmetries(&[Point::ORIGIN]).unwrap().is_empty());
        assert!(matches!(
            rotational_symmetries(&[]),
            Err(NamingError::Geometry(_))
        ));
    }

    #[test]
    fn symmetric_config_breaks_common_naming_but_not_sec_naming() {
        // In the Fig. 3 configuration the SEC naming still works — it is
        // observer-relative. Two antipodal observers get *different*
        // labellings, which is exactly why it evades the impossibility.
        let pts = fig3_symmetric();
        let l0 = label_by_sec(&pts, 0).unwrap();
        let l3 = label_by_sec(&pts, 3).unwrap();
        // Antipodal observers label themselves the same rank…
        assert_eq!(l0.label_of(0), l3.label_of(3));
        // …and each other symmetric ranks.
        assert_eq!(l0.label_of(3), l3.label_of(0));
    }

    #[test]
    fn signatures_distinct_on_asymmetric_configurations() {
        let pts = vec![
            Point::new(0.0, 2.0),
            Point::new(1.7, -0.3),
            Point::new(-1.1, -1.2),
            Point::new(0.2, 0.4),
        ];
        assert!(rotational_symmetries(&pts).unwrap().is_empty());
        let sigs = election_signatures(&pts).unwrap();
        let mut sorted = sigs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), pts.len(), "collision on asymmetric config");
    }

    #[test]
    fn signatures_collide_exactly_on_symmetry_orbits() {
        // Regular ring: full rotation group, every robot equivalent —
        // all signatures identical. This is the degenerate
        // all-robots-on-SEC configuration leader election must reject.
        let pts = ring(5, 2.0);
        assert!(!rotational_symmetries(&pts).unwrap().is_empty());
        let sigs = election_signatures(&pts).unwrap();
        assert!(sigs.windows(2).all(|w| w[0] == w[1]), "{sigs:?}");

        // Fig. 3: half-turn symmetry pairs robots i and i+3.
        let pts = fig3_symmetric();
        let sigs = election_signatures(&pts).unwrap();
        for i in 0..3 {
            assert_eq!(sigs[i], sigs[i + 3], "antipodal twins must tie");
        }
        // A symmetric configuration has no unique minimum to elect.
        let min = *sigs.iter().min().unwrap();
        assert!(sigs.iter().filter(|&&s| s == min).count() > 1);
    }

    #[test]
    fn signatures_are_similarity_invariant() {
        let pts = vec![
            Point::new(0.1, 1.9),
            Point::new(1.3, -0.4),
            Point::new(-1.6, -0.9),
            Point::new(0.4, 0.2),
        ];
        let base = election_signatures(&pts).unwrap();
        for (theta, s, dx, dy) in [(0.7, 3.0, 10.0, -4.0), (2.1, 0.25, -1.0, 8.0)] {
            let mapped: Vec<Point> = pts
                .iter()
                .map(|p| {
                    let v = p.to_vec().rotated(theta);
                    Point::new(v.x * s + dx, v.y * s + dy)
                })
                .collect();
            assert_eq!(election_signatures(&mapped).unwrap(), base);
        }
    }

    #[test]
    fn signature_degenerate_inputs() {
        assert!(matches!(
            election_signature(&[], 0),
            Err(NamingError::Geometry(_))
        ));
        assert!(matches!(
            election_signature(&[Point::ORIGIN], 3),
            Err(NamingError::Geometry(_))
        ));
        // A single robot has a well-defined (empty-distance-list) signature.
        assert!(election_signature(&[Point::ORIGIN], 0).is_ok());
        // All-coincident robots have no diameter to normalize by.
        assert!(matches!(
            election_signature(&[Point::ORIGIN, Point::ORIGIN], 0),
            Err(NamingError::AmbiguousPositions { .. })
        ));
    }

    #[test]
    fn error_display() {
        let e = NamingError::RobotAtSecCenter { robot: 2 };
        assert!(e.to_string().contains("SEC"));
        let g: NamingError = stigmergy_geometry::GeometryError::ZeroDirection.into();
        assert!(Error::source(&g).is_some());
        let _ = Vec2::ZERO; // silence unused import on some cfgs
    }
}
