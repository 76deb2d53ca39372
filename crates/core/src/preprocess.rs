//! The `t0` preprocessing pipeline (§3.2 steps 1–2, §3.4, §4.2).
//!
//! At the first activation every robot, from its view of `P(t0)`, computes:
//!
//! 1. the **Voronoi granulars** — for each robot, the largest disc centred
//!    on it inside its Voronoi cell (movement is confined there, ruling out
//!    collisions);
//! 2. the **slicing** of each granular into labelled diameters — the
//!    movement "keyboard" (reference direction North with sense of
//!    direction, or the robot's SEC horizon with chirality only; the
//!    asynchronous protocol adds the extra κ diameter);
//! 3. the **naming** — the labelling of robots used to address slices.
//!
//! All of it is built from positions alone with similarity-invariant
//! constructions, so every robot computes *consistent* keyboards and
//! labellings in its own private frame — the linchpin of decodability.

use crate::naming::{label_by_id, label_by_lex, label_by_sec, Labeling, NamingError};
use crate::CoreError;
use stigmergy_geometry::granular::{SliceZone, SlicedGranular};
use stigmergy_geometry::voronoi::granular_radius;
use stigmergy_geometry::{smallest_enclosing_circle, Point, Tolerance, Vec2};
use stigmergy_robots::{Capabilities, View, VisibleId};

/// Which naming mechanism the cohort uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NamingScheme {
    /// Observable-ID order (§3.2) — requires identified robots.
    ById,
    /// Lexicographic position order (§3.3) — requires sense of direction.
    ByLex,
    /// Observer-relative SEC radial order (§3.4) — chirality only.
    BySec,
}

impl NamingScheme {
    /// The capabilities a cohort needs for this naming: IDs and a common
    /// North for [`NamingScheme::ById`], a common North for
    /// [`NamingScheme::ByLex`], chirality only for [`NamingScheme::BySec`].
    #[must_use]
    pub const fn capabilities(self) -> Capabilities {
        match self {
            NamingScheme::ById => Capabilities::identified_with_direction(),
            NamingScheme::ByLex => Capabilities::anonymous_with_direction(),
            NamingScheme::BySec => Capabilities::anonymous(),
        }
    }

    /// The labelling robot `observer` computes of the cohort at `homes`
    /// (or of its `ids`, under [`NamingScheme::ById`]).
    fn labeling(
        self,
        homes: &[Point],
        ids: Option<&[VisibleId]>,
        observer: usize,
    ) -> Result<Labeling, CoreError> {
        // Missing IDs surface as the naming failure they cause.
        let no_ids = NamingError::AmbiguousPositions {
            first: 0,
            second: 0,
        };
        Ok(match self {
            NamingScheme::ById => label_by_id(ids.ok_or(no_ids)?)?,
            NamingScheme::ByLex => label_by_lex(homes)?,
            NamingScheme::BySec => label_by_sec(homes, observer)?,
        })
    }

    /// The label of robot `to` as seen by robot `from` — the address
    /// `from` puts on a message for `to` — given the cohort's `homes` and,
    /// for [`NamingScheme::ById`], its visible `ids`. Every scheme is
    /// similarity-invariant, so world positions give the labels each
    /// robot computes in its private frame.
    ///
    /// # Errors
    ///
    /// [`CoreError::Naming`] for a degenerate configuration or missing
    /// IDs; [`CoreError::UnknownDestination`] if `to` is outside the
    /// cohort.
    pub fn label_of(
        self,
        homes: &[Point],
        ids: Option<&[VisibleId]>,
        from: usize,
        to: usize,
    ) -> Result<usize, CoreError> {
        self.labeling(homes, ids, from)?
            .label_of(to)
            .ok_or(CoreError::UnknownDestination {
                dest: to,
                cohort: homes.len(),
            })
    }
}

/// The fully preprocessed swarm geometry from one robot's perspective.
///
/// Home index 0 is always the observing robot itself; the others follow in
/// the view order (sorted by local coordinates). Home positions never
/// change: every protocol returns robots to (or keeps them within a
/// granular of) their `P(t0)` position.
#[derive(Debug, Clone, PartialEq)]
pub struct SwarmGeometry {
    homes: Vec<Point>,
    ids: Option<Vec<VisibleId>>,
    granulars: Vec<SlicedGranular>,
    labelings: Vec<Labeling>,
    scheme: NamingScheme,
    kappa: bool,
}

impl SwarmGeometry {
    /// Builds the geometry from a `t0` view.
    ///
    /// `with_kappa` adds the extra κ diameter of the asynchronous protocol
    /// (§4.2): slice 0 becomes κ and addressing slices shift up by one.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Naming`] for degenerate configurations (coincident
    ///   robots, a robot at the SEC centre under [`NamingScheme::BySec`],
    ///   missing IDs under [`NamingScheme::ById`]).
    /// * [`CoreError::Geometry`] if granulars cannot be computed (fewer
    ///   than two robots).
    pub fn build(view: &View, scheme: NamingScheme, with_kappa: bool) -> Result<Self, CoreError> {
        let observed: Vec<_> = view.all().collect();
        let homes: Vec<Point> = observed.iter().map(|o| o.position).collect();
        let n = homes.len();
        if n < 2 {
            return Err(CoreError::WrongCohortSize {
                needed: "at least 2",
                got: n,
            });
        }
        let ids: Option<Vec<VisibleId>> = observed.iter().map(|o| o.id).collect();

        // Naming: one global labelling, or one per observer under SEC.
        let labelings: Vec<Labeling> = match scheme {
            NamingScheme::ById | NamingScheme::ByLex => {
                vec![scheme.labeling(&homes, ids.as_deref(), 0)?; n]
            }
            NamingScheme::BySec => (0..n)
                .map(|i| scheme.labeling(&homes, None, i))
                .collect::<Result<_, _>>()?,
        };

        // Slice references.
        let references: Vec<Vec2> = match scheme {
            NamingScheme::ById | NamingScheme::ByLex => vec![Vec2::NORTH; n],
            NamingScheme::BySec => {
                let sec = smallest_enclosing_circle(&homes)?;
                homes.iter().map(|&h| h - sec.center).collect()
            }
        };

        // Granulars.
        let slices = n + usize::from(with_kappa);
        let granulars: Vec<SlicedGranular> = (0..n)
            .map(|i| {
                let r = granular_radius(&homes, i)?;
                SlicedGranular::with_reference(homes[i], r, slices, references[i])
            })
            .collect::<Result<_, _>>()?;

        Ok(Self {
            homes,
            ids,
            granulars,
            labelings,
            scheme,
            kappa: with_kappa,
        })
    }

    /// Number of robots.
    #[must_use]
    pub fn cohort(&self) -> usize {
        self.homes.len()
    }

    /// Whether keyboards carry the extra κ slice.
    #[must_use]
    pub fn has_kappa(&self) -> bool {
        self.kappa
    }

    /// Home position of robot `home` (local coordinates).
    #[must_use]
    pub fn home(&self, home: usize) -> Point {
        self.homes[home]
    }

    /// All home positions.
    #[must_use]
    pub fn homes(&self) -> &[Point] {
        &self.homes
    }

    /// The sliced granular (keyboard) of robot `home`.
    #[must_use]
    pub fn keyboard(&self, home: usize) -> &SlicedGranular {
        &self.granulars[home]
    }

    /// Visible ID of robot `home` (identified systems only).
    #[must_use]
    pub fn id_of(&self, home: usize) -> Option<VisibleId> {
        self.ids.as_ref().map(|ids| ids[home])
    }

    /// The label of `target` in `perspective`'s naming.
    ///
    /// For [`NamingScheme::ById`] / [`NamingScheme::ByLex`] the labelling is
    /// global and `perspective` is irrelevant; for [`NamingScheme::BySec`]
    /// it is the sender-relative labelling every observer recomputes.
    #[must_use]
    pub fn label_for(&self, perspective: usize, target: usize) -> usize {
        self.labelings[perspective]
            .label_of(target)
            .expect("target within cohort")
    }

    /// Inverse of [`SwarmGeometry::label_for`].
    #[must_use]
    pub fn home_for(&self, perspective: usize, label: usize) -> Option<usize> {
        self.labelings[perspective].index_of(label)
    }

    /// The keyboard slice that addresses `label`.
    #[must_use]
    pub fn slice_for_label(&self, label: usize) -> usize {
        label + usize::from(self.kappa)
    }

    /// The label addressed by `slice`, or `None` for κ.
    #[must_use]
    pub fn label_for_slice(&self, slice: usize) -> Option<usize> {
        if self.kappa {
            slice.checked_sub(1)
        } else {
            Some(slice)
        }
    }

    /// The κ slice index, if the keyboards have one.
    #[must_use]
    pub fn kappa_slice(&self) -> Option<usize> {
        self.kappa.then_some(0)
    }

    /// Identifies which robot an observed point belongs to: the robot whose
    /// granular contains it. Granulars are pairwise disjoint, so the answer
    /// is unique; `None` means the point is in no granular (a model
    /// violation by some robot).
    #[must_use]
    pub fn identify(&self, p: Point) -> Option<usize> {
        let tol = Tolerance::default();
        self.granulars.iter().position(|g| g.contains(p, tol))
    }

    /// Classifies an observed point on its owner's keyboard.
    ///
    /// Returns `(home, zone)` or `None` if the point matches no granular.
    #[must_use]
    pub fn classify(&self, p: Point) -> Option<(usize, SliceZone)> {
        let home = self.identify(p)?;
        let zone = self.granulars[home].classify(p, Tolerance::default());
        Some((home, zone))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stigmergy_geometry::granular::SliceSide;
    use stigmergy_robots::Observed;

    fn view_of(positions: &[Point], ids: bool) -> View {
        let mk = |i: usize, p: Point| Observed {
            position: p,
            id: ids.then(|| VisibleId::new(100 + i as u32 * 3)),
        };
        View::new(
            mk(0, positions[0]),
            positions[1..]
                .iter()
                .enumerate()
                .map(|(i, &p)| mk(i + 1, p))
                .collect(),
            1.0,
        )
    }

    fn square() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(0.0, 10.0),
        ]
    }

    #[test]
    fn build_lex() {
        let view = view_of(&square(), false);
        let g = SwarmGeometry::build(&view, NamingScheme::ByLex, false).unwrap();
        assert_eq!(g.cohort(), 4);
        assert_eq!(g.scheme, NamingScheme::ByLex);
        assert!(!g.has_kappa());
        assert_eq!(g.kappa_slice(), None);
        // Same labelling from every perspective.
        for p in 0..4 {
            for t in 0..4 {
                assert_eq!(g.label_for(p, t), g.label_for(0, t));
            }
        }
        // Keyboards have n slices and half-nearest-distance radii.
        for i in 0..4 {
            assert_eq!(g.keyboard(i).slice_count(), 4);
            assert!((g.keyboard(i).radius() - 5.0).abs() < 1e-9);
        }
    }

    #[test]
    fn build_by_id_requires_ids() {
        let view = view_of(&square(), false);
        assert!(SwarmGeometry::build(&view, NamingScheme::ById, false).is_err());
        let view = view_of(&square(), true);
        let g = SwarmGeometry::build(&view, NamingScheme::ById, false).unwrap();
        // Labels follow ID order; the observer got the smallest id (100).
        assert_eq!(g.label_for(2, 0), 0);
        assert_eq!(g.id_of(0), Some(VisibleId::new(100)));
    }

    #[test]
    fn build_sec_labelings_are_per_observer() {
        // Use an asymmetric layout so per-observer labelings differ.
        let pts = vec![
            Point::new(0.0, 5.0),
            Point::new(4.0, -3.0),
            Point::new(-4.0, -3.0),
            Point::new(1.0, 1.0),
        ];
        let view = view_of(&pts, false);
        let g = SwarmGeometry::build(&view, NamingScheme::BySec, false).unwrap();
        // Every labelling is a valid bijection.
        for p in 0..4 {
            let mut seen = [false; 4];
            for t in 0..4 {
                let l = g.label_for(p, t);
                assert_eq!(g.home_for(p, l), Some(t));
                seen[l] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
        // References point outward from the SEC centre: keyboards differ.
        assert!(!g
            .keyboard(0)
            .reference()
            .approx_eq(g.keyboard(1).reference()));
    }

    #[test]
    fn kappa_shifts_slices() {
        let view = view_of(&square(), false);
        let g = SwarmGeometry::build(&view, NamingScheme::BySec, true).unwrap();
        assert!(g.has_kappa());
        assert_eq!(g.kappa_slice(), Some(0));
        assert_eq!(g.slice_for_label(0), 1);
        assert_eq!(g.label_for_slice(0), None);
        assert_eq!(g.label_for_slice(3), Some(2));
        assert_eq!(g.keyboard(0).slice_count(), 5); // n + 1
    }

    #[test]
    fn identify_by_granular() {
        let view = view_of(&square(), false);
        let g = SwarmGeometry::build(&view, NamingScheme::ByLex, false).unwrap();
        // A point 2 units North of home 1 is in home 1's granular.
        let p = g.home(1) + Vec2::NORTH * 2.0;
        assert_eq!(g.identify(p), Some(1));
        // A point far from every granular matches none.
        assert_eq!(g.identify(Point::new(500.0, 500.0)), None);
        // Home points are identified as themselves.
        for i in 0..4 {
            assert_eq!(g.identify(g.home(i)), Some(i));
        }
    }

    #[test]
    fn classify_roundtrip_through_keyboard() {
        let view = view_of(&square(), false);
        let g = SwarmGeometry::build(&view, NamingScheme::ByLex, false).unwrap();
        let target = g.keyboard(2).target(3, SliceSide::One, 0.5).unwrap();
        let (home, zone) = g.classify(target).unwrap();
        assert_eq!(home, 2);
        match zone {
            SliceZone::OnSlice { slice, side, .. } => {
                assert_eq!(slice, 3);
                assert_eq!(side, SliceSide::One);
            }
            SliceZone::Center => panic!("should be on a slice"),
        }
    }

    #[test]
    fn too_few_robots() {
        let view = View::new(
            Observed {
                position: Point::ORIGIN,
                id: None,
            },
            vec![],
            1.0,
        );
        assert!(matches!(
            SwarmGeometry::build(&view, NamingScheme::ByLex, false),
            Err(CoreError::WrongCohortSize { .. })
        ));
    }

    #[test]
    fn sec_center_rejection_propagates() {
        // 3 robots with one at the SEC centre.
        let pts = vec![Point::new(0.0, 2.0), Point::new(0.0, -2.0), Point::ORIGIN];
        let view = view_of(&pts, false);
        assert!(matches!(
            SwarmGeometry::build(&view, NamingScheme::BySec, false),
            Err(CoreError::Naming(_))
        ));
        // …but ByLex is fine with the same layout.
        assert!(SwarmGeometry::build(&view, NamingScheme::ByLex, false).is_ok());
    }
}
