//! Views: what an active robot observes.
//!
//! §2 of the paper: "P(tj) expressed in the local coordinate system of any
//! robot ri is called a view." A [`View`] is the *only* information a
//! protocol ever receives. It contains every robot's instantaneous position
//! in the observer's local frame, with observable IDs attached only in
//! identified systems.
//!
//! To keep anonymous systems honest, the *other* robots appear in an order
//! sorted by their local coordinates — there is no stable hidden index a
//! protocol could exploit as a covert identity. Anything identity-like must
//! be derived the way the paper derives it: from home positions, granular
//! membership, or the naming mechanisms of §3.3/§3.4.
//!
//! A view also carries the output of the model's perfect failure
//! detector: the positions of the peers that have crash-stopped
//! ([`View::crashed`]). That list is not an observation — observation
//! dropout never hides it — and it is sorted like `others`.

use crate::identity::VisibleId;
use std::fmt;
use stigmergy_geometry::Point;

/// One observed robot: a position (in the observer's frame), plus its
/// visible identifier in identified systems.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observed {
    /// The robot's position in the observer's local frame.
    pub position: Point,
    /// Its observable identifier, if the system is identified.
    pub id: Option<VisibleId>,
}

/// The instantaneous configuration in one robot's local frame.
#[derive(Debug, Clone, PartialEq)]
pub struct View {
    own: Observed,
    others: Vec<Observed>,
    crashed: Vec<Point>,
    sigma: f64,
    time: Option<u64>,
}

impl View {
    /// Assembles a view. `others` is sorted by local coordinates so the
    /// ordering carries no covert identity.
    #[must_use]
    pub fn new(own: Observed, mut others: Vec<Observed>, sigma: f64) -> Self {
        sort_by_coordinates(&mut others);
        Self {
            own,
            others,
            crashed: Vec::new(),
            sigma,
            time: None,
        }
    }

    /// Re-initializes the view in place for a new observer, keeping the
    /// `others` and `crashed` allocations. The engine's hot path fills the
    /// reused view with [`View::push_other`] and then applies the same
    /// covert-identity sort as [`View::new`] via [`View::seal_others`].
    pub(crate) fn reset(&mut self, own: Observed, sigma: f64, time: Option<u64>) {
        self.own = own;
        self.others.clear();
        self.crashed.clear();
        self.sigma = sigma;
        self.time = time;
    }

    /// Appends one observed robot (engine hot path; call order must match
    /// the snapshot's index order so [`View::seal_others`] reproduces
    /// exactly what [`View::new`] would build).
    pub(crate) fn push_other(&mut self, observed: Observed) {
        // stiglint: allow(hot-alloc) -- `others` is cleared (not shrunk) by `reset`; capacity reached on the first step is reused for the rest of the run
        self.others.push(observed);
    }

    /// Applies the coordinate sort [`View::new`] applies.
    pub(crate) fn seal_others(&mut self) {
        sort_by_coordinates(&mut self.others);
    }

    /// Appends the position of one crash-stopped peer (engine hot path;
    /// [`View::seal_crashed`] sorts the list once it is complete).
    pub(crate) fn push_crashed(&mut self, position: Point) {
        // stiglint: allow(hot-alloc) -- `crashed` is cleared (not shrunk) by `reset`; capacity reached on the first step is reused for the rest of the run
        self.crashed.push(position);
    }

    /// Sorts the crashed peers like `others`, listing a peer the plan
    /// crash-stops more than once only once (two bodies never share a
    /// position).
    pub(crate) fn seal_crashed(&mut self) {
        self.crashed.sort_by(|a, b| by_coordinates(*a, *b));
        self.crashed.dedup();
    }

    /// The global-clock reading, if the cohort has one.
    #[must_use]
    pub fn time(&self) -> Option<u64> {
        self.time
    }

    /// The observer's own position in its frame.
    ///
    /// At `t0` this is the frame origin; it changes as the robot moves.
    #[must_use]
    pub fn own_position(&self) -> Point {
        self.own.position
    }

    /// The observer's own visible identifier, in identified systems.
    #[must_use]
    pub fn own_id(&self) -> Option<VisibleId> {
        self.own.id
    }

    /// The other robots, sorted by local coordinates.
    #[must_use]
    pub fn others(&self) -> &[Observed] {
        &self.others
    }

    /// The positions of the peers that have crash-stopped, in the
    /// observer's local frame and sorted like [`View::others`].
    ///
    /// This is the perfect failure detector's output, filled by the
    /// engine: a peer is listed from the instant after its crash-stop,
    /// whether or not this activation happens to see its body.
    #[must_use]
    pub fn crashed(&self) -> &[Point] {
        &self.crashed
    }

    /// All robots (observer first, then the others).
    pub fn all(&self) -> impl Iterator<Item = Observed> + '_ {
        std::iter::once(self.own).chain(self.others.iter().copied())
    }

    /// All positions, observer's first.
    #[must_use]
    pub fn positions(&self) -> Vec<Point> {
        self.all().map(|o| o.position).collect()
    }

    /// Total number of robots visible (including the observer).
    #[must_use]
    pub fn cohort(&self) -> usize {
        1 + self.others.len()
    }

    /// The observer's motion cap `σ` in *local* units: the farthest it can
    /// travel in this activation.
    ///
    /// The paper's robots know their own maximal covered distance; the
    /// engine supplies it converted into the robot's own unit measure.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The same view with every position shifted by `offset`.
    ///
    /// Used by flocking composition (§5 of the paper): robots subtract the
    /// agreed-upon global flocking displacement before decoding, so the
    /// communication protocol sees a stationary swarm.
    #[must_use]
    pub fn translated(&self, offset: stigmergy_geometry::Vec2) -> View {
        let shift = |o: &Observed| Observed {
            position: o.position + offset,
            id: o.id,
        };
        View {
            own: shift(&self.own),
            others: self.others.iter().map(shift).collect(),
            crashed: self.crashed.iter().map(|&p| p + offset).collect(),
            sigma: self.sigma,
            time: self.time,
        }
    }
}

/// The covert-identity-free ordering: others sorted by local coordinates.
/// `Vec::sort_by` is stable, so equal keys keep their push order — both
/// construction paths feed robots in snapshot index order and therefore
/// agree bit-for-bit.
fn sort_by_coordinates(others: &mut [Observed]) {
    others.sort_by(|a, b| by_coordinates(a.position, b.position));
}

fn by_coordinates(a: Point, b: Point) -> std::cmp::Ordering {
    (a.x, a.y)
        .partial_cmp(&(b.x, b.y))
        .unwrap_or(std::cmp::Ordering::Equal)
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "view: self at {}, {} others",
            self.own.position,
            self.others.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(x: f64, y: f64) -> Observed {
        Observed {
            position: Point::new(x, y),
            id: None,
        }
    }

    #[test]
    fn others_sorted_by_coordinates() {
        let view = View::new(
            obs(0.0, 0.0),
            vec![obs(2.0, 0.0), obs(-1.0, 5.0), obs(2.0, -3.0)],
            1.0,
        );
        let xs: Vec<(f64, f64)> = view
            .others()
            .iter()
            .map(|o| (o.position.x, o.position.y))
            .collect();
        assert_eq!(xs, vec![(-1.0, 5.0), (2.0, -3.0), (2.0, 0.0)]);
    }

    #[test]
    fn in_place_assembly_matches_new() {
        let others = vec![obs(2.0, 0.0), obs(-1.0, 5.0), obs(2.0, -3.0)];
        let mut by_value = View::new(obs(0.0, 0.0), others.clone(), 1.5);
        by_value.time = Some(3);
        let mut reused = View::new(obs(9.0, 9.0), vec![obs(7.0, 7.0)], 0.1);
        reused.reset(obs(0.0, 0.0), 1.5, Some(3));
        for o in others {
            reused.push_other(o);
        }
        reused.seal_others();
        assert_eq!(reused, by_value);
    }

    #[test]
    fn cohort_and_positions() {
        let view = View::new(obs(1.0, 1.0), vec![obs(0.0, 0.0)], 2.0);
        assert_eq!(view.cohort(), 2);
        assert_eq!(view.positions().len(), 2);
        assert_eq!(view.positions()[0], Point::new(1.0, 1.0));
        assert_eq!(view.sigma(), 2.0);
        assert_eq!(view.own_position(), Point::new(1.0, 1.0));
        assert_eq!(view.own_id(), None);
    }

    #[test]
    fn ids_travel_with_positions() {
        let mut a = obs(5.0, 5.0);
        a.id = Some(VisibleId::new(7));
        let view = View::new(a, vec![], 1.0);
        assert_eq!(view.own_id(), Some(VisibleId::new(7)));
    }

    #[test]
    fn all_puts_observer_first() {
        let view = View::new(obs(9.0, 9.0), vec![obs(0.0, 0.0)], 1.0);
        let all: Vec<Observed> = view.all().collect();
        assert_eq!(all[0].position, Point::new(9.0, 9.0));
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn time_defaults_to_none_and_attaches() {
        let view = View::new(obs(0.0, 0.0), vec![], 1.0);
        assert_eq!(view.time(), None);
        let mut timed = view.clone();
        timed.time = Some(9);
        assert_eq!(timed.time(), Some(9));
        // Translation preserves the clock.
        assert_eq!(
            timed
                .translated(stigmergy_geometry::Vec2::new(1.0, 0.0))
                .time(),
            Some(9)
        );
    }

    #[test]
    fn display() {
        let view = View::new(obs(0.0, 0.0), vec![obs(1.0, 1.0)], 1.0);
        assert!(format!("{view}").contains("1 others"));
    }
}
