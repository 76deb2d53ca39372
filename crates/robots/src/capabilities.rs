//! Robot capability flags.
//!
//! The paper's contribution is a *capability map*: which communication
//! protocols are possible under which combinations of observable IDs,
//! sense of direction, and chirality. Chirality (shared handedness) is
//! assumed throughout the paper's model, so it is no flag here; the other
//! two vary per protocol.

use std::fmt;

/// The capabilities a robot cohort is granted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Capabilities {
    observable_ids: bool,
    sense_of_direction: bool,
}

impl Capabilities {
    /// Anonymous robots with chirality only — the weakest assumption set
    /// (protocols P4 and P6 of the paper).
    #[must_use]
    pub const fn anonymous() -> Self {
        Self {
            observable_ids: false,
            sense_of_direction: false,
        }
    }

    /// Anonymous robots that share a common "North" (protocol P3).
    #[must_use]
    pub const fn anonymous_with_direction() -> Self {
        Self {
            observable_ids: false,
            sense_of_direction: true,
        }
    }

    /// Identified robots sharing a common "North" (protocol P2).
    #[must_use]
    pub const fn identified_with_direction() -> Self {
        Self {
            observable_ids: true,
            sense_of_direction: true,
        }
    }

    /// Identified robots without a common direction.
    #[must_use]
    pub const fn identified() -> Self {
        Self {
            observable_ids: true,
            sense_of_direction: false,
        }
    }

    /// Whether robots carry observable identifiers.
    #[must_use]
    pub const fn observable_ids(&self) -> bool {
        self.observable_ids
    }

    /// Whether all robots agree on the orientation of their y-axis.
    ///
    /// With chirality, agreement on the y-axis implies agreement on the
    /// x-axis too (the paper's remark in §2).
    #[must_use]
    pub const fn sense_of_direction(&self) -> bool {
        self.sense_of_direction
    }
}

impl Default for Capabilities {
    /// Defaults to the weakest assumptions (anonymous, no common
    /// direction).
    fn default() -> Self {
        Self::anonymous()
    }
}

impl fmt::Display for Capabilities {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{} chirality",
            if self.observable_ids {
                "identified, "
            } else {
                "anonymous, "
            },
            if self.sense_of_direction {
                "sense-of-direction +"
            } else {
                ""
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert!(!Capabilities::anonymous().observable_ids());
        assert!(!Capabilities::anonymous().sense_of_direction());
        assert!(Capabilities::anonymous_with_direction().sense_of_direction());
        assert!(Capabilities::identified_with_direction().observable_ids());
        assert!(Capabilities::identified_with_direction().sense_of_direction());
        assert!(Capabilities::identified().observable_ids());
        assert!(!Capabilities::identified().sense_of_direction());
    }

    #[test]
    fn default_is_weakest() {
        assert_eq!(Capabilities::default(), Capabilities::anonymous());
    }

    #[test]
    fn display() {
        let s = format!("{}", Capabilities::identified_with_direction());
        assert!(s.contains("identified"));
        assert!(s.contains("sense-of-direction"));
    }
}
