//! Observable robot identities.
//!
//! The paper distinguishes **identified** systems — every robot carries a
//! visible identifier any observer can read — from **anonymous** ones. The
//! engine attaches a [`VisibleId`] to view entries only in identified mode;
//! anonymous protocols must build their own naming (§3.3, §3.4).

use std::fmt;

/// A visible (observable) robot identifier.
///
/// Distinct robots carry distinct `VisibleId`s. The numeric value carries
/// no positional meaning; protocols use only its identity and order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VisibleId(u32);

impl VisibleId {
    /// Creates an identifier from a raw value.
    #[must_use]
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// The raw value.
    #[must_use]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for VisibleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "id#{}", self.0)
    }
}

impl From<u32> for VisibleId {
    fn from(raw: u32) -> Self {
        Self(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_semantics() {
        let a = VisibleId::new(3);
        let b = VisibleId::from(3);
        let c = VisibleId::new(4);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a < c);
        assert_eq!(a.raw(), 3);
        assert_eq!(format!("{a}"), "id#3");
    }
}
