//! Clean control for the dead-pub pass, linted together with
//! `tests/dead_pub_ok.rs`: that file alone uses every `pub fn` here,
//! through a `-> Self` chain, a fn pointer, or a test.

pub struct Builder {
    level: u8,
}

impl Builder {
    pub fn new() -> Self {
        Builder { level: 0 }
    }

    pub fn knob(mut self, level: u8) -> Self {
        self.level = level;
        self
    }

    /// Called only after a `-> Self` method.
    pub fn finish(self) -> u8 {
        self.level
    }
}

/// Named only as a fn pointer.
pub fn pointed() -> u8 {
    7
}

pub fn tested_only(x: u8) -> u8 {
    x.wrapping_mul(3)
}
