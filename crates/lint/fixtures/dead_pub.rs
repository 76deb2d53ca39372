//! Seeded violation for the dead-pub pass: a `pub fn` that nothing
//! outside this file calls or names. File mode's ceiling is 0, so the
//! one finding fails the run.

pub fn orphan() -> u32 {
    helper() + 1
}

fn helper() -> u32 {
    41
}
