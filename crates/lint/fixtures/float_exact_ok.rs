//! Clean control for float-determinism: `sqrt`, `abs`, `powi`,
//! `floor` are IEEE-754-exact and allowed everywhere.

fn exact(x: f64) -> f64 {
    (x.sqrt() + x.abs()).powi(2).floor()
}
