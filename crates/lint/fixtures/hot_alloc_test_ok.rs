//! Adversarial clean control: allocations under `#[cfg(test)]` are
//! out of hot-alloc scope even when a hot root exists in the file,
//! and allocation in a fn the roots never reach is fine.

pub struct Engine;

impl Engine {
    fn step_inner(&self) {
        walk();
    }
}

fn walk() {}

fn cold_report() -> String {
    let mut out = String::new();
    out.push('x');
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn scratch() {
        let mut v = Vec::new();
        v.push(1);
        let s = format!("x");
        let _ = (v, s);
    }
}
