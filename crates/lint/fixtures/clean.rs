//! Adversarial clean control: everything here *looks* like a violation
//! to a regex but is invisible to a real lexer. Expected: no
//! violations.

/// Mentions HashMap, Instant::now(), and thread::spawn in docs only.
fn documented() -> &'static str {
    // A line comment saying x.unwrap() and panic!() is not code.
    /* Nested /* block comments hide HashSet and SystemTime */ fully. */
    "strings hide HashMap::new() and thread::spawn(|| {})"
}

fn raw_strings() -> String {
    let a = r#"Instant::now() inside a raw string with a " quote"#;
    let b = r##"nested "# terminator then x.unwrap() stays text"##;
    let c = "escaped \" then panic!(\"boom\")";
    format!("{a}{b}{c}")
}

fn raw_idents() {
    // r#match is an identifier, not the keyword; chars are not lifetimes.
    let r#match = ('\'', 'a', '\u{41}');
    let _lifetime_not_char: fn(&u8) -> &u8 = |x| x;
    let _ = r#match;
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn test_code_may_do_anything() {
        let mut m = HashMap::new();
        m.insert(1u8, std::time::Instant::now());
        let h = std::thread::spawn(move || m.len());
        assert_eq!(h.join().unwrap(), 1);
    }
}
