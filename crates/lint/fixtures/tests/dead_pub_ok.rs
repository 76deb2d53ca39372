//! The callers of `../dead_pub_ok.rs`, as an integration-test file.

use dead_pub_ok::{pointed, tested_only, Builder};

#[test]
fn chain_pointer_and_test_callers() {
    assert_eq!(Builder::new().knob(3).finish(), 3);
    let f: fn() -> u8 = pointed;
    assert_eq!(f(), 7);
    assert_eq!(tested_only(2), 6);
}
