//! Clean control for the unsafe-audit pass: justified SAFETY comments
//! on blocks and impls, and an `unsafe fn` signature (a contract for
//! callers, exempt by design).

/// # Safety
///
/// The caller guarantees `p` is valid for reads.
unsafe fn read_contract(p: *const u8) -> u8 {
    // SAFETY: the fn-level contract above passes pointer validity down.
    unsafe { *p }
}

pub struct Token(*const u8);

// SAFETY: Token is an opaque id; the pointer is never dereferenced on
// the receiving thread.
unsafe impl Send for Token {}
