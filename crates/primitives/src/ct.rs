//! Constant-time comparison helpers.
//!
//! Digest verification must not leak *which byte* of a guessed digest was
//! wrong through timing; an adversary brute-forcing the 32-bit digest
//! (§VIII, "Digest size") should learn nothing beyond accept/reject.

/// Constant-time equality of two `u32` values.
#[inline]
pub fn eq_u32(a: u32, b: u32) -> bool {
    let diff = a ^ b;
    // Collapse all difference bits into bit 0 without branching.
    let folded = diff | diff.wrapping_neg();
    ((folded >> 31) ^ 1) == 1
}

/// Constant-time equality of two `u64` values.
#[inline]
pub fn eq_u64(a: u64, b: u64) -> bool {
    let diff = a ^ b;
    let folded = diff | diff.wrapping_neg();
    ((folded >> 63) ^ 1) == 1
}

/// Constant-time equality of two byte slices of equal (public) length.
#[inline]
pub fn eq_bytes(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (&x, &y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_equal_and_unequal() {
        assert!(eq_u32(0, 0));
        assert!(eq_u32(u32::MAX, u32::MAX));
        assert!(!eq_u32(0, 1));
        assert!(!eq_u32(0x8000_0000, 0));
        assert!(!eq_u32(u32::MAX, u32::MAX - 1));
    }

    #[test]
    fn u32_every_single_bit_difference_detected() {
        for bit in 0..32 {
            assert!(!eq_u32(0, 1 << bit), "missed bit {bit}");
        }
    }

    #[test]
    fn u64_equal_and_unequal() {
        assert!(eq_u64(0, 0));
        assert!(eq_u64(u64::MAX, u64::MAX));
        for bit in 0..64 {
            assert!(!eq_u64(0, 1 << bit), "missed bit {bit}");
        }
    }

    #[test]
    fn bytes() {
        assert!(eq_bytes(b"digest", b"digest"));
        assert!(!eq_bytes(b"digest", b"digesT"));
        assert!(!eq_bytes(b"short", b"longer"));
        assert!(eq_bytes(b"", b""));
    }
}
