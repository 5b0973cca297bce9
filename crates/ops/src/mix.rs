//! Deterministic byte-mixing primitives.
//!
//! Synthetic logical operations ([`crate::LogicalOp::Mix`], the application
//! recovery ops) need a page transformation that is
//!
//! 1. **deterministic** — redo replay must regenerate exactly the value
//!    produced at normal execution, and
//! 2. **input-sensitive** — if recovery replays an operation against the
//!    *wrong* read-set values (the failure mode the backup protocol exists to
//!    prevent), the produced value must differ so the test oracle detects it.
//!
//! A keyed xorshift-based expansion provides both properties cheaply. None of
//! this is cryptographic and none of it needs to be.

/// 64-bit mixing of a single word (splitmix64 finalizer).
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fold a byte slice into a 64-bit digest, keyed by `seed`.
pub fn digest(seed: u64, bytes: &[u8]) -> u64 {
    let mut acc = mix64(seed ^ 0x01de_c0de ^ bytes.len() as u64);
    let mut rest = bytes;
    while let Some((word, tail)) = rest.split_first_chunk::<8>() {
        acc = mix64(acc ^ u64::from_le_bytes(*word));
        rest = tail;
    }
    if !rest.is_empty() {
        let mut tail = [0u8; 8];
        tail.iter_mut().zip(rest).for_each(|(t, b)| *t = *b);
        acc = mix64(acc ^ u64::from_le_bytes(tail));
    }
    acc
}

/// Expand a 64-bit state into `len` pseudo-random bytes.
pub fn expand(mut state: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        state = mix64(state);
        let take = len - out.len();
        out.extend(state.to_le_bytes().into_iter().take(take));
    }
    out
}

/// The canonical synthetic page transformation: fold all inputs (in order)
/// together with `salt` and a per-output index, then expand to a full page.
pub fn derive_page(salt: u64, output_index: u64, inputs: &[&[u8]], len: usize) -> Vec<u8> {
    let mut acc = mix64(salt ^ mix64(output_index ^ 0xa11c_e5ed));
    for (i, input) in inputs.iter().enumerate() {
        acc = mix64(acc ^ digest(i as u64, input));
    }
    expand(acc, len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_nontrivial() {
        assert_eq!(mix64(1), mix64(1));
        assert_ne!(mix64(1), mix64(2));
        assert_ne!(mix64(0), 0);
    }

    #[test]
    fn digest_sensitive_to_content_and_seed() {
        assert_ne!(digest(0, b"abc"), digest(0, b"abd"));
        assert_ne!(digest(0, b"abc"), digest(1, b"abc"));
        assert_eq!(digest(7, b"abcdefgh_tail"), digest(7, b"abcdefgh_tail"));
    }

    #[test]
    fn digest_sensitive_to_length_of_zeroes() {
        assert_ne!(digest(0, &[0u8; 8]), digest(0, &[0u8; 16]));
    }

    #[test]
    fn expand_produces_requested_length() {
        for len in [0usize, 1, 7, 8, 9, 63, 256] {
            assert_eq!(expand(42, len).len(), len);
        }
        assert_eq!(expand(42, 16), expand(42, 16));
        assert_ne!(expand(42, 16), expand(43, 16));
    }

    #[test]
    fn derive_page_sensitive_to_each_input() {
        let a = b"input-a".as_slice();
        let b = b"input-b".as_slice();
        let p1 = derive_page(1, 0, &[a, b], 32);
        let p2 = derive_page(1, 0, &[b, a], 32);
        let p3 = derive_page(1, 1, &[a, b], 32);
        let p4 = derive_page(2, 0, &[a, b], 32);
        assert_ne!(p1, p2, "order matters");
        assert_ne!(p1, p3, "output index matters");
        assert_ne!(p1, p4, "salt matters");
        assert_eq!(p1, derive_page(1, 0, &[a, b], 32), "deterministic");
    }
}
