//! SWAR digit pack/unpack kernels behind the stage-2 label wire format.
//!
//! The label wire format (`labels::pack_label`, crate-private) ships
//! tree-path digits 16, 4 or 2 per
//! `u64` word (width classes 0, 1, 2 = 4-, 16- and 32-bit digits). The
//! sample-interval streams — the tester's dominant message volume —
//! ride that encoding, so the digit transpose is a hot kernel. This
//! module implements it two ways:
//!
//! * **SWAR** (`*_swar`): per width class, a fully unrolled word
//!   gather/scatter. Every digit's `shift+or` term is *independent*, so
//!   the compiler tree-reduces the ors (depth `log₂ per` instead of a
//!   loop-carried chain of length `per`) and the CPU retires several
//!   lanes per cycle — the scalar loop's `word |= d << (i·bits)`
//!   accumulator serializes on `word` every iteration and pays the
//!   induction/bounds bookkeeping besides. Width selection is a
//!   branch-free OR-reduction over the digits (valid because the class
//!   thresholds are powers of two, so `max < 2^k ⇔ or-of-all < 2^k`);
//! * **scalar** (`*_scalar`): the historical one-digit-at-a-time
//!   shift/or loops, kept as the executable reference.
//!
//! The label codec (in `labels.rs`) runs on SWAR; the scalar path is
//! the oracle the `swar_matches_scalar_*` proptests below pin it to,
//! for all three width classes, including ragged tails that don't fill
//! a word or a pair, and the baseline `runtime_bench` times it against.

/// Digit geometry of one width class: `(class_tag, bits_per_digit,
/// digits_per_word)`.
pub type WidthClass = (u64, u32, usize);

/// Selects the width class for a digit slice via a branch-free
/// OR-reduction (the SWAR path: one `or` per digit, compare twice at
/// the end). Because the class thresholds `2^4` and `2^16` are powers
/// of two, the OR of all digits is below a threshold iff the max is.
#[must_use]
pub fn width_class_swar(digits: &[u32]) -> WidthClass {
    let folded = digits.iter().fold(0u32, |acc, &d| acc | d);
    class_for(folded)
}

/// Scalar reference for [`width_class_swar`]: selects from the maximum
/// digit, the definitionally obvious rule.
#[must_use]
pub fn width_class_scalar(digits: &[u32]) -> WidthClass {
    class_for(digits.iter().copied().max().unwrap_or(0))
}

fn class_for(bound: u32) -> WidthClass {
    if bound < 1 << 4 {
        (0, 4, 16)
    } else if bound < 1 << 16 {
        (1, 16, 4)
    } else {
        (2, 32, 2)
    }
}

/// SWAR digit pack: appends `digits` to `out` at `bits` bits per digit,
/// `per` digits per word. Full words use an unrolled gather whose
/// per-digit `shift+or` terms carry no dependency on each other — the
/// ors tree-reduce in `log₂ per` depth where the scalar loop's
/// accumulator chains through all `per` — and a ragged final word falls
/// back to the scalar loop.
pub fn pack_swar(digits: &[u32], bits: u32, per: usize, out: &mut Vec<u64>) {
    debug_assert!(matches!((bits, per), (4, 16) | (16, 4) | (32, 2)));
    match bits {
        4 => {
            let mut chunks = digits.chunks_exact(16);
            for c in chunks.by_ref() {
                let lo = u64::from(c[0])
                    | (u64::from(c[1]) << 4)
                    | (u64::from(c[2]) << 8)
                    | (u64::from(c[3]) << 12)
                    | (u64::from(c[4]) << 16)
                    | (u64::from(c[5]) << 20)
                    | (u64::from(c[6]) << 24)
                    | (u64::from(c[7]) << 28);
                let hi = u64::from(c[8])
                    | (u64::from(c[9]) << 4)
                    | (u64::from(c[10]) << 8)
                    | (u64::from(c[11]) << 12)
                    | (u64::from(c[12]) << 16)
                    | (u64::from(c[13]) << 20)
                    | (u64::from(c[14]) << 24)
                    | (u64::from(c[15]) << 28);
                out.push(lo | (hi << 32));
            }
            pack_scalar(chunks.remainder(), bits, per, out);
        }
        16 => {
            let mut chunks = digits.chunks_exact(4);
            for c in chunks.by_ref() {
                let lo = u64::from(c[0]) | (u64::from(c[1]) << 16);
                let hi = u64::from(c[2]) | (u64::from(c[3]) << 16);
                out.push(lo | (hi << 32));
            }
            pack_scalar(chunks.remainder(), bits, per, out);
        }
        _ => {
            let mut chunks = digits.chunks_exact(2);
            for c in chunks.by_ref() {
                out.push(u64::from(c[0]) | (u64::from(c[1]) << 32));
            }
            pack_scalar(chunks.remainder(), bits, per, out);
        }
    }
}

/// Scalar reference for [`pack_swar`]: the historical one-shift-or per
/// digit loop.
pub fn pack_scalar(digits: &[u32], bits: u32, per: usize, out: &mut Vec<u64>) {
    for chunk in digits.chunks(per) {
        let mut word = 0u64;
        for (i, &d) in chunk.iter().enumerate() {
            word |= u64::from(d) << (i as u32 * bits);
        }
        out.push(word);
    }
}

/// SWAR digit unpack: decodes `len` digits packed at `bits` bits per
/// digit, `per` per word, from `words` into `digits`. Full words
/// scatter through one `extend_from_slice` of independent shift+mask
/// lanes (no per-digit push/capacity check, no dependency between
/// lanes); the ragged final word falls back to the scalar extract loop.
pub fn unpack_swar(words: &[u64], len: usize, bits: u32, per: usize, digits: &mut Vec<u32>) {
    debug_assert!(matches!((bits, per), (4, 16) | (16, 4) | (32, 2)));
    let full = len / per;
    match bits {
        4 => {
            for &w in &words[..full] {
                digits.extend_from_slice(&[
                    (w & 0xF) as u32,
                    ((w >> 4) & 0xF) as u32,
                    ((w >> 8) & 0xF) as u32,
                    ((w >> 12) & 0xF) as u32,
                    ((w >> 16) & 0xF) as u32,
                    ((w >> 20) & 0xF) as u32,
                    ((w >> 24) & 0xF) as u32,
                    ((w >> 28) & 0xF) as u32,
                    ((w >> 32) & 0xF) as u32,
                    ((w >> 36) & 0xF) as u32,
                    ((w >> 40) & 0xF) as u32,
                    ((w >> 44) & 0xF) as u32,
                    ((w >> 48) & 0xF) as u32,
                    ((w >> 52) & 0xF) as u32,
                    ((w >> 56) & 0xF) as u32,
                    (w >> 60) as u32,
                ]);
            }
        }
        16 => {
            for &w in &words[..full] {
                digits.extend_from_slice(&[
                    (w & 0xFFFF) as u32,
                    ((w >> 16) & 0xFFFF) as u32,
                    ((w >> 32) & 0xFFFF) as u32,
                    (w >> 48) as u32,
                ]);
            }
        }
        _ => {
            for &w in &words[..full] {
                digits.extend_from_slice(&[w as u32, (w >> 32) as u32]);
            }
        }
    }
    let tail = len % per;
    if tail > 0 {
        let mask = if bits == 32 {
            u64::from(u32::MAX)
        } else {
            (1u64 << bits) - 1
        };
        let word = words[full];
        for j in 0..tail {
            digits.push(((word >> (j as u32 * bits)) & mask) as u32);
        }
    }
}

/// Scalar reference for [`unpack_swar`]: the historical one-shift-mask
/// per digit loop.
pub fn unpack_scalar(words: &[u64], len: usize, bits: u32, per: usize, digits: &mut Vec<u32>) {
    let mask = if bits == 32 {
        u64::from(u32::MAX)
    } else {
        (1u64 << bits) - 1
    };
    for i in 0..len {
        digits.push(((words[i / per] >> ((i % per) as u32 * bits)) & mask) as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Digit vectors confined to one width class, with lengths that
    /// exercise ragged tails (partial words *and* odd pairs).
    fn digits_in_class(bits: u32) -> impl Strategy<Value = Vec<u32>> {
        let bound = 1u64 << bits; // inclusive of the class max
        prop::collection::vec((0..bound).prop_map(|d| d as u32), 0..70)
    }

    fn roundtrip_case(digits: &[u32], bits: u32, per: usize) {
        let mut swar = Vec::new();
        let mut scalar = Vec::new();
        pack_swar(digits, bits, per, &mut swar);
        pack_scalar(digits, bits, per, &mut scalar);
        assert_eq!(swar, scalar, "pack bits={bits}");
        let mut got_swar = Vec::new();
        let mut got_scalar = Vec::new();
        unpack_swar(&swar, digits.len(), bits, per, &mut got_swar);
        unpack_scalar(&swar, digits.len(), bits, per, &mut got_scalar);
        assert_eq!(got_swar, digits, "unpack_swar bits={bits}");
        assert_eq!(got_scalar, digits, "unpack_scalar bits={bits}");
    }

    proptest! {
        #[test]
        fn swar_matches_scalar_4bit(digits in digits_in_class(4)) {
            roundtrip_case(&digits, 4, 16);
        }

        #[test]
        fn swar_matches_scalar_16bit(digits in digits_in_class(16)) {
            roundtrip_case(&digits, 16, 4);
        }

        #[test]
        fn swar_matches_scalar_32bit(digits in digits_in_class(32)) {
            roundtrip_case(&digits, 32, 2);
        }

        #[test]
        fn width_class_selection_agrees(
            digits in prop::collection::vec((0..1u64 << 32).prop_map(|d| d as u32), 0..40),
        ) {
            prop_assert_eq!(width_class_swar(&digits), width_class_scalar(&digits));
        }
    }

    #[test]
    fn ragged_tails_across_classes() {
        // Deterministic pins for every (class, tail) shape: lengths
        // around word boundaries and odd/even pair splits.
        for &(bits, per) in &[(4u32, 16usize), (16, 4), (32, 2)] {
            for len in 0..(2 * per + 3) {
                let digits: Vec<u32> = (0..len as u32)
                    .map(|i| (i * 7 + 3) & ((1u32 << (bits - 1)) | 1))
                    .collect();
                roundtrip_case(&digits, bits, per);
            }
        }
    }

    #[test]
    fn width_class_boundaries() {
        assert_eq!(width_class_swar(&[]), (0, 4, 16));
        assert_eq!(width_class_swar(&[15]), (0, 4, 16));
        assert_eq!(width_class_swar(&[16]), (1, 16, 4));
        assert_eq!(width_class_swar(&[65_535]), (1, 16, 4));
        assert_eq!(width_class_swar(&[65_536]), (2, 32, 2));
        assert_eq!(width_class_swar(&[u32::MAX]), (2, 32, 2));
    }
}
