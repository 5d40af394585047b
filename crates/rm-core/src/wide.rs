//! Word kernels for the bit-plane datapaths: a bit-sliced ripple-carry add
//! over word-groups and a 64×64 bit transpose.
//!
//! The device's bit planes pack 64 lanes per `u64`; the multiplier widens
//! the unit of work a second time, from single words to *word-groups* of up
//! to [`GROUP_WORDS`] words (512 lanes) per plane. Both kernels are plain
//! word loops on every host; [`simd_level`] reports the host's SIMD level
//! for bench metadata.
//!
//! Widening is purely a simulator-speed change: callers in `dw-logic` keep
//! their own gate-tally accounting, so results, counters and probe samples
//! are bit-identical to the scalar gate compositions — enforced by
//! differential tests at every consuming layer.

/// Words per wide group (512 bits = 8 lane-words).
pub const GROUP_WORDS: usize = 8;

/// Lanes per wide group.
pub const GROUP_LANES: usize = GROUP_WORDS * 64;

/// The host's SIMD level, `"avx2"` or `"portable"`. Recorded in bench
/// environment metadata so baselines from different hosts can be told
/// apart; the kernels here run the same word loops on every host.
pub fn simd_level() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "portable"
}

/// Bit-sliced ripple-carry add, in place over every lane at once:
/// `acc += addend` modulo `2^planes`, the carry-out of the top plane
/// dropped.
///
/// Both slices hold `planes` bit planes of `words` lane-words each,
/// plane-major (`acc[p * words + w]` is word `w` of plane `p`). Each plane
/// step is the boolean closed form of the nine-NAND full adder —
/// `sum = a ^ b ^ c`, `carry = (a & b) | (c & (a ^ b))` — and the carry
/// ripples from plane to plane. Lanes never interact across words, so the
/// kernel walks one word column through all planes with the carry held in
/// a register. Callers account the gates on their tally; the *results* are
/// exactly those of the gate composition.
///
/// # Panics
///
/// Panics if the slices differ in length, `words` is zero, or the length is
/// not a whole number of `words`-word planes.
#[inline]
pub fn ripple_add_planes(acc: &mut [u64], addend: &[u64], words: usize) {
    assert!(
        acc.len() == addend.len() && words > 0 && acc.len().is_multiple_of(words),
        "plane slices must be equal whole numbers of {words}-word planes"
    );
    for w in 0..words {
        let mut carry = 0u64;
        for p in (w..acc.len()).step_by(words) {
            let (a, b) = (acc[p], addend[p]);
            let axb = a ^ b;
            acc[p] = axb ^ carry;
            carry = (a & b) | (carry & axb);
        }
    }
}

/// In-place 64×64 bit-matrix transpose, LSB-first: after the call,
/// bit `l` of `a[j]` is what bit `j` of `a[l]` was. This is the word-level
/// replacement for the per-bit plane transposes in the multiplier: one call
/// moves all 64 bit positions of 64 lanes in ~6·64 word ops, where the
/// scalar gather costs `64 × width` ops *per direction*.
pub fn transpose64(a: &mut [u64; 64]) {
    // Recursive block swap (Hacker's Delight fig. 7-3, adapted to LSB-first
    // bit order): at step `j`, swap the (rows k..k+j, cols j..2j) block with
    // the (rows k+j..k+2j, cols 0..j) block.
    let mut j: usize = 32;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k: usize = 0;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k + j] ^= t;
            a[k] ^= t << j;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        if j != 0 {
            m ^= m << j;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(i: usize) -> u64 {
        (i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x0123_4567_89AB_CDEF)
    }

    /// Lane `l`'s value out of plane-major `planes` of `words` words.
    fn lane(planes: &[u64], words: usize, l: usize) -> u64 {
        (0..planes.len() / words).fold(0, |v, p| {
            v | ((planes[p * words + l / 64] >> (l % 64)) & 1) << p
        })
    }

    #[test]
    fn ripple_add_matches_lane_integer_addition() {
        for (planes, words) in [(1usize, 1usize), (16, 1), (16, 3), (9, 4), (16, 8), (63, 5)] {
            let a: Vec<u64> = (0..planes * words).map(pattern).collect();
            let b: Vec<u64> = (0..planes * words).map(|i| pattern(i + 77)).collect();
            let mut sum = a.clone();
            ripple_add_planes(&mut sum, &b, words);
            let mask = if planes == 64 {
                u64::MAX
            } else {
                (1u64 << planes) - 1
            };
            for l in 0..words * 64 {
                let expect = lane(&a, words, l).wrapping_add(lane(&b, words, l)) & mask;
                assert_eq!(lane(&sum, words, l), expect, "{planes}x{words} lane {l}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "whole numbers")]
    fn ripple_add_rejects_ragged_planes() {
        ripple_add_planes(&mut [0; 5], &[0; 5], 2);
    }

    #[test]
    fn transpose64_matches_reference_gather() {
        let mut a = [0u64; 64];
        for (i, w) in a.iter_mut().enumerate() {
            *w = pattern(i);
        }
        let orig = a;
        transpose64(&mut a);
        for (j, &row) in a.iter().enumerate() {
            for (l, &orow) in orig.iter().enumerate() {
                assert_eq!((row >> l) & 1, (orow >> j) & 1, "transposed[{j}] bit {l}");
            }
        }
        // An involution: transposing twice restores the original.
        transpose64(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn simd_level_is_reported() {
        assert!(["avx2", "portable"].contains(&simd_level()));
    }
}
