//! Word-packed bit-plane storage: 64 lanes per `u64`, LSB-first.
//!
//! Every layer of the functional device model stores and moves individual
//! bits (domain magnetizations). [`PackedBits`] packs those bits into `u64`
//! words — lane `i` lives in word `i / 64` at bit `i % 64` — so bulk
//! operations (row reads, fan-out copies, popcounts, gate lanes) become a
//! handful of word operations instead of per-bit loops. Packing is purely a
//! simulator-speed representation change: the modelled device behaviour,
//! operation counters and timing/energy accounting are unchanged, which the
//! differential proptests against the retained scalar reference path
//! (`crate::reference`) enforce.
//!
//! Invariant: bits at positions `>= len` in the last word are always zero,
//! so derived equality and hashing see only live lanes.

use serde::{Deserialize, Serialize};

/// Bits per storage word.
pub const WORD_BITS: usize = 64;

/// Mask selecting the low `n` bits of a word (`n <= 64`).
#[inline]
pub fn low_mask(n: usize) -> u64 {
    debug_assert!(n <= WORD_BITS);
    if n == WORD_BITS {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// A fixed-length bit vector packed 64 lanes per `u64`, LSB-first.
///
/// ```
/// use rm_core::bits::PackedBits;
///
/// let mut bits = PackedBits::new(128);
/// bits.set(3, true);
/// bits.set(100, true);
/// assert!(bits.get(3) && bits.get(100) && !bits.get(4));
/// assert_eq!(bits.count_ones(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct PackedBits {
    words: Vec<u64>,
    len: usize,
}

impl PackedBits {
    /// Creates `len` zeroed lanes.
    pub fn new(len: usize) -> Self {
        PackedBits {
            words: vec![0u64; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Creates `len` lanes all set to `bit`.
    pub fn splat(len: usize, bit: bool) -> Self {
        let mut b = PackedBits::new(len);
        b.fill(bit);
        b
    }

    /// Packs a bool slice (lane `i` = `bits[i]`).
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut b = PackedBits::new(bits.len());
        for (i, &bit) in bits.iter().enumerate() {
            if bit {
                b.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
            }
        }
        b
    }

    /// Packs `len` lanes from LSB-first bytes (lane `i` = bit `i % 8` of
    /// byte `i / 8`). Bytes beyond `len` lanes are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` holds fewer than `len` bits.
    pub fn from_bytes_lsb(bytes: &[u8], len: usize) -> Self {
        assert!(
            bytes.len() * 8 >= len,
            "byte slice too short for {len} lanes"
        );
        let mut b = PackedBits::new(len);
        for (w, chunk) in bytes.chunks(8).enumerate() {
            if w >= b.words.len() {
                break;
            }
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            b.words[w] = u64::from_le_bytes(word);
        }
        b.mask_tail();
        b
    }

    /// Number of lanes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no lanes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed storage words (lane `i` = word `i/64`, bit `i%64`).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Reads lane `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len` (callers bound-check with domain-specific
    /// errors before indexing).
    #[inline]
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "lane {index} out of range 0..{}",
            self.len
        );
        self.words[index / WORD_BITS] >> (index % WORD_BITS) & 1 == 1
    }

    /// Writes lane `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    #[inline]
    pub fn set(&mut self, index: usize, bit: bool) {
        assert!(
            index < self.len,
            "lane {index} out of range 0..{}",
            self.len
        );
        let mask = 1u64 << (index % WORD_BITS);
        if bit {
            self.words[index / WORD_BITS] |= mask;
        } else {
            self.words[index / WORD_BITS] &= !mask;
        }
    }

    /// Sets every lane to `bit`.
    pub fn fill(&mut self, bit: bool) {
        let value = if bit { u64::MAX } else { 0 };
        for w in &mut self.words {
            *w = value;
        }
        self.mask_tail();
    }

    /// Population count over all lanes.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Population count over `len` lanes starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end.
    pub fn count_ones_range(&self, start: usize, len: usize) -> usize {
        assert!(
            start + len <= self.len,
            "range {start}..{} out of 0..{}",
            start + len,
            self.len
        );
        let mut count = 0usize;
        let mut pos = start;
        let end = start + len;
        while pos < end {
            let take = (end - pos).min(WORD_BITS - pos % WORD_BITS);
            count += (self.words[pos / WORD_BITS] >> (pos % WORD_BITS) & low_mask(take))
                .count_ones() as usize;
            pos += take;
        }
        count
    }

    /// Extracts `n <= 64` lanes starting at `start` as an LSB-first word.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64` or the range runs past the end.
    pub fn extract_word(&self, start: usize, n: usize) -> u64 {
        assert!(n <= WORD_BITS, "cannot extract more than 64 lanes");
        assert!(
            start + n <= self.len,
            "range {start}..{} out of 0..{}",
            start + n,
            self.len
        );
        if n == 0 {
            return 0;
        }
        let w = start / WORD_BITS;
        let b = start % WORD_BITS;
        let mut value = self.words[w] >> b;
        if b != 0 && w + 1 < self.words.len() {
            value |= self.words[w + 1] << (WORD_BITS - b);
        }
        value & low_mask(n)
    }

    /// Overwrites `n <= 64` lanes starting at `start` from an LSB-first
    /// word (bits of `value` above `n` are ignored).
    ///
    /// # Panics
    ///
    /// Panics if `n > 64` or the range runs past the end.
    pub fn insert_word(&mut self, start: usize, n: usize, value: u64) {
        assert!(n <= WORD_BITS, "cannot insert more than 64 lanes");
        assert!(
            start + n <= self.len,
            "range {start}..{} out of 0..{}",
            start + n,
            self.len
        );
        if n == 0 {
            return;
        }
        let value = value & low_mask(n);
        let w = start / WORD_BITS;
        let b = start % WORD_BITS;
        let take = n.min(WORD_BITS - b);
        self.words[w] = (self.words[w] & !(low_mask(take) << b)) | ((value & low_mask(take)) << b);
        if n > take {
            let rest = n - take;
            self.words[w + 1] = (self.words[w + 1] & !low_mask(rest)) | (value >> take);
        }
    }

    /// Copies `len` lanes from `src[src_start..]` into `self[dst_start..]`,
    /// one word chunk at a time. When both starts are word-aligned — true of
    /// every row-granular copy on the device hot path — the full words are
    /// copied as one slice `memcpy` and only the ragged tail goes through
    /// the masked insert.
    ///
    /// # Panics
    ///
    /// Panics if either range runs past its vector's end.
    pub fn copy_range_from(
        &mut self,
        dst_start: usize,
        src: &PackedBits,
        src_start: usize,
        len: usize,
    ) {
        if dst_start.is_multiple_of(WORD_BITS) && src_start.is_multiple_of(WORD_BITS) {
            assert!(
                src_start + len <= src.len,
                "range {src_start}..{} out of 0..{}",
                src_start + len,
                src.len
            );
            assert!(
                dst_start + len <= self.len,
                "range {dst_start}..{} out of 0..{}",
                dst_start + len,
                self.len
            );
            let dw = dst_start / WORD_BITS;
            let sw = src_start / WORD_BITS;
            let full = len / WORD_BITS;
            self.words[dw..dw + full].copy_from_slice(&src.words[sw..sw + full]);
            let tail = len % WORD_BITS;
            if tail != 0 {
                self.insert_word(
                    dst_start + full * WORD_BITS,
                    tail,
                    src.extract_word(src_start + full * WORD_BITS, tail),
                );
            }
            return;
        }
        self.copy_range_from_by_words(dst_start, src, src_start, len);
    }

    /// Word-at-a-time reference for [`Self::copy_range_from`]: always takes
    /// the masked extract/insert loop, never the aligned slice-`memcpy` fast
    /// path. Exposed for the differential suites and the bench harness,
    /// which compare the two — the copied lanes must be bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if either range runs past its vector's end.
    pub fn copy_range_from_by_words(
        &mut self,
        dst_start: usize,
        src: &PackedBits,
        src_start: usize,
        len: usize,
    ) {
        let mut off = 0;
        while off < len {
            let n = (len - off).min(WORD_BITS);
            self.insert_word(dst_start + off, n, src.extract_word(src_start + off, n));
            off += n;
        }
    }

    /// Sets `len` lanes starting at `start` to `bit`.
    pub fn fill_range(&mut self, start: usize, len: usize, bit: bool) {
        let value = if bit { u64::MAX } else { 0 };
        let mut off = 0;
        while off < len {
            let n = (len - off).min(WORD_BITS);
            self.insert_word(start + off, n, value);
            off += n;
        }
    }

    /// Unpacks to a bool vector.
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Unpacks to LSB-first bytes (`ceil(len / 8)` of them).
    pub fn to_bytes_lsb(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len.div_ceil(8)];
        self.write_bytes_lsb(&mut out);
        out
    }

    /// Writes the LSB-first byte image into `buf` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is not exactly `ceil(len / 8)` bytes.
    pub fn write_bytes_lsb(&self, buf: &mut [u8]) {
        assert_eq!(
            buf.len(),
            self.len.div_ceil(8),
            "byte buffer must be ceil(len/8) bytes"
        );
        for (chunk, word) in buf.chunks_mut(8).zip(&self.words) {
            let bytes = word.to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// Zeroes any bits above `len` in the last word (the type invariant).
    fn mask_tail(&mut self) {
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= low_mask(tail);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zeroed() {
        let b = PackedBits::new(130);
        assert_eq!(b.len(), 130);
        assert_eq!(b.count_ones(), 0);
        assert!(!b.is_empty());
        assert!(PackedBits::new(0).is_empty());
    }

    #[test]
    fn set_get_round_trip() {
        let mut b = PackedBits::new(200);
        for i in [0, 1, 63, 64, 65, 127, 128, 199] {
            b.set(i, true);
            assert!(b.get(i), "lane {i}");
        }
        assert_eq!(b.count_ones(), 8);
        b.set(64, false);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_bounds_checked() {
        let b = PackedBits::new(10);
        let _ = b.get(10);
    }

    #[test]
    fn bools_round_trip() {
        let bits: Vec<bool> = (0..100).map(|i| i % 3 == 0).collect();
        let b = PackedBits::from_bools(&bits);
        assert_eq!(b.to_bools(), bits);
    }

    #[test]
    fn splat_and_fill_respect_tail_invariant() {
        let a = PackedBits::splat(70, true);
        assert_eq!(a.count_ones(), 70);
        // The tail bits beyond len are zero, so equality with a re-built
        // vector holds.
        let b = PackedBits::from_bools(&[true; 70]);
        assert_eq!(a, b);
        let mut c = a.clone();
        c.fill(false);
        assert_eq!(c, PackedBits::new(70));
    }

    #[test]
    fn count_ones_range_matches_scalar() {
        let bits: Vec<bool> = (0..150).map(|i| (i * 7) % 5 < 2).collect();
        let b = PackedBits::from_bools(&bits);
        for (start, len) in [(0, 150), (0, 1), (63, 2), (10, 100), (149, 1), (70, 0)] {
            let expect = bits[start..start + len].iter().filter(|&&x| x).count();
            assert_eq!(b.count_ones_range(start, len), expect, "{start}+{len}");
        }
    }

    #[test]
    fn extract_insert_word_round_trip() {
        let mut b = PackedBits::new(200);
        // Straddles the word boundary at 64.
        b.insert_word(60, 10, 0b10_1101_0111);
        assert_eq!(b.extract_word(60, 10), 0b10_1101_0111);
        assert_eq!(b.extract_word(60, 4), 0b0111);
        assert_eq!(b.extract_word(64, 6), 0b10_1101);
        assert_eq!(b.extract_word(0, 60), 0);
        // Full-width insert at an unaligned offset.
        b.insert_word(100, 64, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(b.extract_word(100, 64), 0xDEAD_BEEF_CAFE_F00D);
        // Inserting masks value bits above n.
        b.insert_word(0, 4, 0xFF);
        assert_eq!(b.extract_word(0, 4), 0xF);
        assert!(!b.get(4));
    }

    #[test]
    fn insert_word_is_surgical() {
        let mut b = PackedBits::splat(128, true);
        b.insert_word(62, 4, 0);
        assert_eq!(b.count_ones(), 124);
        assert!(b.get(61) && !b.get(62) && !b.get(65) && b.get(66));
    }

    #[test]
    fn copy_range_matches_scalar_copy() {
        let src_bits: Vec<bool> = (0..130).map(|i| i % 2 == 0).collect();
        let src = PackedBits::from_bools(&src_bits);
        let mut dst = PackedBits::splat(130, true);
        dst.copy_range_from(5, &src, 60, 70);
        let mut expect = vec![true; 130];
        expect[5..75].copy_from_slice(&src_bits[60..130]);
        assert_eq!(dst.to_bools(), expect);
    }

    #[test]
    fn fill_range_sets_and_clears() {
        let mut b = PackedBits::new(100);
        b.fill_range(30, 40, true);
        assert_eq!(b.count_ones(), 40);
        assert!(!b.get(29) && b.get(30) && b.get(69) && !b.get(70));
        b.fill_range(35, 5, false);
        assert_eq!(b.count_ones(), 35);
    }

    #[test]
    fn byte_round_trip_lsb_first() {
        let bytes = [0xA5u8, 0x01, 0xFF];
        let b = PackedBits::from_bytes_lsb(&bytes, 24);
        assert!(b.get(0) && !b.get(1) && b.get(2));
        assert!(b.get(8) && !b.get(9));
        assert_eq!(b.to_bytes_lsb(), bytes);
        // Partial trailing byte.
        let c = PackedBits::from_bytes_lsb(&[0xFF], 5);
        assert_eq!(c.count_ones(), 5);
        assert_eq!(c.to_bytes_lsb(), vec![0x1F]);
    }

    #[test]
    fn write_bytes_into_buffer() {
        let b =
            PackedBits::from_bytes_lsb(&[0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF0, 0x11], 72);
        let mut buf = [0u8; 9];
        b.write_bytes_lsb(&mut buf);
        assert_eq!(buf, [0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF0, 0x11]);
    }

    #[test]
    fn equality_ignores_dead_tail_bits() {
        let mut a = PackedBits::splat(10, true);
        a.fill(false);
        let b = PackedBits::new(10);
        assert_eq!(a, b);
    }
}
