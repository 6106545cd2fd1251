//! Lane operations for the replay kernels.
//!
//! Every hot probe in the simulator is a data-parallel sweep over a
//! small `u64` array: the packed tag compare of the set-associative
//! arrays, the CAM probes behind [`crate::cam`] (the victim buffer,
//! AGAC's directory, the HAC subarrays), the B-Cache's
//! programmable-decoder entry match in `bcache-core`, and the LRU
//! stamp scan. This module factors those sweeps into a handful of
//! *lane operations* — compare-mask, first-set-lane, popcount tally
//! and min-index — written as straight-line, branch-free `u64` loops
//! over lane groups of [`LANES`], the shape the compiler unrolls and
//! auto-vectorizes on any target.
//!
//! Semantics are first-match, first-invalid and first-minimum indices,
//! pinned by the unit tests below against plain scalar scans.

/// Lanes per group in the chunked scans ([`first_match`],
/// [`min_index`]): one early-out test per group of this many words.
pub const LANES: usize = 8;

/// Bit `i` of the result is set iff `(words[i] & and_mask) == needle`.
///
/// The one compare that serves every probe in the tree: packed
/// tag-match is `and_mask = !2` (dirty bit ignored) against the
/// `tag<<2|1` search key, validity is `and_mask = 1`, and the PD's
/// raw-entry compare is `and_mask = !0`. `words.len()` must be ≤ 64.
#[inline(always)]
pub fn masked_eq_mask(words: &[u64], and_mask: u64, needle: u64) -> u64 {
    debug_assert!(words.len() <= 64, "lane mask wider than u64");
    let mut m = 0u64;
    for (i, &w) in words.iter().enumerate() {
        m |= (((w & and_mask) == needle) as u64) << i;
    }
    m
}

/// One pass, two needles: returns the lane masks of
/// `(words[i] == needle_a, words[i] == needle_b)`.
///
/// The programmable decoder's fused probe: one load per entry feeds
/// both the PI match and the cold-entry (sentinel) compare.
#[inline(always)]
pub fn dual_eq_masks(words: &[u64], needle_a: u64, needle_b: u64) -> (u64, u64) {
    debug_assert!(words.len() <= 64, "lane mask wider than u64");
    let (mut a, mut b) = (0u64, 0u64);
    for (i, &w) in words.iter().enumerate() {
        a |= ((w == needle_a) as u64) << i;
        b |= ((w == needle_b) as u64) << i;
    }
    (a, b)
}

/// The first set lane of a compare mask, i.e. the CAM's priority
/// encoder.
#[inline(always)]
pub fn first_set_lane(mask: u64) -> Option<usize> {
    (mask != 0).then(|| mask.trailing_zeros() as usize)
}

/// Index of the first word with `(word & and_mask) == needle`, over a
/// slice of any length (chunked compare-mask with an early out).
#[inline(always)]
pub fn first_match(words: &[u64], and_mask: u64, needle: u64) -> Option<usize> {
    // Tiny widths (direct-mapped, 2-way) go straight to the scalar
    // compare.
    if words.len() < 4 {
        return words.iter().position(|&w| (w & and_mask) == needle);
    }
    // Lane groups of LANES with a per-group early out: the group body
    // is branch-free, the exit test is one compare per group.
    let mut base = 0;
    let mut chunks = words.chunks_exact(LANES);
    for c in &mut chunks {
        let m = masked_eq_mask(c, and_mask, needle);
        if m != 0 {
            return Some(base + m.trailing_zeros() as usize);
        }
        base += LANES;
    }
    let m = masked_eq_mask(chunks.remainder(), and_mask, needle);
    (m != 0).then(|| base + m.trailing_zeros() as usize)
}

/// How many words satisfy `(word & and_mask) == needle`; any slice
/// length.
#[inline(always)]
pub fn count_matching(words: &[u64], and_mask: u64, needle: u64) -> usize {
    let mut n = 0usize;
    for &w in words {
        n += ((w & and_mask) == needle) as usize;
    }
    n
}

/// Index of the first minimum of `stamps` — exactly the victim LRU's
/// `min_by_key` picks (ties break to the lowest index). Returns 0 for
/// an empty slice.
#[inline(always)]
pub fn min_index(stamps: &[u64]) -> usize {
    // Below one lane group the serial compare chain wins.
    if stamps.len() < 4 {
        let mut best = 0;
        for (i, &s) in stamps.iter().enumerate().skip(1) {
            if s < stamps[best] {
                best = i;
            }
        }
        return best;
    }
    // Two passes: a lane-sliced running minimum (vectorizable), then
    // the priority encoder over lanes equal to the global minimum —
    // which is exactly "first index of the minimum".
    let mut vmin = [u64::MAX; LANES];
    let mut chunks = stamps.chunks_exact(LANES);
    for c in &mut chunks {
        for i in 0..LANES {
            vmin[i] = vmin[i].min(c[i]);
        }
    }
    let mut m = u64::MAX;
    for &s in vmin.iter().chain(chunks.remainder()) {
        if s < m {
            m = s;
        }
    }
    first_match(stamps, !0, m).expect("the minimum is present")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64, matching the shims' generator.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed;
        move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Words with deliberately clustered values so compares hit often.
    fn words_of(len: usize, seed: u64) -> Vec<u64> {
        let mut next = rng(seed);
        (0..len).map(|_| next() % 8).collect()
    }

    /// Every lane operation against a straight scalar reference, across
    /// lengths that exercise both the lane-group body and the tails.
    #[test]
    fn lane_ops_agree_with_scalar_scans_at_every_length() {
        for len in 0..=33 {
            for seed in 0..4u64 {
                let words = words_of(len, seed * 977 + len as u64);
                for &(and_mask, needle) in
                    &[(!0u64, 3u64), (!2u64, 1), (1u64, 0), (!0u64, u64::MAX)]
                {
                    let reference_mask: u64 = words
                        .iter()
                        .enumerate()
                        .map(|(i, &w)| (((w & and_mask) == needle) as u64) << i)
                        .sum();
                    let reference_first = words.iter().position(|&w| (w & and_mask) == needle);
                    let reference_count =
                        words.iter().filter(|&&w| (w & and_mask) == needle).count();
                    let ctx = format!("len {len} mask {and_mask:#x} needle {needle}");
                    assert_eq!(
                        masked_eq_mask(&words, and_mask, needle),
                        reference_mask,
                        "{ctx}"
                    );
                    assert_eq!(
                        first_match(&words, and_mask, needle),
                        reference_first,
                        "{ctx}"
                    );
                    assert_eq!(
                        count_matching(&words, and_mask, needle),
                        reference_count,
                        "{ctx}"
                    );
                }
                // dual_eq_masks ≡ two single-needle masks.
                let (a, c) = dual_eq_masks(&words, 3, u64::MAX);
                assert_eq!(a, masked_eq_mask(&words, !0, 3));
                assert_eq!(c, masked_eq_mask(&words, !0, u64::MAX));
                // min_index ≡ the first-minimum scan.
                if let Some((reference_min, _)) = words.iter().enumerate().min_by_key(|&(_, s)| *s)
                {
                    assert_eq!(min_index(&words), reference_min, "len {len} {words:?}");
                }
            }
        }
    }

    #[test]
    fn min_index_breaks_ties_to_the_lowest_lane() {
        assert_eq!(min_index(&[5, 2, 2, 9]), 1);
        assert_eq!(min_index(&[0; 32]), 0);
        assert_eq!(min_index(&[3]), 0);
        assert_eq!(min_index(&[]), 0);
        // The tie at a lane-group boundary: lanes 3 and 4 equal.
        let mut s = vec![9u64; 11];
        s[3] = 1;
        s[4] = 1;
        assert_eq!(min_index(&s), 3);
        // Minimum only in the scalar tail.
        let mut t = vec![7u64; 9];
        t[8] = 0;
        assert_eq!(min_index(&t), 8);
    }

    #[test]
    fn first_set_lane_is_a_priority_encoder() {
        assert_eq!(first_set_lane(0), None);
        assert_eq!(first_set_lane(0b1000), Some(3));
        assert_eq!(first_set_lane(u64::MAX), Some(0));
    }
}
