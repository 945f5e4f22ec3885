//! Word-packed sets of byte offsets.
//!
//! vMCU's memory saving rests on byte-exact liveness (§3–§4): a store may
//! reuse a pool byte only once its last reader has freed it. The layers
//! that check this discipline — the checked segment pool, the shadow map
//! behind [`Ram`](crate::Ram) and the static auditor — keep the same
//! thing: one bit per byte of a window. [`ByteSet`] packs those bits 64 to a `u64` word and answers
//! every question about a span `[lo, lo + n)` with one masked operation
//! per word the span touches, never one per byte.

/// A set of byte offsets in `0..capacity`, 64 offsets to a `u64` word.
///
/// Every range operation takes a span `[lo, lo + n)` that must lie inside
/// the set; an empty span (`n == 0`) may start at `capacity`.
///
/// # Examples
///
/// ```
/// use vmcu_sim::ByteSet;
///
/// let mut live = ByteSet::new(100);
/// assert_eq!(live.set(60, 10, true), 10); // offsets 60..70 join
/// assert_eq!(live.set(65, 10, true), 5); // 65..70 already were members
/// assert_eq!(live.count(0, 100), 15);
/// assert_eq!(live.first(0, 100, true), Some(60));
/// assert_eq!(live.first(60, 40, false), Some(75));
/// assert!(live.contains(64) && !live.contains(75));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByteSet {
    words: Vec<u64>,
    capacity: usize,
}

impl ByteSet {
    /// An empty set over offsets `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Number of offsets the set ranges over.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether offset `i` is a member.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    pub fn contains(&self, i: usize) -> bool {
        assert!(
            i < self.capacity,
            "offset {i} outside byte set of {}",
            self.capacity
        );
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of members in `[lo, lo + n)`.
    ///
    /// # Panics
    ///
    /// Panics if the span exceeds the set.
    pub fn count(&self, lo: usize, n: usize) -> usize {
        self.masks(lo, n)
            .map(|(w, mask)| (self.words[w] & mask).count_ones() as usize)
            .sum()
    }

    /// The lowest offset in `[lo, lo + n)` whose membership is `member`.
    ///
    /// # Panics
    ///
    /// Panics if the span exceeds the set.
    pub fn first(&self, lo: usize, n: usize, member: bool) -> Option<usize> {
        self.masks(lo, n).find_map(|(w, mask)| {
            let word = if member {
                self.words[w]
            } else {
                !self.words[w]
            };
            let hits = word & mask;
            (hits != 0).then(|| w * 64 + hits.trailing_zeros() as usize)
        })
    }

    /// Makes every offset in `[lo, lo + n)` a member (`member`) or not,
    /// returning how many offsets changed membership.
    ///
    /// # Panics
    ///
    /// Panics if the span exceeds the set.
    pub fn set(&mut self, lo: usize, n: usize, member: bool) -> usize {
        let mut changed = 0;
        for (w, mask) in self.masks(lo, n) {
            let old = self.words[w];
            let new = if member { old | mask } else { old & !mask };
            changed += (old ^ new).count_ones() as usize;
            self.words[w] = new;
        }
        changed
    }

    /// The words `[lo, lo + n)` touches, each with the mask of its bits
    /// inside the span.
    fn masks(&self, lo: usize, n: usize) -> impl Iterator<Item = (usize, u64)> {
        let hi = lo
            .checked_add(n)
            .filter(|&hi| hi <= self.capacity)
            .unwrap_or_else(|| {
                panic!(
                    "span of {n} bytes at {lo} outside byte set of {}",
                    self.capacity
                )
            });
        let (first, last) = (lo / 64, hi.saturating_sub(1) / 64);
        let words = if n == 0 {
            first..first
        } else {
            first..last + 1
        };
        words.map(move |w| {
            let from = if w == first { lo % 64 } else { 0 };
            let to = if w == last { (hi - 1) % 64 + 1 } else { 64 };
            (w, (u64::MAX >> (64 - (to - from))) << from)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The set's answers against a `Vec<bool>` holding the same members.
    fn agrees(set: &ByteSet, bits: &[bool], lo: usize, n: usize) {
        let span = &bits[lo..lo + n];
        assert_eq!(
            set.count(lo, n),
            span.iter().filter(|&&b| b).count(),
            "count {lo}+{n}"
        );
        for member in [false, true] {
            assert_eq!(
                set.first(lo, n, member),
                span.iter().position(|&b| b == member).map(|i| lo + i),
                "first {lo}+{n} {member}"
            );
        }
    }

    #[test]
    fn spans_at_word_edges() {
        const CAP: usize = 200;
        let los = [0, 1, 62, 63, 64, 65, 127, 128, 129];
        for n in [0, 1, 63, 64, 65] {
            for lo in los.into_iter().filter(|&lo| lo + n <= CAP) {
                // Start from an all-member and an all-clear background so
                // a mask that spills past either end of the span shows.
                for background in [false, true] {
                    let mut set = ByteSet::new(CAP);
                    let mut bits = vec![background; CAP];
                    set.set(0, CAP, background);
                    for member in [!background, background] {
                        let changed = set.set(lo, n, member);
                        let before = bits[lo..lo + n].iter().filter(|&&b| b != member).count();
                        bits[lo..lo + n].fill(member);
                        assert_eq!(changed, before, "set {lo}+{n} {member}");
                        for (i, &b) in bits.iter().enumerate() {
                            assert_eq!(set.contains(i), b, "byte {i} after set {lo}+{n}");
                        }
                        for (a, b) in [(0, CAP), (lo, n), (lo.saturating_sub(1), n + 2)] {
                            agrees(&set, &bits, a, b.min(CAP - a));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn spans_ending_on_bits_63_and_64() {
        let mut set = ByteSet::new(130);
        set.set(63, 1, true); // bit 63 of word 0
        set.set(64, 1, true); // bit 0 of word 1
        assert_eq!(set.count(0, 64), 1);
        assert_eq!(set.count(0, 63), 0);
        assert_eq!(set.count(64, 66), 1);
        assert_eq!(set.count(63, 2), 2);
        assert_eq!(set.first(0, 63, true), None);
        assert_eq!(set.first(0, 64, true), Some(63));
        assert_eq!(set.first(64, 1, true), Some(64));
        assert_eq!(set.first(63, 2, false), None);
        assert_eq!(set.first(63, 3, false), Some(65));
        assert_eq!(set.set(0, 130, false), 2);
        assert_eq!(set.count(0, 130), 0);
    }

    #[test]
    fn capacity_not_a_multiple_of_64() {
        let mut set = ByteSet::new(65);
        assert_eq!(set.set(0, 65, true), 65);
        assert_eq!(set.count(0, 65), 65);
        assert_eq!(set.first(0, 65, false), None);
        assert_eq!(set.first(65, 0, true), None);
        assert_eq!(ByteSet::new(0).count(0, 0), 0);
        assert_eq!(ByteSet::new(64).capacity(), 64);
    }

    #[test]
    #[should_panic(expected = "outside byte set")]
    fn span_past_capacity_panics() {
        let _ = ByteSet::new(64).count(60, 5);
    }

    #[test]
    #[should_panic(expected = "outside byte set")]
    fn offset_past_capacity_panics() {
        let _ = ByteSet::new(64).contains(64);
    }
}
