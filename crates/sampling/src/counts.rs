//! Accumulators turning per-sample default indicators into estimates.

/// Running counts of how often each tracked node defaulted, over a known
/// number of samples. This is the `vc` array of Algorithm 1 / Algorithm 5.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DefaultCounts {
    counts: Vec<u64>,
    samples: u64,
}

impl DefaultCounts {
    /// Creates an accumulator tracking `len` slots (nodes or candidates).
    pub fn new(len: usize) -> Self {
        DefaultCounts { counts: vec![0; len], samples: 0 }
    }

    /// Number of tracked slots.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// `true` if no slots are tracked.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Number of samples recorded so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Raw default count of slot `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Records one sample's outcome: `defaulted[i]` says whether slot `i`
    /// defaulted in this sample.
    pub fn record_mask(&mut self, defaulted: &[bool]) {
        assert_eq!(defaulted.len(), self.counts.len(), "mask length mismatch");
        self.samples += 1;
        for (c, &d) in self.counts.iter_mut().zip(defaulted) {
            *c += d as u64;
        }
    }

    /// Records a whole world block's outcomes by popcount: `words[i]` is
    /// slot `i`'s per-lane default mask and `lane_mask` selects which
    /// lanes count (all 64 for a full block, the low bits for a partial
    /// one). Equivalent to [`Self::record_mask`] once per selected lane.
    pub fn record_block(&mut self, words: &[u64], lane_mask: u64) {
        self.record_words::<1>(words, &[lane_mask]);
    }

    /// Records a whole `W`-word superblock's outcomes by popcount:
    /// `words` is a flat stride-`W` buffer (slot `i`'s word-vector at
    /// `words[i·W .. i·W + W]`) and `masks[w]` selects which lanes of
    /// word `w` count. Equivalent to [`Self::record_mask`] once per
    /// selected lane — and to [`Self::record_block`] once per word.
    pub fn record_words<const W: usize>(&mut self, words: &[u64], masks: &[u64; W]) {
        assert_eq!(words.len(), self.counts.len() * W, "block width mismatch");
        self.samples += masks.iter().map(|m| u64::from(m.count_ones())).sum::<u64>();
        for (c, vec) in self.counts.iter_mut().zip(words.chunks_exact(W)) {
            let mut hits = 0u64;
            for w in 0..W {
                hits += u64::from((vec[w] & masks[w]).count_ones());
            }
            *c += hits;
        }
    }

    /// Starts a new sample without a mask; combine with [`Self::bump`].
    pub fn begin_sample(&mut self) {
        self.samples += 1;
    }

    /// Increments slot `i` within the current sample.
    pub fn bump(&mut self, i: usize) {
        self.counts[i] += 1;
    }

    /// Estimated default probability of slot `i`: `count / samples`.
    /// Returns 0 when no samples were recorded.
    pub fn estimate(&self, i: usize) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.counts[i] as f64 / self.samples as f64
        }
    }

    /// All estimates as a vector.
    pub fn estimates(&self) -> Vec<f64> {
        (0..self.counts.len()).map(|i| self.estimate(i)).collect()
    }

    /// Merges counts from a disjoint batch of samples over the same slots.
    pub fn merge(&mut self, other: &DefaultCounts) {
        assert_eq!(self.counts.len(), other.counts.len(), "slot count mismatch");
        self.samples += other.samples;
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Overwrites slot `slots[j]` with `part`'s slot `j`, for every `j`:
    /// the write half of a partial recount, where `part` counted just
    /// those slots over the same samples `self` covers.
    pub fn overwrite(&mut self, slots: &[usize], part: &DefaultCounts) {
        assert_eq!(self.samples, part.samples, "sample count mismatch");
        assert_eq!(slots.len(), part.counts.len(), "slot count mismatch");
        for (&slot, &count) in slots.iter().zip(&part.counts) {
            self.counts[slot] = count;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_estimate() {
        let mut c = DefaultCounts::new(3);
        c.record_mask(&[true, false, true]);
        c.record_mask(&[true, false, false]);
        assert_eq!(c.samples(), 2);
        assert_eq!(c.estimate(0), 1.0);
        assert_eq!(c.estimate(1), 0.0);
        assert_eq!(c.estimate(2), 0.5);
        assert_eq!(c.estimates(), vec![1.0, 0.0, 0.5]);
    }

    #[test]
    fn empty_estimates_are_zero() {
        let c = DefaultCounts::new(2);
        assert_eq!(c.estimate(0), 0.0);
        assert_eq!(c.samples(), 0);
    }

    #[test]
    fn bump_api_matches_mask_api() {
        let mut a = DefaultCounts::new(2);
        a.record_mask(&[true, false]);
        let mut b = DefaultCounts::new(2);
        b.begin_sample();
        b.bump(0);
        assert_eq!(a, b);
    }

    #[test]
    fn record_block_matches_per_lane_masks() {
        let words = [0b1011u64, 0b0110u64];
        let mut blockwise = DefaultCounts::new(2);
        blockwise.record_block(&words, 0b1111);
        let mut lanewise = DefaultCounts::new(2);
        for lane in 0..4 {
            lanewise.record_mask(&[words[0] >> lane & 1 == 1, words[1] >> lane & 1 == 1]);
        }
        assert_eq!(blockwise, lanewise);
        // A partial lane mask ignores the unselected lanes entirely.
        let mut partial = DefaultCounts::new(2);
        partial.record_block(&words, 0b0011);
        assert_eq!(partial.samples(), 2);
        assert_eq!(partial.count(0), 2);
        assert_eq!(partial.count(1), 1);
    }

    #[test]
    fn record_words_matches_per_word_record_block() {
        // Two slots, width 2: word-vectors [a0, a1], [b0, b1].
        let words = [0b1011u64, 0b1100u64, 0b0110u64, 0b0001u64];
        let masks = [0b1111u64, 0b0111u64];
        let mut wide = DefaultCounts::new(2);
        wide.record_words::<2>(&words, &masks);
        let mut narrow = DefaultCounts::new(2);
        narrow.record_block(&[words[0], words[2]], masks[0]);
        narrow.record_block(&[words[1], words[3]], masks[1]);
        assert_eq!(wide, narrow);
    }

    #[test]
    #[should_panic(expected = "block width mismatch")]
    fn record_words_checks_width() {
        let mut c = DefaultCounts::new(2);
        c.record_words::<2>(&[0u64; 3], &[u64::MAX; 2]);
    }

    #[test]
    #[should_panic(expected = "block width mismatch")]
    fn record_block_checks_width() {
        let mut c = DefaultCounts::new(2);
        c.record_block(&[0u64], u64::MAX);
    }

    #[test]
    fn overwrite_replaces_only_the_listed_slots() {
        let mut full = DefaultCounts::new(3);
        full.record_mask(&[true, true, false]);
        full.record_mask(&[true, false, false]);
        let mut part = DefaultCounts::new(2);
        part.record_mask(&[false, true]);
        part.record_mask(&[false, true]);
        full.overwrite(&[0, 2], &part);
        assert_eq!((full.count(0), full.count(1), full.count(2)), (0, 1, 2));
        assert_eq!(full.samples(), 2);
    }

    #[test]
    #[should_panic(expected = "sample count mismatch")]
    fn overwrite_checks_sample_counts() {
        let mut full = DefaultCounts::new(2);
        full.record_mask(&[true, false]);
        full.overwrite(&[0], &DefaultCounts::new(1));
    }

    #[test]
    fn merge_adds_counts_and_samples() {
        let mut a = DefaultCounts::new(2);
        a.record_mask(&[true, false]);
        let mut b = DefaultCounts::new(2);
        b.record_mask(&[true, true]);
        b.record_mask(&[false, true]);
        a.merge(&b);
        assert_eq!(a.samples(), 3);
        assert_eq!(a.count(0), 2);
        assert_eq!(a.count(1), 2);
    }

    #[test]
    #[should_panic(expected = "mask length mismatch")]
    fn mask_length_is_checked() {
        let mut c = DefaultCounts::new(2);
        c.record_mask(&[true]);
    }

    #[test]
    #[should_panic(expected = "slot count mismatch")]
    fn merge_length_is_checked() {
        let mut a = DefaultCounts::new(2);
        a.merge(&DefaultCounts::new(3));
    }
}
