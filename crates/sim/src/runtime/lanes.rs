//! The engine's wake-flag bitset: one bit per node, so the
//! "already woken this round?" check is a word load and a mask, and the
//! "anything still flagged?" scan and a busy round's ascending sweep
//! order work a word (64 nodes) at a time.

use planartest_graph::NodeId;

/// A fixed-length bitset over node ids (one bit per node).
#[derive(Debug, Clone)]
pub struct LaneBits {
    words: Vec<u64>,
    len: usize,
}

impl LaneBits {
    /// An all-clear bitset over `len` nodes.
    #[must_use]
    pub fn new(len: usize) -> Self {
        LaneBits {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Node `i`'s flag.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i >> 6] >> (i & 63)) & 1 != 0
    }

    /// Sets node `i`'s flag.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i >> 6] |= 1 << (i & 63);
    }

    /// Clears node `i`'s flag.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i >> 6] &= !(1 << (i & 63));
    }

    /// Number of 64-node words backing the set.
    #[must_use]
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Appends every flagged node to `out` in ascending order and clears
    /// every flag: one pass over the words.
    pub fn drain_ascending(&mut self, out: &mut Vec<NodeId>) {
        for (i, word) in self.words.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                out.push(NodeId::new(64 * i + bits.trailing_zeros() as usize));
                bits &= bits - 1;
            }
        }
    }

    /// Whether any flag is set: one OR-reduction over the words.
    #[must_use]
    pub fn any_set(&self) -> bool {
        self.words.iter().fold(0u64, |acc, &w| acc | w) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut bits = LaneBits::new(130);
        assert!(!bits.any_set());
        for i in [0, 63, 64, 129] {
            assert!(!bits.get(i));
            bits.set(i);
            assert!(bits.get(i));
        }
        assert!(bits.any_set());
        bits.clear(64);
        assert!(!bits.get(64));
        assert!(bits.get(63) && bits.get(129));
        for i in [0, 63, 129] {
            bits.clear(i);
        }
        assert!(!bits.any_set());
        assert!(!LaneBits::new(0).any_set());
        // Draining appends the flagged nodes ascending and clears them.
        assert_eq!(bits.word_count(), 3);
        for i in [129, 64, 0, 65, 63] {
            bits.set(i);
        }
        let mut out = vec![NodeId::new(7)];
        bits.drain_ascending(&mut out);
        let got: Vec<usize> = out.iter().map(|v| v.index()).collect();
        assert_eq!(got, [7, 0, 63, 64, 65, 129]);
        assert!(!bits.any_set());
    }
}
