//! Tree labels and the violating-edge condition (Definition 7).
//!
//! A node's label is the sequence of child indices along its BFS-tree path
//! from the part root, where children are numbered by the circular order
//! of the part's combinatorial embedding starting after the parent edge.
//! Labels compare lexicographically; a non-tree edge *violates* if its
//! label interval strictly interleaves another non-tree edge's interval.

use std::cmp::Ordering;

use super::pack;

/// A node label: digits along the tree path from the root (root = empty).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Label(pub Vec<u32>);

impl Label {
    /// The root's (empty) label.
    pub fn root() -> Self {
        Label(Vec::new())
    }

    /// This label extended by one child digit.
    pub fn child(&self, digit: u32) -> Self {
        let mut v = self.0.clone();
        v.push(digit);
        Label(v)
    }

    /// Number of digits (= tree depth of the node).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether this is the root label.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Lexicographic comparison per the paper's footnote 5: a prefix
    /// precedes its extensions.
    pub fn lex_cmp(&self, other: &Label) -> Ordering {
        self.0.cmp(&other.0)
    }
}

/// An undirected non-tree edge as an ordered label interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledEdge {
    /// The smaller endpoint label.
    pub lo: Label,
    /// The larger endpoint label.
    pub hi: Label,
}

impl LabeledEdge {
    /// Builds the ordered interval from two endpoint labels.
    ///
    /// # Panics
    ///
    /// Panics if the labels are equal (two distinct nodes always have
    /// distinct labels).
    pub fn new(a: Label, b: Label) -> Self {
        match a.lex_cmp(&b) {
            Ordering::Less => LabeledEdge { lo: a, hi: b },
            Ordering::Greater => LabeledEdge { lo: b, hi: a },
            Ordering::Equal => panic!("a non-tree edge cannot connect equal labels"),
        }
    }

    /// Definition 7: `(u,v)` and `(u',v')` *intersect* iff
    /// `ℓ(u) < ℓ(u') < ℓ(v) < ℓ(v')` (in either role order).
    pub fn intersects(&self, other: &LabeledEdge) -> bool {
        intersects(&self.lo.0, &self.hi.0, &other.lo.0, &other.hi.0)
    }
}

/// [`LabeledEdge::intersects`] on any ordered keys: the ordered
/// intervals `(lo, hi)` and `(other_lo, other_hi)` interleave strictly.
/// Digit slices compare lexicographically, a prefix first, like
/// [`Label::lex_cmp`]; Stage II's check compares the labels' ranks
/// within their part, which order the same way.
pub(crate) fn intersects<T: Ord + ?Sized>(lo: &T, hi: &T, other_lo: &T, other_hi: &T) -> bool {
    (lo < other_lo && other_lo < hi && hi < other_hi)
        || (other_lo < lo && lo < other_hi && other_hi < hi)
}

/// Appends the packed wire encoding of a label to `out`: a header word
/// `(len << 2) | width_class` followed by the digits packed 16, 4 or 2
/// per word (width classes 0, 1, 2 = 4-, 16- and 32-bit digits, chosen
/// from the label's largest digit).
///
/// One `u64` word models one `O(log n)`-bit message unit, so shipping
/// one child digit (almost always < 16) per word under-uses every
/// message by an order of magnitude. The sample-interval streams —
/// the tester's dominant message volume — ride this encoding.
///
/// The digit transpose runs on the SWAR kernels in [`super::pack`]
/// (pairwise in-register packing).
pub(crate) fn pack_label(digits: &[u32], out: &mut Vec<u64>) {
    let (width, bits, per) = pack::width_class_swar(digits);
    out.push(((digits.len() as u64) << 2) | width);
    pack::pack_swar(digits, bits, per, out);
}

/// Decodes one packed label starting at `words[0]`; returns the digits
/// and the number of words consumed (header + packed digits). Inverse
/// of [`pack_label`], on the same kernels.
pub(crate) fn unpack_label(words: &[u64]) -> (Vec<u32>, usize) {
    let header = words[0];
    let len = (header >> 2) as usize;
    let (bits, per): (u32, usize) = match header & 3 {
        0 => (4, 16),
        1 => (16, 4),
        2 => (32, 2),
        other => unreachable!("unknown label width class {other}"),
    };
    let mut digits = Vec::with_capacity(len);
    pack::unpack_swar(&words[1..], len, bits, per, &mut digits);
    (digits, 1 + len.div_ceil(per))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(digits: &[u32]) -> Label {
        Label(digits.to_vec())
    }

    #[test]
    fn lex_order() {
        assert_eq!(l(&[]).lex_cmp(&l(&[1])), Ordering::Less); // prefix first
        assert_eq!(l(&[1]).lex_cmp(&l(&[2])), Ordering::Less);
        assert_eq!(l(&[1, 2]).lex_cmp(&l(&[1, 2])), Ordering::Equal);
        assert_eq!(l(&[2]).lex_cmp(&l(&[1, 9])), Ordering::Greater);
        assert_eq!(l(&[1, 1]).lex_cmp(&l(&[1, 2])), Ordering::Less);
    }

    #[test]
    fn label_building() {
        let r = Label::root();
        assert!(r.is_empty());
        let c = r.child(3).child(1);
        assert_eq!(c.len(), 2);
        assert_eq!(c, l(&[3, 1]));
    }

    #[test]
    fn interval_normalisation() {
        let e = LabeledEdge::new(l(&[2]), l(&[1]));
        assert_eq!(e.lo, l(&[1]));
        assert_eq!(e.hi, l(&[2]));
    }

    #[test]
    #[should_panic(expected = "equal labels")]
    fn equal_labels_panic() {
        let _ = LabeledEdge::new(l(&[1]), l(&[1]));
    }

    #[test]
    fn intersection_cases() {
        // Intervals over digits: (1,3) vs (2,4) interleave.
        let a = LabeledEdge::new(l(&[1]), l(&[3]));
        let b = LabeledEdge::new(l(&[2]), l(&[4]));
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        // Nested: (1,4) vs (2,3) do not.
        let c = LabeledEdge::new(l(&[1]), l(&[4]));
        let d = LabeledEdge::new(l(&[2]), l(&[3]));
        assert!(!c.intersects(&d));
        assert!(!d.intersects(&c));
        // Disjoint: (1,2) vs (3,4) do not.
        let e = LabeledEdge::new(l(&[1]), l(&[2]));
        let f = LabeledEdge::new(l(&[3]), l(&[4]));
        assert!(!e.intersects(&f));
        // Sharing an endpoint does not intersect (strict inequalities).
        let g = LabeledEdge::new(l(&[1]), l(&[3]));
        let h = LabeledEdge::new(l(&[3]), l(&[5]));
        assert!(!g.intersects(&h));
        // Self-comparison is not a violation.
        assert!(!a.intersects(&a));
    }

    #[test]
    fn pack_roundtrip_across_width_classes() {
        let cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![0],
            vec![1, 2, 3],
            (0..40).map(|i| i % 16).collect(), // 4-bit, multi-word
            vec![15, 16],                      // forces 16-bit
            vec![1, 65_535],                   // 16-bit boundary
            vec![65_536],                      // forces 32-bit
            vec![u32::MAX, 0, 7],              // 32-bit, padding
            (0..9).map(|i| i * 10_000).collect(), // mixed magnitudes
        ];
        for digits in cases {
            let mut words = Vec::new();
            pack_label(&digits, &mut words);
            // Sanity: small digits pack an order of magnitude denser
            // than one-word-per-digit.
            assert!(words.len() <= 1 + digits.len());
            let (got, used) = unpack_label(&words);
            assert_eq!(got, digits);
            assert_eq!(used, words.len());
        }
    }

    #[test]
    fn pack_streams_concatenate() {
        // Two labels back to back — the interval wire format.
        let a = vec![1u32, 2, 3];
        let b = vec![70_000u32];
        let mut words = Vec::new();
        pack_label(&a, &mut words);
        pack_label(&b, &mut words);
        let (got_a, used) = unpack_label(&words);
        let (got_b, used_b) = unpack_label(&words[used..]);
        assert_eq!((got_a, got_b), (a, b));
        assert_eq!(used + used_b, words.len());
    }

    #[test]
    fn prefix_labels_interleave_correctly() {
        // ℓ(u)=[1] is an ancestor-side label; [1,1] sits inside the
        // subtree: (u=[1], v=[2]) vs (u'=[1,1], v'=[3]).
        let a = LabeledEdge::new(l(&[1]), l(&[2]));
        let b = LabeledEdge::new(l(&[1, 1]), l(&[3]));
        assert!(a.intersects(&b));
    }
}
