//! Bit-exact row content storage and the true-/anti-cell charge mapping.
//!
//! Data-dependent failures are a function of *charge*, not of logical bit
//! values: an aggressor cell disturbs its victim when their stored charges
//! differ. Real DRAM complicates the logical→charge mapping with *true cells*
//! (logical `1` = charged) and *anti cells* (logical `0` = charged), laid out
//! differently by every vendor (the paper cites this as one reason
//! system-level detection is hard). [`TrueAntiLayout`] models that mapping;
//! [`RowContent`] stores the logical bits.

/// Logical content of one DRAM row, stored as 64-bit words.
///
/// Bit `i` of the row is bit `i % 64` of word `i / 64`.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct RowContent {
    words: Vec<u64>,
}

impl Clone for RowContent {
    fn clone(&self) -> Self {
        RowContent {
            words: self.words.clone(),
        }
    }

    /// Copies into `self`'s existing word buffer, so re-snapshotting a
    /// row of the same width allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
    }
}

impl RowContent {
    /// An all-zero row of `words` 64-bit words.
    #[must_use]
    pub fn zeroed(words: usize) -> Self {
        RowContent {
            words: vec![0; words],
        }
    }

    /// An all-one row of `words` 64-bit words.
    #[must_use]
    pub fn ones(words: usize) -> Self {
        RowContent {
            words: vec![u64::MAX; words],
        }
    }

    /// Wraps existing word storage.
    #[must_use]
    pub fn from_words(words: Vec<u64>) -> Self {
        RowContent { words }
    }

    /// Builds a row by evaluating `f(bit_index)` for every bit.
    #[must_use]
    pub fn from_fn(words: usize, mut f: impl FnMut(u64) -> bool) -> Self {
        let mut row = RowContent::zeroed(words);
        for i in 0..row.bits() {
            if f(i) {
                row.set_bit(i, true);
            }
        }
        row
    }

    /// Number of 64-bit words.
    #[must_use]
    pub fn len_words(&self) -> usize {
        self.words.len()
    }

    /// Number of bits.
    #[must_use]
    pub fn bits(&self) -> u64 {
        self.words.len() as u64 * 64
    }

    /// Reads one bit.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is out of range.
    #[must_use]
    pub fn bit(&self, bit: u64) -> bool {
        let w = self.words[(bit / 64) as usize];
        (w >> (bit % 64)) & 1 == 1
    }

    /// Writes one bit.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is out of range.
    pub fn set_bit(&mut self, bit: u64, value: bool) {
        let w = &mut self.words[(bit / 64) as usize];
        if value {
            *w |= 1 << (bit % 64);
        } else {
            *w &= !(1 << (bit % 64));
        }
    }

    /// Flips one bit, returning its new value.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is out of range.
    pub fn flip_bit(&mut self, bit: u64) -> bool {
        let w = &mut self.words[(bit / 64) as usize];
        *w ^= 1 << (bit % 64);
        (*w >> (bit % 64)) & 1 == 1
    }

    /// Borrowed view of the word storage.
    #[must_use]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Bit positions at which `self` and `other` differ — the "failing cells"
    /// a read-back comparison discovers.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    #[must_use]
    pub fn diff_bits(&self, other: &RowContent) -> Vec<u64> {
        assert_eq!(self.words.len(), other.words.len(), "row length mismatch");
        let mut out = Vec::new();
        for (wi, (a, b)) in self.words.iter().zip(&other.words).enumerate() {
            let mut x = a ^ b;
            while x != 0 {
                let tz = x.trailing_zeros() as u64;
                out.push(wi as u64 * 64 + tz);
                x &= x - 1;
            }
        }
        out
    }

    /// Number of differing bits (popcount of the XOR), without allocating.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    #[must_use]
    pub fn hamming_distance(&self, other: &RowContent) -> u64 {
        assert_eq!(self.words.len(), other.words.len(), "row length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| u64::from((a ^ b).count_ones()))
            .sum()
    }

    /// Number of set bits.
    #[must_use]
    pub fn popcount(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Returns a bitwise-inverted copy.
    #[must_use]
    pub fn inverted(&self) -> RowContent {
        RowContent {
            words: self.words.iter().map(|w| !w).collect(),
        }
    }
}

/// Polarity of a cell: whether logical `1` or logical `0` is the charged
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellPolarity {
    /// Logical `1` is stored as a charged capacitor.
    True,
    /// Logical `0` is stored as a charged capacitor.
    Anti,
}

impl CellPolarity {
    /// The charge state (`true` = charged) of a cell with this polarity
    /// holding `logical` data.
    #[must_use]
    pub fn charge(self, logical: bool) -> bool {
        match self {
            CellPolarity::True => logical,
            CellPolarity::Anti => !logical,
        }
    }
}

/// Vendor-specific layout of true and anti cells across a bank's rows.
///
/// Liu et al. (ISCA 2013), cited by the paper, observed half-and-half and
/// row-interleaved layouts in real chips; both are modelled, plus the trivial
/// all-true layout for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrueAntiLayout {
    /// Every cell is a true cell.
    AllTrue,
    /// Even internal rows are true cells, odd internal rows anti cells.
    AlternateRows,
    /// The lower half of the bank is true cells, the upper half anti cells.
    HalfAndHalf {
        /// Number of rows per bank (needed to find the midpoint).
        rows_per_bank: u32,
    },
}

impl TrueAntiLayout {
    /// Polarity of cells in internal row `row`.
    #[must_use]
    pub fn polarity(self, row: u32) -> CellPolarity {
        match self {
            TrueAntiLayout::AllTrue => CellPolarity::True,
            TrueAntiLayout::AlternateRows => {
                if row.is_multiple_of(2) {
                    CellPolarity::True
                } else {
                    CellPolarity::Anti
                }
            }
            TrueAntiLayout::HalfAndHalf { rows_per_bank } => {
                if row < rows_per_bank / 2 {
                    CellPolarity::True
                } else {
                    CellPolarity::Anti
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_set_get_flip() {
        let mut r = RowContent::zeroed(2);
        assert_eq!(r.bits(), 128);
        assert!(!r.bit(70));
        r.set_bit(70, true);
        assert!(r.bit(70));
        assert_eq!(r.popcount(), 1);
        assert!(!r.flip_bit(70));
        assert_eq!(r.popcount(), 0);
    }

    #[test]
    fn diff_bits_finds_exact_positions() {
        let mut a = RowContent::zeroed(4);
        let b = RowContent::zeroed(4);
        a.set_bit(0, true);
        a.set_bit(63, true);
        a.set_bit(64, true);
        a.set_bit(255, true);
        assert_eq!(a.diff_bits(&b), vec![0, 63, 64, 255]);
        assert_eq!(a.hamming_distance(&b), 4);
    }

    #[test]
    fn inverted_is_involution() {
        let r = RowContent::from_words(vec![0xDEAD_BEEF, 0, u64::MAX]);
        assert_eq!(r.inverted().inverted(), r);
        assert_eq!(r.hamming_distance(&r.inverted()), r.bits());
    }

    #[test]
    fn from_fn_builds_checkerboard() {
        let r = RowContent::from_fn(1, |i| i % 2 == 0);
        assert_eq!(r.as_words()[0], 0x5555_5555_5555_5555);
    }

    #[test]
    fn ones_and_zeroed() {
        assert_eq!(RowContent::ones(3).popcount(), 192);
        assert_eq!(RowContent::zeroed(3).popcount(), 0);
    }

    #[test]
    fn polarity_charge_mapping() {
        assert!(CellPolarity::True.charge(true));
        assert!(!CellPolarity::True.charge(false));
        assert!(!CellPolarity::Anti.charge(true));
        assert!(CellPolarity::Anti.charge(false));
    }

    #[test]
    fn layouts() {
        assert_eq!(TrueAntiLayout::AllTrue.polarity(7), CellPolarity::True);
        assert_eq!(
            TrueAntiLayout::AlternateRows.polarity(0),
            CellPolarity::True
        );
        assert_eq!(
            TrueAntiLayout::AlternateRows.polarity(1),
            CellPolarity::Anti
        );
        let half = TrueAntiLayout::HalfAndHalf { rows_per_bank: 100 };
        assert_eq!(half.polarity(49), CellPolarity::True);
        assert_eq!(half.polarity(50), CellPolarity::Anti);
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn diff_requires_equal_len() {
        let _ = RowContent::zeroed(1).diff_bits(&RowContent::zeroed(2));
    }

    /// Seeded property loop: the explicit diff-bit list always agrees with
    /// the popcount-based Hamming distance.
    #[test]
    fn prop_diff_matches_hamming() {
        use memutil::rng::{Rng, SeedableRng, SmallRng};
        let mut rng = SmallRng::seed_from_u64(0xCE11_0001);
        for _ in 0..256 {
            let a: Vec<u64> = (0..4).map(|_| rng.gen()).collect();
            let b: Vec<u64> = (0..4).map(|_| rng.gen()).collect();
            let ra = RowContent::from_words(a);
            let rb = RowContent::from_words(b);
            assert_eq!(ra.diff_bits(&rb).len() as u64, ra.hamming_distance(&rb));
        }
    }

    /// Seeded property loop: bits set (possibly with duplicates) read back
    /// set, and the popcount equals the number of distinct positions.
    #[test]
    fn prop_set_then_get() {
        use memutil::rng::{Rng, SeedableRng, SmallRng};
        let mut rng = SmallRng::seed_from_u64(0xCE11_0002);
        for _ in 0..256 {
            let n = rng.gen_range(0usize..32);
            let bits: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..256)).collect();
            let mut r = RowContent::zeroed(4);
            for &b in &bits {
                r.set_bit(b, true);
            }
            for &b in &bits {
                assert!(r.bit(b));
            }
            let unique: std::collections::HashSet<_> = bits.iter().collect();
            assert_eq!(r.popcount() as usize, unique.len());
        }
    }
}
