//! Neighbourhood data patterns (`NP8`) and their symmetry classes.

use core::fmt;
use mramsim_mtj::MtjState;

/// An 8-bit neighbourhood pattern for the 3×3 array of Fig. 1b.
///
/// Bit `i` holds the data of aggressor `Cᵢ`; `C0–C3` are the four direct
/// neighbours and `C4–C7` the four diagonal ones. Bit value `0` ≙ P,
/// `1` ≙ AP (paper §IV-B): `NP8 = [d0,…,d7]₂ = [n]₁₀`.
///
/// # Examples
///
/// ```
/// use mramsim_array::NeighborhoodPattern;
/// use mramsim_mtj::MtjState;
///
/// let np = NeighborhoodPattern::new(0b0000_1111); // all direct AP
/// assert_eq!(np.ones_direct(), 4);
/// assert_eq!(np.ones_diagonal(), 0);
/// assert_eq!(np.state_of(0), MtjState::AntiParallel);
/// assert_eq!(np.state_of(7), MtjState::Parallel);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct NeighborhoodPattern(u8);

impl NeighborhoodPattern {
    /// All aggressors in P state — `NP8 = 0`, the paper's worst case for
    /// retention (and the lowest `Hz_s_inter`).
    pub const ALL_P: Self = Self(0);

    /// All aggressors in AP state — `NP8 = 255`, the highest
    /// `Hz_s_inter`.
    pub const ALL_AP: Self = Self(255);

    /// Wraps a raw pattern byte.
    #[inline]
    #[must_use]
    pub const fn new(bits: u8) -> Self {
        Self(bits)
    }

    /// The raw pattern byte (`[n]₁₀` in the paper's notation).
    #[inline]
    #[must_use]
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// The pattern around a victim whose aggressor at lattice offset
    /// `(di, dj)` (rows down, columns right) stores `state_of(di, dj)`.
    ///
    /// The one home of the NP8 bit order: `C0–C3` are the direct
    /// neighbours E, W, S, N and `C4–C7` the diagonals. Positions within
    /// a group are symmetric, so their order does not change the field.
    #[must_use]
    pub fn from_fn(state_of: impl Fn(i32, i32) -> MtjState) -> Self {
        const OFFSETS: [(i32, i32); 8] = [
            (0, 1),
            (0, -1),
            (1, 0),
            (-1, 0),
            (1, 1),
            (1, -1),
            (-1, 1),
            (-1, -1),
        ];
        let mut bits = 0u8;
        for (i, (di, dj)) in OFFSETS.into_iter().enumerate() {
            if state_of(di, dj).to_bit() {
                bits |= 1 << i;
            }
        }
        Self(bits)
    }

    /// The state stored in aggressor `Cᵢ`.
    ///
    /// # Panics
    ///
    /// Panics for `i > 7`.
    #[inline]
    #[must_use]
    pub fn state_of(self, i: usize) -> MtjState {
        assert!(i < 8, "aggressor index must be 0..8, got {i}");
        MtjState::from_bit(self.0 & (1 << i) != 0)
    }

    /// Number of AP (`1`) bits among the direct neighbours C0–C3.
    #[inline]
    #[must_use]
    pub fn ones_direct(self) -> u32 {
        (self.0 & 0x0F).count_ones()
    }

    /// Number of AP (`1`) bits among the diagonal neighbours C4–C7.
    #[inline]
    #[must_use]
    pub fn ones_diagonal(self) -> u32 {
        (self.0 >> 4).count_ones()
    }

    /// The symmetry class of this pattern (Fig. 4a's 25 combinations).
    #[inline]
    #[must_use]
    pub fn class(self) -> PatternClass {
        PatternClass {
            direct_ones: self.ones_direct() as u8,
            diagonal_ones: self.ones_diagonal() as u8,
        }
    }

    /// Iterates over all 256 patterns in numeric order.
    pub fn all() -> impl Iterator<Item = Self> {
        (0u16..256).map(|n| Self(n as u8))
    }
}

impl fmt::Display for NeighborhoodPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NP8={}", self.0)
    }
}

impl From<u8> for NeighborhoodPattern {
    fn from(bits: u8) -> Self {
        Self(bits)
    }
}

/// A symmetry class of neighbourhood patterns: because C0–C3 are in
/// symmetric positions (and likewise C4–C7), `Hz_s_inter` depends only
/// on how many of each group store a `1` — 5 × 5 = 25 distinct classes
/// (paper Fig. 4a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatternClass {
    /// Number of AP bits among the direct neighbours (0–4).
    pub direct_ones: u8,
    /// Number of AP bits among the diagonal neighbours (0–4).
    pub diagonal_ones: u8,
}

impl PatternClass {
    /// Enumerates all 25 classes, direct-major order.
    pub fn all() -> impl Iterator<Item = Self> {
        (0..=4u8).flat_map(|d| {
            (0..=4u8).map(move |g| Self {
                direct_ones: d,
                diagonal_ones: g,
            })
        })
    }

    /// A representative pattern of this class (lowest-index bits set).
    ///
    /// # Panics
    ///
    /// Panics if either count exceeds 4.
    #[must_use]
    pub fn representative(self) -> NeighborhoodPattern {
        assert!(
            self.direct_ones <= 4 && self.diagonal_ones <= 4,
            "counts must be at most 4"
        );
        let direct = (1u16 << self.direct_ones) - 1;
        let diagonal = ((1u16 << self.diagonal_ones) - 1) << 4;
        NeighborhoodPattern::new((direct | diagonal) as u8)
    }

    /// Number of raw patterns in this class:
    /// `C(4, direct) · C(4, diagonal)`.
    #[must_use]
    pub fn multiplicity(self) -> u32 {
        fn choose4(k: u8) -> u32 {
            match k {
                0 | 4 => 1,
                1 | 3 => 4,
                2 => 6,
                _ => 0,
            }
        }
        choose4(self.direct_ones) * choose4(self.diagonal_ones)
    }
}

impl fmt::Display for PatternClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(direct {}x1, diagonal {}x1)",
            self.direct_ones, self.diagonal_ones
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn all_patterns_are_enumerated_once() {
        let v: Vec<_> = NeighborhoodPattern::all().collect();
        assert_eq!(v.len(), 256);
        assert_eq!(v[0], NeighborhoodPattern::ALL_P);
        assert_eq!(v[255], NeighborhoodPattern::ALL_AP);
    }

    #[test]
    fn exactly_25_classes_with_correct_multiplicities() {
        let mut counts: HashMap<PatternClass, u32> = HashMap::new();
        for np in NeighborhoodPattern::all() {
            *counts.entry(np.class()).or_insert(0) += 1;
        }
        assert_eq!(counts.len(), 25);
        for class in PatternClass::all() {
            assert_eq!(
                counts[&class],
                class.multiplicity(),
                "class {class} multiplicity"
            );
        }
        let total: u32 = PatternClass::all().map(PatternClass::multiplicity).sum();
        assert_eq!(total, 256);
    }

    #[test]
    fn representative_is_in_its_own_class() {
        for class in PatternClass::all() {
            assert_eq!(class.representative().class(), class);
        }
    }

    #[test]
    fn direct_and_diagonal_bits_are_separate() {
        let np = NeighborhoodPattern::new(0b1010_0101);
        assert_eq!(np.ones_direct(), 2); // bits 0, 2
        assert_eq!(np.ones_diagonal(), 2); // bits 5, 7
    }

    #[test]
    fn state_mapping_follows_the_paper() {
        let np = NeighborhoodPattern::new(0b0000_0001);
        assert_eq!(np.state_of(0), MtjState::AntiParallel);
        for i in 1..8 {
            assert_eq!(np.state_of(i), MtjState::Parallel);
        }
    }

    #[test]
    #[should_panic(expected = "aggressor index")]
    fn out_of_range_aggressor_panics() {
        let _ = NeighborhoodPattern::ALL_P.state_of(8);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(NeighborhoodPattern::new(255).to_string(), "NP8=255");
    }
}
