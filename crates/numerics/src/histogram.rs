//! Fixed-bin histograms for switching-field distributions.

use crate::{NumericsError, Result};

/// A histogram with uniform bins over `[lo, hi)`.
///
/// # Examples
///
/// ```
/// use mramsim_numerics::histogram::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5)?;
/// for x in [1.0, 1.5, 7.2, 9.9, -3.0, 12.0] {
///     h.add(x);
/// }
/// assert_eq!(h.count(0), 2);      // [0,2)
/// assert_eq!(h.underflow(), 1);
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.total(), 6);
/// # Ok::<(), mramsim_numerics::NumericsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` uniform bins over `[lo, hi)`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidDomain`] for a degenerate range or
    /// zero bin count.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self> {
        if !(lo < hi) || bins == 0 || !lo.is_finite() || !hi.is_finite() {
            return Err(NumericsError::InvalidDomain {
                routine: "Histogram::new",
                message: format!("range [{lo}, {hi}) with {bins} bins"),
            });
        }
        Ok(Self {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        })
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        if x < self.lo || x.is_nan() {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.counts.len() as f64;
            let idx = ((x - self.lo) / width) as usize;
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Adds many observations.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, xs: I) {
        for x in xs {
            self.add(x);
        }
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    #[must_use]
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Number of bins.
    #[must_use]
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Centre of bin `i`.
    #[must_use]
    pub fn bin_center(&self, i: usize) -> f64 {
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + (i as f64 + 0.5) * width
    }

    /// Observations below the range (NaN counts here too).
    #[must_use]
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the upper edge.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total number of observations, including under/overflow.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_edges_are_half_open() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.add(0.0);
        h.add(0.5);
        h.add(1.0); // == hi -> overflow
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(1), 1);
        assert_eq!(h.overflow(), 1);
    }

    #[test]
    fn bin_centers() {
        let h = Histogram::new(0.0, 10.0, 5).unwrap();
        assert_eq!(h.bin_center(0), 1.0);
        assert_eq!(h.bin_center(4), 9.0);
    }

    #[test]
    fn nan_goes_to_underflow() {
        let mut h = Histogram::new(0.0, 1.0, 1).unwrap();
        h.add(f64::NAN);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn rejects_degenerate_ranges() {
        assert!(Histogram::new(1.0, 1.0, 3).is_err());
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
        assert!(Histogram::new(0.0, f64::INFINITY, 3).is_err());
    }
}
