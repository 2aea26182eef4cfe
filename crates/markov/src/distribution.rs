//! Probability distributions over cells: validation, sampling, total
//! variation and collision probability.

use crate::{CellId, MarkovError, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Tolerance used when checking that a distribution sums to one.
const SUM_TOLERANCE: f64 = 1e-6;

/// A validated probability distribution over the cell space.
///
/// Used both for initial distributions and for stationary distributions
/// (the paper's `π`). Provides the aggregate quantities the analysis needs:
/// the collision probability `Σ_x π(x)²` of eq. (11), the largest and
/// second-largest masses (`π_max`, `π_2` of Theorem V.4), entropy, and
/// deterministic-tie-break argmax selection for the greedy strategies.
///
/// Beside the masses it stores their running sums, added left to right
/// from `0.0`, so [`sample`](Self::sample) is one binary search that
/// picks the cell a linear inverse-CDF scan would.
///
/// # Example
///
/// ```
/// use chaff_markov::StateDistribution;
///
/// # fn main() -> Result<(), chaff_markov::MarkovError> {
/// let d = StateDistribution::from_vec(vec![0.2, 0.5, 0.3])?;
/// assert_eq!(d.argmax(None).index(), 1);
/// assert!((d.collision_probability() - (0.04 + 0.25 + 0.09)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateDistribution {
    probs: Vec<f64>,
    /// `cumulative[j]`: the running sum of `probs[..=j]`, left to right.
    cumulative: Vec<f64>,
}

impl StateDistribution {
    /// Builds a distribution from a probability vector.
    ///
    /// # Errors
    ///
    /// Returns an error if the vector is empty, contains negative or
    /// non-finite entries, or does not sum to one within `1e-6`.
    pub fn from_vec(probs: Vec<f64>) -> Result<Self> {
        if probs.is_empty() {
            return Err(MarkovError::Empty);
        }
        let mut sum = 0.0;
        for (j, &p) in probs.iter().enumerate() {
            if !p.is_finite() || p < 0.0 {
                return Err(MarkovError::InvalidProbability {
                    row: 0,
                    col: j,
                    value: p,
                });
            }
            sum += p;
        }
        if (sum - 1.0).abs() > SUM_TOLERANCE {
            return Err(MarkovError::NotNormalized { sum });
        }
        Ok(Self::from_validated(probs))
    }

    /// Wraps validated masses, precomputing the sampler's running sums.
    fn from_validated(probs: Vec<f64>) -> Self {
        let mut acc = 0.0;
        let cumulative = probs
            .iter()
            .map(|&p| {
                acc += p;
                acc
            })
            .collect();
        StateDistribution { probs, cumulative }
    }

    /// Builds a distribution by normalizing non-negative weights.
    ///
    /// # Errors
    ///
    /// Returns an error if the vector is empty, has invalid entries, or
    /// sums to zero.
    pub fn from_weights(weights: Vec<f64>) -> Result<Self> {
        if weights.is_empty() {
            return Err(MarkovError::Empty);
        }
        let mut sum = 0.0;
        for (j, &w) in weights.iter().enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(MarkovError::InvalidProbability {
                    row: 0,
                    col: j,
                    value: w,
                });
            }
            sum += w;
        }
        if sum <= 0.0 {
            return Err(MarkovError::NotNormalized { sum });
        }
        Self::from_vec(weights.into_iter().map(|w| w / sum).collect())
    }

    /// The uniform distribution over `n` cells.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::Empty`] if `n == 0`.
    pub fn uniform(n: usize) -> Result<Self> {
        if n == 0 {
            return Err(MarkovError::Empty);
        }
        Ok(Self::from_validated(vec![1.0 / n as f64; n]))
    }

    /// A point mass on `cell` over `n` cells.
    ///
    /// # Errors
    ///
    /// Returns an error if `n == 0` or `cell` is out of range.
    pub fn point_mass(n: usize, cell: CellId) -> Result<Self> {
        if n == 0 {
            return Err(MarkovError::Empty);
        }
        if cell.index() >= n {
            return Err(MarkovError::CellOutOfRange {
                cell: cell.index(),
                states: n,
            });
        }
        let mut probs = vec![0.0; n];
        probs[cell.index()] = 1.0;
        Ok(Self::from_validated(probs))
    }

    /// Number of cells in the space.
    #[inline]
    pub fn num_states(&self) -> usize {
        self.probs.len()
    }

    /// Probability mass at `cell`.
    #[inline]
    pub fn prob(&self, cell: CellId) -> f64 {
        self.probs[cell.index()]
    }

    /// Natural-log probability; `-inf` when the mass is zero.
    #[inline]
    pub fn log_prob(&self, cell: CellId) -> f64 {
        let p = self.prob(cell);
        if p > 0.0 {
            p.ln()
        } else {
            f64::NEG_INFINITY
        }
    }

    /// The underlying probability slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.probs
    }

    /// Most probable cell, excluding `exclude` if given.
    ///
    /// Ties break towards the lowest index (deterministic, known to the
    /// advanced eavesdropper per Sec. VI-A2).
    ///
    /// # Panics
    ///
    /// Panics if the exclusion removes the only cell of a one-cell space.
    pub fn argmax(&self, exclude: Option<CellId>) -> CellId {
        let mut best: Option<(usize, f64)> = None;
        for (j, &p) in self.probs.iter().enumerate() {
            if Some(CellId::new(j)) == exclude {
                continue;
            }
            match best {
                Some((_, bp)) if bp >= p => {}
                _ => best = Some((j, p)),
            }
        }
        CellId::new(best.expect("non-empty distribution after exclusion").0)
    }

    /// Largest mass (the paper's `π_max`).
    pub fn max(&self) -> f64 {
        self.probs.iter().copied().fold(0.0, f64::max)
    }

    /// Second-largest mass (the paper's `π_2`).
    pub fn second_max(&self) -> f64 {
        let mut best = 0.0f64;
        let mut second = 0.0f64;
        for &p in &self.probs {
            if p > best {
                second = best;
                best = p;
            } else if p > second {
                second = p;
            }
        }
        second
    }

    /// The collision probability `Σ_x π(x)²` — the probability that two
    /// independent draws coincide, which drives the IM-strategy accuracy
    /// floor of eq. (11).
    pub fn collision_probability(&self) -> f64 {
        self.probs.iter().map(|p| p * p).sum()
    }

    /// Shannon entropy in nats.
    pub fn entropy(&self) -> f64 {
        -self
            .probs
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| p * p.ln())
            .sum::<f64>()
    }

    /// Samples one cell: one uniform draw `u`, binary-searched against
    /// the stored running sums, so it picks the cell a linear
    /// `acc += p` scan would, with the same floating-point-slack
    /// fallback to the last cell with positive mass.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> CellId {
        self.cell_at(rng.random())
    }

    /// The cell inverse-CDF sampling picks for a uniform `u` in `[0, 1)`:
    /// the first cell whose running sum exceeds `u` — the cell a
    /// left-to-right `acc += p; if u < acc` scan returns, since the
    /// stored sums are that scan's floats — or, when floating-point
    /// slack leaves every sum at or below `u`, the last cell with
    /// positive mass.
    #[inline]
    pub(crate) fn cell_at(&self, u: f64) -> CellId {
        let j = self.cumulative.partition_point(|&sum| sum <= u);
        if j < self.probs.len() {
            return CellId::new(j);
        }
        let last = self
            .probs
            .iter()
            .rposition(|&p| p > 0.0)
            .expect("distribution has positive mass");
        CellId::new(last)
    }

    /// Total variation distance to another distribution.
    ///
    /// # Panics
    ///
    /// Panics if the two distributions have different lengths.
    pub fn total_variation(&self, other: &StateDistribution) -> f64 {
        crate::mixing::total_variation(&self.probs, &other.probs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_unnormalized() {
        assert!(matches!(
            StateDistribution::from_vec(vec![0.5, 0.6]).unwrap_err(),
            MarkovError::NotNormalized { .. }
        ));
    }

    #[test]
    fn rejects_empty_and_negative() {
        assert_eq!(
            StateDistribution::from_vec(vec![]).unwrap_err(),
            MarkovError::Empty
        );
        assert!(matches!(
            StateDistribution::from_vec(vec![1.5, -0.5]).unwrap_err(),
            MarkovError::InvalidProbability { .. }
        ));
    }

    #[test]
    fn from_weights_normalizes() {
        let d = StateDistribution::from_weights(vec![1.0, 3.0]).unwrap();
        assert!((d.prob(CellId::new(1)) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn point_mass_checks_range() {
        assert!(StateDistribution::point_mass(3, CellId::new(3)).is_err());
        let d = StateDistribution::point_mass(3, CellId::new(1)).unwrap();
        assert_eq!(d.prob(CellId::new(1)), 1.0);
        assert_eq!(d.log_prob(CellId::new(0)), f64::NEG_INFINITY);
    }

    #[test]
    fn argmax_with_exclusion() {
        let d = StateDistribution::from_vec(vec![0.2, 0.5, 0.3]).unwrap();
        assert_eq!(d.argmax(None), CellId::new(1));
        assert_eq!(d.argmax(Some(CellId::new(1))), CellId::new(2));
    }

    #[test]
    fn argmax_tie_breaks_low() {
        let d = StateDistribution::from_vec(vec![0.4, 0.4, 0.2]).unwrap();
        assert_eq!(d.argmax(None), CellId::new(0));
    }

    #[test]
    fn maxima_and_collision() {
        let d = StateDistribution::from_vec(vec![0.5, 0.3, 0.2]).unwrap();
        assert_eq!(d.max(), 0.5);
        assert_eq!(d.second_max(), 0.3);
        let expected = 0.25 + 0.09 + 0.04;
        assert!((d.collision_probability() - expected).abs() < 1e-12);
    }

    #[test]
    fn uniform_entropy_is_log_n() {
        let d = StateDistribution::uniform(8).unwrap();
        assert!((d.entropy() - (8.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn lemma_v1_collision_at_most_max() {
        // Lemma V.1: sum of squares <= max, equality iff uniform.
        let skewed = StateDistribution::from_vec(vec![0.7, 0.2, 0.1]).unwrap();
        assert!(skewed.collision_probability() <= skewed.max() + 1e-12);
        let uniform = StateDistribution::uniform(5).unwrap();
        assert!((uniform.collision_probability() - uniform.max()).abs() < 1e-12);
    }

    #[test]
    fn sampling_matches_distribution() {
        let d = StateDistribution::from_vec(vec![0.1, 0.9]).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let ones = (0..n)
            .filter(|_| d.sample(&mut rng) == CellId::new(1))
            .count();
        let freq = ones as f64 / n as f64;
        assert!((freq - 0.9).abs() < 0.02, "freq = {freq}");
    }

    #[test]
    fn sample_handles_point_mass_tail() {
        let d = StateDistribution::point_mass(4, CellId::new(2)).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), CellId::new(2));
        }
    }
}
