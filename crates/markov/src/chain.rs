//! The Markov mobility model: a transition matrix plus initial
//! distribution, with trajectory sampling and likelihood evaluation.

use crate::{CellId, Result, StateDistribution, Trajectory, TransitionMatrix};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A Markov mobility model: a transition matrix bundled with the initial
/// distribution used for the first slot.
///
/// The paper draws the first location from the steady-state distribution
/// `π` and each subsequent location from the transition matrix `P`
/// (Sec. II-C); the trajectory likelihood used by the ML detector (eq. 1) is
/// `π(x_1) ∏ P(x_t | x_{t-1})`. For trace-driven models the empirical
/// occupancy plays the role of `π`.
///
/// # Example
///
/// ```
/// use chaff_markov::{MarkovChain, TransitionMatrix};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), chaff_markov::MarkovError> {
/// let matrix = TransitionMatrix::from_rows(vec![vec![0.9, 0.1], vec![0.3, 0.7]])?;
/// let chain = MarkovChain::new(matrix)?;
/// let mut rng = StdRng::seed_from_u64(1);
/// let x = chain.sample_trajectory(50, &mut rng);
/// assert!(chain.log_likelihood(&x) < 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MarkovChain {
    matrix: TransitionMatrix,
    initial: StateDistribution,
}

impl MarkovChain {
    /// Builds a chain whose initial distribution is the stationary
    /// distribution of `matrix` (computed by power iteration).
    ///
    /// # Errors
    ///
    /// Propagates stationary-solver errors (e.g. no convergence for
    /// periodic chains).
    pub fn new(matrix: TransitionMatrix) -> Result<Self> {
        let initial = crate::stationary::stationary(&matrix)?;
        Ok(MarkovChain { matrix, initial })
    }

    /// Builds a chain with an explicit initial distribution.
    ///
    /// Used for trace-driven models where the empirical occupancy serves as
    /// the steady state.
    ///
    /// # Errors
    ///
    /// Returns a dimension-mismatch error when the distribution and matrix
    /// disagree on the number of cells.
    pub fn with_initial(matrix: TransitionMatrix, initial: StateDistribution) -> Result<Self> {
        if matrix.num_states() != initial.num_states() {
            return Err(crate::MarkovError::DimensionMismatch {
                expected: matrix.num_states(),
                found: initial.num_states(),
            });
        }
        Ok(MarkovChain { matrix, initial })
    }

    /// The transition matrix `P`.
    #[inline]
    pub fn matrix(&self) -> &TransitionMatrix {
        &self.matrix
    }

    /// The initial (steady-state) distribution `π`.
    #[inline]
    pub fn initial(&self) -> &StateDistribution {
        &self.initial
    }

    /// Number of cells in the state space.
    #[inline]
    pub fn num_states(&self) -> usize {
        self.matrix.num_states()
    }

    /// Samples a trajectory of `len` slots, drawing the first cell from the
    /// initial distribution.
    pub fn sample_trajectory<R: Rng + ?Sized>(&self, len: usize, rng: &mut R) -> Trajectory {
        let mut out = Trajectory::with_capacity(len);
        if len == 0 {
            return out;
        }
        let mut current = self.initial.sample(rng);
        out.push(current);
        for _ in 1..len {
            current = self.step(current, rng);
            out.push(current);
        }
        out
    }

    /// Samples a trajectory of `len` slots starting from a fixed cell.
    pub fn sample_trajectory_from<R: Rng + ?Sized>(
        &self,
        start: CellId,
        len: usize,
        rng: &mut R,
    ) -> Trajectory {
        let mut out = Trajectory::with_capacity(len);
        if len == 0 {
            return out;
        }
        out.push(start);
        let mut current = start;
        for _ in 1..len {
            current = self.step(current, rng);
            out.push(current);
        }
        out
    }

    /// Samples the next cell from `current`: one uniform draw `u`,
    /// binary-searched against the row's stored running sums (see
    /// [`TransitionMatrix`]), so it picks the cell a linear `acc += p`
    /// scan would, with the same floating-point-slack fallback to the
    /// last positive-probability successor.
    pub fn step<R: Rng + ?Sized>(&self, current: CellId, rng: &mut R) -> CellId {
        let u: f64 = rng.random();
        self.matrix.successor_at(current, u).unwrap_or(current)
    }

    /// Log-likelihood of a trajectory under this model:
    /// `log π(x_1) + Σ_{t≥2} log P(x_t | x_{t-1})` (the log of eq. 1's
    /// objective). `-inf` if any step has zero probability.
    ///
    /// Returns 0 for the empty trajectory.
    pub fn log_likelihood(&self, trajectory: &Trajectory) -> f64 {
        self.prefix_log_likelihoods(trajectory)
            .last()
            .copied()
            .unwrap_or(0.0)
    }

    /// Per-slot increments of the log-likelihood: element 0 is
    /// `log π(x_1)` and element `t` is `log P(x_{t+1} | x_t)`.
    pub fn step_log_likelihoods(&self, trajectory: &Trajectory) -> Vec<f64> {
        let mut out = Vec::with_capacity(trajectory.len());
        let mut prev: Option<CellId> = None;
        for cell in trajectory.iter() {
            let inc = match prev {
                None => self.initial.log_prob(cell),
                Some(p) => self.matrix.log_prob(p, cell),
            };
            out.push(inc);
            prev = Some(cell);
        }
        out
    }

    /// Cumulative log-likelihood after each slot: element `t` is the
    /// log-likelihood of the prefix `x_1..x_{t+1}`.
    ///
    /// This powers the prefix (online) ML detection used to plot tracking
    /// accuracy as a function of time.
    pub fn prefix_log_likelihoods(&self, trajectory: &Trajectory) -> Vec<f64> {
        let mut acc = 0.0;
        self.step_log_likelihoods(trajectory)
            .into_iter()
            .map(|inc| {
                acc += inc;
                acc
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MarkovError;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain() -> MarkovChain {
        let m = TransitionMatrix::from_rows(vec![vec![0.9, 0.1], vec![0.3, 0.7]]).unwrap();
        MarkovChain::new(m).unwrap()
    }

    #[test]
    fn with_initial_checks_dimensions() {
        let m = TransitionMatrix::uniform(3).unwrap();
        let d = StateDistribution::uniform(2).unwrap();
        assert!(matches!(
            MarkovChain::with_initial(m, d),
            Err(MarkovError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn sampled_trajectories_have_requested_length() {
        let c = chain();
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(c.sample_trajectory(0, &mut rng).len(), 0);
        assert_eq!(c.sample_trajectory(17, &mut rng).len(), 17);
        let from = c.sample_trajectory_from(CellId::new(1), 5, &mut rng);
        assert_eq!(from.cell(0), CellId::new(1));
        assert_eq!(from.len(), 5);
    }

    #[test]
    fn log_likelihood_matches_manual_computation() {
        let c = chain();
        let x = Trajectory::from_indices([0, 0, 1]);
        let expected = c.initial().log_prob(CellId::new(0)) + (0.9f64).ln() + (0.1f64).ln();
        assert!((c.log_likelihood(&x) - expected).abs() < 1e-12);
    }

    #[test]
    fn zero_probability_step_gives_neg_infinity() {
        let m = TransitionMatrix::from_rows(vec![vec![0.0, 1.0], vec![0.5, 0.5]]).unwrap();
        let c = MarkovChain::new(m).unwrap();
        let x = Trajectory::from_indices([0, 0]);
        assert_eq!(c.log_likelihood(&x), f64::NEG_INFINITY);
    }

    #[test]
    fn prefix_likelihoods_are_cumulative_steps() {
        let c = chain();
        let x = Trajectory::from_indices([1, 0, 0, 1]);
        let steps = c.step_log_likelihoods(&x);
        let prefixes = c.prefix_log_likelihoods(&x);
        assert_eq!(steps.len(), 4);
        let mut acc = 0.0;
        for (s, p) in steps.iter().zip(&prefixes) {
            acc += s;
            assert!((acc - p).abs() < 1e-12);
        }
        assert!((c.log_likelihood(&x) - prefixes[3]).abs() < 1e-12);
    }

    #[test]
    fn empirical_transition_frequencies_match_matrix() {
        let c = chain();
        let mut rng = StdRng::seed_from_u64(99);
        let x = c.sample_trajectory(200_000, &mut rng);
        let mut n00 = 0usize;
        let mut n0 = 0usize;
        for w in x.as_slice().windows(2) {
            if w[0] == CellId::new(0) {
                n0 += 1;
                if w[1] == CellId::new(0) {
                    n00 += 1;
                }
            }
        }
        let freq = n00 as f64 / n0 as f64;
        assert!((freq - 0.9).abs() < 0.01, "freq = {freq}");
    }

    #[test]
    fn step_only_moves_along_support() {
        let m = TransitionMatrix::from_rows(vec![vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let c = MarkovChain::with_initial(m, StateDistribution::uniform(2).unwrap()).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let x = c.sample_trajectory_from(CellId::new(0), 10, &mut rng);
        for (t, cell) in x.iter().enumerate() {
            assert_eq!(cell.index(), t % 2);
        }
    }
}
