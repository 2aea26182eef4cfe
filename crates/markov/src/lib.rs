//! Finite discrete-time Markov chain substrate for the chaff-based
//! location-privacy system.
//!
//! This crate provides the mobility-model machinery assumed by
//! *Location Privacy in Mobile Edge Clouds: A Chaff-based Approach*
//! (He, Ciftcioglu, Wang, Chan): a user moving between MEC coverage cells is
//! modeled as an ergodic Markov chain over a finite cell space (Sec. II-C of
//! the paper), and every quantity the paper's analysis needs — stationary
//! distributions, per-row entropies, Kullback–Leibler skewness, total
//! variation distance and ε-mixing times — is computed here.
//!
//! # Overview
//!
//! * [`CellId`] — index of one MEC coverage cell.
//! * [`TransitionMatrix`] — validated row-stochastic matrix with a CSR
//!   support (the trace-driven empirical matrices of the paper are
//!   extremely sparse; all downstream algorithms iterate supports) and
//!   per-row running sums for binary-search sampling.
//! * [`StateDistribution`] — validated probability vector (initial or
//!   stationary distribution) with running sums for sampling.
//! * [`MarkovChain`] — a transition matrix bundled with its initial
//!   (stationary) distribution; sampling and log-likelihoods.
//! * [`LogLikelihoodTable`] — precomputed columnar log-likelihood kernel
//!   for batch (fleet-scale) trajectory scoring.
//! * [`MobilityRegistry`] — heterogeneous fleets: a small set of model
//!   classes (one cached table each, per epoch) mapped onto arbitrarily
//!   many users.
//! * [`EpochSchedule`] — repeating slot → epoch map for time-varying
//!   mobility (day/night commuters); one-epoch schedules reduce
//!   bit-for-bit to the stationary path.
//! * [`Trajectory`] — a sequence of cells over discrete time slots.
//! * [`CellGrid`] / [`TrajectoryArena`] — compact columnar storage for
//!   fleet-scale populations: every cell of a uniform-horizon population
//!   in one contiguous 4-byte-per-cell arena (slot-major for the
//!   detectors, trajectory-major for the generators).
//! * [`models`] — the four synthetic mobility models of Sec. VII-A.
//! * [`entropy`], [`mixing`], [`stationary`] — analysis helpers.
//!
//! # Example
//!
//! ```
//! use chaff_markov::{models::ModelKind, MarkovChain};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), chaff_markov::MarkovError> {
//! let mut rng = StdRng::seed_from_u64(7);
//! let matrix = ModelKind::NonSkewed.build(10, &mut rng)?;
//! let chain = MarkovChain::new(matrix)?;
//! let trajectory = chain.sample_trajectory(100, &mut rng);
//! assert_eq!(trajectory.len(), 100);
//! assert!(chain.log_likelihood(&trajectory).is_finite());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
mod chain;
mod columnar;
mod distribution;
mod epoch;
mod error;
mod loglik;
mod matrix;
mod registry;
#[cfg(test)]
mod sampler_reference;
mod trajectory;

pub mod entropy;
pub mod mixing;
pub mod models;
pub mod stationary;

pub use cell::CellId;
pub use chain::MarkovChain;
pub use columnar::{CellGrid, TrajectoryArena};
pub use distribution::StateDistribution;
pub use epoch::EpochSchedule;
pub use error::MarkovError;
pub use loglik::{LogLikelihoodTable, DENSE_STATE_LIMIT, LANE_WIDTH};
pub use matrix::TransitionMatrix;
pub use registry::MobilityRegistry;
pub use trajectory::Trajectory;

/// Convenient result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, MarkovError>;
