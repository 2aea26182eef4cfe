//! Slotted MEC simulator: the system context of the paper made executable.
//!
//! The paper's threat model (Secs. I–II) lives in an edge-cloud system:
//! services run in MECs (one per coverage cell), migrate to follow their
//! users, and a *cyber eavesdropper* inside the MEC platform observes
//! those migrations. This crate simulates that system end to end:
//!
//! * [`network`] — MEC nodes with optional per-node service capacity;
//! * [`migration`] — migration policies for the real service: the paper's
//!   worst-case *always-follow* (delay-sensitive services must stay
//!   co-located, Sec. II-A) plus a cost-aware *lazy* policy as the
//!   extension flagged in the paper's discussion, each a plain transform
//!   of the user's trajectory;
//! * [`cost`] — migration / communication / chaff running costs, so the
//!   cost-privacy trade-off (Sec. VIII) is measurable;
//! * [`fleet`] — fleet configuration, chaff policies and the batch
//!   driver: sharded simulation of one to millions of concurrent
//!   users through one shared MEC world, run as one whole-horizon block
//!   and paired with the batched detection core in `chaff-core`;
//! * [`streaming`] — the fleet engine itself: one simulation core that
//!   advances the fleet a block of slots at a time, and the online
//!   driver that advances it one slot at a time with incremental
//!   detection and a horizon-independent memory bound, bit-for-bit equal
//!   to the batch pipeline;
//! * [`persist`] — checkpoint / restore through the paged on-disk store
//!   (`chaff-store`): batch outcomes persist slot by slot, the streaming
//!   engine appends as it runs, and either file restores bit-for-bit.
//!
//! One protected user is a fleet of one: its online chaff controllers,
//! node capacity and anonymizing shuffle run through the same engine as
//! a million users. A lazily migrating service is fed to
//! [`StreamingFleetEngine::step_ingested`](streaming::StreamingFleetEngine::step_ingested)
//! as its [`service_trajectory`](migration::MigrationPolicy::service_trajectory),
//! and the offline strategies (ML, OO, robust, rollout), which need the
//! whole trajectory in advance, plan their chaffs with
//! `ChaffStrategy::generate` on a sampled trajectory instead.
//!
//! # Example
//!
//! ```
//! use chaff_core::detector::{BatchPrefixDetector, DetectInput};
//! use chaff_markov::{models::ModelKind, MarkovChain};
//! use chaff_sim::fleet::{FleetChaffPolicy, FleetChaffStrategy, FleetConfig, FleetSimulation};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = StdRng::seed_from_u64(1);
//! let chain = MarkovChain::new(ModelKind::NonSkewed.build(10, &mut rng)?)?;
//! // One user protected by one MO chaff, anonymized by the engine.
//! let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Mo, 1);
//! let outcome = FleetSimulation::new(&chain, FleetConfig::new(1, 50).with_seed(7))
//!     .run_chaffed(&policy)?;
//! assert_eq!(outcome.observed.num_trajectories(), 2); // user + 1 chaff
//! let user = outcome.user_observed_indices[0];
//! assert_eq!(outcome.observed.trajectory(user).as_slice(), outcome.user_cells.row(0));
//! let detections =
//!     BatchPrefixDetector::new().detect_prefixes(DetectInput::new(&chain, &outcome.observed))?;
//! assert_eq!(detections.len(), 50);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod cost;
pub mod fleet;
pub mod migration;
pub mod network;
pub mod persist;
pub mod streaming;
pub mod test_support;

pub use error::SimError;

// Single-user scenarios: one protected user run as a one-user fleet
// (online controllers, node capacity, the anonymizing shuffle) or planned
// with `ChaffStrategy::generate` on a sampled trajectory. The checks keep
// the `sim::tests` and `observer::tests` paths of the single-user
// simulator and observation log they replaced.
#[cfg(test)]
mod sim {
    mod tests;
}
#[cfg(test)]
mod observer {
    mod tests;
}

/// Convenient result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, SimError>;
