//! Error type for the MEC simulator.

use std::error::Error;
use std::fmt;

/// Errors produced by the MEC simulator.
#[derive(Debug)]
pub enum SimError {
    /// A configuration value was out of range.
    InvalidConfig {
        /// The offending parameter.
        parameter: &'static str,
        /// Human-readable reason.
        reason: String,
    },
    /// The initial placement could not satisfy the capacity constraints.
    NoCapacity {
        /// The cell where placement was attempted.
        cell: usize,
    },
    /// A fleet-wide chaff budget (or service count derived from it)
    /// overflowed `usize`: a large per-user budget times a large
    /// population must fail loudly instead of wrapping in release
    /// builds.
    BudgetOverflow {
        /// Fleet size whose total budget overflowed.
        users: usize,
    },
    /// A per-slot ingest row fed to the streaming fleet engine was
    /// unusable mid-stream: the engine names the offending user and slot
    /// and leaves its state untouched, so the stream yields a clean
    /// partial result instead of a poisoned engine.
    StreamFault {
        /// The user whose supplied cell (or missing entry) broke the
        /// slot row.
        user: usize,
        /// The slot being ingested when the fault was detected.
        slot: usize,
        /// Human-readable description of the fault.
        reason: String,
    },
    /// A fleet checkpoint could not be written or restored: an error
    /// bubbled up from the persistent paged store.
    Store(chaff_store::StoreError),
    /// An error bubbled up from the strategy/detector layer.
    Core(chaff_core::CoreError),
    /// An error bubbled up from the Markov substrate.
    Markov(chaff_markov::MarkovError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { parameter, reason } => {
                write!(f, "invalid configuration for {parameter}: {reason}")
            }
            SimError::NoCapacity { cell } => {
                write!(f, "no MEC capacity available around cell {cell}")
            }
            SimError::BudgetOverflow { users } => {
                write!(
                    f,
                    "total chaff budget overflows usize for a fleet of {users} users"
                )
            }
            SimError::StreamFault { user, slot, reason } => {
                write!(f, "stream fault at slot {slot}, user {user}: {reason}")
            }
            SimError::Store(e) => write!(f, "fleet store error: {e}"),
            SimError::Core(e) => write!(f, "strategy error: {e}"),
            SimError::Markov(e) => write!(f, "markov substrate error: {e}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Store(e) => Some(e),
            SimError::Core(e) => Some(e),
            SimError::Markov(e) => Some(e),
            _ => None,
        }
    }
}

impl From<chaff_store::StoreError> for SimError {
    fn from(e: chaff_store::StoreError) -> Self {
        SimError::Store(e)
    }
}

impl From<chaff_core::CoreError> for SimError {
    fn from(e: chaff_core::CoreError) -> Self {
        SimError::Core(e)
    }
}

impl From<chaff_markov::MarkovError> for SimError {
    fn from(e: chaff_markov::MarkovError) -> Self {
        SimError::Markov(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let err: SimError = chaff_core::CoreError::EmptyTrajectory.into();
        assert!(err.source().is_some());
        assert!(err.to_string().contains("strategy"));
        let err = SimError::NoCapacity { cell: 4 };
        assert!(err.to_string().contains('4'));
    }
}
