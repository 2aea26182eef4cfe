//! Migration policies for the real service.
//!
//! The paper considers "the worst case (in terms of location privacy) that
//! the real service always follows the user" (Sec. I-A) — the
//! [`AlwaysFollow`] policy. [`LazyThreshold`] is the cost-aware
//! alternative from the service-migration literature the paper builds on
//! (its refs. 24, 25, 5, 14): the service migrates only once the user has
//! drifted beyond a distance threshold, trading communication cost against
//! migration cost. It is included for the cost-privacy ablation; note it
//! *weakens* the side channel (the service trajectory is a lagged,
//! quantized version of the user's), which the `mec_simulation` example
//! quantifies.
//!
//! A policy is a plain transform of the user's trajectory
//! ([`MigrationPolicy::service_trajectory`]): feed its output to the fleet
//! engine as the ingested cells of a one-user fleet
//! (`StreamingFleetEngine::step_ingested`), or to an offline
//! `ChaffStrategy::generate`, and the chaffs mimic the service the
//! eavesdropper actually sees.

use chaff_markov::{CellId, Trajectory};

/// Decides where the real service should sit after each user move.
pub trait MigrationPolicy {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Given the service's current cell and the user's new cell, returns
    /// the cell the service should occupy this slot.
    fn place(&mut self, service: CellId, user: CellId) -> CellId;

    /// The real service's trajectory while the user walks `user_cells`:
    /// the service launches at the user's first cell, then each slot is
    /// [`place`](Self::place) from the previous slot's service cell.
    fn service_trajectory(&mut self, user_cells: &Trajectory) -> Trajectory {
        let mut service = Trajectory::with_capacity(user_cells.len());
        for cell in user_cells.iter() {
            let prev = service.last().unwrap_or(cell);
            service.push(self.place(prev, cell));
        }
        service
    }
}

/// Always co-locate the service with the user (delay-sensitive services;
/// the paper's standing assumption).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlwaysFollow;

impl MigrationPolicy for AlwaysFollow {
    fn name(&self) -> &'static str {
        "always-follow"
    }

    fn place(&mut self, _service: CellId, user: CellId) -> CellId {
        user
    }
}

/// Migrate only when the user is more than `threshold` cells away (index
/// distance), then jump to the user's cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LazyThreshold {
    /// Maximum tolerated user-service distance in cells.
    pub threshold: usize,
}

impl MigrationPolicy for LazyThreshold {
    fn name(&self) -> &'static str {
        "lazy-threshold"
    }

    fn place(&mut self, service: CellId, user: CellId) -> CellId {
        if service.index().abs_diff(user.index()) > self.threshold {
            user
        } else {
            service
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn always_follow_tracks_the_user() {
        let mut p = AlwaysFollow;
        assert_eq!(p.place(CellId::new(0), CellId::new(7)), CellId::new(7));
        assert_eq!(p.place(CellId::new(7), CellId::new(7)), CellId::new(7));
        let user = Trajectory::from_indices([3, 3, 4, 9, 0]);
        assert_eq!(p.service_trajectory(&user), user);
        assert!(p.service_trajectory(&Trajectory::new()).is_empty());
    }

    #[test]
    fn lazy_waits_for_the_threshold() {
        let mut p = LazyThreshold { threshold: 2 };
        // Within threshold: stays.
        assert_eq!(p.place(CellId::new(5), CellId::new(6)), CellId::new(5));
        assert_eq!(p.place(CellId::new(5), CellId::new(7)), CellId::new(5));
        // Beyond: jumps to the user.
        assert_eq!(p.place(CellId::new(5), CellId::new(8)), CellId::new(8));
    }

    #[test]
    fn lazy_policy_trades_migrations_for_communication() {
        let chain = crate::test_support::nonskewed_chain(6, 10);
        let mut rng = StdRng::seed_from_u64(8);
        let user = chain.sample_trajectory(60, &mut rng);
        let follow = AlwaysFollow.service_trajectory(&user);
        let lazy = LazyThreshold { threshold: 3 }.service_trajectory(&user);
        let moves = |t: &Trajectory| t.as_slice().windows(2).filter(|w| w[0] != w[1]).count();
        assert!(moves(&lazy) < moves(&follow));
        let costs = CostModel::default();
        let communication = |service: &Trajectory| -> f64 {
            user.iter()
                .zip(service.iter())
                .map(|(u, s)| costs.communication(u, s))
                .sum()
        };
        // Always-follow never pays communication cost; the lazy service
        // lags its user, so it does.
        assert_eq!(communication(&follow), 0.0);
        assert!(communication(&lazy) > 0.0);
        assert_ne!(lazy, user);
    }

    #[test]
    fn zero_threshold_degenerates_to_always_follow() {
        let mut lazy = LazyThreshold { threshold: 0 };
        let mut follow = AlwaysFollow;
        for (s, u) in [(0usize, 0usize), (0, 1), (3, 9), (9, 3)] {
            assert_eq!(
                lazy.place(CellId::new(s), CellId::new(u)),
                follow.place(CellId::new(s), CellId::new(u))
            );
        }
    }
}
