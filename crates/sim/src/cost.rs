//! Cost accounting: the price of privacy.
//!
//! The paper notes that "running chaff services is expensive" and that the
//! chaff budget `N − 1` models the user's willingness to pay (Secs. II-B,
//! VIII), leaving a quantitative cost-privacy study to future work. This
//! module supplies the measurement side of that study: unit costs and the
//! cost of one service instance over its placed trajectory, which the
//! examples and the evaluation harness put next to tracking accuracy.

use chaff_markov::CellId;
use serde::{Deserialize, Serialize};

/// Unit costs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Cost of migrating one service instance between MECs.
    pub migration: f64,
    /// Cost per slot per unit cell-index distance between a user and its
    /// (real) service when they are not co-located.
    pub communication_per_distance: f64,
    /// Cost per slot of simply running one service instance.
    pub running: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            migration: 1.0,
            communication_per_distance: 0.5,
            running: 0.1,
        }
    }
}

impl CostModel {
    /// Communication cost for one slot with the user at `user` and the
    /// real service at `service` (index distance as in the 1-D models).
    pub fn communication(&self, user: CellId, service: CellId) -> f64 {
        let d = user.index().abs_diff(service.index()) as f64;
        self.communication_per_distance * d
    }

    /// Migration plus running cost of one service instance placed at
    /// `cells[t]` in slot `t`: [`running`](Self::running) per slot plus
    /// [`migration`](Self::migration) per cell change. Each component is
    /// summed slot by slot before the two are added, so the total is the
    /// same float however long the trajectory. A chaff serves nobody, so
    /// this is a chaff's whole cost; a real service also pays
    /// [`communication`](Self::communication) while it lags its user.
    pub fn service_cost(&self, cells: &[CellId]) -> f64 {
        let mut migration_cost = 0.0;
        let mut running_cost = 0.0;
        for (t, cell) in cells.iter().enumerate() {
            if t > 0 && cells[t - 1] != *cell {
                migration_cost += self.migration;
            }
            running_cost += self.running;
        }
        migration_cost + running_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn communication_scales_with_distance() {
        let m = CostModel::default();
        assert_eq!(m.communication(CellId::new(3), CellId::new(3)), 0.0);
        assert_eq!(m.communication(CellId::new(3), CellId::new(5)), 1.0);
        assert_eq!(m.communication(CellId::new(5), CellId::new(3)), 1.0);
    }

    #[test]
    fn ledger_attributes_costs_per_service() {
        // Each service's cost depends on its own placed trajectory only:
        // the real service also pays communication while it lags its
        // user, and the defense cost is the chaffs' costs alone.
        let model = CostModel::default();
        let user = [0, 1, 4].map(CellId::new);
        let real = [0, 0, 4].map(CellId::new);
        let chaffs = [[2, 3, 3].map(CellId::new), [5, 5, 5].map(CellId::new)];
        let communication: f64 = user
            .iter()
            .zip(&real)
            .map(|(&u, &s)| model.communication(u, s))
            .sum();
        assert!((communication - 0.5).abs() < 1e-12);
        let real_cost = model.service_cost(&real) + communication;
        assert!((real_cost - (1.0 + 0.3 + 0.5)).abs() < 1e-12);
        assert!((model.service_cost(&chaffs[0]) - (1.0 + 0.3)).abs() < 1e-12);
        assert!((model.service_cost(&chaffs[1]) - 0.3).abs() < 1e-12);
        let defense: f64 = chaffs.iter().map(|c| model.service_cost(c)).sum();
        assert!((defense - 1.6).abs() < 1e-12);
    }

    #[test]
    fn service_cost_is_running_per_slot_plus_migration_per_cell_change() {
        let model = CostModel::default();
        let cells = |indices: &[usize]| -> Vec<CellId> {
            indices.iter().map(|&i| CellId::new(i)).collect()
        };
        // The running cost of `slots` slots, accumulated slot by slot.
        let running = |slots: usize| -> f64 { (0..slots).fold(0.0, |acc, _| acc + 0.1) };
        assert_eq!(model.service_cost(&[]), 0.0);
        // One slot: running cost only, no migration.
        assert_eq!(model.service_cost(&cells(&[4])), 0.1);
        // Three cell changes over five slots; staying put is free.
        let moved = cells(&[0, 1, 1, 2, 0]);
        assert_eq!(model.service_cost(&moved), 3.0 + running(5));
        // A service that never moves pays exactly the running cost.
        let parked = vec![CellId::new(2); 25];
        assert_eq!(model.service_cost(&parked).to_bits(), running(25).to_bits());
        assert!((model.service_cost(&parked) - 2.5).abs() < 1e-9);
        // The unit costs scale their components independently.
        let custom = CostModel {
            migration: 2.0,
            communication_per_distance: 0.0,
            running: 0.0,
        };
        assert_eq!(custom.service_cost(&moved), 6.0);
    }
}
