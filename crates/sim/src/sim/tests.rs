//! One protected user through the fleet engine (online mode) and through
//! sample + `ChaffStrategy::generate` (planned mode).

use crate::cost::CostModel;
use crate::fleet::{FleetChaffPolicy, FleetChaffStrategy, FleetConfig, FleetSimulation};
use crate::migration::{AlwaysFollow, MigrationPolicy};
use crate::streaming::StreamingFleetEngine;
use crate::test_support::nonskewed_chain;
use chaff_core::detector::MlDetector;
use chaff_core::strategy::{ChaffStrategy, CmlStrategy, ImStrategy, OoStrategy};
use chaff_markov::Trajectory;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn chain(seed: u64) -> chaff_markov::MarkovChain {
    nonskewed_chain(seed, 10)
}

#[test]
fn planned_run_produces_consistent_outcome() {
    let c = chain(1);
    let mut rng = StdRng::seed_from_u64(2);
    let user = c.sample_trajectory(40, &mut rng);
    let service = AlwaysFollow.service_trajectory(&user);
    // Under always-follow the observed service trajectory equals the
    // physical one.
    assert_eq!(service, user);
    let chaffs = ImStrategy.generate(&c, &service, 3, &mut rng).unwrap();
    assert_eq!(chaffs.len(), 3);
    for t in &chaffs {
        assert_eq!(t.len(), 40);
    }
}

#[test]
fn online_run_matches_planned_for_online_strategies() {
    // CML is deterministic and online, so the one-user fleet's controller
    // and the planned strategy must emit the same chaff for the user
    // trajectory the engine sampled.
    let c = chain(3);
    let config = FleetConfig::new(1, 30).with_seed(7).without_anonymization();
    let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Cml, 1);
    let online = FleetSimulation::new(&c, config)
        .run_chaffed(&policy)
        .unwrap();
    let user = Trajectory::from(online.user_cells.row(0).to_vec());
    assert_eq!(online.observed.trajectory(0), user);
    let mut rng = StdRng::seed_from_u64(7);
    let planned = CmlStrategy.generate(&c, &user, 1, &mut rng).unwrap();
    assert_eq!(online.observed.trajectory(1), planned[0]);
}

#[test]
fn ledger_counts_migrations_and_running_costs() {
    let c = chain(4);
    let config = FleetConfig::new(1, 25).with_seed(5).without_anonymization();
    let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 1);
    let outcome = FleetSimulation::new(&c, config)
        .run_chaffed(&policy)
        .unwrap();
    let user = outcome.user_cells.row(0);
    let service = outcome.observed.trajectory(0);
    assert_eq!(service.as_slice(), user);
    let moves = |cells: &[_]| -> usize { cells.windows(2).filter(|w| w[0] != w[1]).count() };
    let user_moves = moves(user);
    let chaff_moves = moves(outcome.observed.trajectory(1).as_slice());
    // The fleet counts every service's cell changes as migrations.
    assert_eq!(outcome.stats.migrations, user_moves + chaff_moves);
    // Running cost: 25 slots x 0.1, plus one migration per user move.
    let costs = CostModel::default();
    let running: f64 = (0..25).fold(0.0, |acc, _| acc + costs.running);
    assert!((running - 2.5).abs() < 1e-9);
    assert_eq!(
        costs.service_cost(service.as_slice()),
        user_moves as f64 * costs.migration + running
    );
    // Always-follow never pays communication cost.
    let communication: f64 = user
        .iter()
        .zip(service.iter())
        .map(|(&u, s)| costs.communication(u, s))
        .sum();
    assert_eq!(communication, 0.0);
}

#[test]
fn capacity_one_forces_spills() {
    // Capacity 1 per node: the chaffs can never share the user's cell,
    // and any co-location attempt must spill.
    let c = chain(9);
    let config = FleetConfig::new(1, 30)
        .with_capacity(1)
        .with_seed(10)
        .without_anonymization();
    let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 2);
    let outcome = FleetSimulation::new(&c, config)
        .run_chaffed(&policy)
        .unwrap();
    // No two services ever share a cell.
    for t in 0..30 {
        let mut cells: Vec<usize> = outcome.observed.row(t).iter().map(|c| c.index()).collect();
        cells.sort_unstable();
        cells.dedup();
        assert_eq!(cells.len(), 3, "slot {t}");
    }
    assert!(outcome.stats.spills > 0, "co-location attempts must spill");
}

#[test]
fn end_to_end_detection_against_the_sim_log() {
    // The full loop: sample the user, plan an OO chaff, hand the
    // observation to the detector. With an OO chaff the detector must
    // not pick the user uniquely.
    let c = chain(11);
    let mut rng = StdRng::seed_from_u64(12);
    let user = c.sample_trajectory(50, &mut rng);
    let mut observed = OoStrategy.generate(&c, &user, 1, &mut rng).unwrap();
    observed.push(user);
    let d = MlDetector.detect(&c, &observed).unwrap();
    assert!(
        d.tie_set().contains(&0),
        "the OO chaff must win or tie the likelihood race"
    );
}

#[test]
fn online_mode_with_mo_controllers() {
    let c = chain(13);
    let config = FleetConfig::new(1, 40)
        .with_seed(14)
        .without_anonymization();
    let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Mo, 2);
    let outcome = FleetSimulation::new(&c, config)
        .run_chaffed(&policy)
        .unwrap();
    assert_eq!(outcome.observed.num_trajectories(), 3);
    // MO chaffs are deterministic, so both controllers coincide.
    assert_eq!(
        outcome.observed.trajectory(1),
        outcome.observed.trajectory(2)
    );
}

#[test]
fn zero_horizon_is_rejected() {
    let c = chain(15);
    let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 1);
    assert!(FleetSimulation::new(&c, FleetConfig::new(1, 0))
        .run_chaffed(&policy)
        .is_err());
    assert!(StreamingFleetEngine::new(&c, FleetConfig::new(1, 0), &policy).is_err());
}
