//! What the eavesdropper observes: one column per service, slot rows of
//! fixed arity, and one anonymizing permutation per run.

use crate::fleet::{FleetChaffPolicy, FleetChaffStrategy, FleetConfig, FleetSimulation};
use crate::streaming::StreamingFleetEngine;
use crate::test_support::nonskewed_chain;
use crate::SimError;
use chaff_markov::{CellId, Trajectory};

/// A natural (chaff-free) fleet of `users` users fed ingested rows.
fn natural_engine(
    chain: &chaff_markov::MarkovChain,
    config: FleetConfig,
) -> StreamingFleetEngine<'_> {
    let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 0);
    StreamingFleetEngine::new(chain, config, &policy).unwrap()
}

#[test]
fn records_per_service_trajectories() {
    let c = nonskewed_chain(1, 10);
    let mut engine = natural_engine(&c, FleetConfig::new(2, 2).without_anonymization());
    let mut observed = vec![Trajectory::new(); 2];
    for row in [[0, 5], [1, 5]] {
        let step = engine
            .step_ingested(&row.map(CellId::new))
            .unwrap()
            .unwrap();
        for (t, &cell) in observed
            .iter_mut()
            .zip(engine.observed_row(step.slot).unwrap())
        {
            t.push(cell);
        }
    }
    assert_eq!(observed[0], Trajectory::from_indices([0, 1]));
    assert_eq!(observed[1], Trajectory::from_indices([5, 5]));
}

#[test]
fn slot_arity_is_a_recoverable_error() {
    let c = nonskewed_chain(2, 10);
    let mut engine = natural_engine(&c, FleetConfig::new(2, 3).without_anonymization());
    let err = engine.step_ingested(&[CellId::new(0)]).unwrap_err();
    assert!(matches!(
        err,
        SimError::StreamFault {
            user: 1,
            slot: 0,
            ..
        }
    ));
    // The engine stays usable after the rejected slot.
    engine
        .step_ingested(&[CellId::new(0), CellId::new(1)])
        .unwrap()
        .unwrap();
    // A later mismatch names the later slot.
    let err = engine.step_ingested(&[CellId::new(0)]).unwrap_err();
    assert!(matches!(err, SimError::StreamFault { slot: 1, .. }));
    assert_eq!(engine.slots_run(), 1);
}

#[test]
fn anonymization_preserves_the_multiset_and_tracks_the_user() {
    let c = nonskewed_chain(3, 10);
    let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 2);
    let config = FleetConfig::new(1, 20).with_seed(3);
    let ordered = FleetSimulation::new(&c, config.clone().without_anonymization())
        .run_chaffed(&policy)
        .unwrap();
    let shuffled = FleetSimulation::new(&c, config)
        .run_chaffed(&policy)
        .unwrap();
    let original = ordered.observed.to_trajectories();
    let anonymized = shuffled.observed.to_trajectories();
    assert_eq!(anonymized.len(), 3);
    // The user's trajectory is found at the reported index.
    let user = shuffled.user_observed_indices[0];
    assert_eq!(anonymized[user], original[0]);
    assert_eq!(anonymized[user].as_slice(), shuffled.user_cells.row(0));
    // Same multiset of trajectories.
    let mut a: Vec<String> = original.iter().map(|t| t.to_string()).collect();
    let mut b: Vec<String> = anonymized.iter().map(|t| t.to_string()).collect();
    a.sort();
    b.sort();
    assert_eq!(a, b);
}
