//! `FleetSimulation` against an independent reference fleet.
//!
//! The reference below is the plainest reading of the fleet semantics:
//! one user at a time, every slot in order, through the public seed
//! derivations (`user_seed`, `chaff_seed`), the public controller
//! factories (`FleetChaffStrategy::{controller, scheduled_controller}`)
//! and one `MecNetwork` replayed service by service. It shares no code
//! with the engine's lane pass, block buffers, sharding or gather.
//!
//! Checked per case:
//! * without anonymization the observed grid matches column for column
//!   and the real services sit at the layout offsets;
//! * with anonymization every user's observed column is its reference
//!   trajectory, and every slot row is the reference row as a multiset;
//! * ground-truth user cells and the stats match exactly.
//!
//! Cases cross shard counts {1, 2, 7}, uniform / proportional /
//! per-class / adaptive budgets, capacity {none, 1, 3} and a homogeneous
//! chain, a stationary two-class registry and a day/night registry.

use chaff_core::strategy::OnlineChaffController;
use chaff_markov::{CellId, EpochSchedule, MarkovChain, MobilityRegistry};
use chaff_sim::fleet::{
    chaff_seed, user_seed, FleetChaffPolicy, FleetChaffStrategy, FleetConfig, FleetOutcome,
    FleetSimulation, FleetStats,
};
use chaff_sim::network::MecNetwork;
use chaff_sim::test_support::{mixed_registry, nonskewed_chain};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Cells of every test model.
const NUM_CELLS: usize = 12;

/// Slots of every test fleet (longer than the day/night period).
const HORIZON: usize = 7;

/// The mobility substrate of one case.
#[derive(Clone, Copy)]
enum Model<'a> {
    Chain(&'a MarkovChain),
    Registry(&'a MobilityRegistry),
}

impl<'a> Model<'a> {
    fn num_classes(self) -> usize {
        match self {
            Model::Chain(_) => 1,
            Model::Registry(r) => r.num_classes(),
        }
    }

    fn class_of(self, user: usize) -> usize {
        match self {
            Model::Chain(_) => 0,
            Model::Registry(r) => r.class_of(user),
        }
    }

    fn chain_at(self, user: usize, slot: usize) -> &'a MarkovChain {
        match self {
            Model::Chain(c) => c,
            Model::Registry(r) => r.chain_of_at(user, slot),
        }
    }

    fn controller(
        self,
        strategy: FleetChaffStrategy,
        user: usize,
    ) -> Box<dyn OnlineChaffController + Send + 'a> {
        match self {
            Model::Registry(r) if !r.is_stationary() => {
                strategy.scheduled_controller(r, r.class_of(user))
            }
            Model::Registry(r) => strategy.controller(r.chain_of(user)),
            Model::Chain(c) => strategy.controller(c),
        }
    }

    fn simulation(self, config: FleetConfig) -> FleetSimulation<'a> {
        match self {
            Model::Chain(c) => FleetSimulation::new(c, config),
            Model::Registry(r) => FleetSimulation::with_registry(r, config),
        }
    }
}

/// The reference run: placed service trajectories in layout order
/// (user `u`'s real service first, then its chaffs), user cells and
/// stats.
struct Reference {
    services: Vec<Vec<CellId>>,
    starts: Vec<usize>,
    user_cells: Vec<Vec<CellId>>,
    stats: FleetStats,
}

fn reference(
    model: Model<'_>,
    num_users: usize,
    seed: u64,
    capacity: Option<usize>,
    policy: &FleetChaffPolicy,
) -> Reference {
    let mut planned: Vec<Vec<CellId>> = Vec::new();
    let mut starts = vec![0];
    let mut user_cells = Vec::with_capacity(num_users);
    for user in 0..num_users {
        let class = model.class_of(user);
        let budget = policy.budget_of(user, class, num_users);
        let strategy = policy.strategy_of(class);
        let mut rng = StdRng::seed_from_u64(user_seed(seed, user as u64));
        let mut cells = Vec::with_capacity(HORIZON);
        for slot in 0..HORIZON {
            let chain = model.chain_at(user, slot);
            let cell = match cells.last() {
                None => chain.initial().sample(&mut rng),
                Some(&prev) => chain.step(prev, &mut rng),
            };
            cells.push(cell);
        }
        planned.push(cells.clone());
        for chaff in 0..budget {
            let mut controller = model.controller(strategy, user);
            let mut chaff_rng = StdRng::seed_from_u64(chaff_seed(seed, user as u64, chaff as u64));
            planned.push(
                cells
                    .iter()
                    .map(|&cell| controller.next(cell, &[], &mut chaff_rng))
                    .collect(),
            );
        }
        starts.push(planned.len());
        user_cells.push(cells);
    }
    let mut stats = FleetStats {
        migrations: 0,
        spills: 0,
        user_slots: num_users * HORIZON,
        chaff_services: planned.len() - num_users,
    };
    let services = match capacity {
        None => {
            for trajectory in &planned {
                stats.migrations += trajectory.windows(2).filter(|w| w[0] != w[1]).count();
            }
            planned
        }
        Some(capacity) => {
            let mut network = MecNetwork::new(NUM_CELLS, Some(capacity)).expect("network");
            let mut placed = vec![Vec::with_capacity(HORIZON); planned.len()];
            for slot in 0..HORIZON {
                for (service, trajectory) in planned.iter().enumerate() {
                    let desired = trajectory[slot];
                    let cell = if slot == 0 {
                        network.place_nearest(desired).expect("room")
                    } else {
                        let prev = placed[service][slot - 1];
                        let cell = network.migrate(prev, desired).expect("room");
                        stats.migrations += usize::from(cell != prev);
                        cell
                    };
                    stats.spills += usize::from(cell != desired);
                    placed[service].push(cell);
                }
            }
            placed
        }
    };
    Reference {
        services,
        starts,
        user_cells,
        stats,
    }
}

/// Asserts `outcome` is the reference run.
fn assert_matches_reference(
    outcome: &FleetOutcome,
    expected: &Reference,
    anonymize: bool,
    context: &str,
) {
    let num_users = expected.user_cells.len();
    assert_eq!(outcome.stats, expected.stats, "{context}: stats");
    assert_eq!(
        outcome.observed.num_trajectories(),
        expected.services.len(),
        "{context}: width"
    );
    assert_eq!(outcome.observed.horizon(), HORIZON, "{context}: horizon");
    for (user, cells) in expected.user_cells.iter().enumerate() {
        assert_eq!(
            outcome.user_cells.row(user),
            &cells[..],
            "{context}: user {user} cells"
        );
    }
    if anonymize {
        for user in 0..num_users {
            assert_eq!(
                outcome
                    .observed
                    .trajectory(outcome.user_observed_indices[user])
                    .as_slice(),
                &expected.services[expected.starts[user]][..],
                "{context}: user {user} observed column"
            );
        }
        for slot in 0..HORIZON {
            let mut observed = outcome.observed.row(slot).to_vec();
            let mut wanted: Vec<CellId> = expected.services.iter().map(|s| s[slot]).collect();
            observed.sort_unstable();
            wanted.sort_unstable();
            assert_eq!(observed, wanted, "{context}: slot {slot} multiset");
        }
    } else {
        assert_eq!(
            outcome.user_observed_indices,
            expected.starts[..num_users],
            "{context}: real-service columns"
        );
        for (service, trajectory) in expected.services.iter().enumerate() {
            assert_eq!(
                outcome.observed.trajectory(service).as_slice(),
                &trajectory[..],
                "{context}: column {service}"
            );
        }
    }
}

/// A two-class day/night registry (2 day slots, 3 night slots).
fn day_night_registry(seed: u64) -> MobilityRegistry {
    let chains = |registry: MobilityRegistry| -> Vec<MarkovChain> {
        (0..2).map(|c| registry.chain(c).clone()).collect()
    };
    let day = chains(mixed_registry(seed, NUM_CELLS, 2));
    let night = chains(mixed_registry(seed + 1, NUM_CELLS, 3));
    MobilityRegistry::with_epochs(
        vec![day, night],
        EpochSchedule::day_night(2, 3).expect("day/night schedule"),
    )
    .expect("epoch registry")
}

/// The four budget allocations over `num_users` users of a
/// `classes`-class model, each with at most two chaffs per user on
/// average so capacity-1 fleets of four users fit twelve cells.
fn policies(num_users: usize, classes: usize) -> Vec<(&'static str, FleetChaffPolicy)> {
    let per_class = (0..classes)
        .map(|c| {
            if c % 2 == 0 {
                (FleetChaffStrategy::Mo, 2)
            } else {
                (FleetChaffStrategy::Cml, 1)
            }
        })
        .collect();
    let mut adaptive = FleetChaffPolicy::adaptive(FleetChaffStrategy::Im, num_users, num_users);
    // One skewed epoch moves budget off the proportional split.
    let feedback: Vec<f64> = (0..num_users)
        .map(|u| if u == 1 { 0.9 } else { 0.1 })
        .collect();
    adaptive.adapt(&feedback).expect("adapt");
    vec![
        (
            "uniform",
            FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 2),
        ),
        (
            "proportional",
            FleetChaffPolicy::proportional(FleetChaffStrategy::Cml, num_users + 1),
        ),
        ("per-class", FleetChaffPolicy::per_class(per_class)),
        ("adaptive", adaptive),
    ]
}

fn check_model(name: &str, model: Model<'_>) {
    for capacity in [None, Some(1), Some(3)] {
        // Fleets sized so every service fits the network.
        let num_users = match capacity {
            None => 13,
            Some(1) => 4,
            Some(_) => 9,
        };
        for (policy_name, policy) in policies(num_users, model.num_classes()) {
            for seed in [3u64, 1709] {
                let expected = reference(model, num_users, seed, capacity, &policy);
                for shards in [1, 2, 7] {
                    for anonymize in [false, true] {
                        let mut config = FleetConfig::new(num_users, HORIZON)
                            .with_seed(seed)
                            .with_shards(shards);
                        if let Some(capacity) = capacity {
                            config = config.with_capacity(capacity);
                        }
                        if !anonymize {
                            config = config.without_anonymization();
                        }
                        let outcome = model
                            .simulation(config)
                            .run_chaffed(&policy)
                            .expect("fleet run");
                        let context = format!(
                            "{name}, {policy_name}, capacity {capacity:?}, seed {seed}, \
                             shards {shards}, anonymize {anonymize}"
                        );
                        assert_matches_reference(&outcome, &expected, anonymize, &context);
                    }
                }
            }
        }
    }
}

#[test]
fn homogeneous_fleets_match_the_reference() {
    let chain = nonskewed_chain(11, NUM_CELLS);
    check_model("chain", Model::Chain(&chain));
}

#[test]
fn stationary_registry_fleets_match_the_reference() {
    let registry = mixed_registry(17, NUM_CELLS, 2);
    check_model("stationary registry", Model::Registry(&registry));
}

#[test]
fn day_night_registry_fleets_match_the_reference() {
    let registry = day_night_registry(23);
    check_model("day/night registry", Model::Registry(&registry));
}

#[test]
fn natural_fleets_match_the_zero_budget_reference() {
    let registry = day_night_registry(29);
    let zero = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 0);
    for capacity in [None, Some(1)] {
        let expected = reference(Model::Registry(&registry), 9, 5, capacity, &zero);
        for shards in [1, 2, 7] {
            let mut config = FleetConfig::new(9, HORIZON)
                .with_seed(5)
                .with_shards(shards);
            if let Some(capacity) = capacity {
                config = config.with_capacity(capacity);
            }
            let outcome = FleetSimulation::with_registry(&registry, config)
                .run_natural()
                .expect("natural fleet");
            let context = format!("natural, capacity {capacity:?}, shards {shards}");
            assert_matches_reference(&outcome, &expected, true, &context);
        }
    }
}
