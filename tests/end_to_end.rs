//! Cross-crate integration tests: the full system loop from mobility
//! model through MEC simulation to detection and metrics.

use mec_location_privacy::core::detector::{AdvancedDetector, MlDetector};
use mec_location_privacy::core::metrics::{time_average, tracking_accuracy_series};
use mec_location_privacy::core::strategy::{
    ChaffStrategy, CmlStrategy, ImStrategy, MoStrategy, OoStrategy,
};
use mec_location_privacy::markov::{models::ModelKind, MarkovChain, Trajectory};
use mec_location_privacy::mobility::pipeline::TraceDatasetBuilder;
use mec_location_privacy::sim::fleet::{
    FleetChaffPolicy, FleetChaffStrategy, FleetConfig, FleetSimulation,
};
use mec_location_privacy::sim::migration::{AlwaysFollow, LazyThreshold, MigrationPolicy};
use mec_location_privacy::sim::streaming::StreamingFleetEngine;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn chain(seed: u64) -> MarkovChain {
    let mut rng = StdRng::seed_from_u64(seed);
    MarkovChain::new(ModelKind::NonSkewed.build(10, &mut rng).unwrap()).unwrap()
}

/// Runs a one-user fleet without the shuffle, ingesting `service_cells`
/// as the user's cells, and returns every observed column (the real
/// service first, then its chaffs).
fn one_user_fleet(
    chain: &MarkovChain,
    policy: &FleetChaffPolicy,
    service_cells: &Trajectory,
) -> Vec<Trajectory> {
    let config = FleetConfig::new(1, service_cells.len()).without_anonymization();
    let mut engine = StreamingFleetEngine::new(chain, config, policy).unwrap();
    let mut observed = vec![Trajectory::new(); engine.num_services()];
    for cell in service_cells.iter() {
        let step = engine.step_ingested(&[cell]).unwrap().unwrap();
        let row = engine.observed_row(step.slot).unwrap();
        for (trajectory, &placed) in observed.iter_mut().zip(row) {
            trajectory.push(placed);
        }
    }
    observed
}

#[test]
fn sim_observation_log_equals_direct_strategy_output() {
    // The online controllers of a one-user fleet and the planned
    // strategies must emit the same chaffs for the same service
    // trajectory — whether the service follows the user or lags it
    // under the lazy policy — so single-user runs lose nothing by
    // being fleets of one.
    let c = chain(1);
    let mut rng = StdRng::seed_from_u64(2);
    let user = c.sample_trajectory(60, &mut rng);
    let lazy = LazyThreshold { threshold: 2 }.service_trajectory(&user);
    assert_ne!(lazy, user, "the lazy service must lag its user");
    let cases: [(FleetChaffStrategy, &dyn ChaffStrategy); 2] = [
        (FleetChaffStrategy::Cml, &CmlStrategy),
        (FleetChaffStrategy::Mo, &MoStrategy),
    ];
    for (online, planned) in cases {
        for service in [AlwaysFollow.service_trajectory(&user), lazy.clone()] {
            let policy = FleetChaffPolicy::uniform(online, 2);
            let observed = one_user_fleet(&c, &policy, &service);
            assert_eq!(observed[0], service, "{online}: the real service");
            let expected = planned.generate(&c, &service, 2, &mut rng).unwrap();
            assert_eq!(observed[1..], expected[..], "{online}: chaff columns");
        }
    }
}

#[test]
fn anonymization_does_not_change_tracking_accuracy() {
    // The ML detector is order-invariant and our metrics average over
    // ties, so the shuffled and unshuffled fleets must score identically.
    let c = chain(4);
    let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 3);
    for seed in 0..10 {
        let config = FleetConfig::new(1, 40).with_seed(100 + seed);
        let shuffled = FleetSimulation::new(&c, config.clone())
            .run_chaffed(&policy)
            .unwrap();
        let ordered = FleetSimulation::new(&c, config.without_anonymization())
            .run_chaffed(&policy)
            .unwrap();
        assert_eq!(ordered.user_observed_indices, [0]);
        let score = |observed: &[Trajectory], user: usize| {
            let detections = MlDetector.detect_prefixes(&c, observed).unwrap();
            time_average(&tracking_accuracy_series(observed, user, &detections))
        };
        let a = score(
            &shuffled.observed.to_trajectories(),
            shuffled.user_observed_indices[0],
        );
        let b = score(&ordered.observed.to_trajectories(), 0);
        assert!((a - b).abs() < 1e-12, "seed {seed}: {a} vs {b}");
    }
}

#[test]
fn trace_pipeline_feeds_strategies_end_to_end() {
    // Synthetic fleet -> Voronoi cells -> empirical model -> chaffs for a
    // protected user -> detection. Every stage must compose.
    let dataset = TraceDatasetBuilder::new()
        .num_nodes(25)
        .num_towers(200)
        .horizon_slots(30)
        .seed(42)
        .build()
        .unwrap();
    let model = dataset.model();
    let pool = dataset.trajectories();
    let user = 0;
    let mut rng = StdRng::seed_from_u64(5);
    for strategy in [&OoStrategy as &dyn ChaffStrategy, &MoStrategy, &ImStrategy] {
        let chaffs = strategy.generate(model, &pool[user], 2, &mut rng).unwrap();
        let mut observed = pool.to_vec();
        observed.extend(chaffs);
        let detections = MlDetector.detect_prefixes(model, &observed).unwrap();
        let accuracy = time_average(&tracking_accuracy_series(&observed, user, &detections));
        assert!((0.0..=1.0).contains(&accuracy), "{}", strategy.name());
    }
}

#[test]
fn oo_chaff_from_sim_defeats_basic_but_not_advanced_eavesdropper() {
    let c = chain(6);
    let mut basic_total = 0.0;
    let mut advanced_total = 0.0;
    let runs = 30;
    for seed in 0..runs {
        let mut rng = StdRng::seed_from_u64(200 + seed);
        // The service follows the user; OO plans its chaff from the
        // whole trajectory.
        let user_cells = c.sample_trajectory(50, &mut rng);
        let mut observed = OoStrategy.generate(&c, &user_cells, 1, &mut rng).unwrap();
        observed.insert(0, user_cells);
        let basic = MlDetector.detect_prefixes(&c, &observed).unwrap();
        basic_total += time_average(&tracking_accuracy_series(&observed, 0, &basic));
        let detector = AdvancedDetector::new(&OoStrategy);
        let advanced = detector.detect_prefixes(&c, &observed).unwrap();
        advanced_total += time_average(&tracking_accuracy_series(&observed, 0, &advanced));
    }
    let basic = basic_total / runs as f64;
    let advanced = advanced_total / runs as f64;
    assert!(basic < 0.2, "basic eavesdropper should lose: {basic}");
    assert!(
        advanced > 0.9,
        "advanced eavesdropper should win: {advanced}"
    );
}

#[test]
fn capacity_constraints_still_produce_usable_observations() {
    // With tight capacity the chaffs get displaced, but the observation
    // grid stays well-formed and the detector still runs.
    let c = chain(7);
    let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 4);
    let config = FleetConfig::new(1, 30)
        .with_capacity(1)
        .with_seed(8)
        .without_anonymization();
    let outcome = FleetSimulation::new(&c, config)
        .run_chaffed(&policy)
        .unwrap();
    assert!(outcome.stats.spills > 0, "co-location attempts must spill");
    let observed = outcome.observed.to_trajectories();
    assert_eq!(observed.len(), 5);
    let detections = MlDetector.detect_prefixes(&c, &observed).unwrap();
    assert_eq!(detections.len(), 30);
    // Capacity 1 means perfect anti-co-location: accuracy equals
    // detection accuracy of the user's own trajectory.
    let tracking = tracking_accuracy_series(&observed, 0, &detections);
    let detection: Vec<f64> = detections.iter().map(|d| d.prob_of(0)).collect();
    assert_eq!(tracking, detection);
}

#[test]
fn facade_reexports_are_usable() {
    // The root crate must expose every layer under one namespace.
    use mec_location_privacy::{core, eval, markov, mobility, sim};
    let _ = markov::CellId::new(0);
    let _ = core::strategy::StrategyKind::Oo;
    let _ = mobility::geo::BoundingBox::san_francisco();
    let _ = sim::cost::CostModel::default();
    let _ = eval::experiments::SyntheticConfig::quick();
}

#[test]
fn facade_smoke_chain_sim_detect() {
    // Workspace bootstrap smoke test, entirely through the facade paths:
    // build a chain from `::markov`, simulate a one-user fleet with
    // `::sim`, and run a `::core` detector over it.
    use mec_location_privacy::core::detector::MlDetector;
    use mec_location_privacy::markov::{models::ModelKind, MarkovChain};
    use mec_location_privacy::sim::fleet::{
        FleetChaffPolicy, FleetChaffStrategy, FleetConfig, FleetSimulation,
    };

    let mut rng = StdRng::seed_from_u64(9);
    let chain = MarkovChain::new(ModelKind::NonSkewed.build(8, &mut rng).unwrap()).unwrap();
    let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Mo, 2);
    let outcome = FleetSimulation::new(&chain, FleetConfig::new(1, 25).with_seed(9))
        .run_chaffed(&policy)
        .unwrap();
    let observed = outcome.observed.to_trajectories();
    assert_eq!(observed.len(), 3); // user + 2 chaffs

    let detection = MlDetector.detect(&chain, &observed).unwrap();
    assert!(!detection.tie_set().is_empty());
    assert!(detection.tie_set().iter().all(|&i| i < 3));
}
