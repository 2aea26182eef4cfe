//! Shard-count invariance of the streaming engine's sharded passes.
//!
//! `StreamingFleetEngine` runs its per-user lane pass (draw, chaff), the
//! anonymizing gather and its per-slot counts over the contiguous user
//! shards of `FleetConfig::with_shards`. The equivalence batteries run
//! at the host's default shard count, so a one-core runner never shards
//! those passes there. Here every fleet is pinned at shard counts
//! {1, 2, 3, 7, N + 5} — one shard, even and odd splits, more shards
//! than users — and every count must give the same bits: detections,
//! whole observed rows, the last user row, stats, accuracy samples and
//! per-user feedback. The paths covered are model draws, ingested rows,
//! capacity replay, a multi-epoch registry (scheduled controllers),
//! proportional budgets (ragged service ranges) and `with_feedback`.

use chaff_core::detector::Detection;
use chaff_markov::{CellId, EpochSchedule, MarkovChain, MobilityRegistry};
use chaff_sim::fleet::{FleetChaffPolicy, FleetConfig, FleetStats};
use chaff_sim::streaming::StreamingFleetEngine;
use chaff_sim::test_support::{mixed_registry, strategy_from};
use proptest::prelude::*;

/// Cells of every test model.
const NUM_CELLS: usize = 8;

/// Everything one run emits, with floats as bits.
#[derive(Debug, PartialEq)]
struct RunTrace {
    detections: Vec<Detection>,
    observed_rows: Vec<Vec<CellId>>,
    user_rows: Vec<Vec<CellId>>,
    accuracy_bits: Vec<(u64, u64)>,
    stats: FleetStats,
    feedback_bits: Option<Vec<u64>>,
}

/// Runs `engine` to its horizon — drawing from the model, or ingesting
/// `rows[t]` at slot `t` when rows are given — and records every output.
fn run_trace(engine: StreamingFleetEngine<'_>, rows: Option<&[Vec<CellId>]>) -> RunTrace {
    let horizon = engine.horizon();
    let mut engine = engine.with_ring_depth(horizon);
    let mut trace = RunTrace {
        detections: Vec::with_capacity(horizon),
        observed_rows: Vec::with_capacity(horizon),
        user_rows: Vec::with_capacity(horizon),
        accuracy_bits: Vec::with_capacity(horizon),
        stats: FleetStats::default(),
        feedback_bits: None,
    };
    for t in 0..horizon {
        let step = match rows {
            Some(rows) => engine.step_ingested(&rows[t]),
            None => engine.step(),
        }
        .expect("streamed slot")
        .expect("within the horizon");
        assert_eq!(step.slot, t);
        trace.detections.push(step.detection);
        trace.accuracy_bits.push((
            step.tracking_accuracy.to_bits(),
            step.detection_accuracy.to_bits(),
        ));
        trace.observed_rows.push(
            engine
                .observed_row(t)
                .expect("ring covers the horizon")
                .to_vec(),
        );
        trace.user_rows.push(engine.last_user_row().to_vec());
    }
    assert!(engine.step().expect("end of horizon").is_none());
    trace.stats = engine.stats();
    trace.feedback_bits = engine
        .user_feedback()
        .map(|feedback| feedback.iter().map(|a| a.to_bits()).collect());
    trace
}

/// Asserts that the engine `build(shards)` makes traces identically at
/// every pinned shard count.
fn assert_shard_invariant<'a>(
    num_users: usize,
    rows: Option<&[Vec<CellId>]>,
    build: impl Fn(usize) -> StreamingFleetEngine<'a>,
    context: &str,
) {
    let reference = run_trace(build(1), rows);
    for shards in [2, 3, 7, num_users + 5] {
        assert_eq!(
            run_trace(build(shards), rows),
            reference,
            "{context}: shards = {shards} differs from one shard"
        );
    }
}

/// Deterministic ingest rows: one cell per user per slot.
fn ingest_rows(num_users: usize, horizon: usize, seed: u64) -> Vec<Vec<CellId>> {
    (0..horizon)
        .map(|t| {
            (0..num_users)
                .map(|u| CellId::new((u * 5 + t * 3 + seed as usize) % NUM_CELLS))
                .collect()
        })
        .collect()
}

/// A two-class day/night registry: two mixed registries' chains as the
/// day and night epochs.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Model draws over a multi-class registry, with and without chaffs.
    #[test]
    fn drawn_fleets_are_shard_invariant(
        model_seed in 0u64..1_000,
        fleet_seed in 0u64..1_000,
        num_users in 1usize..24,
        horizon in 1usize..8,
        classes in 1usize..4,
        budget in 0usize..3,
        strategy_tag in 0u8..3,
    ) {
        let registry = mixed_registry(model_seed, NUM_CELLS, classes);
        let policy = FleetChaffPolicy::uniform(strategy_from(strategy_tag), budget);
        let config = FleetConfig::new(num_users, horizon).with_seed(fleet_seed);
        assert_shard_invariant(
            num_users,
            None,
            |shards| {
                StreamingFleetEngine::with_registry(
                    &registry,
                    config.clone().with_shards(shards),
                    &policy,
                )
                .expect("engine")
            },
            "drawn",
        );
    }

    /// Ingested user rows: the lane pass skips the draw but still steps
    /// every chaff lane.
    #[test]
    fn ingested_fleets_are_shard_invariant(
        model_seed in 0u64..1_000,
        fleet_seed in 0u64..1_000,
        num_users in 1usize..24,
        horizon in 1usize..8,
        budget in 0usize..3,
        strategy_tag in 0u8..3,
    ) {
        let registry = mixed_registry(model_seed, NUM_CELLS, 2);
        let policy = FleetChaffPolicy::uniform(strategy_from(strategy_tag), budget);
        let config = FleetConfig::new(num_users, horizon).with_seed(fleet_seed);
        let rows = ingest_rows(num_users, horizon, fleet_seed);
        assert_shard_invariant(
            num_users,
            Some(&rows),
            |shards| {
                StreamingFleetEngine::with_registry(
                    &registry,
                    config.clone().with_shards(shards),
                    &policy,
                )
                .expect("engine")
            },
            "ingested",
        );
    }

    /// Capacity replay: the sequential placement writes the placed cells
    /// back before the sharded gather. Capacities near the fleet size
    /// force spills.
    #[test]
    fn capacity_replay_is_shard_invariant(
        model_seed in 0u64..1_000,
        fleet_seed in 0u64..1_000,
        num_users in 1usize..16,
        horizon in 1usize..8,
        budget in 0usize..3,
        slack in 0usize..2,
        strategy_tag in 0u8..3,
    ) {
        let registry = mixed_registry(model_seed, NUM_CELLS, 2);
        let policy = FleetChaffPolicy::uniform(strategy_from(strategy_tag), budget);
        // Every node together holds the whole fleet, so placement never
        // runs out of room.
        let capacity = (num_users * (1 + budget)).div_ceil(NUM_CELLS) + slack;
        let config = FleetConfig::new(num_users, horizon)
            .with_seed(fleet_seed)
            .with_capacity(capacity);
        assert_shard_invariant(
            num_users,
            None,
            |shards| {
                StreamingFleetEngine::with_registry(
                    &registry,
                    config.clone().with_shards(shards),
                    &policy,
                )
                .expect("engine")
            },
            "capacity replay",
        );
    }

    /// A multi-epoch registry: the users' draws switch chain with the
    /// epoch and the chaff lanes run scheduled controllers. Per-class
    /// budgets make the service ranges ragged by class.
    #[test]
    fn epoch_fleets_are_shard_invariant(
        model_seed in 0u64..1_000,
        fleet_seed in 0u64..1_000,
        num_users in 1usize..24,
        horizon in 1usize..9,
        budgets in (0usize..3, 0usize..3),
        strategy_tags in (0u8..3, 0u8..3),
    ) {
        let registry = day_night_registry(model_seed);
        let policy = FleetChaffPolicy::per_class(vec![
            (strategy_from(strategy_tags.0), budgets.0),
            (strategy_from(strategy_tags.1), budgets.1),
        ]);
        let config = FleetConfig::new(num_users, horizon).with_seed(fleet_seed);
        assert_shard_invariant(
            num_users,
            None,
            |shards| {
                StreamingFleetEngine::with_registry(
                    &registry,
                    config.clone().with_shards(shards),
                    &policy,
                )
                .expect("engine")
            },
            "multi-epoch",
        );
    }

    /// Proportional budgets spread an arbitrary total, so neighbouring
    /// users own service ranges of different widths; with feedback on,
    /// the per-user accuracy samples must match too.
    #[test]
    fn proportional_budgets_with_feedback_are_shard_invariant(
        model_seed in 0u64..1_000,
        fleet_seed in 0u64..1_000,
        num_users in 1usize..24,
        horizon in 1usize..8,
        total_per_user in 0usize..3,
        extra in 0usize..24,
        strategy_tag in 0u8..3,
    ) {
        let registry = mixed_registry(model_seed, NUM_CELLS, 3);
        let total = num_users * total_per_user + extra % num_users;
        let policy = FleetChaffPolicy::proportional(strategy_from(strategy_tag), total);
        let config = FleetConfig::new(num_users, horizon).with_seed(fleet_seed);
        assert_shard_invariant(
            num_users,
            None,
            |shards| {
                StreamingFleetEngine::with_registry(
                    &registry,
                    config.clone().with_shards(shards),
                    &policy,
                )
                .expect("engine")
                .with_feedback()
            },
            "proportional with feedback",
        );
    }
}

/// The adaptive policy turns feedback on by itself; its sharded runs
/// agree too.
#[test]
fn adaptive_policy_feedback_is_shard_invariant() {
    let registry = mixed_registry(11, NUM_CELLS, 2);
    let num_users = 13;
    let policy = FleetChaffPolicy::adaptive(strategy_from(0), num_users, 17);
    let config = FleetConfig::new(num_users, 6).with_seed(5);
    assert_shard_invariant(
        num_users,
        None,
        |shards| {
            StreamingFleetEngine::with_registry(
                &registry,
                config.clone().with_shards(shards),
                &policy,
            )
            .expect("engine")
        },
        "adaptive",
    );
}
