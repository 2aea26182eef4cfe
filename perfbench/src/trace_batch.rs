//! `trace_batch`: the trace-driven batch reproduction, one pipeline call
//! per operation — `TraceDatasetBuilder::build_streaming` (174 taxis ×
//! 16 replicas over 1,100 towers and 100 slots) → 3-class clustered
//! empirical registry → `FleetSimulation::run_chaffed` (IM, B = 2) →
//! multi-class columnar `detect_prefixes` →
//! `mean_tracking_accuracy_columnar`.
//!
//! Closed loop: one untimed warm-up call, then timed calls back to back
//! until the run's seconds are used up (at least `MIN_TIMED` calls).
//! Every call repeats the same seeded inputs, so every call must
//! reproduce the warm-up call's detections.

use crate::checks::{self, Pin};
use crate::report::{peak_rss_bytes, Report};
use crate::stats::{mean, median, percentile};
use crate::trace::{timed, Tracer};
use crate::Opts;
use chaff_core::detector::{BatchPrefixDetector, DetectInput, Detection};
use chaff_core::metrics::mean_tracking_accuracy_columnar;
use chaff_eval::experiments::fleet_persist::detection_checksum;
use chaff_eval::experiments::trace_fleet::{build_registry, cluster_by_mobility, TraceFleetConfig};
use chaff_markov::MobilityRegistry;
use chaff_mobility::pipeline::TraceDataset;
use chaff_sim::fleet::{
    chaff_seed, user_seed, FleetChaffPolicy, FleetChaffStrategy, FleetConfig, FleetOutcome,
    FleetSimulation,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Taxis per replica.
pub const NODES: usize = 174;
/// Fleet replicas (amplification): ≈ 2.3·10³ surviving nodes. Small
/// enough that one run times more than [`MIN_TIMED`] calls.
pub const REPLICAS: usize = 16;
/// Towers before the separation filter.
pub const TOWERS: usize = 1_100;
/// Slots of the trace window and of the simulated fleet.
pub const HORIZON: usize = 100;
/// Empirical mobility classes.
pub const CLASSES: usize = 3;
/// Uniform IM chaff budget per user.
pub const BUDGET: usize = 2;
/// Registry constructions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 7;
/// Fewest timed pipeline calls per run: the slot percentiles rest on
/// one sample per call.
pub const MIN_TIMED: usize = 50;

/// Outputs for [`checks::DEFAULT_SEED`].
pub const PIN: Pin = Pin {
    checksum: 0x2f02_739f_118e_e2b0,
    accuracy_bits: 0x3f7c_e8a6_07f8_2783,
};

fn config(seed: u64) -> TraceFleetConfig {
    TraceFleetConfig {
        num_nodes: NODES,
        num_towers: TOWERS,
        dataset_slots: HORIZON,
        replicas: REPLICAS,
        classes: CLASSES,
        fleet_horizon: HORIZON,
        seed,
        shards: None,
    }
}

/// The fleet seed `trace_fleet` derives from the experiment seed.
fn fleet_seed(seed: u64) -> u64 {
    seed ^ 0x7ACE_F1EE7
}

fn policy() -> FleetChaffPolicy {
    FleetChaffPolicy::uniform(FleetChaffStrategy::Im, BUDGET)
}

/// One pipeline call's products.
struct Call {
    dataset: TraceDataset,
    registry: MobilityRegistry,
    outcome: FleetOutcome,
    detections: Vec<Detection>,
    accuracy: f64,
    wall_s: f64,
}

fn call(seed: u64, tracer: &mut Option<Tracer>) -> crate::Result<Call> {
    let root = tracer.as_mut().map(|t| {
        t.next_trace();
        t.start("pipeline", None)
    });
    let started = Instant::now();
    let dataset = timed(tracer, "mobility.ingest", root, || {
        config(seed).build_dataset()
    })
    .0?;
    let registry = timed(tracer, "mobility.estimate", root, || {
        build_registry(&dataset, cluster_by_mobility(&dataset, CLASSES))
    })
    .0?;
    let fleet = FleetConfig::new(dataset.trajectories().len(), HORIZON).with_seed(fleet_seed(seed));
    let outcome = timed(tracer, "sim.run_chaffed", root, || {
        FleetSimulation::with_registry(&registry, fleet).run_chaffed(&policy())
    })
    .0?;
    let detections = timed(tracer, "detector.batch", root, || {
        BatchPrefixDetector::new().detect_prefixes(DetectInput::new(&registry, &outcome.observed))
    })
    .0?;
    let accuracy = timed(tracer, "metrics.accuracy", root, || {
        mean_tracking_accuracy_columnar(
            &outcome.observed,
            &outcome.user_observed_indices,
            &detections,
            registry.num_states(),
        )
    })
    .0;
    let wall_s = started.elapsed().as_secs_f64();
    if let (Some(t), Some(id)) = (tracer.as_mut(), root) {
        t.end(id);
    }
    Ok(Call {
        dataset,
        registry,
        outcome,
        detections,
        accuracy,
        wall_s,
    })
}

/// Replays the batch generator's user draws and chaff lanes from their
/// seed streams (`markov` and `strategy` layers) and checks them against
/// the call's outcome: user trajectories exactly, chaff cells as each
/// slot's multiset of observed cells.
fn replay(report: &mut Report, t: &mut Tracer, c: &Call, seed: u64) {
    let n = c.outcome.user_cells.num_trajectories();
    let cells = c.registry.num_states();
    let seed = fleet_seed(seed);
    // histogram[t * cells + cell]: replayed minus observed services.
    let mut histogram = vec![0i64; HORIZON * cells];
    let root = t.start("shadow", None);
    let mut users_match = true;
    t.span("markov.draw", Some(root), || {
        let mut drawn = vec![chaff_markov::CellId::new(0); HORIZON];
        for u in 0..n {
            let chain = c.registry.chain_of(u);
            let mut rng = StdRng::seed_from_u64(user_seed(seed, u as u64));
            drawn[0] = chain.initial().sample(&mut rng);
            for s in 1..HORIZON {
                drawn[s] = chain.step(drawn[s - 1], &mut rng);
            }
            users_match &= drawn.as_slice() == c.outcome.user_cells.row(u);
        }
    });
    t.span("strategy.chaff", Some(root), || {
        for u in 0..n {
            let user = c.outcome.user_cells.row(u);
            for lane in 0..BUDGET {
                let mut controller = FleetChaffStrategy::Im.controller(c.registry.chain_of(u));
                let mut rng = StdRng::seed_from_u64(chaff_seed(seed, u as u64, lane as u64));
                for (s, &now) in user.iter().enumerate() {
                    histogram[s * cells + controller.next(now, &[], &mut rng).index()] += 1;
                }
            }
            for (s, &now) in user.iter().enumerate() {
                histogram[s * cells + now.index()] += 1;
            }
        }
    });
    t.end(root);
    for s in 0..HORIZON {
        for cell in c.outcome.observed.row(s) {
            histogram[s * cells + cell.index()] -= 1;
        }
    }
    if !users_match {
        report.fail("replayed user draws differ from run_chaffed's trajectories");
    }
    if histogram.iter().any(|&h| h != 0) {
        report.fail("replayed chaff lanes differ from run_chaffed's observed rows");
    }
}

fn check_call(report: &mut Report, c: &Call, first: Option<(u64, u64)>) -> (u64, u64) {
    let services = c.outcome.observed.num_trajectories();
    let sums = (detection_checksum(&c.detections), c.accuracy.to_bits());
    let valid = c.detections.len() == HORIZON
        && c.detections
            .iter()
            .all(|d| checks::detection_is_valid(d, services))
        && checks::is_probability(c.accuracy);
    if !valid {
        report.failed += 1;
        report.fail("pipeline call produced invalid detections or accuracy");
    } else if first.is_some_and(|f| f != sums) {
        report.failed += 1;
        report.fail("pipeline call did not reproduce the warm-up call's outputs");
    }
    sums
}

/// Runs the workload.
///
/// # Errors
///
/// Returns errors of the warm-up call and of set-up; timed calls that
/// fail are counted as failed operations.
pub fn run(opts: &Opts) -> crate::Result<Report> {
    let mut report = Report::default();
    let mut tracer = opts.trace.then(Tracer::new);
    let mut none = None;

    // Warm-up call: pins the outputs and supplies the set-up's dataset.
    report.attempted += 1;
    let warm = call(opts.seed, &mut none)?;
    let first = check_call(&mut report, &warm, None);
    checks::check_pin(&mut report, opts.seed, first.0, warm.accuracy, PIN);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let (registry, secs) = timed(&mut tracer, "sim.setup", None, || {
            build_registry(&warm.dataset, cluster_by_mobility(&warm.dataset, CLASSES))
        });
        registry?;
        setups.push(secs);
    }
    let n = warm.outcome.user_cells.num_trajectories();
    let services = warm.outcome.observed.num_trajectories();
    drop(warm);

    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut last = None;
    let started = Instant::now();
    while walls.len() < MIN_TIMED || started.elapsed().as_secs_f64() < opts.seconds as f64 {
        report.attempted += 1;
        // Only one call's products are resident at a time.
        last = None;
        match call(opts.seed, &mut tracer) {
            Ok(c) => {
                check_call(&mut report, &c, Some(first));
                walls.push(c.wall_s);
                rates.push((n * HORIZON) as f64 / c.wall_s);
                // Only the traced run replays the final call's products.
                if tracer.is_some() {
                    last = Some(c);
                }
            }
            Err(e) => {
                report.failed += 1;
                report.fail(format!("pipeline call failed: {e}"));
                if report.failed > 2 {
                    break;
                }
            }
        }
    }
    if walls.is_empty() {
        return Err("no timed pipeline call completed".into());
    }
    let slot_ms: Vec<f64> = walls.iter().map(|w| w * 1e3 / HORIZON as f64).collect();
    report.note(format!(
        "{} timed pipeline calls after 1 warm-up call; slot_ms = call wall / {HORIZON} slots; \
         N = {n} users of {} nodes, services = {services}",
        walls.len(),
        NODES * REPLICAS
    ));
    report.set("setup_s", median(&setups));
    report.set("user_slots_per_s", median(&rates));
    report.set("slot_ms_p50", percentile(&slot_ms, 50.0));
    report.set("slot_ms_p90", percentile(&slot_ms, 90.0));
    report.set("peak_rss_mb", peak_rss_bytes() as f64 / 1e6);

    if let (Some(t), Some(c)) = (tracer.as_mut(), last.as_ref()) {
        replay(&mut report, t, c, opts.seed);
        t.span("markov.table_build", None, || {
            (0..c.registry.num_classes())
                .map(|class| c.registry.chain(class).log_likelihood_table())
                .collect::<Vec<_>>()
        });
        let draws = n * HORIZON;
        let chaffs = n * BUDGET * HORIZON;
        report.set(
            "markov.draw_ns",
            t.total_ns("markov.draw") as f64 / draws as f64,
        );
        report.set("markov.draw_calls", draws as f64);
        report.set(
            "markov.table_build_s",
            t.median("markov.table_build", 0, 1e9),
        );
        report.set(
            "strategy.chaff_ns",
            t.total_ns("strategy.chaff") as f64 / chaffs as f64,
        );
        report.set("strategy.chaff_calls", chaffs as f64);
        report.set("sim.setup_s", t.median("sim.setup", 0, 1e9));
        report.set("sim.run_chaffed_s", t.median("sim.run_chaffed", 0, 1e9));
        report.set(
            "sim.state_bytes",
            (c.outcome.observed.cell_bytes() + c.outcome.user_cells.cell_bytes()) as f64,
        );
        report.set("sim.migrations", c.outcome.stats.migrations as f64);
        report.set("detector.batch_s", t.median("detector.batch", 0, 1e9));
        let tie_mean = mean(
            &c.detections
                .iter()
                .map(|d| d.tie_set().len() as f64)
                .collect::<Vec<_>>(),
        );
        report.set("detector.tie_mean", tie_mean);
        report.set("detector.tie_fraction", tie_mean / services as f64);
        report.set("metrics.accuracy_s", t.median("metrics.accuracy", 0, 1e9));
        report.set("mobility.ingest_s", t.median("mobility.ingest", 0, 1e9));
        report.set("mobility.estimate_s", t.median("mobility.estimate", 0, 1e9));
        report.set("mobility.nodes_in", (NODES * REPLICAS) as f64);
        report.set("mobility.nodes_kept", c.dataset.trajectories().len() as f64);
        report.set(
            "mobility.keep_ratio",
            c.dataset.trajectories().len() as f64 / (NODES * REPLICAS) as f64,
        );
    }
    if let Some(t) = tracer {
        crate::write_spans(opts, &t)?;
    }
    Ok(report)
}
