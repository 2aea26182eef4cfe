//! `online_dense`: the paper's online eavesdropper on its synthetic
//! model (a) — `StreamingFleetEngine::step` back-to-back on a 10-cell
//! non-skewed chain, N = 5·10⁵ users, uniform IM budget B = 2.
//!
//! Closed loop: one caller issues the next step when the previous one
//! returns. The first `WARMUP` slots fill the engine's ring and are not
//! timed; then at least `PINNED_SLOTS` slots are timed, and stepping
//! continues until the run's seconds are used up. The pinned checksum
//! and accuracy cover exactly the first `WARMUP + PINNED_SLOTS` slots.

use crate::checks::{self, Pin};
use crate::report::{peak_rss_bytes, Report};
use crate::shadow::{Replayed, Shadow, PHASE_REPEATS};
use crate::stats::{median, percentile};
use crate::trace::{timed, Tracer};
use crate::Opts;
use chaff_core::detector::{BatchPrefixDetector, DetectInput, Detection};
use chaff_eval::experiments::fleet_persist::detection_checksum;
use chaff_markov::models::ModelKind;
use chaff_markov::MarkovChain;
use chaff_sim::fleet::{FleetChaffPolicy, FleetChaffStrategy, FleetConfig, FleetSimulation};
use chaff_sim::streaming::{StreamingFleetEngine, DEFAULT_RING_DEPTH};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Users `N`.
pub const USERS: usize = 500_000;
/// Cells of the non-skewed chain.
pub const CELLS: usize = 10;
/// Uniform IM chaff budget per user.
pub const BUDGET: usize = 2;
/// Untimed slots that fill the engine's observed-row ring.
pub const WARMUP: usize = DEFAULT_RING_DEPTH;
/// Timed slots every run makes; the pin covers `WARMUP + PINNED_SLOTS`.
pub const PINNED_SLOTS: usize = 100;
/// Engine constructions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 7;
/// Horizon the engine is configured with: an upper bound on the slots
/// one run can take.
const HORIZON: usize = 100_000;

/// Outputs for [`checks::DEFAULT_SEED`].
pub const PIN: Pin = Pin {
    checksum: 0xd7da_8a5b_3edb_8b70,
    accuracy_bits: 0x3fbb_b72d_67f8_46c5,
};

fn chain(seed: u64) -> crate::Result<MarkovChain> {
    let mut rng = StdRng::seed_from_u64(seed);
    Ok(MarkovChain::new(
        ModelKind::NonSkewed.build(CELLS, &mut rng)?,
    )?)
}

fn policy() -> FleetChaffPolicy {
    FleetChaffPolicy::uniform(FleetChaffStrategy::Im, BUDGET)
}

/// The streaming engine must equal the batch pipeline for this seed on
/// a small fleet: a cheap check of the program's outputs that holds for
/// every seed.
fn cross_check(report: &mut Report, chain: &MarkovChain, seed: u64) {
    let config = FleetConfig::new(2_000, 24).with_seed(seed);
    let result = (|| -> crate::Result<bool> {
        let outcome = FleetSimulation::new(chain, config.clone()).run_chaffed(&policy())?;
        let batch = BatchPrefixDetector::new()
            .detect_prefixes(DetectInput::new(chain, &outcome.observed))?;
        let mut engine = StreamingFleetEngine::new(chain, config, &policy())?;
        let mut streamed = Vec::new();
        while let Some(step) = engine.step()? {
            streamed.push(step.detection);
        }
        Ok(streamed == batch)
    })();
    match result {
        Ok(true) => {}
        Ok(false) => report.fail("streamed detections differ from the batch pipeline"),
        Err(e) => report.fail(format!("small-fleet cross-check failed: {e}")),
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Returns set-up errors; step errors are counted as failed operations.
pub fn run(opts: &Opts) -> crate::Result<Report> {
    let mut report = Report::default();
    let mut tracer = opts.trace.then(Tracer::new);
    let chain = chain(opts.seed)?;
    if let Some(t) = tracer.as_mut() {
        t.next_trace();
        t.span("markov.table_build", None, || chain.log_likelihood_table());
    }
    cross_check(&mut report, &chain, opts.seed);

    let config = FleetConfig::new(USERS, HORIZON).with_seed(opts.seed);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut engine = None;
    for _ in 0..SETUP_REPEATS {
        drop(engine.take());
        let (built, secs) = timed(&mut tracer, "sim.setup", None, || {
            StreamingFleetEngine::new(&chain, config.clone(), &policy())
        });
        engine = Some(built?);
        setups.push(secs);
    }
    let mut engine = engine.expect("at least one set-up");
    let services = engine.num_services();
    let mut shadow = match tracer {
        Some(_) => Some(Shadow::new(
            vec![&chain; USERS],
            FleetChaffStrategy::Im,
            BUDGET,
            vec![chain.log_likelihood_table()],
            services,
            opts.seed,
        )?),
        None => None,
    };

    let pinned = WARMUP + PINNED_SLOTS;
    let mut detections: Vec<Detection> = Vec::with_capacity(pinned);
    let mut accuracy_sum = 0.0;
    let mut latencies_ms = Vec::new();
    let mut self_ms = Vec::new();
    let mut phases: Vec<Replayed> = Vec::new();
    let mut tie_sizes = Vec::new();
    let mut timed_wall = 0.0;
    let mut timed_started: Option<Instant> = None;
    loop {
        let slot = engine.slots_run();
        if slot == WARMUP {
            timed_started = Some(Instant::now());
        }
        if let Some(started) = timed_started {
            let elapsed = started.elapsed().as_secs_f64();
            if slot >= pinned && elapsed >= opts.seconds as f64 {
                // A traced loop also replays each slot's layers; only the
                // engine's steps count as the workload's wall time.
                timed_wall = if tracer.is_some() {
                    latencies_ms.iter().sum::<f64>() / 1e3
                } else {
                    elapsed
                };
                break;
            }
        }
        report.attempted += 1;
        let root = tracer.as_mut().map(|t| {
            t.next_trace();
            t.start("slot", None)
        });
        let (step, step_s) = timed(&mut tracer, "sim.step", root, || engine.step());
        let step_ms = step_s * 1e3;
        let step = match step {
            Ok(Some(step)) => step,
            Ok(None) => {
                report.fail("engine ran out of horizon");
                break;
            }
            Err(e) => {
                report.failed += 1;
                report.fail(format!("slot {slot}: {e}"));
                break;
            }
        };
        if !checks::detection_is_valid(&step.detection, services)
            || !checks::is_probability(step.tracking_accuracy)
        {
            report.failed += 1;
            report.fail(format!("slot {slot}: invalid detection or accuracy"));
        }
        if let (Some(t), Some(sh)) = (tracer.as_mut(), shadow.as_mut()) {
            let observed = engine
                .observed_row(slot)
                .expect("the slot just stepped is ring-buffered");
            let replayed = sh.replay_slot(t, root, observed)?;
            t.end(root.expect("traced slots have a root span"));
            if sh.users() != engine.last_user_row() || !sh.matches_row(observed, CELLS) {
                report.fail(format!(
                    "slot {slot}: shadow draw or chaff differs from the engine"
                ));
            }
            if replayed.detection != step.detection {
                report.fail(format!(
                    "slot {slot}: shadow push_slot differs from the engine"
                ));
            }
            if slot >= WARMUP {
                self_ms.push(step_ms - replayed.total_ms());
                phases.push(replayed);
            }
        }
        if slot >= WARMUP {
            latencies_ms.push(step_ms);
            tie_sizes.push(step.detection.tie_set().len() as f64);
        }
        if slot < pinned {
            accuracy_sum += step.tracking_accuracy;
            detections.push(step.detection);
        }
    }
    if detections.len() == pinned {
        let accuracy = accuracy_sum / pinned as f64;
        checks::check_pin(
            &mut report,
            opts.seed,
            detection_checksum(&detections),
            accuracy,
            PIN,
        );
    } else {
        report.fail("run ended before the pinned slots were stepped");
    }

    if latencies_ms.is_empty() {
        return Err("no timed slot completed".into());
    }
    let timed = latencies_ms.len();
    report.note(format!(
        "{timed} timed slots after {WARMUP} warm-up slots; {SETUP_REPEATS} set-ups; \
         N = {USERS}, services = {services}"
    ));
    report.set("setup_s", median(&setups));
    report.set(
        "user_slots_per_s",
        (USERS * timed) as f64 / timed_wall.max(f64::MIN_POSITIVE),
    );
    report.set("slot_ms_p50", percentile(&latencies_ms, 50.0));
    report.set("slot_ms_p90", percentile(&latencies_ms, 90.0));
    report.set("peak_rss_mb", peak_rss_bytes() as f64 / 1e6);
    if let (Some(t), Some(sh)) = (tracer.as_ref(), shadow.as_ref()) {
        let slots = t.durations("sim.step").len();
        report.set(
            "markov.table_build_s",
            t.total_ns("markov.table_build") as f64 / 1e9,
        );
        let phase_median = |ns: fn(&Replayed) -> u64, calls: usize| {
            median(
                &phases
                    .iter()
                    .map(|p| ns(p) as f64 / calls as f64)
                    .collect::<Vec<_>>(),
            )
        };
        report.set("markov.draw_ns", phase_median(|p| p.draw_ns, USERS));
        report.set("markov.draw_calls", (USERS * slots) as f64);
        report.set(
            "strategy.chaff_ns",
            phase_median(|p| p.chaff_ns, USERS * BUDGET),
        );
        report.set("strategy.chaff_calls", (USERS * BUDGET * slots) as f64);
        report.set("sim.setup_s", t.median("sim.setup", 0, 1e9));
        report.set("sim.step_ms", t.median("sim.step", WARMUP, 1e6));
        report.set("sim.step_self_ms", median(&self_ms));
        report.set(
            "sim.step_self_min_ms",
            self_ms.iter().copied().fold(f64::INFINITY, f64::min),
        );
        report.set("sim.state_bytes", engine.state_bytes() as f64);
        report.set("sim.migrations", engine.stats().migrations as f64);
        report.set(
            "detector.push_slot_ms",
            phase_median(|p| p.push_ns, 1_000_000),
        );
        report.set("detector.state_bytes", sh.detector_bytes() as f64);
        let tie_mean = crate::stats::mean(&tie_sizes);
        report.set("detector.tie_mean", tie_mean);
        report.set("detector.tie_fraction", tie_mean / services as f64);
        report.note(format!(
            "shadow phases: shortest of {PHASE_REPEATS} runs per slot; sim.step_self_ms \
             negative on {} of {} slots",
            self_ms.iter().filter(|&&v| v < 0.0).count(),
            self_ms.len()
        ));
    }
    if let Some(t) = tracer {
        crate::write_spans(opts, &t)?;
    }
    Ok(report)
}
