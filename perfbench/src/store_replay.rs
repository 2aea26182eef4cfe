//! `store_replay`: writes beside reads. Each operation (a round) builds
//! a fresh `StreamingFleetEngine` over the 3-class `fleet_persist`
//! registry (10 cells, N = 10⁵, uniform CML B = 1), writes it slot by
//! slot through the calls `run_to_store` makes (`step` →
//! `FleetStoreWriter::append_slot` → `finish`), reopens the file and
//! replays it through the paged `detect_prefixes`, which streams
//! `SlotStream` rows off disk.
//!
//! Closed loop: one untimed warm-up round, then timed rounds back to
//! back until the run's seconds are used up (at least `MIN_TIMED`).

use crate::checks::{self, Pin};
use crate::report::{peak_rss_bytes, Report};
use crate::shadow::{Replayed, Shadow, PHASE_REPEATS};
use crate::stats::{mean, median, percentile};
use crate::trace::{self_time_ns, timed, SpanId, Tracer};
use crate::Opts;
use chaff_core::detector::{BatchPrefixDetector, DetectInput, SlotRowSource};
use chaff_eval::experiments::fleet_persist::{detection_checksum, persist_registry, BUDGET};
use chaff_markov::{CellId, MobilityRegistry};
use chaff_sim::fleet::{FleetChaffPolicy, FleetChaffStrategy, FleetConfig};
use chaff_sim::streaming::StreamingFleetEngine;
use chaff_store::{FleetStoreReader, FleetStoreWriter, SlotStream, StoreMeta};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Users `N`.
pub const USERS: usize = 100_000;
/// Cells of every class's chain.
pub const CELLS: usize = 10;
/// Slots written and replayed per round.
pub const HORIZON: usize = 40;
/// Observed services per slot row: every user plus its chaffs.
const SERVICES: usize = USERS * (1 + BUDGET);
/// Chaff strategy of the uniform policy.
pub const STRATEGY: FleetChaffStrategy = FleetChaffStrategy::Cml;
/// Fewest timed rounds per run.
pub const MIN_TIMED: usize = 5;

/// Outputs for [`checks::DEFAULT_SEED`].
pub const PIN: Pin = Pin {
    checksum: 0x2487_2707_1da6_a1c0,
    accuracy_bits: 0x3fbb_3c74_1dc3_7d70,
};

fn policy() -> FleetChaffPolicy {
    FleetChaffPolicy::uniform(STRATEGY, BUDGET)
}

/// A store file that is removed when dropped.
struct ScratchFile(PathBuf);

impl ScratchFile {
    fn new(tag: &str) -> std::io::Result<Self> {
        let dir = crate::out_dir();
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchFile(dir.join(format!(
            "store_replay-{}-{tag}.store",
            std::process::id()
        ))))
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A paged row source that records a `store.read` span around every row
/// it pulls off the file, so the detector's self time excludes reads.
struct TimedRows<'s, 'f> {
    inner: &'s mut SlotStream<'f>,
    tracer: &'s mut Tracer,
    parent: Option<SpanId>,
}

impl SlotRowSource for TimedRows<'_, '_> {
    fn num_trajectories(&self) -> usize {
        SlotRowSource::num_trajectories(&*self.inner)
    }

    fn horizon(&self) -> usize {
        SlotRowSource::horizon(&*self.inner)
    }

    fn next_row(&mut self) -> chaff_core::Result<Option<&[CellId]>> {
        let id = self.tracer.start("store.read", self.parent);
        let row = SlotRowSource::next_row(self.inner);
        self.tracer.end(id);
        row
    }
}

/// One round's measurements.
#[derive(Default)]
struct Round {
    setup_s: f64,
    /// Per-slot `step` latencies.
    step_ms: Vec<f64>,
    /// Per-slot `step` + `append_slot` latencies.
    slot_ms: Vec<f64>,
    write_s: f64,
    replay_s: f64,
    file_bytes: u64,
    checksum: u64,
    accuracy: f64,
    /// Mean tie-set size of the paged detections.
    tie_mean: f64,
    /// Whether every paged detection is well formed and the accuracy a
    /// probability.
    valid: bool,
    /// Whether the paged replay equals the online detections written.
    replay_matches: bool,
    /// Per-slot step minus the shadow draw, chaff and detect (traced).
    step_self_ms: Vec<f64>,
    /// Each replayed slot's shadow phases (traced).
    phases: Vec<Replayed>,
    state_bytes: usize,
    migrations: usize,
    shadow_detector_bytes: usize,
}

fn round(
    registry: &MobilityRegistry,
    seed: u64,
    path: &Path,
    tracer: &mut Option<Tracer>,
    report: &mut Report,
) -> crate::Result<Round> {
    let root = tracer.as_mut().map(|t| {
        t.next_trace();
        t.start("round", None)
    });
    let config = FleetConfig::new(USERS, HORIZON).with_seed(seed);
    let (engine, setup_s) = timed(tracer, "sim.setup", root, || {
        StreamingFleetEngine::with_registry(registry, config, &policy())
    });
    let mut engine = engine?;
    let mut shadow = match tracer {
        Some(_) => Some(Shadow::new(
            (0..USERS).map(|u| registry.chain_of(u)).collect(),
            STRATEGY,
            BUDGET,
            (0..registry.num_classes())
                .map(|c| registry.table(c).clone())
                .collect(),
            engine.num_services(),
            seed,
        )?),
        None => None,
    };
    let mut r = Round {
        setup_s,
        ..Round::default()
    };

    // Write: the calls `run_to_store` makes, one span each.
    let meta = StoreMeta {
        num_services: engine.num_services(),
        num_users: engine.num_users(),
        horizon: engine.horizon(),
        shard_starts: vec![0, engine.num_services()],
        user_observed_indices: engine.user_observed_indices().to_vec(),
    };
    let (writer, create_s) = timed(tracer, "store.create", root, || {
        FleetStoreWriter::create(path, meta)
    });
    let mut writer = writer?;
    r.write_s += create_s;
    let mut accuracy_sum = 0.0;
    let mut online = Vec::with_capacity(HORIZON);
    loop {
        let slot = engine.slots_run();
        let (step, step_s) = timed(tracer, "sim.step", root, || engine.step());
        let Some(step) = step? else { break };
        let observed = engine
            .observed_row(slot)
            .expect("the slot just stepped is ring-buffered");
        let (appended, append_s) = timed(tracer, "store.append", root, || {
            writer.append_slot(observed, engine.last_user_row())
        });
        appended?;
        r.step_ms.push(step_s * 1e3);
        r.slot_ms.push((step_s + append_s) * 1e3);
        r.write_s += step_s + append_s;
        if let (Some(t), Some(sh)) = (tracer.as_mut(), shadow.as_mut()) {
            let replayed = sh.replay_slot(t, root, observed)?;
            r.step_self_ms.push(step_s * 1e3 - replayed.total_ms());
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
            r.phases.push(replayed);
        }
        accuracy_sum += step.tracking_accuracy;
        online.push(step.detection);
    }
    let stats = engine.stats();
    r.state_bytes = engine.state_bytes();
    r.migrations = stats.migrations;
    r.shadow_detector_bytes = shadow.as_ref().map_or(0, Shadow::detector_bytes);
    drop(shadow);
    drop(engine);
    let (finished, finish_s) = timed(tracer, "store.finish", root, || writer.finish(stats.into()));
    finished?;
    r.write_s += finish_s;
    r.accuracy = accuracy_sum / HORIZON as f64;
    r.file_bytes = std::fs::metadata(path)?.len();

    // Replay: reopen and detect page by page off the file.
    let (reader, open_s) = timed(tracer, "store.open", root, || FleetStoreReader::open(path));
    let mut reader = reader?;
    let detector = BatchPrefixDetector::new();
    let started = Instant::now();
    let paged = match tracer.as_mut() {
        Some(t) => {
            let paged = t.start("detector.paged", root);
            let mut stream = reader.stream_slots();
            let mut rows = TimedRows {
                inner: &mut stream,
                tracer: t,
                parent: Some(paged),
            };
            let out = detector.detect_prefixes(DetectInput::new(registry, &mut rows));
            t.end(paged);
            out
        }
        None => {
            let mut stream = reader.stream_slots();
            detector.detect_prefixes(DetectInput::new(registry, &mut stream))
        }
    }?;
    r.replay_s = open_s + started.elapsed().as_secs_f64();
    r.checksum = detection_checksum(&paged);
    r.valid = paged.len() == HORIZON
        && paged
            .iter()
            .all(|d| checks::detection_is_valid(d, SERVICES))
        && checks::is_probability(r.accuracy);
    r.replay_matches = paged == online;
    r.tie_mean = mean(
        &paged
            .iter()
            .map(|d| d.tie_set().len() as f64)
            .collect::<Vec<_>>(),
    );
    if let (Some(t), Some(id)) = (tracer.as_mut(), root) {
        t.end(id);
    }
    Ok(r)
}

/// Byte-for-byte file comparison in fixed-size chunks, so the check
/// does not add two whole files to the run's peak memory.
fn files_equal(a: &Path, b: &Path) -> std::io::Result<bool> {
    use std::io::Read;
    let (mut fa, mut fb) = (std::fs::File::open(a)?, std::fs::File::open(b)?);
    if fa.metadata()?.len() != fb.metadata()?.len() {
        return Ok(false);
    }
    let (mut ba, mut bb) = (vec![0u8; 1 << 20], vec![0u8; 1 << 20]);
    loop {
        let n = fa.read(&mut ba)?;
        if n == 0 {
            return Ok(true);
        }
        fb.read_exact(&mut bb[..n])?;
        if ba[..n] != bb[..n] {
            return Ok(false);
        }
    }
}

fn check_round(report: &mut Report, r: &Round, first: Option<(u64, u64)>) -> bool {
    let ok = if !r.valid {
        report.fail("round produced invalid detections or accuracy");
        false
    } else if !r.replay_matches {
        report.fail("paged replay differs from the online detections written");
        false
    } else if first.is_some_and(|f| f != (r.checksum, r.accuracy.to_bits())) {
        report.fail("round did not reproduce the warm-up round's outputs");
        false
    } else {
        true
    };
    if !ok {
        report.failed += 1;
    }
    ok
}

/// Runs the workload.
///
/// # Errors
///
/// Returns errors of the warm-up round; timed rounds that fail are
/// counted as failed operations.
pub fn run(opts: &Opts) -> crate::Result<Report> {
    let mut report = Report::default();
    let mut tracer = opts.trace.then(Tracer::new);
    let registry = persist_registry(opts.seed, CELLS);
    if let Some(t) = tracer.as_mut() {
        t.next_trace();
        t.span("markov.table_build", None, || {
            (0..registry.num_classes())
                .map(|c| registry.chain(c).log_likelihood_table())
                .collect::<Vec<_>>()
        });
    }
    let path = ScratchFile::new("round")?;

    // Warm-up round: pins the outputs, and its file must be the one the
    // library's own `run_to_store` writes, byte for byte.
    report.attempted += 1;
    let warm = round(&registry, opts.seed, &path.0, &mut None, &mut report)?;
    let first = (warm.checksum, warm.accuracy.to_bits());
    check_round(&mut report, &warm, None);
    checks::check_pin(&mut report, opts.seed, warm.checksum, warm.accuracy, PIN);
    let reference = ScratchFile::new("reference")?;
    StreamingFleetEngine::with_registry(
        &registry,
        FleetConfig::new(USERS, HORIZON).with_seed(opts.seed),
        &policy(),
    )?
    .run_to_store(&reference.0)?;
    if !files_equal(&reference.0, &path.0)? {
        report.fail("the benchmark's write loop does not reproduce run_to_store's file");
    }
    drop(reference);
    drop(warm);

    let mut rounds = Vec::new();
    let started = Instant::now();
    while rounds.len() < MIN_TIMED || started.elapsed().as_secs_f64() < opts.seconds as f64 {
        report.attempted += 1;
        match round(&registry, opts.seed, &path.0, &mut tracer, &mut report) {
            Ok(r) => {
                check_round(&mut report, &r, Some(first));
                rounds.push(r);
            }
            Err(e) => {
                report.failed += 1;
                report.fail(format!("round failed: {e}"));
                if report.failed > 2 {
                    break;
                }
            }
        }
    }
    if rounds.is_empty() {
        return Err("no timed round completed".into());
    }
    let of = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let slot_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.slot_ms.iter().copied())
        .collect();
    let user_slots = (USERS * HORIZON) as f64;
    report.note(format!(
        "{} timed rounds after 1 warm-up round; {} write-slot latency samples \
         (step + append_slot); N = {USERS}, services = {SERVICES}, T = {HORIZON}",
        rounds.len(),
        slot_ms.len()
    ));
    report.set("setup_s", of(&|r| r.setup_s));
    report.set(
        "user_slots_per_s",
        of(&|r| user_slots / (r.write_s + r.replay_s)),
    );
    report.set("slot_ms_p50", percentile(&slot_ms, 50.0));
    report.set("slot_ms_p90", percentile(&slot_ms, 90.0));
    report.set("peak_rss_mb", peak_rss_bytes() as f64 / 1e6);
    report.note(format!(
        "write_user_slots_per_s = {} 1/s, replay_user_slots_per_s = {} 1/s",
        of(&|r| user_slots / r.write_s),
        of(&|r| user_slots / r.replay_s)
    ));

    if let Some(t) = tracer.as_ref() {
        per_layer(&mut report, t, &rounds);
    }
    if let Some(t) = tracer {
        crate::write_spans(opts, &t)?;
    }
    Ok(report)
}

fn per_layer(report: &mut Report, t: &Tracer, rounds: &[Round]) {
    let per_round = |name: &str| -> Vec<f64> {
        let mut totals: Vec<(u64, u64)> = Vec::new();
        for s in t.spans().iter().filter(|s| s.name == name) {
            match totals.last_mut() {
                Some((id, total)) if *id == s.trace_id => *total += s.duration_ns(),
                _ => totals.push((s.trace_id, s.duration_ns())),
            }
        }
        totals.into_iter().map(|(_, ns)| ns as f64 / 1e9).collect()
    };
    let slots: usize = rounds.iter().map(|r| r.phases.len()).sum();
    let draws = USERS * slots;
    let chaffs = USERS * BUDGET * slots;
    let phase_median = |ns: fn(&Replayed) -> u64, calls: usize| {
        let per_call: Vec<f64> = rounds
            .iter()
            .flat_map(|r| &r.phases)
            .map(|p| ns(p) as f64 / calls as f64)
            .collect();
        median(&per_call)
    };
    report.set("markov.draw_ns", phase_median(|p| p.draw_ns, USERS));
    report.set("markov.draw_calls", draws as f64);
    report.set(
        "markov.table_build_s",
        t.median("markov.table_build", 0, 1e9),
    );
    report.set(
        "strategy.chaff_ns",
        phase_median(|p| p.chaff_ns, USERS * BUDGET),
    );
    report.set("strategy.chaff_calls", chaffs as f64);
    report.set("sim.setup_s", t.median("sim.setup", 0, 1e9));
    let step_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.step_ms.iter().copied())
        .collect();
    report.set("sim.step_ms", median(&step_ms));
    let step_self: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.step_self_ms.iter().copied())
        .collect();
    report.set("sim.step_self_ms", median(&step_self));
    report.set(
        "sim.step_self_min_ms",
        step_self.iter().copied().fold(f64::INFINITY, f64::min),
    );
    report.note(format!(
        "shadow phases: shortest of {PHASE_REPEATS} runs per slot; sim.step_self_ms \
         negative on {} of {} slots",
        step_self.iter().filter(|&&v| v < 0.0).count(),
        step_self.len()
    ));
    let last = rounds.last().expect("at least one round");
    report.set("sim.state_bytes", last.state_bytes as f64);
    report.set("sim.migrations", last.migrations as f64);
    report.set(
        "detector.push_slot_ms",
        phase_median(|p| p.push_ns, 1_000_000),
    );
    let paged_self: Vec<f64> = t
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "detector.paged")
        .map(|(id, _)| self_time_ns(t.spans(), id) as f64 / 1e9)
        .collect();
    report.set("detector.paged_s", median(&paged_self));
    report.set("detector.tie_mean", last.tie_mean);
    report.set("detector.tie_fraction", last.tie_mean / SERVICES as f64);
    report.set("detector.state_bytes", last.shadow_detector_bytes as f64);
    let file_mb = last.file_bytes as f64 / 1e6;
    let write_s: Vec<f64> = per_round("store.append")
        .iter()
        .zip(per_round("store.finish"))
        .map(|(a, f)| a + f)
        .collect();
    let read_s = per_round("store.read");
    let observed_mb = (SERVICES * HORIZON * 4) as f64 / 1e6;
    report.set("store.append_ms", t.median("store.append", 0, 1e6));
    report.set("store.finish_s", t.median("store.finish", 0, 1e9));
    report.set("store.write_mb_per_s", file_mb / median(&write_s));
    report.set("store.open_s", t.median("store.open", 0, 1e9));
    report.set("store.read_s", median(&read_s));
    report.set("store.read_mb_per_s", observed_mb / median(&read_s));
    report.set("store.file_bytes", last.file_bytes as f64);
    report.set("store.rows", HORIZON as f64);
}
