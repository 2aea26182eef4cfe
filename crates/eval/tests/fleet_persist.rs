//! ISSUE 8 acceptance battery for the persistent paged fleet store.
//!
//! * **Golden round trip (tier-1).** A pinned `N = 10⁴` fleet is
//!   checkpointed, reloaded and paged-streamed; all three detection
//!   paths must reproduce one pinned checksum — any accidental change
//!   to the RNG streams, the store byte layout or the detection kernels
//!   trips this test.
//! * **`N = 10⁶` bounded-memory rung.** Write (streamed) → resume →
//!   detect off the file page by page; the paged path's peak-RSS delta
//!   must stay below *half* the whole-grid load path's, and every path
//!   must agree with the engine's own online detections bit-for-bit.
//! * **`N = 10⁷` smoke.** Write and stream back a ten-million-service
//!   population, verifying every streamed row against the in-memory
//!   grid.
//!
//! The RSS assertions measure `VmHWM` deltas after a
//! `/proc/self/clear_refs` peak reset, so the three tests serialize on
//! one mutex to keep concurrent allocations out of each other's
//! measurements.

use chaff_core::detector::{BatchPrefixDetector, DetectInput};
use chaff_core::temp::TempPath;
use chaff_eval::experiments::fleet_persist::detection_checksum;
use chaff_sim::fleet::{FleetChaffPolicy, FleetConfig, FleetOutcome, FleetSimulation};
use chaff_sim::streaming::StreamingFleetEngine;
use chaff_sim::test_support::{mixed_registry, nonskewed_chain, strategy_from};
use chaff_store::FleetStoreReader;
use std::sync::Mutex;

/// Serializes the tests in this binary: the RSS deltas below must not
/// see another test's allocations.
static SERIAL: Mutex<()> = Mutex::new(());

/// Peak RSS in bytes (`VmHWM` from `/proc/self/status`); 0 when the
/// proc interface is unavailable (non-Linux), which disables the RSS
/// assertion but not the equality checks.
fn peak_rss_bytes() -> usize {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix("VmHWM:")?;
            rest.trim()
                .strip_suffix("kB")
                .map(|v| v.trim().parse::<usize>().ok())?
        })
        .map_or(0, |kb| kb * 1024)
}

/// Resets the peak-RSS watermark to the current RSS; returns whether
/// the reset interface exists.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The pinned `N = 10⁴` detection checksum: three mobility classes, one
/// CML chaff per user, 12 slots, seed 42, 7 generation shards. Any
/// change to the seed streams, the store format or the detection
/// kernels that perturbs detections shows up here.
const GOLDEN_CHECKSUM: u64 = 8_261_906_127_266_587_605;

#[test]
fn golden_round_trip_matches_the_pinned_detection_checksum() {
    let _guard = SERIAL.lock().unwrap();
    let registry = mixed_registry(1709, 10, 3);
    let policy = FleetChaffPolicy::uniform(strategy_from(1), 1);
    let config = FleetConfig::new(10_000, 12).with_seed(42).with_shards(7);
    let outcome = FleetSimulation::with_registry(&registry, config)
        .run_chaffed(&policy)
        .unwrap();
    let path = TempPath::new("accept_golden");
    outcome.checkpoint(&path).unwrap();

    let detector = BatchPrefixDetector::with_shards(7);
    let in_memory = detector
        .detect_prefixes(DetectInput::new(&registry, &outcome.observed))
        .unwrap();
    assert_eq!(
        detection_checksum(&in_memory),
        GOLDEN_CHECKSUM,
        "in-memory detection drifted from the pinned golden checksum"
    );

    let restored = FleetOutcome::restore(&path).unwrap();
    assert_eq!(restored.observed, outcome.observed);
    assert_eq!(restored.user_cells, outcome.user_cells);
    assert_eq!(
        restored.user_observed_indices,
        outcome.user_observed_indices
    );
    assert_eq!(restored.stats, outcome.stats);
    let loaded = detector
        .detect_prefixes(DetectInput::new(&registry, &restored.observed))
        .unwrap();
    assert_eq!(loaded, in_memory, "whole-grid reload detection diverged");

    let mut reader = FleetStoreReader::open(&path).unwrap();
    let paged = {
        let mut stream = reader.stream_slots();
        detector
            .detect_prefixes(DetectInput::new(&registry, &mut stream))
            .unwrap()
    };
    assert_eq!(paged, in_memory, "paged detection diverged");
}

#[test]
fn million_user_resume_detects_bit_for_bit_in_bounded_memory() {
    let _guard = SERIAL.lock().unwrap();
    const N: usize = 1_000_000;
    const T: usize = 24;
    let chain = nonskewed_chain(1709, 10);
    let policy = FleetChaffPolicy::uniform(strategy_from(0), 0);
    let config = FleetConfig::new(N, T).with_seed(7);
    let path = TempPath::new("accept_million");

    // Write: the streaming engine appends straight to disk; its own
    // online detections are the in-memory reference (bit-for-bit the
    // batch pipeline, per tests/streaming_equivalence.rs in chaff-sim).
    let checksum_mem = {
        let mut engine = StreamingFleetEngine::new(&chain, config, &policy).unwrap();
        let steps = engine.run_to_store(&path).unwrap();
        assert_eq!(steps.len(), T);
        let detections: Vec<_> = steps.into_iter().map(|s| s.detection).collect();
        detection_checksum(&detections)
    };

    let detector = BatchPrefixDetector::new();

    // Resume, paged: detection straight off the file, page by page.
    let rss_works = reset_peak_rss();
    let stream_base = peak_rss_bytes();
    let checksum_paged = {
        let mut reader = FleetStoreReader::open(&path).unwrap();
        let mut stream = reader.stream_slots();
        let paged = detector
            .detect_prefixes(DetectInput::new(&chain, &mut stream))
            .unwrap();
        detection_checksum(&paged)
    };
    let stream_delta = peak_rss_bytes().saturating_sub(stream_base);

    // Resume, whole grid: load everything, then detect columnar.
    reset_peak_rss();
    let load_base = peak_rss_bytes();
    let checksum_loaded = {
        let mut reader = FleetStoreReader::open(&path).unwrap();
        let fleet = reader.load().unwrap();
        let loaded = detector
            .detect_prefixes(DetectInput::new(&chain, &fleet.observed))
            .unwrap();
        detection_checksum(&loaded)
    };
    let load_delta = peak_rss_bytes().saturating_sub(load_base);

    assert_eq!(checksum_paged, checksum_mem, "paged detection diverged");
    assert_eq!(checksum_loaded, checksum_mem, "loaded detection diverged");
    // The acceptance bound: streaming detection must peak below half
    // of what materializing the grid costs (the grid alone is
    // N × T × 4 B = 96 MB here; the stream path holds one page).
    if rss_works {
        assert!(
            2 * stream_delta < load_delta,
            "stream peak delta {stream_delta} B is not under half the load path's {load_delta} B"
        );
    }
}

#[test]
fn ten_million_service_store_writes_and_streams() {
    let _guard = SERIAL.lock().unwrap();
    const N: usize = 10_000_000;
    const T: usize = 2;
    let chain = nonskewed_chain(3, 10);
    let outcome = FleetSimulation::new(&chain, FleetConfig::new(N, T).with_seed(11))
        .run_natural()
        .unwrap();
    let path = TempPath::new("accept_ten_million");
    outcome.checkpoint(&path).unwrap();

    let mut reader = FleetStoreReader::open(&path).unwrap();
    assert_eq!(reader.num_services(), N);
    assert_eq!(reader.num_users(), N);
    assert_eq!(reader.horizon(), T);
    let mut stream = reader.stream_slots();
    let mut rows = 0usize;
    while let Some(row) = stream.next_row().unwrap() {
        assert_eq!(row, outcome.observed.row(rows), "slot {rows} diverged");
        rows += 1;
    }
    assert_eq!(rows, T);
}
