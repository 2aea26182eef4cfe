//! Error-path battery for trace ingestion: malformed records,
//! out-of-bbox points and empty-after-filter fleets must surface as
//! *typed* `MobilityError`s naming the offending node — never panics.

use chaff_core::temp::TempPath;
use chaff_mobility::geo::{BoundingBox, GeoPoint};
use chaff_mobility::interpolate::{inactivity_reason, regularize, SlotGrid};
use chaff_mobility::pipeline::TraceDatasetBuilder;
use chaff_mobility::record::{NodeTrace, TraceRecord};
use chaff_mobility::stream::{CrawdadDirStream, TraceStream};
use chaff_mobility::taxi::TaxiFleetConfig;
use chaff_mobility::{crawdad, MobilityError};
use proptest::prelude::*;
use std::io::Cursor;

fn tmp_dir(tag: &str) -> TempPath {
    let dir = TempPath::new(&format!("trace_errors_{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn rec(ts: i64, lat: f64, lon: f64) -> TraceRecord {
    TraceRecord {
        point: GeoPoint::new(lat, lon),
        occupied: false,
        timestamp: ts,
    }
}

#[test]
fn malformed_directory_file_names_the_node_through_the_stream() {
    let dir = tmp_dir("malformed");
    std::fs::write(dir.join("new_ok.txt"), "37.7 -122.4 0 100\n").unwrap();
    std::fs::write(dir.join("new_sick.txt"), "37.7 not-a-longitude 0 100\n").unwrap();
    let mut stream = CrawdadDirStream::new(&dir).unwrap();
    let err = loop {
        match stream.next_batch(1) {
            Ok(batch) if batch.is_empty() => panic!("expected a parse failure"),
            Ok(_) => continue,
            Err(e) => break e,
        }
    };
    match err {
        MobilityError::Parse { node, line, reason } => {
            assert_eq!(node, "new_sick");
            assert_eq!(line, 1);
            assert!(reason.contains("longitude"), "{reason}");
        }
        other => panic!("unexpected error: {other:?}"),
    }
}

#[test]
fn out_of_bbox_record_names_node_and_record_index() {
    let dir = tmp_dir("bbox");
    // Two clean records, then a glitch that teleports the taxi to
    // Greenwich — record index 0 after time-sorting (timestamp 5).
    std::fs::write(
        dir.join("new_teleport.txt"),
        "37.70 -122.40 0 120\n37.70 -122.40 0 60\n51.48 0.00 0 5\n",
    )
    .unwrap();
    let stream = CrawdadDirStream::new(&dir)
        .unwrap()
        .with_bbox(BoundingBox::san_francisco());
    let err = TraceDatasetBuilder::new()
        .horizon_slots(2)
        .num_towers(60)
        .seed(1)
        .build_from_stream(stream)
        .unwrap_err();
    match err {
        MobilityError::OutOfBbox {
            node,
            record,
            lat,
            lon,
        } => {
            assert_eq!(node, "new_teleport");
            assert_eq!(record, 0, "records are time-sorted before validation");
            assert!((lat - 51.48).abs() < 1e-9);
            assert!(lon.abs() < 1e-9);
        }
        other => panic!("unexpected error: {other:?}"),
    }
}

#[test]
fn empty_after_filter_fleet_reports_examined_count_and_example() {
    // Every node has a window-breaking gap: both engines must return the
    // typed NoActiveNodes error, counting examined nodes and naming one.
    let traces: Vec<NodeTrace> = (0..6)
        .map(|i| {
            NodeTrace::new(
                format!("sparse_{i}"),
                vec![rec(0, 37.7, -122.4), rec(2_000, 37.71, -122.41)],
            )
        })
        .collect();
    let builder = || {
        TraceDatasetBuilder::new()
            .num_towers(60)
            .horizon_slots(10)
            .seed(3)
            .with_traces(traces.clone())
    };
    for err in [
        builder().build().unwrap_err(),
        builder()
            .shards(3)
            .batch_nodes(2)
            .build_streaming()
            .unwrap_err(),
    ] {
        match err {
            MobilityError::NoActiveNodes { examined, example } => {
                assert_eq!(examined, 6);
                let example = example.expect("a dropped node is known");
                assert!(example.contains("sparse_0"), "{example}");
                assert!(example.contains("gap"), "{example}");
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }
}

#[test]
fn amplification_of_external_traces_is_rejected() {
    // Replicas only apply to the synthetic generator; silently ignoring
    // the knob would run an experiment at 1/R of the requested scale.
    let traces = vec![NodeTrace::new(
        "real_node",
        vec![rec(0, 37.7, -122.4), rec(60, 37.7, -122.4)],
    )];
    let err = TraceDatasetBuilder::new()
        .num_towers(60)
        .with_traces(traces)
        .replicas(8)
        .build_streaming()
        .unwrap_err();
    assert!(matches!(
        err,
        MobilityError::InvalidConfig {
            parameter: "replicas",
            ..
        }
    ));
    // replicas == 0 is invalid on every path.
    let err = TraceDatasetBuilder::new()
        .num_towers(60)
        .replicas(0)
        .build_streaming()
        .unwrap_err();
    assert!(matches!(
        err,
        MobilityError::InvalidConfig {
            parameter: "replicas",
            ..
        }
    ));
}

#[test]
fn invalid_fleet_config_is_rejected_by_the_streaming_engine() {
    let config = TaxiFleetConfig {
        speed_range_mps: (5.0, 2.0),
        ..TaxiFleetConfig::default()
    };
    let err = TraceDatasetBuilder::new()
        .num_towers(60)
        .fleet_config(config)
        .build_streaming()
        .unwrap_err();
    assert!(matches!(
        err,
        MobilityError::InvalidConfig {
            parameter: "speed_range_mps",
            ..
        }
    ));
}

#[test]
fn inactivity_diagnosis_names_concrete_causes() {
    let grid = SlotGrid::minutes(0, 10);
    let gappy = NodeTrace::new("g", vec![rec(0, 37.7, -122.4), rec(900, 37.7, -122.4)]);
    let reason = inactivity_reason(&gappy, &grid).unwrap();
    assert!(reason.to_string().contains("900"), "{reason}");
    let late = NodeTrace::new("l", vec![rec(60, 37.7, -122.4), rec(600, 37.7, -122.4)]);
    assert!(regularize(&late, &grid).is_none());
    assert!(inactivity_reason(&late, &grid)
        .unwrap()
        .to_string()
        .contains("do not cover"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The parser never panics: any line of printable junk either parses
    /// or yields a typed error carrying the node id.
    #[test]
    fn parser_never_panics_on_junk(
        fields in proptest::collection::vec(-200.0f64..200.0, 0..6),
        garbage in 0usize..3,
    ) {
        let mut line = fields
            .iter()
            .map(|v| format!("{v:.4}"))
            .collect::<Vec<_>>()
            .join(" ");
        if garbage == 1 {
            line.push_str(" xyz");
        } else if garbage == 2 {
            line = format!("nan {line}");
        }
        match crawdad::parse_node("fuzz", Cursor::new(line)) {
            Ok(trace) => {
                for r in &trace.records {
                    prop_assert!((-90.0..=90.0).contains(&r.point.lat));
                    prop_assert!((-180.0..=180.0).contains(&r.point.lon));
                }
            }
            Err(MobilityError::Parse { node, .. }) => prop_assert_eq!(node, "fuzz"),
            Err(other) => prop_assert!(false, "unexpected error kind: {other:?}"),
        }
    }

    /// Regularization never panics and never invents positions outside
    /// the record hull, whatever the (sorted) timestamps are.
    #[test]
    fn regularize_never_panics(
        stamps in proptest::collection::vec(0i64..2_000, 0..12),
        num_slots in 0usize..8,
    ) {
        let records: Vec<TraceRecord> = stamps
            .iter()
            .enumerate()
            .map(|(i, &ts)| rec(ts, 37.6 + 0.001 * i as f64, -122.4))
            .collect();
        let trace = NodeTrace::new("n", records);
        let grid = SlotGrid {
            start_timestamp: 0,
            slot_s: 60,
            num_slots,
            max_gap_s: 300,
        };
        let diagnosed_inactive = inactivity_reason(&trace, &grid).is_some();
        match regularize(&trace, &grid) {
            Some(positions) => {
                prop_assert_eq!(positions.len(), num_slots);
                prop_assert!(!diagnosed_inactive);
            }
            None => prop_assert!(diagnosed_inactive),
        }
    }
}
