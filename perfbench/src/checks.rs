//! The correctness gate shared by every workload.

use crate::report::Report;
use chaff_core::detector::Detection;

/// The seed whose outputs each workload pins.
pub const DEFAULT_SEED: u64 = 1;

/// A workload's pinned outputs for [`DEFAULT_SEED`]: the order-sensitive
/// detection checksum (`fleet_persist::detection_checksum`) and the bits
/// of the mean tracking accuracy. Both are independent of shard and
/// thread counts, because the engines are bit-for-bit across shards.
#[derive(Debug, Clone, Copy)]
pub struct Pin {
    /// Detection checksum.
    pub checksum: u64,
    /// `f64::to_bits` of the tracking accuracy.
    pub accuracy_bits: u64,
}

/// Compares a run's outputs with the pin. The default seed must
/// reproduce it exactly; any other seed must give a different checksum,
/// which shows the check is live.
pub fn check_pin(report: &mut Report, seed: u64, checksum: u64, accuracy: f64, pin: Pin) {
    report.note(format!(
        "checksum = {checksum:#018x}, tracking_accuracy = {accuracy} (bits {:#018x})",
        accuracy.to_bits()
    ));
    if seed == DEFAULT_SEED {
        if checksum != pin.checksum {
            report.fail(format!(
                "detection checksum {checksum:#018x} != pinned {:#018x}",
                pin.checksum
            ));
        }
        if accuracy.to_bits() != pin.accuracy_bits {
            report.fail(format!(
                "tracking accuracy bits {:#018x} != pinned {:#018x}",
                accuracy.to_bits(),
                pin.accuracy_bits
            ));
        }
    } else if checksum == pin.checksum {
        report.fail(format!(
            "seed {seed} reproduced the default seed's checksum {checksum:#018x}: the check is not live"
        ));
    }
}

/// Structural checks on one slot's detection over `services` observed
/// services: a strictly increasing, in-range tie set (`Detection`
/// itself guarantees it is non-empty).
pub fn detection_is_valid(detection: &Detection, services: usize) -> bool {
    let tie = detection.tie_set();
    tie.windows(2).all(|w| w[0] < w[1]) && tie[tie.len() - 1] < services
}

/// Whether an accuracy is a probability.
pub fn is_probability(x: f64) -> bool {
    (0.0..=1.0).contains(&x)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PIN: Pin = Pin {
        checksum: 7,
        accuracy_bits: 0x3fe0_0000_0000_0000, // 0.5
    };

    #[test]
    fn the_default_seed_must_match_and_other_seeds_must_differ() {
        let mut ok = Report::default();
        check_pin(&mut ok, DEFAULT_SEED, 7, 0.5, PIN);
        check_pin(&mut ok, DEFAULT_SEED + 1, 8, 0.25, PIN);
        assert!(ok.problems.is_empty(), "{:?}", ok.problems);

        let mut bad = Report::default();
        check_pin(&mut bad, DEFAULT_SEED, 8, 0.5, PIN);
        check_pin(&mut bad, DEFAULT_SEED, 7, 0.25, PIN);
        check_pin(&mut bad, DEFAULT_SEED + 1, 7, 0.5, PIN);
        assert_eq!(bad.problems.len(), 3);
    }

    #[test]
    fn detections_must_be_sorted_and_in_range() {
        assert!(detection_is_valid(&Detection::new(vec![0, 3]), 4));
        assert!(!detection_is_valid(&Detection::new(vec![3, 0]), 4));
        assert!(!detection_is_valid(&Detection::new(vec![4]), 4));
    }
}
