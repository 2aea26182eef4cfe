//! Tactical patrol: protecting a highly predictable user.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example tactical_patrol
//! ```
//!
//! The paper's motivating tactical scenario (Sec. I): a unit patrols a
//! corridor of cells with a strong drift — the doubly-skewed model (d),
//! the *worst case* for location privacy because the movement is almost
//! deterministic. The example shows (i) how badly a patrol leaks location
//! through the MEC side channel, (ii) how much each chaff strategy
//! recovers, and (iii) what the chaff defense costs in MEC resources.

use mec_location_privacy::core::detector::MlDetector;
use mec_location_privacy::core::metrics::{time_average, tracking_accuracy_series};
use mec_location_privacy::core::strategy::StrategyKind;
use mec_location_privacy::markov::{models, MarkovChain};
use mec_location_privacy::sim::cost::CostModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

const HORIZON: usize = 100;
const RUNS: usize = 200;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 12-cell patrol corridor: move "forward" with probability 0.5,
    // "back" with 0.25, hold position otherwise; no wrap-around.
    let matrix = models::line_walk(12, 0.5, 0.25, 1e-5)?;
    let chain = MarkovChain::new(matrix)?;
    println!("patrol corridor: 12 cells, drift 2:1 towards the far end\n");

    println!(
        "{:<10} {:>10} {:>14} {:>16}",
        "strategy", "accuracy", "vs no chaff", "defense cost"
    );
    println!("{:-<10} {:->10} {:->14} {:->16}", "", "", "", "");

    // Baseline: no chaff at all — the eavesdropper wins every slot.
    println!("{:<10} {:>10.3} {:>14} {:>16}", "none", 1.0, "-", "0.0");

    for kind in [
        StrategyKind::Im,
        StrategyKind::Ml,
        StrategyKind::Mo,
        StrategyKind::Oo,
        StrategyKind::Rollout,
    ] {
        let strategy = kind.build();
        let costs = CostModel::default();
        let mut accuracy_total = 0.0;
        let mut cost_total = 0.0;
        for run in 0..RUNS {
            let mut rng = StdRng::seed_from_u64(7_000 + run as u64);
            // Planned mode: the service follows the patrol's whole route,
            // sampled up front because the offline strategies (ML, OO)
            // plan the chaff from all of it; costs are metered on the
            // chaff's trajectory.
            let service_cells = chain.sample_trajectory(HORIZON, &mut rng);
            let mut observed = strategy.generate(&chain, &service_cells, 1, &mut rng)?;
            cost_total += observed
                .iter()
                .map(|chaff| costs.service_cost(chaff.as_slice()))
                .sum::<f64>();
            observed.insert(0, service_cells);
            let detections = MlDetector.detect_prefixes(&chain, &observed)?;
            accuracy_total += time_average(&tracking_accuracy_series(&observed, 0, &detections));
        }
        let accuracy = accuracy_total / RUNS as f64;
        let cost = cost_total / RUNS as f64;
        println!(
            "{:<10} {:>10.3} {:>13.0}% {:>16.1}",
            kind.to_string(),
            accuracy,
            100.0 * (1.0 - accuracy),
            cost
        );
    }

    println!(
        "\nEven for this nearly deterministic patrol, the OO/MO chaffs cut\n\
         tracking drastically — the paper's headline result — while one\n\
         chaff costs roughly one service's worth of MEC resources."
    );
    Ok(())
}
