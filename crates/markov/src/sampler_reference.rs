//! Reference tests for the prefix-sum samplers.
//!
//! [`MarkovChain::step`] and [`StateDistribution::sample`] binary-search
//! stored running sums. The functions below are the linear inverse-CDF
//! scans they replaced, kept verbatim as the oracle: for every `u` the
//! binary search must return the cell the scan returns, which is what
//! keeps every seeded fleet, golden checksum and benchmark pin
//! bit-for-bit.

use crate::{CellId, MarkovChain, StateDistribution, TransitionMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The linear scan `MarkovChain::step` used to run for a draw `u`.
fn scan_step(matrix: &TransitionMatrix, current: CellId, u: f64) -> CellId {
    let mut acc = 0.0;
    let mut last = current;
    for (cell, p) in matrix.successors(current) {
        acc += p;
        last = cell;
        if u < acc {
            return cell;
        }
    }
    // Floating-point slack: the last positive-probability successor.
    last
}

/// The linear scan `StateDistribution::sample` used to run for a draw
/// `u`.
fn scan_sample(dist: &StateDistribution, u: f64) -> CellId {
    let mut acc = 0.0;
    for (j, &p) in dist.as_slice().iter().enumerate() {
        acc += p;
        if u < acc {
            return CellId::new(j);
        }
    }
    // Floating-point slack: return the last cell with positive mass.
    let last = dist
        .as_slice()
        .iter()
        .rposition(|&p| p > 0.0)
        .expect("distribution has positive mass");
    CellId::new(last)
}

/// The largest `f64` below one: the top of `rng.random::<f64>()`'s range.
const JUST_BELOW_ONE: f64 = 1.0 - f64::EPSILON / 2.0;

/// Random non-negative weights over `n` cells; with `sparse`, about
/// half the cells (never all) are zero, zeros included between positive
/// entries.
fn random_weights(n: usize, sparse: bool, rng: &mut StdRng) -> Vec<f64> {
    let mut weights: Vec<f64> = (0..n)
        .map(|_| {
            if sparse && rng.random_bool(0.5) {
                0.0
            } else {
                rng.random::<f64>() + 1e-3
            }
        })
        .collect();
    if weights.iter().all(|&w| w == 0.0) {
        weights[rng.random_range(0..n)] = 1.0;
    }
    weights
}

/// Every `u` the tests probe for a row or distribution whose running
/// sums are `sums`: each stored sum exactly, its neighbours one ulp
/// away, `0.0`, the largest `u` below one and a spread of random draws.
fn probes(sums: &[f64], rng: &mut StdRng) -> Vec<f64> {
    let mut probes = vec![0.0, JUST_BELOW_ONE];
    for &sum in sums {
        probes.extend([sum, sum.next_down(), sum.next_up()]);
    }
    probes.extend((0..32).map(|_| rng.random::<f64>()));
    probes.retain(|u| (0.0..1.0).contains(u));
    probes
}

/// The running sums of a row's support, as the scan accumulates them.
fn row_sums(matrix: &TransitionMatrix, from: CellId) -> Vec<f64> {
    let mut acc = 0.0;
    matrix
        .successors(from)
        .map(|(_, p)| {
            acc += p;
            acc
        })
        .collect()
}

/// Asserts `successor_at`, `step` and the scan agree on every probe of
/// every row of `chain`.
fn check_chain(chain: &MarkovChain, rng: &mut StdRng, label: &str) {
    let matrix = chain.matrix();
    for i in 0..chain.num_states() {
        let from = CellId::new(i);
        for u in probes(&row_sums(matrix, from), rng) {
            assert_eq!(
                matrix.successor_at(from, u),
                Some(scan_step(matrix, from, u)),
                "{label}: row {i}, u = {u:e}"
            );
        }
        // `step` draws exactly one `u` and resolves it the same way.
        for _ in 0..8 {
            let mut draw = rng.clone();
            let u: f64 = draw.random();
            let mut stepped = rng.clone();
            assert_eq!(
                chain.step(from, &mut stepped),
                scan_step(matrix, from, u),
                "{label}: row {i}, drawn u = {u:e}"
            );
            assert_eq!(stepped.random::<u64>(), draw.random::<u64>());
            rng.random::<u64>();
        }
    }
}

/// Asserts `cell_at`, `sample` and the scan agree on every probe of
/// `dist`.
fn check_distribution(dist: &StateDistribution, rng: &mut StdRng, label: &str) {
    let mut acc = 0.0;
    let sums: Vec<f64> = dist
        .as_slice()
        .iter()
        .map(|&p| {
            acc += p;
            acc
        })
        .collect();
    for u in probes(&sums, rng) {
        assert_eq!(dist.cell_at(u), scan_sample(dist, u), "{label}: u = {u:e}");
    }
    for _ in 0..8 {
        let u: f64 = rng.clone().random();
        assert_eq!(dist.sample(rng), scan_sample(dist, u), "{label}: u = {u:e}");
    }
}

fn chain_of(rows: Vec<Vec<f64>>) -> MarkovChain {
    let n = rows.len();
    let matrix = TransitionMatrix::from_rows(rows).unwrap();
    MarkovChain::with_initial(matrix, StateDistribution::uniform(n).unwrap()).unwrap()
}

#[test]
fn dense_rows_match_the_linear_scan() {
    let mut rng = StdRng::seed_from_u64(0x5A_3B1E);
    for n in [1, 2, 3, 7, 10, 33] {
        let rows = (0..n).map(|_| random_weights(n, false, &mut rng)).collect();
        let matrix = TransitionMatrix::from_weights(rows).unwrap();
        let chain =
            MarkovChain::with_initial(matrix, StateDistribution::uniform(n).unwrap()).unwrap();
        check_chain(&chain, &mut rng, &format!("dense n = {n}"));
    }
}

#[test]
fn sparse_rows_with_inner_zeros_match_the_linear_scan() {
    let mut rng = StdRng::seed_from_u64(0x5A_3B1F);
    for n in [2, 5, 10, 64, 257] {
        let rows = (0..n).map(|_| random_weights(n, true, &mut rng)).collect();
        let matrix = TransitionMatrix::from_weights(rows).unwrap();
        assert!(matrix.nnz() < n * n, "n = {n}: the rows must be sparse");
        let chain =
            MarkovChain::with_initial(matrix, StateDistribution::uniform(n).unwrap()).unwrap();
        check_chain(&chain, &mut rng, &format!("sparse n = {n}"));
    }
}

#[test]
fn short_rows_take_the_slack_fallback_like_the_linear_scan() {
    // Rows summing to 1 − 5·10⁻⁷ pass the 10⁻⁶ tolerance; every `u` at
    // or above a row's sum runs the fallback to the last support cell.
    const SHORT: f64 = 1.0 - 5e-7;
    let rows = vec![
        vec![0.5 * SHORT, 0.0, 0.5 * SHORT, 0.0],
        vec![0.0, 0.0, 0.0, SHORT],
        vec![0.1 * SHORT, 0.2 * SHORT, 0.3 * SHORT, 0.4 * SHORT],
        vec![0.0, SHORT, 0.0, 0.0],
    ];
    let chain = chain_of(rows);
    let matrix = chain.matrix();
    let mut rng = StdRng::seed_from_u64(0x5A_3B20);
    for i in 0..4 {
        let from = CellId::new(i);
        let sums = row_sums(matrix, from);
        let top = *sums.last().unwrap();
        assert!(top < 1.0 - 4e-7, "row {i} sums to {top}");
        let last = *matrix.support(from).last().unwrap() as usize;
        for u in [top, top.next_up(), 0.5 * (top + 1.0), JUST_BELOW_ONE] {
            assert_eq!(matrix.successor_at(from, u), Some(CellId::new(last)));
            assert_eq!(scan_step(matrix, from, u), CellId::new(last));
        }
    }
    check_chain(&chain, &mut rng, "short rows");

    let short = StateDistribution::from_vec(vec![0.0, 0.25 * SHORT, 0.75 * SHORT, 0.0]).unwrap();
    for u in [SHORT, JUST_BELOW_ONE] {
        assert_eq!(short.cell_at(u), CellId::new(2));
        assert_eq!(scan_sample(&short, u), CellId::new(2));
    }
    check_distribution(&short, &mut rng, "short distribution");
}

#[test]
fn distributions_match_the_linear_scan() {
    let mut rng = StdRng::seed_from_u64(0x5A_3B21);
    for n in [1, 2, 3, 10, 100, 1066] {
        for sparse in [false, true] {
            let dist =
                StateDistribution::from_weights(random_weights(n, sparse, &mut rng)).unwrap();
            check_distribution(&dist, &mut rng, &format!("n = {n}, sparse = {sparse}"));
        }
    }
    // Leading and trailing zero masses: `u = 0` must skip the former
    // and the fallback must skip the latter.
    let edges = StateDistribution::from_vec(vec![0.0, 0.0, 0.5, 0.5, 0.0]).unwrap();
    assert_eq!(edges.cell_at(0.0), CellId::new(2));
    check_distribution(&edges, &mut rng, "zero edges");
    let point = StateDistribution::point_mass(6, CellId::new(4)).unwrap();
    check_distribution(&point, &mut rng, "point mass");
}

#[test]
fn chain_initial_draws_match_the_linear_scan() {
    let mut rng = StdRng::seed_from_u64(0x5A_3B22);
    let chain = MarkovChain::new(
        crate::models::ModelKind::NonSkewed
            .build(10, &mut rng)
            .unwrap(),
    )
    .unwrap();
    check_chain(&chain, &mut rng, "non-skewed");
    check_distribution(chain.initial(), &mut rng, "non-skewed initial");
}
