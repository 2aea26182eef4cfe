//! Substrate benchmarks: Markov-chain operations (including the
//! prefix-sum successor draw every fleet lane makes per slot) and the
//! trace pipeline's geometric hot loops.

use chaff_bench::fixture_chain;
use chaff_markov::models::ModelKind;
use chaff_markov::{mixing, stationary, CellId, MarkovChain, StateDistribution, TransitionMatrix};
use chaff_mobility::geo::BoundingBox;
use chaff_mobility::towers;
use chaff_mobility::voronoi::CellMap;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Duration;

fn bench_stationary_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("stationary_solver");
    for cells in [10usize, 50, 200] {
        let chain = fixture_chain(ModelKind::NonSkewed, cells, 31);
        group.bench_with_input(
            BenchmarkId::new("power_iteration", cells),
            &cells,
            |b, _| b.iter(|| stationary::stationary(black_box(chain.matrix())).unwrap()),
        );
        if cells <= 50 {
            group.bench_with_input(BenchmarkId::new("direct_solve", cells), &cells, |b, _| {
                b.iter(|| stationary::direct_solve(black_box(chain.matrix())).unwrap())
            });
        }
    }
    group.finish();
}

fn bench_mixing_time(c: &mut Criterion) {
    let chain = fixture_chain(ModelKind::NonSkewed, 10, 32);
    c.bench_function("mixing_time_eps_1e-2", |b| {
        b.iter(|| {
            mixing::mixing_time(black_box(chain.matrix()), chain.initial(), 0.01, 10_000).unwrap()
        })
    });
}

fn bench_trajectory_sampling(c: &mut Criterion) {
    let chain = fixture_chain(ModelKind::SpatioTemporallySkewed, 10, 33);
    c.bench_function("sample_trajectory_t100", |b| {
        let mut rng = StdRng::seed_from_u64(34);
        b.iter(|| chain.sample_trajectory(black_box(100), &mut rng))
    });
}

/// Chained `MarkovChain::step` draws per benchmark iteration: enough
/// that one iteration is microseconds, far above timer resolution.
const STEPS_PER_ITER: usize = 1_000;

/// A sparse chain shaped like the trace pipeline's empirical models:
/// `cells` cells with `degree` random successors per row (a self-loop
/// among them) and a uniform initial distribution.
fn sparse_chain(cells: usize, degree: usize, seed: u64) -> MarkovChain {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = (0..cells)
        .map(|i| {
            let mut row = vec![0.0; cells];
            row[i] = rng.random::<f64>() + 0.1;
            for _ in 1..degree {
                row[rng.random_range(0..cells)] += rng.random::<f64>() + 0.1;
            }
            row
        })
        .collect();
    let matrix = TransitionMatrix::from_weights(rows).expect("positive rows");
    MarkovChain::with_initial(
        matrix,
        StateDistribution::uniform(cells).expect("cells > 0"),
    )
    .expect("matching dimensions")
}

/// The lane pass's inner draw: `STEPS_PER_ITER` chained
/// `MarkovChain::step` calls on the dense 10-cell fixture and on a
/// sparse ~1,000-cell chain.
fn bench_markov_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("markov_step");
    let fixtures = [
        ("nonskewed", 10, fixture_chain(ModelKind::NonSkewed, 10, 37)),
        ("sparse", 1_000, sparse_chain(1_000, 9, 38)),
    ];
    for (name, cells, chain) in &fixtures {
        group.bench_with_input(BenchmarkId::new(*name, cells), cells, |b, _| {
            let mut rng = StdRng::seed_from_u64(39);
            let mut current = CellId::new(0);
            b.iter(|| {
                for _ in 0..STEPS_PER_ITER {
                    current = black_box(chain).step(current, &mut rng);
                }
                current
            })
        });
    }
    group.finish();
}

fn bench_voronoi_nearest(c: &mut Criterion) {
    let sf = BoundingBox::san_francisco();
    let mut rng = StdRng::seed_from_u64(35);
    let layout = towers::clustered_layout(959, 8, 2_000.0, 0.35, &sf, &mut rng).unwrap();
    let map = CellMap::new(layout).unwrap();
    let queries: Vec<_> = (0..1_000).map(|_| sf.sample(&mut rng)).collect();
    let mut group = c.benchmark_group("voronoi_nearest_1k_queries");
    group.bench_function("grid_index", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(map.nearest(q));
            }
        })
    });
    group.bench_function("brute_force", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(map.nearest_brute(q));
            }
        })
    });
    group.finish();
}

fn bench_product_chain(c: &mut Criterion) {
    let chain = fixture_chain(ModelKind::NonSkewed, 10, 36);
    c.bench_function("cml_product_chain_build", |b| {
        b.iter(|| chaff_core::theory::CmlProductChain::build(black_box(&chain)).unwrap())
    });
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500))
}

criterion_group! {
    name = substrates;
    config = configured();
    targets =
        bench_stationary_solvers,
        bench_mixing_time,
        bench_trajectory_sampling,
        bench_markov_step,
        bench_voronoi_nearest,
        bench_product_chain,
}
criterion_main!(substrates);
