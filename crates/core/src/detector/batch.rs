//! The fleet-scale detection entry: one slot-row loop behind every
//! batch request.
//!
//! [`MlDetector::detect_prefixes`](super::MlDetector::detect_prefixes)
//! walks the transition matrix per trajectory (one `ln` per step) and
//! re-scans all `N` cumulative scores per slot through `argmax_set` —
//! fine for the paper's `N ≤ 50` populations, prohibitive for fleets.
//! [`BatchPrefixDetector::detect_prefixes`] produces *identical*
//! detections from one [`DetectInput`] in three steps:
//!
//! 1. **Model.** The [`DetectModel`] resolves once into borrowed
//!    per-epoch class tables plus an [`EpochSchedule`]. A chain, a table,
//!    a table set and a registry are stationary (one epoch); a
//!    [`DetectModel::Schedule`] brings the registry's own schedule, so a
//!    one-epoch schedule *is* the stationary case. Only a chain builds a
//!    [`LogLikelihoodTable`]; every other model is borrowed, never cloned.
//! 2. **Observations.** The [`DetectObservations`] become one
//!    [`SlotRowSource`]: trajectories are shape-checked and transposed
//!    once into a [`CellGrid`], grids are lent row by row through
//!    [`GridRowSource`], and paged sources are used as they are.
//! 3. **Drive.** Every block of rows the source lends is pushed through
//!    a [`StreamingPrefixDetector`] — the per-slot kernels of
//!    [`kernel`](super::kernel) on the process-wide worker
//!    [`pool`](crate::pool) — and the source is held to its declared
//!    horizon. In-memory observations go in as one block, so each shard
//!    runs the whole horizon in one pool job; a paged source lends row
//!    by row.
//!
//! Batch detection is therefore streamed detection *by construction*:
//! the same accumulator updates in the same order, the same two-pass
//! argmax, the same cross-shard merge. State is `O(N · classes)`
//! whatever the horizon; the `N × T` score matrix never exists.
//!
//! Determinism: each trajectory's score is accumulated in slot order by
//! exactly one shard, maxima merge with exact comparisons, and tie sets
//! are emitted in increasing index order — so results are bit-for-bit
//! independent of the shard count and equal to the per-trajectory path.

use super::input::{DetectInput, DetectModel, DetectObservations, GridRowSource, SlotRowSource};
use super::{Detection, StreamingPrefixDetector};
use crate::Result;
use chaff_markov::{CellGrid, EpochSchedule, LogLikelihoodTable, MarkovChain, Trajectory};

/// Largest supported population: candidate trackers store service
/// indices as `u32` (half the footprint of `usize` at fleet scale), so
/// populations beyond this are rejected with
/// [`CoreError::PopulationTooLarge`](crate::CoreError::PopulationTooLarge)
/// instead of silently truncating indices.
pub const MAX_POPULATION: usize = u32::MAX as usize;

/// Rejects populations whose service indices would not fit `u32`.
pub(super) fn ensure_population_fits(population: usize) -> Result<()> {
    if population > MAX_POPULATION {
        return Err(crate::CoreError::PopulationTooLarge {
            population,
            max: MAX_POPULATION,
        });
    }
    Ok(())
}

/// The global service index `lo + j` as `u32` — exact because every
/// entry path checks the population against [`MAX_POPULATION`] first
/// (so `lo + j < n <= u32::MAX` and the cast can never truncate).
#[inline(always)]
pub(super) fn service_index(lo: usize, j: usize) -> u32 {
    debug_assert!(lo + j <= MAX_POPULATION);
    (lo + j) as u32
}

/// Batched maximum-likelihood prefix detector for fleet-scale populations.
///
/// Semantically equivalent to [`MlDetector`](super::MlDetector) (eq. 1,
/// evaluated per prefix); see the [module docs](self) for the row loop.
/// Construct with [`new`](BatchPrefixDetector::new) to size shards
/// from the machine, or [`with_shards`](BatchPrefixDetector::with_shards)
/// to pin the shard count (results do not depend on it).
///
/// # Example
///
/// ```
/// use chaff_core::detector::{BatchPrefixDetector, DetectInput, MlDetector};
/// use chaff_markov::{models::ModelKind, MarkovChain};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = StdRng::seed_from_u64(5);
/// let chain = MarkovChain::new(ModelKind::NonSkewed.build(10, &mut rng)?)?;
/// let observed: Vec<_> = (0..64).map(|_| chain.sample_trajectory(30, &mut rng)).collect();
/// let batch = BatchPrefixDetector::new().detect_prefixes(DetectInput::new(&chain, &observed))?;
/// let single = MlDetector.detect_prefixes(&chain, &observed)?;
/// assert_eq!(batch, single);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchPrefixDetector {
    /// Requested shard count; `None` sizes from available parallelism.
    shards: Option<usize>,
}

impl BatchPrefixDetector {
    /// Creates a detector that sizes its shard count from
    /// `std::thread::available_parallelism`.
    pub fn new() -> Self {
        BatchPrefixDetector { shards: None }
    }

    /// Creates a detector with a fixed shard count (clamped to at least
    /// one). Detections are identical for every shard count; this only
    /// controls parallelism.
    pub fn with_shards(shards: usize) -> Self {
        BatchPrefixDetector {
            shards: Some(shards.max(1)),
        }
    }

    /// The shard count used for a population of `n` trajectories.
    fn effective_shards(&self, n: usize) -> usize {
        let requested = self.shards.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        requested.clamp(1, n.max(1))
    }

    /// Detects over full trajectories (the final-slot decision): the last
    /// [`Detection`] of the one slot-row loop that
    /// [`detect_prefixes`](Self::detect_prefixes) runs.
    ///
    /// # Errors
    ///
    /// Same validation errors as [`MlDetector::detect`](super::MlDetector::detect).
    pub fn detect(&self, chain: &MarkovChain, observed: &[Trajectory]) -> Result<Detection> {
        let mut detections = self.detect_prefixes(DetectInput::new(chain, observed))?;
        Ok(detections
            .pop()
            .expect("a validated horizon has at least one slot"))
    }

    /// Detects once per slot using observation prefixes — the unified
    /// entry point over every *(model, observations)* pairing (see
    /// [`DetectInput`]). Produces exactly the `Detection` sequence of
    /// [`MlDetector::detect_prefixes`](super::MlDetector::detect_prefixes)
    /// for every combination: each request runs the one slot-row loop
    /// described in the [module docs](self).
    ///
    /// ```
    /// use chaff_core::detector::{BatchPrefixDetector, DetectInput, MlDetector};
    /// use chaff_markov::{models::ModelKind, MarkovChain};
    /// use rand::{rngs::StdRng, SeedableRng};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut rng = StdRng::seed_from_u64(5);
    /// let chain = MarkovChain::new(ModelKind::NonSkewed.build(10, &mut rng)?)?;
    /// let observed: Vec<_> = (0..64).map(|_| chain.sample_trajectory(30, &mut rng)).collect();
    /// let batch = BatchPrefixDetector::new().detect_prefixes(DetectInput::new(&chain, &observed))?;
    /// let single = MlDetector.detect_prefixes(&chain, &observed)?;
    /// assert_eq!(batch, single);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// The observation-shape errors of
    /// [`MlDetector::detect`](super::MlDetector::detect), plus
    /// [`MarkovError::Empty`](chaff_markov::MarkovError::Empty) /
    /// [`MarkovError::DimensionMismatch`](chaff_markov::MarkovError::DimensionMismatch)
    /// for empty or inconsistent multi-class table sets,
    /// [`CoreError::PopulationTooLarge`](crate::CoreError::PopulationTooLarge)
    /// past [`MAX_POPULATION`], and
    /// [`CoreError::RowSource`](crate::CoreError::RowSource) when a paged
    /// source fails or disagrees with its declared horizon. Trajectory
    /// shapes are checked before the model, so a request with both an
    /// empty table set and no trajectories reports the trajectories.
    pub fn detect_prefixes(&self, input: DetectInput<'_>) -> Result<Vec<Detection>> {
        let DetectInput {
            model,
            observations,
        } = input;
        // Model: borrowed per-epoch class tables plus the slot -> epoch
        // map. Only the `Chain` arm builds a table.
        let built;
        let (epoch_tables, schedule): (Vec<Vec<&LogLikelihoodTable>>, EpochSchedule) = match model {
            DetectModel::Chain(chain) => {
                built = chain.log_likelihood_table();
                (vec![vec![&built]], EpochSchedule::stationary())
            }
            DetectModel::Table(table) => (vec![vec![table]], EpochSchedule::stationary()),
            DetectModel::Tables(tables) => (vec![tables.to_vec()], EpochSchedule::stationary()),
            DetectModel::Registry(registry) => {
                (vec![registry.tables()], EpochSchedule::stationary())
            }
            DetectModel::Schedule(registry) => (
                (0..registry.num_epochs())
                    .map(|epoch| registry.tables_at(epoch))
                    .collect(),
                registry.schedule().clone(),
            ),
        };
        // Observations: one slot-row source for every representation.
        let transposed;
        let mut grid_rows;
        let source: &mut dyn SlotRowSource = match observations {
            DetectObservations::Trajectories(observed) => {
                validate_shape(observed)?;
                transposed = CellGrid::from_trajectories(observed)?;
                grid_rows = GridRowSource::new(&transposed);
                &mut grid_rows
            }
            DetectObservations::Columnar(grid) => {
                grid_rows = GridRowSource::new(grid);
                &mut grid_rows
            }
            DetectObservations::Paged(source) => source,
        };
        self.drive(epoch_tables, schedule, source)
    }

    /// The one row-drive loop: pushes every block of rows `source` lends
    /// through a [`StreamingPrefixDetector`] over the borrowed tables and
    /// holds the source to its declared horizon.
    fn drive(
        &self,
        epoch_tables: Vec<Vec<&LogLikelihoodTable>>,
        schedule: EpochSchedule,
        source: &mut dyn SlotRowSource,
    ) -> Result<Vec<Detection>> {
        let n = source.num_trajectories();
        let horizon = source.horizon();
        // The constructor checks the tables, then the population.
        let mut online = StreamingPrefixDetector::with_schedule(
            epoch_tables,
            schedule,
            n,
            self.effective_shards(n),
        )?;
        if horizon == 0 {
            return Err(crate::CoreError::EmptyTrajectory);
        }
        let mut out = Vec::with_capacity(horizon);
        while let Some(rows) = source.next_rows()? {
            if rows.len() / n > horizon - out.len() {
                return Err(crate::CoreError::RowSource {
                    slot: horizon,
                    reason: format!("source ran past its declared horizon of {horizon} slots"),
                });
            }
            out.extend(online.push_slots(rows)?);
        }
        if out.len() != horizon {
            return Err(crate::CoreError::RowSource {
                slot: out.len(),
                reason: format!(
                    "source ended after {} of {horizon} declared slot rows",
                    out.len()
                ),
            });
        }
        Ok(out)
    }
}

/// Validates the shape of an observation set (non-empty, equal lengths)
/// without touching cell contents; the row loop range-checks cells as it
/// pushes each row.
fn validate_shape(observed: &[Trajectory]) -> Result<()> {
    if observed.is_empty() {
        return Err(crate::CoreError::NoTrajectories);
    }
    ensure_population_fits(observed.len())?;
    let horizon = observed[0].len();
    if horizon == 0 {
        return Err(crate::CoreError::EmptyTrajectory);
    }
    for x in observed {
        if x.len() != horizon {
            return Err(crate::CoreError::LengthMismatch {
                expected: horizon,
                found: x.len(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::MlDetector;
    use crate::CoreError;
    use chaff_markov::models::ModelKind;
    use chaff_markov::MobilityRegistry;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fleet(seed: u64, n: usize, horizon: usize) -> (MarkovChain, Vec<Trajectory>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let chain = MarkovChain::new(ModelKind::NonSkewed.build(10, &mut rng).unwrap()).unwrap();
        let observed = (0..n)
            .map(|_| chain.sample_trajectory(horizon, &mut rng))
            .collect();
        (chain, observed)
    }

    #[test]
    fn matches_single_trajectory_path_bit_for_bit() {
        let (chain, observed) = fleet(41, 137, 23);
        let single = MlDetector.detect_prefixes(&chain, &observed).unwrap();
        for shards in [1, 2, 3, 8, 137, 500] {
            let batch = BatchPrefixDetector::with_shards(shards)
                .detect_prefixes(DetectInput::new(&chain, &observed))
                .unwrap();
            assert_eq!(batch, single, "shards = {shards}");
        }
    }

    #[test]
    fn full_detection_matches_ml_detector() {
        let (chain, observed) = fleet(42, 64, 31);
        let batch = BatchPrefixDetector::with_shards(4)
            .detect(&chain, &observed)
            .unwrap();
        let single = MlDetector.detect(&chain, &observed).unwrap();
        assert_eq!(batch, single);
    }

    #[test]
    fn identical_trajectories_tie_across_shard_boundaries() {
        let (chain, mut observed) = fleet(46, 6, 8);
        // Force cross-shard ties: everyone walks the same path.
        let x = observed[0].clone();
        for slot in observed.iter_mut() {
            *slot = x.clone();
        }
        let detections = BatchPrefixDetector::with_shards(3)
            .detect_prefixes(DetectInput::new(&chain, &observed))
            .unwrap();
        for d in &detections {
            assert_eq!(d.tie_set(), &[0, 1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn rejects_what_the_single_path_rejects() {
        let (chain, _) = fleet(47, 2, 4);
        let d = BatchPrefixDetector::new();
        let none: &[Trajectory] = &[];
        assert!(matches!(
            d.detect_prefixes(DetectInput::new(&chain, none)),
            Err(CoreError::NoTrajectories)
        ));
        assert!(matches!(
            d.detect_prefixes(DetectInput::new(&chain, &[Trajectory::new()])),
            Err(CoreError::EmptyTrajectory)
        ));
        let ragged = vec![
            Trajectory::from_indices([0, 1]),
            Trajectory::from_indices([0]),
        ];
        assert!(matches!(
            d.detect_prefixes(DetectInput::new(&chain, &ragged)),
            Err(CoreError::LengthMismatch { .. })
        ));
        let out = vec![Trajectory::from_indices([999])];
        assert!(matches!(
            d.detect(&chain, &out),
            Err(CoreError::CellOutOfRange { .. })
        ));
        assert!(matches!(
            d.detect_prefixes(DetectInput::new(&chain, &out)),
            Err(CoreError::CellOutOfRange {
                cell: 999,
                states: 10
            })
        ));
    }

    fn two_class_tables(seed: u64) -> (MarkovChain, MarkovChain) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = MarkovChain::new(ModelKind::NonSkewed.build(10, &mut rng).unwrap()).unwrap();
        let b = MarkovChain::new(ModelKind::SpatiallySkewed.build(10, &mut rng).unwrap()).unwrap();
        (a, b)
    }

    #[test]
    fn mixture_with_one_table_matches_single_table_path_bit_for_bit() {
        let (chain, observed) = fleet(48, 53, 17);
        let table = chain.log_likelihood_table();
        let d = BatchPrefixDetector::with_shards(4);
        let single = d
            .detect_prefixes(DetectInput::new(&table, &observed))
            .unwrap();
        let multi = d
            .detect_prefixes(DetectInput::new(&[&table], &observed))
            .unwrap();
        assert_eq!(single, multi);
    }

    #[test]
    fn mixture_matches_naive_max_over_class_reference() {
        let (a, b) = two_class_tables(49);
        let mut rng = StdRng::seed_from_u64(50);
        let mut observed: Vec<Trajectory> =
            (0..21).map(|_| a.sample_trajectory(15, &mut rng)).collect();
        observed.extend((0..20).map(|_| b.sample_trajectory(15, &mut rng)));
        let (ta, tb) = (a.log_likelihood_table(), b.log_likelihood_table());
        let detections = BatchPrefixDetector::with_shards(3)
            .detect_prefixes(DetectInput::new(&[&ta, &tb], &observed))
            .unwrap();
        // Reference: per-trajectory prefix scores under each class, max
        // per slot, then the shared argmax-set semantics.
        let horizon = observed[0].len();
        for (t, detection) in detections.iter().enumerate().take(horizon) {
            let scores: Vec<f64> = observed
                .iter()
                .map(|x| a.prefix_log_likelihoods(x)[t].max(b.prefix_log_likelihoods(x)[t]))
                .collect();
            let expected = crate::detector::argmax_set(&scores, None);
            assert_eq!(detection.tie_set(), &expected[..], "slot {t}");
        }
    }

    #[test]
    fn mixture_is_independent_of_shard_count() {
        let (a, b) = two_class_tables(51);
        let mut rng = StdRng::seed_from_u64(52);
        let observed: Vec<Trajectory> = (0..37)
            .map(|i| {
                if i % 2 == 0 {
                    a.sample_trajectory(12, &mut rng)
                } else {
                    b.sample_trajectory(12, &mut rng)
                }
            })
            .collect();
        let (ta, tb) = (a.log_likelihood_table(), b.log_likelihood_table());
        let reference = BatchPrefixDetector::with_shards(1)
            .detect_prefixes(DetectInput::new(&[&ta, &tb], &observed))
            .unwrap();
        for shards in [2, 5, 37, 100] {
            let detections = BatchPrefixDetector::with_shards(shards)
                .detect_prefixes(DetectInput::new(&[&ta, &tb], &observed))
                .unwrap();
            assert_eq!(detections, reference, "shards = {shards}");
        }
    }

    /// Runs `model` over the trajectory, columnar and paged forms of one
    /// observation set (`grid` is `observed` transposed).
    fn every_form(
        d: BatchPrefixDetector,
        model: DetectModel<'_>,
        observed: &[Trajectory],
        grid: &CellGrid,
    ) -> [Result<Vec<Detection>>; 3] {
        [
            d.detect_prefixes(DetectInput::new(model, observed)),
            d.detect_prefixes(DetectInput::new(model, grid)),
            d.detect_prefixes(DetectInput::new(model, &mut GridRowSource::new(grid))),
        ]
    }

    #[test]
    fn mixture_rejects_empty_and_mismatched_tables() {
        let (chain, observed) = fleet(53, 4, 6);
        let grid = CellGrid::from_trajectories(&observed).unwrap();
        let d = BatchPrefixDetector::new();
        let no_tables: &[&LogLikelihoodTable] = &[];
        for result in every_form(d, DetectModel::Tables(no_tables), &observed, &grid) {
            assert!(matches!(
                result,
                Err(CoreError::Markov(chaff_markov::MarkovError::Empty))
            ));
        }
        let table = chain.log_likelihood_table();
        let mut rng = StdRng::seed_from_u64(54);
        let other = MarkovChain::new(ModelKind::NonSkewed.build(7, &mut rng).unwrap()).unwrap();
        let small = other.log_likelihood_table();
        let mismatched = [&table, &small];
        for result in every_form(d, DetectModel::Tables(&mismatched), &observed, &grid) {
            assert!(matches!(
                result,
                Err(CoreError::Markov(
                    chaff_markov::MarkovError::DimensionMismatch {
                        expected: 10,
                        found: 7
                    }
                ))
            ));
        }
        // Shape errors match the single-table path.
        let pair = [&table, &table];
        for result in every_form(d, DetectModel::Tables(&pair), &[], &CellGrid::new(0)) {
            assert!(matches!(result, Err(CoreError::NoTrajectories)));
        }
    }

    #[test]
    fn populations_beyond_u32_are_rejected_not_truncated() {
        // The cap itself cannot be exercised with a real allocation
        // (2^32 trajectories), so the guard is tested directly: it is
        // the only gate in front of every `as u32` index narrowing.
        assert!(ensure_population_fits(MAX_POPULATION).is_ok());
        let err = ensure_population_fits(MAX_POPULATION + 1).unwrap_err();
        assert!(matches!(
            err,
            CoreError::PopulationTooLarge { population, max }
                if population == MAX_POPULATION + 1 && max == MAX_POPULATION
        ));
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn columnar_detection_matches_trajectory_path_bit_for_bit() {
        let (chain, observed) = fleet(55, 137, 23);
        let grid = CellGrid::from_trajectories(&observed).unwrap();
        let table = chain.log_likelihood_table();
        let reference = MlDetector.detect_prefixes(&chain, &observed).unwrap();
        for shards in [1, 2, 3, 8, 137, 500] {
            let d = BatchPrefixDetector::with_shards(shards);
            let columnar = d.detect_prefixes(DetectInput::new(&chain, &grid)).unwrap();
            assert_eq!(columnar, reference, "shards = {shards}");
            let with_table = d.detect_prefixes(DetectInput::new(&table, &grid)).unwrap();
            assert_eq!(with_table, reference, "shards = {shards} (table)");
        }
    }

    #[test]
    fn paged_detection_matches_columnar_bit_for_bit() {
        use crate::detector::input::GridRowSource;
        let (chain, observed) = fleet(59, 97, 19);
        let grid = CellGrid::from_trajectories(&observed).unwrap();
        let reference = BatchPrefixDetector::with_shards(1)
            .detect_prefixes(DetectInput::new(&chain, &grid))
            .unwrap();
        for shards in [1, 2, 7, 97] {
            let mut source = GridRowSource::new(&grid);
            let paged = BatchPrefixDetector::with_shards(shards)
                .detect_prefixes(DetectInput::new(&chain, &mut source))
                .unwrap();
            assert_eq!(paged, reference, "shards = {shards}");
        }
        // Registry models route through the same paged path.
        let registry = chaff_markov::MobilityRegistry::single(chain.clone());
        let mut source = GridRowSource::new(&grid);
        let via_registry = BatchPrefixDetector::with_shards(3)
            .detect_prefixes(DetectInput::new(&registry, &mut source))
            .unwrap();
        assert_eq!(via_registry, reference);
    }

    #[test]
    fn paged_sources_that_break_their_contract_are_typed_errors() {
        struct LyingSource {
            rows: Vec<Vec<chaff_markov::CellId>>,
            claimed_horizon: usize,
            next: usize,
        }
        impl SlotRowSource for LyingSource {
            fn num_trajectories(&self) -> usize {
                self.rows.first().map_or(0, Vec::len)
            }
            fn horizon(&self) -> usize {
                self.claimed_horizon
            }
            fn next_row(&mut self) -> crate::Result<Option<&[chaff_markov::CellId]>> {
                if self.next >= self.rows.len() {
                    return Ok(None);
                }
                let row = &self.rows[self.next];
                self.next += 1;
                Ok(Some(row))
            }
        }
        let (chain, observed) = fleet(60, 8, 5);
        let grid = CellGrid::from_trajectories(&observed).unwrap();
        let rows: Vec<Vec<chaff_markov::CellId>> = (0..5).map(|t| grid.row(t).to_vec()).collect();
        let d = BatchPrefixDetector::with_shards(2);
        // Fewer rows than declared.
        let mut short = LyingSource {
            rows: rows[..3].to_vec(),
            claimed_horizon: 5,
            next: 0,
        };
        assert!(matches!(
            d.detect_prefixes(DetectInput::new(&chain, &mut short)),
            Err(CoreError::RowSource { slot: 3, .. })
        ));
        // More rows than declared.
        let mut long = LyingSource {
            rows: rows.clone(),
            claimed_horizon: 3,
            next: 0,
        };
        assert!(matches!(
            d.detect_prefixes(DetectInput::new(&chain, &mut long)),
            Err(CoreError::RowSource { slot: 3, .. })
        ));
        // Degenerate declared shapes use the usual shape errors.
        let mut empty = LyingSource {
            rows: Vec::new(),
            claimed_horizon: 5,
            next: 0,
        };
        assert!(matches!(
            d.detect_prefixes(DetectInput::new(&chain, &mut empty)),
            Err(CoreError::NoTrajectories)
        ));
        let mut no_slots = LyingSource {
            rows: rows[..1].to_vec(),
            claimed_horizon: 0,
            next: 0,
        };
        assert!(matches!(
            d.detect_prefixes(DetectInput::new(&chain, &mut no_slots)),
            Err(CoreError::EmptyTrajectory)
        ));
    }

    #[test]
    fn columnar_mixture_matches_trajectory_mixture_bit_for_bit() {
        let (a, b) = two_class_tables(56);
        let mut rng = StdRng::seed_from_u64(57);
        let mut observed: Vec<Trajectory> =
            (0..23).map(|_| a.sample_trajectory(15, &mut rng)).collect();
        observed.extend((0..18).map(|_| b.sample_trajectory(15, &mut rng)));
        let grid = CellGrid::from_trajectories(&observed).unwrap();
        let (ta, tb) = (a.log_likelihood_table(), b.log_likelihood_table());
        let reference = BatchPrefixDetector::with_shards(1)
            .detect_prefixes(DetectInput::new(&[&ta, &tb], &observed))
            .unwrap();
        for shards in [1, 2, 7, 41] {
            let columnar = BatchPrefixDetector::with_shards(shards)
                .detect_prefixes(DetectInput::new(&[&ta, &tb], &grid))
                .unwrap();
            assert_eq!(columnar, reference, "shards = {shards}");
        }
        // The single-class dispatch is the single-table path.
        let single = BatchPrefixDetector::with_shards(3)
            .detect_prefixes(DetectInput::new(&[&ta], &grid))
            .unwrap();
        assert_eq!(
            single,
            BatchPrefixDetector::with_shards(3)
                .detect_prefixes(DetectInput::new(&ta, &grid))
                .unwrap()
        );
    }

    #[test]
    fn columnar_rejects_what_the_trajectory_path_rejects() {
        let (chain, observed) = fleet(58, 4, 6);
        let d = BatchPrefixDetector::new();
        let empty = CellGrid::new(0);
        assert!(matches!(
            d.detect_prefixes(DetectInput::new(&chain, &empty)),
            Err(CoreError::NoTrajectories)
        ));
        let no_slots = CellGrid::new(3);
        assert!(matches!(
            d.detect_prefixes(DetectInput::new(&chain, &no_slots)),
            Err(CoreError::EmptyTrajectory)
        ));
        let out = CellGrid::from_trajectories(&[Trajectory::from_indices([999, 1])]).unwrap();
        assert!(matches!(
            d.detect_prefixes(DetectInput::new(&chain, &out)),
            Err(CoreError::CellOutOfRange { .. })
        ));
        let grid = CellGrid::from_trajectories(&observed).unwrap();
        let no_tables: &[&LogLikelihoodTable] = &[];
        assert!(matches!(
            d.detect_prefixes(DetectInput::new(no_tables, &grid)),
            Err(CoreError::Markov(chaff_markov::MarkovError::Empty))
        ));
    }

    #[test]
    fn impossible_trajectories_stay_neg_infinity() {
        let m = chaff_markov::TransitionMatrix::from_rows(vec![vec![0.0, 1.0], vec![0.5, 0.5]])
            .unwrap();
        let chain = MarkovChain::new(m).unwrap();
        let impossible = Trajectory::from_indices([0, 0]); // P(0->0) = 0
        let possible = Trajectory::from_indices([0, 1]);
        let detections = BatchPrefixDetector::with_shards(2)
            .detect_prefixes(DetectInput::new(&chain, &[impossible, possible]))
            .unwrap();
        assert_eq!(detections[1].tie_set(), &[1]);
    }

    /// Every `(model, observations)` pairing a retired legacy entry
    /// point used to own must stay bit-for-bit equal to the canonical
    /// chain-over-trajectories request through the unified entry.
    #[test]
    fn every_detect_input_pairing_matches_the_unified_entry() {
        let (chain, observed) = fleet(70, 31, 9);
        let grid = CellGrid::from_trajectories(&observed).unwrap();
        let table = chain.log_likelihood_table();
        let d = BatchPrefixDetector::with_shards(3);
        let unified = d
            .detect_prefixes(DetectInput::new(&chain, &observed))
            .unwrap();
        assert_eq!(
            d.detect_prefixes(DetectInput::new(&table, &observed))
                .unwrap(),
            unified
        );
        assert_eq!(
            d.detect_prefixes(DetectInput::new(&[&table], &observed))
                .unwrap(),
            unified
        );
        assert_eq!(
            d.detect_prefixes(DetectInput::new(&chain, &grid)).unwrap(),
            unified
        );
        assert_eq!(
            d.detect_prefixes(DetectInput::new(&table, &grid)).unwrap(),
            unified
        );
        assert_eq!(
            d.detect_prefixes(DetectInput::new(&[&table], &grid))
                .unwrap(),
            unified
        );
    }

    #[test]
    fn schedule_model_reduces_to_registry_when_stationary() {
        // A one-epoch `Schedule` must be bit-for-bit the `Registry` view
        // for every observation representation — the batch-entry face of
        // the reduction-to-stationary guarantee.
        let (chain, observed) = fleet(74, 27, 11);
        let mut rng = StdRng::seed_from_u64(75);
        let other = MarkovChain::new(
            chaff_markov::models::ModelKind::SpatiallySkewed
                .build(10, &mut rng)
                .unwrap(),
        )
        .unwrap();
        let registry = MobilityRegistry::new(vec![chain, other]).unwrap();
        let grid = CellGrid::from_trajectories(&observed).unwrap();
        let d = BatchPrefixDetector::with_shards(3);
        let stationary = d
            .detect_prefixes(DetectInput::new(&registry, &grid))
            .unwrap();
        assert_eq!(
            d.detect_prefixes(DetectInput::new(
                DetectModel::Schedule(&registry),
                &observed
            ))
            .unwrap(),
            stationary
        );
        assert_eq!(
            d.detect_prefixes(DetectInput::new(DetectModel::Schedule(&registry), &grid))
                .unwrap(),
            stationary
        );
        let mut source = GridRowSource::new(&grid);
        assert_eq!(
            d.detect_prefixes(DetectInput::new(
                DetectModel::Schedule(&registry),
                &mut source
            ))
            .unwrap(),
            stationary
        );
    }

    #[test]
    fn schedule_model_scores_each_slot_under_its_epoch() {
        // A genuinely multi-epoch registry: the batch `Schedule` path
        // must match a hand-driven schedule-aware streaming detector for
        // every representation and shard count, and differ from the
        // stationary (epoch-0) view somewhere on the horizon.
        let (day, observed) = fleet(76, 33, 14);
        let mut rng = StdRng::seed_from_u64(77);
        let night = MarkovChain::new(
            chaff_markov::models::ModelKind::SpatiallySkewed
                .build(10, &mut rng)
                .unwrap(),
        )
        .unwrap();
        let schedule = chaff_markov::EpochSchedule::day_night(4, 3).unwrap();
        let registry = MobilityRegistry::with_epochs(
            vec![vec![day.clone()], vec![night.clone()]],
            schedule.clone(),
        )
        .unwrap();
        let grid = CellGrid::from_trajectories(&observed).unwrap();
        let mut online = StreamingPrefixDetector::with_schedule(
            vec![registry.tables_at(0), registry.tables_at(1)],
            schedule,
            grid.num_trajectories(),
            1,
        )
        .unwrap();
        let reference: Vec<Detection> = (0..grid.horizon())
            .map(|t| online.push_slot(grid.row(t)).unwrap())
            .collect();
        for shards in [1, 2, 7] {
            let d = BatchPrefixDetector::with_shards(shards);
            assert_eq!(
                d.detect_prefixes(DetectInput::new(
                    DetectModel::Schedule(&registry),
                    &observed
                ))
                .unwrap(),
                reference,
                "trajectories, shards {shards}"
            );
            assert_eq!(
                d.detect_prefixes(DetectInput::new(DetectModel::Schedule(&registry), &grid))
                    .unwrap(),
                reference,
                "columnar, shards {shards}"
            );
            let mut source = GridRowSource::new(&grid);
            assert_eq!(
                d.detect_prefixes(DetectInput::new(
                    DetectModel::Schedule(&registry),
                    &mut source
                ))
                .unwrap(),
                reference,
                "paged, shards {shards}"
            );
        }
        let stationary = BatchPrefixDetector::with_shards(2)
            .detect_prefixes(DetectInput::new(&registry, &grid))
            .unwrap();
        assert_ne!(
            stationary, reference,
            "the night epoch never changed a detection"
        );
    }
}
