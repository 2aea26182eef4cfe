//! The unified detection input: one entry point over every model and
//! observation representation.
//!
//! [`DetectInput`] pairs the mobility knowledge ([`DetectModel`]: chain,
//! table, per-class tables, registry, or a registry with its epoch
//! schedule) with the observations ([`DetectObservations`]: trajectories,
//! a columnar grid, or a paged [`SlotRowSource`]), and
//! [`detect_prefixes`](super::BatchPrefixDetector::detect_prefixes) is
//! the one entry that takes it. There is no per-pairing execution plan:
//! every model becomes per-epoch class tables, every observation form
//! becomes a [`SlotRowSource`] (trajectories are transposed once, grids
//! are lent through [`GridRowSource`]), and one row-drive loop pushes the
//! rows through the online detector. Every combination therefore
//! produces bit-for-bit identical detections.
//!
//! The paged form is the fleet-store path: a [`SlotRowSource`] lends one
//! slot-major observed row at a time (e.g. `chaff_store::SlotStream`
//! paging rows off disk), and detection runs in `O(N)` state —
//! populations larger than RAM never materialize a grid.

use chaff_markov::{
    CellGrid, CellId, LogLikelihoodTable, MarkovChain, MobilityRegistry, Trajectory,
};

/// A lending iterator of slot-major observed rows — the abstraction that
/// lets detection consume observations it cannot (or should not) hold in
/// memory at once.
///
/// Contract: [`next_row`](Self::next_row) yields exactly
/// [`horizon`](Self::horizon) rows of exactly
/// [`num_trajectories`](Self::num_trajectories) cells each, in slot
/// order, then `Ok(None)` forever. A source that stops early or runs
/// long makes detection fail with
/// [`CoreError::RowSource`](crate::CoreError::RowSource); a source may
/// also surface its own faults (I/O errors, checksum mismatches) as
/// that same variant.
pub trait SlotRowSource {
    /// Number of concurrent services `N` covered by every row.
    fn num_trajectories(&self) -> usize;

    /// Number of slot rows `T` the source will yield in total.
    fn horizon(&self) -> usize;

    /// Lends the next slot row (all `N` observed cells of one slot, in
    /// service order), or `Ok(None)` once the horizon is exhausted.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::RowSource`](crate::CoreError::RowSource)
    /// when the backing medium fails to produce the row.
    fn next_row(&mut self) -> crate::Result<Option<&[CellId]>>;

    /// Lends the next block of whole slot rows — `k ≥ 1` consecutive
    /// rows, slot-major and contiguous (`k · N` cells) — or `Ok(None)`
    /// once the horizon is exhausted. The default lends one row through
    /// [`next_row`](Self::next_row); a source holding several rows in
    /// memory lends them at once, so detection dispatches onto the
    /// worker pool once per block instead of once per row.
    ///
    /// # Errors
    ///
    /// As [`next_row`](Self::next_row).
    fn next_rows(&mut self) -> crate::Result<Option<&[CellId]>> {
        self.next_row()
    }
}

/// The mobility knowledge the eavesdropper scores against.
#[derive(Debug, Clone, Copy)]
pub enum DetectModel<'a> {
    /// A single mobility chain; its log-likelihood table is built on the
    /// fly (use [`Table`](Self::Table) to amortize the table across
    /// repeated detection rounds).
    Chain(&'a MarkovChain),
    /// A prebuilt single-class log-likelihood table.
    Table(&'a LogLikelihoodTable),
    /// One table per mobility-model class: generalized-likelihood-ratio
    /// detection, scoring each prefix by its best class. A single-entry
    /// slice is exactly the [`Table`](Self::Table) path.
    Tables(&'a [&'a LogLikelihoodTable]),
    /// A [`MobilityRegistry`] — shorthand for
    /// [`Tables`](Self::Tables) over the registry's per-class tables.
    /// For a multi-epoch registry this is the *stationary view*: only
    /// epoch 0's tables are scored (the pre-epoch behavior). Use
    /// [`Schedule`](Self::Schedule) to exploit the time-of-day
    /// structure.
    Registry(&'a MobilityRegistry),
    /// A [`MobilityRegistry`] scored *with* its
    /// [`EpochSchedule`](chaff_markov::EpochSchedule)
    /// (chaff_markov): the arrival at slot `s` is scored under epoch
    /// `schedule.epoch_of(s)`'s per-class tables — the time-aware
    /// eavesdropper. A one-epoch registry reduces bit-for-bit to
    /// [`Registry`](Self::Registry). Explicit opt-in: the plain
    /// `From<&MobilityRegistry>` conversion still builds the stationary
    /// view.
    Schedule(&'a MobilityRegistry),
}

/// The observation set the eavesdropper scores.
pub enum DetectObservations<'a> {
    /// One [`Trajectory`] per service (the paper-scale representation).
    Trajectories(&'a [Trajectory]),
    /// A slot-major [`CellGrid`] — the fleet engine's zero-copy path.
    Columnar(&'a CellGrid),
    /// A paged stream of slot rows — the persistent-store path, running
    /// detection in `O(N)` state without materializing the grid.
    Paged(&'a mut dyn SlotRowSource),
}

impl std::fmt::Debug for DetectObservations<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetectObservations::Trajectories(xs) => f
                .debug_tuple("Trajectories")
                .field(&format_args!("{} trajectories", xs.len()))
                .finish(),
            DetectObservations::Columnar(grid) => f
                .debug_tuple("Columnar")
                .field(&format_args!(
                    "{} x {}",
                    grid.num_trajectories(),
                    grid.horizon()
                ))
                .finish(),
            DetectObservations::Paged(source) => f
                .debug_tuple("Paged")
                .field(&format_args!(
                    "{} x {}",
                    source.num_trajectories(),
                    source.horizon()
                ))
                .finish(),
        }
    }
}

/// One detection request: a model paired with an observation set, the
/// sole argument of
/// [`BatchPrefixDetector::detect_prefixes`](super::BatchPrefixDetector::detect_prefixes).
///
/// Most call sites build it through [`new`](Self::new), whose `impl
/// Into` parameters accept the natural references directly:
///
/// ```
/// use chaff_core::detector::{BatchPrefixDetector, DetectInput, DetectModel};
/// use chaff_markov::{models::ModelKind, CellGrid, MarkovChain};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = StdRng::seed_from_u64(5);
/// let chain = MarkovChain::new(ModelKind::NonSkewed.build(10, &mut rng)?)?;
/// let observed: Vec<_> = (0..16).map(|_| chain.sample_trajectory(12, &mut rng)).collect();
/// let grid = CellGrid::from_trajectories(&observed)?;
/// let table = chain.log_likelihood_table();
///
/// let detector = BatchPrefixDetector::new();
/// // Chain x trajectories, table x columnar, tables x columnar: one entry.
/// let a = detector.detect_prefixes(DetectInput::new(&chain, &observed))?;
/// let b = detector.detect_prefixes(DetectInput::new(&table, &grid))?;
/// let c = detector.detect_prefixes(DetectInput::new(DetectModel::Tables(&[&table]), &grid))?;
/// assert_eq!(a, b);
/// assert_eq!(b, c);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DetectInput<'a> {
    /// The mobility knowledge to score against.
    pub model: DetectModel<'a>,
    /// The observation set to score.
    pub observations: DetectObservations<'a>,
}

impl<'a> DetectInput<'a> {
    /// Pairs a model with an observation set. Accepts the natural
    /// references (`&MarkovChain`, `&LogLikelihoodTable`,
    /// `&MobilityRegistry`, `&[Trajectory]`, `&CellGrid`, `&mut impl
    /// SlotRowSource`, ...) directly via `Into`.
    pub fn new(
        model: impl Into<DetectModel<'a>>,
        observations: impl Into<DetectObservations<'a>>,
    ) -> Self {
        DetectInput {
            model: model.into(),
            observations: observations.into(),
        }
    }
}

impl<'a> From<&'a MarkovChain> for DetectModel<'a> {
    fn from(chain: &'a MarkovChain) -> Self {
        DetectModel::Chain(chain)
    }
}

impl<'a> From<&'a LogLikelihoodTable> for DetectModel<'a> {
    fn from(table: &'a LogLikelihoodTable) -> Self {
        DetectModel::Table(table)
    }
}

impl<'a> From<&'a [&'a LogLikelihoodTable]> for DetectModel<'a> {
    fn from(tables: &'a [&'a LogLikelihoodTable]) -> Self {
        DetectModel::Tables(tables)
    }
}

impl<'a, const N: usize> From<&'a [&'a LogLikelihoodTable; N]> for DetectModel<'a> {
    fn from(tables: &'a [&'a LogLikelihoodTable; N]) -> Self {
        DetectModel::Tables(tables)
    }
}

impl<'a> From<&'a Vec<&'a LogLikelihoodTable>> for DetectModel<'a> {
    fn from(tables: &'a Vec<&'a LogLikelihoodTable>) -> Self {
        DetectModel::Tables(tables)
    }
}

impl<'a> From<&'a MobilityRegistry> for DetectModel<'a> {
    fn from(registry: &'a MobilityRegistry) -> Self {
        DetectModel::Registry(registry)
    }
}

impl<'a> From<&'a [Trajectory]> for DetectObservations<'a> {
    fn from(observed: &'a [Trajectory]) -> Self {
        DetectObservations::Trajectories(observed)
    }
}

impl<'a> From<&'a Vec<Trajectory>> for DetectObservations<'a> {
    fn from(observed: &'a Vec<Trajectory>) -> Self {
        DetectObservations::Trajectories(observed)
    }
}

impl<'a, const N: usize> From<&'a [Trajectory; N]> for DetectObservations<'a> {
    fn from(observed: &'a [Trajectory; N]) -> Self {
        DetectObservations::Trajectories(observed)
    }
}

impl<'a> From<&'a CellGrid> for DetectObservations<'a> {
    fn from(grid: &'a CellGrid) -> Self {
        DetectObservations::Columnar(grid)
    }
}

impl<'a, S: SlotRowSource> From<&'a mut S> for DetectObservations<'a> {
    fn from(source: &'a mut S) -> Self {
        DetectObservations::Paged(source)
    }
}

impl<'a> From<&'a mut dyn SlotRowSource> for DetectObservations<'a> {
    fn from(source: &'a mut dyn SlotRowSource) -> Self {
        DetectObservations::Paged(source)
    }
}

/// In-memory [`SlotRowSource`] over a [`CellGrid`]: lends the grid's
/// slot rows in order, one at a time or — through
/// [`next_rows`](SlotRowSource::next_rows) — all remaining rows as one
/// block. The batch entry feeds columnar (and transposed trajectory)
/// observations through it, and it is the reference implementation of
/// the source contract.
#[derive(Debug)]
pub struct GridRowSource<'a> {
    grid: &'a CellGrid,
    next: usize,
}

impl<'a> GridRowSource<'a> {
    /// Wraps a grid as a slot-row source starting at slot zero.
    pub fn new(grid: &'a CellGrid) -> Self {
        GridRowSource { grid, next: 0 }
    }
}

impl SlotRowSource for GridRowSource<'_> {
    fn num_trajectories(&self) -> usize {
        self.grid.num_trajectories()
    }

    fn horizon(&self) -> usize {
        self.grid.horizon()
    }

    fn next_row(&mut self) -> crate::Result<Option<&[CellId]>> {
        if self.next >= self.grid.horizon() {
            return Ok(None);
        }
        let row = self.grid.row(self.next);
        self.next += 1;
        Ok(Some(row))
    }

    fn next_rows(&mut self) -> crate::Result<Option<&[CellId]>> {
        if self.next >= self.grid.horizon() {
            return Ok(None);
        }
        let rest = &self.grid.as_cells()[self.next * self.grid.num_trajectories()..];
        self.next = self.grid.horizon();
        Ok(Some(rest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaff_markov::models::ModelKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn grid_row_source_lends_every_row_then_none() {
        let mut rng = StdRng::seed_from_u64(9);
        let chain = MarkovChain::new(ModelKind::NonSkewed.build(8, &mut rng).unwrap()).unwrap();
        let observed: Vec<Trajectory> = (0..5)
            .map(|_| chain.sample_trajectory(7, &mut rng))
            .collect();
        let grid = CellGrid::from_trajectories(&observed).unwrap();
        let mut source = GridRowSource::new(&grid);
        assert_eq!(source.num_trajectories(), 5);
        assert_eq!(source.horizon(), 7);
        for t in 0..7 {
            assert_eq!(source.next_row().unwrap().unwrap(), grid.row(t));
        }
        assert!(source.next_row().unwrap().is_none());
        assert!(source.next_row().unwrap().is_none());
        // Blocks: every remaining row at once, then none.
        let mut source = GridRowSource::new(&grid);
        assert_eq!(source.next_row().unwrap().unwrap(), grid.row(0));
        assert_eq!(source.next_rows().unwrap().unwrap(), &grid.as_cells()[5..]);
        assert!(source.next_rows().unwrap().is_none());
        assert!(source.next_row().unwrap().is_none());
    }

    #[test]
    fn conversions_build_the_expected_variants() {
        let mut rng = StdRng::seed_from_u64(10);
        let chain = MarkovChain::new(ModelKind::NonSkewed.build(6, &mut rng).unwrap()).unwrap();
        let table = chain.log_likelihood_table();
        let registry = MobilityRegistry::single(chain.clone());
        let observed: Vec<Trajectory> = (0..3)
            .map(|_| chain.sample_trajectory(4, &mut rng))
            .collect();
        let grid = CellGrid::from_trajectories(&observed).unwrap();

        assert!(matches!(
            DetectInput::new(&chain, &observed).model,
            DetectModel::Chain(_)
        ));
        assert!(matches!(
            DetectInput::new(&table, &observed).model,
            DetectModel::Table(_)
        ));
        assert!(matches!(
            DetectInput::new(&[&table], &grid).model,
            DetectModel::Tables(ts) if ts.len() == 1
        ));
        assert!(matches!(
            DetectInput::new(&registry, &grid).model,
            DetectModel::Registry(_)
        ));
        // The schedule-aware view is explicit opt-in, never inferred
        // from the registry reference.
        assert!(matches!(
            DetectInput::new(DetectModel::Schedule(&registry), &grid).model,
            DetectModel::Schedule(_)
        ));
        assert!(matches!(
            DetectInput::new(&chain, &grid).observations,
            DetectObservations::Columnar(_)
        ));
        let mut source = GridRowSource::new(&grid);
        let input = DetectInput::new(&chain, &mut source);
        assert!(matches!(input.observations, DetectObservations::Paged(_)));
        // Debug is cheap but load-bearing for error reports.
        assert!(format!("{input:?}").contains("Paged"));
    }
}
