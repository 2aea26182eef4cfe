//! Columnar log-likelihood kernel: a precomputed log-transition table
//! plus the slot-row gather/add of fleet-scale detection.
//!
//! [`MarkovChain::log_likelihood`] recomputes `ln` per step and walks the
//! matrix row by row per trajectory — fine for one user, wasteful for a
//! fleet. [`LogLikelihoodTable`] pays the `ln` cost once per model (dense
//! table for small state spaces, sparse per-row tables above
//! [`DENSE_STATE_LIMIT`]) and then scores arbitrarily many trajectories
//! with pure lookups. [`LogLikelihoodTable::add_step_batch`] advances a
//! block of running scores by one slot row — the per-slot
//! cumulative-score update of the detectors in `chaff-core`, with unit
//! stride over the row.

use crate::{CellId, MarkovChain, MarkovError, Result, Trajectory};

/// Largest state-space size for which the dense `L × L` log table is
/// materialized; larger models use sparse per-row tables (trace-driven
/// matrices are extremely sparse, so the dense table would be mostly
/// `-inf` padding).
pub const DENSE_STATE_LIMIT: usize = 2048;

/// Fixed chunk width (in `f64` lanes) used by the batched kernels.
///
/// [`LogLikelihoodTable::add_step_batch`] and the argmax kernels in
/// `chaff-core` process users in chunks of this many lanes so the
/// autovectorizer can lower the straight-line chunk bodies to SIMD
/// (eight `f64`s fill an AVX-512 register, or two AVX2 registers).
/// Chunking never changes results: each user's accumulator receives
/// exactly the same single add per slot regardless of the chunk width.
pub const LANE_WIDTH: usize = 8;

/// Storage backing a [`LogLikelihoodTable`].
#[derive(Debug, Clone)]
enum TableStorage {
    /// Row-major `n * n` log-probabilities (`-inf` on zero entries).
    Dense(Vec<f64>),
    /// CSR-style per-row support: `cols[row_starts[i]..row_starts[i+1]]`
    /// are the sorted positive-probability destinations from `i`, with
    /// matching log-probabilities in `logs`.
    Sparse {
        row_starts: Vec<usize>,
        cols: Vec<u32>,
        logs: Vec<f64>,
    },
}

/// A precomputed log-likelihood table for one mobility model.
///
/// Holds `log π` and `log P` so that scoring a step is a table lookup
/// instead of a `ln` evaluation. Build it once per model via
/// [`MarkovChain::log_likelihood_table`] and reuse it across every
/// trajectory in a fleet.
///
/// # Example
///
/// ```
/// use chaff_markov::{CellId, MarkovChain, Trajectory, TransitionMatrix};
///
/// # fn main() -> Result<(), chaff_markov::MarkovError> {
/// let m = TransitionMatrix::from_rows(vec![vec![0.9, 0.1], vec![0.3, 0.7]])?;
/// let chain = MarkovChain::new(m)?;
/// let table = chain.log_likelihood_table();
/// let x = Trajectory::from_indices([0, 0, 1]);
/// // One running score per user, advanced one slot row at a time.
/// let mut accs = [0.0];
/// let mut prev: Option<[CellId; 1]> = None;
/// for cell in x.iter() {
///     table.add_step_batch(prev.as_ref().map(|p| &p[..]), &[cell], &mut accs)?;
///     prev = Some([cell]);
/// }
/// assert!((accs[0] - chain.log_likelihood(&x)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LogLikelihoodTable {
    n: usize,
    log_initial: Vec<f64>,
    transitions: TableStorage,
}

impl LogLikelihoodTable {
    /// Builds the table for `chain`, choosing dense or sparse storage by
    /// state-space size.
    pub fn new(chain: &MarkovChain) -> Self {
        Self::with_storage(chain, chain.num_states() <= DENSE_STATE_LIMIT)
    }

    /// Builds the table with an explicit storage choice. Exposed so tests
    /// and memory-constrained callers can force the sparse representation
    /// below [`DENSE_STATE_LIMIT`].
    pub fn with_storage(chain: &MarkovChain, dense: bool) -> Self {
        let n = chain.num_states();
        let log_initial: Vec<f64> = (0..n)
            .map(|i| chain.initial().log_prob(CellId::new(i)))
            .collect();
        let transitions = if dense {
            let mut data = vec![f64::NEG_INFINITY; n * n];
            for i in 0..n {
                let from = CellId::new(i);
                for (to, p) in chain.matrix().successors(from) {
                    data[i * n + to.index()] = p.ln();
                }
            }
            TableStorage::Dense(data)
        } else {
            let mut row_starts = Vec::with_capacity(n + 1);
            let mut cols = Vec::with_capacity(chain.matrix().nnz());
            let mut logs = Vec::with_capacity(chain.matrix().nnz());
            row_starts.push(0);
            for i in 0..n {
                let from = CellId::new(i);
                for (to, p) in chain.matrix().successors(from) {
                    cols.push(to.index() as u32);
                    logs.push(p.ln());
                }
                row_starts.push(cols.len());
            }
            TableStorage::Sparse {
                row_starts,
                cols,
                logs,
            }
        };
        LogLikelihoodTable {
            n,
            log_initial,
            transitions,
        }
    }

    /// Number of cells in the state space.
    #[inline]
    pub fn num_states(&self) -> usize {
        self.n
    }

    /// Whether the table uses the dense `n × n` representation.
    pub fn is_dense(&self) -> bool {
        matches!(self.transitions, TableStorage::Dense(_))
    }

    /// `log π(cell)`.
    #[inline]
    pub fn log_initial(&self, cell: CellId) -> f64 {
        self.log_initial[cell.index()]
    }

    /// `log P(to | from)`; `-inf` when the transition has zero probability.
    #[inline]
    pub fn log_transition(&self, from: CellId, to: CellId) -> f64 {
        match &self.transitions {
            TableStorage::Dense(data) => data[from.index() * self.n + to.index()],
            TableStorage::Sparse {
                row_starts,
                cols,
                logs,
            } => sparse_walk(row_starts, cols, logs, from, to),
        }
    }

    /// The per-slot increment for slot `t`: `log π(x_t)` at the first slot,
    /// `log P(x_t | x_{t-1})` afterwards.
    #[inline]
    pub fn step(&self, prev: Option<CellId>, cell: CellId) -> f64 {
        match prev {
            None => self.log_initial(cell),
            Some(p) => self.log_transition(p, cell),
        }
    }

    /// Advances a block of running scores by one slot: for every lane `j`,
    /// `accs[j] += step(prev[j], row[j])` — `log π(row[j])` when `prev` is
    /// `None` (slot zero), `log P(row[j] | prev[j])` afterwards.
    ///
    /// This is the gather/add phase of the fleet detectors' per-slot
    /// kernel, factored into the table so the storage `match` is hoisted
    /// out of the inner loop (the legacy per-element [`step`](Self::step)
    /// re-dispatched on every lookup) and the loop bodies process users in
    /// [`LANE_WIDTH`] chunks. Each accumulator receives exactly one add,
    /// so results are bit-for-bit those of the scalar per-element walk in
    /// any chunking. `-inf + -inf` is fine; `+inf` never occurs
    /// (increments are log-probs ≤ 0), so no NaN can appear.
    ///
    /// Both rows are validated before any accumulator is touched: a
    /// failed call leaves `accs` untouched.
    ///
    /// # Errors
    ///
    /// [`MarkovError::LengthMismatch`] when `prev` or `accs` disagrees
    /// with `row` on arity, [`MarkovError::CellOutOfRange`] (lowest lane
    /// first) when a cell falls outside the state space.
    pub fn add_step_batch(
        &self,
        prev: Option<&[CellId]>,
        row: &[CellId],
        accs: &mut [f64],
    ) -> Result<()> {
        if accs.len() != row.len() {
            return Err(MarkovError::LengthMismatch {
                expected: row.len(),
                found: accs.len(),
            });
        }
        validate_cells(row, self.n)?;
        match prev {
            None => add_initial(&self.log_initial, row, accs),
            Some(prev) => {
                if prev.len() != row.len() {
                    return Err(MarkovError::LengthMismatch {
                        expected: row.len(),
                        found: prev.len(),
                    });
                }
                validate_cells(prev, self.n)?;
                match &self.transitions {
                    TableStorage::Dense(data) => add_dense(data, self.n, prev, row, accs),
                    TableStorage::Sparse {
                        row_starts,
                        cols,
                        logs,
                    } => add_sparse(row_starts, cols, logs, prev, row, accs),
                }
            }
        }
        Ok(())
    }

    /// Full-trajectory log-likelihood via the table (matches
    /// [`MarkovChain::log_likelihood`] bit-for-bit: both sum the same
    /// increments in slot order).
    pub fn log_likelihood(&self, trajectory: &Trajectory) -> f64 {
        let mut acc = 0.0;
        let mut prev: Option<CellId> = None;
        for cell in trajectory.iter() {
            acc += self.step(prev, cell);
            prev = Some(cell);
        }
        acc
    }
}

/// The CSR row walk: binary search of `to` in `from`'s sorted support.
///
/// Factored out of [`LogLikelihoodTable::log_transition`] so both the
/// scalar lookup and the batched sparse gather loop inline the identical
/// walk (same comparisons, same `-inf` miss) instead of re-dispatching
/// on the storage enum per element.
#[inline(always)]
fn sparse_walk(row_starts: &[usize], cols: &[u32], logs: &[f64], from: CellId, to: CellId) -> f64 {
    let range = row_starts[from.index()]..row_starts[from.index() + 1];
    match cols[range.clone()].binary_search(&(to.index() as u32)) {
        Ok(offset) => logs[range.start + offset],
        Err(_) => f64::NEG_INFINITY,
    }
}

/// Checks every cell of `row` against the state-space size, reporting the
/// lowest offending lane. The all-clear scan is branch-free per element
/// (a vectorizable compare-reduce); the error path re-scans to name the
/// first bad cell, but only runs on failure.
#[inline]
fn validate_cells(row: &[CellId], states: usize) -> Result<()> {
    if row.iter().all(|c| c.index() < states) {
        return Ok(());
    }
    let bad = row
        .iter()
        .find(|c| c.index() >= states)
        .expect("re-scan of a failed all() finds the witness");
    Err(MarkovError::CellOutOfRange {
        cell: bad.index(),
        states,
    })
}

/// Slot-zero gather/add: `accs[j] += log π(row[j])`, in `LANE_WIDTH`
/// chunks. Cells are pre-validated by the caller.
fn add_initial(log_initial: &[f64], row: &[CellId], accs: &mut [f64]) {
    let mut cells = row.chunks_exact(LANE_WIDTH);
    let mut lanes = accs.chunks_exact_mut(LANE_WIDTH);
    for (cell, lane) in (&mut cells).zip(&mut lanes) {
        for i in 0..LANE_WIDTH {
            lane[i] += log_initial[cell[i].index()];
        }
    }
    for (cell, acc) in cells.remainder().iter().zip(lanes.into_remainder()) {
        *acc += log_initial[cell.index()];
    }
}

/// Dense transition gather/add: `accs[j] += log P(row[j] | prev[j])` from
/// the row-major `n × n` table, in `LANE_WIDTH` chunks. Both rows are
/// pre-validated, so every `prev * n + row` index is in bounds.
fn add_dense(data: &[f64], n: usize, prev: &[CellId], row: &[CellId], accs: &mut [f64]) {
    let mut prevs = prev.chunks_exact(LANE_WIDTH);
    let mut cells = row.chunks_exact(LANE_WIDTH);
    let mut lanes = accs.chunks_exact_mut(LANE_WIDTH);
    for ((from, to), lane) in (&mut prevs).zip(&mut cells).zip(&mut lanes) {
        for i in 0..LANE_WIDTH {
            lane[i] += data[from[i].index() * n + to[i].index()];
        }
    }
    for ((from, to), acc) in prevs
        .remainder()
        .iter()
        .zip(cells.remainder())
        .zip(lanes.into_remainder())
    {
        *acc += data[from.index() * n + to.index()];
    }
}

/// Sparse transition gather/add: the inlined CSR row walk per lane, in
/// `LANE_WIDTH` chunks. Both rows are pre-validated.
fn add_sparse(
    row_starts: &[usize],
    cols: &[u32],
    logs: &[f64],
    prev: &[CellId],
    row: &[CellId],
    accs: &mut [f64],
) {
    let mut prevs = prev.chunks_exact(LANE_WIDTH);
    let mut cells = row.chunks_exact(LANE_WIDTH);
    let mut lanes = accs.chunks_exact_mut(LANE_WIDTH);
    for ((from, to), lane) in (&mut prevs).zip(&mut cells).zip(&mut lanes) {
        for i in 0..LANE_WIDTH {
            lane[i] += sparse_walk(row_starts, cols, logs, from[i], to[i]);
        }
    }
    for ((from, to), acc) in prevs
        .remainder()
        .iter()
        .zip(cells.remainder())
        .zip(lanes.into_remainder())
    {
        *acc += sparse_walk(row_starts, cols, logs, *from, *to);
    }
}

impl MarkovChain {
    /// Builds the precomputed [`LogLikelihoodTable`] for this model.
    ///
    /// The table is immutable and self-contained; build it once and share
    /// it (e.g. across detection shards) by reference.
    pub fn log_likelihood_table(&self) -> LogLikelihoodTable {
        LogLikelihoodTable::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TransitionMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain() -> MarkovChain {
        let m = TransitionMatrix::from_rows(vec![
            vec![0.9, 0.1, 0.0],
            vec![0.3, 0.2, 0.5],
            vec![0.0, 0.5, 0.5],
        ])
        .unwrap();
        MarkovChain::new(m).unwrap()
    }

    #[test]
    fn table_matches_chain_lookups() {
        let c = chain();
        let table = c.log_likelihood_table();
        assert!(table.is_dense());
        assert_eq!(table.num_states(), 3);
        for i in 0..3 {
            assert_eq!(
                table.log_initial(CellId::new(i)),
                c.initial().log_prob(CellId::new(i))
            );
            for j in 0..3 {
                assert_eq!(
                    table.log_transition(CellId::new(i), CellId::new(j)),
                    c.matrix().log_prob(CellId::new(i), CellId::new(j)),
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn zero_probability_transitions_are_neg_infinity() {
        let table = chain().log_likelihood_table();
        assert_eq!(
            table.log_transition(CellId::new(0), CellId::new(2)),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn add_step_batch_matches_scalar_steps_bit_for_bit() {
        let c = chain();
        let mut rng = StdRng::seed_from_u64(14);
        // Widths straddling the lane count exercise both the chunked and
        // the remainder paths; 8 and 16 are exact multiples, 0 is an
        // empty row.
        for width in [0usize, 1, 3, 7, 8, 9, 16, 21] {
            for table in [
                LogLikelihoodTable::with_storage(&c, true),
                LogLikelihoodTable::with_storage(&c, false),
            ] {
                let xs: Vec<Trajectory> = (0..width)
                    .map(|_| c.sample_trajectory(6, &mut rng))
                    .collect();
                let mut accs = vec![0.0f64; width];
                let mut prev_row: Option<Vec<CellId>> = None;
                for t in 0..6 {
                    let row: Vec<CellId> = xs.iter().map(|x| x.cell(t)).collect();
                    table
                        .add_step_batch(prev_row.as_deref(), &row, &mut accs)
                        .unwrap();
                    for (j, x) in xs.iter().enumerate() {
                        // The chain's own per-trajectory increments,
                        // summed in slot order, agree to the bit.
                        let from_chain: f64 = c.step_log_likelihoods(x)[..=t].iter().sum();
                        assert_eq!(accs[j].to_bits(), from_chain.to_bits());
                        let expected: f64 = {
                            let mut acc = 0.0;
                            let mut prev = None;
                            for cell in x.iter().take(t + 1) {
                                acc += table.step(prev, cell);
                                prev = Some(cell);
                            }
                            acc
                        };
                        assert_eq!(
                            accs[j].to_bits(),
                            expected.to_bits(),
                            "width {width}, slot {t}, lane {j}"
                        );
                    }
                    prev_row = Some(row);
                }
            }
        }
    }

    #[test]
    fn add_step_batch_rejects_bad_shapes_and_cells_atomically() {
        let table = chain().log_likelihood_table();
        let row = vec![CellId::new(0), CellId::new(1)];
        let mut accs = vec![1.5f64; 2];
        assert_eq!(
            table
                .add_step_batch(None, &row, &mut accs[..1])
                .unwrap_err(),
            MarkovError::LengthMismatch {
                expected: 2,
                found: 1
            }
        );
        assert_eq!(
            table
                .add_step_batch(Some(&row[..1]), &row, &mut accs)
                .unwrap_err(),
            MarkovError::LengthMismatch {
                expected: 2,
                found: 1
            }
        );
        let bad = vec![CellId::new(0), CellId::new(7)];
        assert_eq!(
            table.add_step_batch(None, &bad, &mut accs).unwrap_err(),
            MarkovError::CellOutOfRange { cell: 7, states: 3 }
        );
        assert_eq!(
            table
                .add_step_batch(Some(&bad), &row, &mut accs)
                .unwrap_err(),
            MarkovError::CellOutOfRange { cell: 7, states: 3 }
        );
        // Every failure above left the accumulators untouched.
        assert_eq!(accs, vec![1.5, 1.5]);
    }

    #[test]
    fn table_log_likelihood_matches_chain() {
        let c = chain();
        let table = c.log_likelihood_table();
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..20 {
            let x = c.sample_trajectory(25, &mut rng);
            let a = table.log_likelihood(&x);
            let b = c.log_likelihood(&x);
            assert_eq!(a.to_bits(), b.to_bits(), "bit-for-bit equality");
        }
    }

    #[test]
    fn sparse_storage_agrees_with_dense_bit_for_bit() {
        let c = chain();
        let dense = LogLikelihoodTable::with_storage(&c, true);
        let sparse = LogLikelihoodTable::with_storage(&c, false);
        assert!(dense.is_dense());
        assert!(!sparse.is_dense());
        for i in 0..3 {
            for j in 0..3 {
                let a = dense.log_transition(CellId::new(i), CellId::new(j));
                let b = sparse.log_transition(CellId::new(i), CellId::new(j));
                assert_eq!(a.to_bits(), b.to_bits(), "({i},{j})");
            }
        }
        let mut rng = StdRng::seed_from_u64(13);
        let xs: Vec<Trajectory> = (0..4).map(|_| c.sample_trajectory(9, &mut rng)).collect();
        let mut dense_accs = vec![0.0f64; xs.len()];
        let mut sparse_accs = vec![0.0f64; xs.len()];
        let mut prev_row: Option<Vec<CellId>> = None;
        for t in 0..9 {
            let row: Vec<CellId> = xs.iter().map(|x| x.cell(t)).collect();
            dense
                .add_step_batch(prev_row.as_deref(), &row, &mut dense_accs)
                .unwrap();
            sparse
                .add_step_batch(prev_row.as_deref(), &row, &mut sparse_accs)
                .unwrap();
            let bits = |accs: &[f64]| accs.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&dense_accs), bits(&sparse_accs), "slot {t}");
            prev_row = Some(row);
        }
        // Typed errors are the same for either storage: an out-of-range
        // cell, and a ragged (short) previous row.
        let bad = [CellId::new(0), CellId::new(9)];
        let good = [CellId::new(0), CellId::new(1)];
        for table in [&dense, &sparse] {
            assert_eq!(
                table.add_step_batch(None, &bad, &mut [0.0; 2]).unwrap_err(),
                MarkovError::CellOutOfRange { cell: 9, states: 3 }
            );
            assert_eq!(
                table
                    .add_step_batch(Some(&good[..1]), &good, &mut [0.0; 2])
                    .unwrap_err(),
                MarkovError::LengthMismatch {
                    expected: 2,
                    found: 1
                }
            );
        }
    }
}
