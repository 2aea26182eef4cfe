//! The fleet engine: simulation, chaff injection, anonymization and —
//! slot by slot — online detection.
//!
//! The paper's eavesdropper (eq. 11) is *online* — it observes one
//! service row per slot — and a real deployment never has the future.
//! One simulation core, `FleetCore`, advances the whole fleet by a
//! **block of `k` slots** at a time; both public drivers are thin
//! wrappers over it:
//!
//! * [`StreamingFleetEngine`] advances one-slot blocks and feeds each
//!   observed row to an online detector;
//! * [`FleetSimulation::run_chaffed`](crate::fleet::FleetSimulation::run_chaffed)
//!   advances one block of the whole horizon and keeps the grid.
//!
//! One block runs four phases:
//!
//! 1. **Draw / ingest and chaff (one lane pass).** For each user, its
//!    next `k` cells come from its mobility chain
//!    ([`step`](StreamingFleetEngine::step)) or, for `k = 1`, from an
//!    external per-slot feed
//!    ([`step_ingested`](StreamingFleetEngine::step_ingested), e.g. a
//!    quantized trace stream); the real service follows it, and each of
//!    the user's chaff lanes then steps its [`OnlineChaffController`]
//!    `k` times with its own RNG stream. The pass runs over the
//!    contiguous user shards of the fleet's shard count on
//!    [`chaff_core::pool::global`] (inline when there is one shard);
//!    each shard writes its column range of each of the `k` slot-major
//!    planned rows. A shard's lanes are two flat tables built on the
//!    pool with the core — its users, then all of their chaffs in
//!    service order, each chaff an inline, `match`-dispatched
//!    controller beside its RNG — so the pass reads contiguous memory
//!    and no lane owns a heap allocation.
//! 2. **Place.** Optional shared-capacity replay through one
//!    [`MecNetwork`], row by row in global service order; the placed
//!    cells overwrite the planned rows. Without a capacity the planned
//!    rows are the placement and migrations are a sharded row-against-row
//!    count.
//! 3. **Anonymize.** Every row is gathered through the inverse of the
//!    fleet's Fisher–Yates permutation (drawn once, up front, from a
//!    dedicated seed stream): `observed[j] = planned[source[j]]`, over
//!    disjoint column chunks of the `k × width` output on the pool.
//! 4. **Detect (streaming engine only).** The row feeds a
//!    [`StreamingPrefixDetector`], which shares the batch detector's
//!    per-slot kernel — and the slot's tracking/detection accuracy is
//!    computed incrementally from the row and the returned tie set.
//!
//! Every random draw comes from the per-user / per-chaff / shuffle seed
//! streams, so the block size cannot change a bit: a streamed run is
//! **bit-for-bit** the batch `run_chaffed` + unified `detect_prefixes`
//! pipeline, proptested across shard counts, budgets and mobility
//! classes in `tests/streaming_equivalence.rs`, and `tests/reference_fleet.rs`
//! checks the core against an independent per-user reference.
//!
//! # Shard and block independence
//!
//! The sharded phases cannot change a single bit of output. Every user
//! lane and every chaff lane owns its own `StdRng` stream and its own
//! controller state, and a lane writes only its own planned columns, so
//! which shard (or thread) advances a lane — and in what order relative
//! to other lanes — cannot change what it draws. For the same reason a
//! lane may run `k` slots ahead of its neighbours: a chaff controller
//! reads only its own user's cell of the same slot. The arrival at
//! absolute slot `s` is always drawn from `s`'s epoch-active chain. The
//! gather writes each observed column from exactly one planned column,
//! a pure copy. The capacity replay, whose placements depend on service
//! order, stays one sequential loop. `tests/lane_shards.rs` pins shard
//! counts; a unit test below pins block sizes.
//!
//! # Memory bound
//!
//! The streaming engine never materializes the `N × T` grid. It holds
//! the detector's running scores (`O(N · classes)`), one previous planned
//! row, a handful of one-row block buffers, the flat lane tables (one
//! fixed-size entry per user and per chaff), and a bounded ring of the
//! most recent observed rows
//! (`O(width · ring_depth)`, [`ring_depth`](StreamingFleetEngine::ring_depth)
//! rows deep) for consumers that want a trailing window — `O(width ·
//! ring_depth + N)` total, independent of the horizon. A whole-horizon
//! block holds the planned and observed grids, and `run_chaffed` drops
//! the planned one before it returns.
//!
//! Errors on ingest ([`SimError::StreamFault`]) are detected *before*
//! any engine state advances, so a broken or truncated stream leaves a
//! clean partial result — never a poisoned engine.

use crate::fleet::{
    chaff_seed, service_layout, shuffle_seed, user_seed, BudgetAllocation, FleetChaffPolicy,
    FleetConfig, FleetModel, FleetOutcome, FleetStats, LaneController,
};
use crate::network::MecNetwork;
use crate::observer::fisher_yates;
use crate::{Result, SimError};
use chaff_core::detector::{Detection, StreamingPrefixDetector};
use chaff_core::strategy::{EpochChains, OnlineChaffController};
use chaff_markov::{
    CellGrid, CellId, LogLikelihoodTable, MarkovChain, MobilityRegistry, TrajectoryArena,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Default depth of the trailing observed-row ring.
pub const DEFAULT_RING_DEPTH: usize = 8;

/// Everything one streamed slot produces: the slot's detection and the
/// incremental accuracy samples. The per-slot means over a full run
/// equal the batch metrics
/// (`chaff_core::metrics::mean_tracking_accuracy_columnar` /
/// `mean_detection_accuracy`) exactly.
#[derive(Debug, Clone)]
pub struct SlotStep {
    /// The slot index just completed (0-based).
    pub slot: usize,
    /// The eavesdropper's argmax tie set for this slot's prefix.
    pub detection: Detection,
    /// This slot's mean-over-users tracking accuracy: the probability
    /// that a uniform guess over the tie set lands on a service sharing
    /// the user's cell.
    pub tracking_accuracy: f64,
    /// This slot's mean-over-users detection accuracy contribution: the
    /// tie-set mass on real user services, averaged over users.
    pub detection_accuracy: f64,
}

/// One user's persistent simulation state.
struct UserLane {
    /// The user's own mobility stream (unused on the ingest path).
    rng: StdRng,
    /// Current cell (`None` before the first slot).
    now: Option<CellId>,
}

/// One chaff's persistent state: its controller, stored inline, and its
/// independent RNG stream.
type ChaffLane<'a> = (LaneController<'a>, StdRng);

/// The lanes of one contiguous user shard: the shard's user lanes, then
/// all of their chaff lanes in one flat table in service order
/// (user-major, then lane order). The shard count is fixed when the
/// core is built, so each table is built, and later advanced, by one
/// pool job; no lane owns a heap allocation.
struct LaneShard<'a> {
    /// The shard's first user.
    lo: usize,
    /// Users `lo..lo + users.len()`.
    users: Vec<UserLane>,
    /// Those users' chaff lanes: user `u`'s `B_u` lanes follow user
    /// `u - 1`'s.
    chaffs: Vec<ChaffLane<'a>>,
}

impl<'a> LaneShard<'a> {
    /// Seeds the lanes of `users`, with each user's controllers built in
    /// lane order from its class's strategy and chains.
    fn new(
        users: std::ops::Range<usize>,
        model: FleetModel<'a>,
        policy: &FleetChaffPolicy,
        service_starts: &[usize],
        seed: u64,
    ) -> Self {
        let chaff_lanes = |user: usize| service_starts[user] - user;
        let mut chaffs = Vec::with_capacity(chaff_lanes(users.end) - chaff_lanes(users.start));
        for user in users.clone() {
            let class = model.class_of(user);
            let strategy = policy.strategy_of(class);
            // A multi-epoch registry steps one continuous controller
            // against the epoch-active chains; the stationary path keeps
            // the bare chain.
            let chains = match model {
                FleetModel::Heterogeneous(r) if !r.is_stationary() => {
                    EpochChains::scheduled(r, class).expect("users map into the registry's classes")
                }
                _ => EpochChains::stationary(model.chain_of(user)),
            };
            let budget = chaff_lanes(user + 1) - chaff_lanes(user);
            chaffs.extend((0..budget).map(|c| {
                let rng = StdRng::seed_from_u64(chaff_seed(seed, user as u64, c as u64));
                (strategy.lane_controller(chains), rng)
            }));
        }
        LaneShard {
            lo: users.start,
            users: users
                .map(|user| UserLane {
                    rng: StdRng::seed_from_u64(user_seed(seed, user as u64)),
                    now: None,
                })
                .collect(),
            chaffs,
        }
    }
}

/// The detection-free fleet simulation: per-user lanes, layout,
/// anonymizing permutation and shared network, advanced a block of
/// slots at a time (see the module docs).
pub(crate) struct FleetCore<'a> {
    model: FleetModel<'a>,
    config: FleetConfig,
    service_starts: Vec<usize>,
    num_services: usize,
    /// `source[observed]` = the planned (pre-shuffle) service shown at
    /// that observed position: the inverse of the anonymization
    /// permutation (identity when anonymization is off).
    source: Vec<usize>,
    user_observed_indices: Vec<usize>,
    /// The lane tables, one per contiguous user shard, in user order.
    lanes: Vec<LaneShard<'a>>,
    /// Shard count of the per-user and per-service passes (the
    /// detector's, from [`FleetConfig`]).
    shards: usize,
    /// The shared network of the capacity replay.
    network: Option<MecNetwork>,
    /// The last placed (pre-shuffle) row before the current block: the
    /// fast path counts migrations against it, the capacity replay
    /// migrates from it.
    planned_prev: Vec<CellId>,
    /// The block's planned, then placed, rows: `k × width`, slot-major.
    planned: Vec<CellId>,
    /// The block's observed (post-shuffle) rows: `k × width`, slot-major.
    observed: Vec<CellId>,
    /// The block's user cells, user-major: user `u`'s `k` cells are
    /// `user_cells[u * k..(u + 1) * k]`.
    user_cells: Vec<CellId>,
    stats: FleetStats,
    slot: usize,
}

impl<'a> FleetCore<'a> {
    /// Validates the fleet, lays out every user's services, seeds every
    /// lane and draws the anonymization permutation.
    ///
    /// # Errors
    ///
    /// Rejects invalid configs, mismatched per-class or adaptive
    /// policies and overflowing budgets.
    pub(crate) fn new(
        model: FleetModel<'a>,
        config: FleetConfig,
        policy: &FleetChaffPolicy,
    ) -> Result<Self> {
        config.validate()?;
        policy.validate(model.num_classes(), config.num_users)?;
        let n = config.num_users;
        let service_starts = service_layout(n, config.horizon, |user| {
            policy.budget_of(user, model.class_of(user), n)
        })?;
        let num_services = *service_starts.last().expect("layout has n + 1 entries");
        // Per-user persistent state: one stream per user and per chaff,
        // seeded per lane, so building the shards' tables on the pool
        // cannot change a bit.
        let shards = config.effective_shards();
        let chunk = n.div_ceil(shards);
        let lanes = run_sharded((0..n).step_by(chunk), |lo| {
            let users = lo..(lo + chunk).min(n);
            LaneShard::new(users, model, policy, &service_starts, config.seed)
        });
        // One permutation anonymizes every slot row, kept only as its
        // inverse for the gather.
        let perm = if config.anonymize {
            let mut rng = StdRng::seed_from_u64(shuffle_seed(config.seed));
            fisher_yates(num_services, &mut rng)
        } else {
            (0..num_services).collect()
        };
        let user_observed_indices: Vec<usize> = (0..n).map(|u| perm[service_starts[u]]).collect();
        let mut source = vec![0usize; num_services];
        for (service, &observed) in perm.iter().enumerate() {
            source[observed] = service;
        }
        drop(perm);
        let network = match config.node_capacity {
            Some(capacity) => Some(MecNetwork::new(model.num_states(), Some(capacity))?),
            None => None,
        };
        let stats = FleetStats {
            migrations: 0,
            spills: 0,
            user_slots: 0,
            chaff_services: num_services - n,
        };
        Ok(FleetCore {
            model,
            shards,
            config,
            service_starts,
            num_services,
            source,
            user_observed_indices,
            lanes,
            network,
            planned_prev: vec![CellId::new(0); num_services],
            planned: vec![CellId::new(0); num_services],
            observed: vec![CellId::new(0); num_services],
            user_cells: vec![CellId::new(0); n],
            stats,
            slot: 0,
        })
    }

    /// Advances `k` slots, drawing every user's moves from its mobility
    /// chain. The caller keeps `slots_run + k` within the horizon.
    ///
    /// # Errors
    ///
    /// Propagates capacity errors ([`SimError::NoCapacity`]) from the
    /// shared-network replay.
    pub(crate) fn advance(&mut self, k: usize) -> Result<()> {
        debug_assert!(k >= 1 && self.slot + k <= self.config.horizon);
        self.resize_block(k);
        self.run_lanes(k, true);
        self.finish_block(k)
    }

    /// Advances one slot with the (validated) user cells of that slot.
    ///
    /// # Errors
    ///
    /// Propagates capacity errors from the shared-network replay.
    pub(crate) fn advance_ingested(&mut self, user_cells: &[CellId]) -> Result<()> {
        self.resize_block(1);
        self.user_cells.copy_from_slice(user_cells);
        self.run_lanes(1, false);
        self.finish_block(1)
    }

    /// Sizes the block buffers for `k` slots (a no-op for repeated
    /// blocks of one size).
    fn resize_block(&mut self, k: usize) {
        let cells = k * self.num_services;
        self.planned.resize(cells, CellId::new(0));
        self.observed.resize(cells, CellId::new(0));
        self.user_cells
            .resize(k * self.config.num_users, CellId::new(0));
    }

    /// The lane pass: for every user, draw its `k` cells into
    /// `user_cells` (when `draw`; the ingest path has filled them
    /// already), record the last as the lane's position and each as the
    /// real service's planned cell of its row, then step each of the
    /// user's chaff controllers `k` times into its planned column. Runs
    /// one job per lane shard; a shard's planned columns are the
    /// contiguous range `service_starts[lo]..service_starts[hi]` of every
    /// row, and its chaff table walks them in the same order.
    fn run_lanes(&mut self, k: usize, draw: bool) {
        let (model, slot, starts) = (self.model, self.slot, &self.service_starts);
        let bounds: Vec<usize> = self
            .lanes
            .iter()
            .map(|shard| starts[shard.lo])
            .chain([self.num_services])
            .collect();
        let rows = split_columns(&mut self.planned, self.num_services, &bounds);
        let mut user_cells = &mut self.user_cells[..];
        let parts = self.lanes.iter_mut().zip(rows).map(|(shard, rows)| {
            let (cells, rest) = std::mem::take(&mut user_cells).split_at_mut(shard.users.len() * k);
            user_cells = rest;
            (shard, cells, rows)
        });
        run_sharded(parts, |(shard, cells, mut rows)| {
            let base = starts[shard.lo];
            let mut chaffs = &mut shard.chaffs[..];
            let users = (shard.lo..).zip(&mut shard.users);
            for ((user, lane), cells) in users.zip(cells.chunks_exact_mut(k)) {
                if draw {
                    // The arrival at absolute slot `slot + t` is drawn
                    // from that slot's epoch-active chain.
                    for (t, cell) in cells.iter_mut().enumerate() {
                        let chain = model.chain_at_slot(user, slot + t);
                        *cell = match lane.now {
                            None => chain.initial().sample(&mut lane.rng),
                            Some(prev) => chain.step(prev, &mut lane.rng),
                        };
                        lane.now = Some(*cell);
                    }
                } else {
                    lane.now = cells.last().copied();
                }
                // Always-follow for the real service, then each chaff
                // lane's `k` controller steps, in lane order.
                let col = starts[user] - base;
                for (row, &cell) in rows.iter_mut().zip(&*cells) {
                    row[col] = cell;
                }
                let budget = starts[user + 1] - starts[user] - 1;
                let (mine, rest) = std::mem::take(&mut chaffs).split_at_mut(budget);
                chaffs = rest;
                for (c, (controller, chaff_rng)) in mine.iter_mut().enumerate() {
                    for (row, &cell) in rows.iter_mut().zip(&*cells) {
                        row[col + 1 + c] = controller.next(cell, &[], chaff_rng);
                    }
                }
            }
        });
    }

    /// The block tail: placement (capacity replay row by row, or the
    /// sharded fast-path migration count), the anonymizing gather and
    /// the slot counters. The lane pass has filled `user_cells` and
    /// `planned` on entry.
    fn finish_block(&mut self, k: usize) -> Result<()> {
        let width = self.num_services;
        if let Some(network) = &mut self.network {
            // Sequential capacity replay in global service order, one
            // row at a time. The placed cell replaces the desired one,
            // and the previous placed row is every service's current
            // actual cell.
            for t in 0..k {
                let (before, rest) = self.planned.split_at_mut(t * width);
                let prev = match t {
                    0 => &self.planned_prev[..],
                    _ => &before[(t - 1) * width..],
                };
                for (service, cell) in rest[..width].iter_mut().enumerate() {
                    let desired = *cell;
                    if self.slot + t == 0 {
                        *cell = network.place_nearest(desired)?;
                    } else {
                        *cell = network.migrate(prev[service], desired)?;
                        if *cell != prev[service] {
                            self.stats.migrations += 1;
                        }
                    }
                    if *cell != desired {
                        self.stats.spills += 1;
                    }
                }
            }
        } else {
            // Fast path: planned placement is actual placement; count
            // migrations row against row over column chunks. Slot 0 has
            // no previous row.
            let first = usize::from(self.slot == 0);
            if first < k {
                let chunk = width.div_ceil(self.shards);
                let (planned, planned_prev) = (&self.planned, &self.planned_prev);
                let parts = (0..width)
                    .step_by(chunk)
                    .map(|lo| lo..(lo + chunk).min(width));
                self.stats.migrations += run_sharded(parts, |columns| {
                    (first..k)
                        .map(|t| {
                            let prev = match t {
                                0 => planned_prev,
                                _ => &planned[(t - 1) * width..t * width],
                            };
                            let now = &planned[t * width..(t + 1) * width];
                            now[columns.clone()]
                                .iter()
                                .zip(&prev[columns.clone()])
                                .filter(|(now, prev)| now != prev)
                                .count()
                        })
                        .sum::<usize>()
                })
                .into_iter()
                .sum::<usize>();
            }
        }
        self.gather();
        // The next block migrates from this block's last placed row. A
        // one-slot block rewrites every planned cell, so the old
        // previous row is free scratch and is swapped in, not copied.
        if k == 1 {
            std::mem::swap(&mut self.planned_prev, &mut self.planned);
        } else {
            self.planned_prev
                .copy_from_slice(&self.planned[(k - 1) * width..]);
        }
        self.stats.user_slots += k * self.config.num_users;
        self.slot += k;
        Ok(())
    }

    /// The anonymizing gather `observed[t][j] = planned[t][source[j]]`,
    /// over disjoint column chunks of every observed row; each chunk
    /// reads one planned row at a time.
    fn gather(&mut self) {
        let width = self.num_services;
        let chunk = width.div_ceil(self.shards);
        let bounds: Vec<usize> = (0..width).step_by(chunk).chain([width]).collect();
        let planned = &self.planned;
        let parts = split_columns(&mut self.observed, width, &bounds)
            .into_iter()
            .zip(self.source.chunks(chunk));
        run_sharded(parts, |(rows, source)| {
            for (row, planned) in rows.into_iter().zip(planned.chunks_exact(width)) {
                for (cell, &service) in row.iter_mut().zip(source) {
                    *cell = planned[service];
                }
            }
        });
    }

    /// Bytes of the block buffers and layout tables (see
    /// [`StreamingFleetEngine::state_bytes`]).
    fn state_bytes(&self) -> usize {
        let rows = self.planned_prev.capacity() * 4
            + self.planned.capacity() * 4
            + self.observed.capacity() * 4
            + self.user_cells.capacity() * 4;
        let tables = self.source.capacity() * 8
            + self.service_starts.capacity() * 8
            + self.user_observed_indices.capacity() * 8;
        rows + tables
    }

    /// The finished run of one whole-horizon block as a [`FleetOutcome`].
    /// The planned grid and the lanes are dropped before the
    /// ground-truth arena is built.
    ///
    /// # Errors
    ///
    /// Fails typed if the block does not hold whole rows (an invariant
    /// break, not an input error).
    pub(crate) fn into_outcome(self) -> Result<FleetOutcome> {
        let FleetCore {
            config,
            num_services,
            user_observed_indices,
            planned,
            lanes,
            observed,
            user_cells,
            stats,
            ..
        } = self;
        drop(planned);
        drop(lanes);
        let observed = CellGrid::from_cells(num_services, observed)?;
        let mut arena = TrajectoryArena::new(config.num_users, config.horizon);
        for (user, cells) in user_cells.chunks_exact(config.horizon).enumerate() {
            arena.row_mut(user).copy_from_slice(cells);
        }
        Ok(FleetOutcome {
            observed,
            user_observed_indices,
            user_cells: arena,
            stats,
        })
    }
}

/// Splits a slot-major block of `width`-cell rows into per-part row
/// slices: part `p` receives columns `bounds[p]..bounds[p + 1]` of every
/// row, in row order.
fn split_columns<'b>(
    block: &'b mut [CellId],
    width: usize,
    bounds: &[usize],
) -> Vec<Vec<&'b mut [CellId]>> {
    let rows = block.len() / width;
    let mut parts: Vec<Vec<&mut [CellId]>> = bounds
        .windows(2)
        .map(|_| Vec::with_capacity(rows))
        .collect();
    for mut row in block.chunks_exact_mut(width) {
        for (part, span) in parts.iter_mut().zip(bounds.windows(2)) {
            let (head, tail) = std::mem::take(&mut row).split_at_mut(span[1] - span[0]);
            part.push(head);
            row = tail;
        }
    }
    parts
}

/// Bounded ring of the most recent observed slot rows (post-shuffle).
/// Buffers are recycled, so steady-state allocation is exactly
/// `depth × num_services` cells.
struct SlotRing {
    depth: usize,
    /// Absolute slot index of `rows.front()`.
    first_slot: usize,
    rows: VecDeque<Vec<CellId>>,
}

impl SlotRing {
    fn new(depth: usize) -> Self {
        SlotRing {
            depth: depth.max(1),
            first_slot: 0,
            rows: VecDeque::new(),
        }
    }

    fn push(&mut self, row: &[CellId]) {
        let mut buffer = if self.rows.len() == self.depth {
            self.first_slot += 1;
            self.rows.pop_front().unwrap_or_default()
        } else {
            Vec::with_capacity(row.len())
        };
        buffer.clear();
        buffer.extend_from_slice(row);
        self.rows.push_back(buffer);
    }

    fn bytes(&self) -> usize {
        self.rows.iter().map(|r| r.capacity() * 4).sum()
    }
}

/// The streaming fleet engine. Construct with
/// [`new`](StreamingFleetEngine::new) (homogeneous) or
/// [`with_registry`](StreamingFleetEngine::with_registry)
/// (heterogeneous), then call [`step`](StreamingFleetEngine::step) (or
/// [`step_ingested`](StreamingFleetEngine::step_ingested)) once per slot
/// until it returns `None`.
///
/// # Example
///
/// ```
/// use chaff_markov::{models::ModelKind, MarkovChain};
/// use chaff_sim::fleet::{FleetChaffPolicy, FleetChaffStrategy, FleetConfig};
/// use chaff_sim::streaming::StreamingFleetEngine;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = StdRng::seed_from_u64(1);
/// let chain = MarkovChain::new(ModelKind::NonSkewed.build(10, &mut rng)?)?;
/// let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 1);
/// let mut engine = StreamingFleetEngine::new(
///     &chain,
///     FleetConfig::new(50, 20).with_seed(7),
///     &policy,
/// )?;
/// let mut curve = Vec::new();
/// while let Some(step) = engine.step()? {
///     curve.push(step.tracking_accuracy); // live accuracy, slot by slot
/// }
/// assert_eq!(curve.len(), 20);
/// # Ok(())
/// # }
/// ```
pub struct StreamingFleetEngine<'a> {
    core: FleetCore<'a>,
    /// `is_user[observed index]`: does this column carry a real user?
    is_user: Vec<bool>,
    detector: StreamingPrefixDetector,
    ring: SlotRing,
    /// Cell histogram scratch for the per-slot tracking accuracy.
    histogram: Vec<usize>,
}

impl<'a> StreamingFleetEngine<'a> {
    /// Creates a homogeneous streaming fleet (every user moves by
    /// `chain`) under `policy`.
    ///
    /// # Errors
    ///
    /// Same validation as
    /// [`FleetSimulation::run_chaffed`](crate::fleet::FleetSimulation::run_chaffed):
    /// rejects invalid configs, mismatched per-class policies and
    /// overflowing budgets.
    pub fn new(
        chain: &'a MarkovChain,
        config: FleetConfig,
        policy: &FleetChaffPolicy,
    ) -> Result<Self> {
        Self::build(FleetModel::Homogeneous(chain), config, policy)
    }

    /// Creates a heterogeneous streaming fleet over a registry of
    /// mobility-model classes.
    ///
    /// # Errors
    ///
    /// See [`new`](Self::new).
    pub fn with_registry(
        registry: &'a MobilityRegistry,
        config: FleetConfig,
        policy: &FleetChaffPolicy,
    ) -> Result<Self> {
        Self::build(FleetModel::Heterogeneous(registry), config, policy)
    }

    fn build(
        model: FleetModel<'a>,
        config: FleetConfig,
        policy: &FleetChaffPolicy,
    ) -> Result<Self> {
        let core = FleetCore::new(model, config, policy)?;
        let num_services = core.num_services;
        let mut is_user = vec![false; num_services];
        for &idx in &core.user_observed_indices {
            is_user[idx] = true;
        }
        // A multi-epoch registry arms the eavesdropper with the full
        // epoch-major table set (it knows the population's time-varying
        // model mix); stationary models keep the plain construction.
        let mut detector = match model {
            FleetModel::Heterogeneous(registry) if !registry.is_stationary() => {
                StreamingPrefixDetector::with_schedule(
                    registry.to_epoch_tables(),
                    registry.schedule().clone(),
                    num_services,
                    core.shards,
                )?
            }
            _ => {
                let tables: Vec<LogLikelihoodTable> = match model {
                    FleetModel::Homogeneous(chain) => vec![chain.log_likelihood_table()],
                    FleetModel::Heterogeneous(registry) => (0..registry.num_classes())
                        .map(|c| registry.table(c).clone())
                        .collect(),
                };
                StreamingPrefixDetector::with_shards(tables, num_services, core.shards)?
            }
        };
        // An adaptive policy needs the detector-side accuracy feedback to
        // compute its next epoch, so the running view is enabled up front
        // (other policies can opt in with `with_feedback`).
        if matches!(policy.allocation(), BudgetAllocation::Adaptive(_)) {
            detector = detector.with_feedback();
        }
        Ok(StreamingFleetEngine {
            histogram: vec![0usize; model.num_states()],
            core,
            is_user,
            detector,
            ring: SlotRing::new(DEFAULT_RING_DEPTH),
        })
    }

    /// Sets the depth of the trailing observed-row ring (clamped to at
    /// least one row).
    pub fn with_ring_depth(mut self, depth: usize) -> Self {
        self.ring = SlotRing::new(depth);
        self
    }

    /// Enables the detector's running per-column accuracy feedback even
    /// under a non-adaptive policy (adaptive policies enable it
    /// automatically). Retrieve per-user samples with
    /// [`user_feedback`](Self::user_feedback).
    pub fn with_feedback(mut self) -> Self {
        self.detector = self.detector.with_feedback();
        self
    }

    /// The running per-*user* detection accuracy: the detector's
    /// [`AccuracyFeedback`](chaff_core::detector::AccuracyFeedback)
    /// columns mapped back through the anonymization permutation to user
    /// order — exactly the vector
    /// [`FleetChaffPolicy::adapt`] consumes between epochs. `None` when
    /// feedback is not enabled.
    pub fn user_feedback(&self) -> Option<Vec<f64>> {
        self.detector.feedback().map(|feedback| {
            self.core
                .user_observed_indices
                .iter()
                .map(|&column| feedback.accuracy(column))
                .collect()
        })
    }

    /// Number of users `N`.
    pub fn num_users(&self) -> usize {
        self.core.config.num_users
    }

    /// Total services (users plus chaffs) per slot row.
    pub fn num_services(&self) -> usize {
        self.core.num_services
    }

    /// The configured horizon (the engine stops after this many slots).
    pub fn horizon(&self) -> usize {
        self.core.config.horizon
    }

    /// Slots completed so far.
    pub fn slots_run(&self) -> usize {
        self.core.slot
    }

    /// Depth of the trailing observed-row ring.
    pub fn ring_depth(&self) -> usize {
        self.ring.depth
    }

    /// Absolute slot indices currently buffered in the ring (the last
    /// `ring_depth` completed slots).
    pub fn buffered_slots(&self) -> std::ops::Range<usize> {
        self.ring.first_slot..self.ring.first_slot + self.ring.rows.len()
    }

    /// The observed (post-shuffle) row of an absolute slot index, if it
    /// is still buffered in the ring.
    pub fn observed_row(&self, slot: usize) -> Option<&[CellId]> {
        if !self.buffered_slots().contains(&slot) {
            return None;
        }
        self.ring
            .rows
            .get(slot - self.ring.first_slot)
            .map(Vec::as_slice)
    }

    /// The ground-truth user cells of the most recent slot (empty before
    /// the first step).
    pub fn last_user_row(&self) -> &[CellId] {
        if self.core.slot == 0 {
            &[]
        } else {
            &self.core.user_cells
        }
    }

    /// `user_observed_indices[u]`: where user `u`'s real service sits in
    /// every observed row.
    pub fn user_observed_indices(&self) -> &[usize] {
        &self.core.user_observed_indices
    }

    /// Aggregate counters over the slots run so far. On a completed run
    /// these equal [`FleetSimulation::run_chaffed`](crate::fleet::FleetSimulation::run_chaffed)'s
    /// [`FleetStats`] bit-for-bit; on a truncated run they describe the
    /// clean partial prefix.
    pub fn stats(&self) -> FleetStats {
        self.core.stats
    }

    /// Bytes of horizon-independent engine state: the observed-row ring,
    /// the detector's running scores, the inverse-permutation/layout
    /// tables and the row scratch buffers — the engine's
    /// `O(width · ring_depth + N)` columnar footprint, the quantity the
    /// memory-bound tests pin down. The lane tables are *not* included:
    /// they are flat arrays of fixed-size user and chaff lanes (RNG plus
    /// inline controller, no per-lane heap allocation), left out so the
    /// figure stays comparable with the memory ratios recorded before
    /// the lanes were flat.
    pub fn state_bytes(&self) -> usize {
        let tables = self.is_user.capacity() + self.histogram.capacity() * 8;
        self.ring.bytes() + self.detector.state_bytes() + self.core.state_bytes() + tables
    }

    /// Advances one slot, drawing every user's move from its mobility
    /// chain. Returns `None` once the configured horizon is exhausted.
    ///
    /// # Errors
    ///
    /// Propagates capacity errors ([`SimError::NoCapacity`]) from the
    /// shared-network replay.
    pub fn step(&mut self) -> Result<Option<SlotStep>> {
        if self.core.slot >= self.core.config.horizon {
            return Ok(None);
        }
        self.core.advance(1)?;
        self.detect_slot()
    }

    /// Advances one slot with externally supplied user cells (trace
    /// ingestion): `user_cells[u]` is user `u`'s position this slot;
    /// chaff lanes still draw from their own streams. Returns `None`
    /// once the horizon is exhausted.
    ///
    /// The row is validated *before* any engine state advances: a bad
    /// row fails typed, naming the offending user and slot, and the
    /// engine remains exactly as it was — feed it a corrected row (or
    /// stop and keep the partial results).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::StreamFault`] when the row does not supply
    /// one cell per user or a cell falls outside the model's state
    /// space; propagates capacity errors from the shared-network replay.
    pub fn step_ingested(&mut self, user_cells: &[CellId]) -> Result<Option<SlotStep>> {
        let slot = self.core.slot;
        if slot >= self.core.config.horizon {
            return Ok(None);
        }
        let n = self.core.config.num_users;
        if user_cells.len() != n {
            return Err(SimError::StreamFault {
                user: user_cells.len().min(n.saturating_sub(1)),
                slot,
                reason: format!("slot row supplies {} cells for {n} users", user_cells.len()),
            });
        }
        let states = self.core.model.num_states();
        for (user, &cell) in user_cells.iter().enumerate() {
            if cell.index() >= states {
                return Err(SimError::StreamFault {
                    user,
                    slot,
                    reason: format!(
                        "cell {} outside the {states}-cell state space",
                        cell.index()
                    ),
                });
            }
        }
        self.core.advance_ingested(user_cells)?;
        self.detect_slot()
    }

    /// The streaming tail of a one-slot block: ring append, online
    /// detection and incremental accuracy.
    fn detect_slot(&mut self) -> Result<Option<SlotStep>> {
        let n = self.core.config.num_users;
        let slot = self.core.slot - 1;
        let observed = &self.core.observed[..];
        self.ring.push(observed);
        // Detection phase: the shared per-slot kernel. Cells come from a
        // validated model or a pre-validated ingest row, so this cannot
        // fail — but a typed propagation beats an unwrap if an invariant
        // ever breaks.
        let detection = self.detector.push_slot(observed)?;
        // Incremental accuracy: the per-slot bodies of
        // `mean_tracking_accuracy_columnar` / `mean_detection_accuracy`.
        let tie = detection.tie_set();
        for &i in tie {
            self.histogram[observed[i].index()] += 1;
        }
        let histogram = &self.histogram;
        let parts = self
            .core
            .user_observed_indices
            .chunks(n.div_ceil(self.core.shards));
        let hits: usize = run_sharded(parts, |columns| {
            columns
                .iter()
                .map(|&u| histogram[observed[u].index()])
                .sum::<usize>()
        })
        .into_iter()
        .sum();
        let tracking_accuracy = hits as f64 / tie.len() as f64 / n as f64;
        for &i in tie {
            self.histogram[observed[i].index()] = 0;
        }
        let named = tie.iter().filter(|&&i| self.is_user[i]).count();
        let detection_accuracy = named as f64 / tie.len() as f64 / n as f64;
        Ok(Some(SlotStep {
            slot,
            detection,
            tracking_accuracy,
            detection_accuracy,
        }))
    }
}

/// Runs `job` on every part and returns the results in part order:
/// inline when there is at most one part (a one-shard pass pays no pool
/// dispatch), else one job per part on the shared worker pool.
fn run_sharded<T: Send, R: Send>(
    parts: impl ExactSizeIterator<Item = T>,
    job: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    if parts.len() <= 1 {
        return parts.map(job).collect();
    }
    let mut results: Vec<Option<R>> = (0..parts.len()).map(|_| None).collect();
    let job = &job;
    chaff_core::pool::global().scope(|scope| {
        for (part, result) in parts.zip(results.iter_mut()) {
            scope.spawn(move || *result = Some(job(part)));
        }
    });
    results
        .into_iter()
        .map(|result| result.expect("the pool scope ran every part"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetChaffStrategy;

    fn chain(seed: u64) -> MarkovChain {
        crate::test_support::nonskewed_chain(seed, 10)
    }

    /// Observed rows, user rows and stats of a core run advanced in
    /// blocks of (at most) `block` slots.
    type BlockRun = (Vec<Vec<CellId>>, Vec<Vec<CellId>>, FleetStats);

    fn run_in_blocks(
        model: FleetModel<'_>,
        config: &FleetConfig,
        policy: &FleetChaffPolicy,
        block: usize,
    ) -> BlockRun {
        let mut core = FleetCore::new(model, config.clone(), policy).unwrap();
        let (n, width) = (config.num_users, core.num_services);
        let mut observed = Vec::new();
        let mut users = Vec::new();
        while core.slot < config.horizon {
            let k = block.min(config.horizon - core.slot);
            core.advance(k).unwrap();
            observed.extend(core.observed.chunks_exact(width).map(<[CellId]>::to_vec));
            users.extend((0..k).map(|t| (0..n).map(|u| core.user_cells[u * k + t]).collect()));
        }
        (observed, users, core.stats)
    }

    /// Every lane owns its stream and reads only its own user's cell of
    /// the same slot, so advancing `k` slots per block must give the
    /// bits of one-slot blocks: observed grid, user cells, migrations,
    /// spills and the rest of the stats — with and without a capacity,
    /// and on a day/night registry, where a draw from the wrong slot's
    /// epoch would show.
    #[test]
    fn block_size_cannot_change_a_bit() {
        const CELLS: usize = 12;
        const HORIZON: usize = 11;
        let homogeneous = crate::test_support::nonskewed_chain(9, CELLS);
        let stationary = crate::test_support::mixed_registry(31, CELLS, 2);
        let epoch = |seed| -> Vec<MarkovChain> {
            let registry = crate::test_support::mixed_registry(seed, CELLS, 3);
            (0..2).map(|c| registry.chain(c).clone()).collect()
        };
        let day_night = MobilityRegistry::with_epochs(
            vec![epoch(32), epoch(33)],
            chaff_markov::EpochSchedule::day_night(2, 3).unwrap(),
        )
        .unwrap();
        let models = [
            ("chain", FleetModel::Homogeneous(&homogeneous)),
            ("stationary", FleetModel::Heterogeneous(&stationary)),
            ("day/night", FleetModel::Heterogeneous(&day_night)),
        ];
        let policies = [
            FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 2),
            FleetChaffPolicy::proportional(FleetChaffStrategy::Mo, 9),
        ];
        for (name, model) in models {
            for capacity in [None, Some(2)] {
                for policy in &policies {
                    let mut config = FleetConfig::new(7, HORIZON).with_seed(5).with_shards(3);
                    if let Some(capacity) = capacity {
                        config = config.with_capacity(capacity);
                    }
                    let reference = run_in_blocks(model, &config, policy, 1);
                    assert_eq!(reference.0.len(), HORIZON);
                    assert_eq!(reference.2.user_slots, 7 * HORIZON);
                    if capacity.is_some() {
                        assert!(reference.2.spills > 0, "{name}: capacity 2 must spill");
                    }
                    for block in [2, 3, 7, HORIZON] {
                        assert_eq!(
                            run_in_blocks(model, &config, policy, block),
                            reference,
                            "{name}, capacity {capacity:?}, {policy:?}: block {block}"
                        );
                    }
                }
            }
        }
    }

    /// The lane pass builds and advances lane shards on pool workers, so
    /// the engine, the lane tables, the inline lane controller and the
    /// boxes both controller factories return must stay `Send`.
    #[test]
    fn engine_and_controller_factories_are_send() {
        fn assert_send<T: Send>() {}
        fn assert_send_value<T: Send>(_: &T) {}
        assert_send::<StreamingFleetEngine<'_>>();
        assert_send::<LaneShard<'_>>();
        assert_send::<LaneController<'_>>();
        let c = chain(8);
        let registry = MobilityRegistry::new(vec![c.clone()]).unwrap();
        for strategy in [
            FleetChaffStrategy::Im,
            FleetChaffStrategy::Cml,
            FleetChaffStrategy::Mo,
        ] {
            assert_send_value(&strategy.controller(&c));
            assert_send_value(&strategy.scheduled_controller(&registry, 0));
        }
    }

    #[test]
    fn engine_runs_to_horizon_then_stops() {
        let c = chain(1);
        let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 1);
        let mut engine =
            StreamingFleetEngine::new(&c, FleetConfig::new(8, 6).with_seed(3), &policy).unwrap();
        assert_eq!(engine.num_services(), 16);
        let mut slots = 0;
        while let Some(step) = engine.step().unwrap() {
            assert_eq!(step.slot, slots);
            assert!((0.0..=1.0).contains(&step.tracking_accuracy));
            assert!((0.0..=1.0).contains(&step.detection_accuracy));
            slots += 1;
        }
        assert_eq!(slots, 6);
        assert!(engine.step().unwrap().is_none());
        assert_eq!(engine.stats().user_slots, 8 * 6);
        assert_eq!(engine.stats().chaff_services, 8);
    }

    #[test]
    fn ring_keeps_only_the_trailing_window() {
        let c = chain(2);
        let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 0);
        let mut engine = StreamingFleetEngine::new(&c, FleetConfig::new(5, 10), &policy)
            .unwrap()
            .with_ring_depth(3);
        for _ in 0..10 {
            engine.step().unwrap();
        }
        assert_eq!(engine.buffered_slots(), 7..10);
        assert!(engine.observed_row(6).is_none());
        assert!(engine.observed_row(7).is_some());
        assert!(engine.observed_row(9).is_some());
        assert!(engine.observed_row(10).is_none());
    }

    #[test]
    fn rejects_the_batch_engines_invalid_configs() {
        let c = chain(3);
        let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 0);
        assert!(StreamingFleetEngine::new(&c, FleetConfig::new(0, 5), &policy).is_err());
        assert!(StreamingFleetEngine::new(&c, FleetConfig::new(5, 0), &policy).is_err());
        let bad = FleetChaffPolicy::per_class(vec![
            (FleetChaffStrategy::Im, 1),
            (FleetChaffStrategy::Cml, 1),
        ]);
        assert!(StreamingFleetEngine::new(&c, FleetConfig::new(5, 5), &bad).is_err());
        let huge = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, usize::MAX);
        assert!(matches!(
            StreamingFleetEngine::new(&c, FleetConfig::new(2, 4), &huge),
            Err(SimError::BudgetOverflow { users: 2 })
        ));
    }

    #[test]
    fn ingest_faults_are_typed_and_do_not_poison_the_engine() {
        let c = chain(4);
        let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Cml, 1);
        let config = FleetConfig::new(4, 5).with_seed(9);
        let mut clean = StreamingFleetEngine::new(&c, config.clone(), &policy).unwrap();
        let mut poked = StreamingFleetEngine::new(&c, config, &policy).unwrap();
        let rows: Vec<Vec<CellId>> = (0..5)
            .map(|t| (0..4).map(|u| CellId::new((t + u) % 10)).collect())
            .collect();
        for (t, row) in rows.iter().enumerate() {
            // Wrong arity names the first user without a cell...
            match poked.step_ingested(&row[..2]).unwrap_err() {
                SimError::StreamFault { user, slot, .. } => {
                    assert_eq!((user, slot), (2, t));
                }
                other => panic!("unexpected error: {other:?}"),
            }
            // ...an out-of-range cell names its user...
            let mut bad = row.clone();
            bad[3] = CellId::new(999);
            match poked.step_ingested(&bad).unwrap_err() {
                SimError::StreamFault { user, slot, reason } => {
                    assert_eq!((user, slot), (3, t));
                    assert!(reason.contains("999"), "{reason}");
                }
                other => panic!("unexpected error: {other:?}"),
            }
            // ...and neither fault perturbed the stream.
            let a = clean.step_ingested(row).unwrap().unwrap();
            let b = poked.step_ingested(row).unwrap().unwrap();
            assert_eq!(a.detection, b.detection, "slot {t}");
            assert_eq!(
                a.tracking_accuracy.to_bits(),
                b.tracking_accuracy.to_bits(),
                "slot {t}"
            );
        }
        assert_eq!(poked.slots_run(), 5);
        assert_eq!(poked.stats(), clean.stats());
    }

    #[test]
    fn truncated_ingest_yields_a_clean_partial_result() {
        let c = chain(5);
        let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 2);
        let mut engine =
            StreamingFleetEngine::new(&c, FleetConfig::new(3, 10).with_seed(11), &policy).unwrap();
        // The stream dies after 4 of 10 slots.
        for t in 0..4 {
            let row: Vec<CellId> = (0..3).map(|u| CellId::new((t + u) % 10)).collect();
            engine.step_ingested(&row).unwrap().unwrap();
        }
        assert_eq!(engine.slots_run(), 4);
        let stats = engine.stats();
        assert_eq!(stats.user_slots, 3 * 4);
        assert_eq!(stats.chaff_services, 6);
        // The partial engine is still serviceable: it can keep going
        // from where the stream stopped.
        let row: Vec<CellId> = vec![CellId::new(0); 3];
        assert!(engine.step_ingested(&row).unwrap().is_some());
        assert_eq!(engine.slots_run(), 5);
    }

    #[test]
    fn adaptive_policies_stream_per_user_feedback() {
        use crate::fleet::FleetSimulation;
        use chaff_core::detector::{AccuracyFeedback, BatchPrefixDetector, DetectInput};

        let c = chain(7);
        let config = FleetConfig::new(12, 9).with_seed(23);
        // A uniform policy leaves feedback off unless asked for...
        let uniform = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 1);
        let mut engine = StreamingFleetEngine::new(&c, config.clone(), &uniform).unwrap();
        assert!(engine.user_feedback().is_none());
        engine = StreamingFleetEngine::new(&c, config.clone(), &uniform)
            .unwrap()
            .with_feedback();
        assert!(engine.user_feedback().is_some());
        // ...an adaptive policy enables it automatically, and the
        // streamed per-user samples equal the batch bridge bit-for-bit.
        let adaptive = FleetChaffPolicy::adaptive(FleetChaffStrategy::Im, 12, 12);
        let mut engine = StreamingFleetEngine::new(&c, config.clone(), &adaptive).unwrap();
        while engine.step().unwrap().is_some() {}
        let streamed = engine.user_feedback().unwrap();

        let outcome = FleetSimulation::new(&c, config)
            .run_chaffed(&adaptive)
            .unwrap();
        let detections = BatchPrefixDetector::new()
            .detect_prefixes(DetectInput::new(&c, &outcome.observed))
            .unwrap();
        let bridged =
            AccuracyFeedback::from_detections(outcome.observed.num_trajectories(), &detections);
        for (u, &column) in outcome.user_observed_indices.iter().enumerate() {
            assert_eq!(
                streamed[u].to_bits(),
                bridged.accuracy(column).to_bits(),
                "user {u}"
            );
        }
        // The samples feed straight into the policy's adapt step.
        let mut policy = adaptive.clone();
        policy.adapt(&streamed).unwrap();
        assert_eq!(policy.adaptive_budgets().unwrap().total(), 12);
    }

    #[test]
    fn capacity_replay_spills_like_the_batch_engine() {
        let c = chain(6);
        let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 1);
        let config = FleetConfig::new(3, 8)
            .with_capacity(1)
            .with_seed(7)
            .without_anonymization();
        let mut engine = StreamingFleetEngine::new(&c, config, &policy).unwrap();
        while let Some(step) = engine.step().unwrap() {
            let slot = step.slot;
            let row = engine.observed_row(slot).unwrap();
            let mut cells: Vec<usize> = row.iter().map(|c| c.index()).collect();
            cells.sort_unstable();
            cells.dedup();
            assert_eq!(cells.len(), 6, "capacity 1 keeps services disjoint");
        }
        assert!(engine.stats().spills > 0);
    }
}
