//! The traced run's outside replay of one streaming-engine step.
//!
//! `StreamingFleetEngine::step` fuses draw, chaff, placement, scatter,
//! ring and detection into one call, so its layers cannot be timed from
//! outside the call. The shadow repeats the layers' work through their
//! public functions with the engine's own seed streams:
//!
//! - `markov`: every user's `MarkovChain` draw from `user_seed`;
//! - `strategy`: every chaff lane's `OnlineChaffController::next` from
//!   `chaff_seed`, built from the same controller types
//!   `FleetChaffStrategy::controller` builds;
//! - `detector`: `StreamingPrefixDetector::push_slot` on the engine's
//!   observed ring row.
//!
//! Each phase is compared with the engine's result, so the replay
//! measures the same work the engine did. Each phase also runs
//! [`PHASE_REPEATS`] times per slot — on copies of its state, then on
//! the state itself — and the shortest run is its time: a stall of the
//! host during one run does not count as the layer's cost.

use crate::trace::{SpanId, Tracer};
use chaff_core::detector::{Detection, StreamingPrefixDetector};
use chaff_core::strategy::{CmlController, ImController, MoController, OnlineChaffController};
use chaff_markov::{CellId, LogLikelihoodTable, MarkovChain};
use chaff_sim::fleet::{chaff_seed, user_seed, FleetChaffStrategy};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs of each phase per slot; the shortest is the phase's time.
pub const PHASE_REPEATS: usize = 3;

/// A chaff controller the shadow can copy, so a phase can rerun on
/// copied lanes.
trait LaneController<'a>: OnlineChaffController + 'a {
    fn boxed_clone(&self) -> Box<dyn LaneController<'a> + 'a>;
}

impl<'a, C: OnlineChaffController + Clone + 'a> LaneController<'a> for C {
    fn boxed_clone(&self) -> Box<dyn LaneController<'a> + 'a> {
        Box::new(self.clone())
    }
}

impl<'a> Clone for Box<dyn LaneController<'a> + 'a> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// The controller `FleetChaffStrategy::controller` builds for `chain`,
/// boxed behind a copyable trait object (one dynamic call per `next`,
/// as in the engine).
fn controller<'a>(
    strategy: FleetChaffStrategy,
    chain: &'a MarkovChain,
) -> Box<dyn LaneController<'a> + 'a> {
    match strategy {
        FleetChaffStrategy::Im => Box::new(ImController::new(chain)),
        FleetChaffStrategy::Cml => Box::new(CmlController::new(chain)),
        FleetChaffStrategy::Mo => Box::new(MoController::new(chain)),
    }
}

/// Every user's walk state.
#[derive(Clone)]
struct Users {
    cells: Vec<CellId>,
    rngs: Vec<StdRng>,
    started: bool,
}

/// Every chaff lane's state and this slot's chaff cells.
#[derive(Clone)]
struct Lanes<'a> {
    /// `(owner user, controller, rng)` for every chaff lane, user-major.
    lanes: Vec<(usize, Box<dyn LaneController<'a> + 'a>, StdRng)>,
    cells: Vec<CellId>,
}

/// Runs `phase` [`PHASE_REPEATS`] times under spans named `name`: on
/// copies of `state` first, then on `state` itself. Returns the last
/// run's output and the shortest run in ns.
fn shortest_of<S: Clone, T>(
    t: &mut Tracer,
    name: &'static str,
    parent: Option<SpanId>,
    state: &mut S,
    mut phase: impl FnMut(&mut S) -> T,
) -> (T, u64) {
    let mut best = u64::MAX;
    for _ in 1..PHASE_REPEATS {
        let mut copy = state.clone();
        let id = t.start(name, parent);
        let out = phase(&mut copy);
        best = best.min(t.end(id));
        drop(out);
    }
    let id = t.start(name, parent);
    let out = phase(state);
    (out, best.min(t.end(id)))
}

/// One replayed slot: the shadow detection and each phase's shortest
/// run.
pub struct Replayed {
    /// The shadow `push_slot`'s detection.
    pub detection: Detection,
    /// Shortest user draw, ns.
    pub draw_ns: u64,
    /// Shortest chaff-lane pass, ns.
    pub chaff_ns: u64,
    /// Shortest `push_slot`, ns.
    pub push_ns: u64,
}

impl Replayed {
    /// Draw + chaff + detect, ms.
    pub fn total_ms(&self) -> f64 {
        (self.draw_ns + self.chaff_ns + self.push_ns) as f64 / 1e6
    }
}

/// Worker shards the engine sizes its detector with when the config
/// leaves them unset: one per available core, at most one per user.
pub fn engine_shards(num_users: usize) -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .clamp(1, num_users.max(1))
}

/// Per-user and per-lane replay state for one fleet.
pub struct Shadow<'a> {
    chains: Vec<&'a MarkovChain>,
    users: Users,
    lanes: Lanes<'a>,
    detector: StreamingPrefixDetector,
}

impl<'a> Shadow<'a> {
    /// Replay state for `chains.len()` users, each with `budget` chaff
    /// lanes of `strategy`, scored against `tables` over `num_services`
    /// observed services — the engine's construction for a stationary
    /// model.
    ///
    /// # Errors
    ///
    /// Propagates detector construction errors.
    pub fn new(
        chains: Vec<&'a MarkovChain>,
        strategy: FleetChaffStrategy,
        budget: usize,
        tables: Vec<LogLikelihoodTable>,
        num_services: usize,
        seed: u64,
    ) -> chaff_core::Result<Self> {
        let n = chains.len();
        let users = Users {
            cells: vec![CellId::new(0); n],
            rngs: (0..n)
                .map(|u| StdRng::seed_from_u64(user_seed(seed, u as u64)))
                .collect(),
            started: false,
        };
        let lanes = Lanes {
            lanes: (0..n)
                .flat_map(|u| (0..budget).map(move |c| (u, c)))
                .map(|(u, c)| {
                    (
                        u,
                        controller(strategy, chains[u]),
                        StdRng::seed_from_u64(chaff_seed(seed, u as u64, c as u64)),
                    )
                })
                .collect(),
            cells: vec![CellId::new(0); n * budget],
        };
        let detector =
            StreamingPrefixDetector::with_shards(tables, num_services, engine_shards(n))?;
        Ok(Shadow {
            chains,
            users,
            lanes,
            detector,
        })
    }

    /// Replays one slot under `parent`: draws every user's next cell
    /// (`markov.draw`), steps every chaff lane against its user's cell
    /// (`strategy.chaff`) and feeds `observed` to the shadow detector
    /// (`detector.push_slot`), each phase [`PHASE_REPEATS`] times.
    ///
    /// # Errors
    ///
    /// Propagates detector errors.
    pub fn replay_slot(
        &mut self,
        t: &mut Tracer,
        parent: Option<SpanId>,
        observed: &[CellId],
    ) -> chaff_core::Result<Replayed> {
        let chains = &self.chains;
        let ((), draw_ns) = shortest_of(t, "markov.draw", parent, &mut self.users, |users| {
            let started = users.started;
            for ((cell, chain), rng) in users.cells.iter_mut().zip(chains).zip(&mut users.rngs) {
                *cell = if started {
                    chain.step(*cell, rng)
                } else {
                    chain.initial().sample(rng)
                };
            }
            users.started = true;
        });
        let user_cells = &self.users.cells;
        let ((), chaff_ns) = shortest_of(t, "strategy.chaff", parent, &mut self.lanes, |lanes| {
            for ((owner, controller, rng), cell) in lanes.lanes.iter_mut().zip(&mut lanes.cells) {
                *cell = controller.next(user_cells[*owner], &[], rng);
            }
        });
        let (detection, push_ns) = shortest_of(
            t,
            "detector.push_slot",
            parent,
            &mut self.detector,
            |detector| detector.push_slot(observed),
        );
        Ok(Replayed {
            detection: detection?,
            draw_ns,
            chaff_ns,
            push_ns,
        })
    }

    /// This slot's drawn user cells.
    pub fn users(&self) -> &[CellId] {
        &self.users.cells
    }

    /// Whether `observed` holds exactly this slot's user and chaff cells
    /// (as a multiset: the engine's scatter permutation is private).
    pub fn matches_row(&self, observed: &[CellId], num_cells: usize) -> bool {
        let mut histogram = vec![0i64; num_cells];
        for cell in self.users.cells.iter().chain(&self.lanes.cells) {
            histogram[cell.index()] += 1;
        }
        for cell in observed {
            histogram[cell.index()] -= 1;
        }
        observed.len() == self.users.cells.len() + self.lanes.cells.len()
            && histogram.iter().all(|&h| h == 0)
    }

    /// Bytes of the shadow detector's running state.
    pub fn detector_bytes(&self) -> usize {
        self.detector.state_bytes()
    }
}
