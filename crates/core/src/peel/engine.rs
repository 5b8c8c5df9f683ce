//! The problem-agnostic peel engine.
//!
//! The paper presents its work-efficient bucketing framework (Alg. 1 +
//! the Sec. 4 techniques) in terms of k-core, but nothing in the hot
//! loop is vertex-specific: it peels an *element universe* by monotone
//! integer *priorities*, where settling an element lowers the priorities
//! of incident elements through a clamped update rule. This module
//! factors that skeleton out:
//!
//! * [`PeelProblem`] — the plug-in surface: universe size, initial
//!   priorities, the update rule (an [`Incidence`]), optional scheduled
//!   decrements, an optional hook after each two-phase subround's rule
//!   phase, and result assembly.
//!   The clients live in [`crate::problems`].
//! * [`PeelEngine`] — owns everything else: one round/subround loop,
//!   the hash-bag frontier, the run's [`Buckets`] (whose adaptive
//!   strategy upgrades itself at θ), and the sampling and VGC hooks.
//!
//! Every round is Alg. 1's: it opens at the smallest live priority `k`
//! at or above the floor, takes every element of priority exactly `k`,
//! and clamps at `k` (no priority drops below it; elements that reach
//! it settle this round, with settle round `k`). Keys that hold no live
//! element open no round ([`kcore_parallel::RunStats::keys_skipped`]).
//! Before the drain, the problem's scheduled decrements for the floor
//! apply ([`PeelProblem::round_decrements`]; weighted and clamped, so
//! the elements they bring down to the floor join its first frontier),
//! and the next scheduled round caps the skip.
//!
//! The loop is parameterized by **the subround step**, which peels one
//! frontier and returns the next one (the elements its decrements
//! dragged down to `k`), with its own sync and work accounting:
//!
//! * *fused* — [`Incidence::Unit`]: each frontier element
//!   settles and decrements its incident elements in one task, since
//!   atomic clamped unit decrements over static lists commute. One
//!   global sync per subround; VGC chases local chains inside the task,
//!   and sampling approximates hub priorities, each recounted exactly
//!   at most once, at a round end, so every hub settle is exact.
//! * *two-phase* — [`Incidence::Snapshot`]: stamp the whole frontier
//!   settled, barrier, then evaluate the problem's rule against the
//!   frozen [`SettleView`]. The rule emits unit decrements that may
//!   depend on other elements' settle state (k-truss: a dying edge
//!   decrements the other two edges of a triangle only while the
//!   triangle is still alive), applied through the CAS clamp
//!   [`clamped_update`]. Two global syncs per subround.
//!
//! Sampling and VGC refine the fused step only: a snapshot problem
//! accepts both and ignores them.

use super::sampling::SamplingState;
use super::vgc;
use crate::Config;
use kcore_buckets::{BucketStructure, Buckets, LiveView, UNSET};
use kcore_check::sync::atomic::{AtomicU32, Ordering};
use kcore_graph::GraphBackend;
use kcore_obs::span;
use kcore_parallel::{HashBag, RunStats, TechniqueCounters};
use rayon::prelude::*;

/// Unit-decrement incidence: `incident(e)` lists the elements whose
/// settling costs `e` exactly one priority unit each (and vice versa —
/// the relation is symmetric in every current client).
///
/// For k-core this is the graph adjacency itself (every
/// [`GraphBackend`] implements the trait via the blanket impl below),
/// and a problem's priorities must start at `num_incident(e)` minus any
/// units already absent.
pub trait UnitIncidence: Sync {
    /// Elements incident to `e`, in strictly increasing order.
    fn incident(&self, e: u32) -> &[u32];

    /// Number of incident elements.
    #[inline]
    fn num_incident(&self, e: u32) -> usize {
        self.incident(e).len()
    }
}

// Every graph backend is a unit incidence: the adjacency itself.
// This one impl covers `CsrGraph` and the delta overlay (the engine
// peels the logical base ± deltas graph directly, so batch-dynamic
// maintenance never rebuilds a CSR just to re-peel).
impl<G: GraphBackend> UnitIncidence for G {
    #[inline]
    fn incident(&self, v: u32) -> &[u32] {
        self.neighbors_slice(v)
    }

    #[inline]
    fn num_incident(&self, v: u32) -> usize {
        self.degree(v)
    }
}

/// Settle state of an element as seen from a [`SettleView`] snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElementState {
    /// Not settled in any subround so far.
    Alive,
    /// Settled in the *current* subround — dying together with the
    /// element being processed. Rules use this for tie-breaking so that
    /// a shared incidence (e.g. a triangle with two dying edges) is
    /// charged exactly once.
    Peer,
    /// Settled in an earlier subround (possibly an earlier round): its
    /// own settle processing already accounted for every incidence it
    /// participated in.
    Dead,
}

/// Consistent settle-state snapshot handed to [`SnapshotRule`]s.
///
/// All stamps for the current subround are written before any rule
/// runs (the engine inserts a global barrier between the phases), so
/// `state` answers identically no matter which worker asks or when.
pub struct SettleView<'a> {
    stamps: &'a [AtomicU32],
    current: u32,
}

impl<'a> SettleView<'a> {
    /// The view of subround `current` over per-element stamps (0 =
    /// never settled, otherwise the settling subround's id).
    pub(crate) fn new(stamps: &'a [AtomicU32], current: u32) -> Self {
        Self { stamps, current }
    }

    /// Settle state of element `e` in this subround's snapshot.
    #[inline]
    pub fn state(&self, e: u32) -> ElementState {
        let s = self.stamps[e as usize].load(Ordering::Relaxed);
        if s == 0 {
            ElementState::Alive
        } else if s == self.current {
            ElementState::Peer
        } else {
            ElementState::Dead
        }
    }

    /// Whether `e` survives this subround (not settled in it or any
    /// earlier one): neither [`ElementState::Peer`] nor
    /// [`ElementState::Dead`].
    #[inline]
    pub fn alive(&self, e: u32) -> bool {
        self.stamps[e as usize].load(Ordering::Relaxed) == 0
    }
}

/// A decrement rule that must observe other elements' settle state.
///
/// Invoked once per settled element per subround, strictly after every
/// same-subround settle has been stamped. Implementations must be
/// deterministic given the snapshot: for any shared incidence among
/// concurrently dying elements, exactly one of them may emit the
/// decrement (tie-break on element id — see the k-truss rule).
pub trait SnapshotRule: Sync {
    /// Calls `emit(t)` once for every element `t` that loses one
    /// priority unit because `e` settled at round `k`.
    fn for_each_decrement(&self, e: u32, k: u32, view: &SettleView<'_>, emit: &mut dyn FnMut(u32));
}

/// How settling an element lowers other elements' priorities — the
/// problem's clamped-decrement rule over its incidence relation.
pub enum Incidence<'p> {
    /// One unit per settled incident element over static lists; peeled
    /// by the fused step (one sync per subround, sampling and VGC
    /// available).
    Unit(&'p dyn UnitIncidence),
    /// Arbitrary rule against a consistent settle snapshot; peeled by
    /// the two-phase step (settle barrier before rule evaluation), with
    /// sampling and VGC ignored.
    Snapshot(&'p dyn SnapshotRule),
}

/// A peeling-with-monotone-priorities problem, pluggable into
/// [`PeelEngine`].
///
/// The contract mirrors the paper's framework: the engine repeatedly
/// extracts the minimum-priority frontier (round `k` takes every
/// element of priority exactly `k`, the smallest live priority),
/// settles it, and applies the problem's decrement rule, never letting
/// a priority drop below the current round (the clamp). `assemble`
/// receives each element's settle round — the generalized "coreness" —
/// plus the run's instrumentation.
pub trait PeelProblem: Sync {
    /// What the peel produces (coreness array, trussness array, best
    /// density prefix, ...).
    type Output;

    /// Problem name for diagnostics and benchmark tables.
    fn name(&self) -> &'static str;

    /// Size of the element universe (vertices for k-core, undirected
    /// edges for k-truss).
    fn num_elements(&self) -> usize;

    /// Initial priority of every element (induced degree, triangle
    /// support, ...).
    fn init_priorities(&self) -> Vec<u32>;

    /// The decrement rule.
    fn incidence(&self) -> Incidence<'_>;

    /// Scheduled decrements for round `k`: calls `emit(e, units)` to
    /// lower element `e` by `units` as the round opens. Default: none.
    ///
    /// The engine applies each pair once the floor reaches `k` (the
    /// next scheduled round caps every skip over empty keys, see
    /// [`PeelProblem::next_decrement_round`]) and before the bucket
    /// drain, through the same CAS clamp as every other decrement:
    /// settled elements and elements already at `k` are untouched, and
    /// an element lowered to `k` surfaces in round `k`'s first
    /// frontier. This models incidences outside the universe
    /// whose withdrawal time is known in advance (a re-peel's boundary:
    /// a neighbor of standing coreness `c` withdraws in round `c`).
    /// Sampling recounts priorities from the incidence lists alone, so
    /// an element named here must start above its incidence count,
    /// which keeps it out of sample mode.
    #[inline]
    fn round_decrements(&self, k: u32, emit: &mut dyn FnMut(u32, u32)) {
        let _ = (k, emit);
    }

    /// The smallest round `>= from` whose [`PeelProblem::round_decrements`]
    /// emit anything; `None` when no such round remains. Default: none.
    ///
    /// Rounds open at the smallest live priority, skipping empty keys;
    /// this caps the skip so that no scheduled round is jumped over. A
    /// problem that overrides `round_decrements` must override this
    /// too.
    #[inline]
    fn next_decrement_round(&self, from: u32) -> Option<u32> {
        let _ = from;
        None
    }

    /// Sequential point after a two-phase subround's rule phase: called
    /// once per subround with its settled `frontier`, after every rule
    /// evaluation of the subround has returned and before the next
    /// subround settles. No rule runs concurrently, so the problem may
    /// restructure state its rule reads. An element
    /// that is not [`SettleView::alive`] in `view` is dead in every
    /// later subround's view. Default: nothing.
    #[inline]
    fn after_rule_phase(&self, frontier: &[u32], view: &SettleView<'_>) {
        let _ = (frontier, view);
    }

    /// Builds the problem's result from per-element settle rounds and
    /// the run statistics.
    fn assemble(&self, rounds: Vec<u32>, stats: RunStats) -> Self::Output;
}

/// The generic peeling engine: Alg. 1's round/subround loop with the
/// Sec. 4 techniques, parameterized by a [`PeelProblem`].
///
/// The engine runs `config` exactly as given, whether a
/// [`crate::Decomposition`] builds it or a caller drives it directly.
pub struct PeelEngine<'p, P: PeelProblem> {
    problem: &'p P,
    config: Config,
}

impl<'p, P: PeelProblem> PeelEngine<'p, P> {
    /// Creates an engine over `problem` with `config` taken verbatim.
    pub fn new(problem: &'p P, config: Config) -> Self {
        Self { problem, config }
    }

    /// Peels the whole universe once and assembles the problem's
    /// result. Every technique is exact, so a run never restarts
    /// ([`RunStats::restarts`] stays 0).
    ///
    /// # Panics
    ///
    /// Panics when [`crate::Sampling::rate_log2`] is outside `0..=63`
    /// (the 64-bit edge hash cannot mask more bits), whether or not
    /// the problem's incidence uses sampling.
    pub fn run(&self) -> P::Output {
        if let Some(s) = self.config.techniques.sampling {
            assert!(s.rate_log2 < 64, "Sampling::rate_log2 must be in 0..=63, got {}", s.rate_log2);
        }
        if self.problem.num_elements() == 0 {
            return self.problem.assemble(Vec::new(), RunStats::default());
        }
        let mut stats = RunStats::default();
        let rounds = {
            // Run-root span, named after the problem; round/subround
            // spans nest inside.
            let _run = kcore_obs::SpanGuard::begin_dyn(
                self.problem.name(),
                self.problem.num_elements() as u64,
            );
            peel(&self.config, self.problem, &mut stats)
        };
        self.problem.assemble(rounds, stats)
    }
}

/// Picks the subround step for the problem's incidence and runs the
/// round loop with it.
fn peel<P: PeelProblem>(config: &Config, problem: &P, stats: &mut RunStats) -> Vec<u32> {
    let init = problem.init_priorities();
    match problem.incidence() {
        Incidence::Unit(inc) => {
            let step = Fused::new(config, inc, &init, stats);
            rounds(config, problem, init, step, stats)
        }
        Incidence::Snapshot(rule) => {
            let step = TwoPhase::new(init.len(), rule);
            rounds(config, problem, init, step, stats)
        }
    }
}

/// The round loop (Alg. 1), shared by every problem and technique.
///
/// Each round opens at the smallest live priority `k` and drains its
/// frontier from the bucket structure ([`open_round`]). The `step`
/// then peels frontier after frontier until the round is exhausted;
/// each subround's frontier is what the previous one dragged down to
/// `k`. Every element settled in the round records `k`.
///
/// Survivors always end a round with priority above `k` (the clamp
/// only ever stops a decrement exactly at it, and elements that reach
/// it are peeled), so live priorities stay exact across rounds and
/// `floor = k + 1` bounds them from below.
fn rounds<P: PeelProblem, S: Step>(
    config: &Config,
    problem: &P,
    init: Vec<u32>,
    mut step: S,
    stats: &mut RunStats,
) -> Vec<u32> {
    let n = init.len();
    let prio: Vec<AtomicU32> = init.iter().map(|&d| AtomicU32::new(d)).collect();
    let settled: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNSET)).collect();
    let mut bucket = config.bucket_strategy.build(&init);
    let max_prio = init.iter().copied().max().unwrap_or(0);
    drop(init);
    let mut remaining = n;
    let mut floor = 0u32;
    while remaining > 0 {
        assert!(floor <= max_prio, "peeling stalled: {remaining} elements left above {max_prio}");
        let _round = span!("round", floor);
        let view = LiveView { prio: &prio, settled: &settled };
        let (k, mut frontier) = {
            let _drain = span!("bucket.drain", floor);
            let (k, frontier, work) =
                open_round(problem, &step, &mut bucket, &view, floor, max_prio);
            stats.keys_skipped += u64::from(k - floor);
            stats.work += work;
            (k, frontier)
        };
        let r = Round { problem, prio: &prio, settled: &settled, bucket: &bucket, k };
        step.round_start(&r, &frontier);
        let mut subrounds = 0u32;
        loop {
            if frontier.is_empty() {
                frontier = step.round_end(&r);
                if frontier.is_empty() {
                    break;
                }
            }
            subrounds += 1;
            let _subround = span!("subround", frontier.len());
            remaining -= frontier.len();
            let wave = step.subround(&r, &frontier);
            remaining -= wave.chased;
            stats.max_frontier = stats.max_frontier.max(frontier.len());
            stats.work += frontier.len() as u64 + wave.work;
            stats.record_subround(wave.syncs, wave.chain);
            frontier = wave.next;
        }
        stats.record_round(subrounds);
        floor = k.saturating_add(1);
    }
    step.finish(stats);
    settled.into_iter().map(AtomicU32::into_inner).collect()
}

/// Opens the next round at or above `floor`: returns its key `k`, its
/// first frontier, and the scheduled decrements applied on the way
/// (work).
///
/// The round opens at the smallest live priority, so empty keys cost no
/// round. Two things cap the jump, because a round must open there
/// even if the bucket structure holds nothing below it:
/// * the problem's next scheduled-decrement round
///   ([`PeelProblem::next_decrement_round`]). Each floor the walk
///   reaches applies its own decrements before the drain; reaching the
///   cap with nothing below it moves the floor there and drains again;
/// * the step's [`Step::horizon`], a lower bound on the priority of
///   every element the bucket structure does not track exactly. When it
///   equals the floor, the round opens at the floor even with an empty
///   frontier, so the step's round-end check runs there.
fn open_round<P: PeelProblem, S: Step>(
    problem: &P,
    step: &S,
    bucket: &mut Buckets,
    view: &LiveView<'_>,
    mut floor: u32,
    max_prio: u32,
) -> (u32, Vec<u32>, u64) {
    let mut scheduled = 0u64;
    loop {
        assert!(floor <= max_prio, "peeling stalled: no live priority at or above {floor}");
        problem.round_decrements(floor, &mut |e, units| {
            scheduled += 1;
            let slot = &view.prio[e as usize];
            if let Some((prev, stored)) = clamped_update(slot, floor, |d| d.saturating_sub(units)) {
                bucket.on_decrease(e, prev, stored, floor);
            }
        });
        let horizon = step.horizon();
        debug_assert!(horizon >= floor, "the step's horizon {horizon} lies below floor {floor}");
        let next = floor + 1;
        if horizon <= floor {
            let (_, frontier) = bucket.next_frontier(floor, next, view);
            return (floor, frontier, scheduled);
        }
        let cap = problem.next_decrement_round(next).unwrap_or(u32::MAX);
        let cap = cap.min(horizon).min(max_prio + 1);
        let (k, frontier) = bucket.next_frontier(floor, cap, view);
        if k < cap {
            return (k, frontier, scheduled);
        }
        floor = cap;
    }
}

/// What a subround step sees of the round in progress.
struct Round<'a, P> {
    problem: &'a P,
    prio: &'a [AtomicU32],
    settled: &'a [AtomicU32],
    bucket: &'a Buckets,
    /// The round's key: its elements settle with it, no priority drops
    /// below it, and elements that reach it settle this round.
    k: u32,
}

/// One subround's outcome, as a step reports it to the round loop.
struct Wave {
    /// The next subround's frontier.
    next: Vec<u32>,
    /// Elements settled beyond the frontier itself (VGC chases).
    chased: usize,
    /// Global synchronizations the subround took.
    syncs: u64,
    /// Longest sequential chain within the subround.
    chain: u64,
    /// Work beyond touching the frontier itself.
    work: u64,
}

/// A subround step: how a frontier settles and lowers the priorities
/// its deaths affect.
trait Step {
    /// Round-start hook on the freshly drained frontier.
    fn round_start<P: PeelProblem>(&mut self, _r: &Round<'_, P>, _frontier: &[u32]) {}

    /// Round-end hook, called whenever a subround leaves no frontier:
    /// returns the elements that reopen the round.
    fn round_end<P: PeelProblem>(&mut self, _r: &Round<'_, P>) -> Vec<u32> {
        Vec::new()
    }

    /// Lower bound on the true priority of every live element whose
    /// bucket key is not exact; the next round opens no later than
    /// this, so [`Step::round_end`] runs at every key where such an
    /// element could settle. Read between rounds.
    fn horizon(&self) -> u32 {
        u32::MAX
    }

    /// Peels one frontier.
    fn subround<P: PeelProblem>(&mut self, r: &Round<'_, P>, frontier: &[u32]) -> Wave;

    /// Folds run-long counters into `stats` once the run completes.
    fn finish(&self, _stats: &mut RunStats) {}
}

/// Drains the hash bag into the next subround's frontier.
fn refile(bag: &mut HashBag) -> Vec<u32> {
    let _refile = span!("frontier.refile");
    bag.extract_all()
}

/// Shared references threaded through one fused subround's parallel
/// peel.
pub(crate) struct OnlineCtx<'a> {
    pub(crate) inc: &'a dyn UnitIncidence,
    pub(crate) prio: &'a [AtomicU32],
    pub(crate) settled: &'a [AtomicU32],
    pub(crate) bag: &'a HashBag,
    pub(crate) bucket: &'a Buckets,
    pub(crate) sampling: Option<&'a SamplingState>,
    pub(crate) counters: &'a TechniqueCounters,
    /// VGC chain bound; 0 disables chasing.
    pub(crate) chain_limit: u32,
}

/// The fused step for unit incidences: settle and decrement run in one
/// task per frontier element ([`vgc::peel_from`]), one global sync per
/// subround, with the sampling hooks around each round.
struct Fused<'p> {
    inc: &'p dyn UnitIncidence,
    sampling: Option<SamplingState>,
    counters: TechniqueCounters,
    chain_limit: u32,
    bag: HashBag,
}

impl<'p> Fused<'p> {
    fn new(
        config: &Config,
        inc: &'p dyn UnitIncidence,
        init: &[u32],
        stats: &mut RunStats,
    ) -> Self {
        let sampling =
            config.techniques.sampling.and_then(|cfg| SamplingState::build(inc, init, cfg));
        stats.sampled_vertices = sampling.as_ref().map_or(0, |s| s.num_sampled() as u64);
        Self {
            inc,
            sampling,
            counters: TechniqueCounters::new(),
            chain_limit: config.techniques.vgc.map_or(0, |v| v.chain_limit),
            bag: HashBag::new(init.len()),
        }
    }
}

impl Step for Fused<'_> {
    fn round_start<P: PeelProblem>(&mut self, r: &Round<'_, P>, frontier: &[u32]) {
        // Sample-mode elements surface with an exact priority (the
        // previous round end recounted every one that could reach it).
        if let Some(s) = &self.sampling {
            s.debug_assert_frontier_exact(frontier, r.k, self.inc, r.settled);
        }
    }

    fn round_end<P: PeelProblem>(&mut self, r: &Round<'_, P>) -> Vec<u32> {
        // Exact recounts of every sample-mode element that could settle
        // at the round's key. Anything caught at it belongs to this round
        // and re-opens it.
        match self.sampling.as_mut() {
            Some(s) => {
                s.validate_round_end(r.k, self.inc, r.prio, r.settled, r.bucket, &self.counters)
            }
            None => Vec::new(),
        }
    }

    fn horizon(&self) -> u32 {
        self.sampling.as_ref().map_or(u32::MAX, SamplingState::horizon)
    }

    fn subround<P: PeelProblem>(&mut self, r: &Round<'_, P>, frontier: &[u32]) -> Wave {
        self.counters.reset_subround();
        let arcs: usize = frontier.iter().map(|&v| self.inc.num_incident(v)).sum();
        let ctx = OnlineCtx {
            inc: self.inc,
            prio: r.prio,
            settled: r.settled,
            bag: &self.bag,
            bucket: r.bucket,
            sampling: self.sampling.as_ref(),
            counters: &self.counters,
            chain_limit: self.chain_limit,
        };
        frontier.par_iter().for_each(|&v| vgc::peel_from(&ctx, v, r.k));
        let c = &self.counters;
        Wave {
            chased: c.chased.load(Ordering::Relaxed) as usize,
            syncs: 1,
            chain: c.chain.get().max(1),
            work: arcs as u64 + c.chased_work.load(Ordering::Relaxed),
            next: refile(&mut self.bag),
        }
    }

    fn finish(&self, stats: &mut RunStats) {
        self.counters.merge_sampling_into(stats);
    }
}

/// Lowers priorities in a two-phase subround by one unit each and files
/// every element it moved: into the hash bag when it reached the
/// round's key `k` (it is peeled exactly once, in the next subround),
/// into the bucket structure otherwise.
struct Lowering<'a> {
    prio: &'a [AtomicU32],
    bag: &'a HashBag,
    bucket: &'a Buckets,
    k: u32,
}

impl Lowering<'_> {
    #[inline]
    fn lower(&self, t: u32) {
        if let Some((prev, stored)) = clamped_update(&self.prio[t as usize], self.k, |d| d - 1) {
            if stored == self.k {
                self.bag.insert(t);
            } else {
                self.bucket.on_decrease(t, prev, stored, self.k);
            }
        }
    }
}

/// The two-phase step for snapshot incidences: stamp the whole frontier
/// settled, then, after that barrier, run the rule for each settled
/// element against the frozen snapshot, lowering every element it
/// emits. Because the rule sees a fixed snapshot, the stored values,
/// and so the whole decomposition, are deterministic. Two global syncs
/// per subround.
struct TwoPhase<'p> {
    /// Subround stamps: 0 = never settled; ids start at 1 and never
    /// reset, so [`SettleView::state`] tells same-subround peers from
    /// the dead.
    stamps: Vec<AtomicU32>,
    current: u32,
    bag: HashBag,
    rule: &'p dyn SnapshotRule,
}

impl<'p> TwoPhase<'p> {
    fn new(n: usize, rule: &'p dyn SnapshotRule) -> Self {
        let stamps = (0..n).map(|_| AtomicU32::new(0)).collect();
        Self { stamps, current: 0, bag: HashBag::new(n), rule }
    }
}

impl Step for TwoPhase<'_> {
    fn subround<P: PeelProblem>(&mut self, r: &Round<'_, P>, frontier: &[u32]) -> Wave {
        self.current += 1;
        let (stamps, current) = (&self.stamps, self.current);
        // Settle the whole frontier first; the rule phase starts only
        // after this completes, so every worker sees the same snapshot.
        {
            let _settle = span!("settle", frontier.len());
            frontier.par_iter().for_each(|&e| {
                r.settled[e as usize].store(r.k, Ordering::Relaxed);
                stamps[e as usize].store(current, Ordering::Relaxed);
            });
        }
        let view = SettleView::new(stamps, current);
        let lower = Lowering { prio: r.prio, bag: &self.bag, bucket: r.bucket, k: r.k };
        let work = {
            let _rule = span!("rule", frontier.len());
            let rule = self.rule;
            frontier
                .par_iter()
                .map(|&e| {
                    let mut emitted = 0u64;
                    rule.for_each_decrement(e, r.k, &view, &mut |t| {
                        emitted += 1;
                        lower.lower(t);
                    });
                    emitted
                })
                .sum()
        };
        r.problem.after_rule_phase(frontier, &view);
        Wave { next: refile(&mut self.bag), chased: 0, syncs: 2, chain: 1, work }
    }
}

/// The generalized CAS clamp loop: lowers `slot` to
/// `max(proposed(current), floor)`, but only while the current value
/// sits above the floor and the proposal is an actual decrease.
/// Returns `(previous, stored)` for the single thread whose update
/// transitioned the slot, `None` otherwise — dead elements and
/// same-round frontier members are filtered by the clamp, never by an
/// explicit liveness check. `floor` is the current round's key `k`.
///
/// Unit and snapshot decrements propose `|d| d - 1`; a round's
/// scheduled decrements propose `d - units`.
#[inline]
pub(crate) fn clamped_update(
    slot: &AtomicU32,
    floor: u32,
    proposed: impl Fn(u32) -> u32,
) -> Option<(u32, u32)> {
    let mut stored = floor;
    slot.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
        if d <= floor {
            return None;
        }
        let nd = proposed(d).max(floor);
        if nd >= d {
            return None;
        }
        stored = nd;
        Some(nd)
    })
    .ok()
    .map(|prev| (prev, stored))
}
