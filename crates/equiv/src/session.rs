//! [`EquivSession`] — a cached, batched equivalence engine over one process.
//!
//! The free functions of this crate are *one-shot*: every call recomputes
//! the τ-closure and the weak transition relation of Theorem 4.1(a) before
//! it reaches the partition-refinement core, so answering `m` pair queries
//! costs `m` full pipelines.  A session owns one [`Fsp`] and computes each
//! derived artifact **once**, lazily, sharing it across every subsequent
//! query:
//!
//! ```text
//!           Fsp
//!            │
//!       TauClosure
//!            │  sorted weak rows, written in place
//!            ▼
//!  weak Instance (ccs-partition CSR) ──► one Partition per
//!            │                           Equivalence — the
//!  SaturatedView (borrows its arrays)    memoization key
//!            │
//!     SubsetAutomaton (memoized subset arena + PairCache)
//!            │
//!     product DFA ──► one refinement classifies Language/Trace/Failure
//!     ≈ₖ signatures ► one refinement per level
//! ```
//!
//! The PSPACE notions (`Language`, `Trace`, `Failure`, `KObservational`)
//! run on the shared [determinization layer](crate::determinize): one
//! memoized, interned subset automaton per session serves whole-space
//! classification (all `n` start subsets determinized into one product DFA,
//! classified by one partition refinement), individual pair queries (the
//! [`onthefly`] search, pruned by a persistent proven congruence per
//! notion — [`EquivSession::on_the_fly`], [`EquivSession::equivalent_states`]
//! and small [`EquivSession::equivalent_pairs`] batches all run it), and
//! the `≈ₖ` hierarchy (each level refines the same arena re-seeded with the
//! previous level's class-set signatures — a whole `k = 1..K` sweep explores
//! once).  The pre-determinization paths survive as oracles:
//! [`EquivSession::representative_scan_partition`] for the determinized
//! notions and [`kobs::kobs_partition`] for the levels.
//!
//! The weak transition relation has one copy: the weak [`Instance`], laid
//! out by [`saturate::weak_instance`] row by row, each sorted row written
//! straight into the CSR — no saturated [`Fsp`], no edge list, no sort.
//! [`EquivSession::saturated_view`] borrows its arrays, so the observational
//! refinement and the determinized notions read the same memory, and a
//! τ-free [`EquivSession::apply_delta`] patches that one relation.
//!
//! # Shared sessions: the `&self` query path
//!
//! Every query method takes `&self`: the lazy caches live behind
//! [`OnceLock`]s (the big immutable artifacts) and [`Mutex`]es (the
//! grow-on-demand ones — the subset arena, the pair caches and the
//! partition memo), so a built session is [`Sync`] and can be shared via
//! [`Arc`] across worker threads.  This is what the `ccs-server` crate
//! serves concurrent clients from: one resident session, many threads.
//!
//! Partition memoization is **single-flight**: each notion owns one inner
//! `OnceLock`, so when `m` threads race to classify the same notion, exactly
//! one runs the refinement and the other `m − 1` block on the lock and
//! reuse its result.  This memo is the only coalescer in the stack — the
//! `ccs-server` answers its `pair`, `classify` and `partition` ops straight
//! from [`EquivSession::classify_all`].  [`EquivSession::refinements_run`]
//! counts the refinements that actually executed — the counter the server's
//! `stats` op (and the concurrency tests) observe.
//!
//! Every general refinement runs the Kanellakis–Smolka both-halves loop
//! ([`refine_both_halves`]), and every product DFA is minimized with
//! Hopcroft.  The naive solver of `ccs-partition` stays as
//! the independent reference: tests run it over the session's own instances
//! ([`EquivSession::strong_instance`], [`EquivSession::weak_instance`])
//! through [`ccs_partition::solve`].
//!
//! # Amortized cost
//!
//! Per Theorem 4.1(a), one observational-equivalence query costs
//! `O(n·(n+m))` for the closure, `O(n²·|Σ|)` saturated edges, and one
//! refinement of the weak instance.  A session pays this once; each further
//! pair query against the same notion is a two-array lookup
//! ([`Partition::same_block`]), so a batch of `m` queries costs
//! `pipeline + O(m)` instead of `m × pipeline` — the
//! `weak_pipeline` bench and report table measure exactly this gap.
//!
//! # When to prefer a session
//!
//! Ask a single question about two processes with
//! [`Query::between`](crate::Query::between), or about two states of one
//! process with [`Query::states`](crate::Query::states): both open a
//! throwaway session, so they answer exactly as a held session would.
//! Hold a session when several queries target the same state space: batched
//! pair queries ([`EquivSession::equivalent_pairs`]), whole-space
//! classification ([`EquivSession::classify_all`]), or the same process
//! interrogated under several notions (the τ-closure and saturated CSR are
//! shared across notions).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use ccs_fsp::saturate::{tau_closure, weak_action_successors, TauClosure};
use ccs_fsp::{Fsp, Label, StateId};
use ccs_partition::kanellakis_smolka::refine_both_halves;
use ccs_partition::{naive, Instance, Partition};

use crate::check::Equivalence;
use crate::determinize::{self, DetNotion, PairCache, SubsetAutomaton};
use crate::onthefly::{self, OtfOutcome};
use crate::saturate::{self, SaturatedView};
use crate::EquivError;
use crate::{failures, kobs, language, relation, strong, traces};

/// One single-flight slot of the partition memo: racing queries for the
/// same key block on the shared inner `OnceLock` and split one result.
type PartitionCell = Arc<OnceLock<Arc<Partition>>>;

/// The mutable half of the determinization layer: the lazily grown subset
/// arena plus one pair cache per notion.  Both mutate on (otherwise
/// read-only) queries, so they share one lock.
#[derive(Debug, Default)]
struct DetState {
    automaton: Option<SubsetAutomaton>,
    pair_caches: HashMap<DetNotion, PairCache>,
}

/// What one [`EquivSession::apply_delta`] batch did to the session's
/// caches — which artifacts were patched or re-solved in place and which
/// were dropped for lazy rebuild.  Returned for diagnostics and asserted
/// on by the mutation-path tests; callers that only want the mutated
/// session can ignore it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionDeltaOutcome {
    /// Edges that were genuinely added (absent before the batch).
    pub effective_additions: usize,
    /// Edges that were genuinely removed (present before the batch).
    pub effective_removals: usize,
    /// The batch touched τ-transitions, so the closure and every weak
    /// artifact derived from it were dropped for lazy rebuild.
    pub tau_touched: bool,
    /// States whose weak action rows actually changed (0 when the batch is
    /// weak-redundant — every artifact then survives untouched).
    pub weak_rows_changed: usize,
    /// The session's one weak relation (the weak instance, which the
    /// [`SaturatedView`] reads) was patched in place rather than rebuilt.
    pub view_patched: bool,
    /// The subset arena (and its pair caches) had to be dropped because an
    /// interned subset could reach a changed weak row.
    pub arena_dropped: bool,
    /// Cached partitions re-solved inside the batch: each cached `Strong`
    /// partition whose instance was patched, and the cached
    /// `Observational` partition when the weak instance was patched, is
    /// replaced by a fresh refinement of the edited instance, so the next
    /// query finds it warm.
    pub partitions_delta_refined: usize,
}

/// A reusable equivalence-checking engine over one process.
///
/// All artifacts are computed lazily on first use and cached for the
/// session's lifetime; the process itself is immutable once the session is
/// created, which is what makes the caching sound.  The query path takes
/// `&self` throughout, so a session wrapped in an [`Arc`] serves concurrent
/// threads (see the [module docs](self) for the locking layout).
///
/// ```
/// use ccs_equiv::{EquivSession, Equivalence};
/// use ccs_fsp::format;
///
/// let f = format::parse("trans p tau q\ntrans q a r\ntrans s a t")?;
/// let session = EquivSession::for_process(&f);
/// let p = f.state_by_name("p").unwrap();
/// let s = f.state_by_name("s").unwrap();
/// let r = f.state_by_name("r").unwrap();
/// // One saturation + one refinement answers every pair.
/// let answers = session.equivalent_pairs(Equivalence::Observational, &[(p, s), (p, r)]);
/// assert_eq!(answers, vec![true, false]);
/// # Ok::<(), ccs_fsp::FspError>(())
/// ```
#[derive(Debug)]
pub struct EquivSession {
    fsp: Fsp,
    closure: OnceLock<TauClosure>,
    strong_instance: OnceLock<Instance>,
    weak_instance: OnceLock<Instance>,
    /// The shared memoized subset automaton of the determinization layer
    /// plus the per-notion pair caches (built lazily; serves
    /// Language/Trace/Failure classification and pair queries alike).
    det: Mutex<DetState>,
    /// Single-flight memo: one inner `OnceLock` per notion, so concurrent
    /// queries for the same partition run exactly one refinement.
    partitions: Mutex<HashMap<Equivalence, PartitionCell>>,
    /// Number of partition computations that actually executed (cache
    /// misses) — the coalescing evidence read by `refinements_run`.
    refinements: AtomicUsize,
    /// Number of times the τ-closure was computed from scratch.  Stays at
    /// one across τ-free [`EquivSession::apply_delta`] batches — the
    /// counter the mutation-path retention tests observe.
    closure_builds: AtomicUsize,
}

impl EquivSession {
    /// Creates a session owning `fsp`.
    #[must_use]
    pub fn new(fsp: Fsp) -> Self {
        EquivSession {
            fsp,
            closure: OnceLock::new(),
            strong_instance: OnceLock::new(),
            weak_instance: OnceLock::new(),
            det: Mutex::new(DetState::default()),
            partitions: Mutex::new(HashMap::new()),
            refinements: AtomicUsize::new(0),
            closure_builds: AtomicUsize::new(0),
        }
    }

    /// Creates a session over a clone of `fsp` — the delegation path of the
    /// one-shot free functions (the clone is `O(n + m)`, negligible next to
    /// any artifact the session builds).
    #[must_use]
    pub fn for_process(fsp: &Fsp) -> Self {
        EquivSession::new(fsp.clone())
    }

    /// The process this session answers queries about.
    #[must_use]
    pub fn fsp(&self) -> &Fsp {
        &self.fsp
    }

    /// The τ-closure `⇒ε` (computed once).
    pub fn tau_closure(&self) -> &TauClosure {
        self.closure.get_or_init(|| {
            self.closure_builds.fetch_add(1, Ordering::Relaxed);
            tau_closure(&self.fsp)
        })
    }

    /// Number of from-scratch τ-closure computations this session has run.
    /// A τ-free [`EquivSession::apply_delta`] keeps the cached closure, so
    /// the counter does not move; a τ-touching batch drops it and the next
    /// weak query bumps the count.
    #[must_use]
    pub fn closure_builds(&self) -> usize {
        self.closure_builds.load(Ordering::Relaxed)
    }

    /// The weak transition relation by `(state, action)`: a view of
    /// [`EquivSession::weak_instance`]'s arrays, so building either builds
    /// both.
    pub fn saturated_view(&self) -> SaturatedView<'_> {
        SaturatedView::of(self.weak_instance())
    }

    /// The Lemma 3.1 strong-equivalence instance (computed once).
    pub fn strong_instance(&self) -> &Instance {
        self.strong_instance
            .get_or_init(|| strong::to_instance(&self.fsp))
    }

    /// The Theorem 4.1(a) instance: the weak transition relation over
    /// `Σ ∪ {ε}`, laid out row by row from the cached closure
    /// ([`saturate::weak_instance`]), with the extension-set initial
    /// partition.  The session's only copy of `⇒`; computed once.
    pub fn weak_instance(&self) -> &Instance {
        self.weak_instance
            .get_or_init(|| saturate::weak_instance(&self.fsp, self.tau_closure()))
    }

    /// Size of the session's shared subset arena: 0 until some PSPACE query
    /// builds it.  A read-only diagnostic — e.g. for the report's DET table.
    #[must_use]
    pub fn subset_arena_size(&self) -> usize {
        let det = self.det.lock().expect("det lock poisoned");
        det.automaton
            .as_ref()
            .map_or(0, SubsetAutomaton::num_subsets)
    }

    /// Number of lazily computed subset transitions so far (diagnostic
    /// companion of [`EquivSession::subset_arena_size`]; 0 without an
    /// arena).
    #[must_use]
    pub fn subset_steps_computed(&self) -> usize {
        let det = self.det.lock().expect("det lock poisoned");
        det.automaton
            .as_ref()
            .map_or(0, SubsetAutomaton::steps_computed)
    }

    /// The partition of *all* states into `notion`-equivalence classes,
    /// memoized per notion.  Strong and observational equivalence run the
    /// Kanellakis–Smolka both-halves refiner.
    ///
    /// Concurrent callers racing on the same notion are **coalesced**: one
    /// of them runs the computation, the rest block and share its result
    /// (see [`EquivSession::refinements_run`]).
    ///
    /// The PSPACE-complete notions `Language`, `Trace` and `Failure` go
    /// through the shared [determinization layer](crate::determinize): all
    /// `n` ε-closure start subsets are determinized into **one** product
    /// DFA over the session's memoized subset arena and classified by **one**
    /// partition refinement — no per-pair subset construction, no
    /// representative scan.  `KObservational` grows level by level on the
    /// *same* arena: level `k+1` refines the subset DFA re-seeded with
    /// level-`k` class-set signatures, so a whole sweep costs one
    /// exploration plus one linear pass and one refinement per level.
    /// Expect exponential worst-case behaviour in the arena size, exactly
    /// as Theorem 4.1(b)/5.1 demand — but paid once per subset, not once
    /// per pair (or per pair per level).
    pub fn classify_all(&self, notion: Equivalence) -> Arc<Partition> {
        self.memoized(notion, || self.compute_partition(notion))
    }

    /// The single-flight memo slot for `notion`: returns the cached
    /// partition, or runs `compute` once while racing callers wait.
    fn memoized(&self, notion: Equivalence, compute: impl FnOnce() -> Partition) -> Arc<Partition> {
        let cell = {
            let mut map = self.partitions.lock().expect("partitions lock poisoned");
            Arc::clone(map.entry(notion).or_default())
        };
        Arc::clone(cell.get_or_init(|| {
            self.refinements.fetch_add(1, Ordering::Relaxed);
            Arc::new(compute())
        }))
    }

    /// The memoized partition for `notion`, if some call already computed it.
    fn cached_partition(&self, notion: Equivalence) -> Option<Arc<Partition>> {
        let map = self.partitions.lock().expect("partitions lock poisoned");
        map.get(&notion).and_then(|cell| cell.get()).cloned()
    }

    fn compute_partition(&self, notion: Equivalence) -> Partition {
        match notion {
            Equivalence::Strong => refine_both_halves(self.strong_instance()),
            Equivalence::Observational => refine_both_halves(self.weak_instance()),
            // `≃ₖ` is level `k` of the naive rounds over the weak instance
            // (initial blocks by extension set, columns Σ plus ε), holding
            // one level at a time whatever `k` is.
            Equivalence::Limited(k) => naive::level(self.weak_instance(), k),
            Equivalence::KObservational(k) => {
                if k == 0 {
                    return Partition::from_assignment(&strong::extension_assignment(&self.fsp));
                }
                // Walk the levels bottom-up in a loop, so every one lands in
                // the memo and no `k` recurses.  Each level is a function of
                // the previous one, so the first level equal to its
                // predecessor is the fixpoint of the hierarchy and answers
                // every deeper `k` as it is.
                let mut prev = self.classify_all(Equivalence::KObservational(0));
                for level in 1..k {
                    let next = self.memoized(Equivalence::KObservational(level), || {
                        self.kobs_level(&prev)
                    });
                    if next == prev {
                        return next.as_ref().clone();
                    }
                    prev = next;
                }
                self.kobs_level(&prev)
            }
            Equivalence::Language | Equivalence::Trace | Equivalence::Failure => {
                let det = DetNotion::of(notion).expect("matched a determinizable notion");
                let view = self.saturated_view();
                let mut state = self.det.lock().expect("det lock poisoned");
                let auto = state
                    .automaton
                    .get_or_insert_with(|| SubsetAutomaton::new(&self.fsp));
                determinize::determinized_partition(auto, view, det, self.fsp.num_states())
            }
        }
    }

    /// One `≈ₖ` level from its predecessor.  Every level rides the
    /// session's shared subset arena: the exploration is memoized, so a
    /// `k = 1..K` sweep explores once and every further level is one
    /// signature pass plus one refinement of the re-seeded subset DFA.
    fn kobs_level(&self, prev: &Partition) -> Partition {
        let view = self.saturated_view();
        let mut state = self.det.lock().expect("det lock poisoned");
        let auto = state
            .automaton
            .get_or_insert_with(|| SubsetAutomaton::new(&self.fsp));
        kobs::arena_level(auto, view, self.fsp.num_states(), prev)
    }

    /// The pre-determinization classification of the PSPACE notions, kept as
    /// a cross-check **oracle**: states are grouped by comparing each one
    /// against one representative per known class with the original
    /// per-pair subset-construction checkers
    /// ([`language`], [`traces`], [`failures`]) — one independent on-the-fly
    /// determinization per `(state, representative)` pair.  The determinized
    /// [`EquivSession::classify_all`] must produce exactly this partition;
    /// the root property suite and the report's DET table assert it.
    ///
    /// The result is *not* memoized (this is the slow path by design).
    ///
    /// # Panics
    ///
    /// Panics if `notion` is not one of `Language`, `Trace`, `Failure`.
    pub fn representative_scan_partition(&self, notion: Equivalence) -> Partition {
        assert!(
            DetNotion::of(notion).is_some(),
            "representative scan only covers the pairwise PSPACE notions"
        );
        // Each pair query runs against the cached closure or view.
        let fsp = &self.fsp;
        relation::representative_scan(fsp.num_states(), |s, rep| match notion {
            Equivalence::Language => {
                language::language_equivalent_states_with(fsp, self.tau_closure(), s, rep).holds
            }
            Equivalence::Trace => {
                traces::trace_equivalent_states_with(fsp, self.tau_closure(), s, rep).holds
            }
            Equivalence::Failure => {
                let view = self.saturated_view();
                failures::failure_equivalent_states_with(fsp, view, s, rep).equivalent
            }
            _ => unreachable!("checked above"),
        })
    }

    /// One pair query through the determinization layer: the two ε-closure
    /// start subsets are looked up in (or added to) the shared arena and the
    /// [`onthefly`] search runs over them, pruned by the notion's
    /// [`PairCache`].  Every pair-query entry point lands here.
    fn det_search(&self, notion: DetNotion, p: StateId, q: StateId) -> OtfOutcome {
        let view = self.saturated_view();
        let mut state = self.det.lock().expect("det lock poisoned");
        let DetState {
            automaton,
            pair_caches,
        } = &mut *state;
        let auto = automaton.get_or_insert_with(|| SubsetAutomaton::new(&self.fsp));
        let cache = pair_caches.entry(notion).or_default();
        let (left, right) = (auto.start(view, p), auto.start(view, q));
        onthefly::search(&self.fsp, auto, view, cache, notion, left, right)
    }

    /// On-the-fly pair check with witness and exploration stats: the
    /// [`onthefly`] BFS worklist over the session's shared subset arena and
    /// [`PairCache`], stopping at the first distinguishing pair and
    /// reconstructing its trace.
    ///
    /// The verdict always agrees with [`EquivSession::equivalent_states`];
    /// what this entry point adds is the replayable
    /// [`OtfWitness`](crate::onthefly::OtfWitness) on refutation and the
    /// [`OtfStats`](crate::onthefly::OtfStats) counters, without forcing
    /// the full determinized partition.  Everything the search learns —
    /// arena subsets, lazy transitions, proven pairs — lands in the session
    /// caches and accelerates later queries of any kind.
    ///
    /// # Errors
    ///
    /// [`EquivError::ModelMismatch`] if `notion` has no determinizable face
    /// ([`DetNotion::of`]): the engine covers `language`, `trace` and
    /// `failure`; the branching-time notions need the refinement path.
    pub fn on_the_fly(
        &self,
        notion: Equivalence,
        p: StateId,
        q: StateId,
    ) -> Result<OtfOutcome, EquivError> {
        let det = DetNotion::of(notion).ok_or_else(|| EquivError::ModelMismatch {
            expected: format!(
                "a determinizable notion (language, trace, failure) for the \
                 on-the-fly engine; {notion} is decided by partition refinement"
            ),
        })?;
        Ok(self.det_search(det, p, q))
    }

    /// Tests whether two states are related by `notion`.
    ///
    /// Refinement-backed notions answer from the memoized partition; the
    /// PSPACE notions run the on-the-fly pair search over the shared subset
    /// arena and drop its witness (or do a two-array lookup once a batch
    /// has forced the full determinized partition).
    pub fn equivalent_states(&self, p: StateId, q: StateId, notion: Equivalence) -> bool {
        match DetNotion::of(notion) {
            Some(det) => {
                if let Some(partition) = self.cached_partition(notion) {
                    return partition.same_block(p.index(), q.index());
                }
                self.det_search(det, p, q).equivalent
            }
            None => self.classify_all(notion).same_block(p.index(), q.index()),
        }
    }

    /// Answers a whole batch of pair queries from **one** refinement: the
    /// `notion`-partition is computed (or fetched) once and each pair is a
    /// two-array lookup.
    ///
    /// Exception: for the PSPACE notions (`Language`, `Trace`, `Failure`) a
    /// *small* batch — fewer pairs than states, with no partition cached
    /// yet — is answered pair by pair by the on-the-fly search, since full
    /// classification determinizes from every state and would dwarf the
    /// batch; the per-pair searches still share the session's one subset
    /// arena and its proven congruence.
    pub fn equivalent_pairs(&self, notion: Equivalence, pairs: &[(StateId, StateId)]) -> Vec<bool> {
        let cached = self.cached_partition(notion).is_some();
        if let Some(det) = DetNotion::of(notion) {
            if !cached && pairs.len() < self.fsp.num_states() {
                return pairs
                    .iter()
                    .map(|&(p, q)| self.det_search(det, p, q).equivalent)
                    .collect();
            }
        }
        let partition = self.classify_all(notion);
        pairs
            .iter()
            .map(|&(p, q)| partition.same_block(p.index(), q.index()))
            .collect()
    }

    /// Number of memoized partitions (diagnostic; used by the cache tests).
    #[must_use]
    pub fn cached_partitions(&self) -> usize {
        let map = self.partitions.lock().expect("partitions lock poisoned");
        map.values().filter(|cell| cell.get().is_some()).count()
    }

    /// Number of partition computations that actually executed, across all
    /// notions.  Because memoization is single-flight,
    /// `m` concurrent queries against one key bump this by exactly one —
    /// the coalescing evidence the `ccs-server` stats (and the concurrent
    /// integration tests) report.
    #[must_use]
    pub fn refinements_run(&self) -> usize {
        self.refinements.load(Ordering::Relaxed)
    }

    /// Applies an edge batch — removals first, then additions — to the
    /// owned process and repairs the session's caches instead of dropping
    /// them wholesale:
    ///
    /// * **τ-free batches keep the τ-closure.**  `⇒ε` only depends on
    ///   τ-edges, so the cached [`TauClosure`] (and the
    ///   [`EquivSession::closure_builds`] counter) survive.  The weak
    ///   action rows that *might* have changed are exactly those of states
    ///   that τ-reach an edited source; the weak instance still holds their
    ///   old rows, which are diffed against the recomputed ones.
    /// * **Weak-redundant batches keep everything.**  If no weak row
    ///   changed, the weak instance (and so the saturated view), the subset
    ///   arena and every non-strong partition are bit-for-bit still correct
    ///   and stay put.
    /// * **Dirty rows are patched, not rebuilt.**  Otherwise the weak
    ///   instance takes the row diff in one relayout — the view reads the
    ///   patched arrays — and cached `Strong`/`Observational`
    ///   partitions are re-solved on the patched instance with
    ///   [`refine_both_halves`], the refiner every other solve runs, so the
    ///   next query reads them from the memo.
    /// * **The subset arena survives when the edit cannot reach it.**  A
    ///   determinized verdict depends on the forward cone of its subsets;
    ///   the arena (and its pair caches) are kept iff no interned subset
    ///   intersects the backward reachability cone of the dirty states over
    ///   the old-plus-new edges — the cone's complement is successor-closed,
    ///   so every retained exploration replays identically.
    /// * **τ-touching batches drop the weak artifacts** for lazy rebuild
    ///   (the closure itself changed); cached strong partitions are still
    ///   re-solved in place, since Lemma 3.1 needs no saturation.
    ///
    /// Takes `&mut self` — mutate between query phases, not mid-query; the
    /// `ccs-server` registry unshares a session before calling this.
    ///
    /// # Panics
    ///
    /// Panics if an edge names a state or action outside the process —
    /// a mutation rewires `Δ` over the existing state space and alphabet.
    pub fn apply_delta(
        &mut self,
        additions: &[(StateId, Label, StateId)],
        removals: &[(StateId, Label, StateId)],
    ) -> SessionDeltaOutcome {
        let (eff_added, eff_removed) = self.fsp.effective_edits(additions, removals);
        let mut outcome = SessionDeltaOutcome {
            effective_additions: eff_added.len(),
            effective_removals: eff_removed.len(),
            ..SessionDeltaOutcome::default()
        };
        if eff_added.is_empty() && eff_removed.is_empty() {
            return outcome;
        }
        let tau_free = eff_added
            .iter()
            .chain(&eff_removed)
            .all(|(_, l, _)| *l != Label::Tau);
        outcome.tau_touched = !tau_free;

        self.fsp.apply_edge_delta(&eff_added, &eff_removed);

        // Strong side: the Lemma 3.1 instance mirrors the direct relation
        // edge for edge, so the effective sets map straight onto it.  The
        // one wrinkle is a τ-edge appearing on a process that had none: the
        // old instance has no τ label, so it (and its partitions) rebuild
        // lazily instead.
        let eps_label = self.fsp.num_actions();
        let to_strong = |&(f, l, t): &(StateId, Label, StateId)| {
            let label = match l {
                Label::Act(a) => a.index(),
                Label::Tau => eps_label,
            };
            (label, f.index(), t.index())
        };
        let strong_adds: Vec<(usize, usize, usize)> = eff_added.iter().map(to_strong).collect();
        let strong_removes: Vec<(usize, usize, usize)> =
            eff_removed.iter().map(to_strong).collect();
        let strong_updated = match self.strong_instance.get_mut() {
            Some(inst)
                if strong_adds
                    .iter()
                    .chain(&strong_removes)
                    .all(|&(l, _, _)| l < inst.num_labels()) =>
            {
                inst.apply_delta(&strong_adds, &strong_removes);
                true
            }
            _ => {
                self.strong_instance = OnceLock::new();
                false
            }
        };

        // Weak side: three fates.  `Dropped` — the batch touched τ, so the
        // closure and everything weak rebuild lazily.  `Valid` — no weak row
        // changed, or there is no weak instance (every weak artifact reads
        // it), so everything stays.  `Updated` — the weak instance takes the
        // row diff in place, dependents are retained exactly where the proof
        // allows.
        enum WeakFate {
            Dropped,
            Valid,
            Updated,
        }
        let weak_fate = if !tau_free {
            self.closure = OnceLock::new();
            self.weak_instance = OnceLock::new();
            let det = self.det.get_mut().expect("det lock poisoned");
            outcome.arena_dropped = det.automaton.is_some();
            *det = DetState::default();
            WeakFate::Dropped
        } else if let (Some(closure), Some(inst)) =
            (self.closure.get(), self.weak_instance.get_mut())
        {
            // The closure survives a τ-free batch, so the only weak rows
            // that can change belong to states that τ-reach an edited
            // source.  The instance still holds their old rows: each one
            // that differs from the edited process's row is swapped out in
            // one batch, whose effective edits are the row diff.
            let mut sources: Vec<StateId> = eff_added
                .iter()
                .chain(&eff_removed)
                .map(|&(f, _, _)| f)
                .collect();
            sources.sort_unstable();
            sources.dedup();
            let (mut adds, mut removes) = (Vec::new(), Vec::new());
            for p in self.fsp.state_ids() {
                if !sources.iter().any(|&s| closure.reaches(p, s)) {
                    continue;
                }
                for a in self.fsp.action_ids() {
                    let (l, from) = (a.index(), p.index());
                    let new_row = weak_action_successors(&self.fsp, closure, p, a);
                    let old_row = inst.successors(l, from);
                    if !new_row
                        .iter()
                        .map(|q| q.index())
                        .eq(old_row.iter().map(|q| q.index()))
                    {
                        adds.extend(new_row.iter().map(|q| (l, from, q.index())));
                        removes.extend(old_row.iter().map(|q| (l, from, q.index())));
                    }
                }
            }
            let (weak_adds, weak_removes) = inst.apply_delta(&adds, &removes);
            let mut dirty: Vec<StateId> = weak_adds
                .iter()
                .chain(&weak_removes)
                .map(|&(_, from, _)| StateId::from_index(from))
                .collect();
            dirty.sort_unstable();
            dirty.dedup();
            outcome.weak_rows_changed = dirty.len();
            if dirty.is_empty() {
                WeakFate::Valid
            } else {
                outcome.view_patched = true;
                let det = self.det.get_mut().expect("det lock poisoned");
                if let Some(auto) = det.automaton.as_ref() {
                    let in_cone = backward_reach(&self.fsp, &eff_removed, &dirty);
                    let affected = (0..auto.num_subsets()).any(|i| {
                        let id = u32::try_from(i).expect("arena ids are u32");
                        auto.subset(id).iter().any(|&s| in_cone[s as usize])
                    });
                    if affected {
                        outcome.arena_dropped = true;
                        *det = DetState::default();
                    }
                }
                WeakFate::Updated
            }
        } else {
            WeakFate::Valid
        };

        // Partition memo: re-solve what rests on a patched instance, keep
        // what the weak fate proves untouched, drop the rest for lazy
        // recomputation.  Cells are rebuilt rather than mutated — the memo
        // is single-flight per cell, and `&mut self` guarantees no reader.
        let map = self.partitions.get_mut().expect("partitions lock poisoned");
        let old_cells = std::mem::take(map);
        for (notion, cell) in old_cells {
            if cell.get().is_none() {
                continue; // never computed: drop the empty cell
            }
            // Level 0 of `≈ₖ` is the extension-set partition — edge edits
            // cannot touch it — and a valid weak fate keeps every notion
            // but the strong one.
            let untouched = match notion {
                Equivalence::Strong => false,
                Equivalence::KObservational(0) => true,
                _ => matches!(weak_fate, WeakFate::Valid),
            };
            if untouched {
                map.insert(notion, cell);
                continue;
            }
            let patched = match (notion, &weak_fate) {
                (Equivalence::Strong, _) if strong_updated => Some(&self.strong_instance),
                (Equivalence::Observational, WeakFate::Updated) => Some(&self.weak_instance),
                _ => None,
            };
            if let Some(inst) = patched {
                let inst = inst.get().expect("updated in place");
                let fresh: PartitionCell = Arc::default();
                fresh
                    .set(Arc::new(refine_both_halves(inst)))
                    .expect("freshly created partition cell");
                map.insert(notion, fresh);
                outcome.partitions_delta_refined += 1;
            }
        }
        outcome
    }

    /// Heap bytes held by the session's subset arena (0 until some PSPACE
    /// query builds it) — the determinization share of
    /// [`EquivSession::approx_resident_bytes`], exposed for the `mem`
    /// report table.
    #[must_use]
    pub fn subset_arena_bytes(&self) -> usize {
        let det = self.det.lock().expect("det lock poisoned");
        det.automaton
            .as_ref()
            .map_or(0, SubsetAutomaton::resident_bytes)
    }

    /// Resident size of the session in bytes: the process itself plus every
    /// cache the session has materialized so far, each measured from its
    /// live container capacities (`resident_bytes` on the artifact).  Used
    /// by the `ccs-server` registry for LRU byte accounting and by the `mem`
    /// report table.  Allocator slack and per-allocation headers are not
    /// counted, so the figure is a measured lower bound on allocator truth —
    /// but an honest count of what the structures hold, not an element-count
    /// guess.
    #[must_use]
    pub fn approx_resident_bytes(&self) -> usize {
        let mut bytes = self.fsp.resident_bytes();
        if let Some(closure) = self.closure.get() {
            bytes += closure.resident_bytes();
        }
        for inst in [self.strong_instance.get(), self.weak_instance.get()]
            .into_iter()
            .flatten()
        {
            bytes += inst.resident_bytes();
        }
        {
            let det = self.det.lock().expect("det lock poisoned");
            if let Some(auto) = det.automaton.as_ref() {
                bytes += auto.resident_bytes();
            }
            bytes += det
                .pair_caches
                .values()
                .map(PairCache::resident_bytes)
                .sum::<usize>();
        }
        {
            let map = self.partitions.lock().expect("partitions lock poisoned");
            bytes += map
                .values()
                .filter_map(|cell| cell.get())
                .map(|p| p.resident_bytes())
                .sum::<usize>();
        }
        bytes
    }
}

/// Characteristic vector of the backward reachability cone of `seeds`
/// under the union of the current (post-mutation) transition relation and
/// the `extra` edges — the removed ones, so the cone covers the old and
/// the new graph at once.  Its complement is successor-closed in both
/// graphs, which is what lets `apply_delta` keep subset-arena entries
/// whose members all live outside it.
fn backward_reach(fsp: &Fsp, extra: &[(StateId, Label, StateId)], seeds: &[StateId]) -> Vec<bool> {
    let n = fsp.num_states();
    let mut preds: Vec<Vec<StateId>> = vec![Vec::new(); n];
    for (f, _, t) in fsp.all_transitions() {
        preds[t.index()].push(f);
    }
    for &(f, _, t) in extra {
        preds[t.index()].push(f);
    }
    let mut in_cone = vec![false; n];
    let mut stack: Vec<StateId> = seeds.to_vec();
    for &s in seeds {
        in_cone[s.index()] = true;
    }
    while let Some(q) = stack.pop() {
        for &p in &preds[q.index()] {
            if !in_cone[p.index()] {
                in_cone[p.index()] = true;
                stack.push(p);
            }
        }
    }
    in_cone
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{weak, Equivalence};
    use ccs_fsp::format;
    use ccs_partition::Algorithm;

    fn table_ii_pair() -> (Fsp, Fsp) {
        // a.(b + c) vs a.b + a.c, restricted — the paper's running example.
        let merged =
            format::parse("trans p a q\ntrans q b r\ntrans q c s\naccept p q r s").unwrap();
        let split =
            format::parse("trans u a v\ntrans u a w\ntrans v b x\ntrans w c y\naccept u v w x y")
                .unwrap();
        (merged, split)
    }

    /// The whole point of the interior-mutability refactor: a built session
    /// is `Send + Sync`, so `Arc<EquivSession>` can fan out across worker
    /// threads.
    #[test]
    fn session_is_send_and_sync() {
        fn assert_shareable<T: Send + Sync>() {}
        assert_shareable::<EquivSession>();
        assert_shareable::<Arc<EquivSession>>();
    }

    /// Eight threads racing on the same notion must get
    /// byte-identical answers from exactly ONE refinement.
    #[test]
    fn concurrent_queries_coalesce_into_one_refinement() {
        let f = format::parse(
            "trans a tau b\ntrans b x c\ntrans c tau a\ntrans d x e\ntrans e tau d\naccept c e",
        )
        .unwrap();
        let session = Arc::new(EquivSession::for_process(&f));
        let oracle = weak::weak_partition_with(&f, Algorithm::Naive);
        let answers: Vec<Vec<bool>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let session = Arc::clone(&session);
                    scope.spawn(move || {
                        let states: Vec<StateId> = session.fsp().state_ids().collect();
                        let mut got = Vec::new();
                        for &p in &states {
                            for &q in &states {
                                got.push(session.equivalent_states(
                                    p,
                                    q,
                                    Equivalence::Observational,
                                ));
                            }
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let states: Vec<StateId> = f.state_ids().collect();
        let oracle = &oracle;
        let expected: Vec<bool> = states
            .iter()
            .flat_map(|&p| states.iter().map(move |&q| oracle.equivalent(p, q)))
            .collect();
        for got in &answers {
            assert_eq!(got, &expected);
        }
        assert_eq!(session.refinements_run(), 1, "queries did not coalesce");
    }

    #[test]
    fn weak_instance_partition_matches_free_function() {
        let f = format::parse(
            "trans a tau b\ntrans b x c\ntrans c tau a\ntrans d x e\ntrans e tau d\naccept c e",
        )
        .unwrap();
        let session = EquivSession::for_process(&f);
        let from_session = session.classify_all(Equivalence::Observational);
        for alg in Algorithm::ALL {
            assert_eq!(
                from_session.as_ref(),
                weak::weak_partition_with(&f, alg).partition(),
                "{alg}"
            );
            // Independent oracle: the pre-refactor pipeline — materialize
            // the saturated process, then refine it — must agree with the
            // session's weak instance.
            let legacy =
                crate::strong::strong_partition_with(&ccs_fsp::saturate::saturate(&f).fsp, alg);
            assert_eq!(
                from_session.as_ref(),
                legacy.partition(),
                "legacy oracle, {alg}"
            );
        }
    }

    /// The session must also agree with the legacy pipeline when the view
    /// is asked for first (it builds the weak instance it reads).
    #[test]
    fn weak_instance_derived_from_cached_view_matches_legacy() {
        let f = format::parse(
            "trans p tau q\ntrans q a r\ntrans r tau p\ntrans s a t\ntrans s tau s\naccept r t",
        )
        .unwrap();
        let session = EquivSession::for_process(&f);
        session.saturated_view();
        let from_session = session.classify_all(Equivalence::Observational);
        let legacy = crate::strong::strong_partition_with(
            &ccs_fsp::saturate::saturate(&f).fsp,
            Algorithm::Naive,
        );
        assert_eq!(from_session.as_ref(), legacy.partition());
    }

    #[test]
    fn session_agrees_with_dispatch_on_table_ii() {
        let (merged, split) = table_ii_pair();
        let union = ccs_fsp::ops::disjoint_union(&merged, &split);
        let (p, q) = ccs_fsp::ops::union_starts(&union, &merged, &split);
        let session = EquivSession::new(union.fsp.clone());
        for notion in [
            Equivalence::Strong,
            Equivalence::Observational,
            Equivalence::Limited(2),
            Equivalence::KObservational(1),
            Equivalence::KObservational(2),
            Equivalence::Language,
            Equivalence::Trace,
            Equivalence::Failure,
        ] {
            let expected = crate::Query::new(notion).states(&union.fsp, p, q).unwrap();
            assert_eq!(
                session.equivalent_states(p, q, notion),
                expected,
                "{notion}"
            );
        }
    }

    #[test]
    fn batched_queries_answer_from_one_partition() {
        let f = format::parse("trans p tau q\ntrans q a r\ntrans s a t").unwrap();
        let states: Vec<StateId> = f.state_ids().collect();
        let mut pairs = Vec::new();
        for &a in &states {
            for &b in &states {
                pairs.push((a, b));
            }
        }
        let session = EquivSession::for_process(&f);
        let answers = session.equivalent_pairs(Equivalence::Observational, &pairs);
        let wp = weak::weak_partition_with(&f, Algorithm::Naive);
        for (&(a, b), &got) in pairs.iter().zip(&answers) {
            assert_eq!(got, wp.equivalent(a, b), "{a} vs {b}");
        }
        // The whole batch plus the repeat is served by one cached partition.
        assert_eq!(session.cached_partitions(), 1);
        assert_eq!(
            session.equivalent_pairs(Equivalence::Observational, &pairs),
            answers
        );
        assert_eq!(session.cached_partitions(), 1);
        assert_eq!(session.refinements_run(), 1);
    }

    #[test]
    fn kobs_levels_fill_the_cache_bottom_up() {
        let (merged, split) = table_ii_pair();
        let union = ccs_fsp::ops::disjoint_union(&merged, &split);
        let session = EquivSession::new(union.fsp);
        let _ = session.classify_all(Equivalence::KObservational(2));
        // Levels 0, 1 and 2 are all memoized.
        assert_eq!(session.cached_partitions(), 3);
    }

    /// A deep `≈ₖ` request walks the levels in a loop and stops at the
    /// hierarchy's fixpoint: its stack depth does not grow with `k`, and
    /// the memo holds one entry per level up to the fixpoint, plus `k`.
    #[test]
    fn deep_kobs_requests_stop_at_the_fixpoint() {
        let f = format::parse("trans p a q\ntrans q b r\ntrans q c s\naccept s").unwrap();
        let n = f.num_states();
        let session = EquivSession::for_process(&f);
        let deep = session.classify_all(Equivalence::KObservational(1_000_000));
        assert_eq!(deep.as_ref(), &kobs::kobs_partition(&f, n + 1));
        assert!(session.cached_partitions() <= n + 3);
    }

    #[test]
    fn pairwise_notions_classify_consistently() {
        let (merged, split) = table_ii_pair();
        let union = ccs_fsp::ops::disjoint_union(&merged, &split);
        let fsp = union.fsp.clone();
        let session = EquivSession::new(union.fsp);
        for notion in [
            Equivalence::Failure,
            Equivalence::Trace,
            Equivalence::Language,
        ] {
            let partition = session.classify_all(notion);
            for p in fsp.state_ids() {
                for q in fsp.state_ids() {
                    let expected = crate::Query::new(notion).states(&fsp, p, q).unwrap();
                    assert_eq!(
                        partition.same_block(p.index(), q.index()),
                        expected,
                        "{notion}: {p} vs {q}"
                    );
                }
            }
        }
    }

    /// The determinized `classify_all` must equal the pre-determinization
    /// representative scan on every PSPACE notion — the oracle the DET
    /// report table and the root property suite also assert.
    #[test]
    fn determinized_classification_matches_representative_scan() {
        let (merged, split) = table_ii_pair();
        let union = ccs_fsp::ops::disjoint_union(&merged, &split);
        let with_tau = format::parse(
            "trans p tau q\ntrans q a r\ntrans r tau p\ntrans s a t\ntrans s tau s\naccept r t",
        )
        .unwrap();
        for fsp in [union.fsp, with_tau] {
            let session = EquivSession::new(fsp);
            for notion in [
                Equivalence::Language,
                Equivalence::Trace,
                Equivalence::Failure,
            ] {
                let oracle = session.representative_scan_partition(notion);
                let det = session.classify_all(notion);
                assert_eq!(det.as_ref(), &oracle, "{notion}");
            }
        }
    }

    /// Pair queries and whole-space classification share one subset arena:
    /// classifying after a pair query must not rebuild anything, and the
    /// pair cache's verdicts must agree with the partition.
    #[test]
    fn pair_cache_and_classification_share_the_arena() {
        let (merged, split) = table_ii_pair();
        let union = ccs_fsp::ops::disjoint_union(&merged, &split);
        let (p, q) = ccs_fsp::ops::union_starts(&union, &merged, &split);
        let session = EquivSession::new(union.fsp.clone());
        // Pair queries first (the lazy path) …
        assert!(session.equivalent_states(p, q, Equivalence::Language));
        assert!(!session.equivalent_states(p, q, Equivalence::Failure));
        let arena_after_pairs = session.subset_arena_size();
        assert!(arena_after_pairs > 1);
        // … then classification reuses (and extends) the same arena.
        let partition = session.classify_all(Equivalence::Language);
        assert!(partition.same_block(p.index(), q.index()));
        assert!(session.subset_arena_size() >= arena_after_pairs);
        // With the partition memoized, pair queries become lookups that
        // still agree with the cache's earlier verdicts.
        assert!(session.equivalent_states(p, q, Equivalence::Language));
    }

    #[test]
    fn limited_levels_match_free_hierarchy() {
        let f = format::parse("trans s0 a s1\ntrans s1 a s2\ntrans s2 a s3\naccept s3").unwrap();
        let session = EquivSession::for_process(&f);
        for k in 0..5 {
            let free = crate::limited::limited_hierarchy_up_to(&f, k);
            assert_eq!(
                session.classify_all(Equivalence::Limited(k)).as_ref(),
                free.level(k),
                "level {k}"
            );
        }
        // Deep levels stop at convergence and answer with the limit.
        assert_eq!(
            session.classify_all(Equivalence::Limited(1_000)).as_ref(),
            crate::limited::limited_hierarchy(&f).limit()
        );
    }

    /// `≃ₖ` stops at the fixpoint: on an `n`-state chain every level from
    /// `n` on is the same partition, however far past it `k` goes.
    #[test]
    fn limited_levels_past_convergence_equal_the_fixpoint() {
        let n = 12;
        let text: String = (0..n - 1)
            .map(|i| format!("trans s{i} a s{}\n", i + 1))
            .collect();
        let session = EquivSession::for_process(&format::parse(&text).unwrap());
        let at_n = session.classify_all(Equivalence::Limited(n));
        assert_eq!(at_n.num_blocks(), n);
        assert_eq!(session.classify_all(Equivalence::Limited(10 * n)), at_n);
    }

    /// The arena diagnostics only read: on a fresh session they report 0
    /// and neither build an arena nor a saturated view.
    #[test]
    fn arena_diagnostics_leave_a_fresh_session_untouched() {
        let f = format::parse("trans p tau q\ntrans q a r\ntrans s a t").unwrap();
        let session = EquivSession::for_process(&f);
        let fresh = session.approx_resident_bytes();
        assert_eq!(session.subset_arena_size(), 0);
        assert_eq!(session.subset_steps_computed(), 0);
        assert_eq!(session.approx_resident_bytes(), fresh);
        assert_eq!(session.closure_builds(), 0);
    }

    #[test]
    fn resident_bytes_grow_with_the_caches() {
        let f = format::parse("trans p tau q\ntrans q a r\ntrans s a t").unwrap();
        let session = EquivSession::for_process(&f);
        let fresh = session.approx_resident_bytes();
        session.classify_all(Equivalence::Observational);
        session.classify_all(Equivalence::Language);
        assert!(session.approx_resident_bytes() > fresh);
    }

    /// Resolves an edge triple by name; `None` is a τ-label.
    fn edge(f: &Fsp, from: &str, act: Option<&str>, to: &str) -> (StateId, Label, StateId) {
        let label = match act {
            Some(a) => Label::Act(f.action_id(a).expect("known action")),
            None => Label::Tau,
        };
        (
            f.state_by_name(from).expect("known state"),
            label,
            f.state_by_name(to).expect("known state"),
        )
    }

    /// Every notion the session answers after a delta must agree with a
    /// session built fresh over the mutated process.
    fn assert_matches_fresh(session: &EquivSession) {
        let fresh = EquivSession::for_process(session.fsp());
        for notion in [
            Equivalence::Strong,
            Equivalence::Observational,
            Equivalence::KObservational(1),
            Equivalence::Language,
        ] {
            assert_eq!(
                session.classify_all(notion).as_ref(),
                fresh.classify_all(notion).as_ref(),
                "{notion} diverged from a fresh session"
            );
        }
    }

    #[test]
    fn apply_delta_matches_fresh_sessions_across_notions() {
        let f = format::parse(
            "trans p tau q\ntrans q a r\ntrans s a t\ntrans u b v\ntrans w b x\n\
             trans g c h\ntrans m d n\ntrans i e j\naccept r t v x k",
        )
        .unwrap();
        let mut session = EquivSession::for_process(&f);
        // Warm every cache family before the first edit.
        session.classify_all(Equivalence::Strong);
        session.classify_all(Equivalence::Observational);
        session.classify_all(Equivalence::Language);
        type EdgeSpec<'a> = Vec<(&'a str, Option<&'a str>, &'a str)>;
        // Per batch: additions, removals, and state pairs whose strong
        // verdict after the batch is spelled out (true = same class).
        type Verdicts<'a> = Vec<(&'a str, &'a str, bool)>;
        let batches: [(EdgeSpec, EdgeSpec, Verdicts); 7] = [
            (vec![("w", Some("b"), "v")], vec![], vec![]),
            (
                vec![("p", Some("a"), "r")],
                vec![("u", Some("b"), "v")],
                vec![],
            ),
            (vec![("s", None, "p")], vec![], vec![]), // τ-touching batch
            (
                vec![],
                vec![("s", None, "p"), ("w", Some("b"), "v")],
                vec![],
            ),
            // A pure addition coarsens: `h c g` beside `g c h` makes the
            // two a c-cycle, so {g},{h} becomes {g,h}.  No split of the
            // old partition reaches that.
            (vec![("h", Some("c"), "g")], vec![], vec![("g", "h", true)]),
            // Removing a state's only edge coarsens: m joins its dead target.
            (vec![], vec![("m", Some("d"), "n")], vec![("m", "n", true)]),
            // A coarsening removal must still respect acceptance: i joins
            // j, and both stay apart from the dead accepting k.
            (
                vec![],
                vec![("i", Some("e"), "j")],
                vec![("i", "j", true), ("i", "k", false)],
            ),
        ];
        for (adds, removes, verdicts) in batches {
            let resolve = |specs: &[(&str, Option<&str>, &str)]| {
                specs
                    .iter()
                    .map(|&(a, l, b)| edge(session.fsp(), a, l, b))
                    .collect::<Vec<_>>()
            };
            let (adds, removes) = (resolve(&adds), resolve(&removes));
            session.apply_delta(&adds, &removes);
            let strong = session.classify_all(Equivalence::Strong);
            for (a, b, same) in verdicts {
                let state = |name| session.fsp().state_by_name(name).expect("known state");
                assert_eq!(
                    strong.same_block(state(a).index(), state(b).index()),
                    same,
                    "{a} vs {b}"
                );
            }
            assert_matches_fresh(&session);
        }
    }

    #[test]
    fn tau_free_delta_keeps_the_closure_and_the_remote_arena() {
        // Region A (a0..b1) answers the language query; region B (u, v, w)
        // is disjoint and absorbs the edit.
        let f = format::parse(
            "trans a0 tau a1\ntrans a1 x a2\ntrans b0 x b1\n\
             trans u y v\ntrans v y w\naccept a2 b1 w",
        )
        .unwrap();
        let mut session = EquivSession::for_process(&f);
        let (a0, b0) = (
            f.state_by_name("a0").unwrap(),
            f.state_by_name("b0").unwrap(),
        );
        assert!(session.equivalent_states(a0, b0, Equivalence::Language));
        assert_eq!(session.closure_builds(), 1);
        let steps = session.subset_steps_computed();
        assert!(steps > 0);

        let outcome = session.apply_delta(&[edge(session.fsp(), "v", Some("y"), "u")], &[]);
        assert!(!outcome.tau_touched);
        assert_eq!(outcome.effective_additions, 1);
        assert_eq!(outcome.weak_rows_changed, 1, "only v's y-row changes");
        assert!(outcome.view_patched, "the cached view is respliced");
        assert!(
            !outcome.arena_dropped,
            "no interned subset reaches the edited region"
        );

        // The previously-answered query costs nothing new: same verdict,
        // no closure rebuild, no fresh subset exploration.
        assert!(session.equivalent_states(a0, b0, Equivalence::Language));
        assert_eq!(session.closure_builds(), 1, "τ-closure survived the delta");
        assert_eq!(
            session.subset_steps_computed(),
            steps,
            "retained arena re-answers without re-exploring"
        );
        assert_matches_fresh(&session);
    }

    #[test]
    fn tau_touching_delta_rebuilds_weak_artifacts_but_delta_refines_strong() {
        let f = format::parse("trans p tau q\ntrans q a r\ntrans s a t\naccept r t").unwrap();
        let mut session = EquivSession::for_process(&f);
        session.classify_all(Equivalence::Strong);
        session.classify_all(Equivalence::Observational);
        assert_eq!(session.closure_builds(), 1);
        let refinements = session.refinements_run();

        let outcome = session.apply_delta(&[edge(session.fsp(), "s", None, "p")], &[]);
        assert!(outcome.tau_touched);
        assert_eq!(outcome.partitions_delta_refined, 1, "the strong partition");

        // Strong answers from the cell the batch re-solved — no new
        // refinement — while the weak side recomputes its closure lazily.
        session.classify_all(Equivalence::Strong);
        assert_eq!(session.refinements_run(), refinements);
        assert_matches_fresh(&session);
        assert_eq!(session.closure_builds(), 2, "τ-touching batch rebuilt ⇒ε");
    }

    #[test]
    fn weakly_redundant_delta_retains_partitions_by_pointer() {
        let f = format::parse("trans p tau q\ntrans q a r\naccept r").unwrap();
        let mut session = EquivSession::for_process(&f);
        let obs = session.classify_all(Equivalence::Observational);
        let lang = session.classify_all(Equivalence::Language);
        // p already weakly reaches r by `a` (τ then a): the direct edge
        // changes no weak row.
        let outcome = session.apply_delta(&[edge(session.fsp(), "p", Some("a"), "r")], &[]);
        assert_eq!(outcome.weak_rows_changed, 0);
        assert!(!outcome.view_patched);
        assert!(!outcome.arena_dropped);
        assert!(
            Arc::ptr_eq(&obs, &session.classify_all(Equivalence::Observational)),
            "weak-redundant batch keeps the observational partition object"
        );
        assert!(Arc::ptr_eq(
            &lang,
            &session.classify_all(Equivalence::Language)
        ));
        assert_matches_fresh(&session);
    }

    #[test]
    fn apply_delta_pending_buffers_show_up_in_resident_bytes() {
        let f = format::parse("trans p a q\ntrans r a s\ntrans t a u").unwrap();
        let mut session = EquivSession::for_process(&f);
        session.classify_all(Equivalence::Strong);
        let edges = session.strong_instance().num_edges();
        // A class-redundant addition: the strong instance is kept and laid
        // out again with one more edge — no pending-edge buffer is left
        // behind — and the byte accounting counts the edited layout.
        let outcome = session.apply_delta(&[edge(session.fsp(), "p", Some("a"), "s")], &[]);
        assert_eq!(outcome.effective_additions, 1);
        assert_eq!(outcome.partitions_delta_refined, 1);
        let edited = session
            .strong_instance
            .get()
            .expect("kept across the delta");
        assert_eq!(edited.num_edges(), edges + 1);
        assert_eq!(
            edited.resident_bytes(),
            edited.graph().resident_bytes() + std::mem::size_of_val(edited.initial_blocks()),
            "nothing pending beside the layout"
        );
        let strong = session.classify_all(Equivalence::Strong);
        assert!(
            session.approx_resident_bytes()
                >= session.fsp().resident_bytes()
                    + edited.resident_bytes()
                    + strong.resident_bytes(),
            "the edited instance counts toward the resident figure"
        );
        assert_matches_fresh(&session);
    }

    #[test]
    fn noop_delta_leaves_the_session_untouched() {
        let f = format::parse("trans p a q\ntrans q a r").unwrap();
        let mut session = EquivSession::for_process(&f);
        let strong = session.classify_all(Equivalence::Strong);
        // Already present + never present: both edits are ineffective.
        let present = edge(session.fsp(), "p", Some("a"), "q");
        let absent = edge(session.fsp(), "p", Some("a"), "r");
        let outcome = session.apply_delta(&[present], &[absent]);
        assert_eq!(outcome, SessionDeltaOutcome::default());
        assert!(Arc::ptr_eq(
            &strong,
            &session.classify_all(Equivalence::Strong)
        ));
    }
}
