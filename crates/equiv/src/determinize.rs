//! The shared determinization subsystem: one memoized, interned subset
//! automaton per session, feeding both whole-space classification and
//! the on-the-fly pair search for the PSPACE notions.
//!
//! The paper pins language, trace and failure equivalence to PSPACE
//! (Theorem 4.1(b), Theorem 5.1), and Proposition 2.2.4(b) plus the
//! Section 3 AHU recap show the escape hatch: once a process is
//! *determinized*, every one of those notions collapses to near-linear DFA
//! machinery.  Before this module, each `(state, state)` query re-ran an
//! independent on-the-fly subset construction ([`language`](crate::language),
//! [`traces`](crate::traces), [`failures`](crate::failures)), so classifying
//! `n` states cost `O(n · classes)` overlapping determinizations.  Here the
//! determinization is a first-class, *shared* artifact:
//!
//! * [`SubsetAutomaton`] interns every ε-closed subset once (the empty
//!   subset is the dead state [`SubsetAutomaton::DEAD`]), computes
//!   transitions lazily over the cached
//!   [`SaturatedView`], and annotates each
//!   subset with the three facts the notions read: an acceptance bit
//!   (language), the weakly-enabled action set (trace non-emptiness and
//!   exploration pruning), and the interned ⊆-maximal refusal antichain of
//!   Section 5 (failures).  All three notions read the same arena.
//! * [`determinized_partition`] determinizes *all* `n` start subsets into
//!   one product DFA ([`Dfa::from_subset_automaton`]) and runs **one**
//!   partition refinement over it — the Myhill–Nerode classes of the
//!   multi-class output function are exactly the notion's equivalence
//!   classes, so the per-class representative scan disappears.
//! * [`PairCache`] is the per-notion memo of the pair search in
//!   [`onthefly`](crate::onthefly) — a synchronized union-find search over
//!   interned subset ids (the AHU scheme of
//!   [`dfa_equiv`](ccs_partition::dfa_equiv), run on the lazily-built
//!   arena), pruned *up to congruence*: a popped pair whose sides are
//!   already merged is skipped, which subsumes the antichain pruning of the
//!   De Wulf–Doyen line for this synchronized-pair shape (Bonchi & Pous).
//!   Proven pairs merge into a persistent congruence, so a session's later
//!   queries skip everything already proven.
//!
//! # Memory layout
//!
//! Subset ids are `u32` ([`SubsetId`]) and the arena stores member sets as
//! sorted `u32` runs concatenated in one flat array behind a CSR offset
//! table.  Interning hashes subsets by the XOR of their mixed members (a
//! SplitMix64-based fingerprint, order-independent) into a `u64 → id`
//! table, so the member data is stored exactly once; a subset whose
//! fingerprint collides with an interned one goes to a short spill list.  Transitions,
//! annotations, the refusal-antichain intern and the [`PairCache`]
//! congruence all ride the same 32-bit ids.
//!
//! The worst case is still exponential — as Theorem 4.1(b) demands — but
//! the exponential work is paid **once per subset**, not once per pair.

use std::collections::HashMap;

use ccs_fsp::{ActionId, Fsp, StateId};
use ccs_partition::{hopcroft, Dfa, Partition, UnionFind};

use crate::check::Equivalence;
use crate::compact::{narrow, subset_fingerprint};
use crate::failures::maximal_refusals;
use crate::saturate::SaturatedView;

/// Interned identifier of a subset state inside a [`SubsetAutomaton`] — a
/// compact 32-bit id (`u32::MAX` is reserved as the unexplored sentinel).
pub type SubsetId = u32;

/// Sentinel for a transition (or start slot) that has not been computed yet.
const UNEXPLORED: u32 = u32::MAX;

/// Sentinel for a refusal-antichain class that has not been interned yet.
const REFUSAL_UNSET: u32 = u32::MAX;

/// The three PSPACE notions the determinization layer decides.  Each picks a
/// different per-subset output class over the same arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DetNotion {
    /// Acceptance-based language equivalence `≈₁` (Proposition 2.2.4(b)).
    Language,
    /// Trace-set equality: the class is subset non-emptiness.
    Trace,
    /// Failure equivalence `≡F`: the class is the interned ⊆-maximal refusal
    /// antichain (Section 5), with the dead state distinguished.
    Failure,
}

impl DetNotion {
    /// The determinizable face of an [`Equivalence`] notion, if it has one.
    #[must_use]
    pub fn of(notion: Equivalence) -> Option<DetNotion> {
        match notion {
            Equivalence::Language => Some(DetNotion::Language),
            Equivalence::Trace => Some(DetNotion::Trace),
            Equivalence::Failure => Some(DetNotion::Failure),
            _ => None,
        }
    }
}

/// A memoized, interned subset automaton over one process.
///
/// Subsets are sorted, duplicate-free, ε-closed member sets stored as `u32`
/// runs behind a CSR offset table and interned once via an
/// order-independent fingerprint; transitions are computed lazily against a
/// caller-provided [`SaturatedView`] and cached forever.  Id [`SubsetAutomaton::DEAD`] is
/// the empty subset, which makes the (explored part of the) automaton a
/// *complete* DFA — the shape the partition core's [`Dfa`] wants.
#[derive(Clone, Debug)]
pub struct SubsetAutomaton {
    num_actions: usize,
    /// CSR member store: the members of subset `id` are
    /// `members[offsets[id]..offsets[id + 1]]`.
    offsets: Vec<u32>,
    members: Vec<u32>,
    num_subsets: u32,
    /// Fingerprint → interned id.  Distinct subsets with colliding
    /// fingerprints overflow into `intern_spill` (vanishingly rare).
    intern: HashMap<u64, SubsetId>,
    intern_spill: Vec<(u64, SubsetId)>,
    /// Row-major lazy transition table: `delta[id·|Σ| + a]`.
    delta: Vec<u32>,
    /// Per-subset acceptance bit (some member is accepting).
    accepting: Vec<bool>,
    /// Per-subset weakly-enabled observable actions: sorted action indices,
    /// concatenated behind a CSR offset table — the columns whose
    /// [`SubsetAutomaton::step`] is not the dead state.
    enabled_offsets: Vec<u32>,
    enabled_data: Vec<u32>,
    /// Lazily interned refusal-antichain class per subset
    /// ([`REFUSAL_UNSET`] until computed).
    refusal_class: Vec<u32>,
    /// Length-prefixed flattened antichain → class id.
    antichain_intern: HashMap<Vec<u32>, u32>,
    /// Memoized ε-closure start subset per original state
    /// ([`UNEXPLORED`] until computed).
    start_ids: Vec<u32>,
    /// Acceptance per *original* state, captured at construction so subset
    /// annotations never need the process again.
    state_accepting: Vec<bool>,
    steps_computed: usize,
    /// Number of `delta` slots still holding [`UNEXPLORED`], maintained by
    /// interning and stepping — makes the completeness check of
    /// [`SubsetAutomaton::transition_table`] `O(1)` instead of a table scan.
    unexplored_slots: usize,
}

impl SubsetAutomaton {
    /// The empty subset — the dead state of the complete DFA.
    pub const DEAD: SubsetId = 0;

    /// Creates an empty automaton for `fsp`, capturing the acceptance flags
    /// (the only fact the annotations need from the process itself; all
    /// transition structure comes from the [`SaturatedView`] passed to each
    /// exploring call, which must be the view of the same process).
    #[must_use]
    pub fn new(fsp: &Fsp) -> Self {
        let mut auto = SubsetAutomaton {
            num_actions: fsp.num_actions(),
            offsets: vec![0],
            members: Vec::new(),
            num_subsets: 0,
            intern: HashMap::new(),
            intern_spill: Vec::new(),
            delta: Vec::new(),
            accepting: Vec::new(),
            enabled_offsets: vec![0],
            enabled_data: Vec::new(),
            refusal_class: Vec::new(),
            antichain_intern: HashMap::new(),
            start_ids: vec![UNEXPLORED; fsp.num_states()],
            state_accepting: fsp.state_ids().map(|s| fsp.is_accepting(s)).collect(),
            steps_computed: 0,
            unexplored_slots: 0,
        };
        let dead = auto.intern_new(subset_fingerprint(&[]), &[], &[]);
        debug_assert_eq!(dead, Self::DEAD);
        // The dead state self-loops on every action.
        for a in 0..auto.num_actions {
            auto.delta[Self::DEAD as usize * auto.num_actions + a] = Self::DEAD;
        }
        auto.unexplored_slots -= auto.num_actions;
        auto
    }

    /// Number of interned subsets (the arena size).
    #[must_use]
    pub fn num_subsets(&self) -> usize {
        self.num_subsets as usize
    }

    /// Number of observable actions (the DFA label alphabet).
    #[must_use]
    pub fn num_actions(&self) -> usize {
        self.num_actions
    }

    /// Number of lazily computed transitions so far (diagnostic).
    #[must_use]
    pub fn steps_computed(&self) -> usize {
        self.steps_computed
    }

    /// Heap bytes held by the arena — member store, fingerprint intern,
    /// transition table and annotations — measured from live container
    /// capacities.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let antichain_keys: usize = self
            .antichain_intern
            .keys()
            .map(|k| k.capacity() * size_of::<u32>())
            .sum();
        (self.offsets.capacity() + self.members.capacity()) * size_of::<u32>()
            + self.intern.capacity() * (size_of::<(u64, SubsetId)>() + 1)
            + self.intern_spill.capacity() * size_of::<(u64, SubsetId)>()
            + self.delta.capacity() * size_of::<u32>()
            + self.accepting.capacity()
            + (self.enabled_offsets.capacity() + self.enabled_data.capacity()) * size_of::<u32>()
            + self.refusal_class.capacity() * size_of::<u32>()
            + self.antichain_intern.capacity() * (size_of::<(Vec<u32>, u32)>() + 1)
            + antichain_keys
            + self.start_ids.capacity() * size_of::<u32>()
            + self.state_accepting.capacity()
    }

    /// The sorted member list of a subset (state indices).
    #[must_use]
    pub fn subset(&self, id: SubsetId) -> &[u32] {
        &self.members[self.offsets[id as usize] as usize..self.offsets[id as usize + 1] as usize]
    }

    /// Whether the subset contains an accepting state.
    #[must_use]
    pub fn is_accepting(&self, id: SubsetId) -> bool {
        self.accepting[id as usize]
    }

    /// The weakly-enabled observable actions of the subset (sorted action
    /// indices) — exactly the columns whose [`SubsetAutomaton::step`] is not
    /// [`SubsetAutomaton::DEAD`].
    #[must_use]
    pub fn enabled(&self, id: SubsetId) -> &[u32] {
        &self.enabled_data[self.enabled_offsets[id as usize] as usize
            ..self.enabled_offsets[id as usize + 1] as usize]
    }

    /// Finds an already-interned subset by fingerprint + member comparison.
    fn lookup(&self, fp: u64, members: &[u32]) -> Option<SubsetId> {
        let &id = self.intern.get(&fp)?;
        if self.subset(id) == members {
            return Some(id);
        }
        self.intern_spill
            .iter()
            .find(|&&(f, sid)| f == fp && self.subset(sid) == members)
            .map(|&(_, sid)| sid)
    }

    /// Interns a subset known to be absent, with its annotations.
    fn intern_new(&mut self, fp: u64, members: &[u32], enabled: &[u32]) -> SubsetId {
        let id = self.num_subsets;
        assert!(id < UNEXPLORED, "subset arena exceeds the 32-bit id range");
        self.num_subsets += 1;
        self.members.extend_from_slice(members);
        self.offsets.push(narrow(self.members.len()));
        self.accepting
            .push(members.iter().any(|&s| self.state_accepting[s as usize]));
        self.enabled_data.extend_from_slice(enabled);
        self.enabled_offsets.push(narrow(self.enabled_data.len()));
        self.refusal_class.push(REFUSAL_UNSET);
        self.delta
            .extend(std::iter::repeat(UNEXPLORED).take(self.num_actions));
        self.unexplored_slots += self.num_actions;
        match self.intern.entry(fp) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(id);
            }
            std::collections::hash_map::Entry::Occupied(_) => self.intern_spill.push((fp, id)),
        }
        id
    }

    /// Computes the enabled-action set of a member list from the view's CSR
    /// columns (`|Σ|·|X|` slice-emptiness checks).
    fn enabled_of(&self, view: SaturatedView<'_>, members: &[u32]) -> Vec<u32> {
        (0..self.num_actions)
            .filter(|&a| {
                members.iter().any(|&x| {
                    !view
                        .successors(StateId::from_index(x as usize), ActionId::from_index(a))
                        .is_empty()
                })
            })
            .map(narrow)
            .collect()
    }

    /// Interns an arbitrary ε-closed member list (sorted, duplicate-free).
    fn intern_subset(&mut self, view: SaturatedView<'_>, members: &[u32]) -> SubsetId {
        let fp = subset_fingerprint(members);
        if let Some(id) = self.lookup(fp, members) {
            return id;
        }
        let enabled = self.enabled_of(view, members);
        self.intern_new(fp, members, &enabled)
    }

    /// The start subset of an original state: its ε-closure, interned
    /// (memoized per state).
    pub fn start(&mut self, view: SaturatedView<'_>, p: StateId) -> SubsetId {
        if self.start_ids[p.index()] != UNEXPLORED {
            return self.start_ids[p.index()];
        }
        let members: Vec<u32> = view
            .epsilon_successors(p)
            .iter()
            .map(|s| narrow(s.index()))
            .collect();
        let id = self.intern_subset(view, &members);
        self.start_ids[p.index()] = id;
        id
    }

    /// One determinized transition `δ(id, action)`, computed lazily (the
    /// view's columns already fold in the trailing ε-closure, so the union
    /// of member columns is itself ε-closed) and memoized forever.
    pub fn step(&mut self, view: SaturatedView<'_>, id: SubsetId, action: ActionId) -> SubsetId {
        let slot = id as usize * self.num_actions + action.index();
        if self.delta[slot] != UNEXPLORED {
            return self.delta[slot];
        }
        self.steps_computed += 1;
        let target = if self
            .enabled(id)
            .binary_search(&narrow(action.index()))
            .is_err()
        {
            Self::DEAD
        } else {
            let mut members: Vec<u32> = Vec::new();
            for &x in self.subset(id) {
                members.extend(
                    view.successors(StateId::from_index(x as usize), action)
                        .iter()
                        .map(|s| narrow(s.index())),
                );
            }
            members.sort_unstable();
            members.dedup();
            self.intern_subset(view, &members)
        };
        self.delta[slot] = target;
        self.unexplored_slots -= 1;
        target
    }

    /// The interned ⊆-maximal refusal-antichain class of the subset
    /// (Section 5): two subsets share a class iff their antichains of
    /// maximal refusal sets are identical, so the failure checkers compare
    /// one integer instead of two set families.  Lazily memoized.
    pub fn refusal_class(&mut self, view: SaturatedView<'_>, id: SubsetId) -> u32 {
        if self.refusal_class[id as usize] != REFUSAL_UNSET {
            return self.refusal_class[id as usize];
        }
        let antichain = maximal_refusals(view, self.subset(id));
        // Length-prefixed flattening is injective over sorted member lists.
        let mut key: Vec<u32> =
            Vec::with_capacity(antichain.len() + antichain.iter().map(Vec::len).sum::<usize>());
        for set in &antichain {
            key.push(narrow(set.len()));
            key.extend_from_slice(set);
        }
        let fresh = narrow(self.antichain_intern.len());
        let class = *self.antichain_intern.entry(key).or_insert(fresh);
        self.refusal_class[id as usize] = class;
        class
    }

    /// Closes the transition table over every interned subset: explores
    /// until no `(subset, action)` slot is missing.  After this the explored
    /// arena is a complete DFA.
    pub fn explore(&mut self, view: SaturatedView<'_>) {
        let mut next: SubsetId = 0;
        while (next as usize) < self.num_subsets() {
            for a in 0..self.num_actions {
                self.step(view, next, ActionId::from_index(a));
            }
            next += 1;
        }
    }

    /// The fully-explored dense transition table (row-major, `|Σ|` columns)
    /// — compact 32-bit targets, exactly what
    /// [`Dfa::from_subset_automaton`] adopts.
    ///
    /// # Panics
    ///
    /// Panics if some slot is still unexplored — call
    /// [`SubsetAutomaton::explore`] first.
    #[must_use]
    pub fn transition_table(&self) -> &[u32] {
        assert_eq!(
            self.unexplored_slots, 0,
            "transition table not fully explored"
        );
        debug_assert!(!self.delta.contains(&UNEXPLORED));
        &self.delta
    }

    /// The per-subset output classes of a notion: acceptance bits for
    /// language, non-emptiness for traces, `1 +` the interned refusal
    /// antichain (dead state `0`) for failures.
    pub fn classes(&mut self, view: SaturatedView<'_>, notion: DetNotion) -> Vec<u32> {
        match notion {
            DetNotion::Language => self.accepting.iter().map(|&a| u32::from(a)).collect(),
            DetNotion::Trace => (0..self.num_subsets)
                .map(|id| u32::from(id != Self::DEAD))
                .collect(),
            DetNotion::Failure => (0..self.num_subsets)
                .map(|id| {
                    if id == Self::DEAD {
                        0
                    } else {
                        1 + self.refusal_class(view, id)
                    }
                })
                .collect(),
        }
    }

    /// The per-subset `≈ₖ` signature classes over a level-`k` state
    /// partition: two subsets share a class iff their members hit the same
    /// set of `prev`-blocks.  One linear pass over the arena with a reused
    /// scratch buffer; this is the multi-class output function the one-arena
    /// `≈ₖ₊₁` refinement ([`kobs`](crate::kobs)) feeds to
    /// [`Dfa::from_subset_automaton`], replacing the per-pair class-set
    /// comparisons of the synchronized-BFS path.
    ///
    /// `prev` must partition the arena's original ground set (its states are
    /// the subset members).
    #[must_use]
    pub fn kobs_signatures(&self, prev: &Partition) -> Vec<u32> {
        let mut intern: HashMap<Vec<u32>, u32> = HashMap::new();
        let mut out = Vec::with_capacity(self.num_subsets());
        let mut scratch: Vec<u32> = Vec::new();
        for id in 0..self.num_subsets {
            scratch.clear();
            scratch.extend(
                self.subset(id)
                    .iter()
                    .map(|&m| narrow(prev.block_of(m as usize))),
            );
            scratch.sort_unstable();
            scratch.dedup();
            let fresh = narrow(intern.len());
            let class = match intern.get(scratch.as_slice()) {
                Some(&c) => c,
                None => {
                    intern.insert(scratch.clone(), fresh);
                    fresh
                }
            };
            out.push(class);
        }
        out
    }

    /// Whether two subsets are immediately distinguished by the notion's
    /// output class (the zero-step test of the synchronized search — also
    /// the stopping test of the [`onthefly`](crate::onthefly) engine).
    pub(crate) fn classes_differ(
        &mut self,
        view: SaturatedView<'_>,
        notion: DetNotion,
        x: SubsetId,
        y: SubsetId,
    ) -> bool {
        match notion {
            DetNotion::Language => self.accepting[x as usize] != self.accepting[y as usize],
            DetNotion::Trace => (x == Self::DEAD) != (y == Self::DEAD),
            DetNotion::Failure => {
                if (x == Self::DEAD) != (y == Self::DEAD) {
                    true
                } else if x == Self::DEAD {
                    false
                } else {
                    self.refusal_class(view, x) != self.refusal_class(view, y)
                }
            }
        }
    }
}

/// Classifies all `num_states` original states under `notion` by **one**
/// determinization and **one** partition refinement: every start subset is
/// interned, the arena is explored to completion, the notion's per-subset
/// classes seed a multi-class [`Dfa`], and Hopcroft minimizes it once.
/// The block of a state is the block of its start subset.
pub fn determinized_partition(
    auto: &mut SubsetAutomaton,
    view: SaturatedView<'_>,
    notion: DetNotion,
    num_states: usize,
) -> Partition {
    classify_starts(auto, view, num_states, |auto| auto.classes(view, notion))
}

/// The one arena classification every determinized notion shares: interns
/// the start subset of each of the `num_states` original states, explores
/// the arena to completion, seeds a multi-class product [`Dfa`] with the
/// per-subset `classes` (read off the explored arena), minimizes it once with
/// [`hopcroft::minimize`] (the product is deterministic and complete, the
/// paper's Section 3 special case), and maps the result back — the block of
/// a state is the block of its start subset.
pub(crate) fn classify_starts(
    auto: &mut SubsetAutomaton,
    view: SaturatedView<'_>,
    num_states: usize,
    classes: impl FnOnce(&mut SubsetAutomaton) -> Vec<u32>,
) -> Partition {
    let starts: Vec<SubsetId> = (0..num_states)
        .map(|s| auto.start(view, StateId::from_index(s)))
        .collect();
    auto.explore(view);
    let classes = classes(auto);
    let dfa = Dfa::from_subset_automaton(
        auto.num_actions(),
        SubsetAutomaton::DEAD as usize,
        auto.transition_table(),
        &classes,
    );
    let over_subsets = hopcroft::minimize(&dfa);
    let assignment: Vec<usize> = starts
        .iter()
        .map(|&s| over_subsets.block_of(s as usize))
        .collect();
    Partition::from_assignment(&assignment)
}

/// The per-notion memo of the [`onthefly`](crate::onthefly) pair search:
/// a persistent [`UnionFind`] congruence of proven-equivalent subset pairs.
///
/// A search clones it, prunes against the copy, and commits the copy back
/// only when no distinguishing pair turns up; a refuted search leaves the
/// cache untouched.  The arena ids it stores are those of the session's
/// shared [`SubsetAutomaton`], so the cache must never be reused across
/// automata.
#[derive(Clone, Debug, Default)]
pub struct PairCache {
    /// The proven-equivalent congruence over arena subset ids (grows with
    /// the arena).
    proven: UnionFind,
}

impl PairCache {
    /// Heap bytes held by the congruence's parent and rank arrays, measured
    /// from their live capacities.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.proven.resident_bytes()
    }

    /// Whether the pair is already in the committed proven congruence — the
    /// `O(α)` early exit of the pair search.
    pub fn is_proven(&mut self, a: SubsetId, b: SubsetId) -> bool {
        self.proven.grow(a.max(b) as usize + 1);
        self.proven.same(a as usize, b as usize)
    }

    /// A speculative copy of the proven congruence, grown to `n` ids.
    pub(crate) fn speculative(&mut self, n: usize) -> UnionFind {
        self.proven.grow(n);
        self.proven.clone()
    }

    /// Commits a speculative congruence produced by a successful search.
    pub(crate) fn commit(&mut self, uf: UnionFind) {
        debug_assert!(uf.len() >= self.proven.len());
        self.proven = uf;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::saturate::weak_instance;
    use crate::EquivSession;
    use ccs_fsp::saturate::tau_closure;
    use ccs_fsp::{format, Label};

    /// A fresh arena plus a view of the process's weak instance.  The view
    /// borrows its instance, so each test leaks one small instance to get
    /// a view it can hold for the whole test.
    fn arena(fsp: &Fsp) -> (SubsetAutomaton, SaturatedView<'static>) {
        let inst = Box::leak(Box::new(weak_instance(fsp, &tau_closure(fsp))));
        (SubsetAutomaton::new(fsp), SaturatedView::of(inst))
    }

    #[test]
    fn dead_state_is_interned_first_and_self_loops() {
        let f = format::parse("trans p a q\naccept q").unwrap();
        let (mut auto, view) = arena(&f);
        assert_eq!(auto.num_subsets(), 1);
        assert!(auto.subset(SubsetAutomaton::DEAD).is_empty());
        assert!(!auto.is_accepting(SubsetAutomaton::DEAD));
        let a = f.action_id("a").unwrap();
        assert_eq!(
            auto.step(view, SubsetAutomaton::DEAD, a),
            SubsetAutomaton::DEAD
        );
    }

    #[test]
    fn starts_are_epsilon_closures_and_memoized() {
        let f = format::parse("trans p tau q\ntrans q a r\naccept r").unwrap();
        let (mut auto, view) = arena(&f);
        let p = f.state_by_name("p").unwrap();
        let sp = auto.start(view, p);
        assert_eq!(auto.subset(sp).len(), 2); // {p, q}
        assert_eq!(auto.start(view, p), sp);
        let a = f.action_id("a").unwrap();
        let after = auto.step(view, sp, a);
        assert!(auto.is_accepting(after));
        // Enabled set: `a` is weakly enabled at {p, q}, nothing at {r}.
        assert_eq!(auto.enabled(sp), &[narrow(a.index())]);
        assert!(auto.enabled(after).is_empty());
    }

    #[test]
    fn steps_are_computed_once() {
        let f = format::parse("trans p a p\ntrans p b p\naccept p").unwrap();
        let (mut auto, view) = arena(&f);
        let p = f.start();
        let sp = auto.start(view, p);
        for _ in 0..3 {
            for a in f.action_ids() {
                assert_eq!(auto.step(view, sp, a), sp);
            }
        }
        // 2 actions on {p}; the dead state's loops were prefilled.
        assert_eq!(auto.steps_computed(), 2);
    }

    #[test]
    fn refusal_classes_intern_antichains() {
        // After `a`, the split process refuses {b} or {c}; the merged one
        // refuses neither — different antichains, different classes.
        let f = format::parse(
            "trans u a v\ntrans u a w\ntrans v b x\ntrans w c y\n\
             trans p a q\ntrans q b r\ntrans q c s\naccept u v w x y p q r s",
        )
        .unwrap();
        let (mut auto, view) = arena(&f);
        let u = f.state_by_name("u").unwrap();
        let p = f.state_by_name("p").unwrap();
        let a = f.action_id("a").unwrap();
        let su = auto.start(view, u);
        let sp = auto.start(view, p);
        let after_u = auto.step(view, su, a); // {v, w}
        let after_p = auto.step(view, sp, a); // {q}
        assert_ne!(
            auto.refusal_class(view, after_u),
            auto.refusal_class(view, after_p)
        );
        // Memoized: same class on re-query.
        assert_eq!(
            auto.refusal_class(view, after_u),
            auto.refusal_class(view, after_u)
        );
        // Start subsets: both enable exactly `a`, refusing {b, c} — equal.
        assert_eq!(auto.refusal_class(view, su), auto.refusal_class(view, sp));
    }

    #[test]
    fn explore_completes_the_table() {
        let f = format::parse("trans p a q\ntrans q b p\ntrans r a r\naccept p r").unwrap();
        let (mut auto, view) = arena(&f);
        for s in f.state_ids() {
            auto.start(view, s);
        }
        auto.explore(view);
        let table = auto.transition_table();
        assert_eq!(table.len(), auto.num_subsets() * auto.num_actions());
        assert!(table.iter().all(|&t| (t as usize) < auto.num_subsets()));
    }

    /// Pair queries through the session's one search agree with the
    /// per-pair checker; proven pairs are memoized in the congruence, and
    /// refuted ones are searched again and yield the same witness.
    #[test]
    fn pair_cache_agrees_with_free_checkers_and_memoizes() {
        let f = format::parse("trans p a q\ntrans r a s\ntrans x b y\ntrans q a q\naccept q s y")
            .unwrap();
        let session = EquivSession::for_process(&f);
        let states: Vec<StateId> = f.state_ids().collect();
        let mut refuted = 0;
        for &a in &states {
            for &b in &states {
                let want = crate::language::language_equivalent_states(&f, a, b).holds;
                let got = session.equivalent_states(a, b, Equivalence::Language);
                assert_eq!(got, want, "{a} vs {b}");
                let first = session.on_the_fly(Equivalence::Language, a, b).unwrap();
                let again = session.on_the_fly(Equivalence::Language, a, b).unwrap();
                assert_eq!((first.equivalent, again.equivalent), (want, want));
                if want {
                    // The root pair lands in the committed congruence, so
                    // the repeat never searches.
                    assert!(again.stats.cache_hit, "{a} ≡ {b} not memoized");
                    assert_eq!(again.stats.pairs_visited, 0);
                } else {
                    assert!(!again.stats.cache_hit);
                    assert!(first.witness.is_some());
                    assert_eq!(again.witness, first.witness, "{a} vs {b}");
                    refuted += 1;
                }
            }
        }
        assert!(refuted > 0);
    }

    /// Two disjoint member sets with equal fingerprints.  The fingerprint
    /// XORs per-member hashes, so it is linear over GF(2): the 65 singleton
    /// fingerprints of `0..=64` are dependent in the 64-dimensional space,
    /// and Gaussian elimination finds a set `D` whose fingerprints XOR to
    /// zero.  Returns `(d₀, D \ {d₀})` with `d₀ = min D`.
    fn fingerprint_collision() -> (u32, Vec<u32>) {
        // basis[bit]: a reduced vector with leading bit `bit`, and the mask
        // of singletons XORed into it.
        let mut basis: [Option<(u64, u128)>; 64] = [None; 64];
        for m in 0..=64u32 {
            let (mut v, mut mask) = (subset_fingerprint(&[m]), 1u128 << m);
            while v != 0 {
                let bit = 63 - v.leading_zeros() as usize;
                let Some((bv, bm)) = basis[bit] else {
                    basis[bit] = Some((v, mask));
                    break;
                };
                v ^= bv;
                mask ^= bm;
            }
            if v == 0 {
                let d: Vec<u32> = (0..=64).filter(|&i| mask >> i & 1 == 1).collect();
                return (d[0], d[1..].to_vec());
            }
        }
        unreachable!("65 vectors in a 64-dimensional space are dependent")
    }

    /// 65 states, each with an `a`-self-loop; `d₀` is the only accepting
    /// state and the first member of `T` τ-reaches the rest of `T`, so the
    /// start subsets of `d₀` and of `T[0]` are exactly the colliding sets.
    fn collision_process(d0: u32, t: &[u32]) -> Fsp {
        let mut b = Fsp::builder("collision");
        let states: Vec<StateId> = (0..=64).map(|i| b.state(&format!("s{i}"))).collect();
        let a = b.label("a");
        for &s in &states {
            b.add_transition(s, a, s);
        }
        let y = states[t[0] as usize];
        for &m in &t[1..] {
            b.add_transition(y, Label::Tau, states[m as usize]);
        }
        b.mark_accepting(states[d0 as usize]);
        b.build().unwrap()
    }

    #[test]
    fn colliding_fingerprints_spill_and_round_trip() {
        let (d0, t) = fingerprint_collision();
        assert!(t.len() >= 2);
        assert_eq!(subset_fingerprint(&[d0]), subset_fingerprint(&t));
        let f = collision_process(d0, &t);
        let (mut auto, view) = arena(&f);
        let s_id = auto.intern_subset(view, &[d0]);
        let t_id = auto.intern_subset(view, &t);
        assert_ne!(s_id, t_id);
        assert!(!auto.intern_spill.is_empty());
        assert_eq!(auto.subset(s_id), &[d0]);
        assert_eq!(auto.subset(t_id), t.as_slice());
        assert_eq!(auto.intern_subset(view, &t), t_id);
        assert_eq!(auto.intern_subset(view, &[d0]), s_id);
    }

    #[test]
    fn colliding_start_subsets_keep_their_verdicts() {
        let (d0, t) = fingerprint_collision();
        let f = collision_process(d0, &t);
        let p = StateId::from_index(d0 as usize);
        let y = StateId::from_index(t[0] as usize);
        let (mut auto, view) = arena(&f);
        let (sp, sy) = (auto.start(view, p), auto.start(view, y));
        assert_eq!(auto.subset(sp), &[d0]);
        assert_eq!(auto.subset(sy), t.as_slice());
        let session = EquivSession::for_process(&f);
        assert!(!session.equivalent_states(p, y, Equivalence::Language));
        assert_eq!(
            session.classify_all(Equivalence::Language).as_ref(),
            &session.representative_scan_partition(Equivalence::Language)
        );
    }

    #[test]
    fn determinized_partition_matches_pairwise_oracle_per_notion() {
        let f = format::parse(
            "trans u a v\ntrans u a w\ntrans v b x\ntrans w c y\n\
             trans p a q\ntrans q b r\ntrans q c s\naccept u v w x y p q r s",
        )
        .unwrap();
        let inst = weak_instance(&f, &tau_closure(&f));
        let view = SaturatedView::of(&inst);
        for notion in [DetNotion::Language, DetNotion::Trace, DetNotion::Failure] {
            let mut auto = SubsetAutomaton::new(&f);
            let partition = determinized_partition(&mut auto, view, notion, f.num_states());
            for p in f.state_ids() {
                for q in f.state_ids() {
                    let want = match notion {
                        DetNotion::Language => {
                            crate::language::language_equivalent_states(&f, p, q).holds
                        }
                        DetNotion::Trace => crate::traces::trace_equivalent_states(&f, p, q).holds,
                        DetNotion::Failure => {
                            crate::failures::failure_equivalent_states(&f, p, q).equivalent
                        }
                    };
                    assert_eq!(
                        partition.same_block(p.index(), q.index()),
                        want,
                        "{notion:?}: {p} vs {q}"
                    );
                }
            }
        }
    }

    #[test]
    fn det_notion_of_maps_only_the_pspace_notions() {
        assert_eq!(
            DetNotion::of(Equivalence::Language),
            Some(DetNotion::Language)
        );
        assert_eq!(DetNotion::of(Equivalence::Trace), Some(DetNotion::Trace));
        assert_eq!(
            DetNotion::of(Equivalence::Failure),
            Some(DetNotion::Failure)
        );
        assert_eq!(DetNotion::of(Equivalence::Strong), None);
        assert_eq!(DetNotion::of(Equivalence::KObservational(1)), None);
    }

    #[test]
    #[should_panic(expected = "not fully explored")]
    fn transition_table_panics_until_explored() {
        let f = format::parse("trans p a q\naccept q").unwrap();
        let (mut auto, view) = arena(&f);
        auto.start(view, f.start());
        let _ = auto.transition_table();
    }

    #[test]
    fn unexplored_counter_tracks_lazy_steps() {
        let f = format::parse("trans p a q\ntrans q b p\naccept p q").unwrap();
        let (mut auto, view) = arena(&f);
        for s in f.state_ids() {
            auto.start(view, s);
        }
        auto.explore(view);
        // O(1) completeness check passes and the table is genuinely dense.
        let table = auto.transition_table();
        assert_eq!(table.len(), auto.num_subsets() * auto.num_actions());
    }

    #[test]
    fn kobs_signatures_group_subsets_by_hit_classes() {
        let f = format::parse("trans p a q\ntrans r a s\ntrans t tau q\naccept q s").unwrap();
        let (mut auto, view) = arena(&f);
        for s in f.state_ids() {
            auto.start(view, s);
        }
        auto.explore(view);
        // Level 0: extension-set classes over the original states — two
        // blocks, the accepting states {q, s} and the plain ones {p, r, t}.
        let prev = Partition::from_assignment(&crate::strong::extension_assignment(&f));
        let sigs = auto.kobs_signatures(&prev);
        assert_eq!(sigs.len(), auto.num_subsets());
        // {p} and {r} hit only the plain class, {q} and {s} only the
        // accepting class, and t's closure {t, q} hits both — three distinct
        // signatures.
        let p = auto.start(view, f.state_by_name("p").unwrap());
        let r = auto.start(view, f.state_by_name("r").unwrap());
        let q = auto.start(view, f.state_by_name("q").unwrap());
        let s = auto.start(view, f.state_by_name("s").unwrap());
        let t = auto.start(view, f.state_by_name("t").unwrap());
        assert_eq!(sigs[p as usize], sigs[r as usize]);
        assert_eq!(sigs[q as usize], sigs[s as usize]);
        assert_ne!(sigs[p as usize], sigs[q as usize]);
        assert_ne!(sigs[t as usize], sigs[p as usize]);
        assert_ne!(sigs[t as usize], sigs[q as usize]);
        // The dead subset hits no classes at all — its own signature.
        assert!(sigs
            .iter()
            .enumerate()
            .all(|(id, &c)| id == 0 || c != sigs[0]));
    }
}
