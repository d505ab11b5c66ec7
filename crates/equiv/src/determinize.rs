//! The shared determinization subsystem: one memoized, interned subset
//! automaton per session, feeding both whole-space classification and
//! early-exiting pair checks for the PSPACE notions.
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
//! * [`PairCache`] answers individual pair queries by a synchronized
//!   union-find search over interned subset ids (the AHU scheme of
//!   [`dfa_equiv`](ccs_partition::dfa_equiv), run on the lazily-built
//!   arena), pruned *up to congruence*: a popped pair whose sides are
//!   already merged is skipped, which subsumes the antichain pruning of the
//!   De Wulf–Doyen line for this synchronized-pair shape (Bonchi & Pous).
//!   Verdicts are memoized across queries — proven pairs merge into a
//!   persistent congruence, refuted pairs (and every ancestor on the path
//!   that exposed them) land in a refutation cache — so a session's later
//!   queries early-exit on first contact with anything already decided.
//!
//! # Memory layout
//!
//! Subset ids are `u32` ([`SubsetId`]) and the arena stores member sets in
//! one of two compact representations ([`SubsetRepr`]), chosen from the
//! state count at construction: *dense* fixed-width bitsets (one `u64` word
//! row per subset) when the ground set is small enough that a row beats a
//! member list, or *sparse* sorted `u32` runs concatenated in one flat
//! array behind a CSR offset table.  Interning hashes subsets by the XOR of
//! their mixed members (a SplitMix64-based fingerprint) — order- and
//! representation-independent — into a `u64 → id` table, so the member data
//! is stored exactly once (the old layout duplicated every member list as a
//! `HashMap` key).  Transitions, annotations, the refusal-antichain intern
//! and the [`PairCache`] congruence all ride the same 32-bit ids.
//!
//! The worst case is still exponential — as Theorem 4.1(b) demands — but
//! the exponential work is paid **once per subset**, not once per pair.

use std::collections::HashMap;

use ccs_fsp::saturate::SaturatedView;
use ccs_fsp::{ActionId, Fsp, StateId};
use ccs_partition::{solve, Algorithm, Dfa, Partition};

use crate::check::Equivalence;
use crate::compact::{narrow, subset_fingerprint};
use crate::failures::maximal_refusals;

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

/// How a [`SubsetAutomaton`] stores its member sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubsetRepr {
    /// Fixed-width bitsets: `⌈n/64⌉` `u64` words per subset.  Constant-size
    /// rows, `O(1)` membership, and the densest choice once subsets average
    /// more than a couple of words' worth of members — the regime of the
    /// determinization blow-up families.
    Dense,
    /// Sorted `u32` member runs concatenated in one flat array behind a CSR
    /// offset table.  Four bytes per member: the better choice when the
    /// ground set is large but subsets stay small.
    Sparse,
}

impl SubsetRepr {
    /// Largest ground set for which the automatic choice picks
    /// [`SubsetRepr::Dense`]: a bitset row is then at most 64 bytes, which
    /// beats sparse runs as soon as subsets average ≥ 16 members — and
    /// subset constructions over small ground sets are exactly the ones
    /// whose subsets get fat.
    pub const DENSE_MAX_STATES: usize = 512;

    /// The representation used for a ground set of `num_states` states when
    /// the caller does not force one.
    #[must_use]
    pub fn choose(num_states: usize) -> Self {
        if num_states <= Self::DENSE_MAX_STATES {
            SubsetRepr::Dense
        } else {
            SubsetRepr::Sparse
        }
    }
}

/// The member storage behind the arena — see [`SubsetRepr`].
#[derive(Clone, Debug)]
enum MemberStore {
    Dense {
        /// `u64` words per subset row (`⌈num_states/64⌉`).
        words: usize,
        bits: Vec<u64>,
    },
    Sparse {
        offsets: Vec<u32>,
        data: Vec<u32>,
    },
}

impl MemberStore {
    fn new(repr: SubsetRepr, num_states: usize) -> Self {
        match repr {
            SubsetRepr::Dense => MemberStore::Dense {
                words: num_states.div_ceil(64),
                bits: Vec::new(),
            },
            SubsetRepr::Sparse => MemberStore::Sparse {
                offsets: vec![0],
                data: Vec::new(),
            },
        }
    }

    /// Appends a subset (sorted, duplicate-free members) and returns nothing;
    /// the caller assigns the next dense id.
    fn push(&mut self, members: &[u32]) {
        match self {
            MemberStore::Dense { words, bits } => {
                let base = bits.len();
                bits.resize(base + *words, 0);
                for &m in members {
                    bits[base + (m as usize >> 6)] |= 1u64 << (m & 63);
                }
            }
            MemberStore::Sparse { offsets, data } => {
                data.extend_from_slice(members);
                offsets.push(narrow(data.len()));
            }
        }
    }

    /// Number of members of a subset.
    fn len(&self, id: SubsetId) -> usize {
        match self {
            MemberStore::Dense { words, bits } => bits[id as usize * *words..][..*words]
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum(),
            MemberStore::Sparse { offsets, .. } => {
                (offsets[id as usize + 1] - offsets[id as usize]) as usize
            }
        }
    }

    /// Whether the stored subset equals `members` (sorted, duplicate-free).
    fn matches(&self, id: SubsetId, members: &[u32]) -> bool {
        match self {
            MemberStore::Dense { words, bits } => {
                let row = &bits[id as usize * *words..][..*words];
                row.iter().map(|w| w.count_ones() as usize).sum::<usize>() == members.len()
                    && members
                        .iter()
                        .all(|&m| row[m as usize >> 6] & (1u64 << (m & 63)) != 0)
            }
            MemberStore::Sparse { offsets, data } => {
                &data[offsets[id as usize] as usize..offsets[id as usize + 1] as usize] == members
            }
        }
    }

    /// Iterates the members of a subset in ascending order.
    fn iter(&self, id: SubsetId) -> MemberIter<'_> {
        match self {
            MemberStore::Dense { words, bits } => MemberIter::Dense {
                row: &bits[id as usize * *words..][..*words],
                word: 0,
                current: 0,
            },
            MemberStore::Sparse { offsets, data } => MemberIter::Sparse(
                data[offsets[id as usize] as usize..offsets[id as usize + 1] as usize].iter(),
            ),
        }
    }

    /// The materialized sorted member list of a subset.
    fn collect(&self, id: SubsetId) -> Vec<u32> {
        self.iter(id).collect()
    }

    /// Heap bytes held by the store, from live container capacities.
    fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        match self {
            MemberStore::Dense { bits, .. } => bits.capacity() * size_of::<u64>(),
            MemberStore::Sparse { offsets, data } => {
                (offsets.capacity() + data.capacity()) * size_of::<u32>()
            }
        }
    }
}

/// Ascending member iterator over either representation.
enum MemberIter<'a> {
    Dense {
        row: &'a [u64],
        /// Index of the next word to load.
        word: usize,
        /// Remaining bits of the last loaded word.
        current: u64,
    },
    Sparse(std::slice::Iter<'a, u32>),
}

impl Iterator for MemberIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            MemberIter::Dense { row, word, current } => {
                while *current == 0 {
                    if *word >= row.len() {
                        return None;
                    }
                    *current = row[*word];
                    *word += 1;
                }
                let bit = current.trailing_zeros();
                *current &= *current - 1;
                Some(narrow((*word - 1) * 64) + bit)
            }
            MemberIter::Sparse(it) => it.next().copied(),
        }
    }
}

/// A memoized, interned subset automaton over one process.
///
/// Subsets are sorted, duplicate-free, ε-closed member sets stored compactly
/// (see [`SubsetRepr`]) and interned once via an order-independent
/// fingerprint; transitions are computed lazily against a caller-provided
/// [`SaturatedView`] and cached forever.  Id [`SubsetAutomaton::DEAD`] is
/// the empty subset, which makes the (explored part of the) automaton a
/// *complete* DFA — the shape the partition core's [`Dfa`] wants.
#[derive(Clone, Debug)]
pub struct SubsetAutomaton {
    num_actions: usize,
    repr: SubsetRepr,
    store: MemberStore,
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

    /// Creates an empty automaton for `fsp` with the representation
    /// [`SubsetRepr::choose`] picks for its state count, capturing the
    /// acceptance flags (the only fact the annotations need from the process
    /// itself; all transition structure comes from the [`SaturatedView`]
    /// passed to each exploring call, which must be the view of the same
    /// process).
    #[must_use]
    pub fn new(fsp: &Fsp) -> Self {
        Self::with_repr(fsp, SubsetRepr::choose(fsp.num_states()))
    }

    /// Like [`SubsetAutomaton::new`] with an explicit member representation
    /// — both produce identical ids, transitions and classes (the property
    /// suite asserts it); only the byte layout differs.
    #[must_use]
    pub fn with_repr(fsp: &Fsp, repr: SubsetRepr) -> Self {
        let mut auto = SubsetAutomaton {
            num_actions: fsp.num_actions(),
            repr,
            store: MemberStore::new(repr, fsp.num_states()),
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

    /// The member representation this arena stores subsets in.
    #[must_use]
    pub fn repr(&self) -> SubsetRepr {
        self.repr
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
        self.store.resident_bytes()
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

    /// The materialized sorted member list of a subset (state indices).
    #[must_use]
    pub fn subset(&self, id: SubsetId) -> Vec<u32> {
        self.store.collect(id)
    }

    /// Number of members of a subset, without materializing it.
    #[must_use]
    pub fn subset_len(&self, id: SubsetId) -> usize {
        self.store.len(id)
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
        if self.store.matches(id, members) {
            return Some(id);
        }
        self.intern_spill
            .iter()
            .find(|&&(f, sid)| f == fp && self.store.matches(sid, members))
            .map(|&(_, sid)| sid)
    }

    /// Interns a subset known to be absent, with its annotations.
    fn intern_new(&mut self, fp: u64, members: &[u32], enabled: &[u32]) -> SubsetId {
        let id = self.num_subsets;
        assert!(id < UNEXPLORED, "subset arena exceeds the 32-bit id range");
        self.num_subsets += 1;
        self.store.push(members);
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
    fn enabled_of(&self, view: &SaturatedView, members: &[u32]) -> Vec<u32> {
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
    fn intern_subset(&mut self, view: &SaturatedView, members: &[u32]) -> SubsetId {
        let fp = subset_fingerprint(members);
        if let Some(id) = self.lookup(fp, members) {
            return id;
        }
        let enabled = self.enabled_of(view, members);
        self.intern_new(fp, members, &enabled)
    }

    /// The start subset of an original state: its ε-closure, interned
    /// (memoized per state).
    pub fn start(&mut self, view: &SaturatedView, p: StateId) -> SubsetId {
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
    pub fn step(&mut self, view: &SaturatedView, id: SubsetId, action: ActionId) -> SubsetId {
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
            for x in self.store.iter(id) {
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
    pub fn refusal_class(&mut self, view: &SaturatedView, id: SubsetId) -> u32 {
        if self.refusal_class[id as usize] != REFUSAL_UNSET {
            return self.refusal_class[id as usize];
        }
        let members = self.store.collect(id);
        let antichain = maximal_refusals(view, &members);
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
    pub fn explore(&mut self, view: &SaturatedView) {
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
    pub fn classes(&mut self, view: &SaturatedView, notion: DetNotion) -> Vec<u32> {
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
                self.store
                    .iter(id)
                    .map(|m| narrow(prev.block_of(m as usize))),
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
        view: &SaturatedView,
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
/// classes seed a multi-class [`Dfa`], and Paige–Tarjan refines it once.
/// The block of a state is the block of its start subset.
pub fn determinized_partition(
    auto: &mut SubsetAutomaton,
    view: &SaturatedView,
    notion: DetNotion,
    num_states: usize,
) -> Partition {
    classify_starts(auto, view, num_states, |auto| auto.classes(view, notion))
}

/// The one arena classification every determinized notion shares: interns
/// the start subset of each of the `num_states` original states, explores
/// the arena to completion, seeds a multi-class product [`Dfa`] with the
/// per-subset `classes` (read off the explored arena), refines it once with
/// Paige–Tarjan, and maps the result back — the block of a state is the
/// block of its start subset.
pub(crate) fn classify_starts(
    auto: &mut SubsetAutomaton,
    view: &SaturatedView,
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
    let over_subsets = solve(&dfa.to_instance(), Algorithm::PaigeTarjan);
    let assignment: Vec<usize> = starts
        .iter()
        .map(|&s| over_subsets.block_of(s as usize))
        .collect();
    Partition::from_assignment(&assignment)
}

/// A per-notion memo of decided subset pairs: proven pairs merge into a
/// persistent union-find congruence, refuted pairs are cached with every
/// ancestor pair on the path that exposed them.
///
/// One cache serves every pair query of a session against one notion; the
/// arena ids it stores are those of the session's shared
/// [`SubsetAutomaton`] — compact `u32`s throughout, halving both the
/// congruence array and the refutation set against the old `usize` layout —
/// so the cache must never be reused across automata.
#[derive(Clone, Debug, Default)]
pub struct PairCache {
    /// Parent array of the proven-equivalent congruence (grows with the
    /// arena; a root points to itself).
    proven: Vec<u32>,
    /// Canonically-ordered refuted pairs.
    refuted: std::collections::HashSet<(SubsetId, SubsetId)>,
}

pub(crate) fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        parent[x as usize] = parent[parent[x as usize] as usize]; // path halving
        x = parent[x as usize];
    }
    x
}

/// Unions two ids; returns `false` if they were already merged.
pub(crate) fn union(parent: &mut [u32], a: u32, b: u32) -> bool {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra == rb {
        return false;
    }
    parent[ra.max(rb) as usize] = ra.min(rb);
    true
}

fn canon(a: SubsetId, b: SubsetId) -> (SubsetId, SubsetId) {
    (a.min(b), a.max(b))
}

impl PairCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        PairCache::default()
    }

    /// Number of refuted pairs memoized so far (diagnostic).
    #[must_use]
    pub fn refuted_pairs(&self) -> usize {
        self.refuted.len()
    }

    /// Heap bytes held by the cache (congruence array plus refutation set),
    /// measured from live container capacities.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.proven.capacity() * size_of::<u32>()
            + self.refuted.capacity() * (size_of::<(SubsetId, SubsetId)>() + 1)
    }

    /// Whether the pair is already in the committed proven congruence — the
    /// `O(α)` early-exit of [`PairCache::equivalent`] (diagnostic).
    pub fn is_proven(&mut self, a: SubsetId, b: SubsetId) -> bool {
        let needed = a.max(b) as usize + 1;
        Self::grow(&mut self.proven, needed);
        find(&mut self.proven, a) == find(&mut self.proven, b)
    }

    fn grow(parent: &mut Vec<u32>, n: usize) {
        while parent.len() < n {
            parent.push(narrow(parent.len()));
        }
    }

    /// Decides whether two subset states are `notion`-equivalent by a
    /// synchronized union-find search over the shared arena, pruned up to
    /// the congruence of everything proven so far and early-exiting on any
    /// pair already refuted.
    ///
    /// On success the whole search's congruence is committed to the cache;
    /// on failure the distinguishing pair *and every ancestor on its
    /// provenance chain* (each inequivalent by the same suffix) are added to
    /// the refutation cache, and the speculative merges are discarded.
    pub fn equivalent(
        &mut self,
        auto: &mut SubsetAutomaton,
        view: &SaturatedView,
        notion: DetNotion,
        left: SubsetId,
        right: SubsetId,
    ) -> bool {
        Self::grow(&mut self.proven, auto.num_subsets());
        if find(&mut self.proven, left) == find(&mut self.proven, right) {
            return true;
        }
        if self.refuted.contains(&canon(left, right)) {
            return false;
        }
        // Speculative congruence: the persistent one plus this search's
        // merges; committed only if no distinguishing pair turns up.  The
        // root pair is merged up front (as every pushed pair is) so a
        // successful commit memoizes the queried pair itself.
        let mut uf = self.proven.clone();
        union(&mut uf, left, right);
        let mut pairs: Vec<(SubsetId, SubsetId)> = vec![(left, right)];
        let mut provenance: Vec<Option<usize>> = vec![None];
        let mut head = 0;
        while head < pairs.len() {
            let (x, y) = pairs[head];
            if auto.classes_differ(view, notion, x, y) || self.refuted.contains(&canon(x, y)) {
                // Every ancestor is distinguished by the same suffix.
                let mut cursor = Some(head);
                while let Some(i) = cursor {
                    self.refuted.insert(canon(pairs[i].0, pairs[i].1));
                    cursor = provenance[i];
                }
                return false;
            }
            for a in 0..auto.num_actions() {
                let action = ActionId::from_index(a);
                let nx = auto.step(view, x, action);
                let ny = auto.step(view, y, action);
                Self::grow(&mut uf, auto.num_subsets());
                if union(&mut uf, nx, ny) {
                    pairs.push((nx, ny));
                    provenance.push(Some(head));
                }
            }
            head += 1;
        }
        self.proven = uf;
        true
    }

    // --- hooks for the on-the-fly engine (crate::onthefly) ----------------
    //
    // The witness-producing search clones the committed congruence, prunes
    // against it speculatively exactly like `equivalent`, and feeds its
    // outcome back through these: the cache stays the single source of
    // session-level pair knowledge whichever engine ran the search.

    /// A speculative copy of the proven congruence, grown to `n` ids.
    pub(crate) fn speculative(&mut self, n: usize) -> Vec<u32> {
        Self::grow(&mut self.proven, n);
        self.proven.clone()
    }

    /// Commits a speculative congruence produced by a successful search.
    pub(crate) fn commit(&mut self, uf: Vec<u32>) {
        debug_assert!(uf.len() >= self.proven.len());
        self.proven = uf;
    }

    /// Memoizes a refuted pair (the on-the-fly engine records the whole
    /// provenance chain of a witness, one call per ancestor).
    pub(crate) fn record_refuted(&mut self, a: SubsetId, b: SubsetId) {
        self.refuted.insert(canon(a, b));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_fsp::format;
    use ccs_fsp::saturate::{tau_closure, SaturatedView};

    fn arena(fsp: &Fsp) -> (SubsetAutomaton, SaturatedView) {
        let closure = tau_closure(fsp);
        let view = SaturatedView::build(fsp, &closure);
        (SubsetAutomaton::new(fsp), view)
    }

    #[test]
    fn dead_state_is_interned_first_and_self_loops() {
        let f = format::parse("trans p a q\naccept q").unwrap();
        let (mut auto, view) = arena(&f);
        assert_eq!(auto.num_subsets(), 1);
        assert!(auto.subset(SubsetAutomaton::DEAD).is_empty());
        assert_eq!(auto.subset_len(SubsetAutomaton::DEAD), 0);
        assert!(!auto.is_accepting(SubsetAutomaton::DEAD));
        let a = f.action_id("a").unwrap();
        assert_eq!(
            auto.step(&view, SubsetAutomaton::DEAD, a),
            SubsetAutomaton::DEAD
        );
    }

    #[test]
    fn starts_are_epsilon_closures_and_memoized() {
        let f = format::parse("trans p tau q\ntrans q a r\naccept r").unwrap();
        let (mut auto, view) = arena(&f);
        let p = f.state_by_name("p").unwrap();
        let sp = auto.start(&view, p);
        assert_eq!(auto.subset(sp).len(), 2); // {p, q}
        assert_eq!(auto.subset_len(sp), 2);
        assert_eq!(auto.start(&view, p), sp);
        let a = f.action_id("a").unwrap();
        let after = auto.step(&view, sp, a);
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
        let sp = auto.start(&view, p);
        for _ in 0..3 {
            for a in f.action_ids() {
                assert_eq!(auto.step(&view, sp, a), sp);
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
        let su = auto.start(&view, u);
        let sp = auto.start(&view, p);
        let after_u = auto.step(&view, su, a); // {v, w}
        let after_p = auto.step(&view, sp, a); // {q}
        assert_ne!(
            auto.refusal_class(&view, after_u),
            auto.refusal_class(&view, after_p)
        );
        // Memoized: same class on re-query.
        assert_eq!(
            auto.refusal_class(&view, after_u),
            auto.refusal_class(&view, after_u)
        );
        // Start subsets: both enable exactly `a`, refusing {b, c} — equal.
        assert_eq!(auto.refusal_class(&view, su), auto.refusal_class(&view, sp));
    }

    #[test]
    fn explore_completes_the_table() {
        let f = format::parse("trans p a q\ntrans q b p\ntrans r a r\naccept p r").unwrap();
        let (mut auto, view) = arena(&f);
        for s in f.state_ids() {
            auto.start(&view, s);
        }
        auto.explore(&view);
        let table = auto.transition_table();
        assert_eq!(table.len(), auto.num_subsets() * auto.num_actions());
        assert!(table.iter().all(|&t| (t as usize) < auto.num_subsets()));
    }

    #[test]
    fn pair_cache_agrees_with_free_checkers_and_memoizes() {
        let f = format::parse("trans p a q\ntrans r a s\ntrans x b y\ntrans q a q\naccept q s y")
            .unwrap();
        let (mut auto, view) = arena(&f);
        let mut cache = PairCache::new();
        let states: Vec<StateId> = f.state_ids().collect();
        for &a in &states {
            for &b in &states {
                let (sa, sb) = (auto.start(&view, a), auto.start(&view, b));
                let got = cache.equivalent(&mut auto, &view, DetNotion::Language, sa, sb);
                let want = crate::language::language_equivalent_states(&f, a, b).holds;
                assert_eq!(got, want, "{a} vs {b}");
                // Positive verdicts land in the committed congruence (the
                // root pair is merged, not just its successors), so repeats
                // and the symmetric query take the early exit.
                if want {
                    assert!(cache.is_proven(sa, sb), "{a} ≡ {b} not memoized");
                }
                // Memoized verdicts are stable.
                assert_eq!(
                    cache.equivalent(&mut auto, &view, DetNotion::Language, sa, sb),
                    want
                );
            }
        }
        assert!(cache.refuted_pairs() > 0);
    }

    #[test]
    fn determinized_partition_matches_pairwise_oracle_per_notion() {
        let f = format::parse(
            "trans u a v\ntrans u a w\ntrans v b x\ntrans w c y\n\
             trans p a q\ntrans q b r\ntrans q c s\naccept u v w x y p q r s",
        )
        .unwrap();
        let closure = tau_closure(&f);
        let view = SaturatedView::build(&f, &closure);
        for notion in [DetNotion::Language, DetNotion::Trace, DetNotion::Failure] {
            let mut auto = SubsetAutomaton::new(&f);
            let partition = determinized_partition(&mut auto, &view, notion, f.num_states());
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

    /// The tentpole invariant of the representation split: dense-bitset and
    /// sparse-run arenas intern identical ids in identical order, compute
    /// identical transition tables, and classify identically — only the
    /// byte layout differs.
    #[test]
    fn dense_and_sparse_reprs_build_identical_arenas() {
        let f = format::parse(
            "trans p tau q\ntrans q a r\ntrans r tau p\ntrans s a t\ntrans s tau s\n\
             trans t b p\ntrans q b s\naccept r t",
        )
        .unwrap();
        let closure = tau_closure(&f);
        let view = SaturatedView::build(&f, &closure);
        let mut dense = SubsetAutomaton::with_repr(&f, SubsetRepr::Dense);
        let mut sparse = SubsetAutomaton::with_repr(&f, SubsetRepr::Sparse);
        assert_eq!(dense.repr(), SubsetRepr::Dense);
        assert_eq!(sparse.repr(), SubsetRepr::Sparse);
        for s in f.state_ids() {
            assert_eq!(dense.start(&view, s), sparse.start(&view, s), "{s}");
        }
        dense.explore(&view);
        sparse.explore(&view);
        assert_eq!(dense.num_subsets(), sparse.num_subsets());
        assert_eq!(dense.transition_table(), sparse.transition_table());
        for id in 0..narrow(dense.num_subsets()) {
            assert_eq!(dense.subset(id), sparse.subset(id), "subset {id}");
            assert_eq!(dense.enabled(id), sparse.enabled(id), "enabled {id}");
            assert_eq!(dense.is_accepting(id), sparse.is_accepting(id));
        }
        for notion in [DetNotion::Language, DetNotion::Trace, DetNotion::Failure] {
            assert_eq!(
                dense.classes(&view, notion),
                sparse.classes(&view, notion),
                "{notion:?}"
            );
        }
        // Sparse stores this small arena in fewer bytes than its old
        // usize-list self would have; both stay honest about their footprint.
        assert!(dense.resident_bytes() > 0);
        assert!(sparse.resident_bytes() > 0);
    }

    #[test]
    fn automatic_repr_choice_follows_the_ground_set() {
        assert_eq!(SubsetRepr::choose(1), SubsetRepr::Dense);
        assert_eq!(
            SubsetRepr::choose(SubsetRepr::DENSE_MAX_STATES),
            SubsetRepr::Dense
        );
        assert_eq!(
            SubsetRepr::choose(SubsetRepr::DENSE_MAX_STATES + 1),
            SubsetRepr::Sparse
        );
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
        auto.start(&view, f.start());
        let _ = auto.transition_table();
    }

    #[test]
    fn unexplored_counter_tracks_lazy_steps() {
        let f = format::parse("trans p a q\ntrans q b p\naccept p q").unwrap();
        let (mut auto, view) = arena(&f);
        for s in f.state_ids() {
            auto.start(&view, s);
        }
        auto.explore(&view);
        // O(1) completeness check passes and the table is genuinely dense.
        let table = auto.transition_table();
        assert_eq!(table.len(), auto.num_subsets() * auto.num_actions());
    }

    #[test]
    fn kobs_signatures_group_subsets_by_hit_classes() {
        let f = format::parse("trans p a q\ntrans r a s\ntrans t tau q\naccept q s").unwrap();
        let (mut auto, view) = arena(&f);
        for s in f.state_ids() {
            auto.start(&view, s);
        }
        auto.explore(&view);
        // Level 0: extension-set classes over the original states — two
        // blocks, the accepting states {q, s} and the plain ones {p, r, t}.
        let prev = Partition::from_assignment(&crate::strong::extension_assignment(&f));
        let sigs = auto.kobs_signatures(&prev);
        assert_eq!(sigs.len(), auto.num_subsets());
        // {p} and {r} hit only the plain class, {q} and {s} only the
        // accepting class, and t's closure {t, q} hits both — three distinct
        // signatures.
        let p = auto.start(&view, f.state_by_name("p").unwrap());
        let r = auto.start(&view, f.state_by_name("r").unwrap());
        let q = auto.start(&view, f.state_by_name("q").unwrap());
        let s = auto.start(&view, f.state_by_name("s").unwrap());
        let t = auto.start(&view, f.state_by_name("t").unwrap());
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
