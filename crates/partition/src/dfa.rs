//! Complete deterministic finite automata, the deterministic special case of
//! Section 3 (`fₗ : S → S`, `m = k·n`).

use std::fmt;

use crate::ids::StateId;

/// A complete DFA over the label alphabet `0..num_labels`, with an arbitrary
/// output class per state.
///
/// The classical accepting/non-accepting dichotomy corresponds to classes `1`
/// and `0`; the more general per-state class plays the role of the extension
/// set of an FSP and seeds the initial partition of minimization.
///
/// The transition table is stored flat and compact — one packed [`StateId`]
/// per `(state, label)` slot in row-major order, plus a `u32` class per
/// state — so a complete DFA costs `4·(k+1)` bytes per state with no
/// per-state heap allocation.  This matters because the determinization
/// layer of `ccs-equiv` materializes subset automata as [`Dfa`]s whose state
/// counts are exponential in the process size.
#[derive(Clone, PartialEq, Eq)]
pub struct Dfa {
    num_labels: usize,
    start: usize,
    /// `delta[state·num_labels + label]` — the unique successor.
    delta: Vec<StateId>,
    /// Output class per state.
    class: Vec<u32>,
}

impl Dfa {
    /// Creates a DFA with `num_states` states and `num_labels` labels, all
    /// transitions initially self-loops and all classes `0`.
    ///
    /// # Panics
    ///
    /// Panics if `start >= num_states`, `num_states == 0`, or the state
    /// count exceeds the packed 32-bit id range.
    #[must_use]
    pub fn new(num_states: usize, num_labels: usize, start: usize) -> Self {
        assert!(num_states > 0, "a DFA needs at least one state");
        assert!(start < num_states, "start state out of range");
        let mut delta = Vec::with_capacity(num_states * num_labels);
        for s in 0..num_states {
            let id = StateId::from_index(s);
            delta.extend(std::iter::repeat(id).take(num_labels));
        }
        Dfa {
            num_labels,
            start,
            delta,
            class: vec![0; num_states],
        }
    }

    /// Number of states.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.class.len()
    }

    /// Number of labels.
    #[must_use]
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// The start state.
    #[must_use]
    pub fn start(&self) -> usize {
        self.start
    }

    /// Sets `δ(state, label) = target`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn set_transition(&mut self, state: usize, label: usize, target: usize) {
        assert!(label < self.num_labels, "label out of range");
        assert!(target < self.num_states(), "target out of range");
        assert!(state < self.num_states(), "state out of range");
        self.delta[state * self.num_labels + label] = StateId::from_index(target);
    }

    /// Sets the output class of a state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range or `class` exceeds `u32::MAX`
    /// (classes are stored compactly alongside the packed state ids).
    pub fn set_class(&mut self, state: usize, class: usize) {
        self.class[state] =
            u32::try_from(class).expect("output class exceeds the 32-bit class range");
    }

    /// Marks a state as accepting (class `1`) or non-accepting (class `0`).
    pub fn set_accepting(&mut self, state: usize, accepting: bool) {
        self.set_class(state, usize::from(accepting));
    }

    /// The unique successor `δ(state, label)`.
    #[must_use]
    pub fn step(&self, state: usize, label: usize) -> usize {
        assert!(label < self.num_labels, "label out of range");
        self.delta[state * self.num_labels + label].index()
    }

    /// The output class of a state.
    #[must_use]
    pub fn class(&self, state: usize) -> usize {
        self.class[state] as usize
    }

    /// The output classes of all states, indexed by state, as compact
    /// 32-bit ids.
    #[must_use]
    pub fn classes(&self) -> &[u32] {
        &self.class
    }

    /// Adopts the dense transition table of a fully-explored subset
    /// automaton (or any complete deterministic table): `delta[s·k + l]` is
    /// the successor of state `s` under label `l`, and `classes[s]` its
    /// output class — both already compact `u32`s, which is exactly what the
    /// determinization layer produces.  The number of states is
    /// `classes.len()`.
    ///
    /// This is the bridge the `ccs-equiv` determinization layer uses to hand
    /// its interned subset arena to the partition-refinement solvers: the
    /// arena's per-subset annotations (acceptance, trace non-emptiness,
    /// refusal-antichain identity) become multi-class outputs, and one
    /// refinement of the resulting DFA classifies every subset at once.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty, if `delta.len() != classes.len() ×
    /// num_labels`, if `start` or any transition target is out of range.
    #[must_use]
    pub fn from_subset_automaton(
        num_labels: usize,
        start: usize,
        delta: &[u32],
        classes: &[u32],
    ) -> Self {
        let n = classes.len();
        assert!(n > 0, "a DFA needs at least one state");
        assert!(start < n, "start state out of range");
        assert_eq!(
            delta.len(),
            n * num_labels,
            "transition table must be dense (num_states × num_labels)"
        );
        let packed: Vec<StateId> = delta
            .iter()
            .map(|&t| {
                assert!((t as usize) < n, "target out of range");
                StateId::from_index(t as usize)
            })
            .collect();
        Dfa {
            num_labels,
            start,
            delta: packed,
            class: classes.to_vec(),
        }
    }

    /// Returns `true` iff the state's class is non-zero.
    #[must_use]
    pub fn is_accepting(&self, state: usize) -> bool {
        self.class[state] != 0
    }

    /// Runs the DFA on a word (sequence of labels) from the start state and
    /// returns the final state.
    #[must_use]
    pub fn run(&self, word: &[usize]) -> usize {
        word.iter().fold(self.start, |s, &l| self.step(s, l))
    }

    /// Returns `true` iff the DFA accepts `word` (final state has non-zero
    /// class).
    #[must_use]
    pub fn accepts(&self, word: &[usize]) -> bool {
        self.is_accepting(self.run(word))
    }

    /// Heap bytes held by the DFA (transition table and class array),
    /// measured from live container capacities.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.delta.capacity() * size_of::<StateId>() + self.class.capacity() * size_of::<u32>()
    }

    /// Converts the DFA into a generalized-partitioning
    /// [`Instance`](crate::Instance)
    /// (Section 3's deterministic case), seeding the initial partition with
    /// the output classes.
    #[must_use]
    pub fn to_instance(&self) -> crate::Instance {
        let mut inst = crate::Instance::new(self.num_states(), self.num_labels);
        inst.reserve_edges(self.num_states() * self.num_labels);
        for s in 0..self.num_states() {
            inst.set_initial_block(s, self.class[s] as usize);
            for l in 0..self.num_labels {
                inst.add_edge(l, s, self.step(s, l));
            }
        }
        inst
    }
}

impl fmt::Debug for Dfa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Dfa")
            .field("states", &self.num_states())
            .field("labels", &self.num_labels)
            .field("start", &self.start)
            .field("classes", &self.class)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A DFA over {0,1} accepting words with an even number of 1s.
    pub(crate) fn even_ones() -> Dfa {
        let mut d = Dfa::new(2, 2, 0);
        d.set_transition(0, 0, 0);
        d.set_transition(0, 1, 1);
        d.set_transition(1, 0, 1);
        d.set_transition(1, 1, 0);
        d.set_accepting(0, true);
        d
    }

    #[test]
    fn construction_and_stepping() {
        let d = even_ones();
        assert_eq!(d.num_states(), 2);
        assert_eq!(d.num_labels(), 2);
        assert_eq!(d.start(), 0);
        assert_eq!(d.step(0, 1), 1);
        assert_eq!(d.run(&[1, 1, 0]), 0);
        assert!(d.accepts(&[]));
        assert!(d.accepts(&[1, 0, 1]));
        assert!(!d.accepts(&[1]));
        assert!(d.is_accepting(0));
        assert!(!d.is_accepting(1));
        assert_eq!(d.class(0), 1);
    }

    #[test]
    #[should_panic(expected = "start state out of range")]
    fn invalid_start_panics() {
        let _ = Dfa::new(2, 1, 5);
    }

    #[test]
    #[should_panic(expected = "target out of range")]
    fn invalid_target_panics() {
        let mut d = Dfa::new(2, 1, 0);
        d.set_transition(0, 0, 7);
    }

    #[test]
    fn from_subset_automaton_round_trips() {
        let d = even_ones();
        let delta: Vec<u32> = (0..d.num_states())
            .flat_map(|s| (0..d.num_labels()).map(move |l| (s, l)))
            .map(|(s, l)| u32::try_from(d.step(s, l)).unwrap())
            .collect();
        let rebuilt = Dfa::from_subset_automaton(d.num_labels(), d.start(), &delta, d.classes());
        assert_eq!(rebuilt, d);
        assert_eq!(rebuilt.classes(), &[1, 0]);
    }

    #[test]
    #[should_panic(expected = "must be dense")]
    fn from_subset_automaton_rejects_ragged_tables() {
        let _ = Dfa::from_subset_automaton(2, 0, &[0, 1, 1], &[0, 1]);
    }

    #[test]
    fn transition_table_is_flat_and_compact() {
        // 3 states × 2 labels: 6 packed targets + 3 class words, all 4-byte.
        let d = Dfa::new(3, 2, 0);
        assert!(d.resident_bytes() >= (6 + 3) * 4);
        assert_eq!(d.step(2, 1), 2); // self-loop init survives the flat layout
    }

    #[test]
    fn instance_conversion_counts_edges() {
        let d = even_ones();
        let inst = d.to_instance();
        assert_eq!(inst.num_elements(), 2);
        assert_eq!(inst.num_edges(), 4);
        assert_eq!(inst.initial_blocks(), &[1, 0]);
    }
}
