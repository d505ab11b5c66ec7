//! Strong (bisimulation) equivalence `~` — Section 3.
//!
//! Strong equivalence is decided by the Lemma 3.1 reduction: the states of
//! the process(es) form the ground set, the initial partition groups states
//! with equal extension sets, and each transition label contributes one
//! relation.  The coarsest consistent stable partition is exactly the
//! partition into strong-bisimulation classes (Theorem 3.1).  It is computed
//! by the Kanellakis–Smolka both-halves splitter loop, `O(k·m·n)` worst case
//! for `k` labels.
//!
//! The paper defines `~` for *observable* processes; the functions here
//! accept any FSP and treat `τ` as an ordinary label (Milner's strong
//! bisimulation), which coincides with the paper's notion on observable
//! processes.

use ccs_fsp::{ops, Fsp, Label, StateId};
use ccs_partition::{kanellakis_smolka, solve, Algorithm, Instance, Partition};

/// The partition of a process's states into strong-bisimulation classes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StrongPartition {
    partition: Partition,
}

impl StrongPartition {
    /// Returns `true` iff the two states are strongly equivalent.
    #[must_use]
    pub fn equivalent(&self, p: StateId, q: StateId) -> bool {
        self.partition.same_block(p.index(), q.index())
    }

    /// The underlying canonical partition over state indices.
    #[must_use]
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Number of strong-bisimulation classes.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.partition.num_blocks()
    }

    /// The class index of a state.
    #[must_use]
    pub fn class_of(&self, p: StateId) -> usize {
        self.partition.block_of(p.index())
    }
}

/// The initial block assignment shared by every notion in the paper: states
/// with equal extension sets `E(q)` start in the same block (the base case
/// `≈₀` / `≃₀` of Definition 2.2.1 and the initial partition of Lemma 3.1).
pub(crate) fn extension_assignment(fsp: &Fsp) -> Vec<usize> {
    let mut ext_blocks: std::collections::HashMap<Vec<usize>, usize> =
        std::collections::HashMap::new();
    fsp.state_ids()
        .map(|s| {
            let key: Vec<usize> = fsp.extensions(s).iter().map(|v| v.index()).collect();
            let fresh = ext_blocks.len();
            *ext_blocks.entry(key).or_insert(fresh)
        })
        .collect()
}

/// Builds the Lemma 3.1 generalized-partitioning instance for a process:
/// one relation per label (τ included if present), initial partition by
/// extension set.
///
/// The transition relations go straight from [`Fsp::all_transitions`] into
/// the instance's flat CSR edge list — there is no intermediate per-state
/// adjacency structure; the builder sorts, deduplicates, and lays out the
/// arrays once, on the solver's first adjacency query.
#[must_use]
pub fn to_instance(fsp: &Fsp) -> Instance {
    let has_tau = fsp.has_tau_transitions();
    let num_labels = fsp.num_actions() + usize::from(has_tau);
    let mut inst = Instance::new(fsp.num_states(), num_labels.max(1));
    inst.reserve_edges(fsp.num_transitions());
    for (s, block) in extension_assignment(fsp).into_iter().enumerate() {
        inst.set_initial_block(s, block);
    }
    for (from, label, to) in fsp.all_transitions() {
        let l = match label {
            Label::Act(a) => a.index(),
            Label::Tau => fsp.num_actions(),
        };
        inst.add_edge(l, from.index(), to.index());
    }
    inst
}

/// Computes the strong-bisimulation partition of a process's states with the
/// chosen partition-refinement algorithm.
#[must_use]
pub fn strong_partition_with(fsp: &Fsp, algorithm: Algorithm) -> StrongPartition {
    StrongPartition {
        partition: solve(&to_instance(fsp), algorithm),
    }
}

/// Computes the strong-bisimulation partition with the production refiner,
/// [`kanellakis_smolka::refine_both_halves`].
#[must_use]
pub fn strong_partition(fsp: &Fsp) -> StrongPartition {
    StrongPartition {
        partition: kanellakis_smolka::refine_both_halves(&to_instance(fsp)),
    }
}

/// Tests whether two states of the same process are strongly equivalent.
#[must_use]
pub fn strong_equivalent_states(fsp: &Fsp, p: StateId, q: StateId) -> bool {
    strong_partition(fsp).equivalent(p, q)
}

/// Tests whether the start states of two processes are strongly equivalent
/// (the processes are first combined with a disjoint union that merges the
/// alphabets by name).
#[must_use]
pub fn strong_equivalent(left: &Fsp, right: &Fsp) -> bool {
    let union = ops::disjoint_union(left, right);
    let (p, q) = ops::union_starts(&union, left, right);
    strong_equivalent_states(&union.fsp, p, q)
}

/// Builds the quotient process: one state per strong-bisimulation class, with
/// a transition between classes iff some representative pair has one.  The
/// quotient is the minimal process strongly equivalent to the input.
#[must_use]
pub fn quotient(fsp: &Fsp) -> Fsp {
    let sp = strong_partition(fsp);
    let mut b = Fsp::builder(&format!("{}/~", fsp.name()));
    // Create one state per class, named after its smallest representative.
    let class_states: Vec<StateId> = (0..sp.num_classes())
        .map(|c| {
            let rep = StateId::from_index(sp.partition().block(c)[0].index());
            b.state(&format!("[{}]", fsp.state_label(rep)))
        })
        .collect();
    for c in 0..sp.num_classes() {
        let rep = StateId::from_index(sp.partition().block(c)[0].index());
        for var in fsp.extensions(rep) {
            b.add_extension(class_states[c], fsp.var_name(*var));
        }
        for t in fsp.transitions(rep) {
            let target_class = sp.class_of(t.target);
            let label = match t.label {
                Label::Tau => Label::Tau,
                Label::Act(a) => {
                    let name = fsp.action_name(a);
                    Label::Act(b.action(name))
                }
            };
            b.add_transition(class_states[c], label, class_states[target_class]);
        }
    }
    b.set_start(class_states[sp.class_of(fsp.start())]);
    b.build()
        .expect("quotient of a non-empty process is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_fsp::format;

    /// Milner's classic example: a.(b + c) vs a.b + a.c are not strongly
    /// equivalent.
    #[test]
    fn branching_time_distinction() {
        let left = format::parse("trans p a q\ntrans q b r\ntrans q c s").unwrap();
        let right = format::parse("trans u a v\ntrans u a w\ntrans v b x\ntrans w c y").unwrap();
        assert!(!strong_equivalent(&left, &right));
    }

    #[test]
    fn unfolding_a_loop_is_strongly_equivalent() {
        // A one-state a-loop and a two-state a-cycle are strongly equivalent.
        let small = format::parse("trans p a p").unwrap();
        let big = format::parse("trans u a v\ntrans v a u").unwrap();
        assert!(strong_equivalent(&small, &big));
        assert!(strong_equivalent(&big, &small));
    }

    #[test]
    fn extensions_block_equivalence() {
        let plain = format::parse("trans p a q").unwrap();
        let marked = format::parse("trans p a q\naccept q").unwrap();
        assert!(!strong_equivalent(&plain, &marked));
        assert!(strong_equivalent(&marked, &marked));
    }

    #[test]
    fn tau_is_an_ordinary_label_for_strong_equivalence() {
        let with_tau = format::parse("trans p tau q\ntrans q a r").unwrap();
        let without = format::parse("trans p a r").unwrap();
        assert!(!strong_equivalent(&with_tau, &without));
    }

    #[test]
    fn states_within_one_process() {
        let f =
            format::parse("trans p a p1\ntrans q a q1\ntrans p1 b p\ntrans q1 b q\ntrans r a r1")
                .unwrap();
        let p = f.state_by_name("p").unwrap();
        let q = f.state_by_name("q").unwrap();
        let r = f.state_by_name("r").unwrap();
        assert!(strong_equivalent_states(&f, p, q));
        assert!(!strong_equivalent_states(&f, p, r));
        let sp = strong_partition(&f);
        // Classes: {p, q}, {p1, q1}, {r}, {r1}.
        assert_eq!(sp.num_classes(), 4);
    }

    #[test]
    fn all_three_algorithms_agree() {
        let f = format::parse(
            "trans a x b\ntrans b x c\ntrans c x a\ntrans d x e\ntrans e x f\ntrans f x d\naccept c f",
        )
        .unwrap();
        let reference = strong_partition_with(&f, Algorithm::Naive);
        for alg in Algorithm::ALL {
            assert_eq!(strong_partition_with(&f, alg), reference, "{alg}");
        }
        let a = f.state_by_name("a").unwrap();
        let d = f.state_by_name("d").unwrap();
        assert!(reference.equivalent(a, d));
    }

    #[test]
    fn quotient_is_minimal_and_equivalent() {
        // Two redundant copies of an a-b loop hanging off the start.
        let f = format::parse(
            "trans s a p\ntrans s a q\ntrans p b p2\ntrans q b q2\ntrans p2 a p\ntrans q2 a q",
        )
        .unwrap();
        let q = quotient(&f);
        assert!(strong_equivalent(&f, &q));
        assert!(q.num_states() < f.num_states());
        // Quotienting again changes nothing.
        let qq = quotient(&q);
        assert_eq!(qq.num_states(), q.num_states());
    }

    #[test]
    fn instance_construction_counts() {
        let f = format::parse("trans p a q\ntrans p tau q\naccept q").unwrap();
        let inst = to_instance(&f);
        assert_eq!(inst.num_elements(), 2);
        assert_eq!(inst.num_labels(), 2); // a + tau
        assert_eq!(inst.num_edges(), 2);
        // p and q start in different blocks (extensions differ).
        assert_ne!(inst.initial_blocks()[0], inst.initial_blocks()[1]);
    }
}
