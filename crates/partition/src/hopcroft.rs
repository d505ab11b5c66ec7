//! Hopcroft's `O(k·n·log n)` DFA state-minimization algorithm (Hopcroft
//! 1971), the technique Section 3 of the paper generalizes to obtain the
//! Kanellakis–Smolka bound for bounded-fanout processes.

use std::collections::VecDeque;

use crate::graph::LabeledGraph;
use crate::ids::{self, StateId};
use crate::refinable::Refinable;
use crate::{Dfa, Partition};

/// Computes the coarsest partition of a complete DFA's states that is
/// consistent with the output classes and stable under every transition
/// function — i.e. the Myhill–Nerode equivalence of its states.
#[must_use]
pub fn minimize(dfa: &Dfa) -> Partition {
    let k = dfa.num_labels();
    // Flat CSR predecessor lists per label.  Each successor row is the one
    // DFA step, so the rows lay out in place with no sort.
    let graph = LabeledGraph::from_rows(dfa.num_states(), k, |l, s, out| {
        out.push(StateId::from_index(dfa.step(s, l)));
    });

    // Initial partition by output class, straight from the DFA's own
    // compact class array.
    let mut p = Refinable::new(dfa.classes());

    // Worklist of (block id, label) pairs.  Starting with every pair is
    // simpler than Hopcroft's "all but the largest" and has the same
    // asymptotic complexity up to a constant.
    let mut worklist: VecDeque<(u32, usize)> = (0..ids::narrow(p.num_blocks()))
        .flat_map(|b| (0..k).map(move |l| (b, l)))
        .collect();
    let mut splitter: Vec<StateId> = Vec::new();

    while let Some((a, l)) = worklist.pop_front() {
        // X = pre_l(A) for the current contents of A.
        splitter.clear();
        splitter.extend_from_slice(p.elements(a));
        for &y in &splitter {
            for &s in graph.predecessors(l, y.index()) {
                p.mark(s);
            }
        }
        // The smaller part of every split gets the new id, so enqueueing it
        // under every label is Hopcroft's trick — sound here, unlike in the
        // relational case, because the fₗ are functions.  If (old, label) is
        // still pending it will be processed with its new (larger-half)
        // contents; otherwise the smaller half suffices.
        p.split(|_, new| {
            for label in 0..k {
                worklist.push_back((new, label));
            }
        });
    }

    p.into_partition()
}

/// Builds the minimized DFA: the quotient of `dfa` by [`minimize`], with the
/// block of the original start state as start.
#[must_use]
pub fn minimized_dfa(dfa: &Dfa) -> Dfa {
    let partition = minimize(dfa);
    let num_blocks = partition.num_blocks();
    let mut out = Dfa::new(
        num_blocks,
        dfa.num_labels(),
        partition.block_of(dfa.start()),
    );
    for b in 0..num_blocks {
        let representative = partition.block(b)[0].index();
        out.set_class(b, dfa.class(representative));
        for l in 0..dfa.num_labels() {
            out.set_transition(b, l, partition.block_of(dfa.step(representative, l)));
        }
    }
    out
}

#[cfg(test)]
// Test RNG draws narrow by `as` on purpose; the lint guards library code.
#[allow(clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use crate::{solve, Algorithm};

    /// The classic 6-state example: accepts words over {a,b} ending in `b`,
    /// with redundant states.
    fn redundant_dfa() -> Dfa {
        let mut d = Dfa::new(6, 2, 0);
        // States 0..2 behave like "last was not b", 3..5 like "last was b",
        // with some unreachable/duplicated structure.
        let table = [
            (0, 1, 3),
            (1, 2, 4),
            (2, 0, 5),
            (3, 1, 3),
            (4, 2, 4),
            (5, 0, 5),
        ];
        for (s, on_a, on_b) in table {
            d.set_transition(s, 0, on_a);
            d.set_transition(s, 1, on_b);
        }
        for s in 3..6 {
            d.set_accepting(s, true);
        }
        d
    }

    #[test]
    fn redundant_states_collapse_to_two() {
        let d = redundant_dfa();
        let p = minimize(&d);
        assert_eq!(p.num_blocks(), 2);
        assert!(p.same_block(0, 1));
        assert!(p.same_block(3, 5));
        assert!(!p.same_block(0, 3));
    }

    #[test]
    fn minimization_agrees_with_generalized_partitioning() {
        let d = redundant_dfa();
        let via_hopcroft = minimize(&d);
        let via_ks = solve(&d.to_instance(), Algorithm::KanellakisSmolkaBothHalves);
        assert_eq!(via_hopcroft, via_ks);
        let via_naive = solve(&d.to_instance(), Algorithm::Naive);
        assert_eq!(via_hopcroft, via_naive);
    }

    #[test]
    fn minimized_dfa_preserves_language_on_samples() {
        let d = redundant_dfa();
        let m = minimized_dfa(&d);
        assert_eq!(m.num_states(), 2);
        let words: Vec<Vec<usize>> = vec![
            vec![],
            vec![0],
            vec![1],
            vec![0, 1],
            vec![1, 0],
            vec![1, 1, 0, 1],
            vec![0, 0, 1, 0, 0],
        ];
        for w in words {
            assert_eq!(d.accepts(&w), m.accepts(&w), "word {w:?}");
        }
    }

    #[test]
    fn already_minimal_dfa_is_unchanged_in_size() {
        // Parity-of-ones automaton: already minimal with 2 states.
        let mut d = Dfa::new(2, 2, 0);
        d.set_transition(0, 1, 1);
        d.set_transition(1, 1, 0);
        d.set_accepting(0, true);
        assert_eq!(minimize(&d).num_blocks(), 2);
        assert_eq!(minimized_dfa(&d).num_states(), 2);
    }

    #[test]
    fn distinct_classes_never_merge() {
        let mut d = Dfa::new(3, 1, 0);
        d.set_transition(0, 0, 1);
        d.set_transition(1, 0, 2);
        d.set_transition(2, 0, 2);
        d.set_class(0, 7);
        d.set_class(1, 7);
        d.set_class(2, 9);
        let p = minimize(&d);
        assert!(!p.same_block(1, 2));
        assert!(!p.same_block(0, 1)); // 0 reaches class 9 in two steps, 1 in one
    }

    #[test]
    fn random_dfas_match_generalized_partitioning() {
        let mut seed: u64 = 0x9E3779B97F4A7C15;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..20 {
            let n = 2 + (next() % 12) as usize;
            let k = 1 + (next() % 3) as usize;
            let mut d = Dfa::new(n, k, 0);
            for s in 0..n {
                d.set_accepting(s, next() % 2 == 0);
                for l in 0..k {
                    d.set_transition(s, l, (next() % n as u64) as usize);
                }
            }
            let a = minimize(&d);
            let b = solve(&d.to_instance(), Algorithm::Naive);
            assert_eq!(a, b);
        }
    }
}
