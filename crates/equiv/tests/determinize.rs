//! The determinized classification oracle: `EquivSession::classify_all`
//! for every PSPACE notion (language, trace, failure) must produce exactly
//! the partition of the pre-determinization representative scan — the old
//! per-pair subset-construction path kept alive as
//! `EquivSession::representative_scan_partition` — across structured
//! workload families (including the exponential-blowup family), random
//! processes, and (on the product DFA) every refinement solver.  The
//! one-arena `≈ₖ` engine's oracle tests live in the root
//! `tests/arena_determinism.rs`.

use ccs_equiv::determinize::{DetNotion, SubsetAutomaton};
use ccs_equiv::{EquivSession, Equivalence};
use ccs_fsp::Fsp;
use ccs_partition::{solve, Algorithm, Dfa, Partition};
use ccs_workloads::{families, random, RandomConfig};
use proptest::prelude::*;

const NOTIONS: [Equivalence; 3] = [
    Equivalence::Language,
    Equivalence::Trace,
    Equivalence::Failure,
];

fn assert_det_matches_oracle(fsp: &Fsp, label: &str) {
    let session = EquivSession::for_process(fsp);
    for notion in NOTIONS {
        let oracle = session.representative_scan_partition(notion);
        let det = session.classify_all(notion);
        assert_eq!(det.as_ref(), &oracle, "{label}: {notion}");
    }
}

#[test]
fn determinized_classification_matches_oracle_on_families() {
    for n in [1usize, 2, 5, 9, 16] {
        assert_det_matches_oracle(&families::chain(n, "a"), "chain");
        assert_det_matches_oracle(&families::cycle(n, "a"), "cycle");
        assert_det_matches_oracle(&families::tau_chain(n), "tau-chain");
        assert_det_matches_oracle(&families::counter(n), "counter");
    }
    for depth in [0usize, 2, 3] {
        assert_det_matches_oracle(&families::binary_tree(depth), "tree");
    }
    assert_det_matches_oracle(&families::vending_machine(true), "vending-internal");
    assert_det_matches_oracle(&families::vending_machine(false), "vending-external");
    for (n, w) in [(6usize, 2usize), (12, 3), (20, 4), (33, 4)] {
        assert_det_matches_oracle(&families::det_blowup(n, w), "blowup");
    }
}

/// Every refinement solver, run over the product DFA of the shared subset
/// automaton, yields the same (canonical) partition — and it is the
/// oracle's, which the session's Hopcroft classification also matches.
#[test]
fn every_solver_classifies_the_blowup_family_identically() {
    let fsp = families::det_blowup(14, 3);
    let session = EquivSession::for_process(&fsp);
    let view = session.saturated_view();
    for notion in NOTIONS {
        let oracle = session.representative_scan_partition(notion);
        assert_eq!(session.classify_all(notion).as_ref(), &oracle, "{notion}");
        let mut auto = SubsetAutomaton::new(&fsp);
        let starts: Vec<u32> = fsp.state_ids().map(|s| auto.start(view, s)).collect();
        auto.explore(view);
        let det = DetNotion::of(notion).unwrap();
        let classes = auto.classes(view, det);
        let dfa = Dfa::from_subset_automaton(
            auto.num_actions(),
            SubsetAutomaton::DEAD as usize,
            auto.transition_table(),
            &classes,
        );
        for alg in Algorithm::ALL {
            let over_subsets = solve(&dfa.to_instance(), alg);
            let assignment: Vec<usize> = starts
                .iter()
                .map(|&s| over_subsets.block_of(s as usize))
                .collect();
            assert_eq!(
                Partition::from_assignment(&assignment),
                oracle,
                "{notion} via {alg}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random processes, general and restricted: the determinized engine
    /// and the representative scan agree on all three notions at every
    /// sampled size.
    #[test]
    fn determinized_classification_matches_oracle_on_random_processes(
        states in 2usize..10,
        seed in 0u64..400,
        tau in 0usize..2,
        accepting_all in any::<bool>(),
    ) {
        let fsp = random::random_fsp(&RandomConfig {
            tau_ratio: if tau == 1 { 0.25 } else { 0.0 },
            accept_ratio: if accepting_all { 1.0 } else { 0.5 },
            ..RandomConfig::sized(states, seed)
        });
        let session = EquivSession::for_process(&fsp);
        for notion in NOTIONS {
            let oracle = session.representative_scan_partition(notion);
            let det = session.classify_all(notion);
            prop_assert_eq!(det.as_ref(), &oracle, "{}", notion);
        }
    }

    /// Pair queries through the on-the-fly search agree with the
    /// determinized partition.
    #[test]
    fn pair_cache_agrees_with_classification(
        states in 2usize..8,
        seed in 0u64..200,
    ) {
        let fsp = random::random_fsp(&RandomConfig {
            tau_ratio: 0.2,
            accept_ratio: 0.5,
            ..RandomConfig::sized(states, seed)
        });
        for notion in NOTIONS {
            // Fresh session: pair queries go through the on-the-fly search.
            let pair_session = EquivSession::for_process(&fsp);
            let mut answers = Vec::new();
            for p in fsp.state_ids() {
                for q in fsp.state_ids() {
                    answers.push(pair_session.equivalent_states(p, q, notion));
                }
            }
            // Second session: force the partition, then compare lookups.
            let class_session = EquivSession::for_process(&fsp);
            let partition = class_session.classify_all(notion);
            let mut it = answers.iter();
            for p in fsp.state_ids() {
                for q in fsp.state_ids() {
                    let expected = partition.same_block(p.index(), q.index());
                    prop_assert_eq!(*it.next().unwrap(), expected, "{}: {} vs {}", notion, p, q);
                }
            }
        }
    }
}
