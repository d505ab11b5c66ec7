//! Property tests for the [`EquivSession`] engine: on random workloads the
//! session's batched pair queries must agree with the one-shot free
//! functions, and repeated queries against one session must return
//! identical partitions (the cache-coherence oracle).

use ccs_equiv::{failures, strong, weak, EquivSession, Equivalence};
use ccs_fsp::{Fsp, Label, StateId};
use ccs_partition::{solve, Algorithm};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RawProcess {
    states: usize,
    edges: Vec<(usize, usize, usize)>, // (from, label, to); label 0 = tau
    accepting: Vec<bool>,
}

fn process_strategy() -> impl Strategy<Value = RawProcess> {
    (2usize..8).prop_flat_map(move |states| {
        let edges = proptest::collection::vec((0..states, 0usize..3, 0..states), 1..20);
        let accepting = proptest::collection::vec(any::<bool>(), states);
        (Just(states), edges, accepting).prop_map(|(states, edges, accepting)| RawProcess {
            states,
            edges,
            accepting,
        })
    })
}

fn build(raw: &RawProcess) -> Fsp {
    let mut b = Fsp::builder("session-prop");
    let ids: Vec<StateId> = (0..raw.states).map(|i| b.state(&format!("s{i}"))).collect();
    let a0 = b.action("a");
    let a1 = b.action("b");
    for &(from, label, to) in &raw.edges {
        let l = match label {
            0 => Label::Tau,
            1 => Label::Act(a0),
            _ => Label::Act(a1),
        };
        b.add_transition(ids[from], l, ids[to]);
    }
    for (i, &acc) in raw.accepting.iter().enumerate() {
        if acc {
            b.mark_accepting(ids[i]);
        }
    }
    b.build().expect("generated process is non-empty")
}

fn all_pairs(fsp: &Fsp) -> Vec<(StateId, StateId)> {
    let states: Vec<StateId> = fsp.state_ids().collect();
    let mut pairs = Vec::new();
    for &p in &states {
        for &q in &states {
            pairs.push((p, q));
        }
    }
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Session-answered batched pair queries agree with the pre-refactor
    /// free functions for strong, observational, and failure equivalence.
    #[test]
    fn batched_queries_agree_with_free_functions(raw in process_strategy()) {
        let fsp = build(&raw);
        let pairs = all_pairs(&fsp);
        let session = EquivSession::for_process(&fsp);

        let strong_batch = session.equivalent_pairs(Equivalence::Strong, &pairs);
        let sp = strong::strong_partition(&fsp);
        for (&(p, q), &got) in pairs.iter().zip(&strong_batch) {
            prop_assert_eq!(got, sp.equivalent(p, q), "strong {} vs {}", p, q);
        }

        let weak_batch = session.equivalent_pairs(Equivalence::Observational, &pairs);
        let wp = weak::weak_partition(&fsp);
        for (&(p, q), &got) in pairs.iter().zip(&weak_batch) {
            prop_assert_eq!(got, wp.equivalent(p, q), "observational {} vs {}", p, q);
        }

        let failure_batch = session.equivalent_pairs(Equivalence::Failure, &pairs);
        for (&(p, q), &got) in pairs.iter().zip(&failure_batch) {
            prop_assert_eq!(
                got,
                failures::failure_equivalent_states(&fsp, p, q).equivalent,
                "failure {} vs {}",
                p,
                q
            );
        }
    }

    /// Cache-coherence oracle: asking one session the same question twice —
    /// as a partition, as a batch, or as single pair queries — returns
    /// identical answers, and the memoized partitions are bitwise equal.
    #[test]
    fn repeated_queries_return_identical_partitions(raw in process_strategy()) {
        let fsp = build(&raw);
        let pairs = all_pairs(&fsp);
        let session = EquivSession::for_process(&fsp);
        for notion in [
            Equivalence::Strong,
            Equivalence::Observational,
            Equivalence::Limited(2),
            Equivalence::Failure,
        ] {
            let first = session.classify_all(notion);
            let batch = session.equivalent_pairs(notion, &pairs);
            let second = session.classify_all(notion);
            prop_assert_eq!(&first, &second, "partition changed across queries: {}", notion);
            for (&(p, q), &got) in pairs.iter().zip(&batch) {
                prop_assert_eq!(got, first.same_block(p.index(), q.index()), "{}", notion);
                prop_assert_eq!(
                    got,
                    session.equivalent_states(p, q, notion),
                    "single query disagrees with batch: {}",
                    notion
                );
            }
        }
    }

    /// The session's observational partition matches every solver run
    /// over its own weak instance, and the *pre-refactor* pipeline —
    /// explicit saturation into a second process, then strong refinement —
    /// which does not share any code with the streamed session path, so
    /// this is an independent oracle rather than a tautology.
    #[test]
    fn observational_partition_per_algorithm(raw in process_strategy()) {
        let fsp = build(&raw);
        let saturated = ccs_fsp::saturate::saturate(&fsp);
        let session = EquivSession::for_process(&fsp);
        let from_session = session.classify_all(Equivalence::Observational);
        for alg in Algorithm::ALL {
            prop_assert_eq!(
                from_session.as_ref(),
                &solve(session.weak_instance(), alg),
                "weak instance, {}",
                alg
            );
            let legacy = strong::strong_partition_with(&saturated.fsp, alg);
            prop_assert_eq!(from_session.as_ref(), legacy.partition(), "legacy oracle, {}", alg);
            let free = weak::weak_partition_with(&fsp, alg);
            prop_assert_eq!(from_session.as_ref(), free.partition(), "{}", alg);
        }
    }

    /// Small batches of the pairwise PSPACE notions take the per-pair path;
    /// it must agree with the partition-backed path on the same session.
    #[test]
    fn small_and_large_failure_batches_agree(raw in process_strategy()) {
        let fsp = build(&raw);
        let pairs = all_pairs(&fsp);
        let small: Vec<_> = pairs.iter().copied().take(1).collect();
        let fresh = EquivSession::for_process(&fsp);
        let from_pairwise = fresh.equivalent_pairs(Equivalence::Failure, &small);
        let classified = EquivSession::for_process(&fsp);
        classified.classify_all(Equivalence::Failure);
        let from_partition = classified.equivalent_pairs(Equivalence::Failure, &small);
        prop_assert_eq!(from_pairwise, from_partition);
    }
}
