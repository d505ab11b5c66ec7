//! Cross-crate property tests: on random `ccs_workloads` inputs, all three
//! generalized-partitioning solvers (naive, Kanellakis–Smolka in both the
//! both-halves and smaller-half variants) produce identical partitions
//! that pass the `is_consistent_stable` oracle, both on raw
//! instances and through the Lemma 3.1 reduction from processes; on the
//! deterministic special case Hopcroft agrees as well.  The naive method's
//! round sequence (`naive::rounds`) is checked level by level, and
//! `naive::level` against its last level.

use ccs_equiv::strong;
use ccs_partition::{hopcroft, naive, solve, Algorithm, Dfa, Instance, Partition};
use ccs_workloads::{instances, random, RandomConfig};
use proptest::prelude::*;

/// Checks that every [`Algorithm`] produces the same partition and that the
/// result is consistent and stable; returns the agreed partition.
fn solvers_agree(inst: &Instance) -> Result<Partition, TestCaseError> {
    let reference = solve(inst, Algorithm::Naive);
    for alg in Algorithm::ALL {
        let p = solve(inst, alg);
        prop_assert!(p == reference, "{alg} disagrees with naive");
    }
    prop_assert!(inst.is_consistent_stable(&reference));
    Ok(reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn solvers_agree_on_random_instances(
        n in 1usize..40,
        labels in 1usize..4,
        density in 0usize..5,
        seed in 0u64..1_000,
    ) {
        let inst = instances::random(n, labels, density * n, seed);
        solvers_agree(&inst)?;
    }

    #[test]
    fn solvers_agree_on_random_processes(
        states in 1usize..32,
        seed in 0u64..1_000,
        tau in 0usize..2,
    ) {
        // Through the Lemma 3.1 reduction: random process -> instance.
        let config = RandomConfig {
            tau_ratio: 0.3 * tau as f64,
            accept_ratio: 0.6,
            ..RandomConfig::sized(states, seed)
        };
        let inst = strong::to_instance(&random::random_fsp(&config));
        let p = solvers_agree(&inst)?;
        prop_assert_eq!(p.num_elements(), states);
    }

    #[test]
    fn hopcroft_agrees_on_the_deterministic_case(
        n in 1usize..32,
        labels in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let inst = instances::complete_deterministic(n, labels, seed);
        let mut dfa = Dfa::new(n, labels, 0);
        for s in 0..n {
            dfa.set_class(s, inst.initial_blocks()[s] as usize);
            for l in 0..labels {
                dfa.set_transition(s, l, inst.successors(l, s)[0].index());
            }
        }
        let via_hopcroft = hopcroft::minimize(&dfa);
        let reference = solvers_agree(&inst)?;
        prop_assert_eq!(via_hopcroft, reference);
    }

    #[test]
    fn naive_rounds_refine_level_by_level_to_the_fixpoint(
        n in 1usize..40,
        labels in 1usize..4,
        density in 0usize..5,
        seed in 0u64..1_000,
        cap in 0usize..4,
    ) {
        let inst = instances::random(n, labels, density * n, seed);
        let levels = naive::rounds(&inst, usize::MAX);
        prop_assert_eq!(&levels[0], &Partition::from_assignment(inst.initial_blocks()));
        for pair in levels.windows(2) {
            prop_assert!(pair[1].refines(&pair[0]));
            prop_assert!(pair[1].num_blocks() > pair[0].num_blocks());
        }
        prop_assert_eq!(levels.last().unwrap(), &naive::refine(&inst));
        // A round cap keeps a prefix of the same sequence.
        let capped = naive::rounds(&inst, cap);
        prop_assert_eq!(&capped[..], &levels[..levels.len().min(cap + 1)]);
    }

    #[test]
    fn naive_rounds_take_n_levels_on_a_chain(n in 1usize..64) {
        // Lemma 3.2's tightness example: each round splits off one more
        // element of the chain, so all `n` levels are needed.
        let levels = naive::rounds(&instances::chain(n), usize::MAX);
        prop_assert_eq!(levels.len(), n);
        prop_assert_eq!(levels[n - 1].num_blocks(), n);
    }

    #[test]
    fn naive_level_is_the_last_of_the_rounds(
        n in 1usize..24,
        labels in 1usize..4,
        density in 0usize..5,
        seed in 0u64..1_000,
    ) {
        // `level` runs the same rounds but keeps only the last assignment.
        for inst in [instances::chain(n), instances::random(n, labels, density * n, seed)] {
            for k in 0..=n + 2 {
                let rounds = naive::rounds(&inst, k);
                prop_assert_eq!(&naive::level(&inst, k), rounds.last().unwrap(), "k = {}", k);
            }
        }
    }

    #[test]
    fn smaller_half_matches_both_halves_on_families(n in 1usize..64) {
        for inst in [instances::chain(n), instances::cycle(n)] {
            let small = solve(&inst, Algorithm::KanellakisSmolka);
            let both = solve(&inst, Algorithm::KanellakisSmolkaBothHalves);
            prop_assert_eq!(small, both);
        }
    }
}
