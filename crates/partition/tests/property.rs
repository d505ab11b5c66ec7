//! Property-based tests for the generalized-partitioning solvers: on
//! arbitrary instances every algorithm agrees with the naive method, the result is stable and
//! consistent, and it is coarser than any stable refinement we can exhibit.

use ccs_partition::{solve, Algorithm, Instance, Partition};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RawInstance {
    n: usize,
    labels: usize,
    edges: Vec<(usize, usize, usize)>,
    initial: Vec<usize>,
}

fn instance_strategy() -> impl Strategy<Value = RawInstance> {
    (1usize..12, 1usize..3).prop_flat_map(|(n, labels)| {
        let edges = proptest::collection::vec((0..labels, 0..n, 0..n), 0..30);
        let initial = proptest::collection::vec(0usize..3, n);
        (Just(n), Just(labels), edges, initial).prop_map(|(n, labels, edges, initial)| {
            RawInstance {
                n,
                labels,
                edges,
                initial,
            }
        })
    })
}

fn build(raw: &RawInstance) -> Instance {
    let mut inst = Instance::new(raw.n, raw.labels);
    for (i, &b) in raw.initial.iter().enumerate() {
        inst.set_initial_block(i, b);
    }
    for &(l, from, to) in &raw.edges {
        inst.add_edge(l, from, to);
    }
    inst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_algorithms_agree(raw in instance_strategy()) {
        let inst = build(&raw);
        let naive = solve(&inst, Algorithm::Naive);
        let ks = solve(&inst, Algorithm::KanellakisSmolka);
        let ks_both = solve(&inst, Algorithm::KanellakisSmolkaBothHalves);
        prop_assert_eq!(&naive, &ks);
        prop_assert_eq!(&naive, &ks_both);
    }

    #[test]
    fn result_is_consistent_and_stable(raw in instance_strategy()) {
        let inst = build(&raw);
        let p = solve(&inst, Algorithm::KanellakisSmolkaBothHalves);
        prop_assert!(inst.is_consistent_stable(&p));
        // The result refines the initial partition…
        let initial = Partition::from_assignment(inst.initial_blocks());
        prop_assert!(p.refines(&initial));
        // …and the discrete partition refines it.
        prop_assert!(Partition::discrete(raw.n).refines(&p));
    }

    #[test]
    fn coarser_than_the_discrete_stable_partition(raw in instance_strategy()) {
        // The discrete partition is always stable and consistent, so the
        // coarsest one must have at most as many blocks.
        let inst = build(&raw);
        let p = solve(&inst, Algorithm::KanellakisSmolkaBothHalves);
        prop_assert!(p.num_blocks() <= raw.n);
        prop_assert_eq!(p.num_elements(), raw.n);
    }

    #[test]
    fn merging_equivalent_elements_preserves_stability(raw in instance_strategy()) {
        // Identical copies of the same structure collapse: duplicate every
        // element's edges onto a shadow copy and check the shadow lands in the
        // same block as the original.
        let mut doubled = Instance::new(2 * raw.n, raw.labels);
        for (i, &b) in raw.initial.iter().enumerate() {
            doubled.set_initial_block(i, b);
            doubled.set_initial_block(i + raw.n, b);
        }
        for &(l, from, to) in &raw.edges {
            doubled.add_edge(l, from, to);
            doubled.add_edge(l, from + raw.n, to + raw.n);
        }
        let p = solve(&doubled, Algorithm::KanellakisSmolkaBothHalves);
        for i in 0..raw.n {
            prop_assert!(p.same_block(i, i + raw.n), "element {} and its copy diverged", i);
        }
    }
}
