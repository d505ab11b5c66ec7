//! Generalized-partitioning instances emitted directly through the
//! `ccs-partition` graph builder.
//!
//! These are the partition-kernel counterparts of the process-level
//! [`families`](crate::families) and [`random`](crate::random) generators:
//! the same topologies, but expressed as [`Instance`] edge lists so the
//! report's solver tables (E7, SCALE) and cross-solver property tests can
//! exercise the refinement kernels without going through an FSP build and
//! the Lemma 3.1 reduction first.  Every generator funnels its edges through
//! the instance's [`GraphBuilder`](ccs_partition::GraphBuilder), so the
//! solvers see the flat, deduplicated CSR layout.

use ccs_partition::Instance;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A single-relation chain `0 → 1 → … → n-1`: every element ends up in its
/// own block — the family on which the naive method's `O(n·m)` bound is
/// tight and refinement runs for the maximal number of rounds.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn chain(n: usize) -> Instance {
    assert!(n > 0, "a chain needs at least one element");
    let mut inst = Instance::new(n, 1);
    inst.reserve_edges(n.saturating_sub(1));
    for i in 0..n - 1 {
        inst.add_edge(0, i, i + 1);
    }
    inst
}

/// A single-relation cycle of `n` elements: everything collapses to one
/// block — the best case for partition refinement.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn cycle(n: usize) -> Instance {
    assert!(n > 0, "a cycle needs at least one element");
    let mut inst = Instance::new(n, 1);
    inst.reserve_edges(n);
    for i in 0..n {
        inst.add_edge(0, i, (i + 1) % n);
    }
    inst
}

/// A complete binary tree of the given depth over two relations (`l` and
/// `r` children): the coarsest partition has one block per level.
#[must_use]
pub fn binary_tree(depth: usize) -> Instance {
    // Nodes indexed 1..=total; node i has children 2i, 2i+1.
    let total = (1usize << (depth + 1)) - 1;
    let mut inst = Instance::new(total, 2);
    inst.reserve_edges(total - 1);
    for i in 1..=total {
        let left = 2 * i;
        let right = 2 * i + 1;
        if right <= total {
            inst.add_edge(0, i - 1, left - 1);
            inst.add_edge(1, i - 1, right - 1);
        }
    }
    inst
}

/// A pseudo-random multi-relation instance with `edges` edges drawn
/// uniformly (duplicates possible — the builder removes them), optionally
/// with a two-class initial partition.  Deterministic in `seed`.
#[must_use]
pub fn random(num_elements: usize, num_labels: usize, edges: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inst = Instance::new(num_elements, num_labels.max(1));
    inst.reserve_edges(edges);
    for _ in 0..edges {
        let l = rng.gen_range(0..num_labels.max(1));
        let from = rng.gen_range(0..num_elements);
        let to = rng.gen_range(0..num_elements);
        inst.add_edge(l, from, to);
    }
    inst
}

/// A dense pseudo-random instance: `degree` successor draws per element per
/// relation (so ≈ `degree · num_labels · n` edges before deduplication, and
/// fan-out bounded by `degree`), with elements spread round-robin over
/// `initial_classes` initial blocks (pass `1` for the trivial initial
/// partition).  The initial classes keep refinement from collapsing after a
/// round or two — a dense uniform graph with one initial block is
/// near-homogeneous — so the per-splitter preimage scans genuinely dominate,
/// while the bounded fan-out keeps the Kanellakis–Smolka `O(c²·n·log n)`
/// charge honest.  The report's MEM table measures its CSR footprint.
/// Deterministic in `seed`.
#[must_use]
pub fn dense_random(
    num_elements: usize,
    num_labels: usize,
    degree: usize,
    initial_classes: usize,
    seed: u64,
) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let labels = num_labels.max(1);
    let mut inst = Instance::new(num_elements, labels);
    inst.reserve_edges(num_elements * labels * degree);
    for x in 0..num_elements {
        inst.set_initial_block(x, x % initial_classes.max(1));
        for l in 0..labels {
            for _ in 0..degree {
                inst.add_edge(l, x, rng.gen_range(0..num_elements));
            }
        }
    }
    inst
}

/// A complete deterministic instance (`fₗ : S → S`, the Section 3 special
/// case): exactly one edge per element per relation, with a random two-class
/// initial partition — the shape on which Hopcroft's algorithm applies.
/// Deterministic in `seed`.
#[must_use]
pub fn complete_deterministic(num_elements: usize, num_labels: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inst = Instance::new(num_elements, num_labels.max(1));
    inst.reserve_edges(num_elements * num_labels.max(1));
    for x in 0..num_elements {
        inst.set_initial_block(x, usize::from(rng.gen_bool(0.5)));
        for l in 0..num_labels.max(1) {
            inst.add_edge(l, x, rng.gen_range(0..num_elements));
        }
    }
    inst
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_partition::{solve, Algorithm};

    #[test]
    fn chain_fully_discriminates() {
        let inst = chain(8);
        assert_eq!(inst.num_edges(), 7);
        assert_eq!(inst.max_fanout(), 1);
        let p = solve(&inst, Algorithm::KanellakisSmolka);
        assert_eq!(p.num_blocks(), 8);
    }

    #[test]
    fn cycle_collapses() {
        let inst = cycle(9);
        assert_eq!(inst.num_edges(), 9);
        let p = solve(&inst, Algorithm::Naive);
        assert_eq!(p.num_blocks(), 1);
    }

    #[test]
    fn binary_tree_has_one_block_per_level() {
        let inst = binary_tree(3);
        assert_eq!(inst.num_elements(), 15);
        assert_eq!(inst.num_edges(), 14);
        let p = solve(&inst, Algorithm::KanellakisSmolka);
        assert_eq!(p.num_blocks(), 4);
    }

    #[test]
    fn random_is_deterministic_in_the_seed() {
        let a = random(20, 2, 50, 7);
        let b = random(20, 2, 50, 7);
        assert_eq!(a, b);
        assert_ne!(a, random(20, 2, 50, 8));
        // Duplicates are deduplicated by the builder.
        assert!(a.num_edges() <= 50);
    }

    #[test]
    fn dense_random_is_dense_and_fanout_bounded() {
        let inst = dense_random(32, 2, 4, 4, 9);
        assert_eq!(inst, dense_random(32, 2, 4, 4, 9));
        assert_eq!(
            inst.initial_blocks().iter().copied().max(),
            Some(3),
            "four initial classes"
        );
        assert!(inst.max_fanout() <= 4);
        // Duplicates may collapse, but the draw count is the upper bound.
        assert!(inst.num_edges() <= 32 * 2 * 4);
        assert!(inst.num_edges() > 32);
        let p = solve(&inst, Algorithm::KanellakisSmolka);
        assert!(inst.is_consistent_stable(&p));
    }

    #[test]
    fn complete_deterministic_has_unit_fanout() {
        let inst = complete_deterministic(16, 2, 3);
        assert_eq!(inst.max_fanout(), 1);
        assert_eq!(inst.num_edges(), 32);
        let p = solve(&inst, Algorithm::KanellakisSmolkaBothHalves);
        assert!(inst.is_consistent_stable(&p));
    }
}
