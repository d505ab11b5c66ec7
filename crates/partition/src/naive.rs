//! The *naive method* for generalized partitioning (Lemma 3.2).
//!
//! Starting from the initial partition, repeatedly recompute for every
//! element its *signature* — for each relation, the set of blocks its
//! successors fall into — and split blocks so that elements with different
//! signatures are separated.  Stop when a pass makes no progress.
//!
//! Each pass costs `O(n + m)` (up to the logarithmic factor of the signature
//! grouping) and at most `n` passes are needed, matching the paper's `O(n·m)`
//! bound; simple examples (long chains) show the bound is tight.

use std::collections::HashMap;

use crate::ids;
use crate::{Instance, Partition};

/// Runs the naive refinement method and returns the coarsest consistent
/// stable partition.
#[must_use]
pub fn refine(instance: &Instance) -> Partition {
    level(instance, usize::MAX)
}

/// Level `k` of the naive method's refinement sequence: the instance's
/// initial partition after at most `k` signature rounds, or the fixpoint if
/// the rounds converge sooner.  Equal to the last element of
/// [`rounds(instance, k)`](rounds), but holds one block assignment at a
/// time instead of every level, so its memory does not grow with `k`.
#[must_use]
pub fn level(instance: &Instance, k: usize) -> Partition {
    Partition::from_assignment(&run(instance, k, |_| {}))
}

/// The refinement sequence of the naive method: level 0 is the instance's
/// initial partition, and each further level is one signature round applied
/// to its predecessor.  Stops after `max_rounds` rounds or at the first
/// round that splits no block, whichever comes first, so the last level is
/// [`refine`]'s answer whenever the rounds converge within `max_rounds`.
///
/// Every level refines its predecessor, and a chain of `n` elements needs
/// all `n` levels — the tightness example of Lemma 3.2.
#[must_use]
pub fn rounds(instance: &Instance, max_rounds: usize) -> Vec<Partition> {
    let mut levels = Vec::new();
    run(instance, max_rounds, |block_of| {
        levels.push(Partition::from_assignment(block_of));
    });
    levels
}

/// Runs signature rounds from the initial blocks until a round splits no
/// block or `max_rounds` rounds have run.  `level` sees the initial
/// assignment and the assignment after every splitting round; the last
/// assignment is returned.
fn run(instance: &Instance, max_rounds: usize, mut level: impl FnMut(&[u32])) -> Vec<u32> {
    let (mut block_of, initial_blocks) = Partition::from_raw_assignment(instance.initial_blocks());
    let mut num_blocks = initial_blocks.len();
    level(&block_of);
    for _ in 0..max_rounds {
        let (next, next_blocks) = round(instance, &block_of);
        // A round only splits blocks, so an equal count means no change.
        if next_blocks == num_blocks {
            break;
        }
        block_of = next;
        num_blocks = next_blocks;
        level(&block_of);
    }
    block_of
}

/// One signature round: the next block of every element and the number of
/// blocks.  Elements stay together iff they share their current block and,
/// for every label, the set of current blocks their successors hit.
fn round(instance: &Instance, block_of: &[u32]) -> (Vec<u32>, usize) {
    let graph = instance.graph();
    // Signature of x: (current block, for each label the sorted set of
    // successor blocks) — all compact 32-bit ids.
    let mut sig_to_new: HashMap<(u32, Vec<Vec<u32>>), u32> = HashMap::new();
    let mut next: Vec<u32> = vec![0; block_of.len()];
    for (x, slot) in next.iter_mut().enumerate() {
        let mut per_label = Vec::with_capacity(instance.num_labels());
        for l in 0..instance.num_labels() {
            let mut hit: Vec<u32> = graph
                .successors(l, x)
                .iter()
                .map(|&y| block_of[y.index()])
                .collect();
            hit.sort_unstable();
            hit.dedup();
            per_label.push(hit);
        }
        let key = (block_of[x], per_label);
        let fresh = ids::narrow(sig_to_new.len());
        *slot = *sig_to_new.entry(key).or_insert(fresh);
    }
    let count = sig_to_new.len();
    (next, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_instance() {
        let inst = Instance::new(0, 1);
        assert_eq!(refine(&inst).num_elements(), 0);
    }

    #[test]
    fn no_edges_keeps_initial_partition() {
        let mut inst = Instance::new(4, 1);
        inst.set_initial_block(0, 0);
        inst.set_initial_block(1, 0);
        inst.set_initial_block(2, 1);
        inst.set_initial_block(3, 1);
        let p = refine(&inst);
        assert_eq!(p.num_blocks(), 2);
        assert!(p.same_block(0, 1));
        assert!(p.same_block(2, 3));
        assert!(!p.same_block(0, 2));
    }

    #[test]
    fn chain_is_fully_discriminated() {
        // 0 -> 1 -> 2 -> 3: each element has a distinct distance to the dead end.
        let mut inst = Instance::new(4, 1);
        for i in 0..3 {
            inst.add_edge(0, i, i + 1);
        }
        let p = refine(&inst);
        assert_eq!(p.num_blocks(), 4);
    }

    #[test]
    fn cycles_of_identical_structure_collapse() {
        // Two disjoint 3-cycles: all six elements are equivalent.
        let mut inst = Instance::new(6, 1);
        for base in [0, 3] {
            inst.add_edge(0, base, base + 1);
            inst.add_edge(0, base + 1, base + 2);
            inst.add_edge(0, base + 2, base);
        }
        let p = refine(&inst);
        assert_eq!(p.num_blocks(), 1);
    }

    #[test]
    fn labels_are_distinguished() {
        // 0 -a-> 1, 2 -b-> 3: elements 0 and 2 differ because the labels differ.
        let mut inst = Instance::new(4, 2);
        inst.add_edge(0, 0, 1);
        inst.add_edge(1, 2, 3);
        let p = refine(&inst);
        assert!(!p.same_block(0, 2));
        assert!(p.same_block(1, 3));
        assert_eq!(p.num_blocks(), 3);
    }

    #[test]
    fn nondeterministic_branching_is_by_reachable_blocks_only() {
        // 0 -> {1, 2}, 3 -> {1}: with 1 and 2 equivalent (both dead), 0 and 3
        // are equivalent too — the *set of blocks* hit matters, not the count.
        let mut inst = Instance::new(4, 1);
        inst.add_edge(0, 0, 1);
        inst.add_edge(0, 0, 2);
        inst.add_edge(0, 3, 1);
        let p = refine(&inst);
        assert!(p.same_block(0, 3));
        assert!(p.same_block(1, 2));
        assert_eq!(p.num_blocks(), 2);
    }

    #[test]
    fn result_is_stable_and_consistent() {
        let mut inst = Instance::new(5, 2);
        inst.set_initial_block(4, 1);
        inst.add_edge(0, 0, 1);
        inst.add_edge(0, 1, 2);
        inst.add_edge(1, 2, 3);
        inst.add_edge(1, 3, 4);
        inst.add_edge(0, 4, 0);
        let p = refine(&inst);
        assert!(inst.is_consistent_stable(&p));
    }
}
