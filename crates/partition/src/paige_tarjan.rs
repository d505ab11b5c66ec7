//! The Paige–Tarjan relational coarsest partition algorithm (Theorem 3.1),
//! generalized to labelled relations.
//!
//! The algorithm maintains two partitions: the fine partition `Q` (the
//! answer under construction) and a coarser partition `X` whose blocks are
//! unions of `Q`-blocks, with the invariant that `Q` is *stable* with respect
//! to every `X`-block under every relation.  A compound `X`-block `S`
//! (containing at least two `Q`-blocks) is processed by extracting a
//! `Q`-block `B` of size at most `|S|/2` ("process the smaller half") and
//! performing, per relation, a three-way split of every `Q`-block `D`:
//!
//! 1. elements with successors in `B` only,
//! 2. elements with successors in both `B` and `S \ B`,
//! 3. elements with successors in `S \ B` only (or none).
//!
//! Split 3 is computed *without scanning* `S \ B` by keeping, for every
//! element and relation, the count of its successors inside each `X`-block.
//! Every element is scanned only when the half it belongs to is extracted, so
//! each element is scanned `O(log n)` times and the total running time is
//! `O(m log n + n)` (Paige & Tarjan 1987), which the paper combines with
//! Lemma 3.1 to decide strong equivalence within the same bound.

use std::collections::HashMap;

use crate::ids::{self, StateId};
use crate::kanellakis_smolka::initial_fine_partition;
use crate::{Instance, Partition};

/// Runs the Paige–Tarjan algorithm and returns the coarsest consistent
/// stable partition.
#[must_use]
pub fn refine(instance: &Instance) -> Partition {
    let n = instance.num_elements();
    if n == 0 {
        return Partition::from_assignment::<usize>(&[]);
    }
    let num_labels = instance.num_labels();
    // Hoist the CSR view out of the hot loops.
    let graph = instance.graph();

    // --- Initial fine partition Q: the shared per-label "has a successor"
    // seed, so that Q is stable with respect to the single initial X-block
    // (the whole set).  All live state is 32-bit: elements are packed
    // `StateId`s, Q-/X-block ids raw `u32`s, and the edge counters `u32`
    // values keyed by 12-byte `(label, element, x_block)` triples — half the
    // former key size, which matters because `counts` is the algorithm's
    // largest structure.
    let (mut block_of, mut q_blocks) = initial_fine_partition(instance, graph);

    // --- X partition: initially one block containing every Q-block.
    let mut x_of_q: Vec<u32> = vec![0; q_blocks.len()];
    let mut x_blocks: Vec<Vec<u32>> = vec![(0..ids::narrow(q_blocks.len())).collect()];

    // counts[(label, element, x_block)] = number of edges from `element`
    // under `label` into `x_block`.
    let mut counts: HashMap<(u32, StateId, u32), u32> = HashMap::new();
    for l in 0..num_labels {
        for x in 0..n {
            let d = graph.successors(l, x).len();
            if d > 0 {
                counts.insert((ids::narrow(l), StateId::from_index(x), 0), ids::narrow(d));
            }
        }
    }

    // Worklist of compound X-blocks.
    let mut worklist: Vec<u32> = Vec::new();
    let mut on_worklist: Vec<bool> = vec![false; 1];
    if x_blocks[0].len() >= 2 {
        worklist.push(0);
        on_worklist[0] = true;
    }

    // Epoch-stamped "Q-block already marked affected" scratch, one epoch per
    // (splitter, label) round.
    let mut affected_stamp: Vec<u64> = vec![0; q_blocks.len()];
    let mut epoch: u64 = 0;

    while let Some(s) = worklist.pop() {
        on_worklist[s as usize] = false;
        if x_blocks[s as usize].len() < 2 {
            continue;
        }
        // Choose B: the smaller of the first two Q-blocks of S.
        let (pos, b) = {
            let q0 = x_blocks[s as usize][0];
            let q1 = x_blocks[s as usize][1];
            if q_blocks[q0 as usize].len() <= q_blocks[q1 as usize].len() {
                (0, q0)
            } else {
                (1, q1)
            }
        };
        // Extract B from S into a fresh X-block.
        x_blocks[s as usize].swap_remove(pos);
        let xb = ids::narrow(x_blocks.len());
        x_blocks.push(vec![b]);
        on_worklist.push(false);
        x_of_q[b as usize] = xb;
        if x_blocks[s as usize].len() >= 2 && !on_worklist[s as usize] {
            on_worklist[s as usize] = true;
            worklist.push(s);
        }

        let b_elems = q_blocks[b as usize].clone();
        for label in 0..num_labels {
            let l32 = ids::narrow(label);
            epoch += 1;
            // Count, for every predecessor x of B under `label`, how many of
            // its successors lie in B.
            let mut cnt_b: HashMap<StateId, u32> = HashMap::new();
            for &y in &b_elems {
                for &x in graph.predecessors(label, y.index()) {
                    *cnt_b.entry(x).or_insert(0) += 1;
                }
            }
            if cnt_b.is_empty() {
                continue;
            }
            // Classify each predecessor: group 1 = successors only in B,
            // group 2 = successors in both B and S \ B.
            // Elements not in cnt_b that were in pre(S) form group 3 and are
            // never touched (that is the point of the counters).
            let mut affected_blocks: Vec<u32> = Vec::new();
            let mut group_of: HashMap<StateId, u8> = HashMap::new();
            for (&x, &into_b) in &cnt_b {
                let into_s = *counts
                    .get(&(l32, x, s))
                    .expect("x has an edge into B ⊆ old S, so a count for S must exist");
                let group = if into_b == into_s { 1 } else { 2 };
                group_of.insert(x, group);
                let d = block_of[x.index()];
                if affected_stamp[d as usize] != epoch {
                    affected_stamp[d as usize] = epoch;
                    affected_blocks.push(d);
                }
            }
            // Three-way split of every affected Q-block.
            for &d in &affected_blocks {
                let mut part1: Vec<StateId> = Vec::new();
                let mut part2: Vec<StateId> = Vec::new();
                let mut part3: Vec<StateId> = Vec::new();
                for &x in &q_blocks[d as usize] {
                    match group_of.get(&x) {
                        Some(1) => part1.push(x),
                        Some(2) => part2.push(x),
                        _ => part3.push(x),
                    }
                }
                let mut parts: Vec<Vec<StateId>> = [part1, part2, part3]
                    .into_iter()
                    .filter(|p| !p.is_empty())
                    .collect();
                if parts.len() < 2 {
                    continue;
                }
                // Keep the first non-empty part under the old id, create new
                // Q-blocks (in the same X-block) for the rest.
                let home_x = x_of_q[d as usize];
                q_blocks[d as usize] = parts.remove(0);
                for part in parts {
                    let new_q = ids::narrow(q_blocks.len());
                    for &x in &part {
                        block_of[x.index()] = new_q;
                    }
                    q_blocks.push(part);
                    x_of_q.push(home_x);
                    affected_stamp.push(0);
                    x_blocks[home_x as usize].push(new_q);
                }
                // The X-block that gained Q-blocks is now compound.
                if x_blocks[home_x as usize].len() >= 2 && !on_worklist[home_x as usize] {
                    on_worklist[home_x as usize] = true;
                    worklist.push(home_x);
                }
            }
            // Update the counters: edges into B now count toward the new
            // X-block `xb`; counts toward S shrink accordingly.
            for (&x, &into_b) in &cnt_b {
                counts.insert((l32, x, xb), into_b);
                let entry = counts
                    .get_mut(&(l32, x, s))
                    .expect("count for old S exists");
                *entry -= into_b;
                if *entry == 0 {
                    counts.remove(&(l32, x, s));
                }
            }
        }
    }

    Partition::from_assignment(&block_of)
}

#[cfg(test)]
// Test RNG draws narrow by `as` on purpose; the lint guards library code.
#[allow(clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use crate::{kanellakis_smolka, naive};

    fn cross_check(inst: &Instance) -> Partition {
        let pt = refine(inst);
        let ks = kanellakis_smolka::refine(inst);
        let nv = naive::refine(inst);
        assert_eq!(pt, ks, "paige-tarjan vs kanellakis-smolka");
        assert_eq!(pt, nv, "paige-tarjan vs naive");
        assert!(inst.is_consistent_stable(&pt));
        pt
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(0, 1);
        assert_eq!(refine(&inst).num_elements(), 0);
    }

    #[test]
    fn singleton_without_edges() {
        let inst = Instance::new(1, 1);
        assert_eq!(refine(&inst).num_blocks(), 1);
    }

    #[test]
    fn chain_is_fully_discriminated() {
        let mut inst = Instance::new(8, 1);
        for i in 0..7 {
            inst.add_edge(0, i, i + 1);
        }
        assert_eq!(cross_check(&inst).num_blocks(), 8);
    }

    #[test]
    fn parallel_cycles_collapse() {
        let mut inst = Instance::new(6, 1);
        for base in [0, 3] {
            inst.add_edge(0, base, base + 1);
            inst.add_edge(0, base + 1, base + 2);
            inst.add_edge(0, base + 2, base);
        }
        assert_eq!(cross_check(&inst).num_blocks(), 1);
    }

    #[test]
    fn initial_partition_is_respected() {
        let mut inst = Instance::new(6, 1);
        for base in [0, 3] {
            inst.add_edge(0, base, base + 1);
            inst.add_edge(0, base + 1, base + 2);
            inst.add_edge(0, base + 2, base);
        }
        inst.set_initial_block(4, 1);
        let p = cross_check(&inst);
        // Breaking the symmetry of one cycle separates everything in it, and
        // the blocks of the two cycles can no longer be merged.
        assert!(p.num_blocks() > 1);
        assert!(!p.same_block(1, 4));
    }

    #[test]
    fn multi_label_and_nondeterminism() {
        let mut inst = Instance::new(7, 2);
        inst.add_edge(0, 0, 1);
        inst.add_edge(0, 0, 2);
        inst.add_edge(1, 1, 3);
        inst.add_edge(1, 2, 4);
        inst.add_edge(0, 5, 1);
        inst.add_edge(0, 5, 2);
        inst.add_edge(0, 6, 2);
        let p = cross_check(&inst);
        // 1 and 2 are equivalent (both have a single `1`-labelled edge to a
        // dead element), so 0, 5 and 6 all reach the same set of blocks.
        assert!(p.same_block(1, 2));
        assert!(p.same_block(0, 5));
        assert!(p.same_block(0, 6));
    }

    #[test]
    fn counts_matter_for_stability_not_equivalence() {
        // 0 has two edges into the cycle {2,3}, 1 has one: still equivalent,
        // since only non-emptiness of fₗ(a) ∩ E_j matters.
        let mut inst = Instance::new(4, 1);
        inst.add_edge(0, 0, 2);
        inst.add_edge(0, 0, 3);
        inst.add_edge(0, 1, 2);
        inst.add_edge(0, 2, 3);
        inst.add_edge(0, 3, 2);
        let p = cross_check(&inst);
        assert!(p.same_block(0, 1));
    }

    #[test]
    fn random_instances_agree_with_reference_algorithms() {
        // Deterministic pseudo-random instances (linear congruential) so the
        // test needs no external dependency.
        let mut seed: u64 = 0x2545F491_4F6CDD1D;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..25 {
            let n = 2 + (next() % 14) as usize;
            let labels = 1 + (next() % 3) as usize;
            let edges = (next() % (3 * n as u64)) as usize;
            let mut inst = Instance::new(n, labels);
            for _ in 0..edges {
                let l = (next() % labels as u64) as usize;
                let from = (next() % n as u64) as usize;
                let to = (next() % n as u64) as usize;
                inst.add_edge(l, from, to);
            }
            if case % 3 == 0 {
                // Sometimes impose a non-trivial initial partition.
                for x in 0..n {
                    inst.set_initial_block(x, x % 2);
                }
            }
            cross_check(&inst);
        }
    }
}
