//! The Kanellakis–Smolka splitter-worklist algorithm for generalized
//! partitioning, in both of the paper's variants.
//!
//! The PODC 1983 paper (and Smolka's 1984 dissertation) presents the
//! splitter-worklist scheme: maintain a worklist of *splitter* blocks; to
//! process a splitter `S` and a relation `fₗ`, compute the preimage
//! `pre_ℓ(S) = {x | fₗ(x) ∩ S ≠ ∅}` and split every block `D` into
//! `D ∩ pre_ℓ(S)` and `D \ pre_ℓ(S)`.  Re-enqueueing both halves of every
//! split gives the `O(n·m)` worst case — that version is
//! [`refine_both_halves`], the refiner production runs (the report's SOLVE
//! table measures it on production's instances).
//!
//! # The smaller-half argument (Section 3 of the paper)
//!
//! [`refine`] implements the sharpened algorithm behind the paper's
//! `O(c²·n·log n)` bound for transition fan-out bounded by `c`, which adapts
//! Hopcroft's "process the smaller half" to set-valued functions.  Plainly
//! enqueueing only the smaller half of a two-way split is *unsound* for
//! relations: an element can reach both halves of an old splitter, so
//! stability with respect to `D` and `D₁ ⊆ D` does not imply stability with
//! respect to `D \ D₁` (that implication only holds in the deterministic
//! case, which is why [`hopcroft`](crate::hopcroft) may use the plain rule).
//! The fix is to keep split siblings together in a pending *splitter group*
//! and, when a group is popped, extract only its smaller fragment `B` as the
//! active splitter, splitting every block three ways in a single pass:
//!
//! 1. elements with `fₗ`-successors in `B` only,
//! 2. elements with successors in both `B` and the still-pending co-fragment
//!    `S \ B`,
//! 3. elements with successors in `S \ B` only (or none) — never touched.
//!
//! Whether a predecessor of `B` also reaches `S \ B` is decided by scanning
//! its at most `c` successors — never by scanning `S \ B` itself.  Every
//! element therefore lands in an extracted smaller fragment `O(log n)`
//! times; each landing is charged `O(c)` incoming edges, each doing an
//! `O(c)` successor scan, giving the paper's `O(c²·n·log n)` total (and a
//! sound `O(c·m·log n)` in general).  Paige–Tarjan (1987) later removed the
//! bounded-fanout assumption by replacing the successor scan with edge
//! counters; this crate does not implement that variant.
//!
//! Both variants replace the former linear `touched_blocks.contains` scan
//! per preimage edge with epoch-stamped markers: scratch arrays stamped with
//! a per-(splitter, label) epoch make the duplicate checks `O(1)`.

use std::collections::HashMap;

use crate::graph::LabeledGraph;
use crate::ids::{self, StateId};
use crate::{Instance, Partition};

/// The initial fine partition of [`refine`]: the instance's initial
/// partition refined by the per-label "has at least one successor"
/// signature, so the seed is stable with respect to the single initial
/// splitter group (the whole set).
///
/// Returns the live `(block_of, blocks)` state the worklist loop then
/// refines, in the compact 32-bit layout the loop keeps hot.
fn initial_fine_partition(
    instance: &Instance,
    graph: &LabeledGraph,
) -> (Vec<u32>, Vec<Vec<StateId>>) {
    let n = instance.num_elements();
    let num_labels = instance.num_labels();
    let mut block_of: Vec<u32> = vec![0; n];
    let mut blocks: Vec<Vec<StateId>> = Vec::new();
    let mut sig_to_block: HashMap<(u32, Vec<bool>), u32> = HashMap::new();
    for (x, block) in block_of.iter_mut().enumerate() {
        let sig: Vec<bool> = (0..num_labels)
            .map(|l| !graph.successors(l, x).is_empty())
            .collect();
        let key = (instance.initial_blocks()[x], sig);
        let fresh = ids::narrow(sig_to_block.len());
        let id = *sig_to_block.entry(key).or_insert(fresh);
        if id as usize == blocks.len() {
            blocks.push(Vec::new());
        }
        *block = id;
        blocks[id as usize].push(StateId::from_index(x));
    }
    (block_of, blocks)
}

/// Runs the smaller-half splitter-worklist algorithm and returns the
/// coarsest consistent stable partition.
///
/// Only the smaller fragment of a pending splitter group is ever extracted
/// and scanned; its co-fragment stays queued in the group, and membership in
/// it is decided by fan-out-bounded successor scans (see the module docs for
/// the paper's Section 3 complexity argument).
#[must_use]
pub fn refine(instance: &Instance) -> Partition {
    let n = instance.num_elements();
    if n == 0 {
        return Partition::from_assignment::<usize>(&[]);
    }
    let num_labels = instance.num_labels();
    // Hoist the CSR view out of the hot loops: querying through `Instance`
    // would repeat the lazy-init check on every adjacency lookup.
    let graph = instance.graph();

    // --- Fine partition: the shared per-label "has a successor" seed.
    // Elements are packed `StateId`s and block/group ids raw `u32`s
    // throughout the loop — only the epoch stamps stay 64-bit.
    let (mut block_of, mut blocks) = initial_fine_partition(instance, graph);

    // --- Splitter groups: unions of blocks (split siblings stay together).
    // Invariant: the partition is stable with respect to every group; a
    // compound group (≥ 2 blocks) is pending splitter work.
    let mut group_of: Vec<u32> = vec![0; blocks.len()];
    let mut groups: Vec<Vec<u32>> = vec![(0..ids::narrow(blocks.len())).collect()];
    let mut worklist: Vec<u32> = Vec::new();
    let mut on_worklist: Vec<bool> = vec![false];
    if groups[0].len() >= 2 {
        worklist.push(0);
        on_worklist[0] = true;
    }

    // --- Epoch-stamped scratch (one epoch per (splitter, label) round):
    // per-element preimage class and per-block touched marker.
    let mut elem_stamp: Vec<u64> = vec![0; n];
    let mut elem_in_rest: Vec<bool> = vec![false; n];
    let mut touched_stamp: Vec<u64> = vec![0; blocks.len()];
    let mut epoch: u64 = 0;

    while let Some(s) = worklist.pop() {
        on_worklist[s as usize] = false;
        if groups[s as usize].len() < 2 {
            continue;
        }
        // Extract the smaller of the group's first two blocks as the active
        // splitter B; the co-fragment (the rest of the group) remains
        // pending, so |B| ≤ |group|/2 — the smaller half.
        let (pos, b) = {
            let b0 = groups[s as usize][0];
            let b1 = groups[s as usize][1];
            if blocks[b0 as usize].len() <= blocks[b1 as usize].len() {
                (0, b0)
            } else {
                (1, b1)
            }
        };
        groups[s as usize].swap_remove(pos);
        let own_group = ids::narrow(groups.len());
        groups.push(vec![b]);
        on_worklist.push(false);
        group_of[b as usize] = own_group;
        if groups[s as usize].len() >= 2 {
            on_worklist[s as usize] = true;
            worklist.push(s);
        }

        // Snapshot: splits below may refine B itself; its fragments all stay
        // in `own_group`, which is re-enqueued when it turns compound.
        let splitter_elems = blocks[b as usize].clone();
        for label in 0..num_labels {
            epoch += 1;
            // Classify every predecessor x of B: does x also reach the
            // co-fragment S \ B?  Decided by scanning x's ≤ c successors —
            // the co-fragment itself is never scanned.
            let mut touched: Vec<u32> = Vec::new();
            for &y in &splitter_elems {
                for &x in graph.predecessors(label, y.index()) {
                    if elem_stamp[x.index()] == epoch {
                        continue;
                    }
                    elem_stamp[x.index()] = epoch;
                    elem_in_rest[x.index()] = graph
                        .successors(label, x.index())
                        .iter()
                        .any(|&z| group_of[block_of[z.index()] as usize] == s);
                    let d = block_of[x.index()];
                    if touched_stamp[d as usize] != epoch {
                        touched_stamp[d as usize] = epoch;
                        touched.push(d);
                    }
                }
            }
            // Three-way split of every touched block.
            for &d in &touched {
                let mut only_b: Vec<StateId> = Vec::new();
                let mut both: Vec<StateId> = Vec::new();
                let mut rest: Vec<StateId> = Vec::new();
                for &x in &blocks[d as usize] {
                    if elem_stamp[x.index()] != epoch {
                        rest.push(x);
                    } else if elem_in_rest[x.index()] {
                        both.push(x);
                    } else {
                        only_b.push(x);
                    }
                }
                let mut parts: Vec<Vec<StateId>> = [only_b, both, rest]
                    .into_iter()
                    .filter(|p| !p.is_empty())
                    .collect();
                if parts.len() < 2 {
                    continue;
                }
                // The first part keeps the old id; the remaining fragments
                // get fresh ids in the same group as their sibling.
                let home = group_of[d as usize];
                blocks[d as usize] = parts.remove(0);
                for part in parts {
                    let new_id = ids::narrow(blocks.len());
                    for &x in &part {
                        block_of[x.index()] = new_id;
                    }
                    blocks.push(part);
                    group_of.push(home);
                    touched_stamp.push(0);
                    groups[home as usize].push(new_id);
                }
                // The group that gained fragments is compound again.
                if !on_worklist[home as usize] {
                    on_worklist[home as usize] = true;
                    worklist.push(home);
                }
            }
        }
    }

    Partition::from_assignment(&block_of)
}

/// Runs the plain both-halves splitter-worklist algorithm (`O(n·m)` worst
/// case) and returns the coarsest consistent stable partition.
///
/// Every split re-enqueues both halves.  This is the paper's baseline
/// formulation and the refiner production runs: on the weak instances the
/// equivalence session builds, it beats the smaller-half [`refine`], whose
/// per-predecessor successor scan grows with the fan-out.  The
/// `partition_core` bench and the `report` binary compare the two head to
/// head.
#[must_use]
pub fn refine_both_halves(instance: &Instance) -> Partition {
    let graph = instance.graph();
    let (mut block_of, mut blocks) = Partition::from_raw_assignment(instance.initial_blocks());
    // Worklist of splitter block ids (content is read at pop time).
    let mut worklist: Vec<u32> = (0..ids::narrow(blocks.len())).collect();
    let mut on_worklist = vec![true; blocks.len()];

    // Epoch-stamped scratch: preimage membership per element, touched marker
    // per block (one epoch per (splitter, label) round).
    let mut marked: Vec<u64> = vec![0; block_of.len()];
    let mut touched_stamp: Vec<u64> = vec![0; blocks.len()];
    let mut epoch: u64 = 0;

    while let Some(splitter) = worklist.pop() {
        on_worklist[splitter as usize] = false;
        // Snapshot the splitter contents: subsequent splits may move elements
        // out of `blocks[splitter]`, but every moved element ends up in a
        // block that is itself (re-)enqueued, so using the snapshot is sound.
        let splitter_elems = blocks[splitter as usize].clone();
        for label in 0..graph.num_labels() {
            epoch += 1;
            // pre_ℓ(splitter)
            let mut touched_blocks: Vec<u32> = Vec::new();
            for &y in &splitter_elems {
                for &x in graph.predecessors(label, y.index()) {
                    if marked[x.index()] != epoch {
                        marked[x.index()] = epoch;
                        let d = block_of[x.index()];
                        if touched_stamp[d as usize] != epoch {
                            touched_stamp[d as usize] = epoch;
                            touched_blocks.push(d);
                        }
                    }
                }
            }
            // Split every touched block D into D ∩ pre and D \ pre.
            for &d in &touched_blocks {
                let (inside, outside): (Vec<StateId>, Vec<StateId>) = blocks[d as usize]
                    .iter()
                    .partition(|&&x| marked[x.index()] == epoch);
                if inside.is_empty() || outside.is_empty() {
                    continue;
                }
                // Keep the inside part in `d`, move the outside part to a new block.
                let new_id = ids::narrow(blocks.len());
                for &x in &outside {
                    block_of[x.index()] = new_id;
                }
                blocks[d as usize] = inside;
                blocks.push(outside);
                on_worklist.push(false);
                touched_stamp.push(0);
                // Re-enqueue both halves — the simple, always-sound rule;
                // `refine` is the smaller-half upgrade.
                for id in [d, new_id] {
                    if !on_worklist[id as usize] {
                        on_worklist[id as usize] = true;
                        worklist.push(id);
                    }
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
    use crate::naive;

    /// Runs both variants, checks they agree with each other and with the
    /// naive method, and returns the partition.
    fn cross_check(inst: &Instance) -> Partition {
        let smaller = refine(inst);
        let both = refine_both_halves(inst);
        assert_eq!(smaller, both, "smaller-half vs both-halves");
        assert_eq!(smaller, naive::refine(inst), "kanellakis-smolka vs naive");
        assert!(inst.is_consistent_stable(&smaller));
        smaller
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(0, 2);
        assert_eq!(refine(&inst).num_elements(), 0);
        assert_eq!(refine_both_halves(&inst).num_elements(), 0);
    }

    #[test]
    fn singleton_without_edges() {
        let inst = Instance::new(1, 1);
        assert_eq!(cross_check(&inst).num_blocks(), 1);
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
    fn chain_matches_naive() {
        let mut inst = Instance::new(6, 1);
        for i in 0..5 {
            inst.add_edge(0, i, i + 1);
        }
        assert_eq!(cross_check(&inst).num_blocks(), 6);
    }

    #[test]
    fn respects_initial_partition() {
        let mut inst = Instance::new(4, 1);
        inst.add_edge(0, 0, 1);
        inst.add_edge(0, 2, 3);
        inst.set_initial_block(1, 1);
        // 1 and 3 would be equivalent (both dead) but start in different blocks.
        let p = cross_check(&inst);
        assert!(!p.same_block(1, 3));
        assert!(!p.same_block(0, 2));
    }

    #[test]
    fn two_cycles_collapse() {
        let mut inst = Instance::new(4, 1);
        inst.add_edge(0, 0, 1);
        inst.add_edge(0, 1, 0);
        inst.add_edge(0, 2, 3);
        inst.add_edge(0, 3, 2);
        assert_eq!(cross_check(&inst).num_blocks(), 1);
    }

    #[test]
    fn multi_label_branching() {
        // 0 -a-> 1, 0 -b-> 2, 3 -a-> 1 (no b): 0 and 3 must be separated.
        let mut inst = Instance::new(4, 2);
        inst.add_edge(0, 0, 1);
        inst.add_edge(1, 0, 2);
        inst.add_edge(0, 3, 1);
        let p = cross_check(&inst);
        assert!(!p.same_block(0, 3));
        assert!(p.same_block(1, 2));
    }

    #[test]
    fn elements_reaching_both_halves_are_handled() {
        // The instance family the plain smaller-half rule gets wrong: 0 has
        // successors in both halves {2} and {3} of an old splitter, 1 only in
        // one — the three-way split must separate them.
        let mut inst = Instance::new(5, 1);
        inst.add_edge(0, 0, 2);
        inst.add_edge(0, 0, 3);
        inst.add_edge(0, 1, 2);
        inst.add_edge(0, 2, 4);
        inst.add_edge(0, 4, 2);
        let p = cross_check(&inst);
        assert!(!p.same_block(0, 1));
    }

    #[test]
    fn result_is_stable() {
        let mut inst = Instance::new(7, 2);
        inst.add_edge(0, 0, 1);
        inst.add_edge(0, 1, 2);
        inst.add_edge(0, 2, 0);
        inst.add_edge(1, 3, 4);
        inst.add_edge(1, 4, 5);
        inst.add_edge(0, 5, 6);
        inst.add_edge(1, 6, 3);
        let p = cross_check(&inst);
        assert!(inst.is_consistent_stable(&p));
    }

    #[test]
    fn random_instances_agree_across_variants() {
        let mut seed: u64 = 0x853C_49E6_748F_EA9B;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..40 {
            let n = 2 + (next() % 16) as usize;
            let labels = 1 + (next() % 3) as usize;
            let edges = (next() % (4 * n as u64)) as usize;
            let mut inst = Instance::new(n, labels);
            for _ in 0..edges {
                let l = (next() % labels as u64) as usize;
                let from = (next() % n as u64) as usize;
                let to = (next() % n as u64) as usize;
                inst.add_edge(l, from, to);
            }
            if case % 3 == 0 {
                for x in 0..n {
                    inst.set_initial_block(x, x % 2);
                }
            }
            cross_check(&inst);
        }
    }
}
