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
//! active splitter.  Every block is then cut by two two-way splits:
//!
//! 1. on `pre_ℓ(B)`, separating the elements that reach `B` from the rest;
//! 2. on the predecessors of `B` that also reach the still-pending
//!    co-fragment `S \ B`, separating "`B` only" from "both".
//!
//! Whether a predecessor of `B` also reaches `S \ B` is decided by scanning
//! its at most `c` successors — never by scanning `S \ B` itself — while
//! the first split's preimage is collected, since fragments inherit their
//! group.  Every element therefore lands in an extracted smaller fragment
//! `O(log n)` times; each landing is charged `O(c)` incoming edges, each
//! doing an `O(c)` successor scan, giving the paper's `O(c²·n·log n)` total
//! (and a sound `O(c·m·log n)` in general).  Paige–Tarjan (1987) later
//! removed the bounded-fanout assumption by replacing the successor scan
//! with edge counters; this crate does not implement that variant.
//!
//! Both variants split through the crate's one refinable partition
//! (Valmari & Lehtinen 2008): a split moves the marked preimage elements to
//! the front of their blocks, so it costs `O(marked)` rather than a scan of
//! every touched block.

use crate::ids::{self, StateId};
use crate::refinable::Refinable;
use crate::{Instance, Partition};

/// Runs the smaller-half splitter-worklist algorithm and returns the
/// coarsest consistent stable partition.
///
/// Only the smaller fragment of a pending splitter group is ever extracted
/// and scanned; its co-fragment stays queued in the group, and membership in
/// it is decided by fan-out-bounded successor scans (see the module docs for
/// the paper's Section 3 complexity argument).
#[must_use]
pub fn refine(instance: &Instance) -> Partition {
    // Hoist the CSR view out of the hot loops: querying through `Instance`
    // would repeat the lazy-init check on every adjacency lookup.
    let graph = instance.graph();
    let mut p = Refinable::new(instance.initial_blocks());

    // --- Fine partition: the initial blocks split, per label, by "has a
    // successor", so the seed is stable with respect to the whole set.
    for label in 0..graph.num_labels() {
        for x in 0..instance.num_elements() {
            if !graph.successors(label, x).is_empty() {
                p.mark(StateId::from_index(x));
            }
        }
        p.split(|_, _| {});
    }

    // --- Splitter groups: unions of blocks (split siblings stay together).
    // Invariant: the partition is stable with respect to every group; a
    // compound group (≥ 2 blocks) is pending splitter work and sits on the
    // worklist, possibly more than once (a stale entry is skipped).
    let mut group_of: Vec<u32> = vec![0; p.num_blocks()];
    let mut groups: Vec<Vec<u32>> = vec![(0..ids::narrow(p.num_blocks())).collect()];
    let mut worklist: Vec<u32> = vec![0];
    let mut splitter: Vec<StateId> = Vec::new();
    let mut both: Vec<StateId> = Vec::new();

    while let Some(s) = worklist.pop() {
        if groups[s as usize].len() < 2 {
            continue;
        }
        // Extract the smaller of the group's first two blocks as the active
        // splitter B; the co-fragment (the rest of the group) remains
        // pending, so |B| ≤ |group|/2 — the smaller half.
        let group = &groups[s as usize];
        let pos = usize::from(p.elements(group[1]).len() < p.elements(group[0]).len());
        let b = groups[s as usize].swap_remove(pos);
        group_of[b as usize] = ids::narrow(groups.len());
        groups.push(vec![b]);
        if groups[s as usize].len() >= 2 {
            worklist.push(s);
        }

        // Snapshot: splits below may refine B itself; its fragments all stay
        // in B's own new group, which is re-enqueued when it turns compound.
        splitter.clear();
        splitter.extend_from_slice(p.elements(b));
        for label in 0..graph.num_labels() {
            // Mark pre_ℓ(B); classify each predecessor once, when first
            // marked: does it also reach the co-fragment S \ B?  Decided by
            // scanning its ≤ c successors, never S \ B itself.
            for &y in &splitter {
                for &x in graph.predecessors(label, y.index()) {
                    if p.mark(x)
                        && graph
                            .successors(label, x.index())
                            .iter()
                            .any(|&z| group_of[p.block_of(z) as usize] == s)
                    {
                        both.push(x);
                    }
                }
            }
            // A fragment joins its sibling's group, which is compound again.
            let mut split = |old: u32, new: u32| {
                let home = group_of[old as usize];
                group_of.push(home);
                groups[home as usize].push(new);
                worklist.push(home);
            };
            // Split on pre_ℓ(B), then split "B only" from "B and S \ B".
            p.split(&mut split);
            for &x in &both {
                p.mark(x);
            }
            p.split(&mut split);
            both.clear();
        }
    }

    p.into_partition()
}

/// Runs the plain both-halves splitter-worklist algorithm (`O(n·m)` worst
/// case) and returns the coarsest consistent stable partition.
///
/// Every split re-enqueues both halves.  This is the paper's baseline
/// formulation and the refiner production runs: on the weak instances the
/// equivalence session builds, it beats the smaller-half [`refine`], whose
/// per-predecessor successor scan grows with the fan-out.  The `report`
/// binary's E7, SOLVE and SCALE tables compare the two head to head.
#[must_use]
pub fn refine_both_halves(instance: &Instance) -> Partition {
    let graph = instance.graph();
    let mut p = Refinable::new(instance.initial_blocks());
    // Worklist of splitter block ids (content is read at pop time).
    let mut worklist: Vec<u32> = (0..ids::narrow(p.num_blocks())).collect();
    let mut on_worklist = vec![true; p.num_blocks()];
    let mut splitter: Vec<StateId> = Vec::new();

    while let Some(s) = worklist.pop() {
        on_worklist[s as usize] = false;
        // Snapshot the splitter contents: subsequent splits may move elements
        // out of block `s`, but every moved element ends up in a block that
        // is itself (re-)enqueued, so using the snapshot is sound.
        splitter.clear();
        splitter.extend_from_slice(p.elements(s));
        for label in 0..graph.num_labels() {
            for &y in &splitter {
                for &x in graph.predecessors(label, y.index()) {
                    p.mark(x);
                }
            }
            // Split every touched block D into D ∩ pre_ℓ(S) and D \ pre_ℓ(S),
            // re-enqueueing both halves — the simple, always-sound rule;
            // `refine` is the smaller-half upgrade.
            p.split(|old, new| {
                on_worklist.push(false);
                for id in [old, new] {
                    if !on_worklist[id as usize] {
                        on_worklist[id as usize] = true;
                        worklist.push(id);
                    }
                }
            });
        }
    }

    p.into_partition()
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
        // one — the second split on "also reaches S \ B" must separate them.
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
