//! Incremental partition maintenance: delta-refinement under live mutation.
//!
//! The production traffic shape is a long-lived instance receiving streams
//! of small edge batches with interleaved equivalence queries.  Re-solving
//! from scratch pays a whole-graph refinement per batch; this module keeps the
//! last stable partition alive and re-refines only what the batch touched.
//!
//! The whole engine is one stateless function, [`refine_delta`].  The
//! caller owns the instance, applies the batch with
//! [`Instance::apply_delta`] — which returns the batch's effective edits —
//! and hands those edits over together with the pre-batch partition:
//!
//! ```text
//! let (added, removed) = inst.apply_delta(&additions, &removals);
//! let (next, path) = refine_delta(&inst, &prev, &added, &removed);
//! ```
//!
//! # The delta-seeded worklist
//!
//! The previous solution `P` is stable with respect to every one of its own
//! blocks over the *old* graph.  An edge edit `(ℓ, u, v)` changes the
//! preimage `pre_ℓ(B)` only for blocks `B` containing a delta **target**
//! `v`; stability with respect to every other block carries over to the new
//! graph unchanged.  So the splitter worklist is seeded with exactly the
//! blocks containing delta targets, and the plain both-halves loop (the
//! always-sound re-enqueue rule of
//! [`kanellakis_smolka::refine_both_halves`](crate::kanellakis_smolka::refine_both_halves))
//! runs to a fixpoint from `P` instead of from the initial partition.  The
//! fixpoint `P_inc` is the coarsest partition that **refines `P`** and is
//! stable over the new graph.
//!
//! # Why a certificate is needed
//!
//! `P_inc` is not always the answer: refinement from `P` can only split,
//! but edits — *including pure additions* — can **coarsen** the coarsest
//! stable partition.  Witness `S = {0, 1}` with the single edge `0 → 1` and
//! trivial `π`: the solution is `{0}, {1}` (only `0` has a successor), yet
//! adding `1 → 0` coarsens it to the single block `{0, 1}`.  No sequence of
//! splits starting from `{0}, {1}` can reach it.
//!
//! The repair is an `O(|δ|·c)` **certificate** checked after the seeded
//! fixpoint, where `class(x)` is the `P_inc` class:
//!
//! * for every effective addition `(ℓ, u, v)`: `u` already had an
//!   ℓ-successor `w` in the **old** graph with `class(w) = class(v)`;
//! * for every effective removal `(ℓ, u, v)`: `u` still has an ℓ-successor
//!   `w` in the **new** graph with `class(w) = class(v)`.
//!
//! When it holds, every edit is class-redundant at the granularity of the
//! true new solution `P*` (which `P_inc` refines, being a stable refinement
//! of `π`): each added edge into a `P*`-class is mirrored by an old edge
//! into that class and vice versa, so `P*` is stable over the *old* graph
//! too, hence refines the old solution `P`, hence refines `P_inc` by the
//! coarsest-fixpoint property of the seeded loop — and `P_inc = P*`.
//!
//! When the certificate fails the result may be coarser than `P_inc`, and
//! the module falls back to a **quotient rebuild**: because `P_inc` is
//! stable, the edge-labelled quotient of the new graph by `P_inc` is
//! well-defined and its stable partitions correspond exactly to the stable
//! coarsenings of `P_inc`; solving the quotient (|blocks| elements, deduped
//! block-level edges) and lifting gives `P*` at a cost that shrinks with
//! the solution size instead of the graph size.  A whole-graph rebuild
//! remains the safety net: batches touching more than a quarter of the
//! ground set skip the incremental machinery entirely.  Both rebuilds run
//! [`refine_both_halves`], so every path of this module ends in the same
//! splitter loop, seeded either with every block or with the split ones.
//!
//! Every path is unconditionally exact — the tests (and the report's DELTA
//! table) assert block-for-block equality with a from-scratch solve after
//! every batch.

use std::collections::HashMap;

use crate::ids::{self, StateId};
use crate::kanellakis_smolka::{both_halves_fixpoint, refine_both_halves};
use crate::{Instance, LabeledGraph, Partition};

/// The touched-state-fraction rebuild threshold: a batch whose effective
/// edits mention more than `REBUILD_THRESHOLD · n` distinct endpoints takes
/// the [`DeltaPath::FullRebuild`] path — at that size the seeded worklist
/// degenerates toward a from-scratch refinement anyway.
const REBUILD_THRESHOLD: f64 = 0.25;

/// Which maintenance path a batch took.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeltaPath {
    /// Every edit was a no-op (already present / already absent): the graph
    /// and the partition are untouched.
    Unchanged,
    /// The delta-seeded worklist ran to a fixpoint and the certificate
    /// proved it coarsest — no rebuild of any kind.
    Incremental,
    /// The certificate failed (the batch may coarsen); the quotient by the
    /// seeded fixpoint was solved and lifted.
    QuotientRebuild,
    /// The batch touched more than the threshold fraction of the ground
    /// set; the partition was re-solved from scratch.
    FullRebuild,
}

impl std::fmt::Display for DeltaPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DeltaPath::Unchanged => "unchanged",
            DeltaPath::Incremental => "incremental",
            DeltaPath::QuotientRebuild => "quotient-rebuild",
            DeltaPath::FullRebuild => "full-rebuild",
        })
    }
}

/// Brings the coarsest stable partition up to date after an edge batch.
///
/// `instance` must **already reflect** the batch, `previous` is the
/// coarsest stable partition of the graph *before* it, and the two slices
/// are the batch's *effective* edits (each addition genuinely new, each
/// removal genuinely gone, the two sets disjoint) — exactly what
/// [`Instance::apply_delta`] returns.  Returns the coarsest stable
/// partition of the new graph and the path taken.
///
/// ```
/// use ccs_partition::{incremental::{refine_delta, DeltaPath}, solve, Algorithm, Instance};
/// // Two copies of `x → y` plus isolated elements: a one-edge batch touches
/// // at most a quarter of the ground set, so the delta path runs.
/// let mut inst = Instance::new(8, 1);
/// inst.add_edge(0, 0, 1);
/// inst.add_edge(0, 2, 3);
/// let prev = solve(&inst, Algorithm::KanellakisSmolkaBothHalves);
/// // A mirrored edge is class-redundant: no rebuild, same partition.
/// let (added, removed) = inst.apply_delta(&[(0, 0, 3)], &[]);
/// let (next, path) = refine_delta(&inst, &prev, &added, &removed);
/// assert_eq!(path, DeltaPath::Incremental);
/// assert_eq!(next, prev);
/// assert_eq!(next, solve(&inst, Algorithm::Naive));
/// ```
///
/// # Panics
///
/// Panics if `previous` covers a different ground set than `instance`.
#[must_use]
pub fn refine_delta(
    instance: &Instance,
    previous: &Partition,
    effective_additions: &[(usize, usize, usize)],
    effective_removals: &[(usize, usize, usize)],
) -> (Partition, DeltaPath) {
    assert_eq!(
        previous.num_elements(),
        instance.num_elements(),
        "previous partition covers a different ground set"
    );
    if effective_additions.is_empty() && effective_removals.is_empty() {
        return (previous.clone(), DeltaPath::Unchanged);
    }
    let n = instance.num_elements();
    // Safety net: a batch touching a large fraction of the ground set
    // degenerates toward a from-scratch refinement — just do that.
    let mut endpoints: Vec<usize> = effective_additions
        .iter()
        .chain(effective_removals)
        .flat_map(|&(_, from, to)| [from, to])
        .collect();
    endpoints.sort_unstable();
    endpoints.dedup();
    #[allow(clippy::cast_precision_loss)]
    if endpoints.len() as f64 > REBUILD_THRESHOLD * n as f64 {
        return (refine_both_halves(instance), DeltaPath::FullRebuild);
    }
    let books = UndoBooks::new(effective_additions, effective_removals);
    // Fast path: only delta *sources* have changed rows, so if every edited
    // row still hits exactly the same set of `previous`-classes, `previous`
    // is stable over the new graph — and every edit is class-redundant at
    // `previous` granularity, which is precisely the certificate.  Both
    // halves of the exactness argument hold at once: the old solution *is*
    // the new solution, at `O(|δ|·c)` cost with no block scans at all.
    if signatures_preserved(instance.graph(), previous, &books) {
        return (previous.clone(), DeltaPath::Incremental);
    }
    let class_of = seeded_refinement(instance, previous, &books);
    if certificate_holds(instance.graph(), &class_of, &books) {
        (
            Partition::from_assignment(&class_of),
            DeltaPath::Incremental,
        )
    } else {
        (
            quotient_solve(instance, &class_of),
            DeltaPath::QuotientRebuild,
        )
    }
}

/// The per-row undo books of a batch: the targets each `(label, source)`
/// row gained and lost.  The effective edits are disjoint, so the pre-batch
/// rows are reconstructed from the new ones as `old = (new \ added) ∪
/// removed` — built once per batch and shared by the signature fast path,
/// the seeded refinement and the certificate.
struct UndoBooks {
    added_from: HashMap<(usize, usize), Vec<usize>>,
    removed_from: HashMap<(usize, usize), Vec<usize>>,
}

impl UndoBooks {
    fn new(additions: &[(usize, usize, usize)], removals: &[(usize, usize, usize)]) -> Self {
        let by_row = |edges: &[(usize, usize, usize)]| {
            let mut rows: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
            for &(l, u, v) in edges {
                rows.entry((l, u)).or_default().push(v);
            }
            rows
        };
        UndoBooks {
            added_from: by_row(additions),
            removed_from: by_row(removals),
        }
    }

    /// Every edited `(label, source)` row, sorted and duplicate-free.
    fn rows(&self) -> Vec<(usize, usize)> {
        let mut rows: Vec<(usize, usize)> = self
            .added_from
            .keys()
            .chain(self.removed_from.keys())
            .copied()
            .collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }

    /// `fₗ(u)` as it was before the batch.
    fn old_successors<'a>(
        &'a self,
        graph: &'a LabeledGraph,
        l: usize,
        u: usize,
    ) -> impl Iterator<Item = usize> + 'a {
        let added = self.added_from.get(&(l, u));
        successors(graph, l, u)
            .filter(move |w| !added.is_some_and(|a| a.contains(w)))
            .chain(
                self.removed_from
                    .get(&(l, u))
                    .into_iter()
                    .flatten()
                    .copied(),
            )
    }
}

/// `fₗ(u)` in the current graph, as element indices.
fn successors(graph: &LabeledGraph, l: usize, u: usize) -> impl Iterator<Item = usize> + '_ {
    graph.successors(l, u).iter().map(|w| w.index())
}

/// The sorted, duplicate-free set of classes a successor row hits.
fn class_set<C: Ord>(row: impl Iterator<Item = usize>, class: impl Fn(usize) -> C) -> Vec<C> {
    let mut classes: Vec<C> = row.map(class).collect();
    classes.sort_unstable();
    classes.dedup();
    classes
}

/// Whether every edited successor row hits exactly the same set of
/// `previous`-classes before and after the batch.
///
/// When this holds, `previous` is still stable over the new graph (only
/// delta sources have changed rows, and their class signatures did not
/// move) *and* the class-redundancy certificate holds at `previous`
/// granularity (every added edge lands in a class the old row already hit;
/// every removed edge leaves a class the new row still hits) — so
/// `previous` is the coarsest stable partition of the new graph outright.
fn signatures_preserved(graph: &LabeledGraph, previous: &Partition, books: &UndoBooks) -> bool {
    let class = |w: usize| previous.block_of(w);
    books.rows().into_iter().all(|(l, u)| {
        class_set(books.old_successors(graph, l, u), class)
            == class_set(successors(graph, l, u), class)
    })
}

/// Runs the both-halves splitter loop over the **new** graph starting from
/// `previous`, seeded by a direct *source split*: only delta sources have
/// changed rows, so `previous` can only be unstable (over old blocks) at
/// the sources themselves.  Each changed source is split off its block and
/// grouped by its new per-label class signature; the worklist is seeded
/// with exactly the split products, whose preimages are the only remaining
/// stability obligations.  Any stable refinement of `previous` separates
/// elements with different signatures at `previous` granularity, so the
/// fixpoint is the same coarsest stable refinement the naive
/// target-block seed reaches — without ever scanning an unsplit block.
/// Returns the fixpoint assignment.
fn seeded_refinement(instance: &Instance, previous: &Partition, books: &UndoBooks) -> Vec<u32> {
    let graph = instance.graph();
    let prev_assignment: Vec<usize> = previous.assignment().collect();
    let (mut block_of, mut blocks) = Partition::from_raw_assignment(&prev_assignment);

    // The full per-label class signature of `u`'s successor rows, before
    // (`old`) or after the batch.
    let signature = |u: usize, old: bool| -> Vec<Vec<u32>> {
        (0..instance.num_labels())
            .map(|l| {
                let class = |w: usize| block_of[w];
                if old {
                    class_set(books.old_successors(graph, l, u), class)
                } else {
                    class_set(successors(graph, l, u), class)
                }
            })
            .collect()
    };

    let mut sources: Vec<usize> = books.rows().into_iter().map(|(_, u)| u).collect();
    sources.sort_unstable();
    sources.dedup();
    // Group the sources whose signature moved, per block, by new signature.
    // `previous` is uniform within a block, so one undone signature speaks
    // for the whole pre-batch block.
    type SignatureGroups = Vec<(Vec<Vec<u32>>, Vec<usize>)>;
    let mut moved: HashMap<u32, SignatureGroups> = HashMap::new();
    for &u in &sources {
        let d = block_of[u];
        let new_sig = signature(u, false);
        if new_sig == signature(u, true) {
            continue;
        }
        let groups = moved.entry(d).or_default();
        match groups.iter_mut().find(|(sig, _)| *sig == new_sig) {
            Some((_, members)) => members.push(u),
            None => groups.push((new_sig, vec![u])),
        }
    }

    let mut enqueued: Vec<u32> = Vec::new();
    for (d, groups) in moved {
        let in_group: Vec<usize> = groups.iter().flat_map(|(_, m)| m.iter().copied()).collect();
        let mut remainder: Vec<StateId> = blocks[d as usize]
            .iter()
            .copied()
            .filter(|x| !in_group.contains(&x.index()))
            .collect();
        enqueued.push(d);
        for (_, members) in groups {
            let members: Vec<StateId> = members.into_iter().map(StateId::from_index).collect();
            if remainder.is_empty() {
                // Every member moved: the last group keeps `d`'s identity.
                remainder = members;
                continue;
            }
            let new_id = ids::narrow(blocks.len());
            for x in &members {
                block_of[x.index()] = new_id;
            }
            blocks.push(members);
            enqueued.push(new_id);
        }
        blocks[d as usize] = remainder;
    }
    both_halves_fixpoint(graph, block_of, blocks, enqueued)
}

/// The class-redundancy certificate: true iff every effective addition was
/// already mirrored class-wise in the old graph and every effective removal
/// is still mirrored in the new graph, at the granularity of the seeded
/// fixpoint `class_of`.  When it holds the fixpoint *is* the coarsest
/// stable partition of the new graph (see the module docs for the proof
/// sketch); when it fails the true solution may be coarser.
fn certificate_holds(graph: &LabeledGraph, class_of: &[u32], books: &UndoBooks) -> bool {
    // Removals: `u` must still reach v's class in the *new* graph.
    let removals_mirrored = books.removed_from.iter().all(|(&(l, u), targets)| {
        targets
            .iter()
            .all(|&v| successors(graph, l, u).any(|w| class_of[w] == class_of[v]))
    });
    // Additions: `u` must have reached v's class in the *old* graph.
    removals_mirrored
        && books.added_from.iter().all(|(&(l, u), targets)| {
            targets.iter().all(|&v| {
                books
                    .old_successors(graph, l, u)
                    .any(|w| class_of[w] == class_of[v])
            })
        })
}

/// Solves the quotient of the instance by the stable partition `class_of`
/// and lifts the result — the scoped rebuild for certificate failures.
///
/// Because `class_of` is stable over the instance's graph and refines the
/// true solution, the stable partitions of the quotient correspond exactly
/// to the stable coarsenings of `class_of`; the lifted coarsest quotient
/// solution is therefore the coarsest stable partition of the full
/// instance, at the cost of a solve over `|blocks|` elements.
fn quotient_solve(instance: &Instance, class_of: &[u32]) -> Partition {
    let num_classes = class_of.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
    let mut quotient = Instance::new(num_classes, instance.num_labels());
    // Classes refine the initial partition, so any member's initial block
    // speaks for the whole class.
    let initial = instance.initial_blocks();
    for (x, &c) in class_of.iter().enumerate() {
        quotient.set_initial_block(c as usize, initial[x] as usize);
    }
    let mut edges: Vec<(usize, usize, usize)> = instance
        .graph()
        .edges()
        .map(|(l, x, y)| (l, class_of[x] as usize, class_of[y] as usize))
        .collect();
    edges.sort_unstable();
    edges.dedup();
    quotient.reserve_edges(edges.len());
    for (l, from, to) in edges {
        quotient.add_edge(l, from, to);
    }
    let solved = refine_both_halves(&quotient);
    let lifted: Vec<usize> = class_of
        .iter()
        .map(|&c| solved.block_of(c as usize))
        .collect();
    Partition::from_assignment(&lifted)
}

#[cfg(test)]
// Test RNG draws narrow by `as` on purpose; the lint guards library code.
#[allow(clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use crate::{solve, Algorithm};

    /// Isolated padding elements appended to the tiny test instances, fenced
    /// into their own initial block: they add exactly one block and never
    /// interact with the real elements, but they grow the ground set so a
    /// batch of up to four endpoints stays under the rebuild threshold and
    /// reaches the incremental and quotient paths.
    const PAD: usize = 12;

    /// The initial block of the padding elements.
    const PAD_BLOCK: usize = 7;

    /// An instance over `n` real elements plus the fenced-off padding.
    fn padded(n: usize, labels: usize) -> Instance {
        let mut inst = Instance::new(n + PAD, labels);
        for x in n..n + PAD {
            inst.set_initial_block(x, PAD_BLOCK);
        }
        inst
    }

    /// Applies the batch the way production does — effective edits from
    /// `Instance::apply_delta`, then `refine_delta` — and cross-checks the
    /// result against a from-scratch solve.
    fn step(
        inst: &mut Instance,
        previous: &Partition,
        additions: &[(usize, usize, usize)],
        removals: &[(usize, usize, usize)],
    ) -> (Partition, DeltaPath) {
        let (added, removed) = inst.apply_delta(additions, removals);
        let (next, path) = refine_delta(inst, previous, &added, &removed);
        let oracle = solve(inst, Algorithm::Naive);
        assert_eq!(next, oracle, "delta result != from-scratch oracle");
        assert!(inst.is_consistent_stable(&next));
        (next, path)
    }

    #[test]
    fn pure_addition_can_coarsen_and_is_still_exact() {
        // The counterexample from the module docs: adding 1 -> 0 to the
        // single edge 0 -> 1 *coarsens* {0},{1} to {0,1}.  No split
        // sequence reaches it; the certificate must fail and the quotient
        // rebuild must recover the coarser answer.
        let mut inst = padded(2, 1);
        inst.add_edge(0, 0, 1);
        let prev = solve(&inst, Algorithm::KanellakisSmolka);
        assert!(!prev.same_block(0, 1));
        let (next, path) = step(&mut inst, &prev, &[(0, 1, 0)], &[]);
        assert_eq!(path, DeltaPath::QuotientRebuild);
        assert!(next.same_block(0, 1));
    }

    #[test]
    fn class_redundant_addition_stays_incremental() {
        // Two parallel 2-cycles: one block.  A cross-cycle edge is
        // class-redundant, so the certificate holds and nothing rebuilds.
        let mut inst = padded(4, 1);
        for (f, t) in [(0, 1), (1, 0), (2, 3), (3, 2)] {
            inst.add_edge(0, f, t);
        }
        let prev = solve(&inst, Algorithm::Naive);
        assert_eq!(prev.num_blocks(), 2, "the cycles plus the padding");
        let (next, path) = step(&mut inst, &prev, &[(0, 0, 3)], &[]);
        assert_eq!(path, DeltaPath::Incremental);
        assert_eq!(next, prev);
    }

    #[test]
    fn refining_addition_splits_incrementally_when_certified() {
        // {0,2},{1,3} from 0 -> 1, 2 -> 3.  Adding 1 -> 2 gives 1 a
        // successor 3 lacks: the seeded loop must split {1,3}, and since
        // the addition is genuinely refining the certificate fails (1 had
        // no old successor at all) — the quotient path re-derives the
        // split result exactly.
        let mut inst = padded(4, 1);
        inst.add_edge(0, 0, 1);
        inst.add_edge(0, 2, 3);
        let prev = solve(&inst, Algorithm::KanellakisSmolka);
        assert!(prev.same_block(0, 2) && prev.same_block(1, 3));
        let (next, path) = step(&mut inst, &prev, &[(0, 1, 2)], &[]);
        assert_eq!(path, DeltaPath::QuotientRebuild);
        assert!(!next.same_block(1, 3));
    }

    #[test]
    fn removal_with_surviving_mirror_stays_incremental() {
        // 0 has two edges into the same class; dropping one is
        // class-redundant in the new graph.
        let mut inst = padded(4, 1);
        inst.add_edge(0, 0, 1);
        inst.add_edge(0, 0, 2);
        inst.add_edge(0, 3, 1); // keeps 1, 2 in one (dead) class with 3's target
        let prev = solve(&inst, Algorithm::Naive);
        let (_, path) = step(&mut inst, &prev, &[], &[(0, 0, 2)]);
        assert_eq!(path, DeltaPath::Incremental);
    }

    #[test]
    fn removal_that_coarsens_takes_the_quotient_path() {
        // 0 -> 1 with trivial π: {0},{1}.  Removing the edge coarsens to
        // one block.
        let mut inst = padded(2, 1);
        inst.add_edge(0, 0, 1);
        let prev = solve(&inst, Algorithm::KanellakisSmolka);
        let (next, path) = step(&mut inst, &prev, &[], &[(0, 0, 1)]);
        assert_eq!(path, DeltaPath::QuotientRebuild);
        assert!(next.same_block(0, 1));
    }

    #[test]
    fn noop_batches_leave_everything_untouched() {
        let mut inst = padded(3, 1);
        inst.add_edge(0, 0, 1);
        let before = solve(&inst, Algorithm::Naive);
        let graph = inst.graph().clone();
        // Already present, already absent, and present-on-both-sides.
        for (additions, removals) in [
            (vec![(0, 0, 1)], vec![]),
            (vec![], vec![(0, 2, 2)]),
            (vec![(0, 0, 1)], vec![(0, 0, 1)]),
        ] {
            let (next, path) = step(&mut inst, &before, &additions, &removals);
            assert_eq!(path, DeltaPath::Unchanged);
            assert_eq!(next, before);
        }
        assert_eq!(inst.graph(), &graph);
    }

    #[test]
    fn oversized_batches_fall_back_to_a_full_rebuild() {
        // No padding: the one-edge batch touches two of four elements, half
        // the ground set, well past the quarter threshold.
        let mut inst = Instance::new(4, 1);
        inst.add_edge(0, 0, 1);
        let prev = solve(&inst, Algorithm::KanellakisSmolka);
        let (_, path) = step(&mut inst, &prev, &[(0, 1, 2)], &[]);
        assert_eq!(path, DeltaPath::FullRebuild);
    }

    #[test]
    fn edge_present_on_both_sides_survives() {
        let mut inst = padded(3, 1);
        inst.add_edge(0, 0, 1);
        let prev = solve(&inst, Algorithm::Naive);
        let (_, path) = step(&mut inst, &prev, &[(0, 0, 1), (0, 1, 2)], &[(0, 0, 1)]);
        assert_ne!(path, DeltaPath::FullRebuild);
        assert!(inst.has_edge(0, 0, 1));
        assert!(inst.has_edge(0, 1, 2));
    }

    #[test]
    fn respects_the_initial_partition_across_deltas() {
        let mut inst = padded(4, 1);
        inst.set_initial_block(3, 1);
        inst.add_edge(0, 0, 1);
        let prev = solve(&inst, Algorithm::KanellakisSmolka);
        // 1, 2 are both dead and same initial block; 3 is dead but fenced
        // off by the initial partition — and must stay fenced off after a
        // coarsening removal.
        let (next, path) = step(&mut inst, &prev, &[], &[(0, 0, 1)]);
        assert_eq!(path, DeltaPath::QuotientRebuild);
        assert!(next.same_block(0, 1));
        assert!(!next.same_block(0, 3));
    }

    #[test]
    fn random_edit_streams_match_the_oracle_for_every_solver() {
        let mut seed: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut paths = Vec::new();
        for _ in 0..4 {
            // At least ten elements: a one-edge batch (two endpoints) never
            // crosses the quarter threshold, so every step is a delta step.
            let n = 10 + (next() % 8) as usize;
            let labels = 1 + (next() % 2) as usize;
            let mut inst = Instance::new(n, labels);
            for _ in 0..2 * n {
                inst.add_edge(
                    (next() % labels as u64) as usize,
                    (next() % n as u64) as usize,
                    (next() % n as u64) as usize,
                );
            }
            let mut partition = solve(&inst, Algorithm::Naive);
            for _ in 0..12 {
                let edge = (
                    (next() % labels as u64) as usize,
                    (next() % n as u64) as usize,
                    (next() % n as u64) as usize,
                );
                let (additions, removals) = if next() % 3 == 0 {
                    (vec![], vec![edge])
                } else {
                    (vec![edge], vec![])
                };
                let (added, removed) = inst.apply_delta(&additions, &removals);
                let (refined, path) = refine_delta(&inst, &partition, &added, &removed);
                for algorithm in Algorithm::ALL {
                    assert_eq!(refined, solve(&inst, algorithm), "{algorithm} after {path}");
                }
                paths.push(path);
                partition = refined;
            }
        }
        assert!(!paths.contains(&DeltaPath::FullRebuild));
        assert!(paths.contains(&DeltaPath::Incremental));
    }
}
