//! Incremental partition maintenance: delta-refinement under live mutation.
//!
//! The production traffic shape is a long-lived instance receiving streams
//! of small edge batches with interleaved equivalence queries.  Re-solving
//! from scratch pays the full `O(m log n)` per batch; this module keeps the
//! last stable partition alive and re-refines only what the batch touched.
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
//! remains the safety net: batches touching more than a
//! [`DEFAULT_THRESHOLD`] fraction of the ground set skip the incremental
//! machinery entirely.
//!
//! Every path is unconditionally exact — the tests (and the report's DELTA
//! table) assert block-for-block equality with a from-scratch solve after
//! every batch.

use std::collections::HashMap;

use crate::ids::{self, StateId};
use crate::{solve, Algorithm, Instance, Partition};

/// The touched-state-fraction rebuild threshold.
///
/// A batch whose effective edits mention more than `threshold · n` distinct
/// endpoints takes the [`DeltaPath::FullRebuild`] path — at that size the
/// seeded worklist degenerates toward a from-scratch refinement anyway.
pub const DEFAULT_THRESHOLD: f64 = 0.25;

/// An edge batch: `removals` are applied first, then `additions`, so an
/// edge named on both sides ends up present.  Duplicates, already-present
/// additions and absent removals are harmless no-ops.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeDelta {
    /// Edges `(label, from, to)` to add.
    pub additions: Vec<(usize, usize, usize)>,
    /// Edges `(label, from, to)` to remove.
    pub removals: Vec<(usize, usize, usize)>,
}

impl EdgeDelta {
    /// A pure-addition batch.
    #[must_use]
    pub fn added(edges: Vec<(usize, usize, usize)>) -> Self {
        EdgeDelta {
            additions: edges,
            removals: Vec::new(),
        }
    }

    /// A pure-removal batch.
    #[must_use]
    pub fn removed(edges: Vec<(usize, usize, usize)>) -> Self {
        EdgeDelta {
            additions: Vec::new(),
            removals: edges,
        }
    }

    /// Whether the batch names no edges at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.additions.is_empty() && self.removals.is_empty()
    }
}

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

/// Counters describing how a [`DeltaRefiner`] has earned its keep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Batches applied.
    pub batches: usize,
    /// Batches that were no-ops.
    pub unchanged: usize,
    /// Batches resolved purely by seeded refinement.
    pub incremental: usize,
    /// Batches that fell back to the quotient rebuild.
    pub quotient_rebuilds: usize,
    /// Batches that exceeded the threshold and re-solved from scratch.
    pub full_rebuilds: usize,
    /// Block splits performed by the seeded worklist across all batches.
    pub splits: usize,
}

/// Maintains the coarsest stable partition of an [`Instance`] across edge
/// batches, re-refining only what each batch touched.
///
/// The refiner owns the instance and its current solution; between batches
/// the solution is always exactly `solve(instance, algorithm)` — an
/// invariant the test-suite and the report's DELTA table cross-check
/// against a from-scratch oracle after every step.
///
/// ```
/// use ccs_partition::{incremental::{DeltaRefiner, EdgeDelta, DeltaPath}, Algorithm, Instance};
/// let mut inst = Instance::new(4, 1);
/// inst.add_edge(0, 0, 1);
/// inst.add_edge(0, 2, 3);
/// // Tiny toy ground set: raise the rebuild threshold so the delta path runs.
/// let mut refiner = DeltaRefiner::with_threshold(inst, Algorithm::KanellakisSmolka, 1.0);
/// assert_eq!(refiner.partition().num_blocks(), 2); // {0,2}, {1,3}
/// // A mirrored edge is class-redundant: no rebuild, same partition.
/// let path = refiner.apply(&EdgeDelta::added(vec![(0, 0, 3)]));
/// assert_eq!(path, DeltaPath::Incremental);
/// assert_eq!(refiner.partition().num_blocks(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct DeltaRefiner {
    instance: Instance,
    partition: Partition,
    algorithm: Algorithm,
    threshold: f64,
    stats: DeltaStats,
}

impl DeltaRefiner {
    /// Solves `instance` once and stands ready to maintain the solution,
    /// with the [`DEFAULT_THRESHOLD`] rebuild threshold.
    #[must_use]
    pub fn new(instance: Instance, algorithm: Algorithm) -> Self {
        DeltaRefiner::with_threshold(instance, algorithm, DEFAULT_THRESHOLD)
    }

    /// As [`DeltaRefiner::new`] with an explicit touched-fraction rebuild
    /// threshold (`0.0` forces every non-empty batch down the full-rebuild
    /// path; `1.0` effectively disables the safety net).
    #[must_use]
    pub fn with_threshold(instance: Instance, algorithm: Algorithm, threshold: f64) -> Self {
        let partition = solve(&instance, algorithm);
        DeltaRefiner {
            instance,
            partition,
            algorithm,
            threshold,
            stats: DeltaStats::default(),
        }
    }

    /// The maintained instance (already reflecting every applied batch).
    #[must_use]
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The current coarsest stable partition.
    #[must_use]
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The solver used for the initial solve and any rebuild path.
    #[must_use]
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The touched-fraction rebuild threshold in effect.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Per-path counters accumulated over all applied batches.
    #[must_use]
    pub fn stats(&self) -> DeltaStats {
        self.stats
    }

    /// Heap bytes held by the refiner's bookkeeping: the owned instance
    /// (base CSR, pending-delta buffer, merged layout) plus the retained
    /// partition.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.instance.resident_bytes() + self.partition.resident_bytes()
    }

    /// Applies an edge batch and brings the partition back to the coarsest
    /// stable solution, reporting which maintenance path ran.
    ///
    /// # Panics
    ///
    /// Panics if any edge in the batch mentions an out-of-range label or
    /// element (the instance is untouched in that case).
    pub fn apply(&mut self, delta: &EdgeDelta) -> DeltaPath {
        self.stats.batches += 1;
        // Effective edits against the current graph: removals first, then
        // additions, so an edge named on both sides stays present.
        let mut removed: Vec<(usize, usize, usize)> = delta
            .removals
            .iter()
            .copied()
            .filter(|&(l, f, t)| {
                self.instance.has_edge(l, f, t) && !delta.additions.contains(&(l, f, t))
            })
            .collect();
        removed.sort_unstable();
        removed.dedup();
        let mut added: Vec<(usize, usize, usize)> = delta
            .additions
            .iter()
            .copied()
            .filter(|&(l, f, t)| !self.instance.has_edge(l, f, t))
            .collect();
        added.sort_unstable();
        added.dedup();
        if added.is_empty() && removed.is_empty() {
            self.stats.unchanged += 1;
            return DeltaPath::Unchanged;
        }
        self.instance.apply_delta(&delta.additions, &delta.removals);
        let (partition, path, splits) = refine_delta_counted(
            &self.instance,
            &self.partition,
            &added,
            &removed,
            self.algorithm,
            self.threshold,
        );
        self.partition = partition;
        self.stats.splits += splits;
        match path {
            DeltaPath::Unchanged => self.stats.unchanged += 1,
            DeltaPath::Incremental => self.stats.incremental += 1,
            DeltaPath::QuotientRebuild => self.stats.quotient_rebuilds += 1,
            DeltaPath::FullRebuild => self.stats.full_rebuilds += 1,
        }
        path
    }
}

/// The stateless core: given an instance whose graph **already reflects**
/// an edge batch, the coarsest stable partition `previous` of the graph
/// *before* the batch, and the batch's *effective* edits (each addition
/// genuinely new, each removal genuinely gone, the two sets disjoint),
/// returns the coarsest stable partition of the new graph and the path
/// taken.
///
/// This is the entry point for callers that own their instance (the
/// session layer): [`DeltaRefiner`] wraps it with effective-edit
/// computation and instance mutation.
#[must_use]
pub fn refine_delta(
    instance: &Instance,
    previous: &Partition,
    effective_additions: &[(usize, usize, usize)],
    effective_removals: &[(usize, usize, usize)],
    algorithm: Algorithm,
    threshold: f64,
) -> (Partition, DeltaPath) {
    let (partition, path, _) = refine_delta_counted(
        instance,
        previous,
        effective_additions,
        effective_removals,
        algorithm,
        threshold,
    );
    (partition, path)
}

fn refine_delta_counted(
    instance: &Instance,
    previous: &Partition,
    effective_additions: &[(usize, usize, usize)],
    effective_removals: &[(usize, usize, usize)],
    algorithm: Algorithm,
    threshold: f64,
) -> (Partition, DeltaPath, usize) {
    assert_eq!(
        previous.num_elements(),
        instance.num_elements(),
        "previous partition covers a different ground set"
    );
    if effective_additions.is_empty() && effective_removals.is_empty() {
        return (previous.clone(), DeltaPath::Unchanged, 0);
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
    if endpoints.len() as f64 > threshold * n as f64 {
        return (solve(instance, algorithm), DeltaPath::FullRebuild, 0);
    }
    // Fast path: only delta *sources* have changed rows, so if every edited
    // row still hits exactly the same set of `previous`-classes, `previous`
    // is stable over the new graph — and every edit is class-redundant at
    // `previous` granularity, which is precisely the certificate.  Both
    // halves of the exactness argument hold at once: the old solution *is*
    // the new solution, at `O(|δ|·c)` cost with no block scans at all.
    if signatures_preserved(instance, previous, effective_additions, effective_removals) {
        return (previous.clone(), DeltaPath::Incremental, 0);
    }
    let (class_of, splits) =
        seeded_refinement(instance, previous, effective_additions, effective_removals);
    if certificate_holds(instance, &class_of, effective_additions, effective_removals) {
        (
            Partition::from_assignment(&class_of),
            DeltaPath::Incremental,
            splits,
        )
    } else {
        (
            quotient_solve(instance, &class_of, algorithm),
            DeltaPath::QuotientRebuild,
            splits,
        )
    }
}

/// Whether every edited successor row hits exactly the same set of
/// `previous`-classes before and after the batch.  Old rows are
/// reconstructed from the new ones by undoing the batch (the effective
/// edits are disjoint, so `old = (new \ added) ∪ removed` row-wise).
///
/// When this holds, `previous` is still stable over the new graph (only
/// delta sources have changed rows, and their class signatures did not
/// move) *and* the class-redundancy certificate holds at `previous`
/// granularity (every added edge lands in a class the old row already hit;
/// every removed edge leaves a class the new row still hits) — so
/// `previous` is the coarsest stable partition of the new graph outright.
fn signatures_preserved(
    instance: &Instance,
    previous: &Partition,
    effective_additions: &[(usize, usize, usize)],
    effective_removals: &[(usize, usize, usize)],
) -> bool {
    let graph = instance.graph();
    let mut added_from: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
    for &(l, u, v) in effective_additions {
        added_from.entry((l, u)).or_default().push(v);
    }
    let mut removed_from: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
    for &(l, u, v) in effective_removals {
        removed_from.entry((l, u)).or_default().push(v);
    }
    let mut rows: Vec<(usize, usize)> = added_from
        .keys()
        .chain(removed_from.keys())
        .copied()
        .collect();
    rows.sort_unstable();
    rows.dedup();
    for (l, u) in rows {
        let added = added_from.get(&(l, u));
        let removed = removed_from.get(&(l, u));
        let class_set = |old: bool| -> Vec<usize> {
            let mut classes: Vec<usize> = graph
                .successors(l, u)
                .iter()
                .filter(|&&w| !(old && added.is_some_and(|a| a.contains(&w.index()))))
                .map(|&w| previous.block_of(w.index()))
                .collect();
            if old {
                if let Some(removed) = removed {
                    classes.extend(removed.iter().map(|&w| previous.block_of(w)));
                }
            }
            classes.sort_unstable();
            classes.dedup();
            classes
        };
        if class_set(true) != class_set(false) {
            return false;
        }
    }
    true
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
/// Returns the fixpoint assignment and the number of splits performed.
fn seeded_refinement(
    instance: &Instance,
    previous: &Partition,
    effective_additions: &[(usize, usize, usize)],
    effective_removals: &[(usize, usize, usize)],
) -> (Vec<u32>, usize) {
    let graph = instance.graph();
    let n = instance.num_elements();
    let prev_assignment: Vec<usize> = previous.assignment().collect();
    let (mut block_of, mut blocks) = Partition::from_raw_assignment(&prev_assignment);
    let mut splits = 0usize;

    // Per-row undo books, as in the certificate: old = (new \ added) ∪ removed.
    let mut added_from: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
    for &(l, u, v) in effective_additions {
        added_from.entry((l, u)).or_default().push(v);
    }
    let mut removed_from: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
    for &(l, u, v) in effective_removals {
        removed_from.entry((l, u)).or_default().push(v);
    }
    // The full per-label class signature of `u`'s successor rows; `old`
    // reconstructs the pre-batch rows by undoing the edits.
    let signature = |u: usize, old: bool| -> Vec<Vec<u32>> {
        (0..instance.num_labels())
            .map(|l| {
                let added = added_from.get(&(l, u));
                let mut classes: Vec<u32> = graph
                    .successors(l, u)
                    .iter()
                    .filter(|&&w| !(old && added.is_some_and(|a| a.contains(&w.index()))))
                    .map(|&w| block_of[w.index()])
                    .collect();
                if old {
                    if let Some(removed) = removed_from.get(&(l, u)) {
                        classes.extend(removed.iter().map(|&w| block_of[w]));
                    }
                }
                classes.sort_unstable();
                classes.dedup();
                classes
            })
            .collect()
    };

    let mut sources: Vec<usize> = effective_additions
        .iter()
        .chain(effective_removals)
        .map(|&(_, from, _)| from)
        .collect();
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

    let mut worklist: Vec<u32> = Vec::new();
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
            splits += 1;
        }
        blocks[d as usize] = remainder;
    }
    let mut on_worklist = vec![false; blocks.len()];
    for id in enqueued {
        if !on_worklist[id as usize] {
            on_worklist[id as usize] = true;
            worklist.push(id);
        }
    }

    // From here the loop is `refine_both_halves` verbatim: the simple
    // always-sound re-enqueue rule, which tolerates the partial seed.
    let mut marked: Vec<u64> = vec![0; n];
    let mut touched_stamp: Vec<u64> = vec![0; blocks.len()];
    let mut epoch: u64 = 0;

    while let Some(splitter) = worklist.pop() {
        on_worklist[splitter as usize] = false;
        let splitter_elems = blocks[splitter as usize].clone();
        for label in 0..instance.num_labels() {
            epoch += 1;
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
            for &d in &touched_blocks {
                let (inside, outside): (Vec<StateId>, Vec<StateId>) = blocks[d as usize]
                    .iter()
                    .partition(|&&x| marked[x.index()] == epoch);
                if inside.is_empty() || outside.is_empty() {
                    continue;
                }
                let new_id = ids::narrow(blocks.len());
                for &x in &outside {
                    block_of[x.index()] = new_id;
                }
                blocks[d as usize] = inside;
                blocks.push(outside);
                on_worklist.push(false);
                touched_stamp.push(0);
                splits += 1;
                for id in [d, new_id] {
                    if !on_worklist[id as usize] {
                        on_worklist[id as usize] = true;
                        worklist.push(id);
                    }
                }
            }
        }
    }

    (block_of, splits)
}

/// The class-redundancy certificate: true iff every effective addition was
/// already mirrored class-wise in the old graph and every effective removal
/// is still mirrored in the new graph, at the granularity of the seeded
/// fixpoint `class_of`.  When it holds the fixpoint *is* the coarsest
/// stable partition of the new graph (see the module docs for the proof
/// sketch); when it fails the true solution may be coarser.
fn certificate_holds(
    instance: &Instance,
    class_of: &[u32],
    effective_additions: &[(usize, usize, usize)],
    effective_removals: &[(usize, usize, usize)],
) -> bool {
    let graph = instance.graph();
    // Removals: `u` must still reach v's class in the *new* graph.
    for &(l, u, v) in effective_removals {
        let class = class_of[v];
        if !graph
            .successors(l, u)
            .iter()
            .any(|&w| class_of[w.index()] == class)
        {
            return false;
        }
    }
    if effective_additions.is_empty() {
        return true;
    }
    // Additions: `u` must have reached v's class in the *old* graph, whose
    // successor lists are reconstructed from the new ones by undoing the
    // batch — old = (new \ added-from-u) ∪ removed-from-u.
    let mut added_from: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
    for &(l, u, v) in effective_additions {
        added_from.entry((l, u)).or_default().push(v);
    }
    let mut removed_from: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
    for &(l, u, v) in effective_removals {
        removed_from.entry((l, u)).or_default().push(v);
    }
    for &(l, u, v) in effective_additions {
        let class = class_of[v];
        let added = added_from.get(&(l, u));
        let surviving_old = graph.successors(l, u).iter().any(|&w| {
            class_of[w.index()] == class && !added.is_some_and(|a| a.contains(&w.index()))
        });
        let undone_old = removed_from
            .get(&(l, u))
            .is_some_and(|r| r.iter().any(|&w| class_of[w] == class));
        if !surviving_old && !undone_old {
            return false;
        }
    }
    true
}

/// Solves the quotient of the instance by the stable partition `class_of`
/// and lifts the result — the scoped rebuild for certificate failures.
///
/// Because `class_of` is stable over the instance's graph and refines the
/// true solution, the stable partitions of the quotient correspond exactly
/// to the stable coarsenings of `class_of`; the lifted coarsest quotient
/// solution is therefore the coarsest stable partition of the full
/// instance, at the cost of a solve over `|blocks|` elements.
fn quotient_solve(instance: &Instance, class_of: &[u32], algorithm: Algorithm) -> Partition {
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
    let solved = solve(&quotient, algorithm);
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

    /// Applies the batch to a fresh copy and cross-checks the refiner's
    /// partition against a from-scratch solve.
    fn assert_matches_oracle(refiner: &DeltaRefiner) {
        let oracle = solve(refiner.instance(), Algorithm::PaigeTarjan);
        assert_eq!(
            refiner.partition(),
            &oracle,
            "delta result != from-scratch oracle"
        );
        assert!(refiner.instance().is_consistent_stable(refiner.partition()));
    }

    #[test]
    fn pure_addition_can_coarsen_and_is_still_exact() {
        // The counterexample from the module docs: adding 1 -> 0 to the
        // single edge 0 -> 1 *coarsens* {0},{1} to {0,1}.  No split
        // sequence reaches it; the certificate must fail and the quotient
        // rebuild must recover the coarser answer.
        let mut inst = Instance::new(2, 1);
        inst.add_edge(0, 0, 1);
        let mut refiner = DeltaRefiner::with_threshold(inst, Algorithm::KanellakisSmolka, 1.0);
        assert_eq!(refiner.partition().num_blocks(), 2);
        let path = refiner.apply(&EdgeDelta::added(vec![(0, 1, 0)]));
        assert_eq!(path, DeltaPath::QuotientRebuild);
        assert_eq!(refiner.partition().num_blocks(), 1);
        assert_matches_oracle(&refiner);
    }

    #[test]
    fn class_redundant_addition_stays_incremental() {
        // Two parallel 2-cycles: one block.  A cross-cycle edge is
        // class-redundant, so the certificate holds and nothing rebuilds.
        let mut inst = Instance::new(4, 1);
        for (f, t) in [(0, 1), (1, 0), (2, 3), (3, 2)] {
            inst.add_edge(0, f, t);
        }
        let mut refiner = DeltaRefiner::with_threshold(inst, Algorithm::PaigeTarjan, 1.0);
        assert_eq!(refiner.partition().num_blocks(), 1);
        let path = refiner.apply(&EdgeDelta::added(vec![(0, 0, 3)]));
        assert_eq!(path, DeltaPath::Incremental);
        assert_eq!(refiner.partition().num_blocks(), 1);
        assert_matches_oracle(&refiner);
        assert_eq!(refiner.stats().incremental, 1);
    }

    #[test]
    fn refining_addition_splits_incrementally_when_certified() {
        // {0,2},{1,3} from 0 -> 1, 2 -> 3.  Adding 1 -> 2 gives 1 a
        // successor 3 lacks: the seeded loop must split {1,3}, and since
        // the addition is genuinely refining the certificate fails (1 had
        // no old successor at all) — the quotient path re-derives the
        // split result exactly.
        let mut inst = Instance::new(4, 1);
        inst.add_edge(0, 0, 1);
        inst.add_edge(0, 2, 3);
        let mut refiner = DeltaRefiner::with_threshold(inst, Algorithm::KanellakisSmolka, 1.0);
        assert_eq!(refiner.partition().num_blocks(), 2);
        refiner.apply(&EdgeDelta::added(vec![(0, 1, 2)]));
        assert_matches_oracle(&refiner);
        assert!(!refiner.partition().same_block(1, 3));
    }

    #[test]
    fn removal_with_surviving_mirror_stays_incremental() {
        // 0 has two edges into the same class; dropping one is
        // class-redundant in the new graph.
        let mut inst = Instance::new(4, 1);
        inst.add_edge(0, 0, 1);
        inst.add_edge(0, 0, 2);
        inst.add_edge(0, 3, 1); // keeps 1, 2 in one (dead) class with 3's target
        let mut refiner = DeltaRefiner::with_threshold(inst, Algorithm::PaigeTarjan, 1.0);
        let path = refiner.apply(&EdgeDelta::removed(vec![(0, 0, 2)]));
        assert_eq!(path, DeltaPath::Incremental);
        assert_matches_oracle(&refiner);
    }

    #[test]
    fn removal_that_coarsens_takes_the_quotient_path() {
        // 0 -> 1 with trivial π: {0},{1}.  Removing the edge coarsens to
        // one block.
        let mut inst = Instance::new(2, 1);
        inst.add_edge(0, 0, 1);
        let mut refiner = DeltaRefiner::with_threshold(inst, Algorithm::KanellakisSmolka, 1.0);
        let path = refiner.apply(&EdgeDelta::removed(vec![(0, 0, 1)]));
        assert_eq!(path, DeltaPath::QuotientRebuild);
        assert_eq!(refiner.partition().num_blocks(), 1);
        assert_matches_oracle(&refiner);
    }

    #[test]
    fn noop_batches_leave_everything_untouched() {
        let mut inst = Instance::new(3, 1);
        inst.add_edge(0, 0, 1);
        let mut refiner = DeltaRefiner::with_threshold(inst, Algorithm::PaigeTarjan, 1.0);
        let before = refiner.partition().clone();
        // Already present, already absent, and present-on-both-sides.
        assert_eq!(
            refiner.apply(&EdgeDelta::added(vec![(0, 0, 1)])),
            DeltaPath::Unchanged
        );
        assert_eq!(
            refiner.apply(&EdgeDelta::removed(vec![(0, 2, 2)])),
            DeltaPath::Unchanged
        );
        assert_eq!(
            refiner.apply(&EdgeDelta {
                additions: vec![(0, 0, 1)],
                removals: vec![(0, 0, 1)],
            }),
            DeltaPath::Unchanged
        );
        assert_eq!(refiner.partition(), &before);
        assert_eq!(refiner.stats().unchanged, 3);
        assert_eq!(refiner.stats().batches, 3);
    }

    #[test]
    fn oversized_batches_fall_back_to_a_full_rebuild() {
        let mut inst = Instance::new(4, 1);
        inst.add_edge(0, 0, 1);
        let mut refiner = DeltaRefiner::with_threshold(inst, Algorithm::KanellakisSmolka, 0.0);
        let path = refiner.apply(&EdgeDelta::added(vec![(0, 1, 2)]));
        assert_eq!(path, DeltaPath::FullRebuild);
        assert_matches_oracle(&refiner);
        assert_eq!(refiner.stats().full_rebuilds, 1);
    }

    #[test]
    fn edge_present_on_both_sides_survives() {
        let mut inst = Instance::new(3, 1);
        inst.add_edge(0, 0, 1);
        let mut refiner = DeltaRefiner::with_threshold(inst, Algorithm::PaigeTarjan, 1.0);
        refiner.apply(&EdgeDelta {
            additions: vec![(0, 0, 1), (0, 1, 2)],
            removals: vec![(0, 0, 1)],
        });
        assert!(refiner.instance().has_edge(0, 0, 1));
        assert!(refiner.instance().has_edge(0, 1, 2));
        assert_matches_oracle(&refiner);
    }

    #[test]
    fn respects_the_initial_partition_across_deltas() {
        let mut inst = Instance::new(4, 1);
        inst.set_initial_block(3, 1);
        inst.add_edge(0, 0, 1);
        let mut refiner = DeltaRefiner::with_threshold(inst, Algorithm::KanellakisSmolka, 1.0);
        // 1, 2 are both dead and same initial block; 3 is dead but fenced
        // off by the initial partition — and must stay fenced off after a
        // coarsening removal.
        refiner.apply(&EdgeDelta::removed(vec![(0, 0, 1)]));
        assert_matches_oracle(&refiner);
        assert!(refiner.partition().same_block(0, 1));
        assert!(!refiner.partition().same_block(0, 3));
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
        for algorithm in Algorithm::ALL {
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
            let mut refiner = DeltaRefiner::with_threshold(inst, algorithm, 1.0);
            for _ in 0..12 {
                let edge = (
                    (next() % labels as u64) as usize,
                    (next() % n as u64) as usize,
                    (next() % n as u64) as usize,
                );
                let delta = if next() % 3 == 0 {
                    EdgeDelta::removed(vec![edge])
                } else {
                    EdgeDelta::added(vec![edge])
                };
                refiner.apply(&delta);
                assert_matches_oracle(&refiner);
            }
            let stats = refiner.stats();
            assert_eq!(stats.batches, 12, "{algorithm}");
            assert_eq!(
                stats.unchanged + stats.incremental + stats.quotient_rebuilds + stats.full_rebuilds,
                12,
                "{algorithm}"
            );
        }
    }

    #[test]
    fn resident_bytes_counts_instance_and_partition() {
        let mut inst = Instance::new(64, 1);
        for i in 0..63 {
            inst.add_edge(0, i, i + 1);
        }
        let refiner = DeltaRefiner::with_threshold(inst, Algorithm::PaigeTarjan, 1.0);
        let bytes = refiner.resident_bytes();
        assert!(bytes >= refiner.instance().resident_bytes());
        assert!(bytes >= refiner.partition().resident_bytes());
    }
}
