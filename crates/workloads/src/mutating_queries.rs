//! Mutating-query workloads: a base model, a deterministic edit stream, and
//! a query mix — the input shape of the mutation path
//! (`Instance::apply_delta`, `EquivSession::apply_delta`, the server's
//! `mutate` op) and of the report's DELTA table.
//!
//! The base model is a union of disjoint copies of one small gadget, so an
//! edit batch touches a couple of copies of a large union: the relayout
//! and the re-solve that follow it run over the whole instance.  The edit
//! stream is a seed-deterministic toggle sequence with two flavours per
//! copy:
//!
//! * a **class-redundant** toggle — an edge into a block the source already
//!   reaches under the same label, so the coarsest partition is unchanged;
//!   and
//! * a **refining** toggle (a back edge that makes one copy distinguishable
//!   from its siblings) — the splits are real, and undoing it coarsens the
//!   partition again.
//!
//! Every generator is pure in its arguments; two calls with the same seed
//! produce identical workloads, batch for batch.

use ccs_fsp::{Fsp, Label, StateId};
use ccs_partition::Instance;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::queries::state_pairs;

/// States per gadget copy: `h0 -a-> h1 -b-> h2`, plus a spare `h3 -b-> h2`
/// that starts strongly equivalent to `h1`.
pub const GADGET_STATES: usize = 4;

/// One edit batch: additions are applied after removals, exactly as the
/// delta APIs at every layer do.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EditBatch<E> {
    /// Edges to insert (ignored by the appliers when already present).
    pub additions: Vec<E>,
    /// Edges to delete (ignored by the appliers when already absent).
    pub removals: Vec<E>,
}

/// An [`EditBatch`] over kernel-level `(label, from, to)` index triples —
/// the edge currency of [`Instance::apply_delta`].
pub type KernelEditBatch = EditBatch<(usize, usize, usize)>;

impl<E> EditBatch<E> {
    /// Total number of edits named by the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.additions.len() + self.removals.len()
    }

    /// Whether the batch names no edits at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.additions.is_empty() && self.removals.is_empty()
    }
}

/// A process-level mutating workload: the base model, the edit stream, and
/// a pair-query mix to replay between batches.
#[derive(Clone, Debug)]
pub struct MutatingWorkload {
    /// The union-of-gadget-copies base model.
    pub fsp: Fsp,
    /// The seed-deterministic edit stream, in application order.
    pub batches: Vec<EditBatch<(StateId, Label, StateId)>>,
    /// Uniform state pairs to query after every batch.
    pub queries: Vec<(StateId, StateId)>,
}

fn gadget_union(copies: usize) -> Fsp {
    let mut b = Fsp::builder("mutating-gadgets");
    let a = b.action("a");
    let bb = b.action("b");
    let mut first = None;
    for c in 0..copies {
        let h0 = b.state(&format!("g{c}_0"));
        let h1 = b.state(&format!("g{c}_1"));
        let h2 = b.state(&format!("g{c}_2"));
        let h3 = b.state(&format!("g{c}_3"));
        b.add_transition(h0, Label::Act(a), h1);
        b.add_transition(h1, Label::Act(bb), h2);
        b.add_transition(h3, Label::Act(bb), h2);
        b.mark_accepting(h2);
        first.get_or_insert(h0);
    }
    if let Some(start) = first {
        b.set_start(start);
    }
    b.build().expect("gadget union is well-formed")
}

/// The two toggle edges of copy `c`, as `(label, from, to)` index triples:
/// the class-redundant `h0 -a-> h3` and the refining back edge
/// `h2 -a-> h0`.  Label indices are `0 = a`, `1 = b`.
fn toggles(c: usize) -> [(usize, usize, usize); 2] {
    let base = c * GADGET_STATES;
    [(0, base, base + 3), (0, base + 2, base)]
}

/// A process-level mutating workload over `copies` gadget copies
/// (`copies × 4` states), with `batches` edit batches of `edits_per_batch`
/// toggles each and `queries` uniform pair queries.  Roughly one toggle in
/// four is the refining flavour; the rest are class-redundant.
/// Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `copies == 0`.
#[must_use]
pub fn mutating_workload(
    copies: usize,
    batches: usize,
    edits_per_batch: usize,
    queries: usize,
    seed: u64,
) -> MutatingWorkload {
    assert!(copies > 0, "need at least one gadget copy");
    let fsp = gadget_union(copies);
    let actions = [
        fsp.action_id("a").expect("gadget alphabet"),
        fsp.action_id("b").expect("gadget alphabet"),
    ];
    let raw = edit_stream(copies, batches, edits_per_batch, seed);
    let lift = |&(l, from, to): &(usize, usize, usize)| {
        (
            StateId::from_index(from),
            Label::Act(actions[l]),
            StateId::from_index(to),
        )
    };
    let batches = raw
        .into_iter()
        .map(|batch| EditBatch {
            additions: batch.additions.iter().map(lift).collect(),
            removals: batch.removals.iter().map(lift).collect(),
        })
        .collect();
    let queries = state_pairs(&fsp, queries, seed.wrapping_add(1));
    MutatingWorkload {
        fsp,
        batches,
        queries,
    }
}

/// The same workload at the partition-kernel level: the gadget union as a
/// generalized-partitioning [`Instance`] (labels `0 = a`, `1 = b`,
/// accepting copies split off by the initial partition) plus the edit
/// stream as `(label, from, to)` index triples — the direct input of
/// [`Instance::apply_delta`], as the DELTA report table drives it before
/// each re-solve.
/// Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `copies == 0`.
#[must_use]
pub fn mutating_instance(
    copies: usize,
    batches: usize,
    edits_per_batch: usize,
    seed: u64,
) -> (Instance, Vec<KernelEditBatch>) {
    assert!(copies > 0, "need at least one gadget copy");
    let mut inst = Instance::new(copies * GADGET_STATES, 2);
    inst.reserve_edges(copies * 3);
    for c in 0..copies {
        let base = c * GADGET_STATES;
        inst.add_edge(0, base, base + 1);
        inst.add_edge(1, base + 1, base + 2);
        inst.add_edge(1, base + 3, base + 2);
        // Mirror the acceptance split of the process-level model: the
        // accepting h2 starts in its own block.
        inst.set_initial_block(base + 2, 1);
    }
    (inst, edit_stream(copies, batches, edits_per_batch, seed))
}

/// The shared toggle stream: per batch, `edits_per_batch` distinct copies
/// are drawn; each contributes its redundant toggle (or, one draw in four,
/// its refining toggle) as an addition if the edge is currently absent and
/// as a removal otherwise.
fn edit_stream(
    copies: usize,
    batches: usize,
    edits_per_batch: usize,
    seed: u64,
) -> Vec<KernelEditBatch> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Toggle state per (copy, flavour): false = absent.
    let mut present = vec![[false; 2]; copies];
    (0..batches)
        .map(|_| {
            let mut batch = EditBatch::default();
            let mut picked = Vec::with_capacity(edits_per_batch);
            while picked.len() < edits_per_batch.min(copies) {
                let c = rng.gen_range(0..copies);
                if !picked.contains(&c) {
                    picked.push(c);
                }
            }
            for c in picked {
                let flavour = usize::from(rng.gen_range(0..4u8) == 0);
                let edge = toggles(c)[flavour];
                if present[c][flavour] {
                    batch.removals.push(edge);
                } else {
                    batch.additions.push(edge);
                }
                present[c][flavour] = !present[c][flavour];
            }
            batch
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_partition::kanellakis_smolka::refine_both_halves;
    use ccs_partition::{solve, Algorithm};

    #[test]
    fn workloads_are_deterministic_in_the_seed() {
        let a = mutating_workload(8, 6, 2, 10, 3);
        let b = mutating_workload(8, 6, 2, 10, 3);
        assert_eq!(a.fsp, b.fsp);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.fsp.num_states(), 8 * GADGET_STATES);
        assert_eq!(a.batches.len(), 6);
        let c = mutating_workload(8, 6, 2, 10, 4);
        assert!(c.batches != a.batches || c.queries != a.queries);
    }

    /// Each batch goes the way the session takes it — one relayout, then
    /// a re-solve with the production refiner — and must land on the naive
    /// solver's blocks.
    #[test]
    fn instance_stream_drives_the_delta_refiner_to_oracle_agreement() {
        let (mut inst, batches) = mutating_instance(12, 10, 2, 7);
        let mut blocks = vec![refine_both_halves(&inst).num_blocks()];
        for batch in &batches {
            inst.apply_delta(&batch.additions, &batch.removals);
            let resolved = refine_both_halves(&inst);
            assert_eq!(resolved, solve(&inst, Algorithm::Naive));
            blocks.push(resolved.num_blocks());
        }
        assert!(
            blocks.windows(2).any(|w| w[1] > w[0]),
            "no batch split: {blocks:?}"
        );
    }

    #[test]
    fn redundant_toggles_leave_the_partition_unchanged() {
        let (inst, _) = mutating_instance(4, 0, 0, 0);
        let before = solve(&inst, Algorithm::KanellakisSmolkaBothHalves);
        let mut edited = inst.clone();
        let (l, f, t) = toggles(2)[0];
        edited.apply_delta(&[(l, f, t)], &[]);
        let after = solve(&edited, Algorithm::KanellakisSmolkaBothHalves);
        assert_eq!(before.num_blocks(), after.num_blocks());
    }

    #[test]
    fn process_and_instance_models_agree_block_for_block() {
        let wl = mutating_workload(6, 0, 0, 0, 1);
        let (inst, _) = mutating_instance(6, 0, 0, 1);
        let session = ccs_equiv::EquivSession::for_process(&wl.fsp);
        let strong = session.classify_all(ccs_equiv::Equivalence::Strong);
        let kernel = solve(&inst, Algorithm::Naive);
        assert_eq!(strong.as_ref(), &kernel);
    }
}
