//! The weak transition relation `⇒` of Theorem 4.1(a), laid out once.
//!
//! [`weak_instance`] writes the rows of `⇒` over `Σ ∪ {ε}` straight into a
//! partition-refinement [`Instance`]: label `a` holds `{q | p ⇒a q}` for
//! every observable action, and the last label is ε.  Each row comes sorted
//! from [`weak_action_successors`] (or the τ-closure, for ε), so the CSR is
//! built without an edge list or a sort.  [`SaturatedView`] is a borrowed
//! accessor over that same instance: the determinization layer, the `≈ₖ`
//! and `≃ₖ` hierarchies and the failures checker read `⇒` by
//! `(state, action)` from the arrays the observational refinement solves
//! over.  An [`EquivSession`](crate::EquivSession) holds one such instance;
//! the free oracles build their own.
//!
//! [`ccs_fsp::saturate::saturate`] stays the independent slow path: it
//! materializes `P̂` as a second process and shares no layout code with the
//! instance, so the tests check one against the other.

use ccs_fsp::saturate::{weak_action_successors, TauClosure};
use ccs_fsp::{ActionId, Fsp, StateId as FspState};
use ccs_partition::{Instance, LabeledGraph, StateId};

use crate::strong;

/// Lays out the weak transition relation of `fsp` as a refinement instance
/// over `Σ ∪ {ε}` (ε is the last label), with the extension-set initial
/// partition — the instance whose coarsest stable partition is `≈`.
#[must_use]
pub fn weak_instance(fsp: &Fsp, closure: &TauClosure) -> Instance {
    let eps = fsp.num_actions();
    let pack = |q: &FspState| StateId::from_index(q.index());
    let graph = LabeledGraph::from_rows(fsp.num_states(), eps + 1, |col, p, out| {
        let p = FspState::from_index(p);
        if col == eps {
            out.extend(closure.successors(p).iter().map(pack));
        } else {
            let row = weak_action_successors(fsp, closure, p, ActionId::from_index(col));
            out.extend(row.iter().map(pack));
        }
    });
    let mut inst = Instance::from_graph(graph);
    for (s, block) in strong::extension_assignment(fsp).into_iter().enumerate() {
        inst.set_initial_block(s, block);
    }
    inst
}

/// A read-only view of the saturated relation `⇒` by `(state, action)`: the
/// `P̂` of Theorem 4.1(a), read from a [`weak_instance`]'s CSR arrays.
///
/// The view borrows the instance and copies nothing, so the checkers that
/// repeatedly need `{q | p ⇒σ q}` pay one `O(1)` slice lookup per question,
/// against the same memory the observational refinement reads.
#[derive(Clone, Copy, Debug)]
pub struct SaturatedView<'a> {
    graph: &'a LabeledGraph,
}

impl<'a> SaturatedView<'a> {
    /// The view of an instance built by [`weak_instance`].
    #[must_use]
    pub fn of(instance: &'a Instance) -> Self {
        SaturatedView {
            graph: instance.graph(),
        }
    }

    /// Number of states (identical to the underlying process).
    #[must_use]
    pub fn num_states(self) -> usize {
        self.graph.num_elements()
    }

    /// Number of observable actions `|Σ|` (the ε column is extra).
    #[must_use]
    pub fn num_actions(self) -> usize {
        self.graph.num_labels() - 1
    }

    /// Total number of weak edges over all columns.
    #[must_use]
    pub fn num_weak_edges(self) -> usize {
        self.graph.num_edges()
    }

    /// The weak successor set `{q | p ⇒a q}`, sorted and duplicate-free.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `action` is out of range.
    #[must_use]
    pub fn successors(self, p: FspState, action: ActionId) -> &'a [StateId] {
        assert!(action.index() < self.num_actions(), "action out of range");
        self.graph.successors(action.index(), p.index())
    }

    /// The ε column `{q | p ⇒ε q}` — the τ-closure of `p`, always containing
    /// `p` itself.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn epsilon_successors(self, p: FspState) -> &'a [StateId] {
        self.graph.successors(self.num_actions(), p.index())
    }

    /// The observable actions weakly enabled at `p` (`∃q: p ⇒a q`), in
    /// action order — the refusal-set complement of the failures semantics,
    /// answered by `|Σ|` slice-emptiness checks.
    pub fn weakly_enabled(self, p: FspState) -> impl Iterator<Item = ActionId> + 'a {
        (0..self.num_actions())
            .filter(move |&a| !self.graph.successors(a, p.index()).is_empty())
            .map(ActionId::from_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EquivSession;
    use ccs_fsp::saturate::{saturate_with_closure, tau_closure, weakly_enabled_actions};
    use ccs_fsp::{format, Label};

    /// p --tau--> q --a--> r --tau--> s,  p --b--> t
    fn sample() -> Fsp {
        format::parse("trans p tau q\ntrans q a r\ntrans r tau s\ntrans p b t").unwrap()
    }

    fn fresh(fsp: &Fsp) -> Instance {
        weak_instance(fsp, &tau_closure(fsp))
    }

    #[test]
    fn weak_edges_match_the_materialized_saturation() {
        let f = sample();
        let cl = tau_closure(&f);
        let sat = saturate_with_closure(&f, &cl);
        let inst = weak_instance(&f, &cl);
        let eps = f.num_actions();
        for (l, p, q) in inst.graph().edges() {
            let action = if l == eps {
                sat.epsilon
            } else {
                ActionId::from_index(l)
            };
            let (p, q) = (FspState::from_index(p), FspState::from_index(q));
            assert!(
                sat.fsp.has_transition(p, Label::Act(action), q),
                "weak edge missing from the saturated process"
            );
        }
        assert_eq!(inst.num_edges(), sat.fsp.num_transitions());
    }

    #[test]
    fn saturated_view_slices_agree_with_helpers() {
        let f = sample();
        let cl = tau_closure(&f);
        let inst = weak_instance(&f, &cl);
        let view = SaturatedView::of(&inst);
        let pack = |row: &[FspState]| -> Vec<StateId> {
            row.iter().map(|q| StateId::from_index(q.index())).collect()
        };
        assert_eq!(view.num_states(), f.num_states());
        assert_eq!(view.num_actions(), f.num_actions());
        let mut total = 0usize;
        for p in f.state_ids() {
            assert_eq!(view.epsilon_successors(p).to_vec(), pack(cl.successors(p)));
            total += view.epsilon_successors(p).len();
            for a in f.action_ids() {
                let slice = view.successors(p, a);
                assert_eq!(slice.to_vec(), pack(&weak_action_successors(&f, &cl, p, a)));
                total += slice.len();
            }
            let enabled: Vec<ActionId> = view.weakly_enabled(p).collect();
            assert_eq!(enabled, weakly_enabled_actions(&f, &cl, p));
        }
        assert_eq!(view.num_weak_edges(), total);
    }

    #[test]
    fn saturated_view_handles_trailing_empty_slots() {
        // The last state is dead: its slots must still be laid out.
        let f = format::parse("trans p a q").unwrap();
        let inst = fresh(&f);
        let view = SaturatedView::of(&inst);
        let q = f.state_by_name("q").unwrap();
        let a = f.action_id("a").unwrap();
        assert!(view.successors(q, a).is_empty());
        assert_eq!(
            view.epsilon_successors(q),
            &[StateId::from_index(q.index())]
        );
        assert!(view.weakly_enabled(q).next().is_none());
    }

    /// The session's view and its weak instance are one relation: the
    /// view's slices point into the instance's CSR arrays.
    #[test]
    fn saturated_view_reads_the_weak_instance() {
        let f = sample();
        let session = EquivSession::for_process(&f);
        let view = session.saturated_view();
        let graph = session.weak_instance().graph();
        for p in f.state_ids() {
            for a in f.action_ids() {
                assert!(std::ptr::eq(
                    view.successors(p, a),
                    graph.successors(a.index(), p.index())
                ));
            }
            assert!(std::ptr::eq(
                view.epsilon_successors(p),
                graph.successors(f.num_actions(), p.index())
            ));
        }
        assert_eq!(view.num_weak_edges(), graph.num_edges());
    }

    #[test]
    fn patched_view_matches_a_full_rebuild() {
        let mut session = EquivSession::new(sample());
        session.saturated_view();
        // A τ-free edit: s gains an observable edge back to p, which changes
        // the b-rows of r and s (r ⇒ε s).
        let f = session.fsp();
        let (s, p) = (f.state_by_name("s").unwrap(), f.state_by_name("p").unwrap());
        let b = Label::Act(f.action_id("b").unwrap());
        let outcome = session.apply_delta(&[(s, b, p)], &[]);
        assert!(outcome.view_patched);
        assert_eq!(outcome.weak_rows_changed, 2);
        assert_eq!(session.closure_builds(), 1, "the τ-closure is kept");
        assert_eq!(session.weak_instance(), &fresh(session.fsp()));
    }

    #[test]
    fn patched_view_with_no_dirty_states_is_identical() {
        let mut session = EquivSession::new(sample());
        let before = session
            .saturated_view()
            .epsilon_successors(FspState::from_index(0));
        let before = before.as_ptr() as usize;
        // p already weakly reaches r by `a` (τ then a): no weak row changes.
        let f = session.fsp();
        let (p, r) = (f.state_by_name("p").unwrap(), f.state_by_name("r").unwrap());
        let a = Label::Act(f.action_id("a").unwrap());
        let outcome = session.apply_delta(&[(p, a, r)], &[]);
        assert_eq!(outcome.weak_rows_changed, 0);
        assert!(!outcome.view_patched);
        let after = session
            .saturated_view()
            .epsilon_successors(FspState::from_index(0));
        assert_eq!(after.as_ptr() as usize, before, "the layout is kept as is");
        assert_eq!(session.weak_instance(), &fresh(session.fsp()));
    }
}
