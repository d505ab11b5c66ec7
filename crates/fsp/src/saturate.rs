//! The weak (double-arrow) transition relation `⇒` and τ-saturation.
//!
//! Observational equivalence is reduced to strong equivalence by *saturating*
//! a process (Theorem 4.1(a)): for a general FSP `P` one computes the
//! observable FSP `P̂` over the alphabet `Σ ∪ {ε}` whose transitions are the
//! weak transitions of `P`:
//!
//! * `p ⇒ε q` iff `q` is reachable from `p` by zero or more τ-moves,
//! * `p ⇒a q` (for `a ∈ Σ`) iff there exist `p′, p″` with
//!   `p ⇒ε p′ →a p″ ⇒ε q`.
//!
//! Then `p ≈ q` in `P` iff `p ~ q` in `P̂` (Proposition 2.2.1(c) plus
//! Lemma 3.1).
//!
//! The closure here is computed by a breadth-first search from every state
//! (`O(n·(n + m))`), which matches the paper's polynomial bound with better
//! constants on sparse graphs than the adjacency-matrix formulation; the
//! matrix variant is provided as [`tau_closure_matrix`] for cross-checking.
//!
//! The weak relation is exposed row by row: [`weak_action_successors`]
//! returns one sorted `(state, action)` row, which is all the equivalence
//! checkers need to lay `⇒` out once as a partition-refinement instance
//! (`ccs_equiv::saturate`).  [`saturate`] materializes the classical
//! saturated process `P̂` as a second [`Fsp`] — the slow path that layout is
//! tested against.

use std::collections::VecDeque;

use crate::label::{ActionId, Label};
use crate::process::{Fsp, StateData, Transition};
use crate::state::StateId;
use crate::EPSILON_ACTION;

/// The reflexive–transitive closure of the τ-transition relation.
///
/// `closure.successors(p)` is the sorted set `{q | p ⇒ε q}`; it always
/// contains `p` itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TauClosure {
    succ: Vec<Vec<StateId>>,
}

impl TauClosure {
    /// The sorted ε-successor set of `state` (always contains `state`).
    ///
    /// # Panics
    ///
    /// Panics if `state` does not belong to the process the closure was
    /// computed from.
    #[must_use]
    pub fn successors(&self, state: StateId) -> &[StateId] {
        &self.succ[state.index()]
    }

    /// Returns `true` iff `to` is reachable from `from` via τ-moves only.
    #[must_use]
    pub fn reaches(&self, from: StateId, to: StateId) -> bool {
        self.succ[from.index()].binary_search(&to).is_ok()
    }

    /// Number of states the closure was computed over.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.succ.len()
    }

    /// Total number of `(p, q)` pairs with `p ⇒ε q` (including reflexive
    /// pairs).
    #[must_use]
    pub fn num_pairs(&self) -> usize {
        self.succ.iter().map(Vec::len).sum()
    }

    /// Heap bytes held by the closure, measured from live container
    /// capacities (allocator slack and per-allocation headers excluded).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.succ.capacity() * std::mem::size_of::<Vec<StateId>>()
            + self
                .succ
                .iter()
                .map(|row| row.capacity() * std::mem::size_of::<StateId>())
                .sum::<usize>()
    }
}

/// Computes the reflexive–transitive τ-closure by one BFS per state.
#[must_use]
pub fn tau_closure(fsp: &Fsp) -> TauClosure {
    let n = fsp.num_states();
    let mut succ = Vec::with_capacity(n);
    let mut seen = vec![usize::MAX; n];
    for s in 0..n {
        let mut out = Vec::new();
        let mut queue = VecDeque::new();
        seen[s] = s;
        queue.push_back(StateId::from_index(s));
        while let Some(p) = queue.pop_front() {
            out.push(p);
            for t in fsp.transitions(p) {
                if t.label.is_tau() && seen[t.target.index()] != s {
                    seen[t.target.index()] = s;
                    queue.push_back(t.target);
                }
            }
        }
        out.sort_unstable();
        succ.push(out);
    }
    TauClosure { succ }
}

/// Computes the reflexive–transitive τ-closure as a boolean reachability
/// matrix using the Floyd–Warshall scheme, mirroring the paper's
/// matrix-product formulation.  Intended for cross-checking [`tau_closure`];
/// costs `O(n³)` time and `O(n²)` space.
#[must_use]
pub fn tau_closure_matrix(fsp: &Fsp) -> Vec<Vec<bool>> {
    let n = fsp.num_states();
    let mut reach = vec![vec![false; n]; n];
    for (i, row) in reach.iter_mut().enumerate() {
        row[i] = true;
    }
    for (from, label, to) in fsp.all_transitions() {
        if label.is_tau() {
            reach[from.index()][to.index()] = true;
        }
    }
    for k in 0..n {
        let via_k = reach[k].clone();
        for row in &mut reach {
            if row[k] {
                row.iter_mut().zip(&via_k).for_each(|(r, &v)| *r |= v);
            }
        }
    }
    reach
}

/// The weak `a`-successor set `{q | p ⇒a q}` for an observable action `a`.
///
/// Returned sorted and duplicate-free.
#[must_use]
pub fn weak_action_successors(
    fsp: &Fsp,
    closure: &TauClosure,
    p: StateId,
    action: ActionId,
) -> Vec<StateId> {
    let mut out = Vec::new();
    for &p1 in closure.successors(p) {
        for p2 in fsp.successors(p1, Label::Act(action)) {
            out.extend_from_slice(closure.successors(p2));
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// The set of observable actions weakly enabled at `p`: actions `a` such that
/// `p ⇒a q` for some `q`.  Used by the failures semantics (Section 5), where
/// `¬(p ⇒a)` contributes `a` to a refusal set.
#[must_use]
pub fn weakly_enabled_actions(fsp: &Fsp, closure: &TauClosure, p: StateId) -> Vec<ActionId> {
    let mut out = Vec::new();
    for a in fsp.action_ids() {
        let enabled = closure
            .successors(p)
            .iter()
            .any(|&p1| fsp.successors(p1, Label::Act(a)).next().is_some());
        if enabled {
            out.push(a);
        }
    }
    out
}

/// A τ-saturated process: the observable FSP `P̂` over `Σ ∪ {ε}` of
/// Theorem 4.1(a), plus bookkeeping to identify the ε column.
#[derive(Clone, Debug)]
pub struct Saturated {
    /// The saturated process (observable; one extra action named
    /// [`EPSILON_ACTION`]).
    pub fsp: Fsp,
    /// The action identifier of `ε` inside [`Saturated::fsp`].
    pub epsilon: ActionId,
}

/// Saturates a process: computes `P̂` with transitions `p ⇒σ q` for
/// `σ ∈ Σ ∪ {ε}`.
///
/// State identifiers, names and extension sets are preserved, so a state of
/// the original process denotes the same state in the saturated one.
///
/// The size of the saturated transition relation is `O(n²·|Σ|)` in the worst
/// case (the paper bounds it by `O(n²·m)` using per-symbol matrices).
///
/// This materializes a full second [`Fsp`] and is kept as the independent
/// slow path the equivalence checkers' weak instance is tested against.
#[must_use]
pub fn saturate(fsp: &Fsp) -> Saturated {
    let closure = tau_closure(fsp);
    saturate_with_closure(fsp, &closure)
}

/// Like [`saturate`], reusing an already-computed τ-closure.  Each state's
/// transitions are its [`weak_action_successors`] rows in action order,
/// followed by its ε row.
#[must_use]
pub fn saturate_with_closure(fsp: &Fsp, closure: &TauClosure) -> Saturated {
    let mut actions = fsp.actions.clone();
    let eps_raw = actions.intern(EPSILON_ACTION);
    let epsilon = ActionId::from_index(eps_raw as usize);
    let states: Vec<StateData> = fsp
        .state_ids()
        .map(|p| {
            let mut transitions = Vec::new();
            for a in fsp.action_ids() {
                transitions.extend(weak_action_successors(fsp, closure, p, a).into_iter().map(
                    |target| Transition {
                        label: Label::Act(a),
                        target,
                    },
                ));
            }
            transitions.extend(closure.successors(p).iter().map(|&target| Transition {
                label: Label::Act(epsilon),
                target,
            }));
            StateData {
                name: fsp.state_name(p).map(str::to_owned),
                extensions: fsp.extensions(p).clone(),
                transitions,
            }
        })
        .collect();
    let sat = Fsp::from_parts(
        format!("{}^sat", fsp.name()),
        fsp.start(),
        states,
        actions,
        fsp.vars.clone(),
    );
    Saturated { fsp: sat, epsilon }
}

/// Computes, for every state, its weak `s`-derivative set for a string `s`
/// of observable actions: `{q | p ⇒s q}` (Definition in Section 2.1).
///
/// The empty string yields the ε-closure of `p`.
#[must_use]
pub fn weak_string_derivatives(
    fsp: &Fsp,
    closure: &TauClosure,
    p: StateId,
    s: &[ActionId],
) -> Vec<StateId> {
    let mut current: Vec<StateId> = closure.successors(p).to_vec();
    for &a in s {
        let mut next = Vec::new();
        for &q in &current {
            // q ⇒ε is already folded into `current`; we need q →a r ⇒ε.
            for r in fsp.successors(q, Label::Act(a)) {
                next.extend_from_slice(closure.successors(r));
            }
        }
        next.sort_unstable();
        next.dedup();
        current = next;
        if current.is_empty() {
            break;
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fsp;

    /// p --tau--> q --a--> r --tau--> s,  p --b--> t
    fn sample() -> Fsp {
        let mut b = Fsp::builder("sat-sample");
        b.transition("p", "tau", "q");
        b.transition("q", "a", "r");
        b.transition("r", "tau", "s");
        b.transition("p", "b", "t");
        b.build().unwrap()
    }

    #[test]
    fn closure_contains_reflexive_pairs() {
        let f = sample();
        let cl = tau_closure(&f);
        for s in f.state_ids() {
            assert!(cl.reaches(s, s));
        }
        assert_eq!(cl.num_states(), f.num_states());
    }

    #[test]
    fn closure_follows_tau_chains() {
        let f = sample();
        let cl = tau_closure(&f);
        let p = f.state_by_name("p").unwrap();
        let q = f.state_by_name("q").unwrap();
        let r = f.state_by_name("r").unwrap();
        assert!(cl.reaches(p, q));
        assert!(!cl.reaches(p, r)); // the a-step is not a τ-step
        assert!(!cl.reaches(q, p)); // τ is not symmetric
        assert_eq!(cl.successors(p).len(), 2);
    }

    #[test]
    fn closure_matches_matrix_formulation() {
        let f = sample();
        let cl = tau_closure(&f);
        let m = tau_closure_matrix(&f);
        for i in f.state_ids() {
            for j in f.state_ids() {
                assert_eq!(cl.reaches(i, j), m[i.index()][j.index()]);
            }
        }
    }

    #[test]
    fn transitive_tau_chain_is_closed() {
        let mut b = Fsp::builder("chain");
        b.transition("a0", "tau", "a1");
        b.transition("a1", "tau", "a2");
        b.transition("a2", "tau", "a3");
        let f = b.build().unwrap();
        let cl = tau_closure(&f);
        let a0 = f.state_by_name("a0").unwrap();
        assert_eq!(cl.successors(a0).len(), 4);
        assert_eq!(cl.num_pairs(), 4 + 3 + 2 + 1);
    }

    #[test]
    fn weak_action_successors_skip_over_tau() {
        let f = sample();
        let cl = tau_closure(&f);
        let p = f.state_by_name("p").unwrap();
        let r = f.state_by_name("r").unwrap();
        let s = f.state_by_name("s").unwrap();
        let a = f.action_id("a").unwrap();
        let succs = weak_action_successors(&f, &cl, p, a);
        assert_eq!(succs, vec![r, s]);
    }

    #[test]
    fn weakly_enabled_sees_through_tau() {
        let f = sample();
        let cl = tau_closure(&f);
        let p = f.state_by_name("p").unwrap();
        let enabled = weakly_enabled_actions(&f, &cl, p);
        let names: Vec<&str> = enabled.iter().map(|&a| f.action_name(a)).collect();
        assert_eq!(names, vec!["a", "b"]);
        let s = f.state_by_name("s").unwrap();
        assert!(weakly_enabled_actions(&f, &cl, s).is_empty());
    }

    #[test]
    fn saturation_produces_observable_process() {
        let f = sample();
        let sat = saturate(&f);
        assert!(!sat.fsp.has_tau_transitions());
        assert_eq!(sat.fsp.num_states(), f.num_states());
        assert_eq!(sat.fsp.action_name(sat.epsilon), crate::EPSILON_ACTION);
        // p ⇒a {r, s}; p ⇒ε {p, q}; p ⇒b {t}.
        let p = f.state_by_name("p").unwrap();
        let a = sat.fsp.action_id("a").unwrap();
        let succs: Vec<_> = sat.fsp.successors(p, Label::Act(a)).collect();
        assert_eq!(succs.len(), 2);
        let eps: Vec<_> = sat.fsp.successors(p, Label::Act(sat.epsilon)).collect();
        assert_eq!(eps.len(), 2);
    }

    #[test]
    fn string_derivatives() {
        let f = sample();
        let cl = tau_closure(&f);
        let p = f.state_by_name("p").unwrap();
        let a = f.action_id("a").unwrap();
        let b = f.action_id("b").unwrap();
        assert_eq!(weak_string_derivatives(&f, &cl, p, &[]).len(), 2);
        assert_eq!(weak_string_derivatives(&f, &cl, p, &[a]).len(), 2);
        assert_eq!(weak_string_derivatives(&f, &cl, p, &[b]).len(), 1);
        assert!(weak_string_derivatives(&f, &cl, p, &[a, a]).is_empty());
        assert!(weak_string_derivatives(&f, &cl, p, &[b, a]).is_empty());
    }

    #[test]
    fn saturation_preserves_extensions_and_names() {
        let mut b = Fsp::builder("ext");
        b.transition("p", "tau", "q");
        let q = b.state("q");
        b.mark_accepting(q);
        let f = b.build().unwrap();
        let sat = saturate(&f);
        assert!(sat.fsp.is_accepting(q));
        assert_eq!(sat.fsp.state_name(q), Some("q"));
        assert!(!sat.fsp.is_accepting(f.state_by_name("p").unwrap()));
    }
}
