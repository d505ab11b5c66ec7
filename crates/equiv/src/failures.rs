//! Failure equivalence `≡F` — Section 5, Theorem 5.1.
//!
//! For a state `p` of a restricted process,
//! `failures(p) = {(s, Z) | ∃p′: p ⇒s p′ and ∀z ∈ Z: ¬(p′ ⇒z)}`:
//! the pairs of a trace and a set of actions that can be *refused* after it.
//! Two states are failure equivalent iff their failure sets coincide.
//!
//! Deciding `≡F` is PSPACE-complete even for restricted observable processes
//! over a two-letter alphabet (Theorem 5.1); the checker here performs a
//! synchronized *failures determinization*: explore pairs of subset states
//! reachable by the same trace, and at each pair compare the antichains of
//! maximal refusal sets.  The worst case is exponential — as it must be —
//! but the special cases the paper singles out (finite trees, deterministic
//! processes, unary alphabets) stay polynomial because their determinizations
//! are small.
//!
//! The exploration is the oracles' shared synchronized pair search in
//! [`language`](crate::language), stepping over the [`SaturatedView`]; this
//! module supplies only the observation: a trace present on one side only
//! is reported with refusal `∅`, and differing antichains with a refusal
//! one side has and the other lacks.  [`failures_up_to`] lists the
//! antichain at every subset of the shared bounded word walk.

use ccs_fsp::saturate::tau_closure;
use ccs_fsp::{ops, ActionId, Fsp, StateId};

use crate::compact::narrow;
use crate::language::{closure_of_view, pair_search, subset_step_view, walk_up_to, word_names};
use crate::saturate::{weak_instance, SaturatedView};

/// A single failure pair `(trace, refusal)`, with action names spelled out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailurePair {
    /// The observable trace `s`.
    pub trace: Vec<String>,
    /// The refused set `Z ⊆ Σ`.
    pub refusal: Vec<String>,
}

/// Outcome of a failure-equivalence test.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailureResult {
    /// Whether the two states have identical failure sets.
    pub equivalent: bool,
    /// When not equivalent, a failure pair belonging to exactly one of the
    /// two states.
    pub witness: Option<FailurePair>,
}

/// The maximal refusal sets of a subset state: for each member `p′`, its
/// refusal `Σ \ {a | p′ ⇒a}`; the antichain keeps only ⊆-maximal sets.
///
/// Weak enabledness is read off the [`SaturatedView`]'s CSR columns —
/// `|Σ|` slice-emptiness checks per member instead of a τ-closure walk.
/// Shared with the [`determinize`](crate::determinize) layer, whose
/// per-subset failure annotation interns exactly this antichain.
pub(crate) fn maximal_refusals(view: SaturatedView<'_>, subset: &[u32]) -> Vec<Vec<u32>> {
    let all_actions: Vec<u32> = (0..narrow(view.num_actions())).collect();
    let mut refusals: Vec<Vec<u32>> = subset
        .iter()
        .map(|&x| {
            let enabled: Vec<u32> = view
                .weakly_enabled(StateId::from_index(x as usize))
                .map(|a| narrow(a.index()))
                .collect();
            all_actions
                .iter()
                .copied()
                .filter(|a| !enabled.contains(a))
                .collect()
        })
        .collect();
    refusals.sort();
    refusals.dedup();
    // Keep only maximal sets under inclusion.
    let is_subset = |a: &[u32], b: &[u32]| a.iter().all(|x| b.contains(x));
    refusals
        .iter()
        .filter(|r| {
            !refusals
                .iter()
                .any(|other| other != *r && is_subset(r, other))
        })
        .cloned()
        .collect()
}

/// A set of compact action indices spelled with the process's action names.
pub(crate) fn name_set(fsp: &Fsp, actions: &[u32]) -> Vec<String> {
    let name = |&a: &u32| fsp.action_name(ActionId::from_index(a as usize)).to_owned();
    actions.iter().map(name).collect()
}

/// Picks a refusal set present in the downward closure of `left` antichain
/// but not of `right` (both given as antichains of maximal refusals).
pub(crate) fn distinguishing_refusal(left: &[Vec<u32>], right: &[Vec<u32>]) -> Option<Vec<u32>> {
    let is_subset = |a: &[u32], b: &[u32]| a.iter().all(|x| b.contains(x));
    left.iter()
        .find(|l| !right.iter().any(|r| is_subset(l, r)))
        .cloned()
}

/// Tests whether two states of the same process are failure equivalent.
///
/// The paper defines failures for the *restricted* model; this function
/// accepts any process and simply ignores extension sets (failures only
/// mention transitions).
#[must_use]
pub fn failure_equivalent_states(fsp: &Fsp, p: StateId, q: StateId) -> FailureResult {
    let inst = weak_instance(fsp, &tau_closure(fsp));
    failure_equivalent_states_with(fsp, SaturatedView::of(&inst), p, q)
}

/// [`failure_equivalent_states`] against a caller-provided saturated view —
/// used by the [`session`](crate::session) layer so repeated queries share
/// one weak transition relation.
pub(crate) fn failure_equivalent_states_with(
    fsp: &Fsp,
    view: SaturatedView<'_>,
    p: StateId,
    q: StateId,
) -> FailureResult {
    let step = |xs: &[u32], a| subset_step_view(view, xs, a);
    let start = (closure_of_view(view, p), closure_of_view(view, q));
    let mismatch = pair_search(start, fsp.num_actions(), step, |xs, ys| {
        // Trace present on one side only: (s, ∅) separates the failure sets.
        if xs.is_empty() != ys.is_empty() {
            return Some(Vec::new());
        }
        let rx = maximal_refusals(view, xs);
        let ry = maximal_refusals(view, ys);
        (rx != ry).then(|| {
            distinguishing_refusal(&rx, &ry)
                .or_else(|| distinguishing_refusal(&ry, &rx))
                .unwrap_or_default()
        })
    });
    FailureResult {
        equivalent: mismatch.is_none(),
        witness: mismatch.map(|(trace, refusal)| FailurePair {
            trace: word_names(fsp, &trace),
            refusal: name_set(fsp, &refusal),
        }),
    }
}

/// Tests whether the start states of two processes are failure equivalent.
#[must_use]
pub fn failure_equivalent(left: &Fsp, right: &Fsp) -> FailureResult {
    let union = ops::disjoint_union(left, right);
    let (p, q) = ops::union_starts(&union, left, right);
    failure_equivalent_states(&union.fsp, p, q)
}

/// Enumerates the failures of a state up to a given trace length, returning
/// `(trace, maximal refusal sets)` pairs.  The full (downward-closed) failure
/// set is the set of `(s, Z)` with `Z` a subset of one of the listed maximal
/// refusals.
#[must_use]
pub fn failures_up_to(
    fsp: &Fsp,
    p: StateId,
    max_len: usize,
) -> Vec<(Vec<String>, Vec<Vec<String>>)> {
    let inst = weak_instance(fsp, &tau_closure(fsp));
    let view = SaturatedView::of(&inst);
    let step = |subset: &[u32], a| subset_step_view(view, subset, a);
    let mut failures = Vec::new();
    walk_up_to(
        closure_of_view(view, p),
        fsp.num_actions(),
        max_len,
        step,
        |subset, trace| {
            failures.push((trace.to_vec(), maximal_refusals(view, subset)));
        },
    );
    failures
        .iter()
        .map(|(trace, refusals)| {
            let names = refusals.iter().map(|r| name_set(fsp, r)).collect();
            (word_names(fsp, trace), names)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_fsp::format;

    /// a.b + a.c vs a.(b + c), restricted: the canonical failure-inequivalent,
    /// trace-equivalent pair.
    #[test]
    fn internal_vs_external_choice() {
        let split =
            format::parse("trans u a v\ntrans u a w\ntrans v b x\ntrans w c y\naccept u v w x y")
                .unwrap();
        let merged =
            format::parse("trans p a q\ntrans q b r\ntrans q c s\naccept p q r s").unwrap();
        assert!(crate::traces::trace_equivalent(&split, &merged).holds);
        let r = failure_equivalent(&split, &merged);
        assert!(!r.equivalent);
        let w = r.witness.unwrap();
        assert_eq!(w.trace, vec!["a".to_owned()]);
        // After `a`, the split process can refuse {b} or {c}; the merged one
        // cannot refuse either.
        assert!(!w.refusal.is_empty());
    }

    #[test]
    fn failure_equivalence_is_reflexive_and_symmetric() {
        let f = format::parse("trans p a q\ntrans q b p\naccept p q").unwrap();
        assert!(failure_equivalent(&f, &f).equivalent);
    }

    #[test]
    fn strong_equivalence_implies_failure_equivalence() {
        // Proposition 2.2.3(a): ~ implies ≡F (restricted model).
        let small = format::parse("trans p a p\naccept p").unwrap();
        let big = format::parse("trans u a v\ntrans v a u\naccept u v").unwrap();
        assert!(crate::strong::strong_equivalent(&small, &big));
        assert!(failure_equivalent(&small, &big).equivalent);
    }

    #[test]
    fn failure_equivalence_implies_trace_equivalence() {
        // Proposition 2.2.3(a): ≡F implies ≈₁ (trace/language equivalence).
        // Use processes with identical failures.
        let a = format::parse("trans p a q\naccept p q").unwrap();
        let b = format::parse("trans u a v\ntrans u a w\naccept u v w").unwrap();
        let fe = failure_equivalent(&a, &b);
        assert!(fe.equivalent);
        assert!(crate::traces::trace_equivalent(&a, &b).holds);
    }

    #[test]
    fn missing_continuation_is_detected_after_its_prefix() {
        // `ab` can continue with b after a; `a_only` deadlocks and therefore
        // refuses {a, b} after a, which `ab` cannot.  The checker reports the
        // difference at the shortest trace where the failure sets diverge.
        let ab = format::parse("trans p a q\ntrans q b r\naccept p q r").unwrap();
        let a_only = format::parse("trans u a v\naccept u v").unwrap();
        let r = failure_equivalent(&ab, &a_only);
        assert!(!r.equivalent);
        let w = r.witness.unwrap();
        assert_eq!(w.trace, vec!["a".to_owned()]);
        assert!(w.refusal.contains(&"b".to_owned()));
    }

    #[test]
    fn trace_missing_on_one_side_yields_empty_refusal_witness() {
        // Over a unary alphabet the refusal sets after `a` coincide (both
        // deadlock or both continue is impossible here), so the first
        // difference is the trace `aa` itself, reported with refusal ∅.
        let aa = format::parse("trans p a q\ntrans q a r\naccept p q r").unwrap();
        let a_only = format::parse("trans u a v\naccept u v").unwrap();
        let r = failure_equivalent(&aa, &a_only);
        assert!(!r.equivalent);
        // After `a`, `aa`'s derivative can still move but `a_only`'s refuses
        // {a}: the shortest witness is `(a, {a})`.
        let w = r.witness.unwrap();
        assert_eq!(w.trace, vec!["a".to_owned()]);
        assert_eq!(w.refusal, vec!["a".to_owned()]);
    }

    #[test]
    fn tau_introduces_refusals() {
        // a + τ.b can refuse {a} (by silently moving), a + b cannot.
        let internal =
            format::parse("trans p a q\ntrans p tau r\ntrans r b s\naccept p q r s").unwrap();
        let external = format::parse("trans u a v\ntrans u b w\naccept u v w").unwrap();
        assert!(crate::traces::trace_equivalent(&internal, &external).holds);
        let r = failure_equivalent(&internal, &external);
        assert!(!r.equivalent);
        let w = r.witness.unwrap();
        assert_eq!(w.trace, Vec::<String>::new());
        assert_eq!(w.refusal, vec!["a".to_owned()]);
    }

    #[test]
    fn failures_enumeration_matches_paper_example_shape() {
        // The finite tree of Fig. 1b: start -a-> {b-child, c-child}, i.e.
        // a.(b ∪ c) plus a second a-branch a.c — simplified here to
        // a.b + a.c over Σ = {a, b, c}.
        let tree = format::parse(
            "trans root a n1\ntrans root a n2\ntrans n1 b l1\ntrans n2 c l2\naccept root n1 n2 l1 l2",
        )
        .unwrap();
        let failures = failures_up_to(&tree, tree.start(), 2);
        // At the empty trace the root refuses exactly {b, c}.
        let (eps_trace, eps_refusals) = &failures[0];
        assert!(eps_trace.is_empty());
        assert_eq!(eps_refusals.len(), 1);
        assert_eq!(eps_refusals[0], vec!["b".to_owned(), "c".to_owned()]);
        // After `a` there are two derivative states with different refusals.
        let after_a: Vec<_> = failures
            .iter()
            .filter(|(t, _)| t == &vec!["a".to_owned()])
            .collect();
        assert_eq!(after_a.len(), 1);
        assert_eq!(after_a[0].1.len(), 2);
    }

    /// The three bounded enumerations on one τ-bearing process, pinned
    /// exactly (order included for `failures_up_to`, which is unsorted).
    #[test]
    fn bounded_enumerations_on_a_tau_process() {
        let f = format::parse(
            "trans p a q\ntrans p tau r\ntrans r b s\ntrans s tau p\ntrans q a q\naccept q s",
        )
        .unwrap();
        let p = f.start();
        let words = |ws: &[&[&str]]| -> Vec<Vec<String>> {
            ws.iter()
                .map(|w| w.iter().map(|&a| a.to_owned()).collect())
                .collect()
        };
        assert_eq!(
            crate::language::language_up_to(&f, p, 2),
            words(&[&["a"], &["a", "a"], &["b"], &["b", "a"], &["b", "b"]])
        );
        assert_eq!(
            crate::traces::traces_up_to(&f, p, 2),
            words(&[&[], &["a"], &["a", "a"], &["b"], &["b", "a"], &["b", "b"]])
        );
        // Failures come level by level in exploration order, each trace
        // with its ⊆-maximal refusals: `p`'s τ-move to `r` refuses {a}.
        let pin =
            |trace: &[&str], refusal: &[&str]| (words(&[trace])[0].clone(), words(&[refusal]));
        assert_eq!(
            failures_up_to(&f, p, 2),
            vec![
                pin(&[], &["a"]),
                pin(&["a"], &["b"]),
                pin(&["b"], &["a"]),
                pin(&["a", "a"], &["b"]),
                pin(&["b", "a"], &["b"]),
                pin(&["b", "b"], &["a"]),
            ]
        );
    }

    #[test]
    fn deterministic_processes_failure_equivalence_equals_trace_equivalence() {
        // Proposition 2.2.4: in the deterministic model the notions collapse.
        let a = format::parse("trans p a q\ntrans q b p\ntrans p b p\ntrans q a q\naccept p q")
            .unwrap();
        let b = format::parse("trans u a v\ntrans v b u\ntrans u b u\ntrans v a v\naccept u v")
            .unwrap();
        assert!(failure_equivalent(&a, &b).equivalent);
        assert!(crate::traces::trace_equivalent(&a, &b).holds);
    }
}
