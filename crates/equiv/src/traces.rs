//! Trace sets and trace equivalence.
//!
//! In the *restricted* model (all states accepting) the language of a state
//! is exactly its prefix-closed set of traces, so trace equivalence coincides
//! with `≈₁` / language equivalence there (Proposition 2.2.3(b)).  For
//! general processes the two notions differ (acceptance matters for the
//! language but not for traces); both are provided.
//!
//! Both functions ride the oracles' shared subset walks in
//! [`language`](crate::language), stepping over the τ-closure: the trace
//! checker observes only whether each side of a subset pair is empty (a
//! trace one side has and the other lacks), and [`traces_up_to`] keeps
//! every word of the bounded walk.

use ccs_fsp::saturate::{tau_closure, TauClosure};
use ccs_fsp::{ops, Fsp, StateId};

use crate::language::{closure_of, pair_search, subset_step, words_up_to, LanguageResult};

/// Enumerates the traces of a state up to a given length (observable strings
/// `s` with `p ⇒s p′` for some `p′`), sorted.
#[must_use]
pub fn traces_up_to(fsp: &Fsp, p: StateId, max_len: usize) -> Vec<Vec<String>> {
    words_up_to(fsp, p, max_len, |_| true)
}

/// Tests whether two states of the same process have the same trace set.
#[must_use]
pub fn trace_equivalent_states(fsp: &Fsp, p: StateId, q: StateId) -> LanguageResult {
    trace_equivalent_states_with(fsp, &tau_closure(fsp), p, q)
}

/// [`trace_equivalent_states`] against a caller-provided τ-closure — used by
/// the [`session`](crate::session) layer so repeated queries share one
/// closure.
pub(crate) fn trace_equivalent_states_with(
    fsp: &Fsp,
    closure: &TauClosure,
    p: StateId,
    q: StateId,
) -> LanguageResult {
    let step = |xs: &[u32], a| subset_step(fsp, closure, xs, a);
    let start = (closure_of(closure, p), closure_of(closure, q));
    let mismatch = pair_search(start, fsp.num_actions(), step, |xs, ys| {
        (xs.is_empty() != ys.is_empty()).then_some(())
    });
    LanguageResult::refuted_by(fsp, mismatch)
}

/// Tests whether the start states of two processes have the same trace set.
#[must_use]
pub fn trace_equivalent(left: &Fsp, right: &Fsp) -> LanguageResult {
    let union = ops::disjoint_union(left, right);
    let (p, q) = ops::union_starts(&union, left, right);
    trace_equivalent_states(&union.fsp, p, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_fsp::format;

    #[test]
    fn trace_enumeration_is_prefix_closed() {
        let f = format::parse("trans p a q\ntrans q b p").unwrap();
        let traces = traces_up_to(&f, f.start(), 3);
        assert!(traces.contains(&vec![]));
        assert!(traces.contains(&vec!["a".into()]));
        assert!(traces.contains(&vec!["a".into(), "b".into()]));
        assert!(traces.contains(&vec!["a".into(), "b".into(), "a".into()]));
        assert_eq!(traces.len(), 4);
    }

    #[test]
    fn tau_does_not_appear_in_traces() {
        let f = format::parse("trans p tau q\ntrans q a r").unwrap();
        let traces = traces_up_to(&f, f.start(), 2);
        assert_eq!(traces, vec![vec![], vec!["a".to_owned()]]);
    }

    #[test]
    fn trace_equivalence_ignores_acceptance() {
        let accepting = format::parse("trans p a q\naccept q").unwrap();
        let plain = format::parse("trans u a v").unwrap();
        assert!(trace_equivalent(&accepting, &plain).holds);
        assert!(!crate::language::language_equivalent(&accepting, &plain).holds);
    }

    #[test]
    fn different_traces_yield_a_witness() {
        let ab = format::parse("trans p a q\ntrans q b r").unwrap();
        let ac = format::parse("trans u a v\ntrans v c w").unwrap();
        let r = trace_equivalent(&ab, &ac);
        assert!(!r.holds);
        // Breadth-first over actions in alphabet order: `ab` is the first
        // one-sided trace.
        assert_eq!(r.witness.unwrap(), vec!["a".to_owned(), "b".to_owned()]);
    }

    #[test]
    fn restricted_model_traces_equal_language() {
        // All states accepting: trace equivalence and language equivalence agree.
        let a = format::parse("trans p a q\ntrans q b p\naccept p q").unwrap();
        let b = format::parse("trans u a v\ntrans v b w\ntrans w a x\ntrans x b u\naccept u v w x")
            .unwrap();
        assert_eq!(
            trace_equivalent(&a, &b).holds,
            crate::language::language_equivalent(&a, &b).holds
        );
        assert!(trace_equivalent(&a, &b).holds);
    }

    #[test]
    fn states_within_one_process() {
        let f = format::parse("trans p a q\ntrans r a s\ntrans s b t").unwrap();
        let p = f.state_by_name("p").unwrap();
        let r = f.state_by_name("r").unwrap();
        assert!(!trace_equivalent_states(&f, p, r).holds);
        let q = f.state_by_name("q").unwrap();
        let t = f.state_by_name("t").unwrap();
        assert!(trace_equivalent_states(&f, q, t).holds);
    }
}
