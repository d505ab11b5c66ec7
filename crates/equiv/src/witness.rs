//! Distinguishing Hennessy–Milner formulas for inequivalent states.
//!
//! When two states are *not* strongly equivalent there is a modal formula
//! (built from `⟨a⟩`, conjunction, negation and an extension-set test) that
//! one state satisfies and the other does not (Hennessy & Milner 1985, cited
//! in the paper's introduction).  This module constructs such a formula from
//! the partition-refinement rounds and provides a model checker
//! ([`satisfies`]) so the formula can be verified independently — the
//! property tests do exactly that.

use std::fmt;

use ccs_fsp::{Fsp, Label, StateId};
use ccs_partition::{naive, Partition};

use crate::strong;

/// A Hennessy–Milner logic formula over a process's labels and extension
/// sets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Hml {
    /// Satisfied by every state.
    True,
    /// Satisfied by states whose extension set is exactly the given set of
    /// variable names (sorted).
    Ext(Vec<String>),
    /// `⟨label⟩ φ`: some `label`-successor satisfies `φ` (`"tau"` is allowed).
    Diamond(String, Box<Hml>),
    /// Conjunction.
    And(Vec<Hml>),
    /// Negation.
    Not(Box<Hml>),
}

impl fmt::Display for Hml {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Hml::True => write!(f, "tt"),
            Hml::Ext(vars) => write!(f, "ext{{{}}}", vars.join(",")),
            Hml::Diamond(l, inner) => write!(f, "<{l}>{inner}"),
            Hml::And(cs) => {
                if cs.is_empty() {
                    return write!(f, "tt");
                }
                write!(f, "(")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " & ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
            Hml::Not(inner) => write!(f, "!{inner}"),
        }
    }
}

/// Checks whether `state` satisfies `formula` under the strong (single-step)
/// semantics.
#[must_use]
pub fn satisfies(fsp: &Fsp, state: StateId, formula: &Hml) -> bool {
    match formula {
        Hml::True => true,
        Hml::Ext(vars) => {
            let mine: Vec<String> = fsp
                .extensions(state)
                .iter()
                .map(|&v| fsp.var_name(v).to_owned())
                .collect();
            &mine == vars
        }
        Hml::Diamond(label, inner) => {
            let label = if label == "tau" {
                Some(Label::Tau)
            } else {
                fsp.action_id(label).map(Label::Act)
            };
            match label {
                Some(l) => fsp.successors(state, l).any(|t| satisfies(fsp, t, inner)),
                None => false,
            }
        }
        Hml::And(cs) => cs.iter().all(|c| satisfies(fsp, state, c)),
        Hml::Not(inner) => !satisfies(fsp, state, inner),
    }
}

/// Constructs a formula satisfied by `p` but not by `q`, or `None` if the two
/// states are strongly equivalent.
#[must_use]
pub fn distinguishing_formula(fsp: &Fsp, p: StateId, q: StateId) -> Option<Hml> {
    // Round 0 groups by extension set, round `r+1` refines round `r` by
    // single-transition signatures, and the last round is `~`.
    let rounds = naive::rounds(&strong::to_instance(fsp), usize::MAX);
    if rounds
        .last()
        .expect("at least round 0")
        .same_block(p.index(), q.index())
    {
        return None;
    }
    Some(distinguish(fsp, &rounds, p, q))
}

/// Precondition: `p` and `q` are separated by the final round.
fn distinguish(fsp: &Fsp, rounds: &[Partition], p: StateId, q: StateId) -> Hml {
    // Smallest round at which p and q are separated.
    let r = rounds
        .iter()
        .position(|part| !part.same_block(p.index(), q.index()))
        .expect("p and q are separated by some round");
    if r == 0 {
        return Hml::Ext(
            fsp.extensions(p)
                .iter()
                .map(|&v| fsp.var_name(v).to_owned())
                .collect(),
        );
    }
    let prev = &rounds[r - 1];
    // Case A: p has a transition whose (r-1)-block q cannot reach with the
    // same label.
    for t in fsp.transitions(p) {
        let reachable = fsp
            .successors(q, t.label)
            .any(|q2| prev.same_block(t.target.index(), q2.index()));
        if !reachable {
            let conjuncts: Vec<Hml> = fsp
                .successors(q, t.label)
                .map(|q2| distinguish(fsp, rounds, t.target, q2))
                .collect();
            return Hml::Diamond(
                fsp.label_name(t.label).to_owned(),
                Box::new(Hml::And(conjuncts)),
            );
        }
    }
    // Case B: symmetric — q has a transition p cannot match; negate.
    for t in fsp.transitions(q) {
        let reachable = fsp
            .successors(p, t.label)
            .any(|p2| prev.same_block(t.target.index(), p2.index()));
        if !reachable {
            let conjuncts: Vec<Hml> = fsp
                .successors(p, t.label)
                .map(|p2| distinguish(fsp, rounds, t.target, p2))
                .collect();
            return Hml::Not(Box::new(Hml::Diamond(
                fsp.label_name(t.label).to_owned(),
                Box::new(Hml::And(conjuncts)),
            )));
        }
    }
    unreachable!("states separated at round {r} must differ on some label/block")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_fsp::format;
    use ccs_fsp::ops;

    fn check_witness(fsp: &Fsp, p: StateId, q: StateId) {
        let formula = distinguishing_formula(fsp, p, q).expect("states are inequivalent");
        assert!(satisfies(fsp, p, &formula), "p must satisfy {formula}");
        assert!(!satisfies(fsp, q, &formula), "q must not satisfy {formula}");
    }

    #[test]
    fn equivalent_states_have_no_distinguishing_formula() {
        let f = format::parse("trans p a p\ntrans q a r\ntrans r a q").unwrap();
        let p = f.state_by_name("p").unwrap();
        let q = f.state_by_name("q").unwrap();
        assert!(distinguishing_formula(&f, p, q).is_none());
    }

    #[test]
    fn extension_difference_is_explained_by_ext() {
        let f = format::parse("state p q\naccept q").unwrap();
        let p = f.state_by_name("p").unwrap();
        let q = f.state_by_name("q").unwrap();
        let formula = distinguishing_formula(&f, p, q).unwrap();
        assert_eq!(formula, Hml::Ext(vec![]));
        check_witness(&f, p, q);
    }

    #[test]
    fn branching_difference_produces_a_modal_witness() {
        // a.(b + c) vs a.b + a.c.
        let merged = format::parse("trans p a q\ntrans q b r\ntrans q c s").unwrap();
        let split = format::parse("trans u a v\ntrans u a w\ntrans v b x\ntrans w c y").unwrap();
        let union = ops::disjoint_union(&merged, &split);
        let (p, q) = ops::union_starts(&union, &merged, &split);
        check_witness(&union.fsp, p, q);
        check_witness(&union.fsp, q, p);
    }

    #[test]
    fn missing_action_produces_a_diamond() {
        let f = format::parse("trans p a q\nstate r").unwrap();
        let p = f.state_by_name("p").unwrap();
        let r = f.state_by_name("r").unwrap();
        let formula = distinguishing_formula(&f, p, r).unwrap();
        check_witness(&f, p, r);
        assert!(matches!(formula, Hml::Diamond(_, _)));
    }

    #[test]
    fn tau_differences_are_visible_strongly() {
        let f = format::parse("trans p tau q\ntrans r a s").unwrap();
        let p = f.state_by_name("p").unwrap();
        let r = f.state_by_name("r").unwrap();
        check_witness(&f, p, r);
    }

    #[test]
    fn formulas_render_readably() {
        let formula = Hml::Not(Box::new(Hml::Diamond(
            "a".into(),
            Box::new(Hml::And(vec![Hml::True, Hml::Ext(vec!["x".into()])])),
        )));
        assert_eq!(formula.to_string(), "!<a>(tt & ext{x})");
        assert_eq!(Hml::And(vec![]).to_string(), "tt");
    }

    #[test]
    fn witnesses_exist_for_many_random_style_pairs() {
        let f = format::parse(
            "trans s0 a s1\ntrans s1 a s2\ntrans s2 a s3\ntrans s3 b s0\ntrans t0 a t1\ntrans t1 b t0\naccept s3 t1",
        )
        .unwrap();
        let sp = crate::strong::strong_partition(&f);
        for p in f.state_ids() {
            for q in f.state_ids() {
                if !sp.equivalent(p, q) {
                    check_witness(&f, p, q);
                } else {
                    assert!(distinguishing_formula(&f, p, q).is_none());
                }
            }
        }
    }
}
